from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deteval import geometry
from deteval.errors import GeometryError
from deteval.geometry import (
    BBox,
    InstanceMask,
    Polygon,
    RLEMask,
    SizeClass,
    box_iou,
    rle_decode,
    rle_encode,
    size_class,
)
from deteval.oracle import full_grid, mask_iou, rasterize


def grid_iou(a: BBox, b: BBox, step: float = 0.05) -> float:
    """Pixel-count IoU oracle: count sample points on a fine grid."""
    x0 = min(a.x, b.x)
    y0 = min(a.y, b.y)
    x1 = max(a.x2, b.x2)
    y1 = max(a.y2, b.y2)
    xs = np.arange(x0 + step / 2, x1, step)
    ys = np.arange(y0 + step / 2, y1, step)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= a.x) & (gx < a.x2) & (gy >= a.y) & (gy < a.y2)
    in_b = (gx >= b.x) & (gx < b.x2) & (gy >= b.y) & (gy < b.y2)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def supersampled_area(polygon: Polygon, width: int, height: int, factor: int = 16) -> float:
    """Polygon area oracle: 256x supersampling (factor^2 points per pixel)."""
    fine = rasterize(polygon.scaled(factor, factor), width * factor, height * factor)
    return np.count_nonzero(fine) / factor**2


class TestBoxIou:
    def test_identical(self):
        a = BBox(0, 0, 10, 10)
        assert box_iou(a, BBox(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert box_iou(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0

    def test_one_third_overlap(self):
        a = BBox(0, 0, 2, 2)
        b = BBox(1, 0, 2, 2)
        # intersection 2, union 6
        assert box_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
        assert box_iou(a, b) == pytest.approx(grid_iou(a, b), abs=1e-3)

    def test_degenerate_boxes_give_zero(self):
        assert box_iou(BBox(0, 0, 0, 0), BBox(0, 0, 0, 0)) == 0.0
        assert box_iou(BBox(0, 0, 0, 5), BBox(0, 0, 5, 5)) == 0.0

    def test_negative_extent_rejected(self):
        with pytest.raises(GeometryError):
            BBox(0, 0, -1, 5)

    @given(
        st.tuples(
            st.floats(0, 50), st.floats(0, 50), st.floats(0, 20), st.floats(0, 20)
        ),
        st.tuples(
            st.floats(0, 50), st.floats(0, 50), st.floats(0, 20), st.floats(0, 20)
        ),
    )
    def test_symmetry_and_range(self, t1, t2):
        a, b = BBox(*t1), BBox(*t2)
        iou = box_iou(a, b)
        assert box_iou(b, a) == iou
        assert 0.0 <= iou <= 1.0

    @given(
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(1, 15),
        st.integers(1, 15),
        st.integers(0, 30),
        st.integers(0, 30),
        st.integers(1, 15),
        st.integers(1, 15),
    )
    def test_matches_grid_oracle(self, ax, ay, aw, ah, bx, by, bw, bh):
        a = BBox(ax, ay, aw, ah)
        b = BBox(bx, by, bw, bh)
        assert box_iou(a, b) == pytest.approx(grid_iou(a, b, step=0.25), abs=1e-9)

    def test_identity_only_for_identical(self):
        a = BBox(0, 0, 4, 4)
        assert box_iou(a, BBox(0, 0, 4, 4.5)) < 1.0

    @given(
        st.tuples(
            st.integers(0, 120), st.integers(0, 120),
            st.integers(1, 60), st.integers(1, 60),
        ),
        st.tuples(
            st.integers(0, 120), st.integers(0, 120),
            st.integers(1, 60), st.integers(1, 60),
        ),
    )
    def test_unit_iou_iff_identical_on_grid(self, q1, q2):
        # quarter-pixel grid keeps the iff clean of sub-ulp coincidences
        a = BBox(*(v / 4 for v in q1))
        b = BBox(*(v / 4 for v in q2))
        assert (box_iou(a, b) == 1.0) == (a == b)


class TestRasterize:
    def test_square_fills_grid(self):
        sq = Polygon.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert np.count_nonzero(rasterize(sq, 2, 2)) == 4

    def test_square_on_larger_grid(self):
        sq = Polygon.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        m = rasterize(sq, 4, 4)
        expected = np.zeros((4, 4), dtype=bool)
        expected[:2, :2] = True
        assert np.array_equal(m, expected)

    def test_right_triangle_area(self):
        # Degenerate alignment: the hypotenuse passes exactly through the
        # centers of the four diagonal pixels, so a strict pixel-center rule
        # counts 6 (an inclusive one would count 10; no binary rule lands on
        # the half-covered 8). The supersampling oracle bounds the error.
        tri = Polygon.from_points([(0, 0), (4, 0), (0, 4)])
        oracle = supersampled_area(tri, 4, 4)
        assert oracle == pytest.approx(7.875, abs=1e-9)
        assert np.count_nonzero(rasterize(tri, 4, 4)) == 6
        assert abs(np.count_nonzero(rasterize(tri, 4, 4)) - oracle) <= 2.0

    def test_right_triangle_area_gentle_slope(self):
        # a non-45-degree hypotenuse staircases one pixel at a time, so the
        # raster stays within one pixel of the supersampled coverage
        tri = Polygon.from_points([(0, 0), (4, 0), (0, 2)])
        oracle = supersampled_area(tri, 4, 2)
        assert abs(np.count_nonzero(rasterize(tri, 4, 2)) - oracle) <= 1.0
        assert oracle == pytest.approx(4.0, abs=0.2)

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            rasterize(Polygon.from_points([(0, 0), (1, 1)]), 4, 4)

    def test_clipping(self):
        sq = Polygon.from_points([(-5, -5), (3, -5), (3, 3), (-5, 3)])
        assert np.count_nonzero(rasterize(sq, 8, 8)) == 9

    def test_orientation_independent(self):
        cw = Polygon.from_points([(1, 1), (1, 6), (6, 6), (6, 1)])
        ccw = Polygon.from_points([(1, 1), (6, 1), (6, 6), (1, 6)])
        assert np.array_equal(rasterize(cw, 8, 8), rasterize(ccw, 8, 8))

    def test_nearly_horizontal_edge_is_stable(self):
        # an edge with a denormal-scale rise crossing a row of pixel centers
        # must not overflow the crossing computation
        eps = 1e-300
        poly = Polygon.from_points(
            [(0, 0.5 - eps), (6, 0.5 + eps), (6, 5), (0, 5)]
        )
        m = rasterize(poly, 8, 8)
        expected = np.zeros((8, 8), dtype=bool)
        expected[1:5, :6] = True
        # row 0 centers sit within eps of the top edge; either side is fine,
        # but the rest of the grid must be exact and finite
        assert np.array_equal(m[1:], expected[1:])

    @given(
        st.integers(2, 12),
        st.lists(
            st.tuples(st.floats(0, 12), st.floats(0, 12)), min_size=3, max_size=8
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_supersampling_oracle(self, size, points):
        poly = Polygon.from_points(points)
        fast = np.count_nonzero(rasterize(poly, size, size))
        slow = supersampled_area(poly, size, size, factor=8)
        # pixel-center sampling can differ from true coverage by the
        # boundary band, which is bounded by the perimeter in pixels
        perimeter = sum(
            np.hypot(x2 - x1, y2 - y1)
            for (x1, y1), (x2, y2) in zip(
                poly.vertices, poly.vertices[1:] + poly.vertices[:1]
            )
        )
        assert abs(fast - slow) <= perimeter + 2


class TestMaskIou:
    def test_identical(self):
        m = rasterize(Polygon.from_points([(0, 0), (3, 0), (3, 3), (0, 3)]), 4, 4)
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = np.array([[1, 0], [0, 0]], dtype=bool)
        b = np.array([[0, 0], [0, 1]], dtype=bool)
        assert mask_iou(a, b) == 0.0

    def test_both_empty(self):
        assert mask_iou(np.zeros((3, 3), dtype=bool), np.zeros((3, 3), dtype=bool)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            mask_iou(np.zeros((3, 3), dtype=bool), np.zeros((3, 4), dtype=bool))

    def test_matches_box_iou_for_integer_boxes(self):
        a = BBox(0, 0, 2, 2)
        b = BBox(1, 0, 2, 2)
        pa = Polygon.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        pb = Polygon.from_points([(1, 0), (3, 0), (3, 2), (1, 2)])
        assert mask_iou(rasterize(pa, 4, 4), rasterize(pb, 4, 4)) == box_iou(a, b)

    def test_box_mask_consistency_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ax, ay, bx, by = rng.integers(0, 20, size=4)
            aw, ah, bw, bh = rng.integers(1, 12, size=4)
            a, b = BBox(ax, ay, aw, ah), BBox(bx, by, bw, bh)
            w = int(max(a.x2, b.x2))
            h = int(max(a.y2, b.y2))
            ma = rasterize(_box_poly(a), w, h)
            mb = rasterize(_box_poly(b), w, h)
            assert mask_iou(ma, mb) == box_iou(a, b)


def _box_poly(b: BBox) -> Polygon:
    return Polygon.from_points([(b.x, b.y), (b.x2, b.y), (b.x2, b.y2), (b.x, b.y2)])


class TestRle:
    def test_all_zero(self):
        assert rle_encode(np.zeros((3, 3), dtype=bool)).runs.tolist() == [9]

    def test_all_one(self):
        assert rle_encode(np.ones((3, 3), dtype=bool)).runs.tolist() == [0, 9]

    def test_alternating(self):
        m = np.array([[1, 0], [0, 1]], dtype=bool)
        assert rle_encode(m).runs.tolist() == [0, 1, 2, 1]

    def test_corrupt_run_sum(self):
        with pytest.raises(GeometryError):
            RLEMask(3, 3, (4, 4))

    def test_negative_run(self):
        with pytest.raises(GeometryError):
            RLEMask(2, 2, (-1, 5))

    def test_roundtrip_seeded(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            w = int(rng.integers(1, 24))
            h = int(rng.integers(1, 24))
            m = rng.random((h, w)) < rng.random()
            assert np.array_equal(rle_decode(rle_encode(m)), m)

    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, w, h, seed):
        m = np.random.default_rng(seed).random((h, w)) < 0.5
        back = rle_decode(rle_encode(m))
        assert np.array_equal(back, m)


class TestSizeClass:
    @pytest.mark.parametrize(
        "area,expected",
        [
            (0, SizeClass.SMALL),
            (1023, SizeClass.SMALL),
            (1024, SizeClass.MEDIUM),
            (9215, SizeClass.MEDIUM),
            (9216, SizeClass.LARGE),
            (1e9, SizeClass.LARGE),
        ],
    )
    def test_boundaries(self, area, expected):
        assert size_class(area) == expected

    @given(st.floats(0, 1e12))
    def test_total_partition(self, area):
        assert size_class(area) in (SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE)


class TestInstanceMask:
    def test_window_matches_full_canvas(self):
        poly = Polygon.from_points([(2.5, 1.5), (9, 2), (7, 8), (3, 6)])
        inst = InstanceMask(polygons=[poly], canvas=(12, 10))
        assert np.array_equal(full_grid(inst.window(), 12, 10), rasterize(poly, 12, 10))
        assert inst.area == np.count_nonzero(rasterize(poly, 12, 10))

    def test_anchored_iou_matches_full_mask_iou(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pa = _random_star(rng, 16)
            pb = _random_star(rng, 16)
            ia = InstanceMask(polygons=[pa], canvas=(16, 16))
            ib = InstanceMask(polygons=[pb], canvas=(16, 16))
            full = mask_iou(rasterize(pa, 16, 16), rasterize(pb, 16, 16))
            assert ia.iou(ib) == pytest.approx(full, abs=1e-12)

    def test_rle_instance(self):
        m = np.eye(4, dtype=bool)
        inst = InstanceMask(rle=rle_encode(m), canvas=(4, 4))
        assert inst.area == 4
        assert np.array_equal(full_grid(inst.window(), 4, 4), m)

    def test_mismatched_rle_canvas(self):
        m = rle_encode(np.zeros((4, 4), dtype=bool))
        with pytest.raises(GeometryError):
            InstanceMask(rle=m, canvas=(5, 4))

    def test_canvas_conflict_on_iou(self):
        a = InstanceMask(rle=rle_encode(np.zeros((4, 4), dtype=bool)), canvas=(4, 4))
        b = InstanceMask(rle=rle_encode(np.zeros((5, 5), dtype=bool)), canvas=(5, 5))
        with pytest.raises(GeometryError):
            a.iou(b)

    def test_multi_polygon_union(self):
        p1 = Polygon.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        p2 = Polygon.from_points([(3, 3), (5, 3), (5, 5), (3, 5)])
        inst = InstanceMask(polygons=[p1, p2], canvas=(6, 6))
        assert inst.area == 8

    @pytest.mark.parametrize("dx, dy", [(-20, 0), (0, -20), (20, 0), (0, 20)])
    def test_polygon_off_the_canvas_is_empty(self, dx, dy):
        poly = Polygon.from_points(
            [(2 + dx, 2 + dy), (8 + dx, 2 + dy), (8 + dx, 8 + dy)]
        )
        inst = InstanceMask(polygons=[poly], canvas=(10, 10))
        assert inst.area == 0
        inside = InstanceMask(polygons=[Polygon.from_points([(0, 0), (9, 0), (9, 9)])],
                              canvas=(10, 10))
        assert inst.iou(inside) == 0.0


class TestPolygonCoordinates:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e308,
                                     -(2.0**53) - 2])
    def test_out_of_range_coordinate_rejected(self, bad):
        with pytest.raises(GeometryError, match="not a finite number"):
            Polygon.from_flat([0, 0, 4, 0, bad, 4])

    def test_largest_coordinates_accepted(self):
        poly = Polygon.from_flat([-(2.0**53), 0, 2.0**53, 0, 0, 2.0**53])
        assert InstanceMask(polygons=[poly], canvas=(8, 8)).area > 0


@st.composite
def rle_grids(draw):
    """Run-length grids from sorted cut points: runs may be empty, wrap
    across rows or end on the last pixel."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, w * h), max_size=8)))
    return RLEMask(w, h, tuple(np.diff([0, *cuts, w * h]).tolist()))


class TestCroppedRleWindow:
    @staticmethod
    def assert_round_trip(rle):
        inst = InstanceMask(rle=rle)
        full = rle_decode(rle)
        assert np.array_equal(full_grid(inst.window(), rle.width, rle.height), full)
        assert inst.area == np.count_nonzero(full)
        bits, x0, y0 = inst.window()
        if full.any():
            rows = np.flatnonzero(full.any(axis=1))
            assert (y0, bits.shape[0]) == (rows[0], rows[-1] - rows[0] + 1)
            assert bits.any(axis=0)[[0, -1]].all() or bits.shape[1] == rle.width
        else:
            assert bits.size == 0

    @pytest.mark.parametrize(
        "runs",
        [
            (20,),  # empty
            (0, 20),  # full
            (19, 1),  # only the last pixel
            (0, 1, 19),  # only the first pixel
            (3, 4, 13),  # one run wrapping from row 0 onto row 1
            (6, 1, 4, 1, 8),  # two pixels a row apart, in one column
            (0, 2, 0, 3, 15),  # an empty zero run between one runs
        ],
    )
    def test_edge_cases(self, runs):
        self.assert_round_trip(RLEMask(5, 4, runs))

    @given(rle_grids())
    @settings(max_examples=300)
    def test_round_trip_property(self, rle):
        self.assert_round_trip(rle)

    def test_window_is_cropped_to_the_object(self):
        bits = np.zeros((540, 960), dtype=bool)
        bits[200:210, 500:510] = True
        inst = InstanceMask(rle=rle_encode(bits), canvas=(960, 540))
        window, x0, y0 = inst.window()
        assert window.size <= 100
        assert (x0, y0) == (500, 200)
        assert inst.area == 100


def _random_star(rng, size):
    cx, cy = rng.uniform(4, size - 4, size=2)
    k = int(rng.integers(3, 9))
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
    radii = rng.uniform(1.0, 3.5, size=k)
    pts = [(cx + r * np.cos(a), cy + r * np.sin(a)) for a, r in zip(angles, radii)]
    return Polygon.from_points(pts)


# coordinates anywhere around a 16x12 canvas, on half-pixel centres, on
# pixel edges, and one value shared by many vertices, so that horizontal
# edges and crossings exactly on a pixel center occur
BATCH_COORD = st.one_of(
    st.floats(-6, 22),
    st.integers(-4, 20).map(lambda k: k + 0.5),
    st.integers(-4, 20).map(float),
    st.just(3.0),
)
# vertices in random order make self-intersecting rings; a shift of -30 or
# +40 moves a ring wholly off the canvas
BATCH_RING = st.tuples(
    st.lists(st.tuples(BATCH_COORD, BATCH_COORD), min_size=3, max_size=7),
    st.sampled_from([0.0, 0.0, -30.0, 40.0]),
).map(lambda r: Polygon.from_points((x + r[1], y + r[1]) for x, y in r[0]))
BATCH_MASK = st.builds(
    lambda rings, canvas: InstanceMask(polygons=rings, canvas=canvas),
    st.lists(BATCH_RING, min_size=1, max_size=3),
    st.sampled_from([None, (16, 12), (16, 12), (3, 2)]),
)


class TestBatchedRasterDifferential:
    """The batched rasterizer gives exactly the windows the one-ring-at-a-
    time reference gives: the same bits, shapes and anchors."""

    @staticmethod
    def assert_matches_reference(masks):
        from deteval.geometry import polygon_windows
        from deteval.oracle import reference_window

        for chunk_cells in (geometry.RASTER_CHUNK_CELLS, 16):
            with mock.patch.object(geometry, "RASTER_CHUNK_CELLS", chunk_cells):
                got = polygon_windows([m.polygons for m in masks], [m.canvas for m in masks])
            assert len(got) == len(masks)
            for m, (bits, x0, y0) in zip(masks, got):
                ref_bits, rx0, ry0 = reference_window(m)
                assert (x0, y0) == (rx0, ry0)
                assert bits.dtype == bool and bits.shape == ref_bits.shape
                assert np.array_equal(bits, ref_bits)

    @given(st.lists(BATCH_MASK, min_size=1, max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_batches_property(self, masks):
        self.assert_matches_reference(masks)

    def test_edge_cases_in_one_batch(self):
        square = Polygon.from_points([(2, 2), (8, 2), (8, 7), (2, 7)])
        masks = [
            # two overlapping rings, one a bow tie crossing itself
            InstanceMask(polygons=[square, Polygon.from_points(
                [(1, 1), (9, 6), (9, 1), (1, 6)])], canvas=(16, 12)),
            # every vertex on a half-pixel center, with horizontal edges
            InstanceMask(polygons=[Polygon.from_points(
                [(0.5, 0.5), (5.5, 0.5), (5.5, 3.5), (2.5, 3.5), (2.5, 5.5), (0.5, 5.5)])],
                canvas=(16, 12)),
            # wholly off the canvas: an empty window
            InstanceMask(polygons=[Polygon.from_points([(-9, -9), (-2, -9), (-2, -1)])],
                         canvas=(16, 12)),
            # a flat ring: a window of no rows
            InstanceMask(polygons=[Polygon.from_points([(1, 4), (9, 4), (5, 4)])],
                         canvas=(16, 12)),
            # no canvas: the window follows the vertices past the origin
            InstanceMask(polygons=[Polygon.from_points([(-3.2, -1.7), (4.4, 0.2), (0.1, 5.9)])]),
            InstanceMask(polygons=[square], canvas=(16, 12)),
        ]
        self.assert_matches_reference(masks)

    def test_fewer_than_three_vertices(self):
        from deteval.geometry import polygon_windows
        from deteval.oracle import reference_window

        good = InstanceMask(polygons=[Polygon.from_points([(0, 0), (4, 0), (4, 4)])],
                            canvas=(16, 12))
        short = InstanceMask(polygons=[Polygon.from_points([(0, 0), (5, 5)])],
                             canvas=(16, 12))
        with pytest.raises(GeometryError, match="2 vertices"):
            reference_window(short)
        with pytest.raises(GeometryError, match="2 vertices"):
            polygon_windows([good.polygons, short.polygons], [good.canvas, short.canvas])
        # a short ring whose window is empty is not rasterized, and not checked
        off = InstanceMask(polygons=[Polygon.from_points([(-9, -9), (-5, -5)])],
                           canvas=(16, 12))
        self.assert_matches_reference([good, off])

    @given(BATCH_RING, st.integers(1, 20), st.integers(1, 14))
    @settings(max_examples=200, deadline=None)
    def test_rasterize_matches_reference(self, ring, width, height):
        from deteval.oracle import reference_raster_window

        expected = reference_raster_window([ring], 0, 0, width, height)
        assert np.array_equal(rasterize(ring, width, height), expected)


class TestBatchedRleDifferential:
    """The batched run-length decoder gives exactly the windows of the
    one-grid-at-a-time reference."""

    @staticmethod
    def assert_matches_reference(rles):
        from deteval.geometry import rle_windows
        from deteval.oracle import reference_rle_window

        got = rle_windows(rles)
        assert len(got) == len(rles)
        for rle, (bits, x0, y0) in zip(rles, got):
            ref_bits, rx0, ry0 = reference_rle_window(rle)
            assert (x0, y0) == (rx0, ry0)
            assert bits.dtype == bool and bits.shape == ref_bits.shape
            assert np.array_equal(bits, ref_bits)

    def test_edge_cases_in_one_batch(self):
        self.assert_matches_reference([
            RLEMask(5, 4, (20,)),  # empty
            RLEMask(5, 4, (0, 20)),  # full
            RLEMask(5, 4, (3, 4, 13)),  # a one-run wrapping onto the next row
            RLEMask(5, 4, (19, 1)),  # only the last pixel
            RLEMask(0, 0, ()),  # a grid of no pixels
            RLEMask(5, 4, (0, 1, 19)),  # only the first pixel
            RLEMask(5, 4, (6, 1, 4, 1, 8)),  # two pixels a row apart
            RLEMask(5, 4, (0, 2, 0, 3, 15)),  # an empty zero run between one runs
        ])

    @given(st.lists(rle_grids(), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_batches_property(self, rles):
        self.assert_matches_reference(rles)


class TestRleRuns:
    def test_runs_are_one_read_only_int64_array(self):
        rle = RLEMask(3, 2, [1, 2.9, True, 2])
        assert rle.runs.dtype == np.int64 and rle.runs.tolist() == [1, 2, 1, 2]
        with pytest.raises(ValueError):
            rle.runs[0] = 5

    def test_equality_and_hash_follow_the_runs(self):
        a, b = RLEMask(3, 2, (1, 5)), RLEMask(3, 2, np.array([1, 5]))
        assert a == b and hash(a) == hash(b)
        assert a != RLEMask(3, 2, (2, 4))
        assert a != RLEMask(2, 3, (1, 5))

    def test_run_sum_overflowing_int64_is_corrupt(self):
        # five runs of 2**62 wrap around to a total of 2**62 in int64
        with pytest.raises(GeometryError, match="corrupt mask"):
            RLEMask(2**31, 2**31, (2**62,) * 5)

    def test_negative_size_rejected(self):
        with pytest.raises(GeometryError, match="negative mask size"):
            RLEMask(-1, -1, (1,))
