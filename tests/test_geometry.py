from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import minimal_gt_dict, write_json
from deteval import geometry
from deteval.annotations import load_ground_truth
from deteval.errors import GeometryError
from deteval.geometry import (
    BBox,
    InstanceMask,
    Polygon,
    RLEMask,
    SizeClass,
    rle_decode,
    rle_encode,
)
from deteval.oracle import (
    box_iou,
    full_grid,
    instance_iou,
    mask_iou,
    polygon_from_flat,
    polygon_from_points,
    rasterize,
    size_class,
)


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
    fine = rasterize(Polygon(polygon.vertices * factor), width * factor, height * factor)
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
        sq = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert np.count_nonzero(rasterize(sq, 2, 2)) == 4

    def test_square_on_larger_grid(self):
        sq = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        m = rasterize(sq, 4, 4)
        expected = np.zeros((4, 4), dtype=bool)
        expected[:2, :2] = True
        assert np.array_equal(m, expected)

    def test_right_triangle_area(self):
        # Degenerate alignment: the hypotenuse passes exactly through the
        # centers of the four diagonal pixels, so a strict pixel-center rule
        # counts 6 (an inclusive one would count 10; no binary rule lands on
        # the half-covered 8). The supersampling oracle bounds the error.
        tri = polygon_from_points([(0, 0), (4, 0), (0, 4)])
        oracle = supersampled_area(tri, 4, 4)
        assert oracle == pytest.approx(7.875, abs=1e-9)
        assert np.count_nonzero(rasterize(tri, 4, 4)) == 6
        assert abs(np.count_nonzero(rasterize(tri, 4, 4)) - oracle) <= 2.0

    def test_right_triangle_area_gentle_slope(self):
        # a non-45-degree hypotenuse staircases one pixel at a time, so the
        # raster stays within one pixel of the supersampled coverage
        tri = polygon_from_points([(0, 0), (4, 0), (0, 2)])
        oracle = supersampled_area(tri, 4, 2)
        assert abs(np.count_nonzero(rasterize(tri, 4, 2)) - oracle) <= 1.0
        assert oracle == pytest.approx(4.0, abs=0.2)

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            rasterize(polygon_from_points([(0, 0), (1, 1)]), 4, 4)

    def test_clipping(self):
        sq = polygon_from_points([(-5, -5), (3, -5), (3, 3), (-5, 3)])
        assert np.count_nonzero(rasterize(sq, 8, 8)) == 9

    def test_orientation_independent(self):
        cw = polygon_from_points([(1, 1), (1, 6), (6, 6), (6, 1)])
        ccw = polygon_from_points([(1, 1), (6, 1), (6, 6), (1, 6)])
        assert np.array_equal(rasterize(cw, 8, 8), rasterize(ccw, 8, 8))

    def test_nearly_horizontal_edge_is_stable(self):
        # an edge with a denormal-scale rise crossing a row of pixel centers
        # must not overflow the crossing computation
        eps = 1e-300
        poly = polygon_from_points(
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
        poly = polygon_from_points(points)
        fast = np.count_nonzero(rasterize(poly, size, size))
        slow = supersampled_area(poly, size, size, factor=8)
        # pixel-center sampling can differ from true coverage by the
        # boundary band, which is bounded by the perimeter in pixels
        perimeter = sum(
            np.hypot(x2 - x1, y2 - y1)
            for (x1, y1), (x2, y2) in zip(
                poly.vertices, np.roll(poly.vertices, -1, axis=0)
            )
        )
        assert abs(fast - slow) <= perimeter + 2


class TestMaskIou:
    def test_identical(self):
        m = rasterize(polygon_from_points([(0, 0), (3, 0), (3, 3), (0, 3)]), 4, 4)
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
        pa = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        pb = polygon_from_points([(1, 0), (3, 0), (3, 2), (1, 2)])
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
    return polygon_from_points([(b.x, b.y), (b.x2, b.y), (b.x2, b.y2), (b.x, b.y2)])


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
        poly = polygon_from_points([(2.5, 1.5), (9, 2), (7, 8), (3, 6)])
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
            assert instance_iou(ia, ib) == pytest.approx(full, abs=1e-12)

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
            instance_iou(a, b)

    def test_equal_polygon_sources_are_equal_and_hash_equal(self):
        ring = [(0, 0), (2.5, 0), (2, 2)]
        a = InstanceMask(polygons=[polygon_from_points(ring)], canvas=(8, 8))
        b = InstanceMask(polygons=(polygon_from_points(ring),), canvas=(8, 8))
        assert a == b and hash(a) == hash(b)
        moved = InstanceMask(polygons=[polygon_from_points(ring[::-1])], canvas=(8, 8))
        assert a != moved

    def test_equal_rle_grids_are_equal_and_hash_equal(self):
        bits = np.eye(4, dtype=bool)
        a = InstanceMask(rle=rle_encode(bits))
        b = InstanceMask(rle=RLEMask(4, 4, rle_encode(bits).runs.tolist()))
        assert a == b and hash(a) == hash(b)
        assert a != InstanceMask(rle=rle_encode(~bits))

    def test_polygon_mask_never_equals_rle_mask(self):
        square = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        poly = InstanceMask(polygons=[square], canvas=(4, 4))
        rle = InstanceMask(rle=rle_encode(full_grid(poly.window(), 4, 4)))
        assert poly.area == rle.area
        assert poly != rle and rle != poly

    def test_canvas_is_not_compared(self):
        square = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        a = InstanceMask(polygons=[square], canvas=(4, 4))
        b = InstanceMask(polygons=[square], canvas=(64, 48))
        c = InstanceMask(polygons=[square])
        assert a == b == c and hash(a) == hash(b) == hash(c)

    def test_multi_polygon_union(self):
        p1 = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
        p2 = polygon_from_points([(3, 3), (5, 3), (5, 5), (3, 5)])
        inst = InstanceMask(polygons=[p1, p2], canvas=(6, 6))
        assert inst.area == 8

    @pytest.mark.parametrize("dx, dy", [(-20, 0), (0, -20), (20, 0), (0, 20)])
    def test_polygon_off_the_canvas_is_empty(self, dx, dy):
        poly = polygon_from_points(
            [(2 + dx, 2 + dy), (8 + dx, 2 + dy), (8 + dx, 8 + dy)]
        )
        inst = InstanceMask(polygons=[poly], canvas=(10, 10))
        assert inst.area == 0
        inside = InstanceMask(polygons=[polygon_from_points([(0, 0), (9, 0), (9, 9)])],
                              canvas=(10, 10))
        assert instance_iou(inst, inside) == 0.0


class TestPolygonCoordinates:
    """Loading bounds every polygon coordinate by +-2**53."""

    @staticmethod
    def load_ring(tmp_path, ring):
        doc = minimal_gt_dict()
        doc["annotations"][0]["segmentation"] = [ring]
        return load_ground_truth(write_json(tmp_path / "gt.json", doc))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e308,
                                     -(2.0**53) - 2])
    def test_out_of_range_coordinate_rejected(self, tmp_path, bad):
        with pytest.raises(GeometryError, match="not a finite number"):
            self.load_ring(tmp_path, [0, 0, 4, 0, bad, 4])

    def test_largest_coordinates_accepted(self, tmp_path):
        gt = self.load_ring(tmp_path, [-(2.0**53), 0, 2.0**53, 0, 0, 2.0**53])
        assert gt.annotations[0].area == 64 * 64


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
    return polygon_from_points(pts)


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
).map(lambda r: polygon_from_points((x + r[1], y + r[1]) for x, y in r[0]))
BATCH_MASK = st.builds(
    lambda rings, canvas: InstanceMask(polygons=rings, canvas=canvas),
    st.lists(BATCH_RING, min_size=1, max_size=3),
    st.sampled_from([None, (16, 12), (16, 12), (3, 2)]),
)


def columns_of(masks, cached):
    """The :class:`MaskColumns` of ``masks``: as a loader holds them, only
    the vertex and run buffers, or else reading and filling each mask's
    cached spans."""
    from deteval.geometry import MaskColumns

    columns = MaskColumns.of(masks)
    return columns if cached else columns.take(np.arange(len(columns.poly)))


def assert_span_columns(masks):
    """The span columns of ``masks``, as a loader holds them, give each
    mask's window rect and pixel count as the one-mask reference does,
    whatever the row budget of a span pass."""
    from deteval.oracle import reference_window

    for rows in (geometry.SPAN_CHUNK_ROWS, 1):
        with mock.patch.object(geometry, "SPAN_CHUNK_ROWS", rows):
            columns = columns_of(masks, cached=False)
            rects, areas = columns.rects(), columns.areas(np.arange(len(masks)))
        for m, rect, area in zip(masks, rects.tolist(), areas.tolist()):
            if m is None:
                assert (rect, area) == ([0] * 4, 0)
                continue
            ref, x0, y0 = reference_window(m)
            assert rect == [x0, y0, x0 + ref.shape[1], y0 + ref.shape[0]]
            assert area == np.count_nonzero(ref)


class TestBatchedRasterDifferential:
    """The batched span producer gives exactly the windows the one-ring-at-
    a-time reference gives: the same bits, shapes and anchors, and the same
    rects and pixel counts as columns, in passes of any row budget."""

    @staticmethod
    def assert_matches_reference(masks):
        from deteval.oracle import polygon_windows
        from deteval.oracle import reference_window

        got = polygon_windows([m.polygons for m in masks], [m.canvas for m in masks])
        assert len(got) == len(masks)
        for m, (bits, x0, y0) in zip(masks, got):
            ref_bits, rx0, ry0 = reference_window(m)
            assert (x0, y0) == (rx0, ry0)
            assert bits.dtype == bool and bits.shape == ref_bits.shape
            assert np.array_equal(bits, ref_bits)
        assert_span_columns(masks)

    @given(st.lists(BATCH_MASK, min_size=1, max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_batches_property(self, masks):
        self.assert_matches_reference(masks)

    def test_edge_cases_in_one_batch(self):
        square = polygon_from_points([(2, 2), (8, 2), (8, 7), (2, 7)])
        masks = [
            # two overlapping rings, one a bow tie crossing itself
            InstanceMask(polygons=[square, polygon_from_points(
                [(1, 1), (9, 6), (9, 1), (1, 6)])], canvas=(16, 12)),
            # every vertex on a half-pixel center, with horizontal edges
            InstanceMask(polygons=[polygon_from_points(
                [(0.5, 0.5), (5.5, 0.5), (5.5, 3.5), (2.5, 3.5), (2.5, 5.5), (0.5, 5.5)])],
                canvas=(16, 12)),
            # wholly off the canvas: an empty window
            InstanceMask(polygons=[polygon_from_points([(-9, -9), (-2, -9), (-2, -1)])],
                         canvas=(16, 12)),
            # a flat ring: a window of no rows
            InstanceMask(polygons=[polygon_from_points([(1, 4), (9, 4), (5, 4)])],
                         canvas=(16, 12)),
            # no canvas: the window follows the vertices past the origin
            InstanceMask(polygons=[polygon_from_points([(-3.2, -1.7), (4.4, 0.2), (0.1, 5.9)])]),
            InstanceMask(polygons=[square], canvas=(16, 12)),
        ]
        self.assert_matches_reference(masks)

    def test_fewer_than_three_vertices(self):
        from deteval.oracle import polygon_windows
        from deteval.oracle import reference_window

        good = InstanceMask(polygons=[polygon_from_points([(0, 0), (4, 0), (4, 4)])],
                            canvas=(16, 12))
        short = InstanceMask(polygons=[polygon_from_points([(0, 0), (5, 5)])],
                             canvas=(16, 12))
        with pytest.raises(GeometryError, match="2 vertices"):
            reference_window(short)
        with pytest.raises(GeometryError, match="2 vertices"):
            polygon_windows([good.polygons, short.polygons], [good.canvas, short.canvas])
        # a short ring whose window is empty is not rasterized, and not checked
        off = InstanceMask(polygons=[polygon_from_points([(-9, -9), (-5, -5)])],
                           canvas=(16, 12))
        self.assert_matches_reference([good, off])

    @given(BATCH_RING, st.integers(1, 20), st.integers(1, 14))
    @settings(max_examples=200, deadline=None)
    def test_rasterize_matches_reference(self, ring, width, height):
        from deteval.oracle import reference_raster_window

        expected = reference_raster_window([ring], 0, 0, width, height)
        assert np.array_equal(rasterize(ring, width, height), expected)


class TestBatchedRleDifferential:
    """The run-length spans, cut at row ends with nothing decoded, give
    exactly the windows of the one-grid-at-a-time reference, and its rects
    and pixel counts as columns, in passes of any row budget."""

    @staticmethod
    def assert_matches_reference(rles):
        from deteval.oracle import rle_windows
        from deteval.oracle import reference_rle_window

        got = rle_windows(rles)
        assert len(got) == len(rles)
        for rle, (bits, x0, y0) in zip(rles, got):
            ref_bits, rx0, ry0 = reference_rle_window(rle)
            assert (x0, y0) == (rx0, ry0)
            assert bits.dtype == bool and bits.shape == ref_bits.shape
            assert np.array_equal(bits, ref_bits)
        assert_span_columns([InstanceMask(rle=r) for r in rles])

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


class TestPrepareWindows:
    """prepare_windows returns the window columns of a list that mixes masks
    of every kind with None: each mask's rect, pixel count and grid equal its
    window() and area and the one-mask reference exactly, and None gives
    zeros and no grid."""

    @staticmethod
    def assert_columns(masks):
        from deteval.oracle import prepare_windows
        from deteval.oracle import reference_window

        cached = [None if m is None else m._window for m in masks]
        rects, areas, bits = prepare_windows(masks)
        assert rects.dtype == areas.dtype == np.int64
        assert rects.shape == (len(masks), 4) and areas.shape == (len(masks),)
        assert len(bits) == len(masks)
        for m, before, rect, area, grid in zip(masks, cached, rects.tolist(),
                                               areas.tolist(), bits):
            if m is None:
                assert (rect, area, grid) == ([0, 0, 0, 0], 0, None)
                continue
            ref, x0, y0 = reference_window(m)
            assert rect == [x0, y0, x0 + ref.shape[1], y0 + ref.shape[0]]
            assert grid.dtype == bool and grid.shape == ref.shape
            assert np.array_equal(grid, ref)
            assert area == m.area == np.count_nonzero(ref)
            window = m.window()
            assert window[0] is grid and window[1:] == (x0, y0)
            # a mask prepared before is read from its cache
            assert before is None or before is window

    def test_mixed_list(self):
        square = polygon_from_points([(2, 2), (8, 2), (8, 7), (2, 7)])
        ring = polygon_from_points([(-3.2, -1.7), (4.4, 0.2), (0.1, 5.9)])
        prepared = [InstanceMask(polygons=[square], canvas=(16, 12)),
                    InstanceMask(rle=RLEMask(5, 4, (3, 4, 13)))]
        for m in prepared:
            m.window()
        self.assert_columns([
            None,
            InstanceMask(polygons=[square, ring], canvas=(16, 12)),
            prepared[0],
            # no canvas: the window follows the vertices past the origin
            InstanceMask(polygons=[ring]),
            None,
            # wholly off its canvas, and on canvases of no columns or rows
            InstanceMask(polygons=[polygon_from_points([(-9, -9), (-2, -9), (-2, -1)])],
                         canvas=(16, 12)),
            InstanceMask(polygons=[square], canvas=(0, 12)),
            InstanceMask(polygons=[square], canvas=(16, 0)),
            # a negative side bounds the window as a zero one does
            InstanceMask(polygons=[square], canvas=(-5, 10)),
            InstanceMask(polygons=[ring], canvas=(16, -3)),
            prepared[1],
            # run counts odd and even, an empty grid and a grid of no pixels
            InstanceMask(rle=RLEMask(5, 4, (20,))),
            InstanceMask(rle=RLEMask(5, 4, (0, 20))),
            InstanceMask(rle=RLEMask(5, 4, (2, 3, 4, 11))),
            InstanceMask(rle=RLEMask(5, 4, (6, 1, 4, 1, 8))),
            InstanceMask(rle=RLEMask(5, 4, (0, 2, 0, 3, 15))),
            InstanceMask(rle=RLEMask(0, 0, ())),
            InstanceMask(rle=RLEMask(5, 4, (19, 1))),
            None,
        ])

    def test_no_masks(self):
        from deteval.oracle import rle_windows

        self.assert_columns([])
        self.assert_columns([None, None])
        assert rle_windows([]) == []

    @given(st.lists(st.tuples(
        st.one_of(st.none(), BATCH_MASK, rle_grids().map(lambda r: InstanceMask(rle=r))),
        st.booleans()), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_mixed_lists_property(self, items):
        for m, prepare in items:
            if m is not None and prepare:
                m.window()
        self.assert_columns([m for m, _ in items])


def grid_columns(grids, runs):
    """The :class:`MaskColumns` of run-length grids ``(width, height, runs)``
    as a loader holds them: the runs of all, in order, are the buffer ``runs``."""
    from deteval.geometry import MaskColumns

    counts = np.array([len(r) for _, _, r in grids], dtype=np.int64)
    yes, zeros = np.ones(counts.size, dtype=bool), np.zeros(counts.size, dtype=np.int64)
    return MaskColumns(np.array([(w, h) for w, h, _ in grids], np.int64).reshape(-1, 2), yes,
                       ~yes, zeros, zeros[:0], np.empty((0, 2)), yes, counts, runs)


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

    def test_pixel_count_beyond_int64_is_corrupt(self):
        # 2**32 x 2**32 pixels wrap around int64 to 0, the sum of the runs
        with pytest.raises(GeometryError, match="corrupt mask"):
            RLEMask(2**32, 2**32, (0,))

    def test_batch_sums_each_grid_alone(self):
        # two sound grids of 2**62 pixels: the running sum of both wraps
        # around int64, the sum of each does not
        assert RLEMask.fault([(2**31, 2**31)] * 2, [2**62] * 2, [0, 1, 2]) is None
        masks = grid_columns([(2**31, 2**31, [2**62])] * 2, np.array([2**62] * 2)).instances()
        assert [m.rle for m in masks] == [RLEMask(2**31, 2**31, (2**62,))] * 2

    def test_negative_size_rejected(self):
        with pytest.raises(GeometryError, match="negative mask size"):
            RLEMask(-1, -1, (1,))

    @given(st.lists(st.tuples(
        st.integers(-2, 4), st.integers(-2, 4),
        st.lists(st.one_of(st.integers(-1, 9), st.just(2**62)), max_size=6),
    ), max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_batch_checks_as_single_grids_do(self, grids):
        # each grid alone: the grid, or the text of the error it raises
        single = []
        for w, h, runs in grids:
            try:
                single.append(RLEMask(w, h, runs))
            except GeometryError as exc:
                single.append(str(exc))
        bounds = np.cumsum([0] + [len(runs) for _, _, runs in grids])
        runs = np.array([r for _, _, rs in grids for r in rs], dtype=np.int64)
        runs.flags.writeable = False  # kept, not copied: each grid's runs are views
        fault = RLEMask.fault([(w, h) for w, h, _ in grids], runs, bounds)
        first = next((k for k, g in enumerate(single) if isinstance(g, str)), len(grids))
        assert fault == (None if first == len(grids) else (first, single[first]))
        # the grids before the fault, built from their columns with no second check
        got = [m.rle for m in grid_columns(grids[:first], runs[: bounds[first]]).instances()]
        assert got == single[:first]
        for grid, (w, h, _) in zip(got, grids):
            assert (type(grid.width), type(grid.height)) == (int, int)
            assert grid.runs.base is runs and not grid.runs.flags.writeable


MIXED_MASK = st.one_of(st.none(), BATCH_MASK, rle_grids().map(lambda r: InstanceMask(rle=r)),
                       st.builds(lambda rings, canvas: InstanceMask(polygons=rings, canvas=canvas),
                                 st.lists(BATCH_RING, min_size=1, max_size=3),
                                 st.sampled_from([(0, 12), (16, 0), (-5, 10), (16, -3)])))


def _fresh(mask):
    """A new mask of the same source and canvas, with nothing cached."""
    if mask is None or mask.rle is not None:
        return mask and InstanceMask(rle=mask.rle)
    return InstanceMask(polygons=mask.polygons, canvas=mask.canvas)


class TestSpanJoin:
    """:func:`mask_ious` over span columns equals the scalar
    :meth:`InstanceMask.iou` of every pair exactly, and the columns' areas
    the one-mask reference, for columns as a loader holds them and columns
    that read the masks' caches, in passes of any row budget."""

    @staticmethod
    def assert_scalar_equal(gts, dets):
        from deteval.geometry import mask_ious

        pairs, expected = [], []
        for i, g in enumerate(gts):
            for j, d in enumerate(dets):
                if g is not None and d is not None and (
                        None in (g.canvas, d.canvas) or g.canvas == d.canvas):
                    pairs.append((i, j))
                    expected.append(instance_iou(g, d))
        g, d = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        for rows in (geometry.SPAN_CHUNK_ROWS, 1):
            for cached in (False, True):
                with mock.patch.object(geometry, "SPAN_CHUNK_ROWS", rows):
                    got = mask_ious(columns_of(map(_fresh, gts), cached),
                                    columns_of(map(_fresh, dets), cached), g, d)
                assert got.tolist() == expected
        assert_span_columns(gts)
        assert_span_columns(dets)

    def test_edge_cases(self):
        square = polygon_from_points([(2, 2), (8, 2), (8, 7), (2, 7)])
        bow_tie = polygon_from_points([(1, 1), (9, 6), (9, 1), (1, 6)])
        masks = [
            InstanceMask(polygons=[square, bow_tie], canvas=(16, 12)),  # rings overlap
            InstanceMask(polygons=[bow_tie], canvas=(16, 12)),  # crossing itself
            InstanceMask(polygons=[square, polygon_from_points(
                [(6, 1), (14, 1), (14, 9)])], canvas=(16, 12)),
            InstanceMask(polygons=[polygon_from_points([(-9, -9), (-2, -9), (-2, -1)])],
                         canvas=(16, 12)),  # wholly off the canvas
            InstanceMask(polygons=[polygon_from_points([(-3, -2), (6, 1), (2, 20)])],
                         canvas=(16, 12)),  # partly off it
            InstanceMask(polygons=[square], canvas=(0, 12)),
            InstanceMask(polygons=[square], canvas=(-5, 10)),
            None,
        ]
        grid = np.zeros((12, 16), dtype=bool)
        grid[3:9, 4:13] = True
        rles = [
            InstanceMask(rle=rle_encode(grid)),
            InstanceMask(rle=RLEMask(16, 12, (14, 6, 172))),  # wrapping onto row 1
            InstanceMask(rle=RLEMask(16, 12, (192,))),  # empty
            InstanceMask(rle=RLEMask(0, 0, ())),
        ]
        self.assert_scalar_equal(masks + rles, rles + masks[::-1])

    def test_generated_scenes(self):
        from deteval.oracle import ScenarioConfig, generate

        gt_set, det_set = generate(ScenarioConfig(
            seed=9, image_count=1, gts_per_image=(8, 8), jitter_px=4, clutter_rate=0.5,
            image_size=(48, 40)))
        gts = [a.mask for a in gt_set.annotations]
        dets = [d.mask for d in det_set.detections]
        self.assert_scalar_equal(gts, dets)
        # the same masks as run-length grids
        self.assert_scalar_equal(*([InstanceMask(rle=rle_encode(full_grid(InstanceMask(
            polygons=m.polygons, canvas=(48, 40)).window(), 48, 40))) for m in masks]
            for masks in (gts, dets)))

    @given(st.lists(MIXED_MASK, max_size=6), st.lists(MIXED_MASK, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_mixed_lists_property(self, gts, dets):
        self.assert_scalar_equal(gts, dets)

    def test_canvas_sides_near_2_to_52(self):
        from deteval.geometry import mask_ious

        def rect(x0, y0, x1, y1):
            return polygon_from_points([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

        # two thin rings 2**52 columns apart: each mask's window spans the
        # canvas's width and thousands of rows, so no key of (row, column)
        # fits int64
        w = 2**52
        canvas = (w, 3001)
        g = InstanceMask(polygons=[rect(1, 0, 4, 3000), rect(w - 5, 0, w - 2, 3000)],
                         canvas=canvas)
        d = InstanceMask(polygons=[rect(0, 100, 3, 200), rect(w - 4, 100, w - 1, 200)],
                         canvas=canvas)
        runs = {"g": [(1, 4), (w - 5, w - 2)], "d": [(0, 3), (w - 4, w - 1)]}
        a = {row: runs["g"] for row in range(3000)}
        b = {row: runs["d"] for row in range(100, 200)}
        inter = sum(max(0, min(x1, u1) - max(x0, u0)) for row in b
                    for x0, x1 in a[row] for u0, u1 in b[row])
        assert inter == 400
        for cached in (False, True):
            gc, dc = columns_of([_fresh(g)], cached), columns_of([_fresh(d)], cached)
            assert gc.rects().tolist() == [[1, 0, w - 2, 3000]]
            assert gc.areas(np.array([0])).tolist() == [3000 * 6]
            assert dc.areas(np.array([0])).tolist() == [100 * 6]
            iou = mask_ious(gc, dc, np.array([0]), np.array([0]))
            assert iou.tolist() == [inter / (3000 * 6 + 100 * 6 - inter)]

    def test_pixel_counts_past_int64(self):
        from deteval.geometry import mask_ious

        # two identical masks of (2**53 - 1) x 1,100 pixels each, more than
        # int64 holds: their IoU is 1
        w = 2**53 - 1
        ring = polygon_from_points([(0, 0), (w, 0), (w, 1100), (0, 1100)])
        g = InstanceMask(polygons=[ring], canvas=(w, 1100))
        for cached in (False, True):
            gc, dc = columns_of([_fresh(g)], cached), columns_of([_fresh(g)], cached)
            assert gc.areas(np.array([0])).tolist() == [pytest.approx(w * 1100, rel=1e-12)]
            assert mask_ious(gc, dc, np.array([0]), np.array([0])).tolist() == [1.0]
