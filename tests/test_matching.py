import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deteval.annotations import Annotation, Detection, LabelMap
from deteval.errors import ConfigError
from deteval.geometry import BBox, InstanceMask, Polygon, rle_encode
from deteval.matching import (
    ConfusionMatrix,
    Thresholds,
    accumulate,
    iou_matrix,
    iou_table,
    match_conventional,
    match_modified,
)
from deteval.oracle import ScenarioConfig, generate, max_matching, pair_iou

LABELS = LabelMap([(1, "X"), (2, "Y"), (3, "Z")])
T = Thresholds()


def A(ann_id, class_id, box):
    return Annotation(ann_id, 1, class_id, BBox(*box), area=BBox(*box).area)


def D(det_id, class_id, box, score=0.9):
    return Detection(det_id, 1, class_id, BBox(*box), score=score)


def pathological_instance():
    """IoU table (g1,d1)=.90, (g1,d2)=.623, (g2,d1)=.905, (g2,d2)=.48."""
    g1 = A(1, 1, (0, 0, 10, 11.1))
    g2 = A(2, 1, (0, -0.5, 10, 10))
    d1 = D(0, 1, (0, 0, 10, 10))
    d2 = D(1, 1, (0, 3.0, 10, 10))
    return [g1, g2], [d1, d2]


class TestIouTable:
    def test_no_dets(self):
        assert iou_table([A(1, 1, (0, 0, 5, 5))], [], T) == []

    def test_single_pair(self):
        pairs = iou_table(
            [A(1, 1, (0, 0, 10, 10))], [D(0, 1, (0, 0, 10, 8))], T
        )
        assert len(pairs) == 1
        assert pairs[0].iou == pytest.approx(0.8)
        assert pairs[0].same_class

    def test_below_threshold_excluded(self):
        pairs = iou_table(
            [A(1, 1, (0, 0, 10, 10))], [D(0, 1, (0, 0, 10, 4))], T
        )
        assert pairs == []

    def test_four_mutual_pairs(self):
        gts = [A(1, 1, (0, 0, 10, 10)), A(2, 1, (1, 0, 10, 10))]
        dets = [D(0, 1, (0, 0, 10, 10)), D(1, 1, (1, 0, 10, 10))]
        assert len(iou_table(gts, dets, T)) == 4


class TestConventional:
    def test_simple_true_positive(self):
        gts = [A(1, 1, (0, 0, 10, 10))]
        dets = [D(0, 1, (0, 0, 10, 8), score=0.9)]
        res = match_conventional(gts, dets, T)
        assert len(res.matched) == 1
        assert res.unmatched_gts == ()
        assert res.unmatched_dets == ()

    def test_iou_beats_class(self):
        # higher-IoU cross-class candidate wins; same-class one is discarded
        g = A(1, 1, (0, 0, 10, 10))
        d1 = D(0, 2, (0, 0, 10, 9))  # class Y, IoU 0.9
        d2 = D(1, 1, (0, 0, 10, 6))  # class X, IoU 0.6
        res = match_conventional([g], [d1, d2], T)
        assert len(res.matched) == 1
        assert res.matched[0].det.det_id == 0
        assert not res.matched[0].same_class
        assert [d.det_id for d in res.unmatched_dets] == [1]

    def test_pathological_under_matches(self):
        gts, dets = pathological_instance()
        res = match_conventional(gts, dets, T)
        assert len(res.matched) == 1
        assert res.matched[0].gt.ann_id == 2
        assert res.matched[0].det.det_id == 0
        assert [g.ann_id for g in res.unmatched_gts] == [1]
        assert [d.det_id for d in res.unmatched_dets] == [1]
        # the exhaustive optimum pairs both ground truths
        assert max_matching(gts, dets, 0.5) == 2

    def test_confidence_filter(self):
        gts = [A(1, 1, (0, 0, 10, 10))]
        dets = [D(0, 1, (0, 0, 10, 10), score=0.4)]
        res = match_conventional(gts, dets, T)
        assert res.matched == ()
        assert res.unmatched_dets == ()  # invisible, not a false positive
        assert len(res.unmatched_gts) == 1

    def test_detections_without_ground_truth(self):
        dets = [D(0, 1, (0, 0, 10, 10)), D(1, 2, (30, 30, 5, 5))]
        for matcher in (match_conventional, match_modified):
            cm = accumulate([matcher([], dets, T)], LABELS)
            assert cm.unclassified_detections(1) == 1
            assert cm.unclassified_detections(2) == 1
            assert cm.counts.sum() == 2

    def test_custom_iou_threshold(self):
        gts = [A(1, 1, (0, 0, 10, 10))]
        dets = [D(0, 1, (0, 0, 10, 4))]  # IoU 0.4
        strict = match_conventional(gts, dets, T)
        loose = match_conventional(gts, dets, Thresholds(iou_threshold=0.3))
        assert strict.matched == () and len(loose.matched) == 1


class TestModified:
    def test_simple_true_positive_matches_conventional(self):
        gts = [A(1, 1, (0, 0, 10, 10))]
        dets = [D(0, 1, (0, 0, 10, 8), score=0.9)]
        conv = match_conventional(gts, dets, T)
        mod = match_modified(gts, dets, T)
        assert conv == mod

    def test_class_beats_iou(self):
        g = A(1, 1, (0, 0, 10, 10))
        d1 = D(0, 2, (0, 0, 10, 9))  # class Y, IoU 0.9
        d2 = D(1, 1, (0, 0, 10, 6))  # class X, IoU 0.6
        res = match_modified([g], [d1, d2], T)
        assert len(res.matched) == 1
        assert res.matched[0].det.det_id == 1
        assert res.matched[0].same_class
        assert [d.det_id for d in res.unmatched_dets] == [0]

    def test_contested_detection_prefers_same_class(self):
        d = D(0, 1, (0, 0, 10, 10))
        g1 = A(1, 2, (0, 0, 10, 9))  # class Y, IoU 0.9
        g2 = A(2, 1, (0, 0, 10, 6))  # class X, IoU 0.6
        res = match_modified([g1, g2], [d], T)
        assert len(res.matched) == 1
        assert res.matched[0].gt.ann_id == 2
        assert [g.ann_id for g in res.unmatched_gts] == [1]

    def test_displaced_gt_takes_next_candidate(self):
        # g1 claims d0 first, is displaced by same-class g2, then falls back
        # to its remaining cross-class candidate d1
        g1 = A(1, 2, (0, 0, 10, 10))
        g2 = A(2, 1, (0, 0, 10, 9.5))
        d0 = D(0, 1, (0, 0, 10, 9))
        d1 = D(1, 3, (0, 0, 10, 8))
        res = match_modified([g1, g2], [d0, d1], T)
        by_gt = {p.gt.ann_id: p.det.det_id for p in res.matched}
        assert by_gt == {2: 0, 1: 1}

    def test_cross_class_match_broken_by_later_same_class(self):
        # d0 held cross-class by g1 until same-class g2 arrives
        g1 = A(1, 2, (0, 0, 10, 9.7))
        g2 = A(2, 1, (0, 0, 10, 6))
        d0 = D(0, 1, (0, 0, 10, 10))
        res = match_modified([g1, g2], [d0], T)
        assert len(res.matched) == 1
        assert res.matched[0].gt.ann_id == 2
        assert res.matched[0].same_class


class TestAccumulate:
    def test_empty(self):
        cm = accumulate([], LABELS)
        assert cm.counts.sum() == 0
        assert cm.counts.shape == (4, 4)

    def test_single_true_positive(self):
        gts = [A(1, 1, (0, 0, 10, 10))]
        dets = [D(0, 1, (0, 0, 10, 10))]
        cm = accumulate([match_conventional(gts, dets, T)], LABELS)
        assert cm.diagonal(1) == 1
        assert cm.counts.sum() == 1

    def test_order_independent(self):
        rng = random.Random(0)
        results = []
        for seed in range(12):
            gt_set, det_set = generate(
                ScenarioConfig(seed=seed, jitter_px=4, class_swap_rate=0.3,
                               clutter_rate=0.3, drop_rate=0.2)
            )
            for img in gt_set.images:
                results.append(
                    match_conventional(
                        gt_set.by_image()[img.image_id],
                        det_set.by_image().get(img.image_id, []),
                        T,
                    )
                )
        base = accumulate(results, gt_set.label_map)
        shuffled = results[:]
        rng.shuffle(shuffled)
        assert accumulate(shuffled, gt_set.label_map) == base

    def test_corner_stays_zero(self):
        gts, dets = pathological_instance()
        for matcher in (match_conventional, match_modified):
            cm = accumulate([matcher(gts, dets, T)], LABELS)
            assert cm.counts[-1, -1] == 0


def scenario_results(seed, mode="boxes", **kw):
    cfg = ScenarioConfig(
        seed=seed,
        gts_per_image=kw.pop("gts_per_image", (1, 6)),
        jitter_px=kw.pop("jitter_px", 5.0),
        class_swap_rate=kw.pop("class_swap_rate", 0.3),
        clutter_rate=kw.pop("clutter_rate", 0.3),
        drop_rate=kw.pop("drop_rate", 0.2),
        **kw,
    )
    gt_set, det_set = generate(cfg)
    t = Thresholds(geometry_mode=mode)
    img = gt_set.images[0]
    gts = gt_set.by_image()[img.image_id]
    dets = det_set.by_image().get(img.image_id, [])
    return gts, dets, t, gt_set.label_map


class TestInvariants:
    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_conservation_and_soundness(self, mode):
        for seed in range(300):
            gts, dets, t, labels = scenario_results(seed, mode)
            visible = [d for d in dets if d.score >= t.confidence_threshold]
            for matcher in (match_conventional, match_modified):
                res = matcher(gts, dets, t)
                cm = accumulate([res], labels)
                # conservation of ground truths and detections per class
                for cid in labels.ids():
                    assert cm.row_sum(cid) == sum(
                        1 for g in gts if g.class_id == cid
                    )
                    assert cm.col_sum(cid) == sum(
                        1 for d in visible if d.class_id == cid
                    )
                assert cm.counts.sum() == len(gts) + len(visible) - len(res.matched)
                # injectivity
                gt_ids = [p.gt.ann_id for p in res.matched]
                det_ids = [p.det.det_id for p in res.matched]
                assert len(set(gt_ids)) == len(gt_ids)
                assert len(set(det_ids)) == len(det_ids)
                # threshold soundness
                for p in res.matched:
                    assert p.iou >= t.iou_threshold
                    assert p.det.score >= t.confidence_threshold

    def test_matched_counts_bounded_by_maximum(self):
        for seed in range(200):
            gts, dets, t, _ = scenario_results(seed, gts_per_image=(1, 5))
            visible = [d for d in dets if d.score >= t.confidence_threshold]
            if len(gts) > 12 or len(visible) > 12:
                continue
            bound = max_matching(gts, visible, t.iou_threshold)
            assert len(match_conventional(gts, dets, t).matched) <= bound
            assert len(match_modified(gts, dets, t).matched) <= bound

    def test_diagonal_purity_modified(self):
        for seed in range(200):
            gts, dets, t, _ = scenario_results(seed)
            for p in match_modified(gts, dets, t).matched:
                if p.gt.class_id == p.det.class_id:
                    assert p.same_class

    def test_agreement_on_unambiguous(self):
        checked = 0
        seed = 0
        while checked < 300:
            seed += 1
            gts, dets, t, labels = scenario_results(
                seed, jitter_px=1.0, clutter_rate=0.0, class_swap_rate=0.2
            )
            visible = [d for d in dets if d.score >= t.confidence_threshold]
            pairs = iou_table(gts, visible, t)
            gt_deg = {}
            det_deg = {}
            for p in pairs:
                gt_deg[p.gt.ann_id] = gt_deg.get(p.gt.ann_id, 0) + 1
                det_deg[p.det.det_id] = det_deg.get(p.det.det_id, 0) + 1
            if any(v > 1 for v in gt_deg.values()) or any(
                v > 1 for v in det_deg.values()
            ):
                continue
            checked += 1
            conv = accumulate([match_conventional(gts, dets, t)], labels)
            mod = accumulate([match_modified(gts, dets, t)], labels)
            assert conv == mod

    def test_determinism(self):
        for seed in range(40):
            gts, dets, t, _ = scenario_results(seed)
            for matcher in (match_conventional, match_modified):
                assert matcher(gts, dets, t) == matcher(list(gts), list(dets), t)

    def test_modified_terminates_well_under_cap(self):
        # dense contested scenarios; the defensive cap must never fire
        for seed in range(500):
            gts, dets, t, _ = scenario_results(
                seed, jitter_px=8.0, class_swap_rate=0.5, clutter_rate=0.5
            )
            match_modified(gts, dets, t)


@st.composite
def random_scene(draw):
    """Small box-only scene with overlap-prone placement."""
    def boxes(n, id0=0):
        out = []
        for k in range(n):
            x = draw(st.integers(0, 40))
            y = draw(st.integers(0, 40))
            w = draw(st.integers(2, 24))
            h = draw(st.integers(2, 24))
            out.append((id0 + k, draw(st.integers(1, 3)), (x, y, w, h)))
        return out

    gts = [A(i + 1, c, b) for i, c, b in boxes(draw(st.integers(0, 5)))]
    dets = [
        Detection(i, 1, c, BBox(*b), score=draw(st.floats(0.0, 1.0)))
        for i, c, b in boxes(draw(st.integers(0, 5)))
    ]
    return gts, dets


class TestHypothesisProperties:
    @given(random_scene())
    @settings(max_examples=200, deadline=None)
    def test_conservation_property(self, scene):
        gts, dets = scene
        t = Thresholds()
        visible = [d for d in dets if d.score >= t.confidence_threshold]
        for matcher in (match_conventional, match_modified):
            res = matcher(gts, dets, t)
            cm = accumulate([res], LABELS)
            assert cm.counts.sum() == len(gts) + len(visible) - len(res.matched)
            for cid in LABELS.ids():
                assert cm.row_sum(cid) == sum(1 for g in gts if g.class_id == cid)
                assert cm.col_sum(cid) == sum(
                    1 for d in visible if d.class_id == cid
                )

    @given(random_scene())
    @settings(max_examples=200, deadline=None)
    def test_injectivity_and_coverage_property(self, scene):
        gts, dets = scene
        t = Thresholds()
        visible = {d.det_id for d in dets if d.score >= t.confidence_threshold}
        for matcher in (match_conventional, match_modified):
            res = matcher(gts, dets, t)
            matched_g = [p.gt.ann_id for p in res.matched]
            matched_d = [p.det.det_id for p in res.matched]
            assert len(set(matched_g)) == len(matched_g)
            assert len(set(matched_d)) == len(matched_d)
            assert set(matched_g) | {g.ann_id for g in res.unmatched_gts} == {
                g.ann_id for g in gts
            }
            assert set(matched_d) | {d.det_id for d in res.unmatched_dets} == visible


# coordinates that give shared edges and exact ratios (integers), sums that
# round (tenths: 0.1 + 0.2 != 0.3) and arbitrary finite values
COORD = st.one_of(
    st.integers(-4, 12).map(float),
    st.integers(0, 120).map(lambda k: k / 10),
    st.floats(-50, 100, allow_nan=False, allow_infinity=False),
)
EXTENT = st.one_of(st.just(0.0), COORD.map(abs))
BOX = st.tuples(COORD, COORD, EXTENT, EXTENT)

CANVAS = (16, 12)


@st.composite
def masked_item(draw):
    """A box plus a mask that is missing, run-length or polygon, placed on a
    small canvas so windows overlap, touch edge to edge or sit on its
    border; a zero-size block gives an empty run-length mask."""
    w, h = CANVAS
    x0, y0 = draw(st.integers(0, w)), draw(st.integers(0, h))
    bw, bh = draw(st.integers(0, w - x0)), draw(st.integers(0, h - y0))
    kind = draw(st.sampled_from(["none", "rle", "polygon"]))
    mask = None
    if kind == "rle":
        bits = np.zeros((h, w), dtype=bool)
        bits[y0 : y0 + bh, x0 : x0 + bw] = True
        if draw(st.booleans()):  # knock holes in the block
            bits &= np.random.default_rng(draw(st.integers(0, 99))).random((h, w)) < 0.7
        mask = InstanceMask(rle=rle_encode(bits))
    elif kind == "polygon" and bw and bh:
        mask = InstanceMask(
            polygons=[Polygon.from_flat([x0, y0, x0 + bw, y0, x0 + bw, y0 + bh, x0, y0 + bh])]
        )
    box = draw(st.one_of(st.just((x0, y0, bw, bh)), BOX))
    return box, mask


def _masked_scene(gitems, ditems):
    gts = [
        Annotation(i + 1, 1, 1, BBox(*b), mask=_on_canvas(m), area=1.0)
        for i, (b, m) in enumerate(gitems)
    ]
    dets = [Detection(j, 1, 1, BBox(*b), score=0.9, mask=m) for j, (b, m) in enumerate(ditems)]
    return gts, dets


def _fresh_masks(items):
    """The same items with new, unprepared masks."""
    return [
        (b, None if m is None else InstanceMask(polygons=m.polygons, rle=m.rle))
        for b, m in items
    ]


def _on_canvas(mask):
    # ground-truth masks carry their image size, as loading gives them
    if mask is None or mask.rle is not None:
        return mask
    return InstanceMask(polygons=mask.polygons, canvas=CANVAS)


class TestIouMatrixDifferential:
    """Every cell of ``iou_matrix`` equals the scalar ``pair_iou`` exactly."""

    @staticmethod
    def assert_cells_equal(gts, dets, mode):
        m = iou_matrix(gts, dets, mode)
        assert m.shape == (len(gts), len(dets))
        assert m.dtype == np.float64
        for i, g in enumerate(gts):
            for j, d in enumerate(dets):
                assert m[i, j] == pair_iou(g, d, mode), (g, d)

    @given(st.lists(BOX, max_size=6), st.lists(BOX, max_size=6))
    @example([(0, 0, 10, 10)], [(0, 0, 10, 5)])  # exactly 0.5
    @example([(0.1, 0, 0.2, 1)], [(0, 0, 1, 1), (0.3, 0, 0.1, 1)])  # x + w rounds
    @example([(0, 0, 0, 5), (0, 0, 5, 0)], [(0, 0, 0, 5), (0, 0, 5, 0)])
    @example([(0, 0, 4, 4)], [(4, 0, 4, 4), (0, 4, 4, 4), (4, 4, 1, 1)])
    @settings(max_examples=300, deadline=None)
    def test_boxes(self, gboxes, dboxes):
        gts = [A(i + 1, 1 + i % 3, b) for i, b in enumerate(gboxes)]
        dets = [D(j, 1 + j % 2, b) for j, b in enumerate(dboxes)]
        self.assert_cells_equal(gts, dets, "boxes")
        self.assert_cells_equal(gts, dets, "masks")  # no masks: box fallback

    @given(st.lists(masked_item(), max_size=5), st.lists(masked_item(), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_masks(self, gitems, ditems):
        gts, dets = _masked_scene(gitems, ditems)
        self.assert_cells_equal(gts, dets, "masks")

    @given(st.lists(masked_item(), max_size=6), st.lists(masked_item(), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_batched_windows_equal_single_ones(self, gitems, ditems):
        batched = iou_matrix(
            *_masked_scene(_fresh_masks(gitems), _fresh_masks(ditems)), "masks"
        )
        gts, dets = _masked_scene(_fresh_masks(gitems), _fresh_masks(ditems))
        for item in (*gts, *dets):
            if item.mask is not None:
                item.mask.window()  # one mask at a time
        assert np.array_equal(iou_matrix(gts, dets, "masks"), batched)

    def test_exact_half_is_over_threshold(self):
        gts, dets = [A(1, 1, (0, 0, 10, 10))], [D(0, 1, (0, 0, 10, 5))]
        assert iou_matrix(gts, dets, "boxes")[0, 0] == 0.5
        assert [p.iou for p in iou_table(gts, dets, T)] == [0.5]

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_empty_sides(self, mode):
        gts, dets = [A(1, 1, (0, 0, 4, 4))], [D(0, 1, (0, 0, 4, 4))]
        assert iou_matrix([], dets, mode).shape == (0, 1)
        assert iou_matrix(gts, [], mode).shape == (1, 0)
        assert iou_matrix([], [], mode).shape == (0, 0)

    def test_table_keeps_gt_det_order(self):
        gts = [A(1, 1, (0, 0, 10, 10)), A(2, 2, (1, 0, 10, 10))]
        dets = [D(0, 2, (1, 0, 10, 10)), D(1, 1, (0, 0, 10, 10))]
        pairs = iou_table(gts, dets, T)
        assert [(p.gt.ann_id, p.det.det_id) for p in pairs] == [
            (1, 0), (1, 1), (2, 0), (2, 1)
        ]
        assert [p.same_class for p in pairs] == [False, True, True, False]
        assert all(type(p.iou) is float for p in pairs)


class TestMaskGeometryErrors:
    def test_rle_size_mismatch_raises(self):
        from deteval.errors import GeometryError
        from deteval.geometry import InstanceMask, rle_encode

        g_mask = InstanceMask(
            rle=rle_encode(np.ones((8, 8), dtype=bool)), canvas=(8, 8)
        )
        d_mask = InstanceMask(rle=rle_encode(np.ones((6, 6), dtype=bool)))
        gt = Annotation(1, 1, 1, BBox(0, 0, 8, 8), mask=g_mask, area=64.0)
        det = Detection(0, 1, 1, BBox(0, 0, 8, 8), score=0.9, mask=d_mask)
        with pytest.raises(GeometryError, match="canvases differ"):
            iou_table([gt], [det], Thresholds(geometry_mode="masks"))

    def test_rle_size_mismatch_raises_for_disjoint_windows(self):
        from deteval.errors import GeometryError

        g_bits = np.zeros((8, 8), dtype=bool)
        g_bits[6:, 6:] = True
        d_bits = np.zeros((6, 6), dtype=bool)
        d_bits[:2, :2] = True
        g_mask = InstanceMask(rle=rle_encode(g_bits), canvas=(8, 8))
        d_mask = InstanceMask(rle=rle_encode(d_bits))
        gt = Annotation(1, 1, 1, BBox(6, 6, 2, 2), mask=g_mask, area=4.0)
        det = Detection(0, 1, 1, BBox(0, 0, 2, 2), score=0.9, mask=d_mask)
        with pytest.raises(GeometryError, match="canvases differ"):
            iou_matrix([gt], [det], "masks")

    def test_matching_rle_sizes_work(self):
        from deteval.geometry import InstanceMask, rle_encode

        bits = np.zeros((8, 8), dtype=bool)
        bits[:4, :4] = True
        mask = InstanceMask(rle=rle_encode(bits))
        gt = Annotation(1, 1, 1, BBox(0, 0, 4, 4), mask=mask, area=16.0)
        det = Detection(0, 1, 1, BBox(0, 0, 4, 4), score=0.9, mask=mask)
        pairs = iou_table([gt], [det], Thresholds(geometry_mode="masks"))
        assert len(pairs) == 1 and pairs[0].iou == 1.0


class TestThresholds:
    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            Thresholds(geometry_mode="voxels")

    def test_bad_iou(self):
        with pytest.raises(ConfigError):
            Thresholds(iou_threshold=0.0)
        with pytest.raises(ConfigError):
            Thresholds(confidence_threshold=1.5)

    def test_matrix_shape_guard(self):
        with pytest.raises(ConfigError):
            ConfusionMatrix(LABELS, np.zeros((3, 3)))
