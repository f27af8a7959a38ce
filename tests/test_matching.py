import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deteval import geometry, matching
from deteval.annotations import (
    Annotation,
    Detection,
    DetectionSet,
    GroundTruthSet,
    ImageRecord,
    LabelMap,
    load_detections,
    load_ground_truth,
)
from deteval.errors import ConfigError, GeometryError
from deteval.geometry import BBox, InstanceMask, rle_encode
from deteval.matching import (
    ALGORITHMS,
    ConfusionMatrix,
    Thresholds,
    _deferred_acceptance,
    _image_table,
    accumulate,
    image_ious,
    iou_matrix,
    iou_table,
    match_conventional,
    match_dataset,
    match_images,
    match_modified,
)
from deteval.metrics import _match_cells
from deteval.oracle import (
    ScenarioConfig,
    box_iou,
    full_grid,
    generate,
    image_modified,
    instance_iou,
    max_matching,
    pair_iou,
    polygon_from_flat,
    polygon_from_points,
    reference_match_images,
)

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

    def test_modified_rounds_within_pairs(self):
        # dense contested scenarios: the rounds give the per-image reference's
        # matching, and there are no more rounds than pairs
        for seed in range(500):
            gts, dets, t, _ = scenario_results(
                seed, jitter_px=8.0, class_swap_rate=0.5, clutter_rate=0.5
            )
            ious = iou_matrix(gts, dets, t.geometry_mode)
            assert match_modified(gts, dets, t) == image_modified(gts, dets, ious, t)
            visible = [d for d in dets if d.score >= t.confidence_threshold]
            pairs = _image_table(gts, visible, t.geometry_mode, t.iou_threshold)
            assert _deferred_acceptance(pairs)[1] <= pairs.iou.size


def tie_heavy_scene(seed, mode):
    """A multi-image scene on a small canvas with heavy overlap. On odd seeds
    every item has a twin of the same box, mask and class, so IoUs tie; a
    twin detection has the same score, so only the ids break the ties, or a
    score of exactly 0.5, or another score."""
    gt_set, det_set = generate(ScenarioConfig(
        seed=seed, image_count=4, gts_per_image=(0, 7), jitter_px=8.0,
        class_swap_rate=0.4, clutter_rate=0.5, drop_rate=0.2, image_size=(64, 64),
    ))
    if seed % 2:
        anns, dets = gt_set.annotations, det_set.detections
        gt_set = GroundTruthSet(gt_set.images, gt_set.label_map, anns + tuple(
            replace(a, ann_id=a.ann_id + 1000) for a in anns))
        det_set = DetectionSet(det_set.label_map, dets + tuple(
            replace(d, det_id=d.det_id + 1000, score=(d.score, 0.5, 1 - d.score / 2)[d.det_id % 3])
            for d in dets))
    return gt_set, det_set


def with_empty_sides(gt_set, det_set):
    """The scene with two images listed first: one with ground truths and no
    detections, and one with detections and no ground truths. Their items
    come last in load order."""
    n = len(gt_set.images)
    images = (ImageRecord(n + 1, "gts.png", 64, 64), ImageRecord(n + 2, "dets.png", 64, 64))
    gt_set = GroundTruthSet(images + gt_set.images, gt_set.label_map, gt_set.annotations + tuple(
        replace(a, ann_id=a.ann_id + 5000, image_id=n + 1) for a in gt_set.annotations[:3]))
    det_set = DetectionSet(det_set.label_map, det_set.detections + tuple(
        replace(d, det_id=d.det_id + 5000, image_id=n + 2) for d in det_set.detections[:3]))
    return gt_set, det_set


SWEEP = [(mode, iou, conf) for mode in ("boxes", "masks")
         for iou in (0.1, 0.5) for conf in (0.05, 0.5)]


def _ground_truth_key(p):
    # a ground truth's preference among its candidates: larger is better
    return (p.same_class, p.iou, p.det.score, -p.det.det_id)


def _detection_key(p):
    # a detection's preference among its candidates: larger is better
    return (p.same_class, p.iou, -p.gt.ann_id)


def _pair_order(p):
    return (-p.iou, -p.det.score, p.det.det_id, p.gt.ann_id)


class TestDatasetMatchers:
    """The dataset-wide matchers give exactly the per-image references'
    results, and meet the properties that define them."""

    @pytest.mark.parametrize("mode, iou, conf", SWEEP)
    def test_equal_to_per_image_reference(self, mode, iou, conf):
        t = Thresholds(iou, conf, mode)
        for seed in range(12):
            gt_set, det_set = tie_heavy_scene(seed, mode)
            labels = gt_set.label_map
            for algorithm in ("conventional", "modified"):
                results, cm = match_dataset(gt_set, det_set, t, algorithm)
                # a table at a lower floor is cut to the thresholds
                for floor in sorted({0.1, iou}):
                    table = image_ious(gt_set, det_set, mode, floor)
                    ref_results, ref_cm = reference_match_images(table, labels, t, algorithm)
                    # the pairs, and the unmatched lists in order
                    assert results == ref_results
                    assert cm == ref_cm
                    matched, cm_images = match_images(table, labels, t, algorithm)
                    assert cm_images == ref_cm
                    got = zip(table.gt_id[table.gt[matched]], table.det_id[table.det[matched]])
                    assert sorted(got) == sorted(
                        (p.gt.ann_id, p.det.det_id) for r in ref_results for p in r.matched)

    @staticmethod
    def candidates(gt_set, det_set, t):
        """Each image's (results of both matchers, over-threshold pairs)."""
        conv, _ = match_dataset(gt_set, det_set, t, "conventional")
        mod, _ = match_dataset(gt_set, det_set, t, "modified")
        for img, c, m in zip(gt_set.images, conv, mod):
            dets = [d for d in det_set.by_image().get(img.image_id, [])
                    if d.score >= t.confidence_threshold]
            yield c, m, iou_table(gt_set.by_image()[img.image_id], dets, t)

    @pytest.mark.parametrize("mode, iou, conf", SWEEP)
    def test_modified_has_no_blocking_pair(self, mode, iou, conf):
        t = Thresholds(iou, conf, mode)
        for seed in range(12):
            for _, res, pairs in self.candidates(*tie_heavy_scene(seed, mode), t):
                of_gt = {p.gt.ann_id: p for p in res.matched}
                of_det = {p.det.det_id: p for p in res.matched}
                for p in pairs:
                    held_g, held_d = of_gt.get(p.gt.ann_id), of_det.get(p.det.det_id)
                    gt_wants = held_g is None or _ground_truth_key(p) > _ground_truth_key(held_g)
                    det_wants = held_d is None or _detection_key(p) > _detection_key(held_d)
                    assert not (gt_wants and det_wants), p

    @pytest.mark.parametrize("mode, iou, conf", SWEEP)
    def test_conventional_keeps_first_pairs(self, mode, iou, conf):
        t = Thresholds(iou, conf, mode)
        for seed in range(12):
            for res, _, pairs in self.candidates(*tie_heavy_scene(seed, mode), t):
                first_of_gt = {}
                for p in sorted(pairs, key=_pair_order):
                    first_of_gt.setdefault(p.gt.ann_id, p)
                survivors = sorted(first_of_gt.values(), key=_pair_order)
                for p in res.matched:
                    assert first_of_gt[p.gt.ann_id] == p
                    assert min((s for s in survivors if s.det.det_id == p.det.det_id),
                               key=_pair_order) == p
                # every detection with a survivor is matched
                assert {p.det.det_id for p in res.matched} == {
                    s.det.det_id for s in survivors}


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
            polygons=[polygon_from_flat([x0, y0, x0 + bw, y0, x0 + bw, y0 + bh, x0, y0 + bh])]
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


class TestErrorOrder:
    def test_canvases_are_checked_before_any_mask_is_prepared(self):
        # image 1 has masks on different canvases; image 2 a ring of two
        # vertices inside its canvas, which its preparation would refuse
        image_1 = (Annotation(1, 1, 1, BBox(0, 0, 4, 4), area=16.0,
                              mask=InstanceMask(rle=rle_encode(np.ones((8, 8), bool)))),
                   Detection(0, 1, 1, BBox(0, 0, 4, 4), score=0.9,
                             mask=InstanceMask(rle=rle_encode(np.ones((6, 6), bool)))))
        square = polygon_from_points([(1, 1), (6, 1), (6, 6), (1, 6)])
        image_2 = (Annotation(2, 2, 1, BBox(1, 1, 5, 5), area=25.0, mask=InstanceMask(
                       polygons=[polygon_from_points([(1, 1), (5, 5)])], canvas=(16, 12))),
                   Detection(1, 2, 1, BBox(1, 1, 5, 5), score=0.9,
                             mask=InstanceMask(polygons=[square], canvas=(16, 12))))
        images = [ImageRecord(1, "a.png", 8, 8), ImageRecord(2, "b.png", 16, 12)]
        gt_set = GroundTruthSet(images, LABELS, [image_1[0], image_2[0]])
        det_set = DetectionSet(LABELS, [image_1[1], image_2[1]])
        with pytest.raises(GeometryError, match="mask canvases differ"):
            image_ious(gt_set, det_set, "masks", 0.5)
        with pytest.raises(GeometryError, match="invalid polygon: 2 vertices"):
            image_ious(GroundTruthSet(images[1:], LABELS, image_2[:1]),
                       DetectionSet(LABELS, image_2[1:]), "masks", 0.5)


def _joined(monkeypatch) -> list:
    """The (gt, det) item pairs whose spans the pair table joins, each time
    :func:`geometry.mask_ious` passes them to its span join."""
    joined, join = [], geometry._shared

    def recorded(gts, dets, g, d, top, bottom):
        joined.extend(zip(g.tolist(), d.tolist()))
        return join(gts, dets, g, d, top, bottom)

    monkeypatch.setattr(geometry, "_shared", recorded)
    return joined


def _overlap(a, b) -> bool:
    """Whether two masks' windows share a pixel, as
    :meth:`InstanceMask.iou` tells it."""
    (abits, ax, ay), (bbits, bx, by) = a.window(), b.window()
    return (min(ax + abits.shape[1], bx + bbits.shape[1]) > max(ax, bx)
            and min(ay + abits.shape[0], by + bbits.shape[0]) > max(ay, by))


def _as_rle(mask, canvas):
    """The mask as a run-length grid on ``canvas``."""
    window = InstanceMask(polygons=mask.polygons, canvas=canvas).window()
    return InstanceMask(rle=rle_encode(full_grid(window, *canvas)))


class TestColumnIntersection:
    """The pair table's span join equals the scalar :meth:`InstanceMask.iou`
    of every pair exactly, for sets built from records and for sets loaded
    from files, and joins only the pairs whose windows share a pixel, each
    once."""

    @staticmethod
    def assert_scalar_equal(gt_set, det_set, monkeypatch):
        joined = _joined(monkeypatch)
        table = image_ious(gt_set, det_set, "masks", -np.inf)
        gts = gt_set.items.records(table.gt_item)
        dets = det_set.items.records(table.det_item)
        assert table.gt.size == sum(table.n_gts * table.n_dets)
        overlapping = []
        for g, d, iou in zip(table.gt.tolist(), table.det.tolist(), table.iou.tolist()):
            gm, dm = gts[g].mask, dets[d].mask
            if gm is None or dm is None:
                assert iou == box_iou(gts[g].bbox, dets[d].bbox)
                continue
            if _overlap(gm, dm):
                overlapping.append((int(table.gt_item[g]), int(table.det_item[d])))
            assert iou == instance_iou(gm, dm), (gts[g], dets[d])
        assert sorted(joined) == sorted(overlapping)
        monkeypatch.undo()

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_polygon_and_rle_masks(self, seed, monkeypatch, tmp_path):
        gt_set, det_set = generate(ScenarioConfig(
            seed=seed, image_count=4, gts_per_image=(0, 7), jitter_px=6.0,
            class_swap_rate=0.3, clutter_rate=0.5, drop_rate=0.2, image_size=(48, 40)))
        canvas = (48, 40)
        # every third mask a run-length grid, every fifth detection without one
        anns = [replace(a, mask=_as_rle(a.mask, canvas) if k % 3 == 0 else
                        InstanceMask(polygons=a.mask.polygons, canvas=canvas))
                for k, a in enumerate(gt_set.annotations)]
        dets = [replace(d, mask=None if k % 5 == 4 else _as_rle(d.mask, canvas)
                        if k % 3 == 1 else InstanceMask(polygons=d.mask.polygons))
                for k, d in enumerate(det_set.detections)]
        gt_set = GroundTruthSet(gt_set.images, gt_set.label_map, anns)
        det_set = DetectionSet(det_set.label_map, dets)
        self.assert_scalar_equal(gt_set, det_set, monkeypatch)
        # the same sets loaded, whose masks are the loader's columns
        gt_set.save(tmp_path / "gt.json")
        det_set.save(tmp_path / "det.json")
        gt_set = load_ground_truth(tmp_path / "gt.json")
        self.assert_scalar_equal(gt_set, load_detections(
            tmp_path / "det.json", gt_set.label_map, gt_set.images), monkeypatch)

    def test_touching_and_empty_windows(self, monkeypatch):
        def rle(x0, y0, x1, y1, canvas=(12, 10)):
            bits = np.zeros(canvas[::-1], dtype=bool)
            bits[y0:y1, x0:x1] = True
            return InstanceMask(rle=rle_encode(bits))

        def square(x0, y0, x1, y1):
            return InstanceMask(polygons=[polygon_from_points(
                [(x0, y0), (x1, y0), (x1, y1), (x0, y1)])], canvas=(12, 10))

        gt_masks = [square(0, 0, 4, 4), rle(4, 4, 8, 8), rle(0, 0, 0, 0)]
        det_masks = [
            square(4, 0, 8, 4), rle(0, 4, 4, 8),  # edge to edge with the first
            square(8, 8, 10, 10), rle(3, 3, 4, 4),  # corner to corner
            rle(2, 2, 6, 6),  # overlapping the first two
            rle(0, 0, 0, 0), square(20, 20, 24, 24),  # empty windows
        ]
        gts = [Annotation(k + 1, 1, 1, BBox(0, 0, 4, 4), mask=m, area=16.0)
               for k, m in enumerate(gt_masks)]
        dets = [Detection(k, 1, 1, BBox(0, 0, 4, 4), score=0.9, mask=m)
                for k, m in enumerate(det_masks)]
        images = [ImageRecord(1, "a.png", 12, 10)]
        gt_set, det_set = GroundTruthSet(images, LABELS, gts), DetectionSet(LABELS, dets)
        self.assert_scalar_equal(gt_set, det_set, monkeypatch)
        # the empty windows have no pixel; an empty union is 0.0
        columns = det_set.items.masks
        assert columns.areas(np.arange(5, 7)).tolist() == [0, 0]
        assert columns.rects()[6].tolist() == [20, 20, 20, 20]
        ious = iou_matrix(gts, dets, "masks")
        assert ious[2].tolist() == [0.0] * len(dets)
        assert ious[0].tolist() == [0.0, 0.0, 0.0, 1 / 16, 4 / 28, 0.0, 0.0]
        assert ious[1].tolist() == [0.0, 0.0, 0.0, 0.0, 4 / 28, 0.0, 0.0]

    def test_windows_are_columns_of_the_set(self, tmp_path):
        gt_set, _ = generate(ScenarioConfig(seed=3, image_count=2, image_size=(40, 30)))
        gt_set.save(tmp_path / "gt.json")
        for items in (gt_set.items, load_ground_truth(tmp_path / "gt.json").items):
            columns = items.masks
            rects, areas = columns.rects(), columns.areas(np.arange(items.ids.size))
            assert columns.rects() is rects  # computed once
            # pixel counts in float64, whose sums cannot wrap as int64 ones can
            assert (rects.dtype, areas.dtype) == (np.int64, np.float64)
            assert rects.shape == (areas.size, 4)
            for (x0, y0, x1, y1), area, mask in zip(rects.tolist(), areas.tolist(),
                                                    gt_set.items.masks.instances()):
                window, wx, wy = mask.window()
                assert (x0, y0) == (wx, wy) and (y1 - y0, x1 - x0) == window.shape
                assert area == mask.area == np.count_nonzero(window)


def _reference_canvas_check(gt_set, det_set):
    """The per-image pairwise canvas check: the text of the first (gt, det)
    pair, image by image, whose known canvases differ, or None."""
    for img in gt_set.images:
        gms = [g.mask for g in gt_set.by_image()[img.image_id] if g.mask is not None]
        dms = [d.mask for d in det_set.by_image().get(img.image_id, []) if d.mask is not None]
        for g in gms:
            for d in dms:
                if None not in (g.canvas, d.canvas) and g.canvas != d.canvas:
                    return f"mask canvases differ: {g.canvas} vs {d.canvas}"
    return None


def _canvas_mask(canvas):
    """A small mask on ``canvas``: a run-length grid of that size, or a
    polygon with no canvas for None."""
    if canvas is None:
        return InstanceMask(polygons=[polygon_from_points([(0, 0), (2, 0), (2, 2)])])
    bits = np.zeros(canvas[::-1], dtype=bool)
    bits[:2, :2] = True
    return InstanceMask(rle=rle_encode(bits))


def _canvas_scene(images):
    """Sets of one item per canvas: ``images`` lists each image's ground
    truth and detection canvases."""
    gts, dets = [], []
    for image_id, (g_canvases, d_canvases) in enumerate(images, 1):
        gts += [Annotation(len(gts) + 1, image_id, 1, BBox(0, 0, 2, 2), area=4.0,
                           mask=_canvas_mask(c)) for c in g_canvases]
        dets += [Detection(len(dets), image_id, 1, BBox(0, 0, 2, 2), score=0.9,
                           mask=_canvas_mask(c)) for c in d_canvases]
    records = [ImageRecord(k, f"{k}.png", 32, 32) for k in range(1, len(images) + 1)]
    return GroundTruthSet(records, LABELS, gts), DetectionSet(LABELS, dets)


A8, A6, A5 = (8, 8), (6, 6), (5, 5)


class TestCanvasCheck:
    """The canvas check raises exactly when, and with the text that, the
    per-image pairwise loop does."""

    @staticmethod
    def assert_parity(gt_set, det_set):
        expected = _reference_canvas_check(gt_set, det_set)
        if expected is None:
            image_ious(gt_set, det_set, "masks", 0.5)
        else:
            with pytest.raises(GeometryError) as info:
                image_ious(gt_set, det_set, "masks", 0.5)
            assert str(info.value) == expected
        return expected

    @pytest.mark.parametrize("images, expected", [
        pytest.param([([A8], [A8, None]), ([A8, A6], [None, A6, A8])],
                     "mask canvases differ: (8, 8) vs (6, 6)", id="later-image-only"),
        pytest.param([([A8, A6], [None, None])], None, id="gts-differ-no-det-canvas"),
        pytest.param([([A8, None], [A8]), ([A6], [None, A6]), ([A5], [])], None,
                     id="multi-size-each-consistent"),
        pytest.param([([None, A8, A6], [A6, A8, A5])],
                     "mask canvases differ: (8, 8) vs (6, 6)", id="first-pair-named"),
        pytest.param([([A8], [A8]), ([A6, A5], [A5])],
                     "mask canvases differ: (6, 6) vs (5, 5)", id="two-canvases-on-an-image"),
    ])
    def test_cases(self, images, expected):
        assert self.assert_parity(*_canvas_scene(images)) == expected

    def test_random_scenes(self):
        rng = random.Random(5)
        raised = 0
        for _ in range(300):
            choices = [None, A8, A6, A5][: rng.randint(2, 4)]
            images = [tuple([rng.choice(choices) for _ in range(rng.randint(0, 3))]
                            for _ in range(2)) for _ in range(rng.randint(1, 4))]
            raised += self.assert_parity(*_canvas_scene(images)) is not None
        assert 30 < raised < 270

    def test_detections_loaded_without_images(self, tmp_path):
        gt = {"images": [{"id": 1, "file_name": "a.png", "width": 8, "height": 8}],
              "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                               "bbox": [0, 0, 4, 4], "segmentation": [[0, 0, 4, 0, 4, 4]]}],
              "categories": [{"id": 1, "name": "X"}]}
        det = [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 4, 4], "score": 0.9,
                "segmentation": {"size": [6, 6], "counts": [0, 4, 32]}}]
        (tmp_path / "gt.json").write_text(json.dumps(gt), encoding="utf-8")
        (tmp_path / "det.json").write_text(json.dumps(det), encoding="utf-8")
        gt_set = load_ground_truth(tmp_path / "gt.json")
        det_set = load_detections(tmp_path / "det.json", gt_set.label_map)
        assert self.assert_parity(gt_set, det_set) == "mask canvases differ: (8, 8) vs (6, 6)"
        with pytest.raises(GeometryError, match="does not match image 8x8"):
            load_detections(tmp_path / "det.json", gt_set.label_map, gt_set.images)


class TestWindowCache:
    def test_repeated_calls_prepare_each_mask_once(self, monkeypatch):
        gt_set, det_set = generate(ScenarioConfig(
            seed=4, image_count=1, gts_per_image=(6, 6), jitter_px=3.0, clutter_rate=0.5,
            image_size=(64, 48)))
        gts = list(gt_set.annotations)
        dets = [replace(d, mask=_as_rle(d.mask, (64, 48))) if k % 2 else d
                for k, d in enumerate(det_set.detections)]
        prepared = {"polygon": 0, "rle": 0}
        polygon, rle = geometry._polygon_spans, geometry._rle_spans

        def counted_polygon(xy, ring_sizes, mask_rings, rects):
            prepared["polygon"] += len(rects)
            return polygon(xy, ring_sizes, mask_rings, rects)

        def counted_rle(runs, counts, widths):
            prepared["rle"] += len(counts)
            return rle(runs, counts, widths)

        monkeypatch.setattr(geometry, "_polygon_spans", counted_polygon)
        monkeypatch.setattr(geometry, "_rle_spans", counted_rle)
        t = Thresholds(geometry_mode="masks")
        first = match_conventional(gts, dets, t)
        assert match_conventional(gts, dets, t) == first
        match_modified(gts, dets, t)
        n_rle = sum(d.mask.rle is not None for d in dets)
        assert n_rle and prepared == {"polygon": len(gts) + len(dets) - n_rle, "rle": n_rle}


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


class TestImageIous:
    """The per-image table that every command builds once."""

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_match_dataset_equals_per_image_matchers(self, mode):
        t = Thresholds(geometry_mode=mode)
        for seed in range(8):
            gt_set, det_set = generate(
                ScenarioConfig(seed=seed, image_count=4, gts_per_image=(0, 8),
                               jitter_px=6, class_swap_rate=0.3, clutter_rate=0.5,
                               drop_rate=0.2, image_size=(160, 160))
            )
            for algorithm, matcher in (
                ("conventional", match_conventional), ("modified", match_modified)
            ):
                results, _ = match_dataset(gt_set, det_set, t, algorithm)
                expected = [
                    matcher(
                        gt_set.by_image()[img.image_id],
                        det_set.by_image().get(img.image_id, []),
                        t,
                    )
                    for img in gt_set.images
                ]
                assert results == expected

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("floor", [0.1, 0.5])
    def test_pairs_are_the_matrix_cells_over_the_floor(self, monkeypatch, mode, floor):
        # at the default cell budget, and at one that cuts images across passes
        for budget, seed in itertools.product((matching.PAIR_CHUNK_CELLS, 5), range(8)):
            monkeypatch.setattr(matching, "PAIR_CHUNK_CELLS", budget)
            gt_set, det_set = with_empty_sides(*tie_heavy_scene(seed, mode))
            table = image_ious(gt_set, det_set, mode, floor)
            gts, dets, pairs = [], [], []
            for img in gt_set.images:
                image_gts = gt_set.by_image()[img.image_id]
                image_dets = det_set.by_image().get(img.image_id, [])
                ious = iou_matrix(image_gts, image_dets, mode)
                assert ious.tolist() == [
                    [pair_iou(g, d, mode) for d in image_dets] for g in image_gts]
                i, j = np.nonzero(ious >= floor)
                pairs.append((i + len(gts), j + len(dets), ious[i, j]))
                gts += image_gts
                dets += image_dets
            assert table.floor == floor
            assert table.image_id == [img.image_id for img in gt_set.images]
            assert table.gt_items is gt_set.items and table.det_items is det_set.items
            assert list(gt_set.items.records(table.gt_item)) == gts
            assert list(det_set.items.records(table.det_item)) == dets
            assert table.n_gts.tolist() == [len(gt_set.by_image()[i]) for i in table.image_id]
            assert table.n_dets.tolist() == [
                len(det_set.by_image().get(i, [])) for i in table.image_id]
            columns = (table.gt_id, table.gt_class, table.det_id, table.det_class, table.score)
            expected = ([g.ann_id for g in gts], [g.class_id for g in gts],
                        [d.det_id for d in dets], [d.class_id for d in dets],
                        [d.score for d in dets])
            for column, values in zip(columns, expected):
                assert column.dtype == np.array(values).dtype
                assert column.tolist() == values
            for column, expected in zip((table.gt, table.det, table.iou), zip(*pairs)):
                expected = np.concatenate(expected)
                assert column.dtype == expected.dtype
                assert np.array_equal(column, expected)

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_ap_pools_do_not_depend_on_the_floor(self, mode):
        # the AP suite reads same-class pairs at or above the sweep's lowest
        # threshold only, so a lower floor changes no pool
        for seed in range(8):
            gt_set, det_set = tie_heavy_scene(seed, mode)
            low, high = (image_ious(gt_set, det_set, mode, f) for f in (0.1, 0.5))
            assert low.iou.size > high.iou.size
            low, high = _match_cells(low, mode), _match_cells(high, mode)
            assert low.keys() == high.keys()
            for cid in low:
                for a, b in zip(low[cid], high[cid]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_matcher_below_the_floor_raises(self):
        gt_set, det_set = tie_heavy_scene(1, "boxes")
        table = image_ious(gt_set, det_set, "boxes", 0.5)
        for algorithm in ALGORITHMS:
            with pytest.raises(ConfigError, match="below the pair table's floor"):
                match_images(table, gt_set.label_map, Thresholds(0.3), algorithm)
            match_images(table, gt_set.label_map, Thresholds(0.5), algorithm)

    def test_unknown_mode_raises(self):
        gt_set, det_set = generate(ScenarioConfig(seed=1))
        with pytest.raises(ConfigError, match="unknown geometry mode"):
            image_ious(gt_set, det_set, "pixels", 0.5)


def _read_cells(table, conf, same_class):
    """The ``(gt, det, iou)`` columns of an every-cell table cut to the cells
    whose detection scores at or above ``conf`` or, with ``same_class``,
    whose two sides share a class."""
    read = table.score[table.det] >= conf
    if same_class:
        read |= table.gt_class[table.gt] == table.det_class[table.det]
    return table.gt[read], table.det[read], table.iou[read]


def _read_scenes(mode):
    """Tie-heavy scenes, with images of one side only, and generated ones,
    whose scores from 0.3 up are cut to a tenth for every third detection."""
    for seed in range(6):
        yield with_empty_sides(*tie_heavy_scene(seed, mode))
    for seed in range(3):
        gt_set, det_set = generate(ScenarioConfig(
            seed=seed, image_count=4, gts_per_image=(0, 8), jitter_px=6,
            class_swap_rate=0.3, clutter_rate=0.5, drop_rate=0.2, image_size=(160, 160)))
        yield gt_set, DetectionSet(det_set.label_map, [
            replace(d, score=d.score / 10) if k % 3 == 0 else d
            for k, d in enumerate(det_set.detections)])


class TestReadCells:
    """A table built for a set of readers holds exactly the cells they read:
    the matchers the cells at or above their confidence threshold, the AP/AR
    suite the same-class cells at any score, and a report both. Each reader
    gives on it what it gives on the every-cell table, and refuses a table
    that lacks cells it reads."""

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("conf", [0.05, 0.5, 0.9])
    def test_tables_are_the_every_cell_table_cut(self, monkeypatch, mode, conf):
        # at the default cell budget, at one that cuts images across passes,
        # and at one cell a pass, where many passes hold no cell read
        cut = 0
        for budget in (matching.PAIR_CHUNK_CELLS, 5, 1):
            monkeypatch.setattr(matching, "PAIR_CHUNK_CELLS", budget)
            for gt_set, det_set in _read_scenes(mode):
                for floor in (0.1, 0.5):
                    every = image_ious(gt_set, det_set, mode, floor)
                    assert (every.conf, every.same_class) == (-np.inf, True)
                    for rule in ((conf, False), (conf, True), (np.inf, True)):
                        table = image_ious(gt_set, det_set, mode, floor, *rule)
                        assert (table.floor, table.conf, table.same_class) == (floor, *rule)
                        assert table.image_id == every.image_id
                        for name in ("gt_item", "det_item", "n_gts", "n_dets", "gt_id",
                                     "gt_class", "det_id", "det_class", "score"):
                            a, b = getattr(table, name), getattr(every, name)
                            assert a.dtype == b.dtype and np.array_equal(a, b), name
                        for got, expected in zip((table.gt, table.det, table.iou),
                                                 _read_cells(every, *rule)):
                            assert got.dtype == expected.dtype
                            assert np.array_equal(got, expected)
                        cut += rule[0] != np.inf and table.gt.size < every.gt.size
        # some pairs lie in cells that the matchers do not read
        assert cut

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("conf", [0.05, 0.5, 0.9])
    def test_one_image_tables_are_the_every_cell_table_cut(self, monkeypatch, mode, conf):
        for budget in (matching.PAIR_CHUNK_CELLS, 5, 1):
            monkeypatch.setattr(matching, "PAIR_CHUNK_CELLS", budget)
            for gt_set, det_set in _read_scenes(mode):
                for img in gt_set.images:
                    gts = gt_set.by_image()[img.image_id]
                    dets = det_set.by_image().get(img.image_id, [])
                    every = _image_table(gts, dets, mode, 0.1)
                    table = _image_table(gts, dets, mode, 0.1, conf, False)
                    for got, expected in zip((table.gt, table.det, table.iou),
                                             _read_cells(every, conf, False)):
                        assert got.dtype == expected.dtype
                        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("conf", [0.05, 0.5, 0.9])
    def test_readers_give_the_every_cell_values(self, mode, conf):
        for iou in (0.3, 0.5):
            t = Thresholds(iou, conf, mode)
            for gt_set, det_set in _read_scenes(mode):
                labels = gt_set.label_map
                every = image_ious(gt_set, det_set, mode, min(iou, 0.5))
                shown = image_ious(gt_set, det_set, mode, iou, conf, False)
                report = image_ious(gt_set, det_set, mode, min(iou, 0.5), conf)
                suite = image_ious(gt_set, det_set, mode, 0.5, np.inf)
                for algorithm in ALGORITHMS:
                    matched, cm = match_images(every, labels, t, algorithm)
                    pairs = sorted(zip(every.gt[matched].tolist(), every.det[matched].tolist()))
                    for table in (shown, report):
                        got, got_cm = match_images(table, labels, t, algorithm)
                        assert got_cm == cm
                        assert sorted(zip(table.gt[got].tolist(),
                                          table.det[got].tolist())) == pairs
                    # the dataset matcher and the one-image matchers
                    results = matching._results(every, matched, t)
                    assert match_dataset(gt_set, det_set, t, algorithm) == (results, cm)
                    one_image = {"conventional": match_conventional,
                                 "modified": match_modified}[algorithm]
                    for img, result in zip(gt_set.images, results):
                        assert one_image(gt_set.by_image()[img.image_id],
                                         det_set.by_image().get(img.image_id, []),
                                         t) == result
                pools = _match_cells(every, mode)
                for table in (report, suite):
                    got = _match_cells(table, mode)
                    assert got.keys() == pools.keys()
                    for cid in pools:
                        for a, b in zip(got[cid], pools[cid]):
                            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("conf", [0.05, 0.5, 0.9])
    def test_tables_lacking_read_cells_raise(self, mode, conf):
        gt_set, det_set = tie_heavy_scene(1, mode)
        labels = gt_set.label_map
        shown = image_ious(gt_set, det_set, mode, 0.5, conf, False)
        report = image_ious(gt_set, det_set, mode, 0.5, conf)
        suite = image_ious(gt_set, det_set, mode, 0.5, np.inf)
        for algorithm in ALGORITHMS:
            for table in (shown, report):
                # a matcher at a lower confidence threshold than the table's
                with pytest.raises(ConfigError, match=f"confidence_threshold {conf / 5} is "
                                   f"below the pair table's {conf}"):
                    match_images(table, labels, Thresholds(0.5, conf / 5, mode), algorithm)
                match_images(table, labels, Thresholds(0.5, conf, mode), algorithm)
                match_images(table, labels, Thresholds(0.5, min(1.0, 2 * conf), mode),
                             algorithm)
            with pytest.raises(ConfigError, match="below the pair table's inf"):
                match_images(suite, labels, Thresholds(0.5, 1.0, mode), algorithm)
        # the AP/AR suite on a table of the shown cells only
        with pytest.raises(ConfigError, match="AP/AR suite reads every same-class pair"):
            _match_cells(shown, mode)
        # a table with every cell serves every reader
        _match_cells(image_ious(gt_set, det_set, mode, 0.5, -np.inf, False), mode)
