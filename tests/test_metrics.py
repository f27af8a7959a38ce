import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deteval.annotations import (
    Annotation,
    Detection,
    DetectionSet,
    GroundTruthSet,
    ImageRecord,
    LabelMap,
)
from deteval.errors import ConfigError, MissingReferenceError
from deteval.geometry import BBox, SizeClass
from deteval.matching import (
    ConfusionMatrix,
    Thresholds,
    accumulate,
    image_ious,
    match_conventional,
    match_dataset,
)
from deteval.metrics import (
    IOU_SWEEP,
    STRATA,
    _curves,
    _greedy,
    _match_cells,
    _outside,
    _strata,
    average_precision,
    average_recall,
    full_report,
    mean_ap,
    precision_recall,
)
from deteval.oracle import (
    ScenarioConfig,
    generate,
    max_matching,
    outside_strata,
    polygon_from_points,
    reference_accumulate,
    reference_greedy_cell,
    road_labels,
    size_class,
)

LABELS = LabelMap([(1, "X"), (2, "Y")])


def scene(gt_boxes, det_rows, labels=LABELS, size=(400, 400)):
    """One-image dataset. det_rows: (class_id, box, score)."""
    img = ImageRecord(1, "img.png", *size)
    anns = [
        Annotation(i + 1, 1, cid, BBox(*box), area=BBox(*box).area)
        for i, (cid, box) in enumerate(gt_boxes)
    ]
    dets = [
        Detection(i, 1, cid, BBox(*box), score=score)
        for i, (cid, box, score) in enumerate(det_rows)
    ]
    return GroundTruthSet([img], labels, anns), DetectionSet(labels, dets)


def oracle_ap(tp_flags, n_gt):
    """Exhaustive PR-curve reference: best achievable precision at each of
    the 101 recall points, scanning every prefix of the ranked detections."""
    points = []
    tp = fp = 0
    for flag in tp_flags:
        tp += flag
        fp += not flag
        points.append((tp / n_gt, tp / (tp + fp)))
    total = 0.0
    for r in np.linspace(0, 1, 101):
        achievable = [p for rc, p in points if rc >= r]
        total += max(achievable) if achievable else 0.0
    return total / 101


class TestPrecisionRecall:
    def test_recall_fixture_crack1(self):
        labels = road_labels()
        cm = ConfusionMatrix(labels)
        cm.counts[0, 0] = 116
        cm.counts[0, 1] = 10
        cm.counts[0, -1] = 329  # row sums to 455
        m = precision_recall(cm)[0]
        assert m.support_gt == 455
        assert f"{m.recall_at_05:.4f}" == "0.2549"

    def test_perfect_single_cell(self):
        cm = ConfusionMatrix(LABELS)
        cm.counts[0, 0] = 1
        m = precision_recall(cm)[0]
        assert m.precision_at_05 == 1.0
        assert m.recall_at_05 == 1.0

    def test_zero_denominators_flagged(self):
        cm = ConfusionMatrix(LABELS)
        m = precision_recall(cm)[0]
        assert m.precision_at_05 == 0.0
        assert m.recall_at_05 == 0.0
        assert m.precision_undefined and m.recall_undefined

    def test_cross_class_matrix(self):
        # gt class X matched cross-class to a Y det; the X det unclassified
        g = Annotation(1, 1, 1, BBox(0, 0, 10, 10), area=100.0)
        d1 = Detection(0, 1, 2, BBox(0, 0, 10, 9), score=0.9)
        d2 = Detection(1, 1, 1, BBox(0, 0, 10, 6), score=0.9)
        cm = accumulate([match_conventional([g], [d1, d2], Thresholds())], LABELS)
        by_id = {m.class_id: m for m in precision_recall(cm)}
        assert by_id[1].precision_at_05 == 0.0
        assert by_id[1].recall_at_05 == 0.0
        assert by_id[2].precision_at_05 == 0.0

    def test_recall_is_exact_integer_ratio(self):
        cm = ConfusionMatrix(LABELS)
        cm.counts[0, 0] = 7
        cm.counts[0, -1] = 3
        m = precision_recall(cm)[0]
        assert m.recall_at_05 == 7 / 10


class TestAveragePrecision:
    def test_perfect_detector(self):
        gt, det = scene(
            [(1, (0, 0, 10, 10)), (1, (50, 50, 10, 10))],
            [(1, (0, 0, 10, 10), 1.0), (1, (50, 50, 10, 10), 1.0)],
        )
        assert average_precision(gt, det, 1) == 1.0

    def test_no_detections(self):
        gt, det = scene([(1, (0, 0, 10, 10))], [])
        assert average_precision(gt, det, 1) == 0.0

    def test_no_ground_truth_sentinel(self):
        gt, det = scene([(1, (0, 0, 10, 10))], [])
        assert average_precision(gt, det, 2) == -1.0

    def test_worked_example(self):
        # score order: hit, false positive, hit
        gt, det = scene(
            [(1, (0, 0, 10, 10)), (1, (50, 50, 10, 10))],
            [
                (1, (0, 0, 10, 10), 0.9),
                (1, (200, 200, 10, 10), 0.8),
                (1, (50, 50, 10, 10), 0.7),
            ],
        )
        expected = (51 + 50 * (2 / 3)) / 101
        ap = average_precision(gt, det, 1)
        assert ap == pytest.approx(expected, abs=1e-9)
        assert ap == pytest.approx(oracle_ap([True, False, True], 2), abs=1e-12)

    def test_score_rank_invariance(self):
        rows = [
            (1, (0, 0, 10, 10), 0.9),
            (1, (200, 200, 10, 10), 0.8),
            (1, (50, 50, 10, 10), 0.7),
        ]
        squashed = [(c, b, s**3 / 2) for c, b, s in rows]
        gts = [(1, (0, 0, 10, 10)), (1, (50, 50, 10, 10))]
        gt1, det1 = scene(gts, rows)
        gt2, det2 = scene(gts, squashed)
        assert average_precision(gt1, det1, 1) == average_precision(gt2, det2, 1)

    def test_duplicate_between_hits_strictly_lowers(self):
        gts = [(1, (0, 0, 10, 10)), (1, (50, 50, 10, 10))]
        clean = [(1, (0, 0, 10, 10), 0.9), (1, (50, 50, 10, 10), 0.7)]
        gt1, det1 = scene(gts, clean)
        base = average_precision(gt1, det1, 1)
        dup = clean + [(1, (0, 0, 10, 10), 0.8)]  # duplicate of matched det
        gt2, det2 = scene(gts, dup)
        lowered = average_precision(gt2, det2, 1)
        assert lowered < base

    def test_duplicate_appended_last_never_raises(self):
        gts = [(1, (0, 0, 10, 10)), (1, (50, 50, 10, 10))]
        clean = [(1, (0, 0, 10, 10), 0.9)]
        gt1, det1 = scene(gts, clean)
        base = average_precision(gt1, det1, 1)
        gt2, det2 = scene(gts, clean + [(1, (0, 0, 10, 10), 0.3)])
        assert average_precision(gt2, det2, 1) <= base

    def test_differential_against_pr_oracle(self):
        rng = random.Random(13)
        for _ in range(60):
            n_gt = rng.randint(1, 8)
            gts = [(1, (30 * i, 0, 10, 10)) for i in range(n_gt)]
            flags, rows = [], []
            scores = sorted(
                (rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 12))),
                reverse=True,
            )
            hit_pool = list(range(n_gt))
            rng.shuffle(hit_pool)
            for s in scores:
                if hit_pool and rng.random() < 0.6:
                    i = hit_pool.pop()
                    rows.append((1, (30 * i, 0, 10, 10), s))
                    flags.append(True)
                else:
                    rows.append((1, (1000 + 30 * len(rows), 500, 10, 10), s))
                    flags.append(False)
            gt, det = scene(gts, rows)
            ap = average_precision(gt, det, 1)
            assert ap == pytest.approx(oracle_ap(flags, n_gt), abs=1e-12)

    def test_iou_outside_sweep_rejected(self):
        gt, det = scene([(1, (0, 0, 10, 10))], [])
        with pytest.raises(ConfigError):
            average_precision(gt, det, 1, iou_t=0.42)


def iou_06_scene():
    """Every detection overlaps its ground truth at IoU exactly 0.6."""
    gts = [(1, (0, 0, 10, 4)), (1, (50, 0, 10, 4))]
    dets = [(1, (0, 1, 10, 4), 0.9), (1, (50, 1, 10, 4), 0.8)]
    return scene(gts, dets)


class TestMeanAp:
    def test_perfect_detector_all_fields(self):
        gt, det = scene(
            [(1, (0, 0, 40, 40))], [(1, (0, 0, 40, 40), 1.0)]
        )
        fields = mean_ap(gt, det)
        assert fields["map_50_95"] == 1.0
        assert fields["map_50"] == 1.0
        assert fields["map_75"] == 1.0
        assert fields["map_medium"] == 1.0  # 1600 px^2
        assert fields["map_small"] == -1.0
        assert fields["map_large"] == -1.0

    def test_iou_06_sweep(self):
        gt, det = iou_06_scene()
        fields = mean_ap(gt, det)
        assert fields["map_50"] == 1.0
        assert fields["map_75"] == 0.0
        assert fields["map_50_95"] == 0.3

    def test_class_without_ground_truth_excluded_from_mean(self):
        # class 2 has a false positive but no ground truth anywhere: it is
        # excluded from the class mean rather than dragging it down
        gt, det = scene(
            [(1, (0, 0, 10, 10))],
            [(1, (0, 0, 10, 10), 0.9), (2, (50, 50, 10, 10), 0.9)],
        )
        fields = mean_ap(gt, det)
        assert fields["map_50"] == 1.0
        assert average_precision(gt, det, 2) == -1.0

    def test_size_partition_exhaustive(self):
        gt_set, det_set = generate(
            ScenarioConfig(seed=5, image_count=4, gts_per_image=(2, 8),
                           image_size=(256, 256), jitter_px=3, clutter_rate=0.3)
        )
        pools = _match_cells(image_ious(gt_set, det_set, "boxes", 0.5), "boxes")
        for cid in gt_set.label_map.ids():
            total = sum(1 for a in gt_set.annotations if a.class_id == cid)
            parts = 0
            for size in (SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE):
                pool = pools.get(cid)
                parts += pool[3][STRATA.index(size)] if pool else 0
            assert parts == total


class TestMaskMode:
    def test_mask_iou_drives_masks_mode(self):
        # thin diagonal-ish mask inside the same bbox: box IoU is 1.0 but
        # mask IoU is far below 0.5, so only boxes mode scores the hit at 0.5
        from deteval.geometry import InstanceMask

        tall = polygon_from_points([(0, 0), (4, 0), (4, 20), (0, 20)])
        wide = polygon_from_points([(0, 0), (20, 0), (20, 4), (0, 4)])
        img = ImageRecord(1, "a.png", 64, 64)
        ann = Annotation(
            1, 1, 1, BBox(0, 0, 20, 20),
            mask=InstanceMask(polygons=[tall], canvas=(64, 64)), area=80.0,
        )
        det = Detection(
            0, 1, 1, BBox(0, 0, 20, 20), score=0.9,
            mask=InstanceMask(polygons=[wide], canvas=(64, 64)),
        )
        gt_set = GroundTruthSet([img], LABELS, [ann])
        det_set = DetectionSet(LABELS, [det])
        assert average_precision(gt_set, det_set, 1, mode="boxes") == 1.0
        assert average_precision(gt_set, det_set, 1, mode="masks") == 0.0

    def test_fallback_to_box_iou_when_mask_missing(self):
        img = ImageRecord(1, "a.png", 64, 64)
        ann = Annotation(1, 1, 1, BBox(0, 0, 20, 20), area=400.0)
        det = Detection(0, 1, 1, BBox(0, 0, 20, 20), score=0.9)
        gt_set = GroundTruthSet([img], LABELS, [ann])
        det_set = DetectionSet(LABELS, [det])
        assert average_precision(gt_set, det_set, 1, mode="masks") == 1.0


class TestAverageRecall:
    def test_perfect_top1(self):
        # one gt per image, each matched at IoU 1.0 by the top detection
        images = [ImageRecord(1, "a.png", 100, 100), ImageRecord(2, "b.png", 100, 100)]
        anns = [
            Annotation(1, 1, 1, BBox(0, 0, 10, 10), area=100.0),
            Annotation(2, 2, 1, BBox(50, 50, 10, 10), area=100.0),
        ]
        dets = [
            Detection(0, 1, 1, BBox(0, 0, 10, 10), score=0.9),
            Detection(1, 2, 1, BBox(50, 50, 10, 10), score=0.8),
        ]
        gt = GroundTruthSet(images, LABELS, anns)
        det = DetectionSet(LABELS, dets)
        assert average_recall(gt, det, k=1) == 1.0

    def test_iou_06_recall(self):
        gt, det = iou_06_scene()
        assert average_recall(gt, det, k=100) == pytest.approx(0.3)

    def test_no_detections(self):
        gt, det = scene([(1, (0, 0, 10, 10))], [])
        assert average_recall(gt, det, k=100) == 0.0

    def test_k_limits_per_image(self):
        # two gts; the top-scored det is a false positive, so k=1 recalls none
        gt, det = scene(
            [(1, (0, 0, 10, 10)), (1, (50, 50, 10, 10))],
            [
                (1, (200, 200, 10, 10), 0.95),
                (1, (0, 0, 10, 10), 0.9),
                (1, (50, 50, 10, 10), 0.8),
            ],
        )
        assert average_recall(gt, det, k=1) == 0.0
        assert average_recall(gt, det, k=10) == 1.0

    def test_k_validation(self):
        gt, det = scene([(1, (0, 0, 10, 10))], [])
        with pytest.raises(ConfigError):
            average_recall(gt, det, k=0)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_every_entry_point_rejects_cap_below_one(self, cap):
        gt, det = scene([(1, (0, 0, 10, 10))], [(1, (0, 0, 10, 10), 0.9)])
        for call in (
            lambda: average_precision(gt, det, 1, max_dets=cap),
            lambda: mean_ap(gt, det, max_dets=cap),
            lambda: average_recall(gt, det, k=cap),
        ):
            with pytest.raises(ConfigError, match=f"max detections must be >= 1, got {cap}"):
                call()


def reference_class_eval(gt_set, det_set, class_id, iou_t, size_filter, k, mode):
    """Plain-scalar re-derivation of one class's greedy evaluation: returns
    (tp flags in global score order, eligible gt count). Shares only the
    pair-IoU kernel with the evaluator under test."""
    from deteval.oracle import pair_iou

    entries = []
    eligible = 0
    for img_index, img in enumerate(gt_set.images):
        gts = [
            g for g in gt_set.by_image().get(img.image_id, [])
            if g.class_id == class_id
        ]
        dets = [
            d for d in det_set.by_image().get(img.image_id, [])
            if d.class_id == class_id
        ]
        dets = sorted(dets, key=lambda d: (-d.score, d.det_id))[:k]
        ignored = [
            size_filter is not None and size_class(g.area) != size_filter
            for g in gts
        ]
        eligible += sum(1 for f in ignored if not f)
        offer = sorted(range(len(gts)), key=lambda j: (ignored[j], j))
        taken = set()
        for pos, d in enumerate(dets):
            best, best_iou = -1, iou_t
            for j in offer:
                if j in taken:
                    continue
                if best >= 0 and not ignored[best] and ignored[j]:
                    break
                iou = pair_iou(gts[j], d, mode)
                if iou > best_iou or (best < 0 and iou >= best_iou):
                    best, best_iou = j, iou
            if best >= 0:
                taken.add(best)
                kind = "ig" if ignored[best] else "tp"
            else:
                if mode == "masks" and d.mask is not None:
                    d_area = d.mask.area
                else:
                    d_area = d.bbox.area
                outside = size_filter is not None and size_class(d_area) != size_filter
                kind = "ig" if outside else "fp"
            entries.append((-d.score, img_index, pos, kind))
    entries.sort()
    flags = [kind == "tp" for *_rank, kind in entries if kind != "ig"]
    return flags, eligible


class TestEvaluatorDifferential:
    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("size_filter", [None, SizeClass.SMALL, SizeClass.MEDIUM])
    def test_ap_matches_scalar_reference(self, mode, size_filter):
        for seed in range(25):
            gt_set, det_set = generate(
                ScenarioConfig(seed=seed, image_count=3, gts_per_image=(0, 6),
                               jitter_px=5, class_swap_rate=0.3,
                               clutter_rate=0.3, drop_rate=0.2,
                               image_size=(128, 128))
            )
            for cid in gt_set.label_map.ids():
                for iou_t in (0.5, 0.75):
                    flags, eligible = reference_class_eval(
                        gt_set, det_set, cid, iou_t, size_filter, 100, mode
                    )
                    got = average_precision(
                        gt_set, det_set, cid, iou_t=iou_t,
                        size_filter=size_filter, mode=mode,
                    )
                    if eligible == 0:
                        assert got == -1.0
                    else:
                        assert got == pytest.approx(
                            oracle_ap(flags, eligible), abs=1e-12
                        ), (seed, cid, iou_t)

    def test_ar_matches_scalar_reference(self):
        for seed in range(15):
            gt_set, det_set = generate(
                ScenarioConfig(seed=seed, image_count=3, gts_per_image=(1, 6),
                               jitter_px=5, clutter_rate=0.3, drop_rate=0.2,
                               image_size=(128, 128))
            )
            for k in (1, 10, 100):
                per_class = []
                for cid in gt_set.label_map.ids():
                    recalls = []
                    eligible_any = 0
                    for iou_t in IOU_SWEEP:
                        flags, eligible = reference_class_eval(
                            gt_set, det_set, cid, iou_t, None, k, "boxes"
                        )
                        eligible_any = eligible
                        if eligible:
                            recalls.append(sum(flags) / eligible)
                    if eligible_any:
                        per_class.append(np.mean(recalls) if recalls else 0.0)
                expected = float(np.mean(per_class)) if per_class else -1.0
                got = average_recall(gt_set, det_set, k=k)
                assert got == pytest.approx(expected, abs=1e-12), (seed, k)


# every sweep threshold, its neighbours one ulp away, and the extremes, so
# draws tie and land exactly on (or just off) a threshold
EDGE_IOUS = sorted(
    {0.0, 1.0, 0.3}
    | {float(v) for t in IOU_SWEEP for v in (np.nextafter(t, 0), t, np.nextafter(t, 1))}
)
IOUS = st.one_of(st.sampled_from(EDGE_IOUS), st.floats(0.0, 1.0))
# areas on both sides of the 32^2 and 96^2 stratum edges
AREAS = st.sampled_from(
    [4.0, float(np.nextafter(1024.0, 0)), 1024.0, 3000.0, 9215.5, 9216.0, 40000.0]
)
CAPS = (1, 10, 100, 150)


def greedy_cell(ious, gt_ignore, det_outside):
    """Greedy matches of one (image, class) cell under every size filter and
    sweep threshold: :func:`_greedy` on the cell's pairs at or above 0.50.

    ``ious`` is the (D, G) IoU block with detections in score order;
    ``gt_ignore`` (S, G) and ``det_outside`` (S, D) come from
    :func:`outside_strata`. Returns ``(tp, ignored, eligible)``: two
    (S, T, D) flag arrays and the (S,) in-filter ground-truth counts.
    """
    det, gt = np.nonzero(ious >= IOU_SWEEP[0])
    rank = np.arange(ious.shape[0])
    tp, ignored = _greedy(gt, det, ious[det, gt], rank, gt_ignore, det_outside)
    eligible = ious.shape[1] - gt_ignore.sum(axis=1)
    return tp, ignored, eligible


@st.composite
def greedy_cells(draw):
    """(ious as D lists of G values, gt areas, det areas); some cells repeat
    a few drawn rows past 100 detections so the 100 cap binds."""
    n_gt = draw(st.integers(0, 6))
    gt_areas = draw(st.lists(AREAS, min_size=n_gt, max_size=n_gt))
    rows = draw(st.lists(st.lists(IOUS, min_size=n_gt, max_size=n_gt), max_size=12))
    n_det = draw(st.sampled_from([len(rows), len(rows), 130])) if rows else 0
    ious = [rows[i % len(rows)] for i in range(n_det)]
    det_areas = draw(st.lists(AREAS, min_size=n_det, max_size=n_det))
    return ious, gt_areas, det_areas


class TestGreedyCellDifferential:
    """The one-pass matcher against the scalar per-filter, per-threshold,
    per-cap loop it replaced, flag for flag."""

    @settings(max_examples=300, deadline=None)
    @given(cell=greedy_cells())
    # a tie between two in-filter ground truths, both exactly on 0.5
    @example(cell=([[0.5, 0.5], [0.5, 0.5]], [3000.0, 3000.0], [3000.0, 3000.0]))
    # one ulp apart: the later, larger IoU wins, which leaves the second
    # detection nothing at or above 0.75
    @example(cell=([[0.75, float(np.nextafter(0.75, 1))], [0.0, 0.8]],
                   [4.0, 4.0], [4.0, 4.0]))
    # every ground truth ignored under the small and large filters
    @example(cell=([[0.9, 0.6], [0.6, 0.9]], [3000.0, 3000.0], [40000.0, 4.0]))
    # no ground truths, and no detections
    @example(cell=([[], []], [], [4.0, 40000.0]))
    @example(cell=([], [4.0, 1024.0], []))
    def test_matches_scalar_reference(self, cell):
        ious, gt_areas, det_areas = cell
        block = np.array(ious, dtype=float).reshape(len(det_areas), len(gt_areas))
        tp, ignored, eligible = greedy_cell(
            block, outside_strata(gt_areas), outside_strata(det_areas)
        )
        for s, size in enumerate(STRATA):
            for cap in CAPS:
                ref_tp, ref_ignore, ref_eligible = reference_greedy_cell(
                    ious, gt_areas, det_areas, size, cap
                )
                assert np.array_equal(tp[s, :, :cap], ref_tp), (size, cap)
                assert np.array_equal(ignored[s, :, :cap], ref_ignore), (size, cap)
                assert eligible[s] == ref_eligible, size


# detection counts of none, one, a few, and past the 100 cap
DET_COUNTS = (0, 1, 2, 3, 4, 5, 8, 9, 128, 129)


@st.composite
def cell_batches(draw):
    """1 to 4 cells drawn by :func:`greedy_cells`, some stretched or cut to
    another detection count by repeating their drawn rows, so one batch holds
    cells of different D and G."""
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        ious, gt_areas, det_areas = draw(greedy_cells())
        n_det = draw(st.sampled_from((len(det_areas),) + DET_COUNTS))
        if n_det != len(det_areas):
            rows = ious or [draw(st.lists(IOUS, min_size=len(gt_areas),
                                          max_size=len(gt_areas)))]
            ious = [rows[i % len(rows)] for i in range(n_det)]
            det_areas = draw(st.lists(AREAS, min_size=n_det, max_size=n_det))
        batch.append((ious, gt_areas, det_areas))
    return batch


def interleaved(sizes, rng):
    """Disjoint item indices for cells of ``sizes`` items, the cells' items
    shuffled among each other but each cell's kept in order."""
    cell = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    return [np.flatnonzero(cell == b) for b in range(len(sizes))]


class TestGreedyBatchDifferential:
    """A batch of cells through the sparse kernel as one flat pair list, the
    cells' items interleaved under disjoint indices, against the scalar
    per-filter, per-threshold, per-cap loop, cell by cell, flag for flag."""

    @settings(max_examples=150, deadline=None)
    @given(batch=cell_batches(), seed=st.integers(0, 2**16))
    # a tie on 0.5 beside an empty cell, a cell without ground truths and
    # one of 9 detections
    @example(batch=[
        ([[0.5, 0.5], [0.5, 0.5]], [3000.0, 3000.0], [3000.0, 3000.0]),
        ([], [4.0], []),
        ([[], [], []], [], [4.0, 1024.0, 9216.0]),
        ([[0.9, 0.9, 0.6]] * 9, [4.0, 3000.0, 40000.0], [3000.0] * 9),
    ], seed=0)
    # two cells whose first detections tie on IoU between two ground truths:
    # each takes the first, which leaves its cell's second detection unmatched
    @example(batch=[
        ([[0.6, 0.6], [0.6, 0.0]], [3000.0, 3000.0], [3000.0, 3000.0]),
        ([[0.7, 0.7], [0.0, 0.7]], [3000.0, 40000.0], [3000.0, 4.0]),
    ], seed=1)
    def test_every_cell_matches_scalar_reference(self, batch, seed):
        rng = np.random.default_rng(seed)
        gt_at = interleaved([len(gt_areas) for _, gt_areas, _ in batch], rng)
        det_at = interleaved([len(det_areas) for _, _, det_areas in batch], rng)
        n_gt, n_det = sum(map(len, gt_at)), sum(map(len, det_at))
        S = len(STRATA)
        gt_ignore = np.zeros((S, n_gt), dtype=bool)
        det_outside = np.zeros((S, n_det), dtype=bool)
        rank = np.zeros(n_det, dtype=np.int64)
        gt, det, iou = [], [], []
        for (rows, gt_areas, det_areas), g, d in zip(batch, gt_at, det_at):
            gt_ignore[:, g] = outside_strata(gt_areas)
            det_outside[:, d] = outside_strata(det_areas)
            rank[d] = np.arange(d.size)
            block = np.array(rows, dtype=float).reshape(d.size, g.size)
            di, gi = np.nonzero(block >= IOU_SWEEP[0])
            gt.append(g[gi])
            det.append(d[di])
            iou.append(block[di, gi])
        # the kernel sorts the pairs itself
        order = rng.permutation(sum(map(len, iou)))
        gt, det, iou = (np.concatenate(c)[order] for c in (gt, det, iou))
        tp, ignored = _greedy(gt, det, iou, rank, gt_ignore, det_outside)
        assert tp.shape == ignored.shape == (S, len(IOU_SWEEP), n_det)
        for b, ((rows, gt_areas, det_areas), d) in enumerate(zip(batch, det_at)):
            for s, size in enumerate(STRATA):
                for cap in CAPS:
                    ref_tp, ref_ignore, _ = reference_greedy_cell(
                        rows, gt_areas, det_areas, size, cap
                    )
                    n = min(cap, d.size)
                    assert np.array_equal(tp[s][:, d[:n]], ref_tp), (b, size, cap)
                    assert np.array_equal(ignored[s][:, d[:n]], ref_ignore), (b, size, cap)


class TestOutsideStrata:
    def test_edges_agree_with_size_class(self):
        areas = [0.0, float(np.nextafter(1024.0, 0)), 1024.0,
                 float(np.nextafter(9216.0, 0)), 9216.0, 1e12]
        flags = _outside(_strata(areas))
        for s, size in enumerate(STRATA):
            expected = [size is not None and size_class(a) != size for a in areas]
            assert flags[s].tolist() == expected, size


def grid_scene(seed):
    """Integer boxes on a coarse grid, so IoUs tie and hit sweep thresholds
    exactly, with repeated scores; one image carries 130 detections of one
    class, so the 100 cap binds."""
    rng = random.Random(seed)
    labels = LabelMap([(1, "a"), (2, "b")])
    images = [ImageRecord(i, "x.png", 200, 200) for i in (3, 1, 2)]
    anns, dets = [], []
    for img in images:
        for _ in range(rng.randint(0, 8)):
            box = BBox(rng.randint(0, 3) * 4, rng.randint(0, 3) * 4,
                       rng.choice([4, 8, 32, 33, 96, 100]), rng.choice([4, 8, 32, 96]))
            anns.append(Annotation(len(anns) + 1, img.image_id, rng.randint(1, 2),
                                   box, area=box.area))
        crowd = img.image_id == 2
        for _ in range(130 if crowd else rng.randint(0, 14)):
            box = BBox(rng.randint(0, 3) * 4, rng.randint(0, 3) * 4,
                       rng.choice([4, 8, 32, 64, 96]), rng.choice([4, 8, 32, 64, 96]))
            dets.append(Detection(len(dets), img.image_id,
                                  1 if crowd else rng.randint(1, 2), box,
                                  score=rng.choice([0.3, 0.5, 0.9])))
    return GroundTruthSet(images, labels, anns), DetectionSet(labels, dets)


def bucket_scene(seed):
    """Fourteen images, in shuffled id order, whose (image, class) cells hold
    from 0 to 33 detections, so the cells' detection counts span seven powers
    of two; grid boxes and repeated scores make IoUs and scores tie."""
    rng = random.Random(seed)
    labels = LabelMap([(1, "a"), (2, "b")])
    images = [ImageRecord(i, "x.png", 200, 200) for i in rng.sample(range(1, 50), 14)]
    anns, dets = [], []
    for k, img in enumerate(images):
        for cid in (1, 2):
            for _ in range(rng.randint(0, 5)):
                box = BBox(rng.randint(0, 3) * 4, rng.randint(0, 3) * 4,
                           rng.choice([4, 8, 32, 33, 96]), rng.choice([4, 8, 32, 96]))
                anns.append(Annotation(len(anns) + 1, img.image_id, cid, box,
                                       area=box.area))
            for _ in range((0, 1, 2, 3, 5, 8, 9, 17, 33)[(k + cid) % 9]):
                box = BBox(rng.randint(0, 3) * 4, rng.randint(0, 3) * 4,
                           rng.choice([4, 8, 32, 64, 96]), rng.choice([4, 8, 32, 96]))
                dets.append(Detection(len(dets), img.image_id, cid, box,
                                      score=rng.choice([0.3, 0.5, 0.9])))
    return GroundTruthSet(images, labels, anns), DetectionSet(labels, dets)


class TestPooledDifferential:
    """Pooling, prefix caps and the vectorized interpolation against the
    per-class, per-filter, per-cap scalar rebuild, bit for bit."""

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_accumulations_equal_reference(self, mode):
        for seed in range(6):
            scenes = [generate(
                ScenarioConfig(seed=seed, image_count=3, gts_per_image=(0, 10),
                               jitter_px=6, class_swap_rate=0.3, clutter_rate=0.5,
                               drop_rate=0.2, image_size=(160, 160))
            )]
            if mode == "boxes":
                scenes.append(grid_scene(seed))
            for gt_set, det_set in scenes:
                pools = _match_cells(image_ious(gt_set, det_set, mode, 0.5), mode)
                for cid in gt_set.label_map.ids():
                    for size in STRATA:
                        for cap in (1, 2) + CAPS:
                            got = _curves(pools.get(cid), STRATA.index(size), cap)
                            ref = reference_accumulate(
                                gt_set, det_set, cid, size, cap, mode
                            )
                            if ref is None:
                                assert got is None
                                continue
                            assert np.array_equal(got[0], ref[0])
                            assert np.array_equal(got[1], ref[1])
                            assert pools[cid][3][STRATA.index(size)] == ref[2]

    def test_cells_of_many_buckets_equal_reference(self):
        for seed in range(3):
            gt_set, det_set = bucket_scene(seed)
            counts = Counter((d.image_id, d.class_id) for d in det_set.detections)
            assert len({(n - 1).bit_length() for n in counts.values()}) >= 4
            pools = _match_cells(image_ious(gt_set, det_set, "boxes", 0.5), "boxes")
            for cid in gt_set.label_map.ids():
                for size in STRATA:
                    for cap in (1, 2, 10, 100):
                        got = _curves(pools.get(cid), STRATA.index(size), cap)
                        ref = reference_accumulate(
                            gt_set, det_set, cid, size, cap, "boxes"
                        )
                        if ref is None:
                            assert got is None
                            continue
                        assert np.array_equal(got[0], ref[0]), (seed, cid, size, cap)
                        assert np.array_equal(got[1], ref[1]), (seed, cid, size, cap)
                        assert pools[cid][3][STRATA.index(size)] == ref[2]


class TestGreedyVsOracleMonotonicity:
    def test_ap75_below_ap50_when_greedy_is_optimal(self):
        hits = 0
        for seed in range(80):
            gt_set, det_set = generate(
                ScenarioConfig(seed=seed, gts_per_image=(1, 5), jitter_px=4,
                               clutter_rate=0.2, drop_rate=0.2)
            )
            img = gt_set.images[0].image_id
            gts = gt_set.by_image()[img]
            dets = det_set.by_image().get(img, [])
            for cid in gt_set.label_map.ids():
                cgts = [g for g in gts if g.class_id == cid]
                cdets = [d for d in dets if d.class_id == cid]
                if not cgts or len(cgts) > 12 or len(cdets) > 12:
                    continue
                pool = _match_cells(image_ious(gt_set, det_set, "boxes", 0.5), "boxes")[cid]
                precision, final_recall = _curves(pool, 0, 100)
                eligible = pool[3][0]
                tp50 = round(final_recall[IOU_SWEEP.index(0.5)] * eligible)
                tp75 = round(final_recall[IOU_SWEEP.index(0.75)] * eligible)
                if tp50 == max_matching(cgts, cdets, 0.5, class_constrained=True) and (
                    tp75 == max_matching(cgts, cdets, 0.75, class_constrained=True)
                ):
                    hits += 1
                    per_t = precision.mean(axis=1)
                    assert per_t[IOU_SWEEP.index(0.75)] <= per_t[IOU_SWEEP.index(0.5)]
        assert hits > 50  # the conditional check must actually exercise


class TestFullReport:
    def test_empty_detections(self):
        gt, _ = scene([(1, (0, 0, 10, 10)), (2, (30, 30, 10, 10))], [])
        report, cm = full_report(gt, DetectionSet(LABELS, []), Thresholds())
        assert cm.counts[:, -1].sum() == 2
        assert cm.counts.sum() == 2
        assert report.aggregates["map_50"] == 0.0
        assert report.aggregates["ar_100"] == 0.0

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_public_helpers_equal_report_fields(self, mode):
        strata = (SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE)
        seen = set()
        for seed in range(3):
            gt_set, det_set = generate(
                ScenarioConfig(seed=seed, image_count=4, gts_per_image=(0, 14),
                               jitter_px=6, class_swap_rate=0.3, clutter_rate=0.5,
                               drop_rate=0.2, image_size=(320, 320))
            )
            report, _ = full_report(gt_set, det_set, Thresholds(geometry_mode=mode))
            fields = report.aggregates
            maps = mean_ap(gt_set, det_set, mode=mode)
            assert maps == {key: fields[key] for key in maps}
            assert len(maps) == 6
            for k in (1, 10, 100):
                assert average_recall(gt_set, det_set, k, mode=mode) == fields[f"ar_{k}"]
            for size in strata:
                got = average_recall(gt_set, det_set, 100, size, mode=mode)
                assert got == fields[f"ar_100_{size.value}"]
                if got != -1.0:
                    seen.add(size)
        assert seen == set(strata)  # every size filter has an eligible class

    def test_unknown_image_raises_in_every_entry_point(self):
        # a detection on an image the ground truth lacks is an error, not a
        # detection to drop: dropped, it would leave the helpers a perfect 1.0
        gt, det = scene([(1, (0, 0, 10, 10))], [(1, (0, 0, 10, 10), 0.9)])
        stray = Detection(1, 99, 1, BBox(0, 0, 10, 10), score=0.9)
        det = DetectionSet(LABELS, [*det.detections, stray])
        calls = [
            lambda: match_dataset(gt, det, Thresholds(), "modified"),
            lambda: full_report(gt, det, Thresholds()),
            lambda: mean_ap(gt, det),
            lambda: average_recall(gt, det, 100),
            lambda: average_precision(gt, det, 1),
        ]
        for call in calls:
            with pytest.raises(MissingReferenceError, match="unknown image_id 99"):
                call()

    def test_road_label_order(self):
        labels = road_labels()
        img = ImageRecord(1, "a.png", 100, 100)
        anns = [
            Annotation(i + 1, 1, cid, BBox(10 * i, 0, 8, 8), area=64.0)
            for i, cid in enumerate(labels.ids())
        ]
        gt = GroundTruthSet([img], labels, anns)
        report, _ = full_report(gt, DetectionSet(labels, []), Thresholds())
        assert [m.class_id for m in report.per_class] == list(labels.ids())

    def test_algorithms_share_ap_ar_fields(self):
        gt_set, det_set = generate(
            ScenarioConfig(seed=9, image_count=3, jitter_px=5,
                           class_swap_rate=0.4, clutter_rate=0.3)
        )
        conv, _ = full_report(gt_set, det_set, Thresholds(), "conventional")
        mod, _ = full_report(gt_set, det_set, Thresholds(), "modified")
        assert conv.aggregates == mod.aggregates

    def test_per_class_can_differ_between_algorithms(self):
        g = Annotation(1, 1, 1, BBox(0, 0, 10, 10), area=100.0)
        d1 = Detection(0, 1, 2, BBox(0, 0, 10, 9), score=0.9)
        d2 = Detection(1, 1, 1, BBox(0, 0, 10, 6), score=0.9)
        img = ImageRecord(1, "a.png", 100, 100)
        gt = GroundTruthSet([img], LABELS, [g])
        det = DetectionSet(LABELS, [d1, d2])
        conv, cm_conv = full_report(gt, det, Thresholds(), "conventional")
        mod, cm_mod = full_report(gt, det, Thresholds(), "modified")
        assert cm_conv.diagonal(1) == 0
        assert cm_mod.diagonal(1) == 1
        assert conv.per_class[0].recall_at_05 == 0.0
        assert mod.per_class[0].recall_at_05 == 1.0

    def test_mask_fallback_counter(self):
        gt_set, det_set = generate(ScenarioConfig(seed=1, gts_per_image=(2, 2)))
        stripped = DetectionSet(
            det_set.label_map,
            [
                Detection(d.det_id, d.image_id, d.class_id, d.bbox, d.score, mask=None)
                for d in det_set.detections
            ],
        )
        report, _ = full_report(
            gt_set, stripped, Thresholds(geometry_mode="masks")
        )
        assert report.mask_fallback_items == len(stripped.detections)

    def test_boxes_mode_reports_no_fallbacks(self):
        gt_set, det_set = generate(ScenarioConfig(seed=1))
        report, _ = full_report(gt_set, det_set, Thresholds())
        assert report.mask_fallback_items == 0
