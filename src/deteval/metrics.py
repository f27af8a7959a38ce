"""Per-class precision/recall and the aggregate AP/AR index suite.

Per-class precision and recall at the matching thresholds come straight from
a confusion matrix (precision = diagonal / column sum, recall = diagonal /
row sum). The twelve aggregate indices follow the COCO evaluation
conventions: greedy per-class score-ordered matching, a ten-threshold IoU
sweep (0.50:0.05:0.95), 101-point interpolated average precision, size
stratification with ignore-region semantics, and -1 as the "no eligible
ground truth" sentinel. The aggregates never consult the confusion-matrix
algorithms, so conventional and modified runs report identical AP/AR.

Each (image, class) cell is matched once, under all four size filters and
all ten thresholds at once; the filters differ only in what they ignore, so
they share the cell's pairs. Those are the same-class pairs at or above 0.50,
at any score, from the pair table that the confusion-matrix matchers read,
and all cells step together: step k matches the detection of rank k in every
cell. The match applies no detection cap: a detection's match depends only on
the detections ranked above it in its cell, so the matches under a cap of k
are the first k steps, and every cap is a prefix. One sort pools the cells of
every class in global score order, and each index takes its filter and its
cap's prefix from its class's pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotations import DetectionSet, GroundTruthSet
from .errors import ConfigError
from .matching import ConfusionMatrix, Thresholds, image_ious, match_images
from .geometry import MEDIUM_AREA_MAX, SMALL_AREA_MAX, SizeClass

IOU_SWEEP = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
NO_GT = -1.0
# size filters in the order of the pass's first axis; None keeps everything
STRATA = (None, SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE)

# the twelve aggregate indices in report order: (key, kind, sweep index or
# None for the mean over the sweep, size filter, cap, class-metrics CSV label)
AGGREGATES = (
    ("map_50_95", "ap", None, None, 100, "Precision mAP"),
    ("map_50", "ap", IOU_SWEEP.index(0.5), None, 100, "Precision mAP@.50IOU"),
    ("map_75", "ap", IOU_SWEEP.index(0.75), None, 100, "Precision mAP@.75IOU"),
    ("map_small", "ap", None, SizeClass.SMALL, 100, "Precision mAP (small)"),
    ("map_medium", "ap", None, SizeClass.MEDIUM, 100, "Precision mAP (medium)"),
    ("map_large", "ap", None, SizeClass.LARGE, 100, "Precision mAP (large)"),
    ("ar_1", "ar", None, None, 1, "Recall AR@1"),
    ("ar_10", "ar", None, None, 10, "Recall AR@10"),
    ("ar_100", "ar", None, None, 100, "Recall AR@100"),
    ("ar_100_small", "ar", None, SizeClass.SMALL, 100, "Recall AR@100 (small)"),
    ("ar_100_medium", "ar", None, SizeClass.MEDIUM, 100, "Recall AR@100 (medium)"),
    ("ar_100_large", "ar", None, SizeClass.LARGE, 100, "Recall AR@100 (large)"),
)

_SWEEP = np.array(IOU_SWEEP)


@dataclass(frozen=True)
class PerClassMetrics:
    class_id: int
    precision_at_05: float
    recall_at_05: float
    support_gt: int
    support_det: int
    precision_undefined: bool = False
    recall_undefined: bool = False


def precision_recall(cm: ConfusionMatrix) -> list[PerClassMetrics]:
    """Per-class precision and recall from a confusion matrix.

    Zero-denominator cases report 0.0 and set the corresponding flag.
    """
    out = []
    for cid, _name in cm.labels.entries:
        diag = cm.diagonal(cid)
        row = cm.row_sum(cid)
        col = cm.col_sum(cid)
        out.append(
            PerClassMetrics(
                class_id=cid,
                precision_at_05=diag / col if col else 0.0,
                recall_at_05=diag / row if row else 0.0,
                support_gt=row,
                support_det=col,
                precision_undefined=col == 0,
                recall_undefined=row == 0,
            )
        )
    return out


def _strata(areas) -> np.ndarray:
    """Each area's size filter, as its index in :data:`STRATA` (1, 2 or 3), in closed-open
    bins as the scalar reference ``oracle.size_class`` takes them."""
    edges = (SMALL_AREA_MAX, MEDIUM_AREA_MAX)
    return np.searchsorted(edges, np.asarray(areas, dtype=float), side="right") + 1


def _outside(codes) -> np.ndarray:
    """(S, n) flags from (n,) stratum codes: True where an item falls outside
    each filter; nothing falls outside the first, which keeps all."""
    outside = codes != np.arange(len(STRATA))[:, None]
    outside[0] = False
    return outside


def _greedy(gt, det, iou, rank, gt_ignore, det_outside):
    """Greedy matches of every (image, class) cell from its candidate pairs:
    ground truth ``gt`` and detection ``det`` of one cell, with their ``iou``
    at or above the lowest threshold. ``rank`` is each detection's position
    in its cell's score order; ``gt_ignore`` is (S, n_gt) and ``det_outside``
    (S, n_det).

    Step k matches every detection of rank k under all filters and thresholds
    at once: a ground truth meets only its own cell's detections, and a cell
    has one detection of each rank, so none of them compete. Each detection
    takes the first highest-IoU free in-filter ground truth at or above the
    threshold; only when there is none does it take the first highest-IoU
    free ignored one. Ignored matches, and unmatched detections outside the
    filter, count as ignored. Returns ``(tp, ignored)``, two (S, T, n_det)
    flag arrays.
    """
    order = np.lexsort((gt, -iou, det, rank[det]))
    gt, det, iou = gt[order], det[order], iou[order]
    # each detection's pairs are a run between two bounds; a pair's key is
    # its position in the run, plus n when its ground truth is ignored
    bounds = np.flatnonzero(np.diff(det, prepend=-1, append=-1))
    sizes = np.diff(bounds)
    n = int(sizes.max(initial=0))
    key = np.arange(det.size) - np.repeat(bounds[:-1], sizes) + n * gt_ignore[:, gt]
    key = key.astype(np.min_scalar_type(2 * n))  # (S, P)
    # the runs of each step
    steps = np.flatnonzero(np.diff(rank[det[bounds[:-1]]], prepend=-1, append=-1))
    tp = np.zeros((len(STRATA), len(IOU_SWEEP), rank.size), dtype=bool)
    # unmatched means ignored exactly when the detection is outside the filter
    ignored = np.repeat(det_outside[:, None], len(IOU_SWEEP), axis=1)
    free = np.ones((len(STRATA), len(IOU_SWEEP), gt_ignore.shape[1]), dtype=bool)
    for a, b in zip(steps[:-1], steps[1:]):
        lo, hi = bounds[a], bounds[b]
        g, runs = gt[lo:hi], bounds[a:b] - lo
        over = iou[lo:hi] >= _SWEEP[:, None]  # (T, P_k)
        choice = np.where(over & free[:, :, g], key[:, None, lo:hi], 2 * n)
        best = np.minimum.reduceat(choice, runs, axis=2)  # (S, T, D_k)
        got, hit = best < n, best < 2 * n
        # keys are distinct within a run, and a step holds each ground truth
        # at most once
        won = (choice == np.repeat(best, sizes[a:b], axis=2)) & (choice < 2 * n)
        free[:, :, g] &= ~won
        d = det[lo + runs]
        tp[:, :, d] = got
        ignored[:, :, d] = ~got & (hit | ignored[:, :, d])
    return tp, ignored


def _interpolate(recall, envelope) -> np.ndarray:
    """101-point samples of each threshold's precision envelope, taken at
    the first position whose recall reaches the recall point (0 past the end)."""
    T, n = recall.shape
    if not n:
        return np.zeros((T, RECALL_POINTS.size))
    idx = np.array([np.searchsorted(r, RECALL_POINTS, side="left") for r in recall])
    picked = np.take_along_axis(envelope, np.minimum(idx, n - 1), axis=1)
    return np.where(idx < n, picked, 0.0)


def _match_cells(table) -> dict:
    """Match every (image, class) cell of a :func:`image_ious` table, at a
    floor no higher than 0.50, in one :func:`_greedy` pass over its
    same-class pairs at or above 0.50, and pool each class's cells in global
    score order: score, then image id, then rank in the cell.

    Maps each class id with a ground truth or detection to its pool
    ``(rank, tp, ignored, eligible)``: each pooled detection's position in its
    cell (N,), the (S, T, N) flags and the (S,) in-filter ground-truth counts.
    Raises for a table that lacks the same-class cells of some detections.
    """
    if not (table.same_class or table.conf == -np.inf):
        raise ConfigError("the AP/AR suite reads every same-class pair; the pair table "
                          f"holds none of a detection scoring below {table.conf}")
    S = len(STRATA)
    classes, class_index = np.unique(
        np.append(table.gt_class, table.det_class), return_inverse=True
    )
    K = classes.size
    gt_class, det_class = np.split(class_index, [table.gt_class.size])
    gt_code = _strata(table.gt_items.values[table.gt_item])
    eligible = np.bincount(gt_class * S + gt_code, minlength=K * S).reshape(K, S)
    eligible[:, 0] = eligible.sum(axis=1)
    # a detection's area is its box's, or in a masks-mode table its mask's
    boxes = table.det_items.boxes[table.det_item]
    with np.errstate(over="ignore"):  # to inf, as in the scalar float arithmetic
        det_area = boxes[:, 2] * boxes[:, 3]
    if table.mode == "masks":
        masked = table.det_items.has_mask[table.det_item]
        det_area[masked] = table.det_items.masks.areas(table.det_item[masked])
    det_code = _strata(det_area)
    # each detection's rank in its cell, by score, then det_id
    det_image = np.repeat(np.arange(len(table.n_dets)), table.n_dets)
    d_order = np.lexsort((table.det_id, -table.score, det_class, det_image))
    det_key = (det_image * K + det_class)[d_order]
    rank = np.empty_like(d_order)
    rank[d_order] = np.arange(det_key.size) - np.searchsorted(det_key, det_key)
    # the same-class pairs that a sweep threshold can match
    pair = (gt_class[table.gt] == det_class[table.det]) & (table.iou >= _SWEEP[0])
    tp, ignored = _greedy(table.gt[pair], table.det[pair], table.iou[pair], rank,
                          _outside(gt_code), _outside(det_code))

    # one sort pools every class: class, then score, image id and rank
    image_id = np.array(table.image_id, dtype=np.int64)[det_image]
    order = np.lexsort((rank, image_id, -table.score, det_class))
    bounds = np.searchsorted(det_class[order], np.arange(K + 1))
    rank, tp, ignored = rank[order], tp.take(order, axis=2), ignored.take(order, axis=2)
    return {
        int(cid): (rank[lo:hi], tp[:, :, lo:hi], ignored[:, :, lo:hi], eligible[k])
        for k, (cid, lo, hi) in enumerate(zip(classes, bounds[:-1], bounds[1:]))
    }


def _curves(pool, s, max_dets) -> tuple[np.ndarray, np.ndarray] | None:
    """One class's ``(precision, final_recall)`` under size filter ``s``, from
    the pool's detections ranked below ``max_dets`` in their cell: the (T, 101)
    interpolated precision samples and the (T,) recall with every capped
    detection used. None when the class has no pool or no eligible ground
    truth under the filter."""
    if pool is None or not pool[3][s]:
        return None
    rank, tp, ignored, eligible = pool
    keep = rank < max_dets
    tp, ignored = tp[s][:, keep], ignored[s][:, keep]

    counted = ~ignored
    tp_cum = np.cumsum(tp & counted, axis=1).astype(float)
    fp_cum = np.cumsum(~tp & counted, axis=1).astype(float)
    recall = tp_cum / eligible[s]
    denom = tp_cum + fp_cum
    with np.errstate(invalid="ignore", divide="ignore"):
        prec = np.where(denom > 0, tp_cum / denom, 0.0)
    envelope = np.maximum.accumulate(prec[:, ::-1], axis=1)[:, ::-1]
    final_recall = recall[:, -1] if recall.shape[1] else np.zeros(len(IOU_SWEEP))
    return _interpolate(recall, envelope), final_recall


def _aggregates(table, class_ids, specs) -> dict:
    """The value of each spec, a row in the form of :data:`AGGREGATES`, by
    key, over a :func:`image_ious` ``table``.

    A value is the mean, over the classes ``class_ids`` in sorted id order
    that have an eligible ground truth, of each class's AP (at one threshold,
    or over the sweep) or AR; -1 when no class has one. The cells are matched
    once per call, and each (class, filter, cap) curve is computed once."""
    for *_, cap, _label in specs:
        if cap < 1:
            raise ConfigError(f"max detections must be >= 1, got {cap}")
    pools = _match_cells(table)
    curves: dict = {}
    out = {}
    for key, kind, t_index, size, cap, _label in specs:
        values = []
        for cid in sorted(class_ids):
            if (cid, size, cap) not in curves:
                curves[cid, size, cap] = _curves(
                    pools.get(cid), STRATA.index(size), cap
                )
            curve = curves[cid, size, cap]
            if curve is None:
                continue
            precision, final_recall = curve
            if kind == "ar":
                values.append(float(final_recall.mean()))
                continue
            per_t = precision.mean(axis=1)
            values.append(float(per_t.mean() if t_index is None else per_t[t_index]))
        out[key] = float(np.mean(values)) if values else NO_GT
    return out


def average_precision(
    gt_set,
    det_set,
    class_id: int,
    iou_t: float = 0.5,
    size_filter: SizeClass | None = None,
    max_dets: int = 100,
    mode: str = "boxes",
) -> float:
    """101-point interpolated AP for one class; -1 when no eligible ground
    truth exists. ``iou_t`` must be one of the sweep thresholds."""
    if iou_t not in IOU_SWEEP:
        raise ConfigError(f"iou_t must be one of {IOU_SWEEP}, got {iou_t}")
    spec = ("ap", "ap", IOU_SWEEP.index(iou_t), size_filter, max_dets, None)
    table = image_ious(gt_set, det_set, mode, IOU_SWEEP[0], np.inf)
    return _aggregates(table, [class_id], [spec])["ap"]


def average_recall(
    gt_set,
    det_set,
    k: int,
    size_filter: SizeClass | None = None,
    mode: str = "boxes",
) -> float:
    """Recall averaged over the IoU sweep and over classes, allowing at most
    the top-k detections per image and class; -1 when nothing is eligible."""
    spec = ("ar", "ar", None, size_filter, k, None)
    table = image_ious(gt_set, det_set, mode, IOU_SWEEP[0], np.inf)
    return _aggregates(table, gt_set.label_map.ids(), [spec])["ar"]


def mean_ap(gt_set, det_set, mode: str = "boxes", max_dets: int = 100) -> dict:
    """The six mAP fields: the full sweep, fixed 0.50 and 0.75, and the three
    size-stratified sweeps."""
    specs = [
        (key, kind, t_index, size, max_dets, label)
        for key, kind, t_index, size, _cap, label in AGGREGATES
        if kind == "ap"
    ]
    table = image_ious(gt_set, det_set, mode, IOU_SWEEP[0], np.inf)
    return _aggregates(table, gt_set.label_map.ids(), specs)


@dataclass
class MetricsReport:
    per_class: list[PerClassMetrics]
    # the twelve aggregate indices by key, in AGGREGATES order
    aggregates: dict[str, float]
    geometry_mode: str
    algorithm: str
    mask_fallback_items: int = 0


def full_report(
    gt_set: GroundTruthSet,
    det_set: DetectionSet,
    thresholds: Thresholds,
    algorithm: str = "conventional",
) -> tuple[MetricsReport, ConfusionMatrix]:
    """Confusion matrix plus per-class P/R from the selected algorithm, and
    the algorithm-independent AP/AR aggregate suite, for one geometry mode.
    One pair table, at the lowest threshold either reads, serves both: it
    holds the cells at or above the confidence threshold, which the matcher
    reads, and the same-class cells at any score, which the suite reads."""
    mode = thresholds.geometry_mode
    table = image_ious(gt_set, det_set, mode, min(thresholds.iou_threshold, IOU_SWEEP[0]),
                       thresholds.confidence_threshold)
    _, cm = match_images(table, gt_set.label_map, thresholds, algorithm)
    # in masks mode, the items without a mask fall back to their boxes
    fallback = sum(int(np.count_nonzero(~s.items.has_mask)) for s in (gt_set, det_set))
    report = MetricsReport(
        per_class=precision_recall(cm),
        aggregates=_aggregates(table, gt_set.label_map.ids(), AGGREGATES),
        geometry_mode=mode,
        algorithm=algorithm,
        mask_fallback_items=fallback if mode == "masks" else 0,
    )
    return report, cm
