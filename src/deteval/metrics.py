"""Per-class precision/recall and the aggregate AP/AR index suite.

Per-class precision and recall at the matching thresholds come straight from
a confusion matrix (precision = diagonal / column sum, recall = diagonal /
row sum). The twelve aggregate indices follow the COCO evaluation
conventions: greedy per-class score-ordered matching, a ten-threshold IoU
sweep (0.50:0.05:0.95), 101-point interpolated average precision, size
stratification with ignore-region semantics, and -1 as the "no eligible
ground truth" sentinel. The aggregates never consult the confusion-matrix
algorithms, so conventional and modified runs report identical AP/AR.

Each (image, class) cell is matched once, in one pass over its detections
in score order. Each step matches one detection under all four size filters
and all ten thresholds at once, against a (filter, threshold, ground truth)
array of the ground truths still free; the filters differ only in what they
ignore, so they share the cell's IoU block, sliced from the image's matrix
that the confusion-matrix matchers read. The pass applies no detection
cap: a detection's match depends only on the detections ranked above it in
its cell, so the matches under a cap of k are the pass's first k steps, and
every cap is a prefix. Each class's cells are pooled once in global score
order, and each index takes its filter and its cap's prefix from the pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotations import DetectionSet, GroundTruthSet
from .errors import ConfigError
from .matching import ConfusionMatrix, Thresholds, image_ious, match_images
from .geometry import SizeClass, size_class

IOU_SWEEP = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
NO_GT = -1.0
# size filters in the order of the pass's first axis; None keeps everything
STRATA = (None, SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE)

# the twelve aggregate indices in report order:
# (key, kind, sweep index or None for the mean over the sweep, size filter, cap)
AGGREGATES = (
    ("map_50_95", "ap", None, None, 100),
    ("map_50", "ap", IOU_SWEEP.index(0.5), None, 100),
    ("map_75", "ap", IOU_SWEEP.index(0.75), None, 100),
    ("map_small", "ap", None, SizeClass.SMALL, 100),
    ("map_medium", "ap", None, SizeClass.MEDIUM, 100),
    ("map_large", "ap", None, SizeClass.LARGE, 100),
    ("ar_1", "ar", None, None, 1),
    ("ar_10", "ar", None, None, 10),
    ("ar_100", "ar", None, None, 100),
    ("ar_100_small", "ar", None, SizeClass.SMALL, 100),
    ("ar_100_medium", "ar", None, SizeClass.MEDIUM, 100),
    ("ar_100_large", "ar", None, SizeClass.LARGE, 100),
)

_SWEEP = np.array(IOU_SWEEP)
_STRATUM_INDEX = {size: s for s, size in enumerate(STRATA)}


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


def outside_strata(areas) -> np.ndarray:
    """(S, n) flags: True where an item's area falls outside each filter."""
    codes = np.array([_STRATUM_INDEX[size_class(a)] for a in areas], dtype=np.int64)
    outside = codes[None, :] != np.arange(len(STRATA))[:, None]
    outside[0] = False
    return outside


def greedy_cell(ious, gt_ignore, det_outside):
    """Greedy matches of one (image, class) cell under every size filter and
    sweep threshold, in one pass over its detections.

    ``ious`` is the (D, G) IoU block with detections in score order;
    ``gt_ignore`` (S, G) and ``det_outside`` (S, D) come from
    :func:`outside_strata`. Each detection takes the first highest-IoU free
    in-filter ground truth at or above the threshold; only when there is none
    does it take the first highest-IoU free ignored one. Ignored matches, and
    unmatched detections outside the filter, count as ignored. Returns
    ``(tp, ignored, eligible)``: two (S, T, D) flag arrays and the (S,)
    in-filter ground-truth counts.
    """
    (D, G), S, T = ious.shape, len(gt_ignore), len(IOU_SWEEP)
    eligible = G - gt_ignore.sum(axis=1)
    # filled detection by detection, (D, S, T); unmatched means ignored
    # exactly when the detection is outside the filter
    tp = np.zeros((D, S, T), dtype=bool)
    ignored = np.repeat(det_outside.T[:, :, None], T, axis=2)
    over = ious[:, None, :] >= _SWEEP[:, None]  # (D, T, G)
    free = np.ones((S, T, G), dtype=bool)
    gt_ignore = gt_ignore[:, None, :]
    in_filter = ~gt_ignore
    # a detection with no ground truth at the lowest threshold stays unmatched
    for i in np.flatnonzero(over[:, 0].any(axis=1)):
        open_ = over[i] & free
        keep = open_ & in_filter
        spare = open_ & gt_ignore
        got = keep.any(axis=2)
        spare_any = spare.any(axis=2)
        best = np.where(keep, ious[i], -1.0).argmax(axis=2)
        best_ignored = np.where(spare, ious[i], -1.0).argmax(axis=2)
        j = np.where(got, best, best_ignored)
        hit = got | spare_any
        s_hit, t_hit = np.nonzero(hit)
        free[s_hit, t_hit, j[hit]] = False
        tp[i] = got
        ignored[i] = ~got & (spare_any | ignored[i])
    return tp.transpose(1, 2, 0), ignored.transpose(1, 2, 0), eligible


def _interpolate(recall, envelope) -> np.ndarray:
    """101-point samples of each threshold's precision envelope, taken at
    the first position whose recall reaches the recall point (0 past the end).

    A stable sort of the recall points placed ahead of a row's recalls puts
    each point after exactly the recalls below it, which is what a per-row
    ``searchsorted(..., side="left")`` counts; no value is altered.
    """
    T, n = recall.shape
    P = RECALL_POINTS.size
    if not n:
        return np.zeros((T, P))
    merged = np.concatenate([np.broadcast_to(RECALL_POINTS, (T, P)), recall], axis=1)
    rank = np.argsort(np.argsort(merged, axis=1, kind="stable"), axis=1)
    idx = rank[:, :P] - np.arange(P)
    picked = np.take_along_axis(envelope, np.minimum(idx, n - 1), axis=1)
    return np.where(idx < n, picked, 0.0)


def _match_cells(table, mode: str) -> dict:
    """Match every (image, class) cell of the :func:`image_ious` rows once
    and pool each class's cells in global score order: score, then image id,
    then rank in the cell.

    Maps each class id with a ground truth or detection to its pool
    ``(rank, tp, ignored, eligible)``: each pooled detection's position in its
    cell (N,), the (S, T, N) flags and the (S,) in-filter ground-truth counts.
    """
    parts: dict[int, list] = {}
    for image_id, gts, dets, ious in table:
        gt_ignore = outside_strata([g.area for g in gts])
        det_outside = outside_strata([
            d.mask.area if mode == "masks" and d.mask is not None else d.bbox.area
            for d in dets
        ])
        by_score = sorted(
            range(len(dets)), key=lambda j: (-dets[j].score, dets[j].det_id)
        )
        # a cell's rows stay in load order and its columns go in score order
        for cid in sorted({x.class_id for x in (*gts, *dets)}):
            rows = [i for i, g in enumerate(gts) if g.class_id == cid]
            cols = [j for j in by_score if dets[j].class_id == cid]
            block = ious.take(rows, 0).take(cols, 1).T
            ignore, outside = gt_ignore.take(rows, 1), det_outside.take(cols, 1)
            cell = greedy_cell(block, ignore, outside)
            scores = np.array([dets[j].score for j in cols], dtype=float)
            parts.setdefault(cid, []).append((scores, image_id) + cell)

    pools = {}
    for cid, cells in parts.items():
        scores = np.concatenate([c[0] for c in cells])
        img_ids = np.concatenate([np.full(c[0].size, c[1]) for c in cells])
        rank = np.concatenate([np.arange(c[0].size) for c in cells])
        order = np.lexsort((rank, img_ids, -scores))
        pools[cid] = (
            rank[order],
            np.concatenate([c[2] for c in cells], axis=2)[:, :, order],
            np.concatenate([c[3] for c in cells], axis=2)[:, :, order],
            sum(c[4] for c in cells),
        )
    return pools


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


def _aggregates(table, mode, class_ids, specs) -> dict:
    """The value of each ``(key, kind, sweep index, size filter, cap)`` spec,
    in the form of :data:`AGGREGATES`, by key, over the :func:`image_ious`
    rows ``table``.

    A value is the mean, over the classes ``class_ids`` with an eligible
    ground truth, of each class's AP (at one threshold, or over the sweep) or
    AR; -1 when no class has one. The cells are matched once per call, and
    each (class, filter, cap) curve is computed once."""
    pools = _match_cells(table, mode)
    curves: dict = {}
    out = {}
    for key, kind, t_index, size, cap in specs:
        values = []
        for cid in class_ids:
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
    spec = ("ap", "ap", IOU_SWEEP.index(iou_t), size_filter, max_dets)
    table = image_ious(gt_set, det_set, mode)
    return _aggregates(table, mode, [class_id], [spec])["ap"]


def average_recall(
    gt_set,
    det_set,
    k: int,
    size_filter: SizeClass | None = None,
    mode: str = "boxes",
) -> float:
    """Recall averaged over the IoU sweep and over classes, allowing at most
    the top-k detections per image and class; -1 when nothing is eligible."""
    if k < 1:
        raise ConfigError(f"max detections must be >= 1, got {k}")
    spec = ("ar", "ar", None, size_filter, k)
    table = image_ious(gt_set, det_set, mode)
    return _aggregates(table, mode, gt_set.label_map.ids(), [spec])["ar"]


def mean_ap(gt_set, det_set, mode: str = "boxes", max_dets: int = 100) -> dict:
    """The six mAP fields: the full sweep, fixed 0.50 and 0.75, and the three
    size-stratified sweeps."""
    specs = [
        (key, kind, t_index, size, max_dets)
        for key, kind, t_index, size, _cap in AGGREGATES
        if kind == "ap"
    ]
    table = image_ious(gt_set, det_set, mode)
    return _aggregates(table, mode, gt_set.label_map.ids(), specs)


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
    Each image's IoU matrix is computed once and serves both."""
    mode = thresholds.geometry_mode
    table = image_ious(gt_set, det_set, mode)
    _, cm = match_images(table, gt_set.label_map, thresholds, algorithm)
    # in masks mode, the items without a mask fall back to their boxes
    items = (*gt_set.annotations, *det_set.detections) if mode == "masks" else ()
    report = MetricsReport(
        per_class=precision_recall(cm),
        aggregates=_aggregates(table, mode, gt_set.label_map.ids(), AGGREGATES),
        geometry_mode=mode,
        algorithm=algorithm,
        mask_fallback_items=sum(1 for x in items if x.mask is None),
    )
    return report, cm
