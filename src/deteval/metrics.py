"""Per-class precision/recall and the aggregate AP/AR index suite.

Per-class precision and recall at the matching thresholds come straight from
a confusion matrix (precision = diagonal / column sum, recall = diagonal /
row sum). The twelve aggregate indices follow the COCO evaluation
conventions: greedy per-class score-ordered matching, a ten-threshold IoU
sweep (0.50:0.05:0.95), 101-point interpolated average precision, size
stratification with ignore-region semantics, and -1 as the "no eligible
ground truth" sentinel. The aggregates never consult the confusion-matrix
algorithms, so conventional and modified runs report identical AP/AR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annotations import DetectionSet, GroundTruthSet
from .errors import ConfigError
from .matching import ConfusionMatrix, Thresholds, iou_matrix, match_dataset
from .geometry import SizeClass, size_class

IOU_SWEEP = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
NO_GT = -1.0


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


@dataclass
class ClassAccumulation:
    """Greedy evaluation of one class under one size filter and det cap."""

    precision: np.ndarray  # (T, 101) interpolated precision samples
    final_recall: np.ndarray  # (T,) recall with every capped detection used
    eligible_gts: int

    def ap(self, t_index=None) -> float:
        per_t = self.precision.mean(axis=1)
        return float(per_t.mean() if t_index is None else per_t[t_index])

    def ar(self) -> float:
        return float(self.final_recall.mean())


class GreedyEvaluator:
    """Shared per-(image, class) evaluation state for the AP/AR suite.

    Matching is greedy in detection score order: each detection takes the
    highest-IoU not-yet-matched ground truth at or above the threshold, with
    in-filter ground truths preferred over ignored ones. Ground truths outside
    the size filter are ignore regions: matching them neither helps nor
    hurts, and unmatched detections outside the filter are ignored too.
    """

    def __init__(self, gt_set: GroundTruthSet, det_set: DetectionSet, mode: str):
        if mode not in ("boxes", "masks"):
            raise ConfigError(f"unknown geometry mode {mode!r}")
        self.mode = mode
        self.labels = gt_set.label_map
        self.class_ids = gt_set.label_map.ids()
        self._gts: dict[tuple[int, int], list] = {}
        self._dets: dict[tuple[int, int], list] = {}
        self._ious: dict[tuple[int, int], np.ndarray] = {}
        self._acc: dict = {}
        self._images = [im.image_id for im in gt_set.images]

        # each image's detections in score order, so every class's share of
        # them is in score order too
        self._image_gts = gt_set.by_image()
        self._image_dets = {
            img_id: sorted(dets, key=lambda d: (-d.score, d.det_id))
            for img_id, dets in det_set.by_image().items()
        }
        for img_id, anns in self._image_gts.items():
            for ann in anns:
                self._gts.setdefault((img_id, ann.class_id), []).append(ann)
        for img_id, dets in self._image_dets.items():
            for det in dets:
                self._dets.setdefault((img_id, det.class_id), []).append(det)

    def _iou_matrix(self, key) -> np.ndarray:
        """The (D, G) IoU block of one (image, class) cell.

        The first request for an image computes one matrix over all of its
        ground truths and detections and slices out every class's block.
        """
        if key not in self._ious:
            img_id = key[0]
            gts = self._image_gts.get(img_id, [])
            dets = self._image_dets.get(img_id, [])
            ious = iou_matrix(gts, dets, self.mode)
            rows: dict[int, list[int]] = {}
            cols: dict[int, list[int]] = {}
            for j, g in enumerate(gts):
                rows.setdefault(g.class_id, []).append(j)
            for i, d in enumerate(dets):
                cols.setdefault(d.class_id, []).append(i)
            for cid in rows.keys() | cols.keys():
                block = ious[np.ix_(rows.get(cid, []), cols.get(cid, []))]
                self._ious[(img_id, cid)] = block.T
        return self._ious[key]

    def _det_area(self, det) -> float:
        if self.mode == "masks" and det.mask is not None:
            return float(det.mask.area)
        return det.bbox.area

    def _eval_image(self, key, size_filter, max_dets):
        """Greedy matches for one (image, class) cell at every threshold.

        Returns (scores, tp, ignore) arrays of shape (D,) / (T, D) / (T, D)
        plus the in-filter ground-truth count.
        """
        gts = self._gts.get(key, [])
        dets = self._dets.get(key, [])[:max_dets]
        gt_ignore = np.array(
            [size_filter is not None and size_class(g.area) != size_filter for g in gts],
            dtype=bool,
        )
        n_eligible = int((~gt_ignore).sum()) if len(gts) else 0
        if not dets:
            return np.zeros(0), np.zeros((len(IOU_SWEEP), 0), bool), np.zeros(
                (len(IOU_SWEEP), 0), bool
            ), n_eligible

        ious = self._iou_matrix(key)[: len(dets)]
        # in-filter ground truths are offered first, stably
        gt_order = sorted(range(len(gts)), key=lambda j: (bool(gt_ignore[j]), j))

        T = len(IOU_SWEEP)
        tp = np.zeros((T, len(dets)), dtype=bool)
        ignore = np.zeros((T, len(dets)), dtype=bool)
        det_outside = np.array(
            [
                size_filter is not None
                and size_class(self._det_area(d)) != size_filter
                for d in dets
            ],
            dtype=bool,
        )
        for ti, thr in enumerate(IOU_SWEEP):
            taken = np.zeros(len(gts), dtype=bool)
            for di in range(len(dets)):
                best_j = -1
                best_iou = thr
                for j in gt_order:
                    if taken[j]:
                        continue
                    if best_j >= 0 and not gt_ignore[best_j] and gt_ignore[j]:
                        break  # a valid match in hand beats any ignored one
                    if ious[di, j] > best_iou or (
                        best_j < 0 and ious[di, j] >= best_iou
                    ):
                        best_iou = ious[di, j]
                        best_j = j
                if best_j >= 0:
                    taken[best_j] = True
                    if gt_ignore[best_j]:
                        ignore[ti, di] = True
                    else:
                        tp[ti, di] = True
                elif det_outside[di]:
                    ignore[ti, di] = True
        scores = np.array([d.score for d in dets])
        return scores, tp, ignore, n_eligible

    def accumulate(self, class_id, size_filter, max_dets) -> ClassAccumulation | None:
        """Pool every image's matches for one class; None when no eligible
        ground truth exists under the filter."""
        cache_key = (class_id, size_filter, max_dets)
        if cache_key in self._acc:
            return self._acc[cache_key]

        scores_parts, tp_parts, ig_parts, img_parts, pos_parts = [], [], [], [], []
        eligible = 0
        for img_id in self._images:
            key = (img_id, class_id)
            if key not in self._gts and key not in self._dets:
                continue
            scores, tp, ignore, n_elig = self._eval_image(key, size_filter, max_dets)
            eligible += n_elig
            if scores.size:
                scores_parts.append(scores)
                tp_parts.append(tp)
                ig_parts.append(ignore)
                img_parts.append(np.full(scores.size, img_id))
                pos_parts.append(np.arange(scores.size))

        if eligible == 0:
            self._acc[cache_key] = None
            return None

        T = len(IOU_SWEEP)
        if scores_parts:
            scores = np.concatenate(scores_parts)
            tp = np.concatenate(tp_parts, axis=1)
            ignore = np.concatenate(ig_parts, axis=1)
            order = np.lexsort(
                (np.concatenate(pos_parts), np.concatenate(img_parts), -scores)
            )
            tp = tp[:, order]
            ignore = ignore[:, order]
        else:
            tp = np.zeros((T, 0), dtype=bool)
            ignore = np.zeros((T, 0), dtype=bool)

        counted = ~ignore
        tp_cum = np.cumsum(tp & counted, axis=1).astype(float)
        fp_cum = np.cumsum(~tp & counted, axis=1).astype(float)
        recall = tp_cum / eligible
        denom = tp_cum + fp_cum
        with np.errstate(invalid="ignore", divide="ignore"):
            prec = np.where(denom > 0, tp_cum / denom, 0.0)
        envelope = np.maximum.accumulate(prec[:, ::-1], axis=1)[:, ::-1]

        samples = np.zeros((T, RECALL_POINTS.size))
        nd = recall.shape[1]
        for ti in range(T):
            idx = np.searchsorted(recall[ti], RECALL_POINTS, side="left")
            valid = idx < nd
            samples[ti, valid] = envelope[ti, idx[valid]]
        final_recall = recall[:, -1] if nd else np.zeros(T)

        acc = ClassAccumulation(samples, final_recall, eligible)
        self._acc[cache_key] = acc
        return acc


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
    acc = GreedyEvaluator(gt_set, det_set, mode).accumulate(
        class_id, size_filter, max_dets
    )
    if acc is None:
        return NO_GT
    return acc.ap(IOU_SWEEP.index(iou_t))


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
    ev = GreedyEvaluator(gt_set, det_set, mode)
    return _mean_over_classes(ev, lambda acc: acc.ar(), size_filter, k)


def _mean_over_classes(ev: GreedyEvaluator, extract, size_filter, max_dets) -> float:
    values = []
    for cid in ev.class_ids:
        acc = ev.accumulate(cid, size_filter, max_dets)
        if acc is not None:
            values.append(extract(acc))
    if not values:
        return NO_GT
    return float(np.mean(values))


def mean_ap(gt_set, det_set, mode: str = "boxes", max_dets: int = 100) -> dict:
    """The six mAP fields: the full sweep, fixed 0.50 and 0.75, and the three
    size-stratified sweeps."""
    ev = GreedyEvaluator(gt_set, det_set, mode)
    return _mean_ap(ev, max_dets)


def _mean_ap(ev: GreedyEvaluator, max_dets: int = 100) -> dict:
    i50 = IOU_SWEEP.index(0.5)
    i75 = IOU_SWEEP.index(0.75)
    return {
        "map_50_95": _mean_over_classes(ev, lambda a: a.ap(), None, max_dets),
        "map_50": _mean_over_classes(ev, lambda a: a.ap(i50), None, max_dets),
        "map_75": _mean_over_classes(ev, lambda a: a.ap(i75), None, max_dets),
        "map_small": _mean_over_classes(ev, lambda a: a.ap(), SizeClass.SMALL, max_dets),
        "map_medium": _mean_over_classes(
            ev, lambda a: a.ap(), SizeClass.MEDIUM, max_dets
        ),
        "map_large": _mean_over_classes(ev, lambda a: a.ap(), SizeClass.LARGE, max_dets),
    }


@dataclass
class MetricsReport:
    per_class: list[PerClassMetrics]
    map_50_95: float
    map_50: float
    map_75: float
    map_small: float
    map_medium: float
    map_large: float
    ar_1: float
    ar_10: float
    ar_100: float
    ar_100_small: float
    ar_100_medium: float
    ar_100_large: float
    geometry_mode: str
    algorithm: str
    mask_fallback_items: int = 0

    def aggregate_fields(self) -> dict:
        return {
            "map_50_95": self.map_50_95,
            "map_50": self.map_50,
            "map_75": self.map_75,
            "map_small": self.map_small,
            "map_medium": self.map_medium,
            "map_large": self.map_large,
            "ar_1": self.ar_1,
            "ar_10": self.ar_10,
            "ar_100": self.ar_100,
            "ar_100_small": self.ar_100_small,
            "ar_100_medium": self.ar_100_medium,
            "ar_100_large": self.ar_100_large,
        }


def full_report(
    gt_set: GroundTruthSet,
    det_set: DetectionSet,
    thresholds: Thresholds,
    algorithm: str = "conventional",
) -> tuple[MetricsReport, ConfusionMatrix]:
    """Confusion matrix plus per-class P/R from the selected algorithm, and
    the algorithm-independent AP/AR aggregate suite, for one geometry mode."""
    _, cm = match_dataset(gt_set, det_set, thresholds, algorithm)
    per_class = precision_recall(cm)

    mode = thresholds.geometry_mode
    ev = GreedyEvaluator(gt_set, det_set, mode)
    aggregates = _mean_ap(ev)
    ar = {
        "ar_1": _mean_over_classes(ev, lambda a: a.ar(), None, 1),
        "ar_10": _mean_over_classes(ev, lambda a: a.ar(), None, 10),
        "ar_100": _mean_over_classes(ev, lambda a: a.ar(), None, 100),
        "ar_100_small": _mean_over_classes(ev, lambda a: a.ar(), SizeClass.SMALL, 100),
        "ar_100_medium": _mean_over_classes(
            ev, lambda a: a.ar(), SizeClass.MEDIUM, 100
        ),
        "ar_100_large": _mean_over_classes(ev, lambda a: a.ar(), SizeClass.LARGE, 100),
    }

    fallbacks = 0
    if mode == "masks":
        fallbacks += sum(1 for a in gt_set.annotations if a.mask is None)
        fallbacks += sum(1 for d in det_set.detections if d.mask is None)

    report = MetricsReport(
        per_class=per_class,
        **aggregates,
        **ar,
        geometry_mode=mode,
        algorithm=algorithm,
        mask_fallback_items=fallbacks,
    )
    return report, cm
