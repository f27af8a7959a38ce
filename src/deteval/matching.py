"""Confusion-matrix construction from localized detections.

Two per-image matchers are provided:

* :func:`match_conventional` is the widely used IoU-prioritized procedure:
  keep each ground truth's maximum-IoU candidate, then each detection's
  maximum-IoU candidate; class labels play no role during matching, so a
  cross-class pair lands in an off-diagonal cell.
* :func:`match_modified` is the class-prioritized iterative procedure: a
  ground truth prefers same-class candidates over any higher-IoU cross-class
  candidate, a contested detection goes to the same-class ground truth first,
  and displaced ground truths re-enter the pool until a fixed point.

Both are pure functions per image; :func:`accumulate` reduces any number of
per-image results into one ``(C+1) x (C+1)`` count grid whose final column
holds unmatched ground truths ("left detections") and whose final row holds
unmatched detections ("unclassified detections").

Determinism: all orderings use the total tie-break (higher IoU, higher score,
lower det_id, lower gt_id); the modified matcher's priority order is
(same class, IoU, score, det_id, gt_id).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .annotations import Annotation, Detection, LabelMap
from .errors import (
    ConfigError,
    GeometryError,
    MissingReferenceError,
    NonTerminationError,
)
from .geometry import prepare_windows

GEOMETRY_MODES = ("boxes", "masks")
ALGORITHMS = ("conventional", "modified")


@dataclass(frozen=True)
class Thresholds:
    iou_threshold: float = 0.5
    confidence_threshold: float = 0.5
    geometry_mode: str = "boxes"

    def __post_init__(self):
        for name, v in (
            ("iou_threshold", self.iou_threshold),
            ("confidence_threshold", self.confidence_threshold),
        ):
            if not 0.0 < v <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {v}")
        if self.geometry_mode not in GEOMETRY_MODES:
            raise ConfigError(
                f"geometry_mode must be one of {GEOMETRY_MODES}, "
                f"got {self.geometry_mode!r}"
            )


@dataclass(frozen=True)
class MatchPair:
    gt: Annotation
    det: Detection
    iou: float
    same_class: bool


@dataclass(frozen=True)
class MatchingResult:
    matched: tuple[MatchPair, ...]
    unmatched_gts: tuple[Annotation, ...]
    unmatched_dets: tuple[Detection, ...]


def _box_columns(items) -> tuple[np.ndarray, ...]:
    xywh = np.array(
        [(i.bbox.x, i.bbox.y, i.bbox.w, i.bbox.h) for i in items], dtype=np.float64
    ).reshape(-1, 4)
    return tuple(xywh.T)


def _box_iou_matrix(gts, dets) -> np.ndarray:
    """:func:`box_iou` of every (gt, det) pair, in its operation order."""
    ax, ay, aw, ah = (c[:, None] for c in _box_columns(gts))
    bx, by, bw, bh = (c[None, :] for c in _box_columns(dets))
    # overflow to inf is silent, as in the scalar float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
        area_a, area_b = aw * ah, bw * bh
        inter = np.minimum(np.minimum(inter, area_a), area_b)
        union = (area_a + area_b) - inter
        return np.divide(inter, union, out=np.zeros_like(inter), where=~(union <= 0))


def _window_rects(masks) -> np.ndarray:
    """``(x0, y0, x1, y1)`` of each mask's window, one row per mask; the
    windows not yet prepared are prepared in one batch."""
    prepare_windows(masks)
    rects = [
        (x0, y0, x0 + bits.shape[1], y0 + bits.shape[0])
        for bits, x0, y0 in (m.window() for m in masks)
    ]
    return np.array(rects, dtype=np.int64).reshape(-1, 4)


def iou_matrix(gts, dets, mode: str) -> np.ndarray:
    """IoU of every (gt, det) pair as a ``(len(gts), len(dets))`` float64 array.

    Each cell equals its pair's :func:`box_iou` exactly, for finite boxes,
    or in masks mode, when both sides have a mask, its
    :meth:`InstanceMask.iou`. Boxes are computed by broadcasting; pairs whose
    mask windows are disjoint are exactly 0.0, and only overlapping windows
    are intersected.
    """
    ious = _box_iou_matrix(gts, dets)
    if mode != "masks":
        return ious
    rows = [i for i, g in enumerate(gts) if g.mask is not None]
    cols = [j for j, d in enumerate(dets) if d.mask is not None]
    if not rows or not cols:
        return ious
    gmasks = [gts[i].mask for i in rows]
    dmasks = [dets[j].mask for j in cols]
    _check_canvases(gmasks, dmasks)
    a, b = _window_rects(gmasks)[:, None], _window_rects(dmasks)[None, :]
    lo = np.maximum(a[..., :2], b[..., :2])
    hi = np.minimum(a[..., 2:], b[..., 2:])
    overlap = (lo < hi).all(axis=2)
    masked = np.zeros(overlap.shape)
    for i, j in zip(*np.nonzero(overlap)):
        masked[i, j] = gmasks[i].iou(dmasks[j])
    ious[np.ix_(rows, cols)] = masked
    return ious


def _check_canvases(gmasks, dmasks) -> None:
    """Raise as :meth:`InstanceMask.iou` does for the first (gt, det) pair
    whose known canvases differ, whether or not their windows overlap."""
    gsizes = {m.canvas for m in gmasks} - {None}
    dsizes = {m.canvas for m in dmasks} - {None}
    if not gsizes or not dsizes or len(gsizes | dsizes) == 1:
        return
    for g in gmasks:
        for d in dmasks:
            if None not in (g.canvas, d.canvas) and g.canvas != d.canvas:
                raise GeometryError(f"mask canvases differ: {g.canvas} vs {d.canvas}")


def iou_table(gts, dets, t: Thresholds) -> list[MatchPair]:
    """All (gt, det) pairs at or above the IoU threshold, in (gt, det) order.

    Detections are expected to be pre-filtered to the confidence threshold;
    all items must belong to one image.
    """
    ious = iou_matrix(gts, dets, t.geometry_mode)
    pairs = []
    for i, j in zip(*np.nonzero(ious >= t.iou_threshold)):
        gt, det = gts[i], dets[j]
        pairs.append(MatchPair(gt, det, float(ious[i, j]), gt.class_id == det.class_id))
    return pairs


def _conf_filter(dets, t: Thresholds):
    return [d for d in dets if d.score >= t.confidence_threshold]


def _pair_order(p: MatchPair):
    # higher IoU, then higher score, then lower det_id, then lower gt_id
    return (-p.iou, -p.det.score, p.det.det_id, p.gt.ann_id)


def match_conventional(gts, dets, t: Thresholds) -> MatchingResult:
    """IoU-prioritized matching.

    Over-threshold pairs are sorted by descending IoU; each ground truth
    discards all but its maximum-IoU candidate, then each detection discards
    all but its maximum-IoU surviving candidate. What survives is matched;
    leftover ground truths and detections are unmatched. Note this is not a
    maximum matching: a detection contested away from a ground truth is not
    revisited, so pairable items can end up unmatched.
    """
    dets = _conf_filter(dets, t)
    pairs = sorted(iou_table(gts, dets, t), key=_pair_order)

    best_for_gt: dict[int, MatchPair] = {}
    for p in pairs:
        if p.gt.ann_id not in best_for_gt:
            best_for_gt[p.gt.ann_id] = p

    survivors = sorted(best_for_gt.values(), key=_pair_order)
    best_for_det: dict[int, MatchPair] = {}
    for p in survivors:
        if p.det.det_id not in best_for_det:
            best_for_det[p.det.det_id] = p

    return _assemble(gts, dets, list(best_for_det.values()))


def match_modified(gts, dets, t: Thresholds) -> MatchingResult:
    """Class-prioritized matching, iterated to a fixed point.

    Each unmatched ground truth claims its best remaining candidate under the
    order (same class, IoU, score, lower det_id). A detection claimed by
    several ground truths keeps the one preferred under (same class, IoU,
    lower gt_id); the displaced ground truth returns to the pool and may claim
    another candidate in a later pass. Every reassignment strictly improves
    the detection's held pair under that order, so the loop terminates; a
    defensive pass cap guards regardless.
    """
    dets = _conf_filter(dets, t)
    pairs = iou_table(gts, dets, t)

    candidates: dict[int, list[MatchPair]] = {}
    for p in pairs:
        candidates.setdefault(p.gt.ann_id, []).append(p)
    for cand in candidates.values():
        # preference of the ground truth: same class first, then best IoU
        cand.sort(key=lambda p: (not p.same_class, -p.iou, -p.det.score, p.det.det_id))

    holder: dict[int, MatchPair] = {}
    cursor = {gid: 0 for gid in candidates}
    queue = deque(gid for gid in (g.ann_id for g in gts) if gid in candidates)

    passes = 0
    cap = (len(gts) + 1) * (len(dets) + 1)
    while queue:
        passes += 1
        if passes > cap:
            raise NonTerminationError(
                f"matcher exceeded {cap} passes on {len(gts)} gts x {len(dets)} dets"
            )
        gid = queue.popleft()
        cand = candidates[gid]
        while cursor[gid] < len(cand):
            p = cand[cursor[gid]]
            cursor[gid] += 1
            held = holder.get(p.det.det_id)
            if held is None:
                holder[p.det.det_id] = p
                break
            # preference of the detection: same class first, then IoU
            if (p.same_class, p.iou, -p.gt.ann_id) > (
                held.same_class,
                held.iou,
                -held.gt.ann_id,
            ):
                holder[p.det.det_id] = p
                queue.append(held.gt.ann_id)
                break
        # candidate list exhausted: the ground truth stays unmatched

    return _assemble(gts, dets, list(holder.values()))


def _assemble(gts, dets, matched) -> MatchingResult:
    matched = sorted(matched, key=lambda p: (p.gt.ann_id, p.det.det_id))
    matched_gts = {p.gt.ann_id for p in matched}
    matched_dets = {p.det.det_id for p in matched}
    return MatchingResult(
        matched=tuple(matched),
        unmatched_gts=tuple(g for g in gts if g.ann_id not in matched_gts),
        unmatched_dets=tuple(d for d in dets if d.det_id not in matched_dets),
    )


MATCHERS = {"conventional": match_conventional, "modified": match_modified}


@dataclass
class ConfusionMatrix:
    """(C+1) x (C+1) count grid.

    Rows are true classes plus a final "unclassified detection" row; columns
    are predicted classes plus a final "left detection" column. The corner
    cell is unused and stays 0.
    """

    labels: LabelMap
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        n = len(self.labels) + 1
        if self.counts is None:
            self.counts = np.zeros((n, n), dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (n, n):
                raise ConfigError(
                    f"matrix shape {self.counts.shape} does not fit "
                    f"{len(self.labels)} classes"
                )

    def diagonal(self, class_id: int) -> int:
        k = self.labels.index_of(class_id)
        return int(self.counts[k, k])

    def row_sum(self, class_id: int) -> int:
        """Ground truths of the class (matched anywhere + left detections)."""
        return int(self.counts[self.labels.index_of(class_id), :].sum())

    def col_sum(self, class_id: int) -> int:
        """Detections predicted as the class (matched + unclassified)."""
        return int(self.counts[:, self.labels.index_of(class_id)].sum())

    def left_detections(self, class_id: int) -> int:
        return int(self.counts[self.labels.index_of(class_id), -1])

    def unclassified_detections(self, class_id: int) -> int:
        return int(self.counts[-1, self.labels.index_of(class_id)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConfusionMatrix)
            and self.labels == other.labels
            and bool(np.array_equal(self.counts, other.counts))
        )


def accumulate(results, labels: LabelMap) -> ConfusionMatrix:
    """Sum per-image matching results into one confusion matrix.

    Pure commutative summation: any ordering or grouping of the per-image
    results yields the identical matrix.
    """
    cm = ConfusionMatrix(labels)
    idx = labels.index_of
    for res in results:
        for p in res.matched:
            cm.counts[idx(p.gt.class_id), idx(p.det.class_id)] += 1
        for g in res.unmatched_gts:
            cm.counts[idx(g.class_id), -1] += 1
        for d in res.unmatched_dets:
            cm.counts[-1, idx(d.class_id)] += 1
    return cm


def match_dataset(gt_set, det_set, t: Thresholds, algorithm: str):
    """Run one matcher over every image; returns per-image results in image
    order plus the accumulated matrix."""
    if algorithm not in MATCHERS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; use one of {ALGORITHMS}")
    matcher = MATCHERS[algorithm]
    dets_by_image = det_set.by_image()
    for image_id, ds in dets_by_image.items():
        if image_id not in gt_set.images_by_id:
            raise MissingReferenceError(
                f"detection {ds[0].det_id}: unknown image_id {image_id}"
            )
    results = []
    for img in gt_set.images:
        gts = gt_set.by_image().get(img.image_id, [])
        dets = dets_by_image.get(img.image_id, [])
        results.append(matcher(gts, dets, t))
    return results, accumulate(results, gt_set.label_map)
