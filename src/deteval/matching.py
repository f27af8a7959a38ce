"""Confusion-matrix construction from localized detections.

Two matchers are provided, each run over all images of a dataset at once:

* :func:`match_conventional` is the widely used IoU-prioritized procedure:
  keep each ground truth's maximum-IoU candidate, then each detection's
  maximum-IoU candidate; class labels play no role during matching, so a
  cross-class pair lands in an off-diagonal cell.
* :func:`match_modified` is the class-prioritized iterative procedure: a
  ground truth prefers same-class candidates over any higher-IoU cross-class
  candidate, a contested detection goes to the same-class ground truth first,
  and displaced ground truths propose again until none is left with a
  candidate. This is gt-proposing deferred acceptance (Gale & Shapley 1962).
  Both sides' preferences are strict, so it ends in the same matching, the
  gt-optimal stable one, whatever the order of the proposals; it runs in
  rounds in which every free ground truth proposes at once.

Both read the pair table of :func:`image_ious`: the items of all images as
columns, and every pair whose IoU is at or above a floor, taken once from
each image's IoU matrix, which is then dropped. The matchers keep the pairs
at or above the IoU and confidence thresholds; a pair never spans two
images, so no per-image pass is needed. :func:`accumulate` reduces
any number of per-image results into one ``(C+1) x (C+1)`` count grid whose
final column holds unmatched ground truths ("left detections") and whose
final row holds unmatched detections ("unclassified detections").

Determinism: all orderings use the total tie-break (higher IoU, higher score,
lower det_id, lower gt_id); the modified matcher's priority order is
(same class, IoU, score, det_id) for a ground truth and (same class, IoU,
lower gt_id) for a detection.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .annotations import Annotation, Detection, LabelMap
from .errors import ConfigError, GeometryError, MissingReferenceError
from .geometry import prepare_windows, window_rects

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
    a, b = window_rects(gmasks)[:, None], window_rects(dmasks)[None, :]
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


def _pair(table, k) -> MatchPair:
    i, j = table.gt[k], table.det[k]
    same = bool(table.gt_class[i] == table.det_class[j])
    return MatchPair(table.gts[i], table.dets[j], float(table.iou[k]), same)


def iou_table(gts, dets, t: Thresholds) -> list[MatchPair]:
    """All (gt, det) pairs at or above the IoU threshold, in (gt, det) order.

    Detections are expected to be pre-filtered to the confidence threshold;
    all items must belong to one image.
    """
    table = _pair_table([(None, gts, dets)], t.geometry_mode, t.iou_threshold)
    return [_pair(table, k) for k in range(table.iou.size)]


# the items of all images, in image order and in load order within an image,
# as record lists, per-image counts and columns; and every pair at or above
# ``floor``, in (image, gt, det) order, as its gt and det positions and its IoU
PairTable = namedtuple("PairTable", "floor image_id gts dets n_gts n_dets gt_id "
                       "gt_class det_id det_class score gt det iou")


def _columns(pairs) -> np.ndarray:
    """The two int64 columns of a list of pairs."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def _pair_table(rows, mode: str, floor: float) -> PairTable:
    """The :class:`PairTable` of ``(image_id, gts, dets)`` rows: each row's
    :func:`iou_matrix` is written into one buffer of cells and dropped."""
    gts = [g for row in rows for g in row[1]]
    dets = [d for row in rows for d in row[2]]
    gt_id, gt_class = _columns([(g.ann_id, g.class_id) for g in gts])
    det_id, det_class = _columns([(d.det_id, d.class_id) for d in dets])
    score = np.array([d.score for d in dets], dtype=np.float64)
    n_gts, n_dets = _columns([(len(row[1]), len(row[2])) for row in rows])
    cells = n_gts * n_dets
    ends = cells.cumsum()
    flat = np.empty(cells.sum())
    for (_, row_gts, row_dets), lo, hi in zip(rows, ends - cells, ends):
        flat[lo:hi] = iou_matrix(row_gts, row_dets, mode).ravel()
    hit = np.flatnonzero(flat >= floor)
    image = np.searchsorted(ends, hit, side="right")
    gt, det = np.divmod(hit - (ends - cells)[image], n_dets[image])
    gt += (n_gts.cumsum() - n_gts)[image]
    det += (n_dets.cumsum() - n_dets)[image]
    return PairTable(floor, [row[0] for row in rows], gts, dets, n_gts, n_dets,
                     gt_id, gt_class, det_id, det_class, score, gt, det, flat[hit])


def image_ious(gt_set, det_set, mode: str, floor: float) -> PairTable:
    """The :class:`PairTable` of every ground-truth image at IoU ``floor`` in
    geometry ``mode``. Raises when a detection names an image the ground
    truth does not have.

    In masks mode, once the canvases of every image with masks on both sides
    are checked, those masks are prepared in one call per set."""
    if mode not in GEOMETRY_MODES:
        raise ConfigError(f"unknown geometry mode {mode!r}")
    dets_by_image = det_set.by_image()
    for image_id, ds in dets_by_image.items():
        if image_id not in gt_set.images_by_id:
            raise MissingReferenceError(
                f"detection {ds[0].det_id}: unknown image_id {image_id}"
            )
    rows = [(img.image_id, gt_set.by_image()[img.image_id],
             dets_by_image.get(img.image_id, [])) for img in gt_set.images]
    if mode == "masks":
        sets = ([], [])
        for _, gts, dets in rows:
            gmasks = [g.mask for g in gts if g.mask is not None]
            dmasks = [d.mask for d in dets if d.mask is not None]
            if gmasks and dmasks:
                _check_canvases(gmasks, dmasks)
                sets[0].extend(gmasks)
                sets[1].extend(dmasks)
        for masks in sets:
            prepare_windows(masks)
    return _pair_table(rows, mode, floor)


def _conventional(p: PairTable) -> np.ndarray:
    """The matched pairs of the IoU-prioritized matcher, as indices into the
    pair columns: in the order (higher IoU, higher score, lower det_id,
    lower gt_id), the first pair of each ground truth, then the first of
    each detection among those."""
    order = np.lexsort((p.gt_id[p.gt], p.det_id[p.det], -p.score[p.det], -p.iou))
    survivors = order[np.sort(np.unique(p.gt[order], return_index=True)[1])]
    return survivors[np.unique(p.det[survivors], return_index=True)[1]]


def _deferred_acceptance(p: PairTable) -> tuple[np.ndarray, int]:
    """The matched pairs of the class-prioritized matcher, as indices into
    the pair columns, and the number of rounds it took.

    In each round every free ground truth with a candidate left proposes to
    its next one, under (same class, IoU, score, lower det_id), and each
    detection keeps the best of its holder and its proposers under (same
    class, IoU, lower gt_id). Every round makes a proposal and no pair is
    proposed twice, so there are no more rounds than pairs.
    """
    n = p.iou.size
    same = p.gt_class[p.gt] == p.det_class[p.det]
    # each ground truth's candidates, best first, one slice per ground truth
    proposals = np.lexsort((p.det_id[p.det], -p.score[p.det], -p.iou, ~same, p.gt))
    bounds = np.searchsorted(p.gt[proposals], np.arange(p.gt_id.size + 1))
    cursor, end = bounds[:-1].copy(), bounds[1:]
    # the pairs grouped by detection, each group best first; a pair's rank
    # is its position, so sorted ranks group the proposals by detection
    by_det = np.lexsort((p.gt_id[p.gt], -p.iou, ~same, p.det))
    rank = np.empty(n, dtype=np.int64)
    rank[by_det] = np.arange(n)
    held = np.full(p.det_id.size, n)  # the rank each detection holds; n: none
    holding = np.zeros(p.gt_id.size, dtype=bool)
    free = np.flatnonzero(cursor < end)
    rounds = 0
    while free.size:
        rounds += 1
        offers = np.sort(rank[proposals[cursor[free]]])
        cursor[free] += 1
        dets = p.det[by_det[offers]]
        best = np.append(True, dets[1:] != dets[:-1])
        won = best & (offers < held[dets])
        offers, dets = offers[won], dets[won]
        displaced = held[dets]
        displaced = p.gt[by_det[displaced[displaced < n]]]
        holding[displaced] = False
        holding[p.gt[by_det[offers]]] = True
        held[dets] = offers
        free = np.append(free, displaced)
        free = free[~holding[free] & (cursor[free] < end[free])]
    return by_det[held[held < n]], rounds


_MATCHERS = {
    "conventional": _conventional,
    "modified": lambda p: _deferred_acceptance(p)[0],
}


def _match(table: PairTable, t: Thresholds, algorithm: str) -> np.ndarray:
    """The positions of the table's pairs that ``algorithm`` matches."""
    if t.iou_threshold < table.floor:
        raise ConfigError(f"iou_threshold {t.iou_threshold} is below the "
                          f"pair table's floor {table.floor}")
    visible = table.score[table.det] >= t.confidence_threshold
    keep = np.flatnonzero((table.iou >= t.iou_threshold) & visible)
    cut = table._replace(gt=table.gt[keep], det=table.det[keep], iou=table.iou[keep])
    return keep[_MATCHERS[algorithm](cut)]


def _results(table: PairTable, matched, t: Thresholds) -> list[MatchingResult]:
    """The :class:`MatchingResult` of each image of the table, from the
    matched pair positions that :func:`match_images` returns: the pairs in
    (gt_id, det_id) order, and the unmatched ground truths and visible
    detections in load order."""
    pair_of = dict(zip(table.gt[matched].tolist(), matched.tolist()))
    taken = set(table.det[matched].tolist())
    visible = (table.score >= t.confidence_threshold).tolist()
    results, g0, d0 = [], 0, 0
    for n_g, n_d in zip(table.n_gts.tolist(), table.n_dets.tolist()):
        gts, dets = range(g0, g0 + n_g), range(d0, d0 + n_d)
        pairs = sorted((_pair(table, pair_of[i]) for i in gts if i in pair_of),
                       key=lambda p: (p.gt.ann_id, p.det.det_id))
        results.append(MatchingResult(
            tuple(pairs),
            tuple(table.gts[i] for i in gts if i not in pair_of),
            tuple(table.dets[j] for j in dets if j not in taken and visible[j]),
        ))
        g0, d0 = g0 + n_g, d0 + n_d
    return results


def _match_image(gts, dets, t: Thresholds, algorithm: str) -> MatchingResult:
    table = _pair_table([(None, gts, dets)], t.geometry_mode, t.iou_threshold)
    return _results(table, _match(table, t, algorithm), t)[0]


def match_conventional(gts, dets, t: Thresholds) -> MatchingResult:
    """IoU-prioritized matching of one image.

    Over-threshold pairs are sorted by descending IoU; each ground truth
    discards all but its maximum-IoU candidate, then each detection discards
    all but its maximum-IoU surviving candidate. What survives is matched;
    leftover ground truths and detections are unmatched. Note this is not a
    maximum matching: a detection contested away from a ground truth is not
    revisited, so pairable items can end up unmatched.
    """
    return _match_image(gts, dets, t, "conventional")


def match_modified(gts, dets, t: Thresholds) -> MatchingResult:
    """Class-prioritized matching of one image, iterated to a fixed point.

    Each unmatched ground truth claims its best remaining candidate under the
    order (same class, IoU, score, lower det_id). A detection claimed by
    several ground truths keeps the one preferred under (same class, IoU,
    lower gt_id); the displaced ground truth returns to the pool and may claim
    another candidate in a later round. No pair is claimed twice, so the
    rounds end.
    """
    return _match_image(gts, dets, t, "modified")


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


def _matrix(labels: LabelMap, rows, cols) -> ConfusionMatrix:
    """The matrix counting one item per (row, col) code pair."""
    n = len(labels) + 1
    counts = np.bincount(rows * n + cols, minlength=n * n).reshape(n, n)
    return ConfusionMatrix(labels, counts)


def accumulate(results, labels: LabelMap) -> ConfusionMatrix:
    """Sum per-image matching results into one confusion matrix.

    Pure commutative summation: any ordering or grouping of the per-image
    results yields the identical matrix.
    """
    idx, none = labels.index_of, len(labels)
    cells = []
    for res in results:
        cells += [(idx(p.gt.class_id), idx(p.det.class_id)) for p in res.matched]
        cells += [(idx(g.class_id), none) for g in res.unmatched_gts]
        cells += [(none, idx(d.class_id)) for d in res.unmatched_dets]
    return _matrix(labels, *np.array(cells, dtype=np.int64).reshape(-1, 2).T)


def _codes(labels: LabelMap, class_ids) -> np.ndarray:
    """Each class id's row or column in a matrix of ``labels``."""
    classes, inverse = np.unique(class_ids, return_inverse=True)
    return np.array([labels.index_of(c) for c in classes.tolist()], np.int64)[inverse]


def match_dataset(gt_set, det_set, t: Thresholds, algorithm: str):
    """Run one matcher over every image; returns per-image results in image
    order plus the accumulated matrix."""
    table = image_ious(gt_set, det_set, t.geometry_mode, t.iou_threshold)
    matched, cm = match_images(table, gt_set.label_map, t, algorithm)
    return _results(table, matched, t), cm


def match_images(table: PairTable, labels: LabelMap, t: Thresholds, algorithm: str):
    """:func:`match_dataset` over a :func:`image_ious` table whose floor is at
    most the IoU threshold. Returns the positions of the matched pairs among
    the table's pairs, and the accumulated matrix."""
    if algorithm not in _MATCHERS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; use one of {ALGORITHMS}")
    matched = _match(table, t, algorithm)
    gt, det = table.gt[matched], table.det[matched]
    # a code pair per ground truth, and per unmatched visible detection
    none = len(labels)
    visible = table.score >= t.confidence_threshold
    det_code = np.full(table.det_id.size, none)
    det_code[visible] = _codes(labels, table.det_class[visible])
    gt_col = np.full(table.gt_id.size, none)
    gt_col[gt] = det_code[det]
    left = visible.copy()
    left[det] = False
    rows = np.append(_codes(labels, table.gt_class), np.full(np.count_nonzero(left), none))
    cols = np.append(gt_col, det_code[left])
    return matched, _matrix(labels, rows, cols)
