"""Confusion-matrix construction from localized detections.

Two matchers are provided, each run over all images of a dataset at once:

* :func:`match_conventional` is the widely used IoU-prioritized procedure:
  keep each ground truth's maximum-IoU candidate, then each detection's
  maximum-IoU candidate; class labels play no role during matching, so a
  cross-class pair lands in an off-diagonal cell.
* :func:`match_modified` is the class-prioritized procedure: a ground truth
  prefers same-class candidates over any higher-IoU cross-class one. It is
  gt-proposing deferred acceptance (Gale & Shapley 1962), run in rounds in
  which every free ground truth proposes at once.

Both read one total order of the pairs, :func:`_pair_order`: higher IoU,
higher score, lower det_id, lower gt_id. The modified matcher puts same-class
pairs first, and each side's preferences are that order restricted to its own
pairs. Preferences from one global order of pairs have exactly one stable
matching (Eeckhout, Economics Letters 69(1), 2000; Abraham, Levavi, Manlove
and O'Malley, Internet Mathematics 5(4), 2008), so the detection-proposing
run, and the greedy that takes each pair in order while both its ends are
free, give the same matching.

Both read the pair table of :func:`image_ious`: the items of all images as
columns, and the pairs whose IoU is at or above a floor among the cells the
command reads. One pass over the sets' columns enumerates every within-image
cell, in chunks, and computes the IoU of each cell read once; a cell not read
gets no IoU. The matchers read the cells whose detection scores at or above
the confidence threshold, and the AP/AR suite the same-class cells at any
score; a table built for one command holds only the cells its readers read,
and a reader given a table that lacks some raises. A cell's IoU
is its boxes' (:func:`geometry.box_ious`), or in masks mode, when both sides
have a mask, its masks' (:func:`geometry.mask_ious`), read from each set's
mask columns (:attr:`ItemColumns.masks`) with no mask object. The
matchers keep the pairs at or above the IoU and confidence thresholds; a
pair never spans two images, so no per-image pass is needed.
:func:`accumulate` reduces any number of per-image results into one
``(C+1) x (C+1)`` count grid whose final column holds unmatched ground
truths ("left detections") and whose final row holds unmatched detections
("unclassified detections").
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .annotations import Annotation, Detection, ItemColumns, LabelMap, _positions, _split
from .errors import ConfigError, MissingReferenceError
from .geometry import box_ious, mask_ious

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


def iou_matrix(gts, dets, mode: str) -> np.ndarray:
    """IoU of every (gt, det) pair of one image as a ``(len(gts),
    len(dets))`` float64 array: the cells of its :class:`PairTable` at no
    floor.

    Each cell equals its pair's ``oracle.box_iou`` exactly, for finite boxes,
    or in masks mode, when both sides have a mask, its
    ``oracle.instance_iou``; pairs whose mask windows are disjoint are
    exactly 0.0, and only overlapping windows are intersected.
    """
    table = _image_table(gts, dets, mode, -np.inf)
    ious = np.zeros((table.gt_id.size, table.det_id.size))
    ious[table.gt, table.det] = table.iou
    return ious


def _pairs(table, at) -> list[MatchPair]:
    """The :class:`MatchPair` of each of the table's pairs at positions ``at``."""
    gt, det = table.gt[at], table.det[at]
    return list(map(MatchPair, table.gt_items.records(table.gt_item[gt]),
                    table.det_items.records(table.det_item[det]), table.iou[at].tolist(),
                    (table.gt_class[gt] == table.det_class[det]).tolist()))


def iou_table(gts, dets, t: Thresholds) -> list[MatchPair]:
    """All (gt, det) pairs at or above the IoU threshold, in (gt, det) order.

    Every pair counts, whatever its detection's score: the confidence
    threshold is not applied, so pass only the detections at or above it to
    get the pairs the matchers read. All items must belong to one image.
    """
    table = _image_table(gts, dets, t.geometry_mode, t.iou_threshold)
    return _pairs(table, np.arange(table.iou.size))


# the geometry mode; the items of all images, in image order and in load order
# within an image: the sets' ItemColumns, each item's position there, per-image
# counts and the id, class and score columns; and the pairs at or above ``floor``
# among the cells held, in (image, gt, det) order, as their gt and det positions
# and IoU. The cells held are those of the detections scoring at or above
# ``conf``, and if ``same_class`` every same-class cell too; a cell not held gets
# no IoU
PairTable = namedtuple("PairTable", "mode floor conf same_class image_id gt_items det_items "
                       "gt_item det_item n_gts n_dets gt_id gt_class det_id det_class score "
                       "gt det iou")
# the within-image cells that one pass of :func:`_pair_table` enumerates, held
# or not, which bounds its temporaries
PAIR_CHUNK_CELLS = 1 << 14


def _pair_table(gts, dets, gt_image, det_image, image_id, mode: str, floor: float,
                conf: float = -np.inf, same_class: bool = True):
    """The :class:`PairTable` of the :class:`ItemColumns` ``gts`` and
    ``dets`` on the images ``image_id``; ``gt_image`` and ``det_image`` give
    each item's image as a position in ``image_id``, or -1 to leave it out.

    The table holds the within-image (gt, det) cells whose detection scores
    at or above ``conf`` and, if ``same_class``, the same-class cells at any
    score; the items, counts and columns stay whole. Every within-image cell
    is enumerated, in (gt, det) order and in passes of at most
    ``PAIR_CHUNK_CELLS`` cells; a pass drops the cells not held before any
    IoU is computed, and keeps only the pairs at or above ``floor``. A cell's
    IoU is its boxes' (:func:`geometry.box_ious`), or in masks mode, for a
    pair with masks on both sides, its masks' (:func:`geometry.mask_ious`)."""
    gt_item, det_item = (np.argsort(at, kind="stable")[np.count_nonzero(at < 0):]
                         for at in (gt_image, det_image))
    g_image = gt_image[gt_item]
    n_gts = np.bincount(g_image, minlength=len(image_id))
    n_dets = np.bincount(det_image[det_item], minlength=len(image_id))
    gt_class, det_class, score = (gts.class_ids[gt_item], dets.class_ids[det_item],
                                  dets.values[det_item])
    # the cells are the ground truths' rows in order, each row the
    # detections of the ground truth's image
    row = n_dets[g_image]
    row_end = row.cumsum()
    row_start = row_end - row
    shift = (n_dets.cumsum() - n_dets)[g_image] - row_start
    g_has, d_has = gts.has_mask, dets.has_mask
    masked = mode == "masks" and g_has.any() and d_has.any()
    total = int(row_end[-1]) if row.size else 0
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    for lo in range(0, total, PAIR_CHUNK_CELLS):
        hi = min(lo + PAIR_CHUNK_CELLS, total)
        # the row of each cell of the pass: the rows from the first cell's to
        # the last's, each repeated for its cells in the pass
        a, b = row_end.searchsorted((lo, hi - 1), "right") + (0, 1)
        n = np.minimum(row_end[a:b], hi) - np.maximum(row_start[a:b], lo)
        g = np.arange(a, b).repeat(n)
        d = np.arange(lo, hi) + shift[g]
        read = score[d] >= conf
        if same_class:
            read |= gt_class[g] == det_class[d]
        g, d = g[read], d[read]
        i, j = gt_item[g], det_item[d]
        iou = box_ious(gts.boxes, dets.boxes, i, j)
        if masked:
            both = np.flatnonzero(g_has[i] & d_has[j])
            iou[both] = mask_ious(gts.masks, dets.masks, i[both], j[both])
        keep = np.flatnonzero(iou >= floor)
        parts.append((g[keep], d[keep], iou[keep]))
    return PairTable(mode, floor, conf, same_class, image_id, gts, dets, gt_item, det_item,
                     n_gts, n_dets, gts.ids[gt_item], gt_class, dets.ids[det_item],
                     det_class, score, *map(np.concatenate, zip(*parts)))


def _image_table(gts, dets, mode: str, floor: float, conf: float = -np.inf,
                 same_class: bool = True) -> PairTable:
    """The :class:`PairTable` of one image's ground truths and detections,
    given as record lists."""
    gts, dets = ItemColumns.of(Annotation, gts), ItemColumns.of(Detection, dets)
    return _pair_table(gts, dets, np.zeros(gts.ids.size, np.int64),
                       np.zeros(dets.ids.size, np.int64), [None], mode, floor, conf,
                       same_class)


def image_ious(gt_set, det_set, mode: str, floor: float, conf: float = -np.inf,
               same_class: bool = True) -> PairTable:
    """The :class:`PairTable` of every ground-truth image at IoU ``floor`` in
    geometry ``mode``, from the sets' columns, holding the cells of the
    detections that score at or above ``conf`` and, if ``same_class``, every
    same-class cell: by default every cell. The matchers read the cells at or
    above their confidence threshold, the AP/AR suite the same-class ones.
    A repeated image id's items go to its last image (:func:`annotations._positions`).
    Raises when any detection, whatever its score, names an image the ground
    truth does not have."""
    if mode not in GEOMETRY_MODES:
        raise ConfigError(f"unknown geometry mode {mode!r}")
    image_id, gts, dets = [img.image_id for img in gt_set.images], gt_set.items, det_set.items
    det_image = _positions(image_id, dets.image_ids)
    unknown = np.flatnonzero(det_image < 0)
    if unknown.size:
        k = unknown[0]
        raise MissingReferenceError(
            f"detection {dets.ids[k]}: unknown image_id {dets.image_ids[k]}")
    return _pair_table(gts, dets, _positions(image_id, gts.image_ids), det_image, image_id,
                       mode, floor, conf, same_class)


def _pair_order(p: PairTable, *first) -> np.ndarray:
    """The positions of the pair columns in the one pair order: higher IoU,
    higher score, lower det_id, lower gt_id, after the keys ``first``, the
    last of them primary."""
    return np.lexsort((p.gt_id[p.gt], p.det_id[p.det], -p.score[p.det], -p.iou, *first))


def _conventional(p: PairTable) -> np.ndarray:
    """The matched pairs of the IoU-prioritized matcher, as indices into the
    pair columns: in the pair order, the first pair of each ground truth,
    then the first of each detection among those."""
    order = _pair_order(p)
    survivors = order[np.sort(np.unique(p.gt[order], return_index=True)[1])]
    return survivors[np.unique(p.det[survivors], return_index=True)[1]]


def _deferred_acceptance(p: PairTable) -> tuple[np.ndarray, int]:
    """The matched pairs of the class-prioritized matcher, as indices into
    the pair columns, and the number of rounds it took.

    A pair's rank is its position in the pair order with same-class pairs
    first. In each round every free ground truth with a candidate left
    proposes its next pair by rank, and each detection keeps the lowest rank
    it is offered. Every round makes a proposal and no pair is proposed
    twice, so there are no more rounds than pairs.
    """
    n = p.iou.size
    order = _pair_order(p, p.gt_class[p.gt] != p.det_class[p.det])
    gt, det = p.gt[order], p.det[order]
    # each ground truth's proposals as ranks, best first, one slice per ground truth
    proposals = np.argsort(gt, kind="stable")
    bounds = np.searchsorted(gt[proposals], np.arange(p.gt_id.size + 1))
    cursor, end = bounds[:-1].copy(), bounds[1:]
    held = np.full(p.det_id.size, n)  # the rank each detection holds; n: none
    holding = np.zeros(p.gt_id.size, dtype=bool)
    free = np.flatnonzero(cursor < end)
    rounds = 0
    while free.size:
        rounds += 1
        offers = proposals[cursor[free]]
        cursor[free] += 1
        dets = det[offers]
        before = held[dets]
        np.minimum.at(held, dets, offers)
        won = held[dets] == offers
        displaced = gt[before[won & (before < n)]]
        holding[displaced] = False
        holding[gt[offers[won]]] = True
        free = np.append(free, displaced)
        free = free[~holding[free] & (cursor[free] < end[free])]
    return order[held[held < n]], rounds


_MATCHERS = {
    "conventional": _conventional,
    "modified": lambda p: _deferred_acceptance(p)[0],
}


def _match(table: PairTable, t: Thresholds, algorithm: str) -> np.ndarray:
    """The positions of the table's pairs that ``algorithm`` matches."""
    if t.iou_threshold < table.floor:
        raise ConfigError(f"iou_threshold {t.iou_threshold} is below the "
                          f"pair table's floor {table.floor}")
    if t.confidence_threshold < table.conf:
        raise ConfigError(f"confidence_threshold {t.confidence_threshold} is below the "
                          f"pair table's {table.conf}")
    visible = table.score[table.det] >= t.confidence_threshold
    keep = np.flatnonzero((table.iou >= t.iou_threshold) & visible)
    cut = table._replace(gt=table.gt[keep], det=table.det[keep], iou=table.iou[keep])
    return keep[_MATCHERS[algorithm](cut)]


def _results(table: PairTable, matched, t: Thresholds) -> list[MatchingResult]:
    """The :class:`MatchingResult` of each image of the table, from the
    matched pair positions that :func:`match_images` returns: the pairs in
    (gt_id, det_id) order, and the unmatched ground truths and visible
    detections in load order."""
    gt_image = np.repeat(np.arange(table.n_gts.size), table.n_gts)
    det_image = np.repeat(np.arange(table.n_dets.size), table.n_dets)
    gt, det = table.gt[matched], table.det[matched]
    matched = matched[np.lexsort((table.det_id[det], table.gt_id[gt], gt_image[gt]))]
    left = np.ones(table.gt_id.size, dtype=bool)
    left[table.gt[matched]] = False
    shown = table.score >= t.confidence_threshold
    shown[table.det[matched]] = False
    left, shown = np.flatnonzero(left), np.flatnonzero(shown)
    n = table.n_gts.size
    return list(map(
        MatchingResult,
        _split(tuple(_pairs(table, matched)),
               np.bincount(gt_image[table.gt[matched]], minlength=n)),
        _split(table.gt_items.records(table.gt_item[left]),
               np.bincount(gt_image[left], minlength=n)),
        _split(table.det_items.records(table.det_item[shown]),
               np.bincount(det_image[shown], minlength=n))))


def _match_image(gts, dets, t: Thresholds, algorithm: str) -> MatchingResult:
    table = _image_table(gts, dets, t.geometry_mode, t.iou_threshold,
                         t.confidence_threshold, False)
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

    Each unmatched ground truth claims its best remaining candidate; a
    detection claimed by several keeps the best, and the displaced return to
    the pool. Both sides rank candidates by one order (same class, higher
    IoU, higher score, lower det_id, lower gt_id), so the result is the one
    stable matching, the same whichever side proposes.
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
    """Each class id's row or column in a matrix of ``labels``; raises
    :class:`MissingReferenceError` naming a class id that ``labels`` lacks."""
    codes = _positions(labels.ids(), class_ids)
    if (codes < 0).any():
        raise MissingReferenceError(f"unknown category_id {class_ids[codes < 0][0]}")
    return codes


def match_dataset(gt_set, det_set, t: Thresholds, algorithm: str):
    """Run one matcher over every image; returns per-image results in image
    order plus the accumulated matrix."""
    table = image_ious(gt_set, det_set, t.geometry_mode, t.iou_threshold,
                       t.confidence_threshold, False)
    matched, cm = match_images(table, gt_set.label_map, t, algorithm)
    return _results(table, matched, t), cm


def match_images(table: PairTable, labels: LabelMap, t: Thresholds, algorithm: str):
    """:func:`match_dataset` over a :func:`image_ious` table whose floor is at
    most the IoU threshold and which holds every cell at or above the
    confidence threshold. Returns the positions of the matched pairs among
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
