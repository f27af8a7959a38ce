"""Independent references and a seeded scenario generator.

Everything here exists to check the matching and metric code from a second
angle: an exhaustive maximum-matching bound, a straight-line re-transcription
of the IoU-prioritized matcher that shares no code with
:mod:`deteval.matching`, the per-image matchers that :mod:`deteval.matching`
replaced with dataset-wide passes, the greedy global-IoU variant some of the
literature calls "conventional" (provided for comparison, never substituted), the
scalar greedy AP/AR matching loop that :mod:`deteval.metrics` vectorized, the
one-mask-at-a-time polygon rasterizer and run-length window decoder that
:mod:`deteval.geometry` batched, the record-by-record file loaders that
:mod:`deteval.annotations` made column-wise, with their scalar polygon
constructors, the record-by-record writers, rescale and stratified split
that it runs on the item columns, full-grid mask helpers, the scalar box,
mask and pair IoU that :mod:`deteval.matching` and :mod:`deteval.geometry`
batched, the scalar size classification that :mod:`deteval.metrics`
vectorized, the road-damage label map of the paper's twelve classes, and a
generator that fabricates ground truth plus noisy detections from a seed.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .annotations import (
    Annotation,
    Detection,
    DetectionSet,
    GroundTruthSet,
    ImageRecord,
    LabelMap,
    _read_json,
)
from .errors import (
    ConfigError,
    EvalError,
    GeometryError,
    LossyRescaleError,
    MissingReferenceError,
    ParseError,
    ValidationError,
)
from .geometry import (
    MAX_COORD,
    MEDIUM_AREA_MAX,
    SMALL_AREA_MAX,
    BBox,
    InstanceMask,
    Polygon,
    RLEMask,
    MaskColumns,
    SizeClass,
    rle_decode,
    rle_encode,
)
from .matching import (
    ConfusionMatrix,
    MatchingResult,
    MatchPair,
    Thresholds,
    accumulate,
    iou_matrix,
    match_dataset,
)
from .metrics import IOU_SWEEP, RECALL_POINTS, STRATA
from .reports import DeltaStats

MAX_ORACLE_ITEMS = 12
# the paper's twelve road-damage classes, numbered from 1 in this order
ROAD_CLASS_NAMES = ("Crack1", "Crack2", "Joint", "Patching", "Filling", "Pothole", "Manhole",
                    "Stain", "Shadow", "Marking", "Scratch", "Patching2")


def road_labels() -> LabelMap:
    """The label map of :data:`ROAD_CLASS_NAMES`."""
    return LabelMap((i + 1, name) for i, name in enumerate(ROAD_CLASS_NAMES))


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one synthetic image set.

    Detections are derived from the ground truths: each is dropped with
    ``drop_rate``, its box and polygon are perturbed by up to ``jitter_px``,
    its class is swapped with ``class_swap_rate``, and clutter false positives
    appear per ground truth with ``clutter_rate``. Scores are uniform in
    [0.3, 1.0], so some detections fall below a 0.5 confidence threshold.
    """

    seed: int = 0
    image_count: int = 1
    gts_per_image: tuple[int, int] = (2, 6)
    drop_rate: float = 0.0
    jitter_px: float = 0.0
    class_swap_rate: float = 0.0
    clutter_rate: float = 0.0
    class_count: int = 3
    image_size: tuple[int, int] = (96, 96)

    def __post_init__(self):
        for name in ("drop_rate", "jitter_px", "class_swap_rate", "clutter_rate"):
            v = getattr(self, name)
            if v < 0 or (name != "jitter_px" and v > 1):
                raise ConfigError(f"{name} out of range: {v}")
        lo, hi = self.gts_per_image
        if lo < 0 or hi < lo:
            raise ConfigError(f"empty gts_per_image range: {self.gts_per_image}")
        if self.class_count < 1:
            raise ConfigError("class_count must be >= 1")
        if self.image_count < 1:
            raise ConfigError("image_count must be >= 1")


def generate(config: ScenarioConfig) -> tuple[GroundTruthSet, DetectionSet]:
    """Fabricate a ground-truth set and a noisy detection set from a seed."""
    rng = random.Random(config.seed)
    w, h = config.image_size
    labels = LabelMap((i, f"class{i}") for i in range(1, config.class_count + 1))
    other = {
        c: [o for o in labels.ids() if o != c] or [c] for c in labels.ids()
    }

    images, annotations, detections = [], [], []
    ann_id, det_id = 1, 0
    for img_idx in range(1, config.image_count + 1):
        images.append(ImageRecord(img_idx, f"synthetic_{img_idx:05d}.png", w, h))
        n_gts = rng.randint(*config.gts_per_image)
        for _ in range(n_gts):
            bw = rng.uniform(6, max(7, w / 3))
            bh = rng.uniform(6, max(7, h / 3))
            x = rng.uniform(0, w - bw)
            y = rng.uniform(0, h - bh)
            box = BBox(x, y, bw, bh)
            poly = _star_polygon(rng, box)
            mask = InstanceMask(polygons=[poly], canvas=(w, h))
            class_id = rng.randint(1, config.class_count)
            annotations.append(
                Annotation(ann_id, img_idx, class_id, box, mask=mask, area=box.area)
            )

            if rng.random() >= config.drop_rate:
                j = config.jitter_px
                dx, dy = rng.uniform(-j, j), rng.uniform(-j, j)
                dw = max(1.0, bw + rng.uniform(-j, j))
                dh = max(1.0, bh + rng.uniform(-j, j))
                dbox = BBox(
                    min(max(x + dx, 0.0), w - 1.0),
                    min(max(y + dy, 0.0), h - 1.0),
                    dw,
                    dh,
                )
                det_class = class_id
                if rng.random() < config.class_swap_rate:
                    det_class = rng.choice(other[class_id])
                dmask = InstanceMask(
                    polygons=[_fit_polygon(poly, box, dbox)], canvas=None
                )
                detections.append(
                    Detection(
                        det_id, img_idx, det_class, dbox,
                        score=rng.uniform(0.3, 1.0), mask=dmask,
                    )
                )
                det_id += 1

            if rng.random() < config.clutter_rate:
                # clutter clusters near objects, as detector noise does: a
                # shifted, resized copy of this ground truth's box
                off = config.jitter_px + bw / 3
                cw = max(2.0, bw * rng.uniform(0.6, 1.3))
                ch = max(2.0, bh * rng.uniform(0.6, 1.3))
                cbox = BBox(
                    min(max(x + rng.uniform(-off, off), 0.0), w - 1.0),
                    min(max(y + rng.uniform(-off, off), 0.0), h - 1.0),
                    cw,
                    ch,
                )
                cmask = InstanceMask(
                    polygons=[_star_polygon(rng, cbox)], canvas=None
                )
                detections.append(
                    Detection(
                        det_id, img_idx, rng.randint(1, config.class_count), cbox,
                        score=rng.uniform(0.3, 1.0), mask=cmask,
                    )
                )
                det_id += 1
            ann_id += 1

    return GroundTruthSet(images, labels, annotations), DetectionSet(labels, detections)


def _star_polygon(rng: random.Random, box: BBox) -> Polygon:
    """A simple (star-shaped) polygon inside the box."""
    cx, cy = box.x + box.w / 2, box.y + box.h / 2
    k = rng.randint(5, 9)
    angles = sorted(rng.uniform(0, 2 * np.pi) for _ in range(k))
    pts = []
    for a in angles:
        r = rng.uniform(0.55, 0.98)
        pts.append(
            (cx + np.cos(a) * r * box.w / 2, cy + np.sin(a) * r * box.h / 2)
        )
    return polygon_from_points(pts)


def _fit_polygon(poly: Polygon, src: BBox, dst: BBox) -> Polygon:
    """Map a polygon from one box frame to another (shift plus stretch)."""
    sx = dst.w / src.w
    sy = dst.h / src.h
    return polygon_from_points(
        (dst.x + (x - src.x) * sx, dst.y + (y - src.y) * sy)
        for x, y in poly.vertices
    )


# ---------------------------------------------------------------------------
# scalar polygon construction


def polygon_from_points(points) -> Polygon:
    """A polygon of ``(x, y)`` pairs, each coordinate converted by ``float``.

    Every coordinate must be finite and within +-2**53: beyond that no two
    pixels are told apart, and rasterization intermediates overflow.
    """
    xy = np.array([(float(x), float(y)) for x, y in points], dtype=np.float64)
    bad = ~(np.abs(xy) <= MAX_COORD)
    if bad.any():
        raise GeometryError(
            f"polygon coordinate {float(xy[bad][0])} is not a finite number "
            "within +-2**53"
        )
    return Polygon(xy)


def polygon_from_flat(flat) -> Polygon:
    """A polygon of a flat ``[x1, y1, x2, y2, ...]`` coordinate list, with
    the checks of :func:`polygon_from_points`."""
    if len(flat) % 2 != 0:
        raise GeometryError("flat polygon list has odd length")
    it = iter(flat)
    return polygon_from_points(zip(it, it))


# ---------------------------------------------------------------------------
# scalar IoU and full-grid masks


def box_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0.0 when the union is empty."""
    iw = min(a.x2, b.x2) - max(a.x, b.x)
    ih = min(a.y2, b.y2) - max(a.y, b.y)
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    # the true intersection never exceeds either area; clamping keeps the
    # ratio in [0, 1] when x + w - x rounds above w
    inter = min(inter, a.area, b.area)
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def instance_iou(a: InstanceMask, b: InstanceMask) -> float:
    """IoU of two instances placed on a common canvas: their window bit
    grids intersected; :class:`GeometryError` if both canvases are known
    and differ."""
    if None not in (a.canvas, b.canvas) and a.canvas != b.canvas:
        raise GeometryError(f"mask canvases differ: {a.canvas} vs {b.canvas}")
    (p, px, py), (q, qx, qy) = a.window(), b.window()
    x0, x1 = max(px, qx), min(px + p.shape[1], qx + q.shape[1])
    y0, y1 = max(py, qy), min(py + p.shape[0], qy + q.shape[0])
    inter = 0 if x1 <= x0 or y1 <= y0 else int(np.count_nonzero(
        p[y0 - py : y1 - py, x0 - px : x1 - px] & q[y0 - qy : y1 - qy, x0 - qx : x1 - qx]))
    union = a.area + b.area - inter
    return inter / union if union else 0.0


def pair_iou(gt: Annotation, det: Detection, mode: str) -> float:
    """IoU of one ground truth and one detection under the geometry mode.

    In masks mode a pair missing a mask on either side falls back to box IoU.
    """
    if mode == "masks" and gt.mask is not None and det.mask is not None:
        return instance_iou(gt.mask, det.mask)
    return box_iou(gt.bbox, det.bbox)


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """IoU of two equally sized bool grids; 0.0 when both are empty."""
    if a.shape != b.shape:
        raise GeometryError(f"mask dimensions differ: {a.shape} vs {b.shape}")
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a)) + int(np.count_nonzero(b)) - inter
    if union == 0:
        return 0.0
    return inter / union


def rasterize(polygon: Polygon, width: int, height: int) -> np.ndarray:
    """Rasterize one polygon onto a ``width x height`` bool grid anchored at
    the origin, with the batched rasterizer; geometry outside the grid is
    clipped."""
    if width < 1 or height < 1:
        raise GeometryError(f"grid must be at least 1x1, got {width}x{height}")
    return full_grid(polygon_windows([[polygon]], [(width, height)])[0], width, height)


def polygon_windows(polygon_lists, canvases) -> list[tuple[np.ndarray, int, int]]:
    """``(bits, x0, y0)`` of each mask given as a list of polygon rings, with
    its canvas ``(width, height)`` or None, as :meth:`InstanceMask.window`
    returns it: the rings combined by union on the window spanning their
    vertices, clipped to the canvas. The spans of all are computed in
    batched passes."""
    return _windows([InstanceMask(polygons=p, canvas=c)
                     for p, c in zip(polygon_lists, canvases)])


def rle_windows(rles) -> list[tuple[np.ndarray, int, int]]:
    """``(bits, x0, y0)`` of each run-length grid of the list ``rles``, as
    :meth:`InstanceMask.window` returns it: only the rows and columns a grid
    occupies, so an empty grid gives a 0x0 window at the origin, and a
    one-run that wraps onto the next row widens its window to the full
    width. The spans of all are computed in batched passes."""
    return _windows([InstanceMask(rle=r) for r in rles])


def _windows(masks) -> list:
    """The window of each mask or None, the spans of all computed in
    batched passes first."""
    MaskColumns.of(masks).rects()
    return [m and m.window() for m in masks]


def prepare_windows(masks) -> tuple[np.ndarray, np.ndarray, list]:
    """The window columns ``(rects, areas, bits)`` of ``masks``, a list of
    masks or None: each mask's window ``(x0, y0, x1, y1)`` as an ``(N, 4)``
    int64 array and its pixel count (int64), zeros for None, and its
    window's bit grid, or None. The spans of the masks not yet cached are
    computed in batched passes."""
    windows = [w or (None, 0, 0) for w in _windows(masks)]
    rows = np.fromiter(chain.from_iterable(
        (0,) * 5 if m is None else (x, y, x + b.shape[1], y + b.shape[0], m.area)
        for m, (b, x, y) in zip(masks, windows)), np.int64).reshape(-1, 5)
    return rows[:, :4], rows[:, 4], [b for b, _, _ in windows]


def full_grid(window, width: int, height: int) -> np.ndarray:
    """A ``(bits, x0, y0)`` window, as :meth:`InstanceMask.window` returns it,
    placed on a ``width x height`` grid anchored at the origin. The window
    must lie within the grid, as the window of a mask on that canvas does."""
    bits, x0, y0 = window
    full = np.zeros((height, width), dtype=bool)
    full[y0 : y0 + bits.shape[0], x0 : x0 + bits.shape[1]] = bits
    return full


# ---------------------------------------------------------------------------
# exhaustive maximum matching


class InstanceTooLargeError(EvalError):
    """An exhaustive oracle was asked to enumerate an instance beyond its cap."""


def max_matching(
    gts, dets, iou_t: float, class_constrained: bool = False, mode: str = "boxes"
) -> int:
    """Size of a maximum injective pairing with IoU >= iou_t.

    Exact optimum via enumeration over assignments, memoized on the set of
    used detections; capped at 12 x 12 items for feasibility. With
    ``class_constrained`` only same-class pairs are admissible.
    """
    if len(gts) > MAX_ORACLE_ITEMS or len(dets) > MAX_ORACLE_ITEMS:
        raise InstanceTooLargeError(
            f"oracle capped at {MAX_ORACLE_ITEMS}x{MAX_ORACLE_ITEMS}, "
            f"got {len(gts)}x{len(dets)}"
        )
    edges = []
    for g in gts:
        mask = 0
        for j, d in enumerate(dets):
            if class_constrained and g.class_id != d.class_id:
                continue
            if pair_iou(g, d, mode) >= iou_t:
                mask |= 1 << j
        edges.append(mask)

    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        key = (i, used)
        if key not in memo:
            score = best(i + 1, used)  # leave gt i unmatched
            free = edges[i] & ~used
            while free:
                bit = free & -free
                free ^= bit
                score = max(score, 1 + best(i + 1, used | bit))
            memo[key] = score
        return memo[key]

    return best(0, 0)


# ---------------------------------------------------------------------------
# independent transcription of the IoU-prioritized matcher


def reference_conventional(gts, dets, t: Thresholds) -> MatchingResult:
    """Straight-line re-implementation of the IoU-prioritized matcher.

    Shares no code with :func:`deteval.matching.match_conventional`; used for
    differential testing. Ties follow the same documented total order.
    """
    kept_dets = []
    for d in dets:
        if d.score >= t.confidence_threshold:
            kept_dets.append(d)

    rows = []  # (iou, score, det_id, gt_id, gt, det)
    for g in gts:
        for d in kept_dets:
            if t.geometry_mode == "masks" and g.mask is not None and d.mask is not None:
                iou = instance_iou(g.mask, d.mask)
            else:
                gx1, gy1 = g.bbox.x, g.bbox.y
                gx2, gy2 = g.bbox.x + g.bbox.w, g.bbox.y + g.bbox.h
                dx1, dy1 = d.bbox.x, d.bbox.y
                dx2, dy2 = d.bbox.x + d.bbox.w, d.bbox.y + d.bbox.h
                iw = min(gx2, dx2) - max(gx1, dx1)
                ih = min(gy2, dy2) - max(gy1, dy1)
                inter = iw * ih if (iw > 0 and ih > 0) else 0.0
                area_g = (gx2 - gx1) * (gy2 - gy1)
                area_d = (dx2 - dx1) * (dy2 - dy1)
                inter = min(inter, area_g, area_d)
                union = area_g + area_d - inter
                iou = inter / union if union > 0 else 0.0
            if iou >= t.iou_threshold:
                rows.append((iou, d.score, d.det_id, g.ann_id, g, d))

    rows.sort(key=lambda r: (-r[0], -r[1], r[2], r[3]))

    taken_gt = set()
    per_gt_best = []
    for r in rows:
        if r[3] not in taken_gt:
            taken_gt.add(r[3])
            per_gt_best.append(r)

    per_gt_best.sort(key=lambda r: (-r[0], -r[1], r[2], r[3]))
    taken_det = set()
    final = []
    for r in per_gt_best:
        if r[2] not in taken_det:
            taken_det.add(r[2])
            final.append(r)

    matched_gt_ids = set()
    matched_det_ids = set()
    matched = []
    for iou, _score, det_id, gt_id, g, d in final:
        matched.append(MatchPair(g, d, iou, g.class_id == d.class_id))
        matched_gt_ids.add(gt_id)
        matched_det_ids.add(det_id)

    matched.sort(key=lambda p: (p.gt.ann_id, p.det.det_id))
    leftover_gts = tuple(g for g in gts if g.ann_id not in matched_gt_ids)
    leftover_dets = tuple(d for d in kept_dets if d.det_id not in matched_det_ids)
    return MatchingResult(tuple(matched), leftover_gts, leftover_dets)


# ---------------------------------------------------------------------------
# the per-image matchers that the dataset-wide passes of deteval.matching
# replaced, each over one image's IoU matrix


def _candidates(gts, dets, ious, t: Thresholds):
    """The detections at or above the confidence threshold, and their pairs
    at or above the IoU threshold taken from ``ious``, the image's full
    matrix, in (gt, det) order."""
    keep = [j for j, d in enumerate(dets) if d.score >= t.confidence_threshold]
    kept = [dets[j] for j in keep]
    pairs = []
    for i, j in zip(*np.nonzero(ious[:, keep] >= t.iou_threshold)):
        gt, det = gts[i], kept[j]
        iou = float(ious[i, keep[j]])
        pairs.append(MatchPair(gt, det, iou, gt.class_id == det.class_id))
    return kept, pairs


def _pair_order(p: MatchPair):
    # higher IoU, then higher score, then lower det_id, then lower gt_id
    return (-p.iou, -p.det.score, p.det.det_id, p.gt.ann_id)


def image_conventional(gts, dets, ious, t: Thresholds) -> MatchingResult:
    """IoU-prioritized matching of one image, as a sort of its pairs and two
    first-of-each filters over dicts."""
    dets, pairs = _candidates(gts, dets, ious, t)
    pairs.sort(key=_pair_order)

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


def image_modified(gts, dets, ious, t: Thresholds) -> MatchingResult:
    """Class-prioritized matching of one image, as a queue of ground truths
    that each propose down their candidate list until one accepts."""
    dets, pairs = _candidates(gts, dets, ious, t)
    candidates: dict[int, list[MatchPair]] = {}
    for p in pairs:
        candidates.setdefault(p.gt.ann_id, []).append(p)
    for cand in candidates.values():
        # preference of the ground truth: same class first, then best IoU
        cand.sort(key=lambda p: (not p.same_class, -p.iou, -p.det.score, p.det.det_id))

    holder: dict[int, MatchPair] = {}
    cursor = {gid: 0 for gid in candidates}
    queue = deque(gid for gid in (g.ann_id for g in gts) if gid in candidates)
    while queue:
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


def reference_match_images(table, labels: LabelMap, t: Thresholds, algorithm: str):
    """The per-image results of every image of a
    :func:`deteval.matching.image_ious` table under the per-image matcher of
    ``algorithm``, each on its image's :func:`deteval.matching.iou_matrix`
    built again, and their accumulated matrix."""
    matcher = {"conventional": image_conventional, "modified": image_modified}
    matcher = matcher[algorithm]
    g_ends, d_ends = table.n_gts.cumsum(), table.n_dets.cumsum()
    all_gts = table.gt_items.records(table.gt_item)
    all_dets = table.det_items.records(table.det_item)
    results = []
    for g0, g1, d0, d1 in zip(g_ends - table.n_gts, g_ends, d_ends - table.n_dets, d_ends):
        gts, dets = all_gts[g0:g1], all_dets[d0:d1]
        results.append(matcher(gts, dets, iou_matrix(gts, dets, t.geometry_mode), t))
    return results, accumulate(results, labels)


def greedy_iou_matching(gts, dets, t: Thresholds, class_first=False) -> MatchingResult:
    """The global greedy variant: sort all over-threshold pairs by IoU and
    accept a pair when both endpoints are still free.

    Some write-ups call this "conventional"; it differs from the literal
    per-gt/per-det max filtering (which can discard pairs this one keeps), so
    it is provided under its own name and never substituted. With
    ``class_first`` same-class pairs sort first: the modified matcher's
    order, of which this greedy gives the one stable matching.
    """
    from .matching import iou_table  # shared table is fine; steps differ

    dets = [d for d in dets if d.score >= t.confidence_threshold]
    pairs = sorted(
        iou_table(gts, dets, t),
        key=lambda p: (class_first and not p.same_class, -p.iou, -p.det.score,
                       p.det.det_id, p.gt.ann_id),
    )
    used_g, used_d, matched = set(), set(), []
    for p in pairs:
        if p.gt.ann_id in used_g or p.det.det_id in used_d:
            continue
        used_g.add(p.gt.ann_id)
        used_d.add(p.det.det_id)
        matched.append(p)
    matched.sort(key=lambda p: (p.gt.ann_id, p.det.det_id))
    return MatchingResult(
        tuple(matched),
        tuple(g for g in gts if g.ann_id not in used_g),
        tuple(d for d in dets if d.det_id not in used_d),
    )


# ---------------------------------------------------------------------------
# scalar reference for the greedy AP/AR evaluator


def size_class(area: float) -> SizeClass:
    """Classify an area (px^2) into the small/medium/large partition.

    Small is ``area < 32^2``, medium is ``32^2 <= area < 96^2``, large is
    ``area >= 96^2``; the intervals are closed-open so every area lands in
    exactly one class.
    """
    if area < SMALL_AREA_MAX:
        return SizeClass.SMALL
    if area < MEDIUM_AREA_MAX:
        return SizeClass.MEDIUM
    return SizeClass.LARGE


def outside_strata(areas) -> np.ndarray:
    """(S, n) flags: True where an item's area falls outside each size filter
    of :data:`deteval.metrics.STRATA`, by :func:`size_class`."""
    return np.array([[size is not None and size_class(a) != size for a in areas]
                     for size in STRATA], dtype=bool)


def reference_greedy_cell(ious, gt_areas, det_areas, size_filter, max_dets):
    """Greedy matches of one (image, class) cell under one size filter and
    one detection cap, one threshold, detection and ground truth at a time.

    ``ious`` is the (D, G) IoU block with detections in score order. This is
    the scalar loop that :func:`deteval.metrics._greedy` replaced, kept as
    its reference. Returns ``(tp, ignore, n_eligible)``: two (T, min(D, max_dets))
    flag arrays and the in-filter ground-truth count.
    """
    gt_ignore = [
        size_filter is not None and size_class(a) != size_filter for a in gt_areas
    ]
    dets = range(min(len(det_areas), max_dets))
    det_outside = [
        size_filter is not None and size_class(det_areas[di]) != size_filter
        for di in dets
    ]
    # in-filter ground truths are offered first, stably
    gt_order = sorted(range(len(gt_areas)), key=lambda j: (gt_ignore[j], j))
    tp = np.zeros((len(IOU_SWEEP), len(dets)), dtype=bool)
    ignore = np.zeros_like(tp)
    for ti, thr in enumerate(IOU_SWEEP):
        taken = [False] * len(gt_areas)
        for di in dets:
            best_j = -1
            best_iou = thr
            for j in gt_order:
                if taken[j]:
                    continue
                if best_j >= 0 and not gt_ignore[best_j] and gt_ignore[j]:
                    break  # a valid match in hand beats any ignored one
                if ious[di][j] > best_iou or (best_j < 0 and ious[di][j] >= best_iou):
                    best_iou = ious[di][j]
                    best_j = j
            if best_j >= 0:
                taken[best_j] = True
                if gt_ignore[best_j]:
                    ignore[ti, di] = True
                else:
                    tp[ti, di] = True
            elif det_outside[di]:
                ignore[ti, di] = True
    return tp, ignore, gt_ignore.count(False)


def reference_accumulate(gt_set, det_set, class_id, size_filter, max_dets, mode):
    """One class's greedy evaluation rebuilt from the scalar pieces: each
    image's cell through :func:`reference_greedy_cell` with :func:`pair_iou`,
    pooled in score order, with one ``searchsorted`` per threshold.

    Returns ``(precision (T, 101), final_recall (T,), eligible)``, the first
    two as :func:`deteval.metrics._curves` returns them, or None when no
    ground truth is eligible.
    """
    parts, eligible = [], 0
    dets_by_image = det_set.by_image()
    for img in gt_set.images:
        gts = [
            g for g in gt_set.by_image().get(img.image_id, [])
            if g.class_id == class_id
        ]
        dets = sorted(
            (d for d in dets_by_image.get(img.image_id, []) if d.class_id == class_id),
            key=lambda d: (-d.score, d.det_id),
        )[:max_dets]
        ious = [[pair_iou(g, d, mode) for g in gts] for d in dets]
        det_areas = [
            d.mask.area if mode == "masks" and d.mask is not None else d.bbox.area
            for d in dets
        ]
        tp, ignore, n_elig = reference_greedy_cell(
            ious, [g.area for g in gts], det_areas, size_filter, max_dets
        )
        eligible += n_elig
        for pos, d in enumerate(dets):
            parts.append((-d.score, img.image_id, pos, tp[:, pos], ignore[:, pos]))
    if eligible == 0:
        return None
    parts.sort(key=lambda p: p[:3])
    T = len(IOU_SWEEP)
    tp = np.array([p[3] for p in parts], dtype=bool).reshape(-1, T).T
    ignore = np.array([p[4] for p in parts], dtype=bool).reshape(-1, T).T
    counted = ~ignore
    tp_cum = np.cumsum(tp & counted, axis=1).astype(float)
    fp_cum = np.cumsum(~tp & counted, axis=1).astype(float)
    recall = tp_cum / eligible
    denom = tp_cum + fp_cum
    with np.errstate(invalid="ignore", divide="ignore"):
        prec = np.where(denom > 0, tp_cum / denom, 0.0)
    envelope = np.maximum.accumulate(prec[:, ::-1], axis=1)[:, ::-1]
    samples = np.zeros((T, RECALL_POINTS.size))
    for ti in range(T):
        idx = np.searchsorted(recall[ti], RECALL_POINTS, side="left")
        valid = idx < len(parts)
        samples[ti, valid] = envelope[ti, idx[valid]]
    final_recall = recall[:, -1] if parts else np.zeros(T)
    return samples, final_recall, eligible


# ---------------------------------------------------------------------------
# scalar references for mask preparation


def reference_window(mask: InstanceMask) -> tuple[np.ndarray, int, int]:
    """``(bits, x0, y0)`` of one mask, computed one ring or run list at a
    time, as :meth:`InstanceMask.window` computed it before batching."""
    if mask.rle is not None:
        return reference_rle_window(mask.rle)
    xmin = min(float(p.vertices[:, 0].min()) for p in mask.polygons)
    ymin = min(float(p.vertices[:, 1].min()) for p in mask.polygons)
    xmax = max(float(p.vertices[:, 0].max()) for p in mask.polygons)
    ymax = max(float(p.vertices[:, 1].max()) for p in mask.polygons)
    x0, y0 = int(np.floor(xmin)), int(np.floor(ymin))
    x1, y1 = int(np.ceil(xmax)), int(np.ceil(ymax))
    if mask.canvas is not None:
        x0, y0 = max(x0, 0), max(y0, 0)
        x1, y1 = min(x1, mask.canvas[0]), min(y1, mask.canvas[1])
        # a polygon wholly off the canvas gets an empty window
        x1, y1 = max(x1, x0), max(y1, y0)
    bits = reference_raster_window(mask.polygons, x0, y0, x1 - x0, y1 - y0)
    return bits, x0, y0


def reference_rle_window(rle: RLEMask) -> tuple[np.ndarray, int, int]:
    """Decode only the rows and columns a run-length grid occupies.

    Returns ``(bits, x0, y0)`` like :meth:`InstanceMask.window`; an empty
    grid gives a 0x0 window at the origin. A one-run that wraps onto the
    next row spans the full width.
    """
    runs = np.asarray(rle.runs, dtype=np.int64)
    ends = np.cumsum(runs)
    starts, ends = (ends - runs)[1::2], ends[1::2]
    nonempty = ends > starts
    starts, ends = starts[nonempty], ends[nonempty]
    if starts.size == 0:
        return np.zeros((0, 0), dtype=bool), 0, 0
    w = rle.width
    r0, r1 = int(starts[0] // w), int((ends[-1] - 1) // w) + 1
    if np.all(starts // w == (ends - 1) // w):
        c0, c1 = int((starts % w).min()), int(((ends - 1) % w).max()) + 1
    else:
        c0, c1 = 0, w
    # the band of occupied rows: alternating zero and one runs between its
    # first pixel, each one-run's start and end, and its last pixel
    bounds = np.empty(2 * starts.size + 2, dtype=np.int64)
    bounds[0], bounds[-1] = r0 * w, r1 * w
    bounds[1:-1:2], bounds[2:-1:2] = starts, ends
    values = np.zeros(bounds.size - 1, dtype=bool)
    values[1::2] = True
    band = np.repeat(values, np.diff(bounds)).reshape(r1 - r0, w)
    return band[:, c0:c1].copy(), c0, r0


def reference_raster_window(polygons, x0: int, y0: int, width: int, height: int) -> np.ndarray:
    """Rasterize a union of polygon rings onto the window whose top-left
    pixel is ``(x0, y0)`` in polygon coordinates, one ring at a time.

    Each ring is filled independently under the even-odd rule (a pixel center
    is inside when an odd number of edge crossings lie strictly to its right);
    rings are then combined by union. Returns a ``(height, width)`` bool grid.
    """
    acc = np.zeros((height, width), dtype=bool)
    if width <= 0 or height <= 0:
        return acc
    for poly in polygons:
        if len(poly.vertices) < 3:
            raise GeometryError(
                f"invalid polygon: {len(poly.vertices)} vertices (need >= 3)"
            )
        vx = np.array([v[0] - x0 for v in poly.vertices], dtype=float)
        vy = np.array([v[1] - y0 for v in poly.vertices], dtype=float)
        x1, y1 = vx, vy
        x2, y2 = np.roll(vx, -1), np.roll(vy, -1)
        sloped = y1 != y2  # horizontal edges never cross a scanline
        if not sloped.any():
            continue
        x1, y1, x2, y2 = x1[sloped], y1[sloped], x2[sloped], y2[sloped]

        ylo = np.minimum(y1, y2)
        yhi = np.maximum(y1, y2)
        # Rows whose center yc = r + 0.5 satisfies ylo <= yc < yhi.
        r0 = np.maximum(np.ceil(ylo - 0.5), 0).astype(np.int64)
        r1 = np.minimum(np.ceil(yhi - 0.5), height).astype(np.int64)
        counts = np.maximum(r1 - r0, 0)
        total = int(counts.sum())
        if total == 0:
            continue
        edge_idx = np.repeat(np.arange(len(counts)), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        rows = np.arange(total) - np.repeat(offsets, counts) + np.repeat(r0, counts)

        yc = rows + 0.5
        tparam = (yc - y1[edge_idx]) / (y2 - y1)[edge_idx]
        xc = x1[edge_idx] + tparam * (x2 - x1)[edge_idx]
        # Pixel center j + 0.5 counts a crossing iff j + 0.5 < xc, i.e.
        # j < xc - 0.5: that is columns [0, ceil(xc - 0.5)).
        jend = np.ceil(xc - 0.5).astype(np.int64)
        np.clip(jend, 0, width, out=jend)
        keep = jend > 0
        rows, jend = rows[keep], jend[keep]

        diff = np.zeros((height, width + 1), dtype=np.int32)
        np.add.at(diff, (rows, np.zeros_like(jend)), 1)
        np.subtract.at(diff, (rows, jend), 1)
        inside = (np.cumsum(diff, axis=1)[:, :width] & 1).astype(bool)
        acc |= inside
    return acc


# ---------------------------------------------------------------------------
# conventional-vs-modified comparison


def compare(configs, t: Thresholds) -> DeltaStats:
    """Run both matchers over every scenario and aggregate the deltas."""
    labels = None
    conv_total = mod_total = None
    count = 0
    for cfg in configs:
        gt_set, det_set = generate(cfg)
        if labels is None:
            labels = gt_set.label_map
            conv_total = ConfusionMatrix(labels)
            mod_total = ConfusionMatrix(labels)
        elif gt_set.label_map != labels:
            raise ConfigError("compare needs a uniform class_count across configs")
        conv_total.counts += match_dataset(gt_set, det_set, t, "conventional")[1].counts
        mod_total.counts += match_dataset(gt_set, det_set, t, "modified")[1].counts
        count += 1
    if labels is None:
        raise ConfigError("compare needs at least one scenario config")
    return DeltaStats.from_matrices(conv_total, mod_total, labels, count)


# ---------------------------------------------------------------------------
# scalar reference loaders
#
# The record-by-record loaders that :mod:`deteval.annotations` replaced with
# column-wise ones. They accept some values the column-wise loaders refuse:
# integers given as bools, strings or fractional floats (truncated), numbers
# given as bools or numeric strings, integers of 2**53 or more in magnitude,
# polygon rings and RLE sizes or counts that are not arrays, and ``iscrowd``
# other than 0 (ignored). An integer polygon coordinate beyond the float
# range raises OverflowError.


def _parse_bbox(raw, where: str) -> BBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ParseError(f"{where}: bbox must be [x, y, w, h]")
    try:
        x, y, w, h = (float(v) for v in raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: non-numeric bbox") from exc
    if not all(map(math.isfinite, (x, y, w, h))):
        raise GeometryError(f"{where}: non-finite bbox {[x, y, w, h]}")
    if w < 0 or h < 0:
        raise GeometryError(f"{where}: negative bbox extent")
    return BBox(x, y, w, h)


def _parse_mask(raw, where: str, canvas) -> InstanceMask | None:
    if raw is None:
        return None
    if isinstance(raw, list):
        if not raw:
            return None
        try:
            polys = [polygon_from_flat(p) for p in raw]
        except (TypeError, ValueError, GeometryError) as exc:
            raise GeometryError(f"{where}: bad polygon segmentation: {exc}") from exc
        for poly in polys:
            if len(poly.vertices) < 3:
                raise GeometryError(
                    f"{where}: polygon has {len(poly.vertices)} vertices (need >= 3)"
                )
        return InstanceMask(polygons=polys, canvas=canvas)
    if isinstance(raw, dict):
        try:
            h, w = (int(v) for v in raw["size"])
            rle = RLEMask(w, h, _parse_counts(raw["counts"]))
            return InstanceMask(rle=rle, canvas=canvas)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: bad RLE segmentation") from exc
        except GeometryError as exc:
            raise GeometryError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}: segmentation must be polygon list or RLE object")


def _parse_counts(raw) -> np.ndarray:
    """RLE counts as one int64 array, each count converted as ``int``
    converts it. Raises OverflowError for a count beyond int64."""
    if type(raw) is list:
        try:
            counts = np.array(raw)
        except ValueError:  # lists nested to uneven depths
            counts = None
        # a list of ints (bools count as ints) converts in one call
        if counts is not None and counts.dtype == np.int64 and counts.ndim == 1:
            return counts
    return np.array([int(c) for c in raw], dtype=np.int64)


def _parse_area(raw, where: str) -> float:
    try:
        area = float(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: non-numeric area {raw!r}") from exc
    if not math.isfinite(area):
        raise GeometryError(f"{where}: non-finite area {area}")
    return area


def _clamp_bbox(bbox: BBox, image: ImageRecord) -> BBox:
    x0 = min(max(bbox.x, 0.0), float(image.width))
    y0 = min(max(bbox.y, 0.0), float(image.height))
    x1 = min(max(bbox.x2, 0.0), float(image.width))
    y1 = min(max(bbox.y2, 0.0), float(image.height))
    # an extent with neither end clamped keeps its given size
    w = bbox.w if (x0, x1) == (bbox.x, bbox.x2) else x1 - x0
    h = bbox.h if (y0, y1) == (bbox.y, bbox.y2) else y1 - y0
    return BBox(x0, y0, w, h)


def reference_load_ground_truth(path) -> GroundTruthSet:
    """Load and fully validate a ground-truth file."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: ground truth must be a JSON object")
    for key in ("images", "annotations", "categories"):
        if key not in raw or not isinstance(raw[key], list):
            raise ParseError(f"{path}: missing or non-array '{key}'")

    label_map = _label_map(raw["categories"], path)

    images = []
    for k, entry in enumerate(raw["images"]):
        where = f"{path}: image at index {k}"
        img = _image(
            _req(entry, "id", where, int),
            _req(entry, "file_name", where, _string),
            _req(entry, "width", where, int),
            _req(entry, "height", where, int),
        )
        images.append(img)

    by_id = {}
    for img in images:
        if img.image_id in by_id:
            raise ValidationError(f"duplicate image id {img.image_id}")
        by_id[img.image_id] = img

    annotations = []
    for k, entry in enumerate(raw["annotations"]):
        ann_id = _req(entry, "id", f"{path}: annotation at index {k}", int)
        where = f"annotation {ann_id}"
        image_id = _req(entry, "image_id", where, int)
        if image_id not in by_id:
            raise MissingReferenceError(f"{where}: unknown image_id {image_id}")
        image = by_id[image_id]
        class_id = _req(entry, "category_id", where, int)
        if class_id not in label_map:
            raise MissingReferenceError(f"{where}: unknown category_id {class_id}")
        bbox = _clamp_bbox(_parse_bbox(_req(entry, "bbox", where), where), image)
        mask = _parse_mask(
            entry.get("segmentation"), where, (image.width, image.height)
        )
        area = entry.get("area")
        if area is not None:
            area = _parse_area(area, where)
        elif mask is None:
            area = bbox.area
        # an area still None is taken from the mask by _finish
        annotations.append(
            Annotation(
                ann_id=ann_id,
                image_id=image_id,
                class_id=class_id,
                bbox=bbox,
                mask=mask,
                area=area,
            )
        )

    return _finish(
        images, label_map, annotations, lambda k: f"annotation {annotations[k].ann_id}"
    )


def reference_load_vott(path, labels: LabelMap | None = None) -> GroundTruthSet:
    """Load a VoTT-subset export as a one-image ground-truth set.

    Region ``k`` becomes the polygon annotation ``k + 1``, classed by its
    first tag and boxed by its points' bounds clipped to the asset. Without
    ``labels``, the classes are the tags in order of first use, numbered
    from 1.
    """
    raw = _read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("regions"), list):
        raise ParseError(f"{path}: expected a VoTT export with asset and regions")
    asset = _req(raw, "asset", path)
    size = _req(asset, "size", f"{path}: asset")
    width = _req(size, "width", f"{path}: asset.size", int)
    height = _req(size, "height", f"{path}: asset.size", int)
    name = _req(asset, "name", f"{path}: asset", _string) if "name" in asset else ""
    image = _image(1, name or Path(path).stem + ".png", width, height)

    class_ids = {} if labels is None else {name: i for i, name in labels.entries}
    annotations = []
    for idx, region in enumerate(raw["regions"]):
        where = f"{path}: region {idx}"
        if not isinstance(region, dict):
            raise ParseError(f"{where} is not an object")
        tags = region.get("tags") or []
        try:
            if not isinstance(tags, list):
                raise TypeError(tags)
            tags = [_string(t) for t in tags]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: tags must be an array of strings") from exc
        if not tags:
            raise ParseError(f"{where} has no tags")
        if labels is None:  # classes numbered in order of first use
            for tag in tags:
                class_ids.setdefault(tag, len(class_ids) + 1)
        class_id = class_ids.get(tags[0])
        if class_id is None:
            raise ParseError(f"{where} tag {tags[0]!r} not in label map")
        points = region.get("points") or []
        try:
            poly = polygon_from_points((p["x"], p["y"]) for p in points)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where} has malformed points") from exc
        except GeometryError as exc:
            raise GeometryError(f"{where}: {exc}") from exc
        if len(poly.vertices) < 3:
            raise ParseError(f"{where} needs at least 3 points")
        (x0, y0), (x1, y1) = poly.vertices.min(0).tolist(), poly.vertices.max(0).tolist()
        x0, y0 = max(x0, 0.0), max(y0, 0.0)
        x1, y1 = min(x1, float(width)), min(y1, float(height))
        if x1 <= x0 or y1 <= y0:
            raise ParseError(f"{where} lies outside the image")
        mask = InstanceMask(polygons=[poly], canvas=(width, height))
        bbox = BBox(x0, y0, x1 - x0, y1 - y0)
        annotations.append(Annotation(idx + 1, 1, class_id, bbox, mask, area=None))

    if labels is None:
        if not class_ids:
            raise ParseError(f"{path}: no tags found in regions")
        labels = LabelMap((i, tag) for tag, i in class_ids.items())
    return _finish([image], labels, annotations, lambda k: f"{path}: region {k}")


def _image(image_id, file_name, width, height) -> ImageRecord:
    """The image record, once its width and height are at least 1."""
    if width < 1 or height < 1:
        raise ValidationError(
            f"image {image_id}: dimensions must be >= 1, got {width}x{height}"
        )
    return ImageRecord(image_id, file_name, width, height)


def _finish(images, label_map, annotations, name) -> GroundTruthSet:
    """The ground-truth set of loaded records, once every annotation's area
    is known and positive and every annotation id is unique.

    An area still None is taken from the annotation's mask; each image's
    such masks are prepared in one batch. ``name(k)`` names annotation ``k``
    in an error.
    """
    unsized = [k for k, ann in enumerate(annotations) if ann.area is None]
    masks_by_image: dict[int, list[InstanceMask]] = {}
    for k in unsized:
        masks_by_image.setdefault(annotations[k].image_id, []).append(annotations[k].mask)
    for masks in masks_by_image.values():
        prepare_windows(masks)
    for k in unsized:
        annotations[k] = replace(annotations[k], area=float(annotations[k].mask.area))

    seen = set()
    for k, ann in enumerate(annotations):
        if ann.ann_id in seen:
            raise ValidationError(f"{name(k)}: ann_id occurs more than once")
        seen.add(ann.ann_id)
        if not ann.area > 0:
            raise GeometryError(f"{name(k)}: area is {ann.area} (must be > 0)")
    return GroundTruthSet(images, label_map, annotations)


def reference_load_detections(path, labels: LabelMap, images=()) -> DetectionSet:
    """Load a detections file (COCO results-compatible JSON array).

    ``images`` are the ground truth's image records. A detection on one of
    them gets the image as its mask canvas, so its polygons are rasterized
    within the image, as the ground truth's are.
    """
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: detections must be a JSON array")
    canvases = {img.image_id: (img.width, img.height) for img in images}
    detections = []
    for idx, entry in enumerate(raw):
        where = f"detection {idx}"
        class_id = _req(entry, "category_id", where, int)
        if class_id not in labels:
            raise MissingReferenceError(f"{where}: unknown category_id {class_id}")
        score = _req(entry, "score", where, float)
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"{where}: score {score} outside [0, 1]")
        image_id = _req(entry, "image_id", where, int)
        bbox = _parse_bbox(_req(entry, "bbox", where), where)
        mask = _parse_mask(entry.get("segmentation"), where, canvases.get(image_id))
        detections.append(
            Detection(
                det_id=idx,
                image_id=image_id,
                class_id=class_id,
                bbox=bbox,
                score=score,
                mask=mask,
            )
        )
    return DetectionSet(labels, detections)


def _req(entry, key, where, convert=None):
    """``entry[key]``, converted by ``convert`` when given. Raises ParseError
    naming the record ``where`` when the key is missing or the value does not
    convert."""
    if not isinstance(entry, dict) or key not in entry:
        raise ParseError(f"{where}: missing '{key}'")
    if convert is None:
        return entry[key]
    try:
        return convert(entry[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(
            f"{where}: '{key}' is {entry[key]!r}, "
            f"not a valid {convert.__name__.lstrip('_')}"
        ) from exc


def _string(value) -> str:
    """``value`` when it is a string with a UTF-8 form, which a lone
    surrogate read from a JSON ``\\ud800`` escape lacks."""
    str.encode(value, "utf-8")  # TypeError for a non-string
    return value


def _label_map(records, path) -> LabelMap:
    """A label map from ``{"id", "name"}`` records, each named by its index."""
    entries = []
    for k, entry in enumerate(records):
        where = f"{path}: category at index {k}"
        class_id = _req(entry, "id", where, int)
        entries.append((class_id, _req(entry, "name", where, _string)))
    return LabelMap(entries)


# ---------------------------------------------------------------------------
# record-by-record writers, rescale and split, which deteval.annotations
# runs on the item columns


def reference_to_json(dataset):
    """The JSON document of a ground-truth or detection set, written from
    its records one at a time."""
    if isinstance(dataset, DetectionSet):
        return [_det_to_json(d) for d in dataset.detections]
    return {
        "images": [
            {"id": im.image_id, "file_name": im.file_name, "width": im.width,
             "height": im.height}
            for im in dataset.images
        ],
        "annotations": [_ann_to_json(a) for a in dataset.annotations],
        "categories": dataset.label_map.to_json(),
    }


def _ann_to_json(a: Annotation) -> dict:
    out = {
        "id": a.ann_id,
        "image_id": a.image_id,
        "category_id": a.class_id,
        "bbox": [a.bbox.x, a.bbox.y, a.bbox.w, a.bbox.h],
        "area": a.area,
    }
    if a.mask is not None:
        out["segmentation"] = _mask_to_json(a.mask)
    return out


def _det_to_json(d: Detection) -> dict:
    out = {
        "image_id": d.image_id,
        "category_id": d.class_id,
        "bbox": [d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h],
        "score": d.score,
    }
    if d.mask is not None:
        out["segmentation"] = _mask_to_json(d.mask)
    return out


def _mask_to_json(mask: InstanceMask):
    if mask.polygons is not None:
        return [p.vertices.ravel().tolist() for p in mask.polygons]
    return {
        "size": [mask.rle.height, mask.rle.width],
        "counts": mask.rle.runs.tolist(),
    }


def reference_rescale(dataset, to_width: int, to_height: int, *, images=None,
                      force: bool = False):
    """:func:`deteval.annotations.rescale`, one record at a time: each
    record is scaled in order, so the first faulty one raises; then the
    ground truths' areas are recomputed and checked as on loading."""
    if not (1 <= to_width < 2**53 and 1 <= to_height < 2**53):
        raise ConfigError(f"target size must be in [1, 2**53), got {to_width}x{to_height}")
    if isinstance(dataset, GroundTruthSet):
        source = {img.image_id: img for img in dataset.images}
    elif isinstance(dataset, DetectionSet):
        if images is None:
            raise ConfigError("rescaling detections requires the image table")
        source = {im.image_id: im for im in images}
    else:
        raise ConfigError(f"cannot rescale object of type {type(dataset).__name__}")

    def scaled(item, where):
        img = source.get(item.image_id)
        if img is None:
            raise MissingReferenceError(f"unknown image_id {item.image_id} during rescale")
        sx, sy = to_width / img.width, to_height / img.height
        mask = _rescale_mask(item.mask, sx, sy, (to_width, to_height), force, where)
        box = BBox(item.bbox.x * sx, item.bbox.y * sy, item.bbox.w * sx, item.bbox.h * sy)
        return replace(item, bbox=box, mask=mask)

    if isinstance(dataset, DetectionSet):
        return DetectionSet(dataset.label_map, [
            scaled(det, f"detection {det.det_id}") for det in dataset.detections])
    anns = [scaled(ann, f"annotation {ann.ann_id}") for ann in dataset.annotations]
    anns = [replace(a, area=float(a.mask.area) if a.mask is not None else a.bbox.area)
            for a in anns]
    return _finish(
        [replace(im, width=to_width, height=to_height) for im in dataset.images],
        dataset.label_map, anns, lambda k: f"annotation {anns[k].ann_id}")


def _rescale_mask(mask, sx, sy, canvas, force, where):
    if mask is None:
        return None
    if mask.polygons is not None:
        return InstanceMask(polygons=[Polygon(p.vertices * (sx, sy)) for p in mask.polygons],
                            canvas=canvas)
    if not force:
        raise LossyRescaleError(
            f"{where}: RLE-only mask cannot be rescaled from polygons; "
            "pass force to resample"
        )
    bits = rle_decode(mask.rle)
    src_h, src_w = bits.shape
    to_w, to_h = canvas
    rows = np.minimum(((np.arange(to_h) + 0.5) * src_h / to_h).astype(int), src_h - 1)
    cols = np.minimum(((np.arange(to_w) + 0.5) * src_w / to_w).astype(int), src_w - 1)
    resampled = bits[rows][:, cols]
    return InstanceMask(rle=rle_encode(resampled), canvas=canvas)


def reference_stratified_split(dataset: GroundTruthSet, ratios, seed: int):
    """:func:`deteval.annotations.stratified_split`, walking the records
    image by image."""
    if not dataset.images:
        raise ConfigError("cannot split an empty ground-truth set")
    ratio_list = [ratios.train, ratios.val, ratios.test]

    totals = dataset.per_class_counts()
    targets = [
        {cid: r * n for cid, n in totals.items()} for r in ratio_list
    ]
    assigned = [{cid: 0 for cid in totals} for _ in ratio_list]

    order = sorted(dataset.images, key=lambda im: im.image_id)
    rng = random.Random(seed)
    rng.shuffle(order)

    by_image = dataset.by_image()
    assignment: dict[int, int] = {}
    for img in order:
        anns = by_image.get(img.image_id, [])
        classes_here = sorted({a.class_id for a in anns})
        best = None
        for s in range(3):
            deficit = sum(targets[s][c] - assigned[s][c] for c in classes_here)
            key = (deficit, ratio_list[s], -s)
            if best is None or key > best[0]:
                best = (key, s)
        split = best[1]
        assignment[img.image_id] = split
        for ann in anns:
            assigned[split][ann.class_id] += 1

    parts = []
    for s in range(3):
        imgs = [im for im in dataset.images if assignment[im.image_id] == s]
        ids = {im.image_id for im in imgs}
        anns = [a for a in dataset.annotations if a.image_id in ids]
        parts.append(GroundTruthSet(imgs, dataset.label_map, anns))
    return tuple(parts)
