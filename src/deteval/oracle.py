"""Independent references and a seeded scenario generator.

Everything here exists to check the matching and metric code from a second
angle: an exhaustive maximum-matching bound, a straight-line re-transcription
of the IoU-prioritized matcher that shares no code with
:mod:`deteval.matching`, the greedy global-IoU variant some of the literature
calls "conventional" (provided for comparison, never substituted), the
scalar greedy AP/AR matching loop that :mod:`deteval.metrics` vectorized, the
one-mask-at-a-time polygon rasterizer and run-length window decoder that
:mod:`deteval.geometry` batched, full-grid mask helpers, the scalar pair IoU,
and a generator that fabricates ground truth plus noisy detections from a
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .annotations import (
    Annotation,
    Detection,
    DetectionSet,
    GroundTruthSet,
    ImageRecord,
    LabelMap,
)
from .errors import ConfigError, GeometryError, InstanceTooLargeError
from .geometry import (
    BBox,
    InstanceMask,
    Polygon,
    RLEMask,
    _raster_rings,
    _ring_arrays,
    box_iou,
    size_class,
)
from .matching import (
    ConfusionMatrix,
    MatchingResult,
    MatchPair,
    Thresholds,
    accumulate,
    match_conventional,
    match_modified,
)
from .metrics import IOU_SWEEP, RECALL_POINTS
from .reports import DeltaStats

MAX_ORACLE_ITEMS = 12


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
    return Polygon.from_points(pts)


def _fit_polygon(poly: Polygon, src: BBox, dst: BBox) -> Polygon:
    """Map a polygon from one box frame to another (shift plus stretch)."""
    sx = dst.w / src.w
    sy = dst.h / src.h
    return Polygon.from_points(
        (dst.x + (x - src.x) * sx, dst.y + (y - src.y) * sy)
        for x, y in poly.vertices
    )


# ---------------------------------------------------------------------------
# scalar IoU and full-grid masks


def pair_iou(gt: Annotation, det: Detection, mode: str) -> float:
    """IoU of one ground truth and one detection under the geometry mode.

    In masks mode a pair missing a mask on either side falls back to box IoU.
    """
    if mode == "masks" and gt.mask is not None and det.mask is not None:
        return gt.mask.iou(det.mask)
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
    rect = np.array([[0, 0, width, height]], dtype=np.int64)
    return _raster_rings(*_ring_arrays([[polygon]]), rect)[0]


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
                iou = g.mask.iou(d.mask)
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


def greedy_iou_matching(gts, dets, t: Thresholds) -> MatchingResult:
    """The global greedy variant: sort all over-threshold pairs by IoU and
    accept a pair when both endpoints are still free.

    Some write-ups call this "conventional"; it differs from the literal
    per-gt/per-det max filtering (which can discard pairs this one keeps), so
    it is provided under its own name and never substituted.
    """
    from .matching import iou_table  # shared table is fine; steps differ

    dets = [d for d in dets if d.score >= t.confidence_threshold]
    pairs = sorted(
        iou_table(gts, dets, t),
        key=lambda p: (-p.iou, -p.det.score, p.det.det_id, p.gt.ann_id),
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


def reference_greedy_cell(ious, gt_areas, det_areas, size_filter, max_dets):
    """Greedy matches of one (image, class) cell under one size filter and
    one detection cap, one threshold, detection and ground truth at a time.

    ``ious`` is the (D, G) IoU block with detections in score order. This is
    the scalar loop :func:`deteval.metrics.greedy_cell` replaced, kept as its
    reference. Returns ``(tp, ignore, n_eligible)``: two (T, min(D, max_dets))
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
    xmin = min(p.bounds()[0] for p in mask.polygons)
    ymin = min(p.bounds()[1] for p in mask.polygons)
    xmax = max(p.bounds()[2] for p in mask.polygons)
    ymax = max(p.bounds()[3] for p in mask.polygons)
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
        dets_by_image = det_set.by_image()
        for img in gt_set.images:
            gts = gt_set.by_image().get(img.image_id, [])
            dets = dets_by_image.get(img.image_id, [])
            conv_total.counts += accumulate(
                [match_conventional(gts, dets, t)], labels
            ).counts
            mod_total.counts += accumulate(
                [match_modified(gts, dets, t)], labels
            ).counts
        count += 1
    if labels is None:
        raise ConfigError("compare needs at least one scenario config")
    return DeltaStats.from_matrices(conv_total, mod_total, labels, count)
