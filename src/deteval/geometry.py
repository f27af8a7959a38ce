"""Pure geometric kernels.

Boxes, mask spans, the IoU of (gt, det) pairs of boxes (:func:`box_ious`) and of
masks (:func:`mask_ious`), a run-length mask codec, and the small/medium/large
area bounds. All operations are stateless and safe to call concurrently, except
that an :class:`InstanceMask` caches its spans.

A mask is read as row spans, runs of its pixels in one row, with no bit grid:
:class:`MaskColumns` holds a set's masks as columns and gives their windows,
pixel counts and spans in bounded passes, and :func:`mask_ious` joins the spans
of the pairs whose windows overlap. :meth:`InstanceMask.window` fills a mask's
spans into its bit grid, which ``oracle.instance_iou``, the scalar reference,
intersects.

Conventions:
  * Boxes are ``(x, y, w, h)`` with a top-left origin; corners are ``x + w``
    and ``y + h``.
  * A pixel ``(row i, col j)`` covers the unit square ``[j, j+1) x [i, i+1)``
    and is rasterized from its center ``(j + 0.5, i + 0.5)`` under the
    even-odd rule.
  * Run-length masks are row-major and always start with the count of zeros,
    so an all-ones mask encodes as ``[0, n]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GeometryError

SMALL_AREA_MAX = 32 * 32
MEDIUM_AREA_MAX = 96 * 96


class SizeClass(str, Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box ``(x, y, w, h)`` in pixel coordinates."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise GeometryError(f"negative box extent: w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h


def box_ious(a, b, i, j) -> np.ndarray:
    """The IoU (``oracle.box_iou``) of each pair of box ``i[p]`` of the ``(N, 4)`` boxes
    ``a`` and box ``j[p]`` of ``b``, in the scalar reference's operation order."""
    (ax, ay, aw, ah), (bx, by, bw, bh) = a.take(i, 0).T, b.take(j, 0).T
    # overflow to inf is silent, as in the scalar float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        area_a, area_b = aw * ah, bw * bh
        iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
        ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
        inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
        inter = np.minimum(np.minimum(inter, area_a), area_b)
        union = (area_a + area_b) - inter
        return np.divide(inter, union, out=np.zeros_like(inter), where=~(union <= 0))


# the bound on a polygon coordinate's magnitude: beyond it no two pixels are
# told apart, and rasterization intermediates overflow
MAX_COORD = 2.0**53


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``; one that is already
    such an array is kept, not copied."""
    if not (isinstance(values, np.ndarray) and values.dtype == dtype
            and not values.flags.writeable):
        values = np.array(values, dtype=dtype)
        values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class Polygon:
    """A closed polygon ring; the last vertex implicitly connects to the first.

    ``vertices`` is one read-only ``(V, 2)`` float64 array; one given as a
    read-only float64 array is kept, not copied, so a loaded file's polygons
    are views into one buffer of all its coordinates.
    Vertex-count validity (>= 3) is checked where it matters (rasterization,
    dataset validation) so that malformed records stay representable and
    reportable.
    """

    vertices: np.ndarray

    def __post_init__(self):
        xy = _read_only(self.vertices, np.float64)
        object.__setattr__(self, "vertices", xy.reshape(-1, 2))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return bool(np.array_equal(self.vertices, other.vertices))

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which it equals
        return hash((self.vertices + 0.0).tobytes())


@dataclass(frozen=True, eq=False)
class RLEMask:
    """Run-length encoded mask: alternating zero/one run counts in row-major
    order, starting with the zero count.

    ``runs`` is one read-only int64 array; one given as such is kept, not
    copied, so a loaded file's grids are views into one buffer of all its
    counts. Every run must be non-negative and the runs must sum to
    ``width * height``.
    """

    width: int
    height: int
    runs: np.ndarray

    def __post_init__(self):
        runs = _read_only(self.runs, np.int64)
        object.__setattr__(self, "runs", runs)
        if runs.ndim != 1:
            raise GeometryError(f"runs must be a flat list, got shape {runs.shape}")
        fault = RLEMask.fault([(self.width, self.height)], runs, [0, runs.size])
        if fault is not None:
            raise GeometryError(fault[1])

    @staticmethod
    def fault(sizes, runs, bounds) -> tuple[int, str] | None:
        """The index and text of the first grid k (``sizes[k]``, with the runs
        ``runs[bounds[k]:bounds[k + 1]]``) with a negative size or run, or runs
        not summing to ``width * height``; or None."""
        runs, bounds = np.asarray(runs, dtype=np.int64), np.asarray(bounds, dtype=np.int64)
        w, h = np.asarray(sizes, dtype=np.int64).reshape(-1, 2).T
        # each grid's sum and partial sums, exact modulo 2**64 in int64; the
        # runs are non-negative, so an int64 overflow shows as a negative
        # partial sum
        ends = np.zeros(runs.size + 1, dtype=np.int64)
        np.cumsum(runs, out=ends[1:])
        before = ends[bounds[:-1]]
        total = ends[bounds[1:]] - before
        ends[1:] -= before.repeat(bounds[1:] - bounds[:-1])
        # run position p is in grid searchsorted(bounds, p, "right") - 1
        negative_run = np.zeros(w.size, dtype=bool)
        negative_run[np.searchsorted(bounds, (runs < 0).nonzero()[0], "right") - 1] = True
        corrupt = total != w * h
        corrupt[np.searchsorted(bounds, (ends[1:] < 0).nonzero()[0], "right") - 1] = True
        # a pixel count beyond int64 is no sum of runs that did not overflow
        corrupt |= (h > 0) & (w > np.iinfo(np.int64).max // np.maximum(h, 1))
        bad = np.flatnonzero((w < 0) | (h < 0) | negative_run | corrupt)
        if not bad.size:
            return None
        k = int(bad[0])
        if w[k] < 0 or h[k] < 0:
            return k, f"negative mask size {w[k]}x{h[k]}"
        if negative_run[k]:
            return k, "negative run length"
        grid_sum = sum(runs[bounds[k] : bounds[k + 1]].tolist())
        return k, f"corrupt mask: runs sum to {grid_sum}, expected {int(w[k]) * int(h[k])}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RLEMask):
            return NotImplemented
        return ((self.width, self.height) == (other.width, other.height)
                and bool(np.array_equal(self.runs, other.runs)))

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.runs.tobytes()))

    @property
    def area(self) -> int:
        return int(self.runs[1::2].sum())


def rle_encode(bits) -> RLEMask:
    """Run-length encode a 2-D bool grid."""
    bits = np.asarray(bits, dtype=bool)
    return RLEMask(bits.shape[1], bits.shape[0], _runs(bits.ravel()))


def rle_decode(rle: RLEMask) -> np.ndarray:
    """The full ``(height, width)`` bool grid of a run-length mask."""
    return _bits(rle.runs).reshape(rle.height, rle.width)


def _runs(flat) -> np.ndarray:
    """The runs of the flat bool grid ``flat``, the first a count of zeros."""
    change = np.flatnonzero(np.diff(flat, prepend=False))
    return np.diff(change, prepend=0, append=flat.size) if flat.size else change


def _bits(runs) -> np.ndarray:
    """The flat bool grid of ``runs``."""
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs)


def resampled_runs(runs, size, canvas) -> np.ndarray:
    """The runs of the grid ``runs``, ``size`` ``(width, height)``, resampled
    onto ``canvas`` by nearest neighbor."""
    (src_w, src_h), (to_w, to_h) = size, canvas
    rows = np.minimum(((np.arange(to_h) + 0.5) * src_h / to_h).astype(int), src_h - 1)
    cols = np.minimum(((np.arange(to_w) + 0.5) * src_w / to_w).astype(int), src_w - 1)
    return _runs(_bits(runs).reshape(src_h, src_w)[rows][:, cols].ravel())


# a span pass takes masks, or pairs, of at most this many rows (see MaskColumns.rows), a
# pass that bounds grids as many runs: it bounds their temporaries; one with more is alone
SPAN_CHUNK_ROWS = 1 << 15
_NO_SPANS = (np.empty(0, dtype=np.int64),) * 4


def _chunks(rows) -> list[tuple[int, int]]:
    """``(start, stop)`` of each pass over items of ``rows`` rows each: as
    many items as fit in ``SPAN_CHUNK_ROWS``, or one that does not."""
    ends, bounds = rows.cumsum(dtype=float), [0]
    while (k := bounds[-1]) < rows.size:
        stop = np.searchsorted(ends, ends[k] - rows[k] + SPAN_CHUNK_ROWS, "right")
        bounds.append(max(k + 1, int(stop)))
    return list(zip(bounds, bounds[1:]))


def _ranges(starts, counts) -> np.ndarray:
    """The indices ``starts[k]`` up to ``starts[k] + counts[k]``, for all k."""
    return np.arange(counts.sum()) + (starts - counts.cumsum() + counts).repeat(counts)


def _order(major, minor) -> np.ndarray:
    """The order by ``major``, then ``minor`` (both >= 0): one int64 key if none overflows."""
    span = int(minor.max(initial=0)) + 1
    if int(major.max(initial=0)) < np.iinfo(np.int64).max // span:
        return np.argsort(major * span + minor)
    return np.lexsort((minor, major))


def _dense(values, n) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values`` of ``0..n-1``, and each value's position in them."""
    present = np.bincount(values, minlength=n) > 0
    return np.flatnonzero(present), (present.cumsum() - 1)[values]


def _polygon_spans(xy, ring_sizes, mask_rings, rects) -> tuple[np.ndarray, ...]:
    """The spans of polygon masks on their windows ``rects``, as
    :meth:`MaskColumns.spans` gives them. Even-odd rule: a pixel center
    ``j + 0.5`` is inside a ring when an odd number of its crossings ``xc``
    of the row have ``j < ceil(xc - 0.5)`` (window columns); the even number
    of them, sorted, pair up into spans. A mask's rings are joined by union."""
    x0, y0 = rects[:, 0], rects[:, 1]
    w, h = rects[:, 2] - x0, rects[:, 3] - y0
    mask_of_ring = np.arange(mask_rings.size).repeat(mask_rings)
    # a ring is checked only where its window is not empty
    short = (ring_sizes < 3) & ((w > 0) & (h > 0))[mask_of_ring]
    if short.any():
        raise GeometryError(f"invalid polygon: {ring_sizes[short][0]} vertices (need >= 3)")
    ring_of_vertex = np.arange(ring_sizes.size).repeat(ring_sizes)
    mask_of_vertex = mask_of_ring[ring_of_vertex]
    vx, vy = xy[:, 0] - x0[mask_of_vertex], xy[:, 1] - y0[mask_of_vertex]
    # each vertex's edge runs to the next of its ring, the last one's to the first
    ring_end = ring_sizes.cumsum()
    nxt = np.arange(1, vx.size + 1)
    nxt[ring_end - 1] = ring_end - ring_sizes
    sloped = (vy != vy[nxt]).nonzero()[0]  # horizontal edges cross no scanline
    x1, y1, x2, y2 = vx[sloped], vy[sloped], vx[nxt[sloped]], vy[nxt[sloped]]
    edge_mask = mask_of_vertex[sloped]
    # Rows whose center yc = r + 0.5 satisfies ylo <= yc < yhi.
    r0 = np.maximum(np.ceil(np.minimum(y1, y2) - 0.5), 0).astype(np.int64)
    r1 = np.minimum(np.ceil(np.maximum(y1, y2) - 0.5), h[edge_mask]).astype(np.int64)
    counts = np.maximum(r1 - r0, 0)
    edge = np.arange(counts.size).repeat(counts)
    rows = _ranges(r0, counts)
    # the parameter stays in [0, 1]: no overflow for nearly horizontal edges
    tparam = (rows + 0.5 - y1[edge]) / (y2 - y1)[edge]
    xc = x1[edge] + tparam * (x2 - x1)[edge]
    col = np.clip(np.ceil(xc - 0.5).astype(np.int64), 0, w[edge_mask][edge])
    ring, ring_rows = ring_of_vertex[sloped][edge], h[mask_of_ring]
    order = _order((ring_rows.cumsum() - ring_rows)[ring] + rows, col)
    ring, rows, col = ring[order][::2], rows[order][::2], col[order]
    keep = np.flatnonzero(col[::2] < col[1::2])
    mask, rows = mask_of_ring[ring[keep]], rows[keep]
    start, stop = col[::2][keep], col[1::2][keep]
    if (mask_rings > 1).any():
        # sorted by (mask, row, column), a span of the union starts where the
        # count of spans covering it rises from 0, and ends where it falls back
        x, mask, rows = np.append(start, stop), np.tile(mask, 2), np.tile(rows, 2)
        order = _order((h.cumsum() - h)[mask] + rows, x)
        step = np.repeat([1, -1], start.size)[order]
        cover = step.cumsum()
        opened = order[(step == 1) & (cover == 1)]
        mask, rows, start, stop = mask[opened], rows[opened], x[opened], x[order[cover == 0]]
    return mask, rows + y0[mask], start + x0[mask], stop + x0[mask]


def _one_runs(runs, counts, widths) -> tuple[np.ndarray, ...]:
    """Each non-empty one-run of grids, grid k the next ``counts[k]`` of ``runs`` and
    ``widths[k]`` wide: its grid, length, and the row and column of its ends."""
    grid = np.arange(counts.size).repeat(counts)
    first = counts.cumsum() - counts
    # a run's position within its grid is odd for a one-run
    ones = (runs * ((np.arange(runs.size) - first[grid]) & 1)).nonzero()[0]
    owner = grid[ones]
    # the running sum of all grids, less the grids before the owner; an
    # int64 overflow of the running sum cancels in the difference
    ends = runs.cumsum()
    stop = ends[ones] - np.append(0, ends)[first][owner]
    length, width = runs[ones], widths[owner]
    return (owner, length, *np.divmod(stop - length, width), *np.divmod(stop - 1, width))


def _rle_spans(runs, counts, widths) -> tuple[np.ndarray, ...]:
    """The spans of the run-length grids of :func:`_one_runs` (see
    :meth:`MaskColumns.spans`): their one-runs cut at row ends."""
    owner, _, srow, scol, erow, ecol = _one_runs(runs, counts, widths)
    pieces = erow - srow + 1
    k = np.arange(owner.size).repeat(pieces)
    rows = _ranges(srow, pieces)
    return (owner[k], rows, np.where(rows == srow[k], scol[k], 0),
            np.where(rows == erow[k], ecol[k] + 1, widths[owner][k]))


def _rle_bounds(runs, counts, widths) -> tuple[np.ndarray, np.ndarray]:
    """The window rects (zeros if empty) and pixel counts (float64) of the grids of
    :func:`_one_runs`, from the one-runs uncut: one that wraps covers every column."""
    owner, length, srow, scol, erow, ecol = _one_runs(runs, counts, widths)
    wraps = erow > srow
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    last = np.append(first, owner.size)[1:] - 1
    rects = np.zeros((counts.size, 4), dtype=np.int64)
    x0, x1 = np.where(wraps, 0, scol), np.where(wraps, widths[owner], ecol + 1)
    rects[owner[first]] = np.stack([np.minimum.reduceat(x0, first), srow[first],
                                    np.maximum.reduceat(x1, first), erow[last] + 1], axis=1)
    return rects, np.bincount(owner, weights=length, minlength=counts.size)


def _shared(gts, dets, g, d, top, bottom) -> np.ndarray:
    """The pixels (float64) that mask ``g[p]`` of the :class:`MaskColumns` ``gts`` and mask
    ``d[p]`` of ``dets`` share in rows ``[top[p], bottom[p])``: each span of ``g[p]`` there
    counts the cells of ``d[p]`` left of its two ends. A row's slot counts it from its
    window's top after the windows before it, which a pass bounds: no canvas overflows it."""
    (gu, g), (du, d) = _dense(g, gts.poly.size), _dense(d, dets.poly.size)
    (g_mask, g_row, g_x0, g_x1), (d_mask, d_row, d_x0, d_x1) = gts.spans(gu), dets.spans(du)
    g_base, d_base = ((r[:, 3] - r[:, 1]).cumsum() - r[:, 3]
                      for r in (gts.rects()[gu], dets.rects()[du]))
    base = g_base[g]
    lo, hi = np.searchsorted(g_base[g_mask] + g_row, np.stack([base + top, base + bottom]))
    n = hi - lo
    q = _ranges(lo, n)
    # the right, then the left end of each, and its row's slot in the detection
    x, slot = np.concatenate([g_x1[q], g_x0[q]]), d_base[d].repeat(n) + g_row[q]
    slot = np.concatenate([slot, slot])
    # the first detection span after each end, by (slot, x1): complex numbers
    # order by real, then imaginary part, and hold both exactly below 2**53
    d_slot = d_base[d_mask] + d_row
    k = np.searchsorted(d_slot + 1j * d_x1, slot + 1j * x, "right")
    # the running span lengths may wrap in int64; each row's difference is exact
    total = np.concatenate([[0], (d_x1 - d_x0).cumsum()])
    # a last span past every row, for the ends past the detection's last span
    d_x0, d_slot = np.concatenate([d_x0, [0]]), np.concatenate([d_slot, [-1]])
    left = total[k] + np.where(d_slot[k] == slot, np.maximum(x - d_x0[k], 0), 0)
    cells = left[: q.size] - left[q.size :]
    return np.bincount(np.arange(n.size).repeat(n), weights=cells, minlength=n.size)


def mask_ious(gts, dets, g, d) -> np.ndarray:
    """The IoU (``oracle.instance_iou``) of each pair of mask ``g[p]`` of the
    :class:`MaskColumns` ``gts`` and mask ``d[p]`` of ``dets``; raises for the first pair
    whose known canvases differ, whether or not their windows overlap. A pair whose windows
    are disjoint is 0.0, its pixels not counted; the others join their spans in
    :func:`_shared`, in passes of ``SPAN_CHUNK_ROWS`` rows that take each mask once. Pixel
    counts are float64, so no union overflows."""
    gc, dc = gts.canvas[g], dets.canvas[d]
    differ = np.flatnonzero(gts.known[g] & dets.known[d] & (gc != dc).any(1))
    if differ.size:
        raise GeometryError(f"mask canvases differ: {tuple(gc[differ[0]].tolist())}"
                            f" vs {tuple(dc[differ[0]].tolist())}")
    g_rect, d_rect, ious = gts.rects()[g], dets.rects()[d], np.zeros(g.size)
    lo, hi = np.maximum(g_rect[:, :2], d_rect[:, :2]), np.minimum(g_rect[:, 2:], d_rect[:, 2:])
    over = np.flatnonzero((lo < hi).all(axis=1))
    g, d, top, bottom = g[over], d[over], lo[over, 1], hi[over, 1]
    inter = np.zeros(over.size)
    for a, b in _chunks(bottom - top + gts.rows(g) + dets.rows(d)):
        inter[a:b] = _shared(gts, dets, g[a:b], d[a:b], top[a:b], bottom[a:b])
    union = gts.areas(g) + dets.areas(d) - inter
    ious[over] = np.divide(inter, union, out=np.zeros(over.size), where=union > 0)
    return ious


class MaskColumns:
    """The masks of N items as columns, whose windows, pixel counts and spans are
    computed with no mask object. A span ``(mask, row, x0, x1)`` is the pixels ``x0 <= x <
    x1`` of ``row``. Item k's canvas is the ``(width, height)`` row ``canvas[k]`` where
    ``known[k]``. If ``poly[k]``, its mask is ``rings[k]`` polygon rings, the next of
    ``ring_sizes`` vertices each, the next rows of the ``(V, 2)`` buffer ``xy``; if
    ``rle[k]``, a grid of the canvas's size, the next ``run_counts[k]`` of ``runs``.
    Columns of :class:`InstanceMask` objects read each mask's cached spans."""

    def __init__(self, canvas, known, poly, rings, ring_sizes, xy, rle, run_counts, runs,
                 masks=None):
        self.canvas, self.known, self.poly, self.rings = canvas, known, poly, rings
        self.ring_sizes, self.xy, self.rle, self.run_counts = ring_sizes, xy, rle, run_counts
        self.runs, self.masks, self._instances = runs, masks, masks
        self._rects, self._areas = None, np.where(poly, -1.0, 0.0)  # -1: not yet counted

    @classmethod
    def of(cls, masks) -> "MaskColumns":
        """The columns of a list of :class:`InstanceMask` or None."""
        masks = list(masks)
        # each mask's canvas, whether it is known, its kind and its rings or runs
        cols = np.array([(0,) * 5 if m is None else (*(m.canvas or (0, 0)), bool(m.canvas),
                          *((1, len(m.polygons)) if m.rle is None else (2, m.rle.runs.size)))
                         for m in masks], dtype=np.int64).reshape(-1, 5)
        poly, rle = cols[:, 3] == 1, cols[:, 3] == 2
        return cls(cols[:, :2], cols[:, 2] > 0, poly, cols[:, 4] * poly, None, None, rle,
                   cols[:, 4] * rle, None, masks)

    def take(self, at) -> "MaskColumns":
        """The columns, with buffers and no mask objects, of the items at ``at``."""
        if self.masks is not None:  # the buffers of these masks alone
            masks = [self.masks[k] for k in at.tolist()]
            rings = [p.vertices for m in masks if m and m.rle is None for p in m.polygons]
            runs = [_NO_SPANS[0]] + [m.rle.runs for m in masks if m and m.rle]
            return MaskColumns(self.canvas[at], self.known[at], self.poly[at], self.rings[at],
                               np.fromiter(map(len, rings), np.int64, len(rings)),
                               np.concatenate([np.empty((0, 2))] + rings), self.rle[at],
                               self.run_counts[at], np.concatenate(runs))
        ring = _ranges((self.rings.cumsum() - self.rings)[at], self.rings[at])
        sizes = self.ring_sizes[ring]
        vertex = _ranges((self.ring_sizes.cumsum() - self.ring_sizes)[ring], sizes)
        runs = _ranges((self.run_counts.cumsum() - self.run_counts)[at], self.run_counts[at])
        return MaskColumns(self.canvas[at], self.known[at], self.poly[at], self.rings[at],
                           sizes, self.xy[vertex], self.rle[at], self.run_counts[at],
                           self.runs[runs])

    def instances(self) -> list:
        """Each item's :class:`InstanceMask`, or None; built on first use, a polygon's
        vertices a view into ``xy`` where that is read-only, a grid's runs into ``runs``."""
        if self._instances is None:
            ends = self.ring_sizes.cumsum().tolist()
            polygons = [Polygon(self.xy[a:b]) for a, b in zip([0, *ends], ends)]
            masks = [None] * self.poly.size
            ends = self.rings[self.poly].cumsum().tolist()
            for k, a, b in zip(np.flatnonzero(self.poly).tolist(), [0, *ends], ends):
                canvas = tuple(self.canvas[k].tolist()) if self.known[k] else None
                masks[k] = InstanceMask(polygons=polygons[a:b], canvas=canvas)
            runs = _read_only(self.runs, np.int64)
            ends = self.run_counts[self.rle].cumsum().tolist()
            for k, a, b in zip(np.flatnonzero(self.rle).tolist(), [0, *ends], ends):
                grid = object.__new__(RLEMask)  # checked when loaded or made: no __post_init__
                width, height = self.canvas[k].tolist()
                grid.__dict__.update(width=width, height=height, runs=runs[a:b])
                masks[k] = InstanceMask(rle=grid)
            self._instances = masks
        return self._instances

    def rects(self) -> np.ndarray:
        """Each mask's window ``(x0, y0, x1, y1)``, ``(N, 4)`` int64, computed once: a
        polygon's spans its vertices, clipped; a grid's its pixels, whose count comes
        with it, in passes of ``SPAN_CHUNK_ROWS`` runs; else zeros."""
        if self._rects is None and self.masks is not None:
            self._cache()
        if self._rects is None:
            self._rects = rects = np.zeros((self.poly.size, 4), dtype=np.int64)
            p, sizes, rings = self.poly, self.ring_sizes, self.rings[self.poly]
            if not (sizes.all() and rings.all()):
                raise GeometryError("invalid polygon: 0 vertices (need >= 3)")
            if p.any():  # the floor and ceiling of the vertices, clipped
                first = (sizes.cumsum() - sizes)[rings.cumsum() - rings]
                lo = np.floor(np.minimum.reduceat(self.xy, first)).astype(np.int64)
                hi = np.ceil(np.maximum.reduceat(self.xy, first)).astype(np.int64)
                lo = np.where(self.known[p, None], np.maximum(lo, 0), lo)
                hi = np.where(self.known[p, None], np.minimum(hi, self.canvas[p]), hi)
                rects[p] = np.concatenate([lo, np.maximum(hi, lo)], axis=1)
            r = np.flatnonzero(self.rle)
            counts, ends = self.run_counts[r], np.append(0, self.run_counts[r].cumsum())
            for a, b in _chunks(counts) if r.size else ():
                rects[r[a:b]], self._areas[r[a:b]] = _rle_bounds(
                    self.runs[ends[a] : ends[b]], counts[a:b], self.canvas[r[a:b], 0])
        return self._rects

    def _cache(self) -> None:
        """Cache the window, pixel count and spans of the masks without, then read all."""
        todo = [k for k, m in enumerate(self.masks) if m is not None and m._spans is None]
        if todo:
            cols = self.take(np.array(todo))
            rects = cols.rects().tolist()
            for a, b in _chunks(cols.rows(np.arange(len(todo)))):
                mask, *spans = cols.spans(np.arange(a, b))
                spans, ends = np.stack(spans), np.searchsorted(mask, np.arange(b - a + 1))
                for j, s, e in zip(range(a, b), ends.tolist(), ends[1:].tolist()):
                    self.masks[todo[j]]._spans = (tuple(rects[j]), int(cols._areas[j]),
                                                  spans[:, s:e])
        cached = [m._spans if m else ((0,) * 4, 0) for m in self.masks]
        self._rects = np.array([c[0] for c in cached], dtype=np.int64).reshape(-1, 4)
        self._areas = np.array([c[1] for c in cached], dtype=float)

    def rows(self, at) -> np.ndarray:
        """Each mask's rows in a span pass: window rows times rings, or plus runs."""
        height = self.rects()[at, 3] - self._rects[at, 1]
        return np.where(self.poly[at], self.rings[at] * height, self.run_counts[at] + height)

    def spans(self, at) -> tuple[np.ndarray, ...]:
        """The spans of the masks at the distinct positions ``at`` (int64,
        increasing), as int64 columns ``(mask, row, x0, x1)`` sorted in that
        order, ``mask`` a position in ``at``; their pixel counts are kept."""
        rects = self.rects()[at]
        if self.masks is not None:
            cached = [m._spans[2] if m else _NO_SPANS[0].reshape(3, 0)
                      for m in map(self.masks.__getitem__, at.tolist())]
            return (np.arange(at.size).repeat([c.shape[1] for c in cached]),
                    *np.concatenate(cached, axis=1))
        cols, parts = self if at.size == self.poly.size else self.take(at), [_NO_SPANS]
        if cols.poly.any():
            p = np.flatnonzero(cols.poly)
            mask, *spans = _polygon_spans(cols.xy, cols.ring_sizes, cols.rings[p], rects[p])
            parts.append((p[mask], *spans))
        if cols.rle.any():
            r = np.flatnonzero(cols.rle)
            mask, *spans = _rle_spans(cols.runs, cols.run_counts[r], cols.canvas[r, 0])
            parts.append((r[mask], *spans))
        if len(parts) == 3:  # the polygons', then the grids': into mask order
            spans = [np.concatenate(c) for c in zip(*parts)]
            parts.append(tuple(c[np.argsort(spans[0], kind="stable")] for c in spans))
        spans = parts[-1]
        self._areas[at] = np.bincount(spans[0], weights=spans[3] - spans[2], minlength=at.size)
        return spans

    def areas(self, at) -> np.ndarray:
        """The pixel count (float64; 0 for none) of each mask at ``at``: a
        grid's with its window, a polygon's from its spans, in passes."""
        self.rects()
        todo = at[self._areas[at] < 0]
        if todo.size:
            todo = _dense(todo, self.poly.size)[0]
            for a, b in _chunks(self.rows(todo)):
                self.spans(todo[a:b])
        return self._areas[at]


class InstanceMask:
    """A single instance's mask, stored compactly and rasterized lazily.

    The source is either a list of polygon rings (combined by union) or a run-length
    grid. ``canvas`` is the enclosing image size ``(width, height)`` when known; polygon
    windows are clipped to it. The window, a local bit grid and its top-left pixel, is
    filled from the mask's spans (see :class:`MaskColumns`); a grid's covers its occupied
    rows and columns. Both are computed once and cached."""

    __slots__ = ("polygons", "rle", "canvas", "_window", "_spans")

    def __init__(self, polygons=None, rle: RLEMask | None = None, canvas=None):
        if (polygons is None) == (rle is None):
            raise GeometryError("instance mask needs polygons or an RLE grid, not both")
        self.polygons, self.rle = None if polygons is None else tuple(polygons), rle
        self.canvas = tuple(canvas) if canvas is not None else None
        if rle is not None:
            if self.canvas not in (None, (rle.width, rle.height)):
                raise GeometryError(f"RLE size {rle.width}x{rle.height} does not match image "
                                    f"{self.canvas[0]}x{self.canvas[1]}")
            self.canvas = (rle.width, rle.height)  # the grid defines its own canvas
        self._window = self._spans = None

    def __eq__(self, other) -> bool:
        """Masks with equal sources are equal, whatever their canvases."""
        if not isinstance(other, InstanceMask):
            return NotImplemented
        return (self.polygons, self.rle) == (other.polygons, other.rle)

    def __hash__(self) -> int:
        return hash((self.polygons, self.rle))

    def window(self) -> tuple[np.ndarray, int, int]:
        """Return ``(bits, x0, y0)``: the local grid and its anchor pixel."""
        if self._window is None:
            self.area  # computes and caches the spans
            (x0, y0, x1, y1), _, (row, start, stop) = self._spans
            bits = np.zeros((y1 - y0, x1 - x0), dtype=bool)
            bits.flat[_ranges((row - y0) * (x1 - x0) + start - x0, stop - start)] = True
            self._window = (bits, x0, y0)
        return self._window

    @property
    def area(self) -> int:
        if self._spans is None:
            MaskColumns.of([self]).rects()
        return self._spans[1]
