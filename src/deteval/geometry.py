"""Pure geometric kernels.

Box IoU, polygon rasterization, mask IoU, a run-length mask codec, and the
small/medium/large area classification. All operations are stateless and safe
to call concurrently, except that an :class:`InstanceMask` caches its window.

Masks are prepared in batches: :func:`prepare_windows` rasterizes the polygon
rings of many masks (one image's, say) in a few numpy calls over one flat
buffer, and decodes their run-length windows the same way. A single mask's
:meth:`InstanceMask.window` is a batch of one.

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

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .errors import GeometryError

SMALL_AREA_MAX = 32 * 32
MEDIUM_AREA_MAX = 96 * 96


class SizeClass(str, Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


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

    def scaled(self, sx: float, sy: float) -> "BBox":
        return BBox(self.x * sx, self.y * sy, self.w * sx, self.h * sy)


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


MAX_COORD = 2.0**53


@dataclass(frozen=True)
class Polygon:
    """A closed polygon ring; the last vertex implicitly connects to the first.

    Vertex-count validity (>= 3) is checked where it matters (rasterization,
    dataset validation) so that malformed records stay representable and
    reportable.
    """

    vertices: tuple[tuple[float, float], ...]

    @classmethod
    def from_points(cls, points) -> "Polygon":
        """Build from ``(x, y)`` pairs, each coordinate converted by ``float``.

        Every coordinate must be finite and within +-2**53: beyond that no
        two pixels are told apart, and rasterization intermediates overflow.
        """
        vertices = tuple((float(x), float(y)) for x, y in points)
        # the Euclidean norm of all coordinates bounds each of them (it is
        # accurate to an ulp) and is not a number below the bound when one
        # of them is not finite; only large or non-finite coordinates take
        # the test one by one
        if not math.hypot(*chain.from_iterable(vertices)) <= MAX_COORD / 2:
            for c in chain.from_iterable(vertices):
                if not -MAX_COORD <= c <= MAX_COORD:
                    raise GeometryError(
                        f"polygon coordinate {c} is not a finite number within +-2**53"
                    )
        return cls(vertices)

    @classmethod
    def from_flat(cls, flat) -> "Polygon":
        """Build from a flat ``[x1, y1, x2, y2, ...]`` coordinate list, with
        the checks of :meth:`from_points`."""
        if len(flat) % 2 != 0:
            raise GeometryError("flat polygon list has odd length")
        it = iter(flat)
        return cls.from_points(zip(it, it))

    def to_flat(self) -> list[float]:
        return [c for v in self.vertices for c in v]

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def scaled(self, sx: float, sy: float) -> "Polygon":
        return Polygon(tuple((x * sx, y * sy) for x, y in self.vertices))


@dataclass(frozen=True, eq=False)
class RLEMask:
    """Run-length encoded mask: alternating zero/one run counts in row-major
    order, starting with the zero count.

    ``runs`` is kept as one read-only int64 array. Every run must be
    non-negative and the runs must sum to ``width * height``.
    """

    width: int
    height: int
    runs: np.ndarray

    def __post_init__(self):
        runs = np.array(self.runs, dtype=np.int64)
        runs.flags.writeable = False
        object.__setattr__(self, "runs", runs)
        if runs.ndim != 1:
            raise GeometryError(f"runs must be a flat list, got shape {runs.shape}")
        if self.width < 0 or self.height < 0:
            raise GeometryError(f"negative mask size {self.width}x{self.height}")
        if runs.size and runs.min() < 0:
            raise GeometryError("negative run length")
        expected = self.width * self.height
        ends = np.cumsum(runs)
        # the runs are non-negative, so an int64 overflow shows as a
        # negative partial sum
        if (int(ends[-1]) if ends.size else 0) != expected or (
            ends.size and ends.min() < 0
        ):
            raise GeometryError(
                f"corrupt mask: runs sum to {sum(runs.tolist())}, expected {expected}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RLEMask):
            return NotImplemented
        return (self.width, self.height) == (other.width, other.height) and bool(
            np.array_equal(self.runs, other.runs)
        )

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.runs.tobytes()))

    @property
    def area(self) -> int:
        return int(self.runs[1::2].sum())


def rle_encode(bits) -> RLEMask:
    """Run-length encode a 2-D bool grid."""
    bits = np.asarray(bits, dtype=bool)
    height, width = bits.shape
    flat = bits.ravel()
    if flat.size == 0:
        return RLEMask(width, height, ())
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], change, [flat.size]))
    runs = np.diff(bounds)
    if flat[0]:
        runs = np.concatenate(([0], runs))
    return RLEMask(width, height, runs)


def rle_decode(rle: RLEMask) -> np.ndarray:
    """The full ``(height, width)`` bool grid of a run-length mask."""
    values = np.zeros(len(rle.runs), dtype=bool)
    values[1::2] = True
    return np.repeat(values, rle.runs).reshape(rle.height, rle.width)


# cells of (h, w + 1) ring blocks rasterized in one pass; masks that need
# more are rasterized in several passes, to bound memory
RASTER_CHUNK_CELLS = 1 << 20
# the limits (x0, y0, x1, y1) of a window without a canvas, beyond any
# polygon coordinate
_UNCLIPPED = (-(2**62), -(2**62), 2**62, 2**62)


def _ring_arrays(polygon_lists):
    """The vertices of every ring of every mask, concatenated in order.

    Returns ``(xy, ring_sizes, mask_rings)``: the ``(V, 2)`` vertex
    coordinates, the vertex count of each ring and the ring count of each
    mask.
    """
    rings = [p.vertices for polys in polygon_lists for p in polys]
    ring_sizes = np.fromiter(map(len, rings), dtype=np.int64, count=len(rings))
    mask_rings = np.fromiter(
        map(len, polygon_lists), dtype=np.int64, count=len(polygon_lists)
    )
    if not (ring_sizes.all() and mask_rings.all()):
        raise GeometryError("invalid polygon: 0 vertices (need >= 3)")
    xy = np.fromiter(
        chain.from_iterable(chain.from_iterable(rings)),
        dtype=np.float64,
        count=2 * int(ring_sizes.sum()),
    )
    return xy.reshape(-1, 2), ring_sizes, mask_rings


def _clipped_rects(xy, ring_sizes, mask_rings, canvases) -> np.ndarray:
    """``(x0, y0, x1, y1)`` of each mask's window: its vertices' floor and
    ceiling, clipped to its canvas when known. A mask wholly off its canvas
    gets an empty window."""
    first = (ring_sizes.cumsum() - ring_sizes)[mask_rings.cumsum() - mask_rings]
    lo = np.floor(np.minimum.reduceat(xy, first)).astype(np.int64)
    hi = np.ceil(np.maximum.reduceat(xy, first)).astype(np.int64)
    limits = np.array(
        [_UNCLIPPED if c is None else (0, 0, *c) for c in canvases], dtype=np.int64
    )
    lo = np.maximum(lo, limits[:, :2])
    hi = np.maximum(np.minimum(hi, limits[:, 2:]), lo)
    return np.concatenate([lo, hi], axis=1)


def _raster_rings(xy, ring_sizes, mask_rings, rects) -> list[np.ndarray]:
    """Rasterize the union of each mask's rings onto its window ``rects``
    row ``(x0, y0, x1, y1)``, in passes of at most about
    ``RASTER_CHUNK_CELLS`` cells. Returns one ``(y1 - y0, x1 - x0)`` bool
    grid per mask."""
    w, h = rects[:, 2] - rects[:, 0], rects[:, 3] - rects[:, 1]
    cells = mask_rings * h * (w + 1)
    if cells.sum() <= RASTER_CHUNK_CELLS:
        return _raster_chunk(xy, ring_sizes, mask_rings, rects)
    chunk = (cells.cumsum() - cells) // RASTER_CHUNK_CELLS
    # the first mask, ring and vertex of each pass, and the ends
    masks = np.append(0, (chunk[1:] != chunk[:-1]).nonzero()[0] + 1)
    masks = np.append(masks, mask_rings.size)
    rings = np.append(0, mask_rings.cumsum())[masks]
    vertices = np.append(0, ring_sizes.cumsum())[rings]
    cuts = list(zip(masks.tolist(), rings.tolist(), vertices.tolist()))
    out = []
    for (m0, r0, v0), (m1, r1, v1) in zip(cuts, cuts[1:]):
        out += _raster_chunk(
            xy[v0:v1], ring_sizes[r0:r1], mask_rings[m0:m1], rects[m0:m1]
        )
    return out


def _raster_chunk(xy, ring_sizes, mask_rings, rects) -> list[np.ndarray]:
    """One pass of :func:`_raster_rings`.

    Each ring is filled under the even-odd rule (a pixel center is inside
    when an odd number of edge crossings lie strictly to its right) in its
    own ``(h, w + 1)`` block of one flat buffer: a crossing toggles its row
    from the row start up to the crossing column. One cumulative sum then
    gives every pixel's parity. Each row holds an even number of toggles, so
    no parity leaks into the next row or block. Rings are then combined by
    union.
    """
    x0, y0 = rects[:, 0], rects[:, 1]
    w, h = rects[:, 2] - x0, rects[:, 3] - y0
    mask_of_ring = np.arange(mask_rings.size).repeat(mask_rings)
    short = ring_sizes < 3
    if short.any():
        # a ring is checked only where its window is not empty
        bad = short & ((w > 0) & (h > 0))[mask_of_ring]
        if bad.any():
            raise GeometryError(
                f"invalid polygon: {ring_sizes[bad][0]} vertices (need >= 3)"
            )
    ring_of_vertex = np.arange(ring_sizes.size).repeat(ring_sizes)
    mask_of_vertex = mask_of_ring[ring_of_vertex]
    vx, vy = xy[:, 0] - x0[mask_of_vertex], xy[:, 1] - y0[mask_of_vertex]
    # each vertex's edge runs to the next vertex of its ring, the last
    # vertex's back to the first
    ring_end = ring_sizes.cumsum()
    nxt = np.arange(1, vx.size + 1)
    nxt[ring_end - 1] = ring_end - ring_sizes

    sloped = (vy != vy[nxt]).nonzero()[0]  # horizontal edges cross no scanline
    x1, y1, x2, y2 = vx[sloped], vy[sloped], vx[nxt[sloped]], vy[nxt[sloped]]
    edge_ring = ring_of_vertex[sloped]
    edge_mask = mask_of_ring[edge_ring]
    edge_w = w[edge_mask]

    ylo = np.minimum(y1, y2)
    yhi = np.maximum(y1, y2)
    # Rows whose center yc = r + 0.5 satisfies ylo <= yc < yhi.
    r0 = np.maximum(np.ceil(ylo - 0.5), 0).astype(np.int64)
    r1 = np.minimum(np.ceil(yhi - 0.5), h[edge_mask]).astype(np.int64)
    counts = np.maximum(r1 - r0, 0)
    edge_idx = np.arange(counts.size).repeat(counts)
    rows = np.arange(edge_idx.size) - (counts.cumsum() - counts - r0).repeat(counts)

    yc = rows + 0.5
    # interpolation parameter stays in [0, 1], so the crossing never
    # overflows even for nearly horizontal edges
    tparam = (yc - y1[edge_idx]) / (y2 - y1)[edge_idx]
    xc = x1[edge_idx] + tparam * (x2 - x1)[edge_idx]
    # Pixel center j + 0.5 counts a crossing iff j + 0.5 < xc, i.e.
    # j < xc - 0.5: that is columns [0, ceil(xc - 0.5)), clipped to the
    # window. A crossing left of column 0 toggles nothing.
    jend = np.ceil(xc - 0.5).astype(np.int64)
    np.minimum(jend, edge_w[edge_idx], out=jend)
    keep = (jend > 0).nonzero()[0]
    edge_idx, rows, jend = edge_idx[keep], rows[keep], jend[keep]

    ring_cells = (h * (w + 1))[mask_of_ring]
    ring_base = ring_cells.cumsum() - ring_cells
    row_start = ring_base[edge_ring][edge_idx] + rows * (edge_w + 1)[edge_idx]
    toggles = np.bincount(
        np.concatenate([row_start, row_start + jend]), minlength=ring_cells.sum()
    )
    # parity survives the uint8 wrap-around
    inside = (toggles.cumsum(dtype=np.uint8) & 1).view(bool)

    mask_base = ring_base[mask_rings.cumsum() - mask_rings].tolist()
    return [
        inside[b : b + k * hh * (ww + 1)].reshape(k, hh, ww + 1)[:, :, :ww].any(axis=0)
        for b, k, hh, ww in zip(mask_base, mask_rings.tolist(), h.tolist(), w.tolist())
    ]


def polygon_windows(polygon_lists, canvases) -> list[tuple[np.ndarray, int, int]]:
    """``(bits, x0, y0)`` of each mask given as a list of polygon rings, with
    its canvas ``(width, height)`` or None, as :meth:`InstanceMask.window`
    returns it: the rings rasterized by union onto the window spanning their
    vertices, clipped to the canvas."""
    xy, ring_sizes, mask_rings = _ring_arrays(polygon_lists)
    rects = _clipped_rects(xy, ring_sizes, mask_rings, canvases)
    bits = _raster_rings(xy, ring_sizes, mask_rings, rects)
    return list(zip(bits, rects[:, 0].tolist(), rects[:, 1].tolist()))


# pads a run list of odd length with an empty one-run
_NO_RUN = np.zeros(1, dtype=np.int64)


def rle_windows(rles) -> list[tuple[np.ndarray, int, int]]:
    """``(bits, x0, y0)`` of each run-length grid, as
    :meth:`InstanceMask.window` returns it.

    Only the rows and columns a grid occupies are decoded; an empty grid
    gives a 0x0 window at the origin, and a one-run that wraps onto the next
    row widens its window to the full width. All windows are decoded by one
    ``np.repeat`` into one buffer, of which each window is a view.
    """
    # with each odd run list padded, every list starts at an even position
    # and the one-runs are the odd positions
    parts = []
    for r in rles:
        parts.append(r.runs)
        if r.runs.size & 1:
            parts.append(_NO_RUN)
    runs = np.concatenate(parts) if parts else _NO_RUN[:0]
    pairs, totals, widths = np.array(
        [((r.runs.size + 1) // 2, r.width * r.height, r.width) for r in rles],
        dtype=np.int64,
    ).reshape(-1, 3).T
    one_len = runs[1::2]
    ones = one_len.nonzero()[0]
    owner = np.arange(len(rles)).repeat(pairs)[ones]
    # the running sum of all grids, less the grids before the owner; an
    # int64 overflow of the running sum cancels in the difference
    stop = runs.cumsum()[1::2][ones] - (totals.cumsum() - totals)[owner]
    length, w_run = one_len[ones], widths[owner]
    srow, scol = np.divmod(stop - length, w_run)
    erow, ecol = np.divmod(stop - 1, w_run)

    # the one-runs are ordered by grid, so each grid's are one group
    count = np.bincount(owner, minlength=len(rles))
    present = count.nonzero()[0]
    group = (count.cumsum() - count)[present]
    wraps = np.logical_or.reduceat(srow != erow, group)
    rect = np.zeros((4, len(rles)), dtype=np.int64)
    x0, y0, x1, y1 = rect
    x0[present] = np.where(wraps, 0, np.minimum.reduceat(scol, group))
    y0[present] = srow[group]
    x1[present] = np.where(wraps, widths[present], np.maximum.reduceat(ecol, group) + 1)
    y1[present] = np.maximum.reduceat(erow, group) + 1
    w, h = x1 - x0, y1 - y0
    cells = h * w
    base = cells.cumsum() - cells
    # each one-run's position in the concatenated cropped windows
    start = (base - y0 * w - x0)[owner] + srow * w[owner] + scol
    bounds = np.empty(2 * ones.size + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, cells.sum()
    bounds[1:-1:2], bounds[2:-1:2] = start, start + length
    values = np.zeros(bounds.size - 1, dtype=bool)
    values[1::2] = True
    flat = values.repeat(bounds[1:] - bounds[:-1])
    return [
        (flat[b : b + hh * ww].reshape(hh, ww), xx, yy)
        for b, hh, ww, xx, yy in zip(
            base.tolist(), h.tolist(), w.tolist(), x0.tolist(), y0.tolist()
        )
    ]


def prepare_windows(masks) -> None:
    """Compute and cache the window of every mask not yet prepared: the
    polygon masks in one batch and the run-length masks in another."""
    todo = [m for m in masks if m._window is None]
    polys = [m for m in todo if m.rle is None]
    rles = [m for m in todo if m.rle is not None]
    if polys:
        windows = polygon_windows([m.polygons for m in polys], [m.canvas for m in polys])
        for m, win in zip(polys, windows):
            m._window = win
    if rles:
        for m, win in zip(rles, rle_windows([m.rle for m in rles])):
            m._window = win


class InstanceMask:
    """A single instance's mask, stored compactly and rasterized lazily.

    The source is either a list of polygon rings (combined by union) or a
    run-length grid. ``canvas`` is the enclosing image size ``(width, height)``
    when known; polygon windows are clipped to it. The rasterized form is an
    anchored window: a local bit grid plus the window's top-left pixel
    coordinates, equivalent to the same polygons rasterized on the full
    canvas. A run-length window covers only the occupied rows and columns.

    The window is computed once and cached. :func:`prepare_windows` computes
    the windows of many masks in one batch (matching does so for each
    image's ground truths and detections); :meth:`window` prepares a mask
    not yet prepared as a batch of one, with the same result.
    """

    __slots__ = ("polygons", "rle", "canvas", "_window", "_area")

    def __init__(self, polygons=None, rle: RLEMask | None = None, canvas=None):
        if (polygons is None) == (rle is None):
            raise GeometryError("instance mask needs polygons or an RLE grid, not both")
        self.polygons = list(polygons) if polygons is not None else None
        self.rle = rle
        self.canvas = tuple(canvas) if canvas is not None else None
        if rle is not None:
            if self.canvas is not None and self.canvas != (rle.width, rle.height):
                raise GeometryError(
                    f"RLE size {rle.width}x{rle.height} does not match image "
                    f"{self.canvas[0]}x{self.canvas[1]}"
                )
            # the run-length grid defines its own canvas
            self.canvas = (rle.width, rle.height)
        self._window = None
        self._area = None

    def window(self) -> tuple[np.ndarray, int, int]:
        """Return ``(bits, x0, y0)``: the local grid and its anchor pixel."""
        if self._window is None:
            prepare_windows([self])
        return self._window

    @property
    def area(self) -> int:
        if self._area is None:
            if self.rle is not None:
                self._area = self.rle.area
            else:
                self._area = int(np.count_nonzero(self.window()[0]))
        return self._area

    def scaled(self, sx: float, sy: float, canvas=None) -> "InstanceMask":
        if self.polygons is None:
            raise GeometryError("cannot scale an RLE-only mask losslessly")
        return InstanceMask(
            polygons=[p.scaled(sx, sy) for p in self.polygons], canvas=canvas
        )

    def iou(self, other: "InstanceMask") -> float:
        """IoU of two instances placed on a common canvas."""
        if (
            self.canvas is not None
            and other.canvas is not None
            and self.canvas != other.canvas
        ):
            raise GeometryError(
                f"mask canvases differ: {self.canvas} vs {other.canvas}"
            )
        abits, ax, ay = self.window()
        bbits, bx, by = other.window()
        x0 = max(ax, bx)
        y0 = max(ay, by)
        x1 = min(ax + abits.shape[1], bx + bbits.shape[1])
        y1 = min(ay + abits.shape[0], by + bbits.shape[0])
        if x1 <= x0 or y1 <= y0:
            inter = 0
        else:
            asub = abits[y0 - ay : y1 - ay, x0 - ax : x1 - ax]
            bsub = bbits[y0 - by : y1 - by, x0 - bx : x1 - bx]
            inter = int(np.count_nonzero(asub & bsub))
        union = self.area + other.area - inter
        if union == 0:
            return 0.0
        return inter / union
