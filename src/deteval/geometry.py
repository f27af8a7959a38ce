"""Pure geometric kernels.

Box IoU, polygon rasterization, bit-mask IoU, a run-length mask codec, and the
small/medium/large area classification. All operations are stateless and safe
to call concurrently.

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
        return cls(tuple((float(x), float(y)) for x, y in points))

    @classmethod
    def from_flat(cls, flat) -> "Polygon":
        """Build from a flat ``[x1, y1, x2, y2, ...]`` coordinate list.

        Every coordinate must be finite and within +-2**53: beyond that no
        two pixels are told apart, and rasterization intermediates overflow.
        """
        if len(flat) % 2 != 0:
            raise GeometryError("flat polygon list has odd length")
        # min and max may skip a NaN, but it (or an infinity) makes the sum
        # non-finite
        if flat and not (
            -MAX_COORD <= min(flat)
            and max(flat) <= MAX_COORD
            and math.isfinite(sum(flat))
        ):
            bad = next(c for c in flat if not -MAX_COORD <= c <= MAX_COORD)
            raise GeometryError(
                f"polygon coordinate {bad} is not a finite number within +-2**53"
            )
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


class BitMask:
    """Row-major binary pixel grid backed by a 2-D boolean array."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=bool)
        if arr.ndim != 2:
            raise GeometryError(f"mask must be 2-D, got shape {arr.shape}")
        self.bits = arr

    @classmethod
    def zeros(cls, width: int, height: int) -> "BitMask":
        return cls(np.zeros((height, width), dtype=bool))

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def area(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMask):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            np.array_equal(self.bits, other.bits)
        )

    def __repr__(self) -> str:
        return f"BitMask({self.width}x{self.height}, area={self.area})"


def mask_iou(a: BitMask, b: BitMask) -> float:
    """IoU of two equally sized bit masks; 0.0 when both are empty."""
    if a.bits.shape != b.bits.shape:
        raise GeometryError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    inter = int(np.count_nonzero(a.bits & b.bits))
    union = a.area + b.area - inter
    if union == 0:
        return 0.0
    return inter / union


@dataclass(frozen=True)
class RLEMask:
    """Run-length encoded mask: alternating zero/one run counts in row-major
    order, starting with the zero count."""

    width: int
    height: int
    runs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(int(r) for r in self.runs))
        if any(r < 0 for r in self.runs):
            raise GeometryError("negative run length")
        total = sum(self.runs)
        if total != self.width * self.height:
            raise GeometryError(
                f"corrupt mask: runs sum to {total}, expected {self.width * self.height}"
            )

    @property
    def area(self) -> int:
        return sum(self.runs[1::2])


def rle_encode(mask: BitMask) -> RLEMask:
    flat = mask.bits.ravel()
    if flat.size == 0:
        return RLEMask(mask.width, mask.height, ())
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], change, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs = [0] + runs
    return RLEMask(mask.width, mask.height, tuple(runs))


def rle_decode(rle: RLEMask) -> BitMask:
    values = np.zeros(len(rle.runs), dtype=bool)
    values[1::2] = True
    flat = np.repeat(values, rle.runs)
    return BitMask(flat.reshape(rle.height, rle.width))


def _rle_window(rle: RLEMask) -> tuple[np.ndarray, int, int]:
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


def _raster_window(polygons, x0: int, y0: int, width: int, height: int) -> np.ndarray:
    """Rasterize a union of polygon rings onto the window whose top-left
    pixel is ``(x0, y0)`` in polygon coordinates.

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
        # interpolation parameter stays in [0, 1], so the crossing never
        # overflows even for nearly horizontal edges
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


def rasterize(polygon: Polygon, width: int, height: int) -> BitMask:
    """Rasterize one polygon onto a ``width x height`` grid anchored at the
    origin; geometry outside the grid is clipped."""
    if width < 1 or height < 1:
        raise GeometryError(f"grid must be at least 1x1, got {width}x{height}")
    return BitMask(_raster_window([polygon], 0, 0, width, height))


class InstanceMask:
    """A single instance's mask, stored compactly and rasterized lazily.

    The source is either a list of polygon rings (combined by union) or a
    run-length grid. ``canvas`` is the enclosing image size ``(width, height)``
    when known; polygon windows are clipped to it. The rasterized form is an
    anchored window: a local bit grid plus the window's top-left pixel
    coordinates, equivalent to the same polygons rasterized on the full
    canvas. A run-length window covers only the occupied rows and columns.
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
            if self.rle is not None:
                self._window = _rle_window(self.rle)
            else:
                xmin = min(p.bounds()[0] for p in self.polygons)
                ymin = min(p.bounds()[1] for p in self.polygons)
                xmax = max(p.bounds()[2] for p in self.polygons)
                ymax = max(p.bounds()[3] for p in self.polygons)
                x0, y0 = int(np.floor(xmin)), int(np.floor(ymin))
                x1, y1 = int(np.ceil(xmax)), int(np.ceil(ymax))
                if self.canvas is not None:
                    x0, y0 = max(x0, 0), max(y0, 0)
                    x1, y1 = min(x1, self.canvas[0]), min(y1, self.canvas[1])
                    # a polygon wholly off the canvas gets an empty window
                    x1, y1 = max(x1, x0), max(y1, y0)
                bits = _raster_window(self.polygons, x0, y0, x1 - x0, y1 - y0)
                self._window = (bits, x0, y0)
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

    def to_bitmask(self, width: int, height: int) -> BitMask:
        """Materialize on a full ``width x height`` canvas."""
        bits, x0, y0 = self.window()
        full = np.zeros((height, width), dtype=bool)
        sy0, sx0 = max(0, -y0), max(0, -x0)
        dy0, dx0 = max(0, y0), max(0, x0)
        h = min(bits.shape[0] - sy0, height - dy0)
        w = min(bits.shape[1] - sx0, width - dx0)
        if h > 0 and w > 0:
            full[dy0 : dy0 + h, dx0 : dx0 + w] = bits[sy0 : sy0 + h, sx0 : sx0 + w]
        return BitMask(full)
