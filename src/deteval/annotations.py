"""Dataset model and plumbing: loading, validation, splitting, rescaling.

Ground truth and detection files are a strict subset of the COCO annotation
and results formats (see the README for the exact schemas). Unknown fields are
ignored so COCO-superset files load unchanged. Sets are immutable after load;
every operation returns new values. A set keeps the loader's columns
(:class:`ItemColumns`) and builds its record objects only when asked.
"""

from __future__ import annotations

import contextlib
import json
import random
from dataclasses import dataclass, replace
from itertools import chain, count
from operator import countOf
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    GeometryError,
    LossyRescaleError,
    MissingReferenceError,
    ParseError,
    ValidationError,
)
from .geometry import (
    MAX_COORD,
    BBox,
    InstanceMask,
    MaskColumns,
    RLEMask,
    resampled_runs,
)

class LabelMap:
    """Ordered class id <-> name table. Report rows follow entry order."""

    def __init__(self, entries):
        self.entries: tuple[tuple[int, str], ...] = tuple(
            (int(i), str(n)) for i, n in entries
        )
        ids = [i for i, _ in self.entries]
        names = [n for _, n in self.entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("label map has duplicate class ids")
        if len(set(names)) != len(names):
            raise ValidationError("label map has duplicate class names")
        if any(not n for n in names):
            raise ValidationError("label map has an empty class name")
        if any(i <= 0 for i in ids):
            raise ValidationError("class ids must be positive integers")
        self._name_of = dict(self.entries)
        self._index_of = {i: k for k, (i, _) in enumerate(self.entries)}

    @classmethod
    def from_file(cls, path) -> "LabelMap":
        raw = _read_json(path)
        if not isinstance(raw, list):
            raise ParseError(f"{path}: label map must be a JSON array")
        return _label_map(raw, path)

    def ids(self) -> list[int]:
        return [i for i, _ in self.entries]

    def name_of(self, class_id: int) -> str:
        return self._name_of[class_id]

    def index_of(self, class_id: int) -> int:
        return self._index_of[class_id]

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._name_of

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelMap) and self.entries == other.entries

    def to_json(self) -> list[dict]:
        return [{"id": i, "name": n} for i, n in self.entries]


@dataclass(frozen=True)
class ImageRecord:
    """An image's id, file name and size; loading checks the size is at
    least 1x1."""

    image_id: int
    file_name: str
    width: int
    height: int


@dataclass(frozen=True)
class Annotation:
    ann_id: int
    image_id: int
    class_id: int
    bbox: BBox
    mask: InstanceMask | None = None
    area: float = 0.0


@dataclass(frozen=True)
class Detection:
    det_id: int
    image_id: int
    class_id: int
    bbox: BBox
    score: float
    mask: InstanceMask | None = None


@dataclass(frozen=True)
class SplitRatios:
    train: float
    val: float
    test: float

    def __post_init__(self):
        for name, r in (("train", self.train), ("val", self.val), ("test", self.test)):
            if not r >= 0:  # NaN included
                raise ConfigError(f"split ratio {name} must be >= 0, got {r}")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ConfigError(
                f"split ratios sum to {self.train + self.val + self.test}, expected 1"
            )


class ItemColumns:
    """The items of a set in load order, as columns: ``ids``, ``image_ids``
    and ``class_ids`` (int64), ``boxes`` (``(N, 4)`` float64 ``x, y, w, h``),
    ``values`` (float64: the areas of ground truths, the scores of
    detections) and ``masks``, their :class:`MaskColumns`; ``record`` objects
    (:class:`Annotation` or :class:`Detection`) are built once, if asked."""

    def __init__(self, record, ids, image_ids, class_ids, boxes, values, masks):
        self.record, self.ids, self.image_ids = record, ids, image_ids
        self.class_ids, self.boxes = class_ids, boxes
        self.values, self.masks = values, masks
        self._all = None  # the records, once built

    @classmethod
    def of(cls, record, records) -> "ItemColumns":
        """The columns of ``record`` objects, which are kept as the records."""
        records = tuple(records)
        key, value = ("ann_id", "area") if record is Annotation else ("det_id", "score")
        ids = np.array([(getattr(r, key), r.image_id, r.class_id) for r in records],
                       dtype=np.int64).reshape(-1, 3).T
        boxes = np.array([(r.bbox.x, r.bbox.y, r.bbox.w, r.bbox.h) for r in records],
                         dtype=np.float64).reshape(-1, 4)
        items = cls(record, *ids, boxes, np.array([getattr(r, value) for r in records], float),
                    MaskColumns.of(r.mask for r in records))
        items._all = records
        return items

    @property
    def has_mask(self) -> np.ndarray:
        """Whether each item has a mask."""
        return self.masks.poly | self.masks.rle

    def take(self, at) -> "ItemColumns":
        """The items at the positions ``at``."""
        return ItemColumns(self.record, self.ids[at], self.image_ids[at], self.class_ids[at],
                           self.boxes[at], self.values[at], self.masks.take(at))

    def records(self, at=None) -> tuple:
        """The records at the positions ``at``, or all of them; all of them
        are built when the first is asked for."""
        if self._all is None:
            masks, values = self.masks.instances(), self.values.tolist()
            self._all = tuple(map(
                self.record, self.ids.tolist(), self.image_ids.tolist(),
                self.class_ids.tolist(), [BBox(*b) for b in self.boxes.tolist()],
                *((masks, values) if self.record is Annotation else (values, masks))))
        if at is None:
            return self._all
        return tuple(map(self._all.__getitem__, np.asarray(at, dtype=np.int64).tolist()))


class _ItemSet:
    """A label map and items, held as :class:`ItemColumns` ``items``, given
    as such or as ``record`` objects; :meth:`by_image` starts from the
    ``images``."""

    images: tuple = ()

    def __init__(self, label_map: LabelMap, items, record):
        self.label_map = label_map
        self.items = items if isinstance(items, ItemColumns) else ItemColumns.of(record, items)
        self._by_image = None

    def by_image(self) -> dict[int, list]:
        if self._by_image is None:
            grouped = {img.image_id: [] for img in self.images}
            for item in self.items.records():
                grouped.setdefault(item.image_id, []).append(item)
            self._by_image = grouped
        return self._by_image

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.images == other.images
            and self.label_map == other.label_map
            and self.items.records() == other.items.records()
        )

    def save(self, path) -> None:
        write_text_atomic([(path, json_text(self.to_json()))])


class GroundTruthSet(_ItemSet):
    """Validated ground-truth annotations plus their image table."""

    def __init__(self, images, label_map: LabelMap, annotations):
        self.images: tuple[ImageRecord, ...] = tuple(images)
        super().__init__(label_map, annotations, Annotation)

    @property
    def annotations(self) -> tuple[Annotation, ...]:
        return self.items.records()

    def per_class_counts(self) -> dict[int, int]:
        counts = {cid: 0 for cid in self.label_map.ids()}
        for cid in self.items.class_ids.tolist():
            counts[cid] = counts.get(cid, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "images": [
                {
                    "id": im.image_id,
                    "file_name": im.file_name,
                    "width": im.width,
                    "height": im.height,
                }
                for im in self.images
            ],
            "annotations": _items_json(
                self.items, ("id", "image_id", "category_id", "bbox", "area")),
            "categories": self.label_map.to_json(),
        }


class DetectionSet(_ItemSet):
    """Scored detections grouped by image; carries no image table of its own."""

    def __init__(self, label_map: LabelMap, detections):
        super().__init__(label_map, detections, Detection)

    @property
    def detections(self) -> tuple[Detection, ...]:
        return self.items.records()

    def to_json(self) -> list[dict]:
        return _items_json(self.items, (None, "image_id", "category_id", "bbox", "score"))


# ---------------------------------------------------------------------------
# loading
#
# A file is checked a column at a time. Each kind of record has a field table
# of (key, rule, required, check): a column gathers one key of every record,
# its rule converts the column in one numpy call, and its check (a range, a
# reference or the box check) runs on the whole converted column. Integers
# are JSON integers, or floats with an integral value, below 2**53 in
# magnitude, so that each is exact as a float; numbers are JSON integers or
# floats; a bool or a string is neither. An optional field that is null is
# absent.


def read_text(path) -> str:
    """A UTF-8 file's text; :class:`ParseError` naming it if unreadable or not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_json(path):
    try:
        return json.loads(read_text(path))
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply to decode") from exc


def _numbers(values):
    """``values`` as float64, and the mask of those that are not JSON numbers
    within the float range (read as 0)."""
    if set(map(type, values)) <= {int, float}:
        with contextlib.suppress(OverflowError):  # an int beyond the floats
            return np.array(values, dtype=np.float64), np.zeros(len(values), bool)
    bad = [not (type(v) is float or type(v) is int and abs(v) <= _MAX) for v in values]
    return np.array([0 if b else v for v, b in zip(values, bad)], float), np.array(bad)


def _integers(values):
    """``values`` as int64, and the mask of those that are not integers
    (read as 0). JSON integers within int64 convert straight to int64; any
    other value goes through float64, which refuses the same values."""
    if countOf(map(type, values), int) == len(values):
        with contextlib.suppress(OverflowError):  # an int beyond int64
            x = np.fromiter(values, np.int64, len(values))
            bad = (x <= -_INT_LIMIT) | (x >= _INT_LIMIT)
            x[bad] = 0
            return x, bad
    x, bad = _numbers(values)
    bad |= ~((np.abs(x) < _INT_LIMIT) & (x == np.floor(x)))
    x[bad] = 0
    return x.astype(np.int64), bad


def _is_text(value) -> bool:
    """Whether ``value`` is a string with a UTF-8 form, which a lone
    surrogate read from a JSON ``\\ud800`` escape lacks."""
    try:
        str.encode(value, "utf-8")  # TypeError for a non-string
    except (TypeError, UnicodeEncodeError):
        return False
    return True


def _rows(values, width, convert):
    """``values``, each an array of ``width`` items, as one ``(n, width)``
    array converted by ``convert``, and the mask of the rows that are not
    such arrays or hold an item ``convert`` refuses."""
    if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {width}):
        values = [v if type(v) is list and len(v) == width else [None] * width
                  for v in values]
    x, bad = convert(list(chain.from_iterable(values)))
    return x.reshape(-1, width), bad.reshape(-1, width).any(1)


def _shown(value) -> str:
    """``repr(value)`` for a message: its first 100 characters and its length, if longer."""
    text = repr(value)
    return text if len(text) <= 100 else f"{text[:100]}... ({len(text)} characters)"


def _range(lo, hi, error, message):
    """The check that a number column lies in ``[lo, hi]``; ``message`` is
    formatted with the field's ``key`` and the record's ``value`` (:func:`_shown`)."""

    def check(rec, key, array, at):
        rec.fail(at[~((array >= lo) & (array <= hi))], error,
                 lambda k: message.format(key=key, value=_shown(rec.rows[k][key])))

    return check


def _box(rec, key, array, at):
    rec.fail(~np.isfinite(array).all(1), GeometryError,
             lambda k: f"non-finite bbox {array[k].tolist()}")
    rec.fail((array[:, 2:] < 0).any(1), GeometryError, "negative bbox extent")


def _known(rec, key, array, at):
    """The check that each id names one of the file's images, or one of the
    label map's classes."""
    ids = rec.canvas_of if key == "image_id" else rec.labels.ids()
    rec.fail(~np.isin(array, np.array(list(ids), np.int64)), MissingReferenceError,
             lambda k: f"unknown {key} {array[k]}")


# a rule is a column's conversion, and the text of a value it refuses
_INTEGER = (_integers, "'{key}' is {value}, not a valid integer")
_TEXT = (lambda v: (v, np.array([not _is_text(s) for s in v], dtype=bool)),
         "'{key}' is {value}, not a valid string")
_BOX = (lambda v: _rows(v, 4, _numbers), "bbox {value} is not 4 numbers [x, y, w, h]")
_MASK = (None, None)  # see _Records.masks
_MAX = float(np.finfo(np.float64).max)
_INT_LIMIT = 2**53  # integers are below it in magnitude, as loaded
_AT_LEAST_1 = _range(1, np.inf, ValidationError, "'{key}' is {value}, not >= 1")

_CATEGORY_FIELDS = (("id", _INTEGER, True, None), ("name", _TEXT, True, None))
_IMAGE_FIELDS = (
    ("id", _INTEGER, True, None), ("file_name", _TEXT, True, None),
    ("width", _INTEGER, True, _AT_LEAST_1), ("height", _INTEGER, True, _AT_LEAST_1),
)
_ANNOTATION_FIELDS = (
    ("id", _INTEGER, True, None), ("image_id", _INTEGER, True, _known),
    ("category_id", _INTEGER, True, _known), ("bbox", _BOX, True, _box),
    ("segmentation", _MASK, False, None),
    ("area", (_numbers, "non-numeric area {value}"), False,
     _range(-_MAX, _MAX, GeometryError, "non-finite area {value}")),
    ("iscrowd", _INTEGER, False, _range(
        0, 0, ValidationError, "iscrowd is {value}; crowd regions are not supported")),
)
_DETECTION_FIELDS = (
    ("category_id", _INTEGER, True, _known),
    ("score", (_numbers, "'{key}' is {value}, not a valid number"), True,
     _range(0, 1, ValidationError, "score {value} outside [0, 1]")),
    ("image_id", _INTEGER, True, None), ("bbox", _BOX, True, _box),
    ("segmentation", _MASK, False, None),
)


class _Records:
    """The records of one kind in a file, checked a column at a time.

    ``fail`` notes the records a check refuses. Each check looks only at the
    records before the first one refused so far, and the checks run in field
    order, so the error kept is the one a record-by-record pass would raise:
    that of the lowest-index faulty record, at its first failing check.
    ``canvas_of`` maps each image id to its ``(width, height)``.
    """

    def __init__(self, records, name, labels=None, canvas_of=None):
        if not set(map(type, records)) <= {dict}:
            # a record that is not an object misses every field
            records = [r if type(r) is dict else {} for r in records]
        self.rows, self.name, self.labels = records, name, labels
        self.canvas_of = canvas_of
        self.end, self.error, self.columns = len(records), None, {}

    def fail(self, refused, error, message, sep=": ") -> None:
        """Note ``error`` for the first record before ``end`` in ``refused``,
        a mask over the records or an array of their indices. ``message`` is
        the text, or makes it from the record's index."""
        if refused.dtype == bool:
            refused = np.flatnonzero(refused)
        refused = refused[refused < self.end]
        if refused.size:
            k = self.end = int(refused.min())
            text = message if isinstance(message, str) else message(k)
            self.error = error(f"{self.name(k)}{sep}{text}")

    def check(self) -> None:
        if self.error is not None:
            raise self.error

    def table(self, fields) -> dict:
        """The columns of a field table by key, each converted and checked in
        order; an optional number column is NaN where absent. Raises the
        error of the lowest-index faulty record."""
        cols, rows = self.columns, self.rows
        for key, (convert, wrong), required, check in fields:
            values = list(map(dict.get, rows, [key] * len(rows)))
            if convert is None:
                cols[key] = self.masks(values)
                continue
            at = np.arange(len(rows))
            if not required and None in values:
                at = at[[v is not None for v in values]]
                values = [values[k] for k in at.tolist()]
            array, bad = convert(values)
            self.fail(at[bad], ParseError, lambda k: (
                wrong if key in rows[k] else "missing '{key}'"
            ).format(key=key, value=_shown(rows[k].get(key))))
            if check is not None:
                check(self, key, array, at)
            if at.size < len(rows):
                array, given = np.full(len(rows), np.nan), array
                array[at] = given
            cols[key] = array
        self.check()
        return cols

    def masks(self, segs) -> MaskColumns:
        """Check the records' segmentations, and return their
        :class:`MaskColumns`: no mask where a segmentation is null or an
        empty list, else the polygons of a list of flat rings, or the runs of
        a run-length object, on its image's canvas when known."""
        kinds = list(map(type, segs))
        self.fail(np.array([t not in (list, dict, type(None)) for t in kinds], bool),
                  ParseError, "segmentation must be polygon list or RLE object")
        polys = [k for k, s in enumerate(segs) if type(s) is list and s]
        rles = [k for k, t in enumerate(kinds) if t is dict]
        canvases = list(map(self.canvas_of.get, self.columns["image_id"].tolist()))
        poly, rle = np.zeros((2, len(segs)), dtype=bool)
        poly[polys], rle[rles] = True, True
        rings, counts = np.zeros((2, len(segs)), dtype=np.int64)
        rings[polys], ring_sizes, xy = self.polygons(polys, [segs[k] for k in polys])
        counts[rles], runs, sizes = self.runs(rles, [segs[k] for k in rles],
                                               [canvases[k] for k in rles])
        canvas = np.array([c or (0, 0) for c in canvases], np.int64).reshape(-1, 2)
        known = np.array([c is not None for c in canvases], dtype=bool) & poly | rle
        canvas[rles] = sizes
        return MaskColumns(canvas, known, poly, rings, ring_sizes, xy, rle, counts, runs)

    def polygons(self, owners, rings_of) -> tuple:
        """Check the flat rings ``rings_of[j]`` of each record ``owners[j]``,
        all coordinates at once, and return each owner's ring count, each
        ring's vertex count and the ``(V, 2)`` read-only vertex buffer."""
        owners = np.array(owners, dtype=np.int64)
        count = np.fromiter(map(len, rings_of), np.int64, len(rings_of))
        rings = list(chain.from_iterable(rings_of))
        if not set(map(type, rings)) <= {list}:
            rings = [r if type(r) is list else [None] for r in rings]
        length = np.fromiter(map(len, rings), np.int64, len(rings))
        owner = owners.repeat(count)
        coords, bad = _numbers(list(chain.from_iterable(rings)))
        bad |= ~(np.abs(coords) <= MAX_COORD)
        self.fail(np.concatenate([owner[length % 2 == 1], owner.repeat(length)[bad]]),
                  GeometryError, "bad polygon segmentation: a ring of odd length, or "
                  "a coordinate not a finite number within +-2**53")
        self.fail(owner[length < 6], GeometryError, "polygon has < 3 vertices")
        coords.flags.writeable = False
        # whole vertices; an odd count is refused above
        return count, length // 2, coords[: coords.size // 2 * 2].reshape(-1, 2)

    def runs(self, owners, objects, canvases) -> tuple:
        """Check the run-length grids ``objects[j]``, ``{"size": [h, w],
        "counts": [...]}``, of each record ``owners[j]``, on its image's
        canvas ``canvases[j]`` when known, and return each grid's run count,
        the runs of all grids as one read-only int64 array, and each grid's
        ``(width, height)``."""
        size, bad = _rows([o.get("size") for o in objects], 2, _integers)
        counts = [o.get("counts") for o in objects]
        counts = [c if type(c) is list else [None] for c in counts]
        length = np.fromiter(map(len, counts), np.int64, len(counts))
        runs, bad_runs = _integers(list(chain.from_iterable(counts)))
        owners = np.array(owners, dtype=np.int64)
        self.fail(np.concatenate([owners[bad], owners.repeat(length)[bad_runs]]),
                  ParseError, "bad RLE segmentation")
        runs.flags.writeable = False
        wh = size[:, ::-1]
        fault = RLEMask.fault(wh, runs, np.append(0, length.cumsum()))
        if fault is not None:
            self.fail(owners[[fault[0]]], GeometryError, fault[1])
        # the grids from the first faulty one on are past the error kept
        canvas = np.array([c or (-1, -1) for c in canvases], np.int64).reshape(-1, 2)
        self.fail(owners[(canvas[:, 0] >= 0) & (canvas != wh).any(1)],
                  GeometryError, lambda k: "RLE size {}x{} does not match image {}x{}".format(
                      *wh[np.searchsorted(owners, k)], *canvas[np.searchsorted(owners, k)]))
        return length, runs, wh


def _repeated(ids) -> np.ndarray:
    """The mask of the ids that occur at a lower index too."""
    repeated = np.ones(ids.size, dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    return repeated


def load_ground_truth(path) -> GroundTruthSet:
    """Load and fully validate a ground-truth file."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: ground truth must be a JSON object")
    for key in ("images", "annotations", "categories"):
        if key not in raw or not isinstance(raw[key], list):
            raise ParseError(f"{path}: missing or non-array '{key}'")
    label_map = _label_map(raw["categories"], path)
    cols = _Records(raw["images"], lambda k: f"{path}: image at index {k}").table(
        _IMAGE_FIELDS)
    ids = cols["id"]
    repeated = np.flatnonzero(_repeated(ids))
    if repeated.size:
        raise ValidationError(f"duplicate image id {ids[repeated[0]]}")
    images = list(map(ImageRecord, ids.tolist(), cols["file_name"],
                      cols["width"].tolist(), cols["height"].tolist()))

    canvas_of = {im.image_id: (im.width, im.height) for im in images}
    anns = _Records(raw["annotations"], lambda k: (
        f"annotation {anns.columns['id'][k]}" if "id" in anns.columns
        else f"{path}: annotation at index {k}"), label_map, canvas_of)
    cols = anns.table(_ANNOTATION_FIELDS)
    size = np.array(list(map(canvas_of.get, cols["image_id"].tolist())), float)
    xy, wh = np.split(cols["bbox"], 2, axis=1)
    boxes = _clamped(xy, xy + wh, wh, size.reshape(-1, 2))
    items = ItemColumns(Annotation, cols["id"], cols["image_id"], cols["category_id"], boxes,
                        cols["area"], cols["segmentation"])
    boxed = np.isnan(items.values) & ~items.has_mask
    items.values[boxed] = np.prod(boxes[:, 2:], 1)[boxed]
    return _ground_truth(anns, images, label_map, items)


def load_vott(path, labels: LabelMap | None = None) -> GroundTruthSet:
    """Load a VoTT-subset export as a one-image ground-truth set.

    Region ``k`` becomes the polygon annotation ``k + 1``, classed by its
    first tag and boxed by its points' bounds clipped to the asset. Without
    ``labels``, the classes are the tags in order of first use, numbered
    from 1.
    """
    raw = _read_json(path)
    asset = raw.get("asset") if isinstance(raw, dict) else None
    if not (isinstance(asset, dict) and isinstance(asset.get("size"), dict)
            and isinstance(raw.get("regions"), list)):
        raise ParseError(f"{path}: expected a VoTT export with asset and regions")
    size = _Records([asset["size"]], lambda k: f"{path}: asset.size").table(
        _IMAGE_FIELDS[2:])
    width, height = size["width"].item(), size["height"].item()
    if "name" in asset:
        _Records([asset], lambda k: f"{path}: asset").table(
            (("name", _TEXT, True, None),))
    image = ImageRecord(1, asset.get("name") or Path(path).stem + ".png", width, height)

    class_ids = {} if labels is None else {name: i for i, name in labels.entries}
    regions = _Records(raw["regions"], lambda k: f"{path}: region {k}")
    regions.fail(np.array([type(r) is not dict for r in raw["regions"]], dtype=bool),
                 ParseError, "is not an object", sep=" ")
    classes, rings = [], []
    for k, region in enumerate(regions.rows[: regions.end]):
        tags = region.get("tags")
        if not (tags and isinstance(tags, list) and all(map(_is_text, tags))):
            regions.fail(np.array([k]), ParseError,
                         f"tags must be an array of strings, not {_shown(tags)}")
            break
        if labels is None:  # classes numbered in order of first use
            for tag in tags:
                class_ids.setdefault(tag, len(class_ids) + 1)
        if tags[0] not in class_ids:
            regions.fail(np.array([k]), ParseError, f"tag {_shown(tags[0])} not in label map")
            break
        classes.append(class_ids[tags[0]])
        # a point that is not an {x, y} object fails the number check
        points = region.get("points") or []
        rings.append(list(chain.from_iterable(
            (p.get("x"), p.get("y")) if type(p) is dict else (None, None)
            for p in (points if type(points) is list else [None]))))
    n = len(rings)
    rings, sizes, xy = regions.polygons(range(n), [[r] for r in rings])
    regions.check()
    if labels is None:
        if not class_ids:
            raise ParseError(f"{path}: no tags found in regions")
        labels = LabelMap((i, tag) for tag, i in class_ids.items())
    # a region outside the image has an area of 0, which is refused
    first, size = sizes.cumsum() - sizes, [float(width), float(height)]
    lo, hi = np.minimum.reduceat(xy, first), np.maximum.reduceat(xy, first)
    boxes = _clamped(lo, hi, hi - lo, size)
    yes = np.ones(n, dtype=bool)
    return _ground_truth(regions, [image], labels, ItemColumns(
        Annotation, np.arange(1, n + 1), np.ones(n, np.int64), np.array(classes, np.int64),
        boxes, np.full(n, np.nan), MaskColumns(
            np.tile([width, height], (n, 1)), yes, yes, rings, sizes, xy, ~yes,
            np.zeros(n, np.int64), np.empty(0, np.int64))))


def _clamped(lo, hi, wh, size) -> np.ndarray:
    """The ``(x, y, w, h)`` boxes of the corners ``lo`` and ``hi``, each
    clamped to ``[0, size]``; an extent with neither end clamped stays ``wh``."""
    a, b = (np.minimum(size, np.maximum(0.0, c)) for c in (lo, hi))
    return np.concatenate([a, np.where((a == lo) & (b == hi), wh, b - a)], 1)


def _ground_truth(records, images, label_map, items) -> GroundTruthSet:
    """The ground-truth set of checked annotation columns, once every area is
    known and positive and every annotation id unique. An area NaN is taken
    from the pixel count of the annotation's mask."""
    area = items.values
    unsized = np.flatnonzero(np.isnan(area))
    if unsized.size:
        area[unsized] = items.masks.areas(unsized)
    records.fail(_repeated(items.ids), ValidationError, "ann_id occurs more than once")
    records.fail(~(area > 0), GeometryError,
                 lambda k: f"area is {area[k].item()} (must be > 0)")
    records.check()
    return GroundTruthSet(images, label_map, items)


def load_detections(path, labels: LabelMap, images=()) -> DetectionSet:
    """Load a detections file (COCO results-compatible JSON array).

    ``images`` are the ground truth's image records. A detection on one of
    them gets the image as its mask canvas, so its polygons are rasterized
    within the image, as the ground truth's are.
    """
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: detections must be a JSON array")
    canvas_of = {im.image_id: (im.width, im.height) for im in images}
    cols = _Records(raw, lambda k: f"detection {k}", labels, canvas_of).table(
        _DETECTION_FIELDS)
    return DetectionSet(labels, ItemColumns(
        Detection, np.arange(len(raw)), cols["image_id"], cols["category_id"], cols["bbox"],
        cols["score"], cols["segmentation"]))


def _label_map(records, path) -> LabelMap:
    """A label map from ``{"id", "name"}`` records, each named by its index."""
    cols = _Records(records, lambda k: f"{path}: category at index {k}").table(
        _CATEGORY_FIELDS)
    return LabelMap(zip(cols["id"].tolist(), cols["name"]))


def _items_json(items, keys) -> list[dict]:
    """The JSON objects of ``items``, whose ids, image ids, class ids, boxes
    and values are written under ``keys``, in that order, unless a key is
    None; an item with a mask has its "segmentation" last, cut from the
    masks' buffers."""
    columns = (items.ids, items.image_ids, items.class_ids, items.boxes, items.values)
    named = {key: column.tolist() for key, column in zip(keys, columns) if key}
    rows = [dict(zip(named, row)) for row in zip(*named.values())]
    masks = items.masks.take(np.arange(items.ids.size))
    rings = _split(_split(masks.xy.ravel().tolist(), 2 * masks.ring_sizes), masks.rings)
    runs, sizes = _split(masks.runs.tolist(), masks.run_counts), masks.canvas[:, ::-1].tolist()
    for k in np.flatnonzero(items.has_mask).tolist():
        rows[k]["segmentation"] = rings[k] if masks.poly[k] else {
            "size": sizes[k], "counts": runs[k]}
    return rows


def _split(items, counts) -> list:
    """``items`` cut into consecutive slices of ``counts`` items each."""
    ends = counts.cumsum().tolist()
    return [items[a:b] for a, b in zip([0, *ends], ends)]


def json_text(doc) -> str:
    """``doc`` as the indented, UTF-8 JSON text of every JSON file written."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def write_text_atomic(files) -> None:
    """Write each ``(path, text)`` of ``files`` as UTF-8, all or none.

    Every text goes to a temporary file beside its path first, and only then
    is each renamed over its path, so a reader never sees a partial file.
    Missing parent directories are created. A path that cannot be written, or
    text that has no UTF-8 form (a lone surrogate read from a JSON escape),
    raises ConfigError naming the path, after the temporary files and the
    outputs already renamed into place are removed, and the files they
    replaced, moved aside until all are written, are put back. Temporary and
    moved-aside files take names that no file has (see :func:`_fresh`)."""
    files = [(Path(path), text) for path, text in files]
    made, aside = [], []
    try:
        for path, text in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            made.append(_fresh(path, ".tmp"))
            made[-1].write_text(text, encoding="utf-8")
        for (path, _), tmp in zip(files, made[: len(files)]):  # the staged files
            if path.is_file():
                made.append(_fresh(path, ".old"))  # removed on failure until filled
                path.replace(made[-1])
                aside.append((made.pop(), path))
            tmp.replace(path)
            made.append(path)
    except (OSError, UnicodeEncodeError) as exc:
        for leftover in made:
            with contextlib.suppress(OSError):
                leftover.unlink()
        for old, target in aside:
            old.replace(target)
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    for old, _ in aside:
        with contextlib.suppress(OSError):
            old.unlink()


def _fresh(path, suffix) -> Path:
    """A new empty file beside ``path``, made exclusively under a name that no
    file has, with the permissions that ``open`` gives a new file."""
    for n in count():
        name = path.with_name(f"{path.name}.{n}{suffix}")
        with contextlib.suppress(FileExistsError):
            open(name, "x").close()
            return name


# ---------------------------------------------------------------------------
# rescaling


def rescale(dataset, to_width: int, to_height: int, *, images=None, force: bool = False):
    """Scale every coordinate to a new image size.

    Per-image scale factors are (to_width / width, to_height / height).
    Polygon masks are scaled vertex-wise, all vertices in one product; an
    RLE-only mask cannot be rescaled losslessly and raises unless ``force``
    enables nearest-neighbor resampling of its runs. The masks stay buffer
    columns throughout. Detection sets carry no image table, so their
    source dimensions must be supplied via ``images``. A ground truth's area
    is recomputed from its scaled geometry: its mask's pixel count, else its
    box's area; it must stay positive, as on loading.
    """
    if not (1 <= to_width < _INT_LIMIT and 1 <= to_height < _INT_LIMIT):
        raise ConfigError(f"target size must be in [1, 2**53), got {to_width}x{to_height}")
    if isinstance(dataset, GroundTruthSet):
        images, kind = dataset.images, "annotation"
    elif isinstance(dataset, DetectionSet):
        if images is None:
            raise ConfigError("rescaling detections requires the image table")
        images, kind = tuple(images), "detection"
    else:
        raise ConfigError(f"cannot rescale object of type {type(dataset).__name__}")
    items, canvas = dataset.items, (to_width, to_height)
    row_of = {im.image_id: k for k, im in enumerate(images)}
    rows = np.array([row_of.get(i, -1) for i in items.image_ids.tolist()], np.int64)
    fault = np.flatnonzero((rows < 0) | items.masks.rle & (not force))
    if fault.size:  # the lowest-index faulty item raises
        k = fault[0]
        if rows[k] < 0:
            raise MissingReferenceError(
                f"unknown image_id {items.image_ids[k]} during rescale")
        raise LossyRescaleError(f"{kind} {items.ids[k]}: RLE-only mask cannot be rescaled "
                                "from polygons; pass force to resample")
    sizes = np.array([(im.width, im.height) for im in images], float).reshape(-1, 2)
    factors = np.divide(canvas, sizes)[rows]
    src = items.masks.take(np.arange(rows.size))
    # each vertex times its item's (sx, sy), and each grid's runs resampled
    xy = src.xy * factors[np.arange(rows.size).repeat(src.rings).repeat(src.ring_sizes)]
    runs, sized = _split(src.runs, src.run_counts), src.canvas.tolist()
    grids = [resampled_runs(runs[k], sized[k], canvas)
             for k in np.flatnonzero(src.rle).tolist()]
    counts = src.run_counts.copy()
    counts[src.rle] = [g.size for g in grids]
    masks = MaskColumns(np.tile(canvas, (rows.size, 1)), items.has_mask, src.poly, src.rings,
                        src.ring_sizes, xy, src.rle, counts,
                        np.concatenate([src.runs[:0], *grids]))
    boxes = items.boxes * np.tile(factors, 2)
    columns = (items.ids, items.image_ids, items.class_ids, boxes)
    if kind == "detection":
        return DetectionSet(dataset.label_map, ItemColumns(Detection, *columns, items.values,
                                                           masks))
    # the area of a masked item is NaN, for _ground_truth to take from its mask
    area = np.where(items.has_mask, np.nan, boxes[:, 2] * boxes[:, 3])
    return _ground_truth(
        _Records([{}] * area.size, lambda k: f"annotation {items.ids[k]}"),
        [replace(im, width=to_width, height=to_height) for im in images], dataset.label_map,
        ItemColumns(Annotation, *columns, area, masks))


# ---------------------------------------------------------------------------
# splitting


def stratified_split(
    dataset: GroundTruthSet, ratios: SplitRatios, seed: int
) -> tuple[GroundTruthSet, GroundTruthSet, GroundTruthSet]:
    """Partition images into train/val/test, balancing per-class counts.

    Images (never individual annotations) are shuffled by the seed and each is
    assigned to the split whose remaining per-class deficit, summed over the
    classes present in the image, is largest. Ties go to the larger-ratio
    split, then to train < val < test order. Deterministic for a fixed seed.
    """
    images, items = dataset.images, dataset.items
    if not images:
        raise ConfigError("cannot split an empty ground-truth set")
    ratio_list = [ratios.train, ratios.val, ratios.test]
    # the row of each image, then of each item, among the image ids, and the
    # annotation count of each (row, class)
    image_ids = [im.image_id for im in images]
    keys, rows = np.unique(np.append(image_ids, items.image_ids), return_inverse=True)
    classes, cols = np.unique(items.class_ids, return_inverse=True)
    counts = np.bincount(rows[len(images):] * classes.size + cols,
                         minlength=keys.size * classes.size).reshape(keys.size, -1)
    totals = counts.sum(0).tolist()
    targets = [[r * n for n in totals] for r in ratio_list]
    assigned = [[0] * classes.size for _ in ratio_list]

    order = sorted(range(len(images)), key=image_ids.__getitem__)
    random.Random(seed).shuffle(order)
    split_of = np.full(keys.size, -1)
    for row in rows[order].tolist():
        here = counts[row].tolist()
        present = [c for c, n in enumerate(here) if n]
        split = max(range(3), key=lambda s: (
            sum(targets[s][c] - assigned[s][c] for c in present), ratio_list[s], -s))
        split_of[row] = split
        for c in present:
            assigned[split][c] += here[c]
    image_split, item_split = np.split(split_of[rows], [len(images)])
    return tuple(GroundTruthSet(
        [images[k] for k in np.flatnonzero(image_split == s).tolist()], dataset.label_map,
        items.take(np.flatnonzero(item_split == s))) for s in range(3))
