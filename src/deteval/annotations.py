"""Dataset model and plumbing: loading, validation, splitting, rescaling.

Ground truth and detection files are a strict subset of the COCO annotation
and results formats (see the README for the exact schemas). Unknown fields are
ignored so COCO-superset files load unchanged. Sets are immutable after load;
every operation returns new values.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
from dataclasses import dataclass, replace
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
    BBox,
    InstanceMask,
    Polygon,
    RLEMask,
    prepare_windows,
    rle_decode,
    rle_encode,
)

ROAD_CLASS_NAMES = (
    "Crack1",
    "Crack2",
    "Joint",
    "Patching",
    "Filling",
    "Pothole",
    "Manhole",
    "Stain",
    "Shadow",
    "Marking",
    "Scratch",
    "Patching2",
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
    def road_default(cls) -> "LabelMap":
        return cls((i + 1, name) for i, name in enumerate(ROAD_CLASS_NAMES))

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
    image_id: int
    file_name: str
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValidationError(
                f"image {self.image_id}: dimensions must be >= 1, got "
                f"{self.width}x{self.height}"
            )


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


class GroundTruthSet:
    """Validated ground-truth annotations plus their image table."""

    def __init__(self, images, label_map: LabelMap, annotations):
        self.images: tuple[ImageRecord, ...] = tuple(images)
        self.label_map = label_map
        self.annotations: tuple[Annotation, ...] = tuple(annotations)
        self.images_by_id = {img.image_id: img for img in self.images}
        self._by_image = None

    def by_image(self) -> dict[int, list[Annotation]]:
        if self._by_image is None:
            grouped = {img.image_id: [] for img in self.images}
            for ann in self.annotations:
                grouped.setdefault(ann.image_id, []).append(ann)
            self._by_image = grouped
        return self._by_image

    def per_class_counts(self) -> dict[int, int]:
        counts = {cid: 0 for cid in self.label_map.ids()}
        for ann in self.annotations:
            counts[ann.class_id] = counts.get(ann.class_id, 0) + 1
        return counts

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroundTruthSet)
            and self.images == other.images
            and self.label_map == other.label_map
            and self.annotations == other.annotations
        )

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
            "annotations": [_ann_to_json(a) for a in self.annotations],
            "categories": self.label_map.to_json(),
        }

    def save(self, path) -> None:
        write_text_atomic([(path, json_text(self.to_json()))])


class DetectionSet:
    """Scored detections grouped by image; carries no image table of its own."""

    def __init__(self, label_map: LabelMap, detections):
        self.label_map = label_map
        self.detections: tuple[Detection, ...] = tuple(detections)
        self._by_image = None

    def by_image(self) -> dict[int, list[Detection]]:
        if self._by_image is None:
            grouped: dict[int, list[Detection]] = {}
            for det in self.detections:
                grouped.setdefault(det.image_id, []).append(det)
            self._by_image = grouped
        return self._by_image

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DetectionSet)
            and self.label_map == other.label_map
            and self.detections == other.detections
        )

    def to_json(self) -> list[dict]:
        return [_det_to_json(d) for d in self.detections]

    def save(self, path) -> None:
        write_text_atomic([(path, json_text(self.to_json()))])


# ---------------------------------------------------------------------------
# loading


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc


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
            polys = [Polygon.from_flat(p) for p in raw]
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
    return BBox(x0, y0, x1 - x0, y1 - y0)


def load_ground_truth(path) -> GroundTruthSet:
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
        img = ImageRecord(
            image_id=_req(entry, "id", where, int),
            file_name=_req(entry, "file_name", where, _string),
            width=_req(entry, "width", where, int),
            height=_req(entry, "height", where, int),
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


def load_vott(path, labels: LabelMap | None = None) -> GroundTruthSet:
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
    image = ImageRecord(1, name or Path(path).stem + ".png", width, height)

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
            poly = Polygon.from_points((p["x"], p["y"]) for p in points)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{where} has malformed points") from exc
        except GeometryError as exc:
            raise GeometryError(f"{where}: {exc}") from exc
        if len(poly.vertices) < 3:
            raise ParseError(f"{where} needs at least 3 points")
        x0, y0, x1, y1 = poly.bounds()
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


def load_detections(path, labels: LabelMap, images=()) -> DetectionSet:
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
        return [p.to_flat() for p in mask.polygons]
    return {
        "size": [mask.rle.height, mask.rle.width],
        "counts": mask.rle.runs.tolist(),
    }


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
    outputs already renamed into place are removed."""
    files = [(Path(path), text) for path, text in files]
    made = []
    try:
        for path, text in files:
            tmp = path.with_name(path.name + ".tmp")
            path.parent.mkdir(parents=True, exist_ok=True)
            made.append(tmp)
            tmp.write_text(text, encoding="utf-8")
        for path, _ in files:
            path.with_name(path.name + ".tmp").replace(path)
            made.append(path)
    except (OSError, UnicodeEncodeError) as exc:
        for leftover in made:
            with contextlib.suppress(OSError):
                leftover.unlink()
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# rescaling


def rescale(dataset, to_width: int, to_height: int, *, images=None, force: bool = False):
    """Scale every coordinate to a new image size.

    Per-image scale factors are (to_width / width, to_height / height).
    Polygon masks are scaled vertex-wise and re-rasterized lazily; an RLE-only
    mask cannot be rescaled losslessly and raises unless ``force`` enables
    nearest-neighbor resampling. Detection sets carry no image table, so their
    source dimensions must be supplied via ``images``.
    """
    if to_width < 1 or to_height < 1:
        raise ConfigError(f"target size must be >= 1x1, got {to_width}x{to_height}")
    if isinstance(dataset, GroundTruthSet):
        source = dataset.images_by_id
    elif isinstance(dataset, DetectionSet):
        if images is None:
            raise ConfigError("rescaling detections requires the image table")
        source = {im.image_id: im for im in images}
    else:
        raise ConfigError(f"cannot rescale object of type {type(dataset).__name__}")

    def factors(image_id):
        img = source.get(image_id)
        if img is None:
            raise MissingReferenceError(f"unknown image_id {image_id} during rescale")
        return to_width / img.width, to_height / img.height

    if isinstance(dataset, GroundTruthSet):
        new_images = [
            replace(im, width=to_width, height=to_height) for im in dataset.images
        ]
        new_anns = []
        for ann in dataset.annotations:
            sx, sy = factors(ann.image_id)
            mask = _rescale_mask(
                ann.mask, sx, sy, (to_width, to_height), force, f"annotation {ann.ann_id}"
            )
            area = float(mask.area) if mask is not None else ann.bbox.scaled(sx, sy).area
            new_anns.append(
                replace(ann, bbox=ann.bbox.scaled(sx, sy), mask=mask, area=area)
            )
        return GroundTruthSet(new_images, dataset.label_map, new_anns)

    new_dets = []
    for det in dataset.detections:
        sx, sy = factors(det.image_id)
        mask = _rescale_mask(
            det.mask, sx, sy, (to_width, to_height), force, f"detection {det.det_id}"
        )
        new_dets.append(replace(det, bbox=det.bbox.scaled(sx, sy), mask=mask))
    return DetectionSet(dataset.label_map, new_dets)


def _rescale_mask(mask, sx, sy, canvas, force, where):
    if mask is None:
        return None
    if mask.polygons is not None:
        return mask.scaled(sx, sy, canvas=canvas)
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
