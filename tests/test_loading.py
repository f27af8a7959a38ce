"""The column-wise loaders against the record-by-record reference.

Files are fuzzed by replacing one field or one record of a valid file with
any JSON value. Every such file exits 0 or 2 through the CLI, loads to the
reference's records when both loaders accept it, and is refused by the
column-wise loaders only where a field rule is stricter than the reference.
"""

import copy
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import minimal_gt_dict, write_json
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deteval.annotations as annotations
from deteval.annotations import load_detections, load_ground_truth, load_vott
from deteval.cli import main
from deteval.errors import EvalError
from deteval.matching import image_ious
from deteval.geometry import InstanceMask, rle_encode
from deteval.oracle import (
    ScenarioConfig,
    full_grid,
    generate,
    reference_load_detections,
    reference_load_ground_truth,
    reference_load_vott,
)


def _block_counts(width, height, x0, y0, x1, y1):
    bits = np.zeros((height, width), dtype=bool)
    bits[y0:y1, x0:x1] = True
    return rle_encode(bits).runs.tolist()


# a valid ground truth and detections: polygons of one and two rings, a
# run-length mask, no mask, given and absent areas, and iscrowd 0
BASE_GT = {
    "images": [
        {"id": 1, "file_name": "a.png", "width": 32, "height": 24},
        {"id": 2, "file_name": "b.png", "width": 16, "height": 16},
    ],
    "annotations": [
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [2, 2, 10, 8],
         "segmentation": [[2, 2, 12, 2.5, 11, 10, 2.5, 9.5]], "area": 70.5,
         "iscrowd": 0},
        {"id": 2, "image_id": 1, "category_id": 2, "bbox": [14.5, 3, 9, 9],
         "segmentation": [[15, 3, 23, 4, 20, 12], [16, 6, 18, 6, 17, 8]]},
        {"id": 3, "image_id": 2, "category_id": 1, "bbox": [1, 1, 6, 6],
         "segmentation": {"size": [16, 16], "counts": _block_counts(16, 16, 1, 1, 7, 7)}},
        {"id": 4, "image_id": 2, "category_id": 2, "bbox": [8, 8, 5, 4]},
    ],
    "categories": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}],
}
BASE_DET = [
    {"image_id": 1, "category_id": 1, "bbox": [2.5, 2, 9, 8], "score": 0.9,
     "segmentation": [[2.5, 2, 11, 2, 11, 10, 3, 9]]},
    {"image_id": 1, "category_id": 2, "bbox": [14, 3, 9, 9.5], "score": 0.6},
    {"image_id": 2, "category_id": 1, "bbox": [1, 1, 6, 5], "score": 0.75,
     "segmentation": {"size": [16, 16], "counts": _block_counts(16, 16, 1, 1, 7, 6)}},
    {"image_id": 2, "category_id": 1, "bbox": [9, 8, 4, 4], "score": 0.3,
     "segmentation": [[9, 8, 13, 8, 13, 12]]},
]
BASE_VOTT = {
    "asset": {"size": {"width": 64, "height": 48}, "name": "a.png"},
    "regions": [
        {"tags": ["A"], "points": [{"x": 4, "y": 4}, {"x": 14.5, "y": 4},
                                   {"x": 9, "y": 14}]},
        {"tags": ["B", "A"], "points": [{"x": 20.5, "y": 20}, {"x": 70, "y": 22.25},
                                        {"x": 30, "y": 41}, {"x": 22, "y": 30}]},
    ],
}


def _paths(doc, prefix=()):
    """Every place in ``doc`` a value sits at, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


# the places a fuzzed value goes: any existing one, or an optional field
# added where it is absent
FILE_PATHS = (
    [("gt",) + p for p in _paths(BASE_GT)]
    + [("det",) + p for p in _paths(BASE_DET)]
    + [("gt", "annotations", 3, "iscrowd"), ("gt", "annotations", 3, "area"),
       ("gt", "annotations", 3, "segmentation"), ("det", 1, "segmentation")]
)
VOTT_PATHS = list(_paths(BASE_VOTT))

# any JSON value, and the values the field rules turn on: integral and
# fractional floats, bools, numeric strings, signed zeros, values at and
# past 2**53 and the float range, and non-finite numbers
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
RULE_VALUES = st.sampled_from([
    0, 1, 2, 3.0, 1.5, -0.0, 0.0, True, False, "1", "30", "", None, 2**53 - 1,
    2**53, 2**63, 10**400, 1e300, float("nan"), float("inf"), [], {}, [1, 2],
    [0, 0, 4, 0, 4, 4], {"size": [16, 16], "counts": [256]}, "bad\udc00",
])
VALUES = st.one_of(RULE_VALUES, JSON_VALUES)


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def fuzzed_files():
    return st.builds(
        lambda path, value: _replaced({"gt": BASE_GT, "det": BASE_DET}, path, value),
        st.sampled_from(FILE_PATHS), VALUES,
    )


def _write(tmp, docs):
    return [write_json(Path(tmp) / f"{name}.json", doc) for name, doc in docs.items()]


def _outcome(load, errors=EvalError):
    try:
        return load(), None
    except errors as exc:
        return None, exc


# the reference crashes on an integer coordinate beyond the float range
REFERENCE_ERRORS = (EvalError, OverflowError)


# names of a record in an error
RECORD = re.compile(
    r"(annotation at index \d+|annotation -?\d+|detection \d+|image at index \d+"
    r"|category at index \d+|region \d+|duplicate image id -?\d+)"
)


def _named(exc):
    found = RECORD.search(str(exc))
    return found and found.group(0)


def _is_integer(value):
    return (type(value) in (int, float) and abs(value) < 2**53
            and float(value).is_integer())


def _is_number(value):
    return type(value) in (int, float)


def _ring_changes(rings):
    return not isinstance(rings, list) or any(
        not isinstance(r, list) or not all(map(_is_number, r)) for r in rings
    )


def _mask_changes(seg):
    """Whether a segmentation breaks a rule the reference does not have."""
    if isinstance(seg, list):
        return _ring_changes(seg)
    if isinstance(seg, dict):
        size, counts = seg.get("size"), seg.get("counts")
        return (not isinstance(size, list) or not all(map(_is_integer, size))
                or not isinstance(counts, list) or not all(map(_is_integer, counts)))
    return False


def contract_change(gt, det):
    """Whether the files hold an input that the field rules refuse and the
    reference accepted: a bool, a string, a fraction or a magnitude of 2**53
    or more where an integer goes, a bool or a string where a number goes, a
    polygon ring that is not an array, RLE size or counts that are not
    arrays of integers, or an ``iscrowd`` other than 0."""
    def records(doc, key):
        part = doc.get(key, []) if isinstance(doc, dict) else doc
        return [r for r in part if isinstance(r, dict)] if isinstance(part, list) else []

    def integers(rows, *keys):
        return any(k in r and not _is_integer(r[k]) for r in rows for k in keys)

    anns, dets = records(gt, "annotations"), records(det, None)
    return (
        integers(records(gt, "images"), "id", "width", "height")
        or integers(records(gt, "categories"), "id")
        or integers(anns, "id", "image_id", "category_id")
        or integers(dets, "image_id", "category_id")
        or any("score" in d and not _is_number(d["score"]) for d in dets)
        or any(r.get("area") is not None and not _is_number(r["area"]) for r in anns)
        or any(r.get("iscrowd") not in (None, 0) or r.get("iscrowd") is False
               for r in anns)
        or any(isinstance(r.get("bbox"), list) and not all(map(_is_number, r["bbox"]))
               for r in anns + dets)
        or any(_mask_changes(r.get("segmentation")) for r in anns + dets)
    )


def assert_same_records(new, ref):
    """``new`` equals ``ref``, with every field of the same Python type,
    every vertex and run array equal, dtype included, and the same JSON text,
    so signed zeros agree too."""
    assert new == ref
    assert json.dumps(new.to_json()) == json.dumps(ref.to_json())
    new_items = getattr(new, "annotations", None) or getattr(new, "detections", ())
    ref_items = getattr(ref, "annotations", None) or getattr(ref, "detections", ())
    for a, b in zip(new_items, ref_items):
        assert [type(v) for v in vars(a).values()] == [type(v) for v in vars(b).values()]
        assert [type(v) for v in vars(a.bbox).values()] == [float] * 4
        if a.mask is None:
            continue
        assert a.mask.canvas == b.mask.canvas
        if a.mask.rle is not None:
            runs, ref_runs = a.mask.rle.runs, b.mask.rle.runs
            assert runs.dtype == ref_runs.dtype and np.array_equal(runs, ref_runs)
            assert not runs.flags.writeable
            continue
        for p, q in zip(a.mask.polygons, b.mask.polygons, strict=True):
            assert p.vertices.dtype == q.vertices.dtype
            assert np.array_equal(p.vertices, q.vertices)
            assert not p.vertices.flags.writeable


def check_against_reference(gt_path, det_path):
    """Load both files with both loaders and compare the outcomes."""
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in (gt_path, det_path)]
    gt, error = _outcome(lambda: load_ground_truth(gt_path))
    ref_gt, ref_error = _outcome(
        lambda: reference_load_ground_truth(gt_path), REFERENCE_ERRORS)
    if gt is not None and ref_gt is not None:
        assert_same_records(gt, ref_gt)
        det, error = _outcome(lambda: load_detections(det_path, gt.label_map, gt.images))
        ref_det, ref_error = _outcome(lambda: reference_load_detections(
            det_path, ref_gt.label_map, ref_gt.images), REFERENCE_ERRORS)
        if det is not None and ref_det is not None:
            assert_same_records(det, ref_det)
            return
    assert error is not None, f"accepted what the reference refused: {ref_error}"
    if not _same_record(error, ref_error):
        assert contract_change(*docs), (error, ref_error)


def _same_record(error, ref_error):
    """Whether both loaders refused a file naming the same record; where
    either message names none, whether both refused it."""
    if ref_error is None:
        return False
    named, ref_named = _named(error), _named(ref_error)
    return None in (named, ref_named) or named == ref_named


class TestFieldRules:
    """Inputs the reference loaded and the field table refuses: each exits 2
    and names its record."""

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize(
        "path, value, named",
        [
            (("gt", "annotations", 0, "id"), 1.5, "annotation at index 0: 'id' is 1.5"),
            (("gt", "images", 0, "width"), 100.7, "image at index 0: 'width' is 100.7"),
            (("gt", "annotations", 0, "image_id"), "1", "annotation 1: 'image_id' is '1'"),
            (("gt", "annotations", 0, "id"), 2**53, "annotation at index 0: 'id'"),
            (("det", 0, "score"), True, "detection 0: 'score' is True"),
            (("det", 0, "bbox", 2), True, "detection 0: bbox"),
            (("gt", "annotations", 0, "bbox", 0), "10", "annotation 1: bbox"),
            (("gt", "annotations", 0, "area"), "400", "annotation 1: non-numeric area"),
            (("gt", "annotations", 0, "segmentation"), [[4, 4, "30", 4, 14, 14]],
             "annotation 1: bad polygon segmentation"),
            (("gt", "annotations", 0, "iscrowd"), 1,
             "annotation 1: iscrowd is 1; crowd regions are not supported"),
            (("det", 0, "segmentation"), {"size": [64, 64], "counts": [4095.5, 1.5]},
             "detection 0: bad RLE segmentation"),
        ],
    )
    def test_exits_2_naming_the_record(self, tmp_path, capsys, mode, path, value, named):
        docs = {"gt": minimal_gt_dict(), "det": [
            {"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 9], "score": 0.9}
        ]}
        gt, det = _write(tmp_path, _replaced(docs, path, value))
        ref = _outcome(lambda: reference_load_detections(
            det, reference_load_ground_truth(gt).label_map))
        assert ref[1] is None  # the reference loaded it
        out = tmp_path / "o"
        code = main(["evaluate", "--gt", str(gt), "--det", str(det), "--mode", mode,
                     "--out", str(out)])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestLowestIndex:
    """Of several faulty records, the error names the lowest-index one, at
    its first faulty field, as the record-by-record reference does."""

    @pytest.mark.parametrize(
        "faults, named",
        [
            # a late field of record 1 before an early field of record 2
            ({(1, "area"): "x", (2, "id"): "x"}, "annotation 2: non-numeric area"),
            ({(2, "image_id"): 9, (1, "segmentation"): [[1, 2]]}, "annotation 2: "),
            ({(3, "bbox"): None, (1, "category_id"): 7}, "annotation 2: unknown"),
            # two faults of one record: the first field's
            ({(1, "bbox"): [0, 0, -1, 1], (1, "area"): "x"},
             "annotation 2: negative bbox extent"),
            ({(1, "id"): 1, (0, "area"): 0}, "annotation 1: area is 0.0"),
            ({(3, "segmentation"): {"size": [16, 16], "counts": [255]},
              (2, "segmentation"): [[0, 0, 1, 1]]}, "annotation 3: polygon has"),
        ],
    )
    def test_names_the_first_faulty_record(self, tmp_path, faults, named):
        doc = copy.deepcopy(BASE_GT)
        for (k, key), value in faults.items():
            doc["annotations"][k][key] = value
        path = write_json(tmp_path / "gt.json", doc)
        with pytest.raises(EvalError) as error:
            load_ground_truth(path)
        with pytest.raises(EvalError) as ref_error:
            reference_load_ground_truth(path)
        assert named in str(error.value)
        assert _named(error.value) == _named(ref_error.value)


class TestWholeFileFuzz:
    """One field or one record of a valid file replaced by any JSON value:
    evaluate in both modes and convert exit 0 or 2, never 1."""

    @settings(max_examples=150, deadline=None)
    @given(docs=fuzzed_files())
    def test_evaluate_exits_0_or_2(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            gt, det = _write(tmp, docs)
            for mode in ("boxes", "masks"):
                code = main(["evaluate", "--gt", str(gt), "--det", str(det),
                             "--mode", mode, "--out", str(Path(tmp) / mode)])
                assert code in (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(VOTT_PATHS), value=VALUES)
    def test_convert_exits_0_or_2(self, path, value):
        with tempfile.TemporaryDirectory() as tmp:
            vott = write_json(Path(tmp) / "v.json", _replaced(BASE_VOTT, path, value))
            labels = write_json(Path(tmp) / "l.json",
                                [{"id": 1, "name": "A"}, {"id": 2, "name": "B"}])
            for extra in ([], ["--labels", str(labels)]):
                code = main(["convert", "--vott", str(vott), *extra,
                             "--out", str(Path(tmp) / "gt.json")])
                assert code in (0, 2)


class TestReferenceDifferential:
    """The column-wise loaders load every file the reference loads to equal
    records, unless a stricter field rule refuses it."""

    def test_base_files_load_equal(self, tmp_path):
        check_against_reference(*_write(tmp_path, {"gt": BASE_GT, "det": BASE_DET}))
        gt = load_ground_truth(tmp_path / "gt.json")
        assert [a.area for a in gt.annotations] == [70.5, 35.0, 36.0, 20.0]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("masks", ["polygons", "runs"])
    def test_generated_scenes(self, tmp_path, seed, masks):
        gt_set, det_set = generate(ScenarioConfig(
            seed=seed, image_count=6, gts_per_image=(0, 8), drop_rate=0.2,
            jitter_px=3.0, class_swap_rate=0.2, clutter_rate=0.3, class_count=4,
            image_size=(48, 40),
        ))
        gt_set.save(tmp_path / "gt.json")
        det_set.save(tmp_path / "det.json")
        if masks == "runs":  # the detections as run-length grids on their images
            rows = json.loads((tmp_path / "det.json").read_text())
            for row, det in zip(rows, det_set.detections):
                full = InstanceMask(polygons=det.mask.polygons, canvas=(48, 40))
                runs = rle_encode(full_grid(full.window(), 48, 40)).runs.tolist()
                row["segmentation"] = {"size": [40, 48], "counts": runs}
            write_json(tmp_path / "det.json", rows)
        check_against_reference(tmp_path / "gt.json", tmp_path / "det.json")

    @pytest.mark.parametrize(
        "path, value",
        [
            # signed zeros, and boxes reaching past the image on each side
            (("gt", "annotations", 0, "bbox"), [-0.0, -0.0, 5, 5]),
            (("gt", "annotations", 0, "bbox"), [-3.5, 20.25, 40, 10]),
            (("det", 0, "bbox"), [-0.0, 0.0, 0.0, -0.0]),
            (("det", 0, "segmentation"), [[-0.0, 0, 5, -0.0, 5, 5]]),
            (("gt", "annotations", 0, "area"), -0.0),
        ],
    )
    def test_edge_values(self, tmp_path, path, value):
        docs = _replaced({"gt": BASE_GT, "det": BASE_DET}, path, value)
        check_against_reference(*_write(tmp_path, docs))

    @settings(max_examples=400, deadline=None)
    @given(docs=fuzzed_files())
    def test_fuzzed_files(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            check_against_reference(*_write(tmp, docs))

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(VOTT_PATHS), value=VALUES,
           labels=st.sampled_from([None, [(1, "A"), (2, "B")], [(7, "B")]]))
    @example(path=("regions", 0, "points"), value=[0, 0, 4, 0, 4, 4], labels=None)
    @example(path=("regions", 1, "points"), value=[0, 0, 4, 0, 4, 4],
             labels=[(1, "A"), (2, "B")])
    def test_fuzzed_vott_exports(self, path, value, labels):
        from deteval.annotations import LabelMap

        doc = _replaced(BASE_VOTT, path, value)
        labels = labels and LabelMap(labels)
        with tempfile.TemporaryDirectory() as tmp:
            vott = write_json(Path(tmp) / "v.json", doc)
            new, error = _outcome(lambda: load_vott(vott, labels))
            ref, ref_error = _outcome(
                lambda: reference_load_vott(vott, labels), REFERENCE_ERRORS)
        if new is not None and ref is not None:
            assert_same_records(new, ref)
        else:
            assert error is not None, f"accepted what the reference refused: {ref_error}"
            if _same_record(error, ref_error):
                return
            points = [p for r in doc["regions"] if isinstance(r, dict)
                      and isinstance(r.get("points"), list) for p in r["points"]]
            size = doc["asset"]["size"]
            assert any(isinstance(p, dict) and not all(
                map(_is_number, (p.get("x"), p.get("y")))) for p in points) or (
                isinstance(size, dict) and not all(
                    map(_is_integer, (size.get("width"), size.get("height"))))), error


class TestRecordsOnDemand:
    """The sets keep the loader's columns and build their records only when
    asked; those equal the reference loaders' records, field types
    included, whether read before or after a pair table is built."""

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("table_first", [False, True])
    def test_records_equal_the_reference(self, tmp_path, mode, table_first):
        gt_path, det_path = _write(tmp_path, {"gt": BASE_GT, "det": BASE_DET})
        gt = load_ground_truth(gt_path)
        det = load_detections(det_path, gt.label_map, gt.images)
        ref_gt = reference_load_ground_truth(gt_path)
        ref_det = reference_load_detections(det_path, ref_gt.label_map, ref_gt.images)
        if table_first:
            image_ious(gt, det, mode, 0.1)
        # records at chosen positions before all of them, then all
        assert gt.items.records([3, 0]) == (ref_gt.annotations[3], ref_gt.annotations[0])
        assert det.items.records([2]) == (ref_det.detections[2],)
        assert_same_records(gt, ref_gt)
        assert_same_records(det, ref_det)
        # each record is built once, and a later table reads the same
        assert gt.annotations is gt.annotations
        assert gt.items.records([3])[0] is gt.annotations[3]
        assert det.items.records([2, 2]) == (det.detections[2],) * 2
        image_ious(gt, det, mode, 0.1)
        assert_same_records(gt, ref_gt)
        assert_same_records(det, ref_det)


class TestOneDecode:
    """evaluate and compare decode each input file exactly once."""

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_each_file_read_once(self, tmp_path, monkeypatch, command, mode):
        gt, det = _write(tmp_path, {"gt": BASE_GT, "det": BASE_DET})
        reads = []
        read_json = annotations._read_json

        def counted(path):
            reads.append(Path(path).name)
            return read_json(path)

        monkeypatch.setattr(annotations, "_read_json", counted)
        assert main([command, "--gt", str(gt), "--det", str(det), "--mode", mode,
                     "--out", str(tmp_path / "o")]) == 0
        assert sorted(reads) == ["det.json", "gt.json"]
