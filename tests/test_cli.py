import copy
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import minimal_gt_dict, write_json
from hypothesis import given, settings
from hypothesis import strategies as st
from deteval.cli import main


def road_pair(tmp_path):
    """12-class single-image dataset with one crafted cross-class conflict."""
    from deteval.oracle import road_labels

    labels = road_labels()
    gt = {
        "images": [{"id": 1, "file_name": "a.png", "width": 400, "height": 400}],
        "annotations": [
            {"id": i + 1, "image_id": 1, "category_id": cid,
             "bbox": [30 * i, 300, 10, 10]}
            for i, cid in enumerate(labels.ids())
        ],
        "categories": [{"id": i, "name": n} for i, n in labels.entries],
    }
    # the conflict: one Crack1 gt overlapped by a higher-IoU Crack2 det and a
    # lower-IoU Crack1 det
    gt["annotations"].append(
        {"id": 100, "image_id": 1, "category_id": 1, "bbox": [200, 0, 10, 10]}
    )
    det = [
        {"image_id": 1, "category_id": cid, "bbox": [30 * i, 300, 10, 10],
         "score": 0.9}
        for i, cid in enumerate(labels.ids())
    ]
    det.append(
        {"image_id": 1, "category_id": 2, "bbox": [200, 0, 10, 9], "score": 0.9}
    )
    det.append(
        {"image_id": 1, "category_id": 1, "bbox": [200, 0, 10, 6], "score": 0.8}
    )
    return (
        write_json(tmp_path / "gt.json", gt),
        write_json(tmp_path / "det.json", det),
    )


def simple_pair(tmp_path):
    gt = write_json(tmp_path / "gt.json", minimal_gt_dict())
    det = write_json(
        tmp_path / "det.json",
        [{"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 9], "score": 0.9}],
    )
    return gt, det


class TestEvaluate:
    def test_default_writes_three_files(self, tmp_path):
        gt, det = simple_pair(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out)]
        )
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["class_metrics.csv", "confusion_matrix.csv", "report.json"]

    def test_missing_detections_exits_2_no_files(self, tmp_path):
        gt, _ = simple_pair(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(tmp_path / "nope.json"),
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists() or not list(out.iterdir())

    def test_svg_format_adds_heatmap(self, tmp_path):
        gt, det = simple_pair(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out),
             "--format", "json,csv,svg"]
        )
        assert code == 0
        assert (out / "confusion_matrix.svg").exists()

    def test_masks_mode_box_only_detections_warns(self, tmp_path):
        doc = minimal_gt_dict()
        doc["annotations"][0]["segmentation"] = [[4, 4, 14, 4, 14, 14, 4, 14]]
        gt = write_json(tmp_path / "gt.json", doc)
        det = write_json(
            tmp_path / "det.json",
            [{"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 10], "score": 0.9}],
        )
        out = tmp_path / "out"
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out),
             "--mode", "masks"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mask_fallback_items"] == 1
        assert report["geometry_mode"] == "masks"

    def test_unknown_format_exits_2(self, tmp_path):
        gt, det = simple_pair(tmp_path)
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det),
             "--out", str(tmp_path / "o"), "--format", "xml"]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("chosen", [",", ""])
    def test_empty_format_exits_2_writing_nothing(self, tmp_path, capsys, command,
                                                  chosen):
        gt, det = simple_pair(tmp_path)
        out = tmp_path / "o"
        code = main([command, "--gt", str(gt), "--det", str(det),
                     "--out", str(out), "--format", chosen])
        assert code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

    def test_detection_for_unknown_image_exits_2(self, tmp_path):
        gt, _ = simple_pair(tmp_path)
        det = write_json(
            tmp_path / "det.json",
            [{"image_id": 42, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.9}],
        )
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_gt_box_exits_2(self, tmp_path, capsys, bad):
        _, det = simple_pair(tmp_path)
        doc = minimal_gt_dict()
        doc["annotations"][0]["bbox"] = [0, 0, float(bad), 10]
        gt = write_json(tmp_path / "gt.json", doc)
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "annotation 1: non-finite bbox" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_detection_box_exits_2(self, tmp_path, capsys, bad):
        gt, _ = simple_pair(tmp_path)
        det = write_json(
            tmp_path / "det.json",
            [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, float(bad)],
              "score": 0.9}],
        )
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "detection 0: non-finite bbox" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_non_finite_gt_vertex_exits_2(self, tmp_path, capsys, mode):
        _, det = simple_pair(tmp_path)
        doc = minimal_gt_dict()
        doc["annotations"][0]["segmentation"] = [[4, 4, float("nan"), 4, 14, 14, 4, 14]]
        gt = write_json(tmp_path / "gt.json", doc)
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--mode", mode,
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "annotation 1: bad polygon segmentation" in err
        assert "not a finite number" in err

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_non_finite_detection_vertex_exits_2(self, tmp_path, capsys, mode):
        gt, _ = simple_pair(tmp_path)
        det = write_json(
            tmp_path / "det.json",
            [{"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 10], "score": 0.9,
              "segmentation": [[4, 4, 14, 4, float("inf"), 14, 4, 14]]}],
        )
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--mode", mode,
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "detection 0: bad polygon segmentation" in err
        assert "not a finite number" in err

    def test_detection_polygon_past_image_is_clipped(self, tmp_path):
        # the detection's polygon covers the gt and runs far off the 64x64
        # image; only its on-image part counts, so the gt is matched exactly
        doc = minimal_gt_dict()
        doc["annotations"][0]["segmentation"] = [[0, 0, 64, 0, 64, 64, 0, 64]]
        doc["annotations"][0]["bbox"] = [0, 0, 64, 64]
        gt = write_json(tmp_path / "gt.json", doc)
        det = write_json(
            tmp_path / "det.json",
            [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 64, 64], "score": 0.9,
              "segmentation": [[0, 0, 4000, 0, 4000, 3000, 0, 3000]]}],
        )
        out = tmp_path / "o"
        assert main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--mode", "masks",
             "--out", str(out)]
        ) == 0
        aggregates = json.loads((out / "report.json").read_text())["aggregates"]
        assert aggregates["map_75"] == 1.0

    def test_ap_fields_identical_across_algorithms(self, tmp_path):
        gt, det = road_pair(tmp_path)
        outs = {}
        for algo in ("conventional", "modified"):
            out = tmp_path / algo
            assert main(
                ["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out),
                 "--algorithm", algo]
            ) == 0
            outs[algo] = json.loads((out / "report.json").read_text())
        assert outs["conventional"]["aggregates"] == outs["modified"]["aggregates"]

    def test_four_decimal_formatting(self, tmp_path):
        gt, det = simple_pair(tmp_path)
        out = tmp_path / "out"
        main(["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out)])
        csv_text = (out / "class_metrics.csv").read_text()
        assert "1.0000" in csv_text
        assert "Precision mAP@.50IOU" in csv_text
        assert "Recall AR@100 (small)" in csv_text

    def test_index_orders_of_both_outputs(self, tmp_path):
        """The CSV's right panel lists each kind's size-filtered indices
        large to small, report.json small to large, as AGGREGATES does."""
        from deteval.metrics import AGGREGATES

        gt, det = road_pair(tmp_path)
        out = tmp_path / "out"
        assert main(["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO((out / "class_metrics.csv").read_text())))
        assert rows[0][3:] == ["Index", "value"]
        assert [r[3] for r in rows[1:] if r[3]] == [
            "Precision mAP", "Precision mAP@.50IOU", "Precision mAP@.75IOU",
            "Precision mAP (large)", "Precision mAP (medium)", "Precision mAP (small)",
            "Recall AR@1", "Recall AR@10", "Recall AR@100",
            "Recall AR@100 (large)", "Recall AR@100 (medium)", "Recall AR@100 (small)",
        ]
        keys = list(json.loads((out / "report.json").read_text())["aggregates"])
        assert keys == [key for key, *_ in AGGREGATES] == [
            "map_50_95", "map_50", "map_75", "map_small", "map_medium", "map_large",
            "ar_1", "ar_10", "ar_100", "ar_100_small", "ar_100_medium", "ar_100_large",
        ]


# any finite float, values on and around the 64x64 image, and the
# non-finite and out-of-range ones
VERTEX_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-10, 80),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308]),
)
POLYGONS = st.lists(
    st.tuples(VERTEX_VALUES, VERTEX_VALUES), min_size=3, max_size=5
).map(lambda pts: [c for p in pts for c in p])


MISSING = object()


class TestScalarFields:
    """A required scalar field that is missing or does not convert exits 2
    and names its record."""

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize(
        "records, field, value, named",
        [
            pytest.param("annotations", "bbox", MISSING, "annotation 1: missing 'bbox'",
                         id="gt-bbox-missing"),
            pytest.param("detections", "bbox", MISSING, "detection 0: missing 'bbox'",
                         id="det-bbox-missing"),
            pytest.param("annotations", "id", "abc", "annotation at index 0: 'id'",
                         id="gt-id-abc"),
            pytest.param("categories", "id", "abc", "category at index 0: 'id'",
                         id="category-id-abc"),
            pytest.param("images", "width", "abc", "image at index 0: 'width'",
                         id="image-width-abc"),
            # written to the file as 1e400, which reads as infinity
            pytest.param("images", "width", float("inf"), "image at index 0: 'width'",
                         id="image-width-1e400"),
            pytest.param("images", "id", None, "image at index 0: 'id'",
                         id="image-id-null"),
            pytest.param("detections", "category_id", None, "detection 0: 'category_id'",
                         id="det-category-null"),
            pytest.param("detections", "score", "x", "detection 0: 'score'",
                         id="det-score-x"),
            pytest.param("detections", "image_id", [1], "detection 0: 'image_id'",
                         id="det-image-list"),
        ],
    )
    def test_bad_field_exits_2_naming_the_record(
        self, tmp_path, capsys, mode, records, field, value, named
    ):
        doc = minimal_gt_dict()
        doc["detections"] = [
            {"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 9], "score": 0.9}
        ]
        record = doc[records][0]
        if value is MISSING:
            del record[field]
        else:
            record[field] = value
        det = write_json(tmp_path / "det.json", doc.pop("detections"))
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(doc).replace("Infinity", "1e400"), encoding="utf-8")
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--mode", mode,
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, named", [
        pytest.param("bbox", "x" * 1_000_000, "bbox '" + "x" * 99
                     + "... (1000002 characters) is not 4 numbers", id="bbox-long-string"),
        pytest.param("bbox", [0] * 1000, "bbox [" + "0, " * 33 + "... (3000 characters) "
                     "is not 4 numbers", id="bbox-long-list"),
        pytest.param("score", 10**1000, "'score' is 1" + "0" * 99 + "... (1001 characters)",
                     id="score-long-int"),
        pytest.param("score", 10**300, "score 1" + "0" * 99 + "... (301 characters) "
                     "outside [0, 1]", id="score-out-of-range"),
    ])
    def test_long_value_is_cut_in_the_message(self, tmp_path, capsys, field, value, named):
        gt = write_json(tmp_path / "gt.json", minimal_gt_dict())
        det = write_json(tmp_path / "det.json", [
            {"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 9], "score": 0.9, field: value}
        ])
        assert main(["evaluate", "--gt", str(gt), "--det", str(det),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"detection 0: {named}" in err
        assert len(err.encode("utf-8")) < 1024


class TestTextFields:
    """A category name, an image file name or a VoTT asset name that is not
    a JSON string with a UTF-8 form exits 2 at load, names its record and
    writes nothing."""

    @pytest.mark.parametrize(
        "command, field, value, named",
        [
            pytest.param("evaluate", "name", "bad\udc00",
                         "category at index 0: 'name' is 'bad\\udc00'",
                         id="evaluate-name-lone-surrogate"),
            pytest.param("evaluate", "name", 5, "category at index 0: 'name' is 5",
                         id="evaluate-name-number"),
            pytest.param("evaluate", "name", None,
                         "category at index 0: 'name' is None", id="evaluate-name-null"),
            pytest.param("split", "file_name", "a\ud800.png",
                         "image at index 0: 'file_name' is 'a\\ud800.png'",
                         id="split-file-name-lone-surrogate"),
            pytest.param("split", "file_name", 5, "image at index 0: 'file_name' is 5",
                         id="split-file-name-number"),
            pytest.param("convert", "asset.name", [1], "asset: 'name' is [1]",
                         id="convert-asset-name-list"),
        ],
    )
    def test_exits_2_writing_nothing(self, tmp_path, capsys, command, field, value,
                                     named):
        if command == "convert":
            doc = copy.deepcopy(VOTT_EXPORT)
            doc["asset"]["name"] = value
            inputs = ["--vott", str(write_json(tmp_path / "v.json", doc))]
            out = tmp_path / "out" / "gt.json"
        else:
            doc = minimal_gt_dict()
            record = doc["categories" if field == "name" else "images"][0]
            record[field] = value
            inputs = ["--gt", str(write_json(tmp_path / "gt.json", doc))]
            if command == "evaluate":
                det = write_json(tmp_path / "det.json", [])
                inputs += ["--det", str(det), "--format", "json,csv,svg"]
            out = tmp_path / "out"
        assert main([command, *inputs, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPolygonVertexFuzz:
    """Any vertex value in a ground-truth or detection polygon is either
    evaluated or rejected as bad input: exit 0 or 2, never an internal error."""

    @settings(max_examples=150, deadline=None)
    @given(
        gt_poly=POLYGONS, det_poly=POLYGONS, mode=st.sampled_from(["boxes", "masks"])
    )
    def test_exit_code_is_0_or_2(self, gt_poly, det_poly, mode):
        doc = minimal_gt_dict()
        doc["annotations"][0]["segmentation"] = [gt_poly]
        rows = [{"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 10],
                 "score": 0.9, "segmentation": [det_poly]}]
        with tempfile.TemporaryDirectory() as tmp:
            gt = write_json(Path(tmp) / "gt.json", doc)
            det = write_json(Path(tmp) / "det.json", rows)
            code = main(
                ["evaluate", "--gt", str(gt), "--det", str(det), "--mode", mode,
                 "--out", str(Path(tmp) / "o")]
            )
        assert code in (0, 2)


# any JSON value, and values near a valid run-length mask of the 64x64 image
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=8,
)
RLE_SIZES = st.one_of(JSON_VALUES, st.just([64, 64]),
                      st.lists(st.one_of(st.integers(-2, 2**64), st.floats()), max_size=3))
RLE_COUNTS = st.one_of(
    JSON_VALUES,
    st.sampled_from([[0, 4096], [4000, 90, 6], [4096], [2**63, 1], [0, float("inf")]]),
    st.lists(st.one_of(st.integers(-1, 5000), st.floats(0, 5000)), max_size=5),
)


class TestRleFuzz:
    """Any JSON value as an RLE size or counts, in a ground truth or a
    detection, is either evaluated or rejected as bad input: exit 0 or 2."""

    @settings(max_examples=200, deadline=None)
    @given(
        gt_rle=st.one_of(st.none(), st.fixed_dictionaries({"size": RLE_SIZES,
                                                           "counts": RLE_COUNTS})),
        det_rle=st.fixed_dictionaries({"size": RLE_SIZES, "counts": RLE_COUNTS}),
        mode=st.sampled_from(["boxes", "masks"]),
    )
    def test_exit_code_is_0_or_2(self, gt_rle, det_rle, mode):
        doc = minimal_gt_dict()
        if gt_rle is not None:
            doc["annotations"][0]["segmentation"] = gt_rle
        rows = [{"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 10],
                 "score": 0.9, "segmentation": det_rle}]
        with tempfile.TemporaryDirectory() as tmp:
            gt = write_json(Path(tmp) / "gt.json", doc)
            det = write_json(Path(tmp) / "det.json", rows)
            code = main(
                ["evaluate", "--gt", str(gt), "--det", str(det), "--mode", mode,
                 "--out", str(Path(tmp) / "o")]
            )
        assert code in (0, 2)

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize(
        "seg",
        [
            {"size": [64, 64], "counts": [0, float("inf")]},
            {"size": [float("inf"), 64], "counts": [0, 4096]},
            {"size": [64, 64], "counts": [2**63, 1]},
        ],
    )
    def test_unrepresentable_rle_values_exit_2(self, tmp_path, capsys, mode, seg):
        gt, _ = simple_pair(tmp_path)
        det = write_json(
            tmp_path / "det.json",
            [{"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 10], "score": 0.9,
              "segmentation": seg}],
        )
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--mode", mode,
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "detection 0: bad RLE segmentation" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("counts, code", [
        ([True, 4095], 2), ([1.0, 4095], 0), ([2**53, 1], 2), ([2**64, 1], 2),
        ([-(2**53), 1], 2), ([2**53 - 1, 1], 2), ([4095, 1], 0)])
    def test_integer_edge_counts(self, tmp_path, capsys, mode, command, counts, code):
        """Run counts that are not JSON integers, or that lie outside
        +-2**53, are refused as bad; an integral float is a count, and so
        is 2**53 - 1, whose grid then sums past its canvas."""
        gt, _ = simple_pair(tmp_path)
        det = write_json(tmp_path / "det.json", [
            {"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 10], "score": 0.9,
             "segmentation": {"size": [64, 64], "counts": counts}}])
        assert main([command, "--gt", str(gt), "--det", str(det), "--mode", mode,
                     "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        if code:
            expected = ("detection 0: corrupt mask: runs sum to 9007199254740992, expected 4096"
                        if counts[0] == 2**53 - 1 else "detection 0: bad RLE segmentation")
            assert err == f"error: {expected}\n"
        else:
            assert err == ""


class TestGroundTruthArea:
    @pytest.mark.parametrize(
        "bad, message",
        [("abc", "non-numeric area"), ([1], "non-numeric area"),
         (float("inf"), "non-finite area")],
    )
    def test_bad_area_exits_2(self, tmp_path, capsys, bad, message):
        _, det = simple_pair(tmp_path)
        doc = minimal_gt_dict()
        doc["annotations"][0]["area"] = bad
        gt = write_json(tmp_path / "gt.json", doc)
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert f"annotation 1: {message}" in capsys.readouterr().err

    def test_numeric_area_string_exits_2(self, tmp_path, capsys):
        _, det = simple_pair(tmp_path)
        doc = minimal_gt_dict()
        doc["annotations"][0]["area"] = "100"
        gt = write_json(tmp_path / "gt.json", doc)
        out = tmp_path / "o"
        assert main(["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out)]) == 2
        assert "annotation 1: non-numeric area '100'" in capsys.readouterr().err


VOTT_EXPORT = {
    "asset": {"size": {"width": 64, "height": 64}, "name": "a.png"},
    "regions": [
        {"tags": ["A"], "points": [{"x": 4, "y": 4}, {"x": 14, "y": 4}, {"x": 9, "y": 14}]},
        {"tags": ["B", "A"], "points": [{"x": 20.5, "y": 20}, {"x": 40, "y": 22.25},
                                        {"x": 30, "y": 41}]},
    ],
}


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 naming it, and leaves
    no temporary file behind."""

    @pytest.mark.parametrize(
        "command, out",
        [
            ("evaluate", "afile"),
            ("compare", "afile"),
            ("split", "afile"),
            ("rescale", "afile/x.json"),
            ("rescale", "adir"),
            ("convert", "adir"),
        ],
    )
    def test_exits_2_naming_the_path(self, tmp_path, capsys, command, out):
        gt, det = simple_pair(tmp_path)
        vott = write_json(tmp_path / "v.json", VOTT_EXPORT)
        (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
        (tmp_path / "adir").mkdir()
        inputs = {
            "evaluate": ["--gt", gt, "--det", det],
            "compare": ["--gt", gt, "--det", det],
            "split": ["--gt", gt],
            "rescale": ["--gt", gt, "--width", "32", "--height", "32"],
            "convert": ["--vott", vott],
        }[command]
        before = sorted(tmp_path.iterdir())
        code = main([command, *map(str, inputs), "--out", str(tmp_path / out)])
        assert code == 2
        assert f"cannot write {tmp_path / out.split('/')[0]}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        assert not list((tmp_path / "adir").iterdir())
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize(
        "command, blocked",
        [("evaluate", "class_metrics.csv"), ("compare", "class_deltas.csv"),
         ("split", "manifest.json")],
    )
    def test_failed_run_leaves_no_output(self, tmp_path, capsys, command, blocked):
        """One output that cannot be written, a directory in its place, fails
        the whole run: the outputs already renamed into place and every
        temporary file are removed."""
        gt, det = simple_pair(tmp_path)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        inputs = {
            "evaluate": ["--gt", gt, "--det", det, "--format", "json,csv,svg"],
            "compare": ["--gt", gt, "--det", det, "--format", "json,csv,svg"],
            "split": ["--gt", gt],
        }[command]
        code = main([command, *map(str, inputs), "--out", str(out)])
        assert code == 2
        assert f"cannot write {out / blocked}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [blocked]

    @pytest.mark.parametrize("command, blocked", [
        ("evaluate", "class_metrics.csv"), ("evaluate", "report.json"),
        ("compare", "class_deltas.csv"), ("split", "manifest.json"),
    ])
    def test_failed_rerun_keeps_the_previous_outputs(self, tmp_path, capsys, command,
                                                     blocked):
        """A rerun into the outputs of a run that succeeded, failing at one of
        them, leaves every other file byte-identical and nothing beside them."""
        gt, det = simple_pair(tmp_path)
        out = tmp_path / "out"
        inputs = {
            "evaluate": ["--gt", gt, "--det", det, "--format", "json,csv,svg"],
            "compare": ["--gt", gt, "--det", det, "--format", "csv,svg"],
            "split": ["--gt", gt],
        }[command]
        argv = [command, *map(str, inputs), "--out", str(out)]
        assert main(argv) == 0
        (out / blocked).unlink()
        (out / blocked).mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert len(before) >= 2
        assert main(argv) == 2
        assert f"cannot write {out / blocked}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, blocked])

    def test_sibling_files_are_kept(self, tmp_path):
        """Files named like the staged or moved-aside outputs are not
        touched by two runs that succeed and one that fails, and each output
        gets the permissions of a newly opened file."""
        gt, det = simple_pair(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        user = {"report.json.tmp": b"mine\n", "report.json.old": b"old\x00",
                "report.json.0.tmp": b"", "report.json.0.old": b"0"}
        for name, data in user.items():
            (out / name).write_bytes(data)
        argv = ["evaluate", "--gt", str(gt), "--det", str(det), "--format", "json,csv,svg",
                "--out", str(out)]
        assert main(argv) == 0
        assert main(argv) == 0
        names = sorted(p.name for p in out.iterdir())
        probe = tmp_path / "probe"
        probe.write_text("", encoding="utf-8")
        for name in set(names) - set(user):
            assert (out / name).stat().st_mode == probe.stat().st_mode, name
        (out / "class_metrics.csv").unlink()
        (out / "class_metrics.csv").mkdir()
        assert main(argv) == 2
        assert sorted(p.name for p in out.iterdir()) == names
        assert {name: (out / name).read_bytes() for name in user} == user


SLIVER = [[1, 1, 9, 1.2, 5, 1.1]]  # a non-empty box whose raster is empty


class TestLoaderRules:
    """A record that breaks a rule of the loader's final step (unique
    annotation ids, positive areas) exits 2 and names the record."""

    @pytest.mark.parametrize("variant", ["boxes", "masks"])
    @pytest.mark.parametrize(
        "field, value, named",
        [
            pytest.param("id", "repeated", "annotation 1: ann_id occurs more than once",
                         id="repeated-id"),
            pytest.param("area", 0, "annotation 1: area is 0.0 (must be > 0)", id="area-0"),
            pytest.param("area", -5, "annotation 1: area is -5.0 (must be > 0)",
                         id="area-minus-5"),
            pytest.param("bbox", [4, 4, 0, 10], "annotation 1: area is 0.0 (must be > 0)",
                         id="zero-width-box"),
            pytest.param("segmentation", SLIVER, "annotation 1: area is 0.0 (must be > 0)",
                         id="empty-raster-polygon"),
            pytest.param("vott", SLIVER, "v.json: region 0: area is 0.0 (must be > 0)",
                         id="vott-sliver"),
        ],
    )
    def test_exits_2_naming_the_record(self, tmp_path, capsys, variant, field, value,
                                       named):
        _, det = simple_pair(tmp_path)
        doc = minimal_gt_dict()
        if field == "id":
            doc["annotations"].append(dict(doc["annotations"][0]))
        elif field != "vott":
            doc["annotations"][0][field] = value
        gt = write_json(tmp_path / "gt.json", doc)
        out = tmp_path / "o"
        if field == "vott":
            # convert has no geometry mode; its second variant names the
            # classes with a label map
            points = [{"x": x, "y": y} for x, y in zip(value[0][::2], value[0][1::2])]
            vott = write_json(tmp_path / "v.json", {
                "asset": {"size": {"width": 64, "height": 64}},
                "regions": [{"tags": ["thing"], "points": points}],
            })
            argv = ["convert", "--vott", str(vott), "--out", str(out / "gt.json")]
            if variant == "masks":
                labels = write_json(tmp_path / "l.json", [{"id": 3, "name": "thing"}])
                argv += ["--labels", str(labels)]
        else:
            argv = ["evaluate", "--gt", str(gt), "--det", str(det), "--mode", variant,
                    "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "geometry:" not in err
        assert not out.exists()


CSVS = ("class_deltas.csv", "confusion_conventional.csv", "confusion_modified.csv")
SVGS = ("confusion_conventional.svg", "confusion_modified.svg")


class TestCompare:
    def test_crafted_conflict_shows_diagonal_gain(self, tmp_path):
        gt, det = road_pair(tmp_path)
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--gt", str(gt), "--det", str(det), "--out", str(out)]
        )
        assert code == 0
        deltas = (out / "class_deltas.csv").read_text().strip().split("\n")
        assert len(deltas) == 13  # header + 12 class rows
        crack1 = deltas[1].split(",")
        assert crack1[0] == "Crack1" and crack1[3] == "Crack1"
        assert int(crack1[6]) == 1  # tp_delta for the contested Crack1 gt
        conv = (out / "confusion_conventional.csv").read_text()
        mod = (out / "confusion_modified.csv").read_text()
        assert conv != mod

    def test_unambiguous_input_zero_deltas(self, tmp_path):
        gt, det = simple_pair(tmp_path)
        out = tmp_path / "cmp"
        assert main(
            ["compare", "--gt", str(gt), "--det", str(det), "--out", str(out)]
        ) == 0
        rows = (out / "class_deltas.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            assert row.split(",")[6:] == ["0", "0", "0"]

    def test_road_rows_in_label_order(self, tmp_path):
        gt, det = road_pair(tmp_path)
        out = tmp_path / "cmp"
        main(["compare", "--gt", str(gt), "--det", str(det), "--out", str(out)])
        names = [
            line.split(",")[0]
            for line in (out / "class_deltas.csv").read_text().strip().split("\n")[1:]
        ]
        assert names == [
            "Crack1", "Crack2", "Joint", "Patching", "Filling", "Pothole",
            "Manhole", "Stain", "Shadow", "Marking", "Scratch", "Patching2",
        ]


    @pytest.mark.parametrize("chosen, written", [
        ("json,csv", CSVS), ("csv", CSVS), ("svg", SVGS), ("json,csv,svg", CSVS + SVGS),
        ("json", ()),
    ])
    def test_format_chooses_the_files(self, tmp_path, capsys, chosen, written):
        gt, det = simple_pair(tmp_path)
        out = tmp_path / "o"
        code = main(["compare", "--gt", str(gt), "--det", str(det), "--out", str(out),
                     "--format", chosen])
        if not written:
            assert code == 2
            assert "--format" in capsys.readouterr().err
            assert not out.exists()
            return
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(written)

    def test_names_with_commas_and_quotes_stay_one_field(self, tmp_path):
        doc = minimal_gt_dict()
        doc["categories"] = [{"id": 1, "name": "crack, wide"},
                             {"id": 2, "name": 'say "hi"'}]
        gt = write_json(tmp_path / "gt.json", doc)
        det = write_json(tmp_path / "det.json", [])
        out = tmp_path / "cmp"
        assert main(
            ["compare", "--gt", str(gt), "--det", str(det), "--out", str(out)]
        ) == 0
        with open(out / "class_deltas.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [9, 9, 9]
        assert [(row[0], row[3]) for row in rows[1:]] == [
            ("crack, wide", "crack, wide"), ('say "hi"', 'say "hi"')
        ]


class TestIouOncePerImage:
    """Each command builds one pair table, and in it the IoU of each
    within-image (gt, det) cell that the command reads once, for the
    matchers and the AP suite together: the cells at or above --conf, and
    for evaluate the same-class cells at any score. No per-image IoU matrix
    is built."""

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_one_matrix_per_image(self, tmp_path, monkeypatch, command, mode):
        from deteval.oracle import ScenarioConfig, generate

        gt_set, det_set = generate(
            ScenarioConfig(seed=4, image_count=5, jitter_px=4, clutter_rate=0.5)
        )
        gt_set.save(tmp_path / "gt.json")
        det_set.save(tmp_path / "det.json")
        import deteval.matching

        cells, tables = [], []
        box_ious, build = deteval.matching.box_ious, deteval.matching._pair_table

        def counting(a, b, i, j):
            cells.append(i.size)
            return box_ious(a, b, i, j)

        def counting_tables(*args):
            table = build(*args)
            tables.append((table.floor, table.conf, table.same_class))
            return table

        def no_matrix(*args):
            raise AssertionError("a per-image IoU matrix was built")

        monkeypatch.setattr(deteval.matching, "box_ious", counting)
        monkeypatch.setattr(deteval.matching, "_pair_table", counting_tables)
        monkeypatch.setattr(deteval.matching, "iou_matrix", no_matrix)
        by_image = det_set.by_image()
        within_image = sum(len(gts) * len(by_image.get(i, []))
                           for i, gts in gt_set.by_image().items())
        reads = []
        for iou, conf in itertools.product((0.3, 0.5, 0.75), (0.05, 0.5, 0.9)):
            read = sum(d.score >= conf or (command == "evaluate" and d.class_id == g.class_id)
                       for i, gts in gt_set.by_image().items()
                       for g in gts for d in by_image.get(i, []))
            reads.append(read)
            cells.clear()
            tables.clear()
            code = main([command, "--gt", str(tmp_path / "gt.json"),
                         "--det", str(tmp_path / "det.json"), "--mode", mode,
                         "--iou", str(iou), "--conf", str(conf),
                         "--out", str(tmp_path / "out")])
            assert code == 0
            # the AP suite of evaluate reads same-class pairs down to the sweep's 0.5
            assert tables == [(min(iou, 0.5), conf, True) if command == "evaluate"
                              else (iou, conf, False)]
            assert sum(cells) == read
        # the scene has cells that no output reads
        assert 0 < min(reads) < within_image


class TestUnreadCellErrors:
    """A cell that no output reads costs no IoU, but the errors stay: a
    detection below --conf on an unknown image still exits 2 naming it, and
    a mask canvas mismatch on a cell a command reads raises the same text
    through the library."""

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_below_threshold_detection_on_unknown_image(self, tmp_path, capsys, command,
                                                        mode):
        from deteval.annotations import load_detections, load_ground_truth
        from deteval.errors import MissingReferenceError
        from deteval.matching import Thresholds, image_ious, match_dataset
        from deteval.metrics import full_report

        gt, _ = simple_pair(tmp_path)
        det = write_json(tmp_path / "det.json", [
            {"image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 9], "score": 0.9},
            {"image_id": 42, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.1}])
        code = main([command, "--gt", str(gt), "--det", str(det), "--mode", mode,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: detection 1: unknown image_id 42\n"
        assert not (tmp_path / "o").exists()
        # loaded without the images, the pair table refuses it
        gt_set = load_ground_truth(gt)
        det_set = load_detections(det, gt_set.label_map)
        t = Thresholds(geometry_mode=mode)
        calls = {"evaluate": [lambda: full_report(gt_set, det_set, t)],
                 "compare": [lambda: match_dataset(gt_set, det_set, t, "modified"),
                             lambda: image_ious(gt_set, det_set, mode, 0.5, 0.5, False)]}
        for call in calls[command]:
            with pytest.raises(MissingReferenceError,
                               match=r"^detection 1: unknown image_id 42$"):
                call()

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_canvas_mismatch_through_the_library(self, tmp_path, command):
        from deteval.annotations import load_detections, load_ground_truth
        from deteval.errors import GeometryError
        from deteval.matching import Thresholds, image_ious, match_dataset, match_images
        from deteval.metrics import full_report

        gt = write_json(tmp_path / "gt.json", {
            "images": [{"id": 1, "file_name": "a.png", "width": 8, "height": 8}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 4, 4],
                             "segmentation": [[0, 0, 4, 0, 4, 4]]}],
            "categories": [{"id": 1, "name": "X"}, {"id": 2, "name": "Y"}]})
        # a detection on a 6x6 canvas at or above --conf, and, for evaluate,
        # one of the ground truth's class below it, which the AP suite reads
        rows = [{"image_id": 1, "category_id": 2, "bbox": [0, 0, 4, 4], "score": 0.9,
                 "segmentation": {"size": [6, 6], "counts": [0, 4, 32]}},
                {"image_id": 1, "category_id": 1, "bbox": [0, 0, 4, 4], "score": 0.1,
                 "segmentation": {"size": [6, 6], "counts": [0, 4, 32]}}]
        message = r"^mask canvases differ: \(8, 8\) vs \(6, 6\)$"
        gt_set = load_ground_truth(gt)
        t = Thresholds(geometry_mode="masks")
        for shown in (rows, rows[1:]) if command == "evaluate" else (rows,):
            det_set = load_detections(write_json(tmp_path / "det.json", shown),
                                      gt_set.label_map)
            if command == "evaluate":
                calls = [lambda: full_report(gt_set, det_set, t, "conventional")]
            else:
                calls = [lambda: match_dataset(gt_set, det_set, t, "conventional"),
                         lambda: match_images(image_ious(gt_set, det_set, "masks", 0.5, 0.5,
                                                         False), gt_set.label_map, t,
                                              "modified")]
            for call in calls:
                with pytest.raises(GeometryError, match=message):
                    call()
        # the CLI loads detections with the images, and refuses the grid there
        assert main([command, "--gt", str(gt), "--det", str(tmp_path / "det.json"),
                     "--mode", "masks", "--out", str(tmp_path / "o")]) == 2


class TestRecordsOnDemand:
    """Evaluate and compare read the sets' columns only: they build no
    record, box, polygon or mask object, and in masks mode no bit grid."""

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_boxes_mode_builds_no_objects(self, tmp_path, monkeypatch, command):
        from deteval.annotations import Annotation, Detection
        from deteval.geometry import (
            BBox, InstanceMask, MaskColumns, Polygon, RLEMask, rle_encode)
        from deteval.oracle import ScenarioConfig, full_grid, generate

        # polygon masks on both sides, and areas given; and every other
        # detection's mask as a run-length grid
        gt_set, det_set = generate(ScenarioConfig(seed=5, image_count=6, clutter_rate=0.5))
        gt_set.save(tmp_path / "gt.json")
        det_set.save(tmp_path / "det.json")
        rows = det_set.to_json()
        (width, height), = {(im.width, im.height) for im in gt_set.images}
        for row, d in list(zip(rows, det_set.detections))[::2]:
            row["segmentation"] = {"size": [height, width], "counts": rle_encode(full_grid(
                InstanceMask(polygons=d.mask.polygons, canvas=(width, height)).window(),
                width, height)).runs.tolist()}
        write_json(tmp_path / "rle.json", rows)
        built = []
        for cls in (Annotation, Detection, BBox, Polygon, InstanceMask, RLEMask):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        code = main([command, "--gt", str(tmp_path / "gt.json"),
                     "--det", str(tmp_path / "det.json"), "--iou", "0.3",
                     "--format", "json,csv,svg", "--out", str(tmp_path / "out")])
        assert code == 0
        assert built == []
        # nor does masks mode, with polygon and run-length masks
        monkeypatch.setattr(MaskColumns, "instances", lambda c: built.append("instances"))
        monkeypatch.setattr(InstanceMask, "window", lambda m: built.append("window"))
        assert main([command, "--gt", str(tmp_path / "gt.json"),
                     "--det", str(tmp_path / "rle.json"), "--mode", "masks",
                     "--format", "json,csv,svg", "--out", str(tmp_path / "out")]) == 0
        assert built == []

    @pytest.mark.parametrize("command", [
        ["split", "--seed", "3"], ["rescale", "--width", "61", "--height", "43"],
        ["rescale", "--width", "250", "--height", "180", "--force"], ["convert"]])
    def test_split_and_rescale_build_no_records(self, tmp_path, monkeypatch, command):
        """Split, rescale and convert write the loader's buffers: they build
        no record, box or mask object, whether the masks are polygons or
        run-length grids."""
        from deteval.annotations import Annotation, Detection
        from deteval.geometry import (
            BBox, InstanceMask, MaskColumns, Polygon, RLEMask, rle_encode)
        from deteval.oracle import ScenarioConfig, full_grid, generate

        gt_set, _ = generate(ScenarioConfig(seed=5, image_count=8, image_size=(122, 86)))
        doc = gt_set.to_json()
        write_json(tmp_path / "masks.json", doc)
        # every other mask as the run-length grid of its pixels
        for row, a in list(zip(doc["annotations"], gt_set.annotations))[::2]:
            row["segmentation"] = {"size": [86, 122], "counts": rle_encode(full_grid(
                InstanceMask(polygons=a.mask.polygons, canvas=(122, 86)).window(),
                122, 86)).runs.tolist()}
        write_json(tmp_path / "rle.json", doc)
        for ann in doc["annotations"]:
            del ann["segmentation"]
        write_json(tmp_path / "boxes.json", doc)
        vott = write_json(tmp_path / "v.json", VOTT_EXPORT)
        built = []
        for cls in (Annotation, Detection, BBox, Polygon, InstanceMask, RLEMask):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        monkeypatch.setattr(MaskColumns, "instances", lambda c: built.append("instances"))
        out = str(tmp_path / command[0])
        if command[0] == "convert":
            runs = [(["convert", "--vott", str(vott)], 0)]
        else:
            # rescale without --force refuses a run-length grid
            lossy = 2 if command[:1] == ["rescale"] and "--force" not in command else 0
            runs = [([*command, "--gt", str(tmp_path / name)], code) for name, code in (
                ("boxes.json", 0), ("masks.json", 0), ("rle.json", lossy))]
        for argv, code in runs:
            assert main([*argv, "--out", out]) == code
            assert built == []
        if command[0] == "convert":  # and the converted file rescales the same way
            assert main(["rescale", "--gt", out, "--width", "50", "--height", "70",
                         "--out", str(tmp_path / "r.json")]) == 0
            assert built == []


class TestGreedyCalls:
    """The AP suite runs its greedy kernel once per evaluate, over every
    cell's pairs together, not once per cell or per detection count."""

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_one_kernel_call_per_evaluate(self, tmp_path, monkeypatch, mode):
        # one single-class image per detection count, from 1 to 130
        counts = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 130]
        square = [10, 10, 30, 10, 30, 30, 10, 30]
        gt = {
            "images": [{"id": i, "file_name": f"{i}.png", "width": 64, "height": 64}
                       for i in range(1, len(counts) + 1)],
            "annotations": [
                {"id": i, "image_id": i, "category_id": 1, "bbox": [10, 10, 20, 20],
                 "segmentation": [square]}
                for i in range(1, len(counts) + 1)
            ],
            "categories": [{"id": 1, "name": "t"}],
        }
        det = [
            {"image_id": i, "category_id": 1, "bbox": [10, 10, 20, 20],
             "segmentation": [square], "score": 1 - k / 200}
            for i, n in enumerate(counts, start=1) for k in range(n)
        ]
        write_json(tmp_path / "gt.json", gt)
        write_json(tmp_path / "det.json", det)
        import deteval.metrics

        calls = []
        original = deteval.metrics._greedy

        def counting(*args):
            calls.append(args[0].size)
            return original(*args)

        monkeypatch.setattr(deteval.metrics, "_greedy", counting)
        code = main(["evaluate", "--gt", str(tmp_path / "gt.json"),
                     "--det", str(tmp_path / "det.json"), "--mode", mode,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        # one call over every pair: each detection covers its image's ground truth
        assert calls == [sum(counts)]


class TestPreparePasses:
    """In masks mode a command computes the spans of each set's masks in
    passes whose rows each stay within the budget, unless one mask or pair
    alone exceeds it, and bounds its grids in passes of as many runs. With
    the default budget the spans of each mask in an overlapping pair that
    the command reads are computed once, and of no other mask, not even of
    one that overlaps only in cells no output reads: a grid's window and pixel count
    come from its runs. A smaller budget takes more passes and gives the
    same outputs."""

    @pytest.mark.parametrize("budget", [None, 1 << 10])
    def test_one_call_per_set_and_passes_within_budget(self, tmp_path, monkeypatch, budget):
        from deteval import geometry
        from deteval.geometry import InstanceMask, rle_encode
        from deteval.oracle import ScenarioConfig, full_grid, generate

        gt_set, det_set = generate(ScenarioConfig(
            seed=6, image_count=40, gts_per_image=(1, 6), jitter_px=4, clutter_rate=0.5,
            image_size=(96, 80),
        ))
        gt_set.save(tmp_path / "gt.json")
        # the detections as run-length grids on their images
        grids = [InstanceMask(rle=rle_encode(full_grid(InstanceMask(
            polygons=d.mask.polygons, canvas=(96, 80)).window(), 96, 80)))
            for d in det_set.detections]
        rows = [dict(row, segmentation={"size": [80, 96], "counts": grid.rle.runs.tolist()})
                for row, grid in zip(det_set.to_json(), grids)]
        write_json(tmp_path / "det.json", rows)
        # evaluate: the AP suite reads every detection's pixel count too
        argv = ["evaluate", "--gt", str(tmp_path / "gt.json"), "--det",
                str(tmp_path / "det.json"), "--mode", "masks", "--format", "json,csv,svg"]
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        if budget is not None:
            monkeypatch.setattr(geometry, "SPAN_CHUNK_ROWS", budget)

        passes = []
        polygon, rle = geometry._polygon_spans, geometry._rle_spans
        bounds = geometry._rle_bounds

        def counted_polygon(xy, ring_sizes, mask_rings, rects):
            rows = int((mask_rings * (rects[:, 3] - rects[:, 1])).sum())
            passes.append(("polygon", rows, len(rects)))
            return polygon(xy, ring_sizes, mask_rings, rects)

        def counted_rle(runs, counts, widths):
            spans = rle(runs, counts, widths)
            passes.append(("rle", spans[0].size, len(counts)))
            return spans

        def counted_bounds(runs, counts, widths):
            passes.append(("bounds", int(counts.sum()), len(counts)))
            return bounds(runs, counts, widths)

        monkeypatch.setattr(geometry, "_polygon_spans", counted_polygon)
        monkeypatch.setattr(geometry, "_rle_spans", counted_rle)
        monkeypatch.setattr(geometry, "_rle_bounds", counted_bounds)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert {kind for kind, _, _ in passes} == {"polygon", "rle", "bounds"}
        for kind, rows, masks in passes:
            assert rows <= geometry.SPAN_CHUNK_ROWS or masks == 1, (kind, rows, masks)
        masks = {kind: sum(m for k, _, m in passes if k == kind) for kind in ("polygon", "rle")}
        if budget is None:
            # the masks of the (gt, det) pairs of an image whose windows
            # overlap, among the cells that evaluate reads: the detection
            # scores at or above --conf, or has the ground truth's class
            pairs = [(k, j) for k, a in enumerate(gt_set.annotations)
                     for j, d in enumerate(det_set.detections)
                     if a.image_id == d.image_id and _windows_overlap(a.mask, grids[j])
                     and (d.score >= 0.5 or d.class_id == a.class_id)]
            assert pairs
            assert any(d.score < 0.5 and d.class_id != a.class_id
                       and a.image_id == d.image_id and _windows_overlap(a.mask, grids[j])
                       for a in gt_set.annotations for j, d in enumerate(det_set.detections))
            assert masks == {"polygon": len({k for k, _ in pairs}),
                             "rle": len({j for _, j in pairs})}
        else:
            assert len(passes) > 4 * 2
        for name in os.listdir(tmp_path / "default"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "default" / name).read_bytes())


def _windows_overlap(a, b) -> bool:
    """Whether the windows of two masks share a pixel."""
    (abits, ax, ay), (bbits, bx, by) = a.window(), b.window()
    return (min(ax + abits.shape[1], bx + bbits.shape[1]) > max(ax, bx)
            and min(ay + abits.shape[0], by + bbits.shape[0]) > max(ay, by))


class TestSplit:
    def _gt_file(self, tmp_path, n=40):
        doc = {
            "images": [
                {"id": i, "file_name": f"{i}.png", "width": 64, "height": 64}
                for i in range(1, n + 1)
            ],
            "annotations": [
                {"id": i, "image_id": i, "category_id": 1, "bbox": [0, 0, 8, 8]}
                for i in range(1, n + 1)
            ],
            "categories": [{"id": 1, "name": "t"}],
        }
        return write_json(tmp_path / "gt.json", doc)

    def test_byte_identical_reruns(self, tmp_path):
        gt = self._gt_file(tmp_path)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(
                ["split", "--gt", str(gt), "--seed", "7", "--out", str(out)]
            ) == 0
            outs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert outs[0] == outs[1]
        assert set(outs[0]) == {"train.json", "val.json", "test.json", "manifest.json"}

    def test_manifest_counts(self, tmp_path):
        gt = self._gt_file(tmp_path, n=100)
        out = tmp_path / "o"
        main(["split", "--gt", str(gt), "--seed", "1", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        sizes = {k: v["images"] for k, v in manifest["splits"].items()}
        assert sizes == {"train": 70, "val": 15, "test": 15}

    def test_bad_ratios_exit_2(self, tmp_path):
        gt = self._gt_file(tmp_path)
        assert main(
            ["split", "--gt", str(gt), "--ratios", "0.5,0.5,0.5",
             "--out", str(tmp_path / "o")]
        ) == 2

    def test_nan_ratio_exits_2_without_manifest(self, tmp_path, capsys):
        gt = self._gt_file(tmp_path)
        out = tmp_path / "o"
        assert main(
            ["split", "--gt", str(gt), "--ratios", "nan,0,0", "--out", str(out)]
        ) == 2
        assert "split ratio train must be >= 0, got nan" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


def spans_iou(a, b) -> float:
    """IoU of two masks given as ``{row: [(x0, x1), ...]}`` pixel runs, each
    row's runs disjoint: the scalar reference, counted row by row."""
    inter = sum(max(0, min(x1, u1) - max(x0, u0)) for row, runs in a.items()
                for x0, x1 in runs for u0, u1 in b.get(row, ()))
    union = sum(x1 - x0 for m in (a, b) for runs in m.values() for x0, x1 in runs) - inter
    return inter / union


class TestHugeCanvases:
    """A mask on a canvas of 2**40 columns is read as row spans: a command
    holds no per-pixel state, and exits 0 for a valid file."""

    def test_run_wrapping_onto_the_next_row(self, tmp_path):
        from deteval.annotations import load_detections, load_ground_truth
        from deteval.matching import image_ious

        width = 2**40
        doc = minimal_gt_dict()
        doc["images"][0].update(width=width, height=2)
        doc["annotations"][0].update(bbox=[width - 80, 0, 80, 1], segmentation=[
            [width - 80, 0, width, 0, width, 1, width - 80, 1]])
        write_json(tmp_path / "gt.json", doc)
        # one 100-pixel run from the end of row 0 onto the start of row 1
        write_json(tmp_path / "det.json", [{
            "image_id": 1, "category_id": 1, "bbox": [0, 0, width, 2], "score": 0.9,
            "segmentation": {"size": [2, width], "counts": [width - 50, 100, width - 50]}}])
        assert main(["evaluate", "--gt", str(tmp_path / "gt.json"), "--det",
                     str(tmp_path / "det.json"), "--mode", "masks", "--iou", "0.3",
                     "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["per_class"][0]["recall_at_05"] == 1.0
        gt = load_ground_truth(tmp_path / "gt.json")
        table = image_ious(gt, load_detections(
            tmp_path / "det.json", gt.label_map, gt.images), "masks", 0.0)
        expected = spans_iou({0: [(width - 80, width)]},
                             {0: [(width - 50, width)], 1: [(0, 50)]})
        assert table.iou.tolist() == [expected] == [50 / 130]

    def test_pixel_counts_past_int64(self, tmp_path):
        from deteval.annotations import load_detections, load_ground_truth
        from deteval.matching import image_ious

        # a ground truth with no area and an identical detection, each of
        # (2**53 - 1) x 1,100 pixels: more than int64 holds
        width = 2**53 - 1
        ring = [0, 0, width, 0, width, 1100, 0, 1100]
        doc = minimal_gt_dict()
        doc["images"][0].update(width=width, height=1100)
        doc["annotations"][0].update(bbox=[0, 0, width, 1100], segmentation=[ring])
        write_json(tmp_path / "gt.json", doc)
        write_json(tmp_path / "det.json", [{
            "image_id": 1, "category_id": 1, "bbox": [0, 0, width, 1100], "score": 0.9,
            "segmentation": [ring]}])
        assert main(["evaluate", "--gt", str(tmp_path / "gt.json"), "--det",
                     str(tmp_path / "det.json"), "--mode", "masks",
                     "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["per_class"][0]["recall_at_05"] == 1.0
        gt = load_ground_truth(tmp_path / "gt.json")
        assert width * 1100 > 2**63
        assert gt.annotations[0].area == pytest.approx(width * 1100, rel=1e-12)
        table = image_ious(gt, load_detections(
            tmp_path / "det.json", gt.label_map, gt.images), "masks", 0.0)
        assert table.iou.tolist() == [1.0]


class TestRescale:
    def test_polygon_on_a_huge_target_exits_0(self, tmp_path):
        doc = minimal_gt_dict()
        doc["images"][0].update(width=40, height=48)
        doc["annotations"][0].update(bbox=[10, 10, 20, 20], segmentation=[
            [10, 10, 30, 10, 30, 30, 10, 30]])
        out = tmp_path / "r.json"
        assert main(["rescale", "--gt", str(write_json(tmp_path / "gt.json", doc)),
                     "--width", str(2**40), "--height", "48", "--out", str(out)]) == 0
        saved = json.loads(out.read_text())
        ring = saved["annotations"][0]["segmentation"][0]
        xs, ys = ring[0::2], ring[1::2]
        assert saved["images"][0]["width"] == 2**40 and max(xs) > 2**39
        # the scaled rectangle's pixel centers, counted row by row
        rows = {r: [(math.ceil(min(xs) - 0.5), math.ceil(max(xs) - 0.5))]
                for r in range(48) if min(ys) <= r + 0.5 < max(ys)}
        assert len(rows) == 20
        assert saved["annotations"][0]["area"] == sum(b - a for (a, b), in rows.values())

    def test_quarter_scale(self, tmp_path):
        doc = {
            "images": [
                {"id": 1, "file_name": "a.png", "width": 3840, "height": 2160}
            ],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 1,
                 "bbox": [100, 200, 40, 80]}
            ],
            "categories": [{"id": 1, "name": "t"}],
        }
        gt = write_json(tmp_path / "gt.json", doc)
        out = tmp_path / "rescaled.json"
        code = main(
            ["rescale", "--gt", str(gt), "--width", "960", "--height", "540",
             "--out", str(out)]
        )
        assert code == 0
        saved = json.loads(out.read_text())
        assert saved["images"][0]["width"] == 960
        assert saved["annotations"][0]["bbox"] == [25.0, 50.0, 10.0, 20.0]

    def test_rle_without_force_exits_2(self, tmp_path):
        doc = minimal_gt_dict()
        doc["annotations"][0]["segmentation"] = {
            "size": [64, 64], "counts": [0, 64 * 64]
        }
        gt = write_json(tmp_path / "gt.json", doc)
        out = tmp_path / "r.json"
        assert main(
            ["rescale", "--gt", str(gt), "--width", "32", "--height", "32",
             "--out", str(out)]
        ) == 2
        assert not out.exists()
        assert main(
            ["rescale", "--gt", str(gt), "--width", "32", "--height", "32",
             "--out", str(out), "--force"]
        ) == 0
        assert out.exists()

    def test_mask_scaled_to_no_pixel_exits_2(self, tmp_path, capsys):
        doc = {
            "images": [{"id": 1, "file_name": "a.png", "width": 3840, "height": 2160}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                             "bbox": [100, 100, 2, 2],
                             "segmentation": [[100, 100, 102, 100, 102, 102, 100, 102]]}],
            "categories": [{"id": 1, "name": "t"}],
        }
        gt = write_json(tmp_path / "gt.json", doc)
        out = tmp_path / "r.json"
        assert main(["rescale", "--gt", str(gt), "--width", "960", "--height", "540",
                     "--out", str(out)]) == 2
        assert "annotation 1: area is 0.0 (must be > 0)" in capsys.readouterr().err
        assert not out.exists()
        # at full size the same file rescales
        assert main(["rescale", "--gt", str(gt), "--width", "3840", "--height", "2160",
                     "--out", str(out)]) == 0
        assert main(["split", "--gt", str(out), "--out", str(tmp_path / "s")]) == 0

    @pytest.mark.parametrize("width", [2**64, 2**53])
    def test_target_beyond_the_loaders_range_exits_2(self, tmp_path, capsys, width):
        """A size the loader would refuse is refused before anything is written."""
        gt = write_json(tmp_path / "gt.json", minimal_gt_dict())
        out = tmp_path / "r.json"
        assert main(["rescale", "--gt", str(gt), "--width", str(width), "--height", "5",
                     "--out", str(out)]) == 2
        assert f"got {width}x5" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_target_still_loads(self, tmp_path):
        from deteval.annotations import load_ground_truth

        gt = write_json(tmp_path / "gt.json", minimal_gt_dict())
        out = tmp_path / "r.json"
        assert main(["rescale", "--gt", str(gt), "--width", str(2**53 - 1), "--height", "5",
                     "--out", str(out)]) == 0
        assert load_ground_truth(out).images[0].width == 2**53 - 1
        assert main(["split", "--gt", str(out), "--out", str(tmp_path / "s")]) == 0


class TestConvert:
    def test_single_region(self, tmp_path):
        vott = {
            "asset": {"size": {"width": 400, "height": 300}, "name": "road.png"},
            "regions": [
                {
                    "tags": ["Crack1"],
                    "points": [
                        {"x": 10, "y": 10}, {"x": 50, "y": 12},
                        {"x": 48, "y": 40}, {"x": 12, "y": 44},
                    ],
                }
            ],
        }
        src = write_json(tmp_path / "export.json", vott)
        out = tmp_path / "gt.json"
        assert main(["convert", "--vott", str(src), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["images"][0] == {
            "id": 1, "file_name": "road.png", "width": 400, "height": 300
        }
        ann = doc["annotations"][0]
        assert ann["bbox"] == [10.0, 10.0, 40.0, 34.0]  # polygon extent
        assert ann["segmentation"] == [[10, 10, 50, 12, 48, 40, 12, 44]]
        assert doc["categories"] == [{"id": 1, "name": "Crack1"}]

    def test_wrong_shape_exits_2(self, tmp_path):
        src = write_json(tmp_path / "x.json", {"something": "else"})
        assert main(
            ["convert", "--vott", str(src), "--out", str(tmp_path / "o.json")]
        ) == 2

    def test_explicit_label_map(self, tmp_path):
        labels = write_json(
            tmp_path / "labels.json", [{"id": 7, "name": "Crack1"}]
        )
        vott = {
            "asset": {"size": {"width": 100, "height": 100}},
            "regions": [
                {
                    "tags": ["Crack1"],
                    "points": [{"x": 1, "y": 1}, {"x": 9, "y": 1}, {"x": 5, "y": 9}],
                }
            ],
        }
        src = write_json(tmp_path / "e.json", vott)
        out = tmp_path / "gt.json"
        assert main(
            ["convert", "--vott", str(src), "--labels", str(labels),
             "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["annotations"][0]["category_id"] == 7

    def test_unknown_tag_with_label_map_exits_2(self, tmp_path):
        labels = write_json(tmp_path / "labels.json", [{"id": 1, "name": "A"}])
        vott = {
            "asset": {"size": {"width": 100, "height": 100}},
            "regions": [
                {
                    "tags": ["B"],
                    "points": [{"x": 1, "y": 1}, {"x": 9, "y": 1}, {"x": 5, "y": 9}],
                }
            ],
        }
        src = write_json(tmp_path / "e.json", vott)
        assert main(
            ["convert", "--vott", str(src), "--labels", str(labels),
             "--out", str(tmp_path / "o.json")]
        ) == 2

    def test_non_integer_label_id_exits_2(self, tmp_path, capsys):
        labels = write_json(tmp_path / "labels.json", [{"id": "abc", "name": "A"}])
        vott = {
            "asset": {"size": {"width": 100, "height": 100}},
            "regions": [
                {"tags": ["A"], "points": [{"x": 1, "y": 1}, {"x": 9, "y": 1},
                                           {"x": 5, "y": 9}]}
            ],
        }
        src = write_json(tmp_path / "e.json", vott)
        assert main(
            ["convert", "--vott", str(src), "--labels", str(labels),
             "--out", str(tmp_path / "o.json")]
        ) == 2
        assert "category at index 0: 'id'" in capsys.readouterr().err

    def test_infinite_asset_size_exits_2(self, tmp_path, capsys):
        vott = {
            "asset": {"size": {"width": float("inf"), "height": 100}},
            "regions": [
                {"tags": ["A"], "points": [{"x": 1, "y": 1}, {"x": 9, "y": 1},
                                           {"x": 5, "y": 9}]}
            ],
        }
        src = write_json(tmp_path / "x.json", vott)
        assert main(
            ["convert", "--vott", str(src), "--out", str(tmp_path / "o.json")]
        ) == 2
        assert "asset.size: 'width'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e300, "abc"])
    def test_bad_point_exits_2_naming_the_region(self, tmp_path, capsys, bad):
        vott = {
            "asset": {"size": {"width": 100, "height": 100}},
            "regions": [
                {"tags": ["A"], "points": [{"x": 1, "y": 1}, {"x": 9, "y": 1},
                                           {"x": 5, "y": 9}]},
                {"tags": ["A"], "points": [{"x": 1, "y": 1}, {"x": bad, "y": 1},
                                           {"x": 5, "y": 9}]},
            ],
        }
        src = write_json(tmp_path / "x.json", vott)
        out = tmp_path / "o.json"
        assert main(["convert", "--vott", str(src), "--out", str(out)]) == 2
        assert "region 1" in capsys.readouterr().err
        assert not out.exists()

    def test_two_point_region_exits_2(self, tmp_path):
        vott = {
            "asset": {"size": {"width": 100, "height": 100}},
            "regions": [
                {"tags": ["A"], "points": [{"x": 1, "y": 1}, {"x": 5, "y": 5}]}
            ],
        }
        src = write_json(tmp_path / "x.json", vott)
        assert main(
            ["convert", "--vott", str(src), "--out", str(tmp_path / "o.json")]
        ) == 2


# where a value is replaced: the regions, one region, its tags, its points,
# one point, the asset name
VOTT_FIELDS = (
    ("regions",),
    ("regions", 1),
    ("regions", 1, "tags"),
    ("regions", 1, "points"),
    ("regions", 1, "points", 0),
    ("asset", "name"),
)


def _convert_with_replaced(tmp, field, value, labels):
    doc = copy.deepcopy(VOTT_EXPORT)
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    src = write_json(Path(tmp) / "v.json", doc)
    argv = ["convert", "--vott", str(src), "--out", str(Path(tmp) / "gt.json")]
    if labels:
        names = write_json(Path(tmp) / "labels.json",
                           [{"id": 1, "name": "A"}, {"id": 2, "name": "B"}])
        argv += ["--labels", str(names)]
    return main(argv)


class TestVottFuzz:
    """Any JSON value in place of one part of a VoTT export is either
    converted or rejected as bad input: exit 0 or 2."""

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(VOTT_FIELDS), value=JSON_VALUES)
    def test_exit_code_is_0_or_2(self, field, value):
        for labels in (False, True):
            with tempfile.TemporaryDirectory() as tmp:
                assert _convert_with_replaced(tmp, field, value, labels) in (0, 2)

    @pytest.mark.parametrize("labels", [False, True])
    @pytest.mark.parametrize(
        "field, value, named",
        [
            pytest.param(("regions",), ["x"], "region 0 is not an object",
                         id="regions-of-strings"),
            pytest.param(("regions",), "abc", "expected a VoTT export with asset and regions",
                         id="regions-string"),
            pytest.param(("regions",), 5, "expected a VoTT export with asset and regions",
                         id="regions-number"),
            pytest.param(("regions", 1, "tags"), 5, "region 1: tags must be an array of strings",
                         id="tags-number"),
            pytest.param(("regions", 1, "tags"), [[1]],
                         "region 1: tags must be an array of strings", id="tags-nested"),
            # without --labels a tag becomes a category name, which must encode
            pytest.param(("regions", 1, "tags"), ["bad\udc00"],
                         "region 1: tags must be an array of strings",
                         id="tags-lone-surrogate"),
            # the value shown is cut to 100 characters of its repr
            pytest.param(("regions", 1, "tags"), [["x" * 200]],
                         "region 1: tags must be an array of strings, not [['" + "x" * 97
                         + "... (206 characters)", id="tags-long"),
            # a JSON escape of a lone surrogate reads as a string with no UTF-8 form
            pytest.param(("asset", "name"), "\ud800", "v.json: asset: 'name' is '\\ud800'",
                         id="name-lone-surrogate"),
            # points are {x, y} objects, not a flat list of coordinates
            pytest.param(("regions", 0, "points"), [0, 0, 4, 0, 4, 4],
                         "region 0: bad polygon segmentation", id="points-flat-numbers"),
        ],
    )
    def test_malformed_part_exits_2(self, tmp_path, capsys, labels, field, value, named):
        assert _convert_with_replaced(tmp_path, field, value, labels) == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.glob("gt.json*"))


class TestRender:
    def _matrix_csv(self, tmp_path, values):
        rows = ["," + "A,B," + "left detection"]
        rows.append(f"A,{values[0][0]},{values[0][1]},{values[0][2]}")
        rows.append(f"B,{values[1][0]},{values[1][1]},{values[1][2]}")
        rows.append(
            f"unclassified detection,{values[2][0]},{values[2][1]},{values[2][2]}"
        )
        path = tmp_path / "m.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_all_zero_uniform(self, tmp_path):
        src = self._matrix_csv(tmp_path, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        out = tmp_path / "m.svg"
        assert main(["render", "--matrix", str(src), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count('fill="rgb(255,255,255)"') == 9
        assert "left detection" in svg

    def test_max_cell_darkest(self, tmp_path):
        src = self._matrix_csv(tmp_path, [[5, 0, 0], [0, 1, 0], [0, 0, 0]])
        out = tmp_path / "m.svg"
        main(["render", "--matrix", str(src), "--out", str(out)])
        svg = out.read_text()
        assert svg.count('fill="rgb(0,0,0)"') == 1

    def test_deterministic_bytes(self, tmp_path):
        src = self._matrix_csv(tmp_path, [[3, 1, 2], [0, 4, 1], [2, 0, 0]])
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", "--matrix", str(src), "--out", str(out1)])
        main(["render", "--matrix", str(src), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,matrix\n1,2\n", encoding="utf-8")
        assert main(
            ["render", "--matrix", str(bad), "--out", str(tmp_path / "o.svg")]
        ) == 2

    def test_labels_are_escaped(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text(',"A&<B>",left detection\nA&<B>,1,0\nunclassified detection,0,0\n',
                       encoding="utf-8")
        out = tmp_path / "m.svg"
        assert main(["render", "--matrix", str(src), "--out", str(out)]) == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.count(">A&amp;&lt;B&gt;</text>") == 2 and "A&<" not in svg

    @pytest.mark.parametrize("text, named", [
        pytest.param("\nA,1\n", "header is malformed", id="blank-first-line"),
        pytest.param(",A,left detection\n\nunclassified detection,1,0\n",
                     "row 1 is malformed", id="blank-data-row"),
        pytest.param(",A,left detection\nA,99999999999999999999999,3\n"
                     "unclassified detection,1,0\n", "row 1: ", id="count-beyond-int64"),
    ])
    def test_bad_row_exits_2_naming_it(self, tmp_path, capsys, text, named):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "o.svg"
        assert main(["render", "--matrix", str(bad), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["1_0", " 7 ", "+3", "\u0663", "9" * 5000],
                             ids=["underscore", "spaces", "sign", "arabic-indic", "5000-digits"])
    def test_count_not_in_ascii_digits_exits_2(self, tmp_path, capsys, cell):
        """confusion_csv writes counts in ASCII digits only; int() would also
        read underscores, spaces, signs and other scripts' digits. A count of
        more digits than int() reads from a string is refused the same way."""
        src = self._matrix_csv(tmp_path, [[1, 0, 0], [0, cell, 0], [0, 0, 0]])
        out = tmp_path / "o.svg"
        assert main(["render", "--matrix", str(src), "--out", str(out)]) == 2
        assert "row 2: " in capsys.readouterr().err
        assert not out.exists()


# JSON nested deeper than the decoder allows, and bytes that are not UTF-8
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
NOT_UTF8_JSON = (b'[{"image_id": 1, "category_id": 1, "bbox": [1, 1, 2, 2], '
                 b'"score": 0.5, "note": "\xff"}]')
NOT_UTF8_CSV = b",A,left detection\nA\xff,1,0\nunclassified detection,0,0\n"


class TestUnreadableInput:
    """An input file that is not UTF-8, JSON nested deeper than the decoder
    allows, or an integer longer than it converts, exits 2 naming the file,
    like any other bad input."""

    @pytest.mark.parametrize("args, content", [
        pytest.param(args, content, id=f"{name}-{kind}")
        for name, args in [
            ("evaluate", ["evaluate", "--gt", "GT", "--det", "BAD", "--out", "OUT"]),
            ("split", ["split", "--gt", "BAD", "--out", "OUT"]),
            ("convert-vott", ["convert", "--vott", "BAD", "--out", "OUT"]),
            ("convert-labels", ["convert", "--vott", "GT", "--labels", "BAD", "--out", "OUT"]),
        ]
        for kind, content in [("deep", DEEP_JSON), ("not-utf8", NOT_UTF8_JSON),
                              ("long-int", b"[" + b"9" * 5000 + b"]")]
    ] + [pytest.param(["render", "--matrix", "BAD", "--out", "OUT"], NOT_UTF8_CSV,
                      id="render-not-utf8")])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, args, content):
        gt = write_json(tmp_path / "gt.json", minimal_gt_dict())
        bad, out = tmp_path / "bad", tmp_path / "out"
        bad.write_bytes(content)
        paths = {"GT": str(gt), "BAD": str(bad), "OUT": str(out)}
        assert main([paths.get(a, a) for a in args]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "internal error" not in err
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "deteval", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "evaluate" in proc.stdout

    def test_library_and_cli_do_not_import_the_oracle(self):
        # the oracle holds test references; importing it from the package
        # would load them into every run. numpy is the only runtime
        # dependency: every module the import adds is the standard library's,
        # numpy's or deteval's (site hooks load before it, at start-up)
        import deteval

        env = dict(os.environ, PYTHONPATH=str(Path(deteval.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); import deteval, deteval.cli; "
             "print('deteval.oracle' in sys.modules); "
             "print(*sorted(set(sys.modules) - before))"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        oracle, added = proc.stdout.splitlines()
        assert oracle == "False"
        added = added.split()
        assert {"deteval", "deteval.cli", "numpy"} <= set(added)
        top = {name.split(".")[0] for name in added}
        assert top - set(sys.stdlib_module_names) <= {"numpy", "deteval"}, top

    def test_determinism_of_evaluate(self, tmp_path):
        gt, det = road_pair(tmp_path)
        blobs = []
        for run in ("x", "y"):
            out = tmp_path / run
            main(
                ["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out),
                 "--format", "json,csv,svg"]
            )
            blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]
