import json
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
    from deteval.annotations import LabelMap

    labels = LabelMap.road_default()
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

    def test_numeric_area_string_still_accepted(self, tmp_path):
        _, det = simple_pair(tmp_path)
        doc = minimal_gt_dict()
        doc["annotations"][0]["area"] = "100"
        gt = write_json(tmp_path / "gt.json", doc)
        out = tmp_path / "o"
        assert main(["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out)]) == 0


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


class TestRescale:
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
        # would load them into every run
        import deteval

        env = dict(os.environ, PYTHONPATH=str(Path(deteval.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, deteval, deteval.cli; print('deteval.oracle' in sys.modules)"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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
