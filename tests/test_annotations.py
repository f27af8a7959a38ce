import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import minimal_gt_dict, write_json
from deteval.annotations import (
    Annotation,
    Detection,
    GroundTruthSet,
    ImageRecord,
    LabelMap,
    SplitRatios,
    load_detections,
    load_ground_truth,
    rescale,
    stratified_split,
    validate,
)
from deteval.errors import (
    ConfigError,
    GeometryError,
    LossyRescaleError,
    MissingReferenceError,
    ParseError,
    ValidationError,
)
from deteval.geometry import BBox, InstanceMask, Polygon, rle_encode
from deteval.oracle import full_grid

# Per-class testing-split sizes of the 12-class road dataset the default
# label map mirrors; used to build proportional synthetic sets.
ROAD_TEST_COUNTS = (455, 101, 219, 77, 187, 14, 52, 12, 212, 297, 576, 17)


def road_gt_dict(per_class_counts, images=40, size=(512, 512)):
    """Synthetic 12-class ground truth with exact per-class totals."""
    w, h = size
    gt = {
        "images": [
            {"id": i + 1, "file_name": f"img{i + 1:04d}.png", "width": w, "height": h}
            for i in range(images)
        ],
        "annotations": [],
        "categories": [
            {"id": i + 1, "name": name}
            for i, name in enumerate(
                LabelMap.road_default().name_of(c) for c in range(1, 13)
            )
        ],
    }
    ann_id = 1
    for class_id, count in enumerate(per_class_counts, start=1):
        for k in range(count):
            img = ((k * 997 + class_id * 131) % images) + 1
            x = (k * 17) % (w - 40)
            y = (k * 29 + class_id * 13) % (h - 40)
            gt["annotations"].append(
                {
                    "id": ann_id,
                    "image_id": img,
                    "category_id": class_id,
                    "bbox": [x, y, 20, 20],
                }
            )
            ann_id += 1
    return gt


class TestLoadGroundTruth:
    def test_minimal(self, gt_file):
        gt = load_ground_truth(gt_file)
        assert (len(gt.images), len(gt.label_map), len(gt.annotations)) == (1, 1, 1)
        assert gt.annotations[0].area == 100.0

    def test_unknown_image_reference_names_annotation(self, tmp_path):
        doc = minimal_gt_dict()
        doc["annotations"][0]["image_id"] = 99
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises(MissingReferenceError, match="annotation 1"):
            load_ground_truth(path)

    def test_unknown_category(self, tmp_path):
        doc = minimal_gt_dict()
        doc["annotations"][0]["category_id"] = 7
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises(MissingReferenceError, match="category_id 7"):
            load_ground_truth(path)

    def test_zero_area_annotation(self, tmp_path):
        doc = minimal_gt_dict()
        doc["annotations"][0]["bbox"] = [4, 4, 0, 10]
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises(GeometryError, match="annotation 1"):
            load_ground_truth(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_ground_truth(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_ground_truth(tmp_path / "nope.json")

    def test_road_testing_column_histogram(self, tmp_path):
        doc = road_gt_dict(ROAD_TEST_COUNTS)
        gt = load_ground_truth(write_json(tmp_path / "road.json", doc))
        counts = gt.per_class_counts()
        assert tuple(counts[c] for c in range(1, 13)) == ROAD_TEST_COUNTS
        assert len(gt.annotations) == 2219

    def test_unknown_fields_ignored(self, tmp_path):
        doc = minimal_gt_dict()
        doc["info"] = {"year": 2020}
        doc["annotations"][0]["iscrowd"] = 0
        gt = load_ground_truth(write_json(tmp_path / "gt.json", doc))
        assert (len(gt.images), len(gt.label_map), len(gt.annotations)) == (1, 1, 1)

    def test_bbox_clamped_to_image(self, tmp_path):
        doc = minimal_gt_dict()
        doc["annotations"][0]["bbox"] = [-10, 60, 30, 30]
        gt = load_ground_truth(write_json(tmp_path / "gt.json", doc))
        box = gt.annotations[0].bbox
        assert (box.x, box.y, box.x2, box.y2) == (0, 60, 20, 64)

    def test_polygon_mask_area(self, tmp_path):
        doc = minimal_gt_dict()
        doc["annotations"][0]["segmentation"] = [[4, 4, 14, 4, 14, 14, 4, 14]]
        gt = load_ground_truth(write_json(tmp_path / "gt.json", doc))
        assert gt.annotations[0].area == 100

    def test_missing_areas_come_from_batched_masks(self, tmp_path):
        from deteval.oracle import reference_window

        doc = minimal_gt_dict()
        doc["images"].append({"id": 2, "file_name": "b.png", "width": 30, "height": 20})
        rings = {
            1: [[4, 4, 14, 4, 14, 14, 4, 14]],
            2: [[0.5, 0.5, 60.2, 3.7, 9.9, 30.1], [2, 2, 6, 2, 6, 6, 2, 6]],
            3: [[-5, -5, 10.3, 1.5, 3.5, 8.5]],
            4: [[1, 1, 9, 2, 5, 7.5]],
        }
        doc["annotations"] = [
            {"id": k, "image_id": 1 + k % 2, "category_id": 1, "bbox": [0, 0, 9, 9],
             "segmentation": seg}
            for k, seg in rings.items()
        ]
        doc["annotations"][3]["area"] = 7
        gt = load_ground_truth(write_json(tmp_path / "gt.json", doc))
        for ann in gt.annotations:
            expected = 7.0 if ann.ann_id == 4 else float(
                np.count_nonzero(reference_window(ann.mask)[0])
            )
            assert type(ann.area) is float and ann.area == expected

    @pytest.mark.parametrize("bad", ["abc", [1], {"a": 1}, float("inf"), float("nan"),
                                     10**400])
    def test_bad_area_rejected(self, tmp_path, bad):
        doc = minimal_gt_dict()
        doc["annotations"][0]["area"] = bad
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises((ParseError, GeometryError), match="annotation 1"):
            load_ground_truth(path)

    def test_two_vertex_polygon_rejected_at_load(self, tmp_path):
        doc = minimal_gt_dict()
        doc["annotations"][0]["segmentation"] = [[4, 4, 10, 10]]
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises(GeometryError, match="annotation 1.*vertices"):
            load_ground_truth(path)

    def test_rle_size_must_match_image(self, tmp_path):
        doc = minimal_gt_dict()
        doc["annotations"][0]["segmentation"] = {"size": [32, 32], "counts": [0, 1024]}
        path = write_json(tmp_path / "bad.json", doc)
        with pytest.raises(GeometryError, match="annotation 1"):
            load_ground_truth(path)

    def test_save_load_identity(self, tmp_path):
        doc = road_gt_dict((3, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1), images=3)
        doc["annotations"][0]["segmentation"] = [[10, 10, 30, 12, 25, 30]]
        gt = load_ground_truth(write_json(tmp_path / "gt.json", doc))
        gt.save(tmp_path / "copy.json")
        assert load_ground_truth(tmp_path / "copy.json") == gt


class TestLoadDetections:
    def test_empty(self, tmp_path):
        path = write_json(tmp_path / "det.json", [])
        dets = load_detections(path, LabelMap([(1, "thing")]))
        assert len(dets.detections) == 0

    def test_score_out_of_range(self, tmp_path):
        path = write_json(
            tmp_path / "det.json",
            [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 1.5}],
        )
        with pytest.raises(ValidationError, match="score"):
            load_detections(path, LabelMap([(1, "thing")]))

    def test_grouping(self, tmp_path):
        rows = [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.9},
            {"image_id": 1, "category_id": 1, "bbox": [8, 8, 5, 5], "score": 0.8},
            {"image_id": 2, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.7},
        ]
        dets = load_detections(write_json(tmp_path / "det.json", rows), LabelMap([(1, "t")]))
        grouped = dets.by_image()
        assert sorted(len(v) for v in grouped.values()) == [1, 2]

    def test_rle_segmentation(self, tmp_path):
        rows = [
            {
                "image_id": 1,
                "category_id": 1,
                "bbox": [0, 0, 2, 2],
                "score": 0.9,
                "segmentation": {"size": [2, 2], "counts": [0, 2, 2]},
            }
        ]
        dets = load_detections(write_json(tmp_path / "det.json", rows), LabelMap([(1, "t")]))
        assert dets.detections[0].mask.area == 2

    def test_corrupt_rle(self, tmp_path):
        rows = [
            {
                "image_id": 1,
                "category_id": 1,
                "bbox": [0, 0, 2, 2],
                "score": 0.9,
                "segmentation": {"size": [2, 2], "counts": [0, 9]},
            }
        ]
        with pytest.raises(GeometryError, match="detection 0"):
            load_detections(write_json(tmp_path / "det.json", rows), LabelMap([(1, "t")]))


class TestValidate:
    def test_valid_set_empty_report(self, gt_file):
        assert validate(load_ground_truth(gt_file)) == []

    def test_duplicate_ann_id(self):
        labels = LabelMap([(1, "t")])
        img = ImageRecord(1, "a.png", 64, 64)
        ann = Annotation(1, 1, 1, BBox(0, 0, 5, 5), area=25.0)
        report = validate(GroundTruthSet([img], labels, [ann, ann]))
        assert len(report) == 1
        assert "duplicate" in report[0]

    def test_two_vertex_polygon(self):
        labels = LabelMap([(1, "t")])
        img = ImageRecord(1, "a.png", 64, 64)
        bad = InstanceMask(
            polygons=[Polygon.from_points([(0, 0), (5, 5)])], canvas=(64, 64)
        )
        ann = Annotation(1, 1, 1, BBox(0, 0, 5, 5), mask=bad, area=25.0)
        report = validate(GroundTruthSet([img], labels, [ann]))
        assert len(report) == 1
        assert report[0].startswith("geometry")


class TestRescale:
    def _gt(self, tmp_path, bbox=(100, 200, 40, 80), seg=None, size=(3840, 2160)):
        doc = {
            "images": [
                {"id": 1, "file_name": "a.png", "width": size[0], "height": size[1]}
            ],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": list(bbox)}
            ],
            "categories": [{"id": 1, "name": "t"}],
        }
        if seg is not None:
            doc["annotations"][0]["segmentation"] = seg
        return load_ground_truth(write_json(tmp_path / "gt.json", doc))

    def test_quarter_scale(self, tmp_path):
        gt = rescale(self._gt(tmp_path), 960, 540)
        img = gt.images[0]
        assert (img.width, img.height) == (960, 540)
        box = gt.annotations[0].bbox
        assert (box.x, box.y, box.w, box.h) == (25, 50, 10, 20)

    def test_identity(self, tmp_path):
        gt = self._gt(tmp_path)
        again = rescale(gt, 3840, 2160)
        assert again == gt

    def test_round_trip_within_half_pixel(self, tmp_path):
        seg = [[100, 200, 140, 205, 135, 280, 102, 270]]
        gt = self._gt(tmp_path, seg=seg)
        back = rescale(rescale(gt, 960, 540), 3840, 2160)
        b0 = gt.annotations[0].bbox
        b1 = back.annotations[0].bbox
        for v0, v1 in zip((b0.x, b0.y, b0.w, b0.h), (b1.x, b1.y, b1.w, b1.h)):
            assert abs(v0 - v1) <= 0.5

    def test_rle_only_mask_raises(self, tmp_path):
        runs = [0] + [3840 * 2160]
        seg = {"size": [2160, 3840], "counts": runs}
        gt = self._gt(tmp_path, seg=seg)
        with pytest.raises(LossyRescaleError, match="annotation 1"):
            rescale(gt, 960, 540)

    def test_rle_force_resamples(self, tmp_path):
        seg = {"size": [2160, 3840], "counts": [0, 3840 * 2160]}
        gt = self._gt(tmp_path, seg=seg)
        out = rescale(gt, 960, 540, force=True)
        assert out.annotations[0].mask.area == 960 * 540

    def test_rle_force_resamples_whole_canvas_of_partial_mask(self, tmp_path):
        bits = np.zeros((20, 30), dtype=bool)
        bits[6:10, 5:13] = True  # an 8x4 block
        seg = {"size": [20, 30], "counts": rle_encode(bits).runs.tolist()}
        gt = self._gt(tmp_path, bbox=(5, 6, 8, 4), seg=seg, size=(30, 20))
        mask = rescale(gt, 60, 40, force=True).annotations[0].mask
        assert mask.area == 128
        expected = np.zeros((40, 60), dtype=bool)
        expected[12:20, 10:26] = True
        assert np.array_equal(full_grid(mask.window(), 60, 40), expected)

    def test_detections_need_image_table(self, tmp_path):
        dets = load_detections(
            write_json(
                tmp_path / "det.json",
                [{"image_id": 1, "category_id": 1, "bbox": [8, 8, 4, 4], "score": 0.9}],
            ),
            LabelMap([(1, "t")]),
        )
        with pytest.raises(ConfigError):
            rescale(dets, 32, 32)
        images = [ImageRecord(1, "a.png", 64, 64)]
        out = rescale(dets, 32, 32, images=images)
        assert out.detections[0].bbox == BBox(4, 4, 2, 2)


class TestSplit:
    def _uniform_gt(self, n=100):
        labels = LabelMap([(1, "t")])
        images = [ImageRecord(i, f"{i}.png", 64, 64) for i in range(1, n + 1)]
        anns = [
            Annotation(i, i, 1, BBox(0, 0, 8, 8), area=64.0) for i in range(1, n + 1)
        ]
        return GroundTruthSet(images, labels, anns)

    def test_exact_sizes(self):
        train, val, test = stratified_split(
            self._uniform_gt(), SplitRatios(0.7, 0.15, 0.15), seed=7
        )
        assert (len(train.images), len(val.images), len(test.images)) == (70, 15, 15)

    def test_single_image_goes_to_train(self):
        train, val, test = stratified_split(
            self._uniform_gt(1), SplitRatios(0.7, 0.15, 0.15), seed=0
        )
        assert len(train.images) == 1
        assert len(val.images) == len(test.images) == 0

    def test_partition_and_determinism(self):
        gt = self._uniform_gt(50)
        a = stratified_split(gt, SplitRatios(0.7, 0.15, 0.15), seed=3)
        b = stratified_split(gt, SplitRatios(0.7, 0.15, 0.15), seed=3)
        ids = [sorted(im.image_id for im in part.images) for part in a]
        assert ids == [sorted(im.image_id for im in part.images) for part in b]
        combined = sorted(sum(ids, []))
        assert combined == sorted(im.image_id for im in gt.images)

    def test_seed_changes_content(self):
        gt = self._uniform_gt(50)
        a = stratified_split(gt, SplitRatios(0.7, 0.15, 0.15), seed=3)
        b = stratified_split(gt, SplitRatios(0.7, 0.15, 0.15), seed=4)
        assert {im.image_id for im in a[0].images} != {
            im.image_id for im in b[0].images
        }

    def test_per_class_totals_preserved(self, tmp_path):
        doc = road_gt_dict(ROAD_TEST_COUNTS, images=60)
        gt = load_ground_truth(write_json(tmp_path / "gt.json", doc))
        parts = stratified_split(gt, SplitRatios(0.7, 0.15, 0.15), seed=11)
        for cid, total in gt.per_class_counts().items():
            assert sum(p.per_class_counts()[cid] for p in parts) == total

    def test_class_shares_near_ratios(self, tmp_path):
        # 1,000 images at the road dataset's annotation density (~10.7 per
        # image), class mix proportional to its full per-class totals
        road_totals = (3238, 728, 1358, 556, 1634, 196, 409, 132, 1548, 1777, 3503, 109)
        counts = tuple(round(c * 1000 / 1418) for c in road_totals)
        doc = road_gt_dict(counts, images=1000)
        gt = load_ground_truth(write_json(tmp_path / "gt.json", doc))
        parts = stratified_split(gt, SplitRatios(0.7, 0.15, 0.15), seed=5)
        for cid, total in gt.per_class_counts().items():
            if total == 0:
                continue
            for part, want in zip(parts, (0.70, 0.15, 0.15)):
                share = part.per_class_counts()[cid] / total
                assert abs(share - want) <= 0.05, (cid, share, want)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            SplitRatios(0.7, 0.2, 0.2)
        with pytest.raises(ConfigError):
            SplitRatios(1.2, -0.1, -0.1)


class TestLabelMap:
    def test_road_default_order(self):
        labels = LabelMap.road_default()
        assert len(labels) == 12
        assert labels.name_of(1) == "Crack1"
        assert labels.name_of(12) == "Patching2"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            LabelMap([(1, "a"), (1, "b")])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            LabelMap([(1, "a"), (2, "a")])


# JSON values a count may hold: ints within and beyond int64, bools, floats
# (truncated, or not finite), numeric and other strings, null and lists
COUNT_VALUES = st.one_of(
    st.integers(-5, 10),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(),
    st.text(alphabet="0123456789 -_.e", max_size=4),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)


class TestRleCounts:
    """RLE counts are parsed as one int64 array, but each value is accepted
    or rejected exactly as ``int()`` accepts or rejects it."""

    @given(st.one_of(st.lists(COUNT_VALUES, max_size=6), st.lists(st.integers(0, 9)),
                     COUNT_VALUES))
    @settings(max_examples=500, deadline=None)
    def test_matches_int_conversion(self, raw):
        from deteval.annotations import _parse_counts

        try:
            expected = [int(c) for c in raw]
        except (TypeError, ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                _parse_counts(raw)
            return
        if any(not -(2**63) <= c < 2**63 for c in expected):
            with pytest.raises(OverflowError):
                _parse_counts(raw)
            return
        counts = _parse_counts(raw)
        assert counts.dtype == np.int64 and counts.ndim == 1
        assert counts.tolist() == expected

    @pytest.mark.parametrize(
        "seg, error",
        [
            ({"size": [2, 2], "counts": [1, float("inf"), 0]}, "bad RLE"),
            ({"size": [float("inf"), 2], "counts": [4]}, "bad RLE"),
            ({"size": [2, 2], "counts": [2**63, 1]}, "bad RLE"),
            ({"size": [2, 2], "counts": [1, -1, 4]}, "negative run"),
            ({"size": [2, 2], "counts": [1, 2]}, "runs sum to 3"),
        ],
    )
    def test_bad_counts_name_the_detection(self, tmp_path, seg, error):
        path = write_json(
            tmp_path / "det.json",
            [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 2, 2], "score": 0.9,
              "segmentation": seg}],
        )
        with pytest.raises((ParseError, GeometryError), match=f"detection 0.*{error}"):
            load_detections(path, LabelMap([(1, "t")]))

    def test_round_trip_through_json(self, tmp_path):
        bits = np.zeros((5, 7), dtype=bool)
        bits[1:3, 2:6] = True
        seg = {"size": [5, 7], "counts": rle_encode(bits).runs.tolist()}
        rows = [{"image_id": 1, "category_id": 1, "bbox": [2, 1, 4, 2], "score": 0.9,
                 "segmentation": seg}]
        dets = load_detections(write_json(tmp_path / "det.json", rows), LabelMap([(1, "t")]))
        dets.save(tmp_path / "again.json")
        again = json.loads((tmp_path / "again.json").read_text())
        assert again[0]["segmentation"] == seg
        assert load_detections(tmp_path / "again.json", LabelMap([(1, "t")])) == dets
