"""Relations between whole input files and the outputs of ``main``: list
order and an order-preserving renumbering of ids move no output byte,
category order moves no aggregate, and a split's parts' confusion matrices
sum to the whole set's."""

import json
import random

import numpy as np
import pytest

from deteval.annotations import DetectionSet, SplitRatios, json_text, stratified_split
from deteval.cli import main
from deteval.matching import Thresholds, match_dataset
from deteval.oracle import ScenarioConfig, generate

COMMANDS = (["evaluate", "--algorithm", "conventional"],
            ["evaluate", "--algorithm", "modified"], ["compare"])


def scene_docs(seed, **kw):
    """The ground-truth and detection documents of a generated scene."""
    gt_set, det_set = generate(ScenarioConfig(
        seed=seed, image_count=kw.pop("image_count", 5), gts_per_image=(2, 8),
        jitter_px=3.0, class_swap_rate=0.3, clutter_rate=0.3, **kw))
    return gt_set.to_json(), det_set.to_json()


def outputs(tmp_path, gt, det, mode, commands=COMMANDS):
    """Every output file of ``commands`` on the documents, by name, with
    ``--format json,csv,svg``."""
    for name, doc in (("gt.json", gt), ("det.json", det)):
        (tmp_path / name).write_text(json_text(doc), encoding="utf-8")
    files = {}
    for k, command in enumerate(commands):
        out = tmp_path / f"out{k}"
        assert main([*command, "--gt", str(tmp_path / "gt.json"),
                     "--det", str(tmp_path / "det.json"), "--mode", mode,
                     "--format", "json,csv,svg", "--out", str(out)]) == 0
        files.update({f"{k}/{path.name}": path.read_bytes() for path in out.iterdir()})
    return files


def shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


@pytest.mark.parametrize("mode", ["boxes", "masks"])
def test_list_order_and_id_numbering_move_no_output(tmp_path, mode):
    gt, det = scene_docs(11)
    base = outputs(tmp_path, gt, det, mode)
    assert len(base) == 13
    for seed in (1, 2):
        for key in ("images", "annotations"):
            assert outputs(tmp_path, {**gt, key: shuffled(gt[key], seed)}, det, mode) == base
        assert outputs(tmp_path, gt, shuffled(det, seed), mode) == base
    # new ids in the same order, with gaps
    image_id = {img["id"]: 7 * img["id"] + 40 for img in gt["images"]}
    renumbered = {
        "images": [{**img, "id": image_id[img["id"]]} for img in gt["images"]],
        "annotations": [{**a, "id": 3 * a["id"] + 1000, "image_id": image_id[a["image_id"]]}
                        for a in gt["annotations"]],
        "categories": gt["categories"]}
    det = [{**d, "image_id": image_id[d["image_id"]]} for d in det]
    assert outputs(tmp_path, renumbered, det, mode) == base


def test_category_order_moves_no_aggregate(tmp_path):
    """The class means are taken in sorted class-id order, so reordering the
    categories moves no aggregate, not even in its last bits (on this scene,
    file order moved six of them); the per-class rows follow the file."""
    gt, det = scene_docs(0, image_count=4, class_count=6)
    reordered = {**gt, "categories": gt["categories"][::-1]}
    reports = [json.loads(outputs(tmp_path, doc, det, "boxes", COMMANDS[1:2])["0/report.json"])
               for doc in (gt, reordered)]
    assert reports[0]["aggregates"] == reports[1]["aggregates"]
    assert reports[0]["per_class"] == reports[1]["per_class"][::-1]


@pytest.mark.parametrize("mode", ["boxes", "masks"])
def test_split_parts_sum_to_the_whole(mode):
    """Each part of a 0.6/0.2/0.2 split, with its own images' detections,
    gives matrices that sum to the whole set's, under both algorithms."""
    for seed in range(3):
        gt_set, det_set = generate(ScenarioConfig(
            seed=seed, image_count=10, gts_per_image=(2, 8), jitter_px=3.0,
            class_swap_rate=0.3, clutter_rate=0.3))
        parts = stratified_split(gt_set, SplitRatios(0.6, 0.2, 0.2), seed)
        assert sum(len(part.images) for part in parts) == len(gt_set.images)
        for t in (Thresholds(0.5, 0.5, mode), Thresholds(0.3, 0.05, mode)):
            for algorithm in ("conventional", "modified"):
                whole = match_dataset(gt_set, det_set, t, algorithm)[1].counts
                summed = np.zeros_like(whole)
                for part in parts:
                    ids = {img.image_id for img in part.images}
                    dets = DetectionSet(det_set.label_map, [
                        d for d in det_set.detections if d.image_id in ids])
                    summed += match_dataset(part, dets, t, algorithm)[1].counts
                assert np.array_equal(summed, whole)
