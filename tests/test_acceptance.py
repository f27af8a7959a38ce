"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import numpy as np
import pytest

from conftest import write_json
from deteval.annotations import LabelMap
from deteval.cli import main
from deteval.geometry import (
    BBox,
    rle_decode,
    rle_encode,
)
from deteval.matching import (
    ConfusionMatrix,
    Thresholds,
    accumulate,
    match_conventional,
    match_modified,
)
from deteval.metrics import average_precision, mean_ap, precision_recall
from deteval.oracle import (
    ScenarioConfig,
    box_iou,
    compare,
    generate,
    mask_iou,
    max_matching,
    polygon_from_points,
    rasterize,
    reference_conventional,
    road_labels,
)
from deteval.reports import delta_table_csv
from test_matching import A, D, pathological_instance

SWEEP_SIZE = 10_000


def _sweep_config(seed):
    return ScenarioConfig(
        seed=seed,
        gts_per_image=(0, 5),
        jitter_px=5.0,
        class_swap_rate=0.3,
        clutter_rate=0.3,
        drop_rate=0.2,
    )


@pytest.fixture(scope="module")
def scenario_sweep():
    """10,000 seeded scenarios evaluated in both modes by all three matchers."""
    records = []
    t0 = time.perf_counter()
    for seed in range(SWEEP_SIZE):
        gt_set, det_set = generate(_sweep_config(seed))
        gts = gt_set.by_image()[1]
        dets = det_set.by_image().get(1, [])
        labels = gt_set.label_map
        rec = {"seed": seed, "labels": labels, "modes": {}}
        for mode in ("boxes", "masks"):
            t = Thresholds(geometry_mode=mode)
            visible = [d for d in dets if d.score >= t.confidence_threshold]
            conv = match_conventional(gts, dets, t)
            ref = reference_conventional(gts, dets, t)
            mod = match_modified(gts, dets, t)
            rec["modes"][mode] = {
                "conv_cm": accumulate([conv], labels),
                "ref_cm": accumulate([ref], labels),
                "mod_cm": accumulate([mod], labels),
                "n_matched": {"conventional": len(conv.matched),
                              "modified": len(mod.matched)},
                "gt_counts": {
                    c: sum(1 for g in gts if g.class_id == c) for c in labels.ids()
                },
                "det_counts": {
                    c: sum(1 for d in visible if d.class_id == c)
                    for c in labels.ids()
                },
            }
        records.append(rec)
    elapsed = time.perf_counter() - t0
    return {"records": records, "elapsed": elapsed}


def test_criterion_1_recall_fixture():
    labels = road_labels()
    cm = ConfusionMatrix(labels)
    cm.counts[0, 0] = 116
    cm.counts[0, 1] = 10
    cm.counts[0, -1] = 329
    precision_recall(cm)  # warm-up outside the timed region
    t0 = time.perf_counter()
    printed = f"{precision_recall(cm)[0].recall_at_05:.4f}"
    elapsed = time.perf_counter() - t0
    assert printed == "0.2549"
    assert cm.row_sum(1) == 455
    assert elapsed < 0.001
    print(f"\nACCEPTANCE 1: PASS (recall 116/455 prints {printed} in {elapsed*1e6:.0f} us)")


def test_criterion_2_divergence_fixture():
    labels = LabelMap([(1, "X"), (2, "Y")])
    g = A(1, 1, (0, 0, 10, 10))
    d1 = D(0, 2, (0, 0, 10, 9), score=0.9)   # class Y, IoU 0.9
    d2 = D(1, 1, (0, 0, 10, 6), score=0.8)   # class X, IoU 0.6
    t = Thresholds()
    conv = accumulate([match_conventional([g], [d1, d2], t)], labels)
    mod = accumulate([match_modified([g], [d1, d2], t)], labels)
    assert int(np.trace(conv.counts)) == 0
    assert int(np.trace(mod.counts)) == 1
    assert conv.counts[0, 1] == 1          # cross-class match X->Y
    assert conv.unclassified_detections(1) == 1
    assert mod.diagonal(1) == 1
    assert mod.unclassified_detections(2) == 1
    print("\nACCEPTANCE 2: PASS (conventional diagonal 0, modified diagonal 1)")


def test_criterion_3_literal_steps_divergence():
    gts, dets = pathological_instance()
    res = match_conventional(gts, dets, Thresholds())
    optimum = max_matching(gts, dets, 0.5)
    assert len(res.matched) == 1
    assert optimum == 2
    print("\nACCEPTANCE 3: PASS (literal steps match 1 pair, optimum is 2)")


def test_criterion_4_differential_equivalence(scenario_sweep):
    mismatches = []
    for rec in scenario_sweep["records"]:
        for mode in ("boxes", "masks"):
            m = rec["modes"][mode]
            if m["conv_cm"] != m["ref_cm"]:
                mismatches.append((rec["seed"], mode))
    elapsed = scenario_sweep["elapsed"]
    assert mismatches == []
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 4: PASS ({SWEEP_SIZE} scenarios x 2 modes, "
        f"0 mismatches, sweep {elapsed:.1f} s)"
    )


def test_criterion_5_conservation(scenario_sweep):
    violations = 0
    for rec in scenario_sweep["records"]:
        labels = rec["labels"]
        for mode in ("boxes", "masks"):
            m = rec["modes"][mode]
            total_gts = sum(m["gt_counts"].values())
            total_dets = sum(m["det_counts"].values())
            for algo, cm in (("conventional", m["conv_cm"]), ("modified", m["mod_cm"])):
                for cid in labels.ids():
                    if cm.row_sum(cid) != m["gt_counts"][cid]:
                        violations += 1
                    if cm.col_sum(cid) != m["det_counts"][cid]:
                        violations += 1
                expected_total = total_gts + total_dets - m["n_matched"][algo]
                if int(cm.counts.sum()) != expected_total:
                    violations += 1
    assert violations == 0
    print(
        f"\nACCEPTANCE 5: PASS (row/column conservation on {SWEEP_SIZE} "
        "scenarios x 2 modes x 2 algorithms)"
    )


def test_criterion_6_agreement_on_unambiguous():
    from deteval.matching import iou_table

    checked = 0
    seed = 0
    t = Thresholds()
    while checked < 1000:
        seed += 1
        gt_set, det_set = generate(
            ScenarioConfig(seed=seed, gts_per_image=(1, 6), jitter_px=1.5,
                           class_swap_rate=0.25, drop_rate=0.2, clutter_rate=0.0)
        )
        gts = gt_set.by_image()[1]
        dets = det_set.by_image().get(1, [])
        visible = [d for d in dets if d.score >= t.confidence_threshold]
        degree_g, degree_d = {}, {}
        for p in iou_table(gts, visible, t):
            degree_g[p.gt.ann_id] = degree_g.get(p.gt.ann_id, 0) + 1
            degree_d[p.det.det_id] = degree_d.get(p.det.det_id, 0) + 1
        if any(v > 1 for v in degree_g.values()) or any(
            v > 1 for v in degree_d.values()
        ):
            continue
        checked += 1
        conv = accumulate([match_conventional(gts, dets, t)], gt_set.label_map)
        mod = accumulate([match_modified(gts, dets, t)], gt_set.label_map)
        assert conv == mod, f"disagreement on unambiguous scenario, seed {seed}"
    print("\nACCEPTANCE 6: PASS (1000 unambiguous scenarios, identical matrices)")


def test_criterion_7_oracle_monotonicity():
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        gt_set, det_set = generate(
            ScenarioConfig(seed=seed, gts_per_image=(1, 6), jitter_px=6.0,
                           class_swap_rate=0.3, clutter_rate=0.3, drop_rate=0.2)
        )
        gts = gt_set.by_image()[1]
        dets = [
            d for d in det_set.by_image().get(1, []) if d.score >= 0.5
        ]
        if len(gts) > 12 or len(dets) > 12:
            continue
        checked += 1
        sizes = [max_matching(gts, dets, t) for t in (0.3, 0.5, 0.75, 0.9)]
        assert sizes == sorted(sizes, reverse=True), f"seed {seed}: {sizes}"
    print("\nACCEPTANCE 7: PASS (maximum matching non-increasing in IoU, 1000 scenarios)")


def test_criterion_8_ap_oracle():
    from test_metrics import iou_06_scene, scene

    gt, det = scene(
        [(1, (0, 0, 10, 10)), (1, (50, 50, 10, 10))],
        [
            (1, (0, 0, 10, 10), 0.9),
            (1, (200, 200, 10, 10), 0.8),
            (1, (50, 50, 10, 10), 0.7),
        ],
    )
    ap = average_precision(gt, det, 1)
    expected = (51 + 50 * (2 / 3)) / 101
    assert abs(ap - expected) < 1e-9

    gt6, det6 = iou_06_scene()
    fields = mean_ap(gt6, det6)
    assert fields["map_50"] == 1.0
    assert fields["map_75"] == 0.0
    assert fields["map_50_95"] == 0.3
    print(
        f"\nACCEPTANCE 8: PASS (AP {ap:.6f} ~ {expected:.6f}; "
        "sweep 1.0 / 0.0 / 0.3)"
    )


def test_criterion_9_geometry_consistency():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        ax, ay, bx, by = (int(v) for v in rng.integers(0, 24, size=4))
        aw, ah, bw, bh = (int(v) for v in rng.integers(1, 14, size=4))
        a, b = BBox(ax, ay, aw, ah), BBox(bx, by, bw, bh)
        w = max(int(a.x2), int(b.x2))
        h = max(int(a.y2), int(b.y2))
        pa = polygon_from_points([(a.x, a.y), (a.x2, a.y), (a.x2, a.y2), (a.x, a.y2)])
        pb = polygon_from_points([(b.x, b.y), (b.x2, b.y), (b.x2, b.y2), (b.x, b.y2)])
        assert mask_iou(rasterize(pa, w, h), rasterize(pb, w, h)) == box_iou(a, b)

    for _ in range(1000):
        mw = int(rng.integers(1, 32))
        mh = int(rng.integers(1, 32))
        mask = rng.random((mh, mw)) < rng.random()
        assert np.array_equal(rle_decode(rle_encode(mask)), mask)
    print(
        "\nACCEPTANCE 9: PASS (mask IoU == box IoU on 1000 integer box pairs; "
        "RLE round trip on 1000 masks)"
    )


def test_criterion_10_directional_claim(tmp_path):
    configs = [
        ScenarioConfig(seed=seed, gts_per_image=(1, 6), jitter_px=7.0,
                       class_swap_rate=0.3, clutter_rate=0.3, drop_rate=0.15)
        for seed in range(1000)
    ]
    stats = compare(configs, Thresholds())
    csv_text = delta_table_csv(stats)
    (tmp_path / "class_deltas.csv").write_text(csv_text, encoding="utf-8")
    lines = csv_text.strip().split("\n")
    assert lines[0].count("precision_@0.5IoU") == 2
    assert len(lines) == 1 + len(stats.labels)
    assert stats.diagonal_delta >= 0
    print(
        f"\nACCEPTANCE 10: PASS (diagonal-sum delta {stats.diagonal_delta:+d} "
        f"over {stats.scenario_count} scenarios)\n{csv_text}"
    )


def _table_scale_dataset(tmp_path):
    """220 images, 2,219 polygon ground truths with the road per-class
    testing counts, and exactly 3,000 detections."""
    counts = (455, 101, 219, 77, 187, 14, 52, 12, 212, 297, 576, 17)
    labels = road_labels()
    rng = random.Random(99)
    images = [
        {"id": i, "file_name": f"img{i:04d}.png", "width": 960, "height": 540}
        for i in range(1, 221)
    ]
    annotations = []
    dets = []
    ann_id = 1
    for cid, n in enumerate(counts, start=1):
        for k in range(n):
            img = ((ann_id - 1) % 220) + 1
            w = rng.uniform(8, 60)
            h = rng.uniform(8, 60)
            x = rng.uniform(0, 960 - w)
            y = rng.uniform(0, 540 - h)
            poly = [x, y, x + w, y + 0.2 * h, x + w, y + h, x + 0.1 * w, y + h]
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": img,
                    "category_id": cid,
                    "bbox": [x, y, w, h],
                    "segmentation": [poly],
                }
            )
            if len(dets) < 2600:
                j = rng.uniform(-6, 6)
                dets.append(
                    {
                        "image_id": img,
                        "category_id": cid if rng.random() > 0.2
                        else rng.randint(1, 12),
                        "bbox": [max(0.0, x + j), max(0.0, y + j), w, h],
                        "segmentation": [
                            [max(0.0, v + j) for v in poly]
                        ],
                        "score": rng.uniform(0.3, 1.0),
                    }
                )
            ann_id += 1
    while len(dets) < 3000:
        w = rng.uniform(8, 60)
        h = rng.uniform(8, 60)
        x = rng.uniform(0, 960 - w)
        y = rng.uniform(0, 540 - h)
        dets.append(
            {
                "image_id": rng.randint(1, 220),
                "category_id": rng.randint(1, 12),
                "bbox": [x, y, w, h],
                "segmentation": [[x, y, x + w, y, x + w, y + h, x, y + h]],
                "score": rng.uniform(0.3, 1.0),
            }
        )
    gt = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": i, "name": n} for i, n in labels.entries],
    }
    assert len(annotations) == 2219 and len(dets) == 3000
    return (
        write_json(tmp_path / "gt.json", gt),
        write_json(tmp_path / "det.json", dets),
    )


def test_criterion_11_performance(tmp_path):
    gt, det = _table_scale_dataset(tmp_path)
    t0 = time.perf_counter()
    for mode in ("boxes", "masks"):
        out = tmp_path / f"out_{mode}"
        code = main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out),
             "--mode", mode, "--format", "json,csv"]
        )
        assert code == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 11: PASS (2219 gts / 3000 dets / 220 images, "
        f"both modes in {elapsed:.2f} s)"
    )


def test_criterion_12_determinism(tmp_path):
    gt, det = _table_scale_dataset(tmp_path)

    blobs = []
    for run in ("a", "b"):
        out = tmp_path / f"eval_{run}"
        assert main(
            ["evaluate", "--gt", str(gt), "--det", str(det), "--out", str(out),
             "--format", "json,csv,svg"]
        ) == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert blobs[0] == blobs[1]

    splits = []
    for run in ("a", "b"):
        out = tmp_path / f"split_{run}"
        assert main(
            ["split", "--gt", str(gt), "--seed", "7", "--out", str(out)]
        ) == 0
        splits.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert splits[0] == splits[1]
    print("\nACCEPTANCE 12: PASS (byte-identical evaluate and split reruns)")
