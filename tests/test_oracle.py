import json

import pytest

from deteval.annotations import Annotation, Detection, LabelMap
from deteval.errors import ConfigError, EvalError
from deteval.geometry import BBox
from deteval.matching import Thresholds, accumulate, match_conventional, match_modified
from deteval.oracle import (
    InstanceTooLargeError,
    ScenarioConfig,
    compare,
    generate,
    greedy_iou_matching,
    instance_iou,
    max_matching,
    reference_conventional,
)
from deteval.reports import DeltaStats, delta_table_csv
from test_matching import pathological_instance

T = Thresholds()


def snapshot(gt_set, det_set):
    return json.dumps([gt_set.to_json(), det_set.to_json()], sort_keys=True)


class TestGenerate:
    def test_same_seed_identical(self):
        cfg = ScenarioConfig(seed=4, image_count=3, jitter_px=3, clutter_rate=0.4)
        assert snapshot(*generate(cfg)) == snapshot(*generate(cfg))

    def test_different_seed_differs(self):
        a = snapshot(*generate(ScenarioConfig(seed=1)))
        b = snapshot(*generate(ScenarioConfig(seed=2)))
        assert a != b

    def test_drop_all(self):
        gt, det = generate(ScenarioConfig(seed=3, drop_rate=1.0, clutter_rate=0.0))
        assert len(det.detections) == 0
        assert len(gt.annotations) > 0

    def test_zero_noise_perfect_overlap(self):
        gt, det = generate(ScenarioConfig(seed=5, gts_per_image=(3, 3)))
        anns = gt.by_image()[1]
        dets = det.by_image()[1]
        assert len(anns) == len(dets)
        for ann, d in zip(anns, dets):
            assert ann.bbox == d.bbox
            assert ann.class_id == d.class_id
            assert instance_iou(ann.mask, d.mask) == 1.0

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(drop_rate=1.5)
        with pytest.raises(ConfigError):
            ScenarioConfig(gts_per_image=(5, 2))


class TestMaxMatching:
    def test_empty(self):
        assert max_matching([], [], 0.5) == 0

    def test_pathological_optimum_is_two(self):
        gts, dets = pathological_instance()
        assert max_matching(gts, dets, 0.5) == 2

    def test_class_constraint_removes_edges(self):
        g = Annotation(1, 1, 1, BBox(0, 0, 10, 10), area=100.0)
        d = Detection(0, 1, 2, BBox(0, 0, 10, 10), score=0.9)
        assert max_matching([g], [d], 0.5) == 1
        assert max_matching([g], [d], 0.5, class_constrained=True) == 0

    def test_monotone_in_threshold(self):
        for seed in range(100):
            gt_set, det_set = generate(
                ScenarioConfig(seed=seed, gts_per_image=(1, 6), jitter_px=6,
                               clutter_rate=0.3, drop_rate=0.2)
            )
            gts = gt_set.by_image()[1]
            dets = det_set.by_image().get(1, [])
            if len(gts) > 12 or len(dets) > 12:
                continue
            sizes = [max_matching(gts, dets, t) for t in (0.3, 0.5, 0.75, 0.9)]
            assert sizes == sorted(sizes, reverse=True)
            constrained = max_matching(gts, dets, 0.5, class_constrained=True)
            assert constrained <= max_matching(gts, dets, 0.5)

    def test_cap(self):
        gts = [
            Annotation(i, 1, 1, BBox(i, 0, 5, 5), area=25.0) for i in range(13)
        ]
        with pytest.raises(InstanceTooLargeError):
            max_matching(gts, [], 0.5)
        assert issubclass(InstanceTooLargeError, EvalError)


class TestReferenceConventional:
    def test_empty_dets(self):
        gts = [Annotation(1, 1, 1, BBox(0, 0, 5, 5), area=25.0)]
        res = reference_conventional(gts, [], T)
        assert res.matched == ()
        assert len(res.unmatched_gts) == 1

    def test_single_pair(self):
        gts = [Annotation(1, 1, 1, BBox(0, 0, 10, 10), area=100.0)]
        dets = [Detection(0, 1, 1, BBox(0, 0, 10, 9), score=0.9)]
        res = reference_conventional(gts, dets, T)
        assert len(res.matched) == 1

    @pytest.mark.parametrize("mode", ["boxes", "masks"])
    def test_differential_equivalence(self, mode):
        t = Thresholds(geometry_mode=mode)
        for seed in range(500):
            gt_set, det_set = generate(
                ScenarioConfig(seed=seed, gts_per_image=(0, 6), jitter_px=5,
                               class_swap_rate=0.3, clutter_rate=0.3, drop_rate=0.2)
            )
            gts = gt_set.by_image()[1]
            dets = det_set.by_image().get(1, [])
            ours = accumulate([match_conventional(gts, dets, t)], gt_set.label_map)
            ref = accumulate([reference_conventional(gts, dets, t)], gt_set.label_map)
            assert ours == ref, f"divergence at seed {seed}"


class TestGreedyVariant:
    def test_differs_from_literal_steps(self):
        gts, dets = pathological_instance()
        assert len(greedy_iou_matching(gts, dets, T).matched) == 2
        assert len(match_conventional(gts, dets, T).matched) == 1

    def test_agrees_on_unambiguous(self):
        gts = [Annotation(1, 1, 1, BBox(0, 0, 10, 10), area=100.0)]
        dets = [Detection(0, 1, 1, BBox(0, 0, 10, 9), score=0.9)]
        assert greedy_iou_matching(gts, dets, T) == match_conventional(gts, dets, T)


class TestCompare:
    def test_zero_noise_all_deltas_zero(self):
        configs = [ScenarioConfig(seed=s, image_count=2) for s in range(10)]
        stats = compare(configs, T)
        assert stats.diagonal_delta == 0
        assert all(v == (0, 0, 0) for v in stats.per_class.values())
        assert stats.scenario_count == 10

    def test_crafted_cross_class_delta(self):
        labels = LabelMap([(1, "X"), (2, "Y")])
        g = Annotation(1, 1, 1, BBox(0, 0, 10, 10), area=100.0)
        d1 = Detection(0, 1, 2, BBox(0, 0, 10, 9), score=0.9)
        d2 = Detection(1, 1, 1, BBox(0, 0, 10, 6), score=0.9)
        conv = accumulate([match_conventional([g], [d1, d2], T)], labels)
        mod = accumulate([match_modified([g], [d1, d2], T)], labels)
        stats = DeltaStats.from_matrices(conv, mod, labels, 1)
        assert stats.diagonal_delta == 1
        # conventional: cross-class cell (X->Y); modified moves it on-diagonal
        assert conv.counts[0, 1] == 1 and mod.counts[0, 1] == 0
        tp, fp, fn = stats.per_class[1]
        assert (tp, fn) == (1, 0)

    def test_noisy_comparison_reports_deltas(self):
        configs = [
            ScenarioConfig(seed=s, jitter_px=6, class_swap_rate=0.3,
                           clutter_rate=0.2, drop_rate=0.1)
            for s in range(50)
        ]
        stats = compare(configs, T)
        assert stats.scenario_count == 50
        csv = delta_table_csv(stats)
        lines = csv.strip().split("\n")
        assert lines[0].count("precision_@0.5IoU") == 2
        assert lines[0].count("recall_@0.5IoU") == 2
        assert len(lines) == 1 + len(stats.labels)

    def test_empty_configs(self):
        with pytest.raises(ConfigError):
            compare([], T)
