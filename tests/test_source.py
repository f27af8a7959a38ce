import re
from pathlib import Path

import deteval

MAX_LINE = 95


def test_no_source_line_is_wider_than_the_limit():
    wide = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(Path(deteval.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert wide == []


def test_only_geometry_reads_the_mask_window_cache():
    """``InstanceMask._window`` and ``InstanceMask._spans``, a mask's cached
    window and spans, are read and written in ``geometry`` alone; every
    other module takes spans, rects and areas from ``MaskColumns``."""
    readers = [
        path.name
        for path in sorted(Path(deteval.__file__).parent.glob("*.py"))
        if path.name != "geometry.py"
        and re.search(r"\._(window|spans)\b", path.read_text(encoding="utf-8"))
    ]
    assert readers == []


def test_matching_leaves_each_pair_rule_to_geometry():
    """The pair table only enumerates cells: ``matching`` defines no box-IoU
    kernel and reads no mask canvas, known flag or window, so the canvas
    check, the window test and both IoU kernels live in ``geometry``
    (``box_ious`` and ``mask_ious``) alone."""
    text = (Path(deteval.__file__).parent / "matching.py").read_text(encoding="utf-8")
    found = re.findall(
        r"def \w*(?:corners|box_iou)\w*|\.(?:canvas|known)\b|\.rects\(|\bGeometryError\b", text)
    assert found == []


def test_each_aggregate_index_is_spelled_once():
    """The twelve AP/AR keys and their class-metrics CSV labels are written
    once, in ``metrics.AGGREGATES``; every other module reads them there."""
    from deteval.metrics import AGGREGATES

    text = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted(Path(deteval.__file__).parent.glob("*.py"))
        if path.name != "oracle.py"
    )
    names = [name for key, *_, label in AGGREGATES for name in (key, label)]
    assert len(set(names)) == 24
    counts = {name: len(re.findall(rf"[\"']{re.escape(name)}[\"']", text)) for name in names}
    assert counts == dict.fromkeys(names, 1)


def test_public_surface():
    """The names the package exports, spelled out; the scalar references the
    tests compare against live in ``deteval.oracle``, outside this list."""
    assert deteval.__all__ == [
        "Annotation", "BBox", "ConfusionMatrix", "Detection", "DetectionSet",
        "GroundTruthSet", "ImageRecord", "InstanceMask", "LabelMap", "MatchPair",
        "MatchingResult", "MetricsReport", "PerClassMetrics", "Polygon", "RLEMask",
        "SizeClass", "SplitRatios", "Thresholds", "accumulate", "average_precision",
        "average_recall", "full_report", "iou_table", "load_detections", "load_ground_truth",
        "match_conventional", "match_dataset", "match_modified", "mean_ap",
        "precision_recall", "rescale", "rle_decode", "rle_encode", "stratified_split",
    ]
    assert all(hasattr(deteval, name) for name in deteval.__all__)
