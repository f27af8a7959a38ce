"""Detection evaluation toolkit.

Confusion matrices for localized detections (IoU-prioritized and
class-prioritized construction), COCO-style AP/AR aggregates, per-class
precision/recall, and the dataset plumbing around them: loading, validation,
stratified splitting, and coordinate rescaling, over bounding boxes and
instance masks.
"""

from .annotations import (
    Annotation,
    Detection,
    DetectionSet,
    GroundTruthSet,
    ImageRecord,
    LabelMap,
    SplitRatios,
    load_detections,
    load_ground_truth,
    rescale,
    stratified_split,
)
from .geometry import (
    BBox,
    InstanceMask,
    Polygon,
    RLEMask,
    SizeClass,
    rle_decode,
    rle_encode,
)
from .matching import (
    ConfusionMatrix,
    MatchingResult,
    MatchPair,
    Thresholds,
    accumulate,
    iou_table,
    match_conventional,
    match_dataset,
    match_modified,
)
from .metrics import (
    MetricsReport,
    PerClassMetrics,
    average_precision,
    average_recall,
    full_report,
    mean_ap,
    precision_recall,
)

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "BBox",
    "ConfusionMatrix",
    "Detection",
    "DetectionSet",
    "GroundTruthSet",
    "ImageRecord",
    "InstanceMask",
    "LabelMap",
    "MatchPair",
    "MatchingResult",
    "MetricsReport",
    "PerClassMetrics",
    "Polygon",
    "RLEMask",
    "SizeClass",
    "SplitRatios",
    "Thresholds",
    "accumulate",
    "average_precision",
    "average_recall",
    "full_report",
    "iou_table",
    "load_detections",
    "load_ground_truth",
    "match_conventional",
    "match_dataset",
    "match_modified",
    "mean_ap",
    "precision_recall",
    "rescale",
    "rle_decode",
    "rle_encode",
    "stratified_split",
]
