"""Serialization of evaluation outputs: CSV tables, JSON reports, SVG heatmaps.

All emitters are deterministic (no timestamps, fixed key order, fixed float
formatting), so repeated runs produce byte-identical files. Ratios print with
four decimal places.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .annotations import LabelMap
from .errors import ParseError
from .matching import ConfusionMatrix
from .metrics import AGGREGATES, STRATA, MetricsReport, precision_recall

LEFT_DETECTION = "left detection"
UNCLASSIFIED_DETECTION = "unclassified detection"
# the characters a label escapes in SVG text
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def format_ratio(value: float) -> str:
    return f"{value:.4f}"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _pr_cells(name: str, m) -> list[str]:
    return [name, format_ratio(m.precision_at_05), format_ratio(m.recall_at_05)]


def per_class_csv(report: MetricsReport, labels) -> str:
    """Two-panel per-class table: class P/R rows on the left, the twelve
    aggregate indices on the right, padded to equal length."""
    left = [_pr_cells(labels.name_of(m.class_id), m) for m in report.per_class]
    # per kind (ap, ar): the unfiltered rows in table order, then large to small
    order = sorted(AGGREGATES, key=lambda a: (a[1], a[3] is not None, -STRATA.index(a[3])))
    right = [[label, format_ratio(report.aggregates[key])] for key, *_, label in order]
    rows = [["tag", "precision_@0.5IOU", "recall_@0.5IOU", "Index", "value"]]
    for i in range(max(len(left), len(right))):
        l = left[i] if i < len(left) else ["", "", ""]
        r = right[i] if i < len(right) else ["", ""]
        rows.append(l + r)
    return _csv_text(rows)


@dataclass
class DeltaStats:
    """Aggregate differences (modified minus conventional) over scenarios."""

    labels: LabelMap
    conventional: ConfusionMatrix
    modified: ConfusionMatrix
    scenario_count: int
    per_class: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    diagonal_delta: int = 0

    @classmethod
    def from_matrices(cls, conv, mod, labels, scenario_count):
        stats = cls(labels, conv, mod, scenario_count)
        for cid in labels.ids():
            tp = mod.diagonal(cid) - conv.diagonal(cid)
            fp = (mod.col_sum(cid) - mod.diagonal(cid)) - (
                conv.col_sum(cid) - conv.diagonal(cid)
            )
            fn = mod.left_detections(cid) - conv.left_detections(cid)
            stats.per_class[cid] = (tp, fp, fn)
        stats.diagonal_delta = sum(v[0] for v in stats.per_class.values())
        return stats


def delta_table_csv(stats: DeltaStats) -> str:
    """Per-class comparison table: conventional and modified P/R side by
    side (column naming follows the usual per-class report headers) plus the
    raw count deltas."""
    conv_pr = {m.class_id: m for m in precision_recall(stats.conventional)}
    mod_pr = {m.class_id: m for m in precision_recall(stats.modified)}
    pr_header = ["category", "precision_@0.5IoU", "recall_@0.5IoU"]
    rows = [pr_header * 2 + ["tp_delta", "fp_delta", "fn_delta"]]
    for cid, name in stats.labels.entries:
        conv, mod = _pr_cells(name, conv_pr[cid]), _pr_cells(name, mod_pr[cid])
        rows.append(conv + mod + list(stats.per_class[cid]))
    return _csv_text(rows)


def confusion_csv(cm: ConfusionMatrix) -> str:
    names = [name for _, name in cm.labels.entries]
    rows = [[""] + names + [LEFT_DETECTION]]
    for k, name in enumerate(names):
        rows.append([name] + [int(v) for v in cm.counts[k]])
    rows.append([UNCLASSIFIED_DETECTION] + [int(v) for v in cm.counts[-1]])
    return _csv_text(rows)


def parse_confusion_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Read back a confusion matrix CSV; returns (class names, counts)."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ParseError("confusion matrix csv has no data rows")
    header = rows[0]
    if header[-1:] != [LEFT_DETECTION] or header[0] != "":
        raise ParseError("confusion matrix csv header is malformed")
    names = header[1:-1]
    n = len(names) + 1
    if len(rows) != n + 1:
        raise ParseError(
            f"confusion matrix csv has {len(rows) - 1} data rows, expected {n}"
        )
    counts = np.zeros((n, n), dtype=np.int64)
    for k, row in enumerate(rows[1:]):
        expected_label = names[k] if k < len(names) else UNCLASSIFIED_DETECTION
        if row[:1] != [expected_label] or len(row) != n + 1:
            raise ParseError(f"confusion matrix csv row {k + 1} is malformed")
        if not all(v.isascii() and v.isdigit() for v in row[1:]):  # as confusion_csv writes
            raise ParseError(f"confusion matrix csv row {k + 1}: counts {row[1:]} are not "
                             "all ASCII digits")
        try:
            counts[k] = [int(v) for v in row[1:]]
        except (ValueError, OverflowError) as exc:  # beyond int64, or int()'s digit limit
            raise ParseError(f"confusion matrix csv row {k + 1}: {exc}") from exc
    return names, counts


def report_json(report: MetricsReport, thresholds) -> str:
    doc = {
        "geometry_mode": report.geometry_mode,
        "algorithm": report.algorithm,
        "thresholds": {
            "iou": thresholds.iou_threshold,
            "confidence": thresholds.confidence_threshold,
        },
        "mask_fallback_items": report.mask_fallback_items,
        # the keys follow PerClassMetrics' field order, which fixes the bytes
        "per_class": [asdict(m) for m in report.per_class],
        "aggregates": report.aggregates,
    }
    return json.dumps(doc, indent=2) + "\n"


def matrix_svg(names: list[str], counts: np.ndarray) -> str:
    """Deterministic heatmap: one rect per cell, linear grayscale by count,
    the left-detection column and unclassified-detection row set apart by a
    gap. Counts are printed in the cells when the grid is at most 20x20."""
    n = counts.shape[0]
    cell, gap, left, top = 34, 8, 150, 150
    side = n * cell + gap  # of the square grid
    width, height = left + side + 10, top + side + 10
    peak = int(counts.max()) if counts.size else 0
    with_text = n <= 20

    row_labels = [t.translate(_ESCAPES) for t in names + [UNCLASSIFIED_DETECTION]]
    col_labels = [t.translate(_ESCAPES) for t in names + [LEFT_DETECTION]]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j, label in enumerate(col_labels):
        x = left + j * cell + cell // 2 + (gap if j == n - 1 else 0)
        parts.append(
            f'<text x="{x}" y="{top - 6}" text-anchor="start" '
            f'transform="rotate(-60 {x} {top - 6})">{label}</text>'
        )
    for i, label in enumerate(row_labels):
        y = top + i * cell + cell // 2 + 4 + (gap if i == n - 1 else 0)
        parts.append(f'<text x="{left - 6}" y="{y}" text-anchor="end">{label}</text>')
    for i in range(n):
        for j in range(n):
            v = int(counts[i, j])
            shade = 255 - round(255 * v / peak) if peak else 255
            x = left + j * cell + (gap if j == n - 1 else 0)
            y = top + i * cell + (gap if i == n - 1 else 0)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},{shade})" stroke="rgb(200,200,200)"/>'
            )
            if with_text:
                color = "white" if shade < 110 else "black"
                parts.append(
                    f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                    f'text-anchor="middle" fill="{color}">{v}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
