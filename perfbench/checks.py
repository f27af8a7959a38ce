"""Output checks of one benchmark run.

Every check compares the files the timed calls wrote (and the matched pairs
the library reports) with the benchmark's own reference computation and with
properties any correct output has. None of them uses a stored copy of an
earlier output. ``check_run`` returns the problems found; an empty list means
the outputs are correct.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re

import numpy as np

LEFT = "left detection"
UNCLASSIFIED = "unclassified detection"
# class_metrics.csv index labels in file order
INDEX_LABELS = (
    ("Precision mAP", "map_50_95"),
    ("Precision mAP@.50IOU", "map_50"),
    ("Precision mAP@.75IOU", "map_75"),
    ("Precision mAP (large)", "map_large"),
    ("Precision mAP (medium)", "map_medium"),
    ("Precision mAP (small)", "map_small"),
    ("Recall AR@1", "ar_1"),
    ("Recall AR@10", "ar_10"),
    ("Recall AR@100", "ar_100"),
    ("Recall AR@100 (large)", "ar_100_large"),
    ("Recall AR@100 (medium)", "ar_100_medium"),
    ("Recall AR@100 (small)", "ar_100_small"),
)
STRATUM_OF = {
    "map_small": "small", "map_medium": "medium", "map_large": "large",
    "ar_100_small": "small", "ar_100_medium": "medium", "ar_100_large": "large",
}
# aggregates may differ from the reference by summation order only
TOLERANCE = 1e-9

EVALUATE_FILES = ("class_metrics.csv", "confusion_matrix.csv", "confusion_matrix.svg",
                  "report.json")
COMPARE_FILES = ("class_deltas.csv", "confusion_conventional.csv",
                 "confusion_conventional.svg", "confusion_modified.csv",
                 "confusion_modified.svg")


class CheckError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _ratio(value):
    return f"{value:.4f}"


def read_matrix(path, names):
    rows = list(csv.reader(io.StringIO(_text(path))))
    _require(rows and rows[0] == [""] + names + [LEFT], f"{path}: header is wrong")
    _require([r[0] for r in rows[1:]] == names + [UNCLASSIFIED], f"{path}: row labels are wrong")
    try:
        return np.array([[int(v) for v in r[1:]] for r in rows[1:]], dtype=np.int64)
    except ValueError as exc:
        raise CheckError(f"{path}: {exc}") from None


def _text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check_matrix(name, counts, ref, algorithm):
    """Equality with the reference and the matrix invariants."""
    n = len(ref.class_ids)
    _require(counts.shape == (n + 1, n + 1), f"{name}: shape {counts.shape}")
    _require(counts[n, n] == 0, f"{name}: corner cell is {counts[n, n]}")
    gts = np.array([ref.gt_per_class[c] for c in ref.class_ids])
    dets = np.array([ref.det_per_class[c] for c in ref.class_ids])
    for k in range(n):
        _require(counts[k].sum() == gts[k],
                 f"{name}: row sum of {ref.class_names[k]} differs from its ground truths")
        _require(counts[:, k].sum() == dets[k],
                 f"{name}: column sum of {ref.class_names[k]} differs from its detections "
                 "at the confidence threshold")
    matched = int(counts[:n, :n].sum())
    _require(int(counts.sum()) == gts.sum() + dets.sum() - matched,
             f"{name}: total is not G + D - matched")
    for cell in np.argwhere(counts != ref.matrices[algorithm]):
        raise CheckError(f"{name}: cell {tuple(cell)} differs from the reference {algorithm} matrix")


def check_pairs(pairs, ref, counts, iou_thr, conf):
    """One-to-one, over the threshold, maximal (modified), equal to the
    reference pairs, and summing to the matrix."""
    iou = ref.iou_of()
    cls_of_gt, cls_of_det, scores = {}, {}, {}
    for im in ref.images:
        cls_of_gt.update(zip(im.ann_ids.tolist(), im.gt_cls.tolist()))
        cls_of_det.update(zip(im.det_ids.tolist(), im.det_cls.tolist()))
        scores.update(zip(im.det_ids.tolist(), im.scores.tolist()))
    for algorithm, got in pairs.items():
        got = [tuple(p) for p in got]
        _require(len({a for a, _ in got}) == len(got), f"{algorithm}: a ground truth is matched twice")
        _require(len({d for _, d in got}) == len(got), f"{algorithm}: a detection is matched twice")
        for a, d in got:
            _require((a, d) in iou and iou[a, d] >= iou_thr,
                     f"{algorithm}: pair ({a}, {d}) is below the IoU threshold")
            _require(scores[d] >= conf, f"{algorithm}: detection {d} is below the confidence threshold")
        if algorithm == "modified":
            used_gt = {a for a, _ in got}
            used_det = {d for _, d in got}
            for (a, d), v in iou.items():
                _require(
                    v < iou_thr or a in used_gt or d in used_det or scores[d] < conf,
                    f"modified: unmatched ground truth {a} and detection {d} could pair",
                )
        _require(set(got) == ref.pairs[algorithm],
                 f"{algorithm}: matched pairs differ from the reference")
        index = {c: k for k, c in enumerate(ref.class_ids)}
        inner = np.zeros((len(index), len(index)), dtype=np.int64)
        for a, d in got:
            inner[index[cls_of_gt[a]], index[cls_of_det[d]]] += 1
        _require(np.array_equal(inner, counts[algorithm][:-1, :-1]),
                 f"{algorithm}: matched pairs do not sum to the matrix")


def check_report(report, counts, ref, mode):
    _require(report["geometry_mode"] == mode, "report.json: wrong geometry mode")
    _require(report["algorithm"] == "conventional", "report.json: wrong algorithm")
    per_class = report["per_class"]
    _require([m["class_id"] for m in per_class] == ref.class_ids, "report.json: class order")
    for k, m in enumerate(per_class):
        diag, row, col = counts[k, k], counts[k].sum(), counts[:, k].sum()
        _require((m["support_gt"], m["support_det"]) == (row, col),
                 f"report.json: supports of class {m['class_id']} disagree with the matrix")
        _require(m["precision_at_05"] == (diag / col if col else 0.0)
                 and m["recall_at_05"] == (diag / row if row else 0.0),
                 f"report.json: P/R of class {m['class_id']} disagree with the matrix")
    agg = report["aggregates"]
    _require(set(agg) == set(ref.aggregates), "report.json: aggregate keys")
    for key, value in ref.aggregates.items():
        _require(abs(agg[key] - value) <= TOLERANCE,
                 f"report.json: {key} is {agg[key]}, reference {value}")
    _require(agg["ar_1"] <= agg["ar_10"] <= agg["ar_100"], "report.json: AR@1/10/100 not ordered")
    any_gt = sum(ref.gt_per_stratum.values()) > 0
    for key, value in agg.items():
        present = ref.gt_per_stratum[STRATUM_OF[key]] > 0 if key in STRATUM_OF else any_gt
        _require((value == -1.0) == (not present),
                 f"report.json: {key} is {value} with {'some' if present else 'no'} ground truth")


def check_class_metrics(text, report, names):
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == ["tag", "precision_@0.5IOU", "recall_@0.5IOU", "Index", "value"],
             "class_metrics.csv: header")
    body = rows[1:]
    _require(len(body) == max(len(names), len(INDEX_LABELS)), "class_metrics.csv: row count")
    for k, m in enumerate(report["per_class"]):
        _require(body[k][:3] == [names[k], _ratio(m["precision_at_05"]), _ratio(m["recall_at_05"])],
                 f"class_metrics.csv: row {names[k]} disagrees with report.json")
    for k, (label, key) in enumerate(INDEX_LABELS):
        _require(body[k][3:] == [label, _ratio(report["aggregates"][key])],
                 f"class_metrics.csv: {label} disagrees with report.json")


def check_deltas(text, conv, mod, names):
    lines = text.splitlines()
    _require(len(lines) == len(names) + 1, "class_deltas.csv: row count")
    for k, name in enumerate(names):
        cells = []
        for m in (conv, mod):
            diag, row, col = m[k, k], m[k].sum(), m[:, k].sum()
            cells += [name, _ratio(diag / col if col else 0.0), _ratio(diag / row if row else 0.0)]
        tp = mod[k, k] - conv[k, k]
        fp = (mod[:, k].sum() - mod[k, k]) - (conv[:, k].sum() - conv[k, k])
        fn = mod[k, -1] - conv[k, -1]
        cells += [str(tp), str(fp), str(fn)]
        _require(lines[k + 1] == ",".join(cells),
                 f"class_deltas.csv: row {name} disagrees with the matrices")


def check_svg(text, counts, path):
    cells = [int(v) for v in re.findall(r'text-anchor="middle" fill="\w+">(-?\d+)</text>', text)]
    _require(cells == counts.ravel().tolist(), f"{path}: cell counts disagree with the matrix")


def check_run(ref, out, calls, pairs, mode, iou_thr, conf):
    """All checks of one run; returns a list of problems."""
    problems = []

    def attempt(fn, *args):
        try:
            fn(*args)
        except CheckError as exc:
            problems.append(str(exc))
        except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
            problems.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")

    def identical():
        for cmd, results in calls.items():
            done = [r["hashes"] for r in results if r["code"] == 0]
            _require(done, f"{cmd}: no call succeeded")
            expected = EVALUATE_FILES if cmd == "evaluate" else COMPARE_FILES
            _require(sorted(done[0]) == sorted(expected), f"{cmd}: wrote {sorted(done[0])}")
            _require(all(h == done[0] for h in done), f"{cmd}: repeated calls differ")

    attempt(identical)
    if problems:
        return problems
    names = ref.class_names
    ev, cmp_ = out["evaluate"], out["compare"]
    counts = {}

    def matrices():
        conv = read_matrix(os.path.join(ev, "confusion_matrix.csv"), names)
        check_matrix("confusion_matrix.csv", conv, ref, "conventional")
        for algorithm in ("conventional", "modified"):
            path = os.path.join(cmp_, f"confusion_{algorithm}.csv")
            counts[algorithm] = read_matrix(path, names)
            check_matrix(f"confusion_{algorithm}.csv", counts[algorithm], ref, algorithm)
            check_svg(_text(os.path.join(cmp_, f"confusion_{algorithm}.svg")),
                      counts[algorithm], f"confusion_{algorithm}.svg")
        check_svg(_text(os.path.join(ev, "confusion_matrix.svg")), conv, "confusion_matrix.svg")
        report = json.loads(_text(os.path.join(ev, "report.json")))
        check_report(report, conv, ref, mode)
        check_class_metrics(_text(os.path.join(ev, "class_metrics.csv")), report, names)
        check_deltas(_text(os.path.join(cmp_, "class_deltas.csv")),
                     counts["conventional"], counts["modified"], names)

    attempt(matrices)
    if not problems:
        attempt(check_pairs, pairs, ref, counts, iou_thr, conf)
    return problems
