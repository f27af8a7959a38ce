"""Self-test of the benchmark's output checks: the outputs of real calls pass,
and each kind of corruption is caught.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402

WORKLOAD, SEED = "crowded-boxes", 5


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    gt, dets, paths = scenes.write_inputs(WORKLOAD, SEED, str(work))
    ref = reference.evaluate(gt, dets, "boxes", run.IOU, run.CONF)
    env = run._env()
    calls = {}
    for cmd in ("evaluate", "compare"):
        calls[cmd] = [run.call(cmd, paths, str(work / cmd), "boxes", False, env)
                      for _ in range(2)]
    pairs = run.library_pairs(paths, "boxes", env)
    return work, ref, calls, pairs


@pytest.fixture
def outputs(real_run, tmp_path):
    """A private copy of the outputs that a test may corrupt."""
    work, ref, calls, pairs = real_run
    out = {}
    for cmd in ("evaluate", "compare"):
        out[cmd] = str(tmp_path / cmd)
        shutil.copytree(work / cmd, out[cmd])
    calls = {cmd: [dict(r) for r in rs] for cmd, rs in calls.items()}
    pairs = {k: [list(p) for p in v] for k, v in pairs.items()}
    return ref, out, calls, pairs


def problems(ref, out, calls, pairs):
    return checks.check_run(ref, out, calls, pairs, "boxes", run.IOU, run.CONF)


def _edit(path, fn):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fn(text))


def _move_cell(path):
    """Move one count from a diagonal cell to its right neighbour: row sums
    stay, the matrix is wrong."""
    def fn(text):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[1], cells[2] = str(int(cells[1]) - 1), str(int(cells[2]) + 1)
        lines[1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    _edit(path, fn)


def _nudge_aggregate(path):
    def fn(text):
        doc = json.loads(text)
        doc["aggregates"]["map_50"] += 1e-6
        return json.dumps(doc, indent=2) + "\n"
    _edit(path, fn)


def test_real_outputs_pass(outputs):
    assert problems(*outputs) == []


@pytest.mark.parametrize("name", ["confusion_matrix.csv", "confusion_modified.csv"])
def test_moved_matrix_cell_is_caught(outputs, name):
    ref, out, *_ = outputs
    cmd = "evaluate" if name == "confusion_matrix.csv" else "compare"
    _move_cell(os.path.join(out[cmd], name))
    assert any(name in p for p in problems(*outputs))


def test_nudged_aggregate_is_caught(outputs):
    ref, out, *_ = outputs
    _nudge_aggregate(os.path.join(out["evaluate"], "report.json"))
    assert any("map_50" in p for p in problems(*outputs))


def test_disagreeing_class_metrics_is_caught(outputs):
    ref, out, *_ = outputs
    _edit(os.path.join(out["evaluate"], "class_metrics.csv"),
          lambda t: t.replace("Recall AR@10,", "Recall AR@10,1", 1))
    assert any("class_metrics.csv" in p for p in problems(*outputs))


def test_changed_delta_row_is_caught(outputs):
    ref, out, *_ = outputs
    _edit(os.path.join(out["compare"], "class_deltas.csv"),
          lambda t: t.replace("\n", "\n#", 1))
    assert any("class_deltas.csv" in p for p in problems(*outputs))


def test_differing_repeat_is_caught(outputs):
    ref, out, calls, pairs = outputs
    first = calls["compare"][1]["hashes"]
    calls["compare"][1]["hashes"] = dict(first, **{"class_deltas.csv": "0" * 64})
    assert any("repeated calls differ" in p for p in problems(*outputs))


def test_swapped_pairs_are_caught(outputs):
    ref, out, calls, pairs = outputs
    mod = pairs["modified"]
    mod[0][1], mod[1][1] = mod[1][1], mod[0][1]
    assert any(p.startswith("modified") for p in problems(*outputs))


def test_dropped_pair_breaks_maximality(outputs):
    ref, out, calls, pairs = outputs
    pairs["modified"].pop(0)
    assert any("could pair" in p for p in problems(*outputs))
