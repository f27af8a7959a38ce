"""deteval benchmark: one seeded workload, end to end or traced per layer.

    python3 perfbench/run.py --workload road-boxes --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed, computes the reference
outputs, then runs whole rounds of one ``deteval evaluate`` call (default
algorithm, ``--format json,csv,svg``) and one ``deteval compare`` call, each
in a fresh interpreter, until ``--seconds`` have passed. Every run checks the
outputs of its calls (see checks.py) outside the timed region, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: the call times (median over
blocks of three consecutive calls of the block means), the peak memory of
the evaluate processes, and the start-up time of the CLI, measured the same
way over one start before every call.
``--trace 1`` wraps the calls into deteval's modules with spans (see
worker.py) and reports the per-layer metrics, the median over rounds of the
time each layer takes in one evaluate plus one compare call.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
import scenes  # noqa: E402
import worker  # noqa: E402

IOU, CONF = 0.5, 0.5
MIN_ROUNDS = 2  # repeated calls are compared byte for byte
BLOCK = 3  # calls per block in median_of_means
CALL_TIMEOUT = 150

PER_LAYER = [(name, "s") for name in worker.LAYERS] + [("geometry.mask_pixels", "px")]


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_start(env):
    """Wall time of one ``python -m deteval --help`` in a fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "deteval", "--help"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=CALL_TIMEOUT,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or "usage: deteval" not in done.stdout:
        raise RuntimeError(f"deteval --help failed: {done.stderr.strip()}")
    return elapsed


def run_worker(job, env):
    """Run one worker job; returns its JSON result, or None if it died."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {CALL_TIMEOUT} s", file=sys.stderr)
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def call(cmd, paths, out_dir, mode, trace, env):
    """One ``deteval evaluate`` or ``compare`` call into an emptied
    ``out_dir``; returns the worker's result, or None if it died."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [cmd, "--gt", paths[0], "--det", paths[1], "--out", out_dir, "--mode", mode,
            "--iou", str(IOU), "--conf", str(CONF), "--format", "json,csv,svg"]
    return run_worker({"job": "call", "argv": argv, "out": out_dir, "trace": trace, "mode": mode},
                  env)


def library_pairs(paths, mode, env):
    return run_worker({"job": "pairs", "gt": paths[0], "det": paths[1], "mode": mode,
                   "iou": IOU, "conf": CONF}, env)


def median_of_means(times):
    """Median over blocks of BLOCK consecutive calls of each block's mean.

    The host this was tuned on switches between a fast state and one about
    1.7 times slower, so single times fall in two modes. The median of
    single calls jumps between the modes as their mix shifts from run to
    run; a block mean follows the mix smoothly, and the median over blocks
    still discards a disturbed block.
    """
    blocks = [times[i : i + BLOCK] for i in range(0, len(times), BLOCK)]
    return statistics.median(statistics.fmean(b) for b in blocks)


def end_to_end_metrics(ok, setup):
    metrics = {}
    for cmd, results in ok.items():
        times = [r["seconds"] for r in results]
        metrics[f"{cmd}_s"] = {"value": median_of_means(times) if times else 0, "unit": "s"}
        print(f"{cmd}_s: median of means of {BLOCK} over {len(times)} calls; all: "
              + " ".join(f"{t:.4f}" for t in times))
    rss = [r["maxrss_kb"] / 1024 for r in ok["evaluate"]]
    metrics["peak_rss_mb"] = {"value": statistics.median(rss) if rss else 0, "unit": "MB"}
    metrics["setup_s"] = {"value": median_of_means(setup), "unit": "s"}
    print(f"setup_s: median of means of {BLOCK} over {len(setup)} starts")
    return metrics


def layer_metrics(ok):
    """Median over rounds of each layer's time in one evaluate plus one
    compare call. A layer none of whose spans ran reads 0 and is printed as
    absent."""
    rows, missing = [], set()
    for ev, cp in zip(ok["evaluate"], ok["compare"]):
        row = {}
        for r in (ev, cp):
            missing.update(r["missing"])
            for name, value in r["layers"].items():
                row[name] = row.get(name, 0) + value
        rows.append(row)
    metrics = {}
    for name, unit in PER_LAYER:
        values = [row.get(name, 0) for row in rows]
        metrics[name] = {"value": statistics.median(values) if values else 0, "unit": unit}
        absent = "" if any(name in row for row in rows) else "  (absent)"
        print(f"{name:26s} {metrics[name]['value']:>14.6g} {unit}{absent}")
    for name in sorted(missing):
        print(f"absent: {name} is not in this version of deteval")
    for cmd, results in ok.items():
        times = [r["seconds"] for r in results]
        if times:
            print(f"traced {cmd} call: median {statistics.median(times):.4f} s over {len(times)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "deteval", "cli.py")):
        print(f"error: no deteval sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    mode = scenes.WORKLOADS[args.workload]
    env = _env()
    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    gt_doc, dets, paths = scenes.write_inputs(args.workload, args.seed, work)
    ref = reference.evaluate(gt_doc, dets, mode, IOU, CONF)

    setup = []
    if not args.trace:
        cli_start(env)  # compiles the bytecode; users do not pay this on every run

    out = {cmd: os.path.join(work, cmd) for cmd in ("evaluate", "compare")}
    calls = {cmd: [] for cmd in out}
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for cmd in out:
            if not args.trace:
                setup.append(cli_start(env))
            result = call(cmd, paths, out[cmd], mode, bool(args.trace), env)
            attempted += 1
            if result is None or result["code"] != 0:
                failed += 1
                result = {"code": None if result is None else result["code"], "hashes": {}}
            calls[cmd].append(result)
        rounds += 1

    pairs = library_pairs(paths, mode, env)
    if pairs is None:
        problems = ["the library's matched pairs could not be read"]
    else:
        problems = checks.check_run(ref, out, calls, pairs, mode, IOU, CONF)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    ok = {cmd: [r for r in results if r["code"] == 0] for cmd, results in calls.items()}
    if args.trace:
        metrics = layer_metrics(ok)
    else:
        metrics = end_to_end_metrics(ok, setup)
        print(f"{rounds} rounds; reference: conventional tp "
              f"{int(ref.matrices['conventional'][:-1, :-1].trace())}, modified tp "
              f"{int(ref.matrices['modified'][:-1, :-1].trace())}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
