"""One deteval call in a fresh interpreter, timed from inside.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and a JSON job as its
only argument; prints one JSON line. Jobs:

* ``call``: run ``deteval.cli.main(argv)`` once. The clock covers only that
  call (reading the inputs to writing the last output), not interpreter
  start or imports. Reports the exit code, the seconds, the process's peak
  resident memory and a hash of every output file. With ``trace`` set, spans
  are recorded around the calls into each module's public functions (see
  ``Tracer``) and the per-layer times of the call are reported too.
* ``pairs``: load the inputs through the library and report the matched
  (ann_id, det_id) pairs of both matchers, for the output checks.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import sys
import time

# (module, attribute, span) for every call the traced pass wraps. A span of
# None names the matcher by the call's algorithm argument.
TARGETS = (
    ("deteval.cli", "load_ground_truth", "annotations.load_gt"),
    ("deteval.cli", "load_detections", "annotations.load_det"),
    ("deteval.cli", "full_report", "metrics.full_report"),
    ("deteval.cli", "match_dataset", None),
    ("deteval.metrics", "match_dataset", None),
    ("deteval.matching", "iou_table", "matching.pair_table"),
    ("deteval.cli", "report_json", "reports.emit"),
    ("deteval.cli", "per_class_csv", "reports.emit"),
    ("deteval.cli", "confusion_csv", "reports.emit"),
    ("deteval.cli", "matrix_svg", "reports.emit"),
    ("deteval.cli", "delta_table_csv", "reports.emit"),
    ("deteval.cli", "DeltaStats.from_matrices", "reports.emit"),
)

# per-layer metric -> (span, "total" or "self" time)
LAYERS = {
    "annotations.load_gt_s": ("annotations.load_gt", "total"),
    "annotations.load_det_s": ("annotations.load_det", "total"),
    "geometry.mask_prepare_s": ("geometry.mask_prepare", "total"),
    "matching.pair_table_s": ("matching.pair_table", "total"),
    "matching.conventional_s": ("matching.conventional", "total"),
    "matching.modified_s": ("matching.modified", "total"),
    "metrics.ap_suite_s": ("metrics.full_report", "self"),
    "reports.emit_s": ("reports.emit", "total"),
    "cli.self_s": ("cli", "self"),
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self, mode):
        self.mode = mode
        self.spans = []
        self.stack = []
        self.missing = []
        self.mask_pixels = 0
        self.gt = None

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def install(self):
        for module, attr, name in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(original, name, leaf)
            setattr(owner, leaf, staticmethod(wrapper) if path else wrapper)

    def _wrap(self, fn, name, leaf):
        def wrapper(*args, **kwargs):
            span = name
            if span is None:
                algorithm = args[3] if len(args) > 3 else kwargs.get("algorithm")
                span = f"matching.{algorithm}"
            result = self.span(span, fn, *args, **kwargs)
            if leaf == "load_ground_truth":
                self.gt = result
            elif leaf == "load_detections" and self.mode == "masks":
                self.span("geometry.mask_prepare", self._prepare, result)
            return result

        return wrapper

    def _prepare(self, det):
        """Rasterize or decode every loaded mask once, as matching would."""
        items = list(getattr(self.gt, "annotations", ())) + list(getattr(det, "detections", ()))
        for item in items:
            mask = getattr(item, "mask", None)
            if mask is None:
                continue
            if hasattr(mask, "window"):
                window = mask.window()
                bits = window[0] if isinstance(window, tuple) else window
                self.mask_pixels += int(getattr(bits, "size", 0))
            else:
                mask.area  # without window(), computing the area rasterizes

    def layers(self):
        """Seconds per layer metric; a layer none of whose spans ran is
        left out, and reported absent by the caller."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for metric, (span, kind) in LAYERS.items():
            times = [
                (end - start) - (child[i] if kind == "self" else 0.0)
                for i, (name, start, end, _) in enumerate(self.spans)
                if name == span
            ]
            if times:
                out[metric] = sum(times)
        if any(name == "geometry.mask_prepare" for name, *_ in self.spans):
            out["geometry.mask_pixels"] = self.mask_pixels
        return out


def _hashes(out_dir):
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def run_call(job):
    cli = importlib.import_module("deteval.cli")
    tracer = None
    if job["trace"]:
        tracer = Tracer(job["mode"])
        tracer.install()
    gc.collect()
    start = time.perf_counter()
    if tracer:
        code = tracer.span("cli", cli.main, job["argv"])
    else:
        code = cli.main(job["argv"])
    seconds = time.perf_counter() - start
    out = {
        "code": code,
        "seconds": seconds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "hashes": _hashes(job["out"]) if code == 0 else {},
    }
    if tracer:
        out["layers"] = tracer.layers()
        out["missing"] = tracer.missing
    return out


def run_pairs(job):
    import deteval

    gt = deteval.load_ground_truth(job["gt"])
    det = deteval.load_detections(job["det"], gt.label_map)
    t = deteval.Thresholds(job["iou"], job["conf"], job["mode"])
    out = {}
    for algorithm in ("conventional", "modified"):
        results, _ = deteval.match_dataset(gt, det, t, algorithm)
        out[algorithm] = [
            [p.gt.ann_id, p.det.det_id] for r in results for p in r.matched
        ]
    return out


def main():
    job = json.loads(sys.argv[1])
    result = run_call(job) if job["job"] == "call" else run_pairs(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
