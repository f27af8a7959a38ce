"""Command-line interface.

Commands: evaluate, compare, split, rescale, convert, render. Exit codes:
0 on success, 2 for input or configuration problems (the offending record is
named), 1 for internal errors. All outputs are deterministic given the same
inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .annotations import (
    LabelMap,
    SplitRatios,
    json_text,
    load_detections,
    load_ground_truth,
    load_vott,
    read_text,
    rescale,
    stratified_split,
    write_text_atomic,
)
from .errors import EvalError, ParseError
from .matching import ALGORITHMS, GEOMETRY_MODES, Thresholds, image_ious, match_images
from .metrics import full_report
from .reports import (
    DeltaStats,
    confusion_csv,
    delta_table_csv,
    matrix_svg,
    parse_confusion_csv,
    per_class_csv,
    report_json,
)

FORMATS = ("json", "csv", "svg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deteval",
        description="Evaluate object detections: confusion matrices, "
        "per-class P/R, and COCO-style AP/AR, over boxes or masks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def eval_flags(p):
        p.add_argument("--gt", required=True, help="ground-truth JSON file")
        p.add_argument("--det", required=True, help="detections JSON file")
        p.add_argument("--iou", type=float, default=0.5, help="IoU threshold")
        p.add_argument(
            "--conf", type=float, default=0.5, help="confidence score threshold"
        )
        p.add_argument(
            "--mode", choices=GEOMETRY_MODES, default="boxes",
            help="geometry used for IoU",
        )
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--format", default="json,csv",
            help="comma-separated outputs: json,csv,svg",
        )

    p = sub.add_parser("evaluate", help="metrics report plus confusion matrix")
    eval_flags(p)
    p.add_argument(
        "--algorithm", choices=ALGORITHMS,
        default="conventional", help="confusion-matrix construction algorithm",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "compare", help="conventional vs modified matrices side by side"
    )
    eval_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("split", help="stratified train/val/test split")
    p.add_argument("--gt", required=True)
    p.add_argument(
        "--ratios", default="0.7,0.15,0.15", help="train,val,test fractions"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("rescale", help="scale all coordinates to a new size")
    p.add_argument("--gt", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument(
        "--force", action="store_true",
        help="resample RLE-only masks (nearest neighbor) instead of failing",
    )
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("convert", help="VoTT-subset export to ground-truth JSON")
    p.add_argument("--vott", required=True, help="VoTT export file")
    p.add_argument("--labels", help="label-map JSON (default: tags as found)")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("render", help="confusion matrix CSV to SVG heatmap")
    p.add_argument("--matrix", required=True, help="confusion matrix CSV")
    p.add_argument("--out", required=True, help="output SVG file")
    p.set_defaults(func=cmd_render)

    return parser


def _inputs(args, outputs: set[str]):
    """The thresholds, chosen formats, ground truth and detections of
    ``evaluate`` or ``compare``, whose formats with an output are ``outputs``."""
    thresholds = Thresholds(args.iou, args.conf, args.mode)
    formats = {f.strip() for f in args.format.split(",") if f.strip()}
    if formats - set(FORMATS):
        raise ParseError(f"unknown output format(s): {sorted(formats - set(FORMATS))}")
    if not formats:
        raise ParseError(f"--format chooses no output: {args.format!r}")
    if not formats & outputs:
        raise ParseError(f"--format chooses no output of {args.command} "
                         f"({', '.join(sorted(outputs))}): {args.format!r}")
    gt = load_ground_truth(args.gt)
    return thresholds, formats, gt, load_detections(args.det, gt.label_map, gt.images)


def cmd_evaluate(args) -> int:
    thresholds, formats, gt, det = _inputs(args, set(FORMATS))
    report, cm = full_report(gt, det, thresholds, args.algorithm)

    out = Path(args.out)
    files = []
    if "json" in formats:
        files.append((out / "report.json", report_json(report, thresholds)))
    if "csv" in formats:
        files.append((out / "class_metrics.csv", per_class_csv(report, gt.label_map)))
        files.append((out / "confusion_matrix.csv", confusion_csv(cm)))
    if "svg" in formats:
        names = [name for _, name in gt.label_map.entries]
        files.append((out / "confusion_matrix.svg", matrix_svg(names, cm.counts)))
    write_text_atomic(files)
    return 0


def cmd_compare(args) -> int:
    thresholds, formats, gt, det = _inputs(args, {"csv", "svg"})
    table = image_ious(gt, det, thresholds.geometry_mode, thresholds.iou_threshold,
                       thresholds.confidence_threshold, False)
    _, conv = match_images(table, gt.label_map, thresholds, "conventional")
    _, mod = match_images(table, gt.label_map, thresholds, "modified")
    stats = DeltaStats.from_matrices(conv, mod, gt.label_map, 1)

    out = Path(args.out)
    files = []
    if "csv" in formats:
        files += [(out / "confusion_conventional.csv", confusion_csv(conv)),
                  (out / "confusion_modified.csv", confusion_csv(mod)),
                  (out / "class_deltas.csv", delta_table_csv(stats))]
    if "svg" in formats:
        names = [name for _, name in gt.label_map.entries]
        for kind, cm in (("conventional", conv), ("modified", mod)):
            files.append((out / f"confusion_{kind}.svg", matrix_svg(names, cm.counts)))
    write_text_atomic(files)
    return 0


def cmd_split(args) -> int:
    try:
        parts = [float(v) for v in args.ratios.split(",")]
    except ValueError as exc:
        raise ParseError(f"cannot parse --ratios {args.ratios!r}") from exc
    if len(parts) != 3:
        raise ParseError("--ratios needs exactly three comma-separated fractions")
    ratios = SplitRatios(*parts)
    gt = load_ground_truth(args.gt)
    train, val, test = stratified_split(gt, ratios, args.seed)

    out = Path(args.out)
    manifest = {
        "seed": args.seed,
        "ratios": {"train": ratios.train, "val": ratios.val, "test": ratios.test},
        "splits": {},
    }
    files = []
    for name, part in (("train", train), ("val", val), ("test", test)):
        files.append((out / f"{name}.json", json_text(part.to_json())))
        manifest["splits"][name] = {
            "images": len(part.images),
            "annotations": part.items.ids.size,
            "per_class": {
                part.label_map.name_of(cid): n
                for cid, n in sorted(part.per_class_counts().items())
            },
        }
    files.append((out / "manifest.json", json_text(manifest)))
    write_text_atomic(files)
    return 0


def cmd_rescale(args) -> int:
    gt = load_ground_truth(args.gt)
    rescale(gt, args.width, args.height, force=args.force).save(args.out)
    return 0


def cmd_convert(args) -> int:
    labels = LabelMap.from_file(args.labels) if args.labels else None
    load_vott(args.vott, labels).save(args.out)
    return 0


def cmd_render(args) -> int:
    names, counts = parse_confusion_csv(read_text(args.matrix))
    write_text_atomic([(args.out, matrix_svg(names, counts))])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
