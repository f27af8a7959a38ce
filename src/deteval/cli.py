"""Command-line interface.

Commands: evaluate, compare, split, rescale, convert, render. Exit codes:
0 on success, 2 for input or configuration problems (the offending record is
named), 1 for internal errors. All outputs are deterministic given the same
inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import annotations as ann_mod
from .annotations import (
    GroundTruthSet,
    LabelMap,
    SplitRatios,
    load_detections,
    load_ground_truth,
    stratified_split,
    validate,
    write_text_atomic,
)
from .errors import EvalError, GeometryError, ParseError
from .geometry import BBox, InstanceMask, Polygon
from .matching import ALGORITHMS, GEOMETRY_MODES, Thresholds, match_dataset
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


def _formats(args) -> set[str]:
    chosen = {f.strip() for f in args.format.split(",") if f.strip()}
    bad = chosen - set(FORMATS)
    if bad:
        raise ParseError(f"unknown output format(s): {sorted(bad)}")
    return chosen


def _thresholds(args) -> Thresholds:
    return Thresholds(
        iou_threshold=args.iou,
        confidence_threshold=args.conf,
        geometry_mode=args.mode,
    )


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_evaluate(args) -> int:
    thresholds = _thresholds(args)
    formats = _formats(args)
    gt = load_ground_truth(args.gt)
    det = load_detections(args.det, gt.label_map, gt.images)
    report, cm = full_report(gt, det, thresholds, args.algorithm)

    out = _outdir(args)
    if "json" in formats:
        write_text_atomic(out / "report.json", report_json(report, thresholds))
    if "csv" in formats:
        write_text_atomic(
            out / "class_metrics.csv", per_class_csv(report, gt.label_map)
        )
        write_text_atomic(out / "confusion_matrix.csv", confusion_csv(cm))
    if "svg" in formats:
        names = [name for _, name in gt.label_map.entries]
        write_text_atomic(out / "confusion_matrix.svg", matrix_svg(names, cm.counts))
    return 0


def cmd_compare(args) -> int:
    thresholds = _thresholds(args)
    formats = _formats(args)
    gt = load_ground_truth(args.gt)
    det = load_detections(args.det, gt.label_map, gt.images)
    _, conv = match_dataset(gt, det, thresholds, "conventional")
    _, mod = match_dataset(gt, det, thresholds, "modified")
    stats = DeltaStats.from_matrices(conv, mod, gt.label_map, 1)

    out = _outdir(args)
    write_text_atomic(out / "confusion_conventional.csv", confusion_csv(conv))
    write_text_atomic(out / "confusion_modified.csv", confusion_csv(mod))
    write_text_atomic(out / "class_deltas.csv", delta_table_csv(stats))
    if "svg" in formats:
        names = [name for _, name in gt.label_map.entries]
        write_text_atomic(
            out / "confusion_conventional.svg", matrix_svg(names, conv.counts)
        )
        write_text_atomic(
            out / "confusion_modified.svg", matrix_svg(names, mod.counts)
        )
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

    out = _outdir(args)
    manifest = {
        "seed": args.seed,
        "ratios": {"train": ratios.train, "val": ratios.val, "test": ratios.test},
        "splits": {},
    }
    for name, part in (("train", train), ("val", val), ("test", test)):
        part.save(out / f"{name}.json")
        manifest["splits"][name] = {
            "images": len(part.images),
            "annotations": len(part.annotations),
            "per_class": {
                part.label_map.name_of(cid): n
                for cid, n in sorted(part.per_class_counts().items())
            },
        }
    write_text_atomic(
        out / "manifest.json", json.dumps(manifest, indent=2, ensure_ascii=False) + "\n"
    )
    return 0


def cmd_rescale(args) -> int:
    gt = load_ground_truth(args.gt)
    rescaled = ann_mod.rescale(gt, args.width, args.height, force=args.force)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    rescaled.save(args.out)
    return 0


def cmd_convert(args) -> int:
    raw = ann_mod._read_json(args.vott)
    if not isinstance(raw, dict) or "asset" not in raw or "regions" not in raw:
        raise ParseError(f"{args.vott}: expected a VoTT export with asset and regions")
    size = ann_mod._req(raw["asset"], "size", f"{args.vott}: asset")
    width = ann_mod._req(size, "width", f"{args.vott}: asset.size", int)
    height = ann_mod._req(size, "height", f"{args.vott}: asset.size", int)
    file_name = raw["asset"].get("name") or Path(args.vott).stem + ".png"

    labels = LabelMap.from_file(args.labels) if args.labels else None
    if labels is None:
        seen = []
        for region in raw["regions"]:
            for tag in region.get("tags", []):
                if tag not in seen:
                    seen.append(tag)
        if not seen:
            raise ParseError(f"{args.vott}: no tags found in regions")
        labels = LabelMap((i + 1, tag) for i, tag in enumerate(seen))

    image = ann_mod.ImageRecord(1, str(file_name), width, height)
    anns = []
    for idx, region in enumerate(raw["regions"]):
        where = f"region {idx}"
        tags = region.get("tags") or []
        if not tags:
            raise ParseError(f"{args.vott}: {where} has no tags")
        try:
            class_id = labels.id_of(tags[0])
        except KeyError:
            raise ParseError(
                f"{args.vott}: {where} tag {tags[0]!r} not in label map"
            ) from None
        points = region.get("points") or []
        try:
            poly = Polygon.from_points((p["x"], p["y"]) for p in points)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{args.vott}: {where} has malformed points") from exc
        except GeometryError as exc:
            raise GeometryError(f"{args.vott}: {where}: {exc}") from exc
        if len(poly.vertices) < 3:
            raise ParseError(f"{args.vott}: {where} needs at least 3 points")
        x0, y0, x1, y1 = poly.bounds()
        x0, y0 = max(x0, 0.0), max(y0, 0.0)
        x1, y1 = min(x1, float(width)), min(y1, float(height))
        if x1 <= x0 or y1 <= y0:
            raise ParseError(f"{args.vott}: {where} lies outside the image")
        mask = InstanceMask(polygons=[poly], canvas=(width, height))
        anns.append(
            ann_mod.Annotation(
                ann_id=idx + 1,
                image_id=1,
                class_id=class_id,
                bbox=BBox(x0, y0, x1 - x0, y1 - y0),
                mask=mask,
                area=float(mask.area),
            )
        )

    gt = GroundTruthSet([image], labels, anns)
    problems = validate(gt)
    if problems:
        raise ParseError(f"{args.vott}: {problems[0]}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    gt.save(args.out)
    return 0


def cmd_render(args) -> int:
    try:
        text = Path(args.matrix).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {args.matrix}: {exc}") from exc
    names, counts = parse_confusion_csv(text)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(args.out, matrix_svg(names, counts))
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
