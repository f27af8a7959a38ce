"""Seeded input generator for the deteval benchmark.

Builds a COCO-format ground-truth document and a COCO-results detection list
for one workload from a seed. Nothing here imports deteval: the program under
test sees only the JSON files written from these documents.

Run as a script to regenerate the inputs of any run:

    python3 perfbench/scenes.py --workload road-masks --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np

WIDTH, HEIGHT = 960, 540

CLASS_NAMES = (
    "Crack1", "Crack2", "Joint", "Patching", "Filling", "Pothole",
    "Manhole", "Stain", "Shadow", "Marking", "Scratch", "Patching2",
)
# per-class ground-truth counts of the paper's test split (2,219 in total)
ROAD_TEST_COUNTS = (455, 101, 219, 77, 187, 14, 52, 12, 212, 297, 576, 17)
ROAD_IMAGES = 220
ROAD_DETECTIONS = 3000

# per class: sqrt(box area) range in px and width/height aspect range
ROAD_SHAPES = (
    ((12, 90), (0.15, 0.4)),
    ((12, 90), (2.5, 6.0)),
    ((20, 120), (4.0, 8.0)),
    ((40, 200), (0.6, 1.6)),
    ((15, 70), (0.3, 3.0)),
    ((15, 80), (0.7, 1.4)),
    ((30, 70), (0.9, 1.1)),
    ((20, 150), (0.5, 2.0)),
    ((40, 220), (0.4, 2.5)),
    ((20, 160), (0.2, 5.0)),
    ((8, 50), (0.2, 5.0)),
    ((40, 200), (0.6, 1.6)),
)

CROWDED_IMAGES = 160
CROWDED_SWARM = 110  # one-class fragment detections on every tenth image

WORKLOADS = {
    "road-boxes": "boxes",
    "road-masks": "masks",
    "crowded-boxes": "boxes",
}


class Scene:
    """Ground truths and detections of one image under construction."""

    def __init__(self, image_id):
        self.image_id = image_id
        self.gts = []  # (class_id, polygon (n, 2) array)
        self.dets = []  # (class_id, polygon (n, 2) array, score)
        self.clusters = []  # crowded scenes: (cx, cy, main class, other class)
        self.members = []  # crowded scenes: the cluster of each ground truth


def _polygon(rng, cx, cy, w, h):
    """A star-shaped ring of 8 to 16 vertices inscribed in a w x h box."""
    n = int(rng.integers(8, 17))
    theta = 2 * math.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    r = rng.uniform(0.75, 1.0, n)
    return np.stack(
        [cx + r * 0.5 * w * np.cos(theta), cy + r * 0.5 * h * np.sin(theta)], axis=1
    )


def _inside(rng, w, h, cx=None, cy=None):
    """Clamp a w x h box (centre drawn when not given) into the image."""
    w = min(w, WIDTH - 4.0)
    h = min(h, HEIGHT - 4.0)
    if cx is None:
        cx = rng.uniform(0, WIDTH)
        cy = rng.uniform(0, HEIGHT)
    cx = min(max(cx, w / 2 + 1), WIDTH - w / 2 - 1)
    cy = min(max(cy, h / 2 + 1), HEIGHT - h / 2 - 1)
    return cx, cy, w, h


def _shape(rng, sides, aspects):
    s = math.exp(rng.uniform(math.log(sides[0]), math.log(sides[1])))
    a = math.exp(rng.uniform(math.log(aspects[0]), math.log(aspects[1])))
    return s * math.sqrt(a), s / math.sqrt(a)


def _perturb(rng, poly, shift, scale):
    """A noisy copy of a polygon: moved by ``shift`` and rescaled by
    ``scale`` (both relative to its extent), kept inside the image."""
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    size = np.maximum(hi - lo, 1.0)
    centre = (lo + hi) / 2
    k = np.exp(rng.normal(0, scale, 2))
    new_size = np.minimum(size * k, [WIDTH - 4.0, HEIGHT - 4.0])
    k = new_size / size
    cx, cy, _, _ = _inside(
        rng, new_size[0], new_size[1], *(centre + rng.normal(0, shift, 2) * size)
    )
    return (poly - centre) * k + [cx, cy]


def _road_scenes(rng):
    labels = np.repeat(np.arange(1, 13), ROAD_TEST_COUNTS)
    rng.shuffle(labels)
    per_image = np.full(ROAD_IMAGES, len(labels) // ROAD_IMAGES)
    per_image[: len(labels) % ROAD_IMAGES] += 1
    scenes, start = [], 0
    for i, n in enumerate(per_image):
        scene = Scene(i + 1)
        for cid in labels[start : start + n]:
            w, h = _shape(rng, *ROAD_SHAPES[cid - 1])
            cx, cy, w, h = _inside(rng, w, h)
            scene.gts.append((int(cid), _polygon(rng, cx, cy, w, h)))
        start += n
        scenes.append(scene)

    gts = [(s, g) for s in scenes for g in s.gts]
    order = rng.permutation(len(gts))
    n_found = round(0.9 * len(gts))
    n_swapped = round(0.2 * n_found)
    n_dup = 250
    for k, idx in enumerate(order[:n_found]):
        scene, (cid, poly) = gts[idx]
        if k < n_swapped:
            cid = int(rng.choice([c for c in range(1, 13) if c != cid]))
        score = 0.2 + 0.8 * rng.beta(4, 2)
        scene.dets.append((cid, _perturb(rng, poly, 0.07, 0.1), score))
        if k >= n_found - n_dup:
            score = 0.1 + 0.6 * rng.random()
            scene.dets.append((cid, _perturb(rng, poly, 0.2, 0.25), score))
    for _ in range(ROAD_DETECTIONS - n_found - n_dup):
        scene = scenes[int(rng.integers(ROAD_IMAGES))]
        cid = int(rng.integers(1, 13))
        w, h = _shape(rng, *ROAD_SHAPES[cid - 1])
        cx, cy, w, h = _inside(rng, w, h)
        score = 0.05 + 0.75 * rng.beta(1.5, 3)
        scene.dets.append((cid, _polygon(rng, cx, cy, w, h), score))
    return scenes


def _crowded_scenes(rng):
    n_img = CROWDED_IMAGES
    counts = 20 + (np.arange(n_img) * 21) // n_img  # 20..40 objects per image
    rng.shuffle(counts)
    scenes = []
    for i, n in enumerate(counts):
        scene = Scene(i + 1)
        n_clusters = max(2, int(n) // 8)
        clusters = scene.clusters
        for _ in range(n_clusters):
            a, b = rng.choice(np.arange(1, 13), 2, replace=False)
            clusters.append(
                (rng.uniform(80, WIDTH - 80), rng.uniform(60, HEIGHT - 60), int(a), int(b))
            )
        for k in range(n):
            c = clusters[k % n_clusters]
            cid = c[2] if rng.random() < 0.6 else c[3]
            w, h = _shape(rng, (10, 150), (0.5, 2.0))
            spread = 0.6 * math.sqrt(w * h)
            cx, cy, w, h = _inside(
                rng, w, h, c[0] + rng.normal(0, spread), c[1] + rng.normal(0, spread)
            )
            scene.gts.append((cid, _polygon(rng, cx, cy, w, h)))
            scene.members.append(c)
        scenes.append(scene)

    gts = [(s, k) for s in scenes for k in range(len(s.gts))]
    order = rng.permutation(len(gts))
    n_found = round(0.92 * len(gts))
    n_swapped = round(0.25 * n_found)
    n_dup = round(0.2 * len(gts))
    for k, idx in enumerate(order[:n_found]):
        scene, j = gts[idx]
        cid, poly = scene.gts[j]
        if k < n_swapped:
            c = scene.members[j]
            other = c[3] if cid == c[2] else c[2]
            if rng.random() < 0.3:
                other = int(rng.choice([x for x in range(1, 13) if x != cid]))
            cid = other
        score = 0.2 + 0.8 * rng.beta(4, 2)
        scene.dets.append((cid, _perturb(rng, poly, 0.08, 0.12), score))
    for idx in order[:n_dup]:
        scene, j = gts[idx]
        cid, poly = scene.gts[j]
        c = scene.members[j]
        if rng.random() < 0.5:
            cid = c[3] if cid == c[2] else c[2]
        score = 0.1 + 0.7 * rng.random()
        scene.dets.append((cid, _perturb(rng, poly, 0.2, 0.25), score))
    for _ in range(round(0.3 * len(gts))):
        scene = scenes[int(rng.integers(n_img))]
        c = scene.clusters[int(rng.integers(len(scene.clusters)))]
        cid = int(rng.integers(1, 13))
        w, h = _shape(rng, (10, 150), (0.5, 2.0))
        cx, cy, w, h = _inside(
            rng, w, h, c[0] + rng.normal(0, 60), c[1] + rng.normal(0, 60)
        )
        score = 0.05 + 0.75 * rng.beta(1.5, 3)
        scene.dets.append((cid, _polygon(rng, cx, cy, w, h), score))
    for scene in scenes[::10]:
        cid = scene.clusters[0][2]
        for _ in range(CROWDED_SWARM):
            _, poly = scene.gts[int(rng.integers(len(scene.gts)))]
            score = 0.05 + 0.55 * rng.random()
            scene.dets.append((cid, _perturb(rng, poly, 0.3, 0.3), score))
    return scenes


# ---------------------------------------------------------------------------
# rasterization and encoding (pixel-centre even-odd rule)


def raster_window(poly, width=WIDTH, height=HEIGHT):
    """Rasterize one ring, clipped to the image, under the pixel-centre
    even-odd rule: pixel (row r, col c) is inside when an odd number of edge
    crossings of the scanline y = r + 0.5 lie strictly right of x = c + 0.5.

    Returns ``(bits, x0, y0)``: a bool grid and the image pixel of its top
    left corner.
    """
    x0 = max(int(math.floor(poly[:, 0].min())), 0)
    y0 = max(int(math.floor(poly[:, 1].min())), 0)
    x1 = min(int(math.ceil(poly[:, 0].max())), width)
    y1 = min(int(math.ceil(poly[:, 1].max())), height)
    w, h = max(x1 - x0, 0), max(y1 - y0, 0)
    ax, ay = poly[:, 0] - x0, poly[:, 1] - y0
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    keep = ay != by
    ax, ay, bx, by = ax[keep], ay[keep], bx[keep], by[keep]
    lo, hi = np.minimum(ay, by), np.maximum(ay, by)
    # scanline rows r with lo <= r + 0.5 < hi
    r_first = np.maximum(np.ceil(lo - 0.5), 0).astype(np.int64)
    r_stop = np.minimum(np.ceil(hi - 0.5), h).astype(np.int64)
    n = np.maximum(r_stop - r_first, 0)
    edge = np.repeat(np.arange(len(n)), n)
    rows = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n) + r_first[edge]
    t = (rows + 0.5 - ay[edge]) / (by - ay)[edge]
    xc = ax[edge] + t * (bx - ax)[edge]
    # pixel c lies left of the crossing iff c < ceil(xc - 0.5)
    stop = np.clip(np.ceil(xc - 0.5), 0, w).astype(np.int64)
    flips = np.bincount(rows * (w + 1), minlength=h * (w + 1)) - np.bincount(
        rows * (w + 1) + stop, minlength=h * (w + 1)
    )
    inside = np.cumsum(flips.reshape(h, w + 1), axis=1)[:, :w] % 2 == 1
    return inside, x0, y0


def rle_counts(bits, x0, y0, width=WIDTH, height=HEIGHT):
    """Uncompressed row-major run lengths of a window placed on the image,
    starting with the zero run."""
    padded = np.zeros((bits.shape[0], bits.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = bits
    r, c = np.nonzero(np.diff(padded, axis=1))
    edges = (r + y0) * width + c + x0  # alternating run starts and stops
    starts, stops = edges[0::2], edges[1::2]
    # rows that end and begin on the image edge join into one run
    joined = np.zeros(len(starts), dtype=bool)
    joined[1:] = starts[1:] == stops[:-1]
    last = np.ones(len(stops), dtype=bool)
    last[:-1] = ~joined[1:]
    starts, stops = starts[~joined], stops[last]
    bounds = np.empty(2 * len(starts) + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1:2] = starts
    bounds[2:-1:2] = stops
    bounds[-1] = width * height
    runs = np.diff(bounds).tolist()
    return runs[:-1] if len(runs) > 1 and runs[-1] == 0 else runs


def shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2)


def _bbox(poly):
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    return [float(lo[0]), float(lo[1]), float(hi[0] - lo[0]), float(hi[1] - lo[1])]


# ---------------------------------------------------------------------------


def generate(workload, seed):
    """Ground-truth document and detection list of a workload.

    The two road workloads share their scenes for a given seed and differ
    only in geometry: masks mode writes each detection's mask as an
    uncompressed run-length grid on the image canvas.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, 0 if workload.startswith("road") else 1])
    scenes = _road_scenes(rng) if workload.startswith("road") else _crowded_scenes(rng)
    masks = WORKLOADS[workload] == "masks"

    images, annotations, detections = [], [], []
    for scene in scenes:
        images.append(
            {"id": scene.image_id, "file_name": f"img{scene.image_id:04d}.png",
             "width": WIDTH, "height": HEIGHT}
        )
        for cid, poly in scene.gts:
            annotations.append(
                {"id": len(annotations) + 1, "image_id": scene.image_id,
                 "category_id": cid, "bbox": _bbox(poly),
                 "segmentation": [poly.ravel().tolist()], "area": shoelace(poly),
                 "iscrowd": 0}
            )
        # results files list each image's detections by falling score
        for cid, poly, score in sorted(scene.dets, key=lambda d: -d[2]):
            det = {"image_id": scene.image_id, "category_id": cid,
                   "bbox": _bbox(poly), "score": float(score)}
            if masks:
                det["segmentation"] = {
                    "size": [HEIGHT, WIDTH], "counts": rle_counts(*raster_window(poly))
                }
            detections.append(det)
    gt = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": i + 1, "name": n} for i, n in enumerate(CLASS_NAMES)],
    }
    return gt, detections


def write_inputs(workload, seed, out_dir):
    """Write ``gt.json`` and ``det.json``; returns the two documents and
    their paths."""
    gt, dets = generate(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = os.path.join(out_dir, "gt.json"), os.path.join(out_dir, "det.json")
    for path, doc in zip(paths, (gt, dets)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return gt, dets, paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for gt.json and det.json")
    args = parser.parse_args()
    gt, dets, paths = write_inputs(args.workload, args.seed, args.out)
    print(f"{len(gt['annotations'])} ground truths, {len(dets)} detections: "
          + ", ".join(paths))


if __name__ == "__main__":
    main()
