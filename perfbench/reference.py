"""The benchmark's own evaluation of a workload, written from deteval's
stated rules without its geometry, matching or metrics code.

* Box IoU follows ``geometry.box_iou``: corners are ``x + w``, the
  intersection is clamped to the smaller area, and ground-truth boxes are
  first clipped to the image as the loader does. The same float operations in
  the same order make the values agree bit for bit.
* Mask IoU is a ratio of integer pixel counts under the pixel-centre
  even-odd rule, with ground-truth polygons clipped to the image.
* The conventional matrix keeps each ground truth's best pair (IoU, then
  score, then lower detection id) and then each detection's best surviving
  pair (IoU, then lower ground-truth id).
* The modified matrix is the ground-truth-proposing stable matching: a ground
  truth ranks its candidates by (same class, IoU, score, lower detection id)
  and a detection ranks its suitors by (same class, IoU, lower ground-truth
  id). Stable matching theory makes the result independent of the order in
  which ground truths propose, so this is the fixed point the program's queue
  reaches.
* The AP/AR suite is greedy in score order per image and class: each
  detection takes the unmatched in-stratum ground truth of highest IoU at or
  above the threshold (a tie goes to the earlier ground truth), else an
  out-of-stratum one, which makes it ignored. Strata are closed-open at 32^2
  and 96^2 px^2; ground truths are sized by their ``area`` field, detections
  by box area (boxes) or pixel count (masks). Recall is sampled at COCO's 101
  points, and -1 marks an index with no eligible ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scenes import raster_window

IOU_SWEEP = np.array([t / 100 for t in range(50, 100, 5)])
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
STRATA = ("small", "medium", "large")
CAPS = (1, 10, 100)

# the twelve aggregate indices as (key, kind, sweep index, stratum, cap)
AGGREGATES = (
    ("map_50_95", "ap", None, None, 100),
    ("map_50", "ap", 0, None, 100),
    ("map_75", "ap", 5, None, 100),
    ("map_small", "ap", None, "small", 100),
    ("map_medium", "ap", None, "medium", 100),
    ("map_large", "ap", None, "large", 100),
    ("ar_1", "ar", None, None, 1),
    ("ar_10", "ar", None, None, 10),
    ("ar_100", "ar", None, None, 100),
    ("ar_100_small", "ar", None, "small", 100),
    ("ar_100_medium", "ar", None, "medium", 100),
    ("ar_100_large", "ar", None, "large", 100),
)


def stratum(area):
    if area < 32 * 32:
        return "small"
    if area < 96 * 96:
        return "medium"
    return "large"


def box_iou_matrix(g, d):
    """(G, D) IoU of ground-truth boxes ``g`` and detection boxes ``d``,
    each an (n, 4) array of x, y, w, h."""
    gx, gy, gw, gh = (g[:, k : k + 1] for k in range(4))
    dx, dy, dw, dh = (d[:, k] for k in range(4))
    iw = np.minimum(gx + gw, dx + dw) - np.maximum(gx, dx)
    ih = np.minimum(gy + gh, dy + dh) - np.maximum(gy, dy)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    ga, da = gw * gh, dw * dh
    inter = np.minimum(np.minimum(inter, ga), da)
    union = ga + da - inter
    safe = np.where(union > 0, union, 1.0)
    return np.where(union > 0, inter / safe, 0.0)


def rle_window(rle):
    """Decode an uncompressed run-length grid to ``(bits, x0, y0)`` cropped
    to the occupied pixels."""
    height, width = rle["size"]
    bounds = np.cumsum([0] + list(rle["counts"]))
    starts, stops = bounds[1:-1:2], bounds[2::2]
    lens = stops - starts
    if lens.sum() == 0:
        return np.zeros((0, 0), dtype=bool), 0, 0
    idx = np.repeat(starts, lens) + (
        np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    )
    rows, cols = idx // width, idx % width
    x0, y0 = int(cols.min()), int(rows.min())
    bits = np.zeros((int(rows.max()) - y0 + 1, int(cols.max()) - x0 + 1), dtype=bool)
    bits[rows - y0, cols - x0] = True
    return bits, x0, y0


def mask_iou_matrix(gw, dw):
    """(G, D) IoU of pixel windows: integer counts, then one division."""
    out = np.zeros((len(gw), len(dw)))
    for i, (a, ax, ay, aa) in enumerate(gw):
        for j, (b, bx, by, ba) in enumerate(dw):
            x0, y0 = max(ax, bx), max(ay, by)
            x1 = min(ax + a.shape[1], bx + b.shape[1])
            y1 = min(ay + a.shape[0], by + b.shape[0])
            inter = 0
            if x1 > x0 and y1 > y0:
                inter = int(np.count_nonzero(
                    a[y0 - ay : y1 - ay, x0 - ax : x1 - ax]
                    & b[y0 - by : y1 - by, x0 - bx : x1 - bx]
                ))
            union = aa + ba - inter
            out[i, j] = inter / union if union else 0.0
    return out


@dataclass
class Image:
    image_id: int
    ann_ids: np.ndarray
    gt_cls: np.ndarray
    gt_stratum: list
    det_ids: np.ndarray
    det_cls: np.ndarray
    scores: np.ndarray
    det_stratum: list
    iou: np.ndarray  # (G, D) over every detection of the image


def _images(gt_doc, dets, mode):
    sizes = {im["id"]: (im["width"], im["height"]) for im in gt_doc["images"]}
    gts_of = {im["id"]: [] for im in gt_doc["images"]}
    dets_of = {im["id"]: [] for im in gt_doc["images"]}
    for a in gt_doc["annotations"]:
        gts_of[a["image_id"]].append(a)
    for det_id, d in enumerate(dets):
        dets_of[d["image_id"]].append((det_id, d))

    images = []
    for image_id, gts in gts_of.items():
        W, H = sizes[image_id]
        boxes = []
        for a in gts:
            x, y, w, h = (float(v) for v in a["bbox"])
            x0 = min(max(x, 0.0), float(W))
            y0 = min(max(y, 0.0), float(H))
            x1 = min(max(x + w, 0.0), float(W))
            y1 = min(max(y + h, 0.0), float(H))
            boxes.append((x0, y0, x1 - x0, y1 - y0))
        ds = dets_of[image_id]
        dboxes = [tuple(float(v) for v in d["bbox"]) for _, d in ds]
        if mode == "masks":
            gwin = []
            for a in gts:
                (ring,) = a["segmentation"]
                bits, x0, y0 = raster_window(np.asarray(ring, dtype=float).reshape(-1, 2), W, H)
                gwin.append((bits, x0, y0, int(np.count_nonzero(bits))))
            dwin = []
            for _, d in ds:
                bits, x0, y0 = rle_window(d["segmentation"])
                dwin.append((bits, x0, y0, int(np.count_nonzero(bits))))
            iou = mask_iou_matrix(gwin, dwin)
            det_area = [w[3] for w in dwin]
        else:
            iou = box_iou_matrix(
                np.array(boxes, dtype=float).reshape(-1, 4),
                np.array(dboxes, dtype=float).reshape(-1, 4),
            )
            det_area = [w * h for _, _, w, h in dboxes]
        images.append(Image(
            image_id=image_id,
            ann_ids=np.array([a["id"] for a in gts], dtype=np.int64),
            gt_cls=np.array([a["category_id"] for a in gts], dtype=np.int64),
            gt_stratum=[stratum(float(a["area"])) for a in gts],
            det_ids=np.array([i for i, _ in ds], dtype=np.int64),
            det_cls=np.array([d["category_id"] for _, d in ds], dtype=np.int64),
            scores=np.array([float(d["score"]) for _, d in ds]),
            det_stratum=[stratum(a) for a in det_area],
            iou=iou,
        ))
    return images


# ---------------------------------------------------------------------------
# confusion matrices


def match_conventional(im, cols, thr):
    """Pairs (gt index, det index) of one image; ``cols`` are the detections
    at or above the confidence threshold."""
    held = {}
    for g in range(len(im.ann_ids)):
        cand = [j for j in cols if im.iou[g, j] >= thr]
        if not cand:
            continue
        j = max(cand, key=lambda j: (im.iou[g, j], im.scores[j], -im.det_ids[j]))
        key = (im.iou[g, j], -im.ann_ids[g])
        if j not in held or key > held[j][0]:
            held[j] = (key, g)
    return [(g, j) for j, (_, g) in held.items()]


def match_modified(im, cols, thr):
    def gt_rank(g, j):
        return (im.gt_cls[g] == im.det_cls[j], im.iou[g, j], im.scores[j], -im.det_ids[j])

    def det_rank(j, g):
        return (im.gt_cls[g] == im.det_cls[j], im.iou[g, j], -im.ann_ids[g])

    prefs = [
        sorted((j for j in cols if im.iou[g, j] >= thr), key=lambda j: gt_rank(g, j),
               reverse=True)
        for g in range(len(im.ann_ids))
    ]
    nxt = [0] * len(prefs)
    holder = {}
    free = list(range(len(prefs)))
    while free:
        g = free.pop()
        while nxt[g] < len(prefs[g]):
            j = prefs[g][nxt[g]]
            nxt[g] += 1
            h = holder.get(j)
            if h is None or det_rank(j, g) > det_rank(j, h):
                holder[j] = g
                if h is not None:
                    free.append(h)
                break
    return [(g, j) for j, g in holder.items()]


MATCHERS = {"conventional": match_conventional, "modified": match_modified}


def confusion(images, class_ids, matcher, thr, conf):
    """(C+1) x (C+1) counts and the matched (ann_id, det_id) pairs."""
    index = {c: k for k, c in enumerate(class_ids)}
    n = len(class_ids)
    counts = np.zeros((n + 1, n + 1), dtype=np.int64)
    pairs = set()
    for im in images:
        cols = [j for j in range(len(im.det_ids)) if im.scores[j] >= conf]
        matched = matcher(im, cols, thr)
        used_g = {g for g, _ in matched}
        used_d = {j for _, j in matched}
        for g, j in matched:
            counts[index[im.gt_cls[g]], index[im.det_cls[j]]] += 1
            pairs.add((int(im.ann_ids[g]), int(im.det_ids[j])))
        for g in range(len(im.ann_ids)):
            if g not in used_g:
                counts[index[im.gt_cls[g]], n] += 1
        for j in cols:
            if j not in used_d:
                counts[n, index[im.det_cls[j]]] += 1
    return counts, pairs


# ---------------------------------------------------------------------------
# AP/AR suite


def _greedy(iou, gt_ignore, det_outside):
    """Greedy matches of score-ordered detections (rows of ``iou``, (D, G))
    at every sweep threshold; returns (tp, ignored), each (T, D)."""
    T, D = len(IOU_SWEEP), iou.shape[0]
    tp = np.zeros((T, D), dtype=bool)
    ignored = np.zeros((T, D), dtype=bool)
    if iou.shape[1] == 0:
        ignored[:] = det_outside
        return tp, ignored
    taken = np.zeros((T, iou.shape[1]), dtype=bool)
    rows = np.arange(T)
    for i in range(D):
        ok = (iou[i][None, :] >= IOU_SWEEP[:, None]) & ~taken
        keep = ok & ~gt_ignore
        got = keep.any(axis=1)
        j = np.where(keep, iou[i], -1.0).argmax(axis=1)
        spare = ok & gt_ignore
        got_ignored = ~got & spare.any(axis=1)
        j = np.where(got, j, np.where(spare, iou[i], -1.0).argmax(axis=1))
        hit = got | got_ignored
        taken[rows[hit], j[hit]] = True
        tp[:, i] = got
        ignored[:, i] = got_ignored | (~hit & det_outside[i])
    return tp, ignored


def _class_curves(images, cid, size):
    """Per-cap (precision samples (T, 101), final recall (T,)) of one class
    under one stratum filter, or None when no ground truth is eligible."""
    eligible = 0
    parts = []  # (scores, tp, ignored, image id) per image, capped at 100
    for im in images:
        g = np.flatnonzero(im.gt_cls == cid)
        d = np.flatnonzero(im.det_cls == cid)
        gt_ignore = np.array([size is not None and im.gt_stratum[k] != size for k in g],
                             dtype=bool)
        eligible += int((~gt_ignore).sum())
        if not d.size:
            continue
        d = d[np.lexsort((im.det_ids[d], -im.scores[d]))][:100]
        det_outside = np.array(
            [size is not None and im.det_stratum[k] != size for k in d], dtype=bool
        )
        tp, ignored = _greedy(im.iou[np.ix_(g, d)].T, gt_ignore, det_outside)
        parts.append((im.scores[d], tp, ignored, im.image_id))
    if eligible == 0:
        return None
    curves = {}
    for cap in CAPS if size is None else (100,):
        chosen = [(s[:cap], t[:, :cap], i[:, :cap], img) for s, t, i, img in parts]
        T = len(IOU_SWEEP)
        if chosen:
            scores = np.concatenate([c[0] for c in chosen])
            tp = np.concatenate([c[1] for c in chosen], axis=1)
            ignored = np.concatenate([c[2] for c in chosen], axis=1)
            img = np.concatenate([np.full(len(c[0]), c[3]) for c in chosen])
            pos = np.concatenate([np.arange(len(c[0])) for c in chosen])
            order = np.lexsort((pos, img, -scores))
            tp, ignored = tp[:, order], ignored[:, order]
        else:
            tp = ignored = np.zeros((T, 0), dtype=bool)
        tps = np.cumsum(tp & ~ignored, axis=1)
        fps = np.cumsum(~tp & ~ignored, axis=1)
        recall = tps / eligible
        precision = np.where(tps + fps > 0, tps / np.maximum(tps + fps, 1), 0.0)
        envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
        samples = np.zeros((T, len(RECALL_POINTS)))
        for t in range(T):
            idx = np.searchsorted(recall[t], RECALL_POINTS, side="left")
            ok = idx < recall.shape[1]
            samples[t, ok] = envelope[t, idx[ok]]
        final = recall[:, -1] if recall.shape[1] else np.zeros(T)
        curves[cap] = (samples, final)
    return curves


def aggregates(images, class_ids):
    curves = {
        (cid, size): _class_curves(images, cid, size)
        for cid in class_ids
        for size in (None,) + STRATA
    }
    out = {}
    for key, kind, t_index, size, cap in AGGREGATES:
        values = []
        for cid in class_ids:
            c = curves[cid, size]
            if c is None:
                continue
            samples, final = c[cap]
            if kind == "ar":
                values.append(final.mean())
            elif t_index is None:
                values.append(samples.mean(axis=1).mean())
            else:
                values.append(samples.mean(axis=1)[t_index])
        out[key] = float(np.mean(values)) if values else -1.0
    return out


# ---------------------------------------------------------------------------


@dataclass
class Reference:
    class_ids: list
    class_names: list
    matrices: dict  # algorithm -> (C+1, C+1) counts
    pairs: dict  # algorithm -> set of (ann_id, det_id)
    aggregates: dict
    gt_per_class: dict
    det_per_class: dict  # detections at or above the confidence threshold
    gt_per_stratum: dict
    images: list

    def iou_of(self):
        """(ann_id, det_id) -> IoU for every pair of one image."""
        out = {}
        for im in self.images:
            for g, a in enumerate(im.ann_ids):
                for j, d in enumerate(im.det_ids):
                    out[int(a), int(d)] = float(im.iou[g, j])
        return out


def evaluate(gt_doc, dets, mode, iou_thr=0.5, conf=0.5):
    class_ids = [c["id"] for c in gt_doc["categories"]]
    images = _images(gt_doc, dets, mode)
    matrices, pairs = {}, {}
    for name, matcher in MATCHERS.items():
        matrices[name], pairs[name] = confusion(images, class_ids, matcher, iou_thr, conf)
    gt_per_stratum = {s: 0 for s in STRATA}
    for a in gt_doc["annotations"]:
        gt_per_stratum[stratum(float(a["area"]))] += 1
    return Reference(
        class_ids=class_ids,
        class_names=[c["name"] for c in gt_doc["categories"]],
        matrices=matrices,
        pairs=pairs,
        aggregates=aggregates(images, class_ids),
        gt_per_class={c: sum(a["category_id"] == c for a in gt_doc["annotations"])
                      for c in class_ids},
        det_per_class={c: sum(d["category_id"] == c and d["score"] >= conf for d in dets)
                       for c in class_ids},
        gt_per_stratum=gt_per_stratum,
        images=images,
    )


def makeup(gt_doc, dets, ref, conf=0.5, iou_thr=0.5):
    """Input make-up and reference figures, as the README tabulates them."""
    per_image_g = [len(im.ann_ids) for im in ref.images]
    per_image_d = [len(im.det_ids) for im in ref.images]
    pairs = over = 0
    for im in ref.images:
        cols = im.scores >= conf
        pairs += len(im.ann_ids) * int(cols.sum())
        over += int((im.iou[:, cols] >= iou_thr).sum())
    return {
        "images": len(ref.images),
        "ground truths": len(gt_doc["annotations"]),
        "detections": len(dets),
        "detections >= conf": sum(ref.det_per_class.values()),
        "ground truths per class": dict(zip(ref.class_names, ref.gt_per_class.values())),
        "ground truths per stratum": ref.gt_per_stratum,
        "ground truths per image (min/median/max)":
            (min(per_image_g), int(np.median(per_image_g)), max(per_image_g)),
        "detections per image (min/median/max)":
            (min(per_image_d), int(np.median(per_image_d)), max(per_image_d)),
        "G*D pairs in the pair table": pairs,
        "pairs with IoU >= 0.5": over,
        "conventional tp": int(np.trace(ref.matrices["conventional"][:-1, :-1])),
        "modified tp": int(np.trace(ref.matrices["modified"][:-1, :-1])),
        "aggregates": {k: round(v, 4) for k, v in ref.aggregates.items()},
    }


if __name__ == "__main__":
    import argparse

    from scenes import WORKLOADS, generate

    parser = argparse.ArgumentParser(description="Print a workload's make-up and reference figures.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    gt_doc, dets = generate(args.workload, args.seed)
    ref = evaluate(gt_doc, dets, WORKLOADS[args.workload])
    for key, value in makeup(gt_doc, dets, ref).items():
        print(f"{key}: {value}")
