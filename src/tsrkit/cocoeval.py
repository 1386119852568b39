"""Detection metrics: per-class AP over IoU thresholds plus size-bucketed APs.

Average precision uses the 101-point interpolation with the right-max
precision envelope. Matching is per image and per class: predictions sorted
by descending confidence greedily claim the unmatched ground truth with the
highest IoU at or above the threshold. Confidence ties keep image order
(sorted ids), then input order. AP50 and AP75 are reported even when the
thresholds omit them.

The images are walked once. Each image gets one prediction x ground-truth
IoU matrix across all classes; the per-image caps are rank masks. The
greedy walk visits only the pairs some threshold can accept (same class,
IoU at or above the lowest threshold) and settles every threshold in one
step per prediction, for all sizes and, on same-size pairs, for the size
buckets. Class, size code, score and true-positive flags are kept for the
whole corpus, and AP is computed with numpy per (class, bucket,
threshold). The interpolated precisions are added in Python, left to
right, so every value equals, float for float, a plain list-based
evaluation of the same rules.

The semantics differ from pycocotools' COCOeval in five ways:

- Size buckets filter ground truth and predictions each by their own area.
  pycocotools instead ignores out-of-range ground truth and drops only the
  unmatched out-of-range detections.
- A class with predictions but no ground truth, in the corpus or in a
  bucket, counts as AP 0 in every mean; pycocotools leaves it out. A class
  with neither is left out here too.
- IoU ties go to the lowest ground-truth index; pycocotools takes the last.
- The medium/large area boundary is 64**2; COCO's is 96**2.
- At most 300 detections per image and class are kept, by confidence;
  pycocotools keeps 100.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import CorpusError
from .geometry import MEDIUM_AREA_LIMIT, SMALL_AREA_LIMIT, area_array, iou_array
from .labels import ComponentClass, ComponentInstance, Instances

_SIZE_LIMITS = np.array([SMALL_AREA_LIMIT, MEDIUM_AREA_LIMIT])
DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
# the 101 recall points i / 100; np.linspace rounds some of them differently
_RECALL_LEVELS = np.arange(101) / 100.0


@dataclass(frozen=True)
class MatchConfig:
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    max_detections_per_image: int = 300

    def __post_init__(self):
        thresholds = self.iou_thresholds
        if not thresholds:
            raise ValueError("iou_thresholds must not be empty")
        for v in thresholds:
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0.0 < v <= 1.0:
                raise ValueError(f"iou_thresholds: {v!r} is not a number in (0, 1]")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("iou_thresholds must be strictly increasing")
        cap = self.max_detections_per_image
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ValueError(f"max_detections_per_image: must be an int, got {cap!r}")
        if cap < 1:
            raise ValueError("max_detections_per_image must be positive")


@dataclass(frozen=True)
class ApReport:
    mean_ap: float | None
    ap50: float | None
    ap75: float | None
    ap_small: float | None
    ap_medium: float | None
    ap_large: float | None
    per_class: dict[ComponentClass, float] = field(default_factory=dict)

    def format_lines(self) -> list[str]:
        def fmt(value):
            return "n/a" if value is None else f"{value:.4f}"

        lines = [
            f"AP = {fmt(self.mean_ap)}",
            f"AP50 = {fmt(self.ap50)}",
            f"AP75 = {fmt(self.ap75)}",
            f"APs = {fmt(self.ap_small)}",
            f"APm = {fmt(self.ap_medium)}",
            f"APl = {fmt(self.ap_large)}",
        ]
        for cls in sorted(self.per_class):
            lines.append(f"AP[{cls.display_name}] = {fmt(self.per_class[cls])}")
        return lines


def _sizes(boxes: np.ndarray) -> np.ndarray:
    """Size codes: how many of the ``geometry`` area limits the area reaches, 0 small, 1 medium, 2 large."""
    return np.searchsorted(_SIZE_LIMITS, area_array(boxes), side="right")


def _scores(preds: Instances) -> np.ndarray:
    if np.isnan(preds.scores).any():
        raise ValueError("prediction without confidence")
    return preds.scores


def _confidence_order(scores: np.ndarray) -> np.ndarray:
    """Descending confidence; ties keep their order."""
    return np.argsort(-scores, kind="stable")


def _match(ious, allowed, thresholds, matched, tp, row_ids, col_offset) -> None:
    """Greedy matching at every threshold of ``thresholds`` (ascending) at once.

    Rows of ``ious`` are predictions in confidence order, columns ground
    truth; ``allowed`` masks the pairs that may match (True: all). Each row
    claims, per threshold, the unmatched allowed column of highest IoU at or
    above it, the lowest column among ties. Only pairs that some threshold
    accepts are visited. ``matched[i]`` and ``tp[i]``
    are the claimed columns and the true-positive rows at ``thresholds[i]``,
    indexed by ``col_offset + column`` and ``row_ids[row]``.
    """
    rows, cols = np.nonzero(allowed & (ious >= thresholds[0]) & (ious > 0.0))
    if not rows.size:
        return
    values = ious[rows, cols]
    order = np.lexsort((cols, -values, rows))  # per row: IoU descending, then column
    rows = rows[order]
    starts = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()]
    row_ids = row_ids[rows].tolist()
    values = values[order].tolist()
    candidates = list(zip((cols[order] + col_offset).tolist(), values))
    for start, end in zip(starts, starts[1:] + [len(candidates)]):
        row = row_ids[start]
        best = values[start]
        for threshold, used, flags in zip(thresholds, matched, tp):
            if best < threshold:
                break
            for col, value in candidates[start:end]:
                if value < threshold:
                    break
                if not used[col]:
                    used[col] = 1
                    flags[row] = 1
                    break


def _interpolated_ap(tp_flags: np.ndarray, n_ground_truth: int) -> float:
    if n_ground_truth == 0:
        return 0.0
    tp = np.cumsum(tp_flags, dtype=np.int64)
    recalls = tp / n_ground_truth
    # right-max envelope: precision at recall r is the best achievable beyond r
    precisions = np.maximum.accumulate((tp / np.arange(1, len(tp) + 1))[::-1])[::-1]
    at = np.searchsorted(recalls, _RECALL_LEVELS, side="left")
    total = 0.0
    for value in precisions[at[at < len(tp)]].tolist():
        total += value  # left to right: np.sum and sum() round differently
    return total / len(_RECALL_LEVELS)


def match_detections(
    preds: Sequence[ComponentInstance],
    gts: Sequence[ComponentInstance],
    iou_threshold: float,
) -> list[bool]:
    """TP/FP labels in descending-confidence order (single class, single image).

    Each ground truth matches at most one prediction; confidence ties keep
    input order, IoU ties go to the lowest ground-truth index.
    """
    preds, gts = Instances.pack(preds), Instances.pack(gts)
    order = _confidence_order(_scores(preds))
    ious = iou_array(preds.boxes[order][:, None], gts.boxes[None])
    tp = bytearray(len(preds))
    _match(ious, True, (iou_threshold,), [bytearray(len(gts))], [tp], np.arange(len(preds)), 0)
    return [bool(flag) for flag in tp]


def average_precision(tp_fp_sequence: list[bool], n_ground_truth: int) -> float:
    """101-point interpolated AP from a confidence-ordered TP/FP sequence."""
    if n_ground_truth < 0:
        raise ValueError("negative ground-truth count")
    return _interpolated_ap(np.asarray(tp_fp_sequence, dtype=bool).reshape(-1), n_ground_truth)


def _within_cap(keys: np.ndarray, by_confidence: np.ndarray, cap: int) -> np.ndarray:
    """Mask of the items among the first ``cap`` of their key in confidence order."""
    order = by_confidence[np.argsort(keys[by_confidence], kind="stable")]
    grouped = keys[order]
    keep = np.empty(len(keys), dtype=bool)
    keep[order] = np.arange(len(keys)) - np.searchsorted(grouped, grouped) < cap
    return keep


def evaluate_corpus(
    preds_by_image: dict,
    gts_by_image: dict,
    cfg: MatchConfig | None = None,
) -> ApReport:
    """Aggregate AP metrics over a corpus of per-image instance sequences.

    Each sequence is read as ``Instances`` columns; a plain one is packed.
    Classes with no ground truth and no predictions anywhere are excluded
    from every mean; a size bucket nothing falls into reports None.
    """
    cfg = cfg or MatchConfig()
    missing = set(preds_by_image) - set(gts_by_image)
    if missing:
        raise CorpusError(
            f"predictions for images absent from ground truth: {sorted(missing)[:5]}"
        )

    # Corpus-wide arrays hold what AP needs, images in id order; boxes and
    # IoUs live one image at a time.
    image_ids = sorted(gts_by_image)
    gt_lists = [Instances.pack(gts_by_image[i]) for i in image_ids]
    pred_lists = [Instances.pack(preds_by_image.get(i, ())) for i in image_ids]
    gt_starts = list(accumulate(map(len, gt_lists), initial=0))
    pred_starts = list(accumulate(map(len, pred_lists), initial=0))
    n_gt, n_pred = gt_starts[-1], pred_starts[-1]
    gt_cls, gt_size = np.empty(n_gt, dtype=np.int8), np.empty(n_gt, dtype=np.int8)
    pred_cls, pred_size = np.empty(n_pred, dtype=np.int8), np.empty(n_pred, dtype=np.int8)
    scores = np.empty(n_pred)

    # Matching, image by image. The all-sizes pass also settles AP50 and
    # AP75; a bucket pass pairs only predictions and ground truth of one
    # size, and each ground truth falls in one bucket, so the three bucket
    # passes share their matched state.
    all_thresholds = sorted(set((*cfg.iou_thresholds, 0.5, 0.75)))
    matched_all = [bytearray(n_gt) for _ in all_thresholds]
    matched_size = [bytearray(n_gt) for _ in cfg.iou_thresholds]
    tp_all = [bytearray(n_pred) for _ in all_thresholds]
    tp_size = [bytearray(n_pred) for _ in cfg.iou_thresholds]
    cap = cfg.max_detections_per_image
    kept_all = np.ones(n_pred, dtype=bool)  # within the cap per image and class
    kept_size = np.ones(n_pred, dtype=bool)  # ... per image, class and bucket
    for k, (gts, preds) in enumerate(zip(gt_lists, pred_lists)):
        g0, g1, p0, p1 = gt_starts[k], gt_starts[k + 1], pred_starts[k], pred_starts[k + 1]
        g_box, g_cls, g_size = gts.boxes, gts.classes, gt_size[g0:g1]
        gt_cls[g0:g1], g_size[:] = g_cls, _sizes(g_box)
        if not preds:
            continue
        scores[p0:p1] = _scores(preds)
        p_box, p_cls, p_size = preds.boxes, preds.classes, pred_size[p0:p1]
        pred_cls[p0:p1], p_size[:] = p_cls, _sizes(p_box)
        by_confidence = _confidence_order(scores[p0:p1])
        if p1 - p0 > cap:
            kept_all[p0:p1] = _within_cap(p_cls, by_confidence, cap)
            kept_size[p0:p1] = _within_cap(3 * p_cls + p_size, by_confidence, cap)
        if not gts:
            continue
        rows = p0 + by_confidence
        ious = iou_array(p_box[by_confidence][:, None], g_box[None])
        same_class = p_cls[by_confidence, None] == g_cls[None, :]
        allowed = same_class & kept_all[rows, None]
        _match(ious, allowed, all_thresholds, matched_all, tp_all, rows, g0)
        allowed = same_class & (p_size[by_confidence, None] == g_size[None, :]) & kept_size[rows, None]
        _match(ious, allowed, cfg.iou_thresholds, matched_size, tp_size, rows, g0)

    # AP per class and bucket, over the corpus-wide confidence order: ties
    # keep image order, then input order.
    order = _confidence_order(scores)
    ordered_cls, ordered_size = pred_cls[order], pred_size[order]
    classes = [ComponentClass(c) for c in sorted(set(gt_cls.tolist()).union(pred_cls.tolist()))]

    def class_aps(size: int | None, thresholds, tp) -> dict[ComponentClass, dict[float, float]]:
        """AP at each threshold for every class with ground truth or predictions in the bucket."""
        flags = [np.frombuffer(t, dtype=np.uint8) for t in tp]
        if size is None:
            gt_in, pred_in = np.ones(len(gt_cls), dtype=bool), kept_all[order]
        else:
            gt_in, pred_in = gt_size == size, (ordered_size == size) & kept_size[order]
        tables = {}
        for cls in classes:
            n_cls = int(np.count_nonzero(gt_in & (gt_cls == cls)))
            ranked = order[pred_in & (ordered_cls == cls)]
            if n_cls or ranked.size:
                tables[cls] = {
                    t: _interpolated_ap(f[ranked], n_cls) for t, f in zip(thresholds, flags)
                }
        return tables

    def coco_ap(table: dict[float, float]) -> float:
        return sum(table[t] for t in cfg.iou_thresholds) / len(cfg.iou_thresholds)

    def mean_or_none(values):
        values = list(values)
        return sum(values) / len(values) if values else None

    def bucket_ap(size: int) -> float | None:
        return mean_or_none(map(coco_ap, class_aps(size, cfg.iou_thresholds, tp_size).values()))

    all_sizes = class_aps(None, all_thresholds, tp_all)
    per_class = {cls: coco_ap(table) for cls, table in all_sizes.items()}
    return ApReport(
        mean_ap=mean_or_none(per_class.values()),
        ap50=mean_or_none(table[0.5] for table in all_sizes.values()),
        ap75=mean_or_none(table[0.75] for table in all_sizes.values()),
        ap_small=bucket_ap(0),
        ap_medium=bucket_ap(1),
        ap_large=bucket_ap(2),
        per_class=per_class,
    )
