"""Detection metrics: per-class AP over IoU thresholds plus size-bucketed APs.

Average precision uses the 101-point interpolation with the right-max
precision envelope. Matching is per image and per class: predictions sorted
by descending confidence greedily claim the unmatched ground truth with the
highest IoU at or above the threshold. Confidence ties keep image order
(sorted ids), then input order. AP50 and AP75 are reported even when the
thresholds omit them.

The corpus is read as columns, images in id order. The confidence order
and the per-image caps are computed once for the corpus. Same-image,
same-class prediction and ground-truth pairs are built for runs of whole
images of at most ``_PAIR_BUDGET`` pairs (an image with more is a run of
its own), one IoU per pair, and only the pairs some threshold can accept
are kept. One greedy matching pass then settles the whole corpus at every
threshold, for all sizes, and one more for the size buckets on same-size
pairs. A prediction that shares no candidate ground truth with another one
takes its best candidate at every threshold that candidate reaches, in one
array step; only contested predictions are walked in rank order. AP is
computed per (class, bucket) for all thresholds at once, and the
interpolated precisions are summed left to right, so every value equals,
float for float, a plain list-based evaluation of the same rules.

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
# pairs scored at once; a run of whole images stays within it unless one image has more
_PAIR_BUDGET = 1 << 12


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
    return np.searchsorted(_SIZE_LIMITS, area_array(boxes), side="right").astype(np.int8)


def _scores(scores: np.ndarray) -> np.ndarray:
    if np.isnan(scores).any():
        raise ValueError("prediction without confidence")
    return scores


def _confidence_order(scores: np.ndarray) -> np.ndarray:
    """Descending confidence; ties keep their order."""
    return np.argsort(-scores, kind="stable")


def _accepted(ious: np.ndarray, threshold: float) -> np.ndarray:
    """The pairs that ``threshold`` (the lowest) lets a greedy pass match: IoU at or above it, and above 0."""
    return (ious >= threshold) & (ious > 0.0)


def _columns(lists: Sequence[Instances]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boxes, classes and scores of ``lists``, each concatenated; empty for no lists."""
    columns = zip(*((x.boxes, x.classes, x.scores) for x in (Instances.pack(()), *lists)))
    return tuple(map(np.concatenate, columns))


def _match(pairs, thresholds, n_predictions) -> np.ndarray:
    """Greedy matching of candidate ``pairs`` at every threshold of ``thresholds`` (ascending) at once.

    ``pairs`` is a list of (rank, prediction id, ground-truth id, IoU) array
    chunks whose ranks and ground-truth ids are distinct across chunks.
    Predictions claim in rank order: each claims, per threshold, the
    unclaimed ground truth of highest IoU at or above it, the lowest id
    among ties. Returns the true-positive flags, one row per threshold and
    one column per prediction id.

    A prediction that shares no candidate ground truth with another one
    claims its best candidate at every threshold that candidate's IoU
    reaches, whatever is claimed before it; those claims are set for all
    such predictions at once. The contested rest, whose candidates no
    uncontested prediction has, are walked in rank order. Both steps give
    what one walk over every prediction gives.
    """
    tp = np.zeros((len(thresholds), n_predictions), dtype=bool)
    if not pairs:
        return tp
    rank, row, col, iou = map(np.concatenate, zip(*pairs))
    order = np.lexsort((col, -iou, rank))  # per prediction: IoU descending, then ground truth
    rank, row, col, iou = rank[order], row[order], col[order], iou[order]
    first = np.flatnonzero(np.diff(rank, prepend=-1))  # each prediction's best pair
    contested = np.logical_or.reduceat(np.bincount(col)[col] > 1, first)
    alone = first[~contested]
    tp[:, row[alone]] = np.less_equal.outer(thresholds, iou[alone])

    walked = np.repeat(contested, np.diff(first, append=len(rank)))
    starts = np.flatnonzero(np.diff(rank[walked], prepend=-1)).tolist()
    rows, values = row[walked].tolist(), iou[walked].tolist()
    candidates = list(zip(col[walked].tolist(), values))
    used = [set() for _ in thresholds]
    claims = []
    for start, end in zip(starts, starts[1:] + [len(candidates)]):
        best = values[start]
        for i, (threshold, claimed) in enumerate(zip(thresholds, used)):
            if best < threshold:
                break
            for c, value in candidates[start:end]:
                if value < threshold:
                    break
                if c not in claimed:
                    claimed.add(c)
                    claims.append((i, rows[start]))
                    break
    if claims:
        tp[tuple(zip(*claims))] = True
    return tp


def _interpolated_aps(tp_flags: np.ndarray, n_ground_truth: int) -> np.ndarray:
    """101-point interpolated AP of each row of a (thresholds, ranked) true-positive flag array."""
    n_rows, n = tp_flags.shape
    if n_ground_truth == 0 or n == 0:
        return np.zeros(n_rows)
    tp = np.cumsum(tp_flags, axis=1, dtype=np.int64)
    # right-max envelope: precision at recall r is the best achievable beyond r
    precisions = np.maximum.accumulate((tp / np.arange(1, n + 1))[:, ::-1], axis=1)[:, ::-1]
    # each recall level's first rank, on the counts: the fewest true positives whose recall reaches it
    need = np.searchsorted(np.arange(n_ground_truth + 1) / n_ground_truth, _RECALL_LEVELS, "left")
    row = np.arange(n_rows)[:, None]
    width = n + n_ground_truth + 1  # above every count, so one search keeps the rows apart
    at = np.searchsorted((tp + row * width).ravel(), (need + row * width).ravel(), "left")
    at = at.reshape(n_rows, -1) - row * n
    values = np.where(at < n, np.take_along_axis(precisions, np.minimum(at, n - 1), axis=1), 0.0)
    # added left to right, as a plain list sum is: np.sum adds pairwise
    return np.cumsum(values, axis=1)[:, -1] / len(_RECALL_LEVELS)


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
    order = _confidence_order(_scores(preds.scores))
    ious = iou_array(preds.boxes[order][:, None], gts.boxes[None])
    r, c = np.nonzero(_accepted(ious, iou_threshold))
    return _match([(r, r, c, ious[r, c])], (iou_threshold,), len(preds))[0].tolist()


def average_precision(tp_fp_sequence: list[bool], n_ground_truth: int) -> float:
    """101-point interpolated AP from a confidence-ordered TP/FP sequence."""
    if n_ground_truth < 0:
        raise ValueError("negative ground-truth count")
    return _interpolated_aps(np.asarray(tp_fp_sequence, dtype=bool).reshape(1, -1), n_ground_truth).item()


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

    # Corpus-wide columns, images in id order; a prediction's or ground
    # truth's id is its index here.
    image_ids = sorted(gts_by_image)
    gt_lists = [Instances.pack(gts_by_image[i]) for i in image_ids]
    pred_lists = [Instances.pack(preds_by_image.get(i, ())) for i in image_ids]
    gt_boxes, gt_cls, _ = _columns(gt_lists)
    pred_boxes, pred_cls, scores = _columns(pred_lists)
    order = _confidence_order(_scores(scores))  # ties keep image order, then input order
    n_pred = len(order)
    rank = np.empty(n_pred, dtype=np.intp)
    rank[order] = np.arange(n_pred)
    gt_size, pred_size = _sizes(gt_boxes), _sizes(pred_boxes)
    pred_starts = list(accumulate(map(len, pred_lists), initial=0))
    images = np.arange(len(image_ids))
    gt_key = np.repeat(images, list(map(len, gt_lists))) * len(ComponentClass) + gt_cls  # image and class
    pred_key = np.repeat(images, np.diff(pred_starts)) * len(ComponentClass) + pred_cls
    cap = cfg.max_detections_per_image
    kept_all = kept_size = np.ones(n_pred, dtype=bool)
    if max(map(len, pred_lists), default=0) > cap:
        kept_all = _within_cap(pred_key, order, cap)  # within the cap per image and class
        kept_size = _within_cap(3 * pred_key + pred_size, order, cap)  # ... per image, class and bucket

    # Prediction i pairs with gt_order[first[i]:first[i] + n_pairs[i]], the
    # ground truth of its image and class; its pairs are numbered from pair_at[i].
    gt_order = np.argsort(gt_key, kind="stable")
    first = np.searchsorted(gt_key[gt_order], pred_key, "left")
    n_pairs = np.searchsorted(gt_key[gt_order], pred_key, "right") - first
    pair_at = np.concatenate(([0], np.cumsum(n_pairs)))
    image_at = pair_at[pred_starts].tolist()
    runs = [0]  # image k starts a new run when it would take the current one past the budget
    for k in range(1, len(image_ids)):
        if image_at[k + 1] - image_at[runs[-1]] > _PAIR_BUDGET:
            runs.append(k)
    runs.append(len(image_ids))

    # Candidate pairs, run by run; each pass then matches the whole corpus
    # at once. The all-sizes pass also settles AP50 and AP75; the bucket
    # pass pairs only predictions and ground truth of one size, so the three
    # buckets share it.
    all_thresholds = sorted(set((*cfg.iou_thresholds, 0.5, 0.75)))
    pairs_all, pairs_size = [], []
    for r0, r1 in zip(runs, runs[1:]):
        p0, p1 = pred_starts[r0], pred_starts[r1]
        p = np.repeat(np.arange(p0, p1), n_pairs[p0:p1])
        shift = np.repeat(first[p0:p1] - pair_at[p0:p1], n_pairs[p0:p1])  # gt_order position less pair number
        g = gt_order[shift + np.arange(pair_at[p0], pair_at[p1])]
        ious = iou_array(pred_boxes[p], gt_boxes[g])
        for pairs, hit in (
            (pairs_all, kept_all[p] & _accepted(ious, all_thresholds[0])),
            (pairs_size, kept_size[p] & (pred_size[p] == gt_size[g]) & _accepted(ious, cfg.iou_thresholds[0])),
        ):
            pairs.append((rank[p[hit]], p[hit], g[hit], ious[hit]))
        del p, shift, g, ious, hit  # one run's arrays at a time
    del rank, pred_key, first, n_pairs, pair_at, pred_boxes, gt_boxes  # matching and AP read none of them
    tp_all = _match(pairs_all, all_thresholds, n_pred)
    del pairs_all
    tp_size = _match(pairs_size, cfg.iou_thresholds, n_pred)
    del pairs_size

    # AP per class and bucket, over the corpus-wide confidence order.
    ordered_cls, ordered_size = pred_cls[order], pred_size[order]
    classes = [ComponentClass(c) for c in sorted(set(gt_cls.tolist()).union(pred_cls.tolist()))]

    def class_aps(size: int | None, thresholds, tp) -> dict[ComponentClass, dict[float, float]]:
        """AP at each threshold for every class with ground truth or predictions in the bucket."""
        if size is None:
            gt_in, pred_in = np.ones(len(gt_cls), dtype=bool), kept_all[order]
        else:
            gt_in, pred_in = gt_size == size, (ordered_size == size) & kept_size[order]
        tables = {}
        for cls in classes:
            n_cls = int(np.count_nonzero(gt_in & (gt_cls == cls)))
            ranked = order[pred_in & (ordered_cls == cls)]
            if n_cls or ranked.size:
                tables[cls] = dict(zip(thresholds, _interpolated_aps(tp[:, ranked], n_cls).tolist()))
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
