"""Detection metrics: per-class AP over IoU thresholds plus size-bucketed APs.

Average precision uses the 101-point interpolation with the right-max
precision envelope. Matching is per image and per class: predictions sorted
by descending confidence greedily claim the unmatched ground truth with the
highest IoU at or above the threshold. Confidence ties keep image order
(sorted ids), then input order. Each class and size bucket is evaluated in
one pass: its IoU rows and its confidence order are built once and matched
at every threshold, AP50 and AP75 included, which are reported even when
the thresholds omit them.

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

from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import CorpusError
from .geometry import SizeBucket, classify_size, iou
from .labels import ComponentClass, ComponentInstance

DEFAULT_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEFAULT_RECALL_LEVELS = tuple(i / 100.0 for i in range(101))


@dataclass(frozen=True)
class MatchConfig:
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    recall_levels: tuple[float, ...] = DEFAULT_RECALL_LEVELS
    max_detections_per_image: int = 300

    def __post_init__(self):
        if not self.iou_thresholds:
            raise ValueError("iou_thresholds must not be empty")
        if not self.recall_levels:
            raise ValueError("recall_levels must not be empty")
        if any(b <= a for a, b in zip(self.iou_thresholds, self.iou_thresholds[1:])):
            raise ValueError("iou_thresholds must be strictly increasing")
        if self.max_detections_per_image < 1:
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


def _sort_by_confidence(preds: list[ComponentInstance]) -> list[ComponentInstance]:
    for p in preds:
        if p.score is None:
            raise ValueError("prediction without confidence")
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    return [preds[i] for i in order]


def _greedy_match(iou_rows: list[list[float]], threshold: float) -> list[bool]:
    """Greedy TP/FP labels from a per-prediction IoU matrix (rows ordered by confidence)."""
    n_gt = len(iou_rows[0]) if iou_rows else 0
    matched = [False] * n_gt
    labels: list[bool] = []
    for row in iou_rows:
        best_iou = 0.0
        best_idx = -1
        for g in range(n_gt):
            if matched[g]:
                continue
            if row[g] >= threshold and row[g] > best_iou:
                best_iou = row[g]
                best_idx = g
        if best_idx >= 0:
            matched[best_idx] = True
            labels.append(True)
        else:
            labels.append(False)
    return labels


def match_detections(
    preds: list[ComponentInstance],
    gts: list[ComponentInstance],
    iou_threshold: float,
) -> list[bool]:
    """TP/FP labels in descending-confidence order (single class, single image).

    Each ground truth matches at most one prediction; confidence ties keep
    input order, IoU ties go to the lowest ground-truth index.
    """
    ordered = _sort_by_confidence(preds)
    rows = [[iou(p.box, g.box) for g in gts] for p in ordered]
    return _greedy_match(rows, iou_threshold)


def average_precision(
    tp_fp_sequence: list[bool],
    n_ground_truth: int,
    recall_levels: tuple[float, ...] = DEFAULT_RECALL_LEVELS,
) -> float:
    """101-point interpolated AP from a confidence-ordered TP/FP sequence."""
    if n_ground_truth < 0:
        raise ValueError("negative ground-truth count")
    if n_ground_truth == 0:
        return 0.0
    recalls: list[float] = []
    precisions: list[float] = []
    tp = 0
    for k, is_tp in enumerate(tp_fp_sequence, start=1):
        tp += int(is_tp)
        recalls.append(tp / n_ground_truth)
        precisions.append(tp / k)
    # right-max envelope: precision at recall r is the best achievable beyond r
    for k in range(len(precisions) - 2, -1, -1):
        precisions[k] = max(precisions[k], precisions[k + 1])
    total = 0.0
    for level in recall_levels:
        idx = bisect_left(recalls, level)
        if idx < len(recalls):
            total += precisions[idx]
    return total / len(recall_levels)


class _ClassEvalData:
    """One class and size bucket: per-image IoU rows in confidence order, and the
    corpus-wide order, a stable sort on confidence over the rows of all images."""

    def __init__(self, preds_by_image, gts_by_image, cls, cfg, bucket):
        self.rows_by_image = []
        self.n_gt = 0
        neg_scores = []
        for image_id in sorted(gts_by_image):
            gts = [g for g in gts_by_image[image_id] if g.cls == cls]
            preds = [p for p in preds_by_image.get(image_id, []) if p.cls == cls]
            if bucket is not None:
                gts = [g for g in gts if classify_size(g.box) == bucket]
                preds = [p for p in preds if classify_size(p.box) == bucket]
            preds = _sort_by_confidence(preds)[: cfg.max_detections_per_image]
            self.n_gt += len(gts)
            self.rows_by_image.append([[iou(p.box, g.box) for g in gts] for p in preds])
            neg_scores.extend(-p.score for p in preds)
        self.order = sorted(range(len(neg_scores)), key=neg_scores.__getitem__)

    def ap_at(self, threshold: float, recall_levels) -> float:
        labels = [tp for rows in self.rows_by_image for tp in _greedy_match(rows, threshold)]
        return average_precision([labels[i] for i in self.order], self.n_gt, recall_levels)


def evaluate_corpus(
    preds_by_image: dict,
    gts_by_image: dict,
    cfg: MatchConfig | None = None,
) -> ApReport:
    """Aggregate AP metrics over a corpus of per-image instance lists.

    Classes with no ground truth and no predictions anywhere are excluded
    from every mean; a size bucket nothing falls into reports None.
    """
    cfg = cfg or MatchConfig()
    missing = set(preds_by_image) - set(gts_by_image)
    if missing:
        raise CorpusError(
            f"predictions for images absent from ground truth: {sorted(missing)[:5]}"
        )

    classes = sorted(
        {i.cls for insts in gts_by_image.values() for i in insts}
        | {i.cls for insts in preds_by_image.values() for i in insts}
    )

    def class_aps(bucket: SizeBucket | None, thresholds) -> dict[ComponentClass, dict[float, float]]:
        """AP at each threshold for every class with ground truth or predictions in the bucket."""
        tables = {}
        for cls in classes:
            data = _ClassEvalData(preds_by_image, gts_by_image, cls, cfg, bucket)
            if data.n_gt or data.order:
                tables[cls] = {t: data.ap_at(t, cfg.recall_levels) for t in thresholds}
        return tables

    def coco_ap(table: dict[float, float]) -> float:
        return sum(table[t] for t in cfg.iou_thresholds) / len(cfg.iou_thresholds)

    def mean_or_none(values):
        values = list(values)
        return sum(values) / len(values) if values else None

    def bucket_ap(bucket: SizeBucket) -> float | None:
        return mean_or_none(map(coco_ap, class_aps(bucket, cfg.iou_thresholds).values()))

    all_sizes = class_aps(None, dict.fromkeys((*cfg.iou_thresholds, 0.5, 0.75)))
    per_class = {cls: coco_ap(table) for cls, table in all_sizes.items()}
    return ApReport(
        mean_ap=mean_or_none(per_class.values()),
        ap50=mean_or_none(table[0.5] for table in all_sizes.values()),
        ap75=mean_or_none(table[0.75] for table in all_sizes.values()),
        ap_small=bucket_ap(SizeBucket.SMALL),
        ap_medium=bucket_ap(SizeBucket.MEDIUM),
        ap_large=bucket_ap(SizeBucket.LARGE),
        per_class=per_class,
    )
