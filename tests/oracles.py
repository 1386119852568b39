"""Independent reference implementations the tests check the library against.

Nothing here shares code paths with the library: the tree distance oracle
enumerates edit mappings instead of running the forest DP, the AP oracle
evaluates the interpolation definition directly, the anchor oracle scores
every anchor instead of the nearest one per level and ratio, the corpus AP
reference is the list-based evaluation with the box reference's IoU, a greedy loop
per threshold and its own size buckets, the table-HTML parser reference is
the character scanner that the regex tokenizer replaced, the instance
loader reference is the parser that inline checks replaced, the corpus
loader, label decode and perturbation references are the instance-building
versions that columns replaced, the label encode reference is the pairwise
version that one coincidence scan replaced, the anchor pyramid reference is the
meshgrid-and-stack version that in-place writes replaced, the grid
reference is ``build_grid`` as it was before merge placement became one rule,
the box reference is the scalar geometry as it was before it unpacked each
box once, the flattening reference is the TED input arrays as built before
one walk emitted them (keyroots as the last node of each leftmost-leaf
run), and the convolution oracle is plain nested loops.
"""

from __future__ import annotations

import enum
import json
import logging
import math
import random
import re
import sys
from bisect import bisect_left
from functools import partial
from itertools import chain, repeat
from operator import itemgetter, le
from typing import NamedTuple

import numpy as np

from tsrkit.anchors import STRIDES
from tsrkit.cocoeval import ApReport, MatchConfig
from tsrkit.errors import (
    CorpusError,
    EmptyStructureError,
    HtmlParseError,
    LabelConsistencyError,
    LabelModeError,
    SchemaError,
)
from tsrkit.geometry import BBox
from tsrkit.labels import AnnotationSet, ComponentClass, ComponentInstance, LabelMode
from tsrkit.misalign import PerturbationMode, PerturbationSpec
from tsrkit.teds import TableTree, parse_table_html


def postorder(root: TableTree) -> list[TableTree]:
    """The nodes of ``root``'s tree in postorder."""
    out = []

    def visit(node):
        for child in node.children:
            visit(child)
        out.append(node)

    visit(root)
    return out


def _subtree_intervals(root: TableTree) -> list[tuple[int, int]]:
    """Per postorder index: [first descendant index, own index]."""
    intervals = []
    counter = [0]

    def visit(node):
        first = counter[0]
        for child in node.children:
            visit(child)
        intervals.append((first, counter[0]))
        counter[0] += 1

    visit(root)
    intervals.sort(key=lambda pair: pair[1])
    return intervals


def rename_cost(u: TableTree, v: TableTree) -> float:
    """Free between equal tags (and, for cells, equal spans); 1 otherwise."""
    def key(node):
        return (node.tag, node.colspan, node.rowspan) if node.tag == "td" else (node.tag,)

    return 0.0 if key(u) == key(v) else 1.0


def brute_force_tree_distance(a: TableTree, b: TableTree) -> float:
    """Minimum unit-cost edit mapping by exhaustive backtracking (small trees only).

    A valid mapping pairs nodes one-to-one, preserving postorder and the
    ancestor relation; its cost is the paired rename costs plus one deletion
    or insertion for each unpaired node.
    """
    nodes_a = postorder(a)
    nodes_b = postorder(b)
    iv_a = _subtree_intervals(a)
    iv_b = _subtree_intervals(b)
    n1, n2 = len(nodes_a), len(nodes_b)

    def is_ancestor(intervals, i, j) -> bool:
        lo, hi = intervals[i]
        return lo <= j < hi

    best = [float("inf")]

    def search(ai: int, bj_min: int, pairs: list, rename_total: float):
        if ai == n1:
            best[0] = min(best[0], rename_total + n1 + n2 - 2 * len(pairs))
            return
        # lower bound: every remaining a-node costs at least a delete if unmapped
        search(ai + 1, bj_min, pairs, rename_total)
        for bj in range(bj_min, n2):
            if all(
                is_ancestor(iv_a, ai, pi) == is_ancestor(iv_b, bj, pj)
                for pi, pj in pairs
            ):
                pairs.append((ai, bj))
                search(
                    ai + 1,
                    bj + 1,
                    pairs,
                    rename_total + rename_cost(nodes_a[ai], nodes_b[bj]),
                )
                pairs.pop()

    search(0, 0, [], 0.0)
    return best[0]


def _reference_label_key(node: TableTree):
    if node.tag == "td":
        return ("td", node.colspan, node.rowspan)
    return (node.tag,)


def _reference_postorder(node: TableTree, lmld: list[int], labels: list[int], interner: dict):
    """Append ``node``'s subtree in postorder; its first node is its leftmost leaf."""
    leftmost = len(labels)
    for child in node.children:
        _reference_postorder(child, lmld, labels, interner)
    labels.append(interner.setdefault(_reference_label_key(node), len(interner)))
    lmld.append(leftmost)


def reference_flatten(root: TableTree, interner: dict):
    """Postorder arrays: leftmost-leaf-descendant index, label id, keyroots."""
    lmld: list[int] = []
    labels: list[int] = []
    _reference_postorder(root, lmld, labels, interner)
    last_for_lml: dict[int, int] = {}
    for i, value in enumerate(lmld):
        last_for_lml[value] = i
    keyroots = sorted(last_for_lml.values())
    return lmld, labels, keyroots


def random_small_tree(rng: random.Random, max_nodes: int = 8) -> TableTree:
    """Random ordered labeled tree; labels exercise the td span comparison."""
    def random_node():
        tag = rng.choice(("table", "tbody", "tr", "td", "td"))
        if tag == "td":
            return TableTree("td", colspan=rng.choice((1, 1, 2)), rowspan=rng.choice((1, 1, 2)))
        return TableTree(tag)

    root = random_node()
    nodes = [root]
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(nodes)
        child = random_node()
        parent.children.append(child)
        nodes.append(child)
    return root


def interpolated_ap_oracle(tp_flags: list[bool], n_gt: int, levels: int = 101) -> float:
    """AP by the definition: max precision over operating points at recall >= r."""
    if n_gt == 0:
        return 0.0
    points = []
    tp = 0
    for k, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        points.append((tp / n_gt, tp / k))
    total = 0.0
    for i in range(levels):
        level = i / (levels - 1)
        reachable = [precision for recall, precision in points if recall >= level]
        total += max(reachable) if reachable else 0.0
    return total / levels


def naive_depthwise_conv(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Direct nested-loop depthwise convolution with zero padding."""
    channels, height, width = x.shape
    kh, kw = kernels.shape[1:]
    out = np.zeros_like(x)
    for c in range(channels):
        for y in range(height):
            for xx in range(width):
                acc = 0.0
                for dy in range(kh):
                    for dx in range(kw):
                        sy = y + dy - kh // 2
                        sx = xx + dx - kw // 2
                        if 0 <= sy < height and 0 <= sx < width:
                            acc += kernels[c, dy, dx] * x[c, sy, sx]
                out[c, y, xx] = acc
    return out


def brute_force_best_iou(anchors: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Best IoU per ground-truth box over every anchor.

    The all-anchor scan that ``anchors.best_iou_per_gt`` replaced with the
    nearest-centre method: O(G * N) against O(G * L * R).
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    anchor_area = (anchors[:, 2] - anchors[:, 0]) * (anchors[:, 3] - anchors[:, 1])
    best = np.zeros(gts.shape[0])
    for i, gt in enumerate(gts):
        iw = np.minimum(anchors[:, 2], gt[2]) - np.maximum(anchors[:, 0], gt[0])
        ih = np.minimum(anchors[:, 3], gt[3]) - np.maximum(anchors[:, 1], gt[1])
        inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
        gt_area = (gt[2] - gt[0]) * (gt[3] - gt[1])
        union = anchor_area + gt_area - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            ious = np.where(union > 0.0, inter / union, 0.0)
        best[i] = ious.max()
    return best


def reference_anchors(ratios, width: float, height: float) -> np.ndarray:
    """``anchors.generate_anchors`` as it was before it wrote each level in place.

    Each level's centres come from a meshgrid, its four coordinates from
    broadcast temporaries that are stacked, and the levels are concatenated.
    Takes checked inputs.
    """
    ratio_arr = np.asarray(ratios, dtype=np.float64)
    half_w = 0.5 / np.sqrt(ratio_arr)
    half_h = 0.5 * np.sqrt(ratio_arr)
    out = []
    for stride in STRIDES:
        rows, cols = max(1, int(height // stride)), max(1, int(width // stride))
        ys = (np.arange(rows) + 0.5) * stride
        xs = (np.arange(cols) + 0.5) * stride
        cx, cy = np.meshgrid(xs, ys)
        cx = cx.reshape(-1, 1)
        cy = cy.reshape(-1, 1)
        w = 8.0 * stride * half_w
        h = 8.0 * stride * half_h
        boxes = np.stack(
            [
                np.broadcast_to(cx - w, (cx.shape[0], len(ratios))),
                np.broadcast_to(cy - h, (cx.shape[0], len(ratios))),
                np.broadcast_to(cx + w, (cx.shape[0], len(ratios))),
                np.broadcast_to(cy + h, (cx.shape[0], len(ratios))),
            ],
            axis=-1,
        )
        out.append(boxes.reshape(-1, 4))
    return np.concatenate(out, axis=0)


# ---------------------------------------------------------- box geometry
# ``geometry.intersection_area``, ``geometry.iou`` and ``BBox.intersect`` as
# they were before each box was unpacked once, with ``min`` and ``max`` and
# the ``width``/``height``/``area`` property chain written out. Kept as they
# were, apart from names, so the rewrite is checked float for float.

def reference_area(b: BBox) -> float:
    width = b.x2 - b.x1
    height = b.y2 - b.y1
    return width * height


def reference_intersection_area(a: BBox, b: BBox) -> float:
    w = min(a.x2, b.x2) - max(a.x1, b.x1)
    h = min(a.y2, b.y2) - max(a.y1, b.y1)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def reference_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes.

    Degenerate pairs with zero union area score 0: identical zero-area boxes
    carry no structure, so 0/0 is resolved downward.
    """
    inter = reference_intersection_area(a, b)
    union = reference_area(a) + reference_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def reference_intersect(a: BBox, b: BBox) -> BBox | None:
    """Intersection box, or None when the boxes do not overlap."""
    x1 = max(a.x1, b.x1)
    y1 = max(a.y1, b.y1)
    x2 = min(a.x2, b.x2)
    y2 = min(a.y2, b.y2)
    if x2 < x1 or y2 < y1:
        return None
    return BBox(x1, y1, x2, y2)


# ------------------------------------------------------------ COCO AP
# The list-based evaluation ``cocoeval.evaluate_corpus`` replaced with one
# numpy pass per image: pure-Python IoU rows per (class, size bucket), a
# greedy loop per threshold and a Python AP walk. Kept as it was, apart from
# imports and names, so the array version is checked float for float.

class SizeBucket(enum.Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


def classify_size(b: BBox) -> SizeBucket:
    """Bucket by area: small < 32^2 <= medium < 64^2 <= large.

    Both boundary areas land in the upper bucket so the buckets partition
    all valid boxes.
    """
    area = reference_area(b)
    if area < 32.0 * 32.0:
        return SizeBucket.SMALL
    if area < 64.0 * 64.0:
        return SizeBucket.MEDIUM
    return SizeBucket.LARGE


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


def reference_average_precision(tp_fp_sequence: list[bool], n_ground_truth: int) -> float:
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
    for level in range(101):
        idx = bisect_left(recalls, level / 100.0)
        if idx < len(recalls):
            total += precisions[idx]
    return total / 101


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
            self.rows_by_image.append([[reference_iou(p.box, g.box) for g in gts] for p in preds])
            neg_scores.extend(-p.score for p in preds)
        self.order = sorted(range(len(neg_scores)), key=neg_scores.__getitem__)

    def ap_at(self, threshold: float) -> float:
        labels = [tp for rows in self.rows_by_image for tp in _greedy_match(rows, threshold)]
        return reference_average_precision([labels[i] for i in self.order], self.n_gt)


def reference_evaluate_corpus(
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
                tables[cls] = {t: data.ap_at(t) for t in thresholds}
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


# ---------------------------------------------------------- table HTML parser
# The character scanner ``teds.tree.parse_table_html`` replaced with one
# regex tokenizer. Kept as it was, apart from this name, so the two are held
# to the same trees, the same error messages and the same byte offsets.

STRUCTURE_TAGS = ("table", "thead", "tbody", "tr", "td")

# parent tag -> tags allowed directly underneath
_ALLOWED_CHILDREN = {
    "table": ("thead", "tbody"),
    "thead": ("tr",),
    "tbody": ("tr",),
    "tr": ("td",),
    "td": (),
}


class _Scanner:
    """Tokenizer over the raw fragment, tracking byte offsets for errors."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise HtmlParseError(message, self.pos if offset is None else offset)

    def skip_text(self):
        """Advance past inter-tag content; all text is discarded (structure only)."""
        nxt = self.text.find("<", self.pos)
        self.pos = len(self.text) if nxt < 0 else nxt

    def at_end(self) -> bool:
        self.skip_text()
        return self.pos >= len(self.text)

    def next_tag(self) -> tuple[str, bool, dict[str, str], int]:
        """Return (name, is_closing, attributes, offset) for the next tag."""
        self.skip_text()
        start = self.pos
        if start >= len(self.text) or self.text[start] != "<":
            self.error("expected a tag")
        end = self.text.find(">", start)
        if end < 0:
            self.error("unterminated tag", start)
        raw = self.text[start + 1 : end].strip()
        self.pos = end + 1
        if raw.endswith("/"):
            self.error("self-closing tags are not part of the table grammar", start)
        closing = raw.startswith("/")
        if closing:
            raw = raw[1:].strip()
        # any whitespace separates the name from the attributes, as in HTML
        parts = raw.split(None, 1)
        name = parts[0].lower() if parts else ""
        attr_text = parts[1] if len(parts) > 1 else ""
        if not name:
            self.error("empty tag", start)
        if closing and attr_text.strip():
            self.error(f"attributes on closing tag </{name}>", start)
        attrs = _parse_attrs(attr_text, self, start)
        return name, closing, attrs, start


def _parse_attrs(text: str, scanner: _Scanner, offset: int) -> dict[str, str]:
    attrs: dict[str, str] = {}
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        j = i
        while j < n and text[j] != "=" and not text[j].isspace():
            j += 1
        key = text[i:j].lower()
        while j < n and text[j].isspace():
            j += 1
        if j >= n or text[j] != "=":
            scanner.error(f"attribute {key!r} without value", offset)
        j += 1
        while j < n and text[j].isspace():
            j += 1
        if j < n and text[j] in "\"'":
            quote = text[j]
            k = text.find(quote, j + 1)
            if k < 0:
                scanner.error(f"unterminated value for attribute {key!r}", offset)
            attrs[key] = text[j + 1 : k]
            i = k + 1
        else:
            k = j
            while k < n and not text[k].isspace():
                k += 1
            attrs[key] = text[j:k]
            i = k
    return attrs


# int() alone would also take "_" separators and non-ASCII digits
_SPAN_VALUE = re.compile(r"\s*[+-]?[0-9]+\s*")
# the WHATWG HTML limits for td/th spans
_SPAN_LIMITS = {"colspan": 1000, "rowspan": 65534}


def _span_value(attrs: dict[str, str], key: str, scanner: _Scanner, offset: int) -> int:
    raw = attrs.get(key)
    if raw is None:
        return 1
    if _SPAN_VALUE.fullmatch(raw) is None:
        scanner.error(f"non-integer {key} value {raw!r}", offset)
    limit = _SPAN_LIMITS[key]
    try:
        value = int(raw)
    except ValueError:  # int() converts at most 4300 digits
        scanner.error(f"{key} value of {len(raw)} characters exceeds {limit}", offset)
    if value < 1:
        scanner.error(f"{key} value {value} < 1", offset)
    if value > limit:
        scanner.error(f"{key} value {value} exceeds {limit}", offset)
    return value


def _skip_cell_content(scanner: _Scanner, cell_tag: str, cell_offset: int):
    """Consume everything up to the matching closing tag.

    Unknown tags (formatting, line breaks, ...) are dropped without balance
    checks; structure tags inside a cell are rejected.
    """
    while True:
        if scanner.at_end():
            scanner.error(f"<{cell_tag}> never closed", cell_offset)
        name, closing, _, offset = scanner.next_tag()
        if name == cell_tag and closing:
            return
        if name in ("td", "th"):
            scanner.error("nested table cell", offset)
        if name in STRUCTURE_TAGS:
            scanner.error(f"structure tag <{name}> inside a cell", offset)


def reference_parse_table_html(fragment: str) -> TableTree:
    """Parse a single table fragment into its structure tree.

    th cells are normalized to td. Text and unknown tags inside cells are
    dropped. Structural violations (unbalanced tags, td outside tr, bad span
    values) raise HtmlParseError with the byte offset.
    """
    scanner = _Scanner(fragment)
    name, closing, _, offset = scanner.next_tag()
    if closing or name != "table":
        scanner.error("fragment must start with <table>", offset)
    root = TableTree("table")
    stack: list[TableTree] = [root]

    while stack:
        if scanner.at_end():
            scanner.error(f"<{stack[-1].tag}> never closed", len(fragment))
        name, closing, attrs, offset = scanner.next_tag()
        normalized = "td" if name == "th" else name
        if closing:
            if normalized != stack[-1].tag:
                scanner.error(
                    f"</{name}> does not match open <{stack[-1].tag}>", offset
                )
            stack.pop()
            continue
        if normalized not in STRUCTURE_TAGS:
            scanner.error(f"unexpected tag <{name}>", offset)
        parent = stack[-1]
        if normalized not in _ALLOWED_CHILDREN[parent.tag]:
            scanner.error(f"<{normalized}> not allowed inside <{parent.tag}>", offset)
        if normalized == "td":
            node = TableTree(
                "td",
                colspan=_span_value(attrs, "colspan", scanner, offset),
                rowspan=_span_value(attrs, "rowspan", scanner, offset),
            )
            parent.children.append(node)
            _skip_cell_content(scanner, name, offset)
        else:
            node = TableTree(normalized)
            parent.children.append(node)
            stack.append(node)

    if not scanner.at_end():
        scanner.error("content after </table>")
    return root


# ------------------------------------------------------------ instance loader
# The instance parser that ``formats._parse_instance`` replaced with inline
# type and range checks: a generator over ``_is_finite_number``, ``min``/``max``
# clamping and tuple comparison. Kept as it was, apart from names and imports,
# so the inline version is checked message for message and bit for bit.

_FLOAT_MAX = sys.float_info.max
_INSTANCE_FIELDS = frozenset({"bbox", "class_id", "score", "content_bbox"})
_CLASS_BY_ID = tuple(ComponentClass)
_formats_log = logging.getLogger("tsrkit.formats")


def _at(image: int, instance: int | None = None) -> str:
    path = f"$.images[{image}]"
    return path if instance is None else f"{path}.instances[{instance}]"


def _is_finite_number(value) -> bool:
    """A JSON number within float range: booleans, infinities and NaN are not."""
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _clamped_bbox(raw, width: float, height: float, image: int, instance: int, key: str) -> BBox:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
        raise SchemaError(f"{_at(image, instance)}.{key}: bbox must be a 4-element array, got {raw!r}")
    if not all(map(_is_finite_number, raw)):
        raise SchemaError(f"{_at(image, instance)}.{key}: bbox holds non-finite or non-numeric values {raw!r}")
    x1, y1, x2, y2 = map(float, raw)
    clamped = (
        min(max(x1, 0.0), width),
        min(max(y1, 0.0), height),
        min(max(x2, 0.0), width),
        min(max(y2, 0.0), height),
    )
    if clamped != (x1, y1, x2, y2):
        _formats_log.warning("%s.%s: bbox %s clamped to %s", _at(image, instance), key, (x1, y1, x2, y2), clamped)
    if not (clamped[2] >= clamped[0] and clamped[3] >= clamped[1]):
        raise SchemaError(f"{_at(image, instance)}.{key}: bbox {raw!r} inverted after clamping")
    return BBox(*clamped)


def reference_parse_instance(raw, width, height, label_mode, is_ground_truth, image, instance) -> ComponentInstance:
    if not isinstance(raw, dict):
        raise SchemaError(f"{_at(image, instance)}: instance must be an object")
    if "bbox" not in raw:
        raise SchemaError(f"{_at(image, instance)}: missing bbox")
    if "class_id" not in raw:
        raise SchemaError(f"{_at(image, instance)}: missing class_id")
    box = _clamped_bbox(raw["bbox"], width, height, image, instance, "bbox")

    class_id = raw["class_id"]
    if not (type(class_id) is int and 0 <= class_id <= 6):
        raise SchemaError(f"{_at(image, instance)}.class_id: must be an integer in 0..6, got {class_id!r}")
    if class_id == 6 and label_mode is not LabelMode.SINGLE:
        raise SchemaError(
            f"{_at(image, instance)}.class_id: class 6 (pseudo header row) requires label_mode = single"
        )

    score = raw.get("score")
    if score is not None:
        if is_ground_truth:
            raise SchemaError(f"{_at(image, instance)}.score: ground truth must not carry scores")
        if not (_is_finite_number(score) and 0.0 <= score <= 1.0):
            raise SchemaError(f"{_at(image, instance)}.score: must lie in [0, 1], got {score!r}")
        score = float(score)

    content_box = None
    if raw.get("content_bbox") is not None:
        if not is_ground_truth:
            raise SchemaError(f"{_at(image, instance)}.content_bbox: only ground truth carries content extents")
        content_box = _clamped_bbox(raw["content_bbox"], width, height, image, instance, "content_bbox")

    extra = {k: v for k, v in raw.items() if k not in _INSTANCE_FIELDS}
    return ComponentInstance(box, _CLASS_BY_ID[class_id], score, content_box, extra)


# ------------------------------------------------------------- corpus loader
# The corpus loader as it was before detections became columns: each image's
# instances checked in bulk into a list of ``ComponentInstance`` records
# built with ``tuple.__new__``, and any image the bulk check doubts parsed
# one instance at a time (by ``reference_parse_instance``, which the tests
# hold equal to ``formats._parse_instance``). Kept as it was, apart from
# names, imports and the file read, so records, errors and clamp log records
# are checked against it.

_new_bbox = partial(tuple.__new__, BBox)
_new_instance = partial(tuple.__new__, ComponentInstance)


def _boxes_in_bulk(raws: tuple, width: float, height: float) -> list[BBox] | None:
    if set(map(type, raws)) != {list} or set(map(len, raws)) != {4}:
        return None
    x1, y1, x2, y2 = columns = tuple(zip(*raws))
    types = set(map(type, chain.from_iterable(columns)))
    if not types.issubset((int, float)):
        return None
    if not (
        all(map(le, x1, x2))
        and all(map(le, y1, y2))
        and 0.0 <= min(x1)
        and max(x2) <= width
        and 0.0 <= min(y1)
        and max(y2) <= height
    ):
        return None
    if int in types:
        raws = zip(*(map(float, column) for column in columns))
    return list(map(_new_bbox, raws))


def reference_instances_in_bulk(raws: list, width, height, label_mode, is_ground_truth) -> list | None:
    if not raws:
        return []
    if set(map(type, raws)) != {dict}:
        return None
    optional = "content_bbox" if is_ground_truth else "score"
    keys = ("bbox", "class_id", optional) if optional in raws[0] else ("bbox", "class_id")
    if set(map(len, raws)) != {len(keys)}:
        return None
    try:
        bboxes, class_ids, *optionals = zip(*map(itemgetter(*keys), raws))
    except KeyError:
        return None
    if not (
        set(map(type, class_ids)) == {int}
        and min(class_ids) >= 0
        and max(class_ids) <= (6 if label_mode is LabelMode.SINGLE else 5)
    ):
        return None
    boxes = _boxes_in_bulk(bboxes, width, height)
    if boxes is None:
        return None
    scores = content_boxes = repeat(None)
    if optionals and is_ground_truth:
        content_boxes = _boxes_in_bulk(optionals[0], width, height)
        if content_boxes is None:
            return None
    elif optionals:
        scores = optionals[0]
        types = set(map(type, scores))
        if not (
            types.issubset((int, float))
            and all(map(le, repeat(0.0), scores))
            and all(map(le, scores, repeat(1.0)))
        ):
            return None
        if int in types:
            scores = map(float, scores)
    classes = map(_CLASS_BY_ID.__getitem__, class_ids)
    extras = [{} for _ in raws]
    return list(map(_new_instance, zip(boxes, classes, scores, content_boxes, extras)))


class ReferenceImage(NamedTuple):
    image_id: str
    width: float
    height: float
    instances: list
    html: str | None
    extra: dict


def _reference_image(raw, label_mode, is_ground_truth, image) -> ReferenceImage:
    if not isinstance(raw, dict):
        raise SchemaError(f"{_at(image)}: image record must be an object")
    known = {"image_id", "width", "height", "instances", "html"}
    for key in ("image_id", "width", "height"):
        if key not in raw:
            raise SchemaError(f"{_at(image)}: missing {key}")
    image_id = raw["image_id"]
    if not (isinstance(image_id, str) and image_id):
        raise SchemaError(f"{_at(image)}.image_id: must be a non-empty string")
    for key in ("width", "height"):
        if not (_is_finite_number(raw[key]) and raw[key] > 0):
            raise SchemaError(f"{_at(image)}.{key}: must be a positive finite number, got {raw[key]!r}")
    width, height = float(raw["width"]), float(raw["height"])
    if not math.isfinite(2.0 * width * height):
        raise SchemaError(f"{_at(image)}: image area {width!r} x {height!r} overflows")
    instances_raw = raw.get("instances", [])
    if not isinstance(instances_raw, list):
        raise SchemaError(f"{_at(image)}.instances: must be an array")
    instances = reference_instances_in_bulk(instances_raw, width, height, label_mode, is_ground_truth)
    if instances is None:
        instances = [
            reference_parse_instance(inst, width, height, label_mode, is_ground_truth, image, i)
            for i, inst in enumerate(instances_raw)
        ]
    html = raw.get("html")
    if html is not None:
        if not is_ground_truth:
            raise SchemaError(f"{_at(image)}.html: only ground truth carries structure html")
        if not isinstance(html, str):
            raise SchemaError(f"{_at(image)}.html: must be a string")
    extra = {k: v for k, v in raw.items() if k not in known}
    return ReferenceImage(image_id, width, height, instances, html, extra)


def reference_load(path: str, is_ground_truth: bool) -> tuple[LabelMode, list[ReferenceImage], dict]:
    """(label mode, image records, file-level extra fields) of one corpus file."""
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    try:
        if not isinstance(raw, dict):
            raise SchemaError("$: top level must be an object")
        version = raw.get("schema_version")
        if type(version) is not int or version != 1:
            raise SchemaError(f"$.schema_version: unsupported version {version!r} (expected 1)")
        mode_raw = raw.get("label_mode")
        if mode_raw not in ("multi", "single"):
            raise SchemaError(f"$.label_mode: must be 'multi' or 'single', got {mode_raw!r}")
        label_mode = LabelMode(mode_raw)
        images_raw = raw.get("images")
        if not isinstance(images_raw, list):
            raise SchemaError("$.images: must be an array")
        images = [_reference_image(img, label_mode, is_ground_truth, i) for i, img in enumerate(images_raw)]
        seen = set()
        for i, rec in enumerate(images):
            if rec.image_id in seen:
                raise SchemaError(f"{_at(i)}.image_id: duplicate id {rec.image_id!r}")
            seen.add(rec.image_id)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    extra = {k: v for k, v in raw.items() if k not in ("schema_version", "label_mode", "images")}
    return label_mode, images, extra


def reference_trees(path: str, images) -> dict:
    """``CorpusFile.trees_by_image`` of the ``images`` loaded from ``path``.

    Every html is parsed by ``parse_table_html``; the first that does not
    parse raises ``SchemaError`` naming the file and ``$.images[i].html``.
    Only then is the first image without html rejected.
    """
    trees = {}
    for i, rec in enumerate(images):
        if rec.html is not None:
            try:
                trees[rec.image_id] = parse_table_html(rec.html)
            except HtmlParseError as exc:
                raise SchemaError(f"{path}: {_at(i)}.html: does not parse: {exc}") from exc
    for i, rec in enumerate(images):
        if rec.html is None:
            raise SchemaError(f"{path}: {_at(i)}: missing html")
    return trees


# --------------------------------------------------------------- label decode
# ``labels.decode_pseudo`` as it was before it ran on columns: one loop over
# the instances, building each output instance. Kept as it was, apart from
# names, imports and a plain list in and out.

def _reference_content_box(value, image_id: str, key: str) -> BBox | None:
    if value is None:
        return None
    if (
        isinstance(value, (list, tuple))
        and len(value) == 4
        and all(type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX for v in value)
        and value[2] >= value[0]
        and value[3] >= value[1]
    ):
        return BBox(*map(float, value))
    raise LabelConsistencyError(
        f"{image_id}: {key} must be null or a box [x1, y1, x2, y2] with x1 <= x2 and y1 <= y2, got {value!r}"
    )


def _reference_split(inst: ComponentInstance, image_id: str, extra_key: str, content_key: str):
    extra = inst.extra
    content_box = inst.content_box
    if content_key in extra:
        content_box = _reference_content_box(extra[content_key], image_id, content_key)
        extra = {k: v for k, v in extra.items() if k != content_key}
    if isinstance(extra.get(extra_key), dict):
        return {k: v for k, v in extra.items() if k != extra_key}, extra[extra_key], content_box
    return extra, extra, content_box


def reference_decode_pseudo(instances, image_id: str) -> list[ComponentInstance]:
    """Single-label instances back to the multi-label list, in order."""
    out: list[ComponentInstance] = []
    for inst in instances:
        if inst.cls == ComponentClass.PROJECTED_ROW_HEADER:
            own_extra, row_extra, row_content = _reference_split(inst, image_id, "row_extra", "row_content_bbox")
            if own_extra is not inst.extra:
                inst = ComponentInstance(inst.box, inst.cls, inst.score, inst.content_box, own_extra)
            out.append(inst)
            out.append(ComponentInstance(inst.box, ComponentClass.ROW, inst.score, row_content, row_extra))
        elif inst.cls == ComponentClass.PSEUDO_HEADER_ROW:
            row_extra, header_extra, header_content = _reference_split(
                inst, image_id, "column_header_extra", "column_header_content_bbox"
            )
            out.append(ComponentInstance(inst.box, ComponentClass.ROW, inst.score, inst.content_box, row_extra))
            out.append(
                ComponentInstance(inst.box, ComponentClass.COLUMN_HEADER, inst.score, header_content, header_extra)
            )
        else:
            out.append(inst)
    return out


# --------------------------------------------------------------- label encode
# ``labels.encode_pseudo`` as it was before one coincidence scan served its
# checks: a pairwise scan for box sharing, one for Row-to-header pairing and
# one for the encoded result. Kept as it was, apart from names and imports.

def _reference_check_single_label_invariants(instances, image_id: str):
    for i, a in enumerate(instances):
        for b in instances[i + 1 :]:
            if a.cls != b.cls and _reference_boxes_match(a.box, b.box):
                raise LabelConsistencyError(
                    f"{image_id}: distinct classes {a.cls.name} and {b.cls.name} share box "
                    f"{a.box.as_tuple()} after pseudo-class encoding"
                )


def reference_encode_pseudo(gt: AnnotationSet) -> AnnotationSet:
    """Multi-label ground truth to the single-label formulation."""
    if gt.mode is LabelMode.SINGLE:
        raise LabelModeError(f"{gt.image_id}: input already in single-label mode")

    instances = list(gt.instances)

    # Reject box sharing beyond the two sanctioned two-class patterns.
    for i, a in enumerate(instances):
        sharers = {a.cls}
        for j, b in enumerate(instances):
            if i != j and b.cls != a.cls and _reference_boxes_match(a.box, b.box):
                sharers.add(b.cls)
        if len(sharers) > 2:
            names = ", ".join(sorted(c.name for c in sharers))
            raise LabelConsistencyError(
                f"{gt.image_id}: box {a.box.as_tuple()} shared by classes {{{names}}}"
            )

    partners = [
        j
        for j, inst in enumerate(instances)
        if inst.cls in (ComponentClass.PROJECTED_ROW_HEADER, ComponentClass.COLUMN_HEADER)
    ]
    row_of: dict[int, int] = {}  # partner index -> index of its Row
    for idx, inst in enumerate(instances):
        if inst.cls != ComponentClass.ROW:
            continue
        matches = [j for j in partners if _reference_boxes_match(inst.box, instances[j].box)]
        if not matches:
            continue
        free = next((j for j in matches if j not in row_of), None)
        if free is None:
            raise LabelConsistencyError(
                f"{gt.image_id}: a second Row at box {inst.box.as_tuple()} coincides with one "
                f"{instances[matches[0]].cls.name}"
            )
        row_of[free] = idx
    partner_of = {row: j for j, row in row_of.items()}

    result = []
    for idx, inst in enumerate(instances):
        if idx in partner_of:
            partner = instances[partner_of[idx]]
            if partner.cls == ComponentClass.COLUMN_HEADER:
                extra = _reference_absorb(inst, partner, "column_header_extra", "column_header_content_bbox")
                result.append(inst.replace(cls=ComponentClass.PSEUDO_HEADER_ROW, extra=extra))
            # a Row under a Projected Row Header is dropped
        elif idx in row_of:
            if inst.cls == ComponentClass.PROJECTED_ROW_HEADER:
                extra = _reference_absorb(inst, instances[row_of[idx]], "row_extra", "row_content_bbox")
                result.append(inst.replace(extra=extra))
            # a Column Header is folded into its Row's pseudo header row
        elif inst.cls == ComponentClass.PROJECTED_ROW_HEADER:
            raise LabelConsistencyError(
                f"{gt.image_id}: Projected Row Header at box {inst.box.as_tuple()} coincides with no Row of its own"
            )
        else:
            result.append(inst)
    _reference_check_single_label_invariants(result, gt.image_id)
    return AnnotationSet(gt.image_id, tuple(result), LabelMode.SINGLE)


def _reference_absorb(kept: ComponentInstance, absorbed: ComponentInstance, extra_key: str, content_key: str) -> dict:
    extra = kept.extra if absorbed.extra == kept.extra else {**kept.extra, extra_key: absorbed.extra}
    if absorbed.content_box != kept.content_box:
        content = absorbed.content_box
        extra = {**extra, content_key: None if content is None else list(content)}
    return extra


def as_pairs(ann: AnnotationSet) -> set[tuple[tuple[float, float, float, float], ComponentClass]]:
    """The (box, class) set; collapses duplicates, which the transforms never emit."""
    return {(inst.box.as_tuple(), inst.cls) for inst in ann.instances}


# ----------------------------------------------------------- grid reference
# build_grid as it was before merge placement became one rule: one sort and a
# per-class greedy NMS list, Table clipping, then spans placed under a boolean
# ``taken`` matrix with skip rules of their own. The grid is then checked by
# the old ``TableGrid`` validation (an ``owner`` matrix) and rendered through
# the old cell matrix. Kept as it was, apart from names, inlined helpers and
# constants, a plain tuple as the grid, and two rules stated as they now are:
# the header is the run of rows from the top whose centres lie in a Column
# Header, and a projected row is a merge over its whole row, listed before
# every span.

class ReferenceGrid(NamedTuple):
    n_rows: int
    n_cols: int
    merges: tuple[tuple[int, int, int, int], ...]  # (row, col, row_span, col_span)
    header_rows: int  # the first header_rows rows form the header


def _reference_boxes_match(a: BBox, b: BBox, tolerance: float = 1.0) -> bool:
    return (
        abs(a.x1 - b.x1) <= tolerance
        and abs(a.y1 - b.y1) <= tolerance
        and abs(a.x2 - b.x2) <= tolerance
        and abs(a.y2 - b.y2) <= tolerance
    )


def _reference_validate(grid: ReferenceGrid):
    if grid.n_rows < 1 or grid.n_cols < 1:
        raise ValueError("grid needs at least one row and one column")
    if grid.header_rows < 0 or grid.header_rows > grid.n_rows:
        raise ValueError(f"header row count {grid.header_rows} outside 0..{grid.n_rows}")
    owner = [[None] * grid.n_cols for _ in range(grid.n_rows)]
    for m in grid.merges:
        r0, c0, rs, cs = m
        if r0 + rs > grid.n_rows or c0 + cs > grid.n_cols:
            raise ValueError(f"merge {m} exceeds grid bounds")
        header_overlap = [r < grid.header_rows for r in range(r0, r0 + rs)]
        if any(header_overlap) and not all(header_overlap):
            raise ValueError(f"merge {m} crosses the header/body boundary")
        for r in range(r0, r0 + rs):
            for c in range(c0, c0 + cs):
                if owner[r][c] is not None:
                    raise ValueError(f"cell ({r},{c}) claimed twice")
                owner[r][c] = m


def reference_build_grid(detections) -> ReferenceGrid:
    survivors = sorted(
        (inst for inst in detections.instances if inst.score is None or inst.score >= 0.5),
        key=lambda inst: (int(inst.cls), -(inst.score if inst.score is not None else 1.0), inst.box),
    )
    by_class = {}
    for cls in ComponentClass:
        kept = []
        for inst in (i for i in survivors if i.cls == cls):
            if all(reference_iou(inst.box, k.box) < 0.5 for k in kept):
                kept.append(inst)
        by_class[cls] = kept

    table_box = by_class[ComponentClass.TABLE][0].box if by_class[ComponentClass.TABLE] else None

    def clipped(instances):
        if table_box is None:
            return [i.box for i in instances]
        boxes = []
        for inst in instances:
            inter = reference_intersect(inst.box, table_box)
            if inter is not None and reference_area(inter) > 0.0:
                boxes.append(inter)
        return boxes

    row_boxes = sorted(clipped(by_class[ComponentClass.ROW]), key=lambda b: (b.y1, b.x1))
    col_boxes = sorted(clipped(by_class[ComponentClass.COLUMN]), key=lambda b: (b.x1, b.y1))
    if not row_boxes or not col_boxes:
        raise EmptyStructureError(f"{len(row_boxes)} rows and {len(col_boxes)} columns survive thresholding")
    n_rows, n_cols = len(row_boxes), len(col_boxes)

    header_rows = 0
    for row in row_boxes:
        cx, cy = row.center
        if not any(h.box.contains_point(cx, cy) for h in by_class[ComponentClass.COLUMN_HEADER]):
            break
        header_rows += 1

    merges = []
    taken = [[False] * n_cols for _ in range(n_rows)]
    for r, row in enumerate(row_boxes):
        if any(_reference_boxes_match(row, prh.box) for prh in by_class[ComponentClass.PROJECTED_ROW_HEADER]):
            taken[r] = [True] * n_cols
            merges.append((r, 0, 1, n_cols))
    for span in by_class[ComponentClass.SPANNING_CELL]:
        covered = []
        for r in range(n_rows):
            for c in range(n_cols):
                cell = reference_intersect(row_boxes[r], col_boxes[c])
                if cell is None or reference_area(cell) <= 0.0:
                    continue
                if reference_intersection_area(span.box, cell) / reference_area(cell) >= 0.5:
                    covered.append((r, c))
        if not covered:
            continue
        r0 = min(r for r, _ in covered)
        r1 = max(r for r, _ in covered)
        c0 = min(c for _, c in covered)
        c1 = max(c for _, c in covered)
        if r0 == r1 and c0 == c1:
            continue
        in_header = [r < header_rows for r in range(r0, r1 + 1)]
        if any(in_header) and not all(in_header):
            continue
        if any(taken[r][c] for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)):
            continue
        for r in range(r0, r1 + 1):
            for c in range(c0, c1 + 1):
                taken[r][c] = True
        merges.append((r0, c0, r1 - r0 + 1, c1 - c0 + 1))

    grid = ReferenceGrid(n_rows, n_cols, tuple(merges), header_rows)
    _reference_validate(grid)
    return grid


def reference_grid_html(grid: ReferenceGrid) -> str:
    anchors = [[(r, c) for c in range(grid.n_cols)] for r in range(grid.n_rows)]
    for r0, c0, rs, cs in grid.merges:
        for r in range(r0, r0 + rs):
            for c in range(c0, c0 + cs):
                anchors[r][c] = (r0, c0)
    spans = {(r0, c0): (cs, rs) for r0, c0, rs, cs in grid.merges}
    thead, tbody = TableTree("thead"), TableTree("tbody")
    for r in range(grid.n_rows):
        tr = TableTree("tr")
        for c in range(grid.n_cols):
            if anchors[r][c] == (r, c):
                colspan, rowspan = spans.get((r, c), (1, 1))
                tr.children.append(TableTree("td", colspan=colspan, rowspan=rowspan))
        (thead if r < grid.header_rows else tbody).children.append(tr)
    return TableTree("table", children=[thead, tbody] if thead.children else [tbody]).to_html()


# ---------------------------------------------------------- perturbations
# ``misalign.perturb`` one ``ComponentInstance`` at a time, copied with
# ``replace``, and with error messages that name no image: each target is
# transformed where it stands (a merge unions the closest pair into the upper
# box with ``min`` and ``max`` and drops the lower one), every box is then
# clamped into the image one coordinate at a time, as the loader clamps a box
# it reads, and the instances are sorted stably by (class, y1, x1).

def reference_perturb(gt: AnnotationSet, spec: PerturbationSpec, width: float, height: float) -> AnnotationSet:
    out = list(gt.instances)
    targets = [i for i, inst in enumerate(out) if inst.cls in spec.target_classes]
    if spec.mode is PerturbationMode.MERGE_ADJACENT:
        if len(targets) >= 2:
            ordered = sorted(targets, key=lambda i: (out[i].box.y1, out[i].box.x1))
            gaps = [(out[ordered[k + 1]].box.y1 - out[ordered[k]].box.y2, k) for k in range(len(ordered) - 1)]
            _, at = min(gaps)
            upper, lower = ordered[at], ordered[at + 1]
            a, b = out[upper].box, out[lower].box
            union = BBox(min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2))
            out[upper] = out[upper].replace(box=union)
            del out[lower]
    else:
        for i in targets:
            out[i] = _reference_transform(out[i], spec)

    def clamped(box):
        x1, y1, x2, y2 = box
        return BBox(
            min(max(x1, 0.0), width), min(max(y1, 0.0), height), min(max(x2, 0.0), width), min(max(y2, 0.0), height)
        )

    out = [inst.replace(box=clamped(inst.box), score=1.0, content_box=None) for inst in out]
    out.sort(key=lambda inst: (inst.cls, inst.box.y1, inst.box.x1))
    return AnnotationSet(gt.image_id, tuple(out), LabelMode.MULTI)


def _reference_transform(inst: ComponentInstance, spec: PerturbationSpec) -> ComponentInstance:
    if spec.mode is PerturbationMode.DILATE:
        return inst.replace(box=inst.box.inflate(spec.magnitude))
    if spec.mode is PerturbationMode.SHRINK:
        x1, y1, x2, y2 = inst.box
        if 2 * spec.magnitude >= min(x2 - x1, y2 - y1):
            raise ValueError(
                f"shrink by {spec.magnitude} degenerates box {inst.box.as_tuple()}"
            )
        return inst.replace(box=inst.box.inflate(-spec.magnitude))
    if spec.mode is PerturbationMode.SNAP_TO_MINIMAL:
        if inst.content_box is None:
            raise ValueError(
                f"{inst.cls.name} at {inst.box.as_tuple()} carries no content extent"
            )
        return inst.replace(box=inst.content_box)
    raise AssertionError(spec.mode)
