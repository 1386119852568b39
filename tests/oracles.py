"""Independent reference implementations the tests check the library against.

Nothing here shares code paths with the library: the tree distance oracle
enumerates edit mappings instead of running the forest DP, the AP oracle
evaluates the interpolation definition directly, the anchor oracle scores
every anchor instead of the nearest one per level and ratio, the corpus AP
reference is the list-based evaluation with ``geometry.iou``, a greedy loop
per threshold and its own size buckets, the table-HTML parser reference is
the character scanner that the regex tokenizer replaced, the instance
loader reference is the parser that inline checks replaced, and the
convolution oracle is plain nested loops.
"""

from __future__ import annotations

import enum
import logging
import random
import re
import sys
from bisect import bisect_left

import numpy as np

from tsrkit.cocoeval import ApReport, MatchConfig
from tsrkit.errors import CorpusError, HtmlParseError, SchemaError
from tsrkit.geometry import BBox, iou
from tsrkit.labels import ComponentClass, ComponentInstance, LabelMode
from tsrkit.teds import TableTree


def _postorder(root: TableTree) -> list[TableTree]:
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
    nodes_a = _postorder(a)
    nodes_b = _postorder(b)
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
    nearest-centre method (ROADMAP item 2): O(G * N) against O(G * L * R).
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
    area = b.area
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
            self.rows_by_image.append([[iou(p.box, g.box) for g in gts] for p in preds])
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
