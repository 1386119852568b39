"""Table-component classes and the pseudo-class label transform.

Ground truth for table structure detection is multi-label: a Projected Row
Header is always also a Row, and a one-row Column Header shares its box with
that Row. The single-label form removes Rows coincident with Projected Row
Headers and folds coincident Row/Column-Header pairs into a seventh pseudo
class, so that no two instances with different classes share a box. The
inverse transform duplicates predictions back into the multi-label form.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field, replace

from .errors import LabelConsistencyError, LabelModeError
from .geometry import BBox


class ComponentClass(enum.IntEnum):
    TABLE = 0
    COLUMN = 1
    ROW = 2
    SPANNING_CELL = 3
    PROJECTED_ROW_HEADER = 4
    COLUMN_HEADER = 5
    PSEUDO_HEADER_ROW = 6  # single-label mode only

    @property
    def display_name(self) -> str:
        return self.name.replace("_", " ").title()


# Classes legal in the multi-label formulation.
MULTI_LABEL_CLASSES = tuple(c for c in ComponentClass if c.value <= 5)

# Two boxes coincide when every coordinate differs by at most this many px.
BOX_MATCH_TOLERANCE = 1.0

# The extra fields of a pseudo header row that hold its Column Header's fields
# and content extent.
HEADER_EXTRA_KEY = "column_header_extra"
HEADER_CONTENT_KEY = "column_header_content_bbox"
# The extra fields of a Projected Row Header that hold the fields and content
# extent of the Row dropped under it.
ROW_EXTRA_KEY = "row_extra"
ROW_CONTENT_KEY = "row_content_bbox"

_FLOAT_MAX = sys.float_info.max


class LabelMode(enum.Enum):
    MULTI = "multi"
    SINGLE = "single"


@dataclass(frozen=True)
class ComponentInstance:
    """One detected or annotated table component.

    ``score`` is absent for ground truth. ``content_box`` is the minimum box
    covering the component's content, carried only by synthetic fixtures that
    feed the metric-misalignment experiments. ``extra`` holds the record's
    unknown JSON fields; it takes no part in equality or hashing.
    """

    box: BBox
    cls: ComponentClass
    score: float | None = None
    content_box: BBox | None = None
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError(f"confidence {self.score} outside [0, 1]")


@dataclass(frozen=True)
class AnnotationSet:
    image_id: str
    instances: tuple[ComponentInstance, ...]
    mode: LabelMode = LabelMode.MULTI

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))

    def as_pairs(self) -> set[tuple[tuple[float, float, float, float], ComponentClass]]:
        """The (box, class) set; collapses duplicates, which the transforms never emit."""
        return {(inst.box.as_tuple(), inst.cls) for inst in self.instances}


def boxes_match(a: BBox, b: BBox, tolerance: float) -> bool:
    """True when all four coordinates differ by at most ``tolerance`` px."""
    return (
        abs(a.x1 - b.x1) <= tolerance
        and abs(a.y1 - b.y1) <= tolerance
        and abs(a.x2 - b.x2) <= tolerance
        and abs(a.y2 - b.y2) <= tolerance
    )


def _check_single_label_invariants(instances):
    for i, a in enumerate(instances):
        for b in instances[i + 1 :]:
            if a.cls != b.cls and boxes_match(a.box, b.box, BOX_MATCH_TOLERANCE):
                raise LabelConsistencyError(
                    f"distinct classes {a.cls.name} and {b.cls.name} share box "
                    f"{a.box.as_tuple()} after pseudo-class encoding"
                )


def encode_pseudo(gt: AnnotationSet) -> AnnotationSet:
    """Multi-label ground truth to the single-label formulation.

    Boxes match within ``BOX_MATCH_TOLERANCE``. Each Row pairs with the
    first matching Projected Row Header or Column Header not yet paired, in
    instance order, and:
      1. a Row paired with a Projected Row Header is dropped;
      2. a Row/Column-Header pair becomes a single pseudo-header-row
         instance at the Row's box.
    A Row that matches such a header when each matching one is paired
    already is rejected: it would be lost on encoding.

    The instance that stays keeps the fields of the one it absorbed under
    ``ROW_EXTRA_KEY`` or ``HEADER_EXTRA_KEY``, and its content extent (a
    4-number list, or null) under ``ROW_CONTENT_KEY`` or
    ``HEADER_CONTENT_KEY``, each only when the two instances differ in it.
    A box shared by three or more classes has no sanctioned reading and is
    rejected.
    """
    if gt.mode is LabelMode.SINGLE:
        raise LabelModeError(f"{gt.image_id}: input already in single-label mode")

    instances = list(gt.instances)

    # Reject box sharing beyond the two sanctioned two-class patterns.
    for i, a in enumerate(instances):
        sharers = {a.cls}
        for j, b in enumerate(instances):
            if i != j and b.cls != a.cls and boxes_match(a.box, b.box, BOX_MATCH_TOLERANCE):
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
        matches = [j for j in partners if boxes_match(inst.box, instances[j].box, BOX_MATCH_TOLERANCE)]
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
                extra = _absorb(inst, partner, HEADER_EXTRA_KEY, HEADER_CONTENT_KEY)
                result.append(replace(inst, cls=ComponentClass.PSEUDO_HEADER_ROW, extra=extra))
            # a Row under a Projected Row Header is dropped
        elif idx in row_of:
            if inst.cls == ComponentClass.PROJECTED_ROW_HEADER:
                extra = _absorb(inst, instances[row_of[idx]], ROW_EXTRA_KEY, ROW_CONTENT_KEY)
                result.append(replace(inst, extra=extra))
            # a Column Header is folded into its Row's pseudo header row
        else:
            result.append(inst)
    _check_single_label_invariants(result)
    return AnnotationSet(gt.image_id, tuple(result), LabelMode.SINGLE)


def _absorb(kept: ComponentInstance, absorbed: ComponentInstance, extra_key: str, content_key: str) -> dict:
    """``kept``'s fields plus what it needs to give ``absorbed`` back on decoding.

    ``absorbed``'s fields go under ``extra_key`` and its content extent under
    ``content_key``, each only when it differs from ``kept``'s.
    """
    extra = kept.extra if absorbed.extra == kept.extra else {**kept.extra, extra_key: absorbed.extra}
    if absorbed.content_box != kept.content_box:
        content = absorbed.content_box
        extra = {**extra, content_key: None if content is None else list(content.as_tuple())}
    return extra


def _split(
    inst: ComponentInstance, image_id: str, extra_key: str, content_key: str
) -> tuple[dict, dict, BBox | None]:
    """Undo ``_absorb``: (own fields, absorbed fields, absorbed content extent)."""
    extra = inst.extra
    content_box = inst.content_box
    if content_key in extra:
        content_box = _content_box(extra[content_key], image_id, content_key)
        extra = {k: v for k, v in extra.items() if k != content_key}
    if isinstance(extra.get(extra_key), dict):
        return {k: v for k, v in extra.items() if k != extra_key}, extra[extra_key], content_box
    return extra, extra, content_box


def _content_box(value, image_id: str, key: str) -> BBox | None:
    """A content extent stored by ``_absorb``: null or [x1, y1, x2, y2]."""
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


def decode_pseudo(pred: AnnotationSet) -> AnnotationSet:
    """Single-label predictions back to the multi-label formulation.

    Each projected row header is duplicated once into a Row at the same box
    and confidence; each pseudo header row is replaced by a Row plus a Column
    Header at its box and confidence. Both carry the single instance's
    fields and content extent, except that those stored under
    ``ROW_EXTRA_KEY`` and ``ROW_CONTENT_KEY`` go to the Row alone and those
    under ``HEADER_EXTRA_KEY`` and ``HEADER_CONTENT_KEY`` to the header alone.
    """
    if pred.mode is not LabelMode.SINGLE:
        raise LabelModeError(f"{pred.image_id}: input not in single-label mode")

    out: list[ComponentInstance] = []
    for inst in pred.instances:
        if inst.cls == ComponentClass.PROJECTED_ROW_HEADER:
            own_extra, row_extra, row_content = _split(inst, pred.image_id, ROW_EXTRA_KEY, ROW_CONTENT_KEY)
            if own_extra is not inst.extra:
                inst = ComponentInstance(inst.box, inst.cls, inst.score, inst.content_box, own_extra)
            out.append(inst)
            out.append(ComponentInstance(inst.box, ComponentClass.ROW, inst.score, row_content, row_extra))
        elif inst.cls == ComponentClass.PSEUDO_HEADER_ROW:
            row_extra, header_extra, header_content = _split(
                inst, pred.image_id, HEADER_EXTRA_KEY, HEADER_CONTENT_KEY
            )
            out.append(ComponentInstance(inst.box, ComponentClass.ROW, inst.score, inst.content_box, row_extra))
            out.append(
                ComponentInstance(inst.box, ComponentClass.COLUMN_HEADER, inst.score, header_content, header_extra)
            )
        else:
            out.append(inst)
    return AnnotationSet(pred.image_id, tuple(out), LabelMode.MULTI)
