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

# The extra field of a pseudo header row that holds its Column Header's fields.
HEADER_EXTRA_KEY = "column_header_extra"
# The extra field of a Projected Row Header that holds the fields of the Row
# dropped under it.
ROW_EXTRA_KEY = "row_extra"


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

    Boxes match within ``BOX_MATCH_TOLERANCE``. Rules, applied in order:
      1. drop every Row whose box matches a Projected Row Header box;
      2. replace each remaining Row/Column-Header pair with matching boxes by
         a single pseudo-header-row instance at the Row's box.

    The instance that stays keeps the fields of the one it absorbed under
    ``ROW_EXTRA_KEY`` or ``HEADER_EXTRA_KEY``, and only when the two differ.
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

    prh_indices = [
        j for j, inst in enumerate(instances) if inst.cls == ComponentClass.PROJECTED_ROW_HEADER
    ]
    consumed_headers: set[int] = set()
    dropped_row_extra: dict[int, dict] = {}  # Projected Row Header index -> first Row's fields

    out: list[tuple[int, ComponentInstance]] = []
    for idx, inst in enumerate(instances):
        if inst.cls == ComponentClass.ROW:
            prh_idx = next(
                (j for j in prh_indices if boxes_match(inst.box, instances[j].box, BOX_MATCH_TOLERANCE)), None
            )
            if prh_idx is not None:
                dropped_row_extra.setdefault(prh_idx, inst.extra)
                continue
            header_idx = next(
                (
                    j
                    for j, other in enumerate(instances)
                    if other.cls == ComponentClass.COLUMN_HEADER
                    and j not in consumed_headers
                    and boxes_match(inst.box, other.box, BOX_MATCH_TOLERANCE)
                ),
                None,
            )
            if header_idx is not None:
                consumed_headers.add(header_idx)
                extra = _merge_extra(inst.extra, HEADER_EXTRA_KEY, instances[header_idx].extra)
                out.append((idx, replace(inst, cls=ComponentClass.PSEUDO_HEADER_ROW, extra=extra)))
                continue
        out.append((idx, inst))

    result = [
        replace(inst, extra=_merge_extra(inst.extra, ROW_EXTRA_KEY, dropped_row_extra[idx]))
        if idx in dropped_row_extra
        else inst
        for idx, inst in out
        if idx not in consumed_headers
    ]
    _check_single_label_invariants(result)
    return AnnotationSet(gt.image_id, tuple(result), LabelMode.SINGLE)


def _merge_extra(extra: dict, key: str, absorbed: dict) -> dict:
    """``extra`` with the absorbed instance's fields under ``key`` when they differ."""
    return extra if absorbed == extra else {**extra, key: absorbed}


def _split_extra(extra: dict, key: str) -> tuple[dict, dict]:
    """Undo ``_merge_extra``: (own fields, absorbed fields)."""
    if isinstance(extra.get(key), dict):
        return {k: v for k, v in extra.items() if k != key}, extra[key]
    return extra, extra


def decode_pseudo(pred: AnnotationSet) -> AnnotationSet:
    """Single-label predictions back to the multi-label formulation.

    Each projected row header is duplicated once into a Row at the same box
    and confidence; each pseudo header row is replaced by a Row plus a Column
    Header at its box and confidence. Both carry the single instance's
    fields, except that a dict under ``ROW_EXTRA_KEY`` goes to the Row alone
    and one under ``HEADER_EXTRA_KEY`` to the header alone.
    """
    if pred.mode is not LabelMode.SINGLE:
        raise LabelModeError(f"{pred.image_id}: input not in single-label mode")

    out: list[ComponentInstance] = []
    for inst in pred.instances:
        if inst.cls == ComponentClass.PROJECTED_ROW_HEADER:
            header_extra, row_extra = _split_extra(inst.extra, ROW_EXTRA_KEY)
            out.append(inst if header_extra is inst.extra else replace(inst, extra=header_extra))
            out.append(replace(inst, cls=ComponentClass.ROW, extra=row_extra))
        elif inst.cls == ComponentClass.PSEUDO_HEADER_ROW:
            row_extra, header_extra = _split_extra(inst.extra, HEADER_EXTRA_KEY)
            out.append(replace(inst, cls=ComponentClass.ROW, extra=row_extra))
            out.append(replace(inst, cls=ComponentClass.COLUMN_HEADER, extra=header_extra))
        else:
            out.append(inst)
    return AnnotationSet(pred.image_id, tuple(out), LabelMode.MULTI)
