"""Table-component classes and the pseudo-class label transform.

Ground truth for table structure detection is multi-label: a Projected Row
Header is always also a Row, and a one-row Column Header shares its box with
that Row. The single-label form removes Rows coincident with Projected Row
Headers and folds coincident Row/Column-Header pairs into a seventh pseudo
class, so that no two instances with different classes share a box. The
encoder compares each pair of instances once, into a list per instance of
the instances coincident with it, in instance order; its three checks (a box
shared by three classes, Row pairing, the encoded result) read those lists.
The inverse transform duplicates predictions back into the multi-label form.

A ``ComponentInstance`` is an immutable tuple with named fields, like the
``geometry.BBox`` it holds. ``Instances`` holds one image's instances as
columns: box, class and score arrays, with content extents and unknown fields
in a side table. It builds each ``ComponentInstance`` only when one is read,
so the metrics and the score threshold work on the arrays, and
``decode_pseudo`` is an index-and-repeat on them.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import LabelConsistencyError, LabelModeError
from .geometry import BBox, float_box, unchecked_bbox


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
# The classes a coincident Row pairs with on encoding.
_ROW_PARTNERS = (ComponentClass.PROJECTED_ROW_HEADER, ComponentClass.COLUMN_HEADER)

# The extra fields of a pseudo header row that hold its Column Header's fields
# and content extent.
HEADER_EXTRA_KEY = "column_header_extra"
HEADER_CONTENT_KEY = "column_header_content_bbox"
# The extra fields of a Projected Row Header that hold the fields and content
# extent of the Row dropped under it.
ROW_EXTRA_KEY = "row_extra"
ROW_CONTENT_KEY = "row_content_bbox"


class LabelMode(enum.Enum):
    MULTI = "multi"
    SINGLE = "single"


class _InstanceFields(NamedTuple):
    box: BBox
    cls: ComponentClass
    score: float | None
    content_box: BBox | None
    extra: dict


class ComponentInstance(_InstanceFields):
    """One detected or annotated table component, as an immutable tuple.

    ``score`` is absent for ground truth. ``content_box`` is the minimum box
    covering the component's content, carried only by synthetic fixtures that
    feed the metric-misalignment experiments. ``extra`` holds the record's
    unknown JSON fields, a fresh dict unless one is given; it takes no part
    in equality or hashing. Copy with ``replace``, which checks the result
    like a new instance.
    """

    __slots__ = ()

    def __new__(
        _cls,
        box: BBox,
        cls: ComponentClass,
        score: float | None = None,
        content_box: BBox | None = None,
        extra: dict | None = None,
    ):
        if score is not None and not (0.0 <= score <= 1.0):
            raise ValueError(f"confidence {score} outside [0, 1]")
        return tuple.__new__(_cls, (box, cls, score, content_box, {} if extra is None else extra))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self[:4] == other[:4]

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:4])

    def replace(self, **changes) -> "ComponentInstance":
        fields = dict(zip(self._fields, self))
        fields.update(changes)
        return type(self)(**fields)


_CLASS_BY_ID = tuple(ComponentClass)  # indexing skips the enum's value lookup
# An instance from checked fields skips the constructor's checks.
_new_instance = partial(tuple.__new__, ComponentInstance)


class Instances(Sequence):
    """One image's instances as columns; each ``ComponentInstance`` is built when it is read.

    ``boxes`` is a float64 (N, 4) array, ``classes`` holds int8 class values
    and ``scores`` float64 confidences, NaN where an instance has none.
    ``side`` maps the index of each instance that has a content extent or
    unknown fields, in index order, to ``(content_box, extra)``; every other
    instance has neither. The arrays are never written after construction.
    An ``Instances`` equals another one, or a tuple, holding equal instances.
    """

    __slots__ = ("boxes", "classes", "scores", "side")

    def __init__(self, boxes: np.ndarray, classes: np.ndarray, scores: np.ndarray, side: dict | None = None):
        self.boxes, self.classes, self.scores = boxes, classes, scores
        self.side = {} if side is None else side

    @classmethod
    def pack(cls, instances: Sequence[ComponentInstance]) -> "Instances":
        """``instances`` as columns; an ``Instances`` comes back as it is."""
        if isinstance(instances, Instances):
            return instances
        n = len(instances)
        boxes = np.fromiter(chain.from_iterable(inst.box for inst in instances), np.float64, 4 * n)
        classes = np.fromiter((inst.cls for inst in instances), np.int8, n)
        scores = np.fromiter((np.nan if i.score is None else i.score for i in instances), np.float64, n)
        side = {
            i: (inst.content_box, inst.extra)
            for i, inst in enumerate(instances)
            if inst.content_box is not None or inst.extra
        }
        return cls(boxes.reshape(n, 4), classes, scores, side)

    def __len__(self) -> int:
        return len(self.classes)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __iter__(self):
        n = len(self)
        contents = [None] * n if self.side else repeat(None)
        extras = [{} for _ in range(n)]
        for i, (content, extra) in self.side.items():
            contents[i], extras[i] = content, extra
        boxes = map(unchecked_bbox, self.boxes.tolist())
        classes = map(_CLASS_BY_ID.__getitem__, self.classes.tolist())
        scores = [None if s != s else s for s in self.scores.tolist()]
        return map(_new_instance, zip(boxes, classes, scores, contents, extras))

    def __eq__(self, other):
        if isinstance(other, (Instances, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Instances({list(self)!r})"


@dataclass(frozen=True)
class AnnotationSet:
    image_id: str
    instances: Sequence[ComponentInstance]
    mode: LabelMode = LabelMode.MULTI

    def __post_init__(self):
        # columns stay as they are, so no instance is built before it is read
        if not isinstance(self.instances, Instances):
            object.__setattr__(self, "instances", tuple(self.instances))


def boxes_match(a: BBox, b: BBox) -> bool:
    """True when all four coordinates differ by at most ``BOX_MATCH_TOLERANCE`` px."""
    return (
        abs(a.x1 - b.x1) <= BOX_MATCH_TOLERANCE
        and abs(a.y1 - b.y1) <= BOX_MATCH_TOLERANCE
        and abs(a.x2 - b.x2) <= BOX_MATCH_TOLERANCE
        and abs(a.y2 - b.y2) <= BOX_MATCH_TOLERANCE
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
    already is rejected: it would be lost on encoding. So is a Projected
    Row Header left without a Row: decoding would add a Row that was never
    annotated.

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
    # the indices of the instances coincident with each one, in instance order
    coincident: list[list[int]] = [[] for _ in instances]
    for i, a in enumerate(instances):
        for j in range(i + 1, len(instances)):
            if boxes_match(a.box, instances[j].box):
                coincident[i].append(j)
                coincident[j].append(i)

    # Reject box sharing beyond the two sanctioned two-class patterns.
    for i, a in enumerate(instances):
        sharers = {a.cls, *(instances[j].cls for j in coincident[i])}
        if len(sharers) > 2:
            names = ", ".join(sorted(c.name for c in sharers))
            raise LabelConsistencyError(
                f"{gt.image_id}: box {a.box.as_tuple()} shared by classes {{{names}}}"
            )

    row_of: dict[int, int] = {}  # partner index -> index of its Row
    for idx, inst in enumerate(instances):
        if inst.cls != ComponentClass.ROW:
            continue
        matches = [j for j in coincident[idx] if instances[j].cls in _ROW_PARTNERS]
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

    result: dict[int, ComponentInstance] = {}  # instance index -> what it becomes
    for idx, inst in enumerate(instances):
        if idx in partner_of:
            partner = instances[partner_of[idx]]
            if partner.cls == ComponentClass.COLUMN_HEADER:
                extra = _absorb(inst, partner, HEADER_EXTRA_KEY, HEADER_CONTENT_KEY)
                result[idx] = inst.replace(cls=ComponentClass.PSEUDO_HEADER_ROW, extra=extra)
            # a Row under a Projected Row Header is dropped
        elif idx in row_of:
            if inst.cls == ComponentClass.PROJECTED_ROW_HEADER:
                extra = _absorb(inst, instances[row_of[idx]], ROW_EXTRA_KEY, ROW_CONTENT_KEY)
                result[idx] = inst.replace(extra=extra)
            # a Column Header is folded into its Row's pseudo header row
        elif inst.cls == ComponentClass.PROJECTED_ROW_HEADER:
            raise LabelConsistencyError(
                f"{gt.image_id}: Projected Row Header at box {inst.box.as_tuple()} coincides with no Row of its own"
            )
        else:
            result[idx] = inst

    # Each kept instance keeps its box, so the coincidences above still hold.
    for i, a in result.items():
        for j in coincident[i]:
            b = result.get(j)
            if j > i and b is not None and b.cls != a.cls:
                raise LabelConsistencyError(
                    f"{gt.image_id}: distinct classes {a.cls.name} and {b.cls.name} share box "
                    f"{a.box.as_tuple()} after pseudo-class encoding"
                )
    return AnnotationSet(gt.image_id, tuple(result.values()), LabelMode.SINGLE)


def _absorb(kept: ComponentInstance, absorbed: ComponentInstance, extra_key: str, content_key: str) -> dict:
    """``kept``'s fields plus what it needs to give ``absorbed`` back on decoding.

    ``absorbed``'s fields go under ``extra_key`` and its content extent under
    ``content_key``, each only when it differs from ``kept``'s.
    """
    extra = kept.extra if absorbed.extra == kept.extra else {**kept.extra, extra_key: absorbed.extra}
    if absorbed.content_box != kept.content_box:
        content = absorbed.content_box
        extra = {**extra, content_key: None if content is None else list(content)}
    return extra


def _split(
    extra: dict, content_box: BBox | None, image_id: str, extra_key: str, content_key: str
) -> tuple[dict, dict, BBox | None]:
    """Undo ``_absorb``: (own fields, absorbed fields, absorbed content extent)."""
    if content_key in extra:
        content_box = _content_box(extra[content_key], image_id, content_key)
        extra = {k: v for k, v in extra.items() if k != content_key}
    if isinstance(extra.get(extra_key), dict):
        return {k: v for k, v in extra.items() if k != extra_key}, extra[extra_key], content_box
    return extra, extra, content_box


def _content_box(value, image_id: str, key: str) -> BBox | None:
    """A content extent stored by ``_absorb``: null, or a box read by the loader's number and order
    rule. It is not clamped, since no image size is known here; ``misalign.perturb`` clamps a snapped box."""
    if value is None:
        return None
    coords = float_box(value)
    if coords is not None:
        try:
            return BBox(*coords)
        except ValueError:
            pass  # inverted
    raise LabelConsistencyError(
        f"{image_id}: {key} must be null or a box [x1, y1, x2, y2] with x1 <= x2 and y1 <= y2, got {value!r}"
    )


# The class values each single-label class decodes to, in order; -1 where it gives one instance.
_DECODED = np.full((len(ComponentClass), 2), -1, dtype=np.int8)
_DECODED[:, 0] = list(ComponentClass)
_DECODED[ComponentClass.PROJECTED_ROW_HEADER, 1] = ComponentClass.ROW
_DECODED[ComponentClass.PSEUDO_HEADER_ROW] = (ComponentClass.ROW, ComponentClass.COLUMN_HEADER)


def decode_pseudo(pred: AnnotationSet) -> AnnotationSet:
    """Single-label predictions back to the multi-label formulation.

    Each projected row header is duplicated once into a Row at the same box
    and confidence; each pseudo header row is replaced by a Row plus a Column
    Header at its box and confidence. Both carry the single instance's
    fields and content extent, except that those stored under
    ``ROW_EXTRA_KEY`` and ``ROW_CONTENT_KEY`` go to the Row alone and those
    under ``HEADER_EXTRA_KEY`` and ``HEADER_CONTENT_KEY`` to the header alone.
    The result keeps the instance order, the pair of each doubled instance
    in its place, which AP reads to break confidence ties. Its instances are
    always ``Instances`` columns, whatever sequence ``pred`` holds, so box
    coordinates come back as floats.
    """
    if pred.mode is not LabelMode.SINGLE:
        raise LabelModeError(f"{pred.image_id}: input not in single-label mode")

    single = Instances.pack(pred.instances)
    # each instance's one or two decoded classes, flattened, in instance order
    decoded = _DECODED[single.classes].ravel()
    slots = np.flatnonzero(decoded >= 0)
    source = slots // 2

    # only an instance with a content extent or fields gives one to its pair
    side = {}
    if single.side:
        values = single.classes.tolist()
        starts = np.searchsorted(source, list(single.side)).tolist()
        for start, (i, (content, extra)) in zip(starts, single.side.items()):
            if values[i] == ComponentClass.PROJECTED_ROW_HEADER:
                own_extra, row_extra, row_content = _split(
                    extra, content, pred.image_id, ROW_EXTRA_KEY, ROW_CONTENT_KEY
                )
                pair = ((content, own_extra), (row_content, row_extra))
            elif values[i] == ComponentClass.PSEUDO_HEADER_ROW:
                row_extra, header_extra, header_content = _split(
                    extra, content, pred.image_id, HEADER_EXTRA_KEY, HEADER_CONTENT_KEY
                )
                pair = ((content, row_extra), (header_content, header_extra))
            else:
                pair = ((content, extra),)
            for at, (box, fields) in enumerate(pair, start):
                if box is not None or fields:
                    side[at] = (box, fields)
    multi = Instances(single.boxes[source], decoded[slots], single.scores[source], side)
    return AnnotationSet(pred.image_id, multi, LabelMode.MULTI)
