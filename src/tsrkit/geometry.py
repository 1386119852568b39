"""Axis-aligned box arithmetic: IoU and areas, of single boxes and of box
arrays, the object-size area limits, and the rule for numbers and boxes read
from a corpus file.

Boxes are (x1, y1, x2, y2) in pixel coordinates with the origin at the
top-left corner. Coordinates are continuous reals; annotations carry
fractional pixels. A ``BBox`` is an immutable tuple of its four coordinates:
it unpacks, indexes, compares and hashes as that tuple, and its constructor
rejects an inverted box.

A corpus box is four corpus numbers (``is_number``), converted to floats
before any comparison (``float_box``) and then ordered (``BBox``). The loader
and ``labels.decode_pseudo`` both read boxes by this one rule.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import NamedTuple

import numpy as np

# small < 32^2 <= medium < 64^2 <= large; a boundary area is in the upper bucket
SMALL_AREA_LIMIT = 32.0 * 32.0
MEDIUM_AREA_LIMIT = 64.0 * 64.0

# The types of a corpus number, matched exactly: a boolean is an int subclass.
NUMBER_TYPES = frozenset({int, float})
_FLOAT_MAX = sys.float_info.max


def is_number(value) -> bool:
    """A corpus number: an int or float by exact type (no boolean), within float range (no inf or NaN)."""
    return type(value) in NUMBER_TYPES and -_FLOAT_MAX <= value <= _FLOAT_MAX


def float_box(raw) -> tuple[float, float, float, float] | None:
    """A 4-element array of corpus numbers as four floats, or None; ordering is ``BBox``'s check."""
    if isinstance(raw, (list, tuple)) and len(raw) == 4 and all(map(is_number, raw)):
        return tuple(map(float, raw))
    return None


class _BoxFields(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class BBox(_BoxFields):
    __slots__ = ()

    def __new__(cls, x1: float, y1: float, x2: float, y2: float):
        if not (x2 >= x1 and y2 >= y1):
            raise ValueError(f"invalid box: {(x1, y1, x2, y2)}")
        return tuple.__new__(cls, (x1, y1, x2, y2))

    @property
    def area(self) -> float:
        x1, y1, x2, y2 = self
        return (x2 - x1) * (y2 - y1)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def contains_point(self, x: float, y: float) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def inflate(self, margin: float) -> "BBox":
        """Grow (or shrink, for negative margin) by ``margin`` px on every side."""
        box = BBox(
            self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin
        )
        return box

    def intersect(self, other: "BBox") -> "BBox | None":
        """Intersection box, or None when the boxes do not overlap."""
        ax1, ay1, ax2, ay2 = self
        bx1, by1, bx2, by2 = other
        x1 = bx1 if bx1 > ax1 else ax1
        y1 = by1 if by1 > ay1 else ay1
        x2 = bx2 if bx2 < ax2 else ax2
        y2 = by2 if by2 < ay2 else ay2
        if x2 < x1 or y2 < y1:
            return None
        return BBox(x1, y1, x2, y2)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The coordinates as a plain tuple, which prints without field names."""
        return tuple(self)


# A box from coordinates already known to be ordered, built without the check.
unchecked_bbox = partial(tuple.__new__, BBox)


# The scalar functions unpack each box once and spell ``min(a, b)`` as
# ``b if b < a else a`` and ``max(a, b)`` as ``b if b > a else a``: the same
# operand comes back, so even a -0.0 coordinate gives what min and max give.

def intersection_area(a: BBox, b: BBox) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    w = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    h = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    return w * h


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes.

    Degenerate pairs with zero union area score 0: identical zero-area boxes
    carry no structure, so 0/0 is resolved downward.
    """
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    w = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    h = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    inter = 0.0 if w <= 0.0 or h <= 0.0 else w * h
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def area_array(boxes: np.ndarray) -> np.ndarray:
    """The area of each box of a (..., 4) array."""
    return (boxes[..., 2] - boxes[..., 0]) * (boxes[..., 3] - boxes[..., 1])


def iou_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of the boxes of two (..., 4) arrays that broadcast, operation for operation."""
    w = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    h = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.multiply(w, h, out=np.zeros_like(w), where=(w > 0.0) & (h > 0.0))
    union = area_array(a) + area_array(b) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
