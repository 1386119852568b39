import random

import numpy as np
import pytest
from oracles import (
    SizeBucket,
    reference_area,
    classify_size,
    reference_intersect,
    reference_intersection_area,
    reference_iou,
)

from tsrkit.anchors import dataset_stats, fold_ratio
from tsrkit.geometry import BBox, intersection_area, iou, iou_array
from tsrkit.labels import AnnotationSet, ComponentClass, ComponentInstance, LabelMode


def translate(box, dx, dy):
    return BBox(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)


def ratio_histogram(box):
    """The library's one use of a box's height / width: dataset_stats' folded histogram."""
    ann = AnnotationSet("a", (ComponentInstance(box, ComponentClass.ROW),), LabelMode.MULTI)
    return dataset_stats([ann]).folded_aspect_ratio_histogram


def random_box(rng, span=100.0):
    x1 = rng.uniform(-span, span)
    y1 = rng.uniform(-span, span)
    return BBox(x1, y1, x1 + rng.uniform(0.0, span), y1 + rng.uniform(0.0, span))


def test_invalid_box_rejected():
    with pytest.raises(ValueError):
        BBox(3, 0, 1, 5)
    with pytest.raises(ValueError):
        BBox(0, 5, 1, 3)


def test_box_is_an_immutable_tuple_with_named_fields():
    box = BBox(1.0, 2.5, 3.0, 4.0)
    assert (box.x1, box.y1, box.x2, box.y2) == tuple(box) == box.as_tuple() == (1.0, 2.5, 3.0, 4.0)
    assert type(box.as_tuple()) is tuple
    assert repr(box) == "BBox(x1=1.0, y1=2.5, x2=3.0, y2=4.0)"
    assert hash(box) == hash(BBox(1.0, 2.5, 3.0, 4.0))
    with pytest.raises(AttributeError):
        box.x1 = 0.0
    with pytest.raises(AttributeError):
        box.label = "row"


def test_iou_identity():
    box = BBox(0, 0, 4, 4)
    assert iou(box, box) == 1.0


def test_iou_disjoint():
    assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0


def test_iou_partial_overlap():
    # intersection 1, union 4 + 4 - 1 = 7
    assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)


def test_iou_degenerate_zero_area():
    point = BBox(2, 2, 2, 2)
    assert iou(point, point) == 0.0
    assert iou(point, BBox(0, 0, 4, 4)) == 0.0


def test_iou_properties_randomized():
    rng = random.Random(42)
    for _ in range(300):
        a = random_box(rng)
        b = random_box(rng)
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
        dx, dy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        shifted = iou(translate(a, dx, dy), translate(b, dx, dy))
        assert shifted == pytest.approx(v, abs=1e-9)
        if a.area > 0:
            assert iou(a, a) == 1.0


def test_iou_array_equals_iou_float_for_float():
    rng = random.Random(7)
    boxes = [random_box(rng) for _ in range(30)] + [random_box(rng, span=3.0) for _ in range(20)]
    for _ in range(20):  # integer corners: touching, nested and identical boxes
        x1, y1 = rng.randint(0, 4), rng.randint(0, 4)
        boxes.append(BBox(x1, y1, x1 + rng.randint(0, 4), y1 + rng.randint(0, 4)))
    boxes += [
        BBox(0, 0, 4, 4),
        BBox(4, 0, 8, 4),  # touches the first along x
        BBox(4, 4, 9, 9),  # ... at a corner
        BBox(1, 1, 3, 3),  # nested in the first
        BBox(2, 2, 2, 2),  # zero area, inside the first
        BBox(2, 2, 2, 2),  # ... and identical to it
        BBox(1, 0, 1, 6),  # zero width
    ]
    arr = np.asarray(boxes, dtype=np.float64)
    got = iou_array(arr[:, None], arr[None])
    assert [[repr(float(v)) for v in row] for row in got] == [
        [repr(iou(a, b)) for b in boxes] for a in boxes
    ]


def test_scalar_geometry_equals_min_max_formula_float_for_float():
    rng = random.Random(11)
    boxes = [random_box(rng) for _ in range(40)] + [random_box(rng, span=2.0) for _ in range(20)]
    for _ in range(20):  # integer corners: touching, nested and identical boxes
        x1, y1 = rng.randint(0, 4), rng.randint(0, 4)
        boxes.append(BBox(x1, y1, x1 + rng.randint(0, 4), y1 + rng.randint(0, 4)))
    boxes += [
        BBox(0.0, 0.0, 4.0, 4.0),
        BBox(4.0, 0.0, 8.0, 4.0),  # touches the first along x
        BBox(4.0, 4.0, 9.0, 9.0),  # ... at a corner
        BBox(1.0, 1.0, 3.0, 3.0),  # nested in the first
        BBox(0.0, 0.0, 4.0, 4.0),  # identical to the first
        BBox(2.0, 2.0, 2.0, 2.0),  # zero area
        BBox(1.0, 0.0, 1.0, 6.0),  # zero width
        # signed zeros: min and max return their first operand on a tie
        BBox(-0.0, -0.0, 0.0, 0.0),
        BBox(0.0, 0.0, -0.0, -0.0),
        BBox(-0.0, -0.0, 2.0, 2.0),
        BBox(0.0, 0.0, 2.0, 2.0),
        BBox(-2.0, -2.0, -0.0, -0.0),
        BBox(-2.0, -2.0, 0.0, 0.0),
        BBox(-0.0, 0.0, 1.0, 1.0),
    ]
    for a in boxes:
        assert repr(a.area) == repr(reference_area(a))
        for b in boxes:
            assert repr(iou(a, b)) == repr(reference_iou(a, b)), (a, b)
            assert repr(intersection_area(a, b)) == repr(reference_intersection_area(a, b)), (a, b)
            assert repr(a.intersect(b)) == repr(reference_intersect(a, b)), (a, b)


@pytest.mark.parametrize(
    "box,expected",
    [
        (BBox(0, 0, 10, 10), SizeBucket.SMALL),  # area 100
        (BBox(0, 0, 50, 40), SizeBucket.MEDIUM),  # area 2000
        (BBox(0, 0, 100, 100), SizeBucket.LARGE),  # area 10000
        (BBox(0, 0, 32, 32), SizeBucket.MEDIUM),  # boundary 1024 -> upper bucket
        (BBox(0, 0, 64, 64), SizeBucket.LARGE),  # boundary 4096 -> upper bucket
    ],
)
def test_classify_size(box, expected):
    assert classify_size(box) == expected


def test_classify_size_total_and_exclusive():
    rng = random.Random(7)
    for _ in range(500):
        bucket = classify_size(random_box(rng, span=80.0))
        assert bucket in (SizeBucket.SMALL, SizeBucket.MEDIUM, SizeBucket.LARGE)


@pytest.mark.parametrize(
    "box,expected",
    [
        (BBox(0, 0, 10, 10), 1.0),
        (BBox(0, 0, 100, 25), 0.25),
        (BBox(0, 0, 4, 160), 40.0),
    ],
)
def test_aspect_ratio(box, expected):
    assert ratio_histogram(box) == {int(fold_ratio(expected)): 1}


def test_aspect_ratio_zero_width():
    assert ratio_histogram(BBox(5, 0, 5, 10)) == {}
