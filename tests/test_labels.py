import pytest

from tsrkit.errors import LabelConsistencyError, LabelModeError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.geometry import BBox
from tsrkit.labels import (
    HEADER_EXTRA_KEY,
    ROW_EXTRA_KEY,
    AnnotationSet,
    ComponentClass,
    ComponentInstance,
    LabelMode,
    boxes_match,
    decode_pseudo,
    encode_pseudo,
)

B = BBox(10, 10, 200, 30)
OTHER = BBox(10, 40, 200, 60)


def multi(*instances):
    return AnnotationSet("img", tuple(instances), LabelMode.MULTI)


def single(*instances):
    return AnnotationSet("img", tuple(instances), LabelMode.SINGLE)


def inst(cls, box=B, score=None):
    return ComponentInstance(box, cls, score)


def test_confidence_range_checked():
    with pytest.raises(ValueError):
        ComponentInstance(B, ComponentClass.ROW, score=1.5)


def test_extra_fields_ignored_by_equality_and_hash():
    plain = ComponentInstance(B, ComponentClass.ROW, 0.5)
    flagged = ComponentInstance(B, ComponentClass.ROW, 0.5, extra={"flagged": True})
    assert plain == flagged
    assert hash(plain) == hash(flagged)


def test_boxes_match_tolerance():
    a = BBox(0, 0, 10, 10)
    assert boxes_match(a, BBox(0.5, -0.5, 10.9, 9.2), 1.0)
    assert not boxes_match(a, BBox(0, 0, 11.5, 10), 1.0)


def test_encode_row_header_pair_becomes_pseudo():
    out = encode_pseudo(multi(inst(ComponentClass.ROW), inst(ComponentClass.COLUMN_HEADER)))
    assert out.mode is LabelMode.SINGLE
    assert [i.cls for i in out.instances] == [ComponentClass.PSEUDO_HEADER_ROW]
    assert out.instances[0].box == B


def test_encode_row_coincident_with_projected_header_removed():
    out = encode_pseudo(
        multi(inst(ComponentClass.ROW), inst(ComponentClass.PROJECTED_ROW_HEADER))
    )
    assert [i.cls for i in out.instances] == [ComponentClass.PROJECTED_ROW_HEADER]


def test_encode_identity_on_unshared_classes():
    out = encode_pseudo(multi(inst(ComponentClass.COLUMN)))
    assert [i.cls for i in out.instances] == [ComponentClass.COLUMN]


def test_encode_rejects_single_label_input():
    with pytest.raises(LabelModeError):
        encode_pseudo(single(inst(ComponentClass.COLUMN)))


def test_encode_rejects_three_way_share():
    shared = multi(
        inst(ComponentClass.ROW),
        inst(ComponentClass.COLUMN_HEADER),
        inst(ComponentClass.PROJECTED_ROW_HEADER),
    )
    with pytest.raises(LabelConsistencyError):
        encode_pseudo(shared)


def test_encode_rejects_unsanctioned_two_way_share():
    with pytest.raises(LabelConsistencyError):
        encode_pseudo(multi(inst(ComponentClass.ROW), inst(ComponentClass.COLUMN)))


def test_decode_projected_header_duplicates_row():
    out = decode_pseudo(single(inst(ComponentClass.PROJECTED_ROW_HEADER, score=0.9)))
    assert {(i.cls, i.score) for i in out.instances} == {
        (ComponentClass.PROJECTED_ROW_HEADER, 0.9),
        (ComponentClass.ROW, 0.9),
    }
    assert all(i.box == B for i in out.instances)


def test_decode_pseudo_header_expands_to_row_and_header():
    out = decode_pseudo(single(inst(ComponentClass.PSEUDO_HEADER_ROW, score=0.8)))
    assert {(i.cls, i.score) for i in out.instances} == {
        (ComponentClass.ROW, 0.8),
        (ComponentClass.COLUMN_HEADER, 0.8),
    }


def test_decode_identity_on_plain_classes():
    out = decode_pseudo(single(inst(ComponentClass.TABLE, score=0.99)))
    assert [(i.cls, i.score) for i in out.instances] == [(ComponentClass.TABLE, 0.99)]
    assert out.mode is LabelMode.MULTI


def test_decode_rejects_multi_label_input():
    with pytest.raises(LabelModeError):
        decode_pseudo(multi(inst(ComponentClass.TABLE)))


def test_decode_never_emits_pseudo_class():
    out = decode_pseudo(
        single(
            inst(ComponentClass.PSEUDO_HEADER_ROW, B, 0.5),
            inst(ComponentClass.PROJECTED_ROW_HEADER, OTHER, 0.5),
        )
    )
    assert ComponentClass.PSEUDO_HEADER_ROW not in {i.cls for i in out.instances}


def test_encode_sizes_shrink_decode_sizes_grow():
    gt = multi(
        inst(ComponentClass.ROW),
        inst(ComponentClass.COLUMN_HEADER),
        inst(ComponentClass.COLUMN, OTHER),
    )
    encoded = encode_pseudo(gt)
    assert len(encoded.instances) <= len(gt.instances)
    decoded = decode_pseudo(encoded)
    assert len(decoded.instances) >= len(encoded.instances)


def test_round_trip_on_generated_corpus():
    gt, _ = generate_fixtures(FixtureSpec(n_tables=25, seed=123))
    for ann in gt.annotation_sets():
        encoded = encode_pseudo(ann)
        # single-label constraint: no two classes share a box
        boxes = {}
        for i in encoded.instances:
            key = i.box.as_tuple()
            assert key not in boxes or boxes[key] == i.cls
            boxes[key] = i.cls
        assert decode_pseudo(encoded).as_pairs() == ann.as_pairs()


def test_round_trip_keeps_each_instance_extra():
    row = ComponentInstance(B, ComponentClass.ROW, extra={"r": 1})
    header = ComponentInstance(B, ComponentClass.COLUMN_HEADER, extra={"h": 1})
    (pseudo,) = encode_pseudo(multi(row, header)).instances
    assert pseudo.extra == {"r": 1, HEADER_EXTRA_KEY: {"h": 1}}
    decoded = {i.cls: i.extra for i in decode_pseudo(single(pseudo)).instances}
    assert decoded == {ComponentClass.ROW: {"r": 1}, ComponentClass.COLUMN_HEADER: {"h": 1}}


@pytest.mark.parametrize("row_extra, header_extra", [({}, {}), ({"a": 1}, {"a": 1})])
def test_equal_extra_fields_encode_as_before(row_extra, header_extra):
    row = ComponentInstance(B, ComponentClass.ROW, extra=row_extra)
    header = ComponentInstance(B, ComponentClass.COLUMN_HEADER, extra=header_extra)
    (pseudo,) = encode_pseudo(multi(row, header)).instances
    assert pseudo.extra == row_extra
    assert [i.extra for i in decode_pseudo(single(pseudo)).instances] == [row_extra, row_extra]


def test_round_trip_keeps_row_extra_under_projected_row_header():
    row = ComponentInstance(B, ComponentClass.ROW, extra={"r": 1})
    prh = ComponentInstance(B, ComponentClass.PROJECTED_ROW_HEADER, extra={"p": 1})
    (encoded,) = encode_pseudo(multi(row, prh)).instances
    assert encoded.extra == {"p": 1, ROW_EXTRA_KEY: {"r": 1}}
    decoded = {i.cls: i.extra for i in decode_pseudo(single(encoded)).instances}
    assert decoded == {ComponentClass.ROW: {"r": 1}, ComponentClass.PROJECTED_ROW_HEADER: {"p": 1}}


@pytest.mark.parametrize("extra", [{}, {"a": 1}])
def test_equal_row_and_projected_header_fields_encode_as_before(extra):
    row = ComponentInstance(B, ComponentClass.ROW, extra=extra)
    prh = ComponentInstance(B, ComponentClass.PROJECTED_ROW_HEADER, extra=extra)
    (encoded,) = encode_pseudo(multi(row, prh)).instances
    assert encoded.extra == extra
    assert [i.extra for i in decode_pseudo(single(encoded)).instances] == [extra, extra]
