import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import as_pairs, reference_encode_pseudo

from tsrkit.errors import LabelConsistencyError, LabelModeError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.geometry import BBox
from tsrkit.labels import (
    HEADER_CONTENT_KEY,
    HEADER_EXTRA_KEY,
    MULTI_LABEL_CLASSES,
    ROW_CONTENT_KEY,
    ROW_EXTRA_KEY,
    AnnotationSet,
    ComponentClass,
    ComponentInstance,
    Instances,
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
    assert not plain != flagged  # tuple's own __ne__ would compare extra
    assert hash(plain) == hash(flagged)
    other = ComponentInstance(B, ComponentClass.ROW, 0.6, extra={"flagged": True})
    assert flagged != other
    assert not flagged == other


def test_instance_value_semantics():
    a = ComponentInstance(B, ComponentClass.ROW)
    b = ComponentInstance(B, ComponentClass.ROW)
    assert a.extra == {} and a.extra is not b.extra  # a fresh dict each
    assert repr(a) == (
        "ComponentInstance(box=BBox(x1=10, y1=10, x2=200, y2=30), cls=<ComponentClass.ROW: 2>, "
        "score=None, content_box=None, extra={})"
    )
    with pytest.raises(AttributeError):
        a.score = 0.5
    with pytest.raises(AttributeError):
        a.label = "row"


def test_replace_checks_like_construction():
    flagged = ComponentInstance(B, ComponentClass.ROW, 0.5, OTHER, {"flagged": True})
    moved = flagged.replace(box=OTHER, score=1.0)
    assert (moved.box, moved.cls, moved.score, moved.content_box) == (OTHER, ComponentClass.ROW, 1.0, OTHER)
    assert moved.extra is flagged.extra
    assert type(moved) is ComponentInstance
    with pytest.raises(ValueError, match="outside"):
        flagged.replace(score=1.5)
    with pytest.raises(ValueError, match="outside"):
        flagged.replace(score=float("nan"))
    with pytest.raises(ValueError, match="invalid box"):
        flagged.replace(box=BBox(200, 10, 10, 30))
    with pytest.raises(TypeError):
        flagged.replace(label="row")


def test_no_source_uses_the_unchecked_namedtuple_constructors():
    # NamedTuple's _make and _replace build a record without running __new__
    source = Path(__file__).resolve().parents[1] / "src" / "tsrkit"
    callers = [
        path.name
        for path in source.rglob("*.py")
        if re.search(r"\._(make|replace)\(", path.read_text(encoding="utf-8"))
    ]
    assert callers == []


def test_boxes_match_tolerance():
    a = BBox(0, 0, 10, 10)
    assert boxes_match(a, BBox(0.5, -0.5, 10.9, 9.2))
    assert not boxes_match(a, BBox(0, 0, 11.5, 10))


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


def test_instances_index_slice_compare_and_hash_like_the_tuple_of_their_instances():
    box, other = BBox(10.0, 10.0, 200.0, 30.0), BBox(10.0, 40.0, 200.0, 60.0)  # floats repr as they come back
    items = (
        ComponentInstance(box, ComponentClass.ROW, 0.5),
        ComponentInstance(other, ComponentClass.COLUMN, content_box=BBox(20.0, 45.0, 100.0, 55.0), extra={"k": 1}),
        ComponentInstance(box, ComponentClass.TABLE),
    )
    columns = Instances.pack(items)
    for i in range(-3, 3):
        assert columns[i] == items[i] and columns[i].extra == items[i].extra
    for i in (3, -4):
        with pytest.raises(IndexError):
            columns[i]
    for part in (slice(None), slice(1, None), slice(None, None, -1), slice(-2, -1), slice(5, 9)):
        assert columns[part] == items[part]
    assert columns == items and columns == Instances.pack(list(items))
    assert columns != items[:2] and columns != Instances.pack(items[::-1])
    assert hash(columns) == hash(items)
    assert repr(columns) == f"Instances({list(items)!r})"


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


@pytest.mark.parametrize("header", [ComponentClass.PROJECTED_ROW_HEADER, ComponentClass.COLUMN_HEADER])
def test_encode_rejects_second_row_coincident_with_one_header(header):
    # a Projected Row Header used to drop the second Row silently
    second = BBox(10, 10.5, 200, 30.5)
    gt = multi(
        ComponentInstance(B, ComponentClass.ROW, extra={"r": 1}),
        ComponentInstance(second, ComponentClass.ROW, extra={"r": 2}),
        inst(header),
    )
    message = f"img: a second Row at box {second.as_tuple()} coincides with one {header.name}"
    with pytest.raises(LabelConsistencyError, match=re.escape(message)):
        encode_pseudo(gt)
    # with a header each, each Row pairs with its own
    assert len(encode_pseudo(multi(*gt.instances, inst(header))).instances) == 2


@pytest.mark.parametrize("rows", [0, 1])
def test_encode_rejects_projected_header_without_a_row_of_its_own(rows):
    # decoding used to add a Row for it that was never annotated
    gt = multi(*[inst(ComponentClass.ROW)] * rows, *[inst(ComponentClass.PROJECTED_ROW_HEADER)] * (rows + 1))
    message = f"img: Projected Row Header at box {B.as_tuple()} coincides with no Row of its own"
    with pytest.raises(LabelConsistencyError, match=re.escape(message)):
        encode_pseudo(gt)


def test_single_label_invariant_names_the_image():
    gt = multi(inst(ComponentClass.ROW), inst(ComponentClass.COLUMN_HEADER), inst(ComponentClass.COLUMN_HEADER))
    message = (
        f"img: distinct classes PSEUDO_HEADER_ROW and COLUMN_HEADER share box {B.as_tuple()} "
        "after pseudo-class encoding"
    )
    with pytest.raises(LabelConsistencyError, match=re.escape(message)):
        encode_pseudo(gt)


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
        assert as_pairs(decode_pseudo(encoded)) == as_pairs(ann)


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


ROW_CONTENT = BBox(12, 12, 100, 28)
HEADER_CONTENT = BBox(20, 12, 190, 28)


@pytest.mark.parametrize(
    "absorbed_cls, key",
    [(ComponentClass.COLUMN_HEADER, HEADER_CONTENT_KEY), (ComponentClass.ROW, ROW_CONTENT_KEY)],
)
@pytest.mark.parametrize("absorbed_content", [HEADER_CONTENT, None])
def test_round_trip_keeps_each_instance_content_box(absorbed_cls, key, absorbed_content):
    # a Column Header is absorbed by its Row, a Row by its Projected Row Header
    kept_cls = ComponentClass.ROW if absorbed_cls is ComponentClass.COLUMN_HEADER else ComponentClass.PROJECTED_ROW_HEADER
    kept = ComponentInstance(B, kept_cls, content_box=ROW_CONTENT)
    absorbed = ComponentInstance(B, absorbed_cls, content_box=absorbed_content)
    (encoded,) = encode_pseudo(multi(kept, absorbed)).instances
    assert encoded.content_box == ROW_CONTENT
    assert encoded.extra == {key: None if absorbed_content is None else [20.0, 12.0, 190.0, 28.0]}
    decoded = {i.cls: i.content_box for i in decode_pseudo(single(encoded)).instances}
    assert decoded == {kept_cls: ROW_CONTENT, absorbed_cls: absorbed_content}


def test_equal_content_boxes_encode_as_before():
    row = ComponentInstance(B, ComponentClass.ROW, content_box=ROW_CONTENT)
    header = ComponentInstance(B, ComponentClass.COLUMN_HEADER, content_box=ROW_CONTENT)
    (pseudo,) = encode_pseudo(multi(row, header)).instances
    assert pseudo.extra == {}
    assert [i.content_box for i in decode_pseudo(single(pseudo)).instances] == [ROW_CONTENT, ROW_CONTENT]


@pytest.mark.parametrize(
    "cls, key",
    [(ComponentClass.PSEUDO_HEADER_ROW, HEADER_CONTENT_KEY), (ComponentClass.PROJECTED_ROW_HEADER, ROW_CONTENT_KEY)],
)
@pytest.mark.parametrize(
    "value",
    ["0 0 1 1", [0, 0, 1], [0, 0, 1, 1, 1], [0, 0, "1", 1], [True, 0, 1, 1], [0, 0, float("inf"), 1],
     [0, 0, float("nan"), 1], [0, 0, 10**400, 1], [10, 0, 0, 5], [0, 5, 1, 0], {"x1": 0}],
)
def test_decode_rejects_malformed_content_extent(cls, key, value):
    pred = AnnotationSet("page-7", (ComponentInstance(B, cls, 0.9, extra={key: value}),), LabelMode.SINGLE)
    with pytest.raises(LabelConsistencyError, match=rf"page-7: {key} must be null or a box"):
        decode_pseudo(pred)


def _instance_key(inst):
    content = None if inst.content_box is None else inst.content_box.as_tuple()
    return (inst.box.as_tuple(), inst.cls, inst.score, content, json.dumps(inst.extra, sort_keys=True))


# The classes one box holds in consistent multi-label ground truth: a
# Projected Row Header is always also a Row, also when a box is annotated twice.
SLOT_CLASSES = [(c,) for c in MULTI_LABEL_CLASSES if c is not ComponentClass.PROJECTED_ROW_HEADER] + [
    (ComponentClass.ROW, ComponentClass.PROJECTED_ROW_HEADER),
    (ComponentClass.ROW, ComponentClass.COLUMN_HEADER),
    (ComponentClass.ROW, ComponentClass.PROJECTED_ROW_HEADER) * 2,
    (ComponentClass.ROW, ComponentClass.COLUMN_HEADER) * 2,
]


@st.composite
def consistent_multi_label_sets(draw):
    """Boxes 30 px apart, each holding the classes of one ``SLOT_CLASSES``
    entry; fields and content extents vary freely."""
    extras = st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 2), max_size=2)
    instances = []
    for slot in range(draw(st.integers(0, 6))):
        box = BBox(10, 30 * slot, 200, 30 * slot + 20)
        for cls in draw(st.sampled_from(SLOT_CLASSES)):
            content = draw(st.sampled_from([None, box, BBox(12, 30 * slot + 2, 100, 30 * slot + 18),
                                            BBox(20, 30 * slot + 2, 190, 30 * slot + 18)]))
            instances.append(ComponentInstance(box, cls, None, content, draw(extras)))
    return multi(*draw(st.permutations(instances)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(consistent_multi_label_sets())
def test_decode_inverts_encode(gt):
    decoded = decode_pseudo(encode_pseudo(gt))
    assert Counter(map(_instance_key, decoded.instances)) == Counter(map(_instance_key, gt.instances))


# Coincidence is not transitive: offsets of 0.5 px apart chain boxes that
# match their neighbours but not each other, and 1.0 px is exactly the tolerance.
BASE_BOXES = [(10, 10, 200, 30), (10, 40, 200, 60)]
OFFSETS = [0, 0.5, 1.0, 1.5]
# every class, with the three that encoding pairs drawn twice as often
ENCODED_CLASSES = [
    *MULTI_LABEL_CLASSES,
    ComponentClass.ROW,
    ComponentClass.PROJECTED_ROW_HEADER,
    ComponentClass.COLUMN_HEADER,
]


@st.composite
def multi_label_sets(draw):
    """Up to 8 instances of any multi-label class at base boxes offset per coordinate."""
    extras = st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 2), max_size=2)
    instances = []
    for _ in range(draw(st.integers(0, 8))):
        base = draw(st.sampled_from(BASE_BOXES))
        coords = [v + draw(st.sampled_from(OFFSETS)) for v in base]
        if draw(st.booleans()):
            coords = [int(v) if v == int(v) else v for v in coords]
        else:
            coords = [float(v) for v in coords]
        box = BBox(*coords)
        content = draw(st.sampled_from([None, box, BBox(12, base[1] + 2, 100, base[3] - 2)]))
        cls = draw(st.sampled_from(ENCODED_CLASSES))
        instances.append(ComponentInstance(box, cls, None, content, draw(extras)))
    return multi(*instances)


def _encoding(encode, gt):
    """What ``encode`` makes of ``gt``: each instance's fields, or the error it raises."""
    try:
        out = encode(gt)
    except Exception as exc:
        return type(exc), str(exc)
    return out.image_id, out.mode, [(repr(i.box), i.cls, repr(i.content_box), i.extra) for i in out.instances]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(multi_label_sets())
def test_encode_matches_pairwise_reference(gt):
    assert _encoding(encode_pseudo, gt) == _encoding(reference_encode_pseudo, gt)
