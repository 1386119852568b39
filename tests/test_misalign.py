import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_perturb

from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.geometry import BBox
from tsrkit.labels import MULTI_LABEL_CLASSES, AnnotationSet, ComponentClass, ComponentInstance, Instances, LabelMode
from tsrkit.misalign import (
    PerturbationMode,
    PerturbationSpec,
    misalignment_report,
    perturb,
)
from tsrkit.reconstruct import build_grid, grid_to_html
from tsrkit.teds import parse_table_html

ROW_ONLY = frozenset({ComponentClass.ROW})


def row(x1, y1, x2, y2, content=None):
    return ComponentInstance(
        BBox(x1, y1, x2, y2),
        ComponentClass.ROW,
        content_box=BBox(*content) if content else None,
    )


def annset(*instances):
    return AnnotationSet("img", tuple(instances), LabelMode.MULTI)


def test_magnitude_zero_is_identity():
    gt = annset(row(0, 0, 100, 20), row(0, 20, 100, 40))
    out = perturb(gt, PerturbationSpec(PerturbationMode.DILATE, 0.0))
    assert [i.box for i in out.instances] == [i.box for i in gt.instances]
    assert all(i.score == 1.0 for i in out.instances)


def test_dilate_grows_each_side():
    gt = annset(row(10, 10, 110, 30))
    out = perturb(gt, PerturbationSpec(PerturbationMode.DILATE, 2.0, ROW_ONLY))
    assert out.instances[0].box == BBox(8, 8, 112, 32)


def test_shrink_cuts_inward():
    gt = annset(row(10, 10, 110, 30))
    out = perturb(gt, PerturbationSpec(PerturbationMode.SHRINK, 3.0, ROW_ONLY))
    assert out.instances[0].box == BBox(13, 13, 107, 27)


@pytest.mark.parametrize(
    "magnitude, message", [(-1.0, "magnitude must be non-negative"), (float("nan"), "magnitude must be finite")]
)
def test_spec_rejects_magnitude(magnitude, message):
    with pytest.raises(ValueError, match=message):
        PerturbationSpec(PerturbationMode.DILATE, magnitude)


def test_shrink_degenerate_is_error():
    gt = annset(row(10, 10, 110, 30))
    message = "img: shrink by 10.0 degenerates box (10.0, 10.0, 110.0, 30.0)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        perturb(gt, PerturbationSpec(PerturbationMode.SHRINK, 10.0, ROW_ONLY))


def test_snap_returns_content_extent():
    gt = annset(row(10, 10, 110, 30, content=(12, 12, 108, 28)))
    out = perturb(gt, PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL, target_classes=ROW_ONLY))
    assert out.instances[0].box == BBox(12, 12, 108, 28)


def test_snap_without_content_is_error():
    gt = annset(row(10, 10, 110, 30))
    message = "img: ROW at (10.0, 10.0, 110.0, 30.0) carries no content extent"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        perturb(gt, PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL, target_classes=ROW_ONLY))


def test_merge_unions_closest_pair():
    gt = annset(row(0, 0, 100, 20), row(0, 22, 100, 40), row(0, 90, 100, 110))
    out = perturb(gt, PerturbationSpec(PerturbationMode.MERGE_ADJACENT, target_classes=ROW_ONLY))
    boxes = sorted(i.box.as_tuple() for i in out.instances)
    assert boxes == [(0, 0, 100, 40), (0, 90, 100, 110)]


def test_merge_leaves_single_instance_alone():
    gt = annset(row(0, 0, 100, 20))
    out = perturb(gt, PerturbationSpec(PerturbationMode.MERGE_ADJACENT, target_classes=ROW_ONLY))
    assert out.instances[0].box == BBox(0, 0, 100, 20)


def test_untargeted_classes_pass_through():
    table = ComponentInstance(BBox(0, 0, 100, 40), ComponentClass.TABLE)
    gt = annset(row(0, 0, 100, 20), table)
    out = perturb(gt, PerturbationSpec(PerturbationMode.DILATE, 5.0, ROW_ONLY))
    table_out = next(i for i in out.instances if i.cls == ComponentClass.TABLE)
    assert table_out.box == table.box


def misalign_fixture():
    gt_file, _ = generate_fixtures(
        FixtureSpec(n_tables=8, seed=42, span_probability=0.0, header_probability=0.0)
    )
    return gt_file.annotation_sets(), gt_file.trees_by_image()


def test_identity_report_row():
    sets, trees = misalign_fixture()
    report = misalignment_report(sets, trees, [PerturbationSpec(PerturbationMode.DILATE, 0.0)])
    assert report.rows[0].mean_ap == 1.0
    assert report.rows[0].teds_overall == 1.0


def test_divergence_pattern():
    sets, trees = misalign_fixture()
    specs = [
        PerturbationSpec(PerturbationMode.DILATE, 2.0),
        PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL),
        PerturbationSpec(PerturbationMode.SHRINK, 4.0),
        PerturbationSpec(PerturbationMode.MERGE_ADJACENT, target_classes=ROW_ONLY),
    ]
    report = misalignment_report(sets, trees, specs)
    dilate, snap, shrink, merge = report.rows

    # a prediction hugging the padded ground truth beats the minimal box on
    # detection metrics without being any better structurally
    assert dilate.mean_ap > snap.mean_ap
    assert dilate.teds_overall == snap.teds_overall == 1.0

    # merging rows keeps detection quality above heavy shrinking but destroys
    # a row of structure
    assert merge.mean_ap > shrink.mean_ap
    assert merge.teds_overall < snap.teds_overall


def test_report_rows_keep_spec_order():
    sets, trees = misalign_fixture()
    specs = [
        PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL),
        PerturbationSpec(PerturbationMode.DILATE, 1.0),
    ]
    report = misalignment_report(sets, trees, specs)
    assert [r.label for r in report.rows] == ["snap", "dilate:1"]


def test_reconstruction_the_html_grammar_rejects_scores_zero():
    # a merge over 1001 columns renders colspan="1001", beyond the WHATWG limit
    width = 10.0 * 1001
    columns = [
        ComponentInstance(BBox(10.0 * c, 0, 10.0 * (c + 1), 40), ComponentClass.COLUMN) for c in range(1001)
    ]
    merge = ComponentInstance(BBox(0, 0, width, 20), ComponentClass.SPANNING_CELL)
    gt = annset(row(0, 0, width, 20), row(0, 20, width, 40), *columns, merge)
    assert '<td colspan="1001">' in grid_to_html(build_grid(gt))
    trees = {"img": parse_table_html("<table><tbody><tr><td></td></tr></tbody></table>")}
    (result,) = misalignment_report([gt], trees, [PerturbationSpec(PerturbationMode.DILATE, 0.0)]).rows
    assert result.teds_overall == 0.0


# ------------------------------------------------- columns against instances

def outcome(function, gt, spec):
    """The perturbed set and None, or None and the raised (type, text)."""
    try:
        return function(gt, spec), None
    except Exception as exc:  # the type is compared too
        return None, (type(exc), str(exc))


def assert_matches_reference(gt, spec):
    # the reference reads float coordinates, as the loader gives them
    packed = AnnotationSet(gt.image_id, Instances.pack(gt.instances), gt.mode)
    expected, expected_error = outcome(reference_perturb, packed, spec)
    got, error = outcome(perturb, gt, spec)
    if expected_error is not None:
        kind, text = expected_error
        assert error == (kind, f"{gt.image_id}: {text}")
        return
    assert error is None
    assert (got.image_id, got.mode) == (expected.image_id, expected.mode)
    assert tuple(got.instances) == tuple(expected.instances)
    # instance equality ignores the unknown fields, and it takes -0.0 for 0.0
    assert [i.extra for i in got.instances] == [i.extra for i in expected.instances]
    assert repr(tuple(got.instances)) == repr(expected.instances)


SPEC_MODES = st.sampled_from(list(PerturbationMode))
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 2.0, 4.0, 50.0]),
    st.sampled_from([1e150, 6e153, 1e200, 1e308]),  # the last three overflow a dilated area
    st.floats(min_value=0.0, max_value=80.0),
)
TARGETS = st.frozensets(st.sampled_from(MULTI_LABEL_CLASSES), min_size=1)


@st.composite
def perturbation_problems(draw):
    """A packed fixture table, some instances without content or with unknown fields, and a spec."""
    (gt,) = generate_fixtures(FixtureSpec(n_tables=1, seed=draw(st.integers(0, 10_000))))[0].annotation_sets()
    instances = list(gt.instances)
    indices = st.sets(st.integers(0, len(instances) - 1), max_size=4)
    for i in draw(indices):
        instances[i] = instances[i].replace(content_box=None)
    for i in draw(indices):
        instances[i] = instances[i].replace(extra={"note": i})
    spec = PerturbationSpec(draw(SPEC_MODES), draw(MAGNITUDES), draw(TARGETS))
    return AnnotationSet(gt.image_id, Instances.pack(instances), gt.mode), spec


@settings(max_examples=300, derandomize=True, deadline=None)
@given(perturbation_problems())
def test_perturb_matches_instance_reference(problem):
    assert_matches_reference(*problem)


def hand_built_sets():
    note = {"note": 1}
    table = ComponentInstance(BBox(0, 0, 100, 60), ComponentClass.TABLE, extra={"t": 0})
    tied = [  # equal y1 and equal (y1, x1) keep their order
        row(0, 10, 100, 20, content=(2, 12, 98, 18)),
        ComponentInstance(BBox(0, 10, 50, 30), ComponentClass.ROW, extra=note),
        ComponentInstance(BBox(0, 10, 50, 25), ComponentClass.ROW, extra={"second": 2}),
        table,
        row(0, 0, 100, 10, content=(1, 1, 99, 9)),
        ComponentInstance(BBox(40, 30, 60, 40), ComponentClass.ROW),
        ComponentInstance(BBox(0, 30, 60, 40), ComponentClass.COLUMN, extra={"c": [1]}),
    ]
    equal_gaps = [  # two gaps of 0.0 and one of -0.0: the first wins
        ComponentInstance(BBox(0, 20, 10, 30), ComponentClass.ROW, extra={"r": 2}),
        ComponentInstance(BBox(0, 0, 10, 10), ComponentClass.ROW, extra={"r": 0}),
        ComponentInstance(BBox(0, 10, 10, 20), ComponentClass.ROW),
        ComponentInstance(BBox(0, -0.0, 10, 0.0), ComponentClass.ROW, extra={"r": -1}),
    ]
    return [
        AnnotationSet("tied", Instances.pack(tied)),
        AnnotationSet("tied-tuple", tuple(tied)),
        AnnotationSet("gaps", Instances.pack(equal_gaps)),
        AnnotationSet("one", Instances.pack([table])),
        AnnotationSet("empty", Instances.pack(())),
    ]


@pytest.mark.parametrize("spec", [
    PerturbationSpec(PerturbationMode.MERGE_ADJACENT, target_classes=ROW_ONLY),
    PerturbationSpec(PerturbationMode.MERGE_ADJACENT),
    PerturbationSpec(PerturbationMode.MERGE_ADJACENT, target_classes={ComponentClass.COLUMN}),
    PerturbationSpec(PerturbationMode.DILATE, 1.5),
    PerturbationSpec(PerturbationMode.DILATE, 1e200, {ComponentClass.COLUMN, ComponentClass.ROW}),
    PerturbationSpec(PerturbationMode.SHRINK, 2.0, ROW_ONLY),
    PerturbationSpec(PerturbationMode.SHRINK, 4.0),
    PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL, target_classes=ROW_ONLY),
    PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL, target_classes={ComponentClass.TABLE}),
])
@pytest.mark.parametrize("gt", hand_built_sets(), ids=lambda gt: gt.image_id)
def test_perturb_matches_instance_reference_on_hand_built_sets(gt, spec):
    assert_matches_reference(gt, spec)
