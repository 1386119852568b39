import pytest

from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.geometry import BBox
from tsrkit.labels import AnnotationSet, ComponentClass, ComponentInstance, LabelMode
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
    with pytest.raises(ValueError):
        perturb(gt, PerturbationSpec(PerturbationMode.SHRINK, 10.0, ROW_ONLY))


def test_snap_returns_content_extent():
    gt = annset(row(10, 10, 110, 30, content=(12, 12, 108, 28)))
    out = perturb(gt, PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL, target_classes=ROW_ONLY))
    assert out.instances[0].box == BBox(12, 12, 108, 28)


def test_snap_without_content_is_error():
    gt = annset(row(10, 10, 110, 30))
    with pytest.raises(ValueError):
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
