import json
import logging
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_perturb

from tsrkit import formats
from tsrkit.cli import main
from tsrkit.errors import LabelModeError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.formats import CorpusFile, ImageRecord
from tsrkit.geometry import BBox
from tsrkit.labels import (
    HEADER_CONTENT_KEY,
    MULTI_LABEL_CLASSES,
    AnnotationSet,
    ComponentClass,
    ComponentInstance,
    Instances,
    LabelMode,
)
from tsrkit.misalign import (
    PerturbationMode,
    PerturbationSpec,
    compare,
    misalignment_report,
    parse_perturbation_spec,
    perturb,
)
from tsrkit.reconstruct import build_grid, grid_to_html
from tsrkit.teds import parse_table_html

ROW_ONLY = frozenset({ComponentClass.ROW})
IMAGE = (200.0, 200.0)  # width and height of an image that holds every box of the unit tests below


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
    out = perturb(gt, PerturbationSpec(PerturbationMode.DILATE, 0.0), *IMAGE)
    assert [i.box for i in out.instances] == [i.box for i in gt.instances]
    assert all(i.score == 1.0 for i in out.instances)


def test_dilate_grows_each_side():
    gt = annset(row(10, 10, 110, 30))
    out = perturb(gt, PerturbationSpec(PerturbationMode.DILATE, 2.0, ROW_ONLY), *IMAGE)
    assert out.instances[0].box == BBox(8, 8, 112, 32)


def test_shrink_cuts_inward():
    gt = annset(row(10, 10, 110, 30))
    out = perturb(gt, PerturbationSpec(PerturbationMode.SHRINK, 3.0, ROW_ONLY), *IMAGE)
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
        perturb(gt, PerturbationSpec(PerturbationMode.SHRINK, 10.0, ROW_ONLY), *IMAGE)


def test_snap_returns_content_extent():
    gt = annset(row(10, 10, 110, 30, content=(12, 12, 108, 28)))
    out = perturb(gt, PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL, target_classes=ROW_ONLY), *IMAGE)
    assert out.instances[0].box == BBox(12, 12, 108, 28)


def test_snap_without_content_is_error():
    gt = annset(row(10, 10, 110, 30))
    message = "img: ROW at (10.0, 10.0, 110.0, 30.0) carries no content extent"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        perturb(gt, PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL, target_classes=ROW_ONLY), *IMAGE)


def test_merge_unions_closest_pair():
    gt = annset(row(0, 0, 100, 20), row(0, 22, 100, 40), row(0, 90, 100, 110))
    out = perturb(gt, PerturbationSpec(PerturbationMode.MERGE_ADJACENT, target_classes=ROW_ONLY), *IMAGE)
    boxes = sorted(i.box.as_tuple() for i in out.instances)
    assert boxes == [(0, 0, 100, 40), (0, 90, 100, 110)]


def test_merge_leaves_single_instance_alone():
    gt = annset(row(0, 0, 100, 20))
    out = perturb(gt, PerturbationSpec(PerturbationMode.MERGE_ADJACENT, target_classes=ROW_ONLY), *IMAGE)
    assert out.instances[0].box == BBox(0, 0, 100, 20)


def test_untargeted_classes_pass_through():
    table = ComponentInstance(BBox(0, 0, 100, 40), ComponentClass.TABLE)
    gt = annset(row(0, 0, 100, 20), table)
    out = perturb(gt, PerturbationSpec(PerturbationMode.DILATE, 5.0, ROW_ONLY), *IMAGE)
    table_out = next(i for i in out.instances if i.cls == ComponentClass.TABLE)
    assert table_out.box == table.box


@pytest.mark.parametrize(
    "magnitude, inner", [(20.0, (30, 0, 80, 38)), (1e308, (0, 0, 120, 40))], ids=["20", "1e308"]
)
def test_dilate_past_the_image_ends_on_its_edges(magnitude, inner):
    # as the loader clamps a box it reads: each coordinate into [0, width] or [0, height]
    gt = annset(row(10, 10, 110, 30), row(50, 15, 60, 18))
    out = perturb(gt, PerturbationSpec(PerturbationMode.DILATE, magnitude), 120.0, 40.0)
    assert [i.box.as_tuple() for i in out.instances] == [(0, 0, 120, 40), inner]


def test_perturb_rejects_single_label_ground_truth():
    gt = AnnotationSet("img", (row(0, 0, 100, 20),), LabelMode.SINGLE)
    message = "img: perturb expects multi-label ground truth (apply decode_pseudo first)"
    with pytest.raises(LabelModeError, match=f"^{re.escape(message)}$"):
        perturb(gt, PerturbationSpec(PerturbationMode.DILATE, 2.0), *IMAGE)


def misalign_fixture():
    gt_file, _ = generate_fixtures(
        FixtureSpec(n_tables=8, seed=42, span_probability=0.0, header_probability=0.0)
    )
    return gt_file, gt_file.trees_by_image()


def test_identity_report_row():
    corpus, trees = misalign_fixture()
    report = misalignment_report(corpus, trees, [PerturbationSpec(PerturbationMode.DILATE, 0.0)])
    assert report.rows[0].mean_ap == 1.0
    assert report.rows[0].teds_overall == 1.0


def test_divergence_pattern():
    corpus, trees = misalign_fixture()
    specs = [
        PerturbationSpec(PerturbationMode.DILATE, 2.0),
        PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL),
        PerturbationSpec(PerturbationMode.SHRINK, 4.0),
        PerturbationSpec(PerturbationMode.MERGE_ADJACENT, target_classes=ROW_ONLY),
    ]
    report = misalignment_report(corpus, trees, specs)
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
    corpus, trees = misalign_fixture()
    specs = [
        PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL),
        PerturbationSpec(PerturbationMode.DILATE, 1.0),
    ]
    report = misalignment_report(corpus, trees, specs)
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
    corpus = CorpusFile(LabelMode.MULTI, [ImageRecord("img", width, 40.0, gt.instances)])
    (result,) = misalignment_report(corpus, trees, [PerturbationSpec(PerturbationMode.DILATE, 0.0)]).rows
    assert result.teds_overall == 0.0


# ------------------------------------------------- columns against instances

def outcome(function, gt, spec, size):
    """The perturbed set and None, or None and the raised (type, text)."""
    try:
        return function(gt, spec, *size), None
    except Exception as exc:  # the type is compared too
        return None, (type(exc), str(exc))


def assert_matches_reference(gt, spec, size):
    # the reference reads float coordinates, as the loader gives them
    packed = AnnotationSet(gt.image_id, Instances.pack(gt.instances), gt.mode)
    expected, expected_error = outcome(reference_perturb, packed, spec, size)
    got, error = outcome(perturb, gt, spec, size)
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
    st.sampled_from([1e150, 6e153, 1e200, 1e308]),  # dilate clamps each to the image
    st.floats(min_value=0.0, max_value=80.0),
)
TARGETS = st.frozensets(st.sampled_from(MULTI_LABEL_CLASSES), min_size=1)


@st.composite
def perturbation_problems(draw):
    """A packed fixture table, some instances without content or with unknown fields, a spec and the image size."""
    corpus, _ = generate_fixtures(FixtureSpec(n_tables=1, seed=draw(st.integers(0, 10_000))))
    ((gt,), (image,)) = corpus.annotation_sets(), corpus.images
    instances = list(gt.instances)
    indices = st.sets(st.integers(0, len(instances) - 1), max_size=4)
    for i in draw(indices):
        instances[i] = instances[i].replace(content_box=None)
    for i in draw(indices):
        instances[i] = instances[i].replace(extra={"note": i})
    spec = PerturbationSpec(draw(SPEC_MODES), draw(MAGNITUDES), draw(TARGETS))
    return AnnotationSet(gt.image_id, Instances.pack(instances), gt.mode), spec, (image.width, image.height)


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
    PerturbationSpec(PerturbationMode.DILATE, 0.0),
    PerturbationSpec(PerturbationMode.DILATE, 1.5),
    PerturbationSpec(PerturbationMode.DILATE, 1e200, {ComponentClass.COLUMN, ComponentClass.ROW}),
    PerturbationSpec(PerturbationMode.SHRINK, 2.0, ROW_ONLY),
    PerturbationSpec(PerturbationMode.SHRINK, 4.0),
    PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL, target_classes=ROW_ONLY),
    PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL, target_classes={ComponentClass.TABLE}),
])
@pytest.mark.parametrize("gt", hand_built_sets(), ids=lambda gt: gt.image_id)
def test_perturb_matches_instance_reference_on_hand_built_sets(gt, spec):
    assert_matches_reference(gt, spec, (100.0, 60.0))  # the smallest image that holds every set


OVERHANGS = st.sampled_from([0.0, -0.0, 5.0, 40.0, 1e4])  # px past a box side, most past the image


def widened(box: BBox, draw) -> BBox:
    x1, y1, x2, y2 = box
    return BBox(x1 - draw(OVERHANGS), y1 - draw(OVERHANGS), x2 + draw(OVERHANGS), y2 + draw(OVERHANGS))


@st.composite
def round_trip_problems(draw):
    """A packed fixture table with content extents and untargeted boxes widened past the image, unknown
    fields on some instances, a spec that perturbs it without error and the image size."""
    corpus, _ = generate_fixtures(FixtureSpec(n_tables=1, seed=draw(st.integers(0, 10_000))))
    ((gt,), (image,)) = corpus.annotation_sets(), corpus.images
    mode = draw(SPEC_MODES)
    magnitude = draw(st.sampled_from([0.0, 0.5, 1.0]) if mode is PerturbationMode.SHRINK else MAGNITUDES)
    spec = PerturbationSpec(mode, magnitude, draw(TARGETS))
    instances = list(gt.instances)
    indices = st.sets(st.integers(0, len(instances) - 1), max_size=6)
    for i in draw(indices):
        instances[i] = instances[i].replace(content_box=widened(instances[i].content_box, draw))
    for i in draw(indices):
        if instances[i].cls not in spec.target_classes:
            instances[i] = instances[i].replace(box=widened(instances[i].box, draw))
    for i in draw(indices):
        instances[i] = instances[i].replace(extra={"note": i, "at": [i, -0.0]})
    return AnnotationSet(gt.image_id, Instances.pack(instances), gt.mode), spec, (image.width, image.height)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(round_trip_problems())
def test_perturb_returns_what_its_written_file_loads_as(problem):
    gt, spec, (width, height) = problem
    out = perturb(gt, spec, width, height)
    records, handler = [], logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("tsrkit.formats")
    logger.addHandler(handler)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "pred.json")
        formats.save(CorpusFile(LabelMode.MULTI, [ImageRecord(gt.image_id, width, height, out.instances)]), path)
        try:
            (loaded,) = formats.load_detections(path).images
        finally:
            logger.removeHandler(handler)
    assert records == []  # every box already lies in its image
    assert tuple(loaded.instances) == tuple(out.instances)
    assert [i.extra for i in loaded.instances] == [i.extra for i in out.instances]
    assert repr(tuple(loaded.instances)) == repr(tuple(out.instances))


# ------------------------------------------------- the core against the CLI

IDENTITY_SPECS = ["dilate:2", "shrink:2", "snap", "merge:row", "dilate:5:row+column", "dilate:40", "dilate:1e308"]


@pytest.fixture(scope="module")
def identity_ground_truth(tmp_path_factory):
    """gen-fixtures --tables 12 --seed 11 without the Rows of image 3: multi-label, single-label, and
    single-label with each stored column-header extent reaching past both sides of its image."""
    root = tmp_path_factory.mktemp("identity")
    prefix, multi, single = str(root / "fx"), str(root / "multi.gt.json"), str(root / "single.gt.json")
    wide = str(root / "wide.gt.json")
    assert main(["gen-fixtures", "-o", prefix, "--tables", "12", "--seed", "11"]) == 0
    with open(f"{prefix}.gt.json", encoding="utf-8") as handle:
        data = json.load(handle)
    image = data["images"][3]
    image["instances"] = [inst for inst in image["instances"] if inst["class_id"] != ComponentClass.ROW]
    with open(multi, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    assert main(["encode-labels", multi, "-o", single]) == 0
    with open(single, encoding="utf-8") as handle:
        data = json.load(handle)
    headers = [
        (inst, image["width"])
        for image in data["images"]
        for inst in image["instances"]
        if inst["class_id"] == ComponentClass.PSEUDO_HEADER_ROW
    ]
    assert headers
    for inst, width in headers:
        _, y1, _, y2 = inst["bbox"]
        inst[HEADER_CONTENT_KEY] = [-40, y1 + 2, width + 40, y2 - 2]
    with open(wide, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return {"multi": multi, "single": single, "wide": wide}


@pytest.mark.parametrize("spec", IDENTITY_SPECS)
@pytest.mark.parametrize("label_mode", ["multi", "single", "wide"])
def test_misalign_scores_what_the_cli_scores(identity_ground_truth, tmp_path, capsys, label_mode, spec):
    gt_path = identity_ground_truth[label_mode]
    corpus = formats.load_ground_truth(gt_path)
    gt_sets = corpus.multi_label_sets()
    perturbed = [
        perturb(ann, parse_perturbation_spec(spec), rec.width, rec.height)
        for ann, rec in zip(gt_sets, corpus.images)
    ]
    ap, teds_report, failures = compare(perturbed, gt_sets, corpus.trees_by_image())
    assert [image_id for image_id, _ in failures] == ["table_003"]

    # the same predictions, written with each image's size and scored by the CLI
    pred_path, html_dir = str(tmp_path / "pred.json"), str(tmp_path / "html")
    records = [ImageRecord(a.image_id, r.width, r.height, a.instances) for a, r in zip(perturbed, corpus.images)]
    formats.save(CorpusFile(LabelMode.MULTI, records), pred_path)
    capsys.readouterr()
    assert main(["coco-eval", pred_path, gt_path]) == 0
    coco_out = capsys.readouterr().out.splitlines()
    assert coco_out == ap.format_lines()
    assert main(["reconstruct", pred_path, "-o", html_dir]) == 1
    assert capsys.readouterr().err == "".join(f"failed {image_id}: {message}\n" for image_id, message in failures)
    assert main(["teds", html_dir, gt_path]) == 0
    teds_out = capsys.readouterr().out.splitlines()
    assert teds_out == teds_report.format_lines()

    assert main(["misalign", gt_path, "--spec", spec]) == 0
    out, err = capsys.readouterr()
    label = parse_perturbation_spec(spec).describe()
    assert out.splitlines()[1].split() == [label, coco_out[0].split(" = ")[1], teds_out[-1].split(" = ")[1]]
    assert err == "".join(f"failed {label} {image_id}: {message}\n" for image_id, message in failures)


def test_misalign_prints_the_same_rows_for_both_label_formulations(tmp_path, capsys):
    # every perturbed confidence is 1.0, so AP reads the order within a class
    prefix, single = str(tmp_path / "id"), str(tmp_path / "single.gt.json")
    assert main(["gen-fixtures", "-o", prefix, "--tables", "40", "--seed", "11"]) == 0
    assert main(["encode-labels", f"{prefix}.gt.json", "-o", single]) == 0
    specs = ["--spec", "snap", "--spec", "shrink:2", "--spec", "merge:row", "--spec", "dilate:2", "--spec", "dilate:40"]
    capsys.readouterr()
    assert main(["misalign", f"{prefix}.gt.json", *specs]) == 0
    multi = capsys.readouterr()
    assert main(["misalign", single, *specs]) == 0
    assert capsys.readouterr() == multi
    assert [line.split() for line in multi.out.splitlines()[1:3]] == [
        ["snap", "0.4654", "1.0000"],
        ["shrink:2", "0.6636", "1.0000"],
    ]
