import argparse
import errno
import gc
import json
import os
import re
import sys
import warnings

import pytest

import tsrkit.formats
import tsrkit.teds.tree
from tsrkit.anchors import TABLE_ASPECT_RATIOS
from tsrkit.cli import build_parser, main
from tsrkit.labels import ComponentClass
from tsrkit.misalign import ALL_CLASSES, PerturbationMode, PerturbationSpec, parse_perturbation_spec


@pytest.fixture
def fixture_files(tmp_path):
    prefix = str(tmp_path / "fx")
    assert main(["gen-fixtures", "-o", prefix, "--tables", "6", "--seed", "3"]) == 0
    return f"{prefix}.gt.json", f"{prefix}.pred.json"


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_gen_fixtures_reproducible(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for prefix in (a, b):
        assert main(["gen-fixtures", "-o", prefix, "--tables", "5", "--seed", "11"]) == 0
    assert read(f"{a}.gt.json") == read(f"{b}.gt.json")
    assert read(f"{a}.pred.json") == read(f"{b}.pred.json")


@pytest.mark.parametrize("value", ["nan", "7", "-3", "1.0000001"])
@pytest.mark.parametrize("option", ["span-probability", "header-probability"])
def test_gen_fixtures_rejects_probability_outside_unit_interval(tmp_path, capsys, option, value):
    prefix = str(tmp_path / "fx")
    with pytest.raises(SystemExit) as exc:
        main(["gen-fixtures", "-o", prefix, "--tables", "2", f"--{option}", value])
    assert exc.value.code == 1
    field = option.replace("-", "_")
    assert capsys.readouterr().err == f"error: {field}: must lie in [0, 1], got {float(value)!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen-fixtures", "stats", "encode-labels"])
def test_write_error_names_the_output_path(fixture_files, capsys, tmp_path, command):
    gt, _ = fixture_files
    missing = tmp_path / "missing"
    taken = tmp_path / "taken"
    taken.mkdir()
    argv, target, code = {
        "gen-fixtures": (["gen-fixtures", "-o", str(missing / "fx")], f"{missing / 'fx'}.gt.json", errno.ENOENT),
        "stats": (["stats", gt, "--csv", str(missing / "h.csv")], str(missing / "h.csv"), errno.ENOENT),
        "encode-labels": (["encode-labels", gt, "-o", str(taken)], str(taken), errno.EISDIR),
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {target}: {os.strerror(code)}\n"
    assert list(tmp_path.rglob(".tsrkit-*.tmp")) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_output_files_get_the_mode_the_umask_leaves(tmp_path, umask, mode):
    prefix = str(tmp_path / "fx")
    previous = os.umask(umask)
    try:
        assert main(["gen-fixtures", "-o", prefix, "--tables", "2", "--seed", "3"]) == 0
        assert main(["reconstruct", f"{prefix}.pred.json", "-o", str(tmp_path / "html")]) == 0
        assert main(["stats", f"{prefix}.gt.json", "--csv", str(tmp_path / "h.csv")]) == 0
    finally:
        os.umask(previous)
    written = [f"{prefix}.gt.json", f"{prefix}.pred.json", str(tmp_path / "h.csv")]
    written += [str(path) for path in (tmp_path / "html").iterdir()]
    assert len(written) == 5
    assert {path: oct(os.stat(path).st_mode & 0o777) for path in written} == dict.fromkeys(written, oct(mode))


def test_stats_output(fixture_files, capsys, tmp_path):
    gt, _ = fixture_files
    csv_path = str(tmp_path / "hist.csv")
    assert main(["stats", gt, "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    assert "images = 6" in out
    assert "objects/image =" in out
    lines = read(csv_path).decode().splitlines()
    assert lines[0] == "ratio_bucket,count"
    assert len(lines) > 1


def test_stats_two_image_average(tmp_path, capsys):
    def image(image_id, count):
        return {
            "image_id": image_id,
            "width": 200.0,
            "height": 100.0,
            "instances": [
                {"bbox": [0.0, 10.0 * j, 50.0, 10.0 * j + 8.0], "class_id": 2}
                for j in range(count)
            ],
        }

    path = tmp_path / "two.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "label_mode": "multi",
                "images": [image("a", 3), image("b", 5)],
            }
        )
    )
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "objects/image = 4.00" in out


def test_stats_buckets_a_ratio_that_overflows(tmp_path, capsys):
    # height / width overflows to inf, which the top bucket holds like any ratio above it
    thin = {"image_id": "t", "width": 10.0, "height": 10.0,
            "instances": [{"bbox": [0, 0, 5e-324, 1], "class_id": 2}]}
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"schema_version": 1, "label_mode": "multi", "images": [thin]}))
    csv_path = tmp_path / "hist.csv"
    assert main(["stats", str(path), "--csv", str(csv_path)]) == 0
    assert read(csv_path) == b"ratio_bucket,count\n140,1\n"


# height / width underflows to 0 for the wide box, which fold_ratio rejects,
# and overflows to inf for the tall one; both are as extreme as a ratio gets
@pytest.mark.parametrize(
    "width, height, bbox",
    [(1e300, 1.0, [0, 0, 1e300, 1e-300]), (1.0, 1e300, [0, 0, 1e-300, 1e300])],
    ids=["underflows", "overflows"],
)
def test_stats_buckets_an_extreme_box_at_the_top(tmp_path, capsys, width, height, bbox):
    image = {"image_id": "x", "width": width, "height": height, "instances": [{"bbox": bbox, "class_id": 2}]}
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"schema_version": 1, "label_mode": "multi", "images": [image]}))
    csv_path = tmp_path / "hist.csv"
    assert main(["stats", str(path), "--csv", str(csv_path)]) == 0
    assert read(csv_path) == b"ratio_bucket,count\n140,1\n"


def test_reconstruct_and_teds(fixture_files, capsys, tmp_path):
    gt, pred = fixture_files
    html_dir = str(tmp_path / "html")
    assert main(["reconstruct", pred, "-o", html_dir]) == 0
    produced = sorted(os.listdir(html_dir))
    assert produced == [f"table_{i:03d}.html" for i in range(6)]

    capsys.readouterr()
    assert main(["teds", html_dir, gt]) == 0
    out = capsys.readouterr().out
    assert "TEDS overall = 1.0000" in out


def test_reconstruct_reruns_byte_identical(fixture_files, tmp_path):
    _, pred = fixture_files
    d1, d2 = str(tmp_path / "h1"), str(tmp_path / "h2")
    assert main(["reconstruct", pred, "-o", d1]) == 0
    assert main(["reconstruct", pred, "-o", d2]) == 0
    for name in os.listdir(d1):
        assert read(os.path.join(d1, name)) == read(os.path.join(d2, name))


def test_teds_missing_prediction_scores_zero(fixture_files, capsys, tmp_path):
    gt, pred = fixture_files
    html_dir = str(tmp_path / "html")
    assert main(["reconstruct", pred, "-o", html_dir]) == 0
    os.unlink(os.path.join(html_dir, "table_000.html"))
    capsys.readouterr()
    assert main(["teds", html_dir, gt]) == 0
    captured = capsys.readouterr()
    assert "TEDS overall = 1.0000" not in captured.out
    assert captured.err == "prediction missing table_000\n"


@pytest.mark.parametrize("kind, code", [("missing", errno.ENOENT), ("file", errno.ENOTDIR)], ids=["missing", "file"])
def test_teds_rejects_a_predictions_dir_that_is_not_a_directory(fixture_files, capsys, tmp_path, kind, code):
    gt, pred = fixture_files
    predictions_dir = pred if kind == "file" else str(tmp_path / "missing")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["teds", predictions_dir, gt])
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", f"error: {predictions_dir}: {os.strerror(code)}\n")


@pytest.fixture
def parse_count(monkeypatch):
    """Counts parse_table_html calls, replacing it in every loaded tsrkit module that holds it."""
    calls = []
    parse = tsrkit.teds.tree.parse_table_html

    def counted(fragment):
        calls.append(fragment)
        return parse(fragment)

    for name, module in list(sys.modules.items()):
        if name == "tsrkit" or name.startswith("tsrkit."):
            for attr, value in list(vars(module).items()):
                if value is parse:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_teds_parses_each_table_twice(fixture_files, tmp_path, parse_count):
    # the ground truth once, at load, and the prediction once
    gt, pred = fixture_files
    html_dir = str(tmp_path / "html")
    assert main(["reconstruct", pred, "-o", html_dir]) == 0
    parse_count.clear()
    assert main(["teds", html_dir, gt]) == 0
    assert len(parse_count) == 2 * 6


def test_misalign_parses_ground_truth_once(fixture_files, parse_count):
    # the ground truth once, at load, and one prediction per spec
    gt, _ = fixture_files
    specs = ["dilate:2", "snap", "merge:row"]
    assert main(["misalign", gt, *(arg for spec in specs for arg in ("--spec", spec))]) == 0
    assert len(parse_count) == (1 + len(specs)) * 6


@pytest.fixture
def gt_missing_html(fixture_files, tmp_path):
    gt, _ = fixture_files
    with open(gt, encoding="utf-8") as handle:
        data = json.load(handle)
    del data["images"][2]["html"]
    path = tmp_path / "partial.gt.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_teds_rejects_ground_truth_without_html(gt_missing_html, capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["teds", str(tmp_path), gt_missing_html])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ground truth without html for: ['table_002']\n"


def test_misalign_rejects_ground_truth_without_html(gt_missing_html, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["misalign", gt_missing_html, "--spec", "snap"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CorpusError: images without ground-truth html: ['table_002']\n"


def test_reconstruct_accepts_single_label_detections(tmp_path, capsys):
    # one pseudo header row (class 6) over a 2x2 lattice; reconstruction must
    # decode it into a row plus a column header and emit a thead
    detections = {
        "schema_version": 1,
        "label_mode": "single",
        "images": [
            {
                "image_id": "t",
                "width": 120.0,
                "height": 60.0,
                "instances": [
                    {"bbox": [0.0, 0.0, 100.0, 20.0], "class_id": 6, "score": 0.9},
                    {"bbox": [0.0, 20.0, 100.0, 40.0], "class_id": 2, "score": 0.9},
                    {"bbox": [0.0, 0.0, 50.0, 40.0], "class_id": 1, "score": 0.9},
                    {"bbox": [50.0, 0.0, 100.0, 40.0], "class_id": 1, "score": 0.9},
                ],
            }
        ],
    }
    pred_path = tmp_path / "single.json"
    pred_path.write_text(json.dumps(detections))
    html_dir = str(tmp_path / "html")
    assert main(["reconstruct", str(pred_path), "-o", html_dir]) == 0
    with open(os.path.join(html_dir, "t.html")) as handle:
        html = handle.read()
    assert html == (
        "<table><thead><tr><td></td><td></td></tr></thead>"
        "<tbody><tr><td></td><td></td></tr></tbody></table>"
    )


@pytest.mark.parametrize("label_mode", ["multi", "single"])
def test_reconstruct_keeps_a_row_scored_at_the_threshold(tmp_path, label_mode):
    # the score threshold is inclusive: the row at 0.5 survives, the one at 0.4999 is dropped
    rows = [{"bbox": [0.0, 20.0 * r, 100.0, 20.0 * (r + 1)], "class_id": 2, "score": s}
            for r, s in enumerate((0.9, 0.5, 0.4999))]
    columns = [{"bbox": [x, 0.0, x + 50.0, 60.0], "class_id": 1, "score": 0.9} for x in (0.0, 50.0)]
    detections = {"schema_version": 1, "label_mode": label_mode, "images": [
        {"image_id": "t", "width": 120.0, "height": 60.0, "instances": rows + columns}]}
    pred_path = tmp_path / "threshold.json"
    pred_path.write_text(json.dumps(detections))
    html_dir = str(tmp_path / "html")
    assert main(["reconstruct", str(pred_path), "-o", html_dir]) == 0
    with open(os.path.join(html_dir, "t.html")) as handle:
        assert handle.read() == "<table><tbody>" + "<tr><td></td><td></td></tr>" * 2 + "</tbody></table>"


def test_coco_eval_perfect(fixture_files, capsys):
    gt, pred = fixture_files
    assert main(["coco-eval", pred, gt]) == 0
    out = capsys.readouterr().out
    assert "AP = 1.0000" in out
    assert "AP50 = 1.0000" in out


def test_coco_eval_names_the_first_detection_without_a_score(fixture_files, capsys, tmp_path):
    gt, pred = fixture_files
    data = json.loads(read(pred))
    del data["images"][2]["instances"][4]["score"]
    del data["images"][4]["instances"][0]["score"]
    unscored = tmp_path / "unscored.json"
    unscored.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main(["coco-eval", str(unscored), gt])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: SchemaError: {unscored}: $.images[2].instances[4]: prediction without confidence\n"


@pytest.mark.parametrize("which", ["predictions", "ground truth"])
def test_coco_eval_rejects_an_image_whose_area_overflows(fixture_files, capsys, tmp_path, which):
    gt, pred = fixture_files
    path = pred if which == "predictions" else gt
    data = json.loads(read(path))
    data["images"][1]["width"] = 1e308
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data))
    argv = ["coco-eval", str(huge), gt] if which == "predictions" else ["coco-eval", pred, str(huge)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    height = data["images"][1]["height"]
    assert captured.err == f"error: SchemaError: {huge}: $.images[1]: image area 1e+308 x {height!r} overflows\n"


def test_encode_decode_round_trip(fixture_files, tmp_path):
    gt, _ = fixture_files
    encoded = str(tmp_path / "single.json")
    assert main(["encode-labels", gt, "-o", encoded]) == 0
    with open(encoded) as handle:
        assert json.load(handle)["label_mode"] == "single"

    decoded = str(tmp_path / "multi.json")
    assert main(["decode-labels", encoded, "-o", decoded]) == 0
    with open(decoded) as handle:
        raw = json.load(handle)
    assert raw["label_mode"] == "multi"
    assert all(
        inst["class_id"] != 6 for img in raw["images"] for inst in img["instances"]
    )


@pytest.fixture
def json_loads_count(monkeypatch):
    """The texts ``formats`` parses with ``json.loads``."""
    calls = []
    loads = json.loads
    monkeypatch.setattr(tsrkit.formats.json, "loads", lambda text: calls.append(text) or loads(text))
    return calls


def single_label_detections(encoded: dict) -> dict:
    """Single-label ground truth as detections: each instance scored, no content extents or html."""
    for image in encoded["images"]:
        image.pop("html")
        for inst in image["instances"]:
            inst.pop("content_bbox", None)
            inst["score"] = 0.9
    return encoded


@pytest.mark.parametrize("kind", ["ground truth", "detections"])
def test_decode_labels_parses_its_input_once(fixture_files, tmp_path, json_loads_count, kind):
    gt, _ = fixture_files
    single = tmp_path / "single.json"
    assert main(["encode-labels", gt, "-o", str(single)]) == 0
    if kind == "detections":
        single.write_text(json.dumps(single_label_detections(json.loads(read(single)))))
    json_loads_count.clear()
    decoded = str(tmp_path / "multi.json")
    assert main(["decode-labels", str(single), "-o", decoded]) == 0
    assert len(json_loads_count) == 1
    image = json.loads(read(decoded))["images"][0]
    assert ("html" in image) == (kind == "ground truth")
    assert all(("score" in inst) == (kind == "detections") for inst in image["instances"])


def unscored(data, images):
    for i in images:
        for inst in data["images"][i]["instances"]:
            del inst["score"]


# The first score, content_bbox or html in file order decides which rules a
# file is read by, so the error named is the first one under those rules.
@pytest.mark.parametrize(
    "kind, edit, where",
    [
        ("ground truth", lambda data: data["images"][2]["instances"][1].update(bbox=[5, 5, "x", 9]),
         "$.images[2].instances[1].bbox: bbox holds non-finite or non-numeric values [5, 5, 'x', 9]"),
        ("detections", lambda data: unscored(data, [0, 1]) or data["images"][0].update(html="<table></table>"),
         "$.images[2].instances[0].score: ground truth must not carry scores"),
        ("detections", lambda data: data["images"][2]["instances"][0].update(content_bbox=[0, 0, 1, 1]),
         "$.images[2].instances[0].content_bbox: only ground truth carries content extents"),
    ],
    ids=["damaged ground truth", "html then score", "score then content_bbox"],
)
def test_decode_labels_names_the_fault_under_the_first_carrier(fixture_files, tmp_path, capsys, kind, edit, where):
    gt, _ = fixture_files
    single = tmp_path / "single.json"
    assert main(["encode-labels", gt, "-o", str(single)]) == 0
    data = json.loads(read(single))
    if kind == "detections":
        data = single_label_detections(data)
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["decode-labels", str(bad), "-o", str(tmp_path / "out.json")])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: SchemaError: {bad}: {where}\n"


def test_instance_unknown_fields_survive_label_transforms(fixture_files, tmp_path):
    gt, _ = fixture_files
    with open(gt) as handle:
        raw = json.load(handle)
    raw["images"][0]["instances"][0]["flagged"] = True  # the table box, kept by both transforms
    annotated = str(tmp_path / "annotated.json")
    with open(annotated, "w") as handle:
        json.dump(raw, handle)

    encoded = str(tmp_path / "single.json")
    decoded = str(tmp_path / "multi.json")
    assert main(["encode-labels", annotated, "-o", encoded]) == 0
    assert main(["decode-labels", encoded, "-o", decoded]) == 0
    for path in (encoded, decoded):
        with open(path) as handle:
            first = json.load(handle)["images"][0]["instances"][0]
        assert first["class_id"] == 0
        assert first["flagged"] is True


def test_header_row_fields_survive_label_transforms(fixture_files, tmp_path):
    gt, _ = fixture_files
    with open(gt) as handle:
        raw = json.load(handle)
    image = next(
        img for img in raw["images"]
        if any(i["class_id"] == 5 for i in img["instances"])
    )
    header = next(i for i in image["instances"] if i["class_id"] == 5)
    row = next(i for i in image["instances"] if i["class_id"] == 2 and i["bbox"] == header["bbox"])
    row["r"], header["h"] = 1, 1
    annotated = str(tmp_path / "annotated.json")
    with open(annotated, "w") as handle:
        json.dump({**raw, "images": [image]}, handle)

    encoded = str(tmp_path / "single.json")
    decoded = str(tmp_path / "multi.json")
    assert main(["encode-labels", annotated, "-o", encoded]) == 0
    assert main(["decode-labels", encoded, "-o", decoded]) == 0
    with open(decoded) as handle:
        instances = json.load(handle)["images"][0]["instances"]
    fields = {
        i["class_id"]: {k: v for k, v in i.items() if k in ("r", "h")}
        for i in instances
        if i["bbox"] == header["bbox"]
    }
    assert fields == {2: {"r": 1}, 5: {"h": 1}}


def test_header_content_extent_survives_label_transforms(fixture_files, tmp_path):
    gt, _ = fixture_files
    with open(gt) as handle:
        raw = json.load(handle)
    image = next(
        img for img in raw["images"]
        if any(i["class_id"] == 5 for i in img["instances"])
    )
    header = next(i for i in image["instances"] if i["class_id"] == 5)
    row = next(i for i in image["instances"] if i["class_id"] == 2 and i["bbox"] == header["bbox"])
    x1, y1, x2, y2 = row["content_bbox"]
    header["content_bbox"] = [x1 + 4.0, y1, x2 - 4.0, y2]
    annotated = str(tmp_path / "annotated.json")
    with open(annotated, "w") as handle:
        json.dump({**raw, "images": [image]}, handle)

    encoded = str(tmp_path / "single.json")
    decoded = str(tmp_path / "multi.json")
    assert main(["encode-labels", annotated, "-o", encoded]) == 0
    with open(encoded) as handle:
        (pseudo,) = [i for i in json.load(handle)["images"][0]["instances"] if i["class_id"] == 6]
    assert pseudo["content_bbox"] == row["content_bbox"]
    assert pseudo["column_header_content_bbox"] == header["content_bbox"]
    assert main(["decode-labels", encoded, "-o", decoded]) == 0
    with open(decoded) as handle:
        instances = json.load(handle)["images"][0]["instances"]
    extents = {i["class_id"]: i["content_bbox"] for i in instances if i["bbox"] == header["bbox"]}
    assert extents == {2: row["content_bbox"], 5: header["content_bbox"]}
    assert not any("column_header_content_bbox" in i for i in instances)


def test_misalign_cli(fixture_files, capsys, tmp_path):
    gt, _ = fixture_files
    csv_path = str(tmp_path / "report.csv")
    assert (
        main(
            [
                "misalign",
                gt,
                "--spec",
                "dilate:0",
                "--spec",
                "snap",
                "--csv",
                csv_path,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "dilate:0" in out and "snap" in out
    lines = read(csv_path).decode().splitlines()
    assert lines[0] == "perturbation,mAP,TEDS"
    assert lines[1].startswith("dilate:0,1.000000,1.000000")


# dilate:1e200 and dilate:1e308 are finite but give boxes of infinite area,
# whose IoU used to be nan: exit 0, mAP 0 and a numpy overflow warning.
# dilate:6e153 gives finite areas whose sum overflows, so a box's IoU with
# itself used to be 0 and NMS kept duplicates: exit 0 with a wrong TEDS.
@pytest.mark.parametrize("spec", ["dilate:inf", "dilate:nan", "dilate:1e200", "dilate:1e308", "dilate:6e153"])
def test_misalign_cli_rejects_nonfinite_magnitude(fixture_files, capsys, spec):
    gt, _ = fixture_files
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["misalign", gt, "--spec", spec])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "magnitude" in captured.err


def test_misalign_cli_dilates_to_large_finite_area(fixture_files, capsys):
    gt, _ = fixture_files
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["misalign", gt, "--spec", "dilate:1e150"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split()[:2] == ["dilate:1e+150", "0.0000"]


# Rows of the per-instance perturbation, pinned on gen-fixtures --tables 6 --seed 3.
@pytest.mark.parametrize(
    "spec, row",
    [
        ("merge:column", "merge:column                     0.9336   0.8446"),
        ("shrink:1:row+column", "shrink:1:column+row              0.9776   1.0000"),
        ("dilate:5:row+column", "dilate:5:column+row              0.8599   0.9653"),
        ("dilate:0.5:table", "dilate:0.5:table                 1.0000   1.0000"),
    ],
)
def test_misalign_cli_rows_are_pinned(fixture_files, capsys, spec, row):
    gt, _ = fixture_files
    assert main(["misalign", gt, "--spec", spec]) == 0
    header = f"{'perturbation':<30} {'mAP':>8} {'TEDS':>8}"
    assert capsys.readouterr().out == f"{header}\n{row}\n"


def without_content_extent(gt, tmp_path, instance):
    with open(gt, encoding="utf-8") as handle:
        corpus = json.load(handle)
    del corpus["images"][0]["instances"][instance]["content_bbox"]
    path = tmp_path / "no_content.gt.json"
    path.write_text(json.dumps(corpus), encoding="utf-8")
    return str(path)


# Each perturbation error names the image it failed on.
@pytest.mark.parametrize(
    "spec, message",
    [
        ("shrink:50", "table_000: shrink by 50.0 degenerates box (35.8, 43.99, 135.18, 156.57)"),
        (
            "dilate:1e200",
            "table_000: dilate by magnitude 1e+200 overflows the area of box (22.33, 30.52, 417.84, 170.04)",
        ),
        ("snap", "table_000: COLUMN at (35.8, 43.99, 135.18, 156.57) carries no content extent"),
    ],
)
def test_misalign_cli_perturbation_errors_name_the_image(fixture_files, capsys, tmp_path, spec, message):
    gt = without_content_extent(fixture_files[0], tmp_path, 1)
    with pytest.raises(SystemExit) as exc:
        main(["misalign", gt, "--spec", spec])
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_kernels_check_cli(capsys):
    assert main(["kernels-check"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_anchors_cli(fixture_files, capsys):
    gt, _ = fixture_files
    assert main(["anchors", gt, "--ratios", "0.5", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "fraction best IoU >= 0.5" in out
    assert out == (
        "ratios = [0.5, 1.0, 2.0]\n"
        "anchors = 46827\n"
        "fraction best IoU >= 0.5 = 0.5200\n"
        "fraction best IoU >= 0.7 = 0.2267\n"
        "mean best IoU = 0.4905\n"
    )
    assert main(["anchors", gt, "--ratios", *map(str, TABLE_ASPECT_RATIOS)]) == 0
    assert capsys.readouterr().out == (
        "ratios = [0.0125, 0.025, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0, 80.0]\n"
        "anchors = 202917\n"
        "fraction best IoU >= 0.5 = 1.0000\n"
        "fraction best IoU >= 0.7 = 0.4400\n"
        "mean best IoU = 0.6911\n"
    )


@pytest.mark.parametrize("ratios", [["nan"], ["inf"], ["1", "nan"], ["1", "1"]])
def test_anchors_cli_rejects_nonfinite_ratios(fixture_files, capsys, ratios):
    gt, _ = fixture_files
    with pytest.raises(SystemExit) as exc:
        main(["anchors", gt, "--ratios", *ratios])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "aspect_ratios" in captured.err


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["stats", str(bad)])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_clean_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", str(tmp_path / "absent.json")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


NOT_UTF8 = "not UTF-8 text: invalid start byte (at byte 0)"


@pytest.fixture
def not_utf8(fixture_files, tmp_path):
    """A copy of the ground truth behind one 0xff byte."""
    gt, _ = fixture_files
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff" + read(gt))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "{bad}"],
        ["anchors", "{bad}"],
        ["encode-labels", "{bad}", "-o", "{out}"],
        ["decode-labels", "{bad}", "-o", "{out}"],
        ["reconstruct", "{bad}", "-o", "{out}"],
        ["teds", "{out}", "{bad}"],
        ["coco-eval", "{bad}", "{gt}"],
        ["coco-eval", "{pred}", "{bad}"],
        ["misalign", "{bad}", "--spec", "snap"],
    ],
)
def test_non_utf8_corpus_names_file_and_offset(fixture_files, not_utf8, tmp_path, capsys, argv):
    gt, pred = fixture_files
    paths = {"bad": not_utf8, "gt": gt, "pred": pred, "out": str(tmp_path / "out")}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: SchemaError: {not_utf8}: {NOT_UTF8}\n"


def test_teds_scores_undecodable_prediction_zero(fixture_files, capsys, tmp_path):
    gt, pred = fixture_files
    html_dir = str(tmp_path / "html")
    assert main(["reconstruct", pred, "-o", html_dir]) == 0
    victim = os.path.join(html_dir, "table_000.html")
    html = read(victim)
    os.unlink(victim)
    capsys.readouterr()
    assert main(["teds", html_dir, gt]) == 0
    without = capsys.readouterr().out

    with open(victim, "wb") as handle:
        handle.write(b"\xff" + html)
    assert main(["teds", html_dir, gt]) == 0
    captured = capsys.readouterr()
    assert captured.out == without
    assert captured.err == f"prediction failed table_000: {victim}: {NOT_UTF8}\n"


def test_teds_scores_unreadable_prediction_zero(fixture_files, capsys, tmp_path):
    # a prediction path that exists but cannot be read used to end the run with exit 1
    gt, pred = fixture_files
    html_dir = str(tmp_path / "html")
    assert main(["reconstruct", pred, "-o", html_dir]) == 0
    victim = os.path.join(html_dir, "table_000.html")
    os.unlink(victim)
    capsys.readouterr()
    assert main(["teds", html_dir, gt]) == 0
    without = capsys.readouterr().out

    os.mkdir(victim)
    assert main(["teds", html_dir, gt]) == 0
    captured = capsys.readouterr()
    assert captured.out == without
    assert captured.err == f"prediction failed table_000: {victim}: Is a directory\n"


def test_teds_reports_each_prediction_that_scores_zero(fixture_files, capsys, tmp_path):
    gt, pred = fixture_files
    html_dir = tmp_path / "html"
    assert main(["reconstruct", pred, "-o", str(html_dir)]) == 0
    (html_dir / "table_000.html").unlink()
    (html_dir / "table_001.html").write_text("<table><tr>")
    latin = html_dir / "table_002.html"
    latin.write_bytes(b"\xff" + latin.read_bytes())
    (html_dir / "table_003.html").unlink()
    (html_dir / "table_003.html").mkdir()
    capsys.readouterr()
    assert main(["teds", str(html_dir), gt]) == 0
    captured = capsys.readouterr()
    assert captured.out == "TEDS simple = 0.6667\nTEDS complex = 0.0000\nTEDS overall = 0.3333\n"
    assert captured.err == (
        "prediction missing table_000\n"
        "prediction failed table_001: <tr> not allowed inside <table> (at character 7)\n"
        f"prediction failed table_002: {latin}: {NOT_UTF8}\n"
        f"prediction failed table_003: {html_dir / 'table_003.html'}: Is a directory\n"
    )


# Ids that are not one path component; with the ids of a two-table fixture
# replaced by them, "../escaped" would name a file beside the output
# directory and "sub/inner" one below it.
UNSAFE_IDS = ["../escaped", "sub/inner", ".", "..", "nul\0byte"]


def files_under(root):
    return sorted(
        os.path.relpath(os.path.join(parent, name), root)
        for parent, _, names in os.walk(root)
        for name in names
    )


@pytest.fixture
def unsafe_id_files(tmp_path):
    """Ground truth and detections whose images carry ``UNSAFE_IDS`` and one safe id, in ``tmp_path/work``."""
    work = tmp_path / "work"
    work.mkdir()
    prefix = str(work / "fx")
    assert main(["gen-fixtures", "-o", prefix, "--tables", str(len(UNSAFE_IDS) + 1), "--seed", "3"]) == 0
    paths = []
    for suffix in ("gt", "pred"):
        path = f"{prefix}.{suffix}.json"
        data = json.loads(read(path))
        for image, image_id in zip(data["images"], [*UNSAFE_IDS, "safe"]):
            image["image_id"] = image_id
        with open(path, "w") as handle:
            json.dump(data, handle)
        paths.append(path)
    return work, *paths


def test_reconstruct_writes_no_file_for_an_id_that_is_not_a_file_name(unsafe_id_files, capsys):
    work, _, pred = unsafe_id_files
    before = files_under(work.parent)
    assert main(["reconstruct", pred, "-o", str(work / "out" / "html")]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"wrote 1 table(s) to {work / 'out' / 'html'}\n"
    assert captured.err == "".join(f"failed {i}: image id is not a file name\n" for i in UNSAFE_IDS)
    assert files_under(work.parent) == sorted([*before, os.path.join("work", "out", "html", "safe.html")])


def test_teds_reads_no_file_for_an_id_that_is_not_a_file_name(unsafe_id_files, capsys, monkeypatch):
    work, gt, pred = unsafe_id_files
    html_dir = work / "out" / "html"
    html_dir.mkdir(parents=True)
    # perfect predictions where each unsafe id would lead, and for the safe one
    perfect = work / "perfect"
    assert main(["reconstruct", pred, "-o", str(perfect)]) == 1
    html = read(perfect / "safe.html")
    for name in ("safe.html", "sub/inner.html", "../escaped.html", "...html", "....html"):
        target = html_dir / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(html)
    opened = []
    read_text = tsrkit.formats.read_text
    monkeypatch.setattr(tsrkit.formats, "read_text", lambda path: opened.append(path) or read_text(path))
    capsys.readouterr()
    assert main(["teds", str(html_dir), gt]) == 0
    captured = capsys.readouterr()
    assert opened == [gt, os.path.join(str(html_dir), "safe.html")]
    # the unsafe ids sort before "safe" and score 0, as unreadable predictions do
    assert "TEDS overall = 0.1667" in captured.out
    assert captured.err == "".join(
        f"prediction failed {i}: image id is not a file name\n" for i in sorted(UNSAFE_IDS)
    )


def test_an_id_too_long_for_a_file_name_fails_only_its_image(tmp_path, capsys):
    prefix = str(tmp_path / "fx")
    assert main(["gen-fixtures", "-o", prefix, "--tables", "4", "--seed", "3"]) == 0
    html_dir = tmp_path / "html"
    html_dir.mkdir()
    name_max = os.pathconf(html_dir, "PC_NAME_MAX")
    # two-byte characters, so the limit counts UTF-8 bytes, not characters
    at_limit = "t" * ((name_max - 5) % 2) + "é" * ((name_max - 5) // 2)
    too_long = "t" * 300
    for suffix in ("gt", "pred"):
        path = f"{prefix}.{suffix}.json"
        data = json.loads(read(path))
        data["images"][1]["image_id"] = too_long
        data["images"][2]["image_id"] = at_limit
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, ensure_ascii=False)
    capsys.readouterr()
    assert main(["reconstruct", f"{prefix}.pred.json", "-o", str(html_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"wrote 3 table(s) to {html_dir}\n"
    assert captured.err == f"failed {too_long}: image id is not a file name\n"
    assert sorted(os.listdir(html_dir)) == sorted(["table_000.html", f"{at_limit}.html", "table_003.html"])
    assert main(["teds", str(html_dir), f"{prefix}.gt.json"]) == 0
    assert capsys.readouterr().err == f"prediction failed {too_long}: image id is not a file name\n"


@pytest.fixture
def surrogate_id_files(tmp_path):
    """A two-table corpus whose first image id holds a lone surrogate, which UTF-8 cannot encode."""
    prefix = str(tmp_path / "fx")
    assert main(["gen-fixtures", "-o", prefix, "--tables", "2", "--seed", "3"]) == 0
    paths = {}
    for suffix in ("gt", "pred"):
        path = paths[suffix] = f"{prefix}.{suffix}.json"
        data = json.loads(read(path))
        data["images"][0]["image_id"] = "tab\ud800le"
        with open(path, "w") as handle:
            json.dump(data, handle)  # ASCII JSON, so the surrogate is an escape
    return paths


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["stats", "{gt}"], "gt"),
        (["coco-eval", "{pred}", "{gt}"], "pred"),
        (["encode-labels", "{gt}", "-o", "{out}"], "gt"),
        (["reconstruct", "{pred}", "-o", "{out}"], "pred"),
        (["teds", "{out}", "{gt}"], "gt"),
    ],
    ids=["stats", "coco-eval", "encode-labels", "reconstruct", "teds"],
)
def test_image_id_that_utf8_cannot_encode_rejected_with_path(surrogate_id_files, tmp_path, capsys, argv, bad):
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(out=out, **surrogate_id_files) for arg in argv])
    assert exc.value.code == 1
    assert capsys.readouterr().err == (
        f"error: SchemaError: {surrogate_id_files[bad]}: $.images[0].image_id: "
        "not UTF-8 text: surrogates not allowed (at character 3)\n"
    )
    assert not os.path.exists(out)


# command -> its arguments and which file the bad text goes into
TEXT_COMMANDS = {
    "stats": (["stats", "{gt}"], "gt"),
    "anchors": (["anchors", "{gt}"], "gt"),
    "encode-labels": (["encode-labels", "{gt}", "-o", "{out}"], "gt"),
    "teds": (["teds", "{out}", "{gt}"], "gt"),
    "misalign": (["misalign", "{gt}", "--spec", "snap"], "gt"),
    "coco-eval-gt": (["coco-eval", "{pred}", "{gt}"], "gt"),
    "coco-eval-pred": (["coco-eval", "{pred}", "{gt}"], "pred"),
    "reconstruct": (["reconstruct", "{pred}", "-o", "{out}"], "pred"),
}


@pytest.mark.parametrize(
    "command, field",
    [
        (command, field)
        for command, (_, bad) in TEXT_COMMANDS.items()
        for field in ("html", "corpus", "image", "instance")
        if not (field == "html" and bad == "pred")  # detections carry no html
    ],
)
def test_text_that_utf8_cannot_encode_rejected_with_path(tmp_path, capsys, command, field):
    # such text used to load, and then either passed unseen or failed the write with a bare codec error
    argv, bad = TEXT_COMMANDS[command]
    prefix = str(tmp_path / "fx")
    assert main(["gen-fixtures", "-o", prefix, "--tables", "2", "--seed", "3"]) == 0
    paths = {"gt": f"{prefix}.gt.json", "pred": f"{prefix}.pred.json", "out": str(tmp_path / "out")}
    data = json.loads(read(paths[bad]))
    if field == "html":
        html = data["images"][1]["html"].replace("<td></td>", "<td>x\ud800</td>", 1)
        data["images"][1]["html"] = html
        where = f"$.images[1].html: not UTF-8 text: surrogates not allowed (at character {html.index(chr(0xd800))})"
    else:
        record, where = {
            "corpus": (data, "$"),
            "image": (data["images"][1], "$.images[1]"),
            "instance": (data["images"][1]["instances"][2], "$.images[1].instances[2]"),
        }[field]
        record["note"] = "x\ud800y"
        where += ".note: not UTF-8 text: surrogates not allowed"
    with open(paths[bad], "w") as handle:
        json.dump(data, handle)  # ASCII JSON, so the surrogate is an escape
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: SchemaError: {paths[bad]}: {where}\n"
    assert not os.path.exists(paths["out"])


def test_reconstruct_writes_the_other_tables_when_one_fails(fixture_files, tmp_path, capsys):
    _, pred = fixture_files
    data = json.loads(read(pred))
    image = data["images"][1]
    image["instances"] = [inst for inst in image["instances"] if inst["class_id"] != ComponentClass.ROW]
    no_rows = tmp_path / "no_rows.json"
    no_rows.write_text(json.dumps(data))
    html_dir = tmp_path / "html"
    assert main(["reconstruct", str(no_rows), "-o", str(html_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"wrote 5 table(s) to {html_dir}\n"
    n_columns = sum(inst["class_id"] == ComponentClass.COLUMN for inst in image["instances"])
    assert captured.err == (
        f"failed table_001: table_001: 0 rows and {n_columns} columns survive thresholding\n"
    )
    assert sorted(os.listdir(html_dir)) == [f"table_00{i}.html" for i in (0, 2, 3, 4, 5)]


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("anchors", lambda data: [image.update(instances=[]) for image in data["images"]],
         "ground truth contains no boxes"),
        ("encode-labels", lambda data: data.update(label_mode="single"), "input must be label_mode=multi"),
    ],
)
def test_command_rejects_a_corpus_it_cannot_use(fixture_files, tmp_path, capsys, command, edit, message):
    gt, _ = fixture_files
    data = json.loads(read(gt))
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + (["-o", str(tmp_path / "out.json")] if command == "encode-labels" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(tmp_path / "out.json")


@pytest.fixture
def collector():
    """The cyclic collector enabled again after the test, whatever it did."""
    yield
    gc.enable()


@pytest.mark.parametrize("caller_enabled", [True, False])
@pytest.mark.parametrize("outcome", ["return", "missing file", "schema error", "crash"])
def test_command_runs_with_collector_paused(
    fixture_files, tmp_path, monkeypatch, capsys, collector, outcome, caller_enabled
):
    gt, _ = fixture_files
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    absent = str(tmp_path / "absent.json")
    path = {"return": gt, "missing file": absent, "schema error": str(bad), "crash": gt}[outcome]
    load = tsrkit.formats.load_ground_truth
    seen = []

    def recording_load(path):
        seen.append(gc.isenabled())
        if outcome == "crash":
            raise RuntimeError("boom")
        return load(path)

    monkeypatch.setattr(tsrkit.formats, "load_ground_truth", recording_load)
    if not caller_enabled:
        gc.disable()
    try:
        code = main(["stats", path])
    except SystemExit as exc:
        code = exc.code
    except RuntimeError:
        code = "crash"
    assert code == {"return": 0, "crash": "crash"}.get(outcome, 1)
    assert seen == [False]
    assert gc.isenabled() is caller_enabled


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Corpus files of 2 and 6 tables, by size, for every subcommand.

    Every other table's detections lose their Rows, so its reconstruction
    fails, and in the "latin" directory every other table's reconstruction
    is not UTF-8.
    """
    out = {}
    for tables in (2, 6):
        root = tmp_path_factory.mktemp(f"tables{tables}")
        prefix = str(root / "fx")
        assert main(["gen-fixtures", "-o", prefix, "--tables", str(tables), "--seed", "3"]) == 0
        gt, pred = f"{prefix}.gt.json", f"{prefix}.pred.json"
        with open(pred, encoding="utf-8") as handle:
            data = json.load(handle)
        for image in data["images"][::2]:
            image["instances"] = [i for i in image["instances"] if i["class_id"] not in (2, 4)]
        rowless = str(root / "rowless.json")
        with open(rowless, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        html, latin = str(root / "html"), str(root / "latin")
        for directory in (html, latin):
            assert main(["reconstruct", pred, "-o", directory]) == 0
        for name in sorted(os.listdir(latin))[::2]:
            with open(os.path.join(latin, name), "r+b") as handle:
                handle.write(b"\xff")
        single = str(root / "single.json")
        assert main(["encode-labels", gt, "-o", single]) == 0
        out[tables] = {
            "gen-fixtures": ["gen-fixtures", "-o", str(root / "again"), "--tables", str(tables)],
            "stats": ["stats", gt, "--csv", str(root / "hist.csv")],
            "anchors": ["anchors", gt],
            "encode-labels": ["encode-labels", gt, "-o", str(root / "enc.json")],
            "decode-labels": ["decode-labels", single, "-o", str(root / "dec.json")],
            "reconstruct": ["reconstruct", pred, "-o", str(root / "again_html")],
            "reconstruct failing": ["reconstruct", rowless, "-o", str(root / "rowless_html")],
            "teds": ["teds", html, gt],
            "teds undecodable": ["teds", latin, gt],
            "coco-eval": ["coco-eval", pred, gt],
            "misalign": ["misalign", gt, "--spec", "dilate:2", "--spec", "merge:row", "--csv", str(root / "m.csv")],
            "kernels-check": ["kernels-check"],
        }
    return out


def cyclic_garbage(argv) -> int:
    """Objects in reference cycles that one ``main`` call leaves unreachable."""
    gc.collect()
    gc.disable()
    try:
        try:
            main(argv)
        except SystemExit:
            pass
        return gc.collect()
    finally:
        gc.enable()


# Commands run with the cyclic collector paused, which is safe only while
# none of them leaves cycles in proportion to its input.
@pytest.mark.parametrize(
    "command",
    ["gen-fixtures", "stats", "anchors", "encode-labels", "decode-labels", "reconstruct",
     "reconstruct failing", "teds", "teds undecodable", "coco-eval", "misalign", "kernels-check"],
)
def test_cyclic_garbage_does_not_grow_with_corpus(corpora, capsys, command):
    cyclic_garbage(corpora[2][command])  # first calls may fill caches
    assert cyclic_garbage(corpora[2][command]) == cyclic_garbage(corpora[6][command])


def test_parse_perturbation_spec():
    spec = parse_perturbation_spec("dilate:2.5")
    assert spec.mode is PerturbationMode.DILATE
    assert spec.magnitude == 2.5
    assert spec.target_classes == ALL_CLASSES

    spec = parse_perturbation_spec("merge:row")
    assert spec.mode is PerturbationMode.MERGE_ADJACENT
    assert spec.target_classes == frozenset({ComponentClass.ROW})

    spec = parse_perturbation_spec("shrink:3:row+column")
    assert spec.target_classes == frozenset({ComponentClass.ROW, ComponentClass.COLUMN})

    with pytest.raises(ValueError):
        parse_perturbation_spec("explode:1")
    with pytest.raises(ValueError):
        parse_perturbation_spec("dilate:1:widget")
    # a class part that names no class used to target nothing and score 1.0
    for text in ("dilate:2:+", "snap:+", "merge: + "):
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            parse_perturbation_spec(text)


# The specs of the gt-analysis benchmark workload.
@pytest.mark.parametrize(
    "text, spec",
    [
        ("dilate:2", PerturbationSpec(PerturbationMode.DILATE, 2.0)),
        ("shrink:2", PerturbationSpec(PerturbationMode.SHRINK, 2.0)),
        ("snap", PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL)),
        ("merge:row", PerturbationSpec(PerturbationMode.MERGE_ADJACENT, target_classes={ComponentClass.ROW})),
    ],
)
def test_parse_perturbation_spec_reads_the_workload_specs(text, spec):
    assert parse_perturbation_spec(text) == spec


# A second magnitude or class part, or a magnitude on a mode without one, used
# to be dropped or to override the first: dilate:2:3 printed a dilate:3 row,
# and dilate:2:row:column perturbed only columns.
@pytest.mark.parametrize(
    "text, message",
    [
        ("dilate:2:3", "more than one magnitude in 'dilate:2:3'"),
        ("shrink:1:row:1", "more than one magnitude in 'shrink:1:row:1'"),
        ("snap:5", "perturbation mode 'snap' takes no magnitude, got 'snap:5'"),
        ("merge:4:row", "perturbation mode 'merge' takes no magnitude, got 'merge:4:row'"),
        ("dilate:2:row:column", "more than one class part in 'dilate:2:row:column'"),
        ("merge:column:row", "more than one class part in 'merge:column:row'"),
    ],
)
def test_misalign_cli_rejects_a_magnitude_the_mode_does_not_take(fixture_files, capsys, text, message):
    gt, _ = fixture_files
    with pytest.raises(SystemExit) as exc:
        main(["misalign", gt, "--spec", "dilate:2", "--spec", text])
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


SUBCOMMANDS = next(
    action.choices for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
)


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_subcommand_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: tsrkit {command} ")
