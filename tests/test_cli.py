import gc
import json
import os
import re
import warnings

import pytest

import tsrkit.formats
import tsrkit.teds.distance
from tsrkit.anchors import TABLE_ASPECT_RATIOS
from tsrkit.cli import main, parse_perturbation_spec
from tsrkit.labels import ComponentClass
from tsrkit.misalign import ALL_CLASSES, PerturbationMode


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


@pytest.fixture
def parse_count(monkeypatch):
    """Counts parse_table_html calls made by the loader and by TEDS scoring."""
    calls = []
    for module in (tsrkit.formats, tsrkit.teds.distance):
        parse = module.parse_table_html

        def counted(fragment, parse=parse):
            calls.append(fragment)
            return parse(fragment)

        monkeypatch.setattr(module, "parse_table_html", counted)
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


def test_coco_eval_perfect(fixture_files, capsys):
    gt, pred = fixture_files
    assert main(["coco-eval", pred, gt]) == 0
    out = capsys.readouterr().out
    assert "AP = 1.0000" in out
    assert "AP50 = 1.0000" in out


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
