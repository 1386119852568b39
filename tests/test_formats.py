import json
import logging
import re

import pytest

from tsrkit.errors import SchemaError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.formats import (
    load_detections,
    load_ground_truth,
    save,
    serialize,
)
from tsrkit.labels import LabelMode
from tsrkit.teds import parse_table_html


@pytest.fixture
def corpus(tmp_path):
    gt, det = generate_fixtures(FixtureSpec(n_tables=5, seed=1))
    gt_path = tmp_path / "gt.json"
    det_path = tmp_path / "det.json"
    save(gt, str(gt_path))
    save(det, str(det_path))
    return gt_path, det_path


def test_round_trip_byte_identical(corpus, tmp_path):
    gt_path, det_path = corpus
    for path, loader in ((gt_path, load_ground_truth), (det_path, load_detections)):
        loaded = loader(str(path))
        out = tmp_path / f"copy_{path.name}"
        save(loaded, str(out))
        assert out.read_bytes() == path.read_bytes()


def test_unknown_fields_preserved(corpus, tmp_path):
    gt_path, _ = corpus
    raw = json.loads(gt_path.read_text())
    raw["pipeline"] = {"origin": "synthetic"}
    raw["images"][0]["dpi"] = 144
    raw["images"][0]["instances"][0]["flagged"] = True
    annotated = tmp_path / "annotated.json"
    annotated.write_text(json.dumps(raw, indent=2) + "\n")

    loaded = load_ground_truth(str(annotated))
    assert loaded.extra == {"pipeline": {"origin": "synthetic"}}
    assert loaded.images[0].extra == {"dpi": 144}
    assert loaded.images[0].instances[0].extra == {"flagged": True}

    rewritten = tmp_path / "rewritten.json"
    save(loaded, str(rewritten))
    round_tripped = json.loads(rewritten.read_text())
    assert round_tripped["pipeline"] == {"origin": "synthetic"}
    assert round_tripped["images"][0]["dpi"] == 144
    assert round_tripped["images"][0]["instances"][0]["flagged"] is True


def base_file(**overrides):
    data = {
        "schema_version": 1,
        "label_mode": "multi",
        "images": [
            {
                "image_id": "t0",
                "width": 100.0,
                "height": 50.0,
                "instances": [{"bbox": [0.0, 0.0, 10.0, 10.0], "class_id": 2}],
            }
        ],
    }
    data.update(overrides)
    return data


def write(tmp_path, data, name="f.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_pseudo_class_requires_single_mode(tmp_path):
    data = base_file()
    data["images"][0]["instances"][0]["class_id"] = 6
    with pytest.raises(SchemaError, match=r"class 6"):
        load_ground_truth(write(tmp_path, data))
    data["label_mode"] = "single"
    load_ground_truth(write(tmp_path, data, "ok.json"))


def test_negative_coordinate_clamped_with_warning(tmp_path, caplog):
    data = base_file()
    data["images"][0]["instances"][0]["bbox"] = [-3.0, 0.0, 10.0, 10.0]
    with caplog.at_level(logging.WARNING, logger="tsrkit.formats"):
        loaded = load_ground_truth(write(tmp_path, data))
    assert loaded.images[0].instances[0].box.as_tuple() == (0.0, 0.0, 10.0, 10.0)
    assert any("clamped" in record.message for record in caplog.records)


def test_schema_error_names_record_path(tmp_path):
    data = base_file()
    data["images"][0]["instances"][0]["class_id"] = 9
    with pytest.raises(SchemaError, match=r"\$\.images\[0\]\.instances\[0\]\.class_id"):
        load_ground_truth(write(tmp_path, data))


def test_score_rejected_in_ground_truth(tmp_path):
    data = base_file()
    data["images"][0]["instances"][0]["score"] = 0.5
    with pytest.raises(SchemaError, match="score"):
        load_ground_truth(write(tmp_path, data))
    load_detections(write(tmp_path, data, "det.json"))


def test_score_range_checked(tmp_path):
    data = base_file()
    data["images"][0]["instances"][0]["score"] = 1.5
    with pytest.raises(SchemaError):
        load_detections(write(tmp_path, data))


def test_bad_html_rejected(tmp_path):
    data = base_file()
    data["images"][0]["html"] = "<table><tr>"
    with pytest.raises(SchemaError, match="html"):
        load_ground_truth(write(tmp_path, data))


def test_ground_truth_tree_kept_from_load(corpus):
    gt_path, det_path = corpus
    for rec in load_ground_truth(str(gt_path)).images:
        assert "tree" in vars(rec)  # parsed by the loader's validation
        assert rec.tree == parse_table_html(rec.html)
    assert all(rec.tree is None for rec in load_detections(str(det_path)).images)


def test_generated_records_parse_lazily():
    gt, _ = generate_fixtures(FixtureSpec(n_tables=3, seed=1))
    assert not any("tree" in vars(rec) for rec in gt.images)
    assert gt.trees_by_image() == {rec.image_id: parse_table_html(rec.html) for rec in gt.images}


def test_unsupported_schema_version(tmp_path):
    with pytest.raises(SchemaError, match="schema_version"):
        load_ground_truth(write(tmp_path, base_file(schema_version=2)))


def test_duplicate_image_ids_rejected(tmp_path):
    data = base_file()
    data["images"].append(dict(data["images"][0]))
    with pytest.raises(SchemaError, match="duplicate"):
        load_ground_truth(write(tmp_path, data))


@pytest.mark.parametrize(
    "field_path,value,loader",
    [
        pytest.param("instances", 5, load_ground_truth, id="instances-int"),
        pytest.param("instances[0].class_id", True, load_ground_truth, id="class_id-bool"),
        pytest.param("instances[0].score", True, load_detections, id="score-bool"),
        pytest.param("width", True, load_ground_truth, id="width-bool"),
        pytest.param("width", float("inf"), load_ground_truth, id="width-inf"),
        pytest.param("height", True, load_ground_truth, id="height-bool"),
        pytest.param("instances[0].bbox", [0.0, 0.0, True, 10.0], load_ground_truth, id="bbox-bool"),
        pytest.param("instances[0].bbox", [0.0, 0.0, float("inf"), 10.0], load_ground_truth, id="bbox-inf"),
        pytest.param("instances[0].bbox", [0, 0, 10**400, 10], load_ground_truth, id="bbox-huge-int"),
        pytest.param(
            "instances[0].content_bbox", [0.0, float("-inf"), 10.0, 10.0], load_ground_truth,
            id="content_bbox-neg-inf",
        ),
    ],
)
def test_wrong_json_type_rejected_with_path(tmp_path, field_path, value, loader):
    data = base_file()
    image = data["images"][0]
    if field_path.startswith("instances[0]."):
        image["instances"][0][field_path.split(".", 1)[1]] = value
    else:
        image[field_path] = value
    with pytest.raises(SchemaError, match=re.escape(f"$.images[0].{field_path}:")):
        loader(write(tmp_path, data))


def test_inverted_bbox_rejected(tmp_path):
    data = base_file()
    data["images"][0]["instances"][0]["bbox"] = [30.0, 0.0, 10.0, 10.0]
    with pytest.raises(SchemaError, match="inverted"):
        load_ground_truth(write(tmp_path, data))


# ------------------------------------------------------------------ fixtures

def test_fixture_generation_deterministic():
    spec = FixtureSpec(n_tables=6, seed=99)
    first = generate_fixtures(spec)
    second = generate_fixtures(spec)
    assert serialize(first[0]) == serialize(second[0])
    assert serialize(first[1]) == serialize(second[1])


def test_fixture_seed_changes_output():
    a = generate_fixtures(FixtureSpec(n_tables=6, seed=1))
    b = generate_fixtures(FixtureSpec(n_tables=6, seed=2))
    assert serialize(a[0]) != serialize(b[0])


def test_span_probability_zero_all_simple():
    gt, _ = generate_fixtures(FixtureSpec(n_tables=15, seed=4, span_probability=0.0))
    for image in gt.images:
        assert "colspan" not in image.html
        assert "rowspan" not in image.html


def test_span_probability_one_all_complex():
    gt, _ = generate_fixtures(FixtureSpec(n_tables=15, seed=4, span_probability=1.0))
    for image in gt.images:
        assert "colspan" in image.html or "rowspan" in image.html


def test_fixture_predictions_are_perfect_copies():
    gt, det = generate_fixtures(FixtureSpec(n_tables=4, seed=8))
    assert det.label_mode is LabelMode.MULTI
    for gt_img, det_img in zip(gt.images, det.images):
        assert gt_img.image_id == det_img.image_id
        assert [(r.box, r.cls) for r in gt_img.instances] == [
            (r.box, r.cls) for r in det_img.instances
        ]
        assert all(r.score == 1.0 for r in det_img.instances)
        assert all(r.content_box is None for r in det_img.instances)
        assert all(r.content_box is not None for r in gt_img.instances)
