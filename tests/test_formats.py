import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_parse_instance

from tsrkit.errors import SchemaError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.formats import (
    _parse_instance,
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


# Coordinates on, near and outside the bounds of a 100 x 50 image.
numbers = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 50, 100.0, -3.5, 130]),
    st.integers(-20, 220),
    st.floats(-20.0, 220.0),
)
# Ordered boxes mostly; an inverted one must fail after clamping.
boxes = st.tuples(numbers, numbers, numbers, numbers, st.sampled_from([True, True, True, False])).map(
    lambda t: [min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3])] if t[4] else list(t[:4])
)
# Values json.load can yield where a number belongs, and that must fail or
# be clamped: Infinity/NaN come back as floats, integers have any length.
ODD_NUMBERS = [True, False, "12", None, float("inf"), float("-inf"), float("nan"),
               10**400, -(10**400), 2**1023, 1.7976931348623157e308, -1.7976931348623157e308]
odd_numbers = st.sampled_from(ODD_NUMBERS)
not_boxes = st.one_of(
    st.lists(numbers, min_size=3, max_size=3),
    st.lists(numbers, min_size=5, max_size=5),
    st.sampled_from([None, "0 0 1 1", {"x1": 0}, 4.0, []]),
)
DAMAGE = [None, None, None, "bbox value", "content value", "bbox shape", "content shape",
          "class_id", "score", "carrier", "missing", "not an object"]


@st.composite
def instance_problems(draw):
    """(instance, image width, label mode, ground truth?): a well-formed
    instance for its carrier, then at most one part of it damaged."""
    is_ground_truth = draw(st.booleans())
    label_mode = draw(st.sampled_from(list(LabelMode)))
    raw = {"bbox": draw(boxes), "class_id": draw(st.integers(0, 6 if label_mode is LabelMode.SINGLE else 5))}
    if draw(st.booleans()):
        raw["content_bbox" if is_ground_truth else "score"] = draw(boxes if is_ground_truth else st.floats(0.0, 1.0))
    if draw(st.booleans()):
        raw["flagged"] = draw(st.booleans())
    damage = draw(st.sampled_from(DAMAGE))
    if damage in ("bbox value", "content value"):
        key = "bbox" if damage == "bbox value" else "content_bbox"
        box = raw.get(key) or draw(boxes)
        box[draw(st.integers(0, 3))] = draw(odd_numbers)
        raw[key] = box
    elif damage in ("bbox shape", "content shape"):
        raw["bbox" if damage == "bbox shape" else "content_bbox"] = draw(not_boxes)
    elif damage == "class_id":
        raw["class_id"] = draw(st.sampled_from([-1, 6, 7, True, 2.0, "2", None]))
    elif damage == "score":
        raw["score"] = draw(st.one_of(st.floats(-0.5, 1.5), odd_numbers, st.sampled_from([0, 1, -0.0, "0.5"])))
    elif damage == "carrier":
        is_ground_truth = not is_ground_truth
    elif damage == "missing":
        del raw[draw(st.sampled_from(["bbox", "class_id"]))]
    elif damage == "not an object":
        raw = draw(st.sampled_from([None, [], "instance", 3, [raw]]))
    return raw, draw(st.sampled_from([100.0, 1e300])), label_mode, is_ground_truth


def _parse_outcome(parser, raw, width, label_mode, is_ground_truth):
    """What one parser makes of one instance: its result or error, and its clamp log records."""
    logger = logging.getLogger("tsrkit.formats")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    try:
        inst = parser(raw, width, 50.0, label_mode, is_ground_truth, 3, 7)
        result = (
            "ok",
            repr(inst.box.as_tuple()),
            inst.cls,
            repr(inst.score),
            None if inst.content_box is None else repr(inst.content_box.as_tuple()),
            inst.extra,
        )
    except SchemaError as exc:
        result = ("error", str(exc))
    finally:
        logger.removeHandler(handler)
    return result, [(r.levelno, r.getMessage(), repr(r.args)) for r in records]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(instance_problems())
def test_parse_instance_matches_reference_parser(problem):
    assert _parse_outcome(_parse_instance, *problem) == _parse_outcome(reference_parse_instance, *problem)


def test_parse_instance_matches_reference_on_each_odd_coordinate():
    # every odd value in every coordinate of a valid box, the rest in range
    for key, is_ground_truth in (("bbox", False), ("content_bbox", True)):
        for i in range(4):
            for odd in ODD_NUMBERS:
                box = [1.0, 2.0, 30.0, 40.0]
                box[i] = odd
                raw = {"bbox": [0, 0, 50, 50], "class_id": 2, key: box}
                problem = (raw, 100.0, LabelMode.MULTI, is_ground_truth)
                assert _parse_outcome(_parse_instance, *problem) == _parse_outcome(
                    reference_parse_instance, *problem
                ), (key, i, odd)


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


@pytest.mark.parametrize("loader", [load_ground_truth, load_detections])
@pytest.mark.parametrize(
    "bad, reason",
    [(b"\xff", "invalid start byte"), (b"\xe2\x82(", "invalid continuation byte")],
)
def test_non_utf8_bytes_rejected_with_path_and_byte_offset(tmp_path, loader, bad, reason):
    head = json.dumps(base_file(note="\u00e9\u2026"), ensure_ascii=False).encode()
    cut = head.index("\u2026".encode()) + 3  # after the two multi-byte characters
    path = tmp_path / "latin.json"
    path.write_bytes(head[:cut] + bad + head[cut:])
    message = f"{path}: not UTF-8 text: {reason} (at byte {cut})"
    with pytest.raises(SchemaError, match=re.escape(message)):
        loader(str(path))


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
