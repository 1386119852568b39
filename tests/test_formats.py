import contextlib
import hashlib
import json
import logging
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_decode_pseudo, reference_load, reference_parse_instance

from tsrkit import formats
from tsrkit.cli import main
from tsrkit.errors import LabelConsistencyError, SchemaError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.formats import (
    _columns,
    _packed_columns,
    _parse_instance,
    atomic_write_text,
    load_any,
    load_detections,
    load_ground_truth,
    save,
    serialize,
)
from tsrkit.geometry import BBox
from tsrkit.labels import (
    HEADER_CONTENT_KEY,
    ROW_CONTENT_KEY,
    AnnotationSet,
    ComponentClass,
    ComponentInstance,
    Instances,
    LabelMode,
    decode_pseudo,
)
from tsrkit.teds import distance, parse_table_html


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


def _record(inst):
    content = None if inst.content_box is None else (type(inst.content_box), repr(inst.content_box.as_tuple()))
    return type(inst), type(inst.box), repr(inst.box.as_tuple()), inst.cls, repr(inst.score), content, inst.extra


def _logged(run, summary=lambda instances: [_record(inst) for inst in instances]):
    """The summary of what ``run()`` returns or the error it raises, and the clamp log records it leaves."""
    logger = logging.getLogger("tsrkit.formats")
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger.addHandler(handler)
    try:
        result = ("ok", summary(run()))
    except SchemaError as exc:
        result = ("error", str(exc))
    finally:
        logger.removeHandler(handler)
    return result, [(r.levelno, r.getMessage(), repr(r.args)) for r in records]


def _parse_outcome(parser, raw, width, label_mode, is_ground_truth):
    """What one parser makes of one instance: its record or error, and its clamp log records."""
    return _logged(lambda: [parser(raw, width, 50.0, label_mode, is_ground_truth, 3, 7)])


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


# ---------------------------------------------------- whole images, as columns
# Coordinates inside the 100 x 50 image, with the exact types json.load gives.
inside_x = st.one_of(st.sampled_from([0, 0.0, -0.0, 100, 100.0]), st.integers(0, 100), st.floats(0.0, 100.0))
inside_y = st.one_of(st.sampled_from([0, 0.0, -0.0, 50, 50.0]), st.integers(0, 50), st.floats(0.0, 50.0))
inside_boxes = st.tuples(inside_x, inside_y, inside_x, inside_y).map(
    lambda t: [min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3])]
)
scores = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, -0.0, 1.0]))
IMAGE_DAMAGE = ["none", "nan score", "nan coordinate", "negative zero", "boolean", "huge integer", "infinity",
                "clamped", "content_bbox", "unknown key", "optional dropped", "optional null", "class_id", "score",
                "missing", "not an object", "bbox shape"]
SCORE_DAMAGE = ("nan score", "score")


@st.composite
def image_problems(draw, damage, is_ground_truth=None, label_mode=None):
    """(instances, label mode, ground truth?): 2-6 instances that one image
    could carry, all with the same fields, then one of them damaged. The
    carrier and mode are drawn unless given."""
    # a score is damaged in detections that carry scores, where the columnar check could miss it
    if is_ground_truth is None:
        is_ground_truth = damage not in SCORE_DAMAGE and draw(st.booleans())
    if label_mode is None:
        label_mode = draw(st.sampled_from(list(LabelMode)))
    optional = "score" if damage in SCORE_DAMAGE else draw(
        st.sampled_from([None, "content_bbox" if is_ground_truth else "score"])
    )
    instances = []
    for _ in range(draw(st.integers(2, 6))):
        raw = {"bbox": draw(inside_boxes), "class_id": draw(st.integers(0, 6 if label_mode is LabelMode.SINGLE else 5))}
        if optional is not None:
            raw[optional] = draw(inside_boxes if is_ground_truth else scores)
        instances.append(raw)
    at = draw(st.integers(0, len(instances) - 1))
    raw = instances[at]
    coordinate = draw(st.integers(0, 3))
    key = draw(st.sampled_from(["bbox", "content_bbox"])) if "content_bbox" in raw else "bbox"
    if damage == "nan score":
        raw["score"] = float("nan")
    elif damage == "nan coordinate":
        raw[key][coordinate] = float("nan")
    elif damage == "negative zero":
        raw[key][coordinate] = -0.0
    elif damage == "boolean":
        slot = draw(st.sampled_from(["coordinate", "class_id", "score"]))
        if slot == "coordinate":
            raw[key][coordinate] = draw(st.booleans())
        else:
            raw[slot] = draw(st.booleans())
    elif damage == "huge integer":
        raw[key][coordinate] = draw(st.sampled_from([10**400, -(10**400)]))
    elif damage == "infinity":
        raw[key][coordinate] = draw(st.sampled_from([float("inf"), float("-inf")]))
    elif damage == "clamped":
        raw[key][coordinate] = draw(st.sampled_from([-3.5, -1, 130, 100.5, 60.0]))
    elif damage == "content_bbox":
        raw["content_bbox"] = draw(inside_boxes)
    elif damage == "unknown key":
        raw["flagged"] = True
    elif damage == "optional dropped":
        raw.pop(optional or "score", None)
    elif damage == "optional null":
        raw[optional or "score"] = None
    elif damage == "class_id":
        raw["class_id"] = draw(st.sampled_from([-1, 6, 7, True, 2.0, "2", None]))
    elif damage == "score":
        raw["score"] = draw(st.one_of(st.floats(-0.5, 1.5), odd_numbers, st.sampled_from(["0.5"])))
    elif damage == "missing":
        del raw[draw(st.sampled_from(["bbox", "class_id"]))]
    elif damage == "not an object":
        instances[at] = draw(st.sampled_from([None, [], "instance", 3, [raw]]))
    elif damage == "bbox shape":
        raw[key] = draw(not_boxes)
    return instances, label_mode, is_ground_truth


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("images") / "corpus.json")


def _check_image(corpus_path, instances, label_mode, is_ground_truth):
    """The loader and the columnar check against the reference parser run on each instance in turn."""
    text = json.dumps({"schema_version": 1, "label_mode": label_mode.value, "images": [
        {"image_id": "t0", "width": 100.0, "height": 50.0, "instances": instances}]})
    with open(corpus_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    raws = json.loads(text)["images"][0]["instances"]  # what json.load makes of the damage
    loader = load_ground_truth if is_ground_truth else load_detections
    expected = _logged(lambda: [
        reference_parse_instance(raw, 100.0, 50.0, label_mode, is_ground_truth, 0, i) for i, raw in enumerate(raws)
    ])
    (outcome, message), log = expected
    if outcome == "error":  # the loader names the file before the reference parser's message
        expected = (outcome, f"{corpus_path}: {message}"), log
    assert _logged(lambda: loader(corpus_path).images[0].instances) == expected
    columns = _columns(raws, 100.0, 50.0, label_mode, is_ground_truth)
    if columns is not None:  # the columnar check only answers for an image that loads as it stands
        assert expected == (("ok", [_record(inst) for inst in columns]), [])


@pytest.mark.parametrize("damage", IMAGE_DAMAGE)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_image_loader_matches_reference_parser_instance_by_instance(corpus_path, damage, data):
    _check_image(corpus_path, *data.draw(image_problems(damage)))


NAN = float("nan")
CLEAN = {"bbox": [1.0, 2.0, 30.0, 40.0], "class_id": 2}


@pytest.mark.parametrize(
    "damaged",
    [
        pytest.param({**CLEAN, "score": NAN}, id="nan-score"),
        *[pytest.param({**CLEAN, "score": 0.5, "bbox": [*CLEAN["bbox"][:i], NAN, *CLEAN["bbox"][i + 1:]]},
                       id=f"nan-coordinate-{i}") for i in range(4)],
        pytest.param({**CLEAN, "score": 0.5, "bbox": [-0.0, -0.0, 30.0, 40.0]}, id="negative-zero"),
        pytest.param({**CLEAN, "score": 0.5, "bbox": [1.0, 2.0, True, 40.0]}, id="boolean-coordinate"),
        pytest.param({**CLEAN, "score": True}, id="boolean-score"),
        pytest.param({**CLEAN, "score": 0.5, "class_id": True}, id="boolean-class"),
        pytest.param({**CLEAN, "score": 0.5, "bbox": [1.0, 2.0, 10**400, 40.0]}, id="400-digit-integer"),
        pytest.param({**CLEAN, "score": 0.5, "bbox": [1, 2, 30, 40]}, id="integers"),
        pytest.param({**CLEAN, "score": 1}, id="integer-score"),
        pytest.param({**CLEAN, "score": 0.5, "bbox": [1.0, 2.0, float("inf"), 40.0]}, id="infinity"),
        pytest.param({**CLEAN, "score": 0.5, "bbox": [-3.5, 2.0, 30.0, 40.0]}, id="clamped"),
        pytest.param({**CLEAN, "score": 0.5, "content_bbox": [1.0, 2.0, 3.0, 4.0]}, id="content_bbox"),
        pytest.param({**CLEAN, "score": 0.5, "flagged": True}, id="unknown-key"),
        pytest.param({**CLEAN, "score": 0.5, "class_id": 6}, id="class-6"),
    ],
)
def test_image_loader_matches_reference_parser_after_a_clean_instance(corpus_path, damaged):
    # min and max skip a NaN that follows a number, so a NaN-blind columnar check would pass these
    # in ground truth the damaged bbox is the content extent, and a damaged score stays
    gt_damaged = {k: v for k, v in damaged.items() if k != "score" or v != 0.5}
    gt_damaged.update(bbox=CLEAN["bbox"], content_bbox=damaged["bbox"])
    for label_mode in LabelMode:
        _check_image(corpus_path, [{**CLEAN, "score": 0.5}, damaged], label_mode, False)
        _check_image(corpus_path, [{**CLEAN, "content_bbox": CLEAN["bbox"]}, gt_damaged], label_mode, True)


def test_generated_corpora_load_in_bulk():
    gt, det = generate_fixtures(FixtureSpec(n_tables=20, seed=4))
    for corpus, is_ground_truth in ((gt, True), (det, False)):
        for image in json.loads(serialize(corpus))["images"]:
            columns = _columns(
                image["instances"], image["width"], image["height"], LabelMode.MULTI, is_ground_truth
            )
            assert columns is not None and len(columns) == len(image["instances"])
            assert all(type(inst) is ComponentInstance and type(inst.box) is BBox for inst in columns)


@contextlib.contextmanager
def backend(name, kernel):
    """Select the ``name`` backend for loading, with ``kernel`` standing in for the compiled extension."""
    with pytest.MonkeyPatch.context() as patch:
        if name == "python":
            patch.setenv("TSRKIT_PURE_PYTHON", "1")
        else:
            patch.delenv("TSRKIT_PURE_PYTHON", raising=False)
            patch.setattr(distance, "_speedup", kernel)
        assert distance.backend_name() == name
        yield


def _packers_agree(kernel, raws, width, height, label_mode, is_ground_truth):
    """The packer accepts the instances exactly when ``_columns`` does, with bit-identical columns."""
    expected = _columns(raws, width, height, label_mode, is_ground_truth)
    packed = _packed_columns(kernel.pack_columns, raws, width, height, label_mode, is_ground_truth)
    assert (packed is None) == (expected is None)
    if packed is not None:
        for column in ("boxes", "classes", "scores"):
            got, want = getattr(packed, column), getattr(expected, column)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), column
        assert [_record(inst) for inst in packed] == [_record(inst) for inst in expected]


@pytest.mark.parametrize("damage", IMAGE_DAMAGE)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_compiled_packer_accepts_what_columns_accepts(compiled_kernel, damage, data):
    instances, label_mode, is_ground_truth = data.draw(image_problems(damage))
    raws = json.loads(json.dumps(instances))  # what json.load makes of the damage
    _packers_agree(compiled_kernel, raws, 100.0, 50.0, label_mode, is_ground_truth)


BIG = 2**53
INT_BOX = {"bbox": [0, 0, 1, 1], "class_id": 2}


@pytest.mark.parametrize(
    "raws, width",
    [
        pytest.param([], 100.0, id="empty"),
        pytest.param([{"bbox": [-0.0, -0.0, 0.0, 0.0], "class_id": 0}], 100.0, id="negative-zero"),
        pytest.param([{"bbox": [0, 0, BIG, 1], "class_id": 2}], 1e17, id="int-2**53"),
        pytest.param([{"bbox": [0, 0, BIG + 1, 1], "class_id": 2}], 1e17, id="int-beyond-2**53"),
        pytest.param([{"bbox": [BIG + 1, 0, float(BIG), 1], "class_id": 2}], 1e17, id="ordered-only-as-floats"),
        pytest.param(
            [INT_BOX, {"bbox": [0.0, 0.0, 1e17, 1.0], "class_id": 2}], 1e18, id="float-beyond-2**53-beside-int"
        ),
        pytest.param([{"bbox": [0.0, 0.0, 1e17, 1.0], "class_id": 2}], 1e18, id="float-beyond-2**53"),
        pytest.param([{"bbox": [0, 0, 10**400, 1], "class_id": 2}], 1e300, id="400-digit-int"),
        pytest.param([{"bbox": [0, 0, -(10**400), 1], "class_id": 2}], 1e300, id="negative-400-digit-int"),
        pytest.param([{**INT_BOX, "class_id": 2**70}], 100.0, id="huge-class"),
        pytest.param([{**INT_BOX, "class_id": -(2**70)}], 100.0, id="huge-negative-class"),
        pytest.param([{**INT_BOX, "score": 1}, {**INT_BOX, "score": 0}], 100.0, id="int-scores"),
        pytest.param([{**INT_BOX, "score": -0.0}], 100.0, id="negative-zero-score"),
        pytest.param([{**INT_BOX, "score": 2**64}], 100.0, id="huge-int-score"),
        pytest.param([{**INT_BOX, "score": 0.5}, INT_BOX], 100.0, id="score-dropped"),
        pytest.param([INT_BOX, {**INT_BOX, "score": 0.5}], 100.0, id="score-added"),
        pytest.param([{"class_id": 2, "bbox": [0, 0, 1, 1], "score": 0.5}], 100.0, id="keys-reordered"),
        pytest.param([{**INT_BOX, "score": 0.5, "flagged": True}], 100.0, id="unknown-key"),
        pytest.param([{"bbox": [0, 0, 1, 1], "class": 2}], 100.0, id="misspelt-key"),
    ],
)
@pytest.mark.parametrize("label_mode", list(LabelMode))
def test_compiled_packer_accepts_what_columns_accepts_at_the_edges(compiled_kernel, raws, width, label_mode):
    # in ground truth, each score becomes a content extent equal to the box
    gt_raws = [
        {("content_bbox" if key == "score" else key): (raw["bbox"] if key == "score" else value)
         for key, value in raw.items()}
        for raw in raws
    ]
    _packers_agree(compiled_kernel, raws, width, 50.0, label_mode, False)
    _packers_agree(compiled_kernel, gt_raws, width, 50.0, label_mode, True)


def test_compiled_packer_rejects_bad_buffers(compiled_kernel):
    raws = [{"bbox": [0.0, 0.0, 1.0, 1.0], "class_id": 2, "score": 0.5}] * 3
    n = len(raws)

    def pack(boxes=None, classes=None, optional=None, ground_truth=False, instances=raws):
        boxes = np.empty((n, 4)) if boxes is None else boxes
        classes = np.empty(n, dtype=np.int8) if classes is None else classes
        optional = np.empty((n, 4) if ground_truth else n) if optional is None else optional
        return compiled_kernel.pack_columns(instances, 100.0, 50.0, 5, ground_truth, boxes, classes, optional)

    assert pack() is True
    read_only = np.empty((n, 4))
    read_only.flags.writeable = False
    for bad_boxes in (
        np.empty((n, 4), dtype=np.float32),
        np.empty((n, 4), dtype=np.int64),
        np.empty((n, 3)),
        np.empty((n + 1, 4)),
        np.empty(4 * n),
        np.empty((n, 8))[:, ::2],  # strided view
        read_only,
        [[0.0] * 4] * n,
        b"\0" * 32 * n,
    ):
        with pytest.raises(TypeError):
            pack(boxes=bad_boxes)
    for bad_classes in (np.empty(n, dtype=np.int64), np.empty(n, dtype=np.uint8), np.empty(n - 1, dtype=np.int8)):
        with pytest.raises(TypeError):
            pack(classes=bad_classes)
    for bad_scores in (np.empty((n, 4)), np.empty(n, dtype=np.float32), np.empty(0)):
        with pytest.raises(TypeError):
            pack(optional=bad_scores)
    with pytest.raises(TypeError):
        pack(optional=np.empty(n), ground_truth=True)
    with pytest.raises(TypeError):
        pack(instances=tuple(raws))


@pytest.mark.parametrize("name", ["python", "compiled"])
def test_generated_corpora_never_load_one_instance_at_a_time(compiled_kernel, tmp_path, monkeypatch, name):
    def refuse(*args):
        raise AssertionError("an instance of a generated corpus went to _parse_instance")

    prefix = str(tmp_path / "fx")
    assert main(["gen-fixtures", "-o", prefix, "--tables", "20", "--seed", "4"]) == 0
    monkeypatch.setattr(formats, "_parse_instance", refuse)
    with backend(name, compiled_kernel):
        assert len(load_ground_truth(f"{prefix}.gt.json").images) == 20
        assert len(load_detections(f"{prefix}.pred.json").images) == 20


# Unknown fields an instance may carry, among them the keys under which the
# label transforms store an absorbed instance's fields and content extent.
absorbed_fields = st.one_of(
    st.dictionaries(st.sampled_from(["origin", "id"]), st.integers(0, 9), max_size=2), st.none(), st.integers(-3, 3)
)
absorbed_content = st.one_of(
    inside_boxes, st.none(), st.sampled_from([[4.0, 3.0, 1.0, 9.0], "box", [True, 0, 1, 1], [0, 0, 1]])
)
unknown_fields = st.fixed_dictionaries({}, optional={
    "flagged": st.booleans(),
    "row_extra": absorbed_fields,
    "column_header_extra": absorbed_fields,
    "row_content_bbox": absorbed_content,
    "column_header_content_bbox": absorbed_content,
})


@st.composite
def corpus_problems(draw):
    """(file JSON, label mode, ground truth?): one to three images, each with
    instances damaged as in ``image_problems`` or none, some with unknown
    fields, and unknown fields on the file and its images."""
    is_ground_truth = draw(st.booleans())
    label_mode = draw(st.sampled_from(list(LabelMode)))
    images = []
    for k in range(draw(st.integers(1, 3))):
        instances = []
        if draw(st.integers(0, 4)):
            # half the images undamaged, so that most files load and decode
            damage = draw(st.sampled_from(IMAGE_DAMAGE + ["none"] * len(IMAGE_DAMAGE)))
            instances, _, _ = draw(image_problems(damage, is_ground_truth, label_mode))
        for raw in instances:
            if isinstance(raw, dict) and draw(st.integers(0, 2)) == 0:
                raw.update(draw(unknown_fields))
                if label_mode is LabelMode.SINGLE and draw(st.booleans()):
                    raw["class_id"] = draw(st.sampled_from([4, 6]))  # the classes decoding splits
        image = {"image_id": f"t{k}", "width": 100.0, "height": 50.0, "instances": instances}
        if draw(st.booleans()):
            image["dpi"] = 144
        images.append(image)
    data = {"schema_version": 1, "label_mode": label_mode.value, "images": images}
    if draw(st.booleans()):
        data["pipeline"] = {"origin": "synthetic"}
    return data, label_mode, is_ground_truth


def _corpus_summary(corpus):
    mode, images, extra = corpus if isinstance(corpus, tuple) else (corpus.label_mode, corpus.images, corpus.extra)
    return mode, extra, [
        (img.image_id, img.width, img.height, img.html, img.extra, [_record(inst) for inst in img.instances])
        for img in images
    ]


def _decoded(decode):
    try:
        return "ok", [_record(inst) for inst in decode()]
    except LabelConsistencyError as exc:
        return "error", str(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(corpus_problems())
def test_loader_and_decode_match_instance_building_references(corpus_path, problem):
    data, label_mode, is_ground_truth = problem
    with open(corpus_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    loader = load_ground_truth if is_ground_truth else load_detections
    loaded = _logged(lambda: loader(corpus_path), _corpus_summary)
    assert loaded == _logged(lambda: reference_load(corpus_path, is_ground_truth), _corpus_summary)
    if loaded[0][0] == "ok" and label_mode is LabelMode.SINGLE:
        _, reference_images, _ = reference_load(corpus_path, is_ground_truth)
        for image, reference in zip(loader(corpus_path).images, reference_images):
            assert isinstance(image.instances, Instances)
            ann = AnnotationSet(image.image_id, image.instances, LabelMode.SINGLE)
            assert _decoded(lambda: decode_pseudo(ann).instances) == _decoded(
                lambda: reference_decode_pseudo(reference.instances, image.image_id)
            )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(corpus_problems())
def test_load_any_loads_what_either_loader_accepts(corpus_path, problem):
    # one of the two loaders' outcomes, and a file that either accepts loads
    data, _, _ = problem
    with open(corpus_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    outcomes = [_logged(lambda: loader(corpus_path), _corpus_summary) for loader in (load_detections, load_ground_truth)]
    loaded = _logged(lambda: load_any(corpus_path), _corpus_summary)
    assert loaded in outcomes
    assert (loaded[0][0] == "ok") == any(result == "ok" for (result, _), _ in outcomes)
    # a file without a score or content_bbox loads the same under both rules
    instances = [inst for image in data["images"] for inst in image["instances"] if isinstance(inst, dict)]
    if all(inst.get(key) is None for inst in instances for key in ("score", "content_bbox")):
        assert outcomes[0] == outcomes[1]


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


@pytest.mark.parametrize(
    "text, message",
    [("{", "not valid JSON: Expecting property name enclosed in double quotes"), ("[]", "$: top level must be an object")],
)
def test_file_that_is_not_a_corpus_object_rejected_with_path(tmp_path, text, message):
    path = tmp_path / "f.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
        load_ground_truth(str(path))


def test_unsupported_schema_version(tmp_path):
    # 1.0 and true equal 1 in Python, but only the integer is version 1
    for version in (2, 1.0, True):
        with pytest.raises(SchemaError, match=re.escape(f"$.schema_version: unsupported version {version!r}")):
            load_ground_truth(write(tmp_path, base_file(schema_version=version)))


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


@pytest.mark.parametrize("width,height", [(1e308, 50.0), (1e160, 1e160), (1e308, 1.0), (9e307, 1.0)])
def test_image_area_overflow_rejected(tmp_path, width, height):
    data = base_file()
    data["images"][0].update(width=width, height=height)
    with pytest.raises(SchemaError, match=re.escape("$.images[0]: image area")):
        load_detections(write(tmp_path, data))


def test_largest_image_without_overflow_loads(tmp_path):
    data = base_file()
    data["images"][0].update(width=8e307, height=1.0)
    data["images"][0]["instances"][0]["bbox"] = [0.0, 0.0, 8e307, 1.0]
    (image,) = load_ground_truth(write(tmp_path, data)).images
    assert image.instances[0].box.area == 8e307


@pytest.mark.parametrize("big", [2**53 + 1, 2**60 + 1, 2**70 + 3, 10**300 + 1])
def test_ints_beyond_2_53_load_one_instance_at_a_time(tmp_path, big):
    # inside a wide enough image, such an int is a valid coordinate that float64
    # cannot hold exactly; it goes through float() as the per-instance parser does
    instances = [{"bbox": [0, 0, 10, 10], "class_id": 2, "score": 0.5},
                 {"bbox": [big, 0, 2 * big, 10], "class_id": 1, "score": 0.5}]
    assert _columns(instances, 1e301, 50.0, LabelMode.MULTI, False) is None
    data = base_file()
    data["images"][0].update(width=1e301, instances=instances)
    path = write(tmp_path, data)
    (image,) = load_detections(path).images
    assert image.instances[1].box.as_tuple() == (float(big), 0.0, float(2 * big), 10.0)
    assert _logged(lambda: load_detections(path), _corpus_summary) == _logged(
        lambda: reference_load(path, False), _corpus_summary
    )


def test_inverted_bbox_rejected(tmp_path):
    data = base_file()
    data["images"][0]["instances"][0]["bbox"] = [30.0, 0.0, 10.0, 10.0]
    with pytest.raises(SchemaError, match="inverted"):
        load_ground_truth(write(tmp_path, data))


@pytest.mark.parametrize(
    "corners",
    [
        pytest.param([2**53 + 1, 0, 2**53, 1], id="ints-ordered-only-as-floats"),
        pytest.param([0, True, 10, 1], id="bool"),
        pytest.param([0, 0, "10", 1], id="string"),
        pytest.param([0, 0, 1e309, 1], id="1e309"),
        pytest.param([10, 0, 5, 1], id="inverted"),
        pytest.param([0, 0, 10], id="three-elements"),
    ],
)
def test_loader_and_decode_read_a_content_box_alike(tmp_path, corners):
    # the loader reads a ground-truth content_bbox, decode_pseudo the extent
    # encode_pseudo stored for the instance it absorbed; both follow one rule
    data = base_file()
    data["images"][0]["width"] = 2.0**54  # each box lies inside the image, so none is clamped
    data["images"][0]["instances"][0]["content_bbox"] = corners
    try:
        loaded = load_ground_truth(write(tmp_path, data)).images[0].instances[0].content_box
    except SchemaError:
        loaded = None
    for cls, key in (
        (ComponentClass.PROJECTED_ROW_HEADER, ROW_CONTENT_KEY),
        (ComponentClass.PSEUDO_HEADER_ROW, HEADER_CONTENT_KEY),
    ):
        single = ComponentInstance(BBox(0.0, 0.0, 10.0, 10.0), cls, 0.9, extra={key: corners})
        try:
            # the second decoded instance is the absorbed Row or Column Header
            decoded = decode_pseudo(AnnotationSet("t0", (single,), LabelMode.SINGLE)).instances[1].content_box
        except LabelConsistencyError:
            decoded = None
        assert decoded == loaded
        assert decoded is None or list(map(type, decoded)) == [float] * 4


# Any JSON value: json.load gives these types, integers of any length and
# NaN and the infinities included.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -(10**400)]), st.floats(),
              st.text(max_size=12)),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=10,
)
# Instance arrays close enough to valid that most reach the per-field checks.
instance_arrays = st.lists(
    st.fixed_dictionaries(
        {"bbox": st.one_of(inside_boxes, json_values), "class_id": st.one_of(st.integers(0, 6), json_values)},
        optional={"score": st.one_of(scores, json_values), "content_bbox": st.one_of(inside_boxes, json_values)},
    ),
    max_size=5,
)
SLOT_VALUES = {
    "image_id": json_values,
    "width": st.one_of(json_values, st.floats(0.0, 1e3)),
    "height": st.one_of(json_values, st.floats(0.0, 1e3)),
    "instances": st.one_of(json_values, instance_arrays),
    "html": st.one_of(json_values, st.sampled_from(["<table><tr><td>a</td></tr></table>", "<table>", "<td>a</td>"])),
    "image": json_values,  # the whole image record
    "schema_version": st.one_of(json_values, st.just(1)),
    "label_mode": st.one_of(json_values, st.sampled_from(["multi", "single"])),
    "images": json_values,
    "unknown": json_values,  # an unknown field, at file and image level
}


@st.composite
def files_with_one_slot_filled(draw):
    slot = draw(st.sampled_from(sorted(SLOT_VALUES)))
    value = draw(SLOT_VALUES[slot])
    data = base_file()
    image = data["images"][0]
    if slot == "image":
        data["images"][0] = value
    elif slot == "unknown":
        data["pipeline"] = image["dpi"] = value
    elif slot in ("schema_version", "label_mode", "images"):
        data[slot] = value
    else:
        image[slot] = value
    return data, draw(st.booleans())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(files_with_one_slot_filled())
def test_any_json_value_in_a_file_or_image_slot_loads_or_raises_schema_error(corpus_path, problem):
    data, is_ground_truth = problem
    with open(corpus_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    loader = load_ground_truth if is_ground_truth else load_detections
    try:
        corpus = loader(corpus_path)
    except SchemaError:
        return
    for image in corpus.images:
        assert isinstance(image.image_id, str) and image.image_id
        assert type(image.width) is float and 0.0 < image.width < float("inf")
        assert type(image.height) is float and 0.0 < image.height < float("inf")
        for inst in image.instances:
            assert type(inst) is ComponentInstance and type(inst.box) is BBox
            assert 0.0 <= inst.box.x1 <= inst.box.x2 <= image.width
            assert 0.0 <= inst.box.y1 <= inst.box.y2 <= image.height
            assert inst.score is None or (type(inst.score) is float and 0.0 <= inst.score <= 1.0)
            assert not (is_ground_truth and inst.score is not None)
        assert (image.html is None) == (image.tree is None)


def _loads_alike(kernel, path, data, is_ground_truth):
    """Both backends load ``data`` into the same records, or raise the same error, and log the same clamps."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    loader = load_ground_truth if is_ground_truth else load_detections
    outcomes = []
    for name in ("python", "compiled"):
        with backend(name, kernel):
            outcomes.append(_logged(lambda: loader(path), _corpus_summary))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("damage", IMAGE_DAMAGE)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_damaged_image_loads_alike_under_both_backends(compiled_kernel, corpus_path, damage, data):
    instances, label_mode, is_ground_truth = data.draw(image_problems(damage))
    image = {"image_id": "t0", "width": 100.0, "height": 50.0, "instances": instances}
    data = {"schema_version": 1, "label_mode": label_mode.value, "images": [image]}
    _loads_alike(compiled_kernel, corpus_path, data, is_ground_truth)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(corpus_problems())
def test_loader_gives_the_same_records_errors_and_clamps_under_both_backends(compiled_kernel, corpus_path, problem):
    data, _, is_ground_truth = problem
    _loads_alike(compiled_kernel, corpus_path, data, is_ground_truth)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(files_with_one_slot_filled())
def test_any_json_value_loads_alike_under_both_backends(compiled_kernel, corpus_path, problem):
    _loads_alike(compiled_kernel, corpus_path, *problem)


def test_failed_replace_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    (target / "kept").write_text("")
    with pytest.raises(IsADirectoryError):
        atomic_write_text(str(target), "text")
    assert sorted(os.listdir(tmp_path)) == ["out"]
    assert os.listdir(target) == ["kept"]


# ------------------------------------------------------------------ fixtures


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_tables": 0}, "need at least one table"),
        ({"min_rows": 1}, "row counts must satisfy 2 <= min <= max"),
        ({"min_rows": 5, "max_rows": 4}, "row counts must satisfy 2 <= min <= max"),
        ({"min_cols": 1}, "column counts must satisfy 2 <= min <= max"),
        ({"min_cols": 5, "max_cols": 4}, "column counts must satisfy 2 <= min <= max"),
    ],
)
def test_fixture_spec_rejects_counts_out_of_range(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FixtureSpec(**fields)

def test_fixture_generation_deterministic():
    spec = FixtureSpec(n_tables=6, seed=99)
    first = generate_fixtures(spec)
    second = generate_fixtures(spec)
    assert serialize(first[0]) == serialize(second[0])
    assert serialize(first[1]) == serialize(second[1])


# The sha256 of the serialized ground truth and predictions, computed when the
# ground-truth HTML still came from a writer of its own in the generator.
@pytest.mark.parametrize(
    "fields, gt_digest, det_digest",
    [
        (
            {},
            "da24032c5b4b665e7fc70c5409410d5fcc3e2f5a41e0f5c0a4856e49037834cf",
            "17156e7c20b079fc456c9662ae2e9fd6c0ec7c50402c49405ec21bbde42dc3a3",
        ),
        (
            {"span_probability": 1.0, "header_probability": 1.0},
            "d357db011af81f3c5daeb66287beb2bceb2209624ed3cb0cf832c649c523425d",
            "67aced96066ca9aaeca0ec0bf71c0081665595511738d5df3dd54aa1dfe2a9f1",
        ),
        (
            {"span_probability": 0.0, "header_probability": 0.0},
            "377d50109022c5769c92c4cf91643e30fbf256dcf0b83392fc5d8f316601818d",
            "89e8a45be7619d2250754482c5d65aaa9d1a099b0517d077e964fec8727d4988",
        ),
        (
            {"min_rows": 9, "max_rows": 9, "min_cols": 9, "max_cols": 9},
            "3ca464d85ade00017951eab15a022877958a8a2e58f3fff7038053f6baca3120",
            "590586ff8a561a7da1780679a8043f45dbecef7bd513c02e32abf05d8096a148",
        ),
    ],
    ids=["default", "all-spans-and-headers", "no-spans-or-headers", "9x9"],
)
def test_fixture_bytes_are_pinned(fields, gt_digest, det_digest):
    gt, det = generate_fixtures(FixtureSpec(n_tables=8, seed=3, **fields))
    assert hashlib.sha256(serialize(gt).encode()).hexdigest() == gt_digest
    assert hashlib.sha256(serialize(det).encode()).hexdigest() == det_digest


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
