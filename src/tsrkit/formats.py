"""Corpus file schemas: detection and ground-truth records as versioned JSON.

One schema family covers both directions of every pipeline: per-image
records of ``labels.ComponentInstance``, the one instance type every stage
uses from file to metric. Ground truth may carry the structure HTML and
per-instance content extents; detections carry confidences. Out-of-range
coordinates are clamped into the image with a warning because real
annotations contain padding-induced excursions. Unknown fields at every
level survive a load/save round trip untouched; instance-level ones ride in
``ComponentInstance.extra`` through both label transforms too.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import tempfile
from dataclasses import dataclass, field
from functools import cached_property

from .errors import HtmlParseError, SchemaError
from .geometry import BBox
from .labels import AnnotationSet, ComponentClass, ComponentInstance, LabelMode
from .teds import TableTree, parse_table_html

SCHEMA_VERSION = 1

log = logging.getLogger("tsrkit.formats")
_FLOAT_MAX = sys.float_info.max
_NUMBER_TYPES = (int, float)  # matched by exact type, so booleans are not numbers


@dataclass
class ImageRecord:
    image_id: str
    width: float
    height: float
    instances: list[ComponentInstance] = field(default_factory=list)
    html: str | None = None
    extra: dict = field(default_factory=dict)

    @cached_property
    def tree(self) -> TableTree | None:
        """The structure tree of ``html``, parsed on first use and kept."""
        return None if self.html is None else parse_table_html(self.html)


@dataclass
class CorpusFile:
    """One corpus file: detections or ground truth, by which loader read it."""

    label_mode: LabelMode
    images: list[ImageRecord] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def annotation_sets(self) -> list[AnnotationSet]:
        return [
            AnnotationSet(rec.image_id, tuple(rec.instances), self.label_mode)
            for rec in self.images
        ]

    def trees_by_image(self) -> dict[str, TableTree]:
        return {rec.image_id: rec.tree for rec in self.images if rec.html is not None}


# The parsers below run once per image and instance: they carry record
# indices and format a JSON path or message only when a check fails.


def _at(image: int, instance: int | None = None) -> str:
    """The JSON path of one image record, or of one of its instances."""
    path = f"$.images[{image}]"
    return path if instance is None else f"{path}.instances[{instance}]"


def _is_finite_number(value) -> bool:
    """A JSON number within float range: booleans, infinities and NaN are not."""
    return type(value) in _NUMBER_TYPES and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _clamped_bbox(raw, width: float, height: float, image: int, instance: int, key: str) -> BBox:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
        raise SchemaError(f"{_at(image, instance)}.{key}: bbox must be a 4-element array, got {raw!r}")
    x1, y1, x2, y2 = raw
    # Every type check runs before any comparison: a string must not meet a float.
    if not (
        type(x1) in _NUMBER_TYPES
        and type(y1) in _NUMBER_TYPES
        and type(x2) in _NUMBER_TYPES
        and type(y2) in _NUMBER_TYPES
        and -_FLOAT_MAX <= x1 <= _FLOAT_MAX
        and -_FLOAT_MAX <= y1 <= _FLOAT_MAX
        and -_FLOAT_MAX <= x2 <= _FLOAT_MAX
        and -_FLOAT_MAX <= y2 <= _FLOAT_MAX
    ):
        raise SchemaError(f"{_at(image, instance)}.{key}: bbox holds non-finite or non-numeric values {raw!r}")
    x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
    # Only a box reaching outside the image is clamped; -0.0 is inside and stays.
    if not (0.0 <= x1 <= width and 0.0 <= y1 <= height and 0.0 <= x2 <= width and 0.0 <= y2 <= height):
        clamped = (
            min(max(x1, 0.0), width),
            min(max(y1, 0.0), height),
            min(max(x2, 0.0), width),
            min(max(y2, 0.0), height),
        )
        log.warning("%s.%s: bbox %s clamped to %s", _at(image, instance), key, (x1, y1, x2, y2), clamped)
        x1, y1, x2, y2 = clamped
    if not (x2 >= x1 and y2 >= y1):
        raise SchemaError(f"{_at(image, instance)}.{key}: bbox {raw!r} inverted after clamping")
    return BBox(x1, y1, x2, y2)


_INSTANCE_FIELDS = frozenset({"bbox", "class_id", "score", "content_bbox"})
_CLASS_BY_ID = tuple(ComponentClass)  # indexing skips the enum's value lookup
_MISSING = object()


def _parse_instance(raw, width, height, label_mode, is_ground_truth, image, instance) -> ComponentInstance:
    if not isinstance(raw, dict):
        raise SchemaError(f"{_at(image, instance)}: instance must be an object")
    if "bbox" not in raw:
        raise SchemaError(f"{_at(image, instance)}: missing bbox")
    class_id = raw.get("class_id", _MISSING)
    if class_id is _MISSING:
        raise SchemaError(f"{_at(image, instance)}: missing class_id")
    box = _clamped_bbox(raw["bbox"], width, height, image, instance, "bbox")

    if not (type(class_id) is int and 0 <= class_id <= 6):
        raise SchemaError(f"{_at(image, instance)}.class_id: must be an integer in 0..6, got {class_id!r}")
    if class_id == 6 and label_mode is not LabelMode.SINGLE:
        raise SchemaError(
            f"{_at(image, instance)}.class_id: class 6 (pseudo header row) requires label_mode = single"
        )

    score = raw.get("score")
    if score is not None:
        if is_ground_truth:
            raise SchemaError(f"{_at(image, instance)}.score: ground truth must not carry scores")
        if not (type(score) in _NUMBER_TYPES and 0.0 <= score <= 1.0):
            raise SchemaError(f"{_at(image, instance)}.score: must lie in [0, 1], got {score!r}")
        score = float(score)

    content_box = None
    content_raw = raw.get("content_bbox")
    if content_raw is not None:
        if not is_ground_truth:
            raise SchemaError(f"{_at(image, instance)}.content_bbox: only ground truth carries content extents")
        content_box = _clamped_bbox(content_raw, width, height, image, instance, "content_bbox")

    extra = {} if raw.keys() <= _INSTANCE_FIELDS else {k: v for k, v in raw.items() if k not in _INSTANCE_FIELDS}
    return ComponentInstance(box, _CLASS_BY_ID[class_id], score, content_box, extra)


def _parse_image(raw, label_mode, is_ground_truth, image) -> ImageRecord:
    if not isinstance(raw, dict):
        raise SchemaError(f"{_at(image)}: image record must be an object")
    known = {"image_id", "width", "height", "instances", "html"}
    for key in ("image_id", "width", "height"):
        if key not in raw:
            raise SchemaError(f"{_at(image)}: missing {key}")
    image_id = raw["image_id"]
    if not (isinstance(image_id, str) and image_id):
        raise SchemaError(f"{_at(image)}.image_id: must be a non-empty string")
    for key in ("width", "height"):
        if not (_is_finite_number(raw[key]) and raw[key] > 0):
            raise SchemaError(f"{_at(image)}.{key}: must be a positive finite number, got {raw[key]!r}")
    width, height = float(raw["width"]), float(raw["height"])
    instances_raw = raw.get("instances", [])
    if not isinstance(instances_raw, list):
        raise SchemaError(f"{_at(image)}.instances: must be an array")
    instances = [
        _parse_instance(inst, width, height, label_mode, is_ground_truth, image, i)
        for i, inst in enumerate(instances_raw)
    ]
    html = raw.get("html")
    if html is not None:
        if not is_ground_truth:
            raise SchemaError(f"{_at(image)}.html: only ground truth carries structure html")
        if not isinstance(html, str):
            raise SchemaError(f"{_at(image)}.html: must be a string")
    record = ImageRecord(image_id, width, height, instances, html, {k: v for k, v in raw.items() if k not in known})
    try:
        record.tree  # validates the html; scoring reads the kept tree
    except HtmlParseError as exc:
        raise SchemaError(f"{_at(image)}.html: does not parse: {exc}") from exc
    return record


def read_text(path: str) -> str:
    """The whole of a UTF-8 text file; other bytes raise ``SchemaError`` with the path and offset."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            # one read decodes the whole file, so the offset counts from its first byte
            raise SchemaError(f"{path}: not UTF-8 text: {exc.reason} (at byte {exc.start})") from None


def _load(path: str, is_ground_truth: bool) -> CorpusFile:
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("$: top level must be an object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"$.schema_version: unsupported version {version!r} (expected {SCHEMA_VERSION})")
    mode_raw = raw.get("label_mode")
    if mode_raw not in ("multi", "single"):
        raise SchemaError(f"$.label_mode: must be 'multi' or 'single', got {mode_raw!r}")
    label_mode = LabelMode(mode_raw)
    images_raw = raw.get("images")
    if not isinstance(images_raw, list):
        raise SchemaError("$.images: must be an array")
    images = [_parse_image(img, label_mode, is_ground_truth, i) for i, img in enumerate(images_raw)]
    seen = set()
    for i, rec in enumerate(images):
        if rec.image_id in seen:
            raise SchemaError(f"{_at(i)}.image_id: duplicate id {rec.image_id!r}")
        seen.add(rec.image_id)
    extra = {k: v for k, v in raw.items() if k not in ("schema_version", "label_mode", "images")}
    return CorpusFile(label_mode=label_mode, images=images, extra=extra)


def load_detections(path: str) -> CorpusFile:
    return _load(path, is_ground_truth=False)


def load_ground_truth(path: str) -> CorpusFile:
    return _load(path, is_ground_truth=True)


def _instance_json(inst: ComponentInstance) -> dict:
    out: dict = {"bbox": [float(v) for v in inst.box.as_tuple()], "class_id": int(inst.cls)}
    if inst.score is not None:
        out["score"] = float(inst.score)
    if inst.content_box is not None:
        out["content_bbox"] = [float(v) for v in inst.content_box.as_tuple()]
    out.update(inst.extra)
    return out


def _image_json(rec: ImageRecord) -> dict:
    out: dict = {
        "image_id": rec.image_id,
        "width": rec.width,
        "height": rec.height,
        "instances": [_instance_json(inst) for inst in rec.instances],
    }
    if rec.html is not None:
        out["html"] = rec.html
    out.update(rec.extra)
    return out


def serialize(corpus: CorpusFile) -> str:
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "label_mode": corpus.label_mode.value,
        "images": [_image_json(img) for img in corpus.images],
    }
    payload.update(corpus.extra)
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tsrkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(corpus: CorpusFile, path: str):
    atomic_write_text(path, serialize(corpus))
