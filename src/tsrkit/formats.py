"""Corpus file schemas: detection and ground-truth records as versioned JSON.

One schema family covers both directions of every pipeline: per-image
records with instance lists. Ground truth may carry the structure HTML and
per-instance content extents; detections carry confidences. Out-of-range
coordinates are clamped into the image with a warning because real
annotations contain padding-induced excursions; unknown fields survive a
load/save round trip untouched.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import tempfile
from dataclasses import dataclass, field

from .errors import HtmlParseError, SchemaError
from .geometry import BBox
from .labels import AnnotationSet, ComponentClass, ComponentInstance, LabelMode
from .teds import parse_table_html

SCHEMA_VERSION = 1

log = logging.getLogger("tsrkit.formats")
_FLOAT_MAX = sys.float_info.max


@dataclass
class InstanceRecord:
    bbox: tuple[float, float, float, float]
    class_id: int
    score: float | None = None
    content_bbox: tuple[float, float, float, float] | None = None
    extra: dict = field(default_factory=dict)

    def to_instance(self) -> ComponentInstance:
        return ComponentInstance(
            box=BBox(*self.bbox),
            cls=ComponentClass(self.class_id),
            score=self.score,
            content_box=BBox(*self.content_bbox) if self.content_bbox else None,
        )


@dataclass
class ImageRecord:
    image_id: str
    width: float
    height: float
    instances: list[InstanceRecord] = field(default_factory=list)
    html: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class CorpusFile:
    """One corpus file: detections or ground truth, by which loader read it."""

    label_mode: LabelMode
    images: list[ImageRecord] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def annotation_sets(self) -> list[AnnotationSet]:
        return [
            AnnotationSet(
                rec.image_id,
                tuple(inst.to_instance() for inst in rec.instances),
                self.label_mode,
            )
            for rec in self.images
        ]

    def html_by_image(self) -> dict[str, str]:
        return {rec.image_id: rec.html for rec in self.images if rec.html is not None}


def instance_record_from(inst: ComponentInstance, with_score: bool) -> InstanceRecord:
    return InstanceRecord(
        bbox=inst.box.as_tuple(),
        class_id=int(inst.cls),
        score=inst.score if with_score else None,
        content_bbox=inst.content_box.as_tuple() if inst.content_box else None,
    )


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise SchemaError(f"{path}: {message}")


def _is_finite_number(value) -> bool:
    """A JSON number within float range: booleans, infinities and NaN are not."""
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _clamped_bbox(raw, width: float, height: float, path: str):
    # runs once per box, so each message is formatted only when its check fails
    if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
        raise SchemaError(f"{path}: bbox must be a 4-element array, got {raw!r}")
    if not all(map(_is_finite_number, raw)):
        raise SchemaError(f"{path}: bbox holds non-finite or non-numeric values {raw!r}")
    x1, y1, x2, y2 = map(float, raw)
    clamped = (
        min(max(x1, 0.0), width),
        min(max(y1, 0.0), height),
        min(max(x2, 0.0), width),
        min(max(y2, 0.0), height),
    )
    if clamped != (x1, y1, x2, y2):
        log.warning("%s: bbox %s clamped to %s", path, (x1, y1, x2, y2), clamped)
    if not (clamped[2] >= clamped[0] and clamped[3] >= clamped[1]):
        raise SchemaError(f"{path}: bbox {raw!r} inverted after clamping")
    return clamped


def _parse_instance(raw, width, height, label_mode, is_ground_truth, path) -> InstanceRecord:
    _require(isinstance(raw, dict), path, "instance must be an object")
    known = {"bbox", "class_id", "score", "content_bbox"}
    _require("bbox" in raw, path, "missing bbox")
    _require("class_id" in raw, path, "missing class_id")
    bbox = _clamped_bbox(raw["bbox"], width, height, f"{path}.bbox")

    class_id = raw["class_id"]
    _require(
        type(class_id) is int and 0 <= class_id <= 6,
        f"{path}.class_id",
        f"must be an integer in 0..6, got {class_id!r}",
    )
    _require(
        class_id != 6 or label_mode is LabelMode.SINGLE,
        f"{path}.class_id",
        "class 6 (pseudo header row) requires label_mode = single",
    )

    score = raw.get("score")
    if is_ground_truth:
        _require(score is None, f"{path}.score", "ground truth must not carry scores")
    elif score is not None:
        _require(
            _is_finite_number(score) and 0.0 <= score <= 1.0,
            f"{path}.score",
            f"must lie in [0, 1], got {score!r}",
        )
        score = float(score)

    content_bbox = None
    if raw.get("content_bbox") is not None:
        _require(is_ground_truth, f"{path}.content_bbox", "only ground truth carries content extents")
        content_bbox = _clamped_bbox(raw["content_bbox"], width, height, f"{path}.content_bbox")

    extra = {k: v for k, v in raw.items() if k not in known}
    return InstanceRecord(bbox, class_id, score, content_bbox, extra)


def _parse_image(raw, label_mode, is_ground_truth, path) -> ImageRecord:
    _require(isinstance(raw, dict), path, "image record must be an object")
    known = {"image_id", "width", "height", "instances", "html"}
    for key in ("image_id", "width", "height"):
        _require(key in raw, path, f"missing {key}")
    image_id = raw["image_id"]
    _require(isinstance(image_id, str) and image_id, f"{path}.image_id", "must be a non-empty string")
    width, height = raw["width"], raw["height"]
    _require(
        _is_finite_number(width) and width > 0,
        f"{path}.width",
        f"must be a positive finite number, got {width!r}",
    )
    _require(
        _is_finite_number(height) and height > 0,
        f"{path}.height",
        f"must be a positive finite number, got {height!r}",
    )
    instances_raw = raw.get("instances", [])
    _require(isinstance(instances_raw, list), f"{path}.instances", "must be an array")
    instances = [
        _parse_instance(inst, float(width), float(height), label_mode, is_ground_truth,
                        f"{path}.instances[{i}]")
        for i, inst in enumerate(instances_raw)
    ]
    html = raw.get("html")
    if html is not None:
        _require(is_ground_truth, f"{path}.html", "only ground truth carries structure html")
        _require(isinstance(html, str), f"{path}.html", "must be a string")
        try:
            parse_table_html(html)
        except HtmlParseError as exc:
            raise SchemaError(f"{path}.html: does not parse: {exc}") from exc
    extra = {k: v for k, v in raw.items() if k not in known}
    return ImageRecord(image_id, float(width), float(height), instances, html, extra)


def _load(path: str, is_ground_truth: bool) -> CorpusFile:
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "$", "top level must be an object")
    version = raw.get("schema_version")
    _require(
        version == SCHEMA_VERSION,
        "$.schema_version",
        f"unsupported version {version!r} (expected {SCHEMA_VERSION})",
    )
    mode_raw = raw.get("label_mode")
    _require(mode_raw in ("multi", "single"), "$.label_mode", f"must be 'multi' or 'single', got {mode_raw!r}")
    label_mode = LabelMode(mode_raw)
    images_raw = raw.get("images")
    _require(isinstance(images_raw, list), "$.images", "must be an array")
    images = [
        _parse_image(img, label_mode, is_ground_truth, f"$.images[{i}]")
        for i, img in enumerate(images_raw)
    ]
    seen = set()
    for i, rec in enumerate(images):
        _require(rec.image_id not in seen, f"$.images[{i}].image_id", f"duplicate id {rec.image_id!r}")
        seen.add(rec.image_id)
    extra = {k: v for k, v in raw.items() if k not in ("schema_version", "label_mode", "images")}
    return CorpusFile(label_mode=label_mode, images=images, extra=extra)


def load_detections(path: str) -> CorpusFile:
    return _load(path, is_ground_truth=False)


def load_ground_truth(path: str) -> CorpusFile:
    return _load(path, is_ground_truth=True)


def _instance_json(rec: InstanceRecord) -> dict:
    out: dict = {"bbox": [float(v) for v in rec.bbox], "class_id": rec.class_id}
    if rec.score is not None:
        out["score"] = float(rec.score)
    if rec.content_bbox is not None:
        out["content_bbox"] = [float(v) for v in rec.content_bbox]
    out.update(rec.extra)
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
