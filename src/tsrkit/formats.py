"""Corpus file schemas: detection and ground-truth records as versioned JSON.

One schema family covers both directions of every pipeline. Each image
record holds its instances as one ``labels.Instances``: box, class and score
columns, with content extents and unknown fields in a side table, from which
a ``ComponentInstance`` is built only where a caller reads one. Ground truth
may carry the structure HTML and per-instance content extents; detections
carry confidences. Out-of-range coordinates are clamped into the image with
a warning because real annotations contain padding-induced excursions.
Unknown fields at every level survive a load/save round trip untouched,
so, like ids and html, they must be text that UTF-8 can write; instance-level
ones ride in ``ComponentInstance.extra`` through both label transforms too.
What counts as a number and as a box is ``geometry``'s rule (``is_number``,
``float_box`` and ``BBox``), which ``labels`` applies to the content extents
it reads back, so both readers accept the same boxes.

``_columns`` checks each image one field at a time across its instances and
fills the columns straight from the parsed JSON. It matches types exactly, so
a boolean or a string never becomes a float, and it accepts an image only if
every instance would load as it stands. Any doubt, such as an int beyond
2**53, a box to clamp or an unknown field, sends that image to
``_parse_instance``, one instance at a time, which raises the first error
with its JSON path and logs each clamp in order; its records are packed into
the same columns. That path locates errors; it is not a second loader, and
both give the same records.

``_columns`` is the pure-Python twin of the extension's ``pack_columns``:
the same arguments and checks, and bit-identical columns. The backend rule,
``teds.distance.compiled()``, picks one of the two per load.
"""

from __future__ import annotations

import json
import logging
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter, le

import numpy as np

from .errors import HtmlParseError, SchemaError
from .geometry import NUMBER_TYPES, BBox, float_box, is_number, unchecked_bbox
from .labels import AnnotationSet, ComponentClass, ComponentInstance, Instances, LabelMode, decode_pseudo
from .teds import TableTree, distance, parse_table_html

SCHEMA_VERSION = 1

log = logging.getLogger("tsrkit.formats")


@dataclass
class ImageRecord:
    image_id: str
    width: float
    height: float
    instances: Sequence[ComponentInstance] = field(default_factory=list)
    html: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class CorpusFile:
    """One corpus file: detections or ground truth, by which loader read it."""

    label_mode: LabelMode
    images: list[ImageRecord] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    path: str | None = field(default=None, compare=False)  # None when built in memory

    def annotation_sets(self) -> list[AnnotationSet]:
        return [
            AnnotationSet(rec.image_id, rec.instances, self.label_mode)
            for rec in self.images
        ]

    def multi_label_sets(self) -> list[AnnotationSet]:
        """``annotation_sets``, decoded by ``decode_pseudo`` where the file is single-label."""
        sets = self.annotation_sets()
        if self.label_mode is LabelMode.SINGLE:
            sets = [decode_pseudo(ann) for ann in sets]
        return sets

    def trees_by_image(self) -> dict[str, TableTree]:
        """Each image's structure tree, parsed from its html in file order and not kept: the
        one place html becomes a tree. The first html the grammar rejects, else the first
        image without html, raises ``SchemaError`` naming the file and the image."""
        trees, where = {}, "" if self.path is None else f"{self.path}: "
        for i, rec in enumerate(self.images):
            try:
                trees[rec.image_id] = None if rec.html is None else parse_table_html(rec.html)
            except HtmlParseError as exc:
                raise SchemaError(f"{where}{_at(i)}.html: does not parse: {exc}") from exc
        missing = [i for i, rec in enumerate(self.images) if rec.html is None]
        if missing:
            raise SchemaError(f"{where}{_at(missing[0])}: missing html")
        return trees


# The parsers below run once per image and instance: they carry record
# indices and format a JSON path or message only when a check fails.


def _at(image: int, instance: int | None = None) -> str:
    """The JSON path of one image record, or of one of its instances."""
    path = f"$.images[{image}]"
    return path if instance is None else f"{path}.instances[{instance}]"


def _check_utf8(text: str, image: int, key: str):
    """Loaded text is written back as UTF-8, in JSON and in file names; a lone surrogate cannot be."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError(f"{_at(image)}.{key}: not UTF-8 text: {exc.reason} (at character {exc.start})") from None


def _unknown_fields(raw: dict, known, image: int | None = None, instance: int | None = None) -> dict:
    """The fields of ``raw``, the corpus or the image or instance record at those
    indices, outside ``known``, each checked as ``serialize`` writes it back."""
    extra = {k: v for k, v in raw.items() if k not in known}
    for key, value in extra.items():
        try:
            json.dumps({key: value}, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            path = "$" if image is None else _at(image, instance)
            raise SchemaError(f"{path}.{key}: not UTF-8 text: {exc.reason}") from None
    return extra


def _clamped_bbox(raw, width: float, height: float, image: int, instance: int, key: str) -> BBox:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
        raise SchemaError(f"{_at(image, instance)}.{key}: bbox must be a 4-element array, got {raw!r}")
    coords = float_box(raw)
    if coords is None:
        raise SchemaError(f"{_at(image, instance)}.{key}: bbox holds non-finite or non-numeric values {raw!r}")
    x1, y1, x2, y2 = coords
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
    try:
        return BBox(x1, y1, x2, y2)
    except ValueError:
        raise SchemaError(f"{_at(image, instance)}.{key}: bbox {raw!r} inverted after clamping") from None


_INSTANCE_FIELDS = frozenset({"bbox", "class_id", "score", "content_bbox"})
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
        if not (is_number(score) and 0.0 <= score <= 1.0):
            raise SchemaError(f"{_at(image, instance)}.score: must lie in [0, 1], got {score!r}")
        score = float(score)

    content_box = None
    content_raw = raw.get("content_bbox")
    if content_raw is not None:
        if not is_ground_truth:
            raise SchemaError(f"{_at(image, instance)}.content_bbox: only ground truth carries content extents")
        content_box = _clamped_bbox(content_raw, width, height, image, instance, "content_bbox")

    extra = {} if raw.keys() <= _INSTANCE_FIELDS else _unknown_fields(raw, _INSTANCE_FIELDS, image, instance)
    return ComponentInstance(box, ComponentClass(class_id), score, content_box, extra)


_EXACT_INT = 2**53  # every int up to this size is exactly a float64


def _box_column(raws: list, width: float, height: float, out: np.ndarray) -> bool:
    """Fill ``out`` with the raw bboxes; False unless each is four ordered numbers inside the image."""
    if set(map(type, raws)) != {list} or set(map(len, raws)) != {4}:
        return False
    flat = list(chain.from_iterable(raws))
    types = set(map(type, flat))
    # Every type check runs before any comparison: a string must not meet a float.
    if not types <= NUMBER_TYPES:
        return False
    # Each coordinate meets one operator.le test, which a NaN fails; min and
    # max would skip a NaN after the first value. Ordered boxes are inside
    # the image when the extreme edges are, and so within float range.
    x1, y1, x2, y2 = flat[0::4], flat[1::4], flat[2::4], flat[3::4]
    if not (all(map(le, x1, x2)) and all(map(le, y1, y2)) and 0.0 <= min(x1) and 0.0 <= min(y1)):
        return False
    right, bottom = max(x2), max(y2)
    if not (right <= width and bottom <= height) or (int in types and max(right, bottom) > _EXACT_INT):
        return False
    out.reshape(-1)[:] = flat
    return True


def _columns(raws, width, height, max_class, is_ground_truth, boxes, classes, optional) -> bool:
    """The pure-Python twin of ``_speedup.pack_columns``.

    Fills one image's (N, 4) ``boxes``, ``classes`` and ``optional`` column,
    (N,) scores or, in ground truth, (N, 4) content boxes, and returns True
    only if ``_parse_instance`` would accept each instance as it stands:
    every instance an object with the same known fields, every value
    well-formed, every box inside the image, so nothing to clamp and no
    unknown field to keep. Otherwise it returns False, the columns partly
    filled.
    """
    if not raws:
        return True
    if set(map(type, raws)) != {dict}:
        return False
    optional_key = "content_bbox" if is_ground_truth else "score"
    keys = ("bbox", "class_id", optional_key) if optional_key in raws[0] else ("bbox", "class_id")
    if set(map(len, raws)) != {len(keys)}:
        return False
    try:
        bboxes, class_ids, *optionals = [list(map(itemgetter(key), raws)) for key in keys]
    except KeyError:
        return False
    if not (set(map(type, class_ids)) == {int} and min(class_ids) >= 0 and max(class_ids) <= max_class):
        return False
    if not _box_column(bboxes, width, height, boxes):
        return False
    classes[:] = class_ids
    if not optionals:
        return True
    if is_ground_truth:
        return _box_column(optionals[0], width, height, optional)
    scores = optionals[0]
    if not (
        set(map(type, scores)) <= NUMBER_TYPES
        and all(map(le, repeat(0.0), scores))
        and all(map(le, scores, repeat(1.0)))
    ):
        return False
    optional[:] = scores
    return True


def _column_instances(
    pack, raws: list, width: float, height: float, label_mode: LabelMode, is_ground_truth: bool
) -> Instances | None:
    """One image's instances in columns that ``pack``, either twin, fills; None where it declines."""
    n = len(raws)
    boxes, classes, scores = np.empty((n, 4)), np.empty(n, dtype=np.int8), np.full(n, np.nan)
    optional = np.empty((n, 4)) if is_ground_truth else scores
    max_class = 6 if label_mode is LabelMode.SINGLE else 5
    if not pack(raws, width, height, max_class, is_ground_truth, boxes, classes, optional):
        return None
    side = None
    if is_ground_truth and n and "content_bbox" in raws[0]:
        side = {i: (box, {}) for i, box in enumerate(map(unchecked_bbox, optional.tolist()))}
    return Instances(boxes, classes, scores, side)


def _parse_image(raw, label_mode, is_ground_truth, image, pack) -> ImageRecord:
    if not isinstance(raw, dict):
        raise SchemaError(f"{_at(image)}: image record must be an object")
    known = {"image_id", "width", "height", "instances", "html"}
    for key in ("image_id", "width", "height"):
        if key not in raw:
            raise SchemaError(f"{_at(image)}: missing {key}")
    image_id = raw["image_id"]
    if not (isinstance(image_id, str) and image_id):
        raise SchemaError(f"{_at(image)}.image_id: must be a non-empty string")
    _check_utf8(image_id, image, "image_id")
    for key in ("width", "height"):
        if not (is_number(raw[key]) and raw[key] > 0):
            raise SchemaError(f"{_at(image)}.{key}: must be a positive finite number, got {raw[key]!r}")
    width, height = float(raw["width"]), float(raw["height"])
    # Twice the area bounded keeps every box's area, and the IoU union of any
    # two boxes clamped into the image, finite.
    if not math.isfinite(2.0 * width * height):
        raise SchemaError(f"{_at(image)}: image area {width!r} x {height!r} overflows")
    instances_raw = raw.get("instances", [])
    if not isinstance(instances_raw, list):
        raise SchemaError(f"{_at(image)}.instances: must be an array")
    instances = _column_instances(pack, instances_raw, width, height, label_mode, is_ground_truth)
    if instances is None:
        # one instance at a time, to raise the first error and log each clamp in order
        instances = Instances.pack([
            _parse_instance(inst, width, height, label_mode, is_ground_truth, image, i)
            for i, inst in enumerate(instances_raw)
        ])
    html = raw.get("html")
    if html is not None:
        if not is_ground_truth:
            raise SchemaError(f"{_at(image)}.html: only ground truth carries structure html")
        if not isinstance(html, str):
            raise SchemaError(f"{_at(image)}.html: must be a string")
        _check_utf8(html, image, "html")
    return ImageRecord(image_id, width, height, instances, html, _unknown_fields(raw, known, image))


def read_text(path: str) -> str:
    """The whole of a UTF-8 text file; other bytes raise ``SchemaError`` with the path and offset.

    Line ends are kept as they are, so the character offsets that parse and
    JSON errors report index the file's own characters.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            # one read decodes the whole file, so the offset counts from its first byte
            raise SchemaError(f"{path}: not UTF-8 text: {exc.reason} (at byte {exc.start})") from None


def _load(path: str, is_ground_truth: bool | None) -> CorpusFile:
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return _corpus_file(raw, is_ground_truth, path)
    except SchemaError as exc:
        # a command may read two corpus files; the message names which one
        raise SchemaError(f"{path}: {exc}") from exc


def _carries_ground_truth(images_raw: list) -> bool:
    """Whether the first carrier-only field in file order is ground truth's: a
    ``content_bbox`` or an ``html``, not a ``score``. False where there is none."""
    for image in images_raw:
        if not isinstance(image, dict):
            continue
        for key, value in image.items():
            if key == "html" and value is not None:
                return True
            if key == "instances" and isinstance(value, list):
                for inst in filter(lambda inst: isinstance(inst, dict), value):
                    for field_key, field_value in inst.items():
                        if field_key in ("score", "content_bbox") and field_value is not None:
                            return field_key == "content_bbox"
    return False


def _corpus_file(raw, is_ground_truth: bool | None, path: str) -> CorpusFile:
    if not isinstance(raw, dict):
        raise SchemaError("$: top level must be an object")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"$.schema_version: unsupported version {version!r} (expected {SCHEMA_VERSION})")
    mode_raw = raw.get("label_mode")
    if mode_raw not in ("multi", "single"):
        raise SchemaError(f"$.label_mode: must be 'multi' or 'single', got {mode_raw!r}")
    label_mode = LabelMode(mode_raw)
    images_raw = raw.get("images")
    if not isinstance(images_raw, list):
        raise SchemaError("$.images: must be an array")
    if is_ground_truth is None:  # decided before parsing, which drops each image's JSON
        is_ground_truth = _carries_ground_truth(images_raw)
    extension = distance.compiled()
    pack = _columns if extension is None else extension.pack_columns
    # Each image's JSON is dropped once parsed, so the whole tree and the
    # records made from it are never held at once.
    images = []
    for i in range(len(images_raw)):
        images.append(_parse_image(images_raw[i], label_mode, is_ground_truth, i, pack))
        images_raw[i] = None
    seen = set()
    for i, rec in enumerate(images):
        if rec.image_id in seen:
            raise SchemaError(f"{_at(i)}.image_id: duplicate id {rec.image_id!r}")
        seen.add(rec.image_id)
    extra = _unknown_fields(raw, ("schema_version", "label_mode", "images"))
    return CorpusFile(label_mode=label_mode, images=images, extra=extra, path=path)


def load_detections(path: str) -> CorpusFile:
    return _load(path, is_ground_truth=False)


def load_ground_truth(path: str) -> CorpusFile:
    return _load(path, is_ground_truth=True)


def load_any(path: str) -> CorpusFile:
    """Detections or ground truth, by the first carrier-only field in file
    order; a file with neither loads the same under both rules."""
    return _load(path, is_ground_truth=None)


def _instance_json(inst: ComponentInstance) -> dict:
    out: dict = {"bbox": list(map(float, inst.box)), "class_id": int(inst.cls)}
    if inst.score is not None:
        out["score"] = float(inst.score)
    if inst.content_box is not None:
        out["content_bbox"] = list(map(float, inst.content_box))
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


def _create_temporary(directory: str) -> tuple[int, str]:
    """A new file in ``directory`` under an unused name, opened for writing.

    It is created with mode 0o666, so the process umask sets its
    permissions, as it does for a file made by ``open``.
    """
    while True:
        tmp = os.path.join(directory, f".tsrkit-{os.urandom(8).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write_text(path: str, text: str):
    """Write ``text`` to ``path`` through a temporary file in its directory.

    The file gets the permissions the umask leaves of 0o666. The temporary
    file is removed on failure. An ``OSError`` is raised again as the same
    subclass with ``path`` as its filename, so it names the file asked for,
    not the temporary one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = _create_temporary(directory)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def save(corpus: CorpusFile, path: str):
    atomic_write_text(path, serialize(corpus))
