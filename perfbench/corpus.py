"""Seeded input corpora for the benchmark workloads.

Ground truth comes from ``tsrkit.fixtures.generate_fixtures``; predictions
come from a noise model owned here, shaped like the output of a DETR-style
structure detector: jittered true positives, a few dropped ones, and
low-scoring false positives kept inside the image. The same seed always
gives byte-identical files.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from dataclasses import dataclass

from tsrkit import formats
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.labels import ComponentClass, encode_pseudo
from tsrkit.teds import parse_table_html

# FinTabNet's published objects-per-image figure; the large corpus must stay
# within one object of it to count as FinTabNet-shaped.
FINTABNET_OBJECTS_PER_IMAGE = 20.73

_ROW_LIKE = {
    int(ComponentClass.ROW),
    int(ComponentClass.PROJECTED_ROW_HEADER),
    int(ComponentClass.PSEUDO_HEADER_ROW),
}


@dataclass(frozen=True)
class NoiseModel:
    """How predictions depart from the ground truth they were copied from."""

    single_label: bool  # pseudo-class encoded (class 6 present) or multi-label
    jitter_px: float  # each edge moves by up to this much, uniformly
    drop_rate: float  # chance that a true positive is missing
    tp_score: tuple[float, float]
    fp_per_image: tuple[int, int]  # inclusive range of false positives
    fp_score: tuple[float, float]  # kept below the 0.5 reconstruction cut


@dataclass(frozen=True)
class CorpusSpec:
    tables: int
    rows: tuple[int, int]  # inclusive range of rows per table
    cols: tuple[int, int]  # inclusive range of columns per table
    noise: NoiseModel | None = None  # None: ground truth only
    canvas: tuple[float, float] | None = None  # one page size for all; None: table crops


@dataclass(frozen=True)
class Corpus:
    gt_path: str
    pred_path: str | None
    tables: int
    objects: int
    shape: dict  # objects and detections per image, nodes per tree


_DEFAULT = FixtureSpec()
DEFAULT_ROWS = (_DEFAULT.min_rows, _DEFAULT.max_rows)
DEFAULT_COLS = (_DEFAULT.min_cols, _DEFAULT.max_cols)

# about 110 detections per image, nearly all of them false positives
SCORE_DENSE = CorpusSpec(
    tables=150,
    rows=DEFAULT_ROWS,
    cols=DEFAULT_COLS,
    noise=NoiseModel(
        single_label=True,
        jitter_px=1.5,
        drop_rate=0.02,
        tp_score=(0.55, 1.0),
        fp_per_image=(90, 110),
        fp_score=(0.01, 0.45),
    ),
)
# FinTabNet-shaped tables with about 23 detections per image
SCORE_LARGE = CorpusSpec(
    tables=66,
    rows=(8, 18),
    cols=(3, 8),
    noise=NoiseModel(
        single_label=False,
        jitter_px=1.5,
        drop_rate=0.02,
        tp_score=(0.55, 1.0),
        fp_per_image=(1, 4),
        fp_score=(0.01, 0.45),
    ),
)
# The anchor count follows the largest image in the corpus, so each table sits
# on one fixed page that holds the largest default-shape table (945 x 413 px);
# with per-table crops the count, and the anchors stage, swing with the seed.
GT_ANALYSIS = CorpusSpec(tables=30, rows=DEFAULT_ROWS, cols=DEFAULT_COLS, canvas=(960.0, 420.0))


def _ground_truth(spec: CorpusSpec, seed: int):
    """Ground truth holding every (rows, cols) pair of the spec equally often.

    Table size drives the cost of every stage, so it is stratified instead
    of drawn: the seed still picks the order, spans, headers and geometry.
    """
    rng = random.Random(seed)
    grid = [
        (rows, cols)
        for rows in range(spec.rows[0], spec.rows[1] + 1)
        for cols in range(spec.cols[0], spec.cols[1] + 1)
    ]
    sizes = grid * (spec.tables // len(grid)) + rng.sample(grid, spec.tables % len(grid))
    rng.shuffle(sizes)
    images = []
    for index, (rows, cols) in enumerate(sizes):
        gt, _ = generate_fixtures(
            FixtureSpec(
                n_tables=1,
                seed=rng.getrandbits(32),
                min_rows=rows,
                max_rows=rows,
                min_cols=cols,
                max_cols=cols,
            )
        )
        image = gt.images[0]
        image.image_id = f"table_{index:04d}"
        if spec.canvas is not None:
            if image.width > spec.canvas[0] or image.height > spec.canvas[1]:
                raise ValueError(f"table of {image.width} x {image.height} px exceeds the canvas")
            image.width, image.height = spec.canvas
        images.append(image)
    gt.images = images
    return gt


def _jittered(bbox, width, height, jitter, rng):
    x1, y1, x2, y2 = (v + rng.uniform(-jitter, jitter) for v in bbox)
    x1, x2 = min(max(x1, 0.0), width - 1.0), min(max(x2, 0.0), width)
    y1, y2 = min(max(y1, 0.0), height - 1.0), min(max(y2, 0.0), height)
    return [round(x1, 2), round(y1, 2), round(max(x2, x1 + 1.0), 2), round(max(y2, y1 + 1.0), 2)]


def _random_box(width, height, rng):
    x1, x2 = sorted((rng.uniform(0.0, width - 1.0), rng.uniform(0.0, width - 1.0)))
    y1, y2 = sorted((rng.uniform(0.0, height - 1.0), rng.uniform(0.0, height - 1.0)))
    return [round(x1, 2), round(y1, 2), round(x2 + 1.0, 2), round(y2 + 1.0, 2)]


def _predictions(width, height, instances, noise: NoiseModel, rng) -> list[dict]:
    """Noisy detections for one image; never drops the last row or column."""
    remaining = {
        "row": sum(1 for inst in instances if int(inst.cls) in _ROW_LIKE),
        "col": sum(1 for inst in instances if inst.cls == ComponentClass.COLUMN),
    }
    out = []
    for inst in instances:
        cls = int(inst.cls)
        axis = "row" if cls in _ROW_LIKE else "col" if cls == ComponentClass.COLUMN else None
        if rng.random() < noise.drop_rate and (axis is None or remaining[axis] > 1):
            if axis is not None:
                remaining[axis] -= 1
            continue
        out.append(
            {
                "bbox": _jittered(inst.box.as_tuple(), width, height, noise.jitter_px, rng),
                "class_id": cls,
                "score": round(rng.uniform(*noise.tp_score), 4),
            }
        )
    n_classes = 7 if noise.single_label else 6
    for _ in range(rng.randint(*noise.fp_per_image)):
        out.append(
            {
                "bbox": _random_box(width, height, rng),
                "class_id": rng.randrange(n_classes),
                "score": round(rng.uniform(*noise.fp_score), 4),
            }
        )
    return out


def build_corpus(spec: CorpusSpec, seed: int, directory: str) -> Corpus:
    """Write ``gt.json`` (and ``pred.json`` when the spec has noise) under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    gt = _ground_truth(spec, seed)
    gt_path = os.path.join(directory, "gt.json")
    formats.save(gt, gt_path)
    objects = sum(len(img.instances) for img in gt.images)
    shape = {"objects_per_image": objects / spec.tables}

    pred_path = None
    if spec.noise is not None:
        rng = random.Random(seed * 7919 + 17)
        images = []
        for image, ann in zip(gt.images, gt.annotation_sets()):
            instances = encode_pseudo(ann).instances if spec.noise.single_label else ann.instances
            images.append(
                {
                    "image_id": image.image_id,
                    "width": image.width,
                    "height": image.height,
                    "instances": _predictions(image.width, image.height, instances, spec.noise, rng),
                }
            )
        pred_path = os.path.join(directory, "pred.json")
        payload = {
            "schema_version": 1,
            "label_mode": "single" if spec.noise.single_label else "multi",
            "images": images,
        }
        with open(pred_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        shape["detections_per_image"] = sum(len(img["instances"]) for img in images) / spec.tables

    nodes = [parse_table_html(img.html).size() for img in gt.images]
    shape["nodes_per_tree_median"] = statistics.median(nodes)
    shape["nodes_per_tree_max"] = max(nodes)
    return Corpus(gt_path, pred_path, spec.tables, objects, shape)


def check_fintabnet_shape(corpus: Corpus):
    drift = abs(corpus.shape["objects_per_image"] - FINTABNET_OBJECTS_PER_IMAGE)
    if drift > 1.0:
        raise ValueError(
            f"large corpus has {corpus.shape['objects_per_image']:.2f} objects per image, "
            f"more than 1 away from FinTabNet's {FINTABNET_OBJECTS_PER_IMAGE}"
        )


def build_control(seed: int, directory: str) -> tuple[str, str]:
    """A small ground-truth corpus and its perfect-copy predictions (score 1.0)."""
    os.makedirs(directory, exist_ok=True)
    gt, det = generate_fixtures(FixtureSpec(n_tables=20, seed=seed))
    gt_path = os.path.join(directory, "gt.json")
    pred_path = os.path.join(directory, "pred.json")
    formats.save(gt, gt_path)
    formats.save(det, pred_path)
    return gt_path, pred_path
