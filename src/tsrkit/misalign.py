"""Synthetic prediction perturbations that pull detection and structure
metrics apart.

Ground-truth boxes in table corpora are padded out to ruling lines, so they
sit strictly outside the minimum box that recovers the structure. Perturbing
ground truth toward or away from that minimum produces prediction sets whose
AP ordering need not agree with their structure-similarity ordering; the
report makes the divergence concrete.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cocoeval import ApReport, evaluate_corpus
from .errors import CorpusError, LabelModeError, TsrkitError
from .formats import CorpusFile
from .labels import MULTI_LABEL_CLASSES, AnnotationSet, ComponentClass, Instances, LabelMode
from .reconstruct import build_grid, grid_to_html
from .teds import CorpusTedsReport, TableTree, corpus_teds, parse_table_html


class PerturbationMode(enum.Enum):
    DILATE = "dilate"
    SHRINK = "shrink"
    SNAP_TO_MINIMAL = "snap"
    MERGE_ADJACENT = "merge"


MAGNITUDE_MODES = frozenset({PerturbationMode.DILATE, PerturbationMode.SHRINK})
ALL_CLASSES = frozenset(MULTI_LABEL_CLASSES)


@dataclass(frozen=True)
class PerturbationSpec:
    mode: PerturbationMode
    magnitude: float = 0.0
    target_classes: frozenset[ComponentClass] = field(default_factory=lambda: ALL_CLASSES)

    def __post_init__(self):
        if not math.isfinite(self.magnitude):
            raise ValueError(f"magnitude must be finite, got {self.magnitude!r}")
        if self.magnitude < 0:
            raise ValueError("magnitude must be non-negative")
        object.__setattr__(self, "target_classes", frozenset(self.target_classes))

    def describe(self) -> str:
        """The spec in the grammar ``parse_perturbation_spec`` reads."""
        parts = [self.mode.value]
        if self.mode in MAGNITUDE_MODES:
            parts.append(f"{self.magnitude:g}")
        if self.target_classes != ALL_CLASSES:
            parts.append("+".join(sorted(c.name.lower() for c in self.target_classes)))
        return ":".join(parts)


def parse_perturbation_spec(text: str) -> PerturbationSpec:
    """mode[:magnitude][:class+class+...], e.g. dilate:2 or merge:row.

    Only the ``MAGNITUDE_MODES`` take a magnitude, and at most one; a spec
    has at most one class part. merge targets rows unless a class part
    says otherwise; every other mode targets all classes.
    """
    parts = text.split(":")
    mode_name = parts[0].strip().lower()
    try:
        mode = PerturbationMode(mode_name)
    except ValueError:
        raise ValueError(f"unknown perturbation mode {mode_name!r}") from None
    magnitudes, class_parts = [], []
    for part in parts[1:]:
        part = part.strip()
        if not part:
            continue
        try:
            magnitudes.append(float(part))
            continue
        except ValueError:
            pass
        names = {p.strip().upper() for p in part.split("+") if p.strip()}
        if not names:
            raise ValueError(f"no component class in {text!r}")
        try:
            class_parts.append(frozenset(ComponentClass[name] for name in names))
        except KeyError as exc:
            raise ValueError(f"unknown component class in {part!r}") from exc
    if magnitudes and mode not in MAGNITUDE_MODES:
        raise ValueError(f"perturbation mode {mode_name!r} takes no magnitude, got {text!r}")
    if len(magnitudes) > 1:
        raise ValueError(f"more than one magnitude in {text!r}")
    if len(class_parts) > 1:
        raise ValueError(f"more than one class part in {text!r}")
    default_classes = frozenset({ComponentClass.ROW}) if mode is PerturbationMode.MERGE_ADJACENT else ALL_CLASSES
    return PerturbationSpec(
        mode=mode,
        magnitude=magnitudes[0] if magnitudes else 0.0,
        target_classes=class_parts[0] if class_parts else default_classes,
    )


def perturb(gt: AnnotationSet, spec: PerturbationSpec, width: float, height: float) -> AnnotationSet:
    """Turn multi-label ground truth into the prediction set its written file loads as (confidences 1.0).

    dilate grows target boxes by ``magnitude`` px per side (past the padded
    ground truth); shrink cuts inward by the same amount, into the content
    extent once the padding is exceeded; snap replaces boxes by their
    content extents; merge unions the vertically closest adjacent pair of
    target boxes, in (y1, x1) order, into the upper one, which keeps its
    class and fields, and drops the lower one.

    Then every box is clamped into the ``width`` x ``height`` image by the
    loader's rule, ``min(max(v, 0), limit)`` per coordinate, and the
    instances come out in stable (class, y1, x1) order, so a row depends on
    neither the input's instance order nor its label formulation. Every
    instance keeps its unknown fields and loses its content extent.
    Single-label input raises ``LabelModeError``, and the first targeted
    instance that cannot be perturbed ``ValueError``, naming the image.
    """
    if gt.mode is not LabelMode.MULTI:
        raise LabelModeError(
            f"{gt.image_id}: perturb expects multi-label ground truth (apply decode_pseudo first)"
        )
    columns = Instances.pack(gt.instances)
    is_target = np.zeros(len(ComponentClass), dtype=bool)  # by class id
    is_target[list(spec.target_classes)] = True
    targeted = is_target[columns.classes]
    targets = targeted.nonzero()[0]
    boxes, lower = columns.boxes.copy(), None  # lower: the instance a merge drops
    m = spec.magnitude
    if spec.mode is PerturbationMode.MERGE_ADJACENT:
        if len(targets) >= 2:
            order = targets[np.lexsort((boxes[targets, 0], boxes[targets, 1]))]  # stable: ties keep their order
            at = int(np.argmin(boxes[order[1:], 1] - boxes[order[:-1], 3]))
            upper, lower = order[at], order[at + 1]
            a, b = boxes[upper], boxes[lower]
            # the lower box's coordinate only where it is strictly beyond, so a -0.0 tie keeps the upper one's
            boxes[upper] = np.where(np.concatenate((b[:2] < a[:2], b[2:] > a[2:])), b, a)
    elif spec.mode is PerturbationMode.DILATE:
        np.subtract(boxes, [m, m, -m, -m], out=boxes, where=targeted[:, None])
    elif spec.mode is PerturbationMode.SHRINK:
        # a float 2m below a rounded side is at most the exact side, so each result stays ordered
        bad = targeted & (2 * m >= np.minimum(boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]))
        if bad.any():
            raise ValueError(
                f"{gt.image_id}: shrink by {m} degenerates box {tuple(boxes[bad.argmax()].tolist())}"
            )
        np.subtract(boxes, [-m, -m, m, m], out=boxes, where=targeted[:, None])
    elif spec.mode is PerturbationMode.SNAP_TO_MINIMAL:
        contents = [columns.side.get(i, (None, {}))[0] for i in targets.tolist()]
        if None in contents:
            at = targets[contents.index(None)]
            raise ValueError(
                f"{gt.image_id}: {ComponentClass(columns.classes[at].item()).name} at "
                f"{tuple(columns.boxes[at].tolist())} carries no content extent"
            )
        boxes[targets] = np.array(contents, dtype=np.float64).reshape(-1, 4)
    else:
        raise AssertionError(spec.mode)

    # only a coordinate outside the image moves, so a -0.0 stays, as in the loader
    limits = np.array([width, height, width, height])
    np.copyto(boxes, 0.0, where=boxes < 0.0)
    np.copyto(boxes, limits, where=boxes > limits)
    source = np.lexsort((boxes[:, 0], boxes[:, 1], columns.classes))  # stable: ties keep their order
    if lower is not None:
        source = source[source != lower]
    side = {}
    extras = [(i, extra) for i, (_, extra) in columns.side.items() if extra]
    if extras:
        position = np.full(len(columns), -1)
        position[source] = np.arange(len(source))
        at = position.tolist()
        side = dict(sorted((at[i], (None, extra)) for i, extra in extras if at[i] >= 0))
    out = Instances(boxes[source], columns.classes[source], np.ones(len(source)), side)
    return AnnotationSet(gt.image_id, out, LabelMode.MULTI)


@dataclass(frozen=True)
class MisalignmentRow:
    label: str
    mean_ap: float | None
    teds_overall: float | None
    failures: tuple[tuple[str, str], ...]  # (image id, message) per table scored 0

    def metrics(self, spec: str) -> list[str]:
        """mAP and TEDS in the format ``spec``, n/a where there was nothing to average."""
        return ["n/a" if value is None else format(value, spec) for value in (self.mean_ap, self.teds_overall)]


@dataclass(frozen=True)
class MisalignmentReport:
    rows: tuple[MisalignmentRow, ...]

    def format_lines(self) -> list[str]:
        cells = [("perturbation", "mAP", "TEDS")] + [(row.label, *row.metrics(".4f")) for row in self.rows]
        return [f"{label:<30} {ap:>8} {teds:>8}" for label, ap, teds in cells]


def compare(
    preds: list[AnnotationSet], gt_sets: list[AnnotationSet], gt_trees: dict[str, TableTree]
) -> tuple[ApReport, CorpusTedsReport, list[tuple[str, str]]]:
    """Score multi-label predictions, one set per image of ``gt_trees``, as
    ``coco-eval`` and ``reconstruct`` + ``teds`` score them written to a file:
    the AP report, the TEDS report in ``teds``'s image id order, and (image id,
    message) per table scored TEDS 0 because it cannot be reconstructed or the
    grammar rejects its HTML.
    """
    by_image = {ann.image_id: ann for ann in preds}
    ap = evaluate_corpus(
        {image_id: ann.instances for image_id, ann in by_image.items()},
        {ann.image_id: ann.instances for ann in gt_sets},
    )
    failures = []

    def pairs():
        for image_id in sorted(gt_trees):
            tree = None
            try:
                tree = parse_table_html(grid_to_html(build_grid(by_image[image_id])))
            except TsrkitError as exc:
                failures.append((image_id, str(exc)))
            yield tree, gt_trees[image_id]

    return ap, corpus_teds(pairs()), failures


def misalignment_report(
    corpus: CorpusFile, gt_trees: dict[str, TableTree], specs: list[PerturbationSpec]
) -> MisalignmentReport:
    """One row per spec, in order: ``compare`` of the perturbed ground truth
    of ``corpus``, decoded once if single-label, with the ground truth and
    ``gt_trees``, a tree for every image. A metric with nothing to average
    is None.
    """
    missing = [rec.image_id for rec in corpus.images if rec.image_id not in gt_trees]
    if missing:
        raise CorpusError(f"images without ground-truth html: {missing[:5]}")
    gt_sets = corpus.multi_label_sets()
    rows = []
    for spec in specs:
        perturbed = [perturb(ann, spec, rec.width, rec.height) for ann, rec in zip(gt_sets, corpus.images)]
        ap, teds_report, failures = compare(perturbed, gt_sets, gt_trees)
        rows.append(MisalignmentRow(spec.describe(), ap.mean_ap, teds_report.overall_mean, tuple(failures)))
    return MisalignmentReport(tuple(rows))
