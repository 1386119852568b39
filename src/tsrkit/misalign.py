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
from .errors import CorpusError, HtmlParseError
from .geometry import BBox, area_array
from .labels import MULTI_LABEL_CLASSES, AnnotationSet, ComponentClass, Instances, LabelMode
from .reconstruct import build_grid, grid_to_html
from .teds import TableTree, corpus_teds, parse_table_html


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


def perturb(gt: AnnotationSet, spec: PerturbationSpec) -> AnnotationSet:
    """Turn ground truth into a synthetic prediction set (confidences 1.0).

    dilate grows target boxes by ``magnitude`` px per side (past the padded
    ground truth); shrink cuts inward by the same amount, into the content
    extent once the padding is exceeded; snap replaces boxes by their content
    extents; merge unions the vertically closest adjacent pair of target
    boxes into one instance, which keeps the upper one's class and fields.

    Works on the ``Instances`` columns. The untargeted instances come first
    and the targeted ones after them, in their order, or for merge in
    (y1, x1) order. Every instance keeps its unknown fields and loses its
    content extent. The first targeted instance that cannot be perturbed
    raises a ``ValueError`` naming the image.
    """
    columns = Instances.pack(gt.instances)
    is_target = np.zeros(len(ComponentClass), dtype=bool)  # by class id
    is_target[list(spec.target_classes)] = True
    targeted = is_target[columns.classes]
    untouched, targets = (~targeted).nonzero()[0], targeted.nonzero()[0]
    boxes = columns.boxes[targets]
    m = spec.magnitude
    if spec.mode is PerturbationMode.MERGE_ADJACENT:
        if len(targets) >= 2:
            order = np.lexsort((boxes[:, 0], boxes[:, 1]))  # stable, so ties keep their order
            boxes = boxes[order]
            at = int(np.argmin(boxes[1:, 1] - boxes[:-1, 3]))
            upper, lower = (BBox(*box) for box in boxes[at : at + 2].tolist())
            targets = np.delete(targets[order], at + 1)
            boxes = np.delete(boxes, at + 1, axis=0)
            boxes[at] = upper.union_box(lower)
    elif spec.mode is PerturbationMode.DILATE:
        with np.errstate(over="ignore", invalid="ignore"):
            boxes = boxes - np.array([m, m, -m, -m])
            # Twice the area bounded keeps the IoU union of any two such boxes finite.
            bad = ~np.isfinite(2.0 * area_array(boxes))
        if bad.any():
            at = int(bad.argmax())
            raise ValueError(
                f"{gt.image_id}: dilate by magnitude {m} overflows the area of box "
                f"{tuple(columns.boxes[targets[at]].tolist())}"
            )
    elif spec.mode is PerturbationMode.SHRINK:
        # a float 2m below a rounded side is at most the exact side, so each result stays ordered
        bad = 2 * m >= np.minimum(boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1])
        if bad.any():
            raise ValueError(
                f"{gt.image_id}: shrink by {m} degenerates box {tuple(boxes[bad.argmax()].tolist())}"
            )
        boxes = boxes - np.array([-m, -m, m, m])
    elif spec.mode is PerturbationMode.SNAP_TO_MINIMAL:
        contents = [columns.side.get(i, (None, {}))[0] for i in targets.tolist()]
        if None in contents:
            at = targets[contents.index(None)]
            raise ValueError(
                f"{gt.image_id}: {ComponentClass(columns.classes[at].item()).name} at "
                f"{tuple(columns.boxes[at].tolist())} carries no content extent"
            )
        boxes = np.array(contents, dtype=np.float64).reshape(-1, 4)
    else:
        raise AssertionError(spec.mode)

    source = np.concatenate([untouched, targets])
    side = {}
    extras = [(i, extra) for i, (_, extra) in columns.side.items() if extra]
    if extras:
        position = np.full(len(columns), -1)
        position[source] = np.arange(len(source))
        at = position.tolist()
        side = dict(sorted((at[i], (None, extra)) for i, extra in extras if at[i] >= 0))
    out = Instances(
        np.concatenate([columns.boxes[untouched], boxes]),
        columns.classes[source],
        np.ones(len(source)),
        side,
    )
    return AnnotationSet(gt.image_id, out, LabelMode.MULTI)


def _reconstructed_tree(ann: AnnotationSet) -> TableTree | None:
    """The tree of the reconstruction's HTML, or None, scoring 0, where the grammar
    rejects it: only a merge beyond the WHATWG span limits (1000 columns, 65534 rows)."""
    html = grid_to_html(build_grid(ann))
    try:
        return parse_table_html(html)
    except HtmlParseError:
        return None


@dataclass(frozen=True)
class MisalignmentRow:
    label: str
    mean_ap: float
    teds_overall: float


@dataclass(frozen=True)
class MisalignmentReport:
    rows: tuple[MisalignmentRow, ...]

    def format_lines(self) -> list[str]:
        header = f"{'perturbation':<30} {'mAP':>8} {'TEDS':>8}"
        lines = [header]
        for row in self.rows:
            lines.append(f"{row.label:<30} {row.mean_ap:>8.4f} {row.teds_overall:>8.4f}")
        return lines


def misalignment_report(
    gt_sets: list[AnnotationSet],
    gt_trees: dict[str, TableTree],
    specs: list[PerturbationSpec],
) -> MisalignmentReport:
    """Evaluate each perturbation with both metrics, in the order given.

    ``gt_trees`` maps image ids to ground-truth structure trees; every
    image needs one because structure similarity is half of the comparison.
    """
    missing = [ann.image_id for ann in gt_sets if ann.image_id not in gt_trees]
    if missing:
        raise CorpusError(f"images without ground-truth html: {missing[:5]}")

    gts_by_image = {ann.image_id: ann.instances for ann in gt_sets}
    rows = []
    for spec in specs:
        perturbed = [perturb(ann, spec) for ann in gt_sets]
        preds_by_image = {ann.image_id: ann.instances for ann in perturbed}
        ap: ApReport = evaluate_corpus(preds_by_image, gts_by_image)
        teds_report = corpus_teds((_reconstructed_tree(ann), gt_trees[ann.image_id]) for ann in perturbed)
        rows.append(
            MisalignmentRow(
                label=spec.describe(),
                mean_ap=ap.mean_ap if ap.mean_ap is not None else 0.0,
                teds_overall=teds_report.overall_mean if teds_report.overall_mean is not None else 0.0,
            )
        )
    return MisalignmentReport(tuple(rows))
