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

from .cocoeval import ApReport, evaluate_corpus
from .errors import CorpusError, HtmlParseError
from .labels import (
    MULTI_LABEL_CLASSES,
    AnnotationSet,
    ComponentClass,
    ComponentInstance,
    LabelMode,
)
from .reconstruct import build_grid, grid_to_html
from .teds import TableTree, corpus_teds, parse_table_html


class PerturbationMode(enum.Enum):
    DILATE = "dilate"
    SHRINK = "shrink"
    SNAP_TO_MINIMAL = "snap"
    MERGE_ADJACENT = "merge"


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
        parts = [self.mode.value]
        if self.mode in (PerturbationMode.DILATE, PerturbationMode.SHRINK):
            parts.append(f"{self.magnitude:g}")
        if self.target_classes != ALL_CLASSES:
            parts.append("+".join(sorted(c.name.lower() for c in self.target_classes)))
        return ":".join(parts)


def perturb(gt: AnnotationSet, spec: PerturbationSpec) -> AnnotationSet:
    """Turn ground truth into a synthetic prediction set (confidences 1.0).

    dilate grows target boxes by ``magnitude`` px per side (past the padded
    ground truth); shrink cuts inward by the same amount, into the content
    extent once the padding is exceeded; snap replaces boxes by their content
    extents; merge unions the vertically closest adjacent pair of target
    boxes into one instance.
    """
    targeted, untouched = [], []
    for inst in gt.instances:
        (targeted if inst.cls in spec.target_classes else untouched).append(inst)

    if spec.mode is PerturbationMode.MERGE_ADJACENT:
        out = untouched + _merge_closest_pair(targeted)
    else:
        out = untouched + [_transform(inst, spec) for inst in targeted]

    out = [inst.replace(score=1.0, content_box=None) for inst in out]
    return AnnotationSet(gt.image_id, tuple(out), LabelMode.MULTI)


def _transform(inst: ComponentInstance, spec: PerturbationSpec) -> ComponentInstance:
    if spec.mode is PerturbationMode.DILATE:
        box = inst.box.inflate(spec.magnitude)
        # Twice the area bounded keeps the IoU union of any two such boxes finite.
        if not math.isfinite(2.0 * box.area):
            raise ValueError(
                f"dilate by magnitude {spec.magnitude} overflows the area of box "
                f"{inst.box.as_tuple()}"
            )
        return inst.replace(box=box)
    if spec.mode is PerturbationMode.SHRINK:
        if 2 * spec.magnitude >= min(inst.box.width, inst.box.height):
            raise ValueError(
                f"shrink by {spec.magnitude} degenerates box {inst.box.as_tuple()}"
            )
        return inst.replace(box=inst.box.inflate(-spec.magnitude))
    if spec.mode is PerturbationMode.SNAP_TO_MINIMAL:
        if inst.content_box is None:
            raise ValueError(
                f"{inst.cls.name} at {inst.box.as_tuple()} carries no content extent"
            )
        return inst.replace(box=inst.content_box)
    raise AssertionError(spec.mode)


def _merge_closest_pair(instances: list[ComponentInstance]) -> list[ComponentInstance]:
    """Union the two vertically closest boxes (by top edge order) into one."""
    if len(instances) < 2:
        return list(instances)
    ordered = sorted(instances, key=lambda i: (i.box.y1, i.box.x1))
    gaps = [
        (ordered[i + 1].box.y1 - ordered[i].box.y2, i)
        for i in range(len(ordered) - 1)
    ]
    _, at = min(gaps)
    merged = ordered[at].replace(box=ordered[at].box.union_box(ordered[at + 1].box))
    return ordered[:at] + [merged] + ordered[at + 2 :]


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
    # AP reads the ground truth as it is; each spec perturbs instances built once here
    built = [AnnotationSet(ann.image_id, tuple(ann.instances), ann.mode) for ann in gt_sets]
    rows = []
    for spec in specs:
        perturbed = [perturb(ann, spec) for ann in built]
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
