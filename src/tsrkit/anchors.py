"""Dataset shape statistics and sliding-anchor generation/coverage analysis.

Table components are extreme in aspect ratio compared with common objects
(rows and columns routinely exceed height/width ratios of 10), so the anchor
ratio list matters. Ratios below 1 fold onto their multiplicative inverse for
histogramming. Coverage quantifies how well a ratio list serves a corpus:
the fraction of ground-truth boxes whose best anchor IoU clears 0.5 / 0.7.

Anchors sit on one fixed feature pyramid (``STRIDES``, side ``8 * stride``
at ratio 1) sized from the image extent; the ratio list is the one input.
Coverage never scans every anchor. Within one pyramid level and one ratio
all anchors have the same size and differ only by their centre. For a fixed
box, the overlap along x is a non-increasing function of |dx|, the distance
between the two centres along x, and likewise along y; the intersection is
their product and IoU increases with the intersection. So the best anchor of
that (level, ratio) sits on the grid column nearest the box centre,
``clip(floor(cx / stride), 0, columns - 1)``, and on the nearest row. Each
box therefore has levels x ratios candidates, and the best over them is the
best over every anchor: O(G * L * R) instead of O(G * N). The candidates are
read from the generated anchor array and scored with ``geometry.iou_array``,
so each candidate's IoU is the one a full scan computes for that anchor. The
two maxima differ only where another anchor of the same (level, ratio) ties
the nearest one, as when several anchors contain the box: rounding in the
anchor coordinates can then move a full scan's maximum by a few units in the
last place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import iou_array
from .labels import AnnotationSet, Instances

# Height/width ratios used by the extreme-aspect table-component anchor setup.
TABLE_ASPECT_RATIOS = (
    0.0125, 0.025, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16, 40, 80,
)
# Common-object default shipped by the popular detection frameworks.
DEFAULT_ASPECT_RATIOS = (0.5, 1.0, 2.0)

HISTOGRAM_TOP_BUCKET = 140


@dataclass(frozen=True)
class DatasetStats:
    n_images: int
    n_objects: int
    avg_objects_per_image: float | None  # None without images
    folded_aspect_ratio_histogram: dict[int, int] = field(default_factory=dict)

    def format_lines(self) -> list[str]:
        """The report lines, n/a for the average over no images."""
        average = self.avg_objects_per_image
        return [
            f"images = {self.n_images}",
            f"objects = {self.n_objects}",
            f"objects/image = {'n/a' if average is None else format(average, '.2f')}",
        ]


def fold_ratio(r: float) -> float:
    """Map a ratio onto [1, inf): values below 1 count as their inverse."""
    if r <= 0.0:
        raise ValueError(f"ratio must be positive, got {r}")
    return max(r, 1.0 / r)


def dataset_stats(annotations: list[AnnotationSet]) -> DatasetStats:
    """Counts, objects per image, and the folded aspect-ratio histogram.

    Boxes with zero width or height have no ratio and are skipped by the
    histogram only. With no images there is no average: it is None.
    """
    n_images = len(annotations)
    n_objects = 0
    histogram: dict[int, int] = {}
    for ann in annotations:
        n_objects += len(ann.instances)
        for x1, y1, x2, y2 in Instances.pack(ann.instances).boxes.tolist():
            width, height = x2 - x1, y2 - y1
            if width <= 0.0 or height <= 0.0:
                continue
            ratio = height / width
            # an extreme box's ratio overflows to inf, which int() cannot take,
            # or underflows to 0, which fold_ratio rejects; both fold to inf
            folded = fold_ratio(ratio) if ratio > 0.0 else math.inf
            bucket = int(min(folded, HISTOGRAM_TOP_BUCKET))
            histogram[bucket] = histogram.get(bucket, 0) + 1
    return DatasetStats(
        n_images=n_images,
        n_objects=n_objects,
        avg_objects_per_image=n_objects / n_images if n_images else None,
        folded_aspect_ratio_histogram=dict(sorted(histogram.items())),
    )


# The feature pyramid: anchor centres lie every ``stride`` px on each level,
# and the anchor side at ratio 1 is ``8 * stride``.
STRIDES = (4, 8, 16, 32, 64)


def _check_ratios(ratios) -> None:
    if len(ratios) == 0:
        raise ValueError("aspect_ratios: need at least one value")
    if not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ValueError(f"aspect_ratios: values must be finite and positive, got {list(ratios)}")
    for a, b in zip(ratios, ratios[1:]):
        if b == a:
            raise ValueError(f"aspect_ratios: {a!r} is given more than once")
        if b < a:
            raise ValueError("aspect_ratios: must be strictly ascending")


def _levels(width: float, height: float) -> list[tuple[int, int, int]]:
    """Per pyramid level, the stride and the rows and columns of anchor centres over the image."""
    if not (0.0 < width < math.inf and 0.0 < height < math.inf):
        raise ValueError(f"width, height: must be finite and positive, got {(width, height)}")
    return [(s, max(1, int(height // s)), max(1, int(width // s))) for s in STRIDES]


def generate_anchors(ratios, width: float, height: float) -> np.ndarray:
    """All anchors of the pyramid over a ``width`` x ``height`` image.

    Ratios are height/width, strictly ascending. Anchor at grid position
    (i, j) of a level with stride s is centered at ((j + 0.5) s, (i + 0.5) s);
    a ratio rho gives width 8 s / sqrt(rho) and height 8 s * sqrt(rho).
    Returns an (N, 4) float array of (x1, y1, x2, y2) rows, ordered by level,
    row, column, then ratio. The array is allocated once, and each level is
    written through a (rows, columns, ratios, 4) view of it: the x pair from
    the columns' centres, the y pair from the rows', so nothing of the
    array's size is allocated twice. ``x - w`` is computed as ``x + (-w)``,
    which IEEE 754 rounds to the same number.
    """
    _check_ratios(ratios)
    ratio_arr = np.asarray(ratios, dtype=np.float64)
    signs = np.array([-1.0, 1.0])
    half_w = (0.5 / np.sqrt(ratio_arr))[:, None] * signs  # (-, +) per ratio
    half_h = (0.5 * np.sqrt(ratio_arr))[:, None] * signs
    levels = _levels(width, height)
    n_ratios = len(ratios)
    out = np.empty((sum(rows * cols for _, rows, cols in levels) * n_ratios, 4))
    start = 0
    for stride, rows, cols in levels:
        end = start + rows * cols * n_ratios
        level = out[start:end].reshape(rows, cols, n_ratios, 4)
        xs = ((np.arange(cols) + 0.5) * stride)[:, None, None]
        ys = ((np.arange(rows) + 0.5) * stride)[:, None, None, None]
        level[..., 0::2] = xs + 8.0 * stride * half_w
        level[..., 1::2] = ys + 8.0 * stride * half_h
        start = end
    return out


@dataclass(frozen=True)
class CoverageReport:
    frac_iou50: float
    frac_iou70: float
    mean_best_iou: float

    def format_lines(self) -> list[str]:
        return [
            f"fraction best IoU >= 0.5 = {self.frac_iou50:.4f}",
            f"fraction best IoU >= 0.7 = {self.frac_iou70:.4f}",
            f"mean best IoU = {self.mean_best_iou:.4f}",
        ]


def _as_array(boxes) -> np.ndarray:
    arr = np.asarray(boxes, dtype=np.float64)  # a BBox is a 4-tuple
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected (N, 4) boxes, got shape {arr.shape}")
    return arr


def best_iou_per_gt(anchors, gts, ratios, width: float, height: float) -> np.ndarray:
    """Maximum IoU over all anchors, per ground-truth box.

    ``anchors`` is the array ``generate_anchors(ratios, width, height)``
    returns; only each box's nearest anchor per (level, ratio) is scored
    (see the module docstring).
    """
    anchor_arr = _as_array(anchors)
    gt_arr = _as_array(gts)
    if not np.isfinite(gt_arr).all():
        raise ValueError("gts: box coordinates must be finite")
    if (gt_arr[:, 2] < gt_arr[:, 0]).any() or (gt_arr[:, 3] < gt_arr[:, 1]).any():
        raise ValueError("gts: boxes need x2 >= x1 and y2 >= y1")
    _check_ratios(ratios)
    n_ratios = len(ratios)
    cx = 0.5 * (gt_arr[:, 0] + gt_arr[:, 2])
    cy = 0.5 * (gt_arr[:, 1] + gt_arr[:, 3])
    first = []  # per level: index of each box's nearest anchor at the first ratio
    offset = 0
    for stride, rows, cols in _levels(width, height):
        col = np.clip(np.floor(cx / stride), 0, cols - 1).astype(np.intp)
        row = np.clip(np.floor(cy / stride), 0, rows - 1).astype(np.intp)
        first.append(offset + (row * cols + col) * n_ratios)
        offset += rows * cols * n_ratios
    if anchor_arr.shape[0] != offset:
        raise ValueError(
            f"anchors: the grid has {offset} anchors, got {anchor_arr.shape[0]}"
        )
    cand = anchor_arr[np.stack(first, axis=1)[:, :, None] + np.arange(n_ratios)]  # (G, L, R, 4)
    return iou_array(cand, gt_arr[:, None, None, :]).max(axis=(1, 2))


def anchor_coverage(anchors, gts, ratios, width: float, height: float) -> CoverageReport:
    """Coverage statistics of a ground-truth corpus under the anchors of
    ``generate_anchors(ratios, width, height)``."""
    best = best_iou_per_gt(anchors, gts, ratios, width, height)
    if best.size == 0:
        raise ValueError("empty ground-truth list")
    return CoverageReport(
        frac_iou50=float((best >= 0.5).mean()),
        frac_iou70=float((best >= 0.7).mean()),
        mean_best_iou=float(best.mean()),
    )
