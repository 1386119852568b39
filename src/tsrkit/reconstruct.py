"""Rule-based post-processing: detected components to a logical grid to HTML.

The lattice comes from Row and Column boxes (rows sorted by top edge, columns
by left edge). Column Header boxes mark the header rows: counted from the
top, while each row's center lies in one, so a marked row below a body row
stays in the body. A Projected Row Header collapses its matching row into a
merge over the whole row, placed before any Spanning Cell. A Spanning Cell
covers the rectangle around the grid cells it overlaps sufficiently. One
placement rule, ``_claim``, decides where a merge may go: inside the grid, on
one side of the header/body boundary, and on cells no earlier merge owns.
``TableGrid`` rejects a merge that breaks it; ``build_grid`` skips that span,
and a span covering a single cell. The grid becomes the structure tree TEDS
scores; its HTML is structure-only: lowercase tags, double-quoted span
attributes, no whitespace, no text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyStructureError, LabelModeError
from .geometry import BBox, intersection_area, iou, unchecked_bbox
from .labels import AnnotationSet, ComponentClass, Instances, LabelMode, boxes_match
from .teds.tree import TableTree


@dataclass(frozen=True)
class MergedCell:
    row_start: int
    col_start: int
    row_span: int
    col_span: int

    def __post_init__(self):
        if self.row_span < 1 or self.col_span < 1:
            raise ValueError(f"merge spans must be >= 1: {self}")


def _claim(owner: list[list[tuple[int, int] | None]], merge: MergedCell, header_rows: int) -> str | None:
    """Claim ``merge``'s cells in ``owner`` (anchors, None where free), or claim none and say why not."""
    r0, c0 = merge.row_start, merge.col_start
    r1, c1 = r0 + merge.row_span, c0 + merge.col_span
    if r0 < 0 or c0 < 0 or r1 > len(owner) or c1 > len(owner[0]):
        return f"merge {merge} exceeds grid bounds"
    if r0 < header_rows < r1:
        return f"merge {merge} crosses the header/body boundary"
    for r in range(r0, r1):
        for c in range(c0, c1):
            if owner[r][c] is not None:
                return f"cell ({r},{c}) claimed twice"
    for r in range(r0, r1):
        owner[r][c0:c1] = [(r0, c0)] * (c1 - c0)
    return None


@dataclass(frozen=True)
class TableGrid:
    """Logical r x c lattice with merges and a count of leading header rows.

    The first ``header_rows`` rows go in thead, the rest in tbody. A projected
    row is a merge over its whole row. ``merges`` are validated in the order
    given and kept in reading order, by anchor, so the order they are given
    in does not tell grids apart. ``grid_to_tree`` names the grids that
    differ but share a tree.
    """

    n_rows: int
    n_cols: int
    merges: tuple[MergedCell, ...] = ()
    header_rows: int = 0
    _anchors: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "merges", tuple(self.merges))
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("grid needs at least one row and one column")
        if not 0 <= self.header_rows <= self.n_rows:
            raise ValueError(f"header row count {self.header_rows} outside 0..{self.n_rows}")
        owner = [[None] * self.n_cols for _ in range(self.n_rows)]
        for m in self.merges:
            reason = _claim(owner, m, self.header_rows)
            if reason is not None:
                raise ValueError(reason)
        object.__setattr__(self, "merges", tuple(sorted(self.merges, key=lambda m: (m.row_start, m.col_start))))
        anchors = tuple(tuple(a or (r, c) for c, a in enumerate(row)) for r, row in enumerate(owner))
        object.__setattr__(self, "_anchors", anchors)

    def cell_matrix(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Anchor (row, col) of the logical cell owning each grid position."""
        return self._anchors


# A detection scored below this is dropped; ground truth carries no score.
SCORE_THRESHOLD = 0.5
# Greedy NMS suppresses a same-class detection at this IoU with a kept one.
NMS_IOU = 0.5
# A Spanning Cell absorbs a grid cell when it covers this fraction of it.
SPAN_OVERLAP_THRESHOLD = 0.5


def _ranked(instances) -> list[tuple[int, float, BBox]]:
    """(class, -score, box) of each detection at or above the score threshold, sorted.

    A detection without a score survives and ranks as 1.0. The scores are
    masked before any box is built.
    """
    packed = Instances.pack(instances)
    keep = np.flatnonzero(~(packed.scores < SCORE_THRESHOLD))  # keeps NaN
    scores = packed.scores[keep]
    return sorted(
        zip(
            packed.classes[keep].tolist(),
            np.where(np.isnan(scores), -1.0, -scores).tolist(),
            map(unchecked_bbox, packed.boxes[keep].tolist()),
        )
    )


def build_grid(detections: AnnotationSet) -> TableGrid:
    """Assemble the logical grid from multi-label component detections.

    Pipeline: the score threshold, class-wise greedy NMS, clipping of
    rows/columns to the Table box when one survives, then lattice assembly.
    """
    if detections.mode is not LabelMode.MULTI:
        raise LabelModeError(
            f"{detections.image_id}: build_grid expects multi-label detections "
            "(apply decode_pseudo first)"
        )

    ranked = _ranked(detections.instances)
    # per class, the boxes greedy NMS keeps, best first
    kept: list[list[BBox]] = [[] for _ in ComponentClass]
    for cls, _, box in ranked:
        boxes = kept[cls]
        if all(iou(box, k) < NMS_IOU for k in boxes):
            boxes.append(box)

    tables = kept[ComponentClass.TABLE]

    def clipped(boxes: list[BBox]) -> list[BBox]:
        if not tables:
            return boxes
        inside = (box.intersect(tables[0]) for box in boxes)
        return [box for box in inside if box is not None and box.area > 0.0]

    row_boxes = sorted(clipped(kept[ComponentClass.ROW]), key=lambda b: (b.y1, b.x1))
    col_boxes = sorted(clipped(kept[ComponentClass.COLUMN]), key=lambda b: (b.x1, b.y1))
    if not row_boxes or not col_boxes:
        raise EmptyStructureError(
            f"{len(row_boxes)} rows and {len(col_boxes)} columns survive thresholding"
        )
    n_rows, n_cols = len(row_boxes), len(col_boxes)

    projected, headers = kept[ComponentClass.PROJECTED_ROW_HEADER], kept[ComponentClass.COLUMN_HEADER]
    # rows from the top while each center lies in a Column Header: a marked row below the body stays there
    marked = (any(h.contains_point(*row.center) for h in headers) for row in row_boxes)
    header_rows = next((r for r, is_header in enumerate(marked) if not is_header), n_rows)

    # a projected row is a merge over its whole row, claimed before any span
    merges = [
        MergedCell(r, 0, 1, n_cols)
        for r, row in enumerate(row_boxes)
        if any(boxes_match(row, p) for p in projected)
    ]
    owner = [[None] * n_cols for _ in range(n_rows)]
    for merge in merges:
        _claim(owner, merge, header_rows)
    cells = None  # (row, col, box, area) of each grid cell with positive area, built at the first span
    for span in kept[ComponentClass.SPANNING_CELL]:
        if cells is None:
            cells = [
                (r, c, cell, cell.area)
                for r, row in enumerate(row_boxes)
                for c, col in enumerate(col_boxes)
                if (cell := row.intersect(col)) is not None and cell.area > 0.0
            ]
        covered = [
            (r, c)
            for r, c, cell, area in cells
            if intersection_area(span, cell) / area >= SPAN_OVERLAP_THRESHOLD
        ]
        if not covered:
            continue
        r0, r1 = covered[0][0], covered[-1][0]
        c0, c1 = min(c for _, c in covered), max(c for _, c in covered)
        merge = MergedCell(r0, c0, r1 - r0 + 1, c1 - c0 + 1)
        # a span inside one grid cell merges nothing; one the placement rule rejects is dropped
        if (r0, c0) != (r1, c1) and _claim(owner, merge, header_rows) is None:
            merges.append(merge)

    return TableGrid(n_rows, n_cols, tuple(merges), header_rows)


def grid_to_tree(grid: TableGrid) -> TableTree:
    """Structure tree: thead holds the leading ``header_rows`` rows, tbody the rest.

    A projected row is a merge over its whole row, so it is one full-width
    cell. Distinct grids give distinct trees, with one exception: a one-cell
    merge equals no merge.
    """
    spans = {(m.row_start, m.col_start): (m.col_span, m.row_span) for m in grid.merges}
    thead, tbody = TableTree("thead"), TableTree("tbody")
    for r, anchors in enumerate(grid.cell_matrix()):
        tr = TableTree("tr")
        for c, anchor in enumerate(anchors):
            if anchor == (r, c):
                colspan, rowspan = spans.get(anchor, (1, 1))
                tr.children.append(TableTree("td", colspan=colspan, rowspan=rowspan))
        (thead if r < grid.header_rows else tbody).children.append(tr)
    return TableTree("table", children=[thead, tbody] if thead.children else [tbody])


def grid_to_html(grid: TableGrid) -> str:
    """Structure-only HTML of ``grid_to_tree(grid)``."""
    return grid_to_tree(grid).to_html()
