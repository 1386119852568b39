"""Rule-based post-processing: detected components to a logical grid to HTML.

The lattice comes from Row and Column boxes (rows sorted by top edge, columns
by left edge). Spanning Cells absorb grid cells they overlap sufficiently and
the absorbed set is rectangularized. Column Header boxes mark header rows by
row-center containment; a Projected Row Header collapses its matching row
into one full-width cell. The grid becomes the structure tree TEDS scores;
its HTML is structure-only: lowercase tags, double-quoted span attributes,
no whitespace, no text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyStructureError, LabelModeError
from .geometry import BBox, intersection_area, iou
from .labels import (
    BOX_MATCH_TOLERANCE,
    AnnotationSet,
    ComponentClass,
    ComponentInstance,
    LabelMode,
    boxes_match,
)
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

    @property
    def rows(self) -> range:
        return range(self.row_start, self.row_start + self.row_span)

    @property
    def cols(self) -> range:
        return range(self.col_start, self.col_start + self.col_span)


@dataclass(frozen=True)
class TableGrid:
    """Logical r x c lattice with merges, header rows, and projected rows."""

    n_rows: int
    n_cols: int
    merges: tuple[MergedCell, ...] = ()
    header_rows: frozenset[int] = frozenset()
    projected_rows: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "merges", tuple(self.merges))
        object.__setattr__(self, "header_rows", frozenset(self.header_rows))
        object.__setattr__(self, "projected_rows", frozenset(self.projected_rows))
        self._validate()

    def _validate(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("grid needs at least one row and one column")
        for r in self.header_rows | self.projected_rows:
            if not 0 <= r < self.n_rows:
                raise ValueError(f"row index {r} outside grid")
        owner = [[None] * self.n_cols for _ in range(self.n_rows)]
        for r in self.projected_rows:
            for c in range(self.n_cols):
                owner[r][c] = ("projected", r)
        for m in self.merges:
            if m.row_start + m.row_span > self.n_rows or m.col_start + m.col_span > self.n_cols:
                raise ValueError(f"merge {m} exceeds grid bounds")
            header_overlap = [r in self.header_rows for r in m.rows]
            if any(header_overlap) and not all(header_overlap):
                raise ValueError(f"merge {m} crosses the header/body boundary")
            for r in m.rows:
                for c in m.cols:
                    if owner[r][c] is not None:
                        raise ValueError(f"cell ({r},{c}) claimed twice")
                    owner[r][c] = ("merge", m)

    def cell_matrix(self) -> list[list[tuple[int, int]]]:
        """Anchor (row, col) of the logical cell owning each grid position."""
        anchors = [[(r, c) for c in range(self.n_cols)] for r in range(self.n_rows)]
        for r in self.projected_rows:
            anchors[r] = [(r, 0)] * self.n_cols
        for m in self.merges:
            for r in m.rows:
                for c in m.cols:
                    anchors[r][c] = (m.row_start, m.col_start)
        return anchors


# A detection scored below this is dropped; ground truth carries no score.
SCORE_THRESHOLD = 0.5
# Greedy NMS suppresses a same-class detection at this IoU with a kept one.
NMS_IOU = 0.5
# A Spanning Cell absorbs a grid cell when it covers this fraction of it.
SPAN_OVERLAP_THRESHOLD = 0.5


def _canonical_order(instances: Iterable[ComponentInstance]) -> list[ComponentInstance]:
    return sorted(
        instances,
        key=lambda inst: (
            int(inst.cls),
            -(inst.score if inst.score is not None else 1.0),
            inst.box.as_tuple(),
        ),
    )


def _greedy_nms(instances: list[ComponentInstance]) -> list[ComponentInstance]:
    kept: list[ComponentInstance] = []
    for inst in instances:
        if all(iou(inst.box, k.box) < NMS_IOU for k in kept):
            kept.append(inst)
    return kept


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

    survivors = _canonical_order(
        inst for inst in detections.instances if inst.score is None or inst.score >= SCORE_THRESHOLD
    )
    by_class: dict[ComponentClass, list[ComponentInstance]] = {}
    for cls in ComponentClass:
        by_class[cls] = _greedy_nms([i for i in survivors if i.cls == cls])

    table_box = by_class[ComponentClass.TABLE][0].box if by_class[ComponentClass.TABLE] else None

    def clipped(instances):
        if table_box is None:
            return [i.box for i in instances]
        boxes = []
        for inst in instances:
            inter = inst.box.intersect(table_box)
            if inter is not None and inter.area > 0.0:
                boxes.append(inter)
        return boxes

    row_boxes = sorted(clipped(by_class[ComponentClass.ROW]), key=lambda b: (b.y1, b.x1))
    col_boxes = sorted(clipped(by_class[ComponentClass.COLUMN]), key=lambda b: (b.x1, b.y1))
    if not row_boxes or not col_boxes:
        raise EmptyStructureError(
            f"{detections.image_id}: {len(row_boxes)} rows and {len(col_boxes)} columns "
            "survive thresholding"
        )
    n_rows, n_cols = len(row_boxes), len(col_boxes)

    projected_rows: set[int] = set()
    for prh in by_class[ComponentClass.PROJECTED_ROW_HEADER]:
        for r, row in enumerate(row_boxes):
            if boxes_match(row, prh.box, BOX_MATCH_TOLERANCE):
                projected_rows.add(r)

    header_rows: set[int] = set()
    for r, row in enumerate(row_boxes):
        cx, cy = row.center
        if any(h.box.contains_point(cx, cy) for h in by_class[ComponentClass.COLUMN_HEADER]):
            header_rows.add(r)

    def cell_box(r: int, c: int) -> BBox | None:
        return row_boxes[r].intersect(col_boxes[c])

    merges: list[MergedCell] = []
    taken = [[r in projected_rows for _ in range(n_cols)] for r in range(n_rows)]
    for span in by_class[ComponentClass.SPANNING_CELL]:
        covered = []
        for r in range(n_rows):
            for c in range(n_cols):
                cell = cell_box(r, c)
                if cell is None or cell.area <= 0.0:
                    continue
                if intersection_area(span.box, cell) / cell.area >= SPAN_OVERLAP_THRESHOLD:
                    covered.append((r, c))
        if not covered:
            continue
        r0 = min(r for r, _ in covered)
        r1 = max(r for r, _ in covered)
        c0 = min(c for _, c in covered)
        c1 = max(c for _, c in covered)
        if r0 == r1 and c0 == c1:
            continue
        in_header = [r in header_rows for r in range(r0, r1 + 1)]
        if any(in_header) and not all(in_header):
            continue
        if any(taken[r][c] for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)):
            continue
        for r in range(r0, r1 + 1):
            for c in range(c0, c1 + 1):
                taken[r][c] = True
        merges.append(MergedCell(r0, c0, r1 - r0 + 1, c1 - c0 + 1))

    return TableGrid(
        n_rows=n_rows,
        n_cols=n_cols,
        merges=tuple(merges),
        header_rows=frozenset(header_rows),
        projected_rows=frozenset(projected_rows),
    )


def grid_to_tree(grid: TableGrid) -> TableTree:
    """Structure tree: thead holds exactly the header rows, tbody the rest."""
    matrix = grid.cell_matrix()
    spans = {(m.row_start, m.col_start): (m.col_span, m.row_span) for m in grid.merges}
    thead, tbody = TableTree("thead"), TableTree("tbody")
    for r in range(grid.n_rows):
        tr = TableTree("tr")
        if r in grid.projected_rows:
            tr.children.append(TableTree("td", colspan=grid.n_cols))
        else:
            for c in range(grid.n_cols):
                if matrix[r][c] == (r, c):
                    colspan, rowspan = spans.get((r, c), (1, 1))
                    tr.children.append(TableTree("td", colspan=colspan, rowspan=rowspan))
        (thead if r in grid.header_rows else tbody).children.append(tr)
    return TableTree("table", children=[thead, tbody] if thead.children else [tbody])


def grid_to_html(grid: TableGrid) -> str:
    """Structure-only HTML of ``grid_to_tree(grid)``."""
    return grid_to_tree(grid).to_html()
