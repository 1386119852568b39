"""Deterministic synthetic table corpora.

Each generated table carries three mutually consistent views: the component
annotations (padded boxes, the way real corpora annotate along ruling
lines), the content extents (minimum boxes recovering the structure), and
the ground-truth HTML. That HTML is the layout's own ``TableTree``
(``TableLayout.to_tree``), written by ``TableTree.to_html``; it is built
from the logical layout, independent of ``reconstruct``. Predictions default
to perfect copies with score 1.0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .formats import CorpusFile, ImageRecord
from .geometry import BBox
from .labels import ComponentClass, ComponentInstance, LabelMode
from .teds import TableTree

# component annotation padding; kept small against the minimum cell extents
# (rows >= 9 px, columns >= 18 px) so padded boxes never absorb a grid
# neighbour at the 0.5 overlap threshold
_PAD_RANGE = (2.0, 3.0)
_TABLE_PAD_RANGE = (8.0, 20.0)
_ROW_HEIGHT_RANGE = (10.0, 44.0)
_COL_WIDTH_RANGE = (20.0, 140.0)
# roughly a third of tables render at footnote scale, which is what puts
# components into the small-object bucket
_COMPACT_SHARE = 0.3
_COMPACT_ROW_HEIGHT_RANGE = (9.0, 14.0)
_COMPACT_COL_WIDTH_RANGE = (18.0, 36.0)


@dataclass(frozen=True)
class FixtureSpec:
    n_tables: int = 20
    seed: int = 0
    min_rows: int = 2
    max_rows: int = 7
    min_cols: int = 2
    max_cols: int = 6
    span_probability: float = 0.5
    header_probability: float = 0.6

    def __post_init__(self):
        if self.n_tables < 1:
            raise ValueError("need at least one table")
        if not (2 <= self.min_rows <= self.max_rows):
            raise ValueError("row counts must satisfy 2 <= min <= max")
        if not (2 <= self.min_cols <= self.max_cols):
            raise ValueError("column counts must satisfy 2 <= min <= max")
        for name in ("span_probability", "header_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # a NaN fails too
                raise ValueError(f"{name}: must lie in [0, 1], got {getattr(self, name)!r}")


@dataclass(frozen=True)
class TableLayout:
    """Logical structure plus content geometry of one synthetic table."""

    n_rows: int
    n_cols: int
    row_edges: tuple[float, ...]  # n_rows + 1 ascending y coordinates
    col_edges: tuple[float, ...]  # n_cols + 1 ascending x coordinates
    header_rows: int  # header block height in rows (topmost)
    projected_row: int | None
    spans: tuple[tuple[int, int, int, int], ...]  # (row, col, row_span, col_span)
    padding: float
    table_padding: float

    def content_box(self, r0: int, c0: int, r1: int, c1: int) -> BBox:
        """Content extent of rows ``r0`` to ``r1`` and columns ``c0`` to ``c1``, ends excluded."""
        return BBox(self.col_edges[c0], self.row_edges[r0], self.col_edges[c1], self.row_edges[r1])

    def to_tree(self) -> TableTree:
        """The ground-truth structure tree, built from the layout's own fields."""
        anchors = {(r, c): (rs, cs) for r, c, rs, cs in self.spans}
        covered = {
            (rr, cc)
            for r, c, rs, cs in self.spans
            for rr in range(r, r + rs)
            for cc in range(c, c + cs)
        }.difference(anchors)
        rows = []
        for r in range(self.n_rows):
            if r == self.projected_row:
                cells = [TableTree("td", self.n_cols, 1, [])]
            else:
                cells = []
                for c in range(self.n_cols):
                    if (r, c) not in covered:
                        rs, cs = anchors.get((r, c), (1, 1))
                        cells.append(TableTree("td", cs, rs, []))
            rows.append(TableTree("tr", 1, 1, cells))
        thead = TableTree("thead", 1, 1, rows[: self.header_rows])
        tbody = TableTree("tbody", 1, 1, rows[self.header_rows :])
        return TableTree("table", 1, 1, [thead, tbody] if thead.children else [tbody])


def _valid_span(layout_rows, layout_cols, header_rows, projected_row, taken, rng):
    """Pick one placeable span, or None; never full-width, never a whole column."""
    for _ in range(12):
        rs = rng.choice((1, 2))
        if rs > layout_rows:
            continue
        max_cs = min(3, layout_cols - 1)
        cs = rng.randint(1, max_cs)
        if rs * cs < 2:
            continue
        if cs == 1 and rs == layout_rows:
            continue
        r0 = rng.randrange(layout_rows - rs + 1)
        c0 = rng.randrange(layout_cols - cs + 1)
        rows = range(r0, r0 + rs)
        in_header = [r < header_rows for r in rows]
        if any(in_header) != all(in_header):
            continue
        if projected_row is not None and projected_row in rows:
            continue
        cells = {(r, c) for r in rows for c in range(c0, c0 + cs)}
        if cells & taken:
            continue
        return (r0, c0, rs, cs)
    return None


def generate_layout(rng: random.Random, spec: FixtureSpec) -> TableLayout:
    n_rows = rng.randint(spec.min_rows, spec.max_rows)
    n_cols = rng.randint(spec.min_cols, spec.max_cols)
    compact = rng.random() < _COMPACT_SHARE
    col_range = _COMPACT_COL_WIDTH_RANGE if compact else _COL_WIDTH_RANGE
    row_range = _COMPACT_ROW_HEIGHT_RANGE if compact else _ROW_HEIGHT_RANGE
    x0 = rng.uniform(25.0, 60.0)
    y0 = rng.uniform(25.0, 60.0)
    col_edges = [x0]
    for _ in range(n_cols):
        col_edges.append(col_edges[-1] + rng.uniform(*col_range))
    row_edges = [y0]
    for _ in range(n_rows):
        row_edges.append(row_edges[-1] + rng.uniform(*row_range))

    header_rows = 0
    if rng.random() < spec.header_probability:
        header_rows = 2 if (n_rows >= 4 and rng.random() < 0.4) else 1

    projected_row = None
    spans: list[tuple[int, int, int, int]] = []
    if rng.random() < spec.span_probability:
        body_rows = list(range(header_rows, n_rows))
        if rng.random() < 0.4:
            projected_row = rng.choice(body_rows)
        taken: set = set()
        if projected_row is not None:
            taken.update((projected_row, c) for c in range(n_cols))
        for _ in range(rng.randint(1, 2)):
            span = _valid_span(n_rows, n_cols, header_rows, projected_row, taken, rng)
            if span is not None:
                spans.append(span)
                r0, c0, rs, cs = span
                taken.update((r, c) for r in range(r0, r0 + rs) for c in range(c0, c0 + cs))
        if not spans and projected_row is None:
            # keep the complexity promise: a projected row always fits
            projected_row = rng.choice(body_rows)

    return TableLayout(
        n_rows=n_rows,
        n_cols=n_cols,
        row_edges=tuple(round(v, 2) for v in row_edges),
        col_edges=tuple(round(v, 2) for v in col_edges),
        header_rows=header_rows,
        projected_row=projected_row,
        spans=tuple(sorted(spans)),
        padding=round(rng.uniform(*_PAD_RANGE), 2),
        table_padding=round(rng.uniform(*_TABLE_PAD_RANGE), 2),
    )


def _rounded(box: BBox) -> BBox:
    return BBox(*(round(v, 2) for v in box))


def layout_instances(layout: TableLayout) -> list[ComponentInstance]:
    """Padded component annotations with content extents, in class order."""
    pad = layout.padding

    def record(cls: ComponentClass, content: BBox, padding: float) -> ComponentInstance:
        return ComponentInstance(
            box=_rounded(content.inflate(padding)),
            cls=cls,
            content_box=_rounded(content),
        )

    rows, cols = layout.n_rows, layout.n_cols
    records = [record(ComponentClass.TABLE, layout.content_box(0, 0, rows, cols), layout.table_padding)]
    for c in range(cols):
        records.append(record(ComponentClass.COLUMN, layout.content_box(0, c, rows, c + 1), pad))
    for r in range(rows):
        records.append(record(ComponentClass.ROW, layout.content_box(r, 0, r + 1, cols), pad))
    for r, c, rs, cs in layout.spans:
        records.append(record(ComponentClass.SPANNING_CELL, layout.content_box(r, c, r + rs, c + cs), pad))
    if layout.projected_row is not None:
        r = layout.projected_row
        records.append(record(ComponentClass.PROJECTED_ROW_HEADER, layout.content_box(r, 0, r + 1, cols), pad))
    if layout.header_rows:
        header = layout.content_box(0, 0, layout.header_rows, cols)
        records.append(record(ComponentClass.COLUMN_HEADER, header, pad))
    return records


def generate_fixtures(spec: FixtureSpec) -> tuple[CorpusFile, CorpusFile]:
    """Ground truth plus perfect-copy predictions, reproducible from the seed."""
    rng = random.Random(spec.seed)
    gt_images = []
    det_images = []
    for index in range(spec.n_tables):
        layout = generate_layout(rng, spec)
        instances = layout_instances(layout)
        table_box = instances[0].box
        width = round(table_box.x2 + 25.0, 2)
        height = round(table_box.y2 + 25.0, 2)
        image_id = f"table_{index:03d}"
        gt_images.append(
            ImageRecord(
                image_id=image_id,
                width=width,
                height=height,
                instances=instances,
                html=layout.to_tree().to_html(),
            )
        )
        det_images.append(
            ImageRecord(
                image_id=image_id,
                width=width,
                height=height,
                instances=[inst.replace(score=1.0, content_box=None) for inst in instances],
            )
        )
    gt = CorpusFile(label_mode=LabelMode.MULTI, images=gt_images)
    det = CorpusFile(label_mode=LabelMode.MULTI, images=det_images)
    return gt, det
