"""Deterministic synthetic table corpora.

Each generated table carries three mutually consistent views: the component
annotations (padded boxes, the way real corpora annotate along ruling
lines), the content extents (minimum boxes recovering the structure), and
the ground-truth HTML emitted directly from the logical layout, independent
of the reconstruction pipeline. Predictions default to perfect copies with
score 1.0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .formats import CorpusFile, ImageRecord
from .geometry import BBox
from .labels import ComponentClass, ComponentInstance, LabelMode

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

    def row_content_box(self, r: int) -> BBox:
        return BBox(self.col_edges[0], self.row_edges[r], self.col_edges[-1], self.row_edges[r + 1])

    def col_content_box(self, c: int) -> BBox:
        return BBox(self.col_edges[c], self.row_edges[0], self.col_edges[c + 1], self.row_edges[-1])

    def span_content_box(self, span) -> BBox:
        r, c, rs, cs = span
        return BBox(self.col_edges[c], self.row_edges[r], self.col_edges[c + cs], self.row_edges[r + rs])

    def table_content_box(self) -> BBox:
        return BBox(self.col_edges[0], self.row_edges[0], self.col_edges[-1], self.row_edges[-1])

    def header_content_box(self) -> BBox:
        return BBox(
            self.col_edges[0], self.row_edges[0], self.col_edges[-1], self.row_edges[self.header_rows]
        )

    def to_html(self) -> str:
        covered = set()
        anchors = {}
        for r, c, rs, cs in self.spans:
            anchors[(r, c)] = (rs, cs)
            covered.update(
                (rr, cc)
                for rr in range(r, r + rs)
                for cc in range(c, c + cs)
                if (rr, cc) != (r, c)
            )
        rows_html = []
        for r in range(self.n_rows):
            if r == self.projected_row:
                rows_html.append(f'<tr><td colspan="{self.n_cols}"></td></tr>')
                continue
            cells = []
            for c in range(self.n_cols):
                if (r, c) in covered:
                    continue
                attrs = ""
                if (r, c) in anchors:
                    rs, cs = anchors[(r, c)]
                    if cs != 1:
                        attrs += f' colspan="{cs}"'
                    if rs != 1:
                        attrs += f' rowspan="{rs}"'
                cells.append(f"<td{attrs}></td>")
            rows_html.append("<tr>" + "".join(cells) + "</tr>")
        head = "".join(rows_html[: self.header_rows])
        body = "".join(rows_html[self.header_rows :])
        parts = ["<table>"]
        if self.header_rows:
            parts.append(f"<thead>{head}</thead>")
        parts.append(f"<tbody>{body}</tbody>")
        parts.append("</table>")
        return "".join(parts)


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

    records = [record(ComponentClass.TABLE, layout.table_content_box(), layout.table_padding)]
    for c in range(layout.n_cols):
        records.append(record(ComponentClass.COLUMN, layout.col_content_box(c), pad))
    for r in range(layout.n_rows):
        records.append(record(ComponentClass.ROW, layout.row_content_box(r), pad))
    for span in layout.spans:
        records.append(record(ComponentClass.SPANNING_CELL, layout.span_content_box(span), pad))
    if layout.projected_row is not None:
        records.append(
            record(
                ComponentClass.PROJECTED_ROW_HEADER,
                layout.row_content_box(layout.projected_row),
                pad,
            )
        )
    if layout.header_rows:
        records.append(record(ComponentClass.COLUMN_HEADER, layout.header_content_box(), pad))
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
                html=layout.to_html(),
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
