import random

import pytest

from tsrkit.errors import EmptyStructureError, LabelModeError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.geometry import BBox, intersection_area
from tsrkit.labels import MULTI_LABEL_CLASSES, AnnotationSet, ComponentClass, ComponentInstance, LabelMode
from tsrkit.reconstruct import (
    MergedCell,
    TableGrid,
    build_grid,
    grid_to_html,
    grid_to_tree,
)
from tsrkit.teds import parse_table_html, tree_is_complex


def inst(cls, x1, y1, x2, y2, score=None):
    return ComponentInstance(BBox(x1, y1, x2, y2), cls, score)


def logical_cells(grid: TableGrid) -> list[tuple[int, int, int, int]]:
    """(row, col, row_span, col_span) per logical cell, reading order."""
    cells = []
    matrix = grid.cell_matrix()
    merge_at = {(m.row_start, m.col_start): m for m in grid.merges}
    for r in range(grid.n_rows):
        if r in grid.projected_rows:
            cells.append((r, 0, 1, grid.n_cols))
            continue
        for c in range(grid.n_cols):
            if matrix[r][c] != (r, c):
                continue
            m = merge_at.get((r, c))
            if m is None:
                cells.append((r, c, 1, 1))
            else:
                cells.append((r, c, m.row_span, m.col_span))
    return cells


def lattice(n_rows, n_cols, row_h=20.0, col_w=50.0, extras=()):
    """Rows and columns tiling a clean grid starting at the origin."""
    width, height = n_cols * col_w, n_rows * row_h
    instances = [
        inst(ComponentClass.ROW, 0, r * row_h, width, (r + 1) * row_h)
        for r in range(n_rows)
    ] + [
        inst(ComponentClass.COLUMN, c * col_w, 0, (c + 1) * col_w, height)
        for c in range(n_cols)
    ]
    instances.extend(extras)
    return AnnotationSet("img", tuple(instances), LabelMode.MULTI)


# ---------------------------------------------------------------- build_grid

def test_pure_lattice():
    grid = build_grid(lattice(2, 2))
    assert (grid.n_rows, grid.n_cols) == (2, 2)
    assert grid.merges == ()
    assert grid.header_rows == frozenset()
    assert grid.projected_rows == frozenset()


def test_spanning_cell_absorbs_full_row():
    span = inst(ComponentClass.SPANNING_CELL, 0, 0, 100, 20)
    grid = build_grid(lattice(2, 2, extras=[span]))
    assert grid.merges == (MergedCell(0, 0, 1, 2),)

    # brute-force overlap oracle: fraction of each grid cell covered by the span
    for r in range(2):
        for c in range(2):
            cell = BBox(c * 50.0, r * 20.0, (c + 1) * 50.0, (r + 1) * 20.0)
            fraction = intersection_area(span.box, cell) / cell.area
            assert (fraction >= 0.5) == (r == 0)


def test_span_overlap_threshold_configurable():
    # covers row 0 fully, row 1 cells at fraction 6/20 = 0.3
    span = inst(ComponentClass.SPANNING_CELL, 0, 0, 100, 26)
    ann = lattice(2, 2, extras=[span])
    assert build_grid(ann).merges == (MergedCell(0, 0, 1, 2),)


def test_score_threshold_configurable():
    low_row = inst(ComponentClass.ROW, 0, 40, 100, 60, score=0.4)
    ann = AnnotationSet("img", lattice(2, 2).instances + (low_row,), LabelMode.MULTI)
    assert build_grid(ann).n_rows == 2


def test_column_header_marks_row_by_center():
    header = inst(ComponentClass.COLUMN_HEADER, 0, 0, 100, 22)
    grid = build_grid(lattice(3, 2, extras=[header]))
    # row 0 center y = 10 inside [0, 22]; row 1 center y = 30 outside
    assert grid.header_rows == frozenset({0})


def test_spanning_cell_outside_grid_ignored():
    stray = inst(ComponentClass.SPANNING_CELL, 500, 500, 600, 520)
    grid = build_grid(lattice(2, 2, extras=[stray]))
    assert grid.merges == ()


def test_unmatched_projected_header_ignored():
    stray = inst(ComponentClass.PROJECTED_ROW_HEADER, 0, 200, 100, 230)
    grid = build_grid(lattice(2, 2, extras=[stray]))
    assert grid.projected_rows == frozenset()


def test_projected_row_collapses_to_full_width():
    prh = inst(ComponentClass.PROJECTED_ROW_HEADER, 0, 20, 100, 40)
    grid = build_grid(lattice(3, 2, extras=[prh]))
    assert grid.projected_rows == frozenset({1})
    html = grid_to_html(grid)
    assert '<tr><td colspan="2"></td></tr>' in html


def test_requires_multi_label_mode():
    ann = AnnotationSet("img", (), LabelMode.SINGLE)
    with pytest.raises(LabelModeError):
        build_grid(ann)


def test_empty_structure_error():
    only_rows = AnnotationSet(
        "img", (inst(ComponentClass.ROW, 0, 0, 100, 20),), LabelMode.MULTI
    )
    with pytest.raises(EmptyStructureError):
        build_grid(only_rows)


def test_missing_table_box_is_fine():
    grid = build_grid(lattice(2, 2))
    assert grid.n_rows == 2


def test_table_box_clips_rows():
    table = inst(ComponentClass.TABLE, 0, 0, 100, 40, score=1.0)
    overhang = inst(ComponentClass.ROW, -30, 0, 130, 20, score=1.0)
    row2 = inst(ComponentClass.ROW, 0, 20, 100, 40, score=1.0)
    cols = [
        inst(ComponentClass.COLUMN, 0, 0, 50, 40, score=1.0),
        inst(ComponentClass.COLUMN, 50, 0, 100, 40, score=1.0),
    ]
    ann = AnnotationSet("img", (table, overhang, row2, *cols), LabelMode.MULTI)
    grid = build_grid(ann)
    assert (grid.n_rows, grid.n_cols) == (2, 2)


def test_score_threshold_filters():
    noisy = lattice(2, 2)
    low = inst(ComponentClass.ROW, 0, 100, 100, 140, score=0.2)
    ann = AnnotationSet("img", noisy.instances + (low,), LabelMode.MULTI)
    grid = build_grid(ann)
    assert grid.n_rows == 2
    # the threshold is inclusive: a row scored exactly 0.5 survives
    at_threshold = inst(ComponentClass.ROW, 0, 100, 100, 140, score=0.5)
    ann = AnnotationSet("img", noisy.instances + (at_threshold,), LabelMode.MULTI)
    assert build_grid(ann).n_rows == 3


def test_below_threshold_detections_leave_grid_unchanged():
    table = inst(ComponentClass.TABLE, 0, 0, 150, 60, score=0.9)
    clean = lattice(3, 3, extras=(table,))
    noise = (
        # a Table sorts before every other class and would clip the grid
        inst(ComponentClass.TABLE, 0, 0, 60, 30, score=0.49),
        # same-class duplicates of survivors, at IoU 1 and about 0.9
        inst(ComponentClass.ROW, 0, 0, 150, 20, score=0.49),
        inst(ComponentClass.COLUMN, 0, 0, 50, 55, score=0.1),
        # a row across two survivors, and a span over four cells
        inst(ComponentClass.ROW, 0, 10, 150, 30, score=0.3),
        inst(ComponentClass.SPANNING_CELL, 0, 0, 100, 40, score=0.0),
        inst(ComponentClass.COLUMN_HEADER, 0, 0, 150, 40, score=0.2),
    )
    noisy = AnnotationSet("img", noise + clean.instances, LabelMode.MULTI)
    assert build_grid(noisy) == build_grid(clean)
    assert (build_grid(clean).n_rows, build_grid(clean).n_cols) == (3, 3)


def test_below_threshold_noise_on_generated_tables():
    rng = random.Random(5)
    gt, _ = generate_fixtures(FixtureSpec(n_tables=6, seed=11))
    for ann in gt.annotation_sets():
        noise = []
        for survivor in rng.sample(ann.instances, min(8, len(ann.instances))):
            b = survivor.box
            dx, dy = rng.uniform(-3, 3), rng.uniform(-3, 3)
            box = BBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
            noise.append(ComponentInstance(box, rng.choice(MULTI_LABEL_CLASSES), rng.uniform(0.0, 0.499)))
        noisy = AnnotationSet(ann.image_id, tuple(noise) + ann.instances, ann.mode)
        assert build_grid(noisy) == build_grid(ann)


def test_nms_deduplicates():
    dup = inst(ComponentClass.ROW, 0, 0.5, 100, 20.5, score=0.9)
    ann = AnnotationSet("img", lattice(2, 2).instances + (dup,), LabelMode.MULTI)
    grid = build_grid(ann)
    assert grid.n_rows == 2
    # 30 px rows: one shifted down by 10 px overlaps row 0 at IoU 2000 / 4000,
    # exactly 0.5, and NMS suppresses it; at 10.001 px the IoU is just below
    # 0.5 and the row is kept
    for shift, n_rows in ((10.0, 2), (10.001, 3)):
        row = inst(ComponentClass.ROW, 0, shift, 100, 30 + shift, score=0.9)
        ann = AnnotationSet("img", lattice(2, 2, row_h=30.0).instances + (row,), LabelMode.MULTI)
        assert build_grid(ann).n_rows == n_rows


def test_build_grid_order_invariant():
    rng = random.Random(3)
    gt, _ = generate_fixtures(FixtureSpec(n_tables=6, seed=11))
    for ann in gt.annotation_sets():
        reference = build_grid(ann)
        for _ in range(3):
            shuffled = list(ann.instances)
            rng.shuffle(shuffled)
            permuted = AnnotationSet(ann.image_id, tuple(shuffled), ann.mode)
            assert build_grid(permuted) == reference


# ---------------------------------------------------------------- validation

def test_grid_rejects_overlapping_merges():
    with pytest.raises(ValueError):
        TableGrid(2, 2, merges=(MergedCell(0, 0, 1, 2), MergedCell(0, 1, 2, 1)))


def test_grid_rejects_merge_outside():
    with pytest.raises(ValueError):
        TableGrid(2, 2, merges=(MergedCell(1, 1, 2, 1),))


def test_grid_rejects_merge_crossing_header_boundary():
    with pytest.raises(ValueError):
        TableGrid(3, 2, merges=(MergedCell(0, 0, 2, 1),), header_rows={0})


def test_grid_rejects_merge_on_projected_row():
    with pytest.raises(ValueError):
        TableGrid(3, 2, merges=(MergedCell(1, 0, 1, 2),), projected_rows={1})


def test_logical_cells_tile_grid():
    gt, _ = generate_fixtures(FixtureSpec(n_tables=15, seed=21))
    for ann in gt.annotation_sets():
        grid = build_grid(ann)
        covered = sum(rs * cs for _, _, rs, cs in logical_cells(grid))
        assert covered == grid.n_rows * grid.n_cols


# --------------------------------------------------------------------- html

def test_html_one_by_one():
    assert grid_to_html(TableGrid(1, 1)) == "<table><tbody><tr><td></td></tr></tbody></table>"


def test_html_merge_emits_colspan_once():
    grid = TableGrid(2, 2, merges=(MergedCell(0, 0, 1, 2),))
    html = grid_to_html(grid)
    assert html == (
        '<table><tbody><tr><td colspan="2"></td></tr>'
        "<tr><td></td><td></td></tr></tbody></table>"
    )


def test_html_header_split():
    grid = TableGrid(2, 2, header_rows={0})
    html = grid_to_html(grid)
    assert html == (
        "<table><thead><tr><td></td><td></td></tr></thead>"
        "<tbody><tr><td></td><td></td></tr></tbody></table>"
    )


def test_html_all_rows_in_header():
    grid = TableGrid(2, 2, header_rows={0, 1})
    html = grid_to_html(grid)
    assert html.endswith("<tbody></tbody></table>")
    # table + thead + 2 tr + 4 td + the empty tbody
    assert parse_table_html(html).size() == 9


def test_html_rowspan_attribute():
    grid = TableGrid(2, 2, merges=(MergedCell(0, 0, 2, 1),))
    html = grid_to_html(grid)
    assert '<td rowspan="2"></td>' in html
    # absorbed position emits nothing: second body row holds one cell
    assert "<tr><td></td></tr></tbody>" in html


def test_html_round_trips_through_parser():
    gt, _ = generate_fixtures(FixtureSpec(n_tables=20, seed=5))
    for ann in gt.annotation_sets():
        grid = build_grid(ann)
        tree = parse_table_html(grid_to_html(grid))
        tds = [n for n in tree.iter_postorder() if n.tag == "td"]
        covered = sum(n.colspan * n.rowspan for n in tds)
        assert covered == grid.n_rows * grid.n_cols
        header_cells = sum(
            n.colspan * n.rowspan
            for section in tree.children
            if section.tag == "thead"
            for n in section.iter_postorder()
            if n.tag == "td"
        )
        assert header_cells == len(grid.header_rows) * grid.n_cols


def expand_table_tree(tree):
    """Independent oracle: standard HTML table expansion with rowspan carry.

    Returns (n_rows, n_cols, logical cell set, header row count).
    """
    rows = []
    header_count = 0
    for section in tree.children:
        for tr in section.children:
            if section.tag == "thead":
                header_count += 1
            rows.append([(td.colspan, td.rowspan) for td in tr.children])
    occupied = {}
    cells = set()
    for r, row_cells in enumerate(rows):
        c = 0
        for colspan, rowspan in row_cells:
            while (r, c) in occupied:
                c += 1
            cells.add((r, c, rowspan, colspan))
            for rr in range(r, r + rowspan):
                for cc in range(c, c + colspan):
                    occupied[(rr, cc)] = (r, c)
            c += colspan
    n_cols = max(cc for _, cc in occupied) + 1 if occupied else 0
    return len(rows), n_cols, cells, header_count


def random_valid_grid(rng):
    n_rows = rng.randint(1, 6)
    n_cols = rng.randint(1, 5)
    header = rng.randint(0, n_rows - 1) if rng.random() < 0.5 else 0
    body_rows = [r for r in range(header, n_rows)]
    projected = set()
    if body_rows and rng.random() < 0.3:
        projected = {rng.choice(body_rows)}
    taken = {(r, c) for r in projected for c in range(n_cols)}
    merges = []
    for _ in range(rng.randint(0, 3)):
        rs = min(rng.randint(1, 2), n_rows)
        cs = min(rng.randint(1, 2), n_cols)
        if rs * cs < 2:
            continue
        r0 = rng.randint(0, n_rows - rs)
        c0 = rng.randint(0, n_cols - cs)
        region = {(r, c) for r in range(r0, r0 + rs) for c in range(c0, c0 + cs)}
        in_header = [r < header for r in range(r0, r0 + rs)]
        if any(in_header) != all(in_header) or region & taken:
            continue
        taken |= region
        merges.append(MergedCell(r0, c0, rs, cs))
    return TableGrid(
        n_rows,
        n_cols,
        merges=tuple(merges),
        header_rows=frozenset(range(header)),
        projected_rows=frozenset(projected),
    )


def test_random_grids_round_trip_exactly():
    rng = random.Random(314159)
    for _ in range(300):
        grid = random_valid_grid(rng)
        tree = parse_table_html(grid_to_html(grid))
        n_rows, n_cols, cells, header_count = expand_table_tree(tree)
        assert n_rows == grid.n_rows
        assert n_cols == grid.n_cols
        assert header_count == len(grid.header_rows)
        expected = {(r, c, rs, cs) for r, c, rs, cs in logical_cells(grid)}
        assert cells == expected


# --------------------------------------------------------------- complexity

def test_complexity_simple():
    assert not tree_is_complex(grid_to_tree(TableGrid(3, 3)))


def test_complexity_merge():
    grid = TableGrid(2, 2, merges=(MergedCell(0, 0, 1, 2),))
    assert tree_is_complex(grid_to_tree(grid))


def test_complexity_one_by_one():
    assert not tree_is_complex(grid_to_tree(TableGrid(1, 1)))


def test_complexity_projected_single_column():
    assert not tree_is_complex(grid_to_tree(TableGrid(2, 1, projected_rows={1})))
    assert tree_is_complex(grid_to_tree(TableGrid(2, 2, projected_rows={1})))
