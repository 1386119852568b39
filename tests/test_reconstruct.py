import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsrkit.errors import EmptyStructureError, LabelModeError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.geometry import BBox, intersection_area
from tsrkit.labels import (
    MULTI_LABEL_CLASSES,
    AnnotationSet,
    ComponentClass,
    ComponentInstance,
    LabelMode,
)
from tsrkit.reconstruct import (
    MergedCell,
    TableGrid,
    build_grid,
    grid_to_html,
    grid_to_tree,
)
from tsrkit.teds import parse_table_html, tree_is_complex

from oracles import ReferenceGrid, postorder, reference_build_grid, reference_grid_html


def inst(cls, x1, y1, x2, y2, score=None):
    return ComponentInstance(BBox(x1, y1, x2, y2), cls, score)


def logical_cells(grid: TableGrid) -> list[tuple[int, int, int, int]]:
    """(row, col, row_span, col_span) per logical cell, reading order."""
    cells = []
    matrix = grid.cell_matrix()
    merge_at = {(m.row_start, m.col_start): m for m in grid.merges}
    for r in range(grid.n_rows):
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
    assert grid.header_rows == 0


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
    assert grid.header_rows == 1


@pytest.mark.parametrize(
    "header_boxes, count",
    [
        # one box over the centres of rows 0 and 1
        (((0, 0, 100, 40),), 2),
        # a box over row 1 only: row 0 is body, so row 1 stays in the body below it
        (((0, 20, 100, 40),), 0),
        # boxes over rows 0 and 2: the run from the top ends at row 1
        (((0, 0, 100, 20), (0, 40, 100, 60)), 1),
    ],
    ids=["rows-0-1", "row-1-only", "rows-0-and-2"],
)
def test_header_is_the_run_of_marked_rows_from_the_top(header_boxes, count):
    headers = [inst(ComponentClass.COLUMN_HEADER, *box) for box in header_boxes]
    grid = build_grid(lattice(3, 2, extras=headers))
    assert grid.header_rows == count
    assert grid_to_html(grid).count("<tr>") == 3
    assert grid_to_html(grid).startswith("<table><thead>" if count else "<table><tbody>")


def test_spanning_cell_outside_grid_ignored():
    stray = inst(ComponentClass.SPANNING_CELL, 500, 500, 600, 520)
    grid = build_grid(lattice(2, 2, extras=[stray]))
    assert grid.merges == ()


def test_unmatched_projected_header_ignored():
    stray = inst(ComponentClass.PROJECTED_ROW_HEADER, 0, 200, 100, 230)
    grid = build_grid(lattice(2, 2, extras=[stray]))
    assert grid.merges == ()


def test_projected_row_collapses_to_full_width():
    prh = inst(ComponentClass.PROJECTED_ROW_HEADER, 0, 20, 100, 40)
    grid = build_grid(lattice(3, 2, extras=[prh]))
    assert grid.merges == (MergedCell(1, 0, 1, 2),)
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


def cells_span(r0, c0, r1, c1, score, row_h=20.0, col_w=50.0):
    """A Spanning Cell over grid cells (r0, c0) to (r1, c1) of a ``lattice``."""
    x1, y1, x2, y2 = c0 * col_w, r0 * row_h, (c1 + 1) * col_w, (r1 + 1) * row_h
    return inst(ComponentClass.SPANNING_CELL, x1, y1, x2, y2, score)


def test_span_across_header_boundary_skipped():
    header = inst(ComponentClass.COLUMN_HEADER, 0, 0, 100, 22)
    crossing = cells_span(0, 0, 1, 0, score=0.9)
    body = cells_span(1, 0, 2, 0, score=0.8)
    grid = build_grid(lattice(3, 2, extras=[header, crossing, body]))
    assert grid.header_rows == 1
    assert grid.merges == (MergedCell(1, 0, 2, 1),)


def test_span_overlapping_higher_ranked_span_skipped_and_claims_nothing():
    first = cells_span(1, 1, 1, 2, score=0.9)
    # free cells (0,0), (0,1) and (1,0) come before the clash at (1,1)
    overlapping = cells_span(0, 0, 1, 1, score=0.8)
    # so a span over the first row is still placed
    later = cells_span(0, 0, 0, 2, score=0.7)
    grid = build_grid(lattice(3, 3, extras=[first, overlapping, later]))
    assert grid.merges == (MergedCell(0, 0, 1, 3), MergedCell(1, 1, 1, 2))


def test_span_over_projected_row_skipped():
    prh = inst(ComponentClass.PROJECTED_ROW_HEADER, 0, 20, 100, 40)
    span = cells_span(1, 0, 2, 0, score=0.9)
    grid = build_grid(lattice(3, 2, extras=[prh, span]))
    assert grid.merges == (MergedCell(1, 0, 1, 2),)


def test_projected_row_in_one_column_claims_its_cell():
    # a one-cell merge: the HTML shows no merge, but a span over the row is still skipped
    prh = inst(ComponentClass.PROJECTED_ROW_HEADER, 0, 20, 50, 40)
    span = cells_span(1, 0, 2, 0, score=0.9)
    grid = build_grid(lattice(3, 1, extras=[prh, span]))
    assert grid.merges == (MergedCell(1, 0, 1, 1),)
    assert grid_to_html(grid) == grid_to_html(TableGrid(3, 1))


def test_span_over_one_cell_skipped_and_claims_nothing():
    single = cells_span(0, 0, 0, 0, score=0.9)
    # IoU with the single-cell span is 0.25, so NMS keeps both
    later = cells_span(0, 0, 1, 1, score=0.8)
    grid = build_grid(lattice(2, 2, extras=[single, later]))
    assert grid.merges == (MergedCell(0, 0, 2, 2),)


# ------------------------------------------------- reference and metamorphic

FIXTURE_SETS = generate_fixtures(FixtureSpec(n_tables=24, seed=41, span_probability=0.8))[0].annotation_sets()

SCORES = st.sampled_from((None, 0.3, 0.49, 0.5, 0.5, 0.51, 0.7, 0.9, 1.0))
JITTER = st.sampled_from((-3.0, -1.0, -0.5, 0.0, 0.0, 0.0, 0.5, 1.0, 3.0)) | st.floats(-4.0, 4.0)


def moved(box, dx1, dy1, dx2, dy2):
    return BBox(box.x1 + dx1, box.y1 + dy1, box.x2 + dx2, box.y2 + dy2)


@st.composite
def noisy_multi_label_sets(draw):
    """A fixture table's components with jittered boxes, some dropped and
    scored around the 0.5 cut, plus stray Spanning Cells over rectangles of
    grid cells (single cells, header crossings, projected rows and overlaps
    among them), spurious Column Headers over any run of rows, the top one
    or another, and spurious Projected Row Headers."""
    ann = draw(st.sampled_from(FIXTURE_SETS))
    rows = sorted(i.box for i in ann.instances if i.cls is ComponentClass.ROW)
    cols = sorted(i.box for i in ann.instances if i.cls is ComponentClass.COLUMN)
    instances = []
    for item in ann.instances:
        if draw(st.integers(0, 7)) == 0:
            continue
        box = moved(item.box, *(draw(JITTER) for _ in range(4)))
        instances.append(ComponentInstance(box, item.cls, draw(SCORES)))
    for _ in range(draw(st.integers(0, 4))):
        r0, r1 = sorted(draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        c0, c1 = sorted(draw(st.integers(0, len(cols) - 1)) for _ in range(2))
        inset = draw(st.sampled_from((0.0, 2.0, 4.0)))
        rect = BBox(cols[c0].x1, rows[r0].y1, cols[c1].x2, rows[r1].y2).inflate(-inset)
        instances.append(ComponentInstance(rect, ComponentClass.SPANNING_CELL, draw(SCORES)))
    for _ in range(draw(st.integers(0, 2))):
        first, last = sorted(draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        box = BBox(cols[0].x1, rows[first].y1, cols[-1].x2, rows[last].y2 + draw(JITTER))
        instances.append(ComponentInstance(box, ComponentClass.COLUMN_HEADER, draw(SCORES)))
    for _ in range(draw(st.integers(0, 2))):
        near = st.sampled_from((-1.5, -1.0, 0.0, 0.5, 1.0, 1.5))  # around the 1 px match tolerance
        box = moved(draw(st.sampled_from(rows)), *(draw(near) for _ in range(4)))
        instances.append(ComponentInstance(box, ComponentClass.PROJECTED_ROW_HEADER, draw(SCORES)))
    return AnnotationSet(ann.image_id, tuple(draw(st.permutations(instances))), LabelMode.MULTI)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(noisy_multi_label_sets())
def test_build_grid_matches_reference(ann):
    try:
        expected = reference_build_grid(ann)
    except EmptyStructureError as exc:
        with pytest.raises(EmptyStructureError, match=re.escape(str(exc))):
            build_grid(ann)
        return
    grid = build_grid(ann)
    merges = tuple((m.row_start, m.col_start, m.row_span, m.col_span) for m in grid.merges)
    # the reference lists merges in span rank order, a grid in reading order
    in_reading_order = expected._replace(merges=tuple(sorted(expected.merges)))
    assert ReferenceGrid(grid.n_rows, grid.n_cols, merges, grid.header_rows) == in_reading_order
    assert grid_to_html(grid) == reference_grid_html(expected)


# Each coordinate moves by less than this many px. Two boxes that coincide,
# a Projected Row Header and its Row, then differ by under 0.5 px, inside the
# 1 px match tolerance. Fixture boxes are padded by 2 to 3 px, rows are at
# least 9 px high and columns 18 px wide. So a Spanning Cell covers at most
# 6 px of a neighbouring cell's 15 or more, a fraction the jitter raises to
# at most 6.5 / 14.5 < 0.5; and a row centre sits at least 9 / 2 - 3 = 1.5 px
# from a Column Header edge, against under 0.5 px of joint movement. The
# bound is below half the match tolerance and half the minimum padding.
JITTER_BOUND = 0.25


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(FIXTURE_SETS), st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), st.data())
def test_build_grid_ignores_translation_and_subpixel_jitter(ann, dx, dy, data):
    jitter = st.floats(-JITTER_BOUND, JITTER_BOUND, exclude_min=True, exclude_max=True)
    instances = []
    for item in ann.instances:
        shift = [data.draw(jitter) for _ in range(4)]
        box = moved(item.box, dx + shift[0], dy + shift[1], dx + shift[2], dy + shift[3])
        instances.append(ComponentInstance(box, item.cls))
    # a grid keeps its merges in reading order, so equal grids are equal structures
    # whatever order the jittered spans rank in
    moved_set = AnnotationSet(ann.image_id, tuple(instances), ann.mode)
    assert build_grid(moved_set) == build_grid(ann)


# ---------------------------------------------------------------- validation

def test_grid_equality_ignores_merge_order():
    a, b = MergedCell(1, 0, 2, 1), MergedCell(0, 1, 1, 2)
    grid = TableGrid(3, 3, (a, b))
    assert grid == TableGrid(3, 3, (b, a))
    assert grid.merges == (b, a)  # reading order, by anchor
    assert grid_to_html(grid) == grid_to_html(TableGrid(3, 3, (b, a)))


def test_grid_validates_merges_in_the_given_order():
    # each order names its own second merge as the one that clashes
    a, b = MergedCell(0, 0, 2, 2), MergedCell(1, 1, 2, 2)
    with pytest.raises(ValueError, match=r"cell \(1,1\) claimed twice"):
        TableGrid(3, 3, (a, b))
    with pytest.raises(ValueError, match=r"cell \(1,1\) claimed twice"):
        TableGrid(3, 3, (b, a))
    c = MergedCell(0, 0, 1, 2)
    with pytest.raises(ValueError, match=r"cell \(0,1\) claimed twice"):
        TableGrid(3, 3, (MergedCell(0, 1, 2, 1), c))
    with pytest.raises(ValueError, match=r"cell \(0,0\) claimed twice"):
        TableGrid(3, 3, (c, MergedCell(0, 0, 2, 1)))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TableGrid(0, 2), "grid needs at least one row and one column"),
        (lambda: TableGrid(2, 0), "grid needs at least one row and one column"),
        (lambda: TableGrid(2, 2, header_rows=3), "header row count 3 outside 0..2"),
        (lambda: TableGrid(2, 2, header_rows=-1), "header row count -1 outside 0..2"),
        (lambda: MergedCell(0, 0, 0, 1), "merge spans must be >= 1"),
        (lambda: MergedCell(0, 0, 1, -1), "merge spans must be >= 1"),
    ],
    ids=["no-rows", "no-columns", "header-count-above", "header-count-negative", "zero-row-span", "negative-col-span"],
)
def test_grid_and_merge_reject_impossible_shapes(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_grid_rejects_overlapping_merges():
    with pytest.raises(ValueError):
        TableGrid(2, 2, merges=(MergedCell(0, 0, 1, 2), MergedCell(0, 1, 2, 1)))


def test_grid_rejects_merge_outside():
    with pytest.raises(ValueError):
        TableGrid(2, 2, merges=(MergedCell(1, 1, 2, 1),))


def test_grid_rejects_merge_crossing_header_boundary():
    with pytest.raises(ValueError):
        TableGrid(3, 2, merges=(MergedCell(0, 0, 2, 1),), header_rows=1)


def test_grid_rejects_merge_on_projected_row():
    # a projected row is a merge over its whole row, which owns every cell of it
    with pytest.raises(ValueError, match=re.escape("cell (1,0) claimed twice")):
        TableGrid(3, 2, merges=(MergedCell(1, 0, 1, 2), MergedCell(1, 0, 2, 1)))


def test_grid_rejects_merge_with_negative_start():
    with pytest.raises(ValueError, match="exceeds grid bounds"):
        TableGrid(2, 2, merges=(MergedCell(-1, 0, 2, 1),))


def test_grid_rejection_names_the_first_broken_rule():
    # outside the grid and across the header boundary
    with pytest.raises(ValueError, match="exceeds grid bounds"):
        TableGrid(3, 2, merges=(MergedCell(0, 0, 4, 1),), header_rows=1)
    # across the header boundary and on a claimed cell
    with pytest.raises(ValueError, match="crosses the header/body boundary"):
        TableGrid(3, 2, merges=(MergedCell(0, 0, 1, 2), MergedCell(0, 0, 2, 1)), header_rows=1)
    # the first claimed cell in reading order
    with pytest.raises(ValueError, match=re.escape("cell (1,1) claimed twice")):
        TableGrid(3, 3, merges=(MergedCell(1, 1, 1, 2), MergedCell(0, 0, 2, 2)))


def test_cell_matrix_lies_outside_grid_equality():
    grid = TableGrid(3, 2, merges=(MergedCell(0, 0, 1, 2), MergedCell(2, 0, 1, 2)))
    assert grid.cell_matrix() == (((0, 0), (0, 0)), ((1, 0), (1, 1)), ((2, 0), (2, 0)))
    assert grid.cell_matrix() is grid.cell_matrix()
    twin = TableGrid(3, 2, merges=[MergedCell(2, 0, 1, 2), MergedCell(0, 0, 1, 2)])
    assert twin == grid and hash(twin) == hash(grid)
    assert repr(grid) == (
        "TableGrid(n_rows=3, n_cols=2, "
        "merges=(MergedCell(row_start=0, col_start=0, row_span=1, col_span=2), "
        "MergedCell(row_start=2, col_start=0, row_span=1, col_span=2)), header_rows=0)"
    )


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
    grid = TableGrid(2, 2, header_rows=1)
    html = grid_to_html(grid)
    assert html == (
        "<table><thead><tr><td></td><td></td></tr></thead>"
        "<tbody><tr><td></td><td></td></tr></tbody></table>"
    )


def test_html_all_rows_in_header():
    grid = TableGrid(2, 2, header_rows=2)
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
        tds = [n for n in postorder(tree) if n.tag == "td"]
        covered = sum(n.colspan * n.rowspan for n in tds)
        assert covered == grid.n_rows * grid.n_cols
        header_cells = sum(
            n.colspan * n.rowspan
            for section in tree.children
            if section.tag == "thead"
            for n in postorder(section)
            if n.tag == "td"
        )
        assert header_cells == grid.header_rows * grid.n_cols


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
    merges = []
    taken = set()
    if body_rows and rng.random() < 0.3:  # a projected row
        r = rng.choice(body_rows)
        merges.append(MergedCell(r, 0, 1, n_cols))
        taken = {(r, c) for c in range(n_cols)}
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
    return TableGrid(n_rows, n_cols, merges=tuple(merges), header_rows=header)


def test_random_grids_round_trip_exactly():
    rng = random.Random(314159)
    for _ in range(300):
        grid = random_valid_grid(rng)
        tree = parse_table_html(grid_to_html(grid))
        n_rows, n_cols, cells, header_count = expand_table_tree(tree)
        assert n_rows == grid.n_rows
        assert n_cols == grid.n_cols
        assert header_count == grid.header_rows
        expected = {(r, c, rs, cs) for r, c, rs, cs in logical_cells(grid)}
        assert cells == expected


@st.composite
def grids_without_one_cell_merges(draw):
    """Any grid whose merges each cover two or more cells: any header count,
    and merges anywhere on one side of the header boundary, whole rows too."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header_rows = draw(st.integers(0, n_rows))
    taken = set()
    merges = []
    for _ in range(draw(st.integers(0, 4))):
        r0, c0 = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        rs, cs = draw(st.integers(1, n_rows - r0)), draw(st.integers(1, n_cols - c0))
        region = {(r, c) for r in range(r0, r0 + rs) for c in range(c0, c0 + cs)}
        if rs * cs < 2 or region & taken or r0 < header_rows < r0 + rs:
            continue
        taken |= region
        merges.append(MergedCell(r0, c0, rs, cs))
    return TableGrid(n_rows, n_cols, tuple(merges), header_rows)


def grid_from_html(html: str) -> TableGrid:
    """The grid without one-cell merges whose tree ``html`` is: a left inverse of ``grid_to_tree`` there."""
    n_rows, n_cols, cells, header_count = expand_table_tree(parse_table_html(html))
    merges = [MergedCell(r, c, rs, cs) for r, c, rs, cs in cells if rs * cs > 1]
    return TableGrid(n_rows, n_cols, tuple(merges), header_count)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(grids_without_one_cell_merges(), grids_without_one_cell_merges())
def test_grid_to_tree_is_injective_on_grids_without_one_cell_merges(a, b):
    html = grid_to_tree(a).to_html()
    assert grid_from_html(html) == a  # a left inverse, so no two grids share the HTML
    assert (html == grid_to_tree(b).to_html()) == (a == b)


@pytest.mark.parametrize(
    "a,b",
    [
        # a merge of one cell merges nothing
        (TableGrid(1, 2, merges=(MergedCell(0, 0, 1, 1),)), TableGrid(1, 2)),
    ],
    ids=["one-cell-merge"],
)
def test_grid_to_tree_joins_grids_outside_the_canonical_form(a, b):
    assert a != b
    assert grid_to_tree(a) == grid_to_tree(b)


# --------------------------------------------------------------- complexity

def test_complexity_simple():
    assert not tree_is_complex(grid_to_tree(TableGrid(3, 3)))


def test_complexity_merge():
    grid = TableGrid(2, 2, merges=(MergedCell(0, 0, 1, 2),))
    assert tree_is_complex(grid_to_tree(grid))


def test_complexity_one_by_one():
    assert not tree_is_complex(grid_to_tree(TableGrid(1, 1)))


def test_complexity_projected_single_column():
    assert not tree_is_complex(grid_to_tree(TableGrid(2, 1, merges=(MergedCell(1, 0, 1, 1),))))
    assert tree_is_complex(grid_to_tree(TableGrid(2, 2, merges=(MergedCell(1, 0, 1, 2),))))
