import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_best_iou, reference_anchors

from tsrkit.anchors import (
    DEFAULT_ASPECT_RATIOS,
    STRIDES,
    TABLE_ASPECT_RATIOS,
    DatasetStats,
    anchor_coverage,
    best_iou_per_gt,
    dataset_stats,
    fold_ratio,
    generate_anchors,
)
from tsrkit.geometry import BBox
from tsrkit.labels import AnnotationSet, ComponentClass, ComponentInstance, LabelMode


def ann(image_id, boxes):
    return AnnotationSet(
        image_id,
        tuple(ComponentInstance(b, ComponentClass.ROW) for b in boxes),
        LabelMode.MULTI,
    )


# ------------------------------------------------------------------- stats

def test_fold_ratio_values():
    assert fold_ratio(0.25) == 4.0
    assert fold_ratio(1.0) == 1.0
    assert fold_ratio(40.0) == 40.0


def test_fold_ratio_symmetry():
    rng = random.Random(1)
    for _ in range(200):
        r = rng.uniform(0.01, 100.0)
        assert fold_ratio(r) == pytest.approx(fold_ratio(1.0 / r))
        assert fold_ratio(r) >= 1.0


def test_fold_ratio_rejects_nonpositive():
    with pytest.raises(ValueError):
        fold_ratio(0.0)


def test_dataset_stats_synthetic():
    a = ann("a", [BBox(0, 0, 10, 10)] * 3)
    b = ann("b", [BBox(0, 0, 10, 40)] * 5)
    stats = dataset_stats([a, b])
    assert stats.n_images == 2
    assert stats.n_objects == 8
    assert stats.avg_objects_per_image == pytest.approx(4.0)
    assert stats.folded_aspect_ratio_histogram == {1: 3, 4: 5}


def test_dataset_stats_skips_degenerate_boxes_in_histogram():
    a = ann("a", [BBox(0, 0, 10, 10), BBox(5, 5, 5, 9)])
    stats = dataset_stats([a])
    assert stats.n_objects == 2
    assert sum(stats.folded_aspect_ratio_histogram.values()) == 1


def test_dataset_stats_top_bucket_open():
    a = ann("a", [BBox(0, 0, 1, 500)])  # folded ratio 500 -> bucket 140
    stats = dataset_stats([a])
    assert stats.folded_aspect_ratio_histogram == {140: 1}


def test_dataset_stats_reports_an_empty_corpus():
    stats = dataset_stats([])
    assert stats == DatasetStats(0, 0, None, {})
    assert stats.format_lines() == ["images = 0", "objects = 0", "objects/image = n/a"]


# ----------------------------------------------------------------- anchors

def test_generate_single_centered_anchor():
    # a 4 x 4 image holds a single anchor centre per level, at (s / 2, s / 2)
    anchors = generate_anchors((1.0,), 4, 4)
    expected = [[0.5 * s - 4 * s, 0.5 * s - 4 * s, 0.5 * s + 4 * s, 0.5 * s + 4 * s] for s in STRIDES]
    np.testing.assert_array_equal(anchors, expected)


def test_generate_ratio_shapes():
    anchors = generate_anchors((4.0,), 4, 4)
    width = anchors[:, 2] - anchors[:, 0]
    height = anchors[:, 3] - anchors[:, 1]
    sides = 8.0 * np.asarray(STRIDES)
    np.testing.assert_allclose(width, sides / math.sqrt(4.0))
    np.testing.assert_allclose(height, sides * math.sqrt(4.0))


def test_generate_count():
    # a 64 x 48 image: 16 x 12, 8 x 6, 4 x 3, 2 x 1 (floored) and a clamped 1 x 1 centres
    anchors = generate_anchors(tuple(sorted(TABLE_ASPECT_RATIOS)), 64, 48)
    assert anchors.shape == ((16 * 12 + 8 * 6 + 4 * 3 + 2 * 1 + 1 * 1) * 13, 4)


def test_generated_anchor_area_and_ratio():
    anchors = generate_anchors(TABLE_ASPECT_RATIOS, 64, 64)
    ratios = np.tile(np.asarray(TABLE_ASPECT_RATIOS), anchors.shape[0] // 13)
    widths = anchors[:, 2] - anchors[:, 0]
    heights = anchors[:, 3] - anchors[:, 1]
    centres_per_level = [16 * 16, 8 * 8, 4 * 4, 2 * 2, 1]
    scales = np.repeat([8.0 * s for s in STRIDES], [n * 13 for n in centres_per_level])
    np.testing.assert_allclose(widths * heights, scales**2, rtol=1e-6)
    np.testing.assert_allclose(heights / widths, ratios, rtol=1e-6)


# the gt-analysis page of the benchmark: 435,240 anchors at the 13 table ratios
PAGE = (TABLE_ASPECT_RATIOS, 960, 420)


@pytest.mark.parametrize(
    "grid",
    [
        ((1.0,), 4, 4),  # one centre per level
        ((0.5, 1.0, 2.0), 4, 4),
        ((0.25, 4.0), 37.5, 23),  # sides that are no multiple of a stride
        ((0.0125, 80.0), 131, 517.25),
        ((2.0,), 640, 96),  # one ratio
        PAGE,
    ],
)
def test_generate_matches_stacked_reference(grid):
    anchors = generate_anchors(*grid)
    expected = reference_anchors(*grid)
    assert anchors.shape == expected.shape
    np.testing.assert_array_equal(anchors.view(np.int64), expected.view(np.int64))


def test_generate_allocates_only_its_output():
    tracemalloc.start()
    try:
        anchors = generate_anchors(*PAGE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert anchors.shape == (435240, 4)
    assert peak <= 1.05 * anchors.nbytes


def test_ratio_validation():
    for ratios in [(2.0, 1.0), (0.0, 1.0), (-1.0,)]:
        with pytest.raises(ValueError, match="aspect_ratios"):
            generate_anchors(ratios, 64, 64)


def one_level_best_iou(gts):
    anchors = generate_anchors((1.0,), 8, 8)
    return best_iou_per_gt(anchors, np.asarray(gts), (1.0,), 8, 8)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: generate_anchors((math.nan,), 8, 8), "aspect_ratios"),
        (lambda: generate_anchors((math.inf,), 8, 8), "aspect_ratios"),
        (lambda: generate_anchors((1.0, math.nan), 8, 8), "aspect_ratios"),
        (lambda: generate_anchors((), 8, 8), "aspect_ratios"),
        (lambda: generate_anchors((1.0, 1.0), 8, 8), "aspect_ratios"),
        (lambda: generate_anchors((1.0,), 0, 5), "width, height"),
        (lambda: generate_anchors((1.0,), 5, -2), "width, height"),
        (lambda: generate_anchors((1.0,), math.nan, 5), "width, height"),
        (lambda: generate_anchors((1.0,), 5, math.inf), "width, height"),
        (lambda: best_iou_per_gt(np.zeros((5, 4)), [[0, 0, 1, 1]], (1.0,), 0, 8), "width, height"),
        (lambda: best_iou_per_gt(np.zeros((5, 4)), [[0, 0, 1, 1]], (), 8, 8), "aspect_ratios"),
        (lambda: one_level_best_iou([[0.0, 0.0, math.nan, 4.0]]), "gts"),
        (lambda: one_level_best_iou([[0.0, 0.0, math.inf, 4.0]]), "gts"),
        (lambda: one_level_best_iou([[5.0, 0.0, 1.0, 4.0]]), "gts"),
    ],
)
def test_invalid_anchor_inputs_name_the_field(build, field):
    with pytest.raises(ValueError, match=field):
        build()


# ---------------------------------------------------------------- coverage

CANVAS = 512.0


def grid_anchors(ratios):
    """Anchors over the canvas, and the (ratios, width, height) that made them."""
    grid = (tuple(sorted(ratios)), CANVAS, CANVAS)
    return generate_anchors(*grid), grid


def test_coverage_anchors_equal_gts():
    # every anchor is among its own candidates, so each scores IoU 1
    anchors = generate_anchors((0.5, 1.0), 20, 12)
    report = anchor_coverage(anchors, anchors, (0.5, 1.0), 20, 12)
    assert report.frac_iou50 == 1.0
    assert report.frac_iou70 == 1.0
    assert report.mean_best_iou == 1.0


def test_extreme_ratio_needs_extreme_anchor():
    # height/width ratio 40, centered near an anchor center
    target = BBox(250.0, 50.0, 260.0, 450.0)
    anchors, grid = grid_anchors(DEFAULT_ASPECT_RATIOS)
    default = best_iou_per_gt(anchors, [target], *grid)
    anchors, grid = grid_anchors(TABLE_ASPECT_RATIOS)
    tuned = best_iou_per_gt(anchors, [target], *grid)
    assert default[0] < 0.5
    assert tuned[0] >= 0.5


def test_coverage_errors():
    anchors, grid = grid_anchors(DEFAULT_ASPECT_RATIOS)
    box = [BBox(0, 0, 1, 1)]
    with pytest.raises(ValueError, match="anchors"):
        anchor_coverage(np.zeros((0, 4)), box, *grid)
    with pytest.raises(ValueError, match="anchors"):
        anchor_coverage(anchors[:-1], box, *grid)
    with pytest.raises(ValueError, match="anchors"):
        anchor_coverage(anchors, box, grid[0], CANVAS, CANVAS / 2)
    with pytest.raises(ValueError):
        anchor_coverage(anchors, [], *grid)
    with pytest.raises(ValueError, match="empty ground-truth"):
        anchor_coverage(anchors, np.zeros((0, 4)), *grid)


def synthetic_table_boxes(rng, count=120):
    """Boxes with folded aspect ratios spread over [1, 60], random orientation."""
    boxes = []
    for _ in range(count):
        folded = rng.uniform(1.0, 60.0)
        side = rng.uniform(24.0, min(200.0, 450.0 / math.sqrt(folded)))
        tall = rng.random() < 0.5
        ratio = folded if tall else 1.0 / folded
        w = side / math.sqrt(ratio)
        h = side * math.sqrt(ratio)
        cx = rng.uniform(w / 2, CANVAS - w / 2)
        cy = rng.uniform(h / 2, CANVAS - h / 2)
        boxes.append(BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    return boxes


def test_tuned_ratio_list_beats_defaults():
    rng = random.Random(1234)
    gts = synthetic_table_boxes(rng)
    anchors, grid = grid_anchors(TABLE_ASPECT_RATIOS)
    tuned = anchor_coverage(anchors, gts, *grid)
    anchors, grid = grid_anchors(DEFAULT_ASPECT_RATIOS)
    default = anchor_coverage(anchors, gts, *grid)
    assert tuned.frac_iou50 > default.frac_iou50


def test_coverage_monotone_in_ratio_set():
    rng = random.Random(77)
    gts = synthetic_table_boxes(rng, count=60)
    subsets = [
        (1.0,),
        (0.5, 1.0, 2.0),
        (0.25, 0.5, 1.0, 2.0, 4.0),
        tuple(sorted(TABLE_ASPECT_RATIOS)),
    ]
    previous = None
    for ratios in subsets:
        anchors, grid = grid_anchors(ratios)
        best = best_iou_per_gt(anchors, gts, *grid)
        if previous is not None:
            assert (best >= previous - 1e-12).all()
        previous = best


# ------------------------------------------- nearest centre against the scan

@st.composite
def anchor_problems(draw):
    """A random image extent and boxes inside, across and outside it."""
    ratios = draw(st.lists(st.sampled_from(TABLE_ASPECT_RATIOS), min_size=1, max_size=6, unique=True))
    side = st.integers(1, 400).map(float) | st.floats(1.0, 400.0)
    width, height = draw(side), draw(side)
    extent = int(max(width, height))
    boxes = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):  # integer coordinates
            coord = st.integers(-extent, 2 * extent).map(float)
            length = st.integers(0, extent).map(float)
        else:
            coord = st.floats(-extent, 2 * extent)
            length = st.just(0.0) | st.floats(0.0, extent)
        x1, y1 = draw(coord), draw(coord)
        boxes.append([x1, y1, x1 + draw(length), y1 + draw(length)])
    return (tuple(sorted(ratios)), width, height), np.asarray(boxes)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(anchor_problems())
def test_nearest_centre_matches_full_scan(problem):
    grid, gts = problem
    anchors = generate_anchors(*grid)
    np.testing.assert_array_equal(anchors.view(np.int64), reference_anchors(*grid).view(np.int64))
    fast = best_iou_per_gt(anchors, gts, *grid)
    oracle = brute_force_best_iou(anchors, gts)
    np.testing.assert_allclose(fast, oracle, rtol=0.0, atol=1e-12)
    for threshold in (0.5, 0.7):
        np.testing.assert_array_equal(fast >= threshold, oracle >= threshold)
