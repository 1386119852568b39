import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_best_iou

from tsrkit.anchors import (
    AnchorConfig,
    DEFAULT_ASPECT_RATIOS,
    TABLE_ASPECT_RATIOS,
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


def test_dataset_stats_rejects_empty():
    with pytest.raises(ValueError):
        dataset_stats([])


# ----------------------------------------------------------------- anchors

def test_generate_single_centered_anchor():
    cfg = AnchorConfig(aspect_ratios=(1.0,), strides=(32,), scales=(32.0,))
    anchors = generate_anchors(cfg, [(1, 1)])
    assert anchors.shape == (1, 4)
    np.testing.assert_allclose(anchors[0], [0.0, 0.0, 32.0, 32.0])


def test_generate_ratio_shapes():
    cfg = AnchorConfig(aspect_ratios=(4.0,), strides=(32,), scales=(32.0,))
    (anchor,) = generate_anchors(cfg, [(1, 1)])
    width = anchor[2] - anchor[0]
    height = anchor[3] - anchor[1]
    assert width == pytest.approx(32.0 / math.sqrt(4.0))
    assert height == pytest.approx(32.0 * math.sqrt(4.0))


def test_generate_count():
    cfg = AnchorConfig(aspect_ratios=tuple(sorted(TABLE_ASPECT_RATIOS)), strides=(16,))
    anchors = generate_anchors(cfg, [(2, 2)])
    assert anchors.shape == (2 * 2 * 13, 4)


def test_generated_anchor_area_and_ratio():
    cfg = AnchorConfig()
    sizes = [(4, 4)] * len(cfg.strides)
    anchors = generate_anchors(cfg, sizes)
    ratios = np.tile(np.asarray(cfg.aspect_ratios), anchors.shape[0] // 13)
    widths = anchors[:, 2] - anchors[:, 0]
    heights = anchors[:, 3] - anchors[:, 1]
    scales = np.repeat(
        [8.0 * s for s in cfg.strides], [16 * 13] * len(cfg.strides)
    )
    np.testing.assert_allclose(widths * heights, scales**2, rtol=1e-6)
    np.testing.assert_allclose(heights / widths, ratios, rtol=1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        AnchorConfig(aspect_ratios=(2.0, 1.0))
    with pytest.raises(ValueError):
        AnchorConfig(aspect_ratios=(0.0, 1.0))
    with pytest.raises(ValueError):
        AnchorConfig(scales=(8.0,), strides=(4, 8))


ONE_LEVEL = AnchorConfig(aspect_ratios=(1.0,), strides=(8,))


def one_level_best_iou(gts):
    anchors = generate_anchors(ONE_LEVEL, [(2, 2)])
    return best_iou_per_gt(anchors, np.asarray(gts), ONE_LEVEL, [(2, 2)])


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: AnchorConfig(aspect_ratios=(math.nan,)), "aspect_ratios"),
        (lambda: AnchorConfig(aspect_ratios=(math.inf,)), "aspect_ratios"),
        (lambda: AnchorConfig(aspect_ratios=(1.0, math.nan)), "aspect_ratios"),
        (lambda: AnchorConfig(aspect_ratios=()), "aspect_ratios"),
        (lambda: AnchorConfig(aspect_ratios=(1.0, 1.0)), "aspect_ratios"),
        (lambda: AnchorConfig(strides=()), "strides"),
        (lambda: AnchorConfig(strides=(0,)), "strides"),
        (lambda: AnchorConfig(strides=(-4,)), "strides"),
        (lambda: AnchorConfig(strides=(4,), scales=(0.0,)), "scales"),
        (lambda: AnchorConfig(strides=(4,), scales=(math.nan,)), "scales"),
        (lambda: generate_anchors(ONE_LEVEL, [(0, 5)]), "feature_map_sizes"),
        (lambda: generate_anchors(ONE_LEVEL, [(-2, 5)]), "feature_map_sizes"),
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
    """Anchors over the canvas, with the config and sizes that made them."""
    cfg = AnchorConfig(aspect_ratios=tuple(sorted(ratios)))
    sizes = [
        (math.ceil(CANVAS / s), math.ceil(CANVAS / s)) for s in cfg.strides
    ]
    return generate_anchors(cfg, sizes), cfg, sizes


def test_coverage_anchors_equal_gts():
    # one 1x1 level per box, its single anchor equal to the box
    cfg = AnchorConfig(aspect_ratios=(1.0,), strides=(10, 55), scales=(10.0, 45.0))
    sizes = [(1, 1), (1, 1)]
    anchors = generate_anchors(cfg, sizes)
    np.testing.assert_array_equal(anchors, [[0, 0, 10, 10], [5, 5, 50, 50]])
    report = anchor_coverage(anchors, anchors, cfg, sizes)
    assert report.frac_iou50 == 1.0
    assert report.frac_iou70 == 1.0
    assert report.mean_best_iou == 1.0


def test_extreme_ratio_needs_extreme_anchor():
    # height/width ratio 40, centered near an anchor center
    target = BBox(250.0, 50.0, 260.0, 450.0)
    anchors, cfg, sizes = grid_anchors(DEFAULT_ASPECT_RATIOS)
    default = best_iou_per_gt(anchors, [target], cfg, sizes)
    anchors, cfg, sizes = grid_anchors(TABLE_ASPECT_RATIOS)
    tuned = best_iou_per_gt(anchors, [target], cfg, sizes)
    assert default[0] < 0.5
    assert tuned[0] >= 0.5


def test_coverage_errors():
    anchors, cfg, sizes = grid_anchors(DEFAULT_ASPECT_RATIOS)
    box = [BBox(0, 0, 1, 1)]
    with pytest.raises(ValueError, match="anchors"):
        anchor_coverage(np.zeros((0, 4)), box, cfg, sizes)
    with pytest.raises(ValueError, match="anchors"):
        anchor_coverage(anchors[:-1], box, cfg, sizes)
    with pytest.raises(ValueError):
        anchor_coverage(anchors, [], cfg, sizes)
    with pytest.raises(ValueError, match="empty ground-truth"):
        anchor_coverage(anchors, np.zeros((0, 4)), cfg, sizes)


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
    anchors, cfg, sizes = grid_anchors(TABLE_ASPECT_RATIOS)
    tuned = anchor_coverage(anchors, gts, cfg, sizes)
    anchors, cfg, sizes = grid_anchors(DEFAULT_ASPECT_RATIOS)
    default = anchor_coverage(anchors, gts, cfg, sizes)
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
        anchors, cfg, sizes = grid_anchors(ratios)
        best = best_iou_per_gt(anchors, gts, cfg, sizes)
        if previous is not None:
            assert (best >= previous - 1e-12).all()
        previous = best


# ------------------------------------------- nearest centre against the scan

@st.composite
def anchor_problems(draw):
    """A random grid and boxes inside, across and outside its extent."""
    ratios = draw(st.lists(st.sampled_from(TABLE_ASPECT_RATIOS), min_size=1, max_size=6, unique=True))
    levels = draw(st.integers(1, 3))
    strides = draw(st.lists(st.integers(1, 48), min_size=levels, max_size=levels))
    scales = draw(
        st.none() | st.lists(st.floats(1.0, 200.0), min_size=levels, max_size=levels).map(tuple)
    )
    cfg = AnchorConfig(aspect_ratios=tuple(sorted(ratios)), strides=tuple(strides), scales=scales)
    sizes = [(draw(st.integers(1, 6)), draw(st.integers(1, 6))) for _ in strides]
    extent = max(max(h, w) * s for (h, w), s in zip(sizes, strides))
    boxes = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):  # integer coordinates
            coord = st.integers(-extent, 2 * extent).map(float)
            side = st.integers(0, extent).map(float)
        else:
            coord = st.floats(-extent, 2 * extent)
            side = st.just(0.0) | st.floats(0.0, extent)
        x1, y1 = draw(coord), draw(coord)
        boxes.append([x1, y1, x1 + draw(side), y1 + draw(side)])
    return cfg, sizes, np.asarray(boxes)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(anchor_problems())
def test_nearest_centre_matches_full_scan(problem):
    cfg, sizes, gts = problem
    anchors = generate_anchors(cfg, sizes)
    fast = best_iou_per_gt(anchors, gts, cfg, sizes)
    oracle = brute_force_best_iou(anchors, gts)
    np.testing.assert_allclose(fast, oracle, rtol=0.0, atol=1e-12)
    for threshold in (0.5, 0.7):
        np.testing.assert_array_equal(fast >= threshold, oracle >= threshold)
