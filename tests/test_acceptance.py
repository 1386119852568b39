"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import json
import os
import random
import time

import numpy as np
import pytest
from oracles import as_pairs, brute_force_tree_distance, interpolated_ap_oracle, random_small_tree

from tsrkit.anchors import (
    DEFAULT_ASPECT_RATIOS,
    TABLE_ASPECT_RATIOS,
    anchor_coverage,
    best_iou_per_gt,
    dataset_stats,
)
from tsrkit.cli import main as cli_main
from tsrkit.cocoeval import average_precision, evaluate_corpus, match_detections
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.geometry import BBox
from tsrkit.kernels import (
    DeformableParams,
    SeparableParams,
    SpatialAttentionParams,
    conv2d_depthwise,
    deformable_conv_forward,
    grad_check,
    separable_pair,
    spatial_attention_forward,
)
from tsrkit.kernels_selftest import (
    composite_attention_arrays,
    composite_attention_forward,
    composite_attention_vjp,
)
from tsrkit.labels import (
    AnnotationSet,
    ComponentClass,
    ComponentInstance,
    LabelMode,
    decode_pseudo,
    encode_pseudo,
)
from tsrkit.misalign import PerturbationMode, PerturbationSpec, misalignment_report
from tsrkit.reconstruct import build_grid, grid_to_html
from tsrkit.teds import corpus_teds, parse_table_html, teds, tree_edit_distance

from test_anchors import grid_anchors, synthetic_table_boxes


def report(criterion: int, text: str):
    print(f"[PASS] criterion {criterion}: {text}")


# -------------------------------------------------------------- criterion 1

def test_criterion_1_teds_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20240131)
    checked = 0
    for _ in range(200):
        a = random_small_tree(rng, max_nodes=8)
        b = random_small_tree(rng, max_nodes=8)
        dp = tree_edit_distance(a, b)
        oracle = brute_force_tree_distance(a, b)
        assert dp == oracle, f"DP {dp} != oracle {oracle}"
        assert float(dp).is_integer()
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"oracle comparison took {elapsed:.1f}s"
    report(1, f"DP equals brute-force oracle on {checked} pairs in {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2

ACCEPTANCE_SPEC = FixtureSpec(n_tables=30, seed=7)


def corpus_features(gt):
    sets = gt.annotation_sets()

    def of_class(ann, cls):
        return [inst for inst in ann.instances if inst.cls == cls]

    has_span = any(of_class(ann, ComponentClass.SPANNING_CELL) for ann in sets)
    has_header = any(of_class(ann, ComponentClass.COLUMN_HEADER) for ann in sets)
    has_projected = any(of_class(ann, ComponentClass.PROJECTED_ROW_HEADER) for ann in sets)
    has_pseudo_pattern = any(
        header.box == row.box
        for ann in sets
        for header in of_class(ann, ComponentClass.COLUMN_HEADER)
        for row in of_class(ann, ComponentClass.ROW)
    )
    return has_span, has_header, has_projected, has_pseudo_pattern


def test_criterion_2_perfect_prediction_end_to_end():
    gt, det = generate_fixtures(ACCEPTANCE_SPEC)
    assert len(gt.images) >= 20
    assert all(corpus_features(gt)), "fixture corpus must cover all four patterns"

    trees = gt.trees_by_image()
    pairs = [
        (parse_table_html(grid_to_html(build_grid(ann))), trees[ann.image_id])
        for ann in det.annotation_sets()
    ]
    result = corpus_teds(pairs)
    assert result.overall_mean == 1.0
    assert all(teds(pred, gt_tree) == 1.0 for pred, gt_tree in pairs)
    report(2, f"TEDS 1.0 on {len(pairs)} reconstructed fixtures (all four patterns present)")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_pseudo_class_round_trip():
    gt, _ = generate_fixtures(ACCEPTANCE_SPEC)
    for ann in gt.annotation_sets():
        encoded = encode_pseudo(ann)
        # single-label constraint: distinct classes never share a box
        for i, a in enumerate(encoded.instances):
            for b in encoded.instances[i + 1 :]:
                if a.cls != b.cls:
                    assert a.box.as_tuple() != b.box.as_tuple()
        assert as_pairs(decode_pseudo(encoded)) == as_pairs(ann)
    report(3, f"decode(encode(gt)) == gt on {len(gt.images)} fixtures; box constraint holds")


# -------------------------------------------------------------- criterion 4

def random_single_class_fixture(rng):
    n_gt = rng.randint(1, 6)
    gts = []
    x_cursor = 0.0
    for _ in range(n_gt):
        w = rng.uniform(20, 80)
        h = rng.uniform(20, 80)
        gts.append(ComponentInstance(BBox(x_cursor, 0, x_cursor + w, h), ComponentClass.ROW))
        x_cursor += w + 10.0
    preds = []
    for gt_inst in gts:
        if rng.random() < 0.8:
            jitter = rng.uniform(0, 12)
            box = gt_inst.box.inflate(jitter)
            preds.append(ComponentInstance(box, ComponentClass.ROW, rng.uniform(0.05, 1.0)))
    for _ in range(rng.randint(0, 3)):
        x = rng.uniform(500, 900)
        preds.append(
            ComponentInstance(BBox(x, 200, x + 40, 240), ComponentClass.ROW, rng.uniform(0.05, 1.0))
        )
    return preds, gts


def test_criterion_4_coco_ap_hand_checks():
    # [TP, FP] with 2 ground truths: 51 of 101 recall levels see precision 1
    assert abs(average_precision([True, False], 2) - 51.0 / 101.0) <= 1e-9

    gt, det = generate_fixtures(ACCEPTANCE_SPEC)
    preds = {a.image_id: list(a.instances) for a in det.annotation_sets()}
    gts = {a.image_id: list(a.instances) for a in gt.annotation_sets()}
    perfect = evaluate_corpus(preds, gts)
    for field in ("mean_ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
        value = getattr(perfect, field)
        assert value is not None and f"{value:.4f}" == "1.0000", (field, value)

    rng = random.Random(404)
    for fixture_index in range(100):
        preds_i, gts_i = random_single_class_fixture(rng)
        labels = match_detections(preds_i, gts_i, 0.5)
        base = average_precision(labels, len(gts_i))
        assert average_precision(labels + [True], len(gts_i)) >= base - 1e-12
        assert average_precision(labels + [False], len(gts_i)) <= base + 1e-12
        assert base == pytest.approx(
            interpolated_ap_oracle(labels, len(gts_i)), abs=1e-12
        )

        by_image_preds = {"img": preds_i}
        by_image_gts = {"img": gts_i}
        rescaled = {
            "img": [
                ComponentInstance(p.box, p.cls, p.score**2) for p in preds_i
            ]
        }
        assert evaluate_corpus(by_image_preds, by_image_gts) == evaluate_corpus(
            rescaled, by_image_gts
        ), f"rescaling changed AP on fixture {fixture_index}"
    report(4, "51/101 hand value, perfect-report 1.0000 fields, and 100-fixture properties")


# -------------------------------------------------------------- criterion 5

def synthetic_sets(object_counts):
    sets = []
    for i, count in enumerate(object_counts):
        instances = tuple(
            ComponentInstance(BBox(0, 0, 10 + j, 20), ComponentClass.ROW)
            for j in range(count)
        )
        sets.append(AnnotationSet(f"img{i}", instances, LabelMode.MULTI))
    return sets


def test_criterion_5_dataset_statistics():
    stats = dataset_stats(synthetic_sets([3, 5]))
    assert stats.n_images == 2
    assert stats.n_objects == 8
    assert stats.avg_objects_per_image == 4.0

    stats = dataset_stats(synthetic_sets([20, 21, 21]))
    assert stats.n_objects == 62
    assert stats.avg_objects_per_image == pytest.approx(62 / 3)

    # the published corpus-level ratios the averages must reproduce
    assert abs(1628298 / 78537 - 20.73) <= 0.01
    assert abs(860001 / 118287 - 7.27) <= 0.01

    optional = []
    for env, expected in (("TSRKIT_FINTABNET_GT", 20.73), ("TSRKIT_COCO_GT", 7.27)):
        path = os.environ.get(env)
        if not path or not os.path.exists(path):
            continue
        from tsrkit.formats import load_ground_truth

        stats = dataset_stats(load_ground_truth(path).annotation_sets())
        assert abs(stats.avg_objects_per_image - expected) <= 0.01
        optional.append(env)
    suffix = f"; verified local corpora {optional}" if optional else ""
    report(5, f"synthetic counts and averages exact{suffix}")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_anchor_coverage():
    rng = random.Random(1234)
    gts = synthetic_table_boxes(rng, count=120)
    anchors, grid = grid_anchors(TABLE_ASPECT_RATIOS)
    tuned = anchor_coverage(anchors, gts, *grid)
    anchors, grid = grid_anchors(DEFAULT_ASPECT_RATIOS)
    default = anchor_coverage(anchors, gts, *grid)
    assert tuned.frac_iou50 > default.frac_iou50

    growing = [(1.0,), (0.5, 1.0, 2.0), tuple(sorted(TABLE_ASPECT_RATIOS))]
    previous = None
    for ratios in growing:
        anchors, grid = grid_anchors(ratios)
        best = best_iou_per_gt(anchors, gts, *grid)
        if previous is not None:
            assert (best >= previous - 1e-12).all()
        previous = best
    report(
        6,
        f"tuned ratio coverage {tuned.frac_iou50:.3f} > default {default.frac_iou50:.3f}; "
        "monotone in the ratio set",
    )


# -------------------------------------------------------------- criterion 7

def test_criterion_7_kernels():
    started = time.monotonic()
    rng = np.random.default_rng(2718)

    x = rng.standard_normal((3, 9, 11))
    weights = rng.standard_normal((3, 3, 3))
    zero_offsets = np.zeros((18, 9, 11))
    gap = np.abs(
        deformable_conv_forward(x, DeformableParams(weights, zero_offsets))
        - conv2d_depthwise(x, weights)
    ).max()
    assert gap <= 1e-12

    for k in (7, 11, 21):
        xk = rng.standard_normal((2, 16, 16))
        params = SeparableParams(rng.standard_normal((2, k)), rng.standard_normal((2, k)))
        full = np.einsum("ci,cj->cij", params.vertical, params.horizontal)
        assert np.abs(
            separable_pair(xk, params) - conv2d_depthwise(xk, full)
        ).max() <= 1e-9

    for shape in ((1, 8, 8), (2, 12, 7), (4, 5, 16), (8, 3, 3)):
        attention_params = SpatialAttentionParams.random(shape[0], seed=5)
        assert spatial_attention_forward(rng.standard_normal(shape), attention_params).shape == shape

    composite_x = rng.standard_normal((2, 6, 6))
    composite_params = SpatialAttentionParams.random(2, seed=88)
    err = grad_check(
        composite_attention_forward,
        [composite_x, *composite_attention_arrays(composite_params)],
        composite_attention_vjp,
        epsilon=1e-5,
    )
    assert err <= 1e-4

    elapsed = time.monotonic() - started
    assert elapsed <= 120.0
    report(7, f"deformable/separable/attention/gradient bounds hold in {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_misalignment_reproduction():
    gt, _ = generate_fixtures(
        FixtureSpec(n_tables=8, seed=42, span_probability=0.0, header_probability=0.0)
    )
    trees = gt.trees_by_image()
    specs = [
        PerturbationSpec(PerturbationMode.DILATE, 2.0),
        PerturbationSpec(PerturbationMode.SNAP_TO_MINIMAL),
        PerturbationSpec(PerturbationMode.SHRINK, 4.0),
        PerturbationSpec(
            PerturbationMode.MERGE_ADJACENT,
            target_classes=frozenset({ComponentClass.ROW}),
        ),
    ]
    rows = misalignment_report(gt, trees, specs).rows
    dilate, snap, shrink, merge = rows
    assert dilate.mean_ap > snap.mean_ap
    assert dilate.teds_overall == snap.teds_overall
    assert merge.mean_ap > shrink.mean_ap
    assert merge.teds_overall < snap.teds_overall
    report(
        8,
        "mAP(dilate) %.3f > mAP(snap) %.3f with equal TEDS; TEDS(merge) %.3f < TEDS(snap) %.3f"
        % (dilate.mean_ap, snap.mean_ap, merge.teds_overall, snap.teds_overall),
    )


# -------------------------------------------------------------- criterion 9

def test_criterion_9_cli_determinism(tmp_path):
    outputs = []
    for round_name in ("one", "two"):
        base = tmp_path / round_name
        base.mkdir()
        prefix = str(base / "fx")
        assert cli_main(["gen-fixtures", "-o", prefix, "--tables", "6", "--seed", "13"]) == 0
        html_dir = str(base / "html")
        assert cli_main(["reconstruct", f"{prefix}.pred.json", "-o", html_dir]) == 0
        encoded = str(base / "single.json")
        assert cli_main(["encode-labels", f"{prefix}.gt.json", "-o", encoded]) == 0
        decoded = str(base / "multi.json")
        assert cli_main(["decode-labels", encoded, "-o", decoded]) == 0
        csv_path = str(base / "report.csv")
        assert (
            cli_main(
                ["misalign", f"{prefix}.gt.json", "--spec", "dilate:0", "--spec", "snap",
                 "--csv", csv_path]
            )
            == 0
        )
        stats_csv = str(base / "hist.csv")
        assert cli_main(["stats", f"{prefix}.gt.json", "--csv", stats_csv]) == 0

        round_bytes = {}
        for root, _, files in os.walk(base):
            for name in sorted(files):
                path = os.path.join(root, name)
                rel = os.path.relpath(path, base)
                with open(path, "rb") as handle:
                    round_bytes[rel] = handle.read()
        outputs.append(round_bytes)

    assert outputs[0].keys() == outputs[1].keys()
    for rel in outputs[0]:
        assert outputs[0][rel] == outputs[1][rel], f"{rel} differs between reruns"
    # sanity: the corpus files really carry content
    assert any(rel.endswith(".gt.json") for rel in outputs[0])
    parsed = json.loads(outputs[0]["fx.gt.json"].decode())
    assert parsed["images"]
    report(9, f"{len(outputs[0])} CLI output files byte-identical across reruns")
