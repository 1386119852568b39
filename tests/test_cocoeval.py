import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import interpolated_ap_oracle, reference_evaluate_corpus

from tsrkit import cocoeval
from tsrkit.cocoeval import (
    ApReport,
    MatchConfig,
    average_precision,
    evaluate_corpus,
    match_detections,
)
from tsrkit.errors import CorpusError
from tsrkit.fixtures import FixtureSpec, generate_fixtures
from tsrkit.geometry import BBox
from tsrkit.labels import MULTI_LABEL_CLASSES, ComponentClass, ComponentInstance, Instances


def box(x1, y1, x2, y2):
    return BBox(x1, y1, x2, y2)


def pred(b, score, cls=ComponentClass.ROW):
    return ComponentInstance(b, cls, score)


def gt(b, cls=ComponentClass.ROW):
    return ComponentInstance(b, cls)


# ----------------------------------------------------------------- matching

def test_match_perfect():
    b = box(0, 0, 10, 10)
    assert match_detections([pred(b, 0.9)], [gt(b)], 0.5) == [True]


def test_match_below_threshold():
    assert match_detections(
        [pred(box(0, 0, 10, 4), 0.9)], [gt(box(0, 0, 10, 10))], 0.5
    ) == [False]


def test_match_single_gt_claimed_once():
    b = box(0, 0, 10, 10)
    labels = match_detections([pred(b, 0.9), pred(b, 0.8)], [gt(b)], 0.5)
    assert labels == [True, False]


def test_match_orders_by_confidence():
    good = box(0, 0, 10, 10)
    labels = match_detections([pred(good, 0.5), pred(good, 0.9)], [gt(good)], 0.5)
    # the 0.9 prediction is scored first and claims the ground truth
    assert labels == [True, False]


def test_match_requires_confidence():
    with pytest.raises(ValueError):
        match_detections([gt(box(0, 0, 1, 1))], [gt(box(0, 0, 1, 1))], 0.5)


def test_match_prefers_highest_iou():
    target_a = gt(box(0, 0, 10, 10))
    target_b = gt(box(0, 0, 10, 8))
    p = pred(box(0, 0, 10, 9), 0.9)
    labels = match_detections([p], [target_a, target_b], 0.5)
    assert labels == [True]
    # second prediction must fall back to the other ground truth
    labels = match_detections([p, pred(box(0, 0, 10, 9), 0.8)], [target_a, target_b], 0.5)
    assert labels == [True, True]


# --------------------------------------------------------------------- AP

def test_ap_single_tp():
    assert average_precision([True], 1) == 1.0


def test_ap_single_fp():
    assert average_precision([False], 1) == 0.0


def test_ap_tp_fp_two_gt():
    expected = interpolated_ap_oracle([True, False], 2)
    assert expected == pytest.approx(51.0 / 101.0)
    assert average_precision([True, False], 2) == pytest.approx(expected, abs=1e-9)


def test_ap_tp_only_half_recall():
    expected = interpolated_ap_oracle([True], 2)
    assert average_precision([True], 2) == pytest.approx(expected, abs=1e-12)


def test_ap_matches_oracle_randomized():
    rng = random.Random(88)
    for _ in range(200):
        n_gt = rng.randint(1, 8)
        flags = [rng.random() < 0.6 for _ in range(rng.randint(0, 10))]
        while sum(flags) > n_gt:
            flags[flags.index(True)] = False
        assert average_precision(flags, n_gt) == pytest.approx(
            interpolated_ap_oracle(flags, n_gt), abs=1e-12
        )


def test_ap_negative_gt_rejected():
    with pytest.raises(ValueError):
        average_precision([True], -1)


def test_ap_monotonicity():
    rng = random.Random(4)
    for _ in range(100):
        n_gt = rng.randint(2, 8)
        flags = [rng.random() < 0.5 for _ in range(rng.randint(1, 8))]
        while sum(flags) > n_gt - 1:
            flags[flags.index(True)] = False
        base = average_precision(flags, n_gt)
        assert average_precision(flags + [True], n_gt) >= base - 1e-12
        assert average_precision(flags + [False], n_gt) <= base + 1e-12


# ----------------------------------------------------------------- corpus

def corpus_from_fixture(n_tables=10, seed=0):
    gt_file, det_file = generate_fixtures(FixtureSpec(n_tables=n_tables, seed=seed))
    preds = {a.image_id: list(a.instances) for a in det_file.annotation_sets()}
    gts = {a.image_id: list(a.instances) for a in gt_file.annotation_sets()}
    return preds, gts


def test_corpus_perfect_predictions():
    preds, gts = corpus_from_fixture(seed=7, n_tables=30)
    report = evaluate_corpus(preds, gts)
    assert report.mean_ap == 1.0
    assert report.ap50 == 1.0
    assert report.ap75 == 1.0
    assert report.ap_small == 1.0
    assert report.ap_medium == 1.0
    assert report.ap_large == 1.0
    assert all(v == 1.0 for v in report.per_class.values())


def test_corpus_empty_predictions():
    preds, gts = corpus_from_fixture(seed=3)
    report = evaluate_corpus({k: [] for k in preds}, gts)
    assert report.mean_ap == 0.0
    assert report.ap50 == 0.0


def test_corpus_unknown_image_rejected():
    preds, gts = corpus_from_fixture(seed=3)
    preds["phantom"] = []
    with pytest.raises(CorpusError):
        evaluate_corpus(preds, gts)


def test_corpus_one_tp_one_fn():
    b1 = box(0, 0, 60, 60)
    b2 = box(100, 100, 160, 160)
    gts = {"a": [gt(b1)], "b": [gt(b2)]}
    preds = {"a": [pred(b1, 0.9)], "b": []}
    report = evaluate_corpus(preds, gts, MatchConfig(iou_thresholds=(0.5,)))
    expected = interpolated_ap_oracle([True], 2)
    assert report.per_class[ComponentClass.ROW] == pytest.approx(expected)
    assert expected == pytest.approx(51.0 / 101.0)


def test_corpus_confidence_rescaling_invariance():
    rng = random.Random(12)
    preds, gts = corpus_from_fixture(seed=9)
    # degrade scores randomly but keep ordering under a monotone map
    noisy = {
        k: [
            ComponentInstance(p.box, p.cls, min(1.0, max(0.0, 0.2 + 0.6 * rng.random())))
            for p in v
        ]
        for k, v in preds.items()
    }
    rescaled = {
        k: [ComponentInstance(p.box, p.cls, p.score**3) for p in v]
        for k, v in noisy.items()
    }
    a = evaluate_corpus(noisy, gts)
    b = evaluate_corpus(rescaled, gts)
    assert a == b


def test_corpus_image_order_invariance():
    preds, gts = corpus_from_fixture(seed=5)
    shuffled_preds = dict(reversed(list(preds.items())))
    shuffled_gts = dict(reversed(list(gts.items())))
    assert evaluate_corpus(preds, gts) == evaluate_corpus(shuffled_preds, shuffled_gts)


def test_corpus_threshold_monotonicity():
    rng = random.Random(31)
    preds, gts = corpus_from_fixture(seed=31)
    jittered = {
        k: [
            ComponentInstance(p.box.inflate(rng.uniform(0, 4)), p.cls, rng.uniform(0.5, 1.0))
            for p in v
        ]
        for k, v in preds.items()
    }
    report = evaluate_corpus(jittered, gts)
    strict = evaluate_corpus(
        jittered, gts, MatchConfig(iou_thresholds=(0.95,))
    )
    assert report.ap50 >= report.mean_ap >= strict.mean_ap


@pytest.mark.parametrize("field", ["iou_thresholds"])
def test_match_config_rejects_empty_tuples(field):
    # used to reach evaluate_corpus and divide by zero there
    with pytest.raises(ValueError, match=f"{field} must not be empty"):
        MatchConfig(**{field: ()})


@pytest.mark.parametrize(
    "field, value",
    [
        ("iou_thresholds", (math.nan,)),  # used to report AP = 0.0
        ("iou_thresholds", (0.0,)),
        ("iou_thresholds", (-0.5, 0.5)),
        ("iou_thresholds", (0.5, 1.5)),
        ("iou_thresholds", (0.5, math.nan)),
        ("iou_thresholds", (True,)),
        ("iou_thresholds", ("0.5",)),
        ("iou_thresholds", (0.5, 0.5)),  # not strictly increasing
        ("iou_thresholds", (0.75, 0.5)),
        ("max_detections_per_image", True),
        ("max_detections_per_image", 2.5),  # used to raise a bare TypeError when evaluated
        ("max_detections_per_image", "3"),
        ("max_detections_per_image", 0),
    ],
)
def test_match_config_rejects_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        MatchConfig(**{field: value})


def noisy_corpus(seed=6, n_tables=12):
    """Jittered, partly dropped predictions plus false positives of every class.

    Scores are rounded to 0.1, so confidence ties cross images and classes
    and the tie order decides the AP.
    """
    rng = random.Random(seed)
    preds, gts = corpus_from_fixture(n_tables=n_tables, seed=seed)
    noisy = {}
    for image_id, insts in preds.items():
        out = []
        for p in insts:
            if rng.random() < 0.1:
                continue
            b = p.box
            x1, x2 = sorted((b.x1 + rng.uniform(-3, 3), b.x2 + rng.uniform(-3, 3)))
            y1, y2 = sorted((b.y1 + rng.uniform(-3, 3), b.y2 + rng.uniform(-3, 3)))
            out.append(ComponentInstance(BBox(x1, y1, x2, y2), p.cls, round(rng.uniform(0.3, 1.0), 1)))
        for _ in range(rng.randint(0, 4)):
            x, y = rng.uniform(0, 300), rng.uniform(0, 150)
            fp = BBox(x, y, x + rng.uniform(5, 150), y + rng.uniform(5, 60))
            out.append(ComponentInstance(fp, rng.choice(MULTI_LABEL_CLASSES), round(rng.uniform(0.0, 0.6), 1)))
        noisy[image_id] = out
    return noisy, gts


# Exact reports on the noisy corpus. They pin the cross-image order of
# confidence ties, the per-image cap and AP50/AP75 under thresholds that
# omit them, so any restructuring of the evaluation must keep every float.
PINNED_REPORTS = [
    (
        MatchConfig(),
        ApReport(
            mean_ap=0.698209787391939,
            ap50=0.8814923616903814,
            ap75=0.8401245802235904,
            ap_small=0.35069306930693067,
            ap_medium=0.4143963801142019,
            ap_large=0.8195219385233068,
            per_class={
                ComponentClass.TABLE: 0.9238566713814249,
                ComponentClass.COLUMN: 0.7594071128461086,
                ComponentClass.ROW: 0.6751447122441697,
                ComponentClass.SPANNING_CELL: 0.46435643564356444,
                ComponentClass.PROJECTED_ROW_HEADER: 0.7504950495049505,
                ComponentClass.COLUMN_HEADER: 0.6159987427314154,
            },
        ),
    ),
    (
        MatchConfig(max_detections_per_image=3),
        ApReport(
            mean_ap=0.6287333666306977,
            ap50=0.7912410288647912,
            ap75=0.7536206001552537,
            ap_small=0.35069306930693067,
            ap_medium=0.35633731230265875,
            ap_large=0.732376685332943,
            per_class={
                ComponentClass.TABLE: 0.9238566713814249,
                ComponentClass.COLUMN: 0.5777130579930829,
                ComponentClass.ROW: 0.4399802425297474,
                ComponentClass.SPANNING_CELL: 0.46435643564356444,
                ComponentClass.PROJECTED_ROW_HEADER: 0.7504950495049505,
                ComponentClass.COLUMN_HEADER: 0.6159987427314154,
            },
        ),
    ),
    (
        # AP50 and AP75 are still reported when the thresholds omit them
        MatchConfig(iou_thresholds=(0.95,)),
        ApReport(
            mean_ap=0.11296925938015055,
            ap50=0.8814923616903814,
            ap75=0.8401245802235904,
            ap_small=0.0,
            ap_medium=0.0,
            ap_large=0.21470527327458017,
            per_class={
                ComponentClass.TABLE: 0.47194719471947233,
                ComponentClass.COLUMN: 0.1072592149324823,
                ComponentClass.ROW: 0.02788778877887789,
                ComponentClass.SPANNING_CELL: 0.0,
                ComponentClass.PROJECTED_ROW_HEADER: 0.0,
                ComponentClass.COLUMN_HEADER: 0.0707213578500707,
            },
        ),
    ),
]


@pytest.mark.parametrize("cfg,expected", PINNED_REPORTS, ids=["default", "cap3", "only0.95"])
def test_corpus_pinned_reports(cfg, expected):
    preds, gts = noisy_corpus()
    assert evaluate_corpus(preds, gts, cfg) == expected


# ------------------------------------------------- oracle: list-based AP

# Every box of an image takes one of two sizes and sits at x = 0, 8 or 16
# and y = 0 or 8. Equal boxes 16 px apart tie on IoU with the box halfway
# between them; a later prediction on one of them makes the tie order show,
# so images may carry that pattern on purpose. They may also carry a contest:
# one box with two predictions on it, which both reach any threshold when the
# box has an area, and a third beside it. The sizes include zero areas and areas of exactly
# 32**2 and 64**2. Ground truth has two classes; predictions add a third
# that only they carry.
SIDES = st.sampled_from((0.0, 8.0, 16.0, 32.0, 40.0, 64.0, 72.0))
GT_CLASSES = (ComponentClass.ROW, ComponentClass.COLUMN)
PRED_CLASSES = (*GT_CLASSES, ComponentClass.TABLE)
SLOTS = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))  # x, y, size
ORACLE_CONFIGS = (
    MatchConfig(),
    MatchConfig(max_detections_per_image=1),
    MatchConfig(max_detections_per_image=2),
    MatchConfig(max_detections_per_image=3),
    MatchConfig(iou_thresholds=(0.95,)),
    MatchConfig(iou_thresholds=(0.6, 0.7)),
    MatchConfig(iou_thresholds=(0.6, 0.7), max_detections_per_image=2),
)


@st.composite
def ap_problems(draw):
    preds, gts = {}, {}
    for k in range(draw(st.integers(1, 4))):
        sizes = [(draw(SIDES), draw(SIDES)) for _ in range(2)]

        def box(slot):
            i, j, s = slot
            return BBox(8.0 * i, 8.0 * j, 8.0 * i + sizes[s][0], 8.0 * j + sizes[s][1])

        gt_specs = st.tuples(SLOTS, st.sampled_from(GT_CLASSES))
        pred_specs = st.tuples(SLOTS, st.sampled_from(PRED_CLASSES), st.integers(0, 10))
        gt_list = draw(st.lists(gt_specs, max_size=5))
        pred_list = draw(st.lists(pred_specs, max_size=8))
        if draw(st.booleans()):  # two boxes 16 px apart, one prediction halfway, one on either box
            size, cls = draw(st.integers(0, 1)), draw(st.sampled_from(GT_CLASSES))
            gt_list += [((0, 0, size), cls), ((2, 0, size), cls)]
            for x in (1, draw(st.sampled_from((0, 2)))):
                pred_list.append(((x, 0, size), cls, draw(st.integers(0, 10))))
        if draw(st.booleans()):  # a contest: two predictions on one box, a third 8 px beside it
            (x, y, size), cls = draw(SLOTS), draw(st.sampled_from(GT_CLASSES))
            gt_list.append(((x, y, size), cls))
            for slot in ((x, y, size), (x, y, size), (1 - x % 2, y, size)):
                pred_list.append((slot, cls, draw(st.integers(0, 10))))
        gts[f"img{k}"] = [ComponentInstance(box(slot), cls) for slot, cls in gt_list]
        if draw(st.booleans()):
            continue  # an image without predictions
        preds[f"img{k}"] = [
            ComponentInstance(box(slot), cls, tenths / 10)  # scores in tenths: confidence ties
            for slot, cls, tenths in pred_list
        ]
    return preds, gts, draw(st.sampled_from(ORACLE_CONFIGS))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(ap_problems())
def test_evaluate_corpus_matches_list_based_oracle(problem):
    preds, gts, cfg = problem
    assert evaluate_corpus(preds, gts, cfg) == reference_evaluate_corpus(preds, gts, cfg)


# Budgets of 1 and 3 pairs split the corpus into runs of one image or of a
# few, and put most images over budget.
@pytest.mark.parametrize("budget", [1, 3])
@settings(max_examples=120, derandomize=True, deadline=None)
@given(problem=ap_problems())
def test_evaluate_corpus_matches_the_oracle_in_small_runs(budget, problem):
    preds, gts, cfg = problem
    with mock.patch.object(cocoeval, "_PAIR_BUDGET", budget):
        assert evaluate_corpus(preds, gts, cfg) == reference_evaluate_corpus(preds, gts, cfg)


def row(y):
    return box(0, y, 100, y + 10)


# Image a has 3 x 2 Row pairs, b no predictions, c no ground truth and d
# 2 x 3 Row pairs. Under a budget of 1 or 4, a and d are over budget and runs
# of their own, with b and c between them; a budget of 8 falls inside d,
# which starts the second run.
RUN_CORPUS = (
    {
        "a": [pred(row(0), 0.9), pred(row(1), 0.8), pred(row(10), 0.7)],
        "c": [pred(row(0), 0.6)],
        "d": [pred(row(0), 0.5), pred(row(20), 0.4)],
    },
    {"a": [gt(row(0)), gt(row(10))], "b": [gt(row(0))], "c": [], "d": [gt(row(0)), gt(row(10)), gt(row(20))]},
)


@pytest.mark.parametrize("budget, run_pairs", [(1, [6, 0, 6]), (4, [6, 0, 6]), (8, [6, 6]), (1 << 12, [12])])
def test_runs_hold_whole_images(monkeypatch, budget, run_pairs):
    preds, gts = RUN_CORPUS
    seen, original = [], cocoeval.iou_array

    def iou_array(a, b):
        seen.append(len(a))
        return original(a, b)

    monkeypatch.setattr(cocoeval, "_PAIR_BUDGET", budget)
    monkeypatch.setattr(cocoeval, "iou_array", iou_array)
    cfg = MatchConfig(iou_thresholds=(0.5, 0.9))
    report = evaluate_corpus(preds, gts, cfg)
    assert seen == run_pairs  # each image's pairs once, in one run
    assert report == reference_evaluate_corpus(preds, gts, cfg)


def dense_corpus(n_tables, n_false=90, seed=4):
    """Fixture ground truth with about 100 detections per image, as a detector gives them.

    Each ground-truth box comes back jittered by up to 2 px and scored 0.55-1.0,
    followed by ``n_false`` false positives of any class scored below 0.45.
    """
    rng = np.random.default_rng(seed)
    gt_file, _ = generate_fixtures(FixtureSpec(n_tables=n_tables, seed=seed))
    preds, gts = {}, {}
    for ann in gt_file.annotation_sets():
        truth = gts[ann.image_id] = Instances.pack(ann.instances)
        n = len(truth)
        x, y = rng.uniform(0, 300, n_false), rng.uniform(0, 150, n_false)
        false = np.stack([x, y, x + rng.uniform(5, 150, n_false), y + rng.uniform(5, 60, n_false)], axis=1)
        preds[ann.image_id] = Instances(
            np.concatenate([truth.boxes + rng.uniform(-2, 2, (n, 4)), false]),
            np.concatenate([truth.classes, rng.choice(np.array(MULTI_LABEL_CLASSES, np.int8), n_false)]),
            np.concatenate([rng.uniform(0.55, 1.0, n), rng.uniform(0.0, 0.45, n_false)]),
        )
    return preds, gts


# Bytes a detection's corpus-wide columns take (box, class, score, size, the
# confidence order and the pair index), and bytes a pair of a run takes
# (ids, gathered boxes and the IoU temporaries), both with some room.
COLUMN_BYTES_PER_DETECTION = 160
RUN_BYTES_PER_PAIR = 200
RUN_PAIRS = 1 << 12  # cocoeval._PAIR_BUDGET, written out so that a larger budget fails


def test_evaluate_corpus_memory_follows_detections_and_runs_not_pairs():
    preds, gts = dense_corpus(100)
    n_pred = sum(map(len, preds.values()))
    n_pairs = sum(
        np.count_nonzero(p.classes[:, None] == g.classes[None, :]) for p, g in zip(preds.values(), gts.values())
    )
    assert n_pairs > 4 * RUN_PAIRS  # several runs' worth: scored all at once, they would pass the bound
    evaluate_corpus(preds, gts)  # first calls may fill caches
    tracemalloc.start()
    try:
        evaluate_corpus(preds, gts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= COLUMN_BYTES_PER_DETECTION * n_pred + RUN_BYTES_PER_PAIR * RUN_PAIRS
