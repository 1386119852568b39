"""Independent reference implementations the tests check the library against.

Nothing here shares code paths with the library: the tree distance oracle
enumerates edit mappings instead of running the forest DP, the AP oracle
evaluates the interpolation definition directly, the anchor oracle scores
every anchor instead of the nearest one per level and ratio, and the
convolution oracle is plain nested loops.
"""

from __future__ import annotations

import random

import numpy as np

from tsrkit.teds import EditCosts, TableTree


def _postorder(root: TableTree) -> list[TableTree]:
    out = []

    def visit(node):
        for child in node.children:
            visit(child)
        out.append(node)

    visit(root)
    return out


def _subtree_intervals(root: TableTree) -> list[tuple[int, int]]:
    """Per postorder index: [first descendant index, own index]."""
    intervals = []
    counter = [0]

    def visit(node):
        first = counter[0]
        for child in node.children:
            visit(child)
        intervals.append((first, counter[0]))
        counter[0] += 1

    visit(root)
    intervals.sort(key=lambda pair: pair[1])
    return intervals


def rename_cost(costs: EditCosts, u: TableTree, v: TableTree) -> float:
    """Free between equal tags (and, for cells, equal spans); the mismatch cost otherwise."""
    def key(node):
        return (node.tag, node.colspan, node.rowspan) if node.tag == "td" else (node.tag,)

    return 0.0 if key(u) == key(v) else costs.rename_mismatch_cost


def brute_force_tree_distance(a: TableTree, b: TableTree, costs: EditCosts | None = None) -> float:
    """Minimum edit-mapping cost by exhaustive backtracking (small trees only).

    A valid mapping pairs nodes one-to-one, preserving postorder and the
    ancestor relation; its cost is the paired rename costs plus deletions and
    insertions for the unpaired rest.
    """
    costs = costs or EditCosts()
    nodes_a = _postorder(a)
    nodes_b = _postorder(b)
    iv_a = _subtree_intervals(a)
    iv_b = _subtree_intervals(b)
    n1, n2 = len(nodes_a), len(nodes_b)

    def is_ancestor(intervals, i, j) -> bool:
        lo, hi = intervals[i]
        return lo <= j < hi

    best = [float("inf")]

    def search(ai: int, bj_min: int, pairs: list, rename_total: float):
        if ai == n1:
            cost = (
                rename_total
                + (n1 - len(pairs)) * costs.delete_cost
                + (n2 - len(pairs)) * costs.insert_cost
            )
            best[0] = min(best[0], cost)
            return
        # lower bound: every remaining a-node costs at least a delete if unmapped
        search(ai + 1, bj_min, pairs, rename_total)
        for bj in range(bj_min, n2):
            if all(
                is_ancestor(iv_a, ai, pi) == is_ancestor(iv_b, bj, pj)
                for pi, pj in pairs
            ):
                pairs.append((ai, bj))
                search(
                    ai + 1,
                    bj + 1,
                    pairs,
                    rename_total + rename_cost(costs, nodes_a[ai], nodes_b[bj]),
                )
                pairs.pop()

    search(0, 0, [], 0.0)
    return best[0]


def random_small_tree(rng: random.Random, max_nodes: int = 8) -> TableTree:
    """Random ordered labeled tree; labels exercise the td span comparison."""
    def random_node():
        tag = rng.choice(("table", "tbody", "tr", "td", "td"))
        if tag == "td":
            return TableTree("td", colspan=rng.choice((1, 1, 2)), rowspan=rng.choice((1, 1, 2)))
        return TableTree(tag)

    root = random_node()
    nodes = [root]
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(nodes)
        child = random_node()
        parent.children.append(child)
        nodes.append(child)
    return root


def interpolated_ap_oracle(tp_flags: list[bool], n_gt: int, levels: int = 101) -> float:
    """AP by the definition: max precision over operating points at recall >= r."""
    if n_gt == 0:
        return 0.0
    points = []
    tp = 0
    for k, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        points.append((tp / n_gt, tp / k))
    total = 0.0
    for i in range(levels):
        level = i / (levels - 1)
        reachable = [precision for recall, precision in points if recall >= level]
        total += max(reachable) if reachable else 0.0
    return total / levels


def naive_depthwise_conv(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Direct nested-loop depthwise convolution with zero padding."""
    channels, height, width = x.shape
    kh, kw = kernels.shape[1:]
    out = np.zeros_like(x)
    for c in range(channels):
        for y in range(height):
            for xx in range(width):
                acc = 0.0
                for dy in range(kh):
                    for dx in range(kw):
                        sy = y + dy - kh // 2
                        sx = xx + dx - kw // 2
                        if 0 <= sy < height and 0 <= sx < width:
                            acc += kernels[c, dy, dx] * x[c, sy, sx]
                out[c, y, xx] = acc
    return out


def brute_force_best_iou(anchors: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """Best IoU per ground-truth box over every anchor.

    The all-anchor scan that ``anchors.best_iou_per_gt`` replaced with the
    nearest-centre method (ROADMAP item 2): O(G * N) against O(G * L * R).
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    anchor_area = (anchors[:, 2] - anchors[:, 0]) * (anchors[:, 3] - anchors[:, 1])
    best = np.zeros(gts.shape[0])
    for i, gt in enumerate(gts):
        iw = np.minimum(anchors[:, 2], gt[2]) - np.maximum(anchors[:, 0], gt[0])
        ih = np.minimum(anchors[:, 3], gt[3]) - np.maximum(anchors[:, 1], gt[1])
        inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
        gt_area = (gt[2] - gt[0]) * (gt[3] - gt[1])
        union = anchor_area + gt_area - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            ious = np.where(union > 0.0, inter / union, 0.0)
        best[i] = ious.max()
    return best
