"""Tree-edit-distance similarity over table structure trees.

Every edit has cost 1: inserting a node, deleting one, and renaming one into
a node with another tag or, for cells, other colspan or rowspan. Renaming
into an equal node is free. Every function here reads trees; a caller that
holds HTML parses it with the grammar in ``tree`` and decides what a
fragment the grammar rejects scores.

Equal trees score distance 0 and TEDS 1 without flattening or the DP. Other
pairs are flattened in postorder, Zhang-Shasha style; a keyroot is the root
or any node with a left sibling.

The distance kernel exists twice: a compiled C extension (_speedup.c) for
corpus scoring (the DP dominates evaluation runtime) and a pure-Python
fallback with the same recurrence. ``backend_name()`` picks one on every
distance call, so TSRKIT_PURE_PYTHON=1 forces the fallback even when set
in-process, after import (perfbench/kernelbench.py relies on this). The
same extension holds the corpus loader's column packer, and the same rule,
read once per load, picks it or ``formats._columns``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import _ted_py
from .tree import TableTree

try:
    from . import _speedup
except ImportError:
    _speedup = None


def backend_name() -> str:
    """Which backend is active: 'compiled' or 'python'.

    It governs both compiled paths, the distance kernel and the corpus
    loader's column packer: 'compiled' whenever the extension is built and
    TSRKIT_PURE_PYTHON is unset.
    """
    if _speedup is not None and not os.environ.get("TSRKIT_PURE_PYTHON"):
        return "compiled"
    return "python"


def _walk(node: TableTree, keyroot: bool, lmld: list[int], labels: list[int], keyroots: list[int], interner: dict):
    """Append ``node``'s subtree in postorder; its first node is its leftmost leaf."""
    leftmost = len(labels)
    for i, child in enumerate(node.children):
        _walk(child, i > 0, lmld, labels, keyroots, interner)
    key = ("td", node.colspan, node.rowspan) if node.tag == "td" else (node.tag,)
    if keyroot:
        keyroots.append(len(labels))
    labels.append(interner.setdefault(key, len(interner)))
    lmld.append(leftmost)


def _flatten(root: TableTree, interner: dict):
    """Postorder arrays from one walk: leftmost-leaf-descendant index, label id, keyroots."""
    flat = ([], [], [])
    _walk(root, True, *flat, interner)
    return flat


def _distance_and_sizes(a: TableTree, b: TableTree) -> tuple[float, int, int]:
    """The edit distance from ``a`` to ``b`` and the node counts of both, from one flattening."""
    interner: dict = {}
    flat_a = _flatten(a, interner)
    flat_b = _flatten(b, interner)
    flat = (*flat_a, *flat_b)
    if backend_name() == "compiled":
        distance = _speedup.tree_distance(*(np.ascontiguousarray(seq, dtype=np.int64) for seq in flat))
    else:
        distance = _ted_py.tree_distance(*flat)
    return distance, len(flat_a[1]), len(flat_b[1])


def tree_edit_distance(a: TableTree, b: TableTree) -> float:
    """Minimal unit-cost edit distance transforming ``a`` into ``b`` (ordered-tree semantics)."""
    if a == b:
        return 0.0
    return _distance_and_sizes(a, b)[0]


def teds(a: TableTree, b: TableTree) -> float:
    """Similarity 1 - distance / max(|a|, |b|), clamped into [0, 1]."""
    if a == b:
        return 1.0
    distance, size_a, size_b = _distance_and_sizes(a, b)
    value = 1.0 - distance / max(size_a, size_b)
    return min(1.0, max(0.0, value))


def tree_is_complex(t: TableTree) -> bool:
    """A table is complex when any cell spans multiple rows or columns."""
    is_spanning_cell = t.tag == "td" and (t.colspan > 1 or t.rowspan > 1)
    return is_spanning_cell or any(map(tree_is_complex, t.children))


@dataclass(frozen=True)
class CorpusTedsReport:
    simple_mean: float | None
    complex_mean: float | None
    overall_mean: float | None

    def format_lines(self) -> list[str]:
        def fmt(value):
            return "n/a" if value is None else f"{value:.4f}"

        return [
            f"TEDS simple = {fmt(self.simple_mean)}",
            f"TEDS complex = {fmt(self.complex_mean)}",
            f"TEDS overall = {fmt(self.overall_mean)}",
        ]


def corpus_teds(pairs) -> CorpusTedsReport:
    """Score (predicted ``TableTree`` or None, ground-truth ``TableTree``) pairs and aggregate.

    The pairs are read once, in order, so a generator keeps one predicted
    tree alive at a time. A None prediction, one the caller could not read
    or parse, scores 0. Complexity is classified from the ground-truth tree.
    """
    simple, complex_, overall = [], [], []
    for pred_tree, gt_tree in pairs:
        score = 0.0 if pred_tree is None else teds(pred_tree, gt_tree)
        (complex_ if tree_is_complex(gt_tree) else simple).append(score)
        overall.append(score)

    def mean_of(values):
        return sum(values) / len(values) if values else None

    return CorpusTedsReport(mean_of(simple), mean_of(complex_), mean_of(overall))
