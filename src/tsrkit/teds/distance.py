"""Tree-edit-distance similarity over table structure trees.

Every edit has cost 1: inserting a node, deleting one, and renaming one into
a node with another tag or, for cells, other colspan or rowspan. Renaming
into an equal node is free.

The distance kernel exists twice: a compiled C extension (_speedup.c) for
corpus scoring (the DP dominates evaluation runtime) and a pure-Python
fallback with the same recurrence. ``backend_name()`` picks one on every
distance call, so TSRKIT_PURE_PYTHON=1 forces the fallback even when set
in-process, after import (perfbench/kernelbench.py relies on this).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..errors import HtmlParseError
from . import _ted_py
from .tree import TableTree, parse_table_html

try:
    from . import _speedup
except ImportError:
    _speedup = None


def backend_name() -> str:
    """Which distance kernel is active: 'compiled' or 'python'."""
    if _speedup is not None and not os.environ.get("TSRKIT_PURE_PYTHON"):
        return "compiled"
    return "python"


def _label_key(node: TableTree):
    if node.tag == "td":
        return ("td", node.colspan, node.rowspan)
    return (node.tag,)


def _postorder(node: TableTree, lmld: list[int], labels: list[int], interner: dict):
    """Append ``node``'s subtree in postorder; its first node is its leftmost leaf."""
    leftmost = len(labels)
    for child in node.children:
        _postorder(child, lmld, labels, interner)
    labels.append(interner.setdefault(_label_key(node), len(interner)))
    lmld.append(leftmost)


def _flatten(root: TableTree, interner: dict):
    """Postorder arrays: leftmost-leaf-descendant index, label id, keyroots."""
    lmld: list[int] = []
    labels: list[int] = []
    _postorder(root, lmld, labels, interner)
    last_for_lml: dict[int, int] = {}
    for i, value in enumerate(lmld):
        last_for_lml[value] = i
    keyroots = sorted(last_for_lml.values())
    return lmld, labels, keyroots


def tree_edit_distance(a: TableTree, b: TableTree) -> float:
    """Minimal unit-cost edit distance transforming ``a`` into ``b`` (ordered-tree semantics)."""
    interner: dict = {}
    flat = (*_flatten(a, interner), *_flatten(b, interner))
    if backend_name() == "compiled":
        return _speedup.tree_distance(*(np.ascontiguousarray(seq, dtype=np.int64) for seq in flat))
    return _ted_py.tree_distance(*flat)


def teds(a: TableTree, b: TableTree) -> float:
    """Similarity 1 - distance / max(|a|, |b|), clamped into [0, 1]."""
    value = 1.0 - tree_edit_distance(a, b) / max(a.size(), b.size())
    return min(1.0, max(0.0, value))


def tree_is_complex(t: TableTree) -> bool:
    """A table is complex when any cell spans multiple rows or columns."""
    return any(
        node.tag == "td" and (node.colspan > 1 or node.rowspan > 1)
        for node in t.iter_postorder()
    )


@dataclass(frozen=True)
class PairScore:
    index: int
    score: float
    complex: bool
    prediction_error: str | None = None


@dataclass(frozen=True)
class CorpusTedsReport:
    simple_mean: float | None
    complex_mean: float | None
    overall_mean: float | None
    pairs: tuple[PairScore, ...]

    def format_lines(self) -> list[str]:
        def fmt(value):
            return "n/a" if value is None else f"{value:.4f}"

        return [
            f"TEDS simple = {fmt(self.simple_mean)}",
            f"TEDS complex = {fmt(self.complex_mean)}",
            f"TEDS overall = {fmt(self.overall_mean)}",
        ]


def corpus_teds(pairs) -> CorpusTedsReport:
    """Score (predicted html, ground-truth ``TableTree``) pairs and aggregate.

    Complexity is classified from the ground-truth tree. Predictions that
    fail to parse score 0 for their pair.
    """
    scores: list[PairScore] = []
    for index, (pred_html, gt_tree) in enumerate(pairs):
        is_complex = tree_is_complex(gt_tree)
        try:
            pred_tree = parse_table_html(pred_html)
        except HtmlParseError as exc:
            scores.append(PairScore(index, 0.0, is_complex, str(exc)))
            continue
        scores.append(PairScore(index, teds(pred_tree, gt_tree), is_complex))

    def mean_of(values):
        values = list(values)
        if not values:
            return None
        return sum(values) / len(values)

    return CorpusTedsReport(
        simple_mean=mean_of(p.score for p in scores if not p.complex),
        complex_mean=mean_of(p.score for p in scores if p.complex),
        overall_mean=mean_of(p.score for p in scores),
        pairs=tuple(scores),
    )
