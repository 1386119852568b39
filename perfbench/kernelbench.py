"""Per-size timings of the tree-edit-distance kernel on random table trees.

Times ``tsrkit.teds.tree_edit_distance`` on one pair of trees per size
bucket through the active backend. When the compiled extension imports,
the pure-Python backend must return the same distance for every pair.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from tsrkit.teds import TableTree, backend_name, tree_edit_distance

COLUMNS = 6
# body rows per bucket: 5 rows give 37-node trees, 14 rows give 100-node ones
ROWS = {"le64": 5, "gt64": 14}
REPEATS = 5


def random_table_tree(rng: random.Random, n_rows: int, n_cols: int) -> TableTree:
    root = TableTree("table")
    body = TableTree("tbody")
    root.children.append(body)
    for _ in range(n_rows):
        tr = TableTree("tr")
        for _ in range(n_cols):
            tr.children.append(
                TableTree(
                    "td",
                    colspan=rng.choice((1, 1, 1, 2)),
                    rowspan=rng.choice((1, 1, 1, 2)),
                )
            )
        body.children.append(tr)
    return root


def _pure_python_distance(a: TableTree, b: TableTree) -> float:
    previous = os.environ.get("TSRKIT_PURE_PYTHON")
    os.environ["TSRKIT_PURE_PYTHON"] = "1"
    try:
        return tree_edit_distance(a, b)
    finally:
        if previous is None:
            del os.environ["TSRKIT_PURE_PYTHON"]
        else:
            os.environ["TSRKIT_PURE_PYTHON"] = previous


def kernel_ms_per_pair(seed: int, probe) -> tuple[dict[str, float], list[str]]:
    """Median milliseconds per pair for each bucket, and backend disagreements.

    Times are scaled to the reference speed by ``probe`` (a SpeedProbe).
    """
    rng = random.Random(seed)
    timings: dict[str, float] = {}
    problems: list[str] = []
    for bucket, rows in ROWS.items():
        a = random_table_tree(rng, rows, COLUMNS)
        b = random_table_tree(rng, rows, COLUMNS)
        samples = []
        began = time.perf_counter()
        for _ in range(REPEATS):
            start = time.perf_counter()
            distance = tree_edit_distance(a, b)
            samples.append((time.perf_counter() - start) * 1e3)
        factor = probe.factor(began, time.perf_counter())
        timings[f"teds.kernel_ms_per_pair.{bucket}"] = statistics.median(samples) * factor
        if backend_name() == "compiled":
            reference = _pure_python_distance(a, b)
            if reference != distance:
                problems.append(f"backend disagreement on {bucket}: {distance} vs {reference}")
    return timings, problems
