"""Spans around tsrkit's layers, recorded from outside the package.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with
a timing wrapper at every place a loaded ``tsrkit`` module holds it, so calls
through ``tsrkit.cli.build_grid`` and ``tsrkit.misalign.build_grid`` are both
seen. Spans stay in memory; self time, the span's duration minus the time
its child spans cover, is computed as each span closes.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    trace_id: int  # the traced pass the span belongs to
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    self_s: float
    attrs: dict


def _instances_loaded(args, corpus):
    return {"instances": sum(len(image.instances) for image in corpus.images)}


def _kernel_pair(args, distance):
    # the flattened trees are the first and fourth arguments
    return {"n1": len(args[0]), "n2": len(args[3]), "zero": distance == 0}


def _evaluated_pairs(args, report):
    preds_by_image, gts_by_image = args[0], args[1]
    pairs = 0
    for image_id, gts in gts_by_image.items():
        gt_classes = Counter(inst.cls for inst in gts)
        pred_classes = Counter(inst.cls for inst in preds_by_image.get(image_id, ()))
        pairs += sum(count * gt_classes[cls] for cls, count in pred_classes.items())
    return {
        "detections": sum(len(v) for v in preds_by_image.values()),
        "ground_truth": sum(len(v) for v in gts_by_image.values()),
        "pairs": pairs,
    }


def _anchor_count(args, anchors):
    return {"anchors": int(anchors.shape[0])}


def _coverage_pairs(args, report):
    return {"anchors": len(args[0]), "gt_boxes": len(args[1])}


@dataclass(frozen=True)
class Target:
    span: str
    module: str
    function: str
    hook: Callable | None = None  # (args, result) -> span attributes
    optional: bool = False  # the module may be absent (compiled kernel)


TARGETS = (
    Target("formats.load", "tsrkit.formats", "load_ground_truth", _instances_loaded),
    Target("formats.load", "tsrkit.formats", "load_detections", _instances_loaded),
    Target("formats.save", "tsrkit.formats", "save"),
    Target("formats.write_file", "tsrkit.formats", "atomic_write_text"),
    Target("labels.decode_pseudo", "tsrkit.labels", "decode_pseudo"),
    Target("labels.encode_pseudo", "tsrkit.labels", "encode_pseudo"),
    Target("reconstruct.build_grid", "tsrkit.reconstruct", "build_grid"),
    Target("reconstruct.grid_to_html", "tsrkit.reconstruct", "grid_to_html"),
    Target("teds.parse", "tsrkit.teds.tree", "parse_table_html"),
    Target("teds.corpus", "tsrkit.teds.distance", "corpus_teds"),
    Target("teds.kernel", "tsrkit.teds._ted_py", "tree_distance", _kernel_pair),
    Target("teds.kernel", "tsrkit.teds._speedup", "tree_distance", _kernel_pair, optional=True),
    Target("cocoeval.evaluate", "tsrkit.cocoeval", "evaluate_corpus", _evaluated_pairs),
    Target("anchors.stats", "tsrkit.anchors", "dataset_stats"),
    Target("anchors.generate", "tsrkit.anchors", "generate_anchors", _anchor_count),
    Target("anchors.coverage", "tsrkit.anchors", "anchor_coverage", _coverage_pairs),
    Target("misalign.report", "tsrkit.misalign", "misalignment_report"),
    Target("misalign.perturb", "tsrkit.misalign", "perturb"),
)


class _CountingHandler(logging.Handler):
    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self.clamped = Counter()  # trace id -> records logged by tsrkit.formats
        self._stack: list[list] = []  # [span id, seconds covered by child spans]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._handler: _CountingHandler | None = None

    def call(self, name, hook, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        frame = [self._next_id, 0.0]
        parent_id = self._stack[-1][0] if self._stack else None
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(frame, parent_id, name, start, time.perf_counter(), {"error": type(exc).__name__})
            raise
        end = time.perf_counter()
        self._close(frame, parent_id, name, start, end, hook(args, result) if hook else {})
        return result

    def _close(self, frame, parent_id, name, start, end, attrs):
        self._stack.pop()
        if self._stack:
            # the parent's self time also excludes this span's hook
            self._stack[-1][1] += time.perf_counter() - start
        self.spans.append(
            Span(self.trace_id, frame[0], parent_id, name, start, end, end - start - frame[1], attrs)
        )

    def install(self):
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                if target.optional:
                    continue
                raise
            original = getattr(module, target.function)

            def wrapper(*args, _fn=original, _target=target, **kwargs):
                return self.call(_target.span, _target.hook, _fn, *args, **kwargs)

            functools.update_wrapper(wrapper, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("tsrkit"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._patches.append((loaded, attr, original))
        self._handler = _CountingHandler()
        logging.getLogger("tsrkit.formats").addHandler(self._handler)

    def uninstall(self):
        for loaded, attr, original in reversed(self._patches):
            setattr(loaded, attr, original)
        self._patches.clear()
        logging.getLogger("tsrkit.formats").removeHandler(self._handler)
        self.clamped[self.trace_id] += self._handler.count
        self._handler = None

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, n_tables: int, factors: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics: times are medians over traced passes, counts per pass.

    ``factors[i]`` scales the times of traced pass ``i`` to the reference
    speed (see speed.py). Returns (metrics, sample counts). Every time is
    self time.
    """
    passes: dict[int, list[Span]] = {}
    for span in tracer.spans:
        passes.setdefault(span.trace_id, []).append(span)
    per_pass: dict[str, list[float]] = {}

    def put(name, value):
        per_pass.setdefault(name, []).append(value)

    for trace_id, spans in sorted(passes.items()):
        self_s = Counter()
        calls = Counter()
        attrs = Counter()
        failed = Counter()
        for span in spans:
            self_s[span.name] += span.self_s * factors[trace_id]
            calls[span.name] += 1
            if "error" in span.attrs:
                failed[span.name] += 1
            for key, value in span.attrs.items():
                if key != "error":
                    attrs[f"{span.name}.{key}"] += value
        cli_self = {name: value for name, value in self_s.items() if name.startswith("cli.")}

        put("formats.load_s", self_s["formats.load"])
        put("formats.instances_loaded", attrs["formats.load.instances"])
        put("formats.write_s", self_s["formats.save"] + self_s["formats.write_file"])
        put("formats.files_written", calls["formats.write_file"])
        put("formats.clamped", tracer.clamped[trace_id])
        put("labels.decode_pseudo_s", self_s["labels.decode_pseudo"])
        put("labels.decode_pseudo_calls", calls["labels.decode_pseudo"])
        put("labels.encode_pseudo_s", self_s["labels.encode_pseudo"])
        put("labels.encode_pseudo_calls", calls["labels.encode_pseudo"])
        put("reconstruct.build_grid_s", self_s["reconstruct.build_grid"])
        put("reconstruct.build_grid_calls", calls["reconstruct.build_grid"])
        put("reconstruct.grid_to_html_s", self_s["reconstruct.grid_to_html"])
        put("reconstruct.failed", failed["reconstruct.build_grid"])
        put("teds.parse_s", self_s["teds.parse"])
        put("teds.parse_calls", calls["teds.parse"])
        put("teds.kernel_s", self_s["teds.kernel"])
        put("teds.kernel_calls", calls["teds.kernel"])
        put("teds.dp_cells", sum(s.attrs["n1"] * s.attrs["n2"] for s in spans if s.name == "teds.kernel"))
        put("teds.zero_distances", attrs["teds.kernel.zero"])
        put("teds.corpus_self_s", self_s["teds.corpus"])
        put("cocoeval.evaluate_s", self_s["cocoeval.evaluate"])
        for key in ("detections", "ground_truth", "pairs"):
            put(f"cocoeval.{key}", attrs[f"cocoeval.evaluate.{key}"])
        put("anchors.stats_s", self_s["anchors.stats"])
        put("anchors.generate_s", self_s["anchors.generate"])
        put("anchors.coverage_s", self_s["anchors.coverage"])
        put("anchors.anchor_count", attrs["anchors.generate.anchors"])
        put("anchors.gt_boxes", attrs["anchors.coverage.gt_boxes"])
        put("anchors.box_anchor_pairs", sum(
            s.attrs["anchors"] * s.attrs["gt_boxes"] for s in spans if s.name == "anchors.coverage"
        ))
        put("misalign.perturb_s", self_s["misalign.perturb"])
        put("misalign.report_self_s", self_s["misalign.report"])
        put("cli.self_s", sum(cli_self.values()))
        for name, value in cli_self.items():
            put(f"{name}.self_s", value)

    samples = len(passes)
    metrics = {name: statistics.median(values) for name, values in per_pass.items()}

    def ratio(numerator, denominator, scale=1.0):
        return metrics[numerator] / metrics[denominator] * scale if metrics[denominator] else 0.0

    metrics["formats.us_per_instance"] = ratio("formats.load_s", "formats.instances_loaded", 1e6)
    metrics["teds.parse_calls_per_table"] = metrics["teds.parse_calls"] / n_tables
    metrics["teds.kernel_ns_per_cell"] = ratio("teds.kernel_s", "teds.dp_cells", 1e9)
    metrics["teds.zero_distance_ratio"] = ratio("teds.zero_distances", "teds.kernel_calls")
    metrics["cocoeval.ns_per_pair"] = ratio("cocoeval.evaluate_s", "cocoeval.pairs", 1e9)
    metrics["anchors.ns_per_box_anchor"] = ratio("anchors.coverage_s", "anchors.box_anchor_pairs", 1e9)
    kernel_ms = [
        (s.end - s.start) * 1e3 * factors[s.trace_id] for s in tracer.spans if s.name == "teds.kernel"
    ]
    counts = {name: samples for name in metrics}
    metrics["teds.kernel_p50_ms"] = _percentile(kernel_ms, 0.50)
    metrics["teds.kernel_p99_ms"] = _percentile(kernel_ms, 0.99)
    counts["teds.kernel_p50_ms"] = counts["teds.kernel_p99_ms"] = len(kernel_ms)
    return metrics, counts


def unit_of(name: str) -> str:
    """The unit a per-layer metric's name implies."""
    for marker, unit in (("_ms", "ms"), ("ns_per", "ns"), ("us_per", "us"), ("_per_table", "calls/table")):
        if marker in name:
            return unit
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"
