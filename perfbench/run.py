#!/usr/bin/env python3
"""tsrkit's benchmark: score seeded corpora through the CLI, stage by stage.

    python3 perfbench/run.py --workload score-dense --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the program is taken from
``src/`` beside this directory. One process and one thread run the stages of
a workload one after another (a closed loop), each through
``tsrkit.cli.main(argv)`` with its output captured and checked, and repeat
whole passes for ``--seconds``. ``--trace 0`` reports the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` alternates untraced passes with
passes in which every layer's public functions are wrapped, and reports the
per-layer metrics. Every reported time is scaled to a reference machine
speed sampled during the run (speed.py); raw values are printed beside.
Human-readable lines come first; the last line of standard output is the
JSON result. The exit code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench"  # relative to ROOT; holds corpora, outputs and spans
SETUP_REPEATS = 5
MIN_PASSES = 3
MISALIGN_SPECS = ("dilate:2", "shrink:2", "snap", "merge:row")


@dataclass(frozen=True)
class Workload:
    name: str
    spec_name: str  # CorpusSpec in corpus.py
    timed_stages: tuple[str, ...]  # stages reported as <stage>_s
    expected_spans: tuple[str, ...]


_SCORING_SPANS = (
    "formats.load",
    "formats.write_file",
    "reconstruct.build_grid",
    "reconstruct.grid_to_html",
    "teds.parse",
    "teds.corpus",
    "teds.kernel",
    "cocoeval.evaluate",
)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "score-dense",
            "SCORE_DENSE",
            ("reconstruct", "teds", "coco-eval"),
            _SCORING_SPANS + ("labels.decode_pseudo", "cli.reconstruct", "cli.teds", "cli.coco-eval"),
        ),
        Workload(
            "score-large",
            "SCORE_LARGE",
            ("teds", "coco-eval"),
            _SCORING_SPANS + ("cli.reconstruct", "cli.teds", "cli.coco-eval"),
        ),
        Workload(
            "gt-analysis",
            "GT_ANALYSIS",
            ("anchors", "misalign"),
            _SCORING_SPANS
            + (
                "formats.save",
                "labels.encode_pseudo",
                "anchors.stats",
                "anchors.generate",
                "anchors.coverage",
                "misalign.report",
                "misalign.perturb",
                "cli.stats",
                "cli.anchors",
                "cli.encode-labels",
                "cli.misalign",
            ),
        ),
    )
}


def stage_argvs(workload: str, corpus, work: str) -> list[list[str]]:
    if workload == "gt-analysis":
        from tsrkit.anchors import TABLE_ASPECT_RATIOS

        specs = [arg for spec in MISALIGN_SPECS for arg in ("--spec", spec)]
        return [
            ["stats", corpus.gt_path],
            ["anchors", corpus.gt_path, "--ratios", *map(str, TABLE_ASPECT_RATIOS)],
            ["encode-labels", corpus.gt_path, "-o", f"{work}/encoded.json"],
            ["misalign", corpus.gt_path, *specs],
        ]
    html_dir = f"{work}/html"
    return [
        ["reconstruct", corpus.pred_path, "-o", html_dir],
        ["teds", html_dir, corpus.gt_path],
        ["coco-eval", corpus.pred_path, corpus.gt_path],
    ]


# ---------------------------------------------------------------- output checks

_KEY_VALUE = re.compile(r"^(.+?) = (\S+)$")


def _values(stdout: str) -> dict[str, str]:
    return {m.group(1): m.group(2) for m in map(_KEY_VALUE.match, stdout.splitlines()) if m}


def _in_unit_interval(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and 0.0 <= value <= 1.0


def _unit_lines(values: dict[str, str], keys) -> list[str]:
    problems = []
    for key in keys:
        if key not in values:
            problems.append(f"missing '{key} = ...'")
        elif not _in_unit_interval(values[key]):
            problems.append(f"{key} = {values[key]} is not in [0, 1]")
    return problems


def check_output(argv: list[str], stdout: str, corpus) -> list[str]:
    """Problems with one stage's standard output; empty when it is right."""
    command = argv[0]
    values = _values(stdout)
    if command == "reconstruct":
        expected = f"wrote {corpus.tables} table(s) to {argv[-1]}\n"
        return [] if stdout == expected else [f"expected {expected!r}"]
    if command == "encode-labels":
        expected = f"wrote {argv[-1]}\n"
        return [] if stdout == expected else [f"expected {expected!r}"]
    if command == "teds":
        return _unit_lines(values, ("TEDS simple", "TEDS complex", "TEDS overall"))
    if command == "coco-eval":
        per_class = [key for key in values if key.startswith("AP[")]
        return _unit_lines(values, ("AP", "AP50", "AP75", "APs", "APm", "APl", *per_class))
    if command == "stats":
        problems = []
        for key, expected in (("images", corpus.tables), ("objects", corpus.objects)):
            if values.get(key) != str(expected):
                problems.append(f"{key} = {values.get(key)}, expected {expected}")
        return problems
    if command == "anchors":
        problems = _unit_lines(
            values, ("fraction best IoU >= 0.5", "fraction best IoU >= 0.7", "mean best IoU")
        )
        if not values.get("anchors", "").isdigit() or int(values["anchors"]) == 0:
            problems.append(f"anchors = {values.get('anchors')}")
        return problems
    if command == "misalign":
        rows = [line.split() for line in stdout.splitlines()[1:]]
        if [row[0] for row in rows if row] != list(MISALIGN_SPECS):
            return [f"rows {rows} do not match the specs {list(MISALIGN_SPECS)}"]
        return [
            f"{row[0]}: {value} is not in [0, 1]"
            for row in rows
            for value in row[1:]
            if len(row) != 3 or not _in_unit_interval(value)
        ]
    return [f"no check for stage {command}"]


# ---------------------------------------------------------------- running stages


@dataclass(frozen=True)
class StageRun:
    argv: list[str]
    start: float  # perf_counter() at the start and end of the stage
    end: float
    code: int
    stdout: str
    stderr: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_stage(argv: list[str], tracer=None) -> StageRun:
    from tsrkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", None, cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = 1
        end = time.perf_counter()
    return StageRun(argv, start, end, code, out.getvalue(), err.getvalue())


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.problems)


def check_stage(run: StageRun, corpus, reference: StageRun | None, tally: Tally):
    problems = []
    if run.code != 0:
        problems.append(f"exit code {run.code}")
    if run.stderr:
        problems.append(f"stderr {run.stderr[:200]!r}")
    problems.extend(check_output(run.argv, run.stdout, corpus))
    if reference is not None and run.stdout != reference.stdout:
        problems.append("stdout differs from the first pass")
    tally.record(" ".join(run.argv[:1]), problems)


def run_control(seed: int, work: str, tally: Tally):
    """Perfect-copy predictions must score AP = 1.0000 and TEDS overall = 1.0000."""
    import corpus

    gt_path, pred_path = corpus.build_control(seed, f"{work}/control")
    html_dir = f"{work}/control/html"
    for argv, expected in (
        (["reconstruct", pred_path, "-o", html_dir], None),
        (["teds", html_dir, gt_path], "TEDS overall = 1.0000"),
        (["coco-eval", pred_path, gt_path], "AP = 1.0000"),
    ):
        run = run_stage(argv)
        problems = [] if run.code == 0 else [f"exit code {run.code}"]
        if expected is not None and expected not in run.stdout.splitlines():
            problems.append(f"perfect copies do not give {expected!r}")
        tally.record(f"control {argv[0]}", problems)


# ---------------------------------------------------------------- set-up


def build_extension():
    """Build the optional compiled kernel in place, as an install would."""
    if not os.path.exists(os.path.join(ROOT, "setup.py")):
        return
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup.py build_ext failed:\n{done.stderr[-2000:]}")


def time_first_import() -> float:
    """Seconds to import tsrkit.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import tsrkit.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing tsrkit.cli failed:\n{done.stderr[-2000:]}")
    return float(done.stdout)


def _digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        if path is not None:
            with open(path, "rb") as handle:
                sha.update(handle.read())
    return sha.hexdigest()


def set_up(workload: Workload, seed: int, work: str, tally: Tally, probe):
    """Generate the corpus several times.

    Returns the corpus and the set-up time in raw seconds and at the
    reference speed: the median import plus the median generation.
    """
    import corpus

    began = time.perf_counter()
    spec = getattr(corpus, workload.spec_name)
    import_s = [time_first_import() for _ in range(SETUP_REPEATS)]
    generate_s, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = corpus.build_corpus(spec, seed, f"{work}/corpus")
        generate_s.append(time.perf_counter() - start)
        digests.add(_digest((built.gt_path, built.pred_path)))
    tally.record("corpus determinism", [] if len(digests) == 1 else ["same seed, different files"])
    if workload.name == "score-large":
        corpus.check_fintabnet_shape(built)
    raw_s = statistics.median(import_s) + statistics.median(generate_s)
    return built, raw_s, raw_s * probe.factor(began, time.perf_counter())


# ---------------------------------------------------------------- measuring


@dataclass(frozen=True)
class Pass:
    runs: list[StageRun]
    factor: float  # speed factor over the pass, see speed.py

    @property
    def raw_s(self) -> float:
        return sum(run.seconds for run in self.runs)

    @property
    def seconds(self) -> float:
        return self.raw_s * self.factor

    def stage_seconds(self, command: str) -> float:
        return sum(run.seconds for run in self.runs if run.argv[0] == command) * self.factor


def measure(stages, built, seconds: float, tally: Tally, probe, tracer=None):
    """Repeat whole passes for ``seconds``; with a tracer, every other pass is traced.

    Returns the untraced and the traced passes.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    reference = None
    deadline = time.perf_counter() + seconds
    last_pass = 0.0
    # start a pass only while it would end nearer the deadline than not
    while (
        time.perf_counter() + last_pass / 2 < deadline
        or len(plain) < MIN_PASSES
        or (tracer is not None and len(traced) < MIN_PASSES)
    ):
        started = time.perf_counter()
        use_tracer = tracer is not None and len(traced) < len(plain)
        gc.collect()
        if use_tracer:
            tracer.trace_id = len(traced)
            tracer.install()
        try:
            runs = [run_stage(argv, tracer if use_tracer else None) for argv in stages]
        finally:
            if use_tracer:
                tracer.uninstall()
        for index, run in enumerate(runs):
            check_stage(run, built, reference[index] if reference else None, tally)
        reference = reference or runs
        done = Pass(runs, probe.factor(runs[0].start, runs[-1].end))
        (traced if use_tracer else plain).append(done)
        last_pass = time.perf_counter() - started
    return plain, traced


def metadata(workload: str, seed: int, built, backend: str) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "ted_backend": backend,
        "tables": built.tables,
        "corpus_shape": built.shape,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "tsrkit", "__init__.py")) or not os.path.isfile(benchmark_file):
        print(f"error: {ROOT} is not a tsrkit checkout with BENCHMARK.json", file=sys.stderr)
        return 2
    with open(benchmark_file, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    # one thread: the second core stays free for noise, not for numpy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.chdir(ROOT)
    build_extension()
    sys.path.insert(0, SRC)

    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        return benchmark(args, declared, probe)
    finally:
        probe.stop()


def benchmark(args, declared: list[dict], probe) -> int:
    from tsrkit.teds import backend_name

    import kernelbench
    from tracing import Tracer, layer_metrics, unit_of

    workload = WORKLOADS[args.workload]
    work = f"{WORK}/{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    built, setup_raw_s, setup_s = set_up(workload, args.seed, work, tally, probe)
    stages = stage_argvs(workload.name, built, work)
    run_control(args.seed, work, tally)

    tracer = Tracer() if args.trace else None
    plain, traced = measure(stages, built, args.seconds, tally, probe, tracer)
    pass_s = statistics.median(p.seconds for p in plain)
    meta = metadata(workload.name, args.seed, built, backend_name())
    meta["stdout_sha256"] = hashlib.sha256("".join(r.stdout for r in plain[0].runs).encode()).hexdigest()

    # name -> (value, unit, samples); times are at the reference speed
    report: dict[str, tuple[float, str, int]] = {}
    if args.trace:
        layers, samples = layer_metrics(tracer, built.tables, [p.factor for p in traced])
        kernel_ms, disagreements = kernelbench.kernel_ms_per_pair(args.seed, probe)
        tally.record("kernel backends agree", disagreements)
        for name, value in kernel_ms.items():
            layers[name] = value
            samples[name] = kernelbench.REPEATS
        layers["trace.overhead_ratio"] = statistics.median(p.seconds for p in traced) / pass_s
        samples["trace.overhead_ratio"] = len(traced)
        for name, value in sorted(layers.items()):
            report[name] = (value, unit_of(name), samples[name])
        for trace_id in range(len(traced)):
            fired = {span.name for span in tracer.spans if span.trace_id == trace_id}
            missing = sorted(set(workload.expected_spans) - fired)
            tally.record(f"span coverage, traced pass {trace_id}", [f"no span {name}" for name in missing])
        tracer.write(f"{work}/spans.jsonl")
    else:
        report["tables_per_s"] = (built.tables / pass_s, "tables/s", len(plain))
        report["setup_s"] = (setup_s, "s", SETUP_REPEATS)
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            1,
        )
        for command in workload.timed_stages:
            seconds = [p.stage_seconds(command) for p in plain]
            report[f"{command.replace('-', '_')}_s"] = (statistics.median(seconds), "s", len(seconds))
        raw_pass_s = statistics.median(p.raw_s for p in plain)
        report["raw.tables_per_s"] = (built.tables / raw_pass_s, "tables/s", len(plain))
        report["raw.setup_s"] = (setup_raw_s, "s", SETUP_REPEATS)
    report["error_rate"] = (tally.failed / tally.attempted, "ratio", tally.attempted)

    print(f"meta {json.dumps(meta, sort_keys=True)}")
    for label, passes in (("pass", plain), ("traced_pass", traced)):
        if passes:
            print(f"{label}_raw_s " + " ".join(f"{p.raw_s:.4f}" for p in passes))
            print(f"{label}_speed_factor " + " ".join(f"{p.factor:.4f}" for p in passes))
    for name, (value, unit, count) in report.items():
        print(f"{name:<36} {value:>14.6g} {unit:<11} n={count}")
    for problem in tally.problems:
        print(f"FAILED {problem}")

    metrics = {}
    for declared_metric in declared:
        name = declared_metric["name"]
        metrics[name] = {"value": report[name][0], "unit": declared_metric["unit"]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
