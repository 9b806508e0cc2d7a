#!/usr/bin/env python3
"""Benchmark of the treemkl command line on two seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload dmkl-avg --seed 1 --seconds 45 --trace 0

One parent process runs the workload's commands through the real CLI,
each in its own child process, one at a time (a closed loop with one
client). ``gen-synth`` builds the dataset from ``--seed`` five times;
then the workload's train commands, followed by three runs of its eval
command, repeat as a "pass" until ``--seconds`` have gone by. Wall time
comes from ``perf_counter`` around each child, peak RSS from ``os.wait4``.

Each set-up command and each untraced pass is preceded by a child running
``bench/reference.py``, a fixed task that uses no ``treemkl`` code. On a
shared host the speed of a core drifts by half and more within seconds to
minutes, and the reference time drifts with it. So each timing sample is
divided by the reference time measured just before it and multiplied by
``REFERENCE_S``: seconds at the speed of a reference machine, where the
task takes that long. Every reported time is the median of such samples;
the raw wall times and the reference times are kept in the report.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes of the same commands under ``bench/tracer.py``
(in-process ``treemkl.cli.main`` with timing wrappers) and prints the
per-layer metrics. Every command's outputs are checked (exit code,
``files.json`` listing, beta on the simplex, accuracy floor, outputs
byte-identical across passes and between traced and untraced runs);
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller report, with the
environment, the per-layer targets and the baseline comparison, goes
to ``.bench_build/report-<workload>-trace<k>.json``.

Metric names and units come from ``BENCHMARK.json`` at the repository
root, so that file is the single list of what is reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build")

SETUP_REPEATS = 5       # gen-synth runs per benchmark run; setup_s is their median
MIN_PASSES = 3          # untraced passes measured even when --seconds is short
EVAL_REPEATS = 3        # eval commands per untraced pass: eval is short and
                        # mostly interpreter start-up, so it needs more samples
MIN_TRACED_PASSES = 2   # with --trace 1: traced repeats (so exact counters can
                        # be compared), and as many untraced passes
STARTUP_PROBES = 5      # import-only children behind cli.startup_s
DEADLINE_S = 160        # no child starts after this; each is killed at it

REFERENCE = os.path.join(BENCH_DIR, "reference.py")
# Median wall time of the reference task on a 2-core Xeon VM (OpenBLAS
# pinned to one thread; 113 runs); it only sets the scale of the reported
# times, so that they read as seconds on that machine.
REFERENCE_S = 0.5

# OpenBLAS pinned to one thread in every child, so a run's timings do not
# depend on what the second core is doing. On a 2-core Xeon VM,
# `train-em --variant concat` (140 videos) spread 10.3-14.5 s with default
# threading against 13.8-14.4 s pinned at 50 EM iterations; at 10 iterations
# six interleaved runs each gave medians 0.95 s default, 0.93 s pinned, with
# the one outlier (1.48 s) on the default side.
BLAS_THREADS = "1"
BLAS_THREADS_REASON = ("pinned so timings do not depend on the other core: on 2 "
                       "cores train-em --variant concat spread 10.3-14.5 s with "
                       "default threads vs 13.8-14.4 s pinned (50 EM iterations); "
                       "medians equal at 10 iterations")

# Sizes. `full` is what the benchmark measures; `tiny` is for the self-test.
# Every workload scored accuracy 1.0 on seeds 100-119; the floor leaves room
# for one misclassified test video in 20 without letting a real loss through.
SIZES = {
    "full": {"per_class": 50, "frames": 32, "dim": 16, "dmkl_iters": 60,
             "dmkl_batch": 2048, "wide_per_class": 100, "wide_frames": 512,
             "wide_dim": 128, "floor": 0.95},
    "tiny": {"per_class": 4, "frames": 16, "dim": 4, "dmkl_iters": 3,
             "dmkl_batch": 64, "wide_per_class": 4, "wide_frames": 16,
             "wide_dim": 8, "floor": 0.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]                          # gen-synth flags
    commands: tuple[tuple[str, tuple[str, ...]], ...]  # (train|eval, argv)
    focus: tuple[str, ...]                          # spans that should dominate train
    accuracy_floor: float


# The alternating route with concatenation has no workload of its own: its
# training work follows the dataset (2-stream train-em --max-iters 10 made
# 41.7k-54.3k pair updates over seeds 11-17, in 2.3-3.2 s), which alone
# spreads train_s across seeds close to its bound. Its layers (svm, em,
# kernels.combined) are measured on em-avg-wide.
def workloads(size: str) -> dict[str, Workload]:
    s = SIZES[size]
    data = ("--manifest", "{data}/manifest.jsonl")
    train = ("--depth", "4") + data
    small = ("--per-class", str(s["per_class"]), "--frames", str(s["frames"]),
             "--dim", str(s["dim"]))
    return {w.name: w for w in (
        Workload(
            "dmkl-avg", small,
            (("train", ("train-dmkl", *train, "--out", "{run}/train",
                        "--variant", "avg", "--positive-fraction", "0.5",
                        "--iters", str(s["dmkl_iters"]),
                        "--batch", str(s["dmkl_batch"]))),
             ("eval", ("eval", "--model", "{run}/train/model.json", *data,
                       "--out", "{run}/eval"))),
            ("kernels.pair_blocks", "dmkl.loss_grad", "dmkl.dmkl_fit",
             "dmkl.dmkl_then_svm"),
            s["floor"]),
        Workload(
            "em-avg-wide",
            ("--per-class", str(s["wide_per_class"]),
             "--frames", str(s["wide_frames"]), "--dim", str(s["wide_dim"])),
            (("train", ("train-em", *train, "--out", "{run}/train",
                        "--variant", "avg")),
             ("eval", ("eval", "--model", "{run}/train/model.json", *data,
                       "--out", "{run}/eval"))),
            ("em.beta_objective_coeffs", "kernels.cross.build"),
            s["floor"]),
    )}


# Which end-to-end metric, on which workload, each per-layer metric should
# move (by metric-name prefix). It should not move on workloads that never
# call the layer.
LAYER_TARGETS = {
    "dmkl.": [("train_s", "dmkl-avg")],
    "simplex.with_raw.": [("train_s", "dmkl-avg")],
    "kernels.pair_blocks.": [("train_s", "dmkl-avg")],
    "kernels.cross.": [("train_peak_rss_mb", "em-avg-wide"),
                       ("train_s", "em-avg-wide"), ("train_s", "dmkl-avg")],
    "kernels.combined.": [("train_s", "em-avg-wide")],
    "kernels.kernel_columns.": [("eval_s", "em-avg-wide")],
    "kernels.median_gamma.": [("train_s", "em-avg-wide")],
    "svm.": [("train_s", "em-avg-wide")],
    "em.": [("train_s", "em-avg-wide")],
    "pipeline.": [("eval_s", "em-avg-wide")],
    "dataio.": [("eval_s", "em-avg-wide")],
    "hierarchy.": [("eval_s", "em-avg-wide")],
    "cli.startup_s": [("eval_s", "dmkl-avg"), ("eval_s", "em-avg-wide")],
}

# Rows of the ROADMAP baseline table, with the training-set size they were
# measured at: (row, baseline, unit, workload, measured key, n_train). A row
# is compared only when the workload trains on the same number of videos.
BASELINE = [
    ("averaging contrastive step", 34.0, "ms", "dmkl-avg", "dmkl.step_ms", 140),
    ("pair_blocks gather", 10.0, "ms", "dmkl-avg", "kernels.pair_blocks.p50_ms", 140),
    ("load+pool, serial", 0.028, "s", "dmkl-avg", "train.load_split_trees_s", 140),
    ("eval, in-process", 0.04, "s", "dmkl-avg", "eval.main_s", 140),
    ("eval peak RSS", 44.0, "MB", "dmkl-avg", "eval_peak_rss_mb", 140),
    ("em_fit averaging", 4.4, "s", "em-avg-wide", "em.em_fit.busy_s", 420),
    ("em_fit averaging peak RSS", 964.0, "MB", "em-avg-wide", "train_peak_rss_mb", 420),
]
BASELINE_TOLERANCE = 0.5   # flag a row when measured/baseline leaves [1/1.5, 1.5]


class Budget:
    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> float:
        return DEADLINE_S - self.elapsed()


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    reference_s: float = REFERENCE_S   # reference time measured just before

    @property
    def scaled_s(self) -> float:
        """Wall time in seconds at the reference speed."""
        return self.wall_s * REFERENCE_S / self.reference_s


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TREEMKL_")}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    return env


def run_child(argv: list[str], log_path: str, budget: Budget) -> Child:
    """Run one child to completion; wall time, exit code and peak RSS."""
    timeout = budget.left()
    if timeout <= 0:
        return Child(rc=-1, wall_s=0.0, rss_mb=0.0)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(rc=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0)


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "treemkl.cli", *args]


def output_hashes(out_dir: str) -> dict[str, str] | None:
    """sha256 of every file listed in ``files.json``; None if any is missing."""
    try:
        with open(os.path.join(out_dir, "files.json"), encoding="utf-8") as fh:
            listed = json.load(fh)["files"]
    except (OSError, ValueError, KeyError):
        return None
    hashes = {}
    for rel in listed:
        path = os.path.join(out_dir, rel)
        if not os.path.isfile(path):
            return None
        with open(path, "rb") as fh:
            hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def check_model(out_dir: str) -> str | None:
    with open(os.path.join(out_dir, "model.json"), encoding="utf-8") as fh:
        beta = list(json.load(fh)["beta"].values())
    if min(beta) < 0.0 or abs(math.fsum(beta) - 1.0) > 1e-9:
        return f"beta off the simplex (min {min(beta)}, sum {math.fsum(beta)})"
    return None


def read_accuracy(out_dir: str) -> float:
    with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["overall_accuracy"])


class Run:
    """State of one benchmark run: work directory, counts, failures."""

    def __init__(self, workload: Workload, seed: int, budget: Budget, work: str):
        self.w = workload
        self.seed = seed
        self.budget = budget
        self.work = work
        self.attempted = 0
        self.failed = 0                        # commands that failed a check
        self.problems: list[str] = []          # every failure, commands or not
        self.hashes: dict[str, dict] = {}      # command key -> output hashes
        self.data = os.path.join(work, "data")

    def fail(self, message: str, command: bool = True) -> None:
        self.failed += command
        self.problems.append(message)
        print(f"FAIL: {message}", file=sys.stderr)

    def command(self, key: str, argv: list[str], out_dir: str, kind: str,
                log: str) -> Child | None:
        """Run, check and fingerprint one command; None when it failed."""
        self.attempted += 1
        child = run_child(argv, log, self.budget)
        if child.rc != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.fail(f"{key}: exit code {child.rc}\n{tail}")
            return None
        hashes = output_hashes(out_dir)
        problem = None
        if hashes is None:
            problem = "a file listed in files.json is missing"
        elif kind == "train":
            problem = check_model(out_dir)
        elif kind == "eval":
            accuracy = read_accuracy(out_dir)
            if accuracy < self.w.accuracy_floor:
                problem = f"accuracy {accuracy} below floor {self.w.accuracy_floor}"
        if problem is None:
            ref = self.hashes.setdefault(key, hashes)
            if ref != hashes:
                problem = "outputs differ from the first run of this command"
        if problem:
            self.fail(f"{key}: {problem}")
            return None
        return child

    def reference(self, log: str) -> float:
        """Wall time of one run of the reference task."""
        child = run_child([sys.executable, REFERENCE], log, self.budget)
        if child.rc != 0:
            print(f"error: reference task exited {child.rc}", file=sys.stderr)
            raise SystemExit(1)
        return child.wall_s

    def setup(self) -> list[Child]:
        children = []
        for k in range(SETUP_REPEATS):
            reference_s = self.reference(
                os.path.join(self.work, f"reference-setup{k}.log"))
            out = self.data if k == 0 else os.path.join(self.work, f"data{k}")
            child = self.command(
                "gen-synth", cli_argv(["gen-synth", "--out", out,
                                       "--seed", str(self.seed), *self.w.synth]),
                out, "setup", os.path.join(self.work, f"setup{k}.log"))
            if child is None:
                raise SystemExit(1)
            child.reference_s = reference_s
            children.append(child)
            if k:
                shutil.rmtree(out)
        return children

    def workload_pass(self, index: int, traced: bool,
                      eval_repeats: int = 1) -> list[tuple[str, Child, dict | None]]:
        """One pass: the train commands once, then the eval commands
        ``eval_repeats`` times; a (kind, child, trace) per command run."""
        run_dir = os.path.join(self.work, f"pass{index}")
        os.makedirs(run_dir)
        steps = list(enumerate(self.w.commands))
        evals = [s for s in steps if s[1][0] == "eval"]
        steps = [s for s in steps if s[1][0] != "eval"] + evals * eval_repeats
        results = []
        if not traced:
            reference_s = self.reference(os.path.join(run_dir, "reference.log"))
        for pos, (kind, template) in steps:
            args = [a.format(data=self.data, run=run_dir) for a in template]
            out_dir = args[args.index("--out") + 1]
            if traced:
                trace_path = os.path.join(run_dir, f"trace{pos}.json")
                argv = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"),
                        trace_path, *args]
            else:
                argv = cli_argv(args)
            child = self.command(f"{pos}:{args[0]}", argv, out_dir, kind,
                                 os.path.join(run_dir, f"cmd{pos}.log"))
            if child is None:
                return []
            if not traced:
                child.reference_s = reference_s
            trace = None
            if traced:
                with open(trace_path, encoding="utf-8") as fh:
                    trace = json.load(fh)
                if not trace["package"].startswith(SRC):
                    self.fail(f"traced run imported treemkl from {trace['package']}")
                    return []
            results.append((kind, child, trace))
        if index:
            shutil.rmtree(run_dir)
        return results


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 with no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[list], setup: list[Child], run: Run) -> dict:
    """Medians over samples: one train sample per pass (its train commands),
    one eval sample per repeat of the eval commands. Times are in seconds
    at the reference speed (see ``REFERENCE_S``)."""
    n_eval = sum(1 for kind, _ in run.w.commands if kind == "eval")

    def stat(kind, field, combine):
        samples = []
        for p in passes:
            children = [c for k, c, _ in p if k == kind]
            size = n_eval if kind == "eval" else len(children)
            samples += [combine(getattr(c, field) for c in children[i:i + size])
                        for i in range(0, len(children), size)]
        return median(samples)

    return {
        "setup_s": median([c.scaled_s for c in setup]),
        "train_s": stat("train", "scaled_s", sum),
        "eval_s": stat("eval", "scaled_s", sum),
        "train_peak_rss_mb": stat("train", "rss_mb", max),
        "eval_peak_rss_mb": stat("eval", "rss_mb", max),
        "accuracy": read_accuracy(os.path.join(run.work, "pass0", "eval")),
    }


# counters that must repeat exactly across traced repeats
EXACT = ("svm.solve_dual.calls", "svm.solve_dual.pair_updates",
         "svm.solve_dual.not_converged", "em.em_fit.iterations",
         "em.candidate_solves", "kernels.cross.builds", "kernels.cross.bytes",
         "dmkl.loss_grad.calls")


def merge(traces: list[dict]) -> dict:
    names: dict[str, dict] = {}
    counts: dict[str, int] = {}
    durations: dict[str, list] = {}
    solves = 0
    for t in traces:
        for name, row in t["names"].items():
            acc = names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, values in t["durations"].items():
            durations.setdefault(name, []).extend(values)
        solves += t["candidate_solves"]
    return {"names": names, "counts": counts, "durations": durations,
            "candidate_solves": solves}


def layer_values(agg: dict) -> dict:
    """Per-layer numbers of one traced pass (all its commands)."""
    counts = agg["counts"]

    def get(name, key):
        return total(agg, name, key)

    iterations = counts.get("em.em_fit.iterations", 0)
    solves = agg["candidate_solves"]
    out = {
        "dmkl.loss_grad.calls": get("dmkl.loss_grad", "calls"),
        "dmkl.loss_grad.self_s": get("dmkl.loss_grad", "self_s"),
        "dmkl.dmkl_fit.self_s": get("dmkl.dmkl_fit", "self_s"),
        "simplex.with_raw.calls": get("simplex.with_raw", "calls"),
        "simplex.with_raw.busy_s": get("simplex.with_raw", "busy_s"),
        "kernels.pair_blocks.calls": get("kernels.pair_blocks", "calls"),
        "kernels.pair_blocks.busy_s": get("kernels.pair_blocks", "busy_s"),
        "kernels.combined.calls": get("kernels.combined", "calls"),
        "kernels.combined.busy_s": get("kernels.combined", "busy_s"),
        "kernels.kernel_columns.busy_s": get("kernels.kernel_columns", "busy_s"),
        "kernels.median_gamma.busy_s": get("kernels.median_gamma", "busy_s"),
        "svm.solve_dual.calls": get("svm.solve_dual", "calls"),
        "svm.solve_dual.busy_s": get("svm.solve_dual", "busy_s"),
        "svm.solve_dual.pair_updates": counts.get("svm.solve_dual.pair_updates", 0),
        "svm.solve_dual.not_converged": counts.get("svm.solve_dual.not_converged", 0),
        "svm.train_one_vs_rest.self_s": get("svm.train_one_vs_rest", "self_s"),
        "em.em_fit.iterations": iterations,
        "em.em_fit.self_s": get("em.em_fit", "self_s"),
        "em.candidate_solves": solves,
        "em.accepted_share": iterations / solves if solves else 0.0,
        "em.beta_objective_coeffs.calls": get("em.beta_objective_coeffs", "calls"),
        "em.beta_objective_coeffs.busy_s": get("em.beta_objective_coeffs", "busy_s"),
        "pipeline.load_split_trees.videos": counts.get("pipeline.load_split_trees.videos", 0),
        "pipeline.load_split_trees.self_s": get("pipeline.load_split_trees", "self_s"),
        "pipeline.evaluate_artifact.self_s": get("pipeline.evaluate_artifact", "self_s"),
        "dataio.load_feature_file.calls": get("dataio.load_feature_file", "calls"),
        "dataio.load_feature_file.busy_s": get("dataio.load_feature_file", "busy_s"),
        "dataio.load_feature_file.bytes": counts.get("dataio.load_feature_file.bytes", 0),
        "hierarchy.pool_sequence.calls": get("hierarchy.pool_sequence", "calls"),
        "hierarchy.pool_sequence.busy_s": get("hierarchy.pool_sequence", "busy_s"),
    }
    out["kernels.cross.builds"] = get("kernels.cross.build", "calls")
    out["kernels.cross.build_s"] = get("kernels.cross.build", "busy_s")
    out["kernels.cross.bytes"] = counts.get("kernels.cross.build_bytes", 0)
    return out


def total(agg: dict, name: str, key: str = "busy_s"):
    """Summed ``calls``, ``busy_s`` or ``self_s`` of one span name; 0 if absent."""
    return agg["names"].get(name, {}).get(key, 0)


def trace_metrics(run: Run, untraced: list, traced_passes: list,
                  startup: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics plus extra report values from the traced passes."""
    merged = [merge([t for _, _, t in p]) for p in traced_passes]
    trains = [merge([t for k, _, t in p if k == "train"]) for p in traced_passes]
    per_pass = [layer_values(m) for m in merged]
    drift = [k for k in EXACT if len({v[k] for v in per_pass}) > 1]
    for key in drift:
        run.fail(f"nondeterminism: {key} differs across traced repeats: "
                 f"{[v[key] for v in per_pass]}", command=False)
    # timings are medians over traced passes; counts come from the first
    # pass (they must repeat exactly)
    metrics = {k: median([v[k] for v in per_pass]) if isinstance(per_pass[0][k], float)
               else per_pass[0][k] for k in per_pass[0]}
    pooled = merge([t for p in traced_passes for _, _, t in p])["durations"]
    for name, samples in pooled.items():
        metrics[name + ".p50_ms"] = 1e3 * percentile(samples, 0.50)
        metrics[name + ".p99_ms"] = 1e3 * percentile(samples, 0.99)
    metrics["cli.startup_s"] = median(startup)
    untraced_wall = median([sum(c.wall_s for _, c, _ in p) for p in untraced])
    traced_wall = median([sum(c.wall_s for _, c, _ in p) for p in traced_passes])
    metrics["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    train_main = [sum(t["main_s"] for k, _, t in p if k == "train")
                  for p in traced_passes]
    metrics["trace.focus_share"] = median(
        [sum(total(tr, n, "self_s") for n in run.w.focus) / main_s
         for tr, main_s in zip(trains, train_main)])

    fit_calls = metrics["dmkl.loss_grad.calls"]
    n_train = [t["counts"].get("pipeline.load_split_trees.videos", 0)
               for k, _, t in traced_passes[0] if k == "train"]
    extra = {
        "dmkl.step_ms": 1e3 * median([total(m, "dmkl.dmkl_fit") for m in merged])
        / fit_calls if fit_calls else 0.0,
        "em.em_fit.busy_s": median([total(m, "em.em_fit") for m in merged]),
        "train.main_s": median(train_main),
        "train.load_split_trees_s": median(
            [total(tr, "pipeline.load_split_trees") for tr in trains]),
        "train.videos": sum(n_train) // len(n_train),
        "eval.main_s": median([sum(t["main_s"] for k, _, t in p if k == "eval")
                               for p in traced_passes]),
        "samples": {name: len(v) for name, v in pooled.items()},
        "exact_counter_drift": drift,
    }
    return metrics, extra


def environment() -> dict:
    env = {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "blas_threads_reason": BLAS_THREADS_REASON,
    }
    try:
        import numpy
        env["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError, ValueError):
        env.setdefault("numpy", "unknown")
        env["blas"] = "unknown"
    return env


def targets_for(metric: str) -> list:
    return next((t for prefix, t in LAYER_TARGETS.items()
                 if metric.startswith(prefix)), [])


def baseline_rows(workload: str, values: dict) -> list[dict]:
    rows = []
    for row, base, unit, where, key, n_train in BASELINE:
        if where != workload:
            continue
        measured = values[key]
        comparable = values["train.videos"] == n_train
        ratio = measured / base
        rows.append({"row": f"{row}, n_train = {n_train}", "baseline": base,
                     "measured": measured, "unit": unit,
                     "n_train": values["train.videos"],
                     "agrees": (1 / (1 + BASELINE_TOLERANCE) <= ratio
                                <= 1 + BASELINE_TOLERANCE) if comparable else None})
    return rows


def print_layers(metrics: dict, spec: list[dict], baseline: list[dict]) -> None:
    print(f"{'per-layer metric':40s} {'value':>14s} {'unit':6s} moves")
    for m in spec:
        moves = ", ".join(f"{e} on {w}" for e, w in targets_for(m["name"]))
        print(f"{m['name']:40s} {metrics[m['name']]:14.6g} {m['unit']:6s} {moves}")
    print(f"{'ROADMAP baseline row':42s} {'baseline':>10s} {'measured':>10s}")
    for r in baseline:
        flag = {True: "", False: "  <-- DISAGREES",
                None: f"  (not compared: this run trains on {r['n_train']})"}[r["agrees"]]
        print(f"{r['row']:42s} {r['baseline']:10.4g} {r['measured']:10.4g} "
              f"{r['unit']}{flag}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "treemkl", "cli.py")):
        print(f"error: no treemkl sources under {SRC}", file=sys.stderr)
        return 2
    table = workloads(args.size)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    spec = load_spec()
    budget = Budget()
    work = os.path.join(WORK_ROOT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work)
    run = Run(table[args.workload], args.seed, budget, work)
    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True))
    try:
        setup = run.setup()
        startup = []
        for k in range(STARTUP_PROBES if args.trace else 0):
            run.attempted += 1
            child = run_child([sys.executable, "-c", "import treemkl.cli"],
                              os.path.join(work, f"startup{k}.log"), budget)
            if child.rc != 0:
                run.fail(f"import-only child exited {child.rc}")
            startup.append(child.wall_s)
        # --trace 1 alternates untraced and traced passes, so the overhead
        # compares passes run close together in time
        passes, traced = [], []
        need_untraced, need_traced = ((MIN_TRACED_PASSES, MIN_TRACED_PASSES)
                                      if args.trace else (MIN_PASSES, 0))
        measure_start = budget.elapsed()
        while budget.left() > 0 and (
                len(passes) < need_untraced or len(traced) < need_traced
                or budget.elapsed() - measure_start < args.seconds):
            trace_now = bool(args.trace) and len(traced) < len(passes)
            p = run.workload_pass(len(passes) + len(traced), traced=trace_now,
                                  eval_repeats=1 if args.trace else EVAL_REPEATS)
            if not p:
                break
            (traced if trace_now else passes).append(p)
        if not passes or len(traced) < need_traced:
            return 1
        e2e = end_to_end(passes, setup, run)
        report = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "sizes": SIZES[args.size], "environment": env,
                  "setup": [(c.wall_s, c.reference_s) for c in setup],
                  "passes": [[(k, c.wall_s, c.rss_mb, c.reference_s)
                              for k, c, _ in p] for p in passes],
                  "end_to_end": e2e}
        if args.trace:
            layers, extra = trace_metrics(run, passes, traced, startup)
            measured = {**layers, **extra, **e2e}
            baseline = baseline_rows(args.workload, measured)
            print_layers(layers, spec["per_layer"], baseline)
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
            report.update(per_layer=layers, trace_extra=extra, baseline=baseline,
                          targets={m: targets_for(m) for m in layers})
            with open(os.path.join(WORK_ROOT, f"spans-{args.workload}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump([t for _, _, t in traced[0]], fh)
        else:
            metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            for name, value in e2e.items():
                print(f"{name:20s} {value:12.6g}")
            references = [c.reference_s for c in setup] + [p[0][1].reference_s
                                                            for p in passes]
            print(f"{'reference task':20s} {median(references):12.6g} s median "
                  f"of {len(references)}; each time is scaled by {REFERENCE_S} s "
                  f"over the one measured before it")
        failed = run.failed
        report.update(attempted=run.attempted, problems=run.problems,
                      failed_share=failed / run.attempted)
        print(f"failed_share {failed}/{run.attempted}")
        with open(os.path.join(WORK_ROOT, f"report-{args.workload}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
