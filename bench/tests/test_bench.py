"""Self-test of the benchmark at a tiny size.

    python -m pytest bench/tests -q

Runs every workload once untraced and once traced with a few videos and
iterations, and checks that each metric named in ``BENCHMARK.json`` is
reported with its unit, that the outputs pass their checks, and that the
benchmark refuses to run where the package sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: row["unit"] for name, row in result["metrics"].items()}
    for row in result["metrics"].values():
        assert isinstance(row["value"], (int, float))


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("dmkl-avg", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                    ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
    rows = tracer.aggregate()
    assert rows["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert rows["inner"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert rows["leaf"]["self_s"] == 1.0


def test_candidate_solves_count_em_retrainings():
    tracer = Tracer()
    tracer.spans = [["em.em_fit", 0.0, 9.0, -1]] + [
        ["svm.train_one_vs_rest", float(k), k + 0.5, 0] for k in range(4)]
    assert tracer.candidate_solves() == 3
