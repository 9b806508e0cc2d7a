"""The benchmark's tracer still finds every package name it wraps.

``bench/tracer.py`` wraps package functions and methods by name; a
rename or deletion in the package makes it fail before the command
runs. This runs it in a child process, as the benchmark does, on tiny
training runs of both routes and on ``eval`` of a tiny trained model,
which reads one feature file per test video: the model carries its
support videos' pooled trees.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treemkl.cli import main
from treemkl.dataio import load_manifest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    data = tmp_path_factory.mktemp("tracer") / "data"
    assert main(["gen-synth", "--out", str(data), "--classes", "3",
                 "--per-class", "4", "--frames", "16", "--dim", "4",
                 "--signal-level", "2", "--seed", "1"]) == 0
    return data / "manifest.jsonl"


@pytest.fixture(scope="module")
def model(manifest):
    out = manifest.parent.parent / "model"
    assert main(["train-em", "--manifest", str(manifest), "--out", str(out),
                 "--depth", "3", "--max-iters", "2"]) == 0
    return out / "model.json"


@pytest.mark.parametrize("command, flags, spans", [
    ("train-dmkl", ["--depth", "3", "--variant", "avg", "--iters", "20"],
     ["dmkl.dmkl_fit", "kernels.combined"]),
    ("train-em", ["--depth", "3", "--variant", "avg", "--max-iters", "3"],
     ["em.em_fit", "em.beta_objective_coeffs", "svm.solve_dual"]),
    ("eval", ["--model", "{model}"],
     ["pipeline.evaluate_artifact", "pipeline.load_split_trees",
      "kernels.kernel_columns", "dataio.load_feature_file",
      "hierarchy.pool_sequence"]),
])
def test_tracer_runs_and_records_spans(manifest, model, tmp_path, command,
                                       flags, spans):
    flags = [flag.format(model=model) for flag in flags]
    out = tmp_path / "trace.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "tracer.py"), str(out),
         command, "--manifest", str(manifest), "--out", str(tmp_path / "run"),
         *flags],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["exit_code"] == 0
    assert Path(doc["package"]).resolve() == REPO / "src" / "treemkl"
    for name in spans:
        assert doc["names"].get(name, {}).get("calls", 0) > 0, name
    if "svm.solve_dual" in spans:
        assert doc["counts"]["svm.solve_dual.pair_updates"] > 0
    if command == "eval":
        tests = len(load_manifest(manifest).split("test"))
        for name in ("dataio.load_feature_file", "hierarchy.pool_sequence"):
            assert doc["names"][name]["calls"] == tests, name
