"""Smoke tests: every script under demos/ runs to completion, and the
README library quick start runs and classifies."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_demo(script, cwd) -> str:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    run_demo(script, tmp_path)


def test_alternating_averaging_tolerates_shifts(tmp_path):
    # demo 06: per level, averaging drops no more under a one-leaf shift
    # than concatenation does
    out = run_demo(REPO / "demos" / "06_misalignment_and_fusion.py",
                   tmp_path)
    drops = dict(re.findall(r"^alternating (\w+)\s*:.*\(drop ([-+.\d]+)\)$",
                            out, re.MULTILINE))
    assert set(drops) == {"averaging", "concatenation"}, out
    assert float(drops["averaging"]) <= float(drops["concatenation"]), out


def test_readme_quick_start_classifies():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["accuracy"] >= 0.95
