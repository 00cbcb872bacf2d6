"""Smoke runs of the experiment scripts, which drive the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/hierarchy_demo.py", "--n-max", "2", "--t-final", "0.2"],
        ["scripts/truncation_gap_study.py", "--samples", "1"],
    ],
    ids=["hierarchy_demo", "truncation_gap_study"],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=REPO, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
