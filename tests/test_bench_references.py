"""The benchmark's reference gate, run as a test: the evolve and rk4 workload
operations at input seed 0 must reproduce the stored reference outputs.

``corrbench/workloads.py`` is imported read-only from the checkout; the
check-acceptance workload is left to the acceptance tests, which cover the
same check records.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "corrbench_workloads", REPO / "corrbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["evolve-bose-d2n6", "rk4-fermi-d4n4"])
def test_workload_matches_stored_reference(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](workloads.input_seed(0), tmp_path, REPO)
    out = workload.op()
    assert workload.mismatches(out, workloads.load_reference(name, 0)) == []
