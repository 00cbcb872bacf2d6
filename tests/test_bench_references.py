"""The benchmark's reference gate, run as a test: the evolve and rk4 workload
operations at input seed 0 must reproduce the stored reference outputs, and
every library name the traced run rebinds must still exist.

``corrbench/workloads.py`` and ``corrbench/tracing.py`` are imported
read-only from the checkout; the check-acceptance workload is left to the
acceptance tests, which cover the same check records.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"corrbench_{name}", REPO / "corrbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_traced_names_resolve():
    # a traced name that no longer resolves stops `run.py --trace 1`
    for module, path, _ in _load("tracing").TRACED:
        obj = importlib.import_module(f"corrdyn.{module}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"corrdyn.{module}.{path} is traced but missing"
            obj = getattr(obj, attr)


@pytest.mark.parametrize("name", ["evolve-bose-d2n6", "rk4-fermi-d4n4"])
def test_workload_matches_stored_reference(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](workloads.input_seed(0), tmp_path, REPO)
    out = workload.op()
    assert workload.mismatches(out, workloads.load_reference(name, 0)) == []
