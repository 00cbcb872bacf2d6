"""Committed benchmark records: every ``BENCH_*.json`` at the repository root
parses, and its claim names a workload and an end-to-end metric that
``BENCHMARK.json`` declares, so that a claim can be checked against the
benchmark that measured it.
"""

import json
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
RECORDS = sorted(REPO.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def declared():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    return {w["name"] for w in bench["workloads"]}, {m["name"] for m in bench["end_to_end"]}


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_claim_names_declared_workload_and_metric(path, declared):
    workloads, metrics = declared
    claim = json.loads(path.read_text())["claim"]
    # whole tokens only: a metric name inside a longer word does not count
    words = set(re.findall(r"[\w-]+", claim))
    assert words & workloads, f"{path.name}: claim names no workload of BENCHMARK.json"
    assert words & metrics, f"{path.name}: claim names no end-to-end metric of BENCHMARK.json"
