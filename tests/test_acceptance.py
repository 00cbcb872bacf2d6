"""Acceptance suite: every contract-level criterion at its stated tolerance.

Each test prints one line per criterion lane so a plain run reads as a
scoreboard.  Structural regimes (truncation orders, time grids, coupling
lanes) live inside the named checks; the scenario files under scenarios/
supply the system, seed and tolerances.

Criterion 6 is asserted exactly as stated.  For the two quantum-exchange
lanes the cluster-trace and classical-reference definitions of reduced
operators differ by a gap that does not shrink with the truncation, of open
cause (see README, "Known deviations of the quantum definition lanes"), so
those lanes fail honestly rather than being loosened.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corrdyn.checks import (
    check_bbgky_residual,
    check_cumulant_free,
    check_cumulant_zero_time,
    check_definition_consistency,
    check_hierarchy_residual,
    check_mobius_roundtrip,
    check_norm_bound,
    check_solution_vs_integrator,
    check_symmetry_preservation,
)
from corrdyn.config import load_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

CONFIGS = {
    stats: load_scenario(SCENARIOS / f"acceptance_{stats}.cfg")
    for stats in ("boltzmann", "bose", "fermi")
}


def run_lane(criterion, check, stats, budget_s):
    started = time.perf_counter()
    records = check(CONFIGS[stats])
    elapsed = time.perf_counter() - started
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        print(
            f"ACCEPTANCE {criterion} {rec.name}[{stats}] residual={rec.residual:.3e} "
            f"tolerance={rec.tolerance:.1e} {status}"
        )
    assert elapsed < budget_s, f"criterion {criterion} exceeded its runtime budget"
    return records


@pytest.mark.parametrize("stats", ["boltzmann", "bose", "fermi"])
def test_criterion_01_mobius_roundtrip(stats):
    for rec in run_lane(1, check_mobius_roundtrip, stats, budget_s=5.0):
        assert rec.passed, f"roundtrip residual {rec.residual:.3e} > {rec.tolerance:.1e}"


@pytest.mark.parametrize("stats", ["boltzmann", "bose", "fermi"])
def test_criterion_02_hierarchy_residual(stats):
    for rec in run_lane(2, check_hierarchy_residual, stats, budget_s=10.0):
        assert rec.passed, f"hierarchy residual {rec.residual:.3e} > {rec.tolerance:.1e}"


@pytest.mark.parametrize("stats", ["boltzmann", "bose", "fermi"])
def test_criterion_03_cumulant_zero_time(stats):
    for rec in run_lane(3, check_cumulant_zero_time, stats, budget_s=2.0):
        assert rec.passed, f"zero-time cumulant {rec.residual:.3e} > {rec.tolerance:.1e}"


@pytest.mark.parametrize("stats", ["boltzmann", "bose", "fermi"])
def test_criterion_04_cumulant_free_collapse(stats):
    for rec in run_lane(4, check_cumulant_free, stats, budget_s=2.0):
        assert rec.passed, f"free cumulant {rec.residual:.3e} > {rec.tolerance:.1e}"


@pytest.mark.parametrize("stats", ["bose", "fermi"])
def test_criterion_05_bbgky_residual(stats):
    records = run_lane(5, check_bbgky_residual, stats, budget_s=30.0)
    assert len(records) == 2  # two-body and mixed coupling lanes
    for rec in records:
        assert rec.passed, f"chain residual {rec.residual:.3e} > {rec.tolerance:.1e}"


@pytest.mark.parametrize("stats", ["boltzmann", "bose", "fermi"])
def test_criterion_06_definition_consistency(stats):
    records = run_lane(6, check_definition_consistency, stats, budget_s=20.0)
    for rec in records:
        assert rec.passed, (
            f"definition consistency residual {rec.residual:.3e} > {rec.tolerance:.1e}: "
            "the traced-cluster and classical-reference reduced operators differ "
            "for quantum exchange statistics by a gap that does not shrink with "
            "n_max (see README 'Known deviations of the quantum definition lanes')"
        )


@pytest.mark.parametrize("stats", ["boltzmann", "fermi"])
def test_criterion_07_solution_vs_integrator(stats):
    for rec in run_lane(7, check_solution_vs_integrator, stats, budget_s=60.0):
        assert rec.passed, (
            f"series vs integrator residual {rec.residual:.3e} > {rec.tolerance:.1e} "
            f"or step-size order below 3.7 ({rec.inputs})"
        )


@pytest.mark.parametrize("stats", ["boltzmann", "bose", "fermi"])
def test_criterion_08_norm_bound(stats):
    for rec in run_lane(8, check_norm_bound, stats, budget_s=5.0):
        assert rec.passed, f"norm bound violated by {rec.residual:.3e}"


@pytest.mark.parametrize("stats", ["bose", "fermi"])
def test_criterion_09_symmetry_preservation(stats):
    for rec in run_lane(9, check_symmetry_preservation, stats, budget_s=5.0):
        assert rec.passed, f"symmetry violation {rec.residual:.3e} at {rec.inputs}"


def test_criterion_10_deterministic_reports(tmp_path):
    scenario = SCENARIOS / "determinism.cfg"
    # the child process imports corrdyn from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    payloads = []
    for tag in ("first", "second"):
        out = tmp_path / f"{tag}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "corrdyn.cli", "check", str(scenario),
             "--format", "jsonl", "--out", str(out)],
            capture_output=True,
            cwd=REPO,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        payloads.append(out.read_bytes())
    identical = payloads[0] == payloads[1]
    print(f"ACCEPTANCE 10 deterministic_reports byte_identical={identical} "
          f"{'PASS' if identical else 'FAIL'}")
    assert identical
