import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrdyn import checks, cli, config, hilbert
from corrdyn.checks import run_checks
from corrdyn.cli import main
from corrdyn.config import load_scenario
from corrdyn.errors import ConfigError, DomainError
from corrdyn.hamiltonian import EvolutionCache
from corrdyn.hilbert import Statistics, random_state_component, read_operator
from corrdyn.report import CheckReport, parse_jsonl, render_jsonl, render_table

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

MINIMAL = """
[system]
d = 2
stats = boltzmann
n_max = 2
seed = 3

[one_body]
rows =
    0+0j 1+0j
    1+0j 0+0j

[initial]
kind = random
seed = 3

[run]
times = 0.0 0.2
checks = norm_bound
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_parses(tmp_path):
    cfg = load_scenario(write_cfg(tmp_path, MINIMAL))
    assert cfg.d == 2 and cfg.stats is Statistics.BOLTZMANN and cfg.n_max == 2
    assert cfg.checks == ("norm_bound",)
    assert cfg.potentials == {}
    assert cfg.tolerance("norm_bound") == 1e-12


@pytest.mark.parametrize(
    "anchor, key",
    [("seed = 3\n", "deterministic_reduction"), ("times = 0.0 0.2\n", "integrator_steps_per_unit")],
    ids=["system", "run"],
)
def test_retired_system_key_still_loads(tmp_path, anchor, key):
    # neither key was ever read; unknown [system] and [run] keys are ignored
    text = MINIMAL.replace(anchor, f"{anchor}{key} = 1\n", 1)
    cfg = load_scenario(write_cfg(tmp_path, text))
    assert not hasattr(cfg, key)


def test_missing_scenario_file():
    with pytest.raises(ConfigError, match="not found"):
        load_scenario("/nonexistent/path.cfg")


def test_missing_matrix_file_names_path(tmp_path):
    text = MINIMAL.replace("rows =\n    0+0j 1+0j\n    1+0j 0+0j", "file = missing.op")
    with pytest.raises(ConfigError, match="missing.op"):
        load_scenario(write_cfg(tmp_path, text))


def test_non_hermitian_one_body_reports_deviation(tmp_path):
    text = MINIMAL.replace("0+0j 1+0j\n    1+0j 0+0j", "0+0j 1+0j\n    0+0j 0+0j")
    with pytest.raises(ConfigError, match="deviation"):
        load_scenario(write_cfg(tmp_path, text))


def test_unknown_check_rejected(tmp_path):
    text = MINIMAL.replace("checks = norm_bound", "checks = not_a_check")
    with pytest.raises(ConfigError, match="unknown check"):
        load_scenario(write_cfg(tmp_path, text))


def test_chaos_initial_requires_hermitian_matrix(tmp_path):
    text = MINIMAL.replace(
        "kind = random\nseed = 3",
        "kind = chaos\nrows =\n    0.5+0j 0.1+0j\n    0.1+0j 0.5+0j",
    )
    cfg = load_scenario(write_cfg(tmp_path, text))
    assert cfg.initial.kind == "chaos"
    assert np.allclose(cfg.initial.g1, cfg.initial.g1.conj().T)


def test_matrix_row_shape_errors(tmp_path):
    text = MINIMAL.replace("0+0j 1+0j\n    1+0j 0+0j", "0+0j 1+0j")
    with pytest.raises(ConfigError, match="rows"):
        load_scenario(write_cfg(tmp_path, text))


def test_known_checks_are_the_runnable_checks():
    # one list of check names: the loader accepts exactly what run_checks
    # can run, with a default tolerance each
    assert config.KNOWN_CHECKS == tuple(checks.CHECKS) == tuple(config.DEFAULT_TOLERANCES)


def test_tolerance_override(tmp_path):
    text = MINIMAL + "\n[tolerances]\nnorm_bound = 1e-6\n"
    cfg = load_scenario(write_cfg(tmp_path, text))
    assert cfg.tolerance("norm_bound") == 1e-6


# ---------------------------------------------------------------- reports

def test_empty_check_list_gives_header_only_pass(tmp_path):
    text = MINIMAL.replace("checks = norm_bound", "checks =")
    cfg = load_scenario(write_cfg(tmp_path, text))
    report = run_checks(cfg)
    assert report.records == ()
    assert report.overall_pass
    table = render_table(report)
    assert "overall PASS" in table


def test_jsonl_roundtrip_is_bit_exact(tmp_path):
    cfg = load_scenario(write_cfg(tmp_path, MINIMAL))
    report = run_checks(cfg)
    text = render_jsonl(report)
    back = parse_jsonl(text)
    assert back.scenario_digest == report.scenario_digest
    for orig, parsed in zip(report.records, back.records):
        assert parsed.residual == orig.residual  # bit-exact through 17 digits
        assert parsed.tolerance == orig.tolerance
        assert parsed.passed == orig.passed


def test_failing_record_fails_report():
    from corrdyn.report import CheckRecord

    rep = CheckReport(
        scenario_digest="x",
        records=(
            CheckRecord(name="a", inputs="", residual=0.0, tolerance=1.0, passed=True),
            CheckRecord(name="b", inputs="", residual=2.0, tolerance=1.0, passed=False),
        ),
    )
    assert not rep.overall_pass
    assert "FAIL" in render_table(rep)


# ---------------------------------------------------------------- cli

def test_cli_check_exit_status(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["check", str(path)]) == 0


def test_cli_check_jsonl_output_file(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "report.jsonl"
    assert main(["check", str(path), "--format", "jsonl", "--out", str(out)]) == 0
    parsed = parse_jsonl(out.read_text())
    assert parsed.overall_pass


def test_cli_evolve_writes_parseable_operators(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "f1.ops"
    assert main(["evolve", str(path), "--s", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("time 0")
    with out.open() as fh:
        times = []
        ops = []
        for line in fh:
            if line.startswith("time "):
                times.append(float(line.split()[1]))
                ops.append(read_operator(fh))
    assert times == [0.0, 0.2]
    assert all(op.n == 1 for op in ops)
    # reduced operator of a unit-trace state keeps its trace under the flow
    assert np.isclose(ops[0].trace().real, ops[1].trace().real, atol=1e-10)


def test_cli_evolve_rejects_bad_order(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["evolve", str(path), "--s", "9"]) == 2


def test_cli_parser_is_built_once_and_serves_every_call(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["info", str(path)]) == 0
    assert "matrix side" in capsys.readouterr().out
    assert main(["check", str(path), "--format", "jsonl"]) == 0
    assert parse_jsonl(capsys.readouterr().out).overall_pass


def test_cli_info_runs(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["info", str(path)]) == 0
    captured = capsys.readouterr().out
    assert "matrix side" in captured and "partitions" in captured


PAIR_POTENTIAL = """
[potential.2]
rows =
    0.305+0j -0.564+0.133j -0.564+0.133j 0.503-0.231j
    -0.564-0.133j -0.211+0j -0.363+0j 0.514-0.59j
    -0.564-0.133j -0.363+0j -0.211+0j 0.514-0.59j
    0.503+0.231j 0.514+0.59j 0.514+0.59j -0.859+0j
"""


def info_column(capsys, path, column: int) -> list[int]:
    assert main(["info", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("order  matrix side  partitions  hierarchy terms  group rank")
    rows = [line.split() for line in lines[header + 1:] if line.strip()]
    return [int(row[column]) for row in rows if row[0].isdigit()]


# exchange symmetric three-body coupling at d=2: the count of occupied sites
TRIPLE_POTENTIAL = "\n[potential.3]\nrows =\n" + "".join(
    "    " + " ".join(f"{bin(i).count('1') if i == j else 0}+0j" for j in range(8)) + "\n" for i in range(8)
)


def test_cli_info_counts_commutators_per_order(tmp_path, capsys):
    # one commutator per coupling support: sum over the coupling orders k of C(n, k)
    base = MINIMAL.replace("n_max = 2", "n_max = 4")
    assert info_column(capsys, write_cfg(tmp_path, base + PAIR_POTENTIAL, "pair.cfg"), 3) == [0, 1, 3, 6]
    mixed = write_cfg(tmp_path, base + PAIR_POTENTIAL + TRIPLE_POTENTIAL, "mixed.cfg")
    assert info_column(capsys, mixed, 3) == [0, 1, 4, 10]
    assert info_column(capsys, write_cfg(tmp_path, base, "free.cfg"), 3) == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "stats, ranks",
    [("bose", [2, 3, 4, 5]), ("fermi", [2, 1, 0, 0]), ("boltzmann", [2, 4, 8, 16])],
)
def test_cli_info_prints_group_rank_per_order(tmp_path, capsys, stats, ranks):
    text = MINIMAL.replace("n_max = 2", "n_max = 4").replace("stats = boltzmann", f"stats = {stats}")
    assert info_column(capsys, write_cfg(tmp_path, text), 4) == ranks


@pytest.mark.parametrize("cap, orders", [(4096, 4), (8, 3)])
def test_cli_info_prints_eigh_error_per_order(tmp_path, capsys, cap, orders):
    # one reconstruction error per order whose H_n fits the matrix cap
    text = MINIMAL.replace("n_max = 2", f"n_max = 4\nmatrix_cap = {cap}") + PAIR_POTENTIAL
    assert main(["info", str(write_cfg(tmp_path, text))]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("eigh error")]
    assert len(lines) == 1
    errors = [float(value) for value in lines[0].split()[2:]]
    assert len(errors) == orders
    assert all(0.0 <= error <= 1e-10 for error in errors)


@pytest.mark.parametrize("stats, orders", [("bose", [1, 2, 3, 4]), ("fermi", [1, 2])])
def test_cli_info_eigh_error_reads_the_run_eigensystem(tmp_path, capsys, stats, orders):
    # Bose and Fermi runs diagonalize H~_n, so the line reports that
    # eigensystem, one value per order of nonzero group rank
    text = MINIMAL.replace("n_max = 2", "n_max = 4").replace("stats = boltzmann", f"stats = {stats}")
    path = write_cfg(tmp_path, text + PAIR_POTENTIAL)
    assert main(["info", str(path)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("eigh error")]
    cache = EvolutionCache(load_scenario(path).interaction_spec())
    expected = [f"{cache.reconstruction_error(n, Statistics(stats)):.1e}" for n in orders]
    assert lines == ["eigh error " + " ".join(expected)]


def test_cli_info_eigh_error_with_no_order_within_cap(tmp_path, capsys):
    # a cap below d leaves no order to diagonalize, and the line says so
    text = MINIMAL.replace("n_max = 2", "n_max = 2\nmatrix_cap = 1") + PAIR_POTENTIAL
    assert main(["info", str(write_cfg(tmp_path, text))]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("eigh error")]
    assert lines == ["eigh error none within matrix_cap"]


def test_run_checks_captures_numpy_errors(tmp_path, monkeypatch):
    def singular(config):
        raise np.linalg.LinAlgError("SVD did not converge")

    def domain(config):
        raise DomainError("bad input")

    monkeypatch.setitem(checks.CHECKS, "mobius_roundtrip", singular)
    monkeypatch.setitem(checks.CHECKS, "cumulant_zero_time", domain)
    text = MINIMAL.replace(
        "checks = norm_bound", "checks = mobius_roundtrip cumulant_zero_time norm_bound"
    )
    report = run_checks(load_scenario(write_cfg(tmp_path, text)))
    errored, domain_rec, after = report.records
    assert not errored.passed and errored.error == "LinAlgError: SVD did not converge"
    assert not domain_rec.passed and domain_rec.error == "bad input"
    assert after.name == "norm_bound" and after.passed and after.error is None
    # the NaN residual of an errored check is written as JSON null and read back as NaN
    parsed = parse_jsonl(render_jsonl(report))
    assert [(r.name, r.error, r.passed) for r in parsed.records] == [
        (r.name, r.error, r.passed) for r in report.records
    ]
    assert math.isnan(parsed.records[0].residual) and math.isnan(parsed.records[1].residual)
    assert parsed.records[2].residual == after.residual


def test_check_record_rule(tmp_path, monkeypatch):
    # every lane passes only inside its check's tolerance and with its own ok
    monkeypatch.setattr(checks, "CHECKS", dict(checks.CHECKS))

    @checks._check("solution_vs_integrator", 3)
    def lanes(config):
        yield "inside", 1e-9, True
        yield "inside, step order short", 1e-9, False
        yield "outside", 1e-6, True
        yield "nan", float("nan"), True

    assert checks.CHECKS["solution_vs_integrator"] is lanes
    text = MINIMAL.replace("checks = norm_bound", "checks = solution_vs_integrator")
    records = run_checks(load_scenario(write_cfg(tmp_path, text))).records
    assert [r.inputs for r in records] == ["inside", "inside, step order short", "outside", "nan"]
    assert [r.passed for r in records] == [True, False, False, False]
    assert {(r.name, r.tolerance) for r in records} == {("solution_vs_integrator", 1e-7)}


def test_cumulant_checks_build_each_propagator_once(monkeypatch):
    # a propagator build, and only a build, reads the eigensystem
    requested, builds = set(), []
    propagator, eigensystem = EvolutionCache.propagator, EvolutionCache.eigensystem

    def counting_propagator(self, m, t, stats=Statistics.BOLTZMANN):
        requested.add((m, t, stats))
        return propagator(self, m, t, stats)

    def counting_eigensystem(self, m, stats=Statistics.BOLTZMANN):
        builds.append((m, stats))
        return eigensystem(self, m, stats)

    monkeypatch.setattr(EvolutionCache, "propagator", counting_propagator)
    monkeypatch.setattr(EvolutionCache, "eigensystem", counting_eigensystem)
    [record] = checks.check_cumulant_free(load_scenario(SCENARIOS / "acceptance_bose.cfg"))
    assert record.passed
    assert len(requested) == 5 * 4  # block sizes 1..5 at four times
    assert len(builds) == len(requested)


ONE_BODY_ROWS = "rows =\n    0+0j 1+0j\n    1+0j 0+0j"
OPERATOR_ROWS = "0+0j 1+0j\n1+0j 0+0j\n"
SEQUENCE_COMPONENT = "op 1 2 boltzmann\n" + OPERATOR_ROWS


@pytest.mark.parametrize(
    "text, files, command",
    [
        ("[system\nd = 2\n", {}, "check"),
        (MINIMAL + "\n[tolerances]\nnorm_bound = tight\n", {}, "check"),
        (MINIMAL.replace("kind = random\nseed = 3", "kind = random\nseed = three"), {}, "check"),
        (MINIMAL.replace("kind = random\nseed = 3", "kind = random\nseed = 3\npositive = ture"), {}, "check"),
        (
            MINIMAL.replace(ONE_BODY_ROWS, "file = one.op"),
            {"one.op": "op 1 2 boltzmann\n0+0j 1+0j\n1+0j one\n"},
            "check",
        ),
        (
            MINIMAL.replace(ONE_BODY_ROWS, "file = one.op"),
            {"one.op": "op one 2 boltzmann\n" + OPERATOR_ROWS},
            "check",
        ),
        (
            MINIMAL.replace("kind = random\nseed = 3", "kind = file\npath = initial.seq"),
            {"initial.seq": "seq 1 2 boltzmann\nf0 one\n" + SEQUENCE_COMPONENT},
            "evolve",
        ),
        (
            MINIMAL.replace("kind = random\nseed = 3", "kind = file\npath = initial.seq"),
            {"initial.seq": "seq one 2 boltzmann\nf0 1+0j\n" + SEQUENCE_COMPONENT},
            "evolve",
        ),
        (MINIMAL.replace("n_max = 2", "n_max = 2\nhbar = nan"), {}, "info"),
        (MINIMAL + "\n[tolerances]\nnorm_bound = nan\n", {}, "check"),
        (MINIMAL + "\n[tolerances]\nnorm_bound = -1\n", {}, "check"),
    ],
    ids=[
        "unparsable",
        "tolerance-not-float",
        "initial-seed-not-int",
        "initial-positive-not-bool",
        "operator-bad-complex",
        "operator-bad-header",
        "sequence-bad-complex",
        "sequence-bad-header",
        "hbar-nan",
        "tolerance-nan",
        "tolerance-negative",
    ],
)
def test_cli_reports_config_errors(tmp_path, capsys, text, files, command):
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    argv = [command, str(write_cfg(tmp_path, text))] + (["--s", "1"] if command == "evolve" else [])
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "evolve"])
@pytest.mark.parametrize(
    "anchor, section",
    [("n_max = 2\nseed = 3", "system"), ("kind = random\nseed = 3", "initial")],
    ids=["system", "initial"],
)
def test_negative_seed_is_a_config_error(tmp_path, capsys, anchor, section, command):
    # numpy's generators refuse a negative seed; the scenario is refused at
    # load, naming the key, so neither command reaches a draw
    path = write_cfg(tmp_path, MINIMAL.replace(anchor, anchor.replace("seed = 3", "seed = -1")))
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] seed must be >= 0, got -1")):
        load_scenario(path)
    argv = [command, str(path)] + (["--s", "1"] if command == "evolve" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"[{section}] seed" in err and "Traceback" not in err


def potential_section(name: str) -> str:
    rows = "".join("\n    " + " ".join("0+0j" for _ in range(4)) for _ in range(4))
    return f"\n[{name}]\nrows ={rows}\n"


@pytest.mark.parametrize("command", ["check", "evolve"])
@pytest.mark.parametrize("duplicate", ["potential.02", "potential.+2"])
def test_duplicate_coupling_order_is_a_config_error(tmp_path, capsys, duplicate, command):
    # both sections parse as k = 2, so the later one would silently replace
    # the earlier; the scenario is refused at load, naming both sections
    path = write_cfg(tmp_path, MINIMAL + potential_section("potential.2") + potential_section(duplicate))
    with pytest.raises(ConfigError, match=re.escape(f"[potential.2] and [{duplicate}] both give the potential of order 2")):
        load_scenario(path)
    argv = [command, str(path)] + (["--s", "1"] if command == "evolve" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"[{duplicate}]" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "case",
    [
        "scenario-is-directory",
        "scenario-not-utf8",
        "matrix-file-is-directory",
        "initial-path-is-directory",
        "check-out-missing-directory",
        "evolve-out-missing-directory",
    ],
)
def test_cli_reports_io_errors(tmp_path, capsys, case):
    # exit 1 of `check` means a failed record, so an unreadable or unwritable
    # file must exit 2 with an error line, not escape as a traceback
    (tmp_path / "sub").mkdir()
    path = write_cfg(tmp_path, MINIMAL)
    command, out = "check", []
    if case == "scenario-is-directory":
        path = tmp_path / "sub"
    elif case == "scenario-not-utf8":
        path.write_bytes(b"\xff\xfe" + MINIMAL.encode())
    elif case == "matrix-file-is-directory":
        path = write_cfg(tmp_path, MINIMAL.replace(ONE_BODY_ROWS, "file = sub"))
    elif case == "initial-path-is-directory":
        command = "evolve"
        path = write_cfg(tmp_path, MINIMAL.replace("kind = random\nseed = 3", "kind = file\npath = sub"))
    else:
        command = case.split("-")[0]
        out = ["--out", str(tmp_path / "missing" / "x")]
    argv = [command, str(path)] + (["--s", "1"] if command == "evolve" else []) + out
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_check_out_into_missing_directory_runs_no_check(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setitem(checks.CHECKS, "norm_bound", lambda config: calls.append(config) or [])
    path = write_cfg(tmp_path, MINIMAL)
    assert main(["check", str(path), "--out", str(tmp_path / "missing" / "x")]) == 2
    err = capsys.readouterr().err
    assert calls == []
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("site", ["matrix-file", "initial-path"])
def test_cli_names_undecodable_file(tmp_path, capsys, site):
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe" + SEQUENCE_COMPONENT.encode())
    if site == "matrix-file":
        command, text = "check", MINIMAL.replace(ONE_BODY_ROWS, "file = bad.txt")
    else:
        command, text = "evolve", MINIMAL.replace("kind = random\nseed = 3", "kind = file\npath = bad.txt")
    argv = [command, str(write_cfg(tmp_path, text))] + (["--s", "1"] if command == "evolve" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.txt" in err and "Traceback" not in err


def test_checks_refuse_above_matrix_cap_before_any_draw(tmp_path, monkeypatch):
    # at d=2 and cap 8 the order-3 checks run; the others need side 16 or 32
    sides = []

    def spy(draw, side_of):
        def wrapped(*args):
            sides.append(side_of(*args))
            return draw(*args)

        return wrapped

    monkeypatch.setattr(hilbert, "random_hermitian", spy(hilbert.random_hermitian, lambda rng, dim: dim))
    monkeypatch.setattr(checks, "random_hermitian", spy(checks.random_hermitian, lambda rng, dim: dim))
    monkeypatch.setattr(checks, "_random_operator", spy(checks._random_operator, lambda rng, n, c: c.d**n))
    text = MINIMAL.replace("n_max = 2", "n_max = 2\nmatrix_cap = 8").replace(
        "checks = norm_bound", "checks = " + " ".join(config.KNOWN_CHECKS)
    )
    records = run_checks(load_scenario(write_cfg(tmp_path, text))).records
    assert sides and max(sides) <= 8
    refused = {"cumulant_zero_time", "cumulant_free", "bbgky_residual", "definition_consistency", "norm_bound"}
    assert {r.name for r in records if r.error} == refused
    assert all("above cap 8" in r.error and not r.passed for r in records if r.error)


def test_cli_evolve_checks_matrix_cap_before_building(tmp_path, capsys, monkeypatch):
    def never(g):
        raise AssertionError("marginals built before the cap check")

    monkeypatch.setattr(cli, "marginals_from_correlations", never)
    path = write_cfg(tmp_path, MINIMAL.replace("n_max = 2", "n_max = 3\nmatrix_cap = 4"))
    assert main(["evolve", str(path), "--s", "1"]) == 2
    assert "cap 4" in capsys.readouterr().err


def test_cli_evolve_rejects_pauli_excluded_start_before_building(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("random data built before the exclusion check")

    monkeypatch.setattr(cli, "random_sequence", never)
    path = SCENARIOS / "acceptance_fermi.cfg"  # d=2, n_max=4, positive random start
    assert main(["evolve", str(path), "--s", "1"]) == 2
    err = capsys.readouterr().err
    assert "Pauli exclusion" in err and "n_max <= d" in err


@pytest.mark.parametrize("word, positive", [("no", False), ("On", True), ("0", False)])
def test_initial_positive_accepts_boolean_words(tmp_path, word, positive):
    text = MINIMAL.replace("kind = random\nseed = 3", f"kind = random\nseed = 3\npositive = {word}")
    assert load_scenario(write_cfg(tmp_path, text)).initial.positive is positive


def test_symmetry_violation_flags_swap_asymmetric_evolution():
    # a Bose two-particle component evolved by a Hermitian H that is not swap
    # symmetric loses its exchange symmetry, and the symmetry check sees it
    rng = np.random.default_rng(5)
    component = random_state_component(rng, 2, 2, Statistics.BOSE)
    h = np.array([[1, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.5, -1, 0], [0, 0, 0, 0]], dtype=complex)
    energies, basis = np.linalg.eigh(h)
    u = basis @ np.diag(np.exp(-0.6j * energies)) @ basis.conj().T
    evolved = component.with_mat(u @ component.mat @ u.conj().T)
    assert checks._symmetry_violation(component) < 1e-12
    assert checks._symmetry_violation(evolved) > 1e-3


def test_strict_validation_rejects_corrupted_potential(tmp_path):
    text = """
[system]
d = 2
stats = bose
n_max = 2
seed = 5

[one_body]
rows =
    0+0j 1+0j
    1+0j 0+0j

[potential.2]
rows =
    1+0j 0+0j 0+0j 0+0j
    0+0j 0+0j 0.5+0j 0+0j
    0+0j 0.5+0j -1+0j 0+0j
    0+0j 0+0j 0+0j 0+0j

[initial]
kind = random

[run]
checks = norm_bound
"""
    path = write_cfg(tmp_path, text)
    cfg = load_scenario(path)
    # load passes (couplings validated by the dynamics layer), run reports it
    report = run_checks(cfg)
    assert not report.overall_pass
    assert report.records[0].error is not None


def test_cli_evolve_from_sequence_file(tmp_path):
    import numpy as np

    from corrdyn.hilbert import random_sequence, write_sequence

    rng = np.random.default_rng(17)
    d_seq = random_sequence(rng, 2, Statistics.BOLTZMANN, 2, positive=True, f0=1.0)
    seq_path = tmp_path / "initial.seq"
    with seq_path.open("w") as fh:
        write_sequence(d_seq, fh)
    text = MINIMAL.replace("kind = random\nseed = 3", "kind = file\npath = initial.seq")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "f1.ops"
    assert main(["evolve", str(path), "--s", "1", "--out", str(out)]) == 0
    with out.open() as fh:
        fh.readline()  # time 0
        op0 = read_operator(fh)
    assert op0.n == 1


def test_cli_evolve_rejects_a_non_invariant_boltzmann_sequence_file(tmp_path, capsys):
    # the series reads only marginals that the twirl fixes: a Boltzmann
    # density whose order-2 component is a raw Hermitian draw exits 2 with
    # the order named, and writes nothing
    from corrdyn.hilbert import ManyBodyOperator, OperatorSequence, random_hermitian, write_sequence

    rng = np.random.default_rng(18)
    comps = {n: ManyBodyOperator(n, 2, random_hermitian(rng, 2**n)) for n in (1, 2)}
    with (tmp_path / "initial.seq").open("w") as fh:
        write_sequence(OperatorSequence(d=2, stats=Statistics.BOLTZMANN, n_max=2, f0=1.0, components=comps), fh)
    path = write_cfg(tmp_path, MINIMAL.replace("kind = random\nseed = 3", "kind = file\npath = initial.seq"))
    out = tmp_path / "f1.ops"
    assert main(["evolve", str(path), "--s", "1", "--out", str(out)]) == 2
    assert "error: boltzmann marginal component 2 is not fixed" in capsys.readouterr().err
    assert not out.exists()


def test_determinism_scenario_reports_are_byte_identical(tmp_path):
    scenario = SCENARIOS / "determinism.cfg"
    # the child process imports corrdyn from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "corrdyn.cli", "check", str(scenario),
             "--format", "jsonl", "--out", str(out)],
            capture_output=True,
            cwd=REPO,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
