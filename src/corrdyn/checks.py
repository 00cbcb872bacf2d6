"""Named verification suites run by ``corrdyn check``.

Each check owns the structural regime its contract states (truncation
order, time grid, lane structure) and takes the physical system (dimension,
statistics, couplings, hbar) plus the seed and tolerance from the scenario.
Checks synthesize their own seeded data; a missing coupling a check needs
(for example a three-body term for the mixed-coupling lane) is synthesized
from the seed and noted in the record inputs.

All reductions run in canonical partition order, so results are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable

import numpy as np

from . import oracles
from .bbgky import (
    MarginalSequence,
    cumulant_apply,
    cumulant_norm_bound_check,
    marginal_from_clusters,
    marginals_from_correlations,
    bbgky_rhs,
    solve_bbgky_series,
    solve_series_time_derivative,
)
from .combinatorics import ClusterSet
from .config import ScenarioConfig
from .correlations import (
    CorrelationSequence,
    correlations_to_density,
    density_to_correlations,
    integrate_hierarchy,
    von_neumann_rhs,
)
from .errors import CorrdynError
from .hamiltonian import EvolutionCache, InteractionSpec, evolve_group
from .hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Statistics,
    all_permutations,
    permutation_average,
    permutation_conjugate,
    permute_ket,
    random_hermitian,
    random_sequence,
    random_state_component,
    trace_norm,
)
from .report import CheckRecord, CheckReport


def _rng(config: ScenarioConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, tag])


def _random_operator(rng: np.random.Generator, n: int, config: ScenarioConfig) -> ManyBodyOperator:
    """Seeded complex n-particle operator, real part drawn before imaginary."""
    side = config.d**n
    real = rng.standard_normal((side, side))
    return ManyBodyOperator(n, config.d, real + 1j * rng.standard_normal((side, side)), config.stats)


def _symmetrized_coupling(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """Seeded Hermitian k-body matrix averaged over factor permutations."""
    return permutation_average(random_hermitian(rng, d**k), k, d)


def _pair_spec(config: ScenarioConfig) -> tuple[InteractionSpec, str]:
    """Scenario couplings restricted to the two-body term (free if absent)."""
    if 2 in config.potentials:
        return config.interaction_spec({2: config.potentials[2]}), "scenario phi2"
    return config.interaction_spec({}), "free"


def _synth_two_body_spec(config: ScenarioConfig, rng: np.random.Generator) -> tuple[InteractionSpec, str]:
    """``_pair_spec``, with a seeded two-body coupling in place of none."""
    if 2 in config.potentials:
        return _pair_spec(config)
    return config.interaction_spec({2: _symmetrized_coupling(rng, 2, config.d)}), "seeded phi2"


def _synth_mixed_spec(config: ScenarioConfig, rng: np.random.Generator) -> tuple[InteractionSpec, str]:
    pots = dict(config.potentials)
    note = []
    if 2 not in pots:
        pots[2] = _symmetrized_coupling(rng, 2, config.d)
        note.append("seeded phi2")
    if 3 not in pots:
        pots[3] = _symmetrized_coupling(rng, 3, config.d)
        note.append("seeded phi3")
    return config.interaction_spec({2: pots[2], 3: pots[3]}), ",".join(note) or "scenario phi2+phi3"


# --------------------------------------------------------------------------


def check_mobius_roundtrip(config: ScenarioConfig) -> list[CheckRecord]:
    """Both compositions of the density/correlation transform pair are the
    identity on 50 seeded statistics-symmetric sequences at order 3."""
    tol = config.tolerance("mobius_roundtrip")
    rng = _rng(config, 1)
    n_max = 3
    worst = 0.0
    for _ in range(50):
        d_seq = random_sequence(rng, config.d, config.stats, n_max, f0=1.0)
        back = correlations_to_density(density_to_correlations(d_seq))
        for n in range(1, n_max + 1):
            delta = trace_norm(back.component(n) - d_seq.component(n))
            worst = max(worst, delta / (1.0 + trace_norm(d_seq.component(n))))
        g_seq = density_to_correlations(random_sequence(rng, config.d, config.stats, n_max))
        g_back = density_to_correlations(correlations_to_density(g_seq))
        for n in range(1, n_max + 1):
            delta = trace_norm(g_back.component(n) - g_seq.component(n))
            worst = max(worst, delta / (1.0 + trace_norm(g_seq.component(n))))
    return [
        CheckRecord(
            name="mobius_roundtrip",
            inputs=f"stats={config.stats} d={config.d} n_max={n_max} sequences=50",
            residual=worst,
            tolerance=tol,
            passed=worst <= tol,
        )
    ]


def check_hierarchy_residual(config: ScenarioConfig) -> list[CheckRecord]:
    """d/dt of the transformed unitary evolution matches the hierarchy
    right-hand side (Richardson-extrapolated central differences)."""
    tol = config.tolerance("hierarchy_residual")
    rng = _rng(config, 2)
    spec, note = _pair_spec(config)
    n_max = 3
    d0 = random_sequence(rng, config.d, config.stats, n_max, f0=1.0)
    h = 1e-4

    def g_at(t: float) -> CorrelationSequence:
        return density_to_correlations(oracles.direct_density_evolution(d0, t, spec))

    worst = 0.0
    for t in (0.0, 0.3, 1.0):
        g_t = g_at(t)
        g_p, g_m = g_at(t + h), g_at(t - h)
        g_p2, g_m2 = g_at(t + h / 2), g_at(t - h / 2)
        for n in range(1, n_max + 1):
            coarse = (g_p.component(n).mat - g_m.component(n).mat) / (2 * h)
            fine = (g_p2.component(n).mat - g_m2.component(n).mat) / h
            deriv = (4.0 * fine - coarse) / 3.0
            rhs = von_neumann_rhs(g_t, n, spec)
            worst = max(worst, trace_norm(deriv - rhs.mat))
    return [
        CheckRecord(
            name="hierarchy_residual",
            inputs=f"stats={config.stats} n<=3 t=0,0.3,1.0 richardson h=1e-4 ({note})",
            residual=worst,
            tolerance=tol,
            passed=worst <= tol,
        )
    ]


def check_cumulant_zero_time(config: ScenarioConfig) -> list[CheckRecord]:
    """Orders >= 2 of the evolution-group cumulant cancel at t = 0."""
    tol = config.tolerance("cumulant_zero_time")
    rng = _rng(config, 3)
    spec, note = config.interaction_spec(), "scenario couplings"
    cache = EvolutionCache(spec)
    worst = 0.0
    for s in (1, 2):
        for n in (1, 2, 3):
            f = _random_operator(rng, s + n, config)
            out = cumulant_apply(0.0, ClusterSet.canonical(s, n), f, cache)
            worst = max(worst, trace_norm(out) / trace_norm(f))
    return [
        CheckRecord(
            name="cumulant_zero_time",
            inputs=f"s=1..2 n=1..3 random f ({note})",
            residual=worst,
            tolerance=tol,
            passed=worst <= tol,
        )
    ]


def check_cumulant_free(config: ScenarioConfig) -> list[CheckRecord]:
    """With all couplings removed the block evolutions factorize, so every
    cumulant of order >= 2 vanishes for all times."""
    tol = config.tolerance("cumulant_free")
    rng = _rng(config, 4)
    free_spec = config.interaction_spec({})
    cache = EvolutionCache(free_spec)
    worst = 0.0
    for s in (1, 2):
        for n in (1, 2, 3):
            f = _random_operator(rng, s + n, config)
            for t in (-5.0, -1.3, 0.4, 5.0):
                out = cumulant_apply(t, ClusterSet.canonical(s, n), f, cache)
                worst = max(worst, trace_norm(out) / trace_norm(f))
    return [
        CheckRecord(
            name="cumulant_free",
            inputs="free coupling, s=1..2 n=1..3 |t|<=5",
            residual=worst,
            tolerance=tol,
            passed=worst <= tol,
        )
    ]


def check_bbgky_residual(config: ScenarioConfig) -> list[CheckRecord]:
    """Exact time derivative of the solution series equals the chain
    right-hand side, for two-body and mixed two-plus-three-body couplings."""
    tol = config.tolerance("bbgky_residual")
    records = []
    n_max = 4
    for tag, make in ((5, _synth_two_body_spec), (6, _synth_mixed_spec)):
        rng = _rng(config, tag)
        spec, note = make(config, rng)
        cache = EvolutionCache(spec)
        d0_comps = {}
        for n in range(1, n_max + 1):
            comp = random_state_component(rng, n, config.d, config.stats)
            nrm = trace_norm(comp)
            if nrm > 1e-12:
                comp = (1.0 / nrm) * comp
            d0_comps[n] = comp
        d0 = OperatorSequence(
            d=config.d, stats=config.stats, n_max=n_max, f0=1.0, components=d0_comps
        )
        f0 = oracles.grand_marginals(d0)
        worst = 0.0
        for t in (0.1, 0.7):
            f_t = MarginalSequence(
                d=config.d,
                stats=config.stats,
                n_max=n_max,
                components={s: solve_bbgky_series(f0, t, s, cache) for s in range(1, n_max + 1)},
            )
            for s in (1, 2):
                lhs = solve_series_time_derivative(f0, t, s, cache)
                rhs = bbgky_rhs(f_t, s, spec)
                worst = max(worst, trace_norm(lhs - rhs))
        lane = "two-body" if make is _synth_two_body_spec else "two+three-body"
        records.append(
            CheckRecord(
                name="bbgky_residual",
                inputs=f"{lane} stats={config.stats} n_max=4 s=1,2 t=0.1,0.7 ({note})",
                residual=worst,
                tolerance=tol,
                passed=worst <= tol,
            )
        )
    return records


def check_definition_consistency(config: ScenarioConfig) -> list[CheckRecord]:
    """Reduced operators built from traced cluster correlations against the
    classical-reference sum of traced density components.

    Data uses traceless components, the finite surrogate of unit-normalized
    ensemble data; for BOLTZMANN the truncated identity is then exact.  For
    BOSE/FERMI the two definitions differ by a gap that does not shrink as
    n_max grows, of open cause (ROADMAP item 1); this check reports it.
    """
    tol = config.tolerance("definition_consistency")
    rng = _rng(config, 7)
    spec = config.interaction_spec()
    records = []
    for n_max in (3, 4):
        d0 = random_sequence(rng, config.d, config.stats, n_max, traceless=True, f0=1.0)
        worst = 0.0
        method = ""
        for t in (0.0, 1.5):
            d_t = oracles.direct_density_evolution(d0, t, spec)
            g_t = density_to_correlations(d_t)
            for s in (1, 2):
                lhs = marginal_from_clusters(g_t, s)
                ref = oracles.reference_marginal(d_t, s)
                method = ref.method
                worst = max(worst, trace_norm(lhs - ref.value) / (1.0 + trace_norm(ref.value)))
        records.append(
            CheckRecord(
                name="definition_consistency",
                inputs=(
                    f"stats={config.stats} n_max={n_max} s<=2 t<=1.5 traceless data "
                    f"vs {method}"
                ),
                residual=worst,
                tolerance=tol,
                passed=worst <= tol,
            )
        )
    return records


def check_solution_vs_integrator(config: ScenarioConfig) -> list[CheckRecord]:
    """Cumulant-series solution against RK4 integration of the correlation
    hierarchy from uncorrelated initial data, including the fourth-order
    step-size scaling of the discrepancy."""
    tol = config.tolerance("solution_vs_integrator")
    rng = _rng(config, 8)
    spec, note = _pair_spec(config)
    cache = EvolutionCache(spec)
    n_max = 3
    t = 0.5
    g1 = random_state_component(rng, 1, config.d, config.stats)
    g0 = CorrelationSequence(
        d=config.d, stats=config.stats, n_max=n_max, f0=0j, components={1: g1}
    )
    f0 = marginals_from_correlations(g0)
    reference = {s: solve_bbgky_series(f0, t, s, cache) for s in range(1, n_max + 1)}

    def gap(steps_per_unit: int) -> float:
        steps = max(1, round(steps_per_unit * t))
        g_t = integrate_hierarchy(g0, t, steps, spec)
        return max(
            trace_norm(marginal_from_clusters(g_t, s) - reference[s])
            for s in range(1, n_max + 1)
        )

    residual = gap(2000)
    e_coarse, e_fine = gap(250), gap(500)
    order = math.log2(e_coarse / e_fine) if e_fine > 0 else float("inf")
    passed = residual <= tol and order >= 3.7
    return [
        CheckRecord(
            name="solution_vs_integrator",
            inputs=(
                f"stats={config.stats} chaos data t={t} rk4@2000/unit, "
                f"order={order:.2f} from steps 250->500 ({note})"
            ),
            residual=residual,
            tolerance=tol,
            passed=passed,
        )
    ]


def check_norm_bound(config: ScenarioConfig) -> list[CheckRecord]:
    """Trace-norm growth of cumulant applications stays within the
    partition-counting bound (each unitary term is an isometry)."""
    tol = config.tolerance("norm_bound")
    rng = _rng(config, 9)
    spec, note = config.interaction_spec(), "scenario couplings"
    cache = EvolutionCache(spec)
    worst = 0.0
    worst_ratio = 0.0
    bound_factor = 0.0
    for i in range(20):
        n = 1 + (i % 3)
        f = _random_operator(rng, 1 + n, config)
        rep = cumulant_norm_bound_check(0.7, 1, n, f, cache)
        worst = max(worst, max(0.0, (rep.lhs - rep.bound)) / rep.bound)
        worst_ratio = max(worst_ratio, rep.lhs / rep.input_norm)
        bound_factor = max(bound_factor, rep.bound_factor)
    return [
        CheckRecord(
            name="norm_bound",
            inputs=f"20 seeded f, n<=3, max ratio {worst_ratio:.3f} vs factor {bound_factor:.0f} ({note})",
            residual=worst,
            tolerance=tol,
            passed=worst <= tol,
        )
    ]


def _symmetry_violation(op: ManyBodyOperator) -> float:
    """Max over group elements of the two-sided conjugation defect and
    (for quantum statistics) the one-sided sign-rule defect, relative to
    the operator norm."""
    if op.n <= 1:
        return 0.0
    scale = max(trace_norm(op), 1e-30)
    worst = 0.0
    for perm in all_permutations(op.n):
        permuted = permute_ket(perm, op)
        sign = op.stats.permutation_sign(perm.parity)
        if op.stats is not Statistics.BOLTZMANN:
            worst = max(worst, trace_norm(permuted - sign * op) / scale)
        conj = permutation_conjugate(perm, op.mat, op.d)
        worst = max(worst, trace_norm(conj - op.mat) / scale)
    return worst


def check_symmetry_preservation(config: ScenarioConfig) -> list[CheckRecord]:
    """Exchange symmetry of state components survives every transform:
    the transform pair, cluster correlations, evolution and marginals."""
    tol = config.tolerance("symmetry_preservation")
    rng = _rng(config, 10)
    spec, note = config.interaction_spec(), "scenario couplings"
    cache = EvolutionCache(spec)
    n_max = 3
    d_seq = random_sequence(rng, config.d, config.stats, n_max, f0=1.0)
    worst = 0.0
    where = "input"
    candidates: list[tuple[str, ManyBodyOperator]] = []
    g_seq = density_to_correlations(d_seq)
    back = correlations_to_density(g_seq)
    for n in range(1, n_max + 1):
        candidates.append((f"correlations[{n}]", g_seq.component(n)))
        candidates.append((f"density_roundtrip[{n}]", back.component(n)))
        candidates.append((f"evolved[{n}]", evolve_group(d_seq.component(n), 0.6, cache)))
    for s in (1, 2):
        candidates.append((f"marginal[{s}]", marginal_from_clusters(g_seq, s)))
    for name, op in candidates:
        violation = _symmetry_violation(op)
        if violation > worst:
            worst, where = violation, name
    return [
        CheckRecord(
            name="symmetry_preservation",
            inputs=f"stats={config.stats} worst at {where} ({note})",
            residual=worst,
            tolerance=tol,
            passed=worst <= tol,
        )
    ]


CHECKS: dict[str, Callable[[ScenarioConfig], list[CheckRecord]]] = {
    "mobius_roundtrip": check_mobius_roundtrip,
    "hierarchy_residual": check_hierarchy_residual,
    "cumulant_zero_time": check_cumulant_zero_time,
    "cumulant_free": check_cumulant_free,
    "bbgky_residual": check_bbgky_residual,
    "definition_consistency": check_definition_consistency,
    "solution_vs_integrator": check_solution_vs_integrator,
    "norm_bound": check_norm_bound,
    "symmetry_preservation": check_symmetry_preservation,
}


def run_checks(config: ScenarioConfig) -> CheckReport:
    """Run the scenario's named checks; a failing or erroring check never
    aborts the suite.  Results keep the configured check order."""

    def run_one(name: str) -> list[CheckRecord]:
        started = time.perf_counter()
        try:
            records = CHECKS[name](config)
        except Exception as exc:
            error = str(exc) if isinstance(exc, CorrdynError) else f"{type(exc).__name__}: {exc}"
            records = [
                CheckRecord(
                    name=name,
                    inputs="",
                    residual=float("nan"),
                    tolerance=config.tolerance(name),
                    passed=False,
                    error=error,
                )
            ]
        elapsed_ms = (time.perf_counter() - started) * 1e3
        return [dataclasses.replace(r, wall_ms=elapsed_ms) for r in records]

    records = tuple(r for name in config.checks for r in run_one(name))
    return CheckReport(scenario_digest=config.digest, records=records)
