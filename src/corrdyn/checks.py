"""Named verification suites run by ``corrdyn check``.

Each check owns the structural regime its contract states (truncation
order, time grid, lane structure) and takes the physical system (dimension,
statistics, couplings, hbar) plus the seed and tolerance from the scenario.
Checks synthesize their own seeded data; a missing coupling a check needs
(for example a three-body term for the mixed-coupling lane) is synthesized
from the seed and noted in the record inputs.

A check states only its lanes: it yields one ``(inputs, residual, ok)``
per lane, and ``_check`` turns every lane into its record by one rule,

    passed = residual <= config.tolerance(name) and ok,

so a NaN residual fails.  ``ok`` carries a lane's own extra condition (the
step order of ``solution_vs_integrator``) and is True elsewhere.  ``_check``
also registers the check in ``CHECKS``, in definition order, and refuses
it before any draw when its largest matrix side exceeds ``matrix_cap``.

All reductions run in canonical partition order, so results are
bit-reproducible for a fixed seed.

A check that repeats one computation on independent seeded draws stacks
them: it makes the draws in the order a loop over the draws would, stacks
them along a leading axis and runs each step once on the
``[..., side, side]`` stack (the sampler's ``symmetric_state``, the
transform bodies ``correlation_mats`` and ``density_mats``,
``trace_norm``).  Each slice of a stacked step equals the step on that
slice bit for bit, so a stacked lane reports the residual of the loop.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Callable, Iterator

import numpy as np

from . import oracles
from .bbgky import (
    BBGKYSeries,
    MarginalSequence,
    cumulant_apply,
    cumulant_norm_bound_check,
    marginal_from_clusters,
    marginals_from_correlations,
    bbgky_rhs,
)
from .combinatorics import ClusterSet
from .config import ScenarioConfig
from .correlations import (
    CorrelationSequence,
    correlation_mats,
    correlations_to_density,
    density_mats,
    density_to_correlations,
    integrate_hierarchy,
    von_neumann_rhs,
)
from .errors import CorrdynError, ResourceCapError
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
    symmetric_state,
    trace_norm,
)
from .report import CheckRecord, CheckReport

Lane = tuple[str, float, bool]

CHECKS: dict[str, Callable[[ScenarioConfig], list[CheckRecord]]] = {}


def _check(name: str, largest_n: int):
    """Register a lane generator as the check ``name``, whose records
    follow the one pass rule of the module docstring, refusing before any
    draw when a d^largest_n side exceeds the scenario's ``matrix_cap``."""

    def register(lanes: Callable[[ScenarioConfig], Iterator[Lane]]):
        @functools.wraps(lanes)
        def check(config: ScenarioConfig) -> list[CheckRecord]:
            if config.d**largest_n > config.matrix_cap:
                raise ResourceCapError(f"{name} needs side {config.d**largest_n}, above cap {config.matrix_cap}")
            tol = config.tolerance(name)
            return [
                CheckRecord(name, inputs, residual, tol, passed=residual <= tol and ok)
                for inputs, residual, ok in lanes(config)
            ]

        CHECKS[name] = check
        return check

    return register


def _rng(config: ScenarioConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, tag])


def _random_operator(rng: np.random.Generator, n: int, config: ScenarioConfig) -> ManyBodyOperator:
    """Seeded complex n-particle operator, real part drawn before imaginary."""
    side = config.d**n
    real = rng.standard_normal((side, side))
    return ManyBodyOperator(n, config.d, real + 1j * rng.standard_normal((side, side)), config.stats)


def _pair_spec(config: ScenarioConfig) -> tuple[InteractionSpec, str]:
    """Scenario couplings restricted to the two-body term (free if absent)."""
    if 2 in config.potentials:
        return config.interaction_spec({2: config.potentials[2]}), "scenario phi2"
    return config.interaction_spec({}), "free"


def _seeded_spec(
    config: ScenarioConfig, rng: np.random.Generator, orders: tuple[int, ...]
) -> tuple[InteractionSpec, str]:
    """Scenario couplings restricted to ``orders``; each order the scenario
    lacks is drawn from ``rng``, in order, as a Hermitian matrix averaged
    over factor permutations, and noted as seeded."""
    pots, seeded = {}, []
    for k in orders:
        if k in config.potentials:
            pots[k] = config.potentials[k]
        else:
            pots[k] = permutation_average(random_hermitian(rng, config.d**k), k, config.d)
            seeded.append(f"seeded phi{k}")
    note = ",".join(seeded) or "scenario " + "+".join(f"phi{k}" for k in orders)
    return config.interaction_spec(pots), note


def _cumulant_ratio(
    config: ScenarioConfig, rng: np.random.Generator, spec: InteractionSpec, times: tuple[float, ...]
) -> float:
    """Largest ||A(t) f|| / ||f|| of the cumulant of cluster set (s, n) over
    s = 1..2, n = 1..3 and ``times``, one seeded f per (s, n) drawn first.
    Times run outermost: the cache keeps one time per order, so each U_m(t)
    is built once."""
    cache = EvolutionCache(spec)
    drawn = [(s, n, _random_operator(rng, s + n, config)) for s in (1, 2) for n in (1, 2, 3)]
    worst = 0.0
    for t in times:
        for s, n, f in drawn:
            out = cumulant_apply(t, ClusterSet.canonical(s, n), f, cache)
            worst = max(worst, trace_norm(out) / trace_norm(f))
    return worst


# --------------------------------------------------------------------------


@_check("mobius_roundtrip", 3)
def check_mobius_roundtrip(config: ScenarioConfig) -> Iterator[Lane]:
    """Both compositions of the density/correlation transform pair are the
    identity on 50 seeded statistics-symmetric sequences at order 3: per
    sequence a density sequence (orders 1..3) and then a sequence whose
    transform is the correlation input, drawn in that order and stacked."""
    rng = _rng(config, 1)
    d, stats, n_max, count = config.d, config.stats, 3, 50
    orders = [*range(1, n_max + 1)] * 2
    draws = [[random_hermitian(rng, d**n) for n in orders] for _ in range(count)]
    states = [symmetric_state(np.stack(raw), n, d, stats) for n, raw in zip(orders, zip(*draws))]
    densities = dict(enumerate(states[:n_max], 1))
    correlations = correlation_mats(dict(enumerate(states[n_max:], 1)), d, stats)
    trips = (
        (densities, density_mats(correlation_mats(densities, d, stats), d, stats)),
        (correlations, correlation_mats(density_mats(correlations, d, stats), d, stats)),
    )
    worst = 0.0
    for seq, back in trips:
        for n in range(1, n_max + 1):
            ratios = trace_norm(back[n] - seq[n]) / (1.0 + trace_norm(seq[n]))
            worst = max(worst, float(ratios.max()))
    yield f"stats={stats} d={d} n_max={n_max} sequences={count}", worst, True


@_check("hierarchy_residual", 3)
def check_hierarchy_residual(config: ScenarioConfig) -> Iterator[Lane]:
    """d/dt of the transformed unitary evolution matches the hierarchy
    right-hand side (Richardson-extrapolated central differences).  The
    oracle evolves one density sequence to every (time, offset), and the
    15 evolved sequences are transformed as one stack."""
    rng = _rng(config, 2)
    spec, note = _pair_spec(config)
    d, stats, n_max = config.d, config.stats, 3
    d0 = random_sequence(rng, d, stats, n_max, f0=1.0)
    h = 1e-4
    times, offsets = (0.0, 0.3, 1.0), (0.0, h, -h, h / 2, -h / 2)
    evolved = [oracles.direct_density_evolution(d0, t + dt, spec) for t in times for dt in offsets]
    stacks = {n: np.stack([seq.component(n).mat for seq in evolved]) for n in range(1, n_max + 1)}
    g = correlation_mats(stacks, d, stats)
    g = {n: mats.reshape(len(times), len(offsets), d**n, d**n) for n, mats in g.items()}
    worst = 0.0
    for i in range(len(times)):
        comps = {n: ManyBodyOperator(n, d, g[n][i, 0], stats) for n in g}
        g_t = CorrelationSequence(d=d, stats=stats, n_max=n_max, f0=0j, components=comps)
        for n, at in g.items():
            coarse = (at[i, 1] - at[i, 2]) / (2 * h)
            fine = (at[i, 3] - at[i, 4]) / h
            deriv = (4.0 * fine - coarse) / 3.0
            worst = max(worst, trace_norm(deriv - von_neumann_rhs(g_t, n, spec).mat))
    yield f"stats={stats} n<=3 t=0,0.3,1.0 richardson h=1e-4 ({note})", worst, True


@_check("cumulant_zero_time", 5)
def check_cumulant_zero_time(config: ScenarioConfig) -> Iterator[Lane]:
    """Orders >= 2 of the evolution-group cumulant cancel at t = 0."""
    ratio = _cumulant_ratio(config, _rng(config, 3), config.interaction_spec(), (0.0,))
    yield "s=1..2 n=1..3 random f (scenario couplings)", ratio, True


@_check("cumulant_free", 5)
def check_cumulant_free(config: ScenarioConfig) -> Iterator[Lane]:
    """With all couplings removed the block evolutions factorize, so every
    cumulant of order >= 2 vanishes for all times."""
    times = (-5.0, -1.3, 0.4, 5.0)
    ratio = _cumulant_ratio(config, _rng(config, 4), config.interaction_spec({}), times)
    yield "free coupling, s=1..2 n=1..3 |t|<=5", ratio, True


@_check("bbgky_residual", 4)
def check_bbgky_residual(config: ScenarioConfig) -> Iterator[Lane]:
    """Exact time derivative of the solution series equals the chain
    right-hand side, for two-body and mixed two-plus-three-body couplings."""
    n_max = 4
    for tag, orders, lane in ((5, (2,), "two-body"), (6, (2, 3), "two+three-body")):
        rng = _rng(config, tag)
        spec, note = _seeded_spec(config, rng, orders)
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
        series = {s: BBGKYSeries(f0, s, cache) for s in range(1, n_max + 1)}
        worst = 0.0
        for t in (0.1, 0.7):
            f_t = MarginalSequence(
                d=config.d,
                stats=config.stats,
                n_max=n_max,
                components={s: series[s].at(t) for s in range(1, n_max + 1)},
            )
            for s in (1, 2):
                lhs = series[s].rate(t)
                rhs = bbgky_rhs(f_t, s, spec)
                worst = max(worst, trace_norm(lhs - rhs))
        yield f"{lane} stats={config.stats} n_max=4 s=1,2 t=0.1,0.7 ({note})", worst, True


@_check("definition_consistency", 4)
def check_definition_consistency(config: ScenarioConfig) -> Iterator[Lane]:
    """Reduced operators built from traced cluster correlations against the
    classical-reference sum of traced density components.

    Data uses traceless components, the finite surrogate of unit-normalized
    ensemble data; for BOLTZMANN the truncated identity is then exact.  For
    BOSE/FERMI the two definitions differ by a gap that does not shrink as
    n_max grows, of open cause (ROADMAP item 1); this check reports it.
    """
    rng = _rng(config, 7)
    spec = config.interaction_spec()
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
        inputs = f"stats={config.stats} n_max={n_max} s<=2 t<=1.5 traceless data vs {method}"
        yield inputs, worst, True


@_check("solution_vs_integrator", 3)
def check_solution_vs_integrator(config: ScenarioConfig) -> Iterator[Lane]:
    """Cumulant-series solution against RK4 integration of the correlation
    hierarchy from uncorrelated initial data, including the fourth-order
    step-size scaling of the discrepancy (the lane's ``ok``)."""
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
    reference = {s: BBGKYSeries(f0, s, cache).at(t) for s in range(1, n_max + 1)}

    def gap(steps_per_unit: int) -> float:
        steps = max(1, round(steps_per_unit * t))
        f_t = marginals_from_correlations(integrate_hierarchy(g0, t, steps, spec))
        return max(trace_norm(f_t.component(s) - reference[s]) for s in range(1, n_max + 1))

    residual = gap(2000)
    e_coarse, e_fine = gap(250), gap(500)
    order = math.log2(e_coarse / e_fine) if e_fine > 0 else float("inf")
    inputs = (
        f"stats={config.stats} chaos data t={t} rk4@2000/unit, "
        f"order={order:.2f} from steps 250->500 ({note})"
    )
    yield inputs, residual, order >= 3.7


@_check("norm_bound", 4)
def check_norm_bound(config: ScenarioConfig) -> Iterator[Lane]:
    """Trace-norm growth of cumulant applications stays within the
    partition-counting bound (each unitary term is an isometry)."""
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
    yield f"20 seeded f, n<=3, max ratio {worst_ratio:.3f} vs factor {bound_factor:.0f} ({note})", worst, True


def _symmetry_violation(op: ManyBodyOperator) -> float:
    """Max over group elements of the two-sided conjugation defect and
    (for quantum statistics) the one-sided sign-rule defect, relative to
    the operator norm: one trace norm of the stack of all defects."""
    if op.n <= 1:
        return 0.0
    scale = max(trace_norm(op), 1e-30)
    defects = []
    for perm in all_permutations(op.n):
        if op.stats is not Statistics.BOLTZMANN:
            sign = op.stats.permutation_sign(perm.parity)
            defects.append(permute_ket(perm, op).mat - sign * op.mat)
        defects.append(permutation_conjugate(perm, op.mat, op.d) - op.mat)
    return float((trace_norm(np.stack(defects)) / scale).max())


@_check("symmetry_preservation", 3)
def check_symmetry_preservation(config: ScenarioConfig) -> Iterator[Lane]:
    """Exchange symmetry of state components survives every transform:
    the transform pair, cluster correlations, evolution and marginals."""
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
    yield f"stats={config.stats} worst at {where} ({note})", worst, True


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
