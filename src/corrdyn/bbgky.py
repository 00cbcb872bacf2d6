"""Cumulants of evolution groups, marginal density operators, the coupled
chain of equations they satisfy, and the cumulant-series solution.

The cumulant of order 1+n acts on an operator as a signed sum over
partitions of the cluster set of products of block-wise unitary
conjugations.  It is never materialized as a superoperator matrix: memory
stays at one operator per partition term, and each block size's propagator
is built once per call.

The series solution traces the cumulants over the satellites and needs no
partitions.  Write Y = (1..s) for the atomic cluster and X = (s+1..s+n) for
the satellites, and let Y u Z be the block of a partition P that holds Y.
Two facts collapse the traced partition sum:

- a partial trace over the legs of a satellite-only block B is invariant
  under conjugation by U_B, so after Tr_X the term of P keeps only the
  conjugation by U_{s+|Z|} on Y u Z;
- the weights (-1)^(|P|-1) (|P|-1)! summed over the partitions of the
  m = n - |Z| left-over satellites give sum_k S(m,k) (-1)^k k! = (-1)^m
  (Stirling numbers of the second kind S(m,k)).

Hence, for any data,

    Tr_X A_{1+n}(t, {Y}, X) f
        = sum_{Z <= X} (-1)^(n-|Z|) Tr_Z U_{s+|Z|}(t) [Tr_{X-Z} f] U_{s+|Z|}(t)^dagger,

with the legs Y u Z kept in order.  Conjugation and the trace over Z see Z
only through its size, so the subsets of one size k, over every satellite
count n, are summed before one conjugation by U_{s+k}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .combinatorics import ClusterSet, block_labels, cluster_partitions, mobius_weight
from .errors import DomainError, TruncationError
from .hamiltonian import (
    EvolutionCache,
    InteractionSpec,
    commutator_generator,
    hamiltonian_matrix,
)
from .hilbert import (
    ManyBodyOperator,
    Statistics,
    embed_matrix,
    group_average,
    partial_trace_matrix,
    place_product,
    trace_keeping,
    trace_norm,
)
from .correlations import CorrelationSequence, ClusterCorrelation, clusterize

SERIES_CONVERGENCE_ALPHA = math.e


@dataclass(frozen=True)
class MarginalSequence:
    """Reduced (s-particle) operators for 1 <= s <= n_max."""

    d: int
    stats: Statistics
    n_max: int
    components: Mapping[int, ManyBodyOperator] = field(default_factory=dict)

    def __post_init__(self):
        comps = dict(self.components)
        for s in range(1, self.n_max + 1):
            op = comps.get(s)
            if op is None:
                comps[s] = ManyBodyOperator.zero(s, self.d, self.stats)
            elif op.n != s or op.d != self.d or op.stats != self.stats:
                raise DomainError(f"marginal component {s} has inconsistent metadata")
        object.__setattr__(self, "components", comps)

    def component(self, s: int) -> ManyBodyOperator:
        if not 1 <= s <= self.n_max:
            raise DomainError(f"marginal order {s} outside 1..{self.n_max}")
        return self.components[s]


@dataclass(frozen=True)
class WeightedNormParams:
    """Geometric weight alpha for the sequence norm sum_n alpha^n ||f_n||_1."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")

    @property
    def in_contraction_regime(self) -> bool:
        """Whether alpha exceeds e, the solution-series convergence regime."""
        return self.alpha > SERIES_CONVERGENCE_ALPHA


def cumulant_apply(
    t: float, cluster: ClusterSet, f: ManyBodyOperator, cache: EvolutionCache
) -> ManyBodyOperator:
    """Signed partition sum of block-evolved copies of ``f``.

    Order 1 is plain evolution; at t = 0 and for vanishing couplings every
    order >= 2 cancels to rounding (the weights sum to zero and all block
    products coincide).
    """
    labels = cluster.declusterize()
    if f.n != len(labels):
        raise DomainError(f"operator has {f.n} particles, cluster set flattens to {len(labels)}")
    props: dict[int, np.ndarray] = {}
    total = np.zeros_like(f.mat)
    for p in cluster_partitions(cluster):
        factors = []
        for block in p.blocks:
            legs = block_labels(block)
            if len(legs) not in props:
                props[len(legs)] = cache.propagator(len(legs), t)
            factors.append((props[len(legs)], legs))
        u = place_product(factors, f.n, cache.spec.d)
        total += mobius_weight(p) * (u @ f.mat @ u.conj().T)
    return f.with_mat(total)


def marginal_from_clusters(g: CorrelationSequence, s: int) -> ManyBodyOperator:
    """Reduced s-particle operator: sum over satellite counts of the traced
    cluster correlations with 1/n! weights, truncated at s+n <= n_max."""
    if s > g.n_max:
        raise TruncationError(f"marginal order {s} exceeds n_max={g.n_max}")
    d = g.d
    out = np.zeros((d**s, d**s), dtype=np.complex128)
    for n in range(0, g.n_max - s + 1):
        cc = clusterize(g, s, n)
        out += partial_trace_matrix(cc.op.mat, s, s + n, d) / math.factorial(n)
    return ManyBodyOperator(s, d, out, g.stats)


def marginals_from_correlations(g: CorrelationSequence) -> MarginalSequence:
    comps = {s: marginal_from_clusters(g, s) for s in range(1, g.n_max + 1)}
    return MarginalSequence(d=g.d, stats=g.stats, n_max=g.n_max, components=comps)


def bbgky_rhs(F: MarginalSequence, s: int, spec: InteractionSpec) -> ManyBodyOperator:
    """Right-hand side of the coupled chain for the s-particle marginal.

    -N_s F_s plus, per satellite count n >= 1, the traced commutator with
    the sum over nonempty subsets Z of the kept labels of Phi^(|Z|+n)
    coupling Z to all n satellites, weighted 1/n!.  Absent couplings
    terminate the sum; a needed marginal above n_max raises TruncationError.
    """
    d = spec.d
    fs = F.component(s)
    out = -commutator_generator(fs.mat, hamiltonian_matrix(s, spec), spec.hbar)
    for n in range(1, spec.k_max):
        sizes = [z for z in range(1, s + 1) if (z + n) in spec.potentials]
        if not sizes:
            continue
        if s + n > F.n_max:
            raise TruncationError(
                f"bbgky_rhs(s={s}) needs marginal order {s + n} > n_max={F.n_max}"
            )
        big = F.component(s + n).mat
        sats = tuple(range(s + 1, s + n + 1))
        coupling = sum(
            embed_matrix(spec.potentials[zsize + n], zs + sats, s + n, d)
            for zsize in sizes
            for zs in itertools.combinations(range(1, s + 1), zsize)
        )
        rate = commutator_generator(big, coupling, spec.hbar)
        out -= partial_trace_matrix(rate, s, s + n, d) / math.factorial(n)
    return ManyBodyOperator(s, d, out, F.stats)


def _evolved_subset_sums(F0: MarginalSequence, t: float, s: int, cache: EvolutionCache):
    """Yield (k, U_{s+k}(t) G_k U_{s+k}(t)^dagger) for k = 0..n_max-s, where
    G_k = sum_{n >= k} ((-1)^(n-k) / n!) sum_{|Z| = k} Tr_{X-Z} F0_{s+n}
    on the legs Y u Z in order (see the module docstring)."""
    if s > F0.n_max:
        raise TruncationError(f"series order {s} exceeds n_max={F0.n_max}")
    d = cache.spec.d
    core = tuple(range(1, s + 1))
    for k in range(0, F0.n_max - s + 1):
        g = np.zeros((d ** (s + k), d ** (s + k)), dtype=np.complex128)
        for n in range(k, F0.n_max - s + 1):
            f = F0.component(s + n).mat
            weight = (-1) ** (n - k) / math.factorial(n)
            for z in itertools.combinations(range(s + 1, s + n + 1), k):
                g += weight * trace_keeping(f, core + z, s + n, d)
        u = cache.propagator(s + k, t)
        yield k, u @ g @ u.conj().T


def solve_bbgky_series(
    F0: MarginalSequence, t: float, s: int, cache: EvolutionCache
) -> ManyBodyOperator:
    """Solution of the chain at time t from initial marginals.

    Finite sum over satellite counts n of the traced cumulants
    (1/n!) Tr_X A_{1+n}(t) F0_{s+n}, each taken in the subset form of the
    module docstring: 2^(n_max-s+1) - 1 partial traces of the initial data
    and one conjugation by U_{s+k}(t) per kept satellite count k.  With data
    supported on at most n_max particles the truncation is exact, so this
    matches time integration to its own error.
    """
    d = cache.spec.d
    out = np.zeros((d**s, d**s), dtype=np.complex128)
    for k, evolved in _evolved_subset_sums(F0, t, s, cache):
        out += partial_trace_matrix(evolved, s, s + k, d)
    return ManyBodyOperator(s, d, out, F0.stats)


def solve_series_time_derivative(
    F0: MarginalSequence, t: float, s: int, cache: EvolutionCache
) -> ManyBodyOperator:
    """Exact d/dt of ``solve_bbgky_series`` at time t.

    In the subset form only the conjugation by U_{s+k}(t) depends on t, so
    each evolved subset sum differentiates to minus the commutator generator
    of H_{s+k} applied to it, before the trace over the kept satellites; no
    finite differencing.
    """
    d = cache.spec.d
    out = np.zeros((d**s, d**s), dtype=np.complex128)
    for k, evolved in _evolved_subset_sums(F0, t, s, cache):
        rate = -commutator_generator(evolved, cache.hamiltonian(s + k), cache.spec.hbar)
        out += partial_trace_matrix(rate, s, s + k, d)
    return ManyBodyOperator(s, d, out, F0.stats)


def chaos_cluster_solution(
    g1_0: ManyBodyOperator, t: float, s: int, n: int, cache: EvolutionCache
) -> ClusterCorrelation:
    """Cluster correlation at time t grown from uncorrelated initial data.

    The cumulant of order 1+n is applied to the group-averaged product of
    s+n copies of the one-particle operator (the atomic cluster carries s
    copies).  At t = 0 every order n >= 1 vanishes.
    """
    if g1_0.n != 1:
        raise DomainError("chaos data must be a one-particle operator")
    d = g1_0.d
    ntot = s + n
    cache.spec.check_side(ntot)
    prod = place_product([(g1_0.mat, (i,)) for i in range(1, ntot + 1)], ntot, d)
    xc = ClusterSet.canonical(s, n)
    seed = ManyBodyOperator(ntot, d, group_average(g1_0.stats, prod, ntot, d), g1_0.stats)
    op = cumulant_apply(t, xc, seed, cache)
    return ClusterCorrelation(s, n, op, xc)


def weighted_norm(seq, params: WeightedNormParams) -> float:
    """sum_n alpha^n ||f_n||_1 (plus |f0| when the sequence has a scalar part)."""
    total = 0.0
    f0 = getattr(seq, "f0", None)
    if f0 is not None:
        total += abs(f0)
    for n, op in seq.components.items():
        total += params.alpha**n * trace_norm(op)
    return total


@dataclass(frozen=True)
class CumulantBoundReport:
    """Measured trace-norm growth of one cumulant application vs the
    partition-counting bound sum_P (|P|-1)! (each unitary term is an
    isometry, so the bound is a triangle inequality)."""

    s: int
    n: int
    t: float
    lhs: float
    input_norm: float
    bound_factor: float

    @property
    def bound(self) -> float:
        return self.bound_factor * self.input_norm

    @property
    def slack(self) -> float:
        return self.bound - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -1e-12 * max(1.0, self.bound)


def cumulant_norm_bound_check(
    t: float, s: int, n: int, f: ManyBodyOperator, cache: EvolutionCache
) -> CumulantBoundReport:
    xc = ClusterSet.canonical(s, n)
    lhs = trace_norm(cumulant_apply(t, xc, f, cache))
    factor = float(sum(math.factorial(p.size - 1) for p in cluster_partitions(xc)))
    return CumulantBoundReport(
        s=s, n=n, t=t, lhs=lhs, input_norm=trace_norm(f), bound_factor=factor
    )
