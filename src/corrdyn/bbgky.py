"""Cumulants of evolution groups, marginal density operators, the coupled
chain of equations they satisfy, and the cumulant-series solution.

The cumulant of order 1+n acts on an operator as a signed sum over
partitions of the cluster set of products of block-wise unitary
conjugations, each by one ``hamiltonian.block_propagator``.  It is never
materialized as a superoperator matrix: memory stays at one operator per
partition term, and each block size's propagator is built once per time.

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
count n, are summed before one conjugation by U_{s+k}.  These subset sums
do not depend on t: ``BBGKYSeries`` builds them once per (F0, s), and each
time point, of the solution or of its derivative, costs only the
conjugations.

``BBGKYSeries`` requires the statistics' two-sided group average to fix
every component it reads, and checks it on entry
(``hilbert.range_compress``): S_m F0_m S_m = F0_m for BOSE and FERMI, with
S_m = V V^dagger (``hilbert.symmetric_isometry``, rank r), and invariance
under the twirl for BOLTZMANN.  Then every leg permutation leaves F0_m
fixed (for FERMI the two parity signs cancel), so each of the C(n, k)
satellite subsets Z of size k gives the same Tr_{X-Z} F0_{s+n}: one
partial trace of the last n - k legs, weighted C(n, k), replaces the 2^n
subset traces, for every statistics.

For BOSE and FERMI the series also runs in the rank space of S_m.  Two
identities keep every matrix at side r:

- H_m S_m = S_m H_m, so H_m V = V H~_m with H~_m = V^dagger H_m V (the
  one-block ``hamiltonian.coupling_image``), and the evolution group maps
  the range to itself: U_m(t) V = V U~_m(t),
  U~_m(t) = exp(-i t H~_m / hbar) (``hamiltonian.EvolutionCache``).  An
  evolved subset sum is V (U~ K U~^dagger) V^dagger with
  K = V^dagger G V, and its derivative V (-[U~ K U~^dagger, H~]) V^dagger,
  up to the generator's factor -i/hbar;
- the partial trace of a lift needs no lift: with V's rows split into the
  kept and the traced legs, Tr_k V E V^dagger =
  (V E).reshape(d^s, -1) @ V.reshape(d^s, -1)^T (``hilbert.traced_lift``,
  V is real).

A series order of rank 0 (FERMI m > d) is zero on the range and skipped.
BOLTZMANN subset sums are evolved by the dense U_m(t): the V = None case of
the same construction.

The reduced operators of a correlation sequence trace its cluster
correlations; every satellite count and every order of one call shares one
memo of the sequence's reconstructions and connected parts
(``correlations._ClusterMemo``), dropped when the call returns.  For BOSE
and FERMI the memo holds them as rank-space matrices V^dagger X V of the
two-sided group average, one term per relabeling class and no placed
product, and the reduced operator reads each through one traced lift, with
no matrix at side d^(s+n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import ClusterSet, block_labels, cluster_partitions, mobius_weight
from .errors import DomainError, TruncationError
from .hamiltonian import (
    EvolutionCache,
    InteractionSpec,
    block_propagator,
    commutator_generator,
    coupling_image,
    hamiltonian_matrix,
)
from .hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Statistics,
    group_average,
    group_rank,
    partial_trace_matrix,
    place_product,
    range_compress,
    rank_compress,
    trace_norm,
    traced_lift,
)
from .correlations import CorrelationSequence, ClusterCorrelation, _ClusterMemo

SERIES_CONVERGENCE_ALPHA = math.e


@dataclass(frozen=True)
class MarginalSequence(OperatorSequence):
    """Reduced (s-particle) operators for 1 <= s <= n_max, with the scalar
    part pinned at zero."""

    def __post_init__(self):
        super().__post_init__()
        if self.f0 != 0:
            raise DomainError("a marginal sequence has zero scalar component")


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
    total = np.zeros_like(f.mat)
    for p in cluster_partitions(cluster):
        u = block_propagator([block_labels(b) for b in p.blocks], f.n, t, cache)
        total += mobius_weight(p) * (u @ f.mat @ u.conj().T)
    return f.with_mat(total)


def marginal_from_clusters(g: CorrelationSequence, s: int) -> ManyBodyOperator:
    """Reduced s-particle operator: sum over satellite counts of the traced
    cluster correlations with 1/n! weights, truncated at s+n <= n_max.  The
    satellite counts share one cluster-correlation memo."""
    return _marginal(_ClusterMemo(g), s)


def marginals_from_correlations(g: CorrelationSequence) -> MarginalSequence:
    """Reduced operators of every order 1..n_max, all orders sharing one
    cluster-correlation memo."""
    clusters = _ClusterMemo(g)
    comps = {s: _marginal(clusters, s) for s in range(1, g.n_max + 1)}
    return MarginalSequence(d=g.d, stats=g.stats, n_max=g.n_max, components=comps)


def _marginal(clusters: _ClusterMemo, s: int) -> ManyBodyOperator:
    """``marginal_from_clusters`` of the memo's sequence."""
    g = clusters.g
    if s > g.n_max:
        raise TruncationError(f"marginal order {s} exceeds n_max={g.n_max}")
    d = g.d
    out = np.zeros((d**s, d**s), dtype=np.complex128)
    for n in range(0, g.n_max - s + 1):
        mat, _ = clusters.compressed(tuple(el.labels for el in ClusterSet.canonical(s, n).elements))
        out += traced_lift(g.stats, mat, s, s + n, d) / math.factorial(n)
    return ManyBodyOperator(s, d, out, g.stats)


def bbgky_rhs(F: MarginalSequence, s: int, spec: InteractionSpec) -> ManyBodyOperator:
    """Right-hand side of the coupled chain for the s-particle marginal.

    -N_s F_s plus, per satellite count n >= 1, the traced commutator with
    the sum over nonempty subsets Z of the kept labels of Phi^(|Z|+n)
    coupling Z to all n satellites, weighted 1/n!: the dense
    ``hamiltonian.coupling_image`` of sizes (s, 1, ..., 1), the blocks
    (1..s), (s+1,), ..., (s+n,), which always meet a support here.  Absent
    couplings terminate the sum; a marginal above n_max raises TruncationError.
    """
    d = spec.d
    fs = F.component(s)
    out = -commutator_generator(fs.mat, hamiltonian_matrix(s, spec), spec.hbar)
    for n in range(1, spec.k_max):
        if not any(n < k <= s + n for k in spec.potentials):
            continue
        if s + n > F.n_max:
            raise TruncationError(
                f"bbgky_rhs(s={s}) needs marginal order {s + n} > n_max={F.n_max}"
            )
        coupling = coupling_image(Statistics.BOLTZMANN, (s, *(1,) * n), spec)
        rate = commutator_generator(F.component(s + n).mat, coupling, spec.hbar)
        out -= partial_trace_matrix(rate, s, s + n, d) / math.factorial(n)
    return ManyBodyOperator(s, d, out, F.stats)


class BBGKYSeries:
    """Cumulant-series solution of the chain for the s-particle marginal
    from initial marginals ``F0``.

    Finite sum over satellite counts n of the traced cumulants
    (1/n!) Tr_X A_{1+n}(t) F0_{s+n}, each taken in the subset form of the
    module docstring.  Only the conjugation depends on t, so the subset sums

        G_k = sum_{n >= k} ((-1)^(n-k) / n!) sum_{|Z| = k} Tr_{X-Z} F0_{s+n},

    k = 0..n_max-s, on the legs Y u Z in order, are built once, at
    construction, and a time point costs one conjugation per k.  The
    statistics' two-sided group average must fix each component F0_m,
    m >= s (checked on entry by ``hilbert.range_compress``; a component
    that it does not fix raises DomainError naming its order and defect).
    All subsets of one size then trace alike, and G_k takes one partial
    trace per (k, n) weighted C(n, k), for every statistics.  For BOLTZMANN
    G_k is conjugated by the dense U_{s+k}(t).  For BOSE and FERMI the
    series runs in the rank space of the module docstring: G_k is kept as
    V^dagger G_k V, it is conjugated by U~_{s+k}(t), and it leaves the rank
    space through one traced lift.  Orders of rank 0 (FERMI s+k > d)
    contribute nothing and are skipped.  With data supported on at most
    n_max particles the truncation is exact, so the series matches time
    integration to its own error.
    """

    def __init__(self, F0: MarginalSequence, s: int, cache: EvolutionCache):
        if s > F0.n_max:
            raise TruncationError(f"series order {s} exceeds n_max={F0.n_max}")
        self.s, self.stats, self.cache = s, F0.stats, cache
        d, stats = cache.spec.d, F0.stats
        for m in range(s, F0.n_max + 1):
            range_compress(F0.component(m), "marginal")
        #: per k with a nonzero rank, V^dagger G_k V (G_k itself where V is None)
        self.sums: dict[int, np.ndarray] = {}
        for k in range(0, F0.n_max - s + 1):
            if group_rank(stats, s + k, d) == 0:
                continue
            g = np.zeros((d ** (s + k), d ** (s + k)), dtype=np.complex128)
            for n in range(k, F0.n_max - s + 1):
                weight = (-1) ** (n - k) / math.factorial(n)
                g += (weight * math.comb(n, k)) * partial_trace_matrix(F0.component(s + n).mat, s + k, s + n, d)
            self.sums[k] = rank_compress(stats, g, s + k, d)

    def _evolved(self, t: float):
        """Yield (k, U~ K_k U~^dagger) for each kept k, U~ = U~_{s+k}(t)."""
        for k, g in self.sums.items():
            u = self.cache.propagator(self.s + k, t, self.stats)
            yield k, u @ g @ u.conj().T

    def at(self, t: float) -> ManyBodyOperator:
        """The s-particle marginal at time t."""
        s, d = self.s, self.cache.spec.d
        out = np.zeros((d**s, d**s), dtype=np.complex128)
        for k, evolved in self._evolved(t):
            out += traced_lift(self.stats, evolved, s, s + k, d)
        return ManyBodyOperator(s, d, out, self.stats)

    def rate(self, t: float) -> ManyBodyOperator:
        """Exact d/dt of ``at``: each evolved subset sum differentiates to
        minus the commutator generator of H~_{s+k} applied to it, before the
        traced lift; no finite differencing."""
        s, cache = self.s, self.cache
        d = cache.spec.d
        out = np.zeros((d**s, d**s), dtype=np.complex128)
        for k, evolved in self._evolved(t):
            h = cache.hamiltonian(s + k, self.stats)
            rate = -commutator_generator(evolved, h, cache.spec.hbar)
            out += traced_lift(self.stats, rate, s, s + k, d)
        return ManyBodyOperator(s, d, out, self.stats)


def solve_bbgky_series(
    F0: MarginalSequence, t: float, s: int, cache: EvolutionCache
) -> ManyBodyOperator:
    """Solution of the chain at time t from initial marginals: one time
    point of ``BBGKYSeries``."""
    return BBGKYSeries(F0, s, cache).at(t)


def solve_series_time_derivative(
    F0: MarginalSequence, t: float, s: int, cache: EvolutionCache
) -> ManyBodyOperator:
    """Exact d/dt of ``solve_bbgky_series`` at time t: ``BBGKYSeries.rate``."""
    return BBGKYSeries(F0, s, cache).rate(t)


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


def weighted_norm(seq: OperatorSequence, params: WeightedNormParams) -> float:
    """|f0| + sum_n alpha^n ||f_n||_1."""
    total = abs(seq.f0)
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
