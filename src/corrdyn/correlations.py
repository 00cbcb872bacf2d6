"""Correlation operators: the partition-lattice transform pairing them with
density operators, cluster correlations, and the coupled hierarchy of
equations of motion with a fixed-step RK4 integrator.

Conventions fixed here once:

* A product over disjoint blocks is one tensor placement
  (``hilbert.place_product``): each block's factor goes on the block's sorted
  labels, with no d^n x d^n matrix products.
* Densities, correlations and cluster correlations solve one exponential
  formula.  Over disjoint elements E = (e_1, ..., e_k) covering 1..m,
  V(E) = sum_{Q subset E, e_1 in Q} C(Q) (x) V(E - Q), each factor on its
  sorted labels.  Solved for V over singletons with C = g it gives the
  density reconstruction R_n; solved for C with V = D the connected part of
  the density, and with V = R over atomic groups their cluster correlation.
  It holds for any sequence: relabeling Q in order to 1..|Q| maps its
  partitions to partitions with the same sorted block labels, so a value
  computed on 1..|Q| and placed on sorted Q is the value on Q.  An order
  costs 2^(k-1) - 1 placements, not the Bell(k) - 1 of a partition sum.
  The same fact lets every cluster set of one sequence share its work:
  one memo (``_ClusterMemo``) holds the reconstructions R_1..R_k, grown
  only up to the largest cluster asked for, and the connected parts by
  relabeled sub-tuple.  It lives for one public call, so nothing is cached
  across calls or keyed on a sequence.
* The statistics group average is applied through the isometry V of
  ``hilbert.symmetric_isometry``.  The transform pair applies it once per
  order outside the exponential formula, one-sided
  (``hilbert.group_average``), and ``generalized_rhs`` two-sided
  (``hilbert.group_compress``).  The cluster correlations of the memo
  carry the two-sided average inside the formula: for BOSE and FERMI the
  whole recursion runs in the rank space of the average.  With S_m the
  m-particle average, two exact identities allow it:

  (i)  S P X P^T S = S X S for any leg permutation P (for FERMI the two
       parity signs cancel);
  (ii) S_m (A (x) B) S_m = S_m (S_a A S_a (x) S_b B S_b) S_m, a + b = m,
       since S_m absorbs the averages over the two factors' labels.

  By (i) the sub-tuples Q of one relabeling class (relabeled Q, |E - Q|)
  give one term under the average, and by (ii) that term needs only the
  compressed factors.  With K(X) = V^dagger X V (r x r) and the maps
  W_{a,b} = (V_a (x) V_b)^dagger V_{a+b} (``_rank_map``, cached per
  (stats, a, b, d)),

      K(R_n)  = K(g_n) + sum_class count W^T (K(g_j) (x) K(R_{n-j})) W,
      K(C(q)) = K(R_|q|) - sum_class count W^T (K(C(q')) (x) K(R_k)) W:

  one small product per class, no member placed, and nothing at rank 0
  (a FERMI order above d).  A result is lifted as V K V^dagger
  (``hilbert.rank_lift``) only where it leaves the memo, and the reduced
  operators read it through ``hilbert.traced_lift`` without any lift at
  side d^m.  BOLTZMANN (V = I) places every member.  In the interaction
  sum of the hierarchy the average is applied outside the commutators;
  applying it between the commutator and the product breaks the Bose
  identity at three particles, while the outer placement is exact for
  every statistics (verified numerically down to rounding).
* The interaction sum is one commutator per multi-block partition.  Each
  term of the hierarchy picks a multi-block partition p and a nonempty label
  subset in every block; the subsets join into the support Z of one k-body
  coupling, and Z fixes the subsets as its intersections with the blocks.
  Hence, with P_p the product of p's block factors,

      sum_p sum_choices [P_p, Phi_Z] = sum_p [P_p, Phi_p],   Phi_p = sum_{Z meets every block of p} Phi_Z,

  exactly (the commutator is linear).  Partitions whose factors agree up to
  a relabeling of particles (one block-size type of an order) form a class.
  With K the Kronecker product of the class's factors on consecutive labels,
  Phi the class's coupling on those labels, Q_p the leg permutation taking
  them to p's labels and V the isometry of ``hilbert.symmetric_isometry``
  (rank r),

      P_p = Q_p K Q_p^T,   Phi_p = Q_p Phi Q_p^T,   V^dagger Q_p = eps_p V^dagger:

  the first is Van Loan's ("The ubiquitous Kronecker product", J. Comput.
  Appl. Math. 123, 2000), the second holds because the couplings are
  exchange symmetric, and in the third eps_p is the parity sign of Q_p for
  FERMI and 1 for BOSE.  So

      V^dagger [P_p, Phi_p] = eps_p ((V^dagger K) Phi - (V^dagger Phi) K) Q_p^T,

  and an evaluation applies K to the 2r rows V^dagger and V^dagger Phi
  factor by factor (``_times_kron``: X (A (x) B) is computed without forming
  A (x) B, after Van Loan), makes one r x side product with Phi and undoes
  each member's column legs by one signed gather.  No Kronecker product,
  d^n x d^n product or coupling is placed per partition or per class, and
  rank 0 costs nothing.  For BOLTZMANN (V = I) a member is
  Q_p [K, Phi] Q_p^T, one gather on both legs, with Phi K and
  K Phi = (Phi^T K^T)^T again factor by factor.  Phi itself is built once
  per plan by adding each coupling on the entries its embedding reaches
  (``hilbert.add_embedded``), as is H_n.  This class term
  (``_OrderPlan.term``) is the only implementation of the interaction
  sum: ``von_neumann_rhs`` lifts it as V (V^dagger acc),
  the integrator adds it to its rows as is, the tabulated orders read their
  blocks off it, and ``generalized_rhs`` differentiates the cluster
  correlation by the product rule along the orders' right-hand sides.
* The drift.  For data of any symmetry (``von_neumann_rhs``,
  ``generalized_rhs``) -[g_n, H_n] is one dense commutator.  The
  integrator requires BOSE and FERMI components in the range of the group
  average on the ket side, S_n g_n = g_n (checked on entry by
  ``hilbert.range_compress``; the bra side is free), and the order-n
  equation keeps that range.  It carries the rows y_n = V^dagger g_n,
  r x side, and since H_n commutes with S_n,
  V^dagger [g_n, H_n] = y_n H_n - H~_n y_n with H~_n = V^dagger H_n V
  from the plans' shared ``hamiltonian.EvolutionCache``: r x side products
  in place of two side x side GEMMs, nothing at rank 0.  g_n = V y_n is
  rebuilt only where a Kronecker product reads it and on output.
* Small orders of the RK4 right-hand side are tabulated on the same rows.
  With row-major vec, vec(A X B) = (A (x) B^T) vec X, the drift is
  (i/hbar)(I_r (x) H^T - H~ (x) I) vec y_n; a block-size type's term is
  linear in its monomial (the outer product of its raveled components), so
  its block of columns is the class term of the unit monomials, one batch:
  factor j runs through its unit matrices along batch axis j, and the
  C-order flattening of the batch is the monomial's order.  The block is
  not lifted (it is already V^dagger acc) and is multiplied by
  (x)_k (V_k (x) I), which maps the
  monomial of the rows to that of the components, vec g_k =
  (V_k (x) I) vec y_k.  Built once per ``integrate_hierarchy`` call, an
  order's block costs one GEMV per stage; ``TABULATED_MAX_ENTRIES``, counted
  in the full layout, keeps tabulation where the GEMV is faster (orders
  1-3 at d = 2, 1-2 at d = 3, order 1 at d = 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from .combinatorics import ClusterSet, block_labels, set_partitions
from .errors import DomainError, IntegrationError, TruncationError
from .hamiltonian import EvolutionCache, InteractionSpec, commutator_generator
from .hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Statistics,
    _row_permutation_map,
    add_embedded,
    group_average,
    group_compress,
    group_rank,
    inversion_parity,
    place_product,
    range_compress,
    rank_compress,
    rank_lift,
    require_finite,
    symmetric_isometry,
)


@dataclass(frozen=True)
class CorrelationSequence(OperatorSequence):
    """Operator sequence whose scalar part is pinned at zero."""

    def __post_init__(self):
        super().__post_init__()
        if self.f0 != 0:
            raise DomainError("a correlation sequence has zero scalar component")


@dataclass(frozen=True)
class ClusterCorrelation:
    """Correlation operator of one atomic s-cluster plus n satellites."""

    s: int
    n: int
    op: ManyBodyOperator
    cluster_set: ClusterSet

    def __post_init__(self):
        if self.op.n != self.s + self.n:
            raise DomainError("cluster correlation operator has wrong particle count")
        if self.cluster_set.declusterize() != tuple(range(1, self.s + self.n + 1)):
            raise DomainError("cluster set does not flatten to 1..s+n")


def _require_orders(seq: OperatorSequence, m: int) -> None:
    """Raise TruncationError unless orders 1..m lie within the truncation."""
    if m > seq.n_max:
        raise TruncationError(f"component {m} lies above the truncation n_max={seq.n_max}")


def _component_mats(seq: OperatorSequence, m: int) -> dict[int, np.ndarray]:
    """Component matrices, of which orders 1..m must lie within the truncation."""
    _require_orders(seq, m)
    return {n: op.mat for n, op in seq.components.items()}


def _relabeled(elements: tuple) -> tuple[tuple, tuple[int, ...]]:
    """Disjoint label tuples relabeled in order to 1..m, each sorted and the
    tuple ordered by least label, with the sorted labels they carry."""
    labels = tuple(sorted(l for el in elements for l in el))
    local = {l: i for i, l in enumerate(labels, 1)}
    return tuple(sorted(tuple(sorted(local[l] for l in el)) for el in elements)), labels


@lru_cache(maxsize=None)
def _sub_tuples(elements: tuple) -> tuple[tuple[tuple, tuple[int, ...], tuple[int, ...]], ...]:
    """The proper sub-tuples Q of ``elements`` that hold its first element,
    in enumeration order: per Q its relabeling q (``_relabeled``), its
    sorted labels and the rest's sorted labels.  The pair (q, |rest|) is
    Q's relabeling class.  A function of the labels alone, so it is cached
    like ``_relabelings``."""
    first, others = elements[0], elements[1:]
    out = []
    for r in range(len(others)):
        for chosen in itertools.combinations(others, r):
            q, q_labels = _relabeled((first, *chosen))
            rest = tuple(sorted(l for el in others if el not in chosen for l in el))
            out.append((q, q_labels, rest))
    return tuple(out)


@lru_cache(maxsize=None)
def _classes(elements: tuple) -> tuple[tuple[tuple, int, int], ...]:
    """The relabeling classes (q, |rest|) of ``_sub_tuples``, each with its
    member count, in order of first appearance."""
    counts: dict[tuple, int] = {}
    for q, _, rest in _sub_tuples(elements):
        counts[q, len(rest)] = counts.get((q, len(rest)), 0) + 1
    return tuple((q, k, count) for (q, k), count in counts.items())


def _split_sum(
    elements: tuple,
    terms: list[tuple[Callable[[tuple], np.ndarray], dict[int, np.ndarray]]],
    d: int,
    average: Statistics = Statistics.BOLTZMANN,
) -> np.ndarray:
    """The exponential formula less its Q = E term: the sum, over the proper
    sub-tuples Q of ``elements`` that hold the first element and over the
    pairs (connected, whole) of ``terms``, of connected(Q) on Q's sorted
    labels times whole[size] on the rest's.  The pairs (C', V) and (C, V')
    give the time derivative of the pair (C, V) by the product rule.
    ``elements`` and the argument of ``connected`` are relabeled as by
    ``_relabeled``.

    ``average`` is the two-sided group average the sum is taken under.
    With BOLTZMANN every member is placed (``hilbert.place_product``), and
    the arguments may be ``[..., side, side]`` stacks of independent
    sequences, summed slice by slice; the empty sum is one d^m x d^m zero,
    which broadcasts.  With BOSE or FERMI the arguments and the sum are
    rank-space matrices V^dagger X V, and the members of one relabeling
    class, equal under the average, add up to count x ``_rank_product``
    (module docstring)."""
    m = sum(map(len, elements))
    if average is Statistics.BOLTZMANN:
        total = np.zeros((d**m, d**m), dtype=np.complex128)
        for q, q_labels, rest in _sub_tuples(elements):
            for connected, whole in terms:
                member = place_product([(connected(q), q_labels), (whole[len(rest)], rest)], m, d)
                if member.shape == total.shape:
                    total += member
                else:  # the first member of a stack
                    total = total + member
        return total
    r = group_rank(average, m, d)
    total = np.zeros((r, r), dtype=np.complex128)
    for q, k, count in _classes(elements):
        for connected, whole in terms:
            total += count * _rank_product(connected(q), whole[k], average, m - k, k, d)
    return total


@lru_cache(maxsize=None)
def _rank_map(stats: Statistics, a: int, b: int, d: int) -> np.ndarray:
    """W = (V_a (x) V_b)^dagger V_(a+b), r_a r_b x r_(a+b), with V the
    ``symmetric_isometry`` of each order (the identity where it is None)."""
    legs = []
    for k in (a, b):
        v = symmetric_isometry(stats, k, d)
        legs.append(np.eye(d**k) if v is None else v)
    out = np.kron(*legs).T @ symmetric_isometry(stats, a + b, d)
    out.flags.writeable = False
    return out


def _rank_product(a: np.ndarray, b: np.ndarray, stats: Statistics, i: int, j: int, d: int) -> np.ndarray:
    """Rank-space class term W^T (a (x) b) W of rank-space factors ``a`` (i
    particles) and ``b`` (j particles): V^dagger (V_i a V_i^dagger (x)
    V_j b V_j^dagger) V, with W from ``_rank_map`` (real, so W^dagger = W^T)."""
    w = _rank_map(stats, i, j, d)
    ra, rb = len(a), len(b)
    return w.T @ (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ra * rb) @ w


def _reconstructions(
    mats: dict[int, np.ndarray],
    m: int,
    d: int,
    whole: dict[int, np.ndarray],
    average: Statistics = Statistics.BOLTZMANN,
) -> dict[int, np.ndarray]:
    """Unsymmetrized density reconstructions R_1..R_m of correlation
    components, the exponential formula over singletons with C = g by size:
    ``whole``, holding R_1..R_k, is extended in place to R_1..R_m.  Under a
    BOSE or FERMI ``average`` (``_split_sum``) ``mats`` and ``whole`` are the
    rank-space V^dagger g_n V and V^dagger R_n V; under BOLTZMANN they may
    be ``[..., side, side]`` stacks."""
    for n in range(len(whole) + 1, m + 1):
        singletons = tuple((l,) for l in range(1, n + 1))
        whole[n] = mats[n] + _split_sum(singletons, [(lambda q: mats[len(q)], whole)], d, average)
    return whole


def _reconstruction_rates(mats: dict, rates: dict, whole: dict, d: int) -> dict[int, np.ndarray]:
    """Time derivatives of the reconstructions ``whole`` along the component
    rates g'_n, by the product rule: R'_n = g'_n + split(g', R) + split(g, R')."""
    whole_rates: dict[int, np.ndarray] = {}
    for n in whole:
        singletons = tuple((l,) for l in range(1, n + 1))
        terms = [(lambda q: rates[len(q)], whole), (lambda q: mats[len(q)], whole_rates)]
        whole_rates[n] = rates[n] + _split_sum(singletons, terms, d)
    return whole_rates


def density_to_correlations(D: OperatorSequence) -> CorrelationSequence:
    """Partition-lattice Moebius inversion turning density components into
    correlations (``correlation_mats`` on the component matrices).

    The exponential formula over singletons with V = D is solved for its
    connected part M_n, and g_n = D_n + S_n (M_n - D_n), S_n being the
    statistics group average.  The inverse is ``correlations_to_density``;
    the pair is an exact bijection on statistics-symmetric sequences.

    The inversion is ill-conditioned at high orders: on
    ``hilbert.random_sequence`` Bose data at d = 2 the correlations reach
    max |g_n| = 2.5e3 at n_max = 7 and 2.7e5 at n_max = 8 (1.7e2 at d = 3,
    n_max = 5), from densities of order one.  Reconstructing the top
    density from them cancels those magnitudes and misses it by about
    1e-12 (n_max = 7) and 2e-11 (n_max = 8) relative, so a relative 1e-12
    comparison at n_max >= 7 measures this cancellation, not a route.
    """
    out = correlation_mats(_component_mats(D, D.n_max), D.d, D.stats)
    comps = {n: ManyBodyOperator(n, D.d, mat, D.stats) for n, mat in out.items()}
    return CorrelationSequence(d=D.d, stats=D.stats, n_max=D.n_max, f0=0j, components=comps)


def correlations_to_density(g: OperatorSequence) -> OperatorSequence:
    """Partition-lattice inverse of ``density_to_correlations``
    (``density_mats`` on the component matrices).

    D_n = S_n R_n with R_n the reconstruction by the exponential formula;
    the scalar part is set to one (its empty-set convention).
    """
    out = density_mats(_component_mats(g, g.n_max), g.d, g.stats)
    comps = {n: ManyBodyOperator(n, g.d, mat, g.stats) for n, mat in out.items()}
    return OperatorSequence(d=g.d, stats=g.stats, n_max=g.n_max, f0=1.0 + 0j, components=comps)


def correlation_mats(mats: dict[int, np.ndarray], d: int, stats: Statistics) -> dict[int, np.ndarray]:
    """``density_to_correlations`` on density component matrices 1..n_max.
    Each may be a ``[..., side, side]`` stack of independent sequences, and
    each slice of the result is the transform of its slices.  Raises the
    operators' DomainError when an entry of the result is not finite."""
    connected: dict[int, np.ndarray] = {}
    out = {}
    for n in range(1, len(mats) + 1):
        split = _split_sum(tuple((l,) for l in range(1, n + 1)), [(lambda q: connected[len(q)], mats)], d)
        connected[n] = mats[n] - split
        out[n] = require_finite(mats[n] - group_average(stats, split, n, d))
    return out


def density_mats(mats: dict[int, np.ndarray], d: int, stats: Statistics) -> dict[int, np.ndarray]:
    """``correlations_to_density`` on correlation component matrices
    1..n_max, stacks as in ``correlation_mats``."""
    whole = _reconstructions(mats, len(mats), d, {})
    return {n: require_finite(group_average(stats, r, n, d)) for n, r in whole.items()}


def cluster_correlation_matrix(g: OperatorSequence, elements: tuple) -> tuple[np.ndarray, tuple[int, ...]]:
    """Cluster correlation of the given elements.

    ``elements`` is a collection of disjoint label tuples (atomic groups).
    Returns the matrix on the local space of the sorted underlying labels,
    plus those labels: the group average acts on exactly the particles the
    elements carry, so the result can be embedded as a block factor.  It is
    the exponential formula over the elements with V = R solved for C,
    memoized per relabeled sub-tuple, exact for any sequence.

    The group average is applied as the two-sided compression S C S.  On
    sums that are covariant under the full label group (plain sequences)
    this coincides with the one-sided average, and on cluster-structured
    sums it is the variant that keeps Hermitian inputs Hermitian.  For BOSE
    and FERMI the recursion runs on the rank-space matrices V^dagger X V,
    one term per relabeling class, and only the result is lifted.
    """
    return _ClusterMemo(g).matrix(elements)


class _ClusterMemo:
    """Cluster correlations of one sequence on shared work: the
    reconstructions R_1..R_k in ``whole`` (grown only up to the largest
    cluster asked for) and the connected parts in ``memo``, keyed by
    relabeled sub-tuple and seeded with the components as the connected
    parts of the singletons.  C(q) is a function of q alone, so one memo
    serves every cluster set of the sequence.  For BOSE and FERMI every
    entry is the rank-space V^dagger X V of its matrix X (module docstring),
    so the recursion adds one term per relabeling class and places no
    d^m x d^m product; ``matrix`` lifts a result as V K V^dagger only where
    it leaves the memo, and ``compressed`` hands it out unlifted.  For
    BOLTZMANN the entries are the matrices themselves and every member is
    placed.  A memo lives for one public call (``clusterize``,
    ``cluster_correlation_matrix``, ``bbgky.marginal_from_clusters``,
    ``bbgky.marginals_from_correlations``) and refers to nothing that
    refers back to it, so it is freed when the call returns."""

    def __init__(self, g: OperatorSequence):
        self.g = g
        self.whole: dict[int, np.ndarray] = {}
        self.parts = {n: rank_compress(g.stats, op.mat, n, g.d) for n, op in g.components.items()}
        self.memo = {tuple((l,) for l in range(1, n + 1)): part for n, part in self.parts.items()}

    def compressed(self, elements: tuple) -> tuple[np.ndarray, tuple[int, ...]]:
        """``cluster_correlation_matrix`` of the memo's sequence before its
        lift: the rank-space V^dagger C V for BOSE and FERMI, C itself for
        BOLTZMANN."""
        local, labels = _relabeled(tuple(block_labels((el,)) for el in elements))
        m, d, stats = len(labels), self.g.d, self.g.stats
        if local not in self.memo:  # no key exceeds n_max, so this also guards the truncation
            _require_orders(self.g, m)
            _reconstructions(self.parts, m, d, self.whole, stats)
        return _connected(local, self.memo, self.whole, d, stats), labels

    def matrix(self, elements: tuple) -> tuple[np.ndarray, tuple[int, ...]]:
        """``cluster_correlation_matrix`` of the memo's sequence."""
        mat, labels = self.compressed(elements)
        return rank_lift(self.g.stats, mat, len(labels), self.g.d), labels

    def clusterize(self, s: int, n: int) -> ClusterCorrelation:
        """``clusterize`` of the memo's sequence."""
        if s < 1:
            raise DomainError("cluster size s must be >= 1")
        xc = ClusterSet.canonical(s, n)
        mat, _ = self.matrix(tuple(el.labels for el in xc.elements))
        return ClusterCorrelation(s, n, ManyBodyOperator(s + n, self.g.d, mat, self.g.stats), xc)


def _connected(
    q: tuple,
    memo: dict[tuple, np.ndarray],
    whole: dict[int, np.ndarray],
    d: int,
    average: Statistics = Statistics.BOLTZMANN,
) -> np.ndarray:
    """Connected part C(q) of the exponential formula with V = ``whole`` by
    size, memoized in ``memo``, under the two-sided ``average`` of
    ``_split_sum``.  A module function, not a closure over itself, so that
    a call leaves no reference cycle holding the memo."""
    if q not in memo:
        connected = partial(_connected, memo=memo, whole=whole, d=d, average=average)
        memo[q] = whole[sum(map(len, q))] - _split_sum(q, [(connected, whole)], d, average)
    return memo[q]


def _connected_rate(q: tuple, rates: dict, memo: dict, whole: dict, whole_rates: dict, d: int) -> np.ndarray:
    """Time derivative of ``_connected`` by the product rule,
    C'(q) = R'_|q| - split(C', R) - split(C, R') with R' = ``whole_rates``
    by size, memoized in ``rates``."""
    if q not in rates:
        value = partial(_connected, memo=memo, whole=whole, d=d)
        rate = partial(_connected_rate, rates=rates, memo=memo, whole=whole, whole_rates=whole_rates, d=d)
        rates[q] = whole_rates[sum(map(len, q))] - _split_sum(q, [(rate, whole), (value, whole_rates)], d)
    return rates[q]


def clusterize(g: OperatorSequence, s: int, n: int) -> ClusterCorrelation:
    """Correlation operator of the cluster set ({1..s}, s+1, ..., s+n).

    The exponential formula over the cluster set solved for its cluster
    correlation under the two-sided group average, as in
    ``cluster_correlation_matrix``.
    """
    return _ClusterMemo(g).clusterize(s, n)


# --------------------------------------------------------------------------
# hierarchy right-hand sides
# --------------------------------------------------------------------------


def _times_kron(x: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """x (mats[0] (x) mats[1] (x) ...) on the rows of ``x`` (..., rows,
    side), without forming the Kronecker product: factor by factor, the
    columns are viewed as (left, s, right) and the s legs multiplied by
    the factor, one reshape and one matmul by its transpose each (Van
    Loan, 2000).  Leading axes of the factors broadcast as batch axes."""
    *_, rows, side = x.shape
    right = side
    for m in mats:
        s = m.shape[-1]
        right //= s
        x = np.matmul(m.swapaxes(-1, -2)[..., None, :, :], x.reshape(*x.shape[:-2], -1, s, right))
        x = x.reshape(*x.shape[:-3], rows, side)
    return x


def _consecutive(legs: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Consecutive labels 1..n in runs of the lengths of ``legs``."""
    ends = itertools.accumulate(map(len, legs))
    return [tuple(range(end - len(labels) + 1, end + 1)) for end, labels in zip(ends, legs)]


def _meeting_couplings(blocks: list[tuple[int, ...]], spec: InteractionSpec, n: int) -> np.ndarray | None:
    """Sum of the embedded k-body couplings whose support meets every block
    (label tuples covering 1..n), or None when no support does, by k
    ascending and then lexicographically; also the coupling of ``bbgky_rhs``."""
    out = None
    for k, phi in spec.potentials.items():
        for z in itertools.combinations(range(1, n + 1), k):
            if all(set(b).intersection(z) for b in blocks):
                if out is None:
                    out = np.zeros((spec.d**n, spec.d**n), dtype=np.complex128)
                add_embedded(out, phi, z, n, spec.d)
    return out


@lru_cache(maxsize=None)
def _relabelings(members: tuple[tuple[tuple[int, ...], ...], ...], n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The leg permutations Q of a class's members, one row each: the column
    index map ``undo``, (Y Q^T)[:, b] = Y[:, undo[b]], Q taking the legs of
    consecutive labels, in factor order, to the labels the member's label
    tuples carry; and the parity of each Q."""
    images = [tuple(l for labels in m for l in labels) for m in members]
    undo = np.stack([_row_permutation_map(image, n, d) for image in images])
    parity = inversion_parity(np.array(images))
    undo.flags.writeable = parity.flags.writeable = False
    return undo, parity


class _OrderPlan:
    """Right-hand side of hierarchy order n on component matrices (orders
    <= n), with V (``symmetric_isometry``, rank r) and the classes built
    once, and H_n and H~_n = V^dagger H_n V from ``cache``.  The interaction
    sum is V^dagger acc (acc when V is None), acc = (i/hbar) sum_p
    [P_p, Phi_p] over the multi-block partitions p that some coupling
    support reaches.  A class is a block-size type (sizes
    descending): ``types`` maps it to its members' block label tuples, each
    sorted and in size order (ties keep theirs), and to Phi on the
    consecutive labels of K.  ``term`` is a type's class term (module
    docstring) for its factor matrices: ``interaction`` passes it the
    components, ``_TabulatedOrders`` every factor's unit matrices as one
    broadcast batch, in the factor order of the type's monomial.  ``types``
    is empty when no partition is reached or r is zero, and then no term
    need be evaluated."""

    def __init__(self, n: int, stats: Statistics, cache: EvolutionCache):
        self.n, self.d, self.hbar, self.stats = n, cache.spec.d, cache.spec.hbar, stats
        self.h, self.h_tilde = cache.hamiltonian(n), cache.hamiltonian(n, stats)
        self.v = symmetric_isometry(stats, n, self.d)
        self.rank = len(self.h_tilde)
        grouped: dict[tuple[int, ...], list] = {}
        for p in set_partitions(range(1, n + 1)):
            if self.rank and p.size >= 2:
                legs = tuple(sorted((tuple(sorted(b)) for b in p.blocks), key=lambda labels: -len(labels)))
                grouped.setdefault(tuple(map(len, legs)), []).append(legs)
        self.types: dict[tuple[int, ...], tuple[tuple, np.ndarray]] = {}
        for sizes, members in grouped.items():
            phi = _meeting_couplings(_consecutive(members[0]), cache.spec, n)
            if phi is not None:
                self.types[sizes] = (tuple(members), phi)

    @cached_property
    def _layouts(self) -> dict[tuple[int, ...], tuple]:
        """Per block-size type: Phi, the 2r rows V^dagger over V^dagger Phi,
        and the members' index maps ``undo`` and signs.  The maps undo the
        column legs (both legs for BOLTZMANN, where the rows and the signs
        are None), one m x side row block per type."""
        layouts = {}
        for sizes, (members, phi) in self.types.items():
            undo, parity = _relabelings(members, self.n, self.d)
            if self.v is None:
                layouts[sizes] = (phi, None, undo, None)
            else:
                signs = np.array([self.stats.permutation_sign(bit) for bit in parity])
                layouts[sizes] = (phi, np.concatenate([self.v.T, self.v.T @ phi]), undo, signs)
        return layouts

    def term(self, sizes: tuple[int, ...], mats: list[np.ndarray]) -> np.ndarray:
        """Type ``sizes``' share of V^dagger acc, less the factor i/hbar:
        sum_p eps_p ((V^dagger K) Phi - (V^dagger Phi) K) Q_p^T over the
        members (sum_p Q_p [K, Phi] Q_p^T for BOLTZMANN), K the Kronecker
        product of the factor matrices ``mats`` on consecutive labels.  K is
        never formed: ``_times_kron`` applies it to the rows V^dagger and
        V^dagger Phi in one pass, and for BOLTZMANN to Phi and, as
        K Phi = (Phi^T K^T)^T, to Phi^T.  Leading axes of the factors are
        batch axes, broadcast against each other."""
        phi, rows, undo, signs = self._layouts[sizes]
        if rows is None:
            k_phi = _times_kron(phi.T, [m.swapaxes(-1, -2) for m in mats]).swapaxes(-1, -2)
            return (k_phi - _times_kron(phi, mats))[..., undo[:, :, None], undo[:, None, :]].sum(axis=-3)
        y = _times_kron(rows, mats)
        return signs @ (y[..., : self.rank, :] @ phi - y[..., self.rank :, :])[..., undo]

    def interaction(self, comps: dict[int, np.ndarray]) -> np.ndarray:
        """V^dagger acc for the components ``comps``, one term per type."""
        acc = np.zeros((self.rank, len(self.h)), dtype=np.complex128)
        for sizes in self._layouts:
            acc += self.term(sizes, [comps[k] for k in sizes])
        return (1j / self.hbar) * acc

    def __call__(self, comps: dict[int, np.ndarray]) -> np.ndarray:
        """g'_n for components of any symmetry."""
        out = -commutator_generator(comps[self.n], self.h, self.hbar)
        if self.types:
            proj = self.interaction(comps)
            out += proj if self.v is None else self.v @ proj
        return out

    def rows(self, y: np.ndarray, comps: dict[int, np.ndarray]) -> np.ndarray:
        """V^dagger g'_n for a component g_n = V y in the range of S_n, given
        its rows ``y`` and the lower components ``comps``.  H commutes with
        S_n, so V^dagger [g_n, H] = y H - (V^dagger H V) y: the drift costs
        r x side products, and ``interaction`` already returns V^dagger acc.
        For V None the rows are g_n and this is ``__call__``."""
        if self.v is None:
            out = -commutator_generator(y, self.h, self.hbar)
        else:
            out = (1j / self.hbar) * (y @ self.h - self.h_tilde @ y)
        if self.types:
            out += self.interaction(comps)
        return out

    def tabulated_entries(self) -> int:
        """Entries of this order's block of the tabulated right-hand side,
        counted in the full layout: side^2 x side^2 for the drift and for
        each block-size type, whatever the rank of the rows."""
        return self.h.size**2 * (1 + len(self.types))


def von_neumann_rhs(g: OperatorSequence, n: int, spec: InteractionSpec) -> ManyBodyOperator:
    """Time derivative of the n-particle correlation component.

    -N_n g_n plus the symmetrized sum over the multi-block partitions p of
    the commutator of p's product of lower components with Phi_p, the sum of
    the k-body couplings whose support meets every block of p.  Couplings
    without a matching Phi^(k) contribute zero.  For n = 1 this is just
    -N_1 g_1.
    """
    plan = _OrderPlan(n, g.stats, EvolutionCache(spec))
    return ManyBodyOperator(n, spec.d, plan(_component_mats(g, n)), g.stats)


def generalized_rhs(
    g: OperatorSequence, cluster: ClusterSet, spec: InteractionSpec
) -> ManyBodyOperator:
    """Time derivative of a cluster correlation, driven by the base sequence.

    The product rule on the exponential formula of
    ``cluster_correlation_matrix``, along the right-hand sides g'_n of the
    hierarchy orders n <= |X| (``_OrderPlan``): the reconstructions move as
    R'_n = g'_n + split(g', R) + split(g, R') and the connected parts as
    C'(q) = R'_|q| - split(C', R) - split(C, R'), memoized per relabeled
    sub-tuple, with the two-sided group average outermost.  The interaction
    sum is thus the order plans' alone.  The group averages inside g'_n need
    no undoing: they act on the ket side of label subsets Q, and the outer
    average absorbs them, S_m (S_Q (x) I) = S_m.
    """
    labels = cluster.declusterize()
    m, d = len(labels), g.d
    if tuple(sorted(labels)) != tuple(range(1, m + 1)):
        raise DomainError("cluster set must flatten to labels 1..s+n")
    local, _ = _relabeled(tuple(el.labels for el in cluster.elements))
    mats = _component_mats(g, m)
    cache = EvolutionCache(spec)
    rates = {n: _OrderPlan(n, g.stats, cache)(mats) for n in range(1, m + 1)}
    singletons = [tuple((l,) for l in range(1, k + 1)) for k in range(1, m + 1)]
    memo, memo_rates = {q: mats[len(q)] for q in singletons}, {q: rates[len(q)] for q in singletons}
    whole = {} if local in memo else _reconstructions(mats, m, d, {})  # all singletons: C' = g'_m
    whole_rates = _reconstruction_rates(mats, rates, whole, d)
    rate = _connected_rate(local, memo_rates, memo, whole, whole_rates, d)
    return ManyBodyOperator(m, d, group_compress(g.stats, rate, m, d), g.stats)


# --------------------------------------------------------------------------
# RK4 integration of the coupled hierarchy
# --------------------------------------------------------------------------

#: Largest block, side^2 x side^2 (1 + T_n) entries, that an order's
#: right-hand side is tabulated in (T_n its block-size types).  The count is
#: taken in the full layout, not on the rows y_n = V^dagger g_n the state
#: carries, so the rank does not move an order across it.  Per evaluation
#: of one order (Bose, two-body coupling, one BLAS thread, 2-vCPU x86 host;
#: the order's share of the GEMV against ``_OrderPlan.rows``), the GEMV wins
#: up to here (side 4, 8 and 9: 2.4-7.8 us against 32-55 us for the
#: generic plan) and still at side 16 (d = 4 and d = 2: 34-39 and 23-24 us
#: against 68-69 and 65-104 us), which this bound leaves generic; it loses
#: at side 27 (221-238 us against 52-99 us).
TABULATED_MAX_ENTRIES = 2**14


class _TabulatedOrders:
    """Right-hand side of orders 1..m as one matrix W on the flat state of
    rows y_n = V_n^dagger g_n (g_n itself where V_n is None).

    Row block n of W holds the drift (i/hbar)(I_r (x) H^T - H~ (x) I) on
    vec y_n, H~ = V^dagger H V, and, per block-size type lambda of order n,
    the type's class term (i/hbar) ``_OrderPlan.term`` (already V^dagger
    acc, so not lifted) as a linear map of its monomial, the outer product
    of the raveled rows of sizes lambda: the term at every unit monomial of
    the components, all columns one batch whose factor j holds its unit
    matrices along batch axis j (shapes (N_1, 1, s_1, s_1),
    (1, N_2, s_2, s_2), ...), times (x)_k (V_k (x) I), since
    vec g_k = (V_k (x) I) vec y_k.  A call applies
    W to the flat rows of orders 1..m followed by one monomial per type;
    the monomials of one degree are written by one product of gathers from
    the state, with index arrays built once.
    """

    def __init__(self, plans: list[_OrderPlan], bounds: list[int]):
        self.length = width = bounds[len(plans)]
        blocks, types = [], []
        for plan, row in zip(plans, bounds):
            side = plan.h.shape[0]
            drift = np.kron(np.eye(plan.rank), plan.h.T) - np.kron(plan.h_tilde, np.eye(side))
            blocks.append((row, row, (1j / plan.hbar) * drift))
            for sizes in sorted(plan.types, reverse=True):
                # factor j's unit matrices along batch axis j: the C-order
                # flattening of the batch is the order of the type's monomial
                units = []
                for j, k in enumerate(sizes):
                    batch = [1] * len(sizes)
                    batch[j] = -1
                    units.append(np.eye(plan.d ** (2 * k)).reshape(*batch, plan.d**k, plan.d**k))
                block = (1j / plan.hbar) * plan.term(sizes, units).reshape(side**2, -1).T
                lifts = [plans[k - 1].v for k in sizes]
                if any(v is not None for v in lifts):
                    lift = np.ones((1, 1))
                    for k, v in zip(sizes, lifts):
                        eye = np.eye(plan.d**k)
                        lift = np.kron(lift, np.kron(eye if v is None else v, eye))
                    block = block @ lift
                types.append((row, [(bounds[k - 1], bounds[k]) for k in sizes], block))
        # the monomials of one degree take one contiguous run of columns, so
        # that a call writes them all with one product of gathered factors
        self.monomials: list[tuple[int, int, list[np.ndarray]]] = []
        for degree in sorted({len(spans) for _, spans, _ in types}):
            start, gathers = width, [[] for _ in range(degree)]
            for row, spans, block in types:
                if len(spans) == degree:
                    grid = np.indices([hi - lo for lo, hi in spans]).reshape(degree, -1)
                    for gather, (lo, _), digits in zip(gathers, spans, grid):
                        gather.append(lo + digits)
                    blocks.append((row, width, block))
                    width += block.shape[1]
            self.monomials.append((start, width, [np.concatenate(gather) for gather in gathers]))
        self.w = np.zeros((self.length, width), dtype=np.complex128)
        for row, col, block in blocks:
            self.w[row:row + block.shape[0], col:col + block.shape[1]] = block
        self.x = np.empty(width, dtype=np.complex128)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        x = self.x
        x[:self.length] = y[:self.length]
        for start, stop, (first, second, *more) in self.monomials:
            out = np.multiply(y[first], y[second], out=x[start:stop])
            for factor in more:
                out *= y[factor]
        return self.w @ x


def integrate_hierarchy(
    g0: OperatorSequence,
    t_final: float,
    steps: int,
    spec: InteractionSpec,
) -> CorrelationSequence:
    """Classical fixed-step RK4 for the coupled correlation hierarchy.

    ``steps`` uniform steps from 0 to t_final on one flat state: the ket-side
    rows y_n = V_n^dagger g_n (r_n x d^n, V_n the ``symmetric_isometry`` of
    the order) raveled and concatenated by order, with y_n = g_n for
    BOLTZMANN and n = 1.  Each BOSE or FERMI component of ``g0`` must lie in
    the range of the group average on the ket side, S_n g_n = g_n, its bra
    side being arbitrary; a component that does not raises DomainError.
    The order-n equation keeps that range, so g_n = V_n y_n throughout and
    no drift is evaluated at side d^n x d^n.  The right-hand side of order
    n only reads orders <= n.  The leading orders whose block fits
    ``TABULATED_MAX_ENTRIES`` are one matrix built once per call
    (``_TabulatedOrders``), so each stage costs them one GEMV; the orders
    above evaluate ``_OrderPlan.rows`` on views of the state, with each
    lower component rebuilt once per stage as V_k y_k for its Kronecker
    products.  Raises IntegrationError with the step index if values stop
    being finite.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    d, n_max = g0.d, g0.n_max
    y = np.concatenate([
        range_compress(g0.component(n), "correlation", two_sided=False).ravel() for n in range(1, n_max + 1)
    ])
    cache = EvolutionCache(spec)
    plans = [_OrderPlan(n, g0.stats, cache) for n in range(1, n_max + 1)]
    m = next((i for i, plan in enumerate(plans) if plan.tabulated_entries() > TABULATED_MAX_ENTRIES), n_max)
    bounds = [0, *itertools.accumulate(plan.rank * d**plan.n for plan in plans)]
    table = _TabulatedOrders(plans[:m], bounds)

    def rows(state: np.ndarray, n: int) -> np.ndarray:
        return state[bounds[n - 1]:bounds[n]].reshape(-1, d**n)

    def component(state: np.ndarray, n: int) -> np.ndarray:
        v = plans[n - 1].v
        return rows(state, n) if v is None else v @ rows(state, n)

    def rhs(state: np.ndarray) -> np.ndarray:
        out = np.empty_like(state)
        out[:table.length] = table(state)
        if m < n_max:
            comps = {n: component(state, n) for n in range(1, n_max)}
            for plan in plans[m:]:
                out[bounds[plan.n - 1]:bounds[plan.n]] = plan.rows(rows(state, plan.n), comps).ravel()
        return out

    h = t_final / steps
    for step in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise IntegrationError("hierarchy integration diverged", step)
    comps = {n: ManyBodyOperator(n, d, component(y, n), g0.stats) for n in range(1, n_max + 1)}
    return CorrelationSequence(d=d, stats=g0.stats, n_max=n_max, f0=0j, components=comps)
