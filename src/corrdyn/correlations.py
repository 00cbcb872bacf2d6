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
  (``hilbert.group_average``).  The cluster correlations of the memo and
  their rates in ``generalized_rhs`` carry the two-sided average inside
  the formula: for BOSE and FERMI the whole recursion runs in the rank
  space of the average.  With S_m the m-particle average, two exact
  identities allow it:

  (i)  S P X P^T S = S X S for any leg permutation P (for FERMI the two
       parity signs cancel);
  (ii) S_m (A (x) B) S_m = S_m (S_a A S_a (x) S_b B S_b) S_m, a + b = m,
       since S_m absorbs the averages over the two factors' labels.

  By (i) the sub-tuples Q of one relabeling class (relabeled Q, |E - Q|)
  give one term under the average, and by (ii) that term needs only the
  compressed factors.  With K(X) = V^dagger X V (r x r) and the maps
  W_{a,b} = (V_a (x) V_b)^dagger V_{a+b} (``_rank_map``, cached per
  (stats, (a, b), d)),

      K(R_n)  = K(g_n) + sum_class count W^T (K(g_j) (x) K(R_{n-j})) W,
      K(C(q)) = K(R_|q|) - sum_class count W^T (K(C(q')) (x) K(R_k)) W:

  one small product per class, no member placed, and nothing at rank 0
  (a FERMI order above d), and their rates by the product rule likewise.
  A result is lifted as V K V^dagger (``hilbert.rank_lift``) only where
  it leaves the memo or ``generalized_rhs``; the reduced operators read it
  through ``hilbert.traced_lift``.  BOLTZMANN (V = I) places every member.
  In the interaction sum of the hierarchy the average is applied outside
  the commutators; applying it between the commutator and the product
  breaks the Bose identity at three particles, while the outer placement
  is exact for every statistics (verified numerically down to rounding).
* The interaction sum is one commutator per multi-block partition.  Each
  term of the hierarchy picks a multi-block partition p and a nonempty label
  subset in every block; the subsets join into the support Z of one k-body
  coupling, and Z fixes the subsets as its intersections with the blocks.
  Hence, with P_p the product of p's block factors,

      sum_p sum_choices [P_p, Phi_Z] = sum_p [P_p, Phi_p],   Phi_p = sum_{Z meets every block of p} Phi_Z,

  exactly (the commutator is linear).  Partitions whose factors agree up to
  a relabeling of particles (one block-size type of an order) form a class.
  With K the Kronecker product of the class's factors on consecutive labels,
  Phi the class's coupling on those labels and Q_p the leg permutation
  taking them to p's labels, P_p = Q_p K Q_p^T (Van Loan, "The ubiquitous
  Kronecker product", J. Comput. Appl. Math. 123, 2000) and
  Phi_p = Q_p Phi Q_p^T, the couplings being exchange symmetric.  The
  dynamics read only components that the statistics' two-sided group
  average fixes, checked on entry by ``hilbert.range_compress``; such a
  component is invariant under conjugation by every leg permutation (for
  FERMI the two parity signs cancel).  So [K, Phi] is invariant under the
  class's stabilizer, whose cosets are the members, and the class sum is
  its member count |class| times one group average of [K, Phi]:

      sum_p Q_p [K, Phi] Q_p^T = |class| Twirl([K, Phi]),
      V^dagger (sum_p Q_p [K, Phi] Q_p^T) V = |class| V^dagger [K, Phi] V,

  the second since V^dagger Q_p = eps_p V^dagger, eps_p the parity sign of
  Q_p for FERMI and 1 for BOSE.  An order's sum acc is invariant too, so it
  commutes with S = V V^dagger, and its image lifts to
  V (V^dagger acc V) V^dagger = S acc S = S acc.
  An order therefore takes one term per type and finishes once, as the
  image V^dagger acc V: for BOLTZMANN acc = Twirl(sum_types |class| [K, Phi]),
  one coset twirl (``hilbert.permutation_average``); for BOSE and FERMI
  V^dagger acc V = sum_types |class| V^dagger [K, Phi] V, summed as it is.
  The factors are read as their images K_k: on the domain
  g_k = V_k K_k V_k^dagger, so K = L ((x)_k K_k) L^dagger with
  L = (x)_k V_k over the type's sizes, and the r x r term is
  W^T ((x)_k K_k) X - Y ((x)_k K_k) W with W = L^dagger V (``_rank_map``),
  X = L^dagger Phi V and Y = V^dagger Phi L, built once per plan, with
  Y = X^dagger as Phi is Hermitian and L and V real.  For BOLTZMANN
  (L = V = I) the same formula reads X = Y = Phi and no W.
  (x)_k K_k is applied factor by factor (``hilbert.times_kron``:
  X (A (x) B) is computed without forming A (x) B, after Van Loan) to the
  rows of Y and, as K X = (X^T K^T)^T, to the columns of X.  No Kronecker
  product, d^n x d^n product or coupling is placed per partition or per
  class, no member is relabeled, no lower order is lifted, and rank 0
  costs nothing.  X is the type's ``hamiltonian.coupling_image``, the one
  construction of which couplings meet a set of blocks and of their
  compression (H~_n is its one-block case): for BOSE and FERMI one leg
  contraction on V per class of supports, no d^n x d^n Phi, and the
  dense Phi where V is None.  This class term
  (``_OrderPlan.term``, finished by ``_OrderPlan.finish``) is the only
  implementation of the interaction sum, for the integrator, its tabulated
  orders and the one rate path of both right-hand sides (``_rate_image``).
* The drift.  Every order of the hierarchy reads and returns its rank-space
  image K_n = V^dagger g_n V, the output of ``hilbert.range_compress``
  (g_n itself for BOLTZMANN and n = 1).  H_n commutes with S_n, so
  V^dagger [g_n, H_n] V = [K_n, H~_n] with H~_n = V^dagger H_n V from the
  plans' shared ``hamiltonian.EvolutionCache``, the one-block coupling
  image, built in rank space without H_n: one r x r commutator for every
  statistics.  The integrator's state is the images, which the plans read
  as they are; ``von_neumann_rhs`` and ``generalized_rhs`` lift their
  result once (``hilbert.rank_lift``).
* Small orders of the RK4 right-hand side are tabulated on the same images.
  With row-major vec, vec(A X B) = (A (x) B^T) vec X, the drift is
  (i/hbar)(I_r (x) H~^T - H~ (x) I_r) vec K_n; a block-size type's finished
  term is linear in its monomial (the outer product of its raveled
  images), so its block of columns is the finished class term of the
  unit monomials, one batch: factor j runs through the r_k x r_k unit
  matrices of its image along batch axis j, and the C-order flattening of
  the batch is the monomial's order.  The block is the linear map from the
  monomial of the images to the image V^dagger acc V that agrees with the
  order's interaction sum on the domain, which the integrator's state
  keeps.  Built once per ``integrate_hierarchy`` call, an order's block
  costs one GEMV per stage; ``TABULATED_MAX_ENTRIES``, counted in the full
  layout, tabulates orders 1-3 at d = 2, 1-2 at d = 3 and order 1 at d = 4.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .combinatorics import ClusterSet, block_labels, set_partitions
from .errors import DomainError, IntegrationError, TruncationError
from .hamiltonian import EvolutionCache, InteractionSpec, commutator_generator, coupling_image
from .hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Statistics,
    group_average,
    group_rank,
    permutation_average,
    place_product,
    range_compress,
    rank_compress,
    rank_lift,
    require_finite,
    symmetric_isometry,
    times_kron,
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
    Q's relabeling class.  A function of the labels alone, so it is
    cached."""
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
def _rank_map(stats: Statistics, sizes: tuple[int, ...], d: int) -> np.ndarray:
    """W = L^dagger V_n, prod_k r_k x r_n, with L = (x)_k V_k over the orders
    k in ``sizes``, n their sum and V the ``symmetric_isometry`` of each
    order (the identity where it is None), as (V_n^dagger L)^T with L
    applied leg by leg (``times_kron``), never formed."""
    legs = [np.eye(d**k) if (v := symmetric_isometry(stats, k, d)) is None else v for k in sizes]
    out = times_kron(symmetric_isometry(stats, sum(sizes), d).T, legs).T
    out.flags.writeable = False
    return out


def _rank_product(a: np.ndarray, b: np.ndarray, stats: Statistics, i: int, j: int, d: int) -> np.ndarray:
    """Rank-space class term W^T (a (x) b) W of rank-space factors ``a`` (i
    particles) and ``b`` (j particles): V^dagger (V_i a V_i^dagger (x)
    V_j b V_j^dagger) V, with W from ``_rank_map`` (real, so W^dagger = W^T)."""
    w = _rank_map(stats, (i, j), d)
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


def _reconstruction_rates(mats: dict, rates: dict, whole: dict, d: int, average: Statistics) -> dict[int, np.ndarray]:
    """Time derivatives of the reconstructions ``whole`` along the component
    rates g'_n, by the product rule: R'_n = g'_n + split(g', R) + split(g, R'),
    under the two-sided ``average`` of ``_split_sum``."""
    whole_rates: dict[int, np.ndarray] = {}
    for n in whole:
        singletons = tuple((l,) for l in range(1, n + 1))
        terms = [(lambda q: rates[len(q)], whole), (lambda q: mats[len(q)], whole_rates)]
        whole_rates[n] = rates[n] + _split_sum(singletons, terms, d, average)
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
    out = correlation_mats({n: op.mat for n, op in D.components.items()}, D.d, D.stats)
    comps = {n: ManyBodyOperator(n, D.d, mat, D.stats) for n, mat in out.items()}
    return CorrelationSequence(d=D.d, stats=D.stats, n_max=D.n_max, f0=0j, components=comps)


def correlations_to_density(g: OperatorSequence) -> OperatorSequence:
    """Partition-lattice inverse of ``density_to_correlations``
    (``density_mats`` on the component matrices).

    D_n = S_n R_n with R_n the reconstruction by the exponential formula;
    the scalar part is set to one (its empty-set convention).
    """
    out = density_mats({n: op.mat for n, op in g.components.items()}, g.d, g.stats)
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


def _connected_rate(
    q: tuple, rates: dict, memo: dict, whole: dict, whole_rates: dict, d: int, average: Statistics
) -> np.ndarray:
    """Time derivative of ``_connected`` by the product rule,
    C'(q) = R'_|q| - split(C', R) - split(C, R') with R' = ``whole_rates``
    by size, under the two-sided ``average`` of ``_split_sum``, memoized in
    ``rates``."""
    if q not in rates:
        shared = dict(memo=memo, whole=whole, d=d, average=average)
        value = partial(_connected, **shared)
        rate = partial(_connected_rate, rates=rates, whole_rates=whole_rates, **shared)
        rates[q] = whole_rates[sum(map(len, q))] - _split_sum(q, [(rate, whole), (value, whole_rates)], d, average)
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


class _OrderPlan:
    """Right-hand side of hierarchy order n in the rank space of the group
    average: K'_n = V^dagger g'_n V from the images K_k = V_k^dagger g_k V_k
    of orders k <= n, each of a component that the group average fixes
    (``hilbert.range_compress``; g_k itself where V_k is None), with V
    (``symmetric_isometry``, rank r), H~_n = V^dagger H_n V from ``cache``
    and the classes built once.  The interaction sum is
    V^dagger acc V (acc when V is None), acc = (i/hbar) sum_p [P_p, Phi_p]
    over the multi-block partitions p that some coupling support reaches.
    A class is a block-size type (sizes descending): ``types`` maps it to
    its member count |class| and to (x, y, w), the (X, Y, W) of the module
    docstring: x is the type's ``hamiltonian.coupling_image`` and
    y = x^dagger, so where V is None (x, y) = (Phi, Phi^dagger) and w is
    None, and a BOSE or FERMI plan keeps and builds no side x side array.
    ``term`` is a type's class term for its factor images, and ``finish``
    turns the sum of an order's class terms into V^dagger acc V:
    ``interaction`` passes ``term`` the images, ``_TabulatedOrders`` every
    factor's unit matrices as one broadcast batch, in the factor order of
    the type's monomial.  ``types`` is empty, and no term need be
    evaluated, when no partition is reached or r = 0."""

    def __init__(self, n: int, stats: Statistics, cache: EvolutionCache):
        self.n, self.d, self.hbar = n, cache.spec.d, cache.spec.hbar
        self.h_tilde = cache.hamiltonian(n, stats)
        self.v = symmetric_isometry(stats, n, self.d)
        self.rank = len(self.h_tilde)
        partitions = set_partitions(range(1, n + 1)) if self.rank else []
        counts = Counter(tuple(sorted(map(len, p.blocks), reverse=True)) for p in partitions if p.size >= 2)
        self.types: dict[tuple[int, ...], tuple[int, np.ndarray, np.ndarray, np.ndarray | None]] = {}
        for sizes, count in counts.items():
            if (x := coupling_image(stats, sizes, cache.spec)) is not None:
                # Phi Hermitian and L, V real give Y = V^T Phi L = X^dagger, kept row-major for term
                y = np.ascontiguousarray(x.conj().T)
                self.types[sizes] = (count, x, y, None if self.v is None else _rank_map(stats, sizes, self.d))

    def term(self, sizes: tuple[int, ...], mats: list[np.ndarray]) -> np.ndarray:
        """Type ``sizes``' class term, less the factor i/hbar: |class| [K, Phi]
        for BOLTZMANN and |class| V^dagger [K, Phi] V for BOSE and FERMI,
        read from the factors' images ``mats`` as
        |class| (W^T ((x)_k K_k) X - Y ((x)_k K_k) W) (module docstring).
        ``times_kron`` applies (x)_k K_k to the rows of y and, as
        K X = (X^T K^T)^T, to the columns of x.  Leading axes of the factors
        are batch axes, broadcast against each other."""
        count, x, y, w = self.types[sizes]
        k_x = times_kron(x.T, [m.swapaxes(-1, -2) for m in mats]).swapaxes(-1, -2)
        y_k = times_kron(y, mats)
        return count * (k_x - y_k if w is None else w.T @ k_x - y_k @ w)

    def finish(self, terms: np.ndarray) -> np.ndarray:
        """V^dagger acc V from the sum of an order's class terms, less the
        factor i/hbar: its twirl for BOLTZMANN, ``terms`` itself for BOSE and
        FERMI (module docstring)."""
        return permutation_average(terms, self.n, self.d) if self.v is None else terms

    def interaction(self, images: dict[int, np.ndarray]) -> np.ndarray:
        """V^dagger acc V for the lower images ``images``, one term per type."""
        terms = sum(self.term(sizes, [images[k] for k in sizes]) for sizes in self.types)
        return (1j / self.hbar) * self.finish(terms)

    def __call__(self, image: np.ndarray, images: dict[int, np.ndarray]) -> np.ndarray:
        """K'_n = V^dagger g'_n V from the image ``image`` = V^dagger g_n V
        and the lower images ``images``.  H_n commutes with S_n, so
        V^dagger [g_n, H_n] V = [K_n, H~_n]: the drift is one r x r
        commutator for every statistics, and ``interaction`` already returns
        V^dagger acc V."""
        out = -commutator_generator(image, self.h_tilde, self.hbar)
        if self.types:
            out += self.interaction(images)
        return out

    def tabulated_entries(self) -> int:
        """Entries of this order's block of the tabulated right-hand side,
        counted in the full layout: side^2 x side^2 for the drift and for
        each block-size type, whatever the rank of the image."""
        return self.d ** (4 * self.n) * (1 + len(self.types))


def _images(g: OperatorSequence, m: int) -> dict[int, np.ndarray]:
    """The rank-space images V^dagger g_n V of orders 1..m by the dynamics'
    one domain rule, ``hilbert.range_compress``, which checks them."""
    _require_orders(g, m)
    return {n: range_compress(g.component(n), "correlation") for n in range(1, m + 1)}


def _rate_image(g: OperatorSequence, local: tuple, spec: InteractionSpec) -> np.ndarray:
    """Image V^dagger C' V of the rate of the cluster correlation C of the
    relabeled elements ``local`` (``_relabeled``), the one rate path of
    ``von_neumann_rhs`` and ``generalized_rhs``.  The order plans give the
    rates K'_n of the images (``_images``); over all singletons C' = K'_m,
    and otherwise the product rule on the exponential formula runs in the
    memo's representation (module docstring): R'_n = g'_n + split(g', R) +
    split(g, R') and C'(q) = R'_|q| - split(C', R) - split(C, R')."""
    m, d, stats = sum(map(len, local)), g.d, g.stats
    images, cache = _images(g, m), EvolutionCache(spec)
    if len(local) == m:  # all singletons: no lower rate is read
        return _OrderPlan(m, stats, cache)(images[m], images)
    rates = {n: _OrderPlan(n, stats, cache)(images[n], images) for n in range(1, m + 1)}
    singletons = {tuple((l,) for l in range(1, n + 1)): n for n in range(1, m + 1)}
    memo, memo_rates = {q: images[n] for q, n in singletons.items()}, {q: rates[n] for q, n in singletons.items()}
    whole = _reconstructions(images, m, d, {}, stats)
    whole_rates = _reconstruction_rates(images, rates, whole, d, stats)
    return _connected_rate(local, memo_rates, memo, whole, whole_rates, d, stats)


def von_neumann_rhs(g: OperatorSequence, n: int, spec: InteractionSpec) -> ManyBodyOperator:
    """Time derivative of the n-particle correlation component.

    -N_n g_n plus the symmetrized sum over the multi-block partitions p of
    the commutator of p's product of lower components with Phi_p, the sum of
    the k-body couplings whose support meets every block of p, taken as one
    class term per block-size type (``_OrderPlan``).  Couplings without a
    matching Phi^(k) contribute zero.  For n = 1 this is just -N_1 g_1.
    The statistics' two-sided group average must fix each component of
    orders 1..n (``hilbert.range_compress``); the first that it does not fix
    raises DomainError naming its order and the defect.  The all-singletons
    case of ``_rate_image``; its image K'_n is lifted once (``rank_lift``).
    """
    rate = _rate_image(g, tuple((l,) for l in range(1, n + 1)), spec)
    return ManyBodyOperator(n, spec.d, rank_lift(g.stats, rate, n, spec.d), g.stats)


def generalized_rhs(g: OperatorSequence, cluster: ClusterSet, spec: InteractionSpec) -> ManyBodyOperator:
    """Time derivative of a cluster correlation, driven by the base sequence.

    The product rule on the exponential formula of
    ``cluster_correlation_matrix`` along the hierarchy's rates g'_n of the
    orders n <= |X| (``_rate_image``): for BOSE and FERMI on rank-space
    images, one term per relabeling class and no member placed, lifted once
    as V C' V^dagger, the two-sided group average of the rate.  The
    components of orders 1..|X| must be fixed by that average, as for
    ``von_neumann_rhs``.
    """
    labels = cluster.declusterize()
    m = len(labels)
    if tuple(sorted(labels)) != tuple(range(1, m + 1)):
        raise DomainError("cluster set must flatten to labels 1..s+n")
    local, _ = _relabeled(tuple(el.labels for el in cluster.elements))
    return ManyBodyOperator(m, g.d, rank_lift(g.stats, _rate_image(g, local, spec), m, g.d), g.stats)


# --------------------------------------------------------------------------
# RK4 integration of the coupled hierarchy
# --------------------------------------------------------------------------

#: Largest block, side^2 x side^2 (1 + T_n) entries, that an order's
#: right-hand side is tabulated in (T_n its block-size types).  The count is
#: taken in the full layout, not on the images K_n = V^dagger g_n V the
#: state carries, so the rank does not move an order across it.  Per
#: evaluation of one order (Bose, two-body coupling, one BLAS thread, 2-vCPU
#: x86 host; the order's share of the GEMV against the generic plan, both on
#: the images), the GEMV wins up to here (side 4, 8 and 9: 0.7-6.1 us against
#: 27-32 us) and still at side 16 (d = 4 and d = 2: 13.5-13.7 and 3.5-3.6 us
#: against 36.5-37.2 and 49.1-49.7 us) and side 27 (18.2-21.5 us against
#: 39.2 us), which this bound leaves generic.
TABULATED_MAX_ENTRIES = 2**14


class _TabulatedOrders:
    """Right-hand side of orders 1..m as one matrix W on the flat state of
    images K_n = V_n^dagger g_n V_n (g_n itself where V_n is None).

    Row block n of W holds the drift (i/hbar)(I_r (x) H~^T - H~ (x) I_r) on
    vec K_n, H~ = V^dagger H V (H itself where V is None), and, per
    block-size type lambda of order n, the type's finished class term
    (i/hbar) ``_OrderPlan.finish(term)`` (V^dagger acc V, the order's
    image) as a linear map of its monomial, the outer product of the
    raveled images of sizes lambda: the term at every unit monomial of the
    images, all columns one batch whose factor j holds the r_j x r_j unit
    matrices along batch axis j (shapes (r_1^2, 1, r_1, r_1),
    (1, r_2^2, r_2, r_2), ...).  A call applies W to the flat images
    of orders 1..m followed by one monomial per type; the monomials of one
    degree are written by one product of gathers from the state, with
    index arrays built once.
    """

    def __init__(self, plans: list[_OrderPlan], bounds: list[int]):
        self.length = width = bounds[len(plans)]
        blocks, types = [], []
        for plan, row in zip(plans, bounds):
            eye = np.eye(plan.rank)
            drift = np.kron(eye, plan.h_tilde.T) - np.kron(plan.h_tilde, eye)
            blocks.append((row, row, (1j / plan.hbar) * drift))
            for sizes in sorted(plan.types, reverse=True):
                # factor j's unit matrices along batch axis j: the C-order
                # flattening of the batch is the order of the type's monomial
                units = []
                for j, k in enumerate(sizes):
                    batch = [1] * len(sizes)
                    batch[j] = -1
                    r = plans[k - 1].rank
                    units.append(np.eye(r**2).reshape(*batch, r, r))
                block = (1j / plan.hbar) * plan.finish(plan.term(sizes, units)).reshape(-1, plan.rank**2).T
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

    ``steps`` uniform steps from 0 to t_final on one flat state: the
    rank-space images K_n = V_n^dagger g_n V_n (r_n x r_n, V_n the
    ``symmetric_isometry`` of the order) of ``hilbert.range_compress``,
    raveled and concatenated by order, with K_n = g_n for BOLTZMANN and
    n = 1.  The statistics' two-sided group average must fix every component
    of ``g0`` (S_n g_n S_n = g_n for BOSE and FERMI, invariance under the
    twirl for BOLTZMANN); the first component that it does not fix raises
    DomainError naming its order and the defect.  The order-n equation keeps
    that domain, so g_n = V_n K_n V_n^dagger throughout, and it only reads
    orders <= n.  The leading orders whose block fits
    ``TABULATED_MAX_ENTRIES`` are one matrix built once per call
    (``_TabulatedOrders``), so each stage costs them one GEMV; the orders
    above evaluate their ``_OrderPlan`` on views of the state, and only the
    result g0_n + V_n (K_n(T) - K_n(0)) V_n^dagger is lifted: it is
    V_n K_n(T) V_n^dagger on the domain and g0 itself at t = 0.
    Raises IntegrationError with the step index if values stop being finite.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    d, n_max, stats = g0.d, g0.n_max, g0.stats
    images = _images(g0, n_max)
    cache = EvolutionCache(spec)
    plans = [_OrderPlan(n, stats, cache) for n in range(1, n_max + 1)]
    y0 = np.concatenate([images[n].ravel() for n in range(1, n_max + 1)])
    m = next((i for i, plan in enumerate(plans) if plan.tabulated_entries() > TABULATED_MAX_ENTRIES), n_max)
    bounds = [0, *itertools.accumulate(plan.rank**2 for plan in plans)]
    table = _TabulatedOrders(plans[:m], bounds)

    def image(state: np.ndarray, n: int) -> np.ndarray:
        r = plans[n - 1].rank
        return state[bounds[n - 1]:bounds[n]].reshape(r, r)

    def rhs(state: np.ndarray) -> np.ndarray:
        out = np.empty_like(state)
        out[:table.length] = table(state)
        if m < n_max:
            images = {n: image(state, n) for n in range(1, n_max)}
            for plan in plans[m:]:
                out[bounds[plan.n - 1]:bounds[plan.n]] = plan(image(state, plan.n), images).ravel()
        return out

    y, h = y0, t_final / steps
    for step in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise IntegrationError("hierarchy integration diverged", step)
    delta, comps = y - y0, {}
    for n in range(1, n_max + 1):
        mat = g0.component(n).mat + rank_lift(stats, image(delta, n), n, d)
        comps[n] = ManyBodyOperator(n, d, mat, stats)
    return CorrelationSequence(d=d, stats=stats, n_max=n_max, f0=0j, components=comps)
