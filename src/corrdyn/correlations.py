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
* The statistics group average is applied once per order, outside the
  exponential formula, to the summed terms, through the isometry V of
  ``hilbert.symmetric_isometry``: one-sided (``hilbert.group_average``) for
  the transform pair, two-sided (``hilbert.group_compress``) for cluster
  correlations.  In the interaction sum of the hierarchy the average is
  applied outside the commutators; applying it between the commutator and
  the product breaks the Bose identity at three particles, while the outer
  placement is exact for every statistics (verified numerically down to
  rounding).
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

  and an evaluation builds K once per class, makes three r x side products
  and undoes each member's column legs by one signed gather; no d^n x d^n
  product or coupling is placed per partition, and rank 0 costs nothing.
  For BOLTZMANN (V = I) a member is Q_p [K, Phi] Q_p^T, one gather on both
  legs.  This class term (``_SupportSum.term``) is the only implementation
  of the interaction sum: the hierarchy orders lift it as V (V^dagger acc),
  the tabulated orders read their blocks off it, and ``generalized_rhs``
  differentiates the cluster correlation by the product rule along the
  orders' right-hand sides.  The drift -[g_n, H_n] stays dense, since
  inputs need not be symmetric on both sides, and since leg-wise products
  lose to one dense GEMM at side 256.
* Small orders of the RK4 right-hand side are tabulated.  With row-major
  vec, vec(A X B) = (A (x) B^T) vec X, the drift is
  (i/hbar)(I (x) H^T - H (x) I) vec g_n; a block-size type's term is linear
  in its monomial (the outer product of its raveled components, which K
  reads at ``hilbert.placement_index``), so its block of columns is the
  class term of the K of the unit monomials, one batch, lifted by V.  Built
  once per ``integrate_hierarchy`` call, an order's block costs one GEMV
  per stage; ``TABULATED_MAX_ENTRIES`` keeps tabulation where the GEMV is
  faster (orders 1-3 at d = 2, 1-2 at d = 3, order 1 at d = 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Hashable, Iterable

import numpy as np

from .combinatorics import ClusterSet, Partition, block_labels, set_partitions
from .errors import DomainError, IntegrationError, TruncationError
from .hamiltonian import InteractionSpec, commutator_generator, hamiltonian_matrix
from .hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Permutation,
    Statistics,
    embed_matrix,
    group_average,
    group_compress,
    place_product,
    placement_index,
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


def _component_mats(seq: OperatorSequence, m: int) -> dict[int, np.ndarray]:
    """Component matrices, of which orders 1..m must lie within the truncation."""
    if m > seq.n_max:
        raise TruncationError(f"component {m} lies above the truncation n_max={seq.n_max}")
    return {n: op.mat for n, op in seq.components.items()}


def _relabeled(elements: tuple) -> tuple[tuple, tuple[int, ...]]:
    """Disjoint label tuples relabeled in order to 1..m, each sorted and the
    tuple ordered by least label, with the sorted labels they carry."""
    labels = tuple(sorted(l for el in elements for l in el))
    local = {l: i for i, l in enumerate(labels, 1)}
    return tuple(sorted(tuple(sorted(local[l] for l in el)) for el in elements)), labels


def _split_sum(
    elements: tuple, terms: list[tuple[Callable[[tuple], np.ndarray], dict[int, np.ndarray]]], d: int
) -> np.ndarray:
    """The exponential formula less its Q = E term: the sum, over the proper
    sub-tuples Q of ``elements`` that hold the first element and over the
    pairs (connected, whole) of ``terms``, of connected(Q) on Q's sorted
    labels times whole[size] on the rest's.  The pairs (C', V) and (C, V')
    give the time derivative of the pair (C, V) by the product rule.
    ``elements`` and the argument of ``connected`` are relabeled as by
    ``_relabeled``."""
    first, others = elements[0], elements[1:]
    m = sum(map(len, elements))
    total = np.zeros((d**m, d**m), dtype=np.complex128)
    for r in range(len(others)):
        for chosen in itertools.combinations(others, r):
            q, q_labels = _relabeled((first, *chosen))
            rest = tuple(sorted(l for el in others if el not in chosen for l in el))
            for connected, whole in terms:
                total += place_product([(connected(q), q_labels), (whole[len(rest)], rest)], m, d)
    return total


def _reconstructions(mats: dict[int, np.ndarray], m: int, d: int) -> dict[int, np.ndarray]:
    """Unsymmetrized density reconstructions R_1..R_m of correlation
    components: the exponential formula over singletons with C = g by size."""
    whole: dict[int, np.ndarray] = {}
    for n in range(1, m + 1):
        singletons = tuple((l,) for l in range(1, n + 1))
        whole[n] = mats[n] + _split_sum(singletons, [(lambda q: mats[len(q)], whole)], d)
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
    correlations.

    The exponential formula over singletons with V = D is solved for its
    connected part M_n, and g_n = D_n + S_n (M_n - D_n), S_n being the
    statistics group average.  The inverse is ``correlations_to_density``;
    the pair is an exact bijection on statistics-symmetric sequences.
    """
    d, stats = D.d, D.stats
    mats = _component_mats(D, D.n_max)
    connected: dict[int, np.ndarray] = {}
    out = {}
    for n in range(1, D.n_max + 1):
        split = _split_sum(tuple((l,) for l in range(1, n + 1)), [(lambda q: connected[len(q)], mats)], d)
        connected[n] = mats[n] - split
        out[n] = ManyBodyOperator(n, d, mats[n] - group_average(stats, split, n, d), stats)
    return CorrelationSequence(d=d, stats=stats, n_max=D.n_max, f0=0j, components=out)


def correlations_to_density(g: OperatorSequence) -> OperatorSequence:
    """Partition-lattice inverse of ``density_to_correlations``.

    D_n = S_n R_n with R_n the reconstruction by the exponential formula;
    the scalar part is set to one (its empty-set convention).
    """
    d, stats = g.d, g.stats
    whole = _reconstructions(_component_mats(g, g.n_max), g.n_max, d)
    out = {n: ManyBodyOperator(n, d, group_average(stats, r, n, d), stats) for n, r in whole.items()}
    return OperatorSequence(d=d, stats=stats, n_max=g.n_max, f0=1.0 + 0j, components=out)


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
    sums it is the variant that keeps Hermitian inputs Hermitian.
    """
    local, labels = _relabeled(tuple(block_labels((el,)) for el in elements))
    m, d = len(labels), g.d
    mats = _component_mats(g, m)
    memo = {tuple((l,) for l in range(1, k + 1)): mats[k] for k in range(1, m + 1)}
    whole = {} if local in memo else _reconstructions(mats, m, d)  # all singletons: C = g_m
    return group_compress(g.stats, _connected(local, memo, whole, d), m, d), labels


def _connected(q: tuple, memo: dict[tuple, np.ndarray], whole: dict[int, np.ndarray], d: int) -> np.ndarray:
    """Connected part C(q) of the exponential formula with V = ``whole`` by
    size, memoized in ``memo``.  A module function, not a closure over
    itself, so that a call leaves no reference cycle holding the memo."""
    if q not in memo:
        connected = partial(_connected, memo=memo, whole=whole, d=d)
        memo[q] = whole[sum(map(len, q))] - _split_sum(q, [(connected, whole)], d)
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
    correlation, the two-sided group-average compression outermost.
    """
    if s < 1:
        raise DomainError("cluster size s must be >= 1")
    xc = ClusterSet.canonical(s, n)
    mat, _ = cluster_correlation_matrix(g, tuple(el.labels for el in xc.elements))
    return ClusterCorrelation(s, n, ManyBodyOperator(s + n, g.d, mat, g.stats), xc)


# --------------------------------------------------------------------------
# hierarchy right-hand sides
# --------------------------------------------------------------------------


class _SupportSum:
    """Projected interaction sum of one hierarchy order.

    Returns V^dagger acc, V the ``symmetric_isometry`` of the order (acc
    itself for BOLTZMANN), with acc = (i/hbar) sum_p [P_p, Phi_p] over the
    multi-block partitions p that some coupling support reaches.  ``arrange``
    maps a partition to a class key and its factors' label tuples; the
    members of one class share their factors, in that order.  ``term`` is a
    class's share, the class term of the module docstring, for a Kronecker
    product K of the factors on consecutive labels: a call builds K once per
    class, and ``_TabulatedOrders`` evaluates the term on the K of every
    unit monomial as one batch.  ``groups`` is empty when no partition is
    reached or the rank r is zero, and then no product need be built.
    """

    def __init__(
        self,
        partitions: list[Partition],
        spec: InteractionSpec,
        n: int,
        stats: Statistics,
        arrange: Callable[[Partition], tuple[Hashable, tuple[tuple[int, ...], ...]]],
    ):
        self.n, self.d, self.hbar, self.stats = n, spec.d, spec.hbar, stats
        self.side = side = spec.d**n
        self.v = symmetric_isometry(stats, n, spec.d)
        self.rank = side if self.v is None else self.v.shape[1]
        grouped: dict[Hashable, list] = {}
        for p in partitions:
            if self.rank and p.size >= 2:
                key, legs = arrange(p)
                grouped.setdefault(key, []).append(legs)
        #: per class key, the members' factor label tuples
        self.groups: dict[Hashable, tuple] = {}
        #: per class key, Phi: the couplings on the consecutive labels of K
        self.phi: dict[Hashable, np.ndarray] = {}
        for key, members in grouped.items():
            phi = _meeting_couplings(_consecutive(members[0]), spec, n)
            if phi is not None:
                self.groups[key], self.phi[key] = tuple(members), phi

    @cached_property
    def _layouts(self) -> dict[Hashable, tuple]:
        """Per class key: the consecutive labels of K, Phi, V^dagger Phi, and
        the members' index maps and signs.  The maps undo the column legs
        (both legs, flat, for BOLTZMANN, where V^dagger Phi and the signs are
        None)."""
        side, v = self.side, self.v
        layouts = {}
        for key, members in self.groups.items():
            labels, phi = _consecutive(members[0]), self.phi[key]
            undo, parity = _relabelings(members, self.n, self.d)
            if v is None:
                layouts[key] = (labels, phi, None, undo[:, :, None] * side + undo[:, None, :], None)
            else:
                signs = np.array([self.stats.permutation_sign(bit) for bit in parity])
                layouts[key] = (labels, phi, v.T @ phi, undo, signs)
        return layouts

    def term(self, key: Hashable, k: np.ndarray) -> np.ndarray:
        """Class ``key``'s share of V^dagger acc, less the factor i/hbar:
        sum_p eps_p ((V^dagger K) Phi - (V^dagger Phi) K) Q_p^T over the
        members, for the class's Kronecker product ``k`` on consecutive
        labels (sum_p Q_p [K, Phi] Q_p^T for BOLTZMANN).  Leading axes of
        ``k`` are batch axes."""
        _, phi, v_phi, index, signs = self._layouts[key]
        if v_phi is None:
            return (k @ phi - phi @ k).reshape(*k.shape[:-2], -1)[..., index].sum(axis=-3)
        return signs @ ((self.v.T @ k) @ phi - v_phi @ k)[..., index]

    def __call__(self, factors: Iterable[list[np.ndarray]]) -> np.ndarray:
        """V^dagger acc.  ``factors`` holds, per class in ``groups`` order,
        the factor matrices in the order of the members' label tuples."""
        acc = np.zeros((self.rank, self.side), dtype=np.complex128)
        for (key, (labels, *_)), mats in zip(self._layouts.items(), factors):
            acc += self.term(key, place_product(list(zip(mats, labels)), self.n, self.d))
        return (1j / self.hbar) * acc


def _consecutive(legs: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """Consecutive labels 1..n in runs of the lengths of ``legs``."""
    ends = itertools.accumulate(map(len, legs))
    return [tuple(range(end - len(labels) + 1, end + 1)) for end, labels in zip(ends, legs)]


def _meeting_couplings(blocks: list[tuple[int, ...]], spec: InteractionSpec, n: int) -> np.ndarray | None:
    """Sum of the embedded k-body couplings whose support meets every block
    (label tuples covering 1..n), or None when no support does."""
    terms = (
        embed_matrix(phi, z, n, spec.d)
        for k, phi in spec.potentials.items()
        for z in itertools.combinations(range(1, n + 1), k)
        if all(set(b).intersection(z) for b in blocks)
    )
    out = next(terms, None)
    for term in terms:
        out += term
    return out


@lru_cache(maxsize=None)
def _relabelings(members: tuple[tuple[tuple[int, ...], ...], ...], n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The leg permutations Q of a class's members, one row each: the column
    index map ``undo``, (Y Q^T)[:, b] = Y[:, undo[b]], Q taking the legs of
    consecutive labels, in factor order, to the labels the member's label
    tuples carry; and the parity of each Q."""
    digits = np.arange(d**n).reshape((d,) * n)
    images = [tuple(l for labels in m for l in labels) for m in members]
    gather = np.stack([digits.transpose([l - 1 for l in image]).ravel() for image in images])
    undo = np.argsort(gather, axis=1)
    parity = np.array([Permutation(image).parity for image in images])
    undo.flags.writeable = parity.flags.writeable = False
    return undo, parity


def _by_size(p: Partition) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Block-size type of a partition of labels (sizes descending) and its
    blocks' sorted labels in that order (ties keep their order)."""
    legs = tuple(sorted((tuple(sorted(b)) for b in p.blocks), key=lambda labels: -len(labels)))
    return tuple(map(len, legs)), legs


class _OrderPlan:
    """Right-hand side of hierarchy order n on component matrices (orders <= n),
    with the Hamiltonian and the projected support sum built once.  The
    support's groups are the block-size types of ``_by_size``: one
    Kronecker product of components per type and evaluation, and the
    factor order of the type's monomial in ``_TabulatedOrders``."""

    def __init__(self, n: int, stats: Statistics, spec: InteractionSpec):
        self.n, self.d, self.hbar, self.stats = n, spec.d, spec.hbar, stats
        self.h = hamiltonian_matrix(n, spec)
        self.support = _SupportSum(set_partitions(range(1, n + 1)), spec, n, stats, _by_size)

    def __call__(self, comps: dict[int, np.ndarray]) -> np.ndarray:
        out = -commutator_generator(comps[self.n], self.h, self.hbar)
        support = self.support
        if support.groups:
            proj = support([comps[k] for k in sizes] for sizes in support.groups)
            out += proj if support.v is None else support.v @ proj
        return out

    def tabulated_entries(self) -> int:
        """Entries of this order's block of the tabulated right-hand side:
        side^2 x side^2 for the drift and for each block-size type."""
        return self.h.size**2 * (1 + len(self.support.groups))


def von_neumann_rhs(g: OperatorSequence, n: int, spec: InteractionSpec) -> ManyBodyOperator:
    """Time derivative of the n-particle correlation component.

    -N_n g_n plus the symmetrized sum over the multi-block partitions p of
    the commutator of p's product of lower components with Phi_p, the sum of
    the k-body couplings whose support meets every block of p.  Couplings
    without a matching Phi^(k) contribute zero.  For n = 1 this is just
    -N_1 g_1.
    """
    return ManyBodyOperator(n, spec.d, _OrderPlan(n, g.stats, spec)(_component_mats(g, n)), g.stats)


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
    rates = {n: _OrderPlan(n, g.stats, spec)(mats) for n in range(1, m + 1)}
    singletons = [tuple((l,) for l in range(1, k + 1)) for k in range(1, m + 1)]
    memo, memo_rates = {q: mats[len(q)] for q in singletons}, {q: rates[len(q)] for q in singletons}
    whole = {} if local in memo else _reconstructions(mats, m, d)  # all singletons: C' = g'_m
    whole_rates = _reconstruction_rates(mats, rates, whole, d)
    rate = _connected_rate(local, memo_rates, memo, whole, whole_rates, d)
    return ManyBodyOperator(m, d, group_compress(g.stats, rate, m, d), g.stats)


# --------------------------------------------------------------------------
# RK4 integration of the coupled hierarchy
# --------------------------------------------------------------------------

#: Largest block, side^2 x side^2 (1 + T_n) entries, that an order's
#: right-hand side is tabulated in (T_n its block-size types).  Per
#: evaluation (Bose, two-body coupling, one BLAS thread, 2-vCPU x86 host) the
#: GEMV wins up to here (side 4, 8 and 9: 4.0-8.8 us against 22-38 us for
#: the generic plan) and loses above it (side 16 at d = 4 and at d = 2:
#: 57 and 117 us against 31 and 94 us; side 27: 647 us against 98 us).
TABULATED_MAX_ENTRIES = 2**14


class _TabulatedOrders:
    """Right-hand side of orders 1..m as one matrix W on the flat state.

    Row block n of W holds the drift (i/hbar)(I (x) H^T - H (x) I) on vec g_n
    and, per block-size type lambda of order n, the type's lifted class term
    (i/hbar) V ``_SupportSum.term`` as a linear map of its monomial, the
    outer product of the raveled components of sizes lambda: column c is
    the term at the Kronecker product of unit monomial c, all columns one
    batch.  A call applies W to the flat components of orders 1..m followed
    by one monomial per type; the monomials of one degree are written by one
    product of gathers from the state, with index arrays built once.
    """

    def __init__(self, plans: list[_OrderPlan], bounds: list[int]):
        self.length = width = bounds[len(plans)]
        blocks, types = [], []
        for plan, row in zip(plans, bounds):
            side, support = plan.h.shape[0], plan.support
            eye = np.eye(side)
            blocks.append((row, row, (1j / plan.hbar) * (np.kron(eye, plan.h.T) - np.kron(plan.h, eye))))
            for sizes, members in sorted(support.groups.items(), reverse=True):
                # row c: the Kronecker product K of the type's unit monomial c
                index = placement_index(tuple(_consecutive(members[0])), plan.n, plan.d)
                term = support.term(sizes, np.eye(side**2)[:, index].reshape(-1, side, side))
                lifted = (1j / plan.hbar) * (term if support.v is None else support.v @ term)
                types.append((row, [(bounds[k - 1], bounds[k]) for k in sizes], lifted.reshape(side**2, -1).T))
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
    components raveled and concatenated by order.  The right-hand side of
    component n only reads orders <= n.  The leading orders whose block fits
    ``TABULATED_MAX_ENTRIES`` are one matrix built once per call
    (``_TabulatedOrders``), so each stage costs them one GEMV; the orders
    above keep their ``_OrderPlan`` on views of the state.  Raises
    IntegrationError with the step index if values stop being finite.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    d, n_max = g0.d, g0.n_max
    plans = [_OrderPlan(n, g0.stats, spec) for n in range(1, n_max + 1)]
    m = next((i for i, plan in enumerate(plans) if plan.tabulated_entries() > TABULATED_MAX_ENTRIES), n_max)
    bounds = [0, *itertools.accumulate(d ** (2 * n) for n in range(1, n_max + 1))]
    table = _TabulatedOrders(plans[:m], bounds)

    def rhs(y: np.ndarray) -> np.ndarray:
        out = np.empty_like(y)
        out[:table.length] = table(y)
        if m < n_max:
            comps = {n: y[bounds[n - 1]:bounds[n]].reshape(d**n, d**n) for n in range(1, n_max + 1)}
            for plan in plans[m:]:
                out[bounds[plan.n - 1]:bounds[plan.n]] = plan(comps).ravel()
        return out

    y = np.concatenate([g0.component(n).mat.ravel() for n in range(1, n_max + 1)])
    h = t_final / steps
    for step in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise IntegrationError("hierarchy integration diverged", step)
    comps = {
        n: ManyBodyOperator(n, d, y[bounds[n - 1]:bounds[n]].reshape(d**n, d**n), g0.stats)
        for n in range(1, n_max + 1)
    }
    return CorrelationSequence(d=d, stats=g0.stats, n_max=n_max, f0=0j, components=comps)
