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
* The interaction sum is grouped by coupling support.  Each term of the
  hierarchy picks a multi-block partition p and a nonempty label subset in
  every block; the subsets join into the support Z of one k-body coupling.
  Conversely Z fixes the per-block subsets as its intersections with the
  blocks, so choosing subsets block by block is the same as choosing one Z
  that meets every block.  Hence

      sum_p sum_choices [prod_p, Phi_Z] = sum_Z [sum_{p: every block meets Z} prod_p, Phi_Z]

  exactly (the commutator is linear), with the block products built once
  per evaluation, not once per support.
* One Kronecker product per relabeling class.  With S = V V^dagger
  (``hilbert.symmetric_isometry``, V of rank r), A_Z the summed products of
  one support and U_p = sum_Z M[Z, p] V^dagger Phi_Z,

      V^dagger sum_Z [A_Z, Phi_Z] = sum_Z (sum_p M[Z, p] V^dagger P_p) Phi_Z - sum_p U_p P_p,

  so only the rows X P_p, X = V^dagger or U_p (r rows each), are needed,
  and rank 0 costs nothing.  Partitions whose factors agree up to a
  relabeling of particles (one block-size type of an order, one relabeled
  block structure of a cluster set) have P_p = Q_p K Q_p^T, with K the
  Kronecker product of the factors in a fixed order and Q_p a leg
  permutation; then X P_p = ((X Q_p) K) Q_p^T (Van Loan, "The ubiquitous
  Kronecker product", J. Comput. Appl. Math. 123, 2000).  The rows X Q_p
  are gathered once per plan; an evaluation builds K once per class, does
  one GEMM with the class's stacked rows and undoes each member's column
  legs by one gather, and places no d^n x d^n product per partition.  For
  BOLTZMANN (V = I) the row block V^dagger P_p is K with both legs
  regathered.  One helper (``_SupportSum``) returns V^dagger of the
  interaction sum for every right-hand side: the hierarchy order lifts it
  as V (V^dagger acc), ``generalized_rhs`` as V ((V^dagger acc) V) V^dagger.
  The drift -[g_n, H_n] stays dense, since inputs need not be symmetric on
  both sides, and since leg-wise products lose to one dense GEMM at side
  256.
* Small orders of the RK4 right-hand side are tabulated.  With row-major
  vec, vec(A X B) = (A (x) B^T) vec X, so the drift is
  (i/hbar)(I (x) H^T - H (x) I) vec g_n, and the lifted interaction term of
  a partition p is K_p vec P_p with
  K_p = (i/hbar) sum_Z M[Z, p] (S (x) Phi_Z^T - S Phi_Z (x) I).  The block
  product P_p is the outer product of raveled components, in p's block
  order by size, read at p's placement index (``hilbert.placement_index``),
  so one order is linear in one monomial per block-size type.  Built once
  per ``integrate_hierarchy`` call, an order's block costs one GEMV per
  stage, its monomials written one degree at a time as products of
  gathers, where the generic plan costs a Kronecker product and a GEMM per
  block-size type; the bound ``TABULATED_MAX_ENTRIES`` keeps tabulation where
  the GEMV is faster (orders 1-3 at d = 2, 1-2 at d = 3, order 1 at
  d = 4).  A single evaluation (``von_neumann_rhs``, ``generalized_rhs``)
  stays generic: building the block costs more than one generic call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Hashable, Iterable

import numpy as np

from .combinatorics import (
    ClusterSet,
    Partition,
    block_labels,
    cluster_partitions,
    set_partitions,
)
from .errors import DomainError, IntegrationError, TruncationError
from .hamiltonian import InteractionSpec, commutator_generator, hamiltonian_matrix
from .hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Statistics,
    embed_matrix,
    group_average,
    group_compress,
    place_product,
    placement_index,
    symmetric_isometry,
    symmetrizer_matrix,
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


def _component_mats(seq: OperatorSequence) -> dict[int, np.ndarray]:
    return {n: op.mat for n, op in seq.components.items()}


def _relabeled(elements: tuple) -> tuple[tuple, tuple[int, ...]]:
    """Disjoint label tuples relabeled in order to 1..m, each sorted and the
    tuple ordered by least label, with the sorted labels they carry."""
    labels = tuple(sorted(l for el in elements for l in el))
    local = {l: i for i, l in enumerate(labels, 1)}
    return tuple(sorted(tuple(sorted(local[l] for l in el)) for el in elements)), labels


def _split_sum(
    elements: tuple, connected: Callable[[tuple], np.ndarray], whole: dict[int, np.ndarray], d: int
) -> np.ndarray:
    """The exponential formula less its Q = E term: the sum, over the proper
    sub-tuples Q of ``elements`` that hold the first element, of connected(Q)
    on Q's sorted labels times whole[size] on the rest's.  ``elements`` and
    the argument of ``connected`` are relabeled as by ``_relabeled``."""
    first, others = elements[0], elements[1:]
    m = sum(map(len, elements))
    total = np.zeros((d**m, d**m), dtype=np.complex128)
    for r in range(len(others)):
        for chosen in itertools.combinations(others, r):
            q, q_labels = _relabeled((first, *chosen))
            rest = tuple(sorted(l for el in others if el not in chosen for l in el))
            total += place_product([(connected(q), q_labels), (whole[len(rest)], rest)], m, d)
    return total


def _reconstructions(mats: dict[int, np.ndarray], m: int, d: int) -> dict[int, np.ndarray]:
    """Unsymmetrized density reconstructions R_1..R_m of correlation
    components: the exponential formula over singletons with C = g by size."""
    whole: dict[int, np.ndarray] = {}
    for n in range(1, m + 1):
        singletons = tuple((l,) for l in range(1, n + 1))
        whole[n] = mats[n] + _split_sum(singletons, lambda q: mats[len(q)], whole, d)
    return whole


def density_to_correlations(D: OperatorSequence) -> CorrelationSequence:
    """Partition-lattice Moebius inversion turning density components into
    correlations.

    The exponential formula over singletons with V = D is solved for its
    connected part M_n, and g_n = D_n + S_n (M_n - D_n), S_n being the
    statistics group average.  The inverse is ``correlations_to_density``;
    the pair is an exact bijection on statistics-symmetric sequences.
    """
    d, stats = D.d, D.stats
    mats = _component_mats(D)
    connected: dict[int, np.ndarray] = {}
    out = {}
    for n in range(1, D.n_max + 1):
        split = _split_sum(tuple((l,) for l in range(1, n + 1)), lambda q: connected[len(q)], mats, d)
        connected[n] = mats[n] - split
        out[n] = ManyBodyOperator(n, d, mats[n] - group_average(stats, split, n, d), stats)
    return CorrelationSequence(d=d, stats=stats, n_max=D.n_max, f0=0j, components=out)


def correlations_to_density(g: OperatorSequence) -> OperatorSequence:
    """Partition-lattice inverse of ``density_to_correlations``.

    D_n = S_n R_n with R_n the reconstruction by the exponential formula;
    the scalar part is set to one (its empty-set convention).
    """
    d, stats = g.d, g.stats
    whole = _reconstructions(_component_mats(g), g.n_max, d)
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
    mats = _component_mats(g)
    memo = {tuple((l,) for l in range(1, k + 1)): mats[k] for k in range(1, m + 1)}
    whole = {} if local in memo else _reconstructions(mats, m, d)  # all singletons: C = g_m
    return group_compress(g.stats, _connected(local, memo, whole, d), m, d), labels


def _connected(q: tuple, memo: dict[tuple, np.ndarray], whole: dict[int, np.ndarray], d: int) -> np.ndarray:
    """Connected part C(q) of the exponential formula with V = ``whole`` by
    size, memoized in ``memo``.  A module function, not a closure over
    itself, so that a call leaves no reference cycle holding the memo."""
    if q not in memo:
        connected = partial(_connected, memo=memo, whole=whole, d=d)
        memo[q] = whole[sum(map(len, q))] - _split_sum(q, connected, whole, d)
    return memo[q]


def clusterize(g: OperatorSequence, s: int, n: int) -> ClusterCorrelation:
    """Correlation operator of the cluster set ({1..s}, s+1, ..., s+n).

    The exponential formula over the cluster set solved for its cluster
    correlation, the two-sided group-average compression outermost.
    """
    if s < 1:
        raise DomainError("cluster size s must be >= 1")
    if s + n > g.n_max:
        raise TruncationError(f"clusterize needs component {s + n} > n_max={g.n_max}")
    xc = ClusterSet.canonical(s, n)
    mat, _ = cluster_correlation_matrix(g, tuple(el.labels for el in xc.elements))
    return ClusterCorrelation(s, n, ManyBodyOperator(s + n, g.d, mat, g.stats), xc)


# --------------------------------------------------------------------------
# hierarchy right-hand sides
# --------------------------------------------------------------------------

CouplingSupport = tuple[tuple[int, ...], tuple[Partition, ...]]


def coupling_supports(partitions: list[Partition], orders: Iterable[int]) -> list[CouplingSupport]:
    """Coupling supports of the interaction sum, each with its partitions.

    For every order k in ``orders`` and every k-subset Z of the labels the
    partitions carry, lists the multi-block partitions whose every block
    meets Z; supports that no partition reaches are dropped.  Pure label
    bookkeeping: the number of supports is the number of embedded couplings
    one hierarchy right-hand side sums over.
    """
    orders = sorted(orders)
    # a partition with more blocks than the largest order meets no support
    k_max = orders[-1] if orders else 0
    multi = [(p, [set(block_labels(b)) for b in p.blocks]) for p in partitions if 2 <= p.size <= k_max]
    labels = sorted(set().union(*multi[0][1])) if multi else []
    out = []
    for k in orders:
        fits = [(p, blocks) for p, blocks in multi if len(blocks) <= k]
        for z in itertools.combinations(labels, k):
            zset = set(z)
            hits = tuple(p for p, blocks in fits if all(b & zset for b in blocks))
            if hits:
                out.append((z, hits))
    return out


class _SupportSum:
    """Projected interaction sum of one hierarchy order or cluster set.

    Returns V^dagger acc, V the ``symmetric_isometry`` of the order (acc
    itself for BOLTZMANN), with acc = (i/hbar) sum_Z [A_Z, Phi_Z] and A_Z
    the sum of the block products P_p whose partition meets Z in every
    block.  With M the 0/1 incidence of supports x partitions and
    U_p = sum_Z M[Z, p] V^dagger Phi_Z,

        V^dagger acc = (i/hbar) (sum_Z (sum_p M[Z, p] V^dagger P_p) Phi_Z - sum_p U_p P_p).

    ``arrange`` maps a partition to a group key and its factors' label
    tuples.  The partitions of one key share their factors, in that order,
    so their products differ only by a relabeling of legs: P_p = Q_p K Q_p^T
    with K the Kronecker product of the factors and Q_p a permutation.
    Hence X P_p = ((X Q_p) K) Q_p^T, and the rows X Q_p for X = V^dagger and
    X = U_p are gathered once, on the first call.  A call builds K once per
    group, multiplies it by the group's stacked rows in one GEMM and undoes
    every member's column legs by one gather.  For BOLTZMANN (V = I) the
    row block V^dagger P_p is P_p itself, gathered from K on both legs.
    ``parts`` is empty when no support is reached or the rank r is zero,
    and then no product need be built; it lists each group's members
    contiguously.
    """

    def __init__(
        self,
        partitions: list[Partition],
        spec: InteractionSpec,
        n: int,
        stats: Statistics,
        arrange: Callable[[Partition], tuple[Hashable, tuple[tuple[int, ...], ...]]],
    ):
        self.n, self.d, self.hbar = n, spec.d, spec.hbar
        self.side = side = spec.d**n
        self.v = symmetric_isometry(stats, n, spec.d)
        self.rank = side if self.v is None else self.v.shape[1]
        supports = coupling_supports(partitions, spec.potentials) if self.rank else []
        grouped: dict[Hashable, list] = {}
        for p in dict.fromkeys(p for _, hits in supports for p in hits):
            key, legs = arrange(p)
            grouped.setdefault(key, []).append((p, legs))
        self.parts = [p for members in grouped.values() for p, _ in members]
        column = {p: j for j, p in enumerate(self.parts)}
        #: per group key, each member's index in ``parts`` with its factors' labels
        self.groups = {key: [(column[p], legs) for p, legs in members] for key, members in grouped.items()}
        self.incidence = np.zeros((len(supports), len(self.parts)), dtype=np.complex128)
        for i, (_, hits) in enumerate(supports):
            self.incidence[i, [column[p] for p in hits]] = 1.0
        self.phi = np.empty((len(supports) * side, side), dtype=np.complex128)
        for i, (z, _) in enumerate(supports):
            self.phi[i * side:(i + 1) * side] = embed_matrix(spec.potentials[len(z)], z, n, spec.d)

    @cached_property
    def _layouts(self) -> list[tuple]:
        """Per group: the factors' consecutive labels in K, the stacked rows
        [V^dagger Q_p; U_p Q_p] (only U_p Q_p for BOLTZMANN), and the flat
        indices that read every member's V^dagger P_p and U_p P_p, legs
        undone, from the product of the rows with K (from K itself for the
        BOLTZMANN V^dagger P_p)."""
        side, rank, v = self.side, self.rank, self.v
        projected = self.phi.reshape(-1, side, side)
        if v is not None:
            projected = v.T @ projected
        u = (self.incidence.T @ projected.reshape(len(self.incidence), -1)).reshape(-1, rank, side)
        layouts = []
        for members in self.groups.values():
            lo, hi = members[0][0], members[-1][0] + 1
            gather, undo = _relabelings(tuple(legs for _, legs in members), self.n, self.d)
            rows = u[lo:hi].take(_member_columns(gather, rank, rank))
            if v is not None:
                rows = np.concatenate([v.T[:, gather].transpose(1, 0, 2), rows], axis=1)
            stride = rows.shape[1]  # per member: r rows of V^dagger Q_p (not for BOLTZMANN), then r of U_p Q_p
            first = _member_columns(undo, stride, rank)
            pick_u = first + (stride - rank) * side
            pick_v = first if v is not None else undo[:, :, None] * side + undo[:, None, :]
            legs = members[0][1]
            ends = itertools.accumulate(map(len, legs))
            canonical = [tuple(range(end - len(labels) + 1, end + 1)) for end, labels in zip(ends, legs)]
            layouts.append((canonical, rows.reshape(-1, side), pick_v, pick_u))
        return layouts

    def row_blocks(self, factors: Iterable[list[np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        """V^dagger P_p and U_p P_p for every partition, in ``parts`` order,
        as two (len(parts), r, side) arrays.  ``factors`` holds, per group in
        ``groups`` order, the factor matrices in the order of the members'
        label tuples."""
        va, up = [], []
        for (canonical, rows, pick_v, pick_u), mats in zip(self._layouts, factors):
            k = place_product(list(zip(mats, canonical)), self.n, self.d)
            y = rows @ k
            va.append((k if self.v is None else y).take(pick_v))
            up.append(y.take(pick_u))
        return np.concatenate(va), np.concatenate(up)

    def __call__(self, factors: Iterable[list[np.ndarray]]) -> np.ndarray:
        va, up = self.row_blocks(factors)
        return (1j / self.hbar) * (_side_by_side(self.incidence, va) @ self.phi - up.sum(axis=0))


@lru_cache(maxsize=None)
def _relabelings(members: tuple[tuple[tuple[int, ...], ...], ...], n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Column index maps of the leg permutations Q of a group's members, one
    row each: (X Q)[:, c] = X[:, gather[c]], the legs of c, in factor order,
    taken to the labels the member's label tuples carry, and its inverse
    ``undo``, (Y Q^T)[:, b] = Y[:, undo[b]]."""
    digits = np.arange(d**n).reshape((d,) * n)
    gather = np.stack([digits.transpose([l - 1 for labels in m for l in labels]).ravel() for m in members])
    undo = np.argsort(gather, axis=1)
    gather.flags.writeable = undo.flags.writeable = False
    return gather, undo


def _member_columns(index: np.ndarray, stride: int, count: int) -> np.ndarray:
    """Flat indices into m stacked blocks of ``stride`` rows of length side
    (m, side = index.shape): of block i, the first ``count`` rows, each
    read at the columns index[i]; shape (m, count, side)."""
    m, side = index.shape
    return (np.arange(m)[:, None, None] * stride + np.arange(count)[:, None]) * side + index[:, None, :]


def _side_by_side(weights: np.ndarray, stacked: np.ndarray) -> np.ndarray:
    """The sums sum_j weights[i, j] stacked[j] for every i, placed side by
    side: one r x (len(weights) side) array from stacked of shape (m, r, side)."""
    m, rank, side = stacked.shape
    sums = (weights @ stacked.reshape(m, rank * side)).reshape(-1, rank, side)
    return sums.transpose(1, 0, 2).reshape(rank, -1)


def _by_size(p: Partition) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Block-size type of a partition of labels (sizes descending) and its
    blocks' sorted labels in that order (ties keep their order)."""
    legs = tuple(sorted((tuple(sorted(b)) for b in p.blocks), key=lambda labels: -len(labels)))
    return tuple(map(len, legs)), legs


def _by_structure(p: Partition) -> tuple[tuple[tuple, ...], tuple[tuple[int, ...], ...]]:
    """Blocks of a partition of cluster elements, each relabeled as by
    ``_relabeled`` and sorted, and their sorted labels in that order.  A
    block's cluster correlation depends only on its relabeled elements, so
    partitions with the same sorted structures share their factors."""
    relabeled = (_relabeled(tuple(block_labels((el,)) for el in b)) for b in p.blocks)
    blocks = sorted(relabeled, key=lambda block: block[0])
    return tuple(q for q, _ in blocks), tuple(labels for _, labels in blocks)


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
        if support.parts:
            proj = support([comps[k] for k in sizes] for sizes in support.groups)
            out += proj if support.v is None else support.v @ proj
        return out

    def tabulated_entries(self) -> int:
        """Entries of this order's block of the tabulated right-hand side:
        side^2 x side^2 for the drift and for each block-size type."""
        return self.h.size**2 * (1 + len(self.support.groups))


def von_neumann_rhs(g: OperatorSequence, n: int, spec: InteractionSpec) -> ManyBodyOperator:
    """Time derivative of the n-particle correlation component.

    -N_n g_n plus the symmetrized sum over coupling supports Z of k-body
    commutators acting on the summed products of lower components over the
    multi-block partitions whose every block meets Z.  Couplings without a
    matching Phi^(k) contribute zero.  For n = 1 this is just -N_1 g_1.
    """
    return ManyBodyOperator(n, spec.d, _OrderPlan(n, g.stats, spec)(_component_mats(g)), g.stats)


def generalized_rhs(
    g: OperatorSequence, cluster: ClusterSet, spec: InteractionSpec
) -> ManyBodyOperator:
    """Time derivative of a cluster correlation, driven by the base sequence.

    Block factors are the cluster correlations of each sub-collection of
    elements (each carrying its own group average, then embedded); the
    atomic cluster is never split by the outer partitions, but coupling
    supports range over the flattened labels.  A block's factor depends only
    on its relabeled elements, so it is computed once per structure and the
    partitions of one sorted block structure share one Kronecker product.
    """
    labels = cluster.declusterize()
    ntot = len(labels)
    if tuple(sorted(labels)) != tuple(range(1, ntot + 1)):
        raise DomainError("cluster set must flatten to labels 1..s+n")
    own, _ = cluster_correlation_matrix(g, tuple(el.labels for el in cluster.elements))
    out = -commutator_generator(own, hamiltonian_matrix(ntot, spec), spec.hbar)
    support = _SupportSum(cluster_partitions(cluster), spec, ntot, g.stats, _by_structure)
    if support.parts:
        factors = {q: cluster_correlation_matrix(g, q)[0] for key in support.groups for q in key}
        proj = support([factors[q] for q in key] for key in support.groups)
        v = support.v
        out += proj if v is None else v @ (proj @ v) @ v.T
    return ManyBodyOperator(ntot, spec.d, out, g.stats)


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
    and, per block-size type lambda of order n, the sum over its partitions p
    of K_p = (i/hbar) sum_Z M[Z, p] (S (x) Phi_Z^T - S Phi_Z (x) I), with the
    columns of K_p scattered by the placement index of p.  A call applies W
    to the flat components of orders 1..m followed by one monomial per type,
    the outer product of the raveled components of sizes lambda; the
    monomials of one degree are written by one product of gathers from the
    state, with index arrays built once.
    """

    def __init__(self, plans: list[_OrderPlan], bounds: list[int]):
        self.length = width = bounds[len(plans)]
        blocks, types = [], []
        for plan, row in zip(plans, bounds):
            side, n = plan.h.shape[0], plan.n
            eye = np.eye(side)
            blocks.append((row, row, (1j / plan.hbar) * (np.kron(eye, plan.h.T) - np.kron(plan.h, eye))))
            support = plan.support
            if not support.parts:
                continue
            sym = symmetrizer_matrix(plan.stats, n, plan.d)
            coupling = support.incidence.T @ support.phi.reshape(len(support.incidence), -1)
            for sizes, members in sorted(support.groups.items(), reverse=True):
                block = np.zeros((side**2, side**2), dtype=np.complex128)
                for j, legs in members:
                    b = coupling[j].reshape(side, side)
                    index = placement_index(legs, n, plan.d)
                    s_b = group_average(plan.stats, b, n, plan.d)
                    block[:, index] += (1j / plan.hbar) * (np.kron(sym, b.T) - np.kron(s_b, eye))
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
