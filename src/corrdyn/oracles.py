"""Independent brute-force references for tests and verification runs.

Nothing here shares an implementation with the fast paths it is used to
validate: tensor algebra is explicit index loops, evolution rebuilds its
eigendecomposition per call, Bell numbers come from the triangle recurrence,
correlations are the signed partition sum and cluster correlations the
nested two-level partition sum, both over their own partition enumeration
(the fast paths solve one exponential formula instead), the traced
cumulant series is the sum over the Bell(1+n) partitions of each cluster
set with dense block propagators (the fast path sums subsets of the
satellites and builds no block propagator; the cumulants share
``hamiltonian.block_propagator`` with it), the reduced-operator sum is
the direct grand-canonical definition, and its Fock-space reading
(``fock_marginal``) builds the density and the ladder operators on the
occupation basis, its vectors by a permutation loop of its own.  Clarity
over speed throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hilbert import ManyBodyOperator, OperatorSequence, Statistics
from .hamiltonian import (
    EvolutionCache,
    InteractionSpec,
    block_hamiltonian,
    block_propagator,
    commutator_generator,
    hamiltonian_matrix,
)
from .combinatorics import ClusterSet, block_labels, cluster_partitions, mobius_weight, set_partitions
from .bbgky import MarginalSequence


@dataclass(frozen=True)
class OracleResult:
    """A brute-force value tagged with how it was produced.

    Reports and failure messages carry the method string, so a mismatch
    against a fast path always names its independent reference.
    """

    value: object
    method: str


def direct_density_evolution(D0: OperatorSequence, t: float, spec: InteractionSpec) -> OperatorSequence:
    """Componentwise unitary conjugation with a freshly diagonalized H_m.

    No shared cache, no propagator reuse: each component rebuilds its own
    eigensystem, so agreement with the cached evolution is a genuine
    cross-check.
    """
    comps = {}
    for m, op in D0.components.items():
        w, v = np.linalg.eigh(hamiltonian_matrix(m, spec))
        u = v @ np.diag(np.exp(-1j * t * w / spec.hbar)) @ v.conj().T
        comps[m] = op.with_mat(u @ op.mat @ u.conj().T)
    return OperatorSequence(
        d=D0.d, stats=D0.stats, n_max=D0.n_max, f0=D0.f0, components=comps
    )


def loop_embed(a: np.ndarray, labels: tuple[int, ...], ground: tuple[int, ...], d: int) -> np.ndarray:
    """Four-index-loop embedding of ``a`` acting on ``labels`` inside ``ground``."""
    n = len(ground)
    k = len(labels)
    positions = [ground.index(l) for l in labels]
    rest = [i for i in range(n) if i not in positions]
    side = d**n
    out = np.zeros((side, side), dtype=np.complex128)
    for row in range(side):
        rdig = _digits(row, n, d)
        for col in range(side):
            cdig = _digits(col, n, d)
            if any(rdig[i] != cdig[i] for i in rest):
                continue
            ra = _pack([rdig[p] for p in positions], d)
            ca = _pack([cdig[p] for p in positions], d)
            out[row, col] = a[ra, ca]
    return out


def loop_partial_trace(mat: np.ndarray, s: int, n: int, d: int) -> np.ndarray:
    """Explicit index-summation partial trace keeping the first s particles."""
    out = np.zeros((d**s, d**s), dtype=np.complex128)
    for row in range(d**n):
        rdig = _digits(row, n, d)
        for col in range(d**n):
            cdig = _digits(col, n, d)
            if rdig[s:] != cdig[s:]:
                continue
            out[_pack(rdig[:s], d), _pack(cdig[:s], d)] += mat[row, col]
    return out


def loop_permute_rows(mat: np.ndarray, images: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """Kernel row relabeling out[q; q'] = mat[q_pi; q'] by explicit digits."""
    side = d**n
    out = np.zeros_like(np.asarray(mat, dtype=np.complex128))
    for row in range(side):
        rdig = _digits(row, n, d)
        src = _pack([rdig[images[i] - 1] for i in range(n)], d)
        out[row, :] = mat[src, :]
    return out


def loop_group_average(stats: Statistics, n: int, d: int) -> np.ndarray:
    """(1/n!) sum_pi sign(pi) P_pi with every P_pi the identity relabeled by
    ``loop_permute_rows``; the identity for BOLTZMANN."""
    side = d**n
    if stats is Statistics.BOLTZMANN:
        return np.eye(side, dtype=np.complex128)
    out = np.zeros((side, side), dtype=np.complex128)
    for images in itertools.permutations(range(1, n + 1)):
        inversions = sum(a > b for a, b in itertools.combinations(images, 2))
        sign = -1.0 if stats is Statistics.FERMI and inversions % 2 else 1.0
        out += sign * loop_permute_rows(np.eye(side), images, n, d)
    return out / math.factorial(n)


def _partitions(items: list) -> list[list[list]]:
    """All set partitions of ``items``: the first item joins each block of
    each partition of the rest, or forms a block of its own."""
    if not items:
        return [[]]
    head, out = items[0], []
    for rest in _partitions(items[1:]):
        for i in range(len(rest)):
            out.append(rest[:i] + [[head] + rest[i]] + rest[i + 1:])
        out.append([[head]] + rest)
    return out


def nested_cluster_correlation(g: OperatorSequence, elements: tuple) -> np.ndarray:
    """Cluster correlation of disjoint label tuples by the nested definition.

    Outer signed sum over partitions P of the elements, weight
    (-1)^(|P|-1) (|P|-1)!; per block, the inner sum over all partitions of
    its labels of products of components, each factor placed on its sorted
    labels by ``loop_embed``; then the compression S M S with S from
    ``loop_group_average``.  The matrix acts on the sorted labels.
    """
    ground = tuple(sorted(l for el in elements for l in el))
    m, d = len(ground), g.d
    total = np.zeros((d**m, d**m), dtype=np.complex128)
    for outer in _partitions(list(elements)):
        term = np.eye(d**m, dtype=np.complex128)
        for block in outer:
            inner_sum = np.zeros_like(term)
            for inner in _partitions(sorted(l for el in block for l in el)):
                prod = np.eye(d**m, dtype=np.complex128)
                for labels in map(sorted, inner):
                    prod = prod @ loop_embed(g.components[len(labels)].mat, tuple(labels), ground, d)
                inner_sum += prod
            term = term @ inner_sum
        total += (-1) ** (len(outer) - 1) * math.factorial(len(outer) - 1) * term
    sym = loop_group_average(g.stats, m, d)
    return sym @ total @ sym


def signed_density_to_correlations(D: OperatorSequence) -> dict[int, np.ndarray]:
    """Correlation components of a density sequence by the signed partition sum.

    g_n = D_n + S_n sum over the partitions P of 1..n with >= 2 blocks of
    (-1)^(|P|-1) (|P|-1)! times the product of the components D_|B|, each
    placed on its block's sorted labels by ``loop_embed``, with S_n from
    ``loop_group_average``.
    """
    d, out = D.d, {}
    for n in range(1, D.n_max + 1):
        ground = tuple(range(1, n + 1))
        total = np.zeros((d**n, d**n), dtype=np.complex128)
        for blocks in _partitions(list(ground)):
            if len(blocks) > 1:
                prod = np.eye(d**n, dtype=np.complex128)
                for labels in map(sorted, blocks):
                    prod = prod @ loop_embed(D.components[len(labels)].mat, tuple(labels), ground, d)
                total += (-1) ** (len(blocks) - 1) * math.factorial(len(blocks) - 1) * prod
        out[n] = D.components[n].mat + loop_group_average(D.stats, n, d) @ total
    return out


def spectral_trace_norm(mat: np.ndarray) -> float:
    """Trace norm via the eigenvalues of M^dagger M."""
    evals = np.linalg.eigvalsh(mat.conj().T @ mat)
    return float(np.sqrt(np.clip(evals, 0.0, None)).sum())


def _digits(index: int, n: int, d: int) -> list[int]:
    # particle 1 is the most significant digit
    out = []
    for _ in range(n):
        out.append(index % d)
        index //= d
    return out[::-1]


def _pack(digits, d: int) -> int:
    out = 0
    for q in digits:
        out = out * d + q
    return out


def bell_triangle(m: int) -> int:
    """Bell number via the triangle recurrence (rows built from scratch)."""
    if m < 0:
        raise DomainError("Bell number of negative order")
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def exhaustive_mobius_identity(m: int) -> int:
    """Sum of the signed partition weights over all partitions of an m-set:
    1 for m = 1 and 0 for m >= 2."""
    if m < 1:
        raise DomainError("need m >= 1")
    return sum(mobius_weight(p) for p in set_partitions(range(m)))


def grand_marginal_sum(D: OperatorSequence, s: int) -> ManyBodyOperator:
    """Classical-reference reduced operator: sum_n (1/n!) Tr_{s+1..s+n} D_{s+n}."""
    d = D.d
    out = np.zeros((d**s, d**s), dtype=np.complex128)
    for n in range(0, D.n_max - s + 1):
        mat = D.components[s + n].mat
        out += loop_partial_trace(mat, s, s + n, d) / math.factorial(n)
    return ManyBodyOperator(s, d, out, D.stats)


def reference_marginal(D: OperatorSequence, s: int) -> OracleResult:
    """``grand_marginal_sum`` wrapped with its provenance tag."""
    return OracleResult(
        value=grand_marginal_sum(D, s),
        method="traced-density sum with loop partial traces",
    )


def fock_marginal(D: OperatorSequence, s: int) -> ManyBodyOperator:
    """Reduced s-particle operator of a BOSE or FERMI sequence read in Fock
    space, with no normalization:

        gamma_s[i, j] = Tr(rho a^dagger_{j_1} ... a^dagger_{j_s} a_{i_s} ... a_{i_1}),

    i and j running over s single-particle indices, particle 1 the most
    significant.  rho acts on the occupation states of d modes with at most
    n_max particles (at most one per mode for FERMI): its vacuum weight is
    f0, and its sector n is the block v_alpha^dagger D_n v_beta / n!, with
    v_alpha the first-quantized vector of occupation state alpha, built by
    its own loop over the n! permutations (``_first_quantized``).  a_k
    lowers n_k with weight sqrt(n_k); for FERMI it carries the sign
    (-1)^(n_0 + ... + n_{k-1}).  Nothing here is shared with
    ``grand_marginal_sum``, which this reproduces."""
    if D.stats is Statistics.BOLTZMANN:
        raise DomainError("a Fock-space marginal needs BOSE or FERMI statistics")
    if not 1 <= s <= D.n_max:
        raise DomainError(f"marginal order {s} outside 1..{D.n_max}")
    d, fermi = D.d, D.stats is Statistics.FERMI
    top = 1 if fermi else D.n_max
    basis = [occ for occ in itertools.product(range(top + 1), repeat=d) if sum(occ) <= D.n_max]
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = D.f0  # the vacuum comes first
    for n in range(1, D.n_max + 1):
        sector = [occ for occ in basis if sum(occ) == n]
        if not sector:  # a FERMI sector above d
            continue
        vecs = np.stack([_first_quantized(occ, fermi) for occ in sector], axis=1)
        rows = [index[occ] for occ in sector]
        rho[np.ix_(rows, rows)] = vecs.T @ D.components[n].mat @ vecs / math.factorial(n)
    lowering = []
    for k in range(d):
        a = np.zeros((dim, dim))
        for occ in basis:
            if occ[k]:
                below = occ[:k] + (occ[k] - 1,) + occ[k + 1:]
                sign = (-1) ** sum(occ[:k]) if fermi else 1
                a[index[below], index[occ]] = sign * math.sqrt(occ[k])
        lowering.append(a)
    strings = []  # a_{i_s} ... a_{i_1} per row index i
    for i in itertools.product(range(d), repeat=s):
        op = np.eye(dim)
        for k in i:
            op = lowering[k] @ op
        strings.append(op)
    out = np.zeros((d**s, d**s), dtype=np.complex128)
    for r, a_i in enumerate(strings):
        for c, a_j in enumerate(strings):
            out[r, c] = np.trace(rho @ a_j.T @ a_i)
    return ManyBodyOperator(s, d, out, D.stats)


def _first_quantized(occ: tuple[int, ...], fermi: bool) -> np.ndarray:
    """Normalized first-quantized vector of an occupation state: the sum,
    over the permutations of its modes in ascending order, of the permuted
    product basis states, each signed by its inversion count for FERMI."""
    modes = [k for k, count in enumerate(occ) for _ in range(count)]
    n, d = len(modes), len(occ)
    vec = np.zeros(d**n)
    for images in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(images, 2))
        vec[_pack([modes[p] for p in images], d)] += -1.0 if fermi and inversions % 2 else 1.0
    return vec / np.linalg.norm(vec)


def grand_marginals(D: OperatorSequence) -> MarginalSequence:
    comps = {s: grand_marginal_sum(D, s) for s in range(1, D.n_max + 1)}
    return MarginalSequence(d=D.d, stats=D.stats, n_max=D.n_max, components=comps)


def density_from_marginals(F: MarginalSequence) -> OperatorSequence:
    """Triangular inverse of ``grand_marginals``: recovers the density
    sequence whose grand-canonical sums reproduce the given marginals."""
    d = F.d
    mats: dict[int, np.ndarray] = {}
    for s in range(F.n_max, 0, -1):
        acc = F.component(s).mat.copy()
        for n in range(1, F.n_max - s + 1):
            acc -= loop_partial_trace(mats[s + n], s, s + n, d) / math.factorial(n)
        mats[s] = acc
    comps = {
        s: ManyBodyOperator(s, d, mats[s], F.stats) for s in range(1, F.n_max + 1)
    }
    return OperatorSequence(d=d, stats=F.stats, n_max=F.n_max, f0=1.0 + 0j, components=comps)


def _partition_terms(t: float, s: int, n: int, mat: np.ndarray, cache: EvolutionCache):
    """(weight, blocks, U_P mat U_P^dagger) for every partition P of the
    cluster set ({1..s}, s+1, ..., s+n), U_P the dense block propagator."""
    for p in cluster_partitions(ClusterSet.canonical(s, n)):
        blocks = [block_labels(block) for block in p.blocks]
        u = block_propagator(blocks, s + n, t, cache)
        yield mobius_weight(p), blocks, u @ mat @ u.conj().T


def partition_series(F0: MarginalSequence, t: float, s: int, cache: EvolutionCache) -> ManyBodyOperator:
    """The cumulant-series solution by its definition:
    sum_n (1/n!) Tr_{s+1..s+n} A_{1+n}(t) F0_{s+n}, every cumulant the signed
    sum over the partitions of its cluster set, traced by index loops."""
    d = F0.d
    out = np.zeros((d**s, d**s), dtype=np.complex128)
    for n in range(0, F0.n_max - s + 1):
        term = sum(w * evolved for w, _, evolved in _partition_terms(t, s, n, F0.component(s + n).mat, cache))
        out += loop_partial_trace(term, s, s + n, d) / math.factorial(n)
    return ManyBodyOperator(s, d, out, F0.stats)


def partition_series_time_derivative(
    F0: MarginalSequence, t: float, s: int, cache: EvolutionCache
) -> ManyBodyOperator:
    """d/dt of ``partition_series``: each partition term differentiates to
    minus the commutator generator of its summed block Hamiltonians."""
    d = F0.d
    out = np.zeros((d**s, d**s), dtype=np.complex128)
    for n in range(0, F0.n_max - s + 1):
        term = np.zeros((d ** (s + n), d ** (s + n)), dtype=np.complex128)
        for w, blocks, evolved in _partition_terms(t, s, n, F0.component(s + n).mat, cache):
            h = block_hamiltonian(blocks, s + n, cache)
            term += w * (-commutator_generator(evolved, h, cache.spec.hbar))
        out += loop_partial_trace(term, s, s + n, d) / math.factorial(n)
    return ManyBodyOperator(s, d, out, F0.stats)
