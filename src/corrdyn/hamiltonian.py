"""Many-body Hamiltonians with k-body couplings and their unitary groups.

The continuum kinetic term is replaced by an arbitrary Hermitian one-body
matrix, so the n-particle Hamiltonian is

    H_n = sum_i h(i) + sum_{k>=2} sum_{i_1<...<i_k} Phi^(k)(i_1, ..., i_k)

with H_0 = 0.  Evolution is unitary conjugation computed in the eigenbasis,
cached per particle count and statistics (``EvolutionCache``: for BOSE and
FERMI the eigensystem of H_m restricted to the range of the group
average, built there from the couplings without forming H_m); the spectral
route keeps the group law and trace norms exact to rounding.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceCapError
from .hilbert import (
    HERMITICITY_TOL,
    ManyBodyOperator,
    Statistics,
    add_embedded,
    all_permutations,
    apply_embedded,
    embed_matrix,
    permutation_conjugate,
    place_product,
    require_hermitian,
    symmetric_isometry,
)


def periodic_laplacian(d: int) -> np.ndarray:
    """Discrete Laplacian on a periodic chain of d sites (2 on the diagonal,
    -1 on the wrapped off-diagonals).  Scale by hbar^2/2 for a kinetic term."""
    lap = 2.0 * np.eye(d)
    for i in range(d):
        lap[i, (i + 1) % d] -= 1.0
        lap[i, (i - 1) % d] -= 1.0
    return lap.astype(np.complex128)


@dataclass(frozen=True)
class InteractionSpec:
    """One-body matrix plus k-body coupling matrices defining the dynamics.

    Parameters
    ----------
    d : single-particle dimension.
    one_body : d x d Hermitian matrix (the kinetic stand-in).
    potentials : map k -> d^k x d^k Hermitian matrix, k >= 2.  Each matrix
        must be invariant under two-sided conjugation by factor permutations:
        the hierarchy right-hand sides read the coupling of a relabeled
        partition as the relabeled coupling.
    hbar : Planck constant over 2 pi; enters all generators as 1/hbar.
    matrix_side_cap : largest d^n allowed for H_n (and, as ``matrix_cap``, in every check).
    """

    d: int
    one_body: np.ndarray
    potentials: dict[int, np.ndarray] = field(default_factory=dict)
    hbar: float = 1.0
    matrix_side_cap: int = 4096

    def __post_init__(self):
        if self.d < 2:
            raise DomainError("single-particle dimension must be >= 2")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise DomainError(f"hbar must be finite and positive, got {self.hbar}")
        ob = np.asarray(self.one_body, dtype=np.complex128)
        if ob.shape != (self.d, self.d):
            raise DomainError(f"one_body shape {ob.shape} != ({self.d}, {self.d})")
        require_hermitian("one_body", ob, DomainError)
        ob = ob.copy()
        ob.flags.writeable = False
        object.__setattr__(self, "one_body", ob)
        pots = {}
        for k, phi in sorted(self.potentials.items()):
            if k < 2:
                raise DomainError(f"k-body potential needs k >= 2, got k={k}")
            mat = np.asarray(phi, dtype=np.complex128)
            side = self.d**k
            if mat.shape != (side, side):
                raise DomainError(f"potential k={k} shape {mat.shape} != ({side}, {side})")
            require_hermitian(f"potential k={k}", mat, DomainError)
            dev = max(
                float(np.abs(permutation_conjugate(perm, mat, self.d) - mat).max())
                for perm in all_permutations(k)
            )
            if dev > HERMITICITY_TOL * max(1.0, float(np.abs(mat).max())):
                raise DomainError(f"potential k={k} not factor-permutation symmetric: max dev {dev:.3e}")
            mat = mat.copy()
            mat.flags.writeable = False
            pots[k] = mat
        object.__setattr__(self, "potentials", pots)

    @property
    def k_max(self) -> int:
        return max(self.potentials, default=1)

    def check_side(self, n: int) -> None:
        if self.d**n > self.matrix_side_cap:
            raise ResourceCapError(
                f"H_{n} side {self.d**n} exceeds cap {self.matrix_side_cap}"
            )


def hamiltonian_matrix(n: int, spec: InteractionSpec) -> np.ndarray:
    if n < 0:
        raise DomainError("particle count must be >= 0")
    if n == 0:
        return np.zeros((1, 1), dtype=np.complex128)
    spec.check_side(n)
    d = spec.d
    out = np.zeros((d**n, d**n), dtype=np.complex128)
    for i in range(1, n + 1):
        add_embedded(out, spec.one_body, (i,), n, d)
    add_couplings(out, [tuple(range(1, n + 1))], spec, n)
    return out


def coupling_supports(
    blocks: list[tuple[int, ...]], spec: InteractionSpec, n: int
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """The k-body couplings whose support meets every one of ``blocks``
    (label tuples covering 1..n), as (Phi^(k), support) by k ascending, then
    lexicographically.  One block gives H_n's couplings, a partition's
    blocks those of the hierarchy and chain."""
    return [
        (phi, z)
        for k, phi in spec.potentials.items()
        for z in itertools.combinations(range(1, n + 1), k)
        if all(set(b).intersection(z) for b in blocks)
    ]


def add_couplings(out: np.ndarray, blocks: list[tuple[int, ...]], spec: InteractionSpec, n: int) -> bool:
    """Add the couplings of ``coupling_supports`` to the d^n x d^n ``out``
    in place; whether there were any."""
    supports = coupling_supports(blocks, spec, n)
    for phi, z in supports:
        add_embedded(out, phi, z, n, spec.d)
    return bool(supports)


def couplings_times(
    v: np.ndarray, blocks: list[tuple[int, ...]], spec: InteractionSpec, n: int
) -> np.ndarray | None:
    """Phi v for the sum Phi of the couplings of ``coupling_supports`` and a
    d^n x c matrix ``v``, one leg contraction per support
    (``hilbert.apply_embedded``), with no d^n x d^n Phi; None when no
    support meets the blocks."""
    supports = coupling_supports(blocks, spec, n)
    if not supports:
        return None
    return sum(apply_embedded(phi, z, v, n, spec.d) for phi, z in supports)


def rank_hamiltonian(m: int, spec: InteractionSpec, v: np.ndarray) -> np.ndarray:
    """H~_m = V^dagger H_m V for an isometry ``v`` (d^m x r, real) whose
    columns are symmetric or antisymmetric, without forming H_m.  A leg
    permutation P gives P V = +-V, and the couplings are exchange
    symmetric, so every placement of a k-body term compresses alike:

        H~_m = V^dagger [m (h (x) I) V + sum_k C(m, k) (Phi^(k) (x) I) V],

    each (a (x) I) V one contraction on V's leading legs
    (``hilbert.apply_embedded``), with C(m, k) the count of H_m's supports
    of size k (``coupling_supports`` of the one block 1..m)."""
    d = spec.d
    hv = m * apply_embedded(spec.one_body, (1,), v, m, d)
    sizes = Counter(len(z) for _, z in coupling_supports([tuple(range(1, m + 1))], spec, m))
    for k, count in sizes.items():
        hv += count * apply_embedded(spec.potentials[k], tuple(range(1, k + 1)), v, m, d)
    return v.T @ hv


def build_hamiltonian(n: int, spec: InteractionSpec) -> ManyBodyOperator:
    """H_n as an operator; Hermitian by construction, H_0 = 0."""
    return ManyBodyOperator(n, spec.d, hamiltonian_matrix(n, spec))


def von_neumann_generator(f: ManyBodyOperator, H: ManyBodyOperator, hbar: float = 1.0) -> ManyBodyOperator:
    """N f = -(i/hbar) (f H - H f); traceless, the minus of the equation of
    motion right-hand side (d/dt f = -N f under unitary evolution)."""
    if (f.n, f.d) != (H.n, H.d):
        raise DomainError("operator and Hamiltonian dimensions differ")
    return f.with_mat(commutator_generator(f.mat, H.mat, hbar))


def commutator_generator(f: np.ndarray, h: np.ndarray, hbar: float) -> np.ndarray:
    return (-1j / hbar) * (f @ h - h @ f)


def interaction_generator(
    labels: tuple[int, ...], spec: InteractionSpec, f: ManyBodyOperator
) -> ManyBodyOperator:
    """k-body commutator generator with Phi^(k) embedded at ``labels``.

    A missing Phi^(k) counts as zero, so sparse coupling sets are
    expressible without special-casing callers.
    """
    k = len(labels)
    if any(not 1 <= l <= f.n for l in labels):
        raise DomainError(f"labels {labels} outside 1..{f.n}")
    phi = spec.potentials.get(k)
    if phi is None:
        return ManyBodyOperator.zero(f.n, f.d, f.stats)
    emb = embed_matrix(phi, tuple(sorted(labels)), f.n, f.d)
    return f.with_mat(commutator_generator(f.mat, emb, spec.hbar))


class EvolutionCache:
    """Spectral evolution per particle count and statistics, built lazily.

    H_m commutes with the statistics group average S_m = V V^dagger
    (``hilbert.symmetric_isometry``, rank r), so the evolution group maps
    the range of S_m to itself.  With H~_m = V^dagger H_m V (r x r),

        H_m V = V H~_m,    U_m(t) V = V U~_m(t),    U~_m(t) = exp(-i t H~_m / hbar),

    and an operator in the two-sided range, V K V^dagger, evolves as
    V (U~ K U~^dagger) V^dagger.  The cache keeps one construction for
    every statistics: ``hamiltonian(m, stats)`` is H~_m and ``eigensystem``
    its eigendecomposition, cached per (m, stats), and ``propagator``
    U~_m(t), read-only, kept per (m, stats) for its last t only: a
    cumulant's blocks of one size, or a series' value and rate at one time,
    share one build.  H~_m is built in rank space (``rank_hamiltonian``):
    V's columns are (anti)symmetric, so every placement of a coupling
    compresses alike and one contraction on V's leading legs per coupling
    order gives it, with no d^m x d^m H_m.  Where V is None (BOLTZMANN, the
    default, and m <= 1) H~_m is the dense H_m of ``hamiltonian_matrix``.
    A rank-0 order (FERMI m > d) has a 0 x 0 H~_m; callers skip it.  The
    side d^m is held to ``matrix_side_cap`` for every statistics.

    Immutable after construction apart from memoization.
    """

    def __init__(self, spec: InteractionSpec):
        self.spec = spec
        self._eig: dict[tuple[int, Statistics], tuple[np.ndarray, np.ndarray]] = {}
        self._ham: dict[tuple[int, Statistics], np.ndarray] = {}
        self._last: dict[tuple[int, Statistics], tuple[float, np.ndarray]] = {}

    def hamiltonian(self, m: int, stats: Statistics = Statistics.BOLTZMANN) -> np.ndarray:
        """H~_m = V^dagger H_m V for the group average of ``stats``, built
        from the couplings on V's legs (``rank_hamiltonian``) with no
        d^m x d^m H_m; the cached H_m itself where V is None.  Either way
        the side d^m must fit ``matrix_side_cap``."""
        if (m, stats) not in self._ham:
            self.spec.check_side(m)  # before V, d^m x r, is built
            v = symmetric_isometry(stats, m, self.spec.d)
            if v is not None:
                h = rank_hamiltonian(m, self.spec, v)
            else:
                h = hamiltonian_matrix(m, self.spec) if stats is Statistics.BOLTZMANN else self.hamiltonian(m)
            self._ham[m, stats] = h
        return self._ham[m, stats]

    def eigensystem(
        self, m: int, stats: Statistics = Statistics.BOLTZMANN
    ) -> tuple[np.ndarray, np.ndarray]:
        if (m, stats) not in self._eig:
            w, v = np.linalg.eigh(self.hamiltonian(m, stats))
            self._eig[m, stats] = (w, v)
        return self._eig[m, stats]

    def reconstruction_error(self, m: int, stats: Statistics = Statistics.BOLTZMANN) -> float:
        """Largest entry of W diag(w) W^dagger - H~_m for the cached
        eigensystem (w, W) of H~_m, the one the evolution of ``stats`` uses
        (the dense H_m where V is None); 0 at rank 0."""
        w, v = self.eigensystem(m, stats)
        h = self.hamiltonian(m, stats)
        return float(np.abs((v * w) @ v.conj().T - h).max(initial=0.0))

    def propagator(self, m: int, t: float, stats: Statistics = Statistics.BOLTZMANN) -> np.ndarray:
        """U~_m(t) = exp(-i t H~_m / hbar) via the cached eigenbasis; the
        dense U_m(t) where V is None; read-only, rebuilt only for a new t."""
        kept = self._last.get((m, stats))
        if kept is None or kept[0] != t:
            w, v = self.eigensystem(m, stats)
            u = (v * np.exp(-1j * t * w / self.spec.hbar)) @ v.conj().T
            u.flags.writeable = False
            kept = self._last[m, stats] = (t, u)
        return kept[1]


def evolve_group(f: ManyBodyOperator, t: float, cache: EvolutionCache) -> ManyBodyOperator:
    """Unitary conjugation f -> U f U^dagger with U = exp(-i t H_n / hbar)."""
    u = cache.propagator(f.n, t)
    return f.with_mat(u @ f.mat @ u.conj().T)


def evolve_blocks(
    f: ManyBodyOperator, blocks: list[tuple[int, ...]], t: float, cache: EvolutionCache
) -> ManyBodyOperator:
    """Conjugate by the tensor product of per-block propagators.

    ``blocks`` must partition 1..n (``place_product`` enforces it); each
    block of m labels evolves under its own H_m embedded at those labels.
    Disjoint supports commute, so block order is immaterial.
    """
    u = block_propagator(blocks, f.n, t, cache)
    return f.with_mat(u @ f.mat @ u.conj().T)


def block_propagator(
    blocks: list[tuple[int, ...]], n: int, t: float, cache: EvolutionCache
) -> np.ndarray:
    """Tensor product of the per-block propagators on an n-particle space."""
    factors = [(cache.propagator(len(block), t), tuple(sorted(block))) for block in blocks]
    return place_product(factors, n, cache.spec.d)


def block_hamiltonian(blocks: list[tuple[int, ...]], n: int, cache: EvolutionCache) -> np.ndarray:
    """Sum over blocks of the block Hamiltonians embedded at their labels."""
    h = np.zeros((cache.spec.d**n, cache.spec.d**n), dtype=np.complex128)
    for block in blocks:
        add_embedded(h, cache.hamiltonian(len(block)), tuple(sorted(block)), n, cache.spec.d)
    return h
