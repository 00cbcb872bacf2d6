"""Dense operator algebra on small tensor-product Hilbert spaces.

An n-particle operator is a d^n x d^n complex matrix.  Row and column
indices factor into n base-d digits with particle 1 as the most significant
digit (numpy C order).  Kernel-side permutations, (anti)symmetrization and
partial traces are index arithmetic on that digit decomposition.  Placing
factors on labels as a block product is one outer product plus one cached
axis permutation, with no d^n x d^n matrix products.  An embedding, one
factor tensored with identity legs, is added in place on the d^(n+k)
entries it reaches (``add_embedded``), so no identity is ever placed, and
its product with a d^n x c matrix is one contraction on the matrix's row
legs (``apply_embedded``), so no embedding need be formed.

The statistics group average S_n is represented here only, as the
occupation-number isometry V_n with S_n = V_n V_n^dagger
(``symmetric_isometry``, rank r).  ``group_average`` applies it as
V (V^dagger M) and ``group_compress`` as V (V^dagger M V) V^dagger, products
with r rows or columns in place of the d^{3n} dense product with S_n.
``rank_compress`` and ``rank_lift`` are the two halves of the latter, for
callers that work on the r x r matrix V^dagger M V in between;
``traced_lift`` is a lift followed by a partial trace, which never forms
the d^n x d^n lift, and ``range_compress`` is the dynamics' one domain
rule: the statistics' two-sided group average fixes the component.
``symmetrizer_matrix`` builds S_n itself, used only for the traceless shift
of the state sampler and read by the benchmark's cache counters.  The
two-sided twirl of BOLTZMANN, ``permutation_average``, is a coset product
of n(n-1)/2 transpositions, and every Fermi sign is one rule, the inversion
count of ``inversion_parity`` (``Permutation.parity``, ``symmetric_isometry``).

The placement, the twirl, the group averages, the sampler's symmetrizing
step ``symmetric_state`` and ``trace_norm`` also take ``[..., side, side]``
stacks of independent matrices, and each slice of the result is exactly
(bit for bit) the result on that slice alone, so a caller with many seeded
draws runs each step once on their stack.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import CorrdynError, DomainError, ResourceCapError

#: Largest particle number with a group average.  Past it the operators it
#: acts on have at least 2^20 entries (d^n x d^n at d=2), beyond the
#: d^n <= 256 regime the dense engine serves.
SYMMETRIZER_MAX_PARTICLES = 9

#: Largest relative defect max|M - M^dagger| / max(1, max|M|) accepted as Hermitian.
HERMITICITY_TOL = 1e-12


class Statistics(enum.Enum):
    """Exchange statistics of the particles.

    BOLTZMANN is the unsymmetrized baseline: its symmetrizer is the
    identity map, which reproduces Maxwell-Boltzmann cross-checks.
    """

    BOSE = "bose"
    FERMI = "fermi"
    BOLTZMANN = "boltzmann"

    def permutation_sign(self, parity: int) -> float:
        if self is Statistics.FERMI:
            return -1.0 if parity % 2 else 1.0
        return 1.0

    def __str__(self) -> str:  # serialization token
        return self.value


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the image tuple (pi(1), ..., pi(n))."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise DomainError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @staticmethod
    @lru_cache(maxsize=None)
    def transposition(n: int, i: int, j: int) -> "Permutation":
        """The swap of i and j, built once per (n, i, j) for the twirl's gathers."""
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    @property
    def parity(self) -> int:
        """0 for even, 1 for odd: ``inversion_parity`` of the image tuple."""
        return int(inversion_parity(np.array([self.images]))[0])

    def compose(self, other: "Permutation") -> "Permutation":
        """(self o other)(i) = self(other(i))."""
        if self.n != other.n:
            raise DomainError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[other.images[i] - 1] for i in range(self.n)))


def all_permutations(n: int) -> Iterable[Permutation]:
    import itertools

    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


@dataclass(frozen=True)
class ManyBodyOperator:
    """A dense operator on n particles with single-particle dimension d.

    ``mat`` is a d^n x d^n complex matrix; n = 0 means a 1x1 scalar.  The
    instance is immutable: the matrix buffer is frozen at construction.
    """

    n: int
    d: int
    mat: np.ndarray
    stats: Statistics = Statistics.BOLTZMANN

    def __post_init__(self):
        if self.n < 0 or self.d < 2:
            raise DomainError(f"need n >= 0 and d >= 2, got n={self.n}, d={self.d}")
        m = np.asarray(self.mat, dtype=np.complex128)
        side = self.d**self.n
        if m.shape != (side, side):
            raise DomainError(f"matrix shape {m.shape} != ({side}, {side}) for n={self.n}, d={self.d}")
        m = require_finite(m).copy()
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @classmethod
    def zero(cls, n: int, d: int, stats: Statistics = Statistics.BOLTZMANN) -> "ManyBodyOperator":
        return cls(n, d, np.zeros((d**n, d**n), dtype=np.complex128), stats)

    @classmethod
    def identity(cls, n: int, d: int, stats: Statistics = Statistics.BOLTZMANN) -> "ManyBodyOperator":
        return cls(n, d, np.eye(d**n, dtype=np.complex128), stats)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return hermiticity_defect(self.mat) <= tol

    def with_mat(self, mat: np.ndarray) -> "ManyBodyOperator":
        return ManyBodyOperator(self.n, self.d, mat, self.stats)

    def __add__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._check_compatible(other)
        return self.with_mat(self.mat + other.mat)

    def __sub__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._check_compatible(other)
        return self.with_mat(self.mat - other.mat)

    def __rmul__(self, scalar: complex) -> "ManyBodyOperator":
        return self.with_mat(scalar * self.mat)

    def __matmul__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._check_compatible(other)
        return self.with_mat(self.mat @ other.mat)

    def _check_compatible(self, other: "ManyBodyOperator"):
        if (self.n, self.d) != (other.n, other.d):
            raise DomainError(
                f"operator mismatch: (n={self.n}, d={self.d}) vs (n={other.n}, d={other.d})"
            )


@dataclass(frozen=True)
class OperatorSequence:
    """Truncated sequence (f0, f1, ..., f_{n_max}) of n-particle operators."""

    d: int
    stats: Statistics
    n_max: int
    f0: complex = 0j
    components: Mapping[int, ManyBodyOperator] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        comps = dict(self.components)
        for n in range(1, self.n_max + 1):
            op = comps.get(n)
            if op is None:
                comps[n] = ManyBodyOperator.zero(n, self.d, self.stats)
                continue
            if op.n != n or op.d != self.d or op.stats != self.stats:
                raise DomainError(f"component {n} has inconsistent metadata")
        extra = set(comps) - set(range(1, self.n_max + 1))
        if extra:
            raise DomainError(f"components beyond truncation: {sorted(extra)}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "f0", complex(self.f0))

    def component(self, n: int) -> ManyBodyOperator:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"component {n} outside 1..{self.n_max}")
        return self.components[n]


# --------------------------------------------------------------------------
# index arithmetic
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _row_permutation_map(images: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """Index map r -> r' realizing kernel row substitution q_i -> q_{pi(i)}:
    the digit axes of the composite indices permuted by pi^-1."""
    out = np.arange(d**n).reshape((d,) * n).transpose(np.argsort(images)).ravel()
    out.flags.writeable = False
    return out


def inversion_parity(rows: np.ndarray) -> np.ndarray:
    """1 where a row of an integer array has an odd number of inversions
    (i < j, row[i] > row[j]): the one Fermi sign rule, for images and digits."""
    return np.triu(rows[:, :, None] > rows[:, None, :], 1).sum(axis=(1, 2)) % 2


@lru_cache(maxsize=None)
def _placement(label_tuples: tuple[tuple[int, ...], ...], n: int, d: int) -> tuple[tuple[int, ...], tuple]:
    """How ``place_product`` lays out its factors: the axis order taking
    the outer product of the factors (row digits, then column digits,
    factor after factor) to the row digits and then the column digits of
    particles 1..n, and per factor the shape of its legs in that product,
    (d,) on its own legs and 1 on the others', so that the factors
    broadcast to the outer product."""
    if sorted(l for labels in label_tuples for l in labels) != list(range(1, n + 1)):
        raise DomainError(f"factor labels {label_tuples} do not partition 1..{n}")
    rows, cols, shapes, offset = {}, {}, [], 0
    for labels in label_tuples:
        for j, l in enumerate(labels):
            rows[l], cols[l] = offset + j, offset + len(labels) + j
        legs = 2 * len(labels)
        shapes.append((1,) * offset + (d,) * legs + (1,) * (2 * n - offset - legs))
        offset += legs
    return tuple(rows[l] for l in range(1, n + 1)) + tuple(cols[l] for l in range(1, n + 1)), tuple(shapes)


def place_product(factors: list[tuple[np.ndarray, tuple[int, ...]]], n: int, d: int) -> np.ndarray:
    """Tensor product of ``(matrix, labels)`` factors on an n-particle space.

    The label tuples are disjoint and cover 1..n; the j-th factor of a
    matrix acts on its j-th label, so labels need not be sorted.  A factor
    may be a ``[..., side, side]`` stack: leading axes broadcast, and each
    slice of the result is the product of the factors' slices.
    """
    axes, shapes = _placement(tuple(tuple(labels) for _, labels in factors), n, d)
    out = None
    for (a, _), legs in zip(factors, shapes):
        m = np.asarray(a, dtype=np.complex128)
        m = m.reshape(legs if m.ndim == 2 else m.shape[:-2] + legs)
        out = m if out is None else out * m
    stack = out.ndim - 2 * n
    if stack:
        axes = (*range(stack), *(stack + a for a in axes))
    return np.array(out.transpose(axes), order="C").reshape(out.shape[:stack] + (d**n, d**n))


@lru_cache(maxsize=None)
def _embedding_subscripts(positions: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``np.einsum`` sublists taking the (d,)*2n legs of an n-particle
    matrix to its entries that an embedding at ``positions`` can reach: the
    row legs of the other particles, each tied to its column leg, then the
    row and the column legs of ``positions`` in their order."""
    _require_positions(positions, n)
    cols = [n + p - 1 if p in positions else p - 1 for p in range(1, n + 1)]
    rest = [p - 1 for p in range(1, n + 1) if p not in positions]
    kept = [p - 1 for p in positions] + [n + p - 1 for p in positions]
    return (*range(n), *cols), (*rest, *kept)


def add_embedded(out: np.ndarray, a: np.ndarray, positions: tuple[int, ...], n: int, d: int) -> None:
    """Add ``a`` tensored with the identity on the other particles, its
    factors acting at ``positions``, to the C-ordered d^n x d^n ``out`` in
    place.  Only the d^(n+k) entries the embedding reaches are written,
    through the writable ``np.einsum`` diagonal view of out's legs; the
    identity's zeros are never added."""
    if not out.flags.c_contiguous:
        raise DomainError("an embedding adds into a C-ordered matrix only")
    legs, reached = _embedding_subscripts(tuple(positions), n)
    view = np.einsum(out.reshape((d,) * (2 * n)), legs, reached)
    view += np.asarray(a).reshape((d,) * (2 * len(positions)))


def apply_embedded(a: np.ndarray, positions: tuple[int, ...], v: np.ndarray, n: int, d: int) -> np.ndarray:
    """``embed_matrix(a, positions, n, d) @ v`` for a d^n x c matrix ``v``,
    without forming the embedding: v's rows are viewed as n legs of d, the
    legs at ``positions`` moved to the front and contracted with ``a`` in
    one matmul, then moved back.  At the leading positions 1..k it is
    ``a @ v.reshape(d^k, -1)`` reshaped back to v's shape."""
    order, inverse = _leg_order(tuple(positions), n)
    legs = np.asarray(v).reshape((d,) * n + (-1,)).transpose(order)
    out = (np.asarray(a) @ legs.reshape(d ** len(positions), -1)).reshape(legs.shape)
    return out.transpose(inverse).reshape(v.shape)


@lru_cache(maxsize=None)
def _leg_order(positions: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis order that moves the row legs at ``positions`` of a
    (d,)*n + (c,) view to the front, the other axes kept in order, and its
    inverse."""
    _require_positions(positions, n)
    order = (*(p - 1 for p in positions), *(i for i in range(n + 1) if i + 1 not in positions))
    return order, tuple(int(i) for i in np.argsort(order))


def _require_positions(positions: tuple[int, ...], n: int) -> None:
    if len(set(positions)) != len(positions) or not set(positions) <= set(range(1, n + 1)):
        raise DomainError(f"positions {positions} are not distinct labels of 1..{n}")


def embed_matrix(a: np.ndarray, positions: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """Embed matrix ``a`` so its factors act at ``positions`` (identity elsewhere)."""
    out = np.zeros((d**n, d**n), dtype=np.complex128)
    add_embedded(out, a, positions, n, d)
    return out


def partial_trace_matrix(mat: np.ndarray, s: int, n: int, d: int) -> np.ndarray:
    """Trace out particles s+1..n, keeping the first s."""
    if s == n:
        return np.asarray(mat, dtype=np.complex128)
    ds, dm = d**s, d ** (n - s)
    return np.einsum("ajbj->ab", np.asarray(mat, dtype=np.complex128).reshape(ds, dm, ds, dm))


@lru_cache(maxsize=None)
def symmetric_isometry(stats: Statistics, n: int, d: int) -> np.ndarray | None:
    """Isometry V onto the (anti)symmetric n-particle subspace, S = V V^dagger.

    One column per occupation pattern (a sorted digit tuple, in increasing
    order): the normalized sum of the basis states that carry the pattern's
    digits, each signed for FERMI by the parity of sorting its digits.  A
    FERMI pattern with a repeated digit has no column, so the rank is
    C(n+d-1, n) for BOSE and C(d, n) for FERMI, zero for n > d.  Entries
    are real, so V^dagger = V.T.  None for BOLTZMANN and for n <= 1, where
    the group average is the identity.
    """
    if stats is Statistics.BOLTZMANN or n <= 1:
        return None
    if n > SYMMETRIZER_MAX_PARTICLES:
        raise ResourceCapError(f"group average over {n} particles exceeds the particle cap")
    side = d**n
    powers = d ** np.arange(n - 1, -1, -1)
    digits = np.arange(side)[:, None] // powers % d
    keys = np.sort(digits, axis=1) @ powers
    counts = np.stack([(digits == k).sum(axis=1) for k in range(d)], axis=1)
    factorials = np.array([math.factorial(m) for m in range(n + 1)], dtype=float)
    # distinct arrangements of each pattern: n! / prod_k m_k!
    value = 1.0 / np.sqrt(math.factorial(n) / factorials[counts].prod(axis=1))
    rows = np.arange(side)
    if stats is Statistics.FERMI:
        value = np.where(inversion_parity(digits), -value, value)
        rows = rows[(counts <= 1).all(axis=1)]
    columns, col = np.unique(keys[rows], return_inverse=True)
    out = np.zeros((side, len(columns)), dtype=np.complex128)
    out[rows, col] = value[rows]
    out.flags.writeable = False
    return out


def group_rank(stats: Statistics, n: int, d: int) -> int:
    """Rank of the n-particle group average, the column count of
    ``symmetric_isometry``: C(n+d-1, n) for BOSE, C(d, n) for FERMI and
    d^n for BOLTZMANN (no matrix is built)."""
    if stats is Statistics.BOSE:
        return math.comb(n + d - 1, n)
    if stats is Statistics.FERMI:
        return math.comb(d, n)
    return d**n


def group_average(stats: Statistics, mat: np.ndarray, n: int, d: int) -> np.ndarray:
    """Ket-side group average S M = V (V^dagger M) of an n-particle matrix
    or of each slice of a ``[..., side, side]`` stack.

    ``mat`` itself for BOLTZMANN and n <= 1; zero for a FERMI order n > d.
    """
    v = symmetric_isometry(stats, n, d)
    return mat if v is None else v @ (v.T @ mat)


def group_compress(stats: Statistics, mat: np.ndarray, n: int, d: int) -> np.ndarray:
    """Two-sided group average S M S = V (V^dagger M V) V^dagger, slice by
    slice of a ``[..., side, side]`` stack.

    ``mat`` itself for BOLTZMANN and n <= 1; zero for a FERMI order n > d.
    """
    return rank_lift(stats, rank_compress(stats, mat, n, d), n, d)


def rank_compress(stats: Statistics, mat: np.ndarray, n: int, d: int) -> np.ndarray:
    """V^dagger M V, the r x r matrix of the two-sided group average S M S
    in the rank space of ``symmetric_isometry``; ``mat`` itself for
    BOLTZMANN and n <= 1, and 0 x 0 for a FERMI order n > d."""
    v = symmetric_isometry(stats, n, d)
    return mat if v is None else v.T @ mat @ v


def rank_lift(stats: Statistics, mat: np.ndarray, n: int, d: int) -> np.ndarray:
    """V K V^dagger, the d^n x d^n matrix of a rank-space matrix K (the
    inverse of ``rank_compress`` on two-sided averages); ``mat`` itself for
    BOLTZMANN and n <= 1."""
    v = symmetric_isometry(stats, n, d)
    return mat if v is None else v @ mat @ v.T


def traced_lift(stats: Statistics, mat: np.ndarray, s: int, n: int, d: int) -> np.ndarray:
    """Tr_{s+1..n} V K V^dagger, the partial trace keeping the first s of n
    particles of the lift of a rank-space matrix K, without forming the
    d^n x d^n lift: with V's rows split into the kept and the traced legs,
    it is (V K).reshape(d^s, -1) @ V.reshape(d^s, -1)^T (V is real).
    ``partial_trace_matrix`` of ``mat`` itself for BOLTZMANN and n <= 1."""
    v = symmetric_isometry(stats, n, d)
    if v is None:
        return partial_trace_matrix(mat, s, n, d)
    cols = d ** (n - s) * v.shape[1]
    return (v @ mat).reshape(d**s, cols) @ v.reshape(d**s, cols).T


def range_compress(op: ManyBodyOperator, what: str) -> np.ndarray:
    """Rank-space image of a component M that the statistics' two-sided
    group average fixes, the one domain rule of the dynamics.

    For BOSE and FERMI the rule is S M S = M with S = V V^dagger (so S M = M,
    and M = 0 for a FERMI order above d), and the image is V^dagger M V.
    The BOLTZMANN twirl fixes M exactly when M is invariant under
    conjugation by the n-1 adjacent transpositions P, which generate the
    group, and the image is M.  Raises DomainError, naming the ``what``
    component's order and the defect, when max |M - S M S| (the largest
    max |M - P M P^T|) exceeds ``HERMITICITY_TOL`` max(1, max |M|)."""
    mat, n, d = op.mat, op.n, op.d
    v = symmetric_isometry(op.stats, n, d)
    if v is not None:
        out, image = v.T @ mat @ v, "S M S"
        fixed = [v @ out @ v.T]
    else:
        out, image = mat, "P M P^T"
        fixed = (permutation_conjugate(Permutation.transposition(n, j, j + 1), mat, d) for j in range(1, n))
    scale = max(1.0, float(np.abs(mat).max()))
    defect = max((float(np.abs(mat - x).max()) for x in fixed), default=0.0) / scale
    if defect > HERMITICITY_TOL:
        raise DomainError(
            f"{op.stats} {what} component {n} is not fixed by the two-sided group average: "
            f"max relative deviation |M - {image}| = {defect:.3e}"
        )
    return out


@lru_cache(maxsize=None)
def symmetrizer_matrix(stats: Statistics, n: int, d: int) -> np.ndarray:
    """Group-average projection (1/n!) sum_pi sign(pi) P_pi on the ket side.

    The orthogonal projection onto the (anti)symmetric subspace, built as
    V V^dagger from ``symmetric_isometry``; the identity for BOLTZMANN.
    Only the traceless shift of ``random_state_component`` needs S itself
    as a matrix; ``corrbench`` counts this cache's hits and misses.
    """
    v = symmetric_isometry(stats, n, d)
    out = np.eye(d**n, dtype=np.complex128) if v is None else v @ v.T
    out.flags.writeable = False
    return out


def permutation_conjugate(p: Permutation, mat: np.ndarray, d: int) -> np.ndarray:
    """Two-sided conjugation P_pi M P_pi^dagger in index form:
    out[r, c] = M[r_pi, c_pi] with r -> r_pi the kernel row substitution,
    slice by slice of a ``[..., side, side]`` stack."""
    rows = _row_permutation_map(p.images, p.n, d)
    return np.asarray(mat)[..., rows[:, None], rows]


def permutation_average(mat: np.ndarray, n: int, d: int) -> np.ndarray:
    """(1/n!) sum_pi P_pi M P_pi^dagger over all factor permutations as the
    coset product A_n o ... o A_2, A_m(X) = (1/m) sum_{j<=m} t_jm X t_jm with
    t_jm the swap of factors j and m (t_mm = 1), since each pi of S_m is one
    t_jm times one sigma fixing m; ``mat`` itself for n <= 1.  Takes a
    ``[..., side, side]`` stack."""
    for m in range(2, n + 1):
        swaps = (permutation_conjugate(Permutation.transposition(n, j, m), mat, d) for j in range(1, m))
        mat = (mat + sum(swaps)) / m
    return mat


def require_finite(mat: np.ndarray) -> np.ndarray:
    """``mat`` itself, or DomainError when an entry is not finite: the one
    finiteness rule, for operators and for the transform pair's stacks."""
    if not np.isfinite(mat).all():
        raise DomainError("operator entries must be finite")
    return mat


def hermiticity_defect(mat: np.ndarray) -> float:
    """max |M - M^dagger| relative to max(1, max |M|)."""
    mat = np.asarray(mat)
    return float(np.abs(mat - mat.conj().T).max()) / max(1.0, float(np.abs(mat).max()))


def require_hermitian(name: str, mat: np.ndarray, error: type[CorrdynError]) -> None:
    """Raise ``error`` when ``mat`` (called ``name`` in the message) has a
    ``hermiticity_defect`` above ``HERMITICITY_TOL``."""
    defect = hermiticity_defect(mat)
    if defect > HERMITICITY_TOL:
        raise error(f"{name} is not Hermitian: max relative deviation |M - M^dagger| = {defect:.3e}")


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def embed_operator(a: ManyBodyOperator, labels: Iterable[int], ground: Iterable[int]) -> ManyBodyOperator:
    """Tensor ``a`` with identities so it acts on ``labels`` inside ``ground``.

    ``ground`` is the ordered label list of the target space; the j-th factor
    of ``a`` is placed at the position of the j-th entry of ``labels``.
    Tr(result) = Tr(a) * d^(len(ground) - len(labels)).
    """
    ground_t = tuple(ground)
    labels_t = tuple(labels)
    positions = []
    for l in labels_t:
        if l not in ground_t:
            raise DomainError(f"label {l} not in ground set {ground_t}")
        positions.append(ground_t.index(l) + 1)
    if len(set(labels_t)) != len(labels_t):
        raise DomainError("labels must be distinct")
    if a.n != len(labels_t):
        raise DomainError(f"operator has {a.n} factors but {len(labels_t)} labels given")
    n = len(ground_t)
    return ManyBodyOperator(n, a.d, embed_matrix(a.mat, tuple(positions), n, a.d), a.stats)


def partial_trace(f: ManyBodyOperator, keep: int) -> ManyBodyOperator:
    """Partial trace over particles keep+1..n; preserves the total trace."""
    if not 0 <= keep <= f.n:
        raise DomainError(f"cannot keep {keep} of {f.n} particles")
    out = partial_trace_matrix(f.mat, keep, f.n, f.d)
    return ManyBodyOperator(keep, f.d, out, f.stats)


def permute_ket(p: Permutation, f: ManyBodyOperator) -> ManyBodyOperator:
    """Substitute row (ket-side) kernel arguments: out[q; q'] = f[q_pi; q'].

    Columns are untouched.  Satisfies permute_ket(pi, permute_ket(sigma, f))
    = permute_ket(pi o sigma, f).
    """
    if p.n != f.n:
        raise DomainError(f"permutation on {p.n} labels, operator has {f.n}")
    return f.with_mat(f.mat[_row_permutation_map(p.images, f.n, f.d), :])


def symmetrize(stats: Statistics, f: ManyBodyOperator) -> ManyBodyOperator:
    """Apply the ket-side group average for the given statistics; idempotent."""
    return f.with_mat(group_average(stats, f.mat, f.n, f.d))


def trace_norm(f: ManyBodyOperator | np.ndarray) -> float | np.ndarray:
    """Sum of singular values; for a ``[..., side, side]`` stack, an array
    of one norm per slice from one SVD call.  A 1 x 1 matrix is |z|."""
    mat = f.mat if isinstance(f, ManyBodyOperator) else np.asarray(f)
    if mat.shape[-2:] == (1, 1):
        norms = np.abs(mat[..., 0, 0])
    else:
        norms = np.linalg.svd(mat, compute_uv=False).sum(axis=-1)
    return float(norms) if mat.ndim == 2 else norms


def sequence_trace_norm(seq: OperatorSequence) -> float:
    """|f0| + sum_n ||f_n||_1."""
    return abs(seq.f0) + sum(trace_norm(op) for op in seq.components.values())


# --------------------------------------------------------------------------
# random state components (seeded test and scenario data)
# --------------------------------------------------------------------------

def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_state_component(
    rng: np.random.Generator,
    n: int,
    d: int,
    stats: Statistics,
    traceless: bool = False,
    positive: bool = False,
) -> ManyBodyOperator:
    """Random Hermitian component with the full exchange symmetry of a state:
    one ``random_hermitian`` draw made symmetric by ``symmetric_state``."""
    raw = random_hermitian(rng, d**n)
    return ManyBodyOperator(n, d, symmetric_state(raw, n, d, stats, traceless, positive), stats)


def symmetric_state(
    raw: np.ndarray, n: int, d: int, stats: Statistics, traceless: bool = False, positive: bool = False
) -> np.ndarray:
    """The symmetrizing step of ``random_state_component``, slice by slice
    of a ``[..., side, side]`` stack of Hermitian draws.

    The raw matrix is compressed two-sidedly with the statistics projection
    (for BOLTZMANN: averaged over two-sided permutation conjugations), which
    yields both the kernel sign rule and permutation-conjugation invariance.
    With ``positive`` the result is M^dagger M based and positive
    semidefinite with unit trace; ``traceless`` removes the trace inside the
    symmetric subspace.
    """
    if positive:
        raw = raw @ raw.conj().swapaxes(-1, -2)
    if stats is Statistics.BOLTZMANN:
        out = permutation_average(raw, n, d)
    else:
        out = group_compress(stats, raw, n, d)
    if positive:
        tr = np.trace(out, axis1=-2, axis2=-1).real[..., None, None]
        if (abs(tr) < 1e-14).any():
            raise DomainError(f"positive component vanished (stats={stats}, n={n}, d={d})")
        out = out / tr
    if traceless:
        rank = group_rank(stats, n, d)
        if rank > 0:
            shift = np.trace(out, axis1=-2, axis2=-1)[..., None, None] / rank
            out = out - shift * symmetrizer_matrix(stats, n, d)
    return out


def random_sequence(
    rng: np.random.Generator,
    d: int,
    stats: Statistics,
    n_max: int,
    traceless: bool = False,
    positive: bool = False,
    f0: complex = 0j,
) -> OperatorSequence:
    comps = {
        n: random_state_component(rng, n, d, stats, traceless=traceless, positive=positive)
        for n in range(1, n_max + 1)
    }
    return OperatorSequence(d=d, stats=stats, n_max=n_max, f0=f0, components=comps)


# --------------------------------------------------------------------------
# serialization: text format, round-trip exact for doubles
# --------------------------------------------------------------------------

def _format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def write_operator(op: ManyBodyOperator, fh: IO[str]) -> None:
    """Write as a header line ``op n d stats`` plus d^n rows of entries."""
    fh.write(f"op {op.n} {op.d} {op.stats}\n")
    for row in np.atleast_2d(op.mat):
        fh.write(" ".join(_format_complex(z) for z in row) + "\n")


def read_operator(fh: IO[str]) -> ManyBodyOperator:
    n, d, stats = _read_header(fh, "op", "operator")
    side = d**n
    rows = []
    for _ in range(side):
        line = _next_content_line(fh)
        entries = [_parse_complex(tok) for tok in line.split()]
        if len(entries) != side:
            raise DomainError(f"expected {side} entries per row, got {len(entries)}")
        rows.append(entries)
    return ManyBodyOperator(n, d, np.array(rows, dtype=np.complex128), stats)


def write_sequence(seq: OperatorSequence, fh: IO[str]) -> None:
    fh.write(f"seq {seq.n_max} {seq.d} {seq.stats}\n")
    fh.write(f"f0 {_format_complex(seq.f0)}\n")
    for n in range(1, seq.n_max + 1):
        write_operator(seq.components[n], fh)


def read_sequence(fh: IO[str]) -> OperatorSequence:
    n_max, d, stats = _read_header(fh, "seq", "sequence")
    f0_line = _next_content_line(fh).split()
    if len(f0_line) != 2 or f0_line[0] != "f0":
        raise DomainError("sequence is missing its scalar component line")
    f0 = _parse_complex(f0_line[1])
    comps = {}
    for n in range(1, n_max + 1):
        op = read_operator(fh)
        if op.n != n:
            raise DomainError(f"component out of order: expected n={n}, got {op.n}")
        comps[n] = op
    return OperatorSequence(d=d, stats=stats, n_max=n_max, f0=f0, components=comps)


def _read_header(fh: IO[str], tag: str, what: str) -> tuple[int, int, Statistics]:
    """Parse a ``<tag> <count> <d> <stats>`` header line."""
    header = _next_content_line(fh)
    parts = header.split()
    try:
        if len(parts) == 4 and parts[0] == tag and int(parts[1]) >= 0:
            return int(parts[1]), int(parts[2]), Statistics(parts[3])
    except ValueError as exc:
        raise DomainError(f"bad {what} header: {header!r}") from exc
    raise DomainError(f"bad {what} header: {header!r}")


def _parse_complex(tok: str) -> complex:
    try:
        return complex(tok)
    except ValueError as exc:
        raise DomainError(f"bad complex entry {tok!r}") from exc


def _next_content_line(fh: IO[str]) -> str:
    for line in fh:
        stripped = line.strip()
        if stripped:
            return stripped
    raise DomainError("unexpected end of stream")
