import functools
import io
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrdyn import hilbert
from corrdyn.errors import DomainError, ResourceCapError
from corrdyn.hilbert import (
    SYMMETRIZER_MAX_PARTICLES,
    ManyBodyOperator,
    OperatorSequence,
    Permutation,
    Statistics,
    add_embedded,
    all_permutations,
    apply_embedded,
    embed_matrix,
    embed_operator,
    group_average,
    group_compress,
    partial_trace,
    partial_trace_matrix,
    permutation_average,
    permutation_conjugate,
    permute_ket,
    place_product,
    random_hermitian,
    random_state_component,
    range_compress,
    rank_lift,
    read_operator,
    read_sequence,
    sequence_trace_norm,
    symmetric_isometry,
    symmetrize,
    symmetrizer_matrix,
    times_kron,
    trace_norm,
    traced_lift,
    write_operator,
    write_sequence,
)
from corrdyn.oracles import (
    loop_embed,
    loop_group_average,
    loop_partial_trace,
    loop_permute_rows,
    spectral_trace_norm,
)

ALL_STATS = [Statistics.BOSE, Statistics.FERMI, Statistics.BOLTZMANN]


def rand_op(rng, n, d, stats=Statistics.BOLTZMANN):
    side = d**n
    mat = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return ManyBodyOperator(n, d, mat, stats)


# ---------------------------------------------------------------- permutations

def test_parity():
    assert Permutation.identity(4).parity == 0
    assert Permutation.transposition(3, 1, 3).parity == 1
    assert Permutation((2, 3, 1)).parity == 0  # 3-cycle is even


def test_parity_is_a_homomorphism_to_z2():
    perms = list(all_permutations(4))
    for p, q in itertools.product(perms, perms):
        assert p.compose(q).parity == p.parity ^ q.parity


def test_permutation_validation():
    with pytest.raises(DomainError):
        Permutation((1, 1, 2))


def test_compose_convention():
    pi = Permutation((2, 3, 1))
    sigma = Permutation((1, 3, 2))
    composed = pi.compose(sigma)
    assert composed.images == tuple(pi.images[sigma.images[i] - 1] for i in range(3))


def test_permute_ket_identity():
    rng = np.random.default_rng(0)
    f = rand_op(rng, 3, 2)
    out = permute_ket(Permutation.identity(3), f)
    assert np.array_equal(out.mat, f.mat)


def test_permute_ket_swap_matches_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = ManyBodyOperator(2, 2, np.kron(a, b))
    swapped = permute_ket(Permutation((2, 1)), f)
    expected = loop_permute_rows(f.mat, (2, 1), 2, 2)
    assert np.allclose(swapped.mat, expected, atol=1e-15)


def test_transposition_is_involution():
    rng = np.random.default_rng(2)
    f = rand_op(rng, 3, 2)
    tau = Permutation.transposition(3, 1, 2)
    assert np.allclose(permute_ket(tau, permute_ket(tau, f)).mat, f.mat)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_permute_ket_composition_law(seed):
    rng = np.random.default_rng(seed)
    f = rand_op(rng, 3, 2)
    perms = list(all_permutations(3))
    pi = perms[rng.integers(len(perms))]
    sigma = perms[rng.integers(len(perms))]
    lhs = permute_ket(pi, permute_ket(sigma, f))
    rhs = permute_ket(pi.compose(sigma), f)
    assert np.allclose(lhs.mat, rhs.mat, atol=1e-14)


# ---------------------------------------------------------------- embed / trace

def test_embed_full_support_is_identity_map():
    rng = np.random.default_rng(3)
    a = rand_op(rng, 2, 2)
    out = embed_operator(a, (1, 2), (1, 2))
    assert np.allclose(out.mat, a.mat)


def test_embed_identity_stays_identity():
    a = ManyBodyOperator.identity(1, 2)
    out = embed_operator(a, (2,), (1, 2, 3))
    assert np.allclose(out.mat, np.eye(8))


def test_embed_matches_loop_oracle():
    a = ManyBodyOperator(1, 2, np.diag([1.0, -1.0]))
    out = embed_operator(a, (2,), (1, 2))
    expected = loop_embed(np.diag([1.0, -1.0]).astype(complex), (2,), (1, 2), 2)
    assert np.allclose(out.mat, expected)
    # second factor slot: diag(1,-1,1,-1) in the standard product basis
    assert np.allclose(out.mat, np.diag([1.0, -1.0, 1.0, -1.0]))


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_embed_trace_scaling(seed):
    rng = np.random.default_rng(seed)
    a = rand_op(rng, 2, 2)
    out = embed_operator(a, (1, 3), (1, 2, 3))
    assert np.isclose(out.trace(), a.trace() * 2)


def test_embed_label_errors():
    a = ManyBodyOperator.identity(1, 2)
    with pytest.raises(DomainError):
        embed_operator(a, (4,), (1, 2, 3))
    with pytest.raises(DomainError):
        embed_operator(a, (1, 2), (1, 2, 3))  # operator has 1 factor, 2 labels


@pytest.mark.parametrize(
    "d, n, label_tuples",
    [
        (2, 5, [(4, 1, 5), (3,), (2,)]),  # shuffled, non-contiguous, unsorted inside a factor
        (3, 3, [(3, 1), (2,)]),
        (3, 4, [(4, 2), (3, 1)]),
    ],
)
def test_place_product_matches_loop_embed_products(d, n, label_tuples):
    rng = np.random.default_rng(11)
    ground = tuple(range(1, n + 1))
    factors = [(random_hermitian(rng, d ** len(labels)), labels) for labels in label_tuples]
    expected = np.eye(d**n, dtype=complex)
    for a, labels in factors:
        expected = expected @ loop_embed(a, labels, ground, d)
    assert np.allclose(place_product(factors, n, d), expected, atol=1e-13)
    with pytest.raises(DomainError, match="partition"):
        place_product(factors[:-1], n, d)


def placed_embed(a, positions, n, d):
    # the placement construction: a on ``positions`` times the identity on the rest
    rest = tuple(p for p in range(1, n + 1) if p not in positions)
    return place_product([(a, tuple(positions)), (np.eye(d ** len(rest)), rest)], n, d)


@pytest.mark.parametrize("d, n", [(d, n) for d in (2, 3, 4) for n in (1, 2, 3, 4)])
def test_embedding_equals_placed_identity_product(d, n):
    # every ordered position tuple, non-adjacent ones and k = n included: the
    # diagonal view writes exactly what the placement wrote, bit for bit, alone
    # and accumulated into one matrix
    rng = np.random.default_rng(12)
    out = np.zeros((d**n, d**n), dtype=np.complex128)
    expected = np.zeros_like(out)
    for k in range(1, n + 1):
        for positions in itertools.permutations(range(1, n + 1), k):
            a = rng.normal(size=(d**k, d**k)) + 1j * rng.normal(size=(d**k, d**k))
            placed = placed_embed(a, positions, n, d)
            assert np.array_equal(embed_matrix(a, positions, n, d), placed)
            add_embedded(out, a, positions, n, d)
            expected += placed
    assert np.array_equal(out, expected)


def test_add_embedded_rejects_bad_positions_and_layout():
    out = np.zeros((8, 8), dtype=np.complex128)
    with pytest.raises(DomainError):
        add_embedded(out, np.eye(4), (1, 1), 3, 2)
    with pytest.raises(DomainError):
        add_embedded(out, np.eye(2), (4,), 3, 2)
    with pytest.raises(DomainError):
        add_embedded(out.T, np.eye(2), (1,), 3, 2)


@pytest.mark.parametrize("n, d", [(1, 2), (3, 2), (4, 3), (2, 4)])
def test_apply_embedded_matches_embedded_product(n, d):
    # the leg contraction is the product with the embedding, for every
    # ordered choice of distinct positions, on several columns and on none
    rng = np.random.default_rng(41)
    for k in range(1, min(n, 3) + 1):
        for positions in itertools.permutations(range(1, n + 1), k):
            a = rng.normal(size=(d**k, d**k)) + 1j * rng.normal(size=(d**k, d**k))
            for cols in (5, 1, 0):
                v = rng.normal(size=(d**n, cols)) + 1j * rng.normal(size=(d**n, cols))
                expected = embed_matrix(a, positions, n, d) @ v
                got = apply_embedded(a, positions, v, n, d)
                assert got.shape == v.shape
                assert np.abs(got - expected).max(initial=0.0) <= 1e-13 * np.abs(expected).max(initial=1.0)


def test_apply_embedded_rejects_bad_positions():
    v = np.ones((8, 2))
    with pytest.raises(DomainError):
        apply_embedded(np.eye(4), (2, 2), v, 3, 2)
    with pytest.raises(DomainError):
        apply_embedded(np.eye(2), (0,), v, 3, 2)


def test_partial_trace_noop_and_factorized():
    rng = np.random.default_rng(4)
    f = rand_op(rng, 2, 2)
    assert np.array_equal(partial_trace(f, 2).mat, f.mat)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    product = ManyBodyOperator(2, 2, np.kron(a, b))
    reduced = partial_trace(product, 1)
    assert np.allclose(reduced.mat, a * np.trace(b), atol=1e-14)


def test_partial_trace_matches_loop_oracle_and_preserves_trace():
    rng = np.random.default_rng(5)
    f = rand_op(rng, 2, 2)
    reduced = partial_trace(f, 1)
    assert np.allclose(reduced.mat, loop_partial_trace(f.mat, 1, 2, 2), atol=1e-14)
    assert abs(reduced.trace() - f.trace()) < 1e-14


def test_partial_trace_bad_keep():
    f = ManyBodyOperator.identity(2, 2)
    with pytest.raises(DomainError):
        partial_trace(f, 3)


# ---------------------------------------------------------------- symmetrizer

def test_symmetrize_boltzmann_is_identity():
    rng = np.random.default_rng(6)
    f = rand_op(rng, 3, 2)
    assert np.array_equal(symmetrize(Statistics.BOLTZMANN, f).mat, f.mat)


@pytest.mark.parametrize("stats", ALL_STATS)
@pytest.mark.parametrize("n", [2, 3])
def test_symmetrize_idempotent(stats, n):
    rng = np.random.default_rng(7)
    f = rand_op(rng, n, 2, stats)
    once = symmetrize(stats, f)
    twice = symmetrize(stats, once)
    assert np.allclose(twice.mat, once.mat, atol=1e-14)


def test_fermi_two_body_expansion_oracle():
    a = np.diag([1.0, 2.0]).astype(complex)
    f = ManyBodyOperator(2, 2, np.kron(a, a), Statistics.FERMI)
    expected = 0.5 * (f.mat - loop_permute_rows(f.mat, (2, 1), 2, 2))
    assert np.allclose(symmetrize(Statistics.FERMI, f).mat, expected, atol=1e-15)


@pytest.mark.parametrize("stats", [Statistics.BOSE, Statistics.FERMI])
def test_symmetrized_operator_obeys_sign_rule(stats):
    rng = np.random.default_rng(8)
    f = symmetrize(stats, rand_op(rng, 3, 2, stats))
    for perm in all_permutations(3):
        sign = stats.permutation_sign(perm.parity)
        assert np.allclose(permute_ket(perm, f).mat, sign * f.mat, atol=1e-13)


@pytest.mark.parametrize("stats", ALL_STATS)
def test_state_component_two_sided_invariance(stats):
    rng = np.random.default_rng(9)
    f = random_state_component(rng, 3, 2, stats)
    from corrdyn.hilbert import _row_permutation_map

    for perm in all_permutations(3):
        rows = _row_permutation_map(perm.images, 3, 2)
        conj = f.mat[np.ix_(rows, rows)]
        assert np.allclose(conj, f.mat, atol=1e-13)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_permutation_conjugate_matches_dense_products(d, k):
    # index form against P M P^T with 0/1 matrices; both only move entries,
    # so they agree exactly
    raw = random_hermitian(np.random.default_rng(14), d**k)
    for perm in all_permutations(k):
        pmat = loop_permute_rows(np.eye(d**k), perm.images, k, d)
        assert np.array_equal(permutation_conjugate(perm, raw, d), pmat @ raw @ pmat.T)


def _leg_paired(mat, n, d):
    """Superket of an n-particle matrix with particle i's (ket, bra) legs
    as one d^2-mode digit, particle 1 most significant."""
    return mat.reshape((d,) * (2 * n)).transpose(np.arange(2 * n).reshape(2, n).T.ravel()).ravel()


def _leg_unpaired(ket, n, d):
    order = np.arange(2 * n).reshape(2, n).T.ravel()
    return ket.reshape((d,) * (2 * n)).transpose(np.argsort(order)).reshape(d**n, d**n)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
def test_permutation_average_is_the_bose_symmetrizer_on_leg_pairs(d, n):
    # conjugation by P_pi permutes the n (ket, bra) leg pairs, so the twirl
    # of M is the Bose group average on d^2 modes applied to M's superket
    raw = rand_op(np.random.default_rng(31 + n), n, d).mat  # complex, not Hermitian
    assert np.array_equal(_leg_unpaired(_leg_paired(raw, n, d), n, d), raw)
    expected = _leg_unpaired(loop_group_average(Statistics.BOSE, n, d * d) @ _leg_paired(raw, n, d), n, d)
    out = permutation_average(raw, n, d)
    assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("n", range(7))
def test_permutation_average_makes_one_conjugation_per_transposition(n, monkeypatch):
    calls = []

    def counting(p, mat, d):
        calls.append(p)
        return permutation_conjugate(p, mat, d)

    monkeypatch.setattr(hilbert, "permutation_conjugate", counting)
    permutation_average(random_hermitian(np.random.default_rng(n), 2**n), n, 2)
    assert len(calls) == n * (n - 1) // 2


def test_permutation_average_at_eight_particles_is_an_invariant_projection():
    n, d = 8, 2
    out = permutation_average(rand_op(np.random.default_rng(33), n, d).mat, n, d)
    scale = np.abs(out).max()
    for i in range(1, n):
        swapped = permutation_conjugate(Permutation.transposition(n, i, i + 1), out, d)
        assert np.abs(swapped - out).max() <= 1e-14 * scale
    assert np.abs(permutation_average(out, n, d) - out).max() <= 1e-14 * scale


def test_symmetrizer_is_projection_matrix():
    for stats in (Statistics.BOSE, Statistics.FERMI):
        s = symmetrizer_matrix(stats, 3, 2)
        assert np.allclose(s @ s, s, atol=1e-14)
        assert np.allclose(s, s.conj().T, atol=1e-14)


ISOMETRY_SIZES = [
    (stats, d, n)
    for stats in (Statistics.BOSE, Statistics.FERMI)
    for d in (2, 3, 4)
    for n in range(2, 9)
    if d**n <= 256
]


@pytest.mark.parametrize("stats, d, n", ISOMETRY_SIZES)
def test_symmetric_isometry_factors_the_group_average(stats, d, n):
    v = symmetric_isometry(stats, n, d)
    rank = math.comb(n + d - 1, n) if stats is Statistics.BOSE else math.comb(d, n)
    assert v.shape == (d**n, rank)
    assert np.abs(v.conj().T @ v - np.eye(rank)).max(initial=0.0) <= 1e-15
    # range inside the (anti)symmetric subspace: with V^dagger V = I and the
    # rank equal to its dimension, V V^dagger is the group average
    sign = -1.0 if stats is Statistics.FERMI else 1.0
    for i in range(1, n):
        images = Permutation.transposition(n, i, i + 1).images
        assert np.abs(loop_permute_rows(v, images, n, d) - sign * v).max(initial=0.0) <= 1e-15
    # the loop oracle walks n! relabelings of d^n rows: 5.6 s at d=2, n=7
    if math.factorial(n) * d**n <= 10**5:
        s = loop_group_average(stats, n, d)
        assert np.abs(v @ v.conj().T - s).max() <= 1e-15
    else:
        s = v @ v.conj().T
    # the helpers apply S through V on any matrix, Hermitian or not
    rng = np.random.default_rng(100 * d + n)
    side = d**n
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    scale = np.abs(m).max()
    assert np.abs(group_average(stats, m, n, d) - s @ m).max() <= 1e-13 * scale
    assert np.abs(group_compress(stats, m, n, d) - s @ m @ s).max() <= 1e-13 * scale
    # identity averages return the input; a Pauli-excluded order is zero
    for apply in (group_average, group_compress):
        assert np.array_equal(apply(Statistics.BOLTZMANN, m, n, d), m)
        assert np.array_equal(apply(stats, m[:d, :d], 1, d), m[:d, :d])
        assert not apply(Statistics.FERMI, np.ones((8, 8)), 3, 2).any()
        # the cap fires before the matrix is read
        with pytest.raises(ResourceCapError):
            apply(stats, m, SYMMETRIZER_MAX_PARTICLES + 1, d)


@pytest.mark.parametrize(
    "stats, d, n",
    [(stats, d, n) for stats in ALL_STATS for d, n in ((2, 1), (2, 4), (3, 3))] + [(Statistics.FERMI, 2, 3)],
    ids=str,
)
def test_traced_lift_is_lift_then_partial_trace(stats, d, n):
    # Tr_{s+1..n} V K V^T without the d^n x d^n lift, for every kept count s,
    # at rank 0 (FERMI n > d) too; bit-identical where V is None
    rng = np.random.default_rng([d, n])
    v = symmetric_isometry(stats, n, d)
    r = d**n if v is None else v.shape[1]
    k = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    for s in range(0, n + 1):
        out = traced_lift(stats, k, s, n, d)
        expected = partial_trace_matrix(rank_lift(stats, k, n, d), s, n, d)
        assert out.shape == (d**s, d**s)
        if v is None:
            assert np.array_equal(out, expected)
        else:
            assert np.abs(out - expected).max(initial=0.0) <= 1e-13 * max(1.0, np.abs(k).max(initial=0.0))


@pytest.mark.parametrize("stats", list(Statistics), ids=str)
def test_range_compress_checks_the_two_sided_group_average(stats):
    # the one domain rule: the statistics' two-sided group average fixes M.
    # A fixed component compresses to V^T M V (M itself for BOLTZMANN); for
    # BOSE and FERMI a ket-side image S M, raw on the bra side, is off S M S,
    # and for BOLTZMANN a raw draw is off its conjugates by the adjacent
    # transpositions, which generate the twirl's group
    d, n = 3, 3
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((d**n, d**n)) + 1j * rng.standard_normal((d**n, d**n))
    fixed = ManyBodyOperator(n, d, hilbert.symmetric_state(raw, n, d, stats), stats)
    v = symmetric_isometry(stats, n, d)
    assert np.array_equal(range_compress(fixed, "test"), fixed.mat if v is None else v.T @ fixed.mat @ v)
    if v is None:
        bad, image = raw, "P M P^T"
        swaps = [permutation_conjugate(Permutation.transposition(n, j, j + 1), raw, d) for j in range(1, n)]
        deviation = max(np.abs(raw - x).max() for x in swaps)
    else:
        bad, image = group_average(stats, raw, n, d), "S M S"
        deviation = np.abs(bad - group_compress(stats, bad, n, d)).max()
    defect = deviation / max(1.0, np.abs(bad).max())
    assert defect > 0.1
    message = f"{stats} test component {n} .*" + re.escape(f"|M - {image}| = {defect:.3e}") + "$"
    with pytest.raises(DomainError, match=message):
        range_compress(ManyBodyOperator(n, d, bad, stats), "test")
    # one particle has nothing to exchange
    one = raw[:d, :d]
    assert np.array_equal(range_compress(ManyBodyOperator(1, d, one, stats), "test"), one)


def test_symmetric_isometry_is_none_for_identity_averages():
    assert symmetric_isometry(Statistics.BOLTZMANN, 3, 2) is None
    assert symmetric_isometry(Statistics.BOSE, 1, 3) is None


def test_symmetrizer_particle_budget_guard():
    with pytest.raises(ResourceCapError):
        symmetrizer_matrix(Statistics.BOSE, SYMMETRIZER_MAX_PARTICLES + 1, 2)


# ---------------------------------------------------------------- trace norm

def test_trace_norm_basics():
    assert trace_norm(ManyBodyOperator.zero(2, 2)) == 0.0
    diag = ManyBodyOperator(1, 2, np.diag([1.0, 2.0]))
    assert np.isclose(trace_norm(diag), 3.0)


def test_trace_norm_matches_spectral_oracle():
    rng = np.random.default_rng(10)
    f = rand_op(rng, 2, 2)
    assert np.isclose(trace_norm(f), spectral_trace_norm(f.mat), atol=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_trace_norm_is_a_norm(seed):
    rng = np.random.default_rng(seed)
    f, g = rand_op(rng, 2, 2), rand_op(rng, 2, 2)
    assert trace_norm(f + g) <= trace_norm(f) + trace_norm(g) + 1e-12
    c = complex(rng.standard_normal(), rng.standard_normal())
    assert np.isclose(trace_norm(c * f), abs(c) * trace_norm(f), rtol=1e-12)


def test_embed_then_trace_out_recovers_scaled_operator():
    rng = np.random.default_rng(11)
    a = rand_op(rng, 1, 2)
    emb = embed_operator(a, (1,), (1, 2, 3))
    back = partial_trace(emb, 1)
    assert np.allclose(back.mat, a.mat * 4, atol=1e-13)  # d^(n - |Z|) = 4


def test_sequence_trace_norm():
    rng = np.random.default_rng(12)
    comps = {n: rand_op(rng, n, 2) for n in (1, 2)}
    seq = OperatorSequence(d=2, stats=Statistics.BOLTZMANN, n_max=2, f0=1.5, components=comps)
    expected = 1.5 + trace_norm(comps[1]) + trace_norm(comps[2])
    assert np.isclose(sequence_trace_norm(seq), expected)


# ---------------------------------------------------------------- containers

def test_operator_validation():
    with pytest.raises(DomainError):
        ManyBodyOperator(2, 2, np.zeros((3, 3)))
    with pytest.raises(DomainError):
        ManyBodyOperator(1, 2, np.array([[np.nan, 0], [0, 0]]))


def test_operator_is_immutable():
    op = ManyBodyOperator.identity(1, 2)
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_sequence_fills_missing_components_with_zero():
    seq = OperatorSequence(d=2, stats=Statistics.BOSE, n_max=2)
    assert trace_norm(seq.component(1)) == 0.0
    with pytest.raises(DomainError):
        seq.component(3)


def test_sequence_rejects_inconsistent_component():
    bad = {1: ManyBodyOperator.identity(1, 2, Statistics.FERMI)}
    with pytest.raises(DomainError):
        OperatorSequence(d=2, stats=Statistics.BOSE, n_max=1, components=bad)


# ---------------------------------------------------------------- serialization

@pytest.mark.parametrize("stats", ALL_STATS)
def test_operator_roundtrip_is_bit_exact(stats):
    rng = np.random.default_rng(13)
    op = rand_op(rng, 2, 2, stats)
    buf = io.StringIO()
    write_operator(op, buf)
    buf.seek(0)
    back = read_operator(buf)
    assert back.n == op.n and back.d == op.d and back.stats == op.stats
    assert np.array_equal(back.mat, op.mat)


def test_sequence_roundtrip_is_bit_exact():
    rng = np.random.default_rng(14)
    comps = {n: rand_op(rng, n, 2) for n in (1, 2, 3)}
    seq = OperatorSequence(
        d=2, stats=Statistics.BOLTZMANN, n_max=3, f0=0.25 - 1e-17j, components=comps
    )
    buf = io.StringIO()
    write_sequence(seq, buf)
    buf.seek(0)
    back = read_sequence(buf)
    assert back.f0 == seq.f0
    for n in (1, 2, 3):
        assert np.array_equal(back.component(n).mat, seq.component(n).mat)


def test_read_operator_rejects_bad_header():
    with pytest.raises(DomainError):
        read_operator(io.StringIO("not an operator\n"))


def test_scalar_operator_io():
    op = ManyBodyOperator(0, 2, np.array([[2.5 + 1j]]))
    buf = io.StringIO()
    write_operator(op, buf)
    buf.seek(0)
    back = read_operator(buf)
    assert np.array_equal(back.mat, op.mat)


@pytest.mark.parametrize("sides", [(2, 3), (2, 3, 4)])
def test_times_kron_matches_dense_kronecker(sides):
    # x (A (x) B (x) ...) factor by factor, plain and with each factor's
    # batch on an axis of its own, broadcast against the others
    rng = np.random.default_rng(79)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    side = int(np.prod(sides))
    x = normal(5, side)
    mats = [normal(s, s) for s in sides]
    expected = x @ functools.reduce(np.kron, mats)
    got = times_kron(x, mats)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    counts = (3, 2, 2)[: len(sides)]
    batches = [normal(*(1,) * j, c, *(1,) * (len(sides) - j - 1), s, s) for j, (c, s) in enumerate(zip(counts, sides))]
    got = times_kron(x, batches)
    assert got.shape == (*counts, 5, side)
    for index in itertools.product(*map(range, counts)):
        factors = [b[(0,) * j + (i,) + (0,) * (len(sides) - j - 1)] for j, (b, i) in enumerate(zip(batches, index))]
        expected = x @ functools.reduce(np.kron, factors)
        assert np.abs(got[index] - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize(
    "rows, shapes, rest",
    [
        (5, [(2, 3), (3, 2)], 1),
        (4, [(4, 2), (1, 3), (2, 2)], 1),
        (0, [(2, 3), (3, 1)], 1),
        (3, [(2, 0), (3, 2)], 1),
        (3, [(3, 2), (2, 0)], 1),
        (3, [(4, 2)], 6),
        (0, [(2, 0)], 3),
    ],
    ids=["square-rows", "three-factors", "zero-rows", "zero-width-first", "zero-width-last", "identity-rest", "empty-rest"],
)
def test_times_kron_takes_rectangular_factors(rows, shapes, rest):
    # x (A (x) B (x) ... (x) I_rest) for s_j x t_j factors: the result is
    # rows x prod t_j rest, empty where a side is zero
    rng = np.random.default_rng(80)
    x = rng.normal(size=(rows, int(np.prod([s for s, _ in shapes])) * rest)) + 0j
    mats = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in shapes]
    expected = x @ functools.reduce(np.kron, [*mats, np.eye(rest)])
    got = times_kron(x, mats)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max(initial=0.0) <= 1e-13 * np.abs(expected).max(initial=1.0)
