import itertools

import numpy as np
import pytest

from corrdyn.errors import DomainError, ResourceCapError
from corrdyn.hamiltonian import (
    EvolutionCache,
    InteractionSpec,
    build_hamiltonian,
    evolve_blocks,
    evolve_group,
    hamiltonian_matrix,
    interaction_generator,
    periodic_laplacian,
    von_neumann_generator,
)
from corrdyn.hilbert import (
    ManyBodyOperator,
    Statistics,
    group_rank,
    permutation_average,
    place_product,
    random_hermitian,
    rank_compress,
    trace_norm,
)
from corrdyn.oracles import loop_embed

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def taylor_expm(mat, terms=60):
    """Independent matrix exponential: plain Taylor summation."""
    out = np.eye(mat.shape[0], dtype=complex)
    acc = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms):
        acc = acc @ mat / k
        out = out + acc
    return out


@pytest.fixture
def two_body_spec():
    rng = np.random.default_rng(21)
    phi = random_hermitian(rng, 4)
    swap = np.zeros((4, 4))
    swap[[0, 1, 2, 3], [0, 2, 1, 3]] = 1.0
    phi = (phi + swap @ phi @ swap.T) / 2
    return InteractionSpec(d=2, one_body=random_hermitian(rng, 2), potentials={2: phi})


def test_zero_particle_hamiltonian_is_scalar_zero(two_body_spec):
    h0 = build_hamiltonian(0, two_body_spec)
    assert h0.n == 0 and h0.mat.shape == (1, 1) and h0.mat[0, 0] == 0
    with pytest.raises(DomainError):
        build_hamiltonian(-1, two_body_spec)


def test_free_two_particle_hamiltonian():
    spec = InteractionSpec(d=2, one_body=SZ)
    h2 = build_hamiltonian(2, spec)
    expected = np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ)
    assert np.allclose(h2.mat, expected)


def test_three_particle_pair_terms_match_enumeration_oracle(two_body_spec):
    h3 = build_hamiltonian(3, two_body_spec)
    ground = (1, 2, 3)
    expected = np.zeros((8, 8), dtype=complex)
    for i in ground:
        expected += loop_embed(two_body_spec.one_body, (i,), ground, 2)
    for pair in ((1, 2), (1, 3), (2, 3)):
        expected += loop_embed(two_body_spec.potentials[2], pair, ground, 2)
    assert np.allclose(h3.mat, expected, atol=1e-13)


@pytest.mark.parametrize("d, n, couplings", [(2, 4, (2,)), (2, 4, (2, 3)), (3, 3, (2, 3)), (4, 3, (2,))])
def test_hamiltonian_matrix_equals_placed_embedding_loop(d, n, couplings):
    # accumulating in place writes the same bits as summing placed embeddings
    rng = np.random.default_rng(23)
    pots = {k: permutation_average(random_hermitian(rng, d**k), k, d) for k in couplings}
    spec = InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials=pots)
    expected = np.zeros((d**n, d**n), dtype=np.complex128)
    terms = [(spec.one_body, (i,)) for i in range(1, n + 1)]
    terms += [(phi, z) for k, phi in pots.items() for z in itertools.combinations(range(1, n + 1), k)]
    for a, positions in terms:
        rest = tuple(p for p in range(1, n + 1) if p not in positions)
        expected += place_product([(a, positions), (np.eye(d ** len(rest)), rest)], n, d)
    assert np.array_equal(hamiltonian_matrix(n, spec), expected)


def test_hamiltonian_hermitian(two_body_spec):
    for n in (1, 2, 3, 4):
        h = build_hamiltonian(n, two_body_spec)
        scale = max(1.0, float(np.abs(h.mat).max()))
        assert np.abs(h.mat - h.mat.conj().T).max() <= 1e-12 * scale


def test_spec_validation_rejects_non_hermitian_one_body():
    with pytest.raises(DomainError, match="Hermitian"):
        InteractionSpec(d=2, one_body=np.array([[0, 1], [0, 0]], dtype=complex))


def test_spec_validation_rejects_asymmetric_pair_coupling():
    rng = np.random.default_rng(22)
    phi = random_hermitian(rng, 4)  # Hermitian but not swap symmetric
    with pytest.raises(DomainError, match="factor-permutation"):
        InteractionSpec(d=2, one_body=SZ, potentials={2: phi})


@pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan"), float("inf")])
def test_spec_validation_rejects_hbar_not_finite_positive(hbar):
    with pytest.raises(DomainError, match="hbar"):
        InteractionSpec(d=2, one_body=SZ, hbar=hbar)


def test_spec_validation_rejects_one_body_coupling_order():
    with pytest.raises(DomainError):
        InteractionSpec(d=2, one_body=SZ, potentials={1: SZ})


def test_matrix_side_cap():
    spec = InteractionSpec(d=2, one_body=SZ, matrix_side_cap=8)
    build_hamiltonian(3, spec)
    with pytest.raises(ResourceCapError):
        build_hamiltonian(4, spec)


def test_periodic_laplacian():
    lap = periodic_laplacian(4)
    assert np.allclose(lap, lap.conj().T)
    assert np.allclose(lap.sum(axis=1), 0.0)


# ---------------------------------------------------------------- generators

def test_generator_vanishes_on_hamiltonian_and_identity(two_body_spec):
    h2 = build_hamiltonian(2, two_body_spec)
    assert trace_norm(von_neumann_generator(h2, h2)) < 1e-13
    assert trace_norm(von_neumann_generator(ManyBodyOperator.identity(2, 2), h2)) < 1e-13


def test_generator_two_level_example():
    # H = diag(1,-1), f = sx: -(i)(f H - H f) = -2 sy, by direct 2x2 arithmetic
    f = ManyBodyOperator(1, 2, SX)
    h = ManyBodyOperator(1, 2, SZ)
    direct = -1j * (SX @ SZ - SZ @ SX)
    assert np.allclose(direct, -2 * SY)
    assert np.allclose(von_neumann_generator(f, h).mat, -2 * SY)


def test_generator_is_traceless(two_body_spec):
    rng = np.random.default_rng(23)
    f = ManyBodyOperator(2, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    h2 = build_hamiltonian(2, two_body_spec)
    out = von_neumann_generator(f, h2)
    assert abs(out.trace()) <= 1e-12 * trace_norm(f)


def test_interaction_generator_missing_coupling_is_zero(two_body_spec):
    f = ManyBodyOperator.identity(3, 2)
    out = interaction_generator((1, 2, 3), two_body_spec, f)  # no 3-body term
    assert trace_norm(out) == 0.0


def test_interaction_generator_commuting_operator_is_zero(two_body_spec):
    phi = two_body_spec.potentials[2]
    f = ManyBodyOperator(2, 2, phi)  # commutes with itself
    assert trace_norm(interaction_generator((1, 2), two_body_spec, f)) < 1e-13


def test_interaction_generator_matches_embed_then_commutator(two_body_spec):
    rng = np.random.default_rng(24)
    f = ManyBodyOperator(3, 2, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    out = interaction_generator((1, 3), two_body_spec, f)
    emb = loop_embed(two_body_spec.potentials[2], (1, 3), (1, 2, 3), 2)
    expected = -1j * (f.mat @ emb - emb @ f.mat)
    assert np.allclose(out.mat, expected, atol=1e-13)


# ---------------------------------------------------------------- evolution

def test_evolve_identity_at_zero_time(two_body_spec):
    cache = EvolutionCache(two_body_spec)
    rng = np.random.default_rng(25)
    f = ManyBodyOperator(2, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert np.allclose(evolve_group(f, 0.0, cache).mat, f.mat, atol=1e-15)


def test_evolve_two_level_closed_form():
    # H = sz: sx rotates into cos(2t) sx + sin(2t) sy; cross-checked against a
    # Taylor-series exponential with no shared code.
    spec = InteractionSpec(d=2, one_body=SZ)
    cache = EvolutionCache(spec)
    t = 0.3
    out = evolve_group(ManyBodyOperator(1, 2, SX), t, cache)
    closed = np.cos(2 * t) * SX + np.sin(2 * t) * SY
    assert np.allclose(out.mat, closed, atol=1e-12)
    u = taylor_expm(-1j * t * SZ)
    assert np.allclose(out.mat, u @ SX @ u.conj().T, atol=1e-12)


def test_evolve_preserves_trace_norm(two_body_spec):
    cache = EvolutionCache(two_body_spec)
    rng = np.random.default_rng(26)
    f = ManyBodyOperator(2, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    for t in (-5.0, -0.7, 1.3, 5.0):
        assert np.isclose(trace_norm(evolve_group(f, t, cache)), trace_norm(f), atol=1e-12)


def test_evolve_group_law(two_body_spec):
    cache = EvolutionCache(two_body_spec)
    rng = np.random.default_rng(27)
    f = ManyBodyOperator(2, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    lhs = evolve_group(evolve_group(f, 0.4, cache), 0.9, cache)
    rhs = evolve_group(f, 1.3, cache)
    assert np.allclose(lhs.mat, rhs.mat, atol=1e-12)


def test_evolve_preserves_hermiticity_and_positivity(two_body_spec):
    cache = EvolutionCache(two_body_spec)
    rng = np.random.default_rng(28)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = ManyBodyOperator(2, 2, m @ m.conj().T)
    out = evolve_group(rho, 0.8, cache)
    assert out.is_hermitian()
    assert np.linalg.eigvalsh(out.mat).min() >= -1e-12


def test_evolve_derivative_matches_generator(two_body_spec):
    # Richardson-extrapolated central difference of the flow vs -N(evolved)
    cache = EvolutionCache(two_body_spec)
    rng = np.random.default_rng(29)
    f = ManyBodyOperator(2, 2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    h2 = build_hamiltonian(2, two_body_spec)
    t, h = 0.6, 1e-4
    coarse = (evolve_group(f, t + h, cache).mat - evolve_group(f, t - h, cache).mat) / (2 * h)
    fine = (evolve_group(f, t + h / 2, cache).mat - evolve_group(f, t - h / 2, cache).mat) / h
    deriv = (4 * fine - coarse) / 3
    expected = -von_neumann_generator(evolve_group(f, t, cache), h2).mat
    assert trace_norm(deriv - expected) < 1e-8


def test_cache_reconstruction_error(two_body_spec):
    cache = EvolutionCache(two_body_spec)
    for m in (1, 2, 3):
        h = cache.hamiltonian(m)
        assert cache.reconstruction_error(m) <= 1e-10 * max(1.0, float(np.abs(h).max()))


@pytest.mark.parametrize("stats", [Statistics.BOSE, Statistics.FERMI], ids=str)
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("couplings", [(2,), (2, 3), ()], ids=["pair", "pair+triple", "free"])
def test_rank_hamiltonian_matches_dense_compression(stats, d, couplings):
    # H~_m built on the isometry's legs equals V^T H_m V of the dense H_m at
    # every order within the cap (a Fermi order above d is 0 x 0), and the
    # cap still holds above it
    rng = np.random.default_rng(33)
    pots = {k: permutation_average(random_hermitian(rng, d**k), k, d) for k in couplings}
    spec = InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials=pots, matrix_side_cap=256)
    cache = EvolutionCache(spec)
    top = next(m for m in itertools.count(1) if d ** (m + 1) > spec.matrix_side_cap)
    for m in range(2, top + 1):
        expected = rank_compress(stats, hamiltonian_matrix(m, spec), m, d)
        got = cache.hamiltonian(m, stats)
        rank = group_rank(stats, m, d)
        assert got.shape == expected.shape == (rank, rank)
        assert np.abs(got - expected).max(initial=0.0) <= 1e-14 * np.abs(expected).max(initial=0.0)
    if stats is Statistics.FERMI and d < top:
        assert cache.hamiltonian(d + 1, stats).shape == (0, 0)
    with pytest.raises(ResourceCapError):
        cache.hamiltonian(top + 1, stats)


def test_evolve_blocks_single_block_equals_group(two_body_spec):
    cache = EvolutionCache(two_body_spec)
    rng = np.random.default_rng(30)
    f = ManyBodyOperator(3, 2, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    lhs = evolve_blocks(f, [(1, 2, 3)], 0.7, cache)
    rhs = evolve_group(f, 0.7, cache)
    assert np.allclose(lhs.mat, rhs.mat, atol=1e-12)


def test_evolve_blocks_free_factorization():
    spec = InteractionSpec(d=2, one_body=SZ)
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(31)
    f = ManyBodyOperator(3, 2, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    lhs = evolve_blocks(f, [(1,), (2,), (3,)], 0.9, cache)
    rhs = evolve_group(f, 0.9, cache)
    assert np.allclose(lhs.mat, rhs.mat, atol=1e-12)


def test_evolve_blocks_order_invariance(two_body_spec):
    cache = EvolutionCache(two_body_spec)
    rng = np.random.default_rng(32)
    f = ManyBodyOperator(3, 2, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    lhs = evolve_blocks(f, [(1, 3), (2,)], 0.5, cache)
    rhs = evolve_blocks(f, [(2,), (1, 3)], 0.5, cache)
    assert np.allclose(lhs.mat, rhs.mat, atol=1e-13)


def test_evolve_blocks_requires_partition(two_body_spec):
    cache = EvolutionCache(two_body_spec)
    f = ManyBodyOperator.identity(3, 2)
    with pytest.raises(DomainError):
        evolve_blocks(f, [(1, 2), (2, 3)], 0.1, cache)
