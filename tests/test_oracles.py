import numpy as np
import pytest

from corrdyn.errors import DomainError
from corrdyn.hamiltonian import InteractionSpec
from corrdyn.hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Statistics,
    embed_operator,
    partial_trace,
    random_sequence,
    trace_norm,
)
from corrdyn import oracles


def test_loop_partial_trace_agrees_with_fast_path_on_200_cases():
    rng = np.random.default_rng(40)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        keep = int(rng.integers(1, m))
        side = 2**m
        mat = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        fast = partial_trace(ManyBodyOperator(m, 2, mat), keep).mat
        slow = oracles.loop_partial_trace(mat, keep, m, 2)
        assert np.abs(fast - slow).max() < 1e-13


def test_loop_embed_agrees_with_fast_path():
    rng = np.random.default_rng(41)
    for _ in range(60):
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, m + 1))
        labels = tuple(sorted(rng.choice(np.arange(1, m + 1), size=k, replace=False).tolist()))
        a = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
        ground = tuple(range(1, m + 1))
        fast = embed_operator(ManyBodyOperator(k, 2, a), labels, ground).mat
        slow = oracles.loop_embed(a, labels, ground, 2)
        assert np.abs(fast - slow).max() < 1e-13


def test_loop_embed_identity_trace_scaling():
    out = oracles.loop_embed(np.eye(2, dtype=complex), (2,), (1, 2, 3), 2)
    assert np.isclose(np.trace(out), 8.0)  # Tr(I_2) * d^(3-1)


def test_direct_evolution_time_zero_and_trace_constancy():
    rng = np.random.default_rng(42)
    spec = InteractionSpec(d=2, one_body=np.array([[0.0, 1.0], [1.0, 0.0]]))
    seq = random_sequence(rng, 2, Statistics.BOSE, 3)
    same = oracles.direct_density_evolution(seq, 0.0, spec)
    for n in (1, 2, 3):
        assert np.allclose(same.component(n).mat, seq.component(n).mat, atol=1e-15)
    moved = oracles.direct_density_evolution(seq, 1.7, spec)
    for n in (1, 2, 3):
        assert abs(moved.component(n).trace() - seq.component(n).trace()) < 1e-13


def test_direct_free_evolution_is_product_of_rotations():
    # sz generator rotates sx by angle 2t on each factor
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    spec = InteractionSpec(d=2, one_body=sz)
    t = 0.4
    one = ManyBodyOperator(1, 2, sx)
    seq = OperatorSequence(
        d=2,
        stats=Statistics.BOLTZMANN,
        n_max=2,
        components={1: one, 2: ManyBodyOperator(2, 2, np.kron(sx, sx))},
    )
    out = oracles.direct_density_evolution(seq, t, spec)
    rotated = np.cos(2 * t) * sx + np.sin(2 * t) * sy
    assert np.allclose(out.component(1).mat, rotated, atol=1e-12)
    assert np.allclose(out.component(2).mat, np.kron(rotated, rotated), atol=1e-12)


def test_bell_triangle_known_values():
    assert [oracles.bell_triangle(m) for m in range(9)] == [
        1, 1, 2, 5, 15, 52, 203, 877, 4140,
    ]


def test_mobius_identity_values():
    assert oracles.exhaustive_mobius_identity(1) == 1
    assert oracles.exhaustive_mobius_identity(2) == 0
    assert oracles.exhaustive_mobius_identity(5) == 0


def test_spectral_trace_norm_matches_svd():
    rng = np.random.default_rng(43)
    mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.isclose(oracles.spectral_trace_norm(mat), trace_norm(mat), atol=1e-11)


@pytest.mark.parametrize("stats", [Statistics.BOSE, Statistics.FERMI, Statistics.BOLTZMANN])
def test_grand_marginals_roundtrip(stats):
    rng = np.random.default_rng(44)
    d_seq = random_sequence(rng, 2, stats, 3, f0=1.0)
    marg = oracles.grand_marginals(d_seq)
    back = oracles.density_from_marginals(marg)
    for n in (1, 2, 3):
        assert np.abs(back.component(n).mat - d_seq.component(n).mat).max() < 1e-12


@pytest.mark.parametrize(
    "stats, d, n_max",
    [
        (Statistics.BOSE, 2, 3),
        (Statistics.BOSE, 2, 4),
        (Statistics.BOSE, 3, 3),
        (Statistics.FERMI, 3, 3),
        (Statistics.FERMI, 4, 4),
    ],
    ids=["bose-d2n3", "bose-d2n4", "bose-d3n3", "fermi-d3n3", "fermi-d4n4"],
)
@pytest.mark.parametrize("traceless", [False, True], ids=["trace", "traceless"])
@pytest.mark.parametrize("s", [1, 2])
def test_fock_marginal_matches_grand_marginal_sum(stats, d, n_max, traceless, s):
    # the reduced operator read in Fock space, Tr(rho a^dagger ... a), with
    # no normalization, is the classical-reference sum of traced densities
    rng = np.random.default_rng(45)
    D = random_sequence(rng, d, stats, n_max, traceless=traceless, f0=1.0)
    expected = oracles.grand_marginal_sum(D, s).mat
    got = oracles.fock_marginal(D, s).mat
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_fock_marginal_rejects_boltzmann_and_orders_outside_the_truncation():
    D = random_sequence(np.random.default_rng(46), 2, Statistics.BOSE, 2)
    with pytest.raises(DomainError):
        oracles.fock_marginal(random_sequence(np.random.default_rng(46), 2, Statistics.BOLTZMANN, 2), 1)
    for s in (0, 3):
        with pytest.raises(DomainError):
            oracles.fock_marginal(D, s)
