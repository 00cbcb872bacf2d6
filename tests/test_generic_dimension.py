"""Spot checks at single-particle dimension 3: nothing in the engine is
allowed to assume two-level particles."""

import numpy as np
import pytest

from corrdyn.bbgky import marginals_from_correlations, solve_bbgky_series
from corrdyn.correlations import (
    correlations_to_density,
    density_to_correlations,
    von_neumann_rhs,
)
from corrdyn.hamiltonian import EvolutionCache, InteractionSpec
from corrdyn.hilbert import (
    Statistics,
    all_permutations,
    random_hermitian,
    random_sequence,
    trace_norm,
)
from corrdyn import oracles


@pytest.fixture(scope="module")
def spec3():
    rng = np.random.default_rng(123)
    phi = random_hermitian(rng, 9)
    from corrdyn.hilbert import _row_permutation_map

    sym = np.zeros_like(phi)
    for perm in all_permutations(2):
        rows = _row_permutation_map(perm.images, 2, 3)
        p = np.zeros((9, 9))
        p[np.arange(9), rows] = 1.0
        sym += p @ phi @ p.T
    return InteractionSpec(d=3, one_body=random_hermitian(rng, 3), potentials={2: sym / 2})


@pytest.mark.parametrize("stats", [Statistics.BOSE, Statistics.FERMI])
def test_roundtrip_at_dimension_three(stats):
    rng = np.random.default_rng(124)
    d_seq = random_sequence(rng, 3, stats, 3, f0=1.0)
    back = correlations_to_density(density_to_correlations(d_seq))
    for n in (1, 2, 3):
        gap = trace_norm(back.component(n) - d_seq.component(n))
        assert gap <= 1e-11 * (1 + trace_norm(d_seq.component(n)))


@pytest.mark.parametrize("stats", [Statistics.BOSE, Statistics.FERMI])
def test_hierarchy_residual_at_dimension_three(spec3, stats):
    # at d=3 the Fermi order 3 has group rank 1, so its projected
    # interaction sum is nonzero (at d=2 every Fermi order above 2 is rank 0)
    rng = np.random.default_rng(125)
    d0 = random_sequence(rng, 3, stats, 3, f0=1.0)

    def g_at(t):
        return density_to_correlations(oracles.direct_density_evolution(d0, t, spec3))

    t, h = 0.2, 1e-4
    g_t = g_at(t)
    for n in (1, 2, 3):
        coarse = (g_at(t + h).component(n).mat - g_at(t - h).component(n).mat) / (2 * h)
        fine = (g_at(t + h / 2).component(n).mat - g_at(t - h / 2).component(n).mat) / h
        deriv = (4 * fine - coarse) / 3
        assert trace_norm(deriv - von_neumann_rhs(g_t, n, spec3).mat) < 1e-7


def test_series_matches_oracle_at_dimension_three(spec3):
    rng = np.random.default_rng(126)
    cache = EvolutionCache(spec3)
    d0 = random_sequence(rng, 3, Statistics.FERMI, 2, f0=1.0)
    f0 = oracles.grand_marginals(d0)
    t = 0.3
    f_t = oracles.grand_marginals(oracles.direct_density_evolution(d0, t, spec3))
    for s in (1, 2):
        out = solve_bbgky_series(f0, t, s, cache)
        assert trace_norm(out - f_t.component(s)) <= 1e-11 * (1 + trace_norm(f_t.component(s)))
