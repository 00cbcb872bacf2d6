"""Leading stack axes: every function that takes ``[..., side, side]``
stacks returns, slice by slice, exactly (``==``) what it returns on that
slice alone, so a check that stacks its seeded draws reports the residual
of the loop over them."""

from pathlib import Path

import numpy as np
import pytest

from corrdyn.checks import check_mobius_roundtrip
from corrdyn.config import load_scenario
from corrdyn.correlations import correlation_mats, correlations_to_density, density_mats, density_to_correlations
from corrdyn.errors import DomainError
from corrdyn.hilbert import (
    ManyBodyOperator,
    Statistics,
    group_average,
    group_compress,
    permutation_average,
    place_product,
    random_hermitian,
    random_sequence,
    random_state_component,
    symmetric_state,
    trace_norm,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

CASES = [
    pytest.param(stats, d, n_max, size, id=f"{stats}-d{d}-n{n_max}-stack{size}")
    for stats in Statistics
    for d, n_max in ((2, 3), (3, 2))
    for size in (1, 5)
]


def _draws(seed: int, n: int, d: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([random_hermitian(rng, d**n) for _ in range(size)])


def _assert_slices(stack: np.ndarray, per_slice: list[np.ndarray]) -> None:
    assert stack.shape[0] == len(per_slice)
    for got, want in zip(stack, per_slice):
        assert got.shape == want.shape and (got == want).all()


@pytest.mark.parametrize("stats, d, n_max, size", CASES)
def test_place_product_stacks_slice_by_slice(stats, d, n_max, size):
    # unsorted labels, and a stacked factor broadcast against a plain one
    labels = ((2,), (1,)) if n_max == 2 else ((3, 1), (2,))
    a = _draws(1, len(labels[0]), d, size)
    b = _draws(2, len(labels[1]), d, size)
    both = place_product([(a, labels[0]), (b, labels[1])], n_max, d)
    _assert_slices(both, [place_product([(x, labels[0]), (y, labels[1])], n_max, d) for x, y in zip(a, b)])
    one = place_product([(a, labels[0]), (b[0], labels[1])], n_max, d)
    _assert_slices(one, [place_product([(x, labels[0]), (b[0], labels[1])], n_max, d) for x in a])


@pytest.mark.parametrize("stats, d, n_max, size", CASES)
def test_group_maps_stack_slice_by_slice(stats, d, n_max, size):
    for n in range(1, n_max + 1):
        raw = _draws(n, n, d, size)
        _assert_slices(permutation_average(raw, n, d), [permutation_average(x, n, d) for x in raw])
        _assert_slices(group_average(stats, raw, n, d), [group_average(stats, x, n, d) for x in raw])
        _assert_slices(group_compress(stats, raw, n, d), [group_compress(stats, x, n, d) for x in raw])


@pytest.mark.parametrize("traceless, positive", [(False, False), (True, False), (False, True)])
@pytest.mark.parametrize("stats, d, n_max, size", CASES)
def test_sampler_symmetrizes_stacks_as_it_draws(stats, d, n_max, size, traceless, positive):
    for n in range(1, n_max + 1):
        if positive and stats is Statistics.FERMI and n > d:
            continue  # no positive state: the component vanishes
        stack = symmetric_state(_draws(n, n, d, size), n, d, stats, traceless, positive)
        rng = np.random.default_rng(n)
        drawn = [random_state_component(rng, n, d, stats, traceless, positive).mat for _ in range(size)]
        _assert_slices(stack, drawn)


@pytest.mark.parametrize("stats, d, n_max, size", CASES)
def test_transform_bodies_stack_slice_by_slice(stats, d, n_max, size):
    rng = np.random.default_rng(7)
    seqs = [random_sequence(rng, d, stats, n_max) for _ in range(size)]
    mats = {n: np.stack([seq.component(n).mat for seq in seqs]) for n in range(1, n_max + 1)}
    forward = correlation_mats(mats, d, stats)
    backward = density_mats(mats, d, stats)
    for n in range(1, n_max + 1):
        _assert_slices(forward[n], [density_to_correlations(seq).component(n).mat for seq in seqs])
        _assert_slices(backward[n], [correlations_to_density(seq).component(n).mat for seq in seqs])


@pytest.mark.parametrize("stats, d, n_max, size", CASES)
def test_trace_norm_stacks_slice_by_slice(stats, d, n_max, size):
    for n in range(0, n_max + 1):  # n = 0 is the 1 x 1 rule
        mats = _draws(n, n, d, size) * (1 + 2j)
        norms = trace_norm(mats)
        assert norms.shape == (size,)
        assert all(got == trace_norm(x) for got, x in zip(norms, mats))
        assert isinstance(trace_norm(mats[0]), float)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("body", [correlation_mats, density_mats])
def test_transform_bodies_refuse_non_finite_stack(body):
    seqs = [random_sequence(np.random.default_rng(seed), 2, Statistics.BOSE, 2) for seed in range(3)]
    mats = {n: np.stack([seq.component(n).mat for seq in seqs]) for n in (1, 2)}
    mats[2][1, 0, 3] = np.inf
    with pytest.raises(DomainError, match="operator entries must be finite"):
        body(mats, 2, Statistics.BOSE)
    with pytest.raises(DomainError, match="operator entries must be finite"):
        ManyBodyOperator(2, 2, mats[2][1], Statistics.BOSE)


def _loop_mobius_residual(config) -> float:
    """The lane as a loop over the public one-sequence functions, one
    sequence pair per iteration in draw order."""
    rng = np.random.default_rng([config.seed, 1])
    n_max = 3
    worst = 0.0
    for _ in range(50):
        d_seq = random_sequence(rng, config.d, config.stats, n_max, f0=1.0)
        g_seq = density_to_correlations(random_sequence(rng, config.d, config.stats, n_max))
        trips = (
            (d_seq, correlations_to_density(density_to_correlations(d_seq))),
            (g_seq, density_to_correlations(correlations_to_density(g_seq))),
        )
        for seq, back in trips:
            for n in range(1, n_max + 1):
                delta = trace_norm(back.component(n) - seq.component(n))
                worst = max(worst, delta / (1.0 + trace_norm(seq.component(n))))
    return worst


@pytest.mark.parametrize("stats", ["bose", "fermi", "boltzmann"])
def test_stacked_mobius_lane_is_the_loop(stats):
    config = load_scenario(SCENARIOS / f"acceptance_{stats}.cfg")
    (record,) = check_mobius_roundtrip(config)
    assert record.inputs == f"stats={stats} d={config.d} n_max=3 sequences=50"
    assert record.residual == _loop_mobius_residual(config)
