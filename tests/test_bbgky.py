import gc
import math
import re
from pathlib import Path

import numpy as np
import pytest

from corrdyn import bbgky, cli, correlations
from corrdyn.bbgky import (
    BBGKYSeries,
    CumulantBoundReport,
    MarginalSequence,
    WeightedNormParams,
    bbgky_rhs,
    chaos_cluster_solution,
    cumulant_apply,
    cumulant_norm_bound_check,
    marginal_from_clusters,
    marginals_from_correlations,
    solve_bbgky_series,
    solve_series_time_derivative,
    weighted_norm,
)
from corrdyn.combinatorics import ClusterSet
from corrdyn.correlations import (
    CorrelationSequence,
    clusterize,
    correlations_to_density,
    density_to_correlations,
    integrate_hierarchy,
)
from corrdyn.errors import DomainError, TruncationError
from corrdyn.hamiltonian import (
    EvolutionCache,
    InteractionSpec,
    build_hamiltonian,
    commutator_generator,
    evolve_group,
    hamiltonian_matrix,
    von_neumann_generator,
)
from corrdyn.hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Permutation,
    Statistics,
    embed_operator,
    group_rank,
    partial_trace,
    partial_trace_matrix,
    permutation_average,
    permutation_conjugate,
    place_product,
    random_hermitian,
    random_sequence,
    random_state_component,
    symmetrizer_matrix,
    trace_norm,
)
from corrdyn import oracles

REPO = Path(__file__).resolve().parents[1]
ALL_STATS = [Statistics.BOSE, Statistics.FERMI, Statistics.BOLTZMANN]
QUANTUM = [Statistics.BOSE, Statistics.FERMI]


def pair_spec(seed=21, d=2):
    rng = np.random.default_rng(seed)
    phi = random_hermitian(rng, d * d)
    swap = np.zeros((4, 4))
    swap[[0, 1, 2, 3], [0, 2, 1, 3]] = 1.0
    phi = (phi + swap @ phi @ swap.T) / 2
    return InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials={2: phi})


def rand_op(rng, n, d=2, stats=Statistics.BOSE):
    side = d**n
    return ManyBodyOperator(
        n, d, rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)), stats
    )


# ---------------------------------------------------------------- cumulants

def test_cumulant_order_one_is_plain_evolution():
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(80)
    f = rand_op(rng, 2)
    out = cumulant_apply(0.7, ClusterSet.canonical(2, 0), f, cache)
    assert np.allclose(out.mat, evolve_group(f, 0.7, cache).mat, atol=1e-13)


def test_cumulant_order_two_is_difference_of_evolutions():
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(81)
    f = rand_op(rng, 3)
    t = 0.4
    out = cumulant_apply(t, ClusterSet.canonical(2, 1), f, cache)
    # two partitions of ({1,2}, 3): everything together, minus the split
    u_full = cache.propagator(3, t)
    whole = u_full @ f.mat @ u_full.conj().T
    u_split = embed_operator(
        ManyBodyOperator(2, 2, cache.propagator(2, t)), (1, 2), (1, 2, 3)
    ).mat @ embed_operator(ManyBodyOperator(1, 2, cache.propagator(1, t)), (3,), (1, 2, 3)).mat
    split = u_split @ f.mat @ u_split.conj().T
    assert np.allclose(out.mat, whole - split, atol=1e-12)


@pytest.mark.parametrize("s,n", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_cumulant_vanishes_at_zero_time(s, n):
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(82)
    f = rand_op(rng, s + n)
    out = cumulant_apply(0.0, ClusterSet.canonical(s, n), f, cache)
    assert trace_norm(out) <= 1e-13 * trace_norm(f)


@pytest.mark.parametrize("t", [-5.0, -0.9, 0.3, 5.0])
def test_cumulant_free_collapse(t):
    free = InteractionSpec(d=2, one_body=pair_spec().one_body)
    cache = EvolutionCache(free)
    rng = np.random.default_rng(83)
    for (s, n) in ((1, 1), (1, 2), (2, 1)):
        f = rand_op(rng, s + n)
        out = cumulant_apply(t, ClusterSet.canonical(s, n), f, cache)
        assert trace_norm(out) <= 1e-12 * trace_norm(f)


def _counting_builds(cache):
    """Record the order m of every propagator the cache builds: a build, and
    only a build, reads the eigensystem."""
    calls = []
    eigensystem = cache.eigensystem
    cache.eigensystem = lambda m, stats=Statistics.BOLTZMANN: calls.append(m) or eigensystem(m, stats)
    return calls


@pytest.mark.parametrize("s,n", [(1, 1), (1, 3), (1, 4), (2, 3)])
def test_cumulant_builds_each_block_size_propagator_once(s, n):
    spec = pair_spec()
    cache = EvolutionCache(spec)
    calls = _counting_builds(cache)
    f = rand_op(np.random.default_rng(78), s + n)
    cumulant_apply(0.6, ClusterSet.canonical(s, n), f, cache)
    # blocks hold the atomic cluster plus 0..n satellites, or 1..n
    # satellites: 1+n sizes for s = 1, each built once although every
    # partition asks for its blocks' propagators
    sizes = set(range(s, s + n + 1)) | set(range(1, n + 1))
    assert sorted(calls) == sorted(sizes)


def test_propagator_keeps_the_last_time():
    spec = pair_spec()
    cache = EvolutionCache(spec)
    u = cache.propagator(3, 0.4, Statistics.BOSE)
    assert cache.propagator(3, 0.4, Statistics.BOSE) is u
    assert not u.flags.writeable
    # a new time replaces the kept one, with a fresh cache's values, and a
    # revisited time is rebuilt to the same values
    for t in (0.9, 0.4, -1.2):
        got = cache.propagator(3, t, Statistics.BOSE)
        assert np.array_equal(got, EvolutionCache(spec).propagator(3, t, Statistics.BOSE))
    assert np.array_equal(cache.propagator(3, 0.4, Statistics.BOSE), u)
    # the series' value and rate at one time share each U~_{s+k}(t)
    f0 = oracles.grand_marginals(random_sequence(np.random.default_rng(95), 2, Statistics.BOSE, 4, f0=1.0))
    series = BBGKYSeries(f0, 1, EvolutionCache(spec))
    calls = _counting_builds(series.cache)
    series.at(0.4)
    series.rate(0.4)
    assert sorted(calls) == [1, 2, 3, 4]


def test_cumulant_products_invert_to_full_group():
    # summing products of block cumulants over all partitions of the cluster
    # set reconstructs the undivided evolution group
    import itertools

    from corrdyn.combinatorics import block_labels, cluster_partitions, mobius_weight, set_partitions
    from corrdyn.hamiltonian import block_propagator

    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(79)
    s, n, t = 2, 2, 0.6
    xc = ClusterSet.canonical(s, n)
    f = rand_op(rng, s + n)
    total = np.zeros_like(f.mat)
    for p in cluster_partitions(xc):
        pools = [list(set_partitions(tuple(el for el in block))) for block in p.blocks]
        for choice in itertools.product(*pools):
            weight = 1.0
            blocks_total = []
            for q in choice:
                weight *= mobius_weight(q)
                blocks_total.extend(block_labels(sub) for sub in q.blocks)
            u = block_propagator(blocks_total, s + n, t, cache)
            total += weight * (u @ f.mat @ u.conj().T)
    assert np.abs(total - evolve_group(f, t, cache).mat).max() < 1e-13


# ---------------------------------------------------------------- marginals

@pytest.mark.parametrize("stats", ALL_STATS)
def test_marginal_top_order_equals_density_component(stats):
    rng = np.random.default_rng(84)
    g = density_to_correlations(random_sequence(rng, 2, stats, 3))
    d_seq = correlations_to_density(g)
    assert trace_norm(marginal_from_clusters(g, 3) - d_seq.component(3)) < 1e-12


def test_marginal_chaos_collapses_to_symmetrized_powers():
    # uncorrelated data: traced higher cluster terms cancel exactly, while the
    # classical-reference sum keeps them; both behaviors are pinned here.
    rng = np.random.default_rng(85)
    g1 = random_hermitian(rng, 2)
    g = CorrelationSequence(
        d=2, stats=Statistics.BOLTZMANN, n_max=3, components={1: ManyBodyOperator(1, 2, g1)}
    )
    f1 = marginal_from_clusters(g, 1)
    assert np.allclose(f1.mat, g1, atol=1e-13)
    tau = np.trace(g1)
    d_seq = correlations_to_density(g)
    grand = oracles.grand_marginal_sum(d_seq, 1)
    expected_grand = g1 * (1 + tau + tau**2 / 2)
    assert np.allclose(grand.mat, expected_grand, atol=1e-12)


def test_marginal_zero_input():
    g = CorrelationSequence(d=2, stats=Statistics.BOSE, n_max=3)
    assert trace_norm(marginal_from_clusters(g, 2)) == 0.0


def test_marginal_order_guard():
    g = CorrelationSequence(d=2, stats=Statistics.BOSE, n_max=2)
    with pytest.raises(TruncationError):
        marginal_from_clusters(g, 3)


@pytest.mark.parametrize("stats", ALL_STATS)
def test_marginals_hermitian(stats):
    rng = np.random.default_rng(86)
    g = density_to_correlations(random_sequence(rng, 2, stats, 3))
    marg = marginals_from_correlations(g)
    for s in (1, 2, 3):
        assert marg.component(s).is_hermitian()


def _correlation_lane(stats, d, n_max, raw):
    rng = np.random.default_rng([d, n_max, raw])
    if raw:
        comps = {n: ManyBodyOperator(n, d, random_hermitian(rng, d**n), stats) for n in range(1, n_max + 1)}
        return CorrelationSequence(d=d, stats=stats, n_max=n_max, components=comps)
    return density_to_correlations(random_sequence(rng, d, stats, n_max))


@pytest.mark.parametrize("raw", [False, True], ids=["symmetric", "raw"])
@pytest.mark.parametrize(
    "stats, d, n_max",
    [(stats, d, n_max) for stats in ALL_STATS for d, n_max in ((2, 5), (3, 3))] + [(Statistics.FERMI, 4, 4)],
    ids=str,
)
def test_memoized_marginals_match_one_cluster_set_per_call(stats, d, n_max, raw):
    # one memo across every order and satellite count gives what one
    # clusterize call per cluster set gives: the arithmetic unchanged for
    # BOLTZMANN, and for BOSE and FERMI the traced lift Tr_X V K V^T of each
    # rank-space cluster correlation against lifting it and then tracing
    g = _correlation_lane(stats, d, n_max, raw)
    marginals = marginals_from_correlations(g)
    for s in range(1, n_max + 1):
        expected = sum(
            partial_trace_matrix(clusterize(g, s, n).op.mat, s, s + n, d) / math.factorial(n)
            for n in range(0, n_max - s + 1)
        )
        for out in (marginals.component(s).mat, marginal_from_clusters(g, s).mat):
            if stats is Statistics.BOLTZMANN:
                assert np.array_equal(out, expected)
            else:
                assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n_max, placements", [(5, 42), (6, 99), (7, 219)])
def test_marginals_build_each_reconstruction_once(monkeypatch, n_max, placements):
    # BOLTZMANN places every member: R_1..R_n_max once (2^(n-1) - 1
    # placements each) plus the connected parts of the cluster sets; one
    # memo per cluster set took 168 / 495 / 1314
    g = density_to_correlations(random_sequence(np.random.default_rng(87), 2, Statistics.BOLTZMANN, n_max))
    calls = []

    def counting(factors, n, d):
        calls.append(n)
        return place_product(factors, n, d)

    monkeypatch.setattr(correlations, "place_product", counting)
    marginals_from_correlations(g)
    assert len(calls) == placements


@pytest.mark.parametrize("stats", QUANTUM, ids=str)
@pytest.mark.parametrize("n_max, terms", [(5, 20), (6, 35), (7, 56)])
def test_rank_space_marginals_add_one_term_per_class(monkeypatch, stats, n_max, terms):
    # BOSE and FERMI add one rank-space term per relabeling class and place
    # nothing: n_max (n_max - 1) / 2 classes for R_2..R_n_max plus n per
    # cluster set ({1..s}, n satellites) with s >= 2, against the member
    # counts 42 / 99 / 219 of the BOLTZMANN lane above
    g = density_to_correlations(random_sequence(np.random.default_rng(87), 2, stats, n_max))
    placed, classes = [], []
    rank_product = correlations._rank_product

    def placing(*args):
        placed.append(args)
        return place_product(*args)

    def counting(*args):
        classes.append(args)
        return rank_product(*args)

    monkeypatch.setattr(correlations, "place_product", placing)
    monkeypatch.setattr(correlations, "_rank_product", counting)
    marginals_from_correlations(g)
    assert placed == []
    assert len(classes) == terms == n_max * (n_max - 1) // 2 + sum(
        n for s in range(2, n_max + 1) for n in range(1, n_max - s + 1)
    )


def test_marginals_leave_no_garbage():
    # the shared memo is freed when the call returns, not left in a
    # reference cycle for the cyclic garbage collector
    for stats in QUANTUM:
        g = density_to_correlations(random_sequence(np.random.default_rng(88), 2, stats, 4))
        gc.collect()
        gc.disable()
        try:
            marginals_from_correlations(g)
            assert gc.collect() == 0, stats
        finally:
            gc.enable()


# ---------------------------------------------------------------- chain rhs

def test_bbgky_rhs_free_is_pure_drift():
    free = InteractionSpec(d=2, one_body=pair_spec().one_body)
    rng = np.random.default_rng(87)
    marg = MarginalSequence(
        d=2, stats=Statistics.BOSE, n_max=3, components={s: rand_op(rng, s) for s in (1, 2, 3)}
    )
    for s in (1, 2, 3):
        out = bbgky_rhs(marg, s, free)
        expected = -von_neumann_generator(marg.component(s), build_hamiltonian(s, free)).mat
        assert np.allclose(out.mat, expected, atol=1e-13)


def test_bbgky_rhs_two_body_structure():
    # s=1: drift plus traced pair commutator with the next marginal
    spec = pair_spec()
    rng = np.random.default_rng(88)
    marg = MarginalSequence(
        d=2, stats=Statistics.BOSE, n_max=2, components={s: rand_op(rng, s) for s in (1, 2)}
    )
    out = bbgky_rhs(marg, 1, spec)
    f1, f2 = marg.component(1).mat, marg.component(2).mat
    h1 = spec.one_body
    drift = 1j * (f1 @ h1 - h1 @ f1)
    phi = spec.potentials[2]
    lifted = 1j * (f2 @ phi - phi @ f2)
    coupled = np.einsum("ajbj->ab", lifted.reshape(2, 2, 2, 2))
    assert np.allclose(out.mat, drift + coupled, atol=1e-12)


def test_bbgky_rhs_three_body_term_weights():
    # with only a 3-body coupling, s=1 couples to the marginal two orders up
    # through Z={1} and both satellites, carrying the 1/2! weight
    rng = np.random.default_rng(89)
    raw = random_hermitian(rng, 8)
    from corrdyn.hilbert import all_permutations, _row_permutation_map

    sym3 = np.zeros_like(raw)
    for perm in all_permutations(3):
        rows = _row_permutation_map(perm.images, 3, 2)
        p = np.zeros((8, 8))
        p[np.arange(8), rows] = 1.0
        sym3 += p @ raw @ p.T
    sym3 /= 6
    spec = InteractionSpec(d=2, one_body=pair_spec().one_body, potentials={3: sym3})
    marg = MarginalSequence(
        d=2, stats=Statistics.BOSE, n_max=3, components={s: rand_op(rng, s) for s in (1, 2, 3)}
    )
    out = bbgky_rhs(marg, 1, spec)
    f1, f3 = marg.component(1).mat, marg.component(3).mat
    h1 = spec.one_body
    drift = 1j * (f1 @ h1 - h1 @ f1)
    lifted = 1j * (f3 @ sym3 - sym3 @ f3)
    coupled = 0.5 * np.einsum("ajbj->ab", lifted.reshape(2, 4, 2, 4))
    assert np.allclose(out.mat, drift + coupled, atol=1e-12)


def test_bbgky_rhs_truncation_guard():
    spec = pair_spec()
    rng = np.random.default_rng(90)
    marg = MarginalSequence(
        d=2, stats=Statistics.BOSE, n_max=1, components={1: rand_op(rng, 1)}
    )
    with pytest.raises(TruncationError):
        bbgky_rhs(marg, 1, spec)


# ---------------------------------------------------------------- solution series

@pytest.mark.parametrize("stats", ALL_STATS)
def test_series_at_zero_time_returns_initial_data(stats):
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(91)
    d0 = random_sequence(rng, 2, stats, 3, f0=1.0)
    f0 = oracles.grand_marginals(d0)
    for s in (1, 2, 3):
        out = solve_bbgky_series(f0, 0.0, s, cache)
        assert trace_norm(out - f0.component(s)) <= 1e-12 * (1 + trace_norm(f0.component(s)))


def test_series_free_coupling_is_groupwise():
    free = InteractionSpec(d=2, one_body=pair_spec().one_body)
    cache = EvolutionCache(free)
    rng = np.random.default_rng(92)
    d0 = random_sequence(rng, 2, Statistics.FERMI, 3, f0=1.0)
    f0 = oracles.grand_marginals(d0)
    for s in (1, 2):
        out = solve_bbgky_series(f0, 1.1, s, cache)
        expected = evolve_group(f0.component(s), 1.1, cache)
        assert trace_norm(out - expected) < 1e-11


@pytest.mark.parametrize("stats", ALL_STATS)
def test_series_matches_unitary_evolution_oracle(stats):
    # initial marginals from a supported density sequence: the series equals
    # the classical-reference sum of the directly evolved components
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(93)
    d0 = random_sequence(rng, 2, stats, 3, f0=1.0)
    f0 = oracles.grand_marginals(d0)
    t = 0.4
    d_t = oracles.direct_density_evolution(d0, t, spec)
    f_t = oracles.grand_marginals(d_t)
    for s in (1, 2, 3):
        out = solve_bbgky_series(f0, t, s, cache)
        assert trace_norm(out - f_t.component(s)) <= 1e-11 * (1 + trace_norm(f_t.component(s)))


@pytest.mark.parametrize("stats", QUANTUM)
def test_series_derivative_equals_chain_rhs(stats):
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(94)
    d0 = random_sequence(rng, 2, stats, 4, f0=1.0)
    f0 = oracles.grand_marginals(d0)
    for t in (0.1, 0.7):
        f_t = MarginalSequence(
            d=2,
            stats=stats,
            n_max=4,
            components={s: solve_bbgky_series(f0, t, s, cache) for s in (1, 2, 3, 4)},
        )
        for s in (1, 2):
            lhs = solve_series_time_derivative(f0, t, s, cache)
            rhs = bbgky_rhs(f_t, s, spec)
            assert trace_norm(lhs - rhs) < 1e-10


def _series_lane(geometry, couplings, data):
    """Spec and initial marginals: ``data`` is a statistics name, with the
    marginals of a random exchange-symmetric density sequence, or "raw", with
    random Hermitian Boltzmann marginals that no permutation leaves fixed and
    that the series therefore rejects."""
    d, n_max = geometry
    rng = np.random.default_rng([d, n_max, len(couplings)])
    pots = {k: permutation_average(random_hermitian(rng, d**k), k, d) for k in couplings}
    spec = InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials=pots)
    if data == "raw":
        comps = {
            m: ManyBodyOperator(m, d, random_hermitian(rng, d**m), Statistics.BOLTZMANN)
            for m in range(1, n_max + 1)
        }
        return spec, MarginalSequence(d=d, stats=Statistics.BOLTZMANN, n_max=n_max, components=comps)
    d0 = random_sequence(rng, d, Statistics(data), n_max, f0=1.0)
    return spec, oracles.grand_marginals(d0)


@pytest.mark.parametrize("data", ["bose", "fermi", "boltzmann", "raw"])
@pytest.mark.parametrize("couplings", [(2,), (2, 3)], ids=["2body", "2+3body"])
@pytest.mark.parametrize("geometry", [(2, 5), (3, 3), (2, 4)], ids=["d2n5", "d3n3", "d2n4"])
def test_series_subset_form_matches_partition_and_density_references(geometry, couplings, data):
    # BOSE and FERMI run in the rank space of the two-sided group average;
    # at FERMI d=2 n_max=4 the orders 3 and 4 have rank 0 and are skipped.
    # Raw marginals are rejected: the error names the first order the series
    # reads that the twirl does not fix (order 2) and its defect
    spec, f0 = _series_lane(geometry, couplings, data)
    cache = EvolutionCache(spec)
    if data == "raw":
        mat = f0.component(2).mat
        swapped = permutation_conjugate(Permutation.transposition(2, 1, 2), mat, f0.d)
        defect = np.abs(mat - swapped).max() / max(1.0, np.abs(mat).max())
        message = "boltzmann marginal component 2 .*" + re.escape(f"|M - P M P^T| = {defect:.3e}") + "$"
        for s in (1, 2):
            with pytest.raises(DomainError, match=message):
                BBGKYSeries(f0, s, cache)
        return
    n_max = f0.n_max
    density = oracles.density_from_marginals(f0)
    built = {s: BBGKYSeries(f0, s, cache) for s in (1, 2)}
    for s, series in built.items():
        ranked = [k for k in range(n_max - s + 1) if group_rank(f0.stats, s + k, f0.d) > 0]
        assert list(series.sums) == ranked

    def close(lhs, ref):
        # relative, except on references that vanish by statistics
        # (two fermions at d=2 do not move)
        assert trace_norm(lhs - ref) <= 1e-12 * max(1.0, trace_norm(ref))

    for t in (0.0, 0.4, -1.3):
        d_t = oracles.direct_density_evolution(density, t, spec)
        rate = OperatorSequence(
            d=f0.d,
            stats=f0.stats,
            n_max=n_max,
            components={
                m: op.with_mat(-commutator_generator(op.mat, hamiltonian_matrix(m, spec), spec.hbar))
                for m, op in d_t.components.items()
            },
        )
        f_t, df_t = oracles.grand_marginals(d_t), oracles.grand_marginals(rate)
        for s in (1, 2):
            series = solve_bbgky_series(f0, t, s, cache)
            derivative = solve_series_time_derivative(f0, t, s, cache)
            # one series object serves every time point
            assert np.array_equal(built[s].at(t).mat, series.mat)
            assert np.array_equal(built[s].rate(t).mat, derivative.mat)
            close(series, oracles.partition_series(f0, t, s, cache))
            close(derivative, oracles.partition_series_time_derivative(f0, t, s, cache))
            # the density route evolves the triangular inverse of the data,
            # which equals the series on exchange-symmetric data
            close(series, f_t.component(s))
            close(derivative, df_t.component(s))


@pytest.mark.parametrize("stats", QUANTUM, ids=str)
def test_series_rejects_marginals_outside_the_two_sided_range(stats):
    # a raw Hermitian component is exchange invariant on neither side; the
    # error names the order and the relative defect max |F - S F S|
    spec, f0 = _series_lane((3, 3), (2,), stats.value)
    raw = random_hermitian(np.random.default_rng(5), 27)
    comps = {**f0.components, 3: ManyBodyOperator(3, 3, raw, stats)}
    bad = MarginalSequence(d=3, stats=stats, n_max=3, components=comps)
    s3 = symmetrizer_matrix(stats, 3, 3)
    defect = np.abs(raw - s3 @ raw @ s3).max() / max(1.0, np.abs(raw).max())
    message = f"{stats} marginal component 3 .*" + re.escape(f"|M - S M S| = {defect:.3e}") + "$"
    for s in (1, 2, 3):
        with pytest.raises(DomainError, match=message):
            BBGKYSeries(bad, s, EvolutionCache(spec))


def test_rank_space_series_diagonalizes_only_rank_sized_matrices(monkeypatch):
    # d=2 Bose n_max=6: H~_m = V^T H_m V has side m + 1 <= 7, against the
    # dense side 2^6 = 64 of H_6
    spec, f0 = _series_lane((2, 6), (2,), "bose")
    sides = []
    eigh = np.linalg.eigh

    def counting(mat):
        sides.append(mat.shape[0])
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    series = BBGKYSeries(f0, 1, EvolutionCache(spec))
    for t in (0.3, 0.6):
        series.at(t)
        series.rate(t)
    assert sorted(sides) == [2, 3, 4, 5, 6, 7]


def _evolve_n6(tmp_path, stats):
    """``corrdyn evolve --s 1`` on the interacting two-mode scenario at
    n_max = 6 with the given statistics and four time points."""
    text = (REPO / "scenarios" / "interacting_bose.cfg").read_text()
    text = text.replace("n_max = 3", "n_max = 6").replace("times = 0.0 0.5 1.0", "times = 0.0 0.3 0.6 0.9")
    path = tmp_path / "evolve.cfg"
    path.write_text(text.replace("stats = bose", f"stats = {stats}"))
    return ["evolve", str(path), "--s", "1"]


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records its calls' arguments."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_evolve_builds_the_subset_sums_once(tmp_path, capsys, monkeypatch):
    # d=2 Bose n_max=6, s=1: on the checked two-sided range every satellite
    # subset of one size traces alike, so G_0..G_5 take one partial trace per
    # (k, n), sum_k (6 - k) = 21 for the whole run, not 21 per time point
    traces = _counting(monkeypatch, bbgky, "partial_trace_matrix")
    assert cli.main(_evolve_n6(tmp_path, "bose")) == 0
    assert capsys.readouterr().out.count("time ") == 4
    assert len(traces) == 21


def test_boltzmann_evolve_traces_every_subset_once(tmp_path, capsys, monkeypatch):
    # BOLTZMANN data are checked invariant under the twirl as well, so every
    # satellite subset of one size traces alike: the same 21 partial traces
    # as for Bose, where the subset form took sum_n 2^n = 63 subset traces,
    # and the partial trace of the last legs is the only trace taken
    traces = _counting(monkeypatch, bbgky, "partial_trace_matrix")
    assert cli.main(_evolve_n6(tmp_path, "boltzmann")) == 0
    assert capsys.readouterr().out.count("time ") == 4
    assert len(traces) == 21
    assert {(keep, n - keep) for _, keep, n, _ in traces} == {(1 + k, n - k) for n in range(6) for k in range(n + 1)}


def test_series_hermiticity_preserved():
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(95)
    d0 = random_sequence(rng, 2, Statistics.BOSE, 3, positive=True, f0=1.0)
    f0 = oracles.grand_marginals(d0)
    for s in (1, 2):
        assert solve_bbgky_series(f0, 0.9, s, cache).is_hermitian(tol=1e-12)


# ---------------------------------------------------------------- chaos solution

def test_chaos_solution_zero_time_higher_orders_vanish():
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(96)
    g1 = random_state_component(rng, 1, 2, Statistics.BOSE)
    for n in (1, 2):
        out = chaos_cluster_solution(g1, 0.0, 1, n, cache)
        assert trace_norm(out.op) < 1e-13


def test_chaos_solution_core_only_is_evolved_symmetrized_power():
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(97)
    g1 = random_state_component(rng, 1, 2, Statistics.BOSE)
    out = chaos_cluster_solution(g1, 0.8, 2, 0, cache)
    sym = symmetrizer_matrix(Statistics.BOSE, 2, 2)
    seed = ManyBodyOperator(2, 2, sym @ np.kron(g1.mat, g1.mat), Statistics.BOSE)
    expected = evolve_group(seed, 0.8, cache)
    assert trace_norm(out.op - expected) < 1e-12


@pytest.mark.parametrize("stats", ALL_STATS)
def test_chaos_solution_matches_integrated_hierarchy_at_two_particles(stats):
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(98)
    g1 = random_state_component(rng, 1, 2, stats)
    g0 = CorrelationSequence(d=2, stats=stats, n_max=2, components={1: g1})
    t = 0.2
    g_t = integrate_hierarchy(g0, t, 400, spec)
    formula = chaos_cluster_solution(g1, t, 1, 1, cache)
    trajectory = clusterize(g_t, 1, 1)
    assert trace_norm(formula.op - trajectory.op) < 1e-9


# ---------------------------------------------------------------- norms

def test_weighted_norm_basics():
    assert weighted_norm(
        CorrelationSequence(d=2, stats=Statistics.BOSE, n_max=2), WeightedNormParams(3.0)
    ) == 0.0
    comp = ManyBodyOperator(1, 2, np.diag([2.0, 0.0]))
    seq = OperatorSequence(d=2, stats=Statistics.BOLTZMANN, n_max=1, components={1: comp})
    assert np.isclose(weighted_norm(seq, WeightedNormParams(3.0)), 6.0)


def test_marginal_sequence_keeps_the_truncation():
    # an order above n_max was kept and counted by weighted_norm (36.0 at
    # alpha = 3 for the identity at order 2), and n_max = 0 was accepted
    eye = ManyBodyOperator(2, 2, np.eye(4))
    with pytest.raises(DomainError, match="beyond truncation"):
        MarginalSequence(d=2, stats=Statistics.BOLTZMANN, n_max=1, components={2: eye})
    with pytest.raises(DomainError, match="n_max"):
        MarginalSequence(d=2, stats=Statistics.BOLTZMANN, n_max=0)
    with pytest.raises(DomainError, match="scalar"):
        MarginalSequence(d=2, stats=Statistics.BOLTZMANN, n_max=1, f0=1.0)
    marg = MarginalSequence(d=2, stats=Statistics.BOLTZMANN, n_max=2, components={2: eye})
    assert weighted_norm(marg, WeightedNormParams(3.0)) == pytest.approx(36.0)


def test_weighted_norm_matches_direct_sum():
    rng = np.random.default_rng(99)
    seq = random_sequence(rng, 2, Statistics.FERMI, 3, f0=0.5)
    alpha = 2.2
    expected = 0.5 + sum(alpha**n * trace_norm(seq.component(n)) for n in (1, 2, 3))
    assert np.isclose(weighted_norm(seq, WeightedNormParams(alpha)), expected)


def test_weighted_norm_regime_flag():
    assert WeightedNormParams(3.0).in_contraction_regime
    assert not WeightedNormParams(2.5).in_contraction_regime
    with pytest.raises(Exception):
        WeightedNormParams(0.0)


def test_norm_bound_order_one_is_attained():
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(100)
    f = rand_op(rng, 1)
    rep = cumulant_norm_bound_check(0.5, 1, 0, f, cache)
    assert rep.bound_factor == 1.0
    assert abs(rep.lhs - rep.input_norm) < 1e-12
    assert rep.holds


def test_norm_bound_order_two_factor():
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(101)
    f = rand_op(rng, 2)
    rep = cumulant_norm_bound_check(0.5, 1, 1, f, cache)
    assert rep.bound_factor == 2.0
    assert rep.holds and rep.slack >= 0.0


def test_norm_bound_higher_order_random():
    spec = pair_spec()
    cache = EvolutionCache(spec)
    rng = np.random.default_rng(102)
    f = rand_op(rng, 4)
    rep = cumulant_norm_bound_check(1.3, 1, 3, f, cache)
    # sum over partitions of a 4-element set of (|P|-1)!
    expected_factor = 1 + 7 * 1 + 6 * 2 + 1 * 6
    assert rep.bound_factor == expected_factor
    assert isinstance(rep, CumulantBoundReport)
    assert rep.holds and rep.slack >= 0.0
