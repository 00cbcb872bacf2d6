import gc
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrdyn.bbgky import chaos_cluster_solution, cumulant_apply
from corrdyn import correlations
from corrdyn.combinatorics import ClusterElement, ClusterSet, block_labels, cluster_partitions, set_partitions
from corrdyn.correlations import (
    ClusterCorrelation,
    CorrelationSequence,
    cluster_correlation_matrix,
    clusterize,
    correlations_to_density,
    density_to_correlations,
    generalized_rhs,
    integrate_hierarchy,
    von_neumann_rhs,
)
from corrdyn.errors import DomainError, IntegrationError, TruncationError
from corrdyn.hamiltonian import (
    EvolutionCache,
    InteractionSpec,
    commutator_generator,
    evolve_group,
    hamiltonian_matrix,
)
from corrdyn.hilbert import (
    ManyBodyOperator,
    OperatorSequence,
    Statistics,
    embed_matrix,
    group_compress,
    group_rank,
    permutation_average,
    place_product,
    random_hermitian,
    random_sequence,
    random_state_component,
    symmetric_isometry,
    symmetrize,
    symmetrizer_matrix,
    trace_norm,
)
from corrdyn import oracles

ALL_STATS = [Statistics.BOSE, Statistics.FERMI, Statistics.BOLTZMANN]
QUANTUM = [Statistics.BOSE, Statistics.FERMI]


def pair_spec(seed=21, d=2):
    rng = np.random.default_rng(seed)
    phi = random_hermitian(rng, d * d)
    swap = np.zeros((4, 4))
    swap[[0, 1, 2, 3], [0, 2, 1, 3]] = 1.0
    phi = (phi + swap @ phi @ swap.T) / 2
    return InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials={2: phi})


def mixed_spec(seed=22, d=2):
    # two- plus three-body couplings: three-block partitions reach the sum
    rng = np.random.default_rng(seed)
    pots = {k: permutation_average(random_hermitian(rng, d**k), k, d) for k in (2, 3)}
    return InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials=pots)


def max_component_gap(a, b, n_max):
    return max(
        trace_norm(a.component(n) - b.component(n)) for n in range(1, n_max + 1)
    )


# ------------------------------------------------------- transform pair

def test_first_component_passes_through():
    rng = np.random.default_rng(50)
    d_seq = random_sequence(rng, 2, Statistics.BOSE, 2)
    g = density_to_correlations(d_seq)
    assert np.allclose(g.component(1).mat, d_seq.component(1).mat)


@pytest.mark.parametrize("stats", ALL_STATS)
def test_second_component_subtracts_symmetrized_product(stats):
    rng = np.random.default_rng(51)
    d_seq = random_sequence(rng, 2, stats, 2)
    g = density_to_correlations(d_seq)
    d1 = d_seq.component(1).mat
    sym = symmetrizer_matrix(stats, 2, 2)
    expected = d_seq.component(2).mat - sym @ np.kron(d1, d1)
    assert np.allclose(g.component(2).mat, expected, atol=1e-13)


def test_product_density_has_no_higher_correlations():
    # Uncorrelated data: every component a tensor power of the same matrix.
    rng = np.random.default_rng(52)
    d1 = random_hermitian(rng, 2)
    comps = {
        1: ManyBodyOperator(1, 2, d1),
        2: ManyBodyOperator(2, 2, np.kron(d1, d1)),
        3: ManyBodyOperator(3, 2, np.kron(d1, np.kron(d1, d1))),
    }
    d_seq = OperatorSequence(d=2, stats=Statistics.BOLTZMANN, n_max=3, components=comps)
    g = density_to_correlations(d_seq)
    assert np.allclose(g.component(1).mat, d1)
    assert trace_norm(g.component(2)) < 1e-13
    assert trace_norm(g.component(3)) < 1e-12


def test_inverse_second_component_adds_symmetrized_product():
    rng = np.random.default_rng(53)
    stats = Statistics.FERMI
    g = density_to_correlations(random_sequence(rng, 2, stats, 2))
    d_seq = correlations_to_density(g)
    g1 = g.component(1).mat
    sym = symmetrizer_matrix(stats, 2, 2)
    expected = g.component(2).mat + sym @ np.kron(g1, g1)
    assert np.allclose(d_seq.component(2).mat, expected, atol=1e-13)


def test_chaos_correlations_give_product_density():
    rng = np.random.default_rng(54)
    g1 = random_hermitian(rng, 2)
    g = CorrelationSequence(
        d=2,
        stats=Statistics.BOLTZMANN,
        n_max=3,
        components={1: ManyBodyOperator(1, 2, g1)},
    )
    d_seq = correlations_to_density(g)
    assert np.allclose(d_seq.component(2).mat, np.kron(g1, g1), atol=1e-14)
    assert np.allclose(d_seq.component(3).mat, np.kron(g1, np.kron(g1, g1)), atol=1e-14)


@pytest.mark.parametrize("stats", ALL_STATS)
def test_roundtrip_both_directions(stats):
    rng = np.random.default_rng(55)
    for _ in range(5):
        d_seq = random_sequence(rng, 2, stats, 3, f0=1.0)
        back = correlations_to_density(density_to_correlations(d_seq))
        for n in (1, 2, 3):
            gap = trace_norm(back.component(n) - d_seq.component(n))
            assert gap <= 1e-12 * (1 + trace_norm(d_seq.component(n)))
        g = density_to_correlations(random_sequence(rng, 2, stats, 3))
        g_back = density_to_correlations(correlations_to_density(g))
        assert max_component_gap(g_back, g, 3) <= 1e-12 * (1 + max_component_gap(g, CorrelationSequence(d=2, stats=stats, n_max=3), 3))


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    stats = ALL_STATS[seed % 3]
    d_seq = random_sequence(rng, 2, stats, 3, f0=1.0)
    back = correlations_to_density(density_to_correlations(d_seq))
    for n in (1, 2, 3):
        assert trace_norm(back.component(n) - d_seq.component(n)) <= 1e-12 * (
            1 + trace_norm(d_seq.component(n))
        )


@pytest.mark.parametrize("stats", ALL_STATS)
def test_transforms_preserve_statistics_symmetry(stats):
    from corrdyn.checks import _symmetry_violation

    rng = np.random.default_rng(56)
    d_seq = random_sequence(rng, 2, stats, 3)
    g = density_to_correlations(d_seq)
    back = correlations_to_density(g)
    for n in (2, 3):
        assert _symmetry_violation(g.component(n)) < 1e-12
        assert _symmetry_violation(back.component(n)) < 1e-12


# ------------------------------------------------------- cluster transform

@pytest.mark.parametrize("stats", ALL_STATS)
def test_clusterize_single_particle_core_is_identity(stats):
    rng = np.random.default_rng(57)
    g = density_to_correlations(random_sequence(rng, 2, stats, 4))
    for n in (0, 1, 2, 3):
        cc = clusterize(g, 1, n)
        assert trace_norm(cc.op - g.component(1 + n)) < 1e-11


@pytest.mark.parametrize("stats", ALL_STATS)
def test_clusterize_without_satellites_reconstructs_density(stats):
    rng = np.random.default_rng(58)
    g = density_to_correlations(random_sequence(rng, 2, stats, 3))
    d_seq = correlations_to_density(g)
    for s in (1, 2, 3):
        cc = clusterize(g, s, 0)
        assert trace_norm(cc.op - d_seq.component(s)) < 1e-12


def test_clusterize_chaos_higher_orders_vanish():
    rng = np.random.default_rng(59)
    for stats in ALL_STATS:
        g1 = random_state_component(rng, 1, 2, stats)
        g = CorrelationSequence(d=2, stats=stats, n_max=3, components={1: g1})
        for (s, n) in ((1, 1), (1, 2), (2, 1)):
            assert trace_norm(clusterize(g, s, n).op) < 1e-13


def test_clusterize_truncation_guard():
    rng = np.random.default_rng(60)
    g = density_to_correlations(random_sequence(rng, 2, Statistics.BOSE, 2))
    with pytest.raises(TruncationError):
        clusterize(g, 2, 1)


def test_truncation_guard_on_rhs_and_cluster_correlation():
    # an order or a cluster above n_max is a truncation error, not a missing key
    rng = np.random.default_rng(60)
    g = density_to_correlations(random_sequence(rng, 2, Statistics.BOSE, 2))
    with pytest.raises(TruncationError):
        von_neumann_rhs(g, 3, pair_spec())
    with pytest.raises(TruncationError):
        generalized_rhs(g, ClusterSet.canonical(2, 1), pair_spec())
    with pytest.raises(TruncationError):
        cluster_correlation_matrix(g, ((1, 2), (3,)))


@pytest.mark.parametrize("stats", ALL_STATS, ids=str)
@pytest.mark.parametrize(
    "d, elements",
    [
        (2, ((1, 2), (3,), (4,))),
        (2, ((1, 3), (2,), (4,))),
        (3, ((1, 3), (2,))),
        (2, ((3, 1), (2, 4))),
        (2, ((1,), (2, 3), (4,))),
        (2, ((2, 4), (1,), (3,))),
        (2, ((1, 4), (2, 5), (3,))),
    ],
)
def test_cluster_correlation_matrix_matches_nested_oracle(stats, d, elements):
    # unsymmetrized random components: the fast path is exact for any sequence
    # (d=3 gives the Fermi lane a nonzero antisymmetric space; at d=2 and five
    # labels both Fermi sides are identically zero, no antisymmetric space)
    rng = np.random.default_rng(31)
    m = sum(len(el) for el in elements)
    comps = {n: ManyBodyOperator(n, d, random_hermitian(rng, d**n), stats) for n in range(1, m + 1)}
    g = OperatorSequence(d=d, stats=stats, n_max=m, components=comps)
    fast, labels = cluster_correlation_matrix(g, elements)
    assert labels == tuple(range(1, m + 1))
    assert np.abs(fast - oracles.nested_cluster_correlation(g, elements)).max() <= 1e-12


def test_cluster_correlation_matrix_leaves_no_garbage():
    # the recursion's memo is freed when the call returns, not left in a
    # reference cycle for the cyclic garbage collector
    rng = np.random.default_rng(33)
    g = density_to_correlations(random_sequence(rng, 2, Statistics.BOSE, 4))
    gc.collect()
    gc.disable()
    try:
        cluster_correlation_matrix(g, ((1, 2), (3,), (4,)))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("stats", ALL_STATS, ids=str)
@pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
def test_correlations_to_density_matches_nested_oracle(stats, d, n):
    # one atomic element: S D_n is the nested oracle's S R S
    rng = np.random.default_rng(32)
    comps = {k: ManyBodyOperator(k, d, random_hermitian(rng, d**k), stats) for k in range(1, n + 1)}
    g = OperatorSequence(d=d, stats=stats, n_max=n, components=comps)
    fast = correlations_to_density(g).component(n).mat @ oracles.loop_group_average(stats, n, d)
    expected = oracles.nested_cluster_correlation(g, (tuple(range(1, n + 1)),))
    assert np.abs(fast - expected).max() <= 1e-12


@pytest.mark.parametrize("stats", ALL_STATS, ids=str)
@pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
def test_density_to_correlations_matches_signed_oracle(stats, d, n):
    # unsymmetrized complex components, as for the nested oracle
    rng = np.random.default_rng(33)
    comps = {}
    for k in range(1, n + 1):
        mat = rng.standard_normal((d**k, d**k)) + 1j * rng.standard_normal((d**k, d**k))
        comps[k] = ManyBodyOperator(k, d, mat, stats)
    D = OperatorSequence(d=d, stats=stats, n_max=n, f0=1.0, components=comps)
    fast, expected = density_to_correlations(D), oracles.signed_density_to_correlations(D)
    for k in range(1, n + 1):
        assert np.abs(fast.component(k).mat - expected[k]).max() <= 1e-12


def test_transforms_enumerate_no_set_partitions(monkeypatch):
    # the exponential formula needs subsets only: the same matrices come out
    # with set partition enumeration disabled
    rng = np.random.default_rng(34)
    d_seq = random_sequence(rng, 2, Statistics.BOSE, 4, f0=1.0)
    elements = ((1, 3), (2,), (4,))

    def run():
        g = density_to_correlations(d_seq)
        return g, correlations_to_density(g), cluster_correlation_matrix(g, elements)[0]

    g, back, cluster = run()

    def refuse(*args, **kwargs):
        raise AssertionError("set_partitions called")

    monkeypatch.setattr("corrdyn.combinatorics.set_partitions", refuse)
    monkeypatch.setattr("corrdyn.correlations.set_partitions", refuse)
    g2, back2, cluster2 = run()
    for n in range(1, 5):
        assert np.array_equal(g2.component(n).mat, g.component(n).mat)
        assert np.array_equal(back2.component(n).mat, back.component(n).mat)
    assert np.array_equal(cluster2, cluster)


@pytest.mark.parametrize("stats", QUANTUM, ids=str)
@pytest.mark.parametrize("d, n_max", [(2, 4), (3, 3)])
def test_group_average_applies_the_isometry(stats, d, n_max, monkeypatch):
    # every group average outside the right-hand side goes through V, never
    # through the dense projector, and equals the dense S M or S M S
    from corrdyn import bbgky, correlations, hilbert

    def refuse(*args, **kwargs):
        raise AssertionError("dense projector built")

    for module in (hilbert, correlations, bbgky):
        monkeypatch.setattr(module, "symmetrizer_matrix", refuse, raising=False)
    s = {n: oracles.loop_group_average(stats, n, d) for n in range(1, n_max + 1)}

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    rng = np.random.default_rng(35)
    shapes = {n: (d**n, d**n) for n in range(1, n_max + 1)}
    mats = {n: rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for n, shape in shapes.items()}

    def sequence(t):
        comps = {n: ManyBodyOperator(n, d, m, t) for n, m in mats.items()}
        return OperatorSequence(d=d, stats=t, n_max=n_max, f0=1.0, components=comps)

    # the same components under the given and under the identity group average
    seq, plain = sequence(stats), sequence(Statistics.BOLTZMANN)
    # g_n = D_n + S_n (M_n - D_n) and D_n = S_n R_n, M and R the identity-average results
    g, connected = density_to_correlations(seq), density_to_correlations(plain)
    back, whole = correlations_to_density(seq), correlations_to_density(plain)
    for n in range(1, n_max + 1):
        d_n = seq.component(n).mat
        close(g.component(n).mat, d_n + s[n] @ (connected.component(n).mat - d_n))
        close(back.component(n).mat, s[n] @ whole.component(n).mat)
        close(symmetrize(stats, seq.component(n)).mat, s[n] @ d_n)
    elements = ((1, 3), (2,), *((l,) for l in range(4, n_max + 1)))
    cluster, plain_cluster = (cluster_correlation_matrix(x, elements)[0] for x in (seq, plain))
    close(cluster, s[n_max] @ plain_cluster @ s[n_max])

    drawn = random_sequence(np.random.default_rng(36), d, stats, n_max)
    replay = np.random.default_rng(36)
    for n in range(1, n_max + 1):
        raw = random_hermitian(replay, d**n)
        close(drawn.component(n).mat, s[n] @ raw @ s[n])

    cache = EvolutionCache(mixed_spec(d=d))
    g1 = ManyBodyOperator(1, d, random_hermitian(rng, d), stats)
    prod = place_product([(g1.mat, (i,)) for i in range(1, n_max + 1)], n_max, d)
    xc = ClusterSet.canonical(1, n_max - 1)
    seed = ManyBodyOperator(n_max, d, s[n_max] @ prod, stats)
    chaos = chaos_cluster_solution(g1, 0.7, 1, n_max - 1, cache)
    close(chaos.op.mat, cumulant_apply(0.7, xc, seed, cache).mat)


def test_cluster_correlation_container_invariants():
    op = ManyBodyOperator.zero(3, 2)
    with pytest.raises(DomainError):
        ClusterCorrelation(1, 1, op, ClusterSet.canonical(1, 1))


# ------------------------------------------------------- hierarchy rhs

def test_rhs_first_component_is_pure_drift():
    spec = pair_spec()
    rng = np.random.default_rng(61)
    g = density_to_correlations(random_sequence(rng, 2, Statistics.BOSE, 2))
    out = von_neumann_rhs(g, 1, spec)
    h1 = spec.one_body
    g1 = g.component(1).mat
    # -N g1 with N f = -i (f H - H f)
    expected = 1j * (g1 @ h1 - h1 @ g1)
    assert np.allclose(out.mat, expected, atol=1e-13)


def test_rhs_free_coupling_reduces_to_drift():
    free = InteractionSpec(d=2, one_body=pair_spec().one_body)
    rng = np.random.default_rng(62)
    g = density_to_correlations(random_sequence(rng, 2, Statistics.FERMI, 3))
    from corrdyn.hamiltonian import build_hamiltonian, von_neumann_generator

    for n in (1, 2, 3):
        out = von_neumann_rhs(g, n, free)
        h = build_hamiltonian(n, free)
        expected = -von_neumann_generator(g.component(n), h).mat
        assert np.allclose(out.mat, expected, atol=1e-13)


def test_rhs_rank_zero_order_is_pure_drift():
    # Fermi at d=2, n=3 has no antisymmetric state: the projected interaction
    # sum vanishes, and the drift stays dense on inputs that are not symmetric
    spec = pair_spec()
    rng = np.random.default_rng(64)
    comps = {n: ManyBodyOperator(n, 2, random_hermitian(rng, 2**n), Statistics.FERMI) for n in (1, 2, 3)}
    g = OperatorSequence(d=2, stats=Statistics.FERMI, n_max=3, components=comps)
    expected = -commutator_generator(comps[3].mat, hamiltonian_matrix(3, spec), spec.hbar)
    assert np.array_equal(von_neumann_rhs(g, 3, spec).mat, expected)


@pytest.mark.parametrize("stats", ALL_STATS)
def test_rhs_two_particle_term_enumeration(stats):
    # order 2: drift plus the single pair commutator on the symmetrized
    # product of one-particle components
    spec = pair_spec()
    rng = np.random.default_rng(63)
    g = density_to_correlations(random_sequence(rng, 2, stats, 2))
    out = von_neumann_rhs(g, 2, spec)
    from corrdyn.hamiltonian import build_hamiltonian, von_neumann_generator

    g1 = g.component(1).mat
    sym = symmetrizer_matrix(stats, 2, 2)
    drift = -von_neumann_generator(g.component(2), build_hamiltonian(2, spec)).mat
    phi = spec.potentials[2]
    prod = np.kron(g1, g1)
    interaction = sym @ (1j * (prod @ phi - phi @ prod))
    assert np.allclose(out.mat, drift + interaction, atol=1e-12)


def _ascending_reversed_legs(p):
    # blocks by ascending size, each block's labels in descending order: a
    # factor and leg order unlike the plan's, so the relabeling is general
    legs = tuple(sorted((tuple(sorted(b, reverse=True)) for b in p.blocks), key=len))
    return tuple(map(len, legs)), legs


@pytest.mark.parametrize("stats", ALL_STATS, ids=str)
@pytest.mark.parametrize(
    "d, n, couplings", [(2, 3, (2,)), (2, 4, (2,)), (2, 4, (2, 3)), (3, 3, (2, 3)), (3, 4, (2,)), (4, 4, (2,))]
)
@pytest.mark.parametrize("arrange", [correlations._by_size, _ascending_reversed_legs], ids=["sorted", "unsorted"])
def test_support_row_blocks_match_placed_products(stats, d, n, couplings, arrange):
    # one Kronecker product and one coupling per class, relabeled per member,
    # gives sum_p V^T [P_p, Phi_p] as a loop placing P_p and embedding every
    # support that meets each block of p; the factors are not symmetric, so a
    # wrong leg order shows, and odd leg permutations test the Fermi sign
    rng = np.random.default_rng(76)
    pots = {k: permutation_average(random_hermitian(rng, d**k), k, d) for k in couplings}
    spec = InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials=pots, hbar=0.7)
    partitions = set_partitions(range(1, n + 1))
    support = correlations._SupportSum(partitions, spec, n, stats, arrange)
    rank = group_rank(stats, n, d)
    assert bool(support.groups) == (rank > 0)  # Fermi at d=2, n>2 has rank 0
    if not support.groups:
        return
    if n == 4:
        assert len(support.groups[(2, 2)]) == 3  # a type with tied sizes
    side = d**n
    comps = {k: rng.normal(size=(d**k, d**k)) + 1j * rng.normal(size=(d**k, d**k)) for k in range(1, n)}
    got = support([comps[k] for k in sizes] for sizes in support.groups)
    v = symmetric_isometry(stats, n, d)
    vt = np.eye(side) if v is None else v.T
    expected = np.zeros((rank, side), dtype=np.complex128)
    for p in partitions[1:]:
        legs = arrange(p)[1]
        product = place_product([(comps[len(labels)], labels) for labels in legs], n, d)
        phi = sum(
            (
                embed_matrix(pots[k], z, n, d)
                for k in couplings
                for z in itertools.combinations(range(1, n + 1), k)
                if all(set(b) & set(z) for b in p.blocks)
            ),
            np.zeros((side, side)),
        )
        expected += (1j / spec.hbar) * vt @ (product @ phi - phi @ product)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def test_generic_order_builds_one_product_per_block_size_type(monkeypatch):
    # d=4 Fermi, n_max=4: order 4 (side 256) reaches 7 partitions of two
    # block-size types, (3, 1) and (2, 2), and each of the 4 RK4 stages builds
    # one Kronecker product per type, not one placement per partition; orders
    # 2 and 3 reach one type each, and order 1 is tabulated
    d, n_max = 4, 4
    rng = np.random.default_rng(77)
    pots = {2: permutation_average(random_hermitian(rng, d**2), 2, d)}
    spec = InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials=pots)
    fermi = Statistics.FERMI
    comps = {
        n: ManyBodyOperator(n, d, rng.normal(size=(d**n, d**n)) + 1j * rng.normal(size=(d**n, d**n)), fermi)
        for n in range(1, n_max + 1)
    }
    g0 = CorrelationSequence(d=d, stats=fermi, n_max=n_max, components=comps)
    sides = Counter()

    def counting(factors, n, d):
        out = place_product(factors, n, d)
        sides[out.shape[0]] += 1
        return out

    monkeypatch.setattr(correlations, "place_product", counting)
    integrate_hierarchy(g0, 0.1, 1, spec)
    assert sides == {16: 4, 64: 4, 256: 8}


@pytest.mark.parametrize("stats", ALL_STATS)
def test_hierarchy_residual_richardson(stats):
    # the transformed unitary evolution solves the hierarchy, for pair
    # coupling and for mixed two- plus three-body coupling
    for spec, n_max in ((pair_spec(), 3), (mixed_spec(), 4)):
        rng = np.random.default_rng(64)
        d0 = random_sequence(rng, 2, stats, n_max, f0=1.0)

        def g_at(t):
            return density_to_correlations(oracles.direct_density_evolution(d0, t, spec))

        t, h = 0.3, 1e-4
        g_t = g_at(t)
        g_p, g_m, g_p2, g_m2 = g_at(t + h), g_at(t - h), g_at(t + h / 2), g_at(t - h / 2)
        for n in range(1, n_max + 1):
            coarse = (g_p.component(n).mat - g_m.component(n).mat) / (2 * h)
            fine = (g_p2.component(n).mat - g_m2.component(n).mat) / h
            deriv = (4 * fine - coarse) / 3
            assert trace_norm(deriv - von_neumann_rhs(g_t, n, spec).mat) < 1e-8


def test_generalized_rhs_core_only_is_pure_drift():
    spec = pair_spec()
    rng = np.random.default_rng(65)
    g = density_to_correlations(random_sequence(rng, 2, Statistics.BOSE, 3))
    xc = ClusterSet.canonical(3, 0)
    out = generalized_rhs(g, xc, spec)
    from corrdyn.hamiltonian import build_hamiltonian, von_neumann_generator

    own = clusterize(g, 3, 0).op
    expected = -von_neumann_generator(own, build_hamiltonian(3, spec)).mat
    assert np.allclose(out.mat, expected, atol=1e-12)


@pytest.mark.parametrize("stats", ALL_STATS)
def test_generalized_rhs_singletons_match_flat_hierarchy(stats):
    spec = pair_spec()
    rng = np.random.default_rng(66)
    g = density_to_correlations(random_sequence(rng, 2, stats, 3))
    for n in (2, 3):
        xc = ClusterSet.singletons(range(1, n + 1))
        lhs = generalized_rhs(g, xc, spec)
        rhs = von_neumann_rhs(g, n, spec)
        assert trace_norm(lhs - rhs) < 1e-11


@pytest.mark.parametrize("stats", ALL_STATS)
def test_generalized_hierarchy_residual_richardson(stats):
    # the cluster transform of the true trajectory solves the generalized
    # hierarchy, cluster-structured cases included, for pair coupling and
    # for mixed two- plus three-body coupling
    lanes = (
        (pair_spec(), 3, ((2, 0), (2, 1), (3, 0))),
        (mixed_spec(), 4, ((2, 1), (1, 2), (2, 2))),
    )
    for spec, n_max, clusters in lanes:
        rng = np.random.default_rng(73)
        d0 = random_sequence(rng, 2, stats, n_max, f0=1.0)

        def g_at(t):
            return density_to_correlations(oracles.direct_density_evolution(d0, t, spec))

        t, h = 0.3, 1e-4
        g_t = g_at(t)
        g_p, g_m, g_p2, g_m2 = g_at(t + h), g_at(t - h), g_at(t + h / 2), g_at(t - h / 2)
        for (s, n) in clusters:
            coarse = (clusterize(g_p, s, n).op.mat - clusterize(g_m, s, n).op.mat) / (2 * h)
            fine = (clusterize(g_p2, s, n).op.mat - clusterize(g_m2, s, n).op.mat) / h
            deriv = (4 * fine - coarse) / 3
            rhs = generalized_rhs(g_t, ClusterSet.canonical(s, n), spec).mat
            assert trace_norm(deriv - rhs) < 1e-8


def _partition_loop_generalized_rhs(g, cluster, spec):
    # -[C_X, H] plus the two-sided average of sum_p (i/hbar) [P_p, Phi_p] over
    # the multi-block partitions p of the cluster elements: P_p the placed
    # product of the blocks' cluster correlations, Phi_p every embedded
    # coupling whose support meets each block's labels
    d, m = g.d, len(cluster.declusterize())
    own, _ = cluster_correlation_matrix(g, tuple(el.labels for el in cluster.elements))
    out = -commutator_generator(own, hamiltonian_matrix(m, spec), spec.hbar)
    acc = np.zeros_like(out)
    for p in cluster_partitions(cluster):
        if p.size < 2:
            continue
        factors = [cluster_correlation_matrix(g, tuple(el.labels for el in b)) for b in p.blocks]
        product = place_product(factors, m, d)
        blocks = [block_labels(b) for b in p.blocks]
        for k, phi in spec.potentials.items():
            for z in itertools.combinations(range(1, m + 1), k):
                if all(set(b) & set(z) for b in blocks):
                    coupling = embed_matrix(phi, z, m, d)
                    acc += (1j / spec.hbar) * (product @ coupling - coupling @ product)
    return out + group_compress(g.stats, acc, m, d)


@pytest.mark.parametrize("stats", ALL_STATS, ids=str)
@pytest.mark.parametrize("d, n_max", [(2, 4), (3, 4), (4, 3)])
@pytest.mark.parametrize("couplings", [(2,), (2, 3)], ids=["2-body", "2+3-body"])
@pytest.mark.parametrize("raw", [False, True], ids=["symmetric", "raw"])
def test_generalized_rhs_matches_partition_loop(stats, d, n_max, couplings, raw):
    # the product rule on the exponential formula gives the interaction sum
    # over the partitions of the cluster elements, on canonical and on
    # reordered or paired cluster sets, for data symmetric or not
    rng = np.random.default_rng(78)
    pots = {k: permutation_average(random_hermitian(rng, d**k), k, d) for k in couplings}
    spec = InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials=pots, hbar=0.7)
    if raw:
        shapes = {n: (d**n, d**n) for n in range(1, n_max + 1)}
        mats = {n: rng.normal(size=sh) + 1j * rng.normal(size=sh) for n, sh in shapes.items()}
        comps = {n: ManyBodyOperator(n, d, mat, stats) for n, mat in mats.items()}
        g = OperatorSequence(d=d, stats=stats, n_max=n_max, components=comps)
    else:
        g = density_to_correlations(random_sequence(rng, d, stats, n_max))
    clusters = [ClusterSet.canonical(s, m - s) for m in range(1, n_max + 1) for s in range(1, m + 1)]
    clusters.append(ClusterSet((ClusterElement((1, 3)), ClusterElement((2,)))))
    if n_max >= 4:
        clusters.append(ClusterSet((ClusterElement((1, 2)), ClusterElement((3, 4)))))
    for cluster in clusters:
        expected = _partition_loop_generalized_rhs(g, cluster, spec)
        got = generalized_rhs(g, cluster, spec).mat
        assert np.linalg.norm(got - expected) <= 1e-13 * max(1.0, np.linalg.norm(expected))


def test_generalized_rhs_free_coupling():
    free = InteractionSpec(d=2, one_body=pair_spec().one_body)
    rng = np.random.default_rng(67)
    g = density_to_correlations(random_sequence(rng, 2, Statistics.FERMI, 3))
    xc = ClusterSet.canonical(2, 1)
    out = generalized_rhs(g, xc, free)
    from corrdyn.hamiltonian import build_hamiltonian, von_neumann_generator

    own = clusterize(g, 2, 1).op
    expected = -von_neumann_generator(own, build_hamiltonian(3, free)).mat
    assert np.allclose(out.mat, expected, atol=1e-12)


# ------------------------------------------------------- integrator

def test_integrate_zero_time_is_identity():
    spec = pair_spec()
    rng = np.random.default_rng(68)
    g0 = density_to_correlations(random_sequence(rng, 2, Statistics.BOSE, 3))
    out = integrate_hierarchy(g0, 0.0, 5, spec)
    assert max_component_gap(out, g0, 3) < 1e-14


def test_integrate_free_matches_group_evolution():
    free = InteractionSpec(d=2, one_body=pair_spec().one_body)
    cache = EvolutionCache(free)
    rng = np.random.default_rng(69)
    g0 = density_to_correlations(random_sequence(rng, 2, Statistics.BOSE, 3))
    out = integrate_hierarchy(g0, 0.8, 1600, free)
    for n in (1, 2, 3):
        expected = evolve_group(g0.component(n), 0.8, cache)
        assert trace_norm(out.component(n) - expected) < 1e-9


@pytest.mark.parametrize("stats", QUANTUM)
def test_integrate_interacting_matches_transform_route(stats):
    spec = pair_spec()
    rng = np.random.default_rng(70)
    d0 = random_sequence(rng, 2, stats, 3, f0=1.0)
    g0 = density_to_correlations(d0)
    out = integrate_hierarchy(g0, 0.5, 1000, spec)
    expected = density_to_correlations(oracles.direct_density_evolution(d0, 0.5, spec))
    assert max_component_gap(out, expected, 3) < 1e-9


def test_integrate_rejects_bad_step_count():
    spec = pair_spec()
    g0 = CorrelationSequence(d=2, stats=Statistics.BOSE, n_max=2)
    with pytest.raises(DomainError):
        integrate_hierarchy(g0, 1.0, 0, spec)


@pytest.mark.parametrize("stats", QUANTUM, ids=str)
def test_integrate_builds_no_dense_projector(stats, monkeypatch):
    # the tabulated orders (1-3 at d=2) read their blocks off the class term
    # and never build the dense group average S
    from corrdyn import hilbert

    def refuse(*args, **kwargs):
        raise AssertionError("dense projector built")

    rng = np.random.default_rng(79)
    g0 = density_to_correlations(random_sequence(rng, 2, stats, 3))
    spec = mixed_spec()
    expected, _ = reference_rk4(g0, 0.1, 2, spec)
    for module in (hilbert, correlations):
        monkeypatch.setattr(module, "symmetrizer_matrix", refuse, raising=False)
    out = integrate_hierarchy(g0, 0.1, 2, spec)
    for n in (1, 2, 3):
        assert np.linalg.norm(out.component(n).mat - expected[n]) <= 1e-13 * np.linalg.norm(expected[n])


def reference_rk4(g0, t_final, steps, spec):
    """Fixed-step RK4 over ``von_neumann_rhs``, one order at a time: the
    components after the last step, and the first step whose state is not
    finite (None when every step stays finite)."""
    d, stats, orders = g0.d, g0.stats, range(1, g0.n_max + 1)

    def rhs(y):
        comps = {n: ManyBodyOperator(n, d, y[n], stats) for n in orders}
        seq = OperatorSequence(d=d, stats=stats, n_max=g0.n_max, components=comps)
        return {n: von_neumann_rhs(seq, n, spec).mat for n in orders}

    y = {n: g0.component(n).mat for n in orders}
    h = t_final / steps
    for step in range(steps):
        try:
            k1 = rhs(y)
            k2 = rhs({n: y[n] + 0.5 * h * k1[n] for n in orders})
            k3 = rhs({n: y[n] + 0.5 * h * k2[n] for n in orders})
            k4 = rhs({n: y[n] + h * k3[n] for n in orders})
        except DomainError:  # a stage state or derivative is not finite
            return y, step
        y = {n: y[n] + (h / 6.0) * (k1[n] + 2.0 * k2[n] + 2.0 * k3[n] + k4[n]) for n in orders}
        if not all(np.isfinite(y[n]).all() for n in orders):
            return y, step
    return y, None


@pytest.mark.parametrize("stats", ALL_STATS)
@pytest.mark.parametrize(
    "d, n_max, couplings, generic",
    [(2, 4, (2,), {4}), (2, 4, (2, 3), {4}), (3, 3, (2,), {3}), (4, 2, (2,), {2})],
)
def test_integrate_matches_reference_rk4(stats, d, n_max, couplings, generic, monkeypatch):
    # the tabulated leading orders and the generic plans above them step like
    # RK4 over the one-order right-hand side, on components that are not
    # symmetric; only the generic orders evaluate a dense drift commutator
    rng = np.random.default_rng(74)
    pots = {k: permutation_average(random_hermitian(rng, d**k), k, d) for k in couplings}
    spec = InteractionSpec(d=d, one_body=random_hermitian(rng, d), potentials=pots)
    comps = {
        n: ManyBodyOperator(n, d, rng.normal(size=(d**n, d**n)) + 1j * rng.normal(size=(d**n, d**n)), stats)
        for n in range(1, n_max + 1)
    }
    g0 = CorrelationSequence(d=d, stats=stats, n_max=n_max, components=comps)
    expected, diverged = reference_rk4(g0, 0.1, 3, spec)
    assert diverged is None

    sides = []
    from corrdyn import correlations

    def counting(f, h, hbar):
        sides.append(f.shape[0])
        return commutator_generator(f, h, hbar)

    monkeypatch.setattr(correlations, "commutator_generator", counting)
    out = integrate_hierarchy(g0, 0.1, 3, spec)
    assert set(sides) == {d**n for n in generic}
    for n in range(1, n_max + 1):
        gap = np.linalg.norm(out.component(n).mat - expected[n])
        assert gap <= 1e-13 * np.linalg.norm(expected[n])


def test_integrate_reports_divergence_step():
    # An absurdly stiff drift makes fixed-step RK4 blow up to overflow, at
    # the step where RK4 over the one-order right-hand side does.
    rng = np.random.default_rng(71)
    stiff = InteractionSpec(d=2, one_body=1e6 * np.diag([1.0, -1.0]))
    g0 = density_to_correlations(random_sequence(rng, 2, Statistics.BOSE, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        _, diverged = reference_rk4(g0, 1.0, 200, stiff)
        with pytest.raises(IntegrationError) as err:
            integrate_hierarchy(g0, 1.0, 200, stiff)
    assert diverged is not None
    assert err.value.step == diverged
