import math

import pytest
from hypothesis import given, settings, strategies as st

from corrdyn.combinatorics import (
    BELL_CAP,
    ClusterElement,
    ClusterSet,
    Partition,
    bell_number,
    block_labels,
    cluster_partitions,
    declusterize,
    mobius_weight,
    nonempty_subsets,
    set_partitions,
)
from corrdyn.errors import DomainError, ResourceCapError
from corrdyn.oracles import bell_triangle, exhaustive_mobius_identity


def blocks_of(parts):
    return [tuple(tuple(b) for b in p.blocks) for p in parts]


def test_single_element_partition():
    assert blocks_of(set_partitions([1])) == [((1,),)]


def test_two_element_partitions_exhaustive():
    assert blocks_of(set_partitions([1, 2])) == [((1, 2),), ((1,), (2,))]


def test_three_element_count_matches_bell_oracle():
    assert len(set_partitions([1, 2, 3])) == bell_triangle(3) == 5


@given(st.integers(min_value=1, max_value=7))
def test_partition_count_is_bell(m):
    assert len(set_partitions(range(m))) == bell_triangle(m)


@given(st.integers(min_value=1, max_value=7))
def test_partitions_are_valid_and_distinct(m):
    ground = list(range(m))
    seen = set()
    for p in set_partitions(ground):
        flat = [x for b in p.blocks for x in b]
        assert sorted(flat) == ground          # disjoint cover
        assert all(b for b in p.blocks)        # nonempty blocks
        key = frozenset(frozenset(b) for b in p.blocks)
        assert key not in seen
        seen.add(key)


def test_enumeration_is_deterministic():
    a = blocks_of(set_partitions("abcd"))
    b = blocks_of(set_partitions("abcd"))
    assert a == b
    assert a[0] == (("a", "b", "c", "d"),)     # coarsest first
    assert a[-1] == (("a",), ("b",), ("c",), ("d",))


def test_blocks_ordered_by_first_appearance():
    for p in set_partitions([3, 1, 2]):
        firsts = [b[0] for b in p.blocks]
        order = [3, 1, 2]
        assert firsts == sorted(firsts, key=order.index)


def test_empty_ground_set_rejected():
    with pytest.raises(DomainError):
        set_partitions([])


def test_duplicate_ground_elements_rejected():
    with pytest.raises(DomainError):
        set_partitions([1, 1, 2])


def test_partition_cap():
    with pytest.raises(ResourceCapError):
        set_partitions(range(BELL_CAP + 1))


@pytest.mark.parametrize(
    "size,weight",
    [(1, 1), (2, -1), (3, 2), (4, -6), (5, 24)],
)
def test_mobius_weight(size, weight):
    p = Partition(tuple((i,) for i in range(size)))
    assert mobius_weight(p) == weight


@pytest.mark.parametrize("m,total", [(1, 1), (2, 0), (3, 0), (5, 0), (7, 0)])
def test_mobius_identity(m, total):
    assert exhaustive_mobius_identity(m) == total


@pytest.mark.parametrize("m", range(1, 8))
def test_signed_ordered_partition_count(m):
    # sum_k S(m,k) (-1)^k k! = (-1)^m: summed over the left-over satellites,
    # the cumulant weights collapse, which gives the subset form of the
    # traced cumulant series
    total = sum((-1) ** p.size * math.factorial(p.size) for p in set_partitions(range(m)))
    assert total == (-1) ** m


def test_nonempty_subsets_small():
    assert nonempty_subsets([1]) == [(1,)]
    assert nonempty_subsets([1, 2]) == [(1,), (2,), (1, 2)]
    assert len(nonempty_subsets([1, 2, 3, 4])) == 15


def test_nonempty_subsets_empty_rejected():
    with pytest.raises(DomainError):
        nonempty_subsets([])


def test_bell_numbers_match_triangle_oracle():
    for m in range(BELL_CAP + 1):
        assert bell_number(m) == bell_triangle(m)
    with pytest.raises(ResourceCapError):
        bell_number(BELL_CAP + 1)


def test_declusterize_flattens_in_element_order():
    xc = ClusterSet((ClusterElement((1, 2, 3)), ClusterElement((4,)), ClusterElement((5,))))
    assert declusterize(xc) == (1, 2, 3, 4, 5)


def test_declusterize_singletons():
    assert declusterize(ClusterSet.singletons([1, 2])) == (1, 2)
    assert declusterize(ClusterSet((ClusterElement((1,)),))) == (1,)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=6, unique=True))
def test_singleton_wrap_roundtrip(labels):
    assert declusterize(ClusterSet.singletons(labels)) == tuple(labels)


def test_canonical_cluster_set():
    xc = ClusterSet.canonical(2, 3)
    assert declusterize(xc) == (1, 2, 3, 4, 5)
    assert len(xc) == 4
    assert xc.elements[0].labels == (1, 2)


def test_cluster_set_disjointness_enforced():
    with pytest.raises(DomainError):
        ClusterSet((ClusterElement((1, 2)), ClusterElement((2,))))
    with pytest.raises(DomainError):
        ClusterElement(())


def test_cluster_partitions_keep_atoms_whole():
    xc = ClusterSet.canonical(2, 1)
    for p in cluster_partitions(xc):
        for block in p.blocks:
            labels = block_labels(block)
            # the atomic pair travels together
            assert (1 in labels) == (2 in labels)


def test_cluster_partitions_are_cached_per_cluster_set():
    # one enumeration per cluster set: an equal cluster set built anew
    # gets the same tuple, in the order of set_partitions over its elements
    xc = ClusterSet.canonical(2, 3)
    out = cluster_partitions(xc)
    assert isinstance(out, tuple)
    assert out is cluster_partitions(ClusterSet.canonical(2, 3))
    assert list(out) == set_partitions(xc.elements)
    assert cluster_partitions(ClusterSet.canonical(2, 2)) != out


def test_block_labels_mixed_items():
    assert block_labels((ClusterElement((3, 1)), (5,), 2)) == (1, 2, 3, 5)
