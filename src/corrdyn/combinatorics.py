"""Set partitions, subsets and cluster bookkeeping.

The evolution-group cumulants and the hierarchy right-hand sides are
weighted sums over set partitions (the correlation transforms sum over
subsets instead, see ``correlations``), so enumeration order is fixed once
and for all: partitions are generated in restricted-growth order, blocks
are ordered by their least element, and elements inside a block keep ground
order.  That makes every reduction over partition terms replayable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, TypeVar

from .errors import DomainError, ResourceCapError

T = TypeVar("T")

#: Largest ground-set size for which partition enumeration is allowed.
#: Bell numbers grow super-exponentially; anything larger is a mistake.
BELL_CAP = 12

_BELL: list[int] = [1]
while len(_BELL) <= BELL_CAP:
    # Bell triangle row extension: B(m+1) = sum_k C(m,k) B(k)
    m = len(_BELL) - 1
    _BELL.append(sum(math.comb(m, k) * _BELL[k] for k in range(m + 1)))


def bell_number(m: int) -> int:
    """Number of partitions of an m-element set, for 0 <= m <= BELL_CAP."""
    if m < 0 or m > BELL_CAP:
        raise ResourceCapError(f"bell_number: m={m} outside [0, {BELL_CAP}]")
    return _BELL[m]


@dataclass(frozen=True)
class ClusterElement:
    """One element of a cluster set: a nonempty group of particle labels.

    A singleton stands for a bare particle; a multi-label element is an
    atomic cluster that partitions are not allowed to split.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        if not self.labels:
            raise DomainError("ClusterElement needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError(f"duplicate labels in cluster element {self.labels}")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ClusterSet:
    """Ordered collection of pairwise disjoint cluster elements."""

    elements: tuple[ClusterElement, ...]

    def __post_init__(self):
        flat = [l for el in self.elements for l in el.labels]
        if len(set(flat)) != len(flat):
            raise DomainError("cluster elements must be pairwise disjoint")

    @classmethod
    def canonical(cls, s: int, n: int) -> "ClusterSet":
        """The cluster set ({1..s}, s+1, ..., s+n): one atomic s-cluster plus
        n satellite particles."""
        if s < 1 or n < 0:
            raise DomainError(f"canonical cluster set needs s >= 1, n >= 0, got {s}, {n}")
        head = ClusterElement(tuple(range(1, s + 1)))
        sats = tuple(ClusterElement((s + i,)) for i in range(1, n + 1))
        return cls((head,) + sats)

    @classmethod
    def singletons(cls, labels: Iterable[int]) -> "ClusterSet":
        return cls(tuple(ClusterElement((l,)) for l in labels))

    def declusterize(self) -> tuple[int, ...]:
        """Flatten to the underlying particle labels, element order kept."""
        return tuple(l for el in self.elements for l in el.labels)

    def __len__(self) -> int:
        return len(self.elements)


def declusterize(x: ClusterSet) -> tuple[int, ...]:
    """Flattening map from a cluster set to its ordered particle labels."""
    return x.declusterize()


@dataclass(frozen=True)
class Partition:
    """A decomposition of a ground set into nonempty disjoint blocks.

    Blocks are tuples in first-appearance order (equivalently: ordered by
    least element when the ground set is sorted); ``size`` is the block
    count used by the signed partition weights.
    """

    blocks: tuple[tuple, ...]

    @property
    def size(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def set_partitions(ground: Sequence[T]) -> list[Partition]:
    """All partitions of ``ground``, in restricted-growth order.

    The first partition is the single-block one, the last is all-singletons.
    Raises DomainError for an empty ground set and ResourceCapError when
    len(ground) exceeds ``BELL_CAP``.
    """
    items = list(ground)
    if not items:
        raise DomainError("cannot partition an empty ground set")
    if len(set(items)) != len(items):
        raise DomainError("ground set elements must be distinct")
    if len(items) > BELL_CAP:
        raise ResourceCapError(
            f"partition enumeration over {len(items)} elements exceeds cap {BELL_CAP} "
            f"(Bell({len(items)}) terms)"
        )

    out: list[Partition] = []
    blocks: list[list[T]] = []

    def rec(idx: int):
        if idx == len(items):
            out.append(Partition(tuple(tuple(b) for b in blocks)))
            return
        x = items[idx]
        for b in blocks:
            b.append(x)
            rec(idx + 1)
            b.pop()
        blocks.append([x])
        rec(idx + 1)
        blocks.pop()

    rec(0)
    return out


def mobius_weight(p: Partition) -> int:
    """Signed coefficient (-1)^(|P|-1) (|P|-1)! attached to a partition in
    the cluster-expansion inversion."""
    k = p.size
    return (-1) ** (k - 1) * math.factorial(k - 1)


def nonempty_subsets(s: Sequence[T]) -> list[tuple[T, ...]]:
    """All 2^|s| - 1 nonempty subsets of ``s``, by size then ground order."""
    items = list(s)
    if not items:
        raise DomainError("nonempty_subsets of an empty set")
    out: list[tuple[T, ...]] = []
    for r in range(1, len(items) + 1):
        out.extend(itertools.combinations(items, r))
    return out


@lru_cache(maxsize=None)
def cluster_partitions(x: ClusterSet) -> tuple[Partition, ...]:
    """Partitions of a cluster set's elements (atomic clusters never split),
    in the order of ``set_partitions``.  A function of the cluster set
    alone, so it is cached per cluster set, and a tuple of frozen
    partitions, so no caller can change the cached value."""
    return tuple(set_partitions(x.elements))


def block_labels(block: Iterable) -> tuple[int, ...]:
    """Sorted particle labels underlying a block whose items are labels,
    label tuples, or cluster elements."""
    labels: list[int] = []
    for item in block:
        if isinstance(item, ClusterElement):
            labels.extend(item.labels)
        elif isinstance(item, tuple):
            labels.extend(item)
        else:
            labels.append(item)
    return tuple(sorted(labels))
