"""Seeded random always-connected instances: per snapshot a uniform random
labeled spanning tree plus random further edges.  ``tgr gen`` and the tests
draw their graphs from here.  The further edges are sampled from a lazy view
of the non-tree pairs, so a snapshot takes O(n + extra) time and memory, not
O(n²).
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from collections.abc import Sequence
from math import isqrt

from .core import GraphError, TemporalEdge, TemporalGraph


def _random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree (sequence decoding)."""
    if n <= 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges: list[tuple[int, int]] = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


class _NonTreePairs(Sequence):
    """The vertex pairs ``(u, v)``, u < v, that are not in ``tree``, in sorted
    order, each computed on demand: rank arithmetic plus one bisect over the
    tree pairs' ranks."""

    def __init__(self, n: int, tree: list[tuple[int, int]]):
        self.n = n
        self.pairs = n * (n - 1) // 2
        ranks = sorted(u * (2 * n - u - 1) // 2 + v - u - 1 for u, v in tree)
        self.below = [r - j for j, r in enumerate(ranks)]  # non-tree ranks below each tree rank
        self.size = self.pairs - len(ranks)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.size:
            raise IndexError(i)  # random.sample copies a small population by iterating up to this
        rank = i + bisect_right(self.below, i)
        u = self.n - 2 - (isqrt(8 * (self.pairs - 1 - rank) + 1) - 1) // 2
        return u, rank - u * (2 * self.n - u - 1) // 2 + u + 1


def generate_random_instance(
    n: int, lifetime: int, extra_per_snapshot: int, seed: int
) -> TemporalGraph:
    """Always-connected random instance: per snapshot a uniform spanning
    tree plus ``extra_per_snapshot`` random further edges.  Deterministic
    per seed.
    """
    if n < 1:
        raise GraphError("need at least one vertex")
    if lifetime < 1:
        raise GraphError("lifetime must be at least 1")
    capacity = n * (n - 1) // 2 - (n - 1)
    if extra_per_snapshot < 0 or extra_per_snapshot > capacity:
        raise GraphError(
            f"extra_per_snapshot must be in 0..{capacity} for n={n}"
        )
    rng = random.Random(seed)
    edges: set[TemporalEdge] = set()
    for t in range(1, lifetime + 1):
        tree = _random_tree(n, rng)
        for u, v in tree + rng.sample(_NonTreePairs(n, tree), extra_per_snapshot):
            edges.add(TemporalEdge(u, v, t))
    names = tuple(f"v{i}" for i in range(n))
    return TemporalGraph(names, lifetime, frozenset(edges))
