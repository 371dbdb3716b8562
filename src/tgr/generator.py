"""Seeded random always-connected instances: per snapshot a uniform random
labeled spanning tree plus random further edges.  ``tgr gen`` and the tests
draw their graphs from here.
"""

from __future__ import annotations

import heapq
import random

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
        used = set(tree)
        for u, v in tree:
            edges.add(TemporalEdge(u, v, t))
        if extra_per_snapshot:
            pool = sorted(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (u, v) not in used
            )
            for u, v in rng.sample(pool, extra_per_snapshot):
                edges.add(TemporalEdge(u, v, t))
    names = tuple(f"v{i}" for i in range(n))
    return TemporalGraph(names, lifetime, frozenset(edges))
