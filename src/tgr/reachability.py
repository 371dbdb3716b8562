"""Reachability partitions of bridges and the crossing-edge structure.

Removing a bridge splits its snapshot into exactly two components; an edge
whose endpoints land on opposite sides is a *crossing* edge.  ``compute_cross``
inverts that relation: for every temporal edge it lists the bridges whose
partition the edge crosses, which is exactly what the changeability DP
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping

from .core import GraphError, TemporalEdge, TemporalGraph, _reach, find_bridges

CrossMap = Mapping[TemporalEdge, tuple[TemporalEdge, ...]]


@dataclass(frozen=True)
class ReachabilityPartition:
    """The two components of a snapshot after removing one bridge."""

    bridge: TemporalEdge
    comp_u: frozenset[int]
    comp_v: frozenset[int]


def reachability_partition(g: TemporalGraph, bridge: TemporalEdge) -> ReachabilityPartition:
    """Partition of the vertices by the two sides of ``bridge``.

    Two traversals of the snapshot minus the bridge, one from each endpoint.
    Raises if the edge is missing or is not actually a bridge.
    """
    bridge = TemporalEdge(*bridge)
    if bridge not in g.edges:
        raise GraphError(f"not a temporal edge of the graph: {bridge!r}")
    pairs = list(g.snapshot(bridge.t))
    pairs.remove(bridge.pair)
    side_u = _reach(g.n, pairs, bridge.u)
    if side_u[bridge.v]:
        raise GraphError(f"not a bridge: {bridge!r}")
    side_v = _reach(g.n, pairs, bridge.v)
    return ReachabilityPartition(
        bridge, frozenset(compress(range(g.n), side_u)), frozenset(compress(range(g.n), side_v))
    )


def is_crossing(p: ReachabilityPartition, pair: tuple[int, int]) -> bool:
    """True iff ``pair`` has one endpoint on each side of the partition."""
    a, b = pair
    return (a in p.comp_u and b in p.comp_v) or (a in p.comp_v and b in p.comp_u)


def compute_cross(g: TemporalGraph, counters: dict | None = None) -> dict[TemporalEdge, tuple[TemporalEdge, ...]]:
    """For every temporal edge, the bridges whose partition it crosses.

    Work per bridge is one traversal of its snapshot plus one scan over all
    temporal edges, so the total is quadratic in the edge count.  A bridge
    is never listed in its own entry.  When ``counters`` is given, it is
    filled with the amount of work done per kind, for complexity tests.
    """
    edge_list = g.sorted_edges()
    cross: dict[TemporalEdge, list[TemporalEdge]] = {e: [] for e in edge_list}
    bridges = sorted(find_bridges(g))
    by_t = g.edges_by_time()
    partition_visits = 0
    crossing_tests = 0
    for bridge in bridges:
        # mark one side of the partition; the other side is its complement
        pairs = by_t[bridge.t].copy()
        pairs.remove(bridge.pair)
        side = _reach(g.n, pairs, bridge.u)
        partition_visits += sum(side)
        for e in edge_list:
            crossing_tests += 1
            if side[e.u] != side[e.v] and e != bridge:
                cross[e].append(bridge)
    if counters is not None:
        counters["bridges"] = len(bridges)
        counters["partition_visits"] = partition_visits
        counters["crossing_tests"] = crossing_tests
    return {e: tuple(members) for e, members in cross.items()}
