"""Reachability partitions of bridges and the crossing-edge test.

Removing a bridge splits its snapshot into exactly two components; an edge
whose endpoints land on opposite sides is a *crossing* edge.  The level
sweep in ``changeability.classify`` and ``tgr classify --dump-cross`` are
both built on this relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .core import GraphError, TemporalEdge, TemporalGraph, _reach


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
