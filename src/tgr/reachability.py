"""Reachability partitions of bridges and the crossing-edge test.

Removing a bridge splits its snapshot into exactly two components, read off
the snapshot's cached DFS tree as the subtree below the bridge and the rest.
An edge whose endpoints land on opposite sides is a *crossing* edge: the
bridge lies on the tree path between its endpoints.  ``tgr classify
--dump-cross`` lists this relation; the level sweep in
``changeability.classify`` never lists it, but paints those tree paths on
the same cached DFS tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GraphError, TemporalEdge, TemporalGraph, _snapshot_dfs


@dataclass(frozen=True)
class ReachabilityPartition:
    """The two components of a snapshot after removing one bridge."""

    bridge: TemporalEdge
    comp_u: frozenset[int]
    comp_v: frozenset[int]


def reachability_partition(g: TemporalGraph, bridge: TemporalEdge) -> ReachabilityPartition:
    """Partition of the vertices by the two sides of ``bridge``, read off
    the cached DFS tree.  Raises if the edge is missing, if ``g`` is not
    always-connected, or if the edge is not actually a bridge."""
    bridge = TemporalEdge(*bridge)
    if bridge not in g.edges:
        raise GraphError(f"not a temporal edge of the graph: {bridge!r}")
    dfs = _snapshot_dfs(g)[bridge.t]
    if bridge.pair not in dfs.below:
        raise GraphError(f"not a bridge: {bridge!r}")
    c = dfs.below[bridge.pair]
    side_c = frozenset(x for x in range(g.n) if dfs.enter[c] <= dfs.enter[x] < dfs.leave[c])
    rest = frozenset(range(g.n)) - side_c
    if c == bridge.u:
        return ReachabilityPartition(bridge, side_c, rest)
    return ReachabilityPartition(bridge, rest, side_c)


def is_crossing(p: ReachabilityPartition, pair: tuple[int, int]) -> bool:
    """True iff ``pair`` has one endpoint on each side of the partition."""
    a, b = pair
    return (a in p.comp_u and b in p.comp_v) or (a in p.comp_v and b in p.comp_u)
