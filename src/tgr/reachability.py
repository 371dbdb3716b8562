"""Reachability partitions and the crossing-edge listing.

Removing a bridge splits its snapshot into exactly two components: the
subtree below the bridge in the snapshot's cached spanning forest, and the
rest.  An edge whose endpoints land on opposite sides is a *crossing* edge:
the bridge lies on the tree path between its endpoints.  In that forest
each vertex's ``top`` names its 2-edge-connected component, so a tree path
crosses a bridge each time it climbs from a top to its parent, and the
forest's ``above`` names that bridge; ``changeability.classify`` paints
those paths, and ``_crossings`` climbs them to list the relation for
``tgr classify --dump-cross``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GraphError, TemporalEdge, TemporalGraph, _snapshot_forests


@dataclass(frozen=True)
class ReachabilityPartition:
    """The two components of a snapshot after removing one bridge."""

    bridge: TemporalEdge
    comp_u: frozenset[int]
    comp_v: frozenset[int]


def reachability_partition(g: TemporalGraph, bridge: TemporalEdge) -> ReachabilityPartition:
    """Partition of the vertices by the two sides of ``bridge``, read off
    the cached spanning forest.  Raises if the edge is missing, if ``g`` is not
    always-connected, or if the edge is not actually a bridge."""
    bridge = TemporalEdge(*bridge)
    if bridge not in g.edges:
        raise GraphError(f"not a temporal edge of the graph: {bridge!r}")
    forest = _snapshot_forests(g)[bridge.t]
    c = next((c for c in bridge.pair if forest.above.get(c) == bridge), None)  # the bridge's lower end
    if c is None:
        raise GraphError(f"not a bridge: {bridge!r}")
    inside = {c}  # c's subtree: parents come first in ``order``
    for x in forest.order:
        if forest.parent[x] in inside:
            inside.add(x)
    side_c = frozenset(inside)
    rest = frozenset(range(g.n)) - side_c
    if c == bridge.u:
        return ReachabilityPartition(bridge, side_c, rest)
    return ReachabilityPartition(bridge, rest, side_c)


def is_crossing(p: ReachabilityPartition, pair: tuple[int, int]) -> bool:
    """True iff ``pair`` has one endpoint on each side of the partition."""
    a, b = pair
    return (a in p.comp_u and b in p.comp_v) or (a in p.comp_v and b in p.comp_u)


def _crossings(g: TemporalGraph) -> list[tuple[TemporalEdge, tuple[int, int], list[TemporalEdge]]]:
    """Each bridge of ``g`` in canonical order, its side sizes (``bridge.u``'s
    first) and the other edges, of any time, crossing it, in canonical order.
    Each edge climbs its path in every forest, from the deeper top, without
    merging: O(M) per snapshot with bridges, plus the output."""
    edges = g.sorted_edges()
    found = []
    for forest in _snapshot_forests(g).values():
        parent, depth, top, above = forest.parent, forest.depth, forest.top, forest.above
        if not above:
            continue
        members: dict[int, list[TemporalEdge]] = {c: [] for c in above}
        for e in edges:
            a, b = top[e.u], top[e.v]
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                if above[a] != e:
                    members[a].append(e)
                a = top[parent[a]]
        size = [1] * g.n  # subtree sizes
        for x in reversed(forest.order[1:]):  # the one root comes first
            size[parent[x]] += size[x]
        for c, b in above.items():
            side = size[c]
            found.append((b, (side, g.n - side) if c == b.u else (g.n - side, side), members[c]))
    return sorted(found)
