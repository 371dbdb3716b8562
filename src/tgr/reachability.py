"""Bridge forests, reachability partitions and the crossing-edge listing.

Removing a bridge splits its snapshot into exactly two components, read off
the snapshot's cached DFS tree as the subtree below the bridge and the rest.
An edge whose endpoints land on opposite sides is a *crossing* edge: the
bridge lies on the tree path between its endpoints.  ``_forest`` contracts
that tree at its bridges; ``changeability.classify`` paints those paths on
it, and ``_crossings`` climbs them to list the relation for ``tgr classify
--dump-cross``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GraphError, StaticBridges, TemporalEdge, TemporalGraph, _snapshot_dfs


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


def _forest(n: int, t: int, dfs: StaticBridges) -> tuple[list[int], dict[int, tuple[TemporalEdge, int]]]:
    """Snapshot ``t``'s DFS tree contracted at its bridges: ``top[x]`` is the
    top vertex of x's component, and ``above[c]`` the bridge above top ``c``
    with the bridge's other endpoint."""
    enter, leave = dfs.enter, dfs.leave
    above = {c: (TemporalEdge(u, v, t), u + v - c) for (u, v), c in dfs.below.items()}
    top = list(range(n))
    tops: list[int] = []  # the tops on the tree path down to x
    for x in sorted(range(n), key=enter.__getitem__):
        while tops and leave[tops[-1]] <= enter[x]:
            tops.pop()
        if x in above or not tops:
            tops.append(x)
        else:
            top[x] = tops[-1]
    return top, above


def _crossings(g: TemporalGraph) -> list[tuple[TemporalEdge, tuple[int, int], list[TemporalEdge]]]:
    """Each bridge of ``g`` in canonical order, its side sizes (``bridge.u``'s
    first) and the other edges, of any time, crossing it, in canonical order.
    Each edge climbs its path in every forest, without merging: O(M) per
    snapshot with bridges, plus the output."""
    edges = g.sorted_edges()
    found = []
    for t, dfs in _snapshot_dfs(g).items():
        if not dfs.below:
            continue
        enter, leave = dfs.enter, dfs.leave
        top, above = _forest(g.n, t, dfs)
        members: dict[int, list[TemporalEdge]] = {c: [] for c in above}  # by the top below the bridge
        for e in edges:
            for c, other in ((top[e.u], enter[e.v]), (top[e.v], enter[e.u])):
                while not enter[c] <= other < leave[c]:  # c is no ancestor of the other end
                    b, parent = above[c]
                    if b != e:
                        members[c].append(e)
                    c = top[parent]
        for c, (b, _) in above.items():
            side = leave[c] - enter[c]
            found.append((b, (side, g.n - side) if c == b.u else (g.n - side, side), members[c]))
    return sorted(found)
