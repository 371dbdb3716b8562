"""Level classification of temporal edges by how many relabels it takes to
turn them into non-bridges, with back-references for reconstructing a
shortest enabling sequence.

Level 0 holds the non-bridges.  A bridge gets level k+1 when some level-k
edge crosses its partition: once that helper is a non-bridge, moving the
helper's pair into the bridge's snapshot closes a cycle through the bridge.
Edges never reached by this breadth-first sweep can never be relabeled, no
matter what happens first.  A helper crosses a bridge exactly when the
bridge lies on the helper's path in the snapshot's cached spanning forest,
so ``classify`` paints those paths on a copy of the forest's union-find,
one per snapshot, and claims each bridge once from a copy of the forest's
bridge map; it runs no traversal of its own and builds no per-edge
crossing map.  ``_sweep`` is the one way in: ``classify``, which also
decides feasibility (``planner``), stops once every edge it is asked about
has a level.  A plan feeds it the forests and the set of non-bridges it
keeps current, and wants only the smallest differing edge of the first
level that levels one, with its chain: that level is painted snapshot by
snapshot, smallest differing edge first, only until that edge is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Collection, Iterable, Mapping

from .core import (
    GraphError,
    RelabelOp,
    StaticBridges,
    TemporalEdge,
    TemporalGraph,
    _find,
    _Forest,
    _snapshot_forests,
)


@dataclass(frozen=True)
class ChangeTable:
    """Per-edge levels plus back-references; unleveled edges are unchangeable."""

    edges: AbstractSet[TemporalEdge]
    levels: Mapping[TemporalEdge, int]
    back_refs: Mapping[TemporalEdge, TemporalEdge]
    max_level: int  # largest occupied level, -1 if none

    def level(self, edge: TemporalEdge) -> int | None:
        """Level of ``edge``, or None when it is unchangeable."""
        edge = TemporalEdge(*edge)
        if edge not in self.edges:
            raise GraphError(f"not a temporal edge of the graph: {edge!r}")
        return self.levels.get(edge)

    def is_changeable(self, edge: TemporalEdge) -> bool:
        return self.level(edge) is not None

    def unchangeable_edges(self) -> list[TemporalEdge]:
        return sorted(e for e in self.edges if e not in self.levels)


def sequence_to_nonbridge(
    g: TemporalGraph, table: ChangeTable, target: TemporalEdge
) -> list[RelabelOp]:
    """Shortest relabeling sequence after which ``target`` is a non-bridge.

    Walks the back-reference chain down to a non-bridge, then emits one op
    per link: each moves the previous link's pair into the next link's
    snapshot.  The table must have been computed for exactly this graph;
    ``g`` itself is not read.
    """
    target = TemporalEdge(*target)
    k = table.level(target)
    if k is None:
        raise GraphError(f"edge is unchangeable: {target!r}")
    chain = [target]
    while table.levels[chain[-1]] > 0:
        chain.append(table.back_refs[chain[-1]])
    chain.reverse()  # chain[0] is a non-bridge, chain[-1] == target
    return [
        RelabelOp(prev.u, prev.v, prev.t, nxt.t)
        for prev, nxt in zip(chain, chain[1:])
    ]


def classify(g: TemporalGraph, *, until: Collection[TemporalEdge] | None = None) -> ChangeTable:
    """Breadth-first level table of ``g``.

    Level 0 is the set of non-bridges.  Each level-k helper ``{u, v}``, in
    canonical order, then claims as level k+1 every still-unleveled bridge
    on the tree path from u to v in each snapshot (exactly the bridges
    whose partition it crosses), recording itself as the back-reference.
    A snapshot where the helper's pair already has an edge is skipped: the
    enabling relabel would land on an occupied slot, and the path there is
    that one edge.  The sweep stops when a level is empty or no bridge is
    left; everything unleveled is unchangeable.

    Per snapshot, a copy of the cached ``top`` is a union-find that
    contracts every edge but the unleveled bridges; each set is named by
    its shallowest vertex.  Painting a path climbs from the deeper of the
    two tops, claiming the bridge above it and merging it into its parent's
    set, until the tops meet, so every bridge is visited once (Gabow &
    Tarjan 1985).

    With ``until`` (edges of ``g``), the sweep ends after the first full
    level at which all of them have a level, or at once when all are
    non-bridges.  Only the edges of ``until``, their chains, and the levels
    up to the stop level are then exact: deeper edges, and on the early
    return the other non-bridges, are left out.
    """
    edges = g.edges
    forests = _snapshot_forests(g)
    # an edge of g is a bridge iff its snapshot's map holds it at one of its ends
    if until is not None and all(e in edges and e not in map(forests[e.t].above.get, e.pair) for e in until):
        return ChangeTable(edges, dict.fromkeys(until, 0), {}, 0 if until else -1)
    nonbridges = edges.difference(*(f.above.values() for f in forests.values()))
    return _sweep(edges, forests, nonbridges, until, all)


def _sweep(
    edges: AbstractSet[TemporalEdge],
    forests: Mapping[int, StaticBridges | _Forest],
    nonbridges: Collection[TemporalEdge],
    until: Collection[TemporalEdge] | None,
    enough: Callable[[Iterable[bool]], bool],
) -> ChangeTable:
    """The level sweep of ``classify`` on ``edges``, whose bridges are
    those of ``forests``, each snapshot's forest keyed by time, and whose
    non-bridges are ``nonbridges``, level 0, which it sorts into canonical
    order and only reads.  It paints a copy of each forest's ``top`` and
    claims from a copy of its ``above``; ``depth`` need only grow from
    parent to child.

    With ``until`` and ``enough=all``, it stops after the first full level
    at which every edge of ``until`` has a level.  With ``enough=any``, the
    sweep is goal-directed: at each level it visits the snapshots in the
    order of their smallest edge of ``until``, and paints each only until
    that edge is claimed.  Once some edge of ``until`` is claimed, it visits
    a further snapshot only while that snapshot's smallest edge of
    ``until`` is below the smallest one claimed so far, and then stops.  A
    bridge is claimed only by painting in its own snapshot, so the order of
    the snapshots changes no back-reference.  Either way the levels below
    the stop level, and their chains, are exact; at the stop level the
    table holds the smallest levelled edge of ``until`` and its chain."""
    painters = {t: (list(f.top), f.parent, f.depth, dict(f.above)) for t, f in forests.items() if f.above}
    goals: dict[int, list[TemporalEdge]] = {}  # goal-directed: each snapshot's edges of until, in order
    for e in sorted(until) if enough is any else ():
        goals.setdefault(e.t, []).append(e)
    order = [*goals, *(t for t in painters if t not in goals)]  # goals keep the order of their smallest edges
    frontier = sorted(nonbridges)
    levels: dict[TemporalEdge, int] = dict.fromkeys(frontier, 0)
    back_refs: dict[TemporalEdge, TemporalEdge] = {}
    k, best = 0, None
    while frontier and painters:
        if until and enough(map(levels.__contains__, until)):
            break  # every level so far, and every chain down from until, is final
        k += 1
        nxt: list[TemporalEdge] = []
        for t in order:
            if t not in painters:
                continue
            mine = goals.get(t, ())
            if best is not None and not (mine and mine[0] < best):
                break  # no snapshot left can level a smaller edge of until
            goal = mine[0] if mine else None
            top, parent, depth, above = painters[t]
            for helper in frontier:
                u, v, _ = helper
                a, b = top[u], top[v]
                if top[a] != a:
                    a = _find(top, a)
                if top[b] != b:
                    b = _find(top, b)
                if a == b or (u, v, t) in edges:
                    continue
                while a != b:  # a is the deeper top: claim the bridge above it
                    if depth[a] < depth[b]:
                        a, b = b, a
                    bridge = above.pop(a)
                    levels[bridge] = k
                    back_refs[bridge] = helper
                    nxt.append(bridge)
                    p = parent[a]
                    while top[p] != p:
                        top[p] = p = top[top[p]]
                    top[a] = a = p  # merge into the parent's set
                if not above:
                    del painters[t]
                    break
                if goal in levels:
                    break  # the snapshot's smallest edge of until: nothing smaller can follow
            hit = next(filter(levels.__contains__, mine), None)
            if hit is not None and (best is None or hit < best):
                best = hit
        if best is not None:
            break  # the stop level: left unsorted
        frontier = sorted(nxt)
    return ChangeTable(edges, levels, back_refs, max(levels.values(), default=-1))
