"""Level classification of temporal edges by how many relabels it takes to
turn them into non-bridges, with back-references for reconstructing a
shortest enabling sequence.

Level 0 holds the non-bridges.  A bridge gets level k+1 when some level-k
edge crosses its partition: once that helper is a non-bridge, moving the
helper's pair into the bridge's snapshot closes a cycle through the bridge.
Edges never reached by this breadth-first sweep can never be relabeled, no
matter what happens first.  ``classify`` tests each helper against the
bridges not yet leveled, each side read as an entry-order interval of the
snapshot's cached DFS tree, so it runs no traversal of its own and builds
no per-edge crossing map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import GraphError, RelabelOp, TemporalEdge, TemporalGraph, _snapshot_dfs


@dataclass(frozen=True)
class ChangeTable:
    """Per-edge levels plus back-references; unleveled edges are unchangeable."""

    edges: frozenset[TemporalEdge]
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
    snapshot.  The table must have been computed for exactly this graph.
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


def classify(g: TemporalGraph) -> ChangeTable:
    """Breadth-first level table of ``g``.

    Level 0 is the set of non-bridges.  Each bridge's side of its partition
    is the entry-order interval of the DFS subtree below it.  Each
    level-k helper, in canonical order, then claims every still-unleveled
    bridge whose partition it crosses as level k+1, recording itself as the
    back-reference.  A bridge whose enabling relabel would land on an
    occupied slot is skipped (this only happens when helper and bridge share
    the vertex pair).  The sweep stops when a level is empty or no bridge is
    left; everything unleveled is unchangeable.
    """
    pending: dict[TemporalEdge, tuple[list[int], int, int]] = {}  # unleveled bridge -> its side
    for t, dfs in _snapshot_dfs(g).items():
        for (u, v), c in dfs.below.items():
            pending[TemporalEdge(u, v, t)] = (dfs.enter, dfs.enter[c], dfs.leave[c])
    frontier = sorted(e for e in g.edges if e not in pending)
    levels: dict[TemporalEdge, int] = dict.fromkeys(frontier, 0)
    back_refs: dict[TemporalEdge, TemporalEdge] = {}
    k = 0
    while frontier and pending:
        k += 1
        nxt: list[TemporalEdge] = []
        for helper in frontier:
            u, v = helper.pair
            claimed = [
                b for b, (enter, lo, hi) in pending.items()
                if (lo <= enter[u] < hi) != (lo <= enter[v] < hi)
                and TemporalEdge(u, v, b.t) not in g.edges
            ]
            for b in claimed:
                del pending[b]
                levels[b] = k
                back_refs[b] = helper
            nxt.extend(claimed)
        frontier = sorted(nxt)
    return ChangeTable(g.edges, levels, back_refs, max(levels.values(), default=-1))
