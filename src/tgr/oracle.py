"""Exhaustive breadth-first search over the graphs reachable by valid
relabels: shortest sequences, reachability, and minimal step counts for
turning a given edge into a non-bridge.  Ground truth at small scale for
everything the fast algorithms claim.

States are ``int`` bitmasks over the fixed (pair, time) slots.  A state
expands by moving any non-bridge to any free slot of its pair; such a move
always preserves the always-connected property, so every visited state is
valid by construction.  A state's non-bridges are the edges on the
fundamental cycles of one spanning tree per snapshot.  Only the end states
build their trees by breadth-first search; every other state derives its
trees from its parent's, changing two snapshots by one edge and at most
one tree exchange.  All searches share one level-expansion step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable

from .core import (
    GraphError,
    RelabelOp,
    TemporalEdge,
    TemporalGraph,
    require_endpoints,
)

CanonicalState = tuple[TemporalEdge, ...]


@dataclass(frozen=True)
class OracleBudget:
    max_states: int = 5_000_000
    max_depth: int | None = None

    def __post_init__(self):
        if self.max_states < 1:
            raise GraphError("max_states must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise GraphError("max_depth must be non-negative")


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "unreachable" | "budget"
    sequence: tuple[RelabelOp, ...] | None = None


@dataclass(frozen=True)
class MinStepsOutcome:
    status: str  # "steps" | "never" | "budget"
    steps: int | None = None


def canonical_state(g: TemporalGraph) -> CanonicalState:
    return tuple(g.sorted_edges())


class _Slots:
    """The states of one search.  Bit ``p·T + t − 1`` holds the edge of
    ``pairs[p]`` at time ``t``; the pairs are sorted, so ascending bits list
    a state's edges in canonical (``sorted``) order, and a relabel is
    ``state ^ src_bit ^ dst_bit``.

    A state's non-bridges are read off its *trees*, one spanning tree per
    snapshot.  A tree is a tuple ``(paths, nontree, nonbridges, *cycles)``:
    ``nontree`` masks the snapshot's edges off the tree, ``cycles`` holds
    their fundamental cycles, and ``nonbridges`` is the cycles' union, the
    snapshot's non-bridges (Paton 1969).  ``paths`` masks each vertex's
    tree path to vertex 0: a list by vertex, or ``(earlier, src, cycle,
    swaps)``, the paths of ``earlier`` after the tree edge ``src`` was
    exchanged for the non-tree edge on ``cycle``, the ``swaps``-th exchange
    since the last list.  Only an end state's trees come from a
    breadth-first search; every other state derives its trees from its
    parent's (``derive``)."""

    FOLD = 8  # exchanges kept before the paths are folded into a new list

    def __init__(self, *graphs: TemporalGraph, memo_size: int):
        self.n, self.lifetime = graphs[0].n, graphs[0].lifetime
        pairs = sorted({e.pair for g in graphs for e in g.edges})
        slots = [TemporalEdge(u, v, t) for u, v in pairs for t in range(1, self.lifetime + 1)]
        self.bit = {e: 1 << i for i, e in enumerate(slots)}
        self.ends = [sum(map(self.bit.__getitem__, g.edges)) for g in graphs]  # the graphs' states
        bits = list(self.bit.values())
        T = self.lifetime if bits else 0  # n >= 2 gives T <= M; an edgeless graph gets no per-snapshot table
        # the moves of each slot: to the other slots of its pair, in ascending time
        self.moves = {bit: [o for o in bits[i - i % T:i - i % T + T] if o != bit] for i, bit in enumerate(bits)}
        self.masks = [sum(bits[t::T]) for t in range(T)]  # the slots of each snapshot
        self.adj = [[[] for _ in range(self.n)] for _ in range(T)]  # (neighbour, bit) by snapshot and vertex
        self.slot = {}  # each slot's (snapshot index, u, v), keyed by its bit
        for e, bit in self.bit.items():
            self.adj[e.t - 1][e.u].append((e.v, bit))
            self.adj[e.t - 1][e.v].append((e.u, bit))
            self.slot[bit] = e.t - 1, e.u, e.v
        self.memo = {}  # trees by snapshot mask
        # With lifetime 2 and fixed pair counts one snapshot's mask fixes the
        # whole state, so a memo of snapshot masks could never hit there.
        self.memo_size = memo_size if T >= 3 else 0

    def edges(self, mask: int) -> list[TemporalEdge]:
        return [e for e, bit in self.bit.items() if mask & bit]

    def op(self, before: int, after: int) -> RelabelOp:
        """The relabel that turns ``before`` into ``after``."""
        (src,), (dst,) = self.edges(before & ~after), self.edges(after & ~before)
        return RelabelOp(src.u, src.v, src.t, dst.t)

    @staticmethod
    def nonbridges(trees: tuple) -> int:
        """The non-bridges of a state with these trees."""
        out = 0
        for tree in trees:
            out |= tree[2]
        return out

    def derive(self, state: int, parent: int | None = None, trees: tuple | None = None) -> tuple:
        """The trees of ``state``: by breadth-first search without ``trees``,
        else from ``trees``, those of ``parent``, one relabel away.  Only
        the relabel's two snapshots change.  The one that gains ``dst``
        keeps its tree and gains the cycle that ``dst`` closes.  The one
        that loses the non-bridge ``src`` drops its cycle if ``src`` is off
        the tree; else the first cycle through ``src`` swaps its non-tree
        edge into the tree in ``src``'s place, and every cycle through
        ``src`` takes that cycle's detour instead.  Sound because every
        snapshot of every state is connected: the endpoints pass
        ``require_endpoints``, and only non-bridges move."""
        masks, memo = self.masks, self.memo
        if trees is None:
            keys = [state & mask for mask in masks]
            return tuple(memo.get(key) or self._remember(key, self._search(key, t)) for t, key in enumerate(keys))
        src, dst = parent & ~state, state & ~parent
        a, b = self.slot[src][0], self.slot[dst][0]
        out = list(trees)
        key = state & masks[a]
        out[a] = memo.get(key) or self._remember(key, self._lose(trees[a], src))
        key = state & masks[b]
        out[b] = memo.get(key) or self._remember(key, self._gain(trees[b], dst))
        return tuple(out)

    def _remember(self, key: int, tree: tuple) -> tuple:
        """Keep ``tree`` as the tree of the snapshot whose edges are the bits
        of ``key``, while the memo has room; for lifetime 3 and up only,
        since states share most of their snapshots there."""
        if len(self.memo) < self.memo_size:
            self.memo[key] = tree
        return tree

    def _search(self, present: int, t: int) -> tuple:
        """The BFS tree from vertex 0 of snapshot ``t + 1``, whose edges are
        the bits of ``present``."""
        adj, paths = self.adj[t], [None] * self.n
        paths[0], nontree, cycles, queue = 0, 0, [], [0]
        for x in queue:
            for y, bit in adj[x]:
                if not present & bit:
                    continue
                if paths[y] is None:
                    paths[y] = paths[x] | bit
                    queue.append(y)
                elif not (paths[x] | nontree) & bit:  # not x's tree edge, nor met from y
                    nontree |= bit
                    cycles.append(bit | paths[x] ^ paths[y])
        return (paths, nontree, reduce(or_, cycles, 0), *cycles)

    def _gain(self, tree: tuple, dst: int) -> tuple:
        _, u, v = self.slot[dst]
        paths, nontree, nonbridges, *cycles = tree
        cycle = dst | self._route(paths, u, v)
        return (paths, nontree | dst, nonbridges | cycle, *cycles, cycle)

    def _lose(self, tree: tuple, src: int) -> tuple:
        paths, nontree, _, *cycles = tree
        if nontree & src:  # src lies on its own cycle alone
            cycles = [c for c in cycles if not c & src]
            return (paths, nontree ^ src, reduce(or_, cycles, 0), *cycles)
        swap = cycles.pop(next(i for i, c in enumerate(cycles) if c & src))
        swaps = 1 if isinstance(paths, list) else paths[3] + 1
        paths = (paths, src, swap, swaps)
        if swaps == self.FOLD:
            paths = self._fold(paths)
        cycles = [c ^ swap if c & src else c for c in cycles]
        return (paths, nontree & ~swap, reduce(or_, cycles, 0), *cycles)

    @staticmethod
    def _route(paths, u: int, v: int) -> int:
        """The tree path from ``u`` to ``v``: an exchange of ``src`` for
        ``cycle`` reroutes a path through ``src`` around the rest of
        ``cycle``."""
        if isinstance(paths, list):
            return paths[u] ^ paths[v]
        earlier, src, cycle, _ = paths
        route = _Slots._route(earlier, u, v)
        return route ^ cycle if route & src else route

    @staticmethod
    def _fold(paths) -> list[int]:
        """``paths`` as a list by vertex."""
        if isinstance(paths, list):
            return paths
        earlier, src, cycle, _ = paths
        return [p ^ cycle if p & src else p for p in _Slots._fold(earlier)]


def _expand(space: _Slots, level: tuple[list, list], parents: dict, room: int | None,
            visit: Callable[[int], bool] = lambda nonbridges: False, meet=()):
    """Grow one whole BFS level in canonical move order.  ``level`` is a
    pair of lists: the states, and the trees of each one's parent (None for
    an end state).  Each state's trees are derived from them once, and its
    non-bridge mask is shown to ``visit`` first; a true answer ends the
    step as ``("visit", None)``.  With ``room`` None the level is only
    visited.  A successor new to ``parents`` is recorded there with its
    parent, unless it ends the step: one in ``meet`` as ``("meet", (state,
    successor))``, one past ``room`` states as ``("budget", None)``.  Else
    the step returns ``("next", next_level)``."""
    nxt = [], []
    for state, via in zip(*level):
        trees = space.derive(state, parents[state], via)
        nonbridges = space.nonbridges(trees)
        if visit(nonbridges):
            return "visit", None
        if room is None:
            continue
        while nonbridges:
            src = nonbridges & -nonbridges
            nonbridges ^= src
            for dst in space.moves[src]:
                succ = state ^ src ^ dst
                if state & dst or succ in parents:
                    continue
                if succ in meet:
                    return "meet", (state, succ)
                if len(parents) >= room:
                    return "budget", None
                parents[succ] = state
                nxt[0].append(succ)
                nxt[1].append(trees)
    return "next", nxt


def _forward(space: _Slots, budget: OracleBudget, goal: Callable[[int, int], bool]):
    """BFS from the space's graph.  ``goal(nonbridges, depth)`` sees every
    state once, in BFS order; the search stops at the first it accepts.
    Returns ``("found", depth)``, ``("budget", None)`` when ``max_states`` or
    ``max_depth`` cut the search short, or ``("exhausted", None)``."""
    level, depth = (space.ends, [None]), 0
    parents = dict.fromkeys(space.ends)
    while level[0]:
        capped = budget.max_depth is not None and depth >= budget.max_depth
        status, level = _expand(space, level, parents, None if capped else budget.max_states,
                                lambda nonbridges: goal(nonbridges, depth))
        if status == "visit":
            return "found", depth
        if status == "budget" or capped:
            return "budget", None
        depth += 1
    return "exhausted", None


def oracle_shortest_sequence(
    g1: TemporalGraph, g2: TemporalGraph, budget: OracleBudget = OracleBudget()
) -> SearchOutcome:
    """Provably shortest valid sequence from g1 to g2, by bidirectional BFS
    (Pohl 1971): valid relabels are reversible, so a BFS grows from each
    end, a whole level of the smaller frontier at a time.  With no meet at
    depths (a, b) the distance exceeds a + b, so the first new state the
    other side has seen closes a shortest sequence.  ``max_states`` bounds
    the states both sides hold, ``max_depth`` the length.  "unreachable" is
    only reported when one side enumerated its whole component within
    budget; once a cap bites, the search stops with "budget".
    """
    require_endpoints(g1, g2)
    if g1.edges == g2.edges:  # before the slot space, whose size is the pairs times the lifetime
        return SearchOutcome("found", ())
    space = _Slots(g1, g2, memo_size=budget.max_states)
    levels = [([end], [None]) for end in space.ends]  # forward, backward
    parents = [dict.fromkeys(states) for states, _ in levels]
    length = 0  # the depths of both sides together
    while levels[0][0] and levels[1][0]:
        if budget.max_depth is not None and length >= budget.max_depth:
            return SearchOutcome("budget")
        side = 1 if len(levels[1][0]) < len(levels[0][0]) else 0
        other = parents[1 - side]
        status, out = _expand(space, levels[side], parents[side], budget.max_states - len(other), meet=other)
        if status == "budget":
            return SearchOutcome("budget")
        if status == "meet":
            path = list(out if side == 0 else out[::-1])  # a forward state, then a backward one
            while parents[0][path[0]] is not None:
                path.insert(0, parents[0][path[0]])
            while parents[1][path[-1]] is not None:
                path.append(parents[1][path[-1]])
            return SearchOutcome("found", tuple(map(space.op, path, path[1:])))
        levels[side] = out
        length += 1
    return SearchOutcome("unreachable")


def oracle_min_steps_to_nonbridge(
    g: TemporalGraph, target: TemporalEdge, budget: OracleBudget = OracleBudget()
) -> MinStepsOutcome:
    """Minimal number of valid relabels after which the slot ``target``
    exists and is a non-bridge.

    States where the target slot is vacated do not count as success; the
    search keeps going through them.
    """
    target = TemporalEdge(*target)
    require_endpoints(g)
    if target not in g.edges:
        raise GraphError(f"not a temporal edge of the graph: {target!r}")
    space = _Slots(g, memo_size=budget.max_states)
    status, depth = _forward(space, budget, lambda nonbridges, _: nonbridges & space.bit[target])
    if status == "found":
        return MinStepsOutcome("steps", depth)
    return MinStepsOutcome("never" if status == "exhausted" else status)


def oracle_min_steps_map(
    g: TemporalGraph, budget: OracleBudget = OracleBudget()
) -> tuple[dict[TemporalEdge, int], bool]:
    """First depth at which each slot is a present non-bridge, in one sweep.

    Returns ``(first_depth_by_slot, exhausted)``; with ``exhausted`` true,
    a slot missing from the map is never a non-bridge in any reachable
    graph.  Cheaper than one single-target search per edge.
    """
    require_endpoints(g)
    space = _Slots(g, memo_size=budget.max_states)
    first: dict[TemporalEdge, int] = {}
    seen = 0  # the slots in ``first``

    def record(nonbridges, depth):
        nonlocal seen
        if nonbridges & ~seen:
            first.update((e, depth) for e in space.edges(nonbridges & ~seen))
            seen |= nonbridges
        return False

    status, _ = _forward(space, budget, record)
    return first, status == "exhausted"
