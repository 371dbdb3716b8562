"""Exhaustive breadth-first search over the graphs reachable by valid
relabels: shortest sequences, reachability, and minimal step counts for
turning a given edge into a non-bridge.  Ground truth at small scale for
everything the fast algorithms claim.

States are plain edge sets (vertex table and lifetime are fixed).  A state
expands by moving any non-bridge to any free slot of its pair; such a move
always preserves the always-connected property, so every visited state is
valid by construction.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .core import (
    GraphError,
    RelabelOp,
    TemporalEdge,
    TemporalGraph,
    require_endpoints,
    static_bridges,
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


def _snapshot_bridge_sets(n: int, lifetime: int, state: frozenset[TemporalEdge]):
    by_t: dict[int, list[tuple[int, int]]] = {t: [] for t in range(1, lifetime + 1)}
    for e in state:
        by_t[e.t].append(e.pair)
    return {t: static_bridges(n, pairs).below for t, pairs in by_t.items()}


def _moves(n: int, lifetime: int, state: frozenset[TemporalEdge]):
    """Valid relabels out of an always-connected state, in canonical order."""
    bridges = _snapshot_bridge_sets(n, lifetime, state)
    for e in sorted(state):
        if e.pair in bridges[e.t]:
            continue
        for t2 in range(1, lifetime + 1):
            if t2 == e.t or TemporalEdge(e.u, e.v, t2) in state:
                continue
            yield RelabelOp(e.u, e.v, e.t, t2), state - {e} | {TemporalEdge(e.u, e.v, t2)}


def _bfs(
    g: TemporalGraph, budget: OracleBudget, goal: Callable[[frozenset, int], bool]
) -> tuple[str, tuple[RelabelOp, ...] | None]:
    """Breadth-first search over the graphs reachable from ``g``.

    ``goal(state, depth)`` is called once on every state when it is first
    discovered, the start included; the search stops at the first state it
    accepts.  Returns ``("found", ops)`` with a shortest sequence to that
    state, ``("budget", None)`` when ``max_states`` or ``max_depth`` cut the
    search short, or ``("exhausted", None)``.
    """
    start = g.edges
    if goal(start, 0):
        return "found", ()
    parents: dict[frozenset, tuple[RelabelOp, frozenset] | None] = {start: None}
    queue: deque[tuple[frozenset, int]] = deque([(start, 0)])
    depth_capped = False
    while queue:
        state, depth = queue.popleft()
        if budget.max_depth is not None and depth >= budget.max_depth:
            depth_capped = True
            continue
        for op, nxt in _moves(g.n, g.lifetime, state):
            if nxt in parents:
                continue
            if goal(nxt, depth + 1):
                ops = [op]
                while parents[state] is not None:
                    op, state = parents[state]
                    ops.append(op)
                return "found", tuple(reversed(ops))
            if len(parents) >= budget.max_states:
                return "budget", None
            parents[nxt] = (op, state)
            queue.append((nxt, depth + 1))
    return ("budget" if depth_capped else "exhausted"), None


def oracle_shortest_sequence(
    g1: TemporalGraph, g2: TemporalGraph, budget: OracleBudget = OracleBudget()
) -> SearchOutcome:
    """Provably shortest valid sequence from g1 to g2, by exhaustive BFS.

    "unreachable" is only reported when the whole reachable component was
    enumerated within budget.  The moment a cap bites, minimality of any
    later find would be unprovable, so the search stops with "budget".
    """
    require_endpoints(g1, g2)
    goal = g2.edges
    status, ops = _bfs(g1, budget, lambda state, _: state == goal)
    return SearchOutcome("unreachable" if status == "exhausted" else status, ops)


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

    def nonbridge(state, _):
        return target in state and target.pair not in static_bridges(
            g.n, [e.pair for e in state if e.t == target.t]
        ).below

    status, ops = _bfs(g, budget, nonbridge)
    if status == "found":
        return MinStepsOutcome("steps", len(ops))
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
    first: dict[TemporalEdge, int] = {}

    def record(state, depth):
        bridges = _snapshot_bridge_sets(g.n, g.lifetime, state)
        for e in state:
            if e not in first and e.pair not in bridges[e.t]:
                first[e] = depth
        return False

    status, _ = _bfs(g, budget, record)
    return first, status == "exhausted"


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
