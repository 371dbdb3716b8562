"""Shared fixture builders, naive oracles, and random-instance utilities."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from typing import Callable

from tgr import (
    ChangeTable,
    Feasible,
    GraphError,
    Infeasible,
    OracleBudget,
    RelabelOp,
    SearchOutcome,
    TemporalEdge,
    TemporalGraph,
    VCInstance,
    apply_relabel,
    brute_force_vertex_cover,
    check_pair_counts,
    classify,
    find_bridges,
    generate_random_instance,
    is_always_connected,
    sequence_to_nonbridge,
)
from tgr.core import ValidationReport, _slot_fault, require_endpoints, static_bridges
from tgr.formats import TG_VERSION, ParseError, _declare, _int, _lookup, _once_int
from tgr.generator import _random_tree


def reach(n: int, pairs, start: int = 0) -> list[bool]:
    """Which vertices the static graph joins to ``start``; one plain traversal."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    seen[start] = True
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return seen


def tri_pair():
    g1 = TemporalGraph.build(
        "abc", 2, [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("a", "b", 2), ("b", "c", 2)]
    )
    g2 = TemporalGraph.build(
        "abc", 2, [("a", "b", 1), ("b", "c", 1), ("a", "c", 2), ("a", "b", 2), ("b", "c", 2)]
    )
    return g1, g2


def infeas_pair():
    g1 = TemporalGraph.build(
        "abc", 2, [("a", "b", 1), ("a", "c", 1), ("a", "c", 2), ("b", "c", 2)]
    )
    g2 = TemporalGraph.build(
        "abc", 2, [("b", "c", 1), ("a", "c", 1), ("a", "c", 2), ("a", "b", 2)]
    )
    return g1, g2


def chain2():
    return TemporalGraph.build(
        "abcd",
        2,
        [
            ("a", "b", 1),
            ("b", "c", 1),
            ("c", "a", 1),
            ("a", "d", 1),
            ("a", "b", 2),
            ("a", "d", 2),
            ("d", "c", 2),
        ],
    )


def two_triangles():
    edges = [("a", "b", t) for t in (1, 2)]
    edges += [("b", "c", t) for t in (1, 2)]
    edges += [("a", "c", t) for t in (1, 2)]
    return TemporalGraph.build("abc", 2, edges)


def te(g: TemporalGraph, u: str, v: str, t: int) -> TemporalEdge:
    i, j = sorted((g.index(u), g.index(v)))
    return TemporalEdge(i, j, t)


def op(g: TemporalGraph, u: str, v: str, t_from: int, t_to: int) -> RelabelOp:
    i, j = sorted((g.index(u), g.index(v)))
    return RelabelOp(i, j, t_from, t_to)


def named(g: TemporalGraph, edges) -> list[tuple[str, str, int]]:
    return sorted((g.name(e.u), g.name(e.v), e.t) for e in edges)


def naive_bridges(g: TemporalGraph) -> frozenset[TemporalEdge]:
    """Delete each temporal edge and test its snapshot's connectivity."""
    out = set()
    for e in g.edges:
        pairs = [x.pair for x in g.edges if x.t == e.t and x != e]
        if not all(reach(g.n, pairs)):
            out.add(e)
    return frozenset(out)


def naive_static_bridges(n: int, pairs: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Delete each edge and test whether its endpoints are still joined."""
    return {
        (u, v) for u, v in pairs
        if not reach(n, [p for p in pairs if p != (u, v)], u)[v]
    }


def naive_side(n: int, pairs: list[tuple[int, int]], bridge: tuple[int, int], start: int) -> set[int]:
    """The vertices joined to ``start`` once ``bridge`` is deleted."""
    seen = reach(n, [p for p in pairs if p != bridge], start)
    return {x for x in range(n) if seen[x]}


def all_valid_moves(g: TemporalGraph) -> list[RelabelOp]:
    moves = []
    bridges = find_bridges(g)
    for e in sorted(g.edges):
        if e in bridges:
            continue
        for t2 in range(1, g.lifetime + 1):
            if t2 != e.t and TemporalEdge(e.u, e.v, t2) not in g.edges:
                moves.append(RelabelOp(e.u, e.v, e.t, t2))
    return moves


class ValidMoves(Sequence):
    """``all_valid_moves(g)`` without building it: the moves of the i-th
    non-bridge (in canonical order) are its pair's free slots in time order,
    so a bisect over the running totals of the free-slot counts finds the
    move at any index."""

    def __init__(self, g: TemporalGraph):
        bridges = find_bridges(g)
        counts = g.pair_counts()
        self.g = g
        self.movable = [e for e in sorted(g.edges) if e not in bridges]
        self.ends = list(itertools.accumulate(g.lifetime - counts[e[:2]] for e in self.movable))

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, i: int) -> RelabelOp:
        if not 0 <= i < len(self):
            raise IndexError(i)
        j = bisect_right(self.ends, i)
        u, v, t = self.movable[j]
        free = [t2 for t2 in range(1, self.g.lifetime + 1) if (u, v, t2) not in self.g.edges]
        return RelabelOp(u, v, t, free[i - (self.ends[j - 1] if j else 0)])


def perturb(g: TemporalGraph, steps: int, rng: random.Random) -> TemporalGraph:
    """Random walk of valid relabels; the result is feasibly reachable.
    ``rng.choice`` reads only the length and one item, so the lazy
    ``ValidMoves`` draws what ``all_valid_moves`` would."""
    cur = g
    for _ in range(steps):
        moves = ValidMoves(cur)
        if not moves:
            break
        cur = apply_relabel(cur, rng.choice(moves))
    return cur


def reference_generate_random_instance(n: int, lifetime: int, extra_per_snapshot: int, seed: int) -> TemporalGraph:
    """Slow reference for ``generate_random_instance``: the same draws, but
    the non-tree pairs are listed and sorted eagerly, O(n²) per snapshot."""
    rng = random.Random(seed)
    edges: set[TemporalEdge] = set()
    for t in range(1, lifetime + 1):
        tree = _random_tree(n, rng)
        edges.update(TemporalEdge(u, v, t) for u, v in tree)
        if extra_per_snapshot:
            used = set(tree)
            pool = sorted((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in used)
            edges.update(TemporalEdge(u, v, t) for u, v in rng.sample(pool, extra_per_snapshot))
    return TemporalGraph(tuple(f"v{i}" for i in range(n)), lifetime, frozenset(edges))


def small_instance(seed: int) -> TemporalGraph:
    """Random instance with n <= 5, lifetime 2, at most 12 temporal edges."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    cap = n * (n - 1) // 2 - (n - 1)
    extra = rng.randint(0, max(0, min(cap, 6 - (n - 1))))
    return generate_random_instance(n, 2, extra, seed)


def sparse_instance(seed: int) -> TemporalGraph:
    """Random instance with n in 3..7 and lifetime 2..4, each snapshot a
    spanning tree plus 1-3 random further edges: bridge-heavy enough that
    some seeds reach level 3 or 4."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    lifetime = rng.randint(2, 4)
    cap = n * (n - 1) // 2 - (n - 1)
    edges: set[TemporalEdge] = set()
    for t in range(1, lifetime + 1):
        snap = generate_random_instance(n, 1, rng.randint(1, min(3, cap)), rng.randrange(2**32))
        edges.update(TemporalEdge(e.u, e.v, t) for e in snap.edges)
    return TemporalGraph(snap.names, lifetime, frozenset(edges))


# The sparse_instance seeds in 0..19,999 whose enabling chains reach level
# 3, split by lifetime, plus the known level-4 seeds (lifetime 2).  All are
# oracle-certified in tier-1; the lifetime-3 ones take about 4 s together on
# a 2-core machine with Python 3.11.
DEEP_T2_SEEDS = [
    58, 120, 689, 2863, 3267, 3674, 5366, 5725, 6424, 7258, 8089, 11760, 12702,
    16859, 19006, 155752, 185220, 356114,
]
DEEP_T3_SEEDS = [7865, 16619, 16861]


def small_vc_instances() -> list[VCInstance]:
    """Four fixed Vertex-Cover instances and 16 seeded ones on 2..6
    vertices, each with k the size of a minimum cover."""
    instances = [
        VCInstance.build(["u", "w"], [("u", "w")], 1),
        VCInstance.build("abc", [("a", "b"), ("b", "c"), ("a", "c")], 2),
        VCInstance.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 2),
        VCInstance.build("abc", [("a", "b"), ("b", "c")], 1),
    ]
    seed = 0
    while len(instances) < 20:
        rng = random.Random(50_000 + seed)
        seed += 1
        n = rng.randint(2, 6)
        names = [f"n{i}" for i in range(n)]
        edges = [
            (a, b) for a, b in itertools.combinations(names, 2) if rng.random() < 0.5
        ]
        if not edges:
            continue
        probe = VCInstance.build(names, edges, n)
        best = brute_force_vertex_cover(probe)
        instances.append(VCInstance.build(names, edges, len(best)))
    return instances


def ladder(n: int) -> TemporalGraph:
    """Snapshot 1 is the path v0..v(n-1), snapshot 2 its square: every
    label-1 edge is a bridge, every label-2 edge a level-0 helper."""
    edges = [TemporalEdge(i, i + 1, 1) for i in range(n - 1)]
    edges += [TemporalEdge(i, j, 2) for i in range(n) for j in (i + 1, i + 2) if j < n]
    return TemporalGraph(tuple(f"v{i}" for i in range(n)), 2, frozenset(edges))


def random_compatible_target(g: TemporalGraph, rng: random.Random, tries: int = 60):
    """Always-connected graph with the same per-pair label counts as ``g``.

    Sampled by shuffling each pair's labels, so it may or may not be
    reachable from ``g``.  Returns None if no connected shuffle is found.
    """
    counts = sorted(g.pair_counts().items())
    for _ in range(tries):
        edges = []
        for (u, v), c in counts:
            for t in rng.sample(range(1, g.lifetime + 1), c):
                edges.append(TemporalEdge(u, v, t))
        cand = TemporalGraph(g.names, g.lifetime, frozenset(edges))
        if is_always_connected(cand):
            return cand
    return None


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
    partition_visits = 0
    crossing_tests = 0
    for bridge in bridges:
        # mark one side of the partition; the other side is its complement
        pairs = [e.pair for e in edge_list if e.t == bridge.t and e != bridge]
        side = reach(g.n, pairs, bridge.u)
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


def reference_classify(g: TemporalGraph) -> ChangeTable:
    """Slow reference for ``classify``: the full crossing map, then the sweep.

    Level 0 is the set of non-bridges.  Each level-k edge then promotes the
    still-unleveled bridges it crosses to level k+1, recording itself as the
    back-reference.  Frontiers and crossing lists are processed in canonical
    order, so back-references are deterministic.  The sweep stops at the
    first empty level; everything unleveled is unchangeable.  A candidate
    whose enabling relabel would land on an occupied slot is skipped (this
    only happens when helper and candidate share the vertex pair).
    """
    cross = compute_cross(g)
    bridges = find_bridges(g)
    levels: dict[TemporalEdge, int] = {}
    back_refs: dict[TemporalEdge, TemporalEdge] = {}
    frontier = sorted(e for e in g.edges if e not in bridges)
    for e in frontier:
        levels[e] = 0
    k = 0
    max_level = 0 if frontier else -1
    while frontier:
        nxt: list[TemporalEdge] = []
        for helper in frontier:
            for cand in cross[helper]:
                if cand in levels:
                    continue
                if TemporalEdge(helper.u, helper.v, cand.t) in g.edges:
                    continue  # enabling relabel would collide
                levels[cand] = k + 1
                back_refs[cand] = helper
                nxt.append(cand)
        frontier = sorted(nxt)
        if frontier:
            k += 1
            max_level = k
    return ChangeTable(g.edges, levels, back_refs, max_level)


def reference_plan(g1: TemporalGraph, g2: TemporalGraph) -> Feasible | Infeasible:
    """Slow reference for ``plan``: every phase runs the full level sweep on
    a freshly computed difference, and finds the free slot by scanning the
    edges only g2 has.  A differing edge without a level is the
    ``Infeasible`` witness in the first phase and an error in any later one."""
    require_endpoints(g1, g2)
    if not check_pair_counts(g1, g2):
        return Infeasible("pair_counts", None)
    cur1, cur2 = g1, g2
    seq1: list[RelabelOp] = []
    seq2: list[RelabelOp] = []
    phases = 0
    while diff := sorted(cur1.edges - cur2.edges):
        table = classify(cur1)
        stuck = [e for e in diff if e not in table.levels]
        if stuck and phases:
            raise GraphError(f"differing edge became unchangeable mid-plan: {stuck[0]!r}")
        if stuck:
            return Infeasible("unchangeable", stuck[0])
        target = min(diff, key=lambda e: (table.levels[e], e))
        ops = sequence_to_nonbridge(cur1, table, target)
        for o in ops:
            cur1 = apply_relabel(cur1, o)
            if o.target() not in cur2.edges:
                seq2.append(o)
                cur2 = apply_relabel(cur2, o)
        slot = min(e.t for e in cur2.edges - cur1.edges if e.pair == target.pair)
        ops.append(RelabelOp(target.u, target.v, target.t, slot))
        cur1 = apply_relabel(cur1, ops[-1])
        seq1 += ops
        phases += 1
    return Feasible(tuple(seq1 + [o.inverse() for o in reversed(seq2)]), cur1, phases)


def reference_validate_sequence(g1: TemporalGraph, seq, g2: TemporalGraph) -> ValidationReport:
    """Slow reference for ``validate_sequence``: each step builds a new graph
    with ``apply_relabel`` and looks its edge up among the bridges of the
    source snapshot's cached forest, built afresh whenever the relabel
    before it touched that snapshot."""
    require_endpoints(g1, g2)
    cur = g1
    for i, o in enumerate(seq):
        fault = _slot_fault(cur, o)
        if fault is None and o.source() in cur._forest(o.from_time).above.values():
            fault = "disconnects"
        if fault is not None:
            return ValidationReport(False, len(seq), i, fault, False)
        cur = apply_relabel(cur, o)
    final_matches = cur == g2
    return ValidationReport(final_matches, len(seq), None, None, final_matches)


# ---------------------------------------------------------------------------
# Slow reference for the .tg reader: strip each line, sort the endpoints,
# then build the graph through the public constructor, which checks it all
# again and groups the edges by time itself.

def _stripped_lines(text: str):
    for no, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if s and not s.startswith("#"):
            yield no, s.split()


def reference_parse_temporal_graph(text: str, source: str = "<string>") -> TemporalGraph:
    lifetime: int | None = None
    index: dict[str, int] = {}
    edges: set[TemporalEdge] = set()
    lines = _stripped_lines(text)
    for no, tokens in lines:
        if tokens != ["tg", str(TG_VERSION)]:
            raise ParseError(source, no, f"expected header 'tg {TG_VERSION}'")
        break
    else:
        raise ParseError(source, 1, f"missing header 'tg {TG_VERSION}'")
    for no, tokens in lines:
        directive = tokens[0]
        if directive == "t":
            lifetime = _once_int(source, no, tokens, lifetime, "t <lifetime>", "lifetime", 1)
        elif directive == "v":
            _declare(source, no, tokens, index)
        elif directive == "e":
            if len(tokens) != 4:
                raise ParseError(source, no, "expected 'e <u> <v> <t>'")
            if lifetime is None:
                raise ParseError(source, no, "edge before 't' directive")
            uname, vname = tokens[1], tokens[2]
            t = _int(source, no, tokens[3], "edge time")
            u, v = sorted(_lookup(source, no, index, nm) for nm in (uname, vname))
            if u == v:
                raise ParseError(source, no, f"self-loop on {uname!r}")
            if not 1 <= t <= lifetime:
                raise ParseError(source, no, f"edge time {t} outside 1..{lifetime}")
            e = TemporalEdge(u, v, t)
            if e in edges:
                raise ParseError(source, no, f"duplicate temporal edge {uname} {vname} {t}")
            edges.add(e)
        else:
            raise ParseError(source, no, f"unknown directive {directive!r}")
    if lifetime is None:
        raise ParseError(source, 1, "missing 't' directive")
    return TemporalGraph(tuple(index), lifetime, edges)


# ---------------------------------------------------------------------------
# Slow reference for the oracle: a forward BFS over frozenset states.

def _state_bridges(n: int, lifetime: int, state: frozenset[TemporalEdge]) -> set[TemporalEdge]:
    by_t: dict[int, list[TemporalEdge]] = {t: [] for t in range(1, lifetime + 1)}
    for e in state:
        by_t[e.t].append(e)
    return {b for edges in by_t.values() for b in static_bridges(n, edges).above.values()}


def _moves(n: int, lifetime: int, state: frozenset[TemporalEdge]):
    """Valid relabels out of an always-connected state, in canonical order."""
    bridges = _state_bridges(n, lifetime, state)
    for e in sorted(state):
        if e in bridges:
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


def reference_nonbridges(space, state: int) -> int:
    """Slow reference for ``tgr.oracle._Slots.nonbridges``: one
    ``static_bridges`` per snapshot, then the bits of the edges it does not
    report as bridges."""
    edges, out = space.edges(state), 0
    for t in range(1, space.lifetime + 1):
        bridges = set(static_bridges(space.n, [e for e in edges if e.t == t]).above.values())
        out |= sum(space.bit[e] for e in edges if e.t == t and e not in bridges)
    return out


def reference_shortest_sequence(
    g1: TemporalGraph, g2: TemporalGraph, budget: OracleBudget = OracleBudget()
) -> SearchOutcome:
    """Slow reference for ``oracle_shortest_sequence``: forward BFS from g1
    until it discovers g2."""
    require_endpoints(g1, g2)
    goal = g2.edges
    status, ops = _bfs(g1, budget, lambda state, _: state == goal)
    return SearchOutcome("unreachable" if status == "exhausted" else status, ops)


def reference_min_steps_map(
    g: TemporalGraph, budget: OracleBudget = OracleBudget()
) -> tuple[dict[TemporalEdge, int], bool]:
    """Slow reference for ``oracle_min_steps_map``."""
    require_endpoints(g)
    first: dict[TemporalEdge, int] = {}

    def record(state, depth):
        bridges = _state_bridges(g.n, g.lifetime, state)
        for e in state:
            if e not in first and e not in bridges:
                first[e] = depth
        return False

    status, _ = _bfs(g, budget, record)
    return first, status == "exhausted"


def reachable_graphs(g: TemporalGraph) -> set[frozenset[TemporalEdge]]:
    """Edge sets of every graph that valid relabels reach from ``g``."""
    seen = {g.edges}
    stack = [g]
    while stack:
        cur = stack.pop()
        for o in all_valid_moves(cur):
            nxt = apply_relabel(cur, o)
            if nxt.edges not in seen:
                seen.add(nxt.edges)
                stack.append(nxt)
    return seen
