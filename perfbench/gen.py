"""Seeded input generation and independent reference checks.

Nothing here imports ``tgr``: the benchmark builds its inputs and checks the
program's outputs with its own small graph code, so a defect in ``tgr``
cannot hide itself by also breaking the generator or the checker.

A graph is ``(n, lifetime, edges)`` with ``edges`` a set of ``(u, v, t)``
index triples, ``u < v``, and vertex ``i`` named ``names[i]``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque


def ordered_names(count: int, rng) -> list[str]:
    """``count`` distinct random six-letter names in sorted order: renaming
    vertices ``0..count-1`` by them keeps every order the program sees."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    names: set[str] = set()
    while len(names) < count:
        names.add("".join(rng.choice(letters) for _ in range(6)))
    return sorted(names)


def random_tree(n: int, rng) -> list[tuple[int, int]]:
    """Uniform random labelled tree on ``n`` vertices (Pruefer decoding)."""
    if n < 2:
        return []
    if n == 2:
        return [(0, 1)]
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    out = []
    for x in code:
        leaf = heapq.heappop(leaves)
        out.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    out.append((min(a, b), max(a, b)))
    return out


def random_instance(n: int, lifetime: int, extra: int, rng) -> set[tuple[int, int, int]]:
    """Always-connected instance: per snapshot a uniform spanning tree plus
    ``extra`` further distinct pairs drawn uniformly from the rest."""
    if extra > n * (n - 1) // 2 - (n - 1):
        raise ValueError(f"extra={extra} exceeds the free pairs of n={n}")
    edges = set()
    for t in range(1, lifetime + 1):
        used = set(random_tree(n, rng))
        target = len(used) + extra
        while len(used) < target:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                used.add((min(u, v), max(u, v)))
        edges.update((u, v, t) for u, v in used)
    return edges


class Snapshots:
    """Mutable per-snapshot adjacency, for walks and step-by-step checks."""

    def __init__(self, n: int, lifetime: int, edges):
        self.n, self.lifetime = n, lifetime
        self.edges = set(edges)
        self.adj = {t: [set() for _ in range(n)] for t in range(1, lifetime + 1)}
        for u, v, t in self.edges:
            self.adj[t][u].add(v)
            self.adj[t][v].add(u)

    def is_bridge(self, u: int, v: int, t: int) -> bool:
        """True iff removing the present edge ``(u, v, t)`` disconnects ``v`` from ``u``."""
        adj = self.adj[t]
        seen = {u}
        todo = [u]
        while todo:
            x = todo.pop()
            for y in adj[x]:
                if y not in seen and not (x == u and y == v):
                    if y == v:
                        return False
                    seen.add(y)
                    todo.append(y)
        return True

    def move(self, u: int, v: int, t_from: int, t_to: int) -> None:
        self.edges.remove((u, v, t_from))
        self.edges.add((u, v, t_to))
        self.adj[t_from][u].discard(v)
        self.adj[t_from][v].discard(u)
        self.adj[t_to][u].add(v)
        self.adj[t_to][v].add(u)

    def problem(self, u: int, v: int, t_from: int, t_to: int) -> str | None:
        """Why the relabel is not valid here, or None when it is."""
        if not (0 <= u < v < self.n and 1 <= t_from <= self.lifetime
                and 1 <= t_to <= self.lifetime and t_from != t_to):
            return "malformed"
        if (u, v, t_from) not in self.edges:
            return "missing edge"
        if (u, v, t_to) in self.edges:
            return "target slot occupied"
        if self.is_bridge(u, v, t_from):
            return "disconnects"
        return None


def valid_walk(n, lifetime, edges, steps, rng, distinct_pairs=False):
    """Up to ``steps`` relabels, each drawn uniformly among the movable edges
    (non-bridges with a free slot), to a uniformly drawn free slot.

    Returns ``(ops, final_edges)``; the walk stops early when nothing can
    move.  With ``distinct_pairs`` no vertex pair moves twice, so the two end
    graphs differ in exactly ``len(ops)`` edges.
    """
    snap = Snapshots(n, lifetime, edges)
    ops: list[tuple[int, int, int, int]] = []
    moved = set()
    while len(ops) < steps:
        cands = sorted(snap.edges)
        rng.shuffle(cands)
        for u, v, t in cands:
            if distinct_pairs and (u, v) in moved:
                continue
            free = [t2 for t2 in range(1, lifetime + 1) if (u, v, t2) not in snap.edges]
            if free and not snap.is_bridge(u, v, t):
                t2 = rng.choice(free)
                snap.move(u, v, t, t2)
                moved.add((u, v))
                ops.append((u, v, t, t2))
                break
        else:
            break
    return ops, snap.edges


def is_always_connected(n, lifetime, edges) -> bool:
    adj = {t: [[] for _ in range(n)] for t in range(1, lifetime + 1)}
    for u, v, t in edges:
        adj[t][u].append(v)
        adj[t][v].append(u)
    for t in range(1, lifetime + 1):
        seen = {0}
        todo = [0]
        while todo:
            for y in adj[t][todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        if len(seen) < n:
            return False
    return True


def shuffled_target(n, lifetime, edges, rng, tries=60):
    """Always-connected graph with the same per-pair label counts, made by
    re-drawing each pair's labels; reachable from ``edges`` or not."""
    counts: dict[tuple[int, int], int] = {}
    for u, v, _ in sorted(edges):
        counts[(u, v)] = counts.get((u, v), 0) + 1
    for _ in range(tries):
        cand = {(u, v, t) for (u, v), c in counts.items()
                for t in rng.sample(range(1, lifetime + 1), c)}
        if is_always_connected(n, lifetime, cand):
            return cand
    return None


def shortest_distance(n, lifetime, start, goal, max_states=200_000):
    """Exhaustive BFS: fewest valid relabels from ``start`` to ``goal``, or
    None when the goal is unreachable."""
    start, goal = frozenset(start), frozenset(goal)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            return dist[state]
        snap = Snapshots(n, lifetime, state)
        for u, v, t in sorted(state):
            if snap.is_bridge(u, v, t):
                continue
            for t2 in range(1, lifetime + 1):
                if t2 != t and (u, v, t2) not in state:
                    nxt = state - {(u, v, t)} | {(u, v, t2)}
                    if nxt not in dist:
                        if len(dist) >= max_states:
                            raise RuntimeError("reference search exceeded its state budget")
                        dist[nxt] = dist[state] + 1
                        queue.append(nxt)
    return None


def gnm_without_isolated(n: int, m: int, rng) -> list[tuple[int, int]]:
    """Uniform simple graph with ``n`` vertices and ``m`` edges, none isolated."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        chosen = sorted(rng.sample(pairs, m))
        if len({x for e in chosen for x in e}) == n:
            return chosen


def greedy_matching_cover(edges, rng) -> list:
    """Both endpoints of a random maximal matching: a cover at most twice
    the minimum, computable at any size."""
    order = list(edges)
    rng.shuffle(order)
    cover = set()
    for a, b in order:
        if a not in cover and b not in cover:
            cover.update((a, b))
    return sorted(cover)


def min_cover_size(vertices, edges) -> int:
    """Smallest vertex cover by exhaustive search (tiny instances only)."""
    for size in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, size):
            chosen = set(combo)
            if all(a in chosen or b in chosen for a, b in edges):
                return size
    raise ValueError("unreachable: the full vertex set is a cover")


# ---------------------------------------------------------------------------
# Text formats, as documented in the project README.

def format_tg(names, lifetime, edges) -> str:
    lines = ["tg 1", f"t {lifetime}"]
    lines += [f"v {name}" for name in names]
    lines += [f"e {names[u]} {names[v]} {t}" for u, v, t in sorted(edges)]
    return "\n".join(lines) + "\n"


def format_tgs(names, ops) -> str:
    lines = ["tgs 1"] + [f"r {names[u]} {names[v]} {a} {b}" for u, v, a, b in ops]
    return "\n".join(lines) + "\n"


def _records(text: str):
    for raw in text.splitlines():
        s = raw.strip()
        if s and not s.startswith("#"):
            yield s.split()


def parse_tg(text: str):
    """``(names, lifetime, edges)`` of a well-formed ``.tg`` text."""
    names, lifetime, edges, index = [], None, set(), {}
    for rec in _records(text):
        if rec[0] == "t":
            lifetime = int(rec[1])
        elif rec[0] == "v":
            index[rec[1]] = len(names)
            names.append(rec[1])
        elif rec[0] == "e":
            u, v = sorted((index[rec[1]], index[rec[2]]))
            edges.add((u, v, int(rec[3])))
    return names, lifetime, edges


def parse_tgs(text: str, names) -> list[tuple[int, int, int, int]]:
    index = {name: i for i, name in enumerate(names)}
    recs = list(_records(text))
    if not recs or recs[0] != ["tgs", "1"]:
        raise ValueError("missing 'tgs 1' header")
    ops = []
    for rec in recs[1:]:
        if rec[0] != "r" or len(rec) != 5:
            raise ValueError(f"bad sequence line {' '.join(rec)!r}")
        u, v = sorted((index[rec[1]], index[rec[2]]))
        ops.append((u, v, int(rec[3]), int(rec[4])))
    return ops


def sequence_problem(n, lifetime, start, ops, goal) -> str | None:
    """Replay ``ops`` from ``start``; why they are not a valid sequence to
    ``goal``, or None when they are."""
    snap = Snapshots(n, lifetime, start)
    for i, op in enumerate(ops):
        why = snap.problem(*op)
        if why:
            return f"step {i}: {why}"
        snap.move(*op)
    if snap.edges != set(goal):
        return "final graph differs from the target"
    return None
