"""Temporal graphs as immutable values, plus the elementary operations on them.

A temporal graph is a fixed vertex set together with a set of undirected
edges, each active at one integer time in ``1..lifetime``.  Vertices are
dense indices internally; a name table maps them to external tokens.
Each fact about a graph's snapshots is derived in one place and cached on
the graph: its edges by time (``_edges_at``); whether every snapshot is
connected (``_disconnected_at``, one union-find pass per snapshot, or the
snapshot's forest when one is cached); and one painted spanning forest per
snapshot (``static_bridges``), built only by code that reads bridges, in
time order up to the first disconnected snapshot, so no snapshot pays for
both.  A forest's one bridge map, ``above``, holds each bridge, as the
snapshot's own ``TemporalEdge``, by its lower end.  Relabeling an edge
returns a new graph value, whose caches start empty.  Validating a
sequence instead walks one private, mutable working copy (the edge set and
each touched snapshot's neighbour sets), where a step's bridge test is a
local two-ended search and a step that passes is an O(1) update.  A plan
extends that working copy with a private copy of every forest
(``_Forest``), kept current per relabel: an added edge paints its tree
path, and a removed one re-grows the tree of its 2-edge-connected
component.  The public constructor checks everything;
``build`` checks what it reads and ``_checked_graph`` takes parts that are
already checked.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, NamedTuple, Sequence


class GraphError(ValueError):
    """Malformed graph data or an operation used outside its contract."""


class TemporalEdge(NamedTuple):
    """Undirected edge ``{u, v}`` (stored with u < v) active at time ``t``."""

    u: int
    v: int
    t: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


class RelabelOp(NamedTuple):
    """Move the edge ``{u, v}`` from ``from_time`` to ``to_time``."""

    u: int
    v: int
    from_time: int
    to_time: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)

    def source(self) -> TemporalEdge:
        return TemporalEdge(min(self.u, self.v), max(self.u, self.v), self.from_time)

    def target(self) -> TemporalEdge:
        return TemporalEdge(min(self.u, self.v), max(self.u, self.v), self.to_time)

    def inverse(self) -> "RelabelOp":
        return RelabelOp(self.u, self.v, self.to_time, self.from_time)


ReconfigSequence = Sequence[RelabelOp]


def _require_distinct(names: tuple[str, ...]) -> None:
    """Raise on the first vertex name that appears twice."""
    if len(set(names)) != len(names):
        seen: set[str] = set()
        repeat = next(x for x in names if x in seen or seen.add(x))
        raise GraphError(f"duplicate vertex name {repeat!r}")


@dataclass(frozen=True)
class TemporalGraph:
    """Immutable temporal graph: name table, lifetime, set of temporal edges."""

    names: tuple[str, ...]
    lifetime: int
    edges: frozenset[TemporalEdge]

    def __post_init__(self):
        if self.lifetime < 1:
            raise GraphError("lifetime must be at least 1")
        object.__setattr__(self, "names", tuple(self.names))
        _require_distinct(self.names)
        object.__setattr__(
            self, "edges", frozenset(TemporalEdge(*e) for e in self.edges)
        )
        n = len(self.names)
        for e in self.edges:
            if not 0 <= e.u < e.v < n:
                raise GraphError(f"bad edge endpoints {e!r} for {n} vertices")
            if not 1 <= e.t <= self.lifetime:
                raise GraphError(f"edge time out of range: {e!r}")
        # ``static_bridges`` of each snapshot asked for so far.
        object.__setattr__(self, "_forest_at", {})

    @classmethod
    def build(
        cls,
        names: Iterable[str],
        lifetime: int,
        edges: Iterable[tuple[str, str, int]],
    ) -> "TemporalGraph":
        """Construct from named edges; rejects self-loops and duplicates.
        Checks everything the public constructor does, in the same order and
        with the same messages, then skips it."""
        if lifetime < 1:
            raise GraphError("lifetime must be at least 1")
        names = tuple(names)
        _require_distinct(names)
        index = {name: i for i, name in enumerate(names)}
        out: set[TemporalEdge] = set()
        for uname, vname, t in edges:
            if uname not in index:
                raise GraphError(f"undeclared vertex name {uname!r}")
            if vname not in index:
                raise GraphError(f"undeclared vertex name {vname!r}")
            u, v = index[uname], index[vname]
            if u == v:
                raise GraphError(f"self-loop on {uname!r}")
            if u > v:
                u, v = v, u
            e = TemporalEdge(u, v, t)
            if not 1 <= t <= lifetime:
                raise GraphError(f"edge time out of range: {e!r}")
            if e in out:
                raise GraphError(f"duplicate temporal edge {uname} {vname} {t}")
            out.add(e)
        return _checked_graph(names, lifetime, frozenset(out))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _edges_at(self) -> dict[int, list[TemporalEdge]]:
        """The edges by time, for the times that have any; cached on the graph."""
        edges_at: dict[int, list[TemporalEdge]] = {}
        for e in self.edges:
            edges_at.setdefault(e.t, []).append(e)
        return edges_at

    @cached_property
    def _index(self) -> dict[str, int]:
        """Name -> vertex index; cached on the graph."""
        return {name: i for i, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown vertex name {name!r}") from None

    def name(self, i: int) -> str:
        return self.names[i]

    def snapshot(self, t: int) -> tuple[tuple[int, int], ...]:
        """Static edges active at time ``t``, in canonical order."""
        if not 1 <= t <= self.lifetime:
            raise GraphError(f"snapshot time {t} outside 1..{self.lifetime}")
        return tuple(sorted(e.pair for e in self._edges_at.get(t, ())))

    def _forest(self, t: int) -> StaticBridges:
        """``static_bridges`` of snapshot ``t``'s own edges; cached on the graph."""
        if t not in self._forest_at:
            self._forest_at[t] = static_bridges(self.n, self._edges_at.get(t, ()))
        return self._forest_at[t]

    def _forests(self) -> dict[int, StaticBridges]:
        """The cache of forests, keyed by time, filled first in time order up
        to the first disconnected snapshot unless it is full or one is known
        already.  So ``_disconnected_at``, read after, finds each snapshot it
        needs in the cache, and no snapshot pays for both a forest and a
        union-find pass."""
        if len(self._forest_at) < self.lifetime and self.__dict__.get("_disconnected_at") is None:
            for t in range(1, self.lifetime + 1) if self.n > 1 else ():
                if self._forest(t).parent.count(-1) > 1:
                    break
        return self._forest_at

    def _adj(self, t: int) -> dict[int, set[int]]:
        """Snapshot ``t`` as a vertex -> neighbour-set dict, built afresh."""
        return _adjacency(self._edges_at.get(t, ()))

    @cached_property
    def _disconnected_at(self) -> int | None:
        """Earliest time whose snapshot is not connected, or None; cached.
        A snapshot with a cached forest is read off it; any other costs one
        union-find pass over its edges.  With n >= 2 a snapshot of fewer
        than n - 1 edges is disconnected at once, so this costs O(M)."""
        times = range(1, self.lifetime + 1) if self.n > 1 else ()
        forests = self._forest_at
        return next((
            t for t in times
            if not (forests[t].parent.count(-1) == 1 if t in forests else _connected(self.n, self._edges_at.get(t, ())))
        ), None)

    def sorted_edges(self) -> list[TemporalEdge]:
        return sorted(self.edges)

    def pair_counts(self) -> Counter:
        return Counter(e[:2] for e in self.edges)


def _checked_graph(names, lifetime, edges) -> TemporalGraph:
    """The graph of parts its caller has checked (``build``, the .tg reader, ``apply_relabel``, ``plan``):
    ``edges`` a frozenset."""
    out = object.__new__(TemporalGraph)
    out.__dict__.update(names=names, lifetime=lifetime, edges=edges, _forest_at={})
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a relabeling sequence step by step."""

    ok: bool
    length: int
    failed_step: int | None = None
    failure: str | None = None  # "malformed" | "missing_edge" | "collision" | "disconnects"
    final_matches: bool = False


# ---------------------------------------------------------------------------
# Static-graph helpers shared by the temporal operations (and by the oracle,
# which works on raw edge sets rather than TemporalGraph values).

class StaticBridges(NamedTuple):
    """A breadth-first spanning forest of a static graph, roots taken in
    vertex order, with the tree path of every non-tree edge painted.
    ``parent[x]`` is -1 at a root, and ``order`` lists each vertex after its
    parent.  ``top[x]`` is the shallowest vertex of x's 2-edge-connected
    component: a root or the lower end ``c`` of a bridge, which ``above``
    maps to the bridge; removing it leaves c's subtree on c's side.  With
    n >= 1 the graph is connected iff vertex 0 is the only root.
    """

    above: dict[int, Sequence[int]]
    parent: list[int]
    depth: list[int]
    top: list[int]
    order: list[int]


def _find(top: list[int], x: int) -> int:
    """The name of x's set in a union-find of tree vertices whose sets are
    named by their shallowest vertex, halving the path on the way."""
    while top[x] != x:
        top[x] = x = top[top[x]]
    return x


def _connected(n: int, edges: Sequence[Sequence[int]]) -> bool:
    """Whether the static graph on vertices 0..n-1 with ``edges`` (each
    edge's first two fields are its ends) is connected: one union-find
    pass, ``_find`` inlined, that stops once a single set is left."""
    if len(edges) < n - 1:
        return False
    top = list(range(n))
    sets = n
    for e in edges:
        a, b = top[e[0]], top[e[1]]
        while top[a] != a:
            top[a] = a = top[top[a]]
        while top[b] != b:
            top[b] = b = top[top[b]]
        if a != b:
            top[a] = b
            sets -= 1
            if sets == 1:
                break
    return sets <= 1


def static_bridges(n: int, edges: Sequence[Sequence[int]]) -> StaticBridges:
    """Bridges of a static simple graph and their sides: one breadth-first
    forest, then the tree path of each non-tree edge painted with a
    union-find (Westbrook & Tarjan 1992); the tree edges left unpainted are
    the bridges.  Each edge's first two fields are its ends; the bridges
    are the edges as given."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        u, v = e[0], e[1]
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    depth = [-1] * n
    order: list[int] = []
    for root in range(n):
        if depth[root] < 0:
            depth[root] = 0
            component = [root]
            for x in component:  # grows while it is read
                d = depth[x] + 1
                for y in adj[x]:
                    if depth[y] < 0:
                        depth[y] = d
                        parent[y] = x
                        component.append(y)
            order += component
    top = list(range(n))
    tree_edge: list = [None] * n  # each vertex's edge to its parent, as given
    for e in edges:
        u, v = e[0], e[1]
        if parent[v] == u:
            tree_edge[v] = e
        elif parent[u] == v:
            tree_edge[u] = e
        else:  # paint the tree path of a non-tree edge
            u, v = _find(top, u), _find(top, v)
            while u != v:  # climb from the deeper top, merging it into its parent's set
                if depth[u] < depth[v]:
                    u, v = v, u
                p = parent[u]
                while top[p] != p:
                    top[p] = p = top[top[p]]
                top[u] = u = p
    for x in order:
        top[x] = top[top[x]]
    above = {x: tree_edge[x] for x in order if top[x] == x and parent[x] >= 0}  # unpainted tree edges
    return StaticBridges(above, parent, depth, top, order)


class _Forest:
    """A private copy ``f`` of the forest of snapshot ``t`` of a graph, kept
    current while edges come and go in that connected snapshot.  ``parent``
    and ``top`` are as in ``StaticBridges`` (``top`` as a union-find whose
    chains may be long), and so is ``above``, each bridge by its lower end;
    ``nonbridges``, shared with the caller, loses each bridge ``above``
    gains and gains each bridge it loses.
    ``depth`` need only grow from parent to child: a climb takes the larger
    label, and the lowest common ancestor's is below both.
    """

    def __init__(self, f: StaticBridges, t: int, nonbridges: set[TemporalEdge]):
        self.t, self.nonbridges = t, nonbridges
        self.parent, self.depth, self.top = list(f.parent), list(f.depth), list(f.top)
        self.above = dict(f.above)

    def add(self, u: int, v: int) -> None:
        """A new edge {u, v}: paint its tree path, so that each bridge on it
        becomes a non-bridge.  Costs the path."""
        parent, depth, top, above = self.parent, self.depth, self.top, self.above
        a, b = _find(top, u), _find(top, v)
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            self.nonbridges.add(above.pop(a))
            top[a] = a = _find(top, parent[a])

    def remove(self, u: int, v: int, adj: dict[int, set[int]]) -> None:
        """The edge {u, v} is gone from the snapshot, whose neighbour sets
        ``adj`` are.  Raises, changing nothing, unless u and v share a
        2-edge-connected component C.  Otherwise re-grows a breadth-first
        tree of C from its shallowest vertex r, painting each non-tree edge
        of C as it is found, and shifts a subtree hanging below C only where
        its attach vertex's new label reaches it.  Costs C's edges plus the
        shifted vertices."""
        parent, depth, top, above = self.parent, self.depth, self.top, self.above
        r = _find(top, u)
        if r != _find(top, v):
            raise GraphError(f"removing the bridge {(u, v)} disconnects snapshot {self.t}")
        up = parent[r]  # across the bridge above C: only r reaches it
        position = {r: 0}
        comp, hanging = [r], []
        for i, x in enumerate(comp):  # grows while it is read
            d = depth[x] + 1
            for y in adj[x]:
                j = position.get(y)
                if j is None:
                    if y == up:
                        continue
                    if y in above and parent[y] == x:  # the lower end of a bridge below C
                        hanging.append(y)
                        continue
                    position[y] = len(comp)
                    comp.append(y)
                    parent[y], depth[y], top[y] = x, d, y
                elif j < i and y != parent[x]:  # a non-tree edge, met from its later end: paint it
                    a, b = _find(top, x), _find(top, y)
                    while a != b:
                        if depth[a] < depth[b]:
                            a, b = b, a
                        top[a] = a = _find(top, parent[a])
        for x in comp[1:]:  # parents come first; the tops left are new bridges' lower ends
            top[x] = top[top[x]]
            if top[x] == x:
                p = parent[x]
                above[x] = bridge = TemporalEdge(min(x, p), max(x, p), self.t)
                self.nonbridges.remove(bridge)
        for c in hanging:
            if depth[c] <= depth[parent[c]]:
                depth[c] = depth[parent[c]] + 1
                shifted = [c]
                for x in shifted:  # grows while it is read
                    d = depth[x] + 1
                    for y in adj[x]:
                        if parent[y] == x and depth[y] < d:
                            depth[y] = d
                            shifted.append(y)


def _adjacency(edges: Iterable[Sequence[int]]) -> dict[int, set[int]]:
    """A static graph as a vertex -> neighbour-set ``defaultdict``; each
    edge's first two fields are its ends.  A vertex gets its set at its
    first edge, so vertices without edges are left out."""
    adj: dict[int, set[int]] = defaultdict(set)
    for e in edges:
        u, v = e[0], e[1]
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _joined_without(adj: dict[int, set[int]], u: int, v: int) -> bool:
    """Whether ``u`` and ``v`` stay joined in ``adj`` without its edge {u, v},
    i.e. whether that edge is not a bridge.  A two-ended breadth-first search
    (Pohl 1971) that grows the side with the smaller frontier by one level:
    it stops when the sides meet or one side runs out, so it costs O(n + m)
    at worst and far less for an edge on a short cycle or a small side."""
    sides = ({u}, {v})
    frontiers = [[u], [v]]
    while frontiers[0] and frontiers[1]:
        i = int(len(frontiers[1]) < len(frontiers[0]))
        mine, theirs = sides[i], sides[1 - i]
        grown = []
        for x in frontiers[i]:
            for y in adj[x]:
                if y in theirs:
                    if x in (u, v) and y in (u, v):
                        continue  # the edge {u, v} itself
                    return True
                if y not in mine:
                    mine.add(y)
                    grown.append(y)
        frontiers[i] = grown
    return False


# ---------------------------------------------------------------------------
# Temporal operations.

def is_always_connected(g: TemporalGraph) -> bool:
    """True iff every snapshot of ``g`` is connected."""
    return g._disconnected_at is None


def require_endpoints(*graphs: TemporalGraph) -> None:
    """Raise unless the graphs share one vertex table and lifetime and each
    is always-connected: the precondition of every reconfiguration query."""
    for g in graphs[1:]:
        require_compatible(graphs[0], g)
    _require_connected(*graphs)


def _require_connected(*graphs: TemporalGraph) -> None:
    """The connectivity half of ``require_endpoints``."""
    if not all(map(is_always_connected, set(graphs))):  # equal graphs are checked once
        raise GraphError("endpoint graph is not always-connected")


def _snapshot_forests(g: TemporalGraph) -> dict[int, StaticBridges]:
    """The cached forest of every snapshot, keyed by time; raises unless ``g``
    is always-connected."""
    forests = g._forests()
    if g._disconnected_at is not None:
        raise GraphError(f"snapshot {g._disconnected_at} is not connected")
    return forests


def find_bridges(g: TemporalGraph) -> frozenset[TemporalEdge]:
    """All temporal edges whose removal disconnects their snapshot.

    Requires an always-connected input.  Each snapshot's forest is built once
    per graph, the first time it is asked for.
    """
    return frozenset(b for forest in _snapshot_forests(g).values() for b in forest.above.values())


def _slot_fault(g: TemporalGraph, op: RelabelOp) -> str | None:
    """The slot rule: "malformed" (a vertex or time out of range, a self-loop,
    or no change of time), "missing_edge" (no edge at the source),
    "collision" (the target is taken), or None when the edge can move."""
    src, tgt = op.source(), op.target()
    times_ok = 1 <= src.t <= g.lifetime and 1 <= tgt.t <= g.lifetime
    if not (0 <= src.u < src.v < g.n and times_ok) or src.t == tgt.t:
        return "malformed"
    if src not in g.edges:
        return "missing_edge"
    if tgt in g.edges:
        return "collision"
    return None


def _require_slot(g: TemporalGraph | _WorkingCopy, op: RelabelOp) -> None:
    """Raise unless ``op`` passes the slot rule on ``g``."""
    fault = _slot_fault(g, op)
    if fault is not None:
        raise GraphError(f"cannot apply {op!r}: {fault}")


def _relabel_fault(g: TemporalGraph | _WorkingCopy, op: RelabelOp) -> str | None:
    """Why ``op`` is not a valid relabel of the always-connected ``g`` (a graph
    or the working copy of ``validate_sequence``): the slot rule's verdict,
    or "disconnects" when it moves a bridge of its snapshot, the only way a
    relabel can disconnect one; None if valid."""
    fault = _slot_fault(g, op)
    if fault is None and not _joined_without(g._adj(op.from_time), *op.source().pair):
        return "disconnects"
    return fault


def is_valid_relabel(g: TemporalGraph, op: RelabelOp) -> bool:
    """True iff applying ``op`` to ``g`` keeps every snapshot connected.

    Assumes ``g`` is always-connected.  Malformed ops yield False rather
    than an error.  The bridge test is the local search of
    ``validate_sequence`` on the source snapshot, built for this call.
    """
    return _relabel_fault(g, op) is None


def apply_relabel(g: TemporalGraph, op: RelabelOp) -> TemporalGraph:
    """Move one temporal edge; returns a new graph, input untouched.

    Does not require the relabel to be *valid* (connectivity-preserving);
    it only enforces the slot rule, so callers can explore invalid moves
    and detect them afterwards.
    """
    _require_slot(g, op)
    src, tgt = op.source(), op.target()
    return _checked_graph(g.names, g.lifetime, g.edges - {src} | {tgt})


class _WorkingCopy:
    """A private, mutable copy of a graph for ``validate_sequence`` and the
    planner: its edge set and, from the first time a step touches a
    snapshot, that snapshot's neighbour sets.  It holds O(M) memory and no
    n-sized table."""

    def __init__(self, g: TemporalGraph):
        self.n, self.lifetime, self.edges = g.n, g.lifetime, set(g.edges)
        self._g = g
        self._adj_at: dict[int, dict[int, set[int]]] = {}

    def _adj(self, t: int) -> dict[int, set[int]]:
        if t not in self._adj_at:
            self._adj_at[t] = self._g._adj(t)  # ``g`` still holds snapshot t
        return self._adj_at[t]

    def relabel(self, op: RelabelOp) -> None:
        """Move the edge of an ``op`` that passes the slot rule; O(1)."""
        src, tgt = op.source(), op.target()
        self.edges.remove(src)
        self.edges.add(tgt)
        old, new = self._adj(src.t), self._adj(tgt.t)
        old[src.u].discard(src.v)
        old[src.v].discard(src.u)
        new[tgt.u].add(tgt.v)
        new[tgt.v].add(tgt.u)


def validate_sequence(
    g1: TemporalGraph, seq: ReconfigSequence, g2: TemporalGraph
) -> ValidationReport:
    """Check a relabeling sequence from ``g1``: every step applicable and
    connectivity-preserving, and the final graph equal to ``g2``.

    All failures are reported, never raised: the report carries the first
    failing step index and the failure kind.  The steps are replayed on one
    working copy of ``g1``: each is decided by the relabel rule, whose
    bridge test is a two-ended search from the ends of the moved edge, and
    one that passes updates the copy in O(1).  No graph value and no
    forest is built.  ``g2`` is checked for connectivity only when the
    report is not ok: an ok replay kept every snapshot connected and ended
    equal to ``g2``.
    """
    require_compatible(g1, g2)
    _require_connected(g1)
    cur = _WorkingCopy(g1)
    for i, op in enumerate(seq):
        fault = _relabel_fault(cur, op)
        if fault is not None:
            _require_connected(g1, g2)
            return ValidationReport(False, len(seq), i, fault, False)
        cur.relabel(op)
    final_matches = cur.edges == g2.edges  # names and lifetime agree already
    if not final_matches:
        _require_connected(g1, g2)
    return ValidationReport(final_matches, len(seq), None, None, final_matches)


def require_compatible(g1: TemporalGraph, g2: TemporalGraph) -> None:
    """Raise unless both graphs share the vertex table and lifetime."""
    if g1.names != g2.names:
        raise GraphError("graphs have different vertex sets")
    if g1.lifetime != g2.lifetime:
        raise GraphError("graphs have different lifetimes")


def difference(g1: TemporalGraph, g2: TemporalGraph) -> int:
    """Number of temporal edges of ``g1`` that are absent from ``g2``."""
    require_compatible(g1, g2)
    return len(g1.edges - g2.edges)


def check_pair_counts(g1: TemporalGraph, g2: TemporalGraph) -> bool:
    """True iff every vertex pair carries equally many time labels in both;
    common edges add the same to both counts, so only the others are counted."""
    require_compatible(g1, g2)
    return _pair_counts_agree(g1.edges - g2.edges, g2.edges - g1.edges)


def _pair_counts_agree(only1: Collection[TemporalEdge], only2: Collection[TemporalEdge]) -> bool:
    """Whether the edges only one graph has and those only the other has
    hold the same multiset of vertex pairs."""
    return len(only1) == len(only2) and sorted(e[:2] for e in only1) == sorted(e[:2] for e in only2)


def align_names(g: TemporalGraph, like: TemporalGraph) -> TemporalGraph:
    """Renumber ``g`` to use the vertex order of ``like`` (same name set)."""
    if g.names == like.names:
        return g
    if set(g.names) != set(like.names):
        raise GraphError("graphs have different vertex sets")
    remap = {i: like.index(name) for i, name in enumerate(g.names)}
    edges = []
    for e in g.edges:
        u, v = remap[e.u], remap[e.v]
        if u > v:
            u, v = v, u
        edges.append(TemporalEdge(u, v, e.t))
    return TemporalGraph(like.names, g.lifetime, frozenset(edges))
