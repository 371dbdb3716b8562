"""Vertex-Cover instances embedded as shortest-reconfiguration problems.

``build_reduction`` turns a graph G and a budget k into a pair of
always-connected temporal graphs with lifetime 2 whose differing edges sit
in per-edge gadgets, plus the step budget ``ell = 2k + 4|E|``.  A vertex
cover of size c yields a valid sequence of length exactly ``2c + 4|E|``
(``cover_to_sequence``); conversely a short sequence must pay for one
prerequisite edge per gadget (``prerequisite_edges``), which is what makes
minimizing sequence length hard.

Gadget naming, part of the stable external contract (instance vertex ``a``,
instance edge ``{a, b}`` with a < b; inside a gadget name an instance name
has ``%``, ``_``, ``.`` and ``'`` percent-encoded as ``%25``, ``%5F``,
``%2E`` and ``%27``, so distinct instances never share a gadget name and a
name without those characters appears as is):

* ``a.1 a.2 a.3``             cycle vertices of ``a``
* ``a_b``, ``a_b'``           transition vertices of ``a`` for edge {a, b}
* ``e_a_b``, ``e_a_b.1``, ``e_a_b.2``   edge-gadget vertices of {a, b}

The label-2 edges ``{a.1, a.2}`` and ``{a.2, a.3}`` are the activation
edges of ``a``; the label-1 path from ``a.1`` through the transition
vertices to ``a.2`` carries the 1-transition edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import GraphError, RelabelOp, TemporalEdge, TemporalGraph


_ENCODE = str.maketrans({"%": "%25", "_": "%5F", ".": "%2E", "'": "%27"})


def _pair(g: TemporalGraph, a: str, b: str) -> tuple[int, int]:
    """The indices of the vertices named ``a`` and ``b`` in ``g``, smaller first."""
    i, j = g.index(a), g.index(b)
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class VCInstance:
    """Simple undirected graph plus a cover-size budget."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    k: int

    @classmethod
    def build(
        cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]], k: int
    ) -> "VCInstance":
        vs = tuple(sorted(set(vertices)))
        vset = set(vs)
        out: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on {u!r}")
            if u not in vset or v not in vset:
                raise GraphError(f"edge endpoint not a vertex: {u!r} {v!r}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {u} {v}")
            seen.add(key)
            out.append(key)
        if k < 0:
            raise GraphError("cover budget must be non-negative")
        return cls(vs, tuple(sorted(out)), k)

    def neighbors(self, v: str) -> list[str]:
        return sorted(b if a == v else a for a, b in self.edges if v in (a, b))


def _incident(inst: VCInstance) -> dict[str, list[tuple[str, str]]]:
    """Each vertex's edges in ``inst.edges`` order, in one pass over them."""
    out: dict[str, list[tuple[str, str]]] = {v: [] for v in inst.vertices}
    for e in inst.edges:
        out[e[0]].append(e)
        out[e[1]].append(e)
    return out


@dataclass(frozen=True)
class EdgeGadget:
    """Names of everything the reduction creates for one instance edge."""

    source: tuple[str, str]
    hub: str  # on the backbone path
    one: str  # carries the label-1 gadget edge in the start graph
    two: str  # carries the label-2 gadget edge in the start graph
    u_side: tuple[str, str]  # transition vertices (u_v, u_v')
    v_side: tuple[str, str]  # transition vertices (v_u, v_u')


@dataclass(frozen=True)
class ReductionOutput:
    instance: VCInstance
    g1: TemporalGraph
    g2: TemporalGraph
    ell: int
    vertex_triples: Mapping[str, tuple[str, str, str]]
    paths: Mapping[str, tuple[str, ...]]  # label-1 path of each instance vertex
    gadgets: Mapping[tuple[str, str], EdgeGadget]


def build_reduction(inst: VCInstance) -> ReductionOutput:
    """Construct the temporal-graph pair and budget for a cover instance.

    The start and target graph differ exactly in the two labeled edges of
    every edge-gadget (the target has them swapped), so their difference is
    2|E| and per-pair label counts agree.
    """
    names: list[str] = []
    triples: dict[str, tuple[str, str, str]] = {}
    paths: dict[str, tuple[str, ...]] = {}
    gadgets: dict[tuple[str, str], EdgeGadget] = {}

    enc = {v: v.translate(_ENCODE) for v in inst.vertices}
    for v, incident in _incident(inst).items():
        a = enc[v]
        triple = (f"{a}.1", f"{a}.2", f"{a}.3")
        triples[v] = triple
        names.extend(triple)
        path = [triple[0]]
        for w in sorted(y if x == v else x for x, y in incident):
            path.extend((f"{a}_{enc[w]}", f"{a}_{enc[w]}'"))
        path.append(triple[1])
        paths[v] = tuple(path)
        names.extend(path[1:-1])
    for u, v in inst.edges:
        a, b = enc[u], enc[v]
        hub = f"e_{a}_{b}"
        gadgets[(u, v)] = EdgeGadget(
            source=(u, v),
            hub=hub,
            one=f"{hub}.1",
            two=f"{hub}.2",
            u_side=(f"{a}_{b}", f"{a}_{b}'"),
            v_side=(f"{b}_{a}", f"{b}_{a}'"),
        )
        names.extend((hub, f"{hub}.1", f"{hub}.2"))

    def both(a: str, b: str) -> list[tuple[str, str, int]]:
        return [(a, b, 1), (a, b, 2)]

    shared: list[tuple[str, str, int]] = []
    for v in inst.vertices:
        v1, v2, v3 = triples[v]
        shared.append((v1, v2, 2))  # activation edge
        shared.append((v2, v3, 2))  # activation edge
        shared.extend(both(v3, v1))
        path = paths[v]
        shared.extend(
            (a, b, 1) for a, b in zip(path, path[1:])
        )  # 1-transition edges
    for gd in gadgets.values():
        shared.extend(both(gd.one, gd.two))
        u_v, u_v2 = gd.u_side
        v_u, v_u2 = gd.v_side
        shared.append((gd.hub, u_v, 2))  # 2-transition edges
        shared.append((gd.hub, v_u, 2))
        shared.append((gd.two, u_v2, 2))
        shared.append((gd.two, v_u2, 2))
    backbone = [triples[v][2] for v in inst.vertices] + [
        gadgets[e].hub for e in inst.edges
    ]
    for a, b in zip(backbone, backbone[1:]):
        shared.extend(both(a, b))

    e1 = list(shared)
    e2 = list(shared)
    for gd in gadgets.values():
        e1.append((gd.hub, gd.one, 1))
        e1.append((gd.hub, gd.two, 2))
        e2.append((gd.hub, gd.one, 2))  # gadget labels swapped in the target
        e2.append((gd.hub, gd.two, 1))

    g1 = TemporalGraph.build(names, 2, e1)
    g2 = TemporalGraph.build(names, 2, e2)
    ell = 2 * inst.k + 4 * len(inst.edges)
    return ReductionOutput(inst, g1, g2, ell, triples, paths, gadgets)


def cover_to_sequence(red: ReductionOutput, cover: Iterable[str]) -> list[RelabelOp]:
    """Relabeling sequence realizing a vertex cover, valid from g1 to g2.

    Per cover vertex: open its label-1 cycle by pulling one activation edge
    down, fix each still-unfixed incident edge-gadget with four flips, then
    restore the activation edge.  Length is exactly 2c + 4|E| for a cover
    of c non-isolated vertices (isolated vertices are skipped: they have
    nothing to fix and their degenerate direct path blocks the activation
    flip).
    """
    inst = red.instance
    cover = sorted(set(cover))
    vset = set(inst.vertices)
    for v in cover:
        if v not in vset:
            raise GraphError(f"cover contains unknown vertex {v!r}")
    cover_set = set(cover)
    for u, v in inst.edges:
        if u not in cover_set and v not in cover_set:
            raise GraphError(f"not a vertex cover: edge {u} {v} uncovered")

    def flip(a: str, b: str, t_from: int, t_to: int) -> RelabelOp:
        return RelabelOp(*_pair(red.g1, a, b), t_from, t_to)

    ops: list[RelabelOp] = []
    fixed: set[tuple[str, str]] = set()
    incident_to = _incident(inst)
    for v in cover:
        incident = incident_to[v]
        if not incident:
            continue
        v1, v2, _ = red.vertex_triples[v]
        ops.append(flip(v1, v2, 2, 1))
        for key in incident:
            if key in fixed:
                continue
            gd = red.gadgets[key]
            mine, mine2 = gd.u_side if key[0] == v else gd.v_side
            ops.append(flip(mine, mine2, 1, 2))
            ops.append(flip(gd.hub, gd.two, 2, 1))
            ops.append(flip(gd.hub, gd.one, 1, 2))
            ops.append(flip(mine, mine2, 2, 1))
            fixed.add(key)
        ops.append(flip(v1, v2, 1, 2))
    return ops


def prerequisite_edges(
    red: ReductionOutput, edge: tuple[str, str]
) -> frozenset[TemporalEdge]:
    """The edges of which at least one must move before the gadget of
    ``edge`` can be fixed: the two label-2 edges crossing into the gadget,
    plus the label-1 path edges touching the primed transition vertex on
    either side.
    """
    key = (min(edge), max(edge))
    if key not in red.gadgets:
        raise GraphError(f"unknown instance edge {edge!r}")
    gd = red.gadgets[key]
    g1 = red.g1
    out: set[TemporalEdge] = set()

    def te(a: str, b: str, t: int) -> TemporalEdge:
        return TemporalEdge(*_pair(g1, a, b), t)

    for _, primed in (gd.u_side, gd.v_side):
        out.add(te(primed, gd.two, 2))
    for side, endpoint in ((gd.u_side, key[0]), (gd.v_side, key[1])):
        primed = side[1]
        path = red.paths[endpoint]
        pos = path.index(primed)
        out.add(te(path[pos - 1], primed, 1))
        out.add(te(primed, path[pos + 1], 1))
    for e in out:
        if e not in g1.edges:
            raise GraphError(f"prerequisite bookkeeping out of sync: {e!r}")
    return frozenset(out)


def brute_force_vertex_cover(inst: VCInstance) -> tuple[str, ...] | None:
    """Smallest-then-lexicographic cover of size at most k, or None.

    Exhaustive subset search; only meant for small instances.
    """
    if len(inst.vertices) > 20:
        raise GraphError("brute force limited to at most 20 vertices")
    for size in range(min(inst.k, len(inst.vertices)) + 1):
        for combo in itertools.combinations(inst.vertices, size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in inst.edges):
                return combo
    return None
