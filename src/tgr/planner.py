"""Feasibility decision and full plan synthesis between two temporal graphs.

The decision is one goal-directed ``classify`` of g1: with the per-pair
label counts in agreement, reconfiguration is possible exactly when it
levels every differing edge.  Only then is a plan built.  A plan is found
by repeatedly shrinking the set of differing edges: pick the differing
edge with the lowest level, run its enabling sequence on *both* graphs,
then move the differing edge itself onto a slot the target side has free.
Both graphs march toward a common labeling; the final answer is the
forward half followed by the reversed target-side half.  Relabels are
reversible, so graphs that reach each other reach the same graphs, and
whether a slot can carry a non-bridge is fixed among them.  The decision
thus shows every differing edge changeable for the whole plan (the
difference only shrinks), so a later phase needs only the smallest
differing edge of the first level that levels one, and its chain.  The
sweep (``changeability._sweep``) paints nothing when a differing edge is
a non-bridge, and otherwise the levels below that stop level in full, and
the stop level snapshot by snapshot, smallest differing edge first, each
only until that edge is claimed.

Both sides live in one private planning state, built only to plan two
graphs that differ and updated in place by every relabel; no graph value
is built but the meeting graph.  The state copies every snapshot's bridge
forest once, at the start, and keeps the copies current for the sweeps:
adding an edge costs its painted tree path, and removing one costs the
edges of its 2-edge-connected component plus any subtree shifted below it.
Each returns the bridges it flipped, from which the state keeps its one
set of non-bridges, the sweeps' level 0, current.

One wrinkle: an enabling op can be inapplicable on the target side, namely
when its destination slot is already occupied there (necessarily by an edge
only the target has).  Such an op is skipped on that side.  The skip swaps
which of the pair's slots the target side is "ahead" on but leaves the set
of source-only edges untouched, so difference bookkeeping, validity of the
remaining ops, and the length bound all carry through.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    GraphError,
    RelabelOp,
    TemporalEdge,
    TemporalGraph,
    _checked_graph,
    _Forest,
    _pair_counts_agree,
    _require_connected,
    _require_slot,
    _snapshot_forests,
    _WorkingCopy,
    require_compatible,
)
from .changeability import ChangeTable, _sweep, classify, sequence_to_nonbridge


@dataclass(frozen=True)
class Feasible:
    sequence: tuple[RelabelOp, ...]
    meeting_graph: TemporalGraph
    phases: int


@dataclass(frozen=True)
class Infeasible:
    reason: str  # "unchangeable" | "pair_counts"
    witness: TemporalEdge | None  # unchangeable differing edge, if any


PlanOutcome = Feasible | Infeasible


class UnchangeableEdgeError(GraphError):
    """A differing edge can never become a non-bridge."""

    def __init__(self, witness: TemporalEdge):
        super().__init__(f"unchangeable differing edge: {witness!r}")
        self.witness = witness


class _PlanState(_WorkingCopy):
    """The two sides of a plan while it runs, both starting as copies of
    the endpoints.  Side 1 is a working copy (its edge set and the
    neighbour sets of each snapshot a move touched) that also keeps
    ``forests``, a private copy of every snapshot's forest made at the
    start, and ``nonbridges``, its set of non-bridges, both of which
    ``move`` alone keeps current.  Side 2 keeps only its edge set, and
    ``diff`` the edges only side 1 has.  A level table of the state holds
    side 1's live edge set, so it is read before the next move.
    """

    def __init__(self, g1: TemporalGraph, g2: TemporalGraph):
        super().__init__(g1)
        self.edges2 = set(g2.edges)
        self.diff = self.edges - self.edges2
        forests = _snapshot_forests(g1)
        self.nonbridges = self.edges.difference(*(f.above.values() for f in forests.values()))
        self.forests = {t: _Forest(f) for t, f in forests.items()}

    def table(self) -> ChangeTable:
        """Side 1's level table from a goal-directed sweep: exact below the
        first level that levels some differing edge, and at that level it
        holds the smallest such edge and its chain, all that ``phase``
        reads; the sweep's level-0 rule paints nothing when some differing
        edge is a non-bridge.  Raises if it levels no differing edge."""
        table = _sweep(self.edges, self.forests, self.nonbridges, self.diff, any)
        if table.levels.keys().isdisjoint(self.diff):  # walks the smaller side
            raise GraphError(f"differing edge became unchangeable mid-plan: {min(self.diff)!r}")
        return table

    def move(self, op: RelabelOp) -> None:
        """Apply ``op`` to side 1, and to ``nonbridges`` the bridges that
        its two forests flip; raises if it breaks the slot rule or moves a
        bridge."""
        _require_slot(self, op)
        src, tgt = op.source(), op.target()
        self.relabel(op)
        self.nonbridges.update(self.forests[tgt.t].add(tgt.u, tgt.v))
        for bridge in self.forests[src.t].remove(src, self._adj(src.t)):
            self.nonbridges.remove(bridge)
        self.nonbridges.remove(src)
        self.nonbridges.add(tgt)
        self.diff.discard(src)
        if tgt not in self.edges2:
            self.diff.add(tgt)

    def mirror(self, op: RelabelOp) -> None:
        """Apply ``op``, whose target slot is free there, to side 2."""
        src, tgt = op.source(), op.target()
        if src not in self.edges2:
            raise GraphError(f"cannot apply {op!r}: missing_edge")
        self.edges2.remove(src)
        self.edges2.add(tgt)
        self.diff.discard(tgt)  # ``move`` of the same op took src off side 1

    def phase(self, table: ChangeTable) -> tuple[list[RelabelOp], list[RelabelOp]]:
        """One difference-reducing phase: the ops for side 1 and for side 2,
        applied to both.

        An op is mirrored onto side 2 only when its target slot is free
        there.  If the slot is occupied, side 2 already has that pair where
        the op wants it, and skipping the op leaves the set of side-1-only
        edges untouched, so the rest of the phase goes through unchanged.
        (Mirroring unconditionally can collide; see the module notes.)
        """
        _, target = min((table.levels[e], e) for e in self.diff if e in table.levels)
        ops = sequence_to_nonbridge(self, table, target)
        ops2: list[RelabelOp] = []
        for op in ops:
            self.move(op)
            if op.target() in self.edges2:
                continue
            ops2.append(op)
            self.mirror(op)
        u, v, _ = target
        slots = [t for t in range(1, self.lifetime + 1) if (u, v, t) in self.edges2 and (u, v, t) not in self.edges]
        if not slots:
            raise GraphError("no free target slot for differing edge")  # pair counts guarantee one
        final = RelabelOp(u, v, target.t, slots[0])
        self.move(final)
        return ops + [final], ops2


def _decide(g1: TemporalGraph, g2: TemporalGraph) -> ChangeTable | Infeasible:
    """The decision: endpoint precondition, per-pair label counts, then
    ``classify`` of g1 until every differing edge has a level.
    Reconfiguration is possible exactly when this returns a table.  g1's
    connectivity is read off the forests its sweep needs, built first; with
    no difference, no forest is built, and g1's, like g2's, costs one
    union-find pass."""
    require_compatible(g1, g2)
    diff = g1.edges - g2.edges
    if diff:
        g1._forests()
    _require_connected(g1, g2)
    if not _pair_counts_agree(diff, g2.edges - g1.edges):
        return Infeasible("pair_counts", None)
    if not diff:
        return ChangeTable(g1.edges, {}, {}, -1)
    table = classify(g1, until=diff)
    stuck = diff.difference(table.levels)
    return Infeasible("unchangeable", min(stuck)) if stuck else table


def decrease_difference(
    g1: TemporalGraph, g2: TemporalGraph
) -> tuple[list[RelabelOp], list[RelabelOp]]:
    """Relabeling sequences for g1 and g2 that reduce their difference by one.

    The g1 sequence carries the enabling ops plus the final move of the
    differing edge; the g2 sequence carries the enabling ops that are
    applicable on g2 (see the module notes on skipped ops).  Both are valid
    on their own graph.  This is the first phase of ``plan``.  Requires a
    positive difference, matching pair counts, and every differing edge
    changeable.
    """
    table = _decide(g1, g2)
    if isinstance(table, Infeasible):
        if table.witness is None:
            raise GraphError("per-pair label counts differ")
        raise UnchangeableEdgeError(table.witness)
    if g1.edges == g2.edges:
        raise GraphError("graphs are already equal")
    return _PlanState(g1, g2).phase(table)


def feasible(
    g1: TemporalGraph, g2: TemporalGraph
) -> tuple[bool, Infeasible | None]:
    """Decide reachability without building a plan.

    Reconfiguration is possible exactly when every edge of g1 missing from
    g2 is changeable (and the per-pair label counts agree).  It builds no
    planning state.
    """
    step = _decide(g1, g2)
    return (False, step) if isinstance(step, Infeasible) else (True, None)


def plan(g1: TemporalGraph, g2: TemporalGraph) -> PlanOutcome:
    """Full decision plus sequence synthesis.

    Runs difference-reducing phases on one planning state until both sides
    agree.  The first phase reads the decision's table; each later one a
    goal-directed table of the current side 1 that holds its target and
    the target's chain.  A later table that levels no differing edge would
    contradict the decision, so it raises instead of returning Infeasible.
    """
    table = _decide(g1, g2)
    if isinstance(table, Infeasible):
        return table
    if not table.levels:  # equal endpoints
        return Feasible((), g1, 0)
    state = _PlanState(g1, g2)
    seq1: list[RelabelOp] = []
    seq2: list[RelabelOp] = []
    phases = 0
    while state.diff:
        if phases:
            table = state.table()
        ops1, ops2 = state.phase(table)
        seq1.extend(ops1)
        seq2.extend(ops2)
        phases += 1
    if state.edges != state.edges2:
        raise GraphError("plan did not converge to a common graph")
    sequence = tuple(seq1 + [op.inverse() for op in reversed(seq2)])
    m = g1.m
    if len(sequence) > 2 * m * m:
        raise GraphError("plan exceeded the quadratic length bound")
    meeting = _checked_graph(g1.names, g1.lifetime, frozenset(state.edges))
    return Feasible(sequence, meeting, phases)
