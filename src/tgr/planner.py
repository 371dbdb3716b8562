"""Feasibility decision and full plan synthesis between two temporal graphs.

A plan is found by repeatedly shrinking the set of differing edges: pick the
differing edge with the lowest level, run its enabling sequence on *both*
graphs, then move the differing edge itself onto a slot the target side has
free.  Both graphs march toward a common labeling; the final answer is the
forward half followed by the reversed target-side half.  A phase needs only
the levels of the differing edges and the chains below them, so its sweep
stops at the deepest of them, and never starts when all are non-bridges.

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
    apply_relabel,
    check_pair_counts,
    require_endpoints,
)
from .changeability import ChangeTable, classify, sequence_to_nonbridge


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


def _diff_table(
    g1: TemporalGraph, g2: TemporalGraph
) -> tuple[list[TemporalEdge], ChangeTable | None] | Infeasible:
    """The edges of g1 missing from g2 with g1's level table (None when none
    differ), or the first differing edge that is unchangeable.  The table is
    exact only for the differing edges (``classify``'s ``until``)."""
    diff = sorted(g1.edges - g2.edges)
    if not diff:
        return diff, None
    table = classify(g1, until=diff)
    for e in diff:
        if table.levels.get(e) is None:
            return Infeasible("unchangeable", e)
    return diff, table


def _first_phase(
    g1: TemporalGraph, g2: TemporalGraph
) -> tuple[list[TemporalEdge], ChangeTable | None] | Infeasible:
    """The decision: endpoint precondition, per-pair label counts, then
    ``_diff_table``.  Reconfiguration is possible exactly when this returns
    no ``Infeasible``."""
    require_endpoints(g1, g2)
    if not check_pair_counts(g1, g2):
        return Infeasible("pair_counts", None)
    return _diff_table(g1, g2)


def _phase(
    g1: TemporalGraph, g2: TemporalGraph, table: ChangeTable, diff: list[TemporalEdge]
) -> tuple[list[RelabelOp], list[RelabelOp], TemporalGraph, TemporalGraph]:
    """One difference-reducing phase: the ops for g1 and for g2, and the two
    graphs after them.

    An op is mirrored onto g2 only when its target slot is free there.  If
    the slot is occupied, g2 already has that pair where the op wants it,
    and skipping the op leaves the set of g1-only edges untouched, so the
    rest of the phase goes through unchanged.  (Mirroring unconditionally
    can collide; see the planner module notes.)
    """
    target = min(diff, key=lambda e: (table.levels[e], e))
    ops = sequence_to_nonbridge(g1, table, target)
    h1, h2 = g1, g2
    ops2: list[RelabelOp] = []
    for op in ops:
        h1 = apply_relabel(h1, op)
        if op.target() in h2.edges:
            continue
        ops2.append(op)
        h2 = apply_relabel(h2, op)
    u, v, _ = target
    slots = [t for t in range(1, h1.lifetime + 1) if (u, v, t) in h2.edges and (u, v, t) not in h1.edges]
    if not slots:
        raise GraphError("no free target slot for differing edge")  # pair counts guarantee one
    final = RelabelOp(u, v, target.t, slots[0])
    return ops + [final], ops2, apply_relabel(h1, final), h2


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
    step = _first_phase(g1, g2)
    if isinstance(step, Infeasible):
        if step.witness is None:
            raise GraphError("per-pair label counts differ")
        raise UnchangeableEdgeError(step.witness)
    diff, table = step
    if not diff:
        raise GraphError("graphs are already equal")
    return _phase(g1, g2, table, diff)[:2]


def feasible(
    g1: TemporalGraph, g2: TemporalGraph
) -> tuple[bool, Infeasible | None]:
    """Decide reachability without building a plan.

    Reconfiguration is possible exactly when every edge of g1 missing from
    g2 is changeable (and the per-pair label counts agree).
    """
    step = _first_phase(g1, g2)
    return (False, step) if isinstance(step, Infeasible) else (True, None)


def plan(g1: TemporalGraph, g2: TemporalGraph) -> PlanOutcome:
    """Full decision plus sequence synthesis.

    Runs difference-reducing phases until both sides agree, recomputing the
    level table on the current g1 each time.  The changeability of every
    differing edge is rechecked per phase: a violation after the first
    phase would contradict the construction, so it raises instead of
    returning Infeasible.
    """
    step = _first_phase(g1, g2)
    if isinstance(step, Infeasible):
        return step
    diff, table = step
    seq1: list[RelabelOp] = []
    seq2: list[RelabelOp] = []
    cur1, cur2 = g1, g2
    phases = 0
    while diff:
        ops1, ops2, cur1, cur2 = _phase(cur1, cur2, table, diff)
        seq1.extend(ops1)
        seq2.extend(ops2)
        phases += 1
        step = _diff_table(cur1, cur2)
        if isinstance(step, Infeasible):
            raise GraphError(
                f"differing edge became unchangeable mid-plan: {step.witness!r}"
            )
        diff, table = step
    if cur1 != cur2:
        raise GraphError("plan did not converge to a common graph")
    sequence = tuple(seq1 + [op.inverse() for op in reversed(seq2)])
    m = g1.m
    if len(sequence) > 2 * m * m:
        raise GraphError("plan exceeded the quadratic length bound")
    return Feasible(sequence, cur1, phases)
