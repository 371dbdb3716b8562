import random
from collections import Counter

import pytest

from tgr import (
    Feasible,
    GraphError,
    Infeasible,
    OracleBudget,
    TemporalEdge,
    TemporalGraph,
    UnchangeableEdgeError,
    apply_relabel,
    build_reduction,
    check_pair_counts,
    classify,
    decrease_difference,
    difference,
    feasible,
    find_bridges,
    generate_random_instance,
    is_always_connected,
    oracle_shortest_sequence,
    plan,
    sequence_to_nonbridge,
    validate_sequence,
)
from tgr import RelabelOp, changeability, core, planner, reachability
from tgr.core import is_valid_relabel

import helpers
from helpers import te


# randomized instance (frozen) whose single differing edge has level 1 and
# whose enabling op applies on the target side as well
K1_NAMES = ["v0", "v1", "v2", "v3", "v4", "v5"]
K1_G1 = [
    ("v0", "v2", 1), ("v0", "v2", 2), ("v0", "v3", 1), ("v1", "v4", 2),
    ("v1", "v5", 1), ("v2", "v3", 1), ("v2", "v3", 2), ("v2", "v4", 2),
    ("v2", "v5", 1), ("v3", "v4", 2), ("v3", "v5", 2), ("v4", "v5", 1),
]
K1_G2 = [
    ("v0", "v2", 1), ("v0", "v2", 2), ("v0", "v3", 1), ("v1", "v4", 2),
    ("v1", "v5", 1), ("v2", "v3", 1), ("v2", "v3", 2), ("v2", "v4", 2),
    ("v2", "v5", 2), ("v3", "v4", 2), ("v3", "v5", 1), ("v4", "v5", 1),
]

# frozen instance on which mirroring the enabling op onto g2 must be
# skipped: its target slot is already taken there
SKIP_NAMES = ["v0", "v1", "v2", "v3"]
SKIP_G1 = [
    ("v0", "v1", 1), ("v0", "v1", 2), ("v0", "v1", 3), ("v0", "v2", 1),
    ("v0", "v2", 3), ("v0", "v3", 2), ("v0", "v3", 3), ("v1", "v2", 1),
    ("v1", "v2", 2), ("v1", "v2", 3), ("v2", "v3", 1), ("v2", "v3", 2),
]
SKIP_G2 = [
    ("v0", "v1", 1), ("v0", "v1", 2), ("v0", "v1", 3), ("v0", "v2", 1),
    ("v0", "v2", 3), ("v0", "v3", 1), ("v0", "v3", 2), ("v1", "v2", 1),
    ("v1", "v2", 2), ("v1", "v2", 3), ("v2", "v3", 2), ("v2", "v3", 3),
]


def test_plan_tri(tri):
    g1, g2 = tri
    out = plan(g1, g2)
    assert isinstance(out, Feasible)
    assert len(out.sequence) == 1 and out.phases == 1
    assert validate_sequence(g1, out.sequence, g2).ok


def test_plan_infeasible_witness(infeas):
    i1, i2 = infeas
    out = plan(i1, i2)
    assert isinstance(out, Infeasible)
    assert out.reason == "unchangeable"
    assert out.witness == te(i1, "a", "b", 1)  # canonically first


def test_plan_identity(tri):
    g1, _ = tri
    out = plan(g1, g1)
    assert isinstance(out, Feasible)
    assert out.sequence == () and out.phases == 0
    assert out.meeting_graph == g1


def test_plan_pair_count_mismatch():
    a = TemporalGraph.build("abc", 2, [("a", "b", 1), ("b", "c", 1), ("a", "b", 2), ("b", "c", 2)])
    b = TemporalGraph.build("abc", 2, [("a", "c", 1), ("b", "c", 1), ("a", "c", 2), ("b", "c", 2)])
    out = plan(a, b)
    assert isinstance(out, Infeasible)
    assert out.reason == "pair_counts" and out.witness is None


def test_feasible_matches_plan(tri, infeas):
    ok, _ = feasible(*tri)
    assert ok
    ok, witness = feasible(*infeas)
    assert not ok and witness.reason == "unchangeable"
    g1, _ = tri
    assert feasible(g1, g1) == (True, None)


def test_the_decision_builds_no_planning_state(monkeypatch, tri, infeas):
    # feasible (and so check) decides from one classify of g1; only a plan
    # builds the state that its phases update
    g1, _ = tri
    mismatch = (g1, TemporalGraph(g1.names, g1.lifetime, g1.edges | {te(g1, "a", "c", 2)}))
    pairs = [tri, infeas, mismatch]
    pairs += [(red.g1, red.g2) for red in map(build_reduction, helpers.small_vc_instances())]
    planned = [plan(*pair) for pair in pairs]

    def refuse(*_):
        raise AssertionError("the decision built a planning state")

    monkeypatch.setattr(planner._PlanState, "__init__", refuse)
    for pair, out in zip(pairs, planned):
        ok, why = feasible(*pair)
        assert ok == isinstance(out, Feasible) and why == (None if ok else out), pair
    assert [type(out) for out in planned[:3]] == [Feasible, Infeasible, Infeasible]
    assert planned[2].reason == "pair_counts"


def test_decrease_difference_tri(tri):
    g1, g2 = tri
    seq1, seq2 = decrease_difference(g1, g2)
    assert len(seq1) == 1 and seq2 == []
    assert seq1[0] == helpers.op(g1, "a", "c", 1, 2)
    assert difference(apply_relabel(g1, seq1[0]), g2) == 0


def test_decrease_difference_rejects_equal(tri):
    g1, _ = tri
    with pytest.raises(GraphError):
        decrease_difference(g1, g1)


def test_decrease_difference_rejects_pair_count_mismatch(tri):
    g1, _ = tri
    g2 = TemporalGraph(g1.names, g1.lifetime, g1.edges | {te(g1, "a", "c", 2)})
    with pytest.raises(GraphError, match=r"^per-pair label counts differ$"):
        decrease_difference(g1, g2)


def test_decrease_difference_unchangeable_witness(infeas):
    i1, i2 = infeas
    with pytest.raises(UnchangeableEdgeError) as exc:
        decrease_difference(i1, i2)
    assert exc.value.witness == te(i1, "a", "b", 1)


def test_decrease_difference_level_one_mirrors_to_g2():
    g1 = TemporalGraph.build(K1_NAMES, 2, K1_G1)
    g2 = TemporalGraph.build(K1_NAMES, 2, K1_G2)
    seq1, seq2 = decrease_difference(g1, g2)
    assert len(seq1) == 2 and len(seq2) == 1
    h1, h2 = g1, g2
    for o in seq1:
        assert is_valid_relabel(h1, o)
        h1 = apply_relabel(h1, o)
    for o in seq2:
        assert is_valid_relabel(h2, o)
        h2 = apply_relabel(h2, o)
    assert difference(h1, h2) == difference(g1, g2) - 1


def test_plan_skips_inapplicable_mirror_ops():
    g1 = TemporalGraph.build(SKIP_NAMES, 3, SKIP_G1)
    g2 = TemporalGraph.build(SKIP_NAMES, 3, SKIP_G2)
    seq1, seq2 = decrease_difference(g1, g2)
    assert len(seq1) == 2 and seq2 == []  # the enabling op collides on g2
    out = plan(g1, g2)
    assert isinstance(out, Feasible)
    assert validate_sequence(g1, out.sequence, g2).ok


def test_each_phase_reduces_difference_by_exactly_one():
    # and only takes edges out of it, so the decision's table, which
    # levels every differing edge, shows them all changeable for the plan;
    # the Vertex-Cover reductions add deep bridge chains
    rng = random.Random(5)
    pairs = [(g, helpers.perturb(g, rng.randint(1, 6), rng)) for g in map(helpers.small_instance, range(60))]
    pairs += [(red.g1, red.g2) for red in map(build_reduction, helpers.small_vc_instances())]
    for g1, g2 in pairs:
        while difference(g1, g2) > 0:
            seq1, seq2 = decrease_difference(g1, g2)
            assert len(seq1) + len(seq2) <= 2 * len(seq1)  # tight accounting
            h1, h2 = g1, g2
            for o in seq1:
                h1 = apply_relabel(h1, o)
            for o in seq2:
                h2 = apply_relabel(h2, o)
            assert difference(h1, h2) == difference(g1, g2) - 1
            assert h1.edges - h2.edges < g1.edges - g2.edges
            g1, g2 = h1, h2


def test_plan_random_pairs_validate():
    rng = random.Random(99)
    for seed in range(150):
        g1 = helpers.small_instance(seed)
        g2 = helpers.perturb(g1, rng.randint(0, 8), rng)
        out = plan(g1, g2)
        assert isinstance(out, Feasible)
        rep = validate_sequence(g1, out.sequence, g2)
        assert rep.ok, (seed, rep)
        assert len(out.sequence) <= 2 * g1.m * g1.m


def test_plan_reversed_tail_is_valid_from_meeting_graph():
    g1 = TemporalGraph.build(K1_NAMES, 2, K1_G1)
    g2 = TemporalGraph.build(K1_NAMES, 2, K1_G2)
    out = plan(g1, g2)
    assert isinstance(out, Feasible)
    # forward prefix reaches the meeting graph, reversed tail leaves it
    cur = g1
    hits_meeting = False
    for o in out.sequence:
        cur = apply_relabel(cur, o)
        if cur == out.meeting_graph:
            hits_meeting = True
    assert hits_meeting and cur == g2


def test_plan_requires_same_vertex_table(tri):
    g1, _ = tri
    other = TemporalGraph.build("ab", 2, [("a", "b", 1), ("a", "b", 2)])
    with pytest.raises(GraphError):
        plan(g1, other)


@pytest.mark.parametrize("seed", [12, 17, 24, 50])
def test_target_not_always_connected_is_rejected(seed):
    # same per-pair label counts as g1 and every differing edge changeable,
    # but some snapshot of g2 is disconnected, so no valid sequence ends there
    g1 = helpers.small_instance(seed)
    rng = random.Random(seed)
    while True:
        g2 = TemporalGraph(g1.names, g1.lifetime, frozenset(
            TemporalEdge(u, v, t)
            for (u, v), count in sorted(g1.pair_counts().items())
            for t in rng.sample(range(1, g1.lifetime + 1), count)
        ))
        if not is_always_connected(g2):
            break
    for query in (feasible, plan, decrease_difference):
        with pytest.raises(GraphError, match="not always-connected"):
            query(g1, g2)


def test_plan_builds_forests_only_for_the_endpoint_checks(monkeypatch):
    # desk-shaped pair: `tgr gen 60 6 60` and 8 valid relabels on distinct
    # pairs; each phase re-classifies, and the planning state keeps the
    # forests of the snapshots a relabel changes current instead of rebuilding
    rng = random.Random(3)
    g1 = generate_random_instance(60, 6, 60, 3)
    g2, moved = g1, set()
    while len(moved) < 8:
        o = rng.choice(helpers.all_valid_moves(g2))
        if o.pair not in moved:
            moved.add(o.pair)
            g2 = apply_relabel(g2, o)
    g1, g2 = (TemporalGraph(g.names, g.lifetime, g.edges) for g in (g1, g2))  # empty caches
    real = core.static_bridges
    calls = []

    def counting(n, pairs):
        calls.append(n)
        return real(n, pairs)

    monkeypatch.setattr(core, "static_bridges", counting)
    out = plan(g1, g2)
    assert isinstance(out, Feasible) and len(out.sequence) >= 8
    assert len(calls) <= 2 * g1.lifetime



def forest_faults(state, t):
    """How the planning state's forest of snapshot ``t`` differs from a
    fresh ``static_bridges`` of that snapshot's current edges."""
    n, f = state.n, state.forests[t]
    pairs = {e.pair for e in state.edges if e.t == t}
    fresh = core.static_bridges(n, sorted(pairs))
    faults = []
    if {b.pair for b in f.above.values()} != set(fresh.above.values()):
        faults.append("bridges")
    if any(b.pair != tuple(sorted((c, f.parent[c]))) or b.t != t for c, b in f.above.items()):
        faults.append("bridge not above its lower end")
    if [x for x in range(n) if f.parent[x] < 0] != [0] or any(
        f.parent[x] >= 0 and tuple(sorted((x, f.parent[x]))) not in pairs for x in range(n)
    ):
        faults.append("not a spanning tree of the snapshot")
    if any(f.parent[x] >= 0 and f.depth[x] <= f.depth[f.parent[x]] for x in range(n)):
        faults.append("labels do not grow from parent to child")
    classes = [core._find(f.top, x) for x in range(n)]
    if len(set(zip(classes, fresh.top))) != len(set(classes)) or len(set(classes)) != len(set(fresh.top)):
        faults.append("2-edge-connected classes")
    return faults


def relabel_walk_instances():
    """Seeded instances with at least one edge to move, and how many steps
    to walk on each: the ladder, whose snapshot 2 is one large 2-edge-
    connected component, the reductions of the small Vertex-Cover
    instances, which are mostly bridges, the deep-chain seeds, and random
    graphs of up to 40 vertices."""
    out = [(helpers.ladder(30), 60)]
    out += [(build_reduction(inst).g1, 25) for inst in helpers.small_vc_instances()]
    out += [(helpers.sparse_instance(seed), 15) for seed in helpers.DEEP_T2_SEEDS]
    out += [(generate_random_instance(40, 3, 12, seed), 30) for seed in range(6)]
    return out


def test_planning_state_forests_match_fresh_static_bridges(monkeypatch):
    # each forest change returns the bridges it flipped, which the state's
    # non-bridges follow: ``add`` those the target snapshot lost, ``remove``
    # those the source snapshot gained
    returned = {}

    def recording(name):
        real = getattr(core._Forest, name)

        def method(forest, *args):
            returned[name] = out = real(forest, *args)
            return out
        return method

    for name in ("add", "remove"):
        monkeypatch.setattr(core._Forest, name, recording(name))

    def fresh_bridges(state, t):
        return set(core.static_bridges(state.n, [e for e in state.edges if e.t == t]).above.values())

    seen = Counter()
    for i, (g, steps) in enumerate(relabel_walk_instances()):
        rng = random.Random(i)
        state = planner._PlanState(g, g)
        for _ in range(steps):
            fresh = {t: fresh_bridges(state, t) for t in range(1, g.lifetime + 1)}
            bridges = set().union(*fresh.values())
            assert state.nonbridges == state.edges - bridges
            if bridges:
                b = rng.choice(sorted(bridges))
                with pytest.raises(GraphError, match="disconnects"):
                    state.forests[b.t].remove(b, state._adj(b.t))
                assert forest_faults(state, b.t) == [], (i, b)
            moves = [
                RelabelOp(e.u, e.v, e.t, t)
                for e in sorted(state.edges) if e not in bridges
                for t in range(1, g.lifetime + 1) if (e.u, e.v, t) not in state.edges
            ]
            if not moves:
                break
            o = rng.choice(moves)
            f = state.forests[o.from_time]
            r = core._find(f.top, o.u)
            component = {x for x in range(g.n) if core._find(f.top, x) == r}
            before = list(f.depth)
            seen["tree" if o.u == f.parent[o.v] or o.v == f.parent[o.u] else "non-tree"] += 1
            returned.clear()
            state.move(o)
            for t in (o.from_time, o.to_time):
                assert forest_faults(state, t) == [], (i, o, t)
            lost = fresh[o.to_time] - fresh_bridges(state, o.to_time)
            gained = fresh_bridges(state, o.from_time) - fresh[o.from_time]
            assert sorted(returned["add"]) == sorted(lost), (i, o)
            assert sorted(returned["remove"]) == sorted(gained), (i, o)
            seen["lost"] += len(lost)
            seen["gained"] += len(gained)
            seen["moves"] += 1
            seen["large"] += len(component) >= 20
            seen["shift"] += any(f.depth[x] != before[x] for x in range(g.n) if x not in component)
    assert seen["tree"] and seen["non-tree"] and seen["large"] and seen["shift"], seen
    assert seen["lost"] >= 1000 and seen["gained"] >= 1000, seen


def test_plan_leaves_the_cached_forests_of_its_input_alone():
    # the planning state copies g1's forests: sharing a list with the cache
    # would change what later queries, and later plans, read from g1
    red = build_reduction(helpers.small_vc_instances()[2])
    ladder = helpers.ladder(30)
    moved = TemporalGraph(ladder.names, 2, ladder.edges - {TemporalEdge(3, 5, 2)} | {TemporalEdge(3, 5, 1)})
    for g1, g2 in ((red.g1, red.g2), (ladder, moved)):
        queries = (classify, find_bridges, reachability._crossings)
        before = [q(g1) for q in queries]
        first = plan(g1, g2)
        assert isinstance(first, Feasible) and first.sequence
        assert [q(g1) for q in queries] == before
        assert [q(TemporalGraph(g1.names, g1.lifetime, g1.edges)) for q in queries] == before
        assert plan(g1, g2) == first


def differential_pairs():
    """Walks of 0..10 valid relabels and label-shuffled targets (either way
    round) of the deep-chain seeds, 200 criterion-3 style pairs, the
    reductions of the small Vertex-Cover instances (either way round), and
    label-shuffled small instances, some of them infeasible."""
    pairs = []
    for seed in helpers.DEEP_T2_SEEDS:
        g = helpers.sparse_instance(seed)
        rng = random.Random(seed)
        pairs += [(g, helpers.perturb(g, steps, rng)) for steps in range(11)]
        for _ in range(3):
            h = helpers.random_compatible_target(g, rng)
            if h is not None:
                pairs += [(g, h), (h, g)]
    for seed in range(200):
        rng = random.Random(60_000 + seed)
        n = rng.randint(2, 50)
        lifetime = rng.randint(1, 5)
        extra = rng.randint(0, min(n * (n - 1) // 2 - (n - 1), 3))
        g1 = generate_random_instance(n, lifetime, extra, seed)
        pairs.append((g1, helpers.perturb(g1, rng.randint(0, 8), rng)))
    for inst in helpers.small_vc_instances():
        red = build_reduction(inst)
        pairs += [(red.g1, red.g2), (red.g2, red.g1)]
    for seed in range(200):
        g = helpers.small_instance(seed)
        h = helpers.random_compatible_target(g, random.Random(seed))
        if h is not None:
            pairs.append((g, h))
    return pairs


def chain(table, e):
    """``e`` and its back-references down to level 0, with their levels."""
    out = [(e, table.levels[e])]
    while out[-1][1] > 0:
        b = table.back_refs[out[-1][0]]
        out.append((b, table.levels[b]))
    return out


def test_plan_matches_the_full_sweep_reference():
    seen = Counter()
    for g1, g2 in differential_pairs():
        ref = helpers.reference_plan(g1, g2)
        out = plan(g1, g2)
        if isinstance(ref, Feasible):
            assert isinstance(out, Feasible), (g1, g2)
            assert (out.sequence, out.phases) == (ref.sequence, ref.phases), (g1, g2)
        else:
            assert out == ref, (g1, g2)
        assert feasible(g1, g2)[0] == isinstance(ref, Feasible)
        seen[type(ref).__name__] += 1
        # the partial table of the first phase against the full sweep
        diff = g1.edges - g2.edges
        if not diff or not check_pair_counts(g1, g2):
            continue
        full, part = classify(g1), classify(g1, until=diff)
        assert all(full.levels.get(e) == k for e, k in part.levels.items())
        for e in diff:
            assert (e in part.levels) == (e in full.levels)
            if e in full.levels:
                assert chain(part, e) == chain(full, e), (g1, e)
        seen["deep"] += max((full.levels.get(e, 0) for e in diff), default=0) >= 2
        seen["partial"] += len(part.levels) < len(full.levels)
    assert seen["Feasible"] >= 700 and seen["Infeasible"] >= 30
    assert seen["deep"] >= 20 and seen["partial"] >= 100


def test_pair_counts_match_the_counter_form():
    seen = Counter()
    for g1, g2 in differential_pairs():
        for a, b in ((g1, g2), (g2, g1)):
            only_a, only_b = a.edges - b.edges, b.edges - a.edges
            want = Counter(e[:2] for e in only_a) == Counter(e[:2] for e in only_b)
            assert check_pair_counts(a, b) == core._pair_counts_agree(only_a, only_b) == want, (a, b)
            seen[want] += 1
        moved = min(g1.edges)  # a pair gives a label to another pair
        slots = (TemporalEdge(u, v, t) for u in range(g1.n) for v in range(u + 1, g1.n) for t in range(1, g1.lifetime + 1))
        free = next((e for e in slots if e.pair != moved.pair and e not in g1.edges), None)
        if free is not None:
            h = TemporalGraph(g1.names, g1.lifetime, g1.edges - {moved} | {free})
            assert not check_pair_counts(g1, h) and not check_pair_counts(h, g1)
            seen[False] += 1
    assert seen[True] >= 1400 and seen[False] >= 600, seen


def test_the_decision_builds_forests_for_g1_alone(monkeypatch):
    # g1's connectivity is read off the forests its sweep needs, and g2
    # costs one union-find pass per snapshot; no snapshot pays for both.
    # Equal endpoints have nothing to sweep: no forest, and one check
    real_forest, real_connected = core.static_bridges, core._connected
    forests, passes = [], []
    monkeypatch.setattr(core, "static_bridges", lambda n, edges: forests.append(edges) or real_forest(n, edges))
    monkeypatch.setattr(core, "_connected", lambda n, edges: passes.append(edges) or real_connected(n, edges))
    decided, seen = 0, Counter()
    for g1, g2 in differential_pairs()[::7]:
        for decide in (feasible, plan):
            g1, g2 = (TemporalGraph(g.names, g.lifetime, g.edges) for g in (g1, g2))
            forests.clear()
            passes.clear()
            decide(g1, g2)
            if g1 == g2:
                assert forests == [] and len(passes) == g1.lifetime
                decided += 1
                continue
            g1_snapshots = [g1._edges_at[t] for t in sorted(g1._edges_at)]
            assert [id(e) for e in forests[: g1.lifetime]] == list(map(id, g1_snapshots))
            assert g2._forest_at == {} and len(passes) == g2.lifetime
            assert not {id(e) for e in passes} & set(map(id, g1_snapshots))
            decided += 1
            seen["differ"] += 1
    assert decided > 150 and seen["differ"] > 100 and decided > seen["differ"], (decided, seen)


def test_plan_raises_when_a_later_phase_finds_an_unchangeable_differing_edge(monkeypatch, tri, infeas):
    # after the first phase, hand the loop a pair whose differing edges are
    # unchangeable: the goal-directed sweep must run to its end and say so
    real = planner._PlanState.phase

    def phase_then_swap(state, table):
        ops = real(state, table)
        state.__init__(*infeas)
        return ops

    monkeypatch.setattr(planner._PlanState, "phase", phase_then_swap)
    with pytest.raises(GraphError, match="differing edge became unchangeable mid-plan"):
        plan(*tri)


def test_each_phase_picks_the_target_and_chain_of_a_full_classify(monkeypatch):
    # a plan's later sweeps stop at the first level that levels a differing
    # edge, painting it only as far as the target, and none gets past the
    # level-0 rule while a differing edge is a non-bridge; each phase must
    # still move the target, along the chain, that a full level table of
    # side 1 gives, and every level below the stop level must be that of
    # the full table.  The non-bridges the state keeps must be those of its
    # edge set
    real_phase, real_table, real_sweep = planner._PlanState.phase, planner._PlanState.table, planner._sweep
    seen = Counter()

    def sweep(edges, forests, nonbridges, until, enough):
        # a decision or a phase, not the full classify below, past the level-0 rule
        seen["sweeps"] += until is not None and not enough(e in nonbridges for e in until)
        return real_sweep(edges, forests, nonbridges, until, enough)

    def table(state):
        sweeps, bridged = seen["sweeps"], not state.diff <= state.nonbridges
        out = real_table(state)
        swept = seen["sweeps"] > sweeps
        seen["stopped with a differing edge unlevelled"] += swept and not out.levels.keys() >= state.diff
        seen["no sweep with a differing bridge"] += bridged and not swept
        return out

    def phase(state, table):
        g = TemporalGraph(state._g.names, state.lifetime, frozenset(state.edges))
        full = classify(g)
        target = min(state.diff, key=lambda e: (full.levels[e], e))
        below = {e for e, k in full.levels.items() if k < table.max_level}
        assert {e: k for e, k in table.levels.items() if k < table.max_level} == {e: full.levels[e] for e in below}
        assert {e: table.back_refs.get(e) for e in below} == {e: full.back_refs.get(e) for e in below}
        assert state.nonbridges == state.edges - find_bridges(g)
        seen["non-bridges checked"] += 1
        seen["levels below the stop level"] += len(below)
        ops1, ops2 = real_phase(state, table)
        assert ops1[-1].source() == target and ops1[:-1] == sequence_to_nonbridge(g, full, target), g
        seen["phases"] += 1
        return ops1, ops2

    monkeypatch.setattr(changeability, "_sweep", sweep)
    monkeypatch.setattr(planner, "_sweep", sweep)
    monkeypatch.setattr(planner._PlanState, "table", table)
    monkeypatch.setattr(planner._PlanState, "phase", phase)
    for inst in helpers.small_vc_instances():
        red = build_reduction(inst)
        assert isinstance(plan(red.g1, red.g2), Feasible)
    # sweeping in every phase whose difference holds a bridge takes 136 here
    assert seen["phases"] == 156 and seen["sweeps"] <= 78, seen
    assert seen["non-bridges checked"] >= 100 and seen["levels below the stop level"] >= 1000, seen
    for g1, g2 in differential_pairs():
        plan(g1, g2)
    assert seen["stopped with a differing edge unlevelled"] and seen["no sweep with a differing bridge"], seen


def test_later_phase_tables_level_fewer_edges_than_full_stop_levels(monkeypatch):
    # a later sweep paints its stop level only as far as its target; sweeps
    # that paint whole stop levels give these plans' 136 later tables 6,461
    # entries in all
    real_table = planner._PlanState.table
    seen = Counter()

    def table(state):
        out = real_table(state)
        seen["tables"] += 1
        seen["entries"] += len(out.levels)
        return out

    monkeypatch.setattr(planner._PlanState, "table", table)
    for inst in helpers.small_vc_instances():
        red = build_reduction(inst)
        assert isinstance(plan(red.g1, red.g2), Feasible)
    assert seen["tables"] == 136 and seen["entries"] < 6461, seen


def test_feasible_matches_oracle_reachability_on_deep_chains():
    budget = OracleBudget(max_states=300_000)
    seen = Counter()
    for seed in helpers.DEEP_T2_SEEDS:
        g = helpers.sparse_instance(seed)
        rng = random.Random(seed + 1)
        targets = [helpers.perturb(g, steps, rng) for steps in (2, 5, 10)]
        targets += filter(None, (helpers.random_compatible_target(g, rng) for _ in range(4)))
        for h in targets:
            out = oracle_shortest_sequence(g, h, budget)
            assert out.status in ("found", "unreachable"), seed
            assert feasible(g, h)[0] == (out.status == "found"), (seed, h)
            seen[out.status] += 1
    # the only unchangeable edges (seeds 58 and 6424) are pairs that hold
    # both labels, which no walk or shuffle moves: every pair is reachable
    assert seen["unreachable"] == 0 and seen["found"] >= 120
