import functools
import hashlib
import random

import pytest

import tgr.oracle
from tgr import (
    GraphError,
    MinStepsOutcome,
    OracleBudget,
    SearchOutcome,
    TemporalEdge,
    TemporalGraph,
    canonical_state,
    generate_random_instance,
    find_bridges,
    oracle_min_steps_map,
    oracle_min_steps_to_nonbridge,
    oracle_shortest_sequence,
    validate_sequence,
)

import helpers
from helpers import te


def test_shortest_tri(tri):
    out = oracle_shortest_sequence(*tri)
    assert out.status == "found" and len(out.sequence) == 1


def test_shortest_infeas_unreachable(infeas):
    out = oracle_shortest_sequence(*infeas)
    assert out.status == "unreachable" and out.sequence is None
    # the reachable component is the start graph alone: no valid moves exist
    assert helpers.all_valid_moves(infeas[0]) == []


def test_shortest_identity(tri):
    g1, _ = tri
    out = oracle_shortest_sequence(g1, g1)
    assert out.status == "found" and out.sequence == ()


def test_found_sequences_validate(tri):
    g1, g2 = tri
    out = oracle_shortest_sequence(g1, g2)
    assert validate_sequence(g1, out.sequence, g2).ok
    rng = random.Random(3)
    for seed in range(40):
        a = helpers.small_instance(seed)
        b = helpers.perturb(a, rng.randint(1, 5), rng)
        out = oracle_shortest_sequence(a, b)
        assert out.status == "found"
        assert validate_sequence(a, out.sequence, b).ok


def test_min_steps_chain2(chain2):
    assert oracle_min_steps_to_nonbridge(chain2, te(chain2, "a", "d", 1)).steps == 2
    assert oracle_min_steps_to_nonbridge(chain2, te(chain2, "a", "b", 1)).steps == 0


def test_min_steps_infeas_never(infeas):
    i1, _ = infeas
    for e in sorted(i1.edges):
        assert oracle_min_steps_to_nonbridge(i1, e).status == "never"


def test_min_steps_rejects_foreign_edge(chain2):
    with pytest.raises(GraphError):
        oracle_min_steps_to_nonbridge(chain2, te(chain2, "b", "c", 2))


def test_min_steps_map_matches_single_target(chain2):
    first, exhausted = oracle_min_steps_map(chain2)
    assert exhausted
    for e in sorted(chain2.edges):
        assert first[e] == oracle_min_steps_to_nonbridge(chain2, e).steps


def test_budget_exceeded_is_distinct(tri, chain2):
    from tgr import apply_relabel

    g2 = apply_relabel(chain2, helpers.op(chain2, "b", "c", 1, 2))
    g2 = apply_relabel(g2, helpers.op(g2, "d", "c", 2, 1))
    out = oracle_shortest_sequence(chain2, g2, OracleBudget(max_states=1))
    assert out.status == "budget"
    out = oracle_shortest_sequence(chain2, g2, OracleBudget(max_depth=0))
    assert out.status == "budget"
    ms = oracle_min_steps_to_nonbridge(chain2, te(chain2, "a", "d", 1), OracleBudget(max_states=1))
    assert ms.status == "budget"
    g1, _ = tri
    first, exhausted = oracle_min_steps_map(g1, OracleBudget(max_states=1))
    assert not exhausted


def test_depth_cap_on_chain2(chain2):
    target = te(chain2, "a", "d", 1)
    capped = oracle_min_steps_to_nonbridge(chain2, target, OracleBudget(max_depth=1))
    assert capped == MinStepsOutcome("budget")
    deep = oracle_min_steps_to_nonbridge(chain2, target, OracleBudget(max_depth=2))
    assert deep == MinStepsOutcome("steps", 2)
    first, exhausted = oracle_min_steps_map(chain2, OracleBudget(max_depth=1))
    assert target not in first and not exhausted and len(first) == 8
    first, exhausted = oracle_min_steps_map(chain2, OracleBudget(max_depth=2))
    assert first[target] == 2 and not exhausted and len(first) == 10


def test_budget_must_be_positive():
    with pytest.raises(GraphError):
        OracleBudget(max_states=0)


def test_depth_cap_must_be_non_negative():
    with pytest.raises(GraphError, match="max_depth must be non-negative"):
        OracleBudget(max_depth=-1)
    assert OracleBudget(max_depth=0).max_depth == 0


def test_depth_cap_still_finds_shallow_answers(tri):
    g1, g2 = tri
    out = oracle_shortest_sequence(g1, g2, OracleBudget(max_depth=1))
    assert out.status == "found" and len(out.sequence) == 1


def test_canonical_state_identity(tri):
    g1, _ = tri
    assert canonical_state(g1) == tuple(sorted(g1.edges))


def test_generator_edge_count_and_determinism():
    g = generate_random_instance(4, 2, 1, seed=7)
    assert g.m == 2 * (3 + 1)
    assert g == generate_random_instance(4, 2, 1, seed=7)
    assert g != generate_random_instance(4, 2, 1, seed=8)


def test_generator_trees_have_only_bridges():
    g = generate_random_instance(6, 2, 0, seed=1)
    assert find_bridges(g) == g.edges


def test_generator_rejects_impossible_extras():
    with pytest.raises(GraphError):
        generate_random_instance(3, 1, 2, seed=0)  # capacity is 1
    with pytest.raises(GraphError):
        generate_random_instance(0, 1, 0, seed=0)
    with pytest.raises(GraphError):
        generate_random_instance(2, 0, 0, seed=0)


def test_generator_single_vertex():
    g = generate_random_instance(1, 3, 0, seed=0)
    assert g.m == 0 and g.n == 1


def test_unreachable_iff_infeasible_on_exhausted_instances():
    from tgr import feasible

    rng = random.Random(11)
    for seed in range(80):
        g = helpers.small_instance(seed)
        h = helpers.random_compatible_target(g, rng)
        if h is None:
            continue
        out = oracle_shortest_sequence(g, h)
        assert out.status in ("found", "unreachable")
        ok, _ = feasible(g, h)
        assert ok == (out.status == "found"), seed


def _differential_pairs():
    """The 500 criterion-2 pairs, 200 perturbation walks and the fixtures."""
    from test_acceptance import FIG1_G1, FIG1_G2, FIG1_NAMES

    pairs = []
    seed = 0
    while len(pairs) < 500:
        g = helpers.small_instance(seed)
        h = helpers.random_compatible_target(g, random.Random(10_000 + seed))
        seed += 1
        if h is not None:
            pairs.append((g, h))
    rng = random.Random(70)
    for seed in range(200):
        g = helpers.small_instance(70_000 + seed)
        pairs.append((g, helpers.perturb(g, rng.randint(1, 8), rng)))
    pairs += [helpers.tri_pair(), helpers.infeas_pair()]
    pairs.append(tuple(TemporalGraph.build(FIG1_NAMES, 2, es) for es in (FIG1_G1, FIG1_G2)))
    return pairs


def test_shortest_sequence_matches_reference():
    statuses, digest = set(), hashlib.sha256()
    for g, h in _differential_pairs():
        ref = helpers.reference_shortest_sequence(g, h)
        out = oracle_shortest_sequence(g, h)
        digest.update(repr((out.status, out.sequence)).encode())
        assert out.status == ref.status, (g, h)
        statuses.add(out.status)
        if out.status == "found":
            assert len(out.sequence) == len(ref.sequence), (g, h)
            assert validate_sequence(g, out.sequence, h).ok, (g, h)
        for d in range(4):
            capped = oracle_shortest_sequence(g, h, OracleBudget(max_depth=d))
            digest.update(repr((capped.status, capped.sequence)).encode())
            ref_capped = helpers.reference_shortest_sequence(g, h, OracleBudget(max_depth=d))
            assert (capped.status == "found") == (ref_capped.status == "found"), (g, h, d)
            if capped.status == "found":
                assert len(capped.sequence) == len(out.sequence) <= d, (g, h, d)
                assert validate_sequence(g, capped.sequence, h).ok, (g, h, d)
            # "unreachable" stays a conclusive answer under a depth cap
            assert capped.status != "unreachable" or ref.status == "unreachable", (g, h, d)
    assert statuses == {"found", "unreachable"}
    # every status and sequence, uncapped and under caps 0-3, byte for byte
    # as the search gave them when it ran a breadth-first search per snapshot
    assert digest.hexdigest() == "76533092edb8abd59ec2768d5ce9a6b94d302d0651db3c1abeedcdd33e3baa7e"


def test_min_steps_match_reference():
    for seed in range(200):
        g = helpers.small_instance(seed)
        first, exhausted = oracle_min_steps_map(g)
        assert (first, exhausted) == helpers.reference_min_steps_map(g), seed
        assert exhausted
        for e in sorted(g.edges):
            want = MinStepsOutcome("steps", first[e]) if e in first else MinStepsOutcome("never")
            assert oracle_min_steps_to_nonbridge(g, e) == want, (seed, e)


def _count_traversals(monkeypatch, *methods) -> list:
    """Record every call of the given ``_Slots`` methods, by default every
    snapshot tree the oracle builds: by breadth-first search or derived
    from a parent's tree."""
    calls = []
    for name in methods or ("_search", "_gain", "_lose"):
        real = getattr(tgr.oracle._Slots, name)
        monkeypatch.setattr(tgr.oracle._Slots, name,
                            lambda self, *args, real=real, name=name: calls.append((name, args)) or real(self, *args))
    return calls


@pytest.mark.parametrize("graph", [helpers.chain2(), helpers.small_instance(17)], ids=["chain2", "seed17"])
def test_min_steps_map_traverses_each_snapshot_of_each_state_at_most_once(graph, monkeypatch):
    traversals = _count_traversals(monkeypatch)
    first, exhausted = oracle_min_steps_map(graph)
    assert exhausted and first
    states = len(helpers.reachable_graphs(graph))
    assert states > 1
    assert len(traversals) <= graph.lifetime * states
    space = tgr.oracle._Slots(graph, memo_size=1)
    (start,) = space.ends
    searched = [args for name, args in traversals if name == "_search"]
    assert searched == [(start & mask, t) for t, mask in enumerate(space.masks)]


def test_snapshot_memo_traverses_each_distinct_snapshot_once(monkeypatch):
    g = helpers.sparse_instance(45)
    assert g.lifetime == 3
    traversals = _count_traversals(monkeypatch)
    first, exhausted = oracle_min_steps_map(g)
    assert exhausted and first
    reachable = helpers.reachable_graphs(g)
    snapshots = {(t, frozenset(e for e in edges if e.t == t)) for edges in reachable for t in range(1, g.lifetime + 1)}
    assert len(traversals) <= len(snapshots) < g.lifetime * len(reachable)


def test_shortest_sequence_runs_a_search_only_for_the_end_states(monkeypatch):
    # a-b-c path reduction (47 temporal edges, lifetime 2): of the 1,273
    # states expanded, all but the two end states derive their trees from
    # their parents'
    from tgr import VCInstance, build_reduction

    red = build_reduction(VCInstance.build("abc", [("a", "b"), ("b", "c")], 1))
    searches = _count_traversals(monkeypatch, "_search")
    expanded = _count_traversals(monkeypatch, "derive")
    out = oracle_shortest_sequence(red.g1, red.g2)
    assert out.status == "found" and len(out.sequence) == 10
    assert len(searches) <= 2 * red.g1.lifetime
    assert len(expanded) > 1_000


def _check_every_move(g, memo_size=OracleBudget().max_states) -> tuple[int, set]:
    """Walk every graph reachable from ``g`` along trees derived from its
    breadth-first ones; check each snapshot's search and each move's
    derived non-bridges against one ``static_bridges`` per snapshot.  Every
    move of a checked mask is valid, so the walk meets every reachable
    graph.  Returns the moves checked and the kinds of source met (True for
    an edge off its snapshot's tree)."""
    space = tgr.oracle._Slots(g, memo_size=memo_size)
    want = functools.cache(lambda state: helpers.reference_nonbridges(space, state))
    (start,) = space.ends
    trees, stack, checked, kinds = {start: space.derive(start)}, [start], 0, set()
    while stack:
        state = stack.pop()
        searched = sum(space._search(state & mask, t)[2] for t, mask in enumerate(space.masks))
        nonbridges = space.nonbridges(trees[state])
        assert searched == nonbridges == want(state), (g, space.edges(state))
        for src in (bit for bit in space.moves if nonbridges & bit):
            kinds.add(bool(trees[state][space.slot[src][0]][1] & src))
            for dst in space.moves[src]:
                if state & dst:
                    continue
                succ = state ^ src ^ dst
                derived = space.derive(succ, state, trees[state])
                assert space.nonbridges(derived) == want(succ), (g, space.edges(state), space.edges(succ))
                checked += 1
                if succ not in trees:
                    trees[succ] = derived
                    stack.append(succ)
    return checked, kinds


def test_nonbridge_masks_match_one_static_bridges_per_snapshot(chain2, infeas):
    graphs = [*map(helpers.small_instance, range(200)), *map(helpers.sparse_instance, helpers.DEEP_T2_SEEDS),
              helpers.sparse_instance(45), helpers.sparse_instance(helpers.DEEP_T3_SEEDS[0]), chain2, infeas[0]]
    checked, kinds = 0, set()
    for g in graphs:
        moves, seen = _check_every_move(g)
        checked += moves
        kinds |= seen
    assert checked > 250_000 and kinds == {True, False}


def test_derived_masks_hold_across_folds_and_without_the_memo(monkeypatch):
    # folding every second exchange, most trees hold both a folded list and
    # a chain of exchanges
    folds, fold = [], tgr.oracle._Slots._fold
    monkeypatch.setattr(tgr.oracle._Slots, "_fold", staticmethod(lambda paths: folds.append(paths) or fold(paths)))
    monkeypatch.setattr(tgr.oracle._Slots, "FOLD", 2)
    checked = 0
    for g in [*map(helpers.small_instance, range(100)), *map(helpers.sparse_instance, helpers.DEEP_T2_SEEDS),
              helpers.sparse_instance(45)]:
        checked += _check_every_move(g, memo_size=0)[0]
    assert checked > 30_000 and len(folds) > 1_000


@pytest.mark.parametrize("lifetime", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1])
def test_graphs_without_edges(n, lifetime):
    g = TemporalGraph(tuple(f"v{i}" for i in range(n)), lifetime, frozenset())
    assert oracle_shortest_sequence(g, g) == SearchOutcome("found", ())
    assert oracle_min_steps_map(g) == ({}, True)
    assert oracle_min_steps_map(g, OracleBudget(max_states=1)) == ({}, True)
    assert oracle_min_steps_map(g, OracleBudget(max_depth=0)) == ({}, False)
    with pytest.raises(GraphError, match="not a temporal edge"):
        oracle_min_steps_to_nonbridge(g, TemporalEdge(0, 1, 1))


def test_both_search_sides_share_the_state_budget():
    # a-b-c path reduction (47 temporal edges): the two sides meet holding
    # 4,383 states together, where a forward search discovers 177,031
    from tgr import VCInstance, build_reduction

    red = build_reduction(VCInstance.build("abc", [("a", "b"), ("b", "c")], 1))
    out = oracle_shortest_sequence(red.g1, red.g2, OracleBudget(max_states=5_000))
    assert out.status == "found" and len(out.sequence) == 10
    assert oracle_shortest_sequence(red.g1, red.g2, OracleBudget(max_states=4_000)).status == "budget"
