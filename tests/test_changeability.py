import itertools
import random

import pytest

from tgr import (
    GraphError,
    OracleBudget,
    TemporalEdge,
    TemporalGraph,
    VCInstance,
    apply_relabel,
    build_reduction,
    classify,
    find_bridges,
    generate_random_instance,
    is_always_connected,
    oracle_min_steps_map,
    oracle_min_steps_to_nonbridge,
    reachability_partition,
    sequence_to_nonbridge,
)
from tgr import core
from tgr.core import is_valid_relabel

import helpers
from helpers import reference_classify, te


def test_chain2_levels(chain2):
    table = classify(chain2)
    by_level = {}
    for e, lv in table.levels.items():
        by_level.setdefault(lv, set()).add(e)
    assert by_level[0] == {te(chain2, "a", "b", 1), te(chain2, "b", "c", 1), te(chain2, "c", "a", 1)}
    assert by_level[1] == {te(chain2, "a", "b", 2), te(chain2, "d", "c", 2), te(chain2, "a", "d", 2)}
    assert by_level[2] == {te(chain2, "a", "d", 1)}
    assert not table.unchangeable_edges()
    assert table.max_level == 2


def test_infeas_all_unchangeable(infeas):
    i1, _ = infeas
    table = classify(i1)
    assert not table.levels
    assert set(table.unchangeable_edges()) == set(i1.edges)
    assert table.max_level == -1


def test_tri_levels(tri):
    g1, _ = tri
    table = classify(g1)
    assert table.level(te(g1, "a", "b", 1)) == 0
    assert table.level(te(g1, "b", "c", 1)) == 0
    assert table.level(te(g1, "a", "c", 1)) == 0
    assert table.level(te(g1, "a", "b", 2)) == 1
    assert table.level(te(g1, "b", "c", 2)) == 1
    # (a,b,1) sorts first and its path at time 2 is the bridge (a,b,2), but
    # moving it there would collide with that bridge's own pair
    assert table.back_refs[te(g1, "a", "b", 2)] == te(g1, "a", "c", 1)
    assert table.back_refs[te(g1, "b", "c", 2)] == te(g1, "a", "c", 1)


def test_no_bridge_graph_all_level_zero():
    g = helpers.two_triangles()
    table = classify(g)
    assert all(lv == 0 for lv in table.levels.values())
    assert len(table.levels) == g.m


def test_level_zero_is_exactly_the_nonbridges():
    for seed in range(150):
        g = helpers.small_instance(seed)
        table = classify(g)
        bridges = find_bridges(g)
        for e in g.edges:
            assert (table.levels.get(e) == 0) == (e not in bridges)


def test_back_refs_step_down_one_level():
    for seed in range(150):
        g = helpers.small_instance(seed)
        table = classify(g)
        for e, ref in table.back_refs.items():
            assert table.levels[ref] == table.levels[e] - 1


def test_levels_are_contiguous():
    # the sweep stops at the first empty level, so occupied levels are 0..max
    for seed in range(150):
        g = helpers.small_instance(seed)
        table = classify(g)
        got = sorted(set(table.levels.values()))
        assert got == list(range(len(got)))
        assert table.max_level == (got[-1] if got else -1)


def test_is_changeable(tri, infeas):
    assert all(classify(tri[0]).is_changeable(e) for e in tri[0].edges)
    assert not any(classify(infeas[0]).is_changeable(e) for e in infeas[0].edges)


def test_level_table_rejects_foreign_edge(tri):
    g1, _ = tri
    table = classify(g1)
    with pytest.raises(GraphError):
        table.level(te(g1, "a", "c", 2))


def test_sequence_chain2_two_steps(chain2):
    table = classify(chain2)
    target = te(chain2, "a", "d", 1)
    seq = sequence_to_nonbridge(chain2, table, target)
    assert len(seq) == 2
    cur = chain2
    for o in seq:
        assert is_valid_relabel(cur, o)
        cur = apply_relabel(cur, o)
    assert target not in find_bridges(cur)
    assert oracle_min_steps_to_nonbridge(chain2, target).steps == 2


def test_sequence_chain2_zero_and_one_step(chain2):
    table = classify(chain2)
    assert sequence_to_nonbridge(chain2, table, te(chain2, "a", "b", 1)) == []
    seq = sequence_to_nonbridge(chain2, table, te(chain2, "d", "c", 2))
    assert len(seq) == 1
    cur = apply_relabel(chain2, seq[0])
    assert te(chain2, "d", "c", 2) not in find_bridges(cur)


def test_sequence_rejects_unchangeable(infeas):
    i1, _ = infeas
    table = classify(i1)
    with pytest.raises(GraphError):
        sequence_to_nonbridge(i1, table, te(i1, "a", "b", 1))


def test_generated_sequences_valid_and_collision_free():
    # every emitted op must find its source present, its target slot free,
    # and its source a non-bridge at application time
    for seed in range(200):
        g = helpers.small_instance(seed)
        table = classify(g)
        for target in sorted(table.levels):
            seq = sequence_to_nonbridge(g, table, target)
            assert len(seq) == table.levels[target]
            cur = g
            for o in seq:
                assert o.source() in cur.edges
                assert o.target() not in cur.edges
                assert is_valid_relabel(cur, o)
                cur = apply_relabel(cur, o)
            assert target not in find_bridges(cur)


def test_levels_match_oracle_small():
    for seed in range(60):
        g = helpers.small_instance(seed)
        table = classify(g)
        for e in sorted(g.edges):
            outcome = oracle_min_steps_to_nonbridge(g, e)
            if e in table.levels:
                assert outcome.status == "steps" and outcome.steps == table.levels[e]
            else:
                assert outcome.status == "never"


def test_classify_is_compose_of_cross_and_table(chain2):
    table = reference_classify(chain2)
    assert table == classify(chain2)


def test_classify_computes_each_snapshot_bridges_once(monkeypatch):
    g = generate_random_instance(8, 4, 2, 3)
    snapshots = len({e.t for e in g.edges})
    real = core.static_bridges
    calls = []

    def counting(n, pairs):
        calls.append(n)
        return real(n, pairs)

    monkeypatch.setattr(core, "static_bridges", counting)
    assert is_always_connected(g)
    assert calls == []  # connectivity alone builds no forest
    table = classify(g)
    for b in find_bridges(g):
        reachability_partition(g, b)
    assert len(calls) == snapshots
    assert table == classify(g)  # served from the cache
    assert len(calls) == snapshots

    calls.clear()
    edges = [("a", "b", 1), ("b", "c", 1), ("a", "b", 2), ("a", "b", 3)]
    broken = TemporalGraph.build("abc", 3, edges)
    assert not is_always_connected(broken)
    assert calls == []
    with pytest.raises(GraphError, match="snapshot 2 is not connected"):
        classify(TemporalGraph.build("abc", 3, edges))
    assert len(calls) == 2  # the forests are built in time order, up to the first disconnected snapshot


def test_change_table_rejects_disconnected_graph():
    g = TemporalGraph.build("abc", 1, [("a", "b", 1)])
    with pytest.raises(GraphError):
        classify(g)


def vc_reduction_graphs(n, m, seed):
    """Start and target graph of the reduction of a seeded G(n, m)."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(n)]
    inst = VCInstance.build(names, rng.sample(list(itertools.combinations(names, 2)), m), n // 2)
    out = build_reduction(inst)
    return [out.g1, out.g2]


def differential_corpus():
    graphs = [helpers.small_instance(seed) for seed in range(500)]
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        graphs.append(generate_random_instance(n, rng.randint(2, 4), rng.randint(0, 2), seed))
    for (n, m), seed in itertools.product([(6, 6), (10, 12), (20, 28)], range(3)):
        graphs += vc_reduction_graphs(n, m, seed)
    return graphs


def test_classify_matches_crossing_map_reference():
    deep = 0
    for i, g in enumerate(differential_corpus()):
        table = classify(g)
        ref = reference_classify(g)
        assert table.levels == ref.levels, i
        assert table.back_refs == ref.back_refs, i
        assert table.max_level == ref.max_level, i
        deep += table.max_level >= 2
    assert deep >= 20  # the sweep beyond level 1 is exercised


def test_ladder_matches_reference_and_pins_back_refs():
    n = 200
    g = helpers.ladder(n)
    table = classify(g)
    assert table == reference_classify(g)
    assert table.max_level == 1
    for i in range(n - 1):
        # the first label-2 edge across it in canonical order, skipping its own pair
        lo = max(i - 1, 0)
        assert table.back_refs[TemporalEdge(i, i + 1, 1)] == TemporalEdge(lo, lo + 2, 2)


def test_sparse_deep_chains_match_crossing_map_reference():
    depth = []
    for seed in [*range(300), *helpers.DEEP_T2_SEEDS, *helpers.DEEP_T3_SEEDS]:
        g = helpers.sparse_instance(seed)
        table = classify(g)
        ref = reference_classify(g)
        assert table.levels == ref.levels, seed
        assert table.back_refs == ref.back_refs, seed
        assert table.max_level == ref.max_level, seed
        depth.append(table.max_level)
    assert sum(d >= 3 for d in depth) >= 10
    assert max(depth) >= 4


def test_deep_chains_match_the_oracle():
    # levels and enabling-chain lengths of every edge, on instances with
    # chains of 3 and 4 levels, against an exhaustive search
    for seed in [*helpers.DEEP_T2_SEEDS, *helpers.DEEP_T3_SEEDS]:
        g = helpers.sparse_instance(seed)
        assert g.lifetime == (2 if seed in helpers.DEEP_T2_SEEDS else 3), seed
        table = classify(g)
        assert table.max_level >= 3, seed
        first, exhausted = oracle_min_steps_map(g, OracleBudget(max_states=300_000))
        assert exhausted, seed
        for e in g.edges:
            assert table.levels.get(e) == first.get(e), (seed, e)
            if e in table.levels:
                assert len(sequence_to_nonbridge(g, table, e)) == first[e], (seed, e)


def test_until_stops_at_the_level_its_edges_need(chain2, infeas):
    full = classify(chain2)
    by_level = sorted(full.levels, key=full.levels.__getitem__)
    nonbridge, deepest = by_level[0], by_level[-1]
    assert full.levels[nonbridge] == 0 and full.levels[deepest] == 2
    # only non-bridges: no sweep at all
    assert classify(chain2, until=[nonbridge]).levels == {nonbridge: 0}
    # a level-1 edge: the sweep ends after level 1, with level 1 complete
    one = next(e for e in by_level if full.levels[e] == 1)
    part = classify(chain2, until=[one])
    assert part.levels == {e: k for e, k in full.levels.items() if k <= 1}
    assert part.back_refs == {e: b for e, b in full.back_refs.items() if full.levels[e] <= 1}
    # the deepest edge, or an edge not in the graph: the full sweep
    foreign = TemporalEdge(1, 3, 1)
    assert foreign not in chain2.edges
    for until in ([deepest], [foreign]):
        assert classify(chain2, until=until) == full
    assert classify(chain2, until=[]).levels == {}
    # an edge no sweep levels: the full sweep, so it is seen to be unchangeable
    g = infeas[0]
    assert classify(g).unchangeable_edges()
    assert classify(g, until=g.edges) == classify(g)


def test_changeability_is_fixed_for_a_reconfiguration_class(chain2):
    # relabels are reversible, so graphs that reach each other reach the
    # same graphs: a slot is levelled in every graph of the class that has
    # it, or in none (a plan's later sweeps rest on this)
    seen = {"graphs": 0, "unchangeable": 0, "moved": 0}
    for g in [chain2] + [helpers.small_instance(seed) for seed in range(100)]:
        tables = {
            edges: classify(TemporalGraph(g.names, g.lifetime, edges)).levels.keys()
            for edges in helpers.reachable_graphs(g)
        }
        changeable = set().union(*tables.values())
        for edges, levelled in tables.items():
            assert levelled == edges & changeable, (g, edges)
            seen["unchangeable"] += len(edges - levelled)
        seen["graphs"] += len(tables)
        seen["moved"] += len(changeable - g.edges)
    assert seen["graphs"] >= 600 and seen["unchangeable"] and seen["moved"], seen
