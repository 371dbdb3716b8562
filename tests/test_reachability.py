import pytest

from tgr import (
    GraphError,
    TemporalGraph,
    apply_relabel,
    classify,
    find_bridges,
    is_crossing,
    reachability_partition,
)

import helpers
from helpers import compute_cross, te


def vertex_names(g, members):
    return {g.name(i) for i in members}


def test_partition_chain2_pendant(chain2):
    p = reachability_partition(chain2, te(chain2, "a", "d", 1))
    assert vertex_names(chain2, p.comp_u) == {"a", "b", "c"}
    assert vertex_names(chain2, p.comp_v) == {"d"}


def test_partition_chain2_path_split(chain2):
    p = reachability_partition(chain2, te(chain2, "a", "d", 2))
    assert vertex_names(chain2, p.comp_u) == {"a", "b"}
    assert vertex_names(chain2, p.comp_v) == {"c", "d"}


def test_partition_is_a_partition_on_random_instances():
    # structural shape check: the two sides cover V and are disjoint
    for seed in range(150):
        g = helpers.small_instance(seed)
        for bridge in sorted(find_bridges(g)):
            p = reachability_partition(g, bridge)
            assert p.comp_u | p.comp_v == set(range(g.n))
            assert not (p.comp_u & p.comp_v)
            assert bridge.u in p.comp_u and bridge.v in p.comp_v
            # every other snapshot edge stays within one side
            for pair in g.snapshot(bridge.t):
                if pair != bridge.pair:
                    assert (pair[0] in p.comp_u) == (pair[1] in p.comp_u)


def test_partition_of_seven_vertex_snapshot():
    # two blobs joined by one bridge; the sides must cover all 7 vertices
    g = TemporalGraph.build(
        "abcdefg",
        1,
        [
            ("a", "b", 1), ("b", "c", 1), ("a", "c", 1),
            ("c", "d", 1),
            ("d", "e", 1), ("e", "f", 1), ("f", "g", 1), ("d", "g", 1),
        ],
    )
    p = reachability_partition(g, te(g, "c", "d", 1))
    assert vertex_names(g, p.comp_u) == {"a", "b", "c"}
    assert vertex_names(g, p.comp_v) == {"d", "e", "f", "g"}
    assert p.comp_u | p.comp_v == set(range(g.n))


def test_partition_rejects_non_bridge(tri):
    g1, _ = tri
    with pytest.raises(GraphError):
        reachability_partition(g1, te(g1, "a", "c", 1))
    with pytest.raises(GraphError):
        reachability_partition(g1, te(g1, "a", "c", 2))


def test_partition_rejects_disconnected_graph():
    g = TemporalGraph.build(
        "abcd", 2, [("a", "b", 1), ("c", "d", 1), ("a", "b", 2), ("b", "c", 2), ("c", "d", 2)]
    )
    with pytest.raises(GraphError, match="snapshot 1 is not connected"):
        reachability_partition(g, te(g, "a", "b", 1))
    with pytest.raises(GraphError, match="snapshot 1 is not connected"):
        classify(g)


def test_is_crossing_examples(chain2):
    p = reachability_partition(chain2, te(chain2, "a", "d", 1))
    c, d = chain2.index("c"), chain2.index("d")
    b = chain2.index("b")
    assert is_crossing(p, (min(c, d), max(c, d)))
    assert not is_crossing(p, (min(b, c), max(b, c)))
    assert is_crossing(p, p.bridge.pair)  # a bridge splits its own endpoints


def test_compute_cross_chain2(chain2):
    cross = compute_cross(chain2)
    assert set(cross[te(chain2, "b", "c", 1)]) >= {te(chain2, "a", "b", 2), te(chain2, "d", "c", 2)}
    assert te(chain2, "a", "d", 2) in cross[te(chain2, "c", "a", 1)]
    assert te(chain2, "a", "d", 1) in cross[te(chain2, "d", "c", 2)]


def test_compute_cross_tri(tri):
    g1, _ = tri
    assert cross_set(g1, "a", "c", 1) == {te(g1, "a", "b", 2), te(g1, "b", "c", 2)}


def cross_set(g, u, v, t):
    return set(compute_cross(g)[te(g, u, v, t)])


def test_compute_cross_no_bridges():
    g = helpers.two_triangles()
    cross = compute_cross(g)
    assert all(not members for members in cross.values())


def test_cross_excludes_self():
    for seed in range(100):
        g = helpers.small_instance(seed)
        cross = compute_cross(g)
        for e, members in cross.items():
            assert e not in members


def test_cross_matches_definition():
    # (e', t') in Cross(e, t)  <=>  e crosses the partition of (e', t'),
    # for every pair with (e, t) != (e', t')
    for seed in range(80):
        g = helpers.small_instance(seed)
        cross = compute_cross(g)
        bridges = sorted(find_bridges(g))
        partitions = {b: reachability_partition(g, b) for b in bridges}
        for e in sorted(g.edges):
            members = set(cross[e])
            for b in bridges:
                if b == e:
                    continue
                assert (b in members) == is_crossing(partitions[b], e.pair)


def test_compute_cross_work_counters():
    # per-bridge work is one partition traversal plus one scan of all edges
    for seed in range(20):
        g = helpers.small_instance(seed)
        counters = {}
        compute_cross(g, counters)
        m = g.m
        assert counters["crossing_tests"] == counters["bridges"] * m
        assert counters["partition_visits"] <= counters["bridges"] * g.n
        assert counters["crossing_tests"] <= m * m


def all_valid_relabels_into(g, t):
    """Valid ops whose target time is t."""
    return [o for o in helpers.all_valid_moves(g) if o.to_time == t]


def test_crossing_biconditional_on_fixtures(tri, chain2):
    for g in (tri[0], tri[1], chain2):
        check_crossing_biconditional(g)


def check_crossing_biconditional(g):
    # a valid relabel into a bridge's snapshot turns the bridge into a
    # non-bridge exactly when the moved pair crosses its partition
    for bridge in sorted(find_bridges(g)):
        p = reachability_partition(g, bridge)
        for o in all_valid_relabels_into(g, bridge.t):
            res = apply_relabel(g, o)
            became_nonbridge = bridge not in find_bridges(res)
            assert became_nonbridge == is_crossing(p, o.pair), (bridge, o)


def test_partition_invariance_on_fixtures(tri, chain2):
    for g in (tri[0], tri[1], chain2):
        check_partition_invariance(g)


def check_partition_invariance(g):
    # any valid relabel that leaves a bridge a bridge leaves its partition
    # untouched
    for bridge in sorted(find_bridges(g)):
        before = reachability_partition(g, bridge)
        for o in helpers.all_valid_moves(g):
            if o.source() == bridge:
                continue
            res = apply_relabel(g, o)
            if bridge in find_bridges(res):
                after = reachability_partition(res, bridge)
                assert before.comp_u == after.comp_u
                assert before.comp_v == after.comp_v
