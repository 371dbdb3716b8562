"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are exact; the runtime criterion is a wall-clock bound.
"""

import itertools
import random
import time
from contextlib import contextmanager

from tgr import (
    OracleBudget,
    TemporalGraph,
    VCInstance,
    apply_relabel,
    brute_force_vertex_cover,
    build_reduction,
    check_pair_counts,
    classify,
    cover_to_sequence,
    difference,
    feasible,
    find_bridges,
    generate_random_instance,
    is_always_connected,
    is_crossing,
    oracle_min_steps_map,
    oracle_min_steps_to_nonbridge,
    oracle_shortest_sequence,
    plan,
    prerequisite_edges,
    reachability_partition,
    sequence_to_nonbridge,
    validate_sequence,
)
from tgr.core import TemporalEdge, is_valid_relabel
from tgr.planner import Feasible

import helpers


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def fixture_graphs():
    tri1, tri2 = helpers.tri_pair()
    inf1, inf2 = helpers.infeas_pair()
    return [tri1, tri2, inf1, inf2, helpers.chain2()]


def assert_levels_match_oracle(g):
    table = classify(g)
    first, exhausted = oracle_min_steps_map(g)
    assert exhausted, "oracle failed to exhaust a supposedly small instance"
    for e in g.edges:
        assert table.levels.get(e) == first.get(e), (g, e)


def test_criterion_1_dp_matches_oracle():
    with criterion(1, "DP-vs-oracle equivalence"):
        for g in fixture_graphs():
            assert_levels_match_oracle(g)
        for seed in range(500):
            g = helpers.small_instance(seed)
            assert g.n <= 5 and g.lifetime == 2 and g.m <= 12
            assert_levels_match_oracle(g)


def test_criterion_2_feasibility_matches_reachability():
    with criterion(2, "feasibility decision"):
        checked = 0
        seed = 0
        while checked < 500:
            g = helpers.small_instance(seed)
            rng = random.Random(10_000 + seed)
            h = helpers.random_compatible_target(g, rng)
            seed += 1
            if h is None:
                continue
            out = oracle_shortest_sequence(g, h)
            assert out.status in ("found", "unreachable")
            ok, _ = feasible(g, h)
            assert ok == (out.status == "found"), (g, h)
            checked += 1
        # fixtures: one feasible, one not
        tri1, tri2 = helpers.tri_pair()
        assert feasible(tri1, tri2)[0]
        assert oracle_shortest_sequence(tri1, tri2).status == "found"
        inf1, inf2 = helpers.infeas_pair()
        assert not feasible(inf1, inf2)[0]
        assert oracle_shortest_sequence(inf1, inf2).status == "unreachable"


def test_criterion_3_planner_soundness_and_length():
    with criterion(3, "planner soundness and length bound"):
        for seed in range(1000):
            rng = random.Random(20_000 + seed)
            n = rng.randint(2, 50)
            lifetime = rng.randint(1, 5)
            cap = n * (n - 1) // 2 - (n - 1)
            extra = rng.randint(0, min(cap, 3))
            g1 = generate_random_instance(n, lifetime, extra, seed)
            g2 = helpers.perturb(g1, rng.randint(0, 8), rng)
            out = plan(g1, g2)
            assert isinstance(out, Feasible), seed
            rep = validate_sequence(g1, out.sequence, g2)
            assert rep.ok, (seed, rep)
            assert len(out.sequence) <= 2 * g1.m * g1.m, seed
            assert out.phases <= g1.m, seed


def test_criterion_4_bridge_relabel_property_suites():
    with criterion(4, "bridge/partition property suites"):
        graphs = fixture_graphs()
        graphs.extend(helpers.small_instance(40_000 + seed) for seed in range(200))
        for g in graphs:
            bridges = sorted(find_bridges(g))
            moves = helpers.all_valid_moves(g)
            partitions = {b: reachability_partition(g, b) for b in bridges}
            # (a) a valid relabel into a bridge's snapshot frees the bridge
            #     exactly when the moved pair crosses its partition
            for b in bridges:
                for o in moves:
                    if o.to_time != b.t:
                        continue
                    res = apply_relabel(g, o)
                    freed = b not in find_bridges(res)
                    assert freed == is_crossing(partitions[b], o.pair), (g, b, o)
            # (b) relabels that keep a bridge a bridge keep its partition
            for b in bridges:
                for o in moves:
                    if o.source() == b:
                        continue
                    res = apply_relabel(g, o)
                    if b in find_bridges(res):
                        after = reachability_partition(res, b)
                        assert partitions[b].comp_u == after.comp_u, (g, b, o)
                        assert partitions[b].comp_v == after.comp_v, (g, b, o)
            # (c) continuity: occupied levels are exactly 0..max_level, and
            #     everything unleveled can never become a non-bridge
            table = classify(g)
            occupied = sorted(set(table.levels.values()))
            assert occupied == list(range(len(occupied))), g
            for e in table.unchangeable_edges():
                assert oracle_min_steps_to_nonbridge(g, e).status == "never", (g, e)


def test_criterion_5_desk_scale_runtime():
    with criterion(5, "polynomial runtime at desk scale"):
        g1 = generate_random_instance(500, 10, 500, seed=5)
        assert 9_000 <= g1.m <= 11_000
        g2 = helpers.perturb(g1, 12, random.Random(5))
        start = time.monotonic()
        out = plan(g1, g2)
        elapsed = time.monotonic() - start
        assert isinstance(out, Feasible)
        assert elapsed < 60.0, f"plan took {elapsed:.1f}s"
        assert validate_sequence(g1, out.sequence, g2).ok


def test_criterion_6_hardness_forward_direction():
    with criterion(6, "hardness forward direction"):
        count = 0
        for inst in helpers.small_vc_instances():
            cover = brute_force_vertex_cover(inst)
            assert cover is not None
            red = build_reduction(inst)
            seq = cover_to_sequence(red, cover)
            assert len(seq) == 2 * len(cover) + 4 * len(inst.edges)
            assert len(seq) <= red.ell
            assert validate_sequence(red.g1, seq, red.g2).ok, inst
            count += 1
        assert count >= 20


def test_criterion_7_hardness_structural_properties():
    with criterion(7, "hardness structural properties"):
        for inst in helpers.small_vc_instances():
            red = build_reduction(inst)
            g1 = red.g1
            assert is_always_connected(g1) and is_always_connected(red.g2)
            assert check_pair_counts(g1, red.g2)
            assert difference(g1, red.g2) == 2 * len(inst.edges)
            p_sets = {e: prerequisite_edges(red, e) for e in inst.edges}
            for a, b in itertools.combinations(inst.edges, 2):
                assert not (p_sets[a] & p_sets[b])
            bridges = find_bridges(g1)
            for gd in red.gadgets.values():
                i, j = sorted((g1.index(gd.hub), g1.index(gd.one)))
                b1 = TemporalEdge(i, j, 1)
                i, j = sorted((g1.index(gd.hub), g1.index(gd.two)))
                b2 = TemporalEdge(i, j, 2)
                assert b1 in bridges and b2 in bridges
                assert is_crossing(reachability_partition(g1, b1), b2.pair)
                assert is_crossing(reachability_partition(g1, b2), b1.pair)


def test_criterion_8_hardness_reverse_degenerate_cases():
    # the cover<=>short-sequence equivalence is oracle-checked here on the
    # |E| <= 1 reductions (26 temporal edges at |E| = 1) and on the |E| = 2
    # path a-b-c (47 edges), each well under a second
    with criterion(8, "hardness reverse direction (degenerate)"):
        # |E| = 0: the empty cover always exists, and the graphs are equal
        red0 = build_reduction(VCInstance.build(["x", "y"], [], 0))
        assert brute_force_vertex_cover(red0.instance) == ()
        out = oracle_shortest_sequence(red0.g1, red0.g2)
        assert out.status == "found" and len(out.sequence) == 0 <= red0.ell

        budget = OracleBudget(max_states=2_000_000)
        # |E| = 1, k = 1: cover exists and the shortest sequence is exactly
        # ell = 6, so a sequence of length <= ell exists
        inst1 = VCInstance.build(["u", "w"], [("u", "w")], 1)
        red1 = build_reduction(inst1)
        assert brute_force_vertex_cover(inst1) == ("u",)
        out = oracle_shortest_sequence(red1.g1, red1.g2, budget)
        assert out.status == "found"
        assert len(out.sequence) == 6 <= red1.ell

        # |E| = 1, k = 0: no cover, and no sequence of length <= ell = 4
        inst0 = VCInstance.build(["u", "w"], [("u", "w")], 0)
        red_k0 = build_reduction(inst0)
        assert brute_force_vertex_cover(inst0) is None
        out = oracle_shortest_sequence(red_k0.g1, red_k0.g2, budget)
        assert out.status == "found"
        assert len(out.sequence) == 6 > red_k0.ell

        # |E| = 2, the path a-b-c, k = 1: the cover {b} exists and the
        # shortest sequence is exactly ell = 10
        path = [("a", "b"), ("b", "c")]
        inst2 = VCInstance.build("abc", path, 1)
        red2 = build_reduction(inst2)
        assert brute_force_vertex_cover(inst2) == ("b",)
        out = oracle_shortest_sequence(red2.g1, red2.g2, budget)
        assert out.status == "found"
        assert len(out.sequence) == 10 == red2.ell
        assert validate_sequence(red2.g1, out.sequence, red2.g2).ok

        # |E| = 2, k = 0: no cover, and no sequence of length <= ell = 8
        inst2_k0 = VCInstance.build("abc", path, 0)
        red2_k0 = build_reduction(inst2_k0)
        assert brute_force_vertex_cover(inst2_k0) is None
        out = oracle_shortest_sequence(red2_k0.g1, red2_k0.g2, budget)
        assert out.status == "found"
        assert len(out.sequence) == 10 > red2_k0.ell == 8


# 4-vertex pair with a certified shortest sequence of length 4; substitute
# fixture (the original figure's instance is not recoverable), frozen from
# a randomized search
FIG1_NAMES = ["v0", "v1", "v2", "v3"]
FIG1_G1 = [
    ("v0", "v1", 2), ("v0", "v2", 2), ("v0", "v3", 1), ("v1", "v2", 1),
    ("v1", "v2", 2), ("v1", "v3", 1), ("v2", "v3", 1), ("v2", "v3", 2),
]
FIG1_G2 = [
    ("v0", "v1", 1), ("v0", "v2", 1), ("v0", "v3", 2), ("v1", "v2", 1),
    ("v1", "v2", 2), ("v1", "v3", 2), ("v2", "v3", 1), ("v2", "v3", 2),
]
FIG1_SEQUENCE = [
    ("v0", "v1", 2, 1), ("v0", "v3", 1, 2), ("v0", "v2", 2, 1), ("v1", "v3", 1, 2),
]


def test_criterion_9_figure_level_checks():
    with criterion(9, "figure-level checks"):
        # five-graph sequence shape: a valid length-4 sequence between two
        # 4-vertex graphs, and 4 is provably minimal
        g1 = TemporalGraph.build(FIG1_NAMES, 2, FIG1_G1)
        g2 = TemporalGraph.build(FIG1_NAMES, 2, FIG1_G2)
        seq = [helpers.op(g1, u, v, a, b) for u, v, a, b in FIG1_SEQUENCE]
        assert validate_sequence(g1, seq, g2).ok
        out = oracle_shortest_sequence(g1, g2)
        assert out.status == "found" and len(out.sequence) == 4

        # level structure: level 0 is exactly the non-bridges, and each
        # leveled bridge becomes a non-bridge after its reconstructed
        # sequence, whose links step down one level at a time
        for seed in range(100):
            g = helpers.small_instance(60_000 + seed)
            table = classify(g)
            bridges = find_bridges(g)
            for e in g.edges:
                assert (table.levels.get(e) == 0) == (e not in bridges)
            for e, ref in table.back_refs.items():
                assert table.levels[ref] == table.levels[e] - 1
            for e, level in table.levels.items():
                if level == 0:
                    continue
                seq = sequence_to_nonbridge(g, table, e)
                assert len(seq) == level
                cur = g
                for o in seq:
                    assert is_valid_relabel(cur, o)
                    cur = apply_relabel(cur, o)
                assert e not in find_bridges(cur)
