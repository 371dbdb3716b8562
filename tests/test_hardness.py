import itertools
import random

import pytest

from tgr import (
    GraphError,
    TemporalEdge,
    VCInstance,
    brute_force_vertex_cover,
    build_reduction,
    check_pair_counts,
    cover_to_sequence,
    difference,
    find_bridges,
    is_always_connected,
    is_crossing,
    prerequisite_edges,
    reachability_partition,
    validate_sequence,
)


def single_edge():
    return build_reduction(VCInstance.build(["u", "w"], [("u", "w")], 1))


def random_vc_instance(seed, max_vertices=6):
    rng = random.Random(seed)
    n = rng.randint(2, max_vertices)
    names = [f"n{i}" for i in range(n)]
    edges = [
        (a, b)
        for a, b in itertools.combinations(names, 2)
        if rng.random() < 0.5
    ]
    # budget = optimum size, found by raising k until a cover exists
    inst = VCInstance.build(names, edges, len(names))
    best = brute_force_vertex_cover(inst)
    return VCInstance.build(names, edges, len(best))


def test_single_edge_counts():
    red = single_edge()
    assert red.g1.n == 3 * 2 + 7 * 1 == 13
    assert red.g1.m == 7 * 2 + 14 * 1 - 2 == 26
    assert red.ell == 2 * 1 + 4 * 1 == 6


def test_size_formulas_hold_generally():
    for seed in range(12):
        inst = random_vc_instance(seed)
        red = build_reduction(inst)
        nv, ne = len(inst.vertices), len(inst.edges)
        assert red.g1.n == 3 * nv + 7 * ne
        assert red.g1.m == 7 * nv + 14 * ne - 2
        assert red.ell == 2 * inst.k + 4 * ne


def test_outputs_always_connected_and_compatible():
    for seed in range(12):
        red = build_reduction(random_vc_instance(seed))
        assert is_always_connected(red.g1)
        assert is_always_connected(red.g2)
        assert check_pair_counts(red.g1, red.g2)


def test_difference_is_exactly_the_gadget_edges():
    for seed in range(12):
        red = build_reduction(random_vc_instance(seed))
        ne = len(red.instance.edges)
        assert difference(red.g1, red.g2) == 2 * ne
        diff = red.g1.edges - red.g2.edges
        expected = set()
        for gd in red.gadgets.values():
            i, j = sorted((red.g1.index(gd.hub), red.g1.index(gd.one)))
            expected.add(TemporalEdge(i, j, 1))
            i, j = sorted((red.g1.index(gd.hub), red.g1.index(gd.two)))
            expected.add(TemporalEdge(i, j, 2))
        assert diff == expected


def test_empty_edge_set():
    red = build_reduction(VCInstance.build(["x", "y"], [], 2))
    assert difference(red.g1, red.g2) == 0
    assert red.ell == 4
    assert is_always_connected(red.g1)


def test_vertex_gadget_shape():
    # each instance vertex contributes a full triangle in snapshot 2 and a
    # label-1 path from v.1 through its transition vertices to v.2
    red = build_reduction(
        VCInstance.build("abc", [("a", "b"), ("b", "c"), ("a", "c")], 2)
    )
    g1 = red.g1
    for v in red.instance.vertices:
        v1, v2, v3 = red.vertex_triples[v]
        snap2 = set(g1.snapshot(2))
        for x, y in ((v1, v2), (v2, v3), (v3, v1)):
            i, j = sorted((g1.index(x), g1.index(y)))
            assert (i, j) in snap2
        path = red.paths[v]
        assert path[0] == v1 and path[-1] == v2
        transitions = [f"{v}_{w}{mark}" for w in red.instance.neighbors(v) for mark in ("", "'")]
        assert path == (v1, *transitions, v2)
        snap1 = set(g1.snapshot(1))
        for x, y in zip(path, path[1:]):
            i, j = sorted((g1.index(x), g1.index(y)))
            assert (i, j) in snap1


def test_gadget_edges_are_bridges_crossing_each_other():
    for seed in range(8):
        red = build_reduction(random_vc_instance(seed))
        g1 = red.g1
        bridges = find_bridges(g1)
        for gd in red.gadgets.values():
            i, j = sorted((g1.index(gd.hub), g1.index(gd.one)))
            b1 = TemporalEdge(i, j, 1)
            i, j = sorted((g1.index(gd.hub), g1.index(gd.two)))
            b2 = TemporalEdge(i, j, 2)
            assert b1 in bridges and b2 in bridges
            assert is_crossing(reachability_partition(g1, b1), b2.pair)
            assert is_crossing(reachability_partition(g1, b2), b1.pair)


def test_cover_sequence_single_edge():
    red = single_edge()
    seq = cover_to_sequence(red, ["u"])
    assert len(seq) == 6 == red.ell
    assert validate_sequence(red.g1, seq, red.g2).ok


def test_cover_sequence_random_instances():
    for seed in range(8):
        inst = random_vc_instance(seed)
        red = build_reduction(inst)
        cover = brute_force_vertex_cover(inst)
        assert cover is not None
        seq = cover_to_sequence(red, cover)
        assert len(seq) == 2 * len(cover) + 4 * len(inst.edges) <= red.ell
        assert validate_sequence(red.g1, seq, red.g2).ok


def test_cover_sequence_with_redundant_cover_vertex():
    # a non-minimal cover still works; extra vertices burn their two flips
    red = build_reduction(VCInstance.build(["u", "w"], [("u", "w")], 2))
    seq = cover_to_sequence(red, ["u", "w"])
    assert len(seq) == 2 * 2 + 4 * 1
    assert validate_sequence(red.g1, seq, red.g2).ok


def test_cover_sequence_skips_isolated_cover_vertices():
    inst = VCInstance.build(["u", "w", "z"], [("u", "w")], 2)
    red = build_reduction(inst)
    seq = cover_to_sequence(red, ["u", "z"])  # z is isolated
    assert len(seq) == 2 * 1 + 4 * 1
    assert validate_sequence(red.g1, seq, red.g2).ok


def test_cover_sequence_rejects_non_cover():
    red = single_edge()
    with pytest.raises(GraphError):
        cover_to_sequence(red, [])
    with pytest.raises(GraphError):
        cover_to_sequence(red, ["nope"])


def test_colliding_instance_names_reduce():
    # joined raw, both edges would name a gadget vertex x_y_z
    inst = VCInstance.build(["x", "y_z", "x_y", "z"], [("x", "y_z"), ("x_y", "z")], 2)
    red = build_reduction(inst)
    assert red.g1.n == 3 * 4 + 7 * 2
    assert red.gadgets[("x", "y_z")].u_side == ("x_y%5Fz", "x_y%5Fz'")
    assert red.gadgets[("x_y", "z")].u_side == ("x%5Fy_z", "x%5Fy_z'")
    seq = cover_to_sequence(red, ["x", "z"])
    assert len(seq) == red.ell == 12
    assert validate_sequence(red.g1, seq, red.g2).ok


def test_gadget_names_are_injective_on_escape_characters():
    names = ["a", "b", "a_b", "a.1", "e", "e_a", "%", "%5F", "_", "'", "a'", "x.y_z%"]
    edges = list(itertools.combinations(names, 2))
    red = build_reduction(VCInstance.build(names, edges, len(names) - 1))
    assert red.g1.n == 3 * len(names) + 7 * len(edges)
    assert red.vertex_triples["%5F"] == ("%255F.1", "%255F.2", "%255F.3")
    assert red.gadgets[("a", "b")].hub == "e_a_b"  # plain names appear as is
    assert red.vertex_triples["a"] == ("a.1", "a.2", "a.3")


def test_prerequisites_single_edge():
    red = single_edge()
    p = prerequisite_edges(red, ("u", "w"))
    assert len(p) == 6
    two_labeled = {e for e in p if e.t == 2}
    one_labeled = {e for e in p if e.t == 1}
    assert len(two_labeled) == 2 and len(one_labeled) == 4


def test_prerequisites_disjoint_and_outside_gadget():
    for seed in range(8):
        inst = random_vc_instance(seed)
        if len(inst.edges) < 2:
            continue
        red = build_reduction(inst)
        sets = {e: prerequisite_edges(red, e) for e in inst.edges}
        for a, b in itertools.combinations(inst.edges, 2):
            assert not (sets[a] & sets[b])
        for e, p in sets.items():
            gd = red.gadgets[e]
            gadget_vertices = {gd.hub, gd.one, gd.two}
            for edge in p:
                names = {red.g1.name(edge.u), red.g1.name(edge.v)}
                assert not (names <= gadget_vertices)


def test_prerequisites_unknown_edge():
    red = single_edge()
    with pytest.raises(GraphError):
        prerequisite_edges(red, ("u", "x"))


def test_brute_force_cover():
    inst = VCInstance.build(["u", "w"], [("u", "w")], 1)
    assert brute_force_vertex_cover(inst) == ("u",)
    tri = VCInstance.build("abc", [("a", "b"), ("b", "c"), ("a", "c")], 1)
    assert brute_force_vertex_cover(tri) is None
    tri2 = VCInstance.build("abc", [("a", "b"), ("b", "c"), ("a", "c")], 2)
    cover = brute_force_vertex_cover(tri2)
    assert cover is not None and len(cover) == 2
    empty = VCInstance.build(["a"], [], 0)
    assert brute_force_vertex_cover(empty) == ()


def test_brute_force_rejects_large_instances():
    names = [f"n{i}" for i in range(21)]
    inst = VCInstance.build(names, [], 0)
    with pytest.raises(GraphError):
        brute_force_vertex_cover(inst)


def test_instance_validation():
    with pytest.raises(GraphError):
        VCInstance.build("ab", [("a", "a")], 1)
    with pytest.raises(GraphError):
        VCInstance.build("ab", [("a", "b"), ("b", "a")], 1)
    with pytest.raises(GraphError):
        VCInstance.build("ab", [("a", "x")], 1)
    with pytest.raises(GraphError):
        VCInstance.build("ab", [], -1)
