import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest

from tgr import (
    GraphError,
    RelabelOp,
    TemporalEdge,
    TemporalGraph,
    align_names,
    apply_relabel,
    brute_force_vertex_cover,
    build_reduction,
    check_pair_counts,
    cover_to_sequence,
    difference,
    find_bridges,
    generate_random_instance,
    is_always_connected,
    is_valid_relabel,
    plan,
    validate_sequence,
)
from tgr import core
from tgr.changeability import classify

import helpers
from helpers import named, naive_bridges, op, te


def test_snapshot_tri(tri):
    g1, _ = tri
    a, b, c = (g1.index(x) for x in "abc")
    assert g1.snapshot(1) == tuple(sorted([(a, b), (b, c), (a, c)]))
    assert g1.snapshot(2) == tuple(sorted([(a, b), (b, c)]))


def test_snapshot_empty_time():
    g = TemporalGraph.build("ab", 3, [("a", "b", 1), ("a", "b", 2)])
    assert g.snapshot(3) == ()


def test_snapshot_out_of_range(tri):
    g1, _ = tri
    with pytest.raises(GraphError):
        g1.snapshot(0)
    with pytest.raises(GraphError):
        g1.snapshot(3)


def test_always_connected_fixtures(tri, infeas, chain2):
    for g in (*tri, *infeas, chain2):
        assert is_always_connected(g)


def test_always_connected_negative(tri):
    g1, _ = tri
    broken = TemporalGraph(g1.names, g1.lifetime, g1.edges - {te(g1, "a", "b", 2)})
    assert not is_always_connected(broken)


def test_always_connected_trivial_sizes():
    assert is_always_connected(TemporalGraph(("x",), 3, frozenset()))
    assert is_always_connected(TemporalGraph((), 1, frozenset()))
    assert not is_always_connected(TemporalGraph(("x", "y"), 1, frozenset()))


def test_find_bridges_fixtures(tri, infeas, chain2):
    g1, _ = tri
    assert named(g1, find_bridges(g1)) == [("a", "b", 2), ("b", "c", 2)]
    i1, _ = infeas
    assert find_bridges(i1) == i1.edges  # every snapshot is a tree
    assert named(chain2, find_bridges(chain2)) == [
        ("a", "b", 2),
        ("a", "d", 1),
        ("a", "d", 2),
        ("c", "d", 2),
    ]


def test_find_bridges_requires_always_connected():
    g = TemporalGraph.build("abc", 2, [("a", "b", 1), ("b", "c", 1), ("a", "b", 2)])
    with pytest.raises(GraphError):
        find_bridges(g)


def test_find_bridges_matches_naive_oracle_on_random_instances():
    for seed in range(1000):
        g = helpers.small_instance(seed)
        assert find_bridges(g) == naive_bridges(g), seed


def test_static_bridges_matches_slow_references():
    rng = random.Random(7)
    disconnected = with_bridges = 0
    for n, _ in itertools.product(range(10), range(40)):
        every = list(itertools.combinations(range(n), 2))
        pairs = rng.sample(every, rng.randint(0, min(len(every), 2 * n)))
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        forest = core.static_bridges(n, pairs)
        naive = helpers.naive_static_bridges(n, pairs)
        assert set(forest.above.values()) == naive, (n, pairs)
        adj = core._adjacency(pairs)
        for u, v in pairs:  # the local bridge test of validate_sequence
            assert core._joined_without(adj, u, v) == ((u, v) not in naive), (n, pairs, (u, v))
        assert sorted(forest.order) == list(range(n))
        position = {x: i for i, x in enumerate(forest.order)}
        for x in range(n):  # every vertex after its parent, one level deeper
            p = forest.parent[x]
            if p < 0:
                assert forest.depth[x] == 0
            else:
                assert position[p] < position[x] and forest.depth[x] == forest.depth[p] + 1
        kept = [p for p in pairs if p not in naive]
        for x in range(n):  # tops name the components of the graph without its bridges
            joined = helpers.reach(n, kept, x)
            assert all((forest.top[x] == forest.top[y]) == joined[y] for y in range(n)), (n, pairs, x)
        for c, bridge in forest.above.items():
            assert c in bridge and forest.parent[c] == sum(bridge) - c  # the bridge's child
            side = {c}  # c's subtree
            for x in forest.order:
                if forest.parent[x] in side:
                    side.add(x)
            assert side == helpers.naive_side(n, pairs, bridge, c), (n, pairs, bridge)
        if n:
            connected = all(helpers.reach(n, pairs))
            assert (forest.parent.count(-1) == 1) == connected  # vertex 0 is always a root
            assert forest.parent[0] == -1
            disconnected += not connected
        with_bridges += bool(forest.above)
    assert disconnected >= 100 and with_bridges >= 100


def test_connectivity_of_a_long_sparse_graph_is_decided_lazily():
    n = 20_000
    names = tuple(f"v{i}" for i in range(n))
    g = TemporalGraph(names, n, frozenset(TemporalEdge(0, 1, t) for t in range(1, n + 1)))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert not is_always_connected(g)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 5 << 20, f"peak {peak} bytes"


def test_is_valid_relabel_examples(tri, infeas):
    g1, _ = tri
    assert is_valid_relabel(g1, op(g1, "a", "c", 1, 2))
    assert not is_valid_relabel(g1, op(g1, "a", "b", 2, 1))  # bridge and collision
    i1, _ = infeas
    for e in i1.edges:
        for t2 in (1, 2):
            if t2 != e.t:
                assert not is_valid_relabel(i1, RelabelOp(e.u, e.v, e.t, t2))


def test_is_valid_relabel_malformed(tri):
    g1, _ = tri
    assert not is_valid_relabel(g1, RelabelOp(0, 0, 1, 2))
    assert not is_valid_relabel(g1, RelabelOp(0, 9, 1, 2))
    assert not is_valid_relabel(g1, RelabelOp(0, 2, 1, 1))
    assert not is_valid_relabel(g1, RelabelOp(0, 2, 1, 7))


def test_is_valid_relabel_equals_connectivity_of_result():
    # on every applicable op of random instances, validity must coincide
    # with the resulting graph being always-connected
    for seed in range(120):
        g = helpers.small_instance(seed)
        for e in sorted(g.edges):
            for t2 in range(1, g.lifetime + 1):
                o = RelabelOp(e.u, e.v, e.t, t2)
                if t2 == e.t or TemporalEdge(e.u, e.v, t2) in g.edges:
                    continue
                assert is_valid_relabel(g, o) == is_always_connected(apply_relabel(g, o))


def test_valid_relabel_is_reversible():
    for seed in range(80):
        g = helpers.small_instance(seed)
        for o in helpers.all_valid_moves(g):
            res = apply_relabel(g, o)
            assert is_always_connected(res)
            assert is_valid_relabel(res, o.inverse())
            assert apply_relabel(res, o.inverse()) == g


def test_lazy_valid_moves_equal_the_listed_moves():
    # the desk shape: many non-bridges with free slots in 10 snapshots
    graphs = [helpers.small_instance(seed) for seed in range(200)]
    graphs.append(generate_random_instance(60, 10, 60, 1))
    for g in graphs:
        lazy = helpers.ValidMoves(g)
        moves = helpers.all_valid_moves(g)
        assert len(lazy) == len(moves)
        assert list(lazy) == moves  # item by item, up to the IndexError past the end
        with pytest.raises(IndexError):
            lazy[len(moves)]


def test_apply_relabel_reaches_tri_target(tri):
    g1, g2 = tri
    assert apply_relabel(g1, op(g1, "a", "c", 1, 2)) == g2


def test_apply_relabel_errors(tri):
    g1, _ = tri
    with pytest.raises(GraphError):
        apply_relabel(g1, op(g1, "a", "b", 1, 2))  # collision
    with pytest.raises(GraphError):
        apply_relabel(g1, op(g1, "a", "c", 2, 1))  # missing source
    with pytest.raises(GraphError):
        apply_relabel(g1, RelabelOp(0, 1, 1, 1))  # no time change
    assert te(g1, "a", "c", 1) in g1.edges  # input graph unmodified


@pytest.mark.parametrize(
    "bad",
    [
        RelabelOp(0, 1, 1, 3),  # to_time = lifetime + 1
        RelabelOp(0, 1, 1, 0),  # to_time = 0
        RelabelOp(0, 3, 1, 2),  # a vertex >= n
        RelabelOp(1, 1, 1, 2),  # u == v
    ],
)
def test_apply_relabel_rejects_out_of_range_ops(tri, bad):
    # apply_relabel derives its result without the constructor, so the slot
    # rule alone must keep vertices and times in range
    g1, _ = tri
    before = _answers(g1)
    with pytest.raises(GraphError, match="malformed"):
        apply_relabel(g1, bad)
    assert core._relabel_fault(g1, bad) == "malformed"
    assert _answers(g1) == before
    assert _answers(TemporalGraph(g1.names, g1.lifetime, g1.edges)) == before


def _candidate_ops(g):
    return [
        RelabelOp(e.u, e.v, e.t, t2)
        for e in sorted(g.edges)
        for t2 in range(1, g.lifetime + 1)
        if t2 != e.t
    ]


def _answers(g):
    """Everything ``g`` answers from its per-snapshot cache."""
    out = {
        "snapshots": [g.snapshot(t) for t in range(1, g.lifetime + 1)],
        "connected": is_always_connected(g),
        "valid": [is_valid_relabel(g, o) for o in _candidate_ops(g)],
    }
    if out["connected"]:
        table = classify(g)
        out.update(bridges=find_bridges(g), levels=table.levels, back_refs=table.back_refs)
    else:
        with pytest.raises(GraphError) as exc:
            find_bridges(g)
        out["bridges"] = str(exc.value)
    return out


def test_derived_graphs_match_freshly_built_ones():
    # seeded walks of slot-legal relabels, disconnecting ones included, so
    # that derived graphs disconnected at an untouched snapshot are compared
    # as well
    starts = [helpers.small_instance(seed) for seed in range(40)]
    starts += [generate_random_instance(6, 4, 1, seed) for seed in range(12)]
    derived = disconnected = carried_past_disconnected = 0
    for i, g in enumerate(starts):
        rng = random.Random(i)
        cur, cur_answers = g, _answers(g)
        for _ in range(6):
            moves = [o for o in _candidate_ops(cur) if core._slot_fault(cur, o) is None]
            if not moves:
                break
            o = rng.choice(moves)
            nxt = apply_relabel(cur, o)
            fresh = TemporalGraph(cur.names, cur.lifetime, nxt.edges)
            assert nxt == fresh and hash(nxt) == hash(fresh)
            assert _answers(nxt) == _answers(fresh), (i, o)
            assert _answers(cur) == cur_answers  # the input is untouched
            if cur._disconnected_at not in (None, o.from_time, o.to_time):
                carried_past_disconnected += 1
            derived += 1
            disconnected += not is_always_connected(nxt)
            cur, cur_answers = nxt, _answers(nxt)
    assert derived >= 150 and disconnected >= 50 and carried_past_disconnected >= 10


def test_validate_sequence_ok(tri):
    g1, g2 = tri
    rep = validate_sequence(g1, [op(g1, "a", "c", 1, 2)], g2)
    assert rep.ok and rep.length == 1 and rep.failed_step is None and rep.final_matches


def test_validate_sequence_identity(tri):
    g1, _ = tri
    rep = validate_sequence(g1, [], g1)
    assert rep.ok and rep.length == 0


def test_validate_sequence_collision(tri):
    g1, g2 = tri
    rep = validate_sequence(g1, [op(g1, "a", "b", 2, 1)], g2)
    assert not rep.ok and rep.failed_step == 0 and rep.failure == "collision"


def test_validate_sequence_other_failures(tri, infeas):
    g1, g2 = tri
    rep = validate_sequence(g1, [op(g1, "a", "c", 2, 1)], g2)
    assert rep.failed_step == 0 and rep.failure == "missing_edge"
    i1, i2 = infeas
    rep = validate_sequence(i1, [op(i1, "a", "b", 1, 2)], i2)
    assert rep.failed_step == 0 and rep.failure == "disconnects"
    rep = validate_sequence(g1, [RelabelOp(0, 0, 1, 2)], g2)
    assert rep.failed_step == 0 and rep.failure == "malformed"


def test_validate_sequence_final_mismatch(tri):
    g1, _ = tri
    rep = validate_sequence(g1, [op(g1, "a", "c", 1, 2)], g1)
    assert not rep.ok and rep.failed_step is None and not rep.final_matches


# The kinds of op in the differential corpus: a valid move, then one kind
# per way a step can fail.  A malformed op has a vertex or a time out of
# range, u == v, or from == to.
OP_KINDS = ("valid", "bridge", "collision", "missing", "malformed")


def _op_of_kind(g, kind, rng):
    """A random op of ``kind`` on the always-connected ``g``, its ends given
    in either order, or None when ``g`` has no such op."""
    n, lifetime, edges = g.n, g.lifetime, sorted(g.edges)
    times = range(1, lifetime + 1)
    e = rng.choice(edges)
    other = rng.choice([t for t in times if t != e.t])
    if kind == "valid":
        ops = helpers.ValidMoves(g)
    elif kind == "bridge":
        ops = [RelabelOp(x.u, x.v, x.t, t) for x in sorted(find_bridges(g)) for t in times
               if (x.u, x.v, t) not in g.edges]
    elif kind == "collision":
        ops = [RelabelOp(x.u, x.v, x.t, t) for x in edges for t in times
               if t != x.t and (x.u, x.v, t) in g.edges]
    elif kind == "missing":
        ops = [RelabelOp(u, v, t, t2) for u, v in itertools.combinations(range(n), 2)
               for t in times if (u, v, t) not in g.edges for t2 in times if t2 != t]
    else:
        bad = rng.choice([0, lifetime + 1])
        ops = [
            RelabelOp(e.u, rng.choice([n, n + 3, -1]), e.t, other),
            RelabelOp(e.u, e.v, *rng.choice([(bad, other), (e.t, bad)])),
            RelabelOp(e.u, e.u, e.t, other),
            RelabelOp(e.u, e.v, e.t, e.t),
        ]
    o = rng.choice(ops) if ops else None
    if o is not None and rng.random() < 0.5:
        o = RelabelOp(o.v, o.u, o.from_time, o.to_time)
    return o


def _differential_cases():
    """Seeded (g1, sequence, g2) cases: a walk of valid moves that reaches
    g2 or not (g2 is its start), or the walk, one failing op of a kind drawn
    evenly, and up to two ops of any kind; each of the six ends as often."""
    starts = [helpers.small_instance(seed) for seed in range(150)]
    starts += [helpers.sparse_instance(seed) for seed in range(150)]
    starts += [helpers.sparse_instance(seed) for seed in helpers.DEEP_T2_SEEDS]
    reductions = [build_reduction(inst) for inst in helpers.small_vc_instances()[:12]]
    starts += [red.g1 for red in reductions] + [red.g2 for red in reductions]
    rng = random.Random(2024)
    for g in starts:
        for _ in range(4):
            seq, cur = [], g
            for _ in range(rng.randint(1, 8)):
                o = _op_of_kind(cur, "valid", rng)
                if o is None:
                    break
                seq.append(o)
                cur = apply_relabel(cur, o)
            kind = rng.choice(("reached", "mismatched") + OP_KINDS[1:])
            if kind in OP_KINDS:
                seq.append(_op_of_kind(cur, kind, rng))
                seq += [_op_of_kind(cur, rng.choice(OP_KINDS), rng) for _ in range(rng.randint(0, 2))]
            yield g, [o for o in seq if o is not None], g if kind == "mismatched" else cur
    for red in reductions:
        seq = cover_to_sequence(red, brute_force_vertex_cover(red.instance))
        yield red.g1, seq, red.g2
        yield red.g1, seq[:-1], red.g2


def test_validate_sequence_agrees_with_the_reference_on_a_mixed_corpus():
    outcomes = Counter()
    swapped = 0
    for g1, seq, g2 in _differential_cases():
        got = validate_sequence(g1, seq, g2)
        assert got == helpers.reference_validate_sequence(g1, seq, g2), (g1, seq, g2)
        outcomes[got.failure or ("reached" if got.final_matches else "mismatched")] += 1
        swapped += sum(o.u > o.v for o in seq[: got.failed_step])
    assert len(outcomes) == 6 and min(outcomes.values()) >= 100, outcomes
    assert swapped >= 1000


def test_difference_fixtures(tri, infeas):
    g1, g2 = tri
    assert difference(g1, g2) == 1
    assert difference(g1, g1) == 0
    i1, i2 = infeas
    assert difference(i1, i2) == 2


def test_difference_symmetry_under_pair_counts():
    for seed in range(200):
        g = helpers.small_instance(seed)
        rng = random.Random(seed)
        h = helpers.random_compatible_target(g, rng)
        if h is None:
            continue
        assert check_pair_counts(g, h)
        assert difference(g, h) == difference(h, g)
        if difference(g, h) == 0:
            assert g == h


def test_difference_requires_same_vertices(tri):
    g1, _ = tri
    other = TemporalGraph.build("abx", 2, [("a", "b", 1), ("b", "x", 1), ("a", "b", 2), ("b", "x", 2)])
    with pytest.raises(GraphError):
        difference(g1, other)


def test_check_pair_counts(tri, infeas):
    assert check_pair_counts(*tri)
    assert check_pair_counts(*infeas)
    a = TemporalGraph.build("ab", 1, [("a", "b", 1)])
    assert check_pair_counts(a, a)
    b = TemporalGraph.build("abc", 1, [("a", "b", 1), ("b", "c", 1)])
    c = TemporalGraph.build("abc", 1, [("a", "c", 1), ("b", "c", 1)])
    assert not check_pair_counts(b, c)


def _moved_label(g: TemporalGraph, rng: random.Random) -> TemporalGraph | None:
    """``g`` with one label moved to another vertex pair at the same time:
    two pair counts change.  None if no such move exists."""
    e = rng.choice(sorted(g.edges))
    free = [(u, v) for u, v in itertools.combinations(range(g.n), 2)
            if (u, v) != e.pair and TemporalEdge(u, v, e.t) not in g.edges]
    if not free:
        return None
    return TemporalGraph(g.names, g.lifetime, g.edges - {e} | {TemporalEdge(*rng.choice(free), e.t)})


def test_check_pair_counts_matches_full_counts():
    """Counting only the differing edges agrees with comparing full counts."""
    moved_pairs = 0
    for seed in range(150):
        rng = random.Random(seed)
        g = helpers.sparse_instance(seed)
        walked = helpers.perturb(g, rng.randint(1, 6), rng)
        shuffled = helpers.random_compatible_target(g, rng)
        moved = _moved_label(g, rng)
        for h in (g, walked, shuffled, moved):
            if h is not None:
                want = g.pair_counts() == h.pair_counts()
                assert check_pair_counts(g, h) == check_pair_counts(h, g) == want
        if moved is not None:
            assert not check_pair_counts(g, moved)
            moved_pairs += 1
    assert moved_pairs > 100


def test_build_rejects_bad_input():
    with pytest.raises(GraphError):
        TemporalGraph.build("aa", 1, [])
    with pytest.raises(GraphError):
        TemporalGraph.build("ab", 1, [("a", "a", 1)])
    with pytest.raises(GraphError):
        TemporalGraph.build("ab", 1, [("a", "x", 1)])
    with pytest.raises(GraphError, match=r"^undeclared vertex name 'x'$"):
        TemporalGraph.build("ab", 1, [("x", "b", 1)])
    with pytest.raises(GraphError):
        TemporalGraph.build("ab", 1, [("a", "b", 1), ("b", "a", 1)])
    with pytest.raises(GraphError):
        TemporalGraph.build("ab", 1, [("a", "b", 2)])


@pytest.mark.parametrize("edge", [(1, 0, 1), (0, 2, 1)])  # u > v, v >= n
def test_constructor_rejects_bad_edge_endpoints(edge):
    want = f"bad edge endpoints {TemporalEdge(*edge)!r} for 2 vertices"
    with pytest.raises(GraphError) as exc:
        TemporalGraph(("a", "b"), 1, frozenset([edge]))
    assert str(exc.value) == want


def test_repeated_vertex_name_is_named_before_edges_are_read():
    with pytest.raises(GraphError, match=r"^duplicate vertex name 'x'$"):
        TemporalGraph.build(["x", "x", "y"], 1, [("x", "y", 1), ("y", "x", 1)])
    with pytest.raises(GraphError, match=r"^duplicate vertex name 'b'$"):
        TemporalGraph(("a", "b", "c", "b"), 1, frozenset())
    with pytest.raises(GraphError):
        TemporalGraph.build("ab", 0, [])


def _build_inputs(rng):
    """Seeded ``build`` arguments, valid or with one fault the constructor
    also rejects: a repeated name, lifetime < 1, or an edge time out of range."""
    n, lifetime = rng.randint(2, 6), rng.randint(1, 4)
    names = [f"x{i}" for i in range(n)]
    slots = [(a, b, t) for a, b in itertools.combinations(names, 2) for t in range(1, lifetime + 1)]
    edges = [(b, a, t) if rng.random() < 0.5 else (a, b, t) for a, b, t in rng.sample(slots, rng.randint(0, len(slots)))]
    fault = rng.choice(["none", "name", "lifetime", "time"])
    if fault == "name":
        names.insert(rng.randrange(n + 1), rng.choice(names))
    elif fault == "lifetime":
        lifetime = rng.choice([0, -2])
    elif fault == "time":
        edges.insert(rng.randrange(len(edges) + 1), ("x0", "x1", rng.choice([0, lifetime + 1])))
    return fault, names, lifetime, edges


def test_build_equals_the_public_constructor():
    rng = random.Random(11)
    faults = Counter()
    for _ in range(400):
        fault, names, lifetime, edges = _build_inputs(rng)
        index = {name: i for i, name in enumerate(names)}
        indexed = [TemporalEdge(*sorted((index[a], index[b])), t) for a, b, t in edges]
        try:
            want = TemporalGraph(names, lifetime, frozenset(indexed))
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                TemporalGraph.build(names, lifetime, edges)
            assert str(got.value) == str(exc), (names, lifetime, edges)
            faults[fault] += 1
            continue
        g = TemporalGraph.build(names, lifetime, edges)
        assert g == want and hash(g) == hash(want)
        assert [g.snapshot(t) for t in range(1, lifetime + 1)] == [want.snapshot(t) for t in range(1, lifetime + 1)]
        assert is_always_connected(g) == is_always_connected(want)
        faults[fault] += 1
    assert len(faults) == 4 and min(faults.values()) >= 80, faults


def test_align_names(tri):
    g1, _ = tri
    shuffled = TemporalGraph.build(
        "cba", 2, [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("a", "b", 2), ("b", "c", 2)]
    )
    assert align_names(shuffled, g1) == g1
    with pytest.raises(GraphError):
        align_names(TemporalGraph.build("ab", 2, [("a", "b", 1)]), g1)


def test_align_names_reversed_large_graph_is_fast():
    n = 50_000
    names = [f"v{i}" for i in range(n)]
    like = TemporalGraph(names, 1, frozenset(TemporalEdge(i, i + 1, 1) for i in range(n - 1)))
    # the same path with the vertex table reversed: names[i] sits at n-1-i
    g = TemporalGraph(names[::-1], 1, frozenset(TemporalEdge(n - 2 - i, n - 1 - i, 1) for i in range(n - 1)))
    start = time.perf_counter()
    assert align_names(g, like) == like
    assert time.perf_counter() - start < 5.0
    assert g.index("v0") == n - 1
    with pytest.raises(GraphError, match="unknown vertex name"):
        g.index("w")


def test_generated_instances_are_always_connected():
    for seed in range(50):
        g = generate_random_instance(6, 3, 2, seed)
        assert is_always_connected(g)


def test_union_find_connectivity_matches_the_forest_root_count():
    rng = random.Random(19)
    cases = [(0, []), (1, []), (2, []), (3, [(0, 1)]), (3, [(2, 1), (0, 2)])]
    for n, _ in itertools.product(range(12), range(60)):
        every = list(itertools.combinations(range(n), 2))
        pairs = rng.sample(every, rng.randint(0, min(len(every), 2 * n)))
        cases.append((n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]))
    seen = Counter()
    for n, pairs in cases:
        want = core.static_bridges(n, pairs).parent.count(-1) <= 1
        assert core._connected(n, pairs) == want, (n, pairs)
        seen[want] += 1
    assert min(seen.values()) >= 150, seen


def _first_disconnected_by_forests(g: TemporalGraph) -> int | None:
    times = range(1, g.lifetime + 1) if g.n > 1 else ()
    return next((t for t in times if core.static_bridges(g.n, g.snapshot(t)).parent.count(-1) > 1), None)


def test_connectivity_check_builds_no_forest_and_finds_the_first_disconnected_snapshot(monkeypatch):
    graphs = [
        TemporalGraph((), 1, frozenset()),
        TemporalGraph(("x",), 3, frozenset()),
        TemporalGraph(("x", "y"), 2, frozenset()),
        TemporalGraph.build("ab", 3, [("a", "b", 1), ("a", "b", 2)]),  # empty last snapshot
        TemporalGraph.build("abc", 3, [("a", "b", 1), ("b", "c", 1), ("a", "c", 2), ("b", "c", 2), ("a", "b", 3)]),
    ]
    for seed in range(300):
        g = helpers.sparse_instance(seed)
        graphs.append(g)
        bridges = sorted(find_bridges(g))
        if bridges:  # dropping one disconnects its snapshot alone
            dropped = random.Random(seed).choice(bridges)
            graphs.append(TemporalGraph(g.names, g.lifetime, g.edges - {dropped}))
    wants = [_first_disconnected_by_forests(g) for g in graphs]
    assert wants[:5] == [None, None, 1, 3, 3]
    seen = Counter("connected" if want is None else want == g.lifetime for g, want in zip(graphs, wants))
    assert min(seen.values()) >= 60, seen  # disconnected only at the last snapshot, or earlier

    def refuse(n, pairs):
        raise AssertionError("a snapshot paid for both a union-find pass and a forest")

    real_forest, real_connected = core.static_bridges, core._connected
    for g, want in zip(graphs, wants):
        monkeypatch.setattr(core, "static_bridges", refuse)
        fresh = TemporalGraph(g.names, g.lifetime, g.edges)
        assert fresh._disconnected_at == want
        assert is_always_connected(fresh) == (want is None)
        monkeypatch.setattr(core, "static_bridges", real_forest)
        monkeypatch.setattr(core, "_connected", refuse)
        fresh = TemporalGraph(g.names, g.lifetime, g.edges)  # the forest path, as classify takes it
        fresh._forests()
        assert fresh._disconnected_at == want
        monkeypatch.setattr(core, "_connected", real_connected)


def test_validate_sequence_builds_no_forest(monkeypatch):
    pairs = [(red.g1, red.g2) for red in map(build_reduction, helpers.small_vc_instances())]
    for seed in range(40):
        g = generate_random_instance(12, 3, 6, seed)
        pairs.append((g, helpers.perturb(g, 4, random.Random(seed))))
    plans = [(g1, plan(g1, g2).sequence, g2) for g1, g2 in pairs]
    calls = []
    real = core.static_bridges
    monkeypatch.setattr(core, "static_bridges", lambda n, edges: calls.append(n) or real(n, edges))
    for g1, seq, g2 in plans:
        g1, g2 = (TemporalGraph(g.names, g.lifetime, g.edges) for g in (g1, g2))
        assert validate_sequence(g1, seq, g2).ok
        assert validate_sequence(g1, seq[:-1], g2).final_matches == (not seq)
    assert calls == []


def test_validate_sequence_checks_a_disconnected_target_when_not_ok(tri):
    g1, _ = tri
    broken = TemporalGraph.build("abc", 2, [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("a", "b", 2)])
    for seq in ([op(g1, "a", "b", 2, 1)], [], [op(g1, "a", "c", 1, 2)]):  # a failing step, then two mismatches
        with pytest.raises(GraphError, match="endpoint graph is not always-connected"):
            validate_sequence(g1, seq, broken)
    with pytest.raises(GraphError, match="endpoint graph is not always-connected"):
        validate_sequence(broken, [], g1)
    with pytest.raises(GraphError, match="different lifetimes"):
        validate_sequence(broken, [], TemporalGraph(broken.names, 3, broken.edges))
