import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tgr
from tgr.cli import main
from tgr.formats import format_temporal_graph, load_temporal_graph

import helpers


@pytest.fixture
def tri_files(tmp_path):
    g1, g2 = helpers.tri_pair()
    p1, p2 = tmp_path / "tri1.tg", tmp_path / "tri2.tg"
    p1.write_text(format_temporal_graph(g1))
    p2.write_text(format_temporal_graph(g2))
    return str(p1), str(p2)


@pytest.fixture
def infeas_files(tmp_path):
    g1, g2 = helpers.infeas_pair()
    p1, p2 = tmp_path / "i1.tg", tmp_path / "i2.tg"
    p1.write_text(format_temporal_graph(g1))
    p2.write_text(format_temporal_graph(g2))
    return str(p1), str(p2)


def test_check_feasible(tri_files, capsys):
    assert main(["check", "--g1", tri_files[0], "--g2", tri_files[1]]) == 0
    assert capsys.readouterr().out.strip() == "feasible"


def test_check_infeasible_with_witness(infeas_files, capsys):
    assert main(["check", "--g1", infeas_files[0], "--g2", infeas_files[1]]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "infeasible"
    assert out[1] == "witness a b 1"


def test_check_json(tri_files, capsys):
    assert main(["check", "--json", "--g1", tri_files[0], "--g2", tri_files[1]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"command": "check", "feasible": True, "reason": None, "witness": None}


def test_plan_writes_valid_tgs(tri_files, tmp_path, capsys):
    seq_path = str(tmp_path / "plan.tgs")
    assert main(["plan", "--g1", tri_files[0], "--g2", tri_files[1], "-o", seq_path]) == 0
    assert "plan length 1 phases 1" in capsys.readouterr().out
    assert main(["validate", "--g1", tri_files[0], "--g2", tri_files[1], "--seq", seq_path]) == 0
    assert capsys.readouterr().out.strip() == "valid length 1"


def test_plan_identity_writes_header_only(tri_files, tmp_path, capsys):
    seq_path = tmp_path / "id.tgs"
    assert main(["plan", "--g1", tri_files[0], "--g2", tri_files[0], "-o", str(seq_path)]) == 0
    assert seq_path.read_text() == "tgs 1\n"


def test_plan_stdout_when_no_output(tri_files, capsys):
    assert main(["plan", "--g1", tri_files[0], "--g2", tri_files[1]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tgs 1\n") and "r a c 1 2" in out


def test_plan_infeasible_exit(infeas_files, capsys):
    assert main(["plan", "--g1", infeas_files[0], "--g2", infeas_files[1]]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_validate_detects_bad_sequence(tri_files, tmp_path, capsys):
    bad = tmp_path / "bad.tgs"
    bad.write_text("tgs 1\nr a b 2 1\n")
    assert main(["validate", "--g1", tri_files[0], "--g2", tri_files[1], "--seq", str(bad)]) == 1
    assert "invalid step 0 collision" in capsys.readouterr().out


def test_classify_output(tmp_path, capsys):
    g = helpers.chain2()
    path = tmp_path / "c.tg"
    path.write_text(format_temporal_graph(g))
    assert main(["classify", "--g", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == g.m
    assert "a b 1 level=0 via=-" in lines
    assert "a d 1 level=2 via=c,d,2" in lines


def test_classify_unchangeable_and_dump_cross(infeas_files, capsys):
    assert main(["classify", "--g", infeas_files[0], "--dump-cross"]) == 0
    out = capsys.readouterr().out
    assert "level=unchangeable" in out
    assert "bridge" in out and "sides" in out


def naive_side(pairs, start):
    """Vertices joined to ``start`` by ``pairs``, by repeated closure."""
    seen = {start}
    grew = True
    while grew:
        grew = False
        for a, b in pairs:
            if (a in seen) != (b in seen):
                seen |= {a, b}
                grew = True
    return seen


def reference_dump_cross(g):
    """Plain and JSON ``classify --dump-cross`` output from the test references."""
    table = helpers.reference_classify(g)
    cross = helpers.compute_cross(g)

    def doc(e):
        return {"u": g.name(e.u), "v": g.name(e.v), "t": e.t}

    def text(e):
        return f"{g.name(e.u)} {g.name(e.v)} {e.t}"

    lines, edges_doc, bridges_doc = [], [], []
    for e in sorted(g.edges):
        level, ref = table.levels.get(e), table.back_refs.get(e)
        via = text(ref).replace(" ", ",") if ref else "-"
        lines.append(f"{text(e)} level={'unchangeable' if level is None else level} via={via}")
        edges_doc.append({**doc(e), "level": level, "via": doc(ref) if ref else None})
    for b in sorted(tgr.find_bridges(g)):
        pairs = [x.pair for x in g.edges if x.t == b.t and x != b]
        sizes = [len(naive_side(pairs, b.u)), len(naive_side(pairs, b.v))]
        members = sorted(e for e in g.edges if b in cross[e])
        lines.append(f"bridge {text(b)} sides {sizes[0]} {sizes[1]}")
        lines += [f"  crossing {text(e)}" for e in members]
        bridges_doc.append({**doc(b), "side_sizes": sizes, "crossing": [doc(e) for e in members]})
    plain = "\n".join(lines) + "\n"
    return plain, {"command": "classify", "edges": edges_doc, "bridges": bridges_doc}


@pytest.mark.parametrize(
    "graph",
    [
        helpers.chain2,
        lambda: tgr.generate_random_instance(12, 4, 3, 7),
        lambda: helpers.ladder(40),
        lambda: helpers.sparse_instance(58),
        lambda: tgr.build_reduction(tgr.VCInstance.build("abc", [("a", "b"), ("b", "c")], 1)).g1,
    ],
    ids=["chain2", "gen", "ladder", "deep_t2", "path_reduction"],
)
def test_dump_cross_matches_reference(graph, tmp_path, capsys):
    g = graph()
    path = tmp_path / "g.tg"
    path.write_text(format_temporal_graph(g))
    plain, doc = reference_dump_cross(g)
    assert doc["bridges"] and any(b["crossing"] for b in doc["bridges"])
    assert main(["classify", "--g", str(path), "--dump-cross"]) == 0
    assert capsys.readouterr().out == plain
    assert main(["classify", "--g", str(path), "--dump-cross", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_diff_output(tri_files, capsys):
    assert main(["diff", "--g1", tri_files[0], "--g2", tri_files[1]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "delta 1"
    assert "only-g1 a c 1" in lines
    assert "only-g2 a c 2" in lines


def test_oracle_exit_codes(tri_files, infeas_files, capsys):
    assert main(["oracle", "--g1", tri_files[0], "--g2", tri_files[1]]) == 0
    assert capsys.readouterr().out.strip() == "found 1"
    assert main(["oracle", "--g1", infeas_files[0], "--g2", infeas_files[1]]) == 1
    assert capsys.readouterr().out.strip() == "unreachable"


def test_oracle_budget_exit(tmp_path, capsys):
    g = helpers.chain2()
    import tgr

    g2 = tgr.apply_relabel(g, helpers.op(g, "b", "c", 1, 2))
    g2 = tgr.apply_relabel(g2, helpers.op(g2, "d", "c", 2, 1))
    p1, p2 = tmp_path / "a.tg", tmp_path / "b.tg"
    p1.write_text(format_temporal_graph(g))
    p2.write_text(format_temporal_graph(g2))
    assert main(["oracle", "--g1", str(p1), "--g2", str(p2), "--max-states", "1"]) == 2
    assert capsys.readouterr().out.strip() == "budget"


def test_oracle_negative_depth_cap_exits_2(tri_files, capsys):
    assert main(["oracle", "--g1", tri_files[0], "--g2", tri_files[1], "--max-depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tgr: max_depth must be non-negative\n"


def test_gen_round_trips(tmp_path, capsys):
    out = tmp_path / "g.tg"
    assert main(["gen", "--n", "6", "--t", "3", "--extra", "1", "--seed", "4", "-o", str(out)]) == 0
    g = load_temporal_graph(out)
    assert g.n == 6 and g.m == 3 * (5 + 1)
    # byte-identical regeneration
    first = out.read_text()
    assert main(["gen", "--n", "6", "--t", "3", "--extra", "1", "--seed", "4", "-o", str(out)]) == 0
    assert out.read_text() == first


def test_reduce_vc_and_cover_seq(tmp_path, capsys):
    edgelist = tmp_path / "g.edgelist"
    edgelist.write_text("# one edge\nu w\n")
    prefix = str(tmp_path / "red")
    assert main(["reduce-vc", "--graph", str(edgelist), "--k", "1", "--out-prefix", prefix]) == 0
    assert capsys.readouterr().out.strip() == "ell 6"
    seq_path = str(tmp_path / "cover.tgs")
    assert main(["cover-seq", "--prefix", prefix, "--cover", "u", "-o", seq_path]) == 0
    assert capsys.readouterr().out.strip() == "length 6"
    assert main(["validate", "--g1", f"{prefix}.g1.tg", "--g2", f"{prefix}.g2.tg", "--seq", seq_path]) == 0


def test_reduce_vc_encodes_colliding_gadget_names(tmp_path, capsys):
    edgelist = tmp_path / "g.edgelist"
    edgelist.write_text("x y_z\nx_y z\n")  # joined raw, both edges name a gadget vertex x_y_z
    prefix = str(tmp_path / "red")
    assert main(["reduce-vc", "--graph", str(edgelist), "--k", "2", "--out-prefix", prefix]) == 0
    assert main(["cover-seq", "--prefix", prefix, "--cover", "x,z", "-o", f"{prefix}.tgs"]) == 0
    assert main(["validate", "--g1", f"{prefix}.g1.tg", "--g2", f"{prefix}.g2.tg", "--seq", f"{prefix}.tgs"]) == 0
    assert capsys.readouterr() == ("ell 12\nlength 12\nvalid length 12\n", "")
    assert "v x_y%5Fz\n" in (tmp_path / "red.g1.tg").read_text()


def test_circ60_reduction_plan_is_pinned(tmp_path, capsys):
    # a multi-hundred-phase plan of deep enabling chains, byte for byte
    n = 60
    edgelist = tmp_path / "circ60.el"
    edgelist.write_text("".join(f"x{i} x{j}\n" for i in range(n) for j in (i + 1, i + 2) if j < n))
    prefix = str(tmp_path / "circ60")
    assert main(["reduce-vc", "--graph", str(edgelist), "--k", "40", "--out-prefix", prefix]) == 0
    seq_path = tmp_path / "circ60.tgs"
    assert main(["plan", "--g1", f"{prefix}.g1.tg", "--g2", f"{prefix}.g2.tg", "-o", str(seq_path)]) == 0
    assert capsys.readouterr() == ("ell 548\nplan length 702 phases 234\n", "")
    digest = hashlib.sha256(seq_path.read_bytes()).hexdigest()
    assert digest == "cb509fee45f5b650db9feaa1b0236352afddab4da833b83f20052cda84ad59ab"


def test_cover_seq_rejects_non_cover(tmp_path, capsys):
    edgelist = tmp_path / "g.edgelist"
    edgelist.write_text("u w\n")
    prefix = str(tmp_path / "red")
    main(["reduce-vc", "--graph", str(edgelist), "--k", "0", "--out-prefix", prefix])
    capsys.readouterr()
    rc = main(["cover-seq", "--prefix", prefix, "--cover", "", "-o", str(tmp_path / "s.tgs")])
    assert rc == 2
    assert "not a vertex cover" in capsys.readouterr().err


def test_parse_error_exit_and_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.tg"
    bad.write_text("tg 1\nt 2\nv a\ne a b 1\n")
    rc = main(["classify", "--g", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.tg:4" in err and "undeclared" in err


@pytest.mark.parametrize("command", ["check", "validate", "classify", "reduce-vc", "cover-seq"])
def test_undecodable_input_exits_2_with_line(tri_files, tmp_path, capsys, command):
    bad = tmp_path / "bad.vc"  # cover-seq reads <prefix>.vc
    bad.write_bytes(b"# first\n\n\xff\n")
    argv = {
        "check": ["check", "--g1", str(bad), "--g2", tri_files[1]],
        "validate": ["validate", "--g1", tri_files[0], "--g2", tri_files[1], "--seq", str(bad)],
        "classify": ["classify", "--g", str(bad)],
        "reduce-vc": ["reduce-vc", "--graph", str(bad), "--k", "1", "--out-prefix", str(tmp_path / "red")],
        "cover-seq": ["cover-seq", "--prefix", str(tmp_path / "bad"), "--cover", "u", "-o", str(tmp_path / "s.tgs")],
    }[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{bad}:3: not UTF-8 text" in err


def test_missing_file_exit(tmp_path, capsys):
    rc = main(["classify", "--g", str(tmp_path / "nope.tg")])
    assert rc == 2


def test_json_plan_document(tri_files, capsys):
    assert main(["plan", "--json", "--g1", tri_files[0], "--g2", tri_files[1]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "plan" and doc["feasible"] is True
    assert doc["length"] == 1 and doc["phases"] == 1
    assert doc["ops"] == [{"u": "a", "v": "c", "from_t": 1, "to_t": 2}]


def test_vertex_order_mismatch_is_aligned(tmp_path, capsys):
    g1, g2 = helpers.tri_pair()
    p1 = tmp_path / "a.tg"
    p1.write_text(format_temporal_graph(g1))
    # same graph, vertices declared in a different order
    p2 = tmp_path / "b.tg"
    p2.write_text("tg 1\nt 2\nv c\nv b\nv a\ne a b 1\ne b c 1\ne a c 2\ne a b 2\ne b c 2\n")
    assert main(["check", "--g1", str(p1), "--g2", str(p2)]) == 0


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tgr 0.1.0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "plan", "validate", "oracle"])
def test_disconnected_endpoint_exits_2(tmp_path, capsys, command):
    path = tmp_path / "d.tg"
    path.write_text("tg 1\nt 2\nv a\nv b\ne a b 1\n")  # snapshot 2 is empty
    seq = tmp_path / "s.tgs"
    seq.write_text("tgs 1\n")
    argv = [command, "--g1", str(path), "--g2", str(path)]
    if command == "validate":
        argv += ["--seq", str(seq)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tgr: ") and "not always-connected" in captured.err


@pytest.mark.parametrize("command", ["classify", "check", "plan"])
@pytest.mark.parametrize(
    "text, code",
    [("tg 1\nt 100000\nv a\nv b\ne a b 1\n", 2), ("tg 1\nt 100000\nv a\n", 0)],
    ids=["two-vertices", "one-vertex"],
)
def test_long_lifetime_is_decided_in_edge_count_memory(tmp_path, capsys, command, text, code):
    path = tmp_path / "long.tg"
    path.write_text(text)
    argv = [command, "--g", str(path)] if command == "classify" else [command, "--g1", str(path), "--g2", str(path)]
    tracemalloc.start()
    try:
        assert main(argv) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_check_long_sparse_graph_exits_2(tmp_path, capsys):
    n = 20_000
    path = tmp_path / "wide.tg"
    vertices = "".join(f"v v{i}\n" for i in range(n))
    edges = "".join(f"e v0 v1 {t}\n" for t in range(1, n + 1))
    path.write_text(f"tg 1\nt {n}\n{vertices}{edges}")
    assert main(["check", "--g1", str(path), "--g2", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tgr: ") and "not always-connected" in captured.err


def _run_capped(args, cwd, limit=256 << 20, timeout=20):
    """``tgr`` in a child process whose address space is capped at ``limit``
    bytes, so a run that builds too much fails fast instead of growing."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(tgr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "tgr.cli", *args]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=cap)


def test_oracle_answers_equal_endpoints_before_it_builds_the_slot_space(tmp_path):
    (tmp_path / "one.tg").write_text("tg 1\nt 100000000\nv a\n")  # 21 bytes, lifetime 10^8
    out = _run_capped(["oracle", "--g1", "one.tg", "--g2", "one.tg"], tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == (0, "found 0\n", "")


def test_gen_samples_further_edges_without_listing_every_pair(tmp_path):
    # the 4.5 million pairs of K_3000, listed and sorted, outgrow a 256 MB cap
    out = _run_capped(["gen", "--n", "3000", "--t", "2", "--extra", "10", "-o", "g.tg"], tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == (0, "generated n=3000 t=2 m=6018\n", "")


def test_running_out_of_memory_exits_2_with_one_diagnostic(tmp_path):
    # about 200,000 slots: the oracle's slot space outgrows a 256 MB cap
    n, lifetime = 2000, 10
    head = f"tg 1\nt {lifetime}\n" + "".join(f"v v{i}\n" for i in range(n))
    stars = "".join(f"e v{t - 1} v{i} {t}\n" for t in range(1, lifetime + 1) for i in range(n) if i != t - 1)
    for name, t in (("g1", 1), ("g2", 2)):
        (tmp_path / f"{name}.tg").write_text(f"{head}{stars}e v100 v101 {t}\n")
    out = _run_capped(["oracle", "--max-states", "10", "--g1", "g1.tg", "--g2", "g2.tg"], tmp_path)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("tgr: ") and out.stderr.count("\n") == 1, out.stderr
