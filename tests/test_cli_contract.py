"""The CLI output contract, pinned byte for byte.

Each run is ``(argv, exit code, stdout, stderr)``, written out as literals:
plain text or one JSON document on stdout (key order included), a ``tgr:``
diagnostic on stderr, and the exit code.  Runs go in order in a directory
holding the inputs, so paths in the output are the relative ones given.
"""

import pytest

import tgr
from tgr import cli
from tgr.cli import main
from tgr.formats import format_temporal_graph

import helpers


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    tri1, tri2 = helpers.tri_pair()
    i1, i2 = helpers.infeas_pair()
    c1 = helpers.chain2()
    c2 = tgr.apply_relabel(c1, helpers.op(c1, "b", "c", 1, 2))
    c2 = tgr.apply_relabel(c2, helpers.op(c2, "d", "c", 2, 1))
    t3 = tgr.TemporalGraph(tri1.names, 3, tri1.edges)  # lifetime 3 against tri1's 2
    graphs = {"tri1": tri1, "tri2": tri2, "i1": i1, "i2": i2, "c1": c1, "c2": c2, "t3": t3}
    for name, g in graphs.items():
        (tmp_path / f"{name}.tg").write_text(format_temporal_graph(g))
    (tmp_path / "one.tg").write_text("tg 1\nt 1\nv a\n")
    (tmp_path / "args.tg").write_text("tg 1\nt 2 3\n")
    (tmp_path / "path.el").write_text("a b\nb c\n")
    (tmp_path / "bad.tgs").write_text("tgs 1\nr a c 1 x\n")
    (tmp_path / "clash.tgs").write_text("tgs 1\nr a b 1 2\n")
    (tmp_path / "gone.tgs").write_text("tgs 1\nr a c 2 1\n")
    (tmp_path / "cut.tgs").write_text("tgs 1\nr c d 2 1\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _check(runs, capsys):
    for argv, code, out, err in runs:
        assert (main(argv.split()), *capsys.readouterr()) == (code, out, err), argv


FIXTURE_RUNS = [
    ("check --g1 tri1.tg --g2 tri2.tg", 0, "feasible\n", ""),
    (
        "check --json --g1 tri1.tg --g2 tri2.tg",
        0,
        '{"command": "check", "feasible": true, "reason": null, "witness": null}\n',
        "",
    ),
    ("check --g1 i1.tg --g2 i2.tg", 1, "infeasible\nwitness a b 1\n", ""),
    (
        "check --json --g1 i1.tg --g2 i2.tg",
        1,
        '{"command": "check", "feasible": false, "reason": "unchangeable",'
        ' "witness": {"u": "a", "v": "b", "t": 1}}\n',
        "",
    ),
    ("plan --g1 tri1.tg --g2 tri2.tg", 0, "tgs 1\nr a c 1 2\n", ""),
    (
        "plan --json --g1 tri1.tg --g2 tri2.tg",
        0,
        '{"command": "plan", "feasible": true, "length": 1, "phases": 1,'
        ' "ops": [{"u": "a", "v": "c", "from_t": 1, "to_t": 2}]}\n',
        "",
    ),
    ("plan --g1 tri1.tg --g2 tri2.tg -o p.tgs", 0, "plan length 1 phases 1\n", ""),
    (
        "plan --json --g1 tri1.tg --g2 tri2.tg -o p.tgs",
        0,
        '{"command": "plan", "feasible": true, "length": 1, "phases": 1,'
        ' "ops": [{"u": "a", "v": "c", "from_t": 1, "to_t": 2}]}\n',
        "",
    ),
    ("plan --g1 i1.tg --g2 i2.tg", 1, "infeasible\nwitness a b 1\n", ""),
    (
        "plan --json --g1 i1.tg --g2 i2.tg",
        1,
        '{"command": "plan", "feasible": false, "reason": "unchangeable",'
        ' "witness": {"u": "a", "v": "b", "t": 1}}\n',
        "",
    ),
    ("validate --g1 tri1.tg --g2 tri2.tg --seq p.tgs", 0, "valid length 1\n", ""),
    (
        "validate --json --g1 tri1.tg --g2 tri2.tg --seq p.tgs",
        0,
        '{"command": "validate", "ok": true, "length": 1, "failed_step": null,'
        ' "failure": null, "final_matches": true}\n',
        "",
    ),
    ("validate --g1 tri1.tg --g2 tri2.tg --seq clash.tgs", 1, "invalid step 0 collision\n", ""),
    (
        "validate --json --g1 tri1.tg --g2 tri2.tg --seq clash.tgs",
        1,
        '{"command": "validate", "ok": false, "length": 1, "failed_step": 0,'
        ' "failure": "collision", "final_matches": false}\n',
        "",
    ),
    ("validate --g1 tri1.tg --g2 tri2.tg --seq gone.tgs", 1, "invalid step 0 missing_edge\n", ""),
    (
        "validate --json --g1 tri1.tg --g2 tri2.tg --seq gone.tgs",
        1,
        '{"command": "validate", "ok": false, "length": 1, "failed_step": 0,'
        ' "failure": "missing_edge", "final_matches": false}\n',
        "",
    ),
    ("validate --g1 c1.tg --g2 c2.tg --seq cut.tgs", 1, "invalid step 0 disconnects\n", ""),
    (
        "validate --json --g1 c1.tg --g2 c2.tg --seq cut.tgs",
        1,
        '{"command": "validate", "ok": false, "length": 1, "failed_step": 0,'
        ' "failure": "disconnects", "final_matches": false}\n',
        "",
    ),
    (
        "classify --g tri1.tg",
        0,
        "a b 1 level=0 via=-\na b 2 level=1 via=a,c,1\na c 1 level=0 via=-\n"
        "b c 1 level=0 via=-\nb c 2 level=1 via=a,c,1\n",
        "",
    ),
    (
        "classify --json --g tri1.tg",
        0,
        '{"command": "classify", "edges": [{"u": "a", "v": "b", "t": 1, "level": 0, "via": null},'
        ' {"u": "a", "v": "b", "t": 2, "level": 1, "via": {"u": "a", "v": "c", "t": 1}},'
        ' {"u": "a", "v": "c", "t": 1, "level": 0, "via": null},'
        ' {"u": "b", "v": "c", "t": 1, "level": 0, "via": null},'
        ' {"u": "b", "v": "c", "t": 2, "level": 1, "via": {"u": "a", "v": "c", "t": 1}}]}\n',
        "",
    ),
    (
        "classify --g i1.tg --dump-cross",
        0,
        "a b 1 level=unchangeable via=-\na c 1 level=unchangeable via=-\n"
        "a c 2 level=unchangeable via=-\nb c 2 level=unchangeable via=-\n"
        "bridge a b 1 sides 2 1\n  crossing b c 2\n"
        "bridge a c 1 sides 2 1\n  crossing a c 2\n  crossing b c 2\n"
        "bridge a c 2 sides 1 2\n  crossing a b 1\n  crossing a c 1\n"
        "bridge b c 2 sides 1 2\n  crossing a b 1\n",
        "",
    ),
    (
        "classify --json --g i1.tg --dump-cross",
        0,
        '{"command": "classify", "edges": [{"u": "a", "v": "b", "t": 1, "level": null, "via": null},'
        ' {"u": "a", "v": "c", "t": 1, "level": null, "via": null},'
        ' {"u": "a", "v": "c", "t": 2, "level": null, "via": null},'
        ' {"u": "b", "v": "c", "t": 2, "level": null, "via": null}],'
        ' "bridges": [{"u": "a", "v": "b", "t": 1, "side_sizes": [2, 1],'
        ' "crossing": [{"u": "b", "v": "c", "t": 2}]},'
        ' {"u": "a", "v": "c", "t": 1, "side_sizes": [2, 1],'
        ' "crossing": [{"u": "a", "v": "c", "t": 2}, {"u": "b", "v": "c", "t": 2}]},'
        ' {"u": "a", "v": "c", "t": 2, "side_sizes": [1, 2],'
        ' "crossing": [{"u": "a", "v": "b", "t": 1}, {"u": "a", "v": "c", "t": 1}]},'
        ' {"u": "b", "v": "c", "t": 2, "side_sizes": [1, 2],'
        ' "crossing": [{"u": "a", "v": "b", "t": 1}]}]}\n',
        "",
    ),
    ("classify --g one.tg", 0, "", ""),
    ("classify --json --g one.tg", 0, '{"command": "classify", "edges": []}\n', ""),
    ("diff --g1 tri1.tg --g2 tri2.tg", 0, "delta 1\nonly-g1 a c 1\nonly-g2 a c 2\n", ""),
    (
        "diff --json --g1 tri1.tg --g2 tri2.tg",
        0,
        '{"command": "diff", "delta": 1, "only_g1": [{"u": "a", "v": "c", "t": 1}],'
        ' "only_g2": [{"u": "a", "v": "c", "t": 2}]}\n',
        "",
    ),
    ("oracle --g1 tri1.tg --g2 tri2.tg", 0, "found 1\n", ""),
    (
        "oracle --json --g1 tri1.tg --g2 tri2.tg",
        0,
        '{"command": "oracle", "status": "found", "length": 1}\n',
        "",
    ),
    ("oracle --g1 i1.tg --g2 i2.tg", 1, "unreachable\n", ""),
    (
        "oracle --json --g1 i1.tg --g2 i2.tg",
        1,
        '{"command": "oracle", "status": "unreachable", "length": null}\n',
        "",
    ),
    ("oracle --g1 c1.tg --g2 c2.tg --max-states 1", 2, "budget\n", ""),
    (
        "oracle --json --g1 c1.tg --g2 c2.tg --max-states 1",
        2,
        '{"command": "oracle", "status": "budget", "length": null}\n',
        "",
    ),
    ("gen --n 4 --t 2 --extra 1 --seed 3 -o g.tg", 0, "generated n=4 t=2 m=8\n", ""),
    (
        "gen --json --n 4 --t 2 --extra 1 --seed 3 -o g.tg",
        0,
        '{"command": "gen", "n": 4, "t": 2, "m": 8, "path": "g.tg"}\n',
        "",
    ),
]

MISSING = "tgr: [Errno 2] No such file or directory: 'nope.tg'\n"
BAD_TGS = "tgr: bad.tgs:2: to-time must be an integer, got 'x'\n"
LIFETIMES = "tgr: graphs have different lifetimes\n"

ERROR_RUNS = [
    ("validate --g1 tri1.tg --g2 tri2.tg --seq bad.tgs", 2, "", BAD_TGS),
    ("validate --json --g1 tri1.tg --g2 tri2.tg --seq bad.tgs", 2, "", BAD_TGS),
    ("classify --g nope.tg", 2, "", MISSING),
    ("classify --json --g nope.tg", 2, "", MISSING),
    ("check --json --g1 tri1.tg --g2 nope.tg", 2, "", MISSING),
    ("classify --g args.tg", 2, "", "tgr: args.tg:2: expected 't <lifetime>'\n"),
    ("check --g1 tri1.tg --g2 t3.tg", 2, "", LIFETIMES),
    ("plan --g1 tri1.tg --g2 t3.tg", 2, "", LIFETIMES),
    ("validate --g1 tri1.tg --g2 t3.tg --seq clash.tgs", 2, "", LIFETIMES),
    ("diff --g1 tri1.tg --g2 t3.tg", 2, "", LIFETIMES),
    ("oracle --g1 tri1.tg --g2 t3.tg", 2, "", LIFETIMES),
    ("oracle --json --g1 t3.tg --g2 tri1.tg", 2, "", LIFETIMES),
]

REDUCTION_RUNS = [
    ("reduce-vc --graph path.el --k 1 --out-prefix red", 0, "ell 10\n", ""),
    (
        "reduce-vc --json --graph path.el --k 1 --out-prefix red",
        0,
        '{"command": "reduce-vc", "ell": 10, "g1": "red.g1.tg", "g2": "red.g2.tg",'
        ' "vc": "red.vc", "vertices": 23, "temporal_edges": 47}\n',
        "",
    ),
    ("cover-seq --prefix red --cover b -o cover.tgs", 0, "length 10\n", ""),
    (
        "cover-seq --json --prefix red --cover b -o cover.tgs",
        0,
        '{"command": "cover-seq", "length": 10, "path": "cover.tgs"}\n',
        "",
    ),
    ("validate --g1 red.g1.tg --g2 red.g2.tg --seq cover.tgs", 0, "valid length 10\n", ""),
    ("plan --g1 red.g1.tg --g2 red.g2.tg -o red.tgs", 0, "plan length 12 phases 4\n", ""),
    (
        "oracle --json --g1 red.g1.tg --g2 red.g2.tg",
        0,
        '{"command": "oracle", "status": "found", "length": 10}\n',
        "",
    ),
]

SHORT_COVER_RUNS = [
    ("validate --g1 red.g1.tg --g2 red.g2.tg --seq short.tgs", 1, "invalid final-mismatch\n", ""),
    (
        "validate --json --g1 red.g1.tg --g2 red.g2.tg --seq short.tgs",
        1,
        '{"command": "validate", "ok": false, "length": 9, "failed_step": null,'
        ' "failure": null, "final_matches": false}\n',
        "",
    ),
]


def test_fixture_runs(workdir, capsys):
    _check(FIXTURE_RUNS, capsys)


def test_error_runs(workdir, capsys):
    _check(ERROR_RUNS, capsys)


def test_reduction_round(workdir, capsys):
    _check(REDUCTION_RUNS, capsys)
    lines = (workdir / "cover.tgs").read_text().splitlines(keepends=True)
    (workdir / "short.tgs").write_text("".join(lines[:-1]))  # drop the last op
    _check(SHORT_COVER_RUNS, capsys)


def test_one_parser_serves_every_run_of_a_process(workdir, capsys):
    cli._build_parser.cache_clear()
    argvs = [
        "check --g1 tri1.tg",  # a usage error
        "--version",
        "check --g1 tri1.tg --g2 tri2.tg",
        "validate --json --g1 tri1.tg --g2 tri2.tg --seq clash.tgs",
    ]

    def runs():
        out = []
        for argv in argvs:
            try:
                code = main(argv.split())
            except SystemExit as exc:
                code = exc.code
            out.append((code, *capsys.readouterr()))
        return out

    first = runs()
    assert [code for code, _, _ in first] == [2, 0, 0, 1]
    assert first[0][1] == "" and "the following arguments are required: --g2" in first[0][2]
    assert first[1] == (0, f"tgr {tgr.__version__} (formats: tg 1, tgs 1, vc 1)\n", "")
    assert runs() == first
    assert cli._build_parser.cache_info().misses == 1
