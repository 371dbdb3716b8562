"""Command-line front end.

Exit codes: 0 for a positive result (feasible / valid / found / generated),
1 for a conclusive negative one (infeasible / invalid / unreachable), 2 for
usage, parse, precondition, or resource errors (including an exhausted
oracle budget).  Each ``cmd_*`` returns its exit code, a JSON document
and plain text, and ``main`` alone prints: every run prints exactly one
result on stdout, either the plain text or, with ``--json``, one JSON
document whose first key is ``command``.  An error prints nothing on
stdout and one ``tgr: ...`` diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .changeability import classify
from .core import (
    GraphError,
    TemporalEdge,
    TemporalGraph,
    align_names,
    difference,
    validate_sequence,
)
from .formats import (
    ParseError,
    TG_VERSION,
    TGS_VERSION,
    VC_VERSION,
    format_sequence,
    format_vc,
    load_sequence,
    load_temporal_graph,
    parse_edge_list,
    parse_vc,
    read_text,
    save_sequence,
    save_temporal_graph,
)
from .generator import generate_random_instance
from .hardness import VCInstance, build_reduction, cover_to_sequence
from .oracle import OracleBudget, oracle_shortest_sequence
from .planner import Feasible, Infeasible, feasible, plan
from .reachability import _crossings


_Result = tuple[int, dict, str]  # exit code, JSON document without "command", plain text


def _edge_doc(g: TemporalGraph, e: TemporalEdge) -> dict:
    return {"u": g.names[e.u], "v": g.names[e.v], "t": e.t}


def _edge_str(g: TemporalGraph, e: TemporalEdge) -> str:
    return f"{g.names[e.u]} {g.names[e.v]} {e.t}"


def _load_pair(args) -> tuple[TemporalGraph, TemporalGraph]:
    g1 = load_temporal_graph(args.g1)
    g2 = align_names(load_temporal_graph(args.g2), g1)
    return g1, g2


def _infeasible(g: TemporalGraph, out: Infeasible) -> _Result:
    """The result for an infeasible pair, for ``check`` and ``plan`` alike."""
    doc = {
        "feasible": False,
        "reason": out.reason,
        "witness": _edge_doc(g, out.witness) if out.witness else None,
    }
    witness = _edge_str(g, out.witness) if out.witness else "pair-counts"
    return 1, doc, f"infeasible\nwitness {witness}"


def cmd_check(args) -> _Result:
    g1, g2 = _load_pair(args)
    ok, out = feasible(g1, g2)
    if not ok:
        return _infeasible(g1, out)
    return 0, {"feasible": True, "reason": None, "witness": None}, "feasible"


def cmd_plan(args) -> _Result:
    g1, g2 = _load_pair(args)
    outcome = plan(g1, g2)
    if isinstance(outcome, Infeasible):
        return _infeasible(g1, outcome)
    assert isinstance(outcome, Feasible)
    plain = format_sequence(outcome.sequence, g1)
    if args.output:
        Path(args.output).write_text(plain, encoding="utf-8")
        plain = f"plan length {len(outcome.sequence)} phases {outcome.phases}"
    doc = {
        "feasible": True,
        "length": len(outcome.sequence),
        "phases": outcome.phases,
        "ops": [
            {
                "u": g1.name(op.u),
                "v": g1.name(op.v),
                "from_t": op.from_time,
                "to_t": op.to_time,
            }
            for op in outcome.sequence
        ],
    }
    return 0, doc, plain


def cmd_validate(args) -> _Result:
    g1, g2 = _load_pair(args)
    seq = load_sequence(args.seq, g1)
    report = validate_sequence(g1, seq, g2)
    doc = {
        "ok": report.ok,
        "length": report.length,
        "failed_step": report.failed_step,
        "failure": report.failure,
        "final_matches": report.final_matches,
    }
    if report.ok:
        plain = f"valid length {report.length}"
    elif report.failed_step is not None:
        plain = f"invalid step {report.failed_step} {report.failure}"
    else:
        plain = "invalid final-mismatch"
    return (0 if report.ok else 1), doc, plain


def cmd_classify(args) -> _Result:
    g = load_temporal_graph(args.g)
    table = classify(g)
    edges = g.sorted_edges()
    bridges = _crossings(g) if args.dump_cross else None
    if args.json:  # build only the output that main prints, each edge's part once
        docs = {e: _edge_doc(g, e) for e in edges}
        doc = {"edges": [
            {**docs[e], "level": table.levels.get(e), "via": docs.get(table.back_refs.get(e))} for e in edges
        ]}
        if bridges is not None:
            doc["bridges"] = [
                {**docs[b], "side_sizes": list(sides), "crossing": [docs[e] for e in members]}
                for b, sides, members in bridges
            ]
        return 0, doc, ""
    label = {e: _edge_str(g, e) for e in edges}
    lines = []
    for e in edges:
        ref = table.back_refs.get(e)
        via = f"{g.names[ref.u]},{g.names[ref.v]},{ref.t}" if ref else "-"
        lines.append(f"{label[e]} level={table.levels.get(e, 'unchangeable')} via={via}")
    for b, sides, members in bridges or ():
        lines.append(f"bridge {label[b]} sides {sides[0]} {sides[1]}")
        lines.extend(f"  crossing {label[e]}" for e in members)
    return 0, {}, "\n".join(lines)


def cmd_diff(args) -> _Result:
    g1, g2 = _load_pair(args)
    only1 = sorted(g1.edges - g2.edges)
    only2 = sorted(g2.edges - g1.edges)
    delta = difference(g1, g2)
    lines = [f"delta {delta}"]
    lines.extend(f"only-g1 {_edge_str(g1, e)}" for e in only1)
    lines.extend(f"only-g2 {_edge_str(g1, e)}" for e in only2)
    doc = {
        "delta": delta,
        "only_g1": [_edge_doc(g1, e) for e in only1],
        "only_g2": [_edge_doc(g1, e) for e in only2],
    }
    return 0, doc, "\n".join(lines)


_ORACLE_CODES = {"found": 0, "unreachable": 1, "budget": 2}


def cmd_oracle(args) -> _Result:
    g1, g2 = _load_pair(args)
    budget = OracleBudget(max_states=args.max_states, max_depth=args.max_depth)
    outcome = oracle_shortest_sequence(g1, g2, budget)
    length = len(outcome.sequence) if outcome.sequence is not None else None
    plain = f"found {length}" if outcome.status == "found" else outcome.status
    return _ORACLE_CODES[outcome.status], {"status": outcome.status, "length": length}, plain


def cmd_gen(args) -> _Result:
    g = generate_random_instance(args.n, args.t, args.extra, args.seed)
    save_temporal_graph(g, args.output)
    doc = {"n": g.n, "t": g.lifetime, "m": g.m, "path": args.output}
    return 0, doc, f"generated n={g.n} t={g.lifetime} m={g.m}"


def cmd_reduce_vc(args) -> _Result:
    edges = parse_edge_list(read_text(args.graph), args.graph)
    vertices = sorted({x for e in edges for x in e})
    inst = VCInstance.build(vertices, edges, args.k)
    red = build_reduction(inst)
    prefix = args.out_prefix
    save_temporal_graph(red.g1, f"{prefix}.g1.tg")
    save_temporal_graph(red.g2, f"{prefix}.g2.tg")
    Path(f"{prefix}.vc").write_text(
        format_vc(inst.vertices, inst.edges, inst.k), encoding="utf-8"
    )
    doc = {
        "ell": red.ell,
        "g1": f"{prefix}.g1.tg",
        "g2": f"{prefix}.g2.tg",
        "vc": f"{prefix}.vc",
        "vertices": red.g1.n,
        "temporal_edges": red.g1.m,
    }
    return 0, doc, f"ell {red.ell}"


def cmd_cover_seq(args) -> _Result:
    path = f"{args.prefix}.vc"
    names, edges, k = parse_vc(read_text(path), path)
    inst = VCInstance.build(names, edges, k)
    red = build_reduction(inst)
    cover = [c for c in (x.strip() for x in args.cover.split(",")) if c]
    seq = cover_to_sequence(red, cover)
    save_sequence(seq, red.g1, args.output)
    return 0, {"length": len(seq), "path": args.output}, f"length {len(seq)}"


@functools.cache  # built once per process: a parse leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgr",
        description="Decide and build connectivity-preserving relabeling plans "
        "between temporal graphs.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"tgr {__version__} (formats: tg {TG_VERSION}, tgs {TGS_VERSION}, vc {VC_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, pair=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        if pair:
            p.add_argument("--g1", required=True)
            p.add_argument("--g2", required=True)
        return p

    add("check", cmd_check, "decide feasibility only", pair=True)

    p = add("plan", cmd_plan, "decide and synthesize a full sequence", pair=True)
    p.add_argument("-o", "--output", help="write the sequence to this .tgs file")

    p = add("validate", cmd_validate, "check a sequence file step by step", pair=True)
    p.add_argument("--seq", required=True)

    p = add("classify", cmd_classify, "per-edge changeability levels")
    p.add_argument("--g", required=True)
    p.add_argument("--dump-cross", action="store_true", help="also print each bridge's partition and crossing edges")

    add("diff", cmd_diff, "edges only in one of the graphs", pair=True)

    p = add("oracle", cmd_oracle, "exhaustive shortest-sequence search", pair=True)
    p.add_argument("--max-states", type=int, default=5_000_000)
    p.add_argument("--max-depth", type=int, default=None)

    p = add("gen", cmd_gen, "random always-connected instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--extra", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = add("reduce-vc", cmd_reduce_vc, "vertex-cover hardness instance")
    p.add_argument("--graph", required=True, help="edge list: one 'u v' per line")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-prefix", required=True)

    p = add("cover-seq", cmd_cover_seq, "sequence realizing a vertex cover")
    p.add_argument("--prefix", required=True, help="prefix used by reduce-vc")
    p.add_argument("--cover", required=True, help="comma-separated vertex names")
    p.add_argument("-o", "--output", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, doc, plain = args.fn(args)
        if args.json:
            print(json.dumps({"command": args.command, **doc}))
        elif plain:
            print(plain, end="" if plain.endswith("\n") else "\n")
    except (ParseError, GraphError, OSError) as exc:
        print(f"tgr: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("tgr: out of memory", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
