#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``tgr``.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``tgr`` is imported from ``src/``.  The
harness is single-process, single-thread and closed-loop: each job starts
when the previous one ends.  It generates the workload's inputs from
``--seed`` (``gen.py``), writes them to files under ``.bench_work/``, then
runs passes over the workload's input pairs while the next pass fits in
``--seconds`` (at least one full pass).  Every job's output is checked; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import re
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from os import getpid
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from calibrate import Calibration  # noqa: E402
from spans import NON_ADDITIVE, Tracer, unit  # noqa: E402

STAGES = ("check", "plan", "validate", "certify")
# Single-pair workloads: the heavy stage runs once per pass, and the cheap
# stages go round-robin for FILL seconds after it (at most the run's length)
# and again to the end of the run, so that every stage's samples spread over
# the whole run rather than one burst.
HEAVY = {"desk": "plan", "vc_hardness": "plan", "oracle_path2": "certify"}
FILL = {"desk": 1.5, "vc_hardness": 1.5, "oracle_path2": 4.0}

cli = formats = core = planner = oracle = None  # the tgr modules, bound by load_tgr()
TGR_MODULES: list = []


def load_tgr() -> None:
    """Import ``tgr`` from the checkout's ``src/``, never from elsewhere."""
    global cli, formats, core, planner, oracle
    src = ROOT / "src"
    if not (src / "tgr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tgr sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import tgr
    from tgr import changeability, cli, core, formats, hardness, oracle, planner, reachability

    if Path(tgr.__file__).resolve().parent != (src / "tgr").resolve():
        raise SystemExit(f"perfbench: imported tgr from {tgr.__file__}, not from {src}")
    TGR_MODULES[:] = [formats, core, reachability, changeability, planner, oracle, hardness, cli]


# ---------------------------------------------------------------------------
# Jobs and their checks.

class Stage:
    """One user step on one input pair: ``run`` is timed, ``check`` is not
    and returns why the output is wrong, or None."""

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


class Pair:
    """An input pair, what its outputs must be, and the stages run on it."""

    def __init__(self, n, lifetime, g1, g2):
        self.n, self.lifetime, self.g1, self.g2 = n, lifetime, g1, g2
        self.m = len(g1)
        self.stages: list[Stage] = []
        self.plan_len: int | None = None
        self.plan_text: str | None = None
        self.digests: dict[str, str] = {}
        self.verified: set[str] = set()

    def check_plan(self, what: str, text: str, names) -> str | None:
        """Same bytes as every earlier repetition, and a valid plan of at
        most 2*M^2 ops by the benchmark's own replay."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.digests.setdefault(what, digest)
        if digest != first:
            return f"{what}: output bytes differ between repetitions of the same input"
        ops = gen.parse_tgs(text, names)
        if what == "plan":
            self.plan_len = len(ops)
            if len(ops) > 2 * self.m * self.m:
                return f"plan of {len(ops)} ops exceeds 2*M^2 = {2 * self.m * self.m}"
        if digest not in self.verified:
            why = gen.sequence_problem(self.n, self.lifetime, self.g1, ops, self.g2)
            if why:
                return f"{what} does not replay: {why}"
            self.verified.add(digest)
        return None


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def expect(result, code, stdout) -> str | None:
    got_code, got_out, got_err = result
    if got_code != code or got_out != stdout:
        return f"expected exit {code} and {stdout!r}, got exit {got_code} and {got_out!r} {got_err.strip()!r}"
    return None


def cli_stages(pair: Pair, names, g1: Path, g2: Path, plan_path: Path) -> None:
    """check -> plan -o -> validate, through ``tgr.cli.main`` in-process."""
    def check_plan(res):
        code, out, err = res
        if code != 0 or not re.fullmatch(r"plan length \d+ phases \d+\n", out):
            return f"plan: exit {code}, stdout {out!r}, stderr {err.strip()!r}"
        why = pair.check_plan("plan", plan_path.read_text(encoding="utf-8"), names)
        if why is None and out.split()[2] != str(pair.plan_len):
            why = f"plan: reported length {out.split()[2]} but wrote {pair.plan_len} ops"
        return why

    pair.stages += [
        Stage("check", lambda: run_cli("check", "--g1", g1, "--g2", g2),
              lambda res: expect(res, 0, "feasible\n")),
        Stage("plan", lambda: run_cli("plan", "--g1", g1, "--g2", g2, "-o", plan_path), check_plan),
        Stage("validate", lambda: run_cli("validate", "--g1", g1, "--g2", g2, "--seq", plan_path),
              lambda res: expect(res, 0, f"valid length {pair.plan_len}\n")),
    ]


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Workloads.  Each setup writes its inputs under ``work`` and returns the
# pairs with their stages; it is deterministic in ``rng``.

def setup_desk(work: Path, rng, tiny: bool) -> list[Pair]:
    """A criterion-5 style pair, ``gen 300 10 300`` (M ~ 6k) plus 12 valid
    relabels of distinct pairs; certified by validating the generator's own
    walk.  Smaller than criterion 5's n=500 so that a run holds several
    plans.  The pair is drawn once; the seed renames its vertices, keeping
    their order, so every seed gives the program the same work."""
    n, lifetime, extra, moves = (30, 3, 30, 3) if tiny else (300, 10, 300, 12)
    names = gen.ordered_names(n, rng)
    shape = random.Random("desk:shape")
    e1 = gen.random_instance(n, lifetime, extra, shape)
    walk, e2 = gen.valid_walk(n, lifetime, e1, moves, shape, distinct_pairs=True)
    if len(walk) != moves:
        raise RuntimeError(f"desk walk found only {len(walk)} of {moves} relabels")
    g1 = write(work / "desk.g1.tg", gen.format_tg(names, lifetime, e1))
    g2 = write(work / "desk.g2.tg", gen.format_tg(names, lifetime, e2))
    witness = write(work / "desk.walk.tgs", gen.format_tgs(names, walk))
    pair = Pair(n, lifetime, e1, e2)
    cli_stages(pair, names, g1, g2, work / "desk.plan.tgs")
    pair.stages.append(Stage(
        "certify", lambda: run_cli("validate", "--g1", g1, "--g2", g2, "--seq", witness),
        lambda res: expect(res, 0, f"valid length {moves}\n")))
    return [pair]


def reduce_vc(work: Path, prefix: str, edges, k: int):
    """Write the edge list and run ``tgr reduce-vc`` on it (set-up step)."""
    graph = write(work / f"{prefix}.edgelist", "".join(f"{a} {b}\n" for a, b in edges))
    res = run_cli("reduce-vc", "--graph", graph, "--k", k, "--out-prefix", work / prefix)
    why = expect(res, 0, f"ell {2 * k + 4 * len(edges)}\n")
    if why:
        raise RuntimeError(f"reduce-vc: {why}")
    g1, g2 = work / f"{prefix}.g1.tg", work / f"{prefix}.g2.tg"
    names, lifetime, e1 = gen.parse_tg(g1.read_text(encoding="utf-8"))
    _, _, e2 = gen.parse_tg(g2.read_text(encoding="utf-8"))
    return Pair(len(names), lifetime, e1, e2), names, g1, g2


def setup_vc_hardness(work: Path, rng, tiny: bool) -> list[Pair]:
    """Reduction of a G(20, 28) without isolated vertices, k = the size of a
    greedy matching cover; certified by reduce-vc -> cover-seq -> validate
    of that cover's sequence (length exactly ell).  The graph and cover are
    drawn once; the seed renames the vertices, keeping their order, so every
    seed gives the program the same work."""
    nv, ne = (6, 6) if tiny else (20, 28)
    vertices = gen.ordered_names(nv, rng)
    shape = random.Random("vc_hardness:shape")
    edges = [(vertices[a], vertices[b]) for a, b in gen.gnm_without_isolated(nv, ne, shape)]
    cover = gen.greedy_matching_cover(edges, shape)
    k = len(cover)
    ell = 2 * k + 4 * ne
    pair, names, g1, g2 = reduce_vc(work, "vc", edges, k)
    cli_stages(pair, names, g1, g2, work / "vc.plan.tgs")
    graph, cert = work / "vc.edgelist", work / "cert"
    reference = g1.read_bytes()

    def certify():
        return [
            run_cli("reduce-vc", "--graph", graph, "--k", k, "--out-prefix", cert),
            run_cli("cover-seq", "--prefix", cert, "--cover", ",".join(cover), "-o", f"{cert}.tgs"),
            run_cli("validate", "--g1", f"{cert}.g1.tg", "--g2", f"{cert}.g2.tg", "--seq", f"{cert}.tgs"),
        ]

    def check_certify(res):
        for got, want in zip(res, (f"ell {ell}\n", f"length {ell}\n", f"valid length {ell}\n")):
            why = expect(got, 0, want)
            if why:
                return why
        if Path(f"{cert}.g1.tg").read_bytes() != reference:
            return "reduce-vc wrote different bytes for the same input"
        return pair.check_plan("cover", Path(f"{cert}.tgs").read_text(encoding="utf-8"), names)

    pair.stages.append(Stage("certify", certify, check_certify))
    return [pair]


def setup_oracle_path2(work: Path, rng, tiny: bool) -> list[Pair]:
    """Reduction of the 3-vertex path with k=1 (47 temporal edges); certified
    by ``tgr oracle``, whose shortest length must be 2*tau + 4|E| = 10.  The
    seed only renames the vertices, keeping their order, so every seed
    explores the same states."""
    nv = 2 if tiny else 3
    vertices = gen.ordered_names(nv, rng)
    edges = list(zip(vertices, vertices[1:]))
    want = 2 * gen.min_cover_size(vertices, edges) + 4 * len(edges)
    pair, names, g1, g2 = reduce_vc(work, "path", edges, 1)
    cli_stages(pair, names, g1, g2, work / "path.plan.tgs")
    pair.stages.append(Stage(
        "certify", lambda: run_cli("oracle", "--g1", g1, "--g2", g2),
        lambda res: expect(res, 0, f"found {want}\n")))
    return [pair]


def setup_small_pairs(work: Path, rng, tiny: bool) -> list[Pair]:
    """1,000 pairs from the criterion-3 distribution (n 2..50, T 1..5, 0..3
    extra pairs, 0..8 valid relabels, certified by their walk) plus 300
    label-shuffled pairs with n <= 5, T = 2 (certified by the benchmark's own
    exhaustive search, some infeasible); run through the library API.  Each
    parameter takes every value of its range equally often.  The pairs are
    drawn once; the seed sets their order and renames the vertices, keeping
    their order, so every seed gives the program the same work.

    The ``.tg`` texts stay in memory, as in a sweep that generates its
    instances: thousands of small file writes would make set-up time a
    measure of the file system."""
    n_walked, n_shuffled = (20, 10) if tiny else (1000, 300)
    shape = random.Random("small_pairs:shape")

    def balanced(lo, hi, count):
        values = [lo + i % (hi - lo + 1) for i in range(count)]
        shape.shuffle(values)
        return values

    specs = []
    for n, lifetime, extra, steps in zip(*(balanced(lo, hi, n_walked) for lo, hi in ((2, 50), (1, 5), (0, 3), (0, 8)))):
        e1 = gen.random_instance(n, lifetime, min(extra, n * (n - 1) // 2 - (n - 1)), shape)
        walk, e2 = gen.valid_walk(n, lifetime, e1, steps, shape)
        specs.append((n, lifetime, e1, e2, walk, None))
    for n in balanced(2, 5, n_shuffled):
        e2 = None
        while e2 is None:
            extra = shape.randint(0, max(0, min(n * (n - 1) // 2 - (n - 1), 6 - (n - 1))))
            e1 = gen.random_instance(n, 2, extra, shape)
            e2 = gen.shuffled_target(n, 2, e1, shape)
        specs.append((n, 2, e1, e2, None, gen.shortest_distance(n, 2, e1, e2)))
    rng.shuffle(specs)
    all_names = gen.ordered_names(max(spec[0] for spec in specs), rng)
    pairs = []
    for n, lifetime, e1, e2, walk, dist in specs:
        names = all_names[:n]
        g1, g2 = gen.format_tg(names, lifetime, e1), gen.format_tg(names, lifetime, e2)
        witness = gen.format_tgs(names, walk) if walk is not None else None
        pairs.append(library_pair(Pair(n, lifetime, e1, e2), names, g1, g2, witness, dist))
    return pairs


def library_pair(pair: Pair, names, g1: str, g2: str, witness: str | None, dist) -> Pair:
    feasible = witness is not None or dist is not None

    def load():
        return formats.parse_temporal_graph(g1), formats.parse_temporal_graph(g2)

    def check():
        return planner.feasible(*load())[0]

    def plan():
        a, b = load()
        out = planner.plan(a, b)
        pair.plan_text = formats.format_sequence(out.sequence, a) if isinstance(out, planner.Feasible) else None
        return pair.plan_text

    def check_plan(text):
        if (text is not None) != feasible:
            return f"plan verdict {text is not None}, expected {feasible}"
        if text is None:
            pair.plan_len = 0
            return None
        return pair.check_plan("plan", text, names)

    def validate():
        a, b = load()
        return core.validate_sequence(a, formats.parse_sequence(pair.plan_text, a), b)

    def check_report(rep, length):
        if not rep.ok or rep.length != length:
            return f"validate: {rep}, expected ok with length {length}"
        return None

    def certify():
        a, b = load()
        if witness is not None:
            return core.validate_sequence(a, formats.parse_sequence(witness, a), b)
        return oracle.oracle_shortest_sequence(a, b)

    def check_certify(out):
        if witness is not None:
            return check_report(out, len(gen.parse_tgs(witness, names)))
        if dist is None:
            return None if out.status == "unreachable" else f"oracle: {out.status}, expected unreachable"
        if out.status != "found" or len(out.sequence) != dist:
            return f"oracle: {out.status} {len(out.sequence or ())}, expected found {dist}"
        why = gen.sequence_problem(pair.n, pair.lifetime, pair.g1, [tuple(op) for op in out.sequence], pair.g2)
        return f"oracle sequence does not replay: {why}" if why else None

    pair.stages = [
        Stage("check", check, lambda ok: None if ok == feasible else f"check said {ok}, expected {feasible}"),
        Stage("plan", plan, check_plan),
    ]
    if feasible:
        pair.stages.append(Stage("validate", validate, lambda rep: check_report(rep, pair.plan_len)))
    pair.stages.append(Stage("certify", certify, check_certify))
    return pair


SETUPS = {
    "desk": setup_desk,
    "vc_hardness": setup_vc_hardness,
    "small_pairs": setup_small_pairs,
    "oracle_path2": setup_oracle_path2,
}


# ---------------------------------------------------------------------------
# The measured loop.

class Tally:
    def __init__(self, cal: Calibration | None = None):
        self.cal = cal
        self.attempted = 0
        self.failed = 0
        self.samples = {s: [] for s in STAGES}
        self.pipeline: list[float] = []  # plan + validate seconds per pair

    def job(self, stage: Stage) -> float:
        """Run one stage job, check it, and return its wall time."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = stage.run()
        except Exception:  # a crash in the program is a failed job, not a harness error
            dt = perf_counter() - t0
            why = traceback.format_exc()
        else:
            dt = perf_counter() - t0
            try:
                why = stage.check(result)
            except Exception:
                why = traceback.format_exc()
        if why:
            self.failed += 1
            print(f"perfbench: {stage.name} failed: {why}", file=sys.stderr)
        if self.cal:
            self.cal.maybe()
        return dt


def measure(pairs, seconds: float, tally: Tally) -> None:
    """Passes over all pairs, in their seeded order, until ``seconds`` have
    passed and at least one whole pass is done; each pair's plan + validate
    time is one pipeline sample."""
    deadline = perf_counter() + seconds
    done = False
    while not done:
        gc.collect()
        for pair in pairs:
            times = {stage.name: tally.job(stage) for stage in pair.stages}
            for name, dt in times.items():
                tally.samples[name].append(dt)
            tally.pipeline.append(times["plan"] + times.get("validate", 0.0))
            if len(tally.pipeline) >= len(pairs) and perf_counter() >= deadline:
                done = True
                break


def measure_single(pair: Pair, seconds: float, heavy: str, fill: float, tally: Tally) -> None:
    """Passes of the heavy stage once, then the cheap stages round-robin for
    ``fill`` seconds, while the next pass fits in ``seconds`` (at least one);
    then cheap stages to the end of the run.  When no stage depends on the
    heavy one, cheap stages also open the run.  Each stretch with plan and
    validate samples gives one pipeline sample, the sum of their medians."""
    cheap = [stage for stage in pair.stages if stage.name != heavy]
    (main,) = [stage for stage in pair.stages if stage.name == heavy]
    plans, validates = tally.samples["plan"], tally.samples["validate"]
    marks = [(0, 0)]

    def rounds(until: float) -> None:
        while True:
            for stage in cheap:
                tally.samples[stage.name].append(tally.job(stage))
            if perf_counter() >= until:
                break
        marks.append((len(plans), len(validates)))

    start = perf_counter()
    deadline = start + seconds
    fill = min(fill, seconds)
    if main is pair.stages[-1]:
        rounds(start + fill)
    longest = 0.0
    while not tally.samples[heavy] or perf_counter() + longest <= deadline:
        t0 = perf_counter()
        gc.collect()
        tally.samples[heavy].append(tally.job(main))
        rounds(perf_counter() + fill)
        longest = max(longest, perf_counter() - t0)
    if perf_counter() < deadline:
        rounds(deadline)
    for (p0, v0), (p1, v1) in zip(marks, marks[1:]):
        if p1 > p0 and v1 > v0:
            tally.pipeline.append(statistics.median(plans[p0:p1]) + statistics.median(validates[v0:v1]))


def measure_traced(pairs, seconds: float, tally: Tally, tracer: Tracer) -> dict:
    """Whole passes, each stage job once untraced and once traced; per-layer
    totals per pass, plus the tracing overhead and the unaccounted residual."""
    start = perf_counter()
    passes = 0
    plain = traced = longest = 0.0
    while not passes or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        gc.collect()
        for pair in pairs:
            for stage in pair.stages:
                plain += tally.job(stage)
                tracer.install(TGR_MODULES)
                try:
                    traced += tally.job(stage)
                finally:
                    tracer.uninstall()
        passes += 1
        longest = max(longest, perf_counter() - t0)
    out = tracer.summary()
    out = {k: v if k in NON_ADDITIVE else v / passes for k, v in out.items()}
    out["trace.wall_s"] = traced / passes
    out["trace.overhead_s"] = (traced - plain) / passes
    out["trace.residual_s"] = (traced - tracer.root_s) / passes
    return out


def percentile(xs, q: float) -> float:
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_digest(work: Path, pairs) -> str:
    """Digest of the files written and of the pairs' reference graphs."""
    h = hashlib.sha256()
    for path in sorted(work.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    for pair in pairs:
        h.update(repr((pair.n, pair.lifetime, sorted(pair.g1), sorted(pair.g2))).encode())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # untraced runs scale their timings by a reference job run between jobs
    cal = None if trace else Calibration(every=0.5)
    tally = Tally(cal)
    try:
        setup_times, digests = [], set()
        if cal:
            cal.sample()
        # set up at least three times, and for cheap set-ups until 1 s is spent
        while len(setup_times) < (1 if trace else 3) or (
                not trace and sum(setup_times) < 1.0 and len(setup_times) < 200):
            t0 = perf_counter()
            pairs = SETUPS[workload](work, random.Random(f"{workload}:{seed}"), tiny)
            setup_times.append(perf_counter() - t0)
            digests.add(setup_digest(work, pairs))
            if cal:
                cal.maybe()
        # keep the harness's own objects out of the program's garbage collections
        gc.collect()
        gc.freeze()
        tally.attempted += len(setup_times)
        if len(digests) != 1:
            tally.failed += 1
            print("perfbench: set-up made different inputs from the same seed", file=sys.stderr)
        if trace:
            metrics = {k: (v, unit(k)) for k, v in measure_traced(pairs, seconds, tally, Tracer()).items()}
        else:
            if workload in HEAVY:
                (pair,) = pairs
                measure_single(pair, seconds, HEAVY[workload], FILL[workload], tally)
            else:
                measure(pairs, seconds, tally)
            cal.sample()
            k = cal.scale()
            print(f"perfbench: timings scaled by {k:.4f}, the reference job's middle mean "
                  f"{cal.middle() * 1000:.2f} ms over {len(cal.samples)} samples; samples: "
                  + ", ".join(f"{name} {len(tally.samples[name])}" for name in STAGES)
                  + f", pipeline {len(tally.pipeline)}, set-up {len(setup_times)}",
                  file=sys.stderr)
            pipeline = [k * t for t in tally.pipeline]
            metrics = {
                "setup_s": (k * statistics.median(setup_times), "s"),
                **{f"{s}_s": (k * statistics.median(tally.samples[s]), "s") for s in STAGES},
                "pairs_per_s": (len(pipeline) / sum(pipeline), "1/s"),
                "pair_ms.p50": (1000 * percentile(pipeline, 0.50), "ms"),
                "pair_ms.p99": (1000 * percentile(pipeline, 0.99), "ms"),
                "plan_ops": (sum(p.plan_len or 0 for p in pairs), "count"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_tgr()
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
