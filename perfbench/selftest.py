#!/usr/bin/env python3
"""Self-test of the benchmark harness; run from the checkout root:

    python3 perfbench/selftest.py

1. A tiny-scale run of every workload, untraced and traced, is correct and
   prints exactly the metrics ``BENCHMARK.json`` lists, with their units.
2. Faults put into the program show as failed jobs: a plan with one op
   altered, and an oracle answer one op short.
3. Without the program's sources next to it, the benchmark exits non-zero
   and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = sorted(run.SETUPS)
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


@contextmanager
def patched(name: str, make):
    """Replace the tgr function ``name`` in every namespace that holds it."""
    saved = []
    for mod in [sys.modules["tgr"], *run.TGR_MODULES]:
        fn = getattr(mod, name, None)
        if fn is not None:
            saved.append((mod, fn))
            setattr(mod, name, make(fn))
    try:
        yield
    finally:
        for mod, fn in saved:
            setattr(mod, name, fn)


def one_op_altered(plan):
    def wrapper(g1, g2):
        out = plan(g1, g2)
        seq = getattr(out, "sequence", ())
        if seq:
            out = dataclasses.replace(out, sequence=(seq[0].inverse(),) + tuple(seq[1:]))
        return out
    return wrapper


def one_op_short(search):
    def wrapper(*args, **kwargs):
        out = search(*args, **kwargs)
        if out.status == "found" and out.sequence:
            out = dataclasses.replace(out, sequence=out.sequence[:-1])
        return out
    return wrapper


def main() -> int:
    run.load_tgr()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(sorted(w["name"] for w in spec["workloads"]) == WORKLOADS, "BENCHMARK.json lists the harness's workloads")

    for workload in WORKLOADS:
        for trace in (False, True):
            res = run.run_workload(workload, seed=1, seconds=0, trace=trace, tiny=True)
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            label = f"{workload} {'traced' if trace else 'untraced'}"
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{label}: tiny run is correct")
            check(units == expected[trace], f"{label}: prints exactly the listed metrics and units")
            if not trace:
                zero = [k for k, v in res["metrics"].items() if not v["value"] > 0]
                check(not zero, f"{label}: no end-to-end metric is 0 {zero or ''}")

    faults = (
        ("plan", one_op_altered, ["desk", "vc_hardness", "small_pairs", "oracle_path2"]),
        ("oracle_shortest_sequence", one_op_short, ["oracle_path2", "small_pairs"]),
    )
    for name, make, workloads in faults:
        with patched(name, make):
            for workload in workloads:
                res = run.run_workload(workload, seed=1, seconds=0, trace=False, tiny=True)
                check(res["failed"] > 0 and not res["correct"], f"{workload}: fault in {name} counts as failed")

    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    check(proc.returncode != 0 and not proc.stdout.strip(), "without src/ it exits non-zero and prints no result")

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
