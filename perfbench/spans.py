"""Layer tracing from outside the program.

``Tracer.install`` replaces every public function of the ``tgr`` modules, in
every module namespace that holds it (``from ... import`` binds names early,
so patching only the defining module would miss most calls).  Coarse calls
become spans kept in memory; hot calls (``HOT``) only add to a count and a
summed time.  A span's self time is its duration minus its child spans and
the hot calls made directly inside it, so per layer the self times plus the
hot time add up to the traced job time; what the spans do not cover is
reported as the residual.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("formats", "core", "reachability", "changeability", "planner", "oracle", "hardness", "cli")
HOT = frozenset({"static_bridges", "static_connected", "apply_relabel", "is_valid_relabel", "is_crossing"})
# Summary keys that are ratios or maxima, not totals to divide per pass.
NON_ADDITIVE = frozenset({
    "core.validate.ops_per_s", "reachability.cross_hit_ratio", "reachability.plan_share",
    "changeability.max_level", "changeability.useful_cross_ratio", "planner.classify_share",
    "oracle.states_per_s", "hardness.reduction_m",
})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, child time]
        self.stack: list[int] = []
        self.hot: dict[tuple[str, str], list] = {}  # (calling namespace, "layer.func") -> [calls, seconds]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.root_s = 0.0  # time inside top-level spans and top-level hot calls
        self.hook_s = 0.0  # time the result hooks below spend inside traced jobs
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self, tgr_modules) -> None:
        for mod in tgr_modules:
            namespace = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("tgr."):
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                if fn.__name__ in HOT:
                    wrapper = self._hot_wrapper((namespace, name), fn)
                else:
                    wrapper = self._span_wrapper(name, fn)
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def _hot_wrapper(self, key, fn):
        stat = self.hot.setdefault(key, [0, 0.0])
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt
                else:
                    self.root_s += dt

        return wrapper

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        hook = _HOOKS.get(name)
        fill_counters = name == "reachability.compute_cross" and "counters" in inspect.signature(fn).parameters
        is_search = name.startswith("oracle.oracle_")  # the exhaustive searches

        def wrapper(*args, **kwargs):
            if fill_counters and len(args) < 2 and kwargs.get("counters") is None:
                kwargs["counters"] = {}
            before = self._oracle_bridge_calls() if is_search else 0
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
                else:
                    self.root_s += end - rec[1]
            if hook is not None or is_search:
                h0 = perf_counter()
                if is_search and args:
                    self.counts["oracle.states"] += (self._oracle_bridge_calls() - before) / args[0].lifetime
                if hook is not None:
                    try:
                        hook(self.counts, args, kwargs, result)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        pass  # the program's types changed; the counter stays unset
                dt = perf_counter() - h0
                self.hook_s += dt
                if parent >= 0:
                    spans[parent][4] += dt
                else:
                    self.root_s += dt
            return result

        return wrapper

    def _oracle_bridge_calls(self) -> int:
        return self.hot.get(("oracle", "core.static_bridges"), (0, 0.0))[0]

    # -- aggregation ------------------------------------------------------
    def summary(self) -> dict:
        """Totals over everything traced so far, keyed by metric name."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _, child in self.spans:
            total[name] += end - start
            self_s[name] += end - start - child
            calls[name] += 1
        layer_self = defaultdict(float)
        for name, s in self_s.items():
            layer_self[name.split(".")[0]] += s
        for (_, name), (_, secs) in self.hot.items():
            layer_self[name.split(".")[0]] += secs

        def hot(namespaces, name):
            c = s = 0
            for (ns, key), (n, secs) in self.hot.items():
                if key == name and ns in namespaces:
                    c, s = c + n, s + secs
            return c, s

        under_plan = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if name in ("changeability.classify", "reachability.compute_cross"):
                while parent >= 0 and self.spans[parent][0] != "planner.plan":
                    parent = self.spans[parent][3]
                if parent >= 0:
                    under_plan[name] += end - start

        all_ns = set(LAYERS)
        sb_calls, sb_s = hot(all_ns - {"oracle"}, "core.static_bridges")
        ar_calls, ar_s = hot(all_ns, "core.apply_relabel")
        _, osb_s = hot({"oracle"}, "core.static_bridges")
        c = self.counts
        plan_s = total["planner.plan"]
        oracle_s = sum(v for k, v in total.items() if k.startswith("oracle.oracle_"))
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "formats.parse_s": sum(v for k, v in total.items() if k.startswith("formats.parse_")),
            "formats.format_s": sum(v for k, v in total.items() if k.startswith("formats.format_")),
            "core.find_bridges.calls": calls["core.find_bridges"],
            "core.static_bridges.calls": sb_calls,
            "core.static_bridges_s": sb_s,
            "core.apply_relabel.calls": ar_calls,
            "core.apply_relabel_s": ar_s,
            "core.validate_sequence_s": total["core.validate_sequence"],
            "core.validate.ops_per_s": _ratio(c["core.validated_ops"], total["core.validate_sequence"]),
            "reachability.compute_cross.calls": calls["reachability.compute_cross"],
            "reachability.compute_cross_s": total["reachability.compute_cross"],
            "reachability.crossing_tests": c["reachability.crossing_tests"],
            "reachability.partition_visits": c["reachability.partition_visits"],
            "reachability.cross_hit_ratio": _ratio(c["reachability.cross_entries"], c["reachability.crossing_tests"]),
            "reachability.plan_share": _ratio(under_plan["reachability.compute_cross"], plan_s),
            "changeability.classify.calls": calls["changeability.classify"],
            "changeability.sweep_self_s": self_s["changeability.compute_change_table"],
            "changeability.levels_assigned": c["changeability.levels_assigned"],
            "changeability.max_level": c["changeability.max_level"],
            "changeability.enabling_ops": c["changeability.enabling_ops"],
            "changeability.useful_cross_ratio": _ratio(c["changeability.bridges_levelled"], c["reachability.cross_entries"]),
            "planner.phases": c["planner.phases"],
            "planner.classify_share": _ratio(under_plan["changeability.classify"], plan_s),
            "oracle.states_expanded": c["oracle.states"],
            "oracle.static_bridges_s": osb_s,
            "oracle.states_per_s": _ratio(c["oracle.states"], oracle_s),
            "hardness.build_reduction_s": total["hardness.build_reduction"],
            "hardness.cover_to_sequence_s": total["hardness.cover_to_sequence"],
            "hardness.reduction_m": c["hardness.reduction_m"],
            "trace.hook_s": self.hook_s,
            "trace.spans": len(self.spans),
        })
        return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return metric.rsplit(".", 1)[-1].split("_")[0] + "/s"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith(("_ratio", "_share")) else "count"


# Result hooks: work counters read off the arguments and results of a call.
def _compute_cross(c, args, kwargs, result):
    counters = kwargs.get("counters") or (args[1] if len(args) > 1 else {}) or {}
    c["reachability.crossing_tests"] += counters.get("crossing_tests", 0)
    c["reachability.partition_visits"] += counters.get("partition_visits", 0)
    c["reachability.cross_entries"] += sum(len(v) for v in result.values())


def _change_table(c, args, kwargs, result):
    c["changeability.levels_assigned"] += len(result.levels)
    c["changeability.bridges_levelled"] += len(result.back_refs)
    c["changeability.max_level"] = max(c["changeability.max_level"], result.max_level)


def _enabling(c, args, kwargs, result):
    c["changeability.enabling_ops"] += len(result)


def _plan(c, args, kwargs, result):
    c["planner.phases"] += getattr(result, "phases", 0)


def _validate(c, args, kwargs, result):
    c["core.validated_ops"] += len(args[1])


def _reduction(c, args, kwargs, result):
    c["hardness.reduction_m"] = max(c["hardness.reduction_m"], result.g1.m)


_HOOKS = {
    "reachability.compute_cross": _compute_cross,
    "changeability.compute_change_table": _change_table,
    "changeability.sequence_to_nonbridge": _enabling,
    "planner.plan": _plan,
    "core.validate_sequence": _validate,
    "hardness.build_reduction": _reduction,
}
