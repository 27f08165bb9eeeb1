"""In-memory spans around the public entry points of each ptgsolve module.

The wrapped entry points live in one table, ``ENTRY_POINTS``.  Installing
the tracer replaces each one by a wrapper and also rebinds every
``ptgsolve`` module global that still refers to the original, so calls
through ``from .exactmath import concat`` style imports are seen too.  An
entry point the program no longer has is reported as absent instead of
stopping the benchmark, so renaming or splitting a function only blanks
its own rows.

A span is (name, start, end, parent, operation); spans stay in memory
until ``Tracer.summary`` folds them into per-layer totals.  Self time is
a span's duration minus the durations of its direct children.
"""

import sys
import time
from array import array

#: (span name, module, attribute path) of every wrapped entry point.
ENTRY_POINTS = (
    ("cli.solve", "ptgsolve.cli", "cmd_solve"),
    ("cli.verify", "ptgsolve.cli", "cmd_verify"),
    ("model.parse_game", "ptgsolve.model", "parse_game"),
    ("solver.solve", "ptgsolve.solver", "solve"),
    ("solver.prune_infinite", "ptgsolve.solver", "prune_infinite"),
    ("solver.synthesize", "ptgsolve.solver", "_synthesize"),
    ("regions.build_region_game", "ptgsolve.regions", "build_region_game"),
    ("regions.check_reset_acyclic", "ptgsolve.regions", "check_reset_acyclic"),
    ("regions.solve_reset_acyclic", "ptgsolve.regions", "solve_reset_acyclic"),
    ("urgent.run", "ptgsolve.urgent", "InstantEvaluator.run"),
    ("urgent.possible_cutpoints", "ptgsolve.urgent", "possible_cutpoints"),
    ("urgent.solve_instant", "ptgsolve.urgent", "solve_instant"),
    ("exactmath.cost_function", "ptgsolve.exactmath", "CostFunction.__post_init__"),
    ("exactmath.concat", "ptgsolve.exactmath", "concat"),
    ("exactmath.evaluate", "ptgsolve.exactmath", "evaluate"),
    ("strategy.bellman_check", "ptgsolve.strategy", "bellman_check"),
    ("strategy.region_bellman_check", "ptgsolve.strategy", "region_bellman_check"),
)


def _value_bits(values) -> tuple:
    """(breakpoints, largest denominator bit length) of a values mapping."""
    points = 0
    bits = 0
    for v in values.values():
        for seg in (v,) if hasattr(v, "xs") else v:
            points += len(seg.xs)
            for q in (*seg.xs, *seg.vals):
                if not isinstance(q, float):
                    bits = max(bits, q.denominator.bit_length())
    return points, bits


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.names = [name for name, _, _ in ENTRY_POINTS]
        self.absent = set()
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self._undo = []
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_outer = array("b")
        self.counters = {
            "urgent.rounds": 0,
            "urgent.candidates": 0,
            "urgent.rounds_max_ratio": 0.0,
            "solver.windows": 0,
            "solver.rejections": 0,
            "regions.components.point": 0,
            "regions.components.open": 0,
            "regions.components.final": 0,
            "output.breakpoints": 0,
            "output.max_denominator_bits": 0,
        }
        #: operation id stamped on new spans; the caller advances it
        self.op = -1
        self._stack = []
        self._depth = [0] * len(self.names)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for name, modname, path in ENTRY_POINTS:
            module = sys.modules.get(modname)
            owner = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(self._name_id[name], original, _OBSERVERS.get(name))
            self._rebind(owner, parts[-1], original, wrapper)
            if len(parts) == 1:
                for other in list(sys.modules.values()):
                    if other is module or not getattr(other, "__name__", "").startswith("ptgsolve"):
                        continue
                    for attr, val in list(vars(other).items()):
                        if val is original:
                            self._rebind(other, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, nid: int, fn, observe):
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            depth = tracer._depth
            idx = len(tracer.s_name)
            tracer.s_name.append(nid)
            tracer.s_parent.append(stack[-1] if stack else -1)
            tracer.s_op.append(tracer.op)
            tracer.s_outer.append(depth[nid] == 0)
            tracer.s_end.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            tracer.s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.s_end[idx] = clock()
                stack.pop()
                depth[nid] -= 1
            if observe is not None:
                try:
                    observe(tracer, args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.absent.add(f"{tracer.names[nid]} counters")
            return result

        return wrapper

    # -- aggregation ---------------------------------------------------

    def inside(self, name: str) -> bool:
        """Is a span of this name open right now?"""
        return self._depth[self._name_id[name]] > 0

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice.
        """
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.s_name)
        for i in range(len(self.s_name)):
            d = self.s_end[i] - self.s_start[i]
            p = self.s_parent[i]
            if p >= 0:
                child[p] += d
        selft = [0.0] * n
        for i in range(len(self.s_name)):
            nid = self.s_name[i]
            d = self.s_end[i] - self.s_start[i]
            calls[nid] += 1
            if self.s_outer[i]:
                total[nid] += d
            selft[nid] += d - child[i]
        return {
            name: {"calls": calls[i], "s": total[i], "self_s": selft[i]}
            for i, name in enumerate(self.names)
        }

    def nested_calls(self, name: str, within: str) -> int:
        """Spans called `name` that have a `within` span among their ancestors."""
        nid, outer = self._name_id[name], self._name_id[within]
        count = 0
        for i in range(len(self.s_name)):
            if self.s_name[i] != nid:
                continue
            p = self.s_parent[i]
            while p >= 0 and self.s_name[p] != outer:
                p = self.s_parent[p]
            count += p >= 0
        return count

    @property
    def span_count(self) -> int:
        return len(self.s_name)


def _observe_run(tr, args, result):
    rounds = result[2]
    tr.counters["urgent.rounds"] += rounds
    ratio = rounds / args[0].bound
    if ratio > tr.counters["urgent.rounds_max_ratio"]:
        tr.counters["urgent.rounds_max_ratio"] = ratio


def _observe_cutpoints(tr, args, result):
    tr.counters["urgent.candidates"] += len(result)


def _observe_solve(tr, args, result):
    trace = result.trace
    tr.counters["solver.windows"] += len(trace.windows)
    tr.counters["solver.rejections"] += sum(w.rejection is not None for w in trace.windows)
    if not tr.inside("regions.solve_reset_acyclic"):
        _observe_output(tr, result.values)


def _observe_regions(tr, args, result):
    _observe_output(tr, result.values)


def _observe_output(tr, values):
    points, bits = _value_bits(values)
    tr.counters["output.breakpoints"] += points
    if bits > tr.counters["output.max_denominator_bits"]:
        tr.counters["output.max_denominator_bits"] = bits


def _observe_dag(tr, args, result):
    base = result.rgame.base
    regions = result.rgame.regions
    for comp in result.components:
        if len(comp) == 1 and base.location(comp[0][0]).is_final:
            kind = "final"
        elif regions[comp[0][1]].is_point:
            kind = "point"
        else:
            kind = "open"
        tr.counters[f"regions.components.{kind}"] += 1


_OBSERVERS = {
    "urgent.run": _observe_run,
    "urgent.possible_cutpoints": _observe_cutpoints,
    "solver.solve": _observe_solve,
    "regions.solve_reset_acyclic": _observe_regions,
    "regions.check_reset_acyclic": _observe_dag,
}
