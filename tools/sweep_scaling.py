"""Scaling rows of the sweep: value-iteration runs against breakpoints.

Usage, from the root of a checkout:

    python tools/sweep_scaling.py --label change [--src src] [--out BENCH_sweep.json]

Solves the tangent fan (``perfbench/gen.py``'s ``fan``, ``Random(1)``,
signs +,-,+) at k = 16, 64, 128 and 256, and the large-weight game below,
with ``solver.solve`` of the package under ``--src``, and writes one row
per game under ``rows[label]`` of the output file, keeping the other
labels there.  The rows are machine-independent counts:

- ``runs``: value-iteration runs of the whole solve (pruning, the sweep,
  the end values and the strategy cells);
- ``sweep_runs``: the sweep's share of them, its pruning solve included;
- ``accepted_points``: the points the sweep recorded;
- ``windows`` and ``rejections`` of the sweep's trace;
- ``breakpoints``: breakpoints of all finite value functions, summed;
- ``candidates``: candidate cutpoints listed, for a package that still
  lists them (``urgent.possible_cutpoints``), else 0.

Wall times, the best of ``--repeat`` solves in seconds, go under
``wall_s[label]`` and the interpreter and machine under
``machine[label]``; they depend on the host, the rows do not.
"""

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The large-weight game: weights and rates of 1e5 on a three-location
#: cycle, which makes the value window, and so the candidate grid, huge
#: while each value function is one line.
LARGE_WEIGHT = {
    "clock_bound": 1,
    "locations": [
        {"name": "a", "owner": "min", "rate": 100000, "urgent": False},
        {"name": "b", "owner": "max", "rate": -100000, "urgent": False},
        {"name": "c", "owner": "min", "rate": 3, "urgent": False},
        {"name": "F1", "owner": "final", "final_cost": {"slope": "100000", "intercept": "0"}},
        {"name": "F2", "owner": "final", "final_cost": {"slope": "-100000", "intercept": "7"}},
        {"name": "F3", "owner": "final", "final_cost": {"slope": "0", "intercept": "1"}},
    ],
    "transitions": [
        {"from": a, "to": b, "guard": {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True},
         "reset": False, "weight": w}
        for a, b, w in [
            ("a", "b", 100000), ("a", "F1", 100000), ("b", "c", 100000), ("b", "F2", -100000),
            ("c", "a", 1), ("c", "F3", 0), ("b", "a", 3),
        ]
    ],
}

FAN_KS = (16, 64, 128, 256)


def games() -> dict:
    import gen

    out = {f"fan-k{k}": gen._dumps(gen.fan(random.Random(1), k, (1, -1, 1))) for k in FAN_KS}
    out["large-weight"] = json.dumps(LARGE_WEIGHT)
    return out


def measure(text: str, repeat: int) -> tuple:
    """(counts, best wall time in seconds) of solving the game text."""
    from ptgsolve import solver, urgent
    from ptgsolve.model import parse_game

    counts = dict.fromkeys(("runs", "sweep_runs", "candidates"), 0)
    sweeps = []
    run, sweep = urgent.InstantEvaluator.run, solver.sweep
    inside = False
    lister = getattr(urgent, "possible_cutpoints", None)

    def counting_run(self, *args, **kwargs):
        counts["runs"] += 1
        counts["sweep_runs"] += inside
        return run(self, *args, **kwargs)

    def recording_sweep(*args, **kwargs):
        nonlocal inside
        inside = True
        try:
            sw = sweep(*args, **kwargs)
        finally:
            inside = False
        sweeps.append(sw)
        return sw

    def counting_lister(*args):
        grid = lister(*args)
        counts["candidates"] += len(grid)
        return grid

    g = parse_game(text)
    urgent.InstantEvaluator.run, solver.sweep = counting_run, recording_sweep
    if lister is not None:
        solver.possible_cutpoints = counting_lister
    try:
        solver.solve(g)
    finally:
        urgent.InstantEvaluator.run, solver.sweep = run, sweep
        if lister is not None:
            solver.possible_cutpoints = lister
    (sw,) = sweeps
    counts["accepted_points"] = len(sw.record)
    counts["windows"] = len(sw.trace.windows)
    counts["rejections"] = sum(w.rejection is not None for w in sw.trace.windows)
    counts["breakpoints"] = sum(len(f.xs) for f in sw.finite.values())
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        solver.solve(g)
        best = min(best, time.perf_counter() - start)
    return dict(sorted(counts.items())), round(best, 4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the key the rows go under, e.g. parent or change")
    ap.add_argument("--src", default=str(ROOT / "src"), help="the package's source directory")
    ap.add_argument("--out", default=str(ROOT / "BENCH_sweep.json"))
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    rows, walls = {}, {}
    for name, text in games().items():
        rows[name], walls[name] = measure(text, args.repeat)
        print(name, rows[name], f"{walls[name]} s", flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("rows", {})[args.label] = rows
    doc.setdefault("wall_s", {})[args.label] = walls
    doc.setdefault("machine", {})[args.label] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "repeat": args.repeat,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
