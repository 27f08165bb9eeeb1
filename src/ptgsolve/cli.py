"""Command line front end.

Four subcommands: ``solve`` writes a solution JSON next to the input,
``verify`` re-checks a solution against its game by local optimality and
slope bounds, ``plot`` exports per-location CSV tables for plotting, and
``simulate`` replays the stored strategies against each other and against
seeded random opponents.

Exit codes: 0 success, 2 unreadable or invalid input, 3 reset cycle,
4 step budget exhausted, 5 verification or simulation failure.

Everything printed to stdout is deterministic for fixed inputs, flags and
seed; the elapsed-time line goes to stderr so output files and captured
stdout stay byte-identical across runs.  Opponent sampling in ``simulate``
uses ``random.Random(seed)``, Python's Mersenne Twister, which produces the
same draws on every platform.
"""

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .exactmath import (
    INF,
    NEG_INF,
    CostFunction,
    DomainError,
    evaluate,
    format_value,
    parse_value,
    slope_between,
)
from .model import (
    MAX,
    Game,
    GameSyntaxError,
    Region,
    ValidationError,
    check_sptg,
    parse_game,
)
from .solver import (
    BudgetExceeded,
    EmptyGame,
    NonSPTG,
    SweepTrace,
    solve,
)
from .strategy import (
    FPStrategy,
    IllegalMove,
    Move,
    RegionBellmanOracle,
    SwitchingStrategy,
    fp_to_json,
    play_out,
    switching_to_json,
)
from .regions import ResetCycle, solve_reset_acyclic, solving_regions
from .model import Config

MODE_SPTG = "sptg"
MODE_REGIONS = "reset-acyclic"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESET_CYCLE = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

PLAY_PRINT_CAP = 40


class SolutionFormatError(ValueError):
    """A values file does not follow the solution JSON shape."""


@dataclass
class RunReport:
    """What a subcommand did, printed after it finishes.

    Everything except ``elapsed`` is deterministic; the timing line is the
    only wall-clock reading and goes to stderr.
    """

    command: str
    inputs: list = field(default_factory=list)
    body: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    verdict: str = "ok"
    exit_code: int = EXIT_OK
    elapsed: float = 0.0

    def emit(self) -> None:
        print(f"command: {self.command}")
        for label, path, digest in self.inputs:
            print(f"{label}: {path} sha256={digest}")
        for line in self.body:
            print(line)
        for path in self.outputs:
            print(f"wrote: {path}")
        print(f"verdict: {self.verdict}")
        print(f"elapsed: {self.elapsed:.3f}s", file=sys.stderr)


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_game(path: str) -> Game:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GameSyntaxError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_game(text)


# ---------------------------------------------------------------------------
# Solution JSON: values are lists of segments per location. A segment is a
# maximal continuous piece of the value function; two consecutive segments
# share an endpoint and may disagree there, which is how one-sided limits at
# region borders are recorded. Finite segments carry their breakpoints, an
# infinite segment carries only a sign marker.


def _segment_to_json(seg: CostFunction) -> dict:
    head = {"from": format_value(seg.lo), "to": format_value(seg.hi)}
    floats = [v for v in seg.vals if isinstance(v, float)]
    if floats:
        sign = floats[0]
        assert all(v == sign for v in seg.vals) and all(
            p == sign for p in seg.pieces
        ), "solver segments never mix finite and infinite values"
        head["infinite"] = "inf" if sign > 0 else "-inf"
        return head
    head["points"] = [
        {"x": format_value(x), "v": format_value(v)} for x, v in zip(seg.xs, seg.vals)
    ]
    return head


def _values_to_json(values: dict) -> dict:
    out = {}
    for name in sorted(values):
        v = values[name]
        segs = (v,) if isinstance(v, CostFunction) else tuple(v)
        out[name] = [_segment_to_json(s) for s in segs]
    return out


def _trace_to_json(trace: SweepTrace) -> dict:
    windows = []
    for w in trace.windows:
        rej = None
        if w.rejection is not None:
            rej = {
                "x": format_value(w.rejection[0]),
                "locations": list(w.rejection[1]),
            }
        windows.append(
            {
                "start": format_value(w.start),
                "slope_breaks": [
                    {"x": format_value(x), "locations": list(names)}
                    for x, names in w.slope_breaks
                ],
                "rejection": rej,
            }
        )
    return {
        "boundaries": [format_value(b) for b in trace.boundaries],
        "windows": windows,
    }


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _segment_from_json(obj) -> CostFunction:
    try:
        lo = parse_value(obj["from"])
        hi = parse_value(obj["to"])
        if "infinite" in obj:
            marker = obj["infinite"]
            if marker not in ("inf", "-inf"):
                raise ValueError(f"bad infinity marker {marker!r}")
            v = INF if marker == "inf" else NEG_INF
            if lo == hi:
                return CostFunction.point(lo, v)
            return CostFunction.constant(lo, hi, v)
        pts = [(parse_value(p["x"]), parse_value(p["v"])) for p in obj["points"]]
        if any(isinstance(x, float) or isinstance(v, float) for x, v in pts):
            raise ValueError("breakpoints of a finite segment must be rational")
        if not pts or pts[0][0] != lo or pts[-1][0] != hi:
            raise ValueError("points do not span the declared interval")
        if len(pts) == 1:
            return CostFunction.point(pts[0][0], pts[0][1])
        return CostFunction.from_points(pts)
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise SolutionFormatError(f"bad value segment {obj!r}: {exc}") from exc


def _load_solution(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # as in model.parse_game
        raise SolutionFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SolutionFormatError(f"{path}: top level must be an object")
    try:
        mode = doc["mode"]
        raw_vals = doc["values"]
    except KeyError as exc:
        raise SolutionFormatError(f"{path}: missing field {exc}") from exc
    if mode not in (MODE_SPTG, MODE_REGIONS):
        raise SolutionFormatError(f"{path}: unknown mode {mode!r}")
    if not isinstance(raw_vals, dict):
        raise SolutionFormatError(f"{path}: values must be an object")
    values = {}
    for name, arr in raw_vals.items():
        if not isinstance(arr, list) or not arr:
            raise SolutionFormatError(f"{path}: {name}: expected a segment list")
        values[name] = [_segment_from_json(o) for o in arr]
    return {
        "mode": mode,
        "clock_bound": doc.get("clock_bound"),
        "values": values,
        "strategies": doc.get("strategies"),
    }


def _uniform_infinity(seg: CostFunction) -> Optional[float]:
    v = seg.vals[0]
    return v if isinstance(v, float) else None


# ---------------------------------------------------------------------------
# solve


def _default_out(input_path: str) -> str:
    return str(Path(input_path).with_suffix(".values.json"))


def _empty_game_values(g: Game, infinite: dict) -> dict:
    vals = {}
    for l in g.locations:
        if l.is_final:
            vals[l.name] = CostFunction.from_affine(0, g.clock_bound, l.final_cost)
        else:
            vals[l.name] = CostFunction.constant(0, g.clock_bound, infinite[l.name])
    return vals


def cmd_solve(args) -> RunReport:
    report = RunReport("solve", inputs=[("input", args.input, _sha256(args.input))])
    g = _read_game(args.input)
    mode = args.mode
    if mode == "auto":
        is_simple = g.clock_bound == 1 and check_sptg(g, 1)
        mode = MODE_SPTG if is_simple else MODE_REGIONS
    strategies = None
    trace = None
    if mode == MODE_SPTG:
        try:
            sol = solve(g, max_steps=args.max_steps)
            values = sol.values
            strategies = {
                "max": fp_to_json(g, sol.max_strategy),
                "min": switching_to_json(g, sol.min_strategy),
            }
            trace = _trace_to_json(sol.trace)
        except EmptyGame as exc:
            values = _empty_game_values(g, exc.infinite)
    else:
        rsol = solve_reset_acyclic(g, max_steps=args.max_steps)
        values = rsol.values
    doc = {
        "clock_bound": int(g.clock_bound),
        "mode": mode,
        "values": _values_to_json(values),
        "strategies": strategies,
        "trace": trace,
    }
    out = args.out if args.out else _default_out(args.input)
    Path(out).write_text(_dump_json(doc), encoding="utf-8")
    report.body.append(f"mode: {mode}")
    report.body.append(
        f"game: {len(g.locations)} locations, {len(g.transitions)} transitions"
    )
    if strategies is None:
        report.body.append("strategies: none")
    report.outputs.append(out)
    return report


# ---------------------------------------------------------------------------
# verify


def _slope_cap(g: Game) -> Fraction:
    cap = g.max_rate()
    for l in g.final_locations:
        cap = max(cap, abs(l.final_cost.slope))
    return cap


def _check_coverage(g: Game, values: dict, borders: Optional[set]) -> Optional[str]:
    """Witness that the document does not give each location of the game
    contiguous segments over [0, bound], or that one jumps off the borders;
    with borders None, jumps are not checked."""
    bound = g.clock_bound
    names = {l.name for l in g.locations}
    if set(values) != names:
        extra = sorted(set(values) - names)
        missing = sorted(names - set(values))
        return f"coverage: location sets differ (extra {extra}, missing {missing})"
    for name in sorted(values):
        segs = values[name]
        if segs[0].lo != 0 or segs[-1].hi != bound:
            return f"coverage: {name} does not span [0, {format_value(bound)}]"
        for a, b in zip(segs, segs[1:]):
            if b.lo != a.hi:
                return (
                    f"coverage: {name} has a gap at "
                    f"{format_value(a.hi)}..{format_value(b.lo)}"
                )
            if borders is not None and a.hi not in borders and evaluate(a, a.hi) != evaluate(b, b.lo):
                return f"continuity: {name} jumps inside a region at {format_value(a.hi)}"
    return None


def _check_finals(g: Game, values: dict) -> Optional[str]:
    for l in g.final_locations:
        for seg in values[l.name]:
            if _uniform_infinity(seg) is not None:
                return f"finals: {l.name} marked infinite"
            for x in seg.xs:
                if evaluate(seg, x) != l.final_cost(x):
                    return f"finals: {l.name} differs from its final cost at {format_value(x)}"
    return None


def _check_lipschitz(values: dict, cap: Fraction) -> Optional[str]:
    for name in sorted(values):
        for seg in values[name]:
            if _uniform_infinity(seg) is not None or seg.is_point:
                continue
            for a, b in zip(seg.xs, seg.xs[1:]):
                slope = slope_between(seg, a, b)
                if abs(slope) > cap:
                    return (
                        f"lipschitz: {name} has slope {format_value(slope)} on "
                        f"[{format_value(a)}, {format_value(b)}], cap {format_value(cap)}"
                    )
    return None


def _sample_points(g: Game, values: dict, grid: int, borders: set) -> list:
    pts = {Fraction(0), Fraction(g.clock_bound)}
    pts.update(borders)
    for segs in values.values():
        for seg in segs:
            pts.update(seg.xs)
    ordered = sorted(pts)
    pts.update((a + b) / 2 for a, b in zip(ordered, ordered[1:]))
    bound = Fraction(g.clock_bound)
    for k in range(1, grid + 1):
        pts.add(k * bound / (grid + 1))
    return sorted(pts)


def _region_values_from_segments(regions, segments: list) -> list:
    """Per-region closure values, rebuilt from stitched segments.

    Open regions take the first segment that spans their closure; its
    values at the borders are the one-sided limits because segments end
    exactly where the function jumps.  Point regions take the attained
    value: of the segments covering the point, the last point segment, or
    else the last one.  Both lists are walked once, in ascending order, so
    the segments must be contiguous, each starting where the previous one
    ends, as `_check_coverage` ensures.
    """
    out = []
    k, m = 0, len(segments)
    for reg in regions:
        # segments ending below the region cover neither it nor any later one
        end = reg.lo if reg.is_point else reg.hi
        while k < m and segments[k].hi < end:
            k += 1
        if reg.is_point:
            # from k on, every segment starting at or below the point covers it
            j = k
            while j < m and segments[j].lo <= reg.lo:
                j += 1
            cover = segments[k:j]
            if not cover:
                raise SolutionFormatError(f"no segment covers {format_value(reg.lo)}")
            points = [s for s in cover if s.is_point]
            seg = points[-1] if points else cover[-1]
            inf_v = _uniform_infinity(seg)
            out.append(inf_v if inf_v is not None else CostFunction.point(
                reg.lo, evaluate(seg, reg.lo)
            ))
            continue
        seg = segments[k] if k < m else None
        if seg is None or seg.lo > reg.lo:
            raise SolutionFormatError(
                f"no segment spans ({format_value(reg.lo)}, {format_value(reg.hi)})"
            )
        inf_v = _uniform_infinity(seg)
        out.append(inf_v if inf_v is not None else seg)
    return out


def cmd_verify(args) -> RunReport:
    report = RunReport(
        "verify",
        inputs=[
            ("game", args.game, _sha256(args.game)),
            ("values", args.values, _sha256(args.values)),
        ],
    )
    g = _read_game(args.game)
    sol = _load_solution(args.values)
    mode = sol["mode"]
    values = sol["values"]
    report.body.append(f"mode: {mode}")

    regions = solving_regions(g)
    if mode == MODE_REGIONS:
        borders = {reg.lo for reg in regions if reg.is_point}
        report.body.append(f"regions: {len(regions)}")
    else:
        borders = set()
        bad = sorted(n for n, segs in values.items() if len(segs) != 1)
        if bad:
            return _verify_fail(report, f"coverage: {bad[0]} split into segments in {MODE_SPTG} mode")

    witness = _check_coverage(g, values, borders)
    if witness:
        return _verify_fail(report, witness)
    report.body.append("check: coverage ok")

    witness = _check_finals(g, values)
    if witness:
        return _verify_fail(report, witness)
    report.body.append("check: finals ok")

    cap = _slope_cap(g)
    witness = _check_lipschitz(values, cap)
    if witness:
        return _verify_fail(report, witness)
    report.body.append(f"check: lipschitz ok (cap {format_value(cap)})")

    pts = _sample_points(g, values, args.grid, borders)
    region_vals = {
        name: _region_values_from_segments(regions, segs) for name, segs in values.items()
    }
    check = RegionBellmanOracle(g, regions, region_vals).check
    for nu in pts:
        bad = check(nu)
        if bad:
            return _verify_fail(
                report, f"bellman: {bad[0]} not locally optimal at {format_value(nu)}"
            )
    report.body.append(f"check: bellman ok ({len(pts)} points)")
    report.verdict = "pass"
    return report


def _verify_fail(report: RunReport, witness: str) -> RunReport:
    report.body.append(f"FAIL {witness}")
    report.verdict = "fail"
    report.exit_code = EXIT_VERIFY
    return report


# ---------------------------------------------------------------------------
# plot


def _decimal12(v: Fraction) -> str:
    from decimal import Decimal, localcontext, ROUND_HALF_EVEN

    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(v.numerator) / Decimal(v.denominator)
        return format(d.quantize(Decimal("1.000000000000"), rounding=ROUND_HALF_EVEN), "f")


def cmd_plot(args) -> RunReport:
    report = RunReport("plot", inputs=[("values", args.values, _sha256(args.values))])
    sol = _load_solution(args.values)
    for name in sol["values"]:
        # each name becomes a file in --csv, so it must not be a path
        if name in (".", "..") or any(c in name for c in "/\\\0"):
            raise SolutionFormatError(f"{args.values}: location {name!r} is not a plain file name")
    outdir = Path(args.csv)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in sorted(sol["values"]):
        rows = []
        for seg in sol["values"][name]:
            inf_v = _uniform_infinity(seg)
            if inf_v is not None:
                marker = "inf" if inf_v > 0 else "-inf"
                rows.append((format_value(seg.lo), marker, _decimal12(seg.lo), marker))
                if seg.hi != seg.lo:
                    rows.append((format_value(seg.hi), marker, _decimal12(seg.hi), marker))
            else:
                for x, v in zip(seg.xs, seg.vals):
                    rows.append(
                        (format_value(x), format_value(v), _decimal12(x), _decimal12(v))
                    )
        path = outdir / f"{name}.csv"
        lines = ["x,v,x_dec,v_dec"] + [",".join(r) for r in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report.outputs.append(str(path))
    return report


# ---------------------------------------------------------------------------
# simulate


def _move_from_json(obj, transition_count: int) -> Move:
    try:
        kind = obj["type"]
        idx = obj["t_index"]
    except (KeyError, TypeError) as exc:
        raise SolutionFormatError(f"bad move {obj!r}") from exc
    if isinstance(idx, bool) or not isinstance(idx, int):
        raise SolutionFormatError(f"move {obj!r}: transition index must be an integer")
    if not 0 <= idx < transition_count:
        raise SolutionFormatError(f"move {obj!r}: transition index out of range")
    if kind == "now":
        return Move.now(idx)
    if kind == "wait_until":
        target = parse_value(obj["target_x"])
        return Move.wait_until(target, idx)
    raise SolutionFormatError(f"move {obj!r}: unknown type")


def _fp_from_json(doc, transition_count: int) -> FPStrategy:
    rows = {}
    at_end = {}
    try:
        for name, entry in doc.items():
            rows[name] = [
                (
                    parse_value(r["interval"][0]),
                    parse_value(r["interval"][1]),
                    _move_from_json(r["move"], transition_count),
                )
                for r in entry["rows"]
            ]
            at_end[name] = _move_from_json(entry["at_end"], transition_count)
    except (KeyError, TypeError, ValueError) as exc:
        raise SolutionFormatError(f"bad positional strategy: {exc}") from exc
    return FPStrategy(rows, at_end)


def _switching_from_json(doc, transition_count: int) -> SwitchingStrategy:
    try:
        sigma1 = _fp_from_json(doc["sigma1"], transition_count)
        sigma2 = {
            name: _move_from_json(mv, transition_count).t_index
            for name, mv in doc["sigma2"].items()
        }
        threshold = parse_value(doc["threshold"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SolutionFormatError(f"bad switching strategy: {exc}") from exc
    if isinstance(threshold, float):
        raise SolutionFormatError("switching threshold must be rational")
    return SwitchingStrategy(sigma1, sigma2, threshold)


def _parse_start(text: str, g: Game) -> Config:
    name, sep, rest = text.rpartition(":")
    if not sep:
        raise ValidationError("start position", f"expected LOC:NU, got {text!r}")
    try:
        nu = parse_value(rest)
    except ValueError as exc:
        raise ValidationError("start position", f"bad valuation {rest!r}") from exc
    try:
        g.location(name)
    except KeyError as exc:
        raise ValidationError("start position", f"unknown location {name!r}") from exc
    if not 0 <= nu <= g.clock_bound:
        raise ValidationError("start position", f"{rest} outside [0, {g.clock_bound}]")
    return Config(name, nu)


def _random_max_fp(g: Game, rng: random.Random) -> FPStrategy:
    """A constant positional Max player: per location one random move.

    Candidates are firing any outgoing edge immediately or, for lazy
    locations whose guard admits the clock bound, waiting out the clock
    first.  Both are legal from every valuation, so random play never gets
    stuck on a guard.
    """
    bound = Fraction(g.clock_bound)
    rows = {}
    at_end = {}
    for l in g.locations:
        if l.is_final or l.owner != MAX:
            continue
        candidates = [Move.now(i) for i in g.outgoing(l.name)]
        if not l.urgent:
            for i in g.outgoing(l.name):
                if g.transitions[i].guard.contains(bound):
                    candidates.append(Move.wait_until(bound, i))
        move = rng.choice(candidates)
        rows[l.name] = [(Fraction(0), bound, move)]
        at_end[l.name] = Move.now(move.t_index)
    return FPStrategy(rows, at_end)


def _play_lines(g: Game, play) -> list:
    lines = []
    shown = play.steps[:PLAY_PRINT_CAP]
    for st in shown:
        t = g.transitions[st.t_index]
        lines.append(
            f"  {st.location} x={format_value(st.valuation)}"
            f" wait {format_value(st.wait)} fire t{st.t_index}"
            f" -> {t.target} (step cost {format_value(st.cost_delta)})"
        )
    if len(play.steps) > PLAY_PRINT_CAP:
        lines.append(f"  ... {len(play.steps) - PLAY_PRINT_CAP} more steps")
    if play.reached_final:
        lines.append(
            f"  final {play.final_location} x={format_value(play.final_valuation)}"
            f" cost {format_value(play.cost)}"
        )
    else:
        lines.append(f"  no final location reached, cost {format_value(play.cost)}")
    return lines


def cmd_simulate(args) -> RunReport:
    report = RunReport(
        "simulate",
        inputs=[
            ("game", args.game, _sha256(args.game)),
            ("values", args.values, _sha256(args.values)),
        ],
    )
    g = _read_game(args.game)
    sol = _load_solution(args.values)
    raw = sol["strategies"]
    if raw is None:
        raise SolutionFormatError("solution carries no strategies to simulate")
    n = len(g.transitions)
    try:
        max_fp = _fp_from_json(raw["max"], n)
        min_sw = _switching_from_json(raw["min"], n)
    except (KeyError, TypeError) as exc:
        raise SolutionFormatError(f"bad strategies object: {exc}") from exc
    start = _parse_start(args.start, g)
    # the reader walks contiguous segments; judging jumps is verify's work
    witness = _check_coverage(g, sol["values"], None)
    if witness:
        raise SolutionFormatError(witness)
    x = start.valuation
    (expected,) = _region_values_from_segments((Region(x, x),), sol["values"][start.location])
    if not isinstance(expected, float):
        expected = evaluate(expected, x)
    report.body.append(
        f"start: {start.location} x={format_value(start.valuation)}"
        f" value {format_value(expected)}"
    )

    failures = []
    try:
        play = play_out(g, start, min_sw, max_fp)
    except (IllegalMove, KeyError) as exc:
        raise SolutionFormatError(f"strategies do not fit the game: {exc}") from exc
    report.body.append("play: optimal-vs-optimal")
    report.body.extend(_play_lines(g, play))
    if play.cost == expected:
        report.body.append("check: cost equals value")
    else:
        failures.append(
            f"optimal-vs-optimal cost {format_value(play.cost)}"
            f" differs from value {format_value(expected)}"
        )
        report.body.append(f"FAIL {failures[-1]}")

    rng = random.Random(args.seed)
    for k in range(args.opponents):
        opponent = _random_max_fp(g, rng)
        try:
            play = play_out(g, start, min_sw, opponent)
        except (IllegalMove, KeyError) as exc:
            raise SolutionFormatError(f"strategies do not fit the game: {exc}") from exc
        report.body.append(f"play: vs random opponent {k + 1}")
        report.body.extend(_play_lines(g, play))
        if play.cost <= expected:
            report.body.append("check: cost within value")
        else:
            failures.append(
                f"opponent {k + 1} pushed cost to {format_value(play.cost)}"
                f" above value {format_value(expected)}"
            )
            report.body.append(f"FAIL {failures[-1]}")

    if failures:
        report.verdict = "fail"
        report.exit_code = EXIT_VERIFY
    else:
        report.verdict = "pass"
    return report


# ---------------------------------------------------------------------------
# entry point


def non_negative_int(text: str) -> int:
    """argparse type of the count flags; a bad value exits 2 with a message."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {n}")
    return n


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    It holds no command functions: `main` looks them up by name per call.
    """
    ap = argparse.ArgumentParser(
        prog="ptg",
        description="Exact solver for one-clock priced timed games.",
        epilog=(
            "PTG_THREADS caps the worker count; this build runs the"
            " per-component work on a single thread."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a game and write the solution JSON")
    sp.add_argument("input", help="game file")
    sp.add_argument("--out", help="output path (default: input with .values.json)")
    sp.add_argument(
        "--mode",
        choices=["auto", MODE_SPTG, MODE_REGIONS],
        default="auto",
        help="auto picks sptg for unguarded unit-bound games, else the region pipeline",
    )
    sp.add_argument(
        "--max-steps", type=non_negative_int, help="cap on sweep candidate evaluations"
    )

    vp = sub.add_parser("verify", help="re-check a solution against its game")
    vp.add_argument("game", help="game file")
    vp.add_argument("values", help="solution file written by solve")
    vp.add_argument(
        "--grid",
        type=non_negative_int,
        default=16,
        help="number of extra evenly spaced sample points (default 16)",
    )

    pp = sub.add_parser("plot", help="export per-location CSV tables")
    pp.add_argument("values", help="solution file written by solve")
    pp.add_argument("--csv", required=True, help="output directory for CSV files")

    mp = sub.add_parser("simulate", help="replay the stored strategies")
    mp.add_argument("game", help="game file")
    mp.add_argument("values", help="solution file written by solve")
    mp.add_argument(
        "--from",
        dest="start",
        required=True,
        metavar="LOC:NU",
        help="start location and clock valuation, e.g. l1:1/4",
    )
    mp.add_argument(
        "--opponents",
        type=non_negative_int,
        default=3,
        help="number of random Max opponents (default 3)",
    )
    mp.add_argument("--seed", type=int, default=0, help="opponent sampling seed")
    return ap


def _command(name: str):
    """The function of a subcommand, read from the module at call time."""
    return {
        "solve": cmd_solve,
        "verify": cmd_verify,
        "plot": cmd_plot,
        "simulate": cmd_simulate,
    }[name]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = os.environ.get("PTG_THREADS")
    if threads is not None:
        try:
            workers = int(threads)
        except ValueError:
            workers = 0
        if workers < 1:
            print("PTG_THREADS must be a positive integer", file=sys.stderr)
            return EXIT_INPUT
    started = time.monotonic()
    try:
        report = _command(args.command)(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GameSyntaxError, ValidationError, SolutionFormatError, NonSPTG) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResetCycle as exc:
        print(f"reset cycle: {exc}", file=sys.stderr)
        return EXIT_RESET_CYCLE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    report.elapsed = time.monotonic() - started
    report.emit()
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
