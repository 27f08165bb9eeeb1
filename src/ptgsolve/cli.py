"""Command line front end.

Four subcommands: ``solve`` writes a solution JSON next to the input from
the one `Solution` that either pipeline returns (``strategies: none``
when it has none), ``verify`` re-checks a solution against its game by
local optimality and slope bounds, ``plot`` exports per-location CSV
tables for plotting, and ``simulate`` replays the stored strategies
against each other and against seeded random opponents.  The solution
JSON, its reader and verify's checks are in :mod:`ptgsolve.document`;
this module parses the arguments, prints the reports and maps errors to
exit codes.

Exit codes: 0 success, 2 unreadable or invalid input, 3 reset cycle,
4 step budget exhausted, 5 verification or simulation failure, 6 internal
error (a broken invariant of the solver, reported in one line on stderr
with its phase, location and valuation; a fault of ptgsolve, not of the
input).

Everything printed to stdout is deterministic for fixed inputs, flags and
seed; the elapsed-time line goes to stderr so output files and captured
stdout stay byte-identical across runs.  Opponent sampling in ``simulate``
uses ``random.Random(seed)``, Python's Mersenne Twister, which produces the
same draws on every platform.
"""

import argparse
import functools
import hashlib
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import document
from .document import MODE_REGIONS, MODE_SPTG, SolutionFormatError
from .exactmath import format_value, parse_value
from .model import MAX, Config, Game, GameSyntaxError, InternalError, ValidationError, check_sptg, parse_game
from .regions import ResetCycle, solve_reset_acyclic
from .solver import BudgetExceeded, NonSPTG, solve
from .strategy import FPStrategy, IllegalMove, Move, play_out

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESET_CYCLE = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5
EXIT_INTERNAL = 6

PLAY_PRINT_CAP = 40


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


def _read(report: RunReport, label: str, path: str) -> bytes:
    """An input file's bytes, read once; the report lists their sha256, so
    the digest printed is that of what is parsed."""
    data = Path(path).read_bytes()
    report.inputs.append((label, path, hashlib.sha256(data).hexdigest()))
    return data


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> RunReport:
    report = RunReport("solve")
    g = parse_game(_read(report, "input", args.input))
    mode = args.mode
    if mode == "auto":
        mode = MODE_SPTG if check_sptg(g) else MODE_REGIONS
    sol = (solve if mode == MODE_SPTG else solve_reset_acyclic)(g, max_steps=args.max_steps)
    out = args.out if args.out else str(Path(args.input).with_suffix(".values.json"))
    # encoded before the file is opened: a failed encode truncates nothing
    Path(out).write_bytes(document.dumps(g, mode, sol).encode("utf-8"))
    report.body.append(f"mode: {mode}")
    report.body.append(
        f"game: {len(g.locations)} locations, {len(g.transitions)} transitions"
    )
    if sol.max_strategy is None:
        report.body.append("strategies: none")
    report.outputs.append(out)
    return report


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> RunReport:
    report = RunReport("verify")
    game = _read(report, "game", args.game)
    values = _read(report, "values", args.values)
    g = parse_game(game)
    doc = document.load(args.values, values, g)
    report.body.append(f"mode: {doc.mode}")
    lines, witness = document.verify(g, doc, args.grid)
    report.body.extend(lines)
    if witness:
        report.body.append(f"FAIL {witness}")
        report.verdict = "fail"
        report.exit_code = EXIT_VERIFY
    else:
        report.verdict = "pass"
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
    report = RunReport("plot")
    doc = document.load(args.values, _read(report, "values", args.values))
    for name in doc.values:
        # each name becomes a file in --csv, so it must not be a path
        if name in (".", "..") or any(c in name for c in "/\\\0"):
            raise SolutionFormatError(f"{args.values}: location {name!r} is not a plain file name")
    outdir = Path(args.csv)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in sorted(doc.values):
        rows = []
        for seg in doc.values[name]:
            inf_v = document.uniform_infinity(seg)
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
    report = RunReport("simulate")
    game = _read(report, "game", args.game)
    values = _read(report, "values", args.values)
    g = parse_game(game)
    doc = document.load(args.values, values, g)
    if doc.strategies is None:
        raise SolutionFormatError("solution carries no strategies to simulate")
    max_fp, min_sw = doc.strategies
    start = _parse_start(args.start, g)
    expected = document.value_at(g, doc, start.location, start.valuation)
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
        "--max-steps", type=non_negative_int, help="cap on the value-iteration runs of each sweep"
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
    except (OSError, GameSyntaxError, ValidationError, SolutionFormatError, NonSPTG) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResetCycle as exc:
        print(f"reset cycle: {exc}", file=sys.stderr)
        return EXIT_RESET_CYCLE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report.elapsed = time.monotonic() - started
    report.emit()
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
