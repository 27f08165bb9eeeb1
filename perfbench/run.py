"""End-to-end benchmark of ``ptg solve`` and ``ptg verify``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fan --seed 1 --seconds 55 --trace 0

One process, one client, closed loop, no threads.  Setup imports
``ptgsolve`` from ``src/`` of the checkout, generates the workload's games
from the seed and writes them under ``.perfbench_work/``.  The loop then
calls ``ptgsolve.cli.main(["solve", ...])`` and ``main(["verify", ...,
"--grid", "16"])`` on each game in turn, in passes over all of the
workload's games, until ``--seconds`` have passed and every game has run.
A game's solve and verify times are the fastest of its passes: the passes
are seconds apart, so a burst of contention on a shared host slows one
pass, not all.

Every operation is checked, on every pass.  One fails when its exit code
differs from the game's expected code, when ``verify`` does not say
``pass``, when an exception escapes ``main``, or when a known answer is
not met: the fan's ``pick`` must equal the lower envelope of its finals
exactly, and fig1's document must equal ``fixtures/fig1.values.json``
byte for byte.  Failed operations are counted, never filtered: on
``guarded`` they include the verify failures of the region pipeline's
stitched documents.  ``correct`` is false when a check with an answer
known independently of the solver fails: a known answer, a fixture's
expected outcome, or an exception.  ``attempted`` and ``failed`` count
each distinct operation (a game's solve, or its verify) once, so they
depend on the seed alone; a repeat whose outcome differs from the first
is a failure of its own and makes ``correct`` false.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
over fresh interpreters, started between games across the run, that each
import, generate and write the workload, timed from spawn to the point
where the first operation would start.
``--trace 1`` alternates untraced and traced passes over the fixtures and
the first blocks and prints per-layer metrics per game, from spans
recorded around each module's entry points (see ``spans.py``), plus the
tracing slowdown between the two kinds of pass; an untraced run measures
that slowdown on the fixtures and one block after its timed loop.  The
last stdout line is the JSON result; the machine, sizes and sample counts
precede it and go, with every failure, to ``.perfbench_work/results/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3
VERIFY_GRID = "16"


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.

    ``blocks`` blocks of distinct games are generated, sized so that one
    pass over them takes 5-8 s on a 2-vCPU host and a 55 s run makes seven
    to ten passes.  ``tail`` is the solve/verify percentile reported
    as ``_tail``: the highest one with at least ten of the workload's games
    beyond it.  Traced runs use the fixtures and the first ``trace_blocks``
    blocks.
    """

    blocks: int
    trace_blocks: int
    tail: int


SPECS = {
    "fan": Spec(blocks=8, trace_blocks=2, tail=75),  # 40 games
    "sptg-mix": Spec(blocks=7, trace_blocks=2, tail=90),  # 101 games
    "guarded": Spec(blocks=16, trace_blocks=2, tail=96),  # 258 games, 257 verified
}

E2E_UNITS = {
    "setup_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "verify_ms_p50": "ms",
    "verify_ms_tail": "ms",
    "games_per_s": "1/s",
    "peak_rss_mb": "MB",
}


COUNT = "count/game"
MS = "ms/game"

#: Per-layer metrics of a traced run, per game solved and verified.
LAYER_UNITS = {
    "exactmath.cost_function.builds": COUNT,
    "exactmath.cost_function.ms": MS,
    "exactmath.concat.calls": COUNT,
    "exactmath.concat.ms": MS,
    "exactmath.evaluate.calls": COUNT,
    "exactmath.evaluate.ms": MS,
    "urgent.run.calls": COUNT,
    "urgent.run.ms": MS,
    "urgent.rounds": COUNT,
    "urgent.rounds_max_ratio": "ratio",
    "urgent.possible_cutpoints.ms": MS,
    "urgent.candidates": COUNT,
    "urgent.solve_instant.calls": COUNT,
    "urgent.solve_instant.ms": MS,
    "output.breakpoints": COUNT,
    "output.max_denominator_bits": "bits",
    "urgent.evals_per_breakpoint": "ratio",
    "solver.solve.calls": COUNT,
    "solver.solve.ms": MS,
    "solver.solve.self_ms": MS,
    "solver.prune_infinite.ms": MS,
    "solver.synthesize.ms": MS,
    "solver.windows": COUNT,
    "solver.rejections": COUNT,
    "regions.build_region_game.ms": MS,
    "regions.check_reset_acyclic.ms": MS,
    "regions.components.point": COUNT,
    "regions.components.open": COUNT,
    "regions.components.final": COUNT,
    "regions.inner_sweeps": COUNT,
    "regions.solve_reset_acyclic.self_ms": MS,
    "strategy.bellman_check.calls": COUNT,
    "strategy.bellman_check.ms": MS,
    "strategy.region_bellman_check.calls": COUNT,
    "strategy.region_bellman_check.ms": MS,
    "model.parse_game.ms": MS,
    "cli.solve.self_ms": MS,
    "cli.verify.self_ms": MS,
    "trace.slowdown": "ratio",
}


# ---------------------------------------------------------------------------
# setup


@dataclass
class Job:
    case: gen.Case
    game: Path
    out: Path
    reference: bytes = b""


def load_program():
    """``ptgsolve.cli.main`` from this checkout's ``src/``, never another copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ptgsolve.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ptgsolve from {src}: {exc}")
    where = Path(ptgsolve.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"perfbench: imported ptgsolve from {where}, not from {src}")
    return ptgsolve.cli.main


def setup(workload: str, seed: int, workdir: Path) -> tuple:
    """Import the program, generate the workload and write its game files."""
    main = load_program()
    fixtures = ROOT / "fixtures"
    per, cases = gen.workload(workload, seed, SPECS[workload].blocks, fixtures)
    workdir.mkdir(parents=True)
    jobs = []
    for c in cases:
        job = Job(c, workdir / f"{c.name}.json", workdir / f"{c.name}.values.json")
        job.game.write_text(c.text, encoding="utf-8")
        if c.reference:
            job.reference = (fixtures / c.reference).read_bytes()
        jobs.append(job)
    return main, per, jobs


def setup_probe(args, i: int) -> float:
    """Set-up time of a fresh interpreter, from spawn to ready to time."""
    probe_dir = WORK / f"probe-{os.getpid()}-{i}"
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(probe_dir),
    ]
    try:
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - t0


# ---------------------------------------------------------------------------
# one game


@dataclass
class Record:
    """Timings of the operations of one phase of a run, per game."""

    solve_s: dict = field(default_factory=dict)
    verify_s: dict = field(default_factory=dict)
    games: int = 0
    busy_s: float = 0.0

    def time(self, op: str, job: Job, elapsed: float) -> None:
        getattr(self, f"{op}_s").setdefault(job.case.name, []).append(elapsed)
        self.busy_s += elapsed


@dataclass
class Ledger:
    """Outcomes of the distinct operations of a run.

    Each operation, a game's solve or its verify, is counted the first time
    it runs, so ``attempted`` and ``failed`` follow from the seed and not
    from how many passes the machine's speed allowed.  A repeat must pass
    or fail as the first run did; one that does not is counted as a failure
    of its own, with an answer known to be wrong.
    """

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    failures: dict = field(default_factory=dict)
    passed: dict = field(default_factory=dict)

    def outcome(self, job: Job, op: str, why: str = "", known: bool = False) -> None:
        what = f"{op} {job.case.name}"
        first = self.passed.get(what)
        if first is None:
            self.passed[what] = not why
        elif first == (not why):
            return
        else:
            what, why = f"{what} (repeat)", f"outcome changed on a repeat: {why or 'pass'}"
            known = True
        self.attempted += 1
        if why:
            self.failed += 1
            self.incorrect += known
            self.failures.setdefault(what, why)


def _call(main, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # an escaping exception is a failed operation
            code, crash = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed, crash


def _fan_mismatch(job: Job) -> str:
    """Compare ``pick`` with min_i(-i*x + i(i-1)/(2k)), breakpoints {i/k}."""
    k = job.case.fan_k
    try:
        segs = json.loads(job.out.read_text(encoding="utf-8"))["values"]["pick"]
        pts = [(Fraction(p["x"]), Fraction(p["v"])) for p in segs[0]["points"]]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"no finite values for pick: {exc!r}"
    if len(segs) != 1:
        return "pick is split into segments"
    want_x = [Fraction(i, k) for i in range(k + 1)]
    if [x for x, _ in pts] != want_x:
        return f"pick breakpoints {[str(x) for x, _ in pts]} are not i/{k}"
    for x, v in pts:
        envelope = min(gen.fan_line(k, i, x) for i in range(1, k + 1))
        if v != envelope:
            return f"pick({x}) = {v}, envelope gives {envelope}"
    return ""


def run_game(main, job: Job, rec: Record, ledger: Ledger, tracer=None) -> None:
    """Solve then verify one game, timing both and checking every answer."""
    c = job.case
    if tracer is not None:
        tracer.op += 1
    code, _, elapsed, crash = _call(main, ["solve", str(job.game), "--out", str(job.out)])
    rec.games += 1
    rec.time("solve", job, elapsed)
    if crash or code != c.solve_exit:
        ledger.outcome(job, "solve", crash or f"exit {code}, expected {c.solve_exit}", bool(crash) or c.fixture)
        return
    wrong = ""
    if c.fan_k is not None:
        wrong = _fan_mismatch(job)
    elif c.reference and job.out.read_bytes() != job.reference:
        wrong = f"document differs from {c.reference}"
    ledger.outcome(job, "solve", wrong and f"known answer: {wrong}", True)
    if c.verify:
        if tracer is not None:
            tracer.op += 1
        argv = ["verify", str(job.game), str(job.out), "--grid", VERIFY_GRID]
        code, out, elapsed, crash = _call(main, argv)
        rec.time("verify", job, elapsed)
        why = ""
        if crash or code != 0 or "verdict: pass" not in out:
            why = crash or next((l for l in out.splitlines() if l.startswith("FAIL")), f"exit {code}")
        ledger.outcome(job, "verify", why, bool(crash) or c.fixture)


def run_passes(main, jobs: list, rec: Record, ledger: Ledger, between, done) -> float:
    """Passes over the jobs until ``done()``, checked after each game once
    every job has run; ``between()`` after each game.  Returns the passes made."""
    games = 0
    while True:
        for job in jobs:
            run_game(main, job, rec, ledger)
            games += 1
            between()
            if games >= len(jobs) and done():
                return games / len(jobs)


# ---------------------------------------------------------------------------
# metrics


def percentile(samples: list, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(samples)
    rank = max(1, -(-len(xs) * p // 100))
    return xs[int(rank) - 1]


def end_to_end(rec: Record, spec: Spec, setup_times: list) -> dict:
    """End-to-end metrics from each game's fastest solve and verify.

    ``games_per_s`` is the number of games over the sum of their fastest
    solve and verify times.
    """
    solve = {g: min(ts) for g, ts in rec.solve_s.items()}
    verify = {g: min(ts) for g, ts in rec.verify_s.items()}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "solve_ms_p50": 1e3 * statistics.median(solve.values()),
        "solve_ms_tail": 1e3 * percentile(solve.values(), spec.tail),
        "verify_ms_p50": 1e3 * statistics.median(verify.values()),
        "verify_ms_tail": 1e3 * percentile(verify.values(), spec.tail),
        "games_per_s": len(solve) / (sum(solve.values()) + sum(verify.values())),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(tracer: spans.Tracer, games: int, slowdown: float) -> dict:
    """``LAYER_UNITS`` from the spans and counters of ``games`` traced games.

    A metric named after a span reads its calls (``.calls``, ``.builds``),
    inclusive time (``.ms``) or self time (``.self_ms``); the rest are the
    tracer's counters, per game except for the maxima.
    """
    totals = tracer.summary()
    counters = dict(tracer.counters)
    counters["regions.inner_sweeps"] = tracer.nested_calls("solver.solve", "regions.solve_reset_acyclic")
    breakpoints = counters["output.breakpoints"]
    out = {}
    for metric in LAYER_UNITS:
        span, _, kind = metric.rpartition(".")
        if span in totals and kind in ("calls", "builds"):
            out[metric] = totals[span]["calls"] / games
        elif span in totals and kind in ("ms", "self_ms"):
            out[metric] = 1e3 * totals[span]["self_s" if kind == "self_ms" else "s"] / games
        elif metric in ("urgent.rounds_max_ratio", "output.max_denominator_bits"):
            out[metric] = counters[metric]
        elif metric in counters:
            out[metric] = counters[metric] / games
    calls = totals["urgent.run"]["calls"]
    out["urgent.evals_per_breakpoint"] = calls / breakpoints if breakpoints else 0.0
    out["trace.slowdown"] = slowdown
    return out


def traced_passes(main, jobs: list, seconds: float, ledger: Ledger, untraced: Record, traced: Record) -> dict:
    """Alternate untraced and traced passes over ``jobs`` for ``seconds``.

    Every pass runs the same games, so counts per game repeat exactly and
    the time ratio of the two kinds of pass is the tracing slowdown.
    """
    tracer = spans.Tracer()
    started = time.perf_counter()
    while True:
        for job in jobs:
            run_game(main, job, untraced, ledger)
        tracer.install()
        try:
            for job in jobs:
                run_game(main, job, traced, ledger, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() - started >= seconds:
            break
    slowdown = (traced.busy_s / traced.games) / (untraced.busy_s / untraced.games)
    return {
        "metrics": per_layer(tracer, traced.games, slowdown),
        "absent": sorted(tracer.absent),
        "spans": tracer.span_count,
        "layers": tracer.summary(),
    }


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(args, meta: dict, metrics: dict, units: dict, ledger: Ledger, extra: dict) -> None:
    failed_ratio = ledger.failed / ledger.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"{'metric':<40} {'value':>14}  unit")
    for name, value in metrics.items():
        flag = "  (absent)" if name.rsplit(".", 1)[0] in meta["absent"] else ""
        print(f"{name:<40} {_fmt(value):>14}  {units[name]}{flag}")
    print(f"{'failed_ratio':<40} {_fmt(failed_ratio):>14}  ratio  ({ledger.failed} of {ledger.attempted} operations)")
    for what, why in list(ledger.failures.items())[:10]:
        print(f"failure: {what}: {why}")
    if len(ledger.failures) > 10:
        print(f"failure: ... {len(ledger.failures) - 10} more games")
    print(json.dumps({"meta": meta}, sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "meta": meta,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "failed_ratio": failed_ratio,
        "failures": ledger.failures,
        **extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": ledger.incorrect == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="End-to-end benchmark of ptg solve and verify.")
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        print(time.monotonic())
        return 0
    spec = SPECS[args.workload]
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        main_fn, per, jobs = setup(args.workload, args.seed, workdir)
        fixtures = sum(job.case.fixture for job in jobs)
        meta = {
            **machine(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "strata": gen.STRATA[args.workload],
            "games_generated": len(jobs),
            "fixtures": fixtures,
            "block_size": per,
            "tail_percentile": spec.tail,
        }
        ledger = Ledger()
        run_game(main_fn, jobs[0], Record(), ledger)  # warm-up: lazy imports and caches
        if args.trace:
            overhead_jobs, overhead_s = jobs[: fixtures + spec.trace_blocks * per], args.seconds
        else:
            timed = Record()
            setup_times = []
            started = time.perf_counter()

            def between():
                # set-up probes are spread over the run so that they see the
                # same machine as the operations; none is inside a timed call
                due = len(setup_times) * args.seconds / SETUP_PROBES
                if len(setup_times) < SETUP_PROBES and time.perf_counter() - started >= due:
                    setup_times.append(setup_probe(args, len(setup_times)))

            def done():
                return time.perf_counter() - started >= args.seconds and len(setup_times) == SETUP_PROBES

            passes = run_passes(main_fn, jobs, timed, ledger, between, done)
            metrics = end_to_end(timed, spec, setup_times)
            meta.update(
                setup_probes_s=setup_times,
                passes=passes,
                solve_samples=len(timed.solve_s),
                verify_samples=len(timed.verify_s),
                games=timed.games,
                measured_s=time.perf_counter() - started,
            )
            # one untraced and one traced pass over the first block, for the overhead
            overhead_jobs, overhead_s = jobs[: fixtures + per], 0
        untraced, traced = Record(), Record()
        layers = traced_passes(main_fn, overhead_jobs, overhead_s, ledger, untraced, traced)
        meta.update(
            games_untraced=untraced.games,
            games_traced=traced.games,
            games_per_s_untraced=untraced.games / untraced.busy_s,
            games_per_s_traced=traced.games / traced.busy_s,
            trace_slowdown=layers["metrics"]["trace.slowdown"],
            absent=layers["absent"],
            spans_recorded=layers["spans"],
        )
        if args.trace:
            report(args, meta, layers["metrics"], LAYER_UNITS, ledger, {"layers": layers["layers"]})
        else:
            report(args, meta, metrics, E2E_UNITS, ledger, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
