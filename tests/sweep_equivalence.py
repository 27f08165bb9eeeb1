"""Solve the benchmark workloads with both sweeps and compare what they write.

Usage, from the root of a checkout:

    python tests/sweep_equivalence.py [--seeds 1 2 3]

The workloads (fan, sptg-mix, guarded) come from ``perfbench/gen.py``,
which this script only imports.  Every game is solved twice through
``ptgsolve.cli.main``: once as the package is, and once with
``solver.sweep`` and ``regions.sweep`` replaced by
``reference.grid_sweep``, which runs value iteration at every candidate
cutpoint.  A window of a region copy with no edge into itself reaches
neither sweep: ``regions._acyclic`` solves it in one step, so the swap
compares the windows of components with a cycle.  The exit codes, stdout, stderr (bar the timing line) and
documents must be equal, and every document must be, as UTF-8, what
``json.dumps(..., sort_keys=True, indent=2, ensure_ascii=False)`` writes
for its own JSON, so the package's writer is checked against the
stdlib's encoder on every document.  Every written document must then
pass ``ptg verify --grid 16`` (exit 0, ``verdict: pass``), in either
mode.  Then the fan at k = 64 is solved and ``pick`` checked against the
lower envelope of its finals.  Exits 1, after printing every difference,
if anything fails.
"""

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "perfbench")]

import gen  # noqa: E402
from reference import grid_sweep  # noqa: E402

from ptgsolve import document, regions, solver  # noqa: E402
from ptgsolve.cli import main  # noqa: E402

#: blocks per workload, as the benchmark generates them
BLOCKS = {"fan": 8, "sptg-mix": 7, "guarded": 16}


def solve(game: Path, out: Path) -> tuple:
    """(exit code, stdout, stderr without its timing line, document bytes)."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["solve", str(game), "--out", str(out)])
    err = [l for l in stderr.getvalue().splitlines() if not l.startswith("elapsed: ")]
    return code, stdout.getvalue(), err, out.read_bytes() if out.exists() else None


@contextlib.contextmanager
def walking_every_candidate():
    swapped = (solver.sweep, regions.sweep)
    solver.sweep = regions.sweep = grid_sweep
    try:
        yield
    finally:
        solver.sweep, regions.sweep = swapped


def stdlib_encoded(doc) -> bool:
    """Whether doc, a document's bytes (None when none was written), is
    the stdlib's indented encoding of its JSON."""
    if doc is None:
        return True
    text = json.dumps(json.loads(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return text.encode("utf-8") == doc


def verify(game: Path, out: Path) -> str:
    """'' if `ptg verify --grid 16` passes the document at out, else its
    exit code and output."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(game), str(out), "--grid", "16"])
    if code == 0 and "verdict: pass" in stdout.getvalue().splitlines():
        return ""
    return f"exit {code}: {stdout.getvalue().splitlines()[-2:]}"


def compare(workload: str, seed: int, work: Path) -> list:
    """The names of the games whose two solves differ, whose document is
    not the stdlib's encoding, or whose document `ptg verify` fails."""
    _, cases = gen.workload(workload, seed, BLOCKS[workload], ROOT / "fixtures")
    differ = []
    verified = 0
    for case in cases:
        game, out = work / f"{case.name}.json", work / f"{case.name}.values.json"
        game.write_text(case.text, encoding="utf-8")
        got = solve(game, out)
        with walking_every_candidate():
            want = solve(game, out)
        if got != want:
            differ.append(case.name)
        elif not stdlib_encoded(got[3]):
            differ.append(f"{case.name} (not the stdlib's encoding)")
        elif got[3] is not None:
            # both solves wrote these bytes, so one verify covers both
            failed = verify(game, out)
            verified += 1
            if failed:
                differ.append(f"{case.name} (verify {failed})")
    print(f"{workload} seed {seed}: {len(cases)} games, {verified} documents verified, {len(differ)} differ")
    return differ


def fan_envelope(k: int, work: Path) -> str:
    """'' if the fan's pick at k is the lower envelope of its finals."""
    game, out = work / f"fan-k{k}.json", work / f"fan-k{k}.values.json"
    game.write_text(gen._dumps(gen.fan(random.Random(1), k, (1, -1, 1))), encoding="utf-8")
    code, _, err, _ = solve(game, out)
    if code != 0:
        return f"fan k = {k}: exit {code}: {err}"
    (pick,) = document.load(str(out)).values["pick"]
    want = [Fraction(i, k) for i in range(k + 1)]
    if list(pick.xs) != want:
        return f"fan k = {k}: pick breaks at {[str(x) for x in pick.xs]}"
    for x, v in zip(pick.xs, pick.vals):
        if v != min(gen.fan_line(k, i, x) for i in range(1, k + 1)):
            return f"fan k = {k}: pick({x}) = {v} is off the envelope"
    return ""


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in args.seeds:
            for workload in BLOCKS:
                for name in compare(workload, seed, work):
                    print(f"  differs: {name}")
                    failed = True
        wrong = fan_envelope(64, work)
        print(wrong or "fan k = 64: pick is the tangent envelope")
        failed |= bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
