"""Known answer and work count of the sweep on the tangent fan.

The fan is an urgent Min location ``pick`` choosing among k finals; final i
costs ``-i*x + i(i-1)/(2k)``, a tangent of a parabola, and neighbouring
tangents cross at i/k.  So ``pick`` is worth their lower envelope, whose
breakpoints are exactly {0, 1/k, ..., 1}.  Three waiting layers sit above
it, each firing one layer down or straight to ``pick`` with opposite
weights +-1, so the sweep has a real candidate grid to walk.
"""

import dataclasses
import sys
from fractions import Fraction as F

import pytest

from conftest import FIXTURES, load_fixture

from ptgsolve import document, exactmath, solver, strategy
from ptgsolve.document import uniform_infinity
from ptgsolve.cli import main
from ptgsolve.exactmath import Affine, CostFunction, evaluate
from ptgsolve.model import Game, Guard, Location, Transition, make_game, parse_game, regions_of, serialize_game
from ptgsolve.solver import BudgetExceeded, solve
from ptgsolve.urgent import InstantEvaluator, compile_game


def fan_game(k: int, rates: tuple):
    full = Guard.closed(0, 1)
    locs = [Location("pick", "min", 0, True, None)]
    trans = []
    for i in range(1, k + 1):
        locs.append(Location(f"f{i}", "final", 0, False, Affine(-i, F(i * (i - 1), 2 * k))))
        trans.append(Transition("pick", full, False, f"f{i}", 0))
    below = "pick"
    for j, (owner, rate) in enumerate(zip(("max", "min", "max"), rates), start=1):
        name = f"layer{j}"
        w = 1 if j % 2 else -1
        locs.append(Location(name, owner, rate, False, None))
        trans.append(Transition(name, full, False, below, w))
        trans.append(Transition(name, full, False, "pick", -w))
        below = name
    return make_game(tuple(locs), tuple(trans), 1)


def envelope(k: int, x: F) -> F:
    return min(-i * x + F(i * (i - 1), 2 * k) for i in range(1, k + 1))


@pytest.mark.parametrize("rates", [(1, 2, 3), (-2, 1, -3)])
def test_fan_pick_is_the_tangent_envelope(rates):
    k = 12
    pick = solve(fan_game(k, rates)).values["pick"]
    assert pick.xs == tuple(F(i, k) for i in range(k + 1))
    for x in pick.xs:
        assert evaluate(pick, x) == envelope(k, x)
    for x0, x1 in zip(pick.xs, pick.xs[1:]):
        mid = (x0 + x1) / 2
        assert evaluate(pick, mid) == envelope(k, mid)


def test_fan_builds_each_value_function_once(monkeypatch):
    # Machine-independent work count: rebuilding a location's function per
    # accepted candidate costs thousands of builds here, one build each a
    # couple of dozen.
    g = fan_game(16, (1, -2, 3))
    builds = 0
    original = CostFunction.__post_init__

    def counting(self):
        nonlocal builds
        builds += 1
        original(self)

    monkeypatch.setattr(CostFunction, "__post_init__", counting)
    solve(g)
    assert builds <= 2 * len(g.locations)


@pytest.mark.parametrize("case", ["fan", "guarded_jump"])
def test_solve_builds_no_line_it_never_reads(tmp_path, capsys, monkeypatch, case):
    # A value function is its breakpoints, and the document writes points
    # only, so `ptg solve` derives no line.  The closing build made one
    # Affine per piece: 48 on this fan.  Parsing
    # builds the final costs, and the region pipeline's stubs the lines of
    # their values.
    game = tmp_path / "game.json"
    game.write_text(serialize_game(fan_game(16, (1, -2, 3))) if case == "fan" else load_fixture(f"{case}.json"))
    callers = []
    post_init = Affine.__post_init__

    def counting(self):
        # this frame, the dataclass __init__, then whoever builds the line
        callers.append(sys._getframe(2).f_code.co_name)
        post_init(self)

    monkeypatch.setattr(Affine, "__post_init__", counting)
    assert main(["solve", str(game), "--out", str(tmp_path / "game.values.json")]) == 0
    capsys.readouterr()
    assert "_read" in callers
    assert set(callers) <= {"_read", "stub"}


def test_fan_value_iteration_stays_on_its_integer_scale(monkeypatch):
    # Each evaluator puts the final costs on one integer scale once: a run
    # evaluates no Affine.  Evaluating every final per run made one Affine
    # call per final per run.
    g = fan_game(16, (1, -2, 3))
    counts = {"affine_in_run": 0, "runs": 0}
    inside_run = False
    affine_call = Affine.__call__
    run = InstantEvaluator.run

    def counting_affine(self, nu):
        counts["affine_in_run"] += inside_run
        return affine_call(self, nu)

    def counting_run(self, *args, **kwargs):
        nonlocal inside_run
        counts["runs"] += 1
        inside_run = True
        try:
            return run(self, *args, **kwargs)
        finally:
            inside_run = False

    monkeypatch.setattr(Affine, "__call__", counting_affine)
    monkeypatch.setattr(InstantEvaluator, "run", counting_run)
    solve(g)
    assert counts["runs"] > 0
    assert counts["affine_in_run"] == 0


def test_fan_synthesis_reads_the_sweeps_integer_record(monkeypatch):
    # The synthesis anchors each cell and checks its midpoint from the
    # sweep's record of integers.  Evaluating the value functions in
    # Fractions for both made 119 evaluate calls here, for 17 cells.
    g = fan_game(16, (1, -2, 3))
    counts = {"evaluate": 0, "runs": 0}
    inside = False
    synthesize, run = solver._synthesize, InstantEvaluator.run

    def counting_evaluate(f, nu):
        counts["evaluate"] += inside
        return evaluate(f, nu)

    def counting_synthesize(*args):
        nonlocal inside
        inside = True
        try:
            return synthesize(*args)
        finally:
            inside = False

    def counting_run(self, *args, **kwargs):
        counts["runs"] += 1
        return run(self, *args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("ptgsolve")]:
        if getattr(module, "evaluate", None) is evaluate:
            monkeypatch.setattr(module, "evaluate", counting_evaluate)
    monkeypatch.setattr(solver, "_synthesize", counting_synthesize)
    monkeypatch.setattr(InstantEvaluator, "run", counting_run)
    assert solve(g).values["pick"].xs == tuple(F(i, 16) for i in range(17))
    assert counts == {"evaluate": 0, "runs": 37}


def test_fan_builds_one_window_evaluator_per_solve(monkeypatch):
    # Building the waiting game and its evaluator afresh for every window
    # and every strategy cell made 19 waiting games and 21 evaluators
    # here.  One evaluator is built and re-anchored instead; pruning and
    # the end values take the other two.  Every evaluator, the synthesis
    # and Min's fallback read compiled rows, so a solve builds no Game;
    # urgent and waiting copies for the evaluators made 5, and the pruned
    # core built for the synthesis 1.
    g = fan_game(16, (1, -2, 3))
    counts = {"games": 0, "evaluators": 0, "runs": 0}
    post_init, init, run = Game.__post_init__, InstantEvaluator.__init__, InstantEvaluator.run

    def counting_post_init(self):
        counts["games"] += 1
        post_init(self)

    def counting_init(self, *args):
        counts["evaluators"] += 1
        init(self, *args)

    def counting_run(self, *args, **kwargs):
        counts["runs"] += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Game, "__post_init__", counting_post_init)
    monkeypatch.setattr(InstantEvaluator, "__init__", counting_init)
    monkeypatch.setattr(InstantEvaluator, "run", counting_run)
    pick = solve(g).values["pick"]
    assert pick.xs == tuple(F(i, 16) for i in range(17))
    assert counts["games"] == 0
    assert counts["evaluators"] <= 3
    # 18 sweep runs (walking all 592 candidates made 611 here), the
    # pruning and end-value solves, and 17 cells
    assert counts["runs"] == 37


def test_fan_sweep_starts_from_the_pruning_values(monkeypatch):
    # Pruning's urgent solve at 1 already gives the finite values the sweep
    # starts from; solving the core at 1 once more took a third evaluator
    # and one more run here.
    counts = {"evaluators": 0, "runs": 0}
    init, run = InstantEvaluator.__init__, InstantEvaluator.run

    def counting_init(self, *args):
        counts["evaluators"] += 1
        init(self, *args)

    def counting_run(self, *args, **kwargs):
        counts["runs"] += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(InstantEvaluator, "__init__", counting_init)
    monkeypatch.setattr(InstantEvaluator, "run", counting_run)
    sw = solver.sweep(compile_game(fan_game(16, (1, -2, 3))))
    assert sw.finite["pick"].xs == tuple(F(i, 16) for i in range(17))
    # the pruning solve and the window evaluator; 18 sweep runs and pruning
    assert counts == {"evaluators": 2, "runs": 19}


def test_fan_budget_counts_candidate_evaluations():
    # The budget counts the sweep's value-iteration runs: 18 here, where
    # walking every candidate evaluated 592.  A budget of 18 suffices and
    # one less stops the solve.
    g = fan_game(16, (1, -2, 3))
    solve(g, max_steps=18)
    with pytest.raises(BudgetExceeded, match="exceeded 17 value-iteration runs"):
        solve(g, max_steps=17)


def test_fan_runs_per_breakpoint_stay_bounded(monkeypatch):
    # The sweep runs value iteration only where a witness line changes,
    # so its runs follow pick's breakpoints, not the k^2 candidates: at
    # k = 64 a solve made 28,932 runs when it walked every candidate.
    runs = 0
    run = InstantEvaluator.run

    def counting_run(self, *args, **kwargs):
        nonlocal runs
        runs += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(InstantEvaluator, "run", counting_run)
    pick = solve(fan_game(64, (1, -2, 3))).values["pick"]
    assert pick.xs == tuple(F(i, 64) for i in range(65))
    assert runs <= 3 * len(pick.xs)


def test_fan_sweep_lists_no_candidates(monkeypatch):
    # The sweep steps from one witness crossing to the next.  Listing the
    # candidate grid of each window took 13.3 s of a 13.9 s solve at
    # k = 256, for 2k + 5 runs; the grid grows about as k^3.
    for name, module in sys.modules.items():
        if name == "ptgsolve" or name.startswith("ptgsolve."):
            assert not hasattr(module, "possible_cutpoints"), name
    runs = 0
    run = InstantEvaluator.run

    def counting_run(self, *args, **kwargs):
        nonlocal runs
        runs += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(InstantEvaluator, "run", counting_run)
    for k in (16, 64, 128):
        runs = 0
        pick = solve(fan_game(k, (1, -2, 3))).values["pick"]
        assert pick.xs == tuple(F(i, k) for i in range(k + 1))
        # k + 2 sweep runs, pruning's and the end values', and k + 1 cells
        assert runs == 2 * k + 5


def test_fan_verify_builds_its_bellman_tables_once(tmp_path, capsys, monkeypatch):
    # One verify checks 51 points against 22 transitions.  Re-evaluating
    # every target at every fire point per valuation made 2,786 evaluate
    # and 3,245 Guard.contains calls here, and evaluating a location again
    # for each transition firing into it 753 evaluate calls; with tables
    # built once per document each point costs one evaluation per location
    # and at most one guard test per transition (447 and 1,212 calls with
    # a separate oracle for SPTG documents; 444 and 55 now, as a guard that
    # holds both ends of the clock range is not tested again).
    counts, _ = _verify_counts(tmp_path, capsys, monkeypatch, fan_game(16, (1, -2, 3)))
    assert counts["evaluate"] <= 500
    assert counts["contains"] <= 1500


def guarded_fan(k: int, rates: tuple):
    """The fan over the clock range [0, 2]: each layer fires down on [0, 1]
    and to ``pick`` on [0, 2], so the region pipeline solves it."""
    g = fan_game(k, rates)
    trans = []
    for t in g.transitions:
        down = t.source.startswith("layer") and t.target != "pick"
        trans.append(dataclasses.replace(t, guard=Guard.closed(0, 1 if down else 2)))
    return make_game(g.locations, trans, 2)


def test_guarded_fan_verify_builds_its_region_tables_once(tmp_path, capsys, monkeypatch):
    # Collecting every critical point of each transition's window and
    # trying the target's value and both limits there, per valuation, made
    # 7,284 evaluate calls here; with the suffix tables built once per
    # document, 1,503, as each point still cost one right limit per target
    # of a waiting location and each critical point up to three reads of
    # one region.  Reading a right limit only at a border or an open guard
    # end, each region once, the readings of a target once per guard and
    # owner, and a one-piece region's line directly leaves 490.
    counts, out = _verify_counts(tmp_path, capsys, monkeypatch, guarded_fan(16, (1, -2, 3)))
    assert "mode: reset-acyclic" in out
    assert counts["evaluate"] <= 750


@pytest.mark.parametrize("case", ["fan", "guarded_fan"])
def test_verify_divides_no_fraction(tmp_path, capsys, case):
    # The reader, the slope check and the oracle's tables read each piece
    # through its two breakpoints, on integers; deriving every piece's line
    # as a Fraction (slope, intercept) pair took one division per piece.
    # Reading a border's value strictly inside a piece as a Fraction took
    # one more per such border, 20 on the guarded fan; the oracle now reads
    # the segment's line there.
    g = fan_game(16, (1, -2, 3)) if case == "fan" else guarded_fan(16, (1, -2, 3))
    values = tmp_path / "game.values.json"
    game = tmp_path / "game.json"
    game.write_text(serialize_game(g))
    assert main(["solve", str(game), "--out", str(values)]) == 0
    capsys.readouterr()
    borders = [reg.lo for reg in regions_of(g) if reg.is_point]
    divisions = []

    def counting(*args, plain=F.__truediv__):
        divisions.append(args)
        return plain(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "__truediv__", counting)
        doc = document.load(str(values))
        report, witness = document.verify(g, doc, 16)
    assert witness is None and "check: bellman ok (51 points)" in report
    inside = [
        (name, b)
        for name, segs in doc.values.items()
        for s in segs
        for b in borders
        if s.lo < b < s.hi and b not in s.xs and uniform_infinity(s) is None
    ]
    assert divisions == []
    assert (case == "fan") == (inside == [])


def _counting(monkeypatch, counts: dict, ops) -> None:
    """Counts every call of the Fraction operators ops into counts."""
    for op in ops:

        def counting(*args, op=op, plain=getattr(F, op)):
            counts[op] = counts.get(op, 0) + 1
            return plain(*args)

        monkeypatch.setattr(F, op, counting)


ARITHMETIC = [f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv") for r in ("", "r")]


@pytest.mark.parametrize("case", ["fan", "guarded_jump", "fan16", "guarded_fan"])
def test_bellman_checks_do_no_fraction_arithmetic(tmp_path, monkeypatch, case):
    # The oracle puts its tables on two integer scales when it is built, so
    # a check at p/q compares integer numerators over one denominator.  In
    # Fractions the fan's 35 checks made 1,985 comparisons, 513
    # multiplications and 411 additions.  `on_scale` puts the document on
    # those scales once for every check of `verify`: reading the finals' cost
    # lines and the borders inside pieces as Fractions took 32 additions and
    # 32 multiplications on fan16, and 52 / 60 / 52 / 20 additions,
    # subtractions, multiplications and divisions on the guarded fan.
    if case == "guarded_jump":
        g = parse_game(load_fixture("guarded_jump.json"))
        values = FIXTURES / "guarded_jump.values.json"
    else:
        k = 9 if case == "fan" else 16
        g = fan_game(k, (1, -2, 3)) if case != "guarded_fan" else guarded_fan(k, (1, -2, 3))
        game, values = tmp_path / "fan.json", tmp_path / "fan.values.json"
        game.write_text(serialize_game(g))
        assert main(["solve", str(game), "--out", str(values)]) == 0
    doc = document.load(str(values))
    counts, slopes = {}, []

    def counting_slope(*args, plain=strategy._slope):
        slopes.append(args)
        return plain(*args)

    with pytest.MonkeyPatch.context() as mp:
        for module in (strategy, exactmath):
            mp.setattr(module, "_slope", counting_slope)
        _counting(mp, counts, ARITHMETIC)
        report, witness = document.verify(g, doc, 16)
    assert witness is None
    assert counts == {}
    # each finite piece's slope is taken once, for the scales and the
    # Lipschitz check alike
    pieces = [len(s.xs) - 1 for segs in doc.values.values() for s in segs if uniform_infinity(s) is None]
    assert len(slopes) == sum(pieces)
    regions = regions_of(g)
    scaled = strategy.on_scale(g, regions, doc.values)
    oracle = strategy.RegionBellmanOracle(g, regions, doc.values, scaled)
    X, _, bound, borders, tables = scaled
    jumps = set(borders) if doc.mode == document.MODE_REGIONS else set()
    points = document._sample_points(X, bound, tables.values(), 16, jumps)
    _counting(monkeypatch, counts, ("__add__", "__sub__", "__mul__", "__truediv__", "_richcmp", "__eq__"))
    verdicts = [oracle.check(p, q) for p, q in points]
    monkeypatch.undo()
    assert verdicts == [[]] * len(points)
    assert counts == {}


def _verify_counts(tmp_path, capsys, monkeypatch, g) -> tuple:
    """evaluate and Guard.contains calls of one passing verify --grid 16,
    and what it printed."""
    game = tmp_path / "fan.json"
    game.write_text(serialize_game(g))
    values = tmp_path / "fan.values.json"
    assert main(["solve", str(game), "--out", str(values)]) == 0
    counts = {"evaluate": 0, "contains": 0}

    def counting_evaluate(f, nu):
        counts["evaluate"] += 1
        return evaluate(f, nu)

    def counting_contains(self, nu):
        counts["contains"] += 1
        return contains(self, nu)

    contains = Guard.contains
    for module in [m for name, m in sys.modules.items() if name.startswith("ptgsolve")]:
        if getattr(module, "evaluate", None) is evaluate:
            monkeypatch.setattr(module, "evaluate", counting_evaluate)
    monkeypatch.setattr(Guard, "contains", counting_contains)
    capsys.readouterr()
    assert main(["verify", str(game), str(values), "--grid", "16"]) == 0
    out = capsys.readouterr().out
    assert "check: bellman ok (51 points)" in out
    return counts, out
