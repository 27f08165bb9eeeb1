"""End-to-end gate over the committed corpus and the bulk random suites.

Everything here is exact: value tables as tuples of Fractions, trace
events by position, witness text by full match.  Wall-clock budgets are
asserted where the contract names one.
"""

import itertools
import time
from fractions import Fraction as F

import pytest

from conftest import FIXTURES, load_fixture
from reference import extract_untimed_strategies, make_urgent, solve_all_urgent, solve_instant
from test_properties import (
    GUARDED_SEEDS,
    run_equality_check,
    run_region_checks,
    run_simple_checks,
)

from ptgsolve.cli import main
from ptgsolve.exactmath import Affine, evaluate
from ptgsolve.model import MAX, MIN, Config, Guard, Location, Transition, make_game, parse_game
from ptgsolve.solver import solve
from ptgsolve.strategy import FPStrategy, Move, SwitchingStrategy, play_out

FIG1_TABLES = {
    "l1": ((0, F(-19, 2)), (F(1, 4), -6), (F(1, 2), F(-11, 2)), (F(3, 4), -2), (F(9, 10), F(-1, 5)), (1, 0)),
    "l2": ((0, F(-19, 2)), (F(1, 4), -6), (F(1, 2), F(-11, 2)), (F(3, 4), -2), (1, 1)),
    "l3": ((0, -10), (F(1, 4), -6), (F(1, 2), F(-11, 2)), (1, -7)),
    "l4": ((0, -4), (1, -7)),
    "l5": ((0, -14), (F(3, 4), -2), (1, 1)),
    "l6": ((0, -11), (1, 1)),
    "l7": ((0, -16), (1, 0)),
}


@pytest.fixture(scope="module")
def fig1_run():
    text = load_fixture("fig1.json")
    t0 = time.perf_counter()
    sol = solve(parse_game(text))
    return sol, time.perf_counter() - t0


def test_fig1_exact_value_tables(fig1_run):
    sol, _ = fig1_run
    for name, pts in FIG1_TABLES.items():
        f = sol.values[name]
        assert f.xs == tuple(F(x) for x, _ in pts), name
        assert f.vals == tuple(F(v) for _, v in pts), name


def test_fig1_solves_within_one_second(fig1_run):
    _, elapsed = fig1_run
    assert elapsed < 1.0


def test_fig1_sweep_trace(fig1_run):
    """The boundary list is pinned exactly; each window names its events.

    Rejected candidates are grid points below the boundary they fix, so
    they are asserted by blame and position rather than by abscissa.
    """
    sol, _ = fig1_run
    trace = sol.trace
    assert trace.boundaries == [F(1), F(3, 4), F(1, 2), F(1, 4), F(0)]
    assert len(trace.windows) == 4

    first = trace.windows[0]
    assert [(x, list(locs)) for x, locs in first.slope_breaks] == [(F(9, 10), ["l1"])]
    assert F(9, 10) in sol.values["l1"].xs
    blamed = []
    for k, w in enumerate(trace.windows):
        if w.rejection is None:
            blamed.append(None)
            continue
        x, locs = w.rejection
        assert x < trace.boundaries[k + 1]
        blamed.append(list(locs))
    assert blamed == [["l2"], ["l1"], ["l2"], None]


def test_urgent_subgame_breakpoint():
    g = parse_game(load_fixture("urgent_all.json"))
    f = solve_all_urgent(g, 1)["l3"]
    assert f.xs == (0, F(6, 19), 1)
    for nu in (F(0), F(6, 19), F(1, 3), F(7, 10), F(1)):
        assert evaluate(f, nu) == min(-3 * nu - 4, 16 * nu - 10)


def memory_game(w: int):
    """Two-location loop where Min only wins by counting its own cost."""
    locs = [
        Location("l1", MAX, 0, False, None),
        Location("l2", MIN, 0, False, None),
        Location("lf", "final", 0, False, Affine(0, 0)),
    ]
    full = Guard.closed(0, 1)
    trans = [
        Transition("l1", full, False, "lf", -w),
        Transition("l1", full, False, "l2", -1),
        Transition("l2", full, False, "l1", 0),
        Transition("l2", full, False, "lf", 0),
    ]
    return make_urgent(make_game(locs, trans, 1))


def _constant_fp(g, choice: dict) -> FPStrategy:
    rows = {n: [(F(0), F(1), Move.now(i))] for n, i in choice.items()}
    return FPStrategy(rows, {n: Move.now(i) for n, i in choice.items()})


@pytest.mark.parametrize("w", [1, 10, 1000])
def test_min_needs_memory_in_weighted_loop(w):
    g = memory_game(w)
    vec = solve_instant(g, 1)
    assert vec["l1"] == -w
    assert vec["l2"] == -w

    s = extract_untimed_strategies(g, 1)
    sigma1 = _constant_fp(g, s.sigma1)
    switching = SwitchingStrategy(sigma1, s.sigma2, s.threshold)

    max_locs = [l.name for l in g.nonfinal_locations if l.owner == MAX]
    per_loc = [g.outgoing(n) for n in max_locs]
    for picks in itertools.product(*per_loc):
        fp = _constant_fp(g, dict(zip(max_locs, picks)))
        for start in ("l1", "l2"):
            play = play_out(g, Config(start, 1), switching, fp, max_steps=20000)
            assert play.reached_final
            assert play.cost <= -w

    cycling = next(
        i for i in g.outgoing("l1") if g.transitions[i].target == "l2"
    )
    stubborn = play_out(
        g,
        Config("l2", 1),
        sigma1,
        _constant_fp(g, {"l1": cycling}),
        max_steps=4000,
    )
    assert not stubborn.reached_final


def test_fig3_rejected_with_cycle_witness(tmp_path, capsys):
    out = tmp_path / "fig3.values.json"
    code = main(["solve", str(FIXTURES / "fig3.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "reset cycle: l0 -> l1 -> l0" in captured.err
    assert not out.exists()


def test_bulk_simple_games_within_budget():
    t0 = time.perf_counter()
    for seed in range(200):
        run_simple_checks(seed)
    assert time.perf_counter() - t0 < 120.0


def test_bulk_region_pipeline():
    for seed in GUARDED_SEEDS:
        run_region_checks(seed)
    for seed in range(1000, 1050):
        run_equality_check(seed)


SOLVABLE = ["fig1.json", "appc.json", "urgent_all.json", "reset_chain.json"]


def test_corpus_solutions_byte_identical_across_runs(tmp_path, capsys):
    for name in SOLVABLE:
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{run}-{name}"
            assert main(["solve", str(FIXTURES / name), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], name
    capsys.readouterr()
