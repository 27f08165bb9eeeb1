"""End-to-end checks for the sweep solver on the bundled fixtures."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from reference import (
    InfiniteValue,
    MissingTerminalValue,
    core_game,
    fake_value_upper_bound,
    from_points,
    infinite,
    make_urgent,
    max_final_cost,
    max_transition_weight,
    possible_cutpoints,
    possible_cutpoints_by_fraction,
    validate_nc,
    waiting,
)
from test_fan import fan_game
from test_properties import random_sptg
from ptgsolve import solver
from ptgsolve.exactmath import Affine, CostFunction, evaluate
from ptgsolve.model import Config, Guard, InternalError, Location, Transition, make_game, parse_game
from ptgsolve.solver import (
    BudgetExceeded,
    NonSPTG,
    WindowEvaluator,
    default_max_steps,
    prune_infinite,
    solve,
    sweep,
)
from ptgsolve.strategy import play_out
from ptgsolve.urgent import InstantEvaluator, compile_game

F = Fraction

# Hand-checked optimal values for the seven control locations of fig1,
# as (clock, value) breakpoints of the piecewise-affine value function.
FIG1_VALUES = {
    "l1": [(0, F(-19, 2)), (F(1, 4), -6), (F(1, 2), F(-11, 2)), (F(3, 4), -2), (F(9, 10), F(-1, 5)), (1, 0)],
    "l2": [(0, F(-19, 2)), (F(1, 4), -6), (F(1, 2), F(-11, 2)), (F(3, 4), -2), (1, 1)],
    "l3": [(0, -10), (F(1, 4), -6), (F(1, 2), F(-11, 2)), (1, -7)],
    "l4": [(0, -4), (1, -7)],
    "l5": [(0, -14), (F(3, 4), -2), (1, 1)],
    "l6": [(0, -11), (1, 1)],
    "l7": [(0, -16), (1, 0)],
}


@pytest.fixture(scope="module")
def fig1():
    return parse_game(load_fixture("fig1.json"))


@pytest.fixture(scope="module")
def fig1_solution(fig1):
    return solve(fig1)


@pytest.mark.parametrize("name", sorted(FIG1_VALUES))
def test_fig1_value_tables(fig1_solution, name):
    fn = fig1_solution.values[name]
    expected = FIG1_VALUES[name]
    assert list(zip(fn.xs, fn.vals)) == [(F(x), F(v)) for x, v in expected]


def test_fig1_final_location_value(fig1, fig1_solution):
    lf = next(l for l in fig1.locations if l.final_cost is not None)
    fn = fig1_solution.values[lf.name]
    for x in (F(0), F(1, 3), F(1)):
        assert evaluate(fn, x) == lf.final_cost(x)


def test_fig1_nothing_infinite(fig1_solution):
    assert infinite(fig1_solution.values) == {}


def test_fig1_trace_boundaries(fig1_solution):
    assert fig1_solution.trace.boundaries == [F(1), F(3, 4), F(1, 2), F(1, 4), F(0)]


def test_fig1_trace_window_events(fig1_solution):
    w0, w1, w2, w3 = fig1_solution.trace.windows
    # The first window walks down from 1: the value of l1 changes slope at
    # 9/10 without invalidating the segment, then l2's chord breaks the
    # slope bound and 3/4 becomes the next boundary.
    assert w0.slope_breaks == [(F(9, 10), ["l1"])]
    assert w0.rejection is not None and w0.rejection[1] == ["l2"]
    assert w0.rejection[0] < F(3, 4)
    assert w1.slope_breaks == []
    assert w1.rejection is not None and w1.rejection[1] == ["l1"]
    assert w1.rejection[0] < F(1, 2)
    assert w2.rejection is not None and w2.rejection[1] == ["l2"]
    assert w2.rejection[0] < F(1, 4)
    # The last window reaches 0 with no violation.
    assert w3.rejection is None


PROBES = [F(0), F(1, 8), F(1, 4), F(1, 2), F(2, 3), F(3, 4), F(9, 10), F(19, 20), F(1)]


def test_fig1_optimal_playouts_match_values(fig1, fig1_solution):
    """Playing both synthesized strategies against each other realizes the value."""
    sol = fig1_solution
    for name in FIG1_VALUES:
        for nu in PROBES:
            play = play_out(fig1, Config(name, nu), sol.min_strategy, sol.max_strategy)
            assert play.reached_final, (name, nu)
            assert play.cost == evaluate(sol.values[name], nu), (name, nu)


def test_fig1_min_strategy_has_no_bad_cycles(fig1, fig1_solution):
    assert validate_nc(fig1, fig1_solution.min_strategy.sigma1) == []


@pytest.mark.parametrize(
    "name,nu,expected",
    [
        ("l1", F(0), F(-19, 2)),
        ("l1", F(9, 10), F(-1, 5)),
        ("l3", F(0), F(-10)),
        ("l7", F(0), F(-16)),
    ],
)
def test_fig1_fake_value_is_exact(fig1, fig1_solution, name, nu, expected):
    got = fake_value_upper_bound(fig1, fig1_solution.max_strategy, Config(name, nu))
    assert got == expected


def test_urgent_game_through_solve():
    g = parse_game(load_fixture("urgent_all.json"))
    sol = solve(g)
    fn = sol.values["l3"]
    assert list(zip(fn.xs, fn.vals)) == [(F(0), F(-10)), (F(6, 19), F(-94, 19)), (F(1), F(-7))]
    # Every location is urgent, so no slope test can fail and a single
    # window covers the whole clock range.
    assert sol.trace.boundaries == [F(1), F(0)]
    assert len(sol.trace.windows) == 1


def test_appc_values_and_threshold():
    g = parse_game(load_fixture("appc.json"))
    sol = solve(g)
    for name in ("l1", "l2"):
        fn = sol.values[name]
        assert fn.vals == (F(-10), F(-10))
    assert sol.min_strategy.threshold == F(-30)
    # Waiting costs Max nothing here (rate 0) so the synthesized row waits
    # out the clock and fires the exit edge at the bound.
    (lo, hi, move), = sol.max_strategy.rows["l1"]
    assert (lo, hi, move.kind) == (F(0), F(1), "wait_until")
    end = sol.max_strategy.at_end["l1"]
    assert g.transitions[end.t_index].target == "lf"


def _mixed_game():
    locs = (
        Location("trap", "max", 0, False, None),
        Location("drain", "min", 0, False, None),
        Location("m", "min", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (
        Transition("trap", Guard.closed(0, 1), False, "trap", 1),
        Transition("drain", Guard.closed(0, 1), False, "drain", -1),
        Transition("drain", Guard.closed(0, 1), False, "f", 0),
        Transition("m", Guard.closed(0, 1), False, "f", 2),
    )
    return make_game(locs, trans, 1)


def test_prune_infinite_splits_off_divergent_locations():
    g = _mixed_game()
    pr = prune_infinite(compile_game(g))
    assert pr.infinite == {"trap": float("inf"), "drain": float("-inf")}
    assert pr.rows.names == ["m", "f"]
    core, origin = core_game(g, pr.infinite)
    assert [l.name for l in core.locations] == ["m", "f"]
    # Surviving transition indices point back into the original game.
    assert origin == (3,)
    assert g.transitions[3].source == "m"


def test_solve_keeps_infinite_locations_in_values():
    sol = solve(_mixed_game())
    assert evaluate(sol.values["trap"], F(1, 2)) == float("inf")
    assert evaluate(sol.values["drain"], F(1, 2)) == float("-inf")
    assert evaluate(sol.values["m"], F(1, 2)) == 2
    assert set(infinite(sol.values)) == {"trap", "drain"}


def test_empty_game_when_nothing_finite_remains():
    locs = (
        Location("trap", "max", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (Transition("trap", Guard.closed(0, 1), False, "trap", 1),)
    sol = solve(make_game(locs, trans, 1))
    assert (sol.max_strategy, sol.min_strategy) == (None, None)
    assert infinite(sol.values) == {"trap": float("inf")}


@pytest.mark.parametrize("seed", range(40))
def test_sweep_is_solve_without_the_strategies(seed):
    """`sweep` reports the values and trace of `solve`, and where `solve`
    gives no strategies it has no window evaluator and nothing finite."""
    g = random_sptg(seed)
    sw = sweep(compile_game(g))
    assert set(sw.finite) | set(sw.infinite) == {l.name for l in g.nonfinal_locations}
    sol = solve(g)
    if sol.max_strategy is None:
        assert (sw.finite, sw.infinite, sw.evaluator) == ({}, infinite(sol.values), None)
    assert sw.infinite == infinite(sol.values)
    assert sw.finite == {n: sol.values[n] for n in sw.finite}
    assert sw.trace == sol.trace


def corrupting_sweep(monkeypatch, row: int) -> None:
    """Makes `solve`'s sweep record the given core row's value at 1 one
    unit (1/den) too high, after the value functions are built."""
    from ptgsolve import solver

    sweep = solver.sweep

    def corrupted(*args, **kwargs):
        sw = sweep(*args, **kwargs)
        x, vals, den = sw.record[0]
        sw.record[0] = (x, [v + (j == row) for j, v in enumerate(vals)], den)
        return sw

    monkeypatch.setattr(solver, "sweep", corrupted)


def test_synthesis_checks_each_cell_midpoint_against_the_record(fig1, monkeypatch):
    # fig1's last cell is [9/10, 1); l1, the first core row, banks the
    # corrupted value there, so the run at the midpoint and the mean of
    # its recorded ends disagree
    corrupting_sweep(monkeypatch, 0)
    with pytest.raises(InternalError) as info:
        solve(fig1)
    e = info.value
    assert (e.phase, e.where, e.nu) == ("synthesis", "l1", F(19, 20))
    assert e.reason == "anchored value of the cell [9/10, 1) disagrees with the computed value function"


def _fractional_finals(seed: int):
    """random_sptg(seed) with every final cost's slope and intercept
    divided by small integers."""
    g = random_sptg(seed)
    locs = [
        dataclasses.replace(l, final_cost=Affine(phi.slope / (i % 3 + 2), phi.intercept / (i % 4 + 1)))
        if (phi := l.final_cost) is not None else l
        for i, l in enumerate(g.locations)
    ]
    return make_game(tuple(locs), g.transitions, 1)


@pytest.mark.parametrize(
    "g",
    [fan_game(k, (1, -2, 3)) for k in range(2, 10)] + [_fractional_finals(seed) for seed in range(30)],
)
def test_switching_threshold_is_the_lowest_value_less_the_reach(g):
    # The threshold reads pf, the largest |final cost|, off the placed
    # lines; it is the lowest value of the pruned core less (n-1)*pt + pf
    # and the largest |rate|.  Read as the integer pf*L it came out too low
    # wherever the final costs have a denominator.
    sol = solve(g)
    if sol.max_strategy is None:
        return
    core, _ = core_game(g, infinite(sol.values))
    reach = (len(core.locations) - 1) * max_transition_weight(core) + max_final_cost(core)
    lowest = min(min(sol.values[l.name].vals) for l in core.locations)
    rate = max(abs(l.rate) for l in core.locations)
    assert sol.min_strategy.threshold == lowest - reach - rate


def test_budget_exhaustion_raises(fig1):
    with pytest.raises(BudgetExceeded):
        solve(fig1, max_steps=1)


def test_non_sptg_inputs_are_rejected():
    for name in ("fig3.json", "reset_chain.json"):
        with pytest.raises(NonSPTG):
            solve(parse_game(load_fixture(name)))


def test_waiting_requires_anchor_values(fig1):
    with pytest.raises(MissingTerminalValue):
        waiting(fig1, F(1), {})
    anchors = {l.name: Fraction(0) for l in fig1.locations}
    anchors["l1"] = float("inf")
    with pytest.raises(InfiniteValue):
        waiting(fig1, F(1), anchors)


def test_waiting_clones_every_lazy_location(fig1):
    anchors = {l.name: Fraction(i) for i, l in enumerate(fig1.locations)}
    wg = waiting(fig1, F(1, 2), anchors)
    clones = [l for l in wg.locations if l.name.endswith("@wait")]
    lazy = [l for l in fig1.locations if l.final_cost is None and not l.urgent]
    assert len(clones) == len(lazy)
    for c in clones:
        base = next(l for l in fig1.locations if l.name + "@wait" == c.name)
        # Cloned terminal cost pays the waiting rate until the window edge,
        # then the anchor value: at the edge it equals the anchor exactly.
        assert c.final_cost(F(1, 2)) == anchors[base.name]
    # Original transitions keep their positions; clone edges follow.
    for i, t in enumerate(fig1.transitions):
        assert wg.transitions[i].source == t.source
        assert wg.transitions[i].target == t.target
        assert wg.transitions[i].guard == Guard.closed(0, F(1, 2))
    assert all(t.target.endswith("@wait") for t in wg.transitions[len(fig1.transitions):])


def test_make_urgent_marks_everything(fig1):
    ug = make_urgent(fig1)
    assert all(l.urgent for l in ug.locations if l.final_cost is None)
    assert [t.source for t in ug.transitions] == [t.source for t in fig1.transitions]


def test_default_budget_scales_with_game_size(fig1):
    assert default_max_steps(compile_game(fig1)) == 27392


_RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def anchored_windows(draw):
    """A simple game, some with rational rates and final costs, and a few
    windows (r, anchor, nu) with finite anchors and nu in [0, r]."""
    g = random_sptg(draw(st.integers(0, 10**6)))
    locs = []
    for l in g.locations:
        if l.is_final and draw(st.booleans()):
            l = dataclasses.replace(l, final_cost=Affine(draw(_RATIONAL), draw(_RATIONAL)))
        elif not l.is_final and draw(st.booleans()):
            l = dataclasses.replace(l, rate=draw(_RATIONAL))
        locs.append(l)
    g = make_game(tuple(locs), g.transitions, 1)
    names = [l.name for l in g.locations if not l.is_final]
    anchors = st.fixed_dictionaries(
        {n: st.fractions(min_value=-20, max_value=20, max_denominator=30) for n in names}
    )
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12))
        nu = r * draw(st.fractions(min_value=0, max_value=1, max_denominator=7))
        windows.append((r, draw(anchors), nu))
    return g, draw(anchors), windows


def _on_rows(core, anchor: dict) -> tuple:
    """(vals, den): anchor's values for core's rows, integers in row order
    on their least common denominator."""
    fs = [anchor[core.names[i]] for i, _, _ in core.rows]
    den = math.lcm(*(f.denominator for f in fs))
    return [f.numerator * (den // f.denominator) for f in fs], den


@settings(max_examples=150, deadline=None)
@given(anchored_windows())
def test_reanchored_evaluator_equals_a_fresh_one(case):
    g, first, windows = case
    core = compile_game(g)
    ev = WindowEvaluator(core, *_on_rows(core, first))
    steps = [(F(1), first, F(1, 2))] + windows
    for i, (r, anchor, nu) in enumerate(steps):
        if i:
            ev.reanchor(r, *_on_rows(core, anchor))
        wg = make_urgent(waiting(g, r, anchor))
        fresh = InstantEvaluator(compile_game(wg))
        assert ev.names == fresh.names
        assert (ev.scale, ev.cutoff, ev.bound) == (fresh.scale, fresh.cutoff, fresh.bound)
        for x in (nu, F(0), r):
            # values on the common denominator, ranks, rounds, the denominator
            assert ev.run(x) == fresh.run(x)
        assert possible_cutpoints(ev, r) == possible_cutpoints(fresh, r)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(anchored_windows())
def test_cutpoints_of_reanchored_evaluators_match_the_fraction_sort(case):
    """The grid sorted on integer keys is the grid sorted as Fractions, on
    every window a re-anchored evaluator is moved to."""
    g, first, windows = case
    core = compile_game(g)
    ev = WindowEvaluator(core, *_on_rows(core, first))
    for r, anchor, nu in windows:
        ev.reanchor(r, *_on_rows(core, anchor))
        for end in (r, nu):
            assert possible_cutpoints(ev, end) == possible_cutpoints_by_fraction(ev, end)


def _window_checks(ev, r) -> None:
    """On the window [0, r] of ev: `_below` finds each candidate's
    predecessor in the grid, and no candidate lies within the sweep's
    delta below another."""
    grid = possible_cutpoints(ev, r)
    spread = solver._spread(ev, r)
    for lo, hi in zip(grid, grid[1:]):
        assert solver._below(ev, hi) == lo
        # the sweep runs at hi - 1/(q*M) for hi = p/q
        assert hi - lo >= F(1, hi.denominator * spread)
        # between two candidates the largest one below is the lower
        assert solver._below(ev, (lo + hi) / 2) == lo


@settings(max_examples=100, deadline=None, derandomize=True)
@given(anchored_windows())
def test_rejection_query_and_delta_on_random_windows(case):
    g, first, windows = case
    core = compile_game(g)
    ev = WindowEvaluator(core, *_on_rows(core, first))
    _window_checks(ev, F(1))
    for r, anchor, _ in windows:
        ev.reanchor(r, *_on_rows(core, anchor))
        _window_checks(ev, r)


@pytest.mark.parametrize("rates", [(1, -2, 3), (-1, 2, -3), (2, 2, -1)])
def test_rejection_query_and_delta_on_reanchored_fan_windows(rates):
    # every accepted point of the fan's sweep, as the window end it would
    # be after a rejection there
    for k in range(1, 9):
        sw = sweep(compile_game(fan_game(k, rates)))
        ev = sw.evaluator
        for x, vals, den in sw.record:
            if x > 0:
                ev.reanchor(x, vals, den)
                _window_checks(ev, x)


def test_closing_build_refuses_breakpoints_out_of_order():
    # the sweep's record must fall strictly from 1 to 0; a function built
    # from it checks that with a raise, which python -O keeps
    built = solver._from_record("l1", [(F(0), 1, 2), (F(1, 3), 3, 4), (F(1), 5, 6)])
    assert built == from_points([(0, F(1, 2)), (F(1, 3), F(3, 4)), (1, F(5, 6))])
    for points in ([(F(1, 2), 0, 1), (F(1, 2), 1, 1)], [(F(1), 0, 1), (F(0), 1, 1)]):
        with pytest.raises(InternalError) as info:
            solver._from_record("l1", points)
        e = info.value
        assert (e.phase, e.where, e.reason) == ("sweep", "l1", "breakpoints must be strictly increasing")
