"""Region construction and the reset-acyclic solving pipeline."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from test_properties import usable_guarded
from ptgsolve.cli import _region_values_from_segments
from ptgsolve.exactmath import Affine, evaluate
from ptgsolve.model import Guard, Location, Region, Transition, make_game, parse_game
from ptgsolve.regions import (
    RegionGame,
    ResetCycle,
    build_region_game,
    check_reset_acyclic,
    solve_reset_acyclic,
)
from ptgsolve.solver import solve
from ptgsolve.strategy import region_bellman_check

F = Fraction


@pytest.fixture(scope="module")
def fig3():
    return parse_game(load_fixture("fig3.json"))


@pytest.fixture(scope="module")
def reset_chain():
    return parse_game(load_fixture("reset_chain.json"))


def test_region_game_copies_every_location_per_region(fig3):
    rg = build_region_game(fig3)
    assert len(rg.regions) == 3
    assert len(rg.locations) == len(fig3.locations) * 3
    hops = [t for t in rg.transitions if t.origin is None]
    assert all(t.weight == 0 and not t.reset for t in hops)
    # finals never hop, every other location hops out of {0} and (0,1)
    assert len(hops) == 3 * 2


def test_region_game_point_guard_placement(fig3):
    """Border-only guards show up from the open copy and the border copy."""
    rg = build_region_game(fig3)
    at_one = [t for t in rg.transitions if t.origin is not None and fig3.transitions[t.origin].guard.lo == 1]
    sources = {t.source[1] for t in at_one}
    assert sources == {1, 2}
    assert all(t.guard == Guard.point(1) for t in at_one)


def test_region_game_strict_guard_becomes_closure():
    locs = (
        Location("m", "min", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (Transition("m", Guard(F(0), F(1), False, False), False, "f", 0),)
    rg = build_region_game(make_game(locs, trans, 1))
    copied = [t for t in rg.transitions if t.origin == 0]
    by_region = {t.source[1]: t.guard for t in copied}
    # nothing from the point copies, the full closure from the open copy
    assert set(by_region) == {1}
    assert by_region[1] == Guard.closed(0, 1)


def test_region_game_lower_border_guard_is_dropped():
    locs = (
        Location("m", "min", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
        Location("e", "final", 0, False, Affine(0, 1)),
    )
    trans = (
        Transition("m", Guard.point(1), False, "f", 0),
        Transition("m", Guard.closed(0, 2), False, "e", 0),
    )
    rg = build_region_game(make_game(locs, trans, 2))
    fires_f = [t for t in rg.transitions if t.origin == 0]
    # guard {1} belongs to the regions that can still reach it: the open
    # region below, the point itself, but not the open region above
    assert {t.source[1] for t in fires_f} == {1, 2}


def test_fig3_reset_cycle_witness(fig3):
    with pytest.raises(ResetCycle) as exc:
        solve_reset_acyclic(fig3)
    assert exc.value.witness == ["l0", "l1", "l0"]
    assert str(exc.value) == "l0 -> l1 -> l0"


def test_check_reset_acyclic_orders_dependencies_first(reset_chain):
    rg = build_region_game(reset_chain)
    dag = check_reset_acyclic(rg)
    for t in rg.transitions:
        assert dag.node_component[t.target] <= dag.node_component[t.source]
    for i in dag.reset_edges:
        t = rg.transitions[i]
        assert t.reset
        assert dag.node_component[t.target] < dag.node_component[t.source]


def test_reset_chain_values(reset_chain):
    sol = solve_reset_acyclic(reset_chain)
    (fa,) = sol.values["a"]
    assert list(zip(fa.xs, fa.vals)) == [(F(0), F(2)), (F(1), F(3)), (F(2), F(3))]
    (fb,) = sol.values["b"]
    assert list(zip(fb.xs, fb.vals)) == [(F(0), F(0)), (F(2), F(2))]
    (ff,) = sol.values["bf"]
    assert evaluate(ff, F(3, 2)) == F(3, 2)


def test_reset_chain_satisfies_region_bellman(reset_chain):
    sol = solve_reset_acyclic(reset_chain)
    for nu in (F(0), F(1, 2), F(1), F(7, 4), F(2)):
        assert region_bellman_check(reset_chain, sol.regions, sol.region_values, nu) == []


def test_single_min_location_over_two_units():
    locs = (
        Location("m", "min", -1, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (Transition("m", Guard.closed(0, 2), False, "f", 0),)
    sol = solve_reset_acyclic(make_game(locs, trans, 2))
    (fm,) = sol.values["m"]
    assert list(zip(fm.xs, fm.vals)) == [(F(0), F(-2)), (F(2), F(0))]


@pytest.mark.parametrize("fixture", ["fig1.json", "appc.json", "urgent_all.json"])
def test_pipeline_agrees_with_direct_solve_on_closed_guards(fixture):
    """A game the unit-interval solver accepts must get identical values."""
    g = parse_game(load_fixture(fixture))
    direct = solve(g)
    lifted = solve_reset_acyclic(g)
    for l in g.locations:
        segs = lifted.values[l.name]
        probes = set(direct.values[l.name].xs) | {F(1, 7), F(2, 3), F(9, 10)}
        for s in segs:
            probes.update(s.xs)
        for x in sorted(probes):
            covering = [s for s in segs if s.lo <= x <= s.hi]
            assert evaluate(covering[-1], x) == evaluate(direct.values[l.name], x), (l.name, x)


def test_discontinuity_lands_on_the_later_segment():
    locs = (
        Location("m", "min", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
        Location("e", "final", 0, False, Affine(0, 10)),
    )
    trans = (
        Transition("m", Guard(F(0), F(1), True, False), False, "f", 0),
        Transition("m", Guard.closed(0, 2), False, "e", 0),
    )
    g = make_game(locs, trans, 2)
    sol = solve_reset_acyclic(g)
    left, right = sol.values["m"]
    assert (left.lo, left.hi) == (F(0), F(1))
    assert evaluate(left, F(1)) == 0
    assert (right.lo, right.hi) == (F(1), F(2))
    assert evaluate(right, F(1)) == 10
    # the point region holds the attained value, the open one its limit
    assert evaluate(sol.region_values["m"][2], F(1)) == 10
    assert evaluate(sol.region_values["m"][1], F(1)) == 0
    for nu in (F(0), F(1, 3), F(1), F(3, 2), F(2)):
        assert region_bellman_check(g, sol.regions, sol.region_values, nu) == []


def test_point_value_equal_to_its_left_limit_keeps_its_own_segment():
    # Max fires to 0 on [0, 1] and to -10 on (1, 2]: at 1 it is worth its
    # left limit 0, not its right limit -10.  Merged into the left segment,
    # the point would read back from the later one as -10.
    locs = (
        Location("m", "max", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
        Location("e", "final", 0, False, Affine(0, -10)),
    )
    trans = (
        Transition("m", Guard.closed(0, 1), False, "f", 0),
        Transition("m", Guard(F(1), F(2), False, True), False, "e", 0),
    )
    sol = solve_reset_acyclic(make_game(locs, trans, 2))
    per = sol.region_values["m"]
    assert [evaluate(per[1], F(1)), evaluate(per[2], F(1)), evaluate(per[3], F(1))] == [0, 0, -10]
    segs = sol.values["m"]
    assert [(s.lo, s.hi) for s in segs] == [(0, 1), (1, 1), (1, 2)]
    back = _region_values_from_segments(sol.regions, segs)
    assert evaluate(back[2], F(1)) == 0
    read = {**sol.region_values, "m": back}
    assert region_bellman_check(sol.game, sol.regions, read, F(1)) == []


def _value(entry, x):
    return entry if isinstance(entry, float) else evaluate(entry, x)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_stitched_segments_read_back_the_region_values(seed):
    # Point regions: the attained value.  Open regions: both border limits
    # and the value at every breakpoint in between.
    g = usable_guarded(seed)
    assume(g is not None)
    sol = solve_reset_acyclic(g)
    for l in g.locations:
        back = _region_values_from_segments(sol.regions, sol.values[l.name])
        for reg, want, got in zip(sol.regions, sol.region_values[l.name], back):
            xs = {reg.lo, reg.hi} | set(() if isinstance(want, float) else want.xs)
            for x in sorted(xs):
                assert _value(got, x) == _value(want, x), (l.name, reg.describe(), x)


def test_infinite_values_cover_whole_regions():
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
    sol = solve_reset_acyclic(make_game(locs, trans, 1))
    assert sol.region_values["trap"] == (float("inf"),) * 3
    assert sol.region_values["drain"] == (float("-inf"),) * 3
    (seg,) = sol.values["trap"]
    assert evaluate(seg, F(1, 2)) == float("inf")
    (fm,) = sol.values["m"]
    assert evaluate(fm, F(1, 2)) == 2


def test_reset_target_value_feeds_the_upstream_game(reset_chain):
    """The resetting edge pays its weight plus the target's value at zero."""
    sol = solve_reset_acyclic(reset_chain)
    vb0 = evaluate(sol.values["b"][0], F(0))
    fa = sol.values["a"][0]
    assert evaluate(fa, F(2)) == 3 + vb0


def test_two_games_linked_by_a_reset():
    locs = (
        Location("a", "min", 1, False, None),
        Location("b", "min", 0, False, None),
        Location("bf", "final", 0, False, Affine(1, 0)),
    )
    trans = (
        Transition("a", Guard.closed(0, 1), True, "b", 5),
        Transition("b", Guard.closed(0, 1), False, "bf", 0),
    )
    g = make_game(locs, trans, 1)
    rg = build_region_game(g)
    dag = check_reset_acyclic(rg)
    assert len(dag.reset_edges) == 3
    sol = solve_reset_acyclic(g)
    # b exits at once for phi(nu) = nu; a resets immediately, paying 5
    (fb,) = sol.values["b"]
    assert list(zip(fb.xs, fb.vals)) == [(F(0), F(0)), (F(1), F(1))]
    (fa,) = sol.values["a"]
    assert list(zip(fa.xs, fa.vals)) == [(F(0), F(5)), (F(1), F(5))]
