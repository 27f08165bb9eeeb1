from fractions import Fraction

import pytest

from conftest import load_fixture
from reference import (
    Unresolved,
    bellman_check,
    fake_value_upper_bound,
    from_points,
    region_bellman_check,
    validate_nc,
)

from ptgsolve.document import fp_to_json
from ptgsolve.exactmath import INF, Affine, CostFunction
from ptgsolve.model import Config, Guard, Location, Transition, make_game, parse_game, regions_of
from ptgsolve.strategy import (
    FPStrategy,
    IllegalMove,
    Move,
    SwitchingStrategy,
    play_out,
)

F = Fraction


def constant_fp(g, choices):
    """FP strategy firing the same transition at every valuation."""
    rows = {}
    ends = {}
    for name, idx in choices.items():
        rows[name] = [(F(0), g.clock_bound, Move.now(idx))]
        ends[name] = Move.now(idx)
    return FPStrategy(rows, ends)


def t_index(g, src, tgt):
    for i in g.outgoing(src):
        if g.transitions[i].target == tgt:
            return i
    raise LookupError(f"{src}->{tgt}")


@pytest.fixture(scope="module")
def appc():
    return parse_game(load_fixture("appc.json"))


@pytest.fixture(scope="module")
def appc_strategies(appc):
    g = appc
    max_fp = constant_fp(g, {"l1": t_index(g, "l1", "lf")})
    sigma1 = constant_fp(g, {"l2": t_index(g, "l2", "l1")})
    switching = SwitchingStrategy(sigma1, {"l2": t_index(g, "l2", "lf")}, F(-30))
    return max_fp, switching


def test_play_out_optimal_pair(appc, appc_strategies):
    max_fp, switching = appc_strategies
    play = play_out(appc, Config("l1", F(0)), switching, max_fp)
    assert play.reached_final
    assert play.final_location == "lf"
    assert play.cost == -10


def test_switching_beats_cycling_max(appc, appc_strategies):
    _, switching = appc_strategies
    cycling = constant_fp(appc, {"l1": t_index(appc, "l1", "l2")})
    play = play_out(appc, Config("l1", F(0)), switching, cycling)
    assert play.reached_final
    assert play.cost <= -10
    assert play.cost == -31  # 31 laps of the -1 cycle, then the exit


def test_sigma1_alone_never_terminates(appc, appc_strategies):
    max_fp, switching = appc_strategies
    cycling = constant_fp(appc, {"l1": t_index(appc, "l1", "l2")})
    play = play_out(appc, Config("l1", F(0)), switching.sigma1, cycling, max_steps=500)
    assert not play.reached_final
    assert play.cost == INF


def test_play_respects_guards_and_resets():
    g = parse_game(load_fixture("reset_chain.json"))
    max_fp = FPStrategy(
        {"a": [(F(0), F(2), Move.wait_until(F(1), t_index(g, "a", "b")))]},
        {"a": Move.now(t_index(g, "a", "b"))},
    )
    min_fp = constant_fp(g, {"b": t_index(g, "b", "bf")})
    play = play_out(g, Config("a", F(0)), min_fp, max_fp)
    assert play.reached_final
    # waiting 1 at rate -1 costs -1, the reset edge adds 3, then the final
    # is entered at valuation 0 where its cost vanishes
    assert play.cost == 2
    assert play.steps[0].wait == 1
    assert play.final_valuation == 0


def test_illegal_wait_at_urgent_location():
    g = parse_game(load_fixture("urgent_all.json"))
    fp = FPStrategy(
        {"l3": [(F(0), F(1), Move.wait_until(F(1), 0))]},
        {"l3": Move.wait_until(F(1), 0)},
    )
    dummy = constant_fp(g, {})
    with pytest.raises(IllegalMove):
        play_out(g, Config("l3", F(0)), fp, dummy)


def test_illegal_guard_violation():
    g = parse_game(load_fixture("reset_chain.json"))
    # firing a->b immediately at valuation 0 violates the [1,2] guard
    max_fp = constant_fp(g, {"a": t_index(g, "a", "b")})
    min_fp = constant_fp(g, {"b": t_index(g, "b", "bf")})
    with pytest.raises(IllegalMove):
        play_out(g, Config("a", F(0)), min_fp, max_fp)


def test_validate_nc_accepts_strict_cycle(appc, appc_strategies):
    max_fp, switching = appc_strategies
    assert validate_nc(appc, switching.sigma1) == []


def test_validate_nc_flags_zero_cycle():
    locs = (
        Location("a", "min", 0, True, None),
        Location("b", "min", 0, True, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (
        Transition("a", Guard.closed(0, 1), False, "b", 0),
        Transition("b", Guard.closed(0, 1), False, "a", 0),
        Transition("b", Guard.closed(0, 1), False, "f", 0),
    )
    g = make_game(locs, trans, 1)
    looping = constant_fp(g, {"a": 0, "b": 1})
    bad = validate_nc(g, looping)
    assert bad
    rep, cycle = bad[0]
    assert set(cycle) == {"a", "b"}
    escaping = constant_fp(g, {"a": 0, "b": 2})
    assert validate_nc(g, escaping) == []


def test_validate_nc_flags_positive_max_cycle():
    locs = (
        Location("m", "min", 0, True, None),
        Location("x", "max", 0, True, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (
        Transition("m", Guard.closed(0, 1), False, "x", 0),
        Transition("m", Guard.closed(0, 1), False, "f", 0),
        Transition("x", Guard.closed(0, 1), False, "m", 1),
        Transition("x", Guard.closed(0, 1), False, "f", 0),
    )
    g = make_game(locs, trans, 1)
    into_cycle = constant_fp(g, {"m": 0})
    bad = validate_nc(g, into_cycle)
    assert bad and set(bad[0][1]) == {"m", "x"}


def test_fake_value_optimal_max(appc, appc_strategies):
    max_fp, _ = appc_strategies
    assert fake_value_upper_bound(appc, max_fp, Config("l1", F(0))) == -10
    assert fake_value_upper_bound(appc, max_fp, Config("l2", F(0))) == -10


def test_fake_value_cycling_max_is_acyclic_bound(appc):
    cycling = constant_fp(appc, {"l1": t_index(appc, "l1", "l2")})
    # against the cycling strategy Min can lap once per reachable valuation
    # (here 0 and 1) before exiting; the true best response is unbounded
    # below, and the acyclic exploration reports only the lap-free bound
    assert fake_value_upper_bound(appc, cycling, Config("l1", F(0))) == -2


def test_fake_value_budget():
    g = parse_game(load_fixture("appc.json"))
    fp = constant_fp(g, {"l1": t_index(g, "l1", "lf")})
    out = fake_value_upper_bound(g, fp, Config("l1", F(0)), budget=1)
    assert isinstance(out, Unresolved)


def test_fake_value_waits_when_cheaper():
    locs = (
        Location("m", "min", -2, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (Transition("m", Guard.closed(0, 1), False, "f", 0),)
    g = make_game(locs, trans, 1)
    fp = FPStrategy({}, {})
    # waiting to 1 at rate -2 is the whole gain
    assert fake_value_upper_bound(g, fp, Config("m", F(1, 4))) == F(-3, 2)


def test_bellman_accepts_true_values():
    g = parse_game(load_fixture("urgent_all.json"))
    vals = {
        "l3": from_points(
            [(F(0), F(-10)), (F(6, 19), F(-94, 19)), (F(1), F(-7))]
        ),
        "l4": CostFunction.from_affine(0, 1, Affine(-3, -4)),
        "l7": CostFunction.from_affine(0, 1, Affine(16, -16)),
    }
    for nu in (F(0), F(1, 7), F(6, 19), F(1, 2), F(1)):
        assert bellman_check(g, vals, nu) == []


def test_bellman_rejects_shifted_values():
    g = parse_game(load_fixture("urgent_all.json"))
    vals = {
        "l3": CostFunction.constant(0, 1, F(0)),
        "l4": CostFunction.from_affine(0, 1, Affine(-3, -4)),
        "l7": CostFunction.from_affine(0, 1, Affine(16, -16)),
    }
    assert bellman_check(g, vals, F(1, 2)) == ["l3"]


def test_bellman_uses_waiting_candidates():
    locs = (
        Location("m", "min", -1, False, None),
        Location("f", "final", 0, False, Affine(2, 0)),
    )
    trans = (Transition("m", Guard.closed(0, 1), False, "f", 0),)
    g = make_game(locs, trans, 1)
    # waiting is a losing move here: rate -1 against final slope 2 means
    # firing immediately is optimal, val(m) = 2 nu
    good = {"m": CostFunction.from_affine(0, 1, Affine(2, 0))}
    assert bellman_check(g, good, F(1, 3)) == []
    # pretending the value tracks the waiting payoff is flagged
    # (1/3 would be the accidental crossing of the two lines, avoid it)
    bad = {"m": CostFunction.from_affine(0, 1, Affine(-1, 1))}
    assert bellman_check(g, bad, F(1, 2)) == ["m"]


def region_values_reset_chain(g):
    regs = regions_of(g)
    a = [
        CostFunction.point(F(0), F(2)),
        from_points([(F(0), F(2)), (F(1), F(3))]),
        CostFunction.point(F(1), F(3)),
        CostFunction.constant(1, 2, F(3)),
        CostFunction.point(F(2), F(3)),
    ]
    ident = [
        CostFunction.point(F(0), F(0)),
        from_points([(F(0), F(0)), (F(1), F(1))]),
        CostFunction.point(F(1), F(1)),
        from_points([(F(1), F(1)), (F(2), F(2))]),
        CostFunction.point(F(2), F(2)),
    ]
    return regs, {"a": a, "b": ident, "bf": ident}


def test_region_bellman_accepts_reset_chain():
    g = parse_game(load_fixture("reset_chain.json"))
    regs, vals = region_values_reset_chain(g)
    for nu in (F(0), F(1, 2), F(1), F(3, 2), F(2)):
        assert region_bellman_check(g, regs, vals, nu) == []


def test_region_bellman_rejects_wrong_plateau():
    g = parse_game(load_fixture("reset_chain.json"))
    regs, vals = region_values_reset_chain(g)
    vals = dict(vals)
    vals["a"] = list(vals["a"])
    vals["a"][3] = CostFunction.constant(1, 2, F(4))
    assert "a" in region_bellman_check(g, regs, vals, F(3, 2))


def test_region_bellman_takes_left_limits():
    locs = (
        Location("m", "max", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (Transition("m", Guard.closed(0, 1), False, "f", 0),)
    g = make_game(locs, trans, 1)
    regs = regions_of(g)
    # fabricated target values that jump down at the border: approaching 1
    # from the left is worth 1, arriving exactly at 1 is worth 0
    f_vals = [
        CostFunction.point(F(0), F(0)),
        from_points([(F(0), F(0)), (F(1), F(1))]),
        CostFunction.point(F(1), F(0)),
    ]
    m_vals = [
        CostFunction.point(F(0), F(1)),
        CostFunction.constant(0, 1, F(1)),
        CostFunction.point(F(1), F(0)),
    ]
    vals = {"m": m_vals, "f": f_vals}
    assert region_bellman_check(g, regs, vals, F(0)) == []
    assert region_bellman_check(g, regs, vals, F(1, 2)) == []
    assert region_bellman_check(g, regs, vals, F(1)) == []


def test_fp_round_trip_shape(appc, appc_strategies):
    max_fp, _ = appc_strategies
    blob = fp_to_json(appc, max_fp)
    assert blob["l1"]["rows"][0]["interval"] == ["0", "1"]
    assert blob["l1"]["rows"][0]["move"]["type"] == "now"
    assert blob["l1"]["at_end"]["to"] == "lf"
