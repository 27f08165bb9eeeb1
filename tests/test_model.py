import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_calls, load_fixture
from test_properties import GUARDED_SEEDS, usable_guarded
from reference import check_deadlock_free_by_probes, copied_into, max_final_cost, max_transition_weight, regions_by_fraction
from ptgsolve.exactmath import Affine
from ptgsolve.model import (
    GAME,
    Game,
    GameSyntaxError,
    Guard,
    Location,
    Region,
    Transition,
    ValidationError,
    _check_deadlock_free,
    check_sptg,
    json_text,
    loads,
    make_game,
    parse_game,
    read,
    region_table,
    regions_of,
    serialize_game,
    validate_game,
)


def test_parse_fig1_constants():
    g = parse_game(load_fixture("fig1.json"))
    assert len(g.locations) == 8
    assert len(g.transitions) == 12
    assert max_transition_weight(g) == 7
    assert g.max_rate() == 16
    assert max_final_cost(g) == 0
    assert [l.name for l in g.final_locations] == ["lf"]


def test_parse_fig3_reset():
    g = parse_game(load_fixture("fig3.json"))
    assert g.clock_bound == 1
    assert sum(1 for t in g.transitions if t.reset) == 1


def test_final_with_outgoing_edge_rejected():
    doc = json.loads(load_fixture("fig1.json"))
    doc["transitions"].append(
        {"from": "lf", "to": "l1",
         "guard": {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True},
         "reset": False, "weight": 0}
    )
    with pytest.raises(ValidationError) as err:
        parse_game(json.dumps(doc))
    assert err.value.reason == "final with outgoing edge"


def test_unknown_location_rejected():
    doc = json.loads(load_fixture("fig1.json"))
    doc["transitions"][0]["to"] = "nowhere"
    with pytest.raises(ValidationError):
        parse_game(json.dumps(doc))


def test_guard_beyond_clock_bound_rejected():
    doc = json.loads(load_fixture("fig1.json"))
    doc["transitions"][0]["guard"]["hi"] = "2"
    with pytest.raises(ValidationError) as err:
        parse_game(json.dumps(doc))
    assert err.value.reason == "guard out of bounds"


def test_rational_guard_endpoint_rejected():
    doc = json.loads(load_fixture("fig1.json"))
    doc["transitions"][0]["guard"]["hi"] = "1/2"
    with pytest.raises(ValidationError):
        parse_game(json.dumps(doc))


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"guard": {"lo": "-1"}}, "guard out of bounds: l1->l2: lo -1"),
        ({"guard": {"lo": "1/2"}}, "guard out of bounds: l1->l2: lo 1/2"),
        ({"guard": {"hi": "1/2"}}, "guard out of bounds: l1->l2: hi 1/2"),
        ({"guard": {"hi": "2"}}, "guard out of bounds: l1->l2: [0,2] exceeds clock bound 1"),
        ({"guard": {"lo": "1", "hi": "0"}}, "guard out of bounds: l1->l2: empty guard [1,0]"),
        ({"guard": {"lo": "1", "hi": "1", "hi_closed": False}}, "guard out of bounds: l1->l2: empty guard [1,1)"),
    ],
)
def test_guard_refusals_name_the_guard(edit, message):
    """The guard checks compare numerators once the denominators are known
    to be 1; the refusals read as they did when they compared Fractions."""
    doc = json.loads(load_fixture("fig1.json"))
    doc["transitions"][0]["guard"].update(edit["guard"])
    with pytest.raises(ValidationError) as err:
        parse_game(json.dumps(doc))
    assert str(err.value) == message


def test_validate_game_makes_no_fraction_call():
    """Past each denominator-1 check, `validate_game` compares the bound
    and the guard ends by their numerators, and `Guard.is_empty`
    cross-multiplies its ends, so validating a game calls no Fraction
    method once its region table is built (that table's cut points are
    the Fractions a parsed game gets, one per cut).  Comparing the
    Fractions took about 9.4 comparisons and 1.9 equality tests per drawn
    guarded game."""
    texts = [load_fixture(n) for n in ("fig1.json", "reset_chain.json", "guarded_jump.json", "urgent_border.json")]
    texts += [serialize_game(usable_guarded(s)) for s in GUARDED_SEEDS[:30] if usable_guarded(s) is not None]
    games = [read(GAME, loads(t, GameSyntaxError), GameSyntaxError) for t in texts]
    for g in games:
        region_table(g)
    assert fraction_calls(lambda: [validate_game(g) for g in games]) == {}


def test_unbounded_guard_rejected():
    doc = json.loads(load_fixture("fig1.json"))
    doc["transitions"][0]["guard"]["hi"] = "+inf"
    with pytest.raises(ValidationError):
        parse_game(json.dumps(doc))


def test_missing_final_cost_rejected():
    doc = json.loads(load_fixture("fig1.json"))
    del doc["locations"][-1]["final_cost"]
    with pytest.raises(ValidationError):
        parse_game(json.dumps(doc))


def test_deadlocked_location_rejected():
    doc = json.loads(load_fixture("fig1.json"))
    doc["transitions"] = [t for t in doc["transitions"] if t["from"] != "l7"]
    with pytest.raises(ValidationError) as err:
        parse_game(json.dumps(doc))
    assert err.value.reason == "deadlock"


def test_waiting_reaches_late_guard():
    # a location whose only guard sits at the clock bound is fine when it can wait
    text = json.dumps({
        "clock_bound": 1,
        "locations": [
            {"name": "a", "owner": "min", "rate": 0, "urgent": False},
            {"name": "f", "owner": "final", "rate": 0, "urgent": False,
             "final_cost": {"slope": "0", "intercept": "0"}},
        ],
        "transitions": [
            {"from": "a", "to": "f",
             "guard": {"lo": "1", "hi": "1", "lo_closed": True, "hi_closed": True},
             "reset": False, "weight": 0},
        ],
    })
    g = parse_game(text)
    assert g.location("a").owner == "min"


def test_urgent_location_needs_guard_everywhere():
    text = json.dumps({
        "clock_bound": 1,
        "locations": [
            {"name": "a", "owner": "min", "rate": 0, "urgent": True},
            {"name": "f", "owner": "final", "rate": 0, "urgent": False,
             "final_cost": {"slope": "0", "intercept": "0"}},
        ],
        "transitions": [
            {"from": "a", "to": "f",
             "guard": {"lo": "1", "hi": "1", "lo_closed": True, "hi_closed": True},
             "reset": False, "weight": 0},
        ],
    })
    with pytest.raises(ValidationError) as err:
        parse_game(text)
    assert err.value.reason == "deadlock"


def test_not_json_is_syntax_error():
    with pytest.raises(GameSyntaxError):
        parse_game("not json at all")


def _fig1_with(path, value) -> str:
    """fig1's document with the field at path (keys and indices) set to value."""
    doc = json.loads(load_fixture("fig1.json"))
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return json.dumps(doc)


# Each of these once parsed: bool() made every non-empty string true, and
# bool is a subclass of int.
STRICT_TYPE_CASES = {
    "urgent": (("locations", 0, "urgent"), "false", "locations[0].urgent: must be true or false"),
    "reset": (("transitions", 0, "reset"), "no", "transitions[0].reset: must be true or false"),
    "lo_closed": (("transitions", 0, "guard", "lo_closed"), "no", "transitions[0].guard.lo_closed: must be true or false"),
    "hi_closed": (("transitions", 0, "guard", "hi_closed"), 1, "transitions[0].guard.hi_closed: must be true or false"),
    "clock_bound": (("clock_bound",), True, "clock_bound: must be an integer"),
    "rate": (("locations", 0, "rate"), True, "locations[0].rate: must be an integer"),
    "weight": (("transitions", 0, "weight"), True, "transitions[0].weight: must be an integer"),
    # rational fields once took JSON numbers and booleans: Fraction(True) is 1
    "lo": (("transitions", 0, "guard", "lo"), 0.0, "transitions[0].guard.lo: must be a string literal"),
    "hi": (("transitions", 0, "guard", "hi"), True, "transitions[0].guard.hi: must be a string literal"),
    "slope": (("locations", 7, "final_cost", "slope"), 0, "locations[7].final_cost.slope: must be a string literal"),
    "intercept": (
        ("locations", 7, "final_cost", "intercept"),
        False,
        "locations[7].final_cost.intercept: must be a string literal",
    ),
}


@pytest.mark.parametrize("field", sorted(STRICT_TYPE_CASES))
def test_parse_rejects_wrong_json_types(field):
    path, value, reason = STRICT_TYPE_CASES[field]
    with pytest.raises(GameSyntaxError, match=re.escape(reason)):
        parse_game(_fig1_with(path, value))


def test_check_sptg():
    fig1 = parse_game(load_fixture("fig1.json"))
    fig3 = parse_game(load_fixture("fig3.json"))
    assert check_sptg(fig1)
    assert not check_sptg(fig3)
    # guards [0, 1] and no reset, but on [0, 2]
    assert not check_sptg(make_game(fig1.locations, fig1.transitions, 2))


def test_regions_single_guard():
    g = parse_game(load_fixture("fig1.json"))
    assert regions_of(g) == (Region(0, 0), Region(0, 1), Region(1, 1))


def test_regions_mixed_guards():
    g = parse_game(load_fixture("reset_chain.json"))
    assert regions_of(g) == (
        Region(0, 0), Region(0, 1), Region(1, 1), Region(1, 2), Region(2, 2),
    )


def test_regions_partition_bound():
    g = parse_game(load_fixture("reset_chain.json"))
    regs = regions_of(g)
    # the union covers [0, M] with no overlap: points alternate with opens
    assert regs[0].lo == 0 and regs[-1].hi == g.clock_bound
    for left, right in zip(regs, regs[1:]):
        assert left.hi == right.lo
        assert left.is_point != right.is_point


def test_serialize_round_trip():
    for name in ("fig1.json", "fig3.json", "appc.json", "urgent_all.json", "reset_chain.json"):
        g = parse_game(load_fixture(name))
        assert parse_game(serialize_game(g)) == g


_TEXT = st.text() | st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f é€😀\u2028'), max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | _TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON)
def test_json_text_is_the_stdlib_indented_encoding(obj):
    want = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert json_text(obj) + "\n" == want


@pytest.mark.parametrize(
    "obj", [F(1, 2), 0.5, float("inf"), {"x": [1, F(3)]}, [{"a": 1.0}], {1: "a"}, (1, 2), b"1"]
)
def test_json_text_refuses_what_documents_do_not_hold(obj):
    # the stdlib would write a float, "Infinity" included, or a tuple as a list
    with pytest.raises(TypeError):
        json_text(obj)


def test_weight_bound_invariant():
    g = parse_game(load_fixture("fig1.json"))
    cap = max_transition_weight(g)
    widened = make_game(
        g.locations,
        list(g.transitions)
        + [Transition("l1", Guard.closed(0, 1), False, "lf", cap)],
        g.clock_bound,
    )
    assert max_transition_weight(widened) == cap


def test_internal_games_allow_rational_guards():
    loc = Location("a", "min", F(0), False, None)
    fin = Location("f", "final", F(0), False, Affine(0, 0))
    t = Transition("a", Guard.closed(0, F(3, 4)), False, "f", 0)
    g = make_game([loc, fin], [t], 1)
    assert g.transitions[0].guard.hi == F(3, 4)


@st.composite
def rational_guard_games(draw):
    """Small games built in code, their guard ends rationals in [0, bound]
    on a grid of quarters, so that ends fall on and between each other."""
    bound = draw(st.integers(1, 3))
    ends = st.integers(0, 4 * bound).map(lambda n: F(n, 4))
    names = [f"l{i}" for i in range(draw(st.integers(1, 3)))]
    locs = [Location(n, draw(st.sampled_from(("min", "max"))), 0, draw(st.booleans())) for n in names]
    locs.append(Location("f", "final", 0, False, Affine(0, 0)))
    edges = []
    for n in names:
        for _ in range(draw(st.integers(0, 4))):
            lo, hi = sorted((draw(ends), draw(ends)))
            guard = Guard(lo, hi, draw(st.booleans()), draw(st.booleans()))
            edges.append(Transition(n, guard, False, draw(st.sampled_from(names + ["f"])), 0))
    return make_game(locs, edges, bound)


def _verdict(check, g):
    try:
        check(g)
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rational_guard_games())
def test_deadlock_check_reads_regions_as_the_probes_did(g):
    # the reference probes a region's point or midpoint, and asks whether a
    # guard reaches above a point; the same verdict, and the same first
    # failing region named
    assert _verdict(_check_deadlock_free, g) == _verdict(check_deadlock_free_by_probes, g)


@st.composite
def loose_guard_games(draw):
    """Games built in code whose guard ends may lie off the grid of the
    bound, below 0, above the bound or at +inf, with a rational bound."""
    bound = F(draw(st.integers(0, 12)), 4)
    end = st.integers(-2, 14).map(lambda n: F(n, 4)) | st.integers(-3, 9).map(lambda n: F(n, 3))
    locs = [Location("m", "min", 0, False), Location("f", "final", 0, False, Affine(0, 0))]
    edges = []
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = draw(end), draw(end | st.just(float("inf")))
        edges.append(Transition("m", Guard(lo, hi, draw(st.booleans()), draw(st.booleans())), False, "f", 0))
    return make_game(locs, edges, bound)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(loose_guard_games())
def test_region_table_reads_guards_as_the_fraction_ends_do(g):
    # the table runs on the integers of one scale G; reading each guard
    # against each region by their Fraction ends gives the same regions,
    # exact Fractions, and the same copies, one run of regions per guard
    regions, enabled = region_table(g)
    assert regions == regions_by_fraction(g)
    # a point region exactly at each even index, as the region pipeline reads them
    assert [reg.is_point for reg in regions] == [i % 2 == 0 for i in range(len(regions))]
    assert all(type(x) is F for reg in regions for x in (reg.lo, reg.hi))
    for t, run in zip(g.transitions, enabled):
        assert list(run) == [i for i, reg in enumerate(regions) if copied_into(t.guard, reg)]
