"""The region Bellman oracle against the per-valuation check it replaced.

``reference_region_bellman_check`` is the earlier body of
``strategy.region_bellman_check``, kept verbatim: at each valuation it
collects every critical point of each transition's window, tries the
target's value and one-sided limits there, and finds each value's region
by a linear scan.  ``RegionBellmanOracle`` answers from per-transition
suffix optima built once, on two integer scales, and must name the same
locations at every valuation.  Claims over a prime above 2**64, checked
where ``ptg verify`` samples and off its grid, take those scales past
machine words.
"""

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from reference import as_segments, from_points, region_bellman_check, region_table, through
from test_properties import usable_guarded

from ptgsolve.document import _sample_points
from ptgsolve.exactmath import INF, NEG_INF, Affine, CostFunction, as_fraction, evaluate, format_value
from ptgsolve.model import MAX, MIN, Game, Guard, Location, Transition, make_game, regions_of
from ptgsolve.regions import solve_reset_acyclic
from ptgsolve.strategy import RegionBellmanOracle, on_scale

F = Fraction


def reference_region_bellman_check(
    g: Game,
    regions: list,
    region_vals: dict,
    nu,
) -> list:
    """Bellman check against per-region value functions of a full game.

    region_vals[name][i] covers the closure of regions[i]; entries may be a
    CostFunction or a bare float infinity.  The one-step cost of a move is
    piecewise affine in the firing time, broken only at region borders and
    target breakpoints, so per transition the optimum over the guard window
    sits at a critical point, either attained there or approached one-sidedly
    (the window end may be excluded, and the target may jump at a border).
    Candidates therefore include the value at each admissible critical point
    and its one-sided limits from inside the window.
    """
    nu = as_fraction(nu)
    bound = as_fraction(g.clock_bound)

    def region_index(x, side: int = 0) -> int:
        # side -1 or +1 asks for the region touching x from below or above,
        # preferring the adjacent open region when x is a border
        for i, reg in enumerate(regions):
            if reg.is_point:
                if side == 0 and reg.lo == x:
                    return i
            else:
                interior = reg.lo < x < reg.hi
                if side == -1 and (reg.hi == x or interior):
                    return i
                if side == +1 and (reg.lo == x or interior):
                    return i
                if side == 0 and interior:
                    return i
        raise KeyError(f"no region for {format_value(x)} (side {side})")

    def value_at(name: str, x, side: int = 0):
        f = region_vals[name][region_index(x, side)]
        if isinstance(f, float):
            return f
        return evaluate(f, x)

    bad = []
    borders = {reg.lo for reg in regions if reg.is_point}
    for l in g.nonfinal_locations:
        lhs = value_at(l.name, nu)
        cands = []
        for i in g.outgoing(l.name):
            t = g.transitions[i]
            lo = max(nu, as_fraction(t.guard.lo))
            hi = bound if isinstance(t.guard.hi, float) else min(bound, as_fraction(t.guard.hi))
            if lo > hi:
                continue
            crit = {lo, hi}
            crit.update(b for b in borders if lo <= b <= hi)
            for f in region_vals[t.target]:
                if not isinstance(f, float):
                    crit.update(x for x in f.xs if lo <= x <= hi)
            for p in sorted(crit):
                base = (p - nu) * l.rate + t.weight
                if t.guard.contains(p) and (p == nu or not l.urgent):
                    arrived = Fraction(0) if t.reset else p
                    cands.append(base + value_at(t.target, arrived))
                if l.urgent:
                    continue
                if p > lo:
                    tv = value_at(t.target, 0) if t.reset else value_at(t.target, p, -1)
                    cands.append(base + tv)
                if p < hi:
                    tv = value_at(t.target, 0) if t.reset else value_at(t.target, p, +1)
                    cands.append(base + tv)
        if not cands:
            rhs = INF
        elif l.owner == MAX:
            rhs = max(cands)
        else:
            rhs = min(cands)
        if rhs != lhs:
            bad.append(l.name)
    return bad


# Small integer coefficients let even random claims meet the one-step
# optimum now and then; layered_claims meets it by construction.
SMALL = st.integers(-2, 2)
BOUNDS = (F(1), F(2), F(3, 2))


@dataclass(frozen=True)
class Numbers:
    """The numbers a claim is drawn from: claimed values and final-cost
    coefficients, transition weights, and where a region's inner
    breakpoints fall, as fractions of its span."""

    value: st.SearchStrategy
    weight: st.SearchStrategy
    inner: st.SearchStrategy


QUARTERS = Numbers(SMALL, SMALL, st.sampled_from((F(1, 4), F(1, 2), F(3, 4))))
# A prime above 2**64: values and breakpoints over it keep it as their
# denominator, so both integer scales of the oracle outgrow machine words.
WIDE_DENOMINATOR = 2**89 - 1
HUGE = st.sampled_from((-(10**6), -1, 0, 1, 10**6))
WIDE = Numbers(
    st.integers(-(10**27), 10**27).map(lambda n: F(n, WIDE_DENOMINATOR)),
    HUGE,
    st.integers(1, WIDE_DENOMINATOR - 1).map(lambda n: F(n, WIDE_DENOMINATOR)),
)


def _points(g: Game, regions, vals: dict) -> list:
    """Every border, breakpoint and the clock bound, and the midpoints."""
    pts = {reg.lo for reg in regions} | {g.clock_bound}
    for per in vals.values():
        for f in per:
            if not isinstance(f, float):
                pts.update(f.xs)
    pts = sorted(pts)
    return pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])]


def _sampled(g: Game, regions, vals: dict) -> list:
    """The valuations `ptg verify --grid 16` samples on these claims, and
    one off-grid point in each gap between them, over a second prime above
    2**64."""
    X, _, bound, borders, tables = on_scale(g, regions, as_segments(regions, vals))
    pts = [F(p, q) for p, q in _sample_points(X, bound, tables.values(), 16, borders)]
    return pts + [a + (b - a) / (2**107 - 1) for a, b in zip(pts, pts[1:])]


def _assert_same(g: Game, vals: dict, points=_points) -> int:
    """Checks both oracles at every point; returns how many locations failed."""
    regions = regions_of(g)
    oracle = RegionBellmanOracle(g, regions, as_segments(regions, vals))
    failed = 0
    for nu in points(g, regions, vals):
        want = reference_region_bellman_check(g, list(regions), vals, nu)
        assert oracle.check(nu.numerator, nu.denominator) == want, f"at {nu}"
        assert region_bellman_check(g, regions, vals, nu) == want, f"at {nu}"
        failed += len(want)
    return failed


def _features(g: Game, vals: dict) -> set:
    """Which of the shapes the draws must cover this claim has."""
    regions = regions_of(g)
    out = set()
    if any(l.urgent for l in g.nonfinal_locations):
        out.add("urgent")
    for t in g.transitions:
        if t.reset:
            out.add("reset")
        if isinstance(t.guard.hi, float):
            out.add("unbounded")
        if not (t.guard.lo_closed and t.guard.hi_closed):
            out.add("open")
    # a breakpoint over 2**64 puts both of the oracle's scales above it
    finite = [f for per in vals.values() for f in per if not isinstance(f, float)]
    if any(x.denominator > 2**64 for f in finite for x in f.xs):
        out.add("wide")
    for l in g.nonfinal_locations:
        per = vals[l.name]
        if any(isinstance(f, float) for f in per):
            out.add("inf")
        for i in range(2, len(regions) - 1, 2):
            b = regions[i].lo
            sides = [f if isinstance(f, float) else evaluate(f, b) for f in per[i - 1 : i + 2]]
            if len(set(sides)) == 3:
                out.add("jump")
    return out


@st.composite
def _locations(draw, n_max: int, rates, numbers: Numbers = QUARTERS):
    names = [f"q{i}" for i in range(draw(st.integers(1, n_max)))]
    finals = [f"f{i}" for i in range(draw(st.integers(1, 2)))]
    locs = [
        Location(q, draw(st.sampled_from((MIN, MAX))), draw(rates), draw(st.booleans()), None)
        for q in names
    ]
    value = numbers.value
    locs += [Location(f, "final", 0, False, Affine(draw(value), draw(value))) for f in finals]
    return names, finals, locs


@st.composite
def _guard(draw, bound):
    """Endpoints on quarters of the bound, either end open, hi possibly +inf."""
    ends = [bound * i / 4 for i in range(5)]
    lo = draw(st.sampled_from(ends))
    hi = draw(st.sampled_from([INF] + [x for x in ends if x >= lo]))
    return Guard(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def _entry(draw, reg, numbers: Numbers = QUARTERS):
    """A claimed value on the closure of one region: an infinity or a few
    affine pieces, drawn apart from its neighbours so borders jump."""
    kind = draw(st.sampled_from(("inf", "-inf", "finite", "finite", "finite")))
    if kind != "finite":
        return INF if kind == "inf" else NEG_INF
    if reg.is_point:
        return CostFunction.point(reg.lo, draw(numbers.value))
    span = reg.hi - reg.lo
    inner = draw(st.sets(numbers.inner.map(lambda r: reg.lo + span * r), max_size=2))
    xs = [reg.lo, *sorted(inner), reg.hi]
    return from_points([(x, draw(numbers.value)) for x in xs])


@st.composite
def _claim(draw, regions, numbers: Numbers = QUARTERS):
    """Jumpy entries, or spikes: one infinity on every open region and the
    other one or a finite value at borders, which only firing exactly at a
    border reaches."""
    if not draw(st.booleans()):
        return tuple(draw(_entry(r, numbers)) for r in regions)
    sign = draw(st.sampled_from((INF, NEG_INF)))
    spikes = st.one_of(st.just(-sign), numbers.value)
    out = []
    for r in regions:
        v = draw(spikes) if r.is_point else sign
        out.append(v if isinstance(v, float) else CostFunction.point(r.lo, v))
    return tuple(out)


def _final_entries(g: Game, regions) -> dict:
    return {
        l.name: tuple(CostFunction.from_affine(r.lo, r.hi, l.final_cost) for r in regions)
        for l in g.final_locations
    }


@st.composite
def guarded_claims(draw):
    """Cyclic games with resets, open and unbounded guards, random claims."""
    bound = draw(st.sampled_from(BOUNDS))
    names, finals, locs = draw(_locations(4, SMALL))
    trans = [
        Transition(q, draw(_guard(bound)), draw(st.booleans()), target, draw(SMALL))
        for q in names
        for target in draw(st.lists(st.sampled_from(names + finals), min_size=1, max_size=3))
    ]
    g = make_game(locs, trans, bound)
    regions = regions_of(g)
    vals = _final_entries(g, regions)
    vals.update({q: draw(_claim(regions)) for q in names})
    return g, vals


class _Probe:
    """A claimed value that records the one-step optimum it is compared with.

    The reference compares it once, as `rhs != lhs`; `==` raises, so any
    other use would show.  Arithmetic gives the probe back, so `evaluate`
    reads it anywhere on the claim's one piece.
    """

    seen = None

    def __ne__(self, other):
        self.seen = other
        return False

    def _itself(self, _):
        return self

    __eq__ = None
    __add__ = __radd__ = __sub__ = __mul__ = __truediv__ = _itself


def _one_step(g: Game, regions, vals: dict, name: str, nu):
    """The reference's right-hand side at (name, nu), read through a probe."""
    probe = _Probe()
    claim = SimpleNamespace(
        lo=F(0), hi=g.clock_bound, xs=(F(0), g.clock_bound), vals=(probe, probe),
    )
    reference_region_bellman_check(g, list(regions), {**vals, name: [claim] * len(regions)}, nu)
    return probe.seen


def _meeting_entry(reg, pts: list, rhs: list):
    """The one-step optimum on one region: exact at pts, affine between them
    and extended affinely to the region's ends; None if it is mixed."""
    if any(isinstance(v, float) for v in rhs):
        return rhs[0] if len(set(rhs)) == 1 else None
    if reg.is_point:
        return CostFunction.point(reg.lo, rhs[0])
    if len(pts) == 1:
        return CostFunction.constant(reg.lo, reg.hi, rhs[0])
    first = through(pts[0], rhs[0], pts[1], rhs[1])
    last = through(pts[-2], rhs[-2], pts[-1], rhs[-1])
    ends = [(reg.lo, first(reg.lo)), *zip(pts, rhs), (reg.hi, last(reg.hi))]
    return from_points(ends)


@st.composite
def layered_claims(draw, numbers: Numbers = QUARTERS, rates=st.integers(-1, 1)):
    """Claims that meet the one-step optimum at the points checked.

    Transitions only lead down the list of locations, so a location's
    one-step optimum depends on the claims below it alone: the lowest ones
    claim jumpy or spiked random values, and each one above claims the
    reference's optimum at every point of each region, interpolated.
    Which limit or which critical point is tried then decides verdicts.
    """
    bound = draw(st.sampled_from(BOUNDS))
    names, finals, locs = draw(_locations(5, rates, numbers))
    trans = []
    for j, q in enumerate(names):
        below = names[j + 1 :] + finals
        for target in draw(st.lists(st.sampled_from(below), min_size=1, max_size=3)):
            trans.append(Transition(q, draw(_guard(bound)), draw(st.booleans()), target, draw(numbers.weight)))
    g = make_game(locs, trans, bound)
    regions = regions_of(g)
    split = draw(st.integers(1, max(1, len(names) - 1)))
    vals = _final_entries(g, regions)
    vals.update({q: draw(_claim(regions, numbers)) for q in names[split:]})
    for j in range(split - 1, -1, -1):
        sub = make_game(
            [l for l in locs if l.name not in names[:j]],
            [t for t in trans if t.source not in names[:j]],
            bound,
        )
        pts = _points(sub, regions, vals)
        per = []
        for reg in regions:
            inside = sorted(p for p in pts if reg.lo < p < reg.hi or p == reg.lo == reg.hi)
            entry = _meeting_entry(reg, inside, [_one_step(sub, regions, vals, names[j], p) for p in inside])
            per.append(draw(_entry(reg, numbers)) if entry is None else entry)
        vals[names[j]] = tuple(per)
    return g, vals


def _moved(draw, vals: dict, names: list) -> dict:
    """A copy of vals with one breakpoint value of one location moved."""
    name = draw(st.sampled_from(names))
    per = list(vals[name])
    finite = [i for i, f in enumerate(per) if not isinstance(f, float)]
    if not finite:
        return vals
    i = draw(st.sampled_from(finite))
    f = per[i]
    k = draw(st.integers(0, len(f.xs) - 1))
    shift = draw(st.sampled_from((F(-1), F(-1, 8), F(1, 8), F(1))))
    points = [(x, v + shift if n == k else v) for n, (x, v) in enumerate(zip(f.xs, f.vals))]
    per[i] = from_points(points)
    return {**vals, name: tuple(per)}


@st.composite
def solved_claims(draw):
    """Reset-acyclic games with their solved values, half with one moved."""
    g = usable_guarded(draw(st.integers(0, 10**6)))
    assume(g is not None)
    vals = region_table(g, solve_reset_acyclic(g).values)
    if draw(st.booleans()):
        vals = _moved(draw, vals, [l.name for l in g.nonfinal_locations])
    return g, vals


def _border_spike():
    """Min waits in q0 for q1, which is worth -inf only exactly at the border
    1/2 and +inf around it: no guard end or breakpoint lies there, so only
    the border as a critical point finds the -inf that q0 claims."""
    locs = [
        Location("q0", MIN, 0, False, None),
        Location("q1", MIN, 0, False, None),
        Location("f0", "final", 0, False, Affine(0, 0)),
    ]
    trans = [
        Transition("q0", Guard.closed(0, 1), False, "q1", 0),
        Transition("q1", Guard.closed(F(1, 2), 1), False, "f0", 0),
    ]
    g = make_game(locs, trans, 1)
    vals = {
        "q0": (NEG_INF, NEG_INF, NEG_INF, INF, INF),
        "q1": (INF, INF, NEG_INF, INF, INF),
        **_final_entries(g, regions_of(g)),
    }
    return g, vals


@settings(max_examples=200, deadline=None, derandomize=True)
@given(guarded_claims())
@example(_border_spike())
def test_oracle_matches_reference_on_jumpy_claims(claim):
    _assert_same(*claim)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(layered_claims())
def test_oracle_matches_reference_on_claims_that_meet_the_optimum(claim):
    _assert_same(*claim)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(solved_claims())
def test_oracle_matches_reference_on_solved_and_moved_values(claim):
    _assert_same(*claim)


def _draw_verdicts(claims, points=_points, phases=settings.default.phases) -> tuple:
    """Checks both oracles on 60 draws of claims at points; returns the
    location-valuations that passed and failed, and the shapes drawn."""
    seen = {"passed": 0, "failed": 0}
    drawn = set()

    @settings(max_examples=60, deadline=None, database=None, derandomize=True, phases=phases)
    @given(claims)
    def collect(claim):
        g, vals = claim
        failed = _assert_same(g, vals, points)
        seen["failed"] += failed
        checked = len(points(g, regions_of(g), vals)) * len(g.nonfinal_locations)
        seen["passed"] += checked - failed
        drawn.update(_features(g, vals))

    collect()
    return seen, drawn


@pytest.mark.parametrize(
    "claims, shapes",
    [
        (guarded_claims, {"jump", "inf", "urgent", "reset", "open", "unbounded"}),
        (layered_claims, {"jump", "inf", "urgent", "reset", "open", "unbounded"}),
        (solved_claims, {"urgent", "reset", "open"}),
    ],
)
def test_draws_exercise_passes_and_failures(claims, shapes):
    # Without both verdicts, and the shapes each kind is meant to draw,
    # the equivalence above would say little.
    seen, drawn = _draw_verdicts(claims())
    assert seen["passed"] > 0 and seen["failed"] > 0
    assert shapes <= drawn


def test_oracle_matches_reference_on_wide_claims():
    # Values, breakpoints and final costs over a prime above 2**64 and
    # weights of +-10**6, checked where `ptg verify` samples and off its
    # grid, with both verdicts, infinite regions and jumps drawn.  Shrinking
    # such a draw takes minutes, so a failure reports the draw as found.
    no_shrink = (Phase.explicit, Phase.reuse, Phase.generate)
    seen, drawn = _draw_verdicts(layered_claims(WIDE, HUGE), _sampled, no_shrink)
    assert seen["passed"] > 0 and seen["failed"] > 0
    assert {"wide", "jump", "inf", "urgent", "reset", "open", "unbounded"} <= drawn
