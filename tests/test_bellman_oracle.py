"""The Bellman check of continuous claims against the checks it replaced.

``reference_bellman_check`` is the earlier body of ``strategy.bellman_check``,
kept verbatim: at each valuation it re-evaluates every transition's target
at the clock bound, at each of the target's breakpoints and at each guard
endpoint, and counts only values that are attained.  ``bellman_check`` now
reads the claims over the game's guard-endpoint regions through
``RegionBellmanOracle``, where the one-sided limit at an open guard end
counts too: the value is an infimum or supremum, approached there.  So it
must name the same locations as the reference on games whose guards are
closed at every end in [0, bound], and the same locations as
``reference_region_bellman_check`` over the claims split by region on
every game.  A continuous claim does not depend on how the clock range is
split, so the oracle over the coarse partition {0}, (0, bound), {bound}
must agree as well.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import as_segments, bellman_check, from_points, restrict
from test_region_bellman_oracle import reference_region_bellman_check

from ptgsolve.exactmath import INF, NEG_INF, Affine, CostFunction, as_fraction, evaluate
from ptgsolve.model import MAX, MIN, Game, Guard, Location, Region, Transition, make_game, regions_of
from ptgsolve.solver import solve
from ptgsolve.strategy import RegionBellmanOracle

F = Fraction


def reference_bellman_check(g: Game, vals: dict, nu) -> list:
    """Names of locations whose claimed value is not locally optimal at nu.

    For each transition the candidate delays are 0, the delays landing on a
    breakpoint of the target's value function, and the delay to the clock
    bound; between those the one-step cost is affine in the delay, so they
    carry the optimum.
    """
    nu = as_fraction(nu)
    bound = as_fraction(g.clock_bound)
    bad = []
    for l in g.nonfinal_locations:
        lhs = evaluate(vals[l.name], nu)
        cands = []
        for i in g.outgoing(l.name):
            t = g.transitions[i]
            target = g.location(t.target)
            if target.is_final:
                tgt_at = target.final_cost
                tgt_breaks = ()
            else:
                tgt_fn = vals[t.target]
                tgt_at = lambda x, f=tgt_fn: evaluate(f, x)
                tgt_breaks = tgt_fn.xs
            if l.urgent:
                delays = [Fraction(0)]
            else:
                delays = {Fraction(0), bound - nu}
                for k in (*tgt_breaks, t.guard.lo, t.guard.hi):
                    if nu <= k <= bound:
                        delays.add(as_fraction(k) - nu)
                delays = sorted(delays)
            for d in delays:
                fire = nu + d
                if not t.guard.contains(fire):
                    continue
                arrived = Fraction(0) if t.reset else fire
                cands.append(d * l.rate + t.weight + tgt_at(arrived))
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


def _points(g: Game, vals: dict) -> list:
    """Every breakpoint, guard endpoint and clock bound, and the midpoints."""
    bound = g.clock_bound
    pts = {F(0), bound}
    for f in vals.values():
        pts.update(f.xs)
    for t in g.transitions:
        pts.update(k for k in (t.guard.lo, t.guard.hi) if 0 <= k <= bound)
    pts = sorted(pts)
    return pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])]


def _closed_in_range(g: Game) -> bool:
    """Is every guard closed at each of its ends inside [0, bound]?"""
    bound = g.clock_bound
    return all(
        (t.guard.lo_closed or t.guard.lo > bound)
        and (t.guard.hi_closed or isinstance(t.guard.hi, float) or t.guard.hi > bound)
        for t in g.transitions
    )


def _split(g: Game, regions, vals: dict) -> dict:
    """The claims cut into one entry per region, finals from their final cost."""
    return {
        l.name: tuple(
            CostFunction.from_affine(r.lo, r.hi, l.final_cost)
            if l.is_final
            else restrict(vals[l.name], r.lo, r.hi)
            for r in regions
        )
        for l in g.locations
    }


def _assert_same(g: Game, vals: dict) -> int:
    """Checks bellman_check against the references at every point; returns
    how many locations failed."""
    regions = regions_of(g)
    split = _split(g, regions, vals)
    bound = g.clock_bound
    coarse = (Region(0, 0), Region(0, bound), Region(bound, bound))
    whole = RegionBellmanOracle(g, coarse, as_segments(coarse, _split(g, coarse, vals)))
    closed = _closed_in_range(g)
    failed = 0
    for nu in _points(g, vals):
        got = bellman_check(g, vals, nu)
        assert got == reference_region_bellman_check(g, list(regions), split, nu), f"at {nu}"
        assert whole.check(nu.numerator, nu.denominator) == got, f"at {nu}"
        if closed:
            assert got == reference_bellman_check(g, vals, nu), f"at {nu}"
        failed += len(got)
    return failed


@st.composite
def _locations(draw, n_max: int, finals_max: int, rates):
    names = [f"q{i}" for i in range(draw(st.integers(1, n_max)))]
    finals = [f"f{i}" for i in range(draw(st.integers(1, finals_max)))]
    locs = [
        Location(q, draw(st.sampled_from((MIN, MAX))), draw(rates), draw(st.booleans()), None)
        for q in names
    ]
    locs += [Location(f, "final", 0, False, Affine(draw(SMALL), draw(SMALL))) for f in finals]
    return names, finals, locs


@st.composite
def _claim(draw, bound, finite=False):
    """A claimed value function on [0, bound]: infinite, or a few affine pieces."""
    kind = "finite" if finite else draw(st.sampled_from(("inf", "-inf", "finite", "finite")))
    if kind != "finite":
        return CostFunction.constant(0, bound, INF if kind == "inf" else NEG_INF)
    inner = draw(st.sets(st.sampled_from([bound * i / 8 for i in range(1, 8)]), max_size=3))
    xs = [F(0), *sorted(inner), bound]
    return from_points([(x, draw(SMALL)) for x in xs])


@st.composite
def _guard(draw, bound, closed=False):
    """Endpoints on quarters of the bound, hi possibly +inf, and unless
    closed either end open."""
    ends = [bound * i / 4 for i in range(5)]
    lo = draw(st.sampled_from(ends))
    hi = draw(st.sampled_from([INF] + [x for x in ends if x >= lo]))
    if closed:
        return Guard(lo, hi)
    return Guard(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def guarded_claims(draw, closed=False):
    """Games with resets, open and unbounded guards, and arbitrary claims."""
    bound = draw(st.sampled_from((F(1), F(2), F(3, 2))))
    names, finals, locs = draw(_locations(4, 3, SMALL))
    trans = [
        Transition(q, draw(_guard(bound, closed)), draw(st.booleans()), target, draw(SMALL))
        for q in names
        for target in draw(st.lists(st.sampled_from(names + finals), min_size=1, max_size=3))
    ]
    vals = {q: draw(_claim(bound)) for q in names}
    return make_game(locs, trans, bound), vals


def closed_guard_claims():
    """guarded_claims with every guard closed: the draws on which the
    attained-only reference still decides, as only about one in nine
    guarded_claims draws has no open guard end."""
    return guarded_claims(closed=True)


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


def _one_step(g: Game, vals: dict, name: str, nu):
    """The reference's right-hand side at (name, nu), read through a probe."""
    probe = _Probe()
    claim = SimpleNamespace(
        lo=F(0), hi=g.clock_bound, xs=(F(0), g.clock_bound), vals=(probe, probe),
    )
    reference_bellman_check(g, {**vals, name: claim}, nu)
    return probe.seen


@st.composite
def layered_claims(draw):
    """Claims that meet the one-step optimum at their breakpoints.

    Transitions only lead down the list of locations, so a location's
    one-step optimum depends on the claims below it alone: the lowest ones
    claim random functions with kinks, and each one above claims the
    reference's optimum at every breakpoint, guard endpoint and midpoint,
    interpolated.  Waiting for a kink below then decides a verdict.
    """
    bound = draw(st.sampled_from((F(1), F(2), F(3, 2))))
    names, finals, locs = draw(_locations(5, 3, st.integers(-1, 1)))
    trans = []
    for j, q in enumerate(names):
        below = names[j + 1 :] + finals
        full = Guard.closed(0, bound)
        trans.append(Transition(q, full, draw(st.booleans()), draw(st.sampled_from(below)), 0))
        for target in draw(st.lists(st.sampled_from(below), max_size=3)):
            trans.append(Transition(q, draw(_guard(bound)), draw(st.booleans()), target, draw(SMALL)))
    split = draw(st.integers(1, max(1, len(names) - 1)))
    vals = {q: draw(_claim(bound, finite=True)) for q in names[split:]}
    for j in range(split - 1, -1, -1):
        sub = make_game(
            [l for l in locs if l.name not in names[:j]],
            [t for t in trans if t.source not in names[:j]],
            bound,
        )
        pts = _points(sub, vals)
        rhs = [_one_step(sub, vals, names[j], p) for p in pts]
        if any(isinstance(v, float) for v in rhs):
            vals[names[j]] = draw(_claim(bound))
        else:
            vals[names[j]] = from_points(sorted(zip(pts, rhs)))
    return make_game(locs, trans, bound), vals


@st.composite
def solved_claims(draw):
    """Simple games with their solved values, sometimes with one value moved."""
    names, finals, locs = draw(_locations(4, 3, st.integers(-3, 3)))
    trans = [
        Transition(q, Guard.closed(0, 1), False, draw(st.sampled_from(names + finals)), w)
        for q in names
        for w in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    ]
    g = make_game(locs, trans, 1)
    # an empty core's values are infinite constants, the finals their lines
    vals = dict(solve(g).values)
    moved = draw(st.sampled_from(names))
    f = vals[moved]
    if draw(st.booleans()) and not isinstance(f.vals[0], float):
        i = draw(st.integers(0, len(f.xs) - 1))
        shift = draw(st.sampled_from((F(-1), F(-1, 8), F(1, 8), F(1))))
        points = list(zip(f.xs, f.vals))
        points[i] = (points[i][0], points[i][1] + shift)
        vals[moved] = from_points(points)
    return g, vals


@settings(max_examples=200, deadline=None, derandomize=True)
@given(guarded_claims())
def test_oracle_matches_reference_on_guarded_games(claim):
    _assert_same(*claim)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(closed_guard_claims())
def test_oracle_matches_reference_on_closed_guards(claim):
    g, vals = claim
    assert _closed_in_range(g)
    _assert_same(g, vals)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(layered_claims())
def test_oracle_matches_reference_on_claims_that_meet_the_optimum(claim):
    _assert_same(*claim)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(solved_claims())
def test_oracle_matches_reference_on_solved_and_moved_values(claim):
    _assert_same(*claim)


def test_open_guard_end_counts_its_limit():
    # Min may fire into f, worth -x, on [0, 1/2): from 1/4 the value is
    # -1/2, approached by firing ever closer to 1/2 but never attained.
    # The attained-only reference took -1/4, firing now, as the optimum.
    locs = [Location("m", MIN, 0, False, None), Location("f", "final", 0, False, Affine(-1, 0))]
    g = make_game(locs, [Transition("m", Guard(0, F(1, 2), True, False), False, "f", 0)], 1)
    limit = {"m": CostFunction.constant(0, 1, F(-1, 2))}
    attained = {"m": CostFunction.from_affine(0, 1, Affine(-1, 0))}
    assert bellman_check(g, limit, F(1, 4)) == []
    assert bellman_check(g, attained, F(1, 4)) == ["m"]
    assert reference_bellman_check(g, limit, F(1, 4)) == ["m"]
    assert reference_bellman_check(g, attained, F(1, 4)) == []


def test_open_guard_end_off_a_border_counts_its_right_limit():
    # Min may fire into f, worth x, on (1/4, 1]: at 1/4 the value is 1/4,
    # approached by firing ever sooner.  Over {0}, (0, 1), {1} the guard
    # end 1/4 is no border, so only its openness brings in the right limit.
    locs = [Location("m", MIN, 0, False, None), Location("f", "final", 0, False, Affine(1, 0))]
    g = make_game(locs, [Transition("m", Guard(F(1, 4), 1, False, True), False, "f", 0)], 1)
    coarse = (Region(0, 0), Region(0, 1), Region(1, 1))
    claim = {"m": CostFunction.constant(0, 1, F(1, 4))}
    assert RegionBellmanOracle(g, coarse, as_segments(coarse, _split(g, coarse, claim))).check(1, 4) == []
    assert bellman_check(g, claim, F(1, 4)) == []
    assert reference_bellman_check(g, claim, F(1, 4)) == ["m"]


@pytest.mark.parametrize(
    "claims", [guarded_claims, closed_guard_claims, layered_claims, solved_claims]
)
def test_draws_exercise_passes_and_failures(claims):
    # Without both verdicts the equivalence above would say little.
    seen = {"passed": 0, "failed": 0}

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(claims())
    def collect(claim):
        g, vals = claim
        failed = _assert_same(g, vals)
        seen["failed"] += failed
        seen["passed"] += len(_points(g, vals)) * len(g.nonfinal_locations) - failed

    collect()
    assert seen["passed"] > 0 and seen["failed"] > 0
