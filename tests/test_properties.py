"""Randomised suites over generated games.

Two generators feed these tests: small simple games (all guards [0, 1],
no resets) for the solver invariants, and guarded reset-acyclic games
with clock bound up to 2 for the region pipeline.  Both are driven by
fixed seeds so every run sees the same games.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    bellman_check,
    core_game,
    from_points,
    infinite,
    line_family,
    make_urgent,
    max_transition_weight,
    point_guard,
    region_bellman_check,
    region_table,
    slope_between,
    waiting,
)
from ptgsolve.exactmath import Affine, CostFunction, evaluate
from ptgsolve.model import (
    MAX,
    MIN,
    Config,
    Guard,
    Location,
    Transition,
    ValidationError,
    make_game,
    regions_of,
    validate_game,
)
from ptgsolve.regions import ResetCycle, build_region_game, check_reset_acyclic, solve_reset_acyclic
from ptgsolve.solver import solve
from ptgsolve.strategy import play_out
from ptgsolve.urgent import InstantEvaluator, compile_game, iteration_bound, unscale

F = Fraction


def random_sptg(seed: int):
    """Simple game with at most 6 locations and weights in [-4, 4].

    Final cost slopes stay within the largest location rate so the
    Lipschitz bound under test is the honest one.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    names = [f"q{i}" for i in range(n)]
    finals = set(rng.sample(names, rng.randint(1, n - 1)))
    final_list = sorted(finals)
    rates = {m: rng.randint(-4, 4) for m in names if m not in finals}
    cap = max(abs(r) for r in rates.values())
    locs = []
    for m in names:
        if m in finals:
            slope = rng.randint(-min(4, cap), min(4, cap)) if cap else 0
            locs.append(Location(m, "final", 0, False, Affine(slope, rng.randint(-4, 4))))
        else:
            owner = rng.choice((MIN, MAX))
            locs.append(Location(m, owner, rates[m], rng.random() < 0.25, None))
    trans = []
    for m in names:
        if m in finals:
            continue
        for _ in range(rng.randint(1, 3)):
            # a slight pull toward finals keeps most games nontrivial
            tgt = rng.choice(final_list) if rng.random() < 0.35 else rng.choice(names)
            trans.append(Transition(m, Guard.closed(0, 1), False, tgt, rng.randint(-4, 4)))
    if all(t.weight == 0 for t in trans):
        trans[0] = Transition(trans[0].source, trans[0].guard, False, trans[0].target, 1)
    return make_game(locs, trans, 1)


def random_guarded(seed: int):
    """Guarded game, clock bound 1 or 2, resets allowed.

    Raw draws may deadlock somewhere or chain resets through a cycle;
    `_usable_seeds` filters those out, so the parametrised suite only
    sees valid reset-acyclic games.
    """
    rng = random.Random(seed)
    bound = rng.choice((1, 2))
    n = rng.randint(2, 5)
    names = [f"g{i}" for i in range(n)]
    finals = set(rng.sample(names, rng.randint(1, n - 1)))
    locs = []
    for m in names:
        if m in finals:
            locs.append(
                Location(m, "final", 0, False, Affine(rng.randint(-4, 4), rng.randint(-4, 4)))
            )
        else:
            owner = rng.choice((MIN, MAX))
            locs.append(Location(m, owner, rng.randint(-4, 4), rng.random() < 0.2, None))
    trans = []
    for m in names:
        if m in finals:
            continue
        for _ in range(rng.randint(1, 3)):
            lo = rng.randint(0, bound)
            hi = rng.randint(lo, bound)
            if lo == hi:
                guard = point_guard(lo)
            else:
                guard = Guard(F(lo), F(hi), rng.random() < 0.8, rng.random() < 0.8)
            trans.append(
                Transition(m, guard, rng.random() < 0.25, rng.choice(names), rng.randint(-4, 4))
            )
    return make_game(locs, trans, bound)


def usable_guarded(seed: int):
    """random_guarded(seed) if it is valid and reset-acyclic, else None."""
    g = random_guarded(seed)
    try:
        validate_game(g)
        check_reset_acyclic(build_region_game(g))
    except (ValidationError, ResetCycle):
        return None
    return g


def _usable_seeds(count: int, start: int = 0) -> list:
    seeds = []
    seed = start
    while len(seeds) < count:
        if usable_guarded(seed) is not None:
            seeds.append(seed)
        seed += 1
    return seeds


GUARDED_SEEDS = _usable_seeds(50)

PROBES = [F(0), F(1, 7), F(1, 3), F(1, 2), F(2, 3), F(1)]


def _breakpoint_grid(fns) -> list:
    xs = set()
    for f in fns:
        xs.update(f.xs)
    xs = sorted(xs)
    return xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]


def run_simple_checks(seed: int) -> None:
    g = random_sptg(seed)
    sol = solve(g)
    if sol.max_strategy is None:
        # nothing can reach a final location; the claim is still checkable
        flat = {
            l.name: CostFunction.from_affine(0, 1, l.final_cost)
            if l.is_final
            else CostFunction.constant(0, 1, infinite(sol.values)[l.name])
            for l in g.locations
        }
        for nu in PROBES:
            assert bellman_check(g, flat, nu) == []
        return

    core, _ = core_game(g, infinite(sol.values))
    core_names = [l.name for l in core.locations]
    finite = {n: sol.values[n] for n in core_names}

    # (a) local optimality at every breakpoint and midpoint
    for nu in _breakpoint_grid(sol.values.values()):
        assert bellman_check(g, sol.values, nu) == [], f"bellman fails at {nu}"

    # (b) Lipschitz bound from the largest location rate
    cap = g.max_rate()
    for f in finite.values():
        for a, b in zip(f.xs, f.xs[1:]):
            assert abs(slope_between(f, a, b)) <= cap

    # (c) per-owner slope bounds where waiting is allowed
    for l in core.nonfinal_locations:
        if l.urgent:
            continue
        f = finite[l.name]
        for a, b in zip(f.xs, f.xs[1:]):
            chord = slope_between(f, a, b)
            if l.owner == MIN:
                assert chord >= -l.rate
            else:
                assert chord <= -l.rate

    # (d) value iteration descends monotonically and stops within its bound
    ug = make_urgent(g)
    ev = InstantEvaluator(compile_game(ug))
    for nu in (F(0), F(1, 3), F(1)):
        history = []
        _, _, rounds, _ = ev.run(nu, history)
        assert rounds <= iteration_bound(compile_game(ug))
        for before, after in zip(history, history[1:]):
            assert all(y <= x for x, y in zip(before, after))

    # (e) every breakpoint value sits on a line of its window's family
    bounds = sol.trace.boundaries
    for r, lower in zip(bounds, bounds[1:]):
        anchor = {n: evaluate(finite[n], r) for n in core_names}
        family = line_family(make_urgent(waiting(core, r, anchor)))
        for l in core.nonfinal_locations:
            f = finite[l.name]
            for x in f.xs:
                if lower <= x <= r:
                    v = evaluate(f, x)
                    assert any(line(x) == v for line in family), (l.name, x)

    # (f) exact optimal-versus-optimal playouts
    for l in core.nonfinal_locations:
        for nu in PROBES:
            play = play_out(g, Config(l.name, nu), sol.min_strategy, sol.max_strategy)
            assert play.cost == evaluate(finite[l.name], nu)

    # (g) breakpoint budget, evaluated in big integers
    pt = max_transition_weight(g)
    budget = (pt * len(g.locations) ** 2) ** (2 * len(g.locations) + 2)
    total = sum(len(f.xs) for f in finite.values())
    assert total <= budget


@pytest.mark.parametrize("seed", range(200))
def test_random_simple_games(seed):
    run_simple_checks(seed)


def run_region_checks(seed: int) -> None:
    g = random_guarded(seed)
    per_region = region_table(g, solve_reset_acyclic(g).values)
    regions = list(regions_of(g))
    pts = {reg.lo for reg in regions}
    pts.add(Fraction(g.clock_bound))
    for per in per_region.values():
        for entry in per:
            if not isinstance(entry, float):
                pts.update(entry.xs)
    pts = sorted(pts)
    pts += [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    for nu in sorted(pts):
        assert region_bellman_check(g, regions, per_region, nu) == [], f"at {nu}"


@pytest.mark.parametrize("seed", GUARDED_SEEDS)
def test_random_reset_acyclic_games(seed):
    run_region_checks(seed)


@pytest.mark.parametrize("seed", GUARDED_SEEDS[:8])
def test_region_check_rejects_shifted_values(seed):
    g = random_guarded(seed)
    per = region_table(g, solve_reset_acyclic(g).values)
    name = next(
        (
            l.name
            for l in g.nonfinal_locations
            if any(not isinstance(e, float) for e in per[l.name])
        ),
        None,
    )
    if name is None:
        pytest.skip("every location is infinite over the whole clock range")
    tweaked = []
    bumped = False
    for e in per[name]:
        if not bumped and not isinstance(e, float):
            shifted = [(x, v + 1) for x, v in zip(e.xs, e.vals)]
            tweaked.append(from_points(shifted))
            bumped = True
        else:
            tweaked.append(e)
    per[name] = tuple(tweaked)
    hits = set()
    for p in (F(0), F(1, 2), F(1), F(3, 2), F(2)):
        if p <= g.clock_bound:
            hits.update(region_bellman_check(g, list(regions_of(g)), per, p))
    assert name in hits


def run_equality_check(seed: int) -> None:
    g = random_sptg(seed)
    rsol = solve_reset_acyclic(g)
    sol = solve(g)
    if sol.max_strategy is None:
        per = region_table(g, rsol.values)
        for name, sign in infinite(sol.values).items():
            for entry in per[name]:
                assert entry == sign
        return
    for l in g.locations:
        direct = sol.values[l.name]
        segments = rsol.values[l.name]
        xs = set(direct.xs)
        for seg in segments:
            xs.update(seg.xs)
        xs = sorted(xs)
        probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        for nu in probes:
            covering = [s for s in segments if s.lo <= nu <= s.hi]
            assert covering, (l.name, nu)
            assert evaluate(covering[-1], nu) == evaluate(direct, nu), (l.name, nu)


@pytest.mark.parametrize("seed", range(1000, 1050))
def test_region_pipeline_agrees_on_simple_games(seed):
    run_equality_check(seed)


# ---------------------------------------------------------------------------
# Narrow invariants, hypothesis-driven


@st.composite
def urgent_games(draw):
    n = draw(st.integers(2, 5))
    names = [f"u{i}" for i in range(n)]
    n_final = draw(st.integers(1, n - 1))
    locs = []
    for i, m in enumerate(names):
        if i < n_final:
            slope = draw(st.integers(-3, 3))
            intercept = draw(st.integers(-3, 3))
            locs.append(Location(m, "final", 0, False, Affine(slope, intercept)))
        else:
            owner = draw(st.sampled_from((MIN, MAX)))
            locs.append(Location(m, owner, 0, True, None))
    trans = []
    for m in names[n_final:]:
        k = draw(st.integers(1, 3))
        for _ in range(k):
            target = draw(st.sampled_from(names))
            weight = draw(st.integers(-3, 3))
            trans.append(Transition(m, Guard.closed(0, 1), False, target, weight))
    return make_game(locs, trans, 1)


@settings(max_examples=60, deadline=None)
@given(urgent_games(), st.fractions(min_value=0, max_value=1, max_denominator=50))
def test_instant_values_solve_their_own_equations(g, nu):
    ev = InstantEvaluator(compile_game(g))
    history = []
    raw, _, rounds, denom = ev.run(nu, history)
    vals = unscale(raw, denom)
    assert rounds <= iteration_bound(compile_game(g))
    for before, after in zip(history, history[1:]):
        assert all(y <= x for x, y in zip(before, after))
    by_name = dict(zip(ev.names, vals))
    for l in g.nonfinal_locations:
        cands = []
        for i in g.outgoing(l.name):
            t = g.transitions[i]
            tgt = g.location(t.target)
            base = tgt.final_cost(nu) if tgt.is_final else by_name[t.target]
            cands.append(t.weight + base)
        want = max(cands) if l.owner == MAX else min(cands)
        assert by_name[l.name] == want


@settings(max_examples=60, deadline=None)
@given(urgent_games(), st.fractions(min_value=0, max_value=1, max_denominator=50))
def test_optimal_play_attains_value_on_urgent_games(g, nu):
    sol = solve(g)
    if sol.max_strategy is None:
        return
    for l in g.nonfinal_locations:
        if l.name in infinite(sol.values):
            continue
        play = play_out(g, Config(l.name, nu), sol.min_strategy, sol.max_strategy)
        assert play.reached_final
        assert play.cost == evaluate(sol.values[l.name], nu)
