import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptgsolve.exactmath import INF, NEG_INF, Affine, evaluate
from ptgsolve.model import MAX, Guard, Location, Transition, make_game, parse_game
from ptgsolve.solver import prune_infinite
from ptgsolve.urgent import (
    InstantEvaluator,
    attractor,
    compile_game,
    iteration_bound,
    unscale,
)

from conftest import FIXTURES, load_fixture
from reference import (
    NotFinite,
    attractor_strategy,
    core_game,
    extract_untimed_strategies,
    line_family,
    make_urgent,
    max_final_cost,
    max_transition_weight,
    pairwise_intersections,
    possible_cutpoints,
    possible_cutpoints_by_fraction,
    solve_all_urgent,
    solve_instant,
)
from test_properties import random_sptg

F = Fraction


def tiny(owner_weights, finals, *, bound=1):
    """Build a small all-urgent game from a compact description.

    owner_weights: {name: (owner, [(weight, target), ...])}
    finals: {name: Affine}
    """
    locs = []
    trans = []
    for name, (owner, moves) in owner_weights.items():
        locs.append(Location(name, owner, 0, True, None))
        for w, tgt in moves:
            trans.append(Transition(name, Guard.closed(0, bound), False, tgt, w))
    for name, phi in finals.items():
        locs.append(Location(name, "final", 0, False, phi))
    return make_game(tuple(locs), tuple(trans), bound)


@pytest.fixture(scope="module")
def fig1_urgent():
    return make_urgent(parse_game(load_fixture("fig1.json")))


@pytest.fixture(scope="module")
def appc_urgent():
    return make_urgent(parse_game(load_fixture("appc.json")))


def test_urgency_flags_do_not_change_a_run(fig1_urgent):
    # no time passes at one valuation, so a location that may wait plays
    # exactly as an urgent one there
    g = parse_game(load_fixture("fig1.json"))
    assert any(not l.urgent for l in g.nonfinal_locations)
    ev, urgent_ev = InstantEvaluator(compile_game(g)), InstantEvaluator(compile_game(fig1_urgent))
    for x in (F(0), F(1, 3), F(1)):
        assert ev.run(x) == urgent_ev.run(x)


def test_fig1_values_at_one(fig1_urgent):
    vv = solve_instant(fig1_urgent, 1)
    expected = {
        "l1": 0,
        "l2": 1,
        "l3": -7,
        "l4": -7,
        "l5": 1,
        "l6": 1,
        "l7": 0,
        "lf": 0,
    }
    assert {k: v for k, v in vv.values.items()} == expected
    assert vv.all_finite()


def test_fig1_values_at_zero(fig1_urgent):
    # final cost is identically 0, so only the discrete weights matter and
    # the answer agrees with the valuation-1 one
    vv = solve_instant(fig1_urgent, 0)
    assert vv["l3"] == -7
    assert vv["l1"] == 0


def test_iteration_bound_examples(fig1_urgent):
    assert iteration_bound(compile_game(fig1_urgent)) == 856
    g = tiny({"a": ("min", [(1, "f")])}, {"f": Affine(0, 0)})
    assert iteration_bound(compile_game(g)) == 10
    g0 = tiny({"a": ("min", [(0, "f")])}, {"f": Affine(0, 0)})
    assert iteration_bound(compile_game(g0)) == 2 * len(g0.locations)


def test_iterates_decrease_and_converge(fig1_urgent):
    ev = InstantEvaluator(compile_game(fig1_urgent))
    hist = []
    raw, _, rounds, denom = ev.run(F(1, 3), history=hist)
    vals = unscale(raw, denom)
    assert rounds <= iteration_bound(compile_game(fig1_urgent))
    assert hist[-1] == vals
    for a, b in zip(hist, hist[1:]):
        assert all(x >= y for x, y in zip(a, b))


def test_ranks_settle_in_order(fig1_urgent):
    ev = InstantEvaluator(compile_game(fig1_urgent))
    _, ranks, _, _ = ev.run(1)
    by_name = dict(zip(ev.names, ranks))
    assert by_name["lf"] == 0
    assert all(by_name[l.name] >= 1 for l in fig1_urgent.nonfinal_locations)


def test_min_divergence_snaps_to_neg_inf():
    g = tiny(
        {"l": ("min", [(-1, "l"), (0, "f")])},
        {"f": Affine(0, 0)},
    )
    vv = solve_instant(g, 0)
    assert vv["l"] == NEG_INF


def test_max_prefers_endless_play():
    g = tiny(
        {"l": ("max", [(-1, "l"), (0, "f")])},
        {"f": Affine(0, 0)},
    )
    assert solve_instant(g, 0)["l"] == INF


def test_stuck_location_is_plus_inf():
    g = tiny(
        {"dead": ("max", []), "root": ("min", [(0, "dead"), (3, "f")])},
        {"f": Affine(0, 0)},
    )
    vv = solve_instant(g, 0)
    assert vv["dead"] == INF
    assert vv["root"] == 3


def test_line_family_constant_window():
    g = tiny({"a": ("min", [(1, "f")])}, {"f": Affine(0, 0)})
    fam = line_family(g)
    assert sorted(l.intercept for l in fam) == [-1, 0, 1, 2]
    assert all(l.slope == 0 for l in fam)


def test_line_family_fig1(fig1_urgent):
    fam = line_family(fig1_urgent)
    assert len(fam) == 106
    assert {l.slope for l in fam} == {0}
    assert min(l.intercept for l in fam) == -49
    assert max(l.intercept for l in fam) == 56


def test_cutpoints_constant_finals():
    g = tiny({"a": ("min", [(1, "f")])}, {"f": Affine(0, 0)})
    assert possible_cutpoints(InstantEvaluator(compile_game(g)), F(1)) == [0, 1]
    assert possible_cutpoints(InstantEvaluator(compile_game(g)), F(1, 2)) == [0, F(1, 2)]


def test_cutpoints_urgent_all_fixture():
    g = parse_game(load_fixture("urgent_all.json"))
    pts = possible_cutpoints(InstantEvaluator(compile_game(g)), 1)
    assert pts[0] == 0 and pts[-1] == 1
    assert F(6, 19) in pts
    assert all(p.denominator in (1, 19) for p in pts)


def test_cutpoints_three_final_grid():
    g = tiny(
        {"a": ("min", [(1, "f0"), (0, "fu"), (-1, "fd")])},
        {"f0": Affine(0, 0), "fu": Affine(2, -1), "fd": Affine(-2, 1)},
    )
    assert possible_cutpoints(InstantEvaluator(compile_game(g)), 1) == [0, F(1, 4), F(1, 2), F(3, 4), 1]


def random_fractional_game(rng: random.Random):
    """Urgent game whose final slopes and intercepts have unlike denominators."""
    def frac():
        return F(rng.randint(-12, 12), rng.randint(1, 9))

    n = rng.randint(1, 3)
    finals = {f"f{j}": Affine(frac(), frac()) for j in range(rng.randint(2, 4))}
    targets = [f"a{i}" for i in range(n)] + list(finals)
    moves = {
        f"a{i}": (
            rng.choice(("min", "max")),
            [(rng.randint(-3, 3), rng.choice(targets)) for _ in range(rng.randint(1, 3))],
        )
        for i in range(n)
    }
    return tiny(moves, finals)


def test_cutpoints_agree_with_line_family():
    games = [
        tiny(
            {"a": ("min", [(1, "f0"), (0, "fu"), (-1, "fd")])},
            {"f0": Affine(0, 0), "fu": Affine(2, -1), "fd": Affine(-2, 1)},
        ),
        parse_game(load_fixture("urgent_all.json")),
    ]
    rng = random.Random(2015)
    cases = [(g, r) for g in games for r in (F(1), F(2, 3))]
    cases += [
        (random_fractional_game(rng), F(rng.randint(1, 11), 11)) for _ in range(40)
    ]
    for g, r in cases:
        lazy = possible_cutpoints(InstantEvaluator(compile_game(g)), r)
        literal = sorted(
            set(pairwise_intersections(line_family(g), 0, r)) | {F(0), r}
        )
        assert lazy == literal


def test_solve_all_urgent_tracks_final_cost():
    g = tiny({"a": ("min", [(0, "f")])}, {"f": Affine(1, 0)})
    sol = solve_all_urgent(g, 1)
    f = sol["a"]
    assert f.xs == (0, 1)
    assert f.vals == (0, 1)


def test_solve_all_urgent_constant(appc_urgent):
    sol = solve_all_urgent(appc_urgent, 1)
    for name in ("l1", "l2"):
        f = sol[name]
        assert f.xs == (0, 1)
        assert f.vals == (-10, -10)


def test_solve_all_urgent_breakpoint():
    g = parse_game(load_fixture("urgent_all.json"))
    f = solve_all_urgent(g, 1)["l3"]
    assert f.xs == (0, F(6, 19), 1)
    assert f.vals == (-10, F(-94, 19), -7)
    assert evaluate(f, F(1, 2)) == min(-3 * F(1, 2) - 4, 16 * F(1, 2) - 10)


def test_solve_all_urgent_infinite_column():
    g = tiny(
        {"l": ("min", [(-1, "l"), (0, "f")])},
        {"f": Affine(0, 0)},
    )
    f = solve_all_urgent(g, 1)["l"]
    assert f.vals == (NEG_INF, NEG_INF)
    assert evaluate(f, F(1, 3)) == NEG_INF


def test_strategies_appc(appc_urgent):
    s = extract_untimed_strategies(appc_urgent, 1)
    tr = appc_urgent.transitions
    assert s.values["l1"] == -10 and s.values["l2"] == -10
    assert tr[s.max_choice["l1"]].target == "lf"
    assert tr[s.sigma1["l2"]].target == "l1"
    assert tr[s.sigma2["l2"]].target == "lf"
    assert s.threshold == -30


def test_sigma1_escapes_zero_cycle():
    g = tiny(
        {
            "a": ("min", [(0, "b")]),
            "b": ("min", [(0, "a"), (0, "f")]),
        },
        {"f": Affine(0, 0)},
    )
    s = extract_untimed_strategies(g, 0)
    assert g.transitions[s.sigma1["b"]].target == "f"
    assert g.transitions[s.sigma1["a"]].target == "b"


def test_sigma2_reaches_final_quickly(fig1_urgent):
    s = extract_untimed_strategies(fig1_urgent, F(1, 2))
    pos = {l.name for l in fig1_urgent.nonfinal_locations}
    assert set(s.sigma2) == pos
    # following sigma2 from any location, allowing the opponent any reply,
    # must shrink the attractor level, so |L| hops suffice to leave pos
    for start in pos:
        cur = start
        for _ in range(len(fig1_urgent.locations)):
            loc = fig1_urgent.location(cur)
            if loc.is_final:
                break
            if loc.owner == "min":
                cur = fig1_urgent.transitions[s.sigma2[cur]].target
            else:
                # adversarial: any move, take the first
                cur = fig1_urgent.transitions[fig1_urgent.outgoing(cur)[0]].target
        assert fig1_urgent.location(cur).is_final


def test_strategies_need_finite_values():
    g = tiny(
        {"l": ("min", [(-1, "l"), (0, "f")])},
        {"f": Affine(0, 0)},
    )
    with pytest.raises(NotFinite):
        extract_untimed_strategies(g, 0)


def test_tight_choice_matches_value(fig1_urgent):
    s = extract_untimed_strategies(fig1_urgent, 1)
    vv = s.values
    for name, idx in {**s.max_choice, **s.sigma1}.items():
        t = fig1_urgent.transitions[idx]
        assert t.weight + vv[t.target] == vv[name]


# ---------------------------------------------------------------------------
# Kernel equivalence: InstantEvaluator.run against plain Fraction iteration


def reference_run(g, nu, history=None):
    """Value iteration in plain Fractions, each final priced phi(nu) afresh.

    It scales nothing: a run of InstantEvaluator on its integer scale must
    reproduce these values, ranks, rounds and history exactly.
    """
    names = [l.name for l in g.locations]
    index = {n: i for i, n in enumerate(names)}
    cutoff = -(len(names) - 1) * max_transition_weight(g) - max_final_cost(g)
    x = [INF] * len(names)
    for l in g.final_locations:
        x[index[l.name]] = l.final_cost(nu)
    ranks = [0] * len(names)
    rounds = 0
    while True:
        rounds += 1
        assert rounds <= iteration_bound(compile_game(g))
        prev = list(x)
        changed = False
        for l in g.nonfinal_locations:
            i = index[l.name]
            sums = [
                g.transitions[t].weight + prev[index[g.transitions[t].target]]
                for t in g.outgoing(l.name)
            ]
            if not sums:
                best = INF
            else:
                best = max(sums) if l.owner == MAX else min(sums)
            if not isinstance(best, float) and best < cutoff:
                best = NEG_INF
            if best != prev[i]:
                x[i] = best
                ranks[i] = rounds
                changed = True
        if history is not None:
            history.append(list(x))
        if not changed:
            return x, ranks, rounds


def unlike_fractions():
    return st.builds(F, st.integers(-40, 40), st.integers(1, 30))


@st.composite
def scaled_urgent_games(draw):
    """All-urgent games with rational final costs and clock bound.

    Optional gadgets make sure of both infinities: a Min loop of weight -1
    next to an exit sinks below the cutoff to -inf, and a location without
    moves (with a Max parent that may enter it) stays +inf.
    """
    bound = draw(st.sampled_from((F(1), F(2), F(2, 3), F(7, 5))))
    n_final = draw(st.integers(0, 3))
    n_inner = draw(st.integers(1, 4))
    finals = [f"f{j}" for j in range(n_final)]
    inner = [f"u{i}" for i in range(n_inner)]
    locs = [
        Location(m, "final", 0, False, Affine(draw(unlike_fractions()), draw(unlike_fractions())))
        for m in finals
    ]
    trans = []

    def edge(src, tgt, w):
        trans.append(Transition(src, Guard.closed(0, bound), False, tgt, w))

    for m in inner:
        locs.append(Location(m, draw(st.sampled_from(("min", "max"))), 0, True, None))
        for _ in range(draw(st.integers(1, 3))):
            edge(m, draw(st.sampled_from(inner + finals)), draw(st.integers(-4, 4)))
    if finals and draw(st.booleans()):
        locs.append(Location("sink", "min", 0, True, None))
        edge("sink", "sink", -1)
        edge("sink", finals[0], 0)
        edge(inner[0], "sink", 0)
    if draw(st.booleans()):
        locs.append(Location("stuck", "max", 0, True, None))
        locs.append(Location("toward", "max", 0, True, None))
        edge("toward", "stuck", 0)
        edge("toward", draw(st.sampled_from(inner + finals)), 1)
    return make_game(tuple(locs), tuple(trans), bound)


def valuations(bound):
    """0, 1 and the bound; small denominators, where lines tie; huge ones."""
    def share(q):
        return st.builds(lambda p: bound * F(p, q), st.integers(0, q))

    return st.one_of(
        st.sampled_from((F(0), F(1), bound)),
        st.integers(1, 12).flatmap(share),
        st.integers(10**9, 10**15).flatmap(share),
    )


_SINK = tiny(
    {"u0": ("min", [(2, "f0"), (0, "sink")]), "sink": ("min", [(-1, "sink"), (0, "f0")])},
    {"f0": Affine(F(3, 7), F(-5, 4))},
    bound=F(2, 3),
)
_STUCK = tiny(
    {"u0": ("max", [(0, "stuck"), (1, "f0")]), "stuck": ("max", [])},
    {"f0": Affine(F(-1, 6), F(9, 10)), "f1": Affine(F(5, 2), F(1, 3))},
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_matches_plain_fraction_iteration(data):
    g = data.draw(scaled_urgent_games())
    nu = data.draw(valuations(g.clock_bound))
    check_against_reference(g, nu)


def check_against_reference(g, nu):
    want_history, got_history = [], []
    want = reference_run(g, nu, want_history)
    x, ranks, rounds, denom = InstantEvaluator(compile_game(g)).run(nu, got_history)
    got = (unscale(x, denom), ranks, rounds)
    assert got == want
    assert got_history == want_history
    for v in got[0]:
        assert isinstance(v, float) or type(v) is Fraction


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_cutpoints_match_the_fraction_sort(data):
    """Sorting the reduced (numerator, denominator) pairs on one integer key
    gives the list the Fraction sort gave."""
    g = data.draw(scaled_urgent_games())
    r = data.draw(valuations(g.clock_bound))
    ev = InstantEvaluator(compile_game(g))
    assert possible_cutpoints(ev, r) == possible_cutpoints_by_fraction(ev, r)


@pytest.mark.parametrize("g", [_SINK, _STUCK], ids=["neg-inf-cutoff", "stuck-plus-inf"])
@pytest.mark.parametrize("nu", [F(0), F(1, 3), F(2, 3), F(10**12 + 1, 10**13)])
def test_run_matches_plain_fraction_iteration_at_infinities(g, nu):
    check_against_reference(g, nu)
    x, _, _, denom = InstantEvaluator(compile_game(g)).run(nu)
    vals = unscale(x, denom)
    assert (NEG_INF if g is _SINK else INF) in vals


def _picked(g, rows, infinite=()) -> dict:
    """`attractor` on rows of g, each choice mapped to g's transition: a
    row's moves are its location's transitions in file order, less those
    into infinite locations."""
    picked = {}
    for (i, _, _), m in zip(rows.rows, attractor(rows)):
        if m is not None:
            name = rows.names[i]
            moves = [k for k in g.outgoing(name) if g.transitions[k].target not in infinite]
            picked[name] = moves[m]
    return picked


def _attractor_games():
    for path in sorted(FIXTURES.glob("*.json")):
        if not path.name.endswith((".values.json", ".regions.json")):
            yield path.name, parse_game(path.read_text(encoding="utf-8"))
    for seed in range(240):
        yield seed, random_sptg(seed)


def test_attractor_on_rows_picks_the_game_attractors_transitions():
    """The row attractor, on a compiled game and on pruning's rows, picks
    the transitions the attractor on a Game picks, level for level and
    with the same ties."""
    for key, g in _attractor_games():
        assert _picked(g, compile_game(g)) == attractor_strategy(g), key
        pr = prune_infinite(compile_game(g))
        core, origin = core_game(g, pr.infinite)
        want = {n: origin[i] for n, i in attractor_strategy(core).items()}
        assert _picked(g, pr.rows, pr.infinite) == want, key
