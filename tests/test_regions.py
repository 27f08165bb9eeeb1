"""Region construction and the reset-acyclic solving pipeline."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, load_fixture
import reference
from reference import (
    from_points,
    instant_by_subgame,
    point_guard,
    region_bellman_check,
    region_table,
    region_values,
    window_by_subgame,
)
from test_properties import GUARDED_SEEDS, usable_guarded
from ptgsolve import regions as region_pipeline
from ptgsolve import solver, urgent
from ptgsolve.cli import main
from ptgsolve.document import SolutionFormatError, uniform_infinity
from ptgsolve.exactmath import Affine, CostFunction, evaluate, format_value
from ptgsolve.model import (
    MAX,
    MIN,
    Game,
    Guard,
    InternalError,
    Location,
    Region,
    Transition,
    make_game,
    parse_game,
    regions_of,
    serialize_game,
)
from ptgsolve.regions import (
    RegionGame,
    RegionTransition,
    ResetCycle,
    build_region_game,
    check_reset_acyclic,
    solve_reset_acyclic,
)
from ptgsolve.solver import solve
from ptgsolve.urgent import InstantEvaluator

F = Fraction


@pytest.fixture(scope="module")
def fig3():
    return parse_game(load_fixture("fig3.json"))


@pytest.fixture(scope="module")
def fig1():
    return parse_game(load_fixture("fig1.json"))


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
    """Border-only guards show up only in the border copy: the open copy
    below reaches them by its hop."""
    rg = build_region_game(fig3)
    at_one = [t for t in rg.transitions if t.origin is not None and fig3.transitions[t.origin].guard.lo == 1]
    sources = {t.source[1] for t in at_one}
    assert sources == {2}
    assert rg.regions[2] == Region(1, 1)


def test_region_game_strict_guard_becomes_closure():
    locs = (
        Location("m", "min", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (Transition("m", Guard(F(0), F(1), False, False), False, "f", 0),)
    rg = build_region_game(make_game(locs, trans, 1))
    copied = [t for t in rg.transitions if t.origin == 0]
    # nothing from the point copies; the open copy fires on its closure
    assert [t.source[1] for t in copied] == [1]
    assert rg.regions[1] == Region(0, 1)


def test_region_game_lower_border_guard_is_dropped():
    locs = (
        Location("m", "min", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
        Location("e", "final", 0, False, Affine(0, 1)),
    )
    trans = (
        Transition("m", point_guard(1), False, "f", 0),
        Transition("m", Guard.closed(0, 2), False, "e", 0),
    )
    rg = build_region_game(make_game(locs, trans, 2))
    fires_f = [t for t in rg.transitions if t.origin == 0]
    # guard {1} belongs to the point itself: the open region below reaches
    # it by its hop, and the open region above has left it behind
    assert {t.source[1] for t in fires_f} == {2}


def test_fig3_reset_cycle_witness(fig3):
    with pytest.raises(ResetCycle) as exc:
        solve_reset_acyclic(fig3)
    assert exc.value.witness == ["l0", "l1", "l0"]
    assert str(exc.value) == "l0 -> l1 -> l0"


def test_check_reset_acyclic_orders_dependencies_first(reset_chain):
    """The components cover exactly the non-final copies, each once: a
    final copy has no move and enters as its cost line.  Every other
    edge goes to the same or an earlier component."""
    rg = build_region_game(reset_chain)
    comps = check_reset_acyclic(rg).components
    comp_of = {n: ci for ci, comp in enumerate(comps) for n in comp}
    final = {l.name for l in reset_chain.final_locations}
    assert sum(map(len, comps)) == len(comp_of)
    assert set(comp_of) == {n for n in rg.locations if n[0] not in final}
    into_finals = 0
    for t in rg.transitions:
        if t.target[0] in final:
            into_finals += 1
            continue
        assert comp_of[t.target] <= comp_of[t.source]
        # a reset never stays inside its component
        assert not t.reset or comp_of[t.target] < comp_of[t.source]
    assert any(t.reset for t in rg.transitions)
    assert into_finals > 0


def test_region_graph_is_built_and_condensed_without_fractions():
    """`parse_game` puts the region borders and each transition's regions
    on integers once, so building and condensing the region graph of a
    parsed game compares no Fraction: reading each guard against each
    region by its Fraction ends made 38 comparisons on reset_chain and
    156 on fig1.  A solve names a region copy only in a failure."""
    names = ["reset_chain.json", "guarded_jump.json", "fig1.json"]
    games = [parse_game(load_fixture(n)) for n in names]
    games += [parse_game(serialize_game(usable_guarded(s))) for s in GUARDED_SEEDS[:20]]
    counts = {}
    with pytest.MonkeyPatch.context() as mp:
        for op in ("_richcmp", "__eq__"):

            def counting(*args, op=op, plain=getattr(F, op)):
                counts[op] = counts.get(op, 0) + 1
                return plain(*args)

            mp.setattr(F, op, counting)
        condensed = [check_reset_acyclic(build_region_game(g)) for g in games]
    assert counts == {}
    assert all(dag.components for dag in condensed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region_pipeline, "_node", lambda *args: counts.setdefault("node", []).append(args))
        for g in games:
            solve_reset_acyclic(g)
    assert counts == {}


def test_a_final_copy_with_a_move_is_an_internal_error(reset_chain):
    """A final copy is left out of the condensation because it has no
    move; one that has a move breaks that invariant, and condensing the
    graph names the phase and the copy."""
    rg = build_region_game(reset_chain)
    move = RegionTransition(("bf", 2), False, ("a", 2), 0, None)
    broken = dataclasses.replace(rg, transitions=rg.transitions + (move,))
    with pytest.raises(InternalError) as caught:
        check_reset_acyclic(broken)
    assert str(caught.value) == "condensation at bf in {1}: a final location has moves"
    assert (caught.value.phase, caught.value.where) == ("condensation", "bf in {1}")


def test_reset_chain_values(reset_chain):
    sol = solve_reset_acyclic(reset_chain)
    (fa,) = sol.values["a"]
    assert list(zip(fa.xs, fa.vals)) == [(F(0), F(2)), (F(1), F(3)), (F(2), F(3))]
    (fb,) = sol.values["b"]
    assert list(zip(fb.xs, fb.vals)) == [(F(0), F(0)), (F(2), F(2))]
    (ff,) = sol.values["bf"]
    assert evaluate(ff, F(3, 2)) == F(3, 2)


def test_reset_chain_satisfies_region_bellman(reset_chain):
    per = region_table(reset_chain, solve_reset_acyclic(reset_chain).values)
    for nu in (F(0), F(1, 2), F(1), F(7, 4), F(2)):
        assert region_bellman_check(reset_chain, regions_of(reset_chain), per, nu) == []


def test_single_min_location_over_two_units():
    locs = (
        Location("m", "min", -1, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (Transition("m", Guard.closed(0, 2), False, "f", 0),)
    sol = solve_reset_acyclic(make_game(locs, trans, 2))
    (fm,) = sol.values["m"]
    assert list(zip(fm.xs, fm.vals)) == [(F(0), F(-2)), (F(2), F(0))]


def test_waiting_line_crosses_a_final_line_inside_an_open_region():
    """Min at rate 3 either goes to a final worth 3 + 4x or, from 1 on,
    to one worth 4x - 2 at weight 1.  On (0, 1) waiting until 1 costs
    6 - 3x, which crosses 3 + 4x at 3/7.  Every edge of that window's
    game weighs 0, so its cutpoint grid has the one offset 0 per pair of
    final lines, and 3/7 is its only candidate between the ends."""
    locs = (
        Location("m", "min", 3, False, None),
        Location("f", "final", 0, False, Affine(4, 3)),
        Location("h", "final", 0, False, Affine(4, -2)),
    )
    trans = (
        Transition("m", Guard.closed(0, 2), False, "f", 0),
        Transition("m", Guard.closed(1, 2), False, "h", 1),
    )
    (fm,) = solve_reset_acyclic(make_game(locs, trans, 2)).values["m"]
    assert list(zip(fm.xs, fm.vals)) == [(0, 3), (F(3, 7), F(33, 7)), (1, 3), (2, 7)]


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
    per = region_table(g, sol.values)
    assert evaluate(per["m"][2], F(1)) == 10
    assert evaluate(per["m"][1], F(1)) == 0
    for nu in (F(0), F(1, 3), F(1), F(3, 2), F(2)):
        assert region_bellman_check(g, regions_of(g), per, nu) == []


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
    g = make_game(locs, trans, 2)
    sol = solve_reset_acyclic(g)
    table = region_table(g, sol.values)
    per = table["m"]
    assert [evaluate(per[1], F(1)), evaluate(per[2], F(1)), evaluate(per[3], F(1))] == [0, 0, -10]
    segs = sol.values["m"]
    assert [(s.lo, s.hi) for s in segs] == [(0, 1), (1, 1), (1, 2)]
    back = region_values(regions_of(g), segs)
    assert evaluate(back[2], F(1)) == 0
    read = {**table, "m": back}
    assert region_bellman_check(g, regions_of(g), read, F(1)) == []


def _value(entry, x):
    return entry if isinstance(entry, float) else evaluate(entry, x)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_stitched_segments_read_back_the_region_values(seed):
    # Point regions: the attained value.  Open regions: both border limits
    # and the value at every breakpoint in between.
    g = usable_guarded(seed)
    assume(g is not None)
    regions = regions_of(g)
    # the solver's per-region values, as they enter `_stitch`; a final
    # location's is its cost line on each region
    solved = [tuple(CostFunction.from_affine(r.lo, r.hi, l.final_cost) for r in regions) for l in g.final_locations]
    stitch = region_pipeline._stitch

    def recording(regs, per):
        solved.append(tuple(per))
        return stitch(regs, per)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region_pipeline, "_stitch", recording)
        sol = solve_reset_acyclic(g)
    assert len(solved) == len(g.locations)
    for l, per in zip([*g.final_locations, *g.nonfinal_locations], solved):
        back = region_values(regions, sol.values[l.name])
        for reg, want, got in zip(regions, per, back):
            xs = {reg.lo, reg.hi} | set(() if isinstance(want, float) else want.xs)
            for x in sorted(xs):
                assert _value(got, x) == _value(want, x), (l.name, reg.describe(), x)


def reference_region_values_from_segments(regions, segments: list) -> list:
    """The regions x segments scan the document reader used to be, with
    the reader's refusals of location l: an open region that no segment
    spans names where the first segment reaching its upper end starts."""
    out = []
    for reg in regions:
        if reg.is_point:
            cover = [s for s in segments if s.lo <= reg.lo <= s.hi]
            if not cover:
                raise SolutionFormatError(f"values.l: no segment covers {format_value(reg.lo)}")
            points = [s for s in cover if s.is_point]
            seg = points[-1] if points else cover[-1]
            inf_v = uniform_infinity(seg)
            out.append(inf_v if inf_v is not None else CostFunction.point(
                reg.lo, evaluate(seg, reg.lo)
            ))
            continue
        cover = [s for s in segments if s.lo <= reg.lo and reg.hi <= s.hi]
        if not cover:
            where = f"the open region ({format_value(reg.lo)}, {format_value(reg.hi)})"
            reaching = [s for s in segments if reg.hi <= s.hi]
            if not reaching:
                raise SolutionFormatError(f"values.l: no segment spans {where}")
            raise SolutionFormatError(f"values.l: segments meet at {format_value(reaching[0].lo)} inside {where}")
        inf_v = uniform_infinity(cover[0])
        out.append(inf_v if inf_v is not None else cover[0])
    return out


@st.composite
def segmented_documents(draw):
    """(regions, contiguous segments): borders and segment cuts drawn apart,
    with point segments, jumps, infinite pieces and early ends."""
    borders = sorted(set(draw(st.lists(st.integers(1, 7), max_size=5))) | {0, 8})
    regions = []
    for a, b in zip(borders, borders[1:]):
        regions += [Region(a, a), Region(a, b)]
    regions.append(Region(8, 8))
    cuts = sorted(set(draw(st.lists(st.sampled_from(borders + [F(1, 2), F(5, 2), 3]), max_size=6))) | {0})
    end = draw(st.sampled_from([8, 8, 8, cuts[-1]]))
    if end > cuts[-1]:
        cuts.append(end)
    values = st.one_of(st.integers(-5, 5), st.sampled_from([float("inf"), float("-inf")]))
    segs = []

    def piece(lo, hi):
        v = draw(values)
        if isinstance(v, float):
            return CostFunction.point(lo, v) if lo == hi else CostFunction.constant(lo, hi, v)
        if lo == hi:
            return CostFunction.point(lo, F(v))
        return from_points([(F(lo), F(v)), (F(hi), F(draw(st.integers(-5, 5))))])

    for i, x in enumerate(cuts):
        if draw(st.booleans()):
            for _ in range(draw(st.integers(1, 2))):
                segs.append(piece(x, x))
        if i + 1 < len(cuts):
            segs.append(piece(x, cuts[i + 1]))
    assume(segs)
    return tuple(regions), segs


def _reader_outcome(read, regions, segs):
    try:
        return read(regions, segs)
    except SolutionFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(segmented_documents())
def test_document_reader_matches_the_regions_by_segments_scan(doc):
    regions, segs = doc
    want = _reader_outcome(reference_region_values_from_segments, regions, segs)
    assert _reader_outcome(region_values, regions, segs) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_document_reader_matches_the_scan_on_solved_documents(seed):
    g = usable_guarded(seed)
    assume(g is not None)
    sol = solve_reset_acyclic(g)
    for l in g.locations:
        segs = sol.values[l.name]
        want = reference_region_values_from_segments(regions_of(g), segs)
        assert region_values(regions_of(g), segs) == want


class _CountingSegments(list):
    """A segment list that counts every segment handed out."""

    visits = 0

    def __getitem__(self, i):
        self.visits += 1
        return super().__getitem__(i)

    def __iter__(self):
        for s in super().__iter__():
            self.visits += 1
            yield s


def test_document_reader_visits_each_segment_a_few_times():
    # 400 borders, a point segment at every other one: scanning every
    # segment for every region visited 480,600 segments here, one walk
    # over both lists 3,600.
    n = 400
    regions = []
    for a in range(n):
        regions += [Region(a, a), Region(a, a + 1)]
    regions.append(Region(n, n))
    segs = _CountingSegments()
    for a in range(n):
        if a % 2:
            segs.append(CostFunction.point(a, F(a)))
        segs.append(from_points([(F(a), F(a)), (F(a + 1), F(-a))]))
    want = reference_region_values_from_segments(regions, list(segs))
    assert region_values(regions, segs) == want
    assert segs.visits <= 3 * (len(regions) + len(segs))


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
    g = make_game(locs, trans, 1)
    sol = solve_reset_acyclic(g)
    per = region_table(g, sol.values)
    assert per["trap"] == (float("inf"),) * 3
    assert per["drain"] == (float("-inf"),) * 3
    (seg,) = sol.values["trap"]
    assert evaluate(seg, F(1, 2)) == float("inf")
    (fm,) = sol.values["m"]
    assert evaluate(fm, F(1, 2)) == 2


def test_stuck_point_copies_are_worth_plus_infinity():
    # s has no edges, so its copy in {1} is stuck: no hop leaves the last
    # region.  m's only edge at 1 leads into that copy.  Validation would
    # refuse the deadlock, so the game is built without it.
    locs = (
        Location("s", "min", 0, False, None),
        Location("m", "min", 0, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (
        Transition("m", Guard(F(0), F(1), True, False), False, "f", 3),
        Transition("m", point_guard(1), False, "s", 0),
    )
    g = make_game(locs, trans, 1)
    sol = solve_reset_acyclic(g)
    per = region_table(g, sol.values)
    inf = float("inf")
    assert per["s"] == (inf, inf, inf)
    assert per["m"][2] == inf
    (fs,) = sol.values["s"]
    assert (fs.lo, fs.hi, fs.vals) == (0, 1, (inf, inf))
    fm, stuck = sol.values["m"]
    assert list(zip(fm.xs, fm.vals)) == [(F(0), F(3)), (F(1), F(3))]
    assert list(zip(stuck.xs, stuck.vals)) == [(F(1), inf)]


def test_waiting_member_held_to_a_hurting_anchor_takes_it():
    # m may only wait in (0, 1): its one edge fires at 1, into the -inf
    # loop d.  The anchor -inf hurts Max, but waiting is all m can do, so
    # m is -inf there, not stuck at +inf; n, which may fire into m, too.
    locs = (
        Location("m", MAX, 2, False, None),
        Location("d", MIN, 0, False, None),
        Location("n", MIN, 1, False, None),
        Location("f", "final", 0, False, Affine(0, 0)),
    )
    trans = (
        Transition("m", point_guard(1), False, "d", 0),
        Transition("d", Guard.closed(0, 1), False, "d", -1),
        Transition("d", Guard.closed(0, 1), False, "f", 0),
        Transition("n", Guard.closed(0, 1), False, "m", 3),
        Transition("n", Guard.closed(0, 1), False, "f", 5),
    )
    g = make_game(locs, trans, 1)
    per = region_table(g, solve_reset_acyclic(g).values)
    assert per["m"] == (float("-inf"),) * 3
    assert per["n"] == (float("-inf"),) * 3


def test_urgent_member_without_interior_edges_is_stuck():
    # u is urgent and its one edge fires at 1, so in {0} and (0, 1) it has
    # no move: +inf, which Max at w then takes over its exit worth 6 + x.
    # Validation would refuse the deadlock, so the game is built without it.
    locs = (
        Location("u", MIN, 0, True, None),
        Location("w", MAX, 1, False, None),
        Location("f", "final", 0, False, Affine(1, 2)),
    )
    trans = (
        Transition("u", point_guard(1), False, "f", 0),
        Transition("w", Guard.closed(0, 1), False, "u", 0),
        Transition("w", Guard.closed(0, 1), False, "f", 4),
    )
    g = make_game(locs, trans, 1)
    per = region_table(g, solve_reset_acyclic(g).values)
    inf = float("inf")
    for name, at_one in (("u", 3), ("w", 7)):
        *open_part, last = per[name]
        assert open_part == [inf, inf]
        assert (last.xs, last.vals) == ((1,), (at_one,))


def _table(entry):
    """A region value as its (x, v) points, or the bare infinity."""
    return entry if isinstance(entry, float) else list(zip(entry.xs, entry.vals))


def test_urgent_member_cannot_fire_a_border_edge_from_inside_the_region():
    """fixtures/urgent_border.json, clock bound 1: Min m (rate 0, may
    wait), urgent Min u (rate 0), finals F worth 0 and H worth 5.  Every
    edge weighs 0 and none resets: m -> u on [0, 1), m -> H on [0, 1],
    u -> m on [0, 1] and u -> F on {1}.

    u cannot wait, and m enters it only before 1, so from there time never
    reaches 1 and F is out of reach: u can only go back to m, and a play
    that cycles between them never reaches a final.  So m = 5 on [0, 1]
    (through H), u = 5 on [0, 1), and u = 0 at 1, where it fires into F.

    Letting u's copy in (0, 1) fire its edge on {1} wrote m = 0 on [0, 1)
    and u = 0 on [0, 1].  The region Bellman oracle passes those values:
    m and u support each other through their zero-weight cycle, and local
    optimality cannot tell that cycle from a play that reaches F.  Hence
    this test pins the values.
    """
    g = parse_game(load_fixture("urgent_border.json"))
    per = region_table(g, solve_reset_acyclic(g).values)
    assert [r.describe() for r in regions_of(g)] == ["{0}", "(0,1)", "{1}"]
    assert [_table(v) for v in per["m"]] == [
        [(0, 5)],
        [(0, 5), (1, 5)],
        [(1, 5)],
    ]
    assert [_table(v) for v in per["u"]] == [
        [(0, 5)],
        [(0, 5), (1, 5)],
        [(1, 0)],
    ]


def urgent_reset_game():
    """Clock bound 1: Min x (rate 1, may wait), urgent Min u (rate 0),
    finals f worth 0 and g worth 7.  x -> u on [0, 1) and x -> g on
    [0, 1], both at weight 0; u -> f on [0, 1] at weight 3, and u -> x on
    {1} with a reset at weight -1."""
    locs = (
        Location("x", MIN, 1, False, None),
        Location("u", MIN, 0, True, None),
        Location("f", "final", 0, False, Affine(0, 0)),
        Location("g", "final", 0, False, Affine(0, 7)),
    )
    trans = (
        Transition("x", Guard(F(0), F(1), True, False), False, "u", 0),
        Transition("x", Guard.closed(0, 1), False, "g", 0),
        Transition("u", Guard.closed(0, 1), False, "f", 3),
        Transition("u", point_guard(1), True, "x", -1),
    )
    return make_game(locs, trans, 1)


def test_unfireable_border_reset_closes_no_reset_cycle():
    """In urgent_reset_game, u's reset edge fires only at 1, and u is
    entered only before 1 and cannot wait.  So the reset leaves only u's
    copy at 1, which nothing enters, and closes no cycle of the region
    graph; a copy of it in (0, 1) closed u -> x -> u.

    x moves on to u for 3 on [0, 1) and takes g for 7 at 1.  u takes f for
    3 on [0, 1), and at 1 it resets into x for -1 + 3 = 2.
    """
    g = urgent_reset_game()
    per = region_table(g, solve_reset_acyclic(g).values)
    assert [_table(v) for v in per["x"]] == [
        [(0, 3)],
        [(0, 3), (1, 3)],
        [(1, 7)],
    ]
    assert [_table(v) for v in per["u"]] == [
        [(0, 3)],
        [(0, 3), (1, 3)],
        [(1, 2)],
    ]


def test_point_components_are_the_only_instant_solves(monkeypatch, reset_chain):
    """Every component of reset_chain is one copy with no edge into
    itself, so `_acyclic` solves each in one step: its six point
    components (a and b at 0, 1 and 2) and its four windows, with no
    single-valuation game and no evaluator.  Each point component used to
    compile its rows into one evaluator, and each window into two
    (pruning's and the sweep's): 6 instant solves and 14 evaluators.  An
    open component's first window banks the value its hop enters at the
    upper border, so no instant solve anchors it; that took 10 such
    solves and 18 evaluators.  No Game is built: a Game per window and
    one more for its pruning made 8, a Game per point component 14, and
    urgent and waiting copies for the evaluators 26."""
    counts = {"instant": 0, "acyclic": 0, "evaluators": 0, "games": 0}
    instant, init = region_pipeline._instant, InstantEvaluator.__init__
    acyclic = region_pipeline._acyclic
    post_init = Game.__post_init__

    def counting_instant(*args):
        counts["instant"] += 1
        return instant(*args)

    def counting_acyclic(*args):
        counts["acyclic"] += 1
        return acyclic(*args)

    def counting_init(self, *args):
        counts["evaluators"] += 1
        init(self, *args)

    def counting_post_init(self):
        counts["games"] += 1
        post_init(self)

    monkeypatch.setattr(region_pipeline, "_instant", counting_instant)
    monkeypatch.setattr(region_pipeline, "_acyclic", counting_acyclic)
    monkeypatch.setattr(InstantEvaluator, "__init__", counting_init)
    monkeypatch.setattr(Game, "__post_init__", counting_post_init)
    solve_reset_acyclic(reset_chain)
    assert counts == {"instant": 0, "acyclic": 6 + 4, "evaluators": 0, "games": 0}


def test_each_solve_places_its_final_lines_once(monkeypatch, reset_chain):
    """Finals are never pruned, so a window's sweep puts them on their
    integer scale once, for pruning, the budget and its window evaluator;
    a point component with a cycle places its own.  Placing them again in
    each of those (and twice in the window evaluator) made 22 in
    reset_chain, and a sweep per window and a run per point component 10.
    Its components are all acyclic now and place none.  In urgent_border,
    the window of {m, u} in (0, 1) places them once and the point
    component {m, u} at 0 once."""
    calls = 0
    integer_lines = urgent._integer_lines

    def counting(*args):
        nonlocal calls
        calls += 1
        return integer_lines(*args)

    monkeypatch.setattr(urgent, "_integer_lines", counting)
    solve_reset_acyclic(reset_chain)
    assert calls == 0
    solve_reset_acyclic(parse_game(load_fixture("urgent_border.json")))
    assert calls == 1 + 1


@pytest.mark.parametrize("name, builds", [("guarded_jump.json", 1), ("urgent_border.json", 3)])
def test_only_components_with_a_cycle_build_evaluators(monkeypatch, name, builds):
    """A copy with no edge into itself is solved by `_acyclic` with no
    evaluator; a point component with a cycle builds one, and a window
    of one two (pruning's and the sweep's).  guarded_jump's one such
    component is a point; urgent_border has the window of {m, u} in
    (0, 1) and the point component {m, u} at 0.  When every component
    built its own, they took 6 and 5."""
    builds_seen = 0
    init = InstantEvaluator.__init__

    def counting(self, *args):
        nonlocal builds_seen
        builds_seen += 1
        init(self, *args)

    monkeypatch.setattr(InstantEvaluator, "__init__", counting)
    solve_reset_acyclic(parse_game(load_fixture(name)))
    assert builds_seen == builds


@pytest.mark.parametrize("name", ["reset_chain.json", "guarded_jump.json", "fig1.json"])
def test_region_pipeline_builds_no_game(monkeypatch, name):
    """Point components and open windows compile their rows straight from
    the region graph, and the sweep prunes rows: the pipeline builds no
    Game, Location or Transition.  Each window built two Games (its own
    and its pruning's) and a Location per member and stub.  Nor does it
    validate a function it built itself: points and infinite constants
    are built trusted too."""
    g = parse_game(load_fixture(name))
    counts = {"games": 0, "locations": 0, "transitions": 0, "validated": 0}

    def counting(key, cls, attr):
        original = getattr(cls, attr)

        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    counting("games", Game, "__post_init__")
    counting("locations", Location, "__post_init__")
    counting("transitions", Transition, "__init__")
    counting("validated", CostFunction, "__post_init__")
    solve_reset_acyclic(g)
    assert counts == {"games": 0, "locations": 0, "transitions": 0, "validated": 0}


def test_window_values_are_built_once(monkeypatch, reset_chain):
    """`sweep` builds each window's finite values on the window itself.
    Building them on [0, 1] and mapping them onto the window built each
    one twice: 22 cost functions here instead of 18.  A final copy is now
    its cost line, so bf's five region copies and the concat that
    stitched two of them back into one line are gone too: 13."""
    counts = {"builds": 0}
    store = CostFunction._store

    def counting_store(self, *args):
        counts["builds"] += 1
        store(self, *args)

    monkeypatch.setattr(CostFunction, "_store", counting_store)
    solve_reset_acyclic(reset_chain)
    assert counts["builds"] == 13


@pytest.mark.parametrize("name", ["reset_chain", "guarded_jump"])
def test_final_copies_build_no_cost_function(monkeypatch, tmp_path, capsys, name):
    """A final copy is its cost line: `ptg solve` builds one `from_affine`
    per final location, for its one segment, and none per region copy,
    in-process too; read per region, that segment is the cost line on
    each region."""
    g = parse_game(load_fixture(f"{name}.json"))
    calls = []
    from_affine = CostFunction.from_affine

    def counting(lo, hi, line):
        calls.append((lo, hi))
        return from_affine(lo, hi, line)

    monkeypatch.setattr(CostFunction, "from_affine", staticmethod(counting))
    out = tmp_path / "out.json"
    assert main(["solve", str(FIXTURES / f"{name}.json"), "--out", str(out)]) == 0
    bound = g.clock_bound
    assert calls == [(0, bound)] * len(g.final_locations)
    del calls[:]
    sol = solve_reset_acyclic(g)
    assert calls == [(0, bound)] * len(g.final_locations)
    per = region_table(g, sol.values)
    for l in g.final_locations:
        assert sol.values[l.name] == (from_affine(0, bound, l.final_cost),)
        assert per[l.name] == tuple(from_affine(r.lo, r.hi, l.final_cost) for r in regions_of(g))


def _with_rounds(instant, *args):
    """instant(*args) and the rounds of every evaluator run it made."""
    rounds = []
    run = InstantEvaluator.run

    def recording(self, nu, history=None):
        out = run(self, nu, history)
        rounds.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InstantEvaluator, "run", recording)
        vals = instant(*args)
    return vals, rounds


def _check_acyclic(rg, comp, edges, nodeval, c, d=None, anchor=None, acyclic=region_pipeline._acyclic):
    """`_acyclic`'s value of a copy with no edge into itself, on the point
    c or the window [c, d], which runs no value iteration: the values,
    infinities included, that a Game built for it gives."""
    got, rounds = _with_rounds(acyclic, rg, comp, edges, nodeval, c, d, anchor)
    assert rounds == []
    (node,) = comp
    assert all(rg.transitions[j].target != node for j in edges[node])
    if d is None:
        want = instant_by_subgame(rg, comp, edges, nodeval, c)
    else:
        interior = {node: [rg.transitions[j] for j in edges[node]]}
        want = window_by_subgame(rg, comp, interior, nodeval, anchor, c, d, None)
    assert got == want, (node, c, d)
    return got


def _acyclic_checked(solve, g):
    """solve(g) with every `_acyclic` step checked by `_check_acyclic`;
    the steps, as (point, window) counts."""
    steps = [0, 0]

    def checked(*args):
        steps[len(args) > 5] += 1
        return _check_acyclic(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region_pipeline, "_acyclic", checked)
        solve(g)
    return tuple(steps)


# the drawn reference suites below take the profile's draws, at least 60:
# 100 by default, 3000 in CI's fuzz job (--hypothesis-profile=fuzz)
REFERENCE_EXAMPLES = max(60, settings.default.max_examples)


@settings(max_examples=REFERENCE_EXAMPLES, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_point_solves_match_the_subgame_reference(seed):
    """Every point component of a drawn game gets the values it got from
    a Game built for it: with a cycle, also the rounds; with none, from
    `_acyclic`, which runs no value iteration."""
    g = usable_guarded(seed)
    assume(g is not None)
    instant = region_pipeline._instant

    def checked(*args):
        got = _with_rounds(instant, *args)
        assert got == _with_rounds(instant_by_subgame, *args)
        return got[0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region_pipeline, "_instant", checked)
        _acyclic_checked(solve_reset_acyclic, g)


def _hand_component_game():
    """Min a, Max b and Min c, each with edges to the others and out to
    p, q, r and a final f; c reaches r both with and without a reset, so
    its two stubs share a target."""
    locs = (
        Location("a", MIN, 1, False, None),
        Location("b", MAX, -1, False, None),
        Location("c", MIN, 2, False, None),
        Location("p", MAX, 0, False, None),
        Location("q", MIN, 0, False, None),
        Location("r", MIN, 0, False, None),
        Location("f", "final", 0, False, Affine(F(3, 2), F(-1, 3))),
    )
    full = Guard.closed(0, 1)
    trans = (
        Transition("a", full, False, "b", 1),
        Transition("b", full, False, "a", -1),
        Transition("b", full, False, "c", 2),
        Transition("c", full, False, "a", 0),
        Transition("a", full, False, "p", 2),
        Transition("b", full, False, "q", 0),
        Transition("c", full, False, "r", -2),
        Transition("c", full, True, "r", 4),
        Transition("a", full, False, "f", 3),
        Transition("b", full, False, "r", 1),
        Transition("p", full, False, "f", 0),
        Transition("q", full, False, "f", 0),
        Transition("r", full, False, "f", 0),
    )
    return make_game(locs, trans, 1)


_PALETTE = (float("inf"), float("-inf"), F(5, 2), F(-7, 3))


@pytest.mark.parametrize("region", [0, 2])
def test_point_solves_match_the_subgame_reference_on_hand_components(region):
    """Components of several members whose outside targets are set by hand
    to +inf, -inf or finite values, in every combination: the compiled
    rows give the reference's values and rounds.  Each member alone, its
    moves or none of them, is a copy with no edge into itself: `_acyclic`
    gives the reference's values, with Min and Max owners and infinite
    options of either sign.  In {0} the hops into (0, 1) enter too; in {1}
    there are none."""
    g = _hand_component_game()
    rg = build_region_game(g)
    out_edges = rg.outgoing_map()
    x = rg.regions[region].lo
    hops = {("a", 1): CostFunction.from_affine(0, 1, Affine(1, F(1, 3))), ("b", 1): float("inf")}
    hops[("c", 1)] = CostFunction.from_affine(0, 1, Affine(-2, 4))
    components = ((("a", region), ("b", region), ("c", region)), (("c", region), ("a", region)))
    for members in components + tuple((m,) for m in components[0]):
        inside = set(members)
        outside = sorted({rg.transitions[j].target for m in members for j in out_edges[m]} - inside)
        free = [n for n in outside if n[0] in "pqrabc" and n[1] == region]
        for combo in itertools.product(_PALETTE, repeat=len(free)):
            nodeval = {("f", region): g.location("f").final_cost, ("r", 0): float("-inf")}
            nodeval.update(hops)
            for n, v in zip(free, combo):
                nodeval[n] = v if isinstance(v, float) else CostFunction.point(x, v)
            if len(members) == 1:
                for edges in (out_edges, {members[0]: []}):
                    _check_acyclic(rg, members, edges, nodeval, x)
                continue
            args = (rg, members, out_edges, nodeval, x)
            got = _with_rounds(region_pipeline._instant, *args)
            assert got == _with_rounds(instant_by_subgame, *args), (members, combo)


def _window_work(solve_window, *args):
    """solve_window(*args), the trace of the sweep it runs and the rounds
    of every evaluator run it makes: pruning's, then one per candidate."""
    traces, rounds = [], []
    run = InstantEvaluator.run

    def recording_run(self, nu, history=None):
        out = run(self, nu, history)
        rounds.append(out[2])
        return out

    def recording_sweep(*args, **kwargs):
        sw = solver.sweep(*args, **kwargs)
        traces.append(sw.trace)
        return sw

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InstantEvaluator, "run", recording_run)
        mp.setattr(region_pipeline, "sweep", recording_sweep)
        mp.setattr(reference, "sweep", recording_sweep)
        vals = solve_window(*args)
    return vals, traces, rounds


def _check_window(rg, comp, interior, *rest, solve_window=region_pipeline._solve_window):
    """The window's values, its sweep's trace, and its candidates and the
    rounds of each run, the same as a Game built for it gives them."""
    got = _window_work(solve_window, rg, comp, interior, *rest)
    edges = {n: [rg.transitions[j] for j in js] for n, js in interior.items()}
    assert got == _window_work(window_by_subgame, rg, comp, edges, *rest)
    return got[0]


def _windows_checked(g) -> tuple:
    """Solves g with every window checked: by `_check_window` with a
    cycle, by `_check_acyclic` without; the two counts of windows."""
    windows = []

    def checked(*args):
        windows.append(args[1])
        return _check_window(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region_pipeline, "_solve_window", checked)
        _, acyclic = _acyclic_checked(solve_reset_acyclic, g)
    return len(windows), acyclic


@settings(max_examples=REFERENCE_EXAMPLES, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_windows_match_the_subgame_reference(seed):
    """Every window of a drawn game gets the values it got from a Game
    built for it.  With a cycle it gets the sweep trace, the candidates
    and the rounds per run too, so a `--max-steps` budget runs out where
    it did; with none, `_acyclic` runs no value iteration."""
    g = usable_guarded(seed)
    assume(g is not None)
    _windows_checked(g)


_WINDOW_PALETTE = (
    float("inf"),
    float("-inf"),
    CostFunction.from_affine(0, 1, Affine(-3, F(5, 2))),
    CostFunction.from_affine(0, 1, Affine(0, F(-7, 3))),
)


@pytest.mark.parametrize("urgent", ["", "b", "ac"])
def test_windows_match_the_subgame_reference_on_hand_components(urgent):
    """Windows of (0, 1) whose outside targets are set by hand to +inf,
    -inf or finite values, in every combination, with finite and infinite
    first-window anchors and urgent members: the compiled rows give the
    reference's values, trace, candidates and rounds.  Each member alone,
    with its moves or none, the other members' values set by hand too and
    each of the three anchors, is a copy with no edge into itself:
    `_acyclic` gives the reference's values."""
    base = _hand_component_game()
    locs = [dataclasses.replace(l, urgent=l.name in urgent) for l in base.locations]
    g = make_game(locs, base.transitions, 1)
    rg = build_region_game(g)
    out_edges = rg.outgoing_map()
    members = (("a", 1), ("b", 1), ("c", 1))
    interior = {m: [j for j in out_edges[m] if rg.transitions[j].origin is not None] for m in members}
    waiting = [m for m in members if m[0] not in urgent]
    anchors = [{m: F(1, 2) for m in waiting}]
    anchors += [{**anchors[0], waiting[0]: v} for v in (float("inf"), float("-inf"))]
    for combo in itertools.product(_WINDOW_PALETTE, repeat=3):
        nodeval = {("f", 1): g.location("f").final_cost, ("r", 0): CostFunction.point(0, F(1, 4))}
        nodeval.update(zip((("p", 1), ("q", 1), ("r", 1)), combo))
        for anchor in anchors:
            for c, d in ((0, 1), (F(1, 3), F(1, 2))):
                _check_window(rg, members, interior, nodeval, anchor, c, d, None)
        nodeval.update(zip(members, combo[1:] + combo[:1]))
        for m in members:
            alone = [None] if m[0] in urgent else [F(1, 2), float("inf"), float("-inf")]
            for v, edges in itertools.product(alone, (interior, {m: []})):
                for c, d in ((0, 1), (F(1, 3), F(1, 2))):
                    _check_acyclic(rg, (m,), edges, nodeval, c, d, {m: v})


_INF = float("inf")


@pytest.mark.parametrize(
    "node, urgent, origins, targets, anchor, want",
    [
        # Min fires into f now, until the line waiting for its anchor 3 crosses it at 8/15
        ("a", False, [8], {}, F(3), CostFunction((0, F(8, 15), 1), (F(8, 3), F(52, 15), 3))),
        # p falls faster than a's rate 1 rises: waiting to fire at 1 beats firing now
        ("a", False, [4], {"p": Affine(-3, F(5, 2))}, _INF, CostFunction((0, 1), (F(5, 2), F(3, 2)))),
        ("a", False, [4], {"p": -_INF}, F(3), -_INF),
        ("a", False, [4], {"p": _INF}, _INF, _INF),
        ("a", True, [], {}, None, _INF),
        # Max takes +inf from any option, and drops -inf ones for r, fired now
        ("b", False, [5, 9], {"q": _INF, "r": Affine(0, F(-7, 3))}, F(0), _INF),
        ("b", False, [5, 9], {"q": -_INF, "r": Affine(0, F(-7, 3))}, -_INF, CostFunction((0, 1), (F(-4, 3),) * 2)),
        ("b", False, [5], {"q": -_INF}, -_INF, -_INF),
        ("b", True, [5, 9], {"q": -_INF, "r": _INF}, None, _INF),
    ],
)
def test_acyclic_window_values_by_hand(node, urgent, origins, targets, anchor, want):
    """One copy of the hand game in the window [0, 1] of (0, 1), with the
    named base edges as its moves and the targets' values set by hand:
    Min a has rate 1 and Max b rate -1; f is 3/2 x - 1/3, a -> f has
    weight 3, a -> p 2, b -> q 0 and b -> r 1.  Each value is worked out
    by hand, and is the reference's."""
    base = _hand_component_game()
    locs = [dataclasses.replace(l, urgent=urgent and l.name == node) for l in base.locations]
    g = make_game(locs, base.transitions, 1)
    rg = build_region_game(g)
    m = (node, 1)
    edges = {m: [j for j in rg.outgoing_map()[m] if rg.transitions[j].origin in origins]}
    nodeval = {("f", 1): g.location("f").final_cost}
    for name, v in targets.items():
        nodeval[(name, 1)] = v if isinstance(v, float) else CostFunction.from_affine(0, 1, v)
    got = _check_acyclic(rg, (m,), edges, nodeval, F(0), F(1), {m: anchor})
    assert got == {m: want}


def test_region_pipeline_builds_no_strategies(monkeypatch, reset_chain):
    """Each window of an open region is needed for its values only, so the
    pipeline gives the same values with strategy synthesis refused."""
    guarded_jump = parse_game(load_fixture("guarded_jump.json"))
    games = [reset_chain, guarded_jump] + [usable_guarded(s) for s in GUARDED_SEEDS[:20]]
    want = [solve_reset_acyclic(g).values for g in games]

    def refuse(*args):
        raise AssertionError("the region pipeline asked for a strategy")

    monkeypatch.setattr(solver, "_synthesize", refuse)
    monkeypatch.setattr(solver, "attractor", refuse)
    assert [solve_reset_acyclic(g).values for g in games] == want


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
    check_reset_acyclic(rg)
    assert sum(t.reset for t in rg.transitions) == 3
    sol = solve_reset_acyclic(g)
    # b exits at once for phi(nu) = nu; a resets immediately, paying 5
    (fb,) = sol.values["b"]
    assert list(zip(fb.xs, fb.vals)) == [(F(0), F(0)), (F(1), F(1))]
    (fa,) = sol.values["a"]
    assert list(zip(fa.xs, fa.vals)) == [(F(0), F(5)), (F(1), F(5))]


def _border_exit_core():
    """The core of a generated game the region pipeline once got wrong.

    g1 leaves for g5 on [1, 3) and loops on {3} at weight -4; g4 reaches
    g1 only at the borders 1 and 3.  The loop's guard touches the open
    region (1, 3) only at its upper border.  Copied back into the open
    copy, the loop once met g1's exit there "in the limit", a negative
    cycle with an exit that made g1 -inf on all of [0, 3).  Only the copy
    at {3} carries the loop, which the open copy reaches by its hop.
    """
    locs = (
        Location("g1", "min", 3, False, None),
        Location("g4", "min", 3, False, None),
        Location("g5", "final", 0, False, Affine(3, 3)),
    )
    trans = (
        Transition("g1", Guard(F(1), F(3), True, False), False, "g5", 4),
        Transition("g1", point_guard(3), False, "g1", -4),
        Transition("g4", point_guard(3), False, "g1", 4),
        Transition("g4", point_guard(1), False, "g1", 1),
    )
    return make_game(locs, trans, 3)


def test_edge_collapsed_to_the_upper_border_lands_in_the_border_point():
    g = _border_exit_core()
    rg = build_region_game(g)
    assert [r.describe() for r in rg.regions] == ["{0}", "(0,1)", "{1}", "(1,3)", "{3}"]
    loop = [(t.source[1], t.target[1]) for t in rg.transitions if t.origin == 1]
    assert loop == [(4, 4)]
    per = region_table(g, solve_reset_acyclic(g).values)
    g1 = per["g1"]
    for x in (F(0), F(1, 2), F(1)):
        assert _value(g1[0 if x == 0 else 1 if x < 1 else 2], x) == 13 - 3 * x
    for x in (F(1), F(2), F(5, 2), F(3)):
        # the open region's closure carries the left limit at 3
        assert _value(g1[3], x) == 3 * x + 7
    assert g1[4] == float("inf")
    g4 = per["g4"]
    assert [_value(g4[0], F(0)), _value(g4[1], F(1, 2)), _value(g4[2], F(1))] == [14, F(25, 2), 11]
    assert g4[3] == g4[4] == float("inf")
    assert all(
        region_bellman_check(g, regions_of(g), per, x) == []
        for x in (F(0), F(1, 2), F(1), F(2), F(3))
    )


SCALE = 8


@st.composite
def scaled_split_twins(draw):
    """A simple game with 4-8 locations, rates and weights in [-8, 8], and
    its twin with time scaled by 8: clock bound 8, weights and final
    intercepts times 8, rates and final slopes kept, and each guard, now
    [0, 8], split at a drawn integer k into [0, k] and [k, 8]."""
    n = draw(st.integers(4, 8))
    names = [f"q{i}" for i in range(n)]
    finals = sorted(draw(st.sets(st.sampled_from(names), min_size=1, max_size=max(1, n // 3))))
    small = st.integers(-8, 8)
    locs, twin_locs, trans, twin_trans = [], [], [], []
    for m in names:
        if m in finals:
            slope, c = draw(small), draw(small)
            locs.append(Location(m, "final", 0, False, Affine(slope, c)))
            twin_locs.append(Location(m, "final", 0, False, Affine(slope, SCALE * c)))
            continue
        urgent = draw(st.integers(0, 3)) == 0
        locs.append(Location(m, draw(st.sampled_from((MIN, MAX))), draw(small), urgent, None))
        twin_locs.append(locs[-1])
        for _ in range(draw(st.integers(1, 3))):
            # finals are listed twice: a pull toward them keeps most games finite
            target, w = draw(st.sampled_from(finals + names)), draw(small)
            k = draw(st.integers(0, SCALE))
            trans.append(Transition(m, Guard.closed(0, 1), False, target, w))
            for lo, hi in ((0, k), (k, SCALE)):
                twin_trans.append(Transition(m, Guard.closed(lo, hi), False, target, SCALE * w))
    return make_game(locs, trans, 1), make_game(twin_locs, twin_trans, SCALE)


def assert_scaled_values(direct, scaled, factor, xs):
    """scaled, read by the document reader's rule at factor * x, is factor
    times direct at x, for every location and every x in xs."""
    for name, f in direct.items():
        for x in xs:
            (v,) = region_values((Region(factor * x, factor * x),), list(scaled[name]))
            got = v if isinstance(v, float) else evaluate(v, factor * x)
            assert got == factor * evaluate(f, x), (name, x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scaled_split_twins())
def test_scaled_split_twin_has_scaled_values(pair):
    """The value is a property of the game, not of its time unit or of how
    its guards are split, so the region pipeline's values of the twin are 8
    times the sweep's values of the original, read by the document reader's
    rule at 25 points per location; an empty game's infinities included."""
    g, twin = pair
    direct = solve(g).values
    scaled = solve_reset_acyclic(twin).values
    assert_scaled_values(direct, scaled, SCALE, [F(j, 24) for j in range(25)])


def _fig1_scaled(fig1, factor, k):
    """fig1 with time scaled by factor and every guard split at k."""
    locs = [
        dataclasses.replace(l, final_cost=Affine(l.final_cost.slope, factor * l.final_cost.intercept))
        if l.is_final else l
        for l in fig1.locations
    ]
    trans = [
        dataclasses.replace(t, guard=Guard.closed(lo, hi), weight=factor * t.weight)
        for t in fig1.transitions
        for lo, hi in ((0, k), (k, factor))
    ]
    return make_game(locs, trans, factor)


@pytest.mark.parametrize("factor, k", [(2, F(1, 3)), (5, F(7, 3))])
def test_fig1_scaled_windows_match_the_subgame_reference(fig1, factor, k):
    """In each open region of the scaled and split fig1 below, one window
    holds the cycle through l1, l2, l3, l5 and l6; they wait at rational
    rates and re-anchor after rejections.  l4 and l7 have no cycle.  Each
    of the six windows matches the Game-built reference."""
    assert _windows_checked(_fig1_scaled(fig1, factor, k)) == (2, 4)


@pytest.mark.parametrize("factor, k", [(2, F(1, 3)), (5, F(7, 3))])
def test_fig1_scaled_and_split_off_the_integers(fig1, factor, k):
    """fig1's sweep rejects three windows.  With time scaled by factor and
    every guard split at a k off the integers, the open regions have
    rational lengths, so the region pipeline's windows wait at rational
    rates and re-anchor after rejections; the values stay factor times
    fig1's, read at every breakpoint, every midpoint and j/24."""
    scaled = solve_reset_acyclic(_fig1_scaled(fig1, factor, k)).values
    direct = solve(fig1).values
    xs = sorted({x for f in direct.values() for x in f.xs} | {F(j, 24) for j in range(25)})
    assert_scaled_values(direct, scaled, factor, xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])])


# ---------------------------------------------------------------------------
# Border-seeing metamorphic relations: rewritings that leave the game's
# values as they are but move the region borders or the edges at them.


def assert_same_values(g, twin):
    """Both games' stitched values, read per region of the twin by the
    document reader's rule, agree at every point region and at both ends
    and the midpoint of every open region."""
    regs = regions_of(twin)
    want, got = solve_reset_acyclic(g).values, solve_reset_acyclic(twin).values
    for name in want:
        pairs = zip(regs, region_values(regs, list(want[name])), region_values(regs, list(got[name])))
        for reg, u, v in pairs:
            xs = [reg.lo] if reg.is_point else [reg.lo, (reg.lo + reg.hi) / 2, reg.hi]
            for x in xs:
                assert _value(v, x) == _value(u, x), (name, reg.describe(), x)


@st.composite
def split_guard_twins(draw):
    """A usable guarded game and its twin with one guard [a, b] split at an
    interior rational k into [a, k] and [k, b], or into [a, k) and [k, b]."""
    g = usable_guarded(draw(st.integers(0, 10**6)))
    assume(g is not None)
    wide = [i for i, t in enumerate(g.transitions) if t.guard.lo < t.guard.hi]
    assume(wide)
    i = draw(st.sampled_from(wide))
    t, gd = g.transitions[i], g.transitions[i].guard
    den = draw(st.integers(2, 7))
    k = gd.lo + (gd.hi - gd.lo) * F(draw(st.integers(1, den - 1)), den)
    parts = (
        dataclasses.replace(t, guard=dataclasses.replace(gd, hi=k, hi_closed=draw(st.booleans()))),
        dataclasses.replace(t, guard=dataclasses.replace(gd, lo=k, lo_closed=True)),
    )
    trans = g.transitions[:i] + parts + g.transitions[i + 1 :]
    return g, make_game(g.locations, trans, g.clock_bound)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(split_guard_twins())
def test_splitting_a_guard_keeps_the_values(pair):
    """The split edges fire at exactly the valuations the one edge did, so
    the game and its values are unchanged; only the twin has a region
    border at k, and values must agree on both sides of it and at it."""
    assert_same_values(*pair)


@st.composite
def dominated_edge_twins(draw):
    """A usable guarded game and its twin with one edge copied at a weight
    its owner never prefers: larger for Min, smaller for Max."""
    g = usable_guarded(draw(st.integers(0, 10**6)))
    assume(g is not None)
    t = draw(st.sampled_from(g.transitions))
    d = draw(st.integers(1, 4))
    w = t.weight - d if g.location(t.source).owner == MAX else t.weight + d
    trans = g.transitions + (dataclasses.replace(t, weight=w),)
    return g, make_game(g.locations, trans, g.clock_bound)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(dominated_edge_twins())
def test_a_dominated_parallel_edge_keeps_the_values(pair):
    """An edge whose owner always does at least as well on its twin with
    the same guard, reset and target changes no value."""
    assert_same_values(*pair)


def test_broken_region_invariant_names_phase_and_copy(reset_chain):
    """A window result that is +inf on one side of a region and -inf on the
    other cannot come from the pipeline; joining it raises InternalError,
    which names the phase and the region copy."""
    inf = float("inf")
    rg = build_region_game(reset_chain)
    with pytest.raises(InternalError) as caught:
        region_pipeline._combine([inf, -inf], rg, ("a", 1))
    assert str(caught.value) == "region solve at a in (0,1): infinite value must cover its whole region"
    assert (caught.value.phase, caught.value.where, caught.value.nu) == ("region solve", "a in (0,1)", None)


def test_a_value_short_of_its_region_is_an_internal_error(reset_chain):
    """Solving reads an open copy's value as spanning its region's closure:
    a hop from the point below enters it at its first value.  Joined
    window results that start inside the region raise InternalError,
    which names the phase and the copy."""
    rg = build_region_game(reset_chain)
    half = CostFunction.from_affine(Fraction(1, 2), 1, Affine(1, 0))
    with pytest.raises(InternalError) as caught:
        region_pipeline._combine([half], rg, ("a", 1))
    assert str(caught.value) == "region solve at a in (0,1): value does not span its region's closure"
