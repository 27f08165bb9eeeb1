import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptgsolve.exactmath import (
    INF,
    NEG_INF,
    Affine,
    CostFunction,
    DomainError,
    SeamMismatch,
    concat,
    evaluate,
    format_value,
    parse_value,
)

from ptgsolve import regions
from reference import (
    InfinitePiece,
    canonical_by_fraction,
    concat_by_fraction,
    envelope_by_fraction,
    evaluate_by_fraction,
    from_points,
    pairwise_intersections,
    restrict,
    slope_between,
)


def test_evaluate_affine_endpoint():
    f = CostFunction.from_affine(0, 1, Affine(-3, -4))
    assert evaluate(f, 1) == -7


def test_evaluate_constant():
    f = CostFunction.constant(0, 1, 0)
    assert evaluate(f, F(1, 2)) == 0


def test_evaluate_interpolates_between_breakpoints():
    f = from_points([(0, F(-19, 2)), (F(1, 4), -6), (F(1, 2), F(-11, 2))])
    assert evaluate(f, F(1, 8)) == F(-31, 4)


def test_evaluate_outside_domain():
    f = CostFunction.constant(0, 1, 0)
    with pytest.raises(DomainError):
        evaluate(f, 2)


def test_evaluate_every_breakpoint_and_midpoint():
    # a convex parabola sampled at ninths: nine pieces, none collinear
    pts = [(F(i, 9), F(i * i, 81) - F(i, 3)) for i in range(10)]
    f = from_points(pts)
    assert len(f.xs) - 1 == 9
    for x, v in pts:
        assert evaluate(f, x) == v
    for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
        assert evaluate(f, (x0 + x1) / 2) == (v0 + v1) / 2
    for x in (F(-1, 9), F(10, 9)):
        with pytest.raises(DomainError):
            evaluate(f, x)


def test_concat_two_segments():
    right = from_points([(F(1, 2), F(1, 2)), (1, 1)])
    left = from_points([(0, F(-1, 2)), (F(1, 2), F(1, 2))])
    glued = concat(left, right)
    assert glued.xs == (F(0), F(1, 2), F(1))
    assert evaluate(glued, F(1, 2)) == F(1, 2)
    assert len(glued.xs) - 1 == 2
    seam = CostFunction.point(F(1, 2), F(1, 2))
    assert concat(left, seam, right) == concat(concat(left, seam), right) == glued


def test_concat_point_domain_is_identity():
    f = from_points([(F(1, 4), 2), (1, 5)])
    point = restrict(f, F(1, 4), F(1, 4))
    assert concat(point, f) == f


def test_concat_prepends_fig_segments():
    # the last two pieces of the first location's value function
    right = from_points([(F(9, 10), F(-1, 5)), (1, 0)])
    left = from_points([(F(3, 4), -2), (F(9, 10), F(-1, 5))])
    glued = concat(left, right)
    assert glued.xs == (F(3, 4), F(9, 10), F(1))
    assert evaluate(glued, F(9, 10)) == F(-1, 5)


def test_concat_seam_mismatch():
    right = CostFunction.constant(F(1, 2), 1, 3)
    left = CostFunction.constant(0, F(1, 2), 2)
    with pytest.raises(SeamMismatch):
        concat(left, right)


def test_concat_needs_single_point_overlap():
    right = CostFunction.constant(F(1, 4), 1, 0)
    left = CostFunction.constant(0, F(1, 2), 0)
    with pytest.raises(DomainError):
        concat(left, right)


def test_concat_agreement_invariant():
    right = from_points([(F(1, 2), 1), (1, 3)])
    left = from_points([(0, 0), (F(1, 2), 1)])
    glued = concat(left, right)
    for x in (0, F(1, 4), F(1, 2), F(3, 4), 1):
        want = evaluate(right, x) if x >= F(1, 2) else evaluate(left, x)
        assert evaluate(glued, x) == want


def test_slope_between_affine():
    f = CostFunction.from_affine(0, 1, Affine(-3, -4))
    assert slope_between(f, 0, 1) == -3


def test_slope_between_constant():
    f = CostFunction.constant(0, 1, 7)
    assert slope_between(f, F(1, 8), F(3, 4)) == 0


def test_slope_between_chord_over_kink():
    f = from_points([(F(3, 4), -2), (F(9, 10), F(-1, 5)), (1, 0)])
    assert slope_between(f, F(3, 4), F(9, 10)) == 12


def test_slope_between_translation_invariant():
    pts = [(0, F(-19, 2)), (F(1, 4), -6), (F(1, 2), F(-11, 2))]
    f = from_points(pts)
    g = from_points([(x, v + 17) for x, v in pts])
    for a, b in [(0, F(1, 4)), (F(1, 8), F(3, 8)), (0, F(1, 2))]:
        assert slope_between(f, a, b) == slope_between(g, a, b)


def test_slope_between_infinite_piece():
    f = CostFunction.constant(0, 1, INF)
    with pytest.raises(InfinitePiece):
        slope_between(f, 0, 1)


def test_pairwise_intersections_basic():
    assert pairwise_intersections([Affine(-3, -4), Affine(16, -10)], 0, 1) == [F(6, 19)]


def test_pairwise_intersections_parallel():
    assert pairwise_intersections([Affine(1, 0), Affine(1, 1)], 0, 1) == []


def test_pairwise_intersections_concurrent_lines():
    # all three pairs of these lines meet at the single point 1/2
    lines = [Affine(0, 0), Affine(2, -1), Affine(-2, 1)]
    assert pairwise_intersections(lines, 0, 1) == [F(1, 2)]


def test_pairwise_intersections_size_bound():
    lines = [Affine(k, k * k) for k in range(6)]
    hits = pairwise_intersections(lines, -100, 100)
    assert len(hits) <= len(lines) * (len(lines) - 1) // 2


def test_canonical_merges_collinear_pieces():
    f = from_points([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])
    assert f.xs == (F(0), F(1))
    assert f == CostFunction.from_affine(0, 1, Affine(1, 0))


def test_breakpoints_strictly_increasing():
    with pytest.raises(DomainError):
        from_points([(0, 0), (0, 1)])


def test_infinite_constant_function():
    f = CostFunction.constant(0, 1, NEG_INF)
    assert evaluate(f, F(1, 3)) == NEG_INF
    assert f.vals == (NEG_INF, NEG_INF)


def test_restrict_mid_piece():
    f = from_points([(0, 0), (1, 4)])
    g = restrict(f, F(1, 4), F(3, 4))
    assert g.lo == F(1, 4) and g.hi == F(3, 4)
    assert evaluate(g, F(1, 2)) == 2


def test_value_round_trip_strings():
    for v in (F(6, 19), F(-31, 4), F(5), INF, NEG_INF):
        assert parse_value(format_value(v)) == v
    assert format_value(F(5)) == "5"
    assert format_value(F(-1, 5)) == "-1/5"


@pytest.mark.parametrize(
    "text, value",
    [("7", F(7)), ("-3/4", F(-3, 4)), ("+1/2", F(1, 2)), ("1.25", F(5, 4)), (".5", F(1, 2)), ("2.", F(2))],
)
def test_parse_value_reads_the_documented_literals(text, value):
    assert parse_value(text) == value


@pytest.mark.parametrize(
    "text", ["1e3", "1E-3", "2.5e1", "inf", "nan", " 1", "1 ", "1_000", "1/0", "1/-2", "", ".", "0x10"]
)
def test_parse_value_rejects_other_literals(text):
    # an exponent would let a few bytes ask Fraction for a huge integer
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_value(text)


_OLD_LITERAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def _parse_by_fraction(text):
    """parse_value's finite literals as they were read: the literal check,
    then Fraction(text), which runs a regex of its own."""
    if not isinstance(text, str):
        raise TypeError(text)
    if not _OLD_LITERAL.fullmatch(text):
        raise ValueError(text)
    try:
        return F(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(text) from exc


def _outcome(read, text):
    try:
        return read(text)
    except (TypeError, ValueError) as exc:
        return type(exc)


_DIGITS = st.text("0123456789", min_size=1, max_size=30)
_LITERALS = st.one_of(
    st.builds("".join, st.lists(st.sampled_from(["+", "-", "/", ".", "0", "1", "7", "e", " ", "_", "١"]), max_size=10)),
    st.builds(lambda s, n, d: f"{s}{n}/{d}", st.sampled_from(["", "+", "-"]), _DIGITS, _DIGITS),
    st.builds(lambda s, n, d: f"{s}{n}.{d}", st.sampled_from(["", "+", "-"]), _DIGITS | st.just(""), _DIGITS),
    st.builds(lambda s, n: s + n, st.sampled_from(["", "+", "-"]), _DIGITS),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_LITERALS)
def test_parse_value_reads_literals_as_fraction_did(text):
    want = _outcome(_parse_by_fraction, text)
    got = _outcome(parse_value, text)
    if isinstance(want, F):
        assert got == want == F(text)
    else:
        assert got is want


@pytest.mark.parametrize(
    "text", [7, 0.5, None, True, b"1", "1" * 4301, "-" + "9" * 4301, "1/" + "3" * 4301, "1/0", "-0/0", "NaN", "1e3"]
)
def test_parse_value_refuses_as_fraction_did(text):
    want = _outcome(_parse_by_fraction, text)
    assert want in (TypeError, ValueError)
    with pytest.raises(want):
        parse_value(text)


# Finite point lists for the canonical form: abscissae strictly increasing,
# values small rationals, so collinear runs are common.
_VALUES = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3)))


@st.composite
def point_lists(draw, min_size=1):
    n = draw(st.integers(min_size, 7))
    steps = draw(st.lists(st.builds(F, st.integers(1, 4), st.sampled_from((1, 2, 4))), min_size=n, max_size=n))
    xs = [sum(steps[: i + 1], F(-1)) for i in range(n)]
    return list(zip(xs, draw(st.lists(_VALUES, min_size=n, max_size=n))))


def _on_line(a, b, c) -> bool:
    (x0, v0), (x1, v1), (x2, v2) = a, b, c
    return (v1 - v0) * (x2 - x1) == (v2 - v1) * (x1 - x0)


def _interpolated(pts, nu):
    for (x0, v0), (x1, v1) in zip(pts, pts[1:]):
        if x0 <= nu <= x1:
            return v0 + (v1 - v0) * (nu - x0) / (x1 - x0)
    return pts[0][1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point_lists())
def test_constructor_drops_every_breakpoint_on_its_neighbours_line(pts):
    f = from_points(pts)
    kept = list(zip(f.xs, f.vals))
    assert set(kept) <= set(pts) and kept[0] == pts[0] and kept[-1] == pts[-1]
    assert not any(_on_line(*kept[i : i + 3]) for i in range(len(kept) - 2))
    assert f == CostFunction(f.xs, f.vals)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point_lists(min_size=2), st.data())
def test_extra_collinear_breakpoints_compare_equal(pts, data):
    # put a breakpoint strictly inside one piece, on its line
    f = from_points(pts)
    i = data.draw(st.integers(0, len(pts) - 2))
    (x0, v0), (x1, v1) = pts[i], pts[i + 1]
    t = data.draw(st.sampled_from((F(1, 3), F(1, 2), F(5, 7))))
    extra = (x0 + t * (x1 - x0), v0 + t * (v1 - v0))
    assert from_points(pts[: i + 1] + [extra] + pts[i + 1 :]) == f
    assert concat(restrict(f, f.lo, extra[0]), restrict(f, extra[0], f.hi)) == f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point_lists())
def test_evaluate_interpolates_at_breakpoints_and_midpoints(pts):
    f = from_points(pts)
    xs = [x for x, _ in pts]
    for nu in xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]:
        assert evaluate(f, nu) == _interpolated(pts, nu)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(point_lists(min_size=2), st.data())
def test_mixed_or_two_infinities_are_refused(pts, data):
    vals = [v for _, v in pts]
    i = data.draw(st.integers(0, len(vals) - 1))
    mixed = vals[:i] + [data.draw(st.sampled_from((INF, NEG_INF)))] + vals[i + 1 :]
    infinities = [INF] * len(vals)
    infinities[i] = NEG_INF
    for bad in (mixed, infinities):
        with pytest.raises(DomainError):
            CostFunction(tuple(x for x, _ in pts), tuple(bad))


# ---------------------------------------------------------------------------
# the integer scales against the Fraction versions they replaced
#
# A `CostFunction` keeps its breakpoints and values as integers over two
# minimal denominators.  The constructor's canonical form, `evaluate`,
# `concat` and `regions._envelope` compute on those integers; the Fraction
# versions they replaced live in `reference`.  The draws mix small
# denominators, where collinear runs and merging seams are common, with
# large primes, where every scale is a product of distinct primes.

_PRIMES = (2**61 - 1, 2**31 - 1, 1_000_003)
_BIG = st.builds(lambda n, d: F(n, d), st.integers(-(2**64), 2**64), st.sampled_from(_PRIMES + (1,)))
_RATIONALS = st.one_of(_VALUES, _BIG)


@st.composite
def mixed_point_lists(draw, min_size=1):
    """Points with strictly increasing abscissae, each coordinate small or
    over a large prime."""
    n = draw(st.integers(min_size, 6))
    xs = sorted(set(draw(st.lists(_RATIONALS, min_size=n, max_size=n + 3))))
    assume(len(xs) >= min_size)
    return list(zip(xs, draw(st.lists(_RATIONALS, min_size=len(xs), max_size=len(xs)))))


def _same_function(f, xs, vals) -> None:
    assert (f.xs, f.vals) == (tuple(xs), tuple(vals))
    # minimal scales: each denominator is the least that holds its numbers
    if not isinstance(f.vn[0], float):
        assert f.vd == math.lcm(*(v.denominator for v in f.vals))
    assert f.xd == math.lcm(*(x.denominator for x in f.xs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(point_lists(), mixed_point_lists()))
def test_canonical_form_matches_the_fraction_reference(pts):
    xs, vals = zip(*pts)
    _same_function(CostFunction(xs, vals), *canonical_by_fraction(xs, vals))
    if len(xs) > 1:
        backwards = (xs[1], xs[0], *xs[2:])
        for build in (CostFunction, canonical_by_fraction):
            with pytest.raises(DomainError):
                build(backwards, vals)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(point_lists(), mixed_point_lists()), st.sampled_from((None, INF, NEG_INF)), st.data())
def test_evaluate_matches_the_fraction_reference(pts, infinity, data):
    xs = [x for x, _ in pts]
    f = from_points(pts) if infinity is None else CostFunction.constant(xs[0], xs[-1], infinity)
    inner = [data.draw(_RATIONALS) for _ in range(3)]
    probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])] + inner
    for nu in probes:
        if f.lo <= nu <= f.hi:
            got = evaluate(f, nu)
            assert got == evaluate_by_fraction(f, nu)
            assert type(got) is type(evaluate_by_fraction(f, nu))
        else:
            for read in (evaluate, evaluate_by_fraction):
                with pytest.raises(DomainError):
                    read(f, nu)


@st.composite
def glued_parts(draw):
    """A function cut into parts at some of its breakpoints and at points
    inside its pieces, with point parts at some seams: the seams where two
    pieces lie on one line merge, the others stay breakpoints."""
    pts = draw(st.one_of(point_lists(min_size=2), mixed_point_lists(min_size=2)))
    infinity = draw(st.sampled_from((None, None, INF, NEG_INF)))
    f = from_points(pts) if infinity is None else CostFunction.constant(pts[0][0], pts[-1][0], infinity)
    cuts = set(draw(st.lists(st.sampled_from(f.xs), max_size=4)))
    for i in draw(st.lists(st.integers(0, len(pts) - 2), max_size=3)):
        (x0, _), (x1, _) = pts[i], pts[i + 1]
        cuts.add(x0 + draw(st.sampled_from((F(1, 3), F(1, 2), F(1, 2**61 - 1)))) * (x1 - x0))
    ends = [f.lo, *sorted(c for c in cuts if f.lo < c < f.hi), f.hi]
    parts = []
    for a, b in zip(ends, ends[1:]):
        parts.append(restrict(f, a, b))
        if draw(st.booleans()):
            parts.append(restrict(f, b, b))
    return f, parts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(glued_parts(), st.data())
def test_concat_matches_the_fraction_reference(case, data):
    f, parts = case
    glued = concat(*parts)
    assert glued == concat_by_fraction(*parts) == f
    _same_function(glued, f.xs, f.vals)
    if len(parts) > 1 and not isinstance(f.vals[0], float):
        # a seam whose right side is lifted no longer matches
        k = data.draw(st.integers(1, len(parts) - 1))
        right = parts[k]
        lifted = CostFunction(right.xs, tuple(v + F(1, 2**61 - 1) for v in right.vals))
        bad = parts[:k] + [lifted] + parts[k + 1 :]
        for glue in (concat, concat_by_fraction):
            with pytest.raises(SeamMismatch):
                glue(*bad)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=6),
    st.sampled_from((1, 2, 6, 2**61 - 1)),
    st.sampled_from((1, 3, 2**31 - 1)),
    st.integers(-5, 5),
    st.integers(1, 7),
    st.sampled_from((min, max)),
)
def test_envelope_matches_the_fraction_reference(lines, V, L, c, width, pick):
    """`regions._envelope` of lines given by their values at c and d on the
    scale V, over [c/L, d/L], equals the Fraction envelope."""
    d = c + width
    got = regions._envelope(lines, pick, c, d, L, V)
    want = envelope_by_fraction([(F(a, V), F(b, V)) for a, b in lines], pick, F(c, L), F(d, L))
    assert got == want
    _same_function(got, want.xs, want.vals)
