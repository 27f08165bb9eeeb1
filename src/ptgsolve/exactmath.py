"""Exact rational arithmetic and piecewise-affine cost functions.

Everything downstream (value iteration, the sweep, region solving) works with
values that are either exact rationals or one of the two infinities.  Floats
appear only as the +inf/-inf sentinels; no rounding happens anywhere.

The paper's values are continuous and piecewise affine on each region, so a
`CostFunction` is its breakpoints and its values there, each piece the line
through its two ends, kept as integers over two minimal denominators, one
per axis.  The solver builds, glues (`concat`) and reads (`CostFunction.at`)
them on those integers, the writer formats them with one gcd per number,
and `ptg verify` puts their scales on its oracle's once; `xs` and `vals`
are Fraction views for in-process callers.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

INF = float("inf")
NEG_INF = float("-inf")

#: A value is an exact rational or one of the infinity sentinels.
Value = Union[Fraction, float]

#: The finite literals parse_value reads: an integer, "p/q" or a plain
#: decimal, each with an optional sign.  Exponents are left out on purpose:
#: Fraction("1e10000000") builds a ten-million-digit integer.  The groups
#: are an integer's or a fraction's signed numerator and the denominator.
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?|[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)")


class DomainError(ValueError):
    """Argument outside a cost function's domain, or malformed domain."""


class SeamMismatch(ValueError):
    """Concatenation seam values disagree."""


def _rational(v):
    """v itself, an int or a Fraction: both have a numerator and a denominator."""
    if isinstance(v, (int, Fraction)):
        return v
    raise TypeError(f"expected an exact rational, got {type(v).__name__}: {v!r}")


def as_fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(_rational(v))


def _scaled(v, scale: int):
    """The integer v*scale of a rational v whose denominator divides
    scale; an infinity stays itself."""
    return v if isinstance(v, float) else v.numerator * (scale // v.denominator)


def format_value(v: Value) -> str:
    """Render a value as "p/q" ("p" when integral), or "+inf"/"-inf"."""
    if isinstance(v, float):
        return "+inf" if v > 0 else "-inf"
    return format_ratio(_rational(v).numerator, v.denominator)


def format_ratio(n: int, d: int) -> str:
    """The value n/d, d > 0, as `format_value` renders it: one gcd."""
    k = d if d == 1 else math.gcd(n, d)
    return str(n // k) if k == d else f"{n // k}/{d // k}"


def parse_value(text: str) -> Value:
    """A JSON string literal: an integer, "p/q", a plain decimal, "+inf" or
    "-inf"; JSON numbers and booleans are not values (true would read as 1),
    and neither are exponents, spaces or digit separators."""
    if not isinstance(text, str):
        raise TypeError(f"a value must be a string literal, got {text!r}")
    if text == "+inf":
        return INF
    if text == "-inf":
        return NEG_INF
    m = _LITERAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = m.groups()
    try:
        # int() raises ValueError past Python's digit limit, as Fraction() does
        if num is None:
            return Fraction(text)
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


@dataclass(frozen=True)
class Affine:
    """The line nu -> slope * nu + intercept."""

    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", as_fraction(self.slope))
        object.__setattr__(self, "intercept", as_fraction(self.intercept))

    def __call__(self, nu) -> Fraction:
        return self.slope * as_fraction(nu) + self.intercept


def _infinity(v: float) -> float:
    if v == INF or v == NEG_INF:
        return v
    raise TypeError(f"a float value must be an infinity sentinel, got {v!r}")


def _common_scale(vs) -> tuple:
    """(numerators, denominator): exact rationals, ints or Fractions, on
    their least common denominator, which is minimal, since a Fraction is
    in lowest terms."""
    try:
        ds = [v.denominator for v in vs]
    except AttributeError:
        raise TypeError(f"expected exact rationals, got {vs!r}") from None
    d = math.lcm(*ds)
    return [v.numerator * (d // k) for v, k in zip(vs, ds)], d


def _slope(x0: int, v0: int, x1: int, v1: int, xd: int, vd: int) -> tuple:
    """The slope between two finite breakpoints of a function on its scales
    xd and vd, as an unreduced integer pair (numerator, denominator) whose
    denominator is positive exactly when x0 < x1."""
    return (v1 - v0) * xd, vd * (x1 - x0)


def _canonical(xs: list, vals: list) -> tuple:
    """The canonical breakpoints and values of the finite function through
    the points (xs[i], vals[i]), each list on one scale: DomainError unless
    xs strictly increase, and every breakpoint on the line through its
    neighbours dropped."""
    out_x, out_v, last = [xs[0]], [vals[0]], None
    for x, v in zip(xs[1:], vals[1:]):
        dx, dv = x - out_x[-1], v - out_v[-1]
        if dx <= 0:
            raise DomainError("breakpoints must be strictly increasing")
        if last is not None and last[0] * dx == dv * last[1]:
            out_x[-1], out_v[-1] = x, v
        else:
            out_x.append(x)
            out_v.append(v)
            last = (dv, dx)
    return out_x, out_v


@dataclass(frozen=True, init=False)
class CostFunction:
    """Continuous piecewise-affine function on a closed rational interval [lo, hi].

    Breakpoint i is xn[i]/xd, strictly increasing from lo to hi, and its
    value vn[i]/vd; each piece is the line through its two breakpoints,
    and each denominator the least positive one.  A function is finite
    everywhere or one infinity everywhere, an infinite one holding its
    float sentinel at each breakpoint over vd = 1.  Instances are
    canonical, so equality is structural: no breakpoint lies on the line
    through its neighbours, and an infinite function has no inner one.
    The constructor checks exact rationals xs and vals; the package builds
    on integers (`_make`).  `xs`, `vals`, `lo` and `hi` are Fraction views.
    """

    xn: tuple
    xd: int
    vn: tuple
    vd: int

    def __init__(self, xs, vals):
        if not xs or len(vals) != len(xs):
            raise DomainError("a cost function needs one value per breakpoint, and a breakpoint")
        xn, xd = _common_scale(xs)
        floats = [_infinity(v) for v in vals if isinstance(v, float)]
        if floats and (len(floats) != len(xs) or len(set(floats)) != 1):
            raise DomainError("a cost function is finite everywhere or one infinity everywhere")
        # read on the identity line, an infinite function keeps only its ends
        vn, vd = (xn, 1) if floats else _common_scale(vals)
        xn, vn = _canonical(xn, vn)
        self._store(xn, xd, floats[: len(xn)] or vn, vd)

    def _store(self, xn, xd: int, vn, vd: int) -> None:
        """Keeps canonical parts on their least scales, one gcd per axis;
        every build ends here."""
        k = math.gcd(xd, *xn)
        if k != 1:
            xn, xd = [x // k for x in xn], xd // k
        k = 1 if isinstance(vn[0], float) else math.gcd(vd, *vn)
        if k != 1:
            vn, vd = [v // k for v in vn], vd // k
        f = self.__dict__
        f["xn"], f["xd"], f["vn"], f["vd"] = tuple(xn), xd, tuple(vn), vd

    @classmethod
    def _make(cls, xn, xd: int, vn, vd: int) -> "CostFunction":
        """A function from canonical parts on any positive scales: strictly
        increasing breakpoints, none on the line through its neighbours,
        and an infinity at every breakpoint, over vd = 1, or at none."""
        f = object.__new__(cls)
        f._store(xn, xd, vn, vd)
        return f

    xs = property(lambda f: tuple([Fraction(x, f.xd) for x in f.xn]))
    vals = property(lambda f: f.vn if isinstance(f.vn[0], float) else tuple([Fraction(v, f.vd) for v in f.vn]))
    lo = property(lambda f: Fraction(f.xn[0], f.xd))
    hi = property(lambda f: Fraction(f.xn[-1], f.xd))
    is_point = property(lambda f: len(f.xn) == 1)

    def at(self, p: int, q: int):
        """The value at p/q, q > 0, as a pair (numerator, positive
        denominator), or the infinity; DomainError outside [lo, hi]."""
        xn, vn = self.xn, self.vn
        a = p * self.xd  # p/q on the scale xd*q
        i = bisect_left(xn, -(-a // q))
        if i == len(xn) or i == 0 and xn[0] * q != a:
            raise DomainError(f"{format_ratio(p, q)} outside domain [{self.lo}, {self.hi}]")
        if isinstance(vn[i], float) or xn[i] * q == a:
            return vn[i] if isinstance(vn[i], float) else (vn[i], self.vd)
        x0, x1 = xn[i - 1] * q, xn[i] * q
        return vn[i - 1] * (x1 - x0) + (vn[i] - vn[i - 1]) * (a - x0), self.vd * (x1 - x0)

    @staticmethod
    def from_affine(lo, hi, line: Affine) -> "CostFunction":
        """The line on [lo, hi]."""
        xn, xd = _span(lo, hi)
        s, c = line.slope, line.intercept
        sn, sd, cn, cd = s.numerator, s.denominator, c.numerator, c.denominator
        return CostFunction._make(xn, xd, [sn * cd * x + cn * sd * xd for x in xn], sd * cd * xd)

    @staticmethod
    def constant(lo, hi, v: Value) -> "CostFunction":
        """v on [lo, hi]; a float v must be an infinity sentinel."""
        xn, xd = _span(lo, hi)
        n, d = (_infinity(v), 1) if isinstance(v, float) else (_rational(v).numerator, v.denominator)
        return CostFunction._make(xn, xd, [n] * len(xn), d)

    @staticmethod
    def point(x, v: Value) -> "CostFunction":
        """v at x alone; a float v must be an infinity sentinel."""
        return CostFunction.constant(x, x, v)


def _span(lo, hi) -> tuple:
    """(breakpoints, scale) of [lo, hi]: its two ends, or one if lo == hi."""
    xn, xd = _common_scale([lo, hi])
    if xn[0] > xn[1]:
        raise DomainError("breakpoints must be strictly increasing")
    return xn[:1] if xn[0] == xn[1] else xn, xd


def _same(left, right) -> bool:
    """Whether left ends at the value right starts with, each a function
    or a bare infinity; an infinity times a positive scale stays itself."""
    if isinstance(left, float) or isinstance(right, float):
        return left == right
    return left.vn[-1] * right.vd == right.vn[0] * left.vd


def evaluate(f: CostFunction, nu) -> Value:
    """Exact value of f at nu: its recorded value at a breakpoint or where
    f is infinite, else read off the two breakpoints of nu's piece."""
    nu = as_fraction(nu)
    v = f.at(nu.numerator, nu.denominator)
    return v if isinstance(v, float) else Fraction(*v)


def concat(*parts: CostFunction) -> CostFunction:
    """Glue cost functions left to right; each starts where the one before ends.

    Every seam must carry the same value on both sides.  Point parts add
    nothing, and a single part comes back unchanged.  The parts meet on
    the least common multiples of their scales, where a seam stays a
    breakpoint unless the pieces on its sides lie on one line."""
    for left, right in zip(parts, parts[1:]):
        if right.xn[0] * left.xd != left.xn[-1] * right.xd:
            raise DomainError(
                f"domains must overlap in exactly one point, got [{left.lo},{left.hi}] then [{right.lo},{right.hi}]"
            )
        if not _same(left, right):
            raise SeamMismatch(f"seam at {right.lo}: {format_value(left.vals[-1])} vs {format_value(right.vals[0])}")
    spans = [p for p in parts if len(p.xn) > 1] or parts[:1]
    if len(spans) == 1:
        return spans[0]
    xd, vd = math.lcm(*[p.xd for p in spans]), math.lcm(*[p.vd for p in spans])
    xs, vals = [], []
    for p in spans:
        xs += [x * (xd // p.xd) for x in p.xn[bool(xs) :]]
        vals += [v * (vd // p.vd) for v in p.vn[bool(vals) :]]
    # the seam values are shared, so the parts are all finite or one infinity
    if isinstance(vals[0], float):
        return CostFunction._make(xs[:1] + xs[-1:], xd, vals[:2], 1)
    xs, vals = _canonical(xs, vals)
    return CostFunction._make(xs, xd, vals, vd)
