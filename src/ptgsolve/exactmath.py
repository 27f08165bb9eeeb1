"""Exact rational arithmetic and piecewise-affine cost functions.

Everything downstream (value iteration, the sweep, region solving) works with
values that are either exact rationals or one of the two infinities.  Floats
appear only as the +inf/-inf sentinels; no rounding happens anywhere.

The paper's values are continuous and piecewise affine on each region, so a
`CostFunction` is its breakpoints and its values there, and each piece is
the line through its two ends.  No line is ever built: `evaluate` reads a
piece through its two breakpoints, and `ptg verify` reads each piece's
slope as an integer pair (`_slope`) and puts the breakpoints on integer
scales for its oracle.
"""

from __future__ import annotations

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


def as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}: {v!r}")


def _scaled(v, scale: int):
    """The integer v*scale of a rational v whose denominator divides
    scale; an infinity stays itself."""
    return v if isinstance(v, float) else v.numerator * (scale // v.denominator)


def format_value(v: Value) -> str:
    """Render a value as "p/q" ("p" when integral), or "+inf"/"-inf"."""
    if isinstance(v, float):
        return "+inf" if v > 0 else "-inf"
    f = as_fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


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


def _slope(x0: Fraction, v0: Fraction, x1: Fraction, v1: Fraction) -> tuple:
    """The slope between two finite breakpoints as an unreduced integer
    pair (numerator, denominator), whose denominator is positive exactly
    when x0 < x1."""
    p0, q0, p1, q1 = x0.numerator, x0.denominator, x1.numerator, x1.denominator
    a0, b0, a1, b1 = v0.numerator, v0.denominator, v1.numerator, v1.denominator
    return (a1 * b0 - a0 * b1) * q0 * q1, b0 * b1 * (p1 * q0 - p0 * q1)


def _straight(left: tuple, right: tuple) -> bool:
    """Whether two slopes as `_slope` gives them are equal."""
    return left[0] * right[1] == right[0] * left[1]


def _canonical(xs: tuple, vals: tuple) -> tuple:
    """The canonical breakpoints and values of the finite function through
    the exact points (xs[i], vals[i]), from `_slope`'s integer pairs alone:
    DomainError unless xs strictly increase, and every breakpoint on the
    line through its neighbours dropped."""
    out_x, out_v, last = [xs[0]], [vals[0]], None
    for x, v in zip(xs[1:], vals[1:]):
        s = _slope(out_x[-1], out_v[-1], x, v)
        if s[1] <= 0:
            raise DomainError("breakpoints must be strictly increasing")
        if last is not None and _straight(last, s):
            out_x[-1], out_v[-1] = x, v
        else:
            out_x.append(x)
            out_v.append(v)
            last = s
    return tuple(out_x), tuple(out_v)


@dataclass(frozen=True)
class CostFunction:
    """Continuous piecewise-affine function on a closed rational interval [lo, hi].

    ``xs`` are the breakpoints (strictly increasing, first is lo, last is
    hi) and ``vals`` the exact values there; each piece is the line through
    its two breakpoints.  A function is finite everywhere or one
    infinity everywhere: the paper's values are continuous on each region,
    and a region's value is infinite throughout or nowhere.

    Instances are canonical, which makes equality structural: no breakpoint
    lies on the line through its neighbours, and an infinite function has
    no inner breakpoint.  The constructor checks its arguments and drops
    such breakpoints; the functions the package makes are canonical as made.
    """

    xs: tuple
    vals: tuple

    def __post_init__(self):
        xs = tuple(as_fraction(x) for x in self.xs)
        if not xs:
            raise DomainError("a cost function needs at least one breakpoint")
        if len(self.vals) != len(xs):
            raise DomainError("one value per breakpoint required")
        floats = [_infinity(v) for v in self.vals if isinstance(v, float)]
        if not floats:
            self._store(*_canonical(xs, tuple(as_fraction(v) for v in self.vals)))
            return
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise DomainError("breakpoints must be strictly increasing")
        if len(floats) != len(xs) or len(set(floats)) != 1:
            raise DomainError("a cost function is finite everywhere or one infinity everywhere")
        xs = xs[:1] + xs[1:][-1:]
        self._store(xs, (floats[0],) * len(xs))

    def _store(self, xs: tuple, vals: tuple) -> None:
        """Keeps checked, canonical parts; every build ends here."""
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vals", vals)

    @classmethod
    def _trusted(cls, xs: tuple, vals: tuple) -> "CostFunction":
        """A function from parts known to be valid and canonical: exact,
        with strictly increasing breakpoints and no breakpoint on the line
        through its neighbours."""
        f = object.__new__(cls)
        f._store(xs, vals)
        return f

    @property
    def lo(self) -> Fraction:
        return self.xs[0]

    @property
    def hi(self) -> Fraction:
        return self.xs[-1]

    @property
    def is_point(self) -> bool:
        return len(self.xs) == 1

    @staticmethod
    def from_affine(lo, hi, line: Affine) -> "CostFunction":
        """The line on [lo, hi]."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise DomainError("breakpoints must be strictly increasing")
        if lo == hi:
            return CostFunction._trusted((lo,), (line(lo),))
        return CostFunction._trusted((lo, hi), (line(lo), line(hi)))

    @staticmethod
    def constant(lo, hi, v: Value) -> "CostFunction":
        """v on [lo, hi]; a float v must be an infinity sentinel."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        v = _infinity(v) if isinstance(v, float) else as_fraction(v)
        if lo > hi:
            raise DomainError("breakpoints must be strictly increasing")
        if lo == hi:
            return CostFunction._trusted((lo,), (v,))
        return CostFunction._trusted((lo, hi), (v, v))

    @staticmethod
    def point(x, v: Value) -> "CostFunction":
        """v at x alone; a float v must be an infinity sentinel."""
        v = _infinity(v) if isinstance(v, float) else as_fraction(v)
        return CostFunction._trusted((as_fraction(x),), (v,))


def evaluate(f: CostFunction, nu) -> Value:
    """Exact value of f at nu: its recorded value at a breakpoint or where
    f is infinite, else read off the two breakpoints of nu's piece."""
    nu = as_fraction(nu)
    if nu < f.lo or nu > f.hi:
        raise DomainError(f"{nu} outside domain [{f.lo}, {f.hi}]")
    i = bisect_left(f.xs, nu)
    if f.xs[i] == nu or isinstance(f.vals[i], float):
        return f.vals[i]
    x0, x1, v0, v1 = f.xs[i - 1], f.xs[i], f.vals[i - 1], f.vals[i]
    return v0 + (v1 - v0) * (nu - x0) / (x1 - x0)


def concat(*parts: CostFunction) -> CostFunction:
    """Glue cost functions left to right; each starts where the one before ends.

    Every seam must carry the same value on both sides.  Point parts add
    nothing beyond their seam, and a single part comes back unchanged.  The
    parts are valid and canonical already, so only the seams are checked,
    and a seam stays a breakpoint unless the pieces on its two sides lie on
    one line (or both are infinite).
    """
    for left, right in zip(parts, parts[1:]):
        if right.lo != left.hi:
            raise DomainError(
                f"domains must overlap in exactly one point, got [{left.lo},{left.hi}] then [{right.lo},{right.hi}]"
            )
        if right.vals[0] != left.vals[-1]:
            raise SeamMismatch(
                f"seam at {right.lo}: {format_value(left.vals[-1])} vs {format_value(right.vals[0])}"
            )
    spans = [p for p in parts if not p.is_point] or parts[:1]
    if len(spans) == 1:
        return spans[0]
    xs, vals = list(spans[0].xs), list(spans[0].vals)
    for p in spans[1:]:
        # the seam value is shared, so both sides are finite or one infinity
        if isinstance(vals[-1], float) or _straight(
            _slope(xs[-2], vals[-2], xs[-1], vals[-1]), _slope(p.xs[0], p.vals[0], p.xs[1], p.vals[1])
        ):
            del xs[-1], vals[-1]
        xs += p.xs[1:]
        vals += p.vals[1:]
    return CostFunction._trusted(tuple(xs), tuple(vals))
