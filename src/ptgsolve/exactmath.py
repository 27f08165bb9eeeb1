"""Exact rational arithmetic and piecewise-affine cost functions.

Everything downstream (value iteration, the sweep, region solving) works with
values that are either exact rationals or one of the two infinities.  Floats
appear only as the +inf/-inf sentinels; no rounding happens anywhere.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

INF = float("inf")
NEG_INF = float("-inf")

#: A value is an exact rational or one of the infinity sentinels.
Value = Union[Fraction, float]

#: The finite literals parse_value reads: an integer, "p/q" or a plain
#: decimal, each with an optional sign.  Exponents are left out on purpose:
#: Fraction("1e10000000") builds a ten-million-digit integer.
_LITERAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


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
    if not _LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
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

    @staticmethod
    def through(x1, v1, x2, v2) -> "Affine":
        x1, v1, x2, v2 = map(as_fraction, (x1, v1, x2, v2))
        if x1 == x2:
            raise DomainError("two distinct abscissae required")
        slope = (v2 - v1) / (x2 - x1)
        return Affine(slope, v1 - slope * x1)


def _check_piece(piece) -> None:
    if isinstance(piece, Affine):
        return
    if isinstance(piece, float) and (piece == INF or piece == NEG_INF):
        return
    raise TypeError(f"piece must be Affine or an infinity sentinel, got {piece!r}")


@dataclass(frozen=True)
class CostFunction:
    """Piecewise function on a closed rational interval [lo, hi].

    ``xs`` are the breakpoints (strictly increasing, first is lo, last is hi),
    ``vals`` the exact values at the breakpoints, and ``pieces[i]`` describes
    the open interval (xs[i], xs[i+1]): an Affine line or an infinity
    sentinel.  Adjacent finite pieces share their breakpoint value, so the
    function is continuous wherever it is finite.  A breakpoint value next to
    an infinite piece records the finite neighbour's value when there is one.

    Instances are canonical: collinear neighbours and same-sign infinite
    neighbours are merged on construction, which makes equality structural.
    """

    xs: tuple
    vals: tuple
    pieces: tuple

    def __post_init__(self):
        xs = tuple(as_fraction(x) for x in self.xs)
        if not xs:
            raise DomainError("a cost function needs at least one breakpoint")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise DomainError("breakpoints must be strictly increasing")
        vals = tuple(v if isinstance(v, float) else as_fraction(v) for v in self.vals)
        if len(vals) != len(xs):
            raise DomainError("one value per breakpoint required")
        pieces = tuple(self.pieces)
        if len(pieces) != len(xs) - 1:
            raise DomainError("one piece per consecutive breakpoint pair required")
        for p in pieces:
            _check_piece(p)
        for i, p in enumerate(pieces):
            if isinstance(p, Affine):
                if p(xs[i]) != vals[i] or p(xs[i + 1]) != vals[i + 1]:
                    raise DomainError(
                        f"piece {i} does not meet its breakpoint values"
                    )
        self._store(xs, vals, pieces)

    def _store(self, xs: tuple, vals: tuple, pieces: tuple) -> None:
        """Canonicalises and keeps checked parts; every build ends here."""
        xs, vals, pieces = _canonical(xs, vals, pieces)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "pieces", pieces)

    @classmethod
    def _trusted(cls, xs: tuple, vals: tuple, pieces: tuple) -> "CostFunction":
        """A function from parts known to be valid: exact, with strictly
        increasing breakpoints and each finite piece meeting its two
        breakpoint values.  Only canonicalised, never re-evaluated."""
        f = object.__new__(cls)
        f._store(xs, vals, pieces)
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
    def from_points(points: Sequence) -> "CostFunction":
        """Interpolate finite breakpoint values: [(x0, v0), ..., (xn, vn)].

        Each piece is built through its own two points, so only the order of
        the breakpoints is checked; a document's slopes are read off them.
        """
        pts = [(as_fraction(x), as_fraction(v)) for x, v in points]
        if not pts:
            raise DomainError("a cost function needs at least one breakpoint")
        xs = tuple(x for x, _ in pts)
        vals = tuple(v for _, v in pts)
        pieces = tuple(
            Affine.through(xs[i], vals[i], xs[i + 1], vals[i + 1])
            for i in range(len(xs) - 1)
        )
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise DomainError("breakpoints must be strictly increasing")
        return CostFunction._trusted(xs, vals, pieces)

    @staticmethod
    def from_affine(lo, hi, line: Affine) -> "CostFunction":
        """The line on [lo, hi], whose one piece meets its ends by construction."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise DomainError("breakpoints must be strictly increasing")
        if lo == hi:
            return CostFunction._trusted((lo,), (line(lo),), ())
        return CostFunction._trusted((lo, hi), (line(lo), line(hi)), (line,))

    @staticmethod
    def constant(lo, hi, v: Value) -> "CostFunction":
        """v on [lo, hi]; valid by construction once lo <= hi and a float v
        is an infinity sentinel."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if not isinstance(v, float):
            return CostFunction.from_affine(lo, hi, Affine(Fraction(0), as_fraction(v)))
        _check_piece(v)
        if lo > hi:
            raise DomainError("breakpoints must be strictly increasing")
        if lo == hi:
            return CostFunction._trusted((lo,), (v,), ())
        return CostFunction._trusted((lo, hi), (v, v), (v,))

    @staticmethod
    def point(x, v: Value) -> "CostFunction":
        """v at x alone; a float v must be an infinity sentinel."""
        if isinstance(v, float):
            _check_piece(v)
        else:
            v = as_fraction(v)
        return CostFunction._trusted((as_fraction(x),), (v,), ())


def _canonical(xs, vals, pieces):
    """Merge collinear finite neighbours and same-sign infinite neighbours."""
    if len(pieces) <= 1:
        return xs, vals, pieces
    out_x = [xs[0]]
    out_v = [vals[0]]
    out_p = []
    for i, p in enumerate(pieces):
        if out_p:
            prev = out_p[-1]
            mergeable = (
                isinstance(prev, Affine) and isinstance(p, Affine) and prev == p
            ) or (
                isinstance(prev, float) and isinstance(p, float) and prev == p
                and vals[i] == prev
            )
            if mergeable:
                out_x[-1] = xs[i + 1]
                out_v[-1] = vals[i + 1]
                continue
        out_p.append(p)
        out_x.append(xs[i + 1])
        out_v.append(vals[i + 1])
    return tuple(out_x), tuple(out_v), tuple(out_p)


def evaluate(f: CostFunction, nu) -> Value:
    """Exact value of f at nu; at a breakpoint, the recorded shared value."""
    nu = as_fraction(nu)
    if nu < f.lo or nu > f.hi:
        raise DomainError(f"{nu} outside domain [{f.lo}, {f.hi}]")
    i = bisect_left(f.xs, nu)
    # breakpoints carry their own value (matters next to infinite pieces)
    if f.xs[i] == nu:
        return f.vals[i]
    piece = f.pieces[i - 1]
    if isinstance(piece, Affine):
        return piece(nu)
    return piece


def concat(*parts: CostFunction) -> CostFunction:
    """Glue cost functions left to right; each starts where the one before ends.

    Every seam must carry the same value on both sides.  Point parts add
    nothing beyond their seam, and a single part comes back unchanged.  The
    parts are valid already, so only the seams are checked.
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
    xs = spans[0].xs + tuple(x for p in spans[1:] for x in p.xs[1:])
    vals = spans[0].vals + tuple(v for p in spans[1:] for v in p.vals[1:])
    pieces = tuple(piece for p in spans for piece in p.pieces)
    return CostFunction._trusted(xs, vals, pieces)

