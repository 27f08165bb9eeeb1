"""Game model, validation, derived constants, and the JSON file format.

A game file is one JSON document:

    {
      "clock_bound": 1,
      "locations": [
        {"name": "l1", "owner": "min", "rate": -2, "urgent": false},
        {"name": "lf", "owner": "final", "rate": 0, "urgent": false,
         "final_cost": {"slope": "0", "intercept": "0"}}
      ],
      "transitions": [
        {"from": "l1", "to": "lf",
         "guard": {"lo": "0", "hi": "1", "lo_closed": true, "hi_closed": true},
         "reset": false, "weight": 0}
      ]
    }

Guard endpoints must be naturals in game files (the theory needs integer
region borders).  `make_game` builds a game in code without that
file-level validation, so its guards may have rational endpoints.  The
solver builds no game: it compiles the parsed one (`urgent.compile_game`)
or its region graph into rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Iterable, Optional

from .exactmath import (
    Affine,
    Value,
    as_fraction,
    format_value,
    parse_value,
)

MIN = "min"
MAX = "max"
FINAL = "final"


class GameSyntaxError(ValueError):
    """The document is not syntactically a game file."""


class ValidationError(ValueError):
    """The document parses but violates a model invariant."""

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}")


class InternalError(RuntimeError):
    """A broken invariant of the solver: a fault of ptgsolve, not of its input.

    `phase` names the step that found it, `where` the location, edge or
    component concerned and `nu` the clock valuation, each where known.
    It is raised, never asserted, so `python -O` keeps every such check.
    """

    def __init__(self, phase: str, reason: str, where=None, nu=None):
        self.phase = phase
        self.reason = reason
        self.where = where
        self.nu = nu
        head = phase if where is None else f"{phase} at {where}"
        if nu is not None:
            head += f", x = {format_value(nu)}"
        super().__init__(f"{head}: {reason}")


@dataclass(frozen=True)
class Guard:
    """A clock interval with rational endpoints; hi may be +inf."""

    lo: Fraction
    hi: Value
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        if not isinstance(self.hi, float):
            object.__setattr__(self, "hi", as_fraction(self.hi))

    @staticmethod
    def closed(lo, hi) -> "Guard":
        return Guard(as_fraction(lo), as_fraction(hi), True, True)

    def contains(self, nu) -> bool:
        nu = as_fraction(nu)
        if nu < self.lo or (nu == self.lo and not self.lo_closed):
            return False
        if isinstance(self.hi, float):
            return True
        if nu > self.hi or (nu == self.hi and not self.hi_closed):
            return False
        return True

    def is_empty(self) -> bool:
        if isinstance(self.hi, float):
            return False
        if self.lo < self.hi:
            return False
        return not (self.lo == self.hi and self.lo_closed and self.hi_closed)

    def meets_above(self, nu) -> bool:
        """Does the guard contain some point >= nu?"""
        if self.is_empty():
            return False
        if isinstance(self.hi, float):
            return True
        if self.hi > as_fraction(nu):
            return True
        return self.hi == as_fraction(nu) and self.hi_closed

    def describe(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{format_value(self.lo)},{format_value(self.hi)}{right}"


@dataclass(frozen=True)
class Location:
    name: str
    owner: str
    rate: Value = Fraction(0)
    urgent: bool = False
    final_cost: Optional[Affine] = None

    def __post_init__(self):
        if not isinstance(self.rate, float):
            object.__setattr__(self, "rate", as_fraction(self.rate))

    @property
    def is_final(self) -> bool:
        return self.owner == FINAL


@dataclass(frozen=True)
class Transition:
    source: str
    guard: Guard
    reset: bool
    target: str
    weight: int


@dataclass(frozen=True)
class Config:
    location: str
    valuation: Fraction

    def __post_init__(self):
        object.__setattr__(self, "valuation", as_fraction(self.valuation))


@dataclass(frozen=True)
class Game:
    locations: tuple
    transitions: tuple
    clock_bound: Fraction

    _by_name: dict = field(default_factory=dict, compare=False, repr=False)
    _outgoing: dict = field(default_factory=dict, compare=False, repr=False)
    _regions: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "clock_bound", as_fraction(self.clock_bound))
        object.__setattr__(self, "locations", tuple(self.locations))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        by_name = {}
        for loc in self.locations:
            if loc.name in by_name:
                raise ValidationError("duplicate location", loc.name)
            by_name[loc.name] = loc
        outgoing: dict = {loc.name: [] for loc in self.locations}
        for i, t in enumerate(self.transitions):
            if t.source not in by_name:
                raise ValidationError("unknown location", f"transition source {t.source!r}")
            if t.target not in by_name:
                raise ValidationError("unknown location", f"transition target {t.target!r}")
            outgoing[t.source].append(i)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_outgoing", outgoing)

    def location(self, name: str) -> Location:
        return self._by_name[name]

    def outgoing(self, name: str) -> list:
        """Indices into self.transitions, in file order."""
        return self._outgoing[name]

    @property
    def final_locations(self) -> list:
        return [l for l in self.locations if l.is_final]

    @property
    def nonfinal_locations(self) -> list:
        return [l for l in self.locations if not l.is_final]

    def max_rate(self) -> Fraction:
        return max((abs(l.rate) for l in self.locations), default=Fraction(0))


def check_sptg(g: Game, r) -> bool:
    """True iff every guard is exactly [0, r] and nothing resets."""
    r = as_fraction(r)
    for t in g.transitions:
        if t.reset:
            return False
        gd = t.guard
        if isinstance(gd.hi, float):
            return False
        if not (gd.lo == 0 and gd.lo_closed and gd.hi == r and gd.hi_closed):
            return False
    return True


@dataclass(frozen=True)
class Region:
    """A point region {lo} (lo == hi) or an open region (lo, hi)."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def describe(self) -> str:
        if self.is_point:
            return f"{{{format_value(self.lo)}}}"
        return f"({format_value(self.lo)},{format_value(self.hi)})"


def regions_of(g: Game) -> tuple:
    """Alternating point and open regions spanning [0, clock bound].

    Cut points are the guard endpoints that fall inside the clock range,
    plus both ends of the range itself.  The tuple is built once per game,
    on the first call, and shared: regions are immutable.
    """
    if not g._regions:
        ends = {Fraction(0), g.clock_bound}
        for t in g.transitions:
            if t.guard.lo <= g.clock_bound:
                ends.add(t.guard.lo)
            if not isinstance(t.guard.hi, float) and t.guard.hi <= g.clock_bound:
                ends.add(t.guard.hi)
        points = sorted(ends)
        out = []
        for i, p in enumerate(points):
            out.append(Region(p, p))
            if i + 1 < len(points):
                out.append(Region(p, points[i + 1]))
        object.__setattr__(g, "_regions", tuple(out))
    return g._regions


def _check_deadlock_free(g: Game) -> None:
    """Waiting-aware deadlock check, region by region.

    A non-urgent location only needs some guard reachable by letting time
    elapse from each region; an urgent location must have a transition
    enabled at once everywhere in each region it may occupy.
    """
    regions = regions_of(g)
    bound = g.clock_bound
    for loc in g.nonfinal_locations:
        guards = [g.transitions[i].guard for i in g.outgoing(loc.name)]
        if not guards:
            raise ValidationError("deadlock", f"{loc.name} has no outgoing transition")
        for reg in regions:
            if loc.urgent:
                probe = reg.lo if reg.is_point else (reg.lo + reg.hi) / 2
                ok = any(gd.contains(probe) for gd in guards)
            else:
                if reg.is_point:
                    ok = any(gd.meets_above(reg.lo) for gd in guards)
                else:
                    # waiting from anywhere inside (a,b) can reach any point
                    # up to the bound, so a guard whose supremum is at least b
                    # (or open-touching b) suffices
                    ok = any(
                        not gd.is_empty()
                        and (isinstance(gd.hi, float) or gd.hi >= reg.hi)
                        for gd in guards
                    )
            if not ok:
                raise ValidationError(
                    "deadlock",
                    f"{loc.name} has no usable transition from region {reg.describe()} (bound {format_value(bound)})",
                )


def validate_game(g: Game) -> Game:
    """Check model invariants beyond the structural ones; returns g."""
    if g.clock_bound < 0 or g.clock_bound.denominator != 1:
        raise ValidationError("clock bound", f"must be a natural, got {format_value(g.clock_bound)}")
    for loc in g.locations:
        if loc.owner not in (MIN, MAX, FINAL):
            raise ValidationError("owner", f"{loc.name}: {loc.owner!r}")
        if loc.is_final:
            if loc.urgent:
                raise ValidationError("urgent final", loc.name)
            if loc.final_cost is None:
                raise ValidationError("non-affine final cost", f"{loc.name} has no final_cost")
            if g.outgoing(loc.name):
                raise ValidationError("final with outgoing edge", loc.name)
        else:
            if loc.final_cost is not None:
                raise ValidationError("final cost on non-final", loc.name)
        if not isinstance(loc.rate, float) and loc.rate.denominator != 1:
            raise ValidationError("rate", f"{loc.name}: rates must be integers in game files")
    for t in g.transitions:
        if g.location(t.source).is_final:
            raise ValidationError("final with outgoing edge", t.source)
        gd = t.guard
        if gd.lo.denominator != 1 or gd.lo < 0:
            raise ValidationError("guard out of bounds", f"{t.source}->{t.target}: lo {format_value(gd.lo)}")
        if isinstance(gd.hi, float):
            raise ValidationError(
                "guard out of bounds",
                f"{t.source}->{t.target}: unbounded guard exceeds clock bound {format_value(g.clock_bound)}",
            )
        if gd.hi.denominator != 1:
            raise ValidationError("guard out of bounds", f"{t.source}->{t.target}: hi {format_value(gd.hi)}")
        if gd.hi > g.clock_bound:
            raise ValidationError(
                "guard out of bounds",
                f"{t.source}->{t.target}: {gd.describe()} exceeds clock bound {format_value(g.clock_bound)}",
            )
        if gd.is_empty():
            raise ValidationError("guard out of bounds", f"{t.source}->{t.target}: empty guard {gd.describe()}")
        if not isinstance(t.weight, int):
            raise ValidationError("weight", f"{t.source}->{t.target}: weights must be integers")
    _check_deadlock_free(g)
    return g


def _flag(obj: dict, key: str, default: bool, where: str) -> bool:
    """A JSON boolean field; strings and numbers are not coerced."""
    v = obj.get(key, default)
    if not isinstance(v, bool):
        raise GameSyntaxError(f"{where}: {key} must be true or false, got {v!r}")
    return v


def _integer(v, what: str) -> None:
    """Rejects anything but a JSON integer; true and false are not integers here."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise GameSyntaxError(f"{what} must be an integer, got {v!r}")


def _parse_guard(obj) -> Guard:
    try:
        lo = parse_value(obj["lo"])
        hi = parse_value(obj["hi"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GameSyntaxError(f"bad guard object {obj!r}: {exc}") from exc
    lo_closed = _flag(obj, "lo_closed", True, "guard")
    hi_closed = _flag(obj, "hi_closed", True, "guard")
    if isinstance(lo, float):
        raise GameSyntaxError("guard lo cannot be infinite")
    return Guard(lo, hi, lo_closed, hi_closed)


def _parse_affine(obj) -> Affine:
    try:
        slope = parse_value(obj["slope"])
        intercept = parse_value(obj["intercept"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GameSyntaxError(f"bad affine object {obj!r}: {exc}") from exc
    if isinstance(slope, float) or isinstance(intercept, float):
        raise ValidationError("non-affine final cost", f"infinite coefficient in {obj!r}")
    return Affine(slope, intercept)


def parse_game(text: str) -> Game:
    """Parse and fully validate a game document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: integers past Python's digit limit raise a
        # plain ValueError, nesting past the recursion limit a RecursionError
        raise GameSyntaxError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GameSyntaxError("top level must be an object")
    try:
        bound = doc["clock_bound"]
        raw_locs = doc["locations"]
        raw_trans = doc["transitions"]
    except KeyError as exc:
        raise GameSyntaxError(f"missing top-level field {exc}") from exc
    _integer(bound, "clock_bound")
    if not isinstance(raw_locs, list) or not isinstance(raw_trans, list):
        raise GameSyntaxError("locations and transitions must be arrays")

    locations = []
    for obj in raw_locs:
        try:
            name = obj["name"]
            owner = obj["owner"]
            rate = obj.get("rate", 0)
        except (KeyError, TypeError) as exc:
            raise GameSyntaxError(f"bad location object: {obj!r}") from exc
        if not isinstance(name, str) or not name:
            raise GameSyntaxError(f"location name must be a non-empty string: {obj!r}")
        if "@" in name:
            raise GameSyntaxError(f"location name {name!r} contains '@', reserved for the solver's locations")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            # a \ud800 escape reads as a lone surrogate, which no document can hold
            raise GameSyntaxError(f"location name {name!r} is not UTF-8 encodable") from None
        _integer(rate, f"{name}: rate")
        urgent = _flag(obj, "urgent", False, name)
        final_cost = None
        if owner == FINAL:
            if "final_cost" not in obj:
                raise ValidationError("non-affine final cost", f"{name} missing final_cost")
            final_cost = _parse_affine(obj["final_cost"])
        elif "final_cost" in obj:
            raise ValidationError("final cost on non-final", name)
        locations.append(Location(name, owner, Fraction(rate), urgent, final_cost))

    transitions = []
    for obj in raw_trans:
        try:
            src = obj["from"]
            tgt = obj["to"]
            guard = _parse_guard(obj["guard"])
            weight = obj["weight"]
        except (KeyError, TypeError) as exc:
            raise GameSyntaxError(f"bad transition object: {obj!r}") from exc
        if not isinstance(src, str) or not isinstance(tgt, str):
            raise GameSyntaxError(f"transition from and to must be location names: {obj!r}")
        reset = _flag(obj, "reset", False, f"{src}->{tgt}")
        _integer(weight, f"{src}->{tgt}: weight")
        transitions.append(Transition(src, guard, reset, tgt, weight))

    return validate_game(Game(tuple(locations), tuple(transitions), Fraction(bound)))


def json_text(obj) -> str:
    """obj as `json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`
    writes it, byte for byte.  That call runs the stdlib's pure-Python
    encoder, since its C encoder is used only without indent; this one
    appends to one list.  obj is a tree of dicts with string keys, lists,
    strings, ints, booleans and None; anything else, floats included,
    raises TypeError."""
    out = []
    _write_json(obj, out.append, "\n")
    return "".join(out)


def _write_json(obj, put, nl: str) -> None:
    """Writes obj through put, its nested lines starting at nl."""
    t = type(obj)
    if t is str:
        put(encode_basestring(obj))
    elif t is dict:
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            put(sep)
            put(encode_basestring(key))
            put(": ")
            _write_json(obj[key], put, inner)
            sep = comma
        put(nl + "}")
    elif t is list:
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for item in obj:
            put(sep)
            _write_json(item, put, inner)
            sep = comma
        put(nl + "]")
    elif obj is None:
        put("null")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif t is int:
        put(int.__repr__(obj))
    else:
        raise TypeError(f"cannot write {t.__name__} as JSON: {obj!r}")


def serialize_game(g: Game) -> str:
    doc = {
        "clock_bound": int(g.clock_bound),
        "locations": [
            {
                "name": l.name,
                "owner": l.owner,
                "rate": int(l.rate),
                "urgent": l.urgent,
                **(
                    {
                        "final_cost": {
                            "slope": format_value(l.final_cost.slope),
                            "intercept": format_value(l.final_cost.intercept),
                        }
                    }
                    if l.final_cost is not None
                    else {}
                ),
            }
            for l in g.locations
        ],
        "transitions": [
            {
                "from": t.source,
                "to": t.target,
                "guard": {
                    "lo": format_value(t.guard.lo),
                    "hi": format_value(t.guard.hi),
                    "lo_closed": t.guard.lo_closed,
                    "hi_closed": t.guard.hi_closed,
                },
                "reset": t.reset,
                "weight": t.weight,
            }
            for t in g.transitions
        ],
    }
    return json_text(doc) + "\n"


def make_game(locations: Iterable[Location], transitions: Iterable[Transition], bound) -> Game:
    """Internal constructor without file-level validation (rational guards ok)."""
    return Game(tuple(locations), tuple(transitions), as_fraction(bound))
