"""Game model, validation, derived constants, and the three JSON formats.

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

The game file and the solution document are each a table of `Field`
rows, `GAME` and `VALUES`: one row per field, with its path, JSON type,
kind, rule and default; the document's strategies are a nested table,
`STRATEGIES`.  One function, `read`, reads both in one pass, and
`parse_game` and `document.load` go through it.  A field of the wrong
JSON type, outside its kind or breaking a rule is refused with one
message that starts with its JSON path, as in `locations[0].urgent: must
be true or false, got 'no'`; so is a missing field that has no default.
The rules that span the fields of a game are `validate_game`'s, which
games built in code meet as well.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Iterable, Optional

from .exactmath import (
    INF,
    NEG_INF,
    Affine,
    CostFunction,
    DomainError,
    Value,
    _canonical,
    _scaled,
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
    _regions: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

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


def check_sptg(g: Game) -> bool:
    """True iff g is simple: its clock bound is 1, every guard is exactly
    [0, 1] and nothing resets."""
    if g.clock_bound != 1:
        return False
    for t in g.transitions:
        if t.reset:
            return False
        gd = t.guard
        if isinstance(gd.hi, float):
            return False
        if not (gd.lo == 0 and gd.lo_closed and gd.hi == 1 and gd.hi_closed):
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


def region_table(g: Game) -> tuple:
    """(regions, enabled), built once per game and shared: g's regions,
    and per transition the run of indices of the regions it is copied
    into.  The regions alternate between a point region at each cut point
    (a guard end inside the clock range, or an end of the range) and the
    open region up to the next.  A point region copies the guards that
    hold at its point, an open region those that overlap it: a guard only
    touching its lower border lies in the past, and one only touching its
    upper border is reached by the hop into that border's region.  The
    table is built on integers: the cut points times G, the least common
    denominator of the bound and the guard ends (1 in a game file).
    """
    if g._regions is None:
        guards = [t.guard for t in g.transitions]
        G = math.lcm(g.clock_bound.denominator, *(
            v.denominator for gd in guards for v in (gd.lo, gd.hi) if not isinstance(v, float)
        ))
        bound = _scaled(g.clock_bound, G)
        ends = [(_scaled(gd.lo, G), _scaled(gd.hi, G)) for gd in guards]
        cuts = sorted({0, bound, *(v for pair in ends for v in pair if v <= bound)})
        at, last = {v: 2 * k for k, v in enumerate(cuts)}, 2 * len(cuts) - 2
        # from a list: tuple(<generator>) resizes, and the tuples it frees
        # fill free lists that little else draws from
        enabled = tuple([
            range(
                at[lo] + (not gd.lo_closed) if lo <= bound else last + 1,
                (at[hi] - (not gd.hi_closed) if hi <= bound else last) + 1,
            )
            for gd, (lo, hi) in zip(guards, ends)
        ])
        points = [Fraction(v, G) for v in cuts]
        regions = [Region(points[0], points[0])]
        for p, q in zip(points, points[1:]):
            regions += (Region(p, q), Region(q, q))
        object.__setattr__(g, "_regions", (tuple(regions), enabled))
    return g._regions


def regions_of(g: Game) -> tuple:
    """Alternating point and open regions spanning [0, clock bound], as
    `region_table` cuts them."""
    return region_table(g)[0]


def _check_deadlock_free(g: Game) -> None:
    """Every non-final location can always move, read off `region_table`.

    An urgent location needs an edge enabled in every region.  A location
    that may wait reaches every later region, so the regions above the
    last one where it has an enabled edge fail: it needs one enabled at
    {bound}.  A failure names the first region that fails.
    """
    regions, runs = region_table(g)
    count = len(regions)
    for loc in g.nonfinal_locations:
        spans = [runs[i] for i in g.outgoing(loc.name)]
        if not spans:
            raise ValidationError("deadlock", f"{loc.name} has no outgoing transition")
        enabled = set().union(*spans)
        if loc.urgent:
            bad = min(set(range(count)) - enabled, default=count)
        else:
            bad = max(enabled, default=-1) + 1
        if bad < count:
            raise ValidationError(
                "deadlock",
                f"{loc.name} has no usable transition from region {regions[bad].describe()} "
                f"(bound {format_value(g.clock_bound)})",
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


# ---------------------------------------------------------------------------
# The JSON formats: one table of field rules each, read by `read`

REQUIRED = object()  # the default of a field that must be present
NOW, WAIT_UNTIL = "now", "wait_until"
MODE_SPTG, MODE_REGIONS = "sptg", "reset-acyclic"
# a JSON value in a message: an object's or array's own items, not what they hold
_SHORT = reprlib.Repr()
_SHORT.maxlevel = 1
# each JSON type: the Python type json.loads gives it (None: any) and its name in messages
_JSON = {
    "object": (dict, "an object"),  # fixed keys, each a field with its own row
    "table": (dict, "an object"),  # an object read by a nested table; null too if its default is None
    "map": (dict, "an object"),  # names to entries, all read by the row `{}`
    "array": (list, "an array"),  # items, all read by the row `[]`
    "pair": (list, "a list of two literals"),
    "literal": (str, "a string literal"),  # parse_value's: rational, "+inf" or "-inf"
    "string": (str, "a string"),
    "integer": (int, "an integer"),
    "boolean": (bool, "true or false"),
    "any": (None, None),
}


@dataclass(frozen=True)
class Field:
    """One row of a format's table: the field at `path`, its keys joined
    by dots, `[]` and `{}` standing for an array's items and a map's
    entries.  `json` is a JSON type, or a table whose rows read an object,
    with paths relative to this one.  `kind` turns the value read into
    what the field holds, an object's fields given as keywords, or raises
    `_Refusal`.  A `rule` takes what the kind made, the field's key and the
    game `read` was given, if any, and raises `_Refusal` at what is wrong.
    Every refusal names the field at fault by its path.
    """

    path: str
    json: object
    kind: object = None
    rule: object = None
    default: object = REQUIRED


class _Refusal(Exception):
    """A problem with a value, raised where it is found; keys, outermost
    first, lead from there to the field at fault, and `read` prefixes the
    path it took to get there."""

    def __init__(self, problem: str, *keys):
        super().__init__(problem)
        self.problem = problem
        self.keys = list(reversed(keys))  # from the field up, as read() unwinds


def natural(v: int) -> int:
    if v < 0:
        raise _Refusal(f"must be a natural, got {v}")
    return v


def rational(v: Value) -> Fraction:
    if type(v) is float:
        raise _Refusal(f"must be rational, got {format_value(v)}")
    return v


def one_of(*words: str):
    def kind(v: str) -> str:
        if v not in words:
            raise _Refusal(f"must be one of {', '.join(map(repr, words))}, got {v!r}")
        return v

    return kind


def location_name(v: str) -> str:
    """A location's name: '@' names the locations the solver makes."""
    if not v:
        raise _Refusal("must be a non-empty string, got ''")
    if "@" in v:
        raise _Refusal(f"{v!r} contains '@', reserved for the solver's locations")
    try:
        v.encode("utf-8")
    except UnicodeEncodeError:
        # a \ud800 escape reads as a lone surrogate, which no document can hold
        raise _Refusal(f"{v!r} is not UTF-8 encodable") from None
    return v


def _transition(**t) -> Transition:
    return Transition(t["from"], t["guard"], t["reset"], t["to"], t["weight"])


def interval(pair: tuple) -> tuple:
    lo, hi = map(rational, pair)
    if not lo < hi:
        raise _Refusal(f"must end above its start, got {[*map(format_value, pair)]}")
    return lo, hi


def segment(**seg) -> CostFunction:
    """A value segment, which is infinite or has points that increase from
    its `from` to its `to`."""
    lo, hi, marker, points = seg["from"], seg["to"], seg["infinite"], seg["points"]
    try:
        if marker:
            return CostFunction.constant(lo, hi, INF if marker == "inf" else NEG_INF)
        if not points or (points[0]["x"], points[-1]["x"]) != (lo, hi):
            raise _Refusal(f"points do not span [{format_value(lo)}, {format_value(hi)}]")
        return CostFunction._trusted(*_canonical(*zip(*((p["x"], p["v"]) for p in points))))
    except DomainError as exc:
        raise _Refusal(str(exc)) from None


# The rules across fields.  A game's are `validate_game`'s, which games
# built in code meet too, and `Game`'s: unique names, edges between them.
# A document's that need its game are skipped when read without one.


def _has_segments(segments: list, name: str, g) -> None:
    if not segments:
        raise _Refusal("has no segments")


def _bound_of_the_game(bound: int, key, g) -> None:
    if g is not None and bound != g.clock_bound:
        raise _Refusal(f"{bound} is not the game's {g.clock_bound}")


def _finite_tables(doc: dict, key, g) -> None:
    """`max` lists exactly the Max locations with finite values, `sigma1`
    the Min ones: the values are read by then."""
    s = doc["strategies"]
    if g is None or s is None:
        return
    infinite = {n for n, segs in doc["values"].items() if any(type(seg.vals[0]) is float for seg in segs)}
    for owner, keys, tables in ((MAX, ("max",), s["max"]), (MIN, ("min", "sigma1"), s["min"]["sigma1"])):
        want = {l.name for l in g.locations if l.owner == owner and l.name not in infinite}
        n = min(want ^ set(tables), default=None)
        if n is not None:
            what = f"a {owner.capitalize()} location with a finite value"
            problem = f"has no table for {n}, {what}" if n in want else f"lists {n}, which is not {what}"
            raise _Refusal(problem, "strategies", *keys)


def _move_fits(move: dict, name: str, g: Game, end, *keys) -> None:
    """move, at keys in name's table, fires a transition that leaves name
    and enters the move's `to`, and has a `target_x` exactly if it waits,
    which lies in [end, bound]."""
    i, x = move["t_index"], move["target_x"]
    if i >= len(g.transitions):
        raise _Refusal(f"transition {i} does not exist", *keys, "t_index")
    t = g.transitions[i]
    if t.source != name:
        raise _Refusal(f"transition {i} leaves {t.source}", *keys, "t_index")
    if move["to"] != t.target:
        raise _Refusal(f"transition {i} enters {t.target}", *keys, "to")
    if (move["type"] == WAIT_UNTIL) != (x is not None):
        raise _Refusal(f"{move['type']} {'without' if x is None else 'with'} a target_x", *keys)
    if x is not None and not end <= x <= g.clock_bound:
        bounds = f"[{format_value(end)}, {format_value(g.clock_bound)}]"
        raise _Refusal(f"a wait must end in {bounds}, got {format_value(x)}", *keys, "target_x")


def _table_fits(table: dict, name: str, g) -> None:
    """name's rows tile [0, bound], each starting where the one before
    ends, and their moves and `at_end`'s fit (`_move_fits`), a wait ending
    no earlier than its row and, in `at_end`, at the bound."""
    if g is None:
        return
    bound, at = g.clock_bound, 0
    for i, row in enumerate(table["rows"]):
        lo, hi = row["interval"]
        if lo != at:
            cut = "a gap" if lo > at else "an overlap"
            where = f"{format_value(min(lo, at))}..{format_value(max(lo, at))}"
            raise _Refusal(f"do not tile [0, {format_value(bound)}]: {cut} at {where}", "rows")
        at = hi
        if at > bound:
            break
        _move_fits(row["move"], name, g, hi, "rows", i, "move")
    if at != bound:
        raise _Refusal(f"end at {format_value(at)}, not at {format_value(bound)}", "rows")
    _move_fits(table["at_end"], name, g, bound, "at_end")


def _fallbacks_fire_now(sigma2: dict, key, g) -> None:
    """Min's fallback chases a final location: its moves fire now, and fit."""
    if g is None:
        return
    for n, m in sigma2.items():
        if m["type"] != NOW:
            raise _Refusal("the fallback fires now, it does not wait", n, "type")
        _move_fits(m, n, g, 0, n)


GAME = (
    Field("", "object", Game),
    Field("clock_bound", "integer", natural),
    Field("locations", "array"),
    Field("locations[]", "object", Location),
    Field("locations[].name", "string", location_name),
    Field("locations[].owner", "string", one_of(MIN, MAX, FINAL)),
    Field("locations[].rate", "integer", default=0),
    Field("locations[].urgent", "boolean", default=False),
    Field("locations[].final_cost", "object", Affine, default=None),
    Field("locations[].final_cost.slope", "literal", rational),
    Field("locations[].final_cost.intercept", "literal", rational),
    Field("transitions", "array"),
    Field("transitions[]", "object", _transition),
    Field("transitions[].from", "string"),
    Field("transitions[].to", "string"),
    Field("transitions[].guard", "object", Guard),
    Field("transitions[].guard.lo", "literal", rational),
    Field("transitions[].guard.hi", "literal"),
    Field("transitions[].guard.lo_closed", "boolean", default=True),
    Field("transitions[].guard.hi_closed", "boolean", default=True),
    Field("transitions[].reset", "boolean", default=False),
    Field("transitions[].weight", "integer"),
)
MOVE = (
    Field("type", "string", one_of(NOW, WAIT_UNTIL)),
    Field("to", "any"),  # its transition's target, by `_move_fits`
    Field("t_index", "integer", natural),
    Field("target_x", "literal", rational, default=None),
)
TABLE = (  # one location's rows of a finitely positional strategy
    Field("rows", "array"),
    Field("rows[]", "object"),
    Field("rows[].interval", "pair", interval),
    Field("rows[].move", MOVE),
    Field("at_end", MOVE),
)
STRATEGIES = (  # Max's positional strategy and Min's switching one
    Field("max", "map"),
    Field("max{}", TABLE, rule=_table_fits),
    Field("min", "object"),
    Field("min.sigma1", "map"),
    Field("min.sigma1{}", TABLE, rule=_table_fits),
    Field("min.sigma2", "map", rule=_fallbacks_fire_now),
    Field("min.sigma2{}", MOVE),
    Field("min.threshold", "literal", rational),
)
VALUES = (  # the solution document, read against its game if given one
    Field("", "object", rule=_finite_tables),
    Field("clock_bound", "integer", natural, _bound_of_the_game),
    Field("mode", "string", one_of(MODE_SPTG, MODE_REGIONS)),
    Field("values", "map"),
    Field("values{}", "array", rule=_has_segments),
    Field("values{}[]", "object", segment),
    Field("values{}[].from", "literal", rational),
    Field("values{}[].to", "literal", rational),
    Field("values{}[].infinite", "string", one_of("inf", "-inf"), default=None),
    Field("values{}[].points", "array", default=None),
    Field("values{}[].points[]", "object"),
    Field("values{}[].points[].x", "literal", rational),
    Field("values{}[].points[].v", "literal", rational),
    Field("strategies", STRATEGIES, default=None),  # null when the document has none
    Field("trace", "any", default=None),  # the sweep's record, for people to read
)


def rows_of(table: tuple, prefix: str = ""):
    """table's rows with full paths, a nested table's rows after its own."""
    for f in table:
        path = f"{prefix}.{f.path}" if prefix and f.path[0] not in "[{" else prefix + f.path
        if isinstance(f.json, tuple):
            yield replace(f, path=path, json="table")
            yield from rows_of(f.json, path)
        else:
            yield replace(f, path=path)


class _Node:
    """A row ready to read: its fields' nodes by key, or its items' node."""

    __slots__ = ("f", "fields", "item", "want", "what", "rule", "leaf", "pair", "literal", "kind", "nullable")

    def __init__(self, f: Field):
        self.f, self.kind, self.rule = f, f.kind, f.rule
        self.fields, self.item = [], None
        self.want, self.what = _JSON[f.json]
        self.leaf = f.json in ("pair", "literal", "string", "integer", "boolean", "any")
        self.pair, self.literal = f.json == "pair", f.json == "literal"
        self.nullable = f.json == "table" and f.default is None


def _compile(table: tuple) -> _Node:
    nodes = {}
    for f in rows_of(table):
        node = nodes[f.path] = _Node(f)
        if f.path.endswith(("[]", "{}")):
            nodes[f.path[:-2]].item = node
        elif f.path:
            parent, _, key = f.path.rpartition(".")
            nodes[parent].fields.append((key, node))
    return nodes[""]


# the formats' tables, compiled once, by identity: a table hashes slowly
_ROOTS = {id(table): _compile(table) for table in (GAME, VALUES)}


def loads(data, error):
    """The JSON value of data, a str or UTF-8 bytes; error says why there is none."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: integers past Python's digit limit raise a
        # plain ValueError, nesting past the recursion limit a RecursionError
        raise error(f"not valid JSON: {exc}") from exc


def read(table: tuple, raw, error, g: Optional[Game] = None):
    """raw, a JSON value, read by table, `GAME` or `VALUES`, against the
    game g if given: literals parsed, each distinct one once, defaults
    filled in, kinds made and rules met; or else error, whose message
    starts with the path of the field at fault (`top level` for raw)."""
    seen = {}
    # a literal that is not a string is refused before it is hashed
    literal = lambda text: seen[text] if type(text) is str and text in seen else seen.setdefault(text, parse_value(text))
    try:
        return _read(_ROOTS[id(table)], raw, "", g, literal)
    except _Refusal as exc:
        path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(exc.keys)).lstrip(".")
        raise error(f"{path or 'top level'}: {exc.problem}") from None


def _read(node: _Node, raw, key, g, literal):
    """raw read by node, an object, map or array, and all it holds."""
    f = node.f
    try:
        if type(raw) is not node.want:
            if raw is None and node.nullable:
                return None
            raise _Refusal(f"expected {node.what}, got {type(raw).__name__}")
        if f.json == "map":
            out = {k: _read(node.item, v, k, g, literal) for k, v in raw.items()}
        elif f.json == "array":
            out = [_read(node.item, v, i, g, literal) for i, v in enumerate(raw)]
        else:
            out = {}
            for k, child in node.fields:
                if k in raw:
                    v = raw[k]
                    out[k] = _leaf(child, v, k, g, literal) if child.leaf else _read(child, v, k, g, literal)
                elif child.f.default is REQUIRED:
                    raise _Refusal("missing", k)
                else:
                    out[k] = child.f.default
            out = out if node.kind is None else node.kind(**out)
        if node.rule is not None:
            node.rule(out, key, g)
        return out
    except _Refusal as exc:
        exc.keys.append(key)
        raise


def _leaf(node: _Node, v, key, g, literal):
    """v read by node, a field of one JSON value or a pair of literals."""
    try:
        if type(v) is not node.want and node.want is not None or node.pair and (
            len(v) != 2 or type(v[0]) is not str or type(v[1]) is not str
        ):
            raise _Refusal(f"must be {node.what}, got {_SHORT.repr(v)}")
        try:
            if node.pair:
                v = literal(v[0]), literal(v[1])
            elif node.literal:
                v = literal(v)
        except ValueError:
            raise _Refusal(f"not a rational literal: {_SHORT.repr(v)}") from None
        v = v if node.kind is None else node.kind(v)
        if node.rule is not None:
            node.rule(v, key, g)
        return v
    except _Refusal as exc:
        exc.keys.append(key)
        raise


def parse_game(data) -> Game:
    """Read and fully validate a game document, given as a str or UTF-8 bytes."""
    return validate_game(read(GAME, loads(data, GameSyntaxError), GameSyntaxError))


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
    """The game file of g, written through the table `GAME`."""
    return json_text(_write(_ROOTS[id(GAME)], g)) + "\n"


def _write(node: _Node, v):
    """The JSON value `_read` reads by node as v, an object of the game
    model: literals formatted, rates made integers, and a field that may
    be left out left out when it is None."""
    if node.fields:
        out = {}
        for k, child in node.fields:
            x = getattr(v, {"from": "source", "to": "target"}.get(k, k))
            if x is not None or child.f.default is REQUIRED:
                out[k] = _write(child, x)
        return out
    if node.item:
        return [_write(node.item, x) for x in v]
    if node.literal:
        return format_value(v)
    return int(v) if node.f.json == "integer" else v


def make_game(locations: Iterable[Location], transitions: Iterable[Transition], bound) -> Game:
    """Internal constructor without file-level validation (rational guards ok)."""
    return Game(tuple(locations), tuple(transitions), as_fraction(bound))
