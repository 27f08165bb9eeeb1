"""The solution document: the JSON `ptg solve` writes and the other
subcommands read, both directions of it, and the checks of `ptg verify`.

A document is written from one `solver.Solution`, of either pipeline.  It
holds the clock bound, the mode, the values and, for a solution with
strategies, both of them and the sweep's trace; a game whose pruning
leaves no non-final location has neither.  Values are lists of
segments per location.  A segment is a maximal continuous piece of the
value function; two consecutive segments share an endpoint and may
disagree there, which is how one-sided limits at region borders are
recorded.  Finite segments carry their breakpoints, an infinite segment
carries only a sign marker.  The writer formats each coordinate from a
`CostFunction`'s integer numerator and scale, one gcd per number, and the
reader builds each segment once.  `verify` puts a document on two integer
scales once (`strategy.on_scale`), and every check reads that one form:
coverage, the finals, the slope bound, the sample points and the Bellman
check.  Both modes are read per clock region by one rule
(`strategy.cover`) and checked by one oracle (`RegionBellmanOracle`), so
no check does `Fraction` arithmetic.

`load` reads a document in one pass by the table `model.VALUES`, its
strategies included, and, given the game, checks that they fit it.  It
refuses malformed input with `SolutionFormatError`, exit 2 of `ptg`,
naming the field at fault by its JSON path.

The text is byte for byte what `json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False)` writes, but `model.json_text` writes it: Python's C
encoder is used only without indent, and the pure-Python one took about
half as long as solving a game of the benchmark's fan.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .exactmath import CostFunction, Value, _scaled, evaluate, format_ratio, format_value
from .model import (
    MODE_REGIONS, MODE_SPTG, VALUES, WAIT_UNTIL, Game, Region, json_text, loads, read, regions_of,
)
from .solver import Solution, SweepTrace
from .strategy import (
    FPStrategy, Move, RegionBellmanOracle, SolutionFormatError, SwitchingStrategy, cover, on_scale,
)


@dataclass(frozen=True)
class Document:
    """A read document: its mode, segments per location, and Max's
    positional and Min's switching strategy (None when it carries none;
    read without a game, the strategies object as `model.VALUES` reads it)."""

    mode: str
    values: dict
    strategies: Optional[dict]


def _segment_to_json(seg: CostFunction) -> dict:
    xn, xd, vn, vd = seg.xn, seg.xd, seg.vn, seg.vd
    head = {"from": format_ratio(xn[0], xd), "to": format_ratio(xn[-1], xd)}
    if isinstance(vn[0], float):
        head["infinite"] = "inf" if vn[0] > 0 else "-inf"
        return head
    head["points"] = [{"x": format_ratio(x, xd), "v": format_ratio(v, vd)} for x, v in zip(xn, vn)]
    return head


def _values_to_json(values: dict) -> dict:
    # one CostFunction from `solve`, stitched segments from the region pipeline
    return {
        name: [_segment_to_json(s) for s in ((v,) if isinstance(v, CostFunction) else v)]
        for name, v in values.items()
    }


def _trace_to_json(trace: SweepTrace) -> dict:
    def at(x, names) -> dict:
        return {"x": format_value(x), "locations": list(names)}

    windows = [
        {
            "start": format_value(w.start),
            "slope_breaks": [at(x, names) for x, names in w.slope_breaks],
            "rejection": None if w.rejection is None else at(*w.rejection),
        }
        for w in trace.windows
    ]
    return {"boundaries": [format_value(b) for b in trace.boundaries], "windows": windows}


def move_to_json(g: Game, m: Move) -> dict:
    out = {
        "type": m.kind,
        "to": g.transitions[m.t_index].target,
        "t_index": m.t_index,
    }
    if m.kind == WAIT_UNTIL:
        out["target_x"] = format_value(m.target_x)
    return out


def fp_to_json(g: Game, fp: FPStrategy) -> dict:
    return {
        name: {
            "rows": [
                {"interval": [format_value(lo), format_value(hi)], "move": move_to_json(g, mv)}
                for lo, hi, mv in rows
            ],
            "at_end": move_to_json(g, fp.at_end[name]),
        }
        for name, rows in fp.rows.items()
    }


def switching_to_json(g: Game, s: SwitchingStrategy) -> dict:
    return {
        "sigma1": fp_to_json(g, s.sigma1),
        "sigma2": {
            name: move_to_json(g, Move.now(i)) for name, i in sorted(s.sigma2.items())
        },
        "threshold": format_value(s.threshold),
    }


def dumps(g: Game, mode: str, sol: Solution) -> str:
    """The document text of g solved in mode; a solution with strategies
    adds both of them and the sweep's trace."""
    solved = sol.max_strategy is not None
    doc = {
        "clock_bound": g.clock_bound.numerator // g.clock_bound.denominator,
        "mode": mode,
        "values": _values_to_json(sol.values),
        "strategies": {
            "max": fp_to_json(g, sol.max_strategy),
            "min": switching_to_json(g, sol.min_strategy),
        } if solved else None,
        "trace": _trace_to_json(sol.trace) if solved else None,
    }
    return json_text(doc) + "\n"


def _positional(tables: dict) -> FPStrategy:
    def move(m: dict) -> Move:
        return Move(m["type"], m["t_index"], m["target_x"])

    rows = {name: [(*r["interval"], move(r["move"])) for r in t["rows"]] for name, t in tables.items()}
    return FPStrategy(rows, {name: move(t["at_end"]) for name, t in tables.items()})


def load(path: str, data: Optional[bytes] = None, g: Optional[Game] = None) -> Document:
    """The solution document at path, read by `model.VALUES`; data, if
    given, is its bytes, read already, and g, if given, its game, which
    the rules that need one read the document against and without which
    no strategy object is built: nothing could play it."""
    raw = loads(Path(path).read_bytes() if data is None else data, SolutionFormatError)
    doc = read(VALUES, raw, SolutionFormatError, g)
    s = doc["strategies"]
    if s is not None and g is not None:
        sigma2 = {name: m["t_index"] for name, m in s["min"]["sigma2"].items()}
        s = _positional(s["max"]), SwitchingStrategy(_positional(s["min"]["sigma1"]), sigma2, s["min"]["threshold"])
    return Document(doc["mode"], doc["values"], s)


def value_at(g: Game, doc: Document, name: str, x) -> Value:
    """The value doc gives location name at clock x, read by `cover`."""
    # the reader walks contiguous segments; judging jumps is verify's work
    point = (Region(x, x),)
    scaled = on_scale(g, point, doc.values)
    witness = _check_coverage(g, doc.values, scaled, None)
    if witness:
        raise SolutionFormatError(witness)
    (i,) = cover(point, scaled[3], [xs for xs, _, _ in scaled[4][name]], scaled[0], name)
    return evaluate(doc.values[name][i], x)


def _check_coverage(g: Game, values: dict, scaled: tuple, borders: Optional[set]) -> Optional[str]:
    """Witness that the document does not give each location of the game
    contiguous segments over [0, bound], or that one jumps off the borders;
    with borders None, jumps are not checked.  The walk reads `on_scale`'s
    integers, and so do the checks below."""
    names = {l.name for l in g.locations}
    if set(values) != names:
        extra = sorted(set(values) - names)
        missing = sorted(names - set(values))
        return f"coverage: location sets differ (extra {extra}, missing {missing})"
    _, _, bound, _, tables = scaled
    for name in sorted(values):
        segs, ts = values[name], tables[name]
        if ts[0][0][0] != 0 or ts[-1][0][-1] != bound:
            return f"coverage: {name} does not span [0, {format_value(g.clock_bound)}]"
        for i in range(len(segs) - 1):
            (axs, avals, _), (bxs, bvals, _) = ts[i], ts[i + 1]
            if bxs[0] != axs[-1]:
                return (
                    f"coverage: {name} has a gap at "
                    f"{format_value(segs[i].hi)}..{format_value(segs[i + 1].lo)}"
                )
            if borders is not None and axs[-1] not in borders and avals[-1] != bvals[0]:
                return f"continuity: {name} jumps inside a region at {format_value(segs[i].hi)}"
    return None


def _check_finals(g: Game, scaled: tuple) -> Optional[str]:
    X, D, _, _, tables = scaled
    for l in g.final_locations:
        slope, intercept = _scaled(l.final_cost.slope, D), _scaled(l.final_cost.intercept, X * D)
        for xs, vals, _ in tables[l.name]:
            if isinstance(vals[0], float):
                return f"finals: {l.name} marked infinite"
            for a, v in zip(xs, vals):
                if v != slope * a + intercept:
                    return f"finals: {l.name} differs from its final cost at {format_ratio(a, X)}"
    return None


def _check_lipschitz(values: dict, scaled: tuple, cap: Fraction) -> Optional[str]:
    X, D, _, _, tables = scaled
    top = _scaled(cap, D)
    for name in sorted(values):
        for xs, _, lines in tables[name]:
            for a0, a1, (s, _) in zip(xs, xs[1:], lines):
                if abs(s) > top:
                    return (
                        f"lipschitz: {name} has slope {format_ratio(s, D)} on "
                        f"[{format_ratio(a0, X)}, {format_ratio(a1, X)}], cap {format_value(cap)}"
                    )
    return None


def _sample_points(X: int, bound: int, tables, grid: int, borders: set) -> list:
    """The valuations the Bellman check samples, increasing, each as p/q in
    lowest terms: 0, the bound, the borders, every breakpoint, the midpoint
    of each gap between them and grid evenly spaced points.  The inputs are
    on X, the breakpoints as `on_scale`'s tables, one list per location, and
    the points integers on the scale 2*(grid + 1)*X until reduced."""
    k = grid + 1
    ordered = sorted({0, bound, *borders, *(x for segs in tables for xs, _, _ in segs for x in xs)})
    pts = {2 * k * a for a in ordered}
    pts.update(k * (a + b) for a, b in zip(ordered, ordered[1:]))
    pts.update(2 * i * bound for i in range(1, k))
    scale = 2 * k * X
    gcds = ((n, math.gcd(n, scale)) for n in sorted(pts))
    return [(n // d, scale // d) for n, d in gcds]


def _check_bellman(g: Game, regions, values: dict, scaled: tuple, pts: list) -> Optional[str]:
    check = RegionBellmanOracle(g, regions, values, scaled).check
    for p, q in pts:
        bad = check(p, q)
        if bad:
            return f"bellman: {bad[0]} not locally optimal at {format_value(Fraction(p, q))}"
    return None


def _checks(g: Game, doc: Document, grid: int, regions):
    """(witness or None, what passed) per check, each run only once the
    ones before it have passed."""
    scaled = on_scale(g, regions, doc.values)
    X, _, bound, borders, tables = scaled
    # values may jump at the borders of a reset-acyclic document only
    jumps = set(borders) if doc.mode == MODE_REGIONS else set()
    yield _check_coverage(g, doc.values, scaled, jumps), "coverage ok"
    yield _check_finals(g, scaled), "finals ok"
    # no value changes faster than a rate or a final cost's slope
    cap = max([g.max_rate(), *(abs(l.final_cost.slope) for l in g.final_locations)])
    yield _check_lipschitz(doc.values, scaled, cap), f"lipschitz ok (cap {format_value(cap)})"
    pts = _sample_points(X, bound, tables.values(), grid, jumps)
    yield _check_bellman(g, regions, doc.values, scaled, pts), f"bellman ok ({len(pts)} points)"


def verify(g: Game, doc: Document, grid: int) -> tuple:
    """The report lines of checking doc against g, and the first failure's
    witness (None when every check passes).

    Both modes are read per region of `regions_of`; an sptg document
    must have one segment per location, a reset-acyclic one may jump at
    region borders.  The Bellman check samples every border, breakpoint
    and midpoint between them, plus grid evenly spaced points.
    """
    regions = regions_of(g)
    lines = []
    if doc.mode == MODE_REGIONS:
        lines.append(f"regions: {len(regions)}")
    else:
        bad = sorted(n for n, segs in doc.values.items() if len(segs) != 1)
        if bad:
            return lines, f"coverage: {bad[0]} split into segments in {MODE_SPTG} mode"
    for witness, passed in _checks(g, doc, grid, regions):
        if witness:
            return lines, witness
        lines.append(f"check: {passed}")
    return lines, None
