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
carries only a sign marker.  Both modes are read per clock region by one
rule (`region_values`) and checked by one oracle (`RegionBellmanOracle`).

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

from .exactmath import (
    CostFunction,
    Value,
    _scaled,
    _slope,
    evaluate,
    format_value,
)
from .model import (
    MODE_REGIONS, MODE_SPTG, VALUES, WAIT_UNTIL, Game, Region, json_text, loads, read, regions_of,
)
from .solver import Solution, SweepTrace
from .strategy import FPStrategy, Move, RegionBellmanOracle, SwitchingStrategy


class SolutionFormatError(ValueError):
    """A values file does not follow the solution JSON shape."""


@dataclass(frozen=True)
class Document:
    """A read document: its mode, segments per location, and Max's
    positional and Min's switching strategy (None when it carries none;
    read without a game, the strategies object as `model.VALUES` reads it)."""

    mode: str
    values: dict
    strategies: Optional[dict]


def _segment_to_json(seg: CostFunction) -> dict:
    head = {"from": format_value(seg.lo), "to": format_value(seg.hi)}
    sign = uniform_infinity(seg)
    if sign is not None:
        head["infinite"] = "inf" if sign > 0 else "-inf"
        return head
    head["points"] = [
        {"x": format_value(x), "v": format_value(v)} for x, v in zip(seg.xs, seg.vals)
    ]
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
        "clock_bound": int(g.clock_bound),
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


def uniform_infinity(seg: CostFunction) -> Optional[float]:
    v = seg.vals[0]
    return v if isinstance(v, float) else None


def region_values(regions, segments: list, scaled: Optional[tuple] = None) -> list:
    """Per-region closure values, rebuilt from stitched segments.

    Open regions take the first segment that spans their closure; its
    values at the borders are the one-sided limits because segments end
    exactly where the function jumps.  Point regions take the attained
    value: of the segments covering the point, the last point segment, or
    else the last one.  Both lists are walked once, in ascending order, so
    the segments must be contiguous, each starting where the previous one
    ends, as `_check_coverage` ensures.  The walk compares integers:
    scaled holds the regions' ends and the segments' breakpoints on one
    scale, as `_on_scale` reads them, and is read here when not given.
    """
    cuts, segxs = scaled or _on_scale(regions, [segments])[1:]
    out = []
    k, m = 0, len(segments)
    for reg, (lo, hi) in zip(regions, cuts):
        # segments ending below the region cover neither it nor any later one
        while k < m and segxs[k][-1] < hi:
            k += 1
        if lo == hi:
            # from k on, every segment starting at or below the point covers it
            j = k
            while j < m and segxs[j][0] <= lo:
                j += 1
            cover = [i for i in range(k, j) if len(segxs[i]) == 1] or range(k, j)
            if not cover:
                raise SolutionFormatError(f"no segment covers {format_value(reg.lo)}")
            seg, xs = segments[cover[-1]], segxs[cover[-1]]
            v = seg.vals[0] if xs[0] == lo else seg.vals[-1] if xs[-1] == lo else evaluate(seg, reg.lo)
            out.append(v if isinstance(v, float) else CostFunction._trusted((reg.lo,), (v,)))
            continue
        if k == m or segxs[k][0] > lo:
            raise SolutionFormatError(
                f"no segment spans ({format_value(reg.lo)}, {format_value(reg.hi)})"
            )
        seg = segments[k]
        out.append(seg if uniform_infinity(seg) is None else seg.vals[0])
    return out


def _on_scale(regions, seglists) -> tuple:
    """The document's abscissae on one integer scale: X, the least common
    denominator of every region end and breakpoint, then on it each
    region's ends as a pair (lo*X, hi*X) and, one list per segment list,
    each segment's breakpoints times X."""
    seglists = list(seglists)
    X = math.lcm(*{x.denominator for r in regions for x in (r.lo, r.hi)},
                 *{x.denominator for segs in seglists for s in segs for x in s.xs})
    cuts = [(_scaled(r.lo, X), _scaled(r.hi, X)) for r in regions]
    return (X, cuts, *([[x.numerator * (X // x.denominator) for x in s.xs] for s in segs] for segs in seglists))


def value_at(g: Game, doc: Document, name: str, x) -> Value:
    """The value doc gives location name at clock x, read by `region_values`."""
    # the reader walks contiguous segments; judging jumps is verify's work
    _, cuts, *scaled = _on_scale(regions_of(g), doc.values.values())
    witness = _check_coverage(g, doc.values, dict(zip(doc.values, scaled)), cuts[-1][1], None)
    if witness:
        raise SolutionFormatError(witness)
    (v,) = region_values((Region(x, x),), doc.values[name])
    return v if isinstance(v, float) else evaluate(v, x)


def _check_coverage(g: Game, values: dict, scaled: dict, bound: int, borders: Optional[set]) -> Optional[str]:
    """Witness that the document does not give each location of the game
    contiguous segments over [0, bound], or that one jumps off the borders;
    with borders None, jumps are not checked.  The walk reads `_on_scale`'s
    integers: scaled[name] holds the breakpoints of name's segments."""
    names = {l.name for l in g.locations}
    if set(values) != names:
        extra = sorted(set(values) - names)
        missing = sorted(names - set(values))
        return f"coverage: location sets differ (extra {extra}, missing {missing})"
    for name in sorted(values):
        segs, segxs = values[name], scaled[name]
        if segxs[0][0] != 0 or segxs[-1][-1] != bound:
            return f"coverage: {name} does not span [0, {format_value(g.clock_bound)}]"
        for i in range(len(segs) - 1):
            a, b = segs[i], segs[i + 1]
            seam = segxs[i][-1]
            if segxs[i + 1][0] != seam:
                return (
                    f"coverage: {name} has a gap at "
                    f"{format_value(a.hi)}..{format_value(b.lo)}"
                )
            if borders is not None and seam not in borders and a.vals[-1] != b.vals[0]:
                return f"continuity: {name} jumps inside a region at {format_value(a.hi)}"
    return None


def _check_finals(g: Game, values: dict) -> Optional[str]:
    for l in g.final_locations:
        for seg in values[l.name]:
            if uniform_infinity(seg) is not None:
                return f"finals: {l.name} marked infinite"
            for x, v in zip(seg.xs, seg.vals):
                if v != l.final_cost(x):
                    return f"finals: {l.name} differs from its final cost at {format_value(x)}"
    return None


def _check_lipschitz(values: dict, cap: Fraction) -> Optional[str]:
    for name in sorted(values):
        for seg in values[name]:
            if uniform_infinity(seg) is not None:
                continue
            xs, vals = seg.xs, seg.vals
            for i in range(len(xs) - 1):
                # the slope n/d, d > 0, exceeds the cap in size
                n, d = _slope(xs[i], vals[i], xs[i + 1], vals[i + 1])
                if abs(n) * cap.denominator > cap.numerator * d:
                    return (
                        f"lipschitz: {name} has slope {format_value(Fraction(n, d))} on "
                        f"[{format_value(xs[i])}, {format_value(xs[i + 1])}], cap {format_value(cap)}"
                    )
    return None


def _sample_points(X: int, bound: int, scaled: list, grid: int, borders: set) -> list:
    """The valuations the Bellman check samples, increasing, each as p/q in
    lowest terms: 0, the bound, the borders, every breakpoint, the midpoint
    of each gap between them and grid evenly spaced points.  The inputs are
    `_on_scale`'s integers on X, the breakpoints one list per location, and
    the points integers on the scale 2*(grid + 1)*X until reduced."""
    k = grid + 1
    ordered = sorted({0, bound, *borders, *(x for segs in scaled for xs in segs for x in xs)})
    pts = {2 * k * a for a in ordered}
    pts.update(k * (a + b) for a, b in zip(ordered, ordered[1:]))
    pts.update(2 * i * bound for i in range(1, k))
    scale = 2 * k * X
    gcds = ((n, math.gcd(n, scale)) for n in sorted(pts))
    return [(n // d, scale // d) for n, d in gcds]


def _check_bellman(g: Game, regions, values: dict, cuts: list, scaled: dict, pts: list) -> Optional[str]:
    region_vals = {name: region_values(regions, segs, (cuts, scaled[name])) for name, segs in values.items()}
    check = RegionBellmanOracle(g, regions, region_vals).check
    for p, q in pts:
        bad = check(p, q)
        if bad:
            return f"bellman: {bad[0]} not locally optimal at {format_value(Fraction(p, q))}"
    return None


def _checks(g: Game, doc: Document, grid: int, regions, borders: set):
    """(witness or None, what passed) per check, each run only once the
    ones before it have passed."""
    X, cuts, *scaled = _on_scale(regions, doc.values.values())
    by_name = dict(zip(doc.values, scaled))
    jumps = {_scaled(b, X) for b in borders}
    yield _check_coverage(g, doc.values, by_name, cuts[-1][1], jumps), "coverage ok"
    yield _check_finals(g, doc.values), "finals ok"
    # no value changes faster than a rate or a final cost's slope
    cap = max([g.max_rate(), *(abs(l.final_cost.slope) for l in g.final_locations)])
    yield _check_lipschitz(doc.values, cap), f"lipschitz ok (cap {format_value(cap)})"
    pts = _sample_points(X, cuts[-1][1], scaled, grid, jumps)
    yield _check_bellman(g, regions, doc.values, cuts, by_name, pts), f"bellman ok ({len(pts)} points)"


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
        borders = {reg.lo for reg in regions if reg.is_point}
        lines.append(f"regions: {len(regions)}")
    else:
        borders = set()
        bad = sorted(n for n, segs in doc.values.items() if len(segs) != 1)
        if bad:
            return lines, f"coverage: {bad[0]} split into segments in {MODE_SPTG} mode"
    for witness, passed in _checks(g, doc, grid, regions, borders):
        if witness:
            return lines, witness
        lines.append(f"check: {passed}")
    return lines, None
