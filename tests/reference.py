"""Reference oracles and helpers that only the tests use.

Each is a second implementation built from the paper's proofs, kept to
check the package against, not part of it:

- ``from_points``, ``restrict``, ``slope_between``, ``through`` and
  ``pairwise_intersections`` on cost functions and lines, and
  ``point_guard``, the guard that holds at one clock value only;
- ``max_transition_weight`` and ``max_final_cost``, the bounds of a
  ``Game`` that the solver now reads off its compiled rows;
- ``make_urgent`` and ``waiting``, the game copies the sweep's evaluators
  once were built from, with the name-keyed anchor checks of ``waiting``
  (``MissingTerminalValue``, ``InfiniteValue``), and ``solve_instant``,
  the values of a game at one valuation as a ``ValueVector``;
- ``line_family``, the shifted final-cost lines whose crossings bound the
  cutpoints of an all-urgent game, and ``solve_all_urgent``, which solves
  such a game by evaluating at every crossing;
- ``extract_untimed_strategies``, the positional choices of both players
  at one valuation of an all-urgent game;
- ``validate_nc``, the certificate that Min's strategy leaves no
  zero-delay cycle of weight >= 0;
- ``fake_value_upper_bound``, the best cost Min can force against a fixed
  Max strategy;
- ``bellman_check`` and ``region_bellman_check``, one-shot wrappers
  around ``strategy.RegionBellmanOracle``, and ``as_segments``, which
  hands it values given per region as the segments it reads;
- ``region_values``, the per-region values a document's segments give
  by ``strategy.cover``'s rule, the package's former document reader;
- ``infinite`` and ``region_table``, read off a ``Solution``'s values:
  the locations ``solve`` found infinite, and the region pipeline's
  stitched segments per region, as the result once carried them;
- ``instant_by_subgame`` and ``window_by_subgame``, a point component's
  values and an open window's through a ``Game`` built for them: the
  package's former bodies of ``regions._instant`` and
  ``regions._solve_window``;
- ``possible_cutpoints``, the candidate grid of a window read off an
  evaluator's lines, once ``urgent.possible_cutpoints``, and
  ``possible_cutpoints_by_fraction``, its former body, sorted as
  Fractions;
- ``grid_sweep``, the sweep that runs value iteration at every candidate
  of the grid, the package's former walk of ``solver.sweep``;
- ``core_game`` and ``attractor_strategy``, the pruned core as a ``Game``
  and Min's reachability fallback on a ``Game``, which ``solver.solve``
  read before it worked on the pruned rows.

Test modules import it like ``conftest``: ``from reference import ...``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from ptgsolve.exactmath import (
    INF,
    NEG_INF,
    Affine,
    CostFunction,
    DomainError,
    Value,
    _scaled,
    as_fraction,
    evaluate,
    format_value,
)
from ptgsolve.model import (
    FINAL,
    MAX,
    MIN,
    Config,
    Game,
    Guard,
    InternalError,
    Location,
    Region,
    Transition,
    ValidationError,
    make_game,
    regions_of,
)
from ptgsolve.regions import _entry_value
from ptgsolve.solver import (
    WAIT_SUFFIX,
    BudgetExceeded,
    Sweep,
    SweepTrace,
    WindowEvaluator,
    WindowTrace,
    default_max_steps,
    prune_infinite,
    sweep,
)
from ptgsolve.strategy import (
    NOW,
    WAIT_UNTIL,
    FPStrategy,
    IllegalMove,
    RegionBellmanOracle,
    cover,
)
from ptgsolve.urgent import InstantEvaluator, compile_game, unscale


# ---------------------------------------------------------------------------
# the deadlock check by probes


def _meets_above(gd: Guard, nu) -> bool:
    """Does the guard contain some point >= nu?"""
    if gd.is_empty():
        return False
    if isinstance(gd.hi, float):
        return True
    if gd.hi > as_fraction(nu):
        return True
    return gd.hi == as_fraction(nu) and gd.hi_closed


def regions_by_fraction(g: Game) -> tuple:
    """The regions `model.region_table` cuts, read off the guards' Fraction
    ends as `regions_of` once did: a point region at 0, at the bound and at
    each guard end up to the bound, and an open region between each two."""
    ends = {Fraction(0), g.clock_bound}
    for t in g.transitions:
        ends.update(e for e in (t.guard.lo, t.guard.hi) if not isinstance(e, float) and e <= g.clock_bound)
    points = sorted(ends)
    return tuple(r for p, q in zip(points, points[1:]) for r in (Region(p, p), Region(p, q))) + (
        Region(points[-1], points[-1]),
    )


def copied_into(gd: Guard, reg: Region) -> bool:
    """Does an edge with guard gd get a copy in the region reg?  The rule
    `model.region_table` runs on integers, read off Fractions as the
    former `model._enabled` did: a point region copies the guards that hold
    at its point, an open region those that overlap it."""
    if reg.is_point:
        return gd.contains(reg.lo)
    return gd.lo < reg.hi and (isinstance(gd.hi, float) or gd.hi > reg.lo)


def check_deadlock_free_by_probes(g: Game) -> None:
    """The deadlock check `model._check_deadlock_free` replaced, which
    reads each transition's run of regions off `model.region_table`.

    A non-urgent location only needs some guard reachable by letting time
    elapse from each region; an urgent location must have a transition
    enabled at once everywhere in each region it may occupy, probed at a
    point region's point and an open region's midpoint.
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
                    ok = any(_meets_above(gd, reg.lo) for gd in guards)
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


# ---------------------------------------------------------------------------
# cost functions and lines


def from_points(points) -> CostFunction:
    """The function through finite breakpoint values [(x0, v0), ..., (xn,
    vn)], built by the validating constructor."""
    return CostFunction(tuple(x for x, _ in points), tuple(v for _, v in points))


def point_guard(x) -> Guard:
    return Guard.closed(x, x)


def restrict(f: CostFunction, lo, hi) -> CostFunction:
    """The same function on the subdomain [lo, hi]."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo < f.lo or hi > f.hi or lo > hi:
        raise DomainError(f"[{lo}, {hi}] not inside [{f.lo}, {f.hi}]")
    inner = [(x, v) for x, v in zip(f.xs, f.vals) if lo < x < hi]
    ends = [(hi, evaluate(f, hi))] if hi > lo else []
    return from_points([(lo, evaluate(f, lo)), *inner, *ends])


class InfinitePiece(ValueError):
    """Operation requires finite values but hit an infinite piece."""


def is_finite(v: Value) -> bool:
    return not isinstance(v, float)


def slope_between(f: CostFunction, nu1, nu2) -> Fraction:
    """Exact chord slope (f(nu2) - f(nu1)) / (nu2 - nu1), nu1 < nu2."""
    nu1, nu2 = as_fraction(nu1), as_fraction(nu2)
    if not nu1 < nu2:
        raise DomainError(f"need nu1 < nu2, got {nu1} >= {nu2}")
    v1, v2 = evaluate(f, nu1), evaluate(f, nu2)
    if not (is_finite(v1) and is_finite(v2)):
        raise InfinitePiece(f"chord over ({nu1}, {nu2}) hits an infinite value")
    return (v2 - v1) / (nu2 - nu1)


def through(x1, v1, x2, v2) -> Affine:
    """The line through (x1, v1) and (x2, v2), x1 != x2: once
    ``Affine.through``, which the package no longer reads."""
    x1, v1, x2, v2 = map(as_fraction, (x1, v1, x2, v2))
    if x1 == x2:
        raise DomainError("two distinct abscissae required")
    slope = (v2 - v1) / (x2 - x1)
    return Affine(slope, v1 - slope * x1)


def pairwise_intersections(fs: Iterable[Affine], lo, hi) -> list:
    """All abscissae in [lo, hi] where two distinct lines of fs meet, sorted."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    lines = list(dict.fromkeys(fs))
    found = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b = lines[i], lines[j]
            if a.slope == b.slope:
                continue
            x = (b.intercept - a.intercept) / (a.slope - b.slope)
            if lo <= x <= hi:
                found.add(x)
    return sorted(found)


# ---------------------------------------------------------------------------
# bounds of a game


def max_transition_weight(g: Game) -> int:
    """Largest absolute transition weight (0 when there are none)."""
    return max((abs(t.weight) for t in g.transitions), default=0)


def max_final_cost(g: Game) -> Fraction:
    """Bound on |phi| over the clock domain, via both endpoints."""
    worst = Fraction(0)
    for l in g.final_locations:
        phi = l.final_cost
        worst = max(worst, abs(phi(0)), abs(phi(g.clock_bound)))
    return worst


# ---------------------------------------------------------------------------
# urgent and waiting copies of a game, values at one valuation


@dataclass(frozen=True)
class ValueVector:
    nu: Fraction
    values: dict

    def __getitem__(self, name: str) -> Value:
        return self.values[name]

    def all_finite(self) -> bool:
        return all(is_finite(v) for v in self.values.values())


def make_urgent(g: Game) -> Game:
    """Copy of the game where no location may let time pass."""
    locs = tuple(
        l if l.is_final or l.urgent else dataclasses.replace(l, urgent=True)
        for l in g.locations
    )
    return make_game(locs, g.transitions, g.clock_bound)


class InfiniteValue(ValueError):
    """An operation that needs finite values met an infinite one."""


class MissingTerminalValue(KeyError):
    """A window got no anchor value for some location that may wait."""


def _anchor_value(anchor: dict, name: str) -> Fraction:
    if name not in anchor:
        raise MissingTerminalValue(name)
    v = anchor[name]
    if isinstance(v, float):
        raise InfiniteValue(f"{name}: anchor value must be finite, got {v}")
    return as_fraction(v)


def waiting(g: Game, r, anchor: dict) -> Game:
    """Game on [0, r] where waiting until r is priced by the anchor values.

    Every non-urgent non-final location gets a final clone whose cost is
    the waiting cost to r plus its anchor value, reachable by a fresh
    zero-weight transition.  Original transitions keep their order and
    indices; the clone edges are appended after all of them.
    """
    r = as_fraction(r)
    locs = []
    clone_edges = []
    for l in g.locations:
        locs.append(l)
        if l.is_final or l.urgent:
            continue
        v = _anchor_value(anchor, l.name)
        clone = Location(
            l.name + WAIT_SUFFIX,
            FINAL,
            Fraction(0),
            False,
            Affine(-as_fraction(l.rate), r * as_fraction(l.rate) + v),
        )
        locs.append(clone)
        clone_edges.append(
            Transition(l.name, Guard.closed(0, r), False, clone.name, 0)
        )
    trans = [
        dataclasses.replace(t, guard=Guard.closed(0, r)) for t in g.transitions
    ]
    return make_game(tuple(locs), tuple(trans) + tuple(clone_edges), r)


def solve_instant(g: Game, nu) -> ValueVector:
    """Exact values of a game at one valuation."""
    ev = InstantEvaluator(compile_game(g))
    x, _, _, denom = ev.run(nu)
    return ValueVector(as_fraction(nu), dict(zip(ev.names, unscale(x, denom))))


# ---------------------------------------------------------------------------
# all-urgent games


class NotFinite(ValueError):
    """Strategy extraction needs finite values everywhere."""


def line_family(g: Game) -> list:
    """All integer shifts k + phi of final cost functions, k in the value window."""
    n = len(g.locations)
    pt = max_transition_weight(g)
    lo, hi = -(n - 1) * pt, n * pt
    out = []
    seen = set()
    for l in g.final_locations:
        for k in range(lo, hi + 1):
            line = Affine(l.final_cost.slope, l.final_cost.intercept + k)
            if line not in seen:
                seen.add(line)
                out.append(line)
    return out


def solve_all_urgent(g: Game, r) -> dict:
    """Value functions of an all-urgent game on [0, r]."""
    r = as_fraction(r)
    ev = InstantEvaluator(compile_game(g))
    pts = possible_cutpoints(ev, r)
    if r == 0:
        pts = [Fraction(0)]
    samples = []
    for p in pts:
        x, _, _, denom = ev.run(p)
        samples.append(unscale(x, denom))
    out = {}
    for i, name in enumerate(ev.names):
        column = [s[i] for s in samples]
        if any(isinstance(v, float) for v in column):
            uniform = column[0]
            if not all(v == uniform for v in column):
                raise AssertionError(
                    f"{name}: infinite value must be uniform across the interval"
                )
            out[name] = CostFunction.constant(0, r, uniform)
        elif len(pts) == 1:
            out[name] = CostFunction.point(pts[0], column[0])
        else:
            out[name] = from_points(list(zip(pts, column)))
    return out


@dataclass(frozen=True)
class UntimedStrategies:
    """Positional choices at one valuation: transition indices per location."""

    max_choice: dict
    sigma1: dict
    sigma2: dict
    threshold: Fraction
    values: ValueVector


def extract_untimed_strategies(g: Game, nu) -> UntimedStrategies:
    ev = InstantEvaluator(compile_game(g))
    x, ranks, _, denom = ev.run(nu)
    vals = unscale(x, denom)
    if any(isinstance(v, float) for v in vals):
        bad = [ev.names[i] for i, v in enumerate(vals) if isinstance(v, float)]
        raise NotFinite(f"infinite values at {format_value(as_fraction(nu))}: {bad}")
    by_name = dict(zip(ev.names, vals))
    rank_of = dict(zip(ev.names, ranks))

    max_choice = {}
    sigma1 = {}
    for l in g.locations:
        if l.is_final:
            continue
        tight = [
            i
            for i in g.outgoing(l.name)
            if g.transitions[i].weight + by_name[g.transitions[i].target]
            == by_name[l.name]
        ]
        if l.owner == MAX:
            max_choice[l.name] = tight[0]
        else:
            progressing = [
                i for i in tight if rank_of[g.transitions[i].target] < rank_of[l.name]
            ]
            # the round that settled this value used one such transition
            sigma1[l.name] = progressing[0]

    sigma2 = attractor_strategy(g)
    missing = [l.name for l in g.locations if not l.is_final and l.name not in sigma2]
    if missing:
        raise NotFinite(f"attractor does not cover {missing}; values cannot be finite")

    n = len(g.locations)
    reach_cost = (n - 1) * max_transition_weight(g) + max_final_cost(g)
    threshold = min(by_name.values()) - reach_cost
    return UntimedStrategies(
        max_choice,
        sigma1,
        sigma2,
        as_fraction(threshold),
        ValueVector(as_fraction(nu), by_name),
    )


# ---------------------------------------------------------------------------
# negative-cycle certificate for Min's positional strategy


def boundaries(fp: FPStrategy) -> list:
    """0 and every endpoint of the strategy's rows, sorted."""
    pts = {Fraction(0)}
    for rs in fp.rows.values():
        for lo, hi, _ in rs:
            pts.add(lo)
            pts.add(hi)
    return sorted(pts)


def _cycle_from_pred(pred: dict, start: str) -> list:
    seen = {}
    cur = start
    order = []
    while cur not in seen:
        seen[cur] = len(order)
        order.append(cur)
        cur = pred[cur]
    cycle = order[seen[cur]:]
    cycle.reverse()
    return cycle


def _nonneg_cycle(nodes: list, edges: list) -> Optional[list]:
    """Finds a cycle of total weight >= 0 in (nodes, weighted edges), if any.

    Works on negated weights: a >=0 cycle becomes a <=0 one.  Bellman-Ford
    catches the strictly negative ones; zero cycles survive as cycles made
    entirely of tight edges of the resulting shortest-path tree.
    """
    neg = [(u, v, -w) for (u, v, w) in edges]
    dist = {n: 0 for n in nodes}
    pred = {}
    for _ in range(len(nodes)):
        changed = False
        for u, v, w in neg:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                pred[v] = u
                changed = True
        if not changed:
            break
    for u, v, w in neg:
        if dist[u] + w < dist[v]:
            # walk back far enough to be inside the cycle
            cur = u
            for _ in range(len(nodes)):
                cur = pred.get(cur, cur)
            return _cycle_from_pred(pred, cur)
    # zero cycles: restrict to tight edges, look for a cycle there
    tight = {}
    for u, v, w in neg:
        if dist[u] + w == dist[v]:
            tight.setdefault(u, []).append(v)
    color = {}
    stack_pred = {}

    def dfs(root):
        stack = [(root, iter(tight.get(root, ())))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    stack_pred[nxt] = node
                    stack.append((nxt, iter(tight.get(nxt, ()))))
                    advanced = True
                    break
                if color.get(nxt) == 1:
                    cyc = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = stack_pred[cur]
                        cyc.append(cur)
                    cyc = cyc[1:]
                    cyc.reverse()
                    return cyc
            if not advanced:
                color[node] = 2
                stack.pop()
        return None

    for n in nodes:
        if color.get(n, 0) == 0:
            found = dfs(n)
            if found:
                return found
    return None


def validate_nc(g: Game, min_fp: FPStrategy) -> list:
    """Checks Min's strategy leaves no zero-delay cycle of weight >= 0.

    Returns a list of violations (representative valuation, cycle), empty
    when the certificate holds.  The zero-delay graph of a cell takes Min's
    chosen transition where it fires immediately and every transition Max
    could fire at that valuation.
    """
    pts = set(boundaries(min_fp)) | {Fraction(0), as_fraction(g.clock_bound)}
    pts = sorted(pts)
    reps = []
    for lo, hi in zip(pts, pts[1:]):
        reps.append(lo)
        reps.append((lo + hi) / 2)
    reps.append(pts[-1])
    violations = []
    nodes = [l.name for l in g.nonfinal_locations]
    for rep in dict.fromkeys(reps):
        edges = []
        for l in g.nonfinal_locations:
            if l.owner == MIN:
                move = min_fp.move_at(l.name, rep)
                if move.kind == NOW:
                    t = g.transitions[move.t_index]
                    if not g.location(t.target).is_final:
                        edges.append((l.name, t.target, t.weight))
            else:
                for i in g.outgoing(l.name):
                    t = g.transitions[i]
                    if t.guard.contains(rep) and not g.location(t.target).is_final:
                        edges.append((l.name, t.target, t.weight))
        cyc = _nonneg_cycle(nodes, edges)
        if cyc is not None:
            violations.append((rep, cyc))
    return violations


# ---------------------------------------------------------------------------
# best response against a fixed Max strategy


@dataclass(frozen=True)
class Unresolved:
    """Returned when an oracle runs out of budget before deciding."""

    reason: str


class _OutOfBudget(Exception):
    pass


def fake_value_upper_bound(
    g: Game,
    max_fp: FPStrategy,
    start: Config,
    budget: int = 100000,
):
    """Cheapest cost Min can force when Max is pinned to max_fp.

    Explores the reachable (location, valuation) graph; Min may fire now or
    wait to any strategy boundary or guard endpoint.  Configurations already
    on the stack are skipped, so cyclic gains are not counted; when Min's
    strategy passes validate_nc no such gain exists and the bound is the
    exact best response.  Returns Unresolved when the budget runs out.
    """
    grid = {as_fraction(g.clock_bound)}
    grid.update(boundaries(max_fp))
    for t in g.transitions:
        grid.add(as_fraction(t.guard.lo))
        grid.add(as_fraction(t.guard.hi))
    grid = sorted(grid)
    memo = {}
    on_stack = set()
    spent = [0]

    def best(name: str, nu: Fraction):
        key = (name, nu)
        if key in memo:
            return memo[key]
        if key in on_stack:
            return None
        spent[0] += 1
        if spent[0] > budget:
            raise _OutOfBudget
        loc = g.location(name)
        if loc.is_final:
            memo[key] = loc.final_cost(nu)
            return memo[key]
        on_stack.add(key)
        try:
            if loc.owner == MAX:
                move = max_fp.move_at(name, nu)
                t = g.transitions[move.t_index]
                if move.kind == WAIT_UNTIL:
                    if loc.urgent or move.target_x < nu:
                        raise IllegalMove(f"{name}: bad wait in the Max strategy")
                    fire = move.target_x
                else:
                    fire = nu
                if not t.guard.contains(fire):
                    raise IllegalMove(
                        f"{name}: Max strategy fires outside {t.guard.describe()}"
                    )
                sub = best(t.target, Fraction(0) if t.reset else fire)
                if sub is None:
                    result = INF
                else:
                    result = (fire - nu) * loc.rate + t.weight + sub
            else:
                targets = [nu] if loc.urgent else [nu] + [p for p in grid if p > nu]
                result = INF
                for p in targets:
                    for i in g.outgoing(name):
                        t = g.transitions[i]
                        if not t.guard.contains(p):
                            continue
                        sub = best(t.target, Fraction(0) if t.reset else p)
                        if sub is None:
                            continue
                        cand = (p - nu) * loc.rate + t.weight + sub
                        if cand < result:
                            result = cand
        finally:
            on_stack.discard(key)
        memo[key] = result
        return result

    try:
        out = best(start.location, as_fraction(start.valuation))
    except _OutOfBudget:
        return Unresolved(f"exceeded {budget} explored configurations")
    return INF if out is None else out


# ---------------------------------------------------------------------------
# local optimality of a claimed value function, one valuation at a time


def bellman_check(g: Game, vals: dict, nu) -> list:
    """Names of locations whose claimed continuous values are not locally
    optimal at nu.

    vals[name] is one CostFunction on [0, bound] per non-final location;
    final locations are worth their final cost.  Each claim is one segment
    over every region of the game, so this is RegionBellmanOracle on values
    without jumps, and at an open guard end a one-sided limit counts.
    """
    claims = {
        l.name: (CostFunction.from_affine(0, g.clock_bound, l.final_cost) if l.is_final else vals[l.name],)
        for l in g.locations
    }
    nu = as_fraction(nu)
    return RegionBellmanOracle(g, regions_of(g), claims).check(nu.numerator, nu.denominator)


def as_segments(regions, per_region: dict) -> dict:
    """Values given per region as the contiguous segments a document holds:
    per_region[name][i] covers the closure of regions[i], a CostFunction
    restricted to it or a bare float infinity, which becomes a constant."""

    def segment(r, e):
        if isinstance(e, float):
            return CostFunction.constant(r.lo, r.hi, e)
        return e if (e.lo, e.hi) == (r.lo, r.hi) else restrict(e, r.lo, r.hi)

    return {name: [segment(r, e) for r, e in zip(regions, per)] for name, per in per_region.items()}


def region_values(regions, segments: list, name: str = "l") -> list:
    """Per-region closure values of location name's contiguous segments, as
    the document reader gave them before the oracle read segments: the
    segment `strategy.cover` picks for each region, an open region's a
    bare float where it is infinite, a point region's its value there."""
    X = math.lcm(*{x.denominator for r in regions for x in (r.lo, r.hi)},
                 *{x.denominator for s in segments for x in s.xs})
    borders = [_scaled(r.lo, X) for r in regions[::2]]
    out = []
    for r, i in zip(regions, cover(regions, borders, [[_scaled(x, X) for x in s.xs] for s in segments], X, name)):
        seg = segments[i]
        if r.is_point:
            v = evaluate(seg, r.lo)
            out.append(v if isinstance(v, float) else CostFunction.point(r.lo, v))
        else:
            out.append(seg.vals[0] if isinstance(seg.vals[0], float) else seg)
    return out


def infinite(values: dict) -> dict:
    """The infinite constants among `solve`'s values, by name: the
    locations pruning splits off."""
    return {name: f.vals[0] for name, f in values.items() if isinstance(f.vals[0], float)}


def region_table(g: Game, values: dict) -> dict:
    """Each location's stitched segments per region of g: read as `ptg
    verify` once read a document (`region_values`), every finite
    entry restricted to its region's closure, a bare float where the
    location is infinite throughout the region."""
    regions = regions_of(g)
    return {
        name: tuple(
            e if isinstance(e, float) else restrict(e, r.lo, r.hi)
            for r, e in zip(regions, region_values(regions, segs))
        )
        for name, segs in values.items()
    }


def region_bellman_check(g: Game, regions: list, region_vals: dict, nu) -> list:
    """Names of locations whose per-region values are not locally optimal at nu.

    Per transition it tries the value and the one-sided limits of the
    target at every critical point of the guard window from nu on, the best
    of which RegionBellmanOracle reads from a suffix table.  To check many
    valuations, build the oracle once, on `as_segments`, and call its
    check.
    """
    nu = as_fraction(nu)
    return RegionBellmanOracle(g, regions, as_segments(regions, region_vals)).check(nu.numerator, nu.denominator)


# ---------------------------------------------------------------------------
# the region pipeline's point solves, windows and the cutpoint sort, as
# they were
#
# `instant_by_subgame` builds a `Game` of each point component, with
# `_SubGame`, and a fresh evaluator of it; `window_by_subgame` builds one
# of each open window and sweeps it.  `regions._compile` compiles the same
# rows straight from the region graph.  `possible_cutpoints` lists a
# window's candidates, sorting the integer pairs first, and
# `possible_cutpoints_by_fraction` sorts them as Fractions; `solver.sweep`
# lists none.


_FULL = Guard.closed(0, 1)


class _SubGame:
    """Accumulates locations and edges for one closed-guard solver input.

    Every name it makes starts with "@", which game files may not use.
    """

    def __init__(self):
        self.locations = []
        self.transitions = []
        self._stubs = {}

    def add(self, loc: Location) -> None:
        self.locations.append(loc)

    def edge(self, src: str, tgt: str, weight: int) -> None:
        self.transitions.append(Transition(src, _FULL, False, tgt, weight))

    def stub(self, key, v0, v1) -> str:
        """A location worth v0 at t = 0 and v1 at t = 1.

        A finite stub is the final line from v0 to v1, one per key.  An
        infinite one (v0 and v1 then share the sign) is one location per sign:
        +inf is a location without moves, which never reaches a final, and
        -inf a free negative loop next to an exit.  `sweep`'s pruning sets
        both aside, with every edge into them.
        """
        if isinstance(v0, float):
            key = v0
        name = self._stubs.get(key)
        if name is None:
            name = self._stubs[key] = f"@s{len(self._stubs)}"
            if v0 == INF:
                self.add(Location(name, MAX, 0, True, None))
            elif v0 == NEG_INF:
                self.add(Location(name, MIN, 0, True, None))
                self.add(Location(name + ".out", FINAL, 0, False, Affine(0, 0)))
                self.edge(name, name, -1)
                self.edge(name, name + ".out", 0)
            else:
                self.add(Location(name, FINAL, 0, False, Affine(v1 - v0, v0)))
        return name

    def game(self) -> Game:
        return make_game(self.locations, self.transitions, 1)


def instant_by_subgame(rg, comp, out_edges, nodeval, x) -> dict:
    """Values of a point component's members at its valuation x.

    No time passes at a point, so every member plays urgently.  Every edge
    of a point copy holds at x; its moves lead into another member or into
    a stub worth the target's value entered at x, and where the member may
    wait, that includes the hop into the region above.  A member without
    moves is stuck, worth +inf.  Every stub is constant, so one
    `InstantEvaluator` run of the members' game, at 1, gives the values,
    read off its names here.
    """
    base = rg.base
    members = set(comp)
    sub = _SubGame()
    for node in comp:
        sub.add(Location(node[0], base.location(node[0]).owner, 0, True, None))
    for node in comp:
        for j in out_edges[node]:
            rt = rg.transitions[j]
            if rt.target in members:
                tgt = rt.target[0]
            else:
                v = _entry_value(nodeval, rt, x)
                tgt = sub.stub((rt.target, rt.reset), v, v)
            sub.edge(node[0], tgt, rt.weight)
    ev = InstantEvaluator(compile_game(sub.game()))
    x, _, _, denom = ev.run(1)
    vals = dict(zip(ev.names, unscale(x, denom)))
    return {node: vals[node[0]] for node in comp}


def window_by_subgame(rg, comp, interior, nodeval, anchor, c, d, max_steps) -> dict:
    """One seam-free window [c, d] of an open region, as a unit-interval game.

    The change of variable x = c + t*(d-c) scales waiting rates by the
    window length and turns neighbour value functions into affine terminal
    costs.  Waiting past d is priced by a per-member terminal clone whose
    cost line starts at the member's already-known value at d and grows
    leftwards at the member's own rate, exactly what waiting would cost.
    At the region's upper border that known value is the one its hop
    enters; `sweep` then settles the members' moves at d among themselves.
    Every member enters the game, and infinities are left to `sweep`'s
    pruning: an infinite anchor or target becomes a stub of its sign, and
    a member with no move is stuck, worth +inf.  interior[node] lists the
    member's edges as `RegionTransition`s.
    """
    base = rg.base
    members = set(comp)
    length = d - c
    sub = _SubGame()
    for node in comp:
        loc = base.location(node[0])
        sub.add(Location(node[0], loc.owner, loc.rate * length, loc.urgent, None))
    for node in comp:
        loc = base.location(node[0])
        for rt in interior[node]:
            if rt.target in members:
                tgt = rt.target[0]
            else:
                vc, vd = _entry_value(nodeval, rt, c), _entry_value(nodeval, rt, d)
                tgt = sub.stub((rt.target, rt.reset), vc, vd)
            sub.edge(loc.name, tgt, rt.weight)
        if not loc.urgent:
            rate = loc.rate * length
            sub.edge(loc.name, sub.stub((node, "wait"), rate + anchor[node], anchor[node]), 0)
    sw = sweep(compile_game(sub.game()), max_steps, onto=(c, d))
    vals = {**sw.finite, **sw.infinite}
    return {node: vals[node[0]] for node in comp}


def possible_cutpoints(ev: InstantEvaluator, r) -> list:
    """Candidate cutpoints in [0, r]: crossings of the line family, plus 0 and r.

    The family is read off the evaluator's current final lines, so a
    re-anchored evaluator needs no Game built.  Enumerating the full family
    is wasteful; for each pair of base final functions only integer offsets
    d = k1 - k2 within the value window can produce a crossing, and the
    crossing abscissa determines d uniquely, so the pairs are walked
    directly.
    """
    r = as_fraction(r)
    rn, rd = r.numerator, r.denominator
    scale, lines = ev.scale, [(s, c) for _, s, c in ev.finals]
    width = (2 * len(ev.names) - 1) * ev.max_weight
    step = scale * rd
    found = {(0, 1), (rn, rd)}  # reduced (numerator, positive denominator)
    for i, (si, ci) in enumerate(lines):
        for sj, cj in lines[i + 1 :]:
            ds = si - sj
            if ds == 0:
                continue
            dc = cj - ci
            # x = (dc + d*L)/ds lies in [0, r] exactly for d*L*rd between
            # -dc*rd and rn*ds - dc*rd
            lo_d, hi_d = sorted((-dc * rd, rn * ds - dc * rd))
            lo_i = max(-(-lo_d // step), -width)
            hi_i = min(hi_d // step, width)
            for d in range(lo_i, hi_i + 1):
                num = dc + d * scale
                k = math.gcd(num, ds)
                if ds < 0:
                    k = -k
                found.add((num // k, ds // k))
    # sorted on one integer key: each a/b put on the common denominator D
    big = math.lcm(*(b for _, b in found))
    ordered = sorted(found, key=lambda ab: ab[0] * (big // ab[1]))
    return [Fraction(a, b) for a, b in ordered]


def possible_cutpoints_by_fraction(ev: InstantEvaluator, r) -> list:
    """Candidate cutpoints in [0, r]: crossings of the line family, plus 0 and r.

    The family is read off the evaluator's current final lines, so a
    re-anchored evaluator needs no Game built.  Enumerating the full family
    is wasteful; for each pair of base final functions only integer offsets
    d = k1 - k2 within the value window can produce a crossing, and the
    crossing abscissa determines d uniquely, so the pairs are walked
    directly.
    """
    r = as_fraction(r)
    rn, rd = r.numerator, r.denominator
    scale, lines = ev.scale, [(s, c) for _, s, c in ev.finals]
    width = (2 * len(ev.names) - 1) * ev.max_weight
    step = scale * rd
    found = {(0, 1), (rn, rd)}  # reduced (numerator, positive denominator)
    for i, (si, ci) in enumerate(lines):
        for sj, cj in lines[i + 1 :]:
            ds = si - sj
            if ds == 0:
                continue
            dc = cj - ci
            # x = (dc + d*L)/ds lies in [0, r] exactly for d*L*rd between
            # -dc*rd and rn*ds - dc*rd
            lo_d, hi_d = sorted((-dc * rd, rn * ds - dc * rd))
            lo_i = max(-(-lo_d // step), -width)
            hi_i = min(hi_d // step, width)
            for d in range(lo_i, hi_i + 1):
                num = dc + d * scale
                k = math.gcd(num, ds)
                if ds < 0:
                    k = -k
                found.add((num // k, ds // k))
    return sorted(Fraction(a, b) for a, b in found)


def grid_sweep(rows, max_steps: Optional[int] = None, onto: Optional[tuple] = None) -> Sweep:
    """`solver.sweep` walking every candidate: value iteration runs at each
    point of `possible_cutpoints`, and max_steps counts those candidates.
    The sweep from crossing to crossing must give the same values and
    trace."""
    pr = prune_infinite(rows)
    core = pr.rows
    if not core.rows:
        return Sweep(pr, {}, SweepTrace())
    budget = default_max_steps(core) if max_steps is None else max_steps
    spent = 0
    c, d = (as_fraction(v) for v in (onto or (0, 1)))
    length = d - c

    names = [core.names[i] for i, _, _ in core.rows]
    b, db = Fraction(1), pr.denom
    f_b = [pr.values[n] for n in names]
    ev = WindowEvaluator(core, f_b, db)
    at = [i for i, _, _ in ev.rows]
    waits = []
    for j, ((_, is_max, _), (rate, urgent)) in enumerate(zip(core.rows, core.timing)):
        if not urgent:
            s = -1 if is_max else 1
            limit = -as_fraction(rate)
            waits.append((j, s * limit.denominator, s * limit.numerator))
    record = [(b, f_b, db)]
    breaks = [[0] for _ in names]

    trace = SweepTrace(boundaries=[Fraction(1)])
    r = Fraction(1)
    while r > 0:
        grid = possible_cutpoints(ev, r)
        win = WindowTrace(start=r)
        prev = None
        rejected = False
        for a in reversed(grid[:-1]):
            spent += 1
            if spent > budget:
                raise BudgetExceeded(f"sweep exceeded {budget} candidate evaluations")
            x, _, _, da = ev.run(a)
            x_a = [x[i] for i in at]
            if any(isinstance(v, float) for v in x_a):
                where = ", ".join(n for n, v in zip(names, x_a) if isinstance(v, float))
                raise InternalError(
                    "sweep", "window game produced an infinite value", where, c + a * length
                )
            w = b - a
            nums = [(fb * da - xa * db) * w.denominator for fb, xa in zip(f_b, x_a)]
            den = db * da * w.numerator
            bad = [names[j] for j, sq, sp in waits if nums[j] * sq < sp * den]
            if bad:
                if b == r:
                    raise InternalError(
                        "sweep",
                        f"first candidate of the window at {format_value(c + r * length)} "
                        "failed the slope test",
                        ", ".join(bad),
                        c + a * length,
                    )
                win.rejection = (a, bad)
                trace.windows.append(win)
                trace.boundaries.append(b)
                r = b
                ev.reanchor(r, f_b, db)
                rejected = True
                break
            same = None
            if prev is not None:
                pnums, pden = prev
                same = [n * pden == pn * den for n, pn in zip(nums, pnums)]
                moved = [names[j] for j, kept in enumerate(same) if not kept]
                if moved:
                    win.slope_breaks.append((b, moved))
            record.append((a, x_a, da))
            for j, ks in enumerate(breaks):
                if same is not None and same[j]:
                    ks[-1] = len(record) - 1
                else:
                    ks.append(len(record) - 1)
            prev = (nums, den)
            b, f_b, db = a, x_a, da
        if not rejected:
            trace.windows.append(win)
            trace.boundaries.append(Fraction(0))
            r = Fraction(0)

    finite = {
        n: from_points(
            [(c + record[k][0] * length, Fraction(record[k][1][j], record[k][2])) for k in reversed(ks)]
        )
        for j, (n, ks) in enumerate(zip(names, breaks))
    }
    return Sweep(pr, finite, trace, ev, record, breaks)


# ---------------------------------------------------------------------------
# the pruned core and Min's fallback on a Game, as `solver.solve` read them
#
# `solve` now reads both off the pruned rows (`urgent.attractor`); the
# tests check it against these.


def core_game(g: Game, infinite: dict) -> tuple:
    """(core, origin): g without its infinite locations and every
    transition touching one; origin maps core's transition indices back
    to g's."""
    locs = tuple(l for l in g.locations if l.name not in infinite)
    origin = tuple(
        i
        for i, t in enumerate(g.transitions)
        if t.source not in infinite and t.target not in infinite
    )
    return make_game(locs, (g.transitions[i] for i in origin), g.clock_bound), origin


def attractor_strategy(g: Game) -> dict:
    """Minimal-step reachability choices toward the final locations.

    Level 0 holds the finals; a Min location enters the attractor once some
    successor is in, a Max location once all successors are.  The returned
    map sends each non-final location to the index of its chosen transition
    (lowest index among those into the lowest level).
    """
    level = {l.name: 0 for l in g.final_locations}
    nonfinal = [l for l in g.locations if not l.is_final]
    current = 0
    while True:
        current += 1
        grew = False
        for l in nonfinal:
            if l.name in level:
                continue
            succs = [g.transitions[i].target for i in g.outgoing(l.name)]
            if l.owner == MIN:
                ok = any(s in level for s in succs)
            else:
                ok = succs and all(s in level for s in succs)
            if ok:
                level[l.name] = current
                grew = True
        if not grew:
            break
    choice = {}
    for l in nonfinal:
        if l.name not in level:
            continue
        best = None
        for i in g.outgoing(l.name):
            tgt = g.transitions[i].target
            if tgt in level:
                key = level[tgt]
                if best is None or key < best[0]:
                    best = (key, i)
        choice[l.name] = best[1]
    return choice
