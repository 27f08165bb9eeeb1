"""Strategies, play simulation, and the local-optimality oracle.

A strategy here is positional over finitely many clock intervals: at a
location it either fires a transition immediately or waits to a target
valuation and then fires.  Min additionally gets a switching wrapper that
falls back to a pure reachability strategy once the accumulated discrete
cost drops below a threshold, which is what makes the value guarantee a
real one instead of a limit.

RegionBellmanOracle does not trust the solver: it recomputes local
optimality of a claimed value function from the game alone.  It is one
oracle for both pipelines: it reads a document's segments per clock
region (`cover`), jumps at region borders included, builds per-transition
suffix tables once per document and then takes one bisection per
transition at each valuation.  `on_scale` puts the segments on two
integer scales once, one for clock values and one for costs, and every
check of `ptg verify` reads that one form, so a check at a valuation does
integer arithmetic only and is still exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .exactmath import INF, Value, _scaled, _slope, as_fraction, format_ratio, format_value
from .model import MAX, NOW, WAIT_UNTIL, Config, Game


class IllegalMove(ValueError):
    """A strategy proposed a move the game does not allow."""


class SolutionFormatError(ValueError):
    """A values file does not follow the solution JSON shape, or its
    segments leave a region without values (`cover`)."""


@dataclass(frozen=True)
class Move:
    kind: str
    t_index: int
    target_x: Optional[Fraction] = None

    @staticmethod
    def now(t_index: int) -> "Move":
        return Move(NOW, t_index)

    @staticmethod
    def wait_until(target_x, t_index: int) -> "Move":
        return Move(WAIT_UNTIL, t_index, as_fraction(target_x))


@dataclass
class FPStrategy:
    """Finitely-positional strategy: per location, moves on clock intervals.

    rows[name] is a list of (lo, hi, move) with lo < hi, covering [0, bound)
    by left-closed right-open intervals in increasing order; at_end[name]
    is the move at the clock bound itself.  Keeping the cells closed on the
    left means the move fired when a wait run ends at x is the same move
    the strategy prescribes for standing at x, so zero-delay behaviour at a
    boundary never mixes two cells.
    """

    rows: dict
    at_end: dict

    def move_at(self, name: str, nu) -> Move:
        nu = as_fraction(nu)
        for lo, hi, move in self.rows[name]:
            if lo <= nu < hi:
                return move
        if self.rows.get(name) and nu == self.rows[name][-1][1]:
            return self.at_end[name]
        raise KeyError(f"{name}: no row covers valuation {format_value(nu)}")

    def decide(self, g: Game, cfg: Config, discrete_cost) -> Move:
        return self.move_at(cfg.location, cfg.valuation)


@dataclass
class SwitchingStrategy:
    """Min's guarantee: play sigma1 until the discrete cost falls below
    the threshold, then chase a final location along sigma2."""

    sigma1: FPStrategy
    sigma2: dict
    threshold: Fraction

    def decide(self, g: Game, cfg: Config, discrete_cost) -> Move:
        if discrete_cost < self.threshold:
            return Move.now(self.sigma2[cfg.location])
        return self.sigma1.decide(g, cfg, discrete_cost)


@dataclass(frozen=True)
class Step:
    location: str
    valuation: Fraction
    wait: Fraction
    t_index: int
    cost_delta: Fraction


@dataclass
class Play:
    steps: list
    reached_final: bool
    final_location: Optional[str]
    final_valuation: Optional[Fraction]
    discrete_cost: Fraction
    cost: Value


def _apply_move(g: Game, cfg: Config, move: Move) -> tuple:
    """Validates and applies one move; returns (step, next_config)."""
    loc = g.location(cfg.location)
    t = g.transitions[move.t_index]
    if t.source != cfg.location:
        raise IllegalMove(f"{cfg.location}: transition {move.t_index} leaves {t.source}")
    if move.kind == WAIT_UNTIL:
        if loc.urgent:
            raise IllegalMove(f"{cfg.location} is urgent, waiting is not allowed")
        if move.target_x < cfg.valuation:
            raise IllegalMove(
                f"{cfg.location}: cannot wait backwards to {format_value(move.target_x)}"
            )
        fire_at = move.target_x
    else:
        fire_at = cfg.valuation
    if fire_at > g.clock_bound:
        raise IllegalMove(f"{cfg.location}: waiting past the clock bound")
    if not t.guard.contains(fire_at):
        raise IllegalMove(
            f"{cfg.location}: guard {t.guard.describe()} rejects {format_value(fire_at)}"
        )
    wait = fire_at - cfg.valuation
    delta = wait * loc.rate + t.weight
    nxt = Config(t.target, Fraction(0) if t.reset else fire_at)
    return Step(cfg.location, cfg.valuation, wait, move.t_index, delta), nxt


def play_out(
    g: Game,
    start: Config,
    min_strategy,
    max_strategy,
    max_steps: int = 10000,
) -> Play:
    """Simulates one play; both strategies expose decide(game, config, cost).

    The cost handed to decide is the accumulated discrete cost (transition
    weights only), which is what the switching rule watches.
    """
    cfg = Config(start.location, as_fraction(start.valuation))
    steps = []
    total = Fraction(0)
    discrete = Fraction(0)
    for _ in range(max_steps):
        loc = g.location(cfg.location)
        if loc.is_final:
            final_cost = total + loc.final_cost(cfg.valuation)
            return Play(steps, True, cfg.location, cfg.valuation, discrete, final_cost)
        chooser = max_strategy if loc.owner == MAX else min_strategy
        move = chooser.decide(g, cfg, discrete)
        step, cfg = _apply_move(g, cfg, move)
        steps.append(step)
        total += step.cost_delta
        discrete += g.transitions[step.t_index].weight
    return Play(steps, False, None, None, discrete, INF)


# ---------------------------------------------------------------------------
# local optimality of a claimed value function


class RegionBellmanOracle:
    """Local optimality of a document's values: built once, asked per valuation.

    values[name] is a location's contiguous segments over [0, bound], as a
    document holds them (one `solve` value f is `(f,)`); scaled, if given,
    is `on_scale(g, regions, values)`, computed already.  Each region reads
    the segment `cover` picks for it.  Regions alternate between border
    points and the open intervals between them, so border b_i is region 2i
    and the open regions on its left and right are 2i-1 and 2i+1; a
    bisection of the borders finds the region of any valuation.

    The value of a location is an infimum or supremum over plays, so at an
    open guard end or a jump of the target it is approached, not attained:
    one-sided limits count as candidates.  The one-step cost of a move is
    piecewise affine in the firing time, broken only at region borders and
    target breakpoints, so per transition the optimum over the window
    [max(nu, lo), min(bound, hi)] of its guard sits at a critical point:
    the window ends, the borders and the target's breakpoints.  A critical
    point p > nu contributes c(p) - nu*rate, where c(p) is the best of
    p*rate + weight plus the target's value at p (if the guard contains p),
    its left limit (if p > lo) and its right limit (if p < the window's
    upper end), each read once per distinct region.  None of that depends
    on nu, so each transition keeps the suffix optimum of c over its sorted
    critical points.  At p = nu the window starts at nu itself: the value
    is read per valuation, the right limit only where it can differ from
    it (at a border, or where the guard is open at nu), and the left limit
    is no candidate.  These are the candidates of trying every critical
    point at every valuation, in the same exact arithmetic.  An urgent
    location only fires now.

    The tables live on two integer scales, which `on_scale` fixes once
    per document from the game and the segments, so that a check does
    integer arithmetic only:

    - X, the least common denominator of every abscissa: borders,
      breakpoints, guard ends and the clock bound, which covers the
      critical points and window ends too.  An abscissa a is the integer
      a*X.
    - M = X*D, where D is the least common denominator of the values,
      each piece's slope, the weights, the rates and the final costs.  A
      value v is the integer v*M, a slope or rate s the integer s*D, its
      change per step 1/X of the clock on the scale M.  So a line's value
      s*k + c at a critical point k is an integer on the scale M too, and
      with it the values after a reset and the suffix optima.

    At nu = p/q every candidate and the claim are then numerators over the
    one positive denominator M*q:

    - a piece s*nu + c is s*D * p*X + c*M * q, a breakpoint value v*M * q;
    - a weight w is w*M * q;
    - a later fire point is suffix * q - rate*D * p*X.

    Numerators over one positive denominator order as the values they
    stand for, so picking the owner's best candidate and comparing it with
    the claim is exact.  An abscissa A/X is at most nu exactly when the
    integer A is at most floor(nu*X), and at least nu exactly when A is at
    least ceil(nu*X); the two are equal exactly when q divides X, and only
    then can an abscissa equal nu.  So every abscissa test is a test on
    integers, a bisection included.  Infinities stay float sentinels:
    Python compares them with integers of any size exactly, and inf*q is
    inf for q > 0.
    """

    def __init__(self, g: Game, regions, values: dict, scaled: Optional[tuple] = None):
        X, D, B, borders, tables = on_scale(g, regions, values) if scaled is None else scaled
        M = X * D
        self.X, self.borders = X, borders
        self.entries, breaks = {}, {}
        for name, segs in tables.items():
            self.entries[name] = [segs[i] for i in cover(regions, borders, [t[0] for t in segs], X, name)]
            breaks[name] = sorted({x for xs, vals, _ in segs if not isinstance(vals[0], float) for x in xs})
        zero = _around(borders, 0)[0]
        readings = {}
        self.rows = []
        for l in g.nonfinal_locations:
            pick = max if l.owner == MAX else min
            rate = _scaled(l.rate, D)
            moves = []
            for i in g.outgoing(l.name):
                t = g.transitions[i]
                guard = t.guard
                lo = _scaled(guard.lo, X)
                top = INF if isinstance(guard.hi, float) else _scaled(guard.hi, X)
                hi = min(B, top)
                if lo > hi:
                    continue
                # the window ends the guard leaves out; a guard end above the bound is none
                opened = ((lo,) if not guard.lo_closed else ()) + (
                    (hi,) if not guard.hi_closed and hi == top else ()
                )
                # an interval holding both ends of the clock range holds all of it
                always = (lo < 0 or lo == 0 and guard.lo_closed) and (
                    B < top or B == top and guard.hi_closed
                )
                w = _scaled(t.weight, M)
                at_zero = _at(self.entries[t.target][zero], 0, 1, 0, True) if t.reset else None
                ks, tvs = [], []
                if not l.urgent:
                    key = (t.target, lo, hi, opened, pick)
                    if key not in readings:
                        readings[key] = _readings(
                            borders, self.entries[t.target], breaks[t.target], lo, hi, opened, pick
                        )
                    ks, tvs = readings[key]
                hs = [k * rate + w + (at_zero if t.reset else tv) for k, tv in zip(ks, tvs)]
                suffix = list(accumulate(reversed(hs), pick))[::-1]
                reset = w + at_zero if t.reset else None
                moves.append((w, reset, always, lo, hi, opened, ks, suffix, t.target))
            self.rows.append((l.name, pick, l.urgent, rate, moves))

    def check(self, p: int, q: int) -> list:
        """Names of locations whose claimed value is not locally optimal at
        the valuation p/q, in lowest terms with q > 0."""
        X, borders, entries = self.X, self.borders, self.entries
        exact = X % q == 0  # only then is nu*X an integer, and can equal an abscissa
        px = p * X
        fl = px // q
        ce = fl if exact else fl + 1
        i = bisect_left(borders, ce)
        border = exact and i < len(borders) and borders[i] == fl
        here, after = (2 * i, 2 * i + 1) if border else (2 * i - 1, 2 * i - 1)
        at_here = {}
        at_after = {} if border else at_here

        def at(name, index, seen):
            v = seen.get(name)
            if v is None:
                v = seen[name] = _at(entries[name][index], px, q, fl, exact)
            return v

        bad = []
        for name, pick, urgent, rate, moves in self.rows:
            cands, later = [], []
            for w, reset, always, lo, hi, opened, ks, suffix, target in moves:
                j = bisect_right(ks, fl)
                if j < len(ks):
                    later.append(suffix[j])
                if always:
                    attained = True
                elif lo <= fl and ce <= hi:
                    attained = not (exact and fl in opened)
                else:
                    continue
                if attained:
                    cands.append(reset * q if reset is not None else w * q + at(target, here, at_here))
                if not urgent and (border or not attained) and fl < hi:
                    cands.append(reset * q if reset is not None else w * q + at(target, after, at_after))
            if later:
                # every later fire point pays the same -nu*rate for the wait
                cands.append(pick(later) * q - rate * px)
            if (pick(cands) if cands else INF) != at(name, here, at_here):
                bad.append(name)
        return bad


def on_scale(g: Game, regions, values: dict) -> tuple:
    """A document's segments on `RegionBellmanOracle`'s two integer scales,
    put there once for every check of `ptg verify`: (X, D, bound, borders,
    tables), the scales as the oracle names them, the bound and the borders
    on X, and tables[name] a `_table` per segment of values[name], read off
    its two scales.  A piece's slope enters D in lowest terms d / gcd(n, d)
    of `_slope`'s pair (n, d), the one time it is taken.  The regions
    alternate as `regions_of` cuts them: border i is region 2i.
    """
    xden = {g.clock_bound.denominator}
    xden.update(r.lo.denominator for r in regions[::2])
    vden = set()
    for segs in values.values():
        for f in segs:
            xden.add(f.xd)
            if isinstance(f.vn[0], float):
                continue
            vden.add(f.vd)
            for i in range(len(f.xn) - 1):
                n, d = _slope(f.xn[i], f.vn[i], f.xn[i + 1], f.vn[i + 1], f.xd, f.vd)
                vden.add(d // math.gcd(n, d))
    for t in g.transitions:
        xden.update(v.denominator for v in (t.guard.lo, t.guard.hi) if not isinstance(v, float))
        vden.add(t.weight.denominator)
    for l in g.locations:
        vden.add(l.rate.denominator)
        if l.is_final:
            vden.update((l.final_cost.slope.denominator, l.final_cost.intercept.denominator))
    X, D = math.lcm(*xden), math.lcm(*vden)
    borders = [_scaled(r.lo, X) for r in regions[::2]]
    tables = {name: [_table(f, X, X * D) for f in segs] for name, segs in values.items()}
    return X, D, _scaled(g.clock_bound, X), borders, tables


def _table(f, X: int, M: int) -> tuple:
    """A segment on the scales: (xs, vals, lines), its breakpoints on X,
    its values on M and per piece its line (slope*D, intercept*M), none
    for an infinite segment.  The piece from (A0, V0) to (A1, V1) is the
    line of slope (V1 - V0)/(A1 - A0), an exact division, through (A0, V0)."""
    kx, kv = X // f.xd, M // f.vd
    xs, vals = [x * kx for x in f.xn], [v * kv for v in f.vn]  # inf*kv is inf
    lines = []
    if not isinstance(vals[0], float):
        for a0, a1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]):
            s = (v1 - v0) // (a1 - a0)  # exact: the slope's denominator divides D
            lines.append((s, v0 - s * a0))
    return xs, vals, lines


def cover(regions, borders: list, segxs: list, X: int, name: str) -> list:
    """The index of the segment each region reads its closure's values
    from, given the borders and location name's segment breakpoints
    (segxs) as integers on the scale X; region i spans borders i // 2 to
    (i + 1) // 2.

    Open regions take the first segment that spans their closure; its
    values at the borders are the one-sided limits because segments end
    exactly where the function jumps, and meet only at borders.  Point
    regions take the attained value: of the segments covering the point,
    the last point segment, or else the last one.  Both lists are walked
    once, in ascending order, so the segments must be contiguous, each
    starting where the previous one ends, as `ptg verify` ensures.
    """
    out = []
    k, m = 0, len(segxs)
    for i, reg in enumerate(regions):
        lo, hi = borders[i // 2], borders[(i + 1) // 2]
        # segments ending below the region cover neither it nor any later one
        while k < m and segxs[k][-1] < hi:
            k += 1
        if lo == hi:
            # from k on, every segment starting at or below the point covers it
            j = k
            while j < m and segxs[j][0] <= lo:
                j += 1
            if j == k:
                raise SolutionFormatError(f"values.{name}: no segment covers {format_value(reg.lo)}")
            out.append(max((s for s in range(k, j) if len(segxs[s]) == 1), default=j - 1))
            continue
        if k == m or segxs[k][0] > lo:
            where = f"the open region ({format_value(reg.lo)}, {format_value(reg.hi)})"
            if k == m:
                raise SolutionFormatError(f"values.{name}: no segment spans {where}")
            at = format_ratio(segxs[k][0], X)
            raise SolutionFormatError(f"values.{name}: segments meet at {at} inside {where}")
        out.append(k)
    return out


def _at(table: tuple, a: int, b: int, fl: int, exact: bool):
    """The value of a `_table` at the abscissa a/(X*b), as a numerator
    over M*b; fl is floor(a/b) and exact tells whether b divides a.  With
    no line (a point, or an infinity: inf*b is inf for b > 0) it has one
    value."""
    xs, vals, lines = table
    if not lines:
        return vals[0] * b
    j = bisect_left(xs, fl if exact else fl + 1)
    if exact and xs[j] == fl:
        return vals[j] * b
    s, c = lines[j - 1]
    return s * a + c * b


def _readings(borders: list, per: list, breaks: list, lo, hi, opened: tuple, pick) -> tuple:
    """The critical points k of the window [lo, hi] of a guard into a
    target valued per region by per, whose breakpoints are breaks, and the
    owner's best of the target's value at k (if the guard contains k), its
    left limit (if k > lo) and its right limit (if k < hi), each region
    read once.  Moves with the same target, window and owner share them."""
    crit = {lo, hi}
    crit.update(borders[bisect_left(borders, lo) : bisect_right(borders, hi)])
    crit.update(breaks[bisect_left(breaks, lo) : bisect_right(breaks, hi)])
    crit = sorted(crit)
    last = len(crit) - 1
    ks, tvs = [], []
    for n, k in enumerate(crit):
        here, below, above = _around(borders, k)
        # crit runs from lo to hi: k > lo and k < hi read off n, and the
        # guard holds every point strictly between them
        inside = 0 < n < last or k not in opened
        sides = {r for r, ok in ((here, inside), (below, n > 0), (above, n < last)) if ok}
        if sides:
            ks.append(k)
            tvs.append(pick(_at(per[r], k, 1, k, True) for r in sides))
    return ks, tvs


def _around(borders: list, x) -> tuple:
    """Indices of the regions holding x, touching it from below and
    touching it from above; off a border they are one region."""
    i = bisect_left(borders, x)
    if i < len(borders) and borders[i] == x:
        return 2 * i, 2 * i - 1, 2 * i + 1
    return 2 * i - 1, 2 * i - 1, 2 * i - 1
