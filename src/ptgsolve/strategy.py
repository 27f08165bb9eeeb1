"""Strategies, play simulation, and the local-optimality oracle.

A strategy here is positional over finitely many clock intervals: at a
location it either fires a transition immediately or waits to a target
valuation and then fires.  Min additionally gets a switching wrapper that
falls back to a pure reachability strategy once the accumulated discrete
cost drops below a threshold, which is what makes the value guarantee a
real one instead of a limit.

RegionBellmanOracle does not trust the solver: it recomputes local
optimality of a claimed value function from the game alone.  It is one
oracle for both pipelines: it reads values per clock region, jumps at
region borders included, builds per-transition suffix tables once per
document and then takes one bisection per transition at each valuation.
Its tables hold integers on two scales, one for clock values and one for
costs, so a check at a valuation does integer arithmetic only and is still
exact.  `ptg verify` asks it about every document it checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .exactmath import INF, Value, _scaled, _slope, as_fraction, format_value
from .model import MAX, NOW, WAIT_UNTIL, Config, Game


class IllegalMove(ValueError):
    """A strategy proposed a move the game does not allow."""


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
    """Local optimality of per-region values: built once, asked per valuation.

    region_vals[name][i] covers the closure of regions[i]; entries may be a
    CostFunction or a bare float infinity.  Regions alternate between
    border points and the open intervals between them, so border b_i is
    region 2i and the open regions on its left and right are 2i-1 and 2i+1;
    a bisection of the borders finds the region of any valuation.

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

    The tables live on two integer scales, fixed once per document, so
    that a check does integer arithmetic only:

    - X, the least common denominator of every abscissa: borders,
      breakpoints, guard ends and the clock bound, which covers the
      critical points and window ends too.  An abscissa a is the integer
      a*X.
    - M = X*D, where D is the least common denominator of the claims'
      values, the weights, the rates and each piece's slope, in lowest
      terms d / gcd(n, d) of `_slope`'s pair (n, d).  A value v is the
      integer v*M, a slope or rate s the integer s*D, its change per step
      1/X of the clock on the scale M.  So a line's value s*k + c at a
      critical point k is an integer on the scale M too, and with it the
      values after a reset and the suffix optima.

    The inputs are put on the scales once, and the tables are built from
    those integers alone: the piece from (A0, V0) to (A1, V1) is the line
    of slope (V1 - V0)/(A1 - A0), an exact division, through (A0, V0).
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

    def __init__(self, g: Game, regions, region_vals: dict):
        bound = as_fraction(g.clock_bound)
        borders = [reg.lo for reg in regions if reg.is_point]
        funcs = {id(f): f for per in region_vals.values() for f in per if not isinstance(f, float)}
        xden = {bound.denominator, *(b.denominator for b in borders)}
        vden = set()
        for f in funcs.values():
            xden.update(x.denominator for x in f.xs)
            if isinstance(f.vals[0], float):
                continue
            vden.update(v.denominator for v in f.vals)
            for i in range(len(f.xs) - 1):
                n, d = _slope(f.xs[i], f.vals[i], f.xs[i + 1], f.vals[i + 1])
                vden.add(d // math.gcd(n, d))
        for t in g.transitions:
            xden.add(t.guard.lo.denominator)
            if not isinstance(t.guard.hi, float):
                xden.add(t.guard.hi.denominator)
            vden.add(t.weight.denominator)
        vden.update(l.rate.denominator for l in g.nonfinal_locations)
        self.X = X = math.lcm(*xden)
        D = math.lcm(*vden)
        M = X * D
        self.borders = borders = [_scaled(b, X) for b in borders]
        tables = {key: _table(f, X, M) for key, f in funcs.items()}
        self.entries, breaks = {}, {}
        for name, per in region_vals.items():
            # an infinity is the line (0, inf): 0*p + inf*q is inf for q > 0
            self.entries[name] = [(0, f) if isinstance(f, float) else tables[id(f)][0] for f in per]
            finite = [tables[id(f)] for f in per if not isinstance(f, float)]
            breaks[name] = sorted({x for _, xs in finite for x in xs})
        B = _scaled(bound, X)
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


def _table(f, X: int, M: int) -> tuple:
    """A CostFunction on the scales, as the check reads it, and its
    breakpoints.  It reads a line (slope*D, intercept*M) where one line
    gives every value on the closure (a point, an infinity as the line
    (0, inf), or one piece), else (xs, vals, lines), one line per piece."""
    xs = [_scaled(x, X) for x in f.xs]
    if f.is_point or isinstance(f.vals[0], float):
        return (0, _scaled(f.vals[0], M)), xs
    vals = [_scaled(v, M) for v in f.vals]
    lines = []
    for a0, a1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]):
        s = (v1 - v0) // (a1 - a0)  # exact: the slope's denominator divides D
        lines.append((s, v0 - s * a0))
    return (lines[0] if len(lines) == 1 else (xs, vals, lines)), xs


def _at(entry: tuple, a: int, b: int, fl: int, exact: bool):
    """The value of a `_table` entry at the abscissa a/(X*b), as a
    numerator over M*b; fl is floor(a/b) and exact tells whether b
    divides a."""
    if len(entry) == 2:
        s, c = entry
        return s * a + c * b
    xs, vals, lines = entry
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
