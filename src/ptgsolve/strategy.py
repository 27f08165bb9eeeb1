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
`ptg verify` asks it about every document it checks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .exactmath import INF, Affine, Value, as_fraction, evaluate, format_value
from .model import MAX, Config, Game

NOW = "now"
WAIT_UNTIL = "wait_until"


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
    """

    def __init__(self, g: Game, regions, region_vals: dict):
        self.borders = [reg.lo for reg in regions if reg.is_point]
        self.vals = region_vals
        bound = as_fraction(g.clock_bound)
        self.rows = []
        zero = Fraction(0)
        readings = {}
        for l in g.nonfinal_locations:
            pick = max if l.owner == MAX else min
            moves = []
            for i in g.outgoing(l.name):
                t = g.transitions[i]
                lo = as_fraction(t.guard.lo)
                hi = bound if isinstance(t.guard.hi, float) else min(bound, as_fraction(t.guard.hi))
                if lo > hi:
                    continue
                at_zero = self._value(t.target, self._around(zero)[0], zero) if t.reset else None
                ks, tvs = [], []
                if not l.urgent:
                    key = (t.target, t.guard, pick)
                    if key not in readings:
                        readings[key] = self._readings(t.target, t.guard, lo, hi, pick)
                    ks, tvs = readings[key]
                hs = [p * l.rate + t.weight + (at_zero if t.reset else tv) for p, tv in zip(ks, tvs)]
                suffix = list(accumulate(reversed(hs), pick))[::-1]
                # an interval holding both ends of the clock range holds all of it
                always = t.guard.contains(zero) and t.guard.contains(bound)
                moves.append((t, always, lo, hi, at_zero, ks, suffix))
            self.rows.append((l, pick, moves))

    def _readings(self, target: str, guard, lo, hi, pick) -> tuple:
        """The critical points p of the window [lo, hi] of a guard into
        target, and the owner's best of the target's value at p (if the
        guard contains p), its left limit (if p > lo) and its right limit
        (if p < hi), each region read once.  Moves with the same target,
        guard and owner share them."""
        crit = self._critical(target, lo, hi)
        last = len(crit) - 1
        ks, tvs = [], []
        for n, p in enumerate(crit):
            here, below, above = self._around(p)
            # crit runs from lo to hi: p > lo and p < hi read off n, and the
            # guard holds every point strictly between them
            inside = 0 < n < last or guard.contains(p)
            sides = {k for k, ok in ((here, inside), (below, n > 0), (above, n < last)) if ok}
            if sides:
                ks.append(p)
                tvs.append(pick(self._value(target, k, p) for k in sides))
        return ks, tvs

    def _critical(self, target: str, lo, hi) -> list:
        crit = {lo, hi}
        crit.update(b for b in self.borders if lo <= b <= hi)
        for f in self.vals[target]:
            if not isinstance(f, float):
                crit.update(x for x in f.xs if lo <= x <= hi)
        return sorted(crit)

    def _around(self, x) -> tuple:
        """Indices of the regions holding x, touching it from below and
        touching it from above; off a border they are one region."""
        i = bisect_left(self.borders, x)
        if i < len(self.borders) and self.borders[i] == x:
            return 2 * i, 2 * i - 1, 2 * i + 1
        return 2 * i - 1, 2 * i - 1, 2 * i - 1

    def _value(self, name: str, index: int, x):
        f = self.vals[name][index]
        if isinstance(f, float):
            return f
        if len(f.pieces) == 1 and isinstance(f.pieces[0], Affine):
            # CostFunction checks on construction that the line meets both ends
            return f.pieces[0](x)
        return evaluate(f, x)

    def check(self, nu) -> list:
        """Names of locations whose claimed value is not locally optimal at nu."""
        nu = as_fraction(nu)
        here, _, after = self._around(nu)
        border = here != after
        seen = {}

        def at_nu(name, index):
            v = seen.get((name, index))
            if v is None:
                v = seen[name, index] = self._value(name, index, nu)
            return v

        bad = []
        for l, pick, moves in self.rows:
            cands, later = [], []
            for t, always, lo, hi, at_zero, ks, suffix in moves:
                j = bisect_right(ks, nu)
                if j < len(ks):
                    later.append(suffix[j])
                if always:
                    attained = True
                elif lo <= nu <= hi:
                    attained = t.guard.contains(nu)
                else:
                    continue
                if attained:
                    cands.append(t.weight + (at_zero if t.reset else at_nu(t.target, here)))
                if not l.urgent and (border or not attained) and nu < hi:
                    cands.append(t.weight + (at_zero if t.reset else at_nu(t.target, after)))
            if later:
                # every later fire point pays the same -nu*rate for the wait
                cands.append(pick(later) - nu * l.rate)
            if (pick(cands) if cands else INF) != at_nu(l.name, here):
                bad.append(l.name)
        return bad

