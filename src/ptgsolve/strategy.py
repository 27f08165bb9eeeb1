"""Strategies, play simulation, and independent consistency oracles.

A strategy here is positional over finitely many clock intervals: at a
location it either fires a transition immediately or waits to a target
valuation and then fires.  Min additionally gets a switching wrapper that
falls back to a pure reachability strategy once the accumulated discrete
cost drops below a threshold, which is what makes the value guarantee a
real one instead of a limit.

The oracles at the bottom do not trust the solver.  They recompute what
they check from the game alone: local optimality of a value function
(BellmanOracle for SPTG values, RegionBellmanOracle for per-region values
with jumps at region borders: both build per-transition suffix tables
once per document, then take one bisection per transition at each
valuation; bellman_check and region_bellman_check ask them once),
absence of nonnegative zero-delay cycles under Min's choices
(validate_nc), and the best cost Min can force against a fixed Max
strategy (fake_value_upper_bound).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .exactmath import INF, Value, as_fraction, evaluate, format_value
from .model import MAX, MIN, Config, Game

NOW = "now"
WAIT_UNTIL = "wait_until"


class IllegalMove(ValueError):
    """A strategy proposed a move the game does not allow."""


@dataclass(frozen=True)
class Unresolved:
    """Returned when an oracle runs out of budget before deciding."""

    reason: str


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

    def boundaries(self) -> list:
        pts = {Fraction(0)}
        for rs in self.rows.values():
            for lo, hi, _ in rs:
                pts.add(lo)
                pts.add(hi)
        return sorted(pts)


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
# negative-cycle certificate for Min's positional strategy


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
    pts = set(min_fp.boundaries()) | {Fraction(0), as_fraction(g.clock_bound)}
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
    grid.update(max_fp.boundaries())
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
# local optimality of a claimed value function


class BellmanOracle:
    """Local optimality of claimed SPTG values: built once, asked per valuation.

    A move at nu fires now or at a fire point p >= nu: the clock bound, a
    breakpoint of the target's value or a finite guard endpoint.  Between
    fire points the one-step cost is affine in the delay, so these carry
    the optimum.  Firing at p costs h(p) - nu*rate, with
    h(p) = p*rate + weight + target(arrival(p)), and the fire points >= nu
    are a suffix of the sorted fire points in [0, bound] that the guard
    contains.  So each transition keeps those points and the suffix optimum
    of h, and a valuation reads one entry per transition by bisection: the
    same candidates, in the same exact arithmetic, as scanning every fire
    point at every valuation.  Each location's value at nu, read for its
    own check and for firing now into it, is evaluated once per valuation.
    """

    def __init__(self, g: Game, vals: dict):
        bound = as_fraction(g.clock_bound)
        self.value = {
            l.name: l.final_cost if l.is_final else (lambda x, f=vals[l.name]: evaluate(f, x))
            for l in g.locations
        }
        self.rows = []
        for l in g.nonfinal_locations:
            pick = max if l.owner == MAX else min
            moves = []
            for i in g.outgoing(l.name):
                t = g.transitions[i]
                tgt_at = self.value[t.target]
                at_zero = tgt_at(Fraction(0)) if t.reset else None
                tgt_breaks = () if g.location(t.target).is_final else vals[t.target].xs
                ks = [] if l.urgent else sorted(
                    k for k in {bound, *tgt_breaks, t.guard.lo, t.guard.hi}
                    if 0 <= k <= bound and t.guard.contains(k)
                )
                hs = [k * l.rate + t.weight + (at_zero if t.reset else tgt_at(k)) for k in ks]
                suffix = list(accumulate(reversed(hs), pick))[::-1]
                moves.append((t, at_zero, ks, suffix))
            self.rows.append((l, pick, moves))

    def check(self, nu) -> list:
        """Names of locations whose claimed value is not locally optimal at nu."""
        nu = as_fraction(nu)
        now = {}

        def at_nu(name):
            v = now.get(name)
            if v is None:
                v = now[name] = self.value[name](nu)
            return v

        bad = []
        for l, pick, moves in self.rows:
            cands = []
            for t, at_zero, ks, suffix in moves:
                if t.guard.contains(nu):
                    cands.append(t.weight + (at_zero if t.reset else at_nu(t.target)))
                j = bisect_left(ks, nu)
                if j < len(ks):
                    cands.append(suffix[j] - nu * l.rate)
            if (pick(cands) if cands else INF) != at_nu(l.name):
                bad.append(l.name)
        return bad


def bellman_check(g: Game, vals: dict, nu) -> list:
    """Names of locations whose claimed value is not locally optimal at nu.

    Per transition it tries firing now and firing at each fire point >= nu
    (the clock bound, the target's breakpoints, the finite guard
    endpoints), the best of which BellmanOracle reads from a suffix table.
    To check many valuations, build the oracle once and call its check.
    """
    return BellmanOracle(g, vals).check(nu)


class RegionBellmanOracle:
    """Local optimality of per-region values: built once, asked per valuation.

    region_vals[name][i] covers the closure of regions[i]; entries may be a
    CostFunction or a bare float infinity.  Regions alternate between
    border points and the open intervals between them, so border b_i is
    region 2i and the open regions on its left and right are 2i-1 and 2i+1;
    a bisection of the borders finds the region of any valuation.

    The one-step cost of a move is piecewise affine in the firing time,
    broken only at region borders and target breakpoints, so per transition
    the optimum over the window [max(nu, lo), min(bound, hi)] of its guard
    sits at a critical point: the window ends, the borders and the target's
    breakpoints.  It is attained there or approached one-sidedly, since a
    window end may be excluded and the target may jump at a border.  A
    critical point p > nu contributes c(p) - nu*rate, where c(p) is the best
    of p*rate + weight plus the target's value at p (if the guard contains
    p), its left limit (if p > lo) and its right limit (if p < the window's
    upper end).  None of that depends on nu, so each transition keeps the
    suffix optimum of c over its sorted critical points.  At p = nu the
    window starts at nu itself: the value and the right limit are read per
    valuation, and the left limit is no candidate.  These are the
    candidates of trying every critical point at every valuation, in the
    same exact arithmetic.  An urgent location only fires now.
    """

    def __init__(self, g: Game, regions, region_vals: dict):
        self.borders = [reg.lo for reg in regions if reg.is_point]
        self.vals = region_vals
        bound = as_fraction(g.clock_bound)
        self.rows = []
        for l in g.nonfinal_locations:
            pick = max if l.owner == MAX else min
            moves = []
            for i in g.outgoing(l.name):
                t = g.transitions[i]
                lo = as_fraction(t.guard.lo)
                hi = bound if isinstance(t.guard.hi, float) else min(bound, as_fraction(t.guard.hi))
                if lo > hi:
                    continue
                at_zero = self._value_at(t.target, Fraction(0)) if t.reset else None
                ks, hs = [], []
                for p in [] if l.urgent else self._critical(t.target, lo, hi):
                    sides = [s for s, ok in ((0, t.guard.contains(p)), (-1, p > lo), (+1, p < hi)) if ok]
                    if sides:
                        ks.append(p)
                        tvs = [at_zero if t.reset else self._value_at(t.target, p, s) for s in sides]
                        hs.append(p * l.rate + t.weight + pick(tvs))
                suffix = list(accumulate(reversed(hs), pick))[::-1]
                moves.append((t, lo, hi, at_zero, ks, suffix))
            self.rows.append((l, pick, moves))

    def _critical(self, target: str, lo, hi) -> list:
        crit = {lo, hi}
        crit.update(b for b in self.borders if lo <= b <= hi)
        for f in self.vals[target]:
            if not isinstance(f, float):
                crit.update(x for x in f.xs if lo <= x <= hi)
        return sorted(crit)

    def _region(self, x, side: int = 0) -> int:
        """Index of the region holding x (side 0) or touching it from below
        (side -1) or above (side +1); off a border the side does not matter."""
        i = bisect_left(self.borders, x)
        if i < len(self.borders) and self.borders[i] == x:
            return 2 * i + side
        return 2 * i - 1

    def _value_at(self, name: str, x, side: int = 0):
        return self._value(name, self._region(x, side), x)

    def _value(self, name: str, index: int, x):
        f = self.vals[name][index]
        return f if isinstance(f, float) else evaluate(f, x)

    def check(self, nu) -> list:
        """Names of locations whose claimed value is not locally optimal at nu."""
        nu = as_fraction(nu)
        here, after = self._region(nu), self._region(nu, +1)
        seen = {}

        def at_nu(name, index):
            v = seen.get((name, index))
            if v is None:
                v = seen[name, index] = self._value(name, index, nu)
            return v

        bad = []
        for l, pick, moves in self.rows:
            cands = []
            for t, lo, hi, at_zero, ks, suffix in moves:
                j = bisect_right(ks, nu)
                if j < len(ks):
                    cands.append(suffix[j] - nu * l.rate)
                if not lo <= nu <= hi:
                    continue
                if t.guard.contains(nu):
                    cands.append(t.weight + (at_zero if t.reset else at_nu(t.target, here)))
                if nu < hi and not l.urgent:
                    cands.append(t.weight + (at_zero if t.reset else at_nu(t.target, after)))
            if (pick(cands) if cands else INF) != at_nu(l.name, here):
                bad.append(l.name)
        return bad


def region_bellman_check(g: Game, regions: list, region_vals: dict, nu) -> list:
    """Names of locations whose per-region values are not locally optimal at nu.

    Per transition it tries the value and the one-sided limits of the
    target at every critical point of the guard window from nu on, the best
    of which RegionBellmanOracle reads from a suffix table.  To check many
    valuations, build the oracle once and call its check.
    """
    return RegionBellmanOracle(g, regions, region_vals).check(nu)


# ---------------------------------------------------------------------------
# JSON shapes shared by the CLI and the tests


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
    out = {}
    for name in sorted(fp.rows):
        out[name] = {
            "rows": [
                {
                    "interval": [format_value(lo), format_value(hi)],
                    "move": move_to_json(g, mv),
                }
                for lo, hi, mv in fp.rows[name]
            ],
            "at_end": move_to_json(g, fp.at_end[name]),
        }
    return out


def switching_to_json(g: Game, s: SwitchingStrategy) -> dict:
    return {
        "sigma1": fp_to_json(g, s.sigma1),
        "sigma2": {
            name: move_to_json(g, Move.now(i)) for name, i in sorted(s.sigma2.items())
        },
        "threshold": format_value(s.threshold),
    }
