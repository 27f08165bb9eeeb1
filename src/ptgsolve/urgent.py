"""Solving a game at one valuation, where no time passes.

At a fixed valuation nu time cannot pass, so the game is a finite min/max
reachability game over the locations, whatever their `urgent` flags say.
Value iteration from +inf converges to the greatest fixpoint, which is the
value; entries that sink below the finite range are snapped to -inf.
Each finite value lies on a final cost shifted by an integer of the value
window; between two consecutive crossings of that family of lines (the
candidate cutpoints) no two of them cross, so each value is affine there.
The sweep (`solver.sweep`) steps from one such crossing to the next and
lists none of them.  `attractor` gives the reachability choices Min falls
back on, on the same rows.

The iteration works on integers: the final costs of a game are put once
on one integer scale L (the least common denominator of every slope,
intercept and the -inf cutoff), so a final's cost at p/q is
(S*p + C*q) / (L*q) with integers S and C.  A run returns its values on
that common denominator L*q; callers compare them as integers and make
Fractions (`unscale`) only for values they keep.

Value iteration reads a game in one compiled form, `Rows`: location
names, one row of moves per non-final location, the finals' cost lines,
and each row's rate and urgent flag, which only the sweep reads.
`compile_game` compiles a `Game`; the region pipeline compiles its
components straight from the region graph, with no game built.  An
evaluator's rows are fixed when it is built, but its final lines, scale,
cutoff and round bound can be put in again (`InstantEvaluator._place`):
the sweep's window evaluator re-anchors its wait clones that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import INF, NEG_INF, _scaled, as_fraction
from .model import MAX, Game, InternalError

WAIT_SUFFIX = "@wait"


def _round_bound(n: int, nf: int, pt: int, pf: int, scale: int) -> int:
    """The round cap of a game with n locations, nf of them final, largest
    |weight| pt and largest |final cost| pf/scale at 0 and at the clock
    bound."""
    return nf * n * ((2 * n - 1) * pt - (-2 * pf // scale) + 1) + n


def _integer_lines(costs) -> tuple:
    """(L, [(S, C), ...]): Affine costs on their least common integer scale L."""
    scale = math.lcm(
        *(q for phi in costs for q in (phi.slope.denominator, phi.intercept.denominator))
    )
    return scale, [(_scaled(phi.slope, scale), _scaled(phi.intercept, scale)) for phi in costs]


def _with_cutoff(scale: int, lines: list, bound: Fraction) -> tuple:
    """(L, lines, pf): integer lines grown until pf is on their scale too.

    pf/L is the largest |final cost| at 0 and at the clock bound; the grown
    L is the least multiple of scale that is also a multiple of its
    denominator, so pf and the -inf cutoff -(n-1)*pt - pf/L are integers
    on it.
    """
    bn, bd = bound.numerator, bound.denominator
    worst = max((abs(v) for s, c in lines for v in (c * bd, s * bn + c * bd)), default=0)
    k = math.gcd(worst, scale * bd)  # pf is worst/(scale*bd) = top/bottom
    top, bottom = worst // k, scale * bd // k
    grow = bottom // math.gcd(scale, bottom)
    return scale * grow, [(s * grow, c * grow) for s, c in lines], top * (scale * grow // bottom)


def unscale(x: list, denom: int) -> list:
    """The values of a run as Fractions; infinities stay float sentinels."""
    return [v if isinstance(v, float) else Fraction(v, denom) for v in x]


@dataclass
class Rows:
    """A game compiled for value iteration.

    names[i] is location i's name.  rows holds (i, is_max, [(weight,
    target index), ...]) per non-final location, in index order; a row
    without moves is stuck.  timing holds each row's (rate, urgent), in
    the same order.  finals holds (i, cost line) per final location, in
    index order, and the lines are read up to the clock bound.
    """

    names: list
    rows: list
    timing: list
    finals: list
    bound: Fraction

    def max_weight(self) -> int:
        return max((abs(w) for _, _, moves in self.rows for w, _ in moves), default=0)

    def placed(self) -> tuple:
        """The final lines on their integer scale: (L, lines, pf), see `_with_cutoff`."""
        return _with_cutoff(*_integer_lines([phi for _, phi in self.finals]), self.bound)


def iteration_bound(c: Rows, placed: tuple | None = None) -> int:
    """Hard cap on value-iteration rounds until the fixpoint; placed, if
    given, is `c.placed()` computed already."""
    scale, _, pf = c.placed() if placed is None else placed
    return _round_bound(len(c.names), len(c.finals), c.max_weight(), pf, scale)


def compile_game(g: Game) -> Rows:
    """The rows of g: its locations in file order, each row's moves in the
    order of its transitions, whatever the locations' urgent flags."""
    index = {l.name: i for i, l in enumerate(g.locations)}
    ts = g.transitions
    rows, timing, finals = [], [], []
    for i, l in enumerate(g.locations):
        if l.is_final:
            finals.append((i, l.final_cost))
            continue
        moves = [(ts[k].weight, index[ts[k].target]) for k in g.outgoing(l.name)]
        rows.append((i, l.owner == MAX, moves))
        timing.append((l.rate, l.urgent))
    return Rows(list(index), rows, timing, finals, g.clock_bound)


class InstantEvaluator:
    """Precompiled value iteration for one game's rows at single valuations.

    Every row is compiled, whatever its urgent flag: at one valuation no
    time passes, so a location that may wait has nothing more to do there
    than an urgent one.  Waiting until the end of a window is a move of its
    own only in the sweep's window evaluator, which enters it through a
    final clone.

    The hot loop runs on integers.  The constructor puts the final costs
    and the -inf cutoff on one integer scale L and derives the round bound,
    once; a run at nu = p/q then works on the scale L*q, where every final's
    cost is the integer S*p + C*q and every step stays exact.  Infinities
    are float sentinels, which compare and add correctly against Python ints.

    The locations, rows and moves are fixed at construction; `_place` can
    later put new final lines and a new clock bound in, which is how a
    window evaluator is re-anchored without compiling its rows again.
    A caller that has the final lines placed already (`Rows.placed`) hands
    them in as placed.
    """

    def __init__(self, c: Rows, placed: tuple | None = None):
        self.names = c.names
        self.rows = c.rows  # (loc_idx, is_max, [(weight, tgt_idx), ...])
        self.final_index = [i for i, _ in c.finals]
        self.max_weight = c.max_weight()
        self._place(*(c.placed() if placed is None else placed))

    def _place(self, scale: int, lines: list, pf: int) -> None:
        """Puts the final lines (S, C) on the scale L in, with their pf on L.

        The cutoff and the round bound follow from pf; lines are in the
        order of final_index.
        """
        n = len(self.names)
        self.scale = scale
        self.finals = [(i, s, c) for i, (s, c) in zip(self.final_index, lines)]
        self.cutoff = -(n - 1) * self.max_weight * scale - pf  # on the scale L
        self.bound = _round_bound(n, len(lines), self.max_weight, pf, scale)

    def run(self, nu, history: list | None = None) -> tuple:
        """Returns (values list, ranks list, rounds, denom).

        The values are integers on the common denominator denom = L*q of
        nu = p/q (value v stands for v/denom), or the float infinities;
        `unscale` turns them into Fractions.  ranks[i] is the round at
        which location i last changed (finals 0); entries still +inf at the
        fixpoint keep rank 0.  When a list is passed as history it receives
        the value vector, as Fractions, after every round.
        """
        nu = as_fraction(nu)
        p, q = nu.numerator, nu.denominator
        denom = self.scale * q
        cutoff = self.cutoff * q
        x = [INF] * len(self.names)
        for i, s, c in self.finals:
            x[i] = s * p + c * q
        ranks = [0] * len(self.names)
        rounds = 0
        scaled_weights = [
            (idx, is_max, [(w * denom, t) for (w, t) in moves])
            for (idx, is_max, moves) in self.rows
        ]
        while True:
            rounds += 1
            if rounds > self.bound:
                raise InternalError(
                    "value iteration", f"exceeded its round bound {self.bound}", nu=nu
                )
            changed = False
            prev = list(x)
            for idx, is_max, moves in scaled_weights:
                if not moves:
                    best = INF  # stuck: the play never reaches a final
                else:
                    it = (w + prev[t] for (w, t) in moves)
                    best = max(it) if is_max else min(it)
                if not isinstance(best, float) and best < cutoff:
                    best = NEG_INF
                if best != prev[idx]:
                    x[idx] = best
                    ranks[idx] = rounds
                    changed = True
            if history is not None:
                history.append(unscale(x, denom))
            if not changed:
                break
        return x, ranks, rounds, denom


def attractor(c: Rows) -> list:
    """Minimal-step reachability choices toward the final locations.

    Level 0 holds the finals; in round k = 1, 2, ... a Min row enters the
    attractor at level k once some move leads into it, a Max row once all
    of its moves do, and a row sees the rows entered before it in the same
    round.  Per row, the returned list holds the position of its chosen
    move (the lowest position among those into the lowest level), or None
    for a row outside the attractor.
    """
    level = [None] * len(c.names)
    for i, _ in c.finals:
        level[i] = 0
    current, grew = 0, True
    while grew:
        current += 1
        grew = False
        for i, is_max, moves in c.rows:
            if level[i] is None:
                inside = [level[t] is not None for _, t in moves]
                if (moves and all(inside)) if is_max else any(inside):
                    level[i] = current
                    grew = True
    return [
        min((level[t], m) for m, (_, t) in enumerate(moves) if level[t] is not None)[1]
        if level[i] is not None else None
        for i, _, moves in c.rows
    ]
