"""Solving a game at one valuation, where no time passes.

At a fixed valuation nu time cannot pass, so the game is a finite min/max
reachability game over the locations, whatever their `urgent` flags say.
Value iteration from +inf converges to the greatest fixpoint, which is the
value; entries that sink below the finite range are snapped to -inf.
Between two consecutive possible cutpoints (`possible_cutpoints`: the
crossings of the integer shifts of the final costs) no two lines of that
family cross, so each value is affine there; the sweep reads its candidate
breakpoints from them.  `attractor_strategy` gives the reachability
choices Min falls back on.

Both the iteration and the cutpoint grid work on integers: the final costs
of a game are put once on one integer scale L (the least common denominator
of every slope, intercept and the -inf cutoff), so a final's cost at p/q is
(S*p + C*q) / (L*q) with integers S and C.  A run returns its values on
that common denominator L*q; callers compare them as integers and make
Fractions (`unscale`) only for values they keep.

An evaluator's locations, rows and moves are fixed when it is built, but
its final lines, scale, cutoff and round bound can be put in again
(`InstantEvaluator._place`).  The sweep's window evaluator does that to
re-anchor its wait clones per window and per strategy cell, and
`possible_cutpoints` reads the grid straight off an evaluator's lines.
Rows need not come from a `Game`: `InstantEvaluator.compiled` takes rows
and integer final lines made elsewhere, which is how the region
pipeline's point components are solved without a game built for them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactmath import INF, NEG_INF, as_fraction
from .model import MAX, MIN, Game, InternalError

WAIT_SUFFIX = "@wait"


def iteration_bound(g: Game) -> int:
    """Hard cap on value-iteration rounds until the fixpoint."""
    return _round_bound(
        len(g.locations), len(g.final_locations), g.max_transition_weight(), g.max_final_cost()
    )


def _round_bound(n: int, nf: int, pt: int, pf: Fraction) -> int:
    """The round cap of a game with n locations, nf of them final, largest
    |weight| pt and largest |final cost| pf at 0 and at the clock bound."""
    return nf * n * ((2 * n - 1) * pt + math.ceil(2 * pf) + 1) + n


def _integer_lines(costs) -> tuple:
    """(L, [(S, C), ...]): Affine costs on their least common integer scale L."""
    scale = math.lcm(
        *(q for phi in costs for q in (phi.slope.denominator, phi.intercept.denominator))
    )
    return scale, [(int(phi.slope * scale), int(phi.intercept * scale)) for phi in costs]


def _with_cutoff(scale: int, lines: list, bound: Fraction) -> tuple:
    """(L, lines, pf): integer lines grown until pf is on their scale too.

    pf is the largest |final cost| at 0 and at the clock bound; the grown
    L is the least multiple of scale that is also a multiple of its
    denominator, so the -inf cutoff -(n-1)*pt - pf is an integer on it.
    """
    bn, bd = bound.numerator, bound.denominator
    worst = max((abs(v) for s, c in lines for v in (c * bd, s * bn + c * bd)), default=0)
    pf = Fraction(worst, scale * bd)
    grow = pf.denominator // math.gcd(scale, pf.denominator)
    return scale * grow, [(s * grow, c * grow) for s, c in lines], pf


def _final_scale(g: Game) -> tuple:
    """The final costs of g on one integer scale: (L, lines, pf).

    lines holds (S, C) per final location in file order, so that its cost at
    p/q is (S*p + C*q) / (L*q).  L is the least common denominator of every
    slope, intercept and pf (see `_with_cutoff`).
    """
    scale, lines = _integer_lines([l.final_cost for l in g.final_locations])
    return _with_cutoff(scale, lines, g.clock_bound)


def unscale(x: list, denom: int) -> list:
    """The values of a run as Fractions; infinities stay float sentinels."""
    return [v if isinstance(v, float) else Fraction(v, denom) for v in x]


class InstantEvaluator:
    """Precompiled value iteration for one game at single valuations.

    Every non-final location's moves are compiled, whatever its `urgent`
    flag: at one valuation no time passes, so a location that may wait has
    nothing more to do there than an urgent one.  Waiting until the end of
    a window is a move of its own only in the sweep's window evaluator,
    which enters it through a final clone.

    The hot loop runs on integers.  The constructor puts the final costs
    and the -inf cutoff on one integer scale L and derives the round bound,
    once; a run at nu = p/q then works on the scale L*q, where every final's
    cost is the integer S*p + C*q and every step stays exact.  Infinities
    are float sentinels, which compare and add correctly against Python ints.

    The locations, rows and moves are fixed at construction; `_place` can
    later put new final lines and a new clock bound in, which is how a
    window evaluator is re-anchored without rebuilding the game.

    With clones, every non-final location that may wait is followed by a
    final clone name@wait, entered by a zero-weight move appended to the
    location's row.  The clones' lines depend on the window, so no line is
    placed then: the window evaluator places them all (`reanchor`).
    """

    def __init__(self, g: Game, clones: bool = False):
        waits = {l.name for l in g.nonfinal_locations if clones and not l.urgent}
        names = []
        for l in g.locations:
            names.append(l.name)
            if l.name in waits:
                names.append(l.name + WAIT_SUFFIX)
        self.index = index = {n: i for i, n in enumerate(names)}
        rows = []
        for l in g.locations:
            if l.is_final:
                continue
            moves = [
                (g.transitions[i].weight, index[g.transitions[i].target])
                for i in g.outgoing(l.name)
            ]
            if l.name in waits:
                moves.append((0, index[l.name + WAIT_SUFFIX]))
            rows.append((index[l.name], l.owner == MAX, moves))
        finals = [index[l.name] for l in g.final_locations]
        self._load(names, rows, finals, g.max_transition_weight())
        if not clones:
            self._place(*_final_scale(g))

    @classmethod
    def compiled(cls, names: list, rows: list, final_index: list, max_weight: int, placed: tuple):
        """An evaluator of rows compiled elsewhere.

        rows holds (location index, is_max, [(weight, target index), ...])
        per non-final location, indices into names; a row without moves is
        stuck.  final_index lists the final locations' indices, in the
        order of the lines in placed, which is (L, lines, pf) as
        `_with_cutoff` gives it.  The largest |weight| of any move is
        max_weight.
        """
        ev = cls.__new__(cls)
        ev._load(names, rows, final_index, max_weight)
        ev._place(*placed)
        return ev

    def _load(self, names: list, rows: list, final_index: list, max_weight: int) -> None:
        """Takes the compiled locations and rows in; every build ends here."""
        self.names = names
        self.rows = rows  # (loc_idx, is_max, [(weight, tgt_idx), ...])
        self.final_index = final_index
        self.max_weight = max_weight

    def _place(self, scale: int, lines: list, pf: Fraction) -> None:
        """Puts the final lines (S, C) on the scale L in, with their pf.

        The cutoff and the round bound follow from pf; lines are in the
        order of the game's final locations.
        """
        n = len(self.names)
        self.scale = scale
        self.finals = [(i, s, c) for i, (s, c) in zip(self.final_index, lines)]
        cutoff = -(n - 1) * self.max_weight - pf
        self.cutoff = int(cutoff * scale)  # on the scale L
        self.bound = _round_bound(n, len(lines), self.max_weight, pf)

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

