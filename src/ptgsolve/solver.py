"""Exact solver for simple priced timed games over the unit clock interval.

The value functions are computed by a right-to-left sweep.  Anchored at the
right end r of the remaining interval, every location gets a final clone
that prices "wait here until r, then bank the known value"; the resulting
game is urgent everywhere and can be solved at single valuations.  Its
values bend only at crossings of the final and clone lines shifted by
integers (the candidate cutpoints), but the sweep lists none of them: at
each accepted point it runs value iteration once, closer to it than any
other candidate, which gives every row's line on the piece below, and the
nearest point where a move's line meets its row's is the next accepted
point (`sweep` proves it).  A chord-slope test per location decides how
far the anchored picture stays truthful; where it breaks, the sweep
restarts from the last confirmed point.  Each confirmed segment is exact,
so the assembled functions are the values of the game.

`sweep` prunes the infinite locations and runs the windows, for the
values, the trace and the record of its walk; `solve` adds `_synthesize`,
which reads both players' strategies off that record and checks it
against each cell's anchored solve, and Min's switching strategy.  Both
work on the compiled rows of `urgent.Rows`: `solve` compiles its game
with `compile_game`, the region pipeline's windows theirs straight from
the region graph, and no `Game` is built after parsing.  Both pipelines
return one `Solution`.

Every window, and every cell of the synthesis, plays the same game at
single valuations; only the clones' final lines (-rate, r*rate + v)
differ.  So one `WindowEvaluator` is built per sweep and re-anchored in
place from recorded integers: the core finals' integer lines are fixed
once, and a re-anchor recomputes, on integers, the clone lines, the
common scale, the -inf cutoff and the round bound.

The sweep stays on the integer scale of value iteration: every chord is
an integer over one positive common denominator, and the slope test and
the test for an unchanged chord are integer cross-multiplications.  Its
record holds every accepted point once, with every row's value as an
integer on that point's denominator.  A location's breakpoints index
into it, gaining a point only where its chord changes, across a window
restart too, so each value function is canonical as built: its
breakpoints and one Fraction per value, with no line.  The synthesis
anchors its cells and checks their midpoints from the same record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactmath import CostFunction, as_fraction, format_value
from .model import Game, InternalError, check_sptg
from .strategy import FPStrategy, Move, SwitchingStrategy
from .urgent import (
    WAIT_SUFFIX,
    InstantEvaluator,
    Rows,
    _with_cutoff,
    attractor,
    compile_game,
    iteration_bound,
)


class NonSPTG(ValueError):
    """The game has guards or resets the sweep cannot handle directly."""


class BudgetExceeded(RuntimeError):
    """The sweep used more value-iteration runs than allowed."""


@dataclass
class PruneResult:
    rows: Rows  # the finite part
    infinite: dict
    values: dict  # the run's integers by name, on denom, or float infinities
    denom: int


@dataclass
class WindowTrace:
    start: Fraction
    slope_breaks: list = field(default_factory=list)
    rejection: Optional[tuple] = None


@dataclass
class SweepTrace:
    boundaries: list = field(default_factory=list)
    windows: list = field(default_factory=list)


@dataclass
class Sweep:
    """What `sweep` finds.  `infinite` and `finite` cover every non-final
    location, by sign or by value function.  `solve` goes on from the window
    `evaluator`, which is None when no non-final location is left after
    pruning, and from the `record` of accepted points, newest last: (x, the
    core rows' values as integers in row order, their denominator), with x
    on the sweep's own [0, 1].  breaks[j] holds the indices into it of row
    j's breakpoints."""

    pruned: PruneResult
    finite: dict
    trace: SweepTrace
    evaluator: Optional[WindowEvaluator] = None
    record: list = field(default_factory=list)  # see `sweep`
    breaks: list = field(default_factory=list)

    @property
    def infinite(self) -> dict:
        return self.pruned.infinite


@dataclass
class Solution:
    """What `solve` and `regions.solve_reset_acyclic` return: every
    location's value, one CostFunction from `solve`, stitched segments from
    the region pipeline.  `solve` adds its trace, and the strategies where
    pruning leaves a non-final location."""

    values: dict
    max_strategy: Optional[FPStrategy] = None
    min_strategy: Optional[SwitchingStrategy] = None
    trace: Optional[SweepTrace] = None


class WindowEvaluator(InstantEvaluator):
    """Value iteration for the core on a window [0, r], re-anchored in place.

    Waiting until r is priced by a final clone name@wait of each row that
    may wait, placed right after it and entered by a zero-weight move
    appended to the row; the clone's cost line (-rate, r*rate + v) pays the
    rate to r and then the anchor value v.  The rows keep the core's order
    and are compiled once: they depend on neither r nor the anchor, and
    neither do the core finals' integer lines; only each clone's line
    moves.  `reanchor` therefore computes just the clone lines, puts every
    line on the new least common scale and re-derives pf, the -inf cutoff
    and the round bound, so the evaluator then behaves exactly like one
    compiled afresh for the window at (r, anchor).  An anchor is vals/den:
    one integer per core row, in the core's row order, on one positive
    denominator, as the sweep records them.  Built, it stands at (1,
    anchor); core finals' lines come first, then the clones', which
    changes no run.  placed, if given, is `core.placed()`.
    """

    def __init__(self, core: Rows, vals: list, den: int, placed: tuple | None = None):
        # (core row, rate) of every row that may wait, in clone order
        self.waits = [(j, as_fraction(r)) for j, (r, urgent) in enumerate(core.timing) if not urgent]
        waiting = {core.rows[j][0] for j, _ in self.waits}
        names, at = [], []  # at[i]: the index of core location i here
        for i, n in enumerate(core.names):
            at.append(len(names))
            names.append(n)
            if i in waiting:
                names.append(n + WAIT_SUFFIX)
        rows = [
            (at[i], is_max, [(w, at[t]) for w, t in moves] + ([(0, at[i] + 1)] if i in waiting else []))
            for i, is_max, moves in core.rows
        ]
        # only the clones' indices are read here: `_anchored` gives their lines
        clones = [(at[core.rows[j][0]] + 1, None) for j, _ in self.waits]
        # on [0, 1] the cutoff grows no scale, so placed holds the core
        # finals' least integer lines
        scale, lines, _ = core.placed() if placed is None else placed
        self._base = math.lcm(scale, *(r.denominator for _, r in self.waits))
        k = self._base // scale
        self._core_lines = [(s * k, c * k) for s, c in lines]
        finals = [(at[i], phi) for i, phi in core.finals] + clones
        super().__init__(Rows(names, rows, core.timing, finals, core.bound), self._anchored(Fraction(1), vals, den))

    def _anchored(self, r: Fraction, vals: list, den: int) -> tuple:
        """The lines placed for the window [0, r], as `Rows.placed` gives
        them; each clone's top r*rate + vals[j]/den is a reduced integer pair."""
        rn, rd = r.numerator, r.denominator
        clones = []  # (rate p/q, top/bottom) per clone
        for j, rate in self.waits:
            p, q = rate.numerator, rate.denominator
            top, bottom = rn * p * den + vals[j] * rd * q, rd * q * den
            k = math.gcd(top, bottom)
            clones.append((p, q, top // k, bottom // k))
        scale = math.lcm(self._base, *(bottom for _, _, _, bottom in clones))
        k = scale // self._base
        lines = [(s * k, c * k) for s, c in self._core_lines]
        lines += [(-p * (scale // q), top * (scale // bottom)) for p, q, top, bottom in clones]
        return _with_cutoff(scale, lines, r)

    def reanchor(self, r, vals: list, den: int) -> None:
        """Moves the window to [0, r], each clone banking its row's vals/den at r."""
        self._place(*self._anchored(as_fraction(r), vals, den))


def prune_infinite(c: Rows, placed: tuple | None = None) -> PruneResult:
    """Splits off the locations whose value is +inf or -inf everywhere.

    Whether a location has infinite value does not depend on the clock, so
    one urgent solve at the right end decides it.  That solve also strands
    nothing: a non-final location whose moves all lead to infinite locations,
    or that has no moves, is itself infinite there.  The returned rows keep
    only the finite part, in the same order, with every move into an
    infinite location dropped.  The same solve gives the finite locations'
    values at the right end, where `sweep` starts.  placed, if given, is
    `c.placed()`.
    """
    ev = InstantEvaluator(c, placed)
    x, _, _, denom = ev.run(c.bound)
    infinite = {n: v for n, v in zip(c.names, x) if isinstance(v, float)}
    keep = {}  # old index -> new index of each finite location
    for i, v in enumerate(x):
        if not isinstance(v, float):
            keep[i] = len(keep)
    rows, timing = [], []
    for (i, is_max, moves), t in zip(c.rows, c.timing):
        if i in keep:
            rows.append((keep[i], is_max, [(w, keep[j]) for w, j in moves if j in keep]))
            timing.append(t)
    finals = [(keep[i], phi) for i, phi in c.finals]
    core = Rows([c.names[i] for i in keep], rows, timing, finals, c.bound)
    return PruneResult(core, infinite, dict(zip(c.names, x)), denom)


def default_max_steps(core: Rows, placed: tuple | None = None) -> int:
    # the round bound reads locations, weights and final costs only, so it
    # is the same whatever the locations' urgent flags
    return 4 * len(core.names) * iteration_bound(core, placed)


def sweep(rows: Rows, max_steps: Optional[int] = None, onto: Optional[tuple] = None) -> Sweep:
    """Values of a simple game on [0, 1], without strategies.

    rows is the game compiled on [0, 1]: by `compile_game` for a simple
    game, or straight from the region graph for a window.  A game left
    with no non-final location after pruning gives an empty `finite` map
    and trace; `max_steps` caps the value-iteration runs of the walk,
    pruning's not counted.  The finite functions are built on onto =
    (c, d), the clock x standing at c + x*(d-c) there; the region
    pipeline's windows use that to build each value once, on its own
    window, and a failure of pruning then names the window and the clock.
    Whether the game is simple is the caller's check: `solve` raises
    NonSPTG before it compiles.

    In a window [0, r] every finite value lies on a final or clone line
    (s, c) on ev's scale L raised by the weights of a simple path, at most
    (n-1)*pt (n the evaluator's locations), and a move's line by pt more;
    so the values are affine between neighbouring candidates: 0, r and
    the crossings (c_j - c_i + d*L)/(s_i - s_j), |d| <= (2n-1)*pt.  The
    sweep lists none.
    From an accepted point b = p/q, a candidate, it runs value iteration
    once at a = b - 1/(q*M), M the larger of the final slopes' spread S
    and r's denominator.  Every candidate but r has a denominator at most
    S, and two distinct rationals p/q and p'/q' differ by at least
    1/(q*q'), so no candidate lies in (a, b): the chord of the run at a is
    each row's line on the whole piece below b, and a final's line (wait
    clones included) is its cost line.

    Value iteration runs again only where a witness line may change.  For
    a row and one of its moves (w, t), the move's line w + line_t either
    is the row's line, and the move is tight all along, or meets it at
    most once.  Let z be the nearest point left of a where such a line
    that is not its row's meets it: z = a if one meets it at a, and z = 0
    if none does above 0.  The lines are the values on [z, b]:

    - On (z, a] every other move keeps the strict side it had at a, so
      each row's value there is attained by the moves whose lines are its
      own (at a, a tight move on another line would make z = a).  The
      lines are a fixpoint on (z, b).
    - A finite fixpoint is the value, the greatest fixpoint, exactly when
      its tight moves let Min force the finals: Min needs one tight move
      into the attractor, Max all of his (the certificate of the paper's
      switching strategies).  On (z, b) the tight moves are the ones on
      identical lines, at every point alike (on (a, b) no lines cross), so
      the attractor that certifies the values on (a, b) certifies the
      lines on (z, b).
    - Finite values are continuous, which covers z itself.

    Both lines meeting at z are shifted final lines with offsets in the
    window, so z is a candidate (or 0): the next accepted point, its values
    read off the lines.  The walk meets the chords, slope breaks and slope
    tests of the walk over every candidate.  Where the slope test fails,
    the trace names the largest candidate below b (`_below`) and the window
    closes at b.  Every accepted point goes into the record once, with its
    integers; the value functions and `solve`'s synthesis read it.  A row
    gains a breakpoint only where its chord differs from the accepted one
    above, after a window restart too, so no breakpoint of a function lies
    on the line through its neighbours.
    """
    c, d = (as_fraction(v) for v in (onto or (0, 1)))
    length = d - c
    # finals are never pruned: pruning, the budget and the window
    # evaluator all read these lines
    placed = rows.placed()
    try:
        pr = prune_infinite(rows, placed)
    except InternalError as e:
        if onto is None or e.nu is None:
            raise
        window = f"window [{format_value(c)}, {format_value(d)}]"
        raise InternalError(e.phase, e.reason, window, c + e.nu * length) from e
    core = pr.rows
    if not core.rows:
        return Sweep(pr, {}, SweepTrace())
    budget = default_max_steps(core, placed) if max_steps is None else max_steps
    spent = 0

    names = [core.names[i] for i, _, _ in core.rows]
    # the sweep's values at b are f_b[j] / db for names[j], pruning's at 1
    b, db = Fraction(1), pr.denom
    f_b = [pr.values[n] for n in names]
    ev = WindowEvaluator(core, f_b, db, placed)
    at = [i for i, _, _ in ev.rows]
    # The chord of a location that may wait may not fall below -rate = p/q
    # if Min, nor rise above it if Max.  With chord nums[j]/den, den > 0,
    # and s = 1 for Min, -1 for Max, that fails where nums[j]*s*q < s*p*den;
    # waits holds (j, s*q, s*p) for every such location names[j].
    waits = []
    for j, rate in ev.waits:
        s = -1 if core.rows[j][1] else 1
        waits.append((j, s * rate.denominator, -s * rate.numerator))
    # every accepted point once, newest last: (x, the rows' values as
    # integers in names' order, their denominator); breaks[j] indexes the
    # points where names[j]'s chord changes
    record = [(b, f_b, db)]
    breaks = [[0] for _ in names]

    trace = SweepTrace(boundaries=[Fraction(1)])
    r = Fraction(1)
    win = WindowTrace(start=r)
    prev = None  # (numerators, denominator) of the last accepted chords
    while b > 0:
        spent += 1
        if spent > budget:
            raise BudgetExceeded(f"sweep exceeded {budget} value-iteration runs")
        # a = b - 1/step lies closer to b than any other candidate
        step = b.denominator * _spread(ev, r)
        a = b - Fraction(1, step)
        x, _, _, da = ev.run(a)
        x_a = [x[t] for t in at]
        if any(isinstance(v, float) for v in x_a):
            where = ", ".join(n for n, v in zip(names, x_a) if isinstance(v, float))
            raise InternalError(
                "sweep", "window game produced an infinite value", where, c + a * length
            )
        # chord j is (f_b[j]/db - x_a[j]/da) / (b - a) = nums[j] / den
        nums = [(fb * da - xa * db) * step for fb, xa in zip(f_b, x_a)]
        den = db * da
        bad = [names[j] for j, sq, sp in waits if nums[j] * sq < sp * den]
        if bad:
            below = _below(ev, b)
            if b == r:
                raise InternalError(
                    "sweep",
                    f"first candidate of the window at {format_value(c + r * length)} "
                    "failed the slope test",
                    ", ".join(bad),
                    c + below * length,
                )
            win.rejection = (below, bad)
            trace.windows.append(win)
            trace.boundaries.append(b)
            r = b
            ev.reanchor(r, f_b, db)
            win = WindowTrace(start=r)
            continue
        same = None
        if prev is not None:
            # kept across a window restart: an unchanged chord adds no breakpoint
            pnums, pden = prev
            same = [n * pden == pn * den for n, pn in zip(nums, pnums)]
            moved = [names[j] for j, kept in enumerate(same) if not kept]
            if moved and b != r:
                win.slope_breaks.append((b, moved))
        z = _witness_reach(ev, a, x, da, nums, den)
        f_b, db = _on_lines(f_b, db, nums, den, b - z)
        b = z
        record.append((b, f_b, db))
        for j, ks in enumerate(breaks):
            if same is not None and same[j]:
                ks[-1] = len(record) - 1
            else:
                ks.append(len(record) - 1)
        prev = (nums, den)
    trace.windows.append(win)
    trace.boundaries.append(Fraction(0))

    finite = {}
    for j, (n, ks) in enumerate(zip(names, breaks)):
        points = (record[k] for k in reversed(ks))
        finite[n] = _from_record(n, [(x if onto is None else c + x * length, v[j], dv) for x, v, dv in points])
    return Sweep(pr, finite, trace, ev, record, breaks)


def _spread(ev: WindowEvaluator, r: Fraction) -> int:
    """M of the window [0, r]: ev's final slopes' spread or r's denominator."""
    slopes = [s for _, s, _ in ev.finals]
    return max(max(slopes) - min(slopes), r.denominator)


def _below(ev: WindowEvaluator, b: Fraction) -> Fraction:
    """The largest candidate cutpoint of ev's window below b > 0.

    That is 0, or a crossing x = (dc + d*L)/ds of two final lines, ds > 0
    the difference of their slopes, with |d| within the value window (see
    `sweep`).  x grows with d, so per pair the largest x below b has the
    largest d with (dc + d*L)*bd < bn*ds: one floor division.
    """
    bn, bd = b.numerator, b.denominator
    scale = ev.scale
    step = scale * bd
    width = (2 * len(ev.names) - 1) * ev.max_weight
    lines = [(s, c) for _, s, c in ev.finals]
    best, best_ds = 0, 1  # the candidate best/best_ds, 0 to start
    for si, ci in lines:
        for sj, cj in lines:
            if si > sj:
                ds, dc = si - sj, cj - ci
                k = min((bn * ds - dc * bd - 1) // step, width)
                num = dc + k * scale
                if k >= -width and num * best_ds > best * ds:
                    best, best_ds = num, ds
    return Fraction(best, best_ds)


def _witness_reach(ev: WindowEvaluator, a: Fraction, x: list, da: int, nums: list, den: int) -> Fraction:
    """z <= a, the nearest point left of a where a move's line meets its
    row's line without being it; 0 if none does above 0 (see `sweep`).

    x is the run at a, on da; row j's line is its chord nums[j]/den through
    its value at a, a final's its cost line (s, c) on ev.scale.  A gap
    G/da = w + x[t]/da - x[row]/da closes going left where the slope
    difference ds, on den*scale, has its sign; it closes at
    a - G*den*scale / (da*ds).
    """
    scale = ev.scale
    slope = [0] * len(x)  # every line's slope on den*scale
    for i, s, _ in ev.finals:
        slope[i] = s * den
    for (i, _, _), n in zip(ev.rows, nums):
        slope[i] = n * scale
    near = None  # (|G|, |ds|) of the nearest closing gap
    for i, _, moves in ev.rows:
        xi, si = x[i], slope[i]
        for w, t in moves:
            gap = w * da + x[t] - xi
            ds = slope[t] - si
            if gap == 0:
                if ds:
                    return a  # another line through the row's value at a
            elif ds and (gap > 0) == (ds > 0):
                gap, ds = abs(gap), abs(ds)
                if near is None or gap * near[1] < near[0] * ds:
                    near = (gap, ds)
    if near is None:
        return Fraction(0)
    return max(a - Fraction(near[0] * den * scale, da * near[1]), Fraction(0))


def _on_lines(f: list, df: int, nums: list, den: int, dw: Fraction) -> tuple:
    """(values, denominator): the values f/df at a moved dw > 0 to the left
    along the chords nums/den, on their least common denominator."""
    top = [v * den * dw.denominator - n * dw.numerator * df for v, n in zip(f, nums)]
    bottom = df * den * dw.denominator
    k = math.gcd(bottom, *top)
    return [v // k for v in top], bottom // k


def _from_record(name: str, points: list) -> CostFunction:
    """name's value function through its breakpoints (x, v, d), left to
    right, each worth v/d.  The sweep gives a location a breakpoint only
    where its chord changes, so no breakpoint lies on the line through its
    neighbours and the function is canonical as built."""
    for (x0, _, _), (x1, _, _) in zip(points, points[1:]):
        if x1 <= x0:
            raise InternalError("sweep", "breakpoints must be strictly increasing", name, x1)
    # from lists, as `model.region_table` builds `enabled`: no resized tuples
    xs = tuple([x for x, _, _ in points])
    return CostFunction._trusted(xs, tuple([Fraction(v, d) for _, v, d in points]))


def solve(g: Game, max_steps: Optional[int] = None) -> Solution:
    """Values and optimal strategies of a simple game on [0, 1]: `sweep`
    on its compiled rows, then `_synthesize` and Min's switching strategy,
    both read off the pruned rows.  Where pruning leaves no non-final
    location, the solution has the values and the empty trace only."""
    if not check_sptg(g):
        raise NonSPTG("expected guards [0, 1] everywhere and no resets")
    sw = sweep(compile_game(g), max_steps)
    pr = sw.pruned
    values = _values(g, pr, sw.finite)
    if sw.evaluator is None:
        return Solution(values, trace=sw.trace)
    core = pr.rows
    # each kept row's moves as g's transitions: compile_game keeps their
    # order, and pruning drops exactly the moves into infinite locations
    ts = g.transitions
    moves = [
        [k for k in g.outgoing(core.names[i]) if ts[k].target not in pr.infinite]
        for i, _, _ in core.rows
    ]
    # finals are never pruned, so pf here is g's largest |final cost|
    placed = core.placed()
    # the no-time-left moves need the core's own ranks at 1: pruning's
    # differ where a Max location has an edge into a pruned -inf location
    x, ranks, _, denom = InstantEvaluator(core, placed).run(1)
    # the cell ends: every breakpoint of a finite function, left to right
    ends = [sw.record[k] for k in sorted({k for ks in sw.breaks for k in ks}, reverse=True)]
    max_fp, min_fp = _synthesize(sw.evaluator, core, ends, (x, ranks, denom), moves)
    # urgency plays no part in the attractor, so the core gives the same one
    sigma2 = {
        core.names[i]: ks[m]
        for (i, _, _), ks, m in zip(core.rows, moves, attractor(core))
        if m is not None
    }
    scale, _, pf = placed
    reach = (len(core.names) - 1) * core.max_weight() + Fraction(pf, scale)
    lowest = min(min(values[n].vals) for n in core.names)
    threshold = lowest - reach - max(abs(g.location(n).rate) for n in core.names)
    minstrat = SwitchingStrategy(min_fp, sigma2, as_fraction(threshold))
    return Solution(values, max_fp, minstrat, sw.trace)


def _values(g: Game, pr: PruneResult, finite: dict) -> dict:
    """The value functions of g by name: the pruned locations' infinite
    constants, the final lines, and the sweep's finite functions."""
    return {
        l.name: CostFunction.constant(0, 1, pr.infinite[l.name]) if l.name in pr.infinite
        else CostFunction.from_affine(0, 1, l.final_cost) if l.is_final
        else finite[l.name]
        for l in g.locations
    }


def _synthesize(ev: WindowEvaluator, core: Rows, ends: list, end: tuple, moves: list) -> tuple:
    """Optimal finitely-positional strategies from the value functions.

    The clock interval is cut at every breakpoint of every value function
    into cells closed on the left; inside one cell each location either
    waits (its value slides along its own rate toward the cell's right
    end) or fires a transition that is tight there.  Tightness is read off
    an anchored urgent solve at the cell midpoint and extends to the whole
    closed cell because everything in sight is affine.  Waiting cells are
    merged into one row that waits until the run ends and then plays the
    move prescribed at the run end, which by the left-closed convention is
    the move of the cell starting there (or the no-time-left move at 1);
    every zero-delay step at a valuation therefore uses one cell's tight
    edges, and those never cycle.

    Everything is read per row of the pruned core.  ends holds the sweep's
    record at those breakpoints, left to right: (x, the rows' values as
    integers, their denominator).  moves[j] holds the game's transition
    index of each move of core row j, and end the values, ranks and common
    denominator of the core's urgent solve at 1, which give the
    no-time-left moves.  ev is the sweep's window evaluator, re-anchored
    here once per cell at the cell's right end; its rows keep the core's
    order and each row that may wait ends with its zero-weight move into
    its wait clone, so the location waits where that move is tight.  Every
    row is affine on a cell, so its value at the midpoint is the mean of
    its recorded values at the ends; the check compares that to the run
    by integer cross-multiplication.
    """
    cells = [(lo[0], hi[0]) for lo, hi in zip(ends, ends[1:])]
    WAIT = None

    end_moves = [_tight_move_at(core.names, row, *end, 1) for row in core.rows]

    per_cell = []
    for (lo, v_lo, d_lo), (hi, v_hi, d_hi) in zip(ends, ends[1:]):
        ev.reanchor(hi, v_hi, d_hi)
        mid = (lo + hi) / 2
        x, ranks, _, denom = ev.run(mid)
        for (i, _, _), a, b in zip(ev.rows, v_lo, v_hi):
            # x[i]/denom == (a/d_lo + b/d_hi) / 2; an infinite x[i] disagrees
            if isinstance(x[i], float) or 2 * x[i] * d_lo * d_hi != (a * d_hi + b * d_lo) * denom:
                raise InternalError(
                    "synthesis",
                    f"anchored value of the cell [{format_value(lo)}, {format_value(hi)}) "
                    "disagrees with the computed value function",
                    ev.names[i],
                    mid,
                )
        cell = []
        for row, (_, urgent) in zip(ev.rows, core.timing):
            i, _, mv = row
            waits = not urgent and x[mv[-1][1]] == x[i]
            cell.append(WAIT if waits else _tight_move_at(ev.names, row, x, ranks, denom, mid))
        per_cell.append(cell)

    max_rows, max_end = {}, {}
    min_rows, min_end = {}, {}
    for j, ((i, is_max, _), ks) in enumerate(zip(core.rows, moves)):
        # right to left, so a waiting cell knows where its run stops and
        # which move follows; equal moves of neighbouring cells merge
        rows = []
        after, stop = end_moves[j], cells[-1][1]
        for (lo, hi), cell in zip(reversed(cells), reversed(per_cell)):
            if cell[j] is WAIT:
                mv = Move.wait_until(stop, ks[after])
            else:
                mv = Move.now(ks[cell[j]])
                after, stop = cell[j], lo
            if rows and rows[-1][2] == mv:
                rows[-1] = (lo, rows[-1][1], mv)
            else:
                rows.append((lo, hi, mv))
        rows_of, end_of = (max_rows, max_end) if is_max else (min_rows, min_end)
        rows_of[core.names[i]] = rows[::-1]
        end_of[core.names[i]] = Move.now(ks[end_moves[j]])
    return FPStrategy(max_rows, max_end), FPStrategy(min_rows, min_end)


def _tight_move_at(names: list, row: tuple, x: list, ranks: list, denom: int, nu) -> int:
    """Position, in its row, of the move to fire at a location right now.

    row is an evaluator's (index, is_max, moves) of the location
    names[index]; x and ranks are that evaluator's run at the valuation
    nu, its values integers on the common denominator denom, or
    infinities.
    """
    i, is_max, moves = row
    tight = [m for m, (w, t) in enumerate(moves) if w * denom + x[t] == x[i]]
    if is_max:
        if not tight:
            raise InternalError("synthesis", "no tight transition at a Max location", names[i], nu)
        return tight[0]
    progressing = [m for m in tight if ranks[moves[m][1]] < ranks[i]]
    if not progressing:
        raise InternalError("synthesis", "no progressing tight transition", names[i], nu)
    return progressing[0]
