"""Guarded one-clock games, reduced region by region to closed-guard games.

The solver in `solver` wants every guard to be the full clock range and no
resets.  A game with arbitrary interval guards and reset edges reduces to a
family of such games: cut the clock axis at every guard endpoint, copy each
location once per cut point and once per open interval between cuts, and
rewire the edges so plays of the original game correspond to plays through
the copies.  Strict guards disappear in the process (firing at a border of
a copy stands for firing arbitrarily close to it in the original game).

The copies form a directed graph, built from `model.region_table`, which
`parse_game` fills once per game on integers.  As long as no cycle of the
graph fires a reset, its strongly connected components can be solved one
at a time, dependencies first.  A final copy has no move, so it is in no
component: it enters as its cost line.  Point copies are single-valuation
games with no time passage; interval copies become unit-interval
closed-guard games after an affine change of clock variable; and values
already computed downstream enter as terminal stubs.  An interval copy is
left only by an edge fired inside it or by the hop into its upper border's
point copy, whose value, entered by the hop, anchors it at that border.

Most components are one copy with no edge into itself, which `_acyclic`
solves in one step: with no cycle there is no fixpoint to find.  The
others are compiled by one function, `_compile`, straight from the region
graph into value-iteration rows (`urgent.Rows`), with one stub rule; no
`Game` is built.  A point component is one `InstantEvaluator` run of its
rows.  Each window of an interval runs `solver.sweep` on its rows, for its
values only, and leaves the infinities to the sweep's pruning: an
infinite stub is a row the pruning drops.  The result is a
`solver.Solution` of stitched segments, as the solution document holds.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple, Optional

from .exactmath import INF, Affine, CostFunction, _canonical, concat, evaluate
from .model import MAX, Game, InternalError, region_table
from .solver import Solution, sweep
from .urgent import InstantEvaluator, Rows


class ResetCycle(Exception):
    """Some cycle of the location/region graph fires a clock reset.

    Such games may need unboundedly many resets in optimal play, which this
    pipeline does not handle.  `witness` lists the locations of one
    offending cycle, first location repeated at the end.
    """

    def __init__(self, witness):
        self.witness = list(witness)
        super().__init__(" -> ".join(self.witness))


class RegionTransition(NamedTuple):
    """One edge between region copies.

    `source` and `target` are (location name, region index) pairs.  A
    copy carries no guard: it fires anywhere in its source region's
    closure.  `origin` indexes the copied transition in the base game;
    border hops, which carry a location from one region into the next at
    zero cost at the border, have origin None.
    """

    source: tuple
    reset: bool
    target: tuple
    weight: int
    origin: Optional[int]


@dataclass(frozen=True)
class RegionGame:
    """The copies of a game's locations in its regions, and their edges.

    `regions` alternate as `region_table` cuts them: regions[i] is a point
    region exactly when i is even."""

    base: Game
    regions: tuple
    locations: tuple
    transitions: tuple

    def outgoing_map(self) -> dict:
        out = {n: [] for n in self.locations}
        for i, t in enumerate(self.transitions):
            out[t.source].append(i)
        return out


def build_region_game(g: Game) -> RegionGame:
    """Copy every location into every clock region and rewire the edges.

    `region_table(g)` gives the regions and each edge's.  Copied edges
    keep their weight; a resetting edge always targets its location's
    copy in the {0} region, any other edge its target's copy in the same
    region.  Every non-final copy whose location may wait also gets a
    zero-weight hop into the neighbouring region above, available exactly
    at the border, so letting time cross a border is an explicit move of
    the copy graph, and the only way out of an open copy other than an
    edge fired inside it.  Urgent locations get no hops: crossing a
    border needs time to pass.
    """
    regs, enabled = region_table(g)
    nodes = tuple([(l.name, i) for l in g.locations for i in range(len(regs))])
    edges = [
        RegionTransition((t.source, i), t.reset, (t.target, 0 if t.reset else i), t.weight, ti)
        for ti, t in enumerate(g.transitions)
        for i in enabled[ti]
    ]
    for l in g.locations:
        if l.is_final or l.urgent:
            continue
        for i in range(len(regs) - 1):
            edges.append(RegionTransition((l.name, i), False, (l.name, i + 1), 0, None))
    return RegionGame(g, regs, nodes, tuple(edges))


@dataclass(frozen=True)
class ResetDAG:
    """Condensation of a region game's non-final copies into reset-free
    components.

    `components` lists the strongly connected components so that every edge
    leads into the same or an earlier component, or into a final copy, so
    solving them left to right meets all dependencies.
    """

    rgame: RegionGame
    components: tuple


def _tarjan(adj: dict) -> list:
    """The strongly connected components of adj, each after those it has
    an edge into."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = 0
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, it = work[-1]
            pushed = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    pushed = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    m = stack.pop()
                    on_stack.discard(m)
                    comp.append(m)
                    if m == node:
                        break
                comps.append(tuple(comp))
    return comps


def _witness(rg: RegionGame, comp, bad: RegionTransition) -> list:
    """A location cycle through `bad`, shortest completion inside its component."""
    members = set(comp)
    adj = {}
    for t in rg.transitions:
        if t.source in members and t.target in members:
            adj.setdefault(t.source, []).append(t.target)
    prev = {bad.target: None}
    queue = [bad.target]
    while queue:
        cur = queue.pop(0)
        if cur == bad.source:
            break
        for nxt in adj.get(cur, ()):
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    path = []
    cur = bad.source
    while cur is not None:
        path.append(cur)
        cur = prev.get(cur)
    path.reverse()
    collapsed = [name for name, _ in groupby([bad.source[0]] + [n[0] for n in path])]
    if len(collapsed) == 1:
        return collapsed + collapsed
    # drop the closing repeat, rotate to the smallest name, close again
    ring = collapsed[:-1]
    k = ring.index(min(ring))
    ring = ring[k:] + ring[:k]
    return ring + [ring[0]]


def _node(rg: RegionGame, node) -> str:
    """A region copy as the user reads it: its location in its region."""
    return f"{node[0]} in {rg.regions[node[1]].describe()}"


def _nodes(rg: RegionGame, comp) -> str:
    return "{" + ", ".join(_node(rg, n) for n in comp) + "}"


def check_reset_acyclic(rg: RegionGame) -> ResetDAG:
    """Condense the non-final copies of the region graph, refusing it when
    a cycle fires a reset; a final copy with a move is a broken invariant."""
    final = {l.name for l in rg.base.locations if l.is_final}
    adj = {n: [] for n in rg.locations if n[0] not in final}
    for t in rg.transitions:
        if t.source[0] in final:
            raise InternalError("condensation", "a final location has moves", _node(rg, t.source))
        if t.target[0] not in final:
            adj[t.source].append(t.target)
    comps = _tarjan(adj)
    comp_of = {n: ci for ci, comp in enumerate(comps) for n in comp}
    for t in rg.transitions:
        if t.reset and comp_of[t.source] == comp_of.get(t.target):
            raise ResetCycle(_witness(rg, comps[comp_of[t.source]], t))
        if comp_of.get(t.target, -1) > comp_of[t.source]:
            where = f"{_node(rg, t.source)} -> {_node(rg, t.target)}"
            raise InternalError("condensation", "components out of dependency order", where)
    return ResetDAG(rg, tuple(comps))


def _entry_value(nodeval: dict, rt: RegionTransition, x):
    """Value collected on entering rt's target at firing valuation x.

    A final copy's entry is its cost line, read at x, or at 0 after a
    reset.  Any other edge but one inside an open region enters a point
    copy, or hops into the open region above at its lower end: it
    collects the target's first value.
    """
    tv = nodeval[rt.target]
    if isinstance(tv, float):
        return tv
    if isinstance(tv, Affine):
        return tv(0 if rt.reset else x)
    i = rt.target[1]
    return evaluate(tv, x) if i % 2 and i == rt.source[1] else tv.vals[0]


def _compile(rg, comp, edges, nodeval, c, d=None, anchor=None) -> Rows:
    """The rows of a component with a cycle on its window [c, d].

    The change of variable x = c + t*(d-c) scales waiting rates by the
    window length and turns neighbour values into lines over t in [0, 1].
    Without d the window is the point c, where no time passes.
    The members come first, in component order.  edges[node] indexes the
    edges a member fires in the window; each leads into another member or
    into a stub worth the target's value entered at c (t = 0) and at d
    (t = 1).  Where anchor is given, a member that may wait also moves at
    weight 0 into a stub worth anchor[node] at d, plus its rate for each
    unit of time before: waiting until d.  A member without moves is
    stuck, worth +inf.

    One stub rule: a finite stub is the final line between its two values,
    one per key; +inf is a row without moves, which never reaches a
    final, and -inf a free loop of weight -1 next to an exit worth 0, one
    of each at most.  Stub names start with "@", which game files may not
    use.
    """
    base = rg.base
    length = 0 if d is None else d - c
    names = [node[0] for node in comp]
    index = {node: i for i, node in enumerate(comp)}
    stubs, stub_rows, finals = {}, [], []

    def stub(key, v0, v1) -> int:
        infinite = isinstance(v0, float)
        if infinite:
            key = v0
        i = stubs.get(key)
        if i is None:
            i = stubs[key] = len(names)
            names.append(f"@s{len(stubs) - 1}")
            if not infinite:
                finals.append((i, Affine(v1 - v0 if length else 0, v0)))
            elif v0 == INF:
                stub_rows.append((i, True, []))
            else:
                names.append(names[i] + ".out")
                stub_rows.append((i, False, [(-1, i), (0, i + 1)]))
                finals.append((i + 1, Affine(0, 0)))
        return i

    rows, timing = [], []
    for node in comp:
        loc = base.location(node[0])
        moves = []
        for j in edges[node]:
            rt = rg.transitions[j]
            t = index.get(rt.target)
            if t is None:
                vc = _entry_value(nodeval, rt, c)
                vd = _entry_value(nodeval, rt, d) if length else vc
                t = stub((rt.target, rt.reset), vc, vd)
            moves.append((rt.weight, t))
        rate = loc.rate * length if length else 0
        if anchor is not None and not loc.urgent:
            moves.append((0, stub((node, "wait"), rate + anchor[node], anchor[node])))
        rows.append((index[node], loc.owner == MAX, moves))
        timing.append((rate, loc.urgent))
    timing += [(0, True)] * len(stub_rows)
    return Rows(names, rows + stub_rows, timing, finals, Fraction(1))


def _acyclic(rg, comp, edges, nodeval, c, d=None, anchor=None) -> dict:
    """The value of one copy with no edge into itself on the point c or a
    seam-free window [c, d]: its targets are solved, so it needs no rows.

    Each option is a line through its values at c and d: firing an edge
    now, and for a copy that may wait in a window, waiting to d and then
    firing it or taking anchor[node] (firing after a wait to y costs an
    amount affine in y, so y = x or y = d is optimal).  Min takes -inf and
    Max +inf from any option; the other infinity drops out unless it is
    all there is, and a copy with no option is stuck at +inf.  The owner's
    envelope of the finite lines bends only where two cross, so it is read
    at c, d and each crossing between, canonically: as `sweep` builds it.
    """
    (node,) = comp
    loc = rg.base.location(node[0])
    waits = d is not None and not loc.urgent
    wait = loc.rate * (d - c) if waits else 0
    lines = [(wait + anchor[node], anchor[node])] if waits else []
    for j in edges[node]:
        rt = rg.transitions[j]
        vc = rt.weight + _entry_value(nodeval, rt, c)
        vd = vc if d is None else rt.weight + _entry_value(nodeval, rt, d)
        lines += [(vc, vd), (wait + vd, vd)] if waits else [(vc, vd)]
    pick = max if loc.owner == MAX else min
    # an infinity wins at c exactly when it wins everywhere
    v = pick([vc for vc, _ in lines], default=INF)
    if d is None or isinstance(v, float):
        return {node: v}
    finite = [line for line in lines if not isinstance(line[0], float)]
    ts = set()
    for i, (pc, pd) in enumerate(finite):
        for qc, qd in finite[i + 1 :]:
            if (pc - qc) * (pd - qd) < 0:
                ts.add((pc - qc) / (pc - qc - pd + qd))
    ts = sorted(ts)
    xs = (c, *[c + t * (d - c) for t in ts], d)
    inner = [pick(vc + t * (vd - vc) for vc, vd in finite) for t in ts]
    return {node: CostFunction._trusted(*_canonical(xs, (v, *inner, pick(vd for _, vd in finite))))}


def _instant(rg, comp, out_edges, nodeval, x) -> dict:
    """Values of a point component with a cycle at its valuation x.

    No time passes at a point, so every member plays urgently, on the
    point window x: every edge of a point copy holds at x, and where the
    member may wait, its edges include the hop into the region above.
    Every stub is constant there, so one `InstantEvaluator` run of the
    component's rows at x itself gives the values.
    """
    ev = InstantEvaluator(_compile(rg, comp, out_edges, nodeval, x))
    vals, _, _, denom = ev.run(x)
    return {node: v if isinstance(v, float) else Fraction(v, denom) for node, v in zip(comp, vals)}


def _solve_window(rg, comp, interior, nodeval, anchor, c, d, max_steps) -> dict:
    """A seam-free window [c, d] of an open component with a cycle, as a game.

    Its rows are `_compile`'s: waiting past d is priced by a per-member
    stub whose cost line starts at the member's already-known value at d
    and grows leftwards at the member's own rate, exactly what waiting
    would cost.  At the region's upper border that known value is the one
    its hop enters; `sweep` then settles the members' moves at d among
    themselves.  Every member enters the rows, and infinities are left to
    `sweep`'s pruning: an infinite anchor or target becomes a stub of its
    sign, and a member with no move is stuck, worth +inf.
    """
    sw = sweep(_compile(rg, comp, interior, nodeval, c, d, anchor), max_steps, onto=(c, d))
    vals = {**sw.finite, **sw.infinite}
    return {node: vals[node[0]] for node in comp}


def _combine(parts, rg: RegionGame, node):
    """Join the right-to-left window results of node, a copy in an open
    region, into one value spanning the region's closure: a copy entered
    at its region's lower end collects the value's first point."""
    if all(isinstance(p, float) for p in parts):
        if len(set(parts)) == 1:
            return parts[0]
        reason = "infinite value must cover its whole region"
    elif any(isinstance(p, float) for p in parts):
        reason = "value switches between finite and infinite inside one region"
    else:
        f = concat(*reversed(parts))
        reg = rg.regions[node[1]]
        if f.xs[0] == reg.lo and f.xs[-1] == reg.hi:
            return f
        reason = "value does not span its region's closure"
    raise InternalError("region solve", reason, _node(rg, node))


def _solve_open_component(rg, comp, out_edges, nodeval, reg, max_steps, acyclic):
    a, b = reg.lo, reg.hi
    members = set(comp)
    interior = {}
    # the first window's wait stubs bank what the hop enters at b: each
    # waiting member's own point copy there
    anchor = {}
    # a finite target in the region spans [a, b]; its inner breakpoints are seams
    inner = set()
    for node in comp:
        full = []
        for j in out_edges[node]:
            rt = rg.transitions[j]
            if rt.origin is None:
                anchor[node] = _entry_value(nodeval, rt, b)
                continue
            full.append(j)
            tv = None if rt.target in members or rt.reset else nodeval[rt.target]
            if isinstance(tv, CostFunction):
                inner.update(tv.xs[1:-1])
        interior[node] = full
    seams = [a, *sorted(inner), b]
    windows = []
    for c, d in reversed(list(zip(seams, seams[1:]))):
        if acyclic:
            windows.append(_acyclic(rg, comp, interior, nodeval, c, d, anchor))
        else:
            windows.append(_solve_window(rg, comp, interior, nodeval, anchor, c, d, max_steps))
        # each member's value on [c, d] anchors the window on its left at c
        anchor = {n: v if isinstance(v, float) else v.vals[0] for n, v in windows[-1].items()}
    for n in comp:
        nodeval[n] = _combine([w[n] for w in windows], rg, n)


def _stitch(regs, per) -> tuple:
    """Merge per-region values into maximal continuous segments.

    A reader takes a point segment first at a shared endpoint and the later
    segment otherwise, so a point whose value differs from where the next
    region starts is kept as a point segment of its own.  Regions are
    grouped into runs that agree at their seams; each run is one `concat`.
    """
    pcfs = [
        CostFunction.constant(reg.lo, reg.hi, piece) if isinstance(piece, float) else piece
        for reg, piece in zip(regs, per)
    ]
    runs = []
    for pcf, nxt in zip(pcfs, pcfs[1:] + [None]):
        alone = pcf.is_point and nxt is not None and nxt.vals[0] != pcf.vals[0]
        if runs and runs[-1][-1].vals[-1] == pcf.vals[0] and not alone:
            runs[-1].append(pcf)
        else:
            runs.append([pcf])
    return tuple([concat(*run) for run in runs])


def solve_reset_acyclic(g: Game, max_steps=None) -> Solution:
    """Exact values of a guarded, reset-acyclic game over its whole clock range.

    Builds the region copy graph, refuses it when a cycle fires a reset,
    then solves the strongly connected components in dependency order: a
    final copy is in none, and enters as its cost line wherever it is
    entered; one copy with no edge into itself takes one step (`_acyclic`)
    and no value-iteration run, so `max_steps` charges it nothing.  With a
    cycle, point copies are single-valuation games (`_instant`), interval
    copies rescaled unit-interval games whose outside references enter as
    terminal stubs, both compiled from the region graph (`_compile`), with
    no game built.  Each of their windows runs `sweep`, which builds no
    strategies; `max_steps` caps each one separately.

    The `Solution` holds values only: per location its maximal continuous
    segments (`_stitch`), a final location's one segment its cost line.
    Near an open region border optimal play may need moves ever closer to
    the border, which the finite strategy tables of `strategy` cannot
    express.
    """
    rg = build_region_game(g)
    regs = rg.regions
    dag = check_reset_acyclic(rg)
    out_edges = rg.outgoing_map()
    nodeval = {(l.name, i): l.final_cost for l in g.final_locations for i in range(len(regs))}
    for comp in dag.components:
        i = comp[0][1]
        if any(n[1] != i for n in comp):
            raise InternalError("region solve", "a reset-free component spans regions", _nodes(rg, comp))
        reg = regs[i]
        # one copy with no edge into itself: no cycle, no fixpoint to find
        acyclic = len(comp) == 1 and all(rg.transitions[j].target != comp[0] for j in out_edges[comp[0]])
        if i % 2:
            _solve_open_component(rg, comp, out_edges, nodeval, reg, max_steps, acyclic)
            continue
        for node, v in (_acyclic if acyclic else _instant)(rg, comp, out_edges, nodeval, reg.lo).items():
            nodeval[node] = v if isinstance(v, float) else CostFunction.point(reg.lo, v)
    values = {
        l.name: (CostFunction.from_affine(0, g.clock_bound, l.final_cost),) if l.is_final
        else _stitch(regs, [nodeval[(l.name, i)] for i in range(len(regs))])
        for l in g.locations
    }
    return Solution(values)
