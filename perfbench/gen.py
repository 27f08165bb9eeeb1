"""Seeded game generators for the three benchmark workloads.

Every generator takes a ``random.Random`` and returns a game document as a
plain dict in the game-file format of ``ptgsolve.model``; the benchmark
writes it to disk and the solver only ever sees the file.  A workload is
its fixtures, once, followed by generated games in *blocks*: one game per
size stratum, in a seeded order, so that the first blocks, which a traced
run uses, hold the same mix of sizes as the whole.
"""

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

FAN_KS = (5, 6, 7, 8, 9)
SPTG_SIZES = (6, 7, 8, 9, 10, 11, 12)
GUARDED_SIZES = (4, 5, 6, 7)
GUARDED_BOUND = 3

#: The size stratum of each workload: fan k, or location count.
STRATA = {"fan": FAN_KS, "sptg-mix": SPTG_SIZES, "guarded": GUARDED_SIZES}


@dataclass(frozen=True)
class Case:
    """One game of a workload and what a correct run must produce.

    ``solve_exit`` is the exit code ``ptg solve`` must return; ``verify``
    is false for games whose solve is expected to refuse them.  A
    ``fixture`` is a committed game whose outcomes are known in advance.
    ``fan_k`` asks for the tangent-fan known answer on location ``pick``,
    ``reference`` names a committed solution document the written one
    must equal byte for byte.
    """

    name: str
    text: str
    solve_exit: int = 0
    verify: bool = True
    fixture: bool = False
    fan_k: Optional[int] = None
    reference: Optional[str] = None


def _full_guard() -> dict:
    return {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True}


def _edge(src: str, tgt: str, weight: int, guard=None, reset: bool = False) -> dict:
    return {
        "from": src,
        "to": tgt,
        "guard": guard if guard is not None else _full_guard(),
        "reset": reset,
        "weight": weight,
    }


def _final(name: str, slope, intercept) -> dict:
    return {
        "name": name,
        "owner": "final",
        "rate": 0,
        "urgent": False,
        "final_cost": {"slope": str(Fraction(slope)), "intercept": str(Fraction(intercept))},
    }


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def fan_line(k: int, i: int, x: Fraction) -> Fraction:
    """Cost of the i-th fan final at x: tangent i of a parabola."""
    return -i * x + Fraction(i * (i - 1), 2 * k)


def fan(rng: random.Random, k: int, signs: tuple) -> dict:
    """The tangent fan: an urgent Min ``pick`` chooses among k finals.

    Final i costs ``-i*x + i(i-1)/(2k)``; neighbouring lines cross at i/k,
    so ``pick`` is worth their lower envelope with breakpoints exactly
    {0, 1/k, ..., 1}.  Above it sit three waiting layers (Max, Min, Max)
    with nonzero rates of the given signs and seeded sizes 1-3; each
    fires down one layer or straight to
    ``pick`` with opposite weights +-1.  Nonzero weights matter: with zero
    weights the sweep's candidate grid collapses to a handful of points.
    """
    locs = [{"name": "pick", "owner": "min", "rate": 0, "urgent": True}]
    trans = []
    for i in range(1, k + 1):
        locs.append(_final(f"f{i}", -i, Fraction(i * (i - 1), 2 * k)))
        trans.append(_edge("pick", f"f{i}", 0))
    below = "pick"
    for j, (owner, sign) in enumerate(zip(("max", "min", "max"), signs), start=1):
        name = f"layer{j}"
        rate = sign * rng.randint(1, 3)
        locs.append({"name": name, "owner": owner, "rate": rate, "urgent": False})
        w = rng.choice((-1, 1))
        trans.append(_edge(name, below, w))
        trans.append(_edge(name, "pick", -w))
        below = name
    return {"clock_bound": 1, "locations": locs, "transitions": trans}


def random_sptg(rng: random.Random, n: int) -> dict:
    """Simple game: n locations, all guards [0, 1], no resets.

    Rates and weights lie in [-8, 8], about a quarter of the non-final
    locations are urgent, and final slopes stay within the largest rate.
    """
    names = [f"q{i}" for i in range(n)]
    finals = set(rng.sample(names, rng.randint(1, max(1, n // 3))))
    final_list = sorted(finals)
    rates = {m: rng.randint(-8, 8) for m in names if m not in finals}
    cap = max(abs(r) for r in rates.values())
    locs = []
    for m in names:
        if m in finals:
            slope = rng.randint(-cap, cap)
            locs.append(_final(m, slope, rng.randint(-8, 8)))
        else:
            owner = rng.choice(("min", "max"))
            locs.append({"name": m, "owner": owner, "rate": rates[m], "urgent": rng.random() < 0.25})
    trans = []
    for m in names:
        if m in finals:
            continue
        for _ in range(rng.randint(1, 3)):
            tgt = rng.choice(final_list) if rng.random() < 0.35 else rng.choice(names)
            trans.append(_edge(m, tgt, rng.randint(-8, 8)))
    if all(t["weight"] == 0 for t in trans):
        trans[0]["weight"] = 1
    return {"clock_bound": 1, "locations": locs, "transitions": trans}


def random_guarded(rng: random.Random, n: int, bound: int = GUARDED_BOUND) -> dict:
    """Guarded game with n locations: interval or point guards, open ends, resets.

    Raw draws may deadlock or reset inside a cycle; the caller keeps only
    draws the model accepts.
    """
    names = [f"g{i}" for i in range(n)]
    finals = set(rng.sample(names, rng.randint(1, n - 1)))
    locs = []
    for m in names:
        if m in finals:
            locs.append(_final(m, rng.randint(-4, 4), rng.randint(-4, 4)))
        else:
            owner = rng.choice(("min", "max"))
            locs.append({"name": m, "owner": owner, "rate": rng.randint(-4, 4), "urgent": rng.random() < 0.2})
    trans = []
    for m in names:
        if m in finals:
            continue
        for _ in range(rng.randint(1, 3)):
            lo = rng.randint(0, bound)
            hi = rng.randint(lo, bound)
            closed = (True, True) if lo == hi else (rng.random() < 0.8, rng.random() < 0.8)
            guard = {"lo": str(lo), "hi": str(hi), "lo_closed": closed[0], "hi_closed": closed[1]}
            trans.append(_edge(m, rng.choice(names), rng.randint(-4, 4), guard, rng.random() < 0.15))
    return {"clock_bound": bound, "locations": locs, "transitions": trans}


def _accepted_guarded(rng: random.Random, n: int) -> str:
    """Draw guarded games until one passes the model's input checks.

    The checks are ``parse_game`` (which runs ``validate_game``) and
    ``check_reset_acyclic``: input validity only, never the solver's answer.
    """
    from ptgsolve.model import GameSyntaxError, ValidationError, parse_game
    from ptgsolve.regions import ResetCycle, build_region_game, check_reset_acyclic

    while True:
        text = _dumps(random_guarded(rng, n))
        try:
            check_reset_acyclic(build_region_game(parse_game(text)))
        except (GameSyntaxError, ValidationError, ResetCycle):
            continue
        return text


def _fixture(fixtures: Path, name: str, **expect) -> Case:
    text = (fixtures / f"{name}.json").read_text(encoding="utf-8")
    return Case(f"fixture-{name}", text, fixture=True, **expect)


def _blocks(rng: random.Random, strata: tuple, blocks: int, make, fixed=()) -> tuple:
    """(block size, cases): the fixtures, then per block one game per stratum, shuffled.

    ``make(tag, stratum, block)`` draws one game.
    """
    cases = list(fixed)
    for b in range(blocks):
        order = list(strata)
        rng.shuffle(order)
        cases.extend(make(f"b{b}.{j}", s, b) for j, s in enumerate(order))
    return len(strata), cases


def _fan_signs(rng: random.Random, blocks: int) -> list:
    """Layer rate signs per block: each of the 8 patterns once in every 8 blocks.

    The signs move a fan's work by almost 2x at equal k, so drawing them
    freely would make a run's median depend on the seed's luck.
    """
    signs = []
    while len(signs) < blocks:
        cycle = list(itertools.product((-1, 1), repeat=3))
        rng.shuffle(cycle)
        signs.extend(cycle)
    return signs


def workload(name: str, seed: int, blocks: int, fixtures: Path) -> tuple:
    """(block size, cases) for one workload; the same seed gives the same cases."""
    rng = random.Random(f"{name}:{seed}")
    if name == "fan":
        signs = _fan_signs(rng, blocks)
        return _blocks(
            rng, FAN_KS, blocks,
            lambda tag, k, b: Case(f"fan-{tag}-k{k}", _dumps(fan(rng, k, signs[b])), fan_k=k),
        )
    if name == "sptg-mix":
        fixed = (
            _fixture(fixtures, "fig1", reference="fig1.values.json"),
            _fixture(fixtures, "urgent_all"),
            _fixture(fixtures, "appc"),
        )
        return _blocks(
            rng, SPTG_SIZES * 2, blocks,
            lambda tag, n, _: Case(f"sptg-{tag}-n{n}", _dumps(random_sptg(rng, n))),
            fixed,
        )
    if name == "guarded":
        fixed = (
            _fixture(fixtures, "reset_chain"),
            _fixture(fixtures, "fig3", solve_exit=3, verify=False),
        )
        return _blocks(
            rng, GUARDED_SIZES * 4, blocks,
            lambda tag, n, _: Case(f"guarded-{tag}-n{n}", _accepted_guarded(rng, n)),
            fixed,
        )
    raise ValueError(f"unknown workload {name!r}")
