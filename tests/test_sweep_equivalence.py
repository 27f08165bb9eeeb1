"""The sweep from crossing to crossing against the walk over every candidate.

`solver.sweep` lists no candidates: it runs value iteration once just
left of each accepted point and steps to the next witness crossing;
`reference.grid_sweep` runs it at every candidate of the window's grid.  Both must give the same
functions, the same trace (boundaries, slope breaks, rejections) and the
same infinities, on the fan, on random simple games and, swapped in for
the region pipeline's windows, on random reset-acyclic games.
"""

import itertools

import pytest

from reference import grid_sweep
from test_fan import fan_game
from test_properties import _usable_seeds, random_sptg, usable_guarded
from ptgsolve import document, solver
from ptgsolve import regions as region_pipeline
from ptgsolve.regions import solve_reset_acyclic
from ptgsolve.urgent import compile_game


def _outcome(sweep, g):
    """What a sweep of g gives, as plain data; a refusal by its type."""
    try:
        sw = sweep(compile_game(g))
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__
    return (
        {n: (f.xs, f.vals) for n, f in sw.finite.items()},
        sw.infinite,
        sw.trace.boundaries,
        [(w.start, w.slope_breaks, w.rejection) for w in sw.trace.windows],
    )


SIGNS = list(itertools.product((1, -1), repeat=3))


@pytest.mark.parametrize("signs", SIGNS)
def test_fan_matches_the_grid_walk(signs):
    rates = tuple(s * m for s, m in zip(signs, (1, 2, 3)))
    for k in range(1, 13):
        g = fan_game(k, rates)
        assert _outcome(solver.sweep, g) == _outcome(grid_sweep, g), k


def test_random_simple_games_match_the_grid_walk():
    for seed in range(1000):
        g = random_sptg(seed)
        assert _outcome(solver.sweep, g) == _outcome(grid_sweep, g), seed


@pytest.mark.parametrize("seed", _usable_seeds(40, start=1000))
def test_region_documents_match_the_grid_walk(seed):
    g = usable_guarded(seed)
    want = document.dumps(g, document.MODE_REGIONS, _region_solution(g, grid_sweep))
    got = document.dumps(g, document.MODE_REGIONS, _region_solution(g, solver.sweep))
    assert got == want


def _region_solution(g, sweep):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region_pipeline, "sweep", sweep)
        return solve_reset_acyclic(g)
