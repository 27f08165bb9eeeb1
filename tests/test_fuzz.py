"""Structural fuzzing of the solution document's strategies object.

Each example mutates one node of ``fixtures/fig1.values.json``'s
strategies: a type swap, a deleted key or list item, a move's
``t_index`` pointed at a transition of another location, a move's ``to``
naming another location than its transition's target, or an interval
with its ends swapped.  ``ptg verify`` and ``ptg simulate`` then read the
copy through ``cli.main``: no exception may escape, every exit is 0, 2 or
5, exit 2 prints one line on stderr, and a foreign ``t_index``, a wrong
``to`` or a swapped interval exits 2.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from ptgsolve.cli import main

GAME = json.loads((FIXTURES / "fig1.json").read_text())
DOC = json.loads((FIXTURES / "fig1.values.json").read_text())
SOURCES = [t["from"] for t in GAME["transitions"]]
NAMES = [l["name"] for l in GAME["locations"]] + ["nowhere"]

SWAPS = (None, [], {}, "", "x", "0", "1/2", "-1", "+inf", "1/0", "NaN", True, False, 0, 4, -1, 2**64, 10**30)


def _paths(obj, path=()):
    """The path of every node of obj, obj itself first."""
    yield path
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _paths(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _paths(item, path + (i,))


PATHS = list(_paths(DOC["strategies"]))
T_INDEX = [p for p in PATHS if p and p[-1] == "t_index"]
TO = [p for p in PATHS if p and p[-1] == "to"]
INTERVALS = [p for p in PATHS if p and p[-1] == "interval"]


def _listed_at(path) -> str:
    """The location a move's path lists it under: max.<loc> or min.sigma?.<loc>."""
    return path[1] if path[0] == "max" else path[2]


@st.composite
def mutated_documents(draw):
    strategies = copy.deepcopy(DOC["strategies"])
    kind = draw(st.sampled_from(("swap", "delete", "t_index", "to", "reverse")))
    if kind == "t_index":
        path = draw(st.sampled_from(T_INDEX))
        loc = _listed_at(path)
        new = draw(st.sampled_from([i for i, s in enumerate(SOURCES) if s != loc]))
    elif kind == "to":
        path = draw(st.sampled_from(TO))
        move = strategies
        for key in path[:-1]:
            move = move[key]
        target = GAME["transitions"][move["t_index"]]["to"]
        new = draw(st.sampled_from([n for n in NAMES if n != target]))
    elif kind == "reverse":
        path = draw(st.sampled_from(INTERVALS))
    else:
        path = draw(st.sampled_from(PATHS[1:]))
        new = draw(st.sampled_from(SWAPS))
    parent = strategies
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "reverse":
        parent[path[-1]] = parent[path[-1]][::-1]
    else:
        parent[path[-1]] = new
    return {**DOC, "strategies": strategies}, (kind, path)


def _run(*argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_strategies_exit_cleanly(case):
    doc, where = case
    with tempfile.TemporaryDirectory() as tmp:
        values = Path(tmp) / "fig1.values.json"
        values.write_text(json.dumps(doc))
        game = str(FIXTURES / "fig1.json")
        for argv in (("verify", game, str(values)), ("simulate", game, str(values), "--from", "l1:1/2")):
            code, err = _run(*argv)
            assert code in (0, 2, 5), (where, argv[0], code)
            if code == 2:
                assert len(err.splitlines()) == 1, (where, argv[0], err)
            if where[0] in ("t_index", "to", "reverse"):
                # the reader refuses all three: no move leaves another
                # location or names another target, and no row's interval
                # is empty or reversed
                assert code == 2, (where, argv[0], code)
