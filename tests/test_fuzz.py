"""Structural fuzzing of the three JSON formats, through ``cli.main``.

The first suite mutates one node of ``fixtures/fig1.values.json``'s
strategies: a type swap, a deleted key or list item, a move's
``t_index`` pointed at a transition of another location, a move's ``to``
naming another location than its transition's target, or an interval
with its ends swapped.  ``ptg verify`` and ``ptg simulate`` then read the
copy: no exception may escape, every exit is 0, 2 or 5, exit 2 prints one
line on stderr, and a foreign ``t_index``, a wrong ``to`` or a swapped
interval exits 2.

The other two draw their mutations from the formats' tables
(``model.GAME`` and ``model.VALUES``, whose strategies are the nested
table ``model.STRATEGIES``): a row, one of the fields in a committed file
that it reads, then a value of another JSON type or out of the field's
range, a deleted key or a truncated array.  A mutated game goes through
``ptg verify`` against its committed document, which runs ``parse_game``
and the Bellman oracle but not the solver, so huge weights stay cheap; a
mutated document goes through ``verify``, ``simulate`` and ``plot``.  The
same exits are allowed.  A value of another JSON type, a value its row's
kind refuses or a deleted key the row requires must exit 2 with one line
that starts with the field's path: the reader refuses such a field
before any rule across fields can judge it.  The ``fuzz`` profile of
``conftest.py`` runs more examples.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from ptgsolve import model
from ptgsolve.exactmath import parse_value
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


@settings(max_examples=max(300, settings.default.max_examples), deadline=None, derandomize=True)
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


# (game, committed document, simulate start)
CASES = [
    ("fig1", "fig1.values.json", "l1:1/2"),
    ("appc", "appc.values.json", "l2:1/2"),
    ("urgent_all", "urgent_all.values.json", "l3:1/2"),
    ("guarded_jump", "guarded_jump.values.json", "g0:0"),
    ("fig1", "fig1.regions.json", "l2:1/4"),
    ("reset_chain", "reset_chain.values.json", "a:0"),
]
# every JSON type, and values at and past the ends of each field's range
VALUES_TO_TRY = (
    None, True, False, 0, 1, -1, 10**40, -(10**40), 0.5, "", "x", "0", "1", "1/2", "-1", "7/3", "+inf", "-inf",
    "1/0", "1e5", str(10**40), "a@b", "a\ud800", "now", "wait_until", "inf", "min", "max", "final", "sptg",
    "reset-acyclic", [], ["0"], ["1", "0"], ["0", "0"], ["0", "1"], ["-1", "5"], ["0", "1/2", "1"], {}, {"x": "0", "v": "0"},
)


def _concrete(doc, tokens, at=()):
    """The paths in doc of the nodes a row's path names, keys and indices;
    a key its object lacks is named too, to be set."""
    if not tokens:
        yield at
    elif tokens[0] in ("[]", "{}"):
        if isinstance(doc, list) and tokens[0] == "[]" or isinstance(doc, dict) and tokens[0] == "{}":
            for k in range(len(doc)) if isinstance(doc, list) else list(doc):
                yield from _concrete(doc[k], tokens[1:], at + (k,))
    elif isinstance(doc, dict):
        if tokens[0] in doc:
            yield from _concrete(doc[tokens[0]], tokens[1:], at + (tokens[0],))
        elif len(tokens) == 1:
            yield at + (tokens[0],)


def _targets(table, doc, prefix=()) -> list:
    """Each row of table with the paths in doc of the nodes it reads, the
    table's top level being at prefix; a row that reads none is left out,
    and so is the top level itself."""
    base = doc
    for key in prefix:
        base = base[key]
    out = []
    for row in model.rows_of(table):
        paths = [prefix + p for p in _concrete(base, re.findall(r"\[\]|\{\}|[^.\[\]{}]+", row.path))]
        if paths and row.path:
            out.append((row, paths))
    return out


def _load(name: str):
    return json.loads((FIXTURES / name).read_text())


GAME_TARGETS = [_targets(model.GAME, _load(f"{game}.json")) for game, _, _ in CASES]
DOC_TARGETS = [_targets(model.VALUES, _load(name)) for _, name, _ in CASES]


@st.composite
def table_mutations(draw, targets):
    """(case, row, path, operation, value): one field of one case's file,
    drawn row first, and what to do to it."""
    case = draw(st.sampled_from(range(len(CASES))))
    row, paths = draw(st.sampled_from(targets[case]))
    path = draw(st.sampled_from(paths))
    ops = ["set"] * 3 + ["delete"] + (["truncate"] if row.json == "array" else [])
    op = draw(st.sampled_from(ops))
    value = draw(st.sampled_from(VALUES_TO_TRY)) if op == "set" else draw(st.sampled_from((0, 1, 2)))
    return case, row, path, op, value


def _mutated(doc, path, op, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "set":
        parent[key] = copy.deepcopy(value)
    elif isinstance(parent, list) or key in parent:
        if op == "delete":
            del parent[key]
        elif isinstance(parent[key], list):
            # drop the last item, keep only the first, or empty the array
            parent[key] = [parent[key][:-1], parent[key][:1], []][value]
    return doc


# the Python type json.loads gives each JSON type of a row
PYTHON_TYPE = {
    "object": dict, "table": dict, "map": dict, "array": list, "pair": list,
    "literal": str, "string": str, "integer": int, "boolean": bool,
}


def _refused_at_the_field(row, path, op, value) -> bool:
    """Is the mutation one the reader refuses at the field itself: a value
    of another JSON type, one outside the kind of a field of one value, or
    a deleted key that has no default?"""
    if op == "delete":
        return type(path[-1]) is str and row.default is model.REQUIRED and not row.path.endswith("{}")
    if op != "set" or row.json == "any":
        return False
    if type(value) is not PYTHON_TYPE[row.json]:
        # a table with no default may be null: a document without strategies
        return not (value is None and row.json == "table" and row.default is None)
    if row.json == "pair" and (len(value) != 2 or not all(type(v) is str for v in value)):
        return True
    if row.json not in ("pair", "literal", "string", "integer", "boolean"):
        return False
    try:
        if row.json == "pair":
            value = tuple(map(parse_value, value))
        elif row.json == "literal":
            value = parse_value(value)
        if row.kind is not None:
            row.kind(value)
    except (ValueError, model._Refusal):
        return True
    return False


def _name(path) -> str:
    """A path of keys and indices as the reader's messages write it."""
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path).lstrip(".")


def _clean_exit(argv, where, at=None) -> None:
    """argv exits 0, 2 or 5, exit 2 with one line; with at, the path of a
    field refused by its own row, exit 2 with a line naming that field."""
    code, err = _run(*argv)
    assert code in (0, 2, 5), (where, argv[0], code, err)
    if code == 2:
        assert len(err.splitlines()) == 1, (where, argv[0], err)
    if at is not None:
        assert code == 2, (where, argv[0], code)
        assert re.match(rf"error: {re.escape(_name(at))}[:.\[]", err), (where, argv[0], err)


EXAMPLES = max(200, settings.default.max_examples)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(table_mutations(GAME_TARGETS))
def test_mutated_games_exit_cleanly(mutation):
    case, row, path, op, value = mutation
    game, values, _ = CASES[case]
    at = path if _refused_at_the_field(row, path, op, value) else None
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / f"{game}.json"
        mutated.write_text(json.dumps(_mutated(_load(f"{game}.json"), path, op, value)))
        _clean_exit(("verify", str(mutated), str(FIXTURES / values)), mutation, at)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(table_mutations(DOC_TARGETS))
def test_mutated_documents_exit_cleanly(mutation):
    case, row, path, op, value = mutation
    game, values, start = CASES[case]
    at = path if _refused_at_the_field(row, path, op, value) else None
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / values
        mutated.write_text(json.dumps(_mutated(_load(values), path, op, value)))
        game = str(FIXTURES / f"{game}.json")
        for argv in (
            ("verify", game, str(mutated)),
            ("simulate", game, str(mutated), "--from", start, "--opponents", "1"),
            ("plot", str(mutated), "--csv", str(Path(tmp) / "csv")),
        ):
            _clean_exit(argv, mutation, at)
