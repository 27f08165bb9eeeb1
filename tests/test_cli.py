import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURES
from test_fan import fan_game
from test_regions import urgent_reset_game
from test_solver import corrupting_sweep

from ptgsolve import document, model, strategy
from ptgsolve.cli import main
from ptgsolve.exactmath import format_value
from ptgsolve.model import parse_game, serialize_game

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parents[1] / "src"


def run_ptg(*argv):
    """The CLI in a fresh interpreter, so an uncaught error reaches stderr
    as a traceback the way it would reach a user."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ptgsolve.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _fig1_with(path, raw: str) -> str:
    """fig1.json as text with the field at path replaced by raw JSON text."""
    doc = json.loads((FIXTURES / "fig1.json").read_text())
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = "@raw@"
    return json.dumps(doc).replace('"@raw@"', raw)


@pytest.fixture()
def fig1_solution(tmp_path, capsys):
    out = tmp_path / "fig1.values.json"
    code, _, _ = run_cli(capsys, "solve", str(FIXTURES / "fig1.json"), "--out", str(out))
    assert code == 0
    return out


def test_solve_fig1_matches_committed_fixture(fig1_solution):
    committed = (FIXTURES / "fig1.values.json").read_bytes()
    assert fig1_solution.read_bytes() == committed


@pytest.mark.parametrize(
    "name", ["guarded_jump", "urgent_border", "reset_chain", "appc", "urgent_all"]
)
def test_solve_guarded_jump_matches_committed_fixture(tmp_path, capsys, name):
    # the region pipeline's documents.  guarded_jump: g3 is +inf on [0, 1],
    # keeps a point segment of its own at 1 and jumps to a finite value
    # after it.  urgent_border: the urgent u may not fire its edge on {1}
    # from inside (0, 1); values that let it do so pass `ptg verify`, so
    # only the bytes pin them.  reset_chain: the one fixture that enters a
    # final (bf) after a reset, which reads bf's cost line at 0.  Two sptg
    # documents ride along: appc, where
    # Min switches at an accumulated-cost threshold, and urgent_all, where
    # no location may wait, so the window evaluator has no wait clone.
    out = tmp_path / f"{name}.values.json"
    code, _, _ = run_cli(capsys, "solve", str(FIXTURES / f"{name}.json"), "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (FIXTURES / f"{name}.values.json").read_bytes()


def test_solve_fig1_in_region_mode_matches_committed_fixture(tmp_path, capsys):
    # fig1 through the region pipeline: point components at 0 and 1 and
    # open windows of (0, 1) whose sweeps reject and re-anchor, all compiled
    # straight from the region graph
    out = tmp_path / "fig1.regions.json"
    fig1 = str(FIXTURES / "fig1.json")
    code, _, _ = run_cli(capsys, "solve", fig1, "--mode", "reset-acyclic", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == (FIXTURES / "fig1.regions.json").read_bytes()


def test_solve_default_output_path(tmp_path, capsys):
    game = tmp_path / "copy.json"
    game.write_text((FIXTURES / "fig1.json").read_text())
    code, out, _ = run_cli(capsys, "solve", str(game))
    assert code == 0
    assert (tmp_path / "copy.values.json").exists()
    assert f"wrote: {tmp_path / 'copy.values.json'}" in out


def test_solve_report_shape(tmp_path, capsys):
    out = tmp_path / "v.json"
    code, stdout, stderr = run_cli(
        capsys, "solve", str(FIXTURES / "fig1.json"), "--out", str(out)
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "command: solve"
    assert lines[1].startswith("input: ") and "sha256=" in lines[1]
    assert "mode: sptg" in lines
    assert lines[-1] == "verdict: ok"
    assert stderr.startswith("elapsed: ")
    assert "elapsed" not in stdout


def test_solution_document_content(fig1_solution):
    doc = json.loads(fig1_solution.read_text())
    assert doc["mode"] == "sptg"
    assert doc["clock_bound"] == 1
    seg = doc["values"]["l1"][0]
    assert seg["points"][0] == {"x": "0", "v": "-19/2"}
    assert seg["points"][-1] == {"x": "1", "v": "0"}
    assert doc["trace"]["boundaries"] == ["1", "3/4", "1/2", "1/4", "0"]
    assert doc["strategies"]["min"]["sigma1"]
    assert doc["strategies"]["max"]


def test_solve_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run_cli(
            capsys, "solve", str(FIXTURES / "fig1.json"), "--out", str(out)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "name, mode, x", [("fig1", "sptg", 1), ("fig1", "reset-acyclic", 1)], ids=["fig1-1", "fig1-reset-acyclic-1"]
)
def test_internal_error_exits_6_with_one_line(monkeypatch, tmp_path, capsys, name, mode, x):
    """A broken invariant is a fault of ptgsolve, not of the input: exit 6
    and one line on stderr naming its phase and valuation.  A round bound
    of 0 breaks the first value-iteration run of either pipeline: fig1's
    pruning at its clock bound 1, and in the region pipeline its first
    component with a cycle, the point component of l1, l2, l3, l5 and l6
    at 1.  reset_chain, at its clock bound 2, served the region pipeline
    until its components, none with a cycle, stopped running value
    iteration."""
    from ptgsolve import urgent

    monkeypatch.setattr(urgent, "_round_bound", lambda *args: 0)
    out = tmp_path / "x.json"
    code, stdout, err = run_cli(capsys, "solve", str(FIXTURES / f"{name}.json"), "--mode", mode, "--out", str(out))
    assert code == 6
    assert stdout == ""
    assert err.splitlines() == [f"internal error: value iteration, x = {x}: exceeded its round bound 0"]
    assert not out.exists()


def _stretched_urgent_border(tmp_path) -> Path:
    """fixtures/urgent_border.json with its clock bound and every guard
    end at 1 moved to 2: its open component {m, u} in (0, 2) has a cycle."""
    game = json.loads((FIXTURES / "urgent_border.json").read_text())
    game["clock_bound"] = 2
    for t in game["transitions"]:
        t["guard"] = {k: "2" if v == "1" else v for k, v in t["guard"].items()}
    path = tmp_path / "urgent_border2.json"
    path.write_text(json.dumps(game))
    return path


def test_pruning_error_in_a_window_names_the_window_and_the_clock(monkeypatch, tmp_path, capsys):
    """A region window's sweep prunes on the window's own variable; a
    failure there is reported at the clock, with the window named.  With
    only pruning's round bound at 0, the window [0, 2] of {m, u} in
    urgent_border stretched to clock bound 2 fails at its right end,
    which the window's own variable puts at 1.  reset_chain's window
    [1, 2] of b showed this until b, with no cycle, stopped being swept."""
    from ptgsolve import solver, urgent

    class Unbounded(urgent.InstantEvaluator):
        def _place(self, *args):
            super()._place(*args)
            self.bound = 0

    monkeypatch.setattr(solver, "InstantEvaluator", Unbounded)
    out = tmp_path / "x.json"
    code, stdout, err = run_cli(capsys, "solve", str(_stretched_urgent_border(tmp_path)), "--out", str(out))
    assert code == 6
    assert stdout == ""
    assert err.splitlines() == [
        "internal error: value iteration at window [0, 2], x = 2: exceeded its round bound 0"
    ]


def test_synthesis_error_exits_6_with_one_line(monkeypatch, tmp_path, capsys):
    """A cell whose anchored run disagrees with the recorded values stops
    `ptg solve` before it writes a document."""
    corrupting_sweep(monkeypatch, 0)
    out = tmp_path / "x.json"
    code, stdout, err = run_cli(capsys, "solve", str(FIXTURES / "fig1.json"), "--out", str(out))
    assert code == 6
    assert stdout == ""
    assert err.splitlines() == [
        "internal error: synthesis at l1, x = 19/20: anchored value of the cell [9/10, 1) "
        "disagrees with the computed value function"
    ]
    assert not out.exists()


def test_solve_fig3_reports_reset_cycle(capsys):
    code, out, err = run_cli(capsys, "solve", str(FIXTURES / "fig3.json"))
    assert code == 3
    assert out == ""
    assert "l0 -> l1 -> l0" in err


def test_solve_game_whose_only_reset_cycle_is_unfireable(tmp_path, capsys):
    # u's reset edge on {1} could close u -> x -> u only if u, which is
    # urgent and entered only before 1, could fire it from inside (0, 1)
    game = tmp_path / "urgent_reset.json"
    game.write_text(serialize_game(urgent_reset_game()))
    out = tmp_path / "urgent_reset.values.json"
    code, _, err = run_cli(capsys, "solve", str(game), "--out", str(out))
    assert code == 0, err
    code, stdout, _ = run_cli(capsys, "verify", str(game), str(out))
    assert code == 0
    assert "verdict: pass" in stdout.splitlines()


def test_solve_rejects_deadlocked_game(tmp_path, capsys):
    doc = {
        "clock_bound": 1,
        "locations": [
            {"name": "a", "owner": "min", "rate": 0, "urgent": False},
            {
                "name": "f",
                "owner": "final",
                "rate": 0,
                "urgent": False,
                "final_cost": {"slope": "0", "intercept": "0"},
            },
        ],
        "transitions": [],
    }
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "deadlock" in err


def test_solve_rejects_non_boolean_flags_and_boolean_numbers(tmp_path, capsys):
    # a game with every such field of the wrong JSON type once solved and
    # exited 0; each field alone is covered in test_model
    doc = json.loads((FIXTURES / "fig1.json").read_text())
    doc["clock_bound"] = True
    doc["locations"][0]["urgent"] = "false"
    doc["transitions"][0]["reset"] = "no"
    doc["transitions"][0]["weight"] = True
    doc["transitions"][0]["guard"]["lo_closed"] = "no"
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", str(path), "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "clock_bound: must be an integer, got True" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "path, value",
    [
        (("transitions", 0, "guard", "hi"), True),
        (("transitions", 0, "guard", "lo"), 0.0),
        (("locations", 7, "final_cost", "intercept"), False),
    ],
    ids=["hi", "lo", "intercept"],
)
def test_solve_rejects_json_numbers_as_rationals(tmp_path, capsys, path, value):
    # each once read as the rational it stands for (true as 1) and exited 0
    doc = json.loads((FIXTURES / "fig1.json").read_text())
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    game = tmp_path / "numbers.json"
    game.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", str(game), "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "must be a string literal" in err


@pytest.mark.parametrize(
    "argv",
    [
        (
            "verify",
            str(FIXTURES / "fig1.json"),
            str(FIXTURES / "fig1.values.json"),
            "--grid",
            "-5",
        ),
        (
            "simulate",
            str(FIXTURES / "fig1.json"),
            str(FIXTURES / "fig1.values.json"),
            "--from",
            "l1:0",
            "--opponents",
            "-3",
        ),
        ("solve", str(FIXTURES / "fig1.json"), "--out", "unused.json", "--max-steps", "-1"),
    ],
    ids=["grid", "opponents", "max-steps"],
)
def test_count_flags_reject_negative_values(capsys, argv):
    # --grid -5 verified with 11 points, --opponents -3 played no opponent
    # and --max-steps -1 ran into the budget (exit 4)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        _fig1_with(("transitions", 0, "weight"), "9" * 5000),
        _fig1_with(("clock_bound",), "1" + "0" * 4999),
        "[" * 100000,
        b"\xff\xfe{}",
    ],
    ids=["huge-weight", "huge-clock-bound", "deep-nesting", "not-utf8"],
)
def test_solve_unreadable_game_exits_2_without_traceback(tmp_path, text):
    # each once ended in a traceback: json.loads raised past the handler for
    # JSONDecodeError, or the file did not decode as UTF-8
    game = tmp_path / "game.json"
    if isinstance(text, bytes):
        game.write_bytes(text)
    else:
        game.write_text(text)
    code, _, err = run_ptg("solve", str(game), "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("end", ["from", "to"])
@pytest.mark.parametrize("raw", ["[]", '["l1"]', "{}", "null", "1", "true"])
def test_solve_rejects_a_transition_end_that_is_not_a_name(tmp_path, capsys, end, raw):
    # an array or object reached Game.__post_init__ unchecked and escaped
    # main as TypeError: unhashable type
    game = tmp_path / "ends.json"
    game.write_text(_fig1_with(("transitions", 0, end), raw))
    code, out, err = run_cli(capsys, "solve", str(game), "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"transitions[0].{end}: must be a string, got " in err
    assert not (tmp_path / "x.json").exists()


def test_solve_rejects_exponent_literal(tmp_path, capsys):
    # Fraction("1e10000000") alone takes seconds and grows without bound
    game = tmp_path / "exp.json"
    game.write_text(_fig1_with(("transitions", 0, "guard", "lo"), '"1e10000000"'))
    code, _, err = run_cli(capsys, "solve", str(game), "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "not a rational literal: '1e10000000'" in err


def _exit_game(owners: dict, edges: list) -> str:
    """A game file: the named locations at rate 1, a final f worth 0, and
    (source, guard, weight) edges into f."""
    locs = [{"name": n, "owner": o, "rate": 1, "urgent": False} for n, o in owners.items()]
    locs.append({"name": "f", "owner": "final", "final_cost": {"slope": "0", "intercept": "0"}})
    trans = [{"from": n, "to": "f", "guard": gd, "reset": False, "weight": w} for n, gd, w in edges]
    return json.dumps({"clock_bound": 1, "locations": locs, "transitions": trans})


_FULL = {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True}
_AT_ONE = {"lo": "1", "hi": "1", "lo_closed": True, "hi_closed": True}


@pytest.mark.parametrize(
    "text",
    [
        # guarded, so a window game names its first stub "@s0" as well
        _exit_game({"@s0": "max"}, [("@s0", _FULL, 1), ("@s0", _AT_ONE, 2)]),
        # simple, so the sweep clones the waiting location x as "x@wait"
        _exit_game({"x": "min", "x@wait": "min"}, [("x", _FULL, 0), ("x@wait", _FULL, 0)]),
    ],
    ids=["stub-name", "wait-clone-name"],
)
def test_solve_refuses_names_the_solver_reserves(tmp_path, capsys, text):
    # both games were once refused as having a duplicate location: the
    # solver's own location collided with one of the file's
    game = tmp_path / "game.json"
    game.write_text(text)
    code, _, err = run_cli(capsys, "solve", str(game), "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "contains '@', reserved for the solver's locations" in err
    assert "duplicate location" not in err


def test_solve_refuses_a_name_that_is_not_utf8(tmp_path, capsys):
    # "a\ud800" is valid JSON; writing its document raised
    # UnicodeEncodeError out of main and left an empty output file
    game = tmp_path / "game.json"
    game.write_text(_exit_game({"a\ud800": "min"}, [("a\ud800", _FULL, 0)]))
    out = tmp_path / "x.json"
    code, stdout, err = run_cli(capsys, "solve", str(game), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == ["error: locations[0].name: 'a\\ud800' is not UTF-8 encodable"]
    assert not out.exists()


def test_solve_writes_a_non_ascii_name_as_utf8(tmp_path, capsys):
    game = tmp_path / "game.json"
    game.write_text(_exit_game({"café": "min"}, [("café", _FULL, 0)]))
    out = tmp_path / "x.json"
    code, _, _ = run_cli(capsys, "solve", str(game), "--out", str(out))
    assert code == 0
    assert '\n  "values": {\n    "café": [\n'.encode("utf-8") in out.read_bytes()
    assert set(document.load(str(out)).values) == {"café", "f"}
    assert run_cli(capsys, "verify", str(game), str(out))[0] == 0
    g = parse_game(game.read_text())
    assert parse_game(serialize_game(g)) == g


def test_solve_encodes_the_document_before_opening_its_file(tmp_path, capsys, monkeypatch):
    # a document that cannot be encoded leaves the file it would replace as it was
    out = tmp_path / "fig1.values.json"
    out.write_bytes(b"kept")
    monkeypatch.setattr(document, "dumps", lambda g, mode, sol: "\ud800")
    with pytest.raises(UnicodeEncodeError):
        main(["solve", str(FIXTURES / "fig1.json"), "--out", str(out)])
    assert out.read_bytes() == b"kept"


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "no-such-file.json")
    assert code == 2
    assert "error" in err


def test_solve_budget_exit_code(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "solve",
        str(FIXTURES / "fig1.json"),
        "--out",
        str(tmp_path / "x.json"),
        "--max-steps",
        "1",
    )
    assert code == 4
    assert "budget" in err


def test_budget_charges_components_without_a_cycle_nothing(capsys, tmp_path):
    """`--max-steps` counts value-iteration runs, and a copy with no edge
    into itself is solved without one: every component of reset_chain is
    such a copy, so it solves under a budget of 0 (it exited 4), and its
    document is the committed one.  fig1 in the region pipeline still
    sweeps its cycles, and runs out."""
    out = tmp_path / "x.json"
    code, _, err = run_cli(capsys, "solve", str(FIXTURES / "reset_chain.json"), "--out", str(out), "--max-steps", "0")
    assert code == 0, err
    assert out.read_bytes() == (FIXTURES / "reset_chain.values.json").read_bytes()
    code, _, err = run_cli(
        capsys, "solve", str(FIXTURES / "fig1.json"), "--mode", "reset-acyclic", "--out", str(out), "--max-steps", "0"
    )
    assert code == 4
    assert err.splitlines() == ["budget exceeded: sweep exceeded 0 value-iteration runs"]


def test_solve_explicit_sptg_mode_rejects_guarded_game(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "solve",
        str(FIXTURES / "reset_chain.json"),
        "--mode",
        "sptg",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error" in err


def test_solve_all_infinite_matches_committed_fixture(tmp_path, capsys):
    # pruning empties the core: Max's trap only loops, at weight 1, so it is
    # +inf and no non-final location is left to sweep.  The document holds
    # the values and neither strategies nor a trace.
    out = tmp_path / "all_infinite.values.json"
    code, stdout, _ = run_cli(capsys, "solve", str(FIXTURES / "all_infinite.json"), "--out", str(out))
    assert code == 0
    assert "strategies: none" in stdout.splitlines()
    assert out.read_bytes() == (FIXTURES / "all_infinite.values.json").read_bytes()


def test_solve_pruned_empty_game(tmp_path, capsys):
    guard = {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True}
    doc = {
        "clock_bound": 1,
        "locations": [
            {"name": "m1", "owner": "min", "rate": 0, "urgent": False},
            {"name": "m2", "owner": "min", "rate": 0, "urgent": False},
            {
                "name": "f",
                "owner": "final",
                "rate": 0,
                "urgent": False,
                "final_cost": {"slope": "1", "intercept": "0"},
            },
        ],
        "transitions": [
            {"from": "m1", "to": "m1", "guard": guard, "reset": False, "weight": -1},
            {"from": "m1", "to": "f", "guard": guard, "reset": False, "weight": 0},
            {"from": "m2", "to": "m2", "guard": guard, "reset": False, "weight": 1},
        ],
    }
    game = tmp_path / "allinf.json"
    game.write_text(json.dumps(doc))
    values = tmp_path / "allinf.values.json"
    code, _, _ = run_cli(capsys, "solve", str(game), "--out", str(values))
    assert code == 0
    sol = json.loads(values.read_text())
    assert sol["strategies"] is None
    assert sol["values"]["m1"] == [{"from": "0", "to": "1", "infinite": "-inf"}]
    assert sol["values"]["m2"] == [{"from": "0", "to": "1", "infinite": "inf"}]
    assert sol["values"]["f"][0]["points"] == [
        {"x": "0", "v": "0"},
        {"x": "1", "v": "1"},
    ]
    code, out, _ = run_cli(capsys, "verify", str(game), str(values))
    assert code == 0
    assert "verdict: pass" in out


def test_verify_fig1_grid_32(fig1_solution, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        str(FIXTURES / "fig1.json"),
        str(fig1_solution),
        "--grid",
        "32",
    )
    assert code == 0
    assert "check: coverage ok" in out
    assert "check: finals ok" in out
    assert "check: lipschitz ok (cap 16)" in out
    assert "verdict: pass" in out


def test_verify_rejects_perturbed_breakpoint(fig1_solution, tmp_path, capsys):
    doc = json.loads(fig1_solution.read_text())
    points = doc["values"]["l1"][0]["points"]
    assert points[1] == {"x": "1/4", "v": "-6"}
    points[1]["v"] = "-5999/1000"
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "verify", str(FIXTURES / "fig1.json"), str(bad), "--grid", "32"
    )
    assert code == 5
    assert "verdict: fail" in out
    assert any("FAIL bellman" in line for line in out.splitlines())


def test_verify_rejects_wrong_final(fig1_solution, tmp_path, capsys):
    doc = json.loads(fig1_solution.read_text())
    doc["values"]["lf"][0]["points"][1]["v"] = "1"
    bad = tmp_path / "badfinal.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(bad))
    assert code == 5
    assert "FAIL finals" in out


def test_verify_rejects_missing_location(fig1_solution, tmp_path, capsys):
    doc = json.loads(fig1_solution.read_text())
    del doc["values"]["l4"]
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(bad))
    assert code == 5
    assert "FAIL coverage" in out


@pytest.mark.parametrize(
    "text",
    [
        '{"mode": "sptg", "values": {}, "clock_bound": ' + "7" * 5000 + "}",
        "[" * 100000,
    ],
    ids=["huge-clock-bound", "deep-nesting"],
)
def test_verify_unreadable_document_exits_2_without_traceback(tmp_path, text):
    doc = tmp_path / "values.json"
    doc.write_text(text)
    code, _, err = run_ptg("verify", str(FIXTURES / "fig1.json"), str(doc))
    assert code == 2
    assert "not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("marker", ["inf", "-inf"])
def test_verify_rejects_a_reversed_infinite_segment(fig1_solution, tmp_path, capsys, marker):
    # an infinite segment has only its two ends, which must be in order
    doc = json.loads(fig1_solution.read_text())
    doc["values"]["l1"] = [{"from": "1", "to": "0", "infinite": marker}]
    bad = tmp_path / "reversed.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(bad))
    assert code == 2
    assert err.splitlines() == ["error: values.l1[0]: breakpoints must be strictly increasing"]


def test_verify_garbage_values_file(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "field, old, value",
    [("x", "1", True), ("v", "0", False), ("from", "0", 0), ("to", "1", 1.0)],
)
def test_verify_rejects_json_numbers_in_documents(
    fig1_solution, tmp_path, capsys, field, old, value
):
    # each stands for the literal it replaces and once verified as pass
    doc = json.loads(fig1_solution.read_text())
    seg = doc["values"]["l1"][0]
    obj = seg if field in ("from", "to") else seg["points"][-1]
    assert obj[field] == old
    obj[field] = value
    bad = tmp_path / "numbers.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(bad))
    assert code == 2
    assert "must be a string literal" in err


@pytest.mark.parametrize(
    "name, x, witness",
    [
        # pick is raised at 1/8, so Max at layer1 gains by waiting there
        ("pick", "1/8", "FAIL bellman: layer1 not locally optimal at 0"),
        # layer1 is raised at the clock bound, where Min at layer2 may wait
        ("layer1", "1", "FAIL bellman: layer2 not locally optimal at 0"),
        ("pick", "3/8", "FAIL bellman: pick not locally optimal at 5/17"),
    ],
)
def test_verify_corrupted_fan_names_the_first_failure(tmp_path, capsys, name, x, witness):
    # the witnesses of the per-valuation check the oracle replaced
    game = tmp_path / "fan.json"
    game.write_text(serialize_game(fan_game(8, (1, -2, 3))))
    values = tmp_path / "fan.values.json"
    assert run_cli(capsys, "solve", str(game), "--out", str(values))[0] == 0
    doc = json.loads(values.read_text())
    (point,) = [p for p in doc["values"][name][0]["points"] if p["x"] == x]
    point["v"] = str(F(point["v"]) + F(1, 100))
    values.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(game), str(values))
    assert code == 5
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [witness]


def test_solve_then_verify_full_corpus(tmp_path, capsys):
    for name in ("fig1", "appc", "urgent_all", "reset_chain"):
        values = tmp_path / f"{name}.values.json"
        code, _, _ = run_cli(
            capsys, "solve", str(FIXTURES / f"{name}.json"), "--out", str(values)
        )
        assert code == 0, name
        code, out, _ = run_cli(
            capsys, "verify", str(FIXTURES / f"{name}.json"), str(values)
        )
        assert code == 0, name
        assert "verdict: pass" in out


def test_verify_region_solution_reports_regions(tmp_path, capsys):
    values = tmp_path / "chain.values.json"
    run_cli(capsys, "solve", str(FIXTURES / "reset_chain.json"), "--out", str(values))
    code, out, _ = run_cli(
        capsys, "verify", str(FIXTURES / "reset_chain.json"), str(values)
    )
    assert code == 0
    assert "mode: reset-acyclic" in out
    assert "regions: 5" in out


def _cut_l1(doc: dict, middle: list) -> None:
    """Cuts fig1's l1 at 1/2 into [0, 1/2] and [1/2, 1], middle between."""
    points = doc["values"]["l1"][0]["points"]
    assert points[2] == {"x": "1/2", "v": "-11/2"}
    left = {"from": "0", "to": "1/2", "points": points[:3]}
    right = {"from": "1/2", "to": "1", "points": points[2:]}
    doc["values"]["l1"] = [left, *middle, right]


def test_verify_rejects_a_split_location_in_sptg_mode(fig1_solution, tmp_path, capsys):
    # the cut is continuous, so only the sptg rule of one segment per
    # location rejects it
    doc = json.loads(fig1_solution.read_text())
    _cut_l1(doc, [])
    split = tmp_path / "split.json"
    split.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(split))
    assert code == 5
    assert "FAIL coverage: l1 split into segments in sptg mode" in out.splitlines()
    assert "verdict: fail" in out


def _points(*pairs) -> list:
    return [{"x": x, "v": v} for x, v in pairs]


@pytest.mark.parametrize(
    "fixture, name, segments, witness",
    [
        (
            "fig1.values.json",
            "l4",
            [{"from": "0", "to": "1", "points": _points(("0", "-4"), ("2/3", "25/3"), ("1", "-7"))}],
            "FAIL lipschitz: l4 has slope 37/2 on [0, 2/3], cap 16",
        ),
        (
            "fig1.values.json",
            "lf",
            [{"from": "0", "to": "1", "points": _points(("0", "0"), ("1/2", "1"), ("1", "0"))}],
            "FAIL finals: lf differs from its final cost at 1/2",
        ),
        (
            "fig1.regions.json",
            "l4",
            [
                {"from": "0", "to": "1/2", "points": _points(("0", "-4"), ("1/2", "-11/2"))},
                {"from": "1/2", "to": "1", "points": _points(("1/2", "-5"), ("1", "-7"))},
            ],
            "FAIL continuity: l4 jumps inside a region at 1/2",
        ),
        (
            "fig1.values.json",
            "lf",
            [{"from": "0", "to": "1", "infinite": "inf"}],
            "FAIL finals: lf marked infinite",
        ),
        (
            "fig1.regions.json",
            "lf",
            [
                {"from": "0", "to": "1", "points": _points(("0", "0"), ("1", "0"))},
                {"from": "1", "to": "1", "points": _points(("1", "1"))},
            ],
            "FAIL finals: lf differs from its final cost at 1",
        ),
        (
            "fig1.values.json",
            "ghost",
            [{"from": "0", "to": "1", "points": _points(("0", "0"), ("1", "0"))}],
            "FAIL coverage: location sets differ (extra ['ghost'], missing [])",
        ),
        (
            "fig1.values.json",
            "l4",
            [{"from": "0", "to": "1/2", "points": _points(("0", "-4"), ("1/2", "-11/2"))}],
            "FAIL coverage: l4 does not span [0, 1]",
        ),
        (
            "fig1.regions.json",
            "l4",
            [{"from": "0", "to": "1", "points": _points(("0", "-4"), ("1/3", "-4"), ("2/3", "3"), ("1", "-7"))}],
            "FAIL lipschitz: l4 has slope 21 on [1/3, 2/3], cap 16",
        ),
    ],
    ids=[
        "lipschitz",
        "finals-inner-breakpoint",
        "continuity-inside-a-region",
        "finals-infinite",
        "finals-point-segment",
        "coverage-location-sets",
        "coverage-span",
        "lipschitz-region-document",
    ],
)
def test_verify_witness_texts(tmp_path, capsys, fixture, name, segments, witness):
    # each check's witness, in full: the slope as a reduced fraction, a
    # final's inner breakpoint or point segment, a jump off the borders of
    # a region document, an infinite final, a foreign location and a
    # location that stops short of the bound
    doc = json.loads((FIXTURES / fixture).read_text())
    doc["values"][name] = segments
    bad = tmp_path / "witness.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(bad))
    assert code == 5
    assert [line for line in out.splitlines() if line.startswith(("check:", "FAIL", "verdict"))][-2:] == [
        witness,
        "verdict: fail",
    ]


def test_verify_refuses_segments_meeting_inside_a_region_by_path(tmp_path, capsys):
    """Segments end only where the function jumps, so they meet only at
    region borders.  fig1.regions.json with l4's one segment cut at 1/2,
    equal on both sides, passes the coverage and continuity checks; the
    reader's refusal names the field and the cut.  It said `no segment
    spans (0, 1)`, which names neither."""
    doc = json.loads((FIXTURES / "fig1.regions.json").read_text())
    doc["values"]["l4"] = [
        {"from": "0", "to": "1/2", "points": _points(("0", "-4"), ("1/2", "-11/2"))},
        {"from": "1/2", "to": "1", "points": _points(("1/2", "-11/2"), ("1", "-7"))},
    ]
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(bad))
    assert code == 2
    assert err.splitlines() == ["error: values.l4: segments meet at 1/2 inside the open region (0, 1)"]


def test_verify_refuses_breakpoints_that_do_not_increase(tmp_path, capsys):
    doc = json.loads((FIXTURES / "fig1.values.json").read_text())
    segment = {"from": "0", "to": "1", "points": _points(("0", "-4"), ("1/2", "-5"), ("1/4", "-6"), ("1", "-7"))}
    doc["values"]["l4"] = [segment]
    bad = tmp_path / "backwards.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(bad))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: values.l4[0]: breakpoints must be strictly increasing"]


def test_simulate_starts_from_the_point_segment_value(fig1_solution, tmp_path, capsys):
    # a point segment between two others carries the value at its point
    doc = json.loads(fig1_solution.read_text())
    _cut_l1(doc, [{"from": "1/2", "to": "1/2", "points": [{"x": "1/2", "v": "-7"}]}])
    point = tmp_path / "point.json"
    point.write_text(json.dumps(doc))
    fig1 = str(FIXTURES / "fig1.json")
    code, out, _ = run_cli(capsys, "simulate", fig1, str(point), "--from", "l1:1/2")
    assert "start: l1 x=1/2 value -7" in out.splitlines()
    # the stored strategies still realise the solved value -11/2
    assert "FAIL optimal-vs-optimal cost -11/2 differs from value -7" in out.splitlines()
    assert code == 5
    # a document whose segments leave a gap is no input for the reader
    doc["values"]["l1"] = [doc["values"]["l1"][0], doc["values"]["l1"][2]]
    doc["values"]["l1"][0]["to"] = "1/4"
    doc["values"]["l1"][0]["points"] = doc["values"]["l1"][0]["points"][:2]
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", fig1, str(gap), "--from", "l1:3/4")
    assert code == 2
    assert out == ""
    assert "coverage: l1 has a gap at 1/4..1/2" in err


def test_plot_fig1_tables(fig1_solution, tmp_path, capsys):
    outdir = tmp_path / "csv"
    code, out, _ = run_cli(capsys, "plot", str(fig1_solution), "--csv", str(outdir))
    assert code == 0
    l1 = (outdir / "l1.csv").read_text().splitlines()
    assert l1[0] == "x,v,x_dec,v_dec"
    assert l1[1] == "0,-19/2,0.000000000000,-9.500000000000"
    assert l1[2] == "1/4,-6,0.250000000000,-6.000000000000"
    assert l1[3] == "1/2,-11/2,0.500000000000,-5.500000000000"
    assert l1[4] == "3/4,-2,0.750000000000,-2.000000000000"
    assert l1[5] == "9/10,-1/5,0.900000000000,-0.200000000000"
    assert l1[6] == "1,0,1.000000000000,0.000000000000"
    assert len(l1) == 7
    l4 = (outdir / "l4.csv").read_text().splitlines()
    assert l4[1:] == [
        "0,-4,0.000000000000,-4.000000000000",
        "1,-7,1.000000000000,-7.000000000000",
    ]
    lf = (outdir / "lf.csv").read_text().splitlines()
    assert len(lf) == 3  # constant function keeps both endpoints


def test_plot_infinite_markers(tmp_path, capsys):
    doc = {
        "clock_bound": 1,
        "mode": "sptg",
        "strategies": None,
        "trace": None,
        "values": {"m": [{"from": "0", "to": "1", "infinite": "inf"}]},
    }
    values = tmp_path / "v.json"
    values.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, "plot", str(values), "--csv", str(tmp_path / "c"))
    assert code == 0
    rows = (tmp_path / "c" / "m.csv").read_text().splitlines()
    assert rows[1] == "0,inf,0.000000000000,inf"
    assert rows[2] == "1,inf,1.000000000000,inf"


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "nul\0", ".", ".."])
def test_plot_rejects_location_names_that_are_not_file_names(tmp_path, capsys, name):
    seg = [{"from": "0", "to": "1", "infinite": "inf"}]
    # "a" sorts first, so a check made while writing would leave a.csv behind
    doc = {"clock_bound": 1, "mode": "sptg", "values": {"a": seg, name: seg}}
    values = tmp_path / "v.json"
    values.write_text(json.dumps(doc))
    outdir = tmp_path / "out" / "csv"
    code, _, err = run_cli(capsys, "plot", str(values), "--csv", str(outdir))
    assert code == 2
    assert "not a plain file name" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["v.json"]


def test_simulate_l7_reaches_minus_sixteen(fig1_solution, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        str(FIXTURES / "fig1.json"),
        str(fig1_solution),
        "--from",
        "l7:0",
    )
    assert code == 0
    assert "start: l7 x=0 value -16" in out
    assert "check: cost equals value" in out
    assert "verdict: pass" in out


def test_simulate_l1_at_one_costs_zero(fig1_solution, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        str(FIXTURES / "fig1.json"),
        str(fig1_solution),
        "--from",
        "l1:1",
    )
    assert code == 0
    assert "start: l1 x=1 value 0" in out
    assert "verdict: pass" in out


def test_simulate_final_start_is_an_empty_play(fig1_solution, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        str(FIXTURES / "fig1.json"),
        str(fig1_solution),
        "--from",
        "lf:1/2",
    )
    assert code == 0
    lines = out.splitlines()
    i = lines.index("play: optimal-vs-optimal")
    assert lines[i + 1] == "  final lf x=1/2 cost 0"


def test_simulate_every_probe_and_seed(fig1_solution, capsys):
    for probe in ("l1:0", "l2:1/4", "l3:1/2", "l5:3/4", "l6:9/10"):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            str(FIXTURES / "fig1.json"),
            str(fig1_solution),
            "--from",
            probe,
            "--opponents",
            "5",
            "--seed",
            "7",
        )
        assert code == 0, probe
        assert "verdict: pass" in out


def test_simulate_is_deterministic(fig1_solution, capsys):
    args = (
        "simulate",
        str(FIXTURES / "fig1.json"),
        str(fig1_solution),
        "--from",
        "l1:0",
        "--seed",
        "3",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_without_strategies(tmp_path, capsys):
    values = tmp_path / "chain.values.json"
    run_cli(capsys, "solve", str(FIXTURES / "reset_chain.json"), "--out", str(values))
    code, _, err = run_cli(
        capsys,
        "simulate",
        str(FIXTURES / "reset_chain.json"),
        str(values),
        "--from",
        "a:0",
    )
    assert code == 2
    assert "no strategies" in err


def test_simulate_rejects_boolean_transition_indices(fig1_solution, tmp_path, capsys):
    # false and true would otherwise stand for transitions 0 and 1
    doc = json.loads(fig1_solution.read_text())

    def booleans(obj):
        if isinstance(obj, dict):
            if obj.get("t_index") in (0, 1):
                obj["t_index"] = bool(obj["t_index"])
            for v in obj.values():
                booleans(v)
        elif isinstance(obj, list):
            for v in obj:
                booleans(v)

    booleans(doc["strategies"])
    bad = tmp_path / "booleans.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "simulate", str(FIXTURES / "fig1.json"), str(bad), "--from", "l1:1/4"
    )
    assert code == 2
    assert "strategies.min.sigma1.l1.rows[0].move.t_index: must be an integer, got False" in err
    assert "verdict: pass" not in out


@pytest.mark.parametrize(
    "path",
    [("max",), ("min", "sigma1"), ("min", "sigma2")],
    ids=["max", "min.sigma1", "min.sigma2"],
)
def test_simulate_rejects_a_strategy_map_given_as_an_array(tmp_path, capsys, path):
    # each is read as a map from location names; an array made .items() fail
    doc = json.loads((FIXTURES / "fig1.values.json").read_text())
    obj = doc["strategies"]
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = []
    bad = tmp_path / "array.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "simulate", str(FIXTURES / "fig1.json"), str(bad), "--from", "l1:1/2"
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: strategies.{'.'.join(path)}: expected an object, got list"]


@pytest.mark.parametrize("raw", [[], ["0"], ["0", "1/4", "1/2"], "0", {"lo": "0"}, None])
def test_simulate_rejects_a_strategy_interval_that_is_not_a_pair(tmp_path, capsys, raw):
    # [] raised IndexError out of main; three literals were read as the
    # first two without complaint
    doc = json.loads((FIXTURES / "fig1.values.json").read_text())
    doc["strategies"]["max"]["l2"]["rows"][0]["interval"] = raw
    bad = tmp_path / "interval.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "simulate", str(FIXTURES / "fig1.json"), str(bad), "--from", "l2:1/4"
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: strategies.max.l2.rows[0].interval: must be a list of two literals, got {raw!r}"
    ]


@pytest.mark.parametrize(
    "path, raw, line",
    [
        (("max", "l2", "rows", 0, "interval"), [], "strategies.max.l2.rows[0].interval: must be a list of two literals, got []"),
        (("min", "sigma2", "l1", "t_index"), 12, "strategies.min.sigma2.l1.t_index: transition 12 does not exist"),
        (("min", "sigma1"), [], "strategies.min.sigma1: expected an object, got list"),
    ],
    ids=["empty-interval", "t-index-out-of-range", "map-as-array"],
)
def test_verify_reads_the_strategies_object(tmp_path, capsys, path, raw, line):
    # verify passed each of these, exit 0, without reading the strategies
    # that simulate refuses
    doc = json.loads((FIXTURES / "fig1.values.json").read_text())
    obj = doc["strategies"]
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = raw
    bad = tmp_path / "strategies.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(FIXTURES / "fig1.json"), str(bad))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {line}"]


def test_plot_reads_the_strategies_object(tmp_path, capsys):
    # plot read only the values and exited 0, writing its tables
    doc = json.loads((FIXTURES / "fig1.values.json").read_text())
    doc["strategies"]["max"]["l2"]["rows"][0]["interval"] = []
    bad = tmp_path / "strategies.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "plot", str(bad), "--csv", str(tmp_path / "csv"))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: strategies.max.l2.rows[0].interval: must be a list of two literals, got []"]
    assert not (tmp_path / "csv").exists()


def test_plot_builds_no_strategy_objects(tmp_path, capsys, monkeypatch):
    # Without its game a document's strategies cannot be played, so plot
    # checks their structure and builds nothing from them: building them
    # made 23 Moves and three strategy objects per plot of fig1's document,
    # which a read against the game still makes.
    built = []
    for cls in (strategy.Move, strategy.FPStrategy, strategy.SwitchingStrategy):

        def counting(self, *args, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    values = str(FIXTURES / "fig1.values.json")
    code, _, _ = run_cli(capsys, "plot", values, "--csv", str(tmp_path))
    assert code == 0 and (tmp_path / "l1.csv").exists()
    assert built == []
    s = document.load(values).strategies
    assert set(s) == {"max", "min"} and s["min"]["threshold"] == -81
    document.load(values, None, parse_game((FIXTURES / "fig1.json").read_text()))
    assert sorted(set(built)) == ["FPStrategy", "Move", "SwitchingStrategy"]
    assert (built.count("Move"), len(built)) == (23, 26)


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_each_file_is_read_once(monkeypatch, capsys, command):
    # verify and simulate read the document a second time for its
    # strategies, with the literals of its values parsed again
    calls = []
    read = model.read

    def counted(table, *args):
        calls.append(table)
        return read(table, *args)

    monkeypatch.setattr(model, "read", counted)
    monkeypatch.setattr(document, "read", counted)
    extra = ["--from", "l1:1/2"] if command == "simulate" else []
    code, _, _ = run_cli(capsys, command, str(FIXTURES / "fig1.json"), str(FIXTURES / "fig1.values.json"), *extra)
    assert code == 0
    assert calls == [model.GAME, model.VALUES]


L2_ROW = ("max", "l2", "rows", 0, "move", "target_x")
WAIT = "strategies.max.l2.rows[0].move.target_x: a wait must end in [1/4, 1], got"


@pytest.mark.parametrize(
    "path, raw, line",
    [
        (("min", "sigma2", "l1", "t_index"), 4, "strategies.min.sigma2.l1.t_index: transition 4 leaves l3"),
        (
            ("min", "sigma1", "l3", "rows", 0, "move", "t_index"),
            0,
            "strategies.min.sigma1.l3.rows[0].move.t_index: transition 0 leaves l1",
        ),
        (("max", "l2", "at_end", "t_index"), 0, "strategies.max.l2.at_end.t_index: transition 0 leaves l1"),
        (
            ("max", "l2", "rows", 0, "interval"),
            ["1/4", "0"],
            "strategies.max.l2.rows[0].interval: must end above its start, got ['1/4', '0']",
        ),
        (
            ("max", "l4", "rows", 0, "interval"),
            ["1", "1"],
            "strategies.max.l4.rows[0].interval: must end above its start, got ['1', '1']",
        ),
        (L2_ROW, "-1", f"{WAIT} -1"),
        (L2_ROW, "5", f"{WAIT} 5"),
        (L2_ROW, "1/8", f"{WAIT} 1/8"),
        (
            ("max", "l2", "at_end"),
            {"type": "wait_until", "to": "l5", "t_index": 3, "target_x": "1/2"},
            "strategies.max.l2.at_end.target_x: a wait must end in [1, 1], got 1/2",
        ),
        (
            ("min", "sigma1", "l1", "rows", 0, "move"),
            {"type": "wait_until", "to": "l2", "t_index": 0, "target_x": "2"},
            "strategies.min.sigma1.l1.rows[0].move.target_x: a wait must end in [1/4, 1], got 2",
        ),
    ],
    ids=[
        "sigma2-of-l3", "sigma1-row-of-l1", "at-end-of-l1", "reversed-interval", "empty-interval",
        "wait-below-the-clock", "wait-past-the-bound", "wait-inside-the-row", "at-end-wait-before-the-bound",
        "sigma1-wait-past-the-bound",
    ],
)
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_strategy_reader_refuses_foreign_moves_and_reversed_rows(tmp_path, capsys, command, path, raw, line):
    # a move must fire a transition of the location it is listed under, a
    # row must cover an interval that ends above its start, and a wait must
    # end between its row's end and the clock bound (at the bound in
    # at_end); verify passed each, exit 0, and simulate from l1:1/2 too
    doc = json.loads((FIXTURES / "fig1.values.json").read_text())
    obj = doc["strategies"]
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = raw
    bad = tmp_path / "strategies.json"
    bad.write_text(json.dumps(doc))
    extra = ["--from", "l1:1/2"] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, str(FIXTURES / "fig1.json"), str(bad), *extra)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {line}"]


MISSING = object()
L2_TO = ("max", "l2", "rows", 0, "move", "to")


@pytest.mark.parametrize(
    "path, raw, line",
    [
        (L2_TO, "nowhere", "strategies.max.l2.rows[0].move.to: transition 2 enters l3"),
        (L2_TO, "l5", "strategies.max.l2.rows[0].move.to: transition 2 enters l3"),
        (L2_TO, MISSING, "strategies.max.l2.rows[0].move.to: missing"),
        (("max", "l4", "at_end", "to"), ["lf"], "strategies.max.l4.at_end.to: transition 7 enters lf"),
        (("min", "sigma1", "l1", "at_end", "to"), "l2", "strategies.min.sigma1.l1.at_end.to: transition 1 enters lf"),
        (("min", "sigma2", "l1", "to"), "l2", "strategies.min.sigma2.l1.to: transition 1 enters lf"),
        (
            ("min", "sigma2", "l1"),
            {"type": "wait_until", "to": "lf", "t_index": 1, "target_x": "5"},
            "strategies.min.sigma2.l1.type: the fallback fires now, it does not wait",
        ),
        (
            ("min", "sigma2", "l1"),
            {"type": "wait_until", "to": "lf", "t_index": 1, "target_x": "1"},
            "strategies.min.sigma2.l1.type: the fallback fires now, it does not wait",
        ),
    ],
    ids=[
        "to-nowhere", "to-another-location", "to-missing", "at-end-to-a-list", "sigma1-at-end-to",
        "sigma2-to", "sigma2-waits-past-the-bound", "sigma2-waits-to-the-bound",
    ],
)
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_strategy_reader_refuses_a_wrong_target_and_a_waiting_fallback(tmp_path, capsys, command, path, raw, line):
    # a move names its transition's target as its `to`, and Min's fallback
    # (sigma2) fires now: the reader once kept only a move's t_index, so
    # verify passed each of these, exit 0, and simulate from l1:1/2 too,
    # playing a sigma2 wait as a move that fires now
    doc = json.loads((FIXTURES / "fig1.values.json").read_text())
    obj = doc["strategies"]
    for key in path[:-1]:
        obj = obj[key]
    if raw is MISSING:
        del obj[path[-1]]
    else:
        obj[path[-1]] = raw
    bad = tmp_path / "strategies.json"
    bad.write_text(json.dumps(doc))
    extra = ["--from", "l1:1/2"] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, str(FIXTURES / "fig1.json"), str(bad), *extra)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {line}"]


def _l2_rows(rows: list) -> None:
    # fig1's Max l2 has rows on [0, 1/4), [1/4, 1/2), [1/2, 3/4) and [3/4, 1)
    assert [r["interval"] for r in rows] == [["0", "1/4"], ["1/4", "1/2"], ["1/2", "3/4"], ["3/4", "1"]]


def _gap(doc):
    rows = doc["strategies"]["max"]["l2"]["rows"]
    _l2_rows(rows)
    del rows[1]


def _overlap(doc):
    rows = doc["strategies"]["max"]["l2"]["rows"]
    _l2_rows(rows)
    rows[2]["interval"] = ["1/3", "3/4"]


def _min_table_under_max(doc):
    doc["strategies"]["max"]["l1"] = doc["strategies"]["min"]["sigma1"]["l1"]


def _max_table_under_sigma1(doc):
    doc["strategies"]["min"]["sigma1"]["l2"] = doc["strategies"]["max"]["l2"]


def _no_table(doc):
    del doc["strategies"]["max"]["l4"]


def _clock_bound(doc):
    doc["clock_bound"] = 7


@pytest.mark.parametrize(
    "mutate, line",
    [
        (_gap, "strategies.max.l2.rows: do not tile [0, 1]: a gap at 1/4..1/2"),
        (_overlap, "strategies.max.l2.rows: do not tile [0, 1]: an overlap at 1/3..1/2"),
        (_min_table_under_max, "strategies.max: lists l1, which is not a Max location with a finite value"),
        (_max_table_under_sigma1, "strategies.min.sigma1: lists l2, which is not a Min location with a finite value"),
        (_no_table, "strategies.max: has no table for l4, a Max location with a finite value"),
        (_clock_bound, "clock_bound: 7 is not the game's 1"),
    ],
    ids=["gap", "overlap", "min-table-under-max", "max-table-under-sigma1", "no-table", "clock-bound"],
)
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_strategy_tables_tile_the_clock_and_list_the_finite_locations(tmp_path, capsys, command, mutate, line):
    # A positional strategy splits [0, bound] into rows, one table per
    # location of its owner with a finite value, and the document is of the
    # game it is read with.  verify passed each of these documents, exit 0,
    # and simulate read them too, finding a gap or a missing table only when
    # a play reached it.
    doc = json.loads((FIXTURES / "fig1.values.json").read_text())
    mutate(doc)
    bad = tmp_path / "tables.json"
    bad.write_text(json.dumps(doc))
    extra = ["--from", "l1:1/2"] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, str(FIXTURES / "fig1.json"), str(bad), *extra)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {line}"]


@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURES.glob("*.json") if p.name.endswith((".values.json", ".regions.json")))
)
def test_documents_are_their_breakpoints(tmp_path, capsys, name):
    # A function is its breakpoints: each committed document reads back to
    # the values it was written from, and a copy with one more breakpoint
    # on a piece's line reads to the same functions and verifies the same.
    raw = json.loads((FIXTURES / name).read_text())
    doc = document.load(str(FIXTURES / name))
    assert document._values_to_json(doc.values) == raw["values"]
    seg = next(
        seg for _, segs in sorted(raw["values"].items()) for seg in segs if len(seg.get("points", ())) > 1
    )
    (x0, v0), (x1, v1) = ((F(p["x"]), F(p["v"])) for p in seg["points"][:2])
    x, v = x0 + (x1 - x0) / 3, v0 + (v1 - v0) / 3
    seg["points"].insert(1, {"x": format_value(x), "v": format_value(v)})
    extra = tmp_path / name
    extra.write_text(json.dumps(raw))
    assert document.load(str(extra)).values == doc.values
    outputs = []
    for path in (FIXTURES / name, extra):
        code, out, _ = run_cli(capsys, "verify", str(FIXTURES / f"{name.split('.')[0]}.json"), str(path))
        assert code == 0
        outputs.append([line for line in out.splitlines() if not line.startswith("values: ")])
    assert outputs[0] == outputs[1]


def test_simulate_bad_start_strings(fig1_solution, capsys):
    for start in ("l1", "nosuch:0", "l1:2", "l1:x", "l1:1e-3", "l1:+inf"):
        code, _, err = run_cli(
            capsys,
            "simulate",
            str(FIXTURES / "fig1.json"),
            str(fig1_solution),
            "--from",
            start,
        )
        assert code == 2, start
        assert "error" in err


def test_ptg_threads_must_be_positive(fig1_solution, capsys, monkeypatch):
    monkeypatch.setenv("PTG_THREADS", "0")
    code, _, err = run_cli(
        capsys, "verify", str(FIXTURES / "fig1.json"), str(fig1_solution)
    )
    assert code == 2
    assert "PTG_THREADS" in err
    monkeypatch.setenv("PTG_THREADS", "2")
    code, _, _ = run_cli(
        capsys, "verify", str(FIXTURES / "fig1.json"), str(fig1_solution)
    )
    assert code == 0


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # Rebuilding the argparse tree on every call cost about 0.8 ms per
    # command.  The parser is built once per process, and commands are
    # looked up by name per call, so rebinding one is still seen.
    from ptgsolve import cli

    fig1, out = str(FIXTURES / "fig1.json"), str(tmp_path / "fig1.values.json")
    solved = []
    cmd_solve = cli.cmd_solve

    def counting_solve(args):
        solved.append(args.input)
        return cmd_solve(args)

    monkeypatch.setattr(cli, "cmd_solve", counting_solve)
    cli._build_parser.cache_clear()
    codes = [
        run_cli(capsys, "solve", fig1, "--out", out)[0],
        run_cli(capsys, "verify", fig1, out)[0],
        run_cli(capsys, "solve", "no-such-file.json")[0],
        run_cli(capsys, "solve", fig1, "--out", str(tmp_path / "x.json"), "--max-steps", "1")[0],
        run_cli(capsys, "plot", out, "--csv", str(tmp_path / "csv"))[0],
        run_cli(capsys, "simulate", fig1, out, "--from", "l7:0")[0],
    ]
    with pytest.raises(SystemExit) as exc:
        main(["verify", fig1, out, "--grid", "-5"])
    assert codes == [0, 0, 2, 4, 0, 0]
    assert exc.value.code == 2
    assert solved == [fig1, "no-such-file.json", fig1]
    assert cli._build_parser.cache_info().misses == 1


def test_region_values_survive_a_jump(tmp_path, capsys):
    doc = {
        "clock_bound": 2,
        "locations": [
            {"name": "m", "owner": "min", "rate": 0, "urgent": False},
            {
                "name": "f",
                "owner": "final",
                "rate": 0,
                "urgent": False,
                "final_cost": {"slope": "0", "intercept": "0"},
            },
            {
                "name": "e",
                "owner": "final",
                "rate": 0,
                "urgent": False,
                "final_cost": {"slope": "0", "intercept": "10"},
            },
        ],
        "transitions": [
            {
                "from": "m",
                "to": "f",
                "guard": {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": False},
                "reset": False,
                "weight": 0,
            },
            {
                "from": "m",
                "to": "e",
                "guard": {"lo": "0", "hi": "2", "lo_closed": True, "hi_closed": True},
                "reset": False,
                "weight": 0,
            },
        ],
    }
    game = tmp_path / "jump.json"
    game.write_text(json.dumps(doc))
    values = tmp_path / "jump.values.json"
    code, _, _ = run_cli(capsys, "solve", str(game), "--out", str(values))
    assert code == 0
    sol = json.loads(values.read_text())
    assert sol["values"]["m"] == [
        {
            "from": "0",
            "to": "1",
            "points": [{"x": "0", "v": "0"}, {"x": "1", "v": "0"}],
        },
        {
            "from": "1",
            "to": "2",
            "points": [{"x": "1", "v": "10"}, {"x": "2", "v": "10"}],
        },
    ]
    code, out, _ = run_cli(capsys, "verify", str(game), str(values), "--grid", "8")
    assert code == 0
    assert "verdict: pass" in out
    run_cli(capsys, "plot", str(values), "--csv", str(tmp_path / "c"))
    rows = (tmp_path / "c" / "m.csv").read_text().splitlines()
    # both one-sided values at the jump point show up
    assert "1,0,1.000000000000,0.000000000000" in rows
    assert "1,10,1.000000000000,10.000000000000" in rows


def test_point_value_equal_to_its_left_limit_survives_the_document(tmp_path, capsys):
    # Max fires to 0 on [0, 1] and to -10 on (1, 2]: at 1 it is worth its
    # left limit, so the document keeps {1} as a point segment between the
    # two pieces, and verify reads 0 there rather than the later -10.
    f = {"name": "f", "owner": "final", "rate": 0, "urgent": False,
         "final_cost": {"slope": "0", "intercept": "0"}}
    e = dict(f, name="e", final_cost={"slope": "0", "intercept": "-10"})
    doc = {
        "clock_bound": 2,
        "locations": [{"name": "m", "owner": "max", "rate": 0, "urgent": False}, f, e],
        "transitions": [
            {"from": "m", "to": "f", "reset": False, "weight": 0,
             "guard": {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True}},
            {"from": "m", "to": "e", "reset": False, "weight": 0,
             "guard": {"lo": "1", "hi": "2", "lo_closed": False, "hi_closed": True}},
        ],
    }
    game = tmp_path / "left.json"
    game.write_text(json.dumps(doc))
    values = tmp_path / "left.values.json"
    code, _, _ = run_cli(capsys, "solve", str(game), "--out", str(values))
    assert code == 0
    segs = json.loads(values.read_text())["values"]["m"]
    assert [(s["from"], s["to"]) for s in segs] == [("0", "1"), ("1", "1"), ("1", "2")]
    assert segs[1]["points"] == [{"x": "1", "v": "0"}]
    code, out, _ = run_cli(capsys, "verify", str(game), str(values), "--grid", "8")
    assert code == 0
    assert "verdict: pass" in out


@pytest.mark.parametrize("command", ["solve", "verify", "plot", "simulate"])
def test_each_input_file_is_read_once(tmp_path, capsys, monkeypatch, command):
    # the sha256 line and the parser each read the file: twice per solve,
    # four times per verify
    game, values = FIXTURES / "fig1.json", FIXTURES / "fig1.values.json"
    argv = {
        "solve": ["solve", str(game), "--out", str(tmp_path / "out.json")],
        "verify": ["verify", str(game), str(values)],
        "plot": ["plot", str(values), "--csv", str(tmp_path / "csv")],
        "simulate": ["simulate", str(game), str(values), "--from", "l1:1/2"],
    }[command]
    reads = {}
    opened = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        if "r" in mode:
            reads[self.name] = reads.get(self.name, 0) + 1
        return opened(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    inputs = {"solve": [game], "plot": [values]}.get(command, [game, values])
    assert reads == {p.name: 1 for p in inputs}
    # the digest printed is that of the bytes parsed
    for p in inputs:
        assert hashlib.sha256(p.read_bytes()).hexdigest() in out
