import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from twistdance.cli import main
from twistdance.codec import parse, svg_timeline, trace_to_json
from twistdance.facing import Facing
from twistdance.scheduler import (
    ORACLE_STEP_LIMIT,
    CrossingRule,
    DancePlan,
    RuleKind,
    Schedule,
    Step,
    oracle_schedule,
    schedule_search,
    verify_schedule,
)
from twistdance.solver import min_dancers

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
BAR_TREFOIL = "O1+ U2+ O3+ T1 U1+ O2+ U3+"


# ---------------------------------------------------------------- validate


def test_validate_ok(capsys):
    assert main(["validate", TREFOIL]) == 0
    assert capsys.readouterr().out.strip() == TREFOIL


def test_validate_canonicalizes(capsys):
    assert main(["validate", "O1,U1"]) == 0
    assert capsys.readouterr().out.strip() == "O1+ U1+"


def test_validate_empty_is_ok(capsys):
    assert main(["validate", ""]) == 0


def test_validate_invalid(capsys):
    assert main(["validate", "O1+ O1+"]) == 1
    err = capsys.readouterr().err
    assert "DuplicateStrand" in err
    assert "bytes 4..7" in err


def test_validate_lex_error_span(capsys):
    assert main(["validate", "O1+ X9 U1+"]) == 1
    assert "bytes 4..6" in capsys.readouterr().err


def test_validate_overlong_id_is_invalid(capsys):
    assert main(["validate", "T" + "9" * 5000]) == 1
    assert "LexError at bytes 0..5001" in capsys.readouterr().err


def test_validate_from_file(tmp_path, capsys):
    path = tmp_path / "d.gauss"
    path.write_text(TREFOIL + "\n")
    assert main(["validate", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == TREFOIL


def test_validate_missing_file(capsys):
    assert main(["validate", "--file", "/nonexistent/nope.gauss"]) == 2


@pytest.mark.parametrize(
    "argv", [["validate", "--file", ""], ["dance", "--file", "", "--points", "0", "--k", "1"]]
)
def test_an_empty_file_path_is_a_missing_file_not_the_empty_diagram(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_validate_non_utf8_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "d.gauss"
    path.write_bytes(b"\xff\xfe O1+ U1+")
    assert main(["validate", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_crlf_file(tmp_path, capsys):
    path = tmp_path / "d.gauss"
    path.write_bytes(b"O1+ U2+ O3+\r\nU1+ O2+ U3+\r\n")
    assert main(["validate", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == TREFOIL


def test_validate_requires_some_input(capsys):
    assert main(["validate"]) == 2
    assert "nothing to validate" in capsys.readouterr().err


# ---------------------------------------------------------------- dance


def test_dance_feasible(capsys):
    code = main(
        ["dance", "--diagram", TREFOIL, "--points", "0,3", "--k", "1", "--rule", "forward"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "FEASIBLE"


def test_dance_infeasible_facing_parity(capsys):
    code = main(["dance", "--diagram", BAR_TREFOIL, "--points", "0,4", "--k", "2"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "INFEASIBLE(FacingParity)"


def test_dance_infeasible_deadlock(capsys):
    code = main(["dance", "--diagram", TREFOIL, "--points", "0", "--k", "1"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "INFEASIBLE(Deadlock)"


def test_dance_matching_requires_facings(capsys):
    code = main(["dance", "--diagram", TREFOIL, "--points", "0,3", "--k", "1", "--rule", "matching"])
    assert code == 2
    assert "facings" in capsys.readouterr().err


def test_dance_forward_rejects_facings(capsys):
    code = main(
        ["dance", "--diagram", TREFOIL, "--points", "0,3", "--k", "1", "--facings", "F,F"]
    )
    assert code == 2
    assert "facings" in capsys.readouterr().err


def test_dance_non_utf8_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "d.gauss"
    path.write_bytes(b"O1+ \xff U1+")
    assert main(["dance", "--file", str(path), "--points", "0", "--k", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_dance_matching_with_facings(capsys):
    code = main(
        [
            "dance",
            "--diagram",
            "T1 T2",
            "--points",
            "0,1",
            "--k",
            "1",
            "--rule",
            "matching",
            "--facings",
            "F,B",
        ]
    )
    assert code == 0


def test_dance_bad_points_is_usage_error(capsys):
    assert main(["dance", "--diagram", TREFOIL, "--points", "0,zebra", "--k", "1"]) == 2
    assert main(["dance", "--diagram", TREFOIL, "--points", "0,0", "--k", "1"]) == 2


def test_dance_unparseable_diagram_is_usage_error(capsys):
    assert main(["dance", "--diagram", "O1+ O1+", "--points", "0", "--k", "1"]) == 2


def test_dance_writes_trace_and_svg(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    svg = tmp_path / "dance.svg"
    code = main(
        [
            "dance",
            "--diagram",
            TREFOIL,
            "--points",
            "0,3",
            "--k",
            "1",
            "--json",
            str(trace),
            "--svg",
            str(svg),
        ]
    )
    assert code == 0
    payload = json.loads(trace.read_text())
    assert payload["feasible"] is True
    assert len(payload["steps"]) == 6
    assert payload["plan"]["points"] == [0, 3]
    assert svg.read_text().startswith("<?xml")


def test_dance_infeasible_trace_has_no_steps(tmp_path):
    trace = tmp_path / "trace.json"
    code = main(
        ["dance", "--diagram", TREFOIL, "--points", "0", "--k", "1", "--json", str(trace)]
    )
    assert code == 1
    payload = json.loads(trace.read_text())
    assert payload == {
        "steps": [],
        "feasible": False,
        "plan": {"points": [0], "k": 1, "rule": "forward"},
    }


# ---------------------------------------------------------------- solve


def test_solve_trefoil(capsys):
    code = main(
        ["solve", "--diagram", TREFOIL, "--rule", "forward", "--max-n", "3", "--max-k", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("n=2 k=1 points=")


def test_solve_single_bar(capsys):
    code = main(["solve", "--diagram", "T1", "--max-n", "1", "--max-k", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "n=1 k=2 points=0"


def test_solve_exhausted(capsys):
    code = main(["solve", "--diagram", TREFOIL, "--max-n", "1", "--max-k", "1"])
    assert code == 1
    assert capsys.readouterr().out.startswith("EXHAUSTED")


def test_solve_matching_prints_facings(capsys):
    code = main(
        [
            "solve",
            "--diagram",
            "T1 T2",
            "--rule",
            "matching",
            "--max-n",
            "2",
            "--max-k",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert "facings=" in out


def test_solve_bad_bounds_usage_error(capsys):
    assert main(["solve", "--diagram", TREFOIL, "--max-n", "7", "--max-k", "1"]) == 2


def test_solve_writes_trace(tmp_path):
    trace = tmp_path / "solve.json"
    code = main(
        ["solve", "--diagram", TREFOIL, "--max-n", "2", "--max-k", "1", "--json", str(trace)]
    )
    assert code == 0
    payload = json.loads(trace.read_text())
    assert payload["feasible"] is True
    assert payload["plan"]["k"] == 1


# ---------------------------------------------------------------- every exit path

DANCE = ["dance", "--diagram", TREFOIL, "--points", "0,3", "--k", "1"]
SOLVE = ["solve", "--diagram", BAR_TREFOIL, "--max-n", "2", "--max-k", "4"]
EXHAUSTED = ["solve", "--diagram", "U1+ O1+ U2+ O2+", "--max-n", "1", "--max-k", "3"]
MATCHING = [*DANCE, "--rule", "matching"]
UNWRITABLE = "missing/out"  # its directory does not exist


@pytest.mark.parametrize(
    "argv, code, out, err, written",
    [
        pytest.param(["validate", TREFOIL], 0, TREFOIL + "\n", "", {}, id="validate"),
        pytest.param(["validate", "--file", "in.gauss"], 0, TREFOIL + "\n", "", {},
                     id="validate file"),
        pytest.param(["validate", "O1+ O1+"], 1, "", "DuplicateStrand at bytes 4..7: ", {},
                     id="validate invalid"),
        pytest.param(["validate", "O1+ X9 U1+"], 1, "", "LexError at bytes 4..6: ", {},
                     id="validate lex error"),
        pytest.param(["validate", TREFOIL, "--file", "in.gauss"], 2, "",
                     "usage error: give a diagram string or --file, not both\n", {},
                     id="validate both inputs"),
        pytest.param(["validate"], 2, "",
                     "usage error: nothing to validate: pass a diagram string or --file\n", {},
                     id="validate no input"),
        pytest.param(["validate", "--file", "absent.gauss"], 2, "", "error: ", {},
                     id="validate missing file"),
        pytest.param(["validate", "--file", "latin1.gauss"], 2, "", "error: ", {},
                     id="validate non-UTF-8 file"),
        pytest.param(DANCE, 0, "FEASIBLE\n", "", {}, id="dance feasible"),
        pytest.param(["dance", "--diagram", BAR_TREFOIL, "--points", "0,4", "--k", "2"], 1,
                     "INFEASIBLE(FacingParity)\n", "", {}, id="dance facing parity"),
        pytest.param(["dance", "--diagram", TREFOIL, "--points", "0", "--k", "1", "--json", "d.json"],
                     1, "INFEASIBLE(Deadlock)\n", "",
                     {"d.json": '{"steps":[],"feasible":false,'
                                '"plan":{"points":[0],"k":1,"rule":"forward"}}\n'},
                     id="dance deadlock json"),
        pytest.param(["dance", "--diagram", "O1+ O1+", "--points", "0", "--k", "1"], 2, "",
                     "DuplicateStrand at bytes 4..7: ", {}, id="dance invalid"),
        pytest.param(["dance", "--diagram", "O1+ Z", "--points", "0", "--k", "1"], 2, "",
                     "LexError at bytes 4..5: ", {}, id="dance lex error"),
        pytest.param(["dance", "--file", "absent.gauss", "--points", "0", "--k", "1"], 2, "",
                     "error: ", {}, id="dance missing file"),
        pytest.param(["dance", "--diagram", TREFOIL, "--points", "0,x", "--k", "1"], 2, "",
                     "usage error: bad --points value '0,x'\n", {}, id="dance bad points"),
        # int() reads underscores, signs and every Unicode digit; a point is ASCII digits only
        *(
            pytest.param(["dance", "--diagram", TREFOIL, "--points", points, "--k", "1"], 2, "",
                         f"usage error: bad --points value {points!r}\n", {}, id=f"dance points {points!r}")
            for points in ("0,1_0", "0,\u0663", "\u0660,3", "0,+3")
        ),
        pytest.param(["dance", "--diagram", TREFOIL, "--points", "0,0", "--k", "1"], 2, "",
                     "usage error: two initial points share gap 0\n", {}, id="dance plan refused"),
        pytest.param(MATCHING, 2, "",
                     "usage error: matching rule needs facings, one per initial point\n", {},
                     id="dance no facings"),
        pytest.param([*MATCHING, "--facings", "F,X"], 2, "",
                     "usage error: facing must be F or B, got 'X'\n", {}, id="dance bad facing"),
        pytest.param([*DANCE, "--json", UNWRITABLE], 2, "FEASIBLE\n", "error: ", {},
                     id="dance unwritable json"),
        pytest.param([*DANCE, "--svg", UNWRITABLE], 2, "FEASIBLE\n", "error: ", {},
                     id="dance unwritable svg"),
        pytest.param([*DANCE, "--json", ""], 2, "FEASIBLE\n", "error: ", {}, id="dance empty json"),
        # --json is written before --svg, and the first write that fails stops
        pytest.param(["dance", "--diagram", TREFOIL, "--points", "0", "--k", "1",
                      "--json", "ok.json", "--svg", UNWRITABLE], 2, "INFEASIBLE(Deadlock)\n",
                     "error: ",
                     {"ok.json": '{"steps":[],"feasible":false,'
                                 '"plan":{"points":[0],"k":1,"rule":"forward"}}\n'},
                     id="dance json written, svg unwritable"),
        pytest.param([*DANCE, "--svg", ""], 2, "FEASIBLE\n", "error: ", {}, id="dance empty svg"),
        pytest.param(SOLVE, 0, "n=2 k=4 points=0,2\n", "", {}, id="solve"),
        pytest.param(["solve", "--diagram", "T1 T2", "--rule", "matching", "--max-n", "2",
                      "--max-k", "1"], 0, "n=1 k=1 points=0 facings=F\n", "", {},
                     id="solve facings"),
        pytest.param(EXHAUSTED, 1, "EXHAUSTED (n=1..1, k=1..3, 12 placements tried)\n", "", {},
                     id="solve exhausted"),
        pytest.param([*EXHAUSTED, "--json", "e.json"], 1,
                     "EXHAUSTED (n=1..1, k=1..3, 12 placements tried)\n", "",
                     {"e.json": '{"steps":[],"feasible":false}\n'}, id="solve exhausted json"),
        pytest.param(["solve", "--diagram", TREFOIL, "--max-n", "7", "--max-k", "1"], 2, "",
                     "usage error: n_max must be in 1..6, got 7\n", {}, id="solve bad bounds"),
        pytest.param(["solve", "--diagram", "O1+ O1+", "--max-n", "1", "--max-k", "1"], 2, "",
                     "DuplicateStrand at bytes 4..7: ", {}, id="solve invalid"),
        pytest.param(["solve", "--file", "absent.gauss", "--max-n", "1", "--max-k", "1"], 2, "",
                     "error: ", {}, id="solve missing file"),
        pytest.param([*SOLVE, "--json", UNWRITABLE], 2, "n=2 k=4 points=0,2\n", "error: ", {},
                     id="solve unwritable json"),
        pytest.param([*SOLVE, "--json", ""], 2, "n=2 k=4 points=0,2\n", "error: ", {},
                     id="solve empty json"),
    ],
)
def test_every_exit_path(argv, code, out, err, written, tmp_path, monkeypatch, capsys):
    # each failure is one stderr line, printed after whatever stdout the
    # command had already decided; only the files named are written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.gauss").write_text(TREFOIL + "\n")
    (tmp_path / "latin1.gauss").write_bytes(b"O1+ \xff U1+")
    inputs = set(os.listdir(tmp_path))
    assert main(argv) == code
    got_out, got_err = capsys.readouterr()
    assert got_out == out
    assert got_err.startswith(err) and got_err.count("\n") == (err != "")
    made = set(os.listdir(tmp_path)) - inputs
    assert {name: (tmp_path / name).read_text() for name in made} == written


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["dance", "--diagram", TREFOIL, "--points", "0"], 2, id="missing --k"),
        pytest.param(["dance", "--diagram", TREFOIL, "--points", "0", "--k", "x"], 2,
                     id="--k not an int"),
        # a count is ASCII digits only, though int() reads these as 2, 10, 1 and 1
        *(
            pytest.param(["dance", "--diagram", TREFOIL, "--points", "0", "--k", k], 2, id=f"--k {k!r}")
            for k in ("\u0662", "1_0", "+1", " 1")
        ),
        pytest.param(["solve", "--diagram", TREFOIL, "--max-n", "\u0661", "--max-k", "2"], 2,
                     id="--max-n '\u0661'"),
        pytest.param(["solve", "--diagram", TREFOIL, "--max-n", "1", "--max-k", "1_0"], 2,
                     id="--max-k '1_0'"),
        pytest.param(["bogus"], 2, id="unknown command"),
        pytest.param(["--help"], 0, id="help"),
    ],
)
def test_main_returns_the_code_of_an_argparse_exit(argv, code, capsys):
    # argparse prints its own usage text; main returns its exit code, never raising
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (err if code else out).startswith("usage:")
    assert (out if code else err) == ""


# ---------------------------------------------------------------- timeline


def _witness(code=TREFOIL, points=(0, 3), k=1):
    schedule = schedule_search(DancePlan(parse(code), points, k))
    assert isinstance(schedule, Schedule)
    return schedule


def test_svg_empty_schedule_fixed_output():
    svg = svg_timeline(Schedule((), True, None))
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")
    assert "dancer" not in svg  # zero lanes
    assert svg == svg_timeline(Schedule((), True, None))


def test_svg_with_steps_requires_plan():
    # refused when the schedule is built, so no output is ever handed one
    with pytest.raises(ValueError, match="needs its plan"):
        Schedule(_witness().steps, True, None)


@pytest.mark.parametrize(
    "step, error",
    [
        pytest.param(Step(0, 0, -1, Facing.FORWARD), "event index -1 outside 0..2", id="-1"),
        pytest.param(Step(0, 0, 3, Facing.FORWARD), "event index 3 outside 0..2", id="3"),
        pytest.param(Step(0, 0, 7, Facing.FORWARD), "event index 7 outside 0..2", id="7"),
        # a hand-made step of any other type: the JSON would not be JSON, a
        # bool would be read as an int, and the rest would raise TypeError or
        # IndexError inside a formatter
        *(
            pytest.param(Step(dancer, 0, 1, Facing.FORWARD), f"dancer {dancer!r} is not an int",
                         id=f"dancer {dancer!r}")
            for dancer in (None, True, 0.0)
        ),
        *(
            pytest.param(Step(0, 0, index, Facing.FORWARD), f"event index {index!r} is not an int",
                         id=f"event index {index!r}")
            for index in (True, 0.5, "1")
        ),
        *(
            pytest.param(Step(0, 0, 1, facing), f"facing must be a Facing, got {facing!r}",
                         id=f"facing {facing!r}")
            for facing in (2, "F", None)
        ),
        *(
            pytest.param(step, f"step must be a Step, got {step!r}", id=f"step {step!r}")
            for step in (1, None, (0, 0, 1, Facing.FORWARD))
        ),
        # the plan has one dancer: an id with no lane
        *(
            pytest.param(Step(dancer, 0, 1, Facing.FORWARD), f"dancer {dancer} outside 0..0",
                         id=f"dancer {dancer}")
            for dancer in (-1, 1)
        ),
        # a bool route position would pass the verifier, since [False, True] == [0, 1]
        *(
            pytest.param(Step(0, position, 1, Facing.FORWARD),
                         f"route position {position!r} is not an int", id=f"route position {position!r}")
            for position in (False, True, None, 0.0)
        ),
    ],
)
def test_output_layers_refuse_an_event_index_outside_the_diagram(step, error):
    # the constructor refuses the schedule, so neither output is ever handed it
    plan = DancePlan(parse("O1+ U1+ T1"), (0,), 1)
    with pytest.raises(ValueError, match=re.escape(error)):
        Schedule((step,), True, plan)


@pytest.mark.parametrize(
    "plan",
    [
        DancePlan(parse(BAR_TREFOIL), (0, 4), 4),
        DancePlan(
            parse(BAR_TREFOIL), (0, 1, 4), 2, RuleKind.MATCHING,
            (Facing.BACKWARD, Facing.FORWARD, Facing.FORWARD), CrossingRule.OVER_FIRST,
        ),
        DancePlan(parse(TREFOIL), (0, 1, 3), 3, crossing_rule=CrossingRule.UNDER_FIRST),
    ],
)
def test_output_layers_format_a_witness_from_its_move_columns(plan):
    # every producer of a witness: the search, min_dancers within the plan's
    # bounds, and the oracle where the plan is within its guard (the 14 steps
    # of the matching plan)
    least = min_dancers(plan.diagram, plan.rule, plan.crossing_rule, k_max=plan.k, n_max=plan.n)
    witnesses = [schedule_search(plan), least.schedule]
    if len(plan.diagram.events) * plan.k <= ORACLE_STEP_LIMIT:
        witnesses.append(oracle_schedule(plan))
    for witness in witnesses:
        trace, svg = trace_to_json(witness), svg_timeline(witness)
        assert "steps" not in vars(witness)  # no Step was built for the outputs
        rebuilt = Schedule(witness.steps, witness.feasible, witness.plan)
        assert "steps" in vars(witness)  # derived once, on first read, and kept
        assert witness.steps is witness.steps
        assert verify_schedule(witness) == []
        assert (trace_to_json(rebuilt), svg_timeline(rebuilt)) == (trace, svg)
        assert trace.count('"t":') == svg.count("<circle ") == len(witness.steps)


def test_svg_trefoil_witness_structure():
    svg = svg_timeline(_witness())
    assert svg.count(">dancer ") == 2
    assert svg.count("<circle") == 6
    assert "stroke-dasharray" not in svg  # everyone stays forward


def test_svg_backward_segments_are_dashed():
    svg = svg_timeline(_witness(BAR_TREFOIL, (0, 4), 4))
    assert "stroke-dasharray" in svg


def test_svg_deterministic():
    a = svg_timeline(_witness())
    b = svg_timeline(_witness())
    assert a == b


# ------------------------------------------------------- thin-shell check


def test_cli_dance_agrees_with_library(capsys):
    plan = DancePlan(parse(BAR_TREFOIL), (0, 4), 4)
    lib = schedule_search(plan)
    code = main(["dance", "--diagram", BAR_TREFOIL, "--points", "0,4", "--k", "4"])
    out = capsys.readouterr().out.strip()
    assert (code == 0 and out == "FEASIBLE") == isinstance(lib, Schedule)


def test_cli_solve_agrees_with_library(capsys):
    from twistdance.solver import min_dancers

    report = min_dancers(parse(BAR_TREFOIL), k_max=4, n_max=2)
    code = main(["solve", "--diagram", BAR_TREFOIL, "--max-n", "2", "--max-k", "4"])
    out = capsys.readouterr().out.strip()
    expected = (
        f"n={report.plan.n} k={report.plan.k} "
        f"points={','.join(str(p) for p in report.plan.points)}"
    )
    assert code == 0 and out == expected


def test_cli_crossing_rule_variants(capsys):
    retro_trefoil = "U3+ O2+ U1+ O3+ U2+ O1+"
    assert main(
        ["dance", "--diagram", retro_trefoil, "--points", "0,3", "--k", "1",
         "--crossing", "under-first"]
    ) == 0
    capsys.readouterr()
    # a single dancer deadlocks over-first but sails through unrestricted
    assert main(
        ["dance", "--diagram", TREFOIL, "--points", "0", "--k", "1",
         "--crossing", "unrestricted"]
    ) == 0


# ------------------------------------------------------- module entry point

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["validate", "O1+ U1+"], 0, "O1+ U1+"),
        (["dance", "--diagram", TREFOIL, "--points", "0", "--k", "1"], 1, "INFEASIBLE(Deadlock)"),
        (["dance", "--diagram", TREFOIL, "--points", "0,x", "--k", "1"], 2, ""),
    ],
    ids=["validate", "deadlock", "bad-points"],
)
def test_module_entry_point_exits_with_the_command_code(argv, code, out):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "twistdance", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.strip() == out
    assert ("usage error" in proc.stderr) == (code == 2)


def test_an_undecodable_argument_byte_is_a_lex_error():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "twistdance", "validate", b"O1+ \xff"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(b"LexError at bytes 4..5"), proc.stderr
    assert b"Traceback" not in proc.stderr
