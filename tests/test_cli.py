"""End-to-end CLI tests, in process via main(argv)."""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairteams import cli, core, harness
from fairteams.baselines import GAParams, genetic_algorithm
from fairteams.cli import main

QUAD_ROSTER = """student_id,group,skill_1
a,g1,0.8
b,g2,0.6
c,g1,0.4
d,g2,0.2
"""

QUAD_ASSIGNMENT = """student_id,team_id
a,0
b,0
c,1
d,1
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in data]


class TestGenerate:
    def test_same_flags_same_bytes(self, tmp_path):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        argv = ["generate", "--preset", "d2", "--n", "30", "--seed", "7"]
        assert main(argv + ["--out", out_a]) == 0
        assert main(argv + ["--out", out_b]) == 0
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_content(self, tmp_path):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["generate", "--n", "10", "--seed", "1",
                     "--out", out_a]) == 0
        assert main(["generate", "--n", "10", "--seed", "2",
                     "--out", out_b]) == 0
        assert (tmp_path / "a.csv").read_text() \
            != (tmp_path / "b.csv").read_text()

    def test_row_count_and_header(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert main(["generate", "--preset", "d3", "--n", "12",
                     "--skills", "3", "--out", out]) == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "student_id,group,skill_1,skill_2,skill_3"
        assert len(lines) == 13

    def test_preset_case_insensitive(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert main(["generate", "--preset", "D3", "--n", "8",
                     "--out", out]) == 0

    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert main(["generate", "--preset", "d7",
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["generate", "--frobnicate", "1"]) == 2


class TestSolve:
    def _roster(self, tmp_path, n=20):
        out = str(tmp_path / "roster.csv")
        assert main(["generate", "--preset", "d2", "--n", str(n),
                     "--out", out]) == 0
        return out

    def test_default_solve_writes_assignment_and_metrics(self, tmp_path,
                                                         capsys):
        roster = self._roster(tmp_path)
        out = str(tmp_path / "teams.csv")
        capsys.readouterr()  # drop the generate status line
        assert main(["solve", "--roster", roster,
                     "--assignment-out", out]) == 0
        header, rows = _parse_csv(capsys.readouterr().out)
        assert header[:3] == ["dataset", "method", "seed"]
        assert len(rows) == 1
        assert rows[0]["method"] == "fern"
        assert rows[0]["dataset"] == "roster"
        lines = (tmp_path / "teams.csv").read_text().splitlines()
        assert lines[0] == "student_id,team_id"
        assert len(lines) == 21

    def test_solve_is_deterministic(self, tmp_path, capsys):
        roster = self._roster(tmp_path)
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["solve", "--roster", roster, "--method", "random",
                     "--seed", "5", "--assignment-out", out_a]) == 0
        assert main(["solve", "--roster", roster, "--method", "random",
                     "--seed", "5", "--assignment-out", out_b]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("method", ["fern", "umeans"])
    def test_benefit_matrix_built_once(self, tmp_path, capsys, monkeypatch,
                                       method):
        roster = self._roster(tmp_path)
        calls = []
        original = core.compute_benefit_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (cli, core, harness):
            monkeypatch.setattr(module, "compute_benefit_matrix", counted)
        assert main(["solve", "--roster", roster, "--method", method,
                     "--assignment-out", str(tmp_path / "t.csv")]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_method_is_case_insensitive(self, tmp_path, capsys):
        roster = self._roster(tmp_path)
        config = _write(tmp_path, "run.cfg", "method = FERN\n")
        capsys.readouterr()
        for name, extra in (("a.csv", ["--method", "FERN"]),
                            ("b.csv", ["--config", config])):
            assert main(["solve", "--roster", roster, *extra,
                         "--assignment-out", str(tmp_path / name)]) == 0
            _, rows = _parse_csv(capsys.readouterr().out)
            assert rows[0]["method"] == "fern"
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()

    def test_missing_roster_flag(self, capsys):
        assert main(["solve"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_nonexistent_roster_is_io_error(self, tmp_path, capsys):
        assert main(["solve", "--roster", str(tmp_path / "nope.csv")]) == 2
        assert "io error:" in capsys.readouterr().err

    def test_team_count_above_n_fails_cleanly(self, tmp_path, capsys):
        roster = self._roster(tmp_path, n=10)
        code = main(["solve", "--roster", roster, "--method", "random",
                     "--team-count", "99",
                     "--assignment-out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("flag, value", [
        ("--gamma", "nan"), ("--delta", "inf"), ("--requirements", "inf"),
        ("--benefit-epsilon", "nan"), ("--gain-epsilon", "inf"),
    ])
    def test_non_finite_flag_is_rejected(self, tmp_path, capsys, flag,
                                          value):
        roster = self._roster(tmp_path, n=10)
        out = tmp_path / "teams.csv"
        capsys.readouterr()
        assert main(["solve", "--roster", roster, flag, value,
                     "--assignment-out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "must be" in captured.err and "finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_overflowing_requirement_is_rejected(self, tmp_path, capsys):
        # k*N*r^2 is not finite: the objective would read inf
        roster = self._roster(tmp_path, n=10)
        out = tmp_path / "teams.csv"
        capsys.readouterr()
        assert main(["solve", "--roster", roster, "--method", "random",
                     "--team-count", "5", "--requirements", "1e200",
                     "--assignment-out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: requirement 1e+200 is too large: k*N*r^2 overflows "
            "for k=2, N=10"]
        assert captured.out == ""
        assert not out.exists()

    def test_unmeetable_finite_requirement_is_solved(self, tmp_path,
                                                     capsys):
        # r > N cannot be met, but k*N*r^2 is finite: the objective is the
        # one recorded before overflowing requirements were rejected
        roster = self._roster(tmp_path, n=10)
        capsys.readouterr()
        assert main(["solve", "--roster", roster, "--requirements", "150",
                     "--assignment-out", str(tmp_path / "t.csv")]) == 0
        _, rows = _parse_csv(capsys.readouterr().out)
        assert rows[0]["objective"] == "20280.88934686611"


class TestEvaluate:
    def test_hand_computed_metrics(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        assignment = _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT)
        assert main(["evaluate", "--roster", roster,
                     "--assignment", assignment]) == 0
        header, rows = _parse_csv(capsys.readouterr().out)
        row = rows[0]
        assert row["dataset"] == "quad"
        assert row["method"] == "evaluate"
        assert int(row["n"]) == 4
        assert int(row["l_final"]) == 2
        # Teams {a,b} and {c,d} under r=2: sums 1.4 and 0.6, neither meets;
        # the weaker partner in each pair benefits, y = 1/2; group g1 holds
        # both stronger partners (GBen 0) and g2 the weaker ones (GBen 1),
        # variance 1/4; x = (0.6^2 + 1.4^2) / 2 = 1.16.
        assert float(row["pct_teams_met"]) == 0.0
        assert float(row["y_pct"]) == pytest.approx(50.0)
        assert float(row["z_pct"]) == pytest.approx(2500.0)
        assert float(row["objective"]) == pytest.approx(1.16 - 0.5 + 0.25)
        assert float(row["runtime_ms"]) == 0.0
        assert float(row["gben_g1"]) == pytest.approx(0.0)
        assert float(row["gben_g2"]) == pytest.approx(100.0)

    def test_gamma_flag_shifts_objective(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        assignment = _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT)
        assert main(["evaluate", "--roster", roster, "--assignment",
                     assignment, "--gamma", "2"]) == 0
        _, rows = _parse_csv(capsys.readouterr().out)
        assert float(rows[0]["objective"]) == pytest.approx(1.16 - 1.0 + 0.25)

    def test_round_trip_matches_solve_metrics(self, tmp_path, capsys):
        roster = str(tmp_path / "roster.csv")
        assert main(["generate", "--preset", "d3", "--n", "24",
                     "--out", roster]) == 0
        capsys.readouterr()
        teams = str(tmp_path / "teams.csv")
        assert main(["solve", "--roster", roster,
                     "--assignment-out", teams]) == 0
        _, solve_rows = _parse_csv(capsys.readouterr().out)
        assert main(["evaluate", "--roster", roster,
                     "--assignment", teams]) == 0
        _, eval_rows = _parse_csv(capsys.readouterr().out)
        for col in ("n", "l_final", "pct_teams_met", "y_pct", "z_pct",
                    "objective", "gben_g1", "gben_g2"):
            assert solve_rows[0][col] == eval_rows[0][col]

    def test_requirements_broadcast(self, tmp_path, capsys):
        roster = str(tmp_path / "roster.csv")
        assert main(["generate", "--n", "12", "--out", roster]) == 0
        teams = str(tmp_path / "teams.csv")
        assert main(["solve", "--roster", roster, "--requirements", "1",
                     "--assignment-out", teams]) == 0
        capsys.readouterr()
        # one value broadcast over k=2; explicit pair must agree
        assert main(["evaluate", "--roster", roster, "--assignment", teams,
                     "--requirements", "1"]) == 0
        broadcast = capsys.readouterr().out
        assert main(["evaluate", "--roster", roster, "--assignment", teams,
                     "--requirements", "1,1"]) == 0
        assert capsys.readouterr().out == broadcast

    def test_requirement_count_mismatch(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        assignment = _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT)
        assert main(["evaluate", "--roster", roster, "--assignment",
                     assignment, "--requirements", "1,2,3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_assignment(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        missing = _write(tmp_path, "teams.csv",
                         "student_id,team_id\na,0\nb,0\nc,1\n")
        assert main(["evaluate", "--roster", roster,
                     "--assignment", missing]) == 1
        err = capsys.readouterr().err
        assert "no assignment for d" in err

    def test_out_of_range_team_id(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        teams = _write(tmp_path, "teams.csv", "student_id,team_id\na,0\n"
                       "b,99999999999999999999\nc,1\nd,1\n")
        assert main(["evaluate", "--roster", roster,
                     "--assignment", teams]) == 1
        assert f"{teams}:3: team_id out of range" in capsys.readouterr().err

    def test_negative_one_is_a_team_id(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        teams = _write(tmp_path, "teams.csv",
                       "student_id,team_id\na,-1\nb,-1\nc,-1\nd,-7\n")
        assert main(["evaluate", "--roster", roster,
                     "--assignment", teams]) == 0
        _, rows = _parse_csv(capsys.readouterr().out)
        assert int(rows[0]["l_final"]) == 2

    def test_duplicate_after_negative_one(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        teams = _write(tmp_path, "teams.csv", "student_id,team_id\na,-1\n"
                       "a,0\nb,0\nc,1\nd,1\n")
        assert main(["evaluate", "--roster", roster,
                     "--assignment", teams]) == 1
        assert f"{teams}:3: duplicate student_id 'a'" in \
            capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_values_cli_overrides(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        assignment = _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT)
        config = _write(tmp_path, "run.cfg",
                        "# fairness off\ngamma = 0.5\ndelta = 0\n")
        assert main(["evaluate", "--roster", roster, "--assignment",
                     assignment, "--config", config]) == 0
        _, rows = _parse_csv(capsys.readouterr().out)
        assert float(rows[0]["objective"]) == pytest.approx(1.16 - 0.25)
        assert main(["evaluate", "--roster", roster, "--assignment",
                     assignment, "--config", config, "--gamma", "2"]) == 0
        _, rows = _parse_csv(capsys.readouterr().out)
        assert float(rows[0]["objective"]) == pytest.approx(1.16 - 1.0)

    def test_hyphenated_keys_accepted(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        assignment = _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT)
        config = _write(tmp_path, "run.cfg", "benefit-epsilon = 0.5\n")
        assert main(["evaluate", "--roster", roster, "--assignment",
                     assignment, "--config", config]) == 0
        _, rows = _parse_csv(capsys.readouterr().out)
        # epsilon 0.5 kills every benefit edge in the quad roster
        assert float(rows[0]["y_pct"]) == 0.0

    def test_unknown_config_key(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        assignment = _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT)
        config = _write(tmp_path, "run.cfg", "tempo = 9\n")
        assert main(["evaluate", "--roster", roster, "--assignment",
                     assignment, "--config", config]) == 1
        assert "unknown config keys: tempo" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        assignment = _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT)
        config = _write(tmp_path, "run.cfg", "gamma 0.5\n")
        assert main(["evaluate", "--roster", roster, "--assignment",
                     assignment, "--config", config]) == 1
        assert ":1: expected key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line, key", [
        ("gamma = 0.5\ndelta = 0\ngamma = 2\n", 3, "gamma"),
        # the same option spelled both ways
        ("# x\nbenefit_epsilon = 0\n\nbenefit-epsilon = 0.5\n", 4,
         "benefit_epsilon"),
    ])
    def test_duplicate_config_key(self, tmp_path, capsys, text, line, key):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        assignment = _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT)
        config = _write(tmp_path, "run.cfg", text)
        assert main(["evaluate", "--roster", roster, "--assignment",
                     assignment, "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {config}:{line}: duplicate key {key!r}"]

    @pytest.mark.parametrize("command, text, message", [
        ("evaluate", "seed = abc\n", "{config}: bad seed value 'abc'"),
        ("evaluate", "gamma = 0x1F\n", "{config}: bad gamma value '0x1F'"),
        ("evaluate", "requirements = 1;2\n",
         "{config}: bad requirements value '1;2'"),
        ("experiment", "seeds = 1..x\n", "{config}: bad seeds value '1..x'"),
        # a parser's own message is kept
        ("experiment", "seeds = 3..1\n", "empty seed range '3..1'"),
    ])
    def test_unconvertible_config_value(self, tmp_path, capsys, command,
                                        text, message):
        # these raised a ValueError traceback before
        paths = ["--roster", _write(tmp_path, "quad.csv", QUAD_ROSTER)]
        if command == "evaluate":
            paths += ["--assignment",
                      _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT)]
        config = _write(tmp_path, "run.cfg", text)
        assert main([command, *paths, "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: " + message.format(config=config)]


# one non-default value per option, as typed on the command line
SAMPLE_VALUES = {
    "requirements": "1,3", "gamma": "0.5", "delta": "2",
    "benefit_epsilon": "0.25", "preset": "D2", "n": "40", "skills": "3",
    "groups": "4", "seed": "7", "out": "x.csv", "roster": "r.csv",
    "method": "GA", "team_count": "5", "gain_epsilon": "0.001",
    "assignment_out": "a.csv", "assignment": "t.csv", "methods": "GA,gmbf",
    "seeds": "1..3", "reps": "4",
}


@pytest.mark.parametrize("command, dest, value", [
    (command, dest, SAMPLE_VALUES[dest])
    for command, opts in cli._OPTS.items() for dest in opts
] + [("solve", "method", "FERN")])
def test_flag_and_config_key_resolve_alike(tmp_path, command, dest, value):
    parser = cli.build_parser()
    flag = "--" + dest.replace("_", "-")
    from_flag = cli._resolve(parser.parse_args([command, flag, value]),
                             command)[dest]
    convert = cli._OPTS[command][dest][0]
    assert from_flag == convert(value)
    for key in (dest, dest.replace("_", "-")):
        config = _write(tmp_path, "run.cfg", f"{key} = {value}\n")
        args = parser.parse_args([command, "--config", config])
        assert cli._resolve(args, command)[dest] == from_flag


@pytest.mark.parametrize("argv, code", [
    (["generate", "--n", "10", "--seed", "-1", "--out", "OUT"], 1),
    (["solve", "--roster", "ROSTER", "--method", "random", "--seed", "-1",
      "--assignment-out", "OUT"], 1),
    (["experiment", "--preset", "d1", "--n", "10", "--seeds=-1",
      "--out", "OUT"], 1),
    # evaluate only records its seed; no generator is made from it
    (["evaluate", "--roster", "ROSTER", "--assignment", "TEAMS",
      "--seed", "-1"], 0),
])
def test_negative_seed(tmp_path, capsys, argv, code):
    paths = {"ROSTER": _write(tmp_path, "quad.csv", QUAD_ROSTER),
             "TEAMS": _write(tmp_path, "teams.csv", QUAD_ASSIGNMENT),
             "OUT": str(tmp_path / "out.csv")}
    assert main([paths.get(arg, arg) for arg in argv]) == code
    err = capsys.readouterr().err
    assert ("error: seeds must be non-negative, got -1" in err) == bool(code)


@pytest.mark.parametrize("where", ["start", "field"])
@pytest.mark.parametrize("reader", ["roster", "assignment", "config"])
def test_undecodable_input_is_a_validation_error(tmp_path, capsys, reader,
                                                 where):
    texts = {"roster": QUAD_ROSTER, "assignment": QUAD_ASSIGNMENT,
             "config": "gamma = 1\ndelta = 1\n"}
    paths = {name: tmp_path / f"{name}.txt" for name in texts}
    for name, text in texts.items():
        data = text.encode()
        if name == reader and where == "start":
            data = b"\xff\xfe" + data
        elif name == reader:
            # blank lines are skipped, so the bad bytes sit in the last
            # field, well past the first block a reader decodes
            head, _, last = data[:-1].rpartition(b"\n")
            data = head + b"\n" * 9000 + last + b"\xff\xfe\n"
        paths[name].write_bytes(data)
    assert main(["evaluate", "--roster", str(paths["roster"]),
                 "--assignment", str(paths["assignment"]),
                 "--config", str(paths["config"])]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {paths[reader]}: ")


@pytest.mark.parametrize("reader", ["roster", "assignment", "config"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, reader):
    texts = {"roster": QUAD_ROSTER, "assignment": QUAD_ASSIGNMENT,
             "config": "gamma = 0.5\n"}
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        paths = {name: tmp_path / f"{name}.txt" for name in texts}
        for name, text in texts.items():
            prefix = bom if name == reader else b""
            paths[name].write_bytes(prefix + text.encode())
        assert main(["evaluate", "--roster", str(paths["roster"]),
                     "--assignment", str(paths["assignment"]),
                     "--config", str(paths["config"])]) == 0
        header, rows = _parse_csv(capsys.readouterr().out)
        rows[0].pop("runtime_ms")
        outputs.append((header, rows))
    assert outputs[0] == outputs[1]


class TestExperiment:
    def test_small_batch_layout(self, tmp_path, capsys):
        out = str(tmp_path / "metrics.csv")
        assert main(["experiment", "--preset", "d1", "--n", "16",
                     "--methods", "gmbf,random", "--seeds", "0..2",
                     "--reps", "2", "--out", out]) == 0
        capsys.readouterr()
        header, rows = _parse_csv((tmp_path / "metrics.csv").read_text())
        assert header == ["dataset", "method", "seed", "n", "l_final",
                          "pct_teams_met", "y_pct", "z_pct", "objective",
                          "runtime_ms", "gben_g1", "gben_g2"]
        assert len(rows) == 6 + 4
        assert [r["seed"] for r in rows[:6]] == ["0", "1", "2"] * 2
        assert [r["seed"] for r in rows[6:]] == ["mean", "se"] * 2

    def test_seed_range_and_list_agree(self, tmp_path, capsys):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        base = ["experiment", "--preset", "d1", "--n", "12",
                "--methods", "gmbf"]
        assert main(base + ["--seeds", "0..2", "--out", out_a]) == 0
        assert main(base + ["--seeds", "0,1,2", "--out", out_b]) == 0
        capsys.readouterr()
        a = [r[:9] for r in csv.reader(io.StringIO(
            (tmp_path / "a.csv").read_text()))]
        b = [r[:9] for r in csv.reader(io.StringIO(
            (tmp_path / "b.csv").read_text()))]
        assert a == b

    def test_failures_exit_nonzero_but_write_good_rows(self, tmp_path,
                                                       capsys):
        out = str(tmp_path / "metrics.csv")
        code = main(["experiment", "--preset", "d1", "--n", "10",
                     "--methods", "gmbf,random", "--seeds", "0",
                     "--team-count", "99", "--out", out])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed: d1 random seed=0" in captured.err
        _, rows = _parse_csv((tmp_path / "metrics.csv").read_text())
        assert {r["method"] for r in rows} == {"gmbf"}

    def test_overflowing_requirement_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        assert main(["experiment", "--preset", "d1", "--n", "20",
                     "--seeds", "0..1", "--methods", "fern,random",
                     "--requirements", "1e200", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: requirement 1e+200 is too large: k*N*r^2 overflows "
            "for k=2, N=20"]
        assert not out.exists()

    def test_roster_is_read_once(self, tmp_path, capsys, monkeypatch):
        roster = str(tmp_path / "cohort.csv")
        assert main(["generate", "--preset", "d2", "--n", "12",
                     "--out", roster]) == 0
        calls = []
        original = cli.load_instance

        def counted(path):
            calls.append(path)
            return original(path)

        for module in (cli, harness):
            monkeypatch.setattr(module, "load_instance", counted)
        assert main(["experiment", "--roster", roster, "--methods",
                     "fern,gmbf,random", "--seeds", "0,1", "--reps", "2",
                     "--out", str(tmp_path / "m.csv")]) == 0
        capsys.readouterr()
        assert calls == [roster]

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        roster = _write(tmp_path, "quad.csv", QUAD_ROSTER)
        assert main(["experiment", "--preset", "d1", "--roster", roster,
                     "--out", str(tmp_path / "m.csv")]) == 1
        capsys.readouterr()

    def test_roster_source(self, tmp_path, capsys):
        roster = str(tmp_path / "cohort.csv")
        assert main(["generate", "--preset", "d2", "--n", "18",
                     "--out", roster]) == 0
        out = str(tmp_path / "metrics.csv")
        assert main(["experiment", "--roster", roster, "--methods", "fern",
                     "--seeds", "0,1", "--out", out]) == 0
        capsys.readouterr()
        _, rows = _parse_csv((tmp_path / "metrics.csv").read_text())
        assert all(r["dataset"] == "cohort" for r in rows)
        # fixed roster + deterministic method: metric columns repeat per seed
        assert rows[0]["y_pct"] == rows[1]["y_pct"]

    def test_backslash_roster_label_matches_solve(self, tmp_path, capsys):
        # a backslash separates directories in dataset labels, in experiment
        # rows just as in solve output
        roster = _write(tmp_path, "dir\\r.csv", QUAD_ROSTER)
        assert main(["solve", "--roster", roster, "--method", "gmbf",
                     "--assignment-out", str(tmp_path / "a.csv")]) == 0
        _, solved = _parse_csv(capsys.readouterr().out)
        out = str(tmp_path / "metrics.csv")
        assert main(["experiment", "--roster", roster, "--methods", "gmbf",
                     "--seeds", "0", "--out", out]) == 0
        capsys.readouterr()
        _, rows = _parse_csv((tmp_path / "metrics.csv").read_text())
        assert solved[0]["dataset"] == "r"
        assert {r["dataset"] for r in rows} == {"r"}

    def test_bad_seed_token_in_flag_is_usage_error(self, tmp_path):
        assert main(["experiment", "--preset", "d1",
                     "--seeds", "0..x", "--out",
                     str(tmp_path / "m.csv")]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--seeds", "3..1", "empty seed range '3..1'"),
        ("--methods", "magic", "unknown method 'magic'; expected one of "
                               f"{harness.METHODS}"),
        ("--requirements", "1,x", "invalid value '1,x'"),
        ("--n", "abc", "invalid int value: 'abc'"),
    ])
    def test_flag_error_names_no_function(self, tmp_path, capsys, flag,
                                          value, message):
        assert main(["experiment", "--preset", "d1", flag, value,
                     "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"fairteams experiment: error: argument {flag}: {message}")


# Runs in a fresh interpreter: the pytest process already holds scipy
# (test_acceptance imports scipy.stats.binomtest).
_SCIPY_FREE = """
import contextlib, io, sys
import fairteams
from fairteams.cli import main
roster, teams = sys.argv[1:]
for argv in (["generate", "--preset", "d3", "--n", "12", "--out", roster],
             ["solve", "--method", "fern", "--roster", roster,
              "--assignment-out", teams],
             ["solve", "--method", "ga", "--roster", roster,
              "--assignment-out", teams],
             ["evaluate", "--roster", roster, "--assignment", teams]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(fairteams.bucket_distribution(7.5, 1.0).tobytes().hex())
"""


def test_commands_do_not_import_scipy(tmp_path):
    # scipy.stats takes about 1 s to import, and only bucket_distribution
    # needs it; it still gives the same bytes once it is loaded
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE, str(tmp_path / "roster.csv"),
         str(tmp_path / "teams.csv")],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    modules, masses = proc.stdout.splitlines()
    assert modules == "[]"
    assert masses == ("a4560450004dec3f23577599f32dbc3f"
                      "cd3b7f669e80763f000000000000003f")


# Valid inputs for evaluate; the fuzz test below mutates one of them.
_FUZZ_FILES = {
    "roster": b"student_id,group,skill_1,skill_2\n"
              b"s1,g1,0.2,0.9\ns2,g2,0.8,0.1\ns3,g1,0.5,0.5\ns4,g2,0.9,0.7\n",
    "assignment": b"student_id,team_id\ns1,0\ns2,0\ns3,1\ns4,1\n",
    "config": b"# evaluate settings\ngamma = 1\ndelta = 0.5\n"
              b"requirements = 1,1\nbenefit_epsilon = 0\nseed = 3\n",
}
# stray quotes and delimiters, NUL, a byte-order mark, line ends, huge,
# negative and non-finite numbers, and bytes that do not decode as UTF-8
_FUZZ_INSERTS = [b'"', b",", b"=", b"#", b" ", b"\x00", b"\xef\xbb\xbf",
                 b"\r\n", b"\r", b"\n", b"1e999", b"-1", b"nan", b"inf",
                 b"9" * 400, b"0x1F", b"1_0", b"\xff", b"\xc3"]


@st.composite
def _mutated(draw, data):
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["truncate", "flip", "insert", "header"]))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "truncate":
            data = data[:at]
        elif kind == "flip" and data:
            flip = draw(st.integers(1, 255))
            data = data[:at] + bytes([data[at] ^ flip]) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + draw(st.sampled_from(_FUZZ_INSERTS)) + data[at:]
        else:  # the first line twice
            data = data.split(b"\n", 1)[0] + b"\n" + data
    return data


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(sorted(_FUZZ_FILES)), data=st.data())
def test_mutated_input_files_fail_with_one_error_line(which, data):
    files = dict(_FUZZ_FILES)
    files[which] = data.draw(_mutated(files[which]), label=which)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in files}
        for name, content in files.items():
            Path(paths[name]).write_bytes(content)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--roster", paths["roster"],
                         "--assignment", paths["assignment"],
                         "--config", paths["config"]])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [] and out.getvalue().startswith("dataset,")
    else:
        assert code in (1, 2)
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: " if code == 1 else "io error: ")


# Each of requirements, gamma and delta takes one of these extremes in the
# solve fuzz test below.
_EXTREMES = st.sampled_from(["0", "1e-300", "1e154", "1e300"])


@st.composite
def _small_rosters(draw):
    """Roster CSV text: 2..12 students, 1..3 skills, 1..3 groups."""
    n, k = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    m = draw(st.integers(1, min(3, n)))
    groups = list(range(m)) + draw(st.lists(
        st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    level = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    lines = ["student_id,group," + ",".join(f"skill_{p + 1}"
                                            for p in range(k))]
    lines += [f"s{i},g{q}," + ",".join(repr(draw(level)) for _ in range(k))
              for i, q in enumerate(groups)]
    return "\n".join(lines) + "\n"


def _small_ga(*args, **kwargs):
    return genetic_algorithm(*args, **dict(
        kwargs, params=GAParams(population_size=4, generations=2)))


@settings(max_examples=200, deadline=None)
@given(roster=_small_rosters(), method=st.sampled_from(harness.METHODS),
       requirements=_EXTREMES, gamma=_EXTREMES, delta=_EXTREMES)
def test_solve_with_extreme_knobs_is_finite_or_one_error_line(
        roster, method, requirements, gamma, delta):
    # exit 0 with only finite numbers in the metrics row, or exit 1 with
    # one error line; a numpy overflow or invalid-value warning fails too
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            harness, "genetic_algorithm", _small_ga), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = os.path.join(tmp, "roster.csv")
        Path(path).write_text(roster)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--method", method, "--roster", path,
                         "--requirements", requirements, "--gamma", gamma,
                         "--delta", delta, "--assignment-out",
                         os.path.join(tmp, "teams.csv")])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
        header, rows = _parse_csv(out.getvalue())
        assert all(math.isfinite(float(rows[0][key])) for key in header[3:])
    else:
        assert code == 1 and len(lines) == 1, lines
        assert lines[0].startswith("error: ")
