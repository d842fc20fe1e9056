"""End-to-end CLI tests, in process via main(argv)."""

import csv
import io

import pytest

from fairteams import cli, core, harness
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
