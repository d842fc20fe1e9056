"""Self-tests of the benchmark on its 40-student smoke variants.

    python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(out: dict, declared: list) -> None:
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value = out["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_end_to_end(workload):
    out = result(bench("--workload", workload, "--smoke", "--seed", "0",
                       "--seconds", "0.5", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert_metrics(out, SPEC["end_to_end"])
    assert all(out["metrics"][m["name"]]["value"] != 0
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_traced_counts_repeat(workload):
    args = ("--workload", workload, "--smoke", "--seed", "1",
            "--seconds", "0.5", "--trace", "1")
    first = bench(*args)
    second = bench(*args)
    for proc in (first, second):
        out = result(proc)
        assert out["correct"], proc.stdout
        assert_metrics(out, SPEC["per_layer"])
    assert "exact counts repeat the previous traced run" in second.stdout
    counts = [line for proc in (first, second)
              for line in proc.stdout.splitlines()
              if line.startswith("exact counts:")]
    assert len(counts) == 2 and counts[0] == counts[1]
    metrics = result(second)["metrics"]
    if workload == "ga_n100":
        assert metrics["refine.fmhc.calls"]["value"] == 0
        assert metrics["refine.SolverState.gain_matrix.calls"]["value"] == 0
        assert metrics["baselines.ga.evals"]["value"] == 200 * 301
    else:
        assert metrics["refine.moves_tried"]["value"] > 0
        assert 0 < metrics["refine.commit_ratio"]["value"] <= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ga_n100", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.fixture
def solved(tmp_path):
    """A 3-student roster, an assignment, and its oracle objective."""
    roster = tmp_path / "roster.csv"
    roster.write_text("student_id,group,skill_1\n"
                      "a,g1,0.9\nb,g2,0.5\nc,g1,0.1\n")
    assignment = tmp_path / "teams.csv"
    assignment.write_text("student_id,team_id\na,0\nb,0\nc,1\n")
    oracle = run.load_oracle()
    parsed = gate.read_roster(roster)
    b = oracle.benefit_matrix(parsed[2], 0.0)
    f = gate.oracle_f(oracle, parsed, [0, 0, 1], b)
    return oracle, parsed, b, assignment, f


def metrics_line(f: float, l_final: int = 2) -> str:
    return ("dataset,method,seed,n,l_final,objective\n"
            f"r,fern,0,3,{l_final},{f!r}\n")


def test_gate_accepts_the_oracle_objective(solved):
    oracle, roster, b, assignment, f = solved
    assert gate.check_solve(oracle, roster, b, metrics_line(f),
                            assignment) == f


@pytest.mark.parametrize("printed_shift, l_final, rows", [
    (1e-6, 2, None),
    (0.0, 3, None),
    (0.0, 2, "student_id,team_id\na,0\nb,0\nb,1\n"),
    (0.0, 2, "student_id,team_id\na,0\nb,0\n"),
    (0.0, 2, "student_id,team_id\na,0\nb,0\nc,2\n"),
])
def test_gate_rejects_bad_output(solved, printed_shift, l_final, rows):
    oracle, roster, b, assignment, f = solved
    if rows is not None:
        assignment.write_text(rows)
    with pytest.raises(gate.GateError):
        gate.check_solve(oracle, roster, b,
                         metrics_line(f + printed_shift, l_final), assignment)


def test_tracer_rebinds_and_restores():
    sys.path.insert(0, str(run.SRC))
    from fairteams import cli, harness, refine  # noqa: F401 (cli: wrapped)
    originals = (harness.fmhc, refine.fmhc, refine.SolverState.apply)
    tracer = run.Tracer()
    tracer.install()
    try:
        assert harness.fmhc is refine.fmhc
        assert harness.fmhc is not originals[0]
        assert refine.SolverState.apply is not originals[2]
    finally:
        tracer.uninstall()
    assert (harness.fmhc, refine.fmhc, refine.SolverState.apply) == originals
