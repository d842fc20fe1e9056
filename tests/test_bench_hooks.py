"""The benchmark's tracer and pass counter still hook into the package.

bench/tracer.py wraps package functions such as harness.write_metrics_csv
and SolverState.__init__, apply, clone, gain and gain_matrix by name, binds
genetic_algorithm's arguments to its signature, and hands fmhc a stats
dict; a refactor that breaks one of these fails here instead of only in
the benchmark's own, slower suite.
"""

import importlib.util
from pathlib import Path

from fairteams import cli
from fairteams.refine import SolverState

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(argv):
    """cli.main(argv) under the installed Tracer and PassCounter, as
    bench/run.py installs them; returns (status, span names, passes, counter
    increments)."""
    tracer_module = _load_tracer()
    counter, tracer = tracer_module.PassCounter(), tracer_module.Tracer()
    try:
        # installs record each wrapper before binding it, so a failed
        # install is undone below too
        counter.install()
        tracer.install()
        before = tracer.start_op(0)
        status = cli.main(argv)
        counts = tracer.stop_op(before)
    finally:
        tracer.uninstall()
        counter.uninstall()
    return status, {s[0] for s in tracer.spans}, counter.passes, counts


def test_tracer_and_pass_counter_hook_a_fern_solve(tmp_path, capsys,
                                                   monkeypatch):
    # the live rows x slots of every gain evaluation, read from its arguments
    live_rows, cells = [], []
    original = SolverState.gain_matrix

    def spy(self, locked=None):
        live = self.n if locked is None else int((~locked).sum())
        live_rows.append(live)
        cells.append(live * self.sizes.shape[1])
        return original(self, locked)

    monkeypatch.setattr(SolverState, "gain_matrix", spy)
    roster = str(tmp_path / "roster.csv")
    assert cli.main(["generate", "--preset", "d3", "--n", "40",
                     "--out", roster]) == 0
    status, spans, passes, counts = _traced(
        ["solve", "--method", "fern", "--roster", roster,
         "--assignment-out", str(tmp_path / "teams.csv")])
    capsys.readouterr()
    assert status == 0
    assert "refine.SolverState.gain_matrix" in spans
    assert passes >= 1
    # each fmhc pass opens with every student live; locked rows are not
    # evaluated, so they are not counted either
    assert live_rows.count(40) == passes
    assert counts["refine.SolverState.gain_matrix.cells"] == sum(cells)
    assert min(live_rows) < 40
    # bench/test_bench.py checks the same ratio on every workload
    committed = counts["refine.moves_committed"]
    assert committed > 0
    assert 0 < committed / counts["refine.moves_tried"] <= 1


def test_tracer_hooks_an_experiment(tmp_path, capsys):
    # grid_small's per-layer metrics read these spans
    status, spans, _, _ = _traced(
        ["experiment", "--preset", "d3", "--n", "40", "--seeds", "0",
         "--methods", "fern,gmbf,random,umeans", "--reps", "2",
         "--out", str(tmp_path / "metrics.csv")])
    capsys.readouterr()
    assert status == 0
    assert {"harness.write_metrics_csv", "harness.solve_instance",
            "baselines.uniform_kmeans"} <= spans


def test_tracer_counts_the_evaluations_of_a_ga_solve(tmp_path, capsys):
    # ga_n100 reads this counter; the tracer finds the GA's params by
    # binding its arguments to genetic_algorithm's signature
    roster = str(tmp_path / "roster.csv")
    assert cli.main(["generate", "--preset", "d3", "--n", "40",
                     "--out", roster]) == 0
    status, spans, _, counts = _traced(
        ["solve", "--method", "ga", "--roster", roster,
         "--assignment-out", str(tmp_path / "teams.csv")])
    capsys.readouterr()
    assert status == 0
    assert "baselines.genetic_algorithm" in spans
    # population_size * (generations + 1) at the default GAParams: the
    # chromosomes bred, not the rows the GA scores
    assert counts["baselines.ga.evals"] == 200 * 301
