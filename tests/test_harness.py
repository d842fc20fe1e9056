"""Harness tests: metrics, experiment batches, CSV determinism."""

import csv
import hashlib
import io

import numpy as np
import pytest

from fairteams import core, harness
from fairteams.baselines import GAParams, genetic_algorithm
from fairteams.core import Assignment, TaskSpec, make_instance, objective
from fairteams.datagen import generate_dataset, preset_config, save_roster
from fairteams.errors import ValidationError
from fairteams.harness import (ExperimentConfig, default_spec,
                               evaluate_solution, metrics_csv_text,
                               metrics_header, run_experiment, solve_instance,
                               write_metrics_csv)
from helpers import make_random_instance, make_random_spec, random_partition


def _mutual_pairs():
    """Two teams of two; partners benefit from each other in one dim each."""
    skills = np.array([[0.9, 0.1], [0.1, 0.9],
                       [0.8, 0.2], [0.2, 0.8]])
    groups = np.zeros(4, dtype=np.int64)
    inst = make_instance(skills, groups)
    return inst, Assignment(np.array([0, 0, 1, 1]))


class TestEvaluateSolution:
    def test_half_the_teams_meet_requirements(self):
        inst = make_instance(np.array([[0.6], [0.6], [0.3], [0.3]]),
                             np.array([0, 1, 0, 1]))
        spec = TaskSpec(requirements=[1.0])
        record = evaluate_solution(inst, spec,
                                   Assignment(np.array([0, 0, 1, 1])))
        assert record.pct_teams_met == pytest.approx(50.0)
        assert record.l_final == 2
        assert record.n == 4

    def test_perfect_solution_metrics(self):
        inst, assignment = _mutual_pairs()
        spec = TaskSpec(requirements=[1.0, 1.0])
        record = evaluate_solution(inst, spec, assignment)
        assert record.pct_teams_met == pytest.approx(100.0)
        assert record.y_pct == pytest.approx(100.0)
        assert record.z_pct == pytest.approx(0.0)
        assert record.objective == pytest.approx(-1.0)
        assert record.gben_pct == (pytest.approx(100.0),)

    def test_objective_column_matches_core(self):
        rng = np.random.default_rng(60)
        for _ in range(15):
            inst = make_random_instance(rng)
            spec = make_random_spec(rng, inst.k)
            assignment = random_partition(rng, inst.n,
                                          int(rng.integers(2, 4)))
            record = evaluate_solution(inst, spec, assignment)
            want = objective(inst, spec, assignment)
            assert record.objective == want.f
            assert record.y_pct == pytest.approx(100.0 * want.y, abs=1e-12)
            assert record.z_pct == pytest.approx(1e4 * want.z, abs=1e-9)

    def test_rejects_size_mismatch(self):
        inst, _ = _mutual_pairs()
        spec = TaskSpec(requirements=[1.0, 1.0])
        with pytest.raises(ValidationError):
            evaluate_solution(inst, spec, Assignment(np.array([0, 0, 1])))

    def test_batch_matches_one_at_a_time(self):
        # one objective_batch call over rows of 1, N and in-between team
        # counts; each record equals scoring its assignment alone
        rng = np.random.default_rng(62)
        inst = make_random_instance(rng, n=12, k=2, m=2)
        spec = make_random_spec(rng, inst.k)
        assignments = [Assignment(np.zeros(12, dtype=np.int64)),
                       Assignment(np.arange(12)),
                       core.compact_assignment(rng.choice([3, 40, 900], 12)),
                       random_partition(rng, 12, 4)]
        got = harness.evaluate_solutions(inst, spec, assignments,
                                         [1.0, 2.0, 3.0, 4.0], dataset="d",
                                         method="m", seed=5)
        for record, assignment, runtime in zip(got, assignments,
                                               [1.0, 2.0, 3.0, 4.0]):
            assert record == evaluate_solution(
                inst, spec, assignment, dataset="d", method="m", seed=5,
                runtime_ms=runtime)
            assert record.objective == objective(inst, spec, assignment).f
        assert [r.l_final for r in got] == [a.n_teams for a in assignments]

    def test_batch_padding_never_counts_as_met(self):
        # with zero requirements every team meets them; the zero team sums
        # that pad the one-team row to the batch's width are not teams
        inst = make_random_instance(np.random.default_rng(63), n=8, k=2)
        spec = TaskSpec(requirements=[0.0, 0.0])
        records = harness.evaluate_solutions(
            inst, spec, [Assignment(np.zeros(8, dtype=np.int64)),
                         Assignment(np.arange(8))], [0.0, 0.0])
        assert [r.pct_teams_met for r in records] == [100.0, 100.0]
        assert [r.l_final for r in records] == [1, 8]

    def test_batch_rejects_size_mismatch(self):
        inst, assignment = _mutual_pairs()
        spec = TaskSpec(requirements=[1.0, 1.0])
        with pytest.raises(ValidationError):
            harness.evaluate_solutions(
                inst, spec, [assignment, Assignment(np.array([0, 0, 1]))],
                [0.0, 0.0])


class TestSolveInstance:
    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(61)
        inst = make_random_instance(rng, n=10, k=2)
        with pytest.raises(ValidationError):
            solve_instance(inst, default_spec(2), "simulated_annealing")

    def test_stochastic_methods_inherit_constructive_team_count(self):
        inst = generate_dataset(preset_config("d2", 30), seed=0)
        spec = default_spec(2)
        n_gmbf = solve_instance(inst, spec, "gmbf").n_teams
        assert solve_instance(inst, spec, "random", seed=1).n_teams == n_gmbf
        assert solve_instance(inst, spec, "umeans", seed=1).n_teams == n_gmbf

    def test_team_count_override(self):
        inst = generate_dataset(preset_config("d1", 20), seed=0)
        spec = default_spec(2)
        out = solve_instance(inst, spec, "random", seed=0, team_count=3)
        assert out.n_teams == 3

    def test_fern_never_worse_than_gmbf(self):
        spec = default_spec(2)
        for seed in range(5):
            inst = generate_dataset(preset_config("d3", 40), seed=seed)
            f_gmbf = objective(inst, spec,
                               solve_instance(inst, spec, "gmbf")).f
            f_fern = objective(inst, spec,
                               solve_instance(inst, spec, "fern")).f
            assert f_fern <= f_gmbf + 1e-12


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(seeds=())
        with pytest.raises(ValidationError):
            ExperimentConfig(seeds=(0, 0))
        with pytest.raises(ValidationError):
            ExperimentConfig(seeds=(0,), methods=())
        with pytest.raises(ValidationError):
            ExperimentConfig(seeds=(0,), methods=("fern", "fern"))
        with pytest.raises(ValidationError):
            ExperimentConfig(seeds=(0,), methods=("magic",))
        with pytest.raises(ValidationError):
            ExperimentConfig(seeds=(0,), preset=None, roster=None)
        with pytest.raises(ValidationError):
            ExperimentConfig(seeds=(0,), preset="d1", roster="x.csv")
        with pytest.raises(ValidationError):
            ExperimentConfig(seeds=(0,), reps=0)

    def test_label_precedence(self, tmp_path):
        assert ExperimentConfig(seeds=(0,), preset="d2").label == "d2"
        roster = str(tmp_path / "fall_2024.csv")
        assert ExperimentConfig(seeds=(0,), preset=None,
                                roster=roster).label == "fall_2024"


def _mask_runtime(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("runtime_ms")
    for row in rows[1:]:
        row[col] = "x"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


class TestRunExperiment:
    def _small_config(self, **kw):
        defaults = dict(seeds=(0, 1), methods=("gmbf", "random"),
                        preset="d1", n_students=20, reps=2)
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_row_and_aggregate_shape(self):
        result = run_experiment(self._small_config())
        assert len(result.records) == 4
        assert len(result.failures) == 0
        keys = [(r.method, r.seed) for r in result.records]
        assert keys == [("gmbf", 0), ("gmbf", 1), ("random", 0),
                        ("random", 1)]
        agg = [(r.method, r.seed) for r in result.aggregates]
        assert agg == [("gmbf", "mean"), ("gmbf", "se"),
                       ("random", "mean"), ("random", "se")]

    def test_csv_identical_after_masking_runtime(self):
        a = run_experiment(self._small_config())
        b = run_experiment(self._small_config())
        text_a = metrics_csv_text(a.records, aggregates=a.aggregates)
        text_b = metrics_csv_text(b.records, aggregates=b.aggregates)
        assert _mask_runtime(text_a) == _mask_runtime(text_b)

    def test_aggregates_recompute_from_rows(self):
        result = run_experiment(self._small_config(seeds=(0, 1, 2)))
        for method in ("gmbf", "random"):
            rows = np.array([r.metric_values() for r in result.records
                             if r.method == method])
            mean_row = next(r for r in result.aggregates
                            if r.method == method and r.seed == "mean")
            se_row = next(r for r in result.aggregates
                          if r.method == method and r.seed == "se")
            np.testing.assert_allclose(mean_row.metric_values(),
                                       rows.mean(axis=0), atol=1e-9)
            np.testing.assert_allclose(
                se_row.metric_values(),
                rows.std(axis=0, ddof=1) / np.sqrt(len(rows)), atol=1e-9)

    def test_single_seed_se_is_zero(self):
        result = run_experiment(self._small_config(seeds=(4,),
                                                   methods=("gmbf",)))
        se_row = result.aggregates[1]
        assert se_row.seed == "se"
        assert all(v == 0.0 for v in se_row.metric_values())

    def test_failures_recorded_and_batch_continues(self):
        # team_count larger than N breaks the stochastic methods only;
        # gmbf ignores the override and must still produce its rows.
        config = self._small_config(team_count=999)
        result = run_experiment(config)
        assert len(result.records) == 2
        assert all(r.method == "gmbf" for r in result.records)
        assert len(result.failures) == 2
        for failure in result.failures:
            assert failure.method == "random"
            assert failure.dataset == "d1"
            assert failure.message

    def test_roster_source_keeps_instance_fixed(self, tmp_path):
        inst = generate_dataset(preset_config("d2", 16), seed=3)
        path = tmp_path / "class.csv"
        save_roster(inst, path)
        config = ExperimentConfig(seeds=(0, 1), methods=("gmbf",),
                                  preset=None, roster=str(path))
        result = run_experiment(config)
        a, b = result.records
        # Deterministic method on a fixed roster: identical metrics apart
        # from the wall-clock column.
        assert a.metric_values()[:-len(a.gben_pct) - 1] \
            == b.metric_values()[:-len(b.gben_pct) - 1]
        assert a.gben_pct == b.gben_pct
        assert a.dataset == "class"

    def test_stochastic_reps_are_averaged(self):
        one = run_experiment(self._small_config(seeds=(0,),
                                                methods=("random",), reps=1))
        many = run_experiment(self._small_config(seeds=(0,),
                                                 methods=("random",),
                                                 reps=12))
        # Aggregating 12 sub-runs moves the row away from any single run
        # and keeps the identity columns intact.
        assert one.records[0].seed == 0 and many.records[0].seed == 0
        assert one.records[0].y_pct != many.records[0].y_pct

    def test_mean_benefit_ordering_across_methods(self):
        # Skewed preset at full scale, one sub-run per stochastic cell to
        # keep the batch fast. The benefit-aware methods must clear the
        # benefit-blind baselines by a wide margin and the refiner must beat
        # its own starting point; the GA's exact rank among the constructive
        # methods depends on operator choices and is deliberately not pinned.
        config = ExperimentConfig(seeds=tuple(range(10)),
                                  methods=("fern", "gmbf", "random",
                                           "umeans", "ga"),
                                  preset="d3", n_students=100, reps=1)
        result = run_experiment(config)
        assert not result.failures
        mean_y = {r.method: r.y_pct for r in result.aggregates
                  if r.seed == "mean"}
        assert mean_y["fern"] > mean_y["gmbf"]
        assert mean_y["fern"] > mean_y["ga"]
        assert mean_y["gmbf"] > mean_y["random"] + 15.0
        assert mean_y["ga"] > mean_y["random"] + 15.0
        assert abs(mean_y["random"] - mean_y["umeans"]) < 10.0


def _csv_digest(result) -> str:
    text = metrics_csv_text(result.records, aggregates=result.aggregates)
    return hashlib.sha256(_mask_runtime(text).encode()).hexdigest()


_ALL_METHODS = ("fern", "gmbf", "random", "umeans", "ga")


@pytest.fixture
def small_ga(monkeypatch):
    """A 10-member, 5-generation GA in place of the default one."""
    def small(*args, **kwargs):
        return genetic_algorithm(*args, **dict(
            kwargs, params=GAParams(population_size=10, generations=5)))

    monkeypatch.setattr(harness, "genetic_algorithm", small)

# sha256 of the metrics CSV with the runtime_ms column masked, recorded
# while every sub-run still rebuilt the benefit matrix and reran its sizing
# solve.
GOLDEN_PRESET_CSV = "397cf66ac541f6f8139ce310a28587ee4f315dac7a809e6590fc136ba13c3349"
GOLDEN_ROSTER_CSV = "260390c8b4701ba87990525ef64814d4cc0c9c04368cf173ce20f1000a541ff0"


def _roster_config(tmp_path, seeds=(3, 4)):
    path = tmp_path / "class.csv"
    save_roster(generate_dataset(preset_config("d3", 20), seed=5), path)
    return ExperimentConfig(seeds=seeds, methods=_ALL_METHODS, preset=None,
                            roster=str(path), reps=3)


def _preset_config(**kw):
    defaults = dict(seeds=(0, 1), methods=_ALL_METHODS, preset="d2",
                    n_students=24, reps=3)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name with a call counter; returns the one-item count."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.usefixtures("small_ga")
class TestExperimentWork:
    def test_preset_grid_reproduces_golden_csv(self):
        assert _csv_digest(run_experiment(_preset_config())) \
            == GOLDEN_PRESET_CSV

    def test_roster_grid_reproduces_golden_csv(self, tmp_path):
        assert _csv_digest(run_experiment(_roster_config(tmp_path))) \
            == GOLDEN_ROSTER_CSV

    def test_benefit_matrix_built_once_per_instance(self, monkeypatch,
                                                    tmp_path):
        calls = [_count_calls(monkeypatch, module, "compute_benefit_matrix")
                 for module in (harness, core)]
        result = run_experiment(_preset_config(seeds=(0, 1, 2)))
        assert not result.failures
        assert [c[0] for c in calls] == [3, 0]
        calls[0][0] = 0
        result = run_experiment(_roster_config(tmp_path))
        assert not result.failures
        assert [c[0] for c in calls] == [1, 0]

    @pytest.mark.parametrize("method", ["random", "umeans", "ga"])
    def test_sizing_runs_once_per_stochastic_cell(self, monkeypatch,
                                                  method):
        gmbf_calls = _count_calls(monkeypatch, harness, "gmbf")
        fmhc_calls = _count_calls(monkeypatch, harness, "fmhc")
        result = run_experiment(_preset_config(methods=(method,), reps=4))
        assert not result.failures
        assert gmbf_calls[0] == 2
        # one fmhc call refines both rosters' starts
        assert fmhc_calls[0] == (1 if method == "ga" else 0)

    def test_team_count_override_skips_sizing(self, monkeypatch):
        gmbf_calls = _count_calls(monkeypatch, harness, "gmbf")
        result = run_experiment(_preset_config(
            methods=("random", "umeans", "ga"), team_count=4))
        assert not result.failures
        assert gmbf_calls[0] == 0

    @pytest.mark.parametrize("source", ["preset", "roster"])
    def test_each_roster_solves_gmbf_and_fern_once(self, monkeypatch,
                                                   tmp_path, source):
        gmbf_calls = _count_calls(monkeypatch, harness, "gmbf")
        fmhc_calls = _count_calls(monkeypatch, harness, "fmhc")
        if source == "preset":  # a new roster per seed, refined in one call
            result = run_experiment(_preset_config())
            assert (gmbf_calls[0], fmhc_calls[0]) == (2, 1)
        else:  # one roster for every seed
            result = run_experiment(_roster_config(tmp_path, (3, 4, 5)))
            assert (gmbf_calls[0], fmhc_calls[0]) == (1, 1)
            # every seed's row reports the time of the one solve
            for method in ("fern", "gmbf"):
                assert len({r.runtime_ms for r in result.records
                            if r.method == method}) == 1
        assert not result.failures

    @pytest.mark.parametrize("team_count", [None, 4])
    def test_failed_solve_fails_each_dependent_cell(self, monkeypatch,
                                                    team_count):
        calls = [0]

        def broken(*args, **kwargs):
            calls[0] += 1
            raise ValidationError("no start")

        monkeypatch.setattr(harness, "gmbf", broken)
        result = run_experiment(_preset_config(team_count=team_count))
        # with a team count only fern and gmbf need gmbf's solve
        failed = _ALL_METHODS if team_count is None else ("fern", "gmbf")
        assert [(f.method, f.seed) for f in result.failures] == [
            (m, seed) for seed in (0, 1) for m in failed]
        assert {f.message for f in result.failures} \
            == {"ValidationError: no start"}
        # a failure is kept: each roster ran the solve once, and every cell
        # that needs it reports it
        assert calls[0] == 2
        written = set(_ALL_METHODS) - set(failed)
        assert {(r.method, r.seed) for r in result.records} \
            == {(m, seed) for seed in (0, 1) for m in written}


class TestMetricsCsv:
    def test_header_includes_group_columns(self):
        assert metrics_header(("g1", "g2")) == [
            "dataset", "method", "seed", "n", "l_final", "pct_teams_met",
            "y_pct", "z_pct", "objective", "runtime_ms", "gben_g1",
            "gben_g2"]

    def test_rejects_empty_and_mixed_label_sets(self, tmp_path):
        with pytest.raises(ValidationError):
            write_metrics_csv([], tmp_path / "m.csv")
        inst_a = make_instance(np.array([[0.5], [0.6]]), np.array([0, 1]),
                               group_labels=("x", "y"))
        inst_b = make_instance(np.array([[0.5], [0.6]]), np.array([0, 1]),
                               group_labels=("p", "q"))
        spec = TaskSpec(requirements=[0.4])
        rec_a = evaluate_solution(inst_a, spec,
                                  Assignment(np.array([0, 1])))
        rec_b = evaluate_solution(inst_b, spec,
                                  Assignment(np.array([0, 1])))
        with pytest.raises(ValidationError):
            metrics_csv_text([rec_a, rec_b])

    def test_rejected_records_leave_existing_file_untouched(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"earlier,run\n")
        with pytest.raises(ValidationError):
            write_metrics_csv([], path)
        assert path.read_bytes() == b"earlier,run\n"

    def test_writes_file_and_text_identically(self, tmp_path):
        result = run_experiment(ExperimentConfig(
            seeds=(0,), methods=("gmbf",), preset="d1", n_students=12))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result.records, path,
                          aggregates=result.aggregates)
        assert path.read_text() == metrics_csv_text(
            result.records, aggregates=result.aggregates)
