"""Batch orchestration: solve methods, metrics, and experiment CSV output.

Reporting scale: y and per-group benefit are percentages (fraction x 100);
the group-variance column is fraction-scale variance x 10^4 so that it and
the benefit percentages move on comparable magnitudes. The objective column
stays on fraction scale, exactly as the optimizer sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import genetic_algorithm, uniform_kmeans
from .core import (Assignment, Instance, TaskSpec, compute_benefit_matrix,
                   objective_batch)
from .datagen import generate_dataset, load_instance, preset_config
from .errors import ValidationError
from .initial import gmbf, random_init
from .refine import RefineConfig, fmhc
from .rng import derive_rng

METHODS = ("fern", "gmbf", "random", "umeans", "ga")

# method -> (salt of its per-seed sub-run streams, solve sizing its teams)
_STOCHASTIC = {"random": (1, "gmbf"), "umeans": (2, "gmbf"), "ga": (3, "fern")}

METRIC_COLUMNS = ("n", "l_final", "pct_teams_met", "y_pct", "z_pct",
                  "objective", "runtime_ms")

_FAILURES = (ValueError, ArithmeticError)  # ValidationError is a ValueError


@dataclass(frozen=True)
class MetricsRecord:
    dataset: str
    method: str
    seed: int | str
    n: float
    l_final: float
    pct_teams_met: float
    y_pct: float
    z_pct: float
    objective: float
    runtime_ms: float
    group_labels: tuple[str, ...]
    gben_pct: tuple[float, ...]

    def metric_values(self) -> tuple[float, ...]:
        return tuple(getattr(self, c) for c in METRIC_COLUMNS) + self.gben_pct


@dataclass(frozen=True)
class RunFailure:
    dataset: str
    method: str
    seed: int
    message: str


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[MetricsRecord, ...]
    aggregates: tuple[MetricsRecord, ...]
    failures: tuple[RunFailure, ...]


def evaluate_solutions(instance: Instance, spec: TaskSpec, assignments,
                       runtimes_ms, dataset: str = "", method: str = "",
                       seed: int | str = 0,
                       b: np.ndarray | None = None) -> list[MetricsRecord]:
    """Score assignments in one objective_batch call: record p equals
    evaluate_solution(assignments[p], runtime_ms=runtimes_ms[p]). b, when
    given, is the benefit matrix for (instance, spec.benefit_epsilon)."""
    if any(a.n != instance.n for a in assignments):
        raise ValidationError("assignment size does not match the roster")
    if b is None:
        b = compute_benefit_matrix(instance, spec.benefit_epsilon)
    batch = objective_batch(instance, spec, b,
                            [a.team_of for a in assignments])
    # the team sums past a row's own team count pad the batch: not teams
    return [MetricsRecord(
        dataset=dataset, method=method, seed=seed, n=instance.n,
        l_final=count, pct_teams_met=100.0 * float(np.all(
            sums[:count] >= spec.requirements, axis=1).sum()) / count,
        y_pct=100.0 * float(y), z_pct=1e4 * float(z), objective=float(f),
        runtime_ms=runtime_ms, group_labels=instance.group_labels,
        gben_pct=tuple(100.0 * v for v in gben))
        for count, runtime_ms, sums, y, z, f, gben in zip(
            [a.n_teams for a in assignments], runtimes_ms, batch.team_sums,
            batch.y, batch.z, batch.f, batch.group_benefits)]


def evaluate_solution(instance: Instance, spec: TaskSpec,
                      assignment: Assignment, dataset: str = "",
                      method: str = "", seed: int | str = 0,
                      runtime_ms: float = 0.0,
                      b: np.ndarray | None = None) -> MetricsRecord:
    """Score one assignment: evaluate_solutions' one-row case."""
    return evaluate_solutions(instance, spec, [assignment], [runtime_ms],
                              dataset=dataset, method=method, seed=seed,
                              b=b)[0]


def solve_instance(instance: Instance, spec: TaskSpec, method: str,
                   seed=0, team_count: int | None = None,
                   refine_config: RefineConfig | None = None,
                   b: np.ndarray | None = None) -> Assignment:
    """Run one method end to end, including any prerequisite sizing run.

    Team counts when not overridden: gmbf's for random and umeans, fern's
    (the full construct-plus-refine pipeline) for ga. b, when given, must
    be the benefit matrix for (instance, spec.benefit_epsilon).
    """
    if method not in METHODS:
        raise ValidationError(
            f"unknown method {method!r}; expected one of {METHODS}")
    if b is None:
        b = compute_benefit_matrix(instance, spec.benefit_epsilon)
    if method not in _STOCHASTIC:
        return _solve_once({}, method, instance, spec, b, refine_config)[0]
    if team_count is None:
        team_count = _solve_once({}, _STOCHASTIC[method][1], instance, spec,
                                 b, refine_config)[0].n_teams
    if method == "random":
        return random_init(instance.n, team_count, rng=seed)
    if method == "umeans":
        return uniform_kmeans(instance, team_count, rng=seed)
    return genetic_algorithm(instance, spec, b, team_count, rng=seed)


def _solve_once(solved, method, instance, spec, b, refine_config):
    """gmbf's or fern's (assignment, ms), kept in solved so that each is
    run once per dict; fern's ms includes its gmbf start. A failed solve is
    kept as its error and raised again for every caller."""
    if method not in solved:
        try:
            if method == "gmbf":
                solved[method] = _timed(gmbf, instance, spec, b)
            else:
                _refine_starts([(instance, b, solved)], spec, refine_config)
        except _FAILURES as exc:
            solved[method] = exc
    if isinstance(solved[method], Exception):
        raise solved[method]
    return solved[method]


def _refine_starts(rosters, spec, refine_config):
    """Refine the gmbf starts of (instance, b, solved) rosters with one fmhc
    call and keep each fern in its solved; a fern's ms is its start's plus
    its share (call time / rosters) of the call."""
    starts = [_solve_once(solved, "gmbf", instance, spec, b, refine_config)
              for instance, b, solved in rosters]
    instances, bs, solves = zip(*rosters)
    results, ms = _timed(fmhc, list(instances), spec, list(bs),
                         [start for start, _ in starts], config=refine_config)
    for solved, (_, start_ms), result in zip(solves, starts, results):
        solved["fern"] = (result, start_ms + ms / len(rosters))


@dataclass(frozen=True)
class ExperimentConfig:
    """One dataset source x methods x seeds batch.

    Preset sources resample the dataset per seed; a roster source keeps the
    instance fixed and seeds only the stochastic methods; gmbf and fern are
    solved once per roster. reps sub-runs are averaged into each stochastic
    method's per-seed row. spec None means default_spec(k).
    """

    seeds: tuple[int, ...]
    methods: tuple[str, ...] = ("fern",)
    preset: str | None = "d1"
    roster: str | None = None
    n_students: int = 100
    skill_dims: int = 2
    n_groups: int = 2
    reps: int = 10
    spec: TaskSpec | None = None
    team_count: int | None = None
    refine_config: RefineConfig | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValidationError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("seeds must be distinct")
        if not self.methods:
            raise ValidationError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ValidationError(f"unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ValidationError("methods must be distinct")
        if (self.preset is None) == (self.roster is None):
            raise ValidationError("exactly one of preset/roster is required")
        if self.reps < 1:
            raise ValidationError("reps must be at least 1")

    @property
    def label(self) -> str:
        if self.preset is not None:
            return self.preset.lower()
        return roster_label(self.roster)


def roster_label(path) -> str:
    """File name of a roster path without its extension; both / and \\
    separate directories."""
    stem = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return stem.rsplit(".", 1)[0]


def default_spec(k: int) -> TaskSpec:
    """Requirement 2 per skill, gamma = delta = 1, strict benefit."""
    return TaskSpec(requirements=np.full(k, 2.0))


def _mean_record(rows: list[MetricsRecord], seed: int | str,
                 se: bool = False) -> MetricsRecord:
    """rows[0] with every metric replaced by its mean over rows (with se,
    by its standard error)."""
    values = np.array([r.metric_values() for r in rows])
    if not se:
        stat = values.mean(axis=0)
    elif len(rows) > 1:
        stat = values.std(axis=0, ddof=1) / np.sqrt(len(rows))
    else:
        stat = np.zeros(values.shape[1])
    base = len(METRIC_COLUMNS)
    return replace(rows[0], seed=seed,
                   **dict(zip(METRIC_COLUMNS, stat[:base])),
                   gben_pct=tuple(stat[base:]))


def run_experiment(config: ExperimentConfig,
                   instance: Instance | None = None) -> ExperimentResult:
    """Per-seed records plus per-method mean and standard-error rows.

    instance, when given, is config.roster already loaded. Every roster is
    built first, with its benefit matrix, and when a cell needs fern, one
    fmhc call refines every roster's gmbf start. A failed run is recorded
    with its identity and the batch continues.
    """
    rosters, cells = [], []  # (instance, b, b_ms, solved); (seed, roster)
    for seed in config.seeds:
        if config.roster is None or not rosters:
            instance = (
                generate_dataset(preset_config(
                    config.preset, config.n_students,
                    skill_dims=config.skill_dims,
                    n_groups=config.n_groups), seed=seed)
                if config.roster is None
                else instance or load_instance(config.roster))
            spec = config.spec or default_spec(instance.k)
            b, b_ms = _timed(compute_benefit_matrix, instance,
                             spec.benefit_epsilon)
            rosters.append((instance, b, b_ms, {}))
        cells.append((seed, rosters[-1]))
    if "fern" in config.methods or (
            "ga" in config.methods and config.team_count is None):
        # on a failure, each roster's fern cell solves it alone
        with contextlib.suppress(*_FAILURES):
            _refine_starts([(i, b, solved) for i, b, _, solved in rosters],
                           spec, config.refine_config)
    records: list[MetricsRecord] = []
    failures: list[RunFailure] = []
    for seed, (instance, b, b_ms, solved) in cells:
        for method in config.methods:
            try:
                records.append(_run_cell(config, spec, instance, b, b_ms,
                                         solved, method, seed))
            except _FAILURES as exc:
                failures.append(RunFailure(config.label, method, seed,
                                           f"{type(exc).__name__}: {exc}"))
    records.sort(key=lambda r: (r.dataset, r.method, r.seed))

    aggregates: list[MetricsRecord] = []
    for method in sorted(set(r.method for r in records)):
        rows = [r for r in records if r.method == method]
        aggregates.append(_mean_record(rows, "mean"))
        aggregates.append(_mean_record(rows, "se", se=True))
    return ExperimentResult(tuple(records), tuple(aggregates),
                            tuple(failures))


def _timed(fn, *args, **kwargs):
    """fn's result and its wall time in milliseconds."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1e3


def _run_cell(config: ExperimentConfig, spec: TaskSpec, instance: Instance,
              b: np.ndarray, setup_ms: float, solved: dict, method: str,
              seed: int) -> MetricsRecord:
    """One (method, seed) row; stochastic methods average reps sub-runs.

    fern, gmbf and a stochastic method's sizing solve come from solved,
    the roster's _solve_once dict. runtime_ms is setup_ms (the benefit
    matrix build) plus the solves behind the row or sub-run, as in solve.
    """
    if method not in _STOCHASTIC:
        assignment, ms = _solve_once(solved, method, instance, spec, b,
                                     config.refine_config)
        return evaluate_solution(instance, spec, assignment,
                                 dataset=config.label, method=method,
                                 seed=seed, runtime_ms=setup_ms + ms, b=b)
    salt, sizing = _STOCHASTIC[method]
    team_count = config.team_count
    if team_count is None:
        start, sizing_ms = _solve_once(solved, sizing, instance, spec, b,
                                       config.refine_config)
        team_count, setup_ms = start.n_teams, setup_ms + sizing_ms
    assignments, solve_ms = zip(*(_timed(
        solve_instance, instance, spec, method,
        seed=derive_rng(seed, salt, rep), team_count=team_count, b=b)
        for rep in range(config.reps)))
    return _mean_record(evaluate_solutions(
        instance, spec, assignments, [setup_ms + ms for ms in solve_ms],
        dataset=config.label, method=method, seed=seed, b=b), seed)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def metrics_header(group_labels: tuple[str, ...]) -> list[str]:
    return (["dataset", "method", "seed", *METRIC_COLUMNS]
            + [f"gben_{label}" for label in group_labels])


def metrics_csv_text(records, aggregates=()) -> str:
    """Plain CSV, floats via repr so identical runs emit identical bytes."""
    rows = list(records) + list(aggregates)
    if not rows:
        raise ValidationError("no records to write")
    labels = rows[0].group_labels
    for r in rows:
        if r.group_labels != labels:
            raise ValidationError(
                "all records in one CSV must share group labels")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(metrics_header(labels))
    for r in rows:
        writer.writerow([r.dataset, r.method, _format_cell(r.seed)]
                        + [_format_cell(v) for v in r.metric_values()])
    return buf.getvalue()


def write_metrics_csv(records, path, aggregates=()) -> None:
    """Write metrics_csv_text to path; the text is built before the file
    is opened, so rejected records leave an existing file untouched."""
    text = metrics_csv_text(records, aggregates=aggregates)
    with open(path, "w", newline="") as fh:
        fh.write(text)
