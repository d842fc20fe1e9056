"""Correctness gate: checks each benchmark operation's output.

The checks read only files and text the CLI wrote. Objectives are
recomputed with tests/oracle.py, which shares no code with the package.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

TOLERANCE = 1e-9


class GateError(Exception):
    """An operation's output failed a check."""


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_roster(path):
    """(student ids, group index per student, skill rows) from a roster CSV.

    Group labels are numbered in order of first appearance; the oracle only
    needs co-membership, so the numbering does not matter.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ids, groups, skills, labels = [], [], [], {}
    for row in rows[1:]:
        if not row:
            continue
        ids.append(row[0])
        groups.append(labels.setdefault(row[1], len(labels)))
        skills.append([float(v) for v in row[2:]])
    return ids, groups, skills


def read_partition(path, ids) -> list[int]:
    """team_of per roster student; every student exactly once, teams dense."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows or rows[0] != ["student_id", "team_id"]:
        raise GateError(f"{path}: bad or missing header")
    index = {sid: i for i, sid in enumerate(ids)}
    team_of = [-1] * len(ids)
    for row in rows[1:]:
        if len(row) != 2 or row[0] not in index:
            raise GateError(f"{path}: unexpected row {row}")
        i = index[row[0]]
        if team_of[i] != -1:
            raise GateError(f"{path}: student {row[0]} assigned twice")
        team_of[i] = int(row[1])
    if -1 in team_of:
        raise GateError(f"{path}: {team_of.count(-1)} students unassigned")
    if sorted(set(team_of)) != list(range(max(team_of) + 1)):
        raise GateError(f"{path}: team ids are not dense from 0")
    return team_of


def parse_metrics(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def oracle_f(oracle, roster, team_of, b) -> float:
    """Objective at the CLI defaults: requirement 2 per skill,
    gamma = delta = 1, benefit epsilon 0."""
    _, groups, skills = roster
    k = len(skills[0])
    return float(oracle.objective_terms(skills, groups, team_of, [2.0] * k,
                                        1.0, 1.0, 0.0, b=b)[3])


def check_objective(label: str, printed: float, expected: float) -> None:
    if not math.isfinite(printed) or abs(printed - expected) > TOLERANCE:
        raise GateError(f"{label}: printed objective {printed!r} differs "
                        f"from the oracle's {expected!r}")


def check_solve(oracle, roster, b, stdout: str, assignment_path,
                recompute: bool = True) -> float:
    """Gate one `solve`; returns the printed objective. recompute=False
    skips the oracle for an assignment already checked byte for byte."""
    rows = parse_metrics(stdout)
    if len(rows) != 1:
        raise GateError(f"expected one metrics row, got {len(rows)}")
    team_of = read_partition(assignment_path, roster[0])
    if int(rows[0]["l_final"]) != max(team_of) + 1:
        raise GateError("printed l_final does not match the assignment")
    printed = float(rows[0]["objective"])
    if recompute:
        check_objective("solve", printed,
                        oracle_f(oracle, roster, team_of, b))
    return printed


def without_runtime(csv_text: str) -> str:
    """Metrics CSV with the runtime_ms column removed (the only field that
    may differ between identical runs)."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    drop = rows[0].index("runtime_ms")
    return "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows)


def check_experiment(csv_text: str, methods, seeds) -> float:
    """Gate the structure and aggregation of an `experiment` CSV; returns
    the fern mean objective."""
    rows = parse_metrics(csv_text)
    by_key = {(r["method"], r["seed"]): r for r in rows}
    expected = len(methods) * (len(seeds) + 2)
    if len(rows) != expected or len(by_key) != expected:
        raise GateError(f"expected {expected} distinct rows, got {len(rows)}")
    for method in methods:
        values = [float(by_key[(method, str(s))]["objective"]) for s in seeds]
        mean = float(by_key[(method, "mean")]["objective"])
        if abs(mean - math.fsum(values) / len(values)) > TOLERANCE:
            raise GateError(f"{method} mean row does not average its seeds")
    return float(by_key[("fern", "mean")]["objective"])


def experiment_row(csv_text: str, method: str, seed: int) -> dict[str, str]:
    for row in parse_metrics(csv_text):
        if row["method"] == method and row["seed"] == str(seed):
            return row
    raise GateError(f"no row for {method} seed {seed}")
