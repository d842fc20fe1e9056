"""Domain types, the benefit relation, and exact objective evaluation.

The solver minimizes

    f = x - gamma * y + delta * z

where x is the mean squared shortfall of team skill sums below the task
requirements, y is the mean individual benefit over all students, and z is
the population variance of the per-group mean benefit. Student i benefits
from student j when j exceeds i by strictly more than benefit_epsilon in at
least one skill; a student's individual benefit is the fraction of teammates
they benefit from. y, z, and all group benefits are kept on fraction scale
internally; reporting converts to percentages (and z to squared-percentage
scale) at the harness layer only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Instance:
    """N students: skill matrix (N, k) in [0,1], group ids, display labels.

    Build through make_instance, which validates and coerces.
    """

    skills: np.ndarray
    groups: np.ndarray
    student_ids: tuple[str, ...]
    group_labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.skills.shape[0]

    @property
    def k(self) -> int:
        return self.skills.shape[1]

    @property
    def m(self) -> int:
        return len(self.group_labels)


def make_instance(skills, groups, student_ids=None, group_labels=None) -> Instance:
    """Validated Instance from raw arrays.

    skills must be (N, k) with every value in [0, 1]; groups holds ids in
    {0..m-1} with every group non-empty; N >= 2 and k >= 1.
    """
    skills = np.ascontiguousarray(skills, dtype=np.float64)
    if skills.ndim != 2:
        raise ValidationError("skills must be a 2-d array of shape (N, k)")
    n, k = skills.shape
    if n < 2:
        raise ValidationError(f"need at least 2 students, got {n}")
    if k < 1:
        raise ValidationError("need at least 1 skill dimension")
    if not np.all((skills >= 0.0) & (skills <= 1.0)):  # also rejects NaN
        raise ValidationError("skill values must lie in [0, 1]")

    groups = np.ascontiguousarray(groups, dtype=np.int64)
    if groups.shape != (n,):
        raise ValidationError("groups must be a length-N vector")
    if np.any(groups < 0):
        raise ValidationError("group ids must be non-negative")
    m = int(groups.max()) + 1
    if group_labels is None:
        group_labels = tuple(f"g{q + 1}" for q in range(m))
    else:
        group_labels = tuple(str(c) for c in group_labels)
        if len(group_labels) != m:
            raise ValidationError(
                f"{len(group_labels)} group labels for {m} group ids")
        if len(set(group_labels)) != len(group_labels):
            raise ValidationError("group labels must be unique")
    counts = np.bincount(groups, minlength=m)
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValidationError(f"group {empty} has no members")

    if student_ids is None:
        width = len(str(n))
        student_ids = tuple(f"s{i:0{width}d}" for i in range(1, n + 1))
    else:
        student_ids = tuple(str(s) for s in student_ids)
        if len(student_ids) != n:
            raise ValidationError("student_ids must have one entry per student")
        if len(set(student_ids)) != n:
            raise ValidationError("student_ids must be unique")

    return Instance(skills, groups, student_ids, group_labels)


@dataclass(frozen=True)
class TaskSpec:
    """Requirement vector r plus the objective knobs epsilon, gamma, delta."""

    requirements: np.ndarray
    benefit_epsilon: float = 0.0
    gamma: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        reqs = np.ascontiguousarray(self.requirements, dtype=np.float64).reshape(-1)
        if reqs.size < 1:
            raise ValidationError("requirements must have at least one entry")
        if not np.all(np.isfinite(reqs)):
            raise ValidationError("requirements must be finite")
        if np.any(reqs < 0.0):
            raise ValidationError("requirements must be non-negative")
        object.__setattr__(self, "requirements", reqs)
        for name in ("benefit_epsilon", "gamma", "delta"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite")
            if value < 0.0:
                raise ValidationError(f"{name} must be non-negative")
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.requirements.shape[0]


@dataclass(frozen=True)
class Assignment:
    """Partition of all N students into teams 0..L-1, none empty."""

    team_of: np.ndarray

    def __post_init__(self):
        team_of = np.ascontiguousarray(self.team_of, dtype=np.int64)
        if team_of.ndim != 1 or team_of.size == 0:
            raise ValidationError("team_of must be a non-empty 1-d vector")
        if np.any(team_of < 0):
            raise ValidationError("team ids must be non-negative")
        n_teams = int(team_of.max()) + 1
        present = np.bincount(team_of, minlength=n_teams)
        if np.any(present == 0):
            missing = int(np.flatnonzero(present == 0)[0])
            raise ValidationError(f"team {missing} is empty; ids must be dense")
        object.__setattr__(self, "team_of", team_of)

    @property
    def n(self) -> int:
        return self.team_of.shape[0]

    @property
    def n_teams(self) -> int:
        return int(self.team_of.max()) + 1

    def teams(self) -> list[np.ndarray]:
        """Member index arrays, one per team id."""
        order = np.argsort(self.team_of, kind="stable")
        bounds = np.searchsorted(self.team_of[order], np.arange(self.n_teams + 1))
        return [order[bounds[t]:bounds[t + 1]] for t in range(self.n_teams)]


def compact_assignment(labels) -> Assignment:
    """Assignment from arbitrary integer team labels.

    Empty label values disappear; surviving labels are renumbered densely in
    ascending label order, so the result is deterministic.
    """
    labels = np.asarray(labels, dtype=np.int64)
    _, inverse = np.unique(labels, return_inverse=True)
    return Assignment(inverse.astype(np.int64))


@dataclass(frozen=True)
class ObjectiveBreakdown:
    x: float
    y: float
    z: float
    f: float


def compute_benefit_matrix(instance: Instance, epsilon: float) -> np.ndarray:
    """N x N 0/1 matrix; entry (i, j) = 1 iff i benefits from j.

    i benefits from j when some skill of j exceeds i's by strictly more than
    epsilon. The diagonal is fixed at 0.
    """
    if not epsilon >= 0.0:  # also rejects NaN
        raise ValidationError("benefit epsilon must be non-negative")
    s = instance.skills
    exceeds = (s[None, :, :] - s[:, None, :]) > epsilon
    b = exceeds.any(axis=2)
    np.fill_diagonal(b, False)
    return b.astype(np.int8)


def individual_benefits(b: np.ndarray, assignment: Assignment) -> np.ndarray:
    """Fraction of teammates each student benefits from; singletons get 0."""
    out = np.zeros(assignment.n, dtype=np.float64)
    for members in assignment.teams():
        if members.size < 2:
            continue
        counts = b[np.ix_(members, members)].sum(axis=1, dtype=np.float64)
        out[members] = counts / (members.size - 1)
    return out


def individual_benefit(b: np.ndarray, assignment: Assignment, student: int) -> float:
    return float(individual_benefits(b, assignment)[student])


def group_benefits(b: np.ndarray, assignment: Assignment,
                   instance: Instance) -> np.ndarray:
    """Mean individual benefit per group, index q in 0..m-1."""
    ind = individual_benefits(b, assignment)
    sums = np.bincount(instance.groups, weights=ind, minlength=instance.m)
    counts = np.bincount(instance.groups, minlength=instance.m)
    return sums / counts


def group_benefit(b: np.ndarray, assignment: Assignment, instance: Instance,
                  q: int) -> float:
    if not 0 <= q < instance.m:
        raise ValidationError(f"group id {q} out of range")
    return float(group_benefits(b, assignment, instance)[q])


def team_skill_sums(instance: Instance, assignment: Assignment) -> np.ndarray:
    """(L, k) matrix of per-team skill totals."""
    sums = np.zeros((assignment.n_teams, instance.k), dtype=np.float64)
    np.add.at(sums, assignment.team_of, instance.skills)
    return sums


def skill_deficiency(instance: Instance, assignment: Assignment,
                     requirements) -> float:
    """Mean squared shortfall below the requirements, over teams and skills."""
    requirements = np.asarray(requirements, dtype=np.float64).reshape(-1)
    sums = team_skill_sums(instance, assignment)
    shortfall = np.clip(requirements[None, :] - sums, 0.0, None)
    return float((shortfall ** 2).sum() / (assignment.n_teams * instance.k))


def avg_individual_benefit(b: np.ndarray, assignment: Assignment) -> float:
    return float(individual_benefits(b, assignment).mean())


def group_benefit_variance(b: np.ndarray, assignment: Assignment,
                           instance: Instance) -> float:
    """Population variance (divide by m) of the group benefits."""
    return float(group_benefits(b, assignment, instance).var())


def objective(instance: Instance, spec: TaskSpec, assignment: Assignment,
              b: np.ndarray | None = None) -> ObjectiveBreakdown:
    """Evaluate (x, y, z, f) for an assignment. Pure and deterministic.

    b, when given, must be the benefit matrix for (instance,
    spec.benefit_epsilon); passing it avoids recomputation in hot loops.
    """
    if b is None:
        b = compute_benefit_matrix(instance, spec.benefit_epsilon)
    x = skill_deficiency(instance, assignment, spec.requirements)
    y = avg_individual_benefit(b, assignment)
    z = group_benefit_variance(b, assignment, instance)
    f = x - spec.gamma * y + spec.delta * z
    return ObjectiveBreakdown(x=x, y=y, z=z, f=f)
