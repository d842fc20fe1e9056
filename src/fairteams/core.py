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

from dataclasses import dataclass, field

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


def check_spec(instance: Instance, spec: TaskSpec) -> None:
    """Raise unless spec has one requirement per skill of the roster."""
    if spec.requirements.size != instance.k:
        raise ValidationError(f"expected {instance.k} requirement values, "
                              f"got {spec.requirements.size}")


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


def _compact_rows(labels) -> tuple[np.ndarray, np.ndarray]:
    """Each row of labels (P, N) renumbered densely in ascending label
    order, by a running count over a table of the offsets from the row's
    minimum, plus the team count of each row."""
    labels = np.asarray(labels, dtype=np.int64)
    n_rows, n = labels.shape
    # int64 offsets wrap past 2**63, but their uint64 view stays exact
    offset = labels - labels.min(axis=1, keepdims=True, initial=2**63 - 1)
    if offset.view(np.uint64).max(initial=0) > n:
        # too wide for the table: rank values, then (row, value) pairs
        keys = np.unique(labels, return_inverse=True)[1].reshape(n_rows, n)
        keys += labels.size * np.arange(n_rows)[:, None]
        offset = np.unique(keys, return_inverse=True)[1].reshape(n_rows, n)
        offset -= offset.min(axis=1, keepdims=True)
    width = int(offset.max(initial=0)) + 1
    cell = offset  # a fresh array, so it is shifted in place
    cell += np.arange(0, n_rows * width, width)[:, None]
    present = np.zeros((n_rows, width), dtype=np.int64)
    present.put(cell, 1)
    present.cumsum(axis=1, out=present)
    team_of = present.take(cell)
    team_of -= 1
    return team_of, present[:, -1]


def compact_assignment(labels) -> Assignment:
    """Assignment from arbitrary integer team labels.

    Empty label values disappear; surviving labels are renumbered densely in
    ascending label order, so the result is deterministic.
    """
    return Assignment(_compact_rows(np.reshape(labels, (1, -1)))[0][0])


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Objective terms, floats from objective() and (P,) arrays from
    objective_batch(), with the team skill sums, (L, k) or (P, L, k) with L
    the batch's largest team count, the (m,) or (P, m) group benefits, and
    the (N,) or (P, N) fraction of teammates each student benefits from
    (0 for a singleton)."""

    x: float
    y: float
    z: float
    f: float
    team_sums: np.ndarray = field(default=None, repr=False, compare=False)
    group_benefits: np.ndarray = field(default=None, repr=False,
                                       compare=False)
    individual: np.ndarray = field(default=None, repr=False, compare=False)


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


# Byte budget for a block of objective_batch rows: their (team, word) masks
# plus the words gathered per student (a block has at least one row). Kept
# small: scratch that one call frees past glibc's trim threshold goes back to
# the OS, and the next call faults it in again (GA generations at n=100).
_COMEMBER_BYTES = 1 << 16


def _team_sums(skills: np.ndarray, team_of: np.ndarray,
               width: int) -> np.ndarray:
    """(P, width, k) skill totals, added in student order."""
    n_rows, k = team_of.shape[0], skills.shape[1]
    teams = (team_of + width * np.arange(n_rows)[:, None]).ravel()
    sums = [np.bincount(teams, weights=column, minlength=n_rows * width)
            for column in np.tile(skills.T, n_rows)]
    return np.stack(sums, axis=1).reshape(n_rows, width, k)


def _individual_benefits(b: np.ndarray, team_of: np.ndarray) -> np.ndarray:
    """(P, N) fraction of teammates each student benefits from, by popcount
    of their row of b AND their team, both bit sets of 64-bit words."""
    n_rows, n = team_of.shape
    words, width = -(-n // 64), int(team_of.max()) + 1
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(b, axis=1, bitorder="little")
    rows = packed.view("<u8").T  # (words, N)
    step = min(n_rows, max(1, _COMEMBER_BYTES // (8 * words * (width + n))))
    slots = step * width  # one (row, team) mask per slot, in every word
    row_base = np.arange(0, slots, width)[:, None]
    word_base = np.arange(n) // 64 * slots
    bits = np.tile(np.left_shift(1, np.arange(n, dtype=np.uint64) % 64), step)
    out = np.zeros((n_rows, n))
    for lo in range(0, n_rows, step):
        team = team_of[lo:lo + step] + row_base[:n_rows - lo]
        masks = np.zeros(words * slots, dtype=np.uint64)
        # distinct bits add as OR; 1-d, as add.at misreads broadcast values
        np.add.at(masks, (team + word_base).ravel(), bits[:team.size])
        mine = masks.reshape(words, slots).take(team, axis=1) & rows[:, None]
        mates = np.bincount(team.ravel(), minlength=slots).take(team) - 1
        np.divide(np.bitwise_count(mine).sum(axis=0), mates,
                  out=out[lo:lo + step], where=mates > 0)
    return out


def _group_benefits(ind: np.ndarray, instance: Instance) -> np.ndarray:
    """(P, m) mean individual benefit per group, added in student order."""
    m = instance.m
    bins = (instance.groups + m * np.arange(ind.shape[0])[:, None]).ravel()
    sums = np.bincount(bins, weights=ind.ravel(), minlength=ind.shape[0] * m)
    return sums.reshape(-1, m) / np.bincount(instance.groups, minlength=m)


def objective_batch(instance: Instance, spec: TaskSpec, b: np.ndarray,
                    labels) -> ObjectiveBreakdown:
    """Evaluate (x, y, z, f) for each row of a (P, N) array of team labels.

    Each row is scored as compact_assignment(row) would be: empty labels
    drop out of the team count. The fields of the result are (P,) arrays,
    and row p matches objective() on that assignment bit for bit, whatever
    else is in the batch. b must be the 0/1 benefit matrix for (instance,
    spec.benefit_epsilon).
    """
    try:
        labels = np.asarray(labels)
    except ValueError:  # ragged rows
        labels = np.empty(0)
    if labels.ndim != 2 or labels.shape[1] != instance.n or \
            labels.dtype.kind not in "iu":
        raise ValidationError("assignment size does not match the roster")
    if not labels.shape[0]:
        raise ValidationError("no assignment to score")
    if np.shape(b) != (instance.n,) * 2 or np.result_type(b).kind not in "biu":
        raise ValidationError("b must be an (N, N) integer benefit matrix")
    check_spec(instance, spec)
    team_of, n_teams = _compact_rows(labels)
    width, k = int(n_teams.max()), instance.k
    sums = _team_sums(instance.skills, team_of, width)
    squares = np.maximum(spec.requirements - sums, 0.0) ** 2
    x = np.empty(n_teams.shape)
    for count in set(n_teams.tolist()):
        rows = n_teams == count
        # exactly L * k terms per row: padding would regroup numpy's
        # pairwise sum and change the last bits
        flat = squares[rows, :count].reshape(-1, count * k)
        x[rows] = flat.sum(axis=1) / (count * k)
    ind = _individual_benefits(b, team_of)
    gben = _group_benefits(ind, instance)
    y, z = ind.mean(axis=1), gben.var(axis=1)
    return ObjectiveBreakdown(x=x, y=y, z=z,
                              f=x - spec.gamma * y + spec.delta * z,
                              team_sums=sums, group_benefits=gben,
                              individual=ind)


def objective(instance: Instance, spec: TaskSpec, assignment: Assignment,
              b: np.ndarray | None = None) -> ObjectiveBreakdown:
    """Evaluate (x, y, z, f) for an assignment. Pure and deterministic.

    b, when given, must be the benefit matrix for (instance,
    spec.benefit_epsilon); passing it avoids recomputation in hot loops.
    """
    if b is None:
        b = compute_benefit_matrix(instance, spec.benefit_epsilon)
    batch = objective_batch(instance, spec, b, assignment.team_of[None])
    x, y, z, f = (float(t[0]) for t in (batch.x, batch.y, batch.z, batch.f))
    return ObjectiveBreakdown(x, y, z, f, team_sums=batch.team_sums[0],
                              group_benefits=batch.group_benefits[0],
                              individual=batch.individual[0])
