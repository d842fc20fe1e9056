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

import math
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


def check_spec(spec: TaskSpec, n: int, k: int) -> None:
    """Raise unless spec has k requirements, and the squared shortfall of
    the largest, summed over k skills and up to n teams, is finite."""
    if spec.requirements.size != k:
        raise ValidationError(f"expected {k} requirement values, "
                              f"got {spec.requirements.size}")
    top = float(spec.requirements.max())
    if not math.isfinite(k * n * top * top):
        raise ValidationError(f"requirement {top!r} is too large: "
                              f"k*N*r^2 overflows for k={k}, N={n}")


def check_problem(instance: Instance, spec: TaskSpec, b) -> np.ndarray:
    """b as an array, once check_spec passes for the roster and b is an
    (N, N) 0/1 integer matrix with a zero diagonal."""
    check_spec(spec, instance.n, instance.k)
    b = np.asarray(b)
    if b.shape != (instance.n,) * 2 or b.dtype.kind not in "biu" or \
            b.min() < 0 or b.max() > 1 or b.diagonal().any():
        raise ValidationError("b must be an (N, N) 0/1 integer benefit "
                              "matrix with a zero diagonal")
    return b


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


def _fresh(name: str, shape, dtype=np.int64) -> np.ndarray:
    """A new array, for scratch(name, shape, dtype) callers."""
    return np.empty(shape, dtype)


def _compact_rows(labels, scratch=_fresh) -> tuple[np.ndarray, np.ndarray]:
    """Each row of labels (P, N) renumbered densely in ascending label
    order, by a running count over a table of the offsets from the row's
    minimum, plus the team count of each row; the arrays it fills are
    scratch's."""
    labels = np.asarray(labels, dtype=np.int64)
    n_rows, n = labels.shape
    # int64 offsets wrap past 2**63, but their uint64 view stays exact
    offset = np.subtract(labels, labels.min(
        axis=1, keepdims=True, initial=2**63 - 1), out=scratch(
            "offset", labels.shape))
    if offset.view(np.uint64).max(initial=0) > n:
        # too wide for the table: rank values, then (row, value) pairs
        keys = np.unique(labels, return_inverse=True)[1].reshape(n_rows, n)
        keys += labels.size * np.arange(n_rows)[:, None]
        offset = np.unique(keys, return_inverse=True)[1].reshape(n_rows, n)
        offset -= offset.min(axis=1, keepdims=True)
    width = int(offset.max(initial=0)) + 1
    cell = offset  # not labels, so it is shifted in place
    cell += np.arange(0, n_rows * width, width)[:, None]
    present = scratch("present", (n_rows, width))
    present.fill(0)
    present.reshape(-1)[cell] = 1  # a third of put(cell, 1)'s time
    present.cumsum(axis=1, out=present)
    # "clip" (indices are in range) writes out directly, "raise" via a copy
    team_of = present.take(cell, mode="clip", out=scratch("team", cell.shape))
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


# Byte budget for a block of objective_batch rows, counted as their (team,
# word) masks plus the words gathered per student (at least one row).
_COMEMBER_BYTES = 1 << 16


class Scorer:
    """objective_batch over one (instance, spec, b) triple, checked once.
    A call's batch-sized arrays are scratch, in buffers that grow to the
    largest batch scored: freed, glibc would trim them and the next call
    fault them in again (GA generations)."""

    def __init__(self, instance: Instance, spec: TaskSpec, b):
        b, n = check_problem(instance, spec, b), instance.n
        self.instance, self.spec, self._buffers = instance, spec, {}
        packed = np.zeros((n, 8 * -(-n // 64)), dtype=np.uint8)
        packed[:, :-(-n // 8)] = np.packbits(b, axis=1, bitorder="little")
        self._rows = packed.view("<u8").T  # (words, N)
        self._bits = np.left_shift(1, np.arange(n, dtype=np.uint64) % 64)
        self._group_size = np.bincount(instance.groups, minlength=instance.m)

    def __call__(self, labels) -> ObjectiveBreakdown:
        """objective_batch(instance, spec, b, labels), in new arrays."""
        return self._score(labels, _fresh)

    def fitness(self, labels) -> np.ndarray:
        """The f of __call__(labels), with every other array scratch."""
        return self._score(labels, self._scratch).f

    def _scratch(self, name: str, shape, dtype=np.int64) -> np.ndarray:
        """An array over buffer name, grown to the most bytes asked of it."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype=np.uint8)
        return np.ndarray(shape, dtype, buffer)

    def _score(self, labels, keep) -> ObjectiveBreakdown:
        """The breakdown, its team sums and benefits keep(name, shape)'s."""
        instance, spec, k = self.instance, self.spec, self.instance.k
        try:
            labels = np.asarray(labels)
        except ValueError:  # ragged rows
            labels = np.empty(0)
        if labels.ndim != 2 or labels.shape[1] != instance.n or \
                labels.dtype.kind not in "iu":
            raise ValidationError("assignment size does not match the roster")
        if not labels.shape[0]:
            raise ValidationError("no assignment to score")
        if labels.dtype != np.int64:  # int64 labels are read in place
            labels = np.positive(labels, casting="unsafe", out=self._scratch(
                "labels", labels.shape))
        slot_of, n_teams = _compact_rows(labels, self._scratch)
        n_rows, width = labels.shape[0], int(n_teams.max())
        slot_of += np.arange(0, n_rows * width, width)[:, None]  # (row, team)
        # skill totals, added in student order as bincount would
        sums = keep("sums", (n_rows, width, k), float)
        sums.fill(0.0)
        weights = self._scratch("offset", labels.shape, float)
        for skill, total in zip(instance.skills.T, sums.reshape(-1, k).T):
            weights[...] = skill  # add.at misreads broadcast values
            np.add.at(total, slot_of.reshape(-1), weights.reshape(-1))
        squares = np.subtract(spec.requirements, sums,
                              out=self._scratch("offset", sums.shape, float))
        np.square(np.maximum(squares, 0.0, out=squares), out=squares)
        x, flat = np.empty(n_rows), squares.reshape(n_rows, -1)
        for count in set(n_teams.tolist()):
            rows = np.flatnonzero(n_teams == count)
            picked = flat.take(rows, axis=0, mode="clip", out=self._scratch(
                "masks", (rows.size, flat.shape[1]), float))  # free till then
            # exactly L * k terms per row: padding would regroup numpy's
            # pairwise sum and change the last bits
            x[rows] = picked[:, :count * k].sum(axis=1) / (count * k)
        ind = self._individual_benefits(slot_of, width, keep)
        # mean individual benefit per group, added in student order; bins in
        # two steps, as np.add(groups, column) takes twice the iterator buffer
        bins = self._scratch("offset", labels.shape)
        bins[...] = instance.groups
        bins += instance.m * np.arange(n_rows)[:, None]
        gben = np.bincount(bins.ravel(), weights=ind.ravel(), minlength=n_rows
                           * instance.m).reshape(n_rows, -1) / self._group_size
        y, z = ind.mean(axis=1), gben.var(axis=1)
        return ObjectiveBreakdown(x=x, y=y, z=z,
                                  f=x - spec.gamma * y + spec.delta * z,
                                  team_sums=sums, group_benefits=gben,
                                  individual=ind)

    def _individual_benefits(self, slot_of, width, keep) -> np.ndarray:
        """(P, N) fraction of teammates each student benefits from, by
        popcount of their row of b AND their team, both bit sets of 64-bit
        words; slot_of holds each student's (row, team) slot."""
        (n_rows, n), words = slot_of.shape, self._rows.shape[0]
        slots = n_rows * width  # one (row, team) mask per slot, in every word
        masks = self._scratch("masks", (words, slots), np.uint64)
        masks.fill(0)
        # teammates, at least 1: a singleton counts 0 (b's diagonal is 0)
        mates = np.bincount(slot_of.ravel(), minlength=slots).take(
            slot_of, mode="clip", out=self._scratch("offset", slot_of.shape))
        mates -= 1
        np.maximum(mates, 1, out=mates)
        step = min(n_rows, max(1, _COMEMBER_BYTES // (8 * words
                                                      * (width + n))))
        word_base, bits = np.arange(n) // 64 * slots, np.tile(self._bits, step)
        out = keep("individual", (n_rows, n), float)
        for lo in range(0, n_rows, step):
            team = slot_of[lo:lo + step]
            at = np.add(team, word_base, out=self._scratch("at", team.shape))
            # distinct bits add as OR
            np.add.at(masks.reshape(-1), at.reshape(-1), bits[:team.size])
            mine = masks.take(team, axis=1, mode="clip", out=self._scratch(
                "mine", (words,) + team.shape, np.uint64))
            mine &= self._rows[:, None]
            # at is read: its buffer is free for the counts
            counts = np.bitwise_count(mine, out=mine).sum(axis=0, out=at.view(
                np.uint64))
            np.divide(counts, mates[lo:lo + step], out=out[lo:lo + step])
        return out


def objective_batch(instance: Instance, spec: TaskSpec, b: np.ndarray,
                    labels) -> ObjectiveBreakdown:
    """Evaluate (x, y, z, f) for each row of a (P, N) array of team labels.

    Each row is scored as compact_assignment(row) would be: empty labels
    drop out of the team count. The fields of the result are (P,) arrays,
    and row p matches objective() on that assignment bit for bit, whatever
    else is in the batch. b must be the 0/1 benefit matrix for (instance,
    spec.benefit_epsilon). A Scorer scores many batches of one triple.
    """
    return Scorer(instance, spec, b)(labels)


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
