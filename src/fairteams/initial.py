"""Initial assignment construction.

Two greedy builders, gmbf and the local lmbff (lmbf is its gamma=1,
delta=0 case), grow one team at a time and close it the moment every skill
requirement is met, then start the next; the last team may fall short when
students run out. random_init shuffles students into a fixed number of
near-equal teams. All ties break toward the lowest student index so every
builder is deterministic.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import Assignment, Instance, TaskSpec, check_problem
from .errors import ValidationError
from .rng import as_rng


def _met(team_sums: np.ndarray, requirements: np.ndarray) -> bool:
    return bool(np.all(team_sums >= requirements))


def gmbf(instance: Instance, spec: TaskSpec, b: np.ndarray) -> Assignment:
    """Global max benefit first.

    The next student added is always the unassigned one with the largest
    benefit row sum (how many students they would benefit from if everyone
    were one big team). Since that score never changes, the pick order is a
    single static sort.
    """
    b = check_problem(instance, spec, b)
    row_sums = b.sum(axis=1)
    order = np.lexsort((np.arange(instance.n), -row_sums))

    team_of = np.empty(instance.n, dtype=np.int64)
    team = 0
    sums = np.zeros(instance.k)
    for student in order:
        team_of[student] = team
        sums += instance.skills[student]
        if _met(sums, spec.requirements):
            team += 1
            sums = np.zeros(instance.k)
    return Assignment(team_of)


def lmbf(instance: Instance, spec: TaskSpec, b: np.ndarray) -> Assignment:
    """Local max benefit first.

    Each team starts from the unassigned student with the globally lowest
    benefit row sum, then repeatedly adds the unassigned student benefiting
    from the most current team members. This is lmbff with gamma=1 and
    delta=0, whatever spec's own weights are.
    """
    return lmbff(instance, replace(spec, gamma=1.0, delta=0.0), b)


def lmbff(instance: Instance, spec: TaskSpec, b: np.ndarray) -> Assignment:
    """Local max benefit first with fairness.

    Each team starts from the unassigned student with the globally lowest
    benefit row sum (ties toward the lower index). Each addition then picks
    the candidate minimizing gamma * (-y') + delta * z', where y' and z' are
    the mean benefit and group-benefit variance over the students placed so
    far with the candidate included. Placed students keep the individual
    benefit they had at placement time (the candidate contributes only its
    own benefit against the current team), so at gamma=1, delta=0 the pick
    is the candidate benefiting from the most team members: that is lmbf.
    Groups with no placed member yet stay out of the variance.
    """
    b = check_problem(instance, spec, b)
    n, m = instance.n, instance.m
    gamma, delta = spec.gamma, spec.delta
    unassigned = np.ones(n, dtype=bool)
    seed_rank = np.empty(n, dtype=np.int64)
    seed_rank[np.lexsort((np.arange(n), b.sum(axis=1)))] = np.arange(n)

    placed_total = 0.0
    placed_count = 0
    group_sums = np.zeros(m)
    group_counts = np.zeros(m, dtype=np.int64)

    def place(student: int, benefit: float):
        nonlocal placed_total, placed_count
        placed_total += benefit
        placed_count += 1
        group_sums[instance.groups[student]] += benefit
        group_counts[instance.groups[student]] += 1

    team_of = np.empty(n, dtype=np.int64)
    team = 0
    while unassigned.any():
        pool = np.flatnonzero(unassigned)
        seed = pool[np.argmin(seed_rank[pool])]
        members = [seed]
        unassigned[seed] = False
        team_of[seed] = team
        place(seed, 0.0)
        sums = instance.skills[seed].copy()
        while not _met(sums, spec.requirements) and unassigned.any():
            pool = np.flatnonzero(unassigned)
            cand_benefit = b[pool][:, members].sum(axis=1) / len(members)
            y_new = (placed_total + cand_benefit) / (placed_count + 1)

            one_hot = np.zeros((pool.size, m))
            one_hot[np.arange(pool.size), instance.groups[pool]] = 1.0
            new_sums = group_sums[None, :] + one_hot * cand_benefit[:, None]
            new_counts = group_counts[None, :] + one_hot
            present = new_counts > 0
            gben = np.where(present, new_sums / np.maximum(new_counts, 1), 0.0)
            n_present = present.sum(axis=1)
            mean = (gben * present).sum(axis=1) / n_present
            z_new = (((gben - mean[:, None]) ** 2) * present).sum(axis=1) / n_present

            scores = -gamma * y_new + delta * z_new
            idx = int(np.argmin(scores))
            pick = pool[idx]
            members.append(pick)
            unassigned[pick] = False
            team_of[pick] = team
            place(pick, float(cand_benefit[idx]))
            sums += instance.skills[pick]
        team += 1
    return Assignment(team_of)


def random_init(n_students: int, team_count: int,
                rng: int | np.random.Generator | None = 0) -> Assignment:
    """Seeded shuffle into team_count teams with sizes differing by at most 1.

    The first (n mod team_count) teams take the extra students.
    """
    if not 1 <= team_count <= n_students:
        raise ValidationError(
            f"team count must be in [1, {n_students}], got {team_count}")
    sizes = np.full(team_count, n_students // team_count)
    sizes[:n_students % team_count] += 1
    team_of = np.empty(n_students, dtype=np.int64)
    team_of[as_rng(rng).permutation(n_students)] = np.repeat(
        np.arange(team_count), sizes)
    return Assignment(team_of)
