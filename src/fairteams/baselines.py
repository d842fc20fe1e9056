"""Comparison methods: balanced k-means seeding and a genetic algorithm.

Neither baseline knows the objective's structure beyond what its fitness
calls expose; they exist to put the constructive-plus-refinement pipeline
in context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Assignment, Instance, TaskSpec, compact_assignment,
                   objective_batch)
from .errors import ValidationError
from .rng import as_rng


def uniform_kmeans(instance: Instance, team_count: int,
                   rng=0) -> Assignment:
    """Cluster students in skill space, then deal clusters into teams.

    Clusters are capped at ceil(N / C) members with C = ceil(N / L); only
    N mod C clusters (when that is nonzero... see below) may reach the cap
    so cluster sizes stay within one of each other. Students enter clusters
    by descending distance gap (second-nearest centroid minus nearest),
    ties toward the lower index. Teams are then filled round-robin, one
    student per cluster per sweep, with a cursor that carries across
    clusters so team sizes also stay within one.
    """
    n = instance.n
    if not 1 <= team_count <= n:
        raise ValidationError("team count must be between 1 and N")
    rng = as_rng(rng)
    n_clusters = math.ceil(n / team_count)
    cap = math.ceil(n / n_clusters)
    # number of clusters allowed to hit the cap; the rest stop one short
    n_full = n - (cap - 1) * n_clusters

    skills = instance.skills
    centroids = skills[rng.choice(n, size=n_clusters, replace=False)].copy()
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(100):
        dists = np.linalg.norm(skills[:, None, :] - centroids[None], axis=2)
        order = np.argsort(dists, axis=1)
        nearest = dists[np.arange(n), order[:, 0]]
        if n_clusters > 1:
            gap = dists[np.arange(n), order[:, 1]] - nearest
        else:
            gap = nearest
        # larger gap = more to lose from a detour, so it claims a seat first
        priority = np.lexsort((np.arange(n), -gap))
        new_labels = np.full(n, -1, dtype=np.int64)
        counts = np.zeros(n_clusters, dtype=np.int64)
        caps = np.full(n_clusters, cap, dtype=np.int64)
        caps[n_full:] = cap - 1
        for i in priority:
            for c in order[i]:
                if counts[c] < caps[c]:
                    new_labels[i] = c
                    counts[c] += 1
                    break
        shift = 0.0
        for c in range(n_clusters):
            members = skills[new_labels == c]
            if members.size == 0:
                continue  # keep the previous centroid
            centroid = members.mean(axis=0)
            shift = max(shift, float(np.linalg.norm(centroid - centroids[c])))
            centroids[c] = centroid
        converged = shift < 1e-6 and np.array_equal(labels, new_labels)
        labels = new_labels
        if converged:
            break

    # deal clusters into teams: sweep clusters, cursor persists so a short
    # cluster does not reset the rotation
    team_of = np.full(n, -1, dtype=np.int64)
    clusters = [np.flatnonzero(labels == c) for c in range(n_clusters)]
    cursor = 0
    for depth in range(max(len(c) for c in clusters)):
        for members in clusters:
            if depth < len(members):
                team_of[members[depth]] = cursor % team_count
                cursor += 1
    return compact_assignment(team_of)


@dataclass(frozen=True)
class GAParams:
    population_size: int = 200
    generations: int = 300
    mutation_prob: float = 0.1
    crossover_prob: float = 0.5
    tournament_size: int = 2
    elite_count: int = 1

    def __post_init__(self):
        if self.population_size < 2:
            raise ValidationError("population_size must be at least 2")
        if self.generations < 0:
            raise ValidationError("generations must be non-negative")
        for name in ("mutation_prob", "crossover_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ValidationError("tournament_size must be at least 1")
        if not 0 <= self.elite_count < self.population_size:
            raise ValidationError("elite_count must be below population_size")


def genetic_algorithm(instance: Instance, spec: TaskSpec, b: np.ndarray,
                      team_count: int, params: GAParams | None = None,
                      rng=0) -> Assignment:
    """Direct-encoding GA over team labels.

    Chromosome: one team id per student. Uniform crossover per gene,
    mutation swaps the teams of two distinct students, binary tournament
    selection (first minimum wins ties), elitism keeps the best
    chromosome(s) verbatim. Fitness compacts empty team ids before
    evaluating, so extinct teams shrink the divisor rather than padding it.
    """
    n = instance.n
    if not 1 <= team_count <= n:
        raise ValidationError("team count must be between 1 and N")
    params = params or GAParams()
    rng = as_rng(rng)
    pop = rng.integers(0, team_count, size=(params.population_size, n))
    fits = objective_batch(instance, spec, b, pop).f

    for _ in range(params.generations):
        elite_idx = np.argsort(fits, kind="stable")[:params.elite_count]
        next_pop = [pop[i].copy() for i in elite_idx]
        while len(next_pop) < params.population_size:
            parents = []
            for _ in range(2):
                draws = rng.integers(0, params.population_size,
                                     size=params.tournament_size)
                winner = draws[np.argmin(fits[draws])]
                parents.append(pop[winner])
            child = parents[0].copy()
            take = rng.random(n) < params.crossover_prob
            child[take] = parents[1][take]
            if rng.random() < params.mutation_prob and n >= 2:
                a, bpos = rng.choice(n, size=2, replace=False)
                child[a], child[bpos] = child[bpos], child[a]
            next_pop.append(child)
        pop = np.array(next_pop)
        fits = objective_batch(instance, spec, b, pop).f

    best = int(np.argmin(fits))
    return compact_assignment(pop[best])
