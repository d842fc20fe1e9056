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

    Clusters are capped at ceil(N / C) members with C = ceil(N / L): all C
    clusters may reach the cap when C divides N, otherwise N mod C may and
    the rest stop one short, so cluster sizes stay within one. Students
    enter clusters by descending distance gap (second-nearest centroid
    minus nearest), ties toward the lower index. Teams are then filled
    round-robin, one student per cluster per sweep, with a cursor that
    carries across clusters so team sizes also stay within one.

    Clustering runs at most 100 iterations and stops early once the labels
    repeat (the centroids, the means of the same clusters, then repeat
    too). It also stops when the centroid bytes and previous labels an
    iteration starts from match an earlier iteration's exactly: the run is
    then in a cycle that never converges, and the labels the 100th
    iteration would produce are read from the cycle.
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
    seats = [cap] * n_full + [cap - 1] * (n_clusters - n_full)
    # every seat is taken: sorted by label, two blocks of equal clusters
    blocks = [(0, n_full, cap), (n_full * cap, n_clusters - n_full, cap - 1)]
    labels = np.full(n, -1, dtype=np.int64)
    # an iteration's outcome depends only on the centroids it starts from
    # and the labels before it, so a repeated state is a cycle
    seen: dict[bytes, int] = {}
    history = []
    for it in range(100):
        state = centroids.tobytes() + labels.tobytes()
        if state in seen:
            first = seen[state]  # the labels iteration 99 would produce
            labels = history[first + (99 - first) % (it - first)]
            break
        seen[state] = it
        diff = skills[:, None, :] - centroids[None]
        # np.linalg.norm(diff, axis=2), the same arithmetic
        dists = np.sqrt(np.add.reduce(np.square(diff, out=diff), axis=2))
        order = np.argsort(dists, axis=1)
        best = dists[np.arange(n)[:, None], order[:, :2]]
        gap = best[:, 0] if n_clusters == 1 else best[:, 1] - best[:, 0]
        # larger gap = more to lose from a detour, so it claims a seat first
        priority = np.lexsort((np.arange(n), -gap))
        free = seats.copy()
        seat_of = [0] * n
        prefs = order.tolist()
        for i in priority.tolist():
            for c in prefs[i]:
                if free[c]:
                    free[c] -= 1
                    seat_of[i] = c
                    break
        new_labels = np.array(seat_of, dtype=np.int64)
        history.append(new_labels)
        if np.array_equal(labels, new_labels):
            break
        labels = new_labels
        # each cluster's mean, its members in ascending order: the same
        # bits as skills[labels == c].mean(axis=0)
        ranked = skills[np.argsort(labels, kind="stable")]
        centroids = np.concatenate([
            ranked[start:start + count * size].reshape(count, size, -1)
            .mean(axis=1) for start, count, size in blocks if count])

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


def _breeding_draws(rng: np.random.Generator, params: GAParams, n: int):
    """One generation's draws (see genetic_algorithm) from one block of raw
    words: entrants (children, 2, tournament_size), coins (children, n + 1)
    and a (child, a, b) row per swap, leaving the generator as they would."""
    pop_size, tour = params.population_size, params.tournament_size
    n_children = pop_size - params.elite_count
    # a coin is (w >> 11) * 2**-53, below mutation_prob iff w < low_coin
    low_coin = math.ceil(params.mutation_prob * 2.0**53) << 11
    bitgen = rng.bit_generator
    start = bitgen.state
    # word 0's high half is the buffered half, words 1.. are fresh (enough
    # unless draws are rejected); a 32-bit draw takes a fresh word's low
    # half and buffers its high half
    block = np.append(np.uint64(start["uinteger"] << 32),
                      bitgen.random_raw(n_children * (tour + n + 3)))
    while True:
        hv = memoryview(block.astype("<u8", copy=False).view("<u4"))
        p, has, half = 1, start["has_uint32"], 1  # has_uint32, uinteger
        picks, coin_at, swaps = [], [], []
        try:
            for c in range(n_children):
                # draws on [0, r): the tournaments', 0 for the coins, then
                # (appended in the loop) choice's after a low last coin
                todo, out = [pop_size] * (2 * tour) + [0], picks
                for r in todo:
                    if not r:
                        coin_at.append(p)
                        p += n + 1
                        if block[p - 1] < low_coin:
                            todo += (n - 1, n, 2)[n == 2:]
                            out = [0] * (n == 2)  # j = n - 2 draws none
                        continue
                    while True:  # Lemire's draw; x is a fresh low half or
                        if not has:  # the buffered high half
                            half, p = 2 * p + 1, p + 1
                        has = not has
                        m = hv[half - has] * r  # x * r; the draw is m >> 32
                        if (lo := m & 0xFFFFFFFF) >= r or lo >= (1 << 32) % r:
                            break  # else x * r mod 2**32 < 2**32 mod r: redraw
                    out.append(m >> 32)
                if out is not picks:  # Floyd over j = n - 2, n - 1, then
                    a, b, keep = out  # a draw on [0, 1] that swaps on 0
                    b = n - 1 if b == a else b  # a repeat takes j
                    swaps.append((c, a, b) if keep else (c, b, a))
            break
        except IndexError:  # a read past the block: rejections ran it short
            block = np.append(block, bitgen.random_raw(len(block)))
    # back from the block's end to word p - 1: the LCG's period is 2**128
    state = bitgen.advance((p - len(block)) % 2**128).state
    bitgen.state = {**state, "has_uint32": int(has), "uinteger": hv[half]}
    return (np.array(picks).reshape(-1, 2, tour),
            (block[np.add.outer(coin_at, np.arange(n + 1))] >> 11) * 2.0**-53,
            np.array(swaps, dtype=np.int64).reshape(-1, 3))


def genetic_algorithm(instance: Instance, spec: TaskSpec, b: np.ndarray,
                      team_count: int, params: GAParams | None = None,
                      rng=0) -> Assignment:
    """Direct-encoding GA over team labels.

    Chromosome: one team id per student. Uniform crossover per gene,
    mutation swaps the teams of two distinct students, tournament selection
    (first minimum wins ties), elitism keeps the best chromosome(s) and
    their fitness (a row scores alike in any batch). Fitness compacts empty
    team ids, so extinct teams shrink the divisor rather than padding it.

    Draws are as if bred one child at a time (integers(0, P, size=2t),
    random(n + 1), choice(n, 2, replace=False) after a low last coin), read
    per generation from one block of raw words: rng must be PCG64/PCG64DXSM.
    """
    n = instance.n
    if not 1 <= team_count <= n:
        raise ValidationError("team count must be between 1 and N")
    params = params or GAParams()
    rng = as_rng(rng)
    if type(rng.bit_generator).__name__ not in ("PCG64", "PCG64DXSM"):
        raise ValidationError("the GA needs a PCG64 or PCG64DXSM generator")
    pop = rng.integers(0, team_count, size=(params.population_size, n))
    fits = objective_batch(instance, spec, b, pop).f

    for _ in range(params.generations):
        entrants, coins, swaps = _breeding_draws(rng, params, n)
        pick = np.argmin(fits[entrants], axis=2)  # the first minimum wins
        winners = np.take_along_axis(entrants, pick[..., None], axis=2)[..., 0]
        children = np.where(coins[:, :n] < params.crossover_prob,
                            pop[winners[:, 1]], pop[winners[:, 0]])
        rows, pair = swaps[:, :1], swaps[:, 1:]
        children[rows, pair] = children[rows, pair[:, ::-1]]
        elite_idx = np.argsort(fits, kind="stable")[:params.elite_count]
        pop = np.concatenate((pop[elite_idx], children))
        fits = np.concatenate(
            (fits[elite_idx], objective_batch(instance, spec, b, children).f))

    best = int(np.argmin(fits))
    return compact_assignment(pop[best])
