"""Comparison methods: balanced k-means seeding and a genetic algorithm.

Neither baseline knows the objective's structure beyond what its fitness
calls expose; they exist to put the constructive-plus-refinement pipeline
in context.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import Assignment, Instance, Scorer, TaskSpec, compact_assignment
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
    words, leaving the generator as the calls would: entrants (children, 2,
    tournament_size), crossover mask (children, n), (child, a, b) swaps."""
    pop_size, tour = params.population_size, params.tournament_size
    n_children = pop_size - params.elite_count
    # a coin (w >> 11) * 2**-53 is below p iff w < ceil(p * 2**53) << 11
    low_coin, cross_coin = (math.ceil(p * 2.0**53) << 11 for p in
                            (params.mutation_prob, params.crossover_prob))
    # 32-bit draws on [0, r): a child's tournaments', after a low last coin
    # Floyd's on [0, n - 1) (none if n = 2), [0, n) and a swap on 0 of [0, 2)
    ranges = np.array([pop_size] * 2 * tour + [n - 1, n, 2], dtype=np.uint64)
    bitgen = rng.bit_generator
    has, buffered = (bitgen.state[key] for key in ("has_uint32", "uinteger"))
    # a draw takes the buffered high half or a fresh word's low half (and
    # buffers its high half); word 0 is the buffered one, read from the
    # state and not stored, and fresh word w >= 1 is block[w - 1]
    block = bitgen.random_raw(n_children * (tour + n + 3))
    rejected = []  # per rejected half, its draw's index + 1 - has
    while True:
        try:  # which children mutate, and the fresh words before their coins
            low = (block < low_coin).tobytes()
            before, mutants, drawn = [], [], 1 - has
            for c in range(n_children):
                drawn += 2 * tour
                before.append((drawn + bisect_left(rejected, drawn)) // 2)
                if low[before[-1] + (n + 1) * (c + 1) - 1]:  # its last coin
                    mutants.append(c)
                    drawn += 3 - (n == 2)
            takes = np.tile([True] * 2 * tour + [False] * 3, (n_children, 1))
            takes[mutants, 2 * tour + (n == 2):] = True
            r = np.broadcast_to(ranges, takes.shape)[takes]
            # draw i reads half u: u odd is the low half of fresh word
            # (u + 1) // 2, u even the high half of word u // 2; fresh words
            # come after the coins of every child with fewer before them
            u = np.arange(1 - has, r.size + 1 - has)
            u += np.searchsorted(rejected, u, side="right")
            at = np.arange((u[-1] + 1) // 2 + 1)
            at += (n + 1) * np.searchsorted(before, at)
            hv = block.astype("<u8", copy=False).view("<u4")
            m = hv[2 * at[(u + 1) // 2] - 1 - u % 2].astype(np.uint64) * r
            if u[0] == 0:  # the buffered half: hv[-1] read the last word
                m[0] = buffered * r[0]
            if not (bad := m % 2**32 < 2**32 % r).any():  # Lemire's redraw
                break
            rejected.append(int(bad.argmax()) + 1 - has)
        except IndexError:  # a read past the block: rejections ran it short
            block = np.append(block, bitgen.random_raw(len(block)))
    # back from the block's end to the word after the last one read
    end = at.size + (n + 1) * n_children - 1 - len(block)
    bitgen.state = {**bitgen.advance(end % 2**128).state, "has_uint32":
                    int(u[-1] % 2), "uinteger": int(hv[2 * at[-1] - 1])}
    values = np.zeros(takes.shape, dtype=np.int64)
    values[takes] = m >> 32
    a, b, keep = values[mutants, 2 * tour:].T
    b = np.where(b == a, n - 1, b)  # a repeat takes j
    coins = np.delete(block < cross_coin, at[1:] - 1)[:n_children * (n + 1)]
    return (values[:, :2 * tour].reshape(-1, 2, tour),
            coins.reshape(n_children, n + 1)[:, :n],
            np.column_stack((np.array(mutants, dtype=np.int64),
                             np.where(keep, a, b), np.where(keep, b, a))))


def genetic_algorithm(instance: Instance, spec: TaskSpec, b: np.ndarray,
                      team_count: int, params: GAParams | None = None,
                      rng=0) -> Assignment:
    """Direct-encoding GA over team labels.

    Chromosome: one team id per student. Uniform crossover per gene,
    mutation swaps the teams of two distinct students, tournament selection
    (first minimum wins ties), elitism keeps the best chromosome(s). Elites
    and children equal to a parent keep that fitness (a row scores alike in
    any batch); the other children are scored. Fitness compacts empty team
    ids, so extinct teams shrink the divisor rather than padding it.

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
    score, elite = Scorer(instance, spec, b), params.elite_count
    pop = rng.integers(0, team_count, size=(params.population_size, n),
                       dtype=np.int32)  # int64's draws, in half the bytes
    fits = score.fitness(pop)
    # each generation breeds into the same parents and population: arrays
    # that one frees, glibc would trim and the next fault in again
    parents = np.empty((len(pop) - elite, 2, n), dtype=np.int32)

    for _ in range(params.generations):
        entrants, crossed, swaps = _breeding_draws(rng, params, n)
        pick = np.argmin(fits[entrants], axis=2)  # the first minimum wins
        winners = np.take_along_axis(entrants, pick[..., None], axis=2)[..., 0]
        pop.take(winners, axis=0, out=parents, mode="clip")
        elite_idx = np.argsort(fits, kind="stable")[:elite]
        pop[:elite] = pop[elite_idx]
        # parent 1's gene where crossed, as arithmetic: np.where branches
        children = np.subtract(parents[:, 1], parents[:, 0], out=pop[elite:])
        children *= crossed
        children += parents[:, 0]
        rows, pair = swaps[:, :1], swaps[:, 1:]
        children[rows, pair] = children[rows, pair[:, ::-1]]
        same = (children[:, None] == parents).all(axis=2)
        child_f = fits[winners[np.arange(len(same)), same.argmax(axis=1)]]
        if (new := ~same.any(axis=1)).any():
            child_f[new] = score.fitness(children[new])
        fits = np.concatenate((fits[elite_idx], child_f))

    best = int(np.argmin(fits))
    return compact_assignment(pop[best])
