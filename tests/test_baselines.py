"""Baseline solver tests: capacitated k-means dealing and the GA."""

import hashlib

import numpy as np
import pytest

import oracle
from fairteams.core import TaskSpec, compute_benefit_matrix, make_instance
from fairteams.datagen import generate_dataset, preset_config
from fairteams.errors import ValidationError
from fairteams.initial import random_init
from fairteams.baselines import GAParams, genetic_algorithm, uniform_kmeans
from helpers import make_random_instance


def _pairs_instance(centers):
    """Two students per center, offset by a tiny jitter."""
    rows = []
    for cx, cy in centers:
        rows.append([cx, cy])
        rows.append([min(cx + 0.02, 1.0), cy])
    skills = np.array(rows)
    groups = np.tile([0, 1], len(centers))
    return make_instance(skills, groups)


class TestUniformKmeans:
    def test_tight_pairs_are_dealt_to_different_teams(self):
        # Three well-separated pairs, two teams: clustering recovers the
        # pairs, and the round-robin deal must split every pair.
        inst = _pairs_instance([(0.0, 0.0), (0.5, 0.5), (0.95, 0.95)])
        for seed in range(5):
            assignment = uniform_kmeans(inst, 2, rng=seed)
            for a in (0, 2, 4):
                assert assignment.team_of[a] != assignment.team_of[a + 1]

    def test_clusters_become_teams_when_counts_match(self):
        # Two pairs, two teams: cluster count equals team count, so each
        # team ends up being one tight pair.
        inst = _pairs_instance([(0.0, 0.0), (1.0, 0.98)])
        for seed in range(5):
            assignment = uniform_kmeans(inst, 2, rng=seed)
            assert assignment.team_of[0] == assignment.team_of[1]
            assert assignment.team_of[2] == assignment.team_of[3]
            assert assignment.n_teams == 2

    def test_team_sizes_spread_at_most_one(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            team_count = int(rng.integers(1, n + 1))
            inst = make_random_instance(rng, n=n)
            assignment = uniform_kmeans(inst, team_count, rng=int(rng.integers(1000)))
            sizes = np.bincount(assignment.team_of, minlength=team_count)
            assert assignment.n_teams == team_count
            assert sizes.max() - sizes.min() <= 1
            assert sizes.min() >= 1

    def test_identical_students_still_balanced(self):
        inst = make_instance(np.full((9, 2), 0.5),
                             np.array([0, 1] * 4 + [0]))
        assignment = uniform_kmeans(inst, 3, rng=0)
        assert sorted(np.bincount(assignment.team_of).tolist()) == [3, 3, 3]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(41)
        inst = make_random_instance(rng, n=20)
        a = uniform_kmeans(inst, 4, rng=7).team_of
        b = uniform_kmeans(inst, 4, rng=7).team_of
        assert np.array_equal(a, b)

    def test_single_team_and_all_singletons(self):
        rng = np.random.default_rng(42)
        inst = make_random_instance(rng, n=6)
        assert uniform_kmeans(inst, 1, rng=0).n_teams == 1
        solo = uniform_kmeans(inst, 6, rng=0)
        assert np.bincount(solo.team_of).tolist() == [1] * 6

    def test_rejects_bad_team_counts(self):
        rng = np.random.default_rng(43)
        inst = make_random_instance(rng, n=5)
        with pytest.raises(ValidationError):
            uniform_kmeans(inst, 0)
        with pytest.raises(ValidationError):
            uniform_kmeans(inst, 6)


class TestGAParams:
    def test_defaults_match_reported_setup(self):
        params = GAParams()
        assert params.population_size == 200
        assert params.generations == 300
        assert params.mutation_prob == pytest.approx(0.1)
        assert params.crossover_prob == pytest.approx(0.5)
        assert params.tournament_size == 2
        assert params.elite_count == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            GAParams(population_size=1)
        with pytest.raises(ValidationError):
            GAParams(generations=-1)
        with pytest.raises(ValidationError):
            GAParams(mutation_prob=1.5)
        with pytest.raises(ValidationError):
            GAParams(crossover_prob=-0.1)
        with pytest.raises(ValidationError):
            GAParams(tournament_size=0)
        with pytest.raises(ValidationError):
            GAParams(elite_count=200)


class TestGeneticAlgorithm:
    def _setup(self, rng, n=16):
        inst = make_random_instance(rng, n=n, k=2)
        spec = TaskSpec(requirements=[2.0, 2.0], gamma=1.0, delta=1.0)
        b = compute_benefit_matrix(inst, 0.0)
        return inst, spec, b

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(44)
        inst, spec, b = self._setup(rng)
        params = GAParams(population_size=30, generations=15)
        a = genetic_algorithm(inst, spec, b, 3, params=params, rng=9)
        c = genetic_algorithm(inst, spec, b, 3, params=params, rng=9)
        assert np.array_equal(a.team_of, c.team_of)

    def test_single_team_fixed_point(self):
        # With team_count=1 every chromosome is all zeros; no operator can
        # introduce another label, so the output is one team.
        rng = np.random.default_rng(45)
        inst, spec, b = self._setup(rng, n=10)
        params = GAParams(population_size=10, generations=5)
        out = genetic_algorithm(inst, spec, b, 1, params=params, rng=0)
        assert out.team_of.tolist() == [0] * 10

    def test_elitism_never_loses_the_initial_best(self):
        rng = np.random.default_rng(46)
        inst, spec, b = self._setup(rng, n=14)
        params = GAParams(population_size=24, generations=12)
        seed, team_count = 5, 3
        out = genetic_algorithm(inst, spec, b, team_count, params=params,
                                rng=seed)
        # The solver's first rng draw is the initial population; reproduce it
        # to bound the final objective by the best starting chromosome.
        pop = np.random.default_rng(seed).integers(
            0, team_count, size=(params.population_size, inst.n))
        initial_best = min(
            oracle.objective_terms(inst.skills, inst.groups, chrom,
                                   spec.requirements, spec.gamma, spec.delta,
                                   spec.benefit_epsilon)[3]
            for chrom in pop)
        f_out = oracle.objective_terms(inst.skills, inst.groups, out.team_of,
                                       spec.requirements, spec.gamma,
                                       spec.delta, spec.benefit_epsilon)[3]
        assert f_out <= initial_best + 1e-12

    def test_beats_random_assignment_on_skewed_data(self):
        config = preset_config("d3", 36)
        spec = TaskSpec(requirements=[2.0, 2.0], gamma=1.0, delta=1.0)
        params = GAParams(population_size=80, generations=80)
        wins = 0
        for seed in range(5):
            inst = generate_dataset(config, seed=seed)
            b = compute_benefit_matrix(inst, 0.0)
            out = genetic_algorithm(inst, spec, b, 9, params=params, rng=seed)
            f_ga = oracle.objective_terms(
                inst.skills, inst.groups, out.team_of, spec.requirements,
                spec.gamma, spec.delta, spec.benefit_epsilon)[3]
            f_random = np.mean([
                oracle.objective_terms(
                    inst.skills, inst.groups,
                    random_init(inst.n, 9, rng=100 + rep).team_of,
                    spec.requirements, spec.gamma, spec.delta,
                    spec.benefit_epsilon)[3]
                for rep in range(10)])
            if f_ga < f_random:
                wins += 1
        assert wins >= 4

    def test_rejects_bad_team_counts(self):
        rng = np.random.default_rng(47)
        inst, spec, b = self._setup(rng, n=8)
        with pytest.raises(ValidationError):
            genetic_algorithm(inst, spec, b, 0)
        with pytest.raises(ValidationError):
            genetic_algorithm(inst, spec, b, 9)

    def test_zero_generations_returns_initial_best(self):
        rng = np.random.default_rng(48)
        inst, spec, b = self._setup(rng, n=12)
        params = GAParams(population_size=16, generations=0)
        seed, team_count = 3, 3
        out = genetic_algorithm(inst, spec, b, team_count, params=params,
                                rng=seed)
        pop = np.random.default_rng(seed).integers(
            0, team_count, size=(params.population_size, inst.n))
        fits = [oracle.objective_terms(inst.skills, inst.groups, chrom,
                                       spec.requirements, spec.gamma,
                                       spec.delta, spec.benefit_epsilon)[3]
                for chrom in pop]
        best = pop[int(np.argmin(fits))]
        _, inverse = np.unique(best, return_inverse=True)
        assert out.team_of.tolist() == inverse.tolist()


# sha256 of the little-endian int64 team_of that genetic_algorithm returns,
# recorded while the GA still scored chromosomes one at a time. Columns:
# preset, n, dataset seed, team count, population, generations, GA seed,
# delta (requirements 2,2; gamma 1). The rows with a team count near n/2
# breed chromosomes that lose teams, so fitness compaction runs.
GOLDEN_GA = """
d1 30 0  6 12 10 0   1 d3cf950a5c029ac72f3500b892b0fe977a3adab28e5a56455cacfc3d6da79b96
d2 40 1  8 16 12 1   1 1170793f3865e330619dc95606da16dd4f3d505c67e5acf89b8b4f550db586fa
d3 40 2 10 10 20 2 100 e73cd110e886bcb1792a9ad4c42ab7fe73619ec48df1004ce10a2d2d64417577
d3 24 3 12 14 10 3   1 756dbc88d76dde70000959609de0c82e76d2802418d90c9bef0d440954231164
d1 20 4 10  8 25 4 100 7e0f5a581a89534ec700748b78ff60c284c2fa1fa71055597744fa9a99913044
d2 50 5 25 10  8 5   1 d937b06f30e0675e516dc0edf5ec94b8ec6a39e7779a31ca0d006473fa4f830f
"""


def test_genetic_algorithm_reproduces_golden_assignments():
    rows = GOLDEN_GA.strip().splitlines()
    assert len(rows) == 6
    for line in rows:
        preset, n, data_seed, teams, pop, gens, seed, delta, digest = \
            line.split()
        inst = generate_dataset(preset_config(preset, int(n)),
                                seed=int(data_seed))
        spec = TaskSpec(requirements=[2.0, 2.0], delta=float(delta))
        b = compute_benefit_matrix(inst, 0.0)
        params = GAParams(population_size=int(pop), generations=int(gens))
        out = genetic_algorithm(inst, spec, b, int(teams), params=params,
                                rng=int(seed))
        got = hashlib.sha256(
            np.ascontiguousarray(out.team_of, dtype="<i8").tobytes()
        ).hexdigest()
        assert got == digest, line
