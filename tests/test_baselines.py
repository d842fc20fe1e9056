"""Baseline solver tests: capacitated k-means dealing and the GA."""

import hashlib
import itertools
import json

import numpy as np
import pytest

import oracle
from fairteams import baselines
from fairteams.core import (Scorer, TaskSpec, compute_benefit_matrix,
                            make_instance)
from fairteams.datagen import generate_dataset, preset_config
from fairteams.errors import ValidationError
from fairteams.initial import gmbf, random_init
from fairteams.baselines import (GAParams, _breeding_draws, genetic_algorithm,
                                 uniform_kmeans)
from fairteams.rng import derive_rng
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


def _team_bytes(assignment):
    return np.ascontiguousarray(assignment.team_of, dtype="<i8").tobytes()


# sha256 of the little-endian int64 team_of that uniform_kmeans returns,
# recorded before the cycle stop and the list-based seat loop. Columns: n,
# skill count k, team count L, seed, tied (skills rounded to thirds). The
# cluster count C = ceil(n / L) divides n in rows such as n=24, L=6 and not
# in rows such as n=26, L=6; L = 1 and L = n have rows of their own.
GOLDEN_KMEANS = """
24 2  6  0 0 2e03d2858f9745dd9fc4d202d77acd67fe6237877b4876a311e10f71c85b965f
24 2  6  1 0 84c5c6a4bab95fa563d6ff0b44b3bf55970b787e57321507ec4c0d08590fd850
24 1  6  2 0 cf04f3b817777342a0f06e4cd22d72b6cc17e63856c813ed34d911bb926ae0e4
24 3  6  3 1 5691b8db464e1ad54622ec0d4c6277749f9f125eec9bf8682911c34c08e11549
26 2  6  4 0 2906023fb9741060310ffa19f68977dd5f5559b5d86f4a5c69d199d8c1df1fa8
26 1  6  5 1 f72f15d4b061319a75d0838bd88a6739e3527fb3fb4025074578f03e0ad6c190
26 3  6  6 0 175fa311cad04fb07ce63475be5c8648183ea83b944e041a3a7d320a25ecb583
31 2  7  7 1 8d76482f1b0fa1020966b0bce58f88973c065588904b5a07c446f01465555c38
12 2  1  8 0 2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4
12 3  1  9 1 2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4
12 1 12 10 0 700a4498438a801b5781533040bce85a20ae4bfe08866f7552ff33e172923b0a
12 2 12 11 1 700a4498438a801b5781533040bce85a20ae4bfe08866f7552ff33e172923b0a
40 1  3 12 1 ad826f133d50037cff56e2726f6926ebb078df1c80c53a1d1c486675f7160d5b
40 2  9 13 1 8ca7f97c9e2afcadaf291146aed11853223e4799d68f2a4d45a72578deb605ef
40 3 13 14 1 56646bdb119f281a6a277c5203c6635d4a6e552f4020adad2b51b2f80e4b7201
45 2  4 15 0 328c5c6e0306b58d6330c6a87a1d30f00a26d3c36d5b9bcbcba0ebb80494851b
60 2 14 16 0 96c8db08c6ae81d52c531ae799b05a2662a1a2c52ea78ad3186012ffb17c6ecc
60 1 20 17 1 d3c239171880a726cc1d4345a409749e7576ff5768816f78956e21b4a314c4c6
 2 1  1 18 0 374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb
 2 2  2 19 1 9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db
"""


def test_uniform_kmeans_reproduces_golden_assignments():
    rows = GOLDEN_KMEANS.strip().splitlines()
    assert len(rows) == 20
    for line in rows:
        *params, digest = line.split()
        n, k, teams, seed, tied = (int(v) for v in params)
        rng = np.random.default_rng([n, k, teams, seed])
        skills = rng.random((n, k))
        if tied:
            skills = np.round(skills * 3) / 3
        inst = make_instance(skills, np.arange(n) % 2)
        got = hashlib.sha256(_team_bytes(uniform_kmeans(inst, teams,
                                                        rng=seed)))
        assert got.hexdigest() == digest, line


# One digest over the 200 uniform_kmeans calls of an experiment grid (preset
# d2, n=60, seeds 0..19, ten reps each, team count from gmbf), in order.
# 46 of these calls cycle without converging, so they exercise the
# exact-cycle stop. Recorded before the cycle stop existed.
GOLDEN_KMEANS_GRID = "7056b8126a2d2a84a8f8e3d20fe46bb6589c799d3a5d70d766ce239049bfef03"


def test_uniform_kmeans_reproduces_golden_grid_calls():
    digest = hashlib.sha256()
    for seed in range(20):
        inst = generate_dataset(preset_config("d2", 60), seed=seed)
        spec = TaskSpec(requirements=[2.0, 2.0])
        teams = gmbf(inst, spec, compute_benefit_matrix(inst, 0.0)).n_teams
        for rep in range(10):
            digest.update(_team_bytes(uniform_kmeans(
                inst, teams, rng=derive_rng(seed, 2, rep))))
    assert digest.hexdigest() == GOLDEN_KMEANS_GRID


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

    def test_single_team_fixed_point(self, monkeypatch):
        # With team_count=1 every chromosome is all zeros; no operator can
        # introduce another label, so the output is one team. Every child
        # is then a copy of its parents and keeps their fitness, so only
        # the initial population is scored.
        calls = []

        class Counted(Scorer):
            def fitness(self, labels):
                calls.append(len(labels))
                return super().fitness(labels)

        monkeypatch.setattr(baselines, "Scorer", Counted)
        rng = np.random.default_rng(45)
        inst, spec, b = self._setup(rng, n=10)
        params = GAParams(population_size=10, generations=5)
        out = genetic_algorithm(inst, spec, b, 1, params=params, rng=0)
        assert out.team_of.tolist() == [0] * 10
        assert calls == [10]

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

    @pytest.mark.parametrize("bit_generator", [
        np.random.MT19937, np.random.SFC64, np.random.Philox])
    def test_rejects_bit_generators_it_cannot_read(self, bit_generator):
        # each generation's draws are read from raw PCG64-family words
        inst, spec, b = self._setup(np.random.default_rng(49), n=8)
        rng = np.random.Generator(bit_generator(0))
        params = GAParams(population_size=4, generations=1)
        with pytest.raises(ValidationError, match="PCG64"):
            genetic_algorithm(inst, spec, b, 2, params=params, rng=rng)
        # rejected before the first draw
        assert rng.random() == np.random.Generator(bit_generator(0)).random()

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


def _ga_hash(preset, n, data_seed, teams, delta, params, rng):
    """sha256 object fed the little-endian int64 team_of of one GA run."""
    inst = generate_dataset(preset_config(preset, int(n)),
                            seed=int(data_seed))
    spec = TaskSpec(requirements=[2.0, 2.0], delta=float(delta))
    b = compute_benefit_matrix(inst, 0.0)
    out = genetic_algorithm(inst, spec, b, int(teams), params=params, rng=rng)
    return hashlib.sha256(
        np.ascontiguousarray(out.team_of, dtype="<i8").tobytes())


def test_genetic_algorithm_reproduces_golden_assignments():
    rows = GOLDEN_GA.strip().splitlines()
    assert len(rows) == 6
    for line in rows:
        preset, n, data_seed, teams, pop, gens, seed, delta, digest = \
            line.split()
        params = GAParams(population_size=int(pop), generations=int(gens))
        got = _ga_hash(preset, n, data_seed, teams, delta, params,
                       rng=int(seed)).hexdigest()
        assert got == digest, line


# Same recipe over non-default GAParams, with the generator's final
# bit_generator.state hashed after team_of, so the rows pin the exact
# sequence of draws as well as the answer. Recorded while children were
# still bred one at a time. Extra columns: tournament size, elite count,
# mutation and crossover probability. The first sixteen rows cross the
# extremes of those four; then n=2 with one and two teams; then a
# population of two with a tournament wider than it.
GOLDEN_GA_PARAMS = """
d1 18  0  4 10  8  0   1 1 0 0   0   38b1474e6d024bceae3cae6c6b6ac47a7338438db3ec2a10aa7026416355c10f
d2 20  1  6 10  8  1 100 1 0 0   1   fa8da4a4877ac0b961ebda430ba491fce401d2dda4f951d9b2eb8afb440a06fb
d3 22  2  9 10  8  2   1 1 0 1   0   e90dff291f6d9f4d54230dde70ddc824793e2f0e8a0737ef2f32834ee4ba1421
d1 24  3  3 10  8  3 100 1 0 1   1   fe9ab75a049ea891e8426477e4e276494f4b1358ccc89bcb7bc1884eacf0faee
d2 18  4  4 10  8  4   1 1 3 0   0   e0a035091f6b0c3d177f92b318833918d3af18ca654f1b1cfeb262a115926116
d3 20  5  6 10  8  5 100 1 3 0   1   8e07319bf1bfa165bd8903ecb6b82edc57cc23b9abe2ec43769435b445b53374
d1 22  6  9 10  8  6   1 1 3 1   0   f46a9349d8e5d805354974abfed6892cf48d718cbcd842ccc1ee2e57bd928848
d2 24  7  3 10  8  7 100 1 3 1   1   045d0fbe5dc5c716dc408ed984c7231d94157592be02059bd8bf559e33d2b2e0
d3 18  8  4 10  8  8   1 3 0 0   0   163d48ac732946f5b7f5d1f9ed9fad6abdbe9d97527a95d921fd40e89a6255b5
d1 20  9  6 10  8  9 100 3 0 0   1   571b673604ab5cda68fab7ce4a6626f6887c0b1da306ac5b85363f9d92d3b633
d2 22 10  9 10  8 10   1 3 0 1   0   7098fc77c76f7353404d2f1cdc39add733a6c4cf924a14cba22e6ff03d0e22a9
d3 24 11  3 10  8 11 100 3 0 1   1   84d812f79d3ce30d07379c70ddc40629750e1d7b4b84b18ed744b4cf05379aa1
d1 18 12  4 10  8 12   1 3 3 0   0   4cedc705f59acd833bf7e477acdcc3d3f4ada53247a0e869d2845e83465e4ea5
d2 20 13  6 10  8 13 100 3 3 0   1   3c113a0532435078b0bd51592d3814292ed8e34834a8d9263f44c53525e8b298
d3 22 14  9 10  8 14   1 3 3 1   0   3415d9d5617dd8b89f7c69f5c1e911e2994adafbc0d38985ac56436f0efb0ee2
d1 24 15  3 10  8 15 100 3 3 1   1   ec7c6f954e74782a68c77fe0b552692f4e3791daae77ab86d58d8a24eaf014b7
d1  2  0  1  6  5  0   1 1 0 1   1   e24cb219f311f1d7eeaef74d0d02f5c7ce1bfa682ec73b52ebc5304178516179
d2  2  1  2  6  5  1   1 3 3 1   0.5 bbe1b72092a49702149bf0b02da3dea72abf7d5551e54ba33121808eb5646875
d3  2  2  2  4  6  2 100 2 0 1   1   f421ffc25ef78e48c5450b7b054f73985e45e8708b5f3232b7595358eff7944e
d3  2  3  2  5  6  3   1 1 1 0.5 0   7fc1447976c1390f7131f5497ad0ecbd54adf8295b475e18f11ebf39879dcc3b
d2  2  4  1  3  4  4   1 3 2 0.5 0.5 90c48576c53c86f3e83c1ca482b01e71bd41e297a0bda2a62446d208aeae90e1
d1 12  5  3  2  6  5   1 3 1 0.7 0.3 bc32d5420ca3c81de66343005e538f4c7c7af9c1c700f6441e759094b145a73d
d2 16  6  5  9  7  6 100 2 0 0.3 0.8 cd9b42354012cf08937a459d61cb167fff2f888dec0217ac3b3982a30f445517
"""


def test_genetic_algorithm_reproduces_golden_draws_across_params():
    rows = GOLDEN_GA_PARAMS.strip().splitlines()
    assert len(rows) == 23
    for line in rows:
        (preset, n, data_seed, teams, pop, gens, seed, delta, tournament,
         elite, mutation, crossover, digest) = line.split()
        params = GAParams(population_size=int(pop), generations=int(gens),
                          mutation_prob=float(mutation),
                          crossover_prob=float(crossover),
                          tournament_size=int(tournament),
                          elite_count=int(elite))
        rng = np.random.default_rng(int(seed))
        got = _ga_hash(preset, n, data_seed, teams, delta, params, rng)
        got.update(json.dumps(rng.bit_generator.state,
                              sort_keys=True).encode())
        assert got.hexdigest() == digest, line


def _per_child_draws(rng, params, n):
    """The per-child numpy calls whose draws _breeding_draws reads."""
    tour = params.tournament_size
    n_children = params.population_size - params.elite_count
    entrants = np.empty((n_children, 2 * tour), dtype=np.int64)
    coins = np.empty((n_children, n + 1))
    swaps = []
    for c in range(n_children):
        entrants[c] = rng.integers(0, params.population_size, size=2 * tour)
        rng.random(out=coins[c])
        if coins[c, n] < params.mutation_prob:
            swaps.append((c, *rng.choice(n, size=2, replace=False)))
    return (entrants.reshape(n_children, 2, tour), coins,
            np.array(swaps, dtype=np.int64).reshape(-1, 3))


def _draw_params(pop_size, tour, mutation_prob, n_children):
    return GAParams(population_size=pop_size, tournament_size=tour,
                    mutation_prob=mutation_prob,
                    elite_count=pop_size - n_children)


def _assert_same_draws(bit_generator, seed, params, n, buffered=False):
    want_rng, got_rng = (np.random.Generator(bit_generator(seed))
                         for _ in range(2))
    if buffered:  # leave the high half of a word in the 32-bit buffer
        want_rng.integers(0, 5)
        got_rng.integers(0, 5)
    assert got_rng.bit_generator.state["has_uint32"] == buffered
    entrants, coins, swaps = _per_child_draws(want_rng, params, n)
    # the GA reads the first n coins only as the crossover mask
    want = entrants, coins[:, :n] < params.crossover_prob, swaps
    got = _breeding_draws(got_rng, params, n)
    for name, w, g in zip(("entrants", "crossed", "swaps"), want, got):
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return want_rng


@pytest.mark.parametrize("bit_generator", [np.random.PCG64,
                                           np.random.PCG64DXSM])
@pytest.mark.parametrize("pop_size", [2, 3, 9, 200, 3 * 2**30, 2**31 + 1,
                                      2**32])
def test_breeding_draws_match_per_child_calls(bit_generator, pop_size):
    # Tournaments on 3 * 2**30 and 2**31 + 1 reject about a quarter and a
    # half of their 32-bit draws; 2**32 takes them as they come.
    cases = itertools.product((1, 2, 3), (2, 3, 17, 100), (0.0, 0.1, 1.0),
                              (False, True))
    for seed, (tour, n, mutation_prob, buffered) in enumerate(cases):
        params = _draw_params(pop_size, tour, mutation_prob,
                              min(pop_size, 7))
        _assert_same_draws(bit_generator, seed, params, n, buffered)


def test_breeding_draws_read_past_a_short_block():
    # Half the tournament draws on 2**31 + 1 are rejected, so 60 children
    # use about 9 words each, more than the tour + n + 3 per child of the
    # first block.
    params = _draw_params(2**31 + 1, 3, 0.0, 60)
    end = _assert_same_draws(np.random.PCG64, 11, params, 2).bit_generator
    probe = np.random.PCG64(11)  # count the words the calls drew
    used = 0
    while probe.state["state"] != end.state["state"] and used < 2000:
        probe.random_raw()
        used += 1
    assert 60 * (3 + 2 + 3) < used < 2000


def test_warm_ga_run_takes_few_minor_faults():
    # One default GA run on the ga_n100 bench roster (d3, n=100, seed 0,
    # 24 teams). A generation scores 15 to 199 rows; when its arrays were
    # freed, glibc trimmed the heap and the next generation faulted them in
    # again: about 16,000 minor faults a run, against a few hundred now.
    resource = pytest.importorskip("resource")
    inst = generate_dataset(preset_config("d3", 100), seed=0)
    spec = TaskSpec(requirements=np.full(inst.k, 2.0))
    b = compute_benefit_matrix(inst, spec.benefit_epsilon)
    genetic_algorithm(inst, spec, b, 24, rng=0)  # a cold run sizes the heap
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    genetic_algorithm(inst, spec, b, 24, rng=0)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
