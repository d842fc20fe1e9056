"""Objective terms and domain types against the naive oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from fairteams import core
from fairteams.core import (Assignment, TaskSpec, compact_assignment,
                            compute_benefit_matrix, make_instance, objective,
                            objective_batch)
from fairteams.errors import ValidationError
from helpers import make_random_instance, make_random_spec, random_partition


def inst_1d(skills, groups=None):
    skills = np.asarray(skills, dtype=float).reshape(-1, 1)
    if groups is None:
        groups = np.zeros(len(skills), dtype=int)
    return make_instance(skills, groups)


def breakdown(inst, a, b=None):
    """objective() of a under requirement 2 per skill, gamma = delta = 1."""
    return objective(inst, TaskSpec(requirements=np.full(inst.k, 2.0)), a, b=b)


class TestBenefitMatrix:
    def test_mutual_benefit_on_different_skills(self):
        inst = make_instance([[0.2, 0.3], [0.5, 0.1]], [0, 0])
        b = compute_benefit_matrix(inst, 0.0)
        assert b[0, 1] == 1  # 0.5 - 0.2 > 0
        assert b[1, 0] == 1  # 0.3 - 0.1 > 0

    def test_identical_students_never_benefit(self):
        inst = make_instance([[0.4, 0.4], [0.4, 0.4]], [0, 0])
        for eps in (0.0, 0.1, 1.0):
            b = compute_benefit_matrix(inst, eps)
            assert b[0, 1] == 0 and b[1, 0] == 0

    def test_threshold_is_strict(self):
        inst = make_instance([[0.2, 0.3], [0.5, 0.1]], [0, 0])
        b = compute_benefit_matrix(inst, 0.35)
        assert b[0, 1] == 0 and b[1, 0] == 0
        # exactly at the margin: 0.5 - 0.2 is not > 0.3
        b = compute_benefit_matrix(inst, 0.3)
        assert b[0, 1] == 0

    def test_irreflexive(self):
        rng = np.random.default_rng(0)
        inst = make_random_instance(rng)
        b = compute_benefit_matrix(inst, 0.05)
        assert np.all(np.diag(b) == 0)

    def test_one_dim_total_order(self):
        # for eps=0 and k=1 the relation is exactly "strictly weaker than"
        rng = np.random.default_rng(1)
        skills = rng.random(12)
        inst = inst_1d(skills)
        b = compute_benefit_matrix(inst, 0.0)
        for i in range(12):
            for j in range(12):
                assert b[i, j] == (1 if skills[j] > skills[i] else 0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            inst = make_random_instance(rng)
            eps = float(rng.random() * 0.3)
            got = compute_benefit_matrix(inst, eps)
            want = oracle.benefit_matrix(inst.skills, eps)
            assert np.array_equal(got, want)

    def test_negative_epsilon_rejected(self):
        inst = make_instance([[0.1], [0.2]], [0, 0])
        with pytest.raises(ValidationError):
            compute_benefit_matrix(inst, -0.1)
        with pytest.raises(ValidationError):
            compute_benefit_matrix(inst, float("nan"))


class TestIndividualBenefit:
    def test_half_of_two_teammates(self):
        # i=0.2 gains from j=0.5 but not from l=0.1
        inst = inst_1d([0.2, 0.5, 0.1])
        b = compute_benefit_matrix(inst, 0.0)
        a = Assignment([0, 0, 0])
        assert breakdown(inst, a, b).individual[0] == 0.5

    def test_singleton_is_zero(self):
        inst = inst_1d([0.2, 0.5, 0.1])
        b = compute_benefit_matrix(inst, 0.0)
        a = Assignment([0, 1, 1])
        assert breakdown(inst, a, b).individual[0] == 0.0

    def test_all_teammates_benefit(self):
        inst = inst_1d([0.1, 0.5, 0.6, 0.7])
        b = compute_benefit_matrix(inst, 0.0)
        a = Assignment([0, 0, 0, 0])
        assert breakdown(inst, a, b).individual[0] == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            inst = make_random_instance(rng)
            spec = make_random_spec(rng, inst.k)
            b = compute_benefit_matrix(inst, spec.benefit_epsilon)
            labels = np.stack([
                random_partition(rng, inst.n,
                                 int(rng.integers(1, inst.n))).team_of
                for _ in range(3)])
            batch = objective_batch(inst, spec, b, labels)
            for row, got in zip(labels, batch.individual):
                one = objective(inst, spec, Assignment(row), b=b)
                assert got.tobytes() == one.individual.tobytes()
                want = oracle.individual_benefits(b, row)
                assert np.allclose(got, want, atol=1e-12)


class TestGroupBenefit:
    def test_mean_of_members(self):
        # group 0 = {0, 3}: IndBen(0)=0.5 in team {0,1,2}, IndBen(3)=1.0
        inst = make_instance(
            np.array([0.5, 0.6, 0.4, 0.3, 0.9]).reshape(-1, 1),
            [0, 1, 1, 0, 1])
        b = compute_benefit_matrix(inst, 0.0)
        a = Assignment([0, 0, 0, 1, 1])
        got = breakdown(inst, a, b)
        assert got.individual[0] == 0.5
        assert got.individual[3] == 1.0
        assert got.group_benefits[0] == pytest.approx(0.75)

    def test_all_singletons_zero(self):
        inst = inst_1d([0.1, 0.4, 0.9], [0, 0, 1])
        b = compute_benefit_matrix(inst, 0.0)
        a = Assignment([0, 1, 2])
        assert breakdown(inst, a, b).group_benefits.tolist() == [0.0, 0.0]

    def test_one_member_group(self):
        inst = inst_1d([0.2, 0.5, 0.1], [0, 0, 1])
        b = compute_benefit_matrix(inst, 0.0)
        a = Assignment([0, 0, 0])
        got = breakdown(inst, a, b)
        assert got.group_benefits[1] == got.individual[2]


def deficiency(inst, a, requirements):
    """x term of the objective under the given requirements."""
    return objective(inst, TaskSpec(requirements=requirements), a).x


class TestSkillDeficiency:
    def test_single_team_shortfall(self):
        inst = inst_1d([0.9, 0.6])
        a = Assignment([0, 0])
        assert deficiency(inst, a, [2.0]) == pytest.approx(0.25)

    def test_zero_when_all_requirements_met(self):
        inst = make_instance([[0.9, 0.8], [0.9, 0.9], [0.5, 0.9], [0.9, 0.5]],
                             [0, 0, 0, 0])
        a = Assignment([0, 0, 1, 1])
        assert deficiency(inst, a, [1.0, 1.0]) == 0.0

    def test_two_team_example(self):
        # sums (2.5, 1.0) and (2.0, 2.0) vs r=(2,2): one shortfall of 1.0
        skills = np.array([[1.0, 0.5], [1.0, 0.3], [0.5, 0.2],
                           [1.0, 1.0], [1.0, 1.0]])
        inst = make_instance(skills, [0] * 5)
        a = Assignment([0, 0, 0, 1, 1])
        assert np.allclose(breakdown(inst, a).team_sums,
                           [[2.5, 1.0], [2.0, 2.0]])
        assert deficiency(inst, a, [2.0, 2.0]) == pytest.approx(0.25)

    def test_monotone_in_skills(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            inst = make_random_instance(rng)
            a = random_partition(rng, inst.n, int(rng.integers(1, inst.n)))
            r = rng.random(inst.k) * 3
            base = deficiency(inst, a, r)
            i = int(rng.integers(inst.n))
            p = int(rng.integers(inst.k))
            bumped = inst.skills.copy()
            bumped[i, p] = min(1.0, bumped[i, p] + float(rng.random()))
            inst2 = make_instance(bumped, inst.groups)
            assert deficiency(inst2, a, r) <= base + 1e-12


def benefit_terms(inst, a, b):
    """(y, z) terms of the objective for a precomputed benefit matrix."""
    got = breakdown(inst, a, b)
    return got.y, got.z


class TestAverageBenefit:
    def test_mutual_pair(self):
        inst = make_instance([[0.2, 0.9], [0.9, 0.2]], [0, 0])
        b = compute_benefit_matrix(inst, 0.0)
        assert benefit_terms(inst, Assignment([0, 0]), b)[0] == 1.0

    def test_all_singletons(self):
        inst = inst_1d([0.1, 0.5, 0.9])
        b = compute_benefit_matrix(inst, 0.0)
        assert benefit_terms(inst, Assignment([0, 1, 2]), b)[0] == 0.0

    def test_three_student_mean(self):
        # one team, 1-d skills: benefits (1, 0.5, 0) bottom to top
        inst = inst_1d([0.1, 0.5, 0.9])
        b = compute_benefit_matrix(inst, 0.0)
        a = Assignment([0, 0, 0])
        assert breakdown(inst, a, b).individual.tolist() == [1.0, 0.5, 0.0]
        assert benefit_terms(inst, a, b)[0] == pytest.approx(0.5)


class TestGroupVariance:
    def test_equal_groups_zero(self):
        inst = inst_1d([0.1, 0.9, 0.1, 0.9], [0, 0, 1, 1])
        b = compute_benefit_matrix(inst, 0.0)
        a = Assignment([0, 0, 1, 1])  # both groups have benefits (1, 0)
        assert benefit_terms(inst, a, b)[1] == 0.0

    def test_two_group_example(self):
        # three weak/strong pairs and four singletons chosen so the group
        # benefit means land exactly on (0.2, 0.4); variance then 0.01
        skills = [0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.5, 0.5, 0.5, 0.5]
        groups = [0, 0, 1, 1, 1, 1, 0, 0, 0, 1]
        teams = [0, 0, 1, 1, 2, 2, 3, 4, 5, 6]
        inst = inst_1d(skills, groups)
        b = compute_benefit_matrix(inst, 0.0)
        a = Assignment(teams)
        assert np.allclose(breakdown(inst, a, b).group_benefits, [0.2, 0.4])
        assert benefit_terms(inst, a, b)[1] == pytest.approx(0.01, abs=1e-12)

    def test_single_group_zero(self):
        rng = np.random.default_rng(5)
        inst = make_random_instance(rng, m=1)
        b = compute_benefit_matrix(inst, 0.0)
        a = random_partition(rng, inst.n, 3)
        assert benefit_terms(inst, a, b)[1] == 0.0

    def test_population_variance_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            inst = make_random_instance(rng, m=3)
            b = compute_benefit_matrix(inst, 0.0)
            a = random_partition(rng, inst.n, int(rng.integers(1, inst.n)))
            g = breakdown(inst, a, b).group_benefits
            want = float(np.mean((g - g.mean()) ** 2))
            assert benefit_terms(inst, a, b)[1] == pytest.approx(
                want, abs=1e-12)


class TestObjective:
    def test_sign_convention(self):
        # x=0.25, y=0.8, z=0.01, gamma=delta=1 combine to -0.54
        assert 0.25 - 1.0 * 0.8 + 1.0 * 0.01 == pytest.approx(-0.54)
        rng = np.random.default_rng(7)
        inst = make_random_instance(rng)
        spec = make_random_spec(rng, inst.k)
        a = random_partition(rng, inst.n, 3)
        got = objective(inst, spec, a)
        assert got.f == pytest.approx(
            got.x - spec.gamma * got.y + spec.delta * got.z, abs=1e-12)

    def test_zero_weights_leave_only_deficiency(self):
        rng = np.random.default_rng(8)
        inst = make_random_instance(rng)
        spec = TaskSpec(requirements=np.full(inst.k, 2.0), gamma=0.0,
                        delta=0.0)
        a = random_partition(rng, inst.n, 2)
        got = objective(inst, spec, a)
        assert got.f == got.x

    def test_matches_oracle_on_small_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            inst = make_random_instance(rng, n=6)
            spec = make_random_spec(rng, inst.k)
            a = random_partition(rng, inst.n, int(rng.integers(1, 6)))
            got = objective(inst, spec, a)
            x, y, z, f = oracle.objective_terms(
                inst.skills, inst.groups, a.team_of, spec.requirements,
                spec.gamma, spec.delta, spec.benefit_epsilon)
            assert got.x == pytest.approx(x, abs=1e-12)
            assert got.y == pytest.approx(y, abs=1e-12)
            assert got.z == pytest.approx(z, abs=1e-12)
            assert got.f == pytest.approx(f, abs=1e-12)

    def test_rejects_an_assignment_of_another_size(self):
        # 11 labels for 12 students: a validation error, not a numpy one
        inst = make_random_instance(np.random.default_rng(10), n=12)
        with pytest.raises(ValidationError, match="assignment size"):
            breakdown(inst, Assignment(np.arange(11) % 3))


@st.composite
def _labelings(draw):
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, min(3, n)))
    levels = st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.7, 1.0])
    row = st.lists(levels | st.floats(0.0, 1.0), min_size=k, max_size=k)
    skills = draw(st.lists(row, min_size=n, max_size=n))
    groups = list(range(m)) + draw(
        st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    # sparse, possibly negative labels: rows may leave most values unused
    labels = draw(st.lists(st.lists(st.integers(-3, 3 * n), min_size=n,
                                    max_size=n), min_size=1, max_size=6))
    reqs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                         min_size=k, max_size=k))
    epsilon = draw(st.sampled_from([0.0, 0.1, 1.0, 2.0]))
    gamma, delta = draw(st.sampled_from([(1.0, 1.0), (0.3, 100.0),
                                         (0.0, 0.0), (2.0, 0.7)]))
    return skills, groups, labels, reqs, epsilon, gamma, delta


class TestObjectiveBatch:
    @settings(max_examples=200, deadline=None)
    @given(_labelings())
    # N = 2, m = 1, k = 1: one team, then two singletons
    @example(([[0.3], [0.9]], [0, 0], [[5, 5], [0, 7]], [1.0], 0.0,
              1.0, 1.0))
    # singletons only and one team, three groups
    @example(([[0.1, 0.9], [0.8, 0.2], [0.5, 0.5], [0.3, 0.3]], [0, 1, 2, 0],
              [[3, 1, 2, 0], [4, 4, 4, 4], [9, -2, 9, 40]], [0.5, 0.5], 0.0,
              1.0, 100.0))
    # epsilon >= 1, so b = 0 however far apart the skills are
    @example(([[0.0], [1.0], [0.5], [0.2]], [0, 1, 1, 0],
              [[0, 0, 1, 1], [2, 0, 2, 0]], [2.0], 1.0, 1.0, 1.0))
    def test_rows_match_objective_bit_for_bit(self, case):
        skills, groups, labels, reqs, epsilon, gamma, delta = case
        inst = make_instance(skills, groups)
        spec = TaskSpec(requirements=reqs, benefit_epsilon=epsilon,
                        gamma=gamma, delta=delta)
        b = compute_benefit_matrix(inst, epsilon)
        batch = objective_batch(inst, spec, b, np.array(labels))
        got = np.stack([batch.x, batch.y, batch.z, batch.f], axis=1)
        for p, row in enumerate(labels):
            one = objective(inst, spec, compact_assignment(row), b=b)
            want = np.array([one.x, one.y, one.z, one.f])
            assert got[p].tobytes() == want.tobytes(), (p, got[p], want)
            assert batch.individual[p].tobytes() == one.individual.tobytes()
            assert batch.individual[p].tolist() == \
                oracle.individual_benefits(b, row)

    def test_wide_rows_match_objective_bit_for_bit(self):
        # N >= 256 stores compacted labels as uint16 inside the kernel; the
        # rows reach team ids past 255 with teammates in those teams, where
        # a uint8 copy would wrap onto teams 0.. and merge them.
        rng = np.random.default_rng(14)
        for n in (256, 300):
            inst = make_random_instance(rng, n=n, k=2, m=3)
            spec = make_random_spec(rng, inst.k)
            b = compute_benefit_matrix(inst, spec.benefit_epsilon)
            crowded = np.concatenate([np.arange(n - 30),
                                      rng.integers(0, n - 30, 30)])
            labels = np.stack([
                rng.permutation(crowded),
                rng.permutation(crowded) * 7919 - 50,  # sparse, negative
                rng.permutation(n),                    # all singletons
                rng.integers(0, 40, n),
                rng.integers(0, 2, n) * 100_000,
            ])
            batch = objective_batch(inst, spec, b, labels)
            got = np.stack([batch.x, batch.y, batch.z, batch.f], axis=1)
            for p, row in enumerate(labels):
                assignment = compact_assignment(row)
                one = objective(inst, spec, assignment, b=b)
                want = np.array([one.x, one.y, one.z, one.f])
                assert got[p].tobytes() == want.tobytes(), (n, p)
                ind = batch.individual[p]
                assert ind.tobytes() == one.individual.tobytes()
                assert ind.tolist() == oracle.individual_benefits(b, row)


    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    def test_blocked_rows_match_objective_bit_for_bit(self, n):
        # one, two and three 64-bit words per benefit row, on both sides of
        # each word edge; a block holds at most _COMEMBER_BYTES // (8 * n)
        # rows, so the batch spans at least three blocks
        rng = np.random.default_rng(n)
        inst = make_random_instance(rng, n=n, k=2, m=3)
        spec = make_random_spec(rng, inst.k)
        b = compute_benefit_matrix(inst, spec.benefit_epsilon)
        n_rows = 3 * (core._COMEMBER_BYTES // (8 * n)) + 1
        labels = rng.integers(0, rng.integers(1, n + 1, (n_rows, 1)),
                              (n_rows, n))
        labels[0], labels[1] = 0, rng.permutation(n)  # one team; singletons
        batch = objective_batch(inst, spec, b, labels)
        got = np.stack([batch.x, batch.y, batch.z, batch.f], axis=1)
        for p, row in enumerate(labels):
            assignment = compact_assignment(row)
            one = objective(inst, spec, assignment, b=b)
            want = np.array([one.x, one.y, one.z, one.f])
            assert got[p].tobytes() == want.tobytes(), (n, p)
            ind = batch.individual[p]
            assert ind.tobytes() == one.individual.tobytes()
            if p < 12:
                assert ind.tolist() == oracle.individual_benefits(b, row)

    def test_compaction_matches_unique_inverse(self):
        rng = np.random.default_rng(16)
        n = 40
        big = np.iinfo(np.int64)
        rows = np.stack([
            rng.integers(-5, 5, n),                        # negative
            rng.integers(0, 6, n) * 1_000_003 - 7,         # sparse
            rng.choice([-2**62, 2**62, 0, -1], n),         # span 2**63
            rng.choice([big.min, big.max, 0], n),          # span 2**64 - 1
            rng.choice([0, n], n),                         # widest table
            rng.choice([0, n + 1, 3], n),                  # squeezed
            rng.integers(0, 3, n) * 6 * n,                 # span >= P * N
        ])
        inst = make_random_instance(rng, n=n, k=2, m=2)
        spec = make_random_spec(rng, inst.k)
        b = compute_benefit_matrix(inst, spec.benefit_epsilon)
        for batch in (rows, rows[2:], rows[4:]):
            scored = objective_batch(inst, spec, b, batch)
            for p, row in enumerate(batch):
                dense = np.unique(row, return_inverse=True)[1].reshape(-1)
                assert compact_assignment(row).team_of.tolist() == \
                    dense.tolist()
                one = objective(inst, spec, Assignment(dense), b=b)
                assert scored.f[p].tobytes() == np.float64(one.f).tobytes()


    @pytest.mark.parametrize("n_rows, n, sparse, bound", [
        # every row draws its labels from across the whole batch's values,
        # so ranking the values alone would leave each row about P * N wide
        # and the presence table P times larger than labels (over 400x)
        (400, 40, True, 32),
        # one GA generation's children at n=100 with 24 teams: scratch that
        # a call frees is faulted in again by the next one, so it stays small
        (199, 100, False, 6),
    ], ids=["sparse", "ga"])
    def test_sparse_rows_keep_memory_linear(self, n_rows, n, sparse, bound):
        rng = np.random.default_rng(17)
        inst = make_random_instance(rng, n=n, k=2, m=2)
        spec = make_random_spec(rng, inst.k)
        b = compute_benefit_matrix(inst, spec.benefit_epsilon)
        if sparse:
            labels = rng.permutation(n_rows * n).reshape(n_rows, n) * 1000
        else:
            labels = rng.integers(0, 24, (n_rows, n))
        tracemalloc.start()
        try:
            objective_batch(inst, spec, b, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * labels.nbytes


    def test_compaction_scratch_is_two_label_sized_arrays(self):
        # one GA generation's children at n=100: only the shifted offsets
        # and the renumbered labels are the batch's size, since every such
        # array freed by one call is faulted in again by the next
        labels = np.random.default_rng(18).integers(0, 24, (199, 100))
        before = labels.copy()
        tracemalloc.start()
        try:
            core._compact_rows(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * labels.nbytes
        assert np.array_equal(labels, before)  # int64 input is not copied

    @pytest.mark.parametrize("labels", [
        np.zeros((2, 11), dtype=np.int64),           # 11 labels for 12
        np.zeros(12, dtype=np.int64),                # 1-d
        np.zeros((2, 12)),                           # float
        [np.zeros(12, np.int64), np.zeros(11, np.int64)],  # ragged
    ], ids=["short", "1-d", "float", "ragged"])
    def test_rejects_labels_that_are_not_an_integer_p_by_n_array(
            self, labels):
        inst = make_random_instance(np.random.default_rng(18), n=12)
        b = compute_benefit_matrix(inst, 0.0)
        with pytest.raises(ValidationError, match="assignment size"):
            objective_batch(inst, TaskSpec(requirements=np.ones(inst.k)), b,
                            labels)

    def test_rejects_zero_rows(self):
        # an integer (0, N) batch used to reach numpy's zero-size reduction
        inst = make_random_instance(np.random.default_rng(19), n=12)
        b = compute_benefit_matrix(inst, 0.0)
        with pytest.raises(ValidationError, match="no assignment"):
            objective_batch(inst, TaskSpec(requirements=np.ones(inst.k)), b,
                            np.zeros((0, 12), dtype=np.int64))


class TestObjectiveInvariants:
    def test_student_permutation_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            inst = make_random_instance(rng)
            spec = make_random_spec(rng, inst.k)
            a = random_partition(rng, inst.n, int(rng.integers(1, inst.n)))
            perm = rng.permutation(inst.n)
            inst2 = make_instance(inst.skills[perm], inst.groups[perm])
            a2 = Assignment(a.team_of[perm])
            got, got2 = objective(inst, spec, a), objective(inst2, spec, a2)
            for field in ("x", "y", "z", "f"):
                assert getattr(got, field) == pytest.approx(
                    getattr(got2, field), abs=1e-9)

    def test_team_relabel_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            inst = make_random_instance(rng)
            spec = make_random_spec(rng, inst.k)
            n_teams = int(rng.integers(1, inst.n))
            a = random_partition(rng, inst.n, n_teams)
            relabel = rng.permutation(n_teams)
            a2 = Assignment(relabel[a.team_of])
            got, got2 = objective(inst, spec, a), objective(inst, spec, a2)
            assert got.f == pytest.approx(got2.f, abs=1e-12)

    def test_deficiency_zero_iff_all_met(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            inst = make_random_instance(rng)
            a = random_partition(rng, inst.n, int(rng.integers(1, inst.n)))
            r = rng.random(inst.k) * 2
            sums = breakdown(inst, a).team_sums
            all_met = bool(np.all(sums >= r))
            assert (deficiency(inst, a, r) == 0.0) == all_met

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            inst = make_random_instance(rng, m=2)
            spec = make_random_spec(rng, inst.k)
            a = random_partition(rng, inst.n, int(rng.integers(1, inst.n)))
            b = compute_benefit_matrix(inst, spec.benefit_epsilon)
            got = objective(inst, spec, a, b=b)
            assert 0.0 <= got.y <= 1.0
            assert 0.0 <= got.z <= 0.25 + 1e-12
            g = got.group_benefits
            assert np.all(g >= 0.0) and np.all(g <= 1.0)


class TestDomainTypes:
    def test_instance_validation(self):
        with pytest.raises(ValidationError):
            make_instance([[0.5]], [0])  # N < 2
        with pytest.raises(ValidationError):
            make_instance([[1.5], [0.2]], [0, 0])  # out of range
        with pytest.raises(ValidationError):
            make_instance([[0.5], [0.2]], [0, 2])  # group 1 empty
        with pytest.raises(ValidationError):
            make_instance([[0.5], [0.2]], [0, 0], student_ids=("a", "a"))

    def test_instance_rejects_nan_skills(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            make_instance([[np.nan], [0.2]], [0, 0])

    def test_instance_defaults(self):
        inst = make_instance([[0.5], [0.2]], [0, 1])
        assert inst.student_ids == ("s1", "s2")
        assert inst.group_labels == ("g1", "g2")
        assert (inst.n, inst.k, inst.m) == (2, 1, 2)

    def test_task_spec_validation(self):
        with pytest.raises(ValidationError):
            TaskSpec(requirements=[])
        with pytest.raises(ValidationError):
            TaskSpec(requirements=[-1.0])
        with pytest.raises(ValidationError):
            TaskSpec(requirements=[1.0], gamma=-0.5)
        spec = TaskSpec(requirements=[1.0, 2.0])
        assert spec.requirements.shape == (2,)

    @pytest.mark.parametrize("kwargs", [
        {"requirements": [1.0, np.nan]},
        {"requirements": [np.inf]},
        {"requirements": [1.0], "benefit_epsilon": np.nan},
        {"requirements": [1.0], "benefit_epsilon": np.inf},
        {"requirements": [1.0], "gamma": np.nan},
        {"requirements": [1.0], "gamma": np.inf},
        {"requirements": [1.0], "delta": np.nan},
        {"requirements": [1.0], "delta": np.inf},
    ])
    def test_task_spec_rejects_non_finite(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            TaskSpec(**kwargs)

    @pytest.mark.parametrize("skills, groups, kwargs, match", [
        ([0.5, 0.2], [0, 0], {}, "2-d"),
        (np.empty((2, 0)), [0, 0], {}, "skill dimension"),
        ([[0.5], [0.2]], [0, 0, 0], {}, "length-N"),
        ([[0.5], [0.2]], [0, -1], {}, "non-negative"),
        ([[0.5], [0.2]], [0, 1], {"group_labels": ["a"]}, "1 group labels"),
        ([[0.5], [0.2]], [0, 1], {"group_labels": ["a", "a"]}, "unique"),
        ([[0.5], [0.2]], [0, 0], {"student_ids": ["a"]}, "one entry"),
    ], ids=["1-d skills", "no skills", "groups length", "negative group",
            "few group labels", "duplicate group labels", "ids length"])
    def test_instance_rejects_malformed_input(self, skills, groups, kwargs,
                                              match):
        with pytest.raises(ValidationError, match=match):
            make_instance(skills, groups, **kwargs)

    def test_assignment_requires_dense_labels(self):
        with pytest.raises(ValidationError):
            Assignment([0, 2, 2])  # team 1 missing
        with pytest.raises(ValidationError):
            Assignment([-1, 0])
        for team_of in ([[0, 1], [1, 0]], []):  # 2-d, empty
            with pytest.raises(ValidationError, match="1-d vector"):
                Assignment(team_of)
        a = Assignment([1, 0, 1])
        assert a.n_teams == 2
        assert a.team_of.tolist() == [1, 0, 1]

    def test_compact_assignment(self):
        a = compact_assignment([7, 3, 7, 9])
        assert a.team_of.tolist() == [1, 0, 1, 2]
