"""Constructive initializer tests: hand traces, invariants, naive oracles."""

import numpy as np
import pytest

import oracle
from fairteams.core import TaskSpec, compute_benefit_matrix, make_instance, objective
from fairteams.errors import ValidationError
from fairteams.initial import gmbf, lmbf, lmbff, random_init
from helpers import make_random_instance


def _two_group_instance(rng, n, k):
    skills = rng.random((n, k))
    groups = np.concatenate([[0, 1], rng.integers(0, 2, n - 2)])
    return make_instance(skills, groups)


class TestGmbf:
    def test_hand_trace_descending_skills(self):
        # Rowsums 0,1,2,3 so fill order is student 3,2,1,0. With r=1.5 the
        # first team closes after students 3,2,1 (sum 2.1); student 0 is left
        # alone in a second, deficient team.
        inst = make_instance(np.array([[0.9], [0.8], [0.7], [0.6]]),
                             np.array([0, 1, 0, 1]))
        spec = TaskSpec(requirements=[1.5])
        b = compute_benefit_matrix(inst, 0.0)
        assignment = gmbf(inst, spec, b)
        assert assignment.team_of.tolist() == [1, 0, 0, 0]

    def test_identical_students_fill_in_index_order(self):
        inst = make_instance(np.full((6, 1), 0.5), np.array([0, 1, 0, 1, 0, 1]))
        spec = TaskSpec(requirements=[1.0])
        b = compute_benefit_matrix(inst, 0.0)
        assignment = gmbf(inst, spec, b)
        assert assignment.team_of.tolist() == [0, 0, 1, 1, 2, 2]

    def test_zero_requirements_give_singletons(self):
        rng = np.random.default_rng(3)
        inst = _two_group_instance(rng, 7, 2)
        spec = TaskSpec(requirements=[0.0, 0.0])
        b = compute_benefit_matrix(inst, 0.0)
        assignment = gmbf(inst, spec, b)
        assert assignment.n_teams == inst.n

    def test_all_teams_but_last_meet_requirements(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            inst = make_random_instance(rng)
            spec = TaskSpec(requirements=rng.random(inst.k) * 2.5)
            b = compute_benefit_matrix(inst, 0.0)
            assignment = gmbf(inst, spec, b)
            sums = objective(inst, spec, assignment, b=b).team_sums
            met = np.all(sums >= spec.requirements - 1e-12, axis=1)
            assert met[:-1].all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            inst = make_random_instance(rng)
            reqs = rng.random(inst.k) * 2.5
            spec = TaskSpec(requirements=reqs)
            b = compute_benefit_matrix(inst, 0.0)
            got = gmbf(inst, spec, b).team_of.tolist()
            assert got == oracle.naive_gmbf(inst.skills, reqs, 0.0)


class TestLmbf:
    def test_hand_trace(self):
        # Rowsum counts students strictly better, so the strongest student
        # (rowsum 0) seeds. Everyone else gains benefit 1.0 against the seed;
        # the index tie-break adds student 1, closing team 0 at 1.7 >= 1.4.
        # Students 2 and 3 repeat the pattern in team 1.
        inst = make_instance(np.array([[0.9], [0.8], [0.7], [0.6]]),
                             np.array([0, 1, 0, 1]))
        spec = TaskSpec(requirements=[1.4])
        b = compute_benefit_matrix(inst, 0.0)
        assignment = lmbf(inst, spec, b)
        assert assignment.team_of.tolist() == [0, 0, 1, 1]

    def test_seed_alone_can_close_team(self):
        # With a requirement below every skill each seed satisfies its team
        # immediately, producing singletons in seeding order (ascending global
        # rowsum): student 0, then 2, then 1.
        inst = make_instance(np.array([[0.9], [0.1], [0.2]]),
                             np.array([0, 1, 1]))
        b = compute_benefit_matrix(inst, 0.0)
        a = lmbf(inst, TaskSpec(requirements=[0.05]), b)
        assert a.team_of.tolist() == [0, 2, 1]
        # Raising the requirement above the best skill forces growth before
        # closure.
        a2 = lmbf(inst, TaskSpec(requirements=[0.95]), b)
        assert a2.team_of.tolist() == [0, 0, 1]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            inst = make_random_instance(rng)
            reqs = rng.random(inst.k) * 2.5
            spec = TaskSpec(requirements=reqs)
            b = compute_benefit_matrix(inst, 0.0)
            got = lmbf(inst, spec, b).team_of.tolist()
            assert got == oracle.naive_lmbf(inst.skills, reqs, 0.0)


class TestLmbff:
    # Frozen instance where the fairness weight changes the outcome. With
    # delta=0 construction is purely benefit-greedy; with delta=5 the second
    # team's first growth pick goes to student 4 (group 0, the group lagging
    # in the placement ledger) instead of the lower-indexed student 3.
    SKILLS = np.array([[0.95], [0.80], [0.75], [0.50], [0.45], [0.40]])
    GROUPS = np.array([1, 0, 1, 1, 0, 1])

    def _run(self, delta):
        inst = make_instance(self.SKILLS, self.GROUPS)
        spec = TaskSpec(requirements=[1.7], gamma=1.0, delta=delta)
        b = compute_benefit_matrix(inst, 0.0)
        return inst, spec, lmbff(inst, spec, b)

    def test_delta_steers_pick_toward_lagging_group(self):
        _, _, greedy = self._run(0.0)
        _, _, fair = self._run(5.0)
        assert greedy.team_of.tolist() == [0, 0, 1, 1, 1, 2]
        assert fair.team_of.tolist() == [0, 1, 0, 1, 1, 1]
        # Both traces match the step-by-step reference.
        for delta, got in ((0.0, greedy), (5.0, fair)):
            want = oracle.naive_lmbff(self.SKILLS, self.GROUPS, [1.7],
                                      1.0, delta, 0.0)
            assert got.team_of.tolist() == want

    def test_fair_run_reduces_group_benefit_variance(self):
        _, _, greedy = self._run(0.0)
        _, _, fair = self._run(5.0)
        _, _, z_greedy, _ = oracle.objective_terms(
            self.SKILLS, self.GROUPS, greedy.team_of, [1.7], 1.0, 0.0, 0.0)
        _, _, z_fair, _ = oracle.objective_terms(
            self.SKILLS, self.GROUPS, fair.team_of, [1.7], 1.0, 5.0, 0.0)
        assert z_fair == pytest.approx(0.015625)
        assert z_greedy == pytest.approx(0.19140625)
        assert z_fair < z_greedy

    def test_zero_delta_equals_lmbf(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            inst = make_random_instance(rng)
            spec = TaskSpec(requirements=rng.random(inst.k) * 2,
                            gamma=float(rng.random() * 2), delta=0.0)
            b = compute_benefit_matrix(inst, 0.0)
            assert np.array_equal(lmbff(inst, spec, b).team_of,
                                  lmbf(inst, spec, b).team_of)

    def test_zero_weights_fill_in_index_order(self):
        # With gamma=delta=0 every candidate scores 0.0, so after the seed the
        # team fills by ascending index regardless of benefit.
        inst = make_instance(np.array([[0.2], [0.9], [0.3], [0.8]]),
                             np.array([0, 1, 0, 1]))
        spec = TaskSpec(requirements=[1.5], gamma=0.0, delta=0.0)
        b = compute_benefit_matrix(inst, 0.0)
        assignment = lmbff(inst, spec, b)
        # Student 0 seeds (lowest rowsum tie at index 0), then 1 joins
        # (0.2 + 0.9 = 1.1 < 1.5), then 2 closes the team at 1.4... still
        # short, so 3 joins too and everyone lands in one team.
        assert assignment.team_of.tolist() == [0, 0, 0, 0]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(4, 14))
            inst = _two_group_instance(rng, n, 1)
            reqs = rng.random(1) * 2.5
            gamma = float(rng.random() * 2)
            delta = float(rng.random() * 3)
            spec = TaskSpec(requirements=reqs, gamma=gamma, delta=delta)
            b = compute_benefit_matrix(inst, 0.0)
            got = lmbff(inst, spec, b).team_of.tolist()
            want = oracle.naive_lmbff(inst.skills, inst.groups, reqs,
                                      gamma, delta, 0.0)
            assert got == want


class TestRandomInit:
    def test_sizes_with_remainder(self):
        assignment = random_init(10, 3, rng=0)
        sizes = sorted(np.bincount(assignment.team_of).tolist())
        assert sizes == [3, 3, 4]

    def test_sizes_exact_division(self):
        assignment = random_init(9, 3, rng=1)
        assert np.bincount(assignment.team_of).tolist() == [3, 3, 3]

    def test_extra_students_go_to_lowest_team_ids(self):
        assignment = random_init(11, 4, rng=2)
        sizes = np.bincount(assignment.team_of)
        assert sizes.tolist() == [3, 3, 3, 2]

    def test_deterministic_per_seed(self):
        a = random_init(20, 4, rng=42).team_of
        b = random_init(20, 4, rng=42).team_of
        c = random_init(20, 4, rng=43).team_of
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_team_counts(self):
        with pytest.raises(ValidationError):
            random_init(3, 4)
        with pytest.raises(ValidationError):
            random_init(3, 0)

    def test_single_team(self):
        assignment = random_init(5, 1, rng=0)
        assert assignment.team_of.tolist() == [0] * 5


class TestSharedInvariants:
    def test_every_student_assigned_no_empty_teams(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            inst = make_random_instance(rng)
            spec = TaskSpec(requirements=rng.random(inst.k) * 2,
                            gamma=1.0, delta=1.0)
            b = compute_benefit_matrix(inst, 0.0)
            for build in (gmbf, lmbf, lmbff):
                assignment = build(inst, spec, b)
                assert assignment.n == inst.n
                assert np.bincount(assignment.team_of).min() >= 1
