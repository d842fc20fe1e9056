"""Refinement tests: gain correctness, cache consistency, climber behavior."""

import contextlib
import hashlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from fairteams.core import (Assignment, TaskSpec, compact_assignment,
                            compute_benefit_matrix, make_instance, objective)
from fairteams.datagen import generate_dataset, preset_config
from fairteams.errors import ValidationError
from fairteams.initial import gmbf, lmbff, random_init
from fairteams import refine
from fairteams.refine import (RefineConfig, SolverState, fmhc, postprocess,
                              sahc)
from helpers import make_random_instance, make_random_spec, random_partition


def _oracle_f(inst, spec, team_of):
    return oracle.objective_terms(inst.skills, inst.groups, team_of,
                                  spec.requirements, spec.gamma, spec.delta,
                                  spec.benefit_epsilon)[3]


def _random_state(rng, n_max=16):
    inst = make_random_instance(rng, n=int(rng.integers(5, n_max)))
    spec = make_random_spec(rng, inst.k)
    b = compute_benefit_matrix(inst, spec.benefit_epsilon)
    n_teams = int(rng.integers(2, max(3, inst.n // 2)))
    assignment = random_partition(rng, inst.n, n_teams)
    state = SolverState.from_assignment([inst], spec, [b], [assignment])
    return inst, spec, b, assignment, state


@contextlib.contextmanager
def _apply_limit(limit=1000):
    """SolverState.apply raises after limit calls, so that a climb that
    would never end fails instead of hanging."""
    original, calls = SolverState.apply, itertools.count(1)

    def guarded(self, *args):
        if next(calls) > limit:
            raise RuntimeError(f"more than {limit} moves applied")
        return original(self, *args)

    with mock.patch.object(SolverState, "apply", guarded):
        yield


class TestGainCorrectness:
    def test_gain_matrix_matches_objective_difference(self):
        rng = np.random.default_rng(20)
        for _ in range(12):
            inst, spec, b, assignment, state = _random_state(rng)
            gains = state.gain_matrix()[0]
            f0 = _oracle_f(inst, spec, assignment.team_of)
            for i in range(inst.n):
                for dest in range(state.n_slots[0]):
                    if not np.isfinite(gains[i, dest]):
                        continue
                    moved = assignment.team_of.copy()
                    moved[i] = dest
                    expected = f0 - _oracle_f(inst, spec, moved)
                    assert gains[i, dest] == pytest.approx(expected, abs=1e-12)

    def test_scalar_gain_matches_matrix(self):
        rng = np.random.default_rng(21)
        inst, spec, b, assignment, state = _random_state(rng)
        gains = state.gain_matrix()[0]
        for i in range(inst.n):
            for dest in range(state.n_slots[0]):
                if np.isfinite(gains[i, dest]):
                    assert state.gain(i, dest) == gains[i, dest]

    def test_antisymmetry_of_reversible_moves(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            inst, spec, b, assignment, state = _random_state(rng)
            sizes = np.bincount(assignment.team_of,
                                minlength=state.n_slots[0])
            for i in range(inst.n):
                src = assignment.team_of[i]
                if sizes[src] < 2:
                    continue  # reverse move would target an emptied slot
                for dest in range(state.n_slots[0]):
                    if dest == src or sizes[dest] == 0:
                        continue
                    forward = state.gain(i, dest)
                    after = state.clone()
                    after.apply(i, dest)
                    assert after.gain(i, src) == pytest.approx(
                        -forward, abs=1e-12)

    def test_emptying_a_team_shrinks_the_normalizer(self):
        # Moving the singleton's member merges the teams; the deficiency
        # average is then taken over one team instead of two.
        inst = make_instance(np.array([[0.4], [0.3], [0.2]]),
                             np.array([0, 1, 0]))
        spec = TaskSpec(requirements=[1.0], gamma=1.0, delta=1.0)
        b = compute_benefit_matrix(inst, 0.0)
        assignment = Assignment(np.array([0, 0, 1]))
        state = SolverState.from_assignment([inst], spec, [b], [assignment])
        gain = state.gain(2, 0)
        merged = np.array([0, 0, 0])
        expected = _oracle_f(inst, spec, assignment.team_of) \
            - _oracle_f(inst, spec, merged)
        assert gain == pytest.approx(expected, abs=1e-12)
        state.apply(2, 0)
        assert state.n_active[0] == 1
        assert state.assignments()[0].team_of.tolist() == [0, 0, 0]

    def test_moves_into_emptied_slots_are_blocked(self):
        inst = make_instance(np.array([[0.4], [0.3], [0.2], [0.1]]),
                             np.array([0, 1, 0, 1]))
        spec = TaskSpec(requirements=[0.5])
        b = compute_benefit_matrix(inst, 0.0)
        state = SolverState.from_assignment(
            [inst], spec, [b], [Assignment(np.array([0, 0, 1, 1]))])
        state.apply(2, 0)
        state.apply(3, 0)  # slot 1 now empty
        gains = state.gain_matrix()[0]
        assert not np.isfinite(gains[:, 1]).any()
        with pytest.raises(ValidationError):
            state.gain(0, 1)

    def test_locked_rows_equal_full_matrix_rows(self):
        # gain_matrix(locked) returns the live rows, in student order, bit
        # for bit as gain_matrix() computes them
        rng = np.random.default_rng(24)
        for _ in range(12):
            inst, spec, b, assignment, state = _random_state(rng)
            for share in (0.0, 0.5, 0.9, 1.0):
                full = state.gain_matrix()[0]
                locked = rng.random(inst.n) < share
                got = state.gain_matrix(locked[None])
                assert got.shape[1:] == (inst.n - locked.sum(),
                                         state.n_slots[0])
                assert got.tobytes() == full[~locked].tobytes()
                finite = np.argwhere(np.isfinite(full))
                if len(finite):
                    i, dest = finite[rng.integers(len(finite))]
                    state.apply(int(i), int(dest))

    def test_self_move_rejected(self):
        rng = np.random.default_rng(23)
        _, _, _, assignment, state = _random_state(rng)
        with pytest.raises(ValidationError):
            state.gain(0, assignment.team_of[0])


class TestMoveCheck:
    """gain and apply reject the same moves, and a rejected apply changes
    nothing."""

    @staticmethod
    def _state():
        # two n=12 rosters of four teams; roster 0's slot 2 is emptied
        rng = np.random.default_rng(30)
        insts = [make_random_instance(rng, n=12, k=2, m=2) for _ in range(2)]
        spec = make_random_spec(rng, 2)
        bs = [compute_benefit_matrix(i, spec.benefit_epsilon) for i in insts]
        start = Assignment([0, 0, 0, 1, 1, 1, 2, 3, 3, 3, 0, 1])
        state = SolverState.from_assignment(insts, spec, bs, [start] * 2)
        state.apply(6, 0)
        return state

    @pytest.mark.parametrize("student, dest, roster", [
        (0, -1, 0), (0, 4, 0), (0, 2, 0), (0, 0, 0),
        (-1, 3, 0), (12, 3, 0), (-1, 3, 1), (0, 1, -1), (0, 1, 2),
    ], ids=["dest -1", "dest n_slots", "emptied slot", "own team",
            "student -1", "student N", "student -1 of roster 1",
            "roster -1", "roster R"])
    def test_gain_and_apply_reject_the_same_moves(self, student, dest,
                                                  roster):
        state = self._state()
        names = ("team_of", "sizes", "active", "n_active", "sums", "defic",
                 "defic_total", "ind", "ind_total", "group_sums")
        before = [getattr(state, name).tobytes() for name in names]
        with pytest.raises(ValidationError):
            state.gain(student, dest, roster)
        with pytest.raises(ValidationError):
            state.apply(student, dest, roster)
        assert [getattr(state, name).tobytes() for name in names] == before

    def test_rejects_an_assignment_of_another_size(self):
        inst = make_random_instance(np.random.default_rng(31), n=12)
        spec = TaskSpec(requirements=np.ones(inst.k))
        b = compute_benefit_matrix(inst, 0.0)
        with pytest.raises(ValidationError, match="assignment size"):
            SolverState([inst], spec, [b], [np.zeros(11, np.int64)], [1])
        with pytest.raises(ValidationError, match="assignment size"):
            SolverState([inst], spec, [b], [np.zeros(12, np.int64)] * 2, [1])

    def test_rejects_a_roster_whose_counts_overflow_int16(self):
        # a team count is at most N, and counts are int16; the check comes
        # before b is read, so none is built here
        n = 1 << 15
        inst = make_instance(np.zeros((n, 1)), np.arange(n) % 2)
        with pytest.raises(ValidationError, match="32768 students is too"):
            SolverState([inst], TaskSpec(requirements=[1.0]), None,
                        [np.zeros(n, np.int64)], [1])


@pytest.mark.parametrize("refiner", [fmhc, sahc, postprocess])
def test_refiners_reject_an_assignment_of_another_size(refiner):
    # 11 labels for 12 students: a validation error, not a numpy one
    inst = make_random_instance(np.random.default_rng(32), n=12)
    spec = TaskSpec(requirements=np.ones(inst.k))
    b = compute_benefit_matrix(inst, 0.0)
    with pytest.raises(ValidationError, match="assignment size"):
        refiner(inst, spec, b, Assignment(np.arange(11) % 3))


@pytest.mark.parametrize("values", [[2.0], [2.0, 2.0, 2.0]],
                         ids=["1 value", "3 values"])
@pytest.mark.parametrize("entry", [
    lambda inst, spec, b: objective(inst, spec, Assignment(np.arange(12) % 3),
                                    b),
    lambda inst, spec, b: fmhc(inst, spec, b, Assignment(np.arange(12) % 3)),
    gmbf, lmbff], ids=["objective", "fmhc", "gmbf", "lmbff"])
def test_entry_points_reject_a_spec_of_another_skill_count(entry, values):
    # on a 2-skill roster, 1 value used to broadcast over both skills and 3
    # values to fail in numpy broadcasting
    inst = make_random_instance(np.random.default_rng(34), n=12, k=2)
    b = compute_benefit_matrix(inst, 0.0)
    with pytest.raises(ValidationError, match="expected 2 requirement"):
        entry(inst, TaskSpec(requirements=values), b)


@pytest.mark.parametrize("as_floats", [False, True], ids=["arrays", "floats"])
def test_pairwise_sum_matches_numpy_on_long_inputs(as_floats):
    # 16 or more terms take the 8-accumulator loop, more than 128 the split
    rng = np.random.default_rng(33)
    values = rng.random((300, 5)) * 10.0 ** rng.integers(-8, 8, (300, 1))
    for count in range(1, 301):
        terms = list(values[:count])
        if as_floats:
            terms = [float(t[0]) for t in terms]
        want = np.stack(terms, -1).sum(-1)
        got = refine._pairwise_sum(terms)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), count


class TestSolverState:
    def test_incremental_apply_matches_fresh_rebuild(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            inst, spec, b, assignment, state = _random_state(rng)
            for _ in range(6):
                gains = state.gain_matrix()[0]
                finite = np.argwhere(np.isfinite(gains))
                if len(finite) == 0:
                    break
                i, dest = finite[rng.integers(len(finite))]
                state.apply(int(i), int(dest))
            fresh = SolverState.from_assignment(
                [inst], spec, [b], state.assignments())
            got, want = state.objective(), fresh.objective()
            assert got.f[0] == pytest.approx(want.f[0], abs=1e-12)
            assert got.x[0] == pytest.approx(want.x[0], abs=1e-12)

    def test_objective_matches_core(self):
        rng = np.random.default_rng(26)
        inst, spec, b, assignment, state = _random_state(rng)
        want = objective(inst, spec, assignment, b)
        got = state.objective()
        assert (got.x[0], got.y[0], got.z[0], got.f[0]) == pytest.approx(
            (want.x, want.y, want.z, want.f), abs=1e-12)

    @pytest.mark.parametrize("n, teams", [(30, (3, 7, 12)), (300, (2, 3, 5))],
                             ids=["padded slots", "counts past 127"])
    def test_build_counts_equal_benefit_times_membership(self, n, teams):
        # the counting build against b @ one-hot, on three rosters whose
        # slot counts differ, so two have padded slots; b is int8, and
        # teams of 60 or more hold counts it cannot
        rng = np.random.default_rng(28)
        insts = [make_random_instance(rng, n=n, k=2, m=3) for _ in teams]
        bs = [compute_benefit_matrix(inst, 0.0) for inst in insts]
        starts = [random_partition(rng, n, count) for count in teams]
        state = SolverState.from_assignment(
            insts, TaskSpec(requirements=[2.0, 2.0]), bs, starts)
        slots = state.sizes.shape[1]
        for r, (inst, b, start) in enumerate(zip(insts, bs, starts)):
            one_hot = np.eye(slots)[start.team_of]  # (N, slots)
            rows = slice(n * r, n * r + n)
            assert np.array_equal(state.benefit_vs_team[rows], b @ one_hot)
            for q in range(3):
                in_q = one_hot * (inst.groups == q)[:, None]
                assert np.array_equal(state.benefit_to_team[q, rows],
                                      b.T @ in_q)
        assert (state.benefit_vs_team.max() > 127) == (n > 127)

    def test_clone_is_independent(self):
        rng = np.random.default_rng(27)
        inst, spec, b, assignment, state = _random_state(rng)
        before = state.objective().f[0]
        clone = state.clone()
        gains = clone.gain_matrix()[0]
        i, dest = np.argwhere(np.isfinite(gains))[0]
        clone.apply(int(i), int(dest))
        assert state.objective().f[0] == pytest.approx(before, abs=0.0)
        assert np.array_equal(state.team_of[0], assignment.team_of)


CELL_CACHES = ("_group_delta", "_def_dest_new")
ROW_CACHES = ("_src_delta", "_def_src_new")
TEAM_CACHES = ("sizes", "active", "sums", "defic", "benefit_vs_team",
               "benefit_to_team", "ind", "group_sums", "own_by_group")
EXACT_CACHES = ("_group_delta", "_src_delta", "sizes", "active",
                "benefit_vs_team", "benefit_to_team", "ind", "own_by_group")
# the axes of each cache and of n_active: "R" rosters, "N" the flat (roster,
# student) axis, "S" the flat (roster, slot) axis, "s" one roster's slots
LAYOUTS = {"_group_delta": ".Ns", "_def_dest_new": "Ns", "_src_delta": ".N",
           "_def_src_new": "N", "sizes": "Rs", "active": "Rs", "sums": ".S",
           "defic": "Rs", "benefit_vs_team": "Ns", "benefit_to_team": ".Ns",
           "ind": "N", "group_sums": "R.", "own_by_group": ".S",
           "n_active": "R"}


def _roster_part(state, name, roster):
    """A cache's part for one roster: its rows and its first n_slots slots."""
    value, r, width = (getattr(state, name), len(state.instances),
                       state.n_slots[roster])
    shape, index = [], []
    for axis, size in zip(LAYOUTS[name], value.shape):
        if axis in "NS":
            shape += [r, size // r]
            index.append(roster)
        else:
            shape.append(size)
        index.append({"R": roster, ".": slice(None), "N": slice(None)}.get(
            axis, slice(width)))
    return value.reshape(shape)[tuple(index)]


def _full_gains(state, locked):
    """gain_matrix(locked) spread over all N rows, -inf on locked ones."""
    if locked is None:
        return state.gain_matrix()[0]
    full = np.full((state.n, state.n_slots[0]), -np.inf)
    full[~locked] = state.gain_matrix(locked[None]).reshape(-1, full.shape[1])
    return full


def _check_against_fresh(state, locked):
    """Every cache, and the gains, equal a state rebuilt from team_of.
    Returns the (N, slots) gains, -inf on locked rows."""
    gains = _full_gains(state, locked)  # a read runs the pending refresh
    fresh = SolverState(state.instances, state.spec, state.b, state.team_of,
                        state.n_slots)
    for name in CELL_CACHES + ROW_CACHES + TEAM_CACHES:
        np.testing.assert_allclose(getattr(state, name), getattr(fresh, name),
                                   rtol=0, atol=1e-12, err_msg=name)
    assert np.array_equal(state.n_active, fresh.n_active)
    want = _full_gains(fresh, locked)
    assert np.array_equal(np.isfinite(gains), np.isfinite(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(gains[finite], want[finite], rtol=0, atol=1e-9)
    assert not np.isnan(gains).any()
    for i, dest in np.argwhere(finite):
        assert state.gain(int(i), int(dest)) == pytest.approx(
            gains[i, dest], abs=1e-9)
    return gains


def _fresh_state(skills, groups, team_of, reqs, epsilon):
    inst = make_instance(np.array(skills, dtype=float), groups)
    spec = TaskSpec(requirements=reqs, gamma=1.0, delta=3.0,
                    benefit_epsilon=epsilon)
    b = compute_benefit_matrix(inst, epsilon)
    return SolverState.from_assignment([inst], spec, [b],
                                       [Assignment(team_of)])


@st.composite
def _move_sequences(draw, n_max=9):
    n = draw(st.integers(2, n_max))
    k = draw(st.sampled_from([1, 2, 3, 17]))  # 17: _pairwise_sum's loops
    m = draw(st.integers(1, min(3, n)))
    levels = st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.7, 1.0])
    row = st.lists(levels | st.floats(0.0, 1.0), min_size=k, max_size=k)
    if draw(st.booleans()):
        skills = [draw(row)] * n  # identical students
    else:
        skills = draw(st.lists(row, min_size=n, max_size=n))
    groups = list(range(m)) + draw(
        st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    n_teams = draw(st.integers(1, n))
    team_of = list(range(n_teams)) + draw(st.lists(
        st.integers(0, n_teams - 1), min_size=n - n_teams,
        max_size=n - n_teams))
    reqs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                         min_size=k, max_size=k))
    epsilon = draw(st.sampled_from([0.0, 0.1, 1.0, 2.0]))
    picks = draw(st.lists(st.tuples(st.integers(0, 10_000), st.booleans()),
                          max_size=12))
    return skills, groups, team_of, reqs, epsilon, picks


class TestCacheConsistency:
    """Incremental caches after apply() equal a fresh rebuild; the gain
    matrix equals the fresh one and the scalar gain() in every cell."""

    @settings(max_examples=150, deadline=None)
    @given(_move_sequences())
    def test_random_move_sequences(self, case):
        *shape, picks = case
        state = _fresh_state(*shape)
        locked = np.zeros(state.n, dtype=bool)
        _check_against_fresh(state, None)
        for pick, lock in picks:
            gains = _check_against_fresh(state, locked)
            moves = np.argwhere(np.isfinite(gains))
            if len(moves) == 0:
                break
            i, dest = moves[pick % len(moves)]
            state.apply(int(i), int(dest))
            locked[i] = lock
            _check_against_fresh(state, None)

    @settings(max_examples=150, deadline=None)
    @given(_move_sequences(), st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
        min_size=1, max_size=30))
    def test_unread_moves_refresh_once_on_the_next_read(self, case, moves):
        # applies with no read in between leave one refresh over the union
        # of their rows and columns; it must give the bits that a read
        # after every apply gives
        *shape, _ = case
        state, eager = _fresh_state(*shape), _fresh_state(*shape)
        for pick, dest_pick in moves:
            student = pick % state.n
            dests = np.flatnonzero(state.active[0])
            dests = dests[dests != state.team_of[0, student]]
            if dests.size == 0:
                break
            dest = int(dests[dest_pick % dests.size])
            state.apply(student, dest)
            eager.apply(student, dest)
            eager.gain_matrix()
        gains = _check_against_fresh(state, None)
        assert gains.tobytes() == eager.gain_matrix()[0].tobytes()
        for name in CELL_CACHES + ROW_CACHES + TEAM_CACHES + (
                "defic_total", "ind_total"):
            assert getattr(state, name).tobytes() == \
                getattr(eager, name).tobytes(), name
        # these depend only on integer counts, so they match a fresh build
        # bit for bit; float sums carry the order of their updates
        fresh = SolverState(state.instances, state.spec, state.b,
                            state.team_of, state.n_slots)
        for name in EXACT_CACHES:
            assert getattr(state, name).tobytes() == \
                getattr(fresh, name).tobytes(), name

    @pytest.mark.parametrize("skills, groups, team_of, reqs, epsilon", [
        # N = 2, one group, one skill
        ([[0.3], [0.9]], [0, 0], [0, 1], [1.0], 0.0),
        # m = 1, k = 1, teams of size 1 and 2
        ([[0.1], [0.5], [0.9]], [0, 0, 0], [0, 1, 1], [0.8], 0.0),
        # identical skills: nobody benefits from anyone
        ([[0.4, 0.6]] * 5, [0, 1, 0, 1, 0], [0, 0, 1, 1, 2], [1.0, 1.0],
         0.0),
        # epsilon >= 1, so b = 0 however far apart the skills are
        ([[0.0], [1.0], [0.5], [0.2]], [0, 1, 1, 0], [0, 0, 1, 1], [2.0],
         1.0),
        # singletons only, three groups
        ([[0.1, 0.9], [0.8, 0.2], [0.5, 0.5], [0.3, 0.3]], [0, 1, 2, 0],
         [0, 1, 2, 3], [0.5, 0.5], 0.0),
    ])
    def test_degenerate_shapes_drained_to_one_team(self, skills, groups,
                                                   team_of, reqs, epsilon):
        # move members of the highest slot into the lowest until one is left
        state = _fresh_state(skills, groups, team_of, reqs, epsilon)
        while state.n_active[0] > 1:
            _check_against_fresh(state, None)
            slots = np.flatnonzero(state.active[0])
            student = np.flatnonzero(state.team_of[0] == slots[-1])[0]
            state.apply(int(student), int(slots[0]))
        gains = _check_against_fresh(state, None)
        assert state.n_active[0] == 1 and not np.isfinite(gains).any()


# Frozen search result: this start state has exactly one strictly improving
# single move (student 0 into team 0).
UNIQUE_SKILLS = np.array([[0.33], [0.15], [0.63], [0.15], [0.89], [0.15]])
UNIQUE_GROUPS = np.array([0, 1, 0, 1, 0, 0])
UNIQUE_START = np.array([1, 0, 0, 0, 1, 1])

# Frozen search result: no single move improves this start state, but a
# two-move tentative sequence does, so only the pass-based climber escapes.
ESCAPE_SKILLS = np.array([[0.67], [0.53], [0.73], [1.0], [0.42], [0.52]])
ESCAPE_GROUPS = np.array([0, 1, 0, 0, 0, 0])
ESCAPE_START = np.array([1, 1, 1, 1, 0, 0])
ESCAPE_REQS = [0.89]


class TestSahc:
    def test_applies_the_unique_improving_move(self):
        inst = make_instance(UNIQUE_SKILLS, UNIQUE_GROUPS)
        spec = TaskSpec(requirements=[1.33], gamma=1.0, delta=1.0)
        b = compute_benefit_matrix(inst, 0.0)
        state = SolverState.from_assignment([inst], spec, [b],
                                            [Assignment(UNIQUE_START)])
        gains = state.gain_matrix()[0]
        positive = np.argwhere(gains > 1e-12)
        assert positive.tolist() == [[0, 0]]
        result = sahc(inst, spec, b, Assignment(UNIQUE_START))
        expected = UNIQUE_START.copy()
        expected[0] = 0
        assert result.team_of.tolist() == \
            Assignment(expected).team_of.tolist()

    def test_never_increases_objective(self):
        rng = np.random.default_rng(28)
        for _ in range(15):
            inst, spec, b, assignment, _ = _random_state(rng)
            refined = sahc(inst, spec, b, assignment)
            f_in = _oracle_f(inst, spec, assignment.team_of)
            f_out = _oracle_f(inst, spec, refined.team_of)
            assert f_out <= f_in + 1e-12

    def test_output_is_single_move_optimal(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            inst = make_random_instance(rng, n=int(rng.integers(5, 13)))
            spec = make_random_spec(rng, inst.k)
            b = compute_benefit_matrix(inst, spec.benefit_epsilon)
            start = random_partition(rng, inst.n, int(rng.integers(2, 4)))
            refined = sahc(inst, spec, b, start)
            team_of = refined.team_of
            f_out = _oracle_f(inst, spec, team_of)
            labels = np.unique(team_of)
            for i in range(inst.n):
                for dest in labels:
                    if dest == team_of[i]:
                        continue
                    moved = team_of.copy()
                    moved[i] = dest
                    assert _oracle_f(inst, spec, moved) >= f_out - 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(30)
        inst, spec, b, assignment, _ = _random_state(rng)
        once = sahc(inst, spec, b, assignment)
        twice = sahc(inst, spec, b, once)
        assert np.array_equal(once.team_of, twice.team_of)

    @pytest.mark.parametrize("skills, groups, start, reqs, gamma, expected", [
        # requirements and gamma of 1e-300: the gains are rounding relative
        # to delta; the driver refuses both proposals, the merges do the rest
        ([[.25, .25, .25], [.5, .5, .25], [.25, .25, .5], [.25, .25, .5],
          [.25, .5, .5], [1, 0, 0]], [0, 1, 0, 1, 0, 0], [0, 1, 2, 3, 4, 5],
         [1e-300] * 3, 1e-300, [0, 0, 0, 1, 1, 1]),
        # ordinary knobs: student 3 would go back and forth between two
        # teams, each way a gain of 2.2e-16 while f does not change
        ([[1], [.75], [.75], [0], [.5]], [1, 0, 0, 2, 0], [2, 2, 1, 0, 0],
         [2.7915758], 2.0, [1, 1, 0, 0, 0]),
    ], ids=["tiny-knobs", "ordinary-knobs"])
    def test_rounding_in_the_gains_cannot_keep_a_climb_going(
            self, skills, groups, start, reqs, gamma, expected):
        # a cycle of moves that each read as a gain would never end
        inst = make_instance(np.array(skills, dtype=float), np.array(groups))
        spec = TaskSpec(requirements=reqs, gamma=gamma, delta=1.0)
        b = compute_benefit_matrix(inst, 0.0)
        with _apply_limit():
            result = sahc(inst, spec, b, Assignment(np.array(start)))
        assert result.team_of.tolist() == expected


class TestFmhc:
    def _escape_setup(self):
        inst = make_instance(ESCAPE_SKILLS, ESCAPE_GROUPS)
        spec = TaskSpec(requirements=ESCAPE_REQS, gamma=1.0, delta=1.0)
        b = compute_benefit_matrix(inst, 0.0)
        return inst, spec, b

    def test_escapes_a_single_move_optimum(self):
        inst, spec, b = self._escape_setup()
        start = Assignment(ESCAPE_START)
        f0 = _oracle_f(inst, spec, start.team_of)
        # Exhaustive check: the start really is single-move optimal.
        for i in range(inst.n):
            for dest in np.unique(start.team_of):
                if dest == start.team_of[i]:
                    continue
                moved = start.team_of.copy()
                moved[i] = dest
                assert _oracle_f(inst, spec, moved) >= f0 - 1e-12
        stuck = sahc(inst, spec, b, start)
        assert np.array_equal(stuck.team_of, start.team_of)
        f_sahc = _oracle_f(inst, spec, stuck.team_of)
        escaped = fmhc(inst, spec, b, start)
        f_fmhc = _oracle_f(inst, spec, escaped.team_of)
        assert f_fmhc < f_sahc - 1e-6

    def test_never_increases_objective(self):
        rng = np.random.default_rng(33)
        for _ in range(12):
            inst, spec, b, assignment, _ = _random_state(rng)
            refined = fmhc(inst, spec, b, assignment)
            assert _oracle_f(inst, spec, refined.team_of) \
                <= _oracle_f(inst, spec, assignment.team_of) + 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(34)
        inst, spec, b, assignment, _ = _random_state(rng)
        once = fmhc(inst, spec, b, assignment)
        twice = fmhc(inst, spec, b, once)
        assert np.array_equal(once.team_of, twice.team_of)

    def test_huge_commit_threshold_blocks_all_passes(self):
        inst, spec, b = self._escape_setup()
        start = Assignment(ESCAPE_START)
        frozen = fmhc(inst, spec, b, start,
                      config=RefineConfig(gain_epsilon=1e9))
        assert np.array_equal(frozen.team_of, start.team_of)

    def test_rounding_in_the_gains_cannot_keep_a_climb_going(self):
        # at gamma = 1e154 the gains carry rounding far above gain_epsilon:
        # a pass that only swaps two teams' labels reads as a gain, and a
        # climb that committed it would swap them back and forth for ever
        inst = make_instance(np.array([[0.0, 0.0]] * 3 + [[0.0, 0.25],
                                                          [0.0, 0.5]]),
                             np.zeros(5, dtype=int))
        spec = TaskSpec(requirements=[0.0, 0.0], gamma=1e154, delta=0.0)
        b = compute_benefit_matrix(inst, 0.0)
        start = Assignment(np.arange(5))
        with _apply_limit():
            result = fmhc(inst, spec, b, start)
        assert objective(inst, spec, result, b).f \
            < objective(inst, spec, start, b).f

    def test_at_least_matches_sahc_from_greedy_starts(self):
        config = preset_config("d3", 60)
        spec = TaskSpec(requirements=[2.0, 2.0], gamma=1.0, delta=1.0)
        diffs = []
        for seed in range(10):
            inst = generate_dataset(config, seed=seed)
            b = compute_benefit_matrix(inst, 0.0)
            start = gmbf(inst, spec, b)
            f_s = _oracle_f(inst, spec, sahc(inst, spec, b, start).team_of)
            f_f = _oracle_f(inst, spec, fmhc(inst, spec, b, start).team_of)
            diffs.append(f_f - f_s)
        assert np.median(diffs) <= 1e-9

    def test_peak_memory_stays_near_one_state(self):
        # a pass holds the live state and one tentative clone; refreshes and
        # gain evaluations add temporaries of a few cache-sized arrays, and
        # the refresh a replayed prefix queues runs after that pass's
        # tentative clone is gone
        inst = generate_dataset(preset_config("d3", 200), seed=0)
        spec = TaskSpec(requirements=[2.0, 2.0])
        b = compute_benefit_matrix(inst, 0.0)
        start = gmbf(inst, spec, b)
        state = SolverState.from_assignment([inst], spec, [b], [start])
        state_bytes = sum(value.nbytes for value in vars(state).values()
                          if isinstance(value, np.ndarray))
        del state
        tracemalloc.start()
        try:
            fmhc(inst, spec, b, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * state_bytes, peak / state_bytes

    def test_counts_passes(self):
        rng = np.random.default_rng(35)
        inst, spec, b, assignment, _ = _random_state(rng)
        stats = {}
        fmhc(inst, spec, b, assignment, stats=stats)
        assert stats["passes"] >= 1


class TestLockstep:
    """fmhc over several rosters climbs them in lockstep rounds; each roster
    gets the bits of its own solve."""

    # requirements one student can meet, with gamma = 0, leave singletons
    # for the merges
    @pytest.mark.parametrize("spec, merged", [
        (TaskSpec(requirements=[0.45, 0.35], gamma=0.0, delta=0.01), True),
        (TaskSpec(requirements=[2.7, 1.9]), False)])
    # one block of all five rosters (128 KiB holds them), and blocks of one
    @pytest.mark.parametrize("budget", [1 << 17, 1])
    def test_batch_equals_each_single_solve(self, monkeypatch, spec, merged,
                                            budget):
        # continuous skills, so that every sum's order shows in its bits;
        # gmbf starts and random ones, with different slot counts
        rosters = []
        for seed, teams in enumerate((None, None, 9, 33, 5)):
            inst = make_random_instance(np.random.default_rng(seed), n=40,
                                        k=2, m=2)
            b = compute_benefit_matrix(inst, 0.0)
            rosters.append((inst, b, gmbf(inst, spec, b) if teams is None
                            else random_init(inst.n, teams, rng=seed)))
        assert len({start.n_teams for _, _, start in rosters}) >= 4
        merges, original = [], refine._merge_singletons

        def spy(state, merging):
            changed = original(state, merging)
            merges[-1] |= bool(changed.any())
            return changed

        monkeypatch.setattr(refine, "_merge_singletons", spy)
        singles, passes = [], []
        for inst, b, start in rosters:
            stats = {}
            merges.append(False)
            singles.append(fmhc(inst, spec, b, start, stats=stats))
            passes.append(stats["passes"])
        # some solve's merges moved a student, and the solves stop climbing
        # in different rounds
        assert any(merges) == merged and len(set(passes)) > 1
        slots = max(start.n_teams for _, _, start in rosters)
        assert budget == 1 or budget // (8 * 2 * 40 * slots) >= len(rosters)
        stats = {}
        monkeypatch.setattr(refine, "_BATCH_BYTES", budget)
        batch = fmhc([inst for inst, _, _ in rosters], spec,
                     [b for _, b, _ in rosters],
                     [start for _, _, start in rosters], stats=stats)
        assert [a.team_of.tobytes() for a in batch] == \
            [a.team_of.tobytes() for a in singles]
        assert stats["passes"] == sum(passes)

    def test_batched_state_keeps_each_rosters_bits(self):
        # the same random moves on one state of six rosters and on six
        # states of one roster each; every read gives the same bits
        spec = TaskSpec(requirements=[2.7, 1.9], gamma=1.0, delta=3.0)
        rng = np.random.default_rng(3)
        rosters = [make_random_instance(rng, n=24, k=2, m=3)
                   for _ in range(6)]
        bs = [compute_benefit_matrix(inst, 0.0) for inst in rosters]
        starts = [random_partition(rng, 24, teams)
                  for teams in (4, 7, 10, 13, 17, 22)]
        batch = SolverState.from_assignment(rosters, spec, bs, starts)
        singles = [SolverState.from_assignment([inst], spec, [b], [start])
                   for inst, b, start in zip(rosters, bs, starts)]

        def check_caches():
            for r, single in enumerate(singles):
                for name in (CELL_CACHES + ROW_CACHES + TEAM_CACHES
                             + ("n_active",)):
                    mine, want = (_roster_part(batch, name, r),
                                  _roster_part(single, name, 0))
                    assert mine.shape == want.shape, name
                    assert mine.tobytes() == want.tobytes(), name

        check_caches()
        for step in range(24):
            moves = []  # (roster, student, dest), at most one per roster
            for r, single in enumerate(singles):
                student = int(rng.integers(24))
                dests = np.flatnonzero(single.active[0])
                dests = dests[dests != single.team_of[0, student]]
                if dests.size:
                    moves.append((r, student, int(rng.choice(dests))))
                    single.apply(*moves[-1][1:])
            for r, student, dest in moves:
                batch.apply(student, dest, r)
            if step % 3 == 2:
                continue  # two applies queue one refresh over their union
            gains = batch.gain_matrix()
            for r, single in enumerate(singles):
                width = single.sizes.shape[1]
                assert gains[r, :, :width].tobytes() == \
                    single.gain_matrix()[0].tobytes()
                assert not np.isfinite(gains[r, :, width:]).any()
                for name in ("defic_total", "ind_total"):
                    assert getattr(batch, name)[r].tobytes() == \
                        getattr(single, name)[0].tobytes(), name
            check_caches()
        assert [a.team_of.tolist() for a in batch.assignments()] == \
            [single.assignments()[0].team_of.tolist() for single in singles]

    @pytest.mark.parametrize("budget", [refine._BATCH_BYTES, 1])
    def test_teams_of_16_or_more_keep_each_rosters_bits(self, monkeypatch,
                                                       budget):
        # a team sum of 16 or more terms runs numpy's 8-way pairwise unroll
        # at least twice
        spec = TaskSpec(requirements=[2.7, 1.9], delta=3.0)
        rosters = []
        for seed in range(4):
            inst = make_random_instance(np.random.default_rng(40 + seed),
                                        n=60, k=2, m=3)
            start = random_init(inst.n, 3, rng=seed)
            assert np.bincount(start.team_of).min() >= 16
            rosters.append((inst, compute_benefit_matrix(inst, 0.0), start))
        singles = [fmhc(inst, spec, b, start) for inst, b, start in rosters]
        assert any((single.team_of != start.team_of).any()
                   for single, (_, _, start) in zip(singles, rosters))
        monkeypatch.setattr(refine, "_BATCH_BYTES", budget)
        insts, bs, starts = (list(part) for part in zip(*rosters))
        batch = fmhc(insts, spec, bs, starts)
        assert [a.team_of.tobytes() for a in batch] == \
            [a.team_of.tobytes() for a in singles]

    def test_rosters_of_different_sizes_are_rejected(self):
        spec = TaskSpec(requirements=[2.0, 2.0])
        insts = [generate_dataset(preset_config("d2", n), seed=0)
                 for n in (20, 30)]
        bs = [compute_benefit_matrix(inst, 0.0) for inst in insts]
        with pytest.raises(ValidationError):
            fmhc(insts, spec, bs, [gmbf(i, spec, b)
                                   for i, b in zip(insts, bs)])


class TestPostprocess:
    def test_singleton_absorbed(self):
        inst = make_instance(np.array([[0.5], [0.4], [0.3]]),
                             np.array([0, 1, 0]))
        spec = TaskSpec(requirements=[0.8])
        b = compute_benefit_matrix(inst, 0.0)
        merged = postprocess(inst, spec, b, Assignment(np.array([0, 0, 1])))
        assert merged.n_teams == 1

    def test_no_singletons_remain(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            inst = make_random_instance(rng, n=int(rng.integers(5, 14)))
            spec = make_random_spec(rng, inst.k)
            b = compute_benefit_matrix(inst, spec.benefit_epsilon)
            start = random_partition(rng, inst.n, int(rng.integers(2, 6)))
            merged = postprocess(inst, spec, b, start)
            assert np.bincount(merged.team_of).min() >= 2 \
                or merged.n_teams == 1

    def test_no_singleton_input_is_untouched(self):
        inst = make_instance(np.array([[0.5], [0.4], [0.3], [0.2]]),
                             np.array([0, 1, 0, 1]))
        spec = TaskSpec(requirements=[0.6])
        b = compute_benefit_matrix(inst, 0.0)
        out = postprocess(inst, spec, b, Assignment(np.array([0, 0, 1, 1])))
        assert out.team_of.tolist() == [0, 0, 1, 1]


_EXTREMES = st.sampled_from([0.0, 1e-300, 1e154, 1e300])


@settings(max_examples=300, deadline=None)
@given(_move_sequences(n_max=8), st.lists(_EXTREMES, min_size=17,
                                         max_size=17),
       _EXTREMES, _EXTREMES, st.sampled_from(["sahc", "fmhc", "postprocess"]))
def test_every_climb_ends_in_a_singleton_free_partition(
        case, reqs, gamma, delta, method):
    skills, groups, team_of, _, epsilon, _ = case
    inst = make_instance(np.array(skills), groups)
    spec = TaskSpec(requirements=reqs[:inst.k], gamma=gamma, delta=delta,
                    benefit_epsilon=epsilon)
    b = compute_benefit_matrix(inst, epsilon)
    refiner = {"sahc": sahc, "fmhc": fmhc, "postprocess": postprocess}[method]
    with _apply_limit(), np.errstate(all="ignore"):
        result = refiner(inst, spec, b, Assignment(team_of))
    assert result.n == inst.n  # Assignment checks dense, non-empty teams
    sizes = np.bincount(result.team_of)
    assert sizes.size == 1 or sizes.min() >= 2


class TestRefineConfig:
    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValidationError):
            RefineConfig(gain_epsilon=-1e-6)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_epsilon(self, value):
        with pytest.raises(ValidationError):
            RefineConfig(gain_epsilon=value)

    def test_defaults(self):
        config = RefineConfig()
        assert config.gain_epsilon == pytest.approx(1e-4)


# sha256 of the little-endian int64 team_of that each refiner returns from a
# gmbf start, recorded before the gain engine was made incremental. Any change
# to the gain arithmetic that flips a move choice changes one of these.
# Columns: refiner, preset, n, dataset seed, delta (requirements 2,2; gamma 1).
GOLDEN_ASSIGNMENTS = """
fmhc d1  60 0   1 346678fd8e103851ac5dc539cff7a5233f29e82f7218caf6795115f77c18194f
fmhc d1  60 0 100 c09754beca983b9e218597c39b67561c18f19723b08dd3c8b20605ef50ab105e
fmhc d1  60 1   1 7f61d4cf5e7073376646f64dbdc7677956873d79f10f9a2ac2eff59a94e3cffc
fmhc d1  60 1 100 03118269f729bd8505241f91ea853a6452d44ac5f0f058dafb7f398aee4c8900
fmhc d1 100 0   1 56878642c5519c8b260ee332c1a86f7ff8d2330eff7aa075052f461a85fdf78e
fmhc d1 100 0 100 5bd0356faa14bbffd704d535f5094afcee19e3526191bf8ad13bbbcafc0cd78a
fmhc d1 100 1   1 44a383732a0b93506374e2b3e9ecf3abee72916d18451531835b8848e3ee03e8
fmhc d1 100 1 100 591c7464433e417e16c64bf3e7adba438a036fd96891ae837358f77511f1cf6a
fmhc d2  60 0   1 04d6c7b6927577ce7c349749c4e31ef4da883f3b7825290054745628e830a338
fmhc d2  60 0 100 617f85b00d3a282b315ad3e87308043bfd848e100d8dc640b989f95ec4286bd8
fmhc d2  60 1   1 a28787814672eb2b188516e17f0563f866b303eef891528d66539b5bee4a89f5
fmhc d2  60 1 100 98e2e9aaef5d710482f8fe3252f3e75ab37a8011cfb4a00b5029ab09dfddf8ff
fmhc d2 100 0   1 e4700afd9135ef07d6d29ac1e64d7897643abd1dcc6c6a8afb720f1d21e78247
fmhc d2 100 0 100 30255778541411ed95fcbeebf34d0a85d85c46211747cb993a08554c45f97589
fmhc d2 100 1   1 b3d9db9f63bc9785613a62dba842fb0b0b72a9005aad1028f76d4175c46768fe
fmhc d2 100 1 100 7ab81345a0ca5a2842b42e8639860e27719b3e9f7337a66719105ca6047d9b40
fmhc d3  60 0   1 56841b2a7d7e8f57f569d08b0cf3aa46010cd37c063c0b13f940f5c894db7103
fmhc d3  60 0 100 9c6ee2ecd4d6cebe413b8434a8837a97434a1027c0119ba24ac7d04a9f962a7b
fmhc d3  60 1   1 15039c6e52620e938e9a6c50da57ad5df9b53381c9e0660f3ce8b5cc5d89f6aa
fmhc d3  60 1 100 8f8c86d6816989886be1f19b3ad9097e269c1dfd6d201c3e89592a86438f97b9
fmhc d3 100 0   1 442d709ea09e648064a97b044d1b2e8810e07cc1618d5fb5a661d5d7f47ad0b5
fmhc d3 100 0 100 795c47dbe1db8c8e4ede91fcfcbcafd422386ccad819e66154ddbec8bb90b992
fmhc d3 100 1   1 d2ae09e4761b4b2c83d28bb129700eb61d07b26bdc99028259307a403597577b
fmhc d3 100 1 100 5aa7ea4f6378fde39e21e60155b08dbbabcfafeaddcb06a6b173b826e9f5912f
sahc d1  60 0   1 40aab09789d1fb81b6ea689784dc4dc033d9024360e95effced19e71d6c83c3e
sahc d1  60 0 100 1aaa09b3546b3a6604f5b6334ebe30799adc8b8a9fa39d859dbf3a8b384ebb4e
sahc d1  60 1   1 c5279a42af1c45ce80c17323a73b5df06abcffc5be0a7e7f698ce6dd8c6ce646
sahc d1  60 1 100 75f8e9b1e44e49fab91fff2c8d249112a6ebe95f3ef0f59913a321e95b551215
sahc d1 100 0   1 cd0e256d799208269ef02df978dcb3863469fbced535970d012125ae9e33166c
sahc d1 100 0 100 70fe14c9b3ea1b3fe5ec7207c33980f037f5e5511b384d2244ca8e90fecb111f
sahc d1 100 1   1 822584fe46915f02527ee02f2a11ec0c6bd7a60267500dfd166207e34d3ce0f3
sahc d1 100 1 100 145899e26d98b72eaf9b3daae264f9e19d534b96abbfc0c8c8a0ebdd572a119e
sahc d2  60 0   1 87b5b24e8b04fc7324f7aacff3f3eb5cd909052583537ce5ef15f9328ac64b11
sahc d2  60 0 100 157bca2e526fa1e5e4cfe133f7024a7624c1f21534e34899f00e63978acb8fd6
sahc d2  60 1   1 da2b1ad2e0098299462f60e3b5f4b9ce4ef946e69ca5e1f39557239cb5f24e47
sahc d2  60 1 100 385672004cba8310098e4f974deadecc8c37394969cca9e31bbea7f95cc60e22
sahc d2 100 0   1 ccfeb37144b4b4bc16adabd82185f4a9fce437c501fd53326b4e495e3b69da8c
sahc d2 100 0 100 1384b14c36f473d10ba4e1f6909c77b353f6ef65c9946fbf2e1fe5d19740cc69
sahc d2 100 1   1 ed3678ff3dc157d21bbd240aaaed062d4819abaa7cda39d4225a04fd836a8fbd
sahc d2 100 1 100 c934befc76f9e8fea49235678613e389f9c0d32acb18dd08fc107fe88bfd437c
sahc d3  60 0   1 e1666d542f8870a1865fc0714766214ec993772f8e961139d86c5ce90d910b2f
sahc d3  60 0 100 9c6ee2ecd4d6cebe413b8434a8837a97434a1027c0119ba24ac7d04a9f962a7b
sahc d3  60 1   1 433b5b05d39bf9819e85eac2cb65b930003e27465b6d27a43b9ed82eace1f7c6
sahc d3  60 1 100 230b8f4a8dce287a7648850f564ecaeaf3d5518b6a5da60ce5bfda13e747907e
sahc d3 100 0   1 2ca867021bc6356cb410808634c899efd2c527bab5dd9248ae89ff944cd26b7b
sahc d3 100 0 100 1129b14e01e83475ff02e21c81951d94e56c79517f1ba13b17b05419db065905
sahc d3 100 1   1 d6f7c76eef17527e1770d19eeecff171bfca8f7a3af9bfadc1b912d3ff0a8343
sahc d3 100 1 100 4cf9af84e24216fd75cb17361a74bb340cd3ccffb651bdebaf522913726faa67
"""


def _golden_rows():
    for line in GOLDEN_ASSIGNMENTS.strip().splitlines():
        method, preset, n, seed, delta, digest = line.split()
        yield method, preset, int(n), int(seed), float(delta), digest


@pytest.mark.parametrize("method", ["fmhc", "sahc"])
def test_refiners_reproduce_golden_assignments(method):
    refiner = {"fmhc": fmhc, "sahc": sahc}[method]
    rows = [row for row in _golden_rows() if row[0] == method]
    assert len(rows) == 24
    for _, preset, n, seed, delta, digest in rows:
        inst = generate_dataset(preset_config(preset, n), seed=seed)
        spec = TaskSpec(requirements=[2.0, 2.0], delta=delta)
        b = compute_benefit_matrix(inst, 0.0)
        team_of = refiner(inst, spec, b, gmbf(inst, spec, b)).team_of
        got = hashlib.sha256(
            np.ascontiguousarray(team_of, dtype="<i8").tobytes()).hexdigest()
        assert got == digest, (preset, n, seed, delta)


def _wide_cases(seed=42):
    """Seeded (instance, spec, random start) for every k in {1, 3, 8, 9},
    m in {1, 3}, gamma in {0, 2} and delta in {0, 100}.

    The pins above all have k = 2 and gamma = 1; here k >= 8 reaches the
    pairwise order of numpy's skill sums and m = 1 a lone group. Skills and
    requirements are rounded to one decimal so that gains tie exactly.
    """
    rng = np.random.default_rng(seed)
    for k, m, gamma, delta in itertools.product(
            (1, 3, 8, 9), (1, 3), (0.0, 2.0), (0.0, 100.0)):
        n = int(rng.integers(20, 41))
        skills = np.round(rng.random((n, k)), 1)
        groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
        rng.shuffle(groups)
        spec = TaskSpec(requirements=np.round(rng.random(k) * 3, 1),
                        gamma=gamma, delta=delta)
        start = random_partition(rng, n, int(rng.integers(2, n // 3)))
        yield make_instance(skills, groups), spec, start


# sha256 over the little-endian int64 team_of of each refiner's output on
# the 32 cases above, in order, recorded before the gain caches held the
# per-group changes (D_q) and their sums.
GOLDEN_WIDE = {
    "fmhc": "7eb2835ae99294fcb4fe1a3b857bc9e8d5174e41e091f575d1946ca9a2e3b5a3",
    "sahc": "091d622078cfbb3323e10c102d9f9cd0b302722c6c8b2051867237e48fdfe1f1",
}


@pytest.mark.parametrize("method", ["fmhc", "sahc"])
def test_refiners_reproduce_golden_wide_cases(method):
    refiner = {"fmhc": fmhc, "sahc": sahc}[method]
    digest = hashlib.sha256()
    for inst, spec, start in _wide_cases():
        b = compute_benefit_matrix(inst, spec.benefit_epsilon)
        team_of = refiner(inst, spec, b, start).team_of
        digest.update(np.ascontiguousarray(team_of, dtype="<i8").tobytes())
    assert digest.hexdigest() == GOLDEN_WIDE[method]


def _merge_heavy_cases(count=300, seed=40):
    """Seeded (instance, spec, raw labels) with many singleton teams.

    Skills and requirements are rounded to one or two decimals so that
    destinations tie exactly; labels take between n/3 and n/1.2 distinct
    values; gamma and delta cycle through {0, 1, 2} x {0, 1, 100}.
    """
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(3, 61))
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        skills = np.round(rng.random((n, k)), int(rng.integers(1, 3)))
        groups = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
        rng.shuffle(groups)
        spec = TaskSpec(requirements=np.round(rng.random(k) * 2, 1),
                        gamma=(0.0, 1.0, 2.0)[case % 3],
                        delta=(0.0, 1.0, 100.0)[case // 3 % 3])
        n_labels = int(rng.integers(-(-n // 3), int(n / 1.2) + 1))
        yield make_instance(skills, groups), spec, rng.integers(0, n_labels, n)


# sha256 over the little-endian int64 team_of of every postprocess output
# above, in order, recorded while merges still scored each destination with
# a scalar gain. The 300 calls make 990 merges, 93 of them with an exact tie
# for the best destination, so a change to which destination a merge picks
# (or how ties break) changes this digest.
GOLDEN_MERGES = \
    "a44bda51abd3338ac26e70218feda06d1ff20ac095d155a2a2d1d0d8a3e85d00"


def test_postprocess_reproduces_golden_merges():
    digest = hashlib.sha256()
    for inst, spec, labels in _merge_heavy_cases():
        b = compute_benefit_matrix(inst, spec.benefit_epsilon)
        team_of = postprocess(inst, spec, b,
                              compact_assignment(labels)).team_of
        digest.update(np.ascontiguousarray(team_of, dtype="<i8").tobytes())
    assert digest.hexdigest() == GOLDEN_MERGES
