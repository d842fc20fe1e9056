"""Hill-climbing refinement of an assignment.

Two refiners over the single-student move neighborhood:

* sahc: apply the globally best move while its gain stays strictly positive.
* fmhc: pass-based refinement. A pass tentatively moves every student once
  (best gain first, uphill allowed, movers locked), then commits the prefix
  of the move sequence with the largest summed gain if that sum clears the
  gain threshold; otherwise the pass is discarded and refinement stops.

Both take the row-major first maximum of the (N, slots) gain matrix, so
ties go to the lower student, then the lower destination.

The gain of moving student x from team s to team d is f(before) - f(after),
computed incrementally from cached team sums, benefit counts, and group
benefit sums. Terms that depend on d alone are cached per column, so a move
refreshes only columns s and d; the O(N (m + k)) row terms of what x's
source loses are recomputed per call. Each cell takes the same floating-point
operations in the same order as a full recompute: gains are bit-identical.

A move that empties its source team drops that team from the objective's
normalizer and from the destination set; no move may create a new team.
After refinement, post-processing removes empty slots and merges
singleton teams into whichever team yields the lowest objective, repeating
the climb if a merge opened new improving moves, so the final assignment is
single-move stable and singleton-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Assignment, Instance, ObjectiveBreakdown, TaskSpec,
                   compact_assignment)
from .errors import ValidationError


@dataclass(frozen=True)
class RefineConfig:
    """gain_epsilon: smallest pass gain fmhc still commits (finite, > 0)."""

    gain_epsilon: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.gain_epsilon < np.inf:
            raise ValidationError("gain_epsilon must be positive and finite")


def _deficiency(sums: np.ndarray, requirements: np.ndarray) -> np.ndarray:
    """Per-team squared shortfall, summed over skills. sums: (..., k)."""
    shortfall = np.clip(requirements - sums, 0.0, None)
    return (shortfall ** 2).sum(axis=-1)


def _pairwise_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Bit-identical to np.stack(terms, -1).sum(-1): numpy's pairwise order."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if n >= 8:
        acc = terms[:8]
        for i in range(8, n - n % 8, 8):
            acc = [a + t for a, t in zip(acc, terms[i:i + 8])]
        terms = [((acc[0] + acc[1]) + (acc[2] + acc[3]))
                 + ((acc[4] + acc[5]) + (acc[6] + acc[7]))] + terms[n - n % 8:]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


class SolverState:
    """Mutable assignment plus every cache the gain formulas need.

    Team slots are fixed at construction; a slot that empties goes inactive
    and never comes back (moves into empty slots are not generated). The
    exposed assignment() compacts the surviving slots. Column l of the gain
    caches _new_ind (N, slots), _dest_delta (m, N, slots; group-major) and
    _def_dest_new (N, slots) depends on slot l alone, so apply() refreshes
    two columns and gain_matrix() adds the per-student row terms.
    """

    def __init__(self, instance: Instance, spec: TaskSpec, b: np.ndarray,
                 team_of: np.ndarray, n_slots: int):
        self.inst = instance
        self.spec = spec
        self.b = b
        self.team_of = np.ascontiguousarray(team_of, dtype=np.int64).copy()
        self.n_slots = int(n_slots)
        self._group_one_hot = np.zeros((instance.n, instance.m))
        self._group_one_hot[np.arange(instance.n), instance.groups] = 1.0
        self._rebuild()

    @classmethod
    def from_assignment(cls, instance: Instance, spec: TaskSpec,
                        b: np.ndarray, assignment: Assignment) -> "SolverState":
        return cls(instance, spec, b, assignment.team_of, assignment.n_teams)

    def _rebuild(self):
        inst, n, s = self.inst, self.inst.n, self.n_slots
        self.sizes = np.bincount(self.team_of, minlength=s).astype(np.int64)
        self.active = self.sizes > 0
        self.n_active = int(self.active.sum())
        self.sums = np.zeros((s, inst.k))
        np.add.at(self.sums, self.team_of, inst.skills)
        self.defic = np.where(
            self.active, _deficiency(self.sums, self.spec.requirements), 0.0)
        self.defic_total = float(self.defic.sum())

        membership = np.zeros((n, s))
        membership[np.arange(n), self.team_of] = 1.0
        # benefit_vs_team[i, l]: teammates-of-l that student i benefits from
        self.benefit_vs_team = self.b @ membership
        # benefit_to_team[i, l, q]: group-q members of team l benefiting from i
        self.benefit_to_team = np.einsum(
            "ji,jl,jq->ilq", self.b, membership, self._group_one_hot,
            optimize=True)

        own = self.benefit_vs_team[np.arange(n), self.team_of]
        mates = self.sizes[self.team_of] - 1
        self.ind = np.where(mates > 0, own / np.maximum(mates, 1), 0.0)
        self.ind_total = float(self.ind.sum())
        self.group_counts = np.bincount(inst.groups, minlength=inst.m)
        self.group_sums = np.bincount(
            inst.groups, weights=self.ind, minlength=inst.m)
        # own_by_group[l, q]: sum of benefit_vs_team[j, l] over team-l members
        # of group q
        self.own_by_group = np.zeros((s, inst.m))
        np.add.at(self.own_by_group, (self.team_of, inst.groups), own)
        self._new_ind = np.empty((n, s))
        self._dest_delta = np.empty((inst.m, n, s))
        self._def_dest_new = np.empty((n, s))
        self._refresh_columns(slice(None))

    def _refresh_columns(self, cols):
        """Recompute the gain terms that depend on destination slots cols."""
        sizes = self.sizes[cols]
        sizes_safe = np.maximum(sizes, 1)
        own = self.own_by_group[cols]
        # mover's individual benefit after joining slot l
        self._new_ind[:, cols] = self.benefit_vs_team[:, cols] / sizes_safe
        # change of slot l's members' benefit per group, stored group-major
        old_dest = own / np.maximum(sizes - 1, 1)[:, None]
        new_dest = (own[None] + self.benefit_to_team[:, cols]) \
            / sizes_safe[None, :, None]
        self._dest_delta[:, :, cols] = np.moveaxis(
            new_dest - old_dest[None], 2, 0)
        # slot l's deficiency after the mover joins
        self._def_dest_new[:, cols] = _deficiency(
            self.sums[cols][None, :, :] + self.inst.skills[:, None, :],
            self.spec.requirements)

    def clone(self) -> "SolverState":
        other = object.__new__(SolverState)
        other.inst, other.spec, other.b = self.inst, self.spec, self.b
        other.n_slots = self.n_slots
        other._group_one_hot = self._group_one_hot
        for name in ("team_of", "sizes", "active", "sums", "defic",
                     "benefit_vs_team", "benefit_to_team", "ind",
                     "group_sums", "own_by_group", "_new_ind",
                     "_dest_delta", "_def_dest_new"):
            setattr(other, name, getattr(self, name).copy())
        other.n_active = self.n_active
        other.defic_total = self.defic_total
        other.ind_total = self.ind_total
        other.group_counts = self.group_counts
        return other

    def objective(self) -> ObjectiveBreakdown:
        inst, spec = self.inst, self.spec
        x = self.defic_total / (self.n_active * inst.k)
        y = self.ind_total / inst.n
        z = float((self.group_sums / self.group_counts).var())
        return ObjectiveBreakdown(x=x, y=y, z=z, f=x - spec.gamma * y + spec.delta * z)

    def assignment(self) -> Assignment:
        return compact_assignment(self.team_of)

    def gain_matrix(self, locked: np.ndarray | None = None) -> np.ndarray:
        """(N, n_slots) gains for every candidate move; -inf where invalid.

        Invalid: the student's own team, inactive slots, and the students
        set in the bool mask locked, whose rows are not computed at all.
        """
        inst, spec = self.inst, self.spec
        n, m, k = inst.n, inst.m, inst.k
        live = slice(None) if locked is None else np.flatnonzero(~locked)
        rows = np.arange(n)[live]
        src = self.team_of[live]
        n_src = self.sizes[src]
        own_vs_src = self.benefit_vs_team[rows, src]
        d_mover = self._new_ind[live] - self.ind[live, None]

        # teammates left behind, split by group (independent of destination)
        left_base = (self.own_by_group[src]
                     - self._group_one_hot[live] * own_vs_src[:, None])
        old_src = left_base / np.maximum(n_src - 1, 1)[:, None]
        to_src = self.benefit_to_team[rows, src]
        new_src = (left_base - to_src) / np.maximum(n_src - 2, 1)[:, None]
        src_delta = np.where(
            (n_src >= 3)[:, None], new_src - old_src,
            np.where((n_src == 2)[:, None], -old_src, 0.0))

        # per group: change of the group's benefit sum, and its new mean
        d_group, new_gben = [], []
        for q in range(m):
            d = self._dest_delta[q][live] + src_delta[:, q, None]
            np.add(d, d_mover, out=d, where=(inst.groups[live] == q)[:, None])
            d_group.append(d)
            new_gben.append((self.group_sums[q] + d) / self.group_counts[q])
        y_new = (self.ind_total + _pairwise_sum(d_group)) / n
        mean = _pairwise_sum(new_gben) / m
        z_new = _pairwise_sum([np.square(g - mean, out=g)
                               for g in new_gben]) / m

        empties = n_src == 1
        def_src_new = np.where(
            empties, 0.0,
            _deficiency(self.sums[src] - inst.skills[live], spec.requirements))
        defic_new = (self.defic_total - self.defic[src][:, None] - self.defic
                     + def_src_new[:, None] + self._def_dest_new[live])
        x_new = defic_new / ((self.n_active - empties)[:, None] * k)

        f_new = x_new - spec.gamma * y_new + spec.delta * z_new
        gains = self.objective().f - f_new
        gains[:, ~self.active] = -np.inf
        gains[np.arange(gains.shape[0]), src] = -np.inf
        if locked is None:
            return gains
        full = np.full((n, self.n_slots), -np.inf)
        full[live] = gains
        return full

    def gain(self, student: int, dest: int) -> float:
        """Single-move gain, same caches, scalar arithmetic."""
        inst, spec = self.inst, self.spec
        src = int(self.team_of[student])
        if dest == src:
            raise ValidationError("self-moves have no gain")
        if not (0 <= dest < self.n_slots) or not self.active[dest]:
            raise ValidationError(f"destination team {dest} does not exist")
        n_src = int(self.sizes[src])
        n_dest = int(self.sizes[dest])
        g = int(self.inst.groups[student])

        d_group = np.zeros(inst.m)
        d_group[g] += self.benefit_vs_team[student, dest] / n_dest - self.ind[student]

        left_base = self.own_by_group[src].copy()
        left_base[g] -= self.benefit_vs_team[student, src]
        if n_src >= 3:
            d_group += ((left_base - self.benefit_to_team[student, src]) / (n_src - 2)
                        - left_base / (n_src - 1))
        elif n_src == 2:
            d_group -= left_base

        if n_dest >= 2:
            d_group -= self.own_by_group[dest] / (n_dest - 1)
        d_group += (self.own_by_group[dest]
                    + self.benefit_to_team[student, dest]) / n_dest

        y_new = (self.ind_total + d_group.sum()) / inst.n
        z_new = float(((self.group_sums + d_group) / self.group_counts).var())

        def_src_new = 0.0 if n_src == 1 else float(
            _deficiency(self.sums[src] - inst.skills[student], spec.requirements))
        def_dest_new = float(
            _deficiency(self.sums[dest] + inst.skills[student], spec.requirements))
        teams_after = self.n_active - (1 if n_src == 1 else 0)
        x_new = (self.defic_total - self.defic[src] - self.defic[dest]
                 + def_src_new + def_dest_new) / (teams_after * inst.k)

        f_new = x_new - spec.gamma * y_new + spec.delta * z_new
        return self.objective().f - f_new

    def apply(self, student: int, dest: int):
        """Move the student and refresh the caches in O(N (m + k))."""
        inst = self.inst
        src = int(self.team_of[student])
        if dest == src:
            raise ValidationError("self-moves are not applicable")
        if not self.active[dest]:
            raise ValidationError(f"destination team {dest} does not exist")
        g = int(inst.groups[student])

        self.sums[src] -= inst.skills[student]
        self.sums[dest] += inst.skills[student]
        self.sizes[src] -= 1
        self.sizes[dest] += 1
        self.defic_total -= self.defic[src] + self.defic[dest]
        if self.sizes[src] == 0:
            self.active[src] = False
            self.n_active -= 1
            self.sums[src] = 0.0
            self.defic[src] = 0.0
        else:
            self.defic[src] = float(
                _deficiency(self.sums[src], self.spec.requirements))
        self.defic[dest] = float(
            _deficiency(self.sums[dest], self.spec.requirements))
        self.defic_total += self.defic[src] + self.defic[dest]

        self.benefit_vs_team[:, src] -= self.b[:, student]
        self.benefit_vs_team[:, dest] += self.b[:, student]
        self.benefit_to_team[:, src, g] -= self.b[student, :]
        self.benefit_to_team[:, dest, g] += self.b[student, :]
        self.team_of[student] = dest

        for slot in (src, dest):
            members = np.flatnonzero(self.team_of == slot)
            own = self.benefit_vs_team[members, slot]
            old = self.ind[members]
            if members.size >= 2:
                new = own / (members.size - 1)
            else:
                new = np.zeros(members.size)
            self.ind[members] = new
            delta = new - old
            self.ind_total += float(delta.sum())
            np.add.at(self.group_sums, inst.groups[members], delta)
            row = np.zeros(inst.m)
            np.add.at(row, inst.groups[members], own)
            self.own_by_group[slot] = row
        self._refresh_columns(np.array([src, dest]))


def _best_move(gains: np.ndarray) -> tuple[int, int, float]:
    """(student, dest, gain) of the largest entry; ties go to the lower
    student, then the lower destination (row-major first maximum)."""
    student, dest = divmod(int(np.argmax(gains)), gains.shape[1])
    return student, dest, float(gains[student, dest])


def _merge_singletons(state: SolverState) -> bool:
    """Move each singleton's student to the team minimizing the objective.

    Lowest singleton slot goes first; destination ties break toward the
    lower slot id. Returns whether anything changed. A single remaining
    team is left alone.
    """
    changed = False
    while state.n_active >= 2:
        single = np.flatnonzero(state.active & (state.sizes == 1))
        if single.size == 0:
            break
        slot = int(single[0])
        student = int(np.flatnonzero(state.team_of == slot)[0])
        best_dest, best_gain = -1, None
        for dest in np.flatnonzero(state.active):
            if dest == slot:
                continue
            gain = state.gain(student, int(dest))
            if best_gain is None or gain > best_gain:
                best_dest, best_gain = int(dest), gain
        state.apply(student, best_dest)
        changed = True
    return changed


def postprocess(instance: Instance, spec: TaskSpec, b: np.ndarray,
                assignment) -> Assignment:
    """Drop empty team ids, then merge singletons into their best team.

    assignment may be an Assignment or a raw team-label vector (labels may
    be sparse). With a lone team, or no singletons, the partition is
    returned unchanged apart from label compaction.
    """
    team_of = assignment.team_of if isinstance(assignment, Assignment) \
        else np.asarray(assignment, dtype=np.int64)
    compacted = compact_assignment(team_of)
    state = SolverState.from_assignment(instance, spec, b, compacted)
    _merge_singletons(state)
    return state.assignment()


def _refine(instance: Instance, spec: TaskSpec, b: np.ndarray,
            initial: Assignment, step) -> Assignment:
    """Run step(state) until it reports no progress, merge singleton teams,
    and start again if a merge changed anything; merges only ever shrink
    the team count, so this terminates."""
    state = SolverState.from_assignment(instance, spec, b, initial)
    while True:
        while step(state):
            pass
        if not _merge_singletons(state):
            return state.assignment()


def sahc(instance: Instance, spec: TaskSpec, b: np.ndarray,
         initial: Assignment, stats: dict | None = None) -> Assignment:
    """Steepest-ascent hill climbing (on a minimized objective): apply the
    best move while its gain is strictly positive."""
    stats = {} if stats is None else stats
    stats.setdefault("iterations", 0)
    stats.setdefault("moves", 0)

    def step(state: SolverState) -> bool:
        student, dest, gain = _best_move(state.gain_matrix())
        stats["iterations"] += 1
        if gain <= 0.0:
            return False
        state.apply(student, dest)
        stats["moves"] += 1
        return True

    return _refine(instance, spec, b, initial, step)


def _fmhc_pass(state: SolverState, config: RefineConfig) -> bool:
    """One pass: tentatively move every student, commit the best prefix.

    Mutates state only when the prefix gain clears gain_epsilon; otherwise
    the pre-pass assignment is kept and False is returned.
    """
    work = state.clone()
    locked = np.zeros(state.inst.n, dtype=bool)
    sequence = []
    while True:
        student, dest, gain = _best_move(work.gain_matrix(locked))
        if gain == -np.inf:
            break
        locked[student] = True
        work.apply(student, dest)
        sequence.append((student, dest, gain))
    if not sequence:
        return False
    cumulative = np.cumsum([gain for (_, _, gain) in sequence])
    best = int(np.argmax(cumulative))  # first max = shortest prefix on ties
    if cumulative[best] <= config.gain_epsilon:
        return False
    for student, dest, _ in sequence[:best + 1]:
        state.apply(student, dest)
    return True


def fmhc(instance: Instance, spec: TaskSpec, b: np.ndarray,
         initial: Assignment, config: RefineConfig | None = None,
         stats: dict | None = None) -> Assignment:
    """Pass-based refinement with uphill moves and prefix commits."""
    config = config or RefineConfig()
    stats = {} if stats is None else stats
    stats["passes"] = 0

    def step(state: SolverState) -> bool:
        stats["passes"] += 1
        return _fmhc_pass(state, config)

    return _refine(instance, spec, b, initial, step)
