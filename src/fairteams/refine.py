"""Hill-climbing refinement of an assignment.

Two refiners over the single-student move neighborhood:

* sahc: apply the globally best move while its gain stays strictly positive.
* fmhc: pass-based refinement. A pass tentatively moves every student once
  (best gain first, uphill allowed, movers locked), then commits the prefix
  of the move sequence with the largest summed gain if that sum clears the
  gain threshold; otherwise the pass is discarded and refinement stops.

Both take the row-major first maximum of the gain matrix, so ties go to the
lower student, then the lower destination.

The gain of moving student x to team d is f(before) - f(after). SolverState
caches, per (x, d) cell, every term that does not depend on the global sums.
A move updates the team sums and counts and queues a refresh of the two
columns and two teams' rows it touches; the next gain_matrix or clone runs
the queue once over their union, and gain_matrix adds the global sums. Each
cell takes the same floating-point operations in the same order as a full
recompute: gains are bit-identical.
gain_matrix is the only copy of this formula: gain(x, d) is one of its cells,
and a singleton merge takes the first maximum of x's row.

A move that empties its source team drops that team from the objective's
normalizer and from the destination set; no move may create a new team.
After refinement, singleton teams are merged into whichever team yields the
lowest objective, and the climb repeats if a merge opened new improving
moves, so the final assignment is single-move stable and singleton-free.
"""

from __future__ import annotations

import bisect
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
    """Per-team squared shortfall summed over skills, in numpy's order;
    sums: (k, ...), one plane per skill."""
    short = requirements.reshape((-1,) + (1,) * (sums.ndim - 1)) - sums
    np.maximum(short, 0.0, out=short)
    return _pairwise_sum(list(np.square(short, out=short)))


def _group_change(own, safe, stay, benefit_to, src_delta, benefit_vs, ind,
                  in_group) -> np.ndarray:
    """D_q of a block of moves from arguments that broadcast to it: the
    destination's members (benefit sum own, share stay, size max safe) gain
    the mover, src_delta is the source's change, and in_group the mover's."""
    d = own + benefit_to
    d /= safe
    d -= stay
    d += src_delta
    mover = benefit_vs / safe
    mover -= ind
    np.add(d, mover, out=d, where=in_group)
    return d


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
    """Mutable assignment plus every cache the gain formula needs.

    Team slots are fixed at construction; a slot that empties goes inactive
    and never comes back. Per-group arrays are group-major and per-skill
    arrays skill-major. Cell (i, l) caches what does not depend on the global
    sums: D_q, the change of group q's benefit sum when student i moves to
    slot l (_group_delta, (m, N, slots)), and slot l's deficiency with i
    added (_def_dest_new). Row i caches what i's own team loses (_src_delta,
    (m, N); _def_src_new). A cell depends only on slot l and on i's team.
    """

    def __init__(self, instance: Instance, spec: TaskSpec, b: np.ndarray,
                 team_of: np.ndarray, n_slots: int):
        self.inst, self.spec, self.b = instance, spec, b
        self.team_of = np.array(team_of, dtype=np.int64)
        self.n_slots = s = int(n_slots)
        n, m, k = instance.n, instance.m, instance.k
        self._in_group = instance.groups == np.arange(m)[:, None]
        self._skills = np.ascontiguousarray(instance.skills.T)

        # float counts: the divisions by team sizes need no casts
        self.sizes = np.bincount(self.team_of, minlength=s).astype(float)
        self.active = self.sizes > 0
        self.n_active = int(self.active.sum())
        self.members = [[] for _ in range(s)]  # ascending student ids
        for student, slot in enumerate(self.team_of.tolist()):
            self.members[slot].append(student)
        self.sums = np.zeros((k, s))
        np.add.at(self.sums.T, self.team_of, instance.skills)
        self.defic = np.where(
            self.active, _deficiency(self.sums, spec.requirements), 0.0)
        self.defic_total = float(self.defic.sum())

        membership = np.zeros((n, s))
        membership[np.arange(n), self.team_of] = 1.0
        # benefit_vs_team[i, l]: teammates-of-l that student i benefits from
        self.benefit_vs_team = b @ membership
        # benefit_to_team[q, i, l]: group-q members of team l benefiting from i
        self.benefit_to_team = np.ascontiguousarray(np.einsum(
            "ji,jl,qj->qil", b, membership, self._in_group, optimize=True))
        rows, n_team = np.arange(n), self.sizes[self.team_of]
        own = self.benefit_vs_team[rows, self.team_of]
        # share of teammates each benefits from (own is 0 for a lone one)
        self.ind = own / np.maximum(n_team - 1, 1.0)
        self.ind_total = float(self.ind.sum())
        self.group_counts = np.bincount(
            instance.groups, minlength=m).astype(float)
        self.group_sums = np.bincount(
            instance.groups, weights=self.ind, minlength=m)
        # own_by_group[q, l]: benefit_vs_team[:, l] summed over l's group q
        self.own_by_group = np.zeros((m, s))
        np.add.at(self.own_by_group, (instance.groups, self.team_of), own)
        self._src_delta, self._def_src_new = np.empty((m, n)), np.empty(n)
        self._group_delta = np.empty((m, n, s))
        self._def_dest_new = np.empty((n, s))
        # (rows, cols, their team, its size, own benefit) per unread apply
        self._pending = [(rows, np.arange(s), self.team_of, n_team, own)]
        self._refresh()

    @classmethod
    def from_assignment(cls, instance: Instance, spec: TaskSpec,
                        b: np.ndarray, assignment: Assignment) -> "SolverState":
        return cls(instance, spec, b, assignment.team_of, assignment.n_teams)

    def _refresh(self):
        """Recompute the row terms and cells of the queued rows (src, n_src,
        own_vs_src: their team, its size, how many in it they benefit from)
        and of the queued cols: one move's as queued, several moves' union."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        rows, cols, src, n_src, own_vs_src = pending[0]
        if len(pending) > 1:
            rows, cols = (np.flatnonzero(np.bincount(np.concatenate(part),
                                                     minlength=size))
                          for part, size in zip(zip(*pending),
                                                (self.inst.n, self.n_slots)))
            src = self.team_of.take(rows)
            n_src = self.sizes.take(src)
            own_vs_src = self.benefit_vs_team[rows, src]
        own, sizes, req = self.own_by_group, self.sizes, self.spec.requirements
        # per slot: max(size, 1) and each group's current mean share
        safe = np.maximum(sizes, 1.0)
        stay = own / np.maximum(sizes - 1, 1.0)
        # what each student leaves behind: its team's change per group ...
        left = own.take(src, 1) - self._in_group.take(rows, 1) * own_vs_src
        # in a team of one or two, left equals benefit_to (both count the
        # partner's benefit from the student), so the new share is 0
        new = ((left - self.benefit_to_team[:, rows, src])
               / np.maximum(n_src - 2, 1.0))
        self._src_delta[:, rows] = src_delta = new - left / np.maximum(
            n_src - 1, 1.0)
        # ... and its team's deficiency without it (0 once it is empty)
        self._def_src_new[rows] = _deficiency(
            self.sums.take(src, 1) - self._skills.take(rows, 1), req
        ) * (n_src > 1)

        block = _group_change(
            own[:, None], safe, stay[:, None],
            self.benefit_to_team.take(rows, 1), src_delta[:, :, None],
            self.benefit_vs_team.take(rows, 0), self.ind.take(rows)[:, None],
            self._in_group.take(rows, 1)[:, :, None])
        self._group_delta[:, rows] = block
        if rows.size < self.inst.n:  # else every cell is already fresh
            # the columns slot-major, (m, C, N): each array pass runs along N
            block = _group_change(
                own.take(cols, 1)[:, :, None], safe.take(cols)[:, None],
                stay.take(cols, 1)[:, :, None],
                self.benefit_to_team.take(cols, 2).transpose(0, 2, 1).copy(),
                self._src_delta[:, None],
                self.benefit_vs_team.take(cols, 1).T.copy(), self.ind,
                self._in_group[:, None])
            self._group_delta[:, :, cols] = block.transpose(0, 2, 1)
        self._def_dest_new[:, cols] = _deficiency(
            self.sums.take(cols, 1)[:, :, None] + self._skills[:, None], req).T

    def clone(self) -> "SolverState":
        self._refresh()
        other = object.__new__(SolverState)
        # scalars and shared arrays; the queue is empty after _refresh
        other.__dict__.update(self.__dict__, _pending=[])
        for name in ("team_of", "sizes", "active", "sums", "defic",
                     "benefit_vs_team", "benefit_to_team", "ind", "group_sums",
                     "own_by_group", "_src_delta", "_def_src_new",
                     "_group_delta", "_def_dest_new"):
            setattr(other, name, getattr(self, name).copy())
        other.members = [list(team) for team in self.members]
        return other

    def objective(self) -> ObjectiveBreakdown:
        """x, y, z and f as Python floats, summed in numpy's order."""
        inst, spec = self.inst, self.spec
        x = self.defic_total / (self.n_active * inst.k)
        y = self.ind_total / inst.n
        means = (self.group_sums / self.group_counts).tolist()
        mean = _pairwise_sum(means) / inst.m  # np.var, unwrapped
        z = _pairwise_sum([(v - mean) * (v - mean) for v in means]) / inst.m
        return ObjectiveBreakdown(x, y, z, x - spec.gamma * y + spec.delta * z)

    def assignment(self) -> Assignment:
        return compact_assignment(self.team_of)

    def gain_matrix(self, locked: np.ndarray | None = None) -> np.ndarray:
        """(n_live, n_slots) gains of the students not set in the bool mask
        locked, in ascending student order; -inf where invalid (the
        student's own team, inactive slots)."""
        self._refresh()
        inst, spec = self.inst, self.spec
        n, m = inst.n, inst.m
        live = np.arange(n) if locked is None else np.flatnonzero(~locked)
        src = self.team_of.take(live)
        empties = self.sizes.take(src) == 1

        # the new benefit sum, each group's new mean benefit, and z
        g = self._group_delta.take(live, 1)
        y_new = _pairwise_sum(list(g)) + self.ind_total
        g += self.group_sums[:, None, None]
        g /= self.group_counts[:, None, None]
        mean = _pairwise_sum(list(g)) / m
        g -= mean
        z_new = _pairwise_sum(list(np.square(g, out=g)))
        z_new /= m
        y_new /= n

        x_new = np.subtract(
            (self.defic_total - self.defic.take(src))[:, None], self.defic)
        x_new += self._def_src_new.take(live)[:, None]
        x_new += self._def_dest_new.take(live, 0)
        x_new /= ((self.n_active - empties) * float(inst.k))[:, None]

        # gains = f - (x_new - gamma * y_new + delta * z_new)
        y_new *= spec.gamma
        x_new -= y_new
        z_new *= spec.delta
        x_new += z_new
        gains = np.subtract(self.objective().f, x_new, out=x_new)
        if self.n_active < self.n_slots:
            gains[:, ~self.active] = -np.inf
        gains[np.arange(live.size), src] = -np.inf
        return gains

    def gain(self, student: int, dest: int) -> float:
        """Single-move gain: gain_matrix with every other student locked."""
        if dest == self.team_of[student]:
            raise ValidationError("self-moves have no gain")
        if not (0 <= dest < self.n_slots) or not self.active[dest]:
            raise ValidationError(f"destination team {dest} does not exist")
        others = np.arange(self.inst.n) != student
        return float(self.gain_matrix(others)[0, dest])

    def apply(self, student: int, dest: int):
        """Move the student, update the accumulators, and queue the refresh
        of two columns and two teams' rows for the next read."""
        inst = self.inst
        src = int(self.team_of[student])
        if dest == src:
            raise ValidationError("self-moves are not applicable")
        if not self.active[dest]:
            raise ValidationError(f"destination team {dest} does not exist")
        g = int(inst.groups[student])
        pair = np.array([src, dest])

        self.sums[:, src] -= self._skills[:, student]
        self.sums[:, dest] += self._skills[:, student]
        self.sizes[src] -= 1
        self.sizes[dest] += 1
        self.members[src].remove(student)
        bisect.insort(self.members[dest], student)
        if self.sizes[src] == 0:
            self.active[src] = False
            self.n_active -= 1
            self.sums[:, src] = 0.0
        # both teams' new deficiency, from the new sums while a refresh waits
        self.defic_total -= self.defic[src] + self.defic[dest]
        if self._pending:
            self.defic[pair] = _deficiency(
                self.sums[:, pair], self.spec.requirements) * self.active[pair]
        else:
            self.defic[src] = self._def_src_new[student]
            self.defic[dest] = self._def_dest_new[student, dest]
        self.defic_total += self.defic[src] + self.defic[dest]

        # integer counts, so these updates are exact
        self.own_by_group[:, src] -= self.benefit_to_team[:, student, src]
        self.own_by_group[g, src] -= self.benefit_vs_team[student, src]
        self.own_by_group[:, dest] += self.benefit_to_team[:, student, dest]
        self.own_by_group[g, dest] += self.benefit_vs_team[student, dest]
        self.benefit_vs_team[:, src] -= self.b[:, student]
        self.benefit_vs_team[:, dest] += self.b[:, student]
        self.benefit_to_team[g, :, src] -= self.b[student]
        self.benefit_to_team[g, :, dest] += self.b[student]
        self.team_of[student] = dest

        # both teams' members, src's first, each in ascending order
        n_left = len(self.members[src])
        rows = np.array(self.members[src] + self.members[dest], dtype=np.int64)
        slots = self.team_of.take(rows)
        n_team = self.sizes.take(slots)
        own = self.benefit_vs_team[rows, slots]
        ind = own / np.maximum(n_team - 1, 1.0)
        delta = ind - self.ind.take(rows)
        self.ind[rows] = ind
        self.ind_total += float(np.add.reduce(delta[:n_left]))
        self.ind_total += float(np.add.reduce(delta[n_left:]))
        np.add.at(self.group_sums, inst.groups.take(rows), delta)
        self._pending.append((rows, pair, slots, n_team, own))


def _best_move(gains: np.ndarray) -> tuple[int, int, float]:
    """(row, dest, gain) of the row-major first maximum."""
    row, dest = divmod(int(np.argmax(gains)), gains.shape[1])
    return row, dest, float(gains[row, dest])


def _merge_singletons(state: SolverState) -> bool:
    """Move each singleton's student, lowest slot first, to the team that
    minimizes the objective (ties to the lower slot); True if any moved."""
    changed = False
    while state.n_active >= 2:
        single = np.flatnonzero(state.active & (state.sizes == 1))
        if single.size == 0:
            break
        student = state.members[single[0]][0]
        gains = state.gain_matrix(np.arange(state.inst.n) != student)
        state.apply(student, int(np.argmax(gains[0])))
        changed = True
    return changed


def postprocess(instance: Instance, spec: TaskSpec, b: np.ndarray,
                assignment: Assignment) -> Assignment:
    """Merge each singleton team into its best team (a lone team stays)."""
    state = SolverState.from_assignment(instance, spec, b, assignment)
    _merge_singletons(state)
    return state.assignment()


def _refine(instance: Instance, spec: TaskSpec, b: np.ndarray,
            initial: Assignment, step) -> Assignment:
    """Run step(state) until no progress, merge singleton teams, and repeat
    while a merge changes anything (merges only shrink the team count)."""
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
    """One pass: tentatively move every student, then commit the best prefix
    if its gain clears gain_epsilon; otherwise leave state and return False."""
    work = state.clone()
    locked = np.zeros(state.inst.n, dtype=bool)
    sequence = []
    while not locked.all():
        row, dest, gain = _best_move(work.gain_matrix(locked))
        if gain == -np.inf:
            break
        student = int(np.flatnonzero(~locked)[row])
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
