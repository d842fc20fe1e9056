"""Hill-climbing refinement of an assignment, over one roster or many.

Two refiners over the single-student move neighborhood:

* sahc: propose the globally best move while its gain is strictly positive.
* fmhc: pass-based refinement. A pass tentatively moves every student once
  (best gain first, uphill allowed, movers locked), then proposes the
  prefix of the move sequence with the largest summed gain if that sum
  clears the gain threshold.

Both, and postprocess (which proposes nothing), run on one driver, _refine,
the only place that commits: it applies a roster's moves only if the
objective recomputed from the assignment falls, or else stops its climb and
merges its singletons. Every move is picked by _best_moves: the row-major
first maximum of the gain matrix, so ties go to the lower student, then
the lower destination.

SolverState holds R rosters of one size, their team slots padded to the
most of any (padded slots stay inactive); a single solve is the batch of
one. fmhc climbs blocks of rosters in lockstep rounds: a round runs one pass
of every roster still climbing, one move per roster per gain_matrix call,
and a roster whose best gain is -inf ends its pass. Each then commits its
own best prefix, or stops, merges its singletons and climbs again if a
merge moved anyone. Every sum runs over one roster's own students, slots or
teammates, so each roster gets the bits of its lone solve.

The gain of moving student x to team d is f(before) - f(after). SolverState
caches, per (x, d) cell, every term that does not depend on the global sums.
A move updates the team sums and counts and queues a refresh of the two
columns and two teams' rows it touches; the next gain_matrix or clone runs
the queue once over their union, and gain_matrix adds the global sums. Each
cell takes the same floating-point operations in the same order as a full
recompute: gains are bit-identical. The build fills every roster's caches
with one batched pass. gain_matrix is the only copy of this formula: gain(x,
d) is one of its cells.

A move that empties its source team drops that team from the objective's
normalizer and from the destination set; no move may create a new team.
After refinement, singleton teams are merged into whichever team yields the
lowest objective, and the climb repeats if a merge opened new improving
moves, so the final assignment is single-move stable and singleton-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Assignment, Instance, ObjectiveBreakdown, TaskSpec,
                   check_spec, compact_assignment, objective_batch)
from .errors import ValidationError


# Byte budget for the (m, R*N, slots) cell cache of one lockstep block (20
# rosters of the d2 preset at n=60 fit): a pass holds the state, its
# tentative clone and a few cache-sized temporaries, so this bounds memory.
_BATCH_BYTES = 1 << 19

# team counts are at most N: int16 holds rosters of up to 32767 students
_COUNT = np.int16


@dataclass(frozen=True)
class RefineConfig:
    """gain_epsilon: smallest pass gain fmhc still commits (finite, > 0)."""

    gain_epsilon: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.gain_epsilon < np.inf:
            raise ValidationError("gain_epsilon must be positive and finite")


def _deficiency(sums: np.ndarray, requirements: np.ndarray) -> np.ndarray:
    """Per-team squared shortfall summed over skills, in numpy's order;
    sums: (k, ...), one plane per skill, a temporary that this overwrites."""
    short = np.subtract(requirements.reshape((-1,) + (1,) * (sums.ndim - 1)),
                        sums, out=sums)
    np.maximum(short, 0.0, out=short)
    return _pairwise_sum(list(np.square(short, out=short)))


def _group_change(d, safe, stay, src_delta, benefit_vs, ind,
                  in_group) -> np.ndarray:
    """D_q of a block of moves, in place in d, the destination members'
    benefit sum with the mover's added, from arguments that broadcast to it:
    the destination's members (share stay, size max safe) gain the mover,
    src_delta is the source's change, and in_group the mover's."""
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
    """Mutable assignments of R rosters and every cache of the gain formula.

    The rosters share N, m, k and the spec; slots are fixed at construction
    and padded to the most of any roster, and a slot that empties goes
    inactive for good. team_of, (R, N), is the only record of who is in
    which team; sizes, active and defic are (R, slots). The other arrays,
    group- or skill-major, put roster r's students at r*N.. and its slots
    at r*slots.. of one flat axis. Cell (i, l) caches what does not depend
    on the global sums: D_q, the change of group q's benefit sum when
    student i moves to slot l (_group_delta, (m, R*N, slots)), and slot
    l's deficiency with i added (_def_dest_new). Row i caches what i's own
    team loses (_src_delta, (m, R*N); _def_src_new). gain and apply share
    one move check; apply queues the rows and cols the next read refreshes.
    """

    def __init__(self, instances, spec: TaskSpec, b, team_of, n_slots):
        self.instances, self.spec = list(instances), spec
        n, m, k = self.n, self.m, self.k = (
            self.instances[0].n, self.instances[0].m, self.instances[0].k)
        if any((i.n, i.m, i.k) != (n, m, k) for i in self.instances):
            raise ValidationError("the rosters of one state must share their "
                                  "size, group count and skill count")
        check_spec(self.instances[0], spec)
        if n > np.iinfo(_COUNT).max:
            raise ValidationError(f"a roster of {n} students is too large: "
                                  f"at most {np.iinfo(_COUNT).max}")
        r = len(self.instances)
        if len(team_of) != r or any(np.shape(t) != (n,) for t in team_of):
            raise ValidationError("assignment size does not match the roster")
        self.b = np.stack(b)
        self.team_of = np.array(team_of, dtype=np.int64).reshape(r, n)
        self.n_slots = np.array(n_slots, dtype=np.int64).reshape(r)
        s, at = int(self.n_slots.max()), np.arange(r)[:, None]
        groups = np.stack([i.groups for i in self.instances])
        self.groups = groups.ravel()
        self._in_group = (groups == np.arange(m)[:, None, None]).reshape(m, -1)
        self._skills = np.stack([i.skills.T for i in self.instances],
                                1).reshape(k, -1)

        # float counts: the divisions by team sizes need no casts
        slot_at = (self.team_of + s * at).ravel()  # on the flat slot axis
        self.sizes = np.bincount(slot_at, minlength=r * s).reshape(r, s) * 1.0
        self.active = self.sizes > 0
        self.n_active = self.active.sum(axis=1)
        self.sums = np.zeros((k, r * s))
        np.add.at(self.sums.T, slot_at, self._skills.T)
        self.defic = np.where(self.active, _deficiency(
            self.sums.copy(), spec.requirements).reshape(r, s), 0.0)
        # each over its roster's own slots or students, as a lone solve
        self.defic_total = np.array([row[:count].sum() for row, count
                                     in zip(self.defic, self.n_slots)])

        # benefit_vs_team[i, l]: teammates-of-l that student i benefits
        # from; benefit_to_team[q, i, l]: group-q members of l that benefit
        # from i. Counts of b's entries over runs of the students sorted by
        # (slot, group), exact, so batching keeps each roster's bits
        key = slot_at * m + self.groups
        order = key.argsort(kind="stable")
        runs = np.flatnonzero(np.diff(key.take(order), prepend=-1))
        slot, group = np.divmod(key.take(order.take(runs)), m)
        first = np.flatnonzero(np.diff(slot, prepend=-1))  # each slot's
        mates, (roster, slot) = np.divmod(order, n), np.divmod(slot, s)
        self.benefit_vs_team = np.zeros((r * n, s), dtype=_COUNT)
        self.benefit_vs_team.reshape(r, n, s)[roster[first], :, slot[
            first]] = np.add.reduceat(self.b[mates[0], :, mates[1]],
                                      runs[first], dtype=_COUNT)
        self.benefit_to_team = np.zeros((m, r * n, s), dtype=_COUNT)
        self.benefit_to_team.reshape(m, r, n, s)[group, roster, :, slot] = \
            np.add.reduceat(self.b[mates], runs, dtype=_COUNT)
        rows, n_team = np.arange(r * n), self.sizes.take(slot_at)
        own = self.benefit_vs_team[rows, self.team_of.ravel()]
        # share of teammates each benefits from (own is 0 for a lone one)
        self.ind = own / np.maximum(n_team - 1, 1.0)
        self.ind_total = np.array([row.sum() for row in self.ind.reshape(r, n)])
        # each student's group on the flat (roster, group) axis
        self._group_at = self.groups + m * np.repeat(np.arange(r), n)
        self.group_counts = np.bincount(
            self._group_at, minlength=r * m).reshape(r, m) * 1.0
        self.group_sums = np.bincount(self._group_at, weights=self.ind,
                                      minlength=r * m).reshape(r, m)
        # own_by_group[q, l]: benefit_vs_team[:, l] over l's group q
        self.own_by_group = np.zeros((m, r * s))
        np.add.at(self.own_by_group, (self.groups, slot_at), own)
        self._src_delta, self._def_src_new = (np.empty((m, r * n)),
                                              np.empty(r * n))
        self._group_delta = np.empty((m, r * n, s))
        self._def_dest_new = np.empty((r * n, s))
        # flat (rows, cols) of each unread apply, and the rosters they move
        # (_stale); the build queues all, so one refresh fills each cell once
        self._pending = [(rows, np.arange(r * s))]
        self._refresh()

    @classmethod
    def from_assignment(cls, instances, spec: TaskSpec, b,
                        assignments) -> "SolverState":
        return cls(instances, spec, b, [a.team_of for a in assignments],
                   [a.n_teams for a in assignments])

    def _refresh(self):
        """Recompute the terms and cells of the union of the queued rows and
        cols, with each row's src, n_src and own_vs_src (its team, its size,
        its benefit in it) from the state."""
        pending, self._pending, self._stale = self._pending, [], set()
        if not pending:
            return
        (r, n), (m, s) = self.team_of.shape, self._group_delta.shape[::2]
        rows, cols = pending[0]
        if len(pending) > 1:
            rows, cols = (np.flatnonzero(np.bincount(np.concatenate(part),
                                                     minlength=size))
                          for part, size in zip(zip(*pending),
                                                (r * n, r * s)))
        roster, slot = rows // n, self.team_of.take(rows)
        src = roster * s + slot
        n_src = self.sizes.take(src)
        own_vs_src = self.benefit_vs_team[rows, slot]
        own, sizes, req = self.own_by_group, self.sizes, self.spec.requirements
        # per slot: max(size, 1) and each group's current mean share
        safe = np.maximum(sizes, 1.0)
        stay = own / np.maximum(sizes.reshape(-1) - 1, 1.0)
        # what each student leaves behind: its team's change per group ...
        in_group = self._in_group.take(rows, 1)
        left = own.take(src, 1) - in_group * own_vs_src
        # in a team of one or two, left equals benefit_to (both count the
        # partner's benefit from the student), so the new share is 0
        new = ((left - self.benefit_to_team[:, rows, slot])
               / np.maximum(n_src - 2, 1.0))
        self._src_delta[:, rows] = src_delta = new - left / np.maximum(
            n_src - 1, 1.0)
        # ... and its team's deficiency without it (0 once it is empty)
        self._def_src_new[rows] = _deficiency(
            self.sums.take(src, 1) - self._skills.take(rows, 1), req
        ) * (n_src > 1)

        d = own.reshape(m, r, s).take(roster, 1)  # its own roster's slots
        d += self.benefit_to_team.take(rows, 1)
        self._group_delta[:, rows] = _group_change(
            d, safe.take(roster, 0), stay.reshape(m, r, s).take(roster, 1),
            src_delta[:, :, None], self.benefit_vs_team.take(rows, 0),
            self.ind.take(rows)[:, None], in_group[:, :, None])
        del d
        # each column's cells, (C, N): its roster's students in that slot
        roster, slot = np.divmod(cols, s)
        if rows.size < r * n:  # else every cell is already fresh
            cells = (slice(None), roster, slice(None), slot)  # as (C, m, N)
            self._group_delta.reshape(m, r, n, s)[cells] = _group_change(
                self.benefit_to_team.reshape(m, r, n, s)[cells].transpose(
                    1, 0, 2) + own.take(cols, 1)[:, :, None],
                safe.take(cols)[:, None], stay.take(cols, 1)[:, :, None],
                self._src_delta.reshape(m, r, n).take(roster, 1),
                self.benefit_vs_team.reshape(r, n, s)[roster, :, slot],
                self.ind.reshape(r, n).take(roster, 0),
                self._in_group.reshape(m, r, n).take(roster, 1)
            ).transpose(1, 0, 2)
        dest = self._skills.reshape(self.k, r, n).take(roster, 1)
        dest += self.sums.take(cols, 1)[:, :, None]  # a + b is b + a
        self._def_dest_new.reshape(r, n, s)[roster, :, slot] = _deficiency(
            dest, req)

    def clone(self) -> "SolverState":
        self._refresh()
        other = object.__new__(SolverState)
        # shared arrays; the queue is empty after _refresh
        other.__dict__.update(self.__dict__, _pending=[], _stale=set())
        for name in ("team_of", "sizes", "active", "n_active", "sums",
                     "defic", "defic_total", "benefit_vs_team",
                     "benefit_to_team", "ind", "ind_total", "group_sums",
                     "own_by_group", "_src_delta", "_def_src_new",
                     "_group_delta", "_def_dest_new"):
            setattr(other, name, getattr(self, name).copy())
        return other

    def objective(self) -> ObjectiveBreakdown:
        """x, y, z and f, (R,) arrays: each roster's terms in the order of
        np.var and core.objective."""
        means = self.group_sums / self.group_counts
        x = self.defic_total / (self.n_active * self.k)
        y, spec = self.ind_total / self.n, self.spec
        means -= _pairwise_sum(list(means.T))[:, None] / self.m  # np.var
        z = _pairwise_sum(list(np.square(means, out=means).T)) / self.m
        return ObjectiveBreakdown(x, y, z, x - spec.gamma * y + spec.delta * z)

    def assignments(self) -> list[Assignment]:
        return [compact_assignment(row) for row in self.team_of]

    def gain_matrix(self, locked: np.ndarray | None = None) -> np.ndarray:
        """(R', L, slots) gains of the R' rosters, ascending, that have a
        student not set in the bool (R, N) mask locked (each must have L):
        row j is a roster's j-th unlocked student in ascending order. -inf
        where invalid (the student's own team, inactive slots)."""
        self._refresh()
        (r, n), (m, s) = self.team_of.shape, self._group_delta.shape[::2]
        free = np.ones((r, n), dtype=bool) if locked is None else ~locked
        counts = free.sum(axis=1).tolist()
        part = [at for at, count in enumerate(counts) if count]
        # (R', L) flat rows; the reshape fails unless each has the same L
        live = free.ravel().nonzero()[0].reshape(len(part), max(counts))
        part = slice(None) if len(part) == r else part  # views if all
        src = self.team_of.take(live)
        src_at = src + (live // n) * s
        empties = self.sizes.take(src_at) == 1

        # the new benefit sum, each group's new mean benefit, and z
        g = self._group_delta.take(live, 1)
        y_new = _pairwise_sum(list(g)) + self.ind_total[part, None, None]
        g += self.group_sums[part].T[:, :, None, None]
        g /= self.group_counts[part].T[:, :, None, None]
        mean = _pairwise_sum(list(g))  # each group's mean, in place: with
        g -= np.divide(mean, m, out=mean)  # m = 1 it is g[0], and x / 1 is x
        del mean
        z_new = _pairwise_sum(list(np.square(g, out=g)))
        del g
        z_new /= m
        y_new /= n

        x_new = np.subtract((self.defic_total[part, None]
                             - self.defic.take(src_at))[:, :, None],
                            self.defic[part, None])
        x_new += self._def_src_new.take(live)[:, :, None]
        x_new += self._def_dest_new.take(live, 0)
        x_new /= ((self.n_active[part, None] - empties)
                  * float(self.k))[:, :, None]

        # gains = f - (x_new - gamma * y_new + delta * z_new)
        y_new *= self.spec.gamma
        x_new -= y_new
        z_new *= self.spec.delta
        x_new += z_new
        gains = np.subtract(self.objective().f[part, None, None], x_new,
                            out=x_new)
        active = self.active[part]
        if not active.all():
            gains.transpose(0, 2, 1)[~active] = -np.inf
        gains.reshape(-1, s)[np.arange(live.size), src.ravel()] = -np.inf
        return gains

    def _check_move(self, student: int, dest: int, roster: int) -> int:
        """The move's source team; raises unless the move is a valid one."""
        if not (0 <= roster < len(self.instances) and 0 <= student < self.n):
            raise ValidationError(f"no student {student} in roster {roster}")
        src = int(self.team_of[roster, student])
        if dest == src or not (0 <= dest < self.n_slots[roster]
                               and self.active[roster, dest]):
            raise ValidationError(f"team {dest} is not another active team")
        return src

    def gain(self, student: int, dest: int, roster: int = 0) -> float:
        """Single-move gain: gain_matrix with every other student locked."""
        self._check_move(student, dest, roster)
        locked = np.ones(self.team_of.shape, dtype=bool)
        locked[roster, student] = False
        return float(self.gain_matrix(locked)[0, 0, dest])

    def apply(self, student: int, dest: int, roster: int = 0):
        """Move the roster's student, update the accumulators, and queue the
        refresh of two columns and two teams' rows for the next read."""
        src = self._check_move(student, dest, roster)
        n, s = self.n, self.sizes.shape[1]
        # this roster's students and slots on the flat axes, and its views
        at, mine, theirs = roster * s, slice(roster * s, roster * s + s), \
            slice(roster * n, roster * n + n)
        g, pair = int(self.groups[roster * n + student]), np.array([src, dest])
        sums, skill = self.sums[:, mine], self._skills[:, roster * n + student]
        sizes, team = self.sizes[roster], self.team_of[roster]
        active, defic = self.active[roster], self.defic[roster]

        sums[:, src] -= skill
        sums[:, dest] += skill
        sizes[src] -= 1
        sizes[dest] += 1
        if sizes[src] == 0:
            active[src] = False
            self.n_active[roster] -= 1
            sums[:, src] = 0.0
        # both teams' new deficiency, from the new sums while a refresh of
        # this roster waits
        self.defic_total[roster] -= defic[src] + defic[dest]
        if roster in self._stale:
            defic[pair] = _deficiency(
                sums[:, pair], self.spec.requirements) * active[pair]
        else:
            defic[src] = self._def_src_new[theirs][student]
            defic[dest] = self._def_dest_new[theirs][student, dest]
        self.defic_total[roster] += defic[src] + defic[dest]
        self._stale.add(roster)

        # integer counts, so these updates are exact
        own, b = self.own_by_group[:, mine], self.b[roster]
        vs_team = self.benefit_vs_team[theirs]
        to_team = self.benefit_to_team[:, theirs]
        own[:, src] -= to_team[:, student, src]
        own[g, src] -= vs_team[student, src]
        own[:, dest] += to_team[:, student, dest]
        own[g, dest] += vs_team[student, dest]
        vs_team[:, src] -= b[:, student]
        vs_team[:, dest] += b[:, student]
        to_team[g, :, src] -= b[student]
        to_team[g, :, dest] += b[student]
        team[student] = dest

        # both teams' members, src's first, each in ascending order
        left = (team == src).nonzero()[0]
        rows = np.concatenate((left, (team == dest).nonzero()[0]))
        slots = team.take(rows)
        n_team = sizes.take(slots)
        own = vs_team[rows, slots]
        ind = own / np.maximum(n_team - 1, 1.0)
        delta = ind - self.ind[theirs].take(rows)
        self.ind[theirs][rows] = ind
        self.ind_total[roster] += float(np.add.reduce(delta[:left.size]))
        self.ind_total[roster] += float(np.add.reduce(delta[left.size:]))
        np.add.at(self.group_sums[roster], self.groups[theirs].take(rows),
                  delta)
        self._pending.append((rows + roster * n, pair + at))


def _best_moves(state: SolverState, locked: np.ndarray) -> tuple:
    """(rosters, students, dests, gains) arrays: each live roster's
    row-major first maximum, in roster order."""
    gains = state.gain_matrix(locked)
    flat = gains.reshape(len(gains), -1)
    cells, at = flat.argmax(axis=1), np.arange(len(gains))
    live = np.flatnonzero(~locked).reshape(len(gains), -1)
    row, dests = np.divmod(cells, gains.shape[2])
    return (*np.divmod(live[at, row], state.n), dests, flat[at, cells])


def _merge_singletons(state: SolverState, merging: np.ndarray) -> np.ndarray:
    """In each merging roster, move each singleton's student, lowest slot
    first, to the team that minimizes the objective (ties to the lower
    slot); returns which rosters had a student move."""
    changed = np.zeros_like(merging)
    while True:
        single = state.sizes == 1
        single &= (merging & (state.n_active >= 2))[:, None]
        rosters = np.flatnonzero(single.any(axis=1))
        if rosters.size == 0:
            return changed
        slots = single[rosters].argmax(axis=1)
        students = (state.team_of[rosters] == slots[:, None]).argmax(axis=1)
        locked = np.ones(state.team_of.shape, dtype=bool)
        locked[rosters, students] = False
        rosters, students, dests, _ = _best_moves(state, locked)
        for move in zip(students.tolist(), dests.tolist(), rosters.tolist()):
            state.apply(*move)
        changed[rosters] = True


def _refine(instances, spec: TaskSpec, b, initial, step) -> list[Assignment]:
    """Run step(state, climbing) in rounds. It proposes (moves, lengths):
    roster r's (student, dest) moves moves[:, r, :lengths[r]], applied only
    if f recomputed from the assignment falls (rounding in the gains must
    not let a climb revisit an assignment). A roster that applied none
    merges its singletons and climbs again while a merge moves anyone."""
    state = SolverState.from_assignment(instances, spec, b, initial)
    climbing = np.ones(len(state.instances), dtype=bool)
    while climbing.any():
        moves, lengths = step(state, climbing)
        for roster in np.flatnonzero(lengths).tolist():
            labels = np.repeat(state.team_of[roster][None], 2, axis=0)
            students, dests = moves[:, roster, :lengths[roster]]
            labels[1, students] = dests
            f = objective_batch(state.instances[roster], spec,
                                state.b[roster], labels).f
            if f[1] < f[0]:
                for student, dest in zip(students.tolist(), dests.tolist()):
                    state.apply(student, dest, roster)
            else:
                lengths[roster] = 0
        climbing = (lengths > 0) | _merge_singletons(state,
                                                     climbing & (lengths == 0))
    return state.assignments()


def postprocess(instance: Instance, spec: TaskSpec, b: np.ndarray,
                assignment: Assignment) -> Assignment:
    """Merge each singleton team into its best team (a lone team stays)."""
    return _refine([instance], spec, [b], [assignment], lambda *_: (
        np.zeros((2, 1, 0), np.int64), np.zeros(1, np.int64)))[0]


def sahc(instance: Instance, spec: TaskSpec, b: np.ndarray,
         initial: Assignment) -> Assignment:
    """Steepest-ascent hill climbing (on a minimized objective): propose the
    best move while its gain is strictly positive."""

    def step(state: SolverState, climbing: np.ndarray) -> tuple:
        _, students, dests, gains = _best_moves(
            state, np.zeros(state.team_of.shape, dtype=bool))
        return np.stack((students, dests))[:, :, None], (gains > 0.0) * 1

    return _refine([instance], spec, [b], [initial], step)[0]


def _fmhc_pass(state: SolverState, climbing: np.ndarray,
               config: RefineConfig) -> tuple:
    """One pass of each climbing roster: tentatively move every student,
    then propose the roster's best prefix if its gain clears gain_epsilon.
    The state is left as it was."""
    work = state.clone()
    locked = np.repeat(~climbing[:, None], state.n, axis=1)
    # round i holds each roster's i-th move: it moves until its pass ends
    (r, n), i = locked.shape, 0
    moves, gains = np.zeros((2, r, n), dtype=np.int64), np.zeros((r, n))
    while not locked.all():
        rosters, students, dests, gain = _best_moves(work, locked)
        ended = gain == -np.inf
        if ended.any():  # these rosters' passes have ended
            locked[rosters[ended]] = True
            rosters, students, dests, gain = (
                part[~ended] for part in (rosters, students, dests, gain))
        locked[rosters, students] = True
        for move in zip(students.tolist(), dests.tolist(), rosters.tolist()):
            work.apply(*move)
        moves[:, rosters, i], gains[rosters, i] = (students, dests), gain
        i += 1
    # padded zeros repeat a total: the first maximum is the shortest prefix
    cumulative = gains.cumsum(axis=1)
    best = cumulative.argmax(axis=1)
    commit = cumulative[np.arange(r), best] > config.gain_epsilon
    return moves, np.where(commit, best + 1, 0)


def fmhc(instance, spec: TaskSpec, b, initial,
         config: RefineConfig | None = None, stats: dict | None = None):
    """Pass-based refinement with uphill moves and prefix commits. Given
    lists of instances, benefit matrices and initial assignments (rosters
    of one size, group count and skill count, under one spec), it refines
    them in lockstep, in blocks of consecutive rosters, and returns a list;
    stats["passes"] sums their passes."""
    config = config or RefineConfig()
    stats = {} if stats is None else stats
    stats["passes"] = 0

    def step(state: SolverState, climbing: np.ndarray) -> tuple:
        stats["passes"] += int(climbing.sum())
        return _fmhc_pass(state, climbing, config)

    if isinstance(instance, Instance):
        return _refine([instance], spec, [b], [initial], step)[0]
    # consecutive blocks of rosters whose cell caches fit in _BATCH_BYTES
    per = max(1, _BATCH_BYTES // (8 * instance[0].m * instance[0].n * max(
        a.n_teams for a in initial)))
    return [result for at in range(0, len(instance), per)
            for result in _refine(instance[at:at + per], spec,
                                  b[at:at + per], initial[at:at + per], step)]
