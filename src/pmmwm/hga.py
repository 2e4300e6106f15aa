"""Hybrid genetic algorithm with an elite strategy for the partition stage.

Optimizes a partition for a fixed matching. The matched weights are one
int64 vector ``w`` indexed by U-vertex, and a partition is one int64 array
``part`` with ``part[u]`` the partition of vertex u; all sums are exact
integer arithmetic. Fitness is the vector of partition weights sorted
descending, compared lexicographically: entry 0 is the min-max objective and
the deeper entries break ties toward better balance, which lets the search
escape plateaus where only a lighter partition can improve. A strictly
smaller objective always means strictly smaller fitness, so the ordering is
consistent with the problem's objective.

Population flow per generation: the best ``elite_count`` individuals survive
verbatim; the rest are produced by binary-tournament selection, greedy
partition crossover, mutation and two-level local search. Everything is
driven by one seeded ``random.Random``, so identical inputs give bit-identical
results. A generation takes all its draws first: each child's two
tournaments, the mutation's coin and item (``mutation_site``) and, only for
a fired mutation with a partition to take the item, the target index, for
which that child is crossed at once. Then the other children are crossed,
and all of them searched, each in one batched pass (below).

``evolve`` starts from ``init_population``'s constructions or from the final
population an earlier call returned, and gives both one start step: every
part is scored on the call's ``w``, then the parts are improved by the local
search once each, in order, through the call's memo below, so a part held in
several copies costs one search. Part 0 is searched first; only when it
misses the lower bound below are the others searched, in one batch. The
improving stops at the first part that reaches the bound, which is then the
call's best, or once the deadline has passed; the rest join the population
scored but not improved. A fresh call builds only its part 0, the LPT
construction, before that search. When the search reaches the bound, the
other members are built only when the returned population is first read, so
a run that ends there never builds them. The outer solver changes its
matching by one ban per iteration, so only a few weights move between calls
and a carried population starts close to converged (reusing a population
when the fitness function shifts: Grefenstette, "Genetic algorithms for
changing environments", PPSN 1992).

Once the population converges, the generations breed the same children again.
``evolve`` therefore gives ``gpx_crossover`` and ``mls_improve`` one memo each
for the length of the call: the crossover is keyed by its two parents' parts,
the local search by its input part, with None recorded for "no move". Within
one call ``w``, m and ubar are fixed and both operators are pure functions of
the keyed parts, so every child is bit-identical to an un-memoized run. The
stored individuals' arrays are read-only, and both memos are freed when
``evolve`` returns. The memo lives inside the operators, so each child still
costs one call of each, and a tracer counting calls sees the same counts.

The memo misses are filled in batches. ``_gpx_batch`` runs the crossover
rounds of a generation's missing parent pairs on one P x m x m cross table,
and ``_mls_batch`` runs the local searches of its missing children, and of
the start parts after part 0, in lockstep. Each gives every member the
single operator's result, and only fills the memo, so the operator calls
that follow are reads. A pass runs only while at least ``_BATCH_MIN``
members share it: fewer misses, or the last rows of a lockstep search, are
left to the single operators, as is every crossover with
sum(w) * m >= 2**63, where the int64 pass could wrap.

No partition of ``w`` into m parts has an objective below
max(ceil(sum(w) / m), max(w)): the heaviest part holds at least the average
and at least the heaviest item (the classic multi-way number-partitioning
bound; the capacity ubar only removes partitions). Once an individual
reaches it the partition is proven optimal: the start step improves no
further individual, and ``evolve`` starts no generation. Other start parts
may sit at the bound too, scored but not improved, some with a smaller
fitness; the first part whose search reaches the bound is still the best.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .numpart import (_lightest_open, greedy_in_order, greedy_lpt, kk_multiway, part_sums,
                      parts_for)


@dataclass
class HgaParams:
    pop_size: int = 20
    max_generations: int = 200
    # Swept 1/3/5/10/20 on small and tight runs: 5 gave the lowest objective sum, at half 20's time.
    stall_limit: int = 5
    rng_seed: int = 0
    # Constants: no caller set other values; rate 0 was neutral in every measured run.
    elite_count: ClassVar[int] = 1
    mutation_rate: ClassVar[float] = 0.2

    def validate(self) -> None:
        if self.pop_size < 2:  # also keeps elite_count < pop_size
            raise ValueError("pop_size must be >= 2")
        if self.max_generations < 0 or self.stall_limit < 1:
            raise ValueError("need max_generations >= 0 and stall_limit >= 1")


@dataclass(frozen=True, eq=False)
class Individual:
    """A partition ``part`` and its fitness; m is ``len(fitness)``. Compared
    by identity, since ``part`` is an array."""

    part: np.ndarray
    fitness: tuple[int, ...]


class Evolution(NamedTuple):
    """What ``evolve`` returns: the best individual ever seen and the final
    population, which a later call on changed weights may start from.
    ``fitness`` is the best's, for callers that want only the objective."""

    best: Individual
    population: Sequence[Individual]

    @property
    def fitness(self) -> tuple[int, ...]:
        return self.best.fitness


def fitness_of(part, w: np.ndarray, m: int) -> tuple[int, ...]:
    """Partition sums sorted descending, as Python ints."""
    return tuple(sorted(part_sums(part, w, m).tolist(), reverse=True))


# ---------------------------------------------------------------------------
# Multilevel local search
#
# Every move takes weight off the heaviest partition h and puts it on one
# other partition k, so it changes exactly two sums: (s_h, s_k) becomes
# (s_h - d, s_k + d) for the net weight d the move shifts. With the rest of
# the multiset fixed, the lexicographic order of the full sorted vectors
# equals the order of the sorted changed pairs (all other entries cancel out
# of the comparison), so a move improves iff (hi, lo) < (s_h, s_k) with
# hi >= lo the new pair. The pair keeps its total, so hi == s_h forces
# lo == s_k, and the test is hi < s_h: 0 < d < s_h - s_k. ``_improves``
# applies it to a whole array of moves at once for both levels. Each level
# evaluates its move set with array operations and picks the same move as a
# scan in the order its docstring gives. The paper's third level, trading
# two items of h for one, is left out: it has no legal move at full capacity
# (n == m * ubar) and changed no objective in any measured run.

def _improves(s_h, delta: np.ndarray, s_k: np.ndarray) -> np.ndarray:
    """Mask of the moves that shift ``delta`` from h (sum s_h, the maximum)
    to partitions with sums ``s_k`` and lower the sorted fitness vector."""
    return (delta > 0) & (delta < s_h - s_k)


def _l1_relocate(part, w, sums, sizes, m, ubar, h, h_items) -> bool:
    """Best-improvement relocation of one item x of h to a partition k != h
    with room.

    Scan order: x ascending, then k ascending. Of the improving moves the
    one whose whole sorted sums vector is lexicographically smallest wins;
    ties go to the first in scan order (a stable lexsort of one sorted row
    per improving move, also when there is one).
    """
    ks = np.flatnonzero((sizes < ubar) & (np.arange(m) != h))
    improving = _improves(sums[h], w[h_items][:, None], sums[ks][None, :])
    xi, ki = np.nonzero(improving)
    if xi.size == 0:  # also when no other partition has room, as at n = m * ubar
        return False
    rows = np.repeat(sums[None, :], xi.size, axis=0)
    moved = w[h_items[xi]]
    rows[:, h] -= moved
    rows[np.arange(xi.size), ks[ki]] += moved
    rows = -np.sort(-rows, axis=1)
    best = np.lexsort(rows.T[::-1])[0]
    x, k = int(h_items[xi[best]]), int(ks[ki[best]])
    part[x] = k
    sums[h] -= w[x]
    sums[k] += w[x]
    sizes[h] -= 1
    sizes[k] += 1
    return True


def _l2_swap(part, w, sums, sizes, m, ubar, h, h_items) -> bool:
    """First-improvement swap of an item x of h with an item y outside h.

    Scan order: x ascending, then y ascending (row-major over one
    |h| x (items outside h) mask).
    """
    others = np.flatnonzero(part != h)
    delta = w[h_items][:, None] - w[others][None, :]
    improving = _improves(sums[h], delta, sums[part[others]][None, :])
    if not improving.any():
        return False
    i, j = divmod(int(np.argmax(improving)), others.size)
    x, y = int(h_items[i]), int(others[j])
    k = int(part[y])
    part[x] = k
    part[y] = h
    sums[h] += w[y] - w[x]
    sums[k] += w[x] - w[y]
    return True


_LEVEL_FUNCS = {1: _l1_relocate, 2: _l2_swap}


def _descend(part, w, sums, sizes, m, ubar, levels) -> bool:
    """The descent of ``mls_improve`` on ``part`` and its ``sums`` and
    ``sizes``, all updated in place; True when a move was made."""
    funcs = [_LEVEL_FUNCS[lv] for lv in levels]
    moved_any = False
    while True:
        h = int(np.argmax(sums))
        h_items = np.flatnonzero(part == h)  # levels only read part until one moves
        for func in funcs:
            if func(part, w, sums, sizes, m, ubar, h, h_items):
                moved_any = True
                break
        else:
            return moved_any


def _remember(memo: dict, key, ind: Individual | None) -> None:
    """Store ``ind`` under ``key``. Every later hit shares its ``part``, so
    the array is made read-only: an in-place write raises instead of
    corrupting the memo."""
    if ind is not None:
        ind.part.flags.writeable = False
    memo[key] = ind


def mls_improve(ind: Individual, w: np.ndarray, ubar: int,
                levels: tuple[int, ...] = (1, 2), *,
                memo: dict | None = None) -> Individual:
    """Multilevel descent on the heaviest partition (ties: lowest index).

    Level 1 relocates one item (best improvement), level 2 swaps one item
    with another partition's (first improvement). A move counts as improving
    iff it lexicographically lowers the fitness vector; after every
    improvement the descent restarts at level 1 and it stops when the deepest
    level finds nothing. The result is a fixed point: applying mls_improve
    again returns an equal individual. When no move applies, ``ind`` itself
    is returned.

    ``levels`` restricts the neighborhoods (the comparison baseline uses
    ``(1,)`` for a relocation-only descent).

    ``memo`` maps ``part.tobytes()`` to the result, or to None for "no
    move", which returns ``ind`` itself on a hit as well. Its entries are
    valid only for one ``w``, ``ubar``, ``levels`` and m.
    """
    m = len(ind.fitness)
    if memo is not None:
        key = ind.part.tobytes()
        if key in memo:
            hit = memo[key]
            return ind if hit is None else hit
    part = ind.part.copy()
    sums = part_sums(part, w, m)
    moved_any = _descend(part, w, sums, np.bincount(part, minlength=m), m, ubar, levels)
    result = Individual(part, fitness_of(part, w, m)) if moved_any else None
    if memo is not None:
        _remember(memo, key, result)
    return ind if result is None else result


# ---------------------------------------------------------------------------
# Genetic operators

def gpx_crossover(a: Individual, b: Individual, w: np.ndarray,
                  m: int, ubar: int, *, memo: dict | None = None) -> Individual:
    """Greedy partition crossover.

    The child is built in m rounds with alternating donors (``a`` first).
    Round r copies, from the donor's partitions restricted to
    still-unassigned items, the one whose restricted weight x minimizes
    |x * (m - r) - remaining total| (the one closest to the ideal share,
    ties to the lowest index) into child partition r. Leftover items are
    then placed heaviest-first into the lightest partition with spare
    capacity, so the child is always feasible. The construction is
    deterministic.

    An item is free until its partition in either donor has been taken, so
    the rounds run on one m x m cross table: ``cross[i, j]`` is the weight
    of the free items in partition i of ``a`` and partition j of ``b``. A
    donor's restricted sums are the table's row (``a``) or column (``b``)
    sums. Taking a partition subtracts its row from the column sums (or its
    column from the row sums) and zeroes it, so a round costs O(m) and no
    pass over the items. A round may take a partition again: its line is
    already zero, so that changes nothing, and the first round that took
    it is kept. Each item's child partition is the first round that took
    either of its donor partitions. The table only changes how the
    restricted sums are found; the selection rule is the one above,
    evaluated on Python ints, so ``x * (m - r)`` cannot overflow.

    ``memo`` maps ``(a.part.tobytes(), b.part.tobytes())`` to the child;
    its entries are valid only for one ``w``, m and ``ubar``.
    """
    if memo is not None:
        key = (a.part.tobytes(), b.part.tobytes())
        if key in memo:
            return memo[key]
    cross = np.zeros((m, m), dtype=np.int64)
    np.add.at(cross, (a.part, b.part), w)
    tables = (cross, cross.T)  # rows are a's partitions, then b's
    line_sums = [cross.sum(axis=1), cross.sum(axis=0)]  # row sums of tables[s]
    taken_in = ([m] * m, [m] * m)  # round that took each partition; m: never
    sums = [0] * m
    remaining_total = int(w.sum())
    for r in range(m):
        s = r % 2
        restricted = line_sums[s].tolist()
        gaps = [abs(x * (m - r) - remaining_total) for x in restricted]
        best_k = gaps.index(min(gaps))
        taken_in[s][best_k] = min(taken_in[s][best_k], r)
        line_sums[1 - s] -= tables[s][best_k]
        line_sums[s][best_k] = 0
        tables[s][best_k] = 0
        sums[r] = restricted[best_k]
        remaining_total -= sums[r]

    child = np.minimum(np.array(taken_in[0])[a.part], np.array(taken_in[1])[b.part])
    sizes = np.bincount(child, minlength=m + 1).tolist()  # sizes[m]: leftovers
    leftovers = np.flatnonzero(child == m)
    for u in leftovers[np.argsort(-w[leftovers], kind="stable")].tolist():
        best = _lightest_open(sums, sizes, ubar)  # sums has m entries: sizes[m] is never read
        child[u] = best
        sums[best] += int(w[u])
        sizes[best] += 1
    result = Individual(child, tuple(sorted(sums, reverse=True)))
    if memo is not None:
        _remember(memo, key, result)
    return result


def mutation_site(n: int, rate: float, rng: random.Random) -> int | None:
    """The first two draws of a mutation of an n-item individual: with
    probability ``rate`` the uniformly random item it relocates, else None
    (rate 0 draws nothing). They do not depend on the individual, so a
    caller can take them before the individual exists."""
    if rate <= 0.0 or rng.random() >= rate:
        return None
    return rng.randrange(n)


def mutate(ind: Individual, w: np.ndarray, ubar: int,
           u: int | None, rng: random.Random) -> Individual:
    """Relocate item ``u`` (from ``mutation_site``) to a uniformly random
    different partition with spare capacity; with ``u`` None, or no legal
    target, ``ind`` itself is returned and nothing is drawn. The draws are
    the coin and the item (``mutation_site``), then the target index.
    Always feasible."""
    if u is None:
        return ind
    m = len(ind.fitness)
    cur = ind.part[u]
    sizes = np.bincount(ind.part, minlength=m)
    targets = [k for k in range(m) if k != cur and sizes[k] < ubar]
    if not targets:
        return ind
    part = ind.part.copy()
    part[u] = targets[rng.randrange(len(targets))]
    return Individual(part, fitness_of(part, w, m))


# ---------------------------------------------------------------------------
# Batched operators
#
# A generation's memo misses computed in one pass: each step of the single
# operators above runs on a stack of P individuals that share w, m and ubar,
# with the same rules and tie-breaks, so row p of a batch equals the single
# operator's result for member p. One rule picks a pass over the single
# operators: it runs only while at least _BATCH_MIN members share it, in
# ``_fill``'s batches and in ``_mls_batch``'s descent, since a pass costs
# about as much as 3 single calls of either operator (timed at n = 48,
# m = 24, ubar = 2). A member's largest arrays hold m * m cells (the cross
# table) or n * ubar (the search's moves of h's items), so a batch is cut to
# at most _BATCH_CELLS of them, 8 MB as int64.

_BATCH_MIN = 3
_BATCH_CELLS = 1 << 20


def _gpx_batch(a_parts: np.ndarray, b_parts: np.ndarray, w: np.ndarray,
               m: int, ubar: int) -> tuple[np.ndarray, np.ndarray]:
    """``gpx_crossover`` of the parent rows ``a_parts[p]``, ``b_parts[p]``
    (P x n): the children (P x n) and their partition sums (P x m).

    The rounds run on a P x m x m cross table, and the gaps
    |x * (m - r) - R| are int64: the caller keeps sum(w) * m < 2**63, so no
    product can wrap. argmin takes the lowest index on ties. The leftovers
    are placed in lockstep, the t-th of every child at step t."""
    count, n = a_parts.shape
    rows = np.arange(count)
    cross = np.zeros((count, m, m), dtype=np.int64)
    np.add.at(cross.reshape(-1), ((rows[:, None] * m + a_parts) * m + b_parts).ravel(),
              np.tile(w, count))
    line = np.stack([cross.sum(axis=2), cross.sum(axis=1)])  # a's row, b's column sums
    chosen = np.empty((count, m), dtype=np.int64)  # the donor partition of each round
    sums = np.zeros((count, m), dtype=np.int64)
    remaining = np.full(count, int(w.sum()), dtype=np.int64)
    for r in range(m):
        s = r % 2
        best_k = np.abs(line[s] * (m - r) - remaining[:, None]).argmin(axis=1)
        x = line[s, rows, best_k]
        if s == 0:
            line[1] -= cross[rows, best_k, :]
            cross[rows, best_k, :] = 0
        else:
            line[0] -= cross[rows, :, best_k]
            cross[rows, :, best_k] = 0
        line[s, rows, best_k] = 0
        chosen[:, r] = best_k
        sums[:, r] = x
        remaining -= x

    child = np.full((count, n), m, dtype=np.int64)
    for s, donor in enumerate((a_parts, b_parts)):
        taken_in = np.full((count, m), m, dtype=np.int64)  # round that took each; m: never
        np.minimum.at(taken_in, (rows[:, None], chosen[:, s::2]), np.arange(s, m, 2))
        np.minimum(child, taken_in[rows[:, None], donor], out=child)
    sizes = np.bincount((rows[:, None] * (m + 1) + child).ravel(),
                        minlength=count * (m + 1)).reshape(count, m + 1)  # column m: leftovers
    order = np.argsort(-w, kind="stable")
    left_p, left_j = np.nonzero(child[:, order] == m)  # each child's leftovers, heaviest first
    left_u = order[left_j]
    step = np.arange(left_p.size) - (np.cumsum(sizes[:, m]) - sizes[:, m])[left_p]
    by_step = np.argsort(step, kind="stable")
    bounds = np.cumsum(np.bincount(step)).tolist()
    full = np.iinfo(np.int64).max
    for lo, hi in zip([0] + bounds, bounds):
        p, u = left_p[by_step[lo:hi]], left_u[by_step[lo:hi]]
        k = np.where(sizes[p, :m] < ubar, sums[p], full).argmin(axis=1)
        child[p, u] = k
        sums[p, k] += w[u]
        sizes[p, k] += 1
    return child, sums


def _mls_batch(parts: np.ndarray, w: np.ndarray, m: int,
               ubar: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``mls_improve`` with levels (1, 2) of every row of ``parts`` (P x n),
    in lockstep: the improved parts, their sums and which rows moved.

    Each step finds the heaviest partition h of every active row, applies
    level 1 where it has a move and level 2 to the rest, and retires the
    rows where neither moves. The moves are laid out as in the single
    levels, over each row's items of h (ascending, padded to the longest
    row): level 1 orders its moves (x, k) by their whole sorted sums vector,
    then by scan order, and level 2 takes the first improving (x, y) in
    row-major order. The steps run while at least ``_BATCH_MIN`` rows are
    active; the rows still active then finish on the single levels. n >= 1."""
    count, n = parts.shape
    part = parts.copy()
    flat = (np.arange(count)[:, None] * m + part).ravel()
    sums = np.zeros(count * m, dtype=np.int64)
    np.add.at(sums, flat, np.tile(w, count))
    sums = sums.reshape(count, m)
    sizes = np.bincount(flat, minlength=count * m).reshape(count, m)
    moved = np.zeros(count, dtype=bool)
    active = np.arange(count)
    while active.size >= _BATCH_MIN:
        q = np.arange(active.size)
        s = sums[active]
        h = s.argmax(axis=1)
        s_h = s[q, h][:, None, None]
        p_act = part[active]
        in_h = p_act == h[:, None]
        c = in_h.sum(axis=1)
        # h_items[i, :c[i]] are row i's items of h, ascending; at least one
        # column, as level 2's argmax needs one when h is empty in every row (w == 0)
        h_items = np.argsort(~in_h, axis=1, kind="stable")[:, :max(c.max(), 1)]
        valid = (np.arange(h_items.shape[1]) < c[:, None])[:, :, None]
        w_x = w[h_items][:, :, None]
        went = np.zeros(active.size, dtype=bool)
        # level 1: relocate x of h to k != h with room
        room = sizes[active] < ubar
        room[q, h] = False
        i, xi, k = np.nonzero(valid & room[:, None, :] & _improves(s_h, w_x, s[:, None, :]))
        if i.size:  # (i, xi, k) is in scan order within each row
            x = h_items[i, xi]
            # each row's smallest sorted sums vector first, ties in scan order
            cand = s[i]
            cand[np.arange(i.size), h[i]] -= w[x]
            cand[np.arange(i.size), k] += w[x]
            cand = -np.sort(-cand, axis=1)
            pick = np.lexsort((*cand.T[::-1], i))
            i, x, k = i[pick], x[pick], k[pick]
            first = np.r_[True, i[1:] != i[:-1]]
            i, x, k = i[first], x[first], k[first]
            p = active[i]
            part[p, x] = k
            sums[p, h[i]] -= w[x]
            sums[p, k] += w[x]
            sizes[p, h[i]] -= 1
            sizes[p, k] += 1
            went[i] = True
        # level 2: swap x of h with y outside h, on the rows level 1 left
        j = np.nonzero(~went)[0]
        improving = (valid[j] & ~in_h[j][:, None, :]
                     & _improves(s_h[j], w_x[j] - w, s[j[:, None], p_act[j]][:, None, :]))
        improving = improving.reshape(j.size, h_items.shape[1] * n)
        found = improving.any(axis=1)
        j = j[found]
        xi, y = np.divmod(improving[found].argmax(axis=1), n)
        x = h_items[j, xi]
        p = active[j]
        k = part[p, y]
        part[p, x] = k
        part[p, y] = h[j]
        sums[p, h[j]] += w[y] - w[x]
        sums[p, k] += w[x] - w[y]
        went[j] = True
        moved[active[went]] = True
        active = active[went]
    for p in active.tolist():
        moved[p] |= _descend(part[p], w, sums[p], sizes[p], m, ubar, (1, 2))
    return part, sums, moved


def _fill(memo: dict, misses, cells: int, kernel) -> None:
    """Store in ``memo`` what ``kernel`` (a list of rows -> one value each)
    gives for the ``(key, row)`` misses whose keys it lacks, in batches of
    ``_BATCH_MIN`` to ``_BATCH_CELLS // cells`` rows (``cells``: one row's
    largest array); the rest stay misses for the single operator, and so
    do all of them when ``cells`` is 0 (an empty ``w``)."""
    size = _BATCH_CELLS // cells if cells else 0
    if size < _BATCH_MIN:
        return
    missing = list({key: row for key, row in misses if key not in memo}.items())
    for lo in range(0, len(missing) - _BATCH_MIN + 1, size):
        keys, rows = zip(*missing[lo:lo + size])
        for key, value in zip(keys, kernel(rows)):
            _remember(memo, key, value)


def _cross_misses(pairs: list[tuple[Individual, Individual]], w: np.ndarray,
                  m: int, ubar: int, memo: dict) -> None:
    """Store in ``memo`` the ``_gpx_batch`` children of the pairs it lacks
    (keys and values as ``gpx_crossover``'s); none when sum(w) * m >= 2**63,
    where an int64 gap could wrap and ``gpx_crossover`` stays exact."""
    if int(w.sum()) * m >= 1 << 63:
        return

    def cross(rows):
        children, sums = _gpx_batch(*(np.stack(side) for side in zip(*rows)), w, m, ubar)
        return [Individual(child, tuple(fit))
                for child, fit in zip(children, (-np.sort(-sums, axis=1)).tolist())]

    _fill(memo, (((a.part.tobytes(), b.part.tobytes()), (a.part, b.part)) for a, b in pairs),
          m * m, cross)


def _improve_misses(inds: list[Individual], w: np.ndarray, m: int, ubar: int,
                    memo: dict) -> None:
    """Store in ``memo`` the ``_mls_batch`` searches of the parts it lacks
    (keys and values as ``mls_improve``'s)."""
    def improve(rows):
        parts, sums, moved = _mls_batch(np.stack(rows), w, m, ubar)
        return [Individual(part, tuple(fit)) if changed else None for part, fit, changed
                in zip(parts, (-np.sort(-sums, axis=1)).tolist(), moved.tolist())]

    _fill(memo, ((ind.part.tobytes(), ind.part) for ind in inds),
          len(w) * min(ubar, len(w)), improve)


# ---------------------------------------------------------------------------
# Population management

def init_population(w: np.ndarray, m: int, ubar: int, params: HgaParams,
                    rng: random.Random | None = None, *,
                    lpt: Individual | None = None) -> list[Individual]:
    """The LPT seed, the KK seed, then ``pop_size - 2`` greedy constructions
    on shuffled item orders, each scored on ``w``; ``evolve`` improves them.
    ``lpt``, when given, is member 0 in place of a new LPT build: ``evolve``
    passes its part 0, searched or not. Raises ``InfeasibleInstance`` (from
    the constructions) when m * ubar < len(w)."""
    if rng is None:
        rng = random.Random(params.rng_seed)
    n = len(w)
    if lpt is None:
        part = greedy_lpt(w, m, ubar)
        lpt = Individual(part, fitness_of(part, w, m))
    parts = [kk_multiway(w, m, ubar)]
    while len(parts) < params.pop_size - 1:
        order = list(range(n))
        rng.shuffle(order)
        part = np.empty(n, dtype=np.int64)
        part[order] = greedy_in_order(w[order], m, ubar)
        parts.append(part)
    return [lpt] + [Individual(part, fitness_of(part, w, m)) for part in parts]


class _DeferredPopulation(Sequence):
    """A population of ``size`` individuals that ``build()`` returns on its
    first read; ``len`` builds nothing."""

    def __init__(self, size: int, build):
        self._size = size
        self._build = build
        self._members: list[Individual] | None = None

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        if self._members is None:
            self._members = self._build()
            self._build = None
        return self._members[i]


def _tournament(population: list[Individual], rng: random.Random) -> Individual:
    a = population[rng.randrange(len(population))]
    b = population[rng.randrange(len(population))]
    return a if a.fitness <= b.fitness else b


def evolve(w: np.ndarray, m: int, ubar: int, params: HgaParams, *,
           population: Sequence[Individual] | None = None,
           on_generation=None, deadline: float = math.inf) -> Evolution:
    """Run the generational loop and return the best individual ever seen
    (by fitness, save for the start step's rule below) with the final
    population.

    The capacity rule (``numpart.parts_for``) is checked first, on fresh
    and carried calls alike; m is used as given. The start population is
    ``init_population``'s or, when ``population`` is given, that population
    carried over from an earlier call; it must hold ``pop_size``
    individuals. Either way each start individual's part is scored on this
    ``w``, and then, in order, improved by ``mls_improve`` once, through the
    call's memo, until one of them reaches the lower bound
    max(ceil(sum(w) / m), max(w)): that one is proven optimal and is the
    call's best, even where a start part scored but not improved has a
    smaller fitness at the bound, and the rest join the population scored
    but not improved. The start parts are only read, so carried ones may be
    read-only.

    A fresh call builds and searches the LPT part first. When it reaches
    the bound, the returned population holds it as member 0, and its other
    ``pop_size - 1`` members are built only when it is first read (its
    ``len`` builds nothing), by ``init_population`` with its own
    ``Random(params.rng_seed)``: nothing else draws from the call's rng
    before the generations, so they are the members an eager build gives.
    Otherwise the rest is built around that part at once.

    ``on_generation`` is called as
    ``on_generation(gen, population, incumbent)`` after each generation; the
    incumbent's fitness is non-increasing across generations because the
    elite survives verbatim. ``deadline`` is a ``time.perf_counter()`` value
    checked before part 0's local search, before the batch of the other
    start parts' searches and before each generation: once it has passed,
    none of these starts. Building and scoring the start population are not
    interrupted, so a run ends at most one batch of start searches or one
    generation past the deadline, plus that time. A fresh call past its
    deadline searches nothing, so it builds and scores the whole population
    at once, and its best is the lowest fitness among them.

    No generation starts either once the best fitness[0] equals the bound,
    checked in the same place. When the start population already reaches it,
    ``on_generation`` is never called.
    """
    parts_for(len(w), m, ubar)
    params.validate()
    rng = random.Random(params.rng_seed)
    crossed: dict = {}
    improved: dict = {}
    bound = max(-(-int(w.sum()) // m), int(w.max(initial=0)))
    fresh = population is None
    if fresh:
        part = greedy_lpt(w, m, ubar)
        population = [Individual(part, fitness_of(part, w, m))]
    elif len(population) != params.pop_size:
        raise ValueError(f"population holds {len(population)} individuals, "
                         f"pop_size is {params.pop_size}")
    else:
        population = [Individual(ind.part, fitness_of(ind.part, w, m)) for ind in population]
    best = None
    if time.perf_counter() < deadline:  # checked before part 0's search
        population[0] = mls_improve(population[0], w, ubar, memo=improved)
        if population[0].fitness[0] == bound:
            best = population[0]
    if fresh:
        if best is not None:  # nothing else draws from rng, so a fresh one matches it
            w_at_call, params_at_call = w.copy(), replace(params)
            return Evolution(best, _DeferredPopulation(params.pop_size, lambda: init_population(
                w_at_call, m, ubar, params_at_call, lpt=best)))
        population = init_population(w, m, ubar, params, rng, lpt=population[0])
    if best is None and time.perf_counter() < deadline:  # and before the batch of the rest
        _improve_misses(population[1:], w, m, ubar, improved)
        for i in range(1, len(population)):
            population[i] = mls_improve(population[i], w, ubar, memo=improved)
            if population[i].fitness[0] == bound:
                best = population[i]
                break
    if best is None:
        best = min(population, key=lambda ind: ind.fitness)
    n = len(w)
    room = n < m * ubar  # else every partition is full and no mutation moves
    stall = 0
    for gen in range(params.max_generations):
        if stall >= params.stall_limit or best.fitness[0] == bound or time.perf_counter() >= deadline:
            break
        population.sort(key=lambda ind: ind.fitness)
        # Draw every child's parents and mutation first. Only a mutation's
        # target draw needs its child, which is then crossed at once.
        bred = []
        for _ in range(params.pop_size - params.elite_count):
            p1 = _tournament(population, rng)
            p2 = _tournament(population, rng)
            u = mutation_site(n, params.mutation_rate, rng)
            mutant = None
            if u is not None and room:
                mutant = mutate(gpx_crossover(p1, p2, w, m, ubar, memo=crossed), w, ubar, u, rng)
            bred.append((p1, p2, mutant))
        # a mutant's pair was crossed above, so it is already a memo hit
        _cross_misses([(p1, p2) for p1, p2, _ in bred], w, m, ubar, crossed)
        children = [gpx_crossover(p1, p2, w, m, ubar, memo=crossed) if mutant is None else mutant
                    for p1, p2, mutant in bred]
        _improve_misses(children, w, m, ubar, improved)
        population = population[:params.elite_count] + [
            mls_improve(child, w, ubar, memo=improved) for child in children]
        gen_best = min(population, key=lambda ind: ind.fitness)
        if gen_best.fitness < best.fitness:
            best = gen_best
            stall = 0
        else:
            stall += 1
        if on_generation is not None:
            on_generation(gen, population, best)
    return Evolution(best, population)
