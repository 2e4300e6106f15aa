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
results.

``evolve`` starts from ``init_population``'s constructions or from the final
population an earlier call returned, and gives both one start step: each
part is scored on the call's ``w`` and improved by the local search once,
through the call's memo below, so a part held in several copies costs one
search. The outer solver changes its matching by one ban per iteration, so
only a few weights move between calls and a carried population starts close
to converged (reusing a population when the fitness function shifts:
Grefenstette, "Genetic algorithms for changing environments", PPSN 1992).

Once the population converges, the generations breed the same children again.
``evolve`` therefore gives ``gpx_crossover`` and ``mls_improve`` one memo each
for the length of the call: the crossover is keyed by its two parents' parts,
the local search by its input part, with None recorded for "no move". Within
one call ``w``, m and ubar are fixed and both operators are pure functions of
the keyed parts, so every child is bit-identical to an un-memoized run. The
stored individuals' arrays are read-only, and both memos are freed when
``evolve`` returns. The memo lives inside the operators, so each child still
costs one call of each, and a tracer counting calls sees the same counts.

No partition of ``w`` into m parts has an objective below
max(ceil(sum(w) / m), max(w)): the heaviest part holds at least the average
and at least the heaviest item (the classic multi-way number-partitioning
bound; the capacity ubar only removes partitions). Once the best individual
reaches it the partition is proven optimal, and ``evolve`` starts no further
generation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .numpart import _lightest_open, greedy_in_order, greedy_lpt, kk_multiway, part_sums


@dataclass
class HgaParams:
    pop_size: int = 20
    max_generations: int = 200
    stall_limit: int = 20
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
    population: list[Individual]

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
    per improving move).
    """
    ks = np.flatnonzero((sizes < ubar) & (np.arange(m) != h))
    if ks.size == 0:  # every other partition is full, as at n = m * ubar
        return False
    improving = _improves(sums[h], w[h_items][:, None], sums[ks][None, :])
    xi, ki = np.nonzero(improving)
    if xi.size == 0:
        return False
    best = 0
    if xi.size > 1:
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
    if len(ind.part) == 0 or m == 1:
        return ind
    if memo is not None:
        key = ind.part.tobytes()
        if key in memo:
            hit = memo[key]
            return ind if hit is None else hit
    part = ind.part.copy()
    sums = part_sums(part, w, m)
    sizes = np.bincount(part, minlength=m)
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
            break
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
    pass over the items. Each item's child partition is the first round
    that took either of its donor partitions. The table only changes how
    the restricted sums are found; the selection rule is the one above,
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
        if taken_in[s][best_k] == m:
            taken_in[s][best_k] = r
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


def mutate(ind: Individual, w: np.ndarray, ubar: int,
           rate: float, rng: random.Random) -> Individual:
    """With probability ``rate`` relocate one uniformly random item to a
    uniformly random different partition with spare capacity (no legal
    target: unchanged). Always feasible."""
    if rate <= 0.0 or rng.random() >= rate:
        return ind
    m = len(ind.fitness)
    u = rng.randrange(len(ind.part))
    cur = ind.part[u]
    sizes = np.bincount(ind.part, minlength=m)
    targets = [k for k in range(m) if k != cur and sizes[k] < ubar]
    if not targets:
        return ind
    part = ind.part.copy()
    part[u] = targets[rng.randrange(len(targets))]
    return Individual(part, fitness_of(part, w, m))


# ---------------------------------------------------------------------------
# Population management

def init_population(w: np.ndarray, m: int, ubar: int,
                    params: HgaParams, rng: random.Random | None = None) -> list[Individual]:
    """The LPT seed, the KK seed, then ``pop_size - 2`` greedy constructions
    on shuffled item orders, each scored on ``w``; ``evolve`` improves them.
    Raises ``CapacityInfeasible`` (from ``greedy_lpt``) when
    m * ubar < len(w)."""
    if rng is None:
        rng = random.Random(params.rng_seed)
    n = len(w)
    parts = [greedy_lpt(w, m, ubar), kk_multiway(w, m, ubar)]
    while len(parts) < params.pop_size:
        order = list(range(n))
        rng.shuffle(order)
        part = np.empty(n, dtype=np.int64)
        part[order] = greedy_in_order(w[order], m, ubar)
        parts.append(part)
    return [Individual(part, fitness_of(part, w, m)) for part in parts]


def _tournament(population: list[Individual], rng: random.Random) -> Individual:
    a = population[rng.randrange(len(population))]
    b = population[rng.randrange(len(population))]
    return a if a.fitness <= b.fitness else b


def evolve(w: np.ndarray, m: int, ubar: int, params: HgaParams, *,
           population: list[Individual] | None = None,
           on_generation=None, deadline: float | None = None) -> Evolution:
    """Run the generational loop and return the best individual ever seen
    with the final population.

    The start population is ``init_population``'s or, when ``population``
    is given, that population carried over from an earlier call; it must
    hold ``pop_size`` individuals. Either way each start individual's part
    is scored on this ``w`` and improved by ``mls_improve`` once, through
    the call's memo. The start parts are only read, so carried ones may be
    read-only.

    ``on_generation`` is called as
    ``on_generation(gen, population, incumbent)`` after each generation; the
    incumbent's fitness is non-increasing across generations because the
    elite survives verbatim. ``deadline`` is a ``time.perf_counter()`` value
    checked before each generation: once it has passed, no further
    generation starts. The start population is not interrupted, whether
    built or carried, so a run takes at least that long and at most one
    generation past the deadline.

    No generation starts either once the best fitness[0] equals the lower
    bound max(ceil(sum(w) / m), max(w)), checked in the same place: the
    answer is then proven optimal. When the start population already reaches
    it, ``on_generation`` is never called.
    """
    params.validate()
    rng = random.Random(params.rng_seed)
    crossed: dict = {}
    improved: dict = {}
    if population is None:
        population = init_population(w, m, ubar, params, rng)
    elif len(population) != params.pop_size:
        raise ValueError(f"population holds {len(population)} individuals, "
                         f"pop_size is {params.pop_size}")
    population = [mls_improve(Individual(ind.part, fitness_of(ind.part, w, m)),
                              w, ubar, memo=improved)
                  for ind in population]
    best = min(population, key=lambda ind: ind.fitness)
    bound = max(-(-int(w.sum()) // m), int(w.max(initial=0)))
    stall = 0
    for gen in range(params.max_generations):
        if stall >= params.stall_limit or best.fitness[0] == bound:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        population.sort(key=lambda ind: ind.fitness)
        next_pop = population[:params.elite_count]
        while len(next_pop) < params.pop_size:
            p1 = _tournament(population, rng)
            p2 = _tournament(population, rng)
            child = gpx_crossover(p1, p2, w, m, ubar, memo=crossed)
            child = mutate(child, w, ubar, params.mutation_rate, rng)
            child = mls_improve(child, w, ubar, memo=improved)
            next_pop.append(child)
        population = next_pop
        gen_best = min(population, key=lambda ind: ind.fitness)
        if gen_best.fitness < best.fitness:
            best = gen_best
            stall = 0
        else:
            stall += 1
        if on_generation is not None:
            on_generation(gen, population, best)
    return Evolution(best, population)
