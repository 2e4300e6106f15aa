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
partition crossover, mutation and multilevel local search. Everything is
driven by one seeded ``random.Random``, so identical inputs give bit-identical
results.

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

import numpy as np

from .errors import CapacityInfeasible
from .numpart import _lightest_open, greedy_in_order, greedy_lpt, kk_multiway


@dataclass
class HgaParams:
    pop_size: int = 20
    max_generations: int = 200
    stall_limit: int = 20
    mutation_rate: float = 0.2
    elite_count: int = 1
    rng_seed: int = 0

    def validate(self) -> None:
        if self.pop_size < 2:
            raise ValueError("pop_size must be >= 2")
        if not (1 <= self.elite_count < self.pop_size):
            raise ValueError("need 1 <= elite_count < pop_size")
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.max_generations < 0 or self.stall_limit < 1:
            raise ValueError("need max_generations >= 0 and stall_limit >= 1")


@dataclass(frozen=True, eq=False)
class Individual:
    """A partition ``part`` and its fitness; m is ``len(fitness)``. Compared
    by identity, since ``part`` is an array."""

    part: np.ndarray
    fitness: tuple[int, ...]


def _part_sums(part, w: np.ndarray, m: int) -> np.ndarray:
    sums = np.zeros(m, dtype=np.int64)
    np.add.at(sums, part, w)
    return sums


def fitness_of(part, w: np.ndarray, m: int) -> tuple[int, ...]:
    """Partition sums sorted descending, as Python ints."""
    return tuple(sorted(_part_sums(part, w, m).tolist(), reverse=True))


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
# applies it to a whole array of moves at once for all three levels. Each
# level evaluates its move set with array operations and picks the same move
# as a scan in the order its docstring gives.

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


def _l3_two_for_one(part, w, sums, sizes, m, ubar, h, h_items) -> bool:
    """First-improvement exchange of two items x1 < x2 of h for one item y
    of a partition with room.

    Scan order: x1 ascending, then x2 ascending, then y ascending; the loop
    runs over x1 and each step tests all (x2, y) at once.
    """
    ys = np.flatnonzero((part != h) & (sizes[part] < ubar))
    if h_items.size < 2 or ys.size == 0:
        return False
    s_h = sums[h]
    w_y = w[ys][None, :]
    s_k = sums[part[ys]][None, :]
    for i in range(h_items.size - 1):
        pair = w[h_items[i]] + w[h_items[i + 1:]]
        improving = _improves(s_h, pair[:, None] - w_y, s_k)
        if improving.any():
            j, yi = divmod(int(np.argmax(improving)), ys.size)
            x1, x2, y = int(h_items[i]), int(h_items[i + 1 + j]), int(ys[yi])
            k = int(part[y])
            part[x1] = k
            part[x2] = k
            part[y] = h
            moved = w[x1] + w[x2] - w[y]
            sums[h] -= moved
            sums[k] += moved
            sizes[h] -= 1
            sizes[k] += 1
            return True
    return False


_LEVEL_FUNCS = {1: _l1_relocate, 2: _l2_swap, 3: _l3_two_for_one}


def mls_improve(ind: Individual, w: np.ndarray, ubar: int,
                levels: tuple[int, ...] = (1, 2, 3)) -> Individual:
    """Multilevel descent on the heaviest partition (ties: lowest index).

    Level 1 relocates one item (best improvement), level 2 swaps one item
    with another partition's (first improvement), level 3 trades two items
    for one (first improvement). A move counts as improving iff it
    lexicographically lowers the fitness vector; after every improvement the
    descent restarts at level 1 and it stops when the deepest level finds
    nothing. The result is a fixed point: applying mls_improve again returns
    an equal individual. When no move applies, ``ind`` itself is returned.

    ``levels`` restricts the neighborhoods (the comparison baseline uses
    ``(1,)`` for a relocation-only descent).
    """
    m = len(ind.fitness)
    if len(ind.part) == 0 or m == 1:
        return ind
    part = ind.part.copy()
    sums = _part_sums(part, w, m)
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
    if not moved_any:
        return ind
    return Individual(part, fitness_of(part, w, m))


# ---------------------------------------------------------------------------
# Genetic operators

def gpx_crossover(a: Individual, b: Individual, w: np.ndarray,
                  m: int, ubar: int) -> Individual:
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
    """
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
    return Individual(child, tuple(sorted(sums, reverse=True)))


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
    """LPT seed, KK seed, then greedy constructions on shuffled item orders,
    each improved by MLS. Random individuals whose fitness duplicates an
    earlier one are re-randomized up to 3 times."""
    if rng is None:
        rng = random.Random(params.rng_seed)
    n = len(w)
    if m * ubar < n:
        raise CapacityInfeasible(f"m*ubar = {m * ubar} cannot hold {n} items")

    def improved(part: np.ndarray) -> Individual:
        return mls_improve(Individual(part, fitness_of(part, w, m)), w, ubar)

    def random_greedy() -> np.ndarray:
        order = list(range(n))
        rng.shuffle(order)
        part = np.empty(n, dtype=np.int64)
        part[order] = greedy_in_order(w[order], m, ubar)
        return part

    population: list[Individual] = []
    seen: set[tuple[int, ...]] = set()
    for part in (greedy_lpt(w, m, ubar), kk_multiway(w, m, ubar)):
        ind = improved(part)
        population.append(ind)
        seen.add(ind.fitness)
    while len(population) < params.pop_size:
        ind = improved(random_greedy())
        attempts = 0
        while ind.fitness in seen and attempts < 3:
            ind = improved(random_greedy())
            attempts += 1
        population.append(ind)
        seen.add(ind.fitness)
    return population


def _tournament(population: list[Individual], rng: random.Random) -> Individual:
    a = population[rng.randrange(len(population))]
    b = population[rng.randrange(len(population))]
    return a if a.fitness <= b.fitness else b


def evolve(w: np.ndarray, m: int, ubar: int, params: HgaParams,
           seed_assignment: np.ndarray | None = None,
           on_generation=None, deadline: float | None = None) -> Individual:
    """Run the generational loop and return the best individual ever seen.

    ``seed_assignment`` optionally replaces the last random initial
    individual with a given partition (warm start between solver
    iterations). ``on_generation`` is called as
    ``on_generation(gen, population, incumbent)`` after each generation; the
    incumbent's fitness is non-increasing across generations because the
    elite survives verbatim. ``deadline`` is a ``time.perf_counter()`` value
    checked before each generation: once it has passed, no further
    generation starts. ``init_population`` is not interrupted, so a run
    takes at least that long and at most one generation past the deadline.

    No generation starts either once the best fitness[0] equals the lower
    bound max(ceil(sum(w) / m), max(w)), checked in the same place: the
    answer is then proven optimal. When the initial population (with the
    warm start) already reaches it, ``on_generation`` is never called.
    """
    params.validate()
    rng = random.Random(params.rng_seed)
    population = init_population(w, m, ubar, params, rng)
    if seed_assignment is not None and params.pop_size > 2:
        part = np.array(seed_assignment, dtype=np.int64)
        population[-1] = mls_improve(Individual(part, fitness_of(part, w, m)), w, ubar)
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
            child = gpx_crossover(p1, p2, w, m, ubar)
            child = mutate(child, w, ubar, params.mutation_rate, rng)
            child = mls_improve(child, w, ubar)
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
    return best
