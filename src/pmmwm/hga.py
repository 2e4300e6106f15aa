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
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .errors import CapacityInfeasible
from .numpart import greedy_in_order, greedy_lpt, kk_multiway


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
    Each round copies, from the donor's partitions restricted to
    still-unassigned items, the one whose restricted weight is closest to the
    ideal share (remaining total / remaining rounds, ties to the lowest
    index) into the next child partition. Leftover items are then placed
    heaviest-first into the lightest partition with spare capacity, so the
    child is always feasible. The construction is deterministic.
    """
    child = np.full(len(w), -1, dtype=np.int64)
    free = np.ones(len(w), dtype=bool)
    remaining_total = int(w.sum())
    for r in range(m):
        donor = (a, b)[r % 2].part
        rounds_left = m - r
        restricted = _part_sums(donor[free], w[free], m).tolist()
        best_k = min(range(m),
                     key=lambda k: abs(restricted[k] * rounds_left - remaining_total))
        taken = free & (donor == best_k)
        child[taken] = r
        free[taken] = False
        remaining_total -= int(w[taken].sum())

    placed = ~free
    sums = _part_sums(child[placed], w[placed], m).tolist()
    sizes = np.bincount(child[placed], minlength=m).tolist()
    leftovers = np.flatnonzero(free)
    for u in leftovers[np.argsort(-w[leftovers], kind="stable")].tolist():
        best = -1
        for k in range(m):
            if sizes[k] < ubar and (best == -1 or sums[k] < sums[best]):
                best = k
        child[u] = best
        sums[best] += int(w[u])
        sizes[best] += 1
    return Individual(child, fitness_of(child, w, m))


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
    seeds = [greedy_lpt(w, m, ubar)]
    if params.pop_size >= 2:
        seeds.append(kk_multiway(w, m, ubar))
    for part in seeds:
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
    """
    params.validate()
    rng = random.Random(params.rng_seed)
    population = init_population(w, m, ubar, params, rng)
    if seed_assignment is not None and params.pop_size > 2:
        part = np.array(seed_assignment, dtype=np.int64)
        population[-1] = mls_improve(Individual(part, fitness_of(part, w, m)), w, ubar)
    best = min(population, key=lambda ind: ind.fitness)
    stall = 0
    for gen in range(params.max_generations):
        if stall >= params.stall_limit:
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
