import random

import numpy as np
import pytest

from pmmwm.hga import (
    HgaParams,
    Individual,
    evolve,
    fitness_of,
    gpx_crossover,
    init_population,
    mls_improve,
    mutate,
)
from pmmwm.numpart import greedy_lpt, kk_multiway, min_max_brute

from oracles import improving_neighbor_exists, mls_reference


def items_of(*weights):
    return np.array(weights, dtype=np.int64)


def individual(part_of, weights, m, ubar):
    part = np.array(part_of, dtype=np.int64)
    return Individual(part, fitness_of(part, weights, m))


def sizes_of(part, m):
    return np.bincount(part, minlength=m).tolist()


class TestFitness:
    def test_sorted_descending(self):
        items = items_of(5, 1, 2)
        assert fitness_of([0, 1, 1], items, 2) == (5, 3)

    def test_objective_is_first_entry(self):
        items = items_of(4, 4, 2)
        fit = fitness_of([0, 1, 2], items, 3)
        assert fit[0] == 4

    def test_objective_decrease_implies_fitness_decrease(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(2, 10)
            m = rng.randint(2, 4)
            items = items_of(*[rng.randint(0, 20) for _ in range(n)])
            pa = [rng.randrange(m) for _ in range(n)]
            pb = [rng.randrange(m) for _ in range(n)]
            fa, fb = fitness_of(pa, items, m), fitness_of(pb, items, m)
            if fa[0] < fb[0]:
                assert fa < fb


class TestMls:
    def test_relocation_reaches_example_optimum(self):
        # matched weights of the 6x6 example's base configuration; moving the
        # weight-1 item out of the heaviest partition drops 5 -> 4
        items = items_of(2, 2, 1, 1, 4, 1)
        ind = individual([0, 0, 1, 1, 2, 2], items, 3, 3)
        assert ind.fitness == (5, 4, 2)
        improved = mls_improve(ind, items, 3)
        assert improved.fitness[0] == 4
        assert improved.part.tolist() == [0, 0, 1, 1, 2, 1]

    def test_already_optimal_unchanged(self):
        items = items_of(3, 3, 3)
        ind = individual([0, 1, 2], items, 3, 1)
        assert mls_improve(ind, items, 1) is ind

    def test_no_improving_neighbor_after_descent(self):
        rng = random.Random(21)
        for _ in range(60):
            n = 10
            m = rng.randint(2, 4)
            ubar = rng.randint((n + m - 1) // m, n)
            items = items_of(*[rng.randint(1, 50) for _ in range(n)])
            start = greedy_lpt(items, m, ubar)
            out = mls_improve(individual(start, items, m, ubar), items, ubar)
            assert out.fitness <= fitness_of(start, items, m)
            assert max(sizes_of(out.part, m)) <= ubar
            assert not improving_neighbor_exists(
                out.part.tolist(), items, m, ubar)

    def test_idempotent(self):
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randint(2, 12)
            m = rng.randint(2, 4)
            ubar = rng.randint((n + m - 1) // m, n)
            items = items_of(*[rng.randint(1, 99) for _ in range(n)])
            part = [rng.randrange(m) for _ in range(n)]
            sizes = [part.count(k) for k in range(m)]
            if max(sizes) > ubar:
                continue
            once = mls_improve(individual(part, items, m, ubar), items, ubar)
            twice = mls_improve(once, items, ubar)
            assert once.fitness == twice.fitness
            assert once.part.tolist() == twice.part.tolist()

    def test_l1_only_descent_is_weaker_or_equal(self):
        rng = random.Random(8)
        for _ in range(40):
            items = items_of(*[rng.randint(1, 60) for _ in range(12)])
            start = individual(greedy_lpt(items, 3, 12), items, 3, 12)
            full = mls_improve(start, items, 12)
            l1 = mls_improve(start, items, 12, levels=(1,))
            assert full.fitness <= l1.fitness

    def test_swap_level_needed_fixture(self):
        # [8,3 | 2,7] sums (11,9): capacity 2 blocks relocations, and only
        # swapping items 0 and 3 reaches the optimum (10,10)
        items = items_of(8, 3, 2, 7)
        ind = individual([0, 0, 1, 1], items, 2, 2)
        l1 = mls_improve(ind, items, 2, levels=(1,))
        assert l1.fitness == (11, 9)
        full = mls_improve(ind, items, 2)
        assert full.fitness == (10, 10)
        assert full.part.tolist() == [1, 0, 1, 0]


def _mls_case(rng, kind):
    """One random MLS input of the given kind: (part_of, weights, m, ubar)."""
    n = rng.randint(1, 14)
    m = 2 if kind == "m2" else rng.randint(2, 5)
    if kind == "big":
        weights = [rng.randint(0, 1 << 40) for _ in range(n)]
    elif kind == "zeros":
        weights = [0 if rng.random() < 0.4 else rng.randint(1, 30) for _ in range(n)]
    elif kind == "all_zero":
        weights = [0] * n
    else:
        weights = [rng.randint(1, 9) for _ in range(n)]
    lo = -(-n // m)
    ubar = lo if kind == "full" else rng.randint(lo, n)
    slots = [k for k in range(m) for _ in range(ubar)]
    rng.shuffle(slots)
    return slots[:n], weights, m, ubar


class TestMlsAgainstReference:
    KINDS = ("ties", "big", "zeros", "all_zero", "m2", "full")
    LEVELS = ((1, 2, 3), (1, 2, 3), (1,), (1, 2), (2, 3), (3,))

    def test_same_moves_as_reference(self):
        rng = random.Random(2024)
        for case in range(2400):
            kind = self.KINDS[case % len(self.KINDS)]
            levels = self.LEVELS[(case // len(self.KINDS)) % len(self.LEVELS)]
            part_of, weights, m, ubar = _mls_case(rng, kind)
            w = items_of(*weights)
            ind = individual(part_of, w, m, ubar)
            ref_part, ref_fit = mls_reference(part_of, weights, m, ubar, levels)
            out = mls_improve(ind, w, ubar, levels=levels)
            assert (out.part.tolist(), out.fitness) == (ref_part, ref_fit), (case, kind)
            if ref_part == part_of:
                assert out is ind


class TestGpx:
    def test_identical_parents_same_multiset(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 12)
            m = rng.randint(2, 4)
            ubar = rng.randint((n + m - 1) // m, n)
            items = items_of(*[rng.randint(0, 30) for _ in range(n)])
            part = None
            while part is None:
                cand = [rng.randrange(m) for _ in range(n)]
                if max(cand.count(k) for k in range(m)) <= ubar:
                    part = cand
            parent = individual(part, items, m, ubar)
            child = gpx_crossover(parent, parent, items, m, ubar)
            parent_sets = sorted(
                (sorted(u for u in range(n) if part[u] == k) for k in range(m)),
                key=lambda s: (len(s), s))
            child_sets = sorted(
                (sorted(u for u in range(n) if child.part.tolist()[u] == k)
                 for k in range(m)),
                key=lambda s: (len(s), s))
            assert [s for s in parent_sets if s] == [s for s in child_sets if s]

    def test_hand_fixture_round_trace(self):
        # weights [9,8,3,3,2,1], total 26, m=2, ubar=4
        # round 0 (donor a, target 13): a.P0 = {0,2,4} w14 ties a.P1 w12 -> P0
        # round 1 (donor b, target 12): b.P0 n {1,3,5} = {1} w8 beats {3,5} w4
        # leftovers 3 then 5 go to the lighter child partition 1
        items = items_of(9, 8, 3, 3, 2, 1)
        a = individual([0, 1, 0, 1, 0, 1], items, 2, 4)
        b = individual([0, 0, 1, 1, 1, 1], items, 2, 4)
        child = gpx_crossover(a, b, items, 2, 4)
        assert child.part.tolist() == [0, 1, 0, 1, 0, 1]
        assert child.fitness == (14, 12)

    def test_child_always_feasible(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(2, 14)
            m = rng.randint(2, 5)
            ubar = rng.randint((n + m - 1) // m, n)
            items = items_of(*[rng.randint(0, 40) for _ in range(n)])

            def random_feasible():
                while True:
                    cand = [rng.randrange(m) for _ in range(n)]
                    if max(cand.count(k) for k in range(m)) <= ubar:
                        return individual(cand, items, m, ubar)

            child = gpx_crossover(random_feasible(), random_feasible(),
                                  items, m, ubar)
            sizes = sizes_of(child.part, m)
            assert max(sizes) <= ubar
            assert sorted(child.part.tolist()) != [] or n == 0
            assert all(0 <= k < m for k in child.part.tolist())


class TestMutate:
    def test_rate_zero_unchanged(self):
        items = items_of(5, 3)
        ind = individual([0, 1], items, 2, 2)
        rng = random.Random(42)
        assert mutate(ind, items, 2, 0.0, rng) is ind
        # rate-0 must not consume randomness
        assert rng.random() == random.Random(42).random()

    def test_blocked_target_unchanged(self):
        items = items_of(5, 3)
        ind = individual([0, 0], items, 2, 1)
        # both vertices sit in partition 0 of capacity... sizes [2,0] is
        # infeasible for ubar=1, use a real blocked case: m=2, ubar=1,
        # one item per partition; the only other partition is full
        ind = individual([0, 1], items, 2, 1)
        out = mutate(ind, items, 1, 1.0, random.Random(1))
        assert out is ind

    def test_seeded_relocation_trace(self):
        items = items_of(5, 3)
        ind = individual([0, 1], items, 2, 2)
        out = mutate(ind, items, 2, 1.0, random.Random(42))
        # replay the documented draw order: coin, item, target index
        rng = random.Random(42)
        rng.random()
        u = rng.randrange(2)
        before = ind.part.tolist()
        expected = [1 - before[0], before[1]] \
            if u == 0 else [before[0], 1 - before[1]]
        assert out.part.tolist() == expected

    def test_always_feasible(self):
        rng = random.Random(3)
        items = items_of(*[rng.randint(1, 9) for _ in range(9)])
        ind = individual(greedy_lpt(items, 3, 3), items, 3, 3)
        for _ in range(200):
            ind = mutate(ind, items, 3, 1.0, rng)
            assert max(sizes_of(ind.part, 3)) <= 3


class TestInitPopulation:
    def test_pop_size_two_is_lpt_and_kk(self):
        items = items_of(8, 7, 6, 5, 4)
        params = HgaParams(pop_size=2, rng_seed=9)
        pop = init_population(items, 2, 5, params)
        assert len(pop) == 2
        lpt = mls_improve(individual(greedy_lpt(items, 2, 5), items, 2, 5), items, 5)
        kk = mls_improve(individual(kk_multiway(items, 2, 5), items, 2, 5), items, 5)
        assert pop[0].fitness == lpt.fitness
        assert pop[1].fitness == kk.fitness

    def test_equal_items_all_balanced(self):
        items = items_of(*([2] * 8))
        pop = init_population(items, 2, 4, HgaParams(pop_size=6, rng_seed=1))
        assert all(ind.fitness == (8, 8) for ind in pop)

    def test_deterministic(self):
        items = items_of(9, 4, 7, 1, 3, 8, 2)
        a = init_population(items, 3, 3, HgaParams(pop_size=8, rng_seed=77))
        b = init_population(items, 3, 3, HgaParams(pop_size=8, rng_seed=77))
        assert [i.part.tolist() for i in a] == [i.part.tolist() for i in b]
        assert [i.fitness for i in a] == [i.fitness for i in b]

    def test_population_feasible(self):
        items = items_of(9, 4, 7, 1, 3, 8, 2, 6)
        pop = init_population(items, 3, 3, HgaParams(pop_size=10, rng_seed=5))
        assert all(max(sizes_of(ind.part, 3)) <= 3 for ind in pop)


class TestEvolve:
    def test_uniform_population_stalls(self):
        # with at most 2 items per partition the best is (6, 6, 3, 3), above
        # the bound max(ceil(18 / 4), 3) = 5, so only the stall limit stops it
        items = items_of(*([3] * 6))
        params = HgaParams(pop_size=4, max_generations=100, stall_limit=5,
                           mutation_rate=0.0, rng_seed=2)
        generations = []
        best = evolve(items, 4, 2, params,
                      on_generation=lambda g, pop, inc: generations.append(g))
        assert best.fitness == (6, 6, 3, 3)
        assert len(generations) == 5  # stalls out, never hits max_generations

    @pytest.mark.parametrize("weights, m, ubar, bound", [
        ((8, 7, 6, 5, 4), 2, 3, 15),   # ceil(sum / m)
        ((20, 1, 1, 1), 2, 3, 20),     # the heaviest item
    ])
    def test_stops_at_the_partition_bound(self, weights, m, ubar, bound):
        generations = []
        best = evolve(items_of(*weights), m, ubar,
                      HgaParams(max_generations=50, stall_limit=50),
                      on_generation=lambda g, pop, inc: generations.append(g))
        assert best.fitness[0] == bound
        assert generations == []

    def test_matches_brute_force_on_small_instances(self):
        rng = random.Random(1234)
        hits = 0
        for trial in range(20):
            items = items_of(*[rng.randint(1, 50) for _ in range(8)])
            params = HgaParams(rng_seed=trial)
            best = evolve(items, 3, 3, params)
            opt, _ = min_max_brute(items, 3, 3)
            assert best.fitness[0] >= opt
            if best.fitness[0] == opt:
                hits += 1
        assert hits >= 19

    def test_incumbent_monotone_and_elite_survives(self):
        # 5 partitions of exactly 2 items: 17 needs a partner, so the optimum
        # 19 stays above the bound max(ceil(77 / 5), 17) = 17
        items = items_of(17, 3, 9, 12, 5, 8, 4, 11, 2, 6)
        params = HgaParams(pop_size=8, max_generations=30, stall_limit=30,
                           rng_seed=3)
        seen = []

        def watch(gen, population, incumbent):
            fits = [ind.fitness for ind in population]
            parts = [ind.part.tolist() for ind in population]
            seen.append((min(fits), fits, parts, incumbent.fitness))

        evolve(items, 5, 2, params, on_generation=watch)
        assert len(seen) >= 2
        for idx in range(1, len(seen)):
            prev_best_fit = seen[idx - 1][0]
            prev_pop = seen[idx - 1]
            # incumbent never worsens
            assert seen[idx][3] <= seen[idx - 1][3]
            # previous generation's best assignment survives verbatim
            prev_best_part = prev_pop[2][prev_pop[1].index(prev_best_fit)]
            assert prev_best_part in seen[idx][2]

    def test_acceptance_elitism_input_runs_every_generation(self):
        # acceptance criterion 8 checks elitism on this input; its best stays
        # above the bound, so every one of the 25 generations runs
        rng = random.Random(808)
        items = items_of(*[rng.randint(1, 60) for _ in range(10)])
        generations = []
        evolve(items, 3, 4, HgaParams(pop_size=8, max_generations=25,
                                      stall_limit=25, rng_seed=8),
               on_generation=lambda g, pop, inc: generations.append(g))
        assert len(generations) == 25

    def test_deterministic(self):
        items = items_of(14, 3, 9, 12, 5, 8)
        params = HgaParams(pop_size=6, max_generations=15, stall_limit=15,
                           rng_seed=99)
        a = evolve(items, 2, 4, params)
        b = evolve(items, 2, 4, params)
        assert a.part.tolist() == b.part.tolist()
        assert a.fitness == b.fitness

    def test_warm_start_injection(self):
        items = items_of(10, 9, 8, 1, 1, 1)
        opt, pa = min_max_brute(items, 3, 2)
        params = HgaParams(pop_size=4, max_generations=1, stall_limit=1,
                           rng_seed=0)
        best = evolve(items, 3, 2, params, seed_assignment=pa)
        assert best.fitness[0] == opt

    def test_param_validation(self):
        with pytest.raises(ValueError):
            evolve(items_of(1, 2), 2, 1, HgaParams(pop_size=1))
        with pytest.raises(ValueError):
            evolve(items_of(1, 2), 2, 1, HgaParams(elite_count=0))
