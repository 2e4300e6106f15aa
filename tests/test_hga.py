import dataclasses
import random

import numpy as np
import pytest

from pmmwm import hga
from pmmwm.errors import CapacityInfeasible
from pmmwm.graph import MAX_TOTAL_WEIGHT
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

from oracles import gpx_reference, improving_neighbor_exists, mls_reference


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
    LEVELS = ((1, 2), (1, 2), (1,), (1, 2), (2,), (1, 2))

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


def _random_feasible(rng, n, m, ubar):
    slots = [k for k in range(m) for _ in range(ubar)]
    rng.shuffle(slots)
    return np.array(slots[:n], dtype=np.int64)


def _assert_gpx_matches_reference(a, b, w, m, ubar):
    ref_part, ref_fit = gpx_reference(a.part, b.part, w, m, ubar)
    child = gpx_crossover(a, b, w, m, ubar)
    assert child.part.dtype == np.int64
    assert (child.part.tolist(), child.fitness) == (ref_part.tolist(), ref_fit)


class TestGpxAgainstReference:
    # (n, m, ubar): the perfbench tight and groups shapes, then small m
    SHAPES = ((48, 24, 2), (48, 24, 3), (200, 10, 24),
              (12, 1, 12), (9, 2, 5), (7, 2, 7), (15, 4, 4), (5, 3, 2))
    WEIGHTS = ("random", "equal", "zero")
    PAIRS = 12  # per (shape, weights, parent kind): 8 * 3 * 4 * 12 = 1152

    def test_same_child_as_reference(self):
        rng = random.Random(8)
        checked = 0
        for n, m, ubar in self.SHAPES:
            for kind in self.WEIGHTS:
                if kind == "random":
                    w = items_of(*[rng.randint(1, 1000) for _ in range(n)])
                else:
                    w = np.full(n, 7 if kind == "equal" else 0, dtype=np.int64)
                pop = init_population(w, m, ubar, HgaParams(pop_size=6, rng_seed=n + m))

                def pick():
                    return pop[rng.randrange(len(pop))]

                for _ in range(self.PAIRS):
                    a = pick()
                    pairs = [
                        (a, pick()),
                        (mutate(pick(), w, ubar, 1.0, rng), pick()),
                        tuple(individual(_random_feasible(rng, n, m, ubar), w, m, ubar)
                              for _ in range(2)),
                        (a, a),
                    ]
                    for x, y in pairs:
                        _assert_gpx_matches_reference(x, y, w, m, ubar)
                        checked += 1
        assert checked >= 1000

    def test_exact_beyond_int64_products(self):
        # The weights total MAX_TOTAL_WEIGHT and a's partition holding the
        # two heavy items weighs x = (2**64 + total) // m. In round 0 its
        # gap x * m - total is about 2**64 (the worst candidate), but an
        # int64 product wraps it to under m, the best of all.
        rng = random.Random(55)
        n, m, ubar = 600, 600, 2
        total = MAX_TOTAL_WEIGHT
        x = ((1 << 64) + total) // m
        for _ in range(3):
            cuts = sorted(rng.sample(range(1, total - x), n - 3))
            light = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total - x])]
            w = items_of(*light, x // 2, x - x // 2)
            assert int(w.sum()) == total
            wrapped = (x * m - total + (1 << 63)) % (1 << 64) - (1 << 63)
            assert abs(wrapped) < m
            # a: the heavy items together in partition 0, the rest in 1..m-1
            a = np.append(_random_feasible(rng, n - 2, m - 1, ubar) + 1, [0, 0])
            _assert_gpx_matches_reference(
                individual(a, w, m, ubar),
                individual(_random_feasible(rng, n, m, ubar), w, m, ubar),
                w, m, ubar)


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
        # the constructions as built and scored: evolve improves them
        assert [(ind.part.tolist(), ind.fitness) for ind in pop] == [
            (part.tolist(), fitness_of(part, items, 2))
            for part in (greedy_lpt(items, 2, 5), kk_multiway(items, 2, 5))]

    def test_equal_items_all_balanced(self, monkeypatch):
        # every partition has fitness (8, 8), and each random individual is
        # built by exactly one greedy_in_order call
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        real = hga.greedy_in_order
        monkeypatch.setattr(hga, "greedy_in_order", counted)
        items = items_of(*([2] * 8))
        pop = init_population(items, 2, 4, HgaParams(pop_size=6, rng_seed=1))
        assert all(ind.fitness == (8, 8) for ind in pop)
        assert len(calls) == 6 - 2

    @pytest.mark.parametrize("build", [init_population, evolve])
    def test_over_capacity_raises(self, build):
        with pytest.raises(CapacityInfeasible, match="cannot hold 5 items"):
            build(items_of(5, 4, 3, 2, 1), 2, 2, HgaParams(pop_size=4))

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
        params = HgaParams(pop_size=4, max_generations=100, stall_limit=5, rng_seed=2)
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
        a, pop_a = evolve(items, 2, 4, params)
        b, pop_b = evolve(items, 2, 4, params)
        assert a.part.tolist() == b.part.tolist()
        assert a.fitness == b.fitness
        assert [i.part.tolist() for i in pop_a] == [i.part.tolist() for i in pop_b]

    def test_hooks_are_keyword_only(self):
        # a partition passed positionally must not bind to a hook
        items = items_of(3, 2, 1)
        with pytest.raises(TypeError):
            evolve(items, 2, 2, HgaParams(), greedy_lpt(items, 2, 2))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            evolve(items_of(1, 2), 2, 1, HgaParams(pop_size=1))

    @pytest.mark.parametrize("constant", ["elite_count", "mutation_rate"])
    def test_constants_are_not_settable(self, constant):
        with pytest.raises(TypeError):
            HgaParams(**{constant: 1})


class TestMemo:
    # (n, m, ubar): the perfbench tight shape, ubar = 3 with room, groups
    SHAPES = ((48, 24, 2), (48, 20, 3), (200, 10, 24))

    @staticmethod
    def _same(x, y):
        return x.part.tolist() == y.part.tolist() and x.fitness == y.fitness

    def test_memoized_operators_match_plain_calls(self):
        rng = random.Random(15)
        for n, m, ubar in self.SHAPES:
            w = items_of(*[rng.randint(1, 1000) for _ in range(n)])
            pop = init_population(w, m, ubar, HgaParams(pop_size=6, rng_seed=n + m))
            pop += [individual(_random_feasible(rng, n, m, ubar), w, m, ubar)
                    for _ in range(4)]
            crossed, improved = {}, {}
            for _ in range(20):
                a, b = pop[rng.randrange(len(pop))], pop[rng.randrange(len(pop))]
                plain = gpx_crossover(a, b, w, m, ubar)
                first = gpx_crossover(a, b, w, m, ubar, memo=crossed)
                hit = gpx_crossover(a, b, w, m, ubar, memo=crossed)
                assert self._same(first, plain) and hit is first
                for ind in (plain, mutate(plain, w, ubar, 1.0, rng)):
                    plain_mls = mls_improve(ind, w, ubar)
                    for _ in range(2):  # the first call, then a hit
                        assert self._same(mls_improve(ind, w, ubar, memo=improved),
                                          plain_mls)
            assert improved

    def test_no_move_hit_returns_ind_itself(self):
        items = items_of(3, 3, 3)
        memo = {}
        ind = individual([0, 1, 2], items, 3, 1)
        assert mls_improve(ind, items, 1, memo=memo) is ind
        assert memo == {ind.part.tobytes(): None}
        again = individual([0, 1, 2], items, 3, 1)
        assert mls_improve(again, items, 1, memo=memo) is again

    def test_stored_parts_are_read_only(self):
        items = items_of(2, 2, 1, 1, 4, 1)
        a = individual([0, 0, 1, 1, 2, 2], items, 3, 3)
        b = individual([2, 1, 0, 0, 1, 2], items, 3, 3)
        moved = mls_improve(a, items, 3, memo={})
        child = gpx_crossover(a, b, items, 3, 3, memo={})
        for ind in (moved, child):
            with pytest.raises(ValueError, match="read-only"):
                ind.part[0] = 1
        assert a.part.flags.writeable  # an input is never frozen
        assert gpx_crossover(a, b, items, 3, 3).part.flags.writeable

    def test_evolve_calls_each_operator_once_per_child(self, monkeypatch):
        # the golden "repeats" case: crossover pairs recur, so the memo hits;
        # every child still costs one call of each operator
        rng = random.Random(45)
        w = items_of(*[rng.randint(1, 1000) for _ in range(48)])
        params = HgaParams(pop_size=10, max_generations=30, stall_limit=8, rng_seed=45)
        calls = {"gpx": 0, "mls": 0, "hits": 0}

        def counted(name, real, key):
            def wrapper(*args, memo=None, **kwargs):
                calls[name] += 1
                calls["hits"] += memo is not None and key(*args) in memo
                return real(*args, memo=memo, **kwargs)
            return wrapper

        monkeypatch.setattr(hga, "gpx_crossover", counted(
            "gpx", hga.gpx_crossover, lambda a, b, *_: (a.part.tobytes(), b.part.tobytes())))
        monkeypatch.setattr(hga, "mls_improve", counted(
            "mls", hga.mls_improve, lambda ind, *_: ind.part.tobytes()))
        seen = []
        evolve(w, 20, 3, params,
               on_generation=lambda gen, pop, inc: seen.append((calls["gpx"], calls["mls"])))
        children = params.pop_size - params.elite_count
        assert len(seen) == 15
        assert seen == [((g + 1) * children, params.pop_size + (g + 1) * children)
                        for g in range(len(seen))]
        assert calls["hits"] > 0


class TestCarriedPopulation:
    """``evolve`` started from an earlier call's final population, as the
    outer solver starts every iteration after the first."""

    N, M, UBAR = 30, 10, 4

    def carried(self, seed=7):
        """Weights, the same weights with 3 changed, and the final
        population of a run on the first."""
        rng = random.Random(seed)
        w = items_of(*[rng.randint(1, 1000) for _ in range(self.N)])
        params = HgaParams(pop_size=8, max_generations=20, stall_limit=5, rng_seed=seed)
        _, population = evolve(w, self.M, self.UBAR, params)
        changed = w.copy()
        for u in rng.sample(range(self.N), 3):
            changed[u] = rng.randint(1, 1000)
        return w, changed, population, params

    def test_start_is_rescored_and_locally_optimal(self, monkeypatch):
        w, changed, population, params = self.carried()
        assert any(ind.fitness != fitness_of(ind.part, changed, self.M) for ind in population)
        inputs = []
        real = hga.mls_improve

        def recorded(ind, *args, **kwargs):
            inputs.append(ind)
            return real(ind, *args, **kwargs)

        monkeypatch.setattr(hga, "mls_improve", recorded)
        # no generation runs, so the returned population is the start
        _, start = evolve(changed, self.M, self.UBAR,
                          dataclasses.replace(params, max_generations=0),
                          population=population)
        # one local search per carried part, on its fitness under the new weights
        assert [ind.part.tolist() for ind in inputs] == [ind.part.tolist() for ind in population]
        for ind in inputs + start:
            assert ind.fitness == fitness_of(ind.part, changed, self.M)
        for ind in start:
            assert real(ind, changed, self.UBAR) is ind  # no move left

    def test_same_weights_never_worse(self):
        w, _, population, params = self.carried()
        carried_best = min(ind.fitness for ind in population)
        for seed in range(5):
            best, _ = evolve(w, self.M, self.UBAR, dataclasses.replace(params, rng_seed=seed),
                             population=population)
            assert best.fitness <= carried_best

    def test_read_only_parts_are_only_read(self):
        _, changed, population, params = self.carried()
        frozen = []
        for ind in population:
            part = ind.part.copy()
            part.flags.writeable = False
            frozen.append(Individual(part, ind.fitness))
        before = [ind.part.tolist() for ind in frozen]
        generations = []
        best, _ = evolve(changed, self.M, self.UBAR, params, population=frozen,
                         on_generation=lambda g, pop, inc: generations.append(g))
        assert generations  # crossover, mutation and local search all ran
        assert [ind.part.tolist() for ind in frozen] == before
        assert best.fitness == fitness_of(best.part, changed, self.M)

    @pytest.mark.parametrize("size", [1, 7, 9])
    def test_population_must_hold_pop_size(self, size):
        w, _, population, params = self.carried()
        with pytest.raises(ValueError, match="pop_size"):
            evolve(w, self.M, self.UBAR, params, population=(population * 2)[:size])
