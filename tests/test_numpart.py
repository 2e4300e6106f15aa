import random

import numpy as np
import pytest

from pmmwm.errors import CapacityInfeasible, TooLarge
from pmmwm.numpart import (
    greedy_in_order,
    greedy_lpt,
    kk_multiway,
    min_max_brute,
    part_sums,
)

from oracles import brute_force_partition_min_max


def items_of(*weights):
    return np.array(weights, dtype=np.int64)


def sums_of(part, w, m):
    sums = [0] * m
    for u, k in enumerate(part.tolist()):
        sums[k] += int(w[u])
    return sums


def sizes_of(part, m):
    return np.bincount(part, minlength=m).tolist()


class TestPartSums:
    def test_exact_past_2_53(self):
        # float64 sums would round 2**53 + 3 to 2**53 + 4
        w = items_of(2**52, 2**52, 3)
        assert part_sums(np.zeros(3, dtype=np.int64), w, 2).tolist() == [2**53 + 3, 0]


class TestGreedyLpt:
    def test_five_item_trace(self):
        # LPT trace for {8,7,6,5,4}, m=2, ubar=5:
        #   8 -> P0 (8,0); 7 -> P1 (8,7); 6 -> P1 (8,13);
        #   5 -> P0 (13,13); 4 -> tie, lowest index -> P0 (17,13)
        items = items_of(8, 7, 6, 5, 4)
        pa = greedy_lpt(items, 2, 5)
        assert sorted(sums_of(pa, items, 2), reverse=True) == [17, 13]
        assert pa.tolist() == [0, 1, 1, 0, 0]

    def test_single_item(self):
        items = items_of(9)
        pa = greedy_lpt(items, 3, 1)
        assert pa.tolist() == [0]
        assert sums_of(pa, items, 3) == [9, 0, 0]

    def test_equal_items_balance(self):
        items = items_of(*([1] * 10))
        pa = greedy_lpt(items, 2, 5)
        assert sums_of(pa, items, 2) == [5, 5]

    def test_capacity_forces_spill(self):
        items = items_of(5, 4, 3)
        pa = greedy_lpt(items, 2, 2)
        assert max(sizes_of(pa, 2)) <= 2

    def test_capacity_infeasible(self):
        with pytest.raises(CapacityInfeasible):
            greedy_lpt(items_of(1, 1, 1), 1, 2)

    def test_order_matters_for_plain_greedy(self):
        # position order: 1 -> P0 (1,0); 8 -> P1 (1,8); 2 -> P0 (3,8)
        items = items_of(1, 8, 2)
        by_position = greedy_in_order(items, 2, 3)
        assert by_position.tolist() == [0, 1, 0]


class TestKkMultiway:
    def test_five_item_differencing(self):
        # Differencing sequence 8|7 -> 1, 6|5 -> 1, 4 vs [8,7] -> [11,8],
        # then [11,8] vs [6,5] -> [16,14]: spread 2.
        items = items_of(8, 7, 6, 5, 4)
        pa = kk_multiway(items, 2, 5)
        sums = sorted(sums_of(pa, items, 2), reverse=True)
        assert sums == [16, 14]
        # KK is suboptimal here; a perfect split exists
        assert brute_force_partition_min_max([8, 7, 6, 5, 4], 2, 5) == 15

    def test_single_item(self):
        items = items_of(6)
        pa = kk_multiway(items, 2, 1)
        assert sorted(sums_of(pa, items, 2), reverse=True) == [6, 0]

    def test_forced_bijection(self):
        items = items_of(4, 9, 2)
        pa = kk_multiway(items, 3, 1)
        assert sorted(pa.tolist()) == [0, 1, 2]
        assert max(sums_of(pa, items, 3)) == 9

    def test_capacity_repair_enforced(self):
        # skewed weights make plain differencing stack items on one side
        items = items_of(100, 1, 1, 1, 1, 1)
        pa = kk_multiway(items, 2, 3)
        assert max(sizes_of(pa, 2)) <= 3

    def test_capacity_infeasible(self):
        with pytest.raises(CapacityInfeasible):
            kk_multiway(items_of(1, 1, 1, 1), 3, 1)

    def test_always_feasible_fuzz(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 12)
            m = rng.randint(1, 4)
            ubar = rng.randint((n + m - 1) // m, n)
            items = items_of(*[rng.randint(0, 50) for _ in range(n)])
            pa = kk_multiway(items, m, ubar)
            assert max(sizes_of(pa, m)) <= ubar
            assert sorted(pa.tolist()) == sorted(pa.tolist())
            assert len(pa.tolist()) == n


class TestMinMaxBrute:
    def test_five_items(self):
        items = items_of(8, 7, 6, 5, 4)
        obj, pa = min_max_brute(items, 2, 5)
        assert obj == 15
        assert max(sums_of(pa, items, 2)) == 15

    def test_forced(self):
        obj, _ = min_max_brute(items_of(4, 4, 4), 3, 1)
        assert obj == 4

    def test_empty(self):
        obj, pa = min_max_brute(items_of(), 2, 1)
        assert obj == 0
        assert pa.tolist() == []

    def test_guard(self):
        with pytest.raises(TooLarge):
            min_max_brute(items_of(*range(30)), 4, 30)

    def test_matches_unpruned_enumeration(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(1, 8)
            m = rng.randint(1, 3)
            ubar = rng.randint((n + m - 1) // m, n)
            ws = [rng.randint(0, 30) for _ in range(n)]
            obj, pa = min_max_brute(items_of(*ws), m, ubar)
            assert obj == brute_force_partition_min_max(ws, m, ubar)
            assert max(sizes_of(pa, m)) <= ubar


class TestQualityProperties:
    def test_constructor_bounds(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 14)
            m = rng.randint(1, 4)
            ubar = rng.randint((n + m - 1) // m, n)
            items = items_of(*[rng.randint(1, 99) for _ in range(n)])
            total = sum(items.tolist())
            top = max(items.tolist())
            for pa in (greedy_lpt(items, m, ubar), kk_multiway(items, m, ubar)):
                obj = max(sums_of(pa, items, m))
                assert obj <= total
                assert obj >= top
                assert obj >= -(-total // m)  # ceil(total / m)
                assert max(sizes_of(pa, m)) <= ubar

    def test_kk_at_least_brute_and_often_equal(self):
        # Calibrated once against this frozen distribution (12 items, m=3,
        # weights uniform 1..30): observed 134-146/200 hits across seeds, so
        # the >= 50% threshold holds with margin. Wider weight ranges push
        # the exact-hit rate far lower; the dominance assertion is universal.
        rng = random.Random(2718)
        hits = 0
        for _ in range(200):
            items = items_of(*[rng.randint(1, 30) for _ in range(12)])
            pa = kk_multiway(items, 3, 12)
            kk_obj = max(sums_of(pa, items, 3))
            opt, _ = min_max_brute(items, 3, 12)
            assert kk_obj >= opt
            if kk_obj == opt:
                hits += 1
        assert hits >= 100

    def test_kk_beats_lpt_on_average(self):
        rng = random.Random(314)
        kk_total = 0
        lpt_total = 0
        for _ in range(100):
            items = items_of(*[rng.randint(1, 1000) for _ in range(16)])
            kk_total += max(sums_of(kk_multiway(items, 4, 16), items, 4))
            lpt_total += max(sums_of(greedy_lpt(items, 4, 16), items, 4))
        assert kk_total <= lpt_total
