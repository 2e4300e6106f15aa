import random

import pytest

from pmmwm.errors import NoPerfectMatching
from pmmwm.graph import BipartiteGraph
from pmmwm.matching import (
    batch_resolve,
    check_invariants,
    repair_after_ban,
    repair_after_unban,
    solve_full,
)

from helpers import random_complete_graph, random_dense_graph
from oracles import brute_force_min_matching


def complete(weights, m=1, ubar=None):
    n1 = len(weights)
    n2 = len(weights[0])
    ubar = ubar or n1
    edges = [(u, v, weights[u][v]) for u in range(n1) for v in range(n2)]
    return BipartiteGraph.from_edges(n1, n2, m, ubar, edges)


class TestSolveFull:
    def test_diagonal_optimum(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        assert st.total_weight == 2
        assert st.mate_u.tolist() == [0, 1]
        check_invariants(g, st)

    def test_tied_matchings(self):
        # both permutations cost 5
        g = complete([[1, 2], [3, 4]])
        st = solve_full(g)
        assert st.total_weight == 5
        check_invariants(g, st)

    def test_random_6x6_against_permutations(self):
        rng = random.Random(42)
        for _ in range(25):
            g = random_complete_graph(6, 6, 1, 6, rng)
            st = solve_full(g)
            assert st.total_weight == brute_force_min_matching(g)
            check_invariants(g, st)

    def test_rectangular_instances(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_dense_graph(4, 7, 1, 4, rng, density=0.6)
            st = solve_full(g)
            assert st.total_weight == brute_force_min_matching(g)
            check_invariants(g, st)

    def test_sparse_against_permutations(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_dense_graph(6, 6, 1, 6, rng, density=0.4)
            st = solve_full(g)
            assert st.total_weight == brute_force_min_matching(g)
            check_invariants(g, st)

    def test_duality_equation(self):
        rng = random.Random(5)
        g = random_complete_graph(8, 8, 1, 8, rng)
        st = solve_full(g)
        matched_cols = st.mate_v >= 0
        assert st.total_weight == int(st.alpha.sum()) + int(st.beta[matched_cols].sum())

    def test_infeasible_raises(self):
        g = BipartiteGraph.from_edges(2, 2, 1, 2, [(0, 0, 1), (1, 0, 1)])
        with pytest.raises(NoPerfectMatching):
            solve_full(g)

    def test_isolated_vertex_raises(self):
        g = BipartiteGraph.from_edges(2, 2, 1, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 5)])
        g.ban_edge(1, 0)
        with pytest.raises(NoPerfectMatching):
            solve_full(g)


class TestRepairAfterBan:
    def test_unmatched_edge_ban_is_noop(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        g.ban_edge(0, 1)  # not in the diagonal optimum
        st = repair_after_ban(g, st, 0, 1)
        assert st.total_weight == 2
        assert st.mate_u.tolist() == [0, 1]
        check_invariants(g, st)

    def test_matched_edge_ban_reoptimizes(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        g.ban_edge(0, 0)
        st = repair_after_ban(g, st, 0, 0)
        assert st.total_weight == 4
        assert st.mate_u.tolist() == [1, 0]
        check_invariants(g, st)

    def test_single_phase_per_repair(self):
        rng = random.Random(9)
        g = random_complete_graph(8, 8, 1, 8, rng)
        st = solve_full(g)
        phases = st.phase_count
        u = 3
        g.ban_edge(u, int(st.mate_u[u]))
        st = repair_after_ban(g, st, u, int(st.mate_u[u]))
        assert st.phase_count - phases <= 1

    def test_veto_rolls_back_state(self):
        # u1 has degree 1: banning its only edge must fail and roll back
        g = BipartiteGraph.from_edges(2, 2, 1, 2,
                                      [(0, 0, 1), (0, 1, 1), (1, 0, 5)])
        st = solve_full(g)
        before_mates = st.mate_u.tolist()
        before_weight = st.total_weight
        g.ban_edge(1, 0)
        with pytest.raises(NoPerfectMatching):
            repair_after_ban(g, st, 1, 0)
        g.unban_edge(1, 0)
        assert st.mate_u.tolist() == before_mates
        assert st.total_weight == before_weight
        check_invariants(g, st)

    def test_fifty_random_bans_match_full_solve(self):
        rng = random.Random(123)
        for trial in range(6):
            g = random_dense_graph(8, 8, 1, 8, rng, density=0.9)
            st = solve_full(g)
            for _ in range(50):
                candidates = [(u, v) for u in range(8) for v in range(8)
                              if g.is_available(u, v)]
                u, v = candidates[rng.randrange(len(candidates))]
                g.ban_edge(u, v)
                try:
                    st = repair_after_ban(g, st, u, v)
                except NoPerfectMatching:
                    g.unban_edge(u, v)
                    continue
                check_invariants(g, st)
                assert st.total_weight == solve_full(g).total_weight


class TestRepairAfterUnban:
    def test_loose_edge_restore_is_noop(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        g.ban_edge(0, 1)
        st = repair_after_ban(g, st, 0, 1)
        alpha_before = st.alpha.copy()
        g.unban_edge(0, 1)
        st = repair_after_unban(g, st, 0, 1)
        assert st.total_weight == 2
        assert (st.alpha == alpha_before).all()
        check_invariants(g, st)

    def test_restore_recovers_optimum(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        g.ban_edge(0, 0)
        st = repair_after_ban(g, st, 0, 0)
        assert st.total_weight == 4
        g.unban_edge(0, 0)
        st = repair_after_unban(g, st, 0, 0)
        assert st.total_weight == 2
        check_invariants(g, st)

    def test_ban_unban_round_trips(self):
        rng = random.Random(77)
        for trial in range(10):
            g = random_complete_graph(8, 8, 1, 8, rng)
            st = solve_full(g)
            original = st.total_weight
            for _ in range(12):
                u = rng.randrange(8)
                v = int(st.mate_u[u])
                g.ban_edge(u, v)
                st = repair_after_ban(g, st, u, v)
                g.unban_edge(u, v)
                st = repair_after_unban(g, st, u, v)
                check_invariants(g, st)
                assert st.total_weight == original


class TestMixedSequences:
    def test_mixed_ban_unban_against_oracle(self):
        rng = random.Random(2024)
        for trial in range(5):
            g = random_dense_graph(8, 8, 1, 8, rng, density=0.85)
            st = solve_full(g)
            banned: list[tuple[int, int]] = []
            for _ in range(50):
                if banned and rng.random() < 0.4:
                    u, v = banned.pop(rng.randrange(len(banned)))
                    g.unban_edge(u, v)
                    st = repair_after_unban(g, st, u, v)
                else:
                    avail = [(u, v) for u in range(8) for v in range(8)
                             if g.is_available(u, v)]
                    u, v = avail[rng.randrange(len(avail))]
                    g.ban_edge(u, v)
                    try:
                        st = repair_after_ban(g, st, u, v)
                        banned.append((u, v))
                    except NoPerfectMatching:
                        g.unban_edge(u, v)
                check_invariants(g, st)
                assert st.total_weight == solve_full(g).total_weight


class TestBatchResolve:
    def test_empty_batch(self):
        g = complete([[1, 2], [2, 1]])
        st = solve_full(g)
        assert batch_resolve(g, st, set()) is st

    def test_partial_release_matches_oracle(self):
        rng = random.Random(15)
        g = random_complete_graph(8, 8, 1, 8, rng)
        st = solve_full(g)
        bans = [(0, int(st.mate_u[0]))]
        g.ban_edge(*bans[0])
        st = repair_after_ban(g, st, *bans[0])
        for u in (2, 5):
            v = int(st.mate_u[u])
            g.ban_edge(u, v)
            st = repair_after_ban(g, st, u, v)
            bans.append((u, v))
        released = set(bans[:2])
        for e in released:
            g.unban_edge(*e)
        st = batch_resolve(g, st, released)
        check_invariants(g, st)
        assert st.total_weight == solve_full(g).total_weight

    def test_release_all_restores_original(self):
        rng = random.Random(31)
        g = random_complete_graph(8, 8, 1, 8, rng)
        st = solve_full(g)
        original = st.total_weight
        bans = []
        for u in range(4):  # half of U: a large batch still repairs edge by edge
            v = int(st.mate_u[u])
            g.ban_edge(u, v)
            st = repair_after_ban(g, st, u, v)
            bans.append((u, v))
        for e in bans:
            g.unban_edge(*e)
        phases = st.phase_count
        st = batch_resolve(g, st, set(bans))
        check_invariants(g, st)
        assert st.total_weight == original
        assert st.phase_count - phases <= len(bans)


class TestScaling:
    def test_repair_cheaper_than_full_solve(self):
        import time
        rng = random.Random(8)
        n = 150
        g = random_complete_graph(n, n, 1, n, rng, w_max=10**6)
        t0 = time.perf_counter()
        st = solve_full(g)
        full_time = time.perf_counter() - t0
        u = 10
        v = int(st.mate_u[u])
        g.ban_edge(u, v)
        t0 = time.perf_counter()
        st = repair_after_ban(g, st, u, v)
        repair_time = time.perf_counter() - t0
        assert repair_time < full_time
