import random
import time

import pytest

from pmmwm import InstanceSpec, generate, harness, hga, orchestrator
from pmmwm.errors import InfeasibleInstance
from pmmwm.graph import (
    BipartiteGraph,
    PartitionAssignment,
    Solution,
    validate_solution,
)
from pmmwm.hga import HgaParams
from pmmwm.matching import check_invariants, solve_full
from pmmwm.orchestrator import BanList, FimpParams, modify_graph, solve

from helpers import make_example_graph, random_dense_graph


def small_params(seed=0, iterations=25, **kw):
    hga = HgaParams(pop_size=8, max_generations=30, stall_limit=8)
    defaults = dict(max_iterations=iterations, tenure=5, hga=hga, rng_seed=seed)
    defaults.update(kw)
    return FimpParams(**defaults)


both_solvers = pytest.mark.parametrize("run", [solve, harness.baseline_ls],
                                       ids=["solve", "baseline_ls"])


class TestSolve:
    def test_example_reaches_optimum(self):
        g = make_example_graph()
        result = solve(g, 3, 3, small_params(iterations=10))
        assert result.solution.objective == 4
        assert validate_solution(g, result.solution) is None
        assert not g.banned.any()

    def test_single_partition_short_circuit(self):
        g = make_example_graph()
        result = solve(g, 1, 6, small_params())
        assert result.stats.iterations == 1
        assert result.solution.objective == solve_full(g).total_weight
        assert result.stats.lower_bound == result.solution.objective
        assert result.stats.certified_optimal
        assert result.solution.partition.part_of == [0] * 6

    @both_solvers
    def test_incumbent_objective_non_increasing(self, run):
        rng = random.Random(5)
        g = random_dense_graph(8, 8, 2, 5, rng, density=0.9)
        result = run(g, 2, 5, small_params(seed=3, iterations=30))
        incumbents = [rec.incumbent for rec in result.stats.trace]
        assert incumbents == sorted(incumbents, reverse=True)
        assert result.solution.objective == incumbents[-1]

    @both_solvers
    @pytest.mark.parametrize("spec", [
        InstanceSpec(24, 24, 12, 2, 0.15, "CONSISTENT", 1000, 30),
        InstanceSpec(32, 32, 16, 2, 0.3, "CONSISTENT", 1000, 21),
    ], ids=["veto", "tight"])
    def test_bans_only_expire(self, run, spec):
        # with a tenure longer than the run no ban expires, so nothing else
        # may lift one and the active count never falls
        g = generate(spec)
        result = run(g, spec.m, spec.ubar, small_params(iterations=20, tenure=50))
        active = [rec.bans_active for rec in result.stats.trace]
        assert active == sorted(active)

    def test_deterministic(self):
        rng = random.Random(17)
        g1 = random_dense_graph(7, 7, 2, 4, rng, density=0.9)
        g2 = g1.copy()
        r1 = solve(g1, 2, 4, small_params(seed=11, iterations=15))
        r2 = solve(g2, 2, 4, small_params(seed=11, iterations=15))
        assert r1.solution.mate == r2.solution.mate
        assert r1.solution.partition.part_of == r2.solution.partition.part_of
        assert r1.solution.objective == r2.solution.objective
        assert [t.objective for t in r1.stats.trace] == \
            [t.objective for t in r2.stats.trace]

    def test_single_partition_checks_hga_params(self):
        with pytest.raises(ValueError, match="pop_size"):
            solve(make_example_graph(), 1, 6,
                  small_params(hga=HgaParams(pop_size=1)))

    def test_infeasible_capacity(self):
        g = make_example_graph()
        with pytest.raises(InfeasibleInstance):
            solve(g, 2, 2, small_params())

    @both_solvers
    def test_graph_restored_after_run(self, run):
        rng = random.Random(23)
        g = random_dense_graph(8, 8, 2, 5, rng, density=0.8)
        run(g, 2, 5, small_params(seed=1, iterations=20))
        assert not g.banned.any()

    def test_solution_objective_matches_reported(self):
        rng = random.Random(29)
        for seed in range(5):
            g = random_dense_graph(6, 6, 2, 4, rng, density=0.9)
            result = solve(g, 2, 4, small_params(seed=seed, iterations=15))
            sums = [0, 0]
            for u in range(6):
                sums[result.solution.partition.part_of[u]] += \
                    int(g.weight[u, result.solution.mate[u]])
            assert max(sums) == result.solution.objective

    @pytest.mark.parametrize("module, name", [(orchestrator, "evolve"),
                                              (harness, "mls_improve")],
                             ids=["solve", "baseline_ls"])
    def test_ban_flags_restored_when_a_stage_raises(self, monkeypatch, module, name):
        # two partitions of exactly 4: iteration 0 of solve is not certified,
        # so a later step meets the bans
        g = random_dense_graph(8, 8, 2, 4, random.Random(23), density=0.8)
        real = getattr(module, name)

        def raise_once_banned(*args, **kwargs):
            if g.banned.any():
                raise KeyError("stage failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, raise_once_banned)
        run = solve if module is orchestrator else harness.baseline_ls
        with pytest.raises(KeyError, match="stage failed"):
            run(g, 2, 4, small_params(seed=1, iterations=20))
        assert not g.banned.any()

    @both_solvers
    def test_time_limit_stops_early(self, run):
        rng = random.Random(31)
        g = random_dense_graph(10, 10, 3, 4, rng, density=1.0)
        result = run(g, 3, 4, small_params(seed=2, iterations=10_000,
                                           time_limit_ms=200))
        assert result.stats.iterations < 10_000
        assert result.solution is not None

    def test_time_limit_interrupts_the_hga(self, monkeypatch):
        # Unlimited, this one evolve call runs 150 generations of about
        # 90 ms each at n1=200, m=100, ubar=2 (pop 20): some 13 s against a
        # 300 ms limit. Its best, 368, stays above the bound of 337, so only
        # the deadline can stop it.
        g = generate(InstanceSpec(200, 200, 100, 2, 1.0, "CONSISTENT", 1000, 5))
        init_s = []

        def timed_init(*args, **kwargs):
            t0 = time.perf_counter()
            population = real_init(*args, **kwargs)
            init_s.append(time.perf_counter() - t0)
            return population

        real_init = hga.init_population
        monkeypatch.setattr(hga, "init_population", timed_init)
        params = FimpParams(max_iterations=50, time_limit_ms=300, rng_seed=0,
                            hga=HgaParams(pop_size=20, max_generations=150,
                                          stall_limit=150))
        t0 = time.perf_counter()
        result = solve(g, 100, 2, params)
        wall = time.perf_counter() - t0
        assert result.stats.iterations == 1
        # init_population is not interrupted; the rest ends within 3x the limit
        assert wall < 3 * 0.300 + sum(init_s)


class TestCertifiedStop:
    # init_population reaches ceil(W*/m) on iteration 0's matching
    SPEC = InstanceSpec(200, 200, 10, 24, 1.0, "CONSISTENT", 1000, 5)

    def test_solve_stops_once_certified(self):
        g = generate(self.SPEC)
        result = solve(g, 10, 24, FimpParams(max_iterations=5, rng_seed=0))
        bound = -(-solve_full(g).total_weight // 10)
        assert result.stats.iterations == len(result.stats.trace) == 1
        assert result.stats.certified_optimal
        assert result.stats.lower_bound == result.solution.objective == bound
        assert not g.banned.any()

    def test_baseline_keeps_its_budget(self):
        g = generate(self.SPEC)
        result = harness.baseline_ls(g, 10, 24, FimpParams(max_iterations=5, rng_seed=0))
        assert result.stats.iterations == 5
        assert result.stats.lower_bound is None
        assert not result.stats.certified_optimal

    def test_uncertified_run_uses_its_budget(self):
        g = random_dense_graph(8, 8, 2, 4, random.Random(23), density=0.8)
        result = solve(g, 2, 4, small_params(seed=1, iterations=20))
        assert result.stats.iterations == 20
        assert result.stats.lower_bound == -(-solve_full(g).total_weight // 2)
        assert result.solution.objective > result.stats.lower_bound
        assert not result.stats.certified_optimal


class TestModifyGraph:
    def build(self, seed=0):
        rng = random.Random(seed)
        g = random_dense_graph(8, 8, 2, 5, rng, density=1.0)
        st = solve_full(g)
        part = PartitionAssignment(2, 5, [u % 2 for u in range(8)])
        sol = Solution(mate=[int(v) for v in st.mate_u], partition=part)
        sums = [0, 0]
        for u in range(8):
            sums[part.part_of[u]] += int(g.weight[u, sol.mate[u]])
        sol.objective = max(sums)
        return g, st, sol, sums

    def test_bans_heaviest_edge_of_heaviest_partition(self):
        g, st, sol, sums = self.build()
        heaviest = sums.index(max(sums))
        expect_u = max(
            (u for u in range(8) if sol.partition.part_of[u] == heaviest),
            key=lambda u: (int(g.weight[u, sol.mate[u]]), -u))
        expect_edge = (expect_u, sol.mate[expect_u])
        bans = BanList()
        st = modify_graph(g, st, sol, bans=bans, tenure=4)
        assert bans.entries == {expect_edge: 4}
        assert g.banned[expect_edge]
        check_invariants(g, st)

    def test_consecutive_calls_add_bans(self):
        g, st, sol, _ = self.build(seed=1)
        bans = BanList()
        st = modify_graph(g, st, sol, bans=bans, tenure=50)
        assert len(bans) == 1
        st = modify_graph(g, st, sol, bans=bans, tenure=50)
        assert len(bans) == 2

    def test_vetoed_ban_restores_and_tries_next(self):
        # vertex 0 has a single edge: banning it is always infeasible, so the
        # next-heaviest candidate in the partition gets banned instead
        edges = [(0, 0, 50)]
        for u in range(1, 4):
            for v in range(4):
                edges.append((u, v, 10 * u + v))
        g = BipartiteGraph.from_edges(4, 4, 1, 4, edges)
        st = solve_full(g)
        part = PartitionAssignment(1, 4, [0, 0, 0, 0])
        sol = Solution(mate=[int(v) for v in st.mate_u], partition=part,
                       objective=st.total_weight)
        bans = BanList()
        st = modify_graph(g, st, sol, bans=bans, tenure=6)
        assert (0, 0) in bans.vetoed and not g.banned[0, 0]
        assert len(bans) == 1 and (0, 0) not in bans.entries
        check_invariants(g, st)

    def test_tenure_expiry_restores_edges(self):
        g, st, sol, _ = self.build(seed=3)
        bans = BanList()
        st = modify_graph(g, st, sol, bans=bans, tenure=2)
        banned_edge = next(iter(bans.entries))
        assert bans.entries[banned_edge] == 2
        st = modify_graph(g, st, sol, bans=bans, tenure=2)
        assert bans.entries[banned_edge] == 1
        # third call: the edge expires and is released; with the solution held
        # fixed it is immediately re-banned as the still-heaviest candidate,
        # which shows as a fresh tenure rather than a stale zero
        st = modify_graph(g, st, sol, bans=bans, tenure=2)
        assert bans.entries[banned_edge] == 2
        flagged = {(int(u), int(v)) for u, v in zip(*g.banned.nonzero())}
        assert flagged == set(bans.entries)
        check_invariants(g, st)

    def test_banlist_age_unit(self):
        g = random_dense_graph(4, 4, 1, 4, random.Random(0), density=1.0)
        bans = BanList()
        for edge, left in {(0, 1): 2, (2, 3): 1}.items():
            g.ban_edge(*edge)
            bans.entries[edge] = left
        bans.vetoed[(1, 2)] = 2
        assert bans.age(g) == [(2, 3)]
        assert bans.entries == {(0, 1): 1}
        assert bans.vetoed == {(1, 2): 1}
        assert g.banned[0, 1] and not g.banned[2, 3]
        assert bans.age(g) == [(0, 1)]
        assert len(bans) == 0 and bans.vetoed == {}
        assert not g.banned.any()

    def test_banlist_mirrors_graph_flags(self):
        g, st, sol, _ = self.build(seed=4)
        bans = BanList()
        for _ in range(12):
            st = modify_graph(g, st, sol, bans=bans, tenure=3)
            flagged = {(int(u), int(v)) for u, v in zip(*g.banned.nonzero())}
            assert flagged == set(bans.entries)
            assert all(t >= 1 for t in bans.entries.values())
            assert st.total_weight == solve_full(g).total_weight

    def test_monotone_ban_growth_without_expiry(self):
        # effectively infinite tenure: the banned set grows until candidates
        # run out or get vetoed
        g, st, sol, _ = self.build(seed=5)
        bans = BanList()
        sizes = []
        for _ in range(10):
            st = modify_graph(g, st, sol, bans=bans, tenure=10_000)
            sizes.append(len(bans))
        assert sizes == sorted(sizes)

    def test_sampled_state_equals_full_resolve(self):
        rng = random.Random(6)
        g = random_dense_graph(8, 8, 2, 5, rng, density=0.7)
        st = solve_full(g)
        part = PartitionAssignment(2, 5, [u % 2 for u in range(8)])
        sol = Solution(mate=[int(v) for v in st.mate_u], partition=part,
                       objective=100)
        bans = BanList()
        for _ in range(10):
            st = modify_graph(g, st, sol, bans=bans, tenure=5)
            check_invariants(g, st)
            assert st.total_weight == solve_full(g).total_weight
            sol = Solution(mate=[int(v) for v in st.mate_u], partition=part,
                           objective=100)
