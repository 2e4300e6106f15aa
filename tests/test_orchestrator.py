import random
import time

import numpy as np
import pytest

from pmmwm import InstanceSpec, generate, harness, hga, orchestrator
from pmmwm.errors import InfeasibleInstance, NoPerfectMatching
from pmmwm.graph import BipartiteGraph, validate_solution
from pmmwm.hga import HgaParams, Individual, fitness_of
from pmmwm.matching import check_invariants, repair_after_ban, solve_full
from pmmwm.orchestrator import BanList, FimpParams, modify_graph, solve

from helpers import lists_digest, make_example_graph, random_dense_graph


@pytest.fixture(autouse=True)
def _certify(monkeypatch):
    """Every matcher call in this module, ``modify_graph``'s repairs within
    full solves included, ends with a check_invariants scan."""
    monkeypatch.setenv("PMMWM_CHECK_INVARIANTS", "1")


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
    def test_one_ban_step_per_iteration_charged_to_matching(self, monkeypatch, run):
        # two partitions of exactly 4: solve is not certified at iteration 0,
        # so both solvers run their whole budget
        g = random_dense_graph(8, 8, 2, 4, random.Random(23), density=0.8)
        calls = []
        real = orchestrator.modify_graph

        def slow_modify_graph(*args, **kwargs):
            calls.append(1)
            time.sleep(0.005)
            return real(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "modify_graph", slow_modify_graph)
        result = run(g, 2, 4, small_params(seed=1, iterations=5))
        assert result.stats.iterations == len(calls) == 5
        assert all(rec.match_ms >= 5.0 for rec in result.stats.trace)

    @both_solvers
    def test_time_limit_stops_early(self, run):
        rng = random.Random(31)
        g = random_dense_graph(10, 10, 3, 4, rng, density=1.0)
        result = run(g, 3, 4, small_params(seed=2, iterations=10_000,
                                           time_limit_ms=200))
        assert result.stats.iterations < 10_000
        assert result.solution is not None

    @both_solvers
    def test_zero_time_limit_runs_iteration_zero_only(self, run):
        rng = random.Random(31)
        g = random_dense_graph(10, 10, 3, 4, rng, density=1.0)
        assert run(g.copy(), 3, 4, small_params(seed=2, iterations=5)).stats.iterations > 1
        result = run(g, 3, 4, small_params(seed=2, iterations=5, time_limit_ms=0))
        assert result.stats.iterations == 1

    def test_zero_time_limit_gives_a_valid_solution(self):
        # the deadline has passed before the HGA starts, so its start
        # population goes unimproved; the answer must still be valid
        g = generate(InstanceSpec(200, 200, 10, 24, 0.3, "CONSISTENT", 1000, 9))
        result = solve(g, 10, 24, FimpParams(time_limit_ms=0, rng_seed=9))
        assert result.stats.iterations == 1
        assert validate_solution(g, result.solution) is None

    def test_time_limit_interrupts_the_hga(self, monkeypatch):
        # Unlimited, iteration 0 at n1=200, m=100, ubar=2 (pop 20) runs all
        # 5000 generations in about 1.3 s on a 2-vCPU x86 host: some 110 ms
        # to the first generation, 1.4-2 ms for each of the first 150 and
        # about 0.2 ms for each later one, most of whose children are memo
        # hits. Its best, 368, stays above the bound of 337, and the stall
        # limit equals the generation budget, so only the 300 ms deadline
        # can end iteration 0 and no iteration 1 starts.
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
                            hga=HgaParams(pop_size=20, max_generations=5000,
                                          stall_limit=5000))
        t0 = time.perf_counter()
        result = solve(g, 100, 2, params)
        wall = time.perf_counter() - t0
        assert result.stats.iterations == 1
        # init_population is not interrupted; the rest ends within 3x the limit
        assert wall < 3 * 0.300 + sum(init_s)


class TestCarriedPopulation:
    # tight capacity (n1/m = 2): iteration 0 is not certified, so every
    # iteration of the budget runs
    SPEC = InstanceSpec(32, 32, 16, 2, 0.3, "CONSISTENT", 1000, 21)

    def test_population_built_once_then_carried(self, monkeypatch):
        built, carried = [], []
        real_init, real_evolve = hga.init_population, orchestrator.evolve

        def counted_init(*args, **kwargs):
            built.append(args)
            return real_init(*args, **kwargs)

        def recorded_evolve(*args, population=None, **kwargs):
            carried.append(population is not None)
            return real_evolve(*args, population=population, **kwargs)

        monkeypatch.setattr(hga, "init_population", counted_init)
        monkeypatch.setattr(orchestrator, "evolve", recorded_evolve)
        result = solve(generate(self.SPEC), 16, 2, small_params(seed=3, iterations=6))
        assert result.stats.iterations == 6
        assert len(built) == 1
        assert carried == [False] + [True] * 5
        incumbents = [rec.incumbent for rec in result.stats.trace]
        assert incumbents == sorted(incumbents, reverse=True)
        assert incumbents[-1] < incumbents[0]

    def test_iteration_zero_unchanged(self):
        # recorded before later iterations carried the population over:
        # iteration 0 still builds and evolves it as it did then
        sol = solve(generate(self.SPEC), 16, 2, small_params(seed=3, iterations=1)).solution
        assert (sol.objective, lists_digest(sol.mate, sol.partition.part_of)) == (
            401, "43792ddcb7d63d146fed6355dbaa70864dc4119d6a9bdf4452375b1ac57111a6")


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
    @staticmethod
    def individual(g, st, part, m):
        """The ``Individual`` that partitions ``st``'s matched weights by ``part``."""
        part = np.array(part, dtype=np.int64)
        return Individual(part, fitness_of(part, g.weight[np.arange(g.n1), st.mate_u], m))

    @staticmethod
    def first_candidate(g, mate, part):
        """The heaviest edge (u, mate[u]) of the heaviest partition under
        ``mate`` (ties: lowest partition, then lowest u)."""
        sums = [0] * (max(part) + 1)
        for u in range(g.n1):
            sums[part[u]] += int(g.weight[u, mate[u]])
        heaviest = sums.index(max(sums))
        u = max((u for u in range(g.n1) if part[u] == heaviest),
                key=lambda u: (int(g.weight[u, mate[u]]), -u))
        return (u, int(mate[u]))

    def build(self, seed=0):
        rng = random.Random(seed)
        g = random_dense_graph(8, 8, 2, 5, rng, density=1.0)
        st = solve_full(g)
        part = [u % 2 for u in range(8)]
        return g, st, part, self.individual(g, st, part, 2)

    def test_bans_heaviest_edge_of_heaviest_partition(self):
        g, st, part, best = self.build()
        expect_edge = self.first_candidate(g, st.mate_u.tolist(), part)
        bans = BanList()
        modify_graph(g, st, best, bans=bans, tenure=4)
        assert bans.entries == {expect_edge: 4}
        assert g.banned[expect_edge]
        check_invariants(g, st)

    def test_consecutive_calls_add_bans(self):
        # the second call reads the matching repaired around the first ban,
        # so it bans that matching's first candidate, a different edge
        g, st, part, best = self.build(seed=1)
        bans = BanList()
        modify_graph(g, st, best, bans=bans, tenure=50)
        [first] = bans.entries
        assert int(st.mate_u[first[0]]) != first[1]
        second = self.first_candidate(g, st.mate_u.tolist(), part)
        modify_graph(g, st, self.individual(g, st, part, 2), bans=bans, tenure=50)
        assert bans.entries == {first: 49, second: 50}
        check_invariants(g, st)

    @staticmethod
    def record_tries(monkeypatch):
        """Wrap ``modify_graph``'s ``repair_after_ban``; the returned list
        gets each tried edge and whether its ban was kept."""
        tries = []
        repair = orchestrator.repair_after_ban

        def recording(g, st, u, v):
            try:
                repair(g, st, u, v)
            except NoPerfectMatching:
                tries.append(((u, v), False))
                raise
            tries.append(((u, v), True))

        monkeypatch.setattr(orchestrator, "repair_after_ban", recording)
        return tries

    def single_edge_row(self):
        # vertex 0 has a single edge, (0, 0): banning it is always infeasible
        edges = [(0, 0, 50)]
        for u in range(1, 4):
            for v in range(4):
                edges.append((u, v, 10 * u + v))
        g = BipartiteGraph.from_edges(4, 4, 1, 4, edges)
        st = solve_full(g)
        return g, st, self.individual(g, st, [0, 0, 0, 0], 1)

    def test_vetoed_ban_restores_and_tries_next(self):
        # (0, 0) is the heaviest candidate and its ban is rejected: the edge
        # is restored, nothing records the rejection, and the next-heaviest
        # candidate in the partition is banned instead
        g, st, best = self.single_edge_row()
        bans = BanList()
        modify_graph(g, st, best, bans=bans, tenure=6)
        assert not g.banned[0, 0] and (0, 0) not in bans.entries
        assert len(bans) == 1
        check_invariants(g, st)

    def test_rejected_ban_is_tried_again(self, monkeypatch):
        g, st, best = self.single_edge_row()
        tries = self.record_tries(monkeypatch)
        bans = BanList()
        modify_graph(g, st, best, bans=bans, tenure=6)
        modify_graph(g, st, self.individual(g, st, [0, 0, 0, 0], 1), bans=bans, tenure=6)
        assert [ok for edge, ok in tries if edge == (0, 0)] == [False, False]
        assert len(bans) == 2 and not g.banned[0, 0]
        check_invariants(g, st)

    def test_rejected_ban_taken_once_its_blocker_expires(self, monkeypatch):
        # one partition, tenure 2. Call 1 bans (2, 1); the matching then
        # routes through (0, 1), whose ban call 2 rejects while (2, 1) is
        # active. Call 3 releases (2, 1) and bans (0, 1) at once.
        edges = [(0, 0, 3), (0, 1, 52), (1, 0, 98), (1, 1, 67), (1, 2, 69),
                 (2, 0, 47), (2, 1, 23)]
        g = BipartiteGraph.from_edges(3, 3, 1, 3, edges)
        st = solve_full(g)
        tries = self.record_tries(monkeypatch)
        bans = BanList()
        entries = []
        for _ in range(3):
            modify_graph(g, st, self.individual(g, st, [0, 0, 0], 1), bans=bans, tenure=2)
            entries.append(dict(bans.entries))
            check_invariants(g, st)
        assert entries == [{(2, 1): 2}, {(2, 1): 1}, {(0, 1): 2}]
        assert tries.index(((0, 1), False)) < tries.index(((0, 1), True))

    def test_tenure_expiry_restores_edges(self):
        # call 2 bans the repaired matching's candidate, so call 3 releases
        # call 1's ban while call 2's ages and one more is added; the released
        # edge was unmatched on entry to call 3, so it is not re-banned
        g, st, part, best = self.build(seed=3)
        bans = BanList()
        modify_graph(g, st, best, bans=bans, tenure=2)
        [first] = bans.entries
        assert bans.entries == {first: 2}
        modify_graph(g, st, self.individual(g, st, part, 2), bans=bans, tenure=2)
        [second] = set(bans.entries) - {first}
        assert bans.entries == {first: 1, second: 2}
        modify_graph(g, st, self.individual(g, st, part, 2), bans=bans, tenure=2)
        assert not g.banned[first] and first not in bans.entries
        assert len(bans) == 2 and bans.entries[second] == 1
        flagged = {(int(u), int(v)) for u, v in zip(*g.banned.nonzero())}
        assert flagged == set(bans.entries)
        check_invariants(g, st)

    def test_bans_the_edge_matched_before_the_release(self):
        # (0, 0) is banned and expires in this call. On entry row 0 is
        # matched to (0, 1), weight 50, the heaviest edge; the release
        # re-matches it to (0, 0). The step bans the entry edge (0, 1), now
        # unmatched, which leaves the repaired matching as it is, and not
        # (1, 1), the heaviest edge of the repaired matching.
        g = BipartiteGraph.from_edges(2, 2, 1, 2, [(0, 0, 10), (0, 1, 50),
                                                    (1, 0, 20), (1, 1, 20)])
        st = solve_full(g)
        g.ban_edge(0, 0)
        repair_after_ban(g, st, 0, 0)
        assert st.mate_u.tolist() == [1, 0]
        bans = BanList()
        bans.entries[(0, 0)] = 1
        modify_graph(g, st, self.individual(g, st, [0, 0], 1), bans=bans, tenure=3)
        assert bans.entries == {(0, 1): 3}
        assert st.mate_u.tolist() == [0, 1]
        assert g.banned[0, 1] and not g.banned[0, 0]
        check_invariants(g, st)

    def test_banlist_age_unit(self):
        g = random_dense_graph(4, 4, 1, 4, random.Random(0), density=1.0)
        bans = BanList()
        for edge, left in {(0, 1): 2, (2, 3): 1}.items():
            g.ban_edge(*edge)
            bans.entries[edge] = left
        assert bans.age(g) == [(2, 3)]
        assert bans.entries == {(0, 1): 1}
        assert g.banned[0, 1] and not g.banned[2, 3]
        assert bans.age(g) == [(0, 1)]
        assert len(bans) == 0
        assert not g.banned.any()

    def test_banlist_mirrors_graph_flags(self):
        g, st, part, _ = self.build(seed=4)
        bans = BanList()
        for _ in range(12):
            modify_graph(g, st, self.individual(g, st, part, 2), bans=bans, tenure=3)
            flagged = {(int(u), int(v)) for u, v in zip(*g.banned.nonzero())}
            assert flagged == set(bans.entries)
            assert all(t >= 1 for t in bans.entries.values())
            assert st.total_weight == solve_full(g).total_weight

    def test_monotone_ban_growth_without_expiry(self):
        # effectively infinite tenure: the banned set grows until every
        # candidate is banned or its ban is rejected
        g, st, part, _ = self.build(seed=5)
        bans = BanList()
        sizes = []
        for _ in range(10):
            modify_graph(g, st, self.individual(g, st, part, 2), bans=bans, tenure=10_000)
            sizes.append(len(bans))
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("n2", [8, 11])
    def test_sampled_state_equals_full_resolve(self, n2):
        rng = random.Random(6)
        g = random_dense_graph(8, n2, 2, 5, rng, density=0.7)
        st = solve_full(g)
        part = [u % 2 for u in range(8)]
        bans = BanList()
        for _ in range(10):
            modify_graph(g, st, self.individual(g, st, part, 2), bans=bans, tenure=5)
            check_invariants(g, st)
            assert st.total_weight == solve_full(g).total_weight
