import csv
import random
import time

import pytest

from pmmwm import cli, harness
from pmmwm.errors import InfeasibleInstance, ParseError, TooLarge
from pmmwm.graph import BipartiteGraph, save_instance, validate_solution
from pmmwm.harness import (
    REPORT_COLUMNS,
    RunReport,
    baseline_ls,
    bench,
    compare_reports,
    exact_oracle,
    read_reports,
    run_algorithm,
    write_compare,
    write_reports,
)
from pmmwm.hga import HgaParams
from pmmwm.instgen import InstanceSpec, write_instance
from pmmwm.matching import solve_full
from pmmwm.orchestrator import FimpParams, solve

from helpers import make_example_graph, random_dense_graph
from oracles import permutation_first_oracle


def tiny_params(seed=0, iterations=15):
    return FimpParams(max_iterations=iterations, tenure=4,
                      hga=HgaParams(pop_size=6, max_generations=20, stall_limit=6),
                      rng_seed=seed)


class TestExactOracle:
    def test_example_instance(self):
        g = make_example_graph()
        opt, sol = exact_oracle(g, 3, 3)
        assert opt == 4
        assert validate_solution(g, sol) is None
        assert sol.objective == 4

    def test_single_partition_equals_min_matching(self):
        rng = random.Random(2)
        g = random_dense_graph(6, 6, 1, 6, rng, density=0.8)
        opt, _ = exact_oracle(g, 1, 6)
        assert opt == solve_full(g).total_weight

    def test_two_by_two_unit_capacity(self):
        g = BipartiteGraph.from_edges(2, 2, 2, 1,
                                      [(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 1)])
        opt, sol = exact_oracle(g, 2, 1)
        # matchings give per-vertex weights {1,1} or {2,2}; one per partition
        assert opt == 1
        assert sorted(sol.mate) == [0, 1]

    def test_agrees_with_permutation_first_enumeration(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(2, 5)
            m = rng.randint(1, 3)
            ubar = rng.randint((n + m - 1) // m, n)
            g = random_dense_graph(n, n, m, ubar, rng, density=0.7, w_max=30)
            opt, sol = exact_oracle(g, m, ubar)
            assert opt == permutation_first_oracle(g, m, ubar)
            assert validate_solution(g, sol) is None

    def test_guard(self):
        rng = random.Random(1)
        g = random_dense_graph(9, 9, 2, 5, rng)
        with pytest.raises(TooLarge):
            exact_oracle(g, 2, 5)

    def test_infeasible_capacity(self):
        g = make_example_graph()
        with pytest.raises(InfeasibleInstance):
            exact_oracle(g, 2, 2)

    def test_no_perfect_matching(self):
        # both U-vertices can only reach v0
        g = BipartiteGraph.from_edges(2, 2, 2, 1, [(0, 0, 1), (1, 0, 1)])
        with pytest.raises(InfeasibleInstance, match="^no perfect matching on available edges$"):
            exact_oracle(g, 2, 1)

    @staticmethod
    def wide_graph():
        # n1 = 8 passes the size guards; complete 8 x 24 takes 1.6 million
        # search nodes and 8 x 40 did not finish in 50 s without the budget.
        rng = random.Random(1)
        edges = [(u, v, rng.randint(1, 1000)) for u in range(8) for v in range(40)]
        return BipartiteGraph.from_edges(8, 40, 3, 3, edges)

    def test_search_budget(self):
        g = self.wide_graph()
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            exact_oracle(g, 3, 3)
        assert time.perf_counter() - t0 < 10.0

    def test_bench_leaves_optimum_blank_past_the_budget(self, tmp_path):
        path = str(tmp_path / "wide.txt")
        save_instance(self.wide_graph(), path)
        out = str(tmp_path / "runs.csv")
        write_reports(out, bench([(path, "wide")], "fimp-hga", tiny_params()))
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["optimum"] == "" and row["gap"] == ""


class TestBaseline:
    def test_single_partition_matches_fimp(self):
        # m = 1: both return the min-weight perfect matching; only solve
        # certifies it and stops, the baseline runs its whole budget
        g = make_example_graph()
        base = baseline_ls(g, 1, 6, tiny_params())
        fimp = solve(g, 1, 6, tiny_params())
        assert base.solution.mate == fimp.solution.mate
        assert base.solution.partition.part_of == fimp.solution.partition.part_of
        assert base.solution.objective == fimp.solution.objective
        assert base.stats.iterations == tiny_params().max_iterations
        assert base.stats.lower_bound is None

    def test_never_beats_oracle(self):
        rng = random.Random(7)
        for seed in range(6):
            g = random_dense_graph(6, 6, 2, 4, rng, density=0.9)
            opt, _ = exact_oracle(g, 2, 4)
            result = baseline_ls(g, 2, 4, tiny_params(seed=seed))
            assert result.solution.objective >= opt
            assert validate_solution(g, result.solution) is None
            assert not g.banned.any()

    def test_example_solves(self):
        g = make_example_graph()
        result = baseline_ls(g, 3, 3, tiny_params(iterations=12))
        assert result.solution.objective >= 4
        assert validate_solution(g, result.solution) is None

    def test_deterministic(self):
        rng = random.Random(3)
        g = random_dense_graph(7, 7, 2, 4, rng, density=1.0)
        a = baseline_ls(g.copy(), 2, 4, tiny_params(seed=5))
        b = baseline_ls(g.copy(), 2, 4, tiny_params(seed=5))
        assert a.solution.mate == b.solution.mate
        assert a.solution.objective == b.solution.objective


def test_run_algorithm_rejects_unknown_name():
    with pytest.raises(ValueError, match="^unknown algorithm 'nope'$"):
        run_algorithm(make_example_graph(), "nope", tiny_params())


class TestBenchReports:
    def make_instances(self, tmp_path, count=3):
        paths = []
        for seed in range(count):
            spec = InstanceSpec(n1=6, n2=6, m=2, ubar=4, density=1.0,
                                weight_model="INDEPENDENT", w_max=50, seed=seed)
            path = str(tmp_path / f"inst{seed}.txt")
            write_instance(spec, path)
            paths.append((path, f"inst{seed}"))
        return paths

    def test_reports_round_trip_and_rerun(self, tmp_path):
        instances = self.make_instances(tmp_path)
        reports = bench(instances, "fimp-hga", tiny_params(seed=4))
        # None cells, both bools, a float whose repr needs 17 digits, and an
        # instance name that needs quoting
        reports += [
            RunReport('odd, "name"\nx', "baseline", 9, 0.1 + 0.2, None, None, 2,
                      1.5, 0.25, 0.75, None, False),
            RunReport("exact", "fimp-hga", 0, 4.0, 4.0, 0.0, 1, 2.0, 1.0, 1.0, 4.0, True),
        ]
        out = str(tmp_path / "reports.csv")
        write_reports(out, reports)
        assert read_reports(out) == reports
        # objectives are reproducible from the recorded seed
        again = bench(instances, "fimp-hga", tiny_params(seed=4))
        assert [r.objective for r in again] == [r.objective for r in reports[:len(again)]]

    def test_certificate_columns_round_trip(self, tmp_path):
        instances = self.make_instances(tmp_path)
        fimp = bench(instances, "fimp-hga", tiny_params(seed=4))
        base = bench(instances, "baseline", tiny_params(seed=4))
        for r in fimp:
            assert r.lower_bound is not None and r.lower_bound <= r.objective
            assert r.certified_optimal == (r.objective == r.lower_bound)
        assert all(r.lower_bound is None and not r.certified_optimal for r in base)
        out = str(tmp_path / "reports.csv")
        write_reports(out, fimp + base)
        with open(out) as fh:
            assert fh.readline().strip().endswith(",lower_bound,certified_optimal")
        loaded = read_reports(out)
        assert [(r.lower_bound, r.certified_optimal) for r in loaded] == \
            [(r.lower_bound, r.certified_optimal) for r in fimp + base]

    def test_reads_csv_without_certificate_columns(self, tmp_path):
        out = tmp_path / "old.csv"
        out.write_text("instance,algo,seed,objective,optimum,gap,iterations,"
                       "wall_time_ms,match_time_ms,hga_time_ms\n"
                       "i1,fimp-hga,0,7,,,3,1.5,0.5,1.0\n")
        (r,) = read_reports(str(out))
        assert (r.instance, r.objective, r.iterations) == ("i1", 7.0, 3)
        assert r.lower_bound is None and r.certified_optimal is False

    def test_truncated_row_with_certificate_columns(self, tmp_path, capsys):
        # The header names both certificate columns, so a row that stops after
        # hga_time_ms is truncated, not an old-format row without a bound.
        out = tmp_path / "cut.csv"
        out.write_text(",".join(REPORT_COLUMNS) + "\n"
                       "i1,fimp-hga,0,7,,,3,1.5,0.5,1.0\n")
        with pytest.raises(ParseError, match="line 2, column 'lower_bound': missing cell"):
            read_reports(str(out))
        assert cli.main(["compare", str(out), str(out)]) == 3
        assert "line 2, column 'lower_bound'" in capsys.readouterr().err

    def test_oracle_column_present_for_tiny(self, tmp_path):
        instances = self.make_instances(tmp_path, count=2)
        reports = bench(instances, "fimp-hga", tiny_params(seed=1))
        for r in reports:
            assert r.optimum is not None
            assert r.objective >= r.optimum
            assert r.gap is not None and r.gap >= 0.0

    def test_parallel_bench_matches_serial(self, tmp_path):
        instances = self.make_instances(tmp_path)
        serial = bench(instances, "baseline", tiny_params(seed=2))
        parallel = bench(instances, "baseline", tiny_params(seed=2), jobs=2)
        assert [(r.instance, r.objective) for r in serial] == \
            [(r.instance, r.objective) for r in parallel]

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """A stand-in executor that runs the jobs in this process and records
        the pool size it was asked for; no worker process is started."""
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        return asked

    @pytest.mark.parametrize("jobs, count, pools", [(64, 3, [3]), (2, 3, [2]), (4, 1, [])])
    def test_pool_has_at_most_one_worker_per_run(self, tmp_path, fake_pool,
                                                 jobs, count, pools):
        instances = self.make_instances(tmp_path, count=count)
        reports = bench(instances, "baseline", tiny_params(seed=2), jobs=jobs)
        assert fake_pool == pools
        assert len(reports) == count

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_malformed_file_raises_before_any_run(self, tmp_path, monkeypatch,
                                                  fake_pool, jobs):
        # The malformed file is listed last, after three good ones.
        instances = self.make_instances(tmp_path)
        bad = tmp_path / "z.txt"
        bad.write_text("1 1 1 1\n0 0 x\n")
        runs = []
        monkeypatch.setattr(harness, "run_algorithm", lambda *args: runs.append(args))
        with pytest.raises(ParseError, match="line 2: bad weight 'x'"):
            bench(instances + [(str(bad), "z")], "baseline", tiny_params(), jobs=jobs)
        assert runs == [] and fake_pool == []

    def test_compare_self_is_all_ties(self, tmp_path):
        instances = self.make_instances(tmp_path)
        reports = bench(instances, "fimp-hga", tiny_params(seed=3))
        rows, summary = compare_reports(reports, reports)
        assert summary == {"wins": 0, "ties": len(rows), "losses": 0,
                           "mean_time_ratio": 1.0}
        assert all(row["result"] == "tie" and row["time_ratio"] == 1.0
                   for row in rows)
        out = str(tmp_path / "cmp.csv")
        write_compare(out, rows)
        with open(out) as fh:
            assert fh.readline().strip() == \
                "instance,objective_a,objective_b,result,wall_time_ms_a,wall_time_ms_b,time_ratio"

    def test_compare_detects_wins(self):
        a = [RunReport("i1", "x", 0, 3.0, None, None, 1, 10.0, 1.0, 1.0)]
        b = [RunReport("i1", "y", 0, 5.0, None, None, 1, 20.0, 1.0, 1.0)]
        rows, summary = compare_reports(a, b)
        assert rows[0]["result"] == "win"
        assert rows[0]["time_ratio"] == 0.5
        assert summary["wins"] == 1

    def test_compare_requires_same_instances(self):
        a = [RunReport("i1", "x", 0, 3.0, None, None, 1, 1.0, 1.0, 1.0)]
        b = [RunReport("i2", "y", 0, 3.0, None, None, 1, 1.0, 1.0, 1.0)]
        with pytest.raises(ValueError):
            compare_reports(a, b)
