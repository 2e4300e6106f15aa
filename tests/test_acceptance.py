"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else: matching equalities are exact
integer comparisons; hit-rate thresholds and the timing budgets are stated
inline next to each criterion.
"""

import json
import math
import random
import statistics
import time

import numpy as np

from pmmwm.cli import main as cli_main
from pmmwm.errors import NoPerfectMatching
from pmmwm.graph import Solution, load_solution, save_instance, validate_solution
from pmmwm.harness import baseline_ls, exact_oracle
from pmmwm.hga import HgaParams, Individual, evolve, fitness_of, mls_improve
from pmmwm.instgen import InstanceSpec, generate
from pmmwm.matching import check_invariants, repair_after_ban, repair_after_unban, solve_full
from pmmwm.numpart import bounded_min_max, greedy_lpt, kk_multiway
from pmmwm.orchestrator import FimpParams, solve

from conftest import (
    example_base_solution,
    example_rematched_solution,
    example_relocated_solution,
    make_example_graph,
    random_complete_graph,
    random_dense_graph,
)
from oracles import brute_force_min_matching


def report(n: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok


def test_criterion_1_matching_optimality():
    """200 seeded complete instances, n in 4..8: solve_full exactly equals
    the brute-force permutation minimum; under 2 seconds total."""
    rng = random.Random(1001)
    t0 = time.perf_counter()
    checked = 0
    for n in range(4, 9):
        for _ in range(40):
            g = random_complete_graph(n, n, 1, n, rng, w_max=1000)
            st = solve_full(g)
            assert st.total_weight == brute_force_min_matching(g)
            checked += 1
    elapsed = time.perf_counter() - t0
    report(1, checked == 200 and elapsed < 2.0,
           f"{checked} instances match the permutation oracle exactly "
           f"in {elapsed:.2f}s")


def test_criterion_2_incremental_repair_equivalence():
    """100 sequences of 50 mixed ban/unban operations on 8x8 graphs: after
    every operation the incremental weight equals a fresh full solve, and the
    dual feasibility / complementary slackness scan passes."""
    rng = random.Random(2002)
    ops = 0
    for seq in range(100):
        g = random_dense_graph(8, 8, 1, 8, rng, density=0.85, w_max=500)
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
            ops += 1
    report(2, ops == 5000,
           f"{ops} incremental operations matched the full re-solve exactly, "
           "with all certificate scans green")


def test_criterion_3_repair_speedup_trend():
    """Dense n in {200, 400, 800}: median repair time over median full-solve
    time decreases with n and is at most 0.1 at n=800; under 2 minutes.

    Rank-1-structured weights are used because they make the full solver
    exhibit its cubic character (long augmenting chains from contended cheap
    columns), giving the cleanly halving ratio the n^2-vs-n^3 model predicts.
    On uniform random weights the 200 vs 400 ratios are equal within noise
    (short augmenting paths make an average solve phase a constant multiple
    of a repair phase), so the trend there is not reliably measurable.
    """
    t_start = time.perf_counter()
    ratios = {}
    for n, solve_reps, repair_reps in ((200, 10, 120), (400, 8, 90), (800, 5, 60)):
        spec = InstanceSpec(n1=n, n2=n, m=5, ubar=math.ceil(1.2 * n / 5),
                            density=1.0, weight_model="CONSISTENT",
                            w_max=10**6, seed=n)
        g = generate(spec)
        solve_full(g)  # warm-up
        solve_times = []
        st = None
        for _ in range(solve_reps):
            t0 = time.perf_counter()
            st = solve_full(g)
            solve_times.append(time.perf_counter() - t0)
        repair_times = []
        rng = random.Random(n)
        for _ in range(repair_reps):
            u = rng.randrange(n)
            v = int(st.mate_u[u])
            g.ban_edge(u, v)
            t0 = time.perf_counter()
            st = repair_after_ban(g, st, u, v)
            repair_times.append(time.perf_counter() - t0)
            g.unban_edge(u, v)
            st = repair_after_unban(g, st, u, v)
        ratios[n] = statistics.median(repair_times) / statistics.median(solve_times)
    elapsed = time.perf_counter() - t_start
    ok = (ratios[800] < ratios[400] < ratios[200]
          and ratios[800] <= 0.1
          and elapsed < 120.0)
    report(3, ok,
           "repair/full-solve time ratios "
           + ", ".join(f"n={n}: {r:.4f}" for n, r in sorted(ratios.items()))
           + f" ({elapsed:.0f}s)")


def test_criterion_4_worked_example_values():
    """The hand-built 6x6 example: objective 5 for the base configuration, 4
    after the relocation, 4 after the rematch; exact optimum 4."""
    from pmmwm.graph import evaluate_objective

    g = make_example_graph()
    base = evaluate_objective(g, example_base_solution())
    relocated = evaluate_objective(g, example_relocated_solution())
    rematched = evaluate_objective(g, example_rematched_solution())
    optimum, _ = exact_oracle(g, 3, 3)
    ok = (base, relocated, rematched, optimum) == (5, 4, 4, 4)
    report(4, ok,
           f"objectives base={base} relocated={relocated} "
           f"rematched={rematched} oracle={optimum}")


def test_criterion_5_hga_optimality_small():
    """100 seeded 8-item, m=3, ubar=3 partition instances: the genetic
    algorithm attains the exhaustive optimum on at least 95, each run under
    one second."""
    rng = random.Random(505)
    hits = 0
    worst = 0.0
    for seed in range(100):
        items = np.array([rng.randint(1, 100) for u in range(8)], dtype=np.int64)
        t0 = time.perf_counter()
        best = evolve(items, 3, 3, HgaParams(rng_seed=seed))
        worst = max(worst, time.perf_counter() - t0)
        opt = bounded_min_max(items.tolist(), 3, 3)[0]
        if best.fitness[0] == opt:
            hits += 1
    ok = hits >= 95 and worst < 1.0
    report(5, ok, f"{hits}/100 runs optimal, slowest {worst * 1000:.0f}ms")


def test_criterion_6_end_to_end_optimality():
    """30 generated instances (n1=n2=6, m=2, ubar=4, both weight models):
    the full solver matches the exact oracle on at least 27, within 5 s
    each."""
    hits = 0
    worst = 0.0
    for i in range(30):
        model = "CONSISTENT" if i < 15 else "INDEPENDENT"
        g = generate(InstanceSpec(6, 6, 2, 4, 0.8, model, 100, seed=i))
        opt, _ = exact_oracle(g, 2, 4)
        params = FimpParams(max_iterations=40, tenure=5, rng_seed=i,
                            time_limit_ms=5000,
                            hga=HgaParams(pop_size=10, max_generations=30,
                                          stall_limit=10))
        t0 = time.perf_counter()
        result = solve(g, 2, 4, params)
        worst = max(worst, time.perf_counter() - t0)
        assert validate_solution(g, result.solution) is None
        assert result.solution.objective >= opt
        if result.solution.objective == opt:
            hits += 1
    ok = hits >= 27 and worst < 5.0
    report(6, ok, f"{hits}/30 runs hit the exact optimum, slowest {worst:.2f}s")


def test_criterion_7_dominance_over_baseline():
    """100 medium instances (n1=200, cycling through the 4 benchmark groups x
    m in {5,10,20}, seeds 0..99, 10 s limit each): the full solver's
    objective is <= the baseline's on at least 95, and its total match-stage
    time is at least 3x smaller."""
    from pmmwm.instgen import BENCHMARK_GROUPS

    cells = [(model, density, m)
             for model, density in BENCHMARK_GROUPS.values()
             for m in (5, 10, 20)]
    wins = 0
    fimp_match = 0.0
    base_match = 0.0
    worst = 0.0
    for seed in range(100):
        model, density, m = cells[seed % len(cells)]
        ubar = math.ceil(1.2 * 200 / m)
        g = generate(InstanceSpec(200, 200, m, ubar, density, model,
                                  1000, seed=seed))
        params = FimpParams(max_iterations=8, tenure=5, rng_seed=seed,
                            time_limit_ms=10_000,
                            hga=HgaParams(pop_size=5, max_generations=5,
                                          stall_limit=3))
        t0 = time.perf_counter()
        fimp = solve(g, m, ubar, params)
        worst = max(worst, time.perf_counter() - t0)
        t0 = time.perf_counter()
        base = baseline_ls(g, m, ubar, params)
        worst = max(worst, time.perf_counter() - t0)
        if fimp.solution.objective <= base.solution.objective:
            wins += 1
        fimp_match += fimp.stats.match_time_ms
        base_match += base.stats.match_time_ms
    ok = wins >= 95 and fimp_match * 3 <= base_match and worst < 10.0
    report(7, ok,
           f"objective <= baseline on {wins}/100; match time "
           f"{fimp_match / 1000:.1f}s vs {base_match / 1000:.1f}s "
           f"({base_match / max(fimp_match, 1e-9):.1f}x); slowest run {worst:.1f}s")


def test_criterion_8_invariant_suite(tmp_path):
    """Elitism persistence, incumbent monotonicity, local-search idempotence,
    1000-mutation validation fuzzing, and same-seed JSON determinism."""
    rng = random.Random(808)

    # elitism: every generation's best assignment survives into the next
    items = np.array([rng.randint(1, 60) for u in range(10)], dtype=np.int64)
    snapshots = []
    evolve(items, 3, 4,
           HgaParams(pop_size=8, max_generations=25, stall_limit=25, rng_seed=8),
           on_generation=lambda g, pop, inc: snapshots.append(
               ([i.fitness for i in pop], [i.part.tolist() for i in pop])))
    elitism_ok = True
    for prev, cur in zip(snapshots, snapshots[1:]):
        best_idx = prev[0].index(min(prev[0]))
        elitism_ok &= prev[1][best_idx] in cur[1]

    # incumbent monotonicity on a solver run
    g = random_dense_graph(8, 8, 2, 5, rng, density=0.9)
    result = solve(g, 2, 5, FimpParams(max_iterations=25, tenure=4, rng_seed=9,
                                       hga=HgaParams(pop_size=6,
                                                     max_generations=15,
                                                     stall_limit=6)))
    incumbents = [t.incumbent for t in result.stats.trace]
    monotone_ok = incumbents == sorted(incumbents, reverse=True)

    # local search idempotence
    idempotent_ok = True
    for _ in range(50):
        n = rng.randint(2, 12)
        m = rng.randint(2, 4)
        ubar = rng.randint((n + m - 1) // m, n)
        its = np.array([rng.randint(1, 99) for u in range(n)], dtype=np.int64)
        lpt = greedy_lpt(its, m, ubar)
        once = mls_improve(Individual(lpt, fitness_of(lpt, its, m)), its, ubar)
        twice = mls_improve(once, its, ubar)
        idempotent_ok &= once.part.tolist() == twice.part.tolist()

    # validation fuzzing: 1000 corrupted solutions, all flagged
    example = make_example_graph()
    base = example_base_solution()
    flagged = 0
    for _ in range(1000):
        sol = Solution(mate=list(base.mate), partition=base.partition.copy())
        kind = rng.randrange(3)
        if kind == 0:
            u = rng.randrange(6)
            bad = [v for v in range(6) if not example.is_available(u, v)]
            sol.mate[u] = rng.choice(bad)
        elif kind == 1:
            u, w = rng.sample(range(6), 2)
            sol.mate[u] = sol.mate[w]
        else:
            sol.partition.part_of = [rng.randrange(3)] * 6
        if validate_solution(example, sol) is not None:
            flagged += 1

    # determinism: identical seeds give byte-identical solution JSON apart
    # from the wall-clock field
    inst = str(tmp_path / "det.txt")
    save_instance(example, inst)
    dumps = []
    for name in ("s1.json", "s2.json"):
        path = str(tmp_path / name)
        cli_main(["solve", inst, "--seed", "5", "--max-iterations", "10",
                  "--pop-size", "6", "--json", path])
        payload = load_solution(path)
        keys = set(payload)
        payload.pop("wall_time_ms")
        dumps.append(json.dumps(payload, sort_keys=True).encode())
    determinism_ok = dumps[0] == dumps[1] and "wall_time_ms" in keys

    ok = (elitism_ok and monotone_ok and idempotent_ok and flagged == 1000
          and determinism_ok)
    report(8, ok,
           f"elitism {elitism_ok}, incumbent monotone {monotone_ok}, "
           f"idempotent {idempotent_ok}, fuzz {flagged}/1000 flagged, "
           f"deterministic JSON {determinism_ok}")


def test_criterion_9_constructor_quality():
    """100 seeded 16-item, m=4 instances with loose capacity: mean KK
    objective <= mean LPT objective, and neither ever beats the exhaustive
    optimum."""
    rng = random.Random(909)
    kk_total = 0
    lpt_total = 0
    sound = True
    for _ in range(100):
        items = np.array([rng.randint(1, 1000) for u in range(16)], dtype=np.int64)
        ws = items.tolist()
        opt = bounded_min_max(ws, 4, 16)[0]

        def objective(pa):
            sums = [0] * 4
            for u, k in enumerate(pa.tolist()):
                sums[k] += ws[u]
            return max(sums)

        kk = objective(kk_multiway(items, 4, 16))
        lpt = objective(greedy_lpt(items, 4, 16))
        kk_total += kk
        lpt_total += lpt
        sound &= kk >= opt and lpt >= opt
    ok = kk_total <= lpt_total and sound
    report(9, ok,
           f"mean KK {kk_total / 100:.1f} <= mean LPT {lpt_total / 100:.1f}, "
           f"never below the optimum: {sound}")
