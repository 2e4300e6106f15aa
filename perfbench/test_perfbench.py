"""Tests of the benchmark's own parts: the certified bound, the tracer, the
workloads and the correctness gate.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import itertools
import os

import pytest

import run
import tracer as tracing
from bound import bottleneck_value, lower_bound
from pmmwm import (
    FimpParams,
    HgaParams,
    InstanceSpec,
    exact_oracle,
    generate,
    harness,
    load_instance,
)
from workloads import WORKLOADS, write_instances

TINY = [InstanceSpec(n1, n1 + extra, m, ubar, density, model, w_max, seed)
        for seed in range(6)
        for n1, extra, m, ubar in ((4, 0, 2, 2), (5, 1, 2, 3), (6, 0, 3, 2), (6, 0, 2, 4))
        for density, model, w_max in ((0.4, "INDEPENDENT", 20), (1.0, "CONSISTENT", 50))]


def _brute_bottleneck(g) -> int:
    avail = g.available_mask()
    return min(max(int(g.weight[u, v]) for u, v in enumerate(cols))
               for cols in itertools.permutations(range(g.n2), g.n1)
               if all(avail[u, v] for u, v in enumerate(cols)))


@pytest.mark.parametrize("spec", TINY, ids=str)
def test_lower_bound_is_below_exact_optimum(spec):
    g = generate(spec)
    optimum, _ = exact_oracle(g, spec.m, spec.ubar)
    bound = lower_bound(g, spec.m)
    assert bound.b_star == _brute_bottleneck(g)
    assert bound.lb <= optimum
    assert not g.banned.any()


@pytest.mark.parametrize("seed", range(3))
def test_lower_bound_is_below_solver_objective(seed):
    g = generate(InstanceSpec(24, 24, 8, 3, 0.3, "INDEPENDENT", 1000, seed))
    result = harness.run_algorithm(g, "fimp-hga", FimpParams(
        max_iterations=3, rng_seed=seed, hga=HgaParams(pop_size=6, max_generations=10)))
    assert lower_bound(g, g.m).lb <= result.solution.objective


def test_bottleneck_value_respects_existing_bans():
    g = generate(InstanceSpec(5, 5, 2, 3, 1.0, "INDEPENDENT", 30, 2))
    heaviest = g.weight.max()
    u, v = map(int, divmod(int(g.weight.argmax()), g.n2))
    g.ban_edge(u, v)
    assert bottleneck_value(g) == _brute_bottleneck(g) <= heaviest
    assert g.banned.sum() == 1


def _small_solve(g):
    return harness.run_algorithm(g, "fimp-hga", FimpParams(
        max_iterations=4, rng_seed=7, hga=HgaParams(pop_size=6, max_generations=8)))


def test_tracing_does_not_perturb_results_and_restores_bindings():
    g = generate(InstanceSpec(20, 20, 10, 2, 0.3, "CONSISTENT", 1000, 5))
    plain = _small_solve(g)
    tr = tracing.Tracer()
    with tr.installed():
        traced = _small_solve(g)
    assert tracing.bindings_restored()
    assert traced.solution.mate == plain.solution.mate
    assert traced.solution.partition.part_of == plain.solution.partition.part_of
    assert traced.solution.objective == plain.solution.objective

    times = tr.layer_times()
    assert times["orchestrator.solve"][0] == 1
    assert times["hga.evolve"][0] == tr.counts["orchestrator.iterations"] == 4
    assert times["orchestrator.modify_graph"][0] == 4
    assert tr.counts["hga.generations"] * 5 == times["hga.gpx_crossover"][0]
    for s in tr.spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = tr.spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    # self times partition the root span
    root_ms = times["orchestrator.solve"][1]
    assert sum(own for _, _, own in times.values()) == pytest.approx(root_ms, rel=1e-9)


def test_tracer_counts_vetoed_bans():
    g = generate(InstanceSpec(6, 6, 3, 2, 0.01, "INDEPENDENT", 50, 1))  # planted matching only
    tr = tracing.Tracer()
    with tr.installed():
        _small_solve(g)
    assert tr.counts["matching.bans_vetoed"] > 0
    assert tr.counts["matching.bans_accepted"] == 0
    assert tr.counts["orchestrator.bans_applied"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_instances_round_trip(tmp_path, name):
    workload = WORKLOADS[name]
    instances = workload.instances(3)
    assert instances == workload.instances(3)
    assert len({inst.spec.seed for inst in instances}) == len(instances)
    assert len({inst.id for inst in instances}) == len(instances)
    # n1=500 instances are slow to generate twice; check the smallest of each family
    sample = [min((i for i in instances if i.family == f), key=lambda i: i.spec.n1)
              for f in workload.families]
    for inst, path in zip(sample, write_instances(sample, str(tmp_path))):
        assert (load_instance(path).weight == generate(inst.spec).weight).all()
        assert os.path.basename(path) == inst.id + ".txt"


def test_gate_rejects_wrong_results():
    g = generate(InstanceSpec(12, 12, 4, 3, 0.5, "INDEPENDENT", 100, 0))
    pristine = g.copy()
    sol = _small_solve(g).solution
    lb = lower_bound(g, g.m).lb
    assert run._gate(g, pristine, lb, sol) is None
    assert "below certified" in run._gate(g, pristine, sol.objective + 1, sol)
    sol.objective += 1
    assert "recomputed" in run._gate(g, pristine, lb, sol)
    sol.objective -= 1
    g.ban_edge(0, sol.mate[0])
    assert "ban flags" in run._gate(g, pristine, lb, sol)


def test_refuses_to_run_with_invariant_checks(monkeypatch, capsys):
    monkeypatch.setenv("PMMWM_CHECK_INVARIANTS", "1")
    assert run.main(["--workload", "fimp", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_mismatches_flags_traced_results_that_differ():
    untraced = [run.CallResult("a", "f", 1.0, 10, "d1", None),
                run.CallResult("b", "f", 1.0, 20, "d2", None)]
    same = run.CallResult("a", "f", 2.0, 10, "d1", None)
    moved = run.CallResult("b", "f", 2.0, 20, "d3", None)
    assert run._mismatches(untraced, [same, moved]) == ["b"]
    assert same.error is None
    assert "untraced round gave (20, 'd2')" in moved.error
