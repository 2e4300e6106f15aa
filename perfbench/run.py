#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pmmwm solver.

Run from the repository root:

    python3 perfbench/run.py --workload fimp --seed 1 --seconds 50 --trace 0

One process, one solve at a time: a closed loop with a single caller, like
``pmmwm bench --jobs 1``. A run generates the workload's instances from
``--seed``, computes each instance's certified lower bound (untimed, see
bound.py), then solves every instance once through ``harness.run_algorithm``
at its family's fixed iteration budget. The work is fixed, so a run's results
are a pure function of the seed; the workloads are sized so that the timed
part of a run fits in about ``--seconds`` on a 2-vCPU x86 host, and a run
that takes much longer says so. Every call passes a correctness gate.

``setup_s`` is the mean of timed ``load_instance`` passes over every instance
file, one before the first solve and one after each solve, so that its
samples span the whole run like ``solve_s`` does.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
untraced round, then one traced load pass and one traced round with spans
around the public functions of every layer (see tracer.py), checks that both
rounds gave identical results, and reports per-layer metrics plus the
tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Spans and
per-instance results are written under ``.bench_out/`` in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

LAYER_SPANS = ("graph.load_instance", "graph.has_perfect_matching", "matching.solve_full",
               "matching.repair_after_ban", "matching.batch_resolve", "numpart.greedy_lpt",
               "numpart.kk_multiway", "numpart.greedy_in_order", "hga.evolve",
               "hga.init_population", "hga.gpx_crossover", "hga.mutate", "hga.mls_improve",
               "orchestrator.solve", "orchestrator.modify_graph", "harness.baseline_ls")


def _import_program():
    """Import pmmwm from this checkout's sources, never an installed copy."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import pmmwm
    if os.path.dirname(os.path.dirname(os.path.abspath(pmmwm.__file__))) != SRC:
        raise ImportError(f"pmmwm imported from {pmmwm.__file__}, not from {SRC}")


@dataclass
class Loaded:
    """An instance as the solver sees it, plus what its results are checked against."""

    inst: object         # workloads.Instance
    path: str
    graph: object        # the graph every round solves; its ban flags must come back clear
    pristine: object     # untouched copy for validation
    bound: object        # bound.LowerBound


@dataclass
class CallResult:
    instance: str
    family: str
    seconds: float
    objective: int | None
    digest: str | None
    error: str | None


def _solution_digest(sol) -> str:
    payload = json.dumps([[int(v) for v in sol.mate],
                          [int(k) for k in sol.partition.part_of]])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _gate(g, pristine, lb: int, sol) -> str | None:
    """Why the returned solution is wrong, or None when it passes."""
    from pmmwm import Solution, evaluate_objective, validate_solution
    if g.banned.any():
        return "ban flags left set on the caller's graph"
    violation = validate_solution(pristine, sol)
    if violation is not None:
        return f"infeasible (constraint {violation.constraint}): {violation.message}"
    recomputed = evaluate_objective(
        pristine, Solution(list(sol.mate), sol.partition.copy()))
    if recomputed != sol.objective:
        return f"reported objective {sol.objective} != recomputed {recomputed}"
    if sol.objective < lb:
        return f"objective {sol.objective} below certified lower bound {lb}"
    return None


def _solve_one(ld: Loaded, algo: str) -> CallResult:
    from pmmwm import FimpParams, harness
    family = ld.inst.family
    params = FimpParams(max_iterations=family.max_iterations, rng_seed=ld.inst.spec.seed)
    t0 = time.perf_counter()
    try:
        res = harness.run_algorithm(ld.graph, algo, params)
    except Exception as exc:  # a failed call is counted, the run goes on
        return CallResult(ld.inst.id, family.name, time.perf_counter() - t0, None, None,
                          f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    sol = res.solution
    return CallResult(ld.inst.id, family.name, seconds, sol.objective, _solution_digest(sol),
                      _gate(ld.graph, ld.pristine, ld.bound.lb, sol))


def _load_pass(paths: list[str]) -> tuple[float, list]:
    """Seconds to load every instance file, and the loaded graphs."""
    from pmmwm import graph
    t0 = time.perf_counter()
    graphs = [graph.load_instance(path) for path in paths]
    return time.perf_counter() - t0, graphs


def _commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def _end_to_end(setup_times, calls, loaded) -> tuple[dict, list[str]]:
    by_id = {c.instance: c for c in calls}
    quality = [(by_id[ld.inst.id].objective, ld.bound.lb) for ld in loaded
               if by_id[ld.inst.id].objective is not None]
    ratios = [obj / lb for obj, lb in quality]
    objective_ratio = statistics.fmean(ratios) if ratios else 0.0
    metrics = {
        "setup_s": _metric(statistics.fmean(setup_times), "s"),
        "solve_s": _metric(sum(c.seconds for c in calls), "s"),
        "objective_ratio": _metric(objective_ratio, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = sum(1 for c in calls if c.error is not None)
    notes = [
        f"setup_s over {len(setup_times)} load passes: median "
        f"{statistics.median(setup_times):.6f} s, min {min(setup_times):.6f} s, "
        f"max {max(setup_times):.6f} s",
        f"solve_s_p50 = {statistics.median(c.seconds for c in calls):.6f} s "
        f"(median of {len(calls)} calls)",
        f"objective_gap = {objective_ratio - 1.0 if ratios else 0.0:.6f} ratio "
        f"(mean (objective - LB) / LB)",
        f"at_bound_frac = {_ratio(sum(1 for o, lb in quality if o == lb), len(loaded)):.4f} "
        f"ratio (objectives proven optimal)",
        f"failed_frac = {_ratio(failed, len(calls)):.4f} ratio ({failed} of {len(calls)} calls)",
    ]
    for family in dict.fromkeys(c.family for c in calls):
        notes.append(f"solve_s[{family}] = "
                     f"{sum(c.seconds for c in calls if c.family == family):.6f} s")
    return metrics, notes


def _per_layer(tracer, traced_round, untraced_round,
               family_counts: dict[str, Counter]) -> tuple[dict, list[str]]:
    times = tracer.layer_times()
    counts = tracer.counts

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def total_ms(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def self_ms(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    metrics = {}
    for name in LAYER_SPANS:
        metrics[name + "_ms"] = _metric(total_ms(name), "ms")
        metrics[name + "_calls"] = _metric(calls(name), "count")
    bans = counts["matching.bans_accepted"] + counts["matching.bans_vetoed"]
    traced_s = sum(c.seconds for c in traced_round)
    untraced_s = sum(c.seconds for c in untraced_round)
    metrics.update({
        "matching.phases": _metric(counts["matching.phases"], "count"),
        "matching.ban_accept_ratio": _metric(_ratio(counts["matching.bans_accepted"], bans), "ratio"),
        "matching.batch_resolve_full_share": _metric(
            _ratio(counts["matching.batch_resolve_full"],
                   counts["matching.batch_resolve_releasing"]), "ratio"),
        "hga.evolve_self_ms": _metric(self_ms("hga.evolve"), "ms"),
        "hga.generations": _metric(counts["hga.generations"], "count"),
        "hga.mls_moved_ratio": _metric(
            _ratio(counts["hga.mls_moved"], calls("hga.mls_improve")), "ratio"),
        "orchestrator.self_ms": _metric(self_ms("orchestrator.solve"), "ms"),
        "orchestrator.iterations": _metric(counts["orchestrator.iterations"], "count"),
        "orchestrator.bans_applied": _metric(counts["orchestrator.bans_applied"], "count"),
        "orchestrator.recoveries": _metric(counts["orchestrator.recoveries"], "count"),
        "orchestrator.incumbent_improvements": _metric(
            counts["orchestrator.incumbent_improvements"], "count"),
        "harness.baseline_ls_self_ms": _metric(self_ms("harness.baseline_ls"), "ms"),
        "trace.overhead_frac": _metric(_ratio(traced_s - untraced_s, untraced_s), "ratio"),
    })
    notes = [f"traced solve_s {traced_s:.4f} s, untraced {untraced_s:.4f} s",
             f"ban attempts {bans} (vetoed {counts['matching.bans_vetoed']}), "
             f"batch_resolve calls releasing edges "
             f"{counts['matching.batch_resolve_releasing']}"]
    for family in dict.fromkeys(c.family for c in traced_round):
        ids = {c.instance for c in traced_round if c.family == family}
        family_ms = 1000.0 * sum(c.seconds for c in traced_round if c.family == family)
        fam_times = tracer.layer_times(ids)
        fc = family_counts[family]
        notes.append(f"[{family}] iterations {fc['orchestrator.iterations']}, "
                     f"incumbent improvements {fc['orchestrator.incumbent_improvements']}, "
                     f"bans applied {fc['orchestrator.bans_applied']}, "
                     f"vetoed {fc['matching.bans_vetoed']}, "
                     f"recoveries {fc['orchestrator.recoveries']}")
        notes.append(f"[{family}] self time as a share of traced solve time "
                     f"({family_ms:.3f} ms):")
        for name, (n, total, own) in sorted(fam_times.items(), key=lambda kv: -kv[1][2]):
            notes.append(f"  {name:32s} calls {n:8d}  total {total:12.3f} ms  "
                         f"self {own:12.3f} ms  {_ratio(own, family_ms):7.2%}")
        for layer, root in (("matching.solve_full", "harness.baseline_ls"),
                            ("hga.evolve", "orchestrator.solve")):
            if layer in fam_times and root in fam_times:
                notes.append(f"  {layer} / {root} = "
                             f"{_ratio(fam_times[layer][1], fam_times[root][1]):.2%}")
    return metrics, notes


def _mismatches(untraced: list[CallResult], traced: list[CallResult]) -> list[str]:
    """Instances whose traced objective or solution differs from the untraced one."""
    plain = {c.instance: (c.objective, c.digest) for c in untraced}
    bad = []
    for c in traced:
        if c.error is None and (c.objective, c.digest) != plain[c.instance]:
            c.error = (f"traced round gave objective {c.objective} / solution {c.digest}, "
                       f"untraced round gave {plain[c.instance]}")
            bad.append(c.instance)
    return bad


def run(args) -> dict:
    from bound import lower_bound
    from tracer import Tracer, bindings_restored
    from workloads import WORKLOADS, write_instances

    workload = WORKLOADS[args.workload]
    env = _environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        instances = workload.instances(args.seed)
        paths = write_instances(instances, work_dir)
        seconds, graphs = _load_pass(paths)
        setup_times = [seconds]
        loaded = [Loaded(inst, path, g, g.copy(), lower_bound(g, g.m))
                  for inst, path, g in zip(instances, paths, graphs)]

        t_start = time.perf_counter()
        calls = []
        for ld in loaded:
            calls.append(_solve_one(ld, workload.algo))
            setup_times.append(_load_pass(paths)[0])
        window_s = time.perf_counter() - t_start

        traced = []
        layer_metrics = layer_notes = None
        if args.trace:
            tracer = Tracer()
            family_counts = defaultdict(Counter)
            with tracer.installed():
                tracer.instance = "setup"
                _load_pass(paths)
                for ld in loaded:
                    tracer.instance = ld.inst.id
                    before = Counter(tracer.counts)
                    traced.append(_solve_one(ld, workload.algo))
                    family_counts[ld.inst.family.name].update(tracer.counts - before)
            if not bindings_restored():
                raise RuntimeError("tracer left a wrapper installed")
            layer_metrics, layer_notes = _per_layer(tracer, traced, calls, family_counts)
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    mismatched = _mismatches(calls, traced)
    e2e_metrics, e2e_notes = _end_to_end(setup_times, calls, loaded)
    failed = [c for c in calls + traced if c.error is not None]

    for ld, c in zip(loaded, calls):
        b = ld.bound
        print(f"instance {c.instance:28s} LB {b.lb:6d} (W*/m {-(-b.w_star // ld.graph.m)}, "
              f"B* {b.b_star})  objective {c.objective}  solution {c.digest}  "
              f"{c.seconds:.3f} s")
    for c in failed:
        print(f"FAILED {c.instance}: {c.error}")
    digest = hashlib.sha256(json.dumps(
        [(c.instance, c.objective, c.digest) for c in calls]).encode()).hexdigest()[:16]
    print(f"results_digest {digest}" + (f"  (traced round identical: {not mismatched})"
                                        if args.trace else ""))
    if window_s > 1.5 * args.seconds:
        print(f"note: the timed window took {window_s:.1f} s, over 1.5 x --seconds "
              f"({args.seconds:g} s); this host is slower than the one the workloads "
              f"were sized on")

    metrics = layer_metrics if args.trace else e2e_metrics
    for name, m in (e2e_metrics | metrics).items():
        print(f"{name:40s} {m['value']:>16.6f} {m['unit']}")
    for line in e2e_notes + (layer_notes or []):
        print(line)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"results-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "results_digest": digest, "setup_times": setup_times,
                   "bounds": {ld.inst.id: vars(ld.bound) for ld in loaded},
                   "calls": [vars(c) for c in calls + traced]},
                  fh, indent=1)
    all_calls = calls + traced
    return {"correct": not failed, "attempted": len(all_calls), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    if os.environ.get("PMMWM_CHECK_INVARIANTS", "") not in ("", "0"):
        print("refusing to run: PMMWM_CHECK_INVARIANTS is set, so every matching "
              "operation would also run a full invariant scan", file=sys.stderr)
        return 2
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import pmmwm from {SRC}: {exc}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    result = run(parser.parse_args(argv))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
