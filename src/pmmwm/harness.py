"""Verification oracle, comparison baseline, and batch benchmarking.

``exact_oracle`` solves tiny instances to proven optimality by enumerating
matchings jointly with capacity-feasible partitions; it anchors the
acceptance tests. ``baseline_ls`` is the deliberately simpler comparison
solver: it runs ``orchestrator.run_loop``, the outer banning loop of
``solve``, with the same ban policy (one ``BanList`` holds its bans and
vetoes), but re-solves the matching from scratch every iteration, checks a
ban's feasibility with a plain perfect-matching test, and partitions by
greedy construction and relocation-only local search. It reports no lower
bound, so it runs its full iteration budget at every m.
``bench`` runs a directory of instances and emits one CSV row per run;
``compare`` joins two such CSVs into a win/tie/loss table.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import InfeasibleInstance, ParseError, TooLarge
from .graph import (
    BipartiteGraph,
    PartitionAssignment,
    Solution,
    load_instance,
)
from .hga import Individual, fitness_of, mls_improve
from .matching import solve_full
from .numpart import BRUTE_FORCE_GUARD, bounded_min_max, greedy_lpt
from .orchestrator import FimpParams, RunResult, ban_first, run_loop, solve

ORACLE_MAX_N1 = 8


def exact_oracle(g: BipartiteGraph, m: int, ubar: int) -> tuple[int, Solution]:
    """Global optimum over all matchings x capacity-feasible partitions.

    Depth-first over injective U -> V maps on available edges (row-major,
    columns ascending); each complete matching's weight vector goes through
    the exact bounded partition search. Admissible pruning only: a partial
    matching is cut when its heaviest edge or ceil(total/m) already reaches
    the incumbent. Guarded to n1 <= 8 and m**n1 <= 10**7.
    """
    if g.n1 > ORACLE_MAX_N1 or m ** g.n1 > BRUTE_FORCE_GUARD:
        raise TooLarge(f"oracle guard: n1={g.n1}, m={m}")
    if m * ubar < g.n1:
        raise InfeasibleInstance(f"m*ubar = {m * ubar} < n1 = {g.n1}")

    n1 = g.n1
    avail = g.available_mask()
    columns = [[int(v) for v in avail[u].nonzero()[0]] for u in range(n1)]
    best_obj: int | None = None
    best_mate: list[int] | None = None
    best_labels: list[int] | None = None
    mate = [-1] * n1
    used = [False] * g.n2
    ws = [0] * n1

    def dfs(u: int, total: int, heaviest: int) -> None:
        nonlocal best_obj, best_mate, best_labels
        if best_obj is not None:
            if heaviest >= best_obj or -(-total // m) >= best_obj:
                return
        if u == n1:
            found = bounded_min_max(ws, m, ubar, upper_bound=best_obj)
            if found is not None:
                best_obj, best_labels = found
                best_mate = list(mate)
            return
        for v in columns[u]:
            if used[v]:
                continue
            w = int(g.weight[u, v])
            used[v] = True
            mate[u] = v
            ws[u] = w
            dfs(u + 1, total + w, max(heaviest, w))
            used[v] = False
        mate[u] = -1

    dfs(0, 0, 0)
    if best_obj is None:
        raise InfeasibleInstance("no perfect matching on available edges")
    sol = Solution(mate=best_mate,
                   partition=PartitionAssignment(m, ubar, best_labels),
                   objective=best_obj)
    return best_obj, sol


def baseline_ls(g: BipartiteGraph, m: int, ubar: int,
                params: FimpParams) -> RunResult:
    """Comparison anchor: ``run_loop`` with a full matching re-solve, greedy
    construction and relocation-only local search in each step.

    Bans age and are chosen by ``BanList.age`` and ``ban_first``, as in
    ``solve``; the two ban loops differ only in the feasibility check and the
    matching. Here a plain perfect-matching check vetoes a ban (not charged
    to match time; only the per-iteration full solves are), and the next
    step re-solves the matching instead of repairing it. It reports no
    lower bound, so it always runs the full ``max_iterations``.
    """
    def step(it, bans, deadline):
        t0 = time.perf_counter()
        st = solve_full(g)
        match_s = time.perf_counter() - t0

        w = g.weight[np.arange(g.n1), st.mate_u]
        t0 = time.perf_counter()
        part = greedy_lpt(w, m, ubar)
        ind = mls_improve(Individual(part, fitness_of(part, w, m)), w, ubar, levels=(1,))
        part_s = time.perf_counter() - t0

        current = Solution(mate=st.mate_u.tolist(), objective=ind.fitness[0],
                           partition=PartitionAssignment(m, ubar, ind.part.tolist()))
        bans.age(g)
        ban_first(g, current, bans, params.tenure, lambda u, v: g.has_perfect_matching())
        return current, match_s, part_s, None

    return run_loop(g, m, ubar, params, step)


# ---------------------------------------------------------------------------
# Batch benchmarking

@dataclass
class RunReport:
    instance: str
    algo: str
    seed: int
    objective: float
    optimum: float | None
    gap: float | None
    iterations: int
    wall_time_ms: float
    match_time_ms: float
    hga_time_ms: float
    lower_bound: float | None = None  # RunStats.lower_bound in file units
    certified_optimal: bool = False


REPORT_COLUMNS = [f.name for f in fields(RunReport)]


def run_algorithm(g: BipartiteGraph, algo: str, params: FimpParams) -> RunResult:
    if algo == "fimp-hga":
        return solve(g, g.m, g.ubar, params)
    if algo == "baseline":
        return baseline_ls(g, g.m, g.ubar, params)
    raise ValueError(f"unknown algorithm {algo!r}")


def _try_oracle(g: BipartiteGraph):
    try:
        opt, _ = exact_oracle(g, g.m, g.ubar)
        return opt
    except TooLarge:
        return None


def report_for(path: str, instance_id: str, algo: str,
               params: FimpParams, with_oracle: bool = True) -> RunReport:
    g = load_instance(path)
    result = run_algorithm(g, algo, params)
    objective = g.display_value(result.solution.objective)
    optimum_scaled = _try_oracle(g) if with_oracle else None
    optimum = g.display_value(optimum_scaled) if optimum_scaled is not None else None
    lower_bound = result.stats.lower_bound
    gap = None
    if optimum_scaled is not None:
        if optimum_scaled > 0:
            gap = (result.solution.objective - optimum_scaled) / optimum_scaled
        elif result.solution.objective == 0:
            gap = 0.0
    return RunReport(
        instance=instance_id, algo=algo, seed=params.rng_seed,
        objective=objective, optimum=optimum, gap=gap,
        iterations=result.stats.iterations,
        wall_time_ms=result.stats.wall_time_ms,
        match_time_ms=result.stats.match_time_ms,
        hga_time_ms=result.stats.hga_time_ms,
        lower_bound=None if lower_bound is None else g.display_value(lower_bound),
        certified_optimal=result.stats.certified_optimal,
    )


def _bench_worker(job) -> RunReport:
    path, instance_id, algo, params, with_oracle = job
    return report_for(path, instance_id, algo, params, with_oracle)


def bench(jobs_spec: list[tuple[str, str]], algo: str, params: FimpParams,
          jobs: int = 1, with_oracle: bool = True) -> list[RunReport]:
    """Run ``algo`` on (path, instance_id) pairs; reports sorted by id."""
    work = [(path, instance_id, algo, params, with_oracle)
            for path, instance_id in jobs_spec]
    if jobs <= 1:
        reports = [_bench_worker(job) for job in work]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_bench_worker, work))
    reports.sort(key=lambda r: (r.instance, r.algo, r.seed))
    return reports


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_reports(path: str, reports: list[RunReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow([_format_cell(getattr(r, col)) for col in REPORT_COLUMNS])


def _opt_float(text: str) -> float | None:
    return float(text) if text else None


# How each report column's cell becomes a RunReport field.
_REPORT_PARSERS = {
    "instance": str, "algo": str, "seed": int, "objective": float,
    "optimum": _opt_float, "gap": _opt_float, "iterations": int,
    "wall_time_ms": float, "match_time_ms": float, "hga_time_ms": float,
    "lower_bound": _opt_float, "certified_optimal": lambda text: text == "True",
}
# Files written before these columns existed read as having no bound.
_OPTIONAL_REPORT_COLUMNS = ("lower_bound", "certified_optimal")


def read_utf8(path: str) -> str:
    """The text of ``path``. Raises ParseError naming the file, the line and
    the column of the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        col = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(f"{path}: line {line}, column {col}: byte "
                         f"{data[exc.start]:#04x} is not UTF-8") from exc


def read_reports(path: str) -> list[RunReport]:
    """Read a CSV written by ``write_reports``.

    Raises ParseError naming the file, the line and the column of a missing
    column, a cell that does not parse, or a byte that is not UTF-8.
    """
    reader = csv.DictReader(io.StringIO(read_utf8(path), newline=""))
    reports = []
    try:
        header = reader.fieldnames or []
        for col in REPORT_COLUMNS:
            if col not in header and col not in _OPTIONAL_REPORT_COLUMNS:
                raise ParseError(f"{path}: line {max(reader.line_num, 1)}: "
                                 f"missing column {col!r}")
        for row in reader:
            fields = {}
            for col in REPORT_COLUMNS:
                cell = row.get(col)
                if cell is None and col in _OPTIONAL_REPORT_COLUMNS:
                    continue
                where = f"{path}: line {reader.line_num}, column {col!r}"
                if cell is None:
                    raise ParseError(f"{where}: missing cell")
                try:
                    fields[col] = _REPORT_PARSERS[col](cell)
                except ValueError as exc:
                    raise ParseError(f"{where}: {exc}") from exc
            reports.append(RunReport(**fields))
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    return reports


COMPARE_COLUMNS = ["instance", "objective_a", "objective_b", "result",
                   "wall_time_ms_a", "wall_time_ms_b", "time_ratio"]


def compare_reports(a: list[RunReport], b: list[RunReport]):
    """Per-instance win/tie/loss of A versus B plus time ratios.

    Returns (rows, summary); instances must coincide. A "win" means A's
    objective is strictly lower.
    """
    by_a = {r.instance: r for r in a}
    by_b = {r.instance: r for r in b}
    if set(by_a) != set(by_b):
        raise ValueError("compare: instance sets differ")
    rows = []
    wins = ties = losses = 0
    ratios = []
    for instance in sorted(by_a):
        ra, rb = by_a[instance], by_b[instance]
        if ra.objective < rb.objective:
            result = "win"
            wins += 1
        elif ra.objective == rb.objective:
            result = "tie"
            ties += 1
        else:
            result = "loss"
            losses += 1
        if ra.wall_time_ms == rb.wall_time_ms:
            ratio = 1.0
        elif rb.wall_time_ms > 0:
            ratio = ra.wall_time_ms / rb.wall_time_ms
        else:
            ratio = float("inf")
        ratios.append(ratio)
        rows.append({
            "instance": instance, "objective_a": ra.objective,
            "objective_b": rb.objective, "result": result,
            "wall_time_ms_a": ra.wall_time_ms,
            "wall_time_ms_b": rb.wall_time_ms, "time_ratio": ratio,
        })
    summary = {
        "wins": wins, "ties": ties, "losses": losses,
        "mean_time_ratio": sum(ratios) / len(ratios) if ratios else 1.0,
    }
    return rows, summary


def write_compare(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=COMPARE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _format_cell(v) for k, v in row.items()})
