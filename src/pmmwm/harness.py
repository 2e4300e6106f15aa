"""Verification oracle, comparison baseline, and batch benchmarking.

``exact_oracle`` solves tiny instances to proven optimality by enumerating
matchings jointly with capacity-feasible partitions; it anchors the
acceptance tests. ``baseline_ls`` is the deliberately simpler comparison
solver: it runs ``orchestrator.run_loop``, the outer banning loop of
``solve``, so it bans through the same ``modify_graph``, but
its matcher re-solves from scratch every iteration and its partitioner is
greedy construction and relocation-only local search. It reports no lower
bound, so it runs its full iteration budget at every m.
``bench`` loads every listed instance before it solves any, then emits one
CSV row per run, with the exact optimum where the oracle's guards allow;
``compare`` joins two such CSVs into a win/tie/loss table. Every CSV the
package reads goes through one reader, ``read_csv`` (the bench reports and
the ``bench --manifest`` list), and every CSV it writes through one writer,
``write_csv`` (the bench reports, the compare table and the benchmark
manifest).
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat

from .errors import InfeasibleInstance, ParseError, TooLarge
from .graph import (
    BipartiteGraph,
    PartitionAssignment,
    Solution,
    load_instance,
    read_utf8,
)
from .hga import Individual, fitness_of, mls_improve
from .matching import solve_full
from .numpart import BRUTE_FORCE_GUARD, bounded_min_max, greedy_lpt, parts_for
from .orchestrator import FimpParams, RunResult, run_loop, solve

ORACLE_MAX_N1 = 8
ORACLE_MAX_NODES = 200_000


def exact_oracle(g: BipartiteGraph, m: int, ubar: int) -> tuple[int, Solution]:
    """Global optimum over all matchings x capacity-feasible partitions.

    Depth-first over injective U -> V maps on available edges (row-major,
    columns ascending); each complete matching's weight vector goes through
    the exact bounded partition search. Admissible pruning only: a partial
    matching is cut when its heaviest edge or ceil(total/m) already reaches
    the incumbent. Guarded to n1 <= 8, m**n1 <= 10**7 and ``ORACLE_MAX_NODES``
    search nodes, which pruning does not bound (complete 8 x 24: 1.6 million).
    m > n1 is searched as m = n1, which has the same optimum; ``parts_for``'s
    capacity check comes first (``InfeasibleInstance`` before ``TooLarge``).
    """
    m = parts_for(g.n1, m, ubar)
    if g.n1 > ORACLE_MAX_N1 or m ** g.n1 > BRUTE_FORCE_GUARD:
        raise TooLarge(f"oracle guard: n1={g.n1}, m={m}")

    n1 = g.n1
    avail = g.available_mask()
    columns = [[int(v) for v in avail[u].nonzero()[0]] for u in range(n1)]
    best_obj: int | None = None
    best_mate: list[int] | None = None
    best_labels: list[int] | None = None
    mate = [-1] * n1
    used = [False] * g.n2
    ws = [0] * n1
    nodes = 0

    def dfs(u: int, total: int, heaviest: int) -> None:
        nonlocal best_obj, best_mate, best_labels, nodes
        nodes += 1
        if nodes > ORACLE_MAX_NODES:
            raise TooLarge(f"oracle guard: more than {ORACLE_MAX_NODES} search nodes")
        if best_obj is not None and (heaviest >= best_obj or -(-total // m) >= best_obj):
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

    dfs(0, 0, 0)
    if best_obj is None:
        raise InfeasibleInstance("no perfect matching on available edges")
    sol = Solution(mate=best_mate,
                   partition=PartitionAssignment(m, ubar, best_labels),
                   objective=best_obj)
    return best_obj, sol


def baseline_ls(g: BipartiteGraph, m: int, ubar: int,
                params: FimpParams) -> RunResult:
    """Comparison anchor: ``run_loop`` with a matcher that re-solves the
    matching from scratch every iteration and a partitioner that runs
    greedy construction and relocation-only local search.

    ``run_loop`` ages and chooses bans through ``modify_graph`` on
    the state the matcher just solved, as for ``solve``; the two ban loops
    differ only in the matching, which the next iteration re-solves instead
    of repairing. Match time is the full solves plus ``modify_graph``, and
    partition time is the greedy construction plus the local search, as
    ``run_loop`` charges them for both solvers. It reports no lower bound,
    so it always runs the full ``max_iterations``. m and the capacity check
    come from ``parts_for``, before ``params`` are checked, as in ``solve``.
    """
    m = parts_for(g.n1, m, ubar)

    def match():
        return solve_full(g), None

    def partition(w, deadline):
        part = greedy_lpt(w, m, ubar)
        return mls_improve(Individual(part, fitness_of(part, w, m)), w, ubar, levels=(1,))

    return run_loop(g, m, ubar, params, match, partition)


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


def report_for(path: str, instance_id: str, algo: str,
               params: FimpParams) -> RunReport:
    g = load_instance(path)
    result = run_algorithm(g, algo, params)
    try:
        optimum_scaled, _ = exact_oracle(g, g.m, g.ubar)
    except TooLarge:
        optimum_scaled = None
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
        objective=g.display_value(result.solution.objective), optimum=optimum, gap=gap,
        iterations=result.stats.iterations,
        wall_time_ms=result.stats.wall_time_ms,
        match_time_ms=result.stats.match_time_ms,
        hga_time_ms=result.stats.hga_time_ms,
        lower_bound=None if lower_bound is None else g.display_value(lower_bound),
        certified_optimal=result.stats.certified_optimal,
    )


def bench(instances: list[tuple[str, str]], algo: str, params: FimpParams,
          jobs: int = 1) -> list[RunReport]:
    """Run ``algo`` on (path, instance_id) pairs; reports sorted by id.

    Every path is loaded, and its graph dropped, before the first run, so a
    malformed or infeasible file raises before any solve; each run then
    loads its own file. With ``jobs`` > 1 the runs go to a process pool of
    at most one worker per run: the pool may start all its workers at once.
    """
    for path, _ in instances:
        load_instance(path)
    runs = ([path for path, _ in instances], [instance_id for _, instance_id in instances],
            repeat(algo), repeat(params))
    workers = min(jobs, len(instances))
    if workers <= 1:
        reports = list(map(report_for, *runs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(report_for, *runs))
    reports.sort(key=lambda r: (r.instance, r.algo, r.seed))
    return reports


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, columns: list[str], rows) -> None:
    """Write a header of ``columns``, then each mapping in ``rows`` as one
    line of ``_format_cell`` cells in that column order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in columns])


def write_reports(path: str, reports: list[RunReport]) -> None:
    write_csv(path, REPORT_COLUMNS, [vars(r) for r in reports])


def _opt_float(text: str) -> float | None:
    return float(text) if text else None


def _bool(text: str) -> bool:
    if text not in ("True", "False"):
        raise ValueError(f"{text!r} is neither True nor False")
    return text == "True"


# How each report column's cell becomes a RunReport field.
_REPORT_PARSERS = {
    "instance": str, "algo": str, "seed": int, "objective": float,
    "optimum": _opt_float, "gap": _opt_float, "iterations": int,
    "wall_time_ms": float, "match_time_ms": float, "hga_time_ms": float,
    "lower_bound": _opt_float, "certified_optimal": _bool,
}
# Files written before these columns existed read as having no bound.
_OPTIONAL_REPORT_COLUMNS = ("lower_bound", "certified_optimal")


def read_csv(path: str, parsers: dict, optional: tuple[str, ...] = ()) -> list[dict]:
    """Read a CSV with a header line into one dict per row, holding
    ``parsers[col](cell)`` for each column of ``parsers``. A column named in
    ``optional`` may be missing from the header; its key is then left out.
    A row without a cell for a column of its header is an error.

    Raises OSError if ``path`` cannot be read, else ParseError naming the file,
    the line and the column of a missing column, a bad cell or a non-UTF-8 byte.
    """
    reader = csv.DictReader(io.StringIO(read_utf8(path), newline=""))
    rows = []
    try:
        header = reader.fieldnames or []
        for col in parsers:
            if col not in header and col not in optional:
                raise ParseError(f"{path}: line {max(reader.line_num, 1)}: "
                                 f"missing column {col!r}")
        columns = [(col, parse) for col, parse in parsers.items() if col in header]
        for row in reader:
            fields = {}
            for col, parse in columns:
                cell = row.get(col)
                where = f"{path}: line {reader.line_num}, column {col!r}"
                if cell is None:
                    raise ParseError(f"{where}: missing cell")
                try:
                    fields[col] = parse(cell)
                except ValueError as exc:
                    raise ParseError(f"{where}: {exc}") from exc
            rows.append(fields)
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    return rows


def read_reports(path: str) -> list[RunReport]:
    """Read a CSV written by ``write_reports``; ``read_csv`` raises on a
    malformed file."""
    return [RunReport(**fields) for fields in
            read_csv(path, _REPORT_PARSERS, _OPTIONAL_REPORT_COLUMNS)]


COMPARE_COLUMNS = ["instance", "objective_a", "objective_b", "result",
                   "wall_time_ms_a", "wall_time_ms_b", "time_ratio"]


def _by_instance(reports: list[RunReport], side: str) -> dict[str, RunReport]:
    by_instance = {}
    for r in reports:
        if r.instance in by_instance:
            raise ValueError(f"compare: instance {r.instance!r} appears more than once in {side}")
        by_instance[r.instance] = r
    return by_instance


def compare_reports(a: list[RunReport], b: list[RunReport]):
    """Per-instance win/tie/loss of A versus B plus time ratios.

    Returns (rows, summary). A "win" means A's objective is strictly lower.
    Raises ValueError naming an offending instance when an instance repeats
    within one side or appears on one side only.
    """
    by_a = _by_instance(a, "A")
    by_b = _by_instance(b, "B")
    unpaired = sorted(by_a.keys() ^ by_b.keys())
    if unpaired:
        side, other = ("A", "B") if unpaired[0] in by_a else ("B", "A")
        raise ValueError(f"compare: instance {unpaired[0]!r} is in {side} but not in {other}")
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
    write_csv(path, COMPARE_COLUMNS, rows)
