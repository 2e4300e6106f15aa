"""Iterative match-partition solver with edge banning.

Each iteration holds the matching fixed while the genetic algorithm
re-partitions the matched weights, then changes the graph in ``modify_graph``:
bans whose tenure has run out are lifted and the matching re-matched around
them, then the heaviest matched edge inside the heaviest partition is banned
for ``tenure`` iterations, forcing later matchings (repaired incrementally,
never re-solved from scratch) to route around it. The incumbent is the best
(matching, partition) pair ever seen, built fresh each iteration and never
mutated, and its objective is non-increasing over the run.

``solve`` and ``harness.baseline_ls`` both run ``run_loop``, which owns the
checks, the time limit, the incumbent, the trace and the graph's ban flags,
and both age and ban with ``age_bans`` and ``ban_first``; each supplies only
its per-iteration step. With m == 1 the problem collapses to plain
min-weight perfect matching: banning could only worsen the optimum, so
``run_loop`` does one full solve and no step.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InfeasibleInstance, NoPerfectMatching
from .graph import BipartiteGraph, PartitionAssignment, Solution, partition_weights
from .hga import HgaParams, evolve
from .matching import MatchState, batch_resolve, repair_after_ban, solve_full


@dataclass
class FimpParams:
    max_iterations: int = 500
    time_limit_ms: int | None = None
    tenure: int = 20
    hga: HgaParams = field(default_factory=HgaParams)
    rng_seed: int = 0

    def validate(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tenure < 1:
            raise ValueError("tenure must be >= 1")
        self.hga.validate()


def _age_tenures(tenures: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Decrement every tenure and drop/return the expired edges, sorted."""
    expired = []
    for edge in sorted(tenures):
        tenures[edge] -= 1
        if tenures[edge] <= 0:
            expired.append(edge)
    for edge in expired:
        del tenures[edge]
    return expired


class BanList:
    """Banned edges with remaining tenure; mirrors the graph's ban flags."""

    def __init__(self):
        self.entries: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def age(self) -> list[tuple[int, int]]:
        """Decrement every tenure and drop/return the expired edges."""
        return _age_tenures(self.entries)


@dataclass
class IterationRecord:
    iteration: int
    objective: int
    incumbent: int
    bans_active: int
    match_ms: float
    hga_ms: float


@dataclass
class RunStats:
    seed: int
    iterations: int
    wall_time_ms: float
    match_time_ms: float
    hga_time_ms: float
    trace: list[IterationRecord]


@dataclass
class RunResult:
    solution: Solution
    stats: RunStats


def age_bans(g: BipartiteGraph, bans: BanList,
             vetoed: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Age every ban and veto by one iteration; unban and return the
    expired bans."""
    expired = bans.age()
    for (u, v) in expired:
        g.unban_edge(u, v)
    _age_tenures(vetoed)
    return expired


def ban_first(g: BipartiteGraph, sol: Solution, bans: BanList,
              vetoed: dict[tuple[int, int], int], tenure: int,
              feasible: Callable[[int, int], bool]) -> None:
    """Ban the heaviest matched edge (u, v) of the heaviest partition (ties:
    lowest partition index, then lowest U-index) that is neither banned nor
    vetoed and that ``feasible(u, v)`` accepts once banned. A rejected edge is
    unbanned and vetoed for ``tenure`` iterations; none left: no ban."""
    sums = partition_weights(g, sol)
    heaviest = sums.index(max(sums))
    part_of, mate = sol.partition.part_of, sol.mate
    for u in sorted((u for u in range(g.n1) if part_of[u] == heaviest),
                    key=lambda u: (-int(g.weight[u, mate[u]]), u)):
        v = mate[u]
        if (u, v) in vetoed or (u, v) in bans.entries:
            continue
        g.ban_edge(u, v)
        if feasible(u, v):
            bans.entries[(u, v)] = tenure
            return
        g.unban_edge(u, v)
        vetoed[(u, v)] = tenure


def modify_graph(g: BipartiteGraph, st: MatchState, sol: Solution, *,
                 bans: BanList, vetoed: dict[tuple[int, int], int],
                 tenure: int) -> MatchState:
    """One graph-modification step; returns the new match state.

    ``age_bans`` lifts the expired bans and ``batch_resolve`` re-matches
    around them; then ``ban_first`` bans the next edge of ``sol`` for
    ``tenure`` iterations, vetoing any ban that ``repair_after_ban`` finds
    leaves no perfect matching.
    """
    st = batch_resolve(g, st, set(age_bans(g, bans, vetoed)))

    def repaired(u: int, v: int) -> bool:
        nonlocal st
        try:
            st = repair_after_ban(g, st, u, v)
        except NoPerfectMatching:
            return False
        return True

    ban_first(g, sol, bans, vetoed, tenure, repaired)
    return st


def run_loop(g: BipartiteGraph, m: int, ubar: int, params: FimpParams,
             step: Callable) -> RunResult:
    """The outer match-partition loop of ``solve`` and ``baseline_ls``.

    ``step(it, bans, vetoed, keep)`` runs iteration ``it`` and returns its
    solution with the seconds charged to matching and to partitioning; it may
    ban edges, and passes the solution to ``keep``, which records it as the
    incumbent on strict improvement. The graph's ban flags are restored on
    every exit, an exception included.
    """
    params.validate()
    if m * ubar < g.n1:
        raise InfeasibleInstance(f"m*ubar = {m * ubar} < n1 = {g.n1}")
    t_start = time.perf_counter()
    trace: list[IterationRecord] = []
    if m == 1:  # plain min-weight perfect matching: banning could only worsen it
        st = solve_full(g)
        match_ms = (time.perf_counter() - t_start) * 1000.0
        sol = Solution(mate=st.mate_u.tolist(), objective=st.total_weight,
                       partition=PartitionAssignment(1, ubar, [0] * g.n1))
        trace.append(IterationRecord(0, sol.objective, sol.objective, 0, match_ms, 0.0))
        wall = (time.perf_counter() - t_start) * 1000.0
        return RunResult(sol, RunStats(params.rng_seed, 1, wall, match_ms, 0.0, trace))

    bans = BanList()
    vetoed: dict[tuple[int, int], int] = {}
    incumbent: Solution | None = None
    saved_bans = g.banned.copy()

    def keep(sol: Solution) -> None:
        nonlocal incumbent
        if incumbent is None or sol.objective < incumbent.objective:
            incumbent = sol

    try:
        for it in range(params.max_iterations):
            elapsed_ms = (time.perf_counter() - t_start) * 1000.0
            if params.time_limit_ms is not None and it > 0 and elapsed_ms >= params.time_limit_ms:
                break
            current, match_s, part_s = step(it, bans, vetoed, keep)
            trace.append(IterationRecord(it, current.objective, incumbent.objective,
                                         len(bans), match_s * 1000.0, part_s * 1000.0))
    finally:
        g.banned[:] = saved_bans

    wall = (time.perf_counter() - t_start) * 1000.0
    return RunResult(incumbent, RunStats(params.rng_seed, len(trace), wall,
                                         sum(r.match_ms for r in trace),
                                         sum(r.hga_ms for r in trace), trace))


def solve(g: BipartiteGraph, m: int, ubar: int, params: FimpParams) -> RunResult:
    """FIMP-HGA: ``run_loop`` with a step that evolves a partition of the
    current matching (seeded with the previous one when at most 2 mates
    changed), then calls ``modify_graph``, which repairs the matching. Only
    iteration 0 solves it from scratch, and is charged for that. With a
    ``time_limit_ms`` the HGA also stops starting generations once the limit
    has passed, so iteration 0 ends soon after it."""
    rng = random.Random(params.rng_seed)
    deadline = (None if params.time_limit_ms is None
                else time.perf_counter() + params.time_limit_ms / 1000.0)
    st: MatchState | None = None
    prev_mate: list[int] | None = None
    prev_part: np.ndarray | None = None

    def step(it, bans, vetoed, keep):
        nonlocal st, prev_mate, prev_part
        match_s = 0.0
        if st is None:
            t0 = time.perf_counter()
            st = solve_full(g)
            match_s = time.perf_counter() - t0

        mate_now = st.mate_u.tolist()
        warm = None
        if prev_mate is not None and sum(a != b for a, b in zip(prev_mate, mate_now)) <= 2:
            warm = prev_part
        w = g.weight[np.arange(g.n1), st.mate_u]
        hga_params = dataclasses.replace(params.hga, rng_seed=rng.getrandbits(63))
        t0 = time.perf_counter()
        best = evolve(w, m, ubar, hga_params, seed_assignment=warm, deadline=deadline)
        hga_s = time.perf_counter() - t0

        current = Solution(mate=mate_now, objective=best.fitness[0],
                           partition=PartitionAssignment(m, ubar, best.part.tolist()))
        prev_mate, prev_part = mate_now, best.part
        keep(current)
        t0 = time.perf_counter()
        st = modify_graph(g, st, current, bans=bans, vetoed=vetoed, tenure=params.tenure)
        return current, match_s + (time.perf_counter() - t0), hga_s

    return run_loop(g, m, ubar, params, step)
