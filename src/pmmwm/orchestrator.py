"""Iterative match-partition solver with edge banning and recovery.

Each iteration holds the matching fixed while the genetic algorithm
re-partitions the matched weights, then perturbs the graph: the heaviest
matched edge inside the heaviest partition is banned for ``tenure``
iterations, forcing later matchings (repaired incrementally, never re-solved
from scratch) to route around it. If the current objective drifts more than
``recovery_threshold`` above the incumbent, all bans are released at once
with probability ``recovery_prob``, pulling the search back toward the best
known region. The incumbent is the best (matching, partition) pair ever
seen, built fresh each iteration and never mutated, and its objective is
non-increasing over the run.

With m == 1 the problem collapses to plain min-weight perfect matching:
banning could only worsen the optimum, so the loop exits after iteration 0.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field

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
    recovery_threshold: float = 0.05
    recovery_prob: float = 0.5
    hga: HgaParams = field(default_factory=HgaParams)
    rng_seed: int = 0

    def validate(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tenure < 1:
            raise ValueError("tenure must be >= 1")
        if not (0.0 <= self.recovery_prob <= 1.0):
            raise ValueError("recovery_prob must be in [0, 1]")
        if self.recovery_threshold < 0.0:
            raise ValueError("recovery_threshold must be >= 0")


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


def _ban_candidates(g: BipartiteGraph, sol: Solution) -> list[int]:
    """U-vertices of the heaviest partition (ties: lowest index), heaviest
    matched edge first (ties: lowest U-index)."""
    sums = partition_weights(g, sol)
    heaviest = sums.index(max(sums))
    part_of, mate = sol.partition.part_of, sol.mate
    return sorted((u for u in range(g.n1) if part_of[u] == heaviest),
                  key=lambda u: (-int(g.weight[u, mate[u]]), u))


def modify_graph(g: BipartiteGraph, st: MatchState, sol: Solution,
                 incumbent_objective: int, bans: BanList,
                 vetoed: dict[tuple[int, int], int], params: FimpParams,
                 rng: random.Random) -> MatchState:
    """One graph-modification step; returns the (possibly new) match state.

    In order: (i) age tenures and restore expired edges, (ii) if the current
    objective sits ``recovery_threshold`` above the incumbent, release every
    ban with probability ``recovery_prob``, (iii) otherwise ban the heaviest
    matched edge of the heaviest partition (ties: lowest U-index). A ban that
    would destroy feasibility is vetoed: the edge is restored, marked
    unbannable for ``tenure`` iterations, and the next-heaviest candidate is
    tried instead (none left: no ban this iteration).
    """
    expired = bans.age()
    for (u, v) in expired:
        g.unban_edge(u, v)
    st = batch_resolve(g, st, set(expired))
    _age_tenures(vetoed)

    current = sol.objective
    if incumbent_objective > 0:
        gap = (current - incumbent_objective) / incumbent_objective
    else:
        gap = float("inf") if current > 0 else 0.0
    if gap >= params.recovery_threshold and bans.entries:
        if rng.random() < params.recovery_prob:
            release = sorted(bans.entries)
            for (u, v) in release:
                g.unban_edge(u, v)
            bans.entries.clear()
            return batch_resolve(g, st, set(release))

    for u in _ban_candidates(g, sol):
        v = sol.mate[u]
        if (u, v) in vetoed or (u, v) in bans.entries:
            continue
        g.ban_edge(u, v)
        try:
            st = repair_after_ban(g, st, u, v)
        except NoPerfectMatching:
            g.unban_edge(u, v)
            vetoed[(u, v)] = params.tenure
            continue
        bans.entries[(u, v)] = params.tenure
        break
    return st


def solve(g: BipartiteGraph, m: int, ubar: int, params: FimpParams) -> RunResult:
    """Run the full iterative solver and return the incumbent plus statistics.

    The graph's ban flags are scratch state for the run: they are restored
    on every exit, an exception included, so the reported solution validates
    against the pristine instance.
    """
    params.validate()
    if m * ubar < g.n1:
        raise InfeasibleInstance(f"m*ubar = {m * ubar} < n1 = {g.n1}")
    rng = random.Random(params.rng_seed)
    t_start = time.perf_counter()
    match_time = 0.0
    hga_time = 0.0
    trace: list[IterationRecord] = []

    t0 = time.perf_counter()
    st = solve_full(g)
    match_time += time.perf_counter() - t0

    if m == 1:
        sol = Solution(mate=[int(v) for v in st.mate_u],
                       partition=PartitionAssignment(1, ubar, [0] * g.n1),
                       objective=st.total_weight)
        wall = (time.perf_counter() - t_start) * 1000.0
        trace.append(IterationRecord(0, sol.objective, sol.objective, 0,
                                     match_time * 1000.0, 0.0))
        return RunResult(sol, RunStats(params.rng_seed, 1, wall,
                                       match_time * 1000.0, 0.0, trace))

    bans = BanList()
    vetoed: dict[tuple[int, int], int] = {}
    incumbent: Solution | None = None
    prev_mate: list[int] | None = None
    prev_part: np.ndarray | None = None
    iterations = 0
    pending_match = match_time  # iteration 0 charges the initial full solve
    saved_bans = g.banned.copy()

    try:
        for it in range(params.max_iterations):
            elapsed_ms = (time.perf_counter() - t_start) * 1000.0
            if params.time_limit_ms is not None and it > 0 and elapsed_ms >= params.time_limit_ms:
                break
            iterations = it + 1

            warm = None
            mate_now = st.mate_u.tolist()
            if prev_mate is not None:
                changed = sum(1 for a, b in zip(prev_mate, mate_now) if a != b)
                if changed <= 2:
                    warm = prev_part

            w = g.weight[np.arange(g.n1), st.mate_u]
            hga_params = dataclasses.replace(params.hga, rng_seed=rng.getrandbits(63))
            t0 = time.perf_counter()
            best_ind = evolve(w, m, ubar, hga_params, seed_assignment=warm)
            hga_iter = time.perf_counter() - t0
            hga_time += hga_iter

            current = Solution(mate=mate_now,
                               partition=PartitionAssignment(m, ubar, best_ind.part.tolist()),
                               objective=best_ind.fitness[0])
            if incumbent is None or current.objective < incumbent.objective:
                incumbent = current
            prev_mate = mate_now
            prev_part = best_ind.part

            t0 = time.perf_counter()
            st = modify_graph(g, st, current, incumbent.objective, bans, vetoed,
                              params, rng)
            repair_iter = time.perf_counter() - t0
            match_time += repair_iter
            trace.append(IterationRecord(it, current.objective, incumbent.objective,
                                         len(bans),
                                         (pending_match + repair_iter) * 1000.0,
                                         hga_iter * 1000.0))
            pending_match = 0.0
    finally:
        g.banned[:] = saved_bans

    wall = (time.perf_counter() - t_start) * 1000.0
    stats = RunStats(params.rng_seed, iterations, wall, match_time * 1000.0,
                     hga_time * 1000.0, trace)
    return RunResult(incumbent, stats)
