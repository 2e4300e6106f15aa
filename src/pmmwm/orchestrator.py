"""Iterative match-partition solver with edge banning.

Each iteration holds the matching fixed while the genetic algorithm
re-partitions the matched weights, starting from the population the previous
iteration's HGA ended with, then changes the graph in ``modify_graph``:
bans whose tenure has run out are lifted and the matching re-matched around
them, then the heaviest matched edge inside the heaviest partition is banned
for ``tenure`` iterations, forcing later matchings (repaired incrementally,
never re-solved from scratch) to route around it. The incumbent is the best
(matching, partition) pair ever seen, built fresh each iteration and never
mutated, and its objective is non-increasing over the run.

``solve`` and ``harness.baseline_ls`` both run ``run_loop``, which owns the
checks, the time limit, the incumbent, the trace, the ``BanList`` and the
graph's ban flags; each supplies only its per-iteration step. The
``BanList`` is the whole ban policy's state: the active bans and the vetoes
(bans found to leave no perfect matching), each with its remaining tenure;
``BanList.age`` expires both and ``modify_graph`` picks the next ban. The
two solvers differ only in the matching each step starts from and in how
they partition it: ``solve`` repairs one matching state across the run,
``baseline_ls`` solves a fresh one every step, and both ban and veto
through ``modify_graph`` on that state.

``max_iterations`` is a cap, not a count. Every solution's heaviest
partition weighs at least ceil(W*/m), where W* is the weight of a
minimum-weight perfect matching, which ``solve`` reads off its iteration-0
``solve_full``. ``run_loop`` ends the run once the incumbent reaches that
bound and reports it as certified optimal. ``harness.baseline_ls`` reports
no bound, so it always runs its full budget, as the method it stands in for
does.
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
from .hga import HgaParams, Individual, evolve
from .matching import MatchState, batch_resolve, repair_after_ban, solve_full


@dataclass
class FimpParams:
    """``solve`` replaces ``hga.rng_seed`` every iteration with a draw from
    ``rng_seed``, so setting ``hga.rng_seed`` here has no effect."""

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
        if self.time_limit_ms is not None and self.time_limit_ms < 0:
            raise ValueError("time_limit_ms must be >= 0")
        self.hga.validate()


class BanList:
    """The ban policy's state: ``entries`` maps each banned edge to its
    remaining tenure and mirrors the graph's ban flags; ``vetoed`` maps each
    edge whose ban was rejected to the iterations left before it may be
    tried again."""

    def __init__(self):
        self.entries: dict[tuple[int, int], int] = {}
        self.vetoed: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def age(self, g: BipartiteGraph) -> list[tuple[int, int]]:
        """Age every ban and veto by one iteration; unban the expired bans
        in ``g`` and return them, sorted."""
        expired = sorted(edge for edge, left in self.entries.items() if left <= 1)
        self.entries = {edge: left - 1 for edge, left in self.entries.items() if left > 1}
        self.vetoed = {edge: left - 1 for edge, left in self.vetoed.items() if left > 1}
        for (u, v) in expired:
            g.unban_edge(u, v)
        return expired


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
    lower_bound: int | None = None  # no solution of the instance is lighter
    certified_optimal: bool = False  # the objective equals lower_bound


@dataclass
class RunResult:
    solution: Solution
    stats: RunStats


def modify_graph(g: BipartiteGraph, st: MatchState, sol: Solution, *,
                 bans: BanList, tenure: int) -> MatchState:
    """One graph-modification step; repairs ``st`` in place and returns it.

    ``bans.age`` lifts the expired bans and ``batch_resolve`` re-matches
    around them. Then the heaviest matched edge (u, v) of ``sol``'s heaviest
    partition (ties: lowest partition index, then lowest U-index) that is
    neither banned nor vetoed is banned for ``tenure`` iterations, unless
    ``repair_after_ban`` finds that no perfect matching survives the ban: the
    edge is then unbanned, vetoed for ``tenure`` iterations, and the next one
    is tried. None left: no ban. ``st`` must be the matcher's state for
    ``g`` as it stands, as ``solve``'s repaired state and ``baseline_ls``'s
    fresh solve both are.
    """
    batch_resolve(g, st, set(bans.age(g)))
    sums = partition_weights(g, sol)
    heaviest = sums.index(max(sums))
    part_of, mate = sol.partition.part_of, sol.mate
    for u in sorted((u for u in range(g.n1) if part_of[u] == heaviest),
                    key=lambda u: (-int(g.weight[u, mate[u]]), u)):
        v = mate[u]
        if (u, v) in bans.vetoed or (u, v) in bans.entries:
            continue
        g.ban_edge(u, v)
        try:
            repair_after_ban(g, st, u, v)
        except NoPerfectMatching:
            g.unban_edge(u, v)
            bans.vetoed[(u, v)] = tenure
            continue
        bans.entries[(u, v)] = tenure
        break
    return st


def run_loop(g: BipartiteGraph, m: int, ubar: int, params: FimpParams,
             step: Callable) -> RunResult:
    """The outer match-partition loop of ``solve`` and ``baseline_ls``.

    ``step(bans, deadline)`` runs one iteration and returns its solution,
    the seconds charged to matching and to partitioning, and a lower bound
    on every solution's objective (``None``: no bound known); it
    may age and add bans in ``bans``. The returned solution becomes the
    incumbent on strict improvement. The loop runs at most
    ``max_iterations`` steps and stops early, certified optimal, once the
    incumbent reaches the bound, or before any step after the first once
    ``deadline`` (the ``time.perf_counter()`` value at which
    ``time_limit_ms`` runs out; ``None``: no limit) has passed. The graph's
    ban flags are restored on every exit, an exception included.
    """
    params.validate()
    if m * ubar < g.n1:
        raise InfeasibleInstance(f"m*ubar = {m * ubar} < n1 = {g.n1}")
    t_start = time.perf_counter()
    deadline = (None if params.time_limit_ms is None
                else t_start + params.time_limit_ms / 1000.0)
    trace: list[IterationRecord] = []
    bans = BanList()
    incumbent: Solution | None = None
    lower_bound: int | None = None
    certified = False
    saved_bans = g.banned.copy()
    try:
        for it in range(params.max_iterations):
            if it > 0 and deadline is not None and time.perf_counter() >= deadline:
                break
            current, match_s, part_s, lower_bound = step(bans, deadline)
            if incumbent is None or current.objective < incumbent.objective:
                incumbent = current
            trace.append(IterationRecord(it, current.objective, incumbent.objective,
                                         len(bans), match_s * 1000.0, part_s * 1000.0))
            certified = lower_bound is not None and incumbent.objective == lower_bound
            if certified:
                break
    finally:
        g.banned[:] = saved_bans

    wall = (time.perf_counter() - t_start) * 1000.0
    return RunResult(incumbent, RunStats(params.rng_seed, len(trace), wall,
                                         sum(r.match_ms for r in trace),
                                         sum(r.hga_ms for r in trace), trace,
                                         lower_bound, certified))


def solve(g: BipartiteGraph, m: int, ubar: int, params: FimpParams) -> RunResult:
    """FIMP-HGA: ``run_loop`` with a step that evolves a partition of the
    current matching, then calls ``modify_graph``, which repairs the
    matching; the matching state, the bans and the HGA's final population
    carry over to the next iteration. Only iteration 0 solves the matching
    from scratch, and is charged for that, and only iteration 0 builds the
    HGA's population with ``init_population``: every later ``evolve`` call
    starts from the previous one's final population, re-scored on the new
    matched weights. The HGA also stops starting generations once the step's
    ``deadline`` has passed, so iteration 0 ends soon after it.

    The lower bound is ceil(W*/m) with W* the weight of iteration 0's
    matching, so the run stops once the incumbent reaches it and may use
    fewer than ``max_iterations`` iterations. At most n1 partitions can be
    non-empty, so m > n1 runs as m = n1."""
    m = min(m, g.n1)
    rng = random.Random(params.rng_seed)
    st: MatchState | None = None
    population: list[Individual] | None = None
    lower_bound: int | None = None

    def step(bans, deadline):
        nonlocal st, population, lower_bound
        match_s = 0.0
        if st is None:
            t0 = time.perf_counter()
            st = solve_full(g)
            match_s = time.perf_counter() - t0
            lower_bound = -(-st.total_weight // m)

        w = g.weight[np.arange(g.n1), st.mate_u]
        hga_params = dataclasses.replace(params.hga, rng_seed=rng.getrandbits(63))
        t0 = time.perf_counter()
        best, population = evolve(w, m, ubar, hga_params, population=population,
                                  deadline=deadline)
        hga_s = time.perf_counter() - t0

        current = Solution(mate=st.mate_u.tolist(), objective=best.fitness[0],
                           partition=PartitionAssignment(m, ubar, best.part.tolist()))
        t0 = time.perf_counter()
        modify_graph(g, st, current, bans=bans, tenure=params.tenure)
        return current, match_s + (time.perf_counter() - t0), hga_s, lower_bound

    return run_loop(g, m, ubar, params, step)
