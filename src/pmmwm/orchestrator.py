"""Iterative match-partition solver with edge banning.

Each iteration holds the matching fixed while the genetic algorithm
re-partitions the matched weights, starting from the population the previous
iteration's HGA ended with, then changes the graph in ``modify_graph``:
bans whose tenure has run out are lifted and the matching re-matched around
them, then the heaviest matched edge inside the heaviest partition is banned
for ``tenure`` iterations, forcing later matchings (repaired incrementally,
never re-solved from scratch) to route around it. The incumbent is the best
(matching, partition) pair ever seen, built only on a strict improvement and
never mutated, and its objective is non-increasing over the run.

``solve`` and ``harness.baseline_ls`` both run ``run_loop``, which owns the
params check, the time limit, the incumbent, the trace, the timing, the
``BanList``, the graph's ban flags and the ban step; each solver supplies its
matcher, its partitioner and its m from ``numpart.parts_for``, the capacity
check. The ``BanList`` is the whole ban policy's state: the active bans, each
with its remaining tenure; ``BanList.age`` expires them and ``modify_graph``
picks the next ban. The two solvers differ only in the matching each
iteration starts from and in how they partition it: ``solve`` repairs one
matching state across the run, ``baseline_ls`` solves a fresh one every
iteration, and ``run_loop`` bans through ``modify_graph`` on that state for
both.

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
import math
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import NoPerfectMatching
from .graph import BipartiteGraph, PartitionAssignment, Solution
from .hga import HgaParams, Individual, evolve
from .matching import MatchState, batch_resolve, repair_after_ban, solve_full
from .numpart import part_sums, parts_for


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
    remaining tenure and mirrors the graph's ban flags."""

    def __init__(self):
        self.entries: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def age(self, g: BipartiteGraph) -> list[tuple[int, int]]:
        """Age every ban by one iteration; unban the expired bans in ``g``
        and return them, sorted."""
        expired = sorted(edge for edge, left in self.entries.items() if left <= 1)
        self.entries = {edge: left - 1 for edge, left in self.entries.items() if left > 1}
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


def modify_graph(g: BipartiteGraph, st: MatchState, best: Individual, *,
                 bans: BanList, tenure: int) -> None:
    """One graph-modification step; repairs ``st`` in place.

    ``bans.age`` lifts the expired bans and ``batch_resolve`` re-matches
    around them. Then the heaviest edge (u, v) that ``st`` matched on entry
    inside ``best``'s heaviest partition (ties: lowest partition index, then
    lowest U-index) is banned for ``tenure`` iterations, unless
    ``repair_after_ban`` finds that no perfect matching survives the ban: the
    edge is then unbanned and the next one is tried. Nothing records the
    rejection, so a later call tries the edge again. None left: no ban.
    ``best`` partitions the entry matching's weights, and ``st`` must be the
    matcher's state for ``g`` as it stands, as ``match()`` returns it.
    """
    mate = st.mate_u.copy()
    batch_resolve(g, st, set(bans.age(g)))
    w = g.weight[np.arange(g.n1), mate]
    heaviest = np.argmax(part_sums(best.part, w, len(best.fitness)))
    members = np.flatnonzero(best.part == heaviest)
    for u in members[np.argsort(-w[members], kind="stable")].tolist():
        v = int(mate[u])
        g.ban_edge(u, v)
        try:
            repair_after_ban(g, st, u, v)
        except NoPerfectMatching:
            g.unban_edge(u, v)
            continue
        bans.entries[(u, v)] = tenure
        break


def run_loop(g: BipartiteGraph, m: int, ubar: int, params: FimpParams,
             match: Callable, partition: Callable) -> RunResult:
    """The outer match-partition loop of ``solve`` and ``baseline_ls``.

    Each iteration calls ``match()``, which returns the matcher's state for
    ``g`` as it stands and a lower bound on every solution's objective
    (``None``: no bound known), then ``partition(w, deadline)``, which
    returns an ``Individual`` partitioning the matched weights ``w``. A strict
    improvement makes the two the incumbent, the only ``Solution`` built;
    ``modify_graph`` then ages the bans and bans an edge of the
    ``Individual``'s heaviest partition, repairing the state in place.
    ``match()`` plus ``modify_graph`` is charged to matching time,
    ``partition`` to partition time. The loop runs at most ``max_iterations``
    iterations. It stops early, certified optimal, once the incumbent
    reaches the bound; that is checked before ``modify_graph``, so the
    certifying iteration neither bans nor repairs. It also stops before any
    iteration after the first once ``deadline`` (``math.inf`` without a
    ``time_limit_ms``, else the ``time.perf_counter()`` value at which it
    runs out) has passed. The graph's ban flags are restored on every exit,
    an exception included.
    It checks ``params``; m must come from ``numpart.parts_for``.
    """
    params.validate()
    t_start = time.perf_counter()
    deadline = (math.inf if params.time_limit_ms is None
                else t_start + params.time_limit_ms / 1000.0)
    trace: list[IterationRecord] = []
    bans = BanList()
    incumbent: Solution | None = None
    lower_bound: int | None = None
    certified = False
    saved_bans = g.banned.copy()
    try:
        for it in range(params.max_iterations):
            if it > 0 and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            st, lower_bound = match()
            t1 = time.perf_counter()
            best = partition(g.weight[np.arange(g.n1), st.mate_u], deadline)
            t2 = time.perf_counter()
            if incumbent is None or best.fitness[0] < incumbent.objective:
                incumbent = Solution(mate=st.mate_u.tolist(), objective=best.fitness[0],
                                     partition=PartitionAssignment(m, ubar, best.part.tolist()))
            certified = lower_bound is not None and incumbent.objective == lower_bound
            t3 = time.perf_counter()
            if not certified:  # the run ends here, so the ban step would serve nothing
                modify_graph(g, st, best, bans=bans, tenure=params.tenure)
            match_s = (t1 - t0) + (time.perf_counter() - t3)
            del st  # so a matcher that solves afresh never holds two states at once
            trace.append(IterationRecord(it, best.fitness[0], incumbent.objective,
                                         len(bans), match_s * 1000.0, (t2 - t1) * 1000.0))
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
    """FIMP-HGA: ``run_loop`` with a matcher that returns one matching state,
    which ``modify_graph`` repairs after every iteration, and a partitioner
    that evolves one HGA population across iterations. Only iteration 0
    solves the matching from scratch, and only iteration 0 builds the HGA's
    population: every later ``evolve`` call starts from the previous one's
    final population, re-scored on the new matched weights. When iteration
    0's LPT part reaches the partition bound, the rest of that population is
    built only if a later iteration reads it, so a run certified at
    iteration 0 never builds it. The HGA also stops starting generations
    once the run's ``deadline`` has passed, so iteration 0 ends soon after
    it.

    The lower bound is ceil(W*/m) with W* the weight of iteration 0's
    matching, so the run stops once the incumbent reaches it and may use
    fewer than ``max_iterations`` iterations. ``parts_for`` runs m > n1 as
    m = n1 and rejects too little capacity, before ``params`` are checked."""
    m = parts_for(g.n1, m, ubar)
    rng = random.Random(params.rng_seed)
    st: MatchState | None = None
    population: Sequence[Individual] | None = None
    lower_bound: int | None = None

    def match():
        nonlocal st, lower_bound
        if st is None:
            st = solve_full(g)
            lower_bound = -(-st.total_weight // m)
        return st, lower_bound

    def partition(w, deadline):
        nonlocal population
        hga_params = dataclasses.replace(params.hga, rng_seed=rng.getrandbits(63))
        best, population = evolve(w, m, ubar, hga_params, population=population,
                                  deadline=deadline)
        return best

    return run_loop(g, m, ubar, params, match, partition)
