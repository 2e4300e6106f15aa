"""Exact min-weight perfect matching on U with incremental repair.

The engine is a dense shortest-augmenting-path assignment solver in the
Jonker-Volgenant style: it maintains vertex potentials ``alpha`` (on U) and
``beta`` (on V) that are dual-feasible (alpha[u] + beta[v] <= w(u, v) for
every available edge) and a matching of tight edges. One *phase* rematches a
single free U-vertex by running a potential-adjusted Dijkstra over the dense
weight table and then shifting potentials so every matched edge is tight
again. A perfect matching of tight edges under feasible potentials is a
certificate of optimality, which is what makes incremental repair after an
edge ban or restore sound: repair only needs to re-run a single phase for the
one vertex whose matched edge was disturbed.

Costs per call on an n1 x n2 table:
    solve_full          n1 phases, O(n1^2 * n2)
    repair_after_ban    at most 1 phase, O(n1 * n2)
    batch_resolve       at most 1 phase per released edge

Absent and banned edges participate as a saturating "infinite" weight; a
phase whose cheapest reachable free vertex costs that much reports
NoPerfectMatching without mutating the state.

Each Dijkstra step of a phase settles one column in four in-place vector
operations over preallocated rows, with no boolean fancy indexing: an
``argmin`` over the working distances (settled columns hold ``_MASKED``, so
no mask is built), one row add and one scalar add for the candidate
distances through the settled column's mate, and one ``np.minimum`` into the
distances. The candidate row includes a per-phase penalty row that is
``_MASKED`` on settled columns; since reduced costs are non-negative under
dual feasibility, a settled column's candidate is never below ``_MASKED`` and
the minimum leaves it at ``_MASKED``. Ties go to the lowest column index and
the phase stops at the first free column settled. No predecessor array is
kept: after the phase, the augmenting path is recovered from the settled
columns by the tie rule that a strict-``<`` relaxation implies (the start
row first, then the earliest-settled column; see ``_augment``), so matchings
and potentials are those of the textbook step. All of this stays within
int64: see the bound at ``_MASKED``.

Set the environment variable ``PMMWM_CHECK_INVARIANTS=1`` to run a full
dual-feasibility / complementary-slackness scan after every public operation
(used by the test suite; far too slow for production runs).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import NoPerfectMatching
from .graph import ABSENT, BipartiteGraph

INF = 1 << 61          # effective weight of absent/banned edges
_INF_CUTOFF = 1 << 59  # any path cost this large must use a forbidden edge
# Distance and penalty of settled columns. The largest candidate is a settled
# column's: INF + _MASKED - beta + dist - alpha, with dist < _INF_CUTOFF (only
# columns closer than that are relaxed from), alpha >= 0 >= beta and |beta|
# about n1 * max_w <= graph.MAX_TOTAL_WEIGHT = 2**55. INF + _MASKED +
# _INF_CUTOFF is 2**63 - 2**59, so int64 holds it for any |beta| < 2**59.
# A settled column's candidate is never below _MASKED either: it is _MASKED
# plus a reduced cost (>= 0 under dual feasibility) plus dist >= 0, so the
# np.minimum of a step leaves a settled column's distance at _MASKED.
_MASKED = 1 << 62
FREE = -1


def _checks_enabled() -> bool:
    return os.environ.get("PMMWM_CHECK_INVARIANTS", "") not in ("", "0")


class MatchState:
    """Matching, dual potentials, and the effective weight table.

    ``eff`` mirrors the graph's weights with INF in place of absent or
    banned edges; the repair operations keep it in sync one edge at a time.
    ``phase_count`` counts augmentation phases ever run on this state (tests
    use it to assert that repairs run at most one phase).
    """

    def __init__(self, graph: BipartiteGraph):
        self.eff = np.where(graph.banned | (graph.weight == ABSENT),
                            INF, graph.weight).astype(np.int64)
        self.mate_u = np.full(graph.n1, FREE, dtype=np.int64)
        self.mate_v = np.full(graph.n2, FREE, dtype=np.int64)
        self.alpha = np.zeros(graph.n1, dtype=np.int64)
        self.beta = np.zeros(graph.n2, dtype=np.int64)
        self.total_weight = 0
        self.phase_count = 0

    @property
    def n1(self) -> int:
        return self.eff.shape[0]

    @property
    def n2(self) -> int:
        return self.eff.shape[1]

    def matched_weight(self) -> int:
        return int(self.eff[np.arange(self.n1), self.mate_u].sum())


def _augment(st: MatchState, start_u: int) -> None:
    """Rematch the free vertex ``start_u`` along a shortest augmenting path.

    Dijkstra runs with the potentials frozen at phase start. ``dist`` holds
    the tentative distance of each unsettled column and ``_MASKED`` on
    settled ones; ``base`` is the penalty row folded with ``-beta``
    (``_MASKED - beta[j]`` once column j is settled), so a step through the
    settled column j matched to row r computes ``eff[r] + base + dist[j] -
    alpha[r]`` into ``cand`` and takes the elementwise minimum into ``dist``.
    The settled columns and their distances are kept in two lists, in settle
    order, for the path recovery and the dual update.

    No predecessor array is kept. A column's distance is the minimum of its
    reduced cost from ``start_u`` and the candidates from the columns settled
    before it, and a strict-``<`` relaxation would have kept the first of
    these, in that order, that reaches the minimum. So, walking back from the
    free column, the predecessor of the column j settled at position p is
    ``start_u`` if ``eff[start_u, j] - alpha[start_u] - beta[j]`` equals its
    distance, and otherwise the column at the least position q < p whose
    candidate ``eff[r_q, j] - alpha[r_q] + dist_q - beta[j]`` does, r_q being
    the row matched to that column.

    The dual update applied at the end is the accumulated-delta form of the
    classic per-iteration update, so dual feasibility and tightness of
    matched edges are preserved. Raises NoPerfectMatching (state untouched)
    when no free vertex is reachable over available edges.
    """
    st.phase_count += 1
    eff, alpha, beta = st.eff, st.alpha, st.beta
    mate_u, mate_v = st.mate_u, st.mate_v

    dist = eff[start_u] - alpha[start_u] - beta  # _MASKED once settled
    base = -beta                                 # _MASKED - beta once settled
    cand = np.empty(st.n2, dtype=np.int64)
    cols: list[int] = []
    col_dist: list[int] = []

    while True:
        j = int(dist.argmin())
        dj = int(dist[j])
        if dj >= _INF_CUTOFF:
            raise NoPerfectMatching(
                f"no augmenting path from U-vertex {start_u}")
        cols.append(j)
        col_dist.append(dj)
        dist[j] = _MASKED
        base[j] += _MASKED
        r = int(mate_v[j])
        if r == FREE:
            break
        np.add(eff[r], base, out=cand)
        cand += dj - int(alpha[r])
        np.minimum(dist, cand, out=dist)

    # Path recovery, with the potentials still those the phase ran with.
    # ``path`` runs from the free column back to the one next to start_u.
    inner = np.array(cols[:-1], dtype=np.int64)
    inner_dist = np.array(col_dist[:-1], dtype=np.int64)
    rows = mate_v[inner]
    offset = inner_dist - alpha[rows]  # candidate = eff[rows, j] + offset - beta[j]
    start_alpha = int(alpha[start_u])
    path = []
    p = len(cols) - 1
    while True:
        j = cols[p]
        path.append(j)
        target = col_dist[p] + int(beta[j])
        if int(eff[start_u, j]) - start_alpha == target:
            break
        p = int((eff[rows[:p], j] + offset[:p] == target).argmax())

    # Dual update: every settled column except the free endpoint, and the
    # rows matched to them, shift by the remaining distance to the path cost.
    mu = col_dist[-1]
    adj = mu - inner_dist
    alpha[rows] += adj
    beta[inner] -= adj
    alpha[start_u] += mu

    # Flip the path: each column takes the row of the column before it.
    for j, jprev in zip(path, path[1:]):
        r = int(mate_v[jprev])
        mate_v[j] = r
        mate_u[r] = j
    mate_v[path[-1]] = start_u
    mate_u[start_u] = path[-1]


def solve_full(g: BipartiteGraph) -> MatchState:
    """Min-weight perfect matching on U from scratch (n1 phases)."""
    st = MatchState(g)
    st.alpha = st.eff.min(axis=1)
    if (st.alpha >= _INF_CUTOFF).any():
        u = int(np.argmax(st.alpha >= _INF_CUTOFF))
        raise NoPerfectMatching(f"U-vertex {u} has no available edges")
    for u in range(g.n1):
        _augment(st, u)
    st.total_weight = st.matched_weight()
    if _checks_enabled():
        check_invariants(g, st)
    return st


def repair_after_ban(g: BipartiteGraph, st: MatchState, u: int, v: int) -> MatchState:
    """Re-optimize after edge (u, v) was banned in ``g``.

    If the edge was unmatched, potentials and matching are untouched and the
    state is already optimal. If it was matched, u is freed and one phase
    rematches it.

    On NoPerfectMatching the ban destroyed feasibility: the state is rolled
    back to the pre-ban optimum and the caller MUST unban (u, v) in the graph
    to restore graph/state consistency.
    """
    if not g.banned[u, v]:
        raise ValueError(f"repair_after_ban: edge ({u}, {v}) is not banned")
    st.eff[u, v] = INF
    if st.mate_u[u] != v:
        if _checks_enabled():
            check_invariants(g, st)
        return st
    st.mate_u[u] = FREE
    st.mate_v[v] = FREE
    try:
        _augment(st, u)
    except NoPerfectMatching:
        st.mate_u[u] = v
        st.mate_v[v] = u
        st.eff[u, v] = int(g.weight[u, v])
        raise
    st.total_weight = st.matched_weight()
    if _checks_enabled():
        check_invariants(g, st)
    return st


def batch_resolve(g: BipartiteGraph, st: MatchState,
                  released: set[tuple[int, int]]) -> MatchState:
    """Re-optimize after a set of edges was unbanned in ``g``.

    Sequential incremental repairs in sorted edge order, at most one phase
    per edge (the eff table lags the graph until each edge's turn, which is
    sound: the state stays optimal for the partially-restored graph). A
    restored edge that satisfies dual feasibility leaves the state unchanged;
    otherwise alpha[u] drops to u's minimum slack and one phase rematches u.
    Restoring edges cannot destroy feasibility, so this never raises
    NoPerfectMatching.
    """
    edges = sorted(released)
    for (u, v) in edges:
        if g.banned[u, v] or not g.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) is not available")
        w = int(g.weight[u, v])
        st.eff[u, v] = w
        if int(st.alpha[u]) + int(st.beta[v]) <= w:
            continue
        st.alpha[u] = (st.eff[u] - st.beta).min()
        # The new alpha[u] is at most w - beta[v], below the old one that
        # made u's matched edge tight, so that edge is slack: u always rematches.
        vm = int(st.mate_u[u])
        st.mate_u[u] = FREE
        st.mate_v[vm] = FREE
        _augment(st, u)
        st.total_weight = st.matched_weight()
    if edges and _checks_enabled():
        check_invariants(g, st)
    return st


def check_invariants(g: BipartiteGraph, st: MatchState) -> None:
    """Full optimality-certificate scan; raises AssertionError on violation."""
    n1, n2 = g.n1, g.n2
    avail = g.available_mask()
    expected_eff = np.where(avail, g.weight, INF)
    assert (st.eff == expected_eff).all(), "eff table out of sync with graph"
    slack = st.eff - st.alpha[:, None] - st.beta[None, :]
    assert (slack[avail] >= 0).all(), "dual feasibility violated"
    assert (st.mate_u >= 0).all(), "matching not perfect on U"
    us = np.arange(n1)
    assert (st.mate_v[st.mate_u] == us).all(), "mate_u/mate_v inconsistent"
    matched_cols = np.zeros(n2, dtype=bool)
    matched_cols[st.mate_u] = True
    assert ((st.mate_v >= 0) == matched_cols).all(), "mate_v marks wrong columns"
    assert avail[us, st.mate_u].all(), "matched edge not available"
    assert (slack[us, st.mate_u] == 0).all(), "matched edge not tight"
    total = int(st.eff[us, st.mate_u].sum())
    assert total == st.total_weight, "total_weight stale"
    dual_value = int(st.alpha.sum()) + int(st.beta[matched_cols].sum())
    assert total == dual_value, "primal != dual objective"
