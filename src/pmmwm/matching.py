"""Exact min-weight perfect matching on U with incremental repair.

The engine is a dense shortest-augmenting-path assignment solver in the
Jonker-Volgenant style on a square table (``MatchState`` adds virtual
zero-cost dummy rows when n2 > n1). It keeps potentials ``alpha`` (on rows)
and ``beta`` (on columns) that are dual-feasible (alpha[u] + beta[v] <=
w(u, v) for every available edge) and a matching of tight edges. One *phase*
rematches a single free row by a potential-adjusted Dijkstra over the dense
weight table, then shifts potentials so every matched edge is tight again. A
perfect matching of tight edges under feasible potentials is a certificate
of optimality, which is what makes incremental repair after an edge ban or
restore sound: ``_reprice``, the only code that changes an edge's cost after
a solve, frees the one row whose matched edge was banned, or whose potential
the restored cost undercuts, and runs one phase.

A from-scratch solve on a square table starts warm (``_warm_start``): an
eps-scaling Jacobi auction (Bertsekas, "The auction algorithm", 1988) prices
the columns, beta = -price, each row the auction matched takes as alpha its
least reduced cost and keeps its auction column if that edge is tight, and
phases match the other rows from alpha 0. Any beta <= 0 with alpha so
chosen is dual-feasible (eff >= 0, so every reduced cost is >= 0) and the
kept edges are tight, so the warm state is a valid start for phases and the
finished state carries the same certificate as a cold solve; the prices
only decide how many phases remain and how long they run. Wide tables
(n2 > n1) start cold: the dummy rows' certificate needs every column U
leaves free at beta 0.

Costs per call on an n1 x n2 table:
    solve_full          square: auction rounds of O(rows bidding * n2), then
                        one phase per row left free (half to two thirds of
                        n1 on the shipped n1 = 200 and 500 cells); wide: n1
                        phases, O(n1^2 * n2)
    repair_after_ban    at most 1 phase, O(n2^2)
    batch_resolve       at most 1 phase per released edge

Absent and banned edges participate as a saturating "infinite" weight; a
phase whose cheapest reachable free vertex costs that much reports
NoPerfectMatching without mutating the state. That is how both solvers'
ban step (``orchestrator.modify_graph``) rejects a ban; the solvers differ
only in whether the state they repair was carried or freshly solved.

Each Dijkstra step of a phase settles one column in four in-place vector
operations over preallocated rows, with no boolean fancy indexing: an
``argmin`` over the working distances (settled columns hold ``_MASKED``, so
no mask is built), one row add and one scalar add for the candidates through
the settled column's mate, and one ``np.minimum`` into the distances. Ties
go to the lowest column index and the phase stops at the first free column
settled. No predecessor array is kept: the augmenting path is recovered
after the phase by the tie rule a strict-``<`` relaxation implies (see
``_augment``), so matchings and potentials are those of the textbook step.
All of this stays within int64: see the bound at ``_MASKED``.

A step's scalars stay out of numpy scalar objects, which at n2 = 500 would
cost about half as much again as its four array operations: the settled
column's distance, its row and that row's ``alpha`` are read as Python ints
with ``dist.item(j)``, ``mate_v.item(j)`` and ``alpha.item(r)``, and the
step's offset ``dist[j] - alpha[r]`` is added through a 0-d int64 buffer.
The median phase of ``solve_full`` on the shipped n1 = 200 and 500 cells
settles 2-3 columns, so reading the two entries per step costs less than
copying ``mate_v`` and ``alpha`` to lists once per phase. Long phases pay
for it: a step costs about 0.12 us more than a list read, so past about 20
steps at n2 = 200 and 75 at n2 = 500 the copies would be cheaper. Repairs
on dense n = 200 and 400 tables settle about 40 and 80 columns at the
median, and cold phases (wide tables) ran 2-5% slower than with the copies.

Set the environment variable ``PMMWM_CHECK_INVARIANTS=1`` to run a full
dual-feasibility / complementary-slackness scan after every public operation
(used by the test suite; far too slow for production runs).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import NoPerfectMatching
from .graph import BipartiteGraph

INF = 1 << 61          # effective weight of absent/banned edges
_INF_CUTOFF = 1 << 59  # any path cost this large must use a forbidden edge
# Distance and penalty of settled columns. The largest candidate is a settled
# column's: INF + _MASKED - beta + dist - alpha, with dist < _INF_CUTOFF (only
# columns closer than that are relaxed from). INF + _MASKED + _INF_CUTOFF =
# 2**63 - 3 * 2**59, so it fits int64 while alpha >= 0 >= beta and
# |beta| < 2**59. Both hold for every state ``solve_full`` returns:
# - It starts cold (alpha = beta = 0) or warm, with -_PRICE_CAP <= beta <= 0
#   and alpha >= 0 (see ``_warm_start``). The dual update only raises alpha
#   and lowers beta.
# - A phase that ends at the free column f sets each settled column j to
#   beta[f] + A(j) - A(f), where A(x) is the unmatched minus the matched
#   weight along the shortest alternating path to x. So beta[j] drops at most
#   2 * n1 * max_w <= 2 * graph.MAX_TOTAL_WEIGHT = 2**56 below beta[f].
# - During a solve a free column keeps its start beta, and a matched column
#   stays matched. So |beta| <= _PRICE_CAP + 2**56 < 2**59 throughout.
# - A path over available edges costs A(f) - beta[f] <= 2**55 + _PRICE_CAP,
#   below _INF_CUTOFF; one through an INF edge costs at least INF - alpha,
#   above it, as alpha <= max_w + |beta| on a matched row.
# A repair ends its phase at the column it freed, so the same step bounds
# that repair's drop below that column's beta; ``TestInt64Headroom`` walks
# repairs at the weight limits.
# A settled column's candidate is never below _MASKED either: it is _MASKED
# plus a reduced cost (>= 0 under dual feasibility) plus dist >= 0, so the
# np.minimum of a step leaves a settled column's distance at _MASKED.
_MASKED = 1 << 62
_PRICE_CAP = 1 << 58  # warm-start prices are clamped to this
FREE = -1


def _checks_enabled() -> bool:
    return os.environ.get("PMMWM_CHECK_INVARIANTS", "") not in ("", "0")


class MatchState:
    """Matching, dual potentials and effective weights of the square problem:
    n1 real rows, then n2 - n1 zero-cost dummy rows that take the columns U
    leaves free (Burkard, Dell'Amico & Martello, *Assignment Problems*, ch. 4).

    ``eff`` has the graph's weights, INF on absent or banned edges, in its n1
    rows (``_reprice`` keeps them in sync), then one zero row that every dummy
    row reads, so memory stays O(n1 * n2). ``row_mate``, ``alpha`` and
    ``beta`` have length n2; ``mate_u`` views ``row_mate``'s first n1
    entries. ``phase_count`` counts phases ever run on this state.
    """

    def __init__(self, graph: BipartiteGraph):
        n1, n2 = graph.n1, graph.n2
        avail = graph.available_mask()  # before eff: its temporaries are freed first
        self.eff = np.zeros((n1 + 1, n2), dtype=np.int64)
        self.eff[:n1] = INF
        np.copyto(self.eff[:n1], graph.weight, where=avail)
        self.row_mate = np.full(n2, FREE, dtype=np.int64)
        self.mate_u = self.row_mate[:n1]
        self.mate_v = np.full(n2, FREE, dtype=np.int64)
        self.alpha = np.zeros(n2, dtype=np.int64)
        self.beta = np.zeros(n2, dtype=np.int64)
        self.phase_count = 0

    @property
    def n2(self) -> int:
        return len(self.row_mate)

    @property
    def total_weight(self) -> int:  # dummy rows cost 0
        n1 = len(self.eff) - 1
        return int(self.eff[np.arange(n1), self.row_mate[:n1]].sum())


def _augment(st: MatchState, start_u: int) -> None:
    """Rematch the free row ``start_u`` along a shortest augmenting path.

    Dijkstra runs with the potentials frozen at phase start. ``dist`` holds
    the tentative distance of each unsettled column, ``_MASKED`` on settled
    ones; ``base`` is ``-beta`` plus ``_MASKED`` on settled columns, so a
    step through the settled column j matched to row r computes ``eff[r] +
    base + dist[j] - alpha[r]`` into ``cand`` (a dummy row reads the zero
    row ``eff[n1]``) and takes the elementwise minimum into ``dist``. The
    settled columns and their distances are listed in settle order for the
    path recovery and the dual update.

    ``alpha[start_u]`` is never read, as it shifts all distances alike:
    they start at ``eff[start_u] - beta`` (>= 0, since eff >= 0 >= beta),
    and the dual update sets ``alpha[start_u]`` to the path cost ``mu``.

    No predecessor array is kept. A column's distance is the minimum of its
    reduced cost from ``start_u`` and the candidates from the columns settled
    before it, and a strict-``<`` relaxation would have kept the first of
    these, in that order, that reaches the minimum. So, walking back from the
    free column, the predecessor of the column j settled at position p is
    ``start_u`` if ``eff[start_u, j] - beta[j]`` equals its distance, and
    otherwise the column at the least position q < p whose candidate
    ``eff[r_q, j] - alpha[r_q] + dist_q - beta[j]`` does, r_q being the row
    matched to that column.

    The dual update applied at the end is the accumulated-delta form of the
    classic per-iteration update, so dual feasibility and tightness of
    matched edges are preserved. Raises NoPerfectMatching (state untouched)
    when no free vertex is reachable over available edges.
    """
    st.phase_count += 1
    eff, alpha, beta = st.eff, st.alpha, st.beta
    row_mate, mate_v = st.row_mate, st.mate_v
    n1 = len(eff) - 1

    dist = eff[start_u] - beta  # _MASKED once settled
    base = -beta                # _MASKED - beta once settled
    cand = np.empty(st.n2, dtype=np.int64)
    shift = np.empty((), dtype=np.int64)  # the step's dist[j] - alpha[r]
    argmin, add, minimum = dist.argmin, np.add, np.minimum
    row_of, alpha_of = mate_v.item, alpha.item
    cols: list[int] = []
    col_dist: list[int] = []

    while True:
        j = int(argmin())
        dj = dist.item(j)
        if dj >= _INF_CUTOFF:
            raise NoPerfectMatching(
                f"no augmenting path from U-vertex {start_u}")
        cols.append(j)
        col_dist.append(dj)
        dist[j] = _MASKED
        base[j] += _MASKED
        r = row_of(j)
        if r == FREE:
            break
        add(eff[r if r < n1 else n1], base, out=cand)
        shift[()] = dj - alpha_of(r)
        cand += shift
        minimum(dist, cand, out=dist)

    # Path recovery, with the potentials still those the phase ran with.
    # ``path`` runs from the free column back to the one next to start_u.
    inner = np.array(cols[:-1], dtype=np.int64)
    inner_dist = np.array(col_dist[:-1], dtype=np.int64)
    rows = mate_v[inner]
    eff_rows = np.minimum(rows, n1)
    offset = inner_dist - alpha[rows]  # cand = eff[eff_rows, j] + offset - beta[j]
    path = []
    p = len(cols) - 1
    while True:
        j = cols[p]
        path.append(j)
        target = col_dist[p] + int(beta[j])
        if int(eff[start_u, j]) == target:
            break
        p = int((eff[eff_rows[:p], j] + offset[:p] == target).argmax())

    # Dual update: every settled column except the free endpoint, and the
    # rows matched to them, shift by the remaining distance to the path cost.
    mu = col_dist[-1]
    adj = mu - inner_dist
    alpha[rows] += adj
    beta[inner] -= adj
    alpha[start_u] = mu

    # Flip the path: each column takes the row of the column before it.
    for j, jprev in zip(path, path[1:]):
        r = int(mate_v[jprev])
        mate_v[j] = r
        row_mate[r] = j
    mate_v[path[-1]] = start_u
    row_mate[start_u] = path[-1]


def _reprice(st: MatchState, u: int, v: int, w: int) -> None:
    """Set the cost of edge (u, v) to ``w`` and repair the matching.

    If (u, v) is u's matched edge, or ``w`` is below ``alpha[u] + beta[v]``,
    row u and its column are freed and u is rematched in one phase; otherwise
    the state is already optimal. On NoPerfectMatching the old cost and both
    mates are put back before the exception propagates.
    """
    old_w, old_v = int(st.eff[u, v]), int(st.row_mate[u])
    st.eff[u, v] = w
    if old_v != v and int(st.alpha[u]) + int(st.beta[v]) <= w:
        return
    st.row_mate[u] = FREE
    st.mate_v[old_v] = FREE
    try:
        _augment(st, u)
    except NoPerfectMatching:
        st.eff[u, v] = old_w
        st.row_mate[u] = old_v
        st.mate_v[old_v] = u
        raise


def _auction_prices(eff: np.ndarray, max_w: int) -> tuple[np.ndarray, np.ndarray]:
    """Column prices and a partial assignment from an eps-scaling Jacobi
    auction for minimum cost on the square table ``eff`` (Bertsekas 1988).

    Absent and banned edges cost the finite big-M ``n * (max_w + 1) + 1``.
    Each round, every free row bids at once for its cheapest column under
    ``cost + price``, raising that price by its margin over its second
    choice plus eps; a column goes to its highest bid (the lowest row on
    ties) and its previous owner is freed. eps runs from ``max_w // 5`` down
    to 1, dividing by 5, and each eps level starts with every row free.

    A level stops bidding once at most ``n // 20`` rows are still free and
    leaves them to the phases, which match them faster than the level's last
    rounds of a few bidders each. Measured on a 2-vCPU x86 host at n = 200
    and 500: without that stop ``solve_full`` took 1.3-2.5x as long on
    independent weights; with it, consistent weights solve about 4x faster
    than cold phases. The divisors 5 and 20 are fixed at those measurements.

    The capped costs are built once per call, and each round adds the
    prices to its bidders' rows of them. The auction stops at once if a
    price passes ``_PRICE_CAP``. Every round starts with prices at most
    that, so its values and bids stay below 2 * (big-M + _PRICE_CAP) + eps,
    far inside int64 and below INF.

    Returns ``(price, obj_of)``, ``obj_of[u]`` being row u's column or FREE.
    """
    n = len(eff)
    big = n * (max_w + 1) + 1
    price = np.zeros(n, dtype=np.int64)
    obj_of = np.full(n, FREE, dtype=np.int64)
    eps = max(1, max_w // 5)
    capped = np.minimum(eff, big)  # big-M on absent and banned edges
    while True:
        owner = np.full(n, FREE, dtype=np.int64)
        obj_of.fill(FREE)
        free = np.arange(n)
        while True:
            vals = capped[free]
            vals += price
            k = np.arange(len(free))
            best = vals.argmin(axis=1)
            first = vals[k, best]
            vals[k, best] = INF
            bid = price[best] + (vals.min(axis=1) - first) + eps
            del vals  # freed before the next gather: one round's values at a time
            # one winner per column: highest bid, then lowest row
            order = np.lexsort((free, -bid, best))
            cols = best[order]
            head = np.ones(len(cols), dtype=bool)  # each column's first bid
            head[1:] = cols[1:] != cols[:-1]
            won = order[head]
            cols, rows = best[won], free[won]
            lost = owner[cols]
            obj_of[lost[lost != FREE]] = FREE
            owner[cols] = rows
            obj_of[rows] = cols
            price[cols] = bid[won]
            if price.max() > _PRICE_CAP:
                return price, obj_of
            free = np.flatnonzero(obj_of == FREE)
            if len(free) <= n // 20:
                break
        if eps == 1:
            return price, obj_of
        eps = max(1, eps // 5)


def _warm_start(st: MatchState) -> None:
    """Seed a square state with the auction's duals: beta = -price (clamped
    to [-_PRICE_CAP, 0]), alpha[u] = min over columns of (eff[u] - beta) for
    each row the auction matched, and keep those rows' auction pairs that are
    tight and available. Every other row stays free at alpha 0, the value a
    phase assumes for its start row: ``_augment`` sets that alpha to the path
    cost, where the textbook step adds the cost to it. Dual-feasible for any
    prices (see the module docstring)."""
    n = len(st.row_mate)
    eff = st.eff[:n]
    max_w = eff.max(where=eff < INF, initial=-1)
    if max_w < 0:
        return
    price, obj_of = _auction_prices(eff, int(max_w))
    st.beta[:] = -np.minimum(price, _PRICE_CAP)
    reduced = eff - st.beta
    alpha = reduced.min(axis=1)
    rows = np.flatnonzero(obj_of != FREE)
    cols = obj_of[rows]
    keep = (reduced[rows, cols] == alpha[rows]) & (eff[rows, cols] < INF)
    rows, cols = rows[keep], cols[keep]
    st.alpha[rows] = alpha[rows]
    st.row_mate[rows] = cols
    st.mate_v[cols] = rows


def solve_full(g: BipartiteGraph) -> MatchState:
    """Min-weight perfect matching on U from scratch. A square table (n1 > 1)
    is warm-started from auction prices (``_warm_start``) and one phase
    rematches each row it leaves free; otherwise all n1 rows run a phase
    from zero potentials. The dummy rows then take the free columns with no
    phase: at cost 0 and alpha 0 those edges are tight (free columns keep
    beta 0, which auction prices would break, so wide tables start cold)
    and feasible (beta <= 0)."""
    st = MatchState(g)
    if g.n2 == g.n1 > 1:
        _warm_start(st)
    for u in np.flatnonzero(st.mate_u == FREE).tolist():
        _augment(st, u)
    free = np.flatnonzero(st.mate_v == FREE)
    st.row_mate[g.n1:] = free
    st.mate_v[free] = np.arange(g.n1, st.n2)
    if _checks_enabled():
        check_invariants(g, st)
    return st


def repair_after_ban(g: BipartiteGraph, st: MatchState, u: int, v: int) -> MatchState:
    """Re-optimize after edge (u, v) was banned in ``g``.

    ``_reprice`` sets the edge's cost to INF: an unmatched edge leaves the
    state as it is, a matched one costs one phase that rematches u.

    On NoPerfectMatching the ban destroyed feasibility: the state is rolled
    back to the pre-ban optimum and the caller MUST unban (u, v) in the graph
    to restore graph/state consistency. Raises ValueError, state untouched,
    if (u, v) is not banned in ``g``.
    """
    if not g.banned[u, v]:
        raise ValueError(f"repair_after_ban: edge ({u}, {v}) is not banned")
    _reprice(st, u, v, INF)
    if _checks_enabled():
        check_invariants(g, st)
    return st


def batch_resolve(g: BipartiteGraph, st: MatchState,
                  released: set[tuple[int, int]]) -> MatchState:
    """Re-optimize after a set of edges was unbanned in ``g``.

    ``_reprice`` restores each edge's weight in sorted edge order, at most
    one phase per edge (the eff table lags the graph until each edge's turn,
    which is sound: the state stays optimal for the partially-restored
    graph). Restoring edges cannot destroy feasibility, so this never raises
    NoPerfectMatching. Raises ValueError, state untouched, if any edge is
    not available in ``g``; every edge is checked before any is restored.
    """
    edges = sorted(released)
    for (u, v) in edges:
        if g.banned[u, v] or not g.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) is not available")
    for (u, v) in edges:
        _reprice(st, u, v, int(g.weight[u, v]))
    if edges and _checks_enabled():
        check_invariants(g, st)
    return st


def check_invariants(g: BipartiteGraph, st: MatchState) -> None:
    """Optimality-certificate scan of the square state, for every shape: eff in
    sync, feasible potentials (a dummy row's: alpha + max(beta) <= 0), a perfect
    matching of tight edges and dual == primal; raises AssertionError if not."""
    n1, alpha, beta = g.n1, st.alpha, st.beta
    real = np.where(g.available_mask(), g.weight, INF)
    assert (st.eff[:n1] == real).all(), "eff table out of sync with graph"
    assert not st.eff[n1].any(), "dummy row not zero-cost"
    slack = st.eff[:n1] - alpha[:n1, None] - beta[None, :]
    assert (slack[real < INF] >= 0).all(), "dual feasibility violated"
    assert (alpha[n1:] + beta.max() <= 0).all(), "dual feasibility violated"
    rows = np.arange(st.n2)
    assert (st.row_mate >= 0).all(), "matching not perfect"
    assert (st.mate_v[st.row_mate] == rows).all(), "row_mate/mate_v inconsistent"
    cost = st.eff[np.minimum(rows, n1), st.row_mate]
    assert (cost < INF).all(), "matched edge not available"
    assert (cost == alpha + beta[st.row_mate]).all(), "matched edge not tight"
    dual_value = int(st.alpha.sum()) + int(st.beta.sum())
    assert st.total_weight == dual_value, "primal != dual objective"
