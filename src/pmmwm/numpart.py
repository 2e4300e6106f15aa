"""Constructive partitioning of a fixed weight vector into m capacity-bounded
sets minimizing the maximum sum.

Weights come as one int64 vector ``w`` indexed by U-vertex, and every
partition is returned as one int64 array ``part`` with ``part[u]`` the
partition of vertex u. Two constructors are provided: longest-processing-time
greedy (LPT) and multi-way largest-differencing (Karmarkar-Karp), plus an
exhaustive solver used as the test oracle. Both constructors are
deterministic: items of equal weight are ordered by U-index and all ties
break toward the lowest partition index. They seed the genetic algorithm's
initial population; neither is an exact solver.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import CapacityInfeasible, TooLarge

BRUTE_FORCE_GUARD = 10_000_000


def _check_capacity(n: int, m: int, ubar: int) -> None:
    if m < 1 or ubar < 1:
        raise CapacityInfeasible(f"need m >= 1 and ubar >= 1, got m={m} ubar={ubar}")
    if m * ubar < n:
        raise CapacityInfeasible(f"m*ubar = {m * ubar} cannot hold {n} items")


def greedy_in_order(w: np.ndarray, m: int, ubar: int) -> np.ndarray:
    """Assign items in index order, each to the lightest partition with spare
    capacity (ties: lowest index). To place items in another order, pass
    ``w[order]`` and scatter the result back with ``part[order] = ...``."""
    _check_capacity(len(w), m, ubar)
    part = []
    sums = [0] * m
    sizes = [0] * m
    for wi in w.tolist():
        best = -1
        for k in range(m):
            if sizes[k] < ubar and (best == -1 or sums[k] < sums[best]):
                best = k
        part.append(best)
        sums[best] += wi
        sizes[best] += 1
    return np.array(part, dtype=np.int64)


def greedy_lpt(w: np.ndarray, m: int, ubar: int) -> np.ndarray:
    """Longest-processing-time greedy: heaviest items placed first (ties:
    lowest U-index)."""
    order = np.argsort(-w, kind="stable")
    part = np.empty(len(w), dtype=np.int64)
    part[order] = greedy_in_order(w[order], m, ubar)
    return part


class _KKTuple:
    """A partial m-way split: m disjoint U-index lists with sums kept sorted
    descending; spread = sums[0] - sums[m-1]."""

    __slots__ = ("subsets", "sums")

    def __init__(self, subsets: list[list[int]], sums: list[int]):
        order = sorted(range(len(sums)), key=lambda i: -sums[i])
        self.subsets = [subsets[i] for i in order]
        self.sums = [sums[i] for i in order]

    @property
    def spread(self) -> int:
        return self.sums[0] - self.sums[-1]


def _merge(a: _KKTuple, b: _KKTuple, m: int) -> _KKTuple:
    # largest-with-smallest pairing: a.sums[i] joins b.sums[m-1-i]
    subsets = [a.subsets[i] + b.subsets[m - 1 - i] for i in range(m)]
    sums = [a.sums[i] + b.sums[m - 1 - i] for i in range(m)]
    return _KKTuple(subsets, sums)


def kk_multiway(w: np.ndarray, m: int, ubar: int) -> np.ndarray:
    """Multi-way Karmarkar-Karp differencing with a capacity-repair pass.

    Classic differencing: every item starts as its own tuple; repeatedly the
    two tuples with the largest spread (ties: older tuple first) merge by
    pairing largest sums with smallest. The final tuple balances sums but
    ignores ubar, so a repair pass then moves the smallest item out of each
    overfull partition into the lightest partition with spare room.
    """
    n = len(w)
    _check_capacity(n, m, ubar)
    part = np.zeros(n, dtype=np.int64)
    if n == 0:
        return part
    ws = w.tolist()

    def by_weight(u: int) -> tuple[int, int]:
        return ws[u], u

    heap: list[tuple[int, int, _KKTuple]] = []
    seq = 0
    for u in sorted(range(n), key=lambda u: (-ws[u], u)):
        subsets: list[list[int]] = [[] for _ in range(m)]
        sums = [0] * m
        subsets[0] = [u]
        sums[0] = ws[u]
        heapq.heappush(heap, (-ws[u], seq, _KKTuple(subsets, sums)))
        seq += 1
    while len(heap) > 1:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        merged = _merge(a, b, m)
        heapq.heappush(heap, (-merged.spread, seq, merged))
        seq += 1
    final = heap[0][2]

    sums = list(final.sums)
    subsets = [sorted(sub, key=by_weight) for sub in final.subsets]
    sizes = [len(sub) for sub in subsets]
    while True:
        over = next((k for k in range(m) if sizes[k] > ubar), None)
        if over is None:
            break
        target = -1
        for k in range(m):
            if k != over and sizes[k] < ubar and (target == -1 or sums[k] < sums[target]):
                target = k
        moved = subsets[over].pop(0)  # smallest item of the overfull partition
        subsets[target].append(moved)
        subsets[target].sort(key=by_weight)
        sums[over] -= ws[moved]
        sums[target] += ws[moved]
        sizes[over] -= 1
        sizes[target] += 1
    for k in range(m):
        part[subsets[k]] = k
    return part


def bounded_min_max(weights: list[int], m: int, ubar: int,
                    upper_bound: int | None = None):
    """Exact min-max DFS over labeled assignments of plain weights.

    Returns (objective, labels) or None if nothing beats ``upper_bound``.
    Two exactness-preserving reductions: branches whose running maximum
    already reaches the incumbent are cut, and among currently-empty
    partitions only the lowest-indexed one is tried.
    """
    n = len(weights)
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    best_obj = upper_bound
    best_labels: list[int] | None = None
    sums = [0] * m
    sizes = [0] * m
    choice = [0] * n

    def dfs(i: int, cur_max: int) -> None:
        nonlocal best_obj, best_labels
        if best_obj is not None and cur_max >= best_obj:
            return
        if i == n:
            best_obj = cur_max
            labels = [0] * n
            for pos, item_idx in enumerate(order):
                labels[item_idx] = choice[pos]
            best_labels = labels
            return
        w = weights[order[i]]
        seen_empty = False
        for k in range(m):
            if sizes[k] >= ubar:
                continue
            if sizes[k] == 0:
                if seen_empty:
                    continue
                seen_empty = True
            sums[k] += w
            sizes[k] += 1
            choice[i] = k
            dfs(i + 1, max(cur_max, sums[k]))
            sums[k] -= w
            sizes[k] -= 1

    dfs(0, 0)
    if best_labels is None:
        return None
    return int(best_obj), best_labels


def min_max_brute(w: np.ndarray, m: int, ubar: int) -> tuple[int, np.ndarray]:
    """Exact minimum of the max partition sum by exhaustive enumeration.

    Guarded to m**n <= 10**7 labeled assignments; the oracle the heuristic
    constructors are measured against. Returns (objective, part).
    """
    if m ** len(w) > BRUTE_FORCE_GUARD:
        raise TooLarge(f"{m}**{len(w)} exceeds enumeration guard")
    _check_capacity(len(w), m, ubar)
    if len(w) == 0:
        return 0, np.zeros(0, dtype=np.int64)
    obj, labels = bounded_min_max(w.tolist(), m, ubar)
    return obj, np.array(labels, dtype=np.int64)
