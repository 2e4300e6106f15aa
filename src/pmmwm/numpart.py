"""Constructive partitioning of a fixed weight vector into m capacity-bounded
sets minimizing the maximum sum.

Weights come as one int64 vector ``w`` indexed by U-vertex, and every
partition is returned as one int64 array ``part`` with ``part[u]`` the
partition of vertex u. ``part_sums`` is the package's one partition-sum
routine, exact in int64, for the genetic algorithm and the solution alike.
Two constructors are provided: longest-processing-time greedy (LPT) and
multi-way largest-differencing (Karmarkar-Karp), plus an exhaustive solver
used as the test oracle. Both constructors are deterministic: items of equal
weight are ordered by U-index and all ties break toward the lowest partition
index. They seed the genetic algorithm's initial population; neither is an
exact solver.
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


def part_sums(part, w, m: int) -> np.ndarray:
    """The m partition sums of ``part``, as int64. Exact: ``np.bincount``
    with weights would sum in float64 and round past 2**53."""
    sums = np.zeros(m, dtype=np.int64)
    np.add.at(sums, part, w)
    return sums


def _lightest_open(sums: list[int], sizes: list[int], ubar: int) -> int:
    """The placement rule of every constructor: the index of the lightest of
    the ``len(sums)`` partitions with fewer than ``ubar`` items (ties: lowest
    index), or -1 when all are full."""
    best = -1
    for k in range(len(sums)):
        if sizes[k] < ubar and (best == -1 or sums[k] < sums[best]):
            best = k
    return best


def greedy_in_order(w: np.ndarray, m: int, ubar: int) -> np.ndarray:
    """Assign items in index order, each to the lightest partition with spare
    capacity (ties: lowest index). To place items in another order, pass
    ``w[order]`` and scatter the result back with ``part[order] = ...``."""
    _check_capacity(len(w), m, ubar)
    part = []
    sums = [0] * m
    sizes = [0] * m
    for wi in w.tolist():
        best = _lightest_open(sums, sizes, ubar)
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

    # A partial split is (-spread, age, sums, subsets) with sums sorted
    # descending (a lone nonnegative weight already is); (-spread, age) is
    # unique, so the lists are never compared. Built in key order, the list
    # is already a heap. (For m = 1 a lone item's key is not its spread 0,
    # but every merge order gives the same all-zero part.)
    heap = [(-ws[u], age, [ws[u]] + [0] * (m - 1), [[u]] + [[] for _ in range(m - 1)])
            for age, u in enumerate(sorted(range(n), key=lambda u: (-ws[u], u)))]
    for age in range(n, 2 * n - 1):
        _, _, sa, ta = heapq.heappop(heap)
        _, _, sb, tb = heapq.heappop(heap)
        # sa[i] joins sb[m-1-i]
        sums = [x + y for x, y in zip(sa, reversed(sb))]
        subsets = [x + y for x, y in zip(ta, reversed(tb))]
        order = sorted(range(m), key=sums.__getitem__, reverse=True)  # stable
        sums = [sums[i] for i in order]
        heapq.heappush(heap, (sums[-1] - sums[0], age, sums, [subsets[i] for i in order]))

    _, _, sums, subsets = heap[0]
    sizes = [len(sub) for sub in subsets]
    # Drain overfull partitions in index order; a partition with room never
    # fills past ubar, so none becomes overfull on the way.
    for k, sub in enumerate(subsets):
        part[sub] = k
        if len(sub) > ubar:
            for u in sorted(sub, key=lambda u: (ws[u], u))[:len(sub) - ubar]:
                target = _lightest_open(sums, sizes, ubar)
                part[u] = target
                sums[k] -= ws[u]
                sums[target] += ws[u]
                sizes[k] -= 1
                sizes[target] += 1
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
