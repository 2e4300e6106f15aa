"""Certified lower bound on the optimal objective of an instance.

Every feasible solution's heaviest partition weighs at least

    ceil(W* / m)   W* = weight of a minimum-weight perfect matching on U,
                   since the m partition weights sum to the matching weight;
    B*             the bottleneck value: the smallest t such that the edges
                   of weight <= t still hold a perfect matching on U, since
                   some partition contains the matching's heaviest edge.

So LB = max(ceil(W*/m), B*) <= optimum, and an objective equal to LB is
provably optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pmmwm import BipartiteGraph, solve_full


@dataclass(frozen=True)
class LowerBound:
    lb: int
    w_star: int
    b_star: int


def bottleneck_value(g: BipartiteGraph) -> int:
    """B*, by binary search over the distinct available weights; each probe
    runs the Kuhn check on a copy with every heavier edge banned."""
    weights = np.unique(g.weight[g.available_mask()])
    lo, hi = 0, len(weights) - 1  # weights[hi] bans nothing: feasible
    while lo < hi:
        mid = (lo + hi) // 2
        probe = g.copy()
        probe.banned |= probe.weight > weights[mid]
        if probe.has_perfect_matching():
            hi = mid
        else:
            lo = mid + 1
    return int(weights[lo])


def lower_bound(g: BipartiteGraph, m: int) -> LowerBound:
    w_star = solve_full(g).total_weight
    b_star = bottleneck_value(g)
    return LowerBound(max(-(-w_star // m), b_star), w_star, b_star)
