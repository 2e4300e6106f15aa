"""Golden runs: the exact results of fixed seeded runs.

Each case pins the objective and a sha256 of ``mate`` and ``part_of``. A
change that claims to leave behaviour alone must keep every case
bit-identical; re-record a value only for a change meant to alter results,
and say which and why in CHANGES.md.
"""

import collections
import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest

from pmmwm import FimpParams, HgaParams, InstanceSpec, baseline_ls, generate, solve
from pmmwm.hga import Individual, evolve
from pmmwm.numpart import kk_multiway


def _digest(*lists) -> str:
    payload = json.dumps([[int(x) for x in values] for values in lists])
    return hashlib.sha256(payload.encode()).hexdigest()


def _params(seed: int, **kw) -> FimpParams:
    return FimpParams(rng_seed=seed, hga=HgaParams(pop_size=8, max_generations=12,
                                                   stall_limit=5), **kw)


# (spec, FimpParams overrides, objective, sha256 of mate and part_of)
SOLVE_CASES = [
    (InstanceSpec(30, 30, 3, 12, 0.6, "INDEPENDENT", 1000, 11), dict(max_iterations=4),
     887,
     "2683385cc79465becfbc3e4ee38fc4d6569a6f6b4dfd014b12b93266cec9acd7"),
    (InstanceSpec(30, 36, 5, 7, 0.4, "CONSISTENT", 500, 12), dict(max_iterations=4),
     617,
     "27c14416c32e8d02812b056f395ef39bdf2995865ce6b0dc3d14bc13d6c38266"),
    # tight capacity (n1/m = 2): bans fire and lower the incumbent 401 -> 375
    (InstanceSpec(32, 32, 16, 2, 0.3, "CONSISTENT", 1000, 21), dict(max_iterations=20),
     375,
     "65d278d6e04681bab4acfd31767b691f9cfb00a41a9833a33e544ac0fe950a52"),
    # sparse tight instance: some bans would leave no perfect matching and are vetoed
    (InstanceSpec(24, 24, 12, 2, 0.15, "CONSISTENT", 1000, 30),
     dict(max_iterations=12, tenure=4), 605,
     "bf8c26520e2605acc788a6991e676bea020899379068dbe369524b984bb8cf7c"),
]

BASELINE_CASES = [
    (InstanceSpec(30, 30, 5, 7, 0.5, "CONSISTENT", 1000, 14), dict(max_iterations=6),
     1332,
     "30358103063c95a5882495b9123c284169708a8a2e95c7d8726958331f03af67"),
    (InstanceSpec(24, 24, 12, 2, 0.3, "CONSISTENT", 1000, 15),
     dict(max_iterations=10, tenure=4), 439,
     "d680ee0c28a776d2e8a6cb99fc71f511c1e9db1b5710bc2cb54a1a1385173c65"),
    # sparse tight instance: some bans would leave no perfect matching and are vetoed
    (InstanceSpec(24, 24, 12, 2, 0.15, "CONSISTENT", 1000, 30),
     dict(max_iterations=12, tenure=4), 605,
     "bf8c26520e2605acc788a6991e676bea020899379068dbe369524b984bb8cf7c"),
]

# (weight seed, n, weight range, m, ubar, objective, sha256 of part_of)
EVOLVE_CASES = [
    (40, 40, 1000, 4, 12, 5038,
     "00c27b6bb822df2d79b8cca683650378b5f9b342c50c1739e10f73cb5534587e"),
    (41, 24, 20, 6, 4, 41,
     "b7411659bc38f4df70386bff25dad93bcf7cd6acf489f2ae51a658d39311a092"),
    # the benchmark's shapes: groups (n1=200, m=10) and tight (2 items per part)
    (42, 200, 1000, 10, 24, 9566,
     "5a38a1c0ae6d3b1c36df2e668e0517f4b752c2f849c7d9e23bcc1e96ee45d837"),
    (43, 48, 1000, 24, 2, 1092,
     "3c883c37d2853a2a6bdb8d2c1106f4df9666d7d014dc8d14f457c1e7ddcae13f"),
]


@pytest.mark.parametrize("spec, overrides, objective, digest", SOLVE_CASES,
                         ids=["indep", "cons", "tight", "veto"])
def test_solve_golden(spec, overrides, objective, digest):
    g = generate(spec)
    sol = solve(g, spec.m, spec.ubar, _params(spec.seed, **overrides)).solution
    assert (sol.objective, _digest(sol.mate, sol.partition.part_of)) == (objective, digest)


@pytest.mark.parametrize("spec, overrides, objective, digest", BASELINE_CASES,
                         ids=["cons", "tight", "veto"])
def test_baseline_golden(spec, overrides, objective, digest):
    g = generate(spec)
    sol = baseline_ls(g, spec.m, spec.ubar, _params(spec.seed, **overrides)).solution
    assert (sol.objective, _digest(sol.mate, sol.partition.part_of)) == (objective, digest)


# evolve has taken the weights both as a list of (u, w) items and as one
# int64 vector indexed by U-vertex; the cases run unchanged against either.
_Item = collections.namedtuple("_Item", "u w")


def _evolve(weights, m, ubar, params):
    if "part" in {f.name for f in dataclasses.fields(Individual)}:
        best = evolve(np.array(weights, dtype=np.int64), m, ubar, params)
        return best.fitness[0], best.part.tolist()
    best = evolve([_Item(u, w) for u, w in enumerate(weights)], m, ubar, params)
    return best.fitness[0], best.assignment.part_of


@pytest.mark.parametrize("seed, n, w_max, m, ubar, objective, digest", EVOLVE_CASES,
                         ids=["wide", "narrow", "groups", "tight"])
def test_evolve_golden(seed, n, w_max, m, ubar, objective, digest):
    rng = random.Random(seed)
    weights = [rng.randint(1, w_max) for _ in range(n)]
    params = HgaParams(pop_size=10, max_generations=30, stall_limit=8, rng_seed=seed)
    found, part_of = _evolve(weights, m, ubar, params)
    assert (found, _digest(part_of)) == (objective, digest)


# The veto case ends on its iteration-0 solution, so its final digest alone
# would miss a change on the ban path; this pins every iteration's objective,
# incumbent and active ban count as well.
VETO_TRACES = [
    (solve, "212c1b40a6dc363fc2c393e9a1e968cd3d2cefcd002154b3d2fbdfb8801f0059"),
    (baseline_ls, "212c1b40a6dc363fc2c393e9a1e968cd3d2cefcd002154b3d2fbdfb8801f0059"),
]


@pytest.mark.parametrize("run, digest", VETO_TRACES, ids=["solve", "baseline_ls"])
def test_veto_trace_golden(run, digest):
    spec, overrides = SOLVE_CASES[-1][:2]
    g = generate(spec)
    trace = run(g, spec.m, spec.ubar, _params(spec.seed, **overrides)).stats.trace
    assert _digest([r.objective for r in trace], [r.incumbent for r in trace],
                   [r.bans_active for r in trace]) == digest


# Multi-way Karmarkar-Karp seeds the HGA's population; this pins its exact
# output over 300 seeded vectors: n in 0..60, m in 1..12, ubar from the
# tightest feasible value up to two above it, and weights that tie often
# (1..3), spread (1..1000), sit near 2**52, or are light with a heavy one in
# three, which leaves many partitions overfull for the capacity repair.
KK_DIGEST = "db6573933fb8b7d7dd74b41f322c8cff050ee9429125ed822fab4647124223cc"
KK_WEIGHTS = [
    lambda rng: rng.randint(1, 3),
    lambda rng: rng.randint(1, 1000),
    lambda rng: rng.randint(2**52 - 1000, 2**52),
    lambda rng: rng.randint(1, 10**6) if rng.random() < 1 / 3 else rng.randint(1, 10),
]


def test_kk_multiway_golden():
    rng = random.Random(1982)
    parts = []
    for i in range(300):
        n, m = rng.randint(0, 60), rng.randint(1, 12)
        ubar = max(1, -(-n // m)) + rng.randint(0, 2)
        weight = KK_WEIGHTS[i % len(KK_WEIGHTS)]
        w = np.array([weight(rng) for _ in range(n)], dtype=np.int64)
        parts.append(kk_multiway(w, m, ubar))
    assert _digest(*parts) == KK_DIGEST
