"""Golden runs: the exact results of fixed seeded runs.

Each solver case pins the objective and a sha256 of ``mate`` and
``part_of``; each generator case pins a sha256 of the weight table. A
change that claims to leave behaviour alone must keep every case
bit-identical; re-record a value only for a change meant to alter results,
and say which and why in CHANGES.md.
"""

import hashlib
import random

import numpy as np
import pytest

from pmmwm import FimpParams, HgaParams, InstanceSpec, baseline_ls, generate, solve
from pmmwm.errors import NoPerfectMatching
from pmmwm.hga import evolve
from pmmwm.instgen import benchmark_specs
from pmmwm.matching import batch_resolve, repair_after_ban, solve_full
from pmmwm.numpart import kk_multiway

from helpers import lists_digest


def _params(seed: int, **kw) -> FimpParams:
    return FimpParams(rng_seed=seed, hga=HgaParams(pop_size=8, max_generations=12,
                                                   stall_limit=5), **kw)


# (spec, FimpParams overrides, objective, sha256 of mate and part_of)
SOLVE_CASES = [
    (InstanceSpec(30, 30, 3, 12, 0.6, "INDEPENDENT", 1000, 11), dict(max_iterations=4),
     887,
     "6cf5ae0cafc2c862c97729f07a4425076c02eafd1acc28211fd18e38c33ec791"),
    (InstanceSpec(30, 36, 5, 7, 0.4, "CONSISTENT", 500, 12), dict(max_iterations=4),
     617,
     "e3de39964252820bfb31aa1bcc7267d3155fd9922201ebdc938dcaad3103646e"),
    # tight capacity (n1/m = 2): bans fire and lower the incumbent 401 -> 375
    (InstanceSpec(32, 32, 16, 2, 0.3, "CONSISTENT", 1000, 21), dict(max_iterations=20),
     375,
     "c2b93e61085820abf021e48b76e323df3149f5998688b343120cc99c4fa09399"),
    # sparse tight instance: some bans would leave no perfect matching and are rejected
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
    # sparse tight instance: some bans would leave no perfect matching and are rejected
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
    # ubar = 3 with spare room (48 items, 60 slots): 135 crossovers, 23 of
    # them on a parent pair already crossed in the same run, and 31 moving
    # mutations
    (45, 48, 1000, 20, 3, 1037,
     "4db3d5a63084fee026b2c923eebfde66e3c67359e8c8b5753ca5a24acfe38d54"),
]


# The instance generator's exact weight tables: both weight models, densities
# 0.05, 0.3 and 1.0, n2 > n1, w_max 1 and 1000, and one shipped cell.
GENERATOR_CASES = [
    (InstanceSpec(40, 40, 8, 5, 0.05, "INDEPENDENT", 1000, 1),
     "c2a8d133132564d1fd1098631caa83dcf2374d36fb13cd8588fc3fad90c84309"),
    (InstanceSpec(40, 40, 8, 5, 0.05, "CONSISTENT", 1000, 2),
     "3e68cbac371959abc622f7ae1a1879cf4746a3f1cc1104f2a2140103672af66a"),
    (InstanceSpec(30, 45, 6, 5, 0.3, "CONSISTENT", 1000, 3),
     "d357a95b4876e584e9edf14649649070bec7fb9cdd33b984aeab441a6f80ab7b"),
    (InstanceSpec(30, 30, 5, 6, 0.3, "INDEPENDENT", 1, 4),
     "ed07dc3944d333bcd9adea87fca87adeaa38084dfcb1da781654de9a86e8f954"),
    (InstanceSpec(25, 25, 5, 5, 1.0, "CONSISTENT", 1, 5),
     "d997814203ea9bd75f2b2c3428e672609be64259f02475f116f493de6556ef05"),
    (InstanceSpec(25, 30, 5, 5, 1.0, "INDEPENDENT", 1000, 6),
     "badb8ae8cc86110bd7209b9d3ab2db0365ad06782c0fd1aca38612be1c76d8db"),
    ([s for s in benchmark_specs("consistent-sparse") if (s.n1, s.m, s.seed) == (50, 10, 3)][0],
     "7d82bb4b0e14e198b16bde6f65294d850d741279613c9650cc181301f82e4430"),
]


@pytest.mark.parametrize("spec, digest", GENERATOR_CASES,
                         ids=["ind-d005", "cons-d005", "cons-wide", "ind-wmax1",
                              "cons-wmax1", "ind-dense-wide", "shipped"])
def test_generator_golden(spec, digest):
    assert hashlib.sha256(generate(spec).weight.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("spec, overrides, objective, digest", SOLVE_CASES,
                         ids=["indep", "cons", "tight", "veto"])
def test_solve_golden(spec, overrides, objective, digest):
    g = generate(spec)
    sol = solve(g, spec.m, spec.ubar, _params(spec.seed, **overrides)).solution
    assert (sol.objective, lists_digest(sol.mate, sol.partition.part_of)) == (objective, digest)


@pytest.mark.parametrize("spec, overrides, objective, digest", BASELINE_CASES,
                         ids=["cons", "tight", "veto"])
def test_baseline_golden(spec, overrides, objective, digest):
    g = generate(spec)
    sol = baseline_ls(g, spec.m, spec.ubar, _params(spec.seed, **overrides)).solution
    assert (sol.objective, lists_digest(sol.mate, sol.partition.part_of)) == (objective, digest)


def _evolve(weights, m, ubar, params):
    best = evolve(np.array(weights, dtype=np.int64), m, ubar, params).best
    return best.fitness[0], best.part.tolist()


EVOLVE_IDS = ["wide", "narrow", "groups", "tight", "repeats"]


@pytest.mark.parametrize("seed, n, w_max, m, ubar, objective, digest", EVOLVE_CASES,
                         ids=EVOLVE_IDS)
def test_evolve_golden(seed, n, w_max, m, ubar, objective, digest):
    rng = random.Random(seed)
    weights = [rng.randint(1, w_max) for _ in range(n)]
    params = HgaParams(pop_size=10, max_generations=30, stall_limit=8, rng_seed=seed)
    found, part_of = _evolve(weights, m, ubar, params)
    assert (found, lists_digest(part_of)) == (objective, digest)


# Each EVOLVE_CASES run's whole final population, then a second call carried
# from it onto the same weights with three of them redrawn, as the outer
# solver carries a population from one iteration to the next: sha256 of the
# best and of every population member's part and fitness, in order, for both
# calls.
EVOLVE_POPULATION_DIGESTS = [
    "49cd7f14f0c65045a4349c6cf9a0d57bb2195f9f8f1f468127c31dc54964496c",
    "58d95f1d976b76737786aae1735395c82d5fd42de89b2426cd78a07810d6d540",
    "63538209f8deb0ecf356b99c7aa0c032a8ea7c06767e199316cc2a99467dd74b",
    "27ee914dc319589855ae747208a26a62a4824b3b62e457fa770e00544ed2ca02",
    "28c40dee0dd40013e54b74a89c302a82d725ba4e760ca7e6fca0e7ab543977a6",
]


def _evolution_lists(evo) -> list[list[int]]:
    return [evo.best.part.tolist(), list(evo.best.fitness),
            *[values for ind in evo.population for values in (ind.part.tolist(), ind.fitness)]]


@pytest.mark.parametrize("case, digest", zip(EVOLVE_CASES, EVOLVE_POPULATION_DIGESTS),
                         ids=EVOLVE_IDS)
def test_evolve_population_golden(case, digest):
    seed, n, w_max, m, ubar = case[:5]
    rng = random.Random(seed)
    w = np.array([rng.randint(1, w_max) for _ in range(n)], dtype=np.int64)
    params = HgaParams(pop_size=10, max_generations=30, stall_limit=8, rng_seed=seed)
    first = evolve(w, m, ubar, params)
    changed = w.copy()
    for u in rng.sample(range(n), 3):
        changed[u] = rng.randint(1, w_max)
    carried = evolve(changed, m, ubar, params, population=first.population)
    assert lists_digest(*_evolution_lists(first), *_evolution_lists(carried)) == digest


# The veto case ends on its iteration-0 solution, so its final digest alone
# would miss a change on the ban path; this pins every iteration's objective,
# incumbent and active ban count as well. A rejected ban is not remembered:
# the active counts run 1,2,3,3,3,3,3,4,4,4,4,4, because an edge rejected
# while a tenure-4 ban is active is banned on the call that releases it.
VETO_TRACES = [
    (solve, "6c4f206024d7aceabcf57b1bbfbd5b461bd8857b2fee8ec07aa8ccc4dde73e73"),
    (baseline_ls, "6c4f206024d7aceabcf57b1bbfbd5b461bd8857b2fee8ec07aa8ccc4dde73e73"),
]


@pytest.mark.parametrize("run, digest", VETO_TRACES, ids=["solve", "baseline_ls"])
def test_veto_trace_golden(run, digest):
    spec, overrides = SOLVE_CASES[-1][:2]
    g = generate(spec)
    trace = run(g, spec.m, spec.ubar, _params(spec.seed, **overrides)).stats.trace
    assert lists_digest([r.objective for r in trace], [r.incumbent for r in trace],
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
    assert lists_digest(*parts) == KK_DIGEST


# The matcher's exact state on shipped seed-0 cells (group, n1, m): the four
# n1 = 200, m = 10 groups and the two n1 = 500 cells the ``baseline``
# workload solves. Each pins ``solve_full``'s mates, potentials and phase
# count, then the same after a seeded walk of 20 steps that ban a matched
# edge (unbanned again when no perfect matching is left) or restore one
# banned edge, each of which runs at most one phase. The warm start's
# auction prices, and ties in the Dijkstra steps and in the path recovery,
# decide the potentials, so any change to the auction's rules or the phase's
# arithmetic or tie rules moves these digests.
MATCHER_CASES = [
    ("consistent-dense", 200, 10,
     "4cf1ad8b50a0930c9ed1426893503305bf27023f0456e53952b0a01987ced09c"),
    ("consistent-sparse", 200, 10,
     "db902664ad91b90b6b740e38aaad26399286afb1a550c638fe7574f5e807a619"),
    ("independent-sparse", 200, 10,
     "58186ec7e5864188e801670f321455d6fac6faf77419955123b36aa095cb7dfb"),
    ("independent-dense", 200, 10,
     "75d65ea52e55794c089f10dd1502a58ee823854de92c2e4289367fb377e27b75"),
    ("consistent-dense", 500, 20,
     "462578580e47431212af9c3a0587bb739b30c2c77f6daf6cd7851a75263e86e9"),
    ("consistent-sparse", 500, 10,
     "79f66a8fbf2169abbd02cc291752acd6c72900bd54b9cf7f5439170d722ce1c4"),
]


def _matcher_state(st) -> list[list[int]]:
    return [st.mate_u.tolist(), st.mate_v.tolist(), st.alpha.tolist(), st.beta.tolist(),
            [st.phase_count]]


@pytest.mark.parametrize("group, n1, m, digest", MATCHER_CASES,
                         ids=[c[0] if c[1] == 200 else f"{c[0]}-n{c[1]}" for c in MATCHER_CASES])
def test_matcher_state_golden(group, n1, m, digest):
    spec, = [s for s in benchmark_specs(group) if (s.n1, s.m, s.seed) == (n1, m, 0)]
    g = generate(spec)
    st = solve_full(g)
    states = _matcher_state(st)
    rng = random.Random(200)
    banned = []
    for _ in range(20):
        if banned and rng.random() < 0.3:
            u, v = banned.pop(rng.randrange(len(banned)))
            g.unban_edge(u, v)
            st = batch_resolve(g, st, {(u, v)})
            continue
        u = rng.randrange(g.n1)
        v = int(st.mate_u[u])
        g.ban_edge(u, v)
        try:
            st = repair_after_ban(g, st, u, v)
            banned.append((u, v))
        except NoPerfectMatching:
            g.unban_edge(u, v)
    assert lists_digest(*states, *_matcher_state(st)) == digest
