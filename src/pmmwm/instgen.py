"""Seeded instance generation, classified by weight consistency and density.

Feasibility is guaranteed by construction: a uniformly random perfect
matching on U is planted first, then every other (u, v) pair is added
independently with probability ``density``. Weights follow one of two models:

    INDEPENDENT  w(u, v) ~ uniform integer in [1, w_max]
    CONSISTENT   w(u, v) = round(a_u * b_v * (1 + eps)) clamped to [1, w_max]
                 with a_u, b_v ~ uniform [1, sqrt(w_max)] and
                 eps ~ uniform [-0.1, 0.1]

CONSISTENT instances have near-rank-1 weight structure (rows strongly
correlated), the regime where cheap vertices are cheap for everyone.

Generation is deterministic per seed; the RNG draw order is: planted
matching, presence coins (row-major over non-planted pairs), then weights
(the a/b factors, then per-edge draws row-major).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SpecInvalid
from .graph import ABSENT, MAX_CELLS, MAX_TOTAL_WEIGHT, MAX_WEIGHT, BipartiteGraph, save_instance
from .harness import write_csv

WEIGHT_MODELS = ("CONSISTENT", "INDEPENDENT")

BENCHMARK_GROUPS = {
    "consistent-dense": ("CONSISTENT", 1.0),
    "consistent-sparse": ("CONSISTENT", 0.1),
    "independent-dense": ("INDEPENDENT", 1.0),
    "independent-sparse": ("INDEPENDENT", 0.1),
}

BENCHMARK_N1 = (50, 100, 200, 500)
BENCHMARK_M = (5, 10, 20)
BENCHMARK_SEEDS = 5
BENCHMARK_W_MAX = 1000

MANIFEST_COLUMNS = ["file", "n1", "n2", "m", "ubar", "density", "model",
                    "w_max", "seed"]


@dataclass(frozen=True)
class InstanceSpec:
    n1: int
    n2: int
    m: int
    ubar: int
    density: float
    weight_model: str
    w_max: int
    seed: int

    def validate(self) -> None:
        if not (1 <= self.n1 <= self.n2):
            raise SpecInvalid(f"need 1 <= n1 <= n2, got n1={self.n1} n2={self.n2}")
        if self.m < 1 or self.ubar < 1 or self.m * self.ubar < self.n1:
            raise SpecInvalid(
                f"need m*ubar >= n1, got m={self.m} ubar={self.ubar} n1={self.n1}")
        if not (0.0 < self.density <= 1.0):
            raise SpecInvalid(f"density must be in (0, 1], got {self.density}")
        if self.weight_model not in WEIGHT_MODELS:
            raise SpecInvalid(f"unknown weight model {self.weight_model!r}")
        if self.w_max < 1:
            raise SpecInvalid(f"w_max must be >= 1, got {self.w_max}")
        if self.w_max > MAX_WEIGHT or self.n1 * self.w_max > MAX_TOTAL_WEIGHT:
            raise SpecInvalid(f"need w_max <= {MAX_WEIGHT} and n1*w_max <= {MAX_TOTAL_WEIGHT}, "
                              f"got w_max={self.w_max} n1={self.n1}")
        if self.n1 * self.n2 > MAX_CELLS:
            raise SpecInvalid(f"need n1*n2 <= {MAX_CELLS}, got n1={self.n1} n2={self.n2}")


def generate(spec: InstanceSpec) -> BipartiteGraph:
    """Generate a feasible instance, deterministic under ``spec.seed``."""
    spec.validate()
    rng = random.Random(spec.seed)
    n1, n2 = spec.n1, spec.n2

    planted = rng.sample(range(n2), n1)
    present = np.zeros((n1, n2), dtype=bool)
    for u in range(n1):
        pu = planted[u]
        present[u] = [v == pu or rng.random() < spec.density for v in range(n2)]

    if spec.weight_model == "INDEPENDENT":
        def draw(u: int, v: int) -> int:
            return rng.randint(1, spec.w_max)
    else:
        root = math.sqrt(spec.w_max)
        a = [rng.uniform(1.0, root) for _ in range(n1)]
        b = [rng.uniform(1.0, root) for _ in range(n2)]

        def draw(u: int, v: int) -> int:
            w = round(a[u] * b[v] * (1.0 + rng.uniform(-0.1, 0.1)))
            return min(max(w, 1), spec.w_max)

    weight = np.full((n1, n2), ABSENT, dtype=np.int64)
    for u in range(n1):
        row = weight[u]
        for v in np.flatnonzero(present[u]).tolist():
            row[v] = draw(u, v)

    return BipartiteGraph(n1, n2, spec.m, spec.ubar, weight)


def instance_filename(spec: InstanceSpec) -> str:
    model = "cons" if spec.weight_model == "CONSISTENT" else "ind"
    dens = f"d{int(round(spec.density * 100)):03d}"
    return (f"{model}_{dens}_n{spec.n1:04d}_m{spec.m:02d}"
            f"_s{spec.seed:03d}.txt")


def write_instance(spec: InstanceSpec, path: str) -> None:
    g = generate(spec)
    comments = [
        f"model={spec.weight_model} density={spec.density} "
        f"w_max={spec.w_max} seed={spec.seed}",
    ]
    save_instance(g, path, header_comments=comments)


def benchmark_specs(group: str) -> list[InstanceSpec]:
    if group not in BENCHMARK_GROUPS:
        raise SpecInvalid(
            f"unknown group {group!r}; choose from {sorted(BENCHMARK_GROUPS)}")
    model, density = BENCHMARK_GROUPS[group]
    specs = []
    for n1 in BENCHMARK_N1:
        for m in BENCHMARK_M:
            ubar = math.ceil(1.2 * n1 / m)
            for seed in range(BENCHMARK_SEEDS):
                specs.append(InstanceSpec(n1, n1, m, ubar, density, model,
                                          BENCHMARK_W_MAX, seed))
    return specs


def generate_benchmark(group: str, out_dir: str) -> list[str]:
    """Write one benchmark group (60 instances) plus a manifest CSV.

    Returns the written instance paths. The sweep is n1 in {50,100,200,500},
    m in {5,10,20}, ubar = ceil(1.2*n1/m), n2 = n1, five seeds per cell.
    """
    specs = benchmark_specs(group)
    os.makedirs(out_dir, exist_ok=True)
    paths, rows = [], []
    for spec in specs:
        name = instance_filename(spec)
        paths.append(os.path.join(out_dir, name))
        write_instance(spec, paths[-1])
        rows.append(dict(asdict(spec), file=name, model=spec.weight_model))
    write_csv(os.path.join(out_dir, "manifest.csv"), MANIFEST_COLUMNS, rows)
    return paths
