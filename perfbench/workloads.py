"""The benchmark's workloads: which instances each one generates and how it
solves them (BENCHMARK.json records why each was chosen).

Every workload builds its instances from the workload seed through the
public ``InstanceSpec``/``generate`` API, writes them to instance files and
hands the solver only what ``load_instance`` reads back. Iteration budgets
are fixed, so a run's objectives are a pure function of the seed.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable

from pmmwm.instgen import BENCHMARK_GROUPS, InstanceSpec, benchmark_specs, write_instance

# Spec seeds of workload seed s are s * SEED_STRIDE + (index in the workload).
SEED_STRIDE = 1000


def _shipped(cells: list[tuple[str, int, int]]) -> list[InstanceSpec]:
    """Shipped benchmark specs for (group, n1, m) cells, exactly as
    ``benchmark_specs`` builds them (ubar = ceil(1.2 * n1 / m))."""
    return [s for group, n1, m in cells for s in benchmark_specs(group)
            if s.n1 == n1 and s.m == m and s.seed == 0]


def _groups_specs() -> list[InstanceSpec]:
    # The paper's family: all four shipped groups at n1=200, m=10.
    return _shipped([(group, 200, 10) for group in sorted(BENCHMARK_GROUPS)])


def _tight_specs() -> list[InstanceSpec]:
    # Tight capacity: 2 items per partition, ubar at or one above that. On the
    # consistent model banning lowers the incumbent within a few iterations;
    # at density 0.05 some bans are vetoed; the independent model rarely moves.
    n1 = 48
    return [InstanceSpec(n1, n1, n1 // 2, ubar, density, model, 1000, 0)
            for model, density, ubar in (("CONSISTENT", 0.3, 2), ("CONSISTENT", 0.3, 3),
                                         ("CONSISTENT", 0.05, 2), ("INDEPENDENT", 0.3, 2))]


def _baseline_specs() -> list[InstanceSpec]:
    # One dense and one sparse consistent n1=500 instance.
    return _shipped([("consistent-dense", 500, 20), ("consistent-sparse", 500, 10)])


@dataclass(frozen=True)
class Family:
    """Instances of one kind, all solved with the same iteration budget."""

    name: str
    max_iterations: int
    specs: Callable[[], list[InstanceSpec]]


@dataclass(frozen=True)
class Instance:
    id: str
    family: Family
    spec: InstanceSpec


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str             # "fimp-hga" (pmmwm.solve) or "baseline" (pmmwm.baseline_ls)
    families: tuple[Family, ...]

    def instances(self, seed: int) -> list[Instance]:
        """The instances of one workload seed, in a fixed order."""
        if seed < 0:
            raise ValueError(f"workload seed must be >= 0, got {seed}")
        out = []
        for family in self.families:
            for s in family.specs():
                spec = dataclasses.replace(s, seed=seed * SEED_STRIDE + len(out))
                out.append(Instance(instance_id(spec), family, spec))
        return out


GROUPS = Family("groups", max_iterations=2, specs=_groups_specs)
TIGHT = Family("tight", max_iterations=6, specs=_tight_specs)
BASELINE = Family("baseline", max_iterations=10, specs=_baseline_specs)

WORKLOADS = {w.name: w for w in (
    Workload("fimp", "fimp-hga", families=(GROUPS, TIGHT)),
    Workload("baseline", "baseline", families=(BASELINE,)),
)}


def instance_id(spec: InstanceSpec) -> str:
    model = "cons" if spec.weight_model == "CONSISTENT" else "ind"
    return (f"{model}-d{round(spec.density * 100):03d}-n{spec.n1}-m{spec.m}"
            f"-u{spec.ubar}-s{spec.seed}")


def write_instances(instances: list[Instance], out_dir: str) -> list[str]:
    """Generate the instances into ``out_dir``; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for inst in instances:
        path = os.path.join(out_dir, inst.id + ".txt")
        write_instance(inst.spec, path)
        paths.append(path)
    return paths
