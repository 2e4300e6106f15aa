"""Solver toolkit for the Partitioning Min-Max Weighted Matching problem.

Jointly chooses a perfect matching on U and a capacity-bounded partition of U
minimizing the heaviest partition's matched weight. The main entry points:

    load_instance / save_instance   instance file I/O
    solve                           the iterative match-partition solver
    baseline_ls                     the simpler comparison solver
    exact_oracle                    proven optimum for tiny instances
    generate / generate_benchmark   seeded instance generation
"""

from .errors import (
    InfeasibleInstance,
    InvalidSolution,
    NoPerfectMatching,
    ParseError,
    PmmwmError,
    SpecInvalid,
    TooLarge,
)
from .graph import (
    ABSENT,
    BipartiteGraph,
    PartitionAssignment,
    Solution,
    evaluate_objective,
    load_instance,
    partition_weights,
    save_instance,
    validate_solution,
)
from .harness import RunReport, baseline_ls, bench, compare_reports, exact_oracle
from .hga import HgaParams, Individual, evolve, gpx_crossover, mls_improve, mutate
from .instgen import InstanceSpec, generate, generate_benchmark
from .matching import MatchState, batch_resolve, repair_after_ban, solve_full
from .numpart import greedy_lpt, kk_multiway, min_max_brute
from .orchestrator import BanList, FimpParams, RunResult, modify_graph, solve

__version__ = "0.1.0"
