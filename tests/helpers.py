"""Plain helpers shared by the test modules: the hand-built example
instance and seeded random graphs."""

import random

from pmmwm.graph import BipartiteGraph, PartitionAssignment, Solution

# Hand-built 6x6 instance with three partitions of capacity 3. Starting from
# the reference configuration (objective 5) the optimum of 4 is reachable two
# independent ways: relocating vertex 5 to partition 1, or swapping the mates
# of vertices 2 and 4. Several tests and the acceptance suite key off the
# frozen values 5 -> 4.
EXAMPLE_EDGES = [
    (0, 0, 2),
    (1, 2, 2),
    (2, 1, 3),
    (2, 5, 1),
    (3, 3, 1),
    (4, 1, 4),
    (4, 5, 3),
    (5, 4, 1),
]


def make_example_graph() -> BipartiteGraph:
    return BipartiteGraph.from_edges(6, 6, 3, 3, EXAMPLE_EDGES)


def example_base_solution() -> Solution:
    return Solution(mate=[0, 2, 5, 3, 1, 4],
                    partition=PartitionAssignment(3, 3, [0, 0, 1, 1, 2, 2]))


def example_relocated_solution() -> Solution:
    return Solution(mate=[0, 2, 5, 3, 1, 4],
                    partition=PartitionAssignment(3, 3, [0, 0, 1, 1, 2, 1]))


def example_rematched_solution() -> Solution:
    return Solution(mate=[0, 2, 1, 3, 5, 4],
                    partition=PartitionAssignment(3, 3, [0, 0, 1, 1, 2, 2]))


def random_complete_graph(n1: int, n2: int, m: int, ubar: int, rng: random.Random,
                          w_max: int = 100) -> BipartiteGraph:
    edges = [(u, v, rng.randint(1, w_max))
             for u in range(n1) for v in range(n2)]
    return BipartiteGraph.from_edges(n1, n2, m, ubar, edges)


def random_dense_graph(n1: int, n2: int, m: int, ubar: int, rng: random.Random,
                       density: float = 0.85, w_max: int = 100) -> BipartiteGraph:
    """Random graph with a planted perfect matching so it is always feasible."""
    planted = rng.sample(range(n2), n1)
    edges = []
    for u in range(n1):
        for v in range(n2):
            if v == planted[u] or rng.random() < density:
                edges.append((u, v, rng.randint(1, w_max)))
    return BipartiteGraph.from_edges(n1, n2, m, ubar, edges)
