import random

import pytest

from pmmwm.errors import InfeasibleInstance, ParseError
from pmmwm.graph import (
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

from helpers import (
    example_base_solution,
    example_rematched_solution,
    example_relocated_solution,
    make_example_graph,
)


def write(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadInstance:
    def test_small_complete_instance(self, tmp_path):
        path = write(tmp_path, "2 2 1 2\n0 0 1\n0 1 2\n1 0 2\n1 1 1\n")
        g = load_instance(path)
        assert (g.n1, g.n2, g.m, g.ubar) == (2, 2, 1, 2)
        assert g.weight.tolist() == [[1, 2], [2, 1]]
        assert not g.banned.any()

    def test_capacity_infeasible_header(self, tmp_path):
        path = write(tmp_path, "3 3 1 2\n0 0 1\n1 1 1\n2 2 1\n")
        with pytest.raises(InfeasibleInstance):
            load_instance(path)

    def test_example_graph_file_round_trip(self, tmp_path):
        g = make_example_graph()
        path = str(tmp_path / "example.txt")
        save_instance(g, path)
        g2 = load_instance(path)
        assert g2.n1 == 6 and g2.m == 3 and g2.ubar == 3
        assert (g2.weight == g.weight).all()

    def test_comments_and_blank_lines(self, tmp_path):
        path = write(tmp_path, "# a comment\n\n2 2 2 1\n0 0 1  # trailing\n0 1 2\n1 0 3\n1 1 4\n")
        g = load_instance(path)
        assert g.weight[1, 1] == 4

    def test_absent_edges(self, tmp_path):
        path = write(tmp_path, "2 3 1 2\n0 0 1\n1 1 1\n")
        g = load_instance(path)
        assert g.weight[0, 1] == ABSENT
        assert not g.has_edge(1, 2)
        assert g.edge_count() == 2

    def test_decimal_weights_scaled(self, tmp_path):
        path = write(tmp_path, "2 2 1 2\n0 0 0.5\n0 1 1.25\n1 0 2\n1 1 0.75\n")
        g = load_instance(path)
        assert g.weight_scale == 100
        assert g.weight.tolist() == [[50, 125], [200, 75]]
        assert g.display_value(125) == 1.25

    def test_too_many_fraction_digits(self, tmp_path):
        path = write(tmp_path, "1 1 1 1\n0 0 0.1234567\n")
        with pytest.raises(ParseError):
            load_instance(path)

    @pytest.mark.parametrize("body", [
        "2 2 1\n",                           # short header
        "2 1 1 2\n",                         # n2 < n1
        "2 2 1 2\n0 0 1\n0 0 2\n",           # duplicate edge
        "2 2 1 2\n0 5 1\n",                  # index out of range
        "2 2 1 2\n0 0 -3\n",                 # negative weight
        "2 2 1 2\n0 0 x\n",                  # junk weight
    ])
    def test_parse_errors(self, tmp_path, body):
        with pytest.raises(ParseError):
            load_instance(write(tmp_path, body))

    def test_no_perfect_matching_rejected(self, tmp_path):
        # both U-vertices can only reach v0
        path = write(tmp_path, "2 2 2 1\n0 0 1\n1 0 1\n")
        with pytest.raises(InfeasibleInstance):
            load_instance(path)

    def test_decimal_round_trip(self, tmp_path):
        path = write(tmp_path, "2 2 1 2\n0 0 0.5\n0 1 1.25\n1 0 2\n1 1 0.75\n")
        g = load_instance(path)
        out = str(tmp_path / "copy.txt")
        save_instance(g, out)
        g2 = load_instance(out)
        assert g2.weight_scale == g.weight_scale
        assert (g2.weight == g.weight).all()


class TestObjective:
    def test_example_partition_weights(self, example_graph):
        assert partition_weights(example_graph, example_base_solution()) == [4, 2, 5]
        assert partition_weights(example_graph, example_rematched_solution()) == [4, 4, 4]

    def test_relocated_partition_weights(self, example_graph):
        assert partition_weights(example_graph, example_relocated_solution()) == [4, 3, 4]

    def test_single_partition_sums_everything(self):
        g = BipartiteGraph.from_edges(3, 3, 1, 3,
                                      [(0, 0, 5), (1, 1, 7), (2, 2, 2)])
        sol = Solution(mate=[0, 1, 2], partition=PartitionAssignment(1, 3, [0, 0, 0]))
        assert partition_weights(g, sol) == [14]

    def test_objective_values(self, example_graph):
        assert evaluate_objective(example_graph, example_base_solution()) == 5
        assert evaluate_objective(example_graph, example_relocated_solution()) == 4
        assert evaluate_objective(example_graph, example_rematched_solution()) == 4

    def test_objective_written_into_solution(self, example_graph):
        sol = example_base_solution()
        evaluate_objective(example_graph, sol)
        assert sol.objective == 5

    def test_single_vertex(self):
        g = BipartiteGraph.from_edges(1, 1, 1, 1, [(0, 0, 9)])
        sol = Solution(mate=[0], partition=PartitionAssignment(1, 1, [0]))
        assert evaluate_objective(g, sol) == 9

    def test_weights_sum_to_total(self, example_graph):
        sol = example_base_solution()
        total = sum(int(example_graph.weight[u, sol.mate[u]]) for u in range(6))
        assert sum(partition_weights(example_graph, sol)) == total

    def test_lower_bounds(self, example_graph):
        sol = example_base_solution()
        obj = evaluate_objective(example_graph, sol)
        total = sum(partition_weights(example_graph, sol))
        assert obj * sol.partition.m >= total
        heaviest = max(int(example_graph.weight[u, sol.mate[u]]) for u in range(6))
        assert obj >= heaviest


class TestValidateSolution:
    def test_ok(self, example_graph):
        assert validate_solution(example_graph, example_base_solution()) is None

    def test_shared_v_vertex(self, example_graph):
        sol = example_base_solution()
        sol.mate[2] = 1
        sol.mate[4] = 1
        v = validate_solution(example_graph, sol)
        assert v is not None and v.constraint == 2 and v.subject == 1

    def test_capacity_violation(self, example_graph):
        sol = example_base_solution()
        sol.partition.part_of = [0, 0, 0, 0, 1, 2]
        v = validate_solution(example_graph, sol)
        assert v is not None and v.constraint == 4 and v.subject == 0

    def test_unavailable_edge(self, example_graph):
        sol = example_base_solution()
        example_graph.ban_edge(0, 0)
        v = validate_solution(example_graph, sol)
        assert v is not None and v.constraint == 1 and v.subject == 0

    def test_partition_out_of_range(self, example_graph):
        sol = example_base_solution()
        sol.partition.part_of[3] = 7
        v = validate_solution(example_graph, sol)
        assert v is not None and v.constraint == 3 and v.subject == 3

    def test_fuzzed_mutations_all_flagged(self, example_graph):
        rng = random.Random(7)
        base = example_base_solution()
        for _ in range(300):
            sol = Solution(mate=list(base.mate), partition=base.partition.copy())
            kind = rng.randrange(3)
            if kind == 0:
                # remap a vertex to a non-available column
                u = rng.randrange(6)
                bad = [v for v in range(6) if not example_graph.is_available(u, v)]
                sol.mate[u] = rng.choice(bad)
            elif kind == 1:
                # duplicate another vertex's mate
                u, w = rng.sample(range(6), 2)
                sol.mate[u] = sol.mate[w]
            else:
                # overload one partition
                k = rng.randrange(3)
                sol.partition.part_of = [k] * 6
            assert validate_solution(example_graph, sol) is not None


class TestBanFlags:
    def test_ban_and_unban(self, example_graph):
        example_graph.ban_edge(2, 5)
        assert not example_graph.is_available(2, 5)
        assert example_graph.has_edge(2, 5)
        example_graph.unban_edge(2, 5)
        assert example_graph.is_available(2, 5)

    def test_cannot_ban_absent_edge(self, example_graph):
        with pytest.raises(ValueError):
            example_graph.ban_edge(0, 1)

    def test_copy_is_independent(self, example_graph):
        g2 = example_graph.copy()
        g2.ban_edge(0, 0)
        assert not example_graph.banned[0, 0]


def test_weight_guard():
    with pytest.raises(ParseError):
        BipartiteGraph.from_edges(1, 1, 1, 1, [(0, 0, 1 << 60)])
