import pytest

from pmmwm.graph import BipartiteGraph

from helpers import make_example_graph


@pytest.fixture
def example_graph() -> BipartiteGraph:
    return make_example_graph()
