import numpy as np
import pytest

from skewprod import graphs, groups


@pytest.fixture
def z2():
    return groups.cyclic_group(2)


@pytest.fixture
def z3():
    return groups.cyclic_group(3)


@pytest.fixture
def e1():
    return graphs.DirectedGraph(["v", "w"], [("f", "v", "w")])


@pytest.fixture
def chain2():
    return graphs.DirectedGraph(
        ["u", "v", "w"], [("e1", "u", "v"), ("e2", "v", "w")]
    )


@pytest.fixture
def e1_z2_labeling(e1, z2):
    return groups.make_labeling(e1, {"f": "g"}, z2)


@pytest.fixture
def two_chunk_instance():
    """5 paths into w, so 20 skew paths over Z4: more than one CHUNK of words."""
    graph = graphs.DirectedGraph(
        ["u", "v", "w"],
        [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "v", "w"), ("e4", "u", "w")],
    )
    G = groups.cyclic_group(4)
    lab = groups.make_labeling(graph, {"e1": "g", "e2": "g^2", "e3": "g^3", "e4": "e"}, G)
    return graph, G, lab


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
