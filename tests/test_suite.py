import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import skewprod
from skewprod import crossed, duality, graphalg, groupoids, suite
from skewprod.graphs import GraphError


def test_random_acyclic_graph_is_acyclic(rng):
    for _ in range(10):
        E = suite.random_acyclic_graph(rng)
        assert E.find_cycle() is None
        assert E.n_vertices <= 8 and E.n_edges <= 12


def test_random_graph_instance_respects_budgets(rng):
    from skewprod.graphalg import ck_representation

    for _ in range(5):
        E, G, lab = suite.random_graph_instance(rng, max_dim=128, dim_budget=200)
        fam = ck_representation(E)
        assert fam.ambient_dim * G.order**2 <= 128
        assert fam.dim * G.order**2 <= 200


def test_run_graph_case_builds_each_construction_once(monkeypatch):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, original in (("coaction", graphalg.coaction),
                           ("ck_action_from_graph_action", crossed.ck_action_from_graph_action)):
        for module in (crossed, duality, graphalg, suite):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted(name, original))
    monkeypatch.setattr(crossed.ActionCrossedProduct, "__init__", counted(
        "ActionCrossedProduct", crossed.ActionCrossedProduct.__init__))
    assert suite.run_graph_case(0).passed
    assert calls == {"coaction": 1, "ck_action_from_graph_action": 1,
                     "ActionCrossedProduct": 1}


# Seed 0 draws a cocycle with N = c^-1(e) smaller than Q, seed 3 a trivial one (N = Q).
@pytest.mark.parametrize("seed,algebras", [(0, 4), (3, 3)])
def test_run_groupoid_case_builds_each_construction_once(monkeypatch, seed, algebras):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    original = groupoids.algebra_action_from_groupoid_action
    for module in (crossed, groupoids, suite):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted("beta", original))
    for name, cls in (("ActionCrossedProduct", crossed.ActionCrossedProduct),
                      ("GroupoidAlgebra", groupoids.GroupoidAlgebra)):
        monkeypatch.setattr(cls, "__init__", counted(name, cls.__init__))
    assert suite.run_groupoid_case(seed).passed
    # One convolution algebra per distinct groupoid: Q, N, Q x_c G and its semidirect product.
    assert calls == {"beta": 1, "ActionCrossedProduct": 1, "GroupoidAlgebra": algebras}


def test_random_groupoid_within_caps(rng):
    for _ in range(8):
        Q = suite.random_groupoid(rng)
        assert Q.n_units <= 6 and Q.n_arrows <= 24


def test_random_cocycle_is_valid(rng):
    # Cocycle construction validates itself; exercise mixed isotropy.
    for _ in range(8):
        Q = suite.random_groupoid(rng)
        G = suite.cyclic_group(3)
        c = suite.random_cocycle(rng, Q, G)
        assert isinstance(c, groupoids.Cocycle)


def test_group_homomorphism_search():
    z2, z3 = suite.cyclic_group(2), suite.cyclic_group(3)
    homs = suite._group_homomorphisms(z2, z3)
    assert len(homs) == 1  # only the trivial one
    homs = suite._group_homomorphisms(z3, z3)
    assert len(homs) == 3


def test_suite_run_deterministic_and_ordered():
    r1 = suite.suite_run(seed=5, cases=3)
    r2 = suite.suite_run(seed=5, cases=3)
    assert [c.index for c in r1.cases] == [0, 1, 2]
    s1 = [(c.kind, c.seed, c.passed, repr(sorted(c.summary))) for c in r1.cases]
    s2 = [(c.kind, c.seed, c.passed, repr(sorted(c.summary))) for c in r2.cases]
    assert s1 == s2
    assert r1.passed


def _floats(node, key=None):
    """(key, value) for every float in a nested report, bools and ints excluded."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _floats(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _floats(v, key)
    elif isinstance(node, float):
        yield key, node


@pytest.mark.parametrize("seed", range(6))
def test_graph_and_free_action_errors_are_exactly_zero(seed):
    # The graph half certifies 0/1 partial isometries, so every error is
    # exact: chase, Cuntz-Krieger, composition, equivariance and star-map.
    floats = []
    for case in (suite.run_graph_case(seed), suite.run_free_action_case(seed)):
        floats += [(k, v) for k, v in _floats(case.as_dict()["summary"]) if k != "tolerance"]
    assert all(v == 0.0 for _, v in floats), floats
    assert {k for k, _ in floats} >= {"chase_error", "ck_error", "composition_error",
                                      "equivariance_error", "max_error"}


def test_the_least_graph_dimension_is_drawn():
    rng = np.random.default_rng(3)
    E, G, _ = suite.random_graph_instance(rng, max_dim=suite.min_graph_dim())
    assert (E.n_vertices, E.n_edges, G.order) == (suite.MIN_VERTICES, suite.MIN_EDGES, 2)
    with pytest.raises(GraphError, match="below 8"):
        suite.random_graph_instance(rng, max_dim=suite.min_graph_dim() - 1)


def test_cases_leave_scipy_csgraph_unimported():
    # Importing scipy.sparse.csgraph adds about 9 MB of resident memory; the
    # Wedderburn signatures find their blocks by numpy label propagation.
    src = os.path.dirname(os.path.dirname(skewprod.__file__))
    code = ("import sys\n"
            "from skewprod import suite\n"
            "assert suite.run_graph_case(1).passed and suite.run_groupoid_case(1).passed\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.csgraph')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
