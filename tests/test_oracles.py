"""The batched Cuntz-Krieger and coaction checks, Theta's generator rows and
the path words against their loop oracles (``oracles.py``): equal results on
random, gauge-scaled and groupoid inputs, and a planted defect per
Cuntz-Krieger relation that both versions see."""
import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    ck_relations_loop,
    graded_coaction_loop,
    path_images_loop,
    theta_generator_images_loop,
)

from skewprod import duality, graphalg, groupoids, matalg, suite
from skewprod.crossed import verify_graded_coaction
from skewprod.graphalg import ck_representation, spectral_subspaces
from skewprod.graphs import DirectedGraph

PLANTED_MIN = 1e-12


def test_ck_check_equals_its_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        E = suite.random_acyclic_graph(rng, max_vertices=7, max_edges=8)
        fam = ck_representation(E)
        z = np.exp(2j * np.pi * rng.uniform())
        for s_imgs in (fam.s, [z * s for s in fam.s]):
            rows = matalg.vec_rows(s_imgs + fam.p)
            assert graphalg._ck_relations_for(E, rows, fam.ambient_dim) == ck_relations_loop(
                E, s_imgs, fam.p)


def _assert_same_rows(a, b):
    assert a.shape == b.shape
    assert (a != b).nnz == 0


def test_theta_rows_and_path_words_equal_their_loop_oracles(two_chunk_instance):
    rng = np.random.default_rng(123)
    instances = [suite.random_graph_instance(rng) for _ in range(29)] + [two_chunk_instance]
    for E, G, lab in instances:
        parts = duality.DualityParts(E, G, lab)
        fam, skew, fam_skew = parts.fam, parts.skew, parts.fam_skew
        edge, vertex, us = theta_generator_images_loop(fam, skew, G, lab)
        _assert_same_rows(parts.theta_gen_rows, matalg.vec_rows(edge + vertex + us))
        m, n_g = fam.ambient_dim * G.order, skew.n_edges + skew.n_vertices
        assert graphalg._ck_relations_for(skew, parts.theta_gen_rows[:n_g], m) == (
            ck_relations_loop(skew, edge, vertex))
        _assert_same_rows(graphalg._path_images(fam_skew, parts.theta_gen_rows[:n_g], m),
                          matalg.vec_rows(path_images_loop(fam_skew, edge, vertex)))
        _assert_same_rows(graphalg._path_images(fam, fam.span.gen_rows, fam.ambient_dim),
                          matalg.vec_rows(path_images_loop(fam, fam.s, fam.p)))


def test_coaction_check_equals_its_loop_oracle():
    rng = np.random.default_rng(9)
    for _ in range(8):
        E, G, lab = suite.random_graph_instance(rng, max_dim=128, dim_budget=256)
        graded = spectral_subspaces(ck_representation(E), G, lab)
        assert verify_graded_coaction(graded) == graded_coaction_loop(graded)
    for _ in range(8):
        Q = suite.random_groupoid(rng, max_units=4, max_arrows=12)
        G = suite.suite_groups()[int(rng.integers(4))]
        c = suite.random_cocycle(rng, Q, G)
        graded = groupoids.graded_convolution(groupoids.convolution_algebra(Q), c)
        assert verify_graded_coaction(graded) == graded_coaction_loop(graded)


@pytest.fixture
def fork():
    """u -> v -> w and u -> w: two edges out of u, and a vertex pair to overlap."""
    return DirectedGraph(["u", "v", "w"], [("e1", "u", "v"), ("e2", "v", "w"),
                                           ("e3", "u", "w")])


def _zero(m):
    return sp.csr_matrix(m.shape, dtype=np.complex128)


def _pad(m):
    return sp.block_diag([m, sp.csr_matrix((1, 1))], format="csr")


# Each plant maps (graph, s, p) of the fork to a defective (graph, s, p).
PLANTS = {
    "doubled p_v": lambda E, s, p: (E, s, [2 * p[0]] + p[1:]),
    "doubled s_e": lambda E, s, p: (E, [2 * s[0]] + s[1:], p),
    "non-self-adjoint p_v": lambda E, s, p: (E, s, [p[0] + sp.csr_matrix(
        ([1j], ([0], [p[0].shape[0] - 1])), shape=p[0].shape)] + p[1:]),
    "overlapping projections": lambda E, s, p: (E, s, [p[0], p[1] + p[0], p[2]]),
    # An isolated extra vertex with p_x = 0: only the nonzero check sees it.
    "zeroed p_v": lambda E, s, p: (DirectedGraph(E.vertices + ("x",), E.edges), s,
                                   p + [_zero(p[0])]),
    # The same with p_x = 0 p_u, which stores two zeros: zero by value.
    "zeroed p_v with stored zeros": lambda E, s, p: (
        DirectedGraph(E.vertices + ("x",), E.edges), s, p + [0 * p[0]]),
    "zero s_e": lambda E, s, p: (E, [_zero(s[0])] + s[1:], p),
    "s_e* for s_e": lambda E, s, p: (E, [s[0].conj().T.tocsr()] + s[1:], p),
    # s_e3 s_e2* has the range of s_e3 and the initial projection p_v, not p_w.
    "wrong initial projection": lambda E, s, p: (E, s[:2] + [s[2] @ s[1].conj().T], p),
    "projections short of 1": lambda E, s, p: (E, [_pad(m) for m in s], [_pad(m) for m in p]),
    # The graph without e3: the edges out of u miss the range of s_e3 in p_u.
    "range sum missing an edge": lambda E, s, p: (DirectedGraph(E.vertices, E.edges[:2]),
                                                  s[:2], p),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_ck_defect_is_seen_by_both_versions(fork, plant):
    fam = ck_representation(fork)
    assert graphalg._ck_relations_for(fork, fam.span.gen_rows, fam.ambient_dim) == 0.0
    graph, s_imgs, p_imgs = PLANTS[plant](fork, list(fam.s), list(fam.p))
    batched = graphalg._ck_relations_for(graph, matalg.vec_rows(s_imgs + p_imgs),
                                         p_imgs[0].shape[0])
    assert batched > PLANTED_MIN
    assert batched == ck_relations_loop(graph, s_imgs, p_imgs)
