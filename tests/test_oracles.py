"""The batched Cuntz-Krieger and coaction checks, Theta's generator rows, the
path words, the group legs of the crossed products, the permutation actions
and the gauge check against their oracles (``oracles.py``): equal results on
random, gauge-scaled and groupoid inputs, a planted defect per Cuntz-Krieger
relation that both versions see, and two planted gauge defects that both
versions reject.  The relation check and the path words of partial
permutations (index arithmetic) equal their sparse fallbacks bit for bit,
planted partial permutations take the index path, and unit-phase plants
that the exact index decision rejects take the product path."""
import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    action_basis_rows_by_index,
    arrow_unitaries,
    ck_relations_loop,
    delta_rows_by_collapse,
    dual_unitaries,
    from_orthogonal,
    gauge_star_map,
    graded_coaction_loop,
    matrix_unit,
    path_images_loop,
    path_unitaries,
    spanning_rows_by_index,
    symmetric_group_3,
    theta_generator_images_loop,
    u_rows_by_index,
    unitary_conjugation_coeffs,
)
from test_layout import draws
from test_paths import noncommuting_chains

from skewprod import duality, graphalg, groupoids, matalg, suite
from skewprod.crossed import CoactionCrossedProduct, GradedSpan, coaction_check
from skewprod.graphalg import ck_representation, coaction, gauge_check, generator_degrees
from skewprod.graphs import DirectedGraph
from skewprod.groups import Labeling, cyclic_group

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


def _assert_same_bits(a, b):
    """Two CSR matrices with the same arrays, the data compared bit for bit."""
    assert a.shape == b.shape
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                 (a.data.view(np.int64), b.data.view(np.int64))):
        np.testing.assert_array_equal(x, y)


def test_index_paths_equal_the_sparse_paths(monkeypatch):
    # The families of C*(E) scaled by z on and off the circle (inexact
    # products), the same with one stored zero in an s_f (a zero product,
    # which a sparse product drops) and Theta's generator images, through the
    # index path and, with no family read as partial permutations, the
    # sparse fallback.
    rng = np.random.default_rng(24)
    cases = []
    for _ in range(12):
        parts = duality.DualityParts(*suite.random_graph_instance(rng))
        fam, skew = parts.fam, parts.skew
        rows = fam.span.gen_rows.copy()
        edge_entries = rows.indptr[fam.graph.n_edges]
        rows.data[:edge_entries] *= np.exp(2j * np.pi * rng.uniform()) * rng.choice([1, 1.25])
        zeroed = rows.copy()
        zeroed.data[rng.integers(edge_entries)] = 0
        n_g = skew.n_edges + skew.n_vertices
        cases += [(fam, rows, fam.ambient_dim), (fam, zeroed, fam.ambient_dim),
                  (parts.fam_skew, parts.theta_gen_rows[:n_g], fam.ambient_dim * parts.G.order)]

    def run():
        return [(graphalg._ck_relations_for(f.graph, rows, n), graphalg._path_images(f, rows, n))
                for f, rows, n in cases]

    index = run()
    monkeypatch.setattr(matalg, "_monomial", lambda rows, n, by_column=False: None)
    for (err, words), (sparse_err, sparse_words) in zip(index, run()):
        assert err == sparse_err
        _assert_same_bits(words, sparse_words)


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


def _assert_coaction(graded, gen_degrees):
    """``coaction_check`` passes, and the loop oracle finds delta injective,
    with the coaction identity and nondegeneracy within 1e-12."""
    assert coaction_check(graded, gen_degrees).passed
    errs = graded_coaction_loop(graded, tol=1e-12)
    assert errs.pop("injective") is True
    assert max(errs.values()) <= 1e-12


def test_coaction_check_equals_its_loop_oracle():
    rng = np.random.default_rng(9)
    for _ in range(8):
        E, G, lab = suite.random_graph_instance(rng, max_dim=128, dim_budget=256)
        _assert_coaction(coaction(ck_representation(E), G, lab), generator_degrees(lab))
    # Groupoid gradings, a third of them over S3.
    for Q, G, c in draws(12, seed=9):
        alg = groupoids.convolution_algebra(Q)
        _assert_coaction(groupoids.graded_convolution(alg, c), c.values[alg.gens])


def _assert_same_csr(a, b):
    assert a.shape == b.shape
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert np.array_equal(x, y)


def _assert_group_legs_by_index(graded, acp):
    """The spanning rows of the coaction crossed product of ``graded`` and the
    basis and u~_s rows of ``acp``, CSR for CSR, against the index builders."""
    _assert_same_csr(graded.spanning_rows, spanning_rows_by_index(graded))
    _assert_same_bits(graded.delta_rows, delta_rows_by_collapse(graded))
    _assert_same_csr(acp.span.rows, action_basis_rows_by_index(acp.action))
    _assert_same_csr(acp._u_rows, u_rows_by_index(acp.group, acp.base.ambient_dim))


def test_group_legs_equal_their_index_builders(two_chunk_instance):
    # Graph-suite draws, non-abelian chains over S3 and one edge over C16, then
    # groupoids with S3 cocycles and with the suite groups.
    rng = np.random.default_rng(20)
    e1 = DirectedGraph(["v", "w"], [("f", "v", "w")])
    c16 = cyclic_group(16)
    instances = ([suite.random_graph_instance(rng) for _ in range(10)]
                 + noncommuting_chains(rng, count=4)
                 + [two_chunk_instance, (e1, c16, Labeling(e1, c16, [3]))])
    for E, G, lab in instances:
        parts = duality.DualityParts(E, G, lab)
        _assert_group_legs_by_index(parts.coaction, parts.acp)
    S3 = symmetric_group_3()
    for k in range(8):
        Q = suite.random_groupoid(rng, max_units=3, max_arrows=8)
        G = S3 if k % 2 == 0 else suite.suite_groups()[int(rng.integers(4))]
        c = suite.random_cocycle(rng, Q, G)
        trans = groupoids.translation_groupoid_action(
            groupoids.skew_product_groupoid(Q, G, c), G)
        _assert_group_legs_by_index(
            groupoids.graded_convolution(groupoids.convolution_algebra(Q), c),
            groupoids.action_crossed_product(trans))


def test_delta_rows_sum_as_the_sparse_collapse():
    # Entries -1 - 0j: their spanning rows carry the component -0.0, which
    # the sparse product's sum 0 + x turns into +0.0.
    span = from_orthogonal([-matrix_unit(2, 0, 0) - 0j, matrix_unit(2, 1, 1), matrix_unit(2, 0, 1)])
    graded = GradedSpan(span, [0, 0, 1], cyclic_group(2))
    assert np.signbit(graded.spanning_rows.data.imag).any()
    _assert_same_bits(graded.delta_rows, delta_rows_by_collapse(graded))


def _assert_same_action(act, unitaries):
    want = unitary_conjugation_coeffs(act.span, act.group, unitaries)
    assert len(act.coeff_mats) == len(want)
    for got, ref in zip(act.coeff_mats, want):
        _assert_same_rows(got, ref)


def test_permutation_actions_equal_unitary_conjugation():
    # gamma on C*(E x_c G), the dual action on C*(E) x_delta G, beta on
    # C*(Q x_c G) and the dual action on C*(Q) x_delta G.
    rng = np.random.default_rng(10)
    for _ in range(8):
        parts = duality.DualityParts(*suite.random_graph_instance(rng))
        _assert_same_action(parts.gamma, path_unitaries(parts.fam_skew, parts.gact))
        ccp = CoactionCrossedProduct(parts.coaction)
        _assert_same_action(ccp.dual_action(), dual_unitaries(ccp))
    for _ in range(6):
        Q = suite.random_groupoid(rng, max_units=4, max_arrows=12)
        G = suite.suite_groups()[int(rng.integers(4))]
        c = suite.random_cocycle(rng, Q, G)
        skew = groupoids.skew_product_groupoid(Q, G, c)
        trans = groupoids.translation_groupoid_action(skew, G)
        beta = groupoids.algebra_action_from_groupoid_action(
            groupoids.convolution_algebra(skew), trans)
        _assert_same_action(beta, arrow_unitaries(trans))
        ccp = CoactionCrossedProduct(
            groupoids.graded_convolution(groupoids.convolution_algebra(Q), c))
        _assert_same_action(ccp.dual_action(), dual_unitaries(ccp))


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
    # Unit-phase partial permutations (UNIT_PHASE_PLANTS) that the index
    # decision rejects and the product path measures.
    "p_v diagonal entry -1": lambda E, s, p: (E, s, [_edited(p[0], 0, value=-1)] + p[1:]),
    # p_v also keeps the one path of p_w, the length-0 path at w.
    "two p_v sharing a row": lambda E, s, p: (E, s, [p[0], p[1] + p[2], p[2]]),
    # s_e3 sends w to e1 e2, the range of s_e1 out of the same vertex u.
    "overlapping ranges out of one vertex": lambda E, s, p: (
        E, s[:2] + [sp.csr_matrix((s[2].data, (s[0].nonzero()[0], s[2].indices)),
                                  shape=s[2].shape)], p),
}
UNIT_PHASE_PLANTS = ("p_v diagonal entry -1", "two p_v sharing a row",
                     "overlapping ranges out of one vertex")


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_ck_defect_is_seen_by_both_versions(fork, plant):
    fam = ck_representation(fork)
    assert graphalg._ck_relations_for(fork, fam.span.gen_rows, fam.ambient_dim) == 0.0
    graph, s_imgs, p_imgs = PLANTS[plant](fork, list(fam.s), list(fam.p))
    batched = graphalg._ck_relations_for(graph, matalg.vec_rows(s_imgs + p_imgs),
                                         p_imgs[0].shape[0])
    assert batched > PLANTED_MIN
    assert batched == ck_relations_loop(graph, s_imgs, p_imgs)


@pytest.mark.parametrize("plant", UNIT_PHASE_PLANTS)
def test_unit_phase_defect_is_rejected_on_index_tables(fork, plant):
    # The plant is a family the index decision reads, and it says no; the
    # error the product path then gives is checked by
    # test_planted_ck_defect_is_seen_by_both_versions.
    fam = ck_representation(fork)
    graph, s_imgs, p_imgs = PLANTS[plant](fork, list(fam.s), list(fam.p))
    rows = matalg.vec_rows(s_imgs + p_imgs)
    mono = matalg._monomial(rows, fam.ambient_dim)
    assert mono is not None and np.isin(rows.data, matalg.UNIT_PHASES).all()
    assert not graphalg._ck_holds_on_indices(graph, rows, mono)


def _edited(m, k, value=None, col=None, drop=False):
    """m with its k-th stored entry set to ``value``, moved to column ``col``
    or dropped."""
    c = m.tocoo()
    data, cols = c.data.astype(np.complex128), c.col.copy()
    if value is not None:
        data[k] = value
    if col is not None:
        cols[k] = col
    keep = np.arange(c.nnz) != k if drop else np.ones(c.nnz, dtype=bool)
    return sp.csr_matrix((data[keep], (c.row[keep], cols[keep])), shape=m.shape)


# Plants that keep every matrix a partial permutation.  On the fork, p[0] is
# p_u (the paths e1 e2 and e3), s[0] = s_e1 has one entry and s[2] = s_e3
# sends the path w to e3; p[1] = p_v keeps the path e2.
MONOMIAL_PLANTS = {
    "negated p_v entry": lambda E, s, p: (E, s, [_edited(p[0], 0, value=-1)] + p[1:]),
    "s_e phase off the circle": lambda E, s, p: (E, [1.5 * np.exp(0.7j) * s[0]] + s[1:], p),
    "s_e entry on a path from another vertex": lambda E, s, p: (
        E, s[:2] + [_edited(s[2], 0, col=p[1].indices[0])], p),
    "dropped p_v diagonal entry": lambda E, s, p: (E, s, [_edited(p[0], 0, drop=True)] + p[1:]),
}


@pytest.mark.parametrize("plant", sorted(MONOMIAL_PLANTS))
def test_planted_monomial_ck_defect_takes_the_index_path(fork, plant, monkeypatch):
    fam = ck_representation(fork)
    graph, s_imgs, p_imgs = MONOMIAL_PLANTS[plant](fork, list(fam.s), list(fam.p))
    rows, n = matalg.vec_rows(s_imgs + p_imgs), fam.ambient_dim
    assert matalg._monomial(rows, n) is not None
    index = graphalg._ck_relations_for(graph, rows, n)
    assert index > PLANTED_MIN
    assert index == ck_relations_loop(graph, s_imgs, p_imgs)
    monkeypatch.setattr(matalg, "_monomial", lambda rows, n, by_column=False: None)
    assert graphalg._ck_relations_for(graph, rows, n) == index


def test_gauge_check_equals_its_star_map_oracle(monkeypatch):
    # At each random z: the true generator degrees, s_f in degree 2
    # (s_f -> z^2 s_f, still a Cuntz-Krieger family, but off the grading)
    # and p_v in degree 1 (p_v -> z p_v, no longer a projection).
    rng = np.random.default_rng(11)
    gauge_degrees = graphalg._gauge_degrees
    for _ in range(30):
        E = suite.random_acyclic_graph(rng, max_vertices=6, max_edges=7)
        fam = ck_representation(E)
        z = np.exp(2j * np.pi * rng.uniform())
        true_degrees = gauge_degrees(E)
        for plant in (None, int(rng.integers(E.n_edges)),
                      E.n_edges + int(rng.integers(E.n_vertices))):
            degrees = true_degrees.copy()
            if plant is not None:
                degrees[plant] += 1
            monkeypatch.setattr(graphalg, "_gauge_degrees", lambda graph, d=degrees: d)
            report = gauge_check(fam, [z])
            assert report.passed == gauge_star_map(fam, z, degrees) == (plant is None)
            verdicts = {c.name: c.passed for c in report.checks}
            if plant is not None and plant < E.n_edges:
                assert verdicts == {"ck_family": True, "graded": False}
            elif plant is not None:
                assert not verdicts["ck_family"]
