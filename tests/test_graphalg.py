import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    basis_matrix,
    check_star_map,
    constant_labeling,
    regular_matrices,
    trivial_group,
)

from skewprod import duality, graphalg, groups, matalg, suite
from skewprod.crossed import coaction_check
from skewprod.graphalg import ck_representation, coaction, gauge_check, generator_degrees
from skewprod.graphs import DirectedGraph, EmptyGraph, GraphHasCycle


def brute_force_sink_paths(graph):
    """Independent path oracle: depth-first enumeration from every vertex."""
    out = []

    def walk(v, acc):
        if graph.is_sink(v):
            out.append(tuple(acc))
        for e in graph.out_edges(v):
            walk(int(graph.rng[e]), acc + [e])

    for v in range(graph.n_vertices):
        walk(v, [])
    return out


class TestCKRepresentation:
    def test_e1_matrices(self, e1):
        fam = ck_representation(e1)
        # Basis {w, f}: s_f is the matrix unit e_{f,w}; p_v, p_w diagonal.
        assert fam.ambient_dim == 2
        assert fam.s[0].toarray().real.tolist() == [[0, 0], [1, 0]]
        assert fam.p[0].toarray().real.tolist() == [[0, 0], [0, 1]]
        assert fam.p[1].toarray().real.tolist() == [[1, 0], [0, 0]]
        assert fam.dim == 4
        oracle = matalg.span_closure(list(fam.s) + list(fam.p))
        assert oracle.dim == 4

    def test_isolated_vertex(self):
        single = DirectedGraph(["u"], [])
        fam = ck_representation(single)
        assert fam.ambient_dim == 1
        assert fam.p[0].toarray().tolist() == [[1.0 + 0j]]

    def test_chain_full_m3(self, chain2):
        fam = ck_representation(chain2)
        assert fam.ambient_dim == 3
        assert fam.dim == 9
        assert matalg.span_closure(list(fam.s) + list(fam.p)).dim == 9
        assert matalg.wedderburn_signature(fam.span) == (3,)

    def test_dimension_formula_random(self, rng):
        # dim C*(E) = sum over sinks of (paths into the sink)^2, with the
        # path count taken from an independent depth-first oracle and the
        # dimension cross-checked by span closure.
        for _ in range(5):
            n_v = int(rng.integers(2, 6))
            verts = [f"v{i}" for i in range(n_v)]
            edges = []
            for k in range(int(rng.integers(1, 6))):
                i = int(rng.integers(0, n_v - 1))
                j = int(rng.integers(i + 1, n_v))
                edges.append((f"e{k}", verts[i], verts[j]))
            E = DirectedGraph(verts, edges)
            fam = ck_representation(E)

            def terminal(start, p):
                v = start
                for e in p:
                    v = int(E.rng[e])
                return v

            sink_counts = {v: 0 for v in range(E.n_vertices) if E.is_sink(v)}
            total = 0
            for v in range(E.n_vertices):
                for p in brute_force_sink_paths_from(E, v):
                    sink_counts[terminal(v, p)] += 1
                    total += 1
            assert fam.ambient_dim == total
            assert fam.dim == sum(n * n for n in sink_counts.values())
            if fam.ambient_dim <= 12:
                assert matalg.span_closure(list(fam.s) + list(fam.p)).dim == fam.dim

    def test_rejects_cycle(self):
        loop = DirectedGraph(["v"], [("f", "v", "v")])
        with pytest.raises(GraphHasCycle):
            ck_representation(loop)

    def test_rejects_empty(self):
        with pytest.raises(EmptyGraph):
            ck_representation(DirectedGraph([], []))


def brute_force_sink_paths_from(graph, start):
    out = []

    def walk(v, acc):
        if graph.is_sink(v):
            out.append(tuple(acc))
        for e in graph.out_edges(v):
            walk(int(graph.rng[e]), acc + [e])

    walk(start, [])
    return out


class TestGauge:
    def test_identity(self, e1):
        fam = ck_representation(e1)
        rep = gauge_check(fam, [1.0])
        assert rep.passed

    def test_minus_one_on_e1(self, e1):
        fam = ck_representation(e1)
        rep = gauge_check(fam, [-1.0])
        assert rep.passed and rep.checks[0].name == "ck_family" and rep.checks[0].passed
        # alpha_{-1} fixes p_v and p_w and negates s_f: the scaled family
        # satisfies the relations directly.
        s_f = -1.0 * fam.s[0]
        assert matalg.frobenius(s_f.conj().T @ s_f - fam.p[1]) == 0.0
        assert matalg.frobenius(s_f @ s_f.conj().T - fam.p[0]) == 0.0

    @pytest.mark.parametrize("z", [1j, np.exp(2j * np.pi / 7)])
    def test_unit_circle_samples(self, chain2, z):
        fam = ck_representation(chain2)
        rep = gauge_check(fam, [z])
        assert rep.passed

    def test_rejects_non_unit_modulus(self, e1):
        fam = ck_representation(e1)
        with pytest.raises(ValueError):
            gauge_check(fam, [2.0])

    def test_cross_check_against_pair_closure(self, e1):
        fam = ck_representation(e1)
        gens = list(fam.s) + list(fam.p)
        imgs = [(-1) * fam.s[0], fam.p[0], fam.p[1]]
        general = check_star_map(gens, imgs, target=fam.span)
        assert general.passed == gauge_check(fam, [-1.0]).passed is True

    def test_grades_once_for_all_samples(self, chain2, monkeypatch):
        # The length grading does not depend on z; the relations do.
        fam = ck_representation(chain2)
        calls = {"_check_path_grading": 0, "_ck_relations_for": 0}
        for name in calls:
            def counted(*args, original=getattr(graphalg, name), name=name):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(graphalg, name, counted)
        assert gauge_check(fam, suite.GAUGE_SAMPLES).passed
        assert calls == {"_check_path_grading": 1, "_ck_relations_for": len(suite.GAUGE_SAMPLES)}
        with pytest.raises(ValueError):
            gauge_check(fam, suite.GAUGE_SAMPLES + (2.0,))


class TestCoaction:
    def test_e1_z2_displayed_matrix(self, e1, z2, e1_z2_labeling):
        fam = ck_representation(e1)
        graded = coaction(fam, z2, e1_z2_labeling)
        # delta(s_f) = s_f (x) lam_g, a 4x4 matrix; delta(p_v) = p_v (x) 1.
        lam_g = np.array([[0, 1], [1, 0]])
        deltas = graded.delta(fam.span.gen_rows).toarray().real.reshape(-1, 4, 4)
        assert np.array_equal(
            deltas[0], sp.kron(fam.s[0].toarray().real, lam_g).toarray()
        )
        assert np.array_equal(
            deltas[e1.n_edges],
            sp.kron(fam.p[0].toarray().real, np.eye(2)).toarray(),
        )

    def test_trivial_group(self, e1):
        G1 = trivial_group()
        fam = ck_representation(e1)
        graded = coaction(fam, G1, constant_labeling(e1, G1))
        deltas = matalg.unvec_rows(graded.delta(fam.span.gen_rows), fam.ambient_dim)
        for e in range(e1.n_edges):
            assert matalg.frobenius(deltas[e] - sp.kron(fam.s[e], np.eye(1))) == 0.0

    def test_verification_tolerance(self, e1, z2, e1_z2_labeling):
        fam = ck_representation(e1)
        check = coaction_check(coaction(fam, z2, e1_z2_labeling),
                               generator_degrees(e1_z2_labeling))
        assert check.name == "coaction" and check.tol == 1e-12
        assert check.error == 0.0 and check.passed

    def test_degree_revealing(self, chain2, z3, rng):
        lab = groups.Labeling(chain2, z3, rng.integers(0, 3, 2))
        fam = ck_representation(chain2)
        graded = coaction(fam, z3, lab)
        lam = regular_matrices(z3)[0]
        deltas = matalg.unvec_rows(graded.delta(fam.span.rows), fam.ambient_dim * z3.order)
        for k in range(fam.dim):
            t = int(graded.degrees[k])
            lhs = deltas[k]
            rhs = sp.kron(basis_matrix(fam.span, k), lam[t], format="csr")
            assert matalg.frobenius(lhs - rhs) == 0.0


class TestSpectralSubspaces:
    def test_e1_z2_dims(self, e1, z2, e1_z2_labeling):
        fam = ck_representation(e1)
        gb = coaction(fam, z2, e1_z2_labeling)
        assert gb.subspace_dims() == {0: 2, 1: 2}

    def test_trivial_labeling_all_degree_e(self, chain2, z2):
        fam = ck_representation(chain2)
        gb = coaction(fam, z2, constant_labeling(chain2, z2))
        assert gb.subspace_dims() == {0: fam.dim, 1: 0}

    def test_degrees_multiply_to_e(self, e1, z2, e1_z2_labeling):
        fam = ck_representation(e1)
        gb = coaction(fam, z2, e1_z2_labeling)
        # s_f s_f* lands in degree c(f) c(f)^-1 = e.
        k_f = fam.pair(1, 0)
        k_fstar = fam.pair(0, 1)
        assert gb.degrees[k_f] == 1 and gb.degrees[k_fstar] == 1
        prod = fam.pair(1, 1)
        assert gb.degrees[prod] == 0

    def test_subspace_dims_sum(self, rng):
        for _ in range(3):
            n_v = int(rng.integers(2, 5))
            verts = [f"v{i}" for i in range(n_v)]
            edges = []
            for k in range(int(rng.integers(1, 5))):
                i = int(rng.integers(0, n_v - 1))
                j = int(rng.integers(i + 1, n_v))
                edges.append((f"e{k}", verts[i], verts[j]))
            E = DirectedGraph(verts, edges)
            G = groups.klein_four_group()
            lab = groups.Labeling(E, G, rng.integers(0, 4, E.n_edges))
            fam = ck_representation(E)
            gb = coaction(fam, G, lab)
            assert sum(gb.subspace_dims().values()) == fam.dim


class TestPathGrading:
    """Each rule of ``_check_path_grading`` fails on one planted defect, under
    the G-grading of a labeling and under the length grading, next to the
    same call on correct degrees."""

    @pytest.fixture
    def two_sinks(self):
        # Sink blocks {s1, f1} and {s2, f3, f2 f3}: the planted pair lies in
        # the second block, which has a middle path for the product rule.
        return DirectedGraph(["a", "b", "s1", "s2"],
                             [("f1", "a", "s1"), ("f2", "a", "b"), ("f3", "b", "s2")])

    @staticmethod
    def grading(fam, G, lab, kind):
        """(degrees, edge_degrees, mul, inv, identity) and a non-identity degree."""
        if kind == "G":
            inverse = np.array([G.inv(s) for s in G])
            return ((coaction(fam, G, lab).degrees, lab.by_edge,
                     lambda a, b: G.table[a, b], lambda a: inverse[a], G.identity_index),
                    (G.identity_index + 1) % G.order)
        lengths = np.array([len(p.edges) for p in fam.paths])
        pairs = np.array(fam.pairs)
        edge_degrees = graphalg._gauge_degrees(fam.graph)[:fam.graph.n_edges]
        return ((lengths[pairs[:, 0]] - lengths[pairs[:, 1]], edge_degrees,
                 np.add, np.negative, 0), 1)

    @pytest.mark.parametrize("kind", ["G", "length"])
    @pytest.mark.parametrize("rule, message", [
        ("adjoint", "adjoint degree mismatch"),
        ("product", "product degree mismatch"),
        ("vertex", "vertex projection off degree e"),
        ("edge", "edge partial isometry off its labeled degree"),
    ])
    def test_planted_defect_breaks_its_rule(self, two_sinks, z3, kind, rule, message):
        fam = ck_representation(two_sinks)
        args, g = self.grading(fam, z3, groups.Labeling(two_sinks, z3, [1, 2, 1]), kind)
        assert graphalg._check_path_grading(fam, *args) is None
        degrees, edge_degrees, mul, inv, identity = args
        degrees, edge_degrees = degrees.copy(), np.array(edge_degrees)
        i, j = fam.pairs[-8]  # two distinct paths into s2
        k, k_star = fam.pair(i, j), fam.pair(j, i)
        if rule in ("adjoint", "product"):
            degrees[k] = mul(degrees[k], g)
        if rule == "product":  # e_{nu,mu} moves with e_{mu,nu}: the adjoint rule holds
            degrees[k_star] = inv(degrees[k])
        if rule == "vertex":  # p_v claimed in a degree other than e
            identity = g
        if rule == "edge":  # s_f3 one degree off: z^2 s_f under the length grading
            edge_degrees[2] = mul(edge_degrees[2], g)
        assert graphalg._check_path_grading(fam, degrees, edge_degrees, mul, inv,
                                            identity) == message


@pytest.mark.parametrize("phase", [-1, 1j])
def test_path_word_with_a_flipped_phase_fails_verify(chain2, phase, monkeypatch):
    fam = ck_representation(chain2)
    original = graphalg._path_images

    def flipped(*args):
        words = original(*args).copy()
        words.data[-1] *= phase
        return words

    monkeypatch.setattr(graphalg, "_path_images", flipped)
    with pytest.raises(graphalg.CKRelationError, match="path word disagrees"):
        fam.verify()


def test_unit_phase_ck_families_form_no_products(monkeypatch):
    # In a graph case the family, the skew family, Theta's images and the
    # gauge samples 1, -1 and i are unit-phase partial permutations, decided
    # on index tables; only the sample e^(2 pi i / 7) forms the products.
    relations, products = [], []
    for name, calls in (("_ck_relations_for", relations), ("_ck_products", products)):
        def counted(*args, original=getattr(graphalg, name), calls=calls):
            calls.append(args[0])
            return original(*args)
        monkeypatch.setattr(graphalg, name, counted)
    z7 = suite.GAUGE_SAMPLES[-1]
    assert z7 == np.exp(2j * np.pi / 7)
    for seed in range(3):
        relations.clear(), products.clear()
        assert suite.run_graph_case(seed).passed
        assert len(relations) == 3 + len(suite.GAUGE_SAMPLES)
        # _ck_products(gen_rows, ...) once, on the edge entries scaled by z7.
        (gen_rows,) = products
        edges = gen_rows[:relations[0].n_edges]
        assert np.array_equal(edges.data, np.full(edges.nnz, z7))


def test_ck_family_gauge_and_theta_checks_make_no_sparse_product(two_chunk_instance,
                                                                  monkeypatch):
    # Every family here is a partial permutation, so the relation checks, the
    # path words and the covariance products run on index arrays.  With no
    # family read as one, the same calls fall back to sparse products.
    E, G, lab = two_chunk_instance
    sparse_products = []
    original = sp.csr_matrix.__matmul__
    monkeypatch.setattr(sp.csr_matrix, "__matmul__",
                        lambda a, b: sparse_products.append(1) or original(a, b))

    def run():
        fam = ck_representation(E)
        parts = duality.DualityParts(E, G, lab)
        return gauge_check(fam, suite.GAUGE_SAMPLES).passed, parts.theta_side_errors

    assert run() == (True, (0.0, 0.0))
    assert sparse_products == []
    monkeypatch.setattr(matalg, "_monomial", lambda rows, n, by_column=False: None)
    assert run() == (True, (0.0, 0.0))
    assert sparse_products
