import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    coefficients,
    constant_labeling,
    element,
    matrix_unit,
    regular_matrices,
    symmetric_group_3,
    trivial_group,
)

from skewprod import duality, graphalg, graphs, groups, matalg
from skewprod.crossed import CoactionCrossedProduct
from skewprod.duality import (
    certify_direct_iso,
    certify_eqvt_iso,
    certify_free_action,
    certify_regular_diagram,
)
from skewprod.graphalg import ck_representation
from skewprod.graphs import DirectedGraph, skew_product, translation_action


class TestEqvtIso:
    def test_e1_z2(self, e1, z2, e1_z2_labeling):
        cert = certify_eqvt_iso(e1, z2, e1_z2_labeling)
        assert cert.passed
        assert cert.lhs_dim == cert.rhs_dim == 8
        assert cert.equivariance_error == 0.0
        assert all(c.passed for c in cert.star_report.checks)
        assert {c.name for c in cert.star_report.checks} >= {"injective", "surjective"}

    def test_trivial_group(self, e1):
        G1 = trivial_group()
        cert = certify_eqvt_iso(e1, G1, constant_labeling(e1, G1))
        assert cert.passed
        assert cert.lhs_dim == cert.rhs_dim == 4

    def test_equivariance_generator_display(self, e1, z2, e1_z2_labeling):
        # Phi(gamma_g(s_(f,e))) = (s_f, g) = delta^_g(Phi(s_(f,e))).
        fam = ck_representation(e1)
        lams, rhos, chi = regular_matrices(z2)
        lam, rho = lams[1], rhos[1]
        phi_fe = sp.kron(fam.s[0], lam @ chi[0], format="csr")   # (s_f, e)
        phi_fg = sp.kron(fam.s[0], lam @ chi[1], format="csr")   # (s_f, g)
        eye = sp.identity(2, format="csr", dtype=np.complex128)
        ad = sp.kron(eye, rho, format="csr")
        assert matalg.frobenius(ad @ phi_fe @ ad.conj().T - phi_fg) == 0.0


class TestDirectIso:
    def test_e1_z2(self, e1, z2, e1_z2_labeling):
        cert = certify_direct_iso(e1, z2, e1_z2_labeling)
        assert cert.passed
        assert cert.lhs_dim == cert.rhs_dim == 16
        assert cert.signatures == {"lhs": (4,), "rhs": (4,)}
        assert cert.as_dict()["extra"]["composition_ok"]

    def test_trivial_group(self, e1):
        G1 = trivial_group()
        cert = certify_direct_iso(e1, G1, constant_labeling(e1, G1))
        assert cert.passed and cert.lhs_dim == 4

    def test_initial_projection_display(self, e1, z2, e1_z2_labeling):
        # Theta(t_(f,r))* Theta(t_(f,r)) = p_r(f) (x) chi_r.
        fam = ck_representation(e1)
        lams, _, chi = regular_matrices(z2)
        lam = lams[1]
        for r in z2:
            chi_r = chi[r]
            t_fr = sp.kron(fam.s[0], lam @ chi_r, format="csr")
            lhs = t_fr.conj().T @ t_fr
            rhs = sp.kron(fam.p[1], chi_r, format="csr")
            assert matalg.frobenius(lhs - rhs) == 0.0

    def test_dim_arithmetic(self, chain2, z3, rng):
        lab = groups.Labeling(chain2, z3, rng.integers(0, 3, 2))
        cert = certify_direct_iso(chain2, z3, lab)
        assert cert.passed
        assert cert.lhs_dim == 9 * 9  # dim C*(E) |G|^2


class TestRegularDiagram:
    def test_e1_z2(self, e1, z2, e1_z2_labeling):
        cert = certify_regular_diagram(e1, z2, e1_z2_labeling)
        assert cert.passed
        assert cert.as_dict()["extra"]["chase_error"] == 0.0
        assert cert.as_dict()["extra"]["regular_rep_dim_ok"]

    def test_vertex_route_display(self, e1, z2, e1_z2_labeling):
        # Both routes send p_(v,r) to p_v (x) chi_r; certified by the chase
        # having zero error, re-derived here for one generator.
        fam = ck_representation(e1)
        from skewprod.graphalg import coaction

        graded = coaction(fam, z2, e1_z2_labeling)
        chi = regular_matrices(z2)[2][1]
        eye = sp.identity(2, format="csr", dtype=np.complex128)
        delta_p = sp.kron(fam.p[0], eye, format="csr")
        route_b = delta_p @ sp.kron(eye, chi, format="csr")
        route_a = sp.kron(fam.p[0], chi, format="csr")
        assert matalg.frobenius(route_a - route_b) == 0.0

    def test_trivial_group(self, e1):
        G1 = trivial_group()
        cert = certify_regular_diagram(e1, G1, constant_labeling(e1, G1))
        assert cert.passed


class TestDualityParts:
    def test_rejects_parts_of_another_instance(self, e1, z2, e1_z2_labeling):
        parts = duality.DualityParts(e1, z2, constant_labeling(e1, z2))
        for certify in (certify_eqvt_iso, certify_direct_iso, certify_regular_diagram):
            with pytest.raises(ValueError, match="different"):
                certify(e1, z2, e1_z2_labeling, parts=parts)
        assert not {"fam", "coaction", "skew", "acp"} & vars(parts).keys()

    def test_shared_parts_give_the_same_certificates(self, chain2, z3):
        lab = groups.make_labeling(chain2, {"e1": "g", "e2": "g^2"}, z3)
        parts = duality.DualityParts(chain2, z3, lab)
        for certify in (certify_eqvt_iso, certify_direct_iso, certify_regular_diagram):
            shared = certify(chain2, z3, lab, parts=parts)
            assert shared.as_dict() == certify(chain2, z3, lab).as_dict()

    def test_batched_basis_images_are_the_per_pair_words(self, two_chunk_instance):
        # The word products span two chunks.
        graph, G, lab = two_chunk_instance
        parts = duality.DualityParts(graph, G, lab)
        fam_skew, m = parts.fam_skew, parts.fam.ambient_dim * G.order
        n_g = fam_skew.span.gen_rows.shape[0]
        gen_imgs = parts.theta_gen_rows[:n_g]
        theta_u = matalg.unvec_rows(parts.theta_gen_rows[n_g:], m)
        assert len(fam_skew.paths) > matalg.CHUNK
        words = matalg.unvec_rows(graphalg._path_images(fam_skew, gen_imgs, m), m)
        per_pair = [(words[i] @ words[j].conj().T).toarray() for i, j in fam_skew.pairs]
        plain = duality._basis_image_rows(fam_skew, gen_imgs, m)
        np.testing.assert_array_equal(plain.toarray(), [w.ravel() for w in per_pair])
        post = [(w @ q.toarray()).ravel() for w in per_pair for q in theta_u]
        np.testing.assert_array_equal(parts.theta_rows.toarray(), post)


    def test_generator_rows_in_the_order_duality_slices(self, e1, z2, e1_z2_labeling):
        parts = duality.DualityParts(e1, z2, e1_z2_labeling)
        fam, fam_skew, skew, graded = parts.fam, parts.fam_skew, parts.skew, parts.coaction
        lam, _, chi = regular_matrices(z2)
        eye_p, eye_skew = (sp.identity(n, format="csr") for n in (fam.ambient_dim,
                                                                   fam_skew.ambient_dim))

        def assert_rows(span, mats):
            got = matalg.unvec_rows(span.gen_rows, span.ambient_dim)
            assert len(got) == len(mats)
            for g, want in zip(got, mats):
                np.testing.assert_array_equal(g.toarray(), matalg.as_dense(want))

        # C*(E x_c G) x_gamma G: pi~(s_e), pi~(p_v), then u_t, with
        # pi~(a) = sum_t gamma_(t^-1)(a) (x) chi_t and u_t = 1 (x) lam_t.
        def pi_tilde(a):
            coeffs = coefficients(fam_skew.span, a)
            return sum(sp.kron(element(fam_skew.span, coeffs @ parts.gamma.coeff_mats[
                z2.inv(t)]), chi[t], format="csr") for t in z2)

        assert_rows(parts.acp.span, [pi_tilde(g) for g in fam_skew.s + fam_skew.p]
                    + [sp.kron(eye_skew, lam[t]) for t in z2])
        # C*(E) x_delta G: delta(s_e), delta(p_v), then j_G(chi_u) = 1 (x) chi_u.
        ccp = CoactionCrossedProduct(graded)
        lab = parts.labeling
        assert_rows(ccp.span, [sp.kron(fam.s[e], lam[lab.of(e)]) for e in range(e1.n_edges)]
                    + [sp.kron(fam.p[v], np.eye(2)) for v in range(e1.n_vertices)]
                    + [sp.kron(eye_p, chi[u]) for u in z2])
        # C*(E) (x) M_|G|: s_e (x) 1, p_v (x) 1, then 1 (x) E_ij.
        units = [matrix_unit(2, i, j) for i in range(2) for j in range(2)]
        assert_rows(parts.target, [sp.kron(g, np.eye(2)) for g in fam.s + fam.p]
                    + [sp.kron(eye_p, e) for e in units])
        assert skew.n_edges + skew.n_vertices + z2.order == parts.theta_gen_rows.shape[0]

    def test_covariance_error_sees_a_wrong_generator_image(self, e1, z2, e1_z2_labeling):
        parts = duality.DualityParts(e1, z2, e1_z2_labeling)
        assert parts.theta_side_errors == (0.0, 0.0)
        # Doubling t_(f,e) breaks u_g t_(f,e) = t_(f,g) u_g at the one entry of
        # t_(f,e), for g = e on the right side and for g = t on the left.
        planted = duality.DualityParts(e1, z2, e1_z2_labeling)
        rows = planted.theta_gen_rows
        assert rows[0].nnz == 1
        planted.theta_gen_rows = sp.diags(np.r_[2.0, np.ones(rows.shape[0] - 1)]) @ rows
        ck_err, cov_err = planted.theta_side_errors
        assert ck_err > 0.0 and cov_err == 2.0


class TestFreeAction:
    def test_two_disjoint_edges_with_swap(self, z2):
        two = DirectedGraph(
            ["v0", "w0", "v1", "w1"], [("f0", "v0", "w0"), ("f1", "v1", "w1")]
        )
        act = graphs.GraphAction(
            two, z2, np.array([[0, 1, 2, 3], [2, 3, 0, 1]]), np.array([[0, 1], [1, 0]])
        )
        cert = certify_free_action(two, act)
        assert cert.passed
        assert cert.signatures["lhs"] == cert.signatures["rhs"] == (4,)

    def test_trivial_group_on_e1(self, e1):
        G1 = trivial_group()
        act = graphs.GraphAction(
            e1, G1, np.arange(2).reshape(1, 2), np.arange(1).reshape(1, 1)
        )
        cert = certify_free_action(e1, act)
        assert cert.passed
        assert cert.signatures["lhs"] == (2,)

    def test_non_free_action_is_refused(self, e1, z2):
        # Mutants of a free action on Z2 and S3: the trivial action of Z2 on
        # E1, and S3 permuting six edges v_t -> w by left translation and
        # fixing the sink w.
        trivial = graphs.GraphAction(e1, z2, np.tile(np.arange(2), (2, 1)),
                                     np.zeros((2, 1), dtype=int))
        with pytest.raises(graphs.ActionNotFree, match="^element 1 fixes vertex 'v'$"):
            certify_free_action(e1, trivial)
        S3 = symmetric_group_3()
        fan = DirectedGraph([f"v{t}" for t in S3] + ["w"],
                            [(f"f{t}", f"v{t}", "w") for t in S3])
        left = graphs.GraphAction(fan, S3, np.c_[S3.table, np.full(6, 6)], S3.table)
        with pytest.raises(graphs.ActionNotFree, match="^element 1 fixes vertex 'w'$"):
            certify_free_action(fan, left)

    def test_translation_on_skew(self, e1, z2, e1_z2_labeling):
        F = skew_product(e1, z2, e1_z2_labeling)
        act = translation_action(F, z2)
        cert = certify_free_action(F, act)
        assert cert.passed
        assert cert.extra.data["quotient_vertices"] == 2


def _random_instance(rng, max_order=4):
    from skewprod.suite import random_graph_instance

    return random_graph_instance(rng, max_dim=128, dim_budget=256)


class TestRandomizedSmallSuite:
    def test_certifiers_pass_on_random_instances(self, rng):
        for _ in range(4):
            E, G, lab = _random_instance(rng)
            c1 = certify_eqvt_iso(E, G, lab)
            c2 = certify_direct_iso(E, G, lab, rng=rng)
            c3 = certify_regular_diagram(E, G, lab)
            assert c1.passed and c2.passed and c3.passed
            assert c1.lhs_dim == c1.rhs_dim
            assert c2.signatures["lhs"] == c2.signatures["rhs"]

    def test_signatures_match_sink_path_counts(self, rng):
        # C*(E) is the sum over sinks w of M_{n_w}, n_w the number of paths
        # into w, and C*(E x_c G) x_gamma G = C*(E) (x) M_|G| has the blocks
        # n_w |G|.
        for _ in range(10):
            E, G, lab = _random_instance(rng)
            parts = duality.DualityParts(E, G, lab)
            for fam in (parts.fam, parts.fam_skew):
                sizes = tuple(sorted(fam.sink_block_sizes().values()))
                assert matalg.wedderburn_signature(fam.span, rng=rng) == sizes
            scaled = tuple(sorted(n * G.order for n in parts.fam.sink_block_sizes().values()))
            assert matalg.wedderburn_signature(parts.acp.span, rng=rng) == scaled
            assert matalg.wedderburn_signature(parts.target, rng=rng) == scaled

    def test_certificate_serializes(self, e1, z2, e1_z2_labeling):
        import json

        cert = certify_eqvt_iso(e1, z2, e1_z2_labeling)
        body = json.dumps(cert.as_dict(), sort_keys=True)
        assert "eqvt-iso" in body
