import numpy as np
import pytest
import scipy.sparse as sp

from skewprod import graphalg, graphs, groups, matalg
from skewprod.crossed import (
    ActionCrossedProduct,
    ActionInvalid,
    AlgebraAction,
    CoactionCrossedProduct,
    ck_action_from_graph_action,
)
from skewprod.graphalg import ck_representation, coaction
from skewprod.graphs import skew_product, translation_action


@pytest.fixture
def e1_setup(e1, z2, e1_z2_labeling):
    fam = ck_representation(e1)
    rc = coaction(fam, z2, e1_z2_labeling)
    skew = skew_product(e1, z2, e1_z2_labeling)
    fam_skew = ck_representation(skew)
    return fam, rc, skew, fam_skew


class TestCoactionCrossedProduct:
    def test_dimension(self, e1_setup, z2):
        fam, rc, *_ = e1_setup
        ccp = CoactionCrossedProduct(rc.graded)
        # dim = (2 + 2) * 2 = 8, confirmed against the span-closure oracle.
        assert ccp.dim == 8
        gens = matalg.unvec_rows(ccp.span.gen_rows, ccp.ambient_dim)
        assert matalg.span_closure(gens).dim == 8

    def test_trivial_group(self, e1):
        G1 = groups.trivial_group()
        fam = ck_representation(e1)
        rc = coaction(fam, G1, groups.constant_labeling(e1, G1))
        ccp = CoactionCrossedProduct(rc.graded)
        assert ccp.dim == fam.dim == 4

    def test_spanning_product_display(self, e1_setup, z2):
        # ((s_f), g u) ((s_f*), u) = (s_f s_f*, u): the multiplication rule
        # at matching indices.
        fam, rc, *_ = e1_setup
        ccp = CoactionCrossedProduct(rc.graded)
        k_f = fam.pair_index[(1, 0)]       # s_f
        k_fstar = fam.pair_index[(0, 1)]   # s_f*
        k_ff = fam.pair_index[(1, 1)]      # s_f s_f*
        m = z2.order
        for u in z2:
            gu = z2.mul(1, u)
            lhs = ccp.span.basis_matrix(k_f * m + gu) @ ccp.span.basis_matrix(k_fstar * m + u)
            rhs = ccp.span.basis_matrix(k_ff * m + u)
            assert matalg.frobenius(lhs - rhs) == 0.0

    def test_j_maps(self, e1_setup, z2):
        fam, rc, *_ = e1_setup
        ccp = CoactionCrossedProduct(rc.graded)
        # j_A(a) is the represented coaction and j_G resolves the identity.
        j_a = matalg.unvec_rows(rc.graded.delta(matalg.vec_rows([fam.s[0]])), ccp.ambient_dim)
        assert matalg.frobenius(j_a[0] - rc.delta_edge(0)) < 1e-12
        total = sum(ccp.j_g(u) for u in z2)
        ident = sp.identity(ccp.ambient_dim, format="csr", dtype=np.complex128)
        assert matalg.frobenius(total - ident) == 0.0
        for u in z2:
            assert ccp.span.contains(ccp.j_g(u), tol=1e-9)


    def test_spanning_check_names_first_failing_right_factor(self, chain2, z3, monkeypatch):
        # 9 basis elements x 3 group elements = 27 right factors, so two chunks;
        # factor 20 = (6, 2) sits in the second, with the same rule checked.
        rc = coaction(ck_representation(chain2), z3, groups.make_labeling(
            chain2, {"e1": "g", "e2": "g"}, z3))
        assert CoactionCrossedProduct(rc.graded).pair_check_exhaustive
        original = matalg.right_products

        def planted(rows, factors, n):
            for k0, prods in original(rows, factors, n):
                d = rows.shape[0]
                if k0 <= 20 < k0 + prods.shape[0] // d:
                    prods = prods.tolil()
                    prods[(20 - k0) * d, 0] += 1.0
                    prods = prods.tocsr()
                yield k0, prods

        monkeypatch.setattr(matalg, "right_products", planted)
        with pytest.raises(ActionInvalid, match=r"against right factor \(6,2\)$"):
            CoactionCrossedProduct(rc.graded)


class TestDualAction:
    def test_swaps_and_involution(self, e1_setup, z2):
        fam, rc, *_ = e1_setup
        ccp = CoactionCrossedProduct(rc.graded)
        dual = ccp.dual_action()
        m = z2.order
        # delta^_g swaps (p_v, e) <-> (p_v, g) for every basis element.
        pv_coeffs = fam.span.coefficients(fam.p[0])
        i = int(np.nonzero(np.abs(pv_coeffs) > 0)[0][0])
        row = dual.coeff_mats[1].getrow(i * m + 0).toarray().ravel()
        assert row[i * m + 1] == 1.0
        # delta^_e is the identity, delta^_g squares to the identity.
        eye = sp.identity(ccp.dim, format="csr", dtype=np.complex128)
        assert matalg.frobenius(dual.coeff_mats[0] - eye) == 0.0
        assert matalg.frobenius(dual.coeff_mats[1] @ dual.coeff_mats[1] - eye) == 0.0

    def test_order_divides_group_order(self, chain2, z3, rng):
        lab = groups.Labeling(chain2, z3, rng.integers(0, 3, 2))
        fam = ck_representation(chain2)
        rc = coaction(fam, z3, lab)
        ccp = CoactionCrossedProduct(rc.graded)
        dual = ccp.dual_action()
        eye = sp.identity(ccp.dim, format="csr", dtype=np.complex128)
        power = dual.coeff_mats[1] @ dual.coeff_mats[1] @ dual.coeff_mats[1]
        assert matalg.frobenius(power - eye) == 0.0


class TestAlgebraAction:
    def test_translation_lift(self, e1_setup, z2):
        *_, skew, fam_skew = e1_setup
        gact = translation_action(skew, z2)
        act = ck_action_from_graph_action(fam_skew, gact)
        # gamma_g(s_(f,e)) = s_(f, e g^-1) = s_(f, g): Equation-level check.
        e_idx = skew.edge_index(("f", "e"))
        g_idx = skew.edge_index(("f", "g"))
        coeffs = fam_skew.span.coefficients(fam_skew.s[e_idx]) @ act.coeff_mats[1]
        img = fam_skew.span.element(coeffs)
        assert matalg.frobenius(img - fam_skew.s[g_idx]) == 0.0

    @pytest.mark.parametrize("kind", ["edge", "vertex"])
    def test_generator_check_names_first_wrong_image(self, e1_setup, z2, monkeypatch, kind):
        # gamma is built from the permutation tables; only the generator check
        # asks action.edge / action.vertex, so one wrong answer must fail it.
        *_, skew, fam_skew = e1_setup
        gact = translation_action(skew, z2)
        true = getattr(gact, kind)
        n = skew.n_edges if kind == "edge" else skew.n_vertices

        def wrong(t, x):
            return (true(t, x) + 1) % n if (t, x) == (1, 0) else true(t, x)

        monkeypatch.setattr(gact, kind, wrong)
        with pytest.raises(ActionInvalid, match=f"^gamma_1\\(.* at {kind} 0$"):
            ck_action_from_graph_action(fam_skew, gact)

    def test_rejects_non_unitary_conjugation(self, e1_setup, z2):
        fam, *_ = e1_setup
        eye = sp.identity(fam.ambient_dim, format="csr", dtype=np.complex128)
        with pytest.raises(ActionInvalid):
            AlgebraAction.from_unitary_conjugation(fam.span, z2, [eye, 2 * eye])


class TestActionCrossedProduct:
    def test_dimension_and_signature(self, e1_setup, z2):
        *_, skew, fam_skew = e1_setup
        act = ck_action_from_graph_action(fam_skew, translation_action(skew, z2))
        acp = ActionCrossedProduct(fam_skew.span, z2, act)
        assert acp.dim == 8 * 2 == fam_skew.dim * z2.order
        gens = matalg.unvec_rows(acp.span.gen_rows, acp.ambient_dim)
        assert matalg.span_closure(gens).dim == 16
        assert matalg.wedderburn_signature(acp.span) == (4,)

    def test_trivial_group(self, e1):
        G1 = groups.trivial_group()
        fam = ck_representation(e1)
        eye = sp.identity(fam.dim, format="csr", dtype=np.complex128)
        act = AlgebraAction(fam.span, G1, [eye])
        acp = ActionCrossedProduct(fam.span, G1, act)
        assert acp.dim == fam.dim

    def test_covariance_display(self, e1_setup, z2):
        # u~_g pi~(s_(f,e)) u~_g* = pi~(gamma_g(s_(f,e))) = pi~(s_(f,g)).
        *_, skew, fam_skew = e1_setup
        act = ck_action_from_graph_action(fam_skew, translation_action(skew, z2))
        acp = ActionCrossedProduct(fam_skew.span, z2, act)
        e_idx = skew.edge_index(("f", "e"))
        g_idx = skew.edge_index(("f", "g"))
        u = acp.u_mat(1)
        lhs = u @ pi_tilde(acp, fam_skew.s[e_idx]) @ u.conj().T
        rhs = pi_tilde(acp, fam_skew.s[g_idx])
        assert matalg.frobenius(lhs - rhs) == 0.0


def pi_tilde(acp, a):
    """pi~(a) as a matrix, through the stacked form, for one element."""
    N = acp.ambient_dim
    return acp.pi_tilde_rows(matalg.vec_rows([a])).reshape(N, N).tocsr()


def expectation(acp, x, **kw):
    """P(x) through the stacked form, for one element."""
    n = acp.base.ambient_dim
    return acp.conditional_expectation_rows(matalg.vec_rows([x]), **kw).reshape(n, n).tocsr()


class TestConditionalExpectation:
    @pytest.fixture
    def acp(self, e1_setup, z2):
        *_, skew, fam_skew = e1_setup
        act = ck_action_from_graph_action(fam_skew, translation_action(skew, z2))
        return ActionCrossedProduct(fam_skew.span, z2, act)

    def test_identity_coefficient(self, acp, rng):
        a = acp.base.random_element(rng)
        assert matalg.frobenius(expectation(acp, pi_tilde(acp, a)) - a) < 1e-9

    def test_kills_nontrivial_coefficients(self, acp, rng):
        a = acp.base.random_element(rng)
        x = pi_tilde(acp, a) @ acp.u_mat(1)
        assert matalg.frobenius(expectation(acp, x)) < 1e-9

    def test_not_in_span(self, acp):
        junk = sp.csr_matrix(np.ones((acp.ambient_dim, acp.ambient_dim)))
        with pytest.raises(matalg.NotInSpan):
            expectation(acp, junk, tol=1e-9)

    def test_faithful_on_positives(self, acp, rng):
        # P(x* x) has positive norm for 100 random nonzero x.
        low = np.inf
        for _ in range(100):
            x = acp.span.random_element(rng)
            p = expectation(acp, (x.conj().T @ x).tocsr(), tol=1e-6)
            low = min(low, matalg.operator_norm(p))
        assert low > 1e-6

    def test_idempotent_and_contractive(self, acp, rng):
        for _ in range(10):
            x = acp.span.random_element(rng)
            p = expectation(acp, x)
            again = expectation(acp, pi_tilde(acp, p))
            assert matalg.frobenius(again - p) < 1e-9
            assert matalg.operator_norm(p) <= matalg.operator_norm(x) + 1e-9
