import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    basis_matrix,
    coefficients,
    constant_labeling,
    contains,
    element,
    operator_norm,
    random_element,
    regular_matrices,
    trivial_group,
)

from skewprod import groups, matalg
from skewprod.crossed import (
    ActionCrossedProduct,
    ActionInvalid,
    AlgebraAction,
    CoactionCrossedProduct,
    ck_action_from_graph_action,
)
from skewprod.graphalg import ck_representation, coaction
from skewprod.graphs import DirectedGraph, skew_product, translation_action


@pytest.fixture
def e1_setup(e1, z2, e1_z2_labeling):
    fam = ck_representation(e1)
    graded = coaction(fam, z2, e1_z2_labeling)
    skew = skew_product(e1, z2, e1_z2_labeling)
    fam_skew = ck_representation(skew)
    return fam, graded, skew, fam_skew


class TestCoactionCrossedProduct:
    def test_dimension(self, e1_setup, z2):
        fam, graded, *_ = e1_setup
        ccp = CoactionCrossedProduct(graded)
        # dim = (2 + 2) * 2 = 8, confirmed against the span-closure oracle.
        assert ccp.dim == 8
        gens = matalg.unvec_rows(ccp.span.gen_rows, ccp.ambient_dim)
        assert matalg.span_closure(gens).dim == 8

    def test_trivial_group(self, e1):
        G1 = trivial_group()
        fam = ck_representation(e1)
        graded = coaction(fam, G1, constant_labeling(e1, G1))
        ccp = CoactionCrossedProduct(graded)
        assert ccp.dim == fam.dim == 4

    def test_spanning_product_display(self, e1_setup, z2):
        # ((s_f), g u) ((s_f*), u) = (s_f s_f*, u): the multiplication rule
        # at matching indices.
        fam, graded, *_ = e1_setup
        ccp = CoactionCrossedProduct(graded)
        k_f = fam.pair(1, 0)       # s_f
        k_fstar = fam.pair(0, 1)   # s_f*
        k_ff = fam.pair(1, 1)      # s_f s_f*
        m = z2.order
        for u in z2:
            gu = z2.mul(1, u)
            lhs = basis_matrix(ccp.span, k_f * m + gu) @ basis_matrix(ccp.span, k_fstar * m + u)
            rhs = basis_matrix(ccp.span, k_ff * m + u)
            assert matalg.frobenius(lhs - rhs) == 0.0

    def test_j_maps(self, e1_setup, z2):
        fam, graded, *_ = e1_setup
        ccp = CoactionCrossedProduct(graded)
        lam, _, chi = regular_matrices(z2)
        # j_A(a) is the represented coaction and j_G resolves the identity.
        j_a = matalg.unvec_rows(graded.delta(matalg.vec_rows([fam.s[0]])), ccp.ambient_dim)
        assert matalg.frobenius(j_a[0] - sp.kron(fam.s[0], lam[1])) < 1e-12
        # j_G(chi_u) = 1 (x) chi_u, the last |G| generator rows.
        j_g = matalg.unvec_rows(ccp.span.gen_rows[-z2.order:], ccp.ambient_dim)
        for u in z2:
            assert matalg.frobenius(j_g[u] - sp.kron(sp.identity(2), chi[u])) == 0.0
        total = sum(j_g)
        ident = sp.identity(ccp.ambient_dim, format="csr", dtype=np.complex128)
        assert matalg.frobenius(total - ident) == 0.0
        for u in z2:
            assert contains(ccp.span, j_g[u], tol=1e-9)


    def test_product_degree_check_names_first_failing_pair(self, z3, monkeypatch):
        # A chain of 4 edges has 5 paths into its sink, 25 basis elements: the
        # base products b_i b_j come in two chunks of right factors j, 0-15
        # and 16-24.  Two planted terms of the wrong degree sit in the second.
        chain4 = DirectedGraph(["a", "b", "c", "d", "w"], [
            ("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d"), ("e4", "d", "w")])
        fam = ck_representation(chain4)
        graded = coaction(fam, z3, constant_labeling(chain4, z3, 1))
        assert fam.dim == 25
        assert CoactionCrossedProduct(graded).pair_check_exhaustive
        deg, d = graded.degrees, fam.dim
        original = matalg.right_products

        def planted(rows, factors, n):
            for k0, prods in original(rows, factors, n):
                if rows is fam.span.rows and k0 == 16:
                    prods = prods.tolil()
                    for i, j in [(5, 21), (2, 18)]:
                        k = np.flatnonzero(deg != z3.mul(int(deg[i]), int(deg[j])))[0]
                        prods[(j - k0) * d + i, fam.span.rows[k].indices[0]] += 1.0
                    prods = prods.tocsr()
                yield k0, prods

        monkeypatch.setattr(matalg, "right_products", planted)
        with pytest.raises(ActionInvalid, match=r"^product degree law fails at pair \(2,18\)$"):
            CoactionCrossedProduct(graded)


class TestDualAction:
    def test_swaps_and_involution(self, e1_setup, z2):
        fam, graded, *_ = e1_setup
        ccp = CoactionCrossedProduct(graded)
        dual = ccp.dual_action()
        m = z2.order
        # delta^_g swaps (p_v, e) <-> (p_v, g) for every basis element.
        pv_coeffs = coefficients(fam.span, fam.p[0])
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
        graded = coaction(fam, z3, lab)
        ccp = CoactionCrossedProduct(graded)
        dual = ccp.dual_action()
        eye = sp.identity(ccp.dim, format="csr", dtype=np.complex128)
        power = dual.coeff_mats[1] @ dual.coeff_mats[1] @ dual.coeff_mats[1]
        assert matalg.frobenius(power - eye) == 0.0

    def test_wrong_permutation_fails_the_spanning_set_check(self, chain2, z3, monkeypatch):
        # 1 (x) rho_(s^-1) in place of 1 (x) rho_s: on Z3 still an action that
        # preserves the crossed product, but it sends (a_t, u) to (a_t, u s).
        graded = coaction(ck_representation(chain2), z3, groups.make_labeling(
            chain2, {"e1": "g", "e2": "g"}, z3))
        ccp = CoactionCrossedProduct(graded)
        ccp.dual_action()
        original = AlgebraAction.from_permutations.__func__

        def inverted(cls, span, group, perms, **kw):
            return original(cls, span, group, perms[[group.inv(t) for t in group]], **kw)

        monkeypatch.setattr(AlgebraAction, "from_permutations", classmethod(inverted))
        with pytest.raises(ActionInvalid, match="does not permute the spanning set at s=1$"):
            ccp.dual_action()


class TestAlgebraAction:
    def test_translation_lift(self, e1_setup, z2):
        *_, skew, fam_skew = e1_setup
        gact = translation_action(skew, z2)
        act = ck_action_from_graph_action(fam_skew, gact)
        # gamma_g(s_(f,e)) = s_(f, e g^-1) = s_(f, g): Equation-level check.
        e_idx = skew.edge_index(("f", "e"))
        g_idx = skew.edge_index(("f", "g"))
        coeffs = coefficients(fam_skew.span, fam_skew.s[e_idx]) @ act.coeff_mats[1]
        img = element(fam_skew.span, coeffs)
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

    # e1 has the two paths w and f into its one sink, so C*(E) is M_2 on path
    # space, and the swap of the two paths is an action of Z2 that preserves it.
    @pytest.mark.parametrize("table, group, message", [
        ([[0, 1], [0, 0]], "z2", "U_1 is not unitary"),
        ([[1, 0], [0, 1]], "z2", "U_e is not the identity"),
        ([[0, 1], [1, 0], [1, 0]], "z3", r"U is not a homomorphism at \(1,1\)"),
        ([[0, 1, 2], [1, 0, 2]], "z2", "permutation table has wrong shape"),
    ], ids=["non-bijective row", "U_e not 1", "broken group law", "wider than the space"])
    def test_rejects_a_table_that_is_not_a_permutation_action(
            self, e1_setup, z2, request, table, group, message):
        fam, *_ = e1_setup
        swap = AlgebraAction.from_permutations(fam.span, z2, [[0, 1], [1, 0]])
        assert swap.coeff_mats[1].nnz == fam.dim
        with pytest.raises(ActionInvalid, match=f"^test: {message}$"):
            AlgebraAction.from_permutations(fam.span, request.getfixturevalue(group), table,
                                            name="test")

    def test_rejects_a_permutation_of_paths_into_different_sinks(self, z2):
        # u -> v and u -> w: sinks v and w, each with two paths into it.
        fork = DirectedGraph(["u", "v", "w"], [("e1", "u", "v"), ("e2", "u", "w")])
        fam = ck_representation(fork)
        v, w = fam.start[[1, 2]]  # the length-0 paths at v and w
        e1, e2 = fam.prepend[[0, 1], [v, w]]

        def swap(*pairs):
            row = np.arange(fam.ambient_dim)
            for a, b in pairs:
                row[[a, b]] = row[[b, a]]
            return [np.arange(fam.ambient_dim), row]

        # Swapping the two branches is a graph automorphism; swapping only
        # their sinks sends e_(e1, v) to e_(e1, w), out of C*(E).
        AlgebraAction.from_permutations(fam.span, z2, swap((v, w), (e1, e2)))
        with pytest.raises(ActionInvalid, match=r"Ad\(U_1\) does not preserve the span$"):
            AlgebraAction.from_permutations(fam.span, z2, swap((v, w)))


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
        G1 = trivial_group()
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
        u = u_mat(acp, 1)
        lhs = u @ pi_tilde(acp, fam_skew.s[e_idx]) @ u.conj().T
        rhs = pi_tilde(acp, fam_skew.s[g_idx])
        assert matalg.frobenius(lhs - rhs) == 0.0

    def test_covariance_fails_for_a_map_that_is_not_an_action(self, e1_setup, z2):
        # gamma_e = gamma_g = the translation: pi~(a) = gamma_g(a) (x) 1, and
        # u~_e pi~(a) u~_e* = pi~(a) != pi~(gamma_e(a)).
        *_, skew, fam_skew = e1_setup
        act = ck_action_from_graph_action(fam_skew, translation_action(skew, z2))
        ActionCrossedProduct(fam_skew.span, z2, act)
        wrong = AlgebraAction(fam_skew.span, z2, [act.coeff_mats[1], act.coeff_mats[1]])
        with pytest.raises(ActionInvalid, match=r"pi\(gamma_s\(a\)\) fails at s=0$"):
            ActionCrossedProduct(fam_skew.span, z2, wrong)


def u_mat(acp, s):
    """u~_s = 1 (x) lam_s as a matrix."""
    lam = regular_matrices(acp.group)[0]
    return sp.kron(sp.identity(acp.base.ambient_dim), lam[s], format="csr")


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
        a = random_element(acp.base, rng)
        assert matalg.frobenius(expectation(acp, pi_tilde(acp, a)) - a) < 1e-9

    def test_kills_nontrivial_coefficients(self, acp, rng):
        a = random_element(acp.base, rng)
        x = pi_tilde(acp, a) @ u_mat(acp, 1)
        assert matalg.frobenius(expectation(acp, x)) < 1e-9

    def test_not_in_span(self, acp):
        junk = sp.csr_matrix(np.ones((acp.ambient_dim, acp.ambient_dim)))
        with pytest.raises(matalg.NotInSpan):
            expectation(acp, junk, tol=1e-9)

    def test_faithful_on_positives(self, acp, rng):
        # P(x* x) has positive norm for 100 random nonzero x.
        low = np.inf
        for _ in range(100):
            x = random_element(acp.span, rng)
            p = expectation(acp, (x.conj().T @ x).tocsr(), tol=1e-6)
            low = min(low, operator_norm(p))
        assert low > 1e-6

    def test_idempotent_and_contractive(self, acp, rng):
        for _ in range(10):
            x = random_element(acp.span, rng)
            p = expectation(acp, x)
            again = expectation(acp, pi_tilde(acp, p))
            assert matalg.frobenius(again - p) < 1e-9
            assert operator_norm(p) <= operator_norm(x) + 1e-9
