from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from skewprod import groupoids as gpd
from skewprod import groups, matalg
from skewprod.groupoids import (
    AxiomFailed,
    BadInverse,
    BadUnits,
    Cocycle,
    CocycleError,
    FormulaMismatch,
    GroupoidError,
    NotAssociativeGroupoid,
    NotAutomorphism,
    certify_equivalence,
    certify_full_groupoid,
    certify_gpd_iso,
    certify_semi_cross,
    cocycle_from_names,
    convolution_algebra,
    disjoint_union,
    expectations_and_norm_identities,
    group_as_groupoid,
    kernel_embedding_check,
    make_groupoid,
    pair_groupoid,
    semidirect_product,
    skew_product_groupoid,
    subgroupoid_on_arrows,
    translation_groupoid_action,
    transitive_groupoid,
    units_only_groupoid,
    verify_bimodule_module_structure,
    verify_graded_coaction,
    graded_convolution,
)

Z2 = groups.cyclic_group(2)
Z3 = groups.cyclic_group(3)


@pytest.fixture
def pair2():
    return pair_groupoid(2)


@pytest.fixture
def pair2_cocycle(pair2):
    return cocycle_from_names(
        pair2, Z2, {"x11": "e", "x22": "e", "x12": "g", "x21": "g"}
    )


class TestMakeGroupoid:
    def test_pair_groupoid(self, pair2):
        assert pair2.n_units == 2 and pair2.n_arrows == 4

    def test_group_as_one_unit_groupoid(self):
        Q = group_as_groupoid(Z2)
        assert Q.n_units == 1 and Q.n_arrows == 2

    def test_disjoint_union(self):
        D = disjoint_union([pair_groupoid(2), pair_groupoid(2)])
        assert D.n_units == 4 and D.n_arrows == 8

    def test_missing_unit_rejected(self):
        with pytest.raises(BadUnits):
            make_groupoid(["1"], [("x", "1", "1")], [], {"x": "x"})

    def test_bad_inverse_rejected(self):
        # Two units, one cross arrow pair, but inverse map points wrong.
        units = ["1", "2"]
        arrows = [("a", "1", "1"), ("b", "2", "2"), ("x", "2", "1"), ("y", "1", "2")]
        mult = [
            ("a", "a", "a"), ("b", "b", "b"),
            ("a", "x", "x"), ("x", "b", "x"),
            ("b", "y", "y"), ("y", "a", "y"),
            ("x", "y", "a"), ("y", "x", "b"),
        ]
        with pytest.raises(BadInverse):
            make_groupoid(units, arrows, mult, {"a": "a", "b": "b", "x": "x", "y": "y"})

    def test_non_associative_rejected(self):
        # Z4-shaped arrow set with a twisted table fails associativity.
        Q = group_as_groupoid(groups.cyclic_group(4))
        mult = Q.mult.copy()
        mult[1, 1] = 0  # g*g = e is inconsistent with the rest
        with pytest.raises((NotAssociativeGroupoid, BadInverse, GroupoidError)):
            gpd.FiniteGroupoid(Q.units, Q.arrows, Q.r, Q.s, mult, Q.inv)

    def test_json_round_trip(self, pair2):
        text = pair2.to_json()
        back, cocycle = gpd.groupoid_from_json(text)
        assert back.n_units == 2 and back.n_arrows == 4
        assert cocycle is None


class TestConvolutionAlgebra:
    def test_pair_is_m2(self, pair2):
        alg = convolution_algebra(pair2)
        assert alg.dim == 4
        assert matalg.wedderburn_signature(alg.span) == (2,)
        f = np.zeros(4)
        f[pair2.arrow_index("x12")] = 1
        g = np.zeros(4)
        g[pair2.arrow_index("x21")] = 1
        h = alg.convolve(f, g)
        assert h[pair2.arrow_index("x11")] == 1 and np.count_nonzero(h) == 1

    def test_group_algebra_characters(self):
        alg = convolution_algebra(group_as_groupoid(Z2))
        assert matalg.wedderburn_signature(alg.span) == (1, 1)

    def test_units_only_commutative(self):
        alg = convolution_algebra(units_only_groupoid(3))
        assert matalg.wedderburn_signature(alg.span) == (1, 1, 1)

    def test_dimension_is_arrow_count(self, rng):
        Q = transitive_groupoid(2, Z2)
        alg = convolution_algebra(Q)
        assert alg.dim == Q.n_arrows == 8
        # Transitive with Z2 isotropy: blocks |orbit| x (isotropy irrep dims).
        assert matalg.wedderburn_signature(alg.span) == (2, 2)

    def test_star_matches_function_involution(self, pair2, rng):
        alg = convolution_algebra(pair2)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        n = pair2.n_arrows
        lhs, rhs = alg.represent_rows([alg.star(f), f]).toarray().reshape(2, n, n)
        rhs = rhs.conj().T
        assert matalg.frobenius(lhs - rhs) < 1e-12


class TestSkewProductGroupoid:
    def test_pair_z2_splits(self, pair2, pair2_cocycle):
        skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
        assert skew.n_units == 4 and skew.n_arrows == 8
        alg = convolution_algebra(skew)
        assert matalg.wedderburn_signature(alg.span) == (2, 2)

    def test_trivial_cocycle_copies(self, pair2):
        c = Cocycle(pair2, Z2, [0, 0, 0, 0])
        skew = skew_product_groupoid(pair2, Z2, c)
        assert matalg.wedderburn_signature(convolution_algebra(skew).span) == (2, 2)

    def test_beta_translation_formula(self, pair2, pair2_cocycle):
        # beta_s(f)(x, t) = f(x, t s): on basis functions, delta_(x,a) moves
        # to delta_(x, a s^-1).
        skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
        act = translation_groupoid_action(skew, Z2)
        for i, (x, aname) in enumerate(skew.arrows):
            a = Z2.index(aname)
            moved = skew.arrows[act.arrow(1, i)]
            assert moved == (x, Z2.name(Z2.mul(a, Z2.inv(1))))

    def test_cocycle_validation(self, pair2):
        with pytest.raises(CocycleError):
            Cocycle(pair2, Z2, [0, 0, 1, 0])  # c(x12)=g, c(x21)=e breaks mult


class TestSemidirect:
    def test_trivial_group_is_identity(self, pair2):
        G1 = groups.trivial_group()
        act = gpd.GroupoidAction(pair2, G1, np.arange(4).reshape(1, 4))
        semi = semidirect_product(pair2, G1, act)
        assert semi.n_arrows == pair2.n_arrows
        assert matalg.wedderburn_signature(convolution_algebra(semi).span) == (2,)

    def test_units_swap_transformation_groupoid(self):
        R = units_only_groupoid(2)
        act = gpd.GroupoidAction(R, Z2, np.array([[0, 1], [1, 0]]))
        semi = semidirect_product(R, Z2, act)
        assert semi.n_arrows == 4
        assert matalg.wedderburn_signature(convolution_algebra(semi).span) == (2,)

    def test_skew_semidirect_arrow_count(self, pair2, pair2_cocycle):
        skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
        trans = translation_groupoid_action(skew, Z2)
        semi = semidirect_product(skew, Z2, trans)
        assert semi.n_arrows == 8 * 2


class TestCertifySemiCross:
    def test_units_swap(self):
        R = units_only_groupoid(2)
        act = gpd.GroupoidAction(R, Z2, np.array([[0, 1], [1, 0]]))
        cert = certify_semi_cross(R, Z2, act)
        assert cert.passed
        assert cert.lhs_dim == cert.rhs_dim == 4

    def test_trivial_group(self, pair2):
        G1 = groups.trivial_group()
        act = gpd.GroupoidAction(pair2, G1, np.arange(4).reshape(1, 4))
        cert = certify_semi_cross(pair2, G1, act)
        assert cert.passed

    def test_random_convolutions_within_tolerance(self, pair2, pair2_cocycle, rng):
        skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
        trans = translation_groupoid_action(skew, Z2)
        cert = certify_semi_cross(skew, Z2, trans, rng=rng)
        assert cert.passed
        assert cert.extra["random_convolution_error"] <= 1e-9


class TestCertifyGpdIso:
    def test_pair_z2(self, pair2, pair2_cocycle):
        cert = certify_gpd_iso(pair2, Z2, pair2_cocycle)
        assert cert.passed
        assert cert.lhs_dim == cert.rhs_dim == 8
        assert cert.equivariance_error == 0.0

    def test_trivial_cocycle(self, pair2):
        c = Cocycle(pair2, Z2, [0, 0, 0, 0])
        cert = certify_gpd_iso(pair2, Z2, c)
        assert cert.passed

    def test_coaction_checks(self, pair2, pair2_cocycle):
        alg = convolution_algebra(pair2)
        graded = graded_convolution(alg, pair2_cocycle)
        errs = verify_graded_coaction(graded, tol=1e-12)
        assert errs["coaction_identity"] <= 1e-12
        assert errs["injective"]


class TestKernelEmbedding:
    def test_pair_z2(self, pair2, pair2_cocycle):
        rep = kernel_embedding_check(pair2, pair2_cocycle)
        assert rep["n_arrows"] == 2  # N = units only
        assert rep["dim_preserved"] and rep["injective"]
        assert rep["expectation_error"] <= 1e-12

    def test_trivial_cocycle_identity(self, pair2):
        c = Cocycle(pair2, Z2, [0, 0, 0, 0])
        rep = kernel_embedding_check(pair2, c)
        assert rep["n_arrows"] == 4

    def test_subgroupoid_closure_guard(self, pair2):
        with pytest.raises(GroupoidError):
            subgroupoid_on_arrows(pair2, [pair2.arrow_index("x12")])


class TestExpectations:
    @pytest.fixture
    def setup(self, pair2, pair2_cocycle):
        skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
        trans = translation_groupoid_action(skew, Z2)
        return skew, trans

    def test_identities(self, setup, rng):
        skew, trans = setup
        rep = expectations_and_norm_identities(skew, Z2, trans, n_random=100, rng=rng)
        assert rep["translation_norm_error"] == 0.0
        assert rep["off_units_ok"]
        assert rep["red_semi_cross_error"] <= 1e-9
        assert rep["faithfulness_min_norm"] > 1e-6


class TestEquivalences:
    def test_semidirect_kind(self, pair2, pair2_cocycle, rng):
        bim, rep = certify_equivalence("semidirect", pair2, Z2, pair2_cocycle, rng=rng)
        assert all(v for k, v in rep.items() if k.endswith("_ok"))
        assert rep["carrier_size"] == 8

    def test_subgroupoid_kind_h_units(self, pair2, pair2_cocycle, rng):
        bim, rep = certify_equivalence("subgroupoid", pair2, Z2, pair2_cocycle, rng=rng)
        assert all(v for k, v in rep.items() if k.endswith("_ok"))
        # H has units {(u, t) : t in c(Q^u)}; both values occur at both units.
        assert rep["h_units"] == 4

    def test_trivial_cocycle_identity_equivalence(self, pair2, rng):
        c = Cocycle(pair2, Z2, [0, 0, 0, 0])
        bim, rep = certify_equivalence("subgroupoid", pair2, Z2, c, rng=rng)
        assert all(v for k, v in rep.items() if k.endswith("_ok"))
        # With c trivial, H is Q x {e} and N = Q.
        assert rep["h_units"] == 2
        assert bim.right.n_arrows == 4

    def test_freeness_detects_fixed_points(self, pair2, pair2_cocycle):
        bim, rep = certify_equivalence("semidirect", pair2, Z2, pair2_cocycle)
        # Tamper: redirect a non-unit left arrow to act as the identity.
        L = bim.left
        non_unit = next(
            h for h in range(L.n_arrows)
            if h not in set(int(x) for x in L.unit_arrow)
            and any((h, z) in bim.left_act for z in range(len(bim.carrier)))
        )
        z = next(z for z in range(len(bim.carrier)) if (non_unit, z) in bim.left_act)
        bim.left_act[(non_unit, z)] = z
        with pytest.raises(AxiomFailed):
            bim.verify()


class TestBimoduleInnerProducts:
    def test_unit_value(self, pair2, pair2_cocycle):
        a = np.zeros(4)
        a[pair2.arrow_index("x12")] = 1
        val, rep = gpd.InnerProductEvaluator(pair2, pair2_cocycle)(a, a, tol=1e-9)
        # <delta_x12, delta_x12> = delta_x22, a unit function in C_c(N).
        n_keep = np.nonzero(pair2_cocycle.values == 0)[0]
        labels = [pair2.arrows[int(i)] for i in n_keep]
        got = {labels[i]: val[i] for i in range(len(val)) if abs(val[i]) > 0}
        assert got == {"x22": 1 + 0j}

    def test_graded_orthogonality(self, pair2, pair2_cocycle):
        a = np.zeros(4)
        a[pair2.arrow_index("x12")] = 1  # degree g
        b = np.zeros(4)
        b[pair2.arrow_index("x11")] = 1  # degree e
        val, _ = gpd.InnerProductEvaluator(pair2, pair2_cocycle)(a, b, tol=1e-9)
        assert np.max(np.abs(val)) == 0.0

    def test_formulas_agree_random(self, pair2, pair2_cocycle, rng):
        evaluator = gpd.InnerProductEvaluator(pair2, pair2_cocycle)
        for _ in range(100):
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            _, rep = evaluator(a, b, tol=1e-9)
            assert rep["formula_agreement_error"] <= 1e-9

    def test_module_structure(self, pair2, pair2_cocycle, rng):
        rep = verify_bimodule_module_structure(
            pair2, pair2_cocycle, n_random=40, rng=rng
        )
        assert rep["adjointability_ok"]
        assert rep["gram_psd_ok"]
        assert rep["boundedness_ok"]
        assert rep["module_action_ok"]

    def test_mismatch_detected(self, pair2, pair2_cocycle):
        # A non-cocycle grading breaks the simplification; FormulaMismatch.
        bad = np.array([0, 0, 1, 0])
        with pytest.raises(CocycleError):
            Cocycle(pair2, Z2, bad)


class TestFullGroupoidTheorem:
    def test_pair_z2(self, pair2, pair2_cocycle, rng):
        cert = certify_full_groupoid(pair2, Z2, pair2_cocycle, rng=rng)
        assert cert.passed
        assert cert.signatures["lhs"] == cert.signatures["rhs"]
        assert cert.lhs_dim == 4 * 4

    def test_isotropy_component(self, rng):
        Q = transitive_groupoid(2, Z2)
        c = gpd.Cocycle(Q, Z3, np.zeros(Q.n_arrows, dtype=np.int64))
        cert = certify_full_groupoid(Q, Z3, c, rng=rng)
        assert cert.passed


    def test_signatures_match_component_closed_form(self, rng):
        # A transitive component with k units and abelian isotropy H (trivial,
        # Z2 or Z3) gives |H| blocks M_k of C*(Q); both sides of the theorem
        # have |H| blocks of size k |G| per component.
        from skewprod.suite import random_cocycle, random_groupoid

        for _ in range(10):
            Q = random_groupoid(rng)
            G = Z2 if rng.integers(2) == 0 else Z3
            blocks = _component_blocks(Q)
            sizes = tuple(sorted(k for k, h in blocks for _ in range(h)))
            assert matalg.wedderburn_signature(convolution_algebra(Q).span, rng=rng) == sizes
            cert = certify_full_groupoid(Q, G, random_cocycle(rng, Q, G), rng=rng)
            scaled = tuple(sorted(k * G.order for k in sizes))
            assert cert.signatures == {"lhs": scaled, "rhs": scaled}


def _component_blocks(Q):
    """(k, |H|) for each transitive component of Q, with k units and isotropy
    H: the units are joined along r(x) ~ s(x), and a component with k units
    has k^2 |H| arrows."""
    root = list(range(Q.n_units))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for r, s in zip(Q.r, Q.s):
        root[find(int(r))] = find(int(s))
    comp = [find(u) for u in range(Q.n_units)]
    units = Counter(comp)
    arrows = Counter(comp[int(r)] for r in Q.r)
    return [(k, arrows[c] // k**2) for c, k in units.items()]


class TestCocycleOnRightConventionFixture:
    def test_translation_to_cocycle_on_the_right(self, pair2, pair2_cocycle):
        """The map (x, s) -> (x, c(x)^-1 s^-1) is an isomorphism from the
        convention r(x,s) = (r(x), s), s(x,s) = (s(x), s c(x)) onto ours,
        carrying left translation s.(x, a) = (x, s a) to right translation."""
        Q, G, c = pair2, Z2, pair2_cocycle
        ours = skew_product_groupoid(Q, G, c)
        # Build the other-convention groupoid directly.
        units = [(u, G.name(t)) for u in Q.units for t in G]
        arrows = []
        for i, a in enumerate(Q.arrows):
            for t in G:
                arrows.append(
                    (
                        (a, G.name(t)),
                        (Q.units[Q.s[i]], G.name(G.mul(t, c.of(i)))),
                        (Q.units[Q.r[i]], G.name(t)),
                    )
                )
        mult = []
        for i in range(Q.n_arrows):
            for j in range(Q.n_arrows):
                k = Q.mult[i, j]
                if k < 0:
                    continue
                for t in G:
                    mult.append(
                        (
                            (Q.arrows[i], G.name(t)),
                            (Q.arrows[j], G.name(G.mul(t, c.of(i)))),
                            (Q.arrows[int(k)], G.name(t)),
                        )
                    )
        inv = {}
        for i, a in enumerate(Q.arrows):
            for t in G:
                inv[(a, G.name(t))] = (Q.arrows[Q.inv[i]], G.name(G.mul(t, c.of(i))))
        other = make_groupoid(units, arrows, mult, inv)

        def iso(cell):
            x_name, s_name = cell
            x = Q.arrow_index(x_name)
            s = G.index(s_name)
            return (x_name, G.name(G.mul(G.inv(c.of(x)), G.inv(s))))

        # Bijective, multiplicative, and intertwines the actions.
        images = {iso(a) for a in other.arrows}
        assert images == set(ours.arrows)
        for i in range(other.n_arrows):
            for j in range(other.n_arrows):
                k = other.mult[i, j]
                a, b = other.arrows[i], other.arrows[j]
                ia, ib = iso(a), iso(b)
                ka = ours.mult[ours.arrow_index(ia), ours.arrow_index(ib)]
                if k < 0:
                    assert ka < 0
                else:
                    assert ours.arrows[int(ka)] == iso(other.arrows[int(k)])
        trans = translation_groupoid_action(ours, G)
        for s in G:
            for i, (x_name, a_name) in enumerate(other.arrows):
                left = (x_name, G.name(G.mul(s, G.index(a_name))))
                lhs = iso(left)
                rhs = ours.arrows[trans.arrow(s, ours.arrow_index(iso(other.arrows[i])))]
                assert lhs == rhs


def test_json_round_trip_tuple_ids(pair2, pair2_cocycle):
    # Skew products have tuple-valued arrow ids; they must survive JSON.
    skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
    back, _ = gpd.groupoid_from_json(skew.to_json())
    assert set(back.arrows) == set(skew.arrows)
    assert back.n_units == skew.n_units


class TestBatchedChecks:
    """The batched structure-constant, random-convolution and expectation
    checks: planted defects next to the same call on correct input, and
    loops over one element at a time as the oracle."""

    @pytest.fixture
    def setup(self, pair2, pair2_cocycle):
        skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
        return skew, translation_groupoid_action(skew, Z2)

    def test_semidirect_of_trivial_action_fails_semi_cross(self, setup, monkeypatch):
        skew, trans = setup
        cert = certify_semi_cross(skew, Z2, trans)
        assert cert.extra["structure_constants_ok"] and cert.extra["random_convolution_ok"]
        trivial = gpd.GroupoidAction(skew, Z2, np.tile(np.arange(skew.n_arrows), (2, 1)))
        original = gpd.semidirect_product
        monkeypatch.setattr(gpd, "semidirect_product",
                            lambda R, G, action: original(R, G, trivial))
        cert = certify_semi_cross(skew, Z2, trans)
        assert not cert.extra["structure_constants_ok"]
        assert not cert.extra["random_convolution_ok"]
        assert not cert.passed

    def test_crossed_product_of_another_action_fails_expectations(self, setup, monkeypatch):
        skew, trans = setup
        assert expectations_and_norm_identities(skew, Z2, trans, n_random=20)["red_semi_cross_ok"]
        other = transitive_groupoid(2, Z2)  # 8 arrows, as skew has
        assert other.n_arrows == skew.n_arrows
        other_acp = gpd.action_crossed_product(
            gpd.GroupoidAction(other, Z2, np.tile(np.arange(other.n_arrows), (2, 1)))
        )
        monkeypatch.setattr(gpd, "action_crossed_product", lambda action: other_acp)
        with pytest.raises((gpd.IdentityViolated, matalg.NotInSpan)):
            expectations_and_norm_identities(skew, Z2, trans, n_random=20)

    def test_errors_equal_the_per_element_loops(self, setup):
        skew, trans = setup
        cert = certify_semi_cross(skew, Z2, trans, rng=np.random.default_rng(5))
        rep = expectations_and_norm_identities(
            skew, Z2, trans, n_random=40, rng=np.random.default_rng(6)
        )
        structure, convolution = _semi_cross_loops(skew, Z2, trans, np.random.default_rng(5))
        assert cert.extra["structure_error"] == structure
        assert cert.extra["random_convolution_error"] == convolution
        assert rep["red_semi_cross_error"] == _expectation_loop(
            skew, Z2, trans, 40, np.random.default_rng(6)
        )


def _loop_parts(R, G, action):
    semi = semidirect_product(R, G, action)
    base = convolution_algebra(R)
    beta = gpd.algebra_action_from_groupoid_action(base, action)
    acp = gpd.ActionCrossedProduct(base.span, G, beta, tol=matalg.PRODUCT_TOL)
    return semi, base, acp


def _one_element(R, G, semi, base, acp, f):
    phi = {s: np.zeros(R.n_arrows, dtype=np.complex128) for s in G}
    for k, (a, tname) in enumerate(semi.arrows):
        phi[G.index(tname)][R.arrow_index(a)] = f[k]
    out = sp.csr_matrix((acp.ambient_dim, acp.ambient_dim), dtype=np.complex128)
    for s in G:
        pi = acp.pi_tilde_rows(base.represent_rows(phi[s][None, :]))
        out = out + pi.reshape(acp.ambient_dim, acp.ambient_dim).tocsr() @ acp.u_mat(s)
    return out


def _semi_cross_loops(R, G, action, rng):
    """structure_error and random_convolution_error, one element at a time."""
    semi, base, acp = _loop_parts(R, G, action)
    lhs_alg = convolution_algebra(semi)
    perm = np.zeros(semi.n_arrows, dtype=np.int64)
    for i, a in enumerate(R.arrows):
        for t in G:
            perm[semi.arrow_index((a, G.name(t)))] = i * G.order + t

    def rule(span, l):
        g = span.basis_matrix(l).toarray()
        basis = matalg.unvec_rows(span.rows, span.ambient_dim)
        prods = matalg.vec_rows([b.toarray() @ g for b in basis])
        coeffs, _ = span.coefficients_rows(prods)
        coeffs.data[np.abs(coeffs.data) < 1e-13] = 0.0
        coeffs.eliminate_zeros()
        return coeffs

    err = 0.0
    for l in range(semi.n_arrows):
        back = rule(acp.span, int(perm[l]))[perm][:, perm]
        err = max(err, matalg.frobenius(rule(lhs_alg.span, l) - back))
    star_dom, resid_dom = lhs_alg.span.coefficients_rows(
        matalg.star_columns(lhs_alg.span.rows, semi.n_arrows))
    star_img, resid_img = acp.span.coefficients_rows(
        matalg.star_columns(acp.span.rows, acp.ambient_dim))
    err = max(err, resid_dom, resid_img, matalg.frobenius(star_dom - star_img[perm][:, perm]))

    conv = 0.0
    for _ in range(4):
        f = rng.standard_normal(semi.n_arrows) + 1j * rng.standard_normal(semi.n_arrows)
        g = rng.standard_normal(semi.n_arrows) + 1j * rng.standard_normal(semi.n_arrows)
        fg = lhs_alg.convolve(f, g)
        lhs = _one_element(R, G, semi, base, acp, f) @ _one_element(R, G, semi, base, acp, g)
        conv = max(conv, matalg.frobenius(lhs - _one_element(R, G, semi, base, acp, fg)))
    return err, conv


def _expectation_loop(R, G, action, n_random, rng):
    """red_semi_cross_error, one element at a time, after the same draws for (i)."""
    semi, base, acp = _loop_parts(R, G, action)
    for _ in range(max(8, n_random // 10)):
        rng.standard_normal(R.n_arrows), rng.standard_normal(R.n_arrows)
    err = 0.0
    for _ in range(n_random):
        b = rng.standard_normal(semi.n_arrows) + 1j * rng.standard_normal(semi.n_arrows)
        x = _one_element(R, G, semi, base, acp, b)
        f_e = base.to_functions(
            acp.conditional_expectation_rows(matalg.vec_rows([x]), tol=1e-6))[0]
        lhs = float(np.max(np.abs(b[semi.unit_arrow])))
        err = max(err, abs(lhs - base.unit_sup_norm(f_e)))
    return err
