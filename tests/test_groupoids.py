from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import (
    equivalence_axioms_loop,
    regular_matrices,
    symmetric_group_3,
    trivial_group,
)

from skewprod import groupoids as gpd
from skewprod import fixture_path, groups, matalg, suite
from skewprod.groupoids import (
    AxiomFailed,
    BadInverse,
    BadUnits,
    Cocycle,
    CocycleError,
    EquivalenceBimodule,
    FiniteGroupoid,
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
    graded_convolution,
)
from skewprod.crossed import coaction_check

Z2 = groups.cyclic_group(2)
Z3 = groups.cyclic_group(3)
S3 = symmetric_group_3()


def group_as_groupoid(G):
    """G as a groupoid with one unit."""
    arrows = [(G.name(t), "u", "u") for t in G]
    mult = [(G.name(a), G.name(b), G.name(G.mul(a, b))) for a in G for b in G]
    inv = {G.name(t): G.name(G.inv(t)) for t in G}
    return make_groupoid(["u"], arrows, mult, inv)


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

    def test_two_identity_arrows_rejected(self):
        # Two idempotent loops that never compose both pass as identities.
        with pytest.raises(BadUnits, match="^two identity arrows at unit 'u'$"):
            make_groupoid(["u"], [("e1", "u", "u"), ("e2", "u", "u")],
                          [("e1", "e1", "e1"), ("e2", "e2", "e2")], {"e1": "e1", "e2": "e2"})

    # One entry of pair2's table (arrows x11, x12, x21, x22; x12 x21 = x11)
    # or of Z4's, changed: the rule of a left action that it breaks.
    @pytest.mark.parametrize("on, entry, value, error, rule", [
        ("pair2", (1, 2), -1, GroupoidError, "domain"),
        ("pair2", (1, 2), 3, GroupoidError, "moment"),
        ("pair2", (1, 2), 4, GroupoidError, "moment"),
        ("Z4", (1, 1), 0, NotAssociativeGroupoid, "associativity"),
    ])
    def test_multiplication_is_checked_as_a_left_action(self, pair2, on, entry, value,
                                                         error, rule):
        Q = pair2 if on == "pair2" else group_as_groupoid(groups.cyclic_group(4))
        mult = Q.mult.copy()
        mult[entry] = value
        rules = gpd._left_action_rules(mult, Q.r, Q.s, Q.unit_arrow, mult, Q.r, Q.s)
        assert next(name for name, held in rules.items() if not held) == rule
        with pytest.raises(error):
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

    @pytest.mark.parametrize("plant", [
        lambda rows, n: matalg.star_columns(rows, n),  # entries at z n + yz, not yz n + z
        lambda rows, n: sp.diags([1.0, 2.0, 1.0, 1.0]) @ rows,  # row x12 doubled
    ], ids=["transposed rows", "scaled row"])
    def test_read_back_sees_a_planted_row_builder(self, pair2, monkeypatch, plant):
        real = gpd.AlgebraSpan
        monkeypatch.setattr(gpd, "AlgebraSpan",
                            lambda n, rows, **kwargs: real(n, plant(rows, n), **kwargs))
        with pytest.raises(GroupoidError, match="does not match the multiplication table"):
            gpd.GroupoidAlgebra(pair2)

    def test_building_makes_no_sparse_product(self, monkeypatch):
        calls = Counter()
        for name in ("right_products", "left_products"):
            def counted(*args, _real=getattr(matalg, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(matalg, name, counted)
        for seed in range(5):
            alg = gpd.GroupoidAlgebra(suite.random_groupoid(np.random.default_rng(seed)))
        assert not calls
        matalg.wedderburn_signature(alg.span)  # the counters see the calls that are made
        assert calls["right_products"] and calls["left_products"]

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

    def test_beta_basis_check_sees_a_wrong_permutation(self, pair2, pair2_cocycle, monkeypatch):
        # beta built from the identity table is a valid action of Z2 on
        # C*(Q x_c G), but beta_g delta_x = delta_x, not delta_(g.x).
        skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
        act = translation_groupoid_action(skew, Z2)
        alg = convolution_algebra(skew)
        gpd.algebra_action_from_groupoid_action(alg, act)
        original = gpd.AlgebraAction.from_permutations.__func__

        def identity_table(cls, span, group, perms, **kw):
            return original(cls, span, group, np.tile(np.arange(perms.shape[1]), (2, 1)), **kw)

        monkeypatch.setattr(gpd.AlgebraAction, "from_permutations", classmethod(identity_table))
        with pytest.raises(NotAutomorphism, match="^beta_1 does not permute the basis"):
            gpd.algebra_action_from_groupoid_action(alg, act)

    def test_cocycle_validation(self, pair2):
        with pytest.raises(CocycleError):
            Cocycle(pair2, Z2, [0, 0, 1, 0])  # c(x12)=g, c(x21)=e breaks mult


class TestSemidirect:
    def test_trivial_group_is_identity(self, pair2):
        G1 = trivial_group()
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

    # Tables on pair2 (arrows x11, x12, x21, x22) or on Z4 as a one-unit
    # groupoid, each breaking one axiom of an action by automorphisms.
    @pytest.mark.parametrize("on, group, perms, message", [
        ("pair2", Z2, [[3, 2, 1, 0], [3, 2, 1, 0]], "identity element acts nontrivially"),
        ("pair2", Z2, [[0, 1, 2, 3], [3, 3, 1, 0]], "element 1 does not permute arrows"),
        ("pair2", Z2, [[0, 1, 2, 3], [1, 0, 3, 2]], "element 1 moves a unit off the units"),
        ("pair2", Z2, [[0, 1, 2, 3], [0, 2, 1, 3]], "element 1 does not respect r and s"),
        ("Z4", Z2, [[0, 1, 2, 3], [0, 2, 1, 3]], "element 1 is not multiplicative"),
        ("pair2", Z3, [[0, 1, 2, 3], [3, 2, 1, 0], [3, 2, 1, 0]], r"action law fails at \(1,1\)"),
    ])
    def test_action_defects_name_the_element(self, pair2, on, group, perms, message):
        Q = pair2 if on == "pair2" else group_as_groupoid(groups.cyclic_group(4))
        with pytest.raises(NotAutomorphism, match=f"^{message}$"):
            gpd.GroupoidAction(Q, group, np.array(perms))

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
        G1 = trivial_group()
        act = gpd.GroupoidAction(pair2, G1, np.arange(4).reshape(1, 4))
        cert = certify_semi_cross(pair2, G1, act)
        assert cert.passed

    def test_random_convolutions_within_tolerance(self, pair2, pair2_cocycle, rng):
        skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
        trans = translation_groupoid_action(skew, Z2)
        cert = certify_semi_cross(skew, Z2, trans, rng=rng)
        assert cert.passed
        assert cert.as_dict()["extra"]["random_convolution_error"] <= 1e-9


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

    def test_random_draws_into_s3(self):
        # Over a non-abelian G the dual action's u s^-1 differs from s^-1 u.
        rng = np.random.default_rng(7)
        for _ in range(6):
            Q = suite.random_groupoid(rng)
            cert = certify_gpd_iso(Q, S3, suite.random_cocycle(rng, Q, S3))
            assert cert.passed
            assert cert.equivariance_error == 0.0

    def test_coaction_checks(self, pair2, pair2_cocycle):
        alg = convolution_algebra(pair2)
        graded = graded_convolution(alg, pair2_cocycle)
        check = coaction_check(graded, pair2_cocycle.values[alg.gens])
        assert check.error == 0.0 and check.passed


class TestKernelEmbedding:
    def test_pair_z2(self, pair2, pair2_cocycle):
        rep = kernel_embedding_check(pair2, pair2_cocycle).as_dict()
        assert rep["n_arrows"] == 2  # N = units only
        assert rep["dim_preserved"] and rep["injective"]
        assert rep["expectation_error"] <= 1e-12

    def test_trivial_cocycle_identity(self, pair2):
        c = Cocycle(pair2, Z2, [0, 0, 0, 0])
        rep = kernel_embedding_check(pair2, c)
        assert rep.data["n_arrows"] == 4

    @staticmethod
    def relabeled(Q, p):
        """Q with its arrows listed in the order p, an involution."""
        p = np.asarray(p)
        mult = Q.mult[np.ix_(p, p)]
        return gpd.FiniteGroupoid(Q.units, [Q.arrows[i] for i in p], Q.r[p], Q.s[p],
                                  np.where(mult >= 0, p[mult], -1), p[Q.inv[p]])

    def test_arrow_map_that_is_no_functor_fails_star_hom(self, pair2, monkeypatch):
        # c trivial, so N = Q and i is the identity on indices.  N with x12 and
        # x21 swapped keeps its units in place, but i no longer preserves
        # products: x12 x21 = x11 in N goes to x21 x12 = x22 in Q.
        c = Cocycle(pair2, Z2, [0, 0, 0, 0])
        assert kernel_embedding_check(pair2, c).passed
        monkeypatch.setattr(gpd, "kernel_subgroupoid",
                            lambda Q, c: self.relabeled(Q, [0, 2, 1, 3]))
        rep = kernel_embedding_check(pair2, c)
        body = rep.as_dict()
        assert not rep.passed and not body["star_hom_ok"]
        assert body["expectation_ok"] and body["injective"]

    def test_units_in_other_order_fail_expectation(self, pair2, pair2_cocycle, monkeypatch):
        # N is the two unit arrows.  Listed in reverse order, i is still a
        # *-homomorphism (it swaps the two units of N), but P_N(f) at unit 1
        # reads f at x22, and P_Q(i(f)) at unit 1 reads it at x11.
        assert kernel_embedding_check(pair2, pair2_cocycle).passed
        kernel = gpd.kernel_subgroupoid(pair2, pair2_cocycle)
        monkeypatch.setattr(gpd, "kernel_subgroupoid",
                            lambda Q, c: self.relabeled(kernel, [1, 0]))
        rep = kernel_embedding_check(pair2, pair2_cocycle)
        body = rep.as_dict()
        assert not rep.passed and not body["expectation_ok"]
        assert body["star_hom_ok"] and body["expectation_error"] > 1e-12

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
        rep = expectations_and_norm_identities(skew, Z2, trans, n_random=100, rng=rng).as_dict()
        assert rep["translation_norm_error"] == 0.0
        assert rep["off_units_ok"]
        assert rep["red_semi_cross_error"] <= 1e-9
        assert rep["faithfulness_min_norm"] > 1e-6


def test_expectation_path_makes_no_sparse_product(monkeypatch):
    # Phi(b), P(Phi(b)) and its coefficient functions gather on the support
    # indices of C*(R) and C*(R) x_beta G; with the indices removed the same
    # calls take the sparse products and give the same bits.
    rng = np.random.default_rng(25)
    original = sp.csr_matrix.__matmul__
    for G in (Z2, Z3, S3) * 2:
        Q = suite.random_groupoid(rng, max_units=3, max_arrows=8)
        skew = skew_product_groupoid(Q, G, suite.random_cocycle(rng, Q, G))
        trans = translation_groupoid_action(skew, G)
        base, acp = convolution_algebra(skew), gpd.action_crossed_product(trans)
        b, = gpd.random_functions(rng, 5, acp.dim)

        def run():
            x_rows = acp.element_rows(gpd._crossed_parts(base, G, b))
            e_rows = acp.conditional_expectation_rows(x_rows, tol=1e-6)
            return x_rows, e_rows, base.to_functions(e_rows)

        with monkeypatch.context() as mp:
            calls = []
            mp.setattr(sp.csr_matrix, "__matmul__", lambda a, c: calls.append(1) or original(a, c))
            fast = run()
            assert calls == []
            mp.setattr(base.span, "support", None)
            mp.setattr(acp.span, "support", None)
            slow = run()
            assert calls
        for got, want in zip(fast[:2], slow[:2]):
            assert got.has_canonical_format and want.has_canonical_format
            for x, y in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data.view(np.int64), want.data.view(np.int64))):
                np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(fast[2].view(np.int64), slow[2].view(np.int64))


class TestEquivalences:
    def test_semidirect_kind(self, pair2, pair2_cocycle, rng):
        bim, rep = certify_equivalence("semidirect", pair2, Z2, pair2_cocycle, rng=rng)
        assert rep.passed and len(rep.checks) == 8
        assert rep.data["carrier_size"] == 8

    def test_subgroupoid_kind_h_units(self, pair2, pair2_cocycle, rng):
        bim, rep = certify_equivalence("subgroupoid", pair2, Z2, pair2_cocycle, rng=rng)
        assert rep.passed and len(rep.checks) == 8
        # H has units {(u, t) : t in c(Q^u)}; both values occur at both units.
        assert rep.data["h_units"] == 4

    def test_trivial_cocycle_identity_equivalence(self, pair2, rng):
        c = Cocycle(pair2, Z2, [0, 0, 0, 0])
        bim, rep = certify_equivalence("subgroupoid", pair2, Z2, c, rng=rng)
        assert rep.passed
        # With c trivial, H is Q x {e} and N = Q.
        assert rep.data["h_units"] == 2
        assert bim.right.n_arrows == 4

    def test_freeness_detects_fixed_points(self, pair2, pair2_cocycle):
        bim, rep = certify_equivalence("semidirect", pair2, Z2, pair2_cocycle)
        # Tamper: redirect a non-unit left arrow to act as the identity.
        hs, zs = np.nonzero(bim.left_table >= 0)
        k = np.nonzero(~np.isin(hs, bim.left.unit_arrow))[0][0]
        bim.left_table[hs[k], zs[k]] = zs[k]
        report = bim.verify()
        assert not report.passed and report.as_dict()["freeness_ok"] is False


def _verdict(check):
    try:
        return check()
    except GroupoidError as err:
        return type(err)


def _same_verdict(bim):
    """The array verify and the dict-walking oracle agree: the same report,
    or the same exception class; returns the verdict."""
    oracle = _verdict(lambda: equivalence_axioms_loop(
        bim.left, bim.right, bim.rho, bim.sigma, bim.left_table, bim.right_table))
    assert _verdict(lambda: bim.verify().as_dict()) == oracle
    return oracle


def _side(bim, side):
    """(r, s, unit arrows) of the acting groupoid, the table as a left action
    (a view) and the anchor and other moment maps: the right action is a
    left action of the opposite groupoid."""
    if side == "left":
        L = bim.left
        return L.r, L.s, L.unit_arrow, bim.left_table, bim.rho, bim.sigma
    N = bim.right
    return N.s, N.r, N.unit_arrow, bim.right_table.T, bim.sigma, bim.rho


def _plant_domain(bim, side):
    T = _side(bim, side)[3]
    h, z = np.argwhere(T >= 0)[0]
    T[h, z] = -1
    return bim


def _plant_moment(bim, side):
    # The first defined h . z moves to a cell off r(h) or off z's other moment.
    r, _, _, T, anchor, other = _side(bim, side)
    h, z = np.argwhere(T >= 0)[0]
    T[h, z] = np.nonzero((anchor != r[h]) | (other != other[z]))[0][0]
    return bim


def _plant_unit(bim, side):
    # The unit at anchor(0) moves cell 0, to a cell with the same moments if
    # there is one.
    _, _, units, T, anchor, other = _side(bim, side)
    twins = (anchor == anchor[0]) & (other == other[0])
    twins[0] = False
    T[units[anchor[0]], 0] = np.argmax(twins) if twins.any() else 1
    return bim


def _plant_associativity(bim, side):
    # A non-unit arrow sends its first cell where it sends a second one, with
    # the same other moment if there is one.
    r, _, units, T, _, other = _side(bim, side)
    h = next(h for h in range(len(r)) if h not in units and np.sum(T[h] >= 0) > 1)
    zs = np.nonzero(T[h] >= 0)[0]
    twins = zs[1:][other[zs[1:]] == other[zs[0]]]
    T[h, zs[0]] = T[h, twins[0] if len(twins) else zs[1]]
    return bim


def _plant_commuting(bim, side):
    # The right arrows fix every cell of one rho-fibre.
    fibre = np.nonzero(bim.rho == bim.rho[0])[0]
    B = bim.right_table
    B[fibre] = np.where(B[fibre] >= 0, fibre[:, None], -1)
    return bim


def _plant_orbit(bim, side):
    """Two copies of the carrier.  The groupoid of ``side`` is doubled too, so
    its orbits stay in one copy, while the other side's moment map cannot
    tell the copies apart."""
    nz, A, B = len(bim.carrier), bim.left_table, bim.right_table

    def shift(T):
        return np.where(T >= 0, T + nz, -1)

    def diag(T):
        return np.block([[T, np.full_like(T, -1)], [np.full_like(T, -1), shift(T)]])

    L, N, rho, sigma = bim.left, bim.right, bim.rho, bim.sigma
    if side == "right":
        return EquivalenceBimodule(L, disjoint_union([N, N]), bim.carrier * 2,
                                   np.r_[rho, rho], np.r_[sigma, sigma + N.n_units],
                                   np.c_[A, shift(A)], diag(B))
    return EquivalenceBimodule(disjoint_union([L, L]), N, bim.carrier * 2,
                               np.r_[rho, rho + L.n_units], np.r_[sigma, sigma],
                               diag(A), np.r_[B, shift(B)])


def _plant_freeness(bim, side):
    # Arrows with the same range and source act alike, as the first of them.
    r, s, _, T, _, _ = _side(bim, side)
    first = {}
    for h in range(len(r)):
        T[h] = T[first.setdefault((r[h], s[h]), h)]
    return bim


def _plant_extra_cell(bim, side):
    # The first undefined h . z, s(h) != anchor(z), defined as a cell w != z
    # with the moments a defined h . z would have.  No other axiom reads it:
    # a composite through it is undefined.
    r, s, _, T, anchor, other = _side(bim, side)
    for h, z in np.argwhere(T < 0):
        w = np.flatnonzero((anchor == r[h]) & (other == other[z]) & (np.arange(len(anchor)) != z))
        if len(w):
            T[h, z] = w[0]
            return bim
    raise AssertionError("no cell to define")


def _plant_conjugate(bim, side):
    # The action conjugated by a swap of two cells with the same moments:
    # again a free action with the same orbits, which need not commute with
    # the other side's.
    _, _, _, T, anchor, other = _side(bim, side)
    a, b = next((a, b) for a in range(len(anchor)) for b in range(a + 1, len(anchor))
                if anchor[a] == anchor[b] and other[a] == other[b])
    swap = np.arange(len(anchor))
    swap[[a, b]] = b, a
    T[:] = np.where(T >= 0, swap[T], -1)[:, swap]
    return bim


def _plant_kernel(bim, side):
    """The groupoid of ``side`` times Z2, acting through its first factor: an
    action, with the same orbits, whose arrows (h, 1) fix every cell."""
    G = bim.left if side == "left" else bim.right
    x = np.arange(2 * G.n_arrows)
    h, t = x // 2, x % 2
    hh = G.mult[h[:, None], h]
    K = FiniteGroupoid(G.units, [(a, k) for a in G.arrows for k in (0, 1)], G.r[h], G.s[h],
                       np.where(hh >= 0, 2 * hh + (t[:, None] ^ t), -1), 2 * G.inv[h] + t)
    if side == "left":
        return EquivalenceBimodule(K, bim.right, bim.carrier, bim.rho, bim.sigma,
                                   bim.left_table[h], bim.right_table)
    return EquivalenceBimodule(bim.left, K, bim.carrier, bim.rho, bim.sigma,
                               bim.left_table, bim.right_table[:, h])


def _plant_relabel(bim, side):
    # The last two non-unit arrows from r(0), the range of arrow 0, to itself
    # swap rows.  On Z4 they are 2 and 3, so 1 + 1 = 2 acts as 3: a bijection
    # of the arrows onto the same permutations that is not a homomorphism.
    r, s, units, T, _, _ = _side(bim, side)
    a, b = [k for k in range(len(r)) if r[k] == s[k] == r[0] and k not in units][-2:]
    T[[a, b]] = T[[b, a]]
    return bim


def _fibre_swap(side):
    """pair2 acts on two cells, one from each unit, and Z2 on the other side
    swaps them.  pair2's moment map tells the two cells apart, so the swap
    moves each cell off its fibre, and every other axiom holds."""
    P, Z, cells = pair_groupoid(2), group_as_groupoid(Z2), np.arange(2)
    from_unit = np.where(P.s[:, None] == cells, P.r[:, None], -1)  # x_ij . j = i
    into_unit = np.where(P.r == cells[:, None], P.s, -1)  # i . x_ij = j
    swap, one = np.array([[0, 1], [1, 0]]), np.zeros(2, dtype=np.int64)
    if side == "left":
        return EquivalenceBimodule(Z, P, ["a", "b"], one, cells, swap, into_unit)
    return EquivalenceBimodule(P, Z, ["a", "b"], cells, one, from_unit, swap)


def _broken_rules(bim, side):
    """The rules of :func:`_left_action_rules` that the action of ``side`` breaks."""
    r, s, units, T, anchor, other = _side(bim, side)
    mult = bim.left.mult if side == "left" else bim.right.mult.T
    rules = gpd._left_action_rules(mult, r, s, units, T, anchor, other)
    return {rule for rule, held in rules.items() if not held}


# (plant, side) -> the plant and the flag of the axiom it breaks.
PLANTS = {
    **{(rule, side): (plant, flag)
       for rule, plant, flag in (("domain", _plant_domain, "domains_ok"),
                                 ("moment", _plant_moment, "moment_compatibility_ok"),
                                 ("unit", _plant_unit, "unit_actions_ok"),
                                 ("associativity", _plant_associativity, "associativity_ok"))
       for side in ("left", "right")},
    ("commuting", "both"): (_plant_commuting, "commuting_ok"),
    ("orbit", "right"): (_plant_orbit, "orbit_bijections_ok"),
    ("orbit", "left"): (_plant_orbit, "orbit_bijections_ok"),
}
# On a principal groupoid such as pair2, arrows with the same range and
# source are equal, so this plant needs isotropy.
ISOTROPY_PLANTS = {**PLANTS, **{("freeness", side): (_plant_freeness, "freeness_ok")
                                for side in ("left", "right")}}
AXIOM_FLAGS = {flag for _, flag in ISOTROPY_PLANTS.values()}
# (plant, side) -> every flag the plant turns false on Z2 as a one-unit
# groupoid: its own, and those that the broken table breaks with it.
ISOTROPY_FLAGS = {
    **{(rule, side): flags for rule, flags in (
        ("domain", {"domains_ok", "orbit_bijections_ok"}),
        ("moment", {"moment_compatibility_ok", "unit_actions_ok", "associativity_ok",
                    "commuting_ok", "orbit_bijections_ok"}),
        ("unit", {"unit_actions_ok", "associativity_ok", "commuting_ok",
                  "orbit_bijections_ok"}),
        ("freeness", {"freeness_ok", "orbit_bijections_ok"}),
        ("orbit", {"orbit_bijections_ok"}),
    ) for side in ("left", "right")},
    ("associativity", "left"): {"associativity_ok", "commuting_ok", "orbit_bijections_ok"},
    ("associativity", "right"): {"associativity_ok", "commuting_ok", "freeness_ok",
                                 "orbit_bijections_ok"},
    ("commuting", "both"): {"commuting_ok", "freeness_ok", "orbit_bijections_ok"},
}
# The flag of each rule of :func:`_left_action_rules`, over both sides.
ACTION_RULES = {"domains_ok": "domain", "moment_compatibility_ok": "moment",
                "unit_actions_ok": "unit", "associativity_ok": "associativity"}


def _assert_planted_side(bim, flag, side):
    """A plant of an action rule breaks that rule of its own side's action
    and no rule of the other side's; any other plant breaks neither action."""
    broken = {s: _broken_rules(bim, s) for s in ("left", "right")}
    if flag in ACTION_RULES:
        other = "right" if side == "left" else "left"
        assert ACTION_RULES[flag] in broken[side] and broken[other] == set()
    else:
        assert broken == {"left": set(), "right": set()}


class TestPlantedEquivalenceDefects:
    """One planted defect per axiom of ``EquivalenceBimodule.verify`` and per
    side, each turning its axiom's flag false instead of raising.  A broken
    table may break other axioms with it: on pair2/Z2 the moment maps (rho,
    sigma) tell every carrier cell apart, so a table edit may break the
    moment rule too, and on Z2 as a one-unit groupoid every plant turns false
    exactly the flags that ISOTROPY_FLAGS lists.  The plants of
    ``test_plant_breaks_exactly_its_axiom`` and the fibre swap turn only
    their own flag false."""

    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_pair2(self, pair2, pair2_cocycle, plant):
        bim, _ = certify_equivalence("semidirect", pair2, Z2, pair2_cocycle)
        plant_fn, flag = PLANTS[plant]
        planted = plant_fn(bim, plant[1])
        report = planted.verify()
        assert not report.passed and report.as_dict()[flag] is False
        assert _same_verdict(planted) == report.as_dict()
        if flag in ACTION_RULES:  # the commuting plant breaks pair2's right moment rule
            _assert_planted_side(planted, flag, plant[1])

    @pytest.mark.parametrize("plant", sorted(ISOTROPY_PLANTS))
    def test_isotropy_breaks_the_planted_rule_and_side(self, plant):
        Q = group_as_groupoid(Z2)
        bim, _ = certify_equivalence("semidirect", Q, Z2, Cocycle(Q, Z2, [0, 0]))
        plant_fn, flag = ISOTROPY_PLANTS[plant]
        planted = plant_fn(bim, plant[1])
        verdict = _same_verdict(planted)
        assert {f for f in AXIOM_FLAGS if verdict[f] is False} == ISOTROPY_FLAGS[plant]
        _assert_planted_side(planted, flag, plant[1])

    def test_surjectivity_still_raises(self, pair2, pair2_cocycle):
        bim, _ = certify_equivalence("semidirect", pair2, Z2, pair2_cocycle)
        bim.rho = np.zeros_like(bim.rho)
        with pytest.raises(AxiomFailed, match="^left moment map is not surjective"):
            bim.verify()
        assert _same_verdict(bim) is AxiomFailed

    # Six axioms can fail alone.  The unit rule cannot: if the unit e at
    # anchor(z) moves z to w while every other axiom holds, the orbit axiom
    # gives an arrow h with h . z = z, and associativity reads
    # (e h) . z = z against e . (h . z) = w.
    @pytest.mark.parametrize("instance, plant, side, flag", [
        ("Z2", _plant_extra_cell, "left", "domains_ok"),
        ("pair2", _plant_extra_cell, "right", "domains_ok"),
        ("Z4", _plant_relabel, "left", "associativity_ok"),
        ("Z4", _plant_relabel, "right", "associativity_ok"),
        ("Z3", _plant_conjugate, "left", "commuting_ok"),
        ("Z3", _plant_conjugate, "right", "commuting_ok"),
        ("Z2", _plant_kernel, "left", "freeness_ok"),
        ("pair2", _plant_kernel, "right", "freeness_ok"),
        ("Z2", _plant_orbit, "left", "orbit_bijections_ok"),
        ("Z2", _plant_orbit, "right", "orbit_bijections_ok"),
    ])
    def test_plant_breaks_exactly_its_axiom(self, pair2, pair2_cocycle, instance, plant, side,
                                            flag):
        if instance == "pair2":
            Q, c = pair2, pair2_cocycle
        else:
            Q = group_as_groupoid(groups.cyclic_group(int(instance[1:])))
            c = Cocycle(Q, Z2, [0] * Q.n_arrows)
        bim, _ = certify_equivalence("semidirect", Q, Z2, c)
        planted = plant(bim, side)
        verdict = _same_verdict(planted)
        assert {f for f in AXIOM_FLAGS if verdict[f] is False} == {flag}
        _assert_planted_side(planted, flag, side)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_moment_rule_breaks_alone(self, side):
        bim = _fibre_swap(side)
        verdict = _same_verdict(bim)
        assert {f for f in AXIOM_FLAGS if verdict[f] is False} == {"moment_compatibility_ok"}
        _assert_planted_side(bim, "moment_compatibility_ok", side)


@pytest.mark.parametrize("kind", ["semidirect", "subgroupoid"])
def test_array_verify_equals_the_dict_oracle(kind):
    rng = np.random.default_rng(6161)
    for k in range(18):
        G = (Z2, Z3, S3)[k % 3]
        Q = suite.random_groupoid(rng, max_units=4, max_arrows=12)
        bim, _ = certify_equivalence(kind, Q, G, suite.random_cocycle(rng, Q, G))
        assert isinstance(_same_verdict(bim), dict)


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
            _, check = evaluator(a, b, tol=1e-9)
            assert check.passed and check.error <= 1e-9

    def test_module_structure(self, pair2, pair2_cocycle, rng):
        rep = verify_bimodule_module_structure(
            pair2, pair2_cocycle, n_random=40, rng=rng
        ).as_dict()
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

    def test_s3_fixture_is_non_abelian(self, rng):
        # S3 as a one-unit groupoid with the identity cocycle: C*(S3) is
        # C + C + M_2, so both sides are that tensored with M_6.
        G = groups.FiniteGroup.from_json(fixture_path("s3").read_text())
        Q, names = gpd.groupoid_from_json(fixture_path("s3-groupoid").read_text())
        cert = certify_full_groupoid(Q, G, cocycle_from_names(Q, G, names), rng=rng)
        assert cert.passed
        assert cert.signatures == {"lhs": (6, 6, 12), "rhs": (6, 6, 12)}

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


class TestGeneratingArrows:
    @pytest.mark.parametrize("H", [trivial_group(), Z2, Z3, S3], ids=["1", "Z2", "Z3", "S3"])
    def test_two_k_minus_one_copies_of_the_isotropy(self, H):
        for k in (1, 2, 3):
            Q = transitive_groupoid(k, H)
            gens = gpd._generating_arrows(Q)
            assert len(gens) == (2 * k - 1) * H.order
            assert np.array_equal(np.sort(Q.inv[gens]), gens)
            assert np.array_equal(convolution_algebra(Q).gens, gens)

    def test_a_set_that_does_not_generate_is_refused(self, monkeypatch):
        # pair(3) has no isotropy: each generator off the units is the only
        # arrow of its kind, and the unit at the base is x12 x21.  A Z2
        # isotropy makes every single arrow a product of the others.
        generating_arrows = gpd._generating_arrows
        for Q, refused in ((pair_groupoid(3), lambda x: Q.r[x] != Q.s[x]),
                           (transitive_groupoid(2, Z2), lambda x: False)):
            gens = generating_arrows(Q)
            for k, x in enumerate(gens):
                monkeypatch.setattr(gpd, "_generating_arrows",
                                    lambda Q, kept=np.delete(gens, k): kept)
                if refused(x):
                    with pytest.raises(GroupoidError, match="do not generate"):
                        gpd.GroupoidAlgebra(Q)
                else:
                    assert gpd.GroupoidAlgebra(Q).span.gen_rows.shape[0] == len(gens) - 1

    def test_reports_equal_those_of_every_arrow_as_generator(self, monkeypatch):
        def reports():
            out = []
            for seed in range(30):
                rng = np.random.default_rng(seed)
                G = (Z2, Z3, S3)[seed % 3]
                Q = suite.random_groupoid(rng, max_units=4, max_arrows=12)
                c = suite.random_cocycle(rng, Q, G)
                skew = skew_product_groupoid(Q, G, c)
                trans = translation_groupoid_action(skew, G)
                out.append((
                    matalg.wedderburn_signature(convolution_algebra(Q).span),
                    certify_gpd_iso(Q, G, c).as_dict(),
                    certify_semi_cross(skew, G, trans, rng=np.random.default_rng(seed)).as_dict(),
                    certify_full_groupoid(Q, G, c, rng=np.random.default_rng(seed)).signatures))
            return out

        with_gens = reports()
        monkeypatch.setattr(gpd, "_generating_arrows", lambda Q: np.arange(Q.n_arrows))
        assert reports() == with_gens

    def test_q3_s3_fixture_passes_the_three_theorems(self, rng):
        # Q_3 = transitive(3, Z2) + pair(3), with its rng-0 S3 cocycle: two
        # multi-unit components over a non-abelian G.
        G = groups.FiniteGroup.from_json(fixture_path("s3").read_text())
        Q, names = gpd.groupoid_from_json(fixture_path("q3-s3").read_text())
        c = cocycle_from_names(Q, G, names)
        q3 = disjoint_union([transitive_groupoid(3, Z2), pair_groupoid(3)])
        for field in ("r", "s", "mult", "inv"):
            assert np.array_equal(getattr(Q, field), getattr(q3, field))
        assert np.array_equal(c.values,
                              suite.random_cocycle(np.random.default_rng(0), q3, G).values)
        skew = skew_product_groupoid(Q, G, c)
        certs = [certify_gpd_iso(Q, G, c),
                 certify_semi_cross(skew, G, translation_groupoid_action(skew, G)),
                 certify_full_groupoid(Q, G, c, rng=rng)]
        assert all(cert.passed for cert in certs)
        assert certs[2].signatures["lhs"] == certs[2].signatures["rhs"]


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
    """The semi-cross star map, the batched random-convolution and
    expectation checks: planted defects next to the same call on correct
    input, and loops over one element at a time as the oracle."""

    @pytest.fixture
    def setup(self, pair2, pair2_cocycle):
        skew = skew_product_groupoid(pair2, Z2, pair2_cocycle)
        return skew, translation_groupoid_action(skew, Z2)

    def test_semidirect_of_trivial_action_fails_semi_cross(self, setup, monkeypatch):
        skew, trans = setup
        body = certify_semi_cross(skew, Z2, trans).as_dict()
        assert body["star_map"]["multiplicative"] and body["star_map"]["star_preserving"]
        assert body["extra"]["random_convolution_ok"]
        trivial = gpd.GroupoidAction(skew, Z2, np.tile(np.arange(skew.n_arrows), (2, 1)))
        original = gpd.semidirect_product
        monkeypatch.setattr(gpd, "semidirect_product",
                            lambda R, G, action: original(R, G, trivial))
        cert = certify_semi_cross(skew, Z2, trans)
        body = cert.as_dict()
        assert not body["star_map"]["multiplicative"]
        assert not body["star_map"]["star_preserving"]
        assert not body["extra"]["random_convolution_ok"]
        assert not cert.passed

    def test_crossed_product_of_another_action_fails_expectations(self, setup, monkeypatch):
        skew, trans = setup
        assert expectations_and_norm_identities(skew, Z2, trans, n_random=20).passed
        other = transitive_groupoid(2, Z2)  # 8 arrows, as skew has
        assert other.n_arrows == skew.n_arrows
        other_acp = gpd.action_crossed_product(
            gpd.GroupoidAction(other, Z2, np.tile(np.arange(other.n_arrows), (2, 1)))
        )
        monkeypatch.setattr(gpd, "action_crossed_product", lambda action: other_acp)
        rep = expectations_and_norm_identities(skew, Z2, trans, n_random=20)
        body = rep.as_dict()
        assert not rep.passed and not body["red_semi_cross_ok"]
        assert body["red_semi_cross_error"] > 1e-9
        assert body["translation_norm_ok"] and body["off_units_ok"] and body["faithfulness_ok"]

    def test_norm_changing_translation_fails_translation_norm(self, setup, monkeypatch):
        skew, trans = setup
        assert expectations_and_norm_identities(skew, Z2, trans, n_random=20).passed
        # beta_g read through a cyclic shift of the arrows, which carries unit
        # arrows off the units: sup |P_R(beta_g f)| is no longer sup |P_R(f)|.
        # The semidirect and crossed products stay the ones built above.
        shifted = trans.arrow_perm.copy()
        shifted[1] = np.roll(shifted[1], 1)
        monkeypatch.setattr(trans, "arrow_perm", shifted)
        rep = expectations_and_norm_identities(skew, Z2, trans, n_random=20)
        body = rep.as_dict()
        assert not rep.passed and not body["translation_norm_ok"]
        assert body["translation_norm_error"] > 0
        assert body["red_semi_cross_ok"] and body["off_units_ok"] and body["faithfulness_ok"]

    def test_errors_equal_the_per_element_loops(self, setup):
        skew, trans = setup
        cert = certify_semi_cross(skew, Z2, trans, rng=np.random.default_rng(5))
        rep = expectations_and_norm_identities(
            skew, Z2, trans, n_random=40, rng=np.random.default_rng(6)
        )
        convolution = _convolution_loop(skew, Z2, trans, np.random.default_rng(5))
        assert cert.as_dict()["extra"]["random_convolution_error"] == convolution
        assert rep.as_dict()["red_semi_cross_error"] == _expectation_loop(
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
    lam = regular_matrices(G)[0]
    for s in G:
        pi = acp.pi_tilde_rows(base.represent_rows(phi[s][None, :]))
        u_s = sp.kron(sp.identity(R.n_arrows), lam[s], format="csr")
        out = out + pi.reshape(acp.ambient_dim, acp.ambient_dim).tocsr() @ u_s
    # Canonical index order: a sparse product adds its terms in stored order.
    return out.sorted_indices()


def _convolution_loop(R, G, action, rng):
    """random_convolution_error, one element at a time."""
    semi, base, acp = _loop_parts(R, G, action)
    lhs_alg = convolution_algebra(semi)
    conv = 0.0
    for _ in range(4):
        f = rng.standard_normal(semi.n_arrows) + 1j * rng.standard_normal(semi.n_arrows)
        g = rng.standard_normal(semi.n_arrows) + 1j * rng.standard_normal(semi.n_arrows)
        fg = lhs_alg.convolve(f, g)
        lhs = _one_element(R, G, semi, base, acp, f) @ _one_element(R, G, semi, base, acp, g)
        conv = max(conv, matalg.frobenius(lhs - _one_element(R, G, semi, base, acp, fg)))
    return conv


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
