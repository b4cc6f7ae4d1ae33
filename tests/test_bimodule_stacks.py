"""The stacked groupoid operations, the randomized identities that run on
them and the flat inner-product table against their one-draw-at-a-time
oracles (``oracles.py``): equal results on random groupoids over Z2, Z3 and
S3, 1-D inputs as single rows of a stack, and two planted defects that both
versions see."""
import numpy as np
import pytest
from oracles import (
    convolve_loop,
    expectation_draws_loop,
    inner_product_loop,
    inner_product_terms_loop,
    kernel_expectation_loop,
    module_action_loop,
    module_structure_loop,
    symmetric_group_3,
)

from skewprod import groupoids, groups, suite
from skewprod.groupoids import FormulaMismatch, InnerProductEvaluator

Z2, Z3, S3 = groups.cyclic_group(2), groups.cyclic_group(3), symmetric_group_3()


def random_cases(seed: int, count: int = 9):
    rng = np.random.default_rng(seed)
    for k in range(count):
        G = (Z2, Z3, S3)[k % 3]
        Q = suite.random_groupoid(rng, max_units=4, max_arrows=12)
        yield Q, suite.random_cocycle(rng, Q, G), rng


def test_stacks_equal_their_loop_oracles():
    for Q, c, rng in random_cases(71):
        alg, ev = groupoids.convolution_algebra(Q), InnerProductEvaluator(Q, c)
        keep = ev.n_keep
        f, g = groupoids.random_functions(rng, 6, Q.n_arrows, Q.n_arrows)
        on_n = np.where(np.isin(np.arange(Q.n_arrows), keep), g, 0)

        conv = alg.convolve(f, g)
        assert np.array_equal(conv, [alg.convolve(x, y) for x, y in zip(f, g)])
        assert np.max(np.abs(conv - [convolve_loop(Q, x, y) for x, y in zip(f, g)])) <= 1e-12
        assert np.array_equal(groupoids._module_action(Q, keep, f, on_n),
                              [module_action_loop(Q, keep, x, y) for x, y in zip(f, on_n)])

        # The flat table holds every per-(n, y) term list, in order.
        terms = inner_product_terms_loop(Q, c)
        lists = [t for n in keep for t in terms[int(n)]]
        assert np.array_equal(ev.z, np.concatenate([zs for zs, _ in lists]))
        assert np.array_equal(ev.zn, np.concatenate([zns for _, zns in lists]))
        val, rep = ev(f, g)
        loop = [inner_product_loop(Q, c, terms, x, y) for x, y in zip(f, g)]
        assert np.max(np.abs(val - loop)) <= 1e-12
        assert rep.error <= 1e-12


def test_module_structure_equals_its_loop_oracle():
    for k, (Q, c, _) in enumerate(random_cases(72, count=6)):
        rep = groupoids.verify_bimodule_module_structure(
            Q, c, n_random=6, rng=np.random.default_rng(k)).as_dict()
        loop = module_structure_loop(Q, c, n_random=6, rng=np.random.default_rng(k))
        assert rep.keys() == loop.keys()
        for key, value in rep.items():
            if isinstance(value, bool):
                assert value and loop[key], key
            else:
                assert abs(value - loop[key]) <= 1e-12, key


def test_expectation_checks_equal_their_loop_oracles():
    for k, (Q, c, _) in enumerate(random_cases(75, count=6)):
        G = c.group
        skew = groupoids.skew_product_groupoid(Q, G, c)
        trans = groupoids.translation_groupoid_action(skew, G)
        rep = groupoids.expectations_and_norm_identities(
            skew, G, trans, n_random=20, rng=np.random.default_rng(k)).as_dict()
        loop = expectation_draws_loop(skew, G, trans, n_random=20, rng=np.random.default_rng(k))
        assert {key: rep[key] for key in loop} == loop
        rep = groupoids.kernel_embedding_check(
            Q, c, n_random=20, rng=np.random.default_rng(k)).as_dict()
        assert rep["expectation_error"] == kernel_expectation_loop(
            Q, c, n_random=20, rng=np.random.default_rng(k))


def test_one_function_is_one_row_of_a_stack():
    Q, c, rng = next(random_cases(73))
    alg, ev = groupoids.convolution_algebra(Q), InnerProductEvaluator(Q, c)
    f, g = groupoids.random_functions(rng, 3, Q.n_arrows, Q.n_arrows)
    for op, args in ((alg.convolve, (f, g)), (alg.star, (f,)), (alg.restrict_to_units, (f,))):
        one = op(*(x[1] for x in args))
        assert one.shape == op(*args).shape[1:]
        assert np.array_equal(one, op(*args)[1])
    norm = alg.unit_sup_norm(f[1])
    assert type(norm) is float and norm == alg.unit_sup_norm(f)[1]
    val, rep = ev(f[1], g[1])
    assert val.shape == (len(ev.n_keep),)
    assert type(rep.error) is float
    # The value today's one-pair formula gives, term list by term list.
    terms = inner_product_terms_loop(Q, c)
    assert np.array_equal(val, inner_product_loop(Q, c, terms, f[1], g[1]))


def _fails(check) -> bool:
    """True when a module-structure check sees the defect: an inner-product
    formula raises FormulaMismatch, or adjointability fails."""
    try:
        report = check()
        return not (report if isinstance(report, dict) else report.as_dict())["adjointability_ok"]
    except FormulaMismatch:
        return True


def test_planted_wrong_term_fails_both_versions():
    Q, c, rng = next(random_cases(74))
    a, b = groupoids.random_functions(rng, 4, Q.n_arrows, Q.n_arrows)
    ev = InnerProductEvaluator(Q, c)
    terms = inner_product_terms_loop(Q, c)
    ev(a, b)
    inner_product_loop(Q, c, terms, a[0], b[0])
    # The first term of the first (n, y) pair reads b at another arrow, so
    # the general formula depends on the choice of y.
    ev.zn = ev.zn.copy()
    ev.zn[0] = (ev.zn[0] + 1) % Q.n_arrows
    terms[int(ev.n_keep[0])][0][1][0] = ev.zn[0]
    with pytest.raises(FormulaMismatch, match="choice of y"):
        ev(a, b)
    with pytest.raises(FormulaMismatch, match="choice of y"):
        inner_product_loop(Q, c, terms, a[0], b[0])


def test_formulas_that_disagree_fail_the_check_without_raising():
    Q, c, rng = next(random_cases(74))
    a, b = groupoids.random_functions(rng, 4, Q.n_arrows, Q.n_arrows)
    ev = InnerProductEvaluator(Q, c)
    val, check = ev(a, b)
    assert check.passed
    # The simplified formula is off by 1e-6 on N, where only the comparison of
    # the two formulas reads it.
    simplified = ev.simplified_formula
    on_n = np.isin(np.arange(Q.n_arrows), ev.n_keep)
    ev.simplified_formula = lambda a, b, tol: simplified(a, b, tol=tol) + 1e-6 * on_n
    planted, check = ev(a, b)
    assert np.array_equal(planted, val)
    assert not check.passed and abs(check.error - 1e-6) <= 1e-12


def test_planted_wrong_inverse_fails_both_versions():
    # Two units, isotropy Z2, c(i, j, h) = h; N holds the arrows (i, j, e).
    Q = groupoids.transitive_groupoid(2, Z2)
    c = groupoids.Cocycle(Q, Z2, [Z2.index(a[3]) for a in Q.arrows])

    def stacked():
        return groupoids.verify_bimodule_module_structure(
            Q, c, n_random=10, rng=np.random.default_rng(5))

    def loop():
        return module_structure_loop(Q, c, n_random=10, rng=np.random.default_rng(5))

    assert not _fails(stacked) and not _fails(loop)
    # (0, 1, g)^-1 = (1, 0, g) is replaced by (1, 0, e), an arrow with the
    # same range and source, after the algebras are built and checked.
    x = Q.arrow_index(("", 0, 1, "g"))
    Q.inv = Q.inv.copy()
    Q.inv[x] = Q.arrow_index(("", 1, 0, "e"))
    assert _fails(stacked) and _fails(loop)
