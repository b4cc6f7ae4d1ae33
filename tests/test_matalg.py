import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    basis_matrix,
    check_star_map,
    coefficients,
    contains,
    direct_sum,
    from_orthogonal,
    kron_rows_by_sparse_kron,
    matrix_unit,
    multiples_by_searchsorted,
    regular_matrices,
    symmetric_group_3,
    wedderburn_signature_dense,
)

from skewprod import groupoids, matalg, suite
from skewprod.matalg import (
    DimensionMismatch,
    NotInSpan,
    full_matrix_span,
    span_closure,
    star_map_on_basis,
    tensor_span,
    wedderburn_signature,
)


def direct_sum_span(a, b):
    """a (+) b as block-diagonal matrices, the basis of a and then of b."""
    na, nb = a.ambient_dim, b.ambient_dim
    zeros_a = sp.csr_matrix((na, na), dtype=np.complex128)
    zeros_b = sp.csr_matrix((nb, nb), dtype=np.complex128)
    mats = [direct_sum(basis_matrix(a, i), zeros_b) for i in range(a.dim)]
    mats += [direct_sum(zeros_a, basis_matrix(b, j)) for j in range(b.dim)]
    return from_orthogonal(mats, name=f"{a.name} (+) {b.name}")


def brute_force_word_dim(gens, max_len=6):
    """Independent oracle: rank of the span of all words in the generators
    and their adjoints up to a fixed length."""
    mats = [np.asarray(matalg.as_dense(g)) for g in gens]
    mats = mats + [m.conj().T for m in mats]
    words = [m for m in mats]
    frontier = list(mats)
    for _ in range(max_len):
        frontier = [w @ m for w in frontier for m in mats]
        words.extend(frontier)
        if len(words) > 4000:
            break
    stacked = np.array([w.reshape(-1) for w in words])
    return np.linalg.matrix_rank(stacked, tol=1e-9)


class TestSpanClosure:
    def test_matrix_units_generate_m2(self):
        gens = [matrix_unit(2, 0, 1), matrix_unit(2, 1, 0)]
        assert brute_force_word_dim(gens) == 4  # oracle, computed first
        span = span_closure(gens)
        assert span.dim == 4

    def test_identity_alone(self):
        assert span_closure([np.eye(2)]).dim == 1

    def test_commuting_projections(self):
        gens = [matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)]
        assert span_closure(gens).dim == 2

    def test_idempotent(self):
        span = span_closure([matrix_unit(2, 0, 1), matrix_unit(2, 1, 0)])
        again = span_closure(matalg.unvec_rows(span.rows, 2))
        assert again.dim == span.dim

    def test_gram_is_identity(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        span = span_closure([a])
        gram = (span.rows @ span.rows.conj().T).toarray()
        assert np.allclose(gram, np.eye(span.dim), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            span_closure([np.eye(2), np.eye(3)])

    def test_random_generators_match_oracle(self, rng):
        for _ in range(4):
            gens = [
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(int(rng.integers(1, 3)))
            ]
            assert span_closure(gens).dim == brute_force_word_dim(gens)


class TestAlgebraOps:
    def test_tensor_dimensions_multiply(self):
        m2 = full_matrix_span(2)
        assert tensor_span(m2, m2).dim == 16

    def test_direct_sum_dimensions_add(self):
        m2 = full_matrix_span(2)
        assert direct_sum_span(m2, m2).dim == 8

    def test_kron_adjoint(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ab = matalg._kron_rows(matalg.vec_rows([a]), matalg.vec_rows([b]), 2, 3)
        lhs = ab.reshape(6, 6).conj().T
        rhs = sp.kron(a.conj().T, b.conj().T, format="csr")
        assert matalg.frobenius(lhs - rhs) < 1e-12

    def test_span_membership(self):
        m2 = full_matrix_span(2)
        assert contains(m2, np.array([[1, 2], [3, 4.0]]))
        with pytest.raises(NotInSpan):
            diag = from_orthogonal([matrix_unit(2, 0, 0)])
            coefficients(diag, matrix_unit(2, 0, 1), tol=1e-9)


class TestCheckStarMap:
    def test_unitary_conjugation_passes(self, rng):
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        gens = [matrix_unit(2, 0, 0).toarray(), matrix_unit(2, 0, 1).toarray()]
        imgs = [u @ g @ u.conj().T for g in gens]
        report = check_star_map(gens, imgs, target=span_closure(imgs))
        assert report.passed and report.bijective
        assert report.domain_dim == report.image_dim == 4

    def test_scaling_breaks_partial_isometry(self, e1):
        # s_f -> 2 s_f violates the relation s_f* s_f = p_r(f).
        from skewprod.graphalg import ck_representation

        fam = ck_representation(e1)
        gens = [fam.s[0], fam.p[0], fam.p[1]]
        imgs = [2 * fam.s[0], fam.p[0], fam.p[1]]
        report = check_star_map(gens, imgs)
        assert not report.well_defined
        assert report.witness is not None
        assert np.linalg.norm(report.witness) > 1e-6

    def test_identity_map_passes(self):
        gens = [matrix_unit(2, 0, 1).toarray(), matrix_unit(2, 1, 0).toarray()]
        report = check_star_map(gens, gens)
        assert report.passed

    def test_composition_of_passing_maps(self, rng):
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        gens = [matrix_unit(2, 0, 1).toarray(), matrix_unit(2, 1, 0).toarray()]
        mid = [u @ g @ u.conj().T for g in gens]
        out = [v @ g @ v.conj().T for g in mid]
        assert check_star_map(gens, mid).passed
        assert check_star_map(mid, out).passed
        assert check_star_map(gens, out).passed


class TestStarMapOnBasis:
    def test_agrees_with_pair_closure_route(self, e1, rng):
        # Cross-validate the structured engine against check_star_map on a
        # small instance: conjugation by a random unitary on C*(E1).
        from skewprod.graphalg import ck_representation

        fam = ck_representation(e1)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        image_rows = sp.vstack(
            [
                sp.csr_matrix((u @ basis_matrix(fam.span, i).toarray() @ u.conj().T).reshape(1, 4))
                for i in range(fam.dim)
            ]
        )
        gens = list(fam.s) + list(fam.p)
        images = [sp.csr_matrix(u @ g.toarray() @ u.conj().T) for g in gens]
        structured = star_map_on_basis(
            fam.span, image_rows, 2, fam.span.gen_rows, matalg.vec_rows(images), tol=1e-9,
            target=fam.span,
        )
        general = check_star_map(gens, images, target=fam.span)
        assert all(c.passed for c in structured.checks) and general.passed
        assert {c.name: c.passed for c in structured.checks}["injective"] and general.injective

    def test_detects_broken_multiplicativity(self, e1):
        from skewprod.graphalg import ck_representation

        fam = ck_representation(e1)
        scale = sp.diags([2.0, 1.0, 1.0, 1.0]).tocsr()
        image_rows = scale @ fam.span.rows
        gens = fam.span.gen_rows
        report = star_map_on_basis(fam.span, image_rows, 2, gens, gens, tol=1e-9)
        assert not all(c.passed for c in report.checks)

    @pytest.mark.parametrize("entry, value, error", [((0, 1), 0.5, 0.5), ((3, 3), 0.0, 1.0)],
                             ids=["off-diagonal entry", "missing diagonal entry"])
    def test_composite_that_is_not_the_identity_fails_bijectivity(self, entry, value, error):
        # T is the identity of M_2 and its candidate inverse has one wrong
        # coefficient, so both composites differ from 1 there by 0.5 or 1;
        # a missing diagonal entry is an implicit zero of the sparse composite.
        m2 = full_matrix_span(2)
        inverse = m2.rows.tolil()
        inverse[entry] = value
        report = star_map_on_basis(m2, m2.rows, 2, m2.gen_rows, m2.gen_rows, target=m2,
                                   inverse_rows=inverse.tocsr())
        verdicts = {c.name: c.passed for c in report.checks}
        assert not verdicts["injective"] and not verdicts["surjective"]
        assert report.notes["compose_id_domain"] == report.notes["compose_id_target"] == error
        assert verdicts["multiplicative"] and verdicts["star_preserving"]

    def test_detects_defect_in_second_generator_chunk(self):
        # M_5 has 25 matrix-unit generators, so two chunks; only generator 20,
        # in the second chunk, has a wrong image: T(g_20) = 2 g_20 while T is
        # the identity on the basis.
        m5 = full_matrix_span(5)
        assert m5.gen_rows.shape[0] > 20 >= matalg.CHUNK
        scale = np.ones(m5.gen_rows.shape[0])
        scale[20] = 2.0
        images = sp.diags(scale) @ m5.gen_rows
        report = star_map_on_basis(m5, m5.rows, 5, m5.gen_rows, images)
        assert not {c.name: c.passed for c in report.checks}["multiplicative"]
        assert report.notes["mult"] == 1.0

    def test_rejects_generator_and_image_counts_that_differ(self):
        m2 = full_matrix_span(2)
        with pytest.raises(DimensionMismatch, match="4 generators but 3 images"):
            star_map_on_basis(m2, m2.rows, 2, m2.gen_rows, m2.gen_rows[:3])


def test_vec_rows_stacks_row_major_vecs(rng):
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            matrix_unit(3, 2, 1), np.zeros((3, 3)), sp.csr_matrix(np.arange(9.0).reshape(3, 3))]
    rows = matalg.vec_rows(mats)
    assert rows.dtype == np.complex128
    np.testing.assert_array_equal(rows.toarray(), [matalg.as_dense(m).ravel() for m in mats])
    for back, m in zip(matalg.unvec_rows(rows, 3), mats):
        np.testing.assert_array_equal(back.toarray(), matalg.as_dense(m))


def _complex_rows(k, n, seed):
    """k random complex rows vec(X) of n x n matrices, no two entries alike."""
    re = sp.random(k, n * n, density=0.4, random_state=seed, format="csr")
    im = sp.random(k, n * n, density=0.4, random_state=seed + 1, format="csr")
    return (re + 1j * im).tocsr()


def _check_products(products, dense_product):
    n, d = 4, 5
    rows = _complex_rows(d, n, 1)
    factors = _complex_rows(matalg.CHUNK + 3, n, 3)
    seen = []
    for k0, prods in products(rows, factors, n):
        for j in range(prods.shape[0] // d):
            g = factors[k0 + j].toarray().reshape(n, n)
            for i in range(d):
                want = dense_product(rows[i].toarray().reshape(n, n), g).ravel()
                np.testing.assert_allclose(prods[j * d + i].toarray().ravel(), want,
                                           rtol=0, atol=1e-14)
            seen.append(k0 + j)
    assert seen == list(range(factors.shape[0]))


def test_right_products_match_dense_products():
    _check_products(matalg.right_products, lambda x, g: x @ g)


def test_left_products_match_dense_products():
    _check_products(matalg.left_products, lambda x, g: g @ x)


class TestTensorSpan:
    @staticmethod
    def kron_rows(a, b):
        """The reference: a_i (x) b_j at row i dim(b) + j, one kron at a time."""
        mats = [sp.kron(ai, bj, format="csr") for ai in matalg.unvec_rows(a.rows, a.ambient_dim)
                for bj in matalg.unvec_rows(b.rows, b.ambient_dim)]
        return matalg.vec_rows(mats)

    def test_matches_kron_reference(self, rng):
        m2, m3 = full_matrix_span(2), full_matrix_span(3)
        summed = direct_sum_span(m2, full_matrix_span(1))
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        scrambled = span_closure([u @ m.toarray() @ u.conj().T
                                  for m in matalg.unvec_rows(summed.rows, 3)])
        for a, b in [(m2, m3), (summed, m2), (m3, summed), (scrambled, m2), (m2, scrambled)]:
            rows, ref = tensor_span(a, b).rows, self.kron_rows(a, b)
            assert rows.shape == ref.shape
            for got, want in zip((rows.indptr, rows.indices, rows.data),
                                 (ref.indptr, ref.indices, ref.data)):
                np.testing.assert_array_equal(got, want)

    def test_name_and_generators(self):
        m2, m3 = full_matrix_span(2), full_matrix_span(3)
        t = tensor_span(m2, m3)
        assert t.name == "M_2 (x) M_3" and t.dim == 36 and t.ambient_dim == 6
        assert t.gen_rows.shape[0] == m2.dim + m3.dim
        first = matalg.unvec_rows(t.gen_rows, 6)[0]
        assert matalg.frobenius(first - sp.kron(matrix_unit(2, 0, 0), np.eye(3))) == 0.0


class TestWedderburn:
    def test_block_diagonal(self):
        m2 = full_matrix_span(2)
        assert wedderburn_signature(direct_sum_span(m2, m2)) == (2, 2)

    def test_full_m4(self):
        assert wedderburn_signature(full_matrix_span(4)) == (4,)

    def test_tensor(self):
        m2 = full_matrix_span(2)
        assert wedderburn_signature(tensor_span(m2, m2)) == (4,)

    def test_commutative(self):
        span = from_orthogonal([matrix_unit(3, i, i) for i in range(3)])
        assert wedderburn_signature(span) == (1, 1, 1)

    def test_sum_of_squares_invariant(self, rng):
        for _ in range(3):
            sizes = sorted(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
            blocks = [full_matrix_span(s) for s in sizes]
            span = blocks[0]
            for b in blocks[1:]:
                span = direct_sum_span(span, b)
            sig = wedderburn_signature(span, rng=rng)
            assert sig == tuple(sizes)
            assert sum(s * s for s in sig) == span.dim

    def test_scrambled_by_conjugation(self, rng):
        # Conjugate M2 (+) M1 by a random unitary: the signature is invariant.
        mats = [matrix_unit(3, i, j) for i in range(2) for j in range(2)]
        mats.append(matrix_unit(3, 2, 2))
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        scrambled = [u @ m.toarray() @ u.conj().T for m in mats]
        span = span_closure(scrambled)
        assert wedderburn_signature(span, rng=rng) == (1, 2)

    def test_rejects_span_that_is_not_star_closed(self):
        # The upper-triangular algebra {E11, E12, E22} has the scalars as its
        # centre, and left multiplication by a scalar has one eigenvalue of
        # multiplicity 3, which is not a square.
        span = from_orthogonal([matrix_unit(2, 0, 0), matrix_unit(2, 0, 1), matrix_unit(2, 1, 1)])
        with pytest.raises(matalg.NotSemisimple):
            wedderburn_signature(span)


@pytest.fixture(scope="module")
def case_spans():
    """Every AlgebraSpan that one graph, one free-action and one groupoid case
    build, by kind."""
    spans = {}
    original = matalg.AlgebraSpan.__init__
    with pytest.MonkeyPatch.context() as mp:
        for kind, run in (("graph", suite.run_graph_case),
                          ("free-action", suite.run_free_action_case),
                          ("groupoid", suite.run_groupoid_case)):
            built = spans[kind] = []

            def recording(self, *args, **kwargs):
                original(self, *args, **kwargs)
                built.append(self)

            mp.setattr(matalg.AlgebraSpan, "__init__", recording)
            assert run(1).passed
    return spans


def test_every_span_a_case_builds_is_indexed(case_spans):
    # A basis that loses its support index drops every expansion to the
    # sparse products, which the reports cannot show.
    for kind, spans in case_spans.items():
        assert len(spans) >= 3, kind
        assert [s.name for s in spans if s.support is None] == [], kind


def test_signatures_match_the_dense_oracle(case_spans, rng):
    # Both draw from one seed but pick different bases of the centre, so the
    # verdicts are compared, not the draws; a signature has dim Z entries.
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    gens = (np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.eye(3)[[1, 0, 2]])  # M_2 (+) M_1
    scrambled = span_closure([u @ g @ u.conj().T for g in gens])
    assert scrambled.rows.nnz == scrambled.dim * 9  # dense basis rows: K is one block
    s3 = from_orthogonal(regular_matrices(symmetric_group_3())[0], name="C*(S3)")
    spans = [span for spans in case_spans.values() for span in spans] + [scrambled, s3]
    for span in spans:
        fast = wedderburn_signature(span, rng=np.random.default_rng(0))
        dense = wedderburn_signature_dense(span, rng=np.random.default_rng(0))
        assert fast == dense, span.name
        assert len(fast) == len(dense) and sum(b * b for b in fast) == span.dim
    assert wedderburn_signature(s3) == (1, 1, 2)
    assert wedderburn_signature(scrambled) == (1, 2)
    plant = from_orthogonal([matrix_unit(2, 0, 0), matrix_unit(2, 0, 1), matrix_unit(2, 1, 1)])
    for signature in (wedderburn_signature, wedderburn_signature_dense):
        with pytest.raises(matalg.NotSemisimple):
            signature(plant)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6), lower=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_block_eigh_equals_dense_eigh(sizes, lower, seed):
    # Permuted Hermitian blocks, two of them 1 x 1, and two blocks joined by
    # one entry stored in one triangle only: LAPACK reads the lower triangle,
    # so that entry counts when it lies there and is ignored otherwise.
    r = np.random.default_rng(seed)
    sizes = [1, *sizes, 1]
    d = sum(sizes)
    mat = np.zeros((d, d), dtype=np.complex128)
    at = np.cumsum([0, *sizes])
    for lo, hi in zip(at[:-1], at[1:]):
        x = r.standard_normal((hi - lo,) * 2) + 1j * r.standard_normal((hi - lo,) * 2)
        mat[lo:hi, lo:hi] = x + x.conj().T
    perm = r.permutation(d)
    mat = mat[np.ix_(perm, perm)]
    w, v = matalg._block_eigh(sp.csr_matrix(mat), vectors=True)
    np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(mat), rtol=0, atol=1e-12)
    np.testing.assert_allclose(mat @ v, v * w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(d), rtol=0, atol=1e-12)
    i, j = sorted(np.flatnonzero(np.isin(perm, at[:2])))[::-1 if lower else 1]
    mat[i, j] = 0.5 + 0.25j
    np.testing.assert_allclose(np.sort(matalg._block_eigh(sp.csr_matrix(mat))),
                               np.linalg.eigvalsh(mat), rtol=0, atol=1e-12)


def _expansion_inputs(span, rng):
    """Members of the span to expand: its generators, the adjoints of its
    basis, one chunk of products on each side and random combinations."""
    n = span.ambient_dim
    combos = sp.csr_matrix(rng.standard_normal((3, span.dim))
                           + 1j * rng.standard_normal((3, span.dim))) @ span.rows
    return [span.gen_rows, matalg.star_columns(span.rows, n),
            next(matalg.right_products(span.rows, span.gen_rows, n))[1],
            next(matalg.left_products(span.rows, span.gen_rows, n))[1], combos]


def test_indexed_expansion_equals_the_sparse_path(case_spans, rng):
    for spans in case_spans.values():
        for span in spans:
            for rows in _expansion_inputs(span, rng):
                fast, fast_resid = span.coefficients_rows(rows)
                slow, slow_resid = span._sparse_coefficients_rows(rows)
                assert fast.shape == slow.shape and fast.nnz == slow.nnz
                assert (fast != slow).nnz == 0, span.name
                assert fast_resid == pytest.approx(slow_resid, rel=0, abs=1e-15)
                assert slow_resid <= 1e-12


def _read_back_inputs(span, rng):
    """Stacks for coefficients_rows on an indexed span: dense combine output
    with zero rows, a right_products chunk, the same dense rows with entries
    moved off the support and entries missed, and an empty stack."""
    n2 = span.ambient_dim**2
    coeffs = rng.standard_normal((6, span.dim)) + 1j * rng.standard_normal((6, span.dim))
    coeffs[[1, 4]] = 0
    dense = span.combine(coeffs)
    off = np.setdiff1d(np.arange(n2), span.support[0])
    moved = dense.copy()
    if len(off):
        moved.indices[::5] = off[np.arange(len(moved.indices[::5])) % len(off)]
    moved.data[1::7] = 0  # stored zeros: owned columns that count as missed
    moved.sort_indices()
    chunk = next(matalg.right_products(span.rows, span.gen_rows, span.ambient_dim))[1]
    return [dense, chunk, moved, sp.csr_matrix((0, n2), dtype=np.complex128)]


def test_both_groupings_of_the_read_back_agree_bit_for_bit(case_spans, rng, monkeypatch):
    # By bins over the m d (row, owner) pairs, or by sorting the pairs with
    # np.unique: every bit of the coefficients and of the residual agrees.
    # m d <= -inf (nan for an empty stack) never holds, so -inf forces the sort.
    spans = [s for kind in case_spans.values() for s in kind]
    for span in [*spans, _phase_span(rng, 6, 9)]:
        for rows in _read_back_inputs(span, rng):
            got = {}
            for per_entry in (10**9, -np.inf):
                monkeypatch.setattr(matalg, "_BINS_PER_ENTRY", per_entry)
                got[per_entry] = span.coefficients_rows(rows)
            (bins, bins_resid), (by_sort, sort_resid) = got.values()
            _same_csr(bins, by_sort)
            assert np.float64(bins_resid).tobytes() == np.float64(sort_resid).tobytes()
            assert (bins != span._sparse_coefficients_rows(rows)[0]).nnz == 0, span.name


def test_multiples_equal_the_searchsorted_reference(case_spans):
    # The basis rows as multiples of themselves, their adjoints, the
    # products g b_i, and the basis rows with one entry moved off the support.
    for span in [s for kind in case_spans.values() for s in kind]:
        n, d = span.ambient_dim, span.dim
        r, c, x = matalg._entries(span.rows)
        inputs = [(r, c, x), (r, c % n * n + c // n, x.conj())]
        batches = matalg._index_products(span.rows, span.gen_rows, n, True, matalg.CHUNK) or ()
        inputs += [((k0 + j) * d + i, p, v) for k0, _, j, i, p, v in batches]
        off = np.setdiff1d(np.arange(n * n), span.support[0])
        if len(off):
            inputs.append((r, np.r_[off[:1], c[1:]], x))
        for gid, pos, val in inputs:
            got, want = matalg._multiples(span, gid, pos, val), multiples_by_searchsorted(
                span, gid, pos, val)
            assert (got is None) == (want is None), span.name
            assert got is None or all(map(np.array_equal, got, want)), span.name
        assert matalg._multiples(span, r, c, x) is not None, span.name
        if len(off):
            assert matalg._multiples(span, r, np.r_[off[:1], c[1:]], x) is None, span.name


def test_planted_non_members_fail_both_paths():
    # pair_groupoid(4): each delta_x has four ones, and half of the columns
    # of M_16 lie off the support of C*(Q).
    span = groupoids.GroupoidAlgebra(groupoids.pair_groupoid(4)).span
    assert span.support is not None
    x = span.rows[5].tocoo()
    assert x.nnz == 4
    off = np.setdiff1d(np.arange(span.rows.shape[1]), span.support[0])[0]
    moved_col = x.col.copy()
    moved_col[0] = off
    moved = sp.csr_matrix((x.data, (x.row, moved_col)), shape=x.shape)
    scaled = sp.csr_matrix((x.data * [2, 2, 1, 1], (x.row, x.col)), shape=x.shape)
    # 2 delta at the first column, none at the second: four entries on the
    # support of delta_x, which the gather alone would take for delta_x.
    twice = sp.csr_matrix((x.data, x.col[[0, 0, 2, 3]], [0, 4]), shape=x.shape)
    for rows in (moved, scaled, twice):
        fast, fast_resid = span.coefficients_rows(rows)
        slow, slow_resid = span._sparse_coefficients_rows(rows)
        assert (fast != slow).nnz == 0
        assert fast_resid == pytest.approx(slow_resid, rel=1e-12) and slow_resid > 1e-8


def test_overlapping_supports_take_the_sparse_path():
    # diag(1, 1) and diag(1, -1) are orthogonal with unit entries, but share
    # both columns, so no column has one owner.
    span = from_orthogonal([sp.identity(2, format="csr"), sp.diags([1.0, -1.0]).tocsr()])
    assert span.support is None
    coeffs, resid = span.coefficients_rows(matalg.vec_rows([matrix_unit(2, 0, 0)]))
    np.testing.assert_array_equal(coeffs.toarray(), [[0.5, 0.5]])
    assert resid == 0.0


def _partial_permutations(rng, n, count):
    """``count`` rows vec(g), each g with at most one entry in any matrix row
    or column; half the entries are the unit phases 1, -1, i, -i, the others
    random complex numbers, whose products are inexact."""
    rows, cols, data = [], [], []
    for k in range(count):
        size = int(rng.integers(0, n + 1))
        rows += [k] * size
        cols += list(rng.choice(n, size, replace=False) * n + rng.choice(n, size, replace=False))
        data += [complex(rng.choice(matalg.UNIT_PHASES)) if rng.integers(2)
                 else complex(*rng.standard_normal(2)) for _ in range(size)]
    return sp.csr_matrix((np.array(data, dtype=np.complex128), (rows, cols)), shape=(count, n * n))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), d=st.integers(1, 4), count=st.integers(1, matalg.CHUNK - 1),
       seed=st.integers(0, 2**32 - 1))
def test_partial_permutation_products_equal_the_sparse_products(n, d, count, seed):
    rng = np.random.default_rng(seed)
    rows = _complex_rows(d, n, int(rng.integers(1000)))
    perms = _partial_permutations(rng, n, count)
    # Either spoiler sends its chunk to the sparse products (for left products
    # the star round trip): two entries in one matrix row, or in one column.
    spoilers = [sp.csr_matrix(([1.0, 1j], ([0, 0], [0, 1])), shape=(1, n * n)),
                sp.csr_matrix(([np.exp(0.3j), 2.0], ([0, 0], [1, n + 1])), shape=(1, n * n))]
    for products, dense_product in ((matalg.right_products, lambda x, g: x @ g),
                                    (matalg.left_products, lambda x, g: g @ x)):
        for spoiler in spoilers:
            with pytest.MonkeyPatch.context() as mp:
                sparse_products = []
                original = sp.csr_matrix.__matmul__
                mp.setattr(sp.csr_matrix, "__matmul__",
                           lambda a, b: sparse_products.append(1) or original(a, b))
                (_, fast), = products(rows, perms, n)
                assert sparse_products == []
                (_, mixed), = products(rows, sp.vstack([perms, spoiler], format="csr"), n)
                assert sparse_products == [1]
            slow = mixed[:count * d]
            for got, want in ((fast.indptr, slow.indptr), (fast.indices, slow.indices),
                              (fast.data.view(np.int64), slow.data.view(np.int64))):
                np.testing.assert_array_equal(got, want)  # the data bit for bit
            g = spoiler.toarray().reshape(n, n)
            for i in range(d):
                want = dense_product(rows[i].toarray().reshape(n, n), g).ravel()
                np.testing.assert_allclose(mixed[count * d + i].toarray().ravel(), want,
                                           rtol=0, atol=1e-14)


def _signed_rows(rng, k, n):
    """k rows vec(X) of n x n matrices with random complex entries, stored
    zeros and components -0.0 among them, and some rows empty."""
    dense = (rng.standard_normal((k, n * n)) + 1j * rng.standard_normal((k, n * n)))
    dense[rng.random((k, n * n)) < 0.5] = 0
    rows = sp.csr_matrix(dense * (rng.random((k, 1)) < 0.8))
    pick = rng.random(rows.nnz)
    rows.data[pick < 0.1] = 0.0  # stored zeros
    rows.data[(pick >= 0.1) & (pick < 0.3)] = complex(-0.0, -0.0)
    rows.data.imag[(pick >= 0.3) & (pick < 0.5)] = -0.0
    return rows


def test_kron_rows_equal_the_sparse_kron(rng):
    # Index arithmetic against one sparse kron, the data compared as int64
    # views, so that every bit, the sign of a zero too, must agree.
    for _ in range(40):
        na, nb = (int(v) for v in rng.integers(1, 5, 2))
        x, y = _signed_rows(rng, int(rng.integers(0, 4)), na), _signed_rows(rng, 3, nb)
        got = matalg._kron_rows(x, y, na, nb)
        want = kron_rows_by_sparse_kron(x, y, na, nb)
        assert got.shape == want.shape
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data.view(np.int64), want.data.view(np.int64))):
            np.testing.assert_array_equal(a, b)


def _phase_span(rng, n, d):
    """d rows vec(b_i) of n x n matrices on disjoint random supports, their
    entries drawn from all four UNIT_PHASES."""
    cols = rng.permutation(n * n)[: 3 * d]
    owner = np.r_[np.arange(d), rng.integers(0, d, 2 * d)]
    data = np.array(matalg.UNIT_PHASES, dtype=np.complex128)[np.arange(3 * d) % 4]
    return matalg.AlgebraSpan(n, sp.csr_matrix((data, (owner, cols)), shape=(d, n * n)))


def _same_bits(got, want):
    assert got.shape == want.shape and got.has_canonical_format
    want = want.sorted_indices()
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data.real.view(np.int64), want.data.real.view(np.int64)),
                 (got.data.imag.view(np.int64), want.data.imag.view(np.int64))):
        np.testing.assert_array_equal(a, b)


def test_combine_equals_the_sparse_product(case_spans, rng):
    # combine against coeffs @ span.rows, every bit of the data, the sign of
    # a zero too; an indexed span gathers without a sparse product.
    spans = [_phase_span(rng, n, d) for n, d in ((3, 2), (4, 5), (6, 9))]
    assert all(np.isin(matalg.UNIT_PHASES, s.rows.data).all() for s in spans)
    spans += [s for kind in case_spans.values() for s in kind]
    closure = span_closure([np.diag([1.0, 2.0, 0]), np.eye(3)[[1, 0, 2]] * (1 + 1j)])
    assert closure.support is None
    for span in [*spans, closure]:
        k, d = 7, span.dim
        dense = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
        dense[rng.random((k, d)) < 0.3] = 0
        dense.real[rng.random((k, d)) < 0.2] = -0.0
        dense.imag[rng.random((k, d)) < 0.2] = -0.0
        dense[2] = 0  # an all-zero row
        one = sp.csr_matrix((dense[:, 0] + 1, (np.arange(k), rng.integers(0, d, k))),
                            shape=(k, d))  # one entry per row
        stored = sp.csr_matrix(dense)  # with stored zeros, whose products are dropped
        stored.data[::3] = complex(-0.0, -0.0)
        stored.data[1::3] = 0.0
        for coeffs in (dense, sp.csr_matrix(dense), stored, one, np.zeros((3, d))):
            with pytest.MonkeyPatch.context() as mp:
                calls = []
                original = sp.csr_matrix.__matmul__
                mp.setattr(sp.csr_matrix, "__matmul__",
                           lambda a, b: calls.append(1) or original(a, b))
                got = span.combine(coeffs)
            assert len(calls) == (span is closure), span.name
            _same_bits(got, sp.csr_matrix(coeffs) @ span.rows)


def _same_csr(got, want):
    """Equal CSR matrices, both canonical: shape, index dtype, indptr,
    indices and every bit of the data, the sign of a zero too."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.has_canonical_format and want.has_canonical_format
    assert got.indices.dtype == got.indptr.dtype == want.indices.dtype == want.indptr.dtype
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data.real.view(np.int64), want.data.real.view(np.int64)),
                 (np.imag(got.data).view(np.int64), np.imag(want.data).view(np.int64))):
        np.testing.assert_array_equal(a, b)


def test_csr_equals_the_coo_constructor(rng):
    # Unsorted distinct pairs with explicit zeros and -0.0 components, an
    # empty input, a single row and real data, against scipy's COO path.
    cases = []
    for _ in range(30):
        shape = tuple(int(v) for v in rng.integers(1, 9, 2))
        flat = rng.permutation(shape[0] * shape[1])[: int(rng.integers(0, shape[0] * shape[1]))]
        data = rng.standard_normal(len(flat)) + 1j * rng.standard_normal(len(flat))
        data[rng.random(len(flat)) < 0.2] = 0
        data.real[rng.random(len(flat)) < 0.2] = -0.0
        data.imag[rng.random(len(flat)) < 0.2] = -0.0
        cases.append((data, *np.divmod(flat, shape[1]), shape))
    assert any(np.any(np.diff(row * 9 + col) < 0) for _, row, col, _ in cases)
    cases += [(np.zeros(0, dtype=np.complex128), np.zeros(0, dtype=np.int64),
               np.zeros(0, dtype=np.int64), (3, 4)),
              (np.array([1.0, -0.0, 0.0, 2.5]), np.zeros(4, dtype=np.int64),
               np.array([5, 1, 0, 3]), (1, 6))]
    for data, row, col, shape in cases:
        got = matalg._csr(data, row, col, shape)
        assert got.indices.dtype == np.int32
        _same_csr(got, sp.csr_matrix((data, (row, col)), shape=shape))


def test_csr_sums_repeated_pairs_as_scipy_does(rng):
    for _ in range(10):
        row, col = rng.integers(0, 3, 12), rng.integers(0, 4, 12)
        data = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        data[::4] = complex(-0.0, 0.0)
        got = matalg._csr(data, row, col, (3, 4))
        assert got.nnz == len(np.unique(row * 4 + col)) < 12
        _same_csr(got, sp.csr_matrix((data, (row, col)), shape=(3, 4)))


def test_csr_takes_int64_indices_only_past_int32():
    # A row of 2^31 columns needs int64 indices; three entries in it
    # allocate three entries' worth, not a column-sized array.
    data, row, col = np.array([1.0, 2.0, 3.0]), np.zeros(3, dtype=np.int64), [2**31 - 1, 5, 2**30]
    tracemalloc.start()
    got = matalg._csr(data, row, col, (1, 2**31))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2**16
    assert got.indices.dtype == got.indptr.dtype == np.int64
    _same_csr(got, sp.csr_matrix((data, (row, col)), shape=(1, 2**31)))
    col[0] -= 1  # the largest column that int32 indices hold
    small = matalg._csr(data, row, col, (1, 2**31 - 1))
    assert small.indices.dtype == small.indptr.dtype == np.int32
    _same_csr(small, sp.csr_matrix((data, (row, col)), shape=(1, 2**31 - 1)))


def test_no_sparse_kron_in_src():
    # Every kron of src/ is index arithmetic through matalg._kron_coo and
    # matalg._kron_rows, so no call to a kron( is left.
    src = Path(matalg.__file__).parent
    calls = {path.name: re.findall(r"[\w.]*kron\(", path.read_text())
             for path in sorted(src.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {}
    assert "_kron_rows(" in (src / "matalg.py").read_text()
