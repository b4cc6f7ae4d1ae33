"""The exact engine of ``matalg.star_map_on_basis`` against its float
reference, ``oracles.float_star_map``.

The engine reads every basis element, generator, product g b_i, adjoint and
image as a sum of multiples of basis rows on index tables, and each of its
checks counts the terms at which two such readings differ; the reference
expands the same elements by linear algebra and compares norms at
PRODUCT_TOL.  Every certificate that goes through the star map (eqvt-iso,
direct-iso, free-action, gpd-iso, semi-cross) gets the same verdicts from
both, check by check, on random graph and groupoid draws, the S3 fixtures and
the ladder L_3 over S3, and every passing engine report has max_error exactly
0 on these and on a suite run.  Planted defects fail the same checks on both;
a basis whose 49-entry rows the reference expands inexactly is decided
exactly; an input that is not a partial-permutation basis fails every check
of the engine, with a note naming it; and L_3 and Q_3 over S3 pass every
certificate with exact star maps."""
import contextlib
import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import float_star_map, s3_ladder, s3_q3, symmetric_group_3, trivial_group

from skewprod import (cli, duality, fixture_path, graphalg, graphs, groupoids, groups, matalg,
                      suite)

S3 = symmetric_group_3()


def _paired(monkeypatch, run):
    """The engine's star-map reports of ``run()``, and the reference's on the
    same inputs."""
    index, floats = [], []
    star_map = matalg.star_map_on_basis

    def recording_star_map(*args, **kwargs):
        floats.append(float_star_map(*args, **kwargs))
        index.append(star_map(*args, **kwargs))
        return index[-1]

    monkeypatch.setattr(matalg, "star_map_on_basis", recording_star_map)
    run()
    return index, floats


def _verdicts(report):
    return [(c.name, c.passed) for c in report.checks]


def _assert_same(index, floats):
    """The same verdicts, and each passing engine report exact."""
    assert len(index) == len(floats) > 0
    for a, b in zip(index, floats):
        assert _verdicts(a) == _verdicts(b)
        assert a.max_error == 0.0 or not all(c.passed for c in a.checks)


def _graph_certificates(E, G, lab):
    parts = duality.DualityParts(E, G, lab)
    duality.certify_eqvt_iso(E, G, lab, parts=parts)
    duality.certify_direct_iso(E, G, lab, compute_signatures=False, parts=parts)
    duality.certify_free_action(parts.skew, graphs.translation_action(parts.skew, G))


def test_graph_certificates_agree_with_the_reference(monkeypatch):
    rng = np.random.default_rng(2727)
    draws = [suite.random_graph_instance(rng) for _ in range(30)]
    index, floats = _paired(monkeypatch, lambda: [_graph_certificates(*draw) for draw in draws])
    _assert_same(index, floats)
    assert len(index) == 4 * len(draws) and all(report.max_error == 0.0 for report in index)


def _groupoid_certificates(Q, G, c):
    groupoids.certify_gpd_iso(Q, G, c)
    skew = groupoids.skew_product_groupoid(Q, G, c)
    groupoids.certify_semi_cross(skew, G, groupoids.translation_groupoid_action(skew, G))


def test_groupoid_certificates_agree_with_the_reference(monkeypatch):
    rng = np.random.default_rng(2728)
    draws = []
    for k in range(30):
        G = (suite.suite_groups() + [S3])[k % 5]
        Q = suite.random_groupoid(rng)
        draws.append((Q, G, suite.random_cocycle(rng, Q, G)))
    index, floats = _paired(
        monkeypatch, lambda: [_groupoid_certificates(*draw) for draw in draws])
    _assert_same(index, floats)
    assert len(index) == 2 * len(draws) and all(report.max_error == 0.0 for report in index)


def test_s3_fixtures_and_ladder_agree_with_the_reference(monkeypatch):
    G = groups.FiniteGroup.from_json(fixture_path("s3").read_text())
    chain = graphs.labeled_graph_from_json(fixture_path("chain-s3").read_text(), G)
    Q, names = groupoids.groupoid_from_json(fixture_path("q3-s3").read_text())
    c = groupoids.cocycle_from_names(Q, G, names)
    E, _, lab = s3_ladder(3)

    def run():
        _graph_certificates(chain[0], G, chain[1])
        _groupoid_certificates(Q, G, c)
        parts = duality.DualityParts(E, S3, lab)
        duality.certify_eqvt_iso(E, S3, lab, parts=parts)
        duality.certify_direct_iso(E, S3, lab, compute_signatures=False, parts=parts)

    index, floats = _paired(monkeypatch, run)
    _assert_same(index, floats)
    assert len(index) == 8 and all(report.max_error == 0.0 for report in index)


def test_every_star_map_of_a_suite_run_is_exact(monkeypatch):
    reports = []
    star_map = matalg.star_map_on_basis
    monkeypatch.setattr(matalg, "star_map_on_basis",
                        lambda *a, **k: reports.append(star_map(*a, **k)) or reports[-1])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["suite", "run", "--seed", "0", "--cases", "6", "--json"]) == 0
    assert reports and all(r.max_error == 0.0 and "unindexed" not in r.notes for r in reports)


def test_exact_paths_make_no_sparse_product(monkeypatch):
    # One graph, free-action and groupoid case per seed: the star map, the
    # relation check, the path words and Theta's side checks run on index
    # tables, and the sparse products of the cases come from elsewhere.
    inside, products = [], []
    matmul = sp.csr_matrix.__matmul__
    monkeypatch.setattr(sp.csr_matrix, "__matmul__",
                        lambda a, b: products.append(bool(inside)) or matmul(a, b))

    def entering(original):
        def entered(*args, **kwargs):
            inside.append(original)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()
        return entered

    for module, name in ((matalg, "star_map_on_basis"), (graphalg, "_ck_relations_for"),
                         (graphalg, "_path_images")):
        monkeypatch.setattr(module, name, entering(getattr(module, name)))
    side_errors = duality.DualityParts.theta_side_errors
    monkeypatch.setattr(side_errors, "func", entering(side_errors.func))
    for seed in range(3):
        for run in (suite.run_graph_case, suite.run_free_action_case, suite.run_groupoid_case):
            assert run(seed).passed
    assert products and not any(products)


@pytest.mark.parametrize("G", [groups.cyclic_group(3), S3], ids=["Z3", "S3"])
def test_semi_cross_with_an_inverted_generator_fails_both(G, monkeypatch):
    # Phi planted as delta_x -> pi~(delta_(x^-1)) u~ on one generator x of
    # C*(R x| G) that is not its own inverse, every other image kept.
    rng = np.random.default_rng(2729)
    Q = suite.random_groupoid(rng)
    skew = groupoids.skew_product_groupoid(Q, G, suite.random_cocycle(rng, Q, G))
    trans = groupoids.translation_groupoid_action(skew, G)
    semi = groupoids.semidirect_product(skew, G, trans)
    gens = groupoids.convolution_algebra(semi).gens
    k = np.flatnonzero(semi.inv[gens] != gens)[0]
    planted = gens.copy()
    planted[k] = semi.inv[gens[k]]
    star_map, reports = matalg.star_map_on_basis, []

    def planted_star_map(domain, image_rows, m, gen_rows, image_gen_rows, **kwargs):
        assert (image_gen_rows != image_rows[gens]).nnz == 0
        args = (domain, image_rows, m, gen_rows, image_rows[planted])
        reports.append((star_map(*args, **kwargs), float_star_map(*args, **kwargs)))
        return reports[-1][0]

    monkeypatch.setattr(matalg, "star_map_on_basis", planted_star_map)
    groupoids.certify_semi_cross(skew, G, trans)
    (index, reference), = reports
    _assert_same([index], [reference])
    verdicts = dict(_verdicts(index))
    assert not verdicts["multiplicative"] and not verdicts["well_defined"]
    assert index.notes["gen_consistency"] == 2.0  # delta_x, against delta_(x^-1)


def _eqvt_inputs():
    """The arguments certify_eqvt_iso hands the star map on the ladder L_2."""
    calls = []
    E, G, lab = s3_ladder(2)
    star_map = matalg.star_map_on_basis
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matalg, "star_map_on_basis",
                   lambda *a, **k: calls.append((a, k)) or star_map(*a, **k))
        assert duality.certify_eqvt_iso(E, G, lab).passed
    (domain, image_rows, m, gen_rows, image_gen_rows), kwargs = calls[0]
    return dict(domain=domain, image_rows=image_rows.tocsr(), image_ambient=m, gen_rows=gen_rows,
                image_gen_rows=image_gen_rows, **kwargs)


def _phase_plant(args):
    rows = args["image_rows"].copy()
    rows.data[np.flatnonzero(rows.data == 1)[0]] = 1j
    return {**args, "image_rows": rows}


def _column_swap_plant(args):
    # Swap two columns of the matrix T(b_i), one holding T(b_i)'s entries and
    # one where no image has an entry, so that the images stay indexed.
    rows, m = args["image_rows"], args["image_ambient"]
    used = set(rows.indices.tolist())
    for i in range(rows.shape[0]):
        lo, hi = rows.indptr[i], rows.indptr[i + 1]
        r, c = np.divmod(rows.indices[lo:hi], m)
        for free in range(m):
            moved = np.where(c == c[0], free, np.where(c == free, c[0], c))
            if free != c[0] and not used & set((r * m + moved).tolist()) - set(
                    rows.indices[lo:hi].tolist()):
                planted = rows.tolil()
                planted[i] = 0
                planted[i, r * m + moved] = rows.data[lo:hi]
                return {**args, "image_rows": planted.tocsr()}
    raise AssertionError("no free column")


def _dropped_target_plant(args):
    target = args["target"]
    keep = np.arange(target.dim) != 0
    smaller = matalg.AlgebraSpan(target.ambient_dim, target.rows[keep], target.gen_rows)
    return {**args, "target": smaller, "inverse_rows": args["inverse_rows"][keep]}


@pytest.mark.parametrize("plant, fails", [
    (_phase_plant, ("multiplicative", "star_preserving", "injective")),
    (_column_swap_plant, ("multiplicative", "star_preserving", "surjective")),
    (_dropped_target_plant, ("surjective",)),
], ids=["phase 1 -> i", "two columns swapped", "basis element dropped from the target"])
def test_planted_defect_fails_the_same_checks_on_both(plant, fails):
    args = plant(_eqvt_inputs())
    assert matalg.AlgebraSpan(args["image_ambient"], args["image_rows"], check=False).support
    index = matalg.star_map_on_basis(**args)
    verdicts = dict(_verdicts(index))
    assert not any(verdicts[name] for name in fails)
    _assert_same([index], [float_star_map(**args)])


def test_basis_with_49_entry_rows_is_decided_on_index_tables():
    # E_ij (x) 1_49 in M_98: 49-entry rows, and 49 (1 / 49) != 1, so the
    # reference expands each basis element inexactly; the engine reads it as
    # one multiple of itself.
    rows = matalg._kron_rows(matalg.full_matrix_span(2).rows, matalg.identity_row(49), 2, 49)
    span = matalg.AlgebraSpan(98, rows)
    assert span.support is not None and 49 * (1 / 49) != 1
    args = (span, rows, 98, rows, rows)
    index = matalg.star_map_on_basis(*args, target=span, inverse_rows=rows)
    assert index.notes["mult"] == 0.0 and index.max_error == 0.0
    reference = float_star_map(*args, target=span, inverse_rows=rows)
    assert reference.notes["mult"] > 0
    _assert_same([index], [reference])


def test_empty_domain_passes():
    # No basis rows: nothing to read, and nothing to fail.
    empty = sp.csr_matrix((0, 4), dtype=np.complex128)
    span = matalg.AlgebraSpan(2, empty)
    report = matalg.star_map_on_basis(span, empty, 2, empty, empty, target=span)
    assert all(c.passed for c in report.checks) and report.max_error == 0.0
    _assert_same([report], [float_star_map(span, empty, 2, empty, empty, target=span)])


def test_repeated_inverse_entry_fails_bijectivity():
    # E_ij (x) 1_2 in M_4, the identity map, with a candidate inverse whose
    # first row repeats its first entry in place of its second: its row sums
    # to 2 at one position, no multiple of b_0.  The reference's composites
    # are the identity and it sees the defect only in its membership note.
    rows = matalg._kron_rows(matalg.full_matrix_span(2).rows, matalg.identity_row(2), 2, 2)
    span = matalg.AlgebraSpan(4, rows)
    indices = rows.indices.copy()
    indices[1] = indices[0]
    inverse = sp.csr_matrix((rows.data, indices, rows.indptr), shape=rows.shape)
    args = (span, rows, 4, rows, rows)
    index = matalg.star_map_on_basis(*args, target=span, inverse_rows=inverse)
    verdicts = dict(_verdicts(index))
    assert not verdicts["injective"] and not verdicts["surjective"]
    assert index.notes["compose_id_domain"] == index.notes["compose_id_target"] == 1.0
    reference = float_star_map(*args, target=span, inverse_rows=inverse)
    assert reference.notes["inverse_membership"] == 1.0


def test_input_off_index_tables_fails_with_a_note():
    # eqvt-iso's images on the ladder L_2, conjugated by a rotation of two
    # coordinates: the images and the generator images are no partial
    # permutations, so every check fails and the note names both.
    args = _eqvt_inputs()
    m = args["image_ambient"]
    u = sp.identity(m, dtype=np.complex128, format="lil")
    u[:2, :2] = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
    conj = sp.kron(u.tocsr(), u.tocsr().conj(), format="csr").T  # vec(X) -> vec(U X U*)
    moved = {**args, "image_rows": args["image_rows"] @ conj,
             "image_gen_rows": args["image_gen_rows"] @ conj}
    report = matalg.star_map_on_basis(**moved)
    assert not any(c.passed for c in report.checks) and report.max_error == 1.0
    assert report.notes["unindexed"] == "image, generator images"


def test_s3_scale_ladder_smoke(monkeypatch):
    # ROADMAP item 3's L_3 and Q_3 over S3, past the suites' ambient sizes:
    # every certificate passes, each star map with max_error exactly 0.0,
    # with position tables built and both groupings of the read-back taken.
    E, _, lab = s3_ladder(3)
    Q, _, c = s3_q3()
    skew = groupoids.skew_product_groupoid(Q, S3, c)
    grouped, tables = set(), []
    read_back, slots = matalg.AlgebraSpan.coefficients_rows, matalg.AlgebraSpan._slots.func

    def recording_read_back(span, rows):
        if span.support is not None:
            rows = rows.tocsr()
            grouped.add(rows.shape[0] * span.dim <= matalg._BINS_PER_ENTRY * rows.nnz)
        return read_back(span, rows)

    monkeypatch.setattr(matalg.AlgebraSpan, "coefficients_rows", recording_read_back)
    monkeypatch.setattr(matalg.AlgebraSpan._slots, "func",
                        lambda span: tables.append(span.ambient_dim) or slots(span))
    parts = duality.DualityParts(E, S3, lab)
    certs = [duality.certify_eqvt_iso(E, S3, lab, parts=parts),
             duality.certify_direct_iso(E, S3, lab, parts=parts),
             duality.certify_regular_diagram(E, S3, lab, parts=parts),
             groupoids.certify_gpd_iso(Q, S3, c),
             groupoids.certify_semi_cross(skew, S3,
                                          groupoids.translation_groupoid_action(skew, S3)),
             groupoids.certify_full_groupoid(Q, S3, c)]
    assert all(cert.passed for cert in certs)
    star = [cert.star_report for cert in certs if cert.star_report is not None]
    assert len(star) >= 4 and all(report.max_error == 0.0 for report in star)
    assert grouped == {True, False} and max(tables) > 256


SHAPE_GROUPS = [trivial_group(), groups.cyclic_group(2), groups.cyclic_group(3), S3]


@st.composite
def edge_shapes(draw):
    """(E, G, c): one to four vertices, any of them isolated, and up to three
    edges from a lower to a higher vertex, parallel edges allowed, labeled in
    the trivial group, Z2, Z3 or S3."""
    n_v = draw(st.integers(1, 4))
    edges = []
    for k in range(draw(st.integers(0, 3 if n_v > 1 else 0))):
        i = draw(st.integers(0, n_v - 2))
        edges.append((f"e{k}", f"v{i}", f"v{draw(st.integers(i + 1, n_v - 1))}"))
    E = graphs.DirectedGraph([f"v{i}" for i in range(n_v)], edges)
    G = draw(st.sampled_from(SHAPE_GROUPS))
    labels = draw(st.lists(st.integers(0, G.order - 1), min_size=len(edges),
                           max_size=len(edges)))
    return E, G, groups.Labeling(E, G, labels)


def _shape(vertices, edges, G, labels):
    E = graphs.DirectedGraph(vertices, edges)
    return E, G, groups.Labeling(E, G, labels)


@settings(max_examples=25, deadline=None)
@example(_shape(["v"], [], SHAPE_GROUPS[0], []))
@example(_shape(["u", "v", "x"], [("e", "u", "v"), ("f", "u", "v")], S3, [1, 3]))
@given(shape=edge_shapes())
def test_edge_shapes_pass_exactly_with_the_reference_verdicts(shape):
    # A single vertex, parallel edges, isolated vertices and the trivial
    # group: eqvt-iso and direct-iso pass with exact star maps, and the
    # float reference gives every check the same verdict.
    E, G, lab = shape
    certs = []

    def run():
        parts = duality.DualityParts(E, G, lab)
        certs.append(duality.certify_eqvt_iso(E, G, lab, parts=parts))
        certs.append(duality.certify_direct_iso(E, G, lab, compute_signatures=False,
                                                parts=parts))

    with pytest.MonkeyPatch.context() as mp:
        index, floats = _paired(mp, run)
    assert len(index) == 2 and all(cert.passed for cert in certs)
    assert all(report.max_error == 0.0 for report in index)
    _assert_same(index, floats)
