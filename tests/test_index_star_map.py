"""The index path of ``matalg.star_map_on_basis`` against its float path.

Between partial-permutation bases with unit-phase entries the star,
multiplicativity and target checks are decided by ``matalg._index_checks``
on index tables, and generator consistency too where every generator and its
image are multiples of one basis row (semi-cross, and some eqvt-iso draws).
Every certificate that goes through the star map (eqvt-iso, direct-iso,
free-action, gpd-iso, semi-cross) gives the same checks and the
same notes, key for key and in order, on the index path and with it forced
off, on random graph and groupoid draws, the S3 fixtures and the ladder L_3
over S3; the index path engages on every star map of a suite run; and
planted defects that keep the inputs indexed fail on the index path with the
float path's errors, while a basis whose coefficients are inexact takes the
fallback; and L_3 and Q_3 over S3 pass every certificate with exact star maps."""
import contextlib
import io

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import symmetric_group_3

from skewprod import cli, duality, fixture_path, graphs, groupoids, groups, matalg, suite

ALL = {"star", "mult", "target"}
GEN = ALL | {"gen"}  # and every generator, with its image, a multiple of one basis row
S3 = symmetric_group_3()


def _paired(monkeypatch, run):
    """The star-map reports of ``run()`` with the index path, with the index
    path forced off, and what ``_index_checks`` returned on the first run."""
    reports, held = [], []
    star_map, index_checks = matalg.star_map_on_basis, matalg._index_checks

    def recording_star_map(*args, **kwargs):
        reports.append(star_map(*args, **kwargs))
        return reports[-1]

    def recording_index_checks(*args):
        held.append(index_checks(*args))
        return held[-1]

    monkeypatch.setattr(matalg, "star_map_on_basis", recording_star_map)
    monkeypatch.setattr(matalg, "_index_checks", recording_index_checks)
    run()
    index = reports[:]
    reports.clear()
    monkeypatch.setattr(matalg, "_index_checks", lambda *args: None)
    run()
    return index, reports, held


def _assert_same(index, floats):
    assert len(index) == len(floats) > 0
    for a, b in zip(index, floats):
        assert a.checks == b.checks
        assert list(a.notes.items()) == list(b.notes.items())
        assert a.max_error == b.max_error


def _graph_certificates(E, G, lab):
    parts = duality.DualityParts(E, G, lab)
    duality.certify_eqvt_iso(E, G, lab, parts=parts)
    duality.certify_direct_iso(E, G, lab, compute_signatures=False, parts=parts)
    duality.certify_free_action(parts.skew, graphs.translation_action(parts.skew, G))


def _ladder(k: int):
    """L_k over S3: vertices v0..vk, two parallel edges v_i -> v_(i+1), each
    edge labeled by rng.integers(6) of default_rng(0), in edge order."""
    edges = [(f"e{i}{j}", f"v{i}", f"v{i + 1}") for i in range(k) for j in range(2)]
    E = graphs.DirectedGraph([f"v{i}" for i in range(k + 1)], edges)
    rng = np.random.default_rng(0)
    return E, S3, groups.Labeling(E, S3, [int(rng.integers(6)) for _ in edges])


def test_graph_certificates_agree_on_both_paths(monkeypatch):
    rng = np.random.default_rng(2727)
    draws = [suite.random_graph_instance(rng) for _ in range(30)]
    index, floats, held = _paired(
        monkeypatch, lambda: [_graph_certificates(*draw) for draw in draws])
    _assert_same(index, floats)
    assert len(index) == 4 * len(draws) and all(h in (ALL, GEN) for h in held)


def _groupoid_certificates(Q, G, c):
    groupoids.certify_gpd_iso(Q, G, c)
    skew = groupoids.skew_product_groupoid(Q, G, c)
    groupoids.certify_semi_cross(skew, G, groupoids.translation_groupoid_action(skew, G))


def test_groupoid_certificates_agree_on_both_paths(monkeypatch):
    rng = np.random.default_rng(2728)
    draws = []
    for k in range(30):
        G = (suite.suite_groups() + [S3])[k % 5]
        Q = suite.random_groupoid(rng)
        draws.append((Q, G, suite.random_cocycle(rng, Q, G)))
    index, floats, held = _paired(
        monkeypatch, lambda: [_groupoid_certificates(*draw) for draw in draws])
    _assert_same(index, floats)
    assert len(index) == 2 * len(draws) and held[::2] == [ALL] * len(draws)
    assert held[1::2] == [GEN] * len(draws)  # semi-cross: generators are basis rows


def test_s3_fixtures_and_ladder_agree_on_both_paths(monkeypatch):
    G = groups.FiniteGroup.from_json(fixture_path("s3").read_text())
    chain = graphs.labeled_graph_from_json(fixture_path("chain-s3").read_text(), G)
    Q, names = groupoids.groupoid_from_json(fixture_path("q3-s3").read_text())
    c = groupoids.cocycle_from_names(Q, G, names)
    E, _, lab = _ladder(3)

    def run():
        _graph_certificates(chain[0], G, chain[1])
        _groupoid_certificates(Q, G, c)
        parts = duality.DualityParts(E, S3, lab)
        duality.certify_eqvt_iso(E, S3, lab, parts=parts)
        duality.certify_direct_iso(E, S3, lab, compute_signatures=False, parts=parts)

    index, floats, held = _paired(monkeypatch, run)
    _assert_same(index, floats)
    assert len(index) == 8 and all(h in (ALL, GEN) for h in held) and GEN in held


def test_index_path_engages_on_every_star_map_of_a_suite_run(monkeypatch):
    held = []
    index_checks = matalg._index_checks
    monkeypatch.setattr(matalg, "_index_checks",
                        lambda *args: held.append(index_checks(*args)) or held[-1])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["suite", "run", "--seed", "0", "--cases", "6", "--json"]) == 0
    assert held and all(h in (ALL, GEN) for h in held)


@pytest.mark.parametrize("G", [groups.cyclic_group(3), S3], ids=["Z3", "S3"])
def test_semi_cross_with_an_inverted_generator_fails_on_the_index_path(G, monkeypatch):
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
    star_map = matalg.star_map_on_basis

    def planted_star_map(domain, image_rows, m, gen_rows, image_gen_rows, **kwargs):
        assert (image_gen_rows != image_rows[gens]).nnz == 0
        return star_map(domain, image_rows, m, gen_rows, image_rows[planted], **kwargs)

    monkeypatch.setattr(matalg, "star_map_on_basis", planted_star_map)
    index, floats, held = _paired(
        monkeypatch, lambda: groupoids.certify_semi_cross(skew, G, trans))
    _assert_same(index, floats)
    assert len(held) == 1 and not {"mult", "gen"} & held[0]
    verdicts = {c.name: c.passed for c in index[0].checks}
    assert not verdicts["multiplicative"] and not verdicts["well_defined"]


def _eqvt_inputs():
    """The arguments certify_eqvt_iso hands the star map on the ladder L_2."""
    calls = []
    E, G, lab = _ladder(2)
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


@pytest.mark.parametrize("plant, fails, held", [
    (_phase_plant, ("multiplicative", "star_preserving", "injective"), set()),
    (_column_swap_plant, ("multiplicative", "star_preserving", "surjective"), set()),
    (_dropped_target_plant, ("surjective",), {"star", "mult"}),
], ids=["phase 1 -> i", "two columns swapped", "basis element dropped from the target"])
def test_planted_defect_fails_on_the_index_path(plant, fails, held, monkeypatch):
    args = plant(_eqvt_inputs())
    assert matalg.AlgebraSpan(args["image_ambient"], args["image_rows"], check=False).support
    decided = matalg._index_checks(*(args[k] for k in (
        "domain", "image_rows", "image_ambient", "gen_rows", "image_gen_rows", "target",
        "inverse_rows")))
    assert decided == held
    index = matalg.star_map_on_basis(**args)
    verdicts = {c.name: c.passed for c in index.checks}
    assert not any(verdicts[name] for name in fails)
    monkeypatch.setattr(matalg, "_index_checks", lambda *a: None)
    _assert_same([index], [matalg.star_map_on_basis(**args)])


def test_basis_with_inexact_coefficients_takes_the_fallback(monkeypatch):
    # E_ij (x) 1_49 in M_98: 49-entry rows, and 49 (1 / 49) != 1, so the
    # coefficient of each basis element is not exactly 1.
    rows = matalg._kron_rows(matalg.full_matrix_span(2).rows, matalg.identity_row(49), 2, 49)
    span = matalg.AlgebraSpan(98, rows)
    assert span.support is not None and 49 * (1 / 49) != 1
    args = (span, rows, 98, rows, rows)
    assert matalg._index_checks(*args, span, rows) == set()
    index = matalg.star_map_on_basis(*args, target=span, inverse_rows=rows)
    assert index.notes["mult"] > 0 and all(c.passed for c in index.checks)
    monkeypatch.setattr(matalg, "_index_checks", lambda *a: None)
    _assert_same([index], [matalg.star_map_on_basis(*args, target=span, inverse_rows=rows)])


def test_empty_domain_takes_the_fallback():
    # No basis rows: nothing to index, and the float path's report.
    empty = sp.csr_matrix((0, 4), dtype=np.complex128)
    span = matalg.AlgebraSpan(2, empty)
    assert matalg._index_checks(span, empty, 2, empty, empty, None, None) is None
    report = matalg.star_map_on_basis(span, empty, 2, empty, empty)
    assert all(c.passed for c in report.checks) and report.max_error == 0.0


def test_repeated_inverse_entry_takes_the_fallback(monkeypatch):
    # E_ij (x) 1_2 in M_4, the identity map, with a candidate inverse whose
    # first row repeats its first entry in place of its second: read entry by
    # entry it would look like b_0, but its expansion sums the repeat.
    rows = matalg._kron_rows(matalg.full_matrix_span(2).rows, matalg.identity_row(2), 2, 2)
    span = matalg.AlgebraSpan(4, rows)
    indices = rows.indices.copy()
    indices[1] = indices[0]
    inverse = sp.csr_matrix((rows.data, indices, rows.indptr), shape=rows.shape)
    args = (span, rows, 4, rows, rows)
    assert matalg._index_checks(*args, span, inverse) == {"star", "mult", "gen"}
    index = matalg.star_map_on_basis(*args, target=span, inverse_rows=inverse)
    assert index.notes["inverse_membership"] == 1.0
    monkeypatch.setattr(matalg, "_index_checks", lambda *a: None)
    _assert_same([index], [matalg.star_map_on_basis(*args, target=span, inverse_rows=inverse)])


def test_s3_scale_ladder_smoke(monkeypatch):
    # ROADMAP item 3's L_3 and Q_3 over S3, past the suites' ambient sizes:
    # every certificate passes, each star map with max_error exactly 0.0,
    # with position tables built and both groupings of the read-back taken.
    E, _, lab = _ladder(3)
    Q = groupoids.disjoint_union([groupoids.transitive_groupoid(3, groups.cyclic_group(2)),
                                  groupoids.pair_groupoid(3)])
    c = suite.random_cocycle(np.random.default_rng(0), Q, S3)
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
