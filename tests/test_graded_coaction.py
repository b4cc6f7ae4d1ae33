"""Planted defects in the graded-coaction layer: each check that layer makes
is shown to fail on a known error, next to the same call on correct input."""
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import basis_matrix, regular_matrices

from skewprod import crossed, duality, groups, matalg
from skewprod.crossed import ActionInvalid, CoactionCrossedProduct, GradedSpan, coaction_check
from skewprod.graphalg import ck_representation, coaction, generator_degrees
from skewprod.groupoids import (
    Cocycle,
    CocycleError,
    convolution_algebra,
    graded_convolution,
    pair_groupoid,
)


@pytest.fixture
def e1_z3(e1, z3):
    lab = groups.Labeling(e1, z3, [1])
    return coaction(ck_representation(e1), z3, lab), lab


def _coaction(e1_z3) -> matalg.Check:
    graded, lab = e1_z3
    return coaction_check(graded, generator_degrees(lab))


def test_rho_in_place_of_lam_fails_coaction_check(e1_z3, z3):
    graded, _ = e1_z3
    assert _coaction(e1_z3).error == 0.0
    # For an abelian group rho_t = lam_{t^-1}: delta(b) = b (x) rho_deg(b) is
    # still a coaction, but of the inverse grading, so s_f (x) lam_1 reads
    # s_f (x) lam_2, |lam_2 - lam_1| = 6^(1/2).
    rho = regular_matrices(z3)[1]
    graded.delta_rows = matalg.vec_rows(
        [
            sp.kron(basis_matrix(graded.span, k), rho[int(t)])
            for k, t in enumerate(graded.degrees)
        ]
    )
    check = _coaction(e1_z3)
    assert not check.passed and check.error == pytest.approx(6 ** 0.5, abs=1e-12)


def test_zeroed_delta_row_fails_coaction_check(e1_z3):
    graded, _ = e1_z3
    rows = graded.delta_rows.tolil()
    rows[0, :] = 0
    graded.delta_rows = rows.tocsr()
    # Row 0 is p_w = e_(w,w), so delta(p_w) = 0 against p_w (x) 1 = e_(w,w) (x) 1_3.
    check = _coaction(e1_z3)
    assert not check.passed and check.error == pytest.approx(3 ** 0.5, abs=1e-12)


def test_signed_lam_fails_coaction_check(e1_z3):
    graded, _ = e1_z3
    # delta'(b) = b (x) lam'_deg(b) with lam'_1 = -lam_1: lam' is no
    # homomorphism (lam'_1 lam'_2 = -lam_0), and s_f (x) -lam_1 is 2 3^(1/2)
    # from s_f (x) lam_1.
    graded.delta_rows = sp.diags(np.where(graded.degrees == 1, -1.0, 1.0)) @ graded.delta_rows
    check = _coaction(e1_z3)
    assert not check.passed and check.error == pytest.approx(12 ** 0.5, abs=1e-12)


@pytest.mark.parametrize("plant, identity", [
    (lambda chi: chi[np.r_[1, 0, 2:chi.shape[0]]], "multiplication"),
    (lambda chi: 2 * chi, "multiplication"),
    (lambda chi: sp.diags(np.r_[1j, np.ones(chi.shape[0] - 1)]) @ chi, "adjoint"),
], ids=["swapped chi", "doubled chi", "phased chi"])
def test_wrong_chi_fails_group_leg(e1_z3, monkeypatch, plant, identity):
    graded, _ = e1_z3
    CoactionCrossedProduct(graded)
    real = crossed.regular_rows
    monkeypatch.setattr(crossed, "regular_rows",
                        lambda G: (*real(G)[:2], plant(real(G)[2])))
    with pytest.raises(ActionInvalid, match=f"lam/chi {identity} identity fails"):
        CoactionCrossedProduct(graded)


def test_non_unitary_similarity_fails_the_spanning_read_back(e1_z3, z3):
    graded, _ = e1_z3
    CoactionCrossedProduct(graded)
    # Scaling (b_i, u) by f(t u) / f(u), t = deg(b_i), conjugates the group leg
    # by diag(f): the multiplication rule still holds, and for an f of
    # varying modulus the adjoint rule does not; the rows no longer read back
    # as b_i (x) lam_t chi_u.
    f = np.array([2.0, 1.0, 1.0])
    deg = np.repeat(graded.degrees, z3.order)
    u = np.tile(np.arange(z3.order), graded.span.dim)
    graded.spanning_rows = sp.diags(f[z3.table[deg, u]] / f[u]) @ graded.spanning_rows
    with pytest.raises(ActionInvalid, match=r"^spanning row \d+ is not b_i \(x\) lam_t chi_u$"):
        CoactionCrossedProduct(graded)


def test_order_16_group_stays_within_memory(e1):
    G = groups.cyclic_group(16)
    lab = groups.Labeling(e1, G, [1])
    graded = coaction(ck_representation(e1), G, lab)
    tracemalloc.start()
    try:
        assert CoactionCrossedProduct(graded).dim == 4 * 16
        assert coaction_check(graded, generator_degrees(lab)).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_non_cocycle_degrees_fail_crossed_product(z2):
    # All 16 degree tables on the arrows x11, x12, x21, x22 of the pair
    # groupoid: the 2 cocycles give the crossed product, and each of the 14
    # others is refused by the adjoint-degree check or the product-degree law.
    pair2 = pair_groupoid(2)
    alg = convolution_algebra(pair2)
    refused = []
    for degrees in itertools.product(range(2), repeat=4):
        try:
            c = Cocycle(pair2, z2, degrees)
        except CocycleError:
            with pytest.raises(ActionInvalid, match="^(adjoint degree mismatch|product "
                                                    "degree law fails)") as info:
                CoactionCrossedProduct(GradedSpan(alg.span, degrees, z2))
            refused.append(str(info.value).split()[0])
        else:
            assert CoactionCrossedProduct(graded_convolution(alg, c)).dim == 8
    assert len(refused) == 14 and set(refused) == {"adjoint", "product"}


def test_wrong_path_degree_fails_coaction(chain2, z3, monkeypatch):
    lab = groups.Labeling(chain2, z3, [1, 1])
    fam = ck_representation(chain2)
    coaction(fam, z3, lab)
    # Shift the degree of the one length-2 path, e1 e2, in the degree table.
    true_degrees = fam.path_degrees
    monkeypatch.setattr(fam, "path_degrees", lambda G, by_edge: np.where(
        fam.length == 2, G.table[true_degrees(G, by_edge), 1], true_degrees(G, by_edge)))
    with pytest.raises(ValueError, match="off its labeled degree"):
        coaction(fam, z3, lab)


def test_lam_in_place_of_rho_in_theta_fails_chase(e1, e1_z3, z3, monkeypatch):
    _, lab = e1_z3
    assert duality.certify_regular_diagram(e1, z3, lab).as_dict()["extra"]["chase_ok"]
    true_images = duality._theta_generator_images

    def lam_for_rho(fam, G, labeling):
        rows = true_images(fam, G, labeling)
        lam = regular_matrices(G)[0]
        eye = sp.identity(fam.ambient_dim, format="csr", dtype=np.complex128)
        return sp.vstack([rows[:-G.order],
                          matalg.vec_rows([sp.kron(eye, lam[t]) for t in G])], format="csr")

    monkeypatch.setattr(duality, "_theta_generator_images", lam_for_rho)
    cert = duality.certify_regular_diagram(e1, z3, lab)
    assert not cert.as_dict()["extra"]["chase_ok"]
    assert not cert.passed


def test_shifted_chi_in_one_edge_image_fails_chase(e1, e1_z3, z3):
    _, lab = e1_z3
    parts = duality.DualityParts(e1, z3, lab)
    assert duality.certify_regular_diagram(e1, z3, lab, parts=parts).as_dict()["extra"]["chase_ok"]
    # t_(f,r) = s_f (x) lam_c(f) chi_r with chi_r replaced by chi_(r+1).
    lam, _, chi = regular_matrices(z3)
    f_id, r = parts.skew.edges[0].id
    f = e1.edge_index(f_id)
    shifted = sp.kron(parts.fam.s[f], lam[lab.of(f)] @ chi[z3.mul(z3.index(r), 1)])
    parts.theta_gen_rows = sp.vstack([matalg.vec_rows([shifted]), parts.theta_gen_rows[1:]],
                                     format="csr")
    cert = duality.certify_regular_diagram(e1, z3, lab, parts=parts)
    assert not cert.as_dict()["extra"]["chase_ok"]
    assert not cert.passed
