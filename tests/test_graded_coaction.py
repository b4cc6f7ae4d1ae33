"""Planted defects in the graded-coaction layer: each check that layer makes
is shown to fail on a known error, next to the same call on correct input."""
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from oracles import basis_matrix, regular_matrices

from skewprod import crossed, duality, groups, matalg
from skewprod.crossed import (
    ActionInvalid,
    CoactionCrossedProduct,
    GradedSpan,
    verify_graded_coaction,
)
from skewprod.graphalg import ck_representation, spectral_subspaces
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
    return spectral_subspaces(ck_representation(e1), z3, lab), lab


def test_rho_in_place_of_lam_fails_coaction_identity(e1_z3, z3):
    graded, _ = e1_z3
    verify_graded_coaction(graded)
    # For an abelian group rho_t = lam_{t^-1}: delta(b) = b (x) rho_deg(b) is
    # still a coaction, but of the inverse grading, so only the identity's
    # check of the lam-expansion against the degree components sees it.
    rho = regular_matrices(z3)[1]
    graded.delta_rows = matalg.vec_rows(
        [
            sp.kron(basis_matrix(graded.span, k), rho[int(t)])
            for k, t in enumerate(graded.degrees)
        ]
    )
    with pytest.raises(ActionInvalid, match=r"failed: \['coaction_identity'\]"):
        verify_graded_coaction(graded)


def test_zeroed_delta_row_fails_injective(e1_z3):
    graded, _ = e1_z3
    rows = graded.delta_rows.tolil()
    rows[0, :] = 0
    graded.delta_rows = rows.tocsr()
    with pytest.raises(ActionInvalid, match=r"failed: \[[^\]]*'injective'"):
        verify_graded_coaction(graded)


def test_non_multiplicative_lam_fails_only_nondegeneracy(e1_z3, monkeypatch):
    graded, _ = e1_z3
    verify_graded_coaction(graded)
    # lam'_1 = -lam_1 is orthogonal to the other lam'_t like lam_1, so the lam
    # leg still expands delta'(b) = b (x) lam'_deg(b) exactly; but lam' is no
    # homomorphism, lam'_1 lam'_2 = -lam_0, which only nondegeneracy sees.
    real = crossed.regular_rows

    def signed(G):
        lam, rho, chi = real(G)
        return sp.diags(np.where(np.arange(G.order) == 1, -1.0, 1.0)) @ lam, rho, chi

    graded.delta_rows = sp.diags(np.where(graded.degrees == 1, -1.0, 1.0)) @ graded.delta_rows
    monkeypatch.setattr(crossed, "regular_rows", signed)
    with pytest.raises(ActionInvalid, match=r"failed: \['nondegeneracy_witness'\]"):
        verify_graded_coaction(graded)


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


def test_non_unitary_similarity_fails_only_the_adjoint_rule(e1_z3, z3):
    graded, _ = e1_z3
    CoactionCrossedProduct(graded)
    # Scaling (b_i, u) by f(t u) / f(u), t = deg(b_i), conjugates the group leg
    # by diag(f): the multiplication rule still holds, and for an f of
    # varying modulus the adjoint rule does not.
    f = np.array([2.0, 1.0, 1.0])
    deg = np.repeat(graded.degrees, z3.order)
    u = np.tile(np.arange(z3.order), graded.span.dim)
    graded.spanning_rows = sp.diags(f[z3.table[deg, u]] / f[u]) @ graded.spanning_rows
    with pytest.raises(ActionInvalid, match="spanning adjoint rule fails"):
        CoactionCrossedProduct(graded)


def test_order_16_group_stays_within_memory(e1):
    G = groups.cyclic_group(16)
    graded = spectral_subspaces(ck_representation(e1), G, groups.Labeling(e1, G, [1]))
    tracemalloc.start()
    try:
        assert CoactionCrossedProduct(graded).dim == 4 * 16
        verify_graded_coaction(graded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_non_cocycle_degrees_fail_crossed_product(z2):
    # All 16 degree tables on the arrows x11, x12, x21, x22 of the pair
    # groupoid: the 2 cocycles give the crossed product, and each of the 14
    # others is refused by the adjoint-degree check or the spanning-pair rule.
    pair2 = pair_groupoid(2)
    alg = convolution_algebra(pair2)
    refused = []
    for degrees in itertools.product(range(2), repeat=4):
        try:
            c = Cocycle(pair2, z2, degrees)
        except CocycleError:
            with pytest.raises(ActionInvalid, match="^(adjoint degree mismatch|spanning "
                                                    "multiplication rule fails)") as info:
                CoactionCrossedProduct(GradedSpan(alg.span, degrees, z2))
            refused.append(str(info.value).split()[0])
        else:
            assert CoactionCrossedProduct(graded_convolution(alg, c)).dim == 8
    assert len(refused) == 14 and set(refused) == {"adjoint", "spanning"}


def test_wrong_path_degree_fails_spectral_subspaces(chain2, z3, monkeypatch):
    lab = groups.Labeling(chain2, z3, [1, 1])
    fam = ck_representation(chain2)
    spectral_subspaces(fam, z3, lab)
    # Shift the degree of the one length-2 path, e1 e2, in the degree table.
    true_degrees = fam.path_degrees
    monkeypatch.setattr(fam, "path_degrees", lambda G, by_edge: np.where(
        fam.length == 2, G.table[true_degrees(G, by_edge), 1], true_degrees(G, by_edge)))
    with pytest.raises(ValueError, match="off its labeled degree"):
        spectral_subspaces(fam, z3, lab)


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
