"""Planted defects in the graded-coaction layer: each check that layer makes
is shown to fail on a known error, next to the same call on correct input."""
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from skewprod import crossed, duality, groups, matalg
from skewprod.crossed import (
    ActionInvalid,
    CoactionCrossedProduct,
    GradedSpan,
    verify_graded_coaction,
)
from skewprod.graphalg import ck_representation, spectral_subspaces
from skewprod.groupoids import (
    cocycle_from_names,
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
    rho = groups.regular_matrices(z3)[1]
    graded.delta_rows = matalg.vec_rows(
        [
            matalg.kron(graded.span.basis_matrix(k), rho[int(t)])
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
    real = crossed.regular_matrices

    def signed(G):
        lam, rho, chi = real(G)
        return [lam[0], -lam[1]] + lam[2:], rho, chi

    graded.delta_rows = sp.diags(np.where(graded.degrees == 1, -1.0, 1.0)) @ graded.delta_rows
    monkeypatch.setattr(crossed, "regular_matrices", signed)
    with pytest.raises(ActionInvalid, match=r"failed: \['nondegeneracy_witness'\]"):
        verify_graded_coaction(graded)


@pytest.mark.parametrize("plant, identity", [
    (lambda chi: [chi[1], chi[0]] + chi[2:], "multiplication"),
    (lambda chi: [2 * c for c in chi], "multiplication"),
    (lambda chi: [1j * chi[0]] + chi[1:], "adjoint"),
], ids=["swapped chi", "doubled chi", "phased chi"])
def test_wrong_chi_fails_group_leg(e1_z3, monkeypatch, plant, identity):
    graded, _ = e1_z3
    CoactionCrossedProduct(graded)
    real = crossed.regular_matrices
    monkeypatch.setattr(crossed, "regular_matrices",
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
    pair2 = pair_groupoid(2)
    alg = convolution_algebra(pair2)
    c = cocycle_from_names(pair2, z2, {"x11": "e", "x22": "e", "x12": "g", "x21": "g"})
    assert CoactionCrossedProduct(graded_convolution(alg, c)).dim == 8
    with pytest.raises(ActionInvalid, match="product degree mismatch"):
        CoactionCrossedProduct(GradedSpan(alg.span, [0, 0, 1, 0], z2))


def test_wrong_path_degree_fails_spectral_subspaces(chain2, z3, monkeypatch):
    lab = groups.Labeling(chain2, z3, [1, 1])
    fam = ck_representation(chain2)
    spectral_subspaces(fam, z3, lab)
    # Shift the degree of the one length-2 path, e1 e2.
    true_of_path = lab.of_path
    monkeypatch.setattr(
        lab,
        "of_path",
        lambda edges: z3.mul(true_of_path(edges), 1) if len(edges) == 2 else true_of_path(edges),
    )
    with pytest.raises(ValueError, match="off its labeled degree"):
        spectral_subspaces(fam, z3, lab)


def test_lam_in_place_of_rho_in_theta_fails_chase(e1, e1_z3, z3, monkeypatch):
    _, lab = e1_z3
    assert duality.certify_regular_diagram(e1, z3, lab).extra["chase_ok"]
    true_images = duality._theta_generator_images

    def lam_for_rho(fam, skew, G, labeling):
        rows = true_images(fam, skew, G, labeling)
        lam = groups.regular_matrices(G)[0]
        eye = sp.identity(fam.ambient_dim, format="csr", dtype=np.complex128)
        return sp.vstack([rows[:skew.n_edges + skew.n_vertices],
                          matalg.vec_rows([matalg.kron(eye, lam[t]) for t in G])], format="csr")

    monkeypatch.setattr(duality, "_theta_generator_images", lam_for_rho)
    cert = duality.certify_regular_diagram(e1, z3, lab)
    assert not cert.extra["chase_ok"]
    assert not cert.passed


def test_shifted_chi_in_one_edge_image_fails_chase(e1, e1_z3, z3):
    _, lab = e1_z3
    parts = duality.DualityParts(e1, z3, lab)
    assert duality.certify_regular_diagram(e1, z3, lab, parts=parts).extra["chase_ok"]
    # t_(f,r) = s_f (x) lam_c(f) chi_r with chi_r replaced by chi_(r+1).
    lam, _, chi = groups.regular_matrices(z3)
    f_id, r = parts.skew.edges[0].id
    f = e1.edge_index(f_id)
    shifted = matalg.kron(parts.fam.s[f], lam[lab.of(f)] @ chi[z3.mul(z3.index(r), 1)])
    parts.theta_gen_rows = sp.vstack([matalg.vec_rows([shifted]), parts.theta_gen_rows[1:]],
                                     format="csr")
    cert = duality.certify_regular_diagram(e1, z3, lab, parts=parts)
    assert not cert.extra["chase_ok"]
    assert not cert.passed
