"""Certifiers for the graph-algebra duality theorems.

Each certifier builds both sides of an isomorphism in concrete matrices and
verifies the generator assignment as a *-isomorphism with the structured
star-map engine, plus the side conditions (image family satisfies the
Cuntz-Krieger relations, equivariance, generator-level composition
identities).  The certified maps are:

* ``certify_eqvt_iso``      Phi : C*(E x_c G) -> C*(E) x_delta G,
                            s_(f,t) -> (s_f, t),  p_(v,t) -> (p_v, t),
                            equivariant for gamma and the dual action;
* ``certify_direct_iso``    Theta : C*(E x_c G) x_gamma G -> C*(E) (x) M_|G|,
                            with inverse Upsilon built from y_r = sum_v p_(v,r)
                            and w_t = (y x u)(lam_t);
* ``certify_regular_diagram``  the duality-composite route equals Theta on
                            every generator, witnessing that the regular
                            representation of the crossed product is faithful;
* ``certify_free_action``   C*(F) x_beta G = C*(F/G) (x) M_|G| for a free
                            action, through the quotient-skew factorization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import graphalg, matalg
from .crossed import (
    ActionCrossedProduct,
    AlgebraAction,
    CoactionCrossedProduct,
    GradedSpan,
    ck_action_from_graph_action,
)
from .graphalg import CKFamily, ck_representation
from .graphs import DirectedGraph, GraphAction, skew_product, translation_action
from .graphs import quotient_and_gross_tucker
from .groups import FiniteGroup, Labeling, regular_rows
from .matalg import Check, Report, StarMapReport, full_matrix_span, tensor_span

DEFAULT_ISO_TOL = 1e-8
_SIGNATURE_DIM_CAP = 600  # certify_direct_iso skips signatures above this dimension


class CertificationFailed(RuntimeError):
    pass


@dataclass
class IsomorphismCertificate:
    """Both sides of an isomorphism and the checks it was certified by.

    It passes when every check passes: lhs_dim == rhs_dim, the star map's
    checks, exact equivariance and equal signatures (each when computed) and
    the checks of ``extra``, whose data, flags and errors render as "extra"."""

    theorem: str
    lhs_name: str
    rhs_name: str
    lhs_dim: int
    rhs_dim: int
    tolerance: float
    star_report: StarMapReport | None = None
    equivariance_error: float | None = None
    signatures: dict | None = None
    extra: Report = field(default_factory=Report)

    def every_check(self) -> list[Check]:
        checks = [Check.holds("dims", self.lhs_dim == self.rhs_dim)]
        if self.star_report is not None:
            checks += self.star_report.checks
        if self.equivariance_error is not None:
            checks.append(Check("equivariance", self.equivariance_error, exact=True))
        if self.signatures is not None:
            checks.append(Check.holds("signatures",
                                      self.signatures["lhs"] == self.signatures["rhs"]))
        return [*checks, *self.extra.every_check()]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.every_check())

    def as_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "passed": self.passed,
            "lhs": {"name": self.lhs_name, "dim": self.lhs_dim},
            "rhs": {"name": self.rhs_name, "dim": self.rhs_dim},
            "tolerance": self.tolerance,
        }
        if self.star_report is not None:
            out["star_map"] = {c.name: c.passed for c in self.star_report.checks}
            out["star_map"]["max_error"] = self.star_report.max_error
        if self.equivariance_error is not None:
            out["equivariance_error"] = self.equivariance_error
        if self.signatures is not None:
            out["signatures"] = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in self.signatures.items()
            }
        extra = self.extra.as_dict()
        if extra:
            out["extra"] = extra
        return out


def _basis_image_rows(fam: CKFamily, gen_rows: sp.csr_matrix, m: int,
                      post=None) -> sp.csr_matrix:
    """Rows vec(T(e_{mu,nu})) with T evaluated as the word s_mu s_nu*, in the
    order of ``fam.pairs``, for the m x m generator images T(s_f), T(p_v)
    given as stacked rows in the generator order of ``fam``; with the stacked
    rows ``post``, the row of pair k times post row s sits at k |post| + s."""
    words = graphalg._path_images(fam, gen_rows, m)
    # Every word times every adjoint word: row j P + i is w_i w_j*, w_i the
    # word of path i and P the number of paths.
    prods = sp.vstack([p for _, p in matalg.right_products(
        words, matalg.star_columns(words, m), m)], format="csr")
    pairs = np.array(fam.pairs, dtype=np.int64).reshape(-1, 2)
    rows = prods[pairs[:, 1] * words.shape[0] + pairs[:, 0]]
    if post is None:
        return rows
    # Pair k times post[s] sits at row s K + k, K the number of pairs; move it
    # to k |post| + s.
    prods = sp.vstack([p for _, p in matalg.right_products(rows, post, m)],
                      format="csr")
    k, s = np.divmod(np.arange(prods.shape[0]), post.shape[0])
    return prods[s * rows.shape[0] + k]


def _skew_lift(fam: CKFamily, fam_skew: CKFamily, G: FiniteGroup,
               degree: np.ndarray) -> np.ndarray:
    """lift[i, a]: the index in ``fam_skew`` of the path of E x_c G over path
    i of E whose range has group coordinate a, given the path degrees c(mu).

    Edge (f, t) of E x_c G sits at f |G| + t and has range (r(f), t), so the
    length-0 path at w lifts to the one at (w, a), and f nu to the edge
    (f, c(nu) a) followed by the lift of nu at a: one pass per level."""
    m, coords = G.order, np.arange(G.order)
    lift = np.empty((fam.ambient_dim, m), dtype=np.int64)
    empty = np.flatnonzero(fam.length == 0)
    lift[empty] = fam_skew.start[fam.sink[empty, None] * m + coords]
    for level in fam.levels:
        tail = fam.tail[level]
        edges = fam.head[level, None] * m + G.table[degree[tail, None], coords]
        lift[level] = fam_skew.prepend[edges, lift[tail]]
    return lift


class DualityParts:
    """The constructions the graph certifiers share for one (E, G, c).

    Each member is built on first use and then kept, so certifiers handed the
    same parts build C*(E), the coaction, E x_c G, gamma and the crossed
    product once between them.  ``tol`` is the covariance tolerance of
    ``acp``.
    """

    def __init__(self, graph: DirectedGraph, G: FiniteGroup, labeling: Labeling,
                 tol: float = DEFAULT_ISO_TOL):
        self.graph, self.G, self.labeling, self.tol = graph, G, labeling, tol

    @cached_property
    def fam(self) -> CKFamily:
        return ck_representation(self.graph)

    @cached_property
    def coaction(self) -> GradedSpan:
        return graphalg.coaction(self.fam, self.G, self.labeling)

    @cached_property
    def skew(self) -> DirectedGraph:
        return skew_product(self.graph, self.G, self.labeling)

    @cached_property
    def fam_skew(self) -> CKFamily:
        return ck_representation(self.skew)

    @cached_property
    def theta_gen_rows(self) -> sp.csr_matrix:
        """The rows vec of Theta's images of s_(f,r), p_(v,r) and u_t, in this
        order: the generator order of ``fam_skew`` and then of ``acp``; see
        :func:`_theta_generator_images`."""
        return _theta_generator_images(self.fam, self.G, self.labeling)

    @cached_property
    def theta_side_errors(self) -> tuple[float, float]:
        """(ck_error, covariance_error) of Theta's generator images: the
        Cuntz-Krieger relations of t_(f,r), q_(v,r), and u_t t_g = t_(t.g) u_t
        for every t and every generator g of C*(E x_c G), in one stacked
        comparison of entry tables; the second counts the entries at which the
        two sides differ, 1.0 when the images are not partial permutations.
        Since u_t is unitary, it also witnesses u_t t_g u_t* = t_(t.g), the
        equivariance of Phi."""
        skew, gact = self.skew, self.gact
        n_e, n_g = skew.n_edges, skew.n_edges + skew.n_vertices
        gens, us = self.theta_gen_rows[:n_g], self.theta_gen_rows[n_g:]
        m = self.fam.ambient_dim * self.G.order
        ck_err = graphalg._ck_relations_for(skew, gens, m)
        # Row t n_g + i: u_t t_i on the left, t_i u_t on the right, picked at t n_g
        # + moved_t[i].
        moved = np.hstack([gact.eperm, n_e + gact.vperm])
        picks = (np.arange(self.G.order)[:, None] * n_g + moved).ravel()
        sides = [matalg._index_products(gens, us, m, left, us.shape[0]) for left in (True, False)]
        if None in sides:
            return ck_err, 1.0
        (_, _, j, i, pos, x), (_, _, jr, ir, posr, y) = (next(s) for s in sides)
        lk, rk = (j * n_g + i) * m * m + pos, np.argsort(picks)[jr * n_g + ir] * m * m + posr
        return ck_err, float(matalg._mismatched(lk, x, rk, y))

    @cached_property
    def theta_rows(self) -> sp.csr_matrix:
        """Theta on the basis pi~(e_{mu,nu}) u~_s of ``acp``, as the rows
        vec(s_mu s_nu* u_s) of the words in Theta's generator images."""
        n_g = self.skew.n_edges + self.skew.n_vertices
        return _basis_image_rows(self.fam_skew, self.theta_gen_rows[:n_g],
                                 self.fam.ambient_dim * self.G.order,
                                 post=self.theta_gen_rows[n_g:])

    @cached_property
    def gact(self) -> GraphAction:
        return translation_action(self.skew, self.G)

    @cached_property
    def gamma(self) -> AlgebraAction:
        return ck_action_from_graph_action(self.fam_skew, self.gact)

    @cached_property
    def acp(self) -> ActionCrossedProduct:
        return ActionCrossedProduct(self.fam_skew.span, self.G, self.gamma, tol=self.tol)

    @cached_property
    def target(self) -> matalg.AlgebraSpan:
        return tensor_span(self.fam.span, full_matrix_span(self.G.order),
                           name="C*(E) (x) M_G")


def _parts_for(parts: DualityParts | None, graph, G, labeling, tol) -> DualityParts:
    """The given parts, checked to be those of (graph, G, labeling), else new ones."""
    if parts is None:
        return DualityParts(graph, G, labeling, tol)
    if parts.graph is not graph or parts.G is not G or parts.labeling is not labeling:
        raise ValueError("parts were built for a different (graph, group, labeling)")
    return parts


def certify_eqvt_iso(
    graph: DirectedGraph,
    G: FiniteGroup,
    labeling: Labeling,
    tol: float = DEFAULT_ISO_TOL,
    *,
    parts: DualityParts | None = None,
) -> IsomorphismCertificate:
    """Certify C*(E x_c G) = C*(E) x_delta G via s_(f,t) -> (s_f, t)."""
    parts = _parts_for(parts, graph, G, labeling, tol)
    fam, fam_skew = parts.fam, parts.fam_skew
    ccp = CoactionCrossedProduct(parts.coaction)
    m = ccp.ambient_dim

    # Generator images: s_(f,t) -> (s_f, t) = s_f (x) lam_c(f) chi_t, and
    # p_(v,t) -> (p_v, t) = p_v (x) chi_t, the same as Theta's; Theta's
    # u_r = 1 (x) rho_r implements the dual action.
    gen_imgs = parts.theta_gen_rows[:fam_skew.span.gen_rows.shape[0]]
    # Equivariance Phi gamma_r = delta^_r Phi, exactly on generators: as u_r
    # is unitary, this is the covariance error of Theta's images.
    ck_err, eq_err = parts.theta_side_errors

    image_rows = _basis_image_rows(fam_skew, gen_imgs, m)

    # Inverse on the crossed-product basis: (e_{mu,nu}, u) pulls back to the
    # skew matrix unit over the lifts of mu and nu at a = c(nu)^-1 u.
    degree = fam.path_degrees(G, labeling.by_edge)
    lift = _skew_lift(fam, fam_skew, G, degree)
    mu, nu = fam.pairs[:, :1], fam.pairs[:, 1:]
    a = G.table[G.inverse[degree[nu]], np.arange(G.order)]
    perm = fam_skew.pair(lift[mu, a], lift[nu, a]).ravel()
    inverse_rows = fam_skew.span.rows[perm]

    report = matalg.star_map_on_basis(
        fam_skew.span,
        image_rows,
        m,
        fam_skew.span.gen_rows,
        gen_imgs,
        target=ccp.span,
        inverse_rows=inverse_rows,
    )

    return IsomorphismCertificate(
        theorem="eqvt-iso",
        lhs_name="C*(E x_c G)",
        rhs_name="C*(E) x_delta G",
        lhs_dim=fam_skew.dim,
        rhs_dim=ccp.dim,
        tolerance=tol,
        star_report=report,
        equivariance_error=eq_err,
        extra=Report(checks=[Check("ck_family", ck_err, tol)], errors={"ck_family": "ck_error"}),
    )


def certify_direct_iso(
    graph: DirectedGraph,
    G: FiniteGroup,
    labeling: Labeling,
    tol: float = DEFAULT_ISO_TOL,
    compute_signatures: bool = True,
    rng: np.random.Generator | None = None,
    *,
    parts: DualityParts | None = None,
) -> IsomorphismCertificate:
    """Certify C*(E x_c G) x_gamma G = C*(E) (x) M_|G| via Theta and Upsilon."""
    parts = _parts_for(parts, graph, G, labeling, tol)
    fam, skew = parts.fam, parts.skew
    acp, target = parts.acp, parts.target
    _, rho, chi = regular_rows(G)
    mt = target.ambient_dim  # = P |G|

    # Theta on generators: the Cuntz-Krieger relations, and u_t t_(f,r) =
    # t_(f, r t^-1) u_t, the covariance the universal property needs.
    ck_err, cov_err = parts.theta_side_errors
    image_rows = parts.theta_rows

    # Upsilon: y_r = sum_v p_(v,r), w_t = (y x u)(lam_t), t_f, q_v.  The
    # crossed product's generators are pi~(s_e), pi~(p_v) (in the order of
    # fam_skew's generators) and then u_t; y_r, q_v and the sums of the
    # pi~(s_(f,r)) over r are 0/1 sums of them.
    n_se, n_sv, n_e, m = skew.n_edges, skew.n_vertices, graph.n_edges, G.order
    N = acp.ambient_dim
    gen_rows = acp.span.gen_rows
    # Skew edge (f, r) sits at f |G| + r and skew vertex (v, r) at v |G| + r.
    es, vs = np.arange(n_se), np.arange(n_sv)
    sum_of = np.r_[vs % m, m + es // m, m + n_e + vs // m]  # y_r, sums over r, q_v
    sums = matalg._csr(np.ones(len(sum_of)), sum_of, np.r_[n_se + vs, es, n_se + vs],
                       (m + n_e + graph.n_vertices, gen_rows.shape[0])) @ gen_rows
    y_rows, s_sums, q_rows = sums[:m], sums[m:m + n_e], sums[m + n_e:]
    # y_a u_b at row b |G| + a.
    yu = sp.vstack([p for _, p in matalg.right_products(y_rows, gen_rows[n_se + n_sv:], N)],
                   format="csr")
    # w_t = sum_r y_(t r) u_(r^-1 t^-1 r); t_f = (sum_r pi~(s_(f,r))) w_(c(f)^-1),
    # the product at row c(f)^-1 n_e + f.
    inv, (t, r) = G.inverse, np.divmod(np.arange(m * m), m)
    w_rows = matalg._csr(np.ones(m * m), t,
                         G.table[inv[r], G.table[inv[t], r]] * m + G.table[t, r], (m, m * m)) @ yu
    sw = sp.vstack([p for _, p in matalg.right_products(s_sums, w_rows, N)], format="csr")
    t_rows = sw[inv[labeling.by_edge] * n_e + np.arange(n_e)]

    # Upsilon on the target basis e_{mu,nu} (x) E_{a,b} -> t_mu t_nu* y_a u_{a^-1 b},
    # with (a, b) = (t, r).
    tq = sp.vstack([t_rows, q_rows], format="csr")
    inverse_rows = _basis_image_rows(fam, tq, N, post=yu[G.table[inv[t], r] * m + t])

    report = matalg.star_map_on_basis(
        acp.span, image_rows, mt, acp.span.gen_rows, parts.theta_gen_rows,
        target=target, inverse_rows=inverse_rows,
    )

    # Generator-level composition identities.
    # Upsilon(Theta(g)): expand Theta(g) in the *target* basis, combine Upsilon rows.
    c_target, comp_err = target.coefficients_rows(parts.theta_gen_rows)
    ups_of_theta = c_target @ inverse_rows
    comp_err = max(comp_err, matalg.max_row_norm(ups_of_theta - acp.span.gen_rows))
    # Theta(Upsilon(h)) for the target generators h = s_f (x) chi_r rho_t and
    # p_v (x) chi_r rho_t, in this order, at row g |G|^2 + t |G| + r:
    # Upsilon(h) = t_f (y_r u_t), q_v (y_r u_t), row (t |G| + r) n_h + g of tq yu.
    chi_rho = sp.vstack([p for _, p in matalg.right_products(chi, rho, m)], format="csr")
    h_rows = matalg._kron_rows(fam.span.gen_rows, chi_rho, fam.ambient_dim, m)
    tq_yu = sp.vstack([p for _, p in matalg.right_products(tq, yu, N)], format="csr")
    n_h = fam.span.gen_rows.shape[0]
    g, tr = np.divmod(np.arange(n_h * m * m), m * m)
    ups_h = tq_yu[tr * n_h + g]
    c_dom, resid = acp.span.coefficients_rows(ups_h)
    comp_err = max(comp_err, resid)
    theta_of_ups = c_dom @ image_rows
    comp_err = max(comp_err, matalg.max_row_norm(theta_of_ups - h_rows))

    signatures = None
    if compute_signatures and acp.dim <= _SIGNATURE_DIM_CAP:
        signatures = {
            "lhs": matalg.wedderburn_signature(acp.span, rng=rng),
            "rhs": matalg.wedderburn_signature(target, rng=rng),
        }

    dims_ok = acp.dim == fam.dim * G.order**2 == target.dim
    return IsomorphismCertificate(
        theorem="direct-iso",
        lhs_name="C*(E x_c G) x_gamma G",
        rhs_name="C*(E) (x) M_|G|",
        lhs_dim=acp.dim,
        rhs_dim=target.dim,
        tolerance=tol,
        star_report=report,
        signatures=signatures,
        extra=Report(
            checks=[Check("ck_family", ck_err, tol), Check("covariance", cov_err, tol),
                    Check("composition", comp_err, tol),
                    Check.holds("dim_arithmetic", dims_ok)],
            errors={"ck_family": "ck_error", "composition": "composition_error"},
        ),
    )


def certify_regular_diagram(
    graph: DirectedGraph,
    G: FiniteGroup,
    labeling: Labeling,
    tol: float = DEFAULT_ISO_TOL,
    *,
    parts: DualityParts | None = None,
) -> IsomorphismCertificate:
    """Chase the generators of C*(E x_c G) x_gamma G around the diagram.

    Route A is Theta; route B composes the eqvt isomorphism with the duality
    composite  j_A(a) -> (id (x) lam)(delta(a)),  j_G(chi_r) -> 1 (x) chi_r,
    u_t -> 1 (x) rho_t.  Their agreement on every generator, together with
    bijectivity of Theta, witnesses at finite scale that the regular
    representation of the crossed product is faithful.
    """
    parts = _parts_for(parts, graph, G, labeling, tol)
    fam, skew = parts.fam, parts.skew
    _, rho, chi = regular_rows(G)
    P, n_g = fam.ambient_dim, fam.span.gen_rows.shape[0]
    ones = matalg.identity_row(P)

    # Route B: delta(s_f) (1 (x) chi_r) at row r n_g + f and delta(p_v) (1 (x)
    # chi_r) at row r n_g + n_e + v, picked in Theta's (f, r), (v, r) order,
    # then u_t -> 1 (x) rho_t.
    chi_rows = matalg._kron_rows(ones, chi, P, G.order)
    prods = sp.vstack([p for _, p in matalg.right_products(
        parts.coaction.gen_delta, chi_rows, P * G.order)], format="csr")
    f, r = np.divmod(np.arange(skew.n_edges), G.order)
    v, rv = np.divmod(np.arange(skew.n_vertices), G.order)
    picks = np.r_[r * n_g + f, rv * n_g + graph.n_edges + v]
    route_b = sp.vstack([prods[picks],
                         matalg._kron_rows(ones, rho, P, G.order)], format="csr")
    err = matalg.max_row_norm(parts.theta_gen_rows - route_b)

    # Finite-scale faithfulness: the regular covariant representation of the
    # crossed product preserves the universal dimension dim(A) |G|.
    fam_skew, acp = parts.fam_skew, parts.acp
    dims_ok = acp.dim == fam_skew.dim * G.order

    return IsomorphismCertificate(
        theorem="regular-diagram",
        lhs_name="duality composite after eqvt-iso",
        rhs_name="Theta",
        lhs_dim=acp.dim,
        rhs_dim=fam_skew.dim * G.order,
        tolerance=tol,
        extra=Report(checks=[Check("chase", err, tol), Check.holds("regular_rep_dim", dims_ok)],
                     errors={"chase": "chase_error"}),
    )


def certify_free_action(
    graph: DirectedGraph,
    action: GraphAction,
    tol: float = DEFAULT_ISO_TOL,
    rng: np.random.Generator | None = None,
) -> IsomorphismCertificate:
    """Certify C*(F) x_beta G = C*(F/G) (x) M_|G| for a free action.

    Factors F through the skew product of its quotient, transports beta to
    right translation along the factorization, and composes with the direct
    isomorphism certificate.
    """
    G = action.group
    quotient, labeling, iso = quotient_and_gross_tucker(graph, action)

    fam_f = ck_representation(graph)
    beta = ck_action_from_graph_action(fam_f, action)
    acp_f = ActionCrossedProduct(fam_f.span, G, beta, tol=tol)

    parts = DualityParts(quotient, G, labeling, tol)
    fam_skew, target = parts.fam_skew, parts.target
    inner = certify_direct_iso(
        quotient, G, labeling, tol=tol, compute_signatures=False, parts=parts
    )
    if not all(c.passed for c in inner.star_report.checks):
        raise CertificationFailed("inner direct isomorphism failed")

    # Transport: relabel F-paths as skew paths through the graph isomorphism,
    # and the basis (e_{mu,nu}, s) of acp_f as (e_{iso mu, iso nu}, s).  The
    # isomorphism's codomain and fam_skew's graph are both skew_product(
    # quotient, G, labeling), so iso's index maps index fam_skew's cells.
    n_se, n_sv, m = fam_skew.graph.n_edges, fam_skew.graph.n_vertices, G.order
    path_map = fam_f.map_paths(iso.emap, iso.vmap, target=fam_skew)
    pair_map = fam_skew.pair(path_map[fam_f.pairs[:, 0]], path_map[fam_f.pairs[:, 1]])
    basis_map = (pair_map[:, None] * m + np.arange(m)).ravel()

    # Theta on the relabeled basis and generators, as built for the inner
    # certificate: the generators of acp_f are pi~(s_e), pi~(p_v), u_t, and
    # those of the inner crossed product pi~(s_(f,r)), pi~(p_(v,r)), u_t.
    image_rows = parts.theta_rows[basis_map]
    gen_map = np.r_[iso.emap, n_se + iso.vmap, n_se + n_sv + np.arange(m)]

    report = matalg.star_map_on_basis(
        acp_f.span, image_rows, target.ambient_dim, acp_f.span.gen_rows,
        parts.theta_gen_rows[gen_map], target=target,
    )

    signatures = {
        "lhs": matalg.wedderburn_signature(acp_f.span, rng=rng),
        "rhs": matalg.wedderburn_signature(target, rng=rng),
    }

    return IsomorphismCertificate(
        theorem="free-action",
        lhs_name="C*(F) x_beta G",
        rhs_name="C*(F/G) (x) M_|G|",
        lhs_dim=acp_f.dim,
        rhs_dim=target.dim,
        tolerance=tol,
        star_report=report,
        signatures=signatures,
        extra=Report(
            {"quotient_vertices": quotient.n_vertices, "quotient_edges": quotient.n_edges},
            [Check.holds("inner_direct_iso", inner.passed)],
        ),
    )


def _theta_generator_images(fam, G, labeling) -> sp.csr_matrix:
    """The rows vec of Theta's images s_(f,r) -> s_f (x) lam_c(f) chi_r,
    p_(v,r) -> p_v (x) chi_r and u_t -> 1 (x) rho_t inside C*(E) (x) M_|G|,
    in the order of the skew product's edges f |G| + r, its vertices
    v |G| + r, and then G."""
    lam, rho, chi = regular_rows(G)
    graph, P, m = fam.graph, fam.ambient_dim, G.order
    gen_rows, n_e = fam.span.gen_rows, graph.n_edges
    # s_f (x) lam_t chi_r at row f |G|^2 + r |G| + t, picked at t = c(f).
    lam_chi = sp.vstack([p for _, p in matalg.right_products(lam, chi, m)], format="csr")
    edges = matalg._kron_rows(gen_rows[:n_e], lam_chi, P, m)
    f, r = np.divmod(np.arange(n_e * m), m)
    # p_v (x) chi_r at row v |G| + r.
    vertices = matalg._kron_rows(gen_rows[n_e:], chi, P, m)
    us = matalg._kron_rows(matalg.identity_row(P), rho, P, m)
    return sp.vstack([edges[(f * m + r) * m + labeling.by_edge[f]], vertices, us], format="csr")
