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
    ck_action_from_graph_action,
)
from .graphalg import CKFamily, ck_representation
from .graphs import DirectedGraph, GraphAction, skew_product, translation_action
from .graphs import quotient_and_gross_tucker
from .groups import FiniteGroup, Labeling, regular_matrices
from .matalg import StarMapReport, full_matrix_span, tensor_span

DEFAULT_ISO_TOL = 1e-8
_SIGNATURE_DIM_CAP = 600  # certify_direct_iso skips signatures above this dimension


class CertificationFailed(RuntimeError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class IsomorphismCertificate:
    theorem: str
    lhs_name: str
    rhs_name: str
    lhs_dim: int
    rhs_dim: int
    tolerance: float
    star_report: StarMapReport | None = None
    equivariance_error: float | None = None
    signatures: dict | None = None
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        checks = [self.lhs_dim == self.rhs_dim]
        if self.star_report is not None:
            checks.append(self.star_report.passed and self.star_report.bijective)
        if self.equivariance_error is not None:
            checks.append(self.equivariance_error <= self.tolerance)
        if self.signatures is not None:
            checks.append(self.signatures.get("lhs") == self.signatures.get("rhs"))
        checks.extend(bool(v) for k, v in self.extra.items() if k.endswith("_ok"))
        return all(checks)

    def as_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "passed": self.passed,
            "lhs": {"name": self.lhs_name, "dim": self.lhs_dim},
            "rhs": {"name": self.rhs_name, "dim": self.rhs_dim},
            "tolerance": self.tolerance,
        }
        if self.star_report is not None:
            out["star_map"] = {
                "well_defined": self.star_report.well_defined,
                "multiplicative": self.star_report.multiplicative,
                "star_preserving": self.star_report.star_preserving,
                "injective": self.star_report.injective,
                "surjective": self.star_report.surjective,
                "max_error": self.star_report.max_error,
            }
        if self.equivariance_error is not None:
            out["equivariance_error"] = self.equivariance_error
        if self.signatures is not None:
            out["signatures"] = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in self.signatures.items()
            }
        if self.extra:
            out["extra"] = {
                k: (list(v) if isinstance(v, tuple) else v) for k, v in self.extra.items()
            }
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


def _skew_path_lookup(fam_skew: CKFamily, fam: CKFamily, G: FiniteGroup,
                      labeling: Labeling, skew: DirectedGraph):
    """Index map (base-graph path i, terminal group coordinate a) -> skew path.

    A path of E x_c G is determined by a path mu of E together with the group
    coordinate of its terminal vertex.
    """
    graph = fam.graph
    lookup = {}
    for i, p in enumerate(fam.paths):
        for a in G:
            # Walk mu backwards: the coordinate of edge l is c(f_{l+1}) ... c(f_n) a.
            coords = []
            acc = a
            for e in reversed(p.edges):
                coords.append(acc)
                acc = G.mul(labeling.of(e), acc)
            coords.reverse()
            edge_ids = tuple(
                skew.edge_index((graph.edges[e].id, G.name(t)))
                for e, t in zip(p.edges, coords)
            )
            base = skew.vertex_index((graph.vertices[p.source], G.name(acc)))
            lookup[(i, a)] = fam_skew.path_index[(base, edge_ids)]
    return lookup


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
    def coaction(self) -> graphalg.RepresentedCoaction:
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
        return _theta_generator_images(self.fam, self.skew, self.G, self.labeling)

    @cached_property
    def theta_side_errors(self) -> tuple[float, float]:
        """(ck_error, covariance_error) of Theta's generator images: the
        Cuntz-Krieger relations of t_(f,r), q_(v,r), and u_t t_g = t_(t.g) u_t
        for every generator g of C*(E x_c G), one stacked comparison per t.
        Since u_t is unitary, the second is also |u_t t_g u_t* - t_(t.g)|, the
        equivariance error of Phi."""
        skew, gact = self.skew, self.gact
        n_e, n_g = skew.n_edges, skew.n_edges + skew.n_vertices
        gens, us = self.theta_gen_rows[:n_g], self.theta_gen_rows[n_g:]
        m = self.fam.ambient_dim * self.G.order
        ck_err = graphalg._ck_relations_for(skew, gens, m)
        cov_err = 0.0
        for t in self.G:
            moved = np.concatenate([gact.eperm[t], n_e + gact.vperm[t]])
            _, lhs = next(matalg.left_products(gens, us[t], m))
            _, rhs = next(matalg.right_products(gens[moved], us[t], m))
            cov_err = max(cov_err, matalg.max_row_norm(lhs - rhs))
        return ck_err, cov_err

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
    fam, skew, fam_skew = parts.fam, parts.skew, parts.fam_skew
    ccp = CoactionCrossedProduct(parts.coaction.graded, graded_checked=True)
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
    # skew matrix unit over the paths (mu, a), (nu, a) with a = c(nu)^-1 u.
    lookup = _skew_path_lookup(fam_skew, fam, G, labeling, skew)
    path_degree = [labeling.of_path(p.edges) for p in fam.paths]
    perm = np.zeros(ccp.dim, dtype=np.int64)
    for k, (i, j) in enumerate(fam.pairs):
        cnu = path_degree[j]
        for u in G:
            a = G.mul(G.inv(cnu), u)
            skew_pair = fam_skew.pair_index[(lookup[(i, a)], lookup[(j, a)])]
            perm[k * G.order + u] = skew_pair
    inverse_rows = fam_skew.span.rows[perm]

    report = matalg.star_map_on_basis(
        fam_skew.span,
        image_rows,
        m,
        fam_skew.span.gen_rows,
        gen_imgs,
        tol=tol,
        target=ccp.span,
        inverse_rows=inverse_rows,
        check_right=False,
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
        extra={"ck_family_ok": ck_err <= tol, "ck_error": ck_err},
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
    _, rho, chi = regular_matrices(G)
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
    vertex_cols = n_se + np.arange(n_sv)
    sum_of = ([G.index(r) for _, r in skew.vertices]  # y_r
              + [m + graph.edge_index(e.id[0]) for e in skew.edges]
              + [m + n_e + graph.vertex_index(v) for v, _ in skew.vertices])  # q_v
    sums = sp.csr_matrix(
        (np.ones(len(sum_of)), (sum_of, np.r_[vertex_cols, np.arange(n_se), vertex_cols])),
        shape=(m + n_e + graph.n_vertices, gen_rows.shape[0]),
    ) @ gen_rows
    y_rows, s_sums, q_rows = sums[:m], sums[m:m + n_e], sums[m + n_e:]
    # y_a u_b at row b |G| + a.
    yu = sp.vstack([p for _, p in matalg.right_products(y_rows, gen_rows[n_se + n_sv:], N)],
                   format="csr")
    # w_t = sum_r y_(t r) u_(r^-1 t^-1 r); t_f = (sum_r pi~(s_(f,r))) w_(c(f)^-1),
    # the product at row c(f)^-1 n_e + f.
    w_rows = sp.csr_matrix(
        (np.ones(m * m), ([t for t in G for r in G],
                          [G.mul(G.inv(r), G.mul(G.inv(t), r)) * m + G.mul(t, r)
                           for t in G for r in G])), shape=(m, m * m)) @ yu
    sw = sp.vstack([p for _, p in matalg.right_products(s_sums, w_rows, N)], format="csr")
    t_rows = sw[[G.inv(labeling.of(f)) * n_e + f for f in range(n_e)]]

    # Upsilon on the target basis e_{mu,nu} (x) E_{a,b} -> t_mu t_nu* y_a u_{a^-1 b}.
    tq = sp.vstack([t_rows, q_rows], format="csr")
    inverse_rows = _basis_image_rows(
        fam, tq, N, post=yu[[G.mul(G.inv(a), b) * m + a for a in G for b in G]],
    )

    report = matalg.star_map_on_basis(
        acp.span, image_rows, mt, acp.span.gen_rows, parts.theta_gen_rows, tol=tol,
        target=target, inverse_rows=inverse_rows, check_right=False,
    )

    # Generator-level composition identities.
    # Upsilon(Theta(g)): expand Theta(g) in the *target* basis, combine Upsilon rows.
    c_target, comp_err = target.coefficients_rows(parts.theta_gen_rows)
    ups_of_theta = c_target @ inverse_rows
    comp_err = max(comp_err, matalg.max_row_norm(ups_of_theta - acp.span.gen_rows))
    # Theta(Upsilon(h)) for the target generators h = s_f (x) chi_r rho_t and
    # p_v (x) chi_r rho_t, in this order: Upsilon(h) = t_f (y_r u_t), q_v (y_r u_t).
    h_rows = matalg._kron_rows(fam.span.gen_rows,
                               matalg.vec_rows([chi[r] @ rho[t] for r in G for t in G]),
                               fam.ambient_dim, m)
    tq_yu = sp.vstack([p for _, p in matalg.right_products(tq, yu, N)], format="csr")
    n_h = fam.span.gen_rows.shape[0]
    ups_h = tq_yu[[(t * m + r) * n_h + g for g in range(n_h) for r in G for t in G]]
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
        extra={
            "ck_family_ok": ck_err <= tol,
            "ck_error": ck_err,
            "covariance_ok": cov_err <= tol,
            "composition_ok": comp_err <= tol,
            "composition_error": comp_err,
            "dim_arithmetic_ok": dims_ok,
        },
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
    fam, rc, skew = parts.fam, parts.coaction, parts.skew
    _, rho, chi = regular_matrices(G)
    P, n_g = fam.ambient_dim, fam.span.gen_rows.shape[0]
    ones = matalg.vec_rows([sp.identity(P, format="csr")])

    # Route B: delta(s_f) (1 (x) chi_r) at row r n_g + f and delta(p_v) (1 (x)
    # chi_r) at row r n_g + n_e + v, picked in Theta's (f, r), (v, r) order,
    # then u_t -> 1 (x) rho_t.
    chi_rows = matalg._kron_rows(ones, matalg.vec_rows(chi), P, G.order)
    prods = sp.vstack([p for _, p in matalg.right_products(
        rc.graded.delta(fam.span.gen_rows), chi_rows, P * G.order)], format="csr")
    picks = ([G.index(r) * n_g + graph.edge_index(f) for f, r in (e.id for e in skew.edges)]
             + [G.index(r) * n_g + graph.n_edges + graph.vertex_index(v)
                for v, r in skew.vertices])
    route_b = sp.vstack([prods[picks],
                         matalg._kron_rows(ones, matalg.vec_rows(rho), P, G.order)], format="csr")
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
        extra={
            "chase_ok": err <= tol,
            "chase_error": err,
            "regular_rep_dim_ok": dims_ok,
        },
    )


def certify_free_action(
    graph: DirectedGraph,
    action: GraphAction,
    tol: float = DEFAULT_ISO_TOL,
    compute_signatures: bool = True,
    rng: np.random.Generator | None = None,
) -> IsomorphismCertificate:
    """Certify C*(F) x_beta G = C*(F/G) (x) M_|G| for a free action.

    Factors F through the skew product of its quotient, transports beta to
    right translation along the factorization, and composes with the direct
    isomorphism certificate.
    """
    G = action.group
    quotient, labeling, iso = quotient_and_gross_tucker(graph, action)
    skew = iso.b

    fam_f = ck_representation(graph)
    beta = ck_action_from_graph_action(fam_f, action)
    acp_f = ActionCrossedProduct(fam_f.span, G, beta, tol=tol)

    parts = DualityParts(quotient, G, labeling, tol)
    fam_skew, target = parts.fam_skew, parts.target
    inner = certify_direct_iso(
        quotient, G, labeling, tol=tol, compute_signatures=False, parts=parts
    )
    if not (inner.star_report.passed and inner.star_report.bijective):
        raise CertificationFailed("inner direct isomorphism failed", witness=inner)

    # Transport: relabel F-paths as skew paths through the graph isomorphism.
    path_map = np.zeros(fam_f.ambient_dim, dtype=np.int64)
    for i, p in enumerate(fam_f.paths):
        edges = tuple(
            fam_skew.graph.edge_index(iso.edge(graph.edges[e].id)) for e in p.edges
        )
        base = fam_skew.graph.vertex_index(iso.vertex(graph.vertices[p.base]))
        path_map[i] = fam_skew.path_index[(base, edges)]
    pair_map = np.zeros(fam_f.dim, dtype=np.int64)
    for k, (i, j) in enumerate(fam_f.pairs):
        pair_map[k] = fam_skew.pair_index[(int(path_map[i]), int(path_map[j]))]
    m = G.order
    basis_map = np.zeros(acp_f.dim, dtype=np.int64)
    for k in range(fam_f.dim):
        for s in G:
            basis_map[k * m + s] = int(pair_map[k]) * m + s

    # Theta on the relabeled basis and generators, as built for the inner
    # certificate: the generators of acp_f are pi~(s_e), pi~(p_v), u_t, and
    # those of the inner crossed product pi~(s_(f,r)), pi~(p_(v,r)), u_t.
    image_rows = parts.theta_rows[basis_map]
    n_se, n_sv = fam_skew.graph.n_edges, fam_skew.graph.n_vertices
    gen_map = [fam_skew.graph.edge_index(iso.edge(edge.id)) for edge in graph.edges]
    gen_map += [n_se + fam_skew.graph.vertex_index(iso.vertex(v)) for v in graph.vertices]
    gen_map += [n_se + n_sv + t for t in G]

    report = matalg.star_map_on_basis(
        acp_f.span, image_rows, target.ambient_dim, acp_f.span.gen_rows,
        parts.theta_gen_rows[gen_map], tol=tol, target=target, check_right=False,
    )

    # beta_t(s_f) = s_{t.f} is respected by the transported generators.
    s_rows = fam_f.span.gen_rows[:graph.n_edges]
    s_coeffs, _ = fam_f.span.coefficients_rows(s_rows)
    beta_err = 0.0
    for t in G:
        moved = s_coeffs @ beta.coeff_mats[t] @ fam_f.span.rows
        beta_err = max(beta_err, matalg.max_row_norm(moved - s_rows[action.eperm[t]]))

    signatures = None
    if compute_signatures:
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
        extra={
            "beta_ok": beta_err <= tol,
            "quotient_vertices": quotient.n_vertices,
            "quotient_edges": quotient.n_edges,
            "inner_direct_iso_ok": inner.passed,
        },
    )


def _theta_generator_images(fam, skew, G, labeling) -> sp.csr_matrix:
    """The rows vec of Theta's images s_(f,r) -> s_f (x) lam_c(f) chi_r,
    p_(v,r) -> p_v (x) chi_r and u_t -> 1 (x) rho_t inside C*(E) (x) M_|G|,
    in the order of ``skew.edges``, ``skew.vertices`` and then G."""
    lam, rho, chi = regular_matrices(G)
    graph, P, m = fam.graph, fam.ambient_dim, G.order
    gen_rows, n_e = fam.span.gen_rows, graph.n_edges
    # s_f (x) lam_t chi_r at row f |G|^2 + t |G| + r, picked at t = c(f).
    edges = matalg._kron_rows(gen_rows[:n_e], matalg.vec_rows(
        [lam[t] @ chi[r] for t in G for r in G]), P, m)
    f = np.array([graph.edge_index(e.id[0]) for e in skew.edges], dtype=np.int64)
    edge_picks = (f * m + labeling.by_edge[f]) * m + [G.index(e.id[1]) for e in skew.edges]
    # p_v (x) chi_r at row v |G| + r.
    vertices = matalg._kron_rows(gen_rows[n_e:], matalg.vec_rows(chi), P, m)
    vertex_picks = [graph.vertex_index(v) * m + G.index(r) for v, r in skew.vertices]
    us = matalg._kron_rows(matalg.vec_rows([sp.identity(P, format="csr")]),
                           matalg.vec_rows(rho), P, m)
    return sp.vstack([edges[edge_picks], vertices[vertex_picks], us], format="csr")
