"""Independent loop versions of the batched relation checks and constructions,
and the reference versions of the index-built groupoid products.

Each check tests the same relations as its counterpart in ``skewprod`` one
vertex, edge, vertex pair or generator at a time, with one small sparse or
dense product per relation, and each construction builds its matrices one
at a time.  The group actions are built as conjugation by general unitary
matrices, multiplied out, where ``skewprod`` remaps indices by a permutation
table, and the gauge action is certified as a numerical *-homomorphism,
where ``skewprod`` checks the length grading by index arithmetic.  The skew
and semidirect products, the translation action and the subgroupoids are
built here from arrow names through ``make_groupoid``, where ``skewprod``
computes their tables from integer arrays; so are the transitive, pair and
units-only groupoids and the disjoint unions.  The random cocycle finds its
components and reference arrows by search, and the Gross-Tucker
isomorphism is built as name dicts, where ``skewprod`` uses index
arithmetic and index arrays.  *-maps on matrix lists are
certified by closing the graph of the map, where ``skewprod`` certifies them
on a known basis; on a known basis, ``float_star_map`` expands every product
and adjoint by linear algebra and compares norms, where ``skewprod`` reads
them on index tables.  The equivalence-bimodule axioms are checked pair by pair
on dicts, where ``skewprod`` checks index tables.  Paths are looked up by
their (source, edge tuple) keys and walked edge by edge, for the path
degrees, gamma's path permutation and the lift into E x_c G, where
``skewprod`` reads the head/tail table of ``CKFamily``.  S3, the non-abelian group
of the random draws, is built from permutations.  The groupoid's randomized
identities (the bimodule's inner products and module action, convolutions,
the expectation checks) run one draw, one (n, y) pair and one arrow at a
time, where ``skewprod`` runs stacks of draws and reads the inner product's
terms from one flat table.  The tests compare the
batched versions with these on random, gauge-scaled and groupoid inputs and
on planted defects.

The Wedderburn signature is computed on dense d x d matrices, where
``skewprod`` solves their sparse components block by block.

The regular representation is built as lists of |G| x |G| matrices
(``regular_matrices``), where ``skewprod`` writes lam, rho and chi as vec rows
from the Cayley table; the spanning rows of a coaction crossed product, the
basis of an action crossed product and its rows u~_s are written here entry by
entry from the index layout ((p, q), (r, s)) -> (p |G| + r) N + (q |G| + s) of
A (x) M_|G|, where ``skewprod`` takes one ``_kron_rows`` of group-leg rows.
``_kron_rows`` itself multiplies entry lists by index arithmetic, and its
reference here is one sparse kron (``kron_rows_by_sparse_kron``); the
coaction's delta rows are the spanning rows summed over u by one sparse
product (``delta_rows_by_collapse``), where ``skewprod`` relabels rows.

The module also holds the small helpers that only tests call: the trivial
group, constant labelings, the ladder L_k and the groupoid Q_3 over S3, the
operator norm, matrix units, spans of orthogonal matrix lists, and the basis
matrices, expansions, membership and random elements of an ``AlgebraSpan``.
"""
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from skewprod import graphs, groups, matalg, suite
from skewprod.crossed import ActionCrossedProduct, ActionInvalid
from skewprod.groupoids import (
    Cocycle,
    FormulaMismatch,
    GroupoidAction,
    GroupoidError,
    algebra_action_from_groupoid_action,
    convolution_algebra,
    disjoint_union,
    kernel_subgroupoid,
    make_groupoid,
    pair_groupoid,
    semidirect_product,
    transitive_groupoid,
)
from skewprod.matalg import frobenius


def trivial_group() -> groups.FiniteGroup:
    return groups.make_group([[0]], elements=["e"])


def constant_labeling(graph, G: groups.FiniteGroup, value: int | None = None) -> groups.Labeling:
    if value is None:
        value = G.identity_index
    return groups.Labeling(graph, G, [value] * len(graph.edges))


def regular_matrices(G: groups.FiniteGroup) -> tuple[list, list, list]:
    """The matrices of lam_s e_t = e_(st), rho_s e_t = e_(t s^-1) and chi_r, the
    projection onto e_r, for every element, as sparse complex 0/1 lists.

    The right-regular convention is chosen so that rho_t chi_r = chi_(r t^-1) rho_t
    holds on the nose.  Groups are immutable: the lists are built once and
    cached on G, and callers must not mutate them.
    """
    if not hasattr(G, "_regular"):
        n = G.order
        ones, cols = np.ones(n, dtype=np.complex128), np.arange(n)

        def sends(targets):  # the permutation matrix e_t -> e_(targets[t])
            return sp.csr_matrix((ones, (targets, cols)), shape=(n, n))

        G._regular = ([sends(G.table[s]) for s in G],
                      [sends(G.table[:, G.inv(s)]) for s in G],
                      [sp.csr_matrix((ones[:1], ([r], [r])), shape=(n, n)) for r in G])
    return G._regular


def spanning_rows_by_index(graded) -> sp.csr_matrix:
    """Rows vec(b_i (x) lam_t chi_u), t = deg(b_i), at index k = i |G| + u,
    entry by entry from the index layout."""
    G = graded.group
    m = G.order
    n = graded.span.ambient_dim
    N = n * m
    coo = graded.span.rows.tocoo()
    a_i, a_j = coo.col // n, coo.col % n
    deg = graded.degrees[coo.row]
    rows_idx, cols_idx, data = [], [], []
    for u in G:
        tu = G.table[deg, u]
        rows_idx.append(coo.row * m + u)
        cols_idx.append((a_i * m + tu) * N + (a_j * m + u))
        data.append(coo.data)
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
        shape=(graded.span.dim * m, N * N),
    )


def action_basis_rows_by_index(action) -> sp.csr_matrix:
    """The basis rows vec(pi~(b_i) u~_s) of the crossed product by ``action``,
    at index i |G| + s, entry by entry: pi~(b_i) u~_s =
    sum_t gamma_{t^-1}(b_i) (x) E_{t, s^-1 t}."""
    G, n, d = action.group, action.span.ambient_dim, action.span.dim
    m = G.order
    N = n * m
    rows_idx, cols_idx, data = [], [], []
    for t in G:
        g = action.image_rows(G.inv(t)).tocoo()
        a_i, a_j = g.col // n, g.col % n
        for s in G:
            u = G.mul(G.inv(s), t)
            big = (a_i * m + t) * N + (a_j * m + u)
            rows_idx.append(g.row * m + s)
            cols_idx.append(big)
            data.append(g.data)
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
        shape=(d * m, N * N),
    )


def u_rows_by_index(G: groups.FiniteGroup, n: int) -> sp.csr_matrix:
    """The rows vec(u~_s), u~_s = 1_n (x) lam_s sending e_(i, u) to e_(i, s u),
    index i |G| + u, entry by entry."""
    m = G.order
    N = n * m
    i, u = np.divmod(np.arange(N), m)
    u_perm = i * m + G.table[:, u]
    return sp.csr_matrix(
        (np.ones(m * N, dtype=np.complex128),
         (np.repeat(np.arange(m), N), (u_perm * N + np.arange(N)).ravel())),
        shape=(m, N * N),
    )


def kron_rows_by_sparse_kron(x, y, na: int, nb: int) -> sp.csr_matrix:
    """vec(x_i (x) y_j) at row i len(y) + j from one sparse kron of the two
    row matrices: its column (p n_a + q)(n_b^2) + (r n_b + s) holds the entry
    ((p, q), (r, s)), which sits at vec index (p n_b + r) N + (q n_b + s) of
    the N x N kron, N = n_a n_b."""
    k = sp.kron(x, y, format="coo")
    ca, cb = divmod(k.col.astype(np.int64), nb * nb)
    (p, q), (r, s) = divmod(ca, na), divmod(cb, nb)
    return sp.csr_matrix((k.data, (k.row, (p * nb + r) * (na * nb) + (q * nb + s))),
                         shape=(x.shape[0] * y.shape[0], (na * nb) ** 2))


def multiples_by_searchsorted(span, gid, pos, val):
    """``matalg._multiples`` with each position found by ``searchsorted`` in
    the sorted support columns, in place of the span's position table, and
    the entries collected into a dict of (group, owner) lists: (groups, k, a),
    a = nan unless the list is nnz(b_k) entries at one ratio, k = -1 off the
    support."""
    cols, owner, phase = span.support
    at = np.minimum(np.searchsorted(cols, pos), len(cols) - 1)
    k = np.where(cols[at] == pos, owner[at], -1)
    lists = {}
    for key, ratio in zip(zip(gid.tolist(), k.tolist()), (val * phase[at]).tolist()):
        lists.setdefault(key, []).append(ratio)
    size = np.diff(span.rows.indptr)
    out = [(g, b, x[0] if b >= 0 and len(set(x)) == 1 and len(x) == size[b] else np.nan)
           for (g, b), x in sorted(lists.items())]
    g, b, a = zip(*out) if out else ((), (), ())
    return np.array(g, dtype=np.int64), np.array(b, dtype=np.int64), np.array(a, dtype=complex)


def delta_rows_by_collapse(graded) -> sp.csr_matrix:
    """Row i is the sum of the spanning rows i |G| + u over u, as one sparse
    product by 1_d (x) (1 ... 1), its indices sorted."""
    ones = np.ones((1, graded.group.order))
    collapse = sp.kron(sp.identity(graded.span.dim, format="csr"), ones, format="csr")
    return (collapse @ graded.spanning_rows).tocsr().sorted_indices()


def delta(graded, rows, tol: float | None = matalg.PRODUCT_TOL) -> sp.csr_matrix:
    """The rows vec(delta(a)) for every stacked row vec(a) of a graded span,
    through the basis expansion; raises :class:`matalg.NotInSpan` when a row
    is farther than ``tol`` from the span."""
    coeffs, resid = graded.span.coefficients_rows(rows)
    if tol is not None and resid > tol:
        raise matalg.NotInSpan(f"element is not in {graded.span.name} (residual {resid:.2e})")
    return coeffs @ graded.delta_rows


def matrix_unit(n: int, i: int, j: int) -> sp.csr_matrix:
    return sp.csr_matrix(([1.0 + 0j], ([i], [j])), shape=(n, n))


def from_orthogonal(mats: Sequence, name: str = "algebra") -> matalg.AlgebraSpan:
    """Wrap an orthogonal family of matrices as an AlgebraSpan (verified)."""
    if not mats:
        raise ValueError("empty basis")
    n = mats[0].shape[0]
    return matalg.AlgebraSpan(n, matalg.vec_rows(mats), name=name)


def operator_norm(mat) -> float:
    d = matalg.as_dense(mat)
    if d.size == 0:
        return 0.0
    return float(np.linalg.norm(d, 2))


def basis_matrix(span, i: int) -> sp.csr_matrix:
    n = span.ambient_dim
    return span.rows.getrow(i).reshape(n, n).tocsr()


def coefficients(span, mat, tol: float | None = None) -> np.ndarray:
    coeffs, resid = span.coefficients_rows(matalg.vec_rows([mat]))
    if tol is not None and resid > tol:
        raise matalg.NotInSpan(f"element is not in {span.name} (residual {resid:.2e})")
    return coeffs.toarray().ravel()


def contains(span, mat, tol: float = matalg.PRODUCT_TOL) -> bool:
    try:
        coefficients(span, mat, tol=tol)
        return True
    except matalg.NotInSpan:
        return False


def element(span, coeffs) -> sp.csr_matrix:
    n = span.ambient_dim
    row = sp.csr_matrix(np.asarray(coeffs, dtype=np.complex128).reshape(1, -1))
    return (row @ span.rows).reshape(n, n).tocsr()


def random_element(span, rng: np.random.Generator) -> sp.csr_matrix:
    c = rng.standard_normal(span.dim) + 1j * rng.standard_normal(span.dim)
    return element(span, c)


def ck_relations_loop(graph, s_imgs, p_imgs) -> float:
    """Largest violation of the Cuntz-Krieger relations, relation by relation."""
    ambient = p_imgs[0].shape[0]
    err = 0.0
    ident = sp.identity(ambient, format="csr", dtype=np.complex128)
    total = sp.csr_matrix((ambient, ambient), dtype=np.complex128)
    for v in range(graph.n_vertices):
        pv = p_imgs[v]
        total = total + pv
        err = max(err, frobenius(pv @ pv - pv), frobenius(pv.conj().T - pv))
        if frobenius(pv) == 0.0:
            err = max(err, 1.0)
    for v in range(graph.n_vertices):
        for w in range(v + 1, graph.n_vertices):
            err = max(err, frobenius(p_imgs[v] @ p_imgs[w]))
    err = max(err, frobenius(total - ident))
    for e in range(graph.n_edges):
        se = s_imgs[e]
        if frobenius(se) == 0.0:
            err = max(err, 1.0)
        err = max(err, frobenius(se.conj().T @ se - p_imgs[graph.rng[e]]))
    for v in range(graph.n_vertices):
        if graph.is_sink(v):
            continue
        acc = sp.csr_matrix((ambient, ambient), dtype=np.complex128)
        for e in graph.out_edges(v):
            acc = acc + s_imgs[e] @ s_imgs[e].conj().T
        err = max(err, frobenius(acc - p_imgs[v]))
    return err


def theta_generator_images_loop(fam, skew, G, labeling):
    """Theta's images s_(f,r) -> s_f (x) lam_c(f) chi_r, p_(v,r) -> p_v (x) chi_r
    and u_t -> 1 (x) rho_t as three matrix lists, one sparse kron each."""
    lam, rho, chi = regular_matrices(G)
    eye_p = sp.identity(fam.ambient_dim, format="csr", dtype=np.complex128)
    graph = fam.graph
    theta_edge = [sp.kron(fam.s[graph.edge_index(f)], lam[labeling.of(graph.edge_index(f))]
                          @ chi[G.index(r)], format="csr") for f, r in (e.id for e in skew.edges)]
    theta_vertex = [sp.kron(fam.p[graph.vertex_index(v)], chi[G.index(r)], format="csr")
                    for v, r in skew.vertices]
    theta_u = [sp.kron(eye_p, rho[t], format="csr") for t in G]
    return theta_edge, theta_vertex, theta_u


def path_lookup(fam) -> dict:
    """The index of every basis path by its (source, edge tuple) key."""
    return {(p.base, p.edges): i for i, p in enumerate(fam.paths)}


def path_label_loop(labeling, edges) -> int:
    """c(e_1) c(e_2) ... c(e_n) by a left-to-right loop; e for no edges."""
    G, out = labeling.group, labeling.group.identity_index
    for e in edges:
        out = G.mul(out, labeling.of(e))
    return out


def skew_lift_loop(fam, fam_skew, G, labeling) -> dict:
    """(path i of E, range coordinate a) -> the path of E x_c G over it,
    walking each path backwards from its range: edge l of the lift is
    (f_l, c(f_(l+1)) ... c(f_n) a), at index f_l |G| + that coordinate."""
    m, at = G.order, path_lookup(fam_skew)
    lookup = {}
    for i, p in enumerate(fam.paths):
        for a in G:
            edge_ids, acc = [], a
            for e in reversed(p.edges):
                edge_ids.append(e * m + acc)
                acc = G.mul(labeling.of(e), acc)
            lookup[(i, a)] = at[(p.source * m + acc, tuple(reversed(edge_ids)))]
    return lookup


def path_permutation_loop(fam, action) -> np.ndarray:
    """perm[t, i]: the index of t.mu for path i = mu, one path at a time."""
    at = path_lookup(fam)
    return np.array([[at[(int(action.vperm[t][p.base]),
                          tuple(int(action.eperm[t][e]) for e in p.edges))]
                      for p in fam.paths] for t in action.group])


def path_images_loop(fam, edge_imgs, vertex_imgs) -> list:
    """The word s_mu of every basis path as a matrix, one product per path."""
    at = path_lookup(fam)
    out = [None] * len(fam.paths)
    for i in sorted(range(len(fam.paths)), key=lambda i: len(fam.paths[i].edges)):
        p = fam.paths[i]
        if not p.edges:
            out[i] = vertex_imgs[p.source].tocsr()
        else:
            tail = at[(int(fam.graph.rng[p.edges[0]]), p.edges[1:])]
            out[i] = (edge_imgs[p.edges[0]] @ out[tail]).tocsr()
    return out


def graded_coaction_loop(graded, tol: float = 1e-12) -> dict:
    """Whether delta(b_i) = b_i (x) lam_deg(b_i) is a coaction: injective on
    the basis, and the coaction identity and nondegeneracy generator by
    generator with dense (n|G|)^2 matrices; raises :class:`ActionInvalid`
    naming every fact past ``tol``.  They hold for every degree table on an
    orthogonal basis, so ``crossed.coaction_check`` compares delta with its
    generator formula only, and the tests keep these facts through this loop."""
    G, span = graded.group, graded.span
    n, m = span.ambient_dim, G.order
    lam_sparse = regular_matrices(G)[0]
    lam = [mat.toarray() for mat in lam_sparse]
    eye_n = sp.identity(n, format="csr", dtype=np.complex128)
    shifts = [sp.kron(eye_n, mat, format="csr") for mat in lam_sparse]
    errs = {}

    gram = (graded.delta_rows @ graded.delta_rows.conj().T).toarray()
    off = np.abs(gram - np.diag(np.diag(gram)))
    errs["image_orthogonality"] = float(off.max()) if off.size else 0.0
    errs["injective"] = bool(np.all(np.abs(np.diag(gram)) > 0.5))

    ident_err = nondeg_err = 0.0
    all_coeffs = span.coefficients_rows(span.gen_rows)[0].toarray()
    all_dx = matalg.unvec_rows(delta(graded, span.gen_rows), n * m)
    for coeffs, dx in zip(all_coeffs, all_dx):
        dx = dx.toarray()
        dxd = dx.reshape(n, m, n, m)
        xs = [np.einsum("ab,iajb->ij", lam[t].conj(), dxd) / m for t in G]
        dxs = matalg.unvec_rows(delta(graded, matalg.vec_rows(xs), tol=None), n * m)
        recon = np.zeros_like(dx)
        for t, x_t, dx_t in zip(G, xs, dxs):
            component = element(span, np.where(graded.degrees == t, coeffs, 0)).toarray()
            ident_err = max(ident_err, float(np.linalg.norm(x_t - component)))
            if not x_t.any():
                continue
            x_t_lam = np.kron(x_t, lam[t])
            recon += x_t_lam
            ident_err = max(ident_err, float(np.linalg.norm(dx_t.toarray() - x_t_lam)))
            for r in G:
                lhs = (dx_t @ shifts[G.mul(G.inv(t), r)]).toarray()
                nondeg_err = max(nondeg_err, float(np.linalg.norm(lhs - np.kron(x_t, lam[r]))))
        ident_err = max(ident_err, float(np.linalg.norm(recon - dx)))
    errs["coaction_identity"] = ident_err
    errs["nondegeneracy_witness"] = nondeg_err

    bad = [k for k, v in errs.items() if (isinstance(v, float) and v > tol) or v is False]
    if bad:
        raise ActionInvalid(f"coaction verification failed: {bad} ({errs})")
    return errs


def unitary_conjugation_coeffs(span, group, unitaries, tol: float = matalg.PRODUCT_TOL) -> list:
    """The coefficient matrices of gamma_t = Ad(U_t) on the basis of ``span``
    for unitary matrices U_t: U_t X U_t* multiplied out for every basis
    element X, after checking that U_e = 1, that each U_t is unitary and
    that t -> U_t respects the group law."""
    G = group
    n = span.ambient_dim
    eye = sp.identity(n, format="csr", dtype=np.complex128)
    us = [sp.csr_matrix(u, dtype=np.complex128) for u in unitaries]
    if frobenius(us[G.identity_index] - eye) > tol:
        raise ActionInvalid("U_e is not the identity")
    for t in G:
        if frobenius(us[t] @ us[t].conj().T - eye) > tol:
            raise ActionInvalid(f"U_{t} is not unitary")
    for s in G:
        for t in G:
            if frobenius(us[s] @ us[t] - us[G.mul(s, t)]) > tol:
                raise ActionInvalid(f"U is not a homomorphism at ({s},{t})")
    mats = []
    for t, u_row in zip(G, matalg.vec_rows(us)):
        _, right = next(matalg.right_products(span.rows, matalg.star_columns(u_row, n), n))
        conj = next(matalg.left_products(right, u_row, n))[1]
        coeffs, resid = span.coefficients_rows(conj)
        if resid > tol:
            raise ActionInvalid(f"Ad(U_{t}) does not preserve the span")
        coeffs.data[np.abs(coeffs.data) < 1e-14] = 0.0
        coeffs.eliminate_zeros()
        mats.append(coeffs.tocsr())
    return mats


def _sends(targets) -> sp.csr_matrix:
    """The permutation matrix e_i -> e_(targets[i])."""
    n = len(targets)
    return sp.csr_matrix((np.ones(n, dtype=np.complex128), (targets, np.arange(n))),
                         shape=(n, n))


def path_unitaries(fam, action) -> list:
    """U_t e_mu = e_(t.mu) on the path space of ``fam``, one path at a time."""
    return [_sends(targets) for targets in path_permutation_loop(fam, action)]


def arrow_unitaries(action) -> list:
    """U_t delta_x = delta_(t.x) on the arrows of a groupoid."""
    return [_sends(action.arrow_perm[t]) for t in action.group]


def dual_unitaries(ccp) -> list:
    """1 (x) rho_s on C^n (x) C^|G|, one sparse kron each."""
    rho = regular_matrices(ccp.group)[1]
    eye_n = sp.identity(ccp.base.ambient_dim, format="csr", dtype=np.complex128)
    return [sp.kron(eye_n, r, format="csr") for r in rho]


def float_star_map(domain, image_rows, image_ambient, gen_rows, image_gen_rows,
                   tol: float = matalg.PRODUCT_TOL, target=None,
                   inverse_rows=None) -> matalg.StarMapReport:
    """``matalg.star_map_on_basis`` by linear algebra, for any orthogonal
    basis: each product g b_i, each adjoint b_i* and each generator is
    expanded in the basis, pushed through T and compared in norm, CHUNK
    generators to one product; with ``inverse_rows`` the two coefficient maps
    are composed and compared with the identity, otherwise injectivity is the
    Gram rank of the images.  The checks pass at ``tol``."""
    n, m, d = domain.ambient_dim, image_ambient, domain.dim
    image_rows = image_rows.tocsr()
    img_scale = max(1.0, matalg.max_row_norm(image_rows))
    errs = {}
    s_coeffs, errs["star_domain_closure"] = domain.coefficients_rows(
        matalg.star_columns(domain.rows, n))
    errs["star"] = matalg.max_row_norm(
        matalg.star_columns(image_rows, m) - s_coeffs @ image_rows) / img_scale
    errs["gen_consistency"] = errs["mult"] = errs["closure"] = 0.0
    if gen_rows.shape[0]:
        gen_rows, timg_rows = gen_rows.tocsr(), image_gen_rows.tocsr()
        coeffs, errs["closure"] = domain.coefficients_rows(gen_rows)
        errs["gen_consistency"] = matalg.max_row_norm(coeffs @ image_rows - timg_rows) / img_scale
        for (_, dom), (_, lhs) in zip(matalg.left_products(domain.rows, gen_rows, n),
                                      matalg.left_products(image_rows, timg_rows, m)):
            c_dom, resid = domain.coefficients_rows(dom)
            errs["closure"] = max(errs["closure"], resid)
            errs["mult"] = max(errs["mult"],
                               matalg.max_row_norm(lhs - c_dom @ image_rows) / img_scale)
    checks = [matalg.Check("well_defined", max(errs["closure"], errs["gen_consistency"]), tol),
              matalg.Check("multiplicative", errs["mult"], tol),
              matalg.Check("star_preserving", errs["star"], tol)]
    if target is not None:
        c_t, errs["target_membership"] = target.coefficients_rows(image_rows)
    if inverse_rows is not None and target is not None:
        c_s, errs["inverse_membership"] = domain.coefficients_rows(inverse_rows)
        errs["compose_id_domain"] = float(abs(c_t @ c_s - sp.identity(d)).max())
        errs["compose_id_target"] = float(abs(c_s @ c_t - sp.identity(target.dim)).max())
        onto = max(errs["compose_id_target"], errs["target_membership"])
        checks += [matalg.Check("injective", errs["compose_id_domain"], tol),
                   matalg.Check("surjective", onto, tol)]
    else:
        gram = image_rows @ image_rows.conj().T
        rank = int(np.sum(matalg._block_eigh(gram) > tol * img_scale**2))
        checks.append(matalg.Check("injective", float(d - rank), exact=True))
        if target is not None:
            onto = errs["target_membership"] if rank == d == target.dim else np.inf
            checks.append(matalg.Check("surjective", onto, tol))
    return matalg.StarMapReport(checks, max_error=float(max(errs.values())), notes=errs)


def gauge_star_map(fam, z, gen_degrees, tol: float = 1e-12) -> bool:
    """alpha_z as a numerical certificate: the generators, s_f and then p_v,
    scaled by z^k in degree k form a Cuntz-Krieger family, and
    e_{mu,nu} -> z^(|mu|-|nu|) e_{mu,nu}, which must send each generator to
    its scaled image, is a bijective *-homomorphism by
    :func:`float_star_map`."""
    n_e = fam.graph.n_edges
    scaled = [c * m for c, m in zip(z ** np.asarray(gen_degrees), list(fam.s) + list(fam.p))]
    ok = ck_relations_loop(fam.graph, scaled[:n_e], scaled[n_e:]) <= tol
    powers = [len(fam.paths[i].edges) - len(fam.paths[j].edges) for i, j in fam.pairs]
    scale = np.array([z**k for k in powers], dtype=np.complex128)
    report = float_star_map(
        fam.span, sp.diags(scale).tocsr() @ fam.span.rows, fam.ambient_dim,
        fam.span.gen_rows, matalg.vec_rows(scaled), tol=tol, target=fam.span,
        inverse_rows=sp.diags(scale.conj()).tocsr() @ fam.span.rows)
    return ok and all(c.passed for c in report.checks)


def direct_sum(a, b) -> sp.csr_matrix:
    return sp.block_diag([a, b], format="csr", dtype=np.complex128)


@dataclass
class ClosureStarMap:
    """The verdicts of :func:`check_star_map`; ``witness`` is the image part
    of a relation the assignment breaks, when it is not well defined."""

    well_defined: bool
    multiplicative: bool
    star_preserving: bool
    injective: bool
    surjective: bool | None
    domain_dim: int
    image_dim: int
    max_error: float
    witness: object = None

    @property
    def bijective(self) -> bool:
        return bool(self.injective and self.surjective)

    @property
    def passed(self) -> bool:
        return (self.well_defined and self.multiplicative and self.star_preserving
                and self.injective and self.surjective is not False)


def check_star_map(
    domain_generators: Sequence,
    image_assignment: Sequence,
    tol: float = matalg.CLOSURE_TOL,
    target: matalg.AlgebraSpan | None = None,
    n_samples: int = 8,
    rng: np.random.Generator | None = None,
) -> ClosureStarMap:
    """Certify the map generator -> image as a *-homomorphism of spans.

    Works by closing the span of the block-diagonal pairs diag(g, T(g)): the
    result is the graph of the induced map on words, so the assignment is
    well-defined exactly when the pair span has the same dimension as the
    domain span, and injective exactly when it matches the image span.
    Multiplicativity and *-preservation of the induced linear map are spot
    checked on random elements.
    """
    if len(domain_generators) != len(image_assignment):
        raise matalg.DimensionMismatch("assignment must cover every generator")
    doms = [matalg.as_dense(g) for g in domain_generators]
    imgs = [matalg.as_dense(g) for g in image_assignment]
    n = doms[0].shape[0]
    m = imgs[0].shape[0]
    for g in doms:
        if g.shape != (n, n):
            raise matalg.DimensionMismatch("domain generators have mixed dimensions")
    for g in imgs:
        if g.shape != (m, m):
            raise matalg.DimensionMismatch("image matrices have mixed dimensions")

    pair_span = matalg.span_closure(
        [direct_sum(d, i) for d, i in zip(doms, imgs)], tol=tol, name="pair"
    )
    dom_span = matalg.span_closure(doms, tol=tol, name="domain")
    img_span = matalg.span_closure(imgs, tol=tol, name="image")

    well_defined = pair_span.dim == dom_span.dim
    injective = pair_span.dim == img_span.dim

    witness = None
    if not well_defined:
        # Find a combination of pair-basis elements with vanishing domain
        # part; its image part witnesses the violated relation.
        pairs = [basis_matrix(pair_span, i).toarray() for i in range(pair_span.dim)]
        dom_parts = np.array([p[:n, :n].reshape(-1) for p in pairs])
        u, s, _ = np.linalg.svd(dom_parts)
        rank = int(np.sum(s > tol * max(1.0, float(s[0]) if len(s) else 1.0)))
        if rank < pair_span.dim:
            c = u[:, rank].conj()
            witness = sum(c[i] * pairs[i][n:, n:] for i in range(pair_span.dim))

    # The induced map, via least squares against the pair basis.
    def apply(x: np.ndarray) -> np.ndarray:
        dom_parts = np.array(
            [
                basis_matrix(pair_span, i).toarray()[:n, :n].reshape(-1)
                for i in range(pair_span.dim)
            ]
        )
        coeff, *_ = np.linalg.lstsq(dom_parts.T, x.reshape(-1), rcond=None)
        out = np.zeros((m, m), dtype=np.complex128)
        for i in range(pair_span.dim):
            out += coeff[i] * basis_matrix(pair_span, i).toarray()[n:, n:]
        return out

    max_err = 0.0
    multiplicative = well_defined
    star_preserving = well_defined
    if well_defined:
        rng = rng or np.random.default_rng(0)
        for _ in range(n_samples):
            x = matalg.as_dense(random_element(dom_span, rng))
            y = matalg.as_dense(random_element(dom_span, rng))
            scale = max(1.0, np.linalg.norm(x) * np.linalg.norm(y))
            err = np.linalg.norm(apply(x @ y) - apply(x) @ apply(y)) / scale
            max_err = max(max_err, err)
            err = np.linalg.norm(apply(x.conj().T) - apply(x).conj().T) / max(
                1.0, np.linalg.norm(x)
            )
            max_err = max(max_err, err)
        multiplicative = star_preserving = max_err <= max(tol, 100 * matalg.CLOSURE_TOL)

    surjective = None
    if target is not None:
        member = all(contains(target, g, tol=tol) for g in imgs)
        surjective = member and img_span.dim == target.dim

    return ClosureStarMap(
        well_defined=well_defined,
        multiplicative=multiplicative,
        star_preserving=star_preserving,
        injective=injective,
        surjective=surjective,
        domain_dim=dom_span.dim,
        image_dim=img_span.dim,
        max_error=float(max_err),
        witness=witness,
    )


def symmetric_group_3() -> groups.FiniteGroup:
    """S3 as permutations of {0, 1, 2}, (p q)(i) = p(q(i))."""
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return groups.make_group(table, elements=["".join(map(str, p)) for p in perms])


def s3_ladder(k: int):
    """L_k over S3: vertices v0..vk, two parallel edges v_i -> v_(i+1), each
    edge labeled by rng.integers(6) of default_rng(0), in edge order."""
    S3 = symmetric_group_3()
    edges = [(f"e{i}{j}", f"v{i}", f"v{i + 1}") for i in range(k) for j in range(2)]
    E = graphs.DirectedGraph([f"v{i}" for i in range(k + 1)], edges)
    rng = np.random.default_rng(0)
    return E, S3, groups.Labeling(E, S3, [int(rng.integers(6)) for _ in edges])


def s3_q3():
    """Q_3 over S3: the transitive groupoid on 3 units with isotropy Z2, beside
    the pair groupoid on 3 units, with the random cocycle of default_rng(0)."""
    S3 = symmetric_group_3()
    Q = disjoint_union([transitive_groupoid(3, groups.cyclic_group(2)), pair_groupoid(3)])
    return Q, S3, suite.random_cocycle(np.random.default_rng(0), Q, S3)


def skew_product_by_names(Q, G, c):
    """Q x_c G from the names ((x, t) for arrows and units) through
    ``make_groupoid``: r(x,s) = (r(x), c(x)s), s(x,s) = (s(x), s)."""
    units = [(u, G.name(t)) for u in Q.units for t in G]
    arrows = []
    for i, a in enumerate(Q.arrows):
        for t in G:
            arrows.append(((a, G.name(t)), (Q.units[Q.s[i]], G.name(t)),
                           (Q.units[Q.r[i]], G.name(G.mul(c.of(i), t)))))
    mult = []
    for i in range(Q.n_arrows):
        for j in range(Q.n_arrows):
            k = Q.mult[i, j]
            if k < 0:
                continue
            for t in G:
                # (x, c(y) t)(y, t) = (xy, t)
                mult.append(((Q.arrows[i], G.name(G.mul(c.of(j), t))),
                             (Q.arrows[j], G.name(t)), (Q.arrows[int(k)], G.name(t))))
    inv = {}
    for i, a in enumerate(Q.arrows):
        for t in G:
            inv[(a, G.name(t))] = (Q.arrows[Q.inv[i]], G.name(G.mul(c.of(i), t)))
    return make_groupoid(units, arrows, mult, inv)


def translation_action_by_names(skew, G):
    """s.(x, t) = (x, t s^-1), found by the name of each translated arrow."""
    perm = np.zeros((G.order, skew.n_arrows), dtype=np.int64)
    for t in G:
        for i, (x, uname) in enumerate(skew.arrows):
            a = G.index(uname)
            perm[t, i] = skew.arrow_index((x, G.name(G.mul(a, G.inv(t)))))
    return GroupoidAction(skew, G, perm)


def semidirect_product_by_names(R, G, action):
    """R x| G with (x,s)(y,t) = (x (s.y), st) and (x,s)^-1 = (s^-1.x^-1, s^-1),
    from the names through ``make_groupoid``."""
    e = G.name(G.identity_index)
    units = [(u, e) for u in R.units]
    arrows = []
    for i, a in enumerate(R.arrows):
        for t in G:
            src_unit = R.units[action.unit_perm[G.inv(t), R.s[i]]]
            arrows.append(((a, G.name(t)), (src_unit, e), (R.units[R.r[i]], e)))
    mult = []
    for i in range(R.n_arrows):
        for s_ in G:
            for j in range(R.n_arrows):
                for t in G:
                    yj = action.arrow(s_, j)
                    if R.mult[i, yj] < 0:
                        continue
                    mult.append(((R.arrows[i], G.name(s_)), (R.arrows[j], G.name(t)),
                                 (R.arrows[R.mult[i, yj]], G.name(G.mul(s_, t)))))
    inv = {}
    for i, a in enumerate(R.arrows):
        for t in G:
            inv[(a, G.name(t))] = (R.arrows[action.arrow(G.inv(t), R.inv[i])], G.name(G.inv(t)))
    return make_groupoid(units, arrows, mult, inv)


def subgroupoid_by_names(Q, keep):
    """The subgroupoid on the arrows ``keep``, closed under the operations,
    from the names through ``make_groupoid``."""
    keep = sorted(int(k) for k in keep)
    kset = set(keep)
    for i in keep:
        if int(Q.inv[i]) not in kset:
            raise GroupoidError("arrow set not closed under inverse")
        for j in keep:
            k = Q.mult[i, j]
            if k >= 0 and int(k) not in kset:
                raise GroupoidError("arrow set not closed under multiplication")
    units = sorted({int(Q.r[i]) for i in keep} | {int(Q.s[i]) for i in keep})
    for u in units:
        if int(Q.unit_arrow[u]) not in kset:
            raise GroupoidError("arrow set misses a unit arrow")
    arrows = [(Q.arrows[i], Q.units[Q.s[i]], Q.units[Q.r[i]]) for i in keep]
    mult = [(Q.arrows[i], Q.arrows[j], Q.arrows[int(Q.mult[i, j])])
            for i in keep for j in keep if Q.mult[i, j] >= 0]
    inv = {Q.arrows[i]: Q.arrows[Q.inv[i]] for i in keep}
    return make_groupoid([Q.units[u] for u in units], arrows, mult, inv)


def pair_groupoid_by_names(n: int):
    """The pair groupoid on units 1..n from its arrow names x_ij."""
    units = [f"{i+1}" for i in range(n)]
    arrows = [(f"x{i+1}{j+1}", units[j], units[i]) for i in range(n) for j in range(n)]
    mult = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                mult.append((f"x{i+1}{j+1}", f"x{j+1}{k+1}", f"x{i+1}{k+1}"))
    inv = {f"x{i+1}{j+1}": f"x{j+1}{i+1}" for i in range(n) for j in range(n)}
    return make_groupoid(units, arrows, mult, inv)


def units_only_groupoid_by_names(n: int):
    units = [f"{i+1}" for i in range(n)]
    arrows = [(f"id{i+1}", u, u) for i, u in enumerate(units)]
    mult = [(f"id{i+1}", f"id{i+1}", f"id{i+1}") for i in range(n)]
    inv = {f"id{i+1}": f"id{i+1}" for i in range(n)}
    return make_groupoid(units, arrows, mult, inv)


def transitive_groupoid_by_names(n_units: int, isotropy, tag: str = ""):
    """Arrows (tag, i, j, h) composing by (i,j,h)(j,k,h') = (i,k,hh'), one
    name triple per composable pair."""
    units = [f"{tag}u{i}" for i in range(n_units)]
    arrows = []
    for i in range(n_units):
        for j in range(n_units):
            for h in isotropy:
                arrows.append(((f"{tag}", i, j, isotropy.name(h)), units[j], units[i]))
    mult = []
    for i in range(n_units):
        for j in range(n_units):
            for k in range(n_units):
                for h1 in isotropy:
                    for h2 in isotropy:
                        mult.append(
                            (
                                (f"{tag}", i, j, isotropy.name(h1)),
                                (f"{tag}", j, k, isotropy.name(h2)),
                                (f"{tag}", i, k, isotropy.name(isotropy.mul(h1, h2))),
                            )
                        )
    inv = {}
    for i in range(n_units):
        for j in range(n_units):
            for h in isotropy:
                inv[(f"{tag}", i, j, isotropy.name(h))] = (
                    f"{tag}", j, i, isotropy.name(isotropy.inv(h)),
                )
    return make_groupoid(units, arrows, mult, inv)


def disjoint_union_by_names(parts):
    """The parts renamed (k, name) and joined through ``make_groupoid``."""
    units, arrows, mult, inv = [], [], [], {}
    for idx, Q in enumerate(parts):
        rename_u = {u: (idx, u) for u in Q.units}
        rename_a = {a: (idx, a) for a in Q.arrows}
        units.extend(rename_u[u] for u in Q.units)
        for i, a in enumerate(Q.arrows):
            arrows.append((rename_a[a], rename_u[Q.units[Q.s[i]]], rename_u[Q.units[Q.r[i]]]))
            inv[rename_a[a]] = rename_a[Q.arrows[Q.inv[i]]]
        for i in range(Q.n_arrows):
            for j in range(Q.n_arrows):
                if Q.mult[i, j] >= 0:
                    mult.append(
                        (rename_a[Q.arrows[i]], rename_a[Q.arrows[j]],
                         rename_a[Q.arrows[Q.mult[i, j]]])
                    )
    return make_groupoid(units, arrows, mult, inv)


def random_cocycle_by_search(rng, Q, G):
    """``suite.random_cocycle`` by search: the components by depth-first
    search, and the reference arrows from each component's base unit by a
    second search that transports the unit arrow along the arrows."""
    from skewprod.suite import _group_homomorphisms

    phi = rng.integers(0, G.order, Q.n_units)
    values = np.zeros(Q.n_arrows, dtype=np.int64)
    visited = np.full(Q.n_units, -1, dtype=np.int64)
    comp = 0
    for u0 in range(Q.n_units):
        if visited[u0] >= 0:
            continue
        stack = [u0]
        visited[u0] = comp
        while stack:
            u = stack.pop()
            for x in range(Q.n_arrows):
                for v in (int(Q.r[x]), int(Q.s[x])):
                    if (Q.r[x] == u or Q.s[x] == u) and visited[v] < 0:
                        visited[v] = comp
                        stack.append(v)
        comp += 1
    psi_of_arrow = {}
    for c_idx in range(comp):
        base = int(np.nonzero(visited == c_idx)[0][0])
        iso_arrows = [
            x for x in range(Q.n_arrows) if Q.r[x] == base and Q.s[x] == base
        ]
        table = np.zeros((len(iso_arrows), len(iso_arrows)), dtype=np.int64)
        index = {x: i for i, x in enumerate(iso_arrows)}
        for i, x in enumerate(iso_arrows):
            for j, y in enumerate(iso_arrows):
                table[i, j] = index[int(Q.mult[x, y])]
        homs = _group_homomorphisms(groups.make_group(table), G)
        psi = homs[int(rng.integers(len(homs)))]
        ref = {base: int(Q.unit_arrow[base])}
        frontier = [base]
        while frontier:
            u = frontier.pop()
            for x in range(Q.n_arrows):
                if Q.s[x] == u and int(Q.r[x]) not in ref:
                    ref[int(Q.r[x])] = int(Q.mult[x, ref[u]])
                    frontier.append(int(Q.r[x]))
        for x in range(Q.n_arrows):
            if visited[Q.r[x]] != c_idx:
                continue
            # x = ref[r(x)] h ref[s(x)]^-1 with h in the base isotropy.
            h = int(Q.mult[int(Q.mult[Q.inv[ref[int(Q.r[x])]], x]), ref[int(Q.s[x])]])
            psi_of_arrow[x] = int(psi[index[h]])
    for x in range(Q.n_arrows):
        r_, s_ = int(Q.r[x]), int(Q.s[x])
        values[x] = G.mul(int(phi[r_]), G.mul(psi_of_arrow[x], G.inv(int(phi[s_]))))
    return Cocycle(Q, G, values)


def gross_tucker_maps_by_names(graph, action):
    """The name dicts of the Gross-Tucker isomorphism F -> (F/G) x_c G: a
    cell that is t . rep goes to (orbit of rep, coordinate), the coordinate
    t^-1 for a vertex and rho^-1 t^-1 for an edge, with rho . rep(r(e)) the
    range of the representative edge.  Representatives are least indices."""
    G = action.group
    vrep, erep = action.vperm.min(axis=0), action.eperm.min(axis=0)

    def shift(perm, rep, i):
        return next(t for t in G if perm[t, rep[i]] == i)

    vertex_map, edge_map = {}, {}
    for i, v in enumerate(graph.vertices):
        t = shift(action.vperm, vrep, i)
        vertex_map[v] = (("orbit", graph.vertices[int(vrep[i])]), G.name(G.inv(t)))
    for i, e in enumerate(graph.edges):
        t = shift(action.eperm, erep, i)
        r = int(graph.rng[int(erep[i])])
        rho = shift(action.vperm, vrep, r)
        coord = G.mul(G.inv(rho), G.inv(t))
        edge_map[e.id] = (("orbit", graph.edges[int(erep[i])].id), G.name(coord))
    return vertex_map, edge_map


def equivalence_axioms_loop(L, N, rho, sigma, left_table, right_table) -> dict:
    """``EquivalenceBimodule.verify`` pair by pair: the two tables (h . z at
    [h, z], z . n at [z, n], -1 where undefined) are read into dicts keyed by
    (h, z) and (z, n), and every axiom walks them; the orbit check searches
    every pair of carrier cells.  The same report, each axiom's flag false
    when it fails and read on the defined cells whose values are carrier
    cells, and the surjectivity of both moment maps as one flag."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    left_act = {(int(h), int(z)): int(left_table[h, z])
                for h, z in zip(*np.nonzero(np.asarray(left_table) >= 0))}
    right_act = {(int(z), int(n)): int(right_table[z, n])
                 for z, n in zip(*np.nonzero(np.asarray(right_table) >= 0))}
    nz = len(rho)
    out = {"carrier_size": nz, "properness": "automatic (finite carrier)"}
    out["moment_maps_surjective_ok"] = (set(rho.tolist()) == set(range(L.n_units))
                                        and set(sigma.tolist()) == set(range(N.n_units)))

    expected_left = {
        (h, z) for h in range(L.n_arrows) for z in range(nz) if L.s[h] == rho[z]
    }
    expected_right = {
        (z, n) for z in range(nz) for n in range(N.n_arrows) if sigma[z] == N.r[n]
    }
    out["domains_ok"] = set(left_act) == expected_left and set(right_act) == expected_right

    out["moment_compatibility_ok"] = all(
        0 <= w < nz and rho[w] == L.r[h] and sigma[w] == sigma[z]
        for (h, z), w in left_act.items()) and all(
        0 <= w < nz and sigma[w] == N.s[n] and rho[w] == rho[z]
        for (z, n), w in right_act.items())
    # The cells that later axioms read: defined, with a carrier cell as value.
    left_in = {key: w for key, w in left_act.items() if w < nz}
    right_in = {key: w for key, w in right_act.items() if w < nz}

    def same(x, y):  # equal, or one of them undefined
        return x is None or y is None or x == y

    out["unit_actions_ok"] = all(
        same(left_act.get((int(L.unit_arrow[rho[z]]), z)), z)
        and same(right_act.get((z, int(N.unit_arrow[sigma[z]]))), z) for z in range(nz))

    out["associativity_ok"] = all(
        same(left_act.get((h1, w)), left_act.get((int(L.mult[h1, h2]), z)))
        for (h2, z), w in left_in.items() for h1 in range(L.n_arrows)
        if L.s[h1] == L.r[h2]) and all(
        same(right_act.get((w, n2)), right_act.get((z, int(N.mult[n1, n2]))))
        for (z, n1), w in right_in.items() for n2 in range(N.n_arrows)
        if N.r[n2] == N.s[n1])

    out["commuting_ok"] = all(
        same(right_act.get((w, n)), left_act.get((h, right_in[(z, n)])))
        for (h, z), w in left_in.items() for n in range(N.n_arrows)
        if sigma[z] == N.r[n] and (z, n) in right_in)

    out["freeness_ok"] = not any(
        w == z and h != int(L.unit_arrow[L.r[h]]) for (h, z), w in left_in.items()) and not any(
        w == z and n != int(N.unit_arrow[N.r[n]]) for (z, n), w in right_in.items())

    # rho factors through carrier / right-orbits onto the left units, and
    # sigma through left-orbits \ carrier onto the right units.
    out["orbit_bijections_ok"] = all(
        (rho[z] != rho[z2] or any(right_in.get((z, n)) == z2 for n in range(N.n_arrows)))
        and (sigma[z] != sigma[z2] or any(left_in.get((h, z)) == z2 for h in range(L.n_arrows)))
        for z in range(nz) for z2 in range(nz))
    return out


def inner_product_terms_loop(Q, c) -> dict:
    """The term lists of the general inner-product formula, one H-arrow at a
    time: for every arrow n of N = c^-1(e) and every y with s(y) = r(n), the
    pair of arrays (z, z n), z = x^-1 y, over the H-arrows (x, t) with
    r_H(x, t) = (r(x), c(x) t) equal to rho(y) = (r(y), c(y)), in order of x."""
    G = c.group
    h_arrows = []
    for x in range(Q.n_arrows):
        seen = {int(c.values[y]) for y in range(Q.n_arrows) if Q.r[y] == Q.s[x]}
        h_arrows.extend((x, t) for t in sorted(seen))
    terms = {}
    for n in np.nonzero(c.values == G.identity_index)[0]:
        per_y = []
        for y in np.nonzero(Q.s == Q.r[n])[0]:
            zs, zns = [], []
            for x, t in h_arrows:
                if Q.r[x] == Q.r[y] and G.mul(int(c.values[x]), t) == int(c.values[y]):
                    z = int(Q.mult[Q.inv[x], y])
                    zs.append(z)
                    zns.append(int(Q.mult[z, n]))
            per_y.append((np.array(zs, dtype=np.int64), np.array(zns, dtype=np.int64)))
        terms[int(n)] = per_y
    return terms


def convolve_loop(Q, f, g) -> np.ndarray:
    """(f g)(x) = sum over r(y) = r(x) of f(y) g(y^-1 x), one arrow at a time."""
    out = np.zeros(Q.n_arrows, dtype=np.complex128)
    for x in range(Q.n_arrows):
        for y in range(Q.n_arrows):
            if Q.r[y] == Q.r[x]:
                out[x] += f[y] * g[int(Q.mult[Q.inv[y], x])]
    return out


def convolve_by_add_at(alg, f, g) -> np.ndarray:
    """``GroupoidAlgebra.convolve`` by one ``np.add.at`` of the products over
    the composable pairs, where ``skewprod`` sums by ``bincount``: each sum
    adds the same terms in the same order."""
    ys, zs, yz = alg._conv_triples
    f, g = np.asarray(f, dtype=np.complex128), np.asarray(g, dtype=np.complex128)
    terms = f[..., ys] * g[..., zs]
    out = np.zeros(terms.shape[:-1] + (alg.groupoid.n_arrows,), dtype=np.complex128)
    np.add.at(out, (..., yz), terms)
    return out


def inner_product_loop(Q, c, terms, a, b, tol: float = 1e-9) -> np.ndarray:
    """<a, b> on the arrows of N for one pair: the general formula over every
    y from ``terms`` (see :func:`inner_product_terms_loop`), one sum per
    (n, y), against sum_t a_t* b_t convolved one arrow at a time.  Raises
    FormulaMismatch where the evaluator's formulas raise, and also where the
    two formulas disagree, which the evaluator returns as a failed check."""
    keep = sorted(terms)
    general = []
    for n in keep:
        vals = [complex(np.sum(np.conj(a[zs]) * b[zns])) for zs, zns in terms[n]]
        if max(abs(v - vals[0]) for v in vals) > tol:
            raise FormulaMismatch("general inner-product formula depends on the choice of y")
        general.append(vals[0])
    general = np.array(general)
    simplified = np.zeros(Q.n_arrows, dtype=np.complex128)
    for t in c.group:
        a_t, b_t = np.where(c.values == t, a, 0), np.where(c.values == t, b, 0)
        simplified += convolve_loop(Q, np.conj(a_t[Q.inv]), b_t)
    off = np.delete(simplified, keep)
    if np.max(np.abs(general - simplified[keep])) > tol or np.any(np.abs(off) > tol):
        raise FormulaMismatch("inner-product formulas disagree")
    return general


def module_action_loop(Q, keep, a, f) -> np.ndarray:
    """(a . f)(x) = sum over n in N with r(n) = s(x) of a(x n) f(n^-1), one
    (x, n) pair at a time; f is a function on Q supported in N = keep."""
    out = np.zeros(Q.n_arrows, dtype=np.complex128)
    for x in range(Q.n_arrows):
        for n in keep:
            if Q.r[n] == Q.s[x]:
                out[x] += a[int(Q.mult[x, n])] * f[int(Q.inv[n])]
    return out


def module_structure_loop(Q, c, tol: float = 1e-9, n_random: int = 100, rng=None) -> dict:
    """``verify_bimodule_module_structure`` one draw at a time, with the same
    draws, through the loop versions above: the same report, or
    FormulaMismatch, or the report with ``adjointability_ok`` False."""
    rng = rng or np.random.default_rng(0)
    n = Q.n_arrows
    keep = np.nonzero(c.values == c.group.identity_index)[0]
    terms = inner_product_terms_loop(Q, c)
    alg_n = convolution_algebra(kernel_subgroupoid(Q, c))
    nn = len(keep)

    def rand(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    def conv(f, g):
        return convolve_loop(Q, f, g)

    def inner(x, y):
        return inner_product_loop(Q, c, terms, x, y, tol=tol)

    out = {}
    err = 0.0
    for _ in range(8):
        a, f = rand(n), np.zeros(n, dtype=np.complex128)
        f[keep] = rand(nn)
        err = max(err, float(np.max(np.abs(module_action_loop(Q, keep, a, f) - conv(a, f)))))
    out["module_action_error"] = err
    out["module_action_ok"] = err <= tol

    err = 0.0
    for _ in range(n_random):
        x, y, z = rand(n), rand(n), rand(n)
        lhs, rhs = inner(conv(x, y), z), inner(y, conv(np.conj(x[Q.inv]), z))
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    out["adjointability_error"] = err
    out["adjointability_ok"] = err <= tol * 10

    def matrix(f):
        return alg_n.represent_rows([f]).toarray().reshape(nn, nn)

    def matrix_q(f):
        return convolution_algebra(Q).represent_rows([f]).toarray().reshape(n, n)

    worst = 0.0
    for _ in range(4):
        elems = [rand(n) for _ in range(3)]
        gram = np.block([[matrix(inner(x, y)) for y in elems] for x in elems])
        worst = min(worst, float(np.linalg.eigvalsh((gram + gram.conj().T) / 2)[0]))
    out["gram_min_eigenvalue"] = worst
    out["gram_psd_ok"] = worst >= -tol * 100

    worst = 0.0
    for _ in range(8):
        a, b = rand(n), rand(n)
        ab = conv(a, b)
        norm_a = np.linalg.norm(matrix_q(a), 2)
        gap = norm_a**2 * matrix(inner(b, b)) - matrix(inner(ab, ab))
        ev = np.linalg.eigvalsh((gap + gap.conj().T) / 2)
        worst = min(worst, float(ev[0]) / max(1.0, norm_a**2))
    out["boundedness_min_eigenvalue"] = worst
    out["boundedness_ok"] = worst >= -tol * 100
    return out


def expectation_draws_loop(R, G, action, n_random: int = 100, rng=None) -> dict:
    """The translation-norm and faithfulness checks of
    ``expectations_and_norm_identities``, one draw and one group element at
    a time, with the same draws (those of the crossed-product check are
    drawn and skipped)."""
    rng = rng or np.random.default_rng(0)
    alg = convolution_algebra(R)

    def rand(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    err = 0.0
    for _ in range(max(8, n_random // 10)):
        f = rand(R.n_arrows)
        for s in G:
            moved = np.zeros_like(f)
            moved[action.arrow_perm[s]] = f  # beta_s(f)(x) = f(s^-1 . x)
            err = max(err, abs(alg.unit_sup_norm(moved) - alg.unit_sup_norm(f)))
    n_semi = R.n_arrows * G.order
    for _ in range(n_random):
        rand(n_semi)
    low = np.inf
    for _ in range(n_random):
        f = rand(R.n_arrows)
        low = min(low, alg.unit_sup_norm(alg.convolve(alg.star(f), f)))
    return {"translation_norm_error": err, "faithfulness_min_norm": float(low)}


def semi_cross_parts_loop(R, G, action):
    """R x| G, C*(R) and C*(R) x_beta G, with beta and the crossed product
    built afresh rather than read from the caches on the action."""
    semi = semidirect_product(R, G, action)
    base = convolution_algebra(R)
    beta = algebra_action_from_groupoid_action(base, action)
    return semi, base, ActionCrossedProduct(base.span, G, beta, tol=matalg.PRODUCT_TOL)


def crossed_element_loop(R, G, semi, base, acp, f) -> sp.csr_matrix:
    """Phi(f) = sum_s pi~(f_s) u~_s for one function f on R x| G, as an
    ambient matrix: f_s read from the arrow names of R x| G, u~_s = 1 (x)
    lam_s by one sparse kron, and one sparse product per s."""
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


def random_convolution_loop(R, G, action, rng) -> float:
    """``certify_semi_cross``'s random_convolution_error, one element at a time."""
    semi, base, acp = semi_cross_parts_loop(R, G, action)
    lhs_alg = convolution_algebra(semi)
    conv = 0.0
    for _ in range(4):
        f = rng.standard_normal(semi.n_arrows) + 1j * rng.standard_normal(semi.n_arrows)
        g = rng.standard_normal(semi.n_arrows) + 1j * rng.standard_normal(semi.n_arrows)
        fg = lhs_alg.convolve(f, g)
        lhs = (crossed_element_loop(R, G, semi, base, acp, f)
               @ crossed_element_loop(R, G, semi, base, acp, g))
        conv = max(conv, frobenius(lhs - crossed_element_loop(R, G, semi, base, acp, fg)))
    return conv


def red_semi_cross_loop(R, G, action, n_random: int = 100, rng=None) -> float:
    """The identity that ``expectations_and_norm_identities`` (ii) decides on
    delta functions, as floats on its random elements b, one at a time: the
    largest | sup |P_{R x| G}(b)| - sup |P_R(E(Phi(b)))| |, each Phi(b) in
    the crossed product at 1e-6 and each E(Phi(b)) in C*(R) at PRODUCT_TOL,
    after the same draws for (i)."""
    rng = rng or np.random.default_rng(0)
    semi, base, acp = semi_cross_parts_loop(R, G, action)
    for _ in range(max(8, n_random // 10)):
        rng.standard_normal(R.n_arrows), rng.standard_normal(R.n_arrows)
    err = 0.0
    for _ in range(n_random):
        b = rng.standard_normal(semi.n_arrows) + 1j * rng.standard_normal(semi.n_arrows)
        x = crossed_element_loop(R, G, semi, base, acp, b)
        f_e, resid = base.span.coefficients_rows(
            acp.conditional_expectation_rows(matalg.vec_rows([x]), tol=1e-6))
        if resid > matalg.PRODUCT_TOL:
            raise matalg.NotInSpan(f"P(Phi(b)) is not in C*(R) (residual {resid:.2e})")
        lhs = float(np.max(np.abs(b[semi.unit_arrow])))
        err = max(err, abs(lhs - base.unit_sup_norm(f_e.toarray()[0])))
    return err


def kernel_expectation_loop(Q, c, n_random: int = 100, rng=None) -> float:
    """``kernel_embedding_check``'s expectation_error, P_N(f) against
    P_Q(i(f)), one draw at a time."""
    rng = rng or np.random.default_rng(0)
    keep = np.nonzero(c.values == c.group.identity_index)[0]
    alg_n = convolution_algebra(kernel_subgroupoid(Q, c))
    err = 0.0
    for _ in range(n_random):
        f = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        big = np.zeros(Q.n_arrows, dtype=np.complex128)
        big[keep] = f
        err = max(err, float(np.max(np.abs(alg_n.restrict_to_units(f)
                                           - convolution_algebra(Q).restrict_to_units(big)))))
    return err


def wedderburn_signature_dense(
    span: matalg.AlgebraSpan, rng: np.random.Generator | None = None
) -> tuple[int, ...]:
    """``matalg.wedderburn_signature`` with the commutator Gram matrix K and
    the multiplication matrix dense d x d, one ``eigh`` / ``eigvalsh`` each:
    the same centre, draws and clusters.  Sorted multiset of matrix-block
    sizes {n_1, ..., n_k}, Sum n_i^2 = dim.

    The center is found as the null space of the commutator Gram matrix
    against the generators.  A random self-adjoint central
    element z, built in coefficient space, is central in A = (+) M_{n_k} as
    z = (+) z_k 1, so left multiplication by z on A, the Hermitian matrix
    <b_i, z b_j> / (|b_i| |b_j|), has the eigenvalue z_k with multiplicity
    n_k^2.  The block sizes are the square roots of its eigenvalue cluster
    sizes.  Two *-closed spans are *-isomorphic iff their signatures match.
    Raises :class:`NotSemisimple` if, on every attempt, the cluster count
    differs from dim Z or a cluster size is not a square, which for a genuine
    *-closed matrix algebra signals numerical or input error.
    """
    rng = rng or np.random.default_rng(0)
    d = span.dim
    if d == 0:
        return ()
    n = span.ambient_dim
    tests = span.gen_rows

    # K = sum_t C_t C_t*, C_t the rows vec(b_i t - t b_i).  Each chunk of
    # commutators, row j d + i, is laid out as the d x (c n^2) matrix whose
    # row i holds the j-th commutator at columns j n^2 .. (j + 1) n^2 - 1.
    K = np.zeros((d, d), dtype=np.complex128)
    for (_, bt), (_, tb) in zip(matalg.right_products(span.rows, tests, n),
                                matalg.left_products(span.rows, tests, n)):
        c = (bt - tb).tocoo()
        j, i = np.divmod(c.row, d)
        wide = sp.csr_matrix((c.data, (i, j * n * n + c.col)),
                             shape=(d, c.shape[0] // d * n * n))
        K += (wide @ wide.conj().T).toarray()
    w, v = np.linalg.eigh(K)
    scale = max(float(np.max(w)), 1.0)
    null_mask = w <= matalg.CLOSURE_TOL * scale
    z_dim = int(np.sum(null_mask))
    if z_dim == 0:
        raise matalg.NotSemisimple("no central elements found (not even a unit)")

    # Coefficients of the central elements z and of z*: b_i* = Sum_j S_ij b_j,
    # so z* has the coefficients conj(c) S.  Each z gives the Hermitian parts
    # (z + z*)/2 and (z - z*)/2i, in this order.
    center = v[:, null_mask].T
    star, _ = span.coefficients_rows(matalg.star_columns(span.rows, n))
    adjoint = np.asarray(star.T @ center.conj().T).T
    parts = np.empty((2 * z_dim, d), dtype=np.complex128)
    parts[0::2] = (center + adjoint) / 2
    parts[1::2] = (center - adjoint) / 2j
    inv_norms = 1.0 / np.sqrt(span.norms2)

    for _ in range(matalg._SIGNATURE_ATTEMPTS):
        coeffs = rng.standard_normal(2 * z_dim) @ parts
        z = sp.csr_matrix(coeffs.reshape(1, d)) @ span.rows
        if matalg.frobenius(z) < matalg.CLOSURE_TOL:
            continue
        _, left = next(matalg.left_products(span.rows, z, n))  # rows vec(z b_j)
        mult = (span.rows.conj() @ left.T).toarray() * np.outer(inv_norms, inv_norms)
        vals = np.linalg.eigvalsh(mult)
        gap = max(1e-8, 1e-6 * max(float(vals[-1] - vals[0]), 1.0))
        cuts = np.flatnonzero(np.diff(vals) > gap) + 1
        sizes = np.diff(np.concatenate(([0], cuts, [d])))
        blocks = np.rint(np.sqrt(sizes)).astype(int)
        if len(sizes) == z_dim and np.array_equal(blocks**2, sizes):
            return tuple(sorted(int(b) for b in blocks))
    raise matalg.NotSemisimple(
        "center decomposition failed beyond tolerance; the span is either not "
        "*-closed or numerically degenerate"
    )
