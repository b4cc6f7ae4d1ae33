"""Independent loop versions of the batched relation checks and constructions.

Each check tests the same relations as its counterpart in ``skewprod`` one
vertex, edge, vertex pair or generator at a time, with one small sparse or
dense product per relation, and each construction builds its matrices one
at a time.  The group actions are built as conjugation by general unitary
matrices, multiplied out, where ``skewprod`` remaps indices by a permutation
table, and the gauge action is certified as a numerical *-homomorphism,
where ``skewprod`` checks the length grading by index arithmetic.  The tests
compare the batched versions with these on random, gauge-scaled and groupoid
inputs and on planted defects.
"""
import numpy as np
import scipy.sparse as sp

from skewprod import matalg
from skewprod.crossed import ActionInvalid
from skewprod.groups import regular_matrices
from skewprod.matalg import frobenius


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


def path_images_loop(fam, edge_imgs, vertex_imgs) -> list:
    """The word s_mu of every basis path as a matrix, one product per path."""
    out = [None] * len(fam.paths)
    for i in sorted(range(len(fam.paths)), key=lambda i: len(fam.paths[i].edges)):
        p = fam.paths[i]
        if not p.edges:
            out[i] = vertex_imgs[p.source].tocsr()
        else:
            tail = fam.path_index[(int(fam.graph.rng[p.edges[0]]), p.edges[1:])]
            out[i] = (edge_imgs[p.edges[0]] @ out[tail]).tocsr()
    return out


def graded_coaction_loop(graded, tol: float = 1e-12) -> dict:
    """The coaction identity and nondegeneracy of a grading, generator by
    generator with dense (n|G|)^2 matrices; the same keys as
    ``crossed.verify_graded_coaction``."""
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
    all_dx = matalg.unvec_rows(graded.delta(span.gen_rows), n * m)
    for coeffs, dx in zip(all_coeffs, all_dx):
        dx = dx.toarray()
        dxd = dx.reshape(n, m, n, m)
        xs = [np.einsum("ab,iajb->ij", lam[t].conj(), dxd) / m for t in G]
        dxs = matalg.unvec_rows(graded.delta(matalg.vec_rows(xs), tol=None), n * m)
        recon = np.zeros_like(dx)
        for t, x_t, dx_t in zip(G, xs, dxs):
            component = span.element(np.where(graded.degrees == t, coeffs, 0)).toarray()
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
    out = []
    for t in action.group:
        targets = []
        for p in fam.paths:
            moved = tuple(int(action.eperm[t][e]) for e in p.edges)
            targets.append(fam.path_index[(int(action.vperm[t][p.base]), moved)])
        out.append(_sends(targets))
    return out


def arrow_unitaries(action) -> list:
    """U_t delta_x = delta_(t.x) on the arrows of a groupoid."""
    return [_sends(action.arrow_perm[t]) for t in action.group]


def dual_unitaries(ccp) -> list:
    """1 (x) rho_s on C^n (x) C^|G|, one sparse kron each."""
    rho = regular_matrices(ccp.group)[1]
    eye_n = sp.identity(ccp.base.ambient_dim, format="csr", dtype=np.complex128)
    return [sp.kron(eye_n, r, format="csr") for r in rho]


def gauge_star_map(fam, z, gen_degrees, tol: float = 1e-12) -> bool:
    """alpha_z as a numerical certificate: the generators, s_f and then p_v,
    scaled by z^k in degree k form a Cuntz-Krieger family, and
    e_{mu,nu} -> z^(|mu|-|nu|) e_{mu,nu}, which must send each generator to
    its scaled image, is a bijective *-homomorphism by
    ``matalg.star_map_on_basis``."""
    n_e = fam.graph.n_edges
    scaled = [c * m for c, m in zip(z ** np.asarray(gen_degrees), list(fam.s) + list(fam.p))]
    ok = ck_relations_loop(fam.graph, scaled[:n_e], scaled[n_e:]) <= tol
    powers = [len(fam.paths[i].edges) - len(fam.paths[j].edges) for i, j in fam.pairs]
    scale = np.array([z**k for k in powers], dtype=np.complex128)
    report = matalg.star_map_on_basis(
        fam.span, sp.diags(scale).tocsr() @ fam.span.rows, fam.ambient_dim,
        fam.span.gen_rows, matalg.vec_rows(scaled), tol=tol, target=fam.span,
        inverse_rows=sp.diags(scale.conj()).tocsr() @ fam.span.rows)
    return ok and report.passed and report.bijective
