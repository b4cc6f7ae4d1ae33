"""Independent loop versions of the batched relation checks and constructions.

Each check tests the same relations as its counterpart in ``skewprod`` one
vertex, edge, vertex pair or generator at a time, with one small sparse or
dense product per relation, and each construction builds its matrices one
at a time.  The tests compare the batched versions with these on random,
gauge-scaled and groupoid inputs and on planted defects.
"""
import numpy as np
import scipy.sparse as sp

from skewprod import matalg
from skewprod.crossed import ActionInvalid
from skewprod.groups import regular_matrices
from skewprod.matalg import frobenius, kron


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
    theta_edge = [kron(fam.s[graph.edge_index(f)], lam[labeling.of(graph.edge_index(f))]
                       @ chi[G.index(r)]) for f, r in (e.id for e in skew.edges)]
    theta_vertex = [kron(fam.p[graph.vertex_index(v)], chi[G.index(r)])
                    for v, r in skew.vertices]
    theta_u = [kron(eye_p, rho[t]) for t in G]
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
    shifts = [kron(eye_n, mat) for mat in lam_sparse]
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
