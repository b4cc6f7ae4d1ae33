"""Concrete graph C*-algebras for finite acyclic graphs.

The ambient Hilbert space has one basis vector per path ending at a sink
(including the length-zero paths at the sinks themselves).  The edge partial
isometry s_f prepends f to a path starting at r(f); the vertex projection p_v
keeps the paths starting at v.  This family satisfies the Cuntz-Krieger
relations exactly in integer arithmetic, and the algebra it generates is the
span of the matrix units e_{mu,nu} over pairs of paths into a common sink, so

    dim C*(E) = sum over sinks w of (number of paths into w)^2.

A group-valued labeling grades that basis by deg(e_{mu,nu}) = c(mu) c(nu)^-1
and induces the coaction  s_f -> s_f (x) lam_{c(f)},  p_v -> p_v (x) 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import matalg
from .crossed import GradedSpan, verify_graded_coaction
from .graphs import DirectedGraph, EmptyGraph, enumerate_sink_paths
from .groups import FiniteGroup, Labeling, regular_matrices
from .matalg import AlgebraSpan, frobenius


class CKRelationError(ValueError):
    pass


def _unit_csr(n: int, entries) -> sp.csr_matrix:
    rows = [r for r, _ in entries]
    cols = [c for _, c in entries]
    return sp.csr_matrix(
        (np.ones(len(entries), dtype=np.complex128), (rows, cols)), shape=(n, n)
    )


def _block_norms(diff: sp.spmatrix, n: int, k: int) -> np.ndarray:
    """The k x k Frobenius norms of the n x n blocks of ``diff``, from one bincount."""
    c = diff.tocoo()
    sq = np.bincount(c.row // n * k + c.col // n, weights=np.abs(c.data) ** 2, minlength=k * k)
    return np.sqrt(sq).reshape(k, k)


def _diag_blocks(rows: sp.spmatrix, n: int) -> sp.csr_matrix:
    """The n x n matrices of the stacked rows vec(x_k) as the diagonal blocks
    of one block-diagonal matrix, by index arithmetic."""
    c, k = rows.tocoo(), rows.shape[0]
    return sp.csr_matrix((c.data, (c.row * n + c.col // n, c.row * n + c.col % n)),
                         shape=(k * n, k * n))


def _ck_relations_for(graph: DirectedGraph, gen_rows: sp.csr_matrix, n: int) -> float:
    """Largest violation of the Cuntz-Krieger relations by a candidate family
    of n x n matrices, given as the stacked rows vec(s_f) and then vec(p_v):
    the p_v are mutually orthogonal nonzero projections summing to 1, each s_f
    is nonzero with s_f* s_f = p_r(f), and sum s_f s_f* = p_v over the edges
    out of each non-sink v.

    Each relation family is one stacked product: the p_v, s_f and s_f* as
    block-diagonal matrices, and every p_v p_w as one tall x wide product."""
    n_v, n_e = graph.n_vertices, graph.n_edges
    p_rows = gen_rows[n_e:n_e + n_v]
    P, S = _diag_blocks(p_rows, n), _diag_blocks(gen_rows[:n_e], n)
    errs = [0.0]
    # A zero generator, found by its Frobenius norm.
    if any(np.any(_block_norms(X, n, k).diagonal() == 0.0) for X, k in ((P, n_v), (S, n_e))):
        errs.append(1.0)
    errs.append(_block_norms(P @ P - P, n, n_v).max())
    errs.append(_block_norms(P.conj().T - P, n, n_v).max())
    # Block (v, w) of the stacked p_v times the p_w side by side is p_v p_w.
    p = p_rows.tocoo()
    tall = sp.csr_matrix((p.data, (p.row * n + p.col // n, p.col % n)), shape=(n_v * n, n))
    wide = sp.csr_matrix((p.data, (p.col // n, p.row * n + p.col % n)), shape=(n, n_v * n))
    errs.append(np.triu(_block_norms(tall @ wide, n, n_v), 1).max())
    # sum_v p_v - 1: the p_v rows summed into one.
    total = sp.csr_matrix((p.data, (p.col // n, p.col % n)), shape=(n, n))
    errs.append(frobenius(total - sp.identity(n, format="csr", dtype=np.complex128)))
    if n_e:
        S_h = S.conj().T.tocsr()
        P_rng = _diag_blocks(p_rows[graph.rng], n)
        errs.append(_block_norms(S_h @ S - P_rng, n, n_e).max())
        # sum_f s_f s_f* over the edges out of v: block f of S S* moved to block s(f).
        ss = (S @ S_h).tocoo()
        src = graph.src[ss.row // n] * n
        ranges = sp.csr_matrix((ss.data, (src + ss.row % n, src + ss.col % n)), shape=P.shape)
        non_sink = [not graph.is_sink(v) for v in range(n_v)]
        errs.append(np.max(_block_norms(ranges - P, n, n_v).diagonal()[non_sink], initial=0.0))
    return float(max(errs))


def _path_images(fam: CKFamily, gen_rows: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """The rows vec(s_mu) of the word of every basis path, in path order, for
    a family of n x n matrices given as the stacked rows s_f and then p_v.

    A path of length 0 at v has the word p_v, and f mu the word s_f s_mu: one
    stacked product per path length, of the block-diagonal s_f with the
    block-diagonal words s_mu of the paths one shorter."""
    n_e, n_p = fam.graph.n_edges, len(fam.paths)
    words = gen_rows[[n_e + p.source for p in fam.paths]]
    for length in range(1, max(len(p.edges) for p in fam.paths) + 1):
        longer = [i for i, p in enumerate(fam.paths) if len(p.edges) == length]
        heads = [fam.paths[i].edges[0] for i in longer]
        tails = [fam.path_index[(int(fam.graph.rng[f]), fam.paths[i].edges[1:])]
                 for i, f in zip(longer, heads)]
        # Block k of the product is the word of the k-th path of this length.
        z = (_diag_blocks(gen_rows[heads], n) @ _diag_blocks(words[tails], n)).tocoo()
        new = sp.csr_matrix((z.data, (z.row // n, z.row % n * n + z.col % n)),
                            shape=(len(longer), n * n))
        order = np.arange(n_p)
        order[longer] = n_p + np.arange(len(longer))
        words = sp.vstack([words, new], format="csr")[order]
    return words


class CKFamily:
    """The path-space Cuntz-Krieger family of a finite acyclic graph."""

    def __init__(self, graph: DirectedGraph):
        if graph.n_vertices == 0:
            raise EmptyGraph("graph has no vertices")
        self.graph = graph
        self.paths = enumerate_sink_paths(graph)
        self.path_index = {p.key(): i for i, p in enumerate(self.paths)}
        n = len(self.paths)
        self.ambient_dim = n

        self.s = []
        for e in range(graph.n_edges):
            entries = []
            for i, p in enumerate(self.paths):
                if p.source == graph.rng[e]:
                    entries.append((self.path_index[p.prepend(e).key()], i))
            self.s.append(_unit_csr(n, entries))
        self.p = []
        for v in range(graph.n_vertices):
            entries = [(i, i) for i, p in enumerate(self.paths) if p.source == v]
            self.p.append(_unit_csr(n, entries))

        # Canonical basis: matrix units over path pairs into a common sink.
        self.pairs = []
        by_sink: dict[int, list[int]] = {}
        for i, p in enumerate(self.paths):
            by_sink.setdefault(p.range, []).append(i)
        for w in sorted(by_sink):
            for i in by_sink[w]:
                for j in by_sink[w]:
                    self.pairs.append((i, j))
        self.pair_index = {pr: k for k, pr in enumerate(self.pairs)}

        rows = np.array([i * n + j for i, j in self.pairs], dtype=np.int64)
        data = np.ones(len(self.pairs), dtype=np.complex128)
        basis = sp.csr_matrix(
            (data, (np.arange(len(self.pairs)), rows)), shape=(len(self.pairs), n * n)
        )
        self._span = AlgebraSpan(
            n, basis, gen_rows=matalg.vec_rows(self.s + self.p), name="C*(E)", check=False
        )
        self.verify()

    @property
    def span(self) -> AlgebraSpan:
        return self._span

    @property
    def dim(self) -> int:
        return self._span.dim

    def verify(self, tol: float = 1e-12):
        """Exhaustively check the Cuntz-Krieger relations and that each
        canonical basis element equals its defining word s_mu p_w s_nu*."""
        n = self.ambient_dim
        err = _ck_relations_for(self.graph, self.span.gen_rows, n)
        if err > tol:
            raise CKRelationError(f"Cuntz-Krieger relations fail (error {err:.2e})")
        # Each sink-bound path word s_mu equals the matrix unit e_{mu, w},
        # where w is the length-0 path at the sink; hence every canonical
        # basis element e_{mu,nu} = e_{mu,w} e_{w,nu} equals s_mu s_nu*.
        sinks = [self.path_index[(p.range, ())] for p in self.paths]
        units = sp.csr_matrix((np.ones(n, dtype=np.complex128),
                               (np.arange(n), np.arange(n) * n + sinks)), shape=(n, n * n))
        words = _path_images(self, self.span.gen_rows, n)
        if matalg.max_row_norm(words - units) > tol:
            raise CKRelationError("path word disagrees with its matrix unit")

    def sink_block_sizes(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for p in self.paths:
            counts[p.range] = counts.get(p.range, 0) + 1
        return counts


def ck_representation(graph: DirectedGraph) -> CKFamily:
    """The path-space Cuntz-Krieger family of a finite acyclic graph."""
    return CKFamily(graph)


@dataclass
class GaugeReport:
    """The gauge action alpha_z at one z: whether {z s_f, p_v} is again a
    Cuntz-Krieger family, and whether the length grading passes
    :func:`_check_path_grading`, which makes alpha_z a *-automorphism."""
    z: complex
    is_ck_family: bool
    graded: bool

    @property
    def passed(self) -> bool:
        return self.is_ck_family and self.graded


def _gauge_degrees(graph: DirectedGraph) -> np.ndarray:
    """The length degree of each generator, s_f and then p_v: alpha_z scales
    a generator of degree k by z^k."""
    return np.repeat(np.array([1, 0]), [graph.n_edges, graph.n_vertices])


def gauge_check(fam: CKFamily, z: complex, tol: float = 1e-12) -> GaugeReport:
    """Check that {z s_f, p_v} is again a Cuntz-Krieger family and that
    s_f -> z s_f, p_v -> p_v induces a *-automorphism of the span.

    That map is alpha_z(e_{mu,nu}) = z^(|mu|-|nu|) e_{mu,nu}, the dual of the
    Z-grading by path length (the labeling c = 1 into Z); it is a
    *-automorphism for every z on the circle exactly when that grading
    passes :func:`_check_path_grading`."""
    if abs(abs(z) - 1.0) > tol:
        raise ValueError(f"|z| must be 1, got {abs(z)}")
    g = fam.graph
    gen_degrees = _gauge_degrees(g)
    scaled = sp.diags(z ** gen_degrees).tocsr() @ fam.span.gen_rows
    lengths = np.array([len(p.edges) for p in fam.paths])
    pairs = np.array(fam.pairs)
    fail = _check_path_grading(fam, lengths[pairs[:, 0]] - lengths[pairs[:, 1]],
                               gen_degrees[:g.n_edges], np.add, np.negative, 0)
    return GaugeReport(z=z, is_ck_family=_ck_relations_for(g, scaled, fam.ambient_dim) <= tol,
                       graded=fail is None)


def _check_path_grading(fam: CKFamily, degrees: np.ndarray, edge_degrees: np.ndarray,
                        mul, inv, identity: int) -> str | None:
    """The first rule that the degrees of the matrix units e_{mu,nu} break, or
    None: the adjoint inverts a degree, degrees multiply on every nonzero
    product, p_v lies in degree ``identity`` and s_f in ``edge_degrees[f]``.

    ``mul`` and ``inv`` act elementwise on integer arrays.  Exact index
    arithmetic, one sink block of degrees (a b x b array) at a time."""
    # fam.pairs lists the b x b units of each sink block, sinks in order.
    blocks, start = [], 0
    for _, b in sorted(fam.sink_block_sizes().items()):
        blocks.append(degrees[start:start + b * b].reshape(b, b))
        start += b * b
    if not all(np.array_equal(d.T, inv(d)) for d in blocks):
        return "adjoint degree mismatch"
    # e_{mu,m} e_{m,nu} = e_{mu,nu}: one b x b comparison per middle path m.
    if not all(np.array_equal(mul(d[:, m, None], d[None, m, :]), d)
               for d in blocks for m in range(len(d))):
        return "product degree mismatch"
    # p_v is the sum of the units e_{mu,mu} over paths mu from v, and s_f the
    # sum of the units e_{f nu, nu} over paths nu from r(f).
    if not all(np.all(d.diagonal() == identity) for d in blocks):
        return "vertex projection off degree e"
    units, heads = [], []
    for i, p in enumerate(fam.paths):
        if p.edges:
            tail = fam.path_index[(int(fam.graph.rng[p.edges[0]]), p.edges[1:])]
            units.append(fam.pair_index[(i, tail)])
            heads.append(p.edges[0])
    if np.any(degrees[units] != edge_degrees[heads]):
        return "edge partial isometry off its labeled degree"
    return None


def spectral_subspaces(fam: CKFamily, G: FiniteGroup, labeling: Labeling) -> GradedSpan:
    """Grade the canonical basis of C*(E) by deg(e_{mu,nu}) = c(mu) c(nu)^-1."""
    path_degree = np.array([labeling.of_path(p.edges) for p in fam.paths])
    inverse = np.array([G.inv(s) for s in G])
    pairs = np.array(fam.pairs)
    degrees = G.table[path_degree[pairs[:, 0]], inverse[path_degree[pairs[:, 1]]]]
    fail = _check_path_grading(fam, degrees, labeling.by_edge, lambda a, b: G.table[a, b],
                               lambda a: inverse[a], G.identity_index)
    if fail:
        raise ValueError(fail)
    return GradedSpan(fam.span, degrees, G)


class RepresentedCoaction:
    """The coaction s_f -> s_f (x) lam_{c(f)}, p_v -> p_v (x) 1, realized in
    C*(E) (x) M_|G| through the left regular representation."""

    def __init__(self, fam: CKFamily, G: FiniteGroup, labeling: Labeling):
        self.fam = fam
        self.labeling = labeling
        self.graded = spectral_subspaces(fam, G, labeling)

    def verify(self, tol: float = 1e-12) -> dict:
        """The graded delta agrees with the generator formula, and is a
        coaction by :func:`crossed.verify_graded_coaction`."""
        fam, G = self.fam, self.graded.group
        P, m, n_e = fam.ambient_dim, G.order, fam.graph.n_edges
        gen_rows = fam.span.gen_rows
        # s_f (x) lam_t at row f |G| + t, picked at t = c(f); then p_v (x) 1.
        edges = matalg._kron_rows(gen_rows[:n_e], matalg.vec_rows(regular_matrices(G)[0]), P, m)
        vertices = matalg._kron_rows(gen_rows[n_e:], matalg.vec_rows(
            [sp.identity(m, format="csr")]), P, m)
        formula = sp.vstack([edges[np.arange(n_e) * m + self.labeling.by_edge], vertices],
                            format="csr")
        err = matalg.max_row_norm(self.graded.delta(gen_rows) - formula)
        if err > tol:
            raise CKRelationError(f"delta disagrees with the generator formula ({err})")
        return {"generator_formula": err, **verify_graded_coaction(self.graded, tol)}


def coaction(fam: CKFamily, G: FiniteGroup, labeling: Labeling) -> RepresentedCoaction:
    """Build and machine-verify the coaction attached to a labeling."""
    rc = RepresentedCoaction(fam, G, labeling)
    rc.verify()
    return rc
