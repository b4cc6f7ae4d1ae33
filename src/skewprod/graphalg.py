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
from .graphs import DirectedGraph, EmptyGraph, Path, enumerate_sink_paths
from .groups import FiniteGroup, Labeling, regular_matrices
from .matalg import AlgebraSpan, frobenius, kron


class CKRelationError(ValueError):
    pass


def _unit_csr(n: int, entries) -> sp.csr_matrix:
    rows = [r for r, _ in entries]
    cols = [c for _, c in entries]
    return sp.csr_matrix(
        (np.ones(len(entries), dtype=np.complex128), (rows, cols)), shape=(n, n)
    )


def _ck_relations_for(graph: DirectedGraph, s_imgs: list, p_imgs: list) -> float:
    """Largest violation of the Cuntz-Krieger relations by a candidate family:
    the p_v are mutually orthogonal nonzero projections summing to 1, each s_f
    is nonzero with s_f* s_f = p_r(f), and sum s_f s_f* = p_v over the edges
    out of each non-sink v."""
    ambient = p_imgs[0].shape[0]
    err = 0.0
    ident = sp.identity(ambient, format="csr", dtype=np.complex128)
    total = sp.csr_matrix((ambient, ambient), dtype=np.complex128)
    for v in range(graph.n_vertices):
        pv = p_imgs[v]
        total = total + pv
        err = max(err, frobenius(pv @ pv - pv), frobenius(pv.conj().T - pv))
        if pv.nnz == 0:
            err = max(err, 1.0)
    for v in range(graph.n_vertices):
        for w in range(v + 1, graph.n_vertices):
            err = max(err, frobenius(p_imgs[v] @ p_imgs[w]))
    err = max(err, frobenius(total - ident))
    for e in range(graph.n_edges):
        se = s_imgs[e]
        if se.nnz == 0:
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

    def path_matrix(self, path: Path) -> sp.csr_matrix:
        """s_mu = s_{e_1} ... s_{e_n}; the vertex projection for a length-0 path."""
        if not path.edges:
            return self.p[path.source]
        out = self.s[path.edges[0]]
        for e in path.edges[1:]:
            out = out @ self.s[e]
        return out.tocsr()

    def verify(self, tol: float = 1e-12):
        """Exhaustively check the Cuntz-Krieger relations and that each
        canonical basis element equals its defining word s_mu p_w s_nu*."""
        err = _ck_relations_for(self.graph, self.s, self.p)
        if err > tol:
            raise CKRelationError(f"Cuntz-Krieger relations fail (error {err:.2e})")
        n = self.ambient_dim
        # Each sink-bound path word s_mu equals the matrix unit e_{mu, w},
        # where w is the length-0 path at the sink; hence every canonical
        # basis element e_{mu,nu} = e_{mu,w} e_{w,nu} equals s_mu s_nu*.
        for i, p in enumerate(self.paths):
            w = self.path_index[(p.range, ())]
            if frobenius(self.path_matrix(p) - _unit_csr(n, [(i, w)])) > tol:
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
    z: complex
    is_ck_family: bool
    automorphism: matalg.StarMapReport

    @property
    def passed(self) -> bool:
        return self.is_ck_family and self.automorphism.passed and self.automorphism.bijective


def gauge_check(fam: CKFamily, z: complex, tol: float = 1e-12) -> GaugeReport:
    """Check that {z s_f, p_v} is again a Cuntz-Krieger family and that
    s_f -> z s_f, p_v -> p_v induces a *-automorphism of the span."""
    if abs(abs(z) - 1.0) > tol:
        raise ValueError(f"|z| must be 1, got {abs(z)}")
    g = fam.graph
    n = fam.ambient_dim
    ok = _ck_relations_for(g, [z * s for s in fam.s], fam.p) <= tol

    # alpha_z on the canonical basis: e_{mu,nu} -> z^(|mu|-|nu|) e_{mu,nu}.
    powers = np.array(
        [len(fam.paths[i].edges) - len(fam.paths[j].edges) for i, j in fam.pairs]
    )
    scale = np.array([z**int(k) for k in powers], dtype=np.complex128)
    image_rows = sp.diags(scale).tocsr() @ fam.span.rows
    inverse_rows = sp.diags(scale.conj()).tocsr() @ fam.span.rows
    # The generators s_f, then p_v: s_f -> z s_f, p_v -> p_v.
    gen_scale = np.concatenate([np.full(g.n_edges, z), np.ones(g.n_vertices)])
    report = matalg.star_map_on_basis(
        fam.span,
        image_rows,
        n,
        fam.span.gen_rows,
        sp.diags(gen_scale).tocsr() @ fam.span.gen_rows,
        tol=max(tol, 1e-12),
        target=fam.span,
        inverse_rows=inverse_rows,
    )
    return GaugeReport(z=z, is_ck_family=ok, automorphism=report)


def _check_path_grading(fam: CKFamily, labeling: Labeling, degrees: np.ndarray):
    """The grading is multiplicative and *-compatible, s_f lies in degree c(f)
    and p_v in degree e: exact index arithmetic on the matrix-unit basis."""
    G = labeling.group
    for k, (i, j) in enumerate(fam.pairs):
        kstar = fam.pair_index[(j, i)]
        if degrees[kstar] != G.inv(int(degrees[k])):
            raise ValueError("adjoint degree mismatch")
    by_left: dict[int, list[int]] = {}
    for k, (i, j) in enumerate(fam.pairs):
        by_left.setdefault(i, []).append(k)
    for k, (i, j) in enumerate(fam.pairs):
        for k2 in by_left.get(j, []):
            j2 = fam.pairs[k2][1]
            prod = fam.pair_index[(i, j2)]
            expected = G.mul(int(degrees[k]), int(degrees[k2]))
            if degrees[prod] != expected:
                raise ValueError("product degree mismatch")
    # p_v is the sum of the units e_{mu,mu} over paths mu from v, and s_f the
    # sum of the units e_{f nu, nu} over paths nu from r(f).
    e = G.identity_index
    for i, p in enumerate(fam.paths):
        if degrees[fam.pair_index[(i, i)]] != e:
            raise ValueError("vertex projection off degree e")
        if p.edges:
            tail = fam.path_index[(int(fam.graph.rng[p.edges[0]]), p.edges[1:])]
            if degrees[fam.pair_index[(i, tail)]] != labeling.of(p.edges[0]):
                raise ValueError("edge partial isometry off its labeled degree")


def spectral_subspaces(fam: CKFamily, G: FiniteGroup, labeling: Labeling) -> GradedSpan:
    """Grade the canonical basis of C*(E) by deg(e_{mu,nu}) = c(mu) c(nu)^-1."""
    path_degree = [labeling.of_path(p.edges) for p in fam.paths]
    degrees = np.array(
        [G.mul(path_degree[i], G.inv(path_degree[j])) for i, j in fam.pairs],
        dtype=np.int64,
    )
    _check_path_grading(fam, labeling, degrees)
    return GradedSpan(fam.span, degrees, G)


class RepresentedCoaction:
    """The coaction s_f -> s_f (x) lam_{c(f)}, p_v -> p_v (x) 1, realized in
    C*(E) (x) M_|G| through the left regular representation."""

    def __init__(self, fam: CKFamily, G: FiniteGroup, labeling: Labeling):
        self.fam = fam
        self.labeling = labeling
        self.graded = spectral_subspaces(fam, G, labeling)
        self._lam = regular_matrices(G)[0]

    def delta_edge(self, e: int) -> sp.csr_matrix:
        return kron(self.fam.s[e], self._lam[self.labeling.of(e)])

    def delta_vertex(self, v: int) -> sp.csr_matrix:
        return kron(self.fam.p[v], sp.identity(len(self._lam), dtype=np.complex128))

    def verify(self, tol: float = 1e-12) -> dict:
        """The graded delta agrees with the generator formula, and is a
        coaction by :func:`crossed.verify_graded_coaction`."""
        fam = self.fam
        formula = matalg.vec_rows([self.delta_edge(e) for e in range(fam.graph.n_edges)]
                                  + [self.delta_vertex(v) for v in range(fam.graph.n_vertices)])
        err = matalg.max_row_norm(self.graded.delta(fam.span.gen_rows) - formula)
        if err > tol:
            raise CKRelationError(f"delta disagrees with the generator formula ({err})")
        return {"generator_formula": err, **verify_graded_coaction(self.graded, tol)}


def coaction(fam: CKFamily, G: FiniteGroup, labeling: Labeling) -> RepresentedCoaction:
    """Build and machine-verify the coaction attached to a labeling."""
    rc = RepresentedCoaction(fam, G, labeling)
    rc.verify()
    return rc
