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

import numpy as np
import scipy.sparse as sp

from . import matalg
from .crossed import GradedSpan
from .graphs import DirectedGraph, EmptyGraph, GraphError, enumerate_sink_paths
from .groups import FiniteGroup, Labeling
from .matalg import AlgebraSpan, Check, Report


class CKRelationError(ValueError):
    pass


def _ck_relations_for(graph: DirectedGraph, gen_rows: sp.csr_matrix, n: int) -> float:
    """Largest violation of the Cuntz-Krieger relations by a candidate family
    of n x n matrices, given as the stacked rows vec(s_f) and then vec(p_v):
    the p_v are mutually orthogonal nonzero projections summing to 1, each s_f
    is nonzero with s_f* s_f = p_r(f), and sum s_f s_f* = p_v over the edges
    out of each non-sink v.

    Decided on index tables.  A family that is not of partial permutations
    (``matalg._monomial``) has error 1.0, and so has one that breaks a fact
    about its index sets: no generator is zero, each p_v is the identity on
    its support, the supports partition the rows, s_f has the columns of
    p_r(f), and the rows of the s_f out of a non-sink v partition those of
    p_v.  On any other family s_f* s_f - p_r(f) and sum s_f s_f* - p_v are
    diagonal with the entries |x|^2 - 1 over the entries x of the s_f, so the
    error, their operator norm, is the largest |conj(x) x - 1| as
    ``matalg._times`` forms it: exactly 0.0 when each conj(x) x is 1."""
    n_v, n_e = graph.n_vertices, graph.n_edges
    gen_rows = gen_rows.tocsr()
    mono = matalg._monomial(gen_rows, n)
    if mono is None or not np.diff(gen_rows.indptr).all():
        return 1.0
    col, val = mono
    v, a = np.nonzero(col[n_e:] >= 0)
    if not (np.array_equal(col[n_e + v, a], a) and np.all(val[n_e + v, a] == 1)
            and np.array_equal(np.sort(a), np.arange(n))):
        return 1.0
    owner = np.empty(n, dtype=np.int64)
    owner[a] = v
    # Entry (a, b) of s_f: b on r(f), a on s(f), and each row under a
    # non-sink vertex in the range of exactly one edge.
    f, a = np.nonzero(col[:n_e] >= 0)
    non_sink = np.bincount(graph.src, minlength=n_v) > 0
    if not (np.all(owner[col[f, a]] == graph.rng[f]) and np.all(owner[a] == graph.src[f])
            and np.array_equal(np.bincount(f, minlength=n_e),
                               np.bincount(v, minlength=n_v)[graph.rng])
            and np.array_equal(np.bincount(a, minlength=n), non_sink[owner])):
        return 1.0
    x = val[f, a]
    return float(np.max(np.abs(matalg._times(x.conj(), x) - 1), initial=0.0))


def _path_images(fam: CKFamily, gen_rows: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """The rows vec(s_mu) of the word of every basis path, in path order, for
    a family of n x n partial permutations given as the stacked rows s_f and
    then p_v; raises :class:`CKRelationError` for any other family.

    A path of length 0 at v has the word p_v, and f mu the word s_f s_mu: one
    pass per level of ``fam``.  Each word is index arrays
    (``matalg._monomial``), and row a of s_f s_mu has the one entry
    s_f[a, b] s_mu[b, col[b]] for b the column of row a of s_f."""
    n_p, n_e = fam.ambient_dim, fam.graph.n_edges
    mono = matalg._monomial(gen_rows, n)
    if mono is None:
        raise CKRelationError("the family is not of partial permutations")
    col, val = mono[0][n_e + fam.source], mono[1][n_e + fam.source]
    for level in fam.levels:
        b, tail = mono[0][fam.head[level]], fam.tail[level]
        at = np.maximum(b, 0)
        x = matalg._times(mono[1][fam.head[level]], np.take_along_axis(val[tail], at, axis=1))
        c = np.take_along_axis(col[tail], at, axis=1)
        col[level] = np.where((b >= 0) & (c >= 0) & (x != 0), c, -1)
        val[level] = x
    k, a = np.nonzero(col >= 0)
    return matalg._csr(val[k, a], k, a * n + col[k, a], (n_p, n * n))


class CKFamily:
    """The path-space Cuntz-Krieger family of a finite acyclic graph.

    Path i of ``paths`` is also held as integers: ``source``, ``sink`` and
    ``length``, its first edge ``head`` and its ``tail``, the index of the
    rest of the path (both -1 at length 0).  ``prepend[f, j]`` is the index
    of f j, or -1 where r(f) is not the source of path j.  Paths are grouped
    by sink and then ordered by length, so tail[i] < i, and ``levels[k]``
    lists the paths of length k + 1: a recursion on (first edge, tail) is
    one vectorized pass per level.  The paths into sink w are
    start[w]:start[w + 1], the length-0 path at w first, and the matrix units
    e_{i,j} over them are the basis rows pair_start[w]:pair_start[w + 1], in
    the order of ``pairs``.
    """

    def __init__(self, graph: DirectedGraph):
        if graph.n_vertices == 0:
            raise EmptyGraph("graph has no vertices")
        self.graph = graph
        self.paths = enumerate_sink_paths(graph)
        n = self.ambient_dim = len(self.paths)
        self.source = np.array([p.source for p in self.paths], dtype=np.int64)
        self.sink = np.array([p.range for p in self.paths], dtype=np.int64)
        self.length = np.array([len(p) for p in self.paths], dtype=np.int64)
        self.head = np.array([p.edges[0] if p.edges else -1 for p in self.paths], dtype=np.int64)
        at = {(p.base, p.edges): i for i, p in enumerate(self.paths)}
        self.tail = np.array([at[(int(graph.rng[p.edges[0]]), p.edges[1:])] if p.edges else -1
                              for p in self.paths], dtype=np.int64)
        self.levels = [np.flatnonzero(self.length == k) for k in range(1, self.length.max() + 1)]
        longer = np.flatnonzero(self.length)
        self.prepend = np.full((graph.n_edges, n), -1, dtype=np.int64)
        self.prepend[self.head[longer], self.tail[longer]] = longer

        self.start = np.searchsorted(self.sink, np.arange(graph.n_vertices + 1))
        sizes = np.diff(self.start)
        self.pair_start = np.r_[0, np.cumsum(sizes**2)]
        w = np.repeat(np.arange(graph.n_vertices), sizes**2)
        k = np.arange(self.pair_start[-1]) - self.pair_start[w]
        self.pairs = np.stack([self.start[w] + k // sizes[w], self.start[w] + k % sizes[w]], axis=1)

        # vec(s_f) has a 1 at (f j) n + j for every path j from r(f), and
        # vec(p_v) at i n + i for every path i from v.
        gen_rows = matalg._csr(
            np.ones(len(longer) + n, dtype=np.complex128),
            np.r_[self.head[longer], graph.n_edges + self.source],
            np.r_[longer * n + self.tail[longer], np.arange(n) * (n + 1)],
            (graph.n_edges + graph.n_vertices, n * n))
        n_pairs = len(self.pairs)
        basis = matalg._csr(np.ones(n_pairs, dtype=np.complex128), np.arange(n_pairs),
                            self.pairs[:, 0] * n + self.pairs[:, 1], (n_pairs, n * n))
        self.span = AlgebraSpan(n, basis, gen_rows=gen_rows, name="C*(E)")
        self.verify()

    @property
    def dim(self) -> int:
        return self.span.dim

    @property
    def s(self) -> list[sp.csr_matrix]:  # the s_f as matrices, from their rows
        return matalg.unvec_rows(self.span.gen_rows[:self.graph.n_edges], self.ambient_dim)

    @property
    def p(self) -> list[sp.csr_matrix]:  # the p_v as matrices, from their rows
        return matalg.unvec_rows(self.span.gen_rows[self.graph.n_edges:], self.ambient_dim)

    def pair(self, i, j):
        """The basis index of e_{i,j}, elementwise, for paths i and j into one sink."""
        w = self.sink[i]
        lo = self.start[w]
        return self.pair_start[w] + (i - lo) * (self.start[w + 1] - lo) + j - lo

    def path_degrees(self, G: FiniteGroup, by_edge: np.ndarray) -> np.ndarray:
        """c(mu) = c(f_1) ... c(f_n) for every path, e at length 0, for the
        edge labels ``by_edge``: c(f nu) = c(f) c(nu), one pass per level."""
        deg = np.full(self.ambient_dim, G.identity_index, dtype=np.int64)
        for level in self.levels:
            deg[level] = G.table[by_edge[self.head[level]], deg[self.tail[level]]]
        return deg

    def map_paths(self, edge_map, vertex_map, target: CKFamily | None = None) -> np.ndarray:
        """The index in ``target`` (this family by default) of the image of
        every path under the graph morphism with these edge and vertex index
        maps, from f nu -> f' nu'; leading axes of the maps, one per morphism,
        are kept.  Raises :class:`GraphError` if an image is not a path into
        a sink of the target."""
        target = self if target is None else target
        edge_map, vertex_map = np.asarray(edge_map), np.asarray(vertex_map)
        out = np.empty(vertex_map.shape[:-1] + (self.ambient_dim,), dtype=np.int64)
        empty = np.flatnonzero(self.length == 0)
        v = vertex_map[..., self.source[empty]]
        out[..., empty] = np.where(target.start[v + 1] > target.start[v], target.start[v], -1)
        for level in self.levels:
            out[..., level] = target.prepend[edge_map[..., self.head[level]],
                                             out[..., self.tail[level]]]
        if np.any(out < 0):
            raise GraphError("a path does not map to a path into a sink")
        return out

    def verify(self):
        """Exhaustively check the Cuntz-Krieger relations and that each
        canonical basis element equals its defining word s_mu p_w s_nu*."""
        n = self.ambient_dim
        err = _ck_relations_for(self.graph, self.span.gen_rows, n)
        if err > 1e-12:
            raise CKRelationError(f"Cuntz-Krieger relations fail (error {err:.2e})")
        # Each sink-bound path word s_mu equals the matrix unit e_{mu, w},
        # where w is the length-0 path at the sink; hence every canonical
        # basis element e_{mu,nu} = e_{mu,w} e_{w,nu} equals s_mu s_nu*.
        units = matalg._csr(np.ones(n, dtype=np.complex128), np.arange(n),
                            np.arange(n) * n + self.start[self.sink], (n, n * n))
        words = _path_images(self, self.span.gen_rows, n)
        if not all(map(np.array_equal, (words.indptr, words.indices, words.data),
                       (units.indptr, units.indices, units.data))):
            raise CKRelationError("path word disagrees with its matrix unit")

    def sink_block_sizes(self) -> dict[int, int]:
        sizes = np.diff(self.start)
        return {int(w): int(sizes[w]) for w in np.flatnonzero(sizes)}


def ck_representation(graph: DirectedGraph) -> CKFamily:
    """The path-space Cuntz-Krieger family of a finite acyclic graph."""
    return CKFamily(graph)


def _gauge_degrees(graph: DirectedGraph) -> np.ndarray:
    """The length degree of each generator, s_f and then p_v: alpha_z scales
    a generator of degree k by z^k."""
    return np.repeat(np.array([1, 0]), [graph.n_edges, graph.n_vertices])


def generator_degrees(labeling: Labeling) -> np.ndarray:
    """The degree of each generator under a labeling, s_f and then p_v, as
    for the length labeling: c(f), then e."""
    return np.r_[labeling.by_edge,
                 np.full(labeling.graph.n_vertices, labeling.group.identity_index)]


def gauge_check(fam: CKFamily, zs) -> Report:
    """Check, at every z of the sequence ``zs``, that {z s_f, p_v} is again a
    Cuntz-Krieger family and that s_f -> z s_f, p_v -> p_v induces a
    *-automorphism of the span.

    That map is alpha_z(e_{mu,nu}) = z^(|mu|-|nu|) e_{mu,nu}, the dual of the
    Z-grading by path length (the labeling c = 1 into Z); it is a
    *-automorphism for every z on the circle exactly when that grading
    passes :func:`_check_path_grading`, which does not depend on z and so
    runs once.  The report's checks are "ck_family", the largest relation
    error over the z, and the exact "graded".

    A z is admitted when ||z|^2 - 1| <= 5e-13, half the tolerance of
    "ck_family", whose error on this family is ||z|^2 - 1| up to rounding:
    so every admitted z passes it."""
    for z in zs:
        if abs(abs(z) ** 2 - 1.0) > 5e-13:
            raise ValueError(f"|z|^2 must be 1 within 5e-13, got {abs(z) ** 2!r}")
    g = fam.graph
    gen_degrees = _gauge_degrees(g)
    lengths = fam.length[fam.pairs]
    fail = _check_path_grading(fam, lengths[:, 0] - lengths[:, 1],
                               gen_degrees[:g.n_edges], np.add, np.negative, 0)
    # {z^k x}: the entries of a generator of degree k times z^k, as a sparse
    # product by the diagonal matrix of the z^k forms them.
    rows = fam.span.gen_rows
    entry_degrees = np.repeat(gen_degrees, np.diff(rows.indptr))
    err = np.max([_ck_relations_for(g, sp.csr_matrix(
        (matalg._times(rows.data, z ** entry_degrees), rows.indices, rows.indptr), rows.shape),
        fam.ambient_dim) for z in zs], initial=0.0)
    return Report(checks=[Check("ck_family", float(err), 1e-12),
                          Check.holds("graded", fail is None)])


def _check_path_grading(fam: CKFamily, degrees: np.ndarray, edge_degrees: np.ndarray,
                        mul, inv, identity: int) -> str | None:
    """The first rule that the degrees of the matrix units e_{mu,nu} break, or
    None: the adjoint inverts a degree, degrees multiply on every nonzero
    product, p_v lies in degree ``identity`` and s_f in ``edge_degrees[f]``.

    ``mul`` and ``inv`` act elementwise on integer arrays.  Exact index
    arithmetic, one sink block of degrees (a b x b array) at a time."""
    # The b x b units of the sink block of w are pair_start[w]:pair_start[w + 1].
    blocks = [degrees[k:k + b * b].reshape(b, b)
              for k, b in zip(fam.pair_start, np.diff(fam.start)) if b]
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
    longer = np.flatnonzero(fam.length)
    if np.any(degrees[fam.pair(longer, fam.tail[longer])] != edge_degrees[fam.head[longer]]):
        return "edge partial isometry off its labeled degree"
    return None


def coaction(fam: CKFamily, G: FiniteGroup, labeling: Labeling) -> GradedSpan:
    """The coaction s_f -> s_f (x) lam_{c(f)}, p_v -> p_v (x) 1 attached to a
    labeling, realized in C*(E) (x) M_|G| through the left regular
    representation as the grading deg(e_{mu,nu}) = c(mu) c(nu)^-1 of the
    canonical basis.

    Raises ValueError naming the first grading rule the degrees break; that
    delta is the generator formula is :func:`crossed.coaction_check` with
    the degrees of :func:`generator_degrees`."""
    path_degree = fam.path_degrees(G, labeling.by_edge)[fam.pairs]
    degrees = G.table[path_degree[:, 0], G.inverse[path_degree[:, 1]]]
    fail = _check_path_grading(fam, degrees, labeling.by_edge, lambda a, b: G.table[a, b],
                               lambda a: G.inverse[a], G.identity_index)
    if fail:
        raise ValueError(fail)
    return GradedSpan(fam.span, degrees, G)
