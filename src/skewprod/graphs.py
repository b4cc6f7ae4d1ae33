"""Directed graphs, paths, skew products, translation actions, quotients by
free actions, and the factorization of a free action through a skew product.

Conventions: a graph is (E0, E1, r, s); a path e_1 ... e_n requires
r(e_i) = s(e_{i+1}), so paths run source-to-range left to right.  The skew
product of a graph by a group-valued labeling c has

    r(f, t) = (r(f), t)        s(f, t) = (s(f), c(f) t)

and the group acts on it by right translation, t.(v, s) = (v, s t^-1).
"""
from __future__ import annotations

import graphlib
import json
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .groups import FiniteGroup, Labeling, action_law_failure, make_labeling


class GraphError(ValueError):
    pass


class GraphHasCycle(GraphError):
    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle


class NotSkewProduct(GraphError):
    pass


class ActionNotFree(GraphError):
    pass


class EmptyGraph(GraphError):
    pass


@dataclass(frozen=True)
class Edge:
    id: Hashable
    src: Hashable
    rng: Hashable


class DirectedGraph:
    """A finite directed graph with ordered vertices and edges."""

    def __init__(self, vertices: Sequence[Hashable], edges: Sequence[Edge | tuple]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        self.edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        if len({e.id for e in self.edges}) != len(self.edges):
            raise GraphError("duplicate edge ids")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        for e in self.edges:
            if e.src not in self._vindex or e.rng not in self._vindex:
                raise GraphError(f"edge {e.id!r} touches an unknown vertex")
        self.src = np.array([self._vindex[e.src] for e in self.edges], dtype=np.int64)
        self.rng = np.array([self._vindex[e.rng] for e in self.edges], dtype=np.int64)
        self._eindex = {e.id: i for i, e in enumerate(self.edges)}
        self._out = [[] for _ in self.vertices]
        for i in range(len(self.edges)):
            self._out[self.src[i]].append(i)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, v) -> int:
        return self._vindex[v]

    def edge_index(self, edge_id) -> int:
        return self._eindex[edge_id]

    def out_edges(self, vidx: int) -> list[int]:
        return self._out[vidx]

    def is_sink(self, vidx: int) -> bool:
        return not self._out[vidx]

    def find_cycle(self):
        """Return a list of vertex indices forming a cycle, or None."""
        ts = graphlib.TopologicalSorter(
            {i: {int(self.rng[e]) for e in range(self.n_edges) if self.src[e] == i}
             for i in range(self.n_vertices)}
        )
        try:
            ts.prepare()
            return None
        except graphlib.CycleError as err:
            return [int(v) for v in err.args[1]]

    def __repr__(self) -> str:
        return f"DirectedGraph({self.n_vertices} vertices, {self.n_edges} edges)"

    def to_json(self) -> str:
        def enc(x):
            return list(x) if isinstance(x, tuple) else x

        return json.dumps(
            {
                "vertices": [enc(v) for v in self.vertices],
                "edges": [
                    {"id": enc(e.id), "src": enc(e.src), "rng": enc(e.rng)}
                    for e in self.edges
                ],
            }
        )

    @staticmethod
    def from_json(text: str) -> "DirectedGraph":
        data = json.loads(text)

        def dec(x):
            return tuple(dec(y) for y in x) if isinstance(x, list) else x

        vertices = [dec(v) for v in data["vertices"]]
        edges = [Edge(dec(e["id"]), dec(e["src"]), dec(e["rng"])) for e in data["edges"]]
        return DirectedGraph(vertices, edges)


def labeled_graph_from_json(text: str, G: FiniteGroup) -> tuple[DirectedGraph, Labeling]:
    """Parse a graph descriptor whose edges carry 'label' fields naming G-elements."""
    data = json.loads(text)
    graph = DirectedGraph.from_json(text)
    assignment = {}
    for e, edge in zip(data["edges"], graph.edges):
        assignment[edge.id] = e.get("label", G.name(G.identity_index))
    return graph, make_labeling(graph, assignment, G)


@dataclass(frozen=True)
class Path:
    """A finite path: a tuple of edge indices, or the empty path at a vertex."""

    graph: DirectedGraph
    edges: tuple[int, ...]
    base: int  # source vertex index; redundant unless the path is empty

    def __post_init__(self):
        prev = self.base
        for e in self.edges:
            if self.graph.src[e] != prev:
                raise GraphError(f"edges do not compose at index {e}")
            prev = self.graph.rng[e]

    @property
    def source(self) -> int:
        return self.base

    @property
    def range(self) -> int:
        return int(self.graph.rng[self.edges[-1]]) if self.edges else self.base

    def __len__(self) -> int:
        return len(self.edges)


def _out_neighbours_first(graph: DirectedGraph) -> list[int]:
    """The vertices, each after all its out-neighbours; raises
    :class:`GraphHasCycle` if there is no such order."""
    cyc = graph.find_cycle()
    if cyc is not None:
        raise GraphHasCycle(f"graph has a cycle through vertices {cyc}", cycle=cyc)
    return list(
        graphlib.TopologicalSorter(
            {i: {int(graph.rng[e]) for e in graph.out_edges(i)}
             for i in range(graph.n_vertices)}
        ).static_order()
    )


def count_sink_paths(graph: DirectedGraph) -> int:
    """len(enumerate_sink_paths(graph)), counted without listing the paths."""
    count: dict[int, int] = {}
    for v in _out_neighbours_first(graph):
        count[v] = int(graph.is_sink(v)) + sum(count[int(graph.rng[e])] for e in graph.out_edges(v))
    return sum(count.values())


def enumerate_sink_paths(graph: DirectedGraph) -> list[Path]:
    """All paths whose range is a sink, including length-0 paths at sinks.

    The list is complete and duplicate-free, grouped by sink and then ordered
    by length and edge sequence, so the ordering is deterministic.  Raises
    :class:`GraphHasCycle` if the graph has a cycle (the path space would be
    infinite).
    """
    from_vertex: dict[int, list[tuple[int, ...]]] = {}
    for v in _out_neighbours_first(graph):
        paths = [()] if graph.is_sink(v) else []
        for e in graph.out_edges(v):
            for tail in from_vertex[int(graph.rng[e])]:
                paths.append((e,) + tail)
        from_vertex[v] = paths
    out = []
    for v in range(graph.n_vertices):
        for seq in from_vertex[v]:
            out.append(Path(graph, seq, v))
    out.sort(key=lambda p: (p.range, len(p), p.edges, p.base))
    return out


def skew_product(
    graph: DirectedGraph, G: FiniteGroup, labeling: Labeling
) -> DirectedGraph:
    """The skew-product graph on vertex set E0 x G and edge set E1 x G.

    Vertex (v, t) sits at index v |G| + t and edge (f, t) at f |G| + t, so
    s(f, t) = s(f) |G| + c(f) t and r(f, t) = r(f) |G| + t.  The names
    (name of v or id of f, name of t) are for display and JSON only.
    """
    if labeling.graph is not graph or labeling.group is not G:
        labeling = Labeling(graph, G, labeling.by_edge)
    vertices = [(v, G.name(t)) for v in graph.vertices for t in G]
    edges = []
    for i, e in enumerate(graph.edges):
        c = labeling.of(i)
        for t in G:
            edges.append(
                Edge(
                    (e.id, G.name(t)),
                    (e.src, G.name(G.mul(c, t))),
                    (e.rng, G.name(t)),
                )
            )
    return DirectedGraph(vertices, edges)


class GraphAction:
    """An action of a finite group on a graph by automorphisms.

    Stored as one vertex permutation and one edge permutation per group
    element; ``vperm[t][v]`` is the index of t.v.
    """

    def __init__(self, graph: DirectedGraph, group: FiniteGroup, vperm, eperm):
        self.graph = graph
        self.group = group
        self.vperm = np.asarray(vperm, dtype=np.int64)
        self.eperm = np.asarray(eperm, dtype=np.int64)
        self._validate()

    def _validate(self):
        g, G = self.graph, self.group
        for perm, kind, cells, n in ((self.vperm, "vertex", "vertices", g.n_vertices),
                                     (self.eperm, "edge", "edges", g.n_edges)):
            if perm.shape != (G.order, n):
                raise GraphError(f"{kind} permutation table has wrong shape")
            fail = action_law_failure(G, perm)
            if fail:
                rule, witness = fail
                raise GraphError({
                    "identity": f"identity element acts nontrivially on {cells}",
                    "bijection": "element {} does not permute " + cells,
                    "law": kind + " action breaks at ({},{})"}[rule].format(*witness))
        # Automorphisms: each t commutes with the source and range maps.
        for ends, name in ((g.src, "sources"), (g.rng, "ranges")):
            bad = np.any(ends[self.eperm] != self.vperm[:, ends], axis=1)
            if bad.any():
                raise GraphError(f"element {int(np.argmax(bad))} does not respect {name}")

    def vertex(self, t: int, vidx: int) -> int:
        return int(self.vperm[t, vidx])

    def edge(self, t: int, eidx: int) -> int:
        return int(self.eperm[t, eidx])


def _fixed_cell(action: GraphAction) -> str | None:
    """The first non-identity element that fixes a vertex or an edge, named
    with the cell it fixes, or None when the action is free."""
    g = action.graph
    for t in action.group:
        if t == action.group.identity_index:
            continue
        for perm, kind, names in ((action.vperm[t], "vertex", g.vertices),
                                  (action.eperm[t], "edge", [e.id for e in g.edges])):
            fixed = np.flatnonzero(perm == np.arange(len(perm)))
            if fixed.size:
                return f"element {t} fixes {kind} {names[fixed[0]]!r}"
    return None


def is_free(action: GraphAction) -> bool:
    """True iff no non-identity element fixes a vertex or an edge."""
    return _fixed_cell(action) is None


def translation_action(skew: DirectedGraph, G: FiniteGroup) -> GraphAction:
    """The right-translation action t.(v, s) = (v, s t^-1) on a skew product.

    Raises :class:`NotSkewProduct` if the graph's cells are not (cell, group
    element) pairs covering every group coordinate.
    """
    names = set(G.elements)

    def split(cells):
        base = []
        for c in cells:
            if not (isinstance(c, tuple) and len(c) == 2 and c[1] in names):
                raise NotSkewProduct(f"cell {c!r} is not a (cell, group element) pair")
            base.append(c)
        return base

    split(skew.vertices)
    split(e.id for e in skew.edges)
    vindex = {v: i for i, v in enumerate(skew.vertices)}
    eindex = {e.id: i for i, e in enumerate(skew.edges)}
    vperm = np.zeros((G.order, skew.n_vertices), dtype=np.int64)
    eperm = np.zeros((G.order, skew.n_edges), dtype=np.int64)
    for t in G:
        for i, (v, sname) in enumerate(skew.vertices):
            s = G.index(sname)
            key = (v, G.name(G.mul(s, G.inv(t))))
            if key not in vindex:
                raise NotSkewProduct(f"missing translated vertex {key!r}")
            vperm[t, i] = vindex[key]
        for i, e in enumerate(skew.edges):
            f, sname = e.id
            s = G.index(sname)
            key = (f, G.name(G.mul(s, G.inv(t))))
            if key not in eindex:
                raise NotSkewProduct(f"missing translated edge {key!r}")
            eperm[t, i] = eindex[key]
    return GraphAction(skew, G, vperm, eperm)


class GraphIso:
    """A pair of bijections between two graphs intertwining source and range:
    vertex i of ``a`` goes to vertex vmap[i] of ``b``, and edge i to edge
    emap[i].  The name views ``vertex``, ``edge``, ``vertex_map`` and
    ``edge_map`` are for display and JSON."""

    def __init__(self, a: DirectedGraph, b: DirectedGraph, vmap, emap):
        self.a = a
        self.b = b
        self.vmap = np.asarray(vmap, dtype=np.int64)
        self.emap = np.asarray(emap, dtype=np.int64)
        self.verify()

    def verify(self):
        a, b = self.a, self.b
        for cells, to, n_a, n_b in (("vertex", self.vmap, a.n_vertices, b.n_vertices),
                                    ("edge", self.emap, a.n_edges, b.n_edges)):
            if to.shape != (n_a,) or not np.array_equal(np.sort(to), np.arange(n_b)):
                raise GraphError(f"{cells} map is not a bijection onto the codomain")
        bad = (b.src[self.emap] != self.vmap[a.src]) | (b.rng[self.emap] != self.vmap[a.rng])
        if np.any(bad):
            raise GraphError(f"edge {a.edges[np.argmax(bad)].id!r} does not intertwine s and r")

    def vertex(self, v):
        return self.b.vertices[self.vmap[self.a.vertex_index(v)]]

    def edge(self, eid):
        return self.b.edges[self.emap[self.a.edge_index(eid)]].id

    @property
    def vertex_map(self) -> dict:
        return {v: self.b.vertices[w] for v, w in zip(self.a.vertices, self.vmap)}

    @property
    def edge_map(self) -> dict:
        return {e.id: self.b.edges[f].id for e, f in zip(self.a.edges, self.emap)}

    def inverse(self) -> "GraphIso":
        return GraphIso(self.b, self.a, np.argsort(self.vmap), np.argsort(self.emap))


def quotient_and_gross_tucker(
    graph: DirectedGraph, action: GraphAction
) -> tuple[DirectedGraph, Labeling, GraphIso]:
    """Quotient a free action and factor the graph through a skew product.

    Returns (E, c, iso) where E = F/G is the quotient graph on orbits, c is a
    labeling of E, and iso : F -> E x_c G is a graph isomorphism carrying the
    given action to right translation.  The section is the least-index orbit
    representative per orbit, which makes the output deterministic.
    """
    fixed = _fixed_cell(action)
    if fixed:
        raise ActionNotFree(fixed)
    G, m = action.group, action.group.order

    def orbit_data(perm_rows):
        # rep[i]: least-index orbit representative; shift[i]: the unique t
        # with i = t.rep[i] (unique because the action is free); orbit[i]:
        # the place of rep[i] among the representatives.
        rep = perm_rows.min(axis=0)
        shift = np.empty(len(rep), dtype=np.int64)
        t, i = np.nonzero(perm_rows[:, rep] == np.arange(len(rep)))
        shift[i] = t
        reps = np.unique(rep)
        return reps, shift, np.searchsorted(reps, rep)

    vreps, vshift, vorbit = orbit_data(action.vperm)
    ereps, eshift, eorbit = orbit_data(action.eperm)
    # s(rep edge) = sigma . (source rep vertex); r(rep edge) = rho . (range rep).
    sigma, rho = vshift[graph.src], vshift[graph.rng]
    qvertices = [("orbit", graph.vertices[r]) for r in vreps]
    quotient = DirectedGraph(qvertices, [
        Edge(("orbit", graph.edges[r].id), qvertices[vorbit[graph.src[r]]],
             qvertices[vorbit[graph.rng[r]]]) for r in ereps])
    labeling = Labeling(quotient, G, G.table[G.inverse[sigma[ereps]], rho[ereps]])
    skew = skew_product(quotient, G, labeling)

    # Vertex t . rep goes to (orbit, t^-1); edge t . rep to (orbit,
    # rho^-1 t^-1), rho the range shift of the representative edge.
    vmap = vorbit * m + G.inverse[vshift]
    emap = eorbit * m + G.table[G.inverse[rho[ereps[eorbit]]], G.inverse[eshift]]
    iso = GraphIso(graph, skew, vmap, emap)

    # The isomorphism must carry the action to right translation: iso t.x =
    # t.(iso x) for every t and cell x, as index tables.
    translated = translation_action(skew, G)
    for kind, names, to, perm, moved in (
            ("vertex", graph.vertices, vmap, action.vperm, translated.vperm),
            ("edge", [e.id for e in graph.edges], emap, action.eperm, translated.eperm)):
        bad = np.argwhere(to[perm] != moved[:, to])
        if bad.size:
            raise GraphError(f"{kind} equivariance fails at t={bad[0][0]}, "
                             f"{kind[0]}={names[bad[0][1]]!r}")
    return quotient, labeling, iso


def convention_iso(
    graph: DirectedGraph, G: FiniteGroup, labeling: Labeling, which: str = "group-first"
) -> tuple[DirectedGraph, GraphIso]:
    """Translate the skew product into one of the other standard conventions.

    'group-first'  : cells (t, v), (t, f) with s(t,f) = (t, s(f)),
                     r(t,f) = (t c(f), r(f)).
    'range-twisted': cells (v, t), (f, t) with s(f,t) = (s(f), t),
                     r(f,t) = (r(f), t c(f)).

    Either way the isomorphism onto our source-twisted skew product sends the
    vertex cell to (v, t^-1) and the edge cell to (f, c(f)^-1 t^-1).
    """
    skew, m = skew_product(graph, G, labeling), G.order
    if which == "group-first":
        mk_v = lambda v, t: (G.name(t), v)
        mk_e = lambda f, t: (G.name(t), f)
    elif which == "range-twisted":
        mk_v = lambda v, t: (v, G.name(t))
        mk_e = lambda f, t: (f, G.name(t))
    else:
        raise ValueError(f"unknown convention {which!r}")
    vertices = [mk_v(v, t) for v in graph.vertices for t in G]
    edges = []
    for i, e in enumerate(graph.edges):
        c = labeling.of(i)
        for t in G:
            edges.append(Edge(mk_e(e.id, t), mk_v(e.src, t), mk_v(e.rng, G.mul(t, c))))
    other = DirectedGraph(vertices, edges)
    # In either graph the cell (v, t) or (f, t) sits at v |G| + t or f |G| + t.
    vmap = (np.arange(graph.n_vertices)[:, None] * m + G.inverse).ravel()
    emap = (np.arange(graph.n_edges)[:, None] * m
            + G.table[G.inverse[labeling.by_edge][:, None], G.inverse]).ravel()
    return other, GraphIso(other, skew, vmap, emap)


def find_graph_isomorphism(a: DirectedGraph, b: DirectedGraph, cell_cap: int = 64):
    """Backtracking search for a graph isomorphism; None if there is none.

    Intended as a small-scale oracle; refuses graphs with more than
    ``cell_cap`` cells.
    """
    if a.n_vertices + a.n_edges > cell_cap or b.n_vertices + b.n_edges > cell_cap:
        raise GraphError(f"graph too large for isomorphism search (cap {cell_cap})")
    if a.n_vertices != b.n_vertices or a.n_edges != b.n_edges:
        return None

    def degrees(g):
        out = [[0, 0] for _ in range(g.n_vertices)]
        for e in range(g.n_edges):
            out[g.src[e]][0] += 1
            out[g.rng[e]][1] += 1
        return [tuple(d) for d in out]

    deg_a, deg_b = degrees(a), degrees(b)
    if sorted(deg_a) != sorted(deg_b):
        return None

    # Multi-digraph adjacency with multiplicities.
    def pair_counts(g):
        counts = {}
        for e in range(g.n_edges):
            key = (int(g.src[e]), int(g.rng[e]))
            counts[key] = counts.get(key, 0) + 1
        return counts

    pc_a, pc_b = pair_counts(a), pair_counts(b)
    assign = [-1] * a.n_vertices
    used = [False] * b.n_vertices

    def ok(i, j):
        if deg_a[i] != deg_b[j]:
            return False
        for k in range(i):
            if pc_a.get((i, k), 0) != pc_b.get((j, assign[k]), 0):
                return False
            if pc_a.get((k, i), 0) != pc_b.get((assign[k], j), 0):
                return False
        if pc_a.get((i, i), 0) != pc_b.get((j, j), 0):
            return False
        return True

    def rec(i):
        if i == a.n_vertices:
            return True
        for j in range(b.n_vertices):
            if not used[j] and ok(i, j):
                assign[i] = j
                used[j] = True
                if rec(i + 1):
                    return True
                assign[i] = -1
                used[j] = False
        return False

    if not rec(0):
        return None
    # Match edges greedily within (src, rng) classes.
    buckets: dict[tuple, list] = {}
    for f in range(b.n_edges):
        buckets.setdefault((int(b.src[f]), int(b.rng[f])), []).append(f)
    emap = []
    for e in range(a.n_edges):
        key = (assign[a.src[e]], assign[a.rng[e]])
        if not buckets.get(key):
            return None
        emap.append(buckets[key].pop())
    return GraphIso(a, b, assign, emap)
