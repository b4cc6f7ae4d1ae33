import numpy as np
import pytest
from oracles import (
    constant_labeling,
    gross_tucker_maps_by_names,
    symmetric_group_3,
    trivial_group,
)

from skewprod import graphs, groups, suite
from skewprod.graphs import (
    ActionNotFree,
    DirectedGraph,
    GraphAction,
    GraphError,
    GraphIso,
    GraphHasCycle,
    NotSkewProduct,
    convention_iso,
    enumerate_sink_paths,
    find_graph_isomorphism,
    is_free,
    quotient_and_gross_tucker,
    skew_product,
    translation_action,
)

S3 = symmetric_group_3()


def test_sink_paths_e1(e1):
    paths = enumerate_sink_paths(e1)
    assert [(p.base, p.edges) for p in paths] == [(1, ()), (0, (0,))]


def test_sink_paths_chain(chain2):
    paths = enumerate_sink_paths(chain2)
    # {w, e2, e1 e2}
    assert [(p.base, p.edges) for p in paths] == [(2, ()), (1, (1,)), (0, (0, 1))]


def test_sink_paths_rejects_cycle():
    loop = DirectedGraph(["v"], [("f", "v", "v")])
    with pytest.raises(GraphHasCycle):
        enumerate_sink_paths(loop)


def test_skew_product_formulas(e1, z2, e1_z2_labeling):
    skew = skew_product(e1, z2, e1_z2_labeling)
    assert skew.n_vertices == 4 and skew.n_edges == 2
    by_id = {e.id: e for e in skew.edges}
    # r(f, t) = (r(f), t) and s(f, t) = (s(f), c(f) t).
    assert by_id[("f", "e")].src == ("v", "g")
    assert by_id[("f", "e")].rng == ("w", "e")
    assert by_id[("f", "g")].src == ("v", "e")
    assert by_id[("f", "g")].rng == ("w", "g")


def test_skew_product_trivial_group_isomorphic(e1):
    G1 = trivial_group()
    lab = constant_labeling(e1, G1)
    skew = skew_product(e1, G1, lab)
    assert find_graph_isomorphism(skew, e1) is not None


def test_skew_product_constant_labeling_disjoint_copies(e1, z2):
    lab = constant_labeling(e1, z2)
    skew = skew_product(e1, z2, lab)
    two_copies = DirectedGraph(
        ["v0", "w0", "v1", "w1"], [("f0", "v0", "w0"), ("f1", "v1", "w1")]
    )
    assert find_graph_isomorphism(skew, two_copies) is not None


def test_sinks_and_outdegrees_preserved(chain2, z3, rng):
    lab = groups.Labeling(chain2, z3, rng.integers(0, 3, 2))
    skew = skew_product(chain2, z3, lab)
    for i, (v, tname) in enumerate(skew.vertices):
        base = chain2.vertex_index(v)
        assert skew.is_sink(i) == chain2.is_sink(base)
        assert len(skew.out_edges(i)) == len(chain2.out_edges(base))


def test_translation_action_swaps(e1, z2, e1_z2_labeling):
    skew = skew_product(e1, z2, e1_z2_labeling)
    act = translation_action(skew, z2)
    vi = {v: i for i, v in enumerate(skew.vertices)}
    # g swaps (v, e) <-> (v, g) and (w, e) <-> (w, g).
    assert act.vertex(1, vi[("v", "e")]) == vi[("v", "g")]
    assert act.vertex(1, vi[("w", "g")]) == vi[("w", "e")]
    # The identity acts trivially.
    assert np.array_equal(act.vperm[0], np.arange(skew.n_vertices))
    assert is_free(act)


def test_translation_action_rejects_non_skew(e1, z2):
    with pytest.raises(NotSkewProduct):
        translation_action(e1, z2)


def test_is_free_trivial_action_false(e1, z2):
    n_v, n_e = e1.n_vertices, e1.n_edges
    act = graphs.GraphAction(
        e1, z2, np.tile(np.arange(n_v), (2, 1)), np.tile(np.arange(n_e), (2, 1))
    )
    assert not is_free(act)


def test_is_free_swap_action_true(z2):
    two = DirectedGraph(
        ["v0", "w0", "v1", "w1"], [("f0", "v0", "w0"), ("f1", "v1", "w1")]
    )
    vperm = np.array([[0, 1, 2, 3], [2, 3, 0, 1]])
    eperm = np.array([[0, 1], [1, 0]])
    act = graphs.GraphAction(two, z2, vperm, eperm)
    # Exhaustive fixed-point scan, independently of is_free.
    fixed = [
        (t, i)
        for t in z2
        if t != z2.identity_index
        for i in range(4)
        if vperm[t][i] == i
    ]
    assert not fixed
    assert is_free(act)


def test_gross_tucker_round_trip(e1, z2, e1_z2_labeling):
    skew = skew_product(e1, z2, e1_z2_labeling)
    act = translation_action(skew, z2)
    quotient, labeling, iso = quotient_and_gross_tucker(skew, act)
    assert find_graph_isomorphism(quotient, e1) is not None
    assert iso.b.n_vertices == skew.n_vertices  # recovered skew product
    # The GraphIso constructor verified the bijections intertwine s and r,
    # and quotient_and_gross_tucker verified action-equivariance cell by cell.


def test_gross_tucker_trivial_group(e1):
    G1 = trivial_group()
    lab = constant_labeling(e1, G1)
    skew = skew_product(e1, G1, lab)
    act = translation_action(skew, G1)
    quotient, labeling, iso = quotient_and_gross_tucker(skew, act)
    assert quotient.n_vertices == e1.n_vertices
    assert all(labeling.of(i) == G1.identity_index for i in range(quotient.n_edges))


def test_gross_tucker_two_copy_swap(z2):
    two = DirectedGraph(
        ["v0", "w0", "v1", "w1"], [("f0", "v0", "w0"), ("f1", "v1", "w1")]
    )
    act = graphs.GraphAction(
        two, z2, np.array([[0, 1, 2, 3], [2, 3, 0, 1]]), np.array([[0, 1], [1, 0]])
    )
    quotient, labeling, iso = quotient_and_gross_tucker(two, act)
    assert quotient.n_vertices == 2 and quotient.n_edges == 1


def test_gross_tucker_rejects_non_free(e1, z2):
    act = graphs.GraphAction(
        e1, z2, np.tile(np.arange(2), (2, 1)), np.tile(np.arange(1), (2, 1))
    )
    with pytest.raises(ActionNotFree):
        quotient_and_gross_tucker(e1, act)


def test_gross_tucker_names_the_fixed_cell(z2):
    # Element 1 swaps the two copies' vertices v but fixes both edges' range w.
    fork = DirectedGraph(["v0", "v1", "w"], [("f0", "v0", "w"), ("f1", "v1", "w")])
    act = graphs.GraphAction(fork, z2, [[0, 1, 2], [1, 0, 2]], [[0, 1], [1, 0]])
    assert not is_free(act)
    with pytest.raises(ActionNotFree, match="^element 1 fixes vertex 'w'$"):
        quotient_and_gross_tucker(fork, act)


def test_gross_tucker_rejects_a_non_equivariant_factorization(e1, z3, monkeypatch):
    # Right translation by t^-1 in place of t: the factorization no longer
    # carries the action to the translation action.
    skew = skew_product(e1, z3, groups.make_labeling(e1, {"f": "g"}, z3))
    act = translation_action(skew, z3)
    quotient_and_gross_tucker(skew, act)
    inv = [z3.inv(t) for t in z3]

    def inverse_translation(graph, G):
        true = translation_action(graph, G)
        return graphs.GraphAction(graph, G, true.vperm[inv], true.eperm[inv])

    monkeypatch.setattr(graphs, "translation_action", inverse_translation)
    with pytest.raises(graphs.GraphError, match="^vertex equivariance fails at t=1, v="):
        quotient_and_gross_tucker(skew, act)


TWO_COPIES = DirectedGraph(["v0", "w0", "v1", "w1"], [("f0", "v0", "w0"), ("f1", "v1", "w1")])


@pytest.mark.parametrize("vperm, eperm, group, message", [
    ([[2, 3, 0, 1], [0, 1, 2, 3]], [[1, 0], [0, 1]], 2,
     "identity element acts nontrivially on vertices"),
    ([[0, 1, 2, 3], [2, 2, 0, 1]], [[0, 1], [1, 0]], 2, "element 1 does not permute vertices"),
    ([[0, 1, 2, 3], [2, 3, 0, 1]], [[0, 1], [0, 0]], 2, "element 1 does not permute edges"),
    ([[0, 1, 2, 3], [2, 3, 0, 1], [2, 3, 0, 1]], [[0, 1], [1, 0], [1, 0]], 3,
     r"vertex action breaks at \(1,1\)"),
    ([[0, 1, 2, 3]] * 3, [[0, 1], [1, 0], [1, 0]], 3,
     r"edge action breaks at \(1,1\)"),
    ([[0, 1, 2, 3], [2, 3, 0, 1]], [[0, 1], [0, 1]], 2, "element 1 does not respect sources"),
    ([[0, 1, 2, 3], [0, 3, 2, 1]], [[0, 1], [0, 1]], 2, "element 1 does not respect ranges"),
])
def test_graph_action_names_its_first_broken_rule(vperm, eperm, group, message):
    G = groups.cyclic_group(group)
    with pytest.raises(graphs.GraphError, match=f"^{message}$"):
        graphs.GraphAction(TWO_COPIES, G, vperm, eperm)


def test_gross_tucker_random_round_trips(rng):
    for _ in range(5):
        n_v = int(rng.integers(2, 5))
        verts = [f"v{i}" for i in range(n_v)]
        edges = []
        for k in range(int(rng.integers(1, 5))):
            i = int(rng.integers(0, n_v - 1))
            j = int(rng.integers(i + 1, n_v))
            edges.append((f"e{k}", verts[i], verts[j]))
        E = graphs.DirectedGraph(verts, edges)
        G = groups.cyclic_group(int(rng.integers(2, 4)))
        lab = groups.Labeling(E, G, rng.integers(0, G.order, E.n_edges))
        skew = skew_product(E, G, lab)
        act = translation_action(skew, G)
        quotient, _, iso = quotient_and_gross_tucker(skew, act)
        assert find_graph_isomorphism(quotient, E) is not None


@pytest.mark.parametrize("which", ["group-first", "range-twisted"])
def test_convention_iso(e1, z2, e1_z2_labeling, which):
    other, iso = convention_iso(e1, z2, e1_z2_labeling, which)
    assert other.n_vertices == 4 and other.n_edges == 2
    # GraphIso verified s/r intertwining on all cells at construction.


def test_convention_iso_pullback_example(e1, z2, e1_z2_labeling):
    # Our cell (f, e) pulls back to (f, g): c(f)^-1 t^-1 = e forces t = g.
    other, iso = convention_iso(e1, z2, e1_z2_labeling, "range-twisted")
    assert iso.inverse().edge(("f", "e")) == ("f", "g")


def test_convention_iso_trivial_group(e1):
    G1 = trivial_group()
    lab = constant_labeling(e1, G1)
    other, iso = convention_iso(e1, G1, lab, "range-twisted")
    assert iso.vertex(("v", "e")) == ("v", "e")


def test_convention_iso_random_instances(rng):
    for _ in range(3):
        n_v = int(rng.integers(2, 4))
        verts = [f"v{i}" for i in range(n_v)]
        edges = []
        for k in range(int(rng.integers(1, 4))):
            i = int(rng.integers(0, n_v - 1))
            j = int(rng.integers(i + 1, n_v))
            edges.append((f"e{k}", verts[i], verts[j]))
        E = graphs.DirectedGraph(verts, edges)
        G = groups.cyclic_group(3)
        lab = groups.Labeling(E, G, rng.integers(0, 3, E.n_edges))
        for which in ("group-first", "range-twisted"):
            convention_iso(E, G, lab, which)  # construction verifies the iso


def test_graph_json_round_trip(e1):
    back = DirectedGraph.from_json(e1.to_json())
    assert back.vertices == e1.vertices
    assert back.edges == e1.edges


def test_iso_search_cap():
    big = DirectedGraph([f"v{i}" for i in range(40)], [])
    with pytest.raises(graphs.GraphError):
        find_graph_isomorphism(big, big, cell_cap=30)


def shuffled(F, action, rng):
    """F with its vertices and edges listed in a random order, and the action
    carried along."""
    pv, pe = rng.permutation(F.n_vertices), rng.permutation(F.n_edges)
    to_v, to_e = np.argsort(pv), np.argsort(pe)
    F2 = DirectedGraph([F.vertices[v] for v in pv], [F.edges[e] for e in pe])
    return F2, GraphAction(F2, action.group, to_v[action.vperm[:, pv]],
                           to_e[action.eperm[:, pe]])


def free_actions(rng):
    """400 suite free actions, then 100 translation actions of S3."""
    for _ in range(400):
        yield suite.random_free_action_instance(rng)
    for _ in range(100):
        E, G, lab = suite.random_graph_instance(rng, dim_budget=360, groups=[S3])
        F = skew_product(E, G, lab)
        yield F, translation_action(F, G)


def test_gross_tucker_maps_equal_the_name_built_ones():
    rng = np.random.default_rng(404)
    for F, action in free_actions(rng):
        for graph, act in ((F, action), shuffled(F, action, rng)):
            _, _, iso = quotient_and_gross_tucker(graph, act)
            assert (iso.vertex_map, iso.edge_map) == gross_tucker_maps_by_names(graph, act)


def e1_z2_iso(e1, z2, e1_z2_labeling):
    other, iso = convention_iso(e1, z2, e1_z2_labeling, "range-twisted")
    return other, iso.b, iso.vmap, iso.emap


def test_graph_iso_refuses_a_vertex_map_that_is_not_a_bijection(e1, z2, e1_z2_labeling):
    a, b, vmap, emap = e1_z2_iso(e1, z2, e1_z2_labeling)
    for bad in (np.r_[vmap[:-1], vmap[0]], vmap[:-1], np.r_[vmap[:-1], b.n_vertices]):
        with pytest.raises(GraphError, match="vertex map is not a bijection"):
            GraphIso(a, b, bad, emap)
    with pytest.raises(GraphError, match="edge map is not a bijection"):
        GraphIso(a, b, vmap, np.zeros_like(emap))


@pytest.mark.parametrize("ends", [("u", "w", "v", "w"), ("u", "v", "u", "w")],
                         ids=["sources", "ranges"])
def test_graph_iso_refuses_an_edge_map_that_breaks_intertwining(ends):
    # Swapping the two edges keeps one end of each and moves the other.
    g = DirectedGraph(["u", "v", "w"], [("f", *ends[:2]), ("h", *ends[2:])])
    GraphIso(g, g, [0, 1, 2], [0, 1])
    with pytest.raises(GraphError, match="edge 'f' does not intertwine s and r"):
        GraphIso(g, g, [0, 1, 2], [1, 0])


def test_graph_iso_inverse_twice_is_the_iso(e1, z2, e1_z2_labeling):
    rng = np.random.default_rng(5)
    for graph, G, lab in [(e1, z2, e1_z2_labeling)] + [
            suite.random_graph_instance(rng, groups=groups_) for groups_ in [None, [S3]] * 5]:
        for which in ("group-first", "range-twisted"):
            _, iso = convention_iso(graph, G, lab, which)
            back = iso.inverse().inverse()
            assert back.a is iso.a and back.b is iso.b
            assert np.array_equal(back.vmap, iso.vmap) and np.array_equal(back.emap, iso.emap)
            assert iso.inverse().vertex_map == {w: v for v, w in iso.vertex_map.items()}
