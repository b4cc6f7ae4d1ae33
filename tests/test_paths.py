"""The path index tables of ``CKFamily`` and the recursions that read them.

Every path computation is a recursion on (first edge, tail): the path
degrees c(mu), gamma's path permutation, the transport along a graph
isomorphism and the lift into E x_c G.  These tests check the tables against
the path list, and the recursions against the dict walks of ``oracles.py``,
on non-abelian chains over S3 (where the order of a product shows) as well
as on random draws.  A planted reversed product c(tail) c(head) must fail.
"""
import numpy as np
import pytest
from oracles import (
    path_label_loop,
    path_lookup,
    path_permutation_loop,
    skew_lift_loop,
    symmetric_group_3,
    trivial_group,
)

from skewprod import duality, suite
from skewprod.graphalg import CKFamily, ck_representation, coaction
from skewprod.graphs import DirectedGraph, GraphError, skew_product
from skewprod.groups import Labeling, action_law_failure, cyclic_group

S3 = symmetric_group_3()


def noncommuting_chains(rng, count=6):
    """Chains of 3 to 5 edges, each with a branch into its sink so that a
    sink has paths of several lengths, labeled in S3 with at least one pair
    of labels that do not commute."""
    out = []
    while len(out) < count:
        k = int(rng.integers(3, 6))
        vertices = [f"v{i}" for i in range(k + 1)]
        edges = [(f"e{i}", vertices[i], vertices[i + 1]) for i in range(k)]
        edges.append(("b", vertices[0], vertices[k]))
        labels = rng.integers(S3.order, size=k + 1)
        if all(S3.mul(a, b) == S3.mul(b, a) for a in labels for b in labels):
            continue
        E = DirectedGraph(vertices, edges)
        out.append((E, S3, Labeling(E, S3, labels)))
    return out


def instances():
    rng = np.random.default_rng(31)
    return noncommuting_chains(rng) + [suite.random_graph_instance(rng) for _ in range(8)]


def test_tables_describe_the_path_list():
    for E, _, _ in instances():
        fam = ck_representation(E)
        n = fam.ambient_dim
        for i, p in enumerate(fam.paths):
            assert (fam.source[i], fam.sink[i], fam.length[i]) == (p.source, p.range, len(p))
            if p.edges:
                assert fam.tail[i] < i
                assert (fam.head[i],) + fam.paths[fam.tail[i]].edges == p.edges
                assert fam.prepend[fam.head[i], fam.tail[i]] == i
            else:
                assert fam.start[p.range] == i
        composable = E.rng[:, None] == fam.source[None, :]
        assert np.array_equal(fam.prepend >= 0, composable)
        assert np.array_equal(fam.pair(fam.pairs[:, 0], fam.pairs[:, 1]), np.arange(fam.dim))
        assert np.all(fam.sink[fam.pairs[:, 0]] == fam.sink[fam.pairs[:, 1]])
        assert sorted(np.concatenate(fam.levels).tolist()) == np.flatnonzero(fam.length).tolist()
        assert fam.dim == sum(b * b for b in fam.sink_block_sizes().values())
        assert len(fam.s) == E.n_edges and fam.p[0].shape == (n, n)


def test_path_degrees_equal_the_loop_product():
    for E, G, lab in instances():
        fam = ck_representation(E)
        want = [path_label_loop(lab, p.edges) for p in fam.paths]
        assert fam.path_degrees(G, lab.by_edge).tolist() == want


def test_skew_lift_and_path_permutation_equal_the_dict_walks():
    for E, G, lab in instances():
        parts = duality.DualityParts(E, G, lab)
        fam, fam_skew = parts.fam, parts.fam_skew
        lift = duality._skew_lift(fam, fam_skew, G, fam.path_degrees(G, lab.by_edge))
        walk = skew_lift_loop(fam, fam_skew, G, lab)
        assert {(i, a): lift[i, a] for i in range(fam.ambient_dim) for a in G} == walk
        gact = parts.gact
        assert np.array_equal(fam_skew.map_paths(gact.eperm, gact.vperm),
                              path_permutation_loop(fam_skew, gact))


def test_map_paths_into_another_family():
    # The relabeling of E as the skew product by the trivial group sends f to
    # (f, e) and v to (v, e).
    for E, _, _ in instances():
        G1 = trivial_group()
        skew = skew_product(E, G1, Labeling(E, G1, [0] * E.n_edges))
        fam, fam_skew = ck_representation(E), ck_representation(skew)
        image = fam.map_paths(np.arange(E.n_edges), np.arange(E.n_vertices), target=fam_skew)
        at = path_lookup(fam_skew)
        assert image.tolist() == [at[(p.base, p.edges)] for p in fam.paths]


def test_map_paths_rejects_a_map_off_the_sink_paths(chain2):
    fam = ck_representation(chain2)
    # u -> v -> w sent to w -> ... is no graph morphism: w is no source of e1.
    with pytest.raises(GraphError, match="does not map to a path into a sink"):
        fam.map_paths([0, 1], [2, 1, 0])
    with pytest.raises(GraphError, match="does not map to a path into a sink"):
        fam.map_paths([[0, 1], [1, 0]], [[0, 1, 2], [0, 1, 2]])


def _reversed_degrees(fam):
    """c(tail) c(head) in place of c(head) c(tail): the product taken backwards."""
    def degrees(G, by_edge):
        deg = np.full(fam.ambient_dim, G.identity_index, dtype=np.int64)
        for level in fam.levels:
            deg[level] = G.table[deg[fam.tail[level]], by_edge[fam.head[level]]]
        return deg
    return degrees


def test_reversed_product_fails_on_s3_only(monkeypatch):
    rng = np.random.default_rng(32)
    for E, G, lab in noncommuting_chains(rng):
        fam = ck_representation(E)
        coaction(fam, G, lab)
        monkeypatch.setattr(fam, "path_degrees", _reversed_degrees(fam))
        assert fam.path_degrees(G, lab.by_edge).tolist() != [
            path_label_loop(lab, p.edges) for p in fam.paths]
        with pytest.raises(ValueError, match="off its labeled degree"):
            coaction(fam, G, lab)
    # Over an abelian group the two orders agree, and the plant goes unseen.
    E = noncommuting_chains(rng, 1)[0][0]
    z3 = cyclic_group(3)
    lab = Labeling(E, z3, rng.integers(3, size=E.n_edges))
    fam = ck_representation(E)
    monkeypatch.setattr(fam, "path_degrees", _reversed_degrees(fam))
    coaction(fam, z3, lab)


def test_reversed_product_fails_eqvt_iso(monkeypatch):
    E, G, lab = noncommuting_chains(np.random.default_rng(33), 1)[0]
    assert duality.certify_eqvt_iso(E, G, lab).passed
    monkeypatch.setattr(CKFamily, "path_degrees",
                        lambda fam, G, by_edge: _reversed_degrees(fam)(G, by_edge))
    with pytest.raises(ValueError, match="off its labeled degree"):
        duality.certify_eqvt_iso(E, G, lab)


def test_certificates_pass_on_s3_chains():
    for E, G, lab in noncommuting_chains(np.random.default_rng(34), 2):
        parts = duality.DualityParts(E, G, lab)
        perm = parts.fam_skew.map_paths(parts.gact.eperm, parts.gact.vperm)
        assert action_law_failure(G, perm) is None
        assert duality.certify_eqvt_iso(E, G, lab, parts=parts).passed
        assert duality.certify_direct_iso(E, G, lab, compute_signatures=False,
                                          parts=parts).passed
        assert duality.certify_regular_diagram(E, G, lab, parts=parts).passed
