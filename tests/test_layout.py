"""Cell (x, t) of a skew or semidirect product sits at index x |G| + t.

The index-built skew product, semidirect product, translation action and
subgroupoids are compared with their name-built references (``oracles.py``)
on random draws, S3 among them; each index is checked against the name it
carries; a left/right slip planted in the skew multiplication shows why the
non-abelian draws are there; and the CLI prints the reference groupoids.
The index-built transitive, pair, units-only and disjoint-union groupoids
are compared with their name-built references, and ``random_cocycle`` with
its search-built reference: equal values, and the rng left in the same
state, also on groupoids whose units and arrows are shuffled."""
import inspect
import json
import textwrap

import numpy as np
import pytest
from oracles import (
    disjoint_union_by_names,
    pair_groupoid_by_names,
    random_cocycle_by_search,
    semidirect_product_by_names,
    skew_product_by_names,
    subgroupoid_by_names,
    symmetric_group_3,
    transitive_groupoid_by_names,
    translation_action_by_names,
    trivial_group,
    units_only_groupoid_by_names,
)

from skewprod import cli, fixture_path, graphs, groupoids, groups, suite
from skewprod.groupoids import Cocycle, CocycleError, GroupoidError

FIELDS = ("units", "arrows", "r", "s", "mult", "inv", "unit_arrow")


S3 = symmetric_group_3()
DRAW_GROUPS = suite.suite_groups() + [S3, S3]


def draws(n=36, seed=4141):
    """(Q, G, c) on small random groupoids, a third of them over S3."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        G = DRAW_GROUPS[k % len(DRAW_GROUPS)]
        Q = suite.random_groupoid(rng, max_units=4, max_arrows=12)
        out.append((Q, G, suite.random_cocycle(rng, Q, G)))
    return out


DRAWS = draws()


def same_tables(a, b) -> bool:
    return all(np.array_equal(np.asarray(getattr(a, f), dtype=object),
                              np.asarray(getattr(b, f), dtype=object)) for f in FIELDS)


def same_groupoid(a, b) -> bool:
    """Equal tables, and names equal down to the Python type of each part."""
    def types(names):
        return [tuple(map(type, x)) if isinstance(x, tuple) else type(x) for x in names]

    return (same_tables(a, b) and types(a.units) == types(b.units)
            and types(a.arrows) == types(b.arrows) and a.to_json() == b.to_json())


def h_arrows_by_names(Q, G, c, skew):
    """The arrows (x, t) of the skew product with t = c(y) for some y into s(x)."""
    keep = []
    for k, (x_name, t_name) in enumerate(skew.arrows):
        x = Q.arrow_index(x_name)
        if any(c.of(y) == G.index(t_name) for y in np.nonzero(Q.r == Q.s[x])[0]):
            keep.append(k)
    return keep


def test_draws_include_non_abelian_cocycles():
    s3 = [c for _, G, c in DRAWS if G is S3]
    assert len(DRAWS) >= 30 and len(s3) >= 10
    assert sum(np.any(c.values != S3.identity_index) for c in s3) >= 5


@pytest.mark.parametrize("k", range(len(DRAWS)))
def test_index_built_products_equal_the_name_built_ones(k):
    Q, G, c = DRAWS[k]
    skew = groupoids.skew_product_groupoid(Q, G, c)
    assert same_tables(skew, skew_product_by_names(Q, G, c))
    trans = groupoids.translation_groupoid_action(skew, G)
    assert np.array_equal(trans.arrow_perm, translation_action_by_names(skew, G).arrow_perm)
    assert same_tables(groupoids.semidirect_product(skew, G, trans),
                       semidirect_product_by_names(skew, G, trans))
    keep = h_arrows_by_names(Q, G, c, skew)
    assert same_tables(groupoids.subgroupoid_on_arrows(skew, keep),
                       subgroupoid_by_names(skew, keep))
    kernel = np.nonzero(c.values == G.identity_index)[0]
    assert same_tables(groupoids.subgroupoid_on_arrows(Q, kernel), subgroupoid_by_names(Q, kernel))


@pytest.mark.parametrize("k", range(0, len(DRAWS), 3))
def test_each_index_carries_its_name(k):
    Q, G, c = DRAWS[k]
    m, e = G.order, G.name(G.identity_index)
    skew = groupoids.skew_product_groupoid(Q, G, c)
    semi = groupoids.semidirect_product(skew, G, groupoids.translation_groupoid_action(skew, G))
    for j, name in enumerate(skew.arrows):
        assert name == (Q.arrows[j // m], G.name(j % m))
    for j, name in enumerate(skew.units):
        assert name == (Q.units[j // m], G.name(j % m))
    for j, name in enumerate(semi.arrows):
        assert name == (skew.arrows[j // m], G.name(j % m))
    assert semi.units == tuple((u, e) for u in skew.units)


def test_graph_skew_product_layout():
    rng = np.random.default_rng(77)
    for G in DRAW_GROUPS:
        E = suite.random_acyclic_graph(rng)
        lab = groups.Labeling(E, G, rng.integers(0, G.order, E.n_edges))
        skew, m = graphs.skew_product(E, G, lab), G.order
        for k, v in enumerate(skew.vertices):
            assert v == (E.vertices[k // m], G.name(k % m))
        f, t = np.divmod(np.arange(skew.n_edges), m)
        assert [e.id for e in skew.edges] == [(E.edges[i].id, G.name(j)) for i, j in zip(f, t)]
        assert np.array_equal(skew.src, E.src[f] * m + G.table[lab.by_edge[f], t])
        assert np.array_equal(skew.rng, E.rng[f] * m + t)


def slipped_skew_product():
    """skew_product_groupoid with t c(y) for c(y) t in its multiplication."""
    source = textwrap.dedent(inspect.getsource(groupoids.skew_product_groupoid))
    right, slip = "ct[None, None, :, :]", "G.table[:, c.values].T[None, None, :, :]"
    assert source.count(right) == 1
    namespace = dict(vars(groupoids))
    exec(source.replace(right, slip), namespace)
    return namespace["skew_product_groupoid"]


def test_planted_left_right_slip_is_caught_only_on_s3():
    slipped = slipped_skew_product()
    caught = {"abelian": 0, "S3": 0}
    for Q, G, c in DRAWS:
        fresh = Cocycle(Q, G, c.values)  # skips the skew product cached on c
        try:
            agrees = same_tables(slipped(Q, G, fresh), skew_product_by_names(Q, G, c))
        except GroupoidError:
            agrees = False
        if not agrees:
            caught["S3" if G is S3 else "abelian"] += 1
        elif G is S3:
            # S3 has trivial centre, so only a cocycle with values e alone escapes.
            assert np.all(c.values == S3.identity_index)
    assert caught["abelian"] == 0 and caught["S3"] >= 5


@pytest.mark.parametrize("value", [-1, 2])
def test_cocycle_refuses_values_outside_the_group(value):
    Q = groupoids.units_only_groupoid(1)
    with pytest.raises(CocycleError, match="group indices"):
        Cocycle(Q, groups.cyclic_group(2), [value])
    assert issubclass(CocycleError, ValueError)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_refuses_out_of_range_cocycle_with_exit_2(capsys, tmp_path):
    data = json.loads(fixture_path("pair-groupoid").read_text())
    data["cocycle"]["x12"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in (("gpd", "skew"), ("verify", "gpd-iso")):
        code, out, err = run_cli(capsys, *command, "-q", str(bad),
                                 "-G", str(fixture_path("z2")), "--json")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "cocycle values must be group indices" in err


def test_cli_prints_the_reference_groupoids(capsys):
    Q, c = groupoids.groupoid_from_json(fixture_path("pair-groupoid").read_text())
    G = groups.FiniteGroup.from_json(fixture_path("z2").read_text())
    skew = skew_product_by_names(Q, G, groupoids.cocycle_from_names(Q, G, c))
    semi = semidirect_product_by_names(skew, G, translation_action_by_names(skew, G))
    for sub, key, reference in (("skew", "skew_product", skew),
                                ("semidirect", "semidirect", semi)):
        code, out, _ = run_cli(capsys, "gpd", sub, "-q", str(fixture_path("pair-groupoid")),
                               "-G", str(fixture_path("z2")), "--json")
        assert code == 0
        assert json.loads(out)[key] == json.loads(reference.to_json())


ISOTROPY = (trivial_group(), groups.cyclic_group(2), groups.cyclic_group(3),
            groups.klein_four_group(), S3)


@pytest.mark.parametrize("H", ISOTROPY, ids=["Z1", "Z2", "Z3", "Klein", "S3"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_transitive_groupoid_equals_the_name_built_one(n, H):
    for tag in ("", "c1"):
        assert same_groupoid(groupoids.transitive_groupoid(n, H, tag=tag),
                             transitive_groupoid_by_names(n, H, tag=tag))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_and_units_only_groupoids_equal_the_name_built_ones(n):
    assert same_groupoid(groupoids.pair_groupoid(n), pair_groupoid_by_names(n))
    assert same_groupoid(groupoids.units_only_groupoid(n), units_only_groupoid_by_names(n))


def test_disjoint_unions_equal_the_name_built_ones():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        parts = [suite.random_groupoid(rng, max_units=4, max_arrows=12)
                 for _ in range(int(rng.integers(1, 4)))]
        assert same_groupoid(groupoids.disjoint_union(parts), disjoint_union_by_names(parts))


def shuffled_groupoid(Q, rng):
    """Q with its units and arrows listed in a random order."""
    pu, pa = rng.permutation(Q.n_units), rng.permutation(Q.n_arrows)
    to_u, to_a = np.argsort(pu), np.argsort(pa)
    mult = Q.mult[np.ix_(pa, pa)]
    return groupoids.FiniteGroupoid(
        [Q.units[u] for u in pu], [Q.arrows[x] for x in pa], to_u[Q.r[pa]], to_u[Q.s[pa]],
        np.where(mult >= 0, to_a[mult], -1), to_a[Q.inv[pa]])


def assert_same_cocycle_draw(seed, Q, G):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(suite.random_cocycle(fast, Q, G).values,
                          random_cocycle_by_search(slow, Q, G).values)
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("G", [groups.cyclic_group(2), groups.cyclic_group(3), S3,
                               groups.klein_four_group()], ids=["Z2", "Z3", "S3", "Klein"])
def test_random_cocycle_equals_its_search_reference(G):
    rng = np.random.default_rng(31)
    for seed in range(750):
        Q = suite.random_groupoid(np.random.default_rng(seed))
        assert_same_cocycle_draw(seed, Q, G)
        if seed % 5 == 0:
            assert_same_cocycle_draw(seed, shuffled_groupoid(Q, rng), G)


def test_random_cocycle_equals_its_search_reference_on_products():
    rng = np.random.default_rng(32)
    for seed in range(200):
        G, target = DRAW_GROUPS[seed % 4], DRAW_GROUPS[(seed // 4) % len(DRAW_GROUPS)]
        Q = suite.random_groupoid(rng, max_units=3, max_arrows=8)
        skew = groupoids.skew_product_groupoid(Q, G, suite.random_cocycle(rng, Q, G))
        semi = groupoids.semidirect_product(
            skew, G, groupoids.translation_groupoid_action(skew, G))
        for P in (skew, semi):
            assert_same_cocycle_draw(seed, P, target)
