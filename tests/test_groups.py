import numpy as np
import pytest
from oracles import constant_labeling, regular_matrices, symmetric_group_3, trivial_group

from skewprod import groups, matalg, suite
from skewprod.graphalg import ck_representation
from skewprod.groups import (
    GroupError,
    MissingEdge,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    action_law_failure,
    cyclic_group,
    klein_four_group,
    make_group,
    make_labeling,
    regular_rows,
)


def test_z2_from_table():
    G = make_group([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.identity_index == 0
    assert G.inv(1) == 1


def test_not_latin_square_names_witness():
    with pytest.raises(NotLatinSquare) as err:
        make_group([[0, 1], [1, 1]])
    assert "1" in str(err.value)


def test_z3_cyclic():
    G = cyclic_group(3)
    assert G.order == 3
    assert G.mul(1, 2) == 0
    assert G.inv(1) == 2


def test_no_identity_rejected():
    # A Latin square whose only left identity is not a right identity.
    with pytest.raises(NoIdentity):
        make_group([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_non_associative_rejected():
    # Latin square with identity but not associative (order 5 loop).
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative):
        make_group(table)


def test_duplicate_element_names_rejected():
    with pytest.raises(GroupError, match="duplicate element name 'a'"):
        make_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]], elements=["e", "a", "a"])


def test_regular_rows_are_built_once_per_group():
    G = cyclic_group(3)
    first, second = regular_rows(G), regular_rows(G)
    assert all(a is b for a, b in zip(first, second))
    assert regular_rows(cyclic_group(3))[0] is not first[0]


@pytest.mark.parametrize("G", suite.suite_groups() + [symmetric_group_3(), cyclic_group(16)],
                         ids=lambda g: f"order{g.order}")
def test_regular_rows_are_the_vec_rows_of_the_regular_matrices(G):
    # Exactly the CSR of vec_rows of the matrix lists, indptr, indices and data.
    for rows, mats in zip(regular_rows(G), regular_matrices(G)):
        want = matalg.vec_rows(mats)
        assert rows.shape == want.shape
        for a, b in ((rows.indptr, want.indptr), (rows.indices, want.indices),
                     (rows.data, want.data)):
            assert np.array_equal(a, b)


def test_inverse_table():
    for G in suite.suite_groups() + [symmetric_group_3()]:
        assert G.inverse.tolist() == [G.inv(t) for t in G]
        assert np.all(G.table[np.arange(G.order), G.inverse] == G.identity_index)


def test_order_cap():
    n = groups.MAX_GROUP_ORDER + 1
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    with pytest.raises(GroupError):
        make_group(table)


def test_json_round_trip():
    G = klein_four_group()
    back = groups.FiniteGroup.from_json(G.to_json())
    assert back == G


ALL_GROUPS = [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group(),
              symmetric_group_3()]


def dense_regular(G):
    """lam, rho and chi of every element as dense arrays."""
    return [rows.toarray().reshape(G.order, G.order, G.order) for rows in regular_rows(G)]


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: f"order{g.order}")
def test_regular_representation_laws(G):
    lam, rho, chi = dense_regular(G)
    n = G.order
    assert np.array_equal(lam[G.identity_index], np.eye(n, dtype=np.int64))
    for s in G:
        for t in G:
            assert np.array_equal(lam[s] @ lam[t], lam[G.mul(s, t)])
            assert np.array_equal(rho[s] @ rho[t], rho[G.mul(s, t)])
            # lambda and rho commute elementwise.
            assert np.array_equal(lam[s] @ rho[t], rho[t] @ lam[s])
            # rho_t chi_r = chi_{r t^-1} rho_t.
            assert np.array_equal(rho[t] @ chi[s], chi[G.mul(s, G.inv(t))] @ rho[t])


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: f"order{g.order}")
def test_projections_resolve_identity(G):
    _, _, chi = dense_regular(G)
    total = sum(chi[r] for r in G)
    assert np.array_equal(total, np.eye(G.order, dtype=np.int64))
    for r in G:
        for r2 in G:
            prod = chi[r] @ chi[r2]
            assert np.all(prod == 0) if r != r2 else np.array_equal(prod, chi[r])


def test_z2_lambda_is_antidiagonal():
    # lam_s e_t = e_{st}, read off the Cayley table.
    G = cyclic_group(2)
    lam_g = dense_regular(G)[0][1]
    assert lam_g.tolist() == [[0, 1], [1, 0]]


def test_z2_chi_covariance_example():
    G = cyclic_group(2)
    _, rho, chi = dense_regular(G)
    assert np.array_equal(rho[1] @ chi[0], chi[1] @ rho[1])


class TestLabeling:
    def test_single_edge(self, e1, z2):
        lab = make_labeling(e1, {"f": "g"}, z2)
        assert lab.of(0) == 1

    def test_constant_identity(self, e1, z2):
        lab = constant_labeling(e1, z2)
        assert lab.of(0) == z2.identity_index

    def test_missing_edge(self, chain2, z2):
        with pytest.raises(MissingEdge):
            make_labeling(chain2, {"e1": "g"}, z2)

    def test_unknown_label(self, e1):
        with pytest.raises(GroupError):
            make_labeling(e1, {"f": "g"}, trivial_group())

    def test_path_product_order(self, chain2, z3):
        lab = make_labeling(chain2, {"e1": "g", "e2": "g^2"}, z3)
        fam = ck_representation(chain2)
        degrees = fam.path_degrees(z3, lab.by_edge)
        # The sink paths e2 and e1 e2: c(e2) = g^2, c(e1 e2) = c(e1) c(e2) = g g^2 = e.
        assert [p.edges for p in fam.paths if p.edges] == [(1,), (0, 1)]
        assert degrees[fam.length > 0].tolist() == [z3.index("g^2"), z3.identity_index]
        assert np.all(degrees[fam.length == 0] == z3.identity_index)


@pytest.mark.parametrize("table, want", [
    ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], None),
    ([[1, 0, 2], [0, 1, 2], [0, 1, 2]], ("identity", ())),
    ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], ("bijection", (1,))),
    ([[0, 1, 2], [1, 0, 2], [1, 0, 2]], ("law", (1, 1))),
])
def test_action_law_failure_names_the_first_rule_and_witness(table, want):
    # Z3 acting on three points: the rotation is an action; each other table
    # breaks one rule, and a table breaking several reports the first.
    assert action_law_failure(cyclic_group(3), np.array(table)) == want
