"""Finite groups given by Cayley tables, their regular representations, and
group-valued edge labelings.

The regular representation is one object, :func:`regular_rows`: lam, rho and
chi of every element as stacked rows vec(X), written from the table, the
form in which the crossed products use them as the group leg of
A (x) M_|G|.

Group elements are indices into an ordered element list; human-readable names
are kept only for I/O.  All group-law checks are exhaustive, which is why the
order is capped at ``MAX_GROUP_ORDER``.
"""
from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import matalg

MAX_GROUP_ORDER = 16


class GroupError(ValueError):
    """Base class for group-validation failures."""


class NotLatinSquare(GroupError):
    pass


class NoIdentity(GroupError):
    pass


class NoInverse(GroupError):
    pass


class NotAssociative(GroupError):
    pass


class MissingEdge(ValueError):
    """A labeling left some edge unassigned."""


class FiniteGroup:
    """A finite group: ordered element names plus a validated Cayley table.

    ``table[i, j]`` is the index of the product (element i) * (element j),
    and ``inverse[i]`` the index of the inverse of element i.
    Instances are immutable; construct through :func:`make_group` (or the
    named constructors) so the group laws are checked exhaustively.
    """

    def __init__(self, elements: Sequence[str], table: np.ndarray, identity_index: int):
        self.elements = tuple(elements)
        self.table = np.asarray(table, dtype=np.int64)
        self.table.setflags(write=False)
        self.identity_index = int(identity_index)
        self.inverse = np.argmax(self.table == self.identity_index, axis=1)
        self.inverse.setflags(write=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(range(len(self.elements)))

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def name(self, i: int) -> str:
        return self.elements[i]

    def index(self, name: str) -> int:
        return self.elements.index(name)

    def __repr__(self) -> str:
        return f"FiniteGroup({list(self.elements)!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and self.elements == other.elements
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.elements, self.table.tobytes()))

    def to_json(self) -> str:
        return json.dumps({"elements": list(self.elements), "table": self.table.tolist()})

    @staticmethod
    def from_json(text: str) -> "FiniteGroup":
        data = json.loads(text)
        return make_group(data["table"], elements=data.get("elements"))


def make_group(table, elements: Sequence[str] | None = None) -> FiniteGroup:
    """Validate a multiplication table and return the group it defines.

    Checks, exhaustively: the table is a Latin square over valid indices, a
    two-sided identity exists, every element has a two-sided inverse, and
    multiplication is associative.  Error messages name the witnessing
    indices.
    """
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise GroupError(f"table must be square, got shape {t.shape}")
    n = t.shape[0]
    if n == 0:
        raise GroupError("empty table")
    if n > MAX_GROUP_ORDER:
        raise GroupError(f"group order {n} exceeds cap {MAX_GROUP_ORDER}")
    if t.min() < 0 or t.max() >= n:
        raise GroupError("table entries must be element indices in range")

    full = frozenset(range(n))
    for i in range(n):
        if frozenset(t[i]) != full:
            raise NotLatinSquare(f"row {i} is not a permutation: {t[i].tolist()}")
        if frozenset(t[:, i]) != full:
            raise NotLatinSquare(f"column {i} is not a permutation: {t[:, i].tolist()}")

    identity = None
    for i in range(n):
        if all(t[i, j] == j and t[j, i] == j for j in range(n)):
            identity = i
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")

    for i in range(n):
        left = np.nonzero(t[:, i] == identity)[0]
        right = np.nonzero(t[i] == identity)[0]
        if len(left) == 0 or len(right) == 0 or left[0] != right[0]:
            raise NoInverse(f"element {i} has no two-sided inverse")

    # Exhaustive associativity; vectorized over the third index.
    for i in range(n):
        for j in range(n):
            if not np.array_equal(t[t[i, j]], t[i, t[j]]):
                k = int(np.nonzero(t[t[i, j]] != t[i, t[j]])[0][0])
                raise NotAssociative(f"({i}*{j})*{k} != {i}*({j}*{k})")

    if elements is None:
        elements = [f"g{i}" for i in range(n)]
        elements[identity] = "e"
    elif len(elements) != n:
        raise GroupError("element name list does not match table size")
    dups = [a for i, a in enumerate(elements) if a in elements[:i]]
    if dups:
        raise GroupError(f"duplicate element name {dups[0]!r}")
    return FiniteGroup(elements, t, identity)


def cyclic_group(n: int) -> FiniteGroup:
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    names = ["e"] + [f"g{'^' + str(k) if k > 1 else ''}" for k in range(1, n)]
    return make_group(table, elements=names)


def klein_four_group() -> FiniteGroup:
    # Z2 x Z2 with elements e, a, b, ab.
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return make_group(table, elements=["e", "a", "b", "ab"])


def regular_rows(G: FiniteGroup) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """lam, rho and chi as three (|G|, |G|^2) stacks of rows, row s holding
    vec(lam_s), vec(rho_s) or vec(chi_s): lam_s e_t = e_(st), rho_s e_t =
    e_(t s^-1) and chi_r the projection onto e_r, complex 0/1 entries.

    The right-regular convention is chosen so that rho_t chi_r = chi_(r t^-1) rho_t
    holds on the nose.  Groups are immutable: the rows are built once and
    cached on G, and callers must not mutate them.
    """
    if not hasattr(G, "_regular_rows"):
        m = G.order
        s, t = np.divmod(np.arange(m * m), m)
        ones = np.ones(m * m, dtype=np.complex128)
        lam = matalg._csr(ones, s, G.table[s, t] * m + t, (m, m * m))
        rho = matalg._csr(ones, s, G.table[t, G.inverse[s]] * m + t, (m, m * m))
        chi = matalg._csr(ones[:m], t[:m], t[:m] * (m + 1), (m, m * m))  # vec(E_rr)
        G._regular_rows = lam, rho, chi
    return G._regular_rows


def action_law_failure(G: FiniteGroup, perms) -> tuple[str, tuple] | None:
    """The first rule that the table perms[t, i] = t.i breaks as a left
    action of G by permutations, with its witness, or None: ("identity", ())
    when perms[e] moves a point, ("bijection", (t,)) for the first row that
    is not a permutation, and ("law", (s, t)) for the first pair with
    perms[s][perms[t]] != perms[st], all pairs at once."""
    perms = np.asarray(perms)
    ident = np.arange(perms.shape[1])
    if not np.array_equal(perms[G.identity_index], ident):
        return "identity", ()
    bad = np.any(np.sort(perms, axis=1) != ident, axis=1)
    if bad.any():
        return "bijection", (int(np.argmax(bad)),)
    bad = np.any(perms[:, perms] != perms[G.table], axis=2)
    if bad.any():
        return "law", tuple(int(x) for x in np.argwhere(bad)[0])
    return None


class Labeling:
    """An assignment of a group element to every edge of a directed graph."""

    def __init__(self, graph, group: FiniteGroup, by_edge: Sequence[int]):
        self.graph = graph
        self.group = group
        self.by_edge = np.asarray(by_edge, dtype=np.int64)
        self.by_edge.setflags(write=False)
        if len(self.by_edge) != len(graph.edges):
            raise MissingEdge(
                f"labeling covers {len(self.by_edge)} of {len(graph.edges)} edges"
            )

    def of(self, edge_index: int) -> int:
        return int(self.by_edge[edge_index])

    def __repr__(self) -> str:
        vals = [self.group.name(v) for v in self.by_edge]
        return f"Labeling({vals!r})"


def make_labeling(graph, assignment: Mapping, G: FiniteGroup) -> Labeling:
    """Build a labeling from an edge-id -> group-element mapping.

    Values may be element names or indices.  Every edge must be assigned;
    otherwise :class:`MissingEdge` is raised naming the first missing edge.
    """
    by_edge = []
    for edge in graph.edges:
        if edge.id not in assignment:
            raise MissingEdge(f"edge {edge.id!r} has no label")
        v = assignment[edge.id]
        if isinstance(v, str):
            if v not in G.elements:
                raise GroupError(
                    f"label {v!r} on edge {edge.id!r} is not an element of the group"
                )
            by_edge.append(G.index(v))
        else:
            by_edge.append(int(v))
    lab = Labeling(graph, G, by_edge)
    if lab.by_edge.size and (lab.by_edge.min() < 0 or lab.by_edge.max() >= G.order):
        raise GroupError("label out of range")
    return lab
