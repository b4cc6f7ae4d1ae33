"""Finite groupoids, their convolution *-algebras, and the skew-product and
semidirect-product constructions with their duality certificates.

A finite groupoid is stored as an arrow list (unit arrows included) with
range/source maps into the unit space, a partial multiplication table, and an
inverse map; all axioms are validated exhaustively at construction.  The
convolution algebra

    (f g)(x) = sum over r(y) = r(x) of f(y) g(y^-1 x)        f*(x) = conj f(x^-1)

is represented on the arrow space by pi(f) delta_z = sum f(y) delta_{y z},
which is faithful for finite groupoids (the basis {pi(delta_y)} is orthogonal
of cardinality |arrows|).

A group-valued cocycle grades the algebra by C_s = {f : supp f in c^-1(s)};
the skew product Q x_c G has

    (x, c(y) s)(y, s) = (x y, s)        (x, s)^-1 = (x^-1, c(x) s)

and right translation s.(x, t) = (x, t s^-1) acts on it.  The semidirect
product R x| G of an action twists multiplication by (x,s)(y,t) = (x (s.y), st).
"""
from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from . import matalg
from .crossed import (
    ActionCrossedProduct,
    AlgebraAction,
    CoactionCrossedProduct,
    GradedSpan,
    coaction_check,
)
from .duality import IsomorphismCertificate
from .groups import FiniteGroup, action_law_failure
from .matalg import AlgebraSpan, Check, Report, frobenius


class GroupoidError(ValueError):
    pass


class BadUnits(GroupoidError):
    pass


class BadInverse(GroupoidError):
    pass


class NotAssociativeGroupoid(GroupoidError):
    pass


class NotAutomorphism(GroupoidError):
    pass


class CocycleError(GroupoidError):
    pass


class FormulaMismatch(GroupoidError):
    pass


def _over_fibres(keys, fibre_of, n_fibres: int):
    """(p, i) for every position p of ``keys`` and every i with
    fibre_of[i] = keys[p]: the positions repeated once per member of their
    fibre, and the members in order."""
    by_fibre = np.argsort(fibre_of, kind="stable")
    sizes = np.bincount(fibre_of, minlength=n_fibres)
    reps = sizes[keys]
    ends = np.cumsum(reps)
    offset = np.repeat((np.cumsum(sizes) - sizes)[keys] - ends + reps, reps)
    return np.repeat(np.arange(len(keys)), reps), by_fibre[offset + np.arange(len(offset))]


def random_functions(rng: np.random.Generator, count: int, *sizes: int) -> list[np.ndarray]:
    """``count`` draws of one random complex function per size, each drawn as
    rng.standard_normal(size) + 1j * rng.standard_normal(size) in turn: one
    (count, size) stack per size, from the stream a loop of draws would use."""
    z = np.split(rng.standard_normal((count, 2 * sum(sizes))),
                 np.cumsum(np.repeat(sizes, 2))[:-1], axis=1)
    return [re + 1j * im for re, im in zip(z[::2], z[1::2])]


def _left_action_rules(mult, r, s, unit_arrow, table, anchor, other) -> dict[str, bool]:
    """Whether a partial left action of a groupoid keeps each of its rules.

    The groupoid has multiplication ``mult``, range ``r``, source ``s`` and
    unit arrows ``unit_arrow``; ``table[h, z]`` is h . z, -1 where undefined.
    The rules: h . z is defined exactly when s(h) = anchor(z) (domain); it
    has anchor r(h) and the same ``other`` as z (moment); the unit arrow at
    anchor(z) fixes z (unit); and (h1 h2) . z = h1 . (h2 . z) (associativity).
    A groupoid's multiplication is its left action on its own arrows, with
    anchor r and other s; a right action is a left action of the opposite
    groupoid (mult.T, s, r).  Exact index arithmetic on every triple.  The
    unit and associativity rules read only defined cells, so a table that
    breaks the domain or moment rule is not read through its -1 cells.
    """
    hs, zs = np.nonzero(table >= 0)
    ws = table[hs, zs]
    inside = ws < len(anchor)
    hs, zs, ws = hs[inside], zs[inside], ws[inside]
    cells = np.arange(len(anchor))
    unit = table[unit_arrow[anchor], cells]
    # Each defined h2 . z = w, once for every h1 with s(h1) = r(h2).
    p, h1 = _over_fibres(r[hs], s, len(unit_arrow))
    h12 = mult[h1, hs[p]]
    ok = (h12 >= 0) & (h12 < len(table))
    lhs, rhs = table[h1[ok], ws[p][ok]], table[h12[ok], zs[p][ok]]
    return {"domain": np.array_equal(table >= 0, s[:, None] == anchor[None, :]),
            "moment": bool(inside.all() and np.all(anchor[ws] == r[hs])
                           and np.all(other[ws] == other[zs])),
            "unit": not np.any((unit >= 0) & (unit != cells)),
            "associativity": not np.any((lhs >= 0) & (rhs >= 0) & (lhs != rhs))}


class FiniteGroupoid:
    """Units and arrows with range/source, partial multiplication, inverse.

    ``mult[i, j]`` is the index of the composite (arrow i) (arrow j) when
    s(i) = r(j), and -1 otherwise.  Unit arrows are part of the arrow list;
    ``unit_arrow[u]`` is the identity arrow at unit u.
    """

    def __init__(self, units, arrows, r, s, mult, inv):
        self.units = tuple(units)
        self.arrows = tuple(arrows)
        self.r = np.asarray(r, dtype=np.int64)
        self.s = np.asarray(s, dtype=np.int64)
        self.mult = np.asarray(mult, dtype=np.int64)
        self.inv = np.asarray(inv, dtype=np.int64)
        self._aindex = {a: i for i, a in enumerate(self.arrows)}
        self.unit_arrow = self._find_unit_arrows()
        self._validate()

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def arrow_index(self, a) -> int:
        return self._aindex[a]

    def _find_unit_arrows(self):
        if self.mult.shape != (self.n_arrows, self.n_arrows):
            raise GroupoidError("multiplication table has wrong shape")
        # A unit arrow is a loop x = x x with x y = y wherever r(y) = r(x)
        # and y x = y wherever s(y) = s(x), when the product is defined.
        k, mult = np.arange(self.n_arrows), self.mult
        left_ok = np.all((mult == k) | (mult < 0) | (self.r[:, None] != self.r), axis=1)
        right_ok = np.all((mult == k[:, None]) | (mult < 0) | (self.s[:, None] != self.s),
                          axis=0)
        found = np.nonzero((self.r == self.s) & (mult[k, k] == k) & left_ok & right_ok)[0]
        us = self.r[found]
        _, first = np.unique(us, return_index=True)
        if len(first) < len(us):
            u = us[np.setdiff1d(np.arange(len(us)), first)[0]]
            raise BadUnits(f"two identity arrows at unit {self.units[u]!r}")
        out = np.full(self.n_units, -1, dtype=np.int64)
        out[us] = found
        return out

    def _validate(self):
        if np.any(self.unit_arrow < 0):
            missing = [self.units[u] for u in np.nonzero(self.unit_arrow < 0)[0]]
            raise BadUnits(f"units without identity arrows: {missing}")
        # The multiplication is the left action of the groupoid on its arrows.
        rules = _left_action_rules(self.mult, self.r, self.s, self.unit_arrow,
                                   self.mult, self.r, self.s)
        fault = next((rule for rule, held in rules.items() if not held), None)
        if fault == "associativity":
            raise NotAssociativeGroupoid("multiplication is not associative")
        if fault:
            raise GroupoidError(f"multiplication fails the {fault} rule of a left action")
        # Inverses: x x^-1 = id_r(x), x^-1 x = id_s(x).
        inv, k = self.inv, np.arange(self.n_arrows)
        if np.any(self.r[inv] != self.s) or np.any(self.s[inv] != self.r):
            raise BadInverse("inverse map does not swap range and source")
        for side, bad in (("x x^-1", self.mult[k, inv] != self.unit_arrow[self.r]),
                          ("x^-1 x", self.mult[inv, k] != self.unit_arrow[self.s])):
            if np.any(bad):
                raise BadInverse(f"{side} != id at arrow {self.arrows[np.argmax(bad)]!r}")

    def __repr__(self):
        return f"FiniteGroupoid({self.n_units} units, {self.n_arrows} arrows)"

    def to_json(self) -> str:
        import json

        def enc(x):
            return list(x) if isinstance(x, tuple) else x

        mult = []
        for i in range(self.n_arrows):
            for j in range(self.n_arrows):
                if self.mult[i, j] >= 0:
                    mult.append(
                        [enc(self.arrows[i]), enc(self.arrows[j]),
                         enc(self.arrows[self.mult[i, j]])]
                    )
        def key(x):
            e = enc(x)
            return e if isinstance(e, str) else json.dumps(e)

        return json.dumps(
            {
                "units": [enc(u) for u in self.units],
                "arrows": [
                    {"id": enc(a), "src": enc(self.units[self.s[i]]),
                     "rng": enc(self.units[self.r[i]])}
                    for i, a in enumerate(self.arrows)
                ],
                "mult": mult,
                "inv": {key(a): enc(self.arrows[self.inv[i]])
                        for i, a in enumerate(self.arrows)},
            }
        )


def make_groupoid(units, arrows, mult_triples, inv_map) -> FiniteGroupoid:
    """Build and exhaustively validate a groupoid from explicit tables.

    ``arrows`` is a list of (id, source-unit, range-unit); ``mult_triples``
    lists [x, y, xy] for every composable pair; ``inv_map`` maps ids to ids.
    """
    units = list(units)
    uindex = {u: i for i, u in enumerate(units)}
    ids = [a[0] for a in arrows]
    aindex = {a: i for i, a in enumerate(ids)}
    try:
        s = [uindex[a[1]] for a in arrows]
        r = [uindex[a[2]] for a in arrows]
    except KeyError as err:
        raise GroupoidError(f"arrow references unknown unit {err}") from err
    n = len(ids)
    mult = np.full((n, n), -1, dtype=np.int64)
    for x, y, xy in mult_triples:
        mult[aindex[x], aindex[y]] = aindex[xy]
    inv = np.array([aindex[inv_map[a]] for a in ids], dtype=np.int64)
    return FiniteGroupoid(units, ids, r, s, mult, inv)


def groupoid_from_json(text: str) -> tuple[FiniteGroupoid, "Cocycle | None"]:
    import json

    data = json.loads(text)

    def dec(x):
        return tuple(dec(y) for y in x) if isinstance(x, list) else x

    units = [dec(u) for u in data["units"]]
    arrows = [(dec(a["id"]), dec(a["src"]), dec(a["rng"])) for a in data["arrows"]]
    mult = [[dec(x) for x in triple] for triple in data["mult"]]
    inv = {dec(json_key_parse(k)): dec(v) for k, v in data["inv"].items()}
    Q = make_groupoid(units, arrows, mult, inv)
    return Q, data.get("cocycle")


def json_key_parse(key: str):
    # Arrow ids used as JSON object keys arrive as strings; tuples round-trip
    # through their list repr.
    if key.startswith("["):
        import json

        return json.loads(key)
    return key


def _transitive_tables(n: int, table, inverse):
    """(r, s, mult, inv) of the transitive groupoid on n units whose isotropy
    group has Cayley table ``table`` and inverses ``inverse``: arrow (i, j, h)
    sits at (i n + j) |H| + h, runs from unit j to unit i, composes by
    (i,j,h)(j,k,h') = (i,k,hh') and inverts to (j,i,h^-1)."""
    m = len(inverse)
    i, j, h = (a.ravel() for a in np.indices((n, n, m)))
    mult = np.where(j[:, None] == i, (i[:, None] * n + j) * m + table[h[:, None], h], -1)
    return i, j, mult, (j * n + i) * m + np.asarray(inverse)[h]


def pair_groupoid(n: int) -> FiniteGroupoid:
    """The pair groupoid on units 1..n: arrow x_ij from j to i at index i n + j."""
    names = range(1, n + 1)
    return FiniteGroupoid([f"{i}" for i in names], [f"x{i}{j}" for i in names for j in names],
                          *_transitive_tables(n, np.zeros((1, 1), dtype=np.int64), [0]))


def units_only_groupoid(n: int) -> FiniteGroupoid:
    """n units and their identity arrows id1..idn, nothing else."""
    k = np.arange(n)
    return FiniteGroupoid([f"{i}" for i in range(1, n + 1)], [f"id{i}" for i in range(1, n + 1)],
                          k, k, np.where(k[:, None] == k, k, -1), k)


def transitive_groupoid(n_units: int, isotropy: FiniteGroup, tag: str = "") -> FiniteGroupoid:
    """The transitive groupoid on n units with the given isotropy group:
    arrows (i, j, h) composing by (i,j,h)(j,k,h') = (i,k,hh')."""
    return FiniteGroupoid(
        [f"{tag}u{i}" for i in range(n_units)],
        [(tag, i, j, name) for i, j, name in
         itertools.product(range(n_units), range(n_units), isotropy.elements)],
        *_transitive_tables(n_units, isotropy.table, isotropy.inverse),
    )


def disjoint_union(parts: list[FiniteGroupoid]) -> FiniteGroupoid:
    """The parts side by side: unit u and arrow x of part k are named (k, u)
    and (k, x) and sit after those of the parts before k; the multiplication
    table is block diagonal."""
    u_off = np.cumsum([0] + [Q.n_units for Q in parts])
    a_off = np.cumsum([0] + [Q.n_arrows for Q in parts])
    mult = np.full((a_off[-1], a_off[-1]), -1, dtype=np.int64)
    for k, Q in enumerate(parts):
        mult[a_off[k]:a_off[k + 1], a_off[k]:a_off[k + 1]] = np.where(Q.mult >= 0,
                                                                      Q.mult + a_off[k], -1)
    return FiniteGroupoid(
        [(k, u) for k, Q in enumerate(parts) for u in Q.units],
        [(k, x) for k, Q in enumerate(parts) for x in Q.arrows],
        np.concatenate([Q.r + u_off[k] for k, Q in enumerate(parts)]),
        np.concatenate([Q.s + u_off[k] for k, Q in enumerate(parts)]),
        mult,
        np.concatenate([Q.inv + a_off[k] for k, Q in enumerate(parts)]),
    )


class Cocycle:
    """A group-valued cocycle: c(xy) = c(x) c(y) on composable pairs."""

    def __init__(self, groupoid: FiniteGroupoid, group: FiniteGroup, values):
        self.groupoid = groupoid
        self.group = group
        self.values = np.asarray(values, dtype=np.int64)
        if len(self.values) != groupoid.n_arrows:
            raise CocycleError("cocycle must assign a value to every arrow")
        # The skew-product layouts read the values as indices into G's table.
        if np.any((self.values < 0) | (self.values >= group.order)):
            raise CocycleError(f"cocycle values must be group indices 0 to {group.order - 1}")
        self._validate()

    def _validate(self):
        Q, G, c = self.groupoid, self.group, self.values
        bad = c[Q.unit_arrow] != G.identity_index
        if np.any(bad):
            raise CocycleError(f"c is not e at unit {Q.units[np.argmax(bad)]!r}")
        ii, jj = np.nonzero(Q.mult >= 0)
        bad = c[Q.mult[ii, jj]] != G.table[c[ii], c[jj]]
        if np.any(bad):
            k = np.argmax(bad)
            raise CocycleError(f"c(xy) != c(x)c(y) at ({Q.arrows[ii[k]]!r}, {Q.arrows[jj[k]]!r})")

    def of(self, arrow: int) -> int:
        return int(self.values[arrow])


def cocycle_from_names(Q: FiniteGroupoid, G: FiniteGroup, mapping) -> Cocycle:
    """The cocycle with c(x) = ``mapping[x]`` (keyed by the arrow or its
    name), given as an element name or an index; raises
    :class:`CocycleError` naming the first arrow with no value or with a
    name that is not an element of G."""
    vals = []
    for a in Q.arrows:
        v = mapping.get(a, mapping.get(str(a)))
        if v is None:
            raise CocycleError(f"arrow {str(a)!r} has no cocycle value")
        if isinstance(v, str) and v not in G.elements:
            raise CocycleError(f"label {v!r} on arrow {str(a)!r} is not an element of the group")
        vals.append(G.index(v) if isinstance(v, str) else int(v))
    return Cocycle(Q, G, vals)


def _orbit_base(Q: FiniteGroupoid) -> np.ndarray:
    """base[u]: the least unit of u's orbit {r(x) : s(x) = u}."""
    base = np.full(Q.n_units, Q.n_units)
    np.minimum.at(base, Q.s, Q.r)
    return base


def _generating_arrows(Q: FiniteGroupoid) -> np.ndarray:
    """The arrows from or to the base b of their orbit, closed under inverse:
    y: u -> w is (w <- b)(b <- u), so k units with isotropy H give (2k - 1)|H|."""
    b = _orbit_base(Q)[Q.s]
    return np.flatnonzero((Q.r == b) | (Q.s == b))


class GroupoidAlgebra:
    """The convolution *-algebra of a finite groupoid in its regular
    representation on the arrow space."""

    def __init__(self, Q: FiniteGroupoid):
        self.groupoid = Q
        n = Q.n_arrows
        # The composable pairs (y, z) and their products yz; delta_y sends
        # delta_z to delta_yz, so row y is vec(delta_y) with ones at yz n + z.
        ys, zs = np.nonzero(Q.mult >= 0)
        yz = Q.mult[ys, zs]
        self._conv_triples = (ys, zs, yz)
        rows = matalg._csr(np.ones(len(ys), dtype=np.complex128), ys, yz * n + zs, (n, n * n))
        self.gens = _generating_arrows(Q)
        self.span = AlgebraSpan(n, rows, gen_rows=rows[self.gens], name="C*(Q)")
        self._read_back()
        # The words in ``gens`` reach every arrow, else their commutant exceeds the centre.
        reached, new = np.zeros(n, dtype=bool), self.gens
        while new.size:
            reached[new] = True
            hit = np.zeros(n + 1, dtype=bool)  # hit[n], read as hit[-1], takes the -1 entries
            hit[Q.mult[np.ix_(new, self.gens)]] = True
            new = np.flatnonzero(hit[:n] & ~reached)
        if not reached.all():
            raise GroupoidError("the generating arrows do not generate the groupoid")

    @property
    def dim(self) -> int:
        return self.span.dim

    def represent_rows(self, fs) -> sp.csr_matrix:
        """vec(pi(f)) for every row f of a stack of coefficient functions."""
        return self.span.combine(fs)

    def convolve(self, f, g) -> np.ndarray:
        """(f g)(x) = sum over r(y) = r(x) of f(y) g(y^-1 x), for stacks of
        functions on the last axis; each sum adds its terms in the order of
        the composable pairs, by one ``bincount`` per real and imaginary part."""
        (ys, zs, yz), n = self._conv_triples, self.groupoid.n_arrows
        f = np.asarray(f, dtype=np.complex128)
        terms = f[..., ys] * np.asarray(g, dtype=np.complex128)[..., zs]
        key = (np.arange(terms.size // len(yz))[:, None] * n + yz).ravel()
        out = np.empty(terms.shape[:-1] + (n,), dtype=np.complex128)
        out.real.flat = np.bincount(key, terms.real.ravel(), out.size)
        out.imag.flat = np.bincount(key, terms.imag.ravel(), out.size)
        return out

    def star(self, f) -> np.ndarray:
        return np.conj(np.asarray(f, dtype=np.complex128)[..., self.groupoid.inv])

    def restrict_to_units(self, f) -> np.ndarray:
        """f|_{Q^0}: values at the unit arrows (the expectation P onto C0(Q^0))."""
        return np.asarray(f, dtype=np.complex128)[..., self.groupoid.unit_arrow]

    def unit_sup_norm(self, f):
        """sup |f| over the units: a float for one function, an array for a stack."""
        norm = np.max(np.abs(self.restrict_to_units(f)), axis=-1, initial=0.0)
        return norm if norm.ndim else float(norm)

    def _read_back(self):
        """Decode the stored rows into the table z -> yz and require it to be
        Q.mult, with every stored entry 1.  The representation is then the
        regular one, so delta_x delta_y = delta_(xy) and delta_y* =
        delta_(y^-1) are Q's associativity and inverse laws, which
        :class:`FiniteGroupoid` checks exactly on every composable triple."""
        Q, rows = self.groupoid, self.span.rows
        n = Q.n_arrows
        table = np.full((n, n), -1, dtype=np.int64)
        yz, z = np.divmod(rows.indices, n)
        table[np.repeat(np.arange(n), np.diff(rows.indptr)), z] = yz
        if (rows.nnz != np.count_nonzero(Q.mult >= 0) or not np.array_equal(table, Q.mult)
                or np.any(rows.data != 1)):
            raise GroupoidError("regular representation does not match the multiplication table")


def convolution_algebra(Q: FiniteGroupoid) -> GroupoidAlgebra:
    # Groupoids are immutable; cache the (verified) algebra on the instance.
    if not hasattr(Q, "_conv_algebra"):
        Q._conv_algebra = GroupoidAlgebra(Q)
    return Q._conv_algebra


def skew_product_groupoid(Q: FiniteGroupoid, G: FiniteGroup, c: Cocycle) -> FiniteGroupoid:
    """The skew product Q x_c G: r(x,s) = (r(x), c(x)s), s(x,s) = (s(x), s).

    Cell (x, t), arrow or unit, sits at index x |G| + t; its name
    (name of x, name of t) is for display and JSON only.
    """
    if c.groupoid is not Q or c.group is not G:
        c = Cocycle(Q, G, c.values)
    if hasattr(c, "_skew"):
        return c._skew
    m, t = G.order, np.arange(G.order)
    ct = G.table[c.values]  # ct[x, t] = c(x) t
    # (x, c(y) t)(y, t) = (xy, t): (x, t1) and (y, t) compose when x and y do
    # and t1 = c(y) t; the entry [x, t1, y, t] is the composite's index.
    xy = Q.mult[:, None, :, None]
    composable = (xy >= 0) & (t[None, :, None, None] == ct[None, None, :, :])
    c._skew = FiniteGroupoid(
        [(u, G.name(a)) for u in Q.units for a in t],
        [(x, G.name(a)) for x in Q.arrows for a in t],
        (Q.r[:, None] * m + ct).ravel(),
        (Q.s[:, None] * m + t).ravel(),
        np.where(composable, xy * m + t, -1).reshape(Q.n_arrows * m, -1),
        (Q.inv[:, None] * m + ct).ravel(),  # (x, t)^-1 = (x^-1, c(x) t)
    )
    return c._skew


class GroupoidAction:
    """A finite-group action by automorphisms of a groupoid, stored as arrow
    permutations (unit permutations are induced)."""

    def __init__(self, Q: FiniteGroupoid, group: FiniteGroup, arrow_perm):
        self.groupoid = Q
        self.group = group
        self.arrow_perm = np.asarray(arrow_perm, dtype=np.int64)
        self.unit_perm = self._validate()

    def _validate(self) -> np.ndarray:
        """Check every axiom, one array test per axiom over all of G, naming
        the first failing element; returns the induced unit permutations."""
        Q, G, p = self.groupoid, self.group, self.arrow_perm
        n = Q.n_arrows
        if p.shape != (G.order, n):
            raise NotAutomorphism("arrow permutation table has wrong shape")
        fail = action_law_failure(G, p)
        if fail:
            rule, witness = fail
            raise NotAutomorphism({
                "identity": "identity element acts nontrivially",
                "bijection": "element {} does not permute arrows",
                "law": "action law fails at ({},{})"}[rule].format(*witness))

        def first(bad):
            return int(np.argmax(np.any(bad.reshape(len(bad), -1), axis=1)))

        # Unit arrows map to unit arrows; this induces the unit permutation.
        unit_of = np.full(n, -1, dtype=np.int64)
        unit_of[Q.unit_arrow] = np.arange(Q.n_units)
        unit_perm = unit_of[p[:, Q.unit_arrow]]
        if np.any(unit_perm < 0):
            raise NotAutomorphism(f"element {first(unit_perm < 0)} moves a unit off the units")
        bad = (unit_perm[:, Q.r] != Q.r[p]) | (unit_perm[:, Q.s] != Q.s[p])
        if np.any(bad):
            raise NotAutomorphism(f"element {first(bad)} does not respect r and s")
        ii, jj = np.nonzero(Q.mult >= 0)
        bad = p[:, Q.mult[ii, jj]] != Q.mult[p[:, ii], p[:, jj]]
        if np.any(bad):
            raise NotAutomorphism(f"element {first(bad)} is not multiplicative")
        bad = p[:, Q.inv] != Q.inv[p]
        if np.any(bad):
            raise NotAutomorphism(f"element {first(bad)} does not respect inverses")
        return unit_perm

    def arrow(self, t: int, i: int) -> int:
        return int(self.arrow_perm[t, i])


def translation_groupoid_action(skew: FiniteGroupoid, G: FiniteGroup) -> GroupoidAction:
    """s.(x, t) = (x, t s^-1) on a skew product Q x_c G, whose arrow (x, t)
    sits at index x |G| + t."""
    if hasattr(skew, "_translation_action"):
        return skew._translation_action
    m, k = G.order, np.arange(skew.n_arrows)
    # perm[s, x |G| + t] = x |G| + t s^-1
    perm = (k // m * m)[None, :] + G.table[k % m][:, G.inverse].T
    skew._translation_action = GroupoidAction(skew, G, perm)
    return skew._translation_action


def semidirect_product(
    R: FiniteGroupoid, G: FiniteGroup, action: GroupoidAction
) -> FiniteGroupoid:
    """R x| G with (x,s)(y,t) = (x (s.y), st) and (x,s)^-1 = (s^-1.x^-1, s^-1).

    Arrow (x, t) sits at index x |G| + t and is named (name of x, name of t);
    the units are R's, in R's order, named (name of u, name of e).  Names are
    for display and JSON only.
    """
    if action.groupoid is not R:
        raise NotAutomorphism("action must act on R")
    if hasattr(action, "_semidirect"):
        return action._semidirect
    m, e, inv = G.order, G.name(G.identity_index), G.inverse
    # x (s.y) at [x, s, y, 0]; (x, s) and (y, t) compose exactly when it
    # exists, and the entry [x, s, y, t] is the composite's index.
    x_sy = R.mult[:, action.arrow_perm][..., None]
    mult = np.where(x_sy >= 0, x_sy * m + G.table[None, :, None, :], -1)
    action._semidirect = FiniteGroupoid(
        [(u, e) for u in R.units],
        [(x, G.name(s)) for x in R.arrows for s in G],
        np.repeat(R.r, m),
        action.unit_perm[inv][:, R.s].T.ravel(),  # s(x, s) = s^-1.s(x)
        mult.reshape(R.n_arrows * m, -1),
        (action.arrow_perm[inv][:, R.inv].T * m + inv).ravel(),
    )
    return action._semidirect


def algebra_action_from_groupoid_action(
    alg: GroupoidAlgebra, action: GroupoidAction
) -> AlgebraAction:
    """beta_s(f)(x) = f(s^-1 . x), as conjugation by the arrow permutation."""
    act = AlgebraAction.from_permutations(
        alg.span, action.group, action.arrow_perm, name="groupoid automorphism action"
    )
    # beta_s delta_x = delta_{s.x} exactly.
    for t in action.group:
        if matalg.max_row_norm(act.image_rows(t) - alg.span.rows[action.arrow_perm[t]]) > 1e-12:
            raise NotAutomorphism(f"beta_{t} does not permute the basis as expected")
    return act


def induced_algebra_action(action: GroupoidAction) -> AlgebraAction:
    """beta on C*(R) for an action on R; built once and cached on the action."""
    if not hasattr(action, "_beta"):
        action._beta = algebra_action_from_groupoid_action(
            convolution_algebra(action.groupoid), action
        )
    return action._beta


def action_crossed_product(action: GroupoidAction) -> ActionCrossedProduct:
    """C*(R) x_beta G for an action on R, at PRODUCT_TOL; built once and cached
    on the action."""
    if not hasattr(action, "_crossed"):
        beta = induced_algebra_action(action)
        action._crossed = ActionCrossedProduct(
            beta.span, action.group, beta, tol=matalg.PRODUCT_TOL
        )
    return action._crossed


def graded_convolution(alg: GroupoidAlgebra, c: Cocycle) -> GradedSpan:
    """The cocycle grading of a convolution algebra: delta_x has degree c(x)."""
    return GradedSpan(alg.span, c.values, c.group)


def kernel_embedding_check(
    Q: FiniteGroupoid,
    c: Cocycle,
    n_random: int = 100,
    rng: np.random.Generator | None = None,
) -> Report:
    """The canonical map i : C*(N) -> C*(Q), N = c^-1(e), is a faithful
    *-homomorphism at finite scale, with P_N = P_Q o i.

    Every finite groupoid passes: a failed check signals an implementation
    bug, and :func:`certify_gpd_iso` fails with it.
    """
    rng = rng or np.random.default_rng(0)
    keep = np.nonzero(c.values == c.group.identity_index)[0]
    N = kernel_subgroupoid(Q, c)
    alg_n = convolution_algebra(N)
    alg_q = convolution_algebra(Q)

    # Both algebras read their rows back against their tables, so
    # delta_x -> delta_keep[x] is a *-homomorphism when keep carries N's
    # products (-1, no product, onto -1) and inverses onto Q's, and it is
    # injective when no two arrows share an image.
    injective = len(keep) == N.n_arrows and len(np.unique(keep)) == len(keep)
    star_hom = (injective
                and np.array_equal(np.where(N.mult >= 0, keep[N.mult], -1),
                                   Q.mult[np.ix_(keep, keep)])
                and np.array_equal(keep[N.inv], Q.inv[keep]))
    f, = random_functions(rng, n_random, alg_n.dim)
    big = np.zeros((n_random, Q.n_arrows), dtype=np.complex128)
    big[:, keep] = f
    err = float(np.max(np.abs(alg_n.restrict_to_units(f) - alg_q.restrict_to_units(big)),
                       initial=0.0))
    checks = [Check.holds("star_hom", star_hom), Check("expectation", err, 1e-12)]
    return Report({"n_arrows": int(len(keep)), "dim_preserved": injective,
                   "injective": injective}, checks, {"expectation": "expectation_error"})


def kernel_subgroupoid(Q: FiniteGroupoid, c: Cocycle) -> FiniteGroupoid:
    """N = c^-1(e) as a subgroupoid of Q, Q itself when c is trivial; built
    once and cached on the cocycle."""
    if c.groupoid is not Q:
        c = Cocycle(Q, c.group, c.values)
    if not hasattr(c, "_kernel"):
        keep = np.nonzero(c.values == c.group.identity_index)[0]
        c._kernel = Q if len(keep) == Q.n_arrows else subgroupoid_on_arrows(Q, keep)
    return c._kernel


def subgroupoid_on_arrows(Q: FiniteGroupoid, keep) -> FiniteGroupoid:
    """The subgroupoid on a subset of arrows (must be closed under the
    operations and contain all unit arrows of the touched units).  Its arrows
    and units are the kept arrows and the touched units, in Q's order."""
    keep = np.unique(np.asarray(keep, dtype=np.int64))
    sub = Q.mult[np.ix_(keep, keep)]
    if not np.isin(Q.inv[keep], keep).all():
        raise GroupoidError("arrow set not closed under inverse")
    if not np.isin(sub[sub >= 0], keep).all():
        raise GroupoidError("arrow set not closed under multiplication")
    units = np.unique(np.r_[Q.r[keep], Q.s[keep]])
    if not np.isin(Q.unit_arrow[units], keep).all():
        raise GroupoidError("arrow set misses a unit arrow")
    return FiniteGroupoid(
        [Q.units[u] for u in units],
        [Q.arrows[i] for i in keep],
        np.searchsorted(units, Q.r[keep]),
        np.searchsorted(units, Q.s[keep]),
        np.where(sub >= 0, np.searchsorted(keep, sub), -1),
        np.searchsorted(keep, Q.inv[keep]),
    )


def _crossed_parts(alg: GroupoidAlgebra, G: FiniteGroup, fs) -> sp.csr_matrix:
    """Phi(f) = sum_s pi~(f_s) u~_s, f_s(x) = f(x, s), for stacked functions f
    on R x| G, dense or CSR: the rows vec(pi(f_s)), row j |G| + s for the j-th
    f, from one :meth:`GroupoidAlgebra.represent_rows`.  Arrow (x, s) of R x| G
    and basis element (x, s) of C*(R) x_beta G both sit at index x |G| + s."""
    k, m = fs.shape[0], G.order
    if sp.issparse(fs):
        j, c, a = matalg._entries(fs.tocsr())
        return alg.represent_rows(matalg._csr(a, j * m + c % m, c // m, (k * m, fs.shape[1] // m)))
    return alg.represent_rows(fs.reshape(k, -1, m).transpose(0, 2, 1).reshape(k * m, -1))


def certify_semi_cross(
    R: FiniteGroupoid,
    G: FiniteGroup,
    action: GroupoidAction,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> IsomorphismCertificate:
    """Certify C*(R x| G) = C*(R) x_beta G via Phi(f)(s)(x) = f(x, s).

    On basis functions Phi sends delta_(x,s) to pi~(delta_x) u~_s, and both
    sit at index x |G| + s, so :func:`matalg.star_map_on_basis` certifies Phi
    on the generators of C*(R x| G) with the identity on indices as its
    inverse; a spot check of Phi(f g) = Phi(f) Phi(g) on random convolution
    elements goes through :meth:`GroupoidAlgebra.represent_rows` instead.
    """
    rng = rng or np.random.default_rng(0)
    semi = semidirect_product(R, G, action)
    lhs_alg = convolution_algebra(semi)
    base_alg = convolution_algebra(R)
    acp = action_crossed_product(action)
    d = semi.n_arrows
    # Phi matches delta_(x,s) with pi~(delta_x) u~_s: both sit at x |G| + s.
    layout_ok = d == acp.dim and all(
        a == (R.arrows[k // G.order], G.name(k % G.order)) for k, a in enumerate(semi.arrows)
    )
    report = matalg.star_map_on_basis(
        lhs_alg.span,
        acp.span.rows,
        acp.ambient_dim,
        lhs_alg.span.gen_rows,
        acp.span.rows[lhs_alg.gens],
        target=acp.span,
        inverse_rows=lhs_alg.span.rows,
    )

    # Phi(f g) = Phi(f) Phi(g) on four random pairs: the rows (f, g, f g) of
    # all pairs go through Phi together.
    f, g = random_functions(rng, 4, d, d)
    fgs = np.stack([f, g, lhs_alg.convolve(f, g)], axis=1).reshape(12, d)
    mats = matalg.unvec_rows(acp.element_rows(_crossed_parts(base_alg, G, fgs)), acp.ambient_dim)
    conv_err = max(frobenius(x @ y - xy) for x, y, xy in zip(mats[::3], mats[1::3], mats[2::3]))

    return IsomorphismCertificate(
        theorem="semi-cross",
        lhs_name="C*(R x| G)",
        rhs_name="C*(R) x_beta G",
        lhs_dim=lhs_alg.dim,
        rhs_dim=acp.dim,
        tolerance=tol,
        star_report=report,
        extra=Report(
            checks=[Check("random_convolution", conv_err, tol), Check.holds("bijection", layout_ok)],
            errors={"random_convolution": "random_convolution_error"},
        ),
    )


def certify_gpd_iso(
    Q: FiniteGroupoid,
    G: FiniteGroup,
    c: Cocycle,
    tol: float = 1e-8,
) -> IsomorphismCertificate:
    """Certify C*(Q) x_delta G = C*(Q x_c G) via Psi(f, t) = f at coordinate t.

    Builds the cocycle grading of C*(Q), checks the coaction on its
    generators delta_x (degree c(x)), checks the kernel embedding, and
    certifies Psi as a *-isomorphism onto the skew-product convolution
    algebra, equivariantly for the dual action and right translation.
    """
    kernel = kernel_embedding_check(Q, c)
    alg = convolution_algebra(Q)
    graded = graded_convolution(alg, c)
    coaction = coaction_check(graded, c.values[alg.gens])
    ccp = CoactionCrossedProduct(graded)
    skew = skew_product_groupoid(Q, G, c)
    skew_alg = convolution_algebra(skew)
    m = G.order

    # Psi on the spanning set: (delta_x, u) -> delta_(x, u).  Both sit at
    # x |G| + u, so Psi is the identity on indices.
    image_rows = skew_alg.span.rows

    # The generators j_A(delta_x) = sum_u (delta_x, u), x in gens, then
    # j_G(chi_u) = sum_v (delta_v, u) over the unit arrows v, as 0/1 sums of
    # spanning elements; Psi of each is the same sum of their images.
    k = len(alg.gens)
    (x, u), (v, w) = np.divmod(np.arange(k * m), m), np.divmod(np.arange(Q.n_units * m), m)
    sums = matalg._csr(np.ones((k + Q.n_units) * m), np.r_[x, k + w],
                       np.r_[alg.gens[x] * m + u, Q.unit_arrow[v] * m + w], (k + m, skew.n_arrows))
    report = matalg.star_map_on_basis(
        ccp.span,
        image_rows,
        skew.n_arrows,
        ccp.span.gen_rows,
        skew_alg.span.combine(sums),
        target=skew_alg.span,
        inverse_rows=ccp.span.rows,
    )

    # Equivariance: Psi delta^_s = beta_s Psi on the spanning set, with both
    # actions realized concretely (Ad(1 x rho_s) and the translation action).
    dual = ccp.dual_action()
    beta = induced_algebra_action(translation_groupoid_action(skew, G))
    eq_err = 0.0
    for s_ in G:
        eq_err = max(eq_err, frobenius(dual.coeff_mats[s_] - beta.coeff_mats[s_]))

    return IsomorphismCertificate(
        theorem="gpd-iso",
        lhs_name="C*(Q) x_delta G",
        rhs_name="C*(Q x_c G)",
        lhs_dim=ccp.dim,
        rhs_dim=skew_alg.dim,
        tolerance=tol,
        star_report=report,
        equivariance_error=eq_err,
        extra=Report(checks=[Check.holds("kernel_embedding", kernel.passed), coaction]),
    )


def certify_full_groupoid(
    Q: FiniteGroupoid,
    G: FiniteGroup,
    c: Cocycle,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> IsomorphismCertificate:
    """C*(Q x_c G) x_beta G = C*(Q) (x) M_|G| at desk scale, certified by
    Wedderburn-signature equality on top of the composed skew/semidirect
    isomorphism certificates."""
    skew = skew_product_groupoid(Q, G, c)
    acp = action_crossed_product(translation_groupoid_action(skew, G))
    alg = convolution_algebra(Q)
    target = matalg.tensor_span(
        alg.span, matalg.full_matrix_span(G.order), name="C*(Q) (x) M_G"
    )
    signatures = {"lhs": matalg.wedderburn_signature(acp.span, rng=rng),
                  "rhs": matalg.wedderburn_signature(target, rng=rng)}
    return IsomorphismCertificate(
        theorem="full-gpd",
        lhs_name="C*(Q x_c G) x_beta G",
        rhs_name="C*(Q) (x) M_|G|",
        lhs_dim=acp.dim,
        rhs_dim=target.dim,
        tolerance=tol,
        signatures=signatures,
        extra=Report(checks=[Check.holds("dim_arithmetic", acp.dim == Q.n_arrows * G.order**2)]),
    )


def _mismatches(rows: sp.csr_matrix, at, expected: sp.csr_matrix) -> int:
    """The entries of the rows ``at`` that differ from ``expected`` by more
    than PRODUCT_TOL (an entry stored on one side only is compared with 0),
    plus every entry stored in the other rows."""
    stored = np.diff(rows.indptr)
    off = stored.sum() - stored[at].sum()
    return int(np.count_nonzero(np.abs((rows[at] - expected).data) > matalg.PRODUCT_TOL) + off)


def expectations_and_norm_identities(
    R: FiniteGroupoid,
    G: FiniteGroup,
    action: GroupoidAction,
    n_random: int = 100,
    rng: np.random.Generator | None = None,
) -> Report:
    """Conditional-expectation identities for the semidirect product.

    (i)   || P_R(beta_s(f)) || = || P_R(f) || exactly (sup over units);
    (ii)  P_R(E(Phi(b))) = P_{R x| G}(b), hence equal sup norms; all maps are
          linear, so it is decided on the basis delta_k, k = x |G| + s:
          Phi(delta_k) has part s b_x = pi(delta_x) and no other, so it is
          pi~(b_x) u~_s, row k of C*(R) x_beta G; E of that row is b_x for
          s = e and 0 otherwise, entry by entry at PRODUCT_TOL; and the units
          of R x| G are R's, (u, e) in R's order, so P_R(delta_x) at s = e is
          P_{R x| G}(delta_k).  The error counts mismatched entries and units;
    (iii) P_R is faithful on positives: P_R(f* f) has positive sup norm for
          random nonzero f.
    """
    rng = rng or np.random.default_rng(0)
    base_alg = convolution_algebra(R)
    semi = semidirect_product(R, G, action)
    acp = action_crossed_product(action)

    # beta_s(f)(x) = f(s^-1 . x) for every draw f and every s.
    f, = random_functions(rng, max(8, n_random // 10), R.n_arrows)
    moved = f[:, action.arrow_perm[G.inverse]]
    err = float(np.max(np.abs(base_alg.unit_sup_norm(moved)
                              - base_alg.unit_sup_norm(f)[:, None])))
    checks = [Check("translation_norm", err, exact=True)]

    # f supported off the units has P_R(f) = 0.
    off = np.ones(R.n_arrows, dtype=np.complex128)
    off[R.unit_arrow] = 0.0
    checks.append(Check("off_units", base_alg.unit_sup_norm(off), exact=True))

    # (ii) on the basis.  n_random elements of C*(R x| G) are drawn and left unused
    # so that every later draw of the case stays in place.
    random_functions(rng, n_random, semi.n_arrows)
    n, m = semi.n_arrows, G.order
    x, s = np.divmod(np.arange(n), m)
    parts = _crossed_parts(base_alg, G, sp.identity(n, np.complex128, "csr"))
    bad = (_mismatches(parts, np.arange(n) * m + s, base_alg.span.rows[x])
           + _mismatches(acp.conditional_expectation_rows(acp.span.rows),
                         np.flatnonzero(s == G.identity_index), base_alg.span.rows)
           + np.count_nonzero(semi.unit_arrow != R.unit_arrow * m + G.identity_index))
    checks.append(Check("red_semi_cross", float(bad), exact=True))

    f, = random_functions(rng, n_random, R.n_arrows)
    pos = base_alg.convolve(base_alg.star(f), f)
    min_norm = float(np.min(base_alg.unit_sup_norm(pos), initial=np.inf))
    checks.append(Check.holds("faithfulness", min_norm > 1e-6))
    return Report({"faithfulness_min_norm": min_norm}, checks,
                  {"translation_norm": "translation_norm_error",
                   "red_semi_cross": "red_semi_cross_error"})


class EquivalenceBimodule:
    """A groupoid equivalence: a carrier with commuting free left and right
    actions whose moment maps induce bijections onto the opposite unit spaces.

    ``left_table[h, z]`` is h . z, defined (not -1) exactly when the source
    of arrow h is rho(z); ``right_table[z, n]`` is z . n, defined exactly when
    sigma(z) is the range of n.  All axioms are verified exhaustively over the
    (finite) carrier; properness is automatic and recorded as such.
    """

    def __init__(self, left: FiniteGroupoid, right: FiniteGroupoid, carrier,
                 rho, sigma, left_table, right_table):
        self.left = left
        self.right = right
        self.carrier = list(carrier)
        self.rho = np.asarray(rho, dtype=np.int64)
        self.sigma = np.asarray(sigma, dtype=np.int64)
        self.left_table = np.asarray(left_table, dtype=np.int64)
        self.right_table = np.asarray(right_table, dtype=np.int64)

    def verify(self) -> Report:
        """Check every axiom, and that both moment maps (maps into the unit
        spaces) are onto; the report records each as an exact check, error 1
        when it fails.  Each reads only the defined cells of the tables whose
        values are carrier cells, so that a table that breaks one axiom is
        not read through its -1 cells by the others."""
        L, N = self.left, self.right
        A, B, rho, sigma = self.left_table, self.right_table, self.rho, self.sigma
        nz = len(self.carrier)
        held = {"moment_maps_surjective": np.array_equal(np.unique(rho), np.arange(L.n_units))
                and np.array_equal(np.unique(sigma), np.arange(N.n_units))}

        # The right action is a left action of the opposite groupoid.
        sides = (_left_action_rules(L.mult, L.r, L.s, L.unit_arrow, A, rho, sigma),
                 _left_action_rules(N.mult.T, N.s, N.r, N.unit_arrow, B.T, sigma, rho))
        held |= {axiom: all(side[rule] for side in sides) for axiom, rule in (
            ("domains", "domain"), ("moment_compatibility", "moment"),
            ("unit_actions", "unit"), ("associativity", "associativity"))}

        # Arrow k moves cell z to w, on every defined cell of either table.
        (hs, zs), (zn, ns) = np.nonzero(A >= 0), np.nonzero(B >= 0)
        left, right = (hs, zs, A[hs, zs]), (ns, zn, B[zn, ns])
        left, right = ([x[w < nz] for x in (k, z, w)] for k, z, w in (left, right))

        # (h . z) . n = h . (z . n) for every defined h . z and n into sigma(z).
        hs, zs, ws = left
        p, n = _over_fibres(sigma[zs], N.r, N.n_units)
        mid = B[zs[p], n]
        ok = (mid >= 0) & (mid < nz)
        lhs, rhs = B[ws[p][ok], n[ok]], A[hs[p][ok], mid[ok]]
        held["commuting"] = not np.any((lhs >= 0) & (rhs >= 0) & (lhs != rhs))

        held["freeness"] = not any(np.any((w == z) & (ks != Gd.unit_arrow[Gd.r[ks]]))
                                   for Gd, (ks, z, w) in ((L, left), (N, right)))

        # rho factors through carrier / right-orbits onto the left units, and
        # sigma through left-orbits \ carrier onto the right units: cells with
        # the same moment lie in one orbit of the other side.
        reach = np.zeros((2, nz, nz), dtype=bool)
        reach[0, right[1], right[2]] = reach[1, left[1], left[2]] = True
        same = np.stack([rho[:, None] == rho, sigma[:, None] == sigma])
        held["orbit_bijections"] = not np.any(same & ~reach)
        return Report({"carrier_size": nz, "properness": "automatic (finite carrier)"},
                      [Check.holds(axiom, ok) for axiom, ok in held.items()])


def certify_equivalence(
    kind: str,
    Q: FiniteGroupoid,
    G: FiniteGroup,
    c: Cocycle,
    rng: np.random.Generator | None = None,
) -> tuple[EquivalenceBimodule, Report]:
    """Build and exhaustively verify one of the two equivalence bimodules.

    kind 'semidirect':  (Q x_c G x| G) -- Q on the carrier Q x_c G, with
        sigma(x, s) = s(x), right action (x, s) . y = (x y, c(y)^-1 s), left
        moment map rho(x, s) = ((r(x), c(x) s), e) and left action
        ((y, a), t) . (x, s) = (y x, s t^-1).
    kind 'subgroupoid': H -- N on the carrier Q, where H is the open
        subgroupoid {(x, c(y)) : s(x) = r(y)} of the skew product,
        N = c^-1(e), rho(y) = (r(y), c(y)) and sigma = s.
    """
    rng = rng or np.random.default_rng(0)
    skew = skew_product_groupoid(Q, G, c)
    m = G.order
    if kind == "semidirect":
        inv = G.inverse
        trans = translation_groupoid_action(skew, G)
        L = semidirect_product(skew, G, trans)
        # Carrier cell z = x |G| + s is the skew arrow (x, s).  L's units are
        # the skew units in the same order, so rho = r of the skew product.
        rho, sigma = skew.r, Q.s[np.arange(skew.n_arrows) // m]
        # Arrow h = (y |G| + a) |G| + t of L is ((y, a), t), and it sends
        # (x, s) to (y x, s t^-1); the arrow n of Q sends (x, s) to
        # (x n, c(n)^-1 s).
        h, (x, s_) = np.arange(L.n_arrows)[:, None], np.divmod(np.arange(skew.n_arrows), m)
        left = np.where(L.s[:, None] == rho,
                        Q.mult[h // (m * m), x] * m + G.table[s_, inv[h % m]], -1)
        right = np.where(sigma[:, None] == Q.r,
                         Q.mult[x] * m + G.table[inv[c.values], s_[:, None]], -1)
        bim = EquivalenceBimodule(L, Q, skew.arrows, rho, sigma, left, right)
        report = bim.verify()
        report.checks.append(_semidirect_properness_window(Q, G, c, bim, rng))
        return bim, report

    if kind == "subgroupoid":
        # H keeps (x, t) when t = c(y) for some y with r(y) = s(x).
        into = np.zeros((Q.n_units, m), dtype=bool)
        into[Q.r, c.values] = True
        keep = np.nonzero(into[Q.s].ravel())[0]
        H = subgroupoid_on_arrows(skew, keep)
        N_sub = kernel_subgroupoid(Q, c)
        n_keep = np.nonzero(c.values == G.identity_index)[0]
        # H's units are the skew units it touches, in order.  N holds every
        # unit arrow, so its units are Q's and sigma = s.  Arrow h of H is the
        # skew arrow (x, t), keep[h] = x |G| + t, and sends y to x y; the
        # arrow n of N sends y to y n.
        rho = np.searchsorted(np.unique(skew.r[keep]), Q.r * m + c.values)
        sigma = Q.s
        left = np.where(H.s[:, None] == rho, Q.mult[keep // m], -1)
        right = np.where(sigma[:, None] == N_sub.r, Q.mult[:, n_keep], -1)
        bim = EquivalenceBimodule(H, N_sub, Q.arrows, rho, sigma, left, right)
        report = bim.verify()
        report.data["h_units"] = H.n_units
        report.checks.append(_subgroupoid_properness_window(Q, G, c, keep, bim, rng))
        return bim, report

    raise ValueError(f"unknown equivalence kind {kind!r}")


def _within(values, allowed) -> np.ndarray:
    return np.isin(values, list(allowed))


def _semidirect_properness_window(Q, G, c, bim, rng) -> Check:
    """The compact-set containments behind properness, on random windows:
    if (h.(y,r), (y,r)) lands in (Lset x F)^2 then the parts of h satisfy
    x in Lset Lset^-1, s in c(Lset) F F^-1 F, t in F^-1 F.  The check's
    error counts the cells that break it."""
    arrows = list(range(Q.n_arrows))
    Lset = set(rng.choice(arrows, size=max(1, Q.n_arrows // 2), replace=False).tolist())
    F = set(rng.choice(G.order, size=max(1, G.order // 2 + 1), replace=False).tolist())
    LLinv = {int(Q.mult[i, Q.inv[j]]) for i in Lset for j in Lset if Q.s[i] == Q.s[j]}
    cL = {int(c.values[i]) for i in Lset}
    FFinv = {G.mul(a, G.inv(b)) for a in F for b in F}
    cLFFF = {G.mul(x, G.mul(y, z)) for x in cL for y in FFinv for z in F}
    m = G.order
    # Carrier cells z, w = h . z = x |G| + s; h = (y |G| + a) |G| + t.
    h, z = np.nonzero(bim.left_table >= 0)
    w = bim.left_table[h, z]
    inside = (_within(z // m, Lset) & _within(z % m, F)
              & _within(w // m, Lset) & _within(w % m, F))
    parts_ok = (_within(h // (m * m), LLinv) & _within(h // m % m, cLFFF)
                & _within(h % m, FFinv))
    return Check("properness_window", float(np.count_nonzero(inside & ~parts_ok)), exact=True)


def _subgroupoid_properness_window(Q, G, c, keep, bim, rng) -> Check:
    """If ((x,t).y, y) lands in Lset x Lset then x in Lset Lset^-1 and
    t in c(Lset); arrow h of H is the skew arrow keep[h] = x |G| + t."""
    arrows = list(range(Q.n_arrows))
    Lset = set(rng.choice(arrows, size=max(1, Q.n_arrows // 2), replace=False).tolist())
    LLinv = {int(Q.mult[i, Q.inv[j]]) for i in Lset for j in Lset if Q.s[i] == Q.s[j]}
    cL = {int(c.values[i]) for i in Lset}
    h, z = np.nonzero(bim.left_table >= 0)
    w, (x, t) = bim.left_table[h, z], np.divmod(keep[h], G.order)
    inside = _within(z, Lset) & _within(w, Lset)
    outside = inside & ~(_within(x, LLinv) & _within(t, cL))
    return Check("properness_window", float(np.count_nonzero(outside)), exact=True)


class InnerProductEvaluator:
    """Evaluates <a, b> in C_c(N) both ways: by the general equivalence
    formula over the auxiliary groupoid H, and by the graded simplification
    sum_t a_t* b_t, for stacks of functions on the last axis.

    The general formula at an arrow n of N is sum conj(a(z)) b(z n) over the
    H-arrows (x, t) with r_H(x, t) = rho(y) = (r(y), c(y)), z = x^-1 y, for
    any y with s(y) = r(n).  Every x with r(x) = r(y) gives one: t = c(z),
    and z ends at s(x).  One flat table holds the terms (z, z n) of every
    (n, y) pair; the formula is evaluated for every y, and the choice of y
    must not affect the value.
    """

    def __init__(self, Q: FiniteGroupoid, c: Cocycle):
        self.groupoid = Q
        self.cocycle = c
        self.group = c.group
        self.algebra = convolution_algebra(Q)
        self.n_keep = np.nonzero(c.values == c.group.identity_index)[0]
        # The (n, y) pairs, y in order for each n of N in order; the term
        # lists, x in order for each pair.
        p, ys = _over_fibres(Q.r[self.n_keep], Q.s, Q.n_units)
        pair, xs = _over_fibres(Q.r[ys], Q.r, Q.n_units)
        self.z = Q.mult[Q.inv[xs], ys[pair]]
        self.zn = Q.mult[self.z, self.n_keep[p[pair]]]
        self._n_of_pair = p
        self._first_pair = np.searchsorted(p, np.arange(len(self.n_keep)))
        # Pairs with term lists of one length sum as one block, so that each
        # list adds up as np.sum adds it alone.
        lengths = np.bincount(pair, minlength=len(p))
        self._blocks = [
            (np.nonzero(lengths == k)[0], np.nonzero(lengths[pair] == k)[0].reshape(-1, k))
            for k in np.unique(lengths)
        ]

    def general_formula(self, a, b, tol: float = 1e-9):
        terms = (np.take(np.conj(np.asarray(a, dtype=np.complex128)), self.z, axis=-1)
                 * np.take(np.asarray(b, dtype=np.complex128), self.zn, axis=-1))
        vals = np.empty(terms.shape[:-1] + (len(self._n_of_pair),), dtype=np.complex128)
        for pairs, at in self._blocks:
            vals[..., pairs] = np.take(terms, at, axis=-1).sum(axis=-1)
        first = vals[..., self._first_pair]
        ambiguity = float(np.max(np.abs(vals - first[..., self._n_of_pair]), initial=0.0))
        if ambiguity > tol:
            raise FormulaMismatch(
                f"general inner-product formula depends on the choice of y ({ambiguity:.2e})"
            )
        out = np.zeros(vals.shape[:-1] + (self.groupoid.n_arrows,), dtype=np.complex128)
        out[..., self.n_keep] = first
        return out

    def simplified_formula(self, a, b, tol: float = 1e-9):
        alg, degrees = self.algebra, self.cocycle.values
        out = sum(alg.convolve(alg.star(np.where(degrees == t, a, 0)),
                               np.where(degrees == t, b, 0)) for t in self.group)
        off_n = out.copy()
        off_n[..., self.n_keep] = 0
        if np.max(np.abs(off_n), initial=0.0) > tol:
            raise FormulaMismatch("sum_t a_t* b_t is not supported in N")
        return out

    def __call__(self, a, b, tol: float = 1e-9):
        """<a, b> as a coefficient function on the arrows of N = c^-1(e), by
        the general formula, and the check that both formulas agree, which
        fails when they do not.  Stacks of a and b broadcast against each
        other."""
        general = self.general_formula(a, b, tol=tol)
        err = float(np.max(np.abs(general - self.simplified_formula(a, b, tol=tol)), initial=0.0))
        return general[..., self.n_keep], Check("formula_agreement", err, tol)


def _module_action(Q: FiniteGroupoid, keep, a, f) -> np.ndarray:
    """(a . f)(x) = sum over n in N with r(n) = s(x) of a(x n) f(n^-1), for
    stacks of functions a on Q and f on Q supported in N = ``keep``.  Each
    product is formed from real and imaginary parts, as a scalar complex
    product is, where numpy's vectorized complex product may fuse
    multiply-adds; each sum adds its terms in order of n."""
    xs, j = _over_fibres(Q.s, Q.r[keep], Q.n_units)
    u, v = a[..., Q.mult[xs, keep[j]]], f[..., Q.inv[keep[j]]]
    terms = (u.real * v.real - u.imag * v.imag) + 1j * (u.real * v.imag + u.imag * v.real)
    out = np.zeros(terms.shape[:-1] + (Q.n_arrows,), dtype=np.complex128)
    np.add.at(out, (..., xs), terms)
    return out


def verify_bimodule_module_structure(
    Q: FiniteGroupoid,
    c: Cocycle,
    tol: float = 1e-9,
    n_random: int = 100,
    rng: np.random.Generator | None = None,
) -> Report:
    """Randomized verification of the pre-Hilbert module structure on C_c(Q):

    - the module action a . f (f in C_c(N)) agrees with convolution;
    - <a b, c> = <b, a* c> (adjointability);
    - Gram matrices [<a_i, a_j>] are positive semidefinite in C*(N);
    - <a b, a b> <= ||a||^2 <b, b> as operators in C*(N).

    Each check draws all its elements first and runs them as one stack.
    """
    rng = rng or np.random.default_rng(0)
    evaluator = InnerProductEvaluator(Q, c)
    alg = evaluator.algebra
    keep = evaluator.n_keep
    alg_n = convolution_algebra(kernel_subgroupoid(Q, c))
    n, nn = Q.n_arrows, len(keep)

    def inner(x, y):
        return evaluator(x, y, tol=tol)[0]

    # Module action: a . f against a * f, for f supported in N.
    a, f_small = random_functions(rng, 8, n, nn)
    f = np.zeros((8, n), dtype=np.complex128)
    f[:, keep] = f_small
    err = float(np.max(np.abs(_module_action(Q, keep, a, f) - alg.convolve(a, f))))
    checks = [Check("module_action", err, tol)]

    x, y, z = random_functions(rng, n_random, n, n, n)
    lhs = inner(alg.convolve(x, y), z)
    rhs = inner(y, alg.convolve(alg.star(x), z))
    err = float(np.max(np.abs(lhs - rhs), initial=0.0))
    checks.append(Check("adjointability", err, tol * 10))

    # Four Gram matrices of three elements each: pi(<a_i, a_j>) in block (i, j).
    elems = random_functions(rng, 12, n)[0].reshape(4, 3, n)
    vals = alg_n.represent_rows(inner(elems[:, :, None], elems[:, None]).reshape(-1, nn))
    gram = vals.toarray().reshape(4, 3, 3, nn, nn).transpose(0, 1, 3, 2, 4).reshape(4, 3 * nn, -1)
    ev = np.linalg.eigvalsh((gram + np.conj(gram.transpose(0, 2, 1))) / 2)
    gram_worst = min(0.0, float(np.min(ev[:, 0])))
    checks.append(Check("gram_psd", -gram_worst, tol * 100))

    a, b = random_functions(rng, 16, n)[0].reshape(8, 2, n).transpose(1, 0, 2)
    ab_b = np.stack([alg.convolve(a, b), b], axis=1)
    norm_a = np.linalg.norm(alg.represent_rows(a).toarray().reshape(8, n, n), 2, axis=(1, 2))
    lhs, rhs = (alg_n.represent_rows(inner(ab_b, ab_b).reshape(16, nn)).toarray()
                .reshape(8, 2, nn, nn).transpose(1, 0, 2, 3))
    gap = norm_a[:, None, None] ** 2 * rhs - lhs
    ev = np.linalg.eigvalsh((gap + np.conj(gap.transpose(0, 2, 1))) / 2)
    worst = min(0.0, float(np.min(ev[:, 0] / np.maximum(1.0, norm_a**2))))
    checks.append(Check("boundedness", -worst, tol * 100))
    return Report({"gram_min_eigenvalue": gram_worst, "boundedness_min_eigenvalue": worst},
                  checks, {"module_action": "module_action_error",
                           "adjointability": "adjointability_error"})
