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

import numpy as np
import scipy.sparse as sp

from . import matalg
from .crossed import (
    ActionCrossedProduct,
    AlgebraAction,
    CoactionCrossedProduct,
    GradedSpan,
    verify_graded_coaction,
)
from .duality import IsomorphismCertificate
from .groups import FiniteGroup
from .matalg import AlgebraSpan, frobenius


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


class AxiomFailed(GroupoidError):
    pass


class FormulaMismatch(GroupoidError):
    pass


class PositivityFailed(GroupoidError):
    pass


class IdentityViolated(GroupoidError):
    pass


class FiniteGroupoid:
    """Units and arrows with range/source, partial multiplication, inverse.

    ``mult[i, j]`` is the index of the composite (arrow i) (arrow j) when
    s(i) = r(j), and -1 otherwise.  Unit arrows are part of the arrow list;
    ``unit_arrow[u]`` is the identity arrow at unit u.
    """

    def __init__(self, units, arrows, r, s, mult, inv, validate: bool = True):
        self.units = tuple(units)
        self.arrows = tuple(arrows)
        self.r = np.asarray(r, dtype=np.int64)
        self.s = np.asarray(s, dtype=np.int64)
        self.mult = np.asarray(mult, dtype=np.int64)
        self.inv = np.asarray(inv, dtype=np.int64)
        self._aindex = {a: i for i, a in enumerate(self.arrows)}
        self._uindex = {u: i for i, u in enumerate(self.units)}
        self.unit_arrow = self._find_unit_arrows()
        if validate:
            self._validate()

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def arrow_index(self, a) -> int:
        return self._aindex[a]

    def unit_index(self, u) -> int:
        return self._uindex[u]

    def composable(self, i: int, j: int) -> bool:
        return self.s[i] == self.r[j]

    def compose(self, i: int, j: int) -> int:
        k = int(self.mult[i, j])
        if k < 0:
            raise GroupoidError(f"arrows {i} and {j} are not composable")
        return k

    def _find_unit_arrows(self):
        out = np.full(self.n_units, -1, dtype=np.int64)
        for i in range(self.n_arrows):
            if self.r[i] != self.s[i]:
                continue
            u = int(self.r[i])
            # A unit acts as a two-sided identity on every composable arrow.
            left_ok = all(
                self.mult[i, j] == j
                for j in range(self.n_arrows)
                if self.r[j] == u and self.mult[i, j] >= 0
            )
            right_ok = all(
                self.mult[j, i] == j
                for j in range(self.n_arrows)
                if self.s[j] == u and self.mult[j, i] >= 0
            )
            if left_ok and right_ok and self.mult[i, i] == i:
                if out[u] >= 0:
                    raise BadUnits(f"two identity arrows at unit {self.units[u]!r}")
                out[u] = i
        return out

    def _validate(self):
        n = self.n_arrows
        if self.mult.shape != (n, n):
            raise GroupoidError("multiplication table has wrong shape")
        if np.any(self.unit_arrow < 0):
            missing = [self.units[u] for u in np.nonzero(self.unit_arrow < 0)[0]]
            raise BadUnits(f"units without identity arrows: {missing}")
        comp = self.s[:, None] == self.r[None, :]
        defined = self.mult >= 0
        if not np.array_equal(comp, defined):
            i, j = np.argwhere(comp != defined)[0]
            raise GroupoidError(
                f"multiplication defined exactly on composable pairs fails at ({i},{j})"
            )
        prods = self.mult[comp]
        ii, jj = np.nonzero(comp)
        if np.any(self.r[prods] != self.r[ii]) or np.any(self.s[prods] != self.s[jj]):
            raise GroupoidError("r(xy) = r(x), s(xy) = s(y) fails")
        # Inverses: x x^-1 = id_r(x), x^-1 x = id_s(x).
        inv = self.inv
        if np.any(self.r[inv] != self.s[np.arange(n)]) or np.any(
            self.s[inv] != self.r[np.arange(n)]
        ):
            raise BadInverse("inverse map does not swap range and source")
        for i in range(n):
            if self.mult[i, inv[i]] != self.unit_arrow[self.r[i]]:
                raise BadInverse(f"x x^-1 != id at arrow {self.arrows[i]!r}")
            if self.mult[inv[i], i] != self.unit_arrow[self.s[i]]:
                raise BadInverse(f"x^-1 x != id at arrow {self.arrows[i]!r}")
        # Associativity on all composable triples, vectorized per left arrow.
        all_k = np.arange(n)
        for i in range(n):
            js = np.nonzero(self.r == self.s[i])[0]
            if not len(js):
                continue
            m_ij = self.mult[i, js]
            k_mask = self.s[js][:, None] == self.r[None, :]
            lhs = np.where(k_mask, self.mult[m_ij[:, None], all_k[None, :]], -1)
            m_jk = np.where(k_mask, self.mult[js[:, None], all_k[None, :]], -1)
            rhs = np.where(k_mask, self.mult[i, np.maximum(m_jk, 0)], -1)
            if not np.array_equal(lhs, rhs):
                a, b = np.argwhere(lhs != rhs)[0]
                raise NotAssociativeGroupoid(
                    f"associativity fails at ({self.arrows[i]!r}, "
                    f"{self.arrows[js[a]]!r}, {self.arrows[b]!r})"
                )

    def arrows_with_range(self, u: int) -> np.ndarray:
        return np.nonzero(self.r == u)[0]

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


def pair_groupoid(n: int) -> FiniteGroupoid:
    units = [f"{i+1}" for i in range(n)]
    arrows = [(f"x{i+1}{j+1}", units[j], units[i]) for i in range(n) for j in range(n)]
    mult = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                mult.append((f"x{i+1}{j+1}", f"x{j+1}{k+1}", f"x{i+1}{k+1}"))
    inv = {f"x{i+1}{j+1}": f"x{j+1}{i+1}" for i in range(n) for j in range(n)}
    return make_groupoid(units, arrows, mult, inv)


def group_as_groupoid(G: FiniteGroup) -> FiniteGroupoid:
    units = ["u"]
    arrows = [(G.name(t), "u", "u") for t in G]
    mult = [(G.name(a), G.name(b), G.name(G.mul(a, b))) for a in G for b in G]
    inv = {G.name(t): G.name(G.inv(t)) for t in G}
    return make_groupoid(units, arrows, mult, inv)


def units_only_groupoid(n: int) -> FiniteGroupoid:
    units = [f"{i+1}" for i in range(n)]
    arrows = [(f"id{i+1}", u, u) for i, u in enumerate(units)]
    mult = [(f"id{i+1}", f"id{i+1}", f"id{i+1}") for i in range(n)]
    inv = {f"id{i+1}": f"id{i+1}" for i in range(n)}
    return make_groupoid(units, arrows, mult, inv)


def transitive_groupoid(n_units: int, isotropy: FiniteGroup, tag: str = "") -> FiniteGroupoid:
    """The transitive groupoid on n units with the given isotropy group:
    arrows (i, j, h) composing by (i,j,h)(j,k,h') = (i,k,hh')."""
    units = [f"{tag}u{i}" for i in range(n_units)]
    arrows = []
    for i in range(n_units):
        for j in range(n_units):
            for h in isotropy:
                arrows.append(((f"{tag}", i, j, isotropy.name(h)), units[j], units[i]))
    mult = []
    for i in range(n_units):
        for j in range(n_units):
            for k in range(n_units):
                for h1 in isotropy:
                    for h2 in isotropy:
                        mult.append(
                            (
                                (f"{tag}", i, j, isotropy.name(h1)),
                                (f"{tag}", j, k, isotropy.name(h2)),
                                (f"{tag}", i, k, isotropy.name(isotropy.mul(h1, h2))),
                            )
                        )
    inv = {}
    for i in range(n_units):
        for j in range(n_units):
            for h in isotropy:
                inv[(f"{tag}", i, j, isotropy.name(h))] = (
                    f"{tag}", j, i, isotropy.name(isotropy.inv(h)),
                )
    return make_groupoid(units, arrows, mult, inv)


def disjoint_union(parts: list[FiniteGroupoid]) -> FiniteGroupoid:
    units, arrows, mult, inv = [], [], [], {}
    for idx, Q in enumerate(parts):
        rename_u = {u: (idx, u) for u in Q.units}
        rename_a = {a: (idx, a) for a in Q.arrows}
        units.extend(rename_u[u] for u in Q.units)
        for i, a in enumerate(Q.arrows):
            arrows.append((rename_a[a], rename_u[Q.units[Q.s[i]]], rename_u[Q.units[Q.r[i]]]))
            inv[rename_a[a]] = rename_a[Q.arrows[Q.inv[i]]]
        for i in range(Q.n_arrows):
            for j in range(Q.n_arrows):
                if Q.mult[i, j] >= 0:
                    mult.append(
                        (rename_a[Q.arrows[i]], rename_a[Q.arrows[j]],
                         rename_a[Q.arrows[Q.mult[i, j]]])
                    )
    return make_groupoid(units, arrows, mult, inv)


class Cocycle:
    """A group-valued cocycle: c(xy) = c(x) c(y) on composable pairs."""

    def __init__(self, groupoid: FiniteGroupoid, group: FiniteGroup, values):
        self.groupoid = groupoid
        self.group = group
        self.values = np.asarray(values, dtype=np.int64)
        if len(self.values) != groupoid.n_arrows:
            raise CocycleError("cocycle must assign a value to every arrow")
        self._validate()

    def _validate(self):
        Q, G = self.groupoid, self.group
        for u in range(Q.n_units):
            if self.values[Q.unit_arrow[u]] != G.identity_index:
                raise CocycleError(f"c is not e at unit {Q.units[u]!r}")
        ii, jj = np.nonzero(Q.mult >= 0)
        prods = Q.mult[ii, jj]
        expected = np.array(
            [G.mul(int(self.values[i]), int(self.values[j])) for i, j in zip(ii, jj)]
        )
        bad = np.nonzero(self.values[prods] != expected)[0]
        if len(bad):
            i, j = ii[bad[0]], jj[bad[0]]
            raise CocycleError(
                f"c(xy) != c(x)c(y) at ({Q.arrows[i]!r}, {Q.arrows[j]!r})"
            )

    def of(self, arrow: int) -> int:
        return int(self.values[arrow])


def cocycle_from_names(Q: FiniteGroupoid, G: FiniteGroup, mapping) -> Cocycle:
    vals = []
    for a in Q.arrows:
        v = mapping[a] if a in mapping else mapping[str(a)]
        vals.append(G.index(v) if isinstance(v, str) else int(v))
    return Cocycle(Q, G, vals)


class GroupoidAlgebra:
    """The convolution *-algebra of a finite groupoid in its regular
    representation on the arrow space."""

    def __init__(self, Q: FiniteGroupoid, tol: float = matalg.PRODUCT_TOL):
        self.groupoid = Q
        n = Q.n_arrows
        mats = []
        for y in range(n):
            zs = np.nonzero(Q.r == Q.s[y])[0]
            rows = np.array([Q.mult[y, z] for z in zs])
            mats.append(
                sp.csr_matrix(
                    (np.ones(len(zs), dtype=np.complex128), (rows, zs)), shape=(n, n)
                )
            )
        self.span = AlgebraSpan(
            n,
            matalg.vec_rows(mats),
            name="C*(Q)",
            check=True,
        )
        self._verify(tol)

    @property
    def dim(self) -> int:
        return self.span.dim

    def represent_rows(self, fs) -> sp.csr_matrix:
        """vec(pi(f)) for every row f of a stack of coefficient functions."""
        return sp.csr_matrix(np.asarray(fs, dtype=np.complex128)) @ self.span.rows

    def to_functions(self, rows, tol: float = matalg.PRODUCT_TOL) -> np.ndarray:
        """The coefficient function of every stacked row vec(pi(f)); raises
        :class:`matalg.NotInSpan` if a row is farther than ``tol`` from C*(Q)."""
        coeffs, resid = self.span.coefficients_rows(rows)
        if tol is not None and resid > tol:
            raise matalg.NotInSpan(f"element is not in {self.span.name} (residual {resid:.2e})")
        return coeffs.toarray()

    def convolve(self, f, g) -> np.ndarray:
        """(f g)(x) = sum over r(y) = r(x) of f(y) g(y^-1 x)."""
        Q = self.groupoid
        if not hasattr(self, "_conv_triples"):
            ys, zs = np.nonzero(Q.mult >= 0)
            self._conv_triples = (ys, zs, Q.mult[ys, zs])
        ys, zs, yz = self._conv_triples
        f = np.asarray(f, dtype=np.complex128)
        g = np.asarray(g, dtype=np.complex128)
        out = np.zeros(Q.n_arrows, dtype=np.complex128)
        np.add.at(out, yz, f[ys] * g[zs])
        return out

    def star(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=np.complex128)
        return np.conj(f[self.groupoid.inv])

    def restrict_to_units(self, f) -> np.ndarray:
        """f|_{Q^0}: values at the unit arrows (the expectation P onto C0(Q^0))."""
        return np.asarray(f, dtype=np.complex128)[self.groupoid.unit_arrow]

    def unit_sup_norm(self, f) -> float:
        return float(np.max(np.abs(self.restrict_to_units(f)))) if self.groupoid.n_units else 0.0

    def _verify(self, tol: float):
        """The representation is a faithful *-homomorphism: checked against
        the convolution formula on every basis pair and adjoint."""
        Q = self.groupoid
        n = Q.n_arrows
        rows = self.span.rows
        for y0, lhs in matalg.right_products(rows, rows, n):
            ys = np.arange(y0, y0 + lhs.shape[0] // n)
            # Block j: delta_x delta_y = delta_(xy) if s(x) = r(y), else 0; y = ys[j].
            j, x = np.nonzero(Q.s[None, :] == Q.r[ys][:, None])
            rule = sp.csr_matrix(
                (np.ones(len(x), dtype=np.complex128), (j * n + x, Q.mult[x, ys[j]])),
                shape=(len(ys) * n, n),
            )
            if matalg.max_row_norm(lhs - rule @ rows) > tol:
                raise GroupoidError("regular representation breaks the convolution")
        star_rows = matalg.star_columns(rows, n)
        perm = sp.csr_matrix(
            (np.ones(n, dtype=np.complex128), (np.arange(n), Q.inv)), shape=(n, n)
        )
        if matalg.max_row_norm(star_rows - perm @ rows) > tol:
            raise GroupoidError("regular representation breaks the involution")


def convolution_algebra(Q: FiniteGroupoid) -> GroupoidAlgebra:
    # Groupoids are immutable; cache the (verified) algebra on the instance.
    if not hasattr(Q, "_conv_algebra"):
        Q._conv_algebra = GroupoidAlgebra(Q)
    return Q._conv_algebra


def skew_product_groupoid(Q: FiniteGroupoid, G: FiniteGroup, c: Cocycle) -> FiniteGroupoid:
    """The skew product Q x_c G: r(x,s) = (r(x), c(x)s), s(x,s) = (s(x), s)."""
    if c.groupoid is not Q or c.group is not G:
        c = Cocycle(Q, G, c.values)
    if hasattr(c, "_skew"):
        return c._skew
    units = [(u, G.name(t)) for u in Q.units for t in G]
    arrows = []
    for i, a in enumerate(Q.arrows):
        for t in G:
            arrows.append(
                (
                    (a, G.name(t)),
                    (Q.units[Q.s[i]], G.name(t)),
                    (Q.units[Q.r[i]], G.name(G.mul(c.of(i), t))),
                )
            )
    mult = []
    for i in range(Q.n_arrows):
        for j in range(Q.n_arrows):
            k = Q.mult[i, j]
            if k < 0:
                continue
            for t in G:
                # (x, c(y) t)(y, t) = (xy, t)
                mult.append(
                    (
                        (Q.arrows[i], G.name(G.mul(c.of(j), t))),
                        (Q.arrows[j], G.name(t)),
                        (Q.arrows[int(k)], G.name(t)),
                    )
                )
    inv = {}
    for i, a in enumerate(Q.arrows):
        for t in G:
            inv[(a, G.name(t))] = (Q.arrows[Q.inv[i]], G.name(G.mul(c.of(i), t)))
    c._skew = make_groupoid(units, arrows, mult, inv)
    return c._skew


class GroupoidAction:
    """A finite-group action by automorphisms of a groupoid, stored as arrow
    permutations (unit permutations are induced)."""

    def __init__(self, Q: FiniteGroupoid, group: FiniteGroup, arrow_perm):
        self.groupoid = Q
        self.group = group
        self.arrow_perm = np.asarray(arrow_perm, dtype=np.int64)
        self.unit_perm = np.zeros((group.order, Q.n_units), dtype=np.int64)
        self._validate()

    def _validate(self):
        Q, G = self.groupoid, self.group
        n = Q.n_arrows
        if self.arrow_perm.shape != (G.order, n):
            raise NotAutomorphism("arrow permutation table has wrong shape")
        if not np.array_equal(
            self.arrow_perm[G.identity_index], np.arange(n)
        ):
            raise NotAutomorphism("identity element acts nontrivially")
        for t in G:
            p = self.arrow_perm[t]
            if sorted(p) != list(range(n)):
                raise NotAutomorphism(f"element {t} does not permute arrows")
            # Unit arrows map to unit arrows; this induces the unit permutation.
            for u in range(Q.n_units):
                img = p[Q.unit_arrow[u]]
                if img not in Q.unit_arrow:
                    raise NotAutomorphism(f"element {t} moves a unit off the units")
                self.unit_perm[t, u] = np.nonzero(Q.unit_arrow == img)[0][0]
            if np.any(self.unit_perm[t][Q.r] != Q.r[p]) or np.any(
                self.unit_perm[t][Q.s] != Q.s[p]
            ):
                raise NotAutomorphism(f"element {t} does not respect r and s")
            ii, jj = np.nonzero(Q.mult >= 0)
            if np.any(p[Q.mult[ii, jj]] != Q.mult[p[ii], p[jj]]):
                raise NotAutomorphism(f"element {t} is not multiplicative")
            if np.any(p[Q.inv] != Q.inv[p]):
                raise NotAutomorphism(f"element {t} does not respect inverses")
        for a in G:
            for b in G:
                if not np.array_equal(
                    self.arrow_perm[G.mul(a, b)],
                    self.arrow_perm[a][self.arrow_perm[b]],
                ):
                    raise NotAutomorphism(f"action law fails at ({a},{b})")

    def arrow(self, t: int, i: int) -> int:
        return int(self.arrow_perm[t, i])


def translation_groupoid_action(skew: FiniteGroupoid, G: FiniteGroup) -> GroupoidAction:
    """s.(x, t) = (x, t s^-1) on a skew-product groupoid."""
    if hasattr(skew, "_translation_action"):
        return skew._translation_action
    perm = np.zeros((G.order, skew.n_arrows), dtype=np.int64)
    for t in G:
        for i, (x, uname) in enumerate(skew.arrows):
            a = G.index(uname)
            perm[t, i] = skew.arrow_index((x, G.name(G.mul(a, G.inv(t)))))
    skew._translation_action = GroupoidAction(skew, G, perm)
    return skew._translation_action


def semidirect_product(
    R: FiniteGroupoid, G: FiniteGroup, action: GroupoidAction
) -> FiniteGroupoid:
    """R x| G with (x,s)(y,t) = (x (s.y), st) and (x,s)^-1 = (s^-1.x^-1, s^-1)."""
    if action.groupoid is not R:
        raise NotAutomorphism("action must act on R")
    if hasattr(action, "_semidirect"):
        return action._semidirect
    units = [(u, G.name(G.identity_index)) for u in R.units]
    arrows = []
    for i, a in enumerate(R.arrows):
        for t in G:
            src_unit = R.units[action.unit_perm[G.inv(t), R.s[i]]]
            arrows.append(
                (
                    (a, G.name(t)),
                    (src_unit, G.name(G.identity_index)),
                    (R.units[R.r[i]], G.name(G.identity_index)),
                )
            )
    mult = []
    for i in range(R.n_arrows):
        for s_ in G:
            for j in range(R.n_arrows):
                for t in G:
                    yj = action.arrow(s_, j)
                    if R.mult[i, yj] < 0:
                        continue
                    mult.append(
                        (
                            (R.arrows[i], G.name(s_)),
                            (R.arrows[j], G.name(t)),
                            (R.arrows[R.mult[i, yj]], G.name(G.mul(s_, t))),
                        )
                    )
    inv = {}
    for i, a in enumerate(R.arrows):
        for t in G:
            inv[(a, G.name(t))] = (
                R.arrows[action.arrow(G.inv(t), R.inv[i])],
                G.name(G.inv(t)),
            )
    action._semidirect = make_groupoid(units, arrows, mult, inv)
    return action._semidirect


def algebra_action_from_groupoid_action(
    alg: GroupoidAlgebra, action: GroupoidAction
) -> AlgebraAction:
    """beta_s(f)(x) = f(s^-1 . x), as conjugation by the arrow permutation."""
    Q = alg.groupoid
    G = action.group
    n = Q.n_arrows
    unitaries = [
        sp.csr_matrix(
            (np.ones(n, dtype=np.complex128), (action.arrow_perm[t], np.arange(n))),
            shape=(n, n),
        )
        for t in G
    ]
    act = AlgebraAction.from_unitary_conjugation(
        alg.span, G, unitaries, name="groupoid automorphism action"
    )
    # beta_s delta_x = delta_{s.x} exactly.
    for t in G:
        perm = sp.csr_matrix(
            (np.ones(n, dtype=np.complex128),
             (np.arange(n), action.arrow_perm[t])),
            shape=(n, n),
        )
        if matalg.max_row_norm(act.image_rows(t) - perm @ alg.span.rows) > 1e-12:
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
    tol: float = 1e-12,
    n_random: int = 100,
    rng: np.random.Generator | None = None,
) -> dict:
    """The canonical map i : C*(N) -> C*(Q), N = c^-1(e), is a faithful
    *-homomorphism at finite scale, with P_N = P_Q o i.

    A failure here signals an implementation bug: every finite groupoid
    passes.
    """
    rng = rng or np.random.default_rng(0)
    G = c.group
    keep = np.nonzero(c.values == G.identity_index)[0]
    alg_n = convolution_algebra(kernel_subgroupoid(Q, c))
    alg_q = convolution_algebra(Q)

    image = alg_q.span.rows[keep]
    report = matalg.star_map_on_basis(
        alg_n.span, image, Q.n_arrows, alg_n.span.rows, image, tol=max(tol, 1e-9)
    )
    # Once i is a *-homomorphism its image is a *-subalgebra, so the closure
    # of the image has the rank of the image rows: the star-map report's
    # injectivity is dim i(C*(N)) = dim C*(N).
    out = {
        "n_arrows": int(len(keep)),
        "dim_preserved": report.injective,
        "injective": report.injective,
        "star_hom_ok": report.passed,
    }
    err = 0.0
    for _ in range(n_random):
        f = rng.standard_normal(alg_n.dim) + 1j * rng.standard_normal(alg_n.dim)
        lhs = alg_n.restrict_to_units(f)
        big = np.zeros(Q.n_arrows, dtype=np.complex128)
        big[keep] = f
        rhs = alg_q.restrict_to_units(big)
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    out["expectation_error"] = err
    out["expectation_ok"] = err <= tol
    if not all(v for k, v in out.items() if k.endswith("_ok") or isinstance(v, bool)):
        raise GroupoidError(f"kernel embedding check failed: {out}")
    return out


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
    operations and contain all unit arrows of the touched units)."""
    keep = sorted(int(k) for k in keep)
    kset = set(keep)
    for i in keep:
        if int(Q.inv[i]) not in kset:
            raise GroupoidError("arrow set not closed under inverse")
        for j in keep:
            k = Q.mult[i, j]
            if k >= 0 and int(k) not in kset:
                raise GroupoidError("arrow set not closed under multiplication")
    units = sorted({int(Q.r[i]) for i in keep} | {int(Q.s[i]) for i in keep})
    for u in units:
        if int(Q.unit_arrow[u]) not in kset:
            raise GroupoidError("arrow set misses a unit arrow")
    unit_names = [Q.units[u] for u in units]
    arrows = [(Q.arrows[i], Q.units[Q.s[i]], Q.units[Q.r[i]]) for i in keep]
    mult = []
    for i in keep:
        for j in keep:
            k = Q.mult[i, j]
            if k >= 0:
                mult.append((Q.arrows[i], Q.arrows[j], Q.arrows[int(k)]))
    inv = {Q.arrows[i]: Q.arrows[Q.inv[i]] for i in keep}
    return make_groupoid(unit_names, arrows, mult, inv)


def _right_rule_coeffs(span: AlgebraSpan, factors, tol: float):
    """Coefficient matrices of right multiplication by the basis elements
    ``factors``, one chunk of them at a time: in each yielded matrix, rows
    j d to (j + 1) d - 1 expand b_i b_l, i < d = dim, for the j-th l of the chunk."""
    for _, prods in matalg.right_products(span.rows, span.rows[factors], span.ambient_dim):
        coeffs, resid = span.coefficients_rows(prods)
        if resid > tol:
            raise GroupoidError("span is not closed under multiplication")
        coeffs.data[np.abs(coeffs.data) < 1e-13] = 0.0
        coeffs.eliminate_zeros()
        yield coeffs


def _crossed_index(R: FiniteGroupoid, G: FiniteGroup, semi: FiniteGroupoid) -> np.ndarray:
    """The bijection delta_(x,s) -> basis (x, s) of C*(R) x_beta G: arrow k of
    R x| G goes to crossed-product index i |G| + s, x = arrow i of R."""
    perm = np.zeros(semi.n_arrows, dtype=np.int64)
    for i, a in enumerate(R.arrows):
        for t in G:
            perm[semi.arrow_index((a, G.name(t)))] = i * G.order + t
    return perm


def _crossed_parts(alg: GroupoidAlgebra, G: FiniteGroup, perm: np.ndarray, fs) -> dict:
    """Phi(f) = sum_s pi~(f_s) u~_s, f_s(x) = f(x, s), for stacked functions f
    on R x| G: the stacked rows vec(pi(f_s)) of every f, keyed by s."""
    coeffs = np.zeros((len(fs), len(perm)), dtype=np.complex128)
    coeffs[:, perm] = fs
    d = len(perm) // G.order
    return {s: alg.represent_rows(coeffs[:, np.arange(d) * G.order + s]) for s in G}


def certify_semi_cross(
    R: FiniteGroupoid,
    G: FiniteGroup,
    action: GroupoidAction,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> IsomorphismCertificate:
    """Certify C*(R x| G) = C*(R) x_beta G via Phi(f)(s)(x) = f(x, s).

    On basis functions Phi sends delta_(x,s) to pi~(delta_x) u~_s, a bijection
    of orthogonal spanning sets; the certification compares the structure
    constants and involutions of both sides through that bijection and spot
    checks Phi(f g) = Phi(f) Phi(g) on random convolution elements.
    """
    rng = rng or np.random.default_rng(0)
    semi = semidirect_product(R, G, action)
    lhs_alg = convolution_algebra(semi)
    base_alg = convolution_algebra(R)
    acp = action_crossed_product(action)
    perm = _crossed_index(R, G, semi)
    d = semi.n_arrows

    # The right-multiplication rule of each delta_(x,s) against the rule of
    # its image, transported back through the bijection; a chunk at a time.
    max_err = 0.0
    for c_dom, c_img in zip(
        _right_rule_coeffs(lhs_alg.span, np.arange(d), tol),
        _right_rule_coeffs(acp.span, perm, tol),
    ):
        blocks = c_dom.shape[0] // d
        back = (np.arange(blocks)[:, None] * d + perm[None, :]).ravel()
        diff = (c_dom - c_img[back][:, perm]).tocsr()
        for j in range(blocks):
            max_err = max(max_err, frobenius(diff[j * d : (j + 1) * d]))
    # Involutions agree through the bijection.
    star_dom, resid = lhs_alg.span.coefficients_rows(
        matalg.star_columns(lhs_alg.span.rows, semi.n_arrows)
    )
    max_err = max(max_err, resid)
    star_img, resid = acp.span.coefficients_rows(
        matalg.star_columns(acp.span.rows, acp.ambient_dim)
    )
    max_err = max(max_err, resid)
    max_err = max(max_err, frobenius(star_dom - star_img[perm][:, perm]))

    # Phi(f g) = Phi(f) Phi(g) on four random pairs, drawn first: the rows
    # (f, g, f g) of all pairs go through pi~ together, and each matrix is
    # assembled as acp.element assembles one, so its products round the same.
    draws = []
    for _ in range(4):
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        draws += [f, g, lhs_alg.convolve(f, g)]
    mats = acp.elements(_crossed_parts(base_alg, G, perm, np.array(draws)))
    conv_err = 0.0
    for k in range(0, len(mats), 3):
        conv_err = max(conv_err, frobenius(mats[k] @ mats[k + 1] - mats[k + 2]))

    return IsomorphismCertificate(
        theorem="semi-cross",
        lhs_name="C*(R x| G)",
        rhs_name="C*(R) x_beta G",
        lhs_dim=lhs_alg.dim,
        rhs_dim=acp.dim,
        tolerance=tol,
        extra={
            "structure_constants_ok": max_err <= tol,
            "structure_error": max_err,
            "random_convolution_ok": conv_err <= tol,
            "random_convolution_error": conv_err,
            "bijection_ok": sorted(perm.tolist()) == list(range(semi.n_arrows)),
        },
    )


def certify_gpd_iso(
    Q: FiniteGroupoid,
    G: FiniteGroup,
    c: Cocycle,
    tol: float = 1e-8,
) -> IsomorphismCertificate:
    """Certify C*(Q) x_delta G = C*(Q x_c G) via Psi(f, t) = f at coordinate t.

    Builds the cocycle grading of C*(Q), verifies the coaction, requires the
    kernel embedding check to pass, and certifies Psi as a *-isomorphism onto
    the skew-product convolution algebra, equivariantly for the dual action
    and right translation.
    """
    kernel_report = kernel_embedding_check(Q, c)
    alg = convolution_algebra(Q)
    graded = graded_convolution(alg, c)
    coaction_report = verify_graded_coaction(graded)
    ccp = CoactionCrossedProduct(graded, graded_checked=False)
    skew = skew_product_groupoid(Q, G, c)
    skew_alg = convolution_algebra(skew)
    m = G.order

    # Psi on the spanning set: (delta_x, u) -> delta_(x, u).
    perm = np.zeros(ccp.dim, dtype=np.int64)
    for i, a in enumerate(Q.arrows):
        for u in G:
            perm[i * m + u] = skew.arrow_index((a, G.name(u)))
    image_rows = skew_alg.span.rows[perm]
    inv_perm = np.argsort(perm)
    inverse_rows = ccp.span.rows[inv_perm]

    # The generators j_A(delta_x) = sum_u (delta_x, u), then j_G(chi_u) =
    # sum_v (delta_v, u) over the unit arrows v, as 0/1 sums of spanning
    # elements; Psi of each is the same sum of their images.
    units = sp.csr_matrix((np.ones(Q.n_units), (np.zeros(Q.n_units, dtype=np.int64),
                                                Q.unit_arrow)), shape=(1, Q.n_arrows))
    sums = sp.vstack([sp.kron(sp.identity(Q.n_arrows), np.ones((1, m))),
                      sp.kron(units, sp.identity(m))], format="csr")
    report = matalg.star_map_on_basis(
        ccp.span,
        image_rows,
        skew.n_arrows,
        ccp.span.gen_rows,
        sums @ image_rows,
        tol=tol,
        target=skew_alg.span,
        inverse_rows=inverse_rows,
        check_right=False,
    )

    # Equivariance: Psi delta^_s = beta_s Psi on the spanning set, with both
    # actions realized concretely (Ad(1 x rho_s) and the translation action).
    dual = ccp.dual_action()
    beta = induced_algebra_action(translation_groupoid_action(skew, G))
    eq_err = 0.0
    for s_ in G:
        lhs = dual.coeff_mats[s_] @ sp.csr_matrix(
            (np.ones(ccp.dim), (np.arange(ccp.dim), perm)), shape=(ccp.dim, skew.n_arrows)
        )
        rhs = sp.csr_matrix(
            (np.ones(ccp.dim), (np.arange(ccp.dim), perm)), shape=(ccp.dim, skew.n_arrows)
        ) @ beta.coeff_mats[s_]
        eq_err = max(eq_err, frobenius(lhs - rhs))

    return IsomorphismCertificate(
        theorem="gpd-iso",
        lhs_name="C*(Q) x_delta G",
        rhs_name="C*(Q x_c G)",
        lhs_dim=ccp.dim,
        rhs_dim=skew_alg.dim,
        tolerance=tol,
        star_report=report,
        equivariance_error=eq_err,
        extra={
            "kernel_embedding_ok": bool(kernel_report["dim_preserved"]),
            "coaction_ok": coaction_report["injective"],
        },
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
    sig_l = matalg.wedderburn_signature(acp.span, rng=rng)
    sig_r = matalg.wedderburn_signature(target, rng=rng)
    return IsomorphismCertificate(
        theorem="full-gpd",
        lhs_name="C*(Q x_c G) x_beta G",
        rhs_name="C*(Q) (x) M_|G|",
        lhs_dim=acp.dim,
        rhs_dim=target.dim,
        tolerance=tol,
        signatures={"lhs": sig_l, "rhs": sig_r},
        extra={"dim_arithmetic_ok": acp.dim == Q.n_arrows * G.order**2},
    )


def expectations_and_norm_identities(
    R: FiniteGroupoid,
    G: FiniteGroup,
    action: GroupoidAction,
    tol: float = 1e-9,
    n_random: int = 100,
    rng: np.random.Generator | None = None,
) -> dict:
    """Conditional-expectation identities for the semidirect product.

    (i)   || P_R(beta_s(f)) || = || P_R(f) || exactly (sup over units);
    (ii)  || P_{R x| G}(b) || = || P_R(P_{C*(R) x G}(Phi(b))) || on random b;
    (iii) P_R is faithful on positives: P_R(f* f) has positive sup norm for
          random nonzero f.
    """
    rng = rng or np.random.default_rng(0)
    base_alg = convolution_algebra(R)
    semi = semidirect_product(R, G, action)
    acp = action_crossed_product(action)
    out = {}

    err = 0.0
    for _ in range(max(8, n_random // 10)):
        f = rng.standard_normal(R.n_arrows) + 1j * rng.standard_normal(R.n_arrows)
        norm_f = base_alg.unit_sup_norm(f)
        for s_ in G:
            moved = np.zeros_like(f)
            moved[action.arrow_perm[s_]] = f  # beta_s(f)(x) = f(s^-1 . x)
            err = max(err, abs(base_alg.unit_sup_norm(moved) - norm_f))
    out["translation_norm_error"] = err
    out["translation_norm_ok"] = err == 0.0

    # f supported off the units has P_R(f) = 0.
    off = np.ones(R.n_arrows, dtype=np.complex128)
    off[R.unit_arrow] = 0.0
    out["off_units_ok"] = base_alg.unit_sup_norm(off) == 0.0

    # (ii) on all draws, a chunk of stacked rows Phi(b) at a time; every row
    # must lie in the crossed product (1e-6) and its expectation in C*(R).
    draws = [
        rng.standard_normal(semi.n_arrows) + 1j * rng.standard_normal(semi.n_arrows)
        for _ in range(n_random)
    ]
    perm = _crossed_index(R, G, semi)
    err = 0.0
    for k0 in range(0, n_random, matalg.CHUNK):
        b = np.array(draws[k0 : k0 + matalg.CHUNK])
        x_rows = acp.element_rows(_crossed_parts(base_alg, G, perm, b))
        f_e = base_alg.to_functions(acp.conditional_expectation_rows(x_rows, tol=1e-6))
        lhs = np.max(np.abs(b[:, semi.unit_arrow]), axis=1)
        rhs = np.max(np.abs(f_e[:, R.unit_arrow]), axis=1)
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    out["red_semi_cross_error"] = err
    out["red_semi_cross_ok"] = err <= tol

    min_norm = np.inf
    for _ in range(n_random):
        f = rng.standard_normal(R.n_arrows) + 1j * rng.standard_normal(R.n_arrows)
        pos = base_alg.convolve(base_alg.star(f), f)
        min_norm = min(min_norm, base_alg.unit_sup_norm(pos))
    out["faithfulness_min_norm"] = float(min_norm)
    out["faithfulness_ok"] = min_norm > 1e-6
    bad = [k for k, v in out.items() if k.endswith("_ok") and not v]
    if bad:
        raise IdentityViolated(f"expectation identities failed: {bad} ({out})")
    return out


class EquivalenceBimodule:
    """A groupoid equivalence: a carrier with commuting free left and right
    actions whose moment maps induce bijections onto the opposite unit spaces.

    ``left_act[(h, z)]`` is defined exactly when the left source of arrow h
    matches rho(z); similarly ``right_act[(z, n)]`` when sigma(z) matches the
    range of n.  All axioms are verified exhaustively over the (finite)
    carrier; properness is automatic and recorded as such.
    """

    def __init__(self, left: FiniteGroupoid, right: FiniteGroupoid, carrier,
                 rho, sigma, left_act: dict, right_act: dict):
        self.left = left
        self.right = right
        self.carrier = list(carrier)
        self.rho = np.asarray(rho, dtype=np.int64)
        self.sigma = np.asarray(sigma, dtype=np.int64)
        self.left_act = dict(left_act)
        self.right_act = dict(right_act)

    def verify(self) -> dict:
        L, N = self.left, self.right
        nz = len(self.carrier)
        out = {"carrier_size": nz, "properness": "automatic (finite carrier)"}
        if set(self.rho.tolist()) != set(range(L.n_units)):
            raise AxiomFailed("left moment map is not surjective")
        if set(self.sigma.tolist()) != set(range(N.n_units)):
            raise AxiomFailed("right moment map is not surjective")
        out["moment_maps_surjective"] = True

        expected_left = {
            (h, z) for h in range(L.n_arrows) for z in range(nz)
            if L.s[h] == self.rho[z]
        }
        if set(self.left_act.keys()) != expected_left:
            raise AxiomFailed("left action domain mismatch")
        expected_right = {
            (z, n) for z in range(nz) for n in range(N.n_arrows)
            if self.sigma[z] == N.r[n]
        }
        if set(self.right_act.keys()) != expected_right:
            raise AxiomFailed("right action domain mismatch")
        out["domains_ok"] = True

        for (h, z), w in self.left_act.items():
            if self.rho[w] != L.r[h] or self.sigma[w] != self.sigma[z]:
                raise AxiomFailed(f"left action breaks moment maps at ({h},{z})")
        for (z, n), w in self.right_act.items():
            if self.sigma[w] != N.s[n] or self.rho[w] != self.rho[z]:
                raise AxiomFailed(f"right action breaks moment maps at ({z},{n})")
        out["moment_compatibility_ok"] = True

        for z in range(nz):
            h = int(L.unit_arrow[self.rho[z]])
            if self.left_act[(h, z)] != z:
                raise AxiomFailed(f"left unit moves carrier cell {z}")
            n = int(N.unit_arrow[self.sigma[z]])
            if self.right_act[(z, n)] != z:
                raise AxiomFailed(f"right unit moves carrier cell {z}")
        out["unit_actions_ok"] = True

        for (h2, z), w in self.left_act.items():
            for h1 in range(L.n_arrows):
                if L.s[h1] != L.r[h2]:
                    continue
                if self.left_act[(h1, w)] != self.left_act[(int(L.mult[h1, h2]), z)]:
                    raise AxiomFailed("left action is not associative")
        for (z, n1), w in self.right_act.items():
            for n2 in range(N.n_arrows):
                if N.r[n2] != N.s[n1]:
                    continue
                if self.right_act[(w, n2)] != self.right_act[(z, int(N.mult[n1, n2]))]:
                    raise AxiomFailed("right action is not associative")
        out["associativity_ok"] = True

        for (h, z), w in self.left_act.items():
            for n in range(N.n_arrows):
                if self.sigma[z] != N.r[n]:
                    continue
                if self.right_act[(w, n)] != self.left_act[(h, self.right_act[(z, n)])]:
                    raise AxiomFailed("actions do not commute")
        out["commuting_ok"] = True

        for (h, z), w in self.left_act.items():
            if w == z and h != int(L.unit_arrow[L.r[h]]):
                raise AxiomFailed(f"left action is not free: arrow {h} fixes {z}")
        for (z, n), w in self.right_act.items():
            if w == z and n != int(N.unit_arrow[N.r[n]]):
                raise AxiomFailed(f"right action is not free: arrow {n} fixes {z}")
        out["freeness_ok"] = True

        # rho factors through carrier / right-orbits onto the left units, and
        # sigma through left-orbits \ carrier onto the right units.
        for z in range(nz):
            for z2 in range(nz):
                if self.rho[z] == self.rho[z2]:
                    if not any(
                        self.right_act.get((z, n)) == z2 for n in range(N.n_arrows)
                    ):
                        raise AxiomFailed("rho does not separate right orbits")
                if self.sigma[z] == self.sigma[z2]:
                    if not any(
                        self.left_act.get((h, z)) == z2 for h in range(L.n_arrows)
                    ):
                        raise AxiomFailed("sigma does not separate left orbits")
        out["orbit_bijections_ok"] = True
        return out


def certify_equivalence(
    kind: str,
    Q: FiniteGroupoid,
    G: FiniteGroup,
    c: Cocycle,
    rng: np.random.Generator | None = None,
) -> tuple[EquivalenceBimodule, dict]:
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
    if kind == "semidirect":
        trans = translation_groupoid_action(skew, G)
        L = semidirect_product(skew, G, trans)
        carrier = list(skew.arrows)  # cells (x, s)
        rho, sigma = [], []
        for k, (x_name, s_name) in enumerate(carrier):
            ru = skew.units[skew.r[skew.arrow_index((x_name, s_name))]]
            rho.append(L.unit_index((ru, G.name(G.identity_index))))
            sigma.append(Q.s[Q.arrow_index(x_name)])
        left_act = {}
        for h in range(L.n_arrows):
            (y_name, a_name), t_name = L.arrows[h]
            y = Q.arrow_index(y_name)
            t = G.index(t_name)
            for z, (x_name, s_name) in enumerate(carrier):
                if L.s[h] != rho[z]:
                    continue
                x = Q.arrow_index(x_name)
                s_ = G.index(s_name)
                w = (Q.arrows[int(Q.mult[y, x])], G.name(G.mul(s_, G.inv(t))))
                left_act[(h, z)] = carrier.index(w)
        right_act = {}
        for z, (x_name, s_name) in enumerate(carrier):
            x = Q.arrow_index(x_name)
            s_ = G.index(s_name)
            for n in range(Q.n_arrows):
                if sigma[z] != Q.r[n]:
                    continue
                w = (
                    Q.arrows[int(Q.mult[x, n])],
                    G.name(G.mul(G.inv(int(c.values[n])), s_)),
                )
                right_act[(z, n)] = carrier.index(w)
        bim = EquivalenceBimodule(L, Q, carrier, rho, sigma, left_act, right_act)
        report = bim.verify()
        report["kind"] = kind
        report.update(_semidirect_properness_sets(Q, G, c, L, bim, rng))
        return bim, report

    if kind == "subgroupoid":
        keep = []
        for k, (x_name, t_name) in enumerate(skew.arrows):
            x = Q.arrow_index(x_name)
            t = G.index(t_name)
            if any(
                int(c.values[y]) == t
                for y in Q.arrows_with_range(int(Q.s[x]))
            ):
                keep.append(k)
        H = subgroupoid_on_arrows(skew, keep)
        N_sub = kernel_subgroupoid(Q, c)
        carrier = list(Q.arrows)
        rho, sigma = [], []
        for y in range(Q.n_arrows):
            rho.append(
                H.unit_index((Q.units[Q.r[y]], G.name(int(c.values[y]))))
            )
            sigma.append(N_sub.unit_index(Q.units[Q.s[y]]))
        left_act = {}
        for h in range(H.n_arrows):
            x_name, t_name = H.arrows[h]
            x = Q.arrow_index(x_name)
            for z in range(Q.n_arrows):
                if H.s[h] != rho[z]:
                    continue
                left_act[(h, z)] = int(Q.mult[x, z])
        right_act = {}
        for z in range(Q.n_arrows):
            for n in range(N_sub.n_arrows):
                if sigma[z] != N_sub.r[n]:
                    continue
                right_act[(z, n)] = int(Q.mult[z, Q.arrow_index(N_sub.arrows[n])])
        bim = EquivalenceBimodule(H, N_sub, carrier, rho, sigma, left_act, right_act)
        report = bim.verify()
        report["kind"] = kind
        report["h_units"] = H.n_units
        report.update(_subgroupoid_properness_sets(Q, G, c, H, bim, rng))
        return bim, report

    raise ValueError(f"unknown equivalence kind {kind!r}")


def _semidirect_properness_sets(Q, G, c, L, bim, rng):
    """The compact-set containments behind properness, on random windows:
    if (h.(y,r), (y,r)) lands in (Lset x F)^2 then the parts of h satisfy
    x in Lset Lset^-1, s in c(Lset) F F^-1 F, t in F^-1 F."""
    arrows = list(range(Q.n_arrows))
    Lset = set(rng.choice(arrows, size=max(1, Q.n_arrows // 2), replace=False).tolist())
    F = set(rng.choice(G.order, size=max(1, G.order // 2 + 1), replace=False).tolist())
    LLinv = {int(Q.mult[i, Q.inv[j]]) for i in Lset for j in Lset if Q.s[i] == Q.s[j]}
    cL = {int(c.values[i]) for i in Lset}
    FFinv = {G.mul(a, G.inv(b)) for a in F for b in F}
    cLFFF = {G.mul(x, G.mul(y, z)) for x in cL for y in FFinv for z in F}
    ok = True
    for (h, z), w in bim.left_act.items():
        (y_name, a_name), t_name = L.arrows[h]
        x_cell, s_cell = bim.carrier[z]
        wx, ws = bim.carrier[w]
        in_window = (
            Q.arrow_index(x_cell) in Lset and G.index(s_cell) in F
            and Q.arrow_index(wx) in Lset and G.index(ws) in F
        )
        if not in_window:
            continue
        y = Q.arrow_index(y_name)
        if y not in LLinv or G.index(a_name) not in cLFFF or G.index(t_name) not in FFinv:
            ok = False
    return {"properness_window_ok": ok}


def _subgroupoid_properness_sets(Q, G, c, H, bim, rng):
    """If ((x,t).y, y) lands in Lset x Lset then x in Lset Lset^-1 and
    t in c(Lset)."""
    arrows = list(range(Q.n_arrows))
    Lset = set(rng.choice(arrows, size=max(1, Q.n_arrows // 2), replace=False).tolist())
    LLinv = {int(Q.mult[i, Q.inv[j]]) for i in Lset for j in Lset if Q.s[i] == Q.s[j]}
    cL = {int(c.values[i]) for i in Lset}
    ok = True
    for (h, z), w in bim.left_act.items():
        if z not in Lset or w not in Lset:
            continue
        x_name, t_name = H.arrows[h]
        if Q.arrow_index(x_name) not in LLinv or G.index(t_name) not in cL:
            ok = False
    return {"properness_window_ok": ok}


class InnerProductEvaluator:
    """Evaluates <a, b> in C_c(N) both ways: by the general equivalence
    formula over the auxiliary groupoid H, and by the graded simplification
    sum_t a_t* b_t.  The H-sum index arrays are precomputed so repeated
    evaluations are cheap; the general formula is evaluated for every
    admissible auxiliary element y, whose choice must not affect the value.
    """

    def __init__(self, Q: FiniteGroupoid, c: Cocycle):
        self.groupoid = Q
        self.cocycle = c
        self.group = c.group
        G = c.group
        self.algebra = convolution_algebra(Q)
        self.n_keep = np.nonzero(c.values == G.identity_index)[0]
        # H-arrows (x, t): t lies in c of the arrows into s(x).
        h_arrows = []
        for x in range(Q.n_arrows):
            seen = {int(c.values[y]) for y in Q.arrows_with_range(int(Q.s[x]))}
            h_arrows.extend((x, t) for t in seen)
        # For each n in N and each admissible y, the term list (z, z n).
        self._terms = {}
        for n in self.n_keep:
            per_y = []
            for y in np.nonzero(Q.s == Q.r[n])[0]:
                zs, zns = [], []
                for x, t in h_arrows:
                    # r_H(x, t) = (r(x), c(x) t) must equal rho(y) = (r(y), c(y)).
                    if Q.r[x] != Q.r[y]:
                        continue
                    if G.mul(int(c.values[x]), t) != int(c.values[y]):
                        continue
                    z = int(Q.mult[Q.inv[x], y])
                    zs.append(z)
                    zns.append(int(Q.mult[z, n]))
                per_y.append((np.array(zs, dtype=np.int64), np.array(zns, dtype=np.int64)))
            self._terms[int(n)] = per_y

    def general_formula(self, a, b, tol: float = 1e-9, all_y: bool = True):
        a = np.asarray(a, dtype=np.complex128)
        b = np.asarray(b, dtype=np.complex128)
        out = np.zeros(self.groupoid.n_arrows, dtype=np.complex128)
        ambiguity = 0.0
        for n in self.n_keep:
            per_y = self._terms[int(n)] if all_y else self._terms[int(n)][:1]
            vals = [
                complex(np.sum(np.conj(a[zs]) * b[zns])) for zs, zns in per_y
            ]
            out[int(n)] = vals[0]
            ambiguity = max(ambiguity, max(abs(v - vals[0]) for v in vals))
        if ambiguity > tol:
            raise FormulaMismatch(
                f"general inner-product formula depends on the choice of y ({ambiguity:.2e})"
            )
        return out, ambiguity

    def simplified_formula(self, a, b, tol: float = 1e-9):
        G = self.group
        alg = self.algebra
        a = np.asarray(a, dtype=np.complex128)
        b = np.asarray(b, dtype=np.complex128)
        out = np.zeros(self.groupoid.n_arrows, dtype=np.complex128)
        for t in G:
            mask = self.cocycle.values == t
            out += alg.convolve(alg.star(np.where(mask, a, 0)), np.where(mask, b, 0))
        off_n = out.copy()
        off_n[self.n_keep] = 0
        if np.max(np.abs(off_n)) > tol:
            raise FormulaMismatch("sum_t a_t* b_t is not supported in N")
        return out

    def __call__(self, a, b, tol: float = 1e-9, all_y: bool = True):
        """<a, b> as a coefficient function on the arrows of N = c^-1(e), and a
        report; raises :class:`FormulaMismatch` if the two formulas disagree."""
        general, ambiguity = self.general_formula(a, b, tol=tol, all_y=all_y)
        simplified = self.simplified_formula(a, b, tol=tol)
        err = float(np.max(np.abs(general - simplified)))
        if err > tol:
            raise FormulaMismatch(f"inner-product formulas disagree by {err:.2e}")
        return general[self.n_keep], {
            "formula_agreement_error": err,
            "y_ambiguity": ambiguity,
        }


def verify_bimodule_module_structure(
    Q: FiniteGroupoid,
    c: Cocycle,
    tol: float = 1e-9,
    n_random: int = 100,
    rng: np.random.Generator | None = None,
) -> dict:
    """Randomized verification of the pre-Hilbert module structure on C_c(Q):

    - the module action a . f (f in C_c(N)) agrees with convolution;
    - <a b, c> = <b, a* c> (adjointability);
    - Gram matrices [<a_i, a_j>] are positive semidefinite in C*(N);
    - <a b, a b> <= ||a||^2 <b, b> as operators in C*(N).
    """
    rng = rng or np.random.default_rng(0)
    G = c.group
    evaluator = InnerProductEvaluator(Q, c)
    alg = evaluator.algebra
    N_keep = evaluator.n_keep
    N_sub = kernel_subgroupoid(Q, c)
    alg_n = convolution_algebra(N_sub)
    out = {}

    def rand_fn():
        return rng.standard_normal(Q.n_arrows) + 1j * rng.standard_normal(Q.n_arrows)

    def inner(x, y):
        val, _ = evaluator(x, y, tol=tol, all_y=False)
        return val

    # Module action: a . f = a * f for f supported in N.
    err = 0.0
    for _ in range(8):
        a = rand_fn()
        f_small = rng.standard_normal(len(N_keep)) + 1j * rng.standard_normal(len(N_keep))
        f = np.zeros(Q.n_arrows, dtype=np.complex128)
        f[N_keep] = f_small
        action = np.zeros(Q.n_arrows, dtype=np.complex128)
        for x in range(Q.n_arrows):
            for n in N_keep:
                if Q.r[n] != Q.s[x]:
                    continue
                action[x] += a[int(Q.mult[x, n])] * f[int(Q.inv[n])]
        err = max(err, float(np.max(np.abs(action - alg.convolve(a, f)))))
    out["module_action_error"] = err
    out["module_action_ok"] = err <= tol

    err = 0.0
    for _ in range(n_random):
        x, y, z = rand_fn(), rand_fn(), rand_fn()
        lhs = inner(alg.convolve(x, y), z)
        rhs = inner(y, alg.convolve(alg.star(x), z))
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    out["adjointability_error"] = err
    out["adjointability_ok"] = err <= tol * 10

    worst = 0.0
    n, nn = alg.groupoid.n_arrows, alg_n.groupoid.n_arrows
    for _ in range(4):
        elems = [rand_fn() for _ in range(3)]
        k = len(elems)
        # pi(<a_i, a_j>) at row i k + j, moved to block (i, j) of the Gram matrix.
        vals = alg_n.represent_rows([inner(x, y) for x in elems for y in elems]).toarray()
        gram = vals.reshape(k, k, nn, nn).transpose(0, 2, 1, 3).reshape(k * nn, k * nn)
        ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        worst = min(worst, float(ev[0]))
    out["gram_min_eigenvalue"] = worst
    if worst < -tol * 100:
        raise PositivityFailed(f"Gram matrix has negative eigenvalue {worst:.2e}")
    out["gram_psd_ok"] = True

    worst = 0.0
    for _ in range(8):
        a, b = rand_fn(), rand_fn()
        ab = alg.convolve(a, b)
        norm_a = matalg.operator_norm(alg.represent_rows([a]).reshape(n, n))
        lhs, rhs = alg_n.represent_rows([inner(ab, ab), inner(b, b)]).toarray().reshape(2, nn, nn)
        rhs = norm_a**2 * rhs
        ev = np.linalg.eigvalsh((rhs - lhs + (rhs - lhs).conj().T) / 2)
        worst = min(worst, float(ev[0]) / max(1.0, norm_a**2))
    out["boundedness_min_eigenvalue"] = worst
    if worst < -tol * 100:
        raise PositivityFailed(f"||pi(a)|| <= ||a|| bound fails by {worst:.2e}")
    out["boundedness_ok"] = True
    return out
