"""Concrete crossed products for finite groups.

Crossed products by actions are realized through the regular covariant
representation inside A (x) M_|G|,

    pi~(a) = sum_t gamma_{t^-1}(a) (x) chi_t        u~_s = 1 (x) lam_s,

and crossed products by coactions through the induced regular representation
inside A (x) M_|G|, spanned by (a_t, u) = a_t (x) lam_t chi_u over graded
basis elements a_t and u in G.  A coaction of a finite group is the same thing
as a grading (Quigg 1996), so both the graph and the groupoid coactions are a
:class:`GradedSpan`, delta(a_t) = a_t (x) lam_t, and :func:`coaction_check`
compares delta with the coaction's formula on generators.  For finite groups
these representations are faithful; the constructors verify this by dimension
count instead of assuming it: the spanning families are orthogonal of the
expected cardinality, so

    dim(A x_gamma G) = dim(A) |G|        dim(A x_delta G) = dim(A) |G|.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from . import matalg
from .graphs import GraphAction
from .groups import FiniteGroup, action_law_failure, regular_rows
from .matalg import AlgebraSpan, Check

if TYPE_CHECKING:
    from .graphalg import CKFamily


# Spanning-set size up to which the product-degree law is checked for every right factor.
_PAIR_CAP = 256


class ActionInvalid(ValueError):
    pass


def _ad_perm(rows: sp.spmatrix, perm: np.ndarray, n: int) -> sp.csr_matrix:
    """vec(U X U*) for every row vec(X) of ``rows``, U the permutation matrix
    e_i -> e_(perm[i]): entry (i, j) of X moves to (perm[i], perm[j])."""
    r, c, x = matalg._entries(rows.tocsr())
    i, j = np.divmod(c, n)
    return matalg._csr(x, r, perm[i] * n + perm[j], rows.shape)


class AlgebraAction:
    """A finite-group action by *-automorphisms of an AlgebraSpan.

    Stored as coefficient matrices on the span basis: row i of
    ``coeff_mats[t]`` expands gamma_t(b_i).  The constructor takes them as
    given; :meth:`from_permutations` builds and verifies them for an action
    gamma_t = Ad(U_t) by permutation matrices, the form of every action in
    the paper: translating paths, permuting arrows, and the dual action.
    """

    def __init__(self, span: AlgebraSpan, group: FiniteGroup, coeff_mats,
                 name: str = "action"):
        self.span = span
        self.group = group
        self.coeff_mats = [m.tocsr() for m in coeff_mats]
        self.name = name

    @classmethod
    def from_permutations(
        cls,
        span: AlgebraSpan,
        group: FiniteGroup,
        perms,
        name: str = "action",
    ) -> "AlgebraAction":
        """Action gamma_t = Ad(U_t), U_t the permutation matrix sending e_i to
        e_(perms[t, i]).

        Ad of a permutation matrix is a *-automorphism of the ambient matrix
        algebra, so the verification reduces to exact facts about the integer
        table: each row is a bijection, U_e = 1 and U_s U_t = U_st; and to
        one residual gate: Ad(U_t) maps the span into itself.
        """
        G = group
        n = span.ambient_dim
        perms = np.asarray(perms, dtype=np.int64)
        if perms.shape != (G.order, n):
            raise ActionInvalid(f"{name}: permutation table has wrong shape")
        fail = action_law_failure(G, perms)
        if fail:
            rule, witness = fail
            raise ActionInvalid(f"{name}: " + {
                "identity": "U_e is not the identity", "bijection": "U_{} is not unitary",
                "law": "U is not a homomorphism at ({},{})"}[rule].format(*witness))
        mats = []
        for t in G:
            coeffs, resid = span.coefficients_rows(_ad_perm(span.rows, perms[t], n))
            if resid > matalg.PRODUCT_TOL:
                raise ActionInvalid(f"{name}: Ad(U_{t}) does not preserve the span")
            coeffs.data[np.abs(coeffs.data) < 1e-14] = 0.0
            coeffs.eliminate_zeros()
            mats.append(coeffs.tocsr())
        return cls(span, group, mats, name=name)

    def image_rows(self, t: int) -> sp.csr_matrix:
        return self.span.combine(self.coeff_mats[t])


def ck_action_from_graph_action(fam: CKFamily, action: GraphAction) -> AlgebraAction:
    """Lift a graph automorphism action to C*(E): gamma_t(s_f) = s_{t.f}.

    The action is conjugation by the path permutation mu -> t.mu, which
    sends the matrix unit e_{mu,nu} to e_{t.mu, t.nu}.  The generator
    formula is verified exactly on every edge and vertex.
    """
    G, perms = action.group, fam.map_paths(action.eperm, action.vperm)
    act = AlgebraAction.from_permutations(fam.span, G, perms, name="graph automorphism action")
    # gamma_t = Ad(U_t) remaps the entries of each generator, compared exactly
    # with the generator at t.g: row k of gen_rows is s_k for k < n_e, else p_(k - n_e).
    n_e, n_v, gen_rows = fam.graph.n_edges, fam.graph.n_vertices, fam.span.gen_rows
    for t in G:
        moved = [action.edge(t, e) for e in range(n_e)]
        moved += [n_e + action.vertex(t, v) for v in range(n_v)]
        diff = _ad_perm(gen_rows, perms[t], fam.ambient_dim) - gen_rows[moved]
        bad = np.flatnonzero(np.diff(diff.indptr))
        if bad.size and bad[0] < n_e:
            raise ActionInvalid(f"gamma_{t}(s_f) != s_(t.f) at edge {bad[0]}")
        if bad.size:
            raise ActionInvalid(f"gamma_{t}(p_v) != p_(t.v) at vertex {bad[0] - n_e}")
    return act


class ActionCrossedProduct:
    """A x_gamma G inside A (x) M_|G| via the regular covariant representation."""

    def __init__(
        self,
        base: AlgebraSpan,
        group: FiniteGroup,
        action: AlgebraAction,
        tol: float = matalg.PRODUCT_TOL,
    ):
        if action.span is not base:
            raise ActionInvalid("action must act on the base span")
        self.base = base
        self.group = group
        self.action = action
        G, m, n, d = group, group.order, base.ambient_dim, base.dim
        N = self.ambient_dim = n * m
        # u~_s = 1 (x) lam_s sends e_(i, u) to e_(i, s u), index i |G| + u.
        i, u = np.divmod(np.arange(N), m)
        self._u_perm = i * m + G.table[:, u]

        # Basis row for (i, s): vec(pi~(b_i) u~_s), at index k = i*m + s.
        # pi~(b_i) u~_s = sum_t gamma_{t^-1}(b_i) (x) chi_t lam_s; the terms
        # sit in disjoint rows t of the G leg, so one CSR of all their
        # entries is the sum.
        lam, _, chi = regular_rows(G)
        chi_lam = sp.vstack([p for _, p in matalg.right_products(chi, lam, m)], format="csr")
        data, row, col = (np.concatenate(a) for a in zip(*(
            matalg._kron_coo(action.image_rows(G.inverse[t]), chi_lam[t::m], n, m) for t in G)))
        rows = matalg._csr(data, row, col, (d * m, N * N))
        self._pi_rows = rows[np.arange(d) * m + G.identity_index]  # rows of pi~(b_i)
        self._u_rows = matalg._kron_rows(matalg.identity_row(n), lam, n, m)
        self.span = AlgebraSpan(N, rows, name=f"{base.name} x G")
        # Generators: pi~ of the base generators, then u~_s.
        self.span.gen_rows = sp.vstack([self.pi_tilde_rows(base.gen_rows), self._u_rows], "csr")
        self._verify_covariance(tol)

    def pi_tilde_rows(self, rows) -> sp.csr_matrix:
        """vec(pi~(a)) for every stacked row vec(a) of base-algebra elements."""
        return self._pi_tilde(self.base.coefficients_rows(rows)[0])

    def _pi_tilde(self, c) -> sp.csr_matrix:
        """vec(pi~(sum_i c_i b_i)) for every CSR row c; pi~(b_i) is basis element i |G| + e."""
        at_e = c.indices * self.group.order + self.group.identity_index
        return self.span.combine(sp.csr_matrix((c.data, at_e, c.indptr), (c.shape[0], self.dim)))

    def element_rows(self, parts) -> sp.csr_matrix:
        """The rows vec(sum_s pi~(a_s) u~_s) for k elements at once: row
        j |G| + s of ``parts`` is vec(a_s) of the j-th element.  The
        coefficient of b_i in a_s is that of the basis element pi~(b_i) u~_s,
        at i |G| + s, so one expansion in the base and one
        :meth:`~matalg.AlgebraSpan.combine` serve every s."""
        coeffs, _ = self.base.coefficients_rows(parts)
        m = self.group.order
        return self.span.combine(
            coeffs.toarray().reshape(-1, m, self.base.dim).transpose(0, 2, 1).reshape(-1, self.dim))

    def _verify_covariance(self, tol: float):
        """u~_s pi~(a) u~_s* = pi~(gamma_s(a)), batched over the base basis."""
        for s in self.group:
            lhs = _ad_perm(self._pi_rows, self._u_perm[s], self.ambient_dim)
            rhs = self._pi_tilde(self.action.coeff_mats[s])
            if matalg.max_row_norm(lhs - rhs) > tol:
                raise ActionInvalid(f"covariance u_s pi(a) u_s* = pi(gamma_s(a)) fails at s={s}")

    @property
    def dim(self) -> int:
        return self.span.dim

    def conditional_expectation_rows(self, rows, tol: float = matalg.PRODUCT_TOL) -> sp.csr_matrix:
        """P(sum_s pi~(a_s) u~_s) = a_e by trace pairing with the basis: vec(a_e)
        for every stacked row vec(sum_s pi~(a_s) u~_s).  Raises
        :class:`matalg.NotInSpan` if any row is farther than ``tol`` from the
        crossed product."""
        coeffs, resid = self.span.coefficients_rows(rows)
        if tol is not None and resid > tol:
            raise matalg.NotInSpan(f"element is not in {self.span.name} (residual {resid:.2e})")
        e_cols = np.arange(self.base.dim) * self.group.order + self.group.identity_index
        return self.base.combine(coeffs.toarray()[:, e_cols])


@dataclass(eq=False)
class GradedSpan:
    """A G-grading of an AlgebraSpan: basis element b_i has degree ``degrees[i]``.

    The grading is the coaction delta(b_i) = b_i (x) lam_{degrees[i]} inside
    A (x) M_|G|, and the one coaction type of both halves:
    ``graphalg.coaction`` and ``groupoids.graded_convolution`` return one.
    Degrees multiply by the labeling's path grading (checked by
    ``graphalg.coaction``) or by the cocycle law (checked by
    ``groupoids.Cocycle``); adjoint degrees, the product-degree law and the
    spanning rows are checked by :class:`CoactionCrossedProduct`, and delta
    on generators by :func:`coaction_check`.
    """

    span: AlgebraSpan
    degrees: np.ndarray
    group: FiniteGroup

    def __post_init__(self):
        self.degrees = np.asarray(self.degrees, dtype=np.int64)

    def subspace_dims(self) -> dict[int, int]:
        return {t: int(np.sum(self.degrees == t)) for t in self.group}

    @cached_property
    def spanning_rows(self) -> sp.csr_matrix:
        """Rows vec(b_i (x) lam_t chi_u), t = deg(b_i), at index k = i |G| + u."""
        m = self.group.order
        lam, _, chi = regular_rows(self.group)
        # lam_t chi_u at row u |G| + t, so b_i (x) lam_t chi_u at (i |G| + u) |G| + t.
        lam_chi = sp.vstack([p for _, p in matalg.right_products(lam, chi, m)], format="csr")
        k = np.arange(self.span.dim * m)
        return matalg._kron_rows(self.span.rows, lam_chi, self.span.ambient_dim, m)[
            k * m + self.degrees[k // m]]

    @cached_property
    def delta_rows(self) -> sp.csr_matrix:
        """Rows vec(delta(b_i)): lam_t = sum_u lam_t chi_u, so row i is the sum
        of the spanning rows i |G| + u over u, by index arithmetic: the
        spanning rows of one i have disjoint supports, and each entry x is
        0 + x with zeros dropped, as a sparse product sums it."""
        k, col, x = matalg._entries(self.spanning_rows)
        x = 0 + x
        keep = x != 0
        return matalg._csr(x[keep], k[keep] // self.group.order, col[keep],
                           (self.span.dim, self.spanning_rows.shape[1]))

    def _coefficients(self, rows, tol: float | None) -> sp.csr_matrix:
        coeffs, resid = self.span.coefficients_rows(rows)
        if tol is not None and resid > tol:
            raise matalg.NotInSpan(f"element is not in {self.span.name} (residual {resid:.2e})")
        return coeffs

    @cached_property
    def gen_coefficients(self) -> sp.csr_matrix:
        """The coefficients of the span's generator rows on its basis, expanded
        once for :func:`coaction_check` and :class:`CoactionCrossedProduct`:
        delta of the generators is ``gen_coefficients @ delta_rows``.  Raises
        :class:`matalg.NotInSpan` as :meth:`delta` does."""
        return self._coefficients(self.span.gen_rows, matalg.PRODUCT_TOL)

    def delta(self, rows, tol: float | None = matalg.PRODUCT_TOL) -> sp.csr_matrix:
        """The rows vec(delta(a)) for every stacked row vec(a), through the basis
        expansion; raises :class:`matalg.NotInSpan` when a row is farther than
        ``tol`` from the span."""
        return self._coefficients(rows, tol) @ self.delta_rows


def coaction_check(graded: GradedSpan, gen_degrees) -> Check:
    """The check "coaction" at 1e-12: delta(x_g) = x_g (x) lam_(gen_degrees[g])
    for every generator row x_g of the span, the coaction given on generators.

    On the orthogonal basis, delta(b_i) = b_i (x) lam_deg(b_i) is injective,
    satisfies the coaction identity and is nondegenerate for every degree
    table, and that the degrees form a grading is checked where they are
    made; so the generator formula is the one fact left to compare."""
    span, G = graded.span, graded.group
    m, k = G.order, span.gen_rows.shape[0]
    formula = matalg._kron_rows(span.gen_rows, regular_rows(G)[0], span.ambient_dim, m)[
        np.arange(k) * m + np.asarray(gen_degrees)]
    return Check("coaction", matalg.max_row_norm(graded.gen_coefficients @ graded.delta_rows
                                                 - formula), 1e-12)


class CoactionCrossedProduct:
    """A x_delta G inside A (x) M_|G|, spanned by (a_t, u) = a_t (x) lam_t chi_u.

    The spanning set of the :class:`GradedSpan` ``graded`` is indexed by
    (basis element, u) at k = i |G| + u; its multiplication rule

        (a_r, s)(a_t, u) = (a_r a_t, u) if s = t u, else 0
        (a_t, u)* = (a_t*, t u)

    is machine-verified through the group leg, the spanning rows and the
    degrees of base adjoints and products (the products exhaustively up to a
    size cap, sampled beyond it).
    """

    def __init__(self, graded: GradedSpan):
        self.graded = graded
        self.group: FiniteGroup = graded.group
        self.base: AlgebraSpan = graded.span
        self.degrees = graded.degrees
        G = self.group
        self.ambient_dim = self.base.ambient_dim * G.order
        self._lam, _, self._chi = regular_rows(G)
        # Generators: j_A(a) = delta(a) for the base generators a, then
        # j_G(chi_u) = 1 (x) chi_u.
        n = self.base.ambient_dim
        j_chi = matalg._kron_rows(matalg.identity_row(n), self._chi, n, G.order)
        gen_rows = sp.vstack([graded.gen_coefficients @ graded.delta_rows, j_chi], format="csr")
        self.span = AlgebraSpan(self.ambient_dim, graded.spanning_rows, gen_rows=gen_rows,
                                name=f"{self.base.name} x_delta G")
        self._verify_spanning_relations()

    @property
    def dim(self) -> int:
        return self.span.dim

    def _verify_spanning_relations(self):
        """Verify (a_r, s)(a_t, u) = (a_r a_t, u) [s = t u] and
        (a_t, u)* = (a_t*, t u) on the spanning set.

        (b_i (x) lam_s chi_u)(b_j (x) lam_t chi_w) = b_i b_j (x) lam_s chi_u lam_t chi_w,
        and (b_i (x) lam_t chi_u)* = b_i* (x) (lam_t chi_u)*, so the two rules
        hold once four facts do: the lam/chi identities of the group leg; the
        spanning rows read back exactly as b_i (x) lam_t chi_u, t = deg(b_i);
        adjoints of the base lie in the inverse degree; and the product-degree
        law, every b_k in the support of b_i b_j of degree deg(b_i) deg(b_j),
        for every right factor b_j up to ``_PAIR_CAP`` spanning elements and
        for a fixed-seed sample beyond.
        """
        tol, G, deg = matalg.PRODUCT_TOL, self.group, self.degrees
        m, d, n = G.order, self.base.dim, self.base.ambient_dim
        total = d * m

        # Group leg: (lam_s chi_u)(lam_t chi_w) = [u = t w] lam_{st} chi_w and
        # (lam_t chi_u)* = lam_{t^-1} chi_{t u}; exhaustive over G^4 / G^2, on
        # the dense stack L[s, u] = lam_s chi_u, one s (|G|^5 entries) at a time.
        L = (self._lam.toarray().reshape(m, m, m)[:, None]
             @ self._chi.toarray().reshape(m, m, m)[None])
        star = L[G.inverse[:, None], G.table]
        bad_star = np.abs(L.conj().swapaxes(-1, -2) - star).max(axis=(2, 3)) > tol
        right = L.transpose(2, 0, 1, 3).reshape(m, m**3)  # column (t, w, c)
        t_, w_ = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        for s_ in G:
            # prods[u, a, t, w, c] = (lam_s chi_u lam_t chi_w)[a, c], less the rule.
            prods = (L[s_].reshape(m * m, m) @ right).reshape(m, m, m, m, m)
            prods[G.table[t_, w_], :, t_, w_, :] -= L[G.table[s_, t_], w_]
            bad = bad_star[s_] | (np.abs(prods).max(axis=(1, 2, 3, 4)) > tol)
            if bad.any():
                if bad_star[s_, np.argmax(bad)]:
                    raise ActionInvalid("lam/chi adjoint identity fails")
                raise ActionInvalid("lam/chi multiplication identity fails")

        # Spanning rows: lam_t chi_u = E_(t u, u), so entry (p, q) of b_i sits
        # in row i |G| + u at ((p |G| + t u), (q |G| + u)), compared exactly.
        N = self.ambient_dim
        row, col, x = matalg._entries(self.base.rows)
        p, q = np.divmod(col, n)
        u = np.arange(m)
        expected = matalg._csr(
            np.repeat(x, m), (row[:, None] * m + u).ravel(),
            ((p[:, None] * m + G.table[deg[row]]) * N + q[:, None] * m + u).ravel(),
            (total, N * N))
        diff = (self.span.rows != expected).tocoo()
        if diff.nnz:
            raise ActionInvalid(f"spanning row {diff.row.min()} is not b_i (x) lam_t chi_u")

        # Base leg: adjoints stay in the span with inverse degrees.
        star_rows = matalg.star_columns(self.base.rows, n)
        star_coeffs, resid = self.base.coefficients_rows(star_rows)
        if resid > tol:
            raise ActionInvalid("base algebra is not *-closed")
        coo = star_coeffs.tocoo()
        keep = np.abs(coo.data) > tol
        if np.any(deg[coo.col[keep]] != G.inverse[deg[coo.row[keep]]]):
            raise ActionInvalid("adjoint degree mismatch in the graded base")

        # Product degrees: b_i b_j for every i and each right factor j, a chunk
        # of j per sparse product, expanded in the base basis.  Exhaustive over
        # the right factors (j, w) up to _PAIR_CAP, sampled beyond; w does not
        # enter the law.
        if total <= _PAIR_CAP:
            todo = np.arange(d)
            self.pair_check_exhaustive = True
        else:
            rng = np.random.default_rng(0)
            right = [(int(rng.integers(d)), int(rng.integers(m))) for _ in range(24)]
            todo = np.array(sorted({j for j, _ in right}))
            self.pair_check_exhaustive = False
        for k0, prods in matalg.right_products(self.base.rows, self.base.rows[todo], n):
            coeffs, resid = self.base.coefficients_rows(prods)
            if resid > tol:
                raise ActionInvalid("base algebra is not closed under products")
            coo = coeffs.tocoo()
            keep = np.abs(coo.data) > tol
            block, i = np.divmod(coo.row[keep], d)
            j = todo[k0 + block]
            bad = deg[coo.col[keep]] != G.table[deg[i], deg[j]]
            if bad.any():
                first = np.lexsort((i[bad], j[bad]))[0]
                raise ActionInvalid(f"product degree law fails at pair "
                                    f"({i[bad][first]},{j[bad][first]})")

    def dual_action(self) -> AlgebraAction:
        """The dual action: delta^_s(a_t, u) = (a_t, u s^-1), implemented as
        conjugation by 1 (x) rho_s; both descriptions are verified to agree."""
        G = self.group
        m = G.order

        def right_shifts(n):  # row s: index i |G| + u -> i |G| + u s^-1, for i |G| + u < n
            i, u = np.divmod(np.arange(n), m)
            return i * m + G.table[u[None, :], G.inverse[:, None]]

        # 1 (x) rho_s sends e_(i, u) to e_(i, u s^-1); the spanning element
        # (a_t, u) sits at the same kind of index, i |G| + u.
        act = AlgebraAction.from_permutations(
            self.span, G, right_shifts(self.ambient_dim), name="dual action",
        )
        shifts = right_shifts(self.dim)
        for s in G:
            permuted = self.span.rows[shifts[s]]
            if matalg.max_row_norm(act.image_rows(s) - permuted) > matalg.PRODUCT_TOL:
                raise ActionInvalid(f"dual action does not permute the spanning set at s={s}")
        return act
