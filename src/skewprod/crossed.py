"""Concrete crossed products for finite groups.

Crossed products by actions are realized through the regular covariant
representation inside A (x) M_|G|,

    pi~(a) = sum_t gamma_{t^-1}(a) (x) chi_t        u~_s = 1 (x) lam_s,

and crossed products by coactions through the induced regular representation
inside A (x) M_|G|, spanned by (a_t, u) = a_t (x) lam_t chi_u over graded
basis elements a_t and u in G.  A coaction of a finite group is the same thing
as a grading (Quigg 1996), so both the graph and the groupoid coactions are a
:class:`GradedSpan`, delta(a_t) = a_t (x) lam_t, checked by the one verifier
:func:`verify_graded_coaction`.  For finite groups these representations are
faithful; the constructors verify this by dimension count instead of assuming
it: the spanning families are orthogonal of the expected cardinality, so

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


# Spanning-set size up to which every spanning pair is multiplied out.
_PAIR_CAP = 256


class ActionInvalid(ValueError):
    pass


def _ad_perm(rows: sp.spmatrix, perm: np.ndarray, n: int) -> sp.csr_matrix:
    """vec(U X U*) for every row vec(X) of ``rows``, U the permutation matrix
    e_i -> e_(perm[i]): entry (i, j) of X moves to (perm[i], perm[j])."""
    coo = rows.tocoo()
    i, j = np.divmod(coo.col, n)
    return sp.csr_matrix((coo.data, (coo.row, perm[i] * n + perm[j])), shape=rows.shape)


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
        return self.coeff_mats[t] @ self.span.rows


def ck_action_from_graph_action(fam: CKFamily, action: GraphAction) -> AlgebraAction:
    """Lift a graph automorphism action to C*(E): gamma_t(s_f) = s_{t.f}.

    The action is conjugation by the path permutation mu -> t.mu, which
    sends the matrix unit e_{mu,nu} to e_{t.mu, t.nu}.  The generator
    formula is verified exactly on every edge and vertex.
    """
    G = action.group
    act = AlgebraAction.from_permutations(
        fam.span, G, fam.map_paths(action.eperm, action.vperm),
        name="graph automorphism action"
    )
    # Batched over generators: row k of gen_rows is s_k for k < n_e, else p_(k - n_e).
    n_e, n_v = fam.graph.n_edges, fam.graph.n_vertices
    gen_rows = fam.span.gen_rows
    coeffs, _ = fam.span.coefficients_rows(gen_rows)
    for t in G:
        moved = [action.edge(t, e) for e in range(n_e)]
        moved += [n_e + action.vertex(t, v) for v in range(n_v)]
        err = matalg.row_norms(coeffs @ act.coeff_mats[t] @ fam.span.rows - gen_rows[moved])
        bad = np.flatnonzero(err > matalg.PRODUCT_TOL)
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
        G = group
        m = G.order
        n = base.ambient_dim
        d = base.dim
        self.ambient_dim = n * m
        N = self.ambient_dim
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
        rows = sp.csr_matrix((data, (row, col)), shape=(d * m, N * N))
        self._pi_rows = rows[np.arange(d) * m + G.identity_index]  # rows of pi~(b_i)
        self._u_rows = matalg._kron_rows(matalg.identity_row(n), lam, n, m)
        # Generators: pi~ of the base generators, then u~_s.
        gen_rows = sp.vstack([self.pi_tilde_rows(base.gen_rows), self._u_rows], format="csr")
        self.span = AlgebraSpan(N, rows, gen_rows=gen_rows, name=f"{base.name} x G")
        self._verify_covariance(tol)

    def pi_tilde_rows(self, rows) -> sp.csr_matrix:
        """vec(pi~(a)) for every stacked row vec(a) of base-algebra elements."""
        coeffs, _ = self.base.coefficients_rows(rows)
        return coeffs @ self._pi_rows

    def element_rows(self, parts) -> sp.csr_matrix:
        """The rows vec(sum_s pi~(a_s) u~_s) for k elements at once: ``parts``
        maps s to the k stacked rows vec(a_s).  The coefficient of b_i in a_s
        is that of the basis element pi~(b_i) u~_s, at i |G| + s, so one
        expansion in the base and one sparse product serve every s."""
        s = np.fromiter(parts, dtype=np.int64)
        coeffs, _ = self.base.coefficients_rows(sp.vstack(list(parts.values()), format="csr"))
        c, k = coeffs.tocoo(), coeffs.shape[0] // len(s)
        return (sp.csr_matrix((c.data, (c.row % k, c.col * self.group.order + s[c.row // k])),
                              shape=(k, self.dim)) @ self.span.rows).sorted_indices()

    def _verify_covariance(self, tol: float):
        """u~_s pi~(a) u~_s* = pi~(gamma_s(a)), batched over the base basis."""
        for s in self.group:
            lhs = _ad_perm(self._pi_rows, self._u_perm[s], self.ambient_dim)
            rhs = self.action.coeff_mats[s] @ self._pi_rows
            if matalg.max_row_norm(lhs - rhs) > tol:
                raise ActionInvalid(
                    f"covariance u_s pi(a) u_s* = pi(gamma_s(a)) fails at s={s}"
                )

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
        return coeffs[:, e_cols] @ self.base.rows


@dataclass(eq=False)
class GradedSpan:
    """A G-grading of an AlgebraSpan: basis element b_i has degree ``degrees[i]``.

    The grading is the coaction delta(b_i) = b_i (x) lam_{degrees[i]} inside
    A (x) M_|G|, and the one coaction type of both halves:
    ``graphalg.coaction`` and ``groupoids.graded_convolution`` return one.
    Degrees multiply by the labeling's path grading (checked by
    ``graphalg.spectral_subspaces``) or by the cocycle law (checked by
    ``groupoids.Cocycle``); adjoints and spanning pairs are checked by
    :class:`CoactionCrossedProduct`, and whether delta is a coaction by
    :func:`verify_graded_coaction`.
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
        of the spanning rows i |G| + u over u."""
        ones = np.ones((1, self.group.order))
        collapse = sp.kron(sp.identity(self.span.dim, format="csr"), ones, format="csr")
        return (collapse @ self.spanning_rows).tocsr()

    def delta(self, rows, tol: float | None = matalg.PRODUCT_TOL) -> sp.csr_matrix:
        """The rows vec(delta(a)) for every stacked row vec(a), through the basis
        expansion; raises :class:`matalg.NotInSpan` when a row is farther than
        ``tol`` from the span."""
        coeffs, resid = self.span.coefficients_rows(rows)
        if tol is not None and resid > tol:
            raise matalg.NotInSpan(f"element is not in {self.span.name} (residual {resid:.2e})")
        return coeffs @ self.delta_rows


def verify_graded_coaction(graded: GradedSpan, tol: float = 1e-12) -> list[Check]:
    """Machine-check delta(a_t) = a_t (x) lam_t as a coaction of G.

    - delta is injective: the images of the basis are orthogonal and nonzero;
    - the coaction identity (delta (x) id) delta = (id (x) delta_G) delta holds
      on every generator x.  The C*(G) leg of delta(x) is expanded in the lam
      basis, delta(x) = sum_t x_t (x) lam_t, each x_t must be the degree-t
      component of x, and the two sides sum_t delta(x_t) (x) lam_t and
      sum_t x_t (x) lam_t (x) lam_t must agree at every lam_t of the third leg;
    - nondegeneracy, witnessed by delta(x_s)(1 (x) lam_{s^-1 t}) = x_s (x) lam_t.

    Returns the checks; raises :class:`ActionInvalid` if any fails.
    """
    G, span = graded.group, graded.span
    n, m = span.ambient_dim, G.order
    N = n * m
    lam = regular_rows(G)[0]  # row t: vec(lam_t)

    gram = (graded.delta_rows @ graded.delta_rows.conj().T).toarray()
    off = np.abs(gram - np.diag(np.diag(gram)))
    checks = [Check("image_orthogonality", float(off.max()) if off.size else 0.0, tol),
              Check.holds("injective", np.all(np.abs(np.diag(gram)) > 0.5))]

    # All generators x_g at once; x_(g,t) sits at row g |G| + t of the stacks.
    coeffs, _ = span.coefficients_rows(span.gen_rows)
    dx = graded.delta(span.gen_rows)
    k = dx.shape[0]
    # The lam leg: x_t[i, j] = sum_(a,b) conj(lam_t[a, b]) delta(x)[(i, a), (j, b)] / |G|,
    # the pairing of vec(delta(x)) with vec(E_ij (x) lam_t), column (i n + j) |G| + t
    # of one sparse map (row i n + j of the identity is vec(E_ij)).
    expand = matalg._kron_rows(sp.identity(n * n, format="csr"), lam, n, m).conj().T
    xs = (dx @ expand).tocoo()
    x_rows = sp.csr_matrix((xs.data / m, (xs.row * m + xs.col % m, xs.col // m)),
                           shape=(k * m, n * n))
    dxs = graded.delta(x_rows, tol=None)
    # Each x_t must be the degree-t component of x.
    c = coeffs.tocoo()
    masked = sp.csr_matrix((c.data, (c.row * m + graded.degrees[c.col], c.col)),
                           shape=(k * m, span.dim))
    ident_err = matalg.max_row_norm(x_rows - masked @ span.rows)
    # x_t (x) lam_r at row (g |G| + t) |G| + r.  The lam_t term of the third leg:
    # delta(x_t) against x_t (x) lam_t, and their sum over t against delta(x).
    x_lam = matalg._kron_rows(x_rows, lam, n, m)
    rows_t = np.arange(k * m)
    own = x_lam[rows_t * m + rows_t % m]
    collapse = sp.kron(sp.identity(k, format="csr"), np.ones((1, m)), format="csr")
    ident_err = max(ident_err, matalg.max_row_norm(dxs - own),
                    matalg.max_row_norm(collapse @ own - dx))
    # Nondegeneracy: delta(x_t)(1 (x) lam_s) = x_t (x) lam_(t s), at row s k |G| + g |G| + t.
    shifts = matalg._kron_rows(matalg.identity_row(n), lam, n, m)
    nondeg_err = 0.0
    for s0, prods in matalg.right_products(dxs, shifts, N):
        s, q = np.divmod(np.arange(prods.shape[0]), k * m)
        want = x_lam[q * m + G.table[q % m, s0 + s]]
        nondeg_err = max(nondeg_err, matalg.max_row_norm(prods - want))
    checks += [Check("coaction_identity", ident_err, tol),
               Check("nondegeneracy_witness", nondeg_err, tol)]
    matalg.require(checks, ActionInvalid, "coaction verification")
    return checks


class CoactionCrossedProduct:
    """A x_delta G inside A (x) M_|G|, spanned by (a_t, u) = a_t (x) lam_t chi_u.

    The spanning set of the :class:`GradedSpan` ``graded`` is indexed by
    (basis element, u) at k = i |G| + u; its multiplication rule

        (a_r, s)(a_t, u) = (a_r a_t, u) if s = t u, else 0
        (a_t, u)* = (a_t*, t u)

    is machine-verified on spanning pairs (exhaustively up to a size cap,
    sampled beyond it).
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
        gen_rows = sp.vstack([graded.delta(self.base.gen_rows), j_chi], format="csr")
        self.span = AlgebraSpan(self.ambient_dim, graded.spanning_rows, gen_rows=gen_rows,
                                name=f"{self.base.name} x_delta G")
        self._verify_spanning_relations()

    @property
    def dim(self) -> int:
        return self.span.dim

    def _verify_spanning_relations(self):
        """Verify (a_r, s)(a_t, u) = (a_r a_t, u) [s = t u] and
        (a_t, u)* = (a_t*, t u) on the spanning set.

        Checked in three layers: the lam/chi identity on the group leg, the
        degrees of adjoints in the base algebra, and concrete spanning-pair
        products (all pairs up to ``_PAIR_CAP`` spanning elements, a
        fixed-seed random sample beyond).  That degrees multiply is the
        grading's own law, checked where the grading is made.
        """
        tol = matalg.PRODUCT_TOL
        G = self.group
        m = G.order
        d = self.base.dim
        n = self.base.ambient_dim
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

        # Base leg: adjoints stay in the span with inverse degrees.
        star_rows = matalg.star_columns(self.base.rows, n)
        star_coeffs, resid = self.base.coefficients_rows(star_rows)
        if resid > tol:
            raise ActionInvalid("base algebra is not *-closed")
        coo = star_coeffs.tocoo()
        keep = np.abs(coo.data) > tol
        if np.any(self.degrees[coo.col[keep]] != G.inverse[self.degrees[coo.row[keep]]]):
            raise ActionInvalid("adjoint degree mismatch in the graded base")
        self._star_coeffs = star_coeffs

        # Concrete spanning pairs: multiply the whole spanning set by the right
        # factors (j, w), a chunk of them per sparse product, and compare with
        # the rule.  Exhaustive over right factors up to _PAIR_CAP, sampled
        # beyond (the left factor always ranges over everything).  The rule
        # needs b_i b_j in the base for every i and each right j: a chunk of
        # j per sparse product, expanded in the base basis.
        N = self.ambient_dim
        if total <= _PAIR_CAP:
            right = [(j, w) for j in range(d) for w in G]
            self.pair_check_exhaustive = True
        else:
            rng = np.random.default_rng(0)
            right = [
                (int(rng.integers(d)), int(rng.integers(m))) for _ in range(24)
            ]
            self.pair_check_exhaustive = False
        cache_cj: dict[int, tuple] = {}
        todo = sorted({j for j, _ in right})
        for k0, prods in matalg.right_products(self.base.rows, self.base.rows[todo], n):
            coeffs, resid = self.base.coefficients_rows(prods)
            if resid > tol:
                raise ActionInvalid("base algebra is not closed under products")
            coo = coeffs.tocoo()
            keep = np.abs(coo.data) > 1e-14
            block, row = np.divmod(coo.row[keep], d)
            col, val = coo.col[keep], coo.data[keep]
            for q, j in enumerate(todo[k0 : k0 + coeffs.shape[0] // d]):
                sel = block == q
                cache_cj[j] = (row[sel], col[sel], val[sel])
        factors = self.span.rows[[j * m + w for j, w in right]]
        for k0, lhs in matalg.right_products(self.span.rows, factors, N):
            chunk = right[k0 : k0 + lhs.shape[0] // total]
            # Block q: (a_i, u)(a_j, w) = (a_i a_j, w) if u = deg(a_j) w, else 0.
            rule_r, rule_c, rule_v = [], [], []
            for q, (j, w) in enumerate(chunk):
                r_idx, c_idx, vals = cache_cj[j]
                u0 = G.mul(int(self.degrees[j]), w)
                rule_r.append(q * total + r_idx * m + u0)
                rule_c.append(c_idx * m + w)
                rule_v.append(vals)
            rule = sp.csr_matrix(
                (np.concatenate(rule_v), (np.concatenate(rule_r), np.concatenate(rule_c))),
                shape=(len(chunk) * total, total),
            )
            err = matalg.row_norms(lhs - rule @ self.span.rows).reshape(len(chunk), total)
            bad = np.flatnonzero(err.max(axis=1) > tol)
            if bad.size:
                j, w = chunk[bad[0]]
                raise ActionInvalid(
                    f"spanning multiplication rule fails against right factor ({j},{w})"
                )
        # Adjoints of spanning elements: row i |G| + u of the rule holds the
        # coefficients of b_i* at the spanning elements (b_j, deg(b_i) u).
        star_span = matalg.star_columns(self.span.rows, self.ambient_dim)
        c = star_coeffs.tocoo()
        expected = sp.csr_matrix(
            (np.repeat(c.data, m), ((c.row[:, None] * m + np.arange(m)).ravel(),
                                    (c.col[:, None] * m + G.table[self.degrees[c.row]]).ravel())),
            shape=(total, total),
        ) @ self.span.rows
        if matalg.max_row_norm(star_span - expected) > tol:
            raise ActionInvalid("spanning adjoint rule fails")

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
