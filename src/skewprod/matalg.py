"""Finite-dimensional complex matrix *-algebra engine.

Algebras are stored as orthogonal bases under the trace inner product
<a, b> = Tr(a* b), with matrices kept sparse (CSR) so that the certifiers
scale to a few hundred ambient dimensions.  Vectorization is row-major,
vec(X)[i n + j] = X[i, j].  A span's basis and its generators are both kept
as stacked rows vec(X), and stacked rows are multiplied by matrices through
:func:`right_products` and :func:`left_products`, in one of two ways.  Factors
that are partial permutations, at most one entry in each matrix row and
column (read as index arrays by :func:`_monomial`), are multiplied by index
arithmetic, as :func:`_kron_rows` forms every kron: each entry is the one
product a sparse product would form, bit for bit.  Any other factor, such as
a :func:`span_closure` basis or a random central element, goes through
sparse products.

The theorem certifiers certify *-maps through :func:`star_map_on_basis`: the
domain comes with a known orthogonal basis, the candidate map is given by its
matrix on that basis, and multiplicativity is checked against the stacked rows
of the generators and of their images, on index tables between partial-
permutation bases with unit-phase entries and by linear algebra otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

MAX_AMBIENT_DIM = 256
PRODUCT_TOL = 1e-9  # equality of single products
CLOSURE_TOL = 1e-7  # quantities accumulated over span closure
CHUNK = 16  # factors or elements per batched product; bounds its memory
_INDEX_BATCH = 1 << 20  # factor-entry pairs star_map_on_basis reads at once; bounds its memory
_BINS_PER_ENTRY = 2  # coefficients_rows sorts no pairs at up to this many bins per entry
UNIT_PHASES = (1, -1, 1j, -1j)  # entries whose products are exact
_CLOSURE_ROUNDS = 64  # breadth-first rounds before span_closure gives up
_SIGNATURE_ATTEMPTS = 6  # random central elements wedderburn_signature tries


class DimensionMismatch(ValueError):
    pass


class ClosureDiverged(RuntimeError):
    pass


class NotSemisimple(RuntimeError):
    pass


class NotInSpan(ValueError):
    pass


def as_dense(mat) -> np.ndarray:
    if sp.issparse(mat):
        return mat.toarray()
    return np.asarray(mat, dtype=np.complex128)


def _csr(data, row, col, shape) -> sp.csr_matrix:
    """``sp.csr_matrix((data, (row, col)), shape=shape)`` from one stable sort
    of the keys row ncols + col, as (data, indices, indptr) with int32 index
    arrays (int64 once a dimension or the entry count reaches 2^31), which
    scipy neither sorts nor scans; repeated pairs take the COO constructor."""
    n_rows, n_cols = shape
    data, col = np.asarray(data), np.asarray(col)
    key = np.asarray(row, dtype=np.int64) * n_cols + col
    order = np.argsort(key, kind="stable")
    key = key[order]
    if np.any(key[1:] == key[:-1]):
        return sp.csr_matrix((data, (row, col)), shape=shape)
    return _canonical(data[order], col[order], np.searchsorted(key, np.arange(n_rows + 1) * n_cols),
                      shape)


def _canonical(data, indices, indptr, shape) -> sp.csr_matrix:
    """CSR (data, indices, indptr) of sorted, distinct row indices, as :func:`_csr` builds it."""
    index = np.int64 if max(*shape, len(indices)) >= 2**31 else np.int32
    out = sp.csr_matrix((data, indices.astype(index), indptr.astype(index)), shape=shape)
    out.has_canonical_format = True
    return out


def vec_rows(mats: Sequence) -> sp.csr_matrix:
    """Stack vec(m) for each matrix as the rows of one sparse matrix."""
    n = mats[0].shape[0]
    coos = [sp.coo_matrix(m) for m in mats]
    row = np.repeat(np.arange(len(coos)), [c.nnz for c in coos])
    col = np.concatenate([c.row.astype(np.int64) * n + c.col for c in coos])
    data = np.concatenate([c.data for c in coos]).astype(np.complex128)
    return _csr(data, row, col, (len(coos), n * n))


def identity_row(n: int) -> sp.csr_matrix:
    """vec(1_n) as one sparse row."""
    i = np.arange(n)
    return _csr(np.ones(n, dtype=np.complex128), 0 * i, i * (n + 1), (1, n * n))


def unvec_rows(rows: sp.csr_matrix, n: int) -> list[sp.csr_matrix]:
    """Inverse of :func:`vec_rows`: each row vec(m) back as the n x n matrix m."""
    rows = rows.tocsr()
    ends = zip(rows.indptr[:-1], rows.indptr[1:])
    return [_csr(rows.data[lo:hi], rows.indices[lo:hi] // n, rows.indices[lo:hi] % n, (n, n))
            for lo, hi in ends]


def star_columns(rows: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """Apply vec(X) -> vec(X*) to every row: transpose indices and conjugate."""
    r, c, x = _entries(rows.tocsr())
    return _csr(x.conj(), r, (c % n) * n + c // n, rows.shape)


def _entries(rows: sp.csr_matrix):
    """(row, col, data) of the stored entries of a CSR matrix, in stored order."""
    return (np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr)),
            rows.indices.astype(np.int64), rows.data)


def _monomial(rows: sp.spmatrix, n: int, by_column: bool = False):
    """Stacked rows vec(g_k) of n x n matrices as (col, val) arrays of shape
    (k, n): row a of g_k has its one entry val[k, a] at column col[k, a], or
    col[k, a] = -1 and val[k, a] = 0 for none; ``by_column`` reads g_k^T, so
    col[k, b] is the row of the entry in column b.  None unless no two
    entries of any g_k share a matrix row or column."""
    rows = rows.tocsr()
    k, (r, c, data) = rows.shape[0], _entries(rows)
    a, b = np.divmod(c, n)
    if np.bincount(np.r_[r * n + a, (k + r) * n + b]).max(initial=0) > 1:
        return None
    if by_column:
        a, b = b, a
    col, val = np.full((k, n), -1, dtype=np.int64), np.zeros((k, n), dtype=np.complex128)
    col[r, a], val[r, a] = b, data
    return col, val


def _times(x, y) -> np.ndarray:
    """x y elementwise as a sparse product stores a one-term sum:
    0 + (x.r y.r - x.i y.i) + i (x.r y.i + x.i y.r), every product rounded
    (numpy's complex multiply may fuse them), so -0 reads +0."""
    x, y = np.asarray(x, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    out.real = 0.0 + (x.real * y.real - x.imag * y.imag)
    out.imag = 0.0 + (x.real * y.imag + x.imag * y.real)
    return out


def _index_products(rows: sp.spmatrix, factors: sp.spmatrix, n: int, left: bool, step: int):
    """The products of :func:`_products` by partial permutations (None for
    other factors) as entry arrays, ``step`` factors to a batch: per batch
    (k0, c, j, i, pos, data), entry (pos, data) of vec(g_(k0 + j) X_i) (with
    ``left``) or vec(X_i g_(k0 + j)), sorted by j, then i; exact zeros dropped."""
    mono = _monomial(factors, n, by_column=left)
    if mono is None:
        return None
    xr, xc, x = _entries(rows.tocsr())
    xa, xb = np.divmod(xc, n)
    m = xa if left else xb

    def batch(k0):
        # Right: X[a, m] goes to (X g)[a, col[m]] as X[a, m] val[m].  Left:
        # X[m, b] goes to (g X)[col[m], b] as conj(0 + conj(X[m, b] val[m])),
        # the adjoint of the right product of the adjoints.
        j, e = np.nonzero(mono[0][k0 : k0 + step][:, m] >= 0)  # factor j meets entry e
        col, val = mono[0][k0 + j, m[e]], mono[1][k0 + j, m[e]]
        data = _times(x[e].conj(), val.conj()).conj() if left else _times(x[e], val)
        keep = data != 0  # the entries a sparse product keeps
        pos = col * n + xb[e] if left else xa[e] * n + col
        return k0, min(step, len(mono[0]) - k0), j[keep], xr[e][keep], pos[keep], data[keep]

    return map(batch, range(0, len(mono[0]), step))


def _products(rows: sp.spmatrix, factors: sp.spmatrix, n: int, left: bool):
    """:func:`right_products`, or with ``left`` :func:`left_products`."""
    d = rows.shape[0]
    factors = factors.tocsr()
    batches = _index_products(rows, factors, n, left, CHUNK)
    if batches is not None:
        yield from ((k0, _csr(x, j * d + i, p, (c * d, n * n))) for k0, c, j, i, p, x in batches)
        return
    if left:  # vec((X* g*)*), by the sparse products
        for k0, prods in _products(star_columns(rows, n), star_columns(factors, n), n, False):
            yield k0, star_columns(prods, n)
        return
    xr, xc, x = _entries(rows.tocsr())
    # Each X_i as the block rows i n .. i n + n - 1 of one (d n) x n matrix.
    tall = _csr(x, xr * n + xc // n, xc % n, (d * n, n))
    for k0 in range(0, factors.shape[0], CHUNK):
        c = min(CHUNK, factors.shape[0] - k0)
        fr, fc, fx = _entries(factors[k0 : k0 + c])
        # Each factor g_j as the block columns j n .. j n + n - 1 of one n x (c n) matrix.
        wide = _csr(fx, fc // n, fr * n + fc % n, (n, c * n))
        p = (tall @ wide).tocoo()
        (i, a), (j, b) = divmod(p.row.astype(np.int64), n), divmod(p.col.astype(np.int64), n)
        yield k0, _csr(p.data, j * d + i, a * n + b, (c * d, n * n))


def right_products(rows: sp.spmatrix, factors: sp.spmatrix, n: int):
    """vec(X g) for every row vec(X) of ``rows`` and every row vec(g) of
    ``factors``, CHUNK factors to one product.

    Yields (k0, prods) per chunk: with d = rows.shape[0], row j d + i of
    ``prods`` is vec(X_i g_(k0 + j)).  When every factor is a partial
    permutation (:func:`_monomial`), each entry of a product is one product
    of two entries, formed by index arithmetic bit for bit as a sparse
    product forms it; otherwise the chunks are sparse products.
    """
    return _products(rows, factors, n, left=False)


def left_products(rows: sp.spmatrix, factors: sp.spmatrix, n: int):
    """vec(g X) for every row vec(X) of ``rows`` and every row vec(g) of
    ``factors``, with the chunks and the layout of :func:`right_products`
    (row j d + i is vec(g_(k0 + j) X_i)) and its index path for partial
    permutations; other factors go through vec((X* g*)*), the sparse right
    products of the adjoints."""
    return _products(rows, factors, n, left=True)


def frobenius(mat) -> float:
    if sp.issparse(mat):
        return float(np.sqrt((abs(mat.data) ** 2).sum())) if mat.nnz else 0.0
    return float(np.linalg.norm(mat))


def row_sq_norms(rows: sp.spmatrix, row_of=None) -> np.ndarray:
    """Squared Frobenius norm of each row of a sparse stacked vec matrix: the
    |x|^2 of its entries summed per row, in stored order; ``row_of``, the row
    of each stored entry of a CSR ``rows``, when the caller has it."""
    rows = rows.tocsr()
    if row_of is None:
        row_of = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
    return np.bincount(row_of, (rows.data * rows.data.conj()).real, rows.shape[0])


def max_row_norm(rows) -> float:
    """Largest Frobenius norm over the rows of a stacked vec matrix."""
    if sp.issparse(rows):
        return float(np.max(np.sqrt(row_sq_norms(rows)))) if rows.shape[0] else 0.0
    return float(np.max(np.linalg.norm(rows, axis=1))) if len(rows) else 0.0


def _block_eigh(mat: sp.spmatrix, vectors: bool = False):
    """Eigenvalues of the Hermitian sparse ``mat`` in the order of its blocks,
    and with ``vectors`` the matching eigenvectors as columns.  Rows i and j
    share a block when (i, j) or (j, i) is stored, so ``mat`` is
    block-diagonal after a permutation: its spectrum is the union of the
    blocks' and a block's eigenvector, padded with zeros, is one of ``mat``.
    A block keeps its rows' relative order, so LAPACK reads the lower
    triangle of ``mat``; the blocks of one size go to one batched call."""
    h = sp.coo_matrix(mat)
    d = h.shape[0]
    label = np.arange(d)  # the least row of each block: min-label propagation, pointer jumping
    while True:
        low = label.copy()
        np.minimum.at(low, np.r_[h.row, h.col], label[np.r_[h.col, h.row]])
        if np.array_equal(low[low], label):
            break
        label = low[low]
    size = np.bincount(label, minlength=d)[label]
    order = np.lexsort((label, size))  # by block size, then block, then row
    sizes, first, many = np.unique(size[order], return_index=True, return_counts=True)
    pos = np.empty(d, dtype=np.int64)  # the rank of a row among the rows in blocks of its size
    pos[order] = np.arange(d) - np.repeat(first, many)
    w, v = np.zeros(d), np.zeros((d, d) if vectors else (0, 0), dtype=h.dtype)
    for s, f, n_rows in zip(sizes, first, many):
        e = size[h.row] == s
        blocks = np.zeros((n_rows // s, s, s), dtype=h.dtype)
        np.add.at(blocks, (pos[h.row[e]] // s, pos[h.row[e]] % s, pos[h.col[e]] % s), h.data[e])
        if not vectors:
            w[f : f + n_rows] = np.linalg.eigvalsh(blocks).ravel()
            continue
        vals, vecs = np.linalg.eigh(blocks)  # vecs[b, :, c] goes with vals[b, c]
        b, p, c = np.indices(vecs.shape).reshape(3, -1)
        w[f : f + n_rows], v[order[f + b * s + p], f + b * s + c] = vals.ravel(), vecs.ravel()
    return (w, v) if vectors else w


def _multiples(span, gid, pos, val):
    """Each group gid (sorted) of entries (pos, val) as a b_k for one row of the
    indexed ``span``: (groups, k, a), or None unless it has nnz(b_k) entries on
    the support of b_k at one ratio a in UNIT_PHASES and (nnz a) (1 / norms2[k])
    == a bit for bit, the coefficient :meth:`AlgebraSpan.coefficients_rows` forms.
    Positions are read from the span's position table (:attr:`AlgebraSpan._slots`)."""
    cols, owner, phase = span.support
    at = span._slots.take(pos, mode="clip")  # -1, or a wrong slot past the table, off the support
    first = np.flatnonzero(gid != np.concatenate(([-1], gid[:-1])))
    size = np.diff(np.concatenate((first, [len(gid)])))
    k, a, ref = owner[at], val * phase[at], np.repeat(first, size)
    k0, a0 = k[first], a[first]
    if (np.array_equal(cols[at], pos) and np.array_equal(k, k[ref]) and np.array_equal(a, a[ref])
            and np.isin(a0, UNIT_PHASES).all()
            and np.array_equal(size, np.diff(span.rows.indptr)[k0])
            and np.array_equal(size * a0 * (1.0 / span.norms2[k0]), a0)):
        return gid[first], k0, a0
    return None


class AlgebraSpan:
    """A *-closed matrix algebra stored as an orthogonal basis.

    ``rows`` holds vec(b_i) as sparse rows; ``norms2`` the squared Frobenius
    norms; ``gen_rows`` the rows vec(g) of the generators, the basis itself
    when none are given.  When the rows have entries in UNIT_PHASES and no
    column in common, ``support`` indexes them: the sorted support columns,
    the row owning each and the conjugate entry there (None otherwise).  Such
    a basis is orthogonal by its supports; any other basis has its pairwise
    orthogonality verified by the constructor.
    """

    def __init__(
        self,
        ambient_dim: int,
        rows: sp.csr_matrix,
        gen_rows: sp.spmatrix | None = None,
        name: str = "algebra",
        check: bool = True,
    ):
        self.ambient_dim = int(ambient_dim)
        self.rows = rows.tocsr()
        self.name = name
        self.gen_rows = self.rows if gen_rows is None else gen_rows.tocsr()
        self.norms2 = row_sq_norms(self.rows)
        if np.any(self.norms2 <= PRODUCT_TOL):
            raise ValueError("zero basis row")
        self.support = None
        b = self.rows
        if b.nnz and np.bincount(b.indices).max() <= 1 and np.isin(b.data, UNIT_PHASES).all():
            at = np.argsort(b.indices)
            owner = np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))
            self.support = b.indices[at], owner[at], b.data[at].conj()
        elif check:
            gram = (self.rows @ self.rows.conj().T).toarray()
            off = gram - np.diag(np.diag(gram))
            scale = np.sqrt(np.outer(self.norms2, self.norms2))
            if off.size and np.max(np.abs(off) / scale) > PRODUCT_TOL:
                raise ValueError(f"basis of {name} is not orthogonal")

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def _slots(self) -> np.ndarray:
        """The position table of an indexed basis, built on first lookup (4
        ambient^2 bytes): entry c is the slot of column c in ``support``, -1
        off the support."""
        slots = np.full(self.ambient_dim**2, -1, dtype=np.int32)
        slots[self.support[0]] = np.arange(len(self.support[0]), dtype=np.int32)
        return slots

    @cached_property
    def _rows_h(self) -> sp.csc_matrix:
        return self.rows.conj().T.tocsc()

    def coefficients_rows(self, rows) -> tuple[sp.csr_matrix, float]:
        """Expand stacked vec rows in this basis; return (coeffs, residual).

        The residual is the largest row-wise Frobenius error of the
        reconstruction, relative to the row norm.  On an indexed basis the
        coefficient of b_k in x is the sum of x_c conj(b_k)_c over its owned
        columns c, in the stored order of x, times 1/norms2[k], as sparse
        multiplication sums it; the squared error of a row is the sum of
        |x_c - a_k (b_k)_c|^2 over owned columns, |x_c|^2 over unowned ones
        and |a_k|^2 for each support column of b_k that x misses.  Owners are
        read from the position table; the (row, owner) pairs of m rows are
        grouped by m d bins when that is at most _BINS_PER_ENTRY per entry
        (rows dense over the support), by a sort otherwise, with equal sums.
        """
        rows = rows.tocsr() if sp.issparse(rows) else sp.csr_matrix(rows)
        m, d = rows.shape[0], self.dim
        r = np.repeat(np.arange(m), np.diff(rows.indptr))
        if self.support is None or not rows.has_canonical_format and (
                np.unique(r * rows.shape[1] + rows.indices).size < rows.nnz):
            return self._sparse_coefficients_rows(rows)
        cols, owner, phase = self.support
        at = self._slots.take(rows.indices, mode="clip")
        hit = cols[at] == rows.indices
        every = hit.all()  # no masks when every entry lies on the support
        at, x, rh = (at, rows.data, r) if every else (at[hit], rows.data[hit], r[hit])
        key = rh * d + owner[at]
        if m * d <= _BINS_PER_ENTRY * rows.nnz:  # dense rows: bins in place of a sort
            hits = np.bincount(key, minlength=m * d)
            keys = np.flatnonzero(hits)
            group, hits = (np.cumsum(hits > 0) - 1)[key], hits[keys]
        else:
            keys, group, hits = np.unique(key, return_inverse=True, return_counts=True)
        k = keys % d
        prod = x * phase[at]
        raw = np.empty(len(keys), dtype=np.complex128)
        raw.real = np.bincount(group, prod.real, len(keys))
        raw.imag = np.bincount(group, prod.imag, len(keys))
        a = raw * (1.0 / self.norms2)[k]
        back = a[group] * phase[at].conj()
        if every:  # x - a b on owned columns, x elsewhere
            off = rows.data - back
        else:
            off = rows.data.copy()
            off[hit] -= back
        err2 = (np.bincount(r, (off * off.conj()).real, m)
                + np.bincount(keys // d, (a * a.conj()).real * (self.norms2[k] - hits), m))
        norms = np.sqrt(row_sq_norms(rows, r))
        worst = float(np.max(np.sqrt(err2) / np.maximum(norms, 1.0))) if m else 0.0
        nz = a != 0
        indptr = np.searchsorted(keys[nz], np.arange(m + 1) * d)
        return _canonical(a[nz], k[nz], indptr, (m, d)), worst

    def combine(self, coeffs) -> sp.csr_matrix:
        """The rows vec(sum_i a_i b_i), one per row a of ``coeffs`` (dense or
        CSR), as canonical CSR: ``coeffs @ rows``.  On an indexed basis the
        supports are disjoint, so each entry is the one product a_i (b_i)_c,
        formed by :func:`_times` as the sparse product forms it and dropped
        when it is an exact zero: dense coefficients are gathered over the
        support index, every support column of every row in order, and CSR
        ones, such as the permutation-like matrices of an action, expand each
        entry into the row of its basis element and sort.  Any other basis, or
        non-canonical CSR coefficients, take the sparse product."""
        b, sparse = self.rows, sp.issparse(coeffs)
        coeffs = coeffs.tocsr() if sparse else np.asarray(coeffs, dtype=np.complex128)
        k, n2 = coeffs.shape[0], b.shape[1]
        if self.support is None or sparse and not coeffs.has_canonical_format:
            return (sp.csr_matrix(coeffs) @ b).sorted_indices()
        cols, owner, phase = self.support
        if sparse:
            r, i, a = _entries(coeffs)
            count = np.diff(b.indptr)[i]
            e = np.arange(count.sum()) + np.repeat(b.indptr[i] - np.cumsum(count) + count, count)
            key = np.repeat(r, count) * n2 + b.indices[e]
            order = np.argsort(key)
            data, key = _times(np.repeat(a, count), b.data[e])[order], key[order]
            nz = data != 0
            indptr = np.searchsorted(key[nz], np.arange(k + 1) * n2)
            return _canonical(data[nz], key[nz] % n2, indptr, (k, n2))
        data = _times(coeffs[:, owner], phase.conj())
        nz = data != 0
        indptr = np.r_[0, np.cumsum(np.count_nonzero(nz, axis=1))]
        return _canonical(data[nz], np.broadcast_to(cols, data.shape)[nz], indptr, (k, n2))

    def _sparse_coefficients_rows(self, rows: sp.csr_matrix) -> tuple[sp.csr_matrix, float]:
        """:meth:`coefficients_rows` by sparse products, for any basis."""
        raw = rows @ self._rows_h
        coeffs = raw.multiply(1.0 / self.norms2[None, :]).tocsr()
        recon = coeffs @ self.rows
        worst = 0.0
        norms = np.sqrt(np.maximum(row_sq_norms(rows), 1e-300))
        errs = np.sqrt(row_sq_norms(rows - recon))
        if len(errs):
            worst = float(np.max(errs / np.maximum(norms, 1.0)))
        return coeffs, worst

    def __repr__(self) -> str:
        return f"AlgebraSpan({self.name!r}, dim={self.dim}, ambient={self.ambient_dim})"


def span_closure(
    generators: Sequence, tol: float = CLOSURE_TOL, name: str = "algebra"
) -> AlgebraSpan:
    """Orthonormal basis of the smallest *-subalgebra containing the generators.

    Breadth-first products of the current basis with the generators (and their
    adjoints), orthogonalized by modified Gram-Schmidt; stops at a fixed
    point.  The unit is not adjoined.  Idempotent: re-running on the output
    basis adds nothing.
    """
    if not generators:
        raise DimensionMismatch("need at least one generator")
    dense = [as_dense(g) for g in generators]
    n = dense[0].shape[0]
    for g in dense:
        if g.shape != (n, n):
            raise DimensionMismatch(f"generator shapes differ: {g.shape} vs {(n, n)}")
    if n > MAX_AMBIENT_DIM:
        raise DimensionMismatch(f"ambient dimension {n} exceeds cap {MAX_AMBIENT_DIM}")
    mults = dense + [g.conj().T for g in dense]

    basis: list[np.ndarray] = []  # orthonormal vecs

    def try_add(vecs: np.ndarray) -> list[int]:
        added = []
        for v in vecs:
            nv = np.linalg.norm(v)
            if nv <= tol:
                continue
            w = v.copy()
            for _ in range(2):  # re-orthogonalize for stability
                for b in basis:
                    w -= (b.conj() @ w) * b
            rn = np.linalg.norm(w)
            if rn > tol * max(1.0, nv):
                basis.append(w / rn)
                added.append(len(basis) - 1)
        return added

    frontier = try_add(np.array([g.reshape(-1) for g in mults]))
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > _CLOSURE_ROUNDS:
            raise ClosureDiverged(f"span closure did not stabilize in {_CLOSURE_ROUNDS} rounds")
        if len(basis) > n * n:
            raise ClosureDiverged("basis exceeded ambient dimension; numerical drift")
        candidates = []
        for idx in frontier:
            b = basis[idx].reshape(n, n)
            for g in mults:
                candidates.append((g @ b).reshape(-1))
        frontier = try_add(np.array(candidates))
    rows = sp.csr_matrix(np.array([b for b in basis]))
    rows.eliminate_zeros()
    return AlgebraSpan(n, rows, gen_rows=vec_rows(generators), name=name, check=False)


def _kron_coo(x: sp.spmatrix, y: sp.spmatrix, na: int, nb: int):
    """The entries (data, row, col) of :func:`_kron_rows` by index arithmetic,
    each x entry times each y entry as a sparse kron multiplies them: entry
    ((p, q), (r, s)) of x_i (x) y_j sits at vec index (p n_b + r) N + (q n_b + s)
    of the N x N kron, N = n_a n_b."""
    (xi, xc, xd), (yj, yc, yd) = _entries(x.tocsr()), _entries(y.tocsr())
    (p, q), (r, s) = np.divmod(xc[:, None], na), np.divmod(yc, nb)
    data = xd.repeat(len(yd)).reshape(len(xd), len(yd)) * yd
    col = (p * nb + r) * (na * nb) + (q * nb + s)
    return data.ravel(), (xi[:, None] * y.shape[0] + yj).ravel(), col.ravel()


def _kron_rows(x: sp.spmatrix, y: sp.spmatrix, na: int, nb: int) -> sp.csr_matrix:
    """vec(x_i (x) y_j) at row i len(y) + j, for stacked rows x of n_a x n_a and
    y of n_b x n_b matrices."""
    return _csr(*_kron_coo(x, y, na, nb), (x.shape[0] * y.shape[0], (na * nb) ** 2))


def tensor_span(a: AlgebraSpan, b: AlgebraSpan, name: str | None = None) -> AlgebraSpan:
    """The basis a_i (x) b_j at row i dim(b) + j; the generators a_g (x) 1,
    then 1 (x) b_g."""
    na, nb = a.ambient_dim, b.ambient_dim
    ones_a, ones_b = identity_row(na), identity_row(nb)
    gen_rows = sp.vstack([_kron_rows(a.gen_rows, ones_b, na, nb),
                          _kron_rows(ones_a, b.gen_rows, na, nb)], format="csr")
    return AlgebraSpan(na * nb, _kron_rows(a.rows, b.rows, na, nb), gen_rows=gen_rows,
                       name=name or f"{a.name} (x) {b.name}")


def full_matrix_span(m: int) -> AlgebraSpan:
    """M_m on its matrix units: row i m + j of the identity is vec(E_ij)."""
    return AlgebraSpan(m, sp.identity(m * m, dtype=np.complex128, format="csr"), name=f"M_{m}")


@dataclass(frozen=True)
class Check:
    """One identity a verdict rests on.  An exact check passes on ``error``
    == 0, any other on ``error`` <= ``tol``; a report or certificate passes
    when all its checks do."""

    name: str
    error: float
    tol: float = 0.0
    exact: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.error == 0 if self.exact else self.error <= self.tol)

    @classmethod
    def holds(cls, name: str, fact) -> Check:
        """The exact check of a yes-or-no fact: error 0 when it holds, else 1."""
        return cls(name, 0.0 if fact else 1.0, exact=True)


@dataclass
class Report:
    """Data, the checks it was judged by, and nested reports or certificates
    in ``parts``; it passes when every check in it and in its parts passes.

    It renders as the data and the rendered parts, then per check a
    ``{name}_ok`` flag (unless ``flags`` is False) and, for a check named in
    ``errors``, its error under the key given there."""

    data: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)
    parts: dict = field(default_factory=dict)
    flags: bool = True

    def every_check(self) -> list[Check]:
        return [*self.checks, *(c for p in self.parts.values() for c in p.every_check())]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.every_check())

    def as_dict(self) -> dict:
        out = {**self.data, **{k: p.as_dict() for k, p in self.parts.items()}}
        for c in self.checks:
            if self.flags:
                out[f"{c.name}_ok"] = c.passed
            if c.name in self.errors:
                out[self.errors[c.name]] = c.error
        return out


@dataclass
class StarMapReport:
    """Outcome of certifying a generator assignment as a *-homomorphism: the
    checks well_defined, multiplicative, star_preserving, injective and, with
    a target, surjective; the largest error, and every error by name."""

    checks: list[Check]
    max_error: float = 0.0
    notes: dict = field(default_factory=dict)


def _index_checks(domain, image_rows, m, gen_rows, image_gen_rows, target, inverse_rows):
    """The checks of :func:`star_map_on_basis` that hold on index tables, so
    that their float errors are exactly 0: "star" (b_i* = a b_k, T(b_i)* =
    a T(b_k)), "mult" (g b_i = a b_k, T(g) T(b_i) = a T(b_k), or both 0) and
    "target" (T(b_i) = a t_k, the inverse's table its inverse) and "gen"
    (g = a b_k, T(g) = a T(b_k)).  None unless all spans and images are
    indexed and all generators partial permutations."""
    n, d = domain.ambient_dim, domain.dim
    try:
        image = AlgebraSpan(m, image_rows, check=False)
    except ValueError:  # a zero image
        return None
    if domain.support is None or image.support is None or (
            target is not None and target.support is None):
        return None
    step = max(1, _INDEX_BATCH // max(domain.rows.nnz, image.rows.nnz))
    prods = [_index_products(x, g, k, True, step)
             for x, g, k in ((domain.rows, gen_rows, n), (image.rows, image_gen_rows, m))]
    if None in prods:
        return None

    def same(x, y):
        return x is not None and y is not None and all(map(np.array_equal, x, y))

    def adjoints(span):
        (r, c, x), k = _entries(span.rows), span.ambient_dim
        return _multiples(span, r, c % k * k + c // k, x.conj())

    held, star = set(), adjoints(domain)
    if star is not None and len(star[0]) == d and same(star, adjoints(image)):
        held.add("star")
    # Read entry by entry only without repeated entries, which the float path sums.
    gens, images = gen_rows.tocsr(), image_gen_rows.tocsr()
    g = _multiples(domain, *_entries(gens)) if gens.has_canonical_format else None
    if (g is not None and len(g[0]) == gens.shape[0] and images.has_canonical_format
            and same(g, _multiples(image, *_entries(images)))):
        held.add("gen")
    if all(same(_multiples(domain, (k0 + j) * d + i, p, x),
                _multiples(image, (k0 + jt) * d + it, q, y))
           for (k0, _, j, i, p, x), (_, _, jt, it, q, y) in zip(*prods)):
        held.add("mult")
    t = None if target is None else _multiples(target, *_entries(image.rows))
    if t is None or not np.array_equal(t[0], np.arange(d)):
        return held
    if inverse_rows is not None:  # T(b_i) = a_i t_kt[i] and T^-1(t_j) = c_j b_ks[j]
        inverse, dt = inverse_rows.tocsr(), np.arange(target.dim)
        s = _multiples(domain, *_entries(inverse)) if inverse.has_canonical_format else None
        if s is None or d != target.dim:
            return held
        (_, kt, a), (rows, ks, c) = t, s
        if not (np.array_equal(rows, dt) and np.array_equal(ks[kt], dt)
                and np.array_equal(kt[ks], dt)
                and np.all(a * c[kt] == 1) and np.all(c * a[ks] == 1)):
            return held
    return held | {"target"}


def star_map_on_basis(
    domain: AlgebraSpan,
    image_rows: sp.csr_matrix,
    image_ambient: int,
    gen_rows: sp.spmatrix,
    image_gen_rows: sp.spmatrix,
    tol: float = PRODUCT_TOL,
    target: AlgebraSpan | None = None,
    inverse_rows: sp.csr_matrix | None = None,
) -> StarMapReport:
    """Certify a linear map given by its images on an orthogonal basis.

    ``image_rows[i]`` is vec(T(b_i)) for the i-th basis element of ``domain``,
    and row k of ``image_gen_rows`` is vec(T(g_k)) for the generator row k of
    ``gen_rows``.  T(g b_i) = T(g) T(b_i) is checked for every generator g and
    every i, and *-preservation on the whole basis.  The generators generate
    the domain, so T(x b) = T(x) T(b) follows word by word for every x and
    basis element b: these checks verify the homomorphism property on the
    entire algebra.  With ``inverse_rows``, the candidate inverse on the
    target basis, the two coefficient maps are composed and compared with the
    identity to witness bijectivity; otherwise injectivity is the Gram rank
    of the images.

    :func:`_index_checks` first decides the star, multiplicativity, target
    and generator-consistency checks on index tables; those that hold record
    the 0.0 their float code computes, and the others run it, CHUNK
    generators to one product.
    """
    if gen_rows.shape[0] != image_gen_rows.shape[0]:
        raise DimensionMismatch(
            f"{gen_rows.shape[0]} generators but {image_gen_rows.shape[0]} images"
        )
    n = domain.ambient_dim
    m = image_ambient
    d = domain.dim
    image_rows = image_rows.tocsr()
    errs = {}

    # Domain is well-defined by construction (it is a basis); record scale.
    img_scale = max(1.0, max_row_norm(image_rows))
    held = _index_checks(domain, image_rows, m, gen_rows, image_gen_rows, target,
                         inverse_rows) or ()
    # Star preservation: expand b_i* in the basis, push through T, compare.
    if "star" in held:
        errs["star_domain_closure"] = errs["star"] = 0.0
    else:
        s_coeffs, errs["star_domain_closure"] = domain.coefficients_rows(
            star_columns(domain.rows, n))
        errs["star"] = max_row_norm(star_columns(image_rows, m) - s_coeffs @ image_rows) / img_scale

    # Generator consistency, and multiplicativity a chunk of generators at a time:
    # each product g b_i is expanded in the basis, pushed through T, compared.
    errs["gen_consistency"] = 0.0
    errs["mult"] = 0.0
    errs["closure"] = 0.0
    if gen_rows.shape[0]:
        gen_rows, timg_rows = gen_rows.tocsr(), image_gen_rows.tocsr()
        coeffs, resid = domain.coefficients_rows(gen_rows)
        errs["closure"] = max(errs["closure"], resid)
        errs["gen_consistency"] = 0.0 if "gen" in held else (
            max_row_norm(coeffs @ image_rows - timg_rows) / img_scale)
        for (_, dom), (_, lhs) in () if "mult" in held else zip(
                left_products(domain.rows, gen_rows, n), left_products(image_rows, timg_rows, m)):
            c_dom, resid = domain.coefficients_rows(dom)
            errs["closure"] = max(errs["closure"], resid)
            err = max_row_norm(lhs - c_dom @ image_rows) / img_scale
            errs["mult"] = max(errs["mult"], err)

    checks = [
        Check("well_defined", float(np.maximum(errs["closure"], errs["gen_consistency"])), tol),
        Check("multiplicative", errs["mult"], tol),
        Check("star_preserving", errs["star"], tol),
    ]
    # Membership in the target and bijectivity.
    if "target" in held:
        errs["target_membership"] = 0.0
    elif target is not None:
        c_t, errs["target_membership"] = target.coefficients_rows(image_rows)
    if inverse_rows is not None and target is not None:
        if "target" in held:
            errs.update(inverse_membership=0.0, compose_id_domain=0.0, compose_id_target=0.0)
        else:
            c_s, errs["inverse_membership"] = domain.coefficients_rows(inverse_rows)
            errs["compose_id_domain"] = float(abs(c_t @ c_s - sp.identity(d)).max())
            errs["compose_id_target"] = float(abs(c_s @ c_t - sp.identity(target.dim)).max())
        onto = np.maximum(errs["compose_id_target"], errs["target_membership"])
        checks += [Check("injective", errs["compose_id_domain"], tol),
                   Check("surjective", float(onto), tol)]
    else:
        gram = image_rows @ image_rows.conj().T
        rank = int(np.sum(_block_eigh(gram) > tol * max(1.0, img_scale**2)))
        checks.append(Check("injective", float(d - rank), exact=True))
        if target is not None:
            onto = errs["target_membership"] if rank == d == target.dim else np.inf
            checks.append(Check("surjective", onto, tol))

    return StarMapReport(checks, max_error=float(max(errs.values())), notes=errs)


def wedderburn_signature(
    span: AlgebraSpan, rng: np.random.Generator | None = None
) -> tuple[int, ...]:
    """Sorted multiset of matrix-block sizes {n_1, ..., n_k}, Sum n_i^2 = dim.

    The center is found as the null space of the commutator Gram matrix
    against the generators.  A random self-adjoint central
    element z, built in coefficient space, is central in A = (+) M_{n_k} as
    z = (+) z_k 1, so left multiplication by z on A, the Hermitian matrix
    <b_i, z b_j> / (|b_i| |b_j|), has the eigenvalue z_k with multiplicity
    n_k^2.  The block sizes are the square roots of its eigenvalue cluster
    sizes.  Two *-closed spans are *-isomorphic iff their signatures match.
    Both Hermitian matrices stay sparse and are solved block by block, which
    is exact: after a permutation each is block-diagonal, so its eigenvalues
    are the blocks' and its null space the sum of theirs.  Raises
    :class:`NotSemisimple` if, on every attempt, the cluster count differs
    from dim Z or a cluster size is not a square, which for a genuine
    *-closed matrix algebra signals numerical or input error.
    """
    rng = rng or np.random.default_rng(0)
    d = span.dim
    if d == 0:
        return ()
    n, tests = span.ambient_dim, span.gen_rows

    # K = sum_t C_t C_t*, C_t the rows vec(b_i t - t b_i).  Row i of a chunk's d-row matrix
    # holds the j-th commutator of b_i at columns j n^2 + c, of which only the occupied ones
    # are kept, in sorted order, so that each Gram sum adds its terms in the same order.
    K = sp.csr_matrix((d, d), dtype=np.complex128)
    for (_, bt), (_, tb) in zip(right_products(span.rows, tests, n),
                                left_products(span.rows, tests, n)):
        r, col, x = _entries(bt - tb)
        j, i = np.divmod(r, d)
        occupied, col = np.unique(j * n * n + col, return_inverse=True)
        wide = _csr(x, i, col, (d, len(occupied)))
        K = K + wide @ wide.conj().T
    w, v = _block_eigh(K, vectors=True)
    scale = max(float(np.max(w)), 1.0)
    null_mask = w <= CLOSURE_TOL * scale
    z_dim = int(np.sum(null_mask))
    if z_dim == 0:
        raise NotSemisimple("no central elements found (not even a unit)")

    # Coefficients of the central elements z and of z*: b_i* = Sum_j S_ij b_j,
    # so z* has the coefficients conj(c) S.  Each z gives the Hermitian parts
    # (z + z*)/2 and (z - z*)/2i, in this order.
    center = v[:, null_mask].T
    star, _ = span.coefficients_rows(star_columns(span.rows, n))
    adjoint = np.asarray(star.T @ center.conj().T).T
    parts = np.empty((2 * z_dim, d), dtype=np.complex128)
    parts[0::2] = (center + adjoint) / 2
    parts[1::2] = (center - adjoint) / 2j
    inv_norms = 1.0 / np.sqrt(span.norms2)

    for _ in range(_SIGNATURE_ATTEMPTS):
        coeffs = rng.standard_normal(2 * z_dim) @ parts
        z = span.combine(coeffs.reshape(1, d))
        if frobenius(z) < CLOSURE_TOL:
            continue
        _, left = next(left_products(span.rows, z, n))  # rows vec(z b_j)
        mult = (span.rows.conj() @ left.T).tocoo()
        mult.data *= inv_norms[mult.row] * inv_norms[mult.col]
        vals = np.sort(_block_eigh(mult))
        gap = max(1e-8, 1e-6 * max(float(vals[-1] - vals[0]), 1.0))
        cuts = np.flatnonzero(np.diff(vals) > gap) + 1
        sizes = np.diff(np.concatenate(([0], cuts, [d])))
        blocks = np.rint(np.sqrt(sizes)).astype(int)
        if len(sizes) == z_dim and np.array_equal(blocks**2, sizes):
            return tuple(sorted(int(b) for b in blocks))
    raise NotSemisimple(
        "center decomposition failed beyond tolerance; the span is either not "
        "*-closed or numerically degenerate"
    )
