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
permutation bases with unit-phase entries; no other input is certified.
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
_INDEX_BATCH = 1 << 20  # factor-entry pairs star_map_on_basis or _pair_gram reads at once
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
    """The entries (pos, val) of each group gid (sorted) as a sum of multiples
    of the rows of the indexed ``span``: one (group, k, a) triple per group and
    basis row b_k owning some of its entries, sorted by group, then k, where a
    is the one ratio of the entries to those of b_k, or nan unless the group
    has nnz(b_k) entries on b_k at one ratio; the entries off the support form
    a triple with k = -1 and a = nan.  Positions are read from the span's
    position table (:attr:`AlgebraSpan._slots`)."""
    cols, owner, phase = span.support
    at = span._slots.take(pos, mode="clip")  # -1, or a wrong slot past the table, off the support
    k = np.where(cols[at] == pos, owner[at], -1)
    key, a = gid * (span.dim + 1) + k + 1, val * phase[at]
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        key, a = key[order], a[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    first, group = np.flatnonzero(new), np.cumsum(new) - 1
    g, k = np.divmod(key[first], span.dim + 1)
    size = np.bincount(group, minlength=len(first))
    mixed = np.bincount(group, a != a[first][group], len(first))
    # Unit-phase rows: norms2[k] is nnz(b_k), exactly.
    whole = (k > 0) & (mixed == 0) & (size == span.norms2[k - 1])
    return g, k - 1, np.where(whole, a[first], np.nan)


def _mismatched(kx, ax, ky, ay) -> int:
    """The keys at which two tables of distinct keys and their values differ:
    on one side only, or with values that are not equal (nan never is)."""
    common, i, j = np.intersect1d(kx, ky, assume_unique=True, return_indices=True)
    return len(kx) + len(ky) - len(common) - int(np.count_nonzero(ax[i] == ay[j]))


def _single(table, rows: int):
    """(k, a) per group 0 .. rows - 1 of a table of :func:`_multiples` that is
    the one multiple a b_k, else (-1, nan)."""
    g, k, a = table
    one = (np.bincount(g, minlength=rows)[g] == 1) & (a == a)
    ks, av = np.full(rows, -1), np.full(rows, np.nan, dtype=np.complex128)
    ks[g[one]], av[g[one]] = k[one], a[one]
    return ks, av


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
        if np.bincount(b.indices, minlength=1).max() <= 1 and np.isin(b.data, UNIT_PHASES).all():
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
    checks well_defined, multiplicative, star_preserving, injective and
    surjective; the largest error, and every error by name."""

    checks: list[Check]
    max_error: float = 0.0
    notes: dict = field(default_factory=dict)


def star_map_on_basis(
    domain: AlgebraSpan,
    image_rows: sp.csr_matrix,
    image_ambient: int,
    gen_rows: sp.spmatrix,
    image_gen_rows: sp.spmatrix,
    target: AlgebraSpan,
    inverse_rows: sp.csr_matrix | None = None,
) -> StarMapReport:
    """Certify a linear map given by its images on a basis, on index tables.

    ``image_rows[i]`` is vec(T(b_i)) for the i-th basis element of ``domain``,
    and row k of ``image_gen_rows`` is vec(T(g_k)) for the generator row k of
    ``gen_rows``.  The domain, the images and ``target`` must be
    partial-permutation bases with unit-phase entries (indexed, see
    :class:`AlgebraSpan`) and the generators and their images partial
    permutations.  Then each element below is read exactly as a sum of
    multiples a_k b_k (:func:`_multiples`), and a check's error is the number
    of terms at which two such readings differ:

    - well_defined: g = sum a_k b_k and T(g) = sum a_k T(b_k), per generator;
    - multiplicative: g b_i and T(g) T(b_i), per generator g and every i; the
      generators generate the domain, so T(x b) = T(x) T(b) follows word by
      word for every x and basis element b;
    - star_preserving: b_i* and T(b_i)*, on the whole basis;
    - injective and surjective: each T(b_i) is a_i t_k for one target row
      t_k, at distinct k covering the target; with ``inverse_rows``, the
      candidate inverse on the target basis, its reading and T's compose to
      the identity on either side.

    Any other input fails every check with error 1, and ``notes["unindexed"]``
    names it.  Products are formed ``_INDEX_BATCH`` factor-entry pairs at a
    time.
    """
    if gen_rows.shape[0] != image_gen_rows.shape[0]:
        raise DimensionMismatch(
            f"{gen_rows.shape[0]} generators but {image_gen_rows.shape[0]} images"
        )
    n, m, d = domain.ambient_dim, image_ambient, domain.dim
    image_rows, gens, images = image_rows.tocsr(), gen_rows.tocsr(), image_gen_rows.tocsr()
    try:
        image = AlgebraSpan(m, image_rows, check=False)
    except ValueError:  # a zero image
        image = None
    step = max(1, _INDEX_BATCH // max(domain.rows.nnz, image_rows.nnz, 1))
    prods = [_index_products(x, g, k, True, step)
             for x, g, k in ((domain.rows, gens, n), (image_rows, images, m))]
    names = ("well_defined", "multiplicative", "star_preserving", "injective", "surjective")
    unindexed = [name for name, off in (
        ("domain", domain.support is None), ("image", image is None or image.support is None),
        ("target", target.support is None), ("generators", prods[0] is None),
        ("generator images", prods[1] is None)) if off]
    if unindexed:
        return StarMapReport([Check(c, 1.0, exact=True) for c in names], 1.0,
                             {"unindexed": ", ".join(unindexed)})

    def differ(x, y):
        radix = 2 + max(x[1].max(initial=-1), y[1].max(initial=-1))
        return _mismatched(x[0] * radix + x[1] + 1, x[2], y[0] * radix + y[1] + 1, y[2])

    def adjoints(span):
        (r, c, x), k = _entries(span.rows), span.ambient_dim
        return _multiples(span, r, c % k * k + c // k, x.conj())

    notes = {
        "gen_consistency": differ(_multiples(domain, *_entries(gens)),
                                  _multiples(image, *_entries(images))),
        "mult": sum(differ(_multiples(domain, (k0 + j) * d + i, p, x),
                           _multiples(image, (k0 + jt) * d + it, q, y))
                    for (k0, _, j, i, p, x), (_, _, jt, it, q, y) in zip(*prods)),
        "star": differ(adjoints(domain), adjoints(image)),
    }
    table = _multiples(target, *_entries(image_rows))
    kt, a = _single(table, d)
    notes["target_membership"] = np.count_nonzero(table[2] != table[2])  # nan terms
    if inverse_rows is None:  # distinct target rows, covering the target
        hit = len(np.unique(kt[kt >= 0]))
        injective, onto = d - hit, target.dim - hit
    else:
        inverse = inverse_rows.tocsr(copy=True)
        inverse.sum_duplicates()  # an entry repeated in a row is their sum
        ks, c = _single(_multiples(domain, *_entries(inverse)), target.dim)
        back, forth = np.maximum(kt, 0), np.maximum(ks, 0)
        notes["compose_id_domain"] = injective = d - np.count_nonzero(
            (kt >= 0) & (ks[back] == np.arange(d)) & (a * c[back] == 1))
        notes["compose_id_target"] = onto = target.dim - np.count_nonzero(
            (ks >= 0) & (kt[forth] == np.arange(target.dim)) & (c * a[forth] == 1))
    errors = (notes["gen_consistency"], notes["mult"], notes["star"], injective,
              onto + notes["target_membership"])
    checks = [Check(name, float(e), exact=True) for name, e in zip(names, errors)]
    return StarMapReport(checks, max_error=max(c.error for c in checks),
                         notes={k: float(v) for k, v in notes.items()})


def _pair_gram(span: AlgebraSpan) -> sp.csr_matrix | None:
    """K of :func:`wedderburn_signature` from pair sums, for an indexed span
    with partial-permutation generators (None otherwise).  Column (t, c) of
    C_t then holds at most one entry x of some b_i t and one y of some t b_j,
    as :func:`_index_products` lists them: each entry adds its |.|^2 at its
    row's diagonal, and x and y together add -x conj(y) at (i, j) and its
    conjugate at (j, i).  :func:`_csr` sums the cells; exact zeros are dropped,
    as a sparse product drops them."""
    if span.support is None:
        return None
    n, d = span.ambient_dim, span.dim
    step = max(1, _INDEX_BATCH // max(span.rows.nnz, 1))
    right = _index_products(span.rows, span.gen_rows, n, False, step)  # b_i t
    if right is None:
        return None
    left = _index_products(span.rows, span.gen_rows, n, True, step)  # t b_j
    diag, cells = np.zeros(d, dtype=np.complex128), []
    for (_, _, jx, i, p, x), (_, _, jy, j, q, y) in zip(right, left):
        diag += np.bincount(i, (x * x.conj()).real, d) + np.bincount(j, (y * y.conj()).real, d)
        _, a, b = np.intersect1d(jx * n * n + p, jy * n * n + q, assume_unique=True,
                                 return_indices=True)
        cross = -(x[a] * y[b].conj())
        cells += [(i[a], j[b], cross), (j[b], i[a], cross.conj())]
    row, col, val = map(np.concatenate, zip((np.arange(d), np.arange(d), diag), *cells))
    K = _csr(val, row, col, (d, d))
    K.eliminate_zeros()
    return K


def _sparse_gram(span: AlgebraSpan) -> sp.csr_matrix:
    """K of :func:`wedderburn_signature` by one sparse product per chunk of
    generators, for any span.  Row i of a chunk's d-row matrix holds the
    commutator of b_i with factor j at columns j n^2 + c, of which only the
    occupied ones are kept, in sorted order, so that each Gram sum adds its
    terms in the same order."""
    n, d, tests = span.ambient_dim, span.dim, span.gen_rows
    K = sp.csr_matrix((d, d), dtype=np.complex128)
    for (_, bt), (_, tb) in zip(right_products(span.rows, tests, n),
                                left_products(span.rows, tests, n)):
        r, col, x = _entries(bt - tb)
        j, i = np.divmod(r, d)
        occupied, col = np.unique(j * n * n + col, return_inverse=True)
        wide = _csr(x, i, col, (d, len(occupied)))
        K = K + wide @ wide.conj().T
    return K


def wedderburn_signature(
    span: AlgebraSpan, rng: np.random.Generator | None = None
) -> tuple[int, ...]:
    """Sorted multiset of matrix-block sizes {n_1, ..., n_k}, Sum n_i^2 = dim.

    The center is the null space of the commutator Gram matrix
    K = sum_t C_t C_t*, C_t the rows vec(b_i t - t b_i) over the generators t,
    summed from pairs on index tables when it can be (:func:`_pair_gram`), by
    sparse products otherwise (:func:`_sparse_gram`).  A random self-adjoint
    central element z = (y + y*)/2, y a random combination of the null
    vectors, is central in A = (+) M_{n_k} as z = (+) z_k 1, so multiplication
    by z on A, the Hermitian matrix <b_i, b_j z> / (|b_i| |b_j|), has the
    eigenvalue z_k with multiplicity n_k^2.  The block sizes are the square
    roots of its eigenvalue cluster sizes.  Two *-closed spans are
    *-isomorphic iff their signatures match.  Both Hermitian matrices stay
    sparse and are solved block by block, which is exact: after a permutation
    each is block-diagonal, so its eigenvalues are the blocks' and its null
    space the sum of theirs.  Each attempt draws ``standard_normal(2 dim Z)``.
    Raises :class:`NotSemisimple` if, on every attempt, the cluster count
    differs from dim Z or a cluster size is not a square, which for a genuine
    *-closed matrix algebra signals numerical or input error.
    """
    rng = rng or np.random.default_rng(0)
    d = span.dim
    if d == 0:
        return ()
    n = span.ambient_dim
    K = _pair_gram(span)
    if K is None:
        K = _sparse_gram(span)
    w, v = _block_eigh(K, vectors=True)
    scale = max(float(np.max(w)), 1.0)
    null_mask = w <= CLOSURE_TOL * scale
    z_dim = int(np.sum(null_mask))
    if z_dim == 0:
        raise NotSemisimple("no central elements found (not even a unit)")

    # With y = Sum_k (r_2k - i r_2k+1) c_k over the central elements c_k, z = (y + y*)/2 is
    # Sum_k r_2k (c_k + c_k*)/2 + r_2k+1 (c_k - c_k*)/2i.
    center = v[:, null_mask].T
    inv_norms = 1.0 / np.sqrt(span.norms2)

    for _ in range(_SIGNATURE_ATTEMPTS):
        r = rng.standard_normal(2 * z_dim)
        y = span.combine(((r[0::2] - 1j * r[1::2]) @ center).reshape(1, d))
        z = (y + star_columns(y, n)) / 2
        if frobenius(z) < CLOSURE_TOL:
            continue
        _, prods = next(right_products(span.rows, z, n))  # rows vec(b_j z) = vec(z b_j)
        mult = (span.rows.conj() @ prods.T).tocoo()
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
