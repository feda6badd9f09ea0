"""Sparse nonnegative matrices, the balancing potential and its gradient.

A scaling is represented throughout by a vector ``u`` of n finite reals:
the diagonal matrix is D = diag(e^u), the scaled matrix is M = D A D^-1,
and u = 0 is the identity scaling.  All operations here are pure reads of
immutable inputs and are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BalancingError(ValueError):
    """Base class for errors raised by this package."""


class NotBalanceableError(BalancingError):
    """The input cannot be balanced (e.g. an empty row or column)."""


class ScalingOverflowError(BalancingError):
    """A scaled entry overflowed to infinity; the scaling is pathological."""


class SparseNonnegMatrix:
    """Square sparse matrix with positive off-diagonal entries.

    Zeros are absent rather than stored, the diagonal is dropped at
    construction, and the entry set is kept in both row-major and
    column-major adjacency so that a single row/column pair can be
    scanned in O(deg(j)) time.
    """

    __slots__ = ("n", "m", "coo_rows", "coo_cols", "coo_vals",
                 "row_index", "row_value", "col_index", "col_value",
                 "deg", "dropped")

    def __init__(self, n, rows, cols, vals, dropped=0):
        # rows/cols/vals must already be canonical: diagonal-free,
        # duplicate-free, positive, sorted by (row, col).
        self.n = int(n)
        self.m = len(vals)
        self.coo_rows = np.asarray(rows, dtype=np.intp)
        self.coo_cols = np.asarray(cols, dtype=np.intp)
        self.coo_vals = np.asarray(vals, dtype=np.float64)
        self.dropped = dropped

        self.row_index = [None] * self.n
        self.row_value = [None] * self.n
        self.col_index = [None] * self.n
        self.col_value = [None] * self.n
        for j in range(self.n):
            self.row_index[j] = np.empty(0, dtype=np.intp)
            self.row_value[j] = np.empty(0, dtype=np.float64)
            self.col_index[j] = np.empty(0, dtype=np.intp)
            self.col_value[j] = np.empty(0, dtype=np.float64)
        if self.m:
            order = np.argsort(self.coo_rows, kind="stable")
            bounds = np.searchsorted(self.coo_rows[order],
                                     np.arange(self.n + 1))
            for j in range(self.n):
                sel = order[bounds[j]:bounds[j + 1]]
                self.row_index[j] = self.coo_cols[sel].copy()
                self.row_value[j] = self.coo_vals[sel].copy()
            order = np.argsort(self.coo_cols, kind="stable")
            bounds = np.searchsorted(self.coo_cols[order],
                                     np.arange(self.n + 1))
            for j in range(self.n):
                sel = order[bounds[j]:bounds[j + 1]]
                self.col_index[j] = self.coo_rows[sel].copy()
                self.col_value[j] = self.coo_vals[sel].copy()
        self.deg = np.array([self.row_index[j].size + self.col_index[j].size
                             for j in range(self.n)], dtype=np.intp)

    def entries(self):
        """Iterate over (row, col, value) in canonical (row, col) order."""
        for i, j, v in zip(self.coo_rows, self.coo_cols, self.coo_vals):
            yield int(i), int(j), float(v)

    def neighbors(self, j):
        """Distinct vertices adjacent to j in the undirected support."""
        return np.unique(np.concatenate([self.row_index[j],
                                         self.col_index[j]]))

    def to_dense(self):
        dense = np.zeros((self.n, self.n))
        dense[self.coo_rows, self.coo_cols] = self.coo_vals
        return dense

    def has_empty_line(self):
        """True if some row or column stores no entry at all."""
        return any(self.row_index[j].size == 0 or self.col_index[j].size == 0
                   for j in range(self.n))


def build_matrix(n, triplets):
    """Build a SparseNonnegMatrix from (row, col, value) triplets.

    Zero-valued and diagonal triplets are dropped (counted in
    ``.dropped``), duplicates at the same position are summed.
    """
    if n <= 0:
        raise ValueError("matrix dimension must be positive")
    triplets = list(triplets)
    if not triplets:
        return SparseNonnegMatrix(n, [], [], [], dropped=0)
    rows = np.array([t[0] for t in triplets], dtype=np.intp)
    cols = np.array([t[1] for t in triplets], dtype=np.intp)
    vals = np.array([t[2] for t in triplets], dtype=np.float64)
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
        raise ValueError("index out of range")
    if np.any(vals < 0):
        raise ValueError("negative value in triplet list")
    keep = (vals > 0) & (rows != cols)
    dropped = int(len(vals) - keep.sum())
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if rows.size:
        keys = rows * n + cols
        uniq, inverse = np.unique(keys, return_inverse=True)
        vals = np.bincount(inverse, weights=vals, minlength=uniq.size)
        rows = uniq // n
        cols = uniq % n
    return SparseNonnegMatrix(n, rows, cols, vals, dropped=dropped)


@dataclass(frozen=True)
class ImbalanceCertificate:
    """L1 row/column imbalance of the scaled matrix, raw and normalized."""
    l1_gradient_norm: float
    potential: float
    normalized: float


def _scaled_entry_weights(A, u):
    with np.errstate(over="ignore"):
        w = np.exp(u[A.coo_rows] - u[A.coo_cols]) * A.coo_vals
    if not np.all(np.isfinite(w)):
        raise ScalingOverflowError("scaled entry overflowed to infinity")
    return w


def row_col_sums_at(A, u, j):
    """Row and column sum of row/column j of D A D^-1, in O(deg(j))."""
    ri, rv = A.row_index[j], A.row_value[j]
    ci, cv = A.col_index[j], A.col_value[j]
    if ri.size == 0 or ci.size == 0:
        raise NotBalanceableError(
            f"row or column {j} is empty; the matrix is not balanceable "
            f"(consider scc_decompose)")
    r = float(np.exp(u[j] - u[ri]) @ rv)
    c = float(np.exp(u[ci] - u[j]) @ cv)
    if not (np.isfinite(r) and np.isfinite(c)):
        raise ScalingOverflowError("row/column sum overflowed")
    return r, c


def potential(A, u):
    """Sum of all entries of D A D^-1 (the convex balancing objective)."""
    if A.m == 0:
        return 0.0
    return float(_scaled_entry_weights(A, u).sum())


def row_col_sums(A, u):
    """Row and column sums of every row/column of D A D^-1, one pass over
    the entries."""
    w = _scaled_entry_weights(A, u)
    return (np.bincount(A.coo_rows, weights=w, minlength=A.n),
            np.bincount(A.coo_cols, weights=w, minlength=A.n))


def gradient(A, u):
    """Per-index row-sum minus column-sum of D A D^-1."""
    r, c = row_col_sums(A, u)
    return r - c


def imbalance(A, u):
    """Normalized L1 imbalance certificate of the scaling u."""
    if A.m == 0:
        raise BalancingError("imbalance of an empty matrix is undefined")
    r, c = row_col_sums(A, u)
    norm = float(np.abs(r - c).sum())
    pot = float(r.sum())
    return ImbalanceCertificate(norm, pot, norm / pot)


def scaled_matrix(A, u):
    """Return D A D^-1 as a new matrix with the same sparsity pattern."""
    w = _scaled_entry_weights(A, u)
    return SparseNonnegMatrix(A.n, A.coo_rows.copy(), A.coo_cols.copy(), w)


def verify_balance(A, u, eps):
    """True iff the normalized L1 imbalance of u is at most eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return imbalance(A, u).normalized <= eps
