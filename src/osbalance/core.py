"""Sparse nonnegative matrices, the balancing potential and its gradient.

A scaling is represented throughout by a vector ``u`` of n finite reals:
the diagonal matrix is D = diag(e^u), the scaled matrix is M = D A D^-1,
and u = 0 is the identity scaling.  All operations here are pure reads of
immutable inputs and are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class BalancingError(ValueError):
    """Base class for errors raised by this package."""


class NotBalanceableError(BalancingError):
    """The input cannot be balanced (e.g. an empty row or column)."""


class ScalingOverflowError(BalancingError):
    """A scaled entry or sum overflowed (or a sum underflowed to zero)."""


class SparseNonnegMatrix:
    """Square sparse matrix with positive off-diagonal entries.

    The constructor alone decides what a matrix may hold: given n >= 1
    and (row, col, value) triplets as three sequences, with indices in
    [0, n) and no negative value, it drops zero and diagonal entries
    (counted in ``.dropped``), sums duplicates, which must then be
    finite, and sorts them by (row, col).  Else it raises ValueError.

    Every entry is also kept twice in one flat incidence layout: vertex
    j owns the segment ``inc_ptr[j]:inc_ptr[j + 1]`` of ``inc_idx`` (the
    other endpoint), ``inc_val`` and ``inc_sign``, which holds row j's
    entries (sign +1, the first ``out_deg[j]``) and then column j's
    (sign -1), each in canonical order; a row/column pair is one
    O(deg(j)) slice.
    """

    __slots__ = ("n", "m", "coo_rows", "coo_cols", "coo_vals", "inc_ptr",
                 "inc_idx", "inc_val", "inc_sign", "out_deg", "deg",
                 "dropped", "_strong")

    def __init__(self, n, rows, cols, vals):
        if not n >= 1:
            raise ValueError("matrix dimension must be positive")
        self.n = n = int(n)
        rows, cols = (np.asarray(a, dtype=np.intp) for a in (rows, cols))
        vals = np.asarray(vals, dtype=np.float64)
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)):
            raise ValueError("index out of range")
        if np.any(vals < 0):
            raise ValueError("negative value in triplet list")
        keep = (vals != 0) & (rows != cols)
        self.dropped = len(vals) - int(np.count_nonzero(keep))
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        keys, inverse = np.unique(rows * n + cols, return_inverse=True)
        # astype: bincount of no entries at all gives int64
        vals = np.bincount(inverse, vals, keys.size).astype(float, copy=False)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite entry")
        self.coo_rows, self.coo_cols = np.divmod(keys, n)
        self.coo_vals = vals
        del rows, cols, vals, keep, keys, inverse
        self.m = len(self.coo_vals)
        self._strong = None

        # Incidence k < m is entry k seen from its row, k >= m entry k - m
        # from its column; a stable sort by (owner, part) keeps each part
        # in canonical order.  Built in place: the peak memory of reading
        # a file is set here, while the parsed triplets are still alive.
        key = np.concatenate([self.coo_rows, self.coo_cols])
        self.deg = np.bincount(key, minlength=self.n)
        self.inc_ptr = np.concatenate([[0], np.cumsum(self.deg)])
        key *= 2
        key[self.m:] += 1
        entry = np.argsort(key, kind="stable").astype(
            np.min_scalar_type(2 * self.m))
        del key
        col_part = entry >= self.m
        entry[col_part] -= self.m
        self.inc_idx = self.coo_cols[entry]
        self.inc_idx[col_part] = self.coo_rows[entry[col_part]]
        self.inc_val = self.coo_vals[entry]
        self.inc_sign = 1 - 2 * col_part.view(np.int8)
        self.out_deg = np.bincount(self.coo_rows, minlength=self.n)

    def with_entries(self, w):
        """This pattern with the entries w, each in (0, inf): one that
        overflowed or underflowed raises ScalingOverflowError."""
        if not np.all((w > 0.0) & (w < math.inf)):
            raise ScalingOverflowError("an entry overflowed or underflowed")
        return SparseNonnegMatrix(self.n, self.coo_rows, self.coo_cols, w)

    def incidence_bounds(self):
        """Lists (ptr, mid): in a flat sequence with one item per
        incidence, such as ``inc_idx.tolist()``, vertex j's row part is
        ``[ptr[j]:mid[j]]`` and its column part ``[mid[j]:ptr[j + 1]]``."""
        return self.inc_ptr.tolist(), (self.inc_ptr[:-1]
                                       + self.out_deg).tolist()

    def split_incidence(self, flat):
        """Per-vertex (row part, column part) lists of such a sequence."""
        ptr, mid = self.incidence_bounds()
        return ([flat[ptr[j]:mid[j]] for j in range(self.n)],
                [flat[mid[j]:ptr[j + 1]] for j in range(self.n)])

    def entries(self):
        """Iterate over (row, col, value) in canonical (row, col) order."""
        for i, j, v in zip(self.coo_rows, self.coo_cols, self.coo_vals):
            yield int(i), int(j), float(v)

    def to_dense(self):
        dense = np.zeros((self.n, self.n))
        dense[self.coo_rows, self.coo_cols] = self.coo_vals
        return dense

    def strongly_connected(self):
        """True iff m > 0 and vertex 0 reaches every vertex along row
        entries and along column entries: the one condition under which
        the matrix is balanceable (Kalantari, Khachiyan & Shokoufandeh
        1997).  Searched on the first call and cached."""
        if self._strong is None:
            self._strong = self.m > 0 and _reaches_all_both_ways(self)
        return self._strong


def _reaches_all_both_ways(A):
    """Searches from vertex 0 along row, then column incidences."""
    nbr, (ptr, mid) = A.inc_idx.tolist(), A.incidence_bounds()
    return all(len(bfs(nbr, lo, hi, 0, [-1] * A.n)) == A.n
               for lo, hi in ((ptr, mid), (mid, ptr[1:])))


def bfs(nbr, lo, hi, source, depth):
    """Breadth-first search from source along ``nbr[lo[v]:hi[v]]`` that
    skips vertices whose depth is set (not -1).  Sets the depth of each
    vertex it reaches and returns them in the order reached; stops as
    soon as every vertex has been reached."""
    depth[source] = 0
    order = [source]
    everyone = len(depth)
    for v in order:  # a queue: grows while it is walked
        if len(order) == everyone:
            break
        d = depth[v] + 1
        for w in nbr[lo[v]:hi[v]]:
            if depth[w] < 0:
                depth[w] = d
                order.append(w)
    return order


def build_matrix(n, triplets):
    """A SparseNonnegMatrix from an iterable of (row, col, value), or
    from a structured array whose three fields are the rows, the columns
    and the values, read field by field."""
    if isinstance(triplets, np.ndarray) and triplets.dtype.names:
        return SparseNonnegMatrix(n, *(triplets[name]
                                       for name in triplets.dtype.names))
    triplets = list(triplets)
    return SparseNonnegMatrix(n, *(
        np.fromiter((t[k] for t in triplets), dtype, len(triplets))
        for k, dtype in enumerate((np.intp, np.intp, np.float64))))


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
    lo, hi = A.inc_ptr[j], A.inc_ptr[j + 1]
    split = A.out_deg[j]
    if split == 0 or split == hi - lo:
        raise NotBalanceableError(
            f"row or column {j} is empty; the matrix is not balanceable "
            f"(consider scc_decompose)")
    w = np.exp((u[j] - u[A.inc_idx[lo:hi]]) * A.inc_sign[lo:hi])
    return finite_sums(*np.add.reduceat(w * A.inc_val[lo:hi],
                                        [0, split]).tolist())


def finite_sums(r, c):
    """(r, c) if both sums lie in (0, inf); ScalingOverflowError if not."""
    if not (0.0 < r < math.inf and 0.0 < c < math.inf):
        raise ScalingOverflowError("row/column sum overflowed or underflowed")
    return r, c


def potential(A, u):
    """Sum of all entries of D A D^-1 (the convex balancing objective)."""
    return imbalance(A, u).potential if A.m else 0.0


def row_col_sums(A, u):
    """Row and column sums of every row/column of D A D^-1, one pass over
    the entries."""
    w = _scaled_entry_weights(A, u)
    r = np.bincount(A.coo_rows, weights=w, minlength=A.n)
    c = np.bincount(A.coo_cols, weights=w, minlength=A.n)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(c))):
        raise ScalingOverflowError("row/column sum overflowed")
    return r, c


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
    if not (math.isfinite(norm) and math.isfinite(pot)):
        raise ScalingOverflowError("imbalance overflowed")
    return ImbalanceCertificate(norm, pot, norm / pot)


def scaled_matrix(A, u):
    """Return D A D^-1 as a new matrix with the same sparsity pattern."""
    return A.with_entries(_scaled_entry_weights(A, u))


def verify_balance(A, u, eps):
    """True iff the normalized L1 imbalance of u is at most eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return imbalance(A, u).normalized <= eps
