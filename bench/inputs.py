"""Benchmark inputs and the independent correctness oracles.

Everything here is plain numpy written for the benchmark: the instance
generators deliberately do not call ``osbalance.gen_*`` (those are
expected to be rewritten), and the oracles recompute imbalance and the
color-class sweep from the generated arrays, not from the program's
data structures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """A canonical (row-major sorted, diagonal-free) sparse matrix."""
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def m(self):
        return int(self.vals.size)


def _canonical(n, rows, cols, vals):
    order = np.lexsort((cols, rows))
    return Instance(n, rows[order].astype(np.int64),
                    cols[order].astype(np.int64),
                    vals[order].astype(np.float64))


def ring(k, seed):
    """Kalantari's hard bidirectional ring on n = 2k + 1 vertices (unit
    weights one way round, 0.01 the other, plus a unit pair closing the
    ring between the ends), with vertex labels permuted by the seed."""
    n = 2 * k + 1
    i = np.arange(1, k + 1)
    # The 1-based generator formulas, shifted to 0-based at the end.
    rows = np.concatenate([i, 2 * k + 2 - i, i + 1, 2 * k + 1 - i, [n, 1]])
    cols = np.concatenate([i + 1, 2 * k + 1 - i, i, 2 * k + 2 - i, [1, n]])
    vals = np.concatenate([np.ones(k), np.ones(k), np.full(k, 0.01),
                           np.full(k, 0.01), [1.0, 1.0]])
    perm = np.random.default_rng(seed).permutation(n)
    return _canonical(n, perm[rows - 1], perm[cols - 1], vals)


def salient(n, s, seed, lo=0.001, hi=1.0):
    """Dense off-diagonal matrix: entries in the last s rows or columns
    are uniform in (0, hi), all others uniform in (0, lo)."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, n))
    while not np.all(x > 0.0):  # keep the support exactly off-diagonal
        zero = x == 0.0
        x[zero] = rng.random(int(zero.sum()))
    bound = np.full((n, n), lo)
    bound[n - s:, :] = hi
    bound[:, n - s:] = hi
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    return _canonical(n, rows, cols, (x * bound)[rows, cols])


def matrix_market_bytes(inst):
    """MatrixMarket coordinate text, 1-based, 17 significant digits."""
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{inst.n} {inst.n} {inst.m}"]
    lines += [f"{i} {j} {v:.17g}" for i, j, v in
              zip((inst.rows + 1).tolist(), (inst.cols + 1).tolist(),
                  inst.vals.tolist())]
    return ("\n".join(lines) + "\n").encode()


def write_instance(inst, path):
    """Write the file and return its description for the results."""
    data = matrix_market_bytes(inst)
    with open(path, "wb") as fh:
        fh.write(data)
    return {"path": str(path), "n": inst.n, "m": inst.m,
            "sha256": hashlib.sha256(data).hexdigest()}


def read_instance(path):
    """Parse a file written by write_instance back into an Instance."""
    with open(path) as fh:
        fh.readline()
        n = int(fh.readline().split()[0])
        body = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    return Instance(n, body[:, 0].astype(np.int64) - 1,
                    body[:, 1].astype(np.int64) - 1, body[:, 2].copy())


def read_scaling(path, n):
    """The n natural-log exponents of a scaling file; ValueError if the
    file is short, long or holds a non-finite value."""
    u = np.loadtxt(path, dtype=np.float64, ndmin=1)
    if u.shape != (n,) or not np.all(np.isfinite(u)):
        raise ValueError(f"scaling file {path} is not {n} finite values")
    return u


def normalized_imbalance(inst, u):
    """||r - c||_1 / sum(M) of M = diag(e^u) A diag(e^-u), in float64."""
    w = np.exp(u[inst.rows] - u[inst.cols]) * inst.vals
    r = np.bincount(inst.rows, weights=w, minlength=inst.n)
    c = np.bincount(inst.cols, weights=w, minlength=inst.n)
    return float(np.abs(r - c).sum() / w.sum())


def greedy_coloring(inst):
    """Smallest-free-color coloring of the undirected support, vertices
    in ascending order (the rule the program's greedy coloring states)."""
    n = inst.n
    ends = np.concatenate([inst.rows, inst.cols])
    other = np.concatenate([inst.cols, inst.rows])
    order = np.argsort(ends, kind="stable")
    bounds = np.searchsorted(ends[order], np.arange(n + 1)).tolist()
    nbr = other[order].tolist()
    colors = [-1] * n
    for v in range(n):
        used = {colors[w] for w in nbr[bounds[v]:bounds[v + 1]]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return np.array(colors, dtype=np.int64)


def class_sweep(inst, colors, cycles):
    """Exponents after `cycles` cycles of Osborne updates applied color
    class by color class.  Same-class vertices are never adjacent, so a
    class can be updated in one vectorized step with the same result as
    any sequential order within it."""
    u = np.zeros(inst.n)
    row_color = colors[inst.rows]
    col_color = colors[inst.cols]
    classes = [np.flatnonzero(colors == c) for c in range(colors.max() + 1)]
    for _ in range(cycles):
        for c, members in enumerate(classes):
            w = np.exp(u[inst.rows] - u[inst.cols]) * inst.vals
            r = np.bincount(inst.rows[row_color == c],
                            weights=w[row_color == c], minlength=inst.n)
            cs = np.bincount(inst.cols[col_color == c],
                             weights=w[col_color == c], minlength=inst.n)
            u[members] += 0.5 * (np.log(cs[members]) - np.log(r[members]))
    return u
