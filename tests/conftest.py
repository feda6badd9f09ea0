"""Shared instance builders and independent dense oracles.

The oracles recompute every quantity from the dense array by brute
force so the sparse implementations are never checked against
themselves.
"""

import math

import numpy as np
from hypothesis import strategies as st

from osbalance import build_matrix, gen_random_sparse


def dense_instance(n, seed, lo=0.1, hi=1.0):
    """Strictly positive off-diagonal matrix; always balanceable."""
    rng = np.random.default_rng(seed)
    triplets = []
    for i in range(n):
        for j in range(n):
            if i != j:
                triplets.append((i, j, float(rng.uniform(lo, hi))))
    return build_matrix(n, triplets)


def sparse_balanceable(n, p, seed, lo=0.1, hi=1.0):
    """Random sparse support unioned with a bidirectional ring so the
    graph is strongly connected."""
    rng = np.random.default_rng(seed)
    A = gen_random_sparse(n, p, value_lo=lo, value_hi=hi, seed=seed)
    triplets = [(int(i), int(j), float(v)) for i, j, v in A.entries()]
    for i in range(n):
        j = (i + 1) % n
        triplets.append((i, j, float(rng.uniform(lo, hi))))
        triplets.append((j, i, float(rng.uniform(lo, hi))))
    return build_matrix(n, triplets)


def ring_plus_entries(n):
    """A bidirectional ring (strongly connected) plus random entries,
    all with values spread over six decades."""
    log10 = st.floats(-3.0, 3.0)
    return st.tuples(
        st.just(n),
        st.lists(log10, min_size=2 * n, max_size=2 * n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           log10), max_size=2 * n),
        st.sampled_from([1e-1, 1e-2, 1e-3]))


def random_support(case):
    """The matrix of a ring_plus_entries case, and its eps."""
    n, ring, extra, eps = case
    triplets = [(i, (i + 1) % n, 10.0 ** ring[2 * i]) for i in range(n)]
    triplets += [((i + 1) % n, i, 10.0 ** ring[2 * i + 1]) for i in range(n)]
    triplets += [(i, j, 10.0 ** e) for i, j, e in extra]
    return build_matrix(n, triplets), eps


def corpus(seed0=0):
    """Fifty seeded instances, half dense and half p=0.3 sparse,
    over sizes 5, 10 and 25."""
    out = []
    seed = seed0
    for rep in range(9):
        for n in (5, 10, 25):
            if len(out) >= 50:
                break
            if rep % 2 == 0:
                out.append(dense_instance(n, seed))
            else:
                out.append(sparse_balanceable(n, 0.3, seed))
            seed += 1
    return out[:50]


def dense_potential(D, u):
    """fsum over all scaled entries; error within a few ulps."""
    n = D.shape[0]
    terms = [math.exp(u[i] - u[j]) * D[i, j]
             for i in range(n) for j in range(n) if D[i, j] != 0.0]
    return math.fsum(terms)


def dense_row_col(D, u, j):
    n = D.shape[0]
    r = math.fsum(math.exp(u[j] - u[i]) * D[j, i]
                  for i in range(n) if D[j, i] != 0.0)
    c = math.fsum(math.exp(u[i] - u[j]) * D[i, j]
                  for i in range(n) if D[i, j] != 0.0)
    return r, c


def dense_gradient(D, u):
    n = D.shape[0]
    return np.array([dense_row_col(D, u, j)[0] - dense_row_col(D, u, j)[1]
                     for j in range(n)])


def grid_bisect_balance(D, sweeps=200, span=30.0, coarse=1.0, shrink=1e-13):
    """Independent minimizer of the scaling potential.

    For each coordinate in turn: scan a coarse grid to bracket the
    minimum, then ternary-search the bracket (the potential is strictly
    convex in each coordinate).  Sweeps repeat until the potential stops
    improving.  Uses only dense potential evaluations.
    """
    n = D.shape[0]
    u = np.zeros(n)

    def phi_at(j, x):
        old = u[j]
        u[j] = x
        val = dense_potential(D, u)
        u[j] = old
        return val

    best = dense_potential(D, u)
    for _ in range(sweeps):
        prev = best
        for j in range(n):
            grid = np.arange(u[j] - span, u[j] + span + coarse / 2, coarse)
            vals = [phi_at(j, x) for x in grid]
            g = int(np.argmin(vals))
            lo = grid[max(g - 1, 0)]
            hi = grid[min(g + 1, len(grid) - 1)]
            for _ in range(120):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if phi_at(j, m1) <= phi_at(j, m2):
                    hi = m2
                else:
                    lo = m1
            u[j] = (lo + hi) / 2.0
        best = dense_potential(D, u)
        if prev - best <= shrink * best:
            break
    return u
