"""Instance generators, balanceability analysis and cycle-bound formulas.

All generators take explicit seeds and are reproducible.  The diameter
is one ``core.bfs`` from every vertex.  Each search stops once every
vertex has been reached, so a complete support costs O(n*deg) in all,
but a sparse one still costs O(n*m); only ``stats`` runs it, so only
``osbalance stats`` and ``balance --json`` pay for it, after the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BalancingError, SparseNonnegMatrix, bfs, build_matrix


@dataclass(frozen=True)
class InstanceStats:
    n: int
    m: int
    kappa: float           # math.inf when sum/min overflows
    log2_kappa: float      # finite even then
    diameter: float        # math.inf when not strongly connected
    strongly_connected: bool
    max_degree: int        # distinct undirected-support neighbors


@dataclass(frozen=True)
class CycleBound:
    """Worst-case cycle counts for a target accuracy.

    ``explicit`` carries a concrete constant and is safe to assert
    against; ``asymptotic_shape`` is the tighter diameter-aware form
    whose constant is unknown, for reporting only.
    """
    explicit: int
    asymptotic_shape: float


def _positive_uniform(rng, size):
    """Uniform in (0, 1): exact-zero draws are rejected and redrawn."""
    x = rng.random(size)
    while True:
        zero = x == 0.0
        if not zero.any():
            return x
        x[zero] = rng.random(int(zero.sum()))


def gen_salient(n, s, lo=0.001, hi=1.0, seed=0):
    """Dense off-diagonal matrix whose last s rows and columns (union)
    carry entries uniform in (0, hi); all other entries are uniform in
    (0, lo)."""
    if n < 2 or not 0 <= s < n:
        raise ValueError("n must be at least 2 and s lie in [0, n)")
    rng = np.random.default_rng(seed)
    vals = _positive_uniform(rng, (n, n))
    bound = np.full((n, n), lo)
    bound[n - s:, :] = hi
    bound[:, n - s:] = hi
    vals *= bound
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    return SparseNonnegMatrix(n, rows, cols, vals[rows, cols])


def gen_kalantari(k):
    """Hard bidirectional-cycle instance on n = 2k + 1 vertices: unit
    entries one way around the cycle and 0.01 the other way."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = 2 * k + 1
    triplets = []
    for i in range(1, k + 1):  # 1-based formulas, shifted on insertion
        triplets.append((i, i + 1, 1.0))
        triplets.append((2 * k + 2 - i, 2 * k + 1 - i, 1.0))
        triplets.append((i + 1, i, 0.01))
        triplets.append((2 * k + 1 - i, 2 * k + 2 - i, 0.01))
    triplets.append((n, 1, 1.0))
    triplets.append((1, n, 1.0))
    return build_matrix(n, [(i - 1, j - 1, v) for i, j, v in triplets])


def gen_random_sparse(n, p, value_lo=0.0, value_hi=1.0, seed=0):
    """Each off-diagonal position present independently with probability
    p, with value uniform in (value_lo, value_hi)."""
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    vals = value_lo + _positive_uniform(rng, (n, n)) * (value_hi - value_lo)
    rows, cols = np.nonzero(mask)
    return SparseNonnegMatrix(n, rows, cols, vals[rows, cols])


def log2_kappa(A):
    """log2 of kappa = (sum of entries) / (min entry), formed without the
    ratio so that it stays finite where kappa itself overflows."""
    v = A.coo_vals
    top = float(v.max())
    return (math.log2(top) + math.log2(float((v / top).sum()))
            - math.log2(float(v.min())))


def stats(A):
    """Conditioning, diameter, connectivity and degree of the support."""
    if A.m == 0:
        raise BalancingError("stats of an empty matrix are undefined")
    with np.errstate(over="ignore"):
        kappa = float(A.coo_vals.sum()) / float(A.coo_vals.min())
    nbr, (ptr, mid) = A.inc_idx.tolist(), A.incidence_bounds()
    max_degree = max(len(set(nbr[ptr[j]:ptr[j + 1]])) for j in range(A.n))
    diameter = math.inf
    if A.strongly_connected():
        # Eccentricity of s: the depth of the last vertex reached from s.
        ecc = []
        for s in range(A.n):
            depth = [-1] * A.n
            ecc.append(depth[bfs(nbr, ptr, mid, s, depth)[-1]])
        diameter = float(max(ecc))
    return InstanceStats(A.n, A.m, kappa, log2_kappa(A), diameter,
                         A.strongly_connected(), max_degree)


def scc_decompose(A):
    """Strongly connected components of the support in topological order.

    Returns (blocks, cross_entries): blocks is a list of (vertex list,
    induced submatrix) pairs; cross-component entries are reported
    separately and are not balanced by any per-block scaling choice.
    Kosaraju: a search over the rows orders the vertices by finish time;
    searches over the columns, latest finish first, then yield one
    component each, sources first.
    """
    n = A.n
    nbr, (ptr, mid) = A.inc_idx.tolist(), A.incidence_bounds()
    seen = [False] * n
    finished = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(nbr[ptr[root]:mid[root]]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(nbr[ptr[w]:mid[w]])))
                    break
            else:
                stack.pop()
                finished.append(v)

    depth = [-1] * n  # shared: a vertex already in a component is skipped
    end = ptr[1:]
    comp_of = [0] * n
    pos = [0] * n
    comps = []
    for root in reversed(finished):
        if depth[root] >= 0:
            continue
        comps.append(sorted(bfs(nbr, mid, end, root, depth)))
        for p, v in enumerate(comps[-1]):
            comp_of[v] = len(comps) - 1
            pos[v] = p

    per_block = [[] for _ in comps]
    cross = []
    for i, j, v in A.entries():
        if comp_of[i] == comp_of[j]:
            per_block[comp_of[i]].append((pos[i], pos[j], v))
        else:
            cross.append((i, j, v))
    return ([(comp, build_matrix(len(comp), triplets))
             for comp, triplets in zip(comps, per_block)], cross)


def lp_reduce(A, p):
    """Raise entries to the power p; balancing the result in the sum
    norm and dividing the exponents by p yields an l_p balancing of A."""
    if p <= 0:
        raise ValueError("p must be positive")
    with np.errstate(over="ignore"):
        return A.with_entries(A.coo_vals ** p)


def explicit_cycle_bound(log2_kappa, eps):
    """Worst-case cycles to imbalance eps: 80 ceil(log2 kappa) / eps**2."""
    return math.ceil(80 * math.ceil(log2_kappa) / eps ** 2)


def theoretical_cycle_bound(st, eps):
    """Worst-case cycle counts for reaching normalized imbalance eps."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if not st.strongly_connected:
        raise BalancingError("cycle bound requires strong connectivity")
    shape = (st.log2_kappa * math.log(2.0) / eps) * min(1.0 / eps,
                                                        st.diameter)
    return CycleBound(explicit_cycle_bound(st.log2_kappa, eps), shape)
