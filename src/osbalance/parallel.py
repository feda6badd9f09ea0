"""Coloring-based parallel variant of the balancing iteration.

Vertices of one color class are pairwise non-adjacent in the support
graph, so their updates read no scaling entry written by a same-class
peer: executing a class concurrently is bitwise identical to executing
it sequentially in any order.  A color-class run is therefore executed
as the sequential fixed-order run over the classes in ascending color
order; the coloring fixes that order and counts the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .solver import Strategy, run


class ImproperColoringError(ValueError):
    pass


@dataclass(frozen=True)
class Coloring:
    colors: np.ndarray
    num_colors: int


_MIN_ROUND = 256  # a smaller ready set is colored faster one at a time
_MASK_BITS = 62   # colors 0..61 fit an int64 bitmask, and so does mask + 1


def greedy_color(A):
    """Proper coloring of the undirected support graph by the
    smallest-available-color rule in ascending vertex order.

    A vertex's color is the smallest one missing among its lower
    neighbors, so every vertex whose lower neighbors all have colors is
    ready.  Numpy rounds color a whole ready set at once, each vertex
    with the lowest clear bit of its lower neighbors' color bitmask, and
    then find the next ready set.  Once a ready set is small, or a color
    outgrows the mask, the vertices left are colored one at a time in
    ascending order: each lower neighbor is then colored already or
    earlier in the loop.  The colors are exactly those of the loop run
    over every vertex.

    Uses at most maxdegree + 1 colors.
    """
    colors = np.full(A.n, -1, dtype=np.intp)
    # pending[v]: entries between v and a lower neighbor without a color
    pending = np.bincount(np.maximum(A.coo_rows, A.coo_cols), minlength=A.n)
    ready = np.flatnonzero((pending == 0) & (A.deg > 0))
    if len(ready) >= _MIN_ROUND:  # natural orders skip the rounds at once
        _color_in_rounds(A, colors, pending, ready)
    _color_in_order(A, colors)
    return Coloring(colors, int(colors.max()) + 1 if A.n else 0)


def _color_in_rounds(A, colors, pending, ready):
    """Colors ready sets of non-isolated vertices while they are large;
    leaves the other vertices at -1."""
    bit = np.zeros(A.n, dtype=np.int64)  # 1 << color, 0 without a color
    while len(ready) >= _MIN_ROUND:
        pos, seg = A.incidences(ready)
        nbr = A.inc_idx[pos]
        nbr_bit = bit[nbr]  # 0 exactly at the higher neighbors
        mask = np.bitwise_or.reduceat(nbr_bit, seg)
        bit[ready] = low = ~mask & (mask + 1)
        colors[ready] = c = np.frexp(low.astype(np.float64))[1] - 1
        if c.max() >= _MASK_BITS:
            return
        higher, count = np.unique(nbr[nbr_bit == 0], return_counts=True)
        del pos, nbr, nbr_bit
        pending[higher] -= count
        ready = higher[pending[higher] == 0]


def _color_in_order(A, colors):
    """Replaces each -1 in colors, in ascending vertex order, by the
    smallest color that no neighbor has, reading only the incidences of
    those vertices."""
    rest = np.flatnonzero(colors < 0)
    nbr, (ptr, _) = memoryview(A.inc_idx), A.incidence_bounds()
    order, known = rest.tolist(), colors.tolist()
    for v in order:
        used = {known[w] for w in nbr[ptr[v]:ptr[v + 1]]}
        c = 0
        while c in used:
            c += 1
        known[v] = c
    colors[rest] = [known[v] for v in order]


def validate_coloring(A, coloring):
    """Raise ImproperColoringError naming the first offending edge."""
    colors = coloring.colors
    if len(colors) != A.n:
        raise ImproperColoringError("coloring length does not match n")
    if colors.min(initial=0) < 0 or colors.max(initial=0) >= coloring.num_colors:
        raise ImproperColoringError("color out of range")
    bad = colors[A.coo_rows] == colors[A.coo_cols]
    if np.any(bad):
        k = int(np.argmax(bad))
        i, j = int(A.coo_rows[k]), int(A.coo_cols[k])
        raise ImproperColoringError(
            f"vertices {i} and {j} are adjacent but share color {int(colors[i])}")


def color_class_order(coloring):
    """Vertex arrays of each color class, ascending by color index."""
    sizes = np.bincount(coloring.colors, minlength=coloring.num_colors)
    return np.split(np.argsort(coloring.colors, kind="stable"),
                    np.cumsum(sizes)[:-1])


def require_honoured(cfg):
    """Refuse a cfg that a color-class run cannot honour: its class
    order replaces every strategy but the cyclic default."""
    cfg.require("a color-class run", strategy=("cyclic",))


def run_parallel(A, coloring, cfg, workers=1):
    """Balance A processing color classes in ascending order each cycle.

    This is run(A, cfg) with the fixed order that concatenates the color
    classes, bitwise; that order replaces cfg's strategy, so any but the
    cyclic default raises ValueError (require_honoured, which callers
    can run before coloring).  The report counts one round per
    color class per cycle.  workers is accepted and has no effect.
    """
    require_honoured(cfg)
    validate_coloring(A, coloring)
    strategy = Strategy("fixed", order=np.concatenate(
        color_class_order(coloring)).tolist())
    report = run(A, replace(cfg, strategy=strategy))
    report.rounds_used = coloring.num_colors * report.cycles_used
    return report
