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


def greedy_color(A):
    """Proper coloring of the undirected support graph by the
    smallest-available-color rule in ascending vertex order.

    Uses at most maxdegree + 1 colors.
    """
    ptr = A.inc_ptr.tolist()
    nbr = A.inc_idx.tolist()
    colors = [-1] * A.n
    for v in range(A.n):
        used = {colors[w] for w in nbr[ptr[v]:ptr[v + 1]]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    colors = np.array(colors, dtype=np.intp)
    return Coloring(colors, int(colors.max()) + 1 if A.n else 0)


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
    """Vertex lists of each color class, ascending by color index."""
    sizes = np.bincount(coloring.colors, minlength=coloring.num_colors)
    return [cls.tolist() for cls in np.split(
        np.argsort(coloring.colors, kind="stable"), np.cumsum(sizes)[:-1])]


def run_parallel(A, coloring, cfg, workers=1):
    """Balance A processing color classes in ascending order each cycle.

    This is run(A, cfg) with the fixed order that concatenates the color
    classes, so the result is bitwise equal to that sequential run.  The
    report counts one round per color class per cycle.  workers is
    accepted for compatibility and has no effect on execution.
    """
    validate_coloring(A, coloring)
    order = tuple(v for cls in color_class_order(coloring) for v in cls)
    report = run(A, replace(cfg, strategy=Strategy("fixed", order=order)))
    report.rounds_used = coloring.num_colors * report.cycles_used
    return report
