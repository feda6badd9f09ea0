"""The balancing iteration: geometric-mean updates under pluggable
index-selection strategies.

Determinism contract: given a strategy seed, runs are reproducible.  The
random strategies draw from a per-cycle child generator spawned as
``default_rng(SeedSequence(seed, spawn_key=(cycle,)))``, so the stream
consumed in cycle k never depends on how many draws earlier cycles made.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (NotBalanceableError, ScalingOverflowError, finite_sums,
                   imbalance, row_col_sums, row_col_sums_at)
from .instances import explicit_cycle_bound, log2_kappa

LN2 = math.log(2.0)

STRATEGY_KINDS = ("cyclic", "shuffled", "uniform", "weighted", "greedy",
                  "fixed")
_SEEDED_KINDS = ("shuffled", "uniform", "weighted")


@dataclass(frozen=True)
class Strategy:
    """Index-selection rule; a seed is kept as an int, an order as a tuple.

    kind:
      cyclic    ascending order 0..n-1 every cycle
      shuffled  a fresh uniform permutation each cycle
      uniform   uniform-random index per update
      weighted  index i with probability proportional to r_i + c_i
      greedy    argmax of (sqrt(r_i) - sqrt(c_i))^2, ties to smallest index
      fixed     a caller-supplied order, repeated every cycle
    """
    kind: str = "cyclic"
    seed: int | None = None
    order: tuple[int, ...] | np.ndarray | None = None  # fixed only

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.seed is not None:
            object.__setattr__(self, "seed", operator.index(self.seed))
        if self.kind in _SEEDED_KINDS and (self.seed is None or self.seed < 0):
            raise ValueError(f"strategy {self.kind!r} requires a seed >= 0, "
                             f"not {self.seed}")
        if self.kind == "fixed" and self.order is None:
            raise ValueError("fixed strategy requires an order")
        if self.kind != "fixed" and self.order is not None:
            raise ValueError(f"strategy {self.kind!r} takes no order")
        if self.order is not None:
            object.__setattr__(self, "order",
                               tuple(map(operator.index, self.order)))


@dataclass(frozen=True)
class SolverConfig:
    eps: float = 1e-6
    max_cycles: int | None = None
    criterion: str = "l1"          # "l1" or "parlett"
    strategy: Strategy = field(default_factory=Strategy)
    radix_rounding: bool = False
    check_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise ValueError("max_cycles must be at least 1")
        if self.criterion not in ("l1", "parlett"):
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.check_every < 1:
            raise ValueError("check_every must be at least 1")

    def require(self, driver, **honoured):
        """Refuse, naming the field, a value that driver cannot honour:
        honoured maps fields to the values (a strategy's kinds) it can."""
        for name, values in honoured.items():
            value = getattr(self, name)
            if getattr(value, "kind", value) not in values:
                raise ValueError(f"{driver} does not support {name} = "
                                 f"{getattr(value, 'kind', value)!r}")


@dataclass(frozen=True)
class TrajectorySample:
    updates: int
    nonzeros: int
    wall_nanos: int
    imbalance: float


@dataclass
class BalanceReport:
    u_final: np.ndarray
    cycles_used: int
    updates_used: int
    nonzeros_touched: int
    wall_time: float
    trajectory: list[TrajectorySample]
    termination: str               # "converged" | "max_cycles" | "not_balanceable"
    rounds_used: int = 0
    overflows: int = 0             # a low-bit run's fixed-point range overflows


def default_max_cycles(A, eps):
    """Four times the explicit worst-case cycle bound, which holds for
    the strongly connected supports drive() runs."""
    return 4 * explicit_cycle_bound(log2_kappa(A), eps)


def osborne_update(A, u, j, radix_rounding=False, sums=None):
    """Balance row/column j in place; returns the pre-update (r_j, c_j).

    sums, when given, is the caller's (r_j, c_j) at u, and no entry of j
    is read; else the sums are computed from j's deg(j) entries.  The
    increment is half the log-ratio of the column to row sum, which
    makes both sums equal to their geometric mean.  With radix_rounding
    the increment is rounded to the nearest integer multiple of ln 2,
    keeping the diagonal scaling a power of two.
    """
    r, c = row_col_sums_at(A, u, j) if sums is None else finite_sums(*sums)
    delta = 0.5 * (math.log(c) - math.log(r))
    if radix_rounding:
        delta = round(delta / LN2) * LN2
    u[j] += delta
    return r, c


def cycle_rng(seed, cycle):
    """Child generator for one cycle; see the module docstring."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(cycle,)))


class _Fenwick:
    """Sum-indexed binary tree over nonnegative weights."""

    def __init__(self, weights):
        self.n = len(weights)
        self.tree = [0.0] * (self.n + 1)
        self.weights = [0.0] * self.n
        self.total = 0.0
        for i, w in enumerate(weights):
            self.set(i, w)

    def set(self, i, w):
        delta = w - self.weights[i]
        self.weights[i] = w
        self.total += delta
        k = i + 1
        while k <= self.n:
            self.tree[k] += delta
            k += k & (-k)

    def find(self, x):
        """Smallest i with prefix-sum(0..i) > x."""
        idx = 0
        bit = 1 << (self.n.bit_length())
        while bit:
            nxt = idx + bit
            if nxt <= self.n and self.tree[nxt] <= x:
                idx = nxt
                x -= self.tree[nxt]
            bit >>= 1
        return min(idx, self.n - 1)


class _KeptSums:
    """Row and column sums r, c of the iterate, kept as Python lists next
    to a mirror of u and updated in O(deg j) after an update of j.  The
    update takes its step from the kept r[j], c[j], so this upkeep is
    the one read of j's entries.  A neighbor's sum moves by the change
    of the shared entry, unless that would cancel more than half of it:
    then row_col_sums_at recomputes it.  resync() recomputes all sums,
    bounding the drift."""

    def __init__(self, A, u):
        self.A, self.u = A, u
        self.row_nbr, self.col_nbr = A.split_incidence(A.inc_idx.tolist())
        self.row_val, self.col_val = A.split_incidence(A.inc_val.tolist())
        self.resync()

    def resync(self):
        """Recompute every sum from u in one pass over the entries and
        rebuild the selection structure; returns the nonzeros scanned.
        A sum that underflowed to 0 raises ScalingOverflowError."""
        r, c = row_col_sums(self.A, self.u)
        if not (r.all() and c.all()):
            raise ScalingOverflowError("row/column sum overflowed or "
                                       "underflowed")
        self.r, self.c, self.mirror = r.tolist(), c.tolist(), self.u.tolist()
        self._rebuild()
        return self.A.m

    def _resum(self, j):
        """Bring the sums up to date after an update of j; returns the
        nonzeros read and the vertices whose sums changed: j and its
        distinct neighbors."""
        uj = float(self.u[j])
        mirror, r, c = self.mirror, self.r, self.c
        delta = uj - mirror[j]
        mirror[j] = uj
        row, col = self.row_nbr[j], self.col_nbr[j]
        exp, inf, guarded = math.exp, math.inf, []
        rj = cj = 0.0
        try:
            down = -math.expm1(-delta)  # a row-j entry w was w e^-delta
            up = -math.expm1(delta)     # a column-j entry w was w e^delta
            for i, v in zip(row, self.row_val[j]):
                w = v * exp(uj - mirror[i])
                rj += w
                old = c[i]
                c[i] = new = old + w * down
                if not 0.5 * old <= new < inf:
                    guarded.append(i)
            for i, v in zip(col, self.col_val[j]):
                w = v * exp(mirror[i] - uj)
                cj += w
                old = r[i]
                r[i] = new = old + w * up
                if not 0.5 * old <= new < inf:
                    guarded.append(i)
            r[j], c[j] = finite_sums(rj, cj)
        except OverflowError:  # delta or an entry out of range: no shortcut
            guarded = [j, *row, *col]
        nonzeros = len(row) + len(col)
        for i in set(guarded):  # recomputed from i's own entries
            r[i], c[i] = row_col_sums_at(self.A, self.u, i)
            nonzeros += len(self.row_nbr[i]) + len(self.col_nbr[i])
        return nonzeros, {j, *row, *col}


class WeightedState(_KeptSums):
    """Maintains w_i = r_i + c_i over the current iterate for sampling."""

    def _rebuild(self):
        self.fen = _Fenwick([a + b for a, b in zip(self.r, self.c)])

    def refresh(self, j):
        """Reweigh j and its neighbors; returns the nonzeros scanned."""
        nonzeros, touched = self._resum(j)
        for i in touched:
            self.fen.set(i, self.r[i] + self.c[i])
        return nonzeros


def weighted_sample(state, rng):
    """Draw an index with probability proportional to its weight."""
    fen = state.fen
    if fen.total <= 0:  # zero weights, or a running total that cancelled
        if math.fsum(fen.weights) == 0:
            raise NotBalanceableError("all sampling weights are zero")
        fen = state.fen = _Fenwick(fen.weights)
    return fen.find(rng.random() * fen.total)


class GreedyState(_KeptSums):
    """Lazy max-heap over per-index imbalance (sqrt r - sqrt c)^2.

    Stale heap entries are skipped by version stamp instead of being
    removed, to keep refreshes cheap; resync() replaces the heap.
    """

    def _rebuild(self):
        self.stamp, self.heap = [-1] * self.A.n, []
        self._rescore(range(self.A.n))

    def _rescore(self, ids):
        r, c, stamp, sqrt = self.r, self.c, self.stamp, math.sqrt
        for i in ids:
            stamp[i] += 1
            heapq.heappush(self.heap,
                           (-(sqrt(r[i]) - sqrt(c[i])) ** 2, i, stamp[i]))

    def refresh(self, j):
        """Rescore j and its neighbors; returns the nonzeros scanned."""
        nonzeros, touched = self._resum(j)
        self._rescore(touched)
        return nonzeros


def greedy_index(state):
    """Index of maximal imbalance at the current iterate (smallest on ties)."""
    heap = state.heap
    while True:
        neg, i, stamp = heap[0]
        if stamp == state.stamp[i]:
            return i
        heapq.heappop(heap)


def order_source(strategy, n, state=None):
    """The index source of a run: a function from the cycle number to the
    n indices updated in that cycle, in order.

    Greedy and weighted draw each index from state, the selection
    structure the driver refreshes after every update, so their indices
    are produced lazily.  A fixed order must hold n indices in [0, n),
    but not every index: the balancing is unique only up to an additive
    constant, so an order that omits one index can still converge.
    """
    kind, seed = strategy.kind, strategy.seed
    if kind == "cyclic":
        order = range(n)
        return lambda k: order
    if kind == "fixed":
        order = strategy.order
        if len(order) != n:
            raise ValueError(f"fixed order has length {len(order)}, "
                             f"expected n = {n}")
        for j in order:
            if not 0 <= j < n:
                raise ValueError(f"fixed order index {j} is outside [0, {n})")
        return lambda k: order
    if kind == "shuffled":
        return lambda k: cycle_rng(seed, k).permutation(n).tolist()
    if kind == "uniform":
        return lambda k: cycle_rng(seed, k).integers(0, n, size=n).tolist()
    if kind == "greedy":
        return lambda k: (greedy_index(state) for _ in range(n))

    def weighted(k):
        rng = cycle_rng(seed, k)
        return (weighted_sample(state, rng) for _ in range(n))
    return weighted


def drive(A, cfg, update, check, iterate, check_first=False, cycle_hook=None,
          levels=None):
    """The cycle loop of every run: the one walk of a cycle's order.

    cfg, the run's SolverConfig, gives the strategy, the cycle budget
    (default_max_cycles when it is None) and the check cadence.
    A support that is not strongly connected ends at once as
    ``not_balanceable``; balance its ``scc_decompose`` blocks instead.
    update(k, batch) updates batch's indices in turn in cycle k and
    returns the nonzeros it read, which the driver adds up.  A batch is
    a cycle's whole order, or one of levels, lists that hold the order
    level by level.  Greedy and weighted pass update(k, (j,), (r_j, c_j))
    with j's kept sums, and j's refresh then reads its entries.
    check(cycles) returns (imbalance sample, converged, nonzeros read)
    every cfg.check_every cycles, and before the first if check_first;
    the trajectory records one sample per check.  iterate() is the
    current iterate as a float64 array, over which greedy and weighted
    keep their sums: refreshed after every update, resynced after every
    check that does not end the run.
    """
    n, start = A.n, time.perf_counter_ns()
    updates, nonzeros, trajectory = 0, 0, []

    def report(u, cycles, termination):
        return BalanceReport(u, cycles, updates, nonzeros,
                             (time.perf_counter_ns() - start) / 1e9,
                             trajectory, termination)

    if not A.strongly_connected():
        return report(np.zeros(n), 0, "not_balanceable")
    kept = {"weighted": WeightedState, "greedy": GreedyState}.get(
        cfg.strategy.kind)
    state = kept(A, iterate()) if kept else None
    cycle_order = order_source(cfg.strategy, n, state)
    max_cycles = cfg.max_cycles or default_max_cycles(A, cfg.eps)
    nonzeros = 0 if state is None else A.m  # the pass that built state

    def checked(cycles):
        nonlocal nonzeros
        sample, converged, read = check(cycles)
        nonzeros += read
        trajectory.append(TrajectorySample(
            updates, nonzeros, time.perf_counter_ns() - start, sample))
        return converged

    if check_first and checked(0):
        return report(iterate(), 0, "converged")

    for k in range(max_cycles):
        if state is None:
            for batch in levels or (cycle_order(k),):
                nonzeros += update(k, batch)
        else:  # the step comes from j's kept sums; refresh reads j
            r, c = state.r, state.c  # only a resync, after a check, replaces
            for j in cycle_order(k):
                nonzeros += update(k, (j,), (r[j], c[j]))
                nonzeros += state.refresh(j)
        updates += n
        if cycle_hook is not None:
            cycle_hook(k, iterate())
        if (k + 1) % cfg.check_every == 0:
            if checked(k + 1):
                return report(iterate(), k + 1, "converged")
            nonzeros += state.resync() if state is not None else 0

    return report(iterate(), max_cycles, "max_cycles")


@np.errstate(over="ignore")  # overflowed sums raise ScalingOverflowError
def run(A, cfg, update_hook=None, cycle_hook=None):
    """Iterate updates per cfg.strategy until the termination criterion
    holds or max_cycles pass.

    One cycle is n updates.  Termination is checked at cycle boundaries
    every cfg.check_every cycles; the practical criterion requires
    2 sqrt(r_j c_j) > 0.95 (r_j + c_j) for the pre-update sums of every
    update in the last completed cycle.  The trajectory records one
    sample per termination check.  A support that is not strongly
    connected ends at once as ``not_balanceable``.

    update_hook(cycle, j, r_before, c_before) and cycle_hook(cycle, u)
    are instrumentation-only callbacks; they do not affect the run.
    """
    l1, radix = cfg.criterion == "l1", cfg.radix_rounding
    u, deg = np.zeros(A.n), A.deg.tolist()
    failed = -1  # the last cycle with an update failing the Parlett test

    def update(k, batch, sums=None):
        nonlocal failed
        for j in batch:
            r, c = osborne_update(A, u, j, radix, sums)
            if not (l1 or 2.0 * math.sqrt(r * c) > 0.95 * (r + c)):
                failed = k
            if update_hook is not None:
                update_hook(k, j, r, c)
        return sum(map(deg.__getitem__, batch)) if sums is None else 0

    def check(cycles):
        g = imbalance(A, u).normalized  # also the Parlett trajectory's sample
        return g, g <= cfg.eps if l1 else failed != cycles - 1, A.m

    return drive(A, cfg, update, check, lambda: u, check_first=l1,
                 cycle_hook=cycle_hook)
