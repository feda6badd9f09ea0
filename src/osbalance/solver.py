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

from .core import (NotBalanceableError, imbalance, row_col_sums,
                   row_col_sums_at)

LN2 = math.log(2.0)

STRATEGY_KINDS = ("cyclic", "shuffled", "uniform", "weighted", "greedy",
                  "fixed")
_SEEDED_KINDS = ("shuffled", "uniform", "weighted")


@dataclass(frozen=True)
class Strategy:
    """Index-selection rule.

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
    order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind in _SEEDED_KINDS and self.seed is None:
            raise ValueError(f"strategy {self.kind!r} requires a seed")
        if self.kind == "fixed" and self.order is None:
            raise ValueError("fixed strategy requires an order")


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


def default_max_cycles(A, eps):
    """Generous multiple of the worst-case cycle bound for conditioning
    kappa = sum/min of the entries of A, which must have an entry."""
    kappa = float(A.coo_vals.sum()) / float(A.coo_vals.min())
    return 4 * math.ceil(80 * math.ceil(math.log2(kappa)) / eps ** 2)


def osborne_update(A, u, j, radix_rounding=False):
    """Balance row/column j in place; returns the pre-update (r_j, c_j).

    The increment is half the log-ratio of the column to row sum, which
    makes both sums equal to their geometric mean.  With radix_rounding
    the increment is rounded to the nearest integer multiple of ln 2,
    keeping the diagonal scaling a power of two.
    """
    r, c = row_col_sums_at(A, u, j)
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
        self._total = 0.0
        for i, w in enumerate(weights):
            self.set(i, w)

    def set(self, i, w):
        delta = w - self.weights[i]
        self.weights[i] = w
        self._total += delta
        k = i + 1
        while k <= self.n:
            self.tree[k] += delta
            k += k & (-k)

    def total(self):
        return self._total

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


class WeightedState:
    """Maintains w_i = r_i + c_i over the current iterate for sampling."""

    def __init__(self, A, u):
        self.A = A
        self.u = u
        r, c = row_col_sums(A, u)
        self.fen = _Fenwick((r + c).tolist())

    def refresh(self, j):
        for i in _touched(self.A, j):
            r, c = row_col_sums_at(self.A, self.u, i)
            self.fen.set(i, r + c)

    def weight(self, i):
        return self.fen.weights[i]

    def set_weight(self, i, w):
        self.fen.set(i, w)


def weighted_sample(state, rng):
    """Draw an index with probability proportional to its weight."""
    total = state.fen.total()
    if total <= 0:
        raise NotBalanceableError("all sampling weights are zero")
    return state.fen.find(rng.random() * total)


class GreedyState:
    """Lazy max-heap over per-index imbalance (sqrt r - sqrt c)^2.

    Stale heap entries are skipped by version stamp instead of being
    removed, to keep refreshes cheap.
    """

    def __init__(self, A, u):
        self.A = A
        self.u = u
        r, c = row_col_sums(A, u)
        imb = (np.sqrt(r) - np.sqrt(c)) ** 2
        self.stamp = [0] * A.n
        self.heap = [(-imb[i], i, 0) for i in range(A.n)]
        heapq.heapify(self.heap)

    def refresh(self, j):
        for i in _touched(self.A, j):
            r, c = row_col_sums_at(self.A, self.u, i)
            self.stamp[i] += 1
            score = (math.sqrt(r) - math.sqrt(c)) ** 2
            heapq.heappush(self.heap, (-score, i, self.stamp[i]))


def greedy_index(state):
    """Index of maximal imbalance at the current iterate (smallest on ties)."""
    heap = state.heap
    while True:
        neg, i, stamp = heap[0]
        if stamp == state.stamp[i]:
            return i
        heapq.heappop(heap)


def _touched(A, j):
    """j plus every vertex whose row/column sum an update of j can change;
    the diagonal is never stored, so j is not among its neighbors."""
    return [j] + A.neighbors(j).tolist()


def _final_report(start_ns, u, cycles, updates, nonzeros, trajectory,
                  termination):
    return BalanceReport(u, cycles, updates, nonzeros,
                         (time.perf_counter_ns() - start_ns) / 1e9,
                         trajectory, termination)


def _not_balanceable_report(A, start_ns):
    return _final_report(start_ns, np.zeros(A.n), 0, 0, 0, [],
                         "not_balanceable")


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
        order = tuple(map(operator.index, strategy.order))
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


def run(A, cfg, update_hook=None, cycle_hook=None):
    """Iterate updates per cfg.strategy until the termination criterion
    holds or max_cycles pass.

    One cycle is n updates.  Termination is checked at cycle boundaries
    every cfg.check_every cycles; the practical criterion requires
    2 sqrt(r_j c_j) > 0.95 (r_j + c_j) for the pre-update sums of every
    update in the last completed cycle.  The trajectory records one
    sample per termination check.

    update_hook(cycle, j, r_before, c_before) and cycle_hook(cycle, u)
    are instrumentation-only callbacks; they do not affect the run.
    """
    n = A.n
    start = time.perf_counter_ns()
    u = np.zeros(n)
    state = None
    if cfg.strategy.kind == "weighted":
        state = WeightedState(A, u)
    elif cfg.strategy.kind == "greedy":
        state = GreedyState(A, u)
    cycle_order = order_source(cfg.strategy, n, state)
    if A.m == 0 or A.has_empty_line():
        return _not_balanceable_report(A, start)
    max_cycles = cfg.max_cycles
    if max_cycles is None:
        max_cycles = default_max_cycles(A, cfg.eps)

    l1 = cfg.criterion == "l1"
    deg = A.deg.tolist()
    updates = 0
    nonzeros = 0
    trajectory = []

    def report(cycles, termination):
        return _final_report(start, u, cycles, updates, nonzeros,
                             trajectory, termination)

    def check(parlett_ok):
        nonlocal nonzeros
        cert = imbalance(A, u)
        if l1:
            nonzeros += A.m
        trajectory.append(TrajectorySample(
            updates, nonzeros, time.perf_counter_ns() - start,
            cert.normalized))
        return cert.normalized <= cfg.eps if l1 else parlett_ok

    if l1 and check(False):
        return report(0, "converged")

    for k in range(max_cycles):
        parlett_ok = True
        for j in cycle_order(k):
            r, c = osborne_update(A, u, j, cfg.radix_rounding)
            nonzeros += deg[j]
            if not (l1 or 2.0 * math.sqrt(r * c) > 0.95 * (r + c)):
                parlett_ok = False
            if update_hook is not None:
                update_hook(k, j, r, c)
            if state is not None:
                state.refresh(j)
        updates += n
        if cycle_hook is not None:
            cycle_hook(k, u)
        cycles = k + 1
        if cycles % cfg.check_every == 0 and check(parlett_ok):
            return report(cycles, "converged")

    return report(max_cycles, "max_cycles")
