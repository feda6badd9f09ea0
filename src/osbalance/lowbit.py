"""Certified low-precision execution mode.

Everything here runs in a signed fixed-point log domain.  A quantity x
is stored as the integer round(x * 2**frac_bits); addition, subtraction
and comparison are exact in that representation, halving and the
exp/log table routines each contribute at most one unit of resolution
of error.  Row/column sums are evaluated with a floored log-sum-exp so
that the per-call truncation stays within the iterate tolerance, and
termination is decided by an inexact verifier whose accept region
guarantees the exact criterion at three times its threshold.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .solver import (LN2, TrajectorySample, Strategy, default_max_cycles,
                     order_source, _final_report, _not_balanceable_report)

# Horner coefficients for exp on [-ln2/2, ln2/2]: plain Taylor, degree 13.
_EXP_COEFFS = [1.0 / math.factorial(k) for k in range(13, -1, -1)]


@dataclass(frozen=True)
class LowbitConfig:
    """Precision policy for a run at target accuracy eps on an n-vertex
    instance.

    gamma        additive accuracy of the stored entry logs
    gamma_prime  additive accuracy of iterate updates (the truncation
                 budget of one log-sum-exp call)
    eps_bar      threshold handed to the inexact termination verifier;
                 acceptance at eps_bar certifies true imbalance <= eps
    rho          multiplicative accuracy of the verifier's sum estimates
    frac_bits    fixed-point resolution 2**-frac_bits; sized so that an
                 n-term accumulation stays within gamma_prime
    """
    eps: float
    n: int
    gamma: float = field(init=False)
    gamma_prime: float = field(init=False)
    eps_bar: float = field(init=False)
    rho: float = field(init=False)
    frac_bits: int = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "gamma", self.eps / (8.0 * self.n))
        object.__setattr__(self, "gamma_prime", self.eps ** 2 / 400.0)
        object.__setattr__(self, "eps_bar", self.eps / 3.0)
        object.__setattr__(self, "rho", self.eps_bar / 8.0)
        # 4 guard bits plus log2(2n) so that summing n quantized
        # exponentials keeps the total under gamma_prime.
        f = (math.ceil(math.log2(1.0 / self.gamma_prime)) + 4
             + math.ceil(math.log2(2.0 * self.n)))
        object.__setattr__(self, "frac_bits", f)


class FixedContext:
    """Arithmetic on fixed-point log-domain integers ("FixedLog" values).

    Results are range-checked against the declared integer width; the
    overflow counter must stay zero over a run.
    """

    def __init__(self, frac_bits, width=64):
        self.frac_bits = frac_bits
        self.scale = 1 << frac_bits
        self.limit = 1 << (width - 1)
        self.overflows = 0

    def _check(self, q):
        if not -self.limit <= q < self.limit:
            self.overflows += 1
        return q

    def from_float(self, x):
        return self._check(round(x * self.scale))

    def to_float(self, q):
        return q / self.scale

    def half(self, q):
        """Round-to-nearest-even halving; error at most half a unit."""
        h, r = divmod(q, 2)
        if r and (h & 1):
            h += 1
        return h

    def exp(self, q):
        """e**x for x = q/scale <= 0, quantized to the grid.

        Range-reduced by integer multiples of ln 2 with a fixed Taylor
        polynomial on the remainder; error at most one grid unit.
        """
        x = q / self.scale
        k = round(x / LN2)
        r = x - k * LN2
        acc = 0.0
        for c in _EXP_COEFFS:
            acc = acc * r + c
        return self._check(round(math.ldexp(acc, k) * self.scale))

    def log(self, q):
        """ln(s) for s = q/scale > 0, quantized to the grid.

        Range-reduced to [0.5, 1) with a fixed odd polynomial in
        (s - 1)/(s + 1); error at most one grid unit.
        """
        s = q / self.scale
        m, e = math.frexp(s)
        t = (m - 1.0) / (m + 1.0)
        t2 = t * t
        acc = 0.0
        for k in range(33, 0, -2):  # 17 odd terms cover |t| <= 1/3
            acc = acc * t2 + 1.0 / k
        ln_m = 2.0 * t * acc
        return self._check(round((e * LN2 + ln_m) * self.scale))


def preprocess_log_entries(A, cfg, ctx=None):
    """Fixed-point natural logs of the entries, within gamma of exact,
    in the matrix's canonical entry order."""
    ctx = ctx or FixedContext(cfg.frac_bits)
    return [ctx.from_float(math.log(v)) for v in A.coo_vals]


def log_sum_exp(values, cfg, ctx=None):
    """Floored log-sum-exp of fixed-point values, within gamma_prime.

    Shifted exponents below ln(gamma_prime / (2 * count)) contribute the
    floor value instead, which caps the total truncation at
    gamma_prime / 2; each exponential is evaluated at grid resolution.
    """
    if not values:
        raise ValueError("log_sum_exp of an empty list")
    ctx = ctx or FixedContext(cfg.frac_bits)
    top = max(values)
    if len(values) == 1:
        return top
    floor = ctx.from_float(math.log(cfg.gamma_prime / (2.0 * len(values))))
    acc = 0
    for v in values:
        z = v - top
        if z < floor:
            z = floor
        acc += ctx.exp(z)
    return top + ctx.log(ctx._check(acc))


class LowbitState:
    """Mutable state of a low-precision run: fixed logs of the entries
    arranged by row and by column, plus the fixed-point iterate."""

    def __init__(self, A, cfg):
        self.A = A
        self.cfg = cfg
        self.ctx = FixedContext(cfg.frac_bits)
        logs = preprocess_log_entries(A, cfg, self.ctx)
        pos = {(int(i), int(j)): q
               for (i, j, _), q in zip(A.entries(), logs)}
        self.row_nbr = [[int(i) for i in A.row_index[j]] for j in range(A.n)]
        self.row_log = [[pos[(j, i)] for i in self.row_nbr[j]]
                        for j in range(A.n)]
        self.col_nbr = [[int(i) for i in A.col_index[j]] for j in range(A.n)]
        self.col_log = [[pos[(i, j)] for i in self.col_nbr[j]]
                        for j in range(A.n)]
        self.u = [0] * A.n

    def u_float(self):
        return np.array([self.ctx.to_float(q) for q in self.u])

    def row_sum_log(self, j):
        uj = self.u[j]
        terms = [q + uj - self.u[i]
                 for q, i in zip(self.row_log[j], self.row_nbr[j])]
        return log_sum_exp(terms, self.cfg, self.ctx)

    def col_sum_log(self, j):
        uj = self.u[j]
        terms = [q + self.u[i] - uj
                 for q, i in zip(self.col_log[j], self.col_nbr[j])]
        return log_sum_exp(terms, self.cfg, self.ctx)

    def potential_log(self):
        terms = []
        for j in range(self.A.n):
            uj = self.u[j]
            terms.extend(q + uj - self.u[i]
                         for q, i in zip(self.row_log[j], self.row_nbr[j]))
        return log_sum_exp(terms, self.cfg, self.ctx)


def lowbit_update(state, j, cfg=None):
    """Half-log-ratio update of index j in the fixed-point domain.

    Returns the applied increment (fixed-point).  The increment is
    within 2 * gamma_prime of the exact half log-ratio of the truncated
    sums, hence the applied ratio e**delta matches sqrt(c/r) to
    relative gamma_prime.
    """
    cfg = cfg or state.cfg
    if not state.row_nbr[j] or not state.col_nbr[j]:
        raise ValueError(f"row or column {j} is empty")
    r_log = state.row_sum_log(j)
    c_log = state.col_sum_log(j)
    delta = state.ctx.half(c_log - r_log)
    state.u[j] = state.ctx._check(state.u[j] + delta)
    return delta


def inexact_terminate_check(state, cfg=None):
    """Estimate the normalized imbalance from rho-accurate sums.

    Returns (g_hat, decided).  g_hat satisfies
    g/2 - eps_bar/2 <= g_hat <= 2 g + eps_bar/2 for the true imbalance
    g, so decided (g_hat <= eps_bar) certifies g <= 3 eps_bar = eps.
    """
    cfg = cfg or state.cfg
    phi_log = state.potential_log()
    g_hat = 0.0
    for j in range(state.A.n):
        r = math.exp(state.ctx.to_float(state.row_sum_log(j) - phi_log))
        c = math.exp(state.ctx.to_float(state.col_sum_log(j) - phi_log))
        g_hat += abs(r - c)
    return g_hat, g_hat <= cfg.eps_bar


def run_lowbit(A, cfg, strategy=None, max_cycles=None, update_hook=None):
    """Cyclic-family balancing run entirely in the fixed-point domain.

    After every cycle the inexact verifier is consulted; a cycle whose
    tracked potential failed to decrease (beyond verifier slack) is also
    expected to pass it, and is counted but never trusted blindly.
    Trajectory samples carry the verifier's imbalance estimate.
    """
    strategy = strategy or Strategy("cyclic")
    if strategy.kind not in ("cyclic", "shuffled", "fixed"):
        raise ValueError("low-bit mode supports cyclic-family strategies only")
    cycle_order = order_source(strategy, A.n)
    start = time.perf_counter_ns()
    if A.m == 0 or A.has_empty_line():
        return _not_balanceable_report(A, start)
    if max_cycles is None:
        max_cycles = default_max_cycles(A, cfg.eps)

    state = LowbitState(A, cfg)
    updates = 0
    nonzeros = 0
    trajectory = []

    for k in range(max_cycles):
        for j in cycle_order(k):
            delta = lowbit_update(state, j, cfg)
            nonzeros += int(A.deg[j])
            if update_hook is not None:
                update_hook(state, j, delta)
        updates += A.n
        # A non-descending cycle certifies an O(eps)-balancing, so the
        # verifier below is expected to fire on it; running it after
        # every cycle covers that branch without a separate descent
        # monitor.
        g_hat, decided = inexact_terminate_check(state, cfg)
        nonzeros += 3 * A.m  # full row, column and potential passes
        trajectory.append(TrajectorySample(
            updates, nonzeros, time.perf_counter_ns() - start, g_hat))
        if decided:
            return _final_report(start, state.u_float(), k + 1, updates,
                                 nonzeros, trajectory, "converged")

    return _final_report(start, state.u_float(), max_cycles, updates,
                         nonzeros, trajectory, "max_cycles")
