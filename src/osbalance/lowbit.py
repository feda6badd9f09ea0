"""Certified low-precision execution mode.

Everything here runs in a signed fixed-point log domain.  A quantity x
is stored as the integer round(x * 2**frac_bits); addition, subtraction
and comparison are exact in that representation and halving costs at
most half a unit.  exp and log are float64 stdlib calls rounded to the
grid, within one unit only while the grid is no finer than float64:
frac_bits <= 52 for exp of x <= 0, and 48 for log on [1e-6, 1e6]; the
precision policy asks for 54 at eps=1e-5 on 81 vertices.  Row/column
sums are evaluated with a floored log-sum-exp so that the per-call
truncation stays within the iterate tolerance, and termination is
decided by an inexact verifier whose accept region guarantees the exact
criterion at three times its threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import NotBalanceableError, dependency_levels
from .solver import drive, order_source

_MIN_LEVEL = 8  # a smaller level's pairs are formed faster one at a time


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

    An eps below 2**-40 (4096 float64 epsilons) raises ValueError: near
    a balanced iterate both verifiers' float64 sums round at a few
    epsilons (1.7e-16 on the 7-vertex ring), so it could pass by rounding.
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
        if self.eps < 4096 * math.ulp(1.0):
            raise ValueError(f"eps = {self.eps} is too small: a low-bit "
                             f"certificate needs eps >= 2**-40")
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

    Results are range-checked against a signed 64-bit width; the
    overflow counter must stay zero over a run.
    """

    def __init__(self, frac_bits):
        self.scale = 1 << frac_bits
        self.limit = 1 << 63
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


@functools.lru_cache(maxsize=1024)
def _floor(gamma_prime, scale, count):
    """Unchecked fixed-point ln(gamma_prime / (2 count)), once per count."""
    return round(math.log(gamma_prime / (2.0 * count)) * scale)


def log_sum_exp(values, cfg, ctx):
    """Floored log-sum-exp of fixed-point values, within gamma_prime.

    Shifted exponents below ln(gamma_prime / (2 * count)) contribute the
    floor value instead, which caps the total truncation at
    gamma_prime / 2; each exponential is evaluated at grid resolution.
    The loop inlines ctx.exp, ctx.log and ctx._check: the same
    expressions and range checks, so the same result and overflow count.
    """
    if not values:
        raise ValueError("log_sum_exp of an empty list")
    top = max(values)
    if len(values) == 1:
        return top
    scale, limit, exp = ctx.scale, ctx.limit, math.exp
    floor = _floor(cfg.gamma_prime, scale, len(values))
    over = not -limit <= floor < limit
    acc = 0
    for v in values:
        z = v - top
        if z < floor:
            z = floor
        e = round(exp(z / scale) * scale)
        if not -limit <= e < limit:
            over += 1
        acc += e
    over += not -limit <= acc < limit
    q = round(math.log(acc / scale) * scale)
    ctx.overflows += over + (not -limit <= q < limit)
    return top + q


class LowbitState:
    """Mutable state of a low-precision run: fixed logs of the entries
    arranged by row and by column, the fixed-point iterate u, and each
    vertex's sums_log pair, kept while valid.  u changes only through
    lowbit_update; a list assigned to u as a whole has no pair kept.
    reads counts the nonzeros that sums_log and form_pairs have
    summed."""

    def __init__(self, A, cfg):
        self.A = A
        self.cfg = cfg
        self.ctx = FixedContext(cfg.frac_bits)
        # Each entry's log is stored, and range-checked, by row and by column.
        logs = [self.ctx.from_float(math.log(v)) for v in A.inc_val.tolist()]
        self.row_nbr, self.col_nbr = A.split_incidence(A.inc_idx.tolist())
        self.row_log, self.col_log = A.split_incidence(logs)
        self.u = [0] * A.n
        self.kept_u, self.kept = self.u, [None] * A.n
        self.reads = 0
        # The check and large levels form stale pairs in one int64 pass,
        # form_pairs, where that pass is exact and sums_log would count no
        # overflow: no row or column part is empty; a part of c terms sums
        # c grid values of at most scale, with c * scale < 2**62, and is
        # clamped at a floor that fits int64; and each exponent v = log
        # +- (u_j - u_i) has |v| < 2**62, which holds while the |u| read
        # are <= u_room.  Elsewhere u_room is -1, and sums_log forms every
        # pair: 41 fractional bits (eps=1e-3 on 81 vertices) pass, 61 do not.
        self.parts = np.stack([A.out_deg, A.deg - A.out_deg], axis=1)
        scale, most = self.ctx.scale, int(self.parts.max())
        floors = [0] + [_floor(cfg.gamma_prime, scale, c)
                        for c in range(1, most + 1)]
        big = max(map(abs, logs), default=0)
        self.u_room = -1
        if (self.parts.min() > 0 and most * scale < 1 << 62
                and -self.ctx.limit <= floors[-1] and big < 1 << 62):
            self.u_room = ((1 << 62) - 1 - big) // 2
            self.inc_log = np.array(logs, dtype=np.int64)
            self.floors = np.array(floors, dtype=np.int64)

    def u_float(self):
        return np.array([self.ctx.to_float(q) for q in self.u])

    def sums_log(self, j):
        """(r_log, c_log) of row/column j of the scaled matrix, each within
        gamma_prime: the fixed-point core.row_col_sums_at.  The pair is
        kept, and returned again until an update of j or of a neighbor."""
        u = self.u
        if u is not self.kept_u:  # pairs formed for another list
            self.kept_u, self.kept = u, [None] * len(u)
        pair = self.kept[j]
        if pair is None:
            row, col = self.row_nbr[j], self.col_nbr[j]
            if not (row and col):
                raise NotBalanceableError(
                    f"row or column {j} is empty; the matrix is not "
                    f"balanceable (consider scc_decompose)")
            uj = u[j]
            r = [q + uj - u[i] for q, i in zip(self.row_log[j], row)]
            c = [q - uj + u[i] for q, i in zip(self.col_log[j], col)]
            pair = self.kept[j] = (log_sum_exp(r, self.cfg, self.ctx),
                                   log_sum_exp(c, self.cfg, self.ctx))
            self.reads += len(r) + len(c)
        return pair

    def form_stale_pairs(self):
        """form_pairs of every vertex."""
        self.form_pairs(range(self.A.n))

    def form_pairs(self, vs):
        """Form the sums_log pair of each vertex of vs that has none kept,
        in one int64 numpy pass and bitwise as sums_log would: the same
        floors, the stdlib exp per term and log per sum, and exact
        integer sums.  A single-term part gets its top, since exp(0) is
        1.  Where __init__ found the pass inexact, or an iterate value it
        checks lies past u_room, it forms nothing."""
        u, kept, A, room = self.u, self.kept, self.A, self.u_room
        js = [j for j in vs if kept[j] is None] if u is self.kept_u else []
        if room < 0 or not js:
            return
        idx, _ = A.incidences(at := np.array(js, dtype=np.intp))
        # the iterate at each js[i], then at each of its neighbors: taken
        # from all of u where that is no more to convert than they are
        near = np.concatenate([at, A.inc_idx[idx]])
        whole = len(near) >= len(u)
        src = u if whole else [u[i] for i in near.tolist()]
        if not (-room <= min(src) and max(src) <= room):
            return
        ends = np.array(src, dtype=np.int64)[near if whole else slice(None)]
        # the row and then the column part of each js[i], in turn
        count = self.parts[at].ravel()
        bounds = np.cumsum(count) - count
        v = self.inc_log[idx] + A.inc_sign[idx] * (
            np.repeat(ends[:len(js)], A.deg[at]) - ends[len(js):])
        top = np.maximum.reduceat(v, bounds)
        z = np.maximum(v - np.repeat(top, count),
                       np.repeat(self.floors[count], count))
        scale, exp, log = self.ctx.scale, math.exp, math.log
        # int64 / scale rounds once, as Python's int / int does
        terms = np.fromiter(map(exp, (z / scale).tolist()), np.float64,
                            z.size)
        acc = np.add.reduceat(np.rint(terms * scale).astype(np.int64),
                              bounds)
        logs = np.fromiter(map(log, (acc / scale).tolist()), np.float64,
                           acc.size)
        sums = iter((top + np.rint(logs * scale).astype(np.int64)).tolist())
        for j, pair in zip(js, zip(sums, sums)):
            kept[j] = pair
        self.reads += len(idx)


def lowbit_update(state, j):
    """Half-log-ratio update of index j in the fixed-point domain.

    Returns the applied increment (fixed-point).  The increment is
    within 2 * gamma_prime of the exact half log-ratio of the truncated
    sums, hence the applied ratio e**delta matches sqrt(c/r) to
    relative gamma_prime.

    j's kept pair moves by exactly (+delta, -delta): every row-j term
    moves by +delta, every column-j term by -delta, and log_sum_exp
    with its top term.  The pairs of j's neighbors are dropped.
    """
    r_log, c_log = state.sums_log(j)
    delta = state.ctx.half(c_log - r_log)
    state.u[j] = state.ctx._check(state.u[j] + delta)
    kept = state.kept
    for i in state.row_nbr[j]:
        kept[i] = None
    for i in state.col_nbr[j]:
        kept[i] = None
    kept[j] = (r_log + delta, c_log - delta)
    return delta


def inexact_terminate_check(state):
    """Estimate the normalized imbalance from rho-accurate sums.

    Returns (g_hat, decided).  g_hat satisfies
    g/2 - eps_bar/2 <= g_hat <= 2 g + eps_bar/2 for the true imbalance
    g, so decided (g_hat <= eps_bar) certifies g <= 3 eps_bar = eps.

    The potential is the floored log-sum-exp of the n row-sum logs, so
    its log is within 2 gamma_prime of exact (one gamma_prime from the
    row sums, one from their total).  Since gamma_prime = eps**2/400 is
    far below rho = eps/24, every normalized sum stays rho-accurate.
    The pairs no update kept come from one form_stale_pairs pass where
    that pass is exact, else from sums_log one vertex at a time.
    """
    state.form_stale_pairs()
    sums = [state.sums_log(j) for j in range(state.A.n)]
    phi_log = log_sum_exp([r_log for r_log, _ in sums], state.cfg, state.ctx)
    to_float = state.ctx.to_float
    g_hat = 0.0
    for r_log, c_log in sums:
        g_hat += abs(math.exp(to_float(r_log - phi_log))
                     - math.exp(to_float(c_log - phi_log)))
    return g_hat, g_hat <= state.cfg.eps_bar


def run_lowbit(A, cfg, update_hook=None):
    """Cyclic-family balancing run entirely in the fixed-point domain,
    under cfg, the run's SolverConfig, with LowbitConfig(cfg.eps, A.n).
    A strategy other than cyclic, shuffled or fixed, criterion parlett
    and radix_rounding raise ValueError.  The check is the inexact
    verifier, whose imbalance estimate the trajectory samples carry.

    A cyclic or fixed order runs level by level: drive hands update each
    level of dependency_levels in turn, which gives bitwise the iterate
    of the order as given (update_hook sees the level-major order).
    Where the one-pass guard holds, a level of at least _MIN_LEVEL
    indices forms its stale pairs in one form_pairs pass; smaller
    levels, shuffled orders and runs outside the guard form each pair
    with sums_log.
    """
    cfg.require("low-bit mode", strategy=("cyclic", "shuffled", "fixed"),
                criterion=("l1",), radix_rounding=(False,))
    state = LowbitState(A, LowbitConfig(cfg.eps, A.n))
    levels = None
    if cfg.strategy.kind != "shuffled" and A.strongly_connected():
        order = order_source(cfg.strategy, A.n)(0)
        level_of = dependency_levels(A, order)
        levels = [[] for _ in range(max(level_of))]
        for j, level in zip(order, level_of):
            levels[level - 1].append(j)

    def update(k, batch):
        reads = state.reads
        if levels and len(batch) >= _MIN_LEVEL and state.u_room >= 0:
            state.form_pairs(batch)
        for j in batch:
            delta = lowbit_update(state, j)
            if update_hook is not None:
                update_hook(state, j, delta)
        return state.reads - reads

    def check(cycles):
        reads = state.reads
        g_hat, decided = inexact_terminate_check(state)
        return g_hat, decided, state.reads - reads

    report = drive(A, cfg, update, check, state.u_float, levels=levels)
    report.overflows = state.ctx.overflows
    return report
