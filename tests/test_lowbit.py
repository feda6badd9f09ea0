import math
from types import SimpleNamespace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import osbalance
from osbalance import (LowbitConfig, LowbitState, NotBalanceableError,
                       SolverConfig, Strategy, build_matrix, gen_kalantari,
                       gen_salient, imbalance, inexact_terminate_check,
                       log_sum_exp, lowbit_update, run_lowbit, stats)
from osbalance.core import dependency_levels
from osbalance.solver import cycle_rng, order_source
from conftest import dense_instance, random_support, ring_plus_entries

mp.mp.prec = 200

A22 = build_matrix(2, [(0, 1, 4.0), (1, 0, 1.0)])
SYM3 = build_matrix(3, [(0, 1, 2.0), (1, 0, 2.0), (1, 2, 5.0), (2, 1, 5.0),
                        (0, 2, 1.0), (2, 0, 1.0)])


class FixedContext(osbalance.FixedContext):
    """The fixed-point context with exp and log: the stdlib values
    rounded to the grid and range-checked, the expressions that
    log_sum_exp inlines."""

    def exp(self, q):
        """e**(q/scale), the float64 value rounded to the grid."""
        return self._check(round(math.exp(q / self.scale) * self.scale))

    def log(self, q):
        """ln(q/scale) for q > 0, the float64 value rounded to the grid."""
        return self._check(round(math.log(q / self.scale) * self.scale))


def exact_sums(state, j):
    """Row/column sums of truncated-log entries at the current fixed-point
    iterate, evaluated in extended precision (all inputs are exact dyadic
    rationals, so this is an exact reference)."""
    scale = mp.mpf(2) ** (-state.cfg.frac_bits)
    uj = state.u[j]
    r = mp.fsum(mp.e ** ((q + uj - state.u[i]) * scale)
                for q, i in zip(state.row_log[j], state.row_nbr[j]))
    c = mp.fsum(mp.e ** ((q + state.u[i] - uj) * scale)
                for q, i in zip(state.col_log[j], state.col_nbr[j]))
    return r, c


def reference_log_sum_exp(values, cfg, ctx):
    """log_sum_exp through ctx.exp, ctx.log and ctx._check, as it was
    before those calls were inlined into its loop."""
    top = max(values)
    if len(values) == 1:
        return top
    floor = ctx._check(round(math.log(cfg.gamma_prime / (2.0 * len(values)))
                             * ctx.scale))
    acc = 0
    for v in values:
        acc += ctx.exp(max(v - top, floor))
    return top + ctx.log(ctx._check(acc))


class FreshState(LowbitState):
    """LowbitState whose sums_log forms fresh term lists on every call
    and keeps no pairs: the reference for the kept ones."""

    def __init__(self, A, cfg):
        super().__init__(A, cfg)
        self.ctx.__class__ = FixedContext  # the one with exp and log

    def sums_log(self, j):
        u, uj = self.u, self.u[j]
        r = [q + uj - u[i] for q, i in zip(self.row_log[j], self.row_nbr[j])]
        c = [q - uj + u[i] for q, i in zip(self.col_log[j], self.col_nbr[j])]
        return (reference_log_sum_exp(r, self.cfg, self.ctx),
                reference_log_sum_exp(c, self.cfg, self.ctx))


class LoopState(LowbitState):
    """LowbitState whose check forms each pair with sums_log, one vertex
    at a time: the reference for the one-pass pairs."""

    def form_stale_pairs(self):
        pass


def expected_nonzeros(A, orders):
    """The nonzeros after each check of a low-bit run whose cycle k
    updates every index once, in the order orders[k].

    In the first cycle every update of j reads deg(j).  From the second
    on, an update of j reads nothing when every neighbor of j comes
    after j in the order: its sums are still those the last check
    formed.  A check reads deg(j) except for the j whose neighbors all
    come before j, whose sums its update kept."""
    nbrs, deg = [set() for _ in range(A.n)], [0] * A.n
    for i, j, _ in A.entries():
        nbrs[i].add(j)
        nbrs[j].add(i)
        deg[i] += 1
        deg[j] += 1
    total, out = 0, []
    for k, order in enumerate(orders):
        pos = {j: p for p, j in enumerate(order)}
        for j in order:
            if k == 0 or any(pos[i] < pos[j] for i in nbrs[j]):
                total += deg[j]
            if any(pos[i] > pos[j] for i in nbrs[j]):
                total += deg[j]
        out.append(total)
    return out


class TestFixedContext:
    def test_round_trip(self):
        ctx = FixedContext(30)
        for x in (0.0, 1.0, -3.25, 0.7, 12.125):
            assert abs(ctx.to_float(ctx.from_float(x)) - x) <= 2.0 ** -30

    def test_exp_accuracy(self):
        ctx = FixedContext(40)
        delta = 2.0 ** -40
        for x in np.linspace(-20, 3, 57):
            got = ctx.to_float(ctx.exp(ctx.from_float(float(x))))
            assert abs(got - math.exp(ctx.to_float(ctx.from_float(float(x))))) <= 4 * delta

    def test_log_accuracy(self):
        ctx = FixedContext(40)
        delta = 2.0 ** -40
        for x in np.geomspace(1e-6, 1e6, 49):
            q = ctx.from_float(float(x))
            got = ctx.to_float(ctx.log(q))
            assert abs(got - math.log(ctx.to_float(q))) <= 4 * delta

    @pytest.mark.parametrize("frac_bits", [30, 40, 48])
    def test_exp_log_within_one_unit_of_extended_precision(self, frac_bits):
        ctx = FixedContext(frac_bits)
        unit = mp.mpf(2) ** -frac_bits
        for x in np.linspace(-30, 0, 121):
            q = ctx.from_float(float(x))
            assert abs(ctx.exp(q) * unit - mp.exp(q * unit)) <= unit
        for x in np.geomspace(1e-6, 1e6, 121):
            q = ctx.from_float(float(x))
            assert abs(ctx.log(q) * unit - mp.log(q * unit)) <= unit

    def test_overflow_counted(self):
        ctx = FixedContext(55)
        ctx.exp(ctx.from_float(500.0))
        assert ctx.overflows > 0


class TestConfig:
    def test_derived_constants(self):
        cfg = LowbitConfig(0.1, 50)
        assert cfg.gamma == pytest.approx(0.1 / 400)
        assert cfg.gamma_prime == pytest.approx(0.01 / 400)
        assert cfg.eps_bar == pytest.approx(0.1 / 3)
        assert cfg.rho == pytest.approx(cfg.eps_bar / 8)
        assert cfg.gamma_prime <= 0.1 ** 2

    # eps**2 / 400 underflows to 0 at 1e-300, and its reciprocal
    # overflows at 1e-160
    @pytest.mark.parametrize("eps", [1e-300, 1e-160])
    def test_tiny_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=f"eps = {eps} is too small"):
            LowbitConfig(eps, 7)

    # 4096 float64 epsilons: below it both verifiers' float64 sums can
    # accept by rounding alone (the 7-vertex ring reads 1.7e-16 at 1e-20)
    @pytest.mark.parametrize("eps", [1e-20, 1e-13, math.nextafter(2**-40, 0)])
    def test_eps_below_float64_floor_rejected(self, eps):
        with pytest.raises(ValueError, match=f"eps = {eps} is too small"):
            LowbitConfig(eps, 7)
        assert LowbitConfig(2**-40, 7).eps == 2**-40


class TestPreprocess:
    def test_unit_entry_is_exact_zero(self):
        A = build_matrix(2, [(0, 1, 1.0), (1, 0, 1.0)])
        state = LowbitState(A, LowbitConfig(0.01, 2))
        assert state.row_log == state.col_log == [[0], [0]]

    def test_e_entry(self):
        A = build_matrix(2, [(0, 1, math.e), (1, 0, 1.0)])
        cfg = LowbitConfig(0.01, 2)
        state = LowbitState(A, cfg)
        q = state.row_log[0][0]
        assert q == state.col_log[1][0]
        assert abs(state.ctx.to_float(q) - 1.0) <= cfg.gamma

    def test_kalantari_entries_vs_extended_precision(self):
        A = gen_kalantari(40)
        cfg = LowbitConfig(0.01, A.n)
        state = LowbitState(A, cfg)
        # Row parts in vertex order are the canonical entry order.
        logs = [q for part in state.row_log for q in part]
        assert sorted(logs) == sorted(q for part in state.col_log
                                      for q in part)
        for (i, j, v), q in zip(A.entries(), logs, strict=True):
            ref = float(mp.log(mp.mpf(repr(float(v)))))
            assert abs(state.ctx.to_float(q) - ref) <= cfg.gamma


class TestLogSumExp:
    def test_single_value_exact(self):
        cfg = LowbitConfig(0.01, 10)
        ctx = FixedContext(cfg.frac_bits)
        q = ctx.from_float(-2.375)
        assert log_sum_exp([q], cfg, ctx) == q

    def test_two_equal_values(self):
        cfg = LowbitConfig(0.01, 10)
        ctx = FixedContext(cfg.frac_bits)
        q = ctx.from_float(0.8125)
        got = ctx.to_float(log_sum_exp([q, q], cfg, ctx))
        assert abs(got - (0.8125 + math.log(2.0))) <= cfg.gamma_prime

    def test_hundred_random_values(self):
        cfg = LowbitConfig(0.01, 100)
        ctx = FixedContext(cfg.frac_bits)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-20, 20, size=100)
        qs = [ctx.from_float(float(x)) for x in xs]
        got = ctx.to_float(log_sum_exp(qs, cfg, ctx))
        scale = mp.mpf(2) ** (-cfg.frac_bits)
        ref = mp.log(mp.fsum(mp.e ** (q * scale) for q in qs))
        assert abs(got - float(ref)) <= cfg.gamma_prime


@settings(max_examples=200, deadline=None)
@given(st.integers(30, 70), st.sampled_from([1e-1, 1e-3, 1e-6]),
       st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=12))
def test_log_sum_exp_equals_reference(frac_bits, gamma_prime, xs):
    # at 63 fractional bits and more, e**0 alone is out of range
    cfg = SimpleNamespace(gamma_prime=gamma_prime)
    ctx, ref_ctx = FixedContext(frac_bits), FixedContext(frac_bits)
    qs = [ref_ctx.from_float(x) for x in xs]
    ref_ctx.overflows = 0
    assert log_sum_exp(qs, cfg, ctx) == reference_log_sum_exp(qs, cfg,
                                                               ref_ctx)
    assert ctx.overflows == ref_ctx.overflows


class TestLowbitUpdate:
    def test_two_by_two_closed_form(self):
        cfg = LowbitConfig(0.01, 2)
        state = LowbitState(A22, cfg)
        lowbit_update(state, 0)
        got = state.ctx.to_float(state.u[0])
        assert abs(got - (-math.log(2.0))) <= 2 * cfg.gamma_prime + 2 * cfg.gamma

    def test_symmetric_step_is_tiny(self):
        cfg = LowbitConfig(0.01, 3)
        state = LowbitState(SYM3, cfg)
        delta = lowbit_update(state, 1)
        assert abs(state.ctx.to_float(delta)) <= 2 * cfg.gamma_prime

    def test_multiplicative_step_contract(self):
        # the applied ratio exp(delta) must match sqrt(c/r) of the
        # truncated matrix to relative tau = gamma_prime, in both
        # directions
        cfg = LowbitConfig(0.01, 5)
        A = dense_instance(5, seed=33)
        state = LowbitState(A, cfg)
        scale = mp.mpf(2) ** (-cfg.frac_bits)
        tau = mp.mpf(repr(cfg.gamma_prime))
        for sweep in range(3):
            for j in range(5):
                r, c = exact_sums(state, j)
                delta = lowbit_update(state, j)
                ratio = mp.sqrt(c / r)
                step = mp.e ** (delta * scale)
                assert abs(step - ratio) <= tau * ratio
                assert abs(1 / step - 1 / ratio) <= tau / ratio

    def test_post_update_sums_nearly_equal(self):
        cfg = LowbitConfig(0.01, 5)
        A = dense_instance(5, seed=37)
        state = LowbitState(A, cfg)
        tau = mp.mpf(repr(cfg.gamma_prime))
        for sweep in range(3):
            for j in range(5):
                lowbit_update(state, j)
                r, c = exact_sums(state, j)
                assert abs(r - c) <= 2 * tau * mp.sqrt(r * c)


class TestInexactCheck:
    def test_symmetric_accepts(self):
        cfg = LowbitConfig(0.3, 3)
        state = LowbitState(SYM3, cfg)
        g_hat, decided = inexact_terminate_check(state)
        assert decided
        assert g_hat <= cfg.eps_bar / 2

    def test_unbalanced_estimate_in_sandwich(self):
        cfg = LowbitConfig(0.3, 2)  # eps_bar = 0.1
        state = LowbitState(A22, cfg)
        g_hat, decided = inexact_terminate_check(state)
        assert not decided
        assert 0.55 <= g_hat <= 2.45  # true imbalance is 1.2

    def test_sandwich_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(3, 7))
            A = dense_instance(n, seed=int(rng.integers(0, 10 ** 6)))
            u = rng.normal(scale=0.5, size=n)
            cfg = LowbitConfig(0.05, n)
            state = LowbitState(A, cfg)
            ctx = state.ctx
            state.u = [ctx.from_float(float(x)) for x in u]
            g = imbalance(A, np.array([ctx.to_float(q)
                                       for q in state.u])).normalized
            g_hat, _ = inexact_terminate_check(state)
            slack = 1e-9  # entry truncation, absorbed by the sandwich margin
            assert g / 2 - cfg.eps_bar / 2 - slack <= g_hat <= \
                2 * g + cfg.eps_bar / 2 + slack


class TestRunLowbit:
    def test_kalantari_verified_exactly(self):
        K = gen_kalantari(40)
        cfg = SolverConfig(1e-3)
        rep = run_lowbit(K, cfg)
        assert rep.termination == "converged"
        assert imbalance(K, rep.u_final).normalized <= 1e-3

    def test_symmetric_single_cycle(self):
        cfg = SolverConfig(0.1)
        rep = run_lowbit(SYM3, cfg)
        assert rep.termination == "converged"
        assert rep.cycles_used <= 1

    def test_shuffled_strategy(self):
        K = gen_kalantari(5)
        cfg = SolverConfig(1e-2, strategy=Strategy("shuffled", seed=3))
        rep = run_lowbit(K, cfg)
        assert rep.termination == "converged"
        assert imbalance(K, rep.u_final).normalized <= 1e-2

    def test_random_kind_rejected(self):
        with pytest.raises(ValueError):
            run_lowbit(A22, SolverConfig(0.1,
                                         strategy=Strategy("uniform", seed=1)))

    @pytest.mark.parametrize("max_cycles", [0, -3])
    def test_max_cycles_below_one_rejected(self, max_cycles):
        with pytest.raises(ValueError, match="max_cycles must be at least 1"):
            run_lowbit(A22, SolverConfig(0.1, max_cycles=max_cycles))

    def test_salient_operation_budget(self):
        A = gen_salient(200, 5, seed=2)
        st = stats(A)
        eps = 1e-2
        cfg = SolverConfig(eps)
        rep = run_lowbit(A, cfg)
        assert rep.termination == "converged"
        assert imbalance(A, rep.u_final).normalized <= eps
        budget = 400 * A.m * (math.log(st.kappa) / eps) * \
            min(1.0 / eps, st.diameter)
        assert rep.nonzeros_touched <= budget

    def test_nonzeros_count_updates_and_checks(self):
        # the cycle's updates read every entry twice; the check reuses
        # the sums of vertex 2, whose neighbors both come before it
        rep = run_lowbit(SYM3, SolverConfig(0.1))
        assert rep.cycles_used == 1
        assert rep.nonzeros_touched == expected_nonzeros(SYM3, [range(3)])[0]
        assert rep.nonzeros_touched == 4 * SYM3.m - 4

    def test_nonzeros_accumulate_over_a_long_run(self):
        # there is no check before the first cycle
        K = gen_kalantari(40)
        rep = run_lowbit(K, SolverConfig(1e-3))
        assert rep.termination == "converged"
        want = expected_nonzeros(K, [range(K.n)] * rep.cycles_used)
        assert [(s.updates, s.nonzeros) for s in rep.trajectory] == \
            [(K.n * i, w) for i, w in enumerate(want, 1)]
        assert rep.nonzeros_touched == want[-1] < 4 * K.m * rep.cycles_used

    def test_nonzeros_accumulate_over_a_shuffled_run(self):
        K = gen_kalantari(10)
        rep = run_lowbit(K, SolverConfig(
            1e-3, strategy=Strategy("shuffled", seed=3)))
        assert rep.termination == "converged"
        orders = [cycle_rng(3, k).permutation(K.n).tolist()
                  for k in range(rep.cycles_used)]
        want = expected_nonzeros(K, orders)
        assert [(s.updates, s.nonzeros) for s in rep.trajectory] == \
            [(K.n * i, w) for i, w in enumerate(want, 1)]
        assert rep.nonzeros_touched == want[-1] < 4 * K.m * rep.cycles_used

    def test_empty_row_is_not_balanceable(self):
        A = build_matrix(3, [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0),
                             (1, 2, 1.0)])
        state = LowbitState(A, LowbitConfig(0.1, 3))
        with pytest.raises(NotBalanceableError, match="row or column 2"):
            lowbit_update(state, 2)

    @pytest.mark.parametrize("eps, frac_bits", [(1e-3, 41), (1e-6, 61)])
    def test_overflows_reported(self, eps, frac_bits):
        # At 61 bits, every log_sum_exp floor lies outside int64.
        K = gen_kalantari(40)
        states = []
        rep = run_lowbit(K, SolverConfig(eps, max_cycles=2),
                         update_hook=lambda st, j, d: states.append(st))
        assert states[0].cfg.frac_bits == frac_bits
        assert rep.overflows == states[0].ctx.overflows
        assert (rep.overflows > 0) == (frac_bits == 61)

    def test_no_overflow_during_run(self):
        A = dense_instance(8, seed=39)
        cfg = SolverConfig(1e-2)
        traps = []
        rep = run_lowbit(A, cfg,
                         update_hook=lambda st, j, d: traps.append(st))
        assert rep.termination == "converged"
        assert traps[0].ctx.overflows == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(ring_plus_entries))
def test_no_false_accepts(case):
    n, ring, extra, eps = case
    triplets = [(i, (i + 1) % n, 10.0 ** ring[2 * i]) for i in range(n)]
    triplets += [((i + 1) % n, i, 10.0 ** ring[2 * i + 1]) for i in range(n)]
    triplets += [(i, j, 10.0 ** e) for i, j, e in extra]
    A = build_matrix(n, triplets)
    rep = run_lowbit(A, SolverConfig(eps, max_cycles=300))
    if rep.termination == "converged":
        assert imbalance(A, rep.u_final).normalized <= eps


def labelled_ring(k, perm):
    """gen_kalantari(k) with vertex i relabelled perm[i]."""
    K = gen_kalantari(k)
    return build_matrix(K.n, [(perm[i], perm[j], v)
                              for i, j, v in K.entries()])


supports = st.one_of(
    st.integers(2, 8).flatmap(ring_plus_entries).map(random_support),
    st.integers(1, 8).flatmap(lambda k: st.permutations(range(2 * k + 1)))
    .map(lambda p: (labelled_ring(len(p) // 2, p), 1e-2)))


def orders(n):
    """A cyclic, a seeded shuffled, or a fixed order that visits one
    index twice and omits another."""
    fixed = st.permutations(range(n)).map(lambda p: p[:-1] + p[:1])
    return st.one_of(
        st.just(Strategy("cyclic")),
        st.integers(0, 2 ** 16).map(lambda s: Strategy("shuffled", seed=s)),
        fixed.map(lambda p: Strategy("fixed", order=tuple(p))))


def lowbit_run(A, eps, strategy, state_class):
    seen = {}

    def hook(state, j, delta):
        seen["state"] = state
    with mock.patch("osbalance.lowbit.LowbitState", state_class):
        rep = run_lowbit(A, SolverConfig(eps, 200, strategy=strategy),
                         update_hook=hook)
    return rep, seen["state"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kept_sums_bitwise_equal_fresh_ones(data):
    A, eps = data.draw(supports)
    strategy = data.draw(orders(A.n))
    rep, state = lowbit_run(A, eps, strategy, LowbitState)
    ref, ref_state = lowbit_run(A, eps, strategy, FreshState)
    assert type(ref_state) is FreshState and type(state) is LowbitState
    assert state.u == ref_state.u
    assert (rep.cycles_used, rep.updates_used, rep.termination) == \
        (ref.cycles_used, ref.updates_used, ref.termination)
    assert [(s.updates, s.imbalance) for s in rep.trajectory] == \
        [(s.updates, s.imbalance) for s in ref.trajectory]
    if ref_state.ctx.overflows == 0:
        assert state.ctx.overflows == 0


def brute_levels(A, order):
    """dependency_levels in O(n**2): each position's level from every
    earlier position that it touches, found by scanning them all."""
    touch = {(i, j) for i, j, _ in A.entries()} | {(j, j) for j in order}
    levels = []
    for p, j in enumerate(order):
        levels.append(1 + max((levels[q] for q, i in enumerate(order[:p])
                               if (i, j) in touch or (j, i) in touch),
                              default=0))
    return levels, touch


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dependency_levels_equal_brute_force(data):
    A, _ = data.draw(supports)
    order = list(order_source(data.draw(orders(A.n)), A.n)(0))
    levels, touch = brute_levels(A, order)
    assert dependency_levels(A, order) == levels
    # positions of one level touch no common index
    for p, (i, a) in enumerate(zip(order, levels)):
        for j, b in zip(order[p + 1:], levels[p + 1:]):
            assert a != b or not ((i, j) in touch or (j, i) in touch)


def run_fields(rep):
    return (rep.u_final.tobytes(), rep.cycles_used, rep.updates_used,
            rep.nonzeros_touched,
            [(s.updates, s.nonzeros, s.imbalance) for s in rep.trajectory],
            rep.termination, rep.overflows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_level_passes_bitwise_equal_per_vertex_run(data):
    # eps 1e-6 takes the grid past the one-pass guard
    A, eps = data.draw(supports)
    eps = data.draw(st.sampled_from([eps, 1e-6]))
    strategy = data.draw(orders(A.n))
    form_pairs, levels_of = LowbitState.form_pairs, dependency_levels
    calls = []

    def spy(state, vs):
        calls.append(isinstance(vs, range))
        return form_pairs(state, vs)

    def as_given(A, order):  # one level per position: the order itself
        return list(range(1, len(order) + 1))

    def fields(min_level, levels=levels_of):
        calls.clear()
        with mock.patch("osbalance.lowbit._MIN_LEVEL", min_level), \
                mock.patch("osbalance.lowbit.dependency_levels", levels), \
                mock.patch.object(LowbitState, "form_pairs", spy):
            rep = run_lowbit(A, SolverConfig(eps, 200, strategy=strategy))
        return run_fields(rep), calls.count(False)

    ref, passes = fields(A.n + 1, as_given)
    assert passes == 0
    assert fields(A.n + 1) == (ref, 0)
    every, passes = fields(1)
    assert every == ref
    guarded = LowbitState(A, LowbitConfig(eps, A.n)).u_room >= 0
    assert (passes > 0) == (guarded and strategy.kind != "shuffled")


@pytest.mark.parametrize("every", [1, 2])
def test_one_pass_per_large_level_per_cycle(every):
    # a pass per vertex, or per position, would be bitwise the same run
    K = labelled_ring(40, np.random.default_rng(0).permutation(81).tolist())
    levels = dependency_levels(K, range(K.n))
    assert np.bincount(levels)[1:].tolist() == [24, 28, 21, 6, 1, 1]
    large = [[j for j in range(K.n) if levels[j] == level]
             for level in (1, 2, 3)]
    form_pairs, calls = LowbitState.form_pairs, []

    def spy(state, vs):
        calls.append(vs if isinstance(vs, range) else list(vs))
        return form_pairs(state, vs)
    with mock.patch.object(LowbitState, "form_pairs", spy):
        rep = run_lowbit(K, SolverConfig(1e-3, 4, check_every=every))
    assert rep.termination == "max_cycles"
    # the levels of 8 or more each cycle, and form_stale_pairs per check
    assert calls == (large * every + [range(K.n)]) * (4 // every)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_check_cadence_leaves_the_iterate_bitwise(data):
    # a check forms and keeps pairs; the iterate must not depend on when
    A, eps = data.draw(supports)
    eps = data.draw(st.sampled_from([eps, 1e-6]))
    strategy = data.draw(orders(A.n))
    every = data.draw(st.integers(2, 4))
    cycles = every * data.draw(st.integers(1, 4))
    check = osbalance.lowbit.inexact_terminate_check

    def undecided(state):  # so that every run lasts its cycle budget
        return check(state)[0], False

    with mock.patch("osbalance.lowbit.inexact_terminate_check", undecided):
        ref, rep = [run_lowbit(A, SolverConfig(eps, cycles, check_every=k,
                                               strategy=strategy))
                    for k in (1, every)]
    assert rep.u_final.tobytes() == ref.u_final.tobytes()
    assert (rep.cycles_used, rep.updates_used, rep.termination) == \
        (ref.cycles_used, ref.updates_used, ref.termination) == \
        (cycles, cycles * A.n, "max_cycles")
    assert len(rep.trajectory) == cycles // every
    assert [(s.updates, s.imbalance) for s in rep.trajectory] == \
        [(s.updates, s.imbalance) for s in ref.trajectory][every - 1::every]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelled_run_is_the_permuted_run(data):
    # log_sum_exp adds integers, so the order of its terms does not
    # matter; only the check's float g_hat sums in index order
    A, eps = data.draw(supports)
    n, eps = A.n, data.draw(st.sampled_from([eps, 1e-6]))
    perm = data.draw(st.permutations(range(n)))
    order = data.draw(st.one_of(st.just(list(range(n))), st.permutations(
        range(n)).map(lambda p: p[:-1] + p[:1])))
    B = build_matrix(n, [(perm[i], perm[j], v) for i, j, v in A.entries()])
    rep, rel = (run_lowbit(M, SolverConfig(eps, 200, strategy=Strategy(
                    "fixed", order=o)))
                for M, o in ((A, order), (B, [perm[j] for j in order])))
    assert rel.u_final[list(perm)].tobytes() == rep.u_final.tobytes()
    assert (rel.cycles_used, rel.updates_used, rel.nonzeros_touched,
            rel.termination, rel.overflows) == \
        (rep.cycles_used, rep.updates_used, rep.nonzeros_touched,
         rep.termination, rep.overflows)
    assert [(s.updates, s.nonzeros) for s in rel.trajectory] == \
        [(s.updates, s.nonzeros) for s in rep.trajectory]
    assert [s.imbalance for s in rel.trajectory] == pytest.approx(
        [s.imbalance for s in rep.trajectory], rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8).flatmap(ring_plus_entries).map(random_support),
       st.integers(30, 70), st.sampled_from([1e-1, 1e-3, 1e-6]),
       st.sampled_from([None, 0, 150, 300, -300]), st.integers(0, 66),
       st.data())
def test_one_pass_pairs_equal_per_vertex_ones(case, frac_bits, gamma_prime,
                                              decades, u_bits, data):
    # Entries over 300 decades and iterates up to 2**66 grid units take
    # the check past int64, where it must keep the per-vertex loop.
    # Unit entries (decades None) have logs 0, which leaves the most room
    # for fine grids.
    A = case[0]
    A = A.with_entries(np.ones(A.m) if decades is None
                       else A.coo_vals * 10.0 ** decades)
    n = A.n
    u = data.draw(st.lists(st.integers(-2 ** u_bits, 2 ** u_bits),
                           min_size=n, max_size=n))
    updates = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=2 * n))
    cfg = SimpleNamespace(frac_bits=frac_bits, gamma_prime=gamma_prime,
                          eps_bar=0.1)
    state, ref = LowbitState(A, cfg), LoopState(A, cfg)
    for s in (state, ref):
        s.u = list(u)
        for j in updates:
            lowbit_update(s, j)
    assert state.kept == ref.kept and None in state.kept
    reach = max(map(abs, state.u))
    state.form_stale_pairs()
    formed = None not in state.kept
    if frac_bits >= 62 or reach >= 2 ** 62:
        assert not formed
    if frac_bits <= 52 and reach <= 2 ** 60 and abs(decades or 0) <= 150:
        assert formed

    def checked(s):
        try:
            return inexact_terminate_check(s)
        except OverflowError:  # g_hat's exp of a sum far above the total
            return "overflow"
    assert checked(state) == checked(ref)
    assert state.kept == ref.kept
    assert (state.reads, state.ctx.overflows) == (ref.reads,
                                                  ref.ctx.overflows)


def test_one_pass_guard():
    # the bench precision passes; the CLI default eps does not, and
    # neither does an iterate past the room the entry logs leave
    K = gen_kalantari(40)
    assert LowbitState(K, LowbitConfig(1e-6, K.n)).u_room == -1
    state = LowbitState(K, LowbitConfig(1e-3, K.n))
    assert 0 < state.u_room < 2 ** 61
    state.u = state.kept_u = [0] * K.n
    state.u[5] = state.u_room + 1
    state.form_stale_pairs()
    assert state.kept == [None] * K.n and state.reads == 0
    state.u[5] = -state.u_room
    state.form_stale_pairs()
    assert None not in state.kept and state.reads == 2 * K.m
    # nine unit entries per part at 60 bits: the per-vertex sums pass
    # 2**63 and count overflows, and the pass must leave them to it
    D = dense_instance(10, seed=3).with_entries(np.ones(90))
    cfg = SimpleNamespace(frac_bits=60, gamma_prime=0.1, eps_bar=0.1)
    state, ref = LowbitState(D, cfg), LoopState(D, cfg)
    for s in (state, ref):
        lowbit_update(s, 0)
        inexact_terminate_check(s)
    assert state.kept == ref.kept and ref.ctx.overflows > 0
    assert state.ctx.overflows == ref.ctx.overflows


def test_replaced_iterate_is_summed_afresh():
    K = gen_kalantari(5)
    cfg = LowbitConfig(1e-2, K.n)
    state, fresh = LowbitState(K, cfg), FreshState(K, cfg)
    rng = np.random.default_rng(11)
    for trial in range(3):
        for j in range(K.n):
            lowbit_update(state, j)
        inexact_terminate_check(state)  # every pair is kept now
        state.u = [state.ctx.from_float(float(x))
                   for x in rng.normal(size=K.n)]
        fresh.u = list(state.u)
        assert [state.sums_log(j) for j in range(K.n)] == \
            [fresh.sums_log(j) for j in range(K.n)]
