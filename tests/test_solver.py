import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osbalance import (BalancingError, GreedyState,
                       ScalingOverflowError, SolverConfig, Strategy,
                       WeightedState, build_matrix, gen_kalantari,
                       gen_random_sparse, gen_salient, gradient, greedy_index, imbalance, osborne_update,
                       greedy_color, potential, run, run_lowbit,
                       run_parallel, scaled_matrix, stats,
                       theoretical_cycle_bound, weighted_sample)
from osbalance import solver
from osbalance.core import row_col_sums, row_col_sums_at
from osbalance.solver import cycle_rng, default_max_cycles
from conftest import (dense_instance, dense_potential, random_support,
                      ring_plus_entries, sparse_balanceable)

A22 = build_matrix(2, [(0, 1, 4.0), (1, 0, 1.0)])
SYM3 = build_matrix(3, [(0, 1, 2.0), (1, 0, 2.0), (1, 2, 5.0), (2, 1, 5.0),
                        (0, 2, 1.0), (2, 0, 1.0)])


def kernel_calls(monkeypatch):
    """Wraps the solver's row_col_sums_at; returns the list that gets
    (calling function, index) of every call."""
    calls = []

    def kernel(A, u, i):
        calls.append((sys._getframe(1).f_code.co_name, i))
        return row_col_sums_at(A, u, i)
    monkeypatch.setattr(solver, "row_col_sums_at", kernel)
    return calls


def kept_pair_gaps(monkeypatch):
    """Wraps the solver's osborne_update; returns the list that gets,
    for every kept pair it is handed, the larger relative gap to
    row_col_sums_at at that iterate."""
    gaps, update = [], solver.osborne_update

    def checked(A, u, j, radix_rounding=False, sums=None):
        if sums is not None:
            fresh = row_col_sums_at(A, u, j)
            gaps.append(max(abs(a - b) / b for a, b in zip(sums, fresh)))
        return update(A, u, j, radix_rounding, sums)
    monkeypatch.setattr(solver, "osborne_update", checked)
    return gaps


class TestOsborneUpdate:
    def test_two_by_two(self):
        u = np.zeros(2)
        r, c = osborne_update(A22, u, 0)
        assert (r, c) == (4.0, 1.0)
        assert u[0] == pytest.approx(-math.log(2.0), rel=1e-15)
        assert u[1] == 0.0
        from osbalance import row_col_sums_at
        r1, c1 = row_col_sums_at(A22, u, 0)
        assert r1 == pytest.approx(2.0, rel=1e-14)
        assert c1 == pytest.approx(2.0, rel=1e-14)

    def test_symmetric_fixed_point(self):
        u = np.zeros(3)
        r, c = osborne_update(SYM3, u, 1)
        assert r == c
        assert np.array_equal(u, np.zeros(3))

    def test_post_update_sums_are_geometric_mean(self):
        A = dense_instance(5, seed=41)
        D = A.to_dense()
        u = np.random.default_rng(41).normal(size=5)
        for j in range(5):
            v = u.copy()
            r, c = osborne_update(A, v, j)
            gm = math.sqrt(r * c)
            rj = math.fsum(math.exp(v[j] - v[i]) * D[j, i] for i in range(5))
            cj = math.fsum(math.exp(v[i] - v[j]) * D[i, j] for i in range(5))
            assert rj == pytest.approx(gm, rel=1e-12)
            assert cj == pytest.approx(gm, rel=1e-12)

    def test_given_sums_take_the_same_step(self):
        u, v = np.array([0.3, -0.2, 0.1]), np.array([0.3, -0.2, 0.1])
        for j in (0, 1, 2, 0):
            pair = osborne_update(SYM3, u, j, radix_rounding=j == 2)
            assert osborne_update(SYM3, v, j, j == 2, sums=pair) == pair
            assert np.array_equal(u, v)
        with pytest.raises(ScalingOverflowError):
            osborne_update(SYM3, v, 0, sums=(0.0, 1.0))

    def test_descent_identity(self):
        A = sparse_balanceable(10, 0.3, seed=43)
        D = A.to_dense()
        u = np.zeros(10)
        for _ in range(3):
            for j in range(10):
                before = dense_potential(D, u)
                r, c = osborne_update(A, u, j)
                after = dense_potential(D, u)
                drop = (math.sqrt(r) - math.sqrt(c)) ** 2
                assert abs((after - before) + drop) <= \
                    1e-10 * drop + 1e-14 * before

    def test_radix_rounding_step_near_exact(self):
        A = dense_instance(6, seed=47)
        ln2 = math.log(2.0)
        u = np.zeros(6)
        for j in range(6):
            v = u.copy()
            w = u.copy()
            r, c = osborne_update(A, v, j)
            osborne_update(A, w, j, radix_rounding=True)
            exact = 0.5 * math.log(c / r)
            rounded = w[j] - u[j]
            assert abs(rounded / ln2 - round(rounded / ln2)) < 1e-12
            assert abs(rounded - exact) <= ln2 / 2 + 1e-12


class TestRun:
    def test_already_balanced(self):
        S = build_matrix(4, [(i, j, 1.0) for i in range(4)
                             for j in range(4) if i != j])
        rep = run(S, SolverConfig(eps=1e-10))
        assert rep.termination == "converged"
        assert rep.cycles_used <= 1
        assert np.array_equal(rep.u_final, np.zeros(4))

    def test_two_by_two_one_cycle(self):
        rep = run(A22, SolverConfig(eps=1e-10))
        assert rep.termination == "converged"
        assert rep.cycles_used == 1
        M = scaled_matrix(A22, rep.u_final).to_dense()
        assert np.allclose(M, [[0.0, 2.0], [2.0, 0.0]], rtol=1e-12)

    def test_kalantari_deep_convergence(self):
        K = gen_kalantari(40)
        rep = run(K, SolverConfig(eps=1e-10))
        assert rep.termination == "converged"
        assert imbalance(K, rep.u_final).normalized <= 1e-10

    def test_explicit_cycle_bound_never_exceeded(self):
        A = dense_instance(50, seed=53)
        rep = run(A, SolverConfig(eps=0.01, max_cycles=10 ** 9))
        assert rep.termination == "converged"
        bound = theoretical_cycle_bound(stats(A), 0.01).explicit
        assert rep.cycles_used <= bound

    def test_default_max_cycles_is_four_explicit_bounds(self):
        A = gen_kalantari(40)
        assert default_max_cycles(A, 0.01) == 4 * theoretical_cycle_bound(
            stats(A), 0.01).explicit
        # kappa overflows to inf here, log2 kappa does not
        B = build_matrix(2, [(0, 1, 1e300), (1, 0, 1e-300)])
        assert default_max_cycles(B, 0.5) == 4 * 80 * 1994 * 4
        assert run(B, SolverConfig()).termination == "converged"

    def test_nonzeros_count_selection_and_checks(self, monkeypatch):
        A = gen_kalantari(3)
        deg = A.deg.tolist()
        order, recomputed = [], kernel_calls(monkeypatch)
        rep = run(A, SolverConfig(max_cycles=1,
                                  strategy=Strategy("greedy")),
                  update_hook=lambda k, j, r, c: order.append(j))
        assert len(order) == A.n
        # the kernel runs only on guarded recomputes, and one fires here
        assert {caller for caller, _ in recomputed} == {"_resum"}
        # state build, initial and final L1 check, the resync after the
        # failed final check, then each update's own row/column read
        # once, by the upkeep; every guarded neighbor is recomputed from
        # its own deg(i) entries on top of that
        assert rep.nonzeros_touched == (
            4 * A.m + sum(deg[j] for j in order)
            + sum(deg[i] for _, i in recomputed))
        rep = run(A, SolverConfig(max_cycles=1, criterion="parlett"))
        assert rep.termination == "max_cycles"
        # one cycle touches every entry twice; the check samples once
        assert rep.nonzeros_touched == sum(deg) + A.m == 3 * A.m

    def test_check_every_reads_the_last_cycle(self):
        # The Parlett test of a check reads only the cycle just before it,
        # not every cycle since the previous check.
        A = gen_random_sparse(30, 0.2, seed=4)
        for strategy in (Strategy("cyclic"), Strategy("uniform", seed=7),
                         Strategy("weighted", seed=7), Strategy("greedy")):
            failed = set()

            def hook(k, j, r, c):
                if not 2.0 * math.sqrt(r * c) > 0.95 * (r + c):
                    failed.add(k)
            rep = run(A, SolverConfig(criterion="parlett", check_every=3,
                                      strategy=strategy), update_hook=hook)
            assert rep.termination == "converged"
            first = next(c for c in range(3, rep.cycles_used + 1, 3)
                         if c - 1 not in failed)
            assert rep.cycles_used == first
            assert failed & {0, 1}, "no earlier failure to tell the two apart"

    def test_check_every_sets_the_sample_cadence(self):
        A = gen_random_sparse(30, 0.2, seed=4)
        rep = run(A, SolverConfig(eps=1e-8, check_every=3))
        assert rep.termination == "converged"
        assert [s.updates for s in rep.trajectory] == \
            [3 * A.n * i for i in range(1 + rep.cycles_used // 3)]

    def test_nonzeros_accumulate_per_cycle_and_check(self):
        # the initial check reads m; each cycle reads every entry twice
        # in its updates and once more in its check
        A = gen_kalantari(40)
        rep = run(A, SolverConfig(eps=1e-8))
        assert rep.termination == "converged" and rep.cycles_used > 100
        assert [(s.updates, s.nonzeros) for s in rep.trajectory] == \
            [(A.n * i, A.m + 3 * A.m * i) for i in range(rep.cycles_used + 1)]
        assert rep.nonzeros_touched == A.m + 3 * A.m * rep.cycles_used

    def test_not_balanceable_reported(self):
        A = build_matrix(3, [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0)])
        rep = run(A, SolverConfig(eps=1e-6))
        assert rep.termination == "not_balanceable"

    def test_overflow_raises_without_warning(self):
        # the first update's row sum overflows: numpy must not warn
        # before the typed error is raised
        A = build_matrix(3, [(0, 1, 2.890220117260686e-45),
                             (0, 2, 1.6761172109559907e-284),
                             (1, 0, 1.4750224836566334e+217),
                             (1, 2, 3.6470718646188905e-291),
                             (2, 1, 6.138363649824407e+261)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalingOverflowError):
                run(A, SolverConfig())

    def test_max_cycles_reported(self):
        K = gen_kalantari(40)
        rep = run(K, SolverConfig(eps=1e-10, max_cycles=2))
        assert rep.termination == "max_cycles"
        assert rep.cycles_used == 2

    def test_potential_never_increases(self):
        A = sparse_balanceable(12, 0.3, seed=59)
        phis = []
        run(A, SolverConfig(eps=1e-9),
            cycle_hook=lambda k, u: phis.append(potential(A, u)))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(phis, phis[1:]))

    def test_per_cycle_imbalance_bound(self):
        # after each full cyclic pass, the gradient norm is at most the
        # sum of the within-cycle row/column gaps past the first update
        A = dense_instance(10, seed=61)
        gaps = {}
        norms = {}

        def on_update(k, j, r, c):
            gaps.setdefault(k, []).append(abs(r - c))

        def on_cycle(k, u):
            norms[k] = (float(np.abs(gradient(A, u)).sum()),
                        potential(A, u))

        run(A, SolverConfig(eps=1e-9), update_hook=on_update,
            cycle_hook=on_cycle)
        assert norms
        for k, (norm, phi) in norms.items():
            assert norm <= math.fsum(gaps[k][1:]) + 1e-9 * phi

    def test_parlett_criterion_implies_coarse_balance(self):
        for seed in range(5):
            A = dense_instance(8, seed=seed)
            rep = run(A, SolverConfig(eps=0.5, criterion="parlett"))
            assert rep.termination == "converged"
            assert imbalance(A, rep.u_final).normalized <= 1.0

    def test_trajectory_matches_exact_imbalance(self):
        A = dense_instance(8, seed=67)
        rep = run(A, SolverConfig(eps=1e-8))
        # replaying the run with a cycle hook reproduces the sampled values
        seen = []
        run(A, SolverConfig(eps=1e-8),
            cycle_hook=lambda k, u: seen.append(
                imbalance(A, u).normalized))
        sampled = [t.imbalance for t in rep.trajectory]
        assert sampled[1:] == seen[:len(sampled) - 1]

    def test_seeded_strategies_are_deterministic(self):
        A = sparse_balanceable(15, 0.3, seed=71)
        for kind in ("shuffled", "uniform", "weighted"):
            cfg = SolverConfig(eps=1e-8, strategy=Strategy(kind, seed=9))
            a = run(A, cfg)
            b = run(A, cfg)
            assert np.array_equal(a.u_final, b.u_final)
            assert a.cycles_used == b.cycles_used

    def test_seed_required_for_random_kinds(self):
        with pytest.raises(ValueError):
            Strategy("shuffled")

    @pytest.mark.parametrize("kind", ["shuffled", "uniform", "weighted"])
    def test_negative_seed_refused_by_seeded_kinds(self, kind):
        # refused when built, before a run hands it to SeedSequence
        with pytest.raises(ValueError, match=f"strategy '{kind}' requires "
                                             f"a seed >= 0, not -1"):
            Strategy(kind, seed=-1)

    def test_seed_is_kept_as_an_int(self):
        with pytest.raises(TypeError):  # when built, not inside run
            Strategy("uniform", seed=1.5)
        assert type(Strategy("shuffled", seed=np.int64(3)).seed) is int
        assert Strategy("cyclic", seed=-1).seed == -1  # a seed it never uses

    @pytest.mark.parametrize("kind", ["cyclic", "shuffled", "uniform",
                                      "weighted", "greedy"])
    def test_order_refused_by_kinds_other_than_fixed(self, kind):
        # it would be dropped: the kind alone decides the order
        with pytest.raises(ValueError,
                           match=f"strategy '{kind}' takes no order"):
            Strategy(kind, seed=1, order=(2, 1, 0))

    def test_fixed_order_hashes_and_compares_by_value(self):
        # run_parallel passes an ndarray order
        same = [Strategy("fixed", order=order) for order in (
            np.arange(3), np.arange(3, dtype=np.int32), [0, 1, 2], (0, 1, 2))]
        assert all(s == same[0] and hash(s) == hash(same[0]) for s in same)
        assert all(type(j) is int for j in same[0].order)
        assert Strategy("fixed", order=np.array([0, 2, 1])) != same[0]
        with pytest.raises(TypeError):
            Strategy("fixed", order=np.array([0.0, 1.0, 2.0]))

    @staticmethod
    def run_fixed(driver, A, order):
        strategy = Strategy("fixed", order=order)
        if driver == "lowbit":
            return run_lowbit(A, SolverConfig(1e-2, 200, strategy=strategy))
        return run(A, SolverConfig(eps=1e-6, max_cycles=200,
                                   strategy=strategy))

    @pytest.mark.parametrize("driver", ["exact", "lowbit"])
    @pytest.mark.parametrize("order, match", [
        ((0, 1), "length 2"),                         # too short
        (tuple(range(7)) + (0, 1), "length 9"),       # too long
        ((0, 1, 2, 3, 4, 5, -1), "index -1"),         # would wrap
        ((0, 1, 2, 3, 4, 5, 7), "index 7"),
    ])
    def test_malformed_fixed_order_rejected(self, driver, order, match):
        with pytest.raises(ValueError, match=match):
            self.run_fixed(driver, gen_kalantari(3), order)

    @pytest.mark.parametrize("driver", ["exact", "lowbit"])
    def test_fixed_order_may_omit_an_index(self, driver):
        # The balancing is unique only up to an additive constant, so a
        # cycle that never updates index 6 can still converge.
        K = gen_kalantari(3)
        rep = self.run_fixed(driver, K, (0, 1, 2, 3, 4, 5, 5))
        assert rep.termination == "converged"
        assert rep.updates_used == K.n * rep.cycles_used

    def test_scalar_rescale_equivariance(self):
        A = sparse_balanceable(10, 0.3, seed=73)
        cA = build_matrix(10, [(int(i), int(j), 8.0 * float(v))
                               for i, j, v in A.entries()])
        for kind, seed in (("cyclic", None), ("shuffled", 3),
                           ("uniform", 3), ("weighted", 3), ("greedy", None)):
            cfg = SolverConfig(eps=1e-9, strategy=Strategy(kind, seed=seed))
            ua = run(A, cfg).u_final
            ub = run(cA, cfg).u_final
            assert np.allclose(ua, ub, rtol=1e-12, atol=1e-15)

    def test_uniqueness_across_strategies(self):
        A = sparse_balanceable(12, 0.3, seed=79)
        mats = []
        for kind, seed in (("cyclic", None), ("shuffled", 5),
                           ("uniform", 5), ("weighted", 5), ("greedy", None)):
            cfg = SolverConfig(eps=1e-10, strategy=Strategy(kind, seed=seed))
            rep = run(A, cfg)
            assert rep.termination == "converged"
            mats.append(scaled_matrix(A, rep.u_final).to_dense())
        for M in mats[1:]:
            assert np.allclose(M, mats[0], rtol=1e-6)

    def test_permutation_equivariance(self):
        A = dense_instance(7, seed=83)
        perm = np.random.default_rng(83).permutation(7)
        PA = build_matrix(7, [(int(perm[i]), int(perm[j]), float(v))
                              for i, j, v in A.entries()])
        Ma = scaled_matrix(A, run(A, SolverConfig(eps=1e-10)).u_final)
        Mp = scaled_matrix(PA, run(PA, SolverConfig(eps=1e-10)).u_final)
        Da, Dp = Ma.to_dense(), Mp.to_dense()
        assert np.allclose(Dp[np.ix_(perm, perm)], Da, rtol=1e-6)


class TestDriveBatches:
    """drive hands update a batch of indices: one per level, else one per
    cycle; greedy and weighted one index at a time, with its kept sums."""

    K = gen_kalantari(3)

    def drive(self, strategy, levels=None, cycles=3):
        A, calls, deg = self.K, [], self.K.deg.tolist()

        def update(k, batch, sums=None):
            calls.append((k, list(batch), sums is not None))
            return sum(deg[j] for j in batch)

        def check(cycles):
            return 1.0, False, A.m
        rep = solver.drive(A, SolverConfig(max_cycles=cycles,
                                           strategy=strategy),
                           update, check, lambda: np.zeros(A.n),
                           levels=levels)
        assert (rep.updates_used, rep.termination) == (cycles * A.n,
                                                       "max_cycles")
        # per cycle: every index's deg from update, then the check's m;
        # kept sums add the refreshes' degs and the build's or resync's m
        twice = 2 if strategy.kind in ("greedy", "weighted") else 1
        assert [(s.updates, s.nonzeros) for s in rep.trajectory] == \
            [(c * A.n, c * twice * (sum(deg) + A.m))
             for c in range(1, cycles + 1)]
        return calls

    def test_one_call_per_level(self):
        levels = [[0, 2, 4], [1, 5], [6], [3]]
        calls = self.drive(Strategy("cyclic"), levels)
        assert calls == [(k, level, False) for k in range(3)
                         for level in levels]

    @pytest.mark.parametrize("strategy", [
        Strategy("cyclic"), Strategy("fixed", order=(6, 5, 4, 3, 2, 1, 0)),
        Strategy("shuffled", seed=4)], ids=lambda s: s.kind)
    def test_one_call_per_cycle(self, strategy):
        order = solver.order_source(strategy, self.K.n)
        assert self.drive(strategy) == [(k, list(order(k)), False)
                                        for k in range(3)]

    @pytest.mark.parametrize("strategy", [
        Strategy("greedy"), Strategy("weighted", seed=4)],
        ids=lambda s: s.kind)
    def test_one_call_per_update_with_kept_sums(self, strategy):
        calls = self.drive(strategy, levels=[list(range(self.K.n))])
        assert len(calls) == 3 * self.K.n
        assert all(len(batch) == 1 and kept for _, batch, kept in calls)
        assert [k for k, _, _ in calls] == [k for k in range(3)
                                            for _ in range(self.K.n)]


class TestGreedyIndex:
    def test_tie_breaks_to_smallest(self):
        st = GreedyState(A22, np.zeros(2))
        assert greedy_index(st) == 0

    def test_symmetric_all_zero(self):
        st = GreedyState(SYM3, np.zeros(3))
        assert greedy_index(st) == 0

    def test_matches_dense_argmax(self):
        A = dense_instance(6, seed=89)
        u = np.zeros(6)
        st = GreedyState(A, u)
        for _ in range(30):
            j = greedy_index(st)
            scores = []
            for i in range(6):
                from osbalance import row_col_sums_at
                r, c = row_col_sums_at(A, u, i)
                scores.append((math.sqrt(r) - math.sqrt(c)) ** 2)
            best = max(scores)
            winners = [i for i, s in enumerate(scores) if s == best]
            assert j == min(winners)
            osborne_update(A, u, j)
            st.refresh(j)


# Strongly connected, with entries over 500 decades.
SPREAD3 = build_matrix(3, [(0, 1, 3.17e247), (0, 2, 1.33e73),
                           (1, 0, 4e-277), (1, 2, 9.77e-242),
                           (2, 0, 4.06e-275), (2, 1, 4.89e218)])

# Greedy's resync after the first cycle finds row 2's sum underflowed.
UNDER4 = build_matrix(4, [(0, 1, 1.120907503718338e-91),
                          (1, 2, 3.198624667518668e-139),
                          (1, 3, 8.541485890918407e+196),
                          (2, 3, 5.010333771794744e+283),
                          (3, 0, 1.319422062337064e-91)])


class TestWeightedSample:
    def test_uniform_two_point(self):
        A = build_matrix(2, [(0, 1, 1.0), (1, 0, 1.0)])
        st = WeightedState(A, np.zeros(2))
        rng = np.random.default_rng(0)
        counts = np.zeros(2)
        for _ in range(10000):
            counts[weighted_sample(st, rng)] += 1
        chi2 = float(((counts - 5000.0) ** 2 / 5000.0).sum())
        assert chi2 < 10.828  # df=1 critical value at significance 0.001

    def test_degenerate_mass(self):
        A = build_matrix(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0),
                             (2, 1, 1.0)])
        st = WeightedState(A, np.zeros(3))
        st.fen.set(0, 1.0)
        st.fen.set(1, 0.0)
        st.fen.set(2, 0.0)
        rng = np.random.default_rng(1)
        assert all(weighted_sample(st, rng) == 0 for _ in range(200))

    def test_empirical_frequencies(self):
        A = dense_instance(5, seed=97)
        u = np.random.default_rng(97).normal(scale=0.3, size=5)
        st = WeightedState(A, u)
        w = np.array([st.fen.weights[i] for i in range(5)])
        p = w / w.sum()
        rng = np.random.default_rng(2)
        draws = 100000
        counts = np.zeros(5)
        for _ in range(draws):
            counts[weighted_sample(st, rng)] += 1
        se = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * se)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_cancelled_running_total_is_rebuilt(self, seed):
        # Entries over 500 decades: the Fenwick tree's running total
        # cancels to -4.89e218 while the weights are [1.33e73, 3519.7,
        # 1.33e73]; the draw rebuilds the tree instead of refusing.
        rep = run(SPREAD3, SolverConfig(strategy=Strategy("weighted",
                                                          seed=seed)))
        assert rep.termination == "converged"
        assert imbalance(SPREAD3, rep.u_final).normalized <= 1e-6

    def test_cancelled_total_draws_from_the_weights(self):
        st = WeightedState(SYM3, np.zeros(3))
        st.fen.total = -1.0
        weights = list(st.fen.weights)
        rng = np.random.default_rng(4)
        assert {weighted_sample(st, rng) for _ in range(200)} == {0, 1, 2}
        assert st.fen.total == sum(weights)


def _select(state, rng):
    if isinstance(state, GreedyState):
        return greedy_index(state)
    return weighted_sample(state, rng)


class TestKeptSums:
    @pytest.mark.parametrize("A", [gen_kalantari(40), gen_salient(200, 5)],
                             ids=["ring81", "salient200"])
    @pytest.mark.parametrize("cls", [GreedyState, WeightedState])
    def test_one_cycle_drift(self, A, cls):
        u = np.zeros(A.n)
        state = cls(A, u)
        rng = cycle_rng(11, 0)
        for _ in range(A.n):
            j = _select(state, rng)
            osborne_update(A, u, j)
            state.refresh(j)
        r, c = row_col_sums(A, u)
        assert np.allclose(state.r, r, rtol=1e-12, atol=0.0)
        assert np.allclose(state.c, c, rtol=1e-12, atol=0.0)
        if cls is WeightedState:
            assert np.allclose(state.fen.weights, r + c, rtol=1e-12, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.floats(-60.0, 60.0), min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.floats(-60.0, 60.0)), max_size=2 * n))))
    def test_sums_stay_positive_under_cancellation(self, case):
        # A directed ring plus random entries, over 120 decades: updates
        # of a few hundred e-folds make the change of a neighbor's sum
        # cancel almost all of it.
        n, ring, extra = case
        triplets = [(i, (i + 1) % n, 10.0 ** e) for i, e in enumerate(ring)]
        triplets += [(i, j, 10.0 ** e) for i, j, e in extra]
        A = build_matrix(n, triplets)
        for cls in (GreedyState, WeightedState):
            u = np.zeros(n)
            state = cls(A, u)
            rng = cycle_rng(3, 0)
            try:
                for _ in range(30 * n):
                    j = _select(state, rng)
                    osborne_update(A, u, j)
                    state.refresh(j)
                    kept = state.r + state.c
                    assert all(0.0 < x < math.inf for x in kept)
            except BalancingError:
                pass
        for strategy in (Strategy("greedy"), Strategy("weighted", seed=3)):
            try:
                rep = run(A, SolverConfig(eps=1e-3, max_cycles=30,
                                          strategy=strategy))
            except BalancingError:
                continue
            assert rep.termination in ("converged", "max_cycles")

    def test_overflowing_entry_skips_the_shortcut(self):
        # Greedy on SPREAD3 takes a step whose kept-sum shortcut raises
        # OverflowError; the fallback recomputes every touched sum, and
        # the run ends in ScalingOverflowError without a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalingOverflowError):
                run(SPREAD3, SolverConfig(strategy=Strategy("greedy")))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8).flatmap(ring_plus_entries).map(random_support),
           st.one_of(st.just(Strategy("greedy")), st.integers(0, 2 ** 16)
                     .map(lambda s: Strategy("weighted", seed=s))))
    def test_kept_pair_matches_the_kernel(self, case, strategy):
        A, eps = case
        with pytest.MonkeyPatch.context() as mp:
            gaps = kept_pair_gaps(mp)
            rep = run(A, SolverConfig(eps=eps, max_cycles=300,
                                      strategy=strategy))
        assert len(gaps) == rep.updates_used
        assert all(gap <= 1e-12 for gap in gaps)

    @pytest.mark.parametrize("A", [gen_kalantari(40), gen_salient(200, 5)],
                             ids=["ring81", "salient200"])
    @pytest.mark.parametrize("strategy", [Strategy("greedy"),
                                          Strategy("weighted", seed=1)],
                             ids=["greedy", "weighted"])
    def test_kept_pair_matches_the_kernel_on_fixed_inputs(
            self, A, strategy, monkeypatch):
        gaps = kept_pair_gaps(monkeypatch)
        rep = run(A, SolverConfig(eps=1e-8, max_cycles=30, strategy=strategy))
        assert len(gaps) == rep.updates_used >= 5 * A.n
        assert max(gaps) <= 1e-12

    @pytest.mark.parametrize("strategy", [Strategy("greedy"),
                                          Strategy("weighted", seed=1)],
                             ids=["greedy", "weighted"])
    def test_kernel_runs_only_on_guarded_recomputes(self, strategy,
                                                    monkeypatch):
        # The update takes its step from the kept pair, so the kernel
        # runs only where the upkeep's guard recomputes a sum.
        calls = kernel_calls(monkeypatch)
        rep = run(gen_kalantari(40), SolverConfig(eps=1e-4,
                                                  strategy=strategy))
        assert rep.termination == "converged"
        assert {caller for caller, _ in calls} == {"_resum"}
        assert len(calls) < rep.cycles_used

    def test_underflowed_resync_sum_raises_typed_error(self, monkeypatch):
        # The resync after the first cycle finds row 2's sum underflowed
        # to zero.  It ends the run there, in the typed error, not in a
        # math domain error or a numpy warning, and no update takes its
        # step from the kept pair (0, c).
        pairs, update = [], solver.osborne_update

        def recorded(A, u, j, radix_rounding=False, sums=None):
            pairs.append(sums)
            return update(A, u, j, radix_rounding, sums)
        monkeypatch.setattr(solver, "osborne_update", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalingOverflowError,
                               match="overflowed or underflowed"):
                run(UNDER4, SolverConfig(strategy=Strategy("greedy")))
        assert len(pairs) == UNDER4.n
        assert all(0.0 not in pair for pair in pairs)

    def test_resync_raises_on_a_sum_at_zero(self):
        u = np.zeros(UNDER4.n)
        state = GreedyState(UNDER4, u)
        for _ in range(UNDER4.n):
            j = greedy_index(state)
            osborne_update(UNDER4, u, j, sums=(state.r[j], state.c[j]))
            state.refresh(j)
        assert 0.0 < min(state.r + state.c)  # the kept sums, moved
        with pytest.raises(ScalingOverflowError):
            state.resync()
        assert row_col_sums(UNDER4, u)[0][2] == 0.0


def test_cycle_rng_streams_are_reproducible():
    a = cycle_rng(7, 3).integers(0, 1000, size=5)
    b = cycle_rng(7, 3).integers(0, 1000, size=5)
    c = cycle_rng(7, 4).integers(0, 1000, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# Not strongly connected: 0<->1 and 2<->3, joined one way by 1->2
# (reducible), or not at all (block diagonal).
REDUCIBLE4 = [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0),
              (1, 2, 1.0)]
BLOCKS4 = REDUCIBLE4[:4]


@pytest.mark.parametrize("triplets", [REDUCIBLE4, BLOCKS4],
                         ids=["reducible", "block_diagonal"])
class TestNotBalanceable:
    @pytest.mark.parametrize("strategy", [
        Strategy("cyclic"), Strategy("shuffled", seed=1),
        Strategy("uniform", seed=1), Strategy("weighted", seed=1),
        Strategy("greedy"), Strategy("fixed", order=(3, 2, 1, 0))],
        ids=lambda s: s.kind)
    def test_run(self, triplets, strategy):
        rep = run(build_matrix(4, triplets),
                  SolverConfig(eps=1e-6, max_cycles=50, strategy=strategy))
        assert (rep.termination, rep.updates_used) == ("not_balanceable", 0)

    def test_run_parallel(self, triplets):
        A = build_matrix(4, triplets)
        rep = run_parallel(A, greedy_color(A),
                           SolverConfig(eps=1e-6, max_cycles=50))
        assert (rep.termination, rep.updates_used) == ("not_balanceable", 0)

    def test_run_lowbit(self, triplets):
        A = build_matrix(4, triplets)
        rep = run_lowbit(A, SolverConfig(1e-3, max_cycles=50))
        assert (rep.termination, rep.updates_used) == ("not_balanceable", 0)


RING4 = [(i, (i + 1) % 4, 1.0) for i in range(4)] + \
    [((i + 1) % 4, i, 2.0) for i in range(4)]


@pytest.mark.parametrize("triplets", [RING4, BLOCKS4],
                         ids=["ring", "block_diagonal"])
@pytest.mark.parametrize("driver, field, value", [
    ("lowbit", "strategy", Strategy("uniform", seed=1)),
    ("lowbit", "strategy", Strategy("weighted", seed=1)),
    ("lowbit", "strategy", Strategy("greedy")),
    ("lowbit", "criterion", "parlett"),
    ("lowbit", "radix_rounding", True),
    ("parallel", "strategy", Strategy("shuffled", seed=1)),
    ("parallel", "strategy", Strategy("uniform", seed=1)),
    ("parallel", "strategy", Strategy("weighted", seed=1)),
    ("parallel", "strategy", Strategy("greedy")),
    ("parallel", "strategy", Strategy("fixed", order=(3, 2, 1, 0))),
])
def test_driver_refuses_a_field_it_cannot_honour(triplets, driver, field,
                                                 value):
    # refused before the run: a support that is not strongly connected
    # would otherwise end as not_balanceable
    A = build_matrix(4, triplets)
    cfg = SolverConfig(1e-2, max_cycles=5, **{field: value})
    shown = getattr(value, "kind", value)
    with pytest.raises(ValueError, match=f"{field} = {shown!r}"):
        if driver == "lowbit":
            run_lowbit(A, cfg)
        else:
            run_parallel(A, greedy_color(A), cfg)
