import math

import numpy as np
import pytest

from osbalance import (GreedyState, LowbitConfig, SolverConfig, Strategy,
                       WeightedState, build_matrix, gen_kalantari, gradient,
                       greedy_index, imbalance, osborne_update, potential,
                       run, run_lowbit, scaled_matrix, stats,
                       theoretical_cycle_bound, weighted_sample)
from osbalance.solver import cycle_rng
from conftest import dense_instance, dense_potential, sparse_balanceable

A22 = build_matrix(2, [(0, 1, 4.0), (1, 0, 1.0)])
SYM3 = build_matrix(3, [(0, 1, 2.0), (1, 0, 2.0), (1, 2, 5.0), (2, 1, 5.0),
                        (0, 2, 1.0), (2, 0, 1.0)])


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

    def test_not_balanceable_reported(self):
        A = build_matrix(3, [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0)])
        rep = run(A, SolverConfig(eps=1e-6))
        assert rep.termination == "not_balanceable"

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

    @staticmethod
    def run_fixed(driver, A, order):
        strategy = Strategy("fixed", order=order)
        if driver == "lowbit":
            return run_lowbit(A, LowbitConfig(1e-2, A.n), strategy,
                              max_cycles=200)
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
        st.set_weight(0, 1.0)
        st.set_weight(1, 0.0)
        st.set_weight(2, 0.0)
        rng = np.random.default_rng(1)
        assert all(weighted_sample(st, rng) == 0 for _ in range(200))

    def test_empirical_frequencies(self):
        A = dense_instance(5, seed=97)
        u = np.random.default_rng(97).normal(scale=0.3, size=5)
        st = WeightedState(A, u)
        w = np.array([st.weight(i) for i in range(5)])
        p = w / w.sum()
        rng = np.random.default_rng(2)
        draws = 100000
        counts = np.zeros(5)
        for _ in range(draws):
            counts[weighted_sample(st, rng)] += 1
        se = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * se)


def test_cycle_rng_streams_are_reproducible():
    a = cycle_rng(7, 3).integers(0, 1000, size=5)
    b = cycle_rng(7, 3).integers(0, 1000, size=5)
    c = cycle_rng(7, 4).integers(0, 1000, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
