import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import osbalance.core
import osbalance.instances
from osbalance import (BalancingError, ScalingOverflowError, SolverConfig,
                       build_matrix,
                       gen_kalantari,
                       gen_random_sparse, gen_salient, lp_reduce, run,
                       scaled_matrix, scc_decompose, stats,
                       theoretical_cycle_bound, verify_balance)
from conftest import dense_instance


class TestGenSalient:
    def test_full_scale_shape(self):
        A = gen_salient(1000, 20, seed=1)
        assert A.n == 1000
        assert A.m == 999000
        lo_band = [float(v) for i, j, v in A.entries()
                   if i < 980 and j < 980]
        assert lo_band and max(lo_band) < 0.001

    def test_small_shape(self):
        A = gen_salient(3, 1, seed=4)
        assert A.m == 6
        for i, j, v in A.entries():
            if i == 2 or j == 2:
                assert 0.0 < v < 1.0
            else:
                assert 0.0 < v < 0.001

    def test_deterministic(self):
        a = gen_salient(10, 2, seed=9)
        b = gen_salient(10, 2, seed=9)
        assert np.array_equal(a.coo_vals, b.coo_vals)

    def test_salient_diameter_is_one(self):
        assert stats(gen_salient(12, 2, seed=5)).diameter == 1

    def test_rejects_s_not_below_n(self):
        with pytest.raises(ValueError):
            gen_salient(5, 5, seed=0)

    @pytest.mark.parametrize("s", [-1, -5])
    def test_rejects_negative_s(self, s):
        with pytest.raises(ValueError, match=r"s lie in \[0, n\)"):
            gen_salient(5, s, seed=0)

    @pytest.mark.parametrize("n", [1, 0])
    def test_rejects_size_without_off_diagonal_entries(self, n):
        with pytest.raises(ValueError, match="n must be at least 2"):
            gen_salient(n, 0, seed=0)

    def test_zero_entries_dropped_and_counted(self):
        # lo = 0 zeroes every entry outside the last s rows and columns.
        A = gen_salient(6, 2, lo=0.0, seed=0)
        assert A.m == 18 and A.dropped == 12
        assert all(i >= 4 or j >= 4 for i, j, _ in A.entries())


class TestGenKalantari:
    def test_k40_counts(self):
        A = gen_kalantari(40)
        assert A.n == 81
        assert A.m == 162
        assert float(A.coo_vals.sum()) == pytest.approx(82.8, rel=1e-12)
        assert float(A.coo_vals.min()) == 0.01

    def test_k1_exhaustive(self):
        A = gen_kalantari(1)
        got = {(int(i), int(j)): float(v) for i, j, v in A.entries()}
        # 1-based construction for k=1, n=3: forward unit entries
        # (1,2),(2,3) plus the wrap pair (3,1),(1,3), and 0.01 on the
        # reversed positions (2,1),(3,2)
        want = {(0, 1): 1.0, (2, 1): 1.0, (2, 0): 1.0, (0, 2): 1.0,
                (1, 0): 0.01, (1, 2): 0.01}
        assert got == want

    def test_support_is_bidirectional_cycle(self):
        A = gen_kalantari(40)
        st = stats(A)
        assert st.strongly_connected
        assert st.diameter == 40
        assert st.max_degree == 2  # undirected support degree on a ring
        pairs = {(int(i), int(j)) for i, j, _ in A.entries()}
        n = A.n
        ring = set()
        for i in range(n):
            ring.add((i, (i + 1) % n))
            ring.add(((i + 1) % n, i))
        assert pairs == ring

    def test_balanceable_for_every_k(self):
        for k in (1, 2, 5, 12):
            assert stats(gen_kalantari(k)).strongly_connected

    @staticmethod
    def triplet_loop(k):
        """The generator as a Python loop over 1-based triplets."""
        n = 2 * k + 1
        triplets = []
        for i in range(1, k + 1):
            triplets.append((i, i + 1, 1.0))
            triplets.append((2 * k + 2 - i, 2 * k + 1 - i, 1.0))
            triplets.append((i + 1, i, 0.01))
            triplets.append((2 * k + 1 - i, 2 * k + 2 - i, 0.01))
        triplets.append((n, 1, 1.0))
        triplets.append((1, n, 1.0))
        return build_matrix(n, [(i - 1, j - 1, v) for i, j, v in triplets])

    @pytest.mark.parametrize("k", [*range(1, 80), 50000])
    def test_matches_the_triplet_loop(self, k):
        got, want = gen_kalantari(k), self.triplet_loop(k)
        assert (got.n, got.m, got.dropped) == (want.n, want.m, want.dropped)
        for name in ("coo_rows", "coo_cols", "coo_vals", "inc_ptr",
                     "inc_idx", "inc_val", "inc_sign", "deg", "out_deg"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("k", [(osbalance.core._MAX_N + 1) // 2, 10**20])
    def test_too_large_k_is_refused_at_once(self, k):
        # n = 2k + 1 is checked before any array of k entries exists.
        with pytest.raises(ValueError, match="matrix dimension must be at "
                           f"most {osbalance.core._MAX_N}$"):
            gen_kalantari(k)


class TestGenRandomSparse:
    def test_full_probability_is_dense(self):
        A = gen_random_sparse(7, 1.0, value_lo=0.1, value_hi=1.0, seed=0)
        assert A.m == 42

    def test_edge_count_statistics(self):
        ms = [gen_random_sparse(100, 0.1, value_lo=0.1, value_hi=1.0,
                                seed=s).m for s in range(50)]
        mean = 0.1 * 9900
        sigma = math.sqrt(9900 * 0.1 * 0.9)
        assert abs(np.mean(ms) - mean) <= 5 * sigma

    def test_sparse_enough_to_disconnect(self):
        A = gen_random_sparse(40, 0.01, value_lo=0.1, value_hi=1.0, seed=3)
        assert not stats(A).strongly_connected

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            gen_random_sparse(5, 1.0, value_lo=-1.0, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_dimension_rejected(self, n):
        with pytest.raises(ValueError, match="matrix dimension must be "
                                             "positive"):
            gen_random_sparse(n, 0.5)


class TestStats:
    def test_kalantari(self):
        st = stats(gen_kalantari(40))
        assert st.kappa == pytest.approx(8280.0, rel=1e-12)
        assert st.diameter == 40

    def test_complete_ones(self):
        A = build_matrix(3, [(i, j, 1.0) for i in range(3)
                             for j in range(3) if i != j])
        st = stats(A)
        assert st.kappa == 6.0
        assert st.diameter == 1

    def test_disconnected(self):
        A = build_matrix(4, [(0, 1, 1.0), (1, 0, 1.0),
                             (2, 3, 1.0), (3, 2, 1.0)])
        st = stats(A)
        assert not st.strongly_connected
        assert st.diameter == math.inf

    def test_diameter_withheld_past_the_work_bound(self, monkeypatch):
        K = gen_kalantari(40)
        monkeypatch.setattr(osbalance.instances, "DIAMETER_MAX_WORK",
                            K.n * K.m)
        assert stats(K).diameter == 40
        monkeypatch.setattr(osbalance.instances, "DIAMETER_MAX_WORK",
                            K.n * K.m - 1)
        st = stats(K)
        assert st.strongly_connected and st.diameter is None
        assert st.kappa == pytest.approx(8280.0, rel=1e-12)
        # the shape takes 1/eps in place of min(1/eps, diameter)
        b = theoretical_cycle_bound(st, 0.01)
        assert b.explicit == 11_200_000
        assert b.asymptotic_shape == pytest.approx(
            st.log2_kappa * math.log(2.0) / 0.01 * 100.0, rel=1e-12)
        A = build_matrix(4, [(0, 1, 1.0), (1, 0, 1.0),
                             (2, 3, 1.0), (3, 2, 1.0)])
        monkeypatch.setattr(osbalance.instances, "DIAMETER_MAX_WORK", 0)
        assert stats(A).diameter == math.inf

    def test_kappa_at_least_m(self):
        for seed in range(4):
            A = dense_instance(6, seed=seed)
            st = stats(A)
            assert st.kappa >= st.m

    def test_kappa_scale_invariant(self):
        A = dense_instance(5, seed=7)
        cA = build_matrix(5, [(int(i), int(j), 0.125 * float(v))
                              for i, j, v in A.entries()])
        assert stats(cA).kappa == stats(A).kappa


class TestSccDecompose:
    def test_strongly_connected_single_block(self):
        A = gen_kalantari(3)
        blocks, cross = scc_decompose(A)
        assert len(blocks) == 1 and not cross
        verts, sub = blocks[0]
        assert list(verts) == list(range(A.n))
        assert np.array_equal(sub.to_dense(), A.to_dense())

    def test_block_diagonal_pair(self):
        K = gen_kalantari(1)
        trip = [(int(i), int(j), float(v)) for i, j, v in K.entries()]
        trip += [(int(i) + 3, int(j) + 3, float(v))
                 for i, j, v in K.entries()]
        A = build_matrix(6, trip)
        blocks, cross = scc_decompose(A)
        assert len(blocks) == 2 and not cross
        assert sorted(len(v) for v, _ in blocks) == [3, 3]

    def test_upper_triangular_is_singletons(self):
        A = build_matrix(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0),
                             (2, 3, 1.0)])
        blocks, cross = scc_decompose(A)
        assert len(blocks) == 4
        assert all(len(v) == 1 for v, _ in blocks)
        assert len(cross) == 4

    def test_topological_order(self):
        A = build_matrix(5, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0),
                             (2, 3, 1.0), (3, 2, 1.0), (3, 4, 1.0)])
        blocks, cross = scc_decompose(A)
        pos = {}
        for b, (verts, _) in enumerate(blocks):
            for v in verts:
                pos[v] = b
        for i, j, _ in cross:
            assert pos[i] < pos[j]

    def test_blocks_partition_and_rebalance(self):
        A = gen_random_sparse(25, 0.06, value_lo=0.1, value_hi=1.0, seed=11)
        blocks, cross = scc_decompose(A)
        all_verts = sorted(v for verts, _ in blocks for v in verts)
        assert all_verts == list(range(25))
        for verts, sub in blocks:
            if sub.m == 0:
                continue
            rep = run(sub, SolverConfig(eps=1e-8))
            if rep.termination == "converged":
                assert verify_balance(sub, rep.u_final, 1e-8)


@st.composite
def supports(draw):
    """(n, off-diagonal pairs): random, complete, one- or two-way ring,
    or two complete blocks with no entry between them, relabelled."""
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["random", "complete", "ring", "split"]))
    if shape == "random":
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=3 * n))
    elif shape == "complete":
        pairs = [(i, j) for i in range(n) for j in range(n)]
    elif shape == "ring":
        pairs = [(i, (i + 1) % n) for i in range(n)]
        if draw(st.booleans()):
            pairs += [(j, i) for i, j in pairs]
    else:
        k = draw(st.integers(1, max(1, n - 1)))
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if (i < k) == (j < k)]
    label = draw(st.permutations(range(n)))
    return n, [(label[i], label[j]) for i, j in pairs]


class TestSupportGraphOracle:
    """Connectivity, stats and scc_decompose against Floyd-Warshall on
    the dense boolean adjacency."""

    @settings(max_examples=300, deadline=None)
    @given(supports())
    def test_matches_dense_reference(self, case):
        n, pairs = case
        A = build_matrix(n, [(i, j, 1.0) for i, j in pairs])
        adj = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            adj[i, j] = i != j
        dist = np.where(adj, 1.0, math.inf)
        np.fill_diagonal(dist, 0.0)
        for k in range(n):
            dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
        strong = A.m > 0 and bool(np.isfinite(dist).all())
        assert A.strongly_connected() == strong

        if A.m == 0:
            with pytest.raises(BalancingError):
                stats(A)
        else:
            got = stats(A)
            assert isinstance(got.diameter, float)
            assert got.diameter == (dist.max() if strong else math.inf)
            assert got.max_degree == (adj | adj.T).sum(axis=1).max()

        mutual = np.isfinite(dist) & np.isfinite(dist.T)
        want = {frozenset(np.flatnonzero(row).tolist()) for row in mutual}
        blocks, cross = scc_decompose(A)
        got = [frozenset(verts) for verts, _ in blocks]
        assert len(got) == len(want) and set(got) == want
        assert all(list(verts) == sorted(verts) for verts, _ in blocks)
        block_of = {v: b for b, verts in enumerate(got) for v in verts}
        assert all(block_of[i] < block_of[j] for i, j, _ in cross)
        assert sum(sub.m for _, sub in blocks) + len(cross) == A.m


class TestLpReduce:
    def test_identity_power(self):
        A = dense_instance(4, seed=13)
        B = lp_reduce(A, 1.0)
        assert np.array_equal(B.to_dense(), A.to_dense())

    def test_squaring(self):
        A = build_matrix(2, [(0, 1, 4.0), (1, 0, 1.0)])
        B = lp_reduce(A, 2.0)
        assert np.array_equal(B.to_dense(), [[0.0, 16.0], [1.0, 0.0]])

    def test_round_trip(self):
        A = dense_instance(5, seed=17)
        B = lp_reduce(lp_reduce(A, 3.0), 1.0 / 3.0)
        assert np.allclose(B.to_dense(), A.to_dense(), rtol=1e-12)

    def test_l2_balancing_round_trip(self):
        A = dense_instance(5, seed=19)
        rep = run(lp_reduce(A, 2.0), SolverConfig(eps=1e-12))
        assert rep.termination == "converged"
        M = scaled_matrix(A, rep.u_final / 2.0).to_dense()
        rows = np.sqrt((M ** 2).sum(axis=1))
        cols = np.sqrt((M ** 2).sum(axis=0))
        assert np.allclose(rows, cols, rtol=1e-6)

    @pytest.mark.parametrize("A, p", [
        (gen_kalantari(3), 400.0),  # 0.01 ** 400 underflows to zero
        (build_matrix(2, [(0, 1, 10.0), (1, 0, 1.0)]), 400.0),  # overflows
    ])
    def test_entry_out_of_range_raises(self, A, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalingOverflowError):
                lp_reduce(A, p)


class TestCycleBound:
    def test_explicit_value(self):
        st = stats(gen_kalantari(40))
        b = theoretical_cycle_bound(st, 0.01)
        # ceil(log2(8280)) = 14 since 2**13 = 8192 < 8280
        assert b.explicit == 11_200_000

    def test_degenerate(self):
        A = build_matrix(2, [(0, 1, 1.0), (1, 0, 1.0)])
        st = stats(A)
        assert theoretical_cycle_bound(st, 1.0).explicit == 80

    def test_shape_field(self):
        A = build_matrix(3, [(i, j, 1.0) for i in range(3)
                             for j in range(3) if i != j])
        st = stats(A)
        b = theoretical_cycle_bound(st, 0.5)
        assert b.asymptotic_shape == pytest.approx(
            (math.log(6.0) / 0.5) * 1.0, rel=1e-12)

    def test_requires_strong_connectivity(self):
        A = build_matrix(4, [(0, 1, 1.0), (1, 0, 1.0),
                             (2, 3, 1.0), (3, 2, 1.0)])
        with pytest.raises(ValueError):
            theoretical_cycle_bound(stats(A), 0.1)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5, 5.0, math.nan])
    def test_rejects_eps_outside_unit_interval(self, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            theoretical_cycle_bound(stats(gen_kalantari(3)), eps)

    # 1e-300 ** 2 underflows to 0; 80 * 4 / 1e-160 ** 2 overflows to inf
    @pytest.mark.parametrize("eps", [1e-300, 1e-160])
    def test_rejects_eps_whose_bound_is_not_finite(self, eps):
        with pytest.raises(ValueError, match=f"eps = {eps} is too small"):
            theoretical_cycle_bound(stats(gen_kalantari(3)), eps)
