from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import osbalance.core
import osbalance.parallel
from osbalance import (Coloring, ImproperColoringError, SolverConfig,
                       SparseNonnegMatrix, Strategy, build_matrix,
                       gen_kalantari, greedy_color, run, run_parallel,
                       validate_coloring)
from osbalance.parallel import color_class_order
from conftest import dense_instance, sparse_balanceable


def star(leaves=5):
    trip = []
    for i in range(1, leaves + 1):
        trip.append((0, i, 1.0))
        trip.append((i, 0, 1.0))
    return build_matrix(leaves + 1, trip)


class TestGreedyColor:
    def test_bidirectional_pair(self):
        A = build_matrix(2, [(0, 1, 1.0), (1, 0, 1.0)])
        col = greedy_color(A)
        assert col.num_colors == 2
        validate_coloring(A, col)

    def test_star_is_two_colorable(self):
        A = star(5)
        col = greedy_color(A)
        assert col.num_colors == 2
        validate_coloring(A, col)

    def test_odd_cycle_needs_three_colors(self):
        K = gen_kalantari(40)
        col = greedy_color(K)
        validate_coloring(K, col)
        assert col.num_colors == 3
        # brute force: no proper 2-coloring of an odd cycle exists
        n = K.n
        edges = {(int(i), int(j)) for i, j, _ in K.entries()}
        two = np.zeros(n, dtype=int)
        ok = True
        for v in range(1, n):
            two[v] = 1 - two[v - 1]
        ok = all(two[i] != two[j] for i, j in edges)
        assert not ok

    def test_bound_by_max_degree(self):
        for seed in range(5):
            A = sparse_balanceable(20, 0.2, seed=seed)
            col = greedy_color(A)
            validate_coloring(A, col)
            deg = np.zeros(20, dtype=int)
            seen = set()
            for i, j, _ in A.entries():
                e = (min(int(i), int(j)), max(int(i), int(j)))
                if e not in seen:
                    seen.add(e)
                    deg[e[0]] += 1
                    deg[e[1]] += 1
            assert col.num_colors <= deg.max() + 1


class TestValidateColoring:
    def test_rejects_improper_with_edge_named(self):
        A = build_matrix(2, [(0, 1, 1.0), (1, 0, 1.0)])
        bad = Coloring(np.zeros(2, dtype=int), 1)
        with pytest.raises(ImproperColoringError, match="0 and 1"):
            validate_coloring(A, bad)


class TestRunParallel:
    def test_single_worker_matches_fixed_order_run(self):
        A = dense_instance(9, seed=101)
        col = greedy_color(A)
        order = tuple(v for cls in color_class_order(col) for v in cls)
        cfg = SolverConfig(eps=1e-9)
        seq = run(A, SolverConfig(eps=1e-9,
                                  strategy=Strategy("fixed", order=order)))
        par = run_parallel(A, col, cfg, workers=1)
        assert np.array_equal(seq.u_final, par.u_final)
        assert seq.cycles_used == par.cycles_used

    def test_kalantari_bitwise_equal_to_sequential(self):
        K = gen_kalantari(40)
        col = greedy_color(K)
        order = tuple(v for cls in color_class_order(col) for v in cls)
        cfg = SolverConfig(eps=1e-10)
        seq = run(K, SolverConfig(eps=1e-10,
                                  strategy=Strategy("fixed", order=order)))
        for workers in (1, 2, 4):
            par = run_parallel(K, col, cfg, workers=workers)
            assert par.termination == "converged"
            assert np.array_equal(par.u_final, seq.u_final)
            assert par.cycles_used == seq.cycles_used

    def test_mixed_degrees_bitwise_equal_to_sequential(self):
        # a ring whose vertex 0 also reaches every other vertex: its sums
        # take the numpy path, every other vertex's the scalar one
        n = 30
        rng = np.random.default_rng(7)
        trip = [(i, (i + 1) % n, rng.uniform(0.1, 10.0)) for i in range(n)]
        trip += [((i + 1) % n, i, rng.uniform(0.1, 10.0)) for i in range(n)]
        trip += [(0, i, rng.uniform(0.1, 10.0)) for i in range(2, n - 1)]
        trip += [(i, 0, rng.uniform(0.1, 10.0)) for i in range(2, n - 1)]
        A = build_matrix(n, trip)
        assert A.deg.max() > osbalance.core._SCALAR_DEG >= A.deg.min()
        col = greedy_color(A)
        order = tuple(v for cls in color_class_order(col) for v in cls)
        seq = run(A, SolverConfig(eps=1e-10,
                                  strategy=Strategy("fixed", order=order)))
        par = run_parallel(A, col, SolverConfig(eps=1e-10))
        assert par.termination == seq.termination == "converged"
        assert np.array_equal(par.u_final, seq.u_final)
        assert par.cycles_used == seq.cycles_used

    def test_bitwise_identical_across_workers_and_repeats(self):
        for seed in range(4):
            A = sparse_balanceable(15, 0.25, seed=seed)
            col = greedy_color(A)
            cfg = SolverConfig(eps=1e-9)
            base = run_parallel(A, col, cfg, workers=1)
            for workers in (1, 2, 4):
                rep = run_parallel(A, col, cfg, workers=workers)
                assert np.array_equal(rep.u_final, base.u_final)
                assert rep.cycles_used == base.cycles_used

    def test_star_rounds_per_cycle(self):
        A = star(5)
        col = greedy_color(A)
        rep = run_parallel(A, col, SolverConfig(eps=1e-10), workers=2)
        assert rep.termination == "converged"
        assert col.num_colors == 2
        assert rep.rounds_used == 2 * rep.cycles_used

    def test_degenerate_all_distinct_coloring(self):
        A = dense_instance(6, seed=103)
        col = Coloring(np.arange(6), 6)
        validate_coloring(A, col)
        par = run_parallel(A, col, SolverConfig(eps=1e-9), workers=2)
        seq = run(A, SolverConfig(eps=1e-9))
        assert np.array_equal(par.u_final, seq.u_final)


def loop_coloring(A):
    """The plain ascending loop that greedy_color must reproduce: each
    vertex takes the smallest color that no neighbor has yet."""
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
    return colors, int(colors.max()) + 1


def support(n, pairs, seed=None):
    """Unit entries at the (row, col) pairs, the vertices relabelled by a
    seeded permutation unless seed is None."""
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    if seed is not None:
        perm = np.random.default_rng(seed).permutation(n)
        rows, cols = perm[rows], perm[cols]
    return SparseNonnegMatrix(n, rows, cols, np.ones(len(rows)))


def ring_pairs(k):
    K = gen_kalantari(k)
    return K.n, list(zip(K.coo_rows.tolist(), K.coo_cols.tolist()))


def star_pairs(leaves, clique):
    """A center joined both ways to each leaf; leaves 1..clique are also
    pairwise joined, so the last of them needs color clique."""
    pairs = [(0, i) for i in range(1, leaves + 1)]
    pairs += [(i, 0) for i in range(1, leaves + 1)]
    pairs += [(i, j) for i in range(1, clique + 1)
              for j in range(i + 1, clique + 1)]
    return leaves + 1, pairs


@st.composite
def random_pairs(draw):
    n = draw(st.integers(1, 40))  # isolated vertices and n = 1 included
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=4 * n))
    return n, pairs


@st.composite
def star_with_leaf_edges(draw):
    leaves = draw(st.integers(65, 100))
    n, pairs = star_pairs(leaves, draw(st.integers(0, min(leaves, 70))))
    pairs += draw(st.lists(st.tuples(st.integers(1, n - 1),
                                     st.integers(1, n - 1)), max_size=n))
    return n, pairs


@st.composite
def supports(draw):
    n, pairs = draw(st.one_of(
        random_pairs(),
        st.integers(1, 1500).map(ring_pairs),
        st.integers(1, 30).map(lambda n: (n, [
            (i, j) for i in range(n) for j in range(n) if i != j])),
        star_with_leaf_edges()))
    return support(n, pairs, draw(st.none() | st.integers(0, 2**32 - 1)))


class TestGreedyColorIsTheLoop:
    """greedy_color colors in numpy rounds and then a scalar loop; every
    coloring must be bitwise the plain ascending loop's."""

    @staticmethod
    def assert_is_the_loop(A):
        col = greedy_color(A)
        colors, num_colors = loop_coloring(A)
        assert col.colors.dtype == colors.dtype
        assert np.array_equal(col.colors, colors)
        assert col.num_colors == num_colors

    @settings(max_examples=300, deadline=None)
    @given(supports(), st.sampled_from([1, 2, 256]), st.sampled_from([2, 62]))
    def test_matches_the_loop(self, A, min_round, mask_bits):
        # Small round and mask bounds send small graphs through the
        # rounds and past the mask as well.
        with mock.patch.object(osbalance.parallel, "_MIN_ROUND", min_round), \
                mock.patch.object(osbalance.parallel, "_MASK_BITS", mask_bits):
            self.assert_is_the_loop(A)

    def test_colors_past_the_mask_match(self):
        A = support(*star_pairs(80, 70), seed=7)
        with mock.patch.object(osbalance.parallel, "_MIN_ROUND", 1):
            self.assert_is_the_loop(A)
        assert greedy_color(A).num_colors == 71

    @pytest.mark.parametrize("seed, rounds", [(None, False), (1, True)])
    def test_rounds_run_only_on_a_large_ready_set(self, monkeypatch, seed,
                                                  rounds):
        # A natural-order ring has one vertex without a lower neighbor
        # and goes to the loop at once; a relabelled one has about n / 3.
        A = support(*ring_pairs(3000), seed=seed)
        calls = []
        real = osbalance.parallel._color_in_rounds
        monkeypatch.setattr(osbalance.parallel, "_color_in_rounds",
                            lambda *args: calls.append(1) or real(*args))
        self.assert_is_the_loop(A)
        assert bool(calls) == rounds
