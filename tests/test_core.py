import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import osbalance.core
from osbalance import (NotBalanceableError, ScalingOverflowError,
                       SolverConfig, SparseNonnegMatrix, Strategy,
                       build_matrix, gen_kalantari,
                       gradient, imbalance, potential, row_col_sums_at, run,
                       scaled_matrix, scc_decompose, stats, verify_balance)
from osbalance.core import row_col_sums
from conftest import (dense_gradient, dense_instance, dense_potential,
                      dense_row_col, ring_plus_entries, random_support)

A22 = build_matrix(2, [(0, 1, 4.0), (1, 0, 1.0)])
SYM3 = build_matrix(3, [(0, 1, 2.0), (1, 0, 2.0), (1, 2, 5.0), (2, 1, 5.0),
                        (0, 2, 1.0), (2, 0, 1.0)])


class TestBuildMatrix:
    def test_diagonal_dropped(self):
        A = build_matrix(2, [(0, 1, 4.0), (1, 0, 1.0), (0, 0, 7.0)])
        assert A.m == 2
        assert A.dropped == 1

    def test_duplicates_summed(self):
        A = build_matrix(3, [(0, 1, 1.0), (0, 1, 2.0)])
        assert A.m == 1
        (i, j, v), = A.entries()
        assert (i, j, v) == (0, 1, 3.0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            build_matrix(2, [(0, 1, -1.0)])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            build_matrix(2, [(0, 2, 1.0)])

    def test_plain_triplet_array(self):
        A = build_matrix(2, np.array([[0, 1, 4.0], [1, 0, 1.0]]))
        assert list(A.entries()) == [(0, 1, 4.0), (1, 0, 1.0)]

    @pytest.mark.parametrize("triplet", [(0, 2**63, 1.0), (10**20, 1, 1.0),
                                         (0, -10**20, 1.0)])
    def test_index_beyond_intp_is_out_of_range(self, triplet):
        with pytest.raises(ValueError, match="index out of range"):
            build_matrix(2, [(1, 0, 1.0), triplet])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            build_matrix(0, [])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.floats(0.0, 1e3)), max_size=3 * n * n),
        st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))))
    def test_views_consistent(self, case):
        n, triplets, u = case
        A = build_matrix(n, triplets)
        u = np.array(u)
        entries = list(A.entries())
        rows_idx, cols_idx = A.split_incidence(A.inc_idx.tolist())
        rows_val, cols_val = A.split_incidence(A.inc_val.tolist())
        rows_sign, cols_sign = A.split_incidence(A.inc_sign.tolist())
        r_all, c_all = row_col_sums(A, u)
        for j in range(n):
            row = [(b, v) for a, b, v in entries if a == j]
            col = [(a, v) for a, b, v in entries if b == j]
            assert list(zip(rows_idx[j], rows_val[j])) == row
            assert list(zip(cols_idx[j], cols_val[j])) == col
            assert rows_sign[j] == [1] * len(row)
            assert cols_sign[j] == [-1] * len(col)
            assert A.deg[j] == len(row) + len(col)
            if not row or not col:
                with pytest.raises(NotBalanceableError):
                    row_col_sums_at(A, u, j)
                continue
            if r_all[j] == 0.0 or c_all[j] == 0.0:  # every term underflowed
                with pytest.raises(ScalingOverflowError):
                    row_col_sums_at(A, u, j)
                continue
            r, c = row_col_sums_at(A, u, j)
            assert abs(r - r_all[j]) <= 1e-15 * r_all[j]
            assert abs(c - c_all[j]) <= 1e-15 * c_all[j]


class TestConstructor:
    """The constructor itself enforces the matrix rule; build_matrix only
    converts triplets."""

    def test_canonicalizes(self):
        A = SparseNonnegMatrix(3, [2, 0, 1, 0], [0, 1, 0, 1],
                               [1.0, 2.0, 3.0, 4.0])
        assert list(A.entries()) == [(0, 1, 6.0), (1, 0, 3.0), (2, 0, 1.0)]
        assert A.m == 3 and A.dropped == 0

    def test_zero_and_diagonal_dropped_and_counted(self):
        # The diagonal never enters a balancing, whatever its value.
        A = SparseNonnegMatrix(3, [0, 1, 1, 2, 2], [1, 1, 0, 0, 2],
                               [1.0, 5.0, 0.0, 2.0, math.nan])
        assert list(A.entries()) == [(0, 1, 1.0), (2, 0, 2.0)]
        assert A.dropped == 3

    @pytest.mark.parametrize("rows, cols, vals, named", [
        ([0, 1], [1, 0], [1.0, -1.0], "negative"),
        ([0, 3], [1, 0], [1.0, 1.0], "index out of range"),
        ([0, -1], [1, 0], [1.0, 1.0], "index out of range"),
        ([0, 1], [1, 0], [1.0, math.nan], "non-finite"),
        ([0, 1], [1, 0], [math.inf, 1.0], "non-finite"),
        ([0, 0, 1], [1, 1, 0], [1e308, 1e308, 1.0], "non-finite"),
    ])
    def test_rejects(self, rows, cols, vals, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=named):
                SparseNonnegMatrix(2, rows, cols, vals)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_dimension(self, n):
        with pytest.raises(ValueError, match="dimension must be positive"):
            SparseNonnegMatrix(n, [], [], [])

    @pytest.mark.parametrize("n", [osbalance.core._MAX_N + 1, 10**20])
    def test_rejects_dimension_whose_keys_overflow(self, n):
        # Entry keys row * n + col reach n * n - 1, which must fit intp.
        assert (osbalance.core._MAX_N ** 2 - 1 <= np.iinfo(np.intp).max
                < (osbalance.core._MAX_N + 1) ** 2 - 1)
        with pytest.raises(ValueError, match="dimension must be at most"):
            SparseNonnegMatrix(n, [0], [1], [1.0])

    def test_build_matrix_is_the_constructor(self):
        triplets = [(2, 0, 1.0), (0, 1, 2.0), (1, 1, 9.0), (0, 1, 4.0)]
        A = build_matrix(3, iter(triplets))
        B = SparseNonnegMatrix(3, *zip(*triplets))
        for name in ("coo_rows", "coo_cols", "coo_vals", "inc_idx",
                     "inc_val", "inc_sign", "inc_ptr"):
            assert np.array_equal(getattr(A, name), getattr(B, name))
        assert A.dropped == B.dropped == 1

    def test_empty_matrix_keeps_float_values(self):
        A = SparseNonnegMatrix(2, [], [], [])
        assert A.m == 0 and A.coo_vals.dtype == np.float64


@st.composite
def supports_and_vertices(draw):
    """A unit support, random (isolated vertices and n = 1 included) or a
    natural or relabelled ring, and an index array of its vertices:
    empty, every vertex, or any draw, unsorted and with repeats."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=3 * n))
        rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    else:
        K = gen_kalantari(draw(st.integers(1, 30)))
        n, rows, cols = K.n, K.coo_rows, K.coo_cols
        if draw(st.booleans()):
            perm = np.random.default_rng(draw(st.integers(0, 99))
                                         ).permutation(n)
            rows, cols = perm[rows], perm[cols]
    A = SparseNonnegMatrix(n, rows, cols, np.ones(len(rows)))
    vs = draw(st.one_of(st.just([]), st.just(list(range(n))),
                        st.lists(st.integers(0, n - 1), max_size=2 * n)))
    return A, np.array(vs, dtype=np.intp)


@settings(max_examples=300, deadline=None)
@given(supports_and_vertices())
def test_incidences_are_the_per_vertex_slices(case):
    A, vs = case
    pos, seg = A.incidences(vs)
    ptr = A.inc_ptr.tolist()
    slices = [list(range(ptr[v], ptr[v + 1])) for v in vs.tolist()]
    assert pos.tolist() == [p for part in slices for p in part]
    assert seg.tolist() == [sum(map(len, slices[:i]))
                            for i in range(len(slices))]


class TestStronglyConnected:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 10).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 min_size=1, max_size=3 * n))))
    def test_matches_scc_decompose(self, case):
        n, pairs = case
        A = build_matrix(n, [(i, j, 1.0) for i, j in pairs])
        if A.m == 0:  # every pair was on the diagonal
            assert not A.strongly_connected()
            return
        assert A.strongly_connected() == (len(scc_decompose(A)[0]) == 1)

    def test_searched_once_per_matrix(self, monkeypatch):
        calls = []
        search = osbalance.core._reaches_all_both_ways
        monkeypatch.setattr(osbalance.core, "_reaches_all_both_ways",
                            lambda A: calls.append(A) or search(A))
        A = gen_kalantari(5)
        for strategy in (Strategy("cyclic"), Strategy("greedy")):
            run(A, SolverConfig(eps=1e-4, strategy=strategy))
        assert stats(A).strongly_connected and A.strongly_connected()
        assert calls == [A]


class TestRowColSums:
    def test_identity_scaling(self):
        assert row_col_sums_at(A22, np.zeros(2), 0) == (4.0, 1.0)

    def test_balancing_scaling(self):
        u = np.array([-math.log(2.0), 0.0])
        r, c = row_col_sums_at(A22, u, 0)
        assert r == pytest.approx(2.0, rel=1e-14)
        assert c == pytest.approx(2.0, rel=1e-14)

    def test_matches_dense_oracle(self):
        A = dense_instance(5, seed=11)
        D = A.to_dense()
        rng = np.random.default_rng(5)
        u = rng.normal(size=5)
        for j in range(5):
            r, c = row_col_sums_at(A, u, j)
            ro, co = dense_row_col(D, u, j)
            assert r == pytest.approx(ro, rel=1e-12)
            assert c == pytest.approx(co, rel=1e-12)


class TestPotential:
    def test_zero_scaling_is_entry_sum(self):
        A = dense_instance(4, seed=2)
        assert potential(A, np.zeros(4)) == pytest.approx(
            float(A.coo_vals.sum()), rel=1e-14)

    def test_two_by_two_closed_form(self):
        u = np.array([-math.log(2.0), 0.0])
        assert potential(A22, u) == pytest.approx(4.0, rel=1e-14)

    def test_equals_sum_of_row_and_col_sums(self):
        A = dense_instance(6, seed=7)
        u = np.random.default_rng(7).normal(size=6)
        phi = potential(A, u)
        rs = sum(row_col_sums_at(A, u, j)[0] for j in range(6))
        cs = sum(row_col_sums_at(A, u, j)[1] for j in range(6))
        assert phi == pytest.approx(rs, rel=1e-12)
        assert phi == pytest.approx(cs, rel=1e-12)

    def test_overflow_is_an_error(self):
        u = np.array([800.0, -800.0])
        with pytest.raises(ScalingOverflowError):
            potential(A22, u)


# Every scaled entry is finite, but row 0 sums to 2e308.
OVERFLOWING_ROW = build_matrix(3, [(0, 1, 1e308), (0, 2, 1e308), (1, 0, 1.0),
                                   (2, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])


class TestOverflowingSums:
    def test_full_pass_raises(self):
        with pytest.raises(ScalingOverflowError):
            row_col_sums(OVERFLOWING_ROW, np.zeros(3))

    def test_imbalance_raises(self):
        with pytest.raises(ScalingOverflowError):
            imbalance(OVERFLOWING_ROW, np.zeros(3))

    def test_potential_raises(self):
        with pytest.raises(ScalingOverflowError):
            potential(OVERFLOWING_ROW, np.zeros(3))

    def test_kernel_raises(self):
        with pytest.raises(ScalingOverflowError):
            row_col_sums_at(OVERFLOWING_ROW, np.zeros(3), 0)


# _SCALAR_DEG values that send every row_col_sums_at call down one path.
PATHS = {"numpy": 0, "scalar": 10 ** 9}


@pytest.fixture(params=sorted(PATHS))
def kernel_path(request, monkeypatch):
    """Sends row_col_sums_at down one path with warnings as errors; on
    the numpy path overflow is ignored, as run ignores it, since np.exp
    and reduceat warn of it."""
    monkeypatch.setattr(osbalance.core, "_SCALAR_DEG", PATHS[request.param])
    numpy = request.param == "numpy"
    with warnings.catch_warnings(), np.errstate(
            over="ignore" if numpy else "warn"):
        warnings.simplefilter("error")
        yield request.param


def sums_on(path, A, u, j):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(osbalance.core, "_SCALAR_DEG", PATHS[path])
        return row_col_sums_at(A, u, j)


class TestKernelPaths:
    """The kernel sums up to _SCALAR_DEG entries in scalar Python and
    more with numpy; both raise the package's typed errors."""

    @pytest.mark.parametrize("j", [0, 1])
    def test_exp_overflow_is_typed(self, kernel_path, j):
        # row 0 holds 4 e^1600, which overflows; row 1 e^-1600, which
        # underflows to 0
        with pytest.raises(ScalingOverflowError,
                           match="row/column sum overflowed or underflowed"):
            row_col_sums_at(A22, np.array([800.0, -800.0]), j)

    def test_sum_overflow_is_typed(self, kernel_path):
        with pytest.raises(ScalingOverflowError,
                           match="row/column sum overflowed or underflowed"):
            row_col_sums_at(OVERFLOWING_ROW, np.zeros(3), 0)

    @pytest.mark.parametrize("j", [0, 1])
    def test_empty_part_is_not_balanceable(self, kernel_path, j):
        A = build_matrix(2, [(0, 1, 1.0)])  # column 0 and row 1 are empty
        with pytest.raises(NotBalanceableError,
                           match=f"row or column {j} is empty"):
            row_col_sums_at(A, np.zeros(2), j)

    def test_threshold_splits_by_degree(self, monkeypatch):
        # a star: the hub has degree 6, each leaf degree 2
        A = build_matrix(4, [(0, i, 1.0) for i in (1, 2, 3)]
                         + [(i, 0, 2.0) for i in (1, 2, 3)])
        monkeypatch.setattr(osbalance.core, "_SCALAR_DEG", 2)
        exp, calls = np.exp, []
        monkeypatch.setattr(osbalance.core.np, "exp",
                            lambda x: calls.append(len(x)) or exp(x))
        assert row_col_sums_at(A, np.zeros(4), 1) == (2.0, 1.0)
        assert calls == []
        assert row_col_sums_at(A, np.zeros(4), 0) == (3.0, 6.0)
        assert calls == [6]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        ring_plus_entries(n),
        st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))))
    def test_paths_agree_to_a_few_ulps(self, case):
        support, u = case
        A, _ = random_support(support)
        u = np.array(u)
        for j in range(A.n):
            for a, b in zip(sums_on("scalar", A, u, j),
                            sums_on("numpy", A, u, j)):
                assert abs(a - b) <= 4 * np.finfo(float).eps * b

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8).flatmap(ring_plus_entries).map(random_support))
    def test_run_ends_alike_on_either_path(self, case):
        A, eps = case
        cfg = SolverConfig(eps=eps, max_cycles=300)
        reports = []
        for threshold in (0, int(A.deg.max())):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(osbalance.core, "_SCALAR_DEG", threshold)
                reports.append(run(A, cfg))
        numpy, scalar = reports
        assert scalar.termination == numpy.termination
        assert scalar.cycles_used == numpy.cycles_used
        assert np.allclose(scalar.u_final, numpy.u_final, rtol=0, atol=1e-12)


class TestGradient:
    def test_two_by_two(self):
        assert np.allclose(gradient(A22, np.zeros(2)), [3.0, -3.0])

    def test_symmetric_matrix_has_zero_gradient(self):
        assert np.allclose(gradient(SYM3, np.zeros(3)), 0.0)

    def test_matches_finite_differences(self):
        A = dense_instance(5, seed=13)
        D = A.to_dense()
        u = np.random.default_rng(13).normal(scale=0.5, size=5)
        g = gradient(A, u)
        h = 1e-6
        for j in range(5):
            up = u.copy(); up[j] += h
            dn = u.copy(); dn[j] -= h
            fd = (dense_potential(D, up) - dense_potential(D, dn)) / (2 * h)
            assert abs(g[j] - fd) < 1e-5

    def test_gradient_sums_to_zero(self):
        for seed in range(5):
            A = dense_instance(6, seed=seed)
            u = np.random.default_rng(seed).normal(size=6)
            g = gradient(A, u)
            assert abs(g.sum()) < 1e-12 * np.abs(g).sum() + 1e-300


class TestImbalance:
    def test_symmetric_is_balanced(self):
        assert imbalance(SYM3, np.zeros(3)).normalized == 0.0

    def test_two_by_two_value(self):
        cert = imbalance(A22, np.zeros(2))
        assert cert.normalized == pytest.approx(1.2, rel=1e-14)
        assert cert.l1_gradient_norm == pytest.approx(6.0, rel=1e-14)
        assert cert.potential == pytest.approx(5.0, rel=1e-14)
        assert cert.normalized == cert.l1_gradient_norm / cert.potential

    def test_converged_run_meets_target(self):
        A = dense_instance(8, seed=19)
        rep = run(A, SolverConfig(eps=1e-8))
        assert rep.termination == "converged"
        assert imbalance(A, rep.u_final).normalized <= 1e-8

    def test_scale_invariance(self):
        A = dense_instance(5, seed=23)
        cA = build_matrix(5, [(int(i), int(j), 3.7 * float(v))
                              for i, j, v in A.entries()])
        u = np.random.default_rng(23).normal(size=5)
        a = imbalance(A, u).normalized
        b = imbalance(cA, u).normalized
        assert abs(a - b) <= 1e-14 * a

    def test_shift_invariance(self):
        A = dense_instance(5, seed=29)
        u = np.random.default_rng(29).normal(size=5)
        a = imbalance(A, u).normalized
        b = imbalance(A, u + 4.25).normalized
        assert abs(a - b) <= 1e-12 * a


class TestScaledMatrix:
    def test_identity(self):
        M = scaled_matrix(A22, np.zeros(2))
        assert np.array_equal(M.to_dense(), A22.to_dense())

    def test_two_by_two_balance(self):
        u = np.array([-math.log(2.0), 0.0])
        M = scaled_matrix(A22, u).to_dense()
        assert np.allclose(M, [[0.0, 2.0], [2.0, 0.0]], rtol=1e-14)

    def test_inverse_round_trip(self):
        A = dense_instance(6, seed=31)
        u = np.random.default_rng(31).normal(size=6)
        back = scaled_matrix(scaled_matrix(A, u), -u)
        assert np.allclose(back.to_dense(), A.to_dense(), rtol=1e-12)

    @pytest.mark.parametrize("value, u", [
        (1e-300, [0.0, 60.0, 0.0]),  # (0, 1) underflows to zero
        (1e300, [60.0, 0.0, 0.0]),   # (0, 1) overflows
    ])
    def test_entry_out_of_range_raises(self, value, u):
        A = build_matrix(3, [(0, 1, value), (1, 0, 1.0), (1, 2, 1.0),
                             (2, 1, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScalingOverflowError):
                scaled_matrix(A, np.array(u))


class TestVerifyBalance:
    def test_symmetric(self):
        assert verify_balance(SYM3, np.zeros(3), 1e-12)

    def test_unbalanced(self):
        assert not verify_balance(A22, np.zeros(2), 1.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_tolerance_must_be_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            verify_balance(SYM3, np.zeros(3), eps)

    def test_end_to_end(self):
        from osbalance import gen_kalantari
        K = gen_kalantari(40)
        rep = run(K, SolverConfig(eps=1e-8))
        assert rep.termination == "converged"
        assert verify_balance(K, rep.u_final, 1e-8)


def test_initial_to_optimal_potential_ratio_bounded_by_kappa():
    for seed in range(4):
        A = dense_instance(7, seed=seed)
        rep = run(A, SolverConfig(eps=1e-12))
        assert rep.termination == "converged"
        ratio = potential(A, np.zeros(7)) / potential(A, rep.u_final)
        assert ratio <= stats(A).kappa * (1 + 1e-12)
