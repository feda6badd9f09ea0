"""Acceptance suite: exact algebraic identities, explicit worst-case
bounds, desk-scale benchmark reproductions, and independent-oracle
cross-checks.  Each criterion prints one pass line with its measured
evidence."""

import math
import time

import mpmath as mp
import numpy as np

from osbalance import (LowbitState, SolverConfig, Strategy, build_matrix,
                       gen_kalantari, gen_salient, gradient, greedy_color,
                       imbalance, osborne_update, potential, run, run_lowbit,
                       run_parallel, scaled_matrix, stats,
                       theoretical_cycle_bound, LowbitConfig)
from osbalance.parallel import color_class_order
from conftest import (corpus, dense_instance, dense_potential,
                      grid_bisect_balance, sparse_balanceable)

mp.mp.prec = 200

ALL_STRATEGIES = (("cyclic", None), ("shuffled", 11), ("uniform", 11),
                  ("weighted", 11), ("greedy", None))


def report(num, label, detail=""):
    print(f"ACCEPTANCE {num} ({label}): PASS {detail}".rstrip())


def test_acceptance_01_descent_identity():
    t0 = time.perf_counter()
    checked = 0
    for A in corpus():
        D = A.to_dense()
        u = np.zeros(A.n)
        for _ in range(3):
            for j in range(A.n):
                before = dense_potential(D, u)
                r, c = osborne_update(A, u, j)
                after = dense_potential(D, u)
                drop = (math.sqrt(r) - math.sqrt(c)) ** 2
                err = abs((after - before) + drop)
                assert err <= 1e-10 * drop + 2e-14 * before, \
                    f"descent mismatch: err={err} drop={drop}"
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "descent identity",
           f"[{checked} updates checked, {elapsed:.1f}s]")


def test_acceptance_02_cycle_imbalance_bound():
    t0 = time.perf_counter()
    cycles_checked = 0
    for A in corpus():
        gaps = {}
        checks = []

        def on_update(k, j, r, c):
            gaps.setdefault(k, []).append(abs(r - c))

        def on_cycle(k, u):
            checks.append((k, float(np.abs(gradient(A, u)).sum()),
                           potential(A, u)))

        run(A, SolverConfig(eps=1e-8, max_cycles=60),
            update_hook=on_update, cycle_hook=on_cycle)
        for k, norm, phi in checks:
            assert norm <= math.fsum(gaps[k][1:]) + 1e-9 * phi
            cycles_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, "post-cycle gradient bound",
           f"[{cycles_checked} cycles checked, {elapsed:.1f}s]")


def test_acceptance_03_explicit_cycle_bound():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        A = dense_instance(50, seed=1000 + seed)
        rep = run(A, SolverConfig(eps=0.01, max_cycles=10 ** 9))
        assert rep.termination == "converged"
        bound = theoretical_cycle_bound(stats(A), 0.01).explicit
        assert rep.cycles_used <= bound
        worst = max(worst, rep.cycles_used / bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, "explicit worst-case cycle bound",
           f"[max used/bound ratio {worst:.2e}, {elapsed:.1f}s]")


def test_acceptance_04_kalantari_all_strategies():
    t0 = time.perf_counter()
    K = gen_kalantari(40)
    axes = []
    for kind, seed in ALL_STRATEGIES:
        cfg = SolverConfig(eps=1e-10, strategy=Strategy(kind, seed=seed))
        rep = run(K, cfg)
        assert rep.termination == "converged", kind
        assert imbalance(K, rep.u_final).normalized <= 1e-10
        axes.append(f"{kind}: updates={rep.updates_used} "
                    f"nonzeros={rep.nonzeros_touched} "
                    f"wall={rep.wall_time:.2f}s")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, "ring instance, five strategies",
           f"[{'; '.join(axes)}; total {elapsed:.1f}s]")


def test_acceptance_05_salient_all_strategies():
    t0 = time.perf_counter()
    A = gen_salient(200, 5, seed=5)
    nz = {}
    for kind, seed in ALL_STRATEGIES:
        cfg = SolverConfig(eps=1e-10, strategy=Strategy(kind, seed=seed))
        rep = run(A, cfg)
        assert rep.termination == "converged", kind
        assert imbalance(A, rep.u_final).normalized <= 1e-10
        nz[kind] = rep.nonzeros_touched
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    ordering = " <= ".join(sorted(nz, key=nz.get))
    report(5, "dense salient instance, five strategies",
           f"[nonzeros {nz}; observed ordering {ordering}; {elapsed:.1f}s]")


def test_acceptance_06_lowbit_soundness():
    t0 = time.perf_counter()
    instances = [gen_kalantari(5), gen_kalantari(10), gen_kalantari(20),
                 gen_salient(40, 3, seed=6),
                 dense_instance(12, seed=60),
                 dense_instance(8, seed=61),
                 sparse_balanceable(15, 0.3, seed=62),
                 sparse_balanceable(25, 0.2, seed=63),
                 dense_instance(20, seed=64),
                 sparse_balanceable(10, 0.4, seed=65)]
    runs = 0
    false_accepts = 0
    contracts = 0

    for eps in (1e-1, 1e-2, 1e-3):
        for A in instances:
            cfg = LowbitConfig(eps, A.n)
            tau = mp.mpf(repr(cfg.gamma_prime))
            scale = mp.mpf(2) ** (-cfg.frac_bits)
            counter = [0]

            def exact_sums(state, j):
                uj = state.u[j]
                r = mp.fsum(mp.e ** ((q + uj - state.u[i]) * scale)
                            for q, i in zip(state.row_log[j],
                                            state.row_nbr[j]))
                c = mp.fsum(mp.e ** ((q + state.u[i] - uj) * scale)
                            for q, i in zip(state.col_log[j],
                                            state.col_nbr[j]))
                return r, c

            def on_update(state, j, delta):
                counter[0] += 1
                if counter[0] % 37 != 1:
                    return
                # reconstruct the pre-update iterate, check the step
                # ratio against the exact sums, then restore
                state.u[j] -= delta
                r, c = exact_sums(state, j)
                state.u[j] += delta
                ratio = mp.sqrt(c / r)
                step = mp.e ** (delta * scale)
                assert abs(step - ratio) <= tau * ratio
                r2, c2 = exact_sums(state, j)
                assert abs(r2 - c2) <= 2 * tau * mp.sqrt(r2 * c2)
                nonlocal_contracts[0] += 1

            nonlocal_contracts = [0]
            rep = run_lowbit(A, SolverConfig(eps), update_hook=on_update)
            runs += 1
            contracts += nonlocal_contracts[0]
            assert rep.termination == "converged"
            if imbalance(A, rep.u_final).normalized > eps:
                false_accepts += 1
    assert runs == 30
    assert false_accepts == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, "low-precision soundness",
           f"[{runs} runs, 0 false accepts, {contracts} step contracts "
           f"checked, {elapsed:.1f}s]")


def test_acceptance_07_parallel_bitwise_equivalence():
    t0 = time.perf_counter()
    insts = [gen_kalantari(40)]
    insts += [dense_instance(12, seed=700 + s) for s in range(9)]
    insts += [sparse_balanceable(18, 0.25, seed=710 + s) for s in range(10)]
    for A in insts:
        col = greedy_color(A)
        order = tuple(v for cls in color_class_order(col) for v in cls)
        seq = run(A, SolverConfig(eps=1e-9,
                                  strategy=Strategy("fixed", order=order)))
        for workers in (1, 2, 4):
            par = run_parallel(A, col, SolverConfig(eps=1e-9),
                               workers=workers)
            assert np.array_equal(par.u_final, seq.u_final)
            assert par.cycles_used == seq.cycles_used
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, "parallel bitwise equivalence",
           f"[{len(insts)} instances x workers 1/2/4, {elapsed:.1f}s]")


def test_acceptance_08_uniqueness_and_equivariance():
    t0 = time.perf_counter()
    for seed in (800, 801, 802):
        A = sparse_balanceable(12, 0.3, seed=seed)
        mats = []
        for kind, s in ALL_STRATEGIES:
            rep = run(A, SolverConfig(eps=1e-10,
                                      strategy=Strategy(kind, seed=s)))
            assert rep.termination == "converged"
            mats.append(scaled_matrix(A, rep.u_final).to_dense())
        for M in mats[1:]:
            assert np.allclose(M, mats[0], rtol=1e-6)

        perm = np.random.default_rng(seed).permutation(12)
        PA = build_matrix(12, [(int(perm[i]), int(perm[j]), float(v))
                               for i, j, v in A.entries()])
        Mp = scaled_matrix(PA, run(PA, SolverConfig(eps=1e-10)).u_final)
        assert np.allclose(Mp.to_dense()[np.ix_(perm, perm)], mats[0],
                           rtol=1e-6)

        cA = build_matrix(12, [(int(i), int(j), 16.0 * float(v))
                               for i, j, v in A.entries()])
        for kind, s in ALL_STRATEGIES:
            cfg = SolverConfig(eps=1e-10, strategy=Strategy(kind, seed=s))
            ua = run(A, cfg).u_final
            ub = run(cA, cfg).u_final
            assert np.allclose(ua, ub, rtol=1e-12, atol=1e-15)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, "uniqueness and equivariance", f"[{elapsed:.1f}s]")


def test_acceptance_09_tiny_scale_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    done = 0
    while done < 200:
        n = 3 if done % 2 == 0 else 4
        A = dense_instance(n, seed=int(rng.integers(0, 10 ** 9)),
                           lo=0.1, hi=1.0)
        rep = run(A, SolverConfig(eps=1e-9))
        assert rep.termination == "converged"
        M = scaled_matrix(A, rep.u_final).to_dense()
        u_oracle = grid_bisect_balance(A.to_dense(), span=8.0, coarse=0.5)
        Mo = scaled_matrix(A, u_oracle).to_dense()
        assert np.allclose(M, Mo, rtol=1e-4)
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(9, "independent minimizer agreement",
           f"[200 instances, {elapsed:.1f}s]")


def test_acceptance_10_stats_correctness():
    st = stats(gen_kalantari(40))
    assert st.kappa == 8280.0
    assert st.diameter == 40
    assert stats(gen_salient(50, 4, seed=10)).diameter == 1
    report(10, "conditioning statistics",
           "[kappa=8280, diameter=40, salient diameter=1]")
