import csv
import errno
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import osbalance.cli
import osbalance.core
import osbalance.instances
import osbalance.mmio
from osbalance import (SolverConfig, Strategy, build_matrix,
                       gen_kalantari, gen_random_sparse, gen_salient,
                       imbalance, read_matrix_market, read_scaling, run,
                       run_lowbit, write_matrix_market, write_scaling)
from osbalance.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_two_by_two(path):
    A = build_matrix(2, [(0, 1, 4.0), (1, 0, 1.0)])
    write_matrix_market(path, A)


def write_disconnected(path):
    A = build_matrix(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)])
    write_matrix_market(path, A)


class TestBalance:
    def test_two_by_two(self, runner, tmp_path):
        mtx = tmp_path / "a.mtx"
        out = tmp_path / "a.u"
        write_two_by_two(mtx)
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-10",
                                   "--strategy", "cyclic", "-o", str(out)])
        assert res.exit_code == 0, res.output
        u = read_scaling(out)
        assert u[0] - u[1] == pytest.approx(-math.log(2.0), abs=1e-10)

    def test_dropped_entries_are_reported(self, runner, tmp_path):
        mtx = tmp_path / "g.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                       "2 2 3\n1 1 5\n1 2 4\n2 1 1\n")
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-10",
                                   "-o", str(tmp_path / "g.u")])
        assert res.exit_code == 0, res.output
        assert res.stderr == "warning: dropped 1 diagonal/zero entries\n"

    def test_disconnected_exit_code(self, runner, tmp_path):
        mtx = tmp_path / "d.mtx"
        write_disconnected(mtx)
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-6",
                                   "-o", str(tmp_path / "d.u")])
        assert res.exit_code == 3
        assert "strongly connected" in res.output

    def test_kalantari_json_report(self, runner, tmp_path):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(10))
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-10",
                                   "--json", "-o", str(tmp_path / "k.u")])
        assert res.exit_code == 0, res.output
        rep = json.loads(res.output.splitlines()[0])
        assert set(rep) == {"termination", "cycles", "updates", "nonzeros",
                            "imbalance", "overflows", "kappa", "diameter"}
        assert rep["termination"] == "converged"
        assert rep["imbalance"] <= 1e-10
        assert rep["overflows"] == 0

    @pytest.mark.parametrize("eps, cycles, code", [("1e-3", "2000", 0),
                                                   ("1e-6", "1", 2)])
    def test_lowbit_json_reports_overflows(self, runner, tmp_path, eps,
                                           cycles, code):
        # 41 fractional bits on 81 vertices fit int64; 61 do not
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(40))
        res = runner.invoke(main, ["balance", str(mtx), "--precision",
                                   "lowbit", "--eps", eps, "--max-cycles",
                                   cycles, "--json", "-o",
                                   str(tmp_path / "k.u")])
        assert res.exit_code == code, res.output
        overflows = json.loads(res.output.splitlines()[0])["overflows"]
        assert (overflows > 0) == (code == 2)

    @pytest.mark.parametrize("eps, code", [(repr(2**-40), 0),
                                           ("1e-20", 4)])
    def test_lowbit_certificate_agrees_with_verify(self, runner, tmp_path,
                                                   eps, code):
        # At 1e-20 the low-bit check accepted a scaling whose exact
        # imbalance is 1.7e-16; the floor 2**-40 is the smallest eps taken.
        mtx, out = tmp_path / "k.mtx", tmp_path / "k.u"
        write_matrix_market(mtx, gen_kalantari(3))
        res = runner.invoke(main, ["balance", str(mtx), "--precision",
                                   "lowbit", "--eps", eps, "-o", str(out)])
        assert res.exit_code == code, res.output
        if code:
            assert f"eps = {eps} is too small" in res.output
            return
        res = runner.invoke(main, ["verify", str(mtx), str(out), "--eps", eps])
        assert res.exit_code == 0, res.output

    def test_imbalance_is_null_when_no_check_saw_the_scaling(self, runner,
                                                             tmp_path):
        # With --sample-every 5 and --max-cycles 2 the only check is the
        # one before the first cycle, which did not measure the scaling.
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(3))
        args = ["balance", str(mtx), "--eps", "1e-8", "--sample-every", "5",
                "--max-cycles", "2", "-o", str(tmp_path / "k.u")]
        res = runner.invoke(main, [*args, "--json"])
        assert res.exit_code == 2, res.output
        assert json.loads(res.output.splitlines()[0])["imbalance"] is None
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "imbalance: None\n" in res.output

    def test_imbalance_measures_the_written_scaling(self, runner, tmp_path):
        mtx, out = tmp_path / "k.mtx", tmp_path / "k.u"
        A = gen_kalantari(3)
        write_matrix_market(mtx, A)
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-8",
                                   "--sample-every", "2", "--max-cycles", "4",
                                   "--json", "-o", str(out)])
        assert res.exit_code == 2, res.output
        rep = json.loads(res.output.splitlines()[0])
        assert rep["cycles"] == 4
        assert rep["imbalance"] == imbalance(A, read_scaling(out)).normalized

    def test_lowbit_cycle_budget(self, runner, tmp_path):
        mtx, out = tmp_path / "k.mtx", tmp_path / "k.u"
        A = gen_kalantari(10)
        write_matrix_market(mtx, A)
        res = runner.invoke(main, ["balance", str(mtx), "--precision",
                                   "lowbit", "--eps", "1e-4", "--max-cycles",
                                   "1", "-o", str(out)])
        assert res.exit_code == 2, res.output
        want = run_lowbit(A, SolverConfig(1e-4, max_cycles=1,
                                          strategy=Strategy("cyclic"))).u_final
        assert read_scaling(out).tobytes() == want.tobytes()

    def test_max_cycles_exit_code(self, runner, tmp_path):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(10))
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-10",
                                   "--max-cycles", "1",
                                   "-o", str(tmp_path / "k.u")])
        assert res.exit_code == 2

    def test_parse_failure_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix\n")
        res = runner.invoke(main, ["balance", str(bad), "--eps", "1e-6",
                                   "-o", str(tmp_path / "bad.u")])
        assert res.exit_code == 4

    def test_lowbit_and_parallel_modes(self, runner, tmp_path):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(8))
        for extra in (["--precision", "lowbit", "--eps", "1e-2"],
                      ["--parallel", "--eps", "1e-8"]):
            out = tmp_path / "k.u"
            res = runner.invoke(main, ["balance", str(mtx), "-o", str(out)]
                                + extra)
            assert res.exit_code == 0, res.output
            eps = extra[extra.index("--eps") + 1]
            ver = runner.invoke(main, ["verify", str(mtx), str(out),
                                       "--eps", eps])
            assert ver.exit_code == 0, ver.output

    @pytest.mark.parametrize("strategy", ["cyclic", "shuffled"])
    def test_lowbit_strategy_and_seed_are_passed(self, runner, tmp_path,
                                                 strategy):
        mtx, out = tmp_path / "k.mtx", tmp_path / "k.u"
        write_matrix_market(mtx, gen_kalantari(3))
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-3",
                                   "--precision", "lowbit", "--strategy",
                                   strategy, "--seed", "5", "-o", str(out)])
        assert res.exit_code == 0, res.output
        A = read_matrix_market(mtx)
        rep = run_lowbit(A, SolverConfig(1e-3,
                                         strategy=Strategy(strategy, seed=5)))
        assert read_scaling(out).tolist() == rep.u_final.tolist()

    def test_lowbit_sample_every_is_passed(self, runner, tmp_path):
        mtx, out, ref = (tmp_path / name for name in ("k.mtx", "k.u", "r.u"))
        write_matrix_market(mtx, gen_kalantari(10))
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-3",
                                   "--precision", "lowbit", "--sample-every",
                                   "2", "--json", "-o", str(out)])
        assert res.exit_code == 0, res.output
        rep = run_lowbit(read_matrix_market(mtx),
                         SolverConfig(1e-3, check_every=2))
        write_scaling(ref, rep.u_final)
        assert out.read_bytes() == ref.read_bytes()
        assert json.loads(res.output)["cycles"] == rep.cycles_used
        assert len(rep.trajectory) == rep.cycles_used // 2

    @pytest.mark.parametrize("extra, named", [
        (["--strategy", "bogus"], "unknown strategy 'bogus'"),
        (["--strategy", "bogus", "--precision", "lowbit"],
         "unknown strategy 'bogus'"),
        (["--strategy", "greedy", "--precision", "lowbit"],
         "strategy = 'greedy'"),
        (["--strategy", "uniform", "--precision", "lowbit"],
         "strategy = 'uniform'"),
        (["--strategy", "weighted", "--precision", "lowbit"],
         "strategy = 'weighted'"),
        (["--criterion", "parlett", "--precision", "lowbit"],
         "criterion = 'parlett'"),
        (["--radix-rounding", "--precision", "lowbit"],
         "radix_rounding = True"),
        (["--parallel", "--precision", "lowbit"], "--parallel"),
        (["--parallel", "--strategy", "shuffled"], "strategy = 'shuffled'"),
        (["--parallel", "--strategy", "greedy"], "strategy = 'greedy'"),
        (["--eps", "2"], "eps must lie in (0, 1)"),
        (["--sample-every", "0"], "--sample-every must be at least 1"),
    ])
    def test_rejected_options_exit_4(self, runner, tmp_path, extra, named):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(3))
        res = runner.invoke(main, ["balance", str(mtx),
                                   "-o", str(tmp_path / "k.u")] + extra)
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert "error: " in res.output and named in res.output

    @pytest.mark.parametrize("strategy", ["greedy", "shuffled"])
    def test_parallel_refuses_before_coloring(self, runner, tmp_path,
                                              monkeypatch, strategy):
        def greedy_color(A):
            raise AssertionError("colored a run it refuses")
        monkeypatch.setattr(osbalance.cli, "greedy_color", greedy_color)
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(3))
        res = runner.invoke(main, ["balance", str(mtx), "--parallel",
                                   "--strategy", strategy,
                                   "-o", str(tmp_path / "k.u")])
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert (f"error: a color-class run does not support strategy = "
                f"'{strategy}'") in res.output
        assert not (tmp_path / "k.u").exists()

    def test_negative_seed_refused_before_reading(self, runner, tmp_path,
                                                  monkeypatch):
        def read_matrix_market(path):
            raise AssertionError("read a matrix for a run it refuses")
        monkeypatch.setattr(osbalance.cli, "read_matrix_market",
                            read_matrix_market)
        res = runner.invoke(main, ["balance", str(tmp_path / "k.mtx"),
                                   "--strategy", "shuffled", "--seed", "-1",
                                   "-o", str(tmp_path / "k.u")])
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert ("error: strategy 'shuffled' requires a seed >= 0, not -1"
                in res.output)

    def test_stats_only_for_json(self, runner, tmp_path, monkeypatch):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(3))
        called = []
        monkeypatch.setattr(osbalance.cli, "stats", called.append)
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-4",
                                   "-o", str(tmp_path / "k.u")])
        assert res.exit_code == 0, res.output
        assert called == []

    def test_json_searches_the_support_once(self, runner, tmp_path,
                                            monkeypatch):
        # cmd_balance, the driver and stats all read the one answer.
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(3))
        calls = []
        search = osbalance.core._reaches_all_both_ways
        monkeypatch.setattr(osbalance.core, "_reaches_all_both_ways",
                            lambda A: calls.append(A) or search(A))
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-4",
                                   "--json", "-o", str(tmp_path / "k.u")])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["diameter"] == 3
        assert len(calls) == 1

    def test_base2_scaling_output(self, runner, tmp_path):
        mtx = tmp_path / "a.mtx"
        out = tmp_path / "a.u"
        write_two_by_two(mtx)
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-10",
                                   "--base2", "-o", str(out)])
        assert res.exit_code == 0
        vals = [float(line) for line in out.read_text().split()]
        assert vals[0] - vals[1] == pytest.approx(-1.0, abs=1e-9)

    def test_overflowing_conditioning_converges(self, runner, tmp_path):
        # kappa = (1e300 + 1e-300) / 1e-300 overflows; one update balances.
        mtx, out = tmp_path / "o.mtx", tmp_path / "o.u"
        write_matrix_market(mtx, build_matrix(2, [(0, 1, 1e300),
                                                  (1, 0, 1e-300)]))
        res = runner.invoke(main, ["balance", str(mtx), "-o", str(out),
                                   "--json"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["kappa"] == "inf"
        ver = runner.invoke(main, ["verify", str(mtx), str(out)])
        assert ver.exit_code == 0, ver.output

    def test_overflowing_sum_exits_4(self, runner, tmp_path):
        mtx = tmp_path / "o.mtx"
        write_matrix_market(mtx, build_matrix(3, [
            (0, 1, 1e308), (0, 2, 1e308), (1, 0, 1.0), (2, 0, 1.0),
            (1, 2, 1.0), (2, 1, 1.0)]))
        for extra in ([], ["--parallel"]):
            res = runner.invoke(main, ["balance", str(mtx),
                                       "-o", str(tmp_path / "o.u")] + extra)
            assert res.exit_code == 4
            assert isinstance(res.exception, SystemExit)
            assert "error: row/column sum overflowed" in res.output

    def test_exp_overflow_exits_4(self, runner, tmp_path):
        # A run reaches a term e^734 on the scalar path, where math.exp
        # raises OverflowError: a typed error, not a traceback.
        mtx = tmp_path / "e.mtx"
        write_matrix_market(mtx, build_matrix(3, [
            (0, 1, 8.792902260896086e+69), (1, 2, 2.8607001385494798e+261),
            (2, 0, 9.101792669146858e-264), (1, 0, 1.4192950285593935e+27)]))
        res = runner.invoke(main, ["balance", str(mtx),
                                   "-o", str(tmp_path / "e.u")])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        assert "error: row/column sum overflowed or underflowed" in res.output

    def test_underflowing_sum_exits_4(self, runner, tmp_path):
        # The second cycle's row sum of index 1 underflows to zero.
        mtx = tmp_path / "u.mtx"
        write_matrix_market(mtx, build_matrix(3, [
            (0, 1, 3.0381820057670038e+292), (0, 2, 2.8526290126358273e-216),
            (1, 0, 3.226333723811323e-225), (2, 1, 1.031897967121833e+268)]))
        res = runner.invoke(main, ["balance", str(mtx),
                                   "-o", str(tmp_path / "u.u")])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        assert "error: row/column sum overflowed or underflowed" in res.output

    def test_underflowed_kept_sum_exits_4(self, runner, tmp_path):
        # Under greedy, the resync after the first cycle finds row 2's
        # sum underflowed to zero; the fifth cycle's step is taken from it.
        mtx = tmp_path / "u4.mtx"
        write_matrix_market(mtx, build_matrix(4, [
            (0, 1, 1.120907503718338e-91), (1, 2, 3.198624667518668e-139),
            (1, 3, 8.541485890918407e+196), (2, 3, 5.010333771794744e+283),
            (3, 0, 1.319422062337064e-91)]))
        res = runner.invoke(main, ["balance", str(mtx), "--strategy",
                                   "greedy", "-o", str(tmp_path / "u4.u")])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        assert "error: row/column sum overflowed or underflowed" in res.output

    @pytest.mark.parametrize("command", [["balance"], ["stats"],
                                         ["balance", "--parallel"]])
    @pytest.mark.parametrize("entry", ["1 2 nan", "1 2 inf",
                                       "1 2 1e308\n1 2 1e308"])
    def test_non_finite_entry_exits_4(self, runner, tmp_path, command,
                                      entry):
        mtx = tmp_path / "n.mtx"
        lines = ["1 2 1", "2 1 1", "2 3 1", "3 2 1", *entry.split("\n")]
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                       f"3 3 {len(lines)}\n" + "\n".join(lines) + "\n")
        res = runner.invoke(main, [command[0], str(mtx), *command[1:]])
        assert res.exit_code == 4, res.output
        assert res.output == "error: non-finite entry\n"

    @pytest.mark.parametrize("command", [["balance"], ["stats"],
                                         ["balance", "--parallel"]])
    @pytest.mark.parametrize("size, entry, named", [
        ("2 2 1", "1 99999999999999999999 1", "index out of range"),
        ("2 2 1", "-99999999999999999999 1 1", "index out of range"),
        ("99999999999999999999 99999999999999999999 1", "1 2 1",
         "matrix dimension must be at most"),
        ("3037000500 3037000500 1", "1 2 1",
         "matrix dimension must be at most"),
    ])
    def test_beyond_int64_exits_4(self, runner, tmp_path, command, size,
                                  entry, named):
        # An index beyond int64, or an n whose keys row * n + col do not
        # fit it, is a user error, not an OverflowError traceback.
        mtx = tmp_path / "big.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                       f"{size}\n{entry}\n")
        res = runner.invoke(main, [command[0], str(mtx), *command[1:]])
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"error: {named}")

    def test_max_cycles_named(self, runner, tmp_path):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(3))
        for extra in ([], ["--precision", "lowbit"]):
            res = runner.invoke(main, ["balance", str(mtx), "--max-cycles",
                                       "0", "-o", str(tmp_path / "k.u"),
                                       *extra])
            assert res.exit_code == 4
            assert "error: --max-cycles must be at least 1" in res.output


class TestGen:
    def test_kalantari_counts(self, runner, tmp_path):
        out = tmp_path / "k.mtx"
        res = runner.invoke(main, ["gen", "kalantari", "--k", "40",
                                   "-o", str(out)])
        assert res.exit_code == 0
        A = read_matrix_market(out)
        assert A.n == 81 and A.m == 162

    def test_salient_counts(self, runner, tmp_path):
        out = tmp_path / "s.mtx"
        res = runner.invoke(main, ["gen", "salient", "--n", "1000",
                                   "--s", "20", "--seed", "7",
                                   "-o", str(out)])
        assert res.exit_code == 0
        assert read_matrix_market(out).m == 999000

    def test_deterministic_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.mtx", tmp_path / "b.mtx"
        for out in (a, b):
            res = runner.invoke(main, ["gen", "random", "--n", "12",
                                       "--p", "0.3", "--seed", "5",
                                       "-o", str(out)])
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_entry_multiset(self, runner, tmp_path):
        out = tmp_path / "k.mtx"
        runner.invoke(main, ["gen", "kalantari", "--k", "7", "-o", str(out)])
        parsed = read_matrix_market(out)
        direct = gen_kalantari(7)
        got = sorted((int(i), int(j), float(v))
                     for i, j, v in parsed.entries())
        want = sorted((int(i), int(j), float(v))
                      for i, j, v in direct.entries())
        assert got == want

    @pytest.mark.parametrize("argv, named", [
        (["random", "--n", "5", "--p", "1", "--lo", "-1"], "negative value"),
        (["salient", "--n", "1", "--s", "0"], "n must be at least 2"),
        (["salient", "--n", "5", "--s", "-1"], 
         "n must be at least 2 and s lie in [0, n)"),
    ])
    def test_invalid_matrix_exits_4(self, runner, tmp_path, argv, named):
        out = tmp_path / "x.mtx"
        res = runner.invoke(main, ["gen", *argv, "-o", str(out)])
        assert res.exit_code == 4, res.output
        assert f"error: {named}" in res.output
        assert not out.exists()

    def test_zero_entries_are_not_written(self, runner, tmp_path):
        out = tmp_path / "s.mtx"
        res = runner.invoke(main, ["gen", "salient", "--n", "6", "--s", "2",
                                   "--lo", "0", "-o", str(out)])
        assert res.exit_code == 0, res.output
        assert "with 18 entries" in res.output
        A = read_matrix_market(out)
        assert A.m == 18 and A.dropped == 0

    def test_invalid_parameters(self, runner, tmp_path):
        res = runner.invoke(main, ["gen", "salient", "--n", "5", "--s", "9",
                                   "-o", str(tmp_path / "x.mtx")])
        assert res.exit_code == 4

    def test_too_large_kalantari_exits_4(self, runner, tmp_path):
        out = tmp_path / "x.mtx"
        res = runner.invoke(main, ["gen", "kalantari", "--k",
                                   "99999999999999999999", "-o", str(out)])
        assert res.exit_code == 4, res.output
        assert res.output.startswith("error: matrix dimension must be at most")
        assert not out.exists()


class TestStats:
    def test_kalantari(self, runner, tmp_path):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(40))
        res = runner.invoke(main, ["stats", str(mtx), "--eps", "0.01"])
        assert res.exit_code == 0
        assert "kappa: 8280" in res.output
        assert "diameter: 40" in res.output

    def test_diameter_withheld_past_the_work_bound(self, runner, tmp_path,
                                                  monkeypatch):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(40))
        monkeypatch.setattr(osbalance.instances, "DIAMETER_MAX_WORK", 100)
        res = runner.invoke(main, ["stats", str(mtx), "--eps", "0.01"])
        assert res.exit_code == 0, res.output
        assert "diameter: withheld\n" in res.output
        assert "cycle_bound[eps=0.01]: 11200000" in res.output
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-4",
                                   "--json", "-o", str(tmp_path / "k.u")])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["diameter"] is None

    def test_complete_ones(self, runner, tmp_path):
        mtx = tmp_path / "c.mtx"
        write_matrix_market(mtx, build_matrix(
            3, [(i, j, 1.0) for i in range(3) for j in range(3) if i != j]))
        res = runner.invoke(main, ["stats", str(mtx)])
        assert "kappa: 6" in res.output
        assert "diameter: 1" in res.output

    def test_overflowing_conditioning_has_finite_bound(self, runner,
                                                         tmp_path):
        mtx = tmp_path / "o.mtx"
        write_matrix_market(mtx, build_matrix(2, [(0, 1, 1e300),
                                                  (1, 0, 1e-300)]))
        res = runner.invoke(main, ["stats", str(mtx), "--eps", "0.01"])
        assert res.exit_code == 0, res.output
        assert "kappa: inf" in res.output
        # log2 kappa = log2(1e300) - log2(1e-300) = 1993.2..., ceil 1994
        assert "cycle_bound[eps=0.01]: 1595200000" in res.output

    @pytest.mark.parametrize("write", [write_two_by_two, write_disconnected])
    def test_eps_checked_before_printing(self, runner, tmp_path, write):
        mtx = tmp_path / "m.mtx"
        write(mtx)
        res = runner.invoke(main, ["stats", str(mtx), "--eps", "5"])
        assert res.exit_code == 4
        assert res.output == "error: eps must lie in (0, 1]\n"

    def test_disconnected_bound_withheld(self, runner, tmp_path):
        mtx = tmp_path / "d.mtx"
        write_disconnected(mtx)
        res = runner.invoke(main, ["stats", str(mtx), "--eps", "0.01"])
        assert res.exit_code == 0
        assert "inf" in res.output
        assert "withheld" in res.output


class TestVerify:
    def test_balanced_pair(self, runner, tmp_path):
        mtx, u = tmp_path / "a.mtx", tmp_path / "a.u"
        write_two_by_two(mtx)
        write_scaling(u, np.array([-math.log(2.0), 0.0]))
        res = runner.invoke(main, ["verify", str(mtx), str(u),
                                   "--eps", "1e-12"])
        assert res.exit_code == 0

    def test_unbalanced_pair(self, runner, tmp_path):
        mtx, u = tmp_path / "a.mtx", tmp_path / "a.u"
        write_two_by_two(mtx)
        write_scaling(u, np.zeros(2))
        res = runner.invoke(main, ["verify", str(mtx), str(u),
                                   "--eps", "1.0"])
        assert res.exit_code == 1
        assert "1.2" in res.output

    def test_dimension_mismatch(self, runner, tmp_path):
        mtx, u = tmp_path / "a.mtx", tmp_path / "a.u"
        write_two_by_two(mtx)
        write_scaling(u, np.zeros(3))
        res = runner.invoke(main, ["verify", str(mtx), str(u),
                                   "--eps", "1.0"])
        assert res.exit_code == 4

    @pytest.mark.parametrize("eps", ["0", "-1", "nan"])
    def test_tolerance_must_be_positive(self, runner, tmp_path, eps):
        # refused before either file is read: neither exists here
        res = runner.invoke(main, ["verify", str(tmp_path / "a.mtx"),
                                   str(tmp_path / "a.u"), "--eps", eps])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        assert "error: eps must be positive" in res.output

    @pytest.mark.parametrize("text", ["inf\n0\n", "nan\n0\n"])
    def test_non_finite_scaling_is_a_parse_failure(self, runner, tmp_path,
                                                   text):
        mtx, u = tmp_path / "a.mtx", tmp_path / "a.u"
        write_two_by_two(mtx)
        u.write_text(text)
        res = runner.invoke(main, ["verify", str(mtx), str(u)])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        assert "error: scaling holds a non-finite value" in res.output

    def test_overflowing_scaling_misses_tolerance(self, runner, tmp_path):
        mtx, u = tmp_path / "a.mtx", tmp_path / "a.u"
        write_two_by_two(mtx)
        u.write_text("800\n0\n")
        res = runner.invoke(main, ["verify", str(mtx), str(u)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "error: scaled entry overflowed" in res.output


class TestBench:
    def test_csv_contract(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", "kalantari:k=10",
                                   "--eps", "1e-8",
                                   "--strategies",
                                   "cyclic,shuffled,uniform,weighted,greedy",
                                   "--seed", "1", "-o", str(out)])
        assert res.exit_code == 0, res.output
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["instance", "strategy", "updates",
                                 "nonzeros", "wall_nanos", "imbalance"]
        by_strategy = {}
        for row in rows:
            by_strategy.setdefault(row["strategy"], []).append(row)
        assert set(by_strategy) == {"cyclic", "shuffled", "uniform",
                                    "weighted", "greedy"}
        for series in by_strategy.values():
            for col in ("updates", "nonzeros", "wall_nanos"):
                vals = [float(r[col]) for r in series]
                assert vals == sorted(vals)
            assert float(series[-1]["imbalance"]) <= 1e-8

    def test_single_strategy(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", "kalantari:k=5",
                                   "--eps", "1e-6",
                                   "--strategies", "cyclic",
                                   "-o", str(out)])
        assert res.exit_code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["strategy"] for r in rows} == {"cyclic"}

    def test_negative_seed_refused_before_any_run(self, runner, tmp_path,
                                                  monkeypatch):
        # strategy i takes seed + i, so shuffled gets -1 after cyclic's -2
        def run(A, cfg):
            raise AssertionError("ran a strategy before the refusal")
        monkeypatch.setattr(osbalance.cli, "run", run)
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", "kalantari:k=3", "--seed", "-2",
                                   "-o", str(out)])
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert ("error: strategy 'shuffled' requires a seed >= 0, not -1"
                in res.output)
        assert not out.exists()

    def test_file_instance(self, runner, tmp_path):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(5))
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", str(mtx), "--eps", "1e-6",
                                   "--strategies", "cyclic",
                                   "-o", str(out)])
        assert res.exit_code == 0, res.output


    @staticmethod
    def bench_rows(runner, tmp_path, spec, *extra):
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", spec, "-o", str(out), *extra])
        assert res.exit_code == 0, res.output
        with open(out) as fh:
            return list(csv.DictReader(fh))

    def test_sample_every(self, runner, tmp_path):
        n = gen_kalantari(10).n
        rows = self.bench_rows(runner, tmp_path, "kalantari:k=10",
                               "--eps", "1e-8", "--strategies", "cyclic,greedy",
                               "--sample-every", "2")
        assert len(rows) > 4
        assert all(int(r["updates"]) % (2 * n) == 0 for r in rows)

    @pytest.mark.parametrize("spec, A", [
        ("salient:n=20,s=3,seed=1", gen_salient(20, 3, seed=1)),
        ("salient:s=3,lo=0.01", gen_salient(200, 3, lo=0.01)),
        ("random:n=15,p=0.4,hi=2.5,seed=2",
         gen_random_sparse(15, 0.4, value_hi=2.5, seed=2)),
    ])
    def test_generated_instance_specs(self, runner, tmp_path, spec, A):
        rows = self.bench_rows(runner, tmp_path, spec, "--eps", "1e-6",
                               "--strategies", "cyclic")
        rep = run(A, SolverConfig(eps=1e-6))
        assert rep.termination == "converged"
        assert {r["instance"] for r in rows} == {spec}
        assert [(int(r["updates"]), int(r["nonzeros"])) for r in rows] == \
            [(s.updates, s.nonzeros) for s in rep.trajectory]

    @pytest.mark.parametrize("spec", ["kalantari:kk=5", "salient:p=0.5",
                                      "random:s=3", "ring:k=5"])
    def test_unknown_spec_key_is_a_parse_failure(self, runner, tmp_path,
                                                 spec):
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", spec, "--strategies", "cyclic",
                                   "-o", str(out)])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        assert "error: unknown" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["kalantari:k=1e1",
                                      "salient:n=20.5,s=2",
                                      "salient:n=20,s=2.0",
                                      "random:n=10,seed=1.5",
                                      "random:n=10,p=x"])
    def test_bad_spec_literal_exits_4(self, runner, tmp_path, spec):
        out = tmp_path / "bench.csv"
        res = runner.invoke(main, ["bench", spec, "--strategies", "cyclic",
                                   "-o", str(out)])
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert "error: " in res.output and "Traceback" not in res.output
        assert not out.exists()
        named = {"kalantari:k=1e1": "k must be an integer, not '1e1'",
                 "salient:n=20.5,s=2": "n must be an integer, not '20.5'",
                 "salient:n=20,s=2.0": "s must be an integer, not '2.0'",
                 "random:n=10,seed=1.5": "seed must be an integer, not '1.5'",
                 "random:n=10,p=x": "p must be a number, not 'x'"}[spec]
        assert f"error: {named}\n" in res.output

    def test_float_keys_take_integer_literals(self, runner, tmp_path):
        rows = self.bench_rows(runner, tmp_path, "random:n=12,p=1,lo=1,hi=2",
                               "--eps", "1e-6", "--strategies", "cyclic")
        rep = run(gen_random_sparse(12, 1.0, value_lo=1.0, value_hi=2.0),
                  SolverConfig(eps=1e-6))
        assert [int(r["updates"]) for r in rows] == \
            [s.updates for s in rep.trajectory]

    def test_failed_run_leaves_no_csv(self, runner, tmp_path):
        # The second cycle's row sum of index 1 underflows to zero.
        mtx, out = tmp_path / "o.mtx", tmp_path / "bench.csv"
        write_matrix_market(mtx, build_matrix(3, [
            (0, 1, 3.0381820057670038e+292), (0, 2, 2.8526290126358273e-216),
            (1, 0, 3.226333723811323e-225), (2, 1, 1.031897967121833e+268)]))
        res = runner.invoke(main, ["bench", str(mtx), "-o", str(out)])
        assert res.exit_code == 4
        assert "error: row/column sum overflowed" in res.output
        assert not out.exists()


class TestErrorSurface:
    """One handler: every user error of every command exits 4."""

    @pytest.fixture
    def paths(self, tmp_path):
        p = {key: tmp_path / name for key, name in [
            ("ok", "k.mtx"), ("diag", "d.mtx"), ("diag_u", "d.u"),
            ("over", "o.mtx"), ("binary", "b.mtx"), ("out", "x.out"),
            ("missing", "no/dir/x"), ("reducible", "r.mtx"),
            ("huge_u", "h.u")]}
        write_matrix_market(p["ok"], gen_kalantari(3))
        write_disconnected(p["reducible"])
        p["huge_u"].write_text("800\n" + "0\n" * 6)
        # Only diagonal entries: n = 2 and no entry left after parsing.
        p["diag"].write_text("%%MatrixMarket matrix coordinate real "
                             "general\n2 2 2\n1 1 1.0\n2 2 1.0\n")
        p["diag_u"].write_text("0\n0\n")
        # The second cycle's row sum of index 1 underflows to zero.
        write_matrix_market(p["over"], build_matrix(3, [
            (0, 1, 3.0381820057670038e+292), (0, 2, 2.8526290126358273e-216),
            (1, 0, 3.226333723811323e-225), (2, 1, 1.031897967121833e+268)]))
        p["binary"].write_bytes(b"\xff\xfe" + p["ok"].read_bytes())
        return {key: str(path) for key, path in p.items()}

    @staticmethod
    def invoke(runner, paths, argv):
        return runner.invoke(main, [a.format(**paths) for a in argv])

    @pytest.mark.parametrize("argv, named", [
        (["bench", "kalantari:k=3", "--sample-every", "0", "-o", "{out}"],
         "--sample-every must be at least 1"),
        (["bench", "kalantari:k=3", "--eps", "2", "-o", "{out}"],
         "eps must lie in (0, 1)"),
        (["bench", "{over}", "-o", "{out}"], "row/column sum overflowed"),
        (["stats", "{diag}"], "empty matrix"),
        (["verify", "{diag}", "{diag_u}"], "empty matrix"),
        (["balance", "{ok}", "-o", "{missing}"], "No such file"),
        (["gen", "kalantari", "--k", "3", "-o", "{missing}"], "No such file"),
        (["bench", "kalantari:k=3", "-o", "{missing}"], "No such file"),
        (["balance", "{binary}", "-o", "{out}"], ""),
        (["stats", "{binary}"], ""),
        (["gen", "random", "--n", "0", "-o", "{out}"],
         "matrix dimension must be positive"),
        (["gen", "random", "--n", "-1", "-o", "{out}"],
         "matrix dimension must be positive"),
        # eps ** 2 underflows to 0, or the cycle bound overflows to inf
        (["balance", "{ok}", "--eps", "1e-300", "-o", "{out}"],
         "eps = 1e-300 is too small"),
        (["balance", "{ok}", "--eps", "1e-160", "-o", "{out}"],
         "eps = 1e-160 is too small"),
        (["balance", "{ok}", "--precision", "lowbit", "--eps", "1e-300",
          "-o", "{out}"], "eps = 1e-300 is too small"),
        (["balance", "{ok}", "--precision", "lowbit", "--eps", "1e-160",
          "-o", "{out}"], "eps = 1e-160 is too small"),
        (["stats", "{ok}", "--eps", "1e-300"], "eps = 1e-300 is too small"),
    ])
    def test_user_errors_exit_4(self, runner, paths, argv, named):
        res = self.invoke(runner, paths, argv)
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert "error: " in res.output and named in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("argv", [
        ["balance", "{ok}", "--criterion", "bogus"],
        ["balance", "{ok}", "--workers", "2"],
        ["verify", "{ok}"],
        ["nosuchcommand"],
        ["--bogus"],
    ])
    def test_usage_errors_exit_4(self, runner, paths, argv):
        res = self.invoke(runner, paths, argv)
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Usage: " in res.output and "Error: " in res.output

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["--version"], 0), (["balance", "--help"], 0),
        (["balance", "{ok}", "--eps", "1e-10", "--max-cycles", "1",
          "-o", "{out}"], 2),
        (["balance", "{reducible}", "-o", "{out}"], 3),
        (["verify", "{ok}", "{huge_u}"], 1),
    ])
    def test_other_exit_codes_keep_their_meaning(self, runner, paths, argv,
                                                 code):
        res = self.invoke(runner, paths, argv)
        assert res.exit_code == code, res.output
        assert isinstance(res.exception, (SystemExit, type(None)))

    def test_closed_stdout_is_not_a_user_error(self, runner, paths,
                                                monkeypatch):
        def closed(A):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        monkeypatch.setattr(osbalance.cli, "stats", closed)
        res = self.invoke(runner, paths, ["stats", "{ok}"])
        assert res.exit_code == 1
        assert "error: " not in res.output

    @pytest.mark.parametrize("argv", [
        ["balance", "{ok}", "-o", "{out}"], ["stats", "{ok}"],
        ["verify", "{ok}", "{diag_u}"]])
    @pytest.mark.parametrize("message, named", [
        ("Unable to allocate 22.4 GiB", "Unable to allocate 22.4 GiB"),
        ("", "MemoryError")])
    def test_memory_error_exits_4(self, runner, paths, monkeypatch, argv,
                                  message, named):
        # A size line alone can ask for more memory than there is.
        def too_large(path):
            raise MemoryError(message)
        monkeypatch.setattr(osbalance.cli, "read_matrix_market", too_large)
        res = self.invoke(runner, paths, argv)
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == f"error: {named}\n"

    def test_other_exceptions_propagate(self, runner, paths, monkeypatch):
        class Stop(Exception):
            pass

        def stop(A, cfg):
            raise Stop
        monkeypatch.setattr(osbalance.cli, "run", stop)
        res = self.invoke(runner, paths, ["balance", "{ok}", "-o", "{out}"])
        assert isinstance(res.exception, Stop)


class TestScalingFiles:
    def test_seventeen_digit_round_trip(self, tmp_path):
        u = np.random.default_rng(3).normal(size=9)
        path = tmp_path / "x.u"
        write_scaling(path, u)
        back = read_scaling(path)
        assert np.array_equal(back, u)

    @staticmethod
    def write_one_at_a_time(path, u, base2=False):
        """The writer as a loop that formats each np.float64 on its own."""
        with open(path, "w") as fh:
            for x in u:
                x = x / np.log(2.0) if base2 else x
                fh.write(f"{x:.17g}\n")

    @pytest.mark.parametrize("x", [1.7e308, -1.7e308])
    def test_overflowing_base2_exponent_is_refused(self, tmp_path, x):
        path = tmp_path / "x.u"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="base-2 exponent"):
                write_scaling(path, [0.0, x], base2=True)
        assert not path.exists()

    def test_largest_base2_exponents_are_written(self, tmp_path):
        path = tmp_path / "x.u"
        write_scaling(path, [1.2e308, -1.2e308], base2=True)
        back = read_scaling(path)
        assert np.all(np.isfinite(back))
        assert back[0] == -back[1] == pytest.approx(1.2e308 / math.log(2.0))

    @pytest.mark.parametrize("base2", [False, True])
    def test_same_bytes_as_one_at_a_time(self, tmp_path, base2):
        tiny = np.finfo(np.float64).smallest_subnormal
        u = np.concatenate([
            [0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -2.5e-320,
             1e308, -1e308, 1.2e308, math.log(2.0),
             -math.log(2.0), 1.0, 1 / 3],
            np.random.default_rng(7).normal(scale=50, size=1000)])
        got, want = tmp_path / "got.u", tmp_path / "want.u"
        write_scaling(got, u, base2=base2)
        self.write_one_at_a_time(want, u, base2=base2)
        assert got.read_bytes() == want.read_bytes()
        assert b"-0\n" in got.read_bytes()

    @pytest.mark.parametrize("length", [0, 1, osbalance.mmio._CHUNK - 1,
                                        osbalance.mmio._CHUNK,
                                        osbalance.mmio._CHUNK + 1,
                                        3 * osbalance.mmio._CHUNK + 5])
    def test_chunks_are_the_per_line_format(self, tmp_path, length):
        edges = [-0.0, 5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308]
        rng = np.random.default_rng(length)
        pool = np.concatenate([
            edges, rng.integers(-10**6, 10**6, 40).astype(float),
            [2.0**53, -2.0**60, 1e22], rng.normal(scale=1e3, size=60),
            10.0 ** rng.uniform(-320, 308, 40) * rng.choice([-1, 1], 40)])
        u = rng.choice(pool, length)
        u[:min(length, len(edges))] = edges[:length]
        path = tmp_path / "x.u"
        write_scaling(path, u)
        want = "".join(f"{x:.17g}\n" for x in u.tolist())
        assert path.read_bytes() == want.encode()
