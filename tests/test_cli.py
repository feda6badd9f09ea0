import csv
import errno
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import osbalance.cli
import osbalance.core
from osbalance import (LowbitConfig, SolverConfig, Strategy, build_matrix,
                       gen_kalantari, gen_random_sparse, gen_salient,
                       read_matrix_market, read_scaling, run, run_lowbit,
                       write_matrix_market, write_scaling)
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
                            "imbalance", "kappa", "diameter"}
        assert rep["termination"] == "converged"
        assert rep["imbalance"] <= 1e-10

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
        rep = run_lowbit(A, LowbitConfig(1e-3, A.n),
                         Strategy(strategy, seed=5))
        assert read_scaling(out).tolist() == rep.u_final.tolist()

    @pytest.mark.parametrize("extra, named", [
        (["--strategy", "bogus"], "unknown strategy 'bogus'"),
        (["--strategy", "bogus", "--precision", "lowbit"],
         "--strategy bogus"),
        (["--strategy", "greedy", "--precision", "lowbit"],
         "--strategy greedy"),
        (["--strategy", "uniform", "--precision", "lowbit"],
         "--strategy uniform"),
        (["--strategy", "weighted", "--precision", "lowbit"],
         "--strategy weighted"),
        (["--criterion", "parlett", "--precision", "lowbit"],
         "--criterion parlett"),
        (["--radix-rounding", "--precision", "lowbit"], "--radix-rounding"),
        (["--parallel", "--precision", "lowbit"], "--parallel"),
        (["--sample-every", "2", "--precision", "lowbit"],
         "--sample-every 2"),
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


class TestStats:
    def test_kalantari(self, runner, tmp_path):
        mtx = tmp_path / "k.mtx"
        write_matrix_market(mtx, gen_kalantari(40))
        res = runner.invoke(main, ["stats", str(mtx), "--eps", "0.01"])
        assert res.exit_code == 0
        assert "kappa: 8280" in res.output
        assert "diameter: 40" in res.output

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
