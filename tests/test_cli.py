import csv
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from osbalance import (build_matrix, gen_kalantari, read_matrix_market,
                       read_scaling, write_matrix_market, write_scaling)
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
                      ["--parallel", "--workers", "2", "--eps", "1e-8"]):
            out = tmp_path / "k.u"
            res = runner.invoke(main, ["balance", str(mtx), "-o", str(out)]
                                + extra)
            assert res.exit_code == 0, res.output
            eps = extra[extra.index("--eps") + 1]
            ver = runner.invoke(main, ["verify", str(mtx), str(out),
                                       "--eps", eps])
            assert ver.exit_code == 0, ver.output

    def test_base2_scaling_output(self, runner, tmp_path):
        mtx = tmp_path / "a.mtx"
        out = tmp_path / "a.u"
        write_two_by_two(mtx)
        res = runner.invoke(main, ["balance", str(mtx), "--eps", "1e-10",
                                   "--base2", "-o", str(out)])
        assert res.exit_code == 0
        vals = [float(line) for line in out.read_text().split()]
        assert vals[0] - vals[1] == pytest.approx(-1.0, abs=1e-9)


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


class TestScalingFiles:
    def test_seventeen_digit_round_trip(self, tmp_path):
        u = np.random.default_rng(3).normal(size=9)
        path = tmp_path / "x.u"
        write_scaling(path, u)
        back = read_scaling(path)
        assert np.array_equal(back, u)
