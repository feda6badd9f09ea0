"""Command-line surface: balance, gen, stats, verify, bench.

Exit codes: 0 success; 1 ``verify``: the scaling misses eps or the
scaled matrix overflows; 2 ``balance``: max cycles reached; 3
``balance``: not balanceable; 4 any command: a usage error (with click's
usage text), a file that cannot be read or written, or a rejected input
or parameter, also a row/column sum that overflowed during a run
(printed as ``error: ...``).
"""

from __future__ import annotations

import csv
import dataclasses
import errno
import json
import math
import sys

import click

from . import __version__
from .core import BalancingError, ScalingOverflowError, imbalance
from .instances import (gen_kalantari, gen_random_sparse, gen_salient, stats,
                        theoretical_cycle_bound)
from .lowbit import LowbitConfig, run_lowbit
from .mmio import (ParseError, read_matrix_market, read_scaling,
                   write_matrix_market, write_scaling)
from .parallel import greedy_color, run_parallel
from .solver import STRATEGY_KINDS, SolverConfig, Strategy, run

STRATEGY_NAMES = tuple(k for k in STRATEGY_KINDS if k != "fixed")
_EXIT = {"converged": 0, "max_cycles": 2, "not_balanceable": 3}


def _fail(message, code=4):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Main(click.Group):
    """The one error surface.  A usage error, an OSError (a file that
    cannot be read or written) and a ValueError (every package error and
    config check) exit 4; anything else is a bug and keeps its traceback."""

    def make_context(self, *args, **kwargs):
        return self._guard(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return self._guard(super().invoke, ctx)

    @staticmethod
    def _guard(call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 4  # click still prints the usage text
            raise
        except (OSError, ValueError) as exc:
            if getattr(exc, "errno", None) == errno.EPIPE:
                raise  # a closed stdout: click exits 1 quietly
            _fail(exc)


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Sparse matrix balancing toolkit."""


def _config(eps, max_cycles, strategy, seed, sample_every, **kw):
    """The SolverConfig of balance and bench, naming their options."""
    if strategy not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if sample_every < 1:
        raise ValueError("--sample-every must be at least 1")
    if max_cycles is not None and max_cycles < 1:
        raise ValueError("--max-cycles must be at least 1")
    return SolverConfig(eps=eps, max_cycles=max_cycles,
                        strategy=Strategy(strategy, seed=seed),
                        check_every=sample_every, **kw)


@main.command("balance")
@click.argument("matrix_file", type=click.Path())
@click.option("--eps", default=1e-6, show_default=True)
@click.option("--strategy", default="cyclic", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--max-cycles", type=int, default=None)
@click.option("--criterion", type=click.Choice(["l1", "parlett"]),
              default="l1", show_default=True)
@click.option("--precision", type=click.Choice(["exact", "lowbit"]),
              default="exact", show_default=True)
@click.option("--radix-rounding", is_flag=True)
@click.option("--parallel", "parallel_", is_flag=True,
              help="Color the support graph and update class by class.")
@click.option("--sample-every", default=1, show_default=True,
              help="Cycles between termination checks.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--base2", is_flag=True,
              help="Write the scaling as log base-2 exponents.")
@click.option("-o", "--output", default=None,
              help="Scaling output path [default: MATRIX_FILE.u].")
def cmd_balance(matrix_file, eps, strategy, seed, max_cycles, criterion,
                precision, radix_rounding, parallel_, sample_every, as_json,
                base2, output):
    """Balance a MatrixMarket file and write the log-domain scaling."""
    unsupported = [option for option, used in (
        (f"--strategy {strategy}", strategy not in ("cyclic", "shuffled")),
        (f"--criterion {criterion}", criterion != "l1"),
        ("--radix-rounding", radix_rounding), ("--parallel", parallel_),
        (f"--sample-every {sample_every}", sample_every != 1))
        if used and precision == "lowbit"]
    if unsupported:
        _fail(f"low-bit mode does not support {', '.join(unsupported)}")
    cfg = _config(eps, max_cycles, strategy, seed, sample_every,
                  criterion=criterion, radix_rounding=radix_rounding)
    A = read_matrix_market(matrix_file)
    if A.dropped:
        click.echo(f"warning: dropped {A.dropped} diagonal/zero entries",
                   err=True)
    if not A.strongly_connected():
        _fail("support graph is not strongly connected; the matrix is not "
              "balanceable as a whole. Decompose it into strongly connected "
              "blocks (scc_decompose) and balance each separately.", code=3)

    if precision == "lowbit":
        report = run_lowbit(A, LowbitConfig(eps, A.n), cfg.strategy,
                            max_cycles=max_cycles)
    elif parallel_:
        report = run_parallel(A, greedy_color(A), cfg)
    else:
        report = run(A, cfg)
    out = output or matrix_file + ".u"
    write_scaling(out, report.u_final, base2=base2)
    final = report.trajectory[-1].imbalance if report.trajectory else None
    if as_json:
        st = stats(A)
        click.echo(json.dumps({
            "termination": report.termination, "cycles": report.cycles_used,
            "updates": report.updates_used,
            "nonzeros": report.nonzeros_touched, "imbalance": final,
            "kappa": st.kappa if math.isfinite(st.kappa) else "inf",
            "diameter": st.diameter if math.isfinite(st.diameter) else "inf",
        }))
    else:
        click.echo(f"termination: {report.termination}")
        click.echo(f"cycles: {report.cycles_used}  "
                   f"updates: {report.updates_used}  "
                   f"nonzeros: {report.nonzeros_touched}")
        click.echo(f"imbalance: {final}")
        click.echo(f"scaling written to {out}")
    sys.exit(_EXIT[report.termination])


# The keys of each generated kind, as gen options and INSTANCE_SPEC keys.
_GEN_KEYS = {"kalantari": ("k",), "salient": ("n", "s", "lo", "hi", "seed"),
             "random": ("n", "p", "lo", "hi", "seed")}


def _generate(kind, k=40, n=100, s=5, p=0.1, lo=None, hi=1.0, seed=0):
    """The generated instance of a kind and its parameter line."""
    if kind == "kalantari":
        return gen_kalantari(k), f"k={k}"
    if kind == "salient":
        lo = 0.001 if lo is None else lo
        return (gen_salient(n, s, lo=lo, hi=hi, seed=seed),
                f"n={n} s={s} lo={lo} hi={hi} seed={seed}")
    lo = 0.0 if lo is None else lo
    return (gen_random_sparse(n, p, value_lo=lo, value_hi=hi, seed=seed),
            f"n={n} p={p} lo={lo} hi={hi} seed={seed}")


@main.command("gen")
@click.argument("kind", type=click.Choice(list(_GEN_KEYS)))
@click.option("--k", type=int, default=40, show_default=True)
@click.option("--n", type=int, default=100, show_default=True)
@click.option("--s", type=int, default=5, show_default=True)
@click.option("--p", type=float, default=0.1, show_default=True)
@click.option("--lo", type=float, default=None,
              help="Lower interval bound [salient: 0.001; random: 0].")
@click.option("--hi", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", required=True, type=click.Path())
def cmd_gen(kind, k, n, s, p, lo, hi, seed, output):
    """Generate an instance and write it as a MatrixMarket file."""
    A, params = _generate(kind, k, n, s, p, lo, hi, seed)
    write_matrix_market(output, A, comments=[
        f"generator: {kind} {params}", f"toolkit: osbalance {__version__}"])
    click.echo(f"wrote {A.n}x{A.n} matrix with {A.m} entries to {output}")


@main.command("stats")
@click.argument("matrix_file", type=click.Path())
@click.option("--eps", default=1e-2, show_default=True,
              help="Accuracy for the reported worst-case cycle bound.")
def cmd_stats(matrix_file, eps):
    """Print instance statistics and the worst-case cycle bound."""
    A = read_matrix_market(matrix_file)
    st = stats(A)
    try:  # checks eps before anything is printed
        bound = theoretical_cycle_bound(st, eps).explicit
    except BalancingError:
        bound = "withheld (not strongly connected)"
    for field in dataclasses.fields(st):
        click.echo(f"{field.name}: {getattr(st, field.name)}")
    click.echo(f"cycle_bound[eps={eps}]: {bound}")


@main.command("verify")
@click.argument("matrix_file", type=click.Path())
@click.argument("scaling_file", type=click.Path())
@click.option("--eps", default=1e-6, show_default=True)
def cmd_verify(matrix_file, scaling_file, eps):
    """Exit 0 iff the scaling balances the matrix to tolerance eps."""
    A = read_matrix_market(matrix_file)
    u = read_scaling(scaling_file)
    if len(u) != A.n:
        _fail(f"scaling has {len(u)} entries, matrix has {A.n}")
    try:
        cert = imbalance(A, u)
    except ScalingOverflowError as exc:
        _fail(exc, code=1)
    click.echo(f"l1_gradient_norm: {cert.l1_gradient_norm}")
    click.echo(f"potential: {cert.potential}")
    click.echo(f"normalized: {cert.normalized}")
    sys.exit(0 if cert.normalized <= eps else 1)


def _parse_instance_spec(spec):
    kind, colon, args = spec.partition(":")
    if not colon:
        return spec, read_matrix_market(spec)
    if kind == "file":
        return args, read_matrix_market(args)
    if kind not in _GEN_KEYS:
        raise ParseError(f"unknown instance spec {spec!r}")
    kw = {"n": 200} if kind == "salient" else {}
    for item in filter(None, args.split(",")):
        key, _, val = item.partition("=")
        if key not in _GEN_KEYS[kind]:
            raise ParseError(f"unknown key {key!r} for {kind} instances")
        integer = key in ("k", "n", "s", "seed")
        try:
            kw[key] = (int if integer else float)(val)
        except ValueError:
            want = "an integer" if integer else "a number"
            raise ParseError(f"{key} must be {want}, not {val!r}") from None
    return spec, _generate(kind, **kw)[0]


@main.command("bench")
@click.argument("instance_spec")
@click.option("--strategies", default=",".join(STRATEGY_NAMES),
              show_default=True)
@click.option("--eps", default=1e-10, show_default=True)
@click.option("--seed", default=0, show_default=True,
              help="Base seed; strategy i uses seed + i.")
@click.option("--max-cycles", type=int, default=None)
@click.option("--sample-every", default=1, show_default=True)
@click.option("-o", "--output", required=True, type=click.Path())
def cmd_bench(instance_spec, strategies, eps, seed, max_cycles, sample_every,
              output):
    """Run strategies on one instance and write convergence traces.

    INSTANCE_SPEC is a file path or kind:key=val,... (e.g.
    kalantari:k=40 or salient:n=200,s=5,seed=1).  One CSV row is written
    per termination-check sample per strategy.  One iteration means one
    update; greedy's selection overhead shows up only in the nonzeros
    and wall-clock columns.
    """
    name, A = _parse_instance_spec(instance_spec)
    names = [s.strip() for s in strategies.split(",") if s.strip()]
    cfgs = [_config(eps, max_cycles, sname, seed + i, sample_every)
            for i, sname in enumerate(names)]
    rows = [["instance", "strategy", "updates", "nonzeros", "wall_nanos",
             "imbalance"]]
    for sname, cfg in zip(names, cfgs):
        report = run(A, cfg)
        rows += ([name, sname, s.updates, s.nonzeros, s.wall_nanos,
                  f"{s.imbalance:.17g}"] for s in report.trajectory)
        if report.termination != "converged":
            click.echo(f"note: {sname} ended with {report.termination}",
                       err=True)
    with open(output, "w", newline="") as fh:  # only once every run ended
        csv.writer(fh).writerows(rows)
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
