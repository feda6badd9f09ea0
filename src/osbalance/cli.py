"""Command-line surface: balance, gen, stats, verify, bench.

Exit codes for ``balance``: 0 converged, 2 max cycles reached, 3 not
balanceable, 4 parse/parameter failure.  ``verify`` exits 0 when the
scaling meets the tolerance, 1 otherwise (also when the scaled matrix
overflows) and 4 when the scaling file cannot be read.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click

from . import __version__
from .core import ScalingOverflowError, imbalance
from .instances import (gen_kalantari, gen_random_sparse, gen_salient, stats,
                        theoretical_cycle_bound)
from .lowbit import LowbitConfig, run_lowbit
from .mmio import (ParseError, read_matrix_market, read_scaling,
                   write_matrix_market, write_scaling)
from .parallel import greedy_color, run_parallel
from .solver import STRATEGY_KINDS, SolverConfig, Strategy, run

STRATEGY_NAMES = tuple(k for k in STRATEGY_KINDS if k != "fixed")
_EXIT = {"converged": 0, "max_cycles": 2, "not_balanceable": 3}


@click.group()
@click.version_option(__version__)
def main():
    """Sparse matrix balancing toolkit."""


def _load(path):
    try:
        return read_matrix_market(path)
    except (OSError, ParseError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)


def _make_strategy(name, seed):
    if name not in STRATEGY_NAMES:
        click.echo(f"error: unknown strategy {name!r}", err=True)
        sys.exit(4)
    return Strategy(name, seed=seed)


def _report_json(report, st):
    return {
        "termination": report.termination,
        "cycles": report.cycles_used,
        "updates": report.updates_used,
        "nonzeros": report.nonzeros_touched,
        "imbalance": report.trajectory[-1].imbalance if report.trajectory
                     else None,
        "kappa": st.kappa,
        "diameter": st.diameter if math.isfinite(st.diameter) else "inf",
    }


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
@click.option("--workers", default=1, help="Accepted; has no effect.")
@click.option("--sample-every", default=1, show_default=True,
              help="Cycles between termination checks.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--base2", is_flag=True,
              help="Write the scaling as log base-2 exponents.")
@click.option("-o", "--output", default=None,
              help="Scaling output path [default: MATRIX_FILE.u].")
def cmd_balance(matrix_file, eps, strategy, seed, max_cycles, criterion,
                precision, radix_rounding, parallel_, workers,
                sample_every, as_json, base2, output):
    """Balance a MatrixMarket file and write the log-domain scaling."""
    A = _load(matrix_file)
    if A.m == 0:
        click.echo("error: matrix has no off-diagonal entries", err=True)
        sys.exit(3)
    if A.dropped:
        click.echo(f"warning: dropped {A.dropped} diagonal/zero entries",
                   err=True)
    st = stats(A)
    if not st.strongly_connected:
        click.echo("error: support graph is not strongly connected; the "
                   "matrix is not balanceable as a whole. Decompose it into "
                   "strongly connected blocks and balance each separately.",
                   err=True)
        sys.exit(3)

    if precision == "lowbit":
        report = run_lowbit(A, LowbitConfig(eps, A.n),
                            Strategy("cyclic"), max_cycles=max_cycles)
    else:
        cfg = SolverConfig(eps=eps, max_cycles=max_cycles,
                           criterion=criterion,
                           strategy=_make_strategy(strategy, seed),
                           radix_rounding=radix_rounding,
                           check_every=sample_every)
        if parallel_:
            report = run_parallel(A, greedy_color(A), cfg, workers=workers)
        else:
            report = run(A, cfg)

    out = output or matrix_file + ".u"
    write_scaling(out, report.u_final, base2=base2)
    if as_json:
        click.echo(json.dumps(_report_json(report, st)))
    else:
        final = report.trajectory[-1].imbalance if report.trajectory else None
        click.echo(f"termination: {report.termination}")
        click.echo(f"cycles: {report.cycles_used}  "
                   f"updates: {report.updates_used}  "
                   f"nonzeros: {report.nonzeros_touched}")
        click.echo(f"imbalance: {final}")
        click.echo(f"scaling written to {out}")
    sys.exit(_EXIT[report.termination])


@main.command("gen")
@click.argument("kind", type=click.Choice(["kalantari", "salient", "random"]))
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
    try:
        if kind == "kalantari":
            A = gen_kalantari(k)
            params = f"k={k}"
        elif kind == "salient":
            lo = 0.001 if lo is None else lo
            A = gen_salient(n, s, lo=lo, hi=hi, seed=seed)
            params = f"n={n} s={s} lo={lo} hi={hi} seed={seed}"
        else:
            lo = 0.0 if lo is None else lo
            A = gen_random_sparse(n, p, value_lo=lo, value_hi=hi, seed=seed)
            params = f"n={n} p={p} lo={lo} hi={hi} seed={seed}"
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)
    write_matrix_market(output, A, comments=[
        f"generator: {kind} {params}",
        f"toolkit: osbalance {__version__}",
    ])
    click.echo(f"wrote {A.n}x{A.n} matrix with {A.m} entries to {output}")


@main.command("stats")
@click.argument("matrix_file", type=click.Path())
@click.option("--eps", default=1e-2, show_default=True,
              help="Accuracy for the reported worst-case cycle bound.")
def cmd_stats(matrix_file, eps):
    """Print instance statistics and the worst-case cycle bound."""
    A = _load(matrix_file)
    st = stats(A)
    click.echo(f"n: {st.n}")
    click.echo(f"m: {st.m}")
    click.echo(f"kappa: {st.kappa}")
    click.echo(f"diameter: {st.diameter}")
    click.echo(f"strongly_connected: {st.strongly_connected}")
    click.echo(f"max_degree: {st.max_degree}")
    if st.strongly_connected:
        bound = theoretical_cycle_bound(st, eps)
        click.echo(f"cycle_bound[eps={eps}]: {bound.explicit}")
    else:
        click.echo("cycle_bound: withheld (not strongly connected)")


@main.command("verify")
@click.argument("matrix_file", type=click.Path())
@click.argument("scaling_file", type=click.Path())
@click.option("--eps", default=1e-6, show_default=True)
def cmd_verify(matrix_file, scaling_file, eps):
    """Exit 0 iff the scaling balances the matrix to tolerance eps."""
    A = _load(matrix_file)
    try:
        u = read_scaling(scaling_file)
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)
    if len(u) != A.n:
        click.echo(f"error: scaling has {len(u)} entries, matrix has {A.n}",
                   err=True)
        sys.exit(4)
    try:
        cert = imbalance(A, u)
    except ScalingOverflowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    click.echo(f"l1_gradient_norm: {cert.l1_gradient_norm}")
    click.echo(f"potential: {cert.potential}")
    click.echo(f"normalized: {cert.normalized}")
    sys.exit(0 if cert.normalized <= eps else 1)


def _parse_instance_spec(spec):
    if ":" not in spec:
        return spec, read_matrix_market(spec)
    kind, _, args = spec.partition(":")
    kw = {}
    if args:
        for item in args.split(","):
            key, _, val = item.partition("=")
            kw[key] = float(val) if "." in val or "e" in val else int(val)
    if kind == "kalantari":
        return spec, gen_kalantari(kw.get("k", 40))
    if kind == "salient":
        return spec, gen_salient(kw.get("n", 200), kw.get("s", 5),
                                 lo=kw.get("lo", 0.001), hi=kw.get("hi", 1.0),
                                 seed=kw.get("seed", 0))
    if kind == "random":
        return spec, gen_random_sparse(kw.get("n", 100), kw.get("p", 0.1),
                                       value_lo=kw.get("lo", 0.0),
                                       value_hi=kw.get("hi", 1.0),
                                       seed=kw.get("seed", 0))
    if kind == "file":
        return args, read_matrix_market(args)
    raise ParseError(f"unknown instance spec {spec!r}")


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
    try:
        name, A = _parse_instance_spec(instance_spec)
    except (OSError, ParseError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)
    names = [s.strip() for s in strategies.split(",") if s.strip()]
    with open(output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "strategy", "updates", "nonzeros",
                         "wall_nanos", "imbalance"])
        for i, sname in enumerate(names):
            cfg = SolverConfig(eps=eps, max_cycles=max_cycles,
                               strategy=_make_strategy(sname, seed + i),
                               check_every=sample_every)
            report = run(A, cfg)
            for sample in report.trajectory:
                writer.writerow([name, sname, sample.updates,
                                 sample.nonzeros, sample.wall_nanos,
                                 f"{sample.imbalance:.17g}"])
            if report.termination != "converged":
                click.echo(f"note: {sname} ended with {report.termination}",
                           err=True)
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
