"""One balancing invocation in a fresh interpreter.

Usage: python3 bench/worker.py SPEC.json RESULT.json

The spec names the checkout root, the mode ("cli": the in-process
``osbalance`` command line; "pipeline": the library calls read ->
greedy_color -> run_parallel -> write), its arguments, whether to trace,
and whether to stop at solver entry (a set-up-only invocation).  The
result holds the timestamps, the run's report, the peak RSS of this
process and, when traced, the tracer's dump.  The program is
imported from the checkout's ``src`` directory and never modified on
disk; wrappers are installed at the call sites only in this process.
"""

import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path

_now = time.perf_counter_ns

# Where each solver driver is looked up by its caller.  A thin wrapper
# there marks the end of set-up (solver entry) in every run, traced or not.
# Entries the program no longer has are skipped; if none is left, the
# mark never fires and set-up and solver times are reported as missing.
SOLVER_ENTRIES = ("osbalance.cli:run", "osbalance.cli:run_parallel",
                  "osbalance.cli:run_lowbit",
                  "osbalance.parallel:run_parallel")


class SpeedProbe:
    """Samples the speed of this core while the invocation runs.

    Every 20 ms a SIGALRM handler times a fixed pure-Python loop (about
    0.1 ms) in thread CPU time.  A shared host can slow a core by up to
    ~1.5x for periods from a second to minutes; the loop slows with it,
    so the parent can rescale the timings to a fixed core speed.  The
    handler's own wall time is recorded so it can be subtracted.
    """

    INTERVAL_S = 0.02
    LOOP = 2000

    def __init__(self):
        self.samples = []   # thread CPU ns of one loop
        self.spent = []     # (perf_counter_ns at entry, wall ns in handler)

    def sample(self, signum=None, frame=None):
        entry = _now()
        t = time.thread_time_ns()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i
        self.samples.append(time.thread_time_ns() - t)
        self.spent.append((entry, _now() - entry))

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def spent_between(self, start, end):
        return sum(d for t, d in self.spent if start <= t < end)


class SetupDone(Exception):
    """Raised at solver entry by a set-up-only invocation."""


class SolverMark:
    def __init__(self, setup_only):
        self.setup_only = setup_only
        self.entry = None
        self.exit = None

    def wrap(self, fn):
        def marked(*args, **kwargs):
            self.entry = _now()
            if self.setup_only:
                raise SetupDone
            result = fn(*args, **kwargs)
            self.exit = _now()
            return result
        return marked


def install_solver_mark(resolve, setup_only):
    """Wrap every solver entry the program has; returns the mark and the
    entries that were found."""
    mark = SolverMark(setup_only)
    found = []
    for target in SOLVER_ENTRIES:
        try:
            owner, attr = resolve(target)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            continue
        setattr(owner, attr, mark.wrap(fn))
        found.append(target)
    return mark, found


def peak_rss_mb():
    """High-water RSS of this process image.  ru_maxrss is not used: it
    also holds the parent's RSS at the time of the fork/exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_cli(spec, tracer):
    """`osbalance balance ... --json`; the report is the JSON line the
    command prints, so it does not depend on the program's internals."""
    from osbalance import cli
    argv = ["balance", spec["matrix"], *spec["args"], "--eps",
            repr(spec["eps"]), "--json", "-o", spec["scaling"]]
    code = None
    out = io.StringIO()
    start = _now()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                cli.main.main(args=argv, prog_name="osbalance")
            else:
                with tracer.span("cli.balance"):
                    cli.main.main(args=argv, prog_name="osbalance")
    except SystemExit as exc:
        code = exc.code
    except SetupDone:
        pass
    end = _now()
    report = None
    lines = out.getvalue().strip().splitlines()
    if lines and lines[-1].startswith("{"):
        rep = json.loads(lines[-1])
        report = {key: rep.get(key) for key in
                  ("termination", "updates", "cycles", "nonzeros")}
        report["rounds"] = None
    return start, end, code, report


def run_pipeline(spec, tracer):
    import osbalance.mmio
    import osbalance.parallel
    import osbalance.solver

    def pipeline():
        # Attribute lookups at call time, so installed wrappers apply.
        A = osbalance.mmio.read_matrix_market(spec["matrix"])
        coloring = osbalance.parallel.greedy_color(A)
        cfg = osbalance.solver.SolverConfig(eps=spec["eps"],
                                            max_cycles=spec["max_cycles"])
        report = osbalance.parallel.run_parallel(A, coloring, cfg, workers=1)
        osbalance.mmio.write_scaling(spec["scaling"], report.u_final)
        return report

    report = None
    start = _now()
    try:
        if tracer is None:
            report = pipeline()
        else:
            with tracer.span("bench.pipeline"):
                report = pipeline()
    except SetupDone:
        pass
    end = _now()
    if report is not None:
        report = {"termination": report.termination,
                  "updates": report.updates_used,
                  "cycles": report.cycles_used,
                  "nonzeros": report.nonzeros_touched,
                  "rounds": report.rounds_used}
    return start, end, 0, report


def _attr(obj, path):
    """obj.a.b for path "a.b", or None where any step is missing."""
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import osbalance  # noqa: F401  (imported before any timestamp)
    import tracer as tracing

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        for name, span in spec["spans"].items():
            for target in span.get("targets", ()):
                tracer.patch(target, name, coarse=span.get("coarse", False),
                             capture=span.get("capture"),
                             kernel=span.get("kernel", False))
    mark, entries = install_solver_mark(tracing.resolve, spec["setup_only"])
    if spec["setup_only"] and not entries:
        raise SystemExit("set-up-only invocation: no solver entry to stop at")

    run = run_cli if spec["mode"] == "cli" else run_pipeline
    probe = SpeedProbe()
    probe.start()
    try:
        start, end, code, report = run(spec, tracer)
    finally:
        probe.stop()
    probe.sample()  # at least one sample, even for a few-ms set-up

    def span(a, b):
        """Wall ns from a to b, less the probe's handler time inside."""
        if a is None or b is None:
            return None
        return b - a - probe.spent_between(a, b)

    result = {
        "exit_code": code,
        "solve_ns": span(start, end),
        "setup_ns": span(start, mark.entry),
        "solver_ns": span(mark.entry, mark.exit),
        "solver_entries": entries,
        "probe_ns": probe.samples,
        "probe_at_ns": [t for t, _ in probe.spent],
        "marks_ns": [start, mark.entry, mark.exit, end],
        "report": report,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
        coloring = tracer.captured.get("parallel.greedy_color")
        state = tracer.captured.get("lowbit.LowbitState.__init__")
        result["trace"]["captured"] = {
            "colors": _attr(coloring, "num_colors"),
            "frac_bits": _attr(state, "cfg.frac_bits"),
            "overflows": _attr(state, "ctx.overflows"),
        }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
