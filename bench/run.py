"""osbalance benchmark: time-to-balance on fixed workloads, end to end and
per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from ``src``.

Load model: closed loop, one client.  Each invocation is one balancing
run in a fresh worker process (repeating runs in one process drifts), with
BLAS/OpenMP threads pinned to 1; the next starts only after the previous
one ends.  Invocations repeat until the next one would end after
``--seconds`` (at least 3 untraced, or 1 untraced + 1 traced, per run),
and every metric is the median over the invocations of the run.  Where
set-up takes only milliseconds, extra set-up-only invocations (stopped at
solver entry) add samples to the ``setup_s`` median.

Timings are rescaled to a fixed core speed.  On a shared host a core's
speed drifts by up to ~1.5x over seconds to minutes, which no number of
repetitions averages away.  The worker times a fixed pure-Python loop
every 20 ms (``SpeedProbe`` in worker.py, about 0.5% of the run, its own
time subtracted), and every time here is the wall time divided by the
probe's slowdown during that invocation (see ``slowdown``): the time the
run would have taken on a core where the loop takes PROBE_NOMINAL_NS, if
the run slows in proportion to the loop.
The raw wall-clock medians and the slowdowns are printed and recorded
alongside, and a run whose median slowdown exceeds SLOW_HOST is flagged.

Workload reasons and metric units come from ``BENCHMARK.json``; the rest
of each workload's definition, the span table and each metric's layer,
definition and the spans it reads are in ``registry.json``.

Inputs are generated by ``inputs.py`` from the seed (never by the
program's own generators) and recorded with n, m and sha256; generation
is outside every metric.  Every invocation passes a correctness gate:
the expected termination, the benchmark's own float64 imbalance of the
written scaling (<= eps, or equal to an independent class-sweep reference
for the fixed-budget workload), and a per-invocation deadline after which
the worker is killed.  A miss counts in ``failed``; nothing is dropped.

With ``--trace 1`` untraced and traced invocations alternate: the traced
ones wrap the program's layer boundaries (see ``tracer.py`` and the
``spans`` table of ``registry.json``) and give the per-layer metrics; the
untraced ones give ``trace.overhead_frac``.  An expected span that never
fired (or whose target the program no longer has) is printed as missing
and the metrics that read it are left out, never read as 0; so are
setup_s and ns_per_update if no solver entry point is found.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics; the full record (environment, inputs,
every invocation, quartiles, spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
HARD_LIMIT_S = 150.0   # a run (set-up included) ends well inside 180 s
DEADLINE_S = 60.0      # per invocation; the worker is killed after it
REL_TOL = 1e-9         # fixed-budget imbalance against the reference
# Timings are reported as wall time / slowdown, where slowdown is the
# probe loop's time during the invocation / PROBE_NOMINAL_NS.  The nominal
# value is the probe's typical thread CPU time on a 2-vCPU Xeon with
# Python 3.11; it fixes the unit, not the comparison of two runs.
PROBE_NOMINAL_NS = 150_000
PHASE_MARGIN_NS = 250_000_000
SLOW_HOST = 1.3
WORKER_THREADS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, inconsistent files)."""


def load_registry():
    """registry.json, with each workload's why and each metric's unit and
    direction filled in from BENCHMARK.json."""
    reg = json.loads((BENCH_DIR / "registry.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("workloads", "end_to_end", "per_layer"):
        entries = {e["name"]: e for e in bench[key]}
        names = set(reg[key]) - {"failed_frac"}  # not a bounded metric
        if set(entries) != names:
            raise BenchError(f"BENCHMARK.json {key} names differ from "
                             f"registry.json: {sorted(set(entries) ^ names)}")
        for name, entry in entries.items():
            reg[key][name].update((k, v) for k, v in entry.items()
                                  if k in ("why", "unit", "better"))
    return reg


# ---------------------------------------------------------------- environment

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment():
    def version(dist):
        from importlib import metadata
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
    }


# --------------------------------------------------------------------- inputs

def make_instance(spec, seed):
    if spec["kind"] == "ring":
        return inputs.ring(spec["k"], seed)
    return inputs.salient(spec["n"], spec["s"], seed)


def prepare_input(name, wl, seed):
    inst = make_instance(wl["instance"], seed)
    path = OUT_DIR / "inputs" / f"{name}-seed{seed}.mtx"
    path.parent.mkdir(parents=True, exist_ok=True)
    desc = inputs.write_instance(inst, path)
    back = inputs.read_instance(path)
    if not (back.n == inst.n and np.array_equal(back.rows, inst.rows)
            and np.array_equal(back.cols, inst.cols)
            and np.array_equal(back.vals, inst.vals)):
        raise BenchError(f"{path} does not read back as generated")
    desc["path"] = str(path.relative_to(ROOT))
    return inst, path, desc


def reference_imbalance(wl, inst):
    """Imbalance after the fixed budget, by the benchmark's own sweep."""
    if wl["expect"] != "max_cycles":
        return None
    colors = inputs.greedy_coloring(inst)
    return inputs.normalized_imbalance(
        inst, inputs.class_sweep(inst, colors, wl["max_cycles"]))


# ----------------------------------------------------------------- invocation

def invoke(reg, name, wl, matrix, traced, timeout, setup_only=False):
    """Run one worker; returns (result or None, wall seconds, error)."""
    tag = f"{name}-{'traced' if traced else 'plain'}"
    spec_path = OUT_DIR / f"{tag}.spec.json"
    result_path = OUT_DIR / f"{tag}.result.json"
    scaling = OUT_DIR / f"{name}.u"
    for stale in (result_path, scaling):
        stale.unlink(missing_ok=True)
    spec = {"root": str(ROOT), "mode": wl["mode"], "matrix": str(matrix),
            "scaling": str(scaling), "args": wl.get("args", []),
            "eps": wl["eps"], "max_cycles": wl.get("max_cycles"),
            "trace": traced, "setup_only": setup_only,
            "spans": reg["spans"]}
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **WORKER_THREADS_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path),
         str(result_path)], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"killed after {timeout:.0f} s"
    finally:
        if proc.poll() is None:  # deadline, or this process is exiting
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        return None, wall, f"worker exit {proc.returncode}: {' '.join(tail)}"
    return json.loads(result_path.read_text()), wall, None


def gate(wl, inst, ref, result, scaling):
    """Correctness of one invocation: (ok, reason, imbalance, u)."""
    rep = result["report"]
    if rep is None:
        return False, "the run gave no report", None, None
    if rep["termination"] != wl["expect"]:
        return False, f"termination {rep['termination']}", None, None
    if wl["mode"] == "cli" and result["exit_code"] != 0:
        return False, f"exit code {result['exit_code']}", None, None
    try:
        u = inputs.read_scaling(scaling, inst.n)
    except (OSError, ValueError) as exc:
        return False, f"scaling: {exc}", None, None
    imb = inputs.normalized_imbalance(inst, u)
    if ref is None:
        if not imb <= wl["eps"]:
            return False, f"imbalance {imb:.3e} > eps {wl['eps']}", imb, u
        return True, None, imb, u
    if rep["cycles"] != wl["max_cycles"] or \
            rep["updates"] != rep["cycles"] * inst.n:
        return False, (f"cycles {rep['cycles']} updates {rep['updates']}"
                       f" for n={inst.n}"), imb, u
    if not abs(imb - ref) <= REL_TOL * ref:
        return False, f"imbalance {imb!r} != reference {ref!r}", imb, u
    return True, None, imb, u


def cross_check_oracle(inst, u):
    """The benchmark's imbalance agrees with osbalance.imbalance."""
    sys.path.insert(0, str(ROOT / "src"))
    import osbalance
    A = osbalance.SparseNonnegMatrix(inst.n, inst.rows, inst.cols, inst.vals)
    theirs = osbalance.imbalance(A, u).normalized
    ours = inputs.normalized_imbalance(inst, u)
    return abs(theirs - ours) <= 1e-12 * max(abs(theirs), 1e-300), \
        {"benchmark": ours, "osbalance": theirs}


# -------------------------------------------------------------------- metrics

def slowdown(result, phase=None):
    """How much slower than nominal the core ran, from the 5%-trimmed mean
    of the probe loop's time: over the whole invocation, or for phase
    "setup" or "solver" over the samples taken within PHASE_MARGIN_NS of
    it (a host slowdown lasts a second or more; a phase can last ms)."""
    xs = result["probe_ns"]
    if phase is not None:
        start, entry, exit_, end = result["marks_ns"]
        lo, hi = (start, entry) if phase == "setup" else (entry, exit_)
        near = [x for x, t in zip(xs, result["probe_at_ns"])
                if lo - PHASE_MARGIN_NS <= t <= hi + PHASE_MARGIN_NS]
        xs = near if len(near) >= 3 else xs
    xs = sorted(xs)
    cut = len(xs) // 20
    probe = statistics.fmean(xs[cut:len(xs) - cut])
    return probe / PROBE_NOMINAL_NS


def end_to_end(result, rescale=True):
    """End-to-end metrics of one invocation; setup_s and ns_per_update
    are absent when no solver entry was marked."""
    def slow(phase=None):
        return slowdown(result, phase) if rescale else 1.0

    values = {"solve_s": result["solve_ns"] / 1e9 / slow(),
              "peak_rss_mb": result["peak_rss_mb"]}
    if result["setup_ns"] is not None:
        values["setup_s"] = result["setup_ns"] / 1e9 / slow("setup")
    if result["solver_ns"] is not None and result["report"]["updates"]:
        values["ns_per_update"] = (result["solver_ns"]
                                   / result["report"]["updates"]
                                   / slow("solver"))
    return values


def _div(a, b):
    return a / b if b else 0.0


def per_layer(reg, inst, result):
    """Per-layer metrics of one traced invocation.  Spans that never fired
    read as zero calls here; run() removes the metrics that depend on an
    expected span that is missing.  A value the trace could not give
    (kernel arguments or a captured attribute of unexpected shape) is
    None."""
    trace = result["trace"]
    stats = trace["stats"]
    rep = result["report"]
    updates = rep["updates"] or 0
    kernel_nnz = trace["kernel_nnz"]

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def total(name):
        return stats.get(name, (0, 0, 0))[1]

    def edge(parents, child, field):
        return sum(e[2 + field] for e in trace["edges"]
                   if e[0] in parents and e[1] == child)

    layer_self = {}
    for name, (_, _, self_ns) in stats.items():
        layer = reg["spans"][name]["layer"]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns

    kernel = "core.row_col_sums_at"
    drivers = ("solver.run", "parallel.run_parallel")
    refresh = ("solver.GreedyState.refresh", "solver.WeightedState.refresh")
    select_ns = sum(total(s) for s in ("solver.greedy_index",
                                       "solver.weighted_sample") + refresh)
    checks = edge(drivers, "core.imbalance", 0)
    read_self = stats.get("mmio.read_matrix_market", (0, 0, 0))[2]

    def captured(key, span):
        value = trace["captured"][key]
        if value is None:
            return None if calls(span) else 0
        return value

    def accounting_ratio():
        if not calls(kernel):
            return 0.0
        if kernel_nnz is None:
            return None
        return _div(kernel_nnz + inst.m * checks, rep["nonzeros"])
    values = {
        "mmio.read_s": read_self / 1e9,
        "mmio.read_ns_per_entry": read_self / inst.m,
        "mmio.write_s": total("mmio.write_scaling") / 1e9,
        "mmio.self_s": layer_self.get("mmio", 0) / 1e9,
        "core.build_s": total("core.build_matrix") / 1e9,
        "core.kernel_calls": calls(kernel),
        "core.kernel_ns_per_call": _div(total(kernel), calls(kernel)),
        "core.kernel_nnz": kernel_nnz,
        "core.imbalance_calls": calls("core.imbalance"),
        "core.imbalance_s": total("core.imbalance") / 1e9,
        "core.self_s": layer_self.get("core", 0) / 1e9,
        "instances.stats_s": total("instances.stats") / 1e9,
        "instances.self_s": layer_self.get("instances", 0) / 1e9,
        "solver.updates": updates,
        "solver.cycles": rep["cycles"] or 0,
        "solver.run_s": total("solver.run") / 1e9,
        "solver.update_ns": _div(total("solver.osborne_update"),
                                 calls("solver.osborne_update")),
        "solver.select_s": select_ns / 1e9,
        "solver.select_frac": _div(select_ns, total("solver.run")),
        "solver.select_kernel_calls_per_update":
            _div(edge(refresh, kernel, 0), updates),
        "solver.check_s": edge(drivers, "core.imbalance", 1) / 1e9,
        "solver.checks": checks,
        "solver.nnz_reported": rep["nonzeros"] or 0,
        "solver.nnz_accounting_ratio": accounting_ratio(),
        "solver.self_s": layer_self.get("solver", 0) / 1e9,
        "parallel.color_s": total("parallel.greedy_color") / 1e9,
        "parallel.colors": captured("colors", "parallel.greedy_color"),
        "parallel.run_s": total("parallel.run_parallel") / 1e9,
        "parallel.rounds": rep["rounds"] or 0,
        "parallel.ns_per_update": _div(total("parallel.run_parallel"),
                                       updates),
        "parallel.self_s": layer_self.get("parallel", 0) / 1e9,
        "lowbit.state_init_s": total("lowbit.LowbitState.__init__") / 1e9,
        "lowbit.update_ns": _div(total("lowbit.lowbit_update"),
                                 calls("lowbit.lowbit_update")),
        "lowbit.check_s": total("lowbit.inexact_terminate_check") / 1e9,
        "lowbit.checks": calls("lowbit.inexact_terminate_check"),
        "lowbit.frac_bits": captured("frac_bits",
                                     "lowbit.LowbitState.__init__"),
        "lowbit.overflows": captured("overflows",
                                     "lowbit.LowbitState.__init__"),
        "lowbit.self_s": layer_self.get("lowbit", 0) / 1e9,
        "cli.self_s": layer_self.get("cli", 0) / 1e9,
    }
    slow = slowdown(result)
    return {k: v / slow if v is not None and
            reg["per_layer"][k]["unit"] in ("s", "ns") else v
            for k, v in values.items()}


def summary(values):
    """Median, quartiles and count of a list of numbers."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "count": len(values)}


# ------------------------------------------------------------------------ run

def run(reg, name, seed, seconds, trace):
    """Measure one workload; returns the record written to bench/out."""
    run_start = time.perf_counter()
    wl = reg["workloads"][name]
    env = environment()
    load_before = os.getloadavg()[0]
    inst, matrix, desc = prepare_input(name, wl, seed)
    ref = reference_imbalance(wl, inst)

    kinds = [False, True] if trace else [False]
    min_count = 2 if trace else 3
    walls = {k: [] for k in kinds}
    invocations = []
    first_u = None
    window_start = time.perf_counter()
    while True:
        traced = kinds[len(invocations) % len(kinds)]
        now = time.perf_counter()
        est = max((statistics.median(w) for w in walls.values() if w),
                  default=0.0)
        if len(invocations) >= min_count and \
                now - window_start + est > seconds:
            break
        timeout = min(DEADLINE_S, run_start + HARD_LIMIT_S - now)
        if invocations and timeout < est + 1.0:
            break
        result, wall, error = invoke(reg, name, wl, matrix, traced, timeout)
        walls[traced].append(wall)
        record = {"traced": traced, "wall_s": wall, "ok": False,
                  "reason": error}
        if result is not None:
            ok, reason, imb, u = gate(wl, inst, ref, result,
                                      OUT_DIR / f"{name}.u")
            record.update(ok=ok, reason=reason, imbalance=imb,
                          slowdown=slowdown(result), result=result)
            if ok and first_u is None:
                first_u = u
        invocations.append(record)
    passed = [r for r in invocations if r["ok"]]
    plain = [r["result"] for r in passed if not r["traced"]]
    traced_runs = [r["result"] for r in passed if r["traced"]]
    # Set-up takes a few ms on some workloads; repeat it alone (stopping
    # at solver entry) so that its median rests on more samples.
    marked = bool(plain) and all(r["setup_ns"] is not None for r in plain)
    setups = []
    for _ in range(wl.get("setup_repeats", 0) if marked and not trace
                   else 0):
        timeout = min(DEADLINE_S, run_start + HARD_LIMIT_S
                      - time.perf_counter())
        if timeout < 1.0:
            break
        result, wall, error = invoke(reg, name, wl, matrix, False, timeout,
                                     setup_only=True)
        ok = result is not None and result["setup_ns"] is not None
        invocations.append({"traced": False, "setup_only": True,
                            "wall_s": wall, "ok": ok,
                            "reason": None if ok else
                            error or "solver never entered"})
        if ok:
            setups.append(result["setup_ns"] / 1e9
                          / slowdown(result, "setup"))
    window_s = time.perf_counter() - window_start

    oracle_ok, oracle = True, None
    if first_u is not None:
        oracle_ok, oracle = cross_check_oracle(inst, first_u)
    load_after = os.getloadavg()[0]

    e2e = [end_to_end(r) for r in plain]
    wall = [end_to_end(r, rescale=False) for r in plain]
    metrics, wall_metrics, missing = {}, {}, []
    for key in reg["end_to_end"]:
        if key == "failed_frac" or not e2e:
            continue
        if not all(key in v for v in e2e):
            missing.append(f"{key} (no solver entry point found)")
            continue
        extra = setups if key == "setup_s" else []
        metrics[key] = summary([v[key] for v in e2e] + extra)
        wall_metrics[key] = summary([v[key] for v in wall])
    slowdowns = [r["slowdown"] for r in invocations if "slowdown" in r]

    layers = {}
    unresolved = []
    spans = None
    if traced_runs:
        fired = set().union(*(r["trace"]["stats"] for r in traced_runs))
        unresolved = sorted(set().union(
            *(r["trace"]["unresolved"] for r in traced_runs)))
        lost = [s for s in wl["spans"] if s not in fired]
        missing += lost
        values = [per_layer(reg, inst, r) for r in traced_runs]
        if plain:
            untraced = statistics.median(
                end_to_end(r)["solve_s"] for r in plain)
            traced_med = statistics.median(
                r["solve_ns"] / 1e9 / slowdown(r) for r in traced_runs)
            for v in values:
                v["trace.overhead_frac"] = traced_med / untraced - 1.0
        for key, spec in reg["per_layer"].items():
            if set(spec["spans"]) & set(lost):
                continue
            column = [v.get(key) for v in values]
            if None in column:
                missing.append(f"{key} (not measurable from the trace)")
                continue
            layers[key] = summary(column)
        spans = traced_runs[0]["trace"]["spans"]
        for r in traced_runs:
            del r["trace"]["spans"]

    attempted = len(invocations)
    failed = sum(not r["ok"] for r in invocations)
    nproc = env["nproc"]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": wl["why"], "environment": env, "input": desc,
        "reference_imbalance": ref,
        "load": {"before": load_before, "after": load_after,
                 "over_nproc": max(load_before, load_after) > nproc},
        "slowdown": summary(slowdowns) if slowdowns else None,
        "window_s": window_s, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "oracle_cross_check": {"ok": oracle_ok, **(oracle or {})},
        "correct": failed == 0 and oracle_ok,
        "end_to_end": metrics, "end_to_end_wall": wall_metrics,
        "per_layer": layers, "missing": missing,
        "unresolved_targets": unresolved,
        "spans_first_traced": spans, "invocations": invocations,
    }


def print_record(reg, rec):
    env = rec["environment"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"
          f"  ({rec['attempted']} invocations in {rec['window_s']:.1f} s)")
    print(f"   why: {rec['why']}")
    inp = rec["input"]
    print(f"   input: {inp['path']} n={inp['n']} m={inp['m']} "
          f"sha256={inp['sha256']}")
    print(f"   env: commit {env['commit']} src {env['source_sha256'][:12]} "
          f"python {env['python']} numpy {env['numpy']} click {env['click']}"
          f" nproc {env['nproc']} cpu {env['cpu_model']} caches "
          + ", ".join(f"{k} {v}" for k, v in env["caches"].items()))
    load = rec["load"]
    flag = "  WARNING: load above nproc" if load["over_nproc"] else ""
    print(f"   load(1 min): {load['before']:.2f} -> {load['after']:.2f}{flag}")
    slow = rec["slowdown"]
    if slow is not None:
        flag = (f"  WARNING: host core ran more than {SLOW_HOST}x slower "
                f"than nominal" if slow["median"] > SLOW_HOST else "")
        print(f"   host slowdown (probe / nominal): median "
              f"{slow['median']:.3f}, q1 {slow['q1']:.3f} q3 "
              f"{slow['q3']:.3f}{flag}")
    for r in rec["invocations"]:
        if not r["ok"]:
            print(f"   FAILED invocation: {r['reason']}")
    if not rec["oracle_cross_check"]["ok"]:
        print(f"   FAILED oracle cross-check: {rec['oracle_cross_check']}")
    print(f"   failed_frac {rec['failed']}/{rec['attempted']} = "
          f"{rec['failed_frac']:.6g} ratio")
    for key, s in rec["end_to_end_wall"].items():
        if key != "peak_rss_mb":
            print(f"   wall {key:<35} {s['median']:>16.6f}"
                  f" {reg['end_to_end'][key]['unit']:<6} (not rescaled),"
                  f" q1 {s['q1']:.6g} q3 {s['q3']:.6g}")
    for group, table in (("end_to_end", rec["end_to_end"]),
                         ("per_layer", rec["per_layer"])):
        for key, s in table.items():
            unit = reg[group][key]["unit"]
            print(f"   {key:<40} {s['median']:>16.6f} {unit:<6}"
                  f" median of {s['count']}, q1 {s['q1']:.6g}"
                  f" q3 {s['q3']:.6g}")
    if rec["unresolved_targets"]:
        print("   unresolved trace targets (not in the program): "
              + ", ".join(rec["unresolved_targets"]))
    if rec["missing"]:
        print("   MISSING (expected, never measured): "
              + ", ".join(rec["missing"]))


def result_line(reg, rec):
    group = "per_layer" if rec["trace"] else "end_to_end"
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {k: {"value": s["median"],
                            "unit": reg[group][k]["unit"]}
                        for k, s in rec[group].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every workload "
                             "untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the finally clauses, so that a running worker is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "osbalance" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'osbalance'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    try:
        reg = load_registry()
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(reg["workloads"]) if args.workload == "all" \
        else [args.workload]
    if any(n not in reg["workloads"] for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(reg['workloads'])} or all", file=sys.stderr)
        return 2
    traces = (0, 1) if args.workload == "all" else (args.trace,)

    OUT_DIR.mkdir(exist_ok=True)
    records = []
    for name in names:
        for trace in traces:
            rec = run(reg, name, args.seed, args.seconds, trace)
            path = OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            path.write_text(json.dumps(rec, indent=1))
            print_record(reg, rec)
            records.append(rec)

    if len(records) == 1:
        line = result_line(reg, records[0])
    else:
        line = {"correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {f"{r['workload']}/{k}": v
                            for r in records
                            for k, v in result_line(reg, r)["metrics"].items()}}
        missing = [f"{r['workload']}:{s}" for r in records
                   for s in r["missing"]]
        print(f"== all: failed {line['failed']}/{line['attempted']}, "
              f"missing: {', '.join(missing) or 'none'}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
