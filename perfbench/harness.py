"""Measurement, checking and reporting for run.py.

Imported only after run.py has pinned the BLAS thread count and put the
checkout's src/ first on sys.path.
"""

import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import crbeam
from crbeam import pipeline
from crbeam.rbal import SolverConfig
from crbeam.verification import kkt_residuals

from checks import check_solve
from spans import Tracer
from workloads import WORKLOADS, instance_pool, make_instance

SETUP_REPEATS = 5
WARMUP_SWEEPS = 50
ALLOC_PASS_SWEEPS = 500  # the sweep loop allocates nothing that outlives a sweep
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import crbeam.pipeline, crbeam.verification
print(time.perf_counter() - t0)
"""
clock = time.perf_counter


@dataclass
class Solve:
    instance: object
    seconds: float
    result: object = None
    error: str | None = None
    certificate: str | None = None
    problems: tuple = ()

    @property
    def sweeps(self):
        report = self.result.solve_report if self.result is not None else None
        return report.iterations if report is not None else 0

    @property
    def ok(self):
        return self.error is None and not self.problems


def solve_once(instance, config):
    # looked up on the module so that a traced run sees the wrapper
    t0 = clock()
    try:
        result = pipeline.solve_scenario(instance.scenario, instance.channel, config)
    except Exception as exc:  # counted as a failed solve, the run goes on
        return Solve(instance, clock() - t0, error=f"{type(exc).__name__}: {exc}")
    return Solve(instance, clock() - t0, result)


def check(record, config):
    if record.error is None:
        record.certificate, problems = check_solve(
            record.instance, record.result, config.tol_violation
        )
        record.problems = tuple(problems)


def import_times(src):
    """Seconds to import crbeam in each of SETUP_REPEATS fresh interpreters."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def set_up(workload, seed, quick):
    """Draw the instance pool and warm up; repeated, the median is reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        pool = instance_pool(workload, seed, quick)
        warm = make_instance(workload, seed, len(pool), workload.quick_shape)
        pipeline.solve_scenario(warm.scenario, warm.channel, SolverConfig(max_iterations=WARMUP_SWEEPS))
        times.append(clock() - t0)
    return pool, times


def run_window(pool, cycle, seconds, config, tracer=None):
    """Solve the pool in order, whole cycles at a time, until `seconds` have passed.

    With a tracer, each instance is solved untraced and then traced; the
    sweep counts of the two must agree exactly.
    """
    plain, spanned = [], []
    start = clock()
    for i in itertools.count():
        instance = pool[i % len(pool)]
        plain.append(solve_once(instance, config))
        if tracer is not None:
            tracer.solve_id = i
            with tracer.installed():
                spanned.append(solve_once(instance, config))
        if (i + 1) % cycle == 0 and clock() - start >= seconds:
            break
    return plain, spanned, clock() - start


def alloc_pass(instance):
    """Peak tracemalloc MB of one solve capped at ALLOC_PASS_SWEEPS sweeps,
    and the slowdown tracemalloc causes on that same solve."""
    config = SolverConfig(max_iterations=ALLOC_PASS_SWEEPS)
    t0 = clock()
    pipeline.solve_scenario(instance.scenario, instance.channel, config)
    base = clock() - t0
    tracemalloc.start()
    try:
        t0 = clock()
        pipeline.solve_scenario(instance.scenario, instance.channel, config)
        slowed = clock() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6, slowed / base - 1.0


def metric(value, unit, n):
    return {"value": float(value), "unit": unit, "n": int(n)}


def end_to_end(records, wall, imports, setup_times, peak_mb):
    passed = sum(r.ok for r in records)
    return {
        "solve_s.p50": metric(statistics.median(r.seconds for r in records), "s", len(records)),
        "solves_per_s": metric(passed / wall, "1/s", passed),
        "setup_s": metric(
            statistics.median(imports) + statistics.median(setup_times), "s", len(setup_times)
        ),
        "peak_alloc_mb": metric(peak_mb, "MB", 1),
    }


def per_layer(tracer, spanned, plain, kkt_s):
    totals = tracer.totals()
    solves = len(spanned)
    sweeps = sum(r.sweeps for r in spanned)

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def mean(name, unit, self_time=False):
        """Mean seconds per call of the named span, in `unit`."""
        n, total, self_total = totals.get(name, [0, 0.0, 0.0])
        return metric(SCALE[unit] * (self_total if self_time else total) / n if n else 0.0, unit, n)

    def per_sweep(name):
        return metric(calls(name) / sweeps if sweeps else 0.0, "count", sweeps)

    results = [r.result for r in spanned if r.result is not None]
    checks = calls("reduction.check_degenerate")
    rbal_total = totals.get("rbal.solve", [0, 0.0, 0.0])[1]
    overhead = sum(r.seconds for r in spanned) / sum(r.seconds for r in plain) - 1.0
    return {
        "pipeline.self_ms": metric(1e3 * totals["pipeline.solve_scenario"][2] / solves, "ms", solves),
        "pipeline.setup_ms": metric(
            1e3 * statistics.fmean(r.setup_seconds for r in results), "ms", len(results)
        ),
        "feasibility.compute_p_low_us": mean("feasibility.compute_p_low", "us"),
        "feasibility.fixed_point_iters": metric(
            statistics.fmean(r.feasibility.iterations for r in results), "count", len(results)
        ),
        "reduction.check_degenerate_us": mean("reduction.check_degenerate", "us"),
        "reduction.degenerate_hit_ratio": metric(
            sum(r.degenerate for r in results) / checks if checks else 0.0, "ratio", checks
        ),
        "reduction.build_reduced_us": mean("reduction.build_reduced", "us"),
        "reduction.precompute_dual_us": mean("reduction.precompute_dual", "us"),
        "rbal.solve_s": mean("rbal.solve", "s"),
        "rbal.sweeps_per_solve": metric(sweeps / solves, "count", solves),
        "rbal.sweep_us": metric(1e6 * rbal_total / sweeps if sweeps else 0.0, "us", sweeps),
        "rbal.iterate_us": mean("rbal.iterate", "us"),
        "rbal.iterate_self_us": mean("rbal.iterate", "us", self_time=True),
        "rbal.prox_x_us": mean("rbal.prox_x", "us"),
        "rbal.prox_y_us": mean("rbal.prox_y", "us"),
        "rbal.prox_z_us": mean("rbal.prox_z", "us"),
        "rbal.prox_z_self_us": mean("rbal.prox_z", "us", self_time=True),
        "rbal.constraint_violation_us": mean("rbal.constraint_violation", "us"),
        "rbal.objective_value_us": mean("rbal.objective_value", "us"),
        "linalg.positive_cubic_root_us": mean("linalg.positive_cubic_root", "us"),
        "linalg.positive_cubic_root_calls_per_sweep": per_sweep("linalg.positive_cubic_root"),
        "linalg.monotone_scalar_root_calls_per_sweep": per_sweep("linalg.monotone_scalar_root"),
        "linalg.compact_svd_us": mean("linalg.compact_svd", "us"),
        "linalg.compact_svd_calls_per_solve": metric(calls("linalg.compact_svd") / solves, "count", solves),
        "linalg.null_space_basis_ms": mean("linalg.null_space_basis", "ms"),
        "recovery.extract_rank_one_ms": mean("recovery.extract_rank_one", "ms"),
        "recovery.extract_rank_one_self_ms": mean("recovery.extract_rank_one", "ms", self_time=True),
        "recovery.sensing_factor_ms": mean("recovery.sensing_factor", "ms"),
        "scenario.evaluate_sinr_us": mean("scenario.evaluate_sinr", "us"),
        "verification.kkt_residuals_ms": metric(1e3 * kkt_s, "ms", 1),
        "trace.overhead_ratio": metric(overhead, "ratio", solves),
    }


def time_kkt(record):
    """One kkt_residuals call on a solved instance: the certificate's cost."""
    t0 = clock()
    kkt_residuals(record.result.solution, record.instance.scenario, record.instance.channel)
    return clock() - t0


def run_workload(workload, seed, seconds, trace, quick, imports):
    """Set up, measure, check; returns (metrics, records, details)."""
    config = SolverConfig()
    pool, setup_times = set_up(workload, seed, quick)
    cycle = 1 if quick else len(workload.shapes)
    tracer = Tracer() if trace else None
    plain, spanned, wall = run_window(pool, cycle, 0.0 if quick else seconds, config, tracer)
    records = plain + spanned
    for record in records:
        check(record, config)
    details = {"window_s": wall, "import_s": imports, "setup_repeats_s": setup_times}

    if not trace:
        peak_mb, details["alloc_pass_overhead"] = alloc_pass(pool[0])
        return end_to_end(plain, wall, imports, setup_times, peak_mb), records, details

    for a, b in zip(plain, spanned):
        if a.sweeps != b.sweeps:
            b.problems += (f"sweeps did not repeat: {a.sweeps} untraced, {b.sweeps} traced",)
    solved = next((r for r in spanned if r.result is not None and r.result.solution is not None), None)
    kkt_s = time_kkt(solved) if solved is not None else 0.0
    details["span_totals"] = tracer.totals()
    details["spans"] = tracer.spans
    return per_layer(tracer, spanned, plain, kkt_s), records, details


def machine_notes(thread_vars):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in thread_vars},
    }


def print_workload(name, seed, metrics, records, details):
    failed = [r for r in records if not r.ok]
    sweeps = [r.sweeps for r in records]
    times = [r.seconds for r in records]
    imports = " ".join(f"{t:.3f}" for t in details["import_s"]) or "not timed"
    print(f"# workload {name} seed {seed}: {len(records)} solves in a {details['window_s']:.2f} s window,"
          f" {min(times):.3f}..{max(times):.3f} s and {min(sweeps)}..{max(sweeps)} sweeps per solve;"
          f" set-up s: imports {imports}, draws and warm-up "
          + " ".join(f"{t:.3f}" for t in details["setup_repeats_s"]))
    for key, m in metrics.items():
        print(f"{name:14s} {key:46s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")
    print(f"{name:14s} {'fail_ratio':46s} {len(failed) / len(records):14.6g} {'ratio':6s}"
          f" n={len(records)} ({len(failed)} of {len(records)} failed)")
    if "alloc_pass_overhead" in details:
        print(f"# {name}: tracemalloc pass ({ALLOC_PASS_SWEEPS}-sweep cap) ran"
              f" {100 * details['alloc_pass_overhead']:+.1f}% against the same solve untraced")
    for r in failed:
        print(f"# FAILED {name} instance {r.instance.index} ({r.instance.label}):"
              f" {r.error or '; '.join(r.problems)}")


def write_out(path, notes, args, runs):
    doc = {"machine": notes, "args": vars(args), "workloads": {}}
    for name, (metrics, records, details) in runs.items():
        doc["workloads"][name] = {
            "metrics": metrics,
            "solves": [
                {"index": r.instance.index, "label": r.instance.label, "seconds": r.seconds,
                 "iter_seconds": r.result.iter_seconds if r.result is not None else None,
                 "sweeps": r.sweeps, "certificate": r.certificate, "error": r.error,
                 "problems": list(r.problems)}
                for r in records
            ],
            **details,
        }
    Path(path).write_text(json.dumps(doc))


def self_check(contract, runs_by_trace):
    """Names, units and output checks the quick runs must produce."""
    wanted = {0: contract["end_to_end"], 1: contract["per_layer"]}
    problems = []
    for trace, runs in runs_by_trace.items():
        for name, (metrics, records, _) in runs.items():
            for entry in wanted[trace]:
                got = metrics.get(entry["name"])
                if got is None:
                    problems.append(f"{name} trace {trace}: metric {entry['name']} missing")
                elif got["unit"] != entry["unit"]:
                    problems.append(f"{name} trace {trace}: {entry['name']} unit {got['unit']} != {entry['unit']}")
            for r in records:
                if r.error is None and r.certificate is None:
                    problems.append(f"{name} trace {trace}: solve {r.instance.index} was not checked")
                elif not r.ok:
                    problems.append(f"{name} trace {trace}: solve {r.instance.index} failed")
    return problems


def main(args, root, src, thread_vars):
    """Run what the parsed arguments ask for; returns the exit code."""
    if Path(crbeam.__file__).resolve().parent != (src / "crbeam").resolve():
        print(f"perfbench: crbeam imported from {crbeam.__file__}, not {src}", file=sys.stderr)
        return 2
    imports = import_times(src) if args.quick or not args.trace else []
    notes = machine_notes(thread_vars)
    print("# machine " + " ".join(f"{k}={v}" for k, v in notes.items()))

    if args.quick:
        runs_by_trace = {
            trace: {
                name: run_workload(w, args.seed, 0.0, trace, True, imports)
                for name, w in WORKLOADS.items()
            }
            for trace in (0, 1)
        }
        for runs in runs_by_trace.values():
            for name, run in runs.items():
                print_workload(name, args.seed, *run)
        problems = self_check(json.loads((root / "BENCHMARK.json").read_text()), runs_by_trace)
        for p in problems:
            print(f"# SELF-CHECK {p}")
        print("# self-check " + ("failed" if problems else "passed"))
        return 1 if problems else 0

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; choose from"
              f" {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    runs = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, False, imports)
        for name in names
    }
    for name, run in runs.items():
        print_workload(name, args.seed, *run)
    if args.out:
        write_out(args.out, notes, args, runs)

    records = [r for _, recs, _ in runs.values() for r in recs]
    failed = sum(not r.ok for r in records)
    prefix = len(names) > 1
    metrics = {
        (f"{name}/{key}" if prefix else key): {"value": m["value"], "unit": m["unit"]}
        for name, (ms, _, _) in runs.items()
        for key, m in ms.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0
