"""qcut benchmark: one workload per process, closed loop, one caller.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload estimate-small --seed 1 --seconds 30 --trace 0

Imports qcut from the checkout's ``src/`` and drives it only through
``qcut.cli.main([...])``.  With ``--trace 0`` it measures set-up time in
fresh processes, runs one warm-up cycle of the workload, then repeats
whole cycles until ``--seconds`` have passed and prints the end-to-end
metrics.  With ``--trace 1`` it alternates an untraced cycle and a traced
copy of it (same inputs) and prints the per-layer metrics from the spans,
per cycle, with the tracing overhead.  Every operation's output is
checked.  Results go to ``BENCH_<workload>[.trace].json`` at the checkout
root; the last line of standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

SETUP_PROBES = 5
CLOCK_TICKS_AROUND_PROBE = 3
ACCURACY = 1e-4


def import_checkout():
    """Import qcut from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "qcut" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcut package under {src}")
    sys.path.insert(0, str(src))
    import qcut
    import qcut.cli

    if src.resolve() not in Path(qcut.__file__).resolve().parents:
        raise SystemExit(f"error: qcut imported from {qcut.__file__}, not from {src}")
    return qcut


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Result:
    """One operation: its wall time, its calibrated time and its check."""

    __slots__ = ("op", "start", "wall", "cal", "problem", "record")

    def __init__(self, op, start, wall, problem, record):
        self.op, self.start, self.wall = op, start, wall
        self.cal = wall
        self.problem, self.record = problem, record


def execute(cli, op) -> Result:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        wall = time.perf_counter() - start
        problem = "raised " + traceback.format_exc().strip().splitlines()[-1]
        return Result(op, start, wall, problem, None)
    wall = time.perf_counter() - start
    problem, record = workloads.check(op, rc, out.getvalue())
    return Result(op, start, wall, problem, record)


def run_cycle(cli, ops, clock: Clock | None) -> list[Result]:
    results = []
    single = {}
    for op in ops:
        result = execute(cli, op)
        if clock is not None and (op.clock == "array" or op.kind != "teleport"):
            # not inside a run of short teleports, which would then start cold
            clock.tick()
        if op.kind == "estimate" and result.record is not None:
            if op.threads == 1:
                single[op.config.key] = result.record
            elif _estimate_bits(result.record) != _estimate_bits(single.get(op.config.key)):
                result.problem = f"{op.threads}-thread estimate differs from the 1-thread one"
        if result.problem:
            print(f"FAILED {' '.join(op.argv)}: {result.problem}", file=sys.stderr)
        results.append(result)
    return results


def _estimate_bits(record):
    # The report carries the mean and stderr rounded to 12 decimals; all of
    # it must match between thread counts.
    if record is None:
        return None
    return (record["estimate"], record["z_score"], record["analytic_target"])


def pooled_problems(results) -> list[str]:
    """Pool the 1-thread estimates of each config over the run and require
    |z| < Z_LIMIT for the pooled mean too, which catches a bias too small
    for the per-call gate.  Calls of a config have equal sample counts and
    independent seeds."""
    problems = []
    for key in sorted({r.op.key for r in results if r.op.kind == "estimate" and r.op.threads == 1}):
        calls = [r for r in results if r.op.key == key and r.record]
        if not calls:
            continue
        target = float(calls[0].op.config.target())
        mean = statistics.fmean(r.record["estimate"]["mean"] for r in calls)
        stderr = math.sqrt(sum(r.record["estimate"]["stderr"] ** 2 for r in calls)) / len(calls)
        z = (mean - target) / stderr if stderr > 0 else (0.0 if mean == target else math.inf)
        if not abs(z) < workloads.Z_LIMIT:
            problems.append(f"{key}: pooled mean {mean} over {len(calls)} calls has |z| = {abs(z):.1f}")
    return problems


def measure_setup(plan_name: str, seed: int) -> tuple[list[float], list[float], int]:
    """Wall and calibrated times of fresh processes that import qcut and
    make the first call of each config, and how many of them failed."""
    walls, cals, failed = [], [], 0
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", plan_name, "--seed", str(seed)]
    clock = Clock()
    for _ in range(SETUP_PROBES):
        for _ in range(CLOCK_TICKS_AROUND_PROBE):
            clock.tick(force=True)
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        end = time.perf_counter()
        for _ in range(CLOCK_TICKS_AROUND_PROBE):
            clock.tick(force=True)
        walls.append(end - start)
        cals.append((end - start) * clock.factor("blend", start, end))
        if proc.returncode != 0:
            failed += 1
            sys.stderr.write(proc.stderr)
    return walls, cals, failed


def setup_probe(plan, seed: int) -> int:
    qcut = import_checkout()
    first = {}
    for op in workloads.cycle_ops(plan, seed, 0, nproc()):
        first.setdefault(op.key, op)
    results = run_cycle(qcut.cli, list(first.values()), None)
    return 1 if any(r.problem for r in results) else 0


def _median(values):
    return statistics.median(values) if values else 0.0


def parallel_speedups(results) -> list[float]:
    """1-thread over nproc-thread wall time for every pair.

    A pair runs the same config and seed back to back, so the machine's
    speed cancels; whether the other CPUs are busy does not (the ratio
    read 0.95-0.98 in one set of runs and 0.66-0.70 in another on the
    same code), so this is a per-layer figure, not a bounded one.
    """
    single_wall = {}
    speedups = []
    for r in results:
        if r.op.kind != "estimate" or r.problem:
            continue
        if r.op.threads == 1:
            single_wall[r.op.key] = r.wall
        elif r.op.config.key in single_wall:
            speedups.append(single_wall[r.op.config.key] / r.wall)
    return speedups


def end_to_end(results, setup_times, seconds) -> tuple[dict, dict]:
    """The end-to-end metrics and the detail that goes with them.

    ``seconds(result)`` gives an operation's duration: calibrated or wall.
    """
    metrics, detail = {}, {}
    metrics["setup_s"] = (_median(setup_times), "s")

    estimates = [r for r in results if r.op.kind == "estimate" and r.op.threads == 1 and r.record]
    for mode, suffix in workloads.MODES.items():
        rates = [r.op.config.samples / seconds(r) for r in estimates if r.op.config.mode == mode]
        metrics[f"samples_per_s.{suffix}"] = (_median(rates), "1/s")

    # Per config: typical wall per call times (pooled stderr / 1e-4)^2.
    # Every call of a config draws the same number of samples, so the mean
    # of stderr^2 over calls is the pooled value.
    to_accuracy = 0.0
    for key in sorted({r.op.key for r in estimates}):
        calls = [r for r in estimates if r.op.key == key]
        stderr_sq = statistics.fmean(r.record["estimate"]["stderr"] ** 2 for r in calls)
        cost = _median([seconds(r) for r in calls]) * stderr_sq / ACCURACY**2
        detail[f"time_to_1e-4_s[{key}]"] = cost
        to_accuracy += cost
    metrics["time_to_1e-4_s"] = (to_accuracy, "s")

    speedups = parallel_speedups(results)
    detail["parallel_speedup"] = _median(speedups)
    detail["parallel_pairs"] = len(speedups)

    # Rate and latency percentiles are taken within each cycle, whose mix of
    # channel sizes is exact, and the median over cycles is reported: a
    # pooled p90 moved by 15-25% between runs of the same code, as a few
    # slow stretches of a shared machine decide which calls land beyond it.
    cycles: dict[int, list[float]] = {}
    for r in results:
        if r.op.kind == "teleport":
            cycles.setdefault(r.op.cycle, []).append(seconds(r) * 1e3)
    protocol = [v for values in cycles.values() for v in values]
    metrics["protocols_per_s"] = (_median([len(v) / (sum(v) / 1e3) for v in cycles.values()]), "1/s")
    for name, q in (("protocol_ms_p50", 50), ("protocol_ms_tail", workloads.TAIL_PERCENTILE)):
        metrics[name] = (_median([spans.percentile(v, q) for v in cycles.values()]), "ms")
    tail = metrics["protocol_ms_tail"][0]
    detail["protocol_calls"] = len(protocol)
    detail["protocol_cycles"] = len(cycles)
    detail["protocol_ms_tail_percentile"] = workloads.TAIL_PERCENTILE
    detail["protocol_calls_beyond_tail"] = sum(1 for v in protocol if v > tail)
    detail["protocol_ms_tail_pooled"] = spans.percentile(protocol, workloads.TAIL_PERCENTILE)

    verify = [seconds(r) * 1e3 for r in results if r.op.kind == "verify"]
    metrics["verify_ms_p50"] = (_median(verify), "ms")
    detail["verify_calls"] = len(verify)

    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, detail


def environment(qcut, seed: int) -> dict:
    import numpy

    return {
        "qcut_file": qcut.__file__,
        "qcut_version": qcut.__version__,
        "numpy_version": numpy.__version__,
        "python_version": platform.python_version(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    plan = workloads.PLANS[args.workload]
    if args.setup_probe:
        return setup_probe(plan, args.seed)

    qcut = import_checkout()
    cli = qcut.cli
    threads = nproc()
    if args.trace:
        setup_walls, setup_cals, probe_failures = [], [], 0
    else:
        setup_walls, setup_cals, probe_failures = measure_setup(plan.name, args.seed)

    clock = Clock()
    warmup = run_cycle(cli, workloads.cycle_ops(plan, args.seed, 0, threads), clock)
    measured, traced = [], []
    tracer = spans.Tracer() if args.trace else None
    first_cycle_spans = 0
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < args.seconds:
        cycle += 1
        ops = workloads.cycle_ops(plan, args.seed, cycle, threads)
        measured += run_cycle(cli, ops, clock)
        if tracer is not None:
            tracer.install()
            try:
                traced += run_cycle(cli, ops, clock)
            finally:
                tracer.remove()
            first_cycle_spans = first_cycle_spans or len(tracer.spans)
    elapsed = time.perf_counter() - start
    for r in measured + traced:
        r.cal = r.wall * clock.factor(r.op.clock, r.start, r.start + r.wall)

    every = warmup + measured + traced
    pooled = pooled_problems(measured)
    for problem in pooled:
        print(f"FAILED {problem}", file=sys.stderr)
    checks = len({r.op.key for r in measured if r.op.kind == "estimate" and r.op.threads == 1})
    attempted = len(every) + len(setup_walls) + checks
    failed = sum(1 for r in every if r.problem) + probe_failures + len(pooled)
    report = {
        "workload": plan.name,
        "trace": args.trace,
        "environment": environment(qcut, args.seed),
        "cycles": cycle,
        "measured_seconds": elapsed,
        "speed_factor": {kind: clock.run_factor(kind) for kind in ("interp", "array")},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
    }

    if tracer is None:
        metrics, detail = end_to_end(measured, setup_cals, lambda r: r.cal)
        raw, _ = end_to_end(measured, setup_walls, lambda r: r.wall)
        report["detail"] = detail
        report["setup_runs_wall_s"] = setup_walls
        report["wall_metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in raw.items()}
    else:
        problems = spans.coverage_problems(tracer.spans, plan.layers)
        if problems:
            for problem in problems:
                print(f"trace coverage: {problem}", file=sys.stderr)
            return 1
        speed = (clock.run_factor("interp") * clock.run_factor("array")) ** 0.5
        metrics = spans.analyse(tracer.spans, cycle, speed)
        untraced = sum(r.cal for r in measured)
        metrics["experiments.parallel_speedup"] = (_median(parallel_speedups(measured)), "ratio")
        metrics["trace.rate_ratio"] = (untraced / sum(r.cal for r in traced), "ratio")
        metrics["trace.spans"] = (len(tracer.spans) / cycle, "count")
        report["computed"] = list(spans.COMPUTED)
        spans_path = ROOT / f"BENCH_{plan.name}.spans.json"
        with open(spans_path, "w") as handle:
            json.dump([s.as_list() for s in tracer.spans[:first_cycle_spans]], handle)
        report["spans_file"] = spans_path.name

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if {(m["name"], m["unit"]) for m in declared} != {(n, u) for n, (_, u) in metrics.items()}:
        print("error: metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    suffix = ".trace" if args.trace else ""
    with open(ROOT / f"BENCH_{plan.name}{suffix}.json", "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    for name, (value, unit) in metrics.items():
        note = " (computed)" if name in spans.COMPUTED else ""
        print(f"{name:32} {value:14.6g} {unit}{note}")
    if tracer is None:
        print(f"{'protocol_ms_tail':32} is the median over {detail['protocol_cycles']} cycles of "
              f"p{workloads.TAIL_PERCENTILE}; {detail['protocol_calls_beyond_tail']} of "
              f"{detail['protocol_calls']} calls lie beyond it")
    print(f"{'error_rate':32} {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
