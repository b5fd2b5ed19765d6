"""Command-line front end.

Subcommands:

  estimate        run one Monte Carlo estimator and emit a JSON/CSV report
  verify          exact closed-form and completeness sweeps, exit 0/1
  table           CSV table of analytic fidelities
  teleport-demo   trace one full cut-then-teleport protocol run

Exit codes: 0 success, 1 statistical or residual failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction

from . import experiments
from .channel import full_protocol
from .fidelity import overlap_fidelity
from .haar import sample_state
from .povm import CutPovm, _max_completeness_deviation
from .rng import stream

_DECIMALS = 12


class _UsageError(Exception):
    """Bad command-line input: reported through the parser, exit code 2."""


def _checked(build, *args, **kwargs):
    """Call ``build`` on command-line values; a ValueError it raises is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _round(value):
    return None if value is None else round(float(value), _DECIMALS)


def _format_fraction(value: Fraction, places: int = _DECIMALS) -> str:
    with localcontext() as ctx:
        ctx.prec = 60
        quantum = Decimal(1).scaleb(-places)
        return str((Decimal(value.numerator) / Decimal(value.denominator)).quantize(quantum))


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)


def cmd_estimate(args) -> int:
    config = _checked(
        experiments.ExperimentConfig,
        n=args.n,
        m=args.m,
        r=args.r,
        mode=args.mode.replace("-", "_"),
        samples=args.samples,
        seed=args.seed,
        shards=args.shards,
    )
    if args.threads < 1:
        raise _UsageError("need at least one thread")
    if args.verify_bures and config.mode != "mixed":
        raise _UsageError("--verify-bures needs --mode mixed")
    start = time.perf_counter()
    estimate = experiments.run_experiment(config, threads=args.threads, verify_bures=args.verify_bures)
    elapsed = time.perf_counter() - start

    estimate_fields = {
        "mean": _round(estimate.mean),
        "stderr": _round(estimate.stderr),
        "samples": estimate.samples,
        "seed": estimate.seed,
    }
    if args.verify_bures:
        estimate_fields["bures_max_deviation"] = estimate.bures_max_deviation
    record = {
        "config": asdict(config),
        "estimate": estimate_fields,
        "analytic_target": _round(estimate.analytic_target),
        "z_score": _round(estimate.z_score),
        "wall_time_seconds": elapsed,
    }
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        flat = dict(record["config"])
        flat.update(record["estimate"])
        flat["analytic_target"] = record["analytic_target"]
        flat["z_score"] = record["z_score"]
        flat["wall_time_seconds"] = record["wall_time_seconds"]
        buffer.write(",".join(flat.keys()) + "\n")
        buffer.write(",".join(str(v) for v in flat.values()) + "\n")
        text = buffer.getvalue()
    _emit(text, args.output)
    return 0 if estimate.z_score is not None and abs(estimate.z_score) < 5.0 else 1


def _verify_checks(max_n: int, max_r: int):
    """Yield (name, tolerance, worst residual, worst case) for every sweep."""
    worst = lambda items: max(items, key=lambda t: t[0])

    residuals = [
        (experiments.relation_check(n, m, r), (n, m, r))
        for n in range(2, max_n + 1)
        for m in range(1, n)
        for r in range(1, max_r + 1)
    ]
    yield ("relation", 1e-14, *worst(residuals))

    residuals = [
        (experiments.composition_check(n, k, m, r), (n, k, m, r))
        for n in range(1, max_n + 1)
        for k in range(1, n + 1)
        for m in range(1, k + 1)
        for r in range(1, max_r + 1)
    ]
    yield ("composition", 1e-14, *worst(residuals))

    residuals = [
        (abs(experiments.exact_pure_via_moments(n, m) - experiments.analytic_pure(n, m)), (n, m))
        for n in range(1, max_n + 1)
        for m in range(1, n + 1)
    ]
    yield ("pure_moments", 1e-13, *worst(residuals))

    residuals = [
        (
            abs(
                experiments.exact_entangled_via_moments(n, m, r)
                - experiments.analytic_entangled(n, m, r)
            ),
            (n, m, r),
        )
        for n in range(1, max_n + 1)
        for m in range(1, n + 1)
        for r in range(1, max_r + 1)
    ]
    yield ("entangled_moments", 1e-13, *worst(residuals))

    residuals = [
        (abs(experiments.horodecki_bound(n, m) - experiments.analytic_pure(n, m)), (n, m))
        for n in range(1, max_n + 1)
        for m in range(1, n + 1)
    ]
    yield ("horodecki", 0.0, *worst(residuals))

    residuals = [
        (float(_max_completeness_deviation(n, m, cap=10**6)), (n, m))
        for n in range(1, max_n + 1)
        for m in range(1, n + 1)
    ]
    yield ("completeness", 1e-12, *worst(residuals))


def cmd_verify(args) -> int:
    if args.max_n < 2 or args.max_r < 1:
        raise _UsageError("verify needs --max-n >= 2 and --max-r >= 1")
    failed = False
    for name, tol, residual, case in _verify_checks(args.max_n, args.max_r):
        ok = residual <= tol
        failed = failed or not ok
        status = "PASS" if ok else f"FAIL at {case}"
        print(f"{name:<20} max_residual={residual:.3e} tol={tol:.1e} {status}")
    print("verify:", "FAIL" if failed else "PASS")
    return 1 if failed else 0


def cmd_table(args) -> int:
    if args.n_max < 1 or args.r < 1:
        raise _UsageError("table needs --n-max >= 1 and --r >= 1")
    lines = ["n,m,r,fidelity"]
    for n in range(1, args.n_max + 1):
        for m in range(1, n + 1):
            if args.what == "fidelity":
                value = experiments.entangled_fidelity_fraction(n, m, args.r)
            else:
                value = experiments.state_estimation_fraction(n, m)
            lines.append(f"{n},{m},{args.r},{_format_fraction(value)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_teleport_demo(args) -> int:
    _checked(CutPovm, args.n, args.m)
    rng = _checked(stream, args.seed)
    state = sample_state(args.n, rng)
    run = full_protocol(state, args.m, rng)
    relabel = ", ".join(f"{level}<-{basis}" for level, basis in enumerate(run.outcome.subset.indices))
    teleport_fid = overlap_fidelity(run.outcome.post_state, run.final_state)
    print(f"n={args.n} m={args.m} seed={args.seed}")
    print(f"subset={run.outcome.subset.indices}")
    print(f"relabel=[{relabel}]")
    print(f"message_a={run.message.a}")
    print(f"message_b={run.message.b}")
    print(f"outcome_probability={run.outcome.probability:.{_DECIMALS}f}")
    print(f"cut_fidelity={run.outcome.shot_fidelity:.{_DECIMALS}f}")
    print(f"teleport_fidelity={teleport_fid:.{_DECIMALS}f}")
    print(f"end_to_end_fidelity={run.end_to_end_fidelity:.{_DECIMALS}f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcut",
        description="Approximate storage/teleportation of N-dimensional states through M-dimensional channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run a Monte Carlo fidelity estimator")
    est.add_argument("--n", type=int, required=True)
    est.add_argument("--m", type=int, required=True)
    est.add_argument("--r", type=int, default=1)
    est.add_argument(
        "--mode",
        required=True,
        choices=["pure", "entangled", "mixed", "state-estimation"],
    )
    est.add_argument("--samples", type=int, required=True)
    est.add_argument("--seed", type=int, default=None)
    est.add_argument("--format", choices=["json", "csv"], default="json")
    est.add_argument("--verify-bures", action="store_true")
    est.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    est.add_argument("--shards", type=int, default=experiments.DEFAULT_SHARDS)
    est.add_argument("--output", default=None)
    est.set_defaults(func=cmd_estimate)

    ver = sub.add_parser("verify", help="run the exact verification sweeps")
    ver.add_argument("--max-n", type=int, default=12)
    ver.add_argument("--max-r", type=int, default=6)
    ver.set_defaults(func=cmd_verify)

    tab = sub.add_parser("table", help="emit analytic fidelity tables as CSV")
    tab.add_argument("--n-max", type=int, required=True)
    tab.add_argument("--r", type=int, default=1)
    tab.add_argument("--what", choices=["fidelity", "state-estimation"], default="fidelity")
    tab.add_argument("--output", default=None)
    tab.set_defaults(func=cmd_table)

    demo = sub.add_parser("teleport-demo", help="trace one protocol run")
    demo.add_argument("--n", type=int, required=True)
    demo.add_argument("--m", type=int, required=True)
    demo.add_argument("--seed", type=int, default=None)
    demo.set_defaults(func=cmd_teleport_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _checked(int, os.environ.get("QCUT_SEED", "0"))
        return args.func(args)
    except _UsageError as err:
        parser.error(str(err))


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
