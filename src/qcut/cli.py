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
import contextlib
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from decimal import Decimal, localcontext

import numpy as np

from . import experiments
from .channel import full_protocol
from .fidelity import overlap_fidelity
from .haar import sample_state
from .povm import ENUMERATION_CAP, CutPovm, _max_completeness_deviation
from .rng import stream

_DECIMALS = 12
# Cases of a row that ``verify`` checks in one call: the row's arrays hold
# at most this many, whatever --max-r is.  Past 2^53 a block holds Python
# ints; `verify --max-n 2 --max-r 250000` peaked at 33 MB RSS in blocks of
# 2^12 (1.2-1.6 s) and at 48 MB in blocks of 2^15 (1.5-1.9 s) on a 2-CPU
# Xeon.
CASE_BLOCK = 2**12


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


def _format_ratio(numerator: int, denominator: int, places: int = _DECIMALS) -> str:
    """numerator / denominator, rounded half-even to ``places`` decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        quantum = Decimal(1).scaleb(-places)
        return str((Decimal(numerator) / Decimal(denominator)).quantize(quantum))


def _emit(lines, path: str | None):
    """Write each of ``lines`` to ``path`` (if given) and to stdout as it comes,
    so a generator of lines is never held whole."""
    with open(path, "w") if path else contextlib.nullcontext() as handle:
        for line in lines:
            if handle:
                handle.write(line)
            sys.stdout.write(line)


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
    if args.check_bures and args.mode != "mixed":
        raise _UsageError("the Bures check needs mode mixed")
    _checked(experiments.check_run, config, args.threads)
    start = time.perf_counter()
    estimate = experiments.run_experiment(config, threads=args.threads)
    elapsed = time.perf_counter() - start

    estimate_fields = {
        "mean": _round(estimate.mean),
        "stderr": _round(estimate.stderr),
        "samples": estimate.samples,
        "seed": estimate.seed,
    }
    if estimate.bures_max_deviation is not None:
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
    _emit((text,), args.output)
    return 0 if estimate.z_score is not None and abs(estimate.z_score) < 5.0 else 1


def _expand(heads: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each row of ``heads`` followed by each of 1 .. its count, in order."""
    rows = np.repeat(heads, counts, axis=0)
    firsts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.column_stack((rows, np.arange(1, len(rows) + 1) - firsts))


def _case_blocks(heads: np.ndarray, max_r: int):
    """Every case head + (r,), r = 1 .. max_r innermost, in sweep order, as
    (len(head) + 1, count) int64 arrays of at most CASE_BLOCK cases; with
    max_r = 0, the heads alone."""
    inner = max(max_r, 1)
    count = len(heads) * inner
    for start in range(0, count, CASE_BLOCK):
        head, r = np.divmod(np.arange(start, min(start + CASE_BLOCK, count)), inner)
        yield np.vstack((heads[head].T, r + 1)) if max_r else heads[head].T


def _first_worst(check, heads: np.ndarray, max_r: int):
    """(worst residual, its case) of ``check`` over the cases of
    ``_case_blocks(heads, max_r)``, one call per block: the first case of
    the largest residual in sweep order, since a block's argmax is its
    first largest and a later block replaces it only by a larger one."""
    worst = case = None
    for cases in _case_blocks(heads, max_r):
        residuals = check(*cases)
        at = int(np.argmax(residuals))
        if worst is None or residuals[at] > worst:
            worst, case = float(residuals[at]), tuple(int(v) for v in cases[:, at])
    return worst, case


def _gap(route, closed_form):
    """The residual |route - closed form| of a check, case by case."""
    return lambda *case: abs(route(*case) - closed_form(*case))


def _verify_checks(max_n: int, max_r: int):
    """Yield (name, tolerance, worst residual, worst case) for every sweep.

    Every row runs on arrays of cases, one call per block of at most
    CASE_BLOCK of them, and reports the first worst case in sweep order.
    The completeness row reads the exact ratios of one counting pass,
    made before the first row.
    """
    worst, norms = _max_completeness_deviation(max_n)
    # The case heads in sweep order: (N, M) with M <= N or M < N, and (N, K, M).
    dims = np.arange(1, max_n + 1)
    pairs = _expand(dims[:, None], dims)
    pure, entangled = experiments.analytic_pure, experiments.analytic_entangled
    rows = (
        ("relation", 1e-14, experiments.relation_check, _expand(dims[:, None], dims - 1), max_r),
        ("composition", 1e-14, experiments.composition_check, _expand(pairs, pairs[:, 1]), max_r),
        ("pure_moments", 1e-13, _gap(experiments.exact_pure_via_moments, pure), pairs, 0),
        ("entangled_moments", 1e-13, _gap(experiments.exact_entangled_via_moments, entangled), pairs, max_r),
        ("horodecki", 0.0, _gap(experiments.horodecki_bound, pure), pairs, 0),
        ("completeness", 1e-12, lambda n, m: worst[n, m] / norms[n, m], pairs, 0),
    )
    for name, tol, check, heads, aux in rows:
        yield (name, tol, *_first_worst(check, heads, aux))


def cmd_verify(args) -> int:
    if args.max_n < 2 or args.max_r < 1:
        raise _UsageError("verify needs --max-n >= 2 and --max-r >= 1")
    widest = math.comb(args.max_n, args.max_n // 2)
    if widest > ENUMERATION_CAP:
        raise _UsageError(
            f"verify --max-n {args.max_n} would enumerate {widest} subsets, "
            f"above the enumeration cap {ENUMERATION_CAP}"
        )
    # The composition row, the widest, visits C(max_n + 2, 3) (n, k, m) per r.
    cases = math.comb(args.max_n + 2, 3) * args.max_r
    if cases > ENUMERATION_CAP:
        raise _UsageError(
            f"verify --max-n {args.max_n} --max-r {args.max_r} would check {cases} "
            f"composition cases, above the enumeration cap {ENUMERATION_CAP}"
        )
    failed = False
    for name, tol, residual, case in _verify_checks(args.max_n, args.max_r):
        ok = residual <= tol
        failed = failed or not ok
        status = "PASS" if ok else f"FAIL at {case}"
        print(f"{name:<20} max_residual={residual:.3e} tol={tol:.1e} {status}")
    print("verify:", "FAIL" if failed else "PASS")
    return 1 if failed else 0


def _table_lines(n_max: int, r: int, what: str):
    yield "n,m,r,fidelity\n"
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            if what == "fidelity":
                ratio = experiments._fidelity_ratio(n, m, r)
            else:
                ratio = experiments._state_estimation_ratio(n, m)
            yield f"{n},{m},{r},{_format_ratio(*ratio)}\n"


def cmd_table(args) -> int:
    if args.n_max < 1 or args.r < 1:
        raise _UsageError("table needs --n-max >= 1 and --r >= 1")
    if args.what == "state-estimation" and args.r != 1:
        raise _UsageError("table --what state-estimation needs --r 1")
    # Each row is written as soon as it is formatted, so memory does not
    # grow with the table's N_max (N_max + 1) / 2 rows.
    _emit(_table_lines(args.n_max, args.r, args.what), args.output)
    return 0


def cmd_teleport_demo(args) -> int:
    _checked(CutPovm, args.n, args.m)
    # The run holds three n-level states: the input, the cut and the re-embedded one.
    _checked(experiments.check_memory, 3 * args.n, "teleport-demo")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it costs more than a short command (argparse queries the
    terminal size for every argument).  Reusing it is safe: ``parse_args``
    returns a fresh namespace each call and every default is immutable.
    """
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
    est.add_argument("--verify-bures", dest="check_bures", action="store_true", help="implied in mixed mode")
    est.add_argument("--threads", type=int, default=1)
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
