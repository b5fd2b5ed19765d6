"""Workload plans for the qcut benchmark and the correctness gate of each operation.

Every workload is a closed loop with one caller.  It repeats a *cycle* of
operations, each one a call of ``qcut.cli.main([...])``, the documented
surface.  A cycle holds all four operation kinds (estimate, the
1-thread/nproc-thread estimate pair, teleport-demo and verify), because
every end-to-end metric is reported on every workload; the sizes and the
share of time each kind gets are what set a workload apart:

  estimate-small  the ROADMAP baseline configs, where per-shot Python in
                  ``povm`` dominates and the mixed leg spends its time in
                  ``linalg`` and ``fidelity`` (the Bures check)
  estimate-wide   wide states, which move work into ``haar`` and the
                  array operations, with the thread pair on both configs
  protocol        teleport-demo over a fixed mix of channel sizes up to
                  M = 48, where the cached M^4 Bell tensor dominates, plus
                  verify at the default sweep

Within a cycle the proportions are exact, so the p50 and p90 of a cycle's
teleport-demo latencies land at fixed ranks inside one channel size class
(never on a class boundary); the benchmark reports their medians over the
measured cycles.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from spans import LAYERS

# At M >= 16 the Bell-tensor einsum is 96-100% of a teleport-demo call, so
# its time follows the machine's array speed rather than interpreter speed.
ARRAY_CLOCK_MIN_M = 16
Z_LIMIT = 5.0
TELEPORT_TOL = 1e-10
TAIL_PERCENTILE = 90

MODES = {
    # cli --mode value -> metric suffix
    "pure": "pure",
    "entangled": "entangled",
    "mixed": "mixed_bures",
    "state-estimation": "state_estimation",
}


@dataclass(frozen=True)
class EstimateConfig:
    mode: str
    n: int
    m: int
    r: int
    samples: int

    @property
    def key(self) -> str:
        return f"{self.mode}({self.n},{self.m},{self.r})"

    def argv(self, seed: int, threads: int) -> list[str]:
        argv = ["estimate", "--n", str(self.n), "--m", str(self.m), "--r", str(self.r),
                "--mode", self.mode, "--samples", str(self.samples), "--seed", str(seed),
                "--threads", str(threads)]
        if self.mode == "mixed":
            argv.append("--verify-bures")
        return argv

    def target(self) -> Fraction:
        """Closed form, computed here independently of the program."""
        n, m, r = self.n, self.m, self.r
        if self.mode == "state-estimation":
            return Fraction(m + 1, m * (n + 1))
        return Fraction(m * r + 1, n * r + 1)


@dataclass(frozen=True)
class Plan:
    """One workload: the operations of a cycle and the layers they must reach."""

    name: str
    estimates: tuple[EstimateConfig, ...]
    pairs: tuple[str, ...]  # keys of the estimate configs also run at nproc threads
    channel_sizes: tuple[tuple[int, int], ...]  # (M, calls per cycle)
    verifies: int
    layers: tuple[str, ...]
    estimate_rounds: int = 1  # times each estimate config runs per cycle


@dataclass(frozen=True)
class Op:
    kind: str  # "estimate", "teleport" or "verify"
    argv: tuple[str, ...]
    key: str  # config key; estimates run at nproc threads get an "@threads" suffix
    config: EstimateConfig | None = None
    threads: int = 1
    clock: str = "interp"  # calibration kernel, see clock.py
    cycle: int = 0


ALL_LAYERS = LAYERS

# A config listed twice runs twice per cycle, with its own seed each time.
# The mixed config is listed twice because its calibrated call time spreads
# about twice as widely within a run as the other modes' do.
SMALL = (
    EstimateConfig("pure", 3, 2, 1, 2000),
    EstimateConfig("entangled", 4, 2, 3, 2000),
    EstimateConfig("mixed", 3, 2, 2, 400),
    EstimateConfig("mixed", 3, 2, 2, 400),
    EstimateConfig("state-estimation", 5, 2, 1, 2000),
)
# The protocol workload keeps the small estimates as a light background leg.
SMALL_LIGHT = tuple(
    EstimateConfig(c.mode, c.n, c.m, c.r, c.samples // 4) for c in SMALL
)

PLANS = {
    "estimate-small": Plan(
        name="estimate-small",
        estimates=SMALL,
        pairs=("pure(3,2,1)",),
        channel_sizes=((2, 6), (4, 6), (8, 8)),
        verifies=1,
        layers=ALL_LAYERS,
    ),
    "estimate-wide": Plan(
        name="estimate-wide",
        estimates=(
            EstimateConfig("pure", 64, 8, 1, 1500),
            EstimateConfig("entangled", 16, 4, 4, 1500),
            EstimateConfig("mixed", 16, 4, 4, 250),
            EstimateConfig("mixed", 16, 4, 4, 250),
            EstimateConfig("state-estimation", 64, 8, 1, 1500),
        ),
        pairs=("pure(64,8,1)", "entangled(16,4,4)"),
        channel_sizes=((8, 8), (16, 12)),
        verifies=1,
        layers=ALL_LAYERS,
    ),
    "protocol": Plan(
        name="protocol",
        estimates=SMALL_LIGHT,
        pairs=("pure(3,2,1)",),
        channel_sizes=((2, 9), (4, 9), (8, 10), (16, 6), (32, 5), (48, 1)),
        verifies=2,
        layers=ALL_LAYERS,
        estimate_rounds=2,
    ),
}


def cycle_ops(plan: Plan, seed: int, cycle: int, nproc: int) -> list[Op]:
    """The operations of one cycle: estimates, then verify, then teleports.

    The same (seed, cycle) always gives the same operations.  The seed
    orders the estimates and draws every estimator seed, teleport-demo seed
    and input dimension.  Teleports run in ascending M: a short
    teleport-demo call runs about 20% slower right after an estimate,
    verify or large-M call than after another short one, and a seeded
    order would make that share differ between seeds.  A pair runs its
    1-thread and nproc-thread estimates back to back with one seed.
    """
    rnd = random.Random(seed * 1_000_003 + cycle)
    estimates: list[list[Op]] = []
    for config in plan.estimates * plan.estimate_rounds:
        est_seed = rnd.getrandbits(63)
        group = [Op("estimate", tuple(config.argv(est_seed, 1)), config.key, config, 1)]
        if config.key in plan.pairs:
            group.append(Op("estimate", tuple(config.argv(est_seed, nproc)),
                            f"{config.key}@{nproc}", config, nproc))
        estimates.append(group)
    if len(plan.pairs) * plan.estimate_rounds != sum(len(g) == 2 for g in estimates):
        raise ValueError(f"workload {plan.name}: a pair names no estimate config")
    rnd.shuffle(estimates)
    teleports = []
    for m, calls in plan.channel_sizes:
        for _ in range(calls):
            n = m + 1 + rnd.randrange(m)
            argv = ("teleport-demo", "--n", str(n), "--m", str(m), "--seed", str(rnd.getrandbits(63)))
            clock = "array" if m >= ARRAY_CLOCK_MIN_M else "interp"
            teleports.append(Op("teleport", argv, f"M={m}", clock=clock, cycle=cycle))
    verifies = [Op("verify", ("verify",), "verify")] * plan.verifies
    return [op for group in estimates for op in group] + verifies + teleports


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def check(op: Op, rc, text: str):
    """Check one operation's output.

    Returns (problem or None, parsed record).  ``rc`` is the exit code of
    ``qcut.cli.main``.
    """
    if rc != 0:
        return f"exit code {rc}", None
    if op.kind == "verify":
        lines = text.strip().splitlines()
        if not lines or lines[-1] != "verify: PASS":
            return "verify did not report PASS", None
        return None, None
    if op.kind == "teleport":
        try:
            fields = dict(line.split("=", 1) for line in text.strip().splitlines())
            teleport_fid = float(fields["teleport_fidelity"])
            cut = float(fields["cut_fidelity"])
            end_to_end = float(fields["end_to_end_fidelity"])
        except (KeyError, ValueError) as exc:
            return f"unreadable teleport-demo transcript ({exc})", None
        if not teleport_fid >= 1.0 - TELEPORT_TOL:
            return f"teleport_fidelity {teleport_fid} below 1 - {TELEPORT_TOL}", None
        if not abs(end_to_end - cut) <= TELEPORT_TOL:
            return f"end_to_end {end_to_end} differs from cut {cut}", None
        return None, fields
    try:
        record = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"invalid JSON report ({exc})", None
    est = record.get("estimate", {})
    numbers = [est.get("mean"), est.get("stderr"), record.get("z_score"),
               record.get("analytic_target")]
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in numbers):
        return f"missing or non-finite number in {numbers}", None
    if est.get("samples") != op.config.samples:
        return f"report has {est.get('samples')} samples, asked for {op.config.samples}", None
    if abs(record["analytic_target"] - float(op.config.target())) > 1e-12:
        return f"analytic_target {record['analytic_target']} is not {op.config.target()}", None
    if not abs(record["z_score"]) < Z_LIMIT:
        return f"|z| = {abs(record['z_score'])} >= {Z_LIMIT}", None
    return None, record
