"""Average-fidelity formulas and their Monte Carlo reproduction.

Closed forms, exact moment-integral derivations of the same quantities,
and seeded Monte Carlo estimators for four input scenarios:

  pure              Haar-random N-dimensional states
  entangled         Haar-random states on system x auxiliary (N x R)
  mixed             density matrices induced by tracing those out
  state_estimation  best classical guess from one cut outcome

All four scenarios run through one estimator, ``run_experiment``, driven
by a mode table.  Every input is a Haar-random state on N x R (pure states
are R = 1); estimator shards draw from independent RNG streams, per-shot
fidelities go through the actual projection pipeline rather than the
norm_const * p shortcut.  Each shard reports its exactly rounded sum and
its centered sum of squares; the mean is the exactly rounded total and the
variance merges the shards in shard order, so the result is independent of
thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, NamedTuple

from .fidelity import bures_fidelity
from .haar import MomentSpec, exact_moment_fraction, sample_states
from .linalg import BipartitePureState, partial_trace
from .povm import CutPovm, sample_outcome
from .rng import check_seed, stream

DEFAULT_SHARDS = 16


@dataclass(frozen=True)
class ExperimentConfig:
    """One estimator run: scenario dimensions, sample budget and seeding.

    ``r`` is the auxiliary dimension; the pure and state-estimation modes
    need r = 1.  The shard count fixes how samples split across RNG
    streams; together with the seed it pins the estimate bit for bit.
    """

    n: int
    m: int
    r: int = 1
    mode: str = "pure"
    samples: int = 1
    seed: int = 0
    shards: int = DEFAULT_SHARDS

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")
        if self.r < 1:
            raise ValueError("auxiliary dimension must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {tuple(_MODES)}")
        if self.r != 1 and not _MODES[self.mode].takes_aux:
            raise ValueError(f"mode {self.mode} needs r = 1")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.shards < 1:
            raise ValueError("need at least one shard")
        check_seed(self.seed)


@dataclass(frozen=True)
class FidelityEstimate:
    """Monte Carlo mean with its standard error and analytic reference.

    ``z_score`` is None when it is undefined: a zero standard error with
    the mean off the target.
    """

    mean: float
    stderr: float
    samples: int
    seed: int
    analytic_target: float | None = None
    z_score: float | None = None
    bures_max_deviation: float | None = None

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("standard error must be nonnegative")
        if not 0.0 <= self.mean <= 1.0 + 3.0 * self.stderr:
            raise ValueError(f"mean {self.mean} outside [0, 1 + 3*stderr]")


# --- closed forms (exact rational, floated at the boundary) ---


def entangled_fidelity_fraction(n: int, m: int, r: int) -> Fraction:
    return Fraction(m * r + 1, n * r + 1)


def state_estimation_fraction(n: int, m: int) -> Fraction:
    return Fraction(m + 1, m * (n + 1))


def _check_dims(n: int, m: int, r: int = 1):
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if r < 1:
        raise ValueError("auxiliary dimension must be >= 1")


def analytic_pure(n: int, m: int) -> float:
    """Average fidelity of the cut protocol on Haar pure states: (M+1)/(N+1)."""
    _check_dims(n, m)
    return float(Fraction(m + 1, n + 1))


def analytic_entangled(n: int, m: int, r: int) -> float:
    """Entangled-input average fidelity (MR+1)/(NR+1); r=1 reduces to pure."""
    _check_dims(n, m, r)
    return float(entangled_fidelity_fraction(n, m, r))


def analytic_n_to_1(n: int, r: int) -> float:
    """Fidelity of cutting all the way to one level: (R+1)/(NR+1)."""
    _check_dims(n, 1, r)
    return float(Fraction(r + 1, n * r + 1))


def analytic_state_estimation(n: int, m: int) -> float:
    """Best-guess estimation fidelity from one cut outcome: (1 + 1/M)/(N+1)."""
    _check_dims(n, m)
    return float(state_estimation_fraction(n, m))


def horodecki_bound(n: int, m: int) -> float:
    """Optimal-teleportation bound (N f_s + 1)/(N + 1) with singlet fraction M/N.

    Must agree with ``analytic_pure`` identically; computed independently
    from the singlet fraction and asserted here.
    """
    _check_dims(n, m)
    singlet_fraction = Fraction(m, n)
    bound = (n * singlet_fraction + 1) / (n + 1)
    if bound != Fraction(m + 1, n + 1):
        raise AssertionError("singlet-fraction bound disagrees with closed form")
    return float(bound)


def relation_check(n: int, m: int, r: int = 1) -> float:
    """Residual of F(N->M) = (M-1)/(N-1) + (N-M)/(N-1) * F(N->1), exactly."""
    if n == 1:
        raise ValueError("relation needs n >= 2")
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    _check_dims(n, m, r)
    lhs = entangled_fidelity_fraction(n, m, r)
    rhs = Fraction(m - 1, n - 1) + Fraction(n - m, n - 1) * Fraction(r + 1, n * r + 1)
    return float(abs(lhs - rhs))


def composition_check(n: int, k: int, m: int, r: int = 1) -> float:
    """Residual of the stepwise identity F(N->M) = F(N->K) * F(K->M)."""
    if not 1 <= m <= k <= n:
        raise ValueError("need 1 <= m <= k <= n")
    _check_dims(n, m, r)
    direct = entangled_fidelity_fraction(n, m, r)
    stepped = entangled_fidelity_fraction(n, k, r) * entangled_fidelity_fraction(k, m, r)
    return float(abs(direct - stepped))


def _moment(dim: int, leading: tuple[int, ...]) -> Fraction:
    exps = leading + (0,) * (dim - len(leading))
    return exact_moment_fraction(MomentSpec(dim, exps))


def exact_pure_via_moments(n: int, m: int) -> float:
    """Pure-state average fidelity derived through the amplitude moments.

    An independent route to the closed form: the subset-average reduces to
    N * E[|c_1|^4] plus combinatorial prefactors.
    """
    _check_dims(n, m)
    if n == 1:
        return 1.0
    value = Fraction(m - 1, n - 1) + Fraction(n - m, n - 1) * n * _moment(n, (2,))
    return float(value)


def exact_entangled_via_moments(n: int, m: int, r: int) -> float:
    """Entangled average fidelity from fourth and cross moments on N*R."""
    _check_dims(n, m, r)
    if n == 1:
        return 1.0
    nr = n * r
    reduced = nr * (_moment(nr, (2,)) + (r - 1) * _moment(nr, (1, 1)))
    value = Fraction(m - 1, n - 1) + Fraction(n - m, n - 1) * reduced
    return float(value)


# --- Monte Carlo estimators ---


def _shard_sizes(samples: int, shards: int) -> list[int]:
    shards = min(shards, samples)
    base, extra = divmod(samples, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _cut_fidelity(state, outcome) -> float:
    return outcome.shot_fidelity


def _guess_fidelity(state, outcome) -> float:
    # Guess the smallest basis index of the outcome; isotropy makes any
    # fixed choice equivalent, which the tests check.
    return abs(state.amps[outcome.subset.indices[0]]) ** 2


def _estimation_target(n: int, m: int, r: int) -> float:
    return analytic_state_estimation(n, m)


class _Mode(NamedTuple):
    target: Callable[[int, int, int], float]  # closed form of (n, m, r)
    shot: Callable  # per-shot value of (input state, outcome)
    takes_aux: bool  # whether r > 1 is allowed


_MODES = {
    "pure": _Mode(analytic_entangled, _cut_fidelity, False),
    "entangled": _Mode(analytic_entangled, _cut_fidelity, True),
    "mixed": _Mode(analytic_entangled, _cut_fidelity, True),
    "state_estimation": _Mode(_estimation_target, _guess_fidelity, False),
}


def _shard(config: ExperimentConfig, count: int, shard: int, verify_bures: bool):
    n, r = config.n, config.r
    rng = stream(config.seed, shard)
    povm = CutPovm(n, config.m)
    shot = _MODES[config.mode].shot
    fs = []
    max_dev = 0.0
    for row in sample_states(n * r, count, rng):
        state = BipartitePureState._trusted(n, r, row)
        outcome = sample_outcome(povm, state, rng)
        fs.append(shot(state, outcome))
        if verify_bures:
            rho = partial_trace(state, over="aux")
            rho_cut = partial_trace(outcome.post_state, over="aux")
            max_dev = max(max_dev, abs(fs[-1] - bures_fidelity(rho, rho_cut)))
    total = math.fsum(fs)
    shard_mean = total / count
    centered_sq = math.fsum((f - shard_mean) ** 2 for f in fs)
    return count, total, centered_sq, max_dev if verify_bures else None


def _reduce(parts, config: ExperimentConfig, target: float) -> FidelityEstimate:
    count = config.samples
    mean = math.fsum(p[1] for p in parts) / count
    # Chan-Golub-LeVeque merge of the per-shard (count, mean, centered sum
    # of squares), in shard order; total_sq - n*mean^2 would cancel.
    merged_n, merged_mean, merged_sq = 0, 0.0, 0.0
    for size, total, centered_sq, _ in parts:
        delta = total / size - merged_mean
        grown = merged_n + size
        merged_mean += delta * size / grown
        merged_sq += centered_sq + delta * delta * merged_n * size / grown
        merged_n = grown
    stderr = math.sqrt(merged_sq / (count - 1) / count) if count > 1 else 0.0
    if stderr > 0.0:
        z = (mean - target) / stderr
    else:
        z = 0.0 if mean == target else None
    devs = [p[3] for p in parts if p[3] is not None]
    return FidelityEstimate(
        mean=mean,
        stderr=stderr,
        samples=count,
        seed=config.seed,
        analytic_target=target,
        z_score=z,
        bures_max_deviation=max(devs) if devs else None,
    )


def run_experiment(
    config: ExperimentConfig, threads: int = 1, verify_bures: bool = False
) -> FidelityEstimate:
    """Estimate the average fidelity of ``config.mode`` by sampling cut outcomes.

    Pure, entangled and mixed inputs share the shot, the single-shot cut
    fidelity, and the target (MR+1)/(NR+1); pure is R = 1.  Mixed inputs
    are the partial traces of the entangled ones: the purification maximum
    sits at the identity, so the per-shot fidelity is the entangled one.
    With ``verify_bures`` (mixed mode only; other modes raise ValueError)
    every shot is recomputed through the matrix square-root formula on the
    reduced states and the worst disagreement is reported.  State
    estimation scores the weight of one guessed basis state of the outcome
    against (1 + 1/M)/(N+1).
    """
    if verify_bures and config.mode != "mixed":
        raise ValueError("verify_bures needs mode mixed")
    target = _MODES[config.mode].target(config.n, config.m, config.r)
    sizes = _shard_sizes(config.samples, config.shards)
    shards = range(len(sizes))
    if threads <= 1:
        parts = list(map(_shard, repeat(config), sizes, shards, repeat(verify_bures)))
    else:
        # map yields in shard order, the order the variance merge fixes.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_shard, repeat(config), sizes, shards, repeat(verify_bures)))
    return _reduce(parts, config, target)
