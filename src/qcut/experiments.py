"""Average-fidelity formulas and their Monte Carlo reproduction.

Closed forms, exact moment-integral derivations of the same quantities,
and seeded Monte Carlo estimators for four input scenarios:

  pure              Haar-random N-dimensional states
  entangled         Haar-random states on system x auxiliary (N x R)
  mixed             density matrices induced by tracing those out
  state_estimation  best classical guess from one cut outcome

All four scenarios run through one estimator, ``run_experiment``, driven
by a mode table whose entries draw a chunk of Haar rows and score stacks
of drawn chunks.  Every input is a Haar-random state on N x R (pure
states are R = 1); estimator shards draw from independent RNG streams,
and per-shot fidelities go through the actual projection pipeline rather
than the norm_const * p shortcut.  A group of consecutive small shards is
scored as one stack, and each CHUNK-row block is reduced to its exactly
rounded sum and centered sum of squares, so memory does not grow with the
rows; one merge folds the blocks in draw order and the shards in shard
order, independent of thread count.  The mixed mode rechecks every shot
through the Bures fidelity of the reduced states.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, NamedTuple

import numpy as np

from .fidelity import bures_fidelity
from .haar import SAMPLER_PEAK, _check_cases, _exact, angle_weights, draw_angles, exact_moment_fraction, sample_states
from .linalg import BipartitePureState, partial_trace
from .povm import CutPovm, draw_subsets, rank_subsets, sample_outcome
from .rng import _integer, check_seed, stream

DEFAULT_SHARDS = 16
# Rows of Haar states a shard draws at a time.  It bounds estimator memory
# for any sample count, and it is part of the (seed, shards) contract: a
# shard of more rows interleaves its state draws with its outcome draws.
CHUNK = 4096
# Values of ``_Mode.row_values`` a group of consecutive small shards scores
# as one stack: what a row holds from draw to score, or in mixed mode what
# its shot's Bures check works on, in sub-batches of a group's rows.  One
# stack saves the fixed cost of its NumPy (and LAPACK) calls, which weighs
# most on small stacks, and a larger group holds more: at (N, M, R) =
# (16, 4, 4) a 250-sample mixed run took 29.3 ms unpooled, 26.3 ms in 51-row
# groups, 25.2 ms in these 102-row ones and 24.0 ms in one 250-row group
# (medians of 40 interleaved rounds, 2-CPU Xeon), which raised the process's
# peak RSS by 1.8 MB against 0.4 MB.
GROUP_ENTRIES = 2**14
# Bytes a run (its running groups and per-shard bookkeeping, or a teleport-demo
# run) may hold at once; a larger one is refused before anything is allocated.
MEMORY_CAP = 2**28
# Bytes a run keeps per shard: its size and merge part (about 200 B under
# tracemalloc).
SHARD_BYTES = 256
# Bytes a pool keeps per group of shards (``_groups``): a queued future and
# its work item (about 1.75 kB under tracemalloc).
FUTURE_BYTES = 2048
# Bytes a running group holds whatever its rows: a shard's stream, its POVM
# and call frames (6-10.5 kB under tracemalloc at one row).
GROUP_BYTES = 16384
# Bytes a running group holds per pending chunk beside its values: the
# chunk's array headers and tuples and its shard's merge part.
PENDING_BYTES = 1024


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
        for name in ("n", "m", "r", "samples", "shards"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        object.__setattr__(self, "seed", check_seed(self.seed))
        _check_dims(self.n, self.m, self.r)
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {tuple(_MODES)}")
        if self.r != 1 and not _MODES[self.mode].takes_aux:
            raise ValueError(f"mode {self.mode} needs r = 1")


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
#
# The exact routes work on unreduced (numerator, denominator) integer pairs:
# two rationals are compared by cross-multiplying, and a value or residual
# becomes a float through one correctly rounded int / int division.  The
# verification routes also take equal-shaped integer arrays of cases and
# compute them element by element, in int64 where that is exact (``haar._exact``).

def _fidelity_ratio(n: int, m: int, r: int) -> tuple[int, int]:
    """The closed form (MR+1)/(NR+1) as an integer pair; its one definition."""
    return m * r + 1, n * r + 1


def _state_estimation_ratio(n: int, m: int) -> tuple[int, int]:
    """The closed form (1 + 1/M)/(N+1) as the integer pair (M+1, M(N+1))."""
    return m + 1, m * (n + 1)


def _check_dims(n: int, m: int, r: int = 1, *more) -> tuple:
    """(n, m, r) within 1 <= m <= n and r >= 1, then within the bounds ``more``,
    ints or arrays of cases, by one ``haar._check_cases``."""
    return _check_cases((n, "n", 1, None), (m, "m", 1, n), (r, "r", 1, None), *more)[:3]


def _float(ratio: tuple[int, int]) -> float:
    """numerator / denominator, correctly rounded: for ints, or for arrays
    from ``_exact`` (a float64 array)."""
    numerator, denominator = ratio
    value = numerator / denominator
    if isinstance(value, np.ndarray) and value.dtype.kind == "O":
        return value.astype(float)  # the Python floats of int / int
    return value


def analytic_pure(n: int, m: int) -> float:
    """Average fidelity of the cut protocol on Haar pure states, (M+1)/(N+1):
    ``analytic_entangled`` at R = 1, on ints or equal-shaped integer arrays."""
    return analytic_entangled(n, m, 1)


def analytic_entangled(n: int, m: int, r: int) -> float:
    """Entangled-input average fidelity (MR+1)/(NR+1); r=1 reduces to pure.

    The cases may be equal-shaped integer arrays, for an array of fidelities."""
    _check_dims(n, m, r)
    return _float(_fidelity_ratio(*_exact((n, m, r), 2)))


def analytic_state_estimation(n: int, m: int) -> float:
    """Best-guess estimation fidelity from one cut outcome: (1 + 1/M)/(N+1).

    The cases may be equal-shaped integer arrays, for an array of fidelities."""
    _check_dims(n, m)
    return _float(_state_estimation_ratio(*_exact((n, m), 2)))


def horodecki_bound(n: int, m: int) -> float:
    """Optimal-teleportation bound (N f_s + 1)/(N + 1) with singlet fraction M/N.

    Computed from the singlet fraction alone; ``verify`` and the tests
    compare it with ``analytic_pure``, which must agree identically.  The
    cases may be equal-shaped integer arrays, for an array of bounds.
    """
    _check_dims(n, m)
    n, m = _exact((n, m), 2)
    # (N * M/N + 1) / (N + 1) = (N*M + N) / (N * (N + 1))
    return _float((n * m + n, n * (n + 1)))


def _residual(a: tuple[int, int], b: tuple[int, int]) -> float:
    """|a - b| for two integer pairs, exact until one final rounding."""
    return _float((abs(a[0] * b[1] - b[0] * a[1]), a[1] * b[1]))


def _coherence(n, m, num, den) -> tuple:
    """q + (1 - q) * num / den as an integer pair, with q = (M-1)/(N-1), the cut's
    coherence factor, defined here only; N = 1 (no cut) adds 1 to both sides of
    0 / 0.  Its products take two factors, their sum bounded by (M-1) + (N-M) = N-1."""
    uncut = 1 // n
    return (m - 1) * den + (n - m) * num + uncut, (n - 1) * den + uncut


def relation_check(n: int, m: int, r: int = 1) -> float:
    """Residual of F(N->M) = (M-1)/(N-1) + (N-M)/(N-1) * F(N->1), exactly.

    The cases are ints, for one residual, or equal-shaped integer arrays,
    for the array of their residuals; every case is checked first.
    """
    n, m, r = _exact(_check_dims(n, m, r, (n, "n", 2, None), (m, "m", 1, n, 1)), 2)
    n, m, num, den, one_num, one_den = _exact(
        (n, m, *_fidelity_ratio(n, m, r), *_fidelity_ratio(n, 1, r)), 3
    )
    return _residual((num, den), _coherence(n, m, one_num, one_den))


def composition_check(n: int, k: int, m: int, r: int = 1) -> float:
    """Residual of the stepwise identity F(N->M) = F(N->K) * F(K->M).

    The cases are ints or equal-shaped integer arrays, as in ``relation_check``.
    """
    n, k, m, r = _exact(_check_cases((n, "n", 1, None), (k, "k", 1, n), (m, "m", 1, k), (r, "r", 1, None)), 2)
    num, den, outer_num, outer_den, inner_num, inner_den = _exact(
        (*_fidelity_ratio(n, m, r), *_fidelity_ratio(n, k, r), *_fidelity_ratio(k, m, r)), 3
    )
    return _residual((num, den), (outer_num * inner_num, outer_den * inner_den))


def exact_pure_via_moments(n: int, m: int) -> float:
    """Pure-state average fidelity derived through the amplitude moments:
    the R = 1 case of ``exact_entangled_via_moments``."""
    return exact_entangled_via_moments(n, m, 1)


def exact_entangled_via_moments(n: int, m: int, r: int) -> float:
    """Entangled average fidelity from fourth and cross moments on N*R.

    An independent route to the closed form: the subset average reduces to
    (M-1)/(N-1) + (N-M)/(N-1) * N*R * (E|c_1|^4 + (R-1) * E|c_1|^2|c_2|^2),
    with both Haar moments from the Dirichlet formula on N*R amplitudes.
    The cases are ints or equal-shaped integer arrays, as in
    ``relation_check``; an array of cases takes one moment call per moment.
    """
    n, m, r = _exact(_check_dims(n, m, r), 2)
    nr = n * r
    # 1 // x is 1 at x = 1 and 0 beyond, in the dtype of x.  At N = 1 the
    # term has weight N - M = 0, and N*R + 1 amplitudes keep the cross
    # moment defined at N = R = 1.
    fourth_num, fourth_den = exact_moment_fraction(nr, (2,))
    cross_num, cross_den = exact_moment_fraction(nr + 1 // nr, (1, 1))
    # The term over the common denominator: each product takes at most four factors.
    nr, r, fourth_num, fourth_den, cross_num, cross_den = _exact(
        (nr, r, fourth_num, fourth_den, cross_num, cross_den), 4
    )
    num = nr * (fourth_num * cross_den + (r - 1) * cross_num * fourth_den)
    den = fourth_den * cross_den
    return _float(_coherence(*_exact((n, m, num, den), 2)))


# --- Monte Carlo estimators ---


def _shard_sizes(samples: int, shards: int) -> list[int]:
    shards = min(shards, samples)
    base, extra = divmod(samples, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


class _Mode(NamedTuple):
    target: Callable[[int, int, int], float]  # closed form of (n, m, r)
    draw: Callable  # (config, size, rng, povm) -> a chunk's arrays, a row per shot
    score: Callable  # (config, povm, stacked arrays) -> (shots, Bures deviation or None)
    takes_aux: bool  # whether r > 1 is allowed
    row_values: Callable  # (n, m, r) -> a row's values toward GROUP_ENTRIES (``_group_rows``)
    drawn: Callable  # (config, rows) -> bytes a chunk peaks at while drawn (``_group_bytes``)
    held: Callable  # (n, m, r) -> bytes a drawn row holds until scored
    scored: Callable  # (config, rows) -> bytes scoring a stack of rows adds to what they hold


def _cut_chunk(config: ExperimentConfig, size: int, rng: np.random.Generator, povm: CutPovm):
    """Draw ``size`` Haar rows and cut each one through ``sample_outcome``:
    their shots."""
    n, r = config.n, config.r
    rows = sample_states(n * r, size, rng).reshape(size, n, r)
    shots = np.empty(size)
    for i, row in enumerate(rows):
        shots[i] = sample_outcome(povm, BipartitePureState._trusted(row), rng).shot_fidelity
    return (shots,)


def _cut_shots(config: ExperimentConfig, povm: CutPovm, drawn: list):
    """The shots of cut chunks, taken as they were drawn."""
    return drawn[0], None


def _mixed_draw(config: ExperimentConfig, size: int, rng: np.random.Generator, povm: CutPovm):
    """``size`` Haar rows of N x R amplitudes, then their subset doubles: the
    doubles that the rows' ``sample_outcome`` calls take, in their order."""
    n, r = config.n, config.r
    return sample_states(n * r, size, rng).reshape(size, n, r), draw_subsets(povm, size, rng)


def _mixed_score(config: ExperimentConfig, povm: CutPovm, drawn: list):
    """Cut a stack of rows as ``sample_outcome`` cuts each one, and check the
    shots by ``_bures_deviation``.

    The rows' weights |c|^2 are summed over R, as ``sample_outcome`` sums
    them, and each row's subset is ranked (``rank_subsets``).  A shot is
    ``povm._project``'s: the kept weight of its M R kept amplitudes, the
    cut renormalized by its root, then the overlap of the row's whole N x R
    matrix with the cut's, one ``vdot`` a row, which keeps every shot's
    bits; at M = N it is 1.
    """
    rows = drawn.pop(0)
    weights = np.abs(rows)
    weights = np.square(weights, out=weights).sum(axis=2)
    chosen = rank_subsets(povm, weights, drawn.pop(0))
    del weights
    shots = np.ones(len(rows))
    if povm.m < povm.n:
        at = np.arange(len(rows))[:, None], chosen
        kept = rows[at]
        kept /= np.sqrt(np.square(np.abs(kept)).reshape(len(rows), -1).sum(axis=1))[:, None, None]
        cuts = np.zeros(rows.shape, dtype=complex)
        cuts[at] = kept
        del kept
        shots = np.fromiter((abs(np.vdot(row, cut)) ** 2 for row, cut in zip(rows, cuts)), float, len(rows))
        del cuts
    return shots, _bures_deviation(rows, chosen, shots, _group_rows(config))


def _mixed_scored(config: ExperimentConfig, rows: int) -> int:
    """Bytes scoring ``rows`` mixed rows adds to what they hold: their (k, M)
    subsets and shots, beside the largest of three steps.  Ranking holds
    the rows' weights beside their |c| stack, then beside the ranking's
    temporaries, about 2N doubles a row; cutting holds the kept rows twice
    over (with their weights' temporaries), then the stack of cuts, N R
    complex values a row; and the Bures check holds one sub-batch
    (``_group_rows``), three times its values (under tracemalloc one peaks
    at 1.5-2.3 times them)."""
    n, m, r = config.n, config.m, config.r
    return 8 * rows * (m + 1) + max(
        8 * rows * (max(n * r, 2 * n) + n),
        16 * rows * (n * r + 2 * m * r),
        48 * min(rows, _group_rows(config)) * _bures_row_values(n, m, r),
    )


def _guess_draw(config: ExperimentConfig, size: int, rng: np.random.Generator, povm: CutPovm):
    """The angle doubles of ``size`` Haar rows, then their subset doubles."""
    return draw_angles(config.n, size, rng), draw_subsets(povm, size, rng)


def _guess_score(config: ExperimentConfig, povm: CutPovm, drawn: list):
    """Map a stack's angles to the weights |c|^2, rank each row's subset, and
    score the weight at the guess, the subset's smallest index (isotropy
    makes any fixed choice equivalent, as the tests check)."""
    weights = angle_weights(drawn.pop(0))
    chosen = rank_subsets(povm, weights, drawn.pop(0))
    return weights[np.arange(len(weights)), chosen[:, 0]], None


def _drawn_bytes(config: ExperimentConfig, rows: int) -> int:
    """N * R Haar amplitudes of 16 B a row, held SAMPLER_PEAK times over while
    drawn, then once beside about two rows of temporaries."""
    return 16 * max(SAMPLER_PEAK * rows, rows + 2) * config.n * config.r


def _cut_drawn_bytes(config: ExperimentConfig, rows: int) -> int:
    """``_drawn_bytes`` of a cut chunk, whose two rows of temporaries are one
    shot's cut, beside that shot's subset: 56 + 32 R B a kept level, for its
    index, its Python int in the subset's tuple, and its kept rows twice over."""
    n, m, r = config.n, config.m, config.r
    return max(16 * SAMPLER_PEAK * rows * n * r, 16 * (rows + 2) * n * r + (56 + 32 * r) * m)


def _bures_row_values(n: int, m: int, r: int) -> int:
    """Values one shot's Bures check works on: its relabeled input rows
    and its cut's, (N + M) R, the eigenvectors of its reduced input,
    N min(N, R), and the M x M square root of its cut's reduced state."""
    return (n + m) * r + n * min(n, r) + m * m


# A cut row holds its 8 B shot from draw to score; pure is entangled at R = 1.
_ENTANGLED = _Mode(analytic_entangled, _cut_chunk, _cut_shots, True, lambda n, m, r: 1,
                   _cut_drawn_bytes, lambda n, m, r: 8, lambda config, rows: 0)
_MODES = {
    "pure": _ENTANGLED._replace(takes_aux=False),
    "entangled": _ENTANGLED,
    # A mixed row counts the values its shot's Bures check works on, and
    # holds its N R amplitudes and N + 1 subset doubles (``draw_subsets``)
    # until scored; the sampler's peak, twice the amplitudes, covers both.
    "mixed": _Mode(
        analytic_entangled, _mixed_draw, _mixed_score, True, _bures_row_values,
        _drawn_bytes, lambda n, m, r: 8 * (2 * n * r + n + 1), _mixed_scored,
    ),
    # A row draws its N - 1 angle doubles, then N phase doubles that it drops
    # (``draw_angles``), then its N + 1 subset doubles, and holds 2N of them.
    # Scoring adds the weights and a ranking temporary, about 2N doubles a
    # row, and N values at any rows (exponents, ranking temporaries).
    "state_estimation": _Mode(
        lambda n, m, r: analytic_state_estimation(n, m), _guess_draw, _guess_score, False, lambda n, m, r: n + 1,
        lambda config, rows: 8 * (2 * config.n + 1) * rows, lambda n, m, r: 8 * (2 * n + 1),
        lambda config, rows: 8 * (2 * config.n + 1) * rows + 16 * config.n,
    ),
}


def _group_rows(config: ExperimentConfig) -> int:
    """Rows a group of consecutive shards scores as one stack: at most one
    chunk, and GROUP_ENTRIES values of its mode's ``row_values``."""
    row_values = _MODES[config.mode].row_values(config.n, config.m, config.r)
    return min(CHUNK, max(1, GROUP_ENTRIES // row_values))


def _groups(config: ExperimentConfig) -> range:
    """The first shard of each group of consecutive shards that one stack
    scores (``_group``), stepping by the group's shard count: as many shards
    of the largest size as a group's rows (``_group_rows``) hold, or one, and
    no more than there are.  So only a group of one shard holds more than a
    group's rows, and the groups depend on (samples, shards) alone, never on
    the thread count."""
    shards = min(config.shards, config.samples)
    count = max(1, _group_rows(config) // -(-config.samples // shards))
    return range(0, shards, min(shards, count))


class RunRefused(ValueError):
    """A run refused before anything is allocated (``check_run``, ``check_memory``)."""


def check_memory(nbytes: int, what: str) -> None:
    """Refuse a working set of ``nbytes`` bytes above MEMORY_CAP."""
    if nbytes > MEMORY_CAP:
        raise RunRefused(
            f"{what} would hold {nbytes / 2**20:.0f} MiB at once, "
            f"above the {MEMORY_CAP // 2**20} MiB cap"
        )


def _group_bytes(config: ExperimentConfig) -> int:
    """Bytes a group of shards (``_groups``) holds at its peak, with a chunk of
    its largest shard's rows (at most CHUNK) pending a shard: GROUP_BYTES,
    PENDING_BYTES a pending chunk, an 8 B shot a row, and the largest phase
    of its mode's bytes (``_Mode``): drawing a chunk beside the other pending
    ones, scoring the pending stack, or, in a group of several shards,
    stacking it, the pending chunks twice over."""
    mode, step = _MODES[config.mode], _groups(config).step
    rows = min(CHUNK, -(-config.samples // config.shards))
    pending, held = step * rows, mode.held(config.n, config.m, config.r)
    return GROUP_BYTES + PENDING_BYTES * step + 8 * rows + max(
        mode.drawn(config, rows) + held * (pending - rows),
        held * pending + mode.scored(config, pending),
        2 * held * pending if step > 1 else 0,
    )


def _workers(threads: int, groups: int) -> int:
    """Groups a run on ``threads`` threads works on at once: no more than
    CPUs and groups.  A run starts a pool only for more than one."""
    return min(threads, os.cpu_count() or 1, groups)


def _run_bytes(config: ExperimentConfig, threads: int = 1) -> int:
    """Bytes a run of ``config`` on ``threads`` threads holds at its peak: the
    working sets (``_group_bytes``) of the groups it runs at once
    (``_workers``), each shard's SHARD_BYTES and, when a pool runs, each
    group's FUTURE_BYTES."""
    groups = _groups(config)
    running = _workers(threads, len(groups))
    futures = len(groups) if running > 1 else 0
    return running * _group_bytes(config) + SHARD_BYTES * groups.stop + FUTURE_BYTES * futures


def check_run(config: ExperimentConfig, threads: int = 1) -> int:
    """``threads`` as an int, if the run is accepted: a thread count that is
    not an integer of at least 1 (Python or NumPy, named in the error), or a
    working set (``_run_bytes``) above MEMORY_CAP, raises ``RunRefused``."""
    threads = _integer(threads, "threads", 1, error=RunRefused)
    check_memory(_run_bytes(config, threads), "a run")
    return threads


def _bures_deviation(states: np.ndarray, chosen: np.ndarray, shots: np.ndarray, step: int) -> float:
    """Largest |shot - Bures fidelity| over stacked (k, N, R) input matrices
    whose shots kept the (k, M) subsets ``chosen``, by the square-root form
    on their reduced input and cut states, ``step`` shots per sub-batch."""
    return max(
        _bures_sub_batch(*(part[lo : lo + step] for part in (states, chosen, shots)))
        for lo in range(0, len(states), step)
    )


def _bures_sub_batch(states: np.ndarray, chosen: np.ndarray, shots: np.ndarray) -> float:
    """``_bures_deviation`` of one sub-batch.

    Each cut is rebuilt from its input rows at its subset, renormalized as
    ``povm._project`` renormalizes it (not at all at M = N), so its reduced
    state lives on the M subset levels.  Each row's levels are relabeled so
    that its subset comes first, in ascending order (as ``full_protocol``
    relabels them onto the channel), which is where ``bures_fidelity``
    places an M-level sigma.  The density matrices and their eigenvectors
    are dropped on return, before the next sub-batch builds its own.
    """
    (k, n), m = states.shape[:2], chosen.shape[1]
    rows = np.arange(k)[:, None]
    outside = np.ones((k, n), dtype=bool)
    outside[rows, chosen] = False
    # Subset levels first, then the rest, each part in ascending order.
    rest = np.broadcast_to(np.arange(n), (k, n))[outside].reshape(k, n - m)
    relabeled = states[rows, np.concatenate((chosen, rest), axis=1)]
    relabeled.setflags(write=False)  # a read-only stack is reduced uncopied
    kept = relabeled[:, :m]
    if m < n:
        # Each row's M R weights summed in order, as ``_project`` sums a cut's.
        kept = kept / np.sqrt(np.square(np.abs(kept)).reshape(k, -1).sum(axis=1))[:, None, None]
    return float(np.max(np.abs(shots - bures_fidelity(partial_trace(relabeled), partial_trace(kept)))))


def _merge(parts) -> tuple[int, float, float, float | None]:
    """Combine a sequence of (count, sum, centered sum of squares, Bures deviation)
    parts in order: the sums add exactly rounded, the centered sums by the
    Chan-Golub-LeVeque update (total_sq - n*mean^2 would cancel), and the
    deviations by their maximum (None if no part was checked)."""
    count, mean, centered, worst = 0, 0.0, 0.0, None
    for size, total, centered_sq, dev in parts:
        delta = total / size - mean
        grown = count + size
        mean += delta * size / grown
        centered += centered_sq + delta * delta * count * size / grown
        count = grown
        if dev is not None:
            worst = max(worst or 0.0, dev)
    return count, math.fsum(part[1] for part in parts), centered, worst


def _score(config: ExperimentConfig, povm: CutPovm, pending: list, parts: dict) -> None:
    """Score ``pending``'s (shard, drawn arrays) chunks, emptying it, as one
    stack; merge each chunk's part into its shard's in ``parts``, in draw
    order, the stack's Bures deviation in its last part."""
    shards = [shard for shard, _ in pending]
    sizes = [len(drawn[0]) for _, drawn in pending]
    stacked = [
        arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        for arrays in zip(*(drawn for _, drawn in pending))
    ]
    pending.clear()
    shots, dev = _MODES[config.mode].score(config, povm, stacked)
    ends = list(accumulate(sizes))
    # Python floats, cheaper to iterate than numpy scalars.
    totals = [math.fsum(memoryview(shots[end - size : end])) for size, end in zip(sizes, ends)]
    # Each chunk's squares about its own mean, for the whole stack at once:
    # the same doubles as chunk - total / size, squared chunk by chunk.
    centered = np.repeat(np.divide(totals, sizes), sizes)
    np.subtract(shots, centered, out=centered)
    np.square(centered, out=centered)
    for shard, size, end, total in zip(shards, sizes, ends, totals):
        part = (size, total, math.fsum(memoryview(centered[end - size : end])), dev if end == len(shots) else None)
        parts[shard] = _merge((parts[shard], part)) if shard in parts else part


def _group(config: ExperimentConfig, sizes: list[int], step: int, first: int):
    """The merge parts of the ``step`` shards from ``first`` on (fewer at the
    end), in shard order.  Each shard draws its chunks of at most CHUNK rows
    from its own stream (``_Mode.draw``); they wait until they are ``step``
    or the group ends, and are then scored as one stack (``_score``).  In a
    group of more than one shard each shard is one chunk, so one stack holds
    the group; a group of one shard scores each chunk as it is drawn.
    Scoring draws no random numbers and acts row by row, so where a stack
    starts or ends changes no shot."""
    povm, draw = CutPovm(config.n, config.m), _MODES[config.mode].draw
    pending, parts = [], {}
    for shard in range(first, min(first + step, len(sizes))):
        rng, count = stream(config.seed, shard), sizes[shard]
        for start in range(0, count, CHUNK):
            pending.append((shard, draw(config, min(CHUNK, count - start), rng, povm)))
            if len(pending) == step:
                _score(config, povm, pending, parts)
    if pending:
        _score(config, povm, pending, parts)
    return list(parts.values())


def run_experiment(config: ExperimentConfig, threads: int = 1) -> FidelityEstimate:
    """Estimate the average fidelity of ``config.mode`` by sampling cut outcomes.

    Pure, entangled and mixed inputs share the shot, the single-shot cut
    fidelity, and the target (MR+1)/(NR+1); pure is R = 1.  Mixed inputs
    are the partial traces of the entangled ones: the purification maximum
    sits at the identity, so the per-shot fidelity is the entangled one.
    The mixed mode also recomputes every shot through the matrix
    square-root formula on the reduced states, in stacked sub-batches of
    a group's rows (``_group_rows``), and reports the worst disagreement.
    State estimation scores the weight of one guessed basis state of the
    outcome against (1 + 1/M)/(N+1).
    ``check_run`` refuses a bad thread count or working set before any sampling.
    """
    threads = check_run(config, threads)
    mode = _MODES[config.mode]
    target = mode.target(config.n, config.m, config.r)
    sizes = _shard_sizes(config.samples, config.shards)
    groups = _groups(config)
    run = functools.partial(_group, config, sizes, groups.step)
    workers = _workers(threads, len(groups))
    if workers == 1:
        parts = list(chain.from_iterable(map(run, groups)))
    else:
        # map yields in group order, so the parts come in shard order, the
        # order the variance merge fixes.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(chain.from_iterable(pool.map(run, groups)))
    count, total, centered_sq, worst = _merge(parts)
    mean = total / count
    stderr = math.sqrt(centered_sq / (count - 1) / count) if count > 1 else 0.0
    if stderr > 0.0:
        z = (mean - target) / stderr
    else:
        z = 0.0 if mean == target else None
    return FidelityEstimate(
        mean=mean,
        stderr=stderr,
        samples=count,
        seed=config.seed,
        analytic_target=target,
        z_score=z,
        bures_max_deviation=worst,
    )
