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
from .haar import SAMPLER_PEAK, _all, _exact, angle_weights, draw_angles, exact_moment_fraction, sample_states
from .linalg import BipartitePureState, partial_trace
from .povm import CutPovm, draw_subsets, rank_subsets, sample_outcome
from .rng import check_seed, stream

DEFAULT_SHARDS = 16
# Rows of Haar states a shard draws at a time.  It bounds estimator memory
# for any sample count, and it is part of the (seed, shards) contract: a
# shard of more rows interleaves its state draws with its outcome draws.
CHUNK = 4096
# Values per shot (``_bures_row_values``) in one Bures sub-batch: the
# check runs on max(1, BURES_ENTRIES // those) shots at a time.
BURES_ENTRIES = 2**16
# Values of ``_Mode.row_values`` a group of consecutive small shards holds
# from draw to score.  One stack saves the fixed cost of its NumPy (and
# LAPACK) calls, which weighs most on small stacks, and a larger group
# holds more: at (N, M, R) = (16, 4, 4) a 250-sample mixed run took 29.3 ms
# unpooled, 26.3 ms in 51-row groups, 25.2 ms in these 102-row ones and
# 24.0 ms in one 250-row group (medians of 40 interleaved rounds, 2-CPU
# Xeon), which raised the process's peak RSS by 1.8 MB against 0.4 MB.
GROUP_ENTRIES = 2**14
# Bytes of complex values a run (its running shards and the per-shard
# bookkeeping, or a teleport-demo run) may hold at once.  Larger
# configurations are refused before anything is allocated.
MEMORY_CAP = 2**28
# Bytes a run keeps per shard: its size and merge part (about 200 B under
# tracemalloc) and, with threads, also a queued future and work item
# (about 1.95 kB in all).  The pool queues one future per group of shards
# (``_groups``), which is one per shard only where each shard is its own
# group (pure and entangled mode); elsewhere the charge over-counts.
SHARD_BYTES = 256
THREADED_SHARD_BYTES = 2048
# Bytes a running group holds whatever its rows: a shard's stream, its POVM
# and call frames (6-10.5 kB under tracemalloc at one row).
GROUP_BYTES = 16384


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
        _check_dims(self.n, self.m, self.r)
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


def _check_dims(n: int, m: int, r: int = 1):
    if not _all((1 <= m) & (m <= n)):
        raise ValueError("need 1 <= m <= n")
    if not _all(r >= 1):
        raise ValueError("auxiliary dimension must be >= 1")


def _float(ratio: tuple[int, int]) -> float:
    """numerator / denominator, correctly rounded: for ints, or for arrays
    from ``_exact`` (a float64 array)."""
    numerator, denominator = ratio
    value = numerator / denominator
    if isinstance(value, np.ndarray) and value.dtype == object:
        return value.astype(float)  # the Python floats of int / int
    return value


def analytic_pure(n: int, m: int) -> float:
    """Average fidelity of the cut protocol on Haar pure states: (M+1)/(N+1).

    The cases may be equal-shaped integer arrays, for an array of fidelities."""
    _check_dims(n, m)
    return _float(_fidelity_ratio(n, m, 1))


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


def relation_check(n: int, m: int, r: int = 1) -> float:
    """Residual of F(N->M) = (M-1)/(N-1) + (N-M)/(N-1) * F(N->1), exactly.

    The cases are ints, for one residual, or equal-shaped integer arrays,
    for the array of their residuals; every case is checked first.
    """
    if not _all(n != 1):
        raise ValueError("relation needs n >= 2")
    if not _all((1 <= m) & (m < n)):
        raise ValueError("need 1 <= m < n")
    _check_dims(n, m, r)
    n, m, r = _exact((n, m, r), 2)
    # Each product takes three of these factors, and the right-hand
    # numerator's two products share the bound: (M-1) + (N-M) = N-1.
    n, m, num, den, one_num, one_den = _exact(
        (n, m, *_fidelity_ratio(n, m, r), *_fidelity_ratio(n, 1, r)), 3
    )
    rhs = ((m - 1) * one_den + (n - m) * one_num, (n - 1) * one_den)
    return _residual((num, den), rhs)


def composition_check(n: int, k: int, m: int, r: int = 1) -> float:
    """Residual of the stepwise identity F(N->M) = F(N->K) * F(K->M).

    The cases are ints or equal-shaped integer arrays, as in ``relation_check``.
    """
    if not _all((1 <= m) & (m <= k) & (k <= n)):
        raise ValueError("need 1 <= m <= k <= n")
    _check_dims(n, m, r)
    n, k, m, r = _exact((n, k, m, r), 2)
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
    _check_dims(n, m, r)
    n, m, r = _exact((n, m, r), 2)
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
    # Each product takes two factors, and (M-1) + (N-M) = N-1 bounds the
    # numerator's sum.  N = 1 (no cut) adds 1 to both sides of 0 / 0.
    n, m, num, den = _exact((n, m, num, den), 2)
    uncut = 1 // n
    return _float(((m - 1) * den + (n - m) * num + uncut, (n - 1) * den + uncut))


# --- Monte Carlo estimators ---


def _shard_sizes(samples: int, shards: int) -> list[int]:
    shards = min(shards, samples)
    base, extra = divmod(samples, shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


class _Mode(NamedTuple):
    target: Callable[[int, int, int], float]  # closed form of (n, m, r)
    draw: Callable  # (config, size, rng, povm) -> a chunk's arrays, a row per shot
    score: Callable  # (config, povm, stacked arrays) -> (shots, Bures deviation or None)
    values: Callable  # (config, rows) -> complex values' worth of a group's peak, shots aside
    takes_aux: bool  # whether r > 1 is allowed
    # (n, m, r) -> values a row holds from draw to score, which size a group
    # (``_group_rows``); None scores each chunk as it is drawn.
    row_values: Callable | None = None


def _cut_chunk(config: ExperimentConfig, size: int, rng: np.random.Generator, povm: CutPovm, checked=False):
    """Draw ``size`` Haar rows and cut each one through ``sample_outcome``:
    their shots, after the rest of ``_bures_deviation``'s inputs if
    ``checked`` (input rows, post-cut rows and (M,) subsets)."""
    n, r = config.n, config.r
    rows = sample_states(n * r, size, rng).reshape(size, n, r)
    shots = np.empty(size)
    if checked:
        posts = np.empty_like(rows)
        chosen = np.empty((size, config.m), dtype=np.intp)
    for i, row in enumerate(rows):
        outcome = sample_outcome(povm, BipartitePureState._trusted(row), rng)
        shots[i] = outcome.shot_fidelity
        if checked:
            posts[i] = outcome.post_state.matrix
            chosen[i] = outcome.subset.indices
    return (rows, posts, chosen, shots) if checked else (shots,)


def _cut_shots(config: ExperimentConfig, povm: CutPovm, drawn: list):
    """The shots of cut chunks, taken as they were drawn, and the largest
    Bures deviation of their check inputs if they were drawn checked."""
    return drawn[-1], _bures_deviation(*drawn) if len(drawn) > 1 else None


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


def _pending_rows(config: ExperimentConfig, rows: int) -> int:
    """Rows a group holds drawn and unscored at most, for chunks of ``rows``:
    up to a group's rows (``_group_rows``) if shards are no larger, else one chunk."""
    group = _group_rows(config)
    return min(group, config.samples) if rows <= group else rows


def _drawn_values(config: ExperimentConfig, rows: int) -> int:
    """N * R Haar amplitudes a row, held SAMPLER_PEAK times over while drawn,
    then once beside one shot's cut temporaries, about two rows."""
    return max(SAMPLER_PEAK * rows, rows + 2) * config.n * config.r


def _guess_values(config: ExperimentConfig, rows: int) -> int:
    """Pending draws of 2N + 1 doubles a row, twice over while stacked; scoring
    holds them, the weights and one ranking temporary, about 3N doubles a row."""
    return _pending_rows(config, rows) * (2 * config.n + 1)


def _checked_values(config: ExperimentConfig, rows: int) -> int:
    """``_drawn_values`` with the Bures check inputs pending (``_pending_rows``)
    until checked: input and post-cut rows (2 N R values a row), subsets
    (M / 2) and shots (1 / 2).  The check holds them and one sub-batch of
    ``_bures_row_values`` a shot three times over: under tracemalloc a
    sub-batch peaks at 1.3 times its values at (N, M, R) = (2, 1, 64), 1.6
    at (64, 8, 1), 2.1 at (16, 4, 4) and 2.6 at (3, 2, 2).  Pending chunks
    are held while the next is drawn, and twice over while stacked."""
    n, m, r = config.n, config.m, config.r
    pending = _pending_rows(config, rows)

    def held(count: int) -> int:
        return -(-count * (4 * n * r + m + 1) // 2)

    checked = min(pending, _bures_rows(n, m, r))
    return max(
        _drawn_values(config, rows) + held(pending - rows),
        held(pending) + 3 * checked * _bures_row_values(n, m, r),
        2 * held(pending) if pending > rows else 0,
    )


def _bures_row_values(n: int, m: int, r: int) -> int:
    """Values one shot's Bures check works on: its relabeled input and
    post-cut rows, (N + M) R, the eigenvectors of its reduced input,
    N min(N, R), and the M x M square root of its post-cut state."""
    return (n + m) * r + n * min(n, r) + m * m


def _bures_rows(n: int, m: int, r: int) -> int:
    """Shots per Bures sub-batch at (N, M, R): BURES_ENTRIES values."""
    return max(1, BURES_ENTRIES // _bures_row_values(n, m, r))


_MODES = {
    "pure": _Mode(analytic_entangled, _cut_chunk, _cut_shots, _drawn_values, False),
    "entangled": _Mode(analytic_entangled, _cut_chunk, _cut_shots, _drawn_values, True),
    "mixed": _Mode(
        analytic_entangled, functools.partial(_cut_chunk, checked=True), _cut_shots, _checked_values, True,
        _bures_row_values,
    ),
    # A row holds its angle doubles, in a buffer of N (``draw_angles``), and
    # its N + 1 subset doubles: N + 1 complex values.
    "state_estimation": _Mode(
        lambda n, m, r: analytic_state_estimation(n, m), _guess_draw, _guess_score, _guess_values, False,
        lambda n, m, r: n + 1,
    ),
}


def _group_rows(config: ExperimentConfig) -> int:
    """Rows a group of consecutive shards scores as one stack: at most one
    chunk, and GROUP_ENTRIES values of its mode's ``row_values`` (0 without)."""
    row_values = _MODES[config.mode].row_values
    if row_values is None:
        return 0
    return min(CHUNK, max(1, GROUP_ENTRIES // row_values(config.n, config.m, config.r)))


def check_memory(values: int, what: str) -> None:
    """Refuse a working set of ``values`` complex numbers above MEMORY_CAP."""
    if 16 * values > MEMORY_CAP:
        raise ValueError(
            f"{what} would hold {16 * values / 2**20:.0f} MiB at once, "
            f"above the {MEMORY_CAP // 2**20} MiB cap"
        )


def _shard_values(config: ExperimentConfig) -> int:
    """Complex values' worth of memory one group of shards of ``config``
    (``_groups``) holds at its peak: its largest shard draws one chunk of
    min(CHUNK, shard rows) rows at a time, its mode's working set
    (``_Mode.values``, which counts the group's pending chunks) and one 8 B
    shot value a row, half a complex value.  A group also holds GROUP_BYTES
    whatever its rows."""
    rows = min(CHUNK, -(-config.samples // config.shards))
    return GROUP_BYTES // 16 + -(-rows // 2) + _MODES[config.mode].values(config, rows)


def _workers(threads: int) -> int:
    """Threads a pool for ``threads`` starts at most: no more than CPUs."""
    return min(threads, os.cpu_count() or 1)


def _run_values(config: ExperimentConfig, threads: int = 1) -> int:
    """Complex values' worth of memory a run of ``config`` on ``threads``
    threads holds at its peak: the working sets (``_shard_values``) of the
    groups it runs at once, at most one per worker (``_workers``) and per
    shard, and each shard's SHARD_BYTES (THREADED_SHARD_BYTES in a pool)."""
    shards = min(config.shards, config.samples)
    if threads > 1:
        running, per_shard = min(_workers(threads), shards), THREADED_SHARD_BYTES
    else:
        running, per_shard = 1, SHARD_BYTES
    return running * _shard_values(config) + -(-per_shard * shards // 16)


def check_run(config: ExperimentConfig, threads: int = 1) -> None:
    """Refuse a run whose working set (``_run_values``) is above MEMORY_CAP."""
    check_memory(_run_values(config, threads), "a run")


def _bures_deviation(
    states: np.ndarray, posts: np.ndarray, chosen: np.ndarray, shots: np.ndarray
) -> float:
    """Largest |shot - Bures fidelity| over stacked (k, N, R) input and post-cut
    coefficient matrices, whose shots kept the (k, M) subsets ``chosen``.

    The reduced input and post-cut states are compared through the matrix
    square-root form, one sub-batch of ``_bures_rows(N, M, R)`` shots per call.
    """
    step = _bures_rows(states.shape[1], chosen.shape[1], states.shape[2])
    return max(
        _bures_sub_batch(*(part[lo : lo + step] for part in (states, posts, chosen, shots)))
        for lo in range(0, len(states), step)
    )


def _bures_sub_batch(
    states: np.ndarray, posts: np.ndarray, chosen: np.ndarray, shots: np.ndarray
) -> float:
    """``_bures_deviation`` of one sub-batch.

    A post-cut state is zero outside its subset, so its reduced state is
    taken on the M subset levels only.  Each row's levels are relabeled so
    that its subset comes first, in ascending order (as ``full_protocol``
    relabels them onto the channel), which is where ``bures_fidelity``
    places an M-level sigma.  A post-cut row with any weight outside its
    subset is refused, since the M-level state would not show it.  The
    density matrices and their eigenvectors are dropped on return, before
    the next sub-batch builds its own.
    """
    k, n = states.shape[:2]
    rows = np.arange(k)[:, None]
    kept = posts[rows, chosen]
    # The subset rows are distinct, so kept holds every nonzero entry of
    # posts exactly when nothing outside the subsets is nonzero.
    if np.count_nonzero(kept) != np.count_nonzero(posts):
        raise ValueError("a post-cut state has weight outside its subset")
    outside = np.ones((k, n), dtype=bool)
    outside[rows, chosen] = False
    # Subset levels first (False sorts first), each part in ascending order.
    order = np.argsort(outside, axis=1, kind="stable")
    rho_cut = partial_trace(kept)
    rho = partial_trace(states[rows, order])
    return float(np.max(np.abs(shots - bures_fidelity(rho, rho_cut))))


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
    chunks = [(shard, len(drawn[0])) for shard, drawn in pending]
    stacked = [
        arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        for arrays in zip(*(drawn for _, drawn in pending))
    ]
    pending.clear()
    shots, dev = _MODES[config.mode].score(config, povm, stacked)
    for (shard, size), end in zip(chunks, accumulate(size for _, size in chunks)):
        chunk = shots[end - size : end]
        total = math.fsum(memoryview(chunk))  # Python floats, cheaper to iterate than numpy scalars
        deviations = chunk - total / size
        np.square(deviations, out=deviations)
        part = (size, total, math.fsum(memoryview(deviations)), dev if end == len(shots) else None)
        parts[shard] = _merge((parts[shard], part)) if shard in parts else part


def _groups(sizes: list[int], rows: int):
    """Consecutive shards, as ranges of shard indices, that together hold at
    most ``rows`` rows (``_group_rows``); a larger shard is a group of its
    own, and so is every shard at ``rows`` = 0.  The groups depend on the
    shard sizes alone, never on the thread count."""
    start, held = 0, 0
    for shard, size in enumerate(sizes):
        if held + size > rows and shard > start:
            yield range(start, shard)
            start, held = shard, 0
        held += size
    yield range(start, len(sizes))


def _group(config: ExperimentConfig, sizes: list[int], shards: range):
    """The merge parts of ``shards``, in shard order.  Each shard draws its
    chunks of at most CHUNK rows from its own stream (``_Mode.draw``); they
    wait until they hold a group's rows or the group ends, and are then
    scored as one stack (``_score``).  Scoring draws no random numbers and
    acts row by row, so where a stack starts or ends changes no shot."""
    rows, povm = _group_rows(config), CutPovm(config.n, config.m)
    draw = _MODES[config.mode].draw
    pending, held, parts = [], 0, {}
    for shard in shards:
        rng, count = stream(config.seed, shard), sizes[shard]
        for start in range(0, count, CHUNK):
            size = min(CHUNK, count - start)
            pending.append((shard, draw(config, size, rng, povm)))
            held += size
            if held >= rows:
                _score(config, povm, pending, parts)
                held = 0
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
    its group's stack (``_groups``), and reports the worst disagreement.
    State estimation scores the weight of one guessed basis state of the
    outcome against (1 + 1/M)/(N+1).
    ``check_run`` refuses the run before any sampling if it would hold
    more than MEMORY_CAP bytes.
    """
    check_run(config, threads)
    mode = _MODES[config.mode]
    target = mode.target(config.n, config.m, config.r)
    sizes = _shard_sizes(config.samples, config.shards)
    groups = _groups(sizes, _group_rows(config))
    run = functools.partial(_group, config, sizes)
    if threads <= 1:
        parts = list(chain.from_iterable(map(run, groups)))
    else:
        # map yields in group order, so the parts come in shard order, the
        # order the variance merge fixes.
        with ThreadPoolExecutor(max_workers=_workers(threads)) as pool:
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
