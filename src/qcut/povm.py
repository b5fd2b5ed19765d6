"""The dimension-cutting POVM.

The measurement family is indexed by the M-element subsets of the N basis
states.  Each element is the uniform projector mixture over one subset,
scaled by 1/norm_const with norm_const = C(N-1, M-1), which is exactly what
makes the family resolve the identity: every basis index appears in
C(N-1, M-1) subsets.

Elements are kept implicit as index subsets, and outcome sampling never
enumerates the C(N, M) subsets.  Instead a pivot index j is drawn with
probability equal to the state's j-th squared-amplitude weight and the
remaining M-1 indices are drawn uniformly among the other N-1.  Each
subset is reached once per contained pivot, so its total probability is
(1/norm_const) * sum of its weights, the Born probability of the
corresponding element.  A brute-force enumeration test discharges this
equivalence.  ``sample_subsets`` draws the subsets of many states at once
(``draw_subsets``, then ``rank_subsets``), with the same draws and arithmetic.

Every input is a pure state, cut by one kernel acting on its (N, R)
coefficient matrix (a ``PureState`` is R = 1); a mixed state enters as its
purification, whose cut reduces to the cut of the mixed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import BipartitePureState, PureState, _coefficients
from .rng import _integer

ENUMERATION_CAP = 10**6
# Masks per array of the completeness pass.
MASK_CHUNK = 2**15


@dataclass(frozen=True)
class SubsetIndex:
    """Strictly increasing tuple of basis indices defining one POVM element."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(_integer(index, "index", 0) for index in self.indices)
        if not idx:
            raise ValueError("subset must be nonempty")
        if list(idx) != sorted(set(idx)):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        _set_array(self, np.array(idx, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.indices)

    @classmethod
    def _trusted(cls, chosen: np.ndarray) -> "SubsetIndex":
        # Validation bypass for a subset the sampler just drew: a sorted
        # intp array of distinct in-range indices.
        obj = object.__new__(cls)
        object.__setattr__(obj, "indices", tuple(chosen.tolist()))
        _set_array(obj, chosen)
        return obj


def _set_array(subset: SubsetIndex, arr: np.ndarray) -> None:
    # The indices as a read-only intp array, for gathers on every use.
    arr.setflags(write=False)
    object.__setattr__(subset, "_array", arr)


@dataclass(frozen=True)
class CutPovm:
    """Cutting POVM from dimension n down to m, with its normalization."""

    n: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        object.__setattr__(self, "m", _integer(self.m, "m", 1, self.n))

    @cached_property
    def norm_const(self) -> int:
        """C(N-1, M-1), computed on its first read and kept by this POVM only."""
        return math.comb(self.n - 1, self.m - 1)


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One sampled cut: its POVM, the subset, the subset weight W_S, the
    post-measurement state, and its single-shot fidelity to the input."""

    povm: CutPovm
    subset: SubsetIndex
    weight: float
    post_state: BipartitePureState
    shot_fidelity: float

    def __post_init__(self):
        if not -1e-12 <= self.weight <= 1.0 + 1e-12:
            raise ValueError(f"subset weight {self.weight} outside [0, 1]")
        if not -1e-12 <= self.shot_fidelity <= 1.0 + 1e-12:
            raise ValueError(f"shot fidelity {self.shot_fidelity} outside [0, 1]")

    @property
    def probability(self) -> float:
        """W_S / C(N-1, M-1), rounded once from the exact ratio: a subnormal
        or 0.0 past the float range.  Reading it computes ``povm.norm_const``."""
        num, den = self.weight.as_integer_ratio()
        return num / (den * self.povm.norm_const)


def _validate_subset(povm: CutPovm, subset: SubsetIndex) -> np.ndarray:
    if len(subset) != povm.m or subset.indices[-1] >= povm.n:
        raise ValueError(f"subset {subset.indices} invalid for n={povm.n}, m={povm.m}")
    return subset._array


def _project(povm: CutPovm, subset: SubsetIndex, state):
    """Renormalized projection of the system rows onto the subset.

    Returns the post-measurement state, of the input's type, and the
    single-shot fidelity: the squared overlap between input and projected
    state, computed from the coefficient matrices themselves.
    """
    c = state.matrix
    if c.shape[0] != povm.n:
        raise ValueError(f"system dimension {c.shape[0]} != povm n={povm.n}")
    idx = _validate_subset(povm, subset)
    if povm.m == povm.n:
        # The single full subset scales the state by a positive constant.
        return state, 1.0
    kept = c[idx]
    kept_weight = float((np.abs(kept) ** 2).sum())
    if kept_weight <= 0.0:
        raise ValueError(f"outcome {subset.indices} has zero probability")
    post = np.zeros(c.shape, dtype=complex)
    post[idx] = kept / math.sqrt(kept_weight)
    return type(state)._trusted(post), float(abs(np.vdot(c, post)) ** 2)


def project_pure(povm: CutPovm, subset: SubsetIndex, state: PureState) -> tuple[PureState, float]:
    """Cut a pure state: the R = 1 case of the projection kernel."""
    return _project(povm, subset, state)


def project_bipartite(
    povm: CutPovm, subset: SubsetIndex, state: BipartitePureState
) -> tuple[BipartitePureState, float]:
    """Cut the system half of an entangled state, leaving the auxiliary alone."""
    return _project(povm, subset, state)


def sample_outcome(
    povm: CutPovm, state: BipartitePureState, rng: np.random.Generator
) -> MeasurementOutcome:
    """Draw one measurement outcome, whose probability is computed on read.

    ``state`` is a pure state with an (N, R) coefficient matrix (a
    ``PureState`` is R = 1); a mixed state enters as its purification, and
    a ``DensityMatrix`` is refused before any draw.  Pivot sampling: draw
    index j with probability weight_j, then complete the subset with M-1
    uniform partners among the other N-1 indices (implemented by ranking
    random keys, with the pivot's key forced smallest).  Runs in O(N) per
    draw for any subset count.
    """
    n, m = povm.n, povm.m
    w = (np.abs(_coefficients(state)) ** 2).sum(axis=1)
    if len(w) != n:
        raise ValueError(f"state dimension {len(w)} != povm n={povm.n}")
    if m == n:
        chosen = np.arange(n)
    else:
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("state has no weight to measure")
        pivot = int(np.searchsorted(np.cumsum(w), rng.random() * total, side="right"))
        keys = rng.random(n)
        keys[min(pivot, n - 1)] = -1.0
        chosen = np.sort(np.argpartition(keys, m - 1)[:m])
    subset = SubsetIndex._trusted(chosen)
    project = project_pure if isinstance(state, PureState) else project_bipartite
    post, fidelity = project(povm, subset, state)
    return MeasurementOutcome(povm, subset, float(w[chosen].sum()), post, fidelity)


def sample_subsets(povm: CutPovm, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one subset per row of a (k, N) weight array: (k, M) sorted indices,
    each the subset ``sample_outcome`` draws for that row, bit for bit."""
    return rank_subsets(povm, weights, draw_subsets(povm, len(weights), rng))


def draw_subsets(povm: CutPovm, count: int, rng: np.random.Generator) -> np.ndarray:
    """The draw half of ``sample_subsets``: one ``rng.random((k, N + 1))``
    call gives each row its pivot draw (column 0) and its N partner keys,
    the doubles that k calls of ``sample_outcome`` take, in their order.
    M = N draws nothing: a (k, 0) array."""
    return rng.random((count, povm.n + 1 if povm.m < povm.n else 0))


def rank_subsets(povm: CutPovm, weights: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The ranking half of ``sample_subsets``: the (k, M) sorted subsets of
    a (k, N) weight array's rows from their ``draw_subsets`` doubles, which
    it overwrites, row by row.  The arithmetic is ``sample_outcome``'s: the
    row total, the running sums, and the pivot as the count of running sums
    at most the pivot target (its ``searchsorted``), clamped to N - 1 by
    counting the first N - 1 only."""
    n, m = povm.n, povm.m
    if weights.ndim != 2 or weights.shape[1] != n:
        raise ValueError(f"weights of shape {weights.shape} need (k, {n})")
    k = len(weights)
    if m == n:
        return np.tile(np.arange(n), (k, 1))
    total = weights.sum(axis=1)
    if not np.all(total > 0.0):
        raise ValueError("state has no weight to measure")
    # Each row's pivot target u * total replaces its u; the keys follow it.
    # Every array is dropped as soon as it is used, the draws too if the
    # caller holds no other reference to them.
    targets, keys = draws[:, :1], draws[:, 1:]
    np.multiply(targets, total[:, None], out=targets)
    del total
    pivot = np.count_nonzero(np.cumsum(weights[:, :-1], axis=1) <= targets, axis=1)
    keys[np.arange(k), pivot] = -1.0
    del pivot
    ranked = np.argpartition(keys, m - 1, axis=1)
    del draws, targets, keys
    return np.sort(ranked[:, :m], axis=1)


def _mask_chunks(stop: int):
    """The bitmasks 0, 1, ..., stop - 1 in ascending int64 arrays of at most
    ``MASK_CHUNK`` masks each: every subset of range(N), for stop = 2^N,
    with bit j standing for index j (mask 0, the empty subset, holds none)."""
    for start in range(0, stop, MASK_CHUNK):
        yield np.arange(start, min(start + MASK_CHUNK, stop), dtype=np.int64)


def _subset_counts(max_n: int) -> np.ndarray:
    """counts[N, M, j]: how many M-subsets of range(N) hold index j, for
    every N <= max_n, from one ascending pass over the masks below 2^max_n.

    The subsets of range(N) are exactly the masks below 2^N, those of bit
    length at most N.  Each chunk is histogrammed by (bit length, size),
    with one ``bincount`` per index j over the masks that hold it: the upper
    half of each period of 2^(j+1) masks, a strided view of the chunk's whole
    periods beside the partial ones at its edges.  A running sum over the bit
    length then gives each N's counts.  A chunk holds a few arrays of
    ``MASK_CHUNK`` values, whatever max_n is.
    """
    width = max_n + 1
    hist = np.zeros((max_n, width * width), dtype=np.int64)
    for masks in _mask_chunks(1 << max_n):
        # A mask below 2^53 is an exact double, and frexp's exponent is its
        # bit length.
        keys = np.frexp(masks)[1].astype(np.int64) * width + np.bitwise_count(masks)
        start = int(masks[0])  # the masks are consecutive: the i-th is start + i
        for j in range(max_n):
            run, period = 1 << j, 2 << j
            first = -start % period  # the chunk's first period edge, and its last
            last = first + max(len(keys) - first, 0) // period * period
            whole = keys[first:last].reshape(-1, period)[:, run:]
            held = np.concatenate((keys[max(first - run, 0) : first], whole, keys[last + run :]), axis=None)
            hist[j] += np.bincount(held, minlength=width * width)
    return np.cumsum(hist.reshape(max_n, width, width), axis=1).transpose(1, 2, 0)


def _max_completeness_deviation(max_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(worst, norms): int64 arrays indexed [N, M] whose ratio
    worst[N, M] / norms[N, M], for every 1 <= M <= N <= max_n, is the max
    deviation of the summed N -> M POVM elements from the identity.

    The sum is diagonal, so the deviation is the worst diagonal entry: how
    far each index's count over every enumerated M-subset is from
    norms[N, M] = norm_const, an exact integer pair.  A sweep whose widest
    row, C(max_n, max_n // 2) subsets, exceeds ``ENUMERATION_CAP`` is
    refused, in the terms of ``qcut verify``, before any array exists.
    """
    widest = math.comb(max_n, max_n // 2)
    if widest > ENUMERATION_CAP:
        cap = f"above the enumeration cap {ENUMERATION_CAP}"
        raise ValueError(f"verify --max-n {max_n} would enumerate {widest} subsets, {cap}")
    sizes = range(max_n + 1)
    norms = np.array([[math.comb(n - 1, m - 1) if n and m else 0 for m in sizes] for n in sizes])
    held = np.arange(max_n) < np.arange(max_n + 1)[:, None, None]  # j in range(N)
    off = np.abs(_subset_counts(max_n) - norms[:, :, None])
    return off.max(axis=2, where=held, initial=0), norms
