"""Perfect qudit teleportation and the cut-then-teleport protocol.

The channel is the canonical maximally entangled M x M resource state
sum_i |i, i>/sqrt(M).  Alice projects her input qudit together with her
half of the channel onto the generalized Bell basis built from shift/phase
(Weyl) operators, sends the two outcome labels classically, and Bob applies
the matching Weyl correction.  For this resource the Bell measurement has a
closed form: every outcome (a, b) has probability exactly 1/M^2 and leaves
Bob the block omega^(-b I) c[(I + a) mod M, k] of the input's coefficient
matrix c, with omega = exp(2 pi i / M), and the correction is a phase
vector and a cyclic shift, so a teleport costs O(MR).
Teleportation itself is lossless for every outcome; the only approximation
in the full protocol is the dimension cut in front of it.  Storage is the
same protocol with the teleport step skipped, so it gets no separate code
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fidelity import overlap_fidelity
from .linalg import BipartitePureState
from .povm import CutPovm, MeasurementOutcome, sample_outcome


@dataclass(frozen=True, eq=False)
class ChannelState:
    """The canonical maximally entangled M x M resource shared by Alice and Bob."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("channel dimension must be positive")


@dataclass(frozen=True)
class ClassicalMessage:
    """The two Bell outcome labels Alice sends to Bob."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("outcome labels must be nonnegative")


@dataclass(frozen=True, eq=False)
class ProtocolRun:
    """Full cut-then-teleport transcript for one input state."""

    outcome: MeasurementOutcome
    message: ClassicalMessage
    final_state: BipartitePureState
    end_to_end_fidelity: float


def make_channel(m: int) -> ChannelState:
    """Resource state (1/sqrt(M)) sum_i |i, i> on M x M."""
    return ChannelState(m)


def _roll(rows: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(rows, shift, axis=0) for |shift| < M.

    np.roll costs as much as the rest of a small teleport, so the two
    slices are joined directly.
    """
    return np.concatenate((rows[-shift:], rows[:-shift]))


def _apply_weyl(block: np.ndarray, a: int, b: int) -> np.ndarray:
    """W_ab @ block in O(MR), for W_ab |k> = exp(2 pi i b k / M) |k + a mod M>.

    The phase is a vector over the M levels and the shift a cyclic roll of
    rows; the dense M x M operator is built only in the tests, as the oracle.
    """
    m = block.shape[0]
    phases = np.exp(2j * np.pi * b * np.arange(m) / m)
    return _roll(phases[:, None] * block, a)


def teleport(
    state,
    channel: ChannelState,
    rng: np.random.Generator | None = None,
    force_outcome: tuple[int, int] | None = None,
) -> tuple[ClassicalMessage, BipartitePureState]:
    """Teleport an M-dimensional (possibly entangled) state through the channel.

    Every Bell outcome (a, b) has probability 1/M^2, so one uniform draw
    picks it unless ``force_outcome`` pins it.  Bob's block for that outcome
    is omega^(-b I) c[(I + a) mod M, k] with omega = exp(2 pi i / M), and he
    applies the Weyl correction W_ab; both steps are O(MR).  The returned
    state equals the input up to floating-point round-off for every outcome.
    """
    m = channel.m
    c = state.matrix
    if c.shape[0] != m:
        raise ValueError(f"input system dimension {c.shape[0]} != channel m={m}")

    if force_outcome is not None:
        a, b = force_outcome
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"forced outcome ({a}, {b}) outside [0, {m})")
    else:
        if rng is None:
            raise ValueError("need an rng unless the outcome is forced")
        a, b = divmod(min(int(rng.random() * m * m), m * m - 1), m)

    phases = np.exp(-2j * np.pi * b * np.arange(m) / m)
    bob = phases[:, None] * _roll(c, -a)
    return ClassicalMessage(a, b), type(state)._trusted(_apply_weyl(bob, a, b))


def full_protocol(state, m: int, rng: np.random.Generator) -> ProtocolRun:
    """Cut an N-dimensional state down to M levels, teleport, and re-embed.

    The post-cut state is relabeled onto channel levels 0..M-1 in ascending
    subset order, and the inverse relabeling is applied to Bob's output.
    The end-to-end fidelity to the original input equals the cut's
    single-shot fidelity because the teleport step is lossless.
    """
    outcome = sample_outcome(CutPovm(state.matrix.shape[0], m), state, rng)
    idx = list(outcome.subset.indices)
    post_c = outcome.post_state.matrix
    build = type(state)._trusted
    message, received = teleport(build(post_c[idx]), make_channel(m), rng)
    final_c = np.zeros_like(post_c)
    final_c[idx] = received.matrix
    final = build(final_c)
    return ProtocolRun(outcome, message, final, overlap_fidelity(state, final))
