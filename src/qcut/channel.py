"""Perfect qudit teleportation and the cut-then-teleport protocol.

The channel is the maximally entangled M x M resource state.  Alice
projects her input qudit together with her half of the channel onto the
generalized Bell basis built from shift/phase (Weyl) operators, sends the
two outcome labels classically, and Bob applies the matching Weyl
correction.  Teleportation itself is lossless for every outcome; the only
approximation in the full protocol is the dimension cut in front of it.
Storage is the same protocol with the teleport step skipped, so it gets no
separate code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fidelity import overlap_fidelity
from .linalg import BipartitePureState, PureState, rebuild
from .povm import CutPovm, MeasurementOutcome, sample_outcome


@dataclass(frozen=True, eq=False)
class ChannelState:
    """Maximally entangled resource state shared by Alice and Bob."""

    m: int
    joint: BipartitePureState

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("channel dimension must be positive")
        if (self.joint.dim_sys, self.joint.dim_aux) != (self.m, self.m):
            raise ValueError("joint state must live on m x m")
        coeffs = np.linalg.svd(self.joint.matrix, compute_uv=False)
        if float(np.max(np.abs(coeffs - 1.0 / math.sqrt(self.m)))) > 1e-12:
            raise ValueError("channel state is not maximally entangled")


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
    final_state: PureState | BipartitePureState
    end_to_end_fidelity: float


def make_channel(m: int) -> ChannelState:
    """Resource state (1/sqrt(M)) sum_i |i, i> on M x M."""
    if m < 1:
        raise ValueError("channel dimension must be positive")
    coeffs = np.eye(m, dtype=complex) / math.sqrt(m)
    return ChannelState(m, BipartitePureState(m, m, coeffs.ravel()))


def weyl_operator(m: int, a: int, b: int) -> np.ndarray:
    """Shift/phase unitary W_ab |k> = exp(2 pi i b k / M) |k + a mod M>."""
    if not (0 <= a < m and 0 <= b < m):
        raise ValueError(f"labels ({a}, {b}) outside [0, {m})")
    w = np.zeros((m, m), dtype=complex)
    for k in range(m):
        w[(k + a) % m, k] = np.exp(2j * np.pi * b * k / m)
    return w


@lru_cache(maxsize=None)
def _bell_tensor(m: int) -> np.ndarray:
    """All M^2 generalized Bell vectors, indexed [a, b, alice, alice']."""
    bell = np.zeros((m, m, m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            for i in range(m):
                bell[a, b, (i + a) % m, i] = np.exp(2j * np.pi * b * i / m) / math.sqrt(m)
    bell.setflags(write=False)
    return bell


def teleport(
    state,
    channel: ChannelState,
    rng: np.random.Generator | None = None,
    force_outcome: tuple[int, int] | None = None,
) -> tuple[ClassicalMessage, PureState | BipartitePureState]:
    """Teleport an M-dimensional (possibly entangled) state through the channel.

    Alice's two qudits are projected onto each of the M^2 Bell vectors; the
    outcome is drawn from the resulting probabilities (uniform 1/M^2) unless
    ``force_outcome`` pins it, and Bob applies the Weyl correction.  The
    returned state equals the input up to floating-point round-off for
    every outcome.
    """
    m = channel.m
    c = state.matrix
    if c.shape[0] != m:
        raise ValueError(f"input system dimension {c.shape[0]} != channel m={m}")

    # Joint amplitudes over (alice_in, aux, alice_half, bob_half), then
    # projection of the two Alice slots onto every Bell vector at once.
    joint = np.einsum("jk,iI->jkiI", c, channel.joint.matrix)
    projected = np.einsum("abji,jkiI->abIk", _bell_tensor(m).conj(), joint)
    probs = np.sum(np.abs(projected) ** 2, axis=(2, 3))

    if force_outcome is not None:
        a, b = force_outcome
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"forced outcome ({a}, {b}) outside [0, {m})")
    else:
        if rng is None:
            raise ValueError("need an rng unless the outcome is forced")
        flat = np.cumsum(probs.ravel())
        pick = int(np.searchsorted(flat, rng.random() * flat[-1], side="right"))
        a, b = divmod(min(pick, m * m - 1), m)

    bob = projected[a, b] / math.sqrt(probs[a, b])
    corrected = weyl_operator(m, a, b) @ bob
    return ClassicalMessage(a, b), rebuild(state, corrected)


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
    message, received = teleport(rebuild(state, post_c[idx]), make_channel(m), rng)
    final_c = np.zeros_like(post_c)
    final_c[idx] = received.matrix
    final = rebuild(state, final_c)
    return ProtocolRun(outcome, message, final, overlap_fidelity(state, final))
