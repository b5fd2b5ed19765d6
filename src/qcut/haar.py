"""Haar-uniform pure state sampling and exact amplitude moments.

States on the unit sphere of C^N are parameterized by N-1 polar angles in
[0, pi/2] and N phases in [0, 2pi).  The matching surface measure factorizes
over the angles, which gives a branch-free inverse-CDF sampler: with
u_k = sin^2(theta_k), the k-th angle density is proportional to u^(N-k-1),
so u_k = v^(1/(N-k)) for v uniform on (0, 1).  ``sample_states`` applies
that map to whole batches of amplitudes, ``sample_weights`` (``draw_angles``
then ``angle_weights``) stops at their squared magnitudes; the angles mapped
one amplitude at a time, and a second (Gaussian) sampler, are the tests' oracles.

``exact_moment_fraction`` supplies the closed-form average of monomials in
the squared amplitudes (jointly flat-Dirichlet under this measure) as an
exact integer pair, on one dimension or on an integer array of them, which
the estimator modules use as an independent route.  ``_exact`` is the rule
every exact array route shares: int64 while each product stays below 2^53,
Python ints beyond.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .linalg import PureState

TWO_PI = 2.0 * math.pi
# Bytes ``sample_states`` holds while it draws, per byte it returns, rounded
# up: the output, one float array of its shape, and ufunc buffers.
SAMPLER_PEAK = 2


def sample_state(dim: int, rng: np.random.Generator) -> PureState:
    """Draw one Haar-uniform pure state: one row of ``sample_states``."""
    return PureState._trusted(sample_states(dim, 1, rng).reshape(dim, 1))


def _angle_buffer(dim: int, count: int, rng: np.random.Generator):
    """A (count, dim) buffer, and its head: the (count, dim - 1) angle doubles drawn."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    buffer = np.empty((count, dim))
    angles = buffer.reshape(-1)[: count * (dim - 1)].reshape(count, dim - 1)
    rng.random(out=angles)
    return buffer, angles


def draw_angles(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The draw half of ``sample_weights``: the (count, dim - 1) angle doubles
    of ``count`` Haar rows, with their phase doubles drawn next and dropped,
    so the stream ends where ``sample_states`` leaves it.  The angles lead
    a (count, dim) buffer, their ``base``, which ``angle_weights`` fills."""
    _, angles = _angle_buffer(dim, count, rng)
    rng.random((count, dim))
    return angles


def angle_weights(angles: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The weight-map half of ``sample_weights``: the (count, dim) weights
    |c|^2 of (count, dim - 1) angle doubles v, which it overwrites, row by
    row, into ``out`` (a float array or a complex one's real view), else
    into the (count, dim) float buffer the angles lead (``draw_angles``),
    which spares a chunk a fresh array and its page faults, else into a new
    array.  With u_k = v_k^(1/(N-1-k)) the weights are 1 - u_0, then
    u_0 ... u_(k-1) * (1 - u_k), and last u_0 ... u_(N-2).  A ufunc whose
    operands cannot be walked with one stride each stages them through a
    buffer of up to 8192 values: each call here has at most one float
    operand of that kind, u's shape or smaller."""
    count, dim = angles.shape[0], angles.shape[1] + 1
    if out is None:
        base = angles.base
        own = base is not None and base.shape == (count, dim) and base.dtype == np.float64
        out = base if own else np.empty((count, dim))
    # u overwrites the angles unless the weights will.
    exps = 1.0 / (dim - 1 - np.arange(dim - 1))
    u = np.power(angles, exps, out=None if np.may_share_memory(angles, out) else angles)
    np.cumprod(u, axis=1, out=out[:, 1:])
    out[:, 0] = 1.0
    np.subtract(1.0, u, out=u)
    np.multiply(out[:, : dim - 1], u, out=u)
    out[:, : dim - 1] = u
    return out


def sample_weights(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The weights |c|^2 of ``count`` Haar rows of ``dim`` amplitudes, taken
    before ``sample_states``' square root, from its draws."""
    return angle_weights(draw_angles(dim, count, rng))


def sample_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized Haar sampling: ``count`` rows of ``dim`` amplitudes.

    The magnitudes are the square roots of the weights ``sample_weights``
    draws; the tests hold each row to the angles mapped one amplitude at a
    time, drawn in the same order.  The rows are built in place: besides
    the returned complex array the sampler holds one float array of its
    shape (see ``SAMPLER_PEAK``), whose leading part first holds the angles.
    """
    scratch, angles = _angle_buffer(dim, count, rng)
    out = np.empty((count, dim), dtype=complex)
    mags = angle_weights(angles, out.real)
    np.sqrt(mags, out=mags)
    # The phases are drawn next, into the scratch; then the magnitudes wait
    # there while exp(i phi) is formed in place and multiplied by them, one
    # part at a time (a complex-by-float product would buffer a cast).
    rng.random(out=scratch)
    np.multiply(scratch, TWO_PI, out=out.imag)
    np.copyto(scratch, mags)
    mags[...] = 0.0
    np.exp(out, out=out)
    np.multiply(out.real, scratch, out=out.real)
    np.multiply(out.imag, scratch, out=out.imag)
    return out


# Integers below 2^53 are exact doubles, so a quotient of two int64 values
# below it, each converted to float64, is rounded as int / int rounds it.
EXACT_INT = 2**53
_NUMPY = (np.ndarray, np.generic)


def _all(cases) -> bool:
    """Whether a condition holds: a bool, or a bool array that holds it case by case."""
    return bool(cases.all()) if isinstance(cases, np.ndarray) else cases


def _exact(entries: tuple, factors: int) -> tuple:
    """``entries``, equal-shaped integer arrays or ints, ready for exact
    arithmetic that multiplies at most ``factors`` of them at a time.

    The arrays become int64 if the largest entry, raised to ``factors``, is
    below EXACT_INT: then every product, and every sum of products that
    shares their bound, is an exact double.  Otherwise they become Python
    ints (object arrays), which never overflow.  Ints stay as they are;
    NumPy scalars, which arithmetic on 0-d arrays returns, count as arrays.
    """
    if not any(isinstance(entry, _NUMPY) for entry in entries):
        return entries
    top = max(
        int(np.max(abs(entry))) if isinstance(entry, _NUMPY) else abs(entry)
        for entry in entries
    )
    dtype = np.int64 if top**factors < EXACT_INT else object
    return tuple(
        entry.astype(dtype, copy=False) if isinstance(entry, _NUMPY) else entry
        for entry in entries
    )


def exact_moment_fraction(dim, exponents: tuple[int, ...]) -> tuple:
    """Exact E[prod |c_j|^(2 m_j)] under the Haar measure on C^dim, as the
    integer pair (prod(m_j!), dim (dim+1) ... (dim-1+sum(m_j))).

    ``exponents`` are those of the leading amplitudes; every later one has
    exponent 0.  The moment is invariant under permutations of the
    amplitudes, so the exponents may sit on any of them.  The squared
    amplitudes are jointly flat-Dirichlet, so the moment is
    (dim-1)! * prod(m_j!) / (dim-1+sum(m_j))!, reduced here by (dim-1)!.
    ``dim`` is an int, for one moment, or an integer array, for the
    moments on each of its dims: the numerator stays one int and the
    denominator is formed under ``_exact``'s rule, one factor at a time.
    """
    if not _all(dim >= 1):
        raise ValueError("dimension must be positive")
    exps = tuple(map(operator.index, exponents))
    if not _all(dim >= len(exps)):
        raise ValueError("more exponents than dimensions")
    if min(exps, default=0) < 0:
        raise ValueError("exponents must be nonnegative")
    if not any(exps):
        raise ValueError("at least one exponent must be positive")
    total = sum(exps)
    (top,) = _exact((dim - 1 + total,), total)
    return math.prod(map(math.factorial, exps)), math.prod(top - k for k in range(total))
