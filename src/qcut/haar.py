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

import numpy as np

from .linalg import PureState
from .rng import _integer

TWO_PI = 2.0 * math.pi
# Bytes ``sample_states`` holds while it draws, per byte it returns, rounded
# up: the output, one float array of its shape, and ufunc buffers.
SAMPLER_PEAK = 2


def sample_state(dim: int, rng: np.random.Generator) -> PureState:
    """Draw one Haar-uniform pure state: one row of ``sample_states``."""
    return PureState._trusted(sample_states(dim, 1, rng).reshape(-1, 1))


def draw_angles(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The draw half of ``sample_weights``: the (count, dim - 1) angle doubles
    of ``count`` Haar rows, with their phase doubles drawn next and dropped,
    so the stream ends where ``sample_states`` leaves it."""
    dim, count = _integer(dim, "dim", 1), _integer(count, "count", 0)
    angles = rng.random((count, dim - 1))
    rng.random((count, dim))
    return angles


def angle_weights(angles: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The weight-map half of ``sample_weights``: the (count, dim) weights
    |c|^2 of (count, dim - 1) angle doubles v, which it overwrites, in ``out``
    (a float array or a complex one's real view, apart from the angles) or
    else in a new array.  With u_k = v_k^(1/(N-1-k)) the weights are 1 - u_0,
    then u_0 ... u_(k-1) * (1 - u_k), and last u_0 ... u_(N-2).
    A ufunc whose operands cannot be walked with one stride each stages them
    through a buffer of up to 8192 values: each call here has at most one
    float operand of that kind, u's shape or smaller."""
    count, dim = angles.shape[0], angles.shape[1] + 1
    out = np.empty((count, dim)) if out is None else out
    u = np.power(angles, 1.0 / (dim - 1 - np.arange(dim - 1)), out=angles)
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
    dim, count = _integer(dim, "dim", 1), _integer(count, "count", 0)
    scratch = np.empty((count, dim))
    angles = scratch.reshape(-1)[: count * (dim - 1)].reshape(count, dim - 1)
    rng.random(out=angles)
    out = np.empty(scratch.shape, dtype=complex)
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
    return bool(np.logical_and.reduce(cases, axis=None)) if isinstance(cases, np.ndarray) else cases


def _check_cases(*bounds) -> tuple:
    """The values of ``bounds``, (value, name, low, high) each, as ``rng._integer`` checks
    them in order (a ``high`` may be an earlier value, and a fifth entry lowers it by that
    much once the bounds before it hold): ints as Python ints, equal-shaped arrays of cases
    as they are.  An array whose dtype is not an integer one is refused by name; the first
    case out of bounds, or of an object array's non-ints, as its ints."""
    values = next(zip(*bounds))
    if not any(isinstance(value, np.ndarray) for value in values):
        return tuple(_integer(v, name, low, high - less[0] if less else high) for v, name, low, high, *less in bounds)
    in_bounds = True  # while every case is known to be in bounds, and an int
    for value, name, low, high, *less in bounds:
        if not isinstance(value, np.ndarray):
            in_bounds = in_bounds and low <= _integer(value, name)
        elif value.dtype.kind not in "iuO":
            raise ValueError(f"{name} of dtype {value.dtype} is not an integer array")
        else:  # an object array is in bounds only if it holds Python ints, as ``_exact``'s do
            ints = value.dtype.kind != "O" or all(type(case) is int for case in value.flat)
            in_bounds = in_bounds and ints and low <= np.minimum.reduce(value, initial=low)
        in_bounds = in_bounds and (high is None or _all(value <= (high - less[0] if less else high)))
    if not in_bounds:
        for at in range(np.broadcast(*values).size):
            _check_cases(*(tuple(v.flat[at] if isinstance(v, np.ndarray) else v for v in bound) for bound in bounds))
    return values


def _exact(entries: tuple, factors: int) -> tuple:
    """``entries``, equal-shaped integer arrays or ints, ready for exact
    arithmetic that multiplies at most ``factors`` of them at a time.

    The arrays become int64 if the largest entry, raised to ``factors``, is
    below EXACT_INT: then every product, and every sum of products that
    shares their bound, is an exact double.  Otherwise they become Python
    ints (object arrays), which never overflow.  Ints stay as they are;
    NumPy scalars, which arithmetic on 0-d arrays returns, count as arrays.
    One bound serves every array: the extremes of their flattened join, as
    Python ints, so that no absolute value overflows.
    """
    arrays = [entry for entry in entries if isinstance(entry, _NUMPY)]
    if not arrays:
        return entries
    joined = np.concatenate(arrays, axis=None)
    ints = [abs(entry) for entry in entries if not isinstance(entry, _NUMPY)]
    top = max(int(np.maximum.reduce(joined)), -int(np.minimum.reduce(joined)), *ints)
    dtype = np.int64 if top**factors < EXACT_INT else object
    return tuple([
        entry.astype(dtype, copy=False) if isinstance(entry, _NUMPY) else entry
        for entry in entries
    ])


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
    (dim,) = _check_cases((dim, "dim", 1, None))
    exps = tuple(_integer(exp, "exponent", 0) for exp in exponents)
    if not _all(dim >= len(exps)):
        raise ValueError("more exponents than dimensions")
    if not any(exps):
        raise ValueError("at least one exponent must be positive")
    total = sum(exps)
    (top,) = _exact((dim + (total - 1),), total)
    return math.prod(map(math.factorial, exps)), math.prod((top - k for k in range(1, total)), start=top)
