"""Haar-uniform pure state sampling and exact amplitude moments.

States on the unit sphere of C^N are parameterized by N-1 polar angles in
[0, pi/2] and N phases in [0, 2pi).  The matching surface measure factorizes
over the angles, which gives a branch-free inverse-CDF sampler: with
u_k = sin^2(theta_k), the k-th angle density is proportional to u^(N-k-1),
so u_k = v^(1/(N-k)) for v uniform on (0, 1).  ``sample_states`` applies
that map to whole batches of amplitudes, ``sample_weights`` stops at their
squared magnitudes; the angles mapped one amplitude at a time, and a
second (Gaussian) sampler, are the tests' oracles.

``exact_moment_fraction`` supplies the closed-form average of monomials in
the squared amplitudes (jointly flat-Dirichlet under this measure), which
the estimator modules use as an independent route.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import PureState

TWO_PI = 2.0 * math.pi
# Bytes ``sample_states`` holds while it draws, per byte it returns, rounded
# up: the output, one float array of its shape, and ufunc buffers.
SAMPLER_PEAK = 2


@dataclass(frozen=True)
class MomentSpec:
    """Monomial in the squared amplitudes: product over j of |c_j|^(2 m_j).

    ``exponents`` are those of the leading amplitudes; every later one has
    exponent 0.  The Haar moment is invariant under permutations of the
    amplitudes, so the exponents may sit on any of them.
    """

    dim: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        exps = tuple(map(operator.index, self.exponents))
        if len(exps) > self.dim:
            raise ValueError("more exponents than dimensions")
        if min(exps, default=0) < 0:
            raise ValueError("exponents must be nonnegative")
        if not any(exps):
            raise ValueError("at least one exponent must be positive")
        object.__setattr__(self, "exponents", exps)


def sample_state(dim: int, rng: np.random.Generator) -> PureState:
    """Draw one Haar-uniform pure state: one row of ``sample_states``."""
    return PureState._trusted(sample_states(dim, 1, rng).reshape(dim, 1))


def _draw_weights(dim: int, count: int, rng: np.random.Generator, dtype=float):
    """Draw the angles of ``count`` Haar rows of ``dim`` amplitudes as their weights |c|^2.

    Returns a (count, dim) array of ``dtype`` whose real part holds the
    weights, and the float array of its shape that held the angle doubles.
    With u_k = v_k^(1/(N-1-k)) the weights are 1 - u_0, then
    u_0 ... u_(k-1) * (1 - u_k), and last u_0 ... u_(N-2).  A ufunc whose
    operands cannot be walked with one stride each stages them through a
    buffer of up to 8192 values: each call here has at most one float
    operand of that kind, u's shape or smaller.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    out, scratch = np.empty((count, dim), dtype=dtype), np.empty((count, dim))
    weights = out.real
    u = scratch.reshape(-1)[: count * (dim - 1)].reshape(count, dim - 1)
    rng.random(out=u)
    np.power(u, 1.0 / (dim - 1 - np.arange(dim - 1)), out=u)
    np.cumprod(u, axis=1, out=weights[:, 1:])
    weights[:, 0] = 1.0
    np.subtract(1.0, u, out=u)
    np.multiply(weights[:, : dim - 1], u, out=u)
    weights[:, : dim - 1] = u
    return out, scratch


def sample_weights(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The weights |c|^2 of ``count`` Haar rows of ``dim`` amplitudes, taken
    before ``sample_states``' square root; its phase doubles are drawn and
    dropped, so the stream ends where ``sample_states`` leaves it."""
    weights, scratch = _draw_weights(dim, count, rng)
    rng.random(out=scratch)
    return weights


def sample_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized Haar sampling: ``count`` rows of ``dim`` amplitudes.

    The magnitudes are the square roots of the weights ``sample_weights``
    draws; the tests hold each row to the angles mapped one amplitude at a
    time, drawn in the same order.  The rows are built in place: besides
    the returned complex array the sampler holds one float array of its
    shape (see ``SAMPLER_PEAK``).
    """
    out, scratch = _draw_weights(dim, count, rng, complex)
    mags = out.real
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


def exact_moment_fraction(spec: MomentSpec) -> Fraction:
    """Exact rational value of E[prod |c_j|^(2 m_j)] under the Haar measure.

    The squared amplitudes are jointly flat-Dirichlet, so the moment is
    (N-1)! * prod(m_j!) / (N-1+sum(m_j))!.  It is computed as
    prod(m_j!) / (N (N+1) ... (N-1+sum(m_j))), in integer arithmetic over
    the nonzero exponents only.
    """
    total = sum(spec.exponents)
    numerator = math.prod(map(math.factorial, filter(None, spec.exponents)))
    return Fraction(numerator, math.perm(spec.dim - 1 + total, total))
