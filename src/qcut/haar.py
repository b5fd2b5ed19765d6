"""Haar-uniform pure state sampling and exact amplitude moments.

States on the unit sphere of C^N are parameterized by N-1 polar angles in
[0, pi/2] and N phases in [0, 2pi).  The matching surface measure factorizes
over the angles, which gives a branch-free inverse-CDF sampler: with
u_k = sin^2(theta_k), the k-th angle density is proportional to u^(N-k-1),
so u_k = v^(1/(N-k)) for v uniform on (0, 1).

``exact_moment`` supplies the closed-form average of monomials in the
squared amplitudes (jointly flat-Dirichlet under this measure), which the
estimator modules use as an independent oracle.
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


@dataclass(frozen=True, eq=False)
class HypersphericalPoint:
    """Angular coordinates of a point on the unit sphere of C^N.

    ``thetas`` holds the N-1 polar angles in [0, pi/2]; ``phis`` holds the
    N phases in [0, 2pi).  The global phase is kept so that the coordinate
    map stays a bijection onto the sphere.
    """

    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        thetas = np.array(self.thetas, dtype=float)
        phis = np.array(self.phis, dtype=float)
        if thetas.ndim != 1 or phis.ndim != 1 or len(phis) != len(thetas) + 1:
            raise ValueError("need N-1 polar angles and N phases")
        if np.any(thetas < 0.0) or np.any(thetas > math.pi / 2):
            raise ValueError("polar angles must lie in [0, pi/2]")
        if np.any(phis < 0.0) or np.any(phis >= TWO_PI):
            raise ValueError("phases must lie in [0, 2*pi)")
        thetas.setflags(write=False)
        phis.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "phis", phis)

    @property
    def dim(self) -> int:
        return len(self.phis)


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


def point_to_state(p: HypersphericalPoint) -> PureState:
    """Map angular coordinates to the amplitude vector they parameterize.

    amp_k = (prod of sin(theta_l) for l < k) * cos(theta_k) * e^(i phi_k)
    for k < N-1, and the last amplitude carries the full sine product.
    """
    n = p.dim
    amps = np.empty(n, dtype=complex)
    sines = np.sin(p.thetas)
    cosines = np.cos(p.thetas)
    prefix = 1.0
    for k in range(n - 1):
        amps[k] = prefix * cosines[k] * np.exp(1j * p.phis[k])
        prefix *= sines[k]
    amps[n - 1] = prefix * np.exp(1j * p.phis[n - 1])
    return PureState(n, amps)


def _angle_density(thetas: np.ndarray) -> float:
    n = len(thetas) + 1
    if n == 1:
        return 1.0
    sin2 = np.sin(thetas) ** 2
    powers = n - 2 - np.arange(n - 1)
    return float(np.prod(np.cos(thetas) * np.sin(thetas) * sin2**powers))


def measure_density(p: HypersphericalPoint) -> float:
    """Density of the unitarily invariant surface measure.

    Relative to the flat measure prod(d theta_k) * prod(d phi_k); phases do
    not appear because the measure is uniform in each of them.
    """
    return _angle_density(p.thetas)


def jacobian(r: float, thetas) -> float:
    """Volume element factor for the radial coordinate map on C^N.

    Equals r^(2N-1) times the angular density; at r = 1 it reduces to the
    surface element used by ``measure_density``.
    """
    thetas = np.asarray(thetas, dtype=float)
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if np.any(thetas < 0.0) or np.any(thetas > math.pi / 2):
        raise ValueError("polar angles must lie in [0, pi/2]")
    n = len(thetas) + 1
    return r ** (2 * n - 1) * _angle_density(thetas)


def total_surface_measure(dim: int) -> float:
    """Total mass of the surface measure on the unit sphere of C^dim."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return TWO_PI**dim / float(2 ** (dim - 1) * math.factorial(dim - 1))


def sample_point(dim: int, rng: np.random.Generator) -> HypersphericalPoint:
    """Draw angular coordinates distributed per the invariant measure."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if dim == 1:
        thetas = np.empty(0)
    else:
        v = rng.random(dim - 1)
        u = v ** (1.0 / (dim - 1 - np.arange(dim - 1)))
        thetas = np.arcsin(np.sqrt(u))
    phis = rng.random(dim) * TWO_PI
    return HypersphericalPoint(thetas, phis)


def sample_state(dim: int, rng: np.random.Generator) -> PureState:
    """Draw one Haar-uniform pure state: one row of ``sample_states``.

    It makes the draws of ``point_to_state(sample_point(dim, rng))``, in the
    same order, and the tests hold the two to the same amplitudes.
    """
    return PureState._trusted(sample_states(dim, 1, rng).reshape(dim, 1))


def sample_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized Haar sampling: ``count`` rows of ``dim`` amplitudes.

    Applies the inverse-CDF map of ``sample_point`` and ``point_to_state``
    to whole batches; the two routes are checked against each other.  The
    rows are built in place: besides the returned complex array the
    sampler holds one float array of its shape (see ``SAMPLER_PEAK``).
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = np.empty((count, dim), dtype=complex)
    mags, scratch = out.real, np.empty((count, dim))
    # u_k = v_k^(1/(N-1-k)); magnitudes sqrt(1 - u_0), then
    # sqrt(u_0 ... u_(k-1) * (1 - u_k)), and last sqrt(u_0 ... u_(N-2)).
    # A ufunc whose operands cannot be walked with one stride each stages
    # them through a buffer of up to 8192 values: each such call below has
    # at most one float operand of that kind, u's shape or smaller.
    u = scratch.reshape(-1)[: count * (dim - 1)].reshape(count, dim - 1)
    rng.random(out=u)
    np.power(u, 1.0 / (dim - 1 - np.arange(dim - 1)), out=u)
    np.cumprod(u, axis=1, out=mags[:, 1:])
    mags[:, 0] = 1.0
    np.subtract(1.0, u, out=u)
    np.multiply(mags[:, : dim - 1], u, out=u)
    mags[:, : dim - 1] = u
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


def sample_state_gaussian(dim: int, rng: np.random.Generator) -> PureState:
    """Independent Haar sampler: normalize a complex Gaussian vector."""
    return PureState(dim, sample_states_gaussian(dim, 1, rng)[0])


def sample_states_gaussian(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized Gaussian-normalization sampler, ``count`` rows."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    z = rng.standard_normal((count, 2 * dim))
    c = z[:, :dim] + 1j * z[:, dim:]
    return c / np.linalg.norm(c, axis=1, keepdims=True)


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


def exact_moment(spec: MomentSpec) -> float:
    """Floating-point value of the exact amplitude moment."""
    return float(exact_moment_fraction(spec))
