"""Fidelity measures for pure and mixed states.

The mixed-state fidelity comes in two equivalent forms that this package
keeps deliberately separate so they can check each other: the matrix
square-root form on density matrices, and the purification form where a
maximization over auxiliary-space unitaries collapses to a trace norm.
The canonical purification of a density matrix and the single-shot cut
fidelity read off a purification are further routes that only the tests
take, so they live with the tests' oracles.
"""

from __future__ import annotations

import numpy as np

from .linalg import BipartitePureState, DensityMatrix, _dagger, _sqrt_eigh, matrix_sqrt

_CLAMP = 1e-10


def _clamp_unit(value: float) -> float:
    """Snap round-off just outside [0, 1] back onto the interval."""
    if -_CLAMP <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + _CLAMP:
        return 1.0
    return value


def overlap_fidelity(a, b) -> float:
    """Squared overlap of two pure states with equal (N, R) coefficient shapes."""
    if a.matrix.shape != b.matrix.shape:
        raise ValueError(f"dimension mismatch: {a.matrix.shape} vs {b.matrix.shape}")
    return _clamp_unit(abs(np.vdot(a.amps, b.amps)) ** 2)


def bures_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float | np.ndarray:
    """Transition probability (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared nuclear norm of sqrt(rho) @ sqrt(sigma), which
    is the same quantity but does not square the conditioning the way an
    eigendecomposition of the triple product would.  Two stacks of equal
    batch shape give an array with one fidelity per member; two single
    matrices give a float.

    ``sigma`` may live on fewer levels than ``rho``, M = ``sigma.dim``: it
    is then taken to be supported on rho's first M levels (zero in every
    other row and column), and it is diagonalized on its M levels, not on
    N.  Only the first M columns of sqrt(rho) = V sqrt(L) V^dagger enter,
    over the r' eigenpairs (L, V) that rho keeps (r' = min(N, R) for a
    reduced state).  V's kept columns are orthonormal, so the N x M product
    has the singular values of the r' x M core sqrt(L) V[:M]^dagger
    sqrt(sigma), and only that core is built.
    """
    m = sigma.dim
    batch, sigma_batch = rho._eigh[0].shape[:-1], sigma._eigh[0].shape[:-1]
    if batch != sigma_batch or m > rho.dim:
        raise ValueError(f"dimension mismatch: {batch} of dim {rho.dim} vs {sigma_batch} of dim {m}")
    roots, vecs = _sqrt_eigh(rho)
    core = (roots[..., :, None] * _dagger(vecs[..., :m, :])) @ matrix_sqrt(sigma)
    singulars = np.linalg.svd(core, compute_uv=False)
    fid = np.square(singulars.sum(axis=-1))
    # Snap round-off just above 1 back to 1, as _clamp_unit does; a squared
    # sum of singular values is never negative.
    fid = np.where(fid <= 1.0 + _CLAMP, np.minimum(fid, 1.0), fid)
    return fid if fid.ndim else float(fid)


def uhlmann_fidelity(phi0: BipartitePureState, phi1: BipartitePureState) -> float:
    """Maximal squared overlap over auxiliary-space unitaries.

    max over U of |<phi0| (1 x U) |phi1>|^2 equals the squared trace norm
    of the auxiliary cross matrix X[k', k] = sum_j conj(a[j, k]) b[j, k'],
    so the maximization is done analytically through singular values.
    Equals the square-root fidelity of the reduced system states.
    """
    if phi0.matrix.shape != phi1.matrix.shape:
        raise ValueError("purifications must share both dimensions")
    cross = phi1.matrix.T @ phi0.matrix.conj()
    return _clamp_unit(float(np.linalg.svd(cross, compute_uv=False).sum()) ** 2)
