"""Fidelity measures for pure and mixed states.

The mixed-state fidelity comes in two equivalent forms that this package
keeps deliberately separate so they can check each other: the matrix
square-root form on density matrices, and the purification form where a
maximization over auxiliary-space unitaries collapses to a trace norm.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import BipartitePureState, DensityMatrix, matrix_sqrt, single_entries
from .povm import CutPovm, SubsetIndex, _validate_subset

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
    other row and column).  Its square root is zero there too, so only the
    first M columns of sqrt(rho) enter, and the product is N x M: sigma is
    diagonalized on its M levels, not on N.
    """
    m = sigma.dim
    if rho.entries.shape[:-2] != sigma.entries.shape[:-2] or m > rho.dim:
        raise ValueError(f"dimension mismatch: {rho.entries.shape} vs {sigma.entries.shape}")
    singulars = np.linalg.svd(matrix_sqrt(rho)[..., :m] @ matrix_sqrt(sigma), compute_uv=False)
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


def per_outcome_mixed_fidelity(
    povm: CutPovm, subset: SubsetIndex, purification: BipartitePureState
) -> float:
    """Single-shot mixed-state fidelity of one cut, from a purification.

    For elements diagonal in a common basis the purification maximum sits
    at U = identity, so the value reduces to
    |<psi|(A x 1)|psi>|^2 / Tr(A rho A^dag) = norm_const * probability.
    Tests confirm the reduction against ``bures_fidelity`` on the reduced
    density matrices.
    """
    if purification.dim_sys != povm.n:
        raise ValueError(f"system dimension {purification.dim_sys} != povm n={povm.n}")
    idx = _validate_subset(povm, subset)
    kept_weight = float(np.sum(np.abs(purification.matrix[idx, :]) ** 2))
    if kept_weight <= 0.0:
        raise ValueError(f"outcome {subset.indices} has zero probability")
    overlap = kept_weight / povm.norm_const  # <psi|(A x 1)|psi>
    denominator = kept_weight / povm.norm_const**2  # Tr(A rho A^dag)
    return _clamp_unit(overlap**2 / denominator)


def purify(rho: DensityMatrix, dim_aux: int | None = None) -> BipartitePureState:
    """Canonical purification of a density matrix on system x auxiliary.

    Uses the eigendecomposition: sum_i sqrt(lambda_i) |i> x |i_aux>, from
    the eigenpairs ``rho`` keeps (for a reduced state of an (N, R)
    coefficient matrix, the thin min(N, R) of them; its rank is at most
    that).  The auxiliary dimension defaults to the system dimension and
    must be at least the rank.
    """
    if dim_aux is None:
        dim_aux = rho.dim
    single_entries(rho)  # refuses a stack
    evals, vecs = rho._eigh
    evals = np.clip(evals, 0.0, None)
    rank = int(np.sum(evals > 0.0))
    if dim_aux < rank:
        raise ValueError(f"auxiliary dimension {dim_aux} below rank {rank}")
    c = np.zeros((rho.dim, dim_aux), dtype=complex)
    # Descending order keeps the largest weights on the lowest aux indices.
    order = np.argsort(evals)[::-1]
    for k, i in enumerate(order[:dim_aux]):
        c[:, k] = math.sqrt(evals[i]) * vecs[:, i]
    return BipartitePureState(rho.dim, dim_aux, c.ravel())
