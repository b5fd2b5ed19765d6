"""Second routes of shipped kernels, reached only by the tests.

Each oracle computes what a shipped function computes, by the plain route
that the shipped one shortcuts, so the tests can hold the two together.
"""

import numpy as np

from qcut.linalg import DensityMatrix, matrix_sqrt


def embed(sigma: DensityMatrix, n: int) -> DensityMatrix:
    """An M-level density matrix (or stack) as the N-level one that is zero
    outside its first M levels."""
    m = sigma.dim
    entries = np.zeros(sigma.entries.shape[:-2] + (n, n), dtype=complex)
    entries[..., :m, :m] = sigma.entries
    return DensityMatrix(n, entries)


def bures_fidelity_full(rho: DensityMatrix, sigma: DensityMatrix):
    """Bures fidelity with sigma on all of rho's N levels.

    The squared nuclear norm of the N x N product sqrt(rho) @ sqrt(sigma),
    with round-off just above 1 snapped to 1, as ``bures_fidelity`` does.
    """
    if rho.entries.shape != sigma.entries.shape:
        raise ValueError(f"dimension mismatch: {rho.entries.shape} vs {sigma.entries.shape}")
    singulars = np.linalg.svd(matrix_sqrt(rho) @ matrix_sqrt(sigma), compute_uv=False)
    fid = np.square(singulars.sum(axis=-1))
    return np.where(fid <= 1.0 + 1e-10, np.minimum(fid, 1.0), fid)
