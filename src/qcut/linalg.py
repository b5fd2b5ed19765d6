"""Dense complex linear algebra for small Hilbert spaces.

Immutable state containers with validated physical invariants, plus the
kernels the rest of the package builds on: partial traces, Hermitian
eigendecomposition, PSD matrix square roots and Schmidt decompositions.

Both pure-state types expose their amplitudes as an (N, R) coefficient
matrix: a ``PureState`` is the R = 1 case of a ``BipartitePureState``.

Matrices are plain complex ``numpy`` arrays.  All state containers freeze
their backing arrays after validation, so values are safe to share between
concurrent workers.  Basis indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def _frozen_complex_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector on a ``dim``-dimensional Hilbert space."""

    dim: int
    amps: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        amps = _frozen_complex_array(self.amps, (self.dim,))
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm**2 = {norm2} is not 1 within {NORM_ATOL}")
        object.__setattr__(self, "amps", amps)

    @property
    def matrix(self) -> np.ndarray:
        """Amplitudes as a read-only (dim, 1) coefficient matrix."""
        return self.amps.reshape(self.dim, 1)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "PureState":
        if not 0 <= index < dim:
            raise ValueError("basis index out of range")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(dim, amps)

    @classmethod
    def _trusted(cls, dim: int, amps: np.ndarray) -> "PureState":
        # Validation bypass for freshly built unit-norm arrays in hot loops.
        obj = object.__new__(cls)
        amps.setflags(write=False)
        object.__setattr__(obj, "dim", dim)
        object.__setattr__(obj, "amps", amps)
        return obj


@dataclass(frozen=True, eq=False)
class BipartitePureState:
    """Pure state on system (dim N) tensor auxiliary (dim R).

    Amplitudes are stored flat and system-major: entry (j, k) sits at
    index j * dim_aux + k.
    """

    dim_sys: int
    dim_aux: int
    amps: np.ndarray

    def __post_init__(self):
        if self.dim_sys < 1 or self.dim_aux < 1:
            raise ValueError("dimensions must be positive")
        amps = _frozen_complex_array(self.amps, (self.dim_sys * self.dim_aux,))
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm**2 = {norm2} is not 1 within {NORM_ATOL}")
        object.__setattr__(self, "amps", amps)

    @property
    def matrix(self) -> np.ndarray:
        """Amplitudes as a read-only (dim_sys, dim_aux) matrix."""
        return self.amps.reshape(self.dim_sys, self.dim_aux)

    @classmethod
    def _trusted(cls, dim_sys: int, dim_aux: int, amps: np.ndarray) -> "BipartitePureState":
        # Validation bypass for freshly built unit-norm arrays in hot loops.
        obj = object.__new__(cls)
        amps.setflags(write=False)
        object.__setattr__(obj, "dim_sys", dim_sys)
        object.__setattr__(obj, "dim_aux", dim_aux)
        object.__setattr__(obj, "amps", amps)
        return obj


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator on a ``dim``-dimensional space."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        entries = _frozen_complex_array(self.entries, (self.dim, self.dim))
        herm_dev = float(np.max(np.abs(entries - entries.conj().T)))
        if herm_dev > HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm_dev})")
        trace = complex(np.trace(entries))
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {trace} is not 1 within {TRACE_ATOL}")
        min_eig = float(np.linalg.eigvalsh(entries)[0])
        if min_eig < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not PSD (min eigenvalue {min_eig})")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        return cls(state.dim, np.outer(state.amps, state.amps.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(dim, np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt form of a bipartite pure state.

    ``coefficients`` are the nonnegative Schmidt coefficients sorted
    descending; their squares sum to 1.  ``left_basis`` and ``right_basis``
    hold the matching orthonormal vectors as rows.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        if np.any(coeffs < -NORM_ATOL) or np.any(np.diff(coeffs) > NORM_ATOL):
            raise ValueError("coefficients must be nonnegative and sorted descending")
        if abs(float(np.sum(coeffs**2)) - 1.0) > TRACE_ATOL:
            raise ValueError("squared coefficients must sum to 1")
        left = np.array(self.left_basis, dtype=complex)
        right = np.array(self.right_basis, dtype=complex)
        for basis in (left, right):
            gram = basis @ basis.conj().T
            if float(np.max(np.abs(gram - np.eye(len(coeffs))))) > HERMITICITY_ATOL:
                raise ValueError("basis vectors are not orthonormal")
        for name, arr in (("coefficients", coeffs), ("left_basis", left), ("right_basis", right)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def rebuild(like, coeffs: np.ndarray):
    """A state of the same type as ``like`` with coefficient matrix ``coeffs``.

    ``coeffs`` must be a freshly built unit-norm (N, R) array; it is frozen
    and used without revalidation.
    """
    amps = coeffs.ravel()
    if isinstance(like, PureState):
        return PureState._trusted(len(amps), amps)
    return BipartitePureState._trusted(coeffs.shape[0], coeffs.shape[1], amps)


def partial_trace(state, over: str = "aux", dims: tuple[int, int] | None = None) -> DensityMatrix:
    """Trace out one subsystem of a bipartite state.

    ``state`` is either a pure state with an (N, R) coefficient matrix
    (a ``PureState`` is the R = 1 case; dims are taken from it) or a
    DensityMatrix on the composite space, in which case ``dims`` must give
    the (system, auxiliary) factorization.  ``over`` names the subsystem
    that is traced out.
    """
    if over not in ("sys", "aux"):
        raise ValueError("over must be 'sys' or 'aux'")
    if isinstance(state, DensityMatrix):
        if dims is None:
            raise ValueError("dims=(n_sys, n_aux) required for a DensityMatrix input")
        n, r = dims
        if n < 1 or r < 1 or n * r != state.dim:
            raise ValueError(f"dims {dims} do not factor dimension {state.dim}")
        rho4 = state.entries.reshape(n, r, n, r)
        if over == "aux":
            reduced = np.einsum("jkik->ji", rho4)
            kept = n
        else:
            reduced = np.einsum("jkjl->kl", rho4)
            kept = r
    else:
        c = state.matrix
        n, r = c.shape
        if dims is not None and tuple(dims) != (n, r):
            raise ValueError(f"dims {dims} inconsistent with state dims {(n, r)}")
        if over == "aux":
            reduced = c @ c.conj().T
            kept = n
        else:
            reduced = c.T @ c.conj()
            kept = r
    return DensityMatrix(kept, reduced)


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary matrix whose
    columns are the matching eigenvectors.  Rejects non-square or
    non-Hermitian input.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("eigh expects a square matrix")
    if float(np.max(np.abs(h - h.conj().T))) > HERMITICITY_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(h)


def matrix_sqrt(rho: DensityMatrix) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = rho.

    Eigenvalues in [EIGENVALUE_FLOOR, 0) are round-off from partial traces
    and are clamped to zero; anything below the floor is rejected by the
    DensityMatrix type itself.  Positive eigenvalues below the eigensolver
    noise level (dim * eps * largest) are also treated as exact zeros, since
    taking their square root would otherwise turn O(eps) rank-deficiency
    noise into O(sqrt(eps)) errors in S.
    """
    evals, vecs = np.linalg.eigh(rho.entries)
    noise_floor = rho.dim * np.finfo(float).eps * float(evals[-1])
    evals = np.where(evals < noise_floor, 0.0, evals)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def schmidt_decompose(state: BipartitePureState) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite pure state via SVD."""
    u, s, vh = np.linalg.svd(state.matrix, full_matrices=False)
    return SchmidtDecomposition(s, np.ascontiguousarray(u.T), vh)
