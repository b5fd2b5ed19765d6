"""Dense complex linear algebra for small Hilbert spaces.

Immutable state containers with validated physical invariants, plus the
kernels the rest of the package builds on: the partial trace of a pure
state over its auxiliary, and PSD matrix square roots.

One class holds a pure state, ``BipartitePureState``, as an (N, R)
coefficient matrix; a ``PureState`` is its R = 1 case.

Matrices are plain complex ``numpy`` arrays.  All state containers freeze
their backing arrays after validation, so values are safe to share between
concurrent workers.  Basis indices are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import _integer

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def _frozen_complex_array(values, shape) -> np.ndarray:
    """A read-only complex copy of ``values``, checked to have ``shape`` and
    finite entries; the caller's array is left as it is."""
    return _frozen(np.array(values, dtype=complex), shape)


def _frozen(arr: np.ndarray, shape) -> np.ndarray:
    """``arr`` itself, checked to have ``shape`` and finite entries, made read-only."""
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("entries must be finite")
    arr.setflags(write=False)
    return arr


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _store(state, coeffs: np.ndarray) -> None:
    # Freeze the (N, R) coefficient matrix and store it with its dimensions
    # and its flat view, built once per state rather than on every read.
    coeffs.setflags(write=False)
    object.__setattr__(state, "dim_sys", coeffs.shape[0])
    object.__setattr__(state, "dim_aux", coeffs.shape[1])
    object.__setattr__(state, "amps", coeffs.reshape(-1))
    object.__setattr__(state, "matrix", coeffs)


@dataclass(frozen=True, eq=False)
class BipartitePureState:
    """Pure state on system (dim N) tensor auxiliary (dim R).

    Amplitudes are stored flat and system-major: entry (j, k) sits at
    index j * dim_aux + k.  ``matrix`` holds them as a read-only
    (dim_sys, dim_aux) matrix.  ``PureState`` is the R = 1 case.
    """

    dim_sys: int
    dim_aux: int
    amps: np.ndarray

    def __post_init__(self):
        dim_sys, dim_aux = _integer(self.dim_sys, "dim_sys", 1), _integer(self.dim_aux, "dim_aux", 1)
        amps = _frozen_complex_array(self.amps, (dim_sys * dim_aux,))
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm**2 = {norm2} is not 1 within {NORM_ATOL}")
        _store(self, amps.reshape(dim_sys, dim_aux))

    @classmethod
    def _trusted(cls, coeffs: np.ndarray):
        """A state of this class with coefficient matrix ``coeffs``.

        Validation bypass for hot loops: ``coeffs`` must be a freshly built
        C-contiguous unit-norm (N, R) array, with R = 1 for a ``PureState``;
        it is frozen and used as it is.
        """
        obj = object.__new__(cls)
        _store(obj, coeffs)
        return obj


@dataclass(frozen=True, eq=False, init=False)
class PureState(BipartitePureState):
    """Unit-norm state vector on a ``dim``-dimensional Hilbert space.

    The R = 1 case of ``BipartitePureState``: ``matrix`` is (dim, 1).
    """

    def __init__(self, dim: int, amps):
        super().__init__(_integer(dim, "dim", 1), 1, amps)

    @property
    def dim(self) -> int:
        return self.dim_sys

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "PureState":
        dim = _integer(dim, "dim", 1)
        amps = np.zeros(dim, dtype=complex)
        amps[_integer(index, "index", 0, dim - 1)] = 1.0
        return cls(dim, amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator on a ``dim``-dimensional space.

    ``entries`` may carry leading batch axes, (k, dim, dim) for a stack of
    k matrices; every member is checked as a single matrix would be, and
    an error reports the member that fails.  ``partial_trace``,
    ``matrix_sqrt`` and ``bures_fidelity`` accept stacks; a single matrix
    is their k = 1 case.

    The PSD check diagonalizes each matrix once, and the read-only
    eigenvalues (ascending) and eigenvectors are kept as ``_eigh`` for
    ``matrix_sqrt`` and ``bures_fidelity``.  A matrix built from an array
    holds all dim eigenpairs.  A reduced state c c^dagger of an (N, R)
    coefficient matrix, as ``partial_trace`` builds it, has rank at most
    min(N, R) and holds that many: at R < N they come from the R x R Gram
    matrix c^dagger c, which is checked in place of the N x N entries, and
    the entries are built (and checked) on their first read.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim", 1))
        shape = np.shape(self.entries)[:-2] + (self.dim, self.dim)
        self._settle(_frozen_complex_array(self.entries, shape))

    @classmethod
    def _reduced(cls, rows: np.ndarray) -> "DensityMatrix":
        """The reduced state rows @ rows^dagger of (..., N, R) coefficient rows.

        At R >= N the entries are built and checked as the constructor's,
        but kept rather than copied.  At R < N the R x R Gram matrix
        rows^dagger @ rows, of the same nonzero spectrum (the Schmidt
        relation), is checked and diagonalized instead, and the entries are
        built from the kept rows (copied if the caller can write them) on
        their first read.
        """
        obj = object.__new__(cls)
        n, r = rows.shape[-2:]
        object.__setattr__(obj, "dim", n)
        if r >= n:
            obj._settle(_frozen(rows @ _dagger(rows), rows.shape[:-1] + (n,)))
            return obj
        if rows.flags.writeable:
            rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(obj, "_rows", rows)
        obj._settle(_frozen(_dagger(rows) @ rows, rows.shape[:-2] + (r, r)), rows)
        return obj

    def _settle(self, checked: np.ndarray, rows: np.ndarray | None = None) -> None:
        # Check the frozen matrices that are diagonalized (the entries, or
        # the Gram matrices of ``rows``), diagonalize them, check the
        # eigenvalues and store the eigenpairs (and the entries).
        _check_unit_hermitian(checked)
        evals, vecs = np.linalg.eigh(checked)
        min_eig = float(np.min(evals[..., 0], initial=np.inf))
        if min_eig < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not PSD (min eigenvalue {min_eig})")
        if rows is None:
            object.__setattr__(self, "entries", checked)
        else:
            # The columns of rows @ W, of norm sqrt(lam), are eigenvectors.
            # Each is scaled by its own computed norm, since a small lam
            # carries the eigensolver's absolute error, eps * largest; one
            # below ``matrix_sqrt``'s noise floor is set to zero instead.
            # The kept columns are orthogonal to about eps * sqrt(largest /
            # lam), 1e-8 just above the floor, where each is weighted by
            # sqrt(lam) and the full N x N route is no more accurate.
            vecs = rows @ vecs
            kept = (evals >= _noise_floor(self.dim, evals)) & (evals > 0.0)
            vecs *= (kept / np.where(kept, np.linalg.norm(vecs, axis=-2), 1.0))[..., None, :]
        evals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "_eigh", (evals, vecs))

    def __getattr__(self, name: str):
        # Only a reduction at R < N lacks its entries, until they are read;
        # they get the constructor's checks, the PSD one done on the Gram.
        rows = self.__dict__.get("_rows")
        if name != "entries" or rows is None:
            raise AttributeError(name)
        entries = _frozen(rows @ _dagger(rows), rows.shape[:-1] + (self.dim,))
        _check_unit_hermitian(entries)
        object.__setattr__(self, "entries", entries)
        return entries


def _check_unit_hermitian(matrix: np.ndarray) -> None:
    """Refuse a (stack of) matrix that is not Hermitian or not of unit trace.

    The Hermiticity difference is taken in place in the conjugate copy, so
    the check holds one copy of the matrix.  A Gram matrix rows^dagger @ rows
    has the trace of rows @ rows^dagger, the sum of their shared eigenvalues.
    """
    skew = _dagger(matrix)
    herm_dev = float(np.max(np.abs(np.subtract(matrix, skew, out=skew)), initial=0.0))
    if herm_dev > HERMITICITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (deviation {herm_dev})")
    traces = matrix.diagonal(axis1=-2, axis2=-1).sum(axis=-1)
    off = traces[np.abs(traces - 1.0) > TRACE_ATOL]
    if off.size:
        raise ValueError(f"trace {complex(off[0])} is not 1 within {TRACE_ATOL}")


def _coefficients(state) -> np.ndarray:
    """The (N, R) coefficient matrix of a pure state (a ``PureState`` is
    R = 1); anything else, a ``DensityMatrix`` among them, is refused by type."""
    if not isinstance(state, BipartitePureState):
        kind = type(state).__name__
        raise ValueError(f"expected a pure state, got {kind}; a mixed state is cut through its purification")
    return state.matrix


def partial_trace(state) -> DensityMatrix:
    """Trace the auxiliary out of a bipartite pure state: c @ c^dagger.

    ``state`` is a pure state with an (N, R) coefficient matrix (a
    ``PureState`` is the R = 1 case) or an array of (..., N, R) coefficient
    matrices, whose leading batch axes carry through to the returned
    DensityMatrix.  A trace over the system is the trace over the
    auxiliary of the transposed coefficients, ``c.swapaxes(-1, -2)``.
    """
    c = np.asarray(state if isinstance(state, np.ndarray) else _coefficients(state), dtype=complex)
    if c.ndim < 2:
        raise ValueError(f"expected (..., N, R) coefficient matrices, got shape {c.shape}")
    return DensityMatrix._reduced(c)


def _noise_floor(dim: int, evals: np.ndarray) -> np.ndarray:
    """Eigensolver noise level of each matrix: dim * eps * its largest eigenvalue."""
    return dim * np.finfo(float).eps * evals[..., -1:]


def _sqrt_eigh(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(L) and V for the eigenpairs (L, V) rho keeps, floored as ``matrix_sqrt`` says."""
    if not isinstance(rho, DensityMatrix):
        raise ValueError(f"expected a DensityMatrix, got {type(rho).__name__}")
    evals, vecs = rho._eigh
    return np.sqrt(np.where(evals < _noise_floor(rho.dim, evals), 0.0, evals)), vecs


def matrix_sqrt(rho: DensityMatrix) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = rho, for each member of a stack.

    Eigenvalues in [EIGENVALUE_FLOOR, 0) are round-off from partial traces
    and are clamped to zero; anything below the floor is rejected by the
    DensityMatrix type itself.  Positive eigenvalues below the eigensolver
    noise level (dim * eps * largest, per matrix) are also treated as exact
    zeros, since taking their square root would otherwise turn O(eps)
    rank-deficiency noise into O(sqrt(eps)) errors in S.  The
    eigendecomposition is the one ``rho`` computed for its PSD check; for a
    reduced state of an (N, R) coefficient matrix it is thin, with
    min(N, R) eigenpairs (rank at most min(N, R)), and S is built from
    those alone.
    """
    roots, vecs = _sqrt_eigh(rho)
    return (vecs * roots[..., None, :]) @ _dagger(vecs)
