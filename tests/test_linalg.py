import numpy as np
import pytest

from qcut.linalg import (
    BipartitePureState,
    DensityMatrix,
    PureState,
    eigh,
    matrix_sqrt,
    partial_trace,
    rebuild,
    schmidt_decompose,
)
from qcut.haar import sample_states
from qcut.rng import stream


def random_density(dim, rng, rank=None):
    """Density matrix induced by tracing out a Haar-random purification."""
    rank = rank or dim
    amps = sample_states(dim * rank, 1, rng)[0]
    return partial_trace(BipartitePureState(dim, rank, amps), over="aux")


class TestStateTypes:
    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(2, np.array([1.0, 1.0]))

    def test_pure_state_requires_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            PureState(2, np.array([np.nan, 0.0]))

    def test_pure_state_is_immutable(self):
        state = PureState.basis_state(3, 1)
        with pytest.raises(ValueError):
            state.amps[0] = 1.0

    def test_bipartite_flattening_is_system_major(self):
        c = np.zeros((2, 3), dtype=complex)
        c[1, 2] = 1.0
        state = BipartitePureState(2, 3, c.ravel())
        assert state.amps[1 * 3 + 2] == 1.0
        np.testing.assert_array_equal(state.matrix, c)

    def test_pure_state_is_the_single_column_case(self):
        state = PureState.basis_state(3, 1)
        assert state.matrix.shape == (3, 1)
        np.testing.assert_array_equal(state.matrix[:, 0], state.amps)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    def test_rebuild_preserves_the_state_type(self):
        c = np.zeros((2, 3), dtype=complex)
        c[0, 1] = 1.0
        bipartite = rebuild(BipartitePureState(2, 3, c.ravel()), c[:, ::-1].copy())
        assert isinstance(bipartite, BipartitePureState)
        assert (bipartite.dim_sys, bipartite.dim_aux) == (2, 3)
        pure = rebuild(PureState.basis_state(2, 0), np.array([[0.0], [1.0]], dtype=complex))
        assert isinstance(pure, PureState)
        np.testing.assert_array_equal(pure.amps, [0.0, 1.0])
        with pytest.raises(ValueError):
            pure.amps[0] = 1.0

    def test_density_matrix_rejects_nonhermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(2, mat)

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2, np.eye(2))

    def test_density_matrix_rejects_negative_eigenvalues(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(2, mat)

    def test_density_invariants_hold_for_random_constructions(self):
        rng = stream(301)
        for _ in range(50):
            rho = random_density(4, rng, rank=3)
            assert abs(np.trace(rho.entries) - 1.0) < 1e-10
            assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10


class TestPartialTrace:
    def test_product_state_recovers_system_factor(self):
        phi = np.array([0.6, 0.8j])
        chi = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        state = BipartitePureState(2, 3, np.kron(phi, chi))
        rho = partial_trace(state, over="aux")
        np.testing.assert_allclose(rho.entries, np.outer(phi, phi.conj()), atol=1e-14)

    def test_maximally_entangled_channel_traces_to_maximally_mixed(self):
        joint = BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho = partial_trace(joint, over="aux")
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-14)

    def test_reduced_spectrum_matches_squared_schmidt_coefficients(self):
        rng = stream(303)
        state = BipartitePureState(2, 3, sample_states(6, 1, rng)[0])
        dec = schmidt_decompose(state)
        evals = np.sort(np.linalg.eigvalsh(partial_trace(state, over="aux").entries))[::-1]
        np.testing.assert_allclose(evals[: len(dec.coefficients)], dec.coefficients**2, atol=1e-10)

    def test_both_reductions_share_nonzero_spectrum(self):
        rng = stream(304)
        for _ in range(20):
            state = BipartitePureState(3, 5, sample_states(15, 1, rng)[0])
            sys_evals = np.sort(np.linalg.eigvalsh(partial_trace(state, over="aux").entries))[::-1]
            aux_evals = np.sort(np.linalg.eigvalsh(partial_trace(state, over="sys").entries))[::-1]
            np.testing.assert_allclose(sys_evals[:3], aux_evals[:3], atol=1e-9)

    def test_density_matrix_input_agrees_with_pure_input(self):
        rng = stream(305)
        state = BipartitePureState(2, 2, sample_states(4, 1, rng)[0])
        joint = DensityMatrix(4, np.outer(state.amps, state.amps.conj()))
        from_pure = partial_trace(state, over="aux")
        from_density = partial_trace(joint, over="aux", dims=(2, 2))
        np.testing.assert_allclose(from_density.entries, from_pure.entries, atol=1e-12)
        traced_sys = partial_trace(joint, over="sys", dims=(2, 2))
        np.testing.assert_allclose(
            traced_sys.entries, partial_trace(state, over="sys").entries, atol=1e-12
        )

    def test_pure_state_is_the_one_level_auxiliary_case(self):
        rng = stream(306)
        state = PureState(3, sample_states(3, 1, rng)[0])
        np.testing.assert_allclose(
            partial_trace(state, over="aux").entries, DensityMatrix.from_pure(state).entries, atol=1e-15
        )
        np.testing.assert_allclose(partial_trace(state, over="sys").entries, [[1.0]], atol=1e-15)

    def test_inconsistent_dims_rejected(self):
        rho = DensityMatrix.maximally_mixed(6)
        with pytest.raises(ValueError, match="factor"):
            partial_trace(rho, over="aux", dims=(4, 2))
        with pytest.raises(ValueError, match="dims"):
            partial_trace(rho, over="aux")


class TestMatrixSqrt:
    def test_scalar_matrix(self):
        rho = DensityMatrix.maximally_mixed(2)
        np.testing.assert_allclose(matrix_sqrt(rho), np.eye(2) / np.sqrt(2), atol=1e-14)

    def test_projector_is_fixed_point(self):
        rho = DensityMatrix.from_pure(PureState.basis_state(2, 0))
        np.testing.assert_allclose(matrix_sqrt(rho), rho.entries, atol=1e-14)

    def test_square_reconstructs_for_random_psd(self):
        rng = stream(306)
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            rho = random_density(dim, rng)
            s = matrix_sqrt(rho)
            assert np.max(np.abs(s - s.conj().T)) < 1e-12
            assert np.linalg.norm(s @ s - rho.entries) < 1e-9


class TestSchmidt:
    def test_product_state_has_single_coefficient(self):
        state = BipartitePureState(2, 2, np.kron([1.0, 0.0], [0.0, 1.0]))
        dec = schmidt_decompose(state)
        np.testing.assert_allclose(dec.coefficients, [1.0, 0.0], atol=1e-14)

    def test_maximally_entangled_coefficients_are_uniform(self):
        amps = np.eye(3).ravel() / np.sqrt(3)
        dec = schmidt_decompose(BipartitePureState(3, 3, amps))
        np.testing.assert_allclose(dec.coefficients, np.full(3, 1 / np.sqrt(3)), atol=1e-14)

    def test_reconstruction_and_weight_normalization(self):
        rng = stream(307)
        for _ in range(20):
            state = BipartitePureState(3, 4, sample_states(12, 1, rng)[0])
            dec = schmidt_decompose(state)
            assert abs(np.sum(dec.coefficients**2) - 1.0) < 1e-10
            rebuilt = (dec.left_basis.T * dec.coefficients) @ dec.right_basis
            np.testing.assert_allclose(rebuilt, state.matrix, atol=1e-10)
            evals = np.sort(np.linalg.eigvalsh(partial_trace(state, over="aux").entries))[::-1]
            np.testing.assert_allclose(evals, dec.coefficients**2, atol=1e-10)


class TestEigh:
    def test_identity(self):
        evals, _ = eigh(np.eye(3, dtype=complex))
        np.testing.assert_allclose(evals, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        evals, vecs = eigh(np.diag([0.2, 0.8]).astype(complex))
        np.testing.assert_allclose(evals, [0.2, 0.8])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-14)

    def test_reconstruction_for_random_hermitian(self):
        rng = stream(308)
        for _ in range(50):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            h = (a + a.conj().T) / 2
            evals, vecs = eigh(h)
            np.testing.assert_allclose((vecs * evals) @ vecs.conj().T, h, atol=1e-9)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(5), atol=1e-9)

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
