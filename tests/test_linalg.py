import tracemalloc

import numpy as np
import pytest
from oracles import from_pure, maximally_mixed, partial_trace_joint

from qcut.channel import full_protocol, make_channel, teleport
from qcut.fidelity import bures_fidelity, overlap_fidelity, uhlmann_fidelity
from qcut.haar import sample_states
from qcut.linalg import BipartitePureState, DensityMatrix, PureState, matrix_sqrt, partial_trace
from qcut.povm import CutPovm, sample_outcome
from qcut.rng import stream


def random_density(dim, rng, rank=None):
    """Density matrix induced by tracing out a Haar-random purification."""
    rank = rank or dim
    amps = sample_states(dim * rank, 1, rng)[0]
    return partial_trace(BipartitePureState(dim, rank, amps))


class TestStateTypes:
    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(2, np.array([1.0, 1.0]))

    def test_pure_state_requires_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            PureState(2, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DensityMatrix(2.0, np.eye(2) / 2), "dim 2.0 is not an integer"),
            (lambda: PureState(2.0, [1.0, 0.0]), "dim 2.0 is not an integer"),
            (lambda: BipartitePureState(2, 1.0, [1.0, 0.0]), "dim_aux 1.0 is not an integer"),
            (lambda: PureState.basis_state(3.0, 0), "dim 3.0 is not an integer"),
            (lambda: PureState.basis_state(3, 1.0), "index 1.0 is not an integer"),
        ],
        ids=["density", "pure", "bipartite", "basis-dim", "basis-index"],
    )
    def test_non_integer_dimensions_are_refused_by_name(self, build, message):
        # A float dimension used to be kept (DensityMatrix) or to fail deep
        # in NumPy with a bare TypeError.
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_numpy_integer_dimensions_are_stored_as_ints(self):
        rho = DensityMatrix(np.int64(2), np.eye(2) / 2)
        state = PureState.basis_state(np.int8(3), np.int64(1))
        assert type(rho.dim) is type(state.dim) is type(state.dim_aux) is int

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

    def test_trusted_preserves_the_state_type(self):
        c = np.zeros((2, 3), dtype=complex)
        c[0, 1] = 1.0
        bipartite = BipartitePureState._trusted(c[:, ::-1].copy())
        assert type(bipartite) is BipartitePureState
        assert (bipartite.dim_sys, bipartite.dim_aux) == (2, 3)
        pure = PureState._trusted(np.array([[0.0], [1.0]], dtype=complex))
        assert type(pure) is PureState
        assert pure.dim == 2
        np.testing.assert_array_equal(pure.amps, [0.0, 1.0])
        with pytest.raises(ValueError):
            pure.amps[0] = 1.0
        with pytest.raises(ValueError):
            pure.matrix[0, 0] = 1.0

    def test_thin_reductions_build_their_entries_on_first_read(self):
        c = sample_states(6, 1, stream(307)).reshape(3, 2)
        expected = c @ c.conj().T
        # At R < N the entries wait for their first read; the caller's rows
        # are copied, so writing them later changes nothing.
        rho = partial_trace(c)
        assert "entries" not in vars(rho)
        c[0, 0] = 0.0
        assert rho.entries is rho.entries
        np.testing.assert_array_equal(rho.entries, expected)
        assert not rho.entries.flags.writeable and c.flags.writeable
        caller = expected.copy()
        rho = DensityMatrix(3, caller)
        assert not np.shares_memory(caller, rho.entries)
        assert caller.flags.writeable and not rho.entries.flags.writeable
        # partial_trace checks every reduction: at R < N through its Gram
        # matrix, at R >= N through its entries.
        bad = c.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            partial_trace(bad)
        for rows in (2 * c, (2 * c).T):
            with pytest.raises(ValueError, match="trace"):
                partial_trace(rows)

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

    def test_sample_outcome_refuses_a_density_matrix(self):
        # A mixed state is cut through its purification; a density matrix,
        # single or stacked, is refused before any draw.
        states = sample_states(6, 3, stream(302)).reshape(3, 3, 2)
        rng = stream(303)
        for rho in (partial_trace(states[0]), partial_trace(states)):
            with pytest.raises(ValueError, match="purification"):
                sample_outcome(CutPovm(3, 2), rho, rng)
        assert rng.random() == stream(303).random()

    @pytest.mark.parametrize(
        "call, kind",
        [
            (lambda rho, psi: partial_trace(rho), "pure state, got DensityMatrix"),
            (lambda rho, psi: partial_trace([[1.0, 0.0], [0.0, 0.0]]), "pure state, got list"),
            (lambda rho, psi: overlap_fidelity(rho, rho), "pure state, got DensityMatrix"),
            (lambda rho, psi: uhlmann_fidelity(psi, rho), "pure state, got DensityMatrix"),
            (lambda rho, psi: teleport(rho, make_channel(2), stream(304)), "pure state, got DensityMatrix"),
            (lambda rho, psi: full_protocol(rho, 1, stream(304)), "pure state, got DensityMatrix"),
            (lambda rho, psi: bures_fidelity(psi, rho), "DensityMatrix, got PureState"),
            (lambda rho, psi: bures_fidelity(rho, psi), "DensityMatrix, got PureState"),
            (lambda rho, psi: matrix_sqrt(psi), "DensityMatrix, got PureState"),
        ],
        ids=["partial-trace", "partial-trace-list", "overlap", "uhlmann", "teleport", "full-protocol",
             "bures-rho", "bures-sigma", "matrix-sqrt"],
    )
    def test_a_state_of_the_wrong_kind_is_refused_by_type(self, call, kind):
        # Each used to end in a bare AttributeError ("matrix", "_eigh").
        rho, psi = DensityMatrix(2, np.eye(2) / 2), PureState.basis_state(2, 0)
        with pytest.raises(ValueError, match=f"^expected a {kind}"):
            call(rho, psi)

    @staticmethod
    def reduction_peak(states, read):
        partial_trace(states[:2]).entries  # first-call allocations are not the reduction's
        tracemalloc.start()
        try:
            rho = partial_trace(states)
            if read:
                rho.entries
            return tracemalloc.get_traced_memory()[1], rho.entries.nbytes
        finally:
            tracemalloc.stop()

    def test_hermiticity_check_holds_one_copy_of_the_entries(self):
        # A (250, 16, 4) stack whose entries (0.98 MiB) are read: they are
        # checked with one conjugate copy that takes the Hermiticity
        # difference in place and its moduli (half a copy); with the kept
        # copy of the rows and the eigenvectors (a quarter each) that makes
        # three copies, where a difference beside the conjugate copy would
        # make four.
        states = sample_states(64, 250, stream(310)).reshape(250, 16, 4)
        peak, entries = self.reduction_peak(states, read=True)
        assert peak < 3.5 * entries

    def test_thin_reduction_holds_no_n_by_n_array(self):
        # A (64, 64, 2) stack left unread holds its rows, Gram matrices and
        # thin eigenvectors, with temporaries of about five N x R arrays:
        # 0.16 of its N x N entries.
        states = sample_states(128, 64, stream(311)).reshape(64, 64, 2)
        peak, entries = self.reduction_peak(states, read=False)
        assert peak < entries / 4

    def test_density_invariants_hold_for_random_constructions(self):
        rng = stream(301)
        for _ in range(50):
            rho = random_density(4, rng, rank=3)
            assert abs(np.trace(rho.entries) - 1.0) < 1e-10
            assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-10


class TestOneStateClass:
    """A ``PureState`` is a ``BipartitePureState`` with a one-level auxiliary."""

    def test_pure_state_is_a_single_column_bipartite_state(self):
        amps = sample_states(4, 1, stream(309))[0]
        state = PureState(4, amps)
        assert isinstance(state, BipartitePureState)
        assert (state.dim, state.dim_sys, state.dim_aux) == (4, 4, 1)
        np.testing.assert_array_equal(state.matrix, BipartitePureState(4, 1, amps).matrix)

    @pytest.mark.parametrize(
        "dim, amps, message",
        [(2, [1.0, 1.0], None), (2, [np.nan, 0.0], None), (0, [], "dim 0 is below 1"),
         (-1, [1.0], "dim -1 is below 1"), (2, [1.0, 0.0, 0.0], None)],
        ids=["norm", "finite", "zero-dim", "negative-dim", "shape"],
    )
    def test_bad_input_fails_as_for_the_bipartite_state(self, dim, amps, message):
        # Bad amplitudes fail with the bipartite state's text; a bad dimension
        # is named as PureState's caller passes it, ``dim``.
        with pytest.raises(ValueError) as bipartite:
            BipartitePureState(dim, 1, np.array(amps))
        with pytest.raises(ValueError) as pure:
            PureState(dim, np.array(amps))
        assert str(pure.value) == (message or str(bipartite.value))

    def test_sample_outcome_cuts_both_alike(self):
        rng = stream(310)
        for n, m in [(3, 2), (5, 1), (8, 3), (4, 4)]:
            povm = CutPovm(n, m)
            amps = sample_states(n, 1, rng)[0]
            for seed in range(20):
                pure = sample_outcome(povm, PureState(n, amps), stream(seed))
                bipartite = sample_outcome(povm, BipartitePureState(n, 1, amps), stream(seed))
                assert pure.subset == bipartite.subset
                assert pure.probability == bipartite.probability
                assert pure.shot_fidelity == bipartite.shot_fidelity
                assert type(pure.post_state) is PureState
                np.testing.assert_array_equal(pure.post_state.matrix, bipartite.post_state.matrix)

    def test_the_cut_and_teleport_paths_keep_the_state_type(self):
        rng = stream(311)
        pure = PureState(5, sample_states(5, 1, rng)[0])
        for state in (pure, BipartitePureState(5, 2, sample_states(10, 1, rng)[0])):
            run = full_protocol(state, 3, rng)
            assert type(run.outcome.post_state) is type(state)
            assert type(run.final_state) is type(state)
            assert run.final_state.matrix.shape == state.matrix.shape


class TestPartialTrace:
    def test_product_state_recovers_system_factor(self):
        phi = np.array([0.6, 0.8j])
        chi = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        state = BipartitePureState(2, 3, np.kron(phi, chi))
        rho = partial_trace(state)
        np.testing.assert_allclose(rho.entries, np.outer(phi, phi.conj()), atol=1e-14)

    def test_maximally_entangled_channel_traces_to_maximally_mixed(self):
        joint = BipartitePureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho = partial_trace(joint)
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-14)

    def test_reduced_spectrum_matches_squared_schmidt_coefficients(self):
        rng = stream(303)
        state = BipartitePureState(2, 3, sample_states(6, 1, rng)[0])
        coefficients = np.linalg.svd(state.matrix, compute_uv=False)
        evals = np.sort(np.linalg.eigvalsh(partial_trace(state).entries))[::-1]
        np.testing.assert_allclose(evals[: len(coefficients)], coefficients**2, atol=1e-10)

    def test_both_reductions_share_nonzero_spectrum(self):
        rng = stream(304)
        for _ in range(20):
            state = BipartitePureState(3, 5, sample_states(15, 1, rng)[0])
            sys_evals = np.sort(np.linalg.eigvalsh(partial_trace(state).entries))[::-1]
            aux_evals = np.sort(np.linalg.eigvalsh(partial_trace(state.matrix.T).entries))[::-1]
            np.testing.assert_allclose(sys_evals[:3], aux_evals[:3], atol=1e-9)

    def test_density_matrix_input_agrees_with_pure_input(self):
        rng = stream(305)
        state = BipartitePureState(2, 2, sample_states(4, 1, rng)[0])
        joint = DensityMatrix(4, np.outer(state.amps, state.amps.conj()))
        # Oracle: the einsum trace of the joint density matrix.
        traced_aux = partial_trace_joint(joint, (2, 2))
        np.testing.assert_allclose(traced_aux.entries, partial_trace(state).entries, atol=1e-12)
        traced_sys = partial_trace_joint(joint, (2, 2), over="sys")
        np.testing.assert_allclose(traced_sys.entries, partial_trace(state.matrix.T).entries, atol=1e-12)

    def test_pure_state_is_the_one_level_auxiliary_case(self):
        rng = stream(306)
        state = PureState(3, sample_states(3, 1, rng)[0])
        np.testing.assert_allclose(
            partial_trace(state).entries, from_pure(state).entries, atol=1e-15
        )
        np.testing.assert_allclose(partial_trace(state.matrix.T).entries, [[1.0]], atol=1e-15)

    def test_a_vector_is_refused_with_the_expected_shape(self):
        with pytest.raises(ValueError) as err:
            partial_trace(np.ones(3) / np.sqrt(3))
        assert str(err.value) == "expected (..., N, R) coefficient matrices, got shape (3,)"


class TestMatrixSqrt:
    def test_scalar_matrix(self):
        rho = maximally_mixed(2)
        np.testing.assert_allclose(matrix_sqrt(rho), np.eye(2) / np.sqrt(2), atol=1e-14)

    def test_projector_is_fixed_point(self):
        rho = from_pure(PureState.basis_state(2, 0))
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
    """The eigenvalues a reduced state keeps are its squared Schmidt coefficients."""

    @staticmethod
    def kept_spectrum(state):
        # Descending, as the singular values come.
        return partial_trace(state)._eigh[0][::-1]

    def test_product_state_has_single_coefficient(self):
        state = BipartitePureState(2, 2, np.kron([1.0, 0.0], [0.0, 1.0]))
        np.testing.assert_allclose(self.kept_spectrum(state), [1.0, 0.0], atol=1e-14)

    def test_maximally_entangled_coefficients_are_uniform(self):
        state = BipartitePureState(3, 3, np.eye(3).ravel() / np.sqrt(3))
        np.testing.assert_allclose(self.kept_spectrum(state), np.full(3, 1 / 3), atol=1e-14)

    def test_reconstruction_and_weight_normalization(self):
        # Through the N x N eigendecomposition (R >= N) and through the
        # R x R Gram matrix (R < N).
        rng = stream(307)
        for n, r in [(3, 4), (4, 3)] * 10:
            state = BipartitePureState(n, r, sample_states(n * r, 1, rng)[0])
            coefficients = np.linalg.svd(state.matrix, compute_uv=False)
            evals = self.kept_spectrum(state)
            assert abs(np.sum(evals) - 1.0) < 1e-10
            np.testing.assert_allclose(evals, coefficients**2, atol=1e-10)
