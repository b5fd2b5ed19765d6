import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracles import bell_projections, channel_joint, weyl_operator

from qcut.channel import ClassicalMessage, _apply_weyl, full_protocol, make_channel, teleport
from qcut.fidelity import overlap_fidelity
from qcut.haar import sample_state, sample_states
from qcut.linalg import BipartitePureState, PureState, partial_trace
from qcut.rng import stream


class TestChannelState:
    def test_qubit_channel_amplitudes(self):
        np.testing.assert_allclose(channel_joint(2).amps, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_trivial_channel(self):
        np.testing.assert_allclose(channel_joint(1).amps, [1.0])

    def test_partial_traces_are_maximally_mixed(self):
        c = channel_joint(4).matrix
        for rows in (c, c.T):
            np.testing.assert_allclose(partial_trace(rows).entries, np.eye(4) / 4, atol=1e-14)

    def test_schmidt_coefficients_are_uniform(self):
        for m in range(1, 7):
            coefficients = np.linalg.svd(channel_joint(m).matrix, compute_uv=False)
            np.testing.assert_allclose(coefficients, np.full(m, 1 / math.sqrt(m)), atol=1e-12)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            make_channel(0)

    def test_non_integer_dimension_is_refused_by_name(self):
        with pytest.raises(ValueError) as err:
            make_channel(2.5)
        assert str(err.value) == "m 2.5 is not an integer"
        assert type(make_channel(np.int64(3)).m) is int


class TestWeylOperators:
    def test_identity_labels(self):
        for m in (1, 2, 5):
            np.testing.assert_array_equal(weyl_operator(m, 0, 0), np.eye(m))

    def test_qubit_shift_and_phase_are_paulis(self):
        np.testing.assert_allclose(weyl_operator(2, 1, 0), np.array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(weyl_operator(2, 0, 1), np.diag([1.0, -1.0]), atol=1e-15)

    def test_unitarity_scan(self):
        for m in range(1, 9):
            for a in range(m):
                for b in range(m):
                    w = weyl_operator(m, a, b)
                    np.testing.assert_allclose(w @ w.conj().T, np.eye(m), atol=1e-12)

    def test_applied_correction_matches_dense_operator(self):
        rng = stream(714)
        for m in range(1, 9):
            for r in (1, 2, 3):
                block = sample_states(m * r, 1, rng)[0].reshape(m, r)
                for a in range(m):
                    for b in range(m):
                        np.testing.assert_allclose(
                            _apply_weyl(block, a, b), weyl_operator(m, a, b) @ block, rtol=0, atol=1e-14
                        )

    def test_label_range(self):
        with pytest.raises(ValueError, match="outside"):
            weyl_operator(3, 3, 0)
        with pytest.raises(ValueError, match="outside"):
            weyl_operator(3, 0, -1)


class TestTeleport:
    def test_basis_states_arrive_intact(self):
        chan = make_channel(3)
        rng = stream(701)
        for k in range(3):
            state = PureState.basis_state(3, k)
            _, received = teleport(state, chan, rng)
            assert overlap_fidelity(state, received) == pytest.approx(1.0, abs=1e-12)

    def test_every_forced_outcome_is_lossless(self):
        chan = make_channel(5)
        state = sample_state(5, stream(702))
        for a in range(5):
            for b in range(5):
                message, received = teleport(state, chan, force_outcome=(a, b))
                assert message == ClassicalMessage(a, b)
                assert overlap_fidelity(state, received) == pytest.approx(1.0, abs=1e-12)

    def test_entanglement_swapping_preserves_joint_state(self):
        rng = stream(703)
        state = BipartitePureState(2, 2, sample_states(4, 1, rng)[0])
        _, received = teleport(state, make_channel(2), rng)
        assert isinstance(received, BipartitePureState)
        assert overlap_fidelity(state, received) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(received.amps, state.amps, atol=1e-12)

    def test_message_marginal_is_uniform(self):
        chan = make_channel(3)
        rng = stream(704)
        state = sample_state(3, rng)
        counts = np.zeros(9)
        runs = 100_000
        for _ in range(runs):
            message, _ = teleport(state, chan, rng)
            counts[3 * message.a + message.b] += 1
        assert stats.chisquare(counts).pvalue > 0.001

    def test_closed_form_matches_bell_tensor_oracle(self):
        rng = stream(712)
        for m in range(1, 9):
            chan = make_channel(m)
            for r in (1, 2, 3):
                if r == 1:
                    state = sample_state(m, rng)
                else:
                    state = BipartitePureState(m, r, sample_states(m * r, 1, rng)[0])
                c = state.matrix
                projected = bell_projections(c, m)
                probs = np.sum(np.abs(projected) ** 2, axis=(2, 3))
                np.testing.assert_allclose(probs, np.full((m, m), 1 / m**2), rtol=0, atol=1e-14)
                for a in range(m):
                    for b in range(m):
                        bob = projected[a, b] / math.sqrt(probs[a, b])
                        w = weyl_operator(m, a, b)
                        np.testing.assert_allclose(bob, w.conj().T @ c, rtol=0, atol=1e-12)
                        _, received = teleport(state, chan, force_outcome=(a, b))
                        assert type(received) is type(state)
                        np.testing.assert_allclose(received.matrix, c, rtol=0, atol=1e-12)

    def test_memory_stays_quadratic_in_channel_dimension(self):
        rng = stream(713)
        state = sample_state(32, rng)
        chan = make_channel(32)
        tracemalloc.start()
        try:
            _, received = teleport(state, chan, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert overlap_fidelity(state, received) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            teleport(PureState.basis_state(2, 0), make_channel(3), stream(705))

    def test_needs_rng_or_forced_outcome(self):
        with pytest.raises(ValueError, match="rng"):
            teleport(PureState.basis_state(2, 0), make_channel(2))


class TestFullProtocol:
    def test_equal_dimensions_are_lossless(self):
        rng = stream(706)
        for n in (2, 3, 5):
            state = sample_state(n, rng)
            run = full_protocol(state, n, rng)
            assert run.end_to_end_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_basis_state_always_survives(self):
        rng = stream(707)
        for n, m in [(3, 1), (4, 2), (5, 3)]:
            run = full_protocol(PureState.basis_state(n, 0), m, rng)
            assert run.end_to_end_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_uniform_qutrit_always_gives_two_thirds(self):
        rng = stream(708)
        state = PureState(3, np.full(3, 1 / math.sqrt(3), dtype=complex))
        for _ in range(20):
            run = full_protocol(state, 2, rng)
            assert run.end_to_end_fidelity == pytest.approx(2 / 3, abs=1e-12)

    def test_end_to_end_equals_cut_fidelity(self):
        rng = stream(709)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n + 1))
            state = sample_state(n, rng)
            run = full_protocol(state, m, rng)
            assert abs(run.end_to_end_fidelity - run.outcome.shot_fidelity) < 1e-12

    def test_entangled_input_round_trip(self):
        rng = stream(710)
        for _ in range(50):
            state = BipartitePureState(4, 2, sample_states(8, 1, rng)[0])
            run = full_protocol(state, 2, rng)
            assert abs(run.end_to_end_fidelity - run.outcome.shot_fidelity) < 1e-12
            assert overlap_fidelity(run.outcome.post_state, run.final_state) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_message_labels_within_channel_range(self):
        rng = stream(711)
        run = full_protocol(sample_state(5, rng), 3, rng)
        assert 0 <= run.message.a < 3
        assert 0 <= run.message.b < 3
