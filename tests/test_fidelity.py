import math

import numpy as np
import pytest
from oracles import from_pure, maximally_mixed, per_outcome_mixed_fidelity, purify

from qcut.fidelity import bures_fidelity, overlap_fidelity, uhlmann_fidelity
from qcut.haar import sample_state, sample_states
from qcut.linalg import BipartitePureState, PureState, partial_trace
from qcut.povm import CutPovm, SubsetIndex, sample_outcome
from qcut.rng import stream


def random_bipartite(n, r, rng):
    return BipartitePureState(n, r, sample_states(n * r, 1, rng)[0])


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestOverlap:
    def test_self_overlap_is_one(self):
        state = sample_state(4, stream(601))
        assert overlap_fidelity(state, state) == 1.0

    def test_orthogonal_states(self):
        assert overlap_fidelity(PureState.basis_state(3, 0), PureState.basis_state(3, 1)) == 0.0

    def test_balanced_superposition_against_basis(self):
        plus = PureState(2, np.array([1.0, 1.0]) / math.sqrt(2))
        assert overlap_fidelity(plus, PureState.basis_state(2, 0)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            overlap_fidelity(PureState.basis_state(2, 0), PureState.basis_state(3, 0))


class TestBures:
    def test_self_fidelity_is_one(self):
        rng = stream(602)
        for _ in range(20):
            rho = partial_trace(random_bipartite(3, 3, rng))
            assert bures_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_overlap_for_pure_states(self):
        rng = stream(603)
        for _ in range(20):
            a, b = sample_state(3, rng), sample_state(3, rng)
            f_pure = overlap_fidelity(a, b)
            f_mixed = bures_fidelity(from_pure(a), from_pure(b))
            assert abs(f_pure - f_mixed) < 1e-10

    def test_maximally_mixed_against_projector(self):
        rho = maximally_mixed(2)
        sigma = from_pure(PureState.basis_state(2, 0))
        assert bures_fidelity(rho, sigma) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = stream(604)
        for _ in range(30):
            rho = partial_trace(random_bipartite(4, 2, rng))
            sigma = partial_trace(random_bipartite(4, 4, rng))
            f = bures_fidelity(rho, sigma)
            assert abs(f - bures_fidelity(sigma, rho)) < 1e-9
            assert 0.0 <= f <= 1.0 + 1e-10

    def test_sigma_on_more_levels_or_another_stack_is_refused(self):
        rng = stream(606)
        rho = partial_trace(random_bipartite(3, 2, rng))
        wider = partial_trace(random_bipartite(4, 2, rng))
        with pytest.raises(ValueError, match="mismatch"):
            bures_fidelity(rho, wider)
        stack = partial_trace(sample_states(6, 2, rng).reshape(2, 3, 2))
        with pytest.raises(ValueError, match="mismatch"):
            bures_fidelity(stack, rho)


class TestUhlmann:
    def test_two_purifications_of_the_same_state(self):
        rng = stream(605)
        psi = random_bipartite(3, 3, rng)
        rotated = BipartitePureState(3, 3, (psi.matrix @ random_unitary(3, rng).T).ravel())
        assert uhlmann_fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-10)

    def test_product_purifications_reduce_to_system_overlap(self):
        rng = stream(606)
        a, b = sample_state(3, rng), sample_state(3, rng)
        aux_a, aux_b = sample_state(2, rng), sample_state(2, rng)
        phi0 = BipartitePureState(3, 2, np.kron(a.amps, aux_a.amps))
        phi1 = BipartitePureState(3, 2, np.kron(b.amps, aux_b.amps))
        assert uhlmann_fidelity(phi0, phi1) == pytest.approx(overlap_fidelity(a, b), abs=1e-10)

    def test_agrees_with_matrix_sqrt_form(self):
        rng = stream(607)
        for _ in range(50):
            phi0 = random_bipartite(3, 3, rng)
            phi1 = random_bipartite(3, 3, rng)
            direct = uhlmann_fidelity(phi0, phi1)
            via_sqrt = bures_fidelity(partial_trace(phi0), partial_trace(phi1))
            assert abs(direct - via_sqrt) < 1e-9

    def test_invariant_under_auxiliary_unitary(self):
        rng = stream(608)
        phi0 = random_bipartite(3, 4, rng)
        phi1 = random_bipartite(3, 4, rng)
        base = uhlmann_fidelity(phi0, phi1)
        for _ in range(10):
            v = random_unitary(4, rng)
            moved = BipartitePureState(3, 4, (phi1.matrix @ v.T).ravel())
            assert abs(uhlmann_fidelity(phi0, moved) - base) < 1e-10

    def test_dimension_mismatch(self):
        rng = stream(609)
        with pytest.raises(ValueError, match="dimension"):
            uhlmann_fidelity(random_bipartite(3, 2, rng), random_bipartite(3, 3, rng))


class TestPerOutcomeMixedFidelity:
    def test_purification_supported_inside_subset(self):
        rng = stream(610)
        sub = sample_states(4, 1, rng)[0].reshape(2, 2)  # amplitudes on levels 0, 1 only
        c = np.zeros((3, 2), dtype=complex)
        c[:2, :] = sub
        psi = BipartitePureState(3, 2, c.ravel())
        assert per_outcome_mixed_fidelity(CutPovm(3, 2), SubsetIndex((0, 1)), psi) == pytest.approx(1.0)

    def test_maximally_mixed_via_uniform_purification(self):
        amps = np.eye(3).ravel() / math.sqrt(3)
        psi = BipartitePureState(3, 3, amps)
        povm = CutPovm(3, 2)
        f = per_outcome_mixed_fidelity(povm, SubsetIndex((0, 1)), psi)
        assert f == pytest.approx(2 / 3)

    def test_matches_bures_of_cut_density(self):
        rng = stream(611)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 5))
            r = int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            psi = random_bipartite(n, r, rng)
            povm = CutPovm(n, m)
            outcome = sample_outcome(povm, psi, rng)
            f = per_outcome_mixed_fidelity(povm, outcome.subset, psi)
            rho = partial_trace(psi)
            rho_cut = partial_trace(outcome.post_state)
            assert abs(f - bures_fidelity(rho, rho_cut)) < 1e-9
            checked += 1

    def test_optimum_sits_at_identity_unitary(self):
        # For subset-diagonal elements the purification maximum is the
        # plain overlap with the projected purification itself.
        rng = stream(612)
        for _ in range(50):
            psi = random_bipartite(4, 3, rng)
            outcome = sample_outcome(CutPovm(4, 2), psi, rng)
            plain = overlap_fidelity(psi, outcome.post_state)
            maximized = uhlmann_fidelity(psi, outcome.post_state)
            assert abs(plain - maximized) < 1e-10

    def test_impossible_outcome(self):
        psi = BipartitePureState(3, 1, np.array([0.0, 0.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="zero probability"):
            per_outcome_mixed_fidelity(CutPovm(3, 2), SubsetIndex((0, 1)), psi)


class TestPurify:
    def test_partial_trace_recovers_input(self):
        rng = stream(613)
        for _ in range(20):
            rho = partial_trace(random_bipartite(4, 3, rng))
            psi = purify(rho)
            np.testing.assert_allclose(partial_trace(psi).entries, rho.entries, atol=1e-10)

    def test_rank_bound(self):
        rho = maximally_mixed(3)
        with pytest.raises(ValueError, match="rank"):
            purify(rho, dim_aux=2)
