import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    apply_cut_density,
    completeness_deviation,
    conditional_fidelity,
    element_matrix,
    from_pure,
    maximally_mixed,
    outcome_probability,
    purify,
    shot_moment,
    subsets,
)

from qcut.haar import sample_state, sample_states
from qcut.linalg import BipartitePureState, PureState, partial_trace
from qcut.povm import (
    CutPovm,
    SubsetIndex,
    _max_completeness_deviation,
    project_bipartite,
    project_pure,
    sample_outcome,
    sample_subsets,
)
from qcut.rng import stream


def uniform_state(dim):
    return PureState(dim, np.full(dim, 1 / math.sqrt(dim), dtype=complex))


def uneven_state(weights, r=1):
    """A fixed state whose level i weighs weights[i], spread over r auxiliary
    columns with unequal shares and phases."""
    shares = np.arange(1, r + 1) / (r * (r + 1) / 2)
    phases = np.exp(1j * np.add.outer(np.arange(len(weights)), np.arange(r)))
    c = np.sqrt(np.outer(weights, shares)) * phases
    return BipartitePureState(len(weights), r, c.ravel())


# (state, m): one level holding most of the weight, a light level 0, an
# entangled input, and the purification of a mixed state whose diagonal is
# uneven and whose coherences are not zero.
UNEVEN = [
    (uneven_state([0.7, 0.2, 0.1]), 1),
    (uneven_state([0.05, 0.5, 0.15, 0.3]), 2),
    (uneven_state([0.4, 0.05, 0.25, 0.1, 0.2], r=2), 3),
    (purify(partial_trace(uneven_state([0.1, 0.45, 0.3, 0.15], r=3))), 2),
]


class TestConstruction:
    def test_normalization_constant(self):
        assert CutPovm(3, 2).norm_const == 2
        assert CutPovm(10, 4).norm_const == math.comb(9, 3)
        assert CutPovm(5, 5).norm_const == 1

    def test_normalization_constant_is_computed_on_first_read(self, monkeypatch):
        # Building a POVM computes no binomial, even where C(N-1, M-1) would
        # take seconds; each POVM computes its own once, and no other keeps it.
        calls, comb = [], math.comb

        def counted(n, k):
            calls.append((n, k))
            assert n < 10**6, "computed a binomial that nothing read"
            return comb(n, k)

        monkeypatch.setattr(math, "comb", counted)
        assert CutPovm(10**7, 5 * 10**6) == CutPovm(10**7, 5 * 10**6)
        assert calls == []
        povm = CutPovm(10, 4)
        assert povm.norm_const == povm.norm_const == CutPovm(10, 4).norm_const == 84
        assert calls == [(9, 3), (9, 3)]

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            CutPovm(3, 4)
        with pytest.raises(ValueError):
            CutPovm(3, 0)

    def test_non_integer_dimensions_are_refused_by_name(self):
        for args, message in [((3.0, 2), "n 3.0 is not an integer"), ((3, 2.5), "m 2.5 is not an integer")]:
            with pytest.raises(ValueError) as err:
                CutPovm(*args)
            assert str(err.value) == message
        povm = CutPovm(np.int64(10), np.int8(4))
        assert povm == CutPovm(10, 4) and type(povm.n) is type(povm.m) is int

    def test_subset_index_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            SubsetIndex((1, 1))
        with pytest.raises(ValueError, match="increasing"):
            SubsetIndex((2, 1))
        with pytest.raises(ValueError, match="nonempty"):
            SubsetIndex(())


class TestElementMatrix:
    def test_three_to_two_element(self):
        mat = element_matrix(CutPovm(3, 2), SubsetIndex((0, 1)))
        np.testing.assert_array_equal(mat, np.diag([0.5, 0.5, 0.0]))

    def test_full_subset_is_identity(self):
        mat = element_matrix(CutPovm(4, 4), SubsetIndex((0, 1, 2, 3)))
        np.testing.assert_array_equal(mat, np.eye(4))

    def test_single_element_is_basis_projector(self):
        povm = CutPovm(4, 1)
        assert povm.norm_const == 1
        for j in range(4):
            expected = np.zeros((4, 4))
            expected[j, j] = 1.0
            np.testing.assert_array_equal(element_matrix(povm, SubsetIndex((j,))), expected)

    def test_invalid_subset_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            element_matrix(CutPovm(3, 2), SubsetIndex((0, 3)))
        with pytest.raises(ValueError, match="invalid"):
            element_matrix(CutPovm(3, 2), SubsetIndex((0, 1, 2)))


class TestOutcomeProbability:
    def test_basis_eigenstate(self):
        povm = CutPovm(3, 2)
        state = PureState.basis_state(3, 0)
        assert outcome_probability(povm, SubsetIndex((0, 1)), state) == pytest.approx(0.5)
        assert outcome_probability(povm, SubsetIndex((1, 2)), state) == 0.0

    def test_uniform_state_is_symmetric(self):
        povm = CutPovm(3, 2)
        for subset in subsets(povm):
            assert outcome_probability(povm, subset, uniform_state(3)) == pytest.approx(1 / 3)

    def test_probabilities_sum_to_one(self):
        rng = stream(501)
        for n, m in [(5, 3), (10, 4), (12, 6)]:
            povm = CutPovm(n, m)
            state = sample_state(n, rng)
            total = sum(outcome_probability(povm, s, state) for s in subsets(povm))
            assert abs(total - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            outcome_probability(CutPovm(3, 2), SubsetIndex((0, 1)), PureState.basis_state(4, 0))


class TestProjection:
    def test_supported_basis_state_is_unchanged(self):
        povm = CutPovm(3, 2)
        state = PureState.basis_state(3, 0)
        post, fid = project_pure(povm, SubsetIndex((0, 1)), state)
        np.testing.assert_allclose(post.amps, state.amps)
        assert fid == pytest.approx(1.0)

    def test_uniform_qutrit_cut_to_two_levels(self):
        povm = CutPovm(3, 2)
        post, fid = project_pure(povm, SubsetIndex((0, 1)), uniform_state(3))
        np.testing.assert_allclose(post.amps, [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0])
        assert fid == pytest.approx(2 / 3)
        assert fid == pytest.approx(2 * outcome_probability(povm, SubsetIndex((0, 1)), uniform_state(3)))

    def test_fidelity_equals_scaled_probability(self):
        rng = stream(502)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            r = int(rng.integers(2, 5))
            povm = CutPovm(n, m)
            entangled = BipartitePureState(n, r, sample_states(n * r, 1, rng)[0])
            for state in (sample_state(n, rng), entangled):
                outcome = sample_outcome(povm, state, rng)
                assert abs(outcome.shot_fidelity - povm.norm_const * outcome.probability) < 1e-12

    def test_pure_cut_is_the_single_column_bipartite_cut(self):
        rng = stream(510)
        for n, m in [(3, 2), (16, 4), (64, 8)]:
            povm = CutPovm(n, m)
            amps = sample_states(n, 1, rng)[0]
            subset = SubsetIndex(tuple(range(0, 2 * m, 2)) if 2 * m <= n else tuple(range(m)))
            post, fid = project_pure(povm, subset, PureState(n, amps))
            post_c, fid_c = project_bipartite(povm, subset, BipartitePureState(n, 1, amps))
            assert isinstance(post, PureState) and isinstance(post_c, BipartitePureState)
            assert fid == fid_c
            np.testing.assert_array_equal(post.amps, post_c.amps)

    def test_impossible_outcome_rejected(self):
        povm = CutPovm(3, 2)
        with pytest.raises(ValueError, match="zero probability"):
            project_pure(povm, SubsetIndex((0, 1)), PureState.basis_state(3, 2))

    def test_bipartite_product_state_survives(self):
        phi = np.zeros(3, dtype=complex)
        phi[0] = 1.0
        chi = np.array([0.6, 0.8], dtype=complex)
        state = BipartitePureState(3, 2, np.kron(phi, chi))
        post, fid = project_bipartite(CutPovm(3, 2), SubsetIndex((0, 1)), state)
        np.testing.assert_allclose(post.amps, state.amps)
        assert fid == pytest.approx(1.0)

    def test_bipartite_full_subset_is_identity(self):
        rng = stream(503)
        state = BipartitePureState(3, 2, sample_states(6, 1, rng)[0])
        post, fid = project_bipartite(CutPovm(3, 3), SubsetIndex((0, 1, 2)), state)
        assert post is state
        assert fid == 1.0

    def test_maximally_entangled_input_cut(self):
        amps = np.eye(3).ravel() / math.sqrt(3)
        state = BipartitePureState(3, 3, amps)
        povm = CutPovm(3, 2)
        post, fid = project_bipartite(povm, SubsetIndex((0, 1)), state)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 0] = expected[1, 1] = 1 / math.sqrt(2)
        np.testing.assert_allclose(post.matrix, expected, atol=1e-14)
        assert fid == pytest.approx(2 / 3)
        assert fid == pytest.approx(povm.norm_const * outcome_probability(povm, SubsetIndex((0, 1)), state))


class TestDensityCut:
    def test_maximally_mixed(self):
        povm = CutPovm(3, 2)
        rho = maximally_mixed(3)
        for subset in subsets(povm):
            post, prob = apply_cut_density(povm, subset, rho)
            assert prob == pytest.approx(1 / 3)
            expected = np.zeros((3, 3))
            idx = list(subset.indices)
            expected[idx, idx] = 0.5
            np.testing.assert_allclose(post.entries, expected, atol=1e-14)

    def test_supported_pure_density_unchanged(self):
        povm = CutPovm(3, 2)
        rho = from_pure(PureState.basis_state(3, 0))
        post, prob = apply_cut_density(povm, SubsetIndex((0, 1)), rho)
        np.testing.assert_allclose(post.entries, rho.entries)
        assert prob == pytest.approx(0.5)

    def test_result_is_valid_density_on_subset(self):
        rng = stream(504)
        for _ in range(50):
            state = BipartitePureState(4, 4, sample_states(16, 1, rng)[0])
            povm = CutPovm(4, 2)
            outcome = sample_outcome(povm, state, rng)
            post = partial_trace(outcome.post_state)
            assert abs(np.trace(post.entries) - 1.0) < 1e-10
            outside = [j for j in range(4) if j not in outcome.subset.indices]
            assert np.all(post.entries[outside, :] == 0)
            assert np.all(post.entries[:, outside] == 0)

    def test_cut_commutes_with_partial_trace(self):
        rng = stream(505)
        for _ in range(50):
            state = BipartitePureState(4, 3, sample_states(12, 1, rng)[0])
            rho = partial_trace(state)
            povm = CutPovm(4, 2)
            outcome = sample_outcome(povm, state, rng)
            cut_then_trace = partial_trace(outcome.post_state)
            trace_then_cut, prob = apply_cut_density(povm, outcome.subset, rho)
            np.testing.assert_allclose(cut_then_trace.entries, trace_then_cut.entries, atol=1e-10)
            assert abs(prob - outcome.probability) < 1e-12


class TestSampling:
    def test_pivot_always_in_subset_for_basis_state(self):
        rng = stream(506)
        povm = CutPovm(3, 2)
        state = PureState.basis_state(3, 0)
        partners = Counter()
        for _ in range(2000):
            outcome = sample_outcome(povm, state, rng)
            assert 0 in outcome.subset.indices
            partners[outcome.subset.indices[1]] += 1
        assert partners[1] + partners[2] == 2000
        assert abs(partners[1] - 1000) < 150  # about 4.5 sigma for a fair coin

    def test_full_subset_is_certain(self):
        rng = stream(507)
        outcome = sample_outcome(CutPovm(4, 4), uniform_state(4), rng)
        assert outcome.subset.indices == (0, 1, 2, 3)
        assert outcome.probability == pytest.approx(1.0, abs=1e-12)
        assert outcome.shot_fidelity == 1.0

    def test_empirical_law_matches_enumeration(self):
        # Brute-force oracle for the pivot sampler on a fixed random state.
        rng = stream(508)
        povm = CutPovm(5, 2)
        state = sample_state(5, rng)
        exact = {s.indices: outcome_probability(povm, s, state) for s in subsets(povm)}
        draws = 100_000
        counts = Counter(sample_outcome(povm, state, rng).subset.indices for _ in range(draws))
        tv = 0.5 * sum(abs(counts[k] / draws - p) for k, p in exact.items())
        assert tv < 0.01

    def test_zero_weight_index_never_sampled(self):
        state = PureState.basis_state(2, 0)
        rng = stream(509)
        for _ in range(50):
            assert sample_outcome(CutPovm(2, 1), state, rng).subset.indices == (0,)

    @pytest.mark.parametrize("n,m", [(3, 2), (64, 8), (64, 32), (1040, 520), (2000, 1000)])
    def test_outcome_probability_is_rounded_once_from_the_exact_ratio(self, n, m):
        # W_S / C(N-1, M-1) as one correctly rounded division: the float
        # division's bits while C(N-1, M-1) < 2^53, and past it (about
        # 9.2e17 at (64, 32)) the exact ratio's float, which past 2^1024,
        # where floating C(N-1, M-1) overflows, is a subnormal at
        # (1040, 520) and 0.0 at (2000, 1000).
        povm, rng = CutPovm(n, m), stream(512)
        state = sample_state(n, rng)
        outcome = sample_outcome(povm, state, rng)
        weight = float((np.abs(state.matrix) ** 2).sum(axis=1)[list(outcome.subset.indices)].sum())
        assert outcome.probability == float(Fraction(weight) / povm.norm_const)
        if povm.norm_const < 2**53:
            assert outcome.probability == weight / povm.norm_const
        if povm.norm_const > 2**1024:
            assert outcome.probability < 2.0**-1022

    def test_batched_draw_refuses_bad_weights(self):
        povm = CutPovm(3, 2)
        with pytest.raises(ValueError, match="shape"):
            sample_subsets(povm, np.ones((4, 2)), stream(510))
        with pytest.raises(ValueError, match="no weight"):
            sample_subsets(povm, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), stream(510))

    def test_batched_full_subset_draws_nothing(self):
        rng = stream(511)
        chosen = sample_subsets(CutPovm(3, 3), np.ones((2, 3)), rng)
        assert chosen.tolist() == [[0, 1, 2], [0, 1, 2]]
        assert rng.random() == stream(511).random()


class TestConditionalLaw:
    # Averaged over its outcomes the cut is q * id + (1 - q) * (full
    # dephasing), q = (M-1)/(N-1), so the mean shot on one state with level
    # weights p_i is q + (1 - q) * sum_i p_i^2.

    def test_closed_form_is_the_enumerated_mean(self):
        rng = stream(513)
        for n in range(1, 9):
            for m in range(1, n + 1):
                for r in range(1, 4):
                    state = BipartitePureState(n, r, sample_states(n * r, 1, rng)[0])
                    assert abs(conditional_fidelity(state, m) - shot_moment(state, m, 1)) < 1e-12
        # A mixed state through a purification: the same law with p_i = rho_ii.
        rho = partial_trace(BipartitePureState(6, 2, sample_states(12, 1, rng)[0]))
        purified = purify(rho)
        for m in range(1, 7):
            assert abs(conditional_fidelity(purified, m) - shot_moment(purified, m, 1)) < 1e-12
            assert abs(conditional_fidelity(rho, m) - conditional_fidelity(purified, m)) < 1e-12

    def test_shots_of_uneven_states_follow_their_exact_law(self):
        # One state's shots against its own exact mean and variance: a pivot
        # drawn from the wrong law for one level moves this mean by that
        # level's weights, where a Haar average spreads it over all inputs.
        shots, rng = 12_000, stream(514)
        for state, m in UNEVEN:
            povm = CutPovm(state.matrix.shape[0], m)
            fs = np.array([sample_outcome(povm, state, rng).shot_fidelity for _ in range(shots)])
            mean = shot_moment(state, m, 1)
            z = (fs.mean() - mean) / math.sqrt((shot_moment(state, m, 2) - mean**2) / shots)
            assert abs(z) < 5.0, (povm, z)


class TestCompleteness:
    def test_small_case_is_exact(self):
        worst, norms = _max_completeness_deviation(3)
        assert (worst[3, 2], norms[3, 2]) == (0, 2)

    @pytest.mark.parametrize("n,m", [(10, 4), (12, 6)])
    def test_larger_cases(self, n, m):
        worst, norms = _max_completeness_deviation(n)
        assert Fraction(worst[n, m], norms[n, m]) == completeness_deviation(n, m)

    def test_enumeration_cap(self, monkeypatch):
        # The widest row of max_n = 12 holds C(12, 6) = 924 subsets.
        for cap in (100, 923):
            monkeypatch.setattr("qcut.povm.ENUMERATION_CAP", cap)
            with pytest.raises(ValueError, match="cap"):
                _max_completeness_deviation(12)
        monkeypatch.setattr("qcut.povm.ENUMERATION_CAP", 924)
        worst, norms = _max_completeness_deviation(12)
        assert worst.shape == norms.shape == (13, 13)
        assert worst.dtype == norms.dtype == np.int64

    def test_cap_sweep_memory_is_bounded(self):
        # max_n = 22 passes over 2^22 masks, 32 MiB as one int64 array.
        tracemalloc.start()
        try:
            worst, norms = _max_completeness_deviation(22)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not worst.any()
        assert norms[22, 11] == math.comb(21, 10)
        assert peak < 4 * 2**20

    def test_sum_of_elements_is_identity_matrix(self):
        povm = CutPovm(6, 3)
        total = sum(element_matrix(povm, s) for s in subsets(povm))
        np.testing.assert_allclose(total, np.eye(6), atol=1e-12)
