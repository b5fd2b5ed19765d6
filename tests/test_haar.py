import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import point_to_state, sample_point, sample_states_gaussian

from qcut import experiments
from qcut.experiments import CHUNK, ExperimentConfig
from qcut.haar import SAMPLER_PEAK, exact_moment_fraction, sample_state, sample_states, sample_weights
from qcut.povm import CutPovm, sample_subsets
from qcut.rng import stream


def leading_moment(dim, *exps):
    return Fraction(*exact_moment_fraction(dim, tuple(exps) + (0,) * (dim - len(exps))))


def mean_and_stderr(values):
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


class TestCoordinates:
    def test_pole_collapses_to_first_axis(self):
        state = point_to_state([0.0], [0.3, 1.1])
        np.testing.assert_allclose(state.amps, [np.exp(0.3j), 0.0], atol=1e-15)

    def test_equal_superposition_at_quarter_pi(self):
        state = point_to_state([np.pi / 4], [0.0, 0.0])
        np.testing.assert_allclose(state.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_random_points_give_unit_norm(self):
        rng = stream(401)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            state = point_to_state(*sample_point(dim, rng))
            assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) < 1e-13


class TestSamplers:
    def test_dim_one_is_a_phase(self):
        rng = stream(403)
        assert abs(abs(sample_state(1, rng).amps[0]) - 1.0) < 1e-14
        assert abs(abs(sample_states_gaussian(1, 1, rng)[0, 0]) - 1.0) < 1e-14

    def test_one_state_equals_the_angular_route(self):
        # Oracle: the angular coordinates mapped one amplitude at a time, from
        # an equal stream; they make the same draws in the same order.
        for dim in (1, 2, 3, 8, 48):
            for seed in range(20):
                state = sample_state(dim, stream(415, seed))
                expected = point_to_state(*sample_point(dim, stream(415, seed)))
                assert state.matrix.shape == (dim, 1)
                np.testing.assert_allclose(state.amps, expected.amps, rtol=0, atol=1e-13)

    def test_rejects_dim_zero(self):
        rng = stream(404)
        with pytest.raises(ValueError, match="dimension"):
            sample_state(0, rng)
        with pytest.raises(ValueError, match="dimension"):
            sample_states(0, 5, rng)
        with pytest.raises(ValueError, match="dimension"):
            sample_weights(0, 5, rng)

    def test_mean_weight_is_uniform(self):
        rng = stream(405)
        weights = np.abs(sample_states(4, 100_000, rng)) ** 2
        for j in range(4):
            mean, stderr = mean_and_stderr(weights[:, j])
            assert abs(mean - 0.25) < 4 * stderr

    def test_fourth_moment_matches_exact_value(self):
        rng = stream(406)
        weights = np.abs(sample_states(3, 100_000, rng)) ** 2
        mean, stderr = mean_and_stderr(weights[:, 0] ** 2)
        assert float(leading_moment(3, 2)) == pytest.approx(1 / 6)
        assert abs(mean - 1 / 6) < 4 * stderr

    def test_gaussian_sampler_weight_is_uniform_for_qubits(self):
        rng = stream(407)
        w = np.abs(sample_states_gaussian(2, 100_000, rng)[:, 0]) ** 2
        assert stats.kstest(w, "uniform").statistic < 0.01

    def test_two_samplers_agree_on_first_two_moments(self):
        rng = stream(408)
        for power in (1, 2):
            a = np.abs(sample_states(5, 100_000, rng)[:, 0]) ** (2 * power)
            b = np.abs(sample_states_gaussian(5, 100_000, rng)[:, 0]) ** (2 * power)
            mean_a, se_a = mean_and_stderr(a)
            mean_b, se_b = mean_and_stderr(b)
            assert abs(mean_a - mean_b) < 4 * math.hypot(se_a, se_b)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_both_samplers_match_exact_moments(self, dim):
        rng = stream(409 + dim)
        for sampler in (sample_states, sample_states_gaussian):
            w = np.abs(sampler(dim, 100_000, rng)) ** 2
            mean, stderr = mean_and_stderr(w[:, 0] ** 2)
            assert abs(mean - float(leading_moment(dim, 2))) < 4 * stderr
            if dim >= 2:
                mean, stderr = mean_and_stderr(w[:, 0] * w[:, 1])
                assert abs(mean - float(leading_moment(dim, 1, 1))) < 4 * stderr

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 64])
    def test_in_place_rows_equal_the_direct_formula_bit_for_bit(self, dim):
        # Oracle: the same inverse-CDF map written out with temporaries.  At
        # dim 1 there are no angles and every magnitude is one.
        a, b, c = stream(410, dim), stream(410, dim), stream(410, dim)
        for count in (0, 1, 7, 300):
            v = b.random((count, dim - 1))
            u = v ** (1.0 / (dim - 1 - np.arange(dim - 1)))
            phis = b.random((count, dim)) * 2.0 * math.pi
            prefix = np.cumprod(u, axis=1)
            mags = np.concatenate(
                [1.0 - u[:, :1], prefix[:, :-1] * (1.0 - u[:, 1:]), prefix[:, -1:]], axis=1
            ) if dim > 1 else np.ones((count, 1))
            expected = np.sqrt(mags) * np.exp(1j * phis)
            rows = sample_states(dim, count, a)
            assert rows.shape == expected.shape
            assert rows.tobytes() == expected.tobytes()
            # The weights draw stops before the square root.
            assert sample_weights(dim, count, c).tobytes() == mags.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 64])
    def test_chunk_draw_peaks_within_the_sampler_peak(self, dim):
        rng = stream(825, dim)
        sample_states(dim, CHUNK, rng)  # first-call allocations are not the sampler's
        tracemalloc.start()
        try:
            out = sample_states(dim, CHUNK, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes < peak <= SAMPLER_PEAK * out.nbytes
        # A pure chunk is charged that, its 8 B shot values and its group's
        # GROUP_BYTES, at any shard length.
        for samples in (CHUNK, 3 * CHUNK):
            config = ExperimentConfig(n=dim, m=dim, samples=samples, shards=1)
            charge = SAMPLER_PEAK * out.nbytes + 8 * CHUNK + experiments.GROUP_BYTES
            assert 16 * experiments._shard_values(config) == charge


class TestWeights:
    @pytest.mark.parametrize("dim", [1, 2, 5, 64])
    def test_weights_equal_the_angular_route_within_a_few_ulp(self, dim):
        # Oracle: |amplitude|^2 of the angles mapped one amplitude at a time.
        # Row by row from two equal streams, which stay aligned only if each
        # weights row takes all 2N - 1 doubles of its state.  The oracle's
        # cos(arcsin(sqrt(u)))^2 loses the relative accuracy of 1 - u near
        # u = 1, so the bound is in ulp of the row's unit norm.
        a, b = stream(416, dim), stream(416, dim)
        for _ in range(200):
            weights = sample_weights(dim, 1, a)[0]
            expected = np.abs(point_to_state(*sample_point(dim, b)).amps) ** 2
            np.testing.assert_allclose(weights, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 5, 64])
    def test_weights_equal_the_squared_amplitudes_within_a_few_ulp(self, dim):
        a, b = stream(420, dim), stream(420, dim)
        weights, rows = sample_weights(dim, 300, a), sample_states(dim, 300, b)
        np.testing.assert_allclose(weights, np.abs(rows) ** 2, rtol=1.5e-15, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 5, 64])
    def test_draw_leaves_the_stream_where_sample_states_leaves_it(self, dim):
        a, b = stream(417, dim), stream(417, dim)
        for count in (0, 1, 7, 300):
            sample_weights(dim, count, a)
            sample_states(dim, count, b)
            assert a.random() == b.random()

    @pytest.mark.parametrize("n,m", [(64, 8), (5, 2), (4, 4), (2, 1)])
    def test_subsets_from_the_weights_equal_those_from_the_amplitudes(self, n, m):
        povm = CutPovm(n, m)
        for seed in range(3):
            a, b = stream(418, seed), stream(418, seed)
            weights = sample_weights(n, 4096, a)
            squared = np.abs(sample_states(n, 4096, b)) ** 2
            assert np.array_equal(sample_subsets(povm, weights, a), sample_subsets(povm, squared, b))


class TestExactMoments:
    def test_qubit_fourth_moment_against_quadrature(self):
        # Oracle: 1D quadrature of cos^4 against the angular density.
        num, _ = integrate.quad(lambda t: np.cos(t) * np.sin(t) * np.cos(t) ** 4, 0, np.pi / 2)
        den, _ = integrate.quad(lambda t: np.cos(t) * np.sin(t), 0, np.pi / 2)
        assert num / den == pytest.approx(1 / 3, rel=1e-12)
        assert float(leading_moment(2, 2)) == pytest.approx(1 / 3, rel=1e-14)

    def test_qutrit_fourth_moment_gives_measurement_fidelity(self):
        assert leading_moment(3, 2) == Fraction(1, 6)
        assert 3 * float(leading_moment(3, 2)) == pytest.approx(1 / 2)

    @pytest.mark.parametrize("dim", [1, 2, 5, 17])
    def test_single_weight_averages_to_reciprocal_dim(self, dim):
        assert leading_moment(dim, 1) == Fraction(1, dim)

    def test_reduced_identity_for_entangled_averages(self):
        # N*R-dimensional moments recombine into (R+1)/(N*R+1), exactly.
        for n in range(1, 13):
            for r in range(1, 7):
                nr = n * r
                combined = nr * leading_moment(nr, 2)
                if r > 1:
                    combined += nr * (r - 1) * leading_moment(nr, 1, 1)
                assert combined == Fraction(r + 1, nr + 1)

    def test_large_inputs_stay_accurate(self):
        value = Fraction(*exact_moment_fraction(64, (8, 7, 5) + (0,) * 61))
        logs = (
            math.lgamma(64)
            + math.lgamma(9)
            + math.lgamma(8)
            + math.lgamma(6)
            - math.lgamma(64 + 20)
        )
        assert float(value) == pytest.approx(math.exp(logs), rel=1e-12)

    @pytest.mark.parametrize("exponents", [(2,), (1, 1), (2, 1), (1, 1, 2)])
    def test_arrays_of_dims_are_exact_on_both_sides_of_the_int64_switch(self, exponents):
        # The denominator, t = sum(exponents) factors up to dim - 1 + t,
        # takes int64 while that factor to the t is below 2^53.
        t = sum(exponents)
        top = round(2 ** (53 / t))
        while top**t >= 2**53:
            top -= 1
        while (top + 1) ** t < 2**53:
            top += 1
        dims = np.arange(top - t + 1 - 20, top - t + 1 + 20)
        assert (dims[0] - 1 + t) ** t < 2**53 <= (dims[-1] - 1 + t) ** t
        singles = [exact_moment_fraction(int(dim), exponents) for dim in dims]
        dtypes = set()
        for dim, single in zip(dims, singles):
            # One-dim arrays, so that each dim takes its own side.
            num, den = exact_moment_fraction(dims[dims == dim], exponents)
            dtypes.add(den.dtype)
            assert (num, den.tolist()) == (single[0], [single[1]])
        assert dtypes == {np.dtype(np.int64), np.dtype(object)}
        # One array across the switch takes Python ints throughout.
        num, den = exact_moment_fraction(dims, exponents)
        assert den.dtype == object
        assert [(num, d) for d in den.tolist()] == singles

    def test_moment_argument_validation(self):
        with pytest.raises(TypeError):
            exact_moment_fraction(2, (1.5, 0))
        with pytest.raises(ValueError, match="positive"):
            exact_moment_fraction(3, (0, 0, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            exact_moment_fraction(2, (1, -1))
        with pytest.raises(ValueError, match="more exponents than"):
            exact_moment_fraction(2, (1, 0, 0))
        # An array of dims is checked dim by dim.
        with pytest.raises(ValueError, match="dimension must be positive"):
            exact_moment_fraction(np.array([3, 0]), (1,))
        with pytest.raises(ValueError, match="more exponents than"):
            exact_moment_fraction(np.array([3, 2]), (1, 0, 1))
