import dataclasses
import functools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import composition_residual, moment_fidelity, relation_residual
from scipy import stats

from qcut import experiments
from qcut.experiments import (
    ExperimentConfig,
    analytic_entangled,
    analytic_pure,
    analytic_state_estimation,
    composition_check,
    exact_entangled_via_moments,
    exact_pure_via_moments,
    horodecki_bound,
    relation_check,
    run_experiment,
)
from qcut.haar import sample_state, sample_states, sample_weights
from qcut.linalg import BipartitePureState, PureState
from qcut.povm import CutPovm, sample_outcome
from qcut.rng import stream


BETA_LAW_CONFIGS = [(3, 2, 1), (4, 2, 3), (16, 4, 4), (64, 8, 1)]


@functools.cache
def beta_law_chunk(n, m, r):
    """The shots of one CHUNK-row entangled ``_cut_chunk`` at seed 7."""
    config = ExperimentConfig(n=n, m=m, r=r, mode="entangled", samples=experiments.CHUNK, seed=7)
    (shots,) = experiments._cut_chunk(config, experiments.CHUNK, stream(7), CutPovm(n, m))
    shots.setflags(write=False)
    return shots


def cut_one_by_one(config, size, rng, povm):
    """The Bures check's inputs for ``size`` Haar rows drawn from ``rng``,
    each cut through its own ``sample_outcome`` call: the (k, N, R) rows,
    their (k, M) subsets and their shots."""
    rows = sample_states(config.n * config.r, size, rng).reshape(size, config.n, config.r)
    outcomes = [sample_outcome(povm, BipartitePureState(config.n, config.r, row.ravel()), rng) for row in rows]
    chosen = np.array([outcome.subset.indices for outcome in outcomes], dtype=np.intp).reshape(size, config.m)
    return rows, chosen, np.array([outcome.shot_fidelity for outcome in outcomes])


# (n, m, r, rows) of one-shard runs per mode, whose peak must stay within
# what ``_group_bytes`` charges from the mode's ``drawn``, ``held`` and
# ``scored`` declarations; ``rows`` may instead be a tuple of the shard
# sizes of one pooled group.  Every mode runs 1, 8 and 48 rows,
# where a group's fixed cost weighs most.  Pure: also the sampler's
# dimensions, and a shard of three chunks, which holds one at a time (m = n
# keeps its shots cheap).  Mixed: also a one-chunk shard of three Bures
# sub-batches, and at R > N a full chunk, whose relabeled N x R rows a
# sub-batch holds; (64, 8, 1) is the widest N / R of the thin (R x R Gram)
# eigendecomposition of the reduced input, and (8, 3, 8) has R = N.  State
# estimation: also 16 shards of 125 rows at (5, 2), which one group holds
# drawn until it scores them all as one stack, and one row at N = 8192,
# where the weight map's N exponents and the ranking's temporaries of N
# outweigh the row.
FEW_ROWS = (1, 8, 48)
CHUNK_PEAK_CASES = {
    "pure": [(dim, dim, 1, experiments.CHUNK) for dim in (1, 2, 3)]
    + [(64, 64, 1, 3 * experiments.CHUNK)]
    + [(64, 8, 1, rows) for rows in FEW_ROWS],
    "entangled": [(16, 4, 4, rows) for rows in (*FEW_ROWS, experiments.CHUNK)],
    "mixed": [(32, 8, 2, 3 * experiments._group_rows(ExperimentConfig(n=32, m=8, r=2, mode="mixed"))),
              (2, 1, 64, experiments.CHUNK)]
    + [(*dims, rows) for dims in [(64, 8, 1), (16, 4, 4), (8, 3, 8), (2, 1, 64)] for rows in FEW_ROWS],
    "state_estimation": [(n, m, 1, experiments.CHUNK) for n, m in [(64, 8), (64, 63), (5, 2), (2, 1), (1, 1)]]
    + [(64, 8, 1, rows) for rows in FEW_ROWS]
    + [(5, 2, 1, (125,) * 16), (8192, 1, 1, 1)],
}


def within_sigma(estimate, k=4):
    return abs(estimate.mean - estimate.analytic_target) < k * max(estimate.stderr, 1e-15)


class TestClosedForms:
    def test_pure_values(self):
        assert analytic_pure(3, 2) == pytest.approx(3 / 4)
        assert analytic_pure(2, 1) == pytest.approx(2 / 3)
        for n in (1, 4, 9):
            assert analytic_pure(n, n) == 1.0

    def test_entangled_values(self):
        assert analytic_entangled(3, 2, 2) == pytest.approx(5 / 7)
        assert analytic_entangled(2, 1, 2) == pytest.approx(3 / 5)
        assert analytic_entangled(4, 4, 3) == 1.0
        assert analytic_entangled(5, 2, 1) == analytic_pure(5, 2)

    def test_cut_to_single_level(self):
        # (R+1)/(NR+1) at M = 1.
        assert analytic_entangled(3, 1, 1) == pytest.approx(1 / 2)
        assert analytic_entangled(2, 1, 2) == pytest.approx(3 / 5)
        for r in (1, 3, 6):
            assert analytic_entangled(1, 1, r) == 1.0

    def test_state_estimation_values(self):
        assert analytic_state_estimation(2, 1) == pytest.approx(2 / 3)
        assert analytic_state_estimation(4, 2) == pytest.approx(0.3)
        for n in (2, 5):
            assert analytic_state_estimation(n, n) == pytest.approx(1 / n)

    def test_arrays_of_cases_equal_their_one_case_calls(self):
        # Every form takes int64 while the square of its largest entry, N,
        # is below 2^53: up to N = 94906265.  There N (N + 1), the bound's
        # denominator and the largest product of any form, passes 2^53 too.
        # Past 2^53 an N + 1 floated from int64 is rounded: at N = 2^54 + 1
        # it is 2^54, and 4 / 2^54 is one ulp above the correctly rounded
        # 4 / (2^54 + 2).
        top = 94906265
        assert top**2 < 2**53 <= (top + 1) ** 2
        assert top * (top + 1) < 2**53 <= (top + 1) * (top + 2)
        cases = [(n, m) for n in range(1, 8) for m in range(1, n + 1)]
        cases += [(n, m) for n in range(top - 3, top + 4) for m in (1, 2, n // 2, n - 1, n)]
        cases += [(2**54 + 1, 3)]
        assert float(Fraction(4, 2**54 + 2)) < 2.0**-52
        for form, exact in (
            (analytic_pure, lambda n, m: Fraction(m + 1, n + 1)),
            (horodecki_bound, lambda n, m: Fraction(n * m + n, n * (n + 1))),
            (analytic_state_estimation, lambda n, m: Fraction(m + 1, m * (n + 1))),
        ):
            values = [form(*case) for case in cases]
            assert values == [float(exact(*case)) for case in cases]
            for case, value in zip(cases, values):
                # One-case arrays, so that each case takes its own side.
                assert form(*np.array([case]).T).tolist() == [value]
            # One array across the switch takes Python ints throughout.
            assert form(*np.array(cases).T).tolist() == values

    def test_range_validation(self):
        with pytest.raises(ValueError):
            analytic_pure(2, 3)
        with pytest.raises(ValueError):
            analytic_entangled(3, 2, 0)


class TestHorodeckiBound:
    def test_reference_value(self):
        assert horodecki_bound(3, 2) == pytest.approx(3 / 4)
        assert horodecki_bound(6, 6) == 1.0

    def test_identity_with_closed_form(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                assert horodecki_bound(n, m) == analytic_pure(n, m)


class TestRelationAndComposition:
    def test_reference_case(self):
        # 3/4 = 1/2 + (1/2) * (1/2)
        assert relation_check(3, 2, 1) == 0.0
        assert relation_check(4, 2, 2) == 0.0

    def test_relation_sweep(self):
        worst = max(
            relation_check(n, m, r)
            for n in range(2, 13)
            for m in range(1, n)
            for r in range(1, 7)
        )
        assert worst < 1e-14

    def test_relation_needs_n_at_least_two(self):
        with pytest.raises(ValueError, match="^n 1 is below 2$"):
            relation_check(1, 1, 1)

    def test_composition_reference_case(self):
        # 3/5 = (4/5) * (3/4)
        assert composition_check(4, 3, 2, 1) == 0.0
        assert analytic_pure(4, 2) == pytest.approx(analytic_pure(4, 3) * analytic_pure(3, 2))

    def test_arrays_of_cases_are_exact_on_both_sides_of_the_int64_switch(self, monkeypatch):
        # A closed form shifted by 1/(NR+1) keeps every entry's size and makes
        # the residuals nonzero.  The checks take int64 while the cube of
        # their largest entry is below 2^53: at (N, K, M) = (2, 2, 1) up to
        # R = 104030, where the entry is 2R + 2.  The largest product there,
        # (2R + 1)^3, itself crosses 2^53 between R = 104031 and 104032.
        monkeypatch.setattr(experiments, "_fidelity_ratio", lambda n, m, r: (m * r + 2, n * r + 1))
        aux = np.arange(104031 - 40, 104031 + 40)
        assert (2 * aux[0] + 1) ** 3 < 2**53 <= (2 * aux[-1] + 1) ** 3
        for r in aux.tolist():
            # One-case arrays, so that each case takes its own side.
            one = np.array([r])
            assert composition_check(one * 0 + 2, one * 0 + 2, one * 0 + 1, one).tolist() == [
                composition_residual(2, 2, 1, r)
            ]
            assert relation_check(one * 0 + 2, one * 0 + 1, one).tolist() == [relation_residual(2, 1, r)]
        # One array across the switch takes Python ints throughout.
        twos = np.full(len(aux), 2)
        assert composition_check(twos, twos, twos // 2, aux).tolist() == [
            composition_residual(2, 2, 1, r) for r in aux.tolist()
        ]

    def test_arrays_are_checked_case_by_case(self):
        ones = np.ones(3, dtype=np.int64)
        residuals = composition_check(4 * ones, 3 * ones, 2 * ones, np.arange(1, 4))
        assert residuals.dtype == np.float64 and residuals.tolist() == [0.0, 0.0, 0.0]
        assert isinstance(composition_check(4, 3, 2, 1), float)
        assert isinstance(relation_check(4, 3, 2), float)
        # The first case out of bounds is refused as its ints would be.
        with pytest.raises(ValueError, match="^m 4 is above 3$"):
            composition_check(4 * ones, 3 * ones, np.array([2, 4, 2]), ones)
        with pytest.raises(ValueError, match="^r 0 is below 1$"):
            composition_check(4 * ones, 3 * ones, 2 * ones, np.array([1, 0, 1]))
        with pytest.raises(ValueError, match="^n 1 is below 2$"):
            relation_check(np.array([3, 1]), np.array([1, 1]), np.array([1, 1]))
        with pytest.raises(ValueError, match="^m 3 is above 2$"):
            relation_check(np.array([3, 3]), np.array([1, 3]), np.array([1, 1]))
        # Its n >= 2 and M < N are checked with the rest, in one pass: the
        # first bad case is named, not the first to break 1 <= M <= N.
        with pytest.raises(ValueError, match="^n 1 is below 2$"):
            relation_check(np.array([1, 0]), np.array([1, 1]), np.array([1, 1]))

    def test_composition_sweep(self):
        worst = max(
            composition_check(n, k, m, r)
            for n in range(1, 13)
            for k in range(1, n + 1)
            for m in range(1, k + 1)
            for r in range(1, 7)
        )
        assert worst < 1e-14


class TestMomentDerivations:
    def test_pure_reference_values(self):
        assert exact_pure_via_moments(3, 2) == pytest.approx(3 / 4, abs=1e-15)
        assert exact_pure_via_moments(2, 1) == pytest.approx(2 / 3, abs=1e-15)

    def test_pure_sweep(self):
        for n in range(1, 21):
            for m in range(1, n + 1):
                assert abs(exact_pure_via_moments(n, m) - analytic_pure(n, m)) < 1e-13

    def test_entangled_reference_values(self):
        assert exact_entangled_via_moments(3, 2, 2) == pytest.approx(5 / 7, abs=1e-15)
        assert exact_entangled_via_moments(4, 2, 1) == analytic_pure(4, 2)

    def test_entangled_sweep(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                for r in range(1, 7):
                    diff = abs(exact_entangled_via_moments(n, m, r) - analytic_entangled(n, m, r))
                    assert diff < 1e-13

    def test_memory_does_not_grow_with_the_moment_dimension(self):
        # A moment on N * R = 1.2e7 amplitudes names only its nonzero exponents.
        exact_entangled_via_moments(2, 1, 2)  # first-call allocations are not the route's
        tracemalloc.start()
        try:
            value = exact_entangled_via_moments(12, 6, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == analytic_entangled(12, 6, 10**6)
        assert peak < 2**20

    def test_arrays_of_cases_equal_their_one_case_calls(self):
        cases = [(n, m, r) for n in range(1, 7) for m in range(1, n + 1) for r in (1, 3, 2)]
        n, m, r = np.array(cases).T
        values = exact_entangled_via_moments(n, m, r)
        assert values.tolist() == [exact_entangled_via_moments(*case) for case in cases]
        pure = exact_pure_via_moments(n, m)
        assert pure.tolist() == [exact_pure_via_moments(n, m) for n, m, _ in cases]

    def test_arrays_of_cases_are_exact_on_both_sides_of_the_int64_switch(self, monkeypatch):
        # Moments whose numerators are raised by 1 keep every entry's size
        # and move the route off the closed form.  The route takes int64
        # while the fourth power of its largest entry, the moment denominator
        # NR (NR + 1), is below 2^53: up to NR = 98.  Its last step squares
        # the term's denominator, (NR (NR + 1))^2, and switches there too.
        # That square itself passes 2^53 near NR = 9741, and past
        # NR = 94906264 the moments' own denominators leave int64.
        moment = experiments.exact_moment_fraction

        def raised(dim, exponents):
            num, den = moment(dim, exponents)
            return num + 1, den

        monkeypatch.setattr(experiments, "exact_moment_fraction", raised)
        assert (98 * 99) ** 4 < 2**53 <= (99 * 100) ** 4
        cases = [(n, m, r) for n in (1, 2, 3) for m in range(1, n + 1) for r in range(80 // n, 121 // n)]
        cases += [(n, m, 1) for n in range(90, 110) for m in (1, n // 2, n)]
        cases += [(2, m, r) for m in (1, 2) for r in range(4860, 4880)]
        cases += [(12, 6, 10**6), (2, 1, 10**8)]
        for case in cases:
            # One-case arrays, so that each case takes its own side.
            one = np.array([case]).T
            assert exact_entangled_via_moments(*one).tolist() == [moment_fidelity(*case)]
        # One array across the switch takes Python ints throughout; 0-d
        # arrays and NumPy scalars are single cases.
        n, m, r = np.array(cases).T
        assert exact_entangled_via_moments(n, m, r).tolist() == [moment_fidelity(*case) for case in cases]
        for scalar in (np.int64, np.array):
            assert exact_entangled_via_moments(*map(scalar, (12, 6, 10**6))) == moment_fidelity(12, 6, 10**6)


class TestMonteCarlo:
    def test_pure_converges(self):
        est = run_experiment(ExperimentConfig(n=3, m=2, mode="pure", samples=20_000, seed=801))
        assert within_sigma(est)
        assert est.stderr < 5e-3

    def test_pure_trivial_cut_is_exact(self):
        est = run_experiment(ExperimentConfig(n=4, m=4, mode="pure", samples=500, seed=802))
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.z_score == 0.0

    def test_pure_single_level(self):
        est = run_experiment(ExperimentConfig(n=5, m=1, mode="pure", samples=20_000, seed=803))
        assert est.analytic_target == pytest.approx(1 / 3)
        assert within_sigma(est)

    def test_entangled_converges(self):
        est = run_experiment(
            ExperimentConfig(n=3, m=2, r=2, mode="entangled", samples=20_000, seed=804)
        )
        assert est.analytic_target == pytest.approx(5 / 7)
        assert within_sigma(est)

    def test_entangled_equal_dims_is_exact(self):
        est = run_experiment(
            ExperimentConfig(n=2, m=2, r=5, mode="entangled", samples=300, seed=805)
        )
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_mixed_converges(self):
        est = run_experiment(ExperimentConfig(n=2, m=1, r=2, mode="mixed", samples=20_000, seed=806))
        assert est.analytic_target == pytest.approx(3 / 5)
        assert within_sigma(est)

    def test_mixed_equal_dims_is_exact(self):
        est = run_experiment(ExperimentConfig(n=3, m=3, r=2, mode="mixed", samples=300, seed=807))
        assert est.mean == 1.0

    def test_mixed_bures_verification(self):
        est = run_experiment(ExperimentConfig(n=3, m=2, r=2, mode="mixed", samples=1_000, seed=808))
        assert est.bures_max_deviation is not None
        assert est.bures_max_deviation < 1e-8

    def test_bures_check_sees_a_shot_scored_on_another_subset(self):
        # The check rebuilds each cut from its input and subset, so a shot
        # paired with a subset it did not keep shows as a deviation.
        povm, rng = CutPovm(4, 2), stream(830)
        states = sample_states(12, 5, rng).reshape(5, 4, 3)
        outcomes = [sample_outcome(povm, BipartitePureState(4, 3, c.ravel()), rng) for c in states]
        chosen = np.array([outcome.subset.indices for outcome in outcomes])
        shots = np.array([outcome.shot_fidelity for outcome in outcomes])
        assert experiments._bures_deviation(states, chosen, shots, 5) < 1e-12
        other = next(s for s in [(0, 1), (2, 3), (0, 2)] if s != tuple(chosen[2]))
        swapped = chosen.copy()
        swapped[2] = other
        weight = float(np.sum(np.abs(states[2, list(other)]) ** 2))
        assert abs(weight - shots[2]) > 1e-3
        for step in (5, 2, 1):
            deviation = experiments._bures_deviation(states, swapped, shots, step)
            assert deviation == pytest.approx(abs(weight - shots[2]), abs=1e-12)

    @pytest.mark.parametrize("n,m,r", BETA_LAW_CONFIGS)
    def test_cut_shots_follow_the_size_biased_beta_law(self, n, m, r):
        # A Haar row's subset weight W_S is Beta(MR, (N-M)R); the cut keeps
        # S with probability proportional to W_S and scores f = W_S, so f is
        # the size-biased Beta(MR+1, (N-M)R).  One chunk of an entangled
        # run's shots.
        shots = beta_law_chunk(n, m, r)
        assert stats.kstest(shots, stats.beta(m * r + 1, (n - m) * r).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("n,m,r", BETA_LAW_CONFIGS)
    def test_cut_shot_variance_is_the_beta_variance(self, n, m, r):
        # The exact raw moments of Beta(a, b), a = MR+1 and a + b = NR+1,
        # are E[f^k] = prod_{i<k} (a+i)/(a+b+i).  The unbiased sample
        # variance s^2 of n shots has Var(s^2) = mu4/n - var^2 (n-3)/(n(n-1))
        # (n = size here), so the 5 sigma bound comes from the exact fourth
        # central moment.
        shots = beta_law_chunk(n, m, r)
        raw = [math.prod(Fraction(m * r + 1 + i, n * r + 1 + i) for i in range(k)) for k in range(5)]
        mean = raw[1]
        var = raw[2] - mean**2
        mu4 = raw[4] - 4 * mean * raw[3] + 6 * mean**2 * raw[2] - 3 * mean**4
        size = len(shots)
        var_s2 = mu4 / size - var**2 * (size - 3) / (size * (size - 1))
        assert abs(np.var(shots, ddof=1) - float(var)) < 5 * math.sqrt(var_s2)

    def test_state_estimation_converges(self):
        est = run_experiment(
            ExperimentConfig(n=2, m=1, mode="state_estimation", samples=20_000, seed=809)
        )
        assert est.analytic_target == pytest.approx(2 / 3)
        assert within_sigma(est)

    def test_guess_choice_is_symmetric(self):
        # The estimator guesses the smallest subset index; isotropy makes
        # the largest one equivalent.
        rng = stream(810)
        povm = CutPovm(4, 2)
        low, high = [], []
        for _ in range(20_000):
            state = sample_state(4, rng)
            indices = sample_outcome(povm, state, rng).subset.indices
            low.append(abs(state.amps[indices[0]]) ** 2)
            high.append(abs(state.amps[indices[-1]]) ** 2)
        combined = math.hypot(*(np.std(g, ddof=1) / math.sqrt(len(g)) for g in (low, high)))
        assert abs(np.mean(low) - np.mean(high)) < 3 * combined
        assert abs(np.mean(low) - analytic_state_estimation(4, 2)) < 5 * combined

    @pytest.mark.parametrize("n,m", [(5, 2), (4, 4), (64, 8)])
    def test_batched_state_estimation_equals_the_per_shot_reference(self, n, m):
        # N = 64 puts numpy's row sums in their unrolled pairwise regime (N >= 8).
        # Two shards of two chunks each, scored one shot at a time through
        # sample_outcome on the real amplitudes sqrt(w) of each weights row,
        # and reduced as the estimator reduces them.
        config = ExperimentConfig(
            n=n, m=m, mode="state_estimation", samples=3 * experiments.CHUNK, seed=826, shards=2
        )
        povm = CutPovm(n, m)
        shards = []
        for shard, count in enumerate(experiments._shard_sizes(config.samples, config.shards)):
            rng = stream(config.seed, shard)
            parts = []
            for start in range(0, count, experiments.CHUNK):
                shots = []
                for row in sample_weights(n, min(experiments.CHUNK, count - start), rng):
                    subset = sample_outcome(povm, PureState(n, np.sqrt(row)), rng).subset
                    shots.append(float(row[subset.indices[0]]))
                mean = math.fsum(shots) / len(shots)
                parts.append((len(shots), math.fsum(shots), math.fsum((f - mean) * (f - mean) for f in shots), None))
            assert len(parts) == 2
            shards.append(functools.reduce(lambda a, b: experiments._merge((a, b)), parts))
        count, total, centered_sq, _ = experiments._merge(shards)
        est = run_experiment(config)
        assert est.mean == total / count
        assert est.stderr == math.sqrt(centered_sq / (count - 1) / count)
        assert run_experiment(config, threads=2) == est

    def test_dispatch_by_mode(self):
        est = run_experiment(ExperimentConfig(n=2, m=1, mode="pure", samples=2_000, seed=811))
        assert est.analytic_target == pytest.approx(2 / 3)


class TestEstimatorContracts:
    def test_fixed_seed_and_shards_reproduce_bitwise(self):
        config = ExperimentConfig(n=3, m=2, mode="pure", samples=5_000, seed=812)
        assert run_experiment(config) == run_experiment(config)

    def test_thread_count_does_not_change_the_estimate(self):
        # Shards of one chunk, then two shards of two chunks each.
        for config in (
            ExperimentConfig(n=3, m=2, r=2, mode="entangled", samples=5_000, seed=813),
            ExperimentConfig(n=2, m=1, mode="pure", samples=3 * experiments.CHUNK, seed=813, shards=2),
        ):
            single = run_experiment(config, threads=1)
            for threads in (2, 4, 8):
                assert run_experiment(config, threads=threads) == single

    def test_worker_threads_are_capped_at_the_cpu_count(self, monkeypatch):
        # The stand-in records the pool size and maps serially: no thread starts.
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", SerialPool)
        # Eight shards of 100 rows in four groups of two (at most 252 rows
        # at N = 64).
        config = ExperimentConfig(n=64, m=8, mode="state_estimation", samples=800, seed=815, shards=8)
        assert len(experiments._groups(config)) == 4
        single = run_experiment(config)
        for cpus, threads in ((4, 100_000), (4, 3), (None, 8)):
            monkeypatch.setattr(experiments.os, "cpu_count", lambda cpus=cpus: cpus)
            assert run_experiment(config, threads=threads) == single
        # One CPU runs one group at a time, with no pool; so does one group.
        assert workers == [4, 3]
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        one = ExperimentConfig(n=2, m=1, mode="pure", samples=100, seed=815, shards=100)
        assert len(experiments._groups(one)) == 1
        assert run_experiment(one, threads=8) == run_experiment(one)
        assert workers == [4, 3]

    def test_different_shard_count_changes_the_stream(self):
        base = ExperimentConfig(n=3, m=2, mode="pure", samples=5_000, seed=814, shards=16)
        other = ExperimentConfig(n=3, m=2, mode="pure", samples=5_000, seed=814, shards=8)
        assert run_experiment(base).mean != run_experiment(other).mean

    def test_stderr_scales_as_inverse_root_samples(self):
        small = run_experiment(ExperimentConfig(n=3, m=2, mode="pure", samples=10_000, seed=815))
        large = run_experiment(ExperimentConfig(n=3, m=2, mode="pure", samples=40_000, seed=815))
        ratio = small.stderr / large.stderr
        assert 1.8 < ratio < 2.2

    def test_shot_variance_identity(self):
        # Var(f) = norm_const^2 Var(p) because f = norm_const * p per shot.
        rng = stream(816)
        povm = CutPovm(4, 2)
        fs, ps = [], []
        for _ in range(2_000):
            outcome = sample_outcome(povm, sample_state(4, rng), rng)
            fs.append(outcome.shot_fidelity)
            ps.append(outcome.probability)
        np.testing.assert_allclose(
            np.var(fs), povm.norm_const**2 * np.var(ps), rtol=1e-8
        )

    def test_stderr_of_nearly_constant_shots_is_accurate(self, monkeypatch):
        # 0.999 +- 1e-8: total_sq - n*mean^2 would lose most of the digits.
        shots = []

        def draw(*chunk):
            (values,) = experiments._cut_chunk(*chunk)
            values = 0.999 + 1e-8 * values
            shots.extend(values.tolist())
            return (values,)

        mode = experiments._MODES["pure"]._replace(target=lambda n, m, r: 0.999, draw=draw)
        monkeypatch.setitem(experiments._MODES, "pure", mode)
        # 16 shards of one chunk each, then one shard of five chunks.
        for shards in (16, 1):
            shots.clear()
            config = ExperimentConfig(n=3, m=2, mode="pure", samples=20_000, seed=820, shards=shards)
            est = run_experiment(config)
            assert len(shots) == 20_000
            # abs=0: approx's default absolute 1e-12 would allow 7% of this stderr.
            assert est.mean == pytest.approx(math.fsum(shots) / len(shots), rel=1e-15, abs=0)
            expected = np.std(shots, ddof=1) / math.sqrt(len(shots))
            assert est.stderr == pytest.approx(expected, rel=1e-6, abs=0)

    @staticmethod
    def shard_peak(config, *sizes):
        """The tracemalloc peak of one group of shards of ``sizes`` rows."""
        tracemalloc.start()
        try:
            experiments._group(config, list(sizes), len(sizes), 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_shard_memory_does_not_grow_with_its_rows(self):
        # A shard draws, scores and reduces CHUNK rows at a time, so a shard
        # of three chunks peaks where a shard of one does: with wide rows,
        # and with (2,1) rows, where three chunks of shot values would show.
        rows = experiments.CHUNK
        config = ExperimentConfig(n=16, m=4, r=4, mode="entangled", samples=3 * rows, seed=821)
        peaks = [self.shard_peak(config, count) for count in (rows, 3 * rows)]
        assert peaks[1] < 1.2 * peaks[0]
        config = ExperimentConfig(n=2, m=1, mode="pure", samples=3 * rows, seed=822)
        self.shard_peak(config, rows)  # first-call allocations are not the shard's
        base, peak = self.shard_peak(config, rows), self.shard_peak(config, 3 * rows)
        assert peak - base < 8 * 1024

    def test_bures_check_memory_does_not_grow_with_its_sub_batches(self):
        # Beside its inputs, the check holds one sub-batch at a time.
        config = ExperimentConfig(n=32, m=8, r=2, mode="mixed", seed=823)
        rows = experiments._group_rows(config)
        inputs = cut_one_by_one(config, 3 * rows, stream(823), CutPovm(32, 8))
        experiments._bures_deviation(*(array[:2] for array in inputs), rows)  # first-call allocations
        peaks = []
        for count in (rows, 3 * rows):
            part = [array[:count] for array in inputs]
            tracemalloc.start()
            try:
                experiments._bures_deviation(*part, rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0]

    @pytest.mark.parametrize(
        "mode,n,m,r,rows",
        [(mode, *case) for mode in experiments._MODES for case in CHUNK_PEAK_CASES[mode]],
    )
    def test_shard_peak_is_within_its_mode_charge(self, mode, n, m, r, rows):
        sizes = rows if isinstance(rows, tuple) else (rows,)
        config = ExperimentConfig(
            n=n, m=m, r=r, mode=mode, samples=sum(sizes), seed=832, shards=len(sizes)
        )
        assert list(experiments._shard_sizes(config.samples, config.shards)) == list(sizes)
        assert len(experiments._groups(config)) == 1
        self.shard_peak(config, *sizes)  # first-call allocations are not the shard's
        assert self.shard_peak(config, *sizes) <= experiments._group_bytes(config)

    @pytest.mark.parametrize(
        "n,m,r,samples,groups",
        # One group of all 16 shards (a group holds at most 819 rows at
        # (3, 2, 2)), then 16 shards of 187-188 rows in eight groups of two
        # (at most 481 rows at (4, 2, 3)).
        [(3, 2, 2, 100, 1), (4, 2, 3, 3_000, 8)],
    )
    def test_bures_verified_estimate_does_not_depend_on_threads(self, n, m, r, samples, groups):
        config = ExperimentConfig(n=n, m=m, r=r, mode="mixed", samples=samples, seed=824)
        assert len(experiments._groups(config)) == groups
        single = run_experiment(config, threads=1)
        assert single.bures_max_deviation < 1e-12
        assert run_experiment(config, threads=2) == single

    @pytest.mark.parametrize(
        "n,m,r,samples,shards,checks",
        [
            # Groups of six, six and four 16-row shards (a group holds at
            # most 102 rows at (16, 4, 4)), one check each.
            (16, 4, 4, 256, 16, [96, 96, 64]),
            # Two shards of 4500 rows, each larger than a group (819 rows
            # at (3, 2, 2)): each checks its two chunks one at a time.
            (3, 2, 2, 9_000, 2, [4096, 404] * 2),
        ],
    )
    def test_pooled_bures_check_equals_the_per_chunk_checks(
        self, monkeypatch, n, m, r, samples, shards, checks
    ):
        config = ExperimentConfig(n=n, m=m, r=r, mode="mixed", samples=samples, seed=833, shards=shards)
        povm, chunks = CutPovm(n, m), []
        for shard, count in enumerate(experiments._shard_sizes(config.samples, config.shards)):
            rng = stream(config.seed, shard)
            for start in range(0, count, experiments.CHUNK):
                size = min(experiments.CHUNK, count - start)
                chunks.append(cut_one_by_one(config, size, rng, povm))
        step = experiments._group_rows(config)
        oracle = max(experiments._bures_deviation(*inputs, step) for inputs in chunks)
        rows, check = [], experiments._bures_deviation

        def counted(*inputs):
            rows.append(len(inputs[0]))
            return check(*inputs)

        monkeypatch.setattr(experiments, "_bures_deviation", counted)
        assert run_experiment(config, threads=2).bures_max_deviation == oracle
        assert sorted(rows) == sorted(checks)

    @pytest.mark.parametrize(
        "n,m,r,rows", [(3, 2, 2, 64), (16, 4, 4, 64), (64, 8, 1, 64), (2, 1, 64, 64), (4, 4, 3, 8), (1024, 8, 1, 16)]
    )
    def test_batched_mixed_rows_are_the_per_shot_cuts(self, monkeypatch, n, m, r, rows):
        # A mixed chunk is drawn and cut on its stack; each row must keep the
        # subset and the shot bits of its own ``sample_outcome`` call, which
        # takes the same doubles from the same stream.  The stack's check
        # gets those rows, subsets and shots.
        config = ExperimentConfig(n=n, m=m, r=r, mode="mixed", samples=rows, seed=840)
        povm, checked = CutPovm(n, m), []
        monkeypatch.setattr(experiments, "_bures_deviation", lambda *inputs: checked.append(inputs) or 0.0)
        drawn = list(experiments._mixed_draw(config, rows, stream(840), povm))
        shots, _ = experiments._mixed_score(config, povm, drawn)
        states, chosen, oracle = cut_one_by_one(config, rows, stream(840), povm)
        (check,) = checked
        assert np.array_equal(check[0], states)
        assert np.array_equal(check[1], chosen)
        assert shots.tobytes() == oracle.tobytes()
        assert check[2] is shots and check[3] == experiments._group_rows(config)

    def test_groups_pool_consecutive_shards_by_their_rows(self):
        # The range of each group's first shard steps by as many shards of
        # the largest size as a group's rows hold, and no more than there are.
        def groups(mode="pure", n=2, m=1, r=1, **sizes):
            return experiments._groups(ExperimentConfig(n=n, m=m, r=r, mode=mode, seed=0, **sizes))

        # 4096 one-row shards a group (a pure group holds a chunk's rows).
        assert groups(samples=200_000, shards=200_000) == range(0, 200_000, 4096)
        # 16 shards of 1250 rows, three a group (3750 of 4096 rows).
        assert groups(samples=20_000) == range(0, 16, 3)
        # At most 819 rows at (3, 2, 2): 13 shards of 62-63 rows, then three.
        assert groups("mixed", 3, 2, 2, samples=1_000) == range(0, 16, 13)
        # A shard larger than a group is a group of its own, whatever the mode.
        assert groups(samples=10_000, shards=2) == range(0, 2, 1)
        assert groups("mixed", 3, 2, 2, samples=2_000, shards=2) == range(0, 2, 1)
        # More shards than samples: one row a shard, all in one group.
        assert groups("state_estimation", samples=16, shards=1_000).step == 16

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "config,groups",
        [
            # 4000 shards of one row each in one group, which holds every
            # shard's chunk pending until it scores them as one stack: the
            # run's peak is its per-shard sizes and merge parts and the
            # pending chunks' objects, at any thread count.  In both cut
            # modes the charge's stacking phase binds.
            pytest.param(
                ExperimentConfig(n=2, m=1, mode="pure", samples=4_000, seed=828, shards=4_000),
                1,
                id="cut-one-group",
            ),
            pytest.param(
                ExperimentConfig(n=2, m=1, r=2, mode="entangled", samples=4_000, seed=828, shards=4_000),
                1,
                id="entangled-one-group",
            ),
            pytest.param(
                ExperimentConfig(n=2, m=1, mode="state_estimation", samples=4_000, seed=828, shards=4_000),
                1,
                id="estimation-one-group",
            ),
            pytest.param(
                ExperimentConfig(n=2, m=1, mode="mixed", samples=1_000, seed=828, shards=1_000),
                1,
                id="bures-one-group",
            ),
            # The edge of the (N, M) range: one level kept of 10^5, and all
            # but one of 2000 at R = 2; four one-row shards in one group.
            pytest.param(
                ExperimentConfig(n=10**5, m=1, mode="pure", samples=4, seed=839),
                1,
                id="edge-pure",
            ),
            pytest.param(
                ExperimentConfig(n=2000, m=1999, r=2, mode="entangled", samples=4, seed=839),
                1,
                id="edge-entangled",
            ),
            # 1000 one-row shards at N = 8192, each a group of its own (a
            # group holds one row there): with threads, each queues a future.
            pytest.param(
                ExperimentConfig(n=8192, m=1, mode="state_estimation", samples=1_000, seed=828, shards=1_000),
                1_000,
                id="futures",
            ),
            # Two one-chunk shards: with two threads both working sets are live.
            pytest.param(
                ExperimentConfig(
                    n=64, m=8, mode="state_estimation", samples=2 * experiments.CHUNK, seed=829, shards=2
                ),
                2,
                id="working-sets",
            ),
            # Two groups of six shards that pool a group's whole rows (102
            # at (16, 4, 4), 78 at (32, 8, 2)); with two threads both are live.
            pytest.param(
                ExperimentConfig(n=16, m=4, r=4, mode="mixed", samples=204, seed=834, shards=12),
                2,
                id="bures-16-4-4",
            ),
            pytest.param(
                ExperimentConfig(n=32, m=8, r=2, mode="mixed", samples=156, seed=835, shards=12),
                2,
                id="bures-32-8-2",
            ),
            # All 16 shards of 125 rows in one group (at most 2730 rows at
            # N = 5), drawn and then scored as one stack.
            pytest.param(
                ExperimentConfig(n=5, m=2, mode="state_estimation", samples=2_000, seed=837),
                1,
                id="estimation-pooled",
            ),
            # 16 shards of 93-94 rows in eight groups of two (at most 252
            # rows at N = 64); with two threads two groups are live.
            pytest.param(
                ExperimentConfig(n=64, m=8, mode="state_estimation", samples=1_500, seed=838),
                8,
                id="estimation-groups",
            ),
        ],
    )
    def test_run_peak_is_within_the_guard_charge(self, monkeypatch, config, groups, threads):
        # Two CPUs, so that two threads start two workers on any host.
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        sizes = experiments._shard_sizes(config.samples, config.shards)
        rows, firsts = experiments._group_rows(config), experiments._groups(config)
        pooled = [sizes[first : first + firsts.step] for first in firsts]
        assert len(pooled) == groups
        if config.mode == "mixed" and groups > 1:
            assert [sum(group) for group in pooled] == [rows] * len(pooled)
            assert min(len(group) for group in pooled) > 1
        small = dataclasses.replace(config, samples=4, shards=4)
        run_experiment(small, threads=threads)
        tracemalloc.start()
        try:
            run_experiment(config, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= experiments._run_bytes(config, threads)

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_shard_count_is_charged_before_allocation(self, monkeypatch, cpus):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        # At least 256 B per shard: a billion shards would ask for 256 GB.
        config = ExperimentConfig(n=2, m=1, samples=10**12, seed=0, shards=10**9)
        with pytest.raises(ValueError, match="MiB cap"):
            experiments.check_run(config)
        # More shards than samples run one sample per shard, and are charged so.
        experiments.check_run(dataclasses.replace(config, samples=16))
        # 200,000 one-row shards hold about 50 MB of bookkeeping.  They run
        # in 49 groups of 4096 shards, and a pool queues one future a group,
        # so threads add little.
        for mode in ("pure", "state_estimation"):
            many = dataclasses.replace(config, mode=mode, samples=200_000, shards=200_000)
            assert len(experiments._groups(many)) == 49
            for threads in (1, 2):
                experiments.check_run(many, threads)

    @pytest.mark.parametrize("cpus", [None, 1, 2, 4, 64])
    def test_threads_are_charged_as_the_pool_starts_them(self, monkeypatch, cpus):
        # Sixteen shards of one 4096-row (64, 8, 8) chunk, 64 MiB of
        # working set each: the cap holds three running at once, not four.
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        config = ExperimentConfig(n=64, m=8, r=8, mode="entangled", samples=65_536)
        for threads in (1, 2, 3, 4, 100):
            if min(threads, cpus or 1) < 4:
                experiments.check_run(config, threads)
            else:
                with pytest.raises(ValueError, match="MiB cap"):
                    experiments.check_run(config, threads)

    @pytest.mark.parametrize(
        "threads,message",
        [(0, "threads 0 is below 1"), (-1, "threads -1 is below 1"),
         (1.5, "threads 1.5 is not an integer"), ("2", "threads '2' is not an integer")],
    )
    def test_bad_thread_counts_are_refused_before_allocation(self, monkeypatch, threads, message):
        # Refused before the working set is charged and before any stream or
        # pool exists: 1.5 used to be charged as 1.5 threads and start two,
        # and 0 or -1 to pass the guard at a charge of 0 or less.
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the thread check")

        for name in ("_run_bytes", "stream", "ThreadPoolExecutor"):
            monkeypatch.setattr(experiments, name, unreachable)
        config = ExperimentConfig(n=64, m=8, r=8, mode="entangled", samples=65_536)
        for call in (experiments.check_run, run_experiment):
            with pytest.raises(experiments.RunRefused) as err:
                call(config, threads)
            assert str(err.value) == message
        assert issubclass(experiments.RunRefused, ValueError)

    def test_numpy_thread_counts_run_as_their_int(self, monkeypatch):
        # Six groups on two CPUs, so that two threads start a pool.
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        config = ExperimentConfig(n=3, m=2, mode="pure", samples=20_000, seed=837)
        accepted = experiments.check_run(config, np.int64(2))
        assert accepted == 2 and type(accepted) is int
        assert run_experiment(config, threads=np.int64(2)) == run_experiment(config, threads=2)

    def test_wide_mixed_runs_are_checked_without_n_by_n_arrays(self):
        # The check holds about N min(N, R) + M^2 values a shot: at R = 1 a
        # mixed run is charged within a small factor of the entangled one
        # (1.3 against 0.9 MiB), where one N x N matrix a shot charged
        # (4096, 8, 1) 2049 MiB.
        experiments.check_run(ExperimentConfig(n=4096, m=8, r=1, mode="mixed", samples=100))
        config = ExperimentConfig(n=1024, m=8, r=1, mode="mixed", samples=64, seed=836)
        mixed = run_experiment(config)
        entangled = run_experiment(dataclasses.replace(config, mode="entangled"))
        assert (mixed.mean, mixed.stderr) == (entangled.mean, entangled.stderr)
        assert mixed.bures_max_deviation < 1e-8

    @pytest.mark.parametrize(
        "n,m,r,mode,samples",
        [
            (10**5, 5 * 10**4, 1, "state_estimation", 20),  # 16 groups
            (2000, 1000, 2, "mixed", 20),  # 16 groups
            (3, 2, 1, "pure", 4112),  # 2 groups
            (2000, 1000, 2, "entangled", 20),  # 1 group
        ],
    )
    def test_binomial_is_computed_only_where_a_probability_is_reported(self, monkeypatch, n, m, r, mode, samples):
        # C(N-1, M-1) normalizes the outcome probability, which the estimator
        # never reads: no mode computes it, the per-shot ``sample_outcome``
        # of pure and entangled included.  At (10^5, 5 * 10^4) one binomial
        # took 0.2 s, and at (2 * 10^6, 10^6) 44 s.
        calls, comb = [], math.comb
        monkeypatch.setattr(math, "comb", lambda *args: calls.append(args) or comb(*args))
        run_experiment(ExperimentConfig(n=n, m=m, r=r, mode=mode, samples=samples, seed=838))
        assert calls == []

    def test_oversized_working_set_is_refused_before_allocation(self):
        huge = ExperimentConfig(n=10**6, m=1, r=10**4, mode="entangled", samples=100, seed=0)
        with pytest.raises(experiments.RunRefused, match="MiB cap"):
            run_experiment(huge)
        # A shard's memory does not grow with its rows, so no sample count is refused.
        experiments.check_run(ExperimentConfig(n=2, m=1, samples=10**12))
        # At R = N the Bures check holds the N x N reduced input (39 MiB at
        # N = 1600) several times over, and is over the cap (charged 273.5
        # MiB); the entangled run holds one 1600 x 1600 row per shard, drawn
        # and cut (117 MiB).
        wide = ExperimentConfig(n=1600, m=1, r=1600, mode="mixed", samples=16, seed=0)
        with pytest.raises(experiments.RunRefused, match="MiB cap"):
            run_experiment(wide)
        experiments.check_run(dataclasses.replace(wide, mode="entangled"))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig(n=3, m=2, mode="bogus", samples=10, seed=0)
        with pytest.raises(ValueError, match="^samples 0 is below 1$"):
            ExperimentConfig(n=3, m=2, mode="pure", samples=0, seed=0)
        with pytest.raises(ValueError, match="^m 3 is above 2$"):
            ExperimentConfig(n=2, m=3, mode="pure", samples=10, seed=0)

    @pytest.mark.parametrize(
        "field,value", [("n", 3.0), ("m", 2.0), ("r", 2.0), ("samples", 2.5), ("shards", 2.5), ("n", "3")]
    )
    def test_non_integer_config_fields_are_refused_by_name(self, field, value):
        # One sample, where shards = 2.5 used to run and report an estimate.
        fields = dict(n=3, m=2, r=1, mode="entangled", samples=1, seed=0, shards=16)
        with pytest.raises(ValueError) as err:
            ExperimentConfig(**{**fields, field: value})
        assert str(err.value) == f"{field} {value!r} is not an integer"

    @pytest.mark.parametrize("mode,r", [("mixed", 2), ("state_estimation", 1)])
    def test_numpy_integer_config_fields_are_stored_as_ints(self, mode, r):
        fields = dict(n=3, m=2, r=r, samples=300, seed=839, shards=4)
        config = ExperimentConfig(mode=mode, **{name: np.int64(value) for name, value in fields.items()})
        assert config == ExperimentConfig(mode=mode, **fields)
        assert all(type(getattr(config, name)) is int for name in fields)
        json.dumps(dataclasses.asdict(config))
        estimate = run_experiment(config)
        assert estimate == run_experiment(ExperimentConfig(mode=mode, **fields))
        json.dumps(dataclasses.asdict(estimate))

    @pytest.mark.parametrize("mode", ["pure", "state_estimation"])
    def test_modes_without_auxiliary_reject_r(self, mode):
        with pytest.raises(ValueError, match="r = 1"):
            ExperimentConfig(n=3, m=2, r=3, mode=mode, samples=10, seed=0)
        for r in (1, 3):
            ExperimentConfig(n=3, m=2, r=r, mode="entangled", samples=10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_out_of_range_seed_is_rejected(self, seed):
        # A float would draw another seed's stream; 2**64 is past a key word.
        with pytest.raises(ValueError, match=f"seed {seed}"):
            stream(seed)
        with pytest.raises(ValueError, match=f"seed {seed}"):
            ExperimentConfig(n=3, m=2, mode="pure", samples=10, seed=seed)
        for shard in (-1, 2**64, 1.9):
            with pytest.raises(ValueError, match=f"shard {shard}"):
                stream(7, shard)
        stream(2**64 - 1, 2**64 - 1)
        assert stream(np.uint64(2**64 - 1), np.int8(3)).random() == stream(2**64 - 1, 3).random()
        ExperimentConfig(n=3, m=2, mode="pure", samples=10, seed=np.int64(3))

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_stream_is_philox_keyed_by_seed_and_shard(self, seed):
        # The key as a uint64 array: a Python list holding 2**64 - 1 would
        # pass through float64 and lose it.
        for shard in (0, 1, 15, 2**32):
            ours = stream(seed, shard)
            philox = np.random.Generator(np.random.Philox(key=np.array([seed, shard], dtype=np.uint64)))
            assert np.array_equal(ours.random(9), philox.random(9))
            assert np.array_equal(ours.integers(1 << 62, size=5), philox.integers(1 << 62, size=5))

    def test_stream_draws_no_os_entropy(self, monkeypatch):
        def no_entropy(bits):
            raise AssertionError("OS entropy drawn")

        monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
        with pytest.raises(AssertionError, match="entropy"):
            np.random.SeedSequence()  # the patch reaches SeedSequence's entropy source
        stream(3, 5).random()
        run_experiment(ExperimentConfig(n=5, m=2, mode="state_estimation", samples=100, seed=3))

    def test_pure_mode_is_entangled_mode_at_r_one(self):
        pure = run_experiment(ExperimentConfig(n=3, m=2, mode="pure", samples=2_000, seed=818))
        entangled = run_experiment(
            ExperimentConfig(n=3, m=2, r=1, mode="entangled", samples=2_000, seed=818)
        )
        assert pure == entangled
        # The mixed mode scores the entangled shots, and always checks them.
        for r in (1, 2):
            config = ExperimentConfig(n=3, m=2, r=r, mode="entangled", samples=2_000, seed=818)
            entangled = run_experiment(config)
            mixed = run_experiment(dataclasses.replace(config, mode="mixed"))
            assert (mixed.mean, mixed.stderr) == (entangled.mean, entangled.stderr)
            assert entangled.bures_max_deviation is None
            assert mixed.bures_max_deviation < 1e-8

    def test_zero_stderr_off_target_has_no_z_score(self):
        est = run_experiment(ExperimentConfig(n=3, m=2, mode="pure", samples=1, seed=819))
        assert est.stderr == 0.0
        assert est.mean != est.analytic_target
        assert est.z_score is None

    def test_estimate_fields(self):
        est = run_experiment(ExperimentConfig(n=3, m=2, mode="pure", samples=4_000, seed=817))
        assert est.samples == 4_000
        assert est.seed == 817
        assert est.stderr >= 0.0
        assert est.z_score == pytest.approx((est.mean - est.analytic_target) / est.stderr)
