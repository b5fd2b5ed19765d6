import math

import numpy as np
import pytest

from qcut import experiments
from qcut.experiments import (
    ExperimentConfig,
    analytic_entangled,
    analytic_n_to_1,
    analytic_pure,
    analytic_state_estimation,
    composition_check,
    exact_entangled_via_moments,
    exact_pure_via_moments,
    horodecki_bound,
    relation_check,
    run_experiment,
)
from qcut.haar import sample_state
from qcut.povm import CutPovm, sample_outcome
from qcut.rng import stream


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
        assert analytic_n_to_1(3, 1) == pytest.approx(1 / 2)
        assert analytic_n_to_1(2, 2) == pytest.approx(3 / 5)
        for r in (1, 3, 6):
            assert analytic_n_to_1(1, r) == 1.0

    def test_state_estimation_values(self):
        assert analytic_state_estimation(2, 1) == pytest.approx(2 / 3)
        assert analytic_state_estimation(4, 2) == pytest.approx(0.3)
        for n in (2, 5):
            assert analytic_state_estimation(n, n) == pytest.approx(1 / n)

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
        with pytest.raises(ValueError, match="n >= 2"):
            relation_check(1, 1, 1)

    def test_composition_reference_case(self):
        # 3/5 = (4/5) * (3/4)
        assert composition_check(4, 3, 2, 1) == 0.0
        assert analytic_pure(4, 2) == pytest.approx(analytic_pure(4, 3) * analytic_pure(3, 2))

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
        est = run_experiment(
            ExperimentConfig(n=3, m=2, r=2, mode="mixed", samples=1_000, seed=808),
            verify_bures=True,
        )
        assert est.bures_max_deviation is not None
        assert est.bures_max_deviation < 1e-8

    @pytest.mark.parametrize("mode", ["pure", "entangled", "state_estimation"])
    def test_bures_verification_needs_mixed_mode(self, mode):
        config = ExperimentConfig(n=3, m=2, mode=mode, samples=10, seed=808)
        with pytest.raises(ValueError, match="mixed"):
            run_experiment(config, verify_bures=True)

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

    def test_dispatch_by_mode(self):
        est = run_experiment(ExperimentConfig(n=2, m=1, mode="pure", samples=2_000, seed=811))
        assert est.analytic_target == pytest.approx(2 / 3)


class TestEstimatorContracts:
    def test_fixed_seed_and_shards_reproduce_bitwise(self):
        config = ExperimentConfig(n=3, m=2, mode="pure", samples=5_000, seed=812)
        assert run_experiment(config) == run_experiment(config)

    def test_thread_count_does_not_change_the_estimate(self):
        config = ExperimentConfig(n=3, m=2, r=2, mode="entangled", samples=5_000, seed=813)
        single = run_experiment(config, threads=1)
        for threads in (2, 4, 8):
            assert run_experiment(config, threads=threads) == single

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

        def shot(state, outcome):
            shots.append(0.999 + 1e-8 * outcome.shot_fidelity)
            return shots[-1]

        mode = experiments._Mode(lambda n, m, r: 0.999, shot, False)
        monkeypatch.setitem(experiments._MODES, "pure", mode)
        est = run_experiment(ExperimentConfig(n=3, m=2, mode="pure", samples=20_000, seed=820))
        assert len(shots) == 20_000
        assert est.mean == pytest.approx(math.fsum(shots) / len(shots), rel=1e-15)
        expected = np.std(shots, ddof=1) / math.sqrt(len(shots))
        assert est.stderr == pytest.approx(expected, rel=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig(n=3, m=2, mode="bogus", samples=10, seed=0)
        with pytest.raises(ValueError, match="sample"):
            ExperimentConfig(n=3, m=2, mode="pure", samples=0, seed=0)
        with pytest.raises(ValueError, match="1 <= m <= n"):
            ExperimentConfig(n=2, m=3, mode="pure", samples=10, seed=0)

    @pytest.mark.parametrize("mode", ["pure", "state_estimation"])
    def test_modes_without_auxiliary_reject_r(self, mode):
        with pytest.raises(ValueError, match="r = 1"):
            ExperimentConfig(n=3, m=2, r=3, mode=mode, samples=10, seed=0)
        for r in (1, 3):
            ExperimentConfig(n=3, m=2, r=r, mode="entangled", samples=10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            stream(seed)
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(n=3, m=2, mode="pure", samples=10, seed=seed)
        stream(2**64 - 1)

    def test_pure_mode_is_entangled_mode_at_r_one(self):
        pure = run_experiment(ExperimentConfig(n=3, m=2, mode="pure", samples=2_000, seed=818))
        entangled = run_experiment(
            ExperimentConfig(n=3, m=2, r=1, mode="entangled", samples=2_000, seed=818)
        )
        assert pure == entangled

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
