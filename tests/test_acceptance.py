"""Acceptance suite.

Every criterion below runs at its stated tolerance and prints one
PASS/FAIL line (run with ``pytest -s`` to see them as they happen).
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
from oracles import completeness_deviation, outcome_probability, sample_states_gaussian, subsets

from qcut.channel import full_protocol, make_channel, teleport
from qcut.experiments import (
    ExperimentConfig,
    analytic_entangled,
    analytic_pure,
    composition_check,
    exact_entangled_via_moments,
    exact_pure_via_moments,
    horodecki_bound,
    relation_check,
    run_experiment,
)
from qcut.fidelity import bures_fidelity, overlap_fidelity, uhlmann_fidelity
from qcut.haar import exact_moment_fraction, sample_state, sample_states
from qcut.linalg import BipartitePureState, partial_trace
from qcut.povm import CutPovm, _max_completeness_deviation, sample_outcome
from qcut.rng import stream

SAMPLES = 200_000


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_pure_state_fidelity():
    start = time.perf_counter()
    est = run_experiment(ExperimentConfig(n=3, m=2, mode="pure", samples=SAMPLES, seed=1001))
    elapsed = time.perf_counter() - start
    ok = (
        abs(est.mean - 0.75) < 3 * est.stderr
        and est.stderr < 2e-3
        and elapsed < 60.0
    )
    details = [f"(3,2): mean={est.mean:.5f} stderr={est.stderr:.1e} time={elapsed:.1f}s"]
    for n, m in [(2, 1), (4, 2), (5, 3)]:
        est = run_experiment(ExperimentConfig(n=n, m=m, mode="pure", samples=SAMPLES, seed=1001 + n))
        ok = ok and abs(est.mean - analytic_pure(n, m)) < 3 * est.stderr
        details.append(f"({n},{m}): z={est.z_score:+.2f}")
    report(1, ok, "pure-state fidelity (M+1)/(N+1); " + " ".join(details))


def test_criterion_2_entangled_fidelity():
    details = []
    ok = True
    for n, m, r, target in [(3, 2, 2, 5 / 7), (4, 2, 3, 7 / 13)]:
        est = run_experiment(
            ExperimentConfig(n=n, m=m, r=r, mode="entangled", samples=SAMPLES, seed=1010 + n)
        )
        ok = ok and abs(est.mean - target) < 3 * est.stderr
        details.append(f"({n},{m},{r}): mean={est.mean:.5f} target={target:.5f} z={est.z_score:+.2f}")
    report(2, ok, "entangled fidelity (MR+1)/(NR+1); " + " ".join(details))


def test_criterion_3_mixed_state_fidelity():
    est = run_experiment(ExperimentConfig(n=2, m=1, r=2, mode="mixed", samples=SAMPLES, seed=1020))
    ok = abs(est.mean - 3 / 5) < 3 * est.stderr and est.bures_max_deviation < 1e-8
    verify = run_experiment(ExperimentConfig(n=3, m=2, r=2, mode="mixed", samples=1_000, seed=1021))
    ok = ok and verify.bures_max_deviation < 1e-8
    report(
        3,
        ok,
        f"mixed-state fidelity; (2,1,2): mean={est.mean:.5f} z={est.z_score:+.2f} "
        f"Bures deviation={est.bures_max_deviation:.1e}, "
        f"per-shot Bures deviation={verify.bures_max_deviation:.1e} over 1000 shots at (3,2,2)",
    )


def test_criterion_4_state_estimation_bound():
    details = []
    ok = True
    for n, m, target in [(2, 1, 2 / 3), (4, 2, 0.3)]:
        est = run_experiment(
            ExperimentConfig(n=n, m=m, mode="state_estimation", samples=SAMPLES, seed=1030 + n)
        )
        ok = ok and abs(est.mean - target) < 3 * est.stderr
        details.append(f"({n},{m}): mean={est.mean:.5f} target={target:.5f} z={est.z_score:+.2f}")
    report(4, ok, "state-estimation fidelity (1+1/M)/(N+1); " + " ".join(details))


def test_criterion_5_exact_derivation_cross_checks():
    worst_pure = max(
        abs(exact_pure_via_moments(n, m) - analytic_pure(n, m))
        for n in range(1, 13)
        for m in range(1, n + 1)
    )
    worst_entangled = max(
        abs(exact_entangled_via_moments(n, m, r) - analytic_entangled(n, m, r))
        for n in range(1, 13)
        for m in range(1, n + 1)
        for r in range(1, 7)
    )
    worst_relation = max(
        relation_check(n, m, r)
        for n in range(2, 13)
        for m in range(1, n)
        for r in range(1, 7)
    )
    worst_composition = max(
        composition_check(n, k, m, r)
        for n in range(1, 13)
        for k in range(1, n + 1)
        for m in range(1, k + 1)
        for r in range(1, 7)
    )
    horodecki_exact = all(
        horodecki_bound(n, m) == analytic_pure(n, m)
        for n in range(1, 13)
        for m in range(1, n + 1)
    )
    ok = (
        worst_pure < 1e-13
        and worst_entangled < 1e-13
        and worst_relation < 1e-14
        and worst_composition < 1e-14
        and horodecki_exact
    )
    report(
        5,
        ok,
        f"exact derivations; moments: pure={worst_pure:.1e} entangled={worst_entangled:.1e}, "
        f"relation={worst_relation:.1e} composition={worst_composition:.1e} "
        f"singlet-fraction bound exact={horodecki_exact}",
    )


def test_criterion_6_povm_completeness():
    worst, norms = _max_completeness_deviation(12)
    deviations = {
        (n, m): Fraction(worst[n, m], norms[n, m]) for n in range(1, 13) for m in range(1, n + 1)
    }
    cases = len(deviations)
    exact = all(deviation == completeness_deviation(*case) for case, deviation in deviations.items())
    worst = float(max(deviations.values()))
    ok = cases == 78 and exact and worst < 1e-12
    report(6, ok, f"POVM completeness over {cases} (N,M) pairs; max deviation={worst:.1e}")


def test_criterion_7_sampler_correctness():
    draws = 100_000
    worst_tv = 0.0
    for i, (n, m) in enumerate([(4, 2), (5, 2), (5, 3)]):
        rng = stream(1040 + i)
        povm = CutPovm(n, m)
        state = sample_state(n, rng)
        exact = {s.indices: outcome_probability(povm, s, state) for s in subsets(povm)}
        counts = Counter(sample_outcome(povm, state, rng).subset.indices for _ in range(draws))
        tv = 0.5 * sum(abs(counts[key] / draws - p) for key, p in exact.items())
        worst_tv = max(worst_tv, tv)
    ok = worst_tv < 0.01

    worst_sigma = 0.0
    for dim in (2, 3, 4):
        rng = stream(1050 + dim)
        for sampler in (sample_states, sample_states_gaussian):
            w = np.abs(sampler(dim, draws, rng)) ** 2
            for exps in ((2,), (1, 1)):
                if dim < len(exps):
                    continue
                target = float(Fraction(*exact_moment_fraction(dim, exps + (0,) * (dim - len(exps)))))
                values = w[:, 0] ** 2 if exps == (2,) else w[:, 0] * w[:, 1]
                stderr = float(np.std(values, ddof=1)) / math.sqrt(draws)
                worst_sigma = max(worst_sigma, abs(float(np.mean(values)) - target) / stderr)
    ok = ok and worst_sigma < 4.0
    report(
        7,
        ok,
        f"pivot sampler TV distance={worst_tv:.4f} (<0.01 at 1e5 draws); "
        f"sampler moments within {worst_sigma:.2f} sigma of exact values",
    )


def test_criterion_8_uhlmann_equals_bures():
    rng = stream(1060)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        phi0 = BipartitePureState(dim, dim, sample_states(dim * dim, 1, rng)[0])
        phi1 = BipartitePureState(dim, dim, sample_states(dim * dim, 1, rng)[0])
        direct = uhlmann_fidelity(phi0, phi1)
        via_sqrt = bures_fidelity(partial_trace(phi0), partial_trace(phi1))
        worst = max(worst, abs(direct - via_sqrt))
    ok = worst < 1e-9

    worst_identity = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        psi = BipartitePureState(n, r, sample_states(n * r, 1, rng)[0])
        outcome = sample_outcome(CutPovm(n, m), psi, rng)
        gap = abs(uhlmann_fidelity(psi, outcome.post_state) - overlap_fidelity(psi, outcome.post_state))
        worst_identity = max(worst_identity, gap)
    ok = ok and worst_identity < 1e-10
    report(
        8,
        ok,
        f"purification vs matrix-sqrt fidelity: max gap={worst:.1e} over 100 pairs; "
        f"per-shot optimum at identity unitary: max gap={worst_identity:.1e}",
    )


def test_criterion_9_lossless_channel():
    rng = stream(1070)
    worst = 0.0
    states = 0
    for m in range(2, 9):
        channel = make_channel(m)
        for _ in range(143):
            state = sample_state(m, rng)
            states += 1
            for a in range(m):
                for b in range(m):
                    _, received = teleport(state, channel, force_outcome=(a, b))
                    worst = max(worst, abs(overlap_fidelity(state, received) - 1.0))
    ok = worst < 1e-12 and states >= 1000

    worst_swap = 0.0
    for _ in range(50):
        state = BipartitePureState(3, 2, sample_states(6, 1, rng)[0])
        run = full_protocol(state, 3, rng)
        worst_swap = max(worst_swap, abs(run.end_to_end_fidelity - 1.0))
    ok = ok and worst_swap < 1e-12
    report(
        9,
        ok,
        f"teleportation losslessness over {states} states, every Bell outcome: "
        f"max deviation={worst:.1e}; N=M entanglement swap deviation={worst_swap:.1e}",
    )


def test_criterion_10_determinism():
    config = ExperimentConfig(n=3, m=2, r=2, mode="entangled", samples=20_000, seed=1080)
    first = run_experiment(config, threads=2)
    second = run_experiment(config, threads=2)
    bitwise = first == second
    spread = max(
        abs(run_experiment(config, threads=t).mean - first.mean) for t in (1, 4, 8)
    )
    ok = bitwise and spread < 1e-13
    report(
        10,
        ok,
        f"fixed (seed, threads) bit-identical={bitwise}; "
        f"thread-count variation={spread:.1e} (<1e-13)",
    )
