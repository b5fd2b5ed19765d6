"""Property tests over small random (N, M, R).

The examples are derandomized (see conftest.py), so every run checks the
same cases.  Input states come from seeded Haar draws.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    apply_cut_density,
    bures_fidelity_full,
    completeness_deviation,
    element_matrix,
    embed,
    index_counts,
    outcome_probability,
    partial_trace_joint,
    state_estimation_by_chunk,
    subsets,
    verify_rows,
)

from qcut import cli, experiments
from qcut.channel import ChannelState, teleport
from qcut.fidelity import bures_fidelity
from qcut.experiments import ExperimentConfig, run_experiment
from qcut.haar import angle_weights, draw_angles, exact_moment_fraction, sample_states, sample_weights
from qcut.linalg import BipartitePureState, DensityMatrix, PureState, matrix_sqrt, partial_trace
from qcut.povm import (
    CutPovm,
    SubsetIndex,
    _max_completeness_deviation,
    _subset_counts,
    draw_subsets,
    project_bipartite,
    project_pure,
    rank_subsets,
    sample_outcome,
    sample_subsets,
)
from qcut.rng import stream


def haar_state(n, r, seed):
    """A Haar-random state on N x R; R = 1 gives a ``PureState``."""
    amps = sample_states(n * r, 1, stream(seed))[0]
    return PureState(n, amps) if r == 1 else BipartitePureState(n, r, amps)


@st.composite
def cut_inputs(draw, max_n=5, max_r=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, n))
    state = haar_state(n, draw(st.integers(1, max_r)), draw(st.integers(0, 2**32 - 1)))
    return CutPovm(n, m), state


class ScriptedDraws:
    """Stands in for the generator in ``sample_outcome``: the pivot draw, then the keys."""

    def __init__(self, u, keys):
        self.draws = [u, np.array(keys, dtype=float)]

    def random(self, size=None):
        return self.draws.pop(0)


@given(cut_inputs())
def test_pivot_law_equals_enumerated_born_probabilities(cut):
    # Drive the sampler through every pivot interval and every ranking of
    # the partner keys (all rankings are equally likely for iid keys), so
    # its law is computed exactly rather than estimated.
    povm, state = cut
    n = povm.n
    w = (np.abs(state.matrix) ** 2).sum(axis=1)
    total = float(w.sum())
    bounds = np.concatenate(([0.0], np.cumsum(w)))
    rankings = list(itertools.permutations(range(n)))
    law = {}
    for j in range(n):
        u = (bounds[j] + bounds[j + 1]) / 2 / total
        for keys in rankings:
            outcome = sample_outcome(povm, state, ScriptedDraws(u, keys))
            key = outcome.subset.indices
            law[key] = law.get(key, 0.0) + w[j] / total / len(rankings)
            assert j in key
            assert outcome.probability == pytest.approx(
                outcome_probability(povm, outcome.subset, state), abs=1e-12
            )
    exact = {s.indices: outcome_probability(povm, s, state) for s in subsets(povm)}
    assert set(law) <= set(exact)
    for key, p in exact.items():
        assert law.get(key, 0.0) == pytest.approx(p, abs=1e-12)


@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.sampled_from([1, 2]),
    st.sampled_from([1, 7]),
    st.integers(0, 2**32 - 1),
)
def test_batched_subsets_equal_the_single_draws(dims, r, k, seed):
    # Rows drawn by one sample_subsets call and by k sample_outcome calls
    # from streams of one seed are the same subsets, and both leave the
    # stream at the same place.
    n, m = dims
    povm = CutPovm(n, m)
    states = sample_states(n * r, k, stream(seed)).reshape(k, n, r)
    batched, single = stream(seed, 1), stream(seed, 1)
    chosen = sample_subsets(povm, (np.abs(states) ** 2).sum(axis=2), batched)
    assert chosen.shape == (k, m)
    for row, state in zip(chosen, states):
        outcome = sample_outcome(povm, BipartitePureState(n, r, state.ravel()), single)
        assert tuple(row.tolist()) == outcome.subset.indices
    assert batched.random() == single.random()


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (5, 2), (4, 4), (64, 8)])
def test_public_samplers_equal_their_two_halves(n, m):
    # sample_weights is draw_angles then angle_weights, and sample_subsets
    # is draw_subsets then rank_subsets, on one stream: the same bits, and
    # the stream left at the same place.
    povm = CutPovm(n, m)
    for count in (0, 1, 7, 300):
        whole, halves = stream(840 + count, n), stream(840 + count, n)
        weights = sample_weights(n, count, whole)
        assert weights.tobytes() == angle_weights(draw_angles(n, count, halves)).tobytes()
        chosen = rank_subsets(povm, weights, draw_subsets(povm, count, halves))
        assert np.array_equal(sample_subsets(povm, weights, whole), chosen)
        assert whole.random() == halves.random()


@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(1, 300),
    st.integers(1, 20),
    st.integers(2, 48),
    st.integers(1, 400),
    st.integers(0, 2**64 - 1),
)
# Ten shards of ten rows pooled three to a 32-row group, so a group ends
# between shards; two shards of fifty rows, each three 16-row chunks and a
# 2-row one, scored one at a time; N = 1; and M = N, where no subset is drawn.
@example((5, 2), 100, 10, 32, 192, 7)
@example((5, 2), 100, 2, 16, 10**6, 8)
@example((1, 1), 50, 4, 8, 1, 9)
@example((6, 6), 90, 5, 8, 40, 10)
def test_grouped_state_estimation_equals_the_per_shard_route(dims, samples, shards, chunk, entries, seed):
    # With CHUNK and GROUP_ENTRIES small, groups split between shards and
    # shards span several chunks.  The estimate of the shards' draws scored
    # as stacks must keep every bit of the chunk-by-chunk route, at one and
    # at two threads.
    n, m = dims
    config = ExperimentConfig(n=n, m=m, mode="state_estimation", samples=samples, seed=seed, shards=shards)
    with mock.patch.object(experiments, "CHUNK", chunk), mock.patch.object(experiments, "GROUP_ENTRIES", entries):
        expected = state_estimation_by_chunk(config)
        for threads in (1, 2):
            est = run_experiment(config, threads)
            assert (est.mean, est.stderr, est.z_score) == expected


def test_batched_pivot_on_interval_edges_equals_the_single_draws():
    # Targets u * total exactly on a running sum belong to the next index,
    # and u = 1 is clamped to the last index, as in sample_outcome.
    povm, state = CutPovm(4, 2), PureState(4, np.full(4, 0.5, dtype=complex))
    u = np.array([0.25, 0.5, 1.0])
    keys = np.array([0.4, 0.3, 0.2, 0.1])
    draws = np.column_stack([u, np.tile(keys, (3, 1))])
    weights = np.tile((np.abs(state.matrix) ** 2).sum(axis=1), (3, 1))
    chosen = sample_subsets(povm, weights, SimpleNamespace(random=lambda size: draws.copy()))
    assert chosen.tolist() == [[1, 3], [2, 3], [2, 3]]
    for row, pivot_draw in zip(chosen, u):
        single = sample_outcome(povm, state, ScriptedDraws(pivot_draw, keys))
        assert tuple(row.tolist()) == single.subset.indices


@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_teleport_is_lossless_for_every_outcome(m, r, seed):
    state = haar_state(m, r, seed)
    for a, b in itertools.product(range(m), repeat=2):
        message, received = teleport(state, ChannelState(m), force_outcome=(a, b))
        assert (message.a, message.b) == (a, b)
        assert type(received) is type(state)
        np.testing.assert_allclose(received.matrix, state.matrix, atol=1e-12)


@given(cut_inputs(), st.data())
def test_cut_commutes_with_partial_trace(cut, data):
    povm, state = cut
    chosen = data.draw(st.lists(st.integers(0, povm.n - 1), min_size=povm.m, max_size=povm.m, unique=True))
    subset = SubsetIndex(sorted(chosen))
    project = project_pure if isinstance(state, PureState) else project_bipartite
    post, fidelity = project(povm, subset, state)
    trace_then_cut, probability = apply_cut_density(povm, subset, partial_trace(state))
    np.testing.assert_allclose(partial_trace(post).entries, trace_then_cut.entries, atol=1e-12)
    assert probability == pytest.approx(outcome_probability(povm, subset, state), abs=1e-12)
    assert fidelity == pytest.approx(min(povm.norm_const * probability, 1.0), abs=1e-12)
    assert math.isclose(np.linalg.norm(post.matrix), 1.0, abs_tol=1e-12)


def cut_stack(n, r, k, m, seed):
    """Haar inputs (k, N, R), their cuts and the (k, M) subsets drawn, as the estimator stacks them."""
    povm = CutPovm(n, m)
    rng = stream(seed)
    states = sample_states(n * r, k, rng).reshape(k, n, r)
    outcomes = [sample_outcome(povm, BipartitePureState(n, r, c.ravel()), rng) for c in states]
    posts = np.array([outcome.post_state.matrix for outcome in outcomes])
    chosen = np.array([outcome.subset.indices for outcome in outcomes], dtype=np.intp)
    return states, posts, chosen


@st.composite
def coefficient_stacks(draw, max_n=5, max_r=3, max_k=7):
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(1, max_r))
    k = draw(st.integers(1, max_k))
    return cut_stack(n, r, k, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1)))


@given(coefficient_stacks())
def test_stacked_kernels_match_one_at_a_time(stacks):
    states, posts, _ = stacks
    k, n, r = states.shape
    flat = states.reshape(k, n * r)
    joint = DensityMatrix(n * r, flat[:, :, None] * flat[:, None, :].conj())
    rho, rho_cut = partial_trace(states), partial_trace(posts)
    stacked = {
        "aux": rho.entries,
        "sys": partial_trace(states.swapaxes(-1, -2)).entries,
        "cut": rho_cut.entries,
        "sqrt cut": matrix_sqrt(rho_cut),
    }
    fid = bures_fidelity(rho, rho_cut)
    assert fid.shape == (k,)
    for i, (c, post) in enumerate(zip(states, posts)):
        one, one_cut = partial_trace(BipartitePureState(n, r, c.ravel())), partial_trace(post)
        # Oracle: the einsum traces of the member's joint density matrix.
        member = DensityMatrix(n * r, joint.entries[i])
        singles = {
            "aux": [one.entries, partial_trace_joint(member, (n, r)).entries],
            "sys": [partial_trace(c.T).entries, partial_trace_joint(member, (n, r), "sys").entries],
            "cut": [one_cut.entries],
            "sqrt cut": [matrix_sqrt(one_cut)],
        }
        for name, values in singles.items():
            for value in values:
                np.testing.assert_allclose(stacked[name][i], value, rtol=0, atol=1e-12, err_msg=name)
        single_fid = bures_fidelity(one, one_cut)
        assert isinstance(single_fid, float)
        assert fid[i] == pytest.approx(single_fid, abs=1e-12)


def reduction_stack(n, r, k, kind, seed):
    """A (k, N, R) stack of Haar coefficient matrices.  At R >= 2 the
    ``deficient`` kind makes each one's first two columns equal, so its
    Schmidt rank is below min(N, R) whenever R <= N, and the ``weak`` kind
    scales its second column by 3e-5, for a squared Schmidt coefficient
    near 1e-9."""
    c = sample_states(n * r, k, stream(seed)).reshape(k, n, r)
    if r > 1 and kind != "haar":
        c[..., 1] = c[..., 0] if kind == "deficient" else 3e-5 * c[..., 1]
        c /= np.linalg.norm(c, axis=(1, 2), keepdims=True)
    return c


@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(1, 5),
    st.sampled_from(["haar", "deficient", "weak"]),
    st.integers(0, 2**32 - 1),
)
@example(6, 4, 5, "deficient", 840)  # R < N
@example(4, 4, 5, "deficient", 841)  # R = N
@example(2, 4, 5, "deficient", 842)  # R > N
@example(6, 1, 5, "haar", 843)  # R = 1
@example(6, 3, 5, "weak", 844)
def test_reduced_states_hold_thin_eigenpairs(n, r, k, kind, seed):
    # partial_trace diagonalizes the smaller Gram matrix: min(N, R)
    # eigenpairs per member, which must rebuild the entries, stay finite
    # and orthonormal, and serve matrix_sqrt and bures_fidelity as the
    # full N x N eigendecomposition does.  The trace over the system is
    # the trace over the auxiliary of the transposed coefficients.
    c = reduction_stack(n, r, k, kind, seed)
    for rows, dim in ((c, n), (c.swapaxes(-1, -2), r)):
        rho = partial_trace(rows)
        evals, vecs = rho._eigh
        assert evals.shape == (k, min(n, r)) and vecs.shape == (k, dim, min(n, r))
        assert np.isfinite(evals).all() and np.isfinite(vecs).all()
        # Through the Gram matrix (min(N, R) < dim), exactly the columns
        # below matrix_sqrt's noise floor, dim * eps * largest, are zero.
        below = (evals < dim * np.finfo(float).eps * evals[..., -1:]) | (evals <= 0.0)
        np.testing.assert_array_equal(np.all(vecs == 0, axis=-2), below & (min(n, r) < dim))
        rebuilt = (vecs * evals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
        np.testing.assert_allclose(rebuilt, rho.entries, rtol=0, atol=1e-12)
        for member in vecs:
            kept = member[:, np.any(member != 0, axis=0)]
            gram = kept.conj().T @ kept
            np.testing.assert_allclose(gram, np.eye(len(gram)), rtol=0, atol=1e-10)
        root = matrix_sqrt(rho)
        np.testing.assert_allclose(root @ root, rho.entries, rtol=0, atol=1e-10)
    # The oracle takes both states through the full N x N eigendecomposition.
    rho, sigma = partial_trace(c), partial_trace(reduction_stack(n, r, k, kind, seed + 1))
    full = bures_fidelity_full(DensityMatrix(n, rho.entries), DensityMatrix(n, sigma.entries))
    np.testing.assert_allclose(bures_fidelity(rho, sigma), full, rtol=0, atol=1e-12)


@st.composite
def levels_kept(draw, max_n=64):
    n = draw(st.integers(1, max_n))
    return n, draw(st.integers(1, n))


@given(
    levels_kept(),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([None, 1, 3]),
    st.sampled_from(["haar", "deficient", "weak"]),
    st.integers(0, 2**32 - 1),
)
@example((64, 8), 1, None, "haar", 850)  # rank 1 of 64
@example((64, 5), 4, 3, "deficient", 851)  # rank 3 of 64
def test_bures_fidelity_of_a_projected_state_is_its_probability(levels, r, k, kind, seed):
    # The exact anchor of the Bures check: for a projector P with
    # p = Tr(P rho) > 0, F(rho, P rho P / p) = p, because
    # sqrt(rho) P rho P sqrt(rho) = (sqrt(rho) P sqrt(rho))^2 with
    # sqrt(rho) P sqrt(rho) PSD.  P keeps rho's first M levels, where an
    # M-level sigma is supported; rho = c c^dagger has rank at most R, and
    # k = None is a single matrix.  Each step (eigensolver, square roots,
    # product, SVD) is backward stable to a few N eps of the unit trace;
    # 16 N eps is allowed, and at most 4 N eps (at N = 1) was seen over
    # 3000 draws.
    n, m = levels
    c = reduction_stack(n, r, k or 1, kind, seed)
    if k is None:
        c = c[0]
    p = np.sum(np.abs(c[..., :m, :]) ** 2, axis=(-2, -1))
    sigma = partial_trace(c[..., :m, :] / np.sqrt(p)[..., None, None])
    fid = bures_fidelity(partial_trace(c), sigma)
    assert np.shape(fid) == np.shape(p) and isinstance(fid, float) == (k is None)
    np.testing.assert_allclose(fid, p, rtol=0, atol=16 * n * np.finfo(float).eps)


@given(coefficient_stacks(), st.sampled_from(["hermitian", "trace", "psd"]), st.data())
def test_stack_with_one_bad_member_raises_that_members_error(stacks, fault, data):
    states = stacks[0]
    n, k = states.shape[1], len(states)
    entries = partial_trace(states).entries.copy()
    bad = entries[data.draw(st.integers(0, k - 1))]
    if fault == "hermitian":
        bad[0, -1] += 1e-3j  # on the diagonal when N = 1, which is also not Hermitian
    elif fault == "trace":
        bad *= 1.01
    else:
        bad[...] = np.diag(np.r_[[1.25, -0.25], np.zeros(n - 2)]) if n > 1 else 1.25
    with pytest.raises(ValueError) as alone:
        DensityMatrix(n, bad)
    with pytest.raises(ValueError) as stacked:
        DensityMatrix(n, entries)
    assert str(stacked.value) == str(alone.value)


@given(coefficient_stacks())
@example(cut_stack(5, 3, 7, 1, 830))
@example(cut_stack(5, 2, 7, 5, 831))
def test_bures_on_the_subset_levels_equals_the_full_route(stacks):
    # The oracle takes each post-cut state on all N levels, with no relabel.
    states, posts, chosen = stacks
    _, n, r = states.shape
    rho = partial_trace(states)
    full = bures_fidelity_full(rho, partial_trace(posts))
    # sigma on M levels is taken to be supported on rho's first M.
    sigma = partial_trace(np.take_along_axis(posts, chosen[:, :, None], axis=1))
    np.testing.assert_allclose(
        bures_fidelity(rho, sigma), bures_fidelity_full(rho, embed(sigma, n)), rtol=0, atol=1e-12
    )
    # The estimator's check on the same outcomes, in one sub-batch and in
    # sub-batches of two shots: shots equal to the oracle's fidelities
    # leave no deviation.
    assert experiments._bures_deviation(states, posts, chosen, full) <= 1e-12
    with mock.patch.object(experiments, "BURES_ENTRIES", 2 * experiments._bures_row_values(n, chosen.shape[1], r)):
        assert experiments._bures_deviation(states, posts, chosen, full) <= 1e-12
        shifted = experiments._bures_deviation(states, posts, chosen, full + 0.5)
        assert shifted == pytest.approx(0.5, abs=1e-12)


@given(st.integers(1, 6), st.data())
def test_cut_povm_is_complete(n, data):
    povm = CutPovm(n, data.draw(st.integers(1, n)))
    worst, norms = _max_completeness_deviation(n)
    assert worst[n, povm.m] == 0 and norms[n, povm.m] == povm.norm_const
    total = sum(element_matrix(povm, s) for s in subsets(povm))
    np.testing.assert_allclose(total, np.eye(n), rtol=0, atol=1e-12)
    state = haar_state(n, data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2**32 - 1)))
    for each in (state, partial_trace(state)):
        total_probability = math.fsum(outcome_probability(povm, s, each) for s in subsets(povm))
        assert total_probability == pytest.approx(1.0, abs=1e-12)


@given(st.integers(1, 10), st.integers(1, 2**10))
def test_completeness_pass_counts_every_subset(max_n, chunk):
    # Chunks of any size, so that a chunk boundary falls anywhere in a
    # bit length's masks.
    with mock.patch("qcut.povm.MASK_CHUNK", chunk):
        counts = _subset_counts(max_n)
        worst, norms = _max_completeness_deviation(max_n)
    assert counts.shape == (max_n + 1, max_n + 1, max_n)
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            assert counts[n, m, :n].tolist() == index_counts(n, m)
            assert not counts[n, m, n:].any()
            assert Fraction(worst[n, m], norms[n, m]) == completeness_deviation(n, m)


@st.composite
def shifted_closed_forms(draw, max_n, max_r):
    """A replacement for ``experiments._fidelity_ratio``: the closed form plus
    bump / scale on drawn cases, bump 1 or 2, kept as integer pairs for ints
    and, element by element, for arrays of cases (in int64 or as Python
    ints).  Equal bumps leave equal residuals, so the first-worst rule
    decides between them."""
    closed = experiments._fidelity_ratio
    scale = draw(st.integers(2, 3))
    bumps = np.zeros((max_n + 1, max_n + 1, max_r + 1), dtype=np.int64)
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, max_n))
        bumps[n, draw(st.integers(1, n)), draw(st.integers(1, max_r))] = draw(st.integers(1, 2))
    objects = draw(st.booleans())

    def shifted(n, m, r):
        num, den = closed(n, m, r)
        bump = bumps[n, m, r]
        if not isinstance(bump, np.ndarray):
            return num * scale + den * int(bump), den * scale
        num, den = num * scale + den * bump, den * scale
        return (num.astype(object), den.astype(object)) if objects else (num, den)

    return shifted


@st.composite
def scaled_moments(draw, max_n, max_r):
    """A replacement for ``experiments.exact_moment_fraction``: the moment
    times (scale + bump) / scale on drawn dims, bump 1 or 2, for drawn
    exponent tuples, kept as integer pairs for one dim and, element by
    element, for an array of dims (in int64 or as Python ints).  Only the
    bumped pairs change, so that the two moments' denominators differ."""
    moment = experiments.exact_moment_fraction
    scale = draw(st.integers(2, 3))
    bumps = np.zeros(max_n * max_r + 1, dtype=np.int64)
    for _ in range(draw(st.integers(1, 6))):
        bumps[draw(st.integers(1, max_n * max_r))] = draw(st.integers(1, 2))
    scaled = draw(st.sampled_from([{(2,)}, {(1, 1)}, {(2,), (1, 1)}]))
    objects = draw(st.booleans())

    def scaled_moment(dim, exponents):
        num, den = moment(dim, exponents)
        bump = bumps[dim] * (exponents in scaled)
        if not isinstance(bump, np.ndarray):
            factor = scale if bump else 1
            return num * (factor + int(bump)), den * factor
        factor = np.where(bump > 0, scale, 1)
        num, den = num * (factor + bump), den * factor
        return (num.astype(object), den.astype(object)) if objects else (num, den)

    return scaled_moment


@pytest.mark.parametrize(
    "name, perturbed",
    [
        ("_fidelity_ratio", None),
        ("_fidelity_ratio", shifted_closed_forms),
        ("exact_moment_fraction", scaled_moments),
    ],
    ids=["closed-form", "shifted", "scaled-moments"],
)
@given(st.integers(2, 12), st.integers(1, 8), st.integers(1, 1024), st.data())
def test_closed_form_rows_match_the_case_by_case_sweep(name, perturbed, max_n, max_r, block, data):
    # Blocks of any size, so that a block edge falls anywhere in a row; the
    # true closed form leaves every residual 0, a shifted one or scaled
    # moments leave some ties.
    replacement = data.draw(perturbed(max_n, max_r)) if perturbed else getattr(experiments, name)
    with (
        mock.patch.object(cli, "CASE_BLOCK", block),
        mock.patch.object(experiments, name, replacement),
    ):
        checks = itertools.islice(cli._verify_checks(max_n, max_r), 4)
        rows = {name: (residual, case) for name, _, residual, case in checks}
        expected = verify_rows(max_n, max_r)
    assert list(rows) == ["relation", "composition", "pure_moments", "entangled_moments"]
    assert rows == {name: expected[name] for name in rows}


@st.composite
def moment_specs(draw, max_dim=80, max_exponent=4):
    # A dim and the exponents of its leading 1..N amplitudes; the rest are 0.
    dim = draw(st.integers(1, max_dim))
    size = draw(st.integers(1, dim))
    exps = draw(st.lists(st.integers(0, max_exponent), min_size=size, max_size=size))
    exps[draw(st.integers(0, size - 1))] = draw(st.integers(1, max_exponent))
    return dim, tuple(exps)


def dirichlet_moment(n, exponents):
    # Oracle: (N-1)! * prod(m_j!) / (N-1+sum(m_j))!, with every factorial in full.
    numerator = math.factorial(n - 1) * math.prod(math.factorial(m) for m in exponents)
    return Fraction(numerator, math.factorial(n - 1 + sum(exponents)))


@given(moment_specs(), st.lists(st.integers(0, 200), max_size=8))
def test_moment_equals_dirichlet_factorial_formula(spec, extra):
    n, exps = spec
    value = Fraction(*exact_moment_fraction(n, exps))
    assert value == dirichlet_moment(n, exps)
    # A short spec is its zero-padded form.
    padded = exps + (0,) * (n - len(exps))
    assert value == Fraction(*exact_moment_fraction(n, padded))
    # An array of dims, each at least len(exps), gives the moment on each.
    dims = np.array([n] + [len(exps) + d for d in extra])
    num, den = exact_moment_fraction(dims, exps)
    assert [Fraction(num, d) for d in den.tolist()] == [dirichlet_moment(d, exps) for d in dims.tolist()]
