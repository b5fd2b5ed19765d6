"""Property tests over small random (N, M, R).

The examples are derandomized (see conftest.py), so every run checks the
same cases.  Input states come from seeded Haar draws.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcut.channel import ChannelState, teleport
from qcut.haar import sample_states
from qcut.linalg import BipartitePureState, PureState, partial_trace
from qcut.povm import (
    CutPovm,
    SubsetIndex,
    apply_cut_density,
    outcome_probability,
    project_bipartite,
    project_pure,
    sample_outcome,
    subsets,
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
    trace_then_cut, probability = apply_cut_density(povm, subset, partial_trace(state, over="aux"))
    np.testing.assert_allclose(
        partial_trace(post, over="aux").entries, trace_then_cut.entries, atol=1e-12
    )
    assert probability == pytest.approx(outcome_probability(povm, subset, state), abs=1e-12)
    assert fidelity == pytest.approx(min(povm.norm_const * probability, 1.0), abs=1e-12)
    assert math.isclose(np.linalg.norm(post.matrix), 1.0, abs_tol=1e-12)
