"""Second routes of shipped kernels, reached only by the tests.

Each oracle computes what a shipped function computes, by the plain route
that the shipped one shortcuts, so the tests can hold the two together:

- haar: the angular coordinates mapped one amplitude at a time (the bit
  oracle of ``sample_states``) and the Gaussian-normalization sampler;
- linalg: density matrices built directly, and the partial trace of a
  joint density matrix by einsum;
- povm: subset enumeration (the per-(N, M) index counts of the
  completeness pass), dense elements and Born probabilities (the
  exact law of the pivot sampler), and the cut of a density matrix (the
  trace-then-cut side of the cut's commutation with the partial trace);
- fidelity: the purification routes of the mixed-state fidelity, and the
  Bures fidelity on all N levels;
- channel: the resource state, the dense Weyl operators and the
  Bell-tensor contraction that ``teleport``'s closed form replaces;
- experiments: the closed-form rows of ``verify`` case by case in Python
  ints (the relation and composition residuals) and Fractions (the moment
  route), scanned in sweep order for each row's first worst case; and the
  state-estimation estimate scored chunk by chunk within each shard, the
  route that scoring a group of shards as one stack replaces.
"""

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import numpy as np

from qcut import experiments
from qcut.haar import sample_weights
from qcut.linalg import BipartitePureState, DensityMatrix, PureState, matrix_sqrt
from qcut.povm import CutPovm, SubsetIndex, _validate_subset, sample_subsets
from qcut.rng import stream

# --- haar ---


def sample_point(dim, rng):
    """N-1 polar angles in [0, pi/2] and N phases in [0, 2pi), drawn per the
    invariant measure: u_k = sin^2(theta_k) = v^(1/(N-1-k)), v uniform."""
    v = rng.random(dim - 1)
    thetas = np.arcsin(np.sqrt(v ** (1.0 / (dim - 1 - np.arange(dim - 1)))))
    return thetas, rng.random(dim) * 2.0 * math.pi


def point_to_state(thetas, phis):
    """amp_k = (prod of sin(theta_l) for l < k) * cos(theta_k) * e^(i phi_k) for
    k < N-1; the last amplitude carries the full sine product."""
    n = len(phis)
    amps = np.empty(n, dtype=complex)
    prefix = 1.0
    for k in range(n - 1):
        amps[k] = prefix * math.cos(thetas[k]) * np.exp(1j * phis[k])
        prefix *= math.sin(thetas[k])
    amps[n - 1] = prefix * np.exp(1j * phis[n - 1])
    return PureState(n, amps)


def sample_states_gaussian(dim, count, rng):
    """Independent Haar sampler: ``count`` normalized complex Gaussian rows."""
    z = rng.standard_normal((count, 2 * dim))
    c = z[:, :dim] + 1j * z[:, dim:]
    return c / np.linalg.norm(c, axis=1, keepdims=True)


# --- linalg ---


def from_pure(state):
    return DensityMatrix(state.dim, np.outer(state.amps, state.amps.conj()))


def maximally_mixed(dim):
    return DensityMatrix(dim, np.eye(dim, dtype=complex) / dim)


def partial_trace_joint(rho, dims, over="aux"):
    """Trace the auxiliary (or the system) out of a density matrix (or stack)
    on the composite space of dimensions ``dims`` = (N, R)."""
    n, r = dims
    rho4 = rho.entries.reshape(rho.entries.shape[:-2] + (n, r, n, r))
    spec = "...jkik->...ji" if over == "aux" else "...jkjl->...kl"
    reduced = np.einsum(spec, rho4)
    return DensityMatrix(reduced.shape[-1], reduced)


# --- povm ---


def subsets(povm):
    """All M-element subsets in lexicographic order."""
    return (SubsetIndex(combo) for combo in itertools.combinations(range(povm.n), povm.m))


def index_counts(n, m):
    """How many M-subsets of range(N) hold each index, walked subset by subset."""
    counts = Counter(itertools.chain.from_iterable(itertools.combinations(range(n), m)))
    return [counts[j] for j in range(n)]


def completeness_deviation(n, m):
    """The worst index count's distance from norm_const, over norm_const: the
    max deviation of the summed N -> M POVM elements from the identity."""
    norm = math.comb(n - 1, m - 1)
    return Fraction(max(abs(count - norm) for count in index_counts(n, m)), norm)


def element_matrix(povm, subset):
    """Dense matrix of one POVM element: 1/norm_const on the subset diagonal."""
    idx = _validate_subset(povm, subset)
    mat = np.zeros((povm.n, povm.n), dtype=complex)
    mat[idx, idx] = 1.0 / povm.norm_const
    return mat


def outcome_probability(povm, subset, state):
    """Born probability of one element, (1/norm_const) * sum of subset weights,
    for a pure, bipartite (system marginal) or density-matrix input."""
    if isinstance(state, DensityMatrix):
        weights = np.real(np.diagonal(state.entries))
    else:
        weights = (np.abs(state.matrix) ** 2).sum(axis=1)
    if len(weights) != povm.n:
        raise ValueError(f"state dimension {len(weights)} != povm n={povm.n}")
    return float(weights[_validate_subset(povm, subset)].sum() / povm.norm_const)


def apply_cut_density(povm, subset, rho):
    """Conditional post-measurement density matrix of one density matrix and
    the outcome probability.

    The element is proportional to a projector, so the returned probability
    Tr(A rho) also fixes Tr(A rho A^dag) = Tr(A rho) / norm_const.
    """
    if rho.dim != povm.n:
        raise ValueError(f"density dimension {rho.dim} != povm n={povm.n}")
    idx = _validate_subset(povm, subset)
    if povm.m == povm.n:
        return rho, 1.0
    diag_weight = float(np.real(np.diagonal(rho.entries)[idx].sum()))
    if diag_weight <= 0.0:
        raise ValueError(f"outcome {subset.indices} has zero probability")
    post = np.zeros_like(rho.entries)
    post[np.ix_(idx, idx)] = rho.entries[np.ix_(idx, idx)] / diag_weight
    return DensityMatrix(povm.n, post), diag_weight / povm.norm_const


# --- fidelity ---


def per_outcome_mixed_fidelity(povm, subset, purification):
    """Single-shot mixed-state fidelity of one cut, from a purification.

    For elements diagonal in a common basis the purification maximum sits at
    U = identity, so the value is |<psi|(A x 1)|psi>|^2 / Tr(A rho A^dag).
    """
    idx = _validate_subset(povm, subset)
    kept_weight = float(np.sum(np.abs(purification.matrix[idx, :]) ** 2))
    if kept_weight <= 0.0:
        raise ValueError(f"outcome {subset.indices} has zero probability")
    overlap = kept_weight / povm.norm_const  # <psi|(A x 1)|psi>
    denominator = kept_weight / povm.norm_const**2  # Tr(A rho A^dag)
    return min(overlap**2 / denominator, 1.0)


def purify(rho, dim_aux=None):
    """Canonical purification sum_i sqrt(lambda_i) |i> x |i_aux> of one density
    matrix, from its own eigendecomposition, largest weights first."""
    dim_aux = rho.dim if dim_aux is None else dim_aux
    evals, vecs = np.linalg.eigh(rho.entries)
    evals = np.clip(evals, 0.0, None)
    rank = int(np.sum(evals > 0.0))
    if dim_aux < rank:
        raise ValueError(f"auxiliary dimension {dim_aux} below rank {rank}")
    c = np.zeros((rho.dim, dim_aux), dtype=complex)
    for k, i in enumerate(np.argsort(evals)[::-1][:dim_aux]):
        c[:, k] = math.sqrt(evals[i]) * vecs[:, i]
    return BipartitePureState(rho.dim, dim_aux, c.ravel())


def embed(sigma: DensityMatrix, n: int) -> DensityMatrix:
    """An M-level density matrix (or stack) as the N-level one that is zero
    outside its first M levels."""
    m = sigma.dim
    entries = np.zeros(sigma.entries.shape[:-2] + (n, n), dtype=complex)
    entries[..., :m, :m] = sigma.entries
    return DensityMatrix(n, entries)


def bures_fidelity_full(rho: DensityMatrix, sigma: DensityMatrix):
    """Bures fidelity with sigma on all of rho's N levels.

    The squared nuclear norm of the N x N product sqrt(rho) @ sqrt(sigma),
    with round-off just above 1 snapped to 1, as ``bures_fidelity`` does.
    """
    if rho.entries.shape != sigma.entries.shape:
        raise ValueError(f"dimension mismatch: {rho.entries.shape} vs {sigma.entries.shape}")
    singulars = np.linalg.svd(matrix_sqrt(rho) @ matrix_sqrt(sigma), compute_uv=False)
    fid = np.square(singulars.sum(axis=-1))
    return np.where(fid <= 1.0 + 1e-10, np.minimum(fid, 1.0), fid)


# --- channel ---


def channel_joint(m):
    """The resource state (1/sqrt(M)) sum_i |i, i> on M x M."""
    return BipartitePureState(m, m, (np.eye(m, dtype=complex) / math.sqrt(m)).ravel())


def weyl_operator(m, a, b):
    """Dense shift/phase unitary W_ab |k> = exp(2 pi i b k / M) |k + a mod M>.

    The reference for the O(MR) correction ``teleport`` applies.
    """
    if not (0 <= a < m and 0 <= b < m):
        raise ValueError(f"labels ({a}, {b}) outside [0, {m})")
    w = np.zeros((m, m), dtype=complex)
    for k in range(m):
        w[(k + a) % m, k] = np.exp(2j * np.pi * b * k / m)
    return w


def bell_projections(c, m):
    """Bob's unnormalized block for every Bell outcome, indexed [a, b, bob, aux].

    The joint amplitudes over (alice_in, aux, alice_half, bob_half) are
    contracted with every generalized Bell vector, indexed
    [a, b, alice, alice'], on the two Alice slots.
    """
    bell = np.zeros((m, m, m, m), dtype=complex)
    for a, b, i in itertools.product(range(m), repeat=3):
        bell[a, b, (i + a) % m, i] = np.exp(2j * np.pi * b * i / m) / math.sqrt(m)
    joint = np.einsum("jk,iI->jkiI", c, channel_joint(m).matrix)
    return np.einsum("abji,jkiI->abIk", bell.conj(), joint)


# --- experiments ---
#
# Each closed form is read through ``experiments._fidelity_ratio`` and each
# moment through ``experiments.exact_moment_fraction`` when called, so a
# test that replaces either one changes the oracle and the shipped rows alike.


def relation_residual(n, m, r):
    """|F(N->M) - (M-1)/(N-1) - (N-M)/(N-1) F(N->1)| for one case, in Python ints."""
    num, den = experiments._fidelity_ratio(n, m, r)
    one_num, one_den = experiments._fidelity_ratio(n, 1, r)
    rhs_num, rhs_den = (m - 1) * one_den + (n - m) * one_num, (n - 1) * one_den
    return abs(num * rhs_den - rhs_num * den) / (den * rhs_den)


def composition_residual(n, k, m, r):
    """|F(N->M) - F(N->K) F(K->M)| for one case, in Python ints."""
    num, den = experiments._fidelity_ratio(n, m, r)
    outer_num, outer_den = experiments._fidelity_ratio(n, k, r)
    inner_num, inner_den = experiments._fidelity_ratio(k, m, r)
    rhs_num, rhs_den = outer_num * inner_num, outer_den * inner_den
    return abs(num * rhs_den - rhs_num * den) / (den * rhs_den)


def moment_fidelity(n, m, r):
    """(M-1)/(N-1) + (N-M)/(N-1) N R (E|c_1|^4 + (R-1) E|c_1|^2|c_2|^2) on
    N R amplitudes, in Fractions, rounded once; 1 at N = 1."""
    if n == 1:
        return 1.0
    moment = experiments.exact_moment_fraction
    nr = n * r
    term = nr * (Fraction(*moment(nr, (2,))) + (r - 1) * Fraction(*moment(nr, (1, 1))))
    return float(Fraction(m - 1, n - 1) + Fraction(n - m, n - 1) * term)


def closed_form(n, m, r):
    return float(Fraction(*experiments._fidelity_ratio(n, m, r)))


def verify_rows(max_n, max_r):
    """{row: (worst residual, first worst case)} for verify's relation,
    composition, pure_moments, entangled_moments and horodecki rows: every
    case in sweep order, R innermost, scanned by ``max``, which keeps the
    first of equal residuals."""
    pairs = [(n, m) for n in range(1, max_n + 1) for m in range(1, n + 1)]
    aux = range(1, max_r + 1)
    cases = {
        "relation": ((relation_residual(n, m, r), (n, m, r)) for n, m in pairs if m < n for r in aux),
        "composition": (
            (composition_residual(n, k, m, r), (n, k, m, r))
            for n, k in pairs
            for m in range(1, k + 1)
            for r in aux
        ),
        "pure_moments": ((abs(moment_fidelity(n, m, 1) - closed_form(n, m, 1)), (n, m)) for n, m in pairs),
        "entangled_moments": (
            (abs(moment_fidelity(n, m, r) - closed_form(n, m, r)), (n, m, r)) for n, m in pairs for r in aux
        ),
        "horodecki": (
            (abs(float(Fraction(n * m + n, n * (n + 1))) - closed_form(n, m, 1)), (n, m)) for n, m in pairs
        ),
    }
    return {name: max(row, key=operator.itemgetter(0)) for name, row in cases.items()}


def table_lines(n_max, r, what):
    """The lines of ``qcut table``: each row's exact value, (MR+1)/(NR+1) or
    (M+1)/(M(N+1)), as a Fraction rounded half-even to 12 places."""
    lines = ["n,m,r,fidelity"]
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            exact = Fraction(m * r + 1, n * r + 1) if what == "fidelity" else Fraction(m + 1, m * (n + 1))
            units = round(exact * 10**12)  # round() on a Fraction breaks ties to even
            lines.append(f"{n},{m},{r},{units // 10**12}.{units % 10**12:012d}")
    return lines


def state_estimation_by_chunk(config):
    """(mean, stderr, z) of ``run_experiment`` in state-estimation mode, by
    the per-shard route: each block of at most ``experiments.CHUNK`` rows of
    a shard draws its weights (``sample_weights``) and then its subsets
    (``sample_subsets``) from the shard's stream, is scored on its own, and
    gives one merge part (exactly rounded sum and centered sum of squares).
    The parts are merged chunk by chunk within a shard and then over the
    shards, through ``experiments._merge``."""
    n, m = config.n, config.m
    povm = CutPovm(n, m)
    shards = []
    for shard, count in enumerate(experiments._shard_sizes(config.samples, config.shards)):
        rng = stream(config.seed, shard)
        parts = []
        for start in range(0, count, experiments.CHUNK):
            size = min(experiments.CHUNK, count - start)
            weights = sample_weights(n, size, rng)
            shots = weights[np.arange(size), sample_subsets(povm, weights, rng)[:, 0]]
            total = math.fsum(shots.tolist())
            centered = math.fsum(np.square(shots - total / size).tolist())
            parts.append((size, total, centered, None))
        shard_part = parts[0]
        for part in parts[1:]:
            shard_part = experiments._merge((shard_part, part))
        shards.append(shard_part)
    count, total, centered, _ = experiments._merge(shards)
    mean = total / count
    stderr = math.sqrt(centered / (count - 1) / count) if count > 1 else 0.0
    target = experiments.analytic_state_estimation(n, m)
    if stderr > 0.0:
        return mean, stderr, (mean - target) / stderr
    return mean, stderr, 0.0 if mean == target else None
