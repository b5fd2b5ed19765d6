"""Approximate quantum data storage and teleportation.

An N-dimensional state is cut down to M levels by a subset-projector POVM,
sent through a perfect M-dimensional teleportation channel, and re-embedded
at the receiver.  The package provides the protocol simulation, the
closed-form average fidelities for pure, entangled and mixed inputs, exact
moment-integral derivations of the same values, and seeded Monte Carlo
estimators that reproduce them.

The names below are the documented API (see README); everything else is
importable from its submodule.
"""

from .channel import full_protocol, teleport
from .experiments import (
    ExperimentConfig,
    FidelityEstimate,
    analytic_entangled,
    analytic_pure,
    analytic_state_estimation,
    run_experiment,
)
from .fidelity import bures_fidelity, overlap_fidelity, uhlmann_fidelity
from .haar import sample_state, sample_states, sample_weights
from .linalg import BipartitePureState, DensityMatrix, PureState, matrix_sqrt, partial_trace
from .povm import CutPovm, sample_outcome, sample_subsets
from .rng import stream

__version__ = "0.1.0"
