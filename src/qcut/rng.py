"""Counter-based random number streams.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  ``stream(seed, shard)`` builds independent,
reproducible generators from a Philox counter-based bit generator, so a
fixed (seed, shard count) always replays the same draws regardless of
which thread processes which shard.
"""

from __future__ import annotations

import numpy as np


def check_seed(seed: int) -> int:
    """Reject seeds outside [0, 2**64), which would alias other seeds."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    return seed


def stream(seed: int, shard: int = 0) -> np.random.Generator:
    """Return an independent generator for the given seed and shard index."""
    if shard < 0:
        raise ValueError("shard index must be nonnegative")
    key = np.array([check_seed(seed), shard], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
