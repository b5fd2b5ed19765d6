"""Counter-based random number streams.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  ``stream(seed, shard)`` builds independent,
reproducible generators from a Philox counter-based bit generator, so a
fixed (seed, shard count) always replays the same draws regardless of
which thread processes which shard.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Philox's four 64-bit counter words start at zero.  Passing them as an
# array spares Philox converting the integer 0 word by word.
_COUNTER = np.zeros(4, dtype=np.uint64)
_COUNTER.flags.writeable = False
KEY_WORD_MAX = 2**64 - 1


class _Key(ISeedSequence):
    """A Philox key given as its seed: ``generate_state`` returns the two
    key words.  ``np.random.Philox(key=...)`` would first build an unseeded
    ``SeedSequence``, which draws OS entropy, only to overwrite its state."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"a stream key is {len(self.words)} {self.words.dtype} words")
        return self.words


def _integer(value, name: str, low: int | None = None, high: int | None = None,
             error: type[ValueError] = ValueError) -> int:
    """``value`` as a Python int, from a Python or NumPy integer, within the
    inclusive bounds ``low`` and ``high`` where they are given: the one
    integer rule for seeds, dimensions, counts, indices and labels.  Any
    other value, a bool too, raises ``error`` naming it and the bound it breaks
    ("samples 2.5 is not an integer", "samples 0 is below 1", "m 4 is above 3")."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):  # operator.index(True) is 1
        raise error(f"{name} {value!r} is not an integer")
    if low is not None and number < low:
        raise error(f"{name} {number} is below {low}")
    if high is not None and number > high:
        raise error(f"{name} {number} is above {high}")
    return number


def check_seed(seed: int) -> int:
    """Reject a seed that is not an integer in [0, 2**64), the range of a
    key word, which would alias another seed."""
    return _integer(seed, "seed", 0, KEY_WORD_MAX)


def stream(seed: int, shard: int = 0) -> np.random.Generator:
    """Return an independent generator for the given seed and shard index:
    Philox keyed by (seed, shard), counter 0, with no OS entropy drawn."""
    key = np.array([check_seed(seed), _integer(shard, "shard", 0, KEY_WORD_MAX)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key), counter=_COUNTER))
