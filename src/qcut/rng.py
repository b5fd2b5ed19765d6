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


def _integer(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as a Python int, from a Python or NumPy integer: the one
    integer rule for seeds, dimensions and counts.  Any other value raises
    ``error`` by name ("samples 2.5 is not an integer")."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} {value!r} is not an integer") from None


def _key_word(value, name: str) -> int:
    """``value`` as a Python int in [0, 2**64), the range of a key word; any
    other value, a non-integer among them, is refused by name."""
    word = _integer(value, name)
    if not 0 <= word < 1 << 64:
        raise ValueError(f"{name} {word} outside [0, 2**64)")
    return word


def check_seed(seed: int) -> int:
    """Reject a seed that is not an integer in [0, 2**64), which would
    alias another seed."""
    return _key_word(seed, "seed")


def stream(seed: int, shard: int = 0) -> np.random.Generator:
    """Return an independent generator for the given seed and shard index:
    Philox keyed by (seed, shard), counter 0, with no OS entropy drawn."""
    key = np.array([check_seed(seed), _key_word(shard, "shard")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key), counter=_COUNTER))
