"""Counter-based random streams for reproducible Monte-Carlo runs.

Streams use the Philox counter-based generator keyed by the master seed
and a packed path, so trial (i, t) of a sweep always sees the same draws
no matter how trials are scheduled or parallelized:

    key word 0 = master seed
    key word 1 = (context << 48) | (point_index << 32) | trial_index

Contexts keep independent uses of the same master seed apart (error
sweeps, capacity sweeps, channel profiling).
"""

from __future__ import annotations

from functools import cache

import numpy as np

CTX_ERROR_SWEEP = 1
CTX_CAPACITY = 2
CTX_PROFILE = 3
CTX_GENERIC = 7

#: point indices a stream path can address (16 bits), so the most SNR
#: points one sweep may have
POINTS = 1 << 16


@cache
def _key_sequence() -> type:
    """The seed-sequence type that hands Philox its key as is (made on first
    use: numpy.random loads lazily).  ``Philox(key=...)`` gives the same
    stream but also seeds a ``SeedSequence()`` from OS entropy."""

    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySequence


def substream(
    seed: int, context: int = CTX_GENERIC, point: int = 0, trial: int = 0
) -> np.random.Generator:
    """Deterministic per-(context, point, trial) generator."""
    if not 0 <= context < 1 << 16:
        raise ValueError("context out of range")
    if not 0 <= point < POINTS:
        raise ValueError("point index out of range")
    if not 0 <= trial < 1 << 32:
        raise ValueError("trial index out of range")
    path = (context << 48) | (point << 32) | trial
    key = np.array([seed & (1 << 64) - 1, path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator or an integer master seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return substream(int(rng))
