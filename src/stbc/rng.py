"""Counter-based random streams for reproducible Monte-Carlo runs.

Streams use the Philox counter-based generator keyed by the master seed
and a packed path, so trial (i, t) of a sweep always sees the same draws
no matter how trials are scheduled or parallelized:

    key word 0 = master seed
    key word 1 = (context << 48) | (point_index << 32) | trial_index

Contexts keep independent uses of the same master seed apart (error
sweeps, capacity sweeps, channel profiling).

The contract of a sweep trial is a set of values, not a set of calls: its
normals and levels equal ``draws(substream(seed, context, point, trial),
...)``, that is ``standard_normal`` then ``integers`` on the trial's own
stream.  ``draw_block`` gives those values for a block of trials from one
reused Philox: a trial's stream depends only on its key (Philox is
counter-based), and numpy draws each level below p from one 32-bit word
by Lemire's method, so the levels follow from the words in one step.

Every library loop that draws per trial -- the coded error sweeps, the
uncoded SISO baseline and the channel profile -- runs one schedule,
``draw_schedule``: its (point, trial) paths point-major, in blocks of at
most a fixed number of trials that may span points, each block drawn by
one ``draw_block`` call.  A coded sweep takes its block size from its
decoder's admission, the others ``BLOCK_TRIALS``.  The capacity
estimators draw from one sequential Generator instead.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from numbers import Integral

import numpy as np

CTX_ERROR_SWEEP = 1
CTX_CAPACITY = 2
CTX_PROFILE = 3
CTX_GENERIC = 7

#: point indices a stream path can address (16 bits), so the most SNR
#: points one sweep may have
POINTS = 1 << 16

#: trials per block of a schedule given no block size (the SISO baseline,
#: the channel profile)
BLOCK_TRIALS = 1 << 10

_WORD = (1 << 64) - 1
_HALF = (1 << 32) - 1


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


def _require_seed(seed) -> None:
    """Refuse a master seed that is not an integer."""
    if not isinstance(seed, Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")


def _check_key(seed, context: int, points, trials) -> None:
    """Refuse a seed that is not an integer, and a context, or any point
    or trial index, that its field of the key cannot hold."""
    _require_seed(seed)
    if not 0 <= context < 1 << 16:
        raise ValueError("context out of range")
    if not (0 <= min(points) and max(points) < POINTS):
        raise ValueError("point index out of range")
    if not (0 <= min(trials) and max(trials) < 1 << 32):
        raise ValueError("trial index out of range")


def _key(seed: int, context: int, point: int, trial: int) -> list[int]:
    """The two Philox key words of a stream (see the module docstring):
    any integer seed is taken mod 2^64."""
    return [int(seed) & _WORD, (context << 48) | (point << 32) | trial]


def substream(
    seed: int, context: int = CTX_GENERIC, point: int = 0, trial: int = 0
) -> np.random.Generator:
    """Deterministic per-(context, point, trial) generator; a seed that is
    not an integer is refused."""
    _check_key(seed, context, (point,), (trial,))
    key = np.array(_key(seed, context, point, trial), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


def draws(rng: np.random.Generator, normals: int, p: int, n: int):
    """One trial's draws from ``rng``: (``normals`` standard normals, n
    level indices below p), from one ``standard_normal`` call and then
    one ``integers`` call."""
    return rng.standard_normal(normals), rng.integers(0, p, size=n)


def draw_block(seed: int, context: int, paths, normals: int, p: int, n: int):
    """The ``draws`` of every (point, trial) of ``paths`` from its
    substream, stacked: (normals (B, normals) float64, levels (B, n)
    int64), equal row for row to the separate calls, for 1 <= p <= 2^32.

    One Philox is reset to each trial's key in turn; it draws the normals
    and then the ceil(n / 2) 64-bit words the levels take.  numpy splits
    each word into two 32-bit halves, low half first, and takes level
    (half * p) >> 32 unless the low 32 bits of half * p fall below
    (2^32 - p) mod p (Lemire's rejection, never for p a power of two);
    a trial with such a half draws more words, so it is drawn again from
    its substream."""
    if not 1 <= p <= 1 << 32:
        raise ValueError(f"level count must be in [1, 2^32], got {p}")
    _check_key(seed, context, [point for point, _ in paths], [trial for _, trial in paths])
    bitgen = np.random.Philox(_key_sequence()(np.zeros(2, dtype=np.uint64)))
    gen = np.random.Generator(bitgen)
    # a fresh stream's state, its arrays as lists (the setter reads them faster)
    state = bitgen.state
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    out = np.empty((len(paths), normals))
    words = np.empty((len(paths), (n + 1) // 2), dtype=np.uint64)
    for i, (point, trial) in enumerate(paths):
        state["state"]["key"] = _key(seed, context, point, trial)
        bitgen.state = state
        gen.standard_normal(out=out[i])
        words[i] = bitgen.random_raw(words.shape[1])
    levels, retry = _levels(words, p, n)
    for i in np.flatnonzero(retry):
        levels[i] = draws(substream(seed, context, *paths[i]), normals, p, n)[1]
    return out, levels


def draw_schedule(seed: int, context: int, points: int, trials: int, normals: int, p: int,
                  n: int, block: int | None = None):
    """The ``draws`` of every path (point, trial), point < ``points`` and
    trial < ``trials``, point-major, in blocks of at most ``block`` trials
    (``BLOCK_TRIALS`` if None) that may span points: per block, (the point
    of each trial (B,), normals (B, normals), levels (B, n)), the draws
    from one ``draw_block`` call.  A point or trial count the key cannot
    hold is refused before the first draw."""
    _check_key(seed, context, (0, points - 1), (0, trials - 1))
    paths = ((point, trial) for point in range(points) for trial in range(trials))
    while part := list(islice(paths, block or BLOCK_TRIALS)):
        drawn = draw_block(seed, context, part, normals, p, n)
        yield np.array([point for point, _ in part]), *drawn


def _levels(words: np.ndarray, p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(levels (B, n) int64, retry (B,) bool) from each row's 64-bit words
    (B, ceil(n / 2)): level (half * p) >> 32 of each 32-bit half, low half
    first, and retry true where a half falls in Lemire's rejection zone."""
    halves = np.empty((len(words), 2 * words.shape[1]), dtype=np.uint64)
    halves[:, 0::2] = words & _HALF
    halves[:, 1::2] = words >> 32
    scaled = halves[:, :n] * np.uint64(p)
    threshold = ((1 << 32) - p) % p
    return (scaled >> 32).astype(np.int64), ((scaled & _HALF) < threshold).any(axis=1)


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator or an integer master seed (``substream``
    refuses any other seed)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return substream(rng)
