"""Deterministic 64-bit random number generation.

Every randomized operation in the library (splits, folds, bootstraps,
feature draws, synthetic tables) runs on the generators in this module
rather than on OS entropy or ``random``/numpy state, so identical seeds
give bit-identical results on any platform and are reproducible from the
update equations alone.

Two primitives:

* SplitMix64: state advances by the odd constant 0x9E3779B97F4A7C15; each
  output is ``mix(state)`` with ``mix(z) = h(h(g(z)))`` where
  ``g(z) = (z ^ z>>30) * 0xBF58476D1CE4E5B9``,
  ``h(z) = (z ^ z>>27) * 0x94D049BB133111EB`` followed by ``z ^ z>>31``,
  all modulo 2**64. Used for seed expansion and stream derivation.

* xoshiro256**: 256-bit state, output ``rotl(s1 * 5, 7) * 9``; state update
  ``t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t;
  s3 = rotl(s3, 45)``. The four state words are seeded from the first four
  SplitMix64 outputs of the seed.

A seed is an integer in [0, 2**64), Python or numpy but not ``bool``;
``derive_seed``, and so every generator, refuses any other value.

One loop steps the state: ``outputs(k)``, the next ``k`` outputs in bulk
(the scrambler applied in numpy, whose ``uint64`` arithmetic wraps as the
masked integers do). One routine, ``accepted_outputs``, applies the
rejection rule, for every bounded draw and for ``synthetic_movies``, so a
single draw costs a few numpy calls. A forest tree draws its feature
subsets ahead in blocks (``sample_rows``): its stream is its own, so rows
past its last searched node are never read.

Rejection. A bounded draw for ``n``, an integer in [1, 2**64]
(``ValueError`` otherwise), rejects an output ``v >= below_limit(n)``,
the largest multiple of ``n`` up to 2**64 (none for a power of two),
takes the next output in its place and returns ``v % n``. Drawn in bulk,
a rejected output is dropped: every later output moves up one place and
one more is drawn at the end.
"""

from __future__ import annotations

import operator
from itertools import repeat

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# outputs drawn at once by ``accepted_outputs``: the Python integers of one
# block (about 40 bytes each) are held only while it is drawn
_BLOCK_OUTPUTS = 4096


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _integer(value):
    """``value`` as a Python ``int`` if it is an integer, Python or numpy
    but not ``bool``; ``None`` otherwise."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def derive_seed(seed: int, index: int) -> int:
    """Child seed ``index`` of ``seed``: output ``index`` of the SplitMix64
    stream started at ``seed``, an integer in [0, 2**64) (``ValueError``
    otherwise).

    Used to give ensemble member ``i`` its own stream so results do not
    depend on the order (or parallelism) in which members are fitted.
    """
    value = _integer(seed)
    if value is None or not 0 <= value <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64), not {seed!r}")
    if index < 0:
        raise ValueError("stream index must be non-negative")
    state = (value + (index + 1) * _GAMMA) & _MASK64
    return _mix64(state)


def below_limit(n: int) -> int:
    """The largest multiple of ``n`` that fits in 64 bits: ``randbelow(n)``
    takes an output below it, as ``v % n``, and redraws one at or above
    it, which would skew the modulo."""
    return (1 << 64) - (1 << 64) % n


def accepted_outputs(gen, rows: int, low, high) -> np.ndarray:
    """``rows`` rows of outputs of ``gen`` (any object with ``outputs``),
    place ``j`` taking the next output in ``[low[j], high[j]]`` by the
    rejection rule, as a ``uint64`` array, drawn in blocks of about
    ``_BLOCK_OUTPUTS`` outputs."""
    width = len(high)
    out = np.empty((rows, width), dtype=np.uint64)
    step = max(1, _BLOCK_OUTPUTS // max(1, width))
    for start in range(0, rows, step):
        m = min(step, rows - start)
        v = gen.outputs(m * width)
        while True:
            block = v.reshape(m, width)
            bad = np.flatnonzero((block < low) | (block > high))
            if not bad.size:
                break
            v = np.concatenate((v[:bad[0]], v[bad[0] + 1:], gen.outputs(1)))
        out[start:start + m] = block
    return out


class Xoshiro256StarStar:
    """xoshiro256** stream for one seeded random sequence."""

    def __init__(self, seed: int):
        self._s = [derive_seed(seed, i) for i in range(4)]

    def next_uint64(self) -> int:
        """The next output."""
        return int(self.outputs(1)[0])

    def outputs(self, k: int) -> np.ndarray:
        """The next ``k`` outputs, as a ``uint64`` array, with the state
        stepped in one local loop and the scrambler applied to all the
        outputs at once."""
        if k < 0:
            raise ValueError("outputs needs k >= 0")
        s0, s1, s2, s3 = self._s
        mask = _MASK64
        words = []
        append = words.append
        for _ in repeat(None, k):
            append(s1)
            t = s1 << 17
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 = (s2 ^ t) & mask
            s3 = (s3 << 45 | s3 >> 19) & mask
        self._s = [s0, s1, s2, s3]
        v = np.array(words, dtype=np.uint64)
        v *= 5
        v = v << 7 | v >> 57
        v *= 9
        return v

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling. ``n``
        is an integer in [1, 2**64], Python or numpy but not ``bool``
        (``ValueError`` otherwise)."""
        bound = _integer(n)
        if bound is None:
            raise ValueError(f"bound must be an integer in [1, 2**64], not {n!r}")
        return int(self._below((bound,))[0, 0])

    def _below(self, bounds, rows: int = 1) -> np.ndarray:
        """``rows`` rows of bounded draws, one place per bound ``b`` of
        ``bounds`` (integers in [1, 2**64]): the next output it accepts, as ``v % b``."""
        least, top = min(bounds, default=1), max(bounds, default=1)
        if least < 1 or top > 1 << 64:
            raise ValueError(f"bound {least if least < 1 else top} outside [1, 2**64]")
        # 2**64 does not fit in uint64: it is drawn as a bound of 1, which
        # also accepts every output, and keeps the output as it is
        kept = [x == 1 << 64 for x in bounds] if top == 1 << 64 else None
        if kept is not None:
            bounds = [1 if k else x for k, x in zip(kept, bounds)]
        b = np.array(bounds, dtype=np.uint64)
        v = accepted_outputs(self, rows, 0, _MASK64 - -b % b)  # below_limit(b) - 1
        return v % b if kept is None else np.where(kept, v, v % b)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: for i = n-1 .. 1, swap i with
        ``randbelow(i + 1)``."""
        n = len(items)
        for i, j in zip(range(n - 1, 0, -1), self._below(range(n, 1, -1))[0].tolist()):
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct values from range(n) by a partial Fisher-Yates pass:
        for i = 0 .. k-1, swap i with ``i + randbelow(n - i)``."""
        return self.sample_rows(n, k, 1)[0].tolist()

    def sample_rows(self, n: int, k: int, count: int) -> np.ndarray:
        """``count`` successive ``sample_without_replacement(n, k)`` results,
        as the rows of a (count, k) array."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        steps = self._below(range(n, n - k, -1), count).astype(np.intp)
        idx = np.tile(np.arange(n), (count, 1))
        row = np.arange(count)
        for i in range(k):
            j = i + steps[:, i]
            idx[row, i], idx[row, j] = idx[row, j], idx[row, i]
        return idx[:, :k]

    def bootstrap_indices(self, n: int) -> list[int]:
        """n draws with replacement from range(n), in draw order."""
        return self._below([n] * n)[0].tolist()
