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

The state steps in two loops, one per draw shape: ``outputs(k)`` for raw
outputs in bulk (the scrambler applied in numpy, whose ``uint64``
arithmetic wraps as the masked integers do), and ``_below_each(bounds)``
for bounded draws as Python integers. ``next_uint64``, ``next_float`` and
``randbelow`` are one draw of them. A merged loop was slower on a forest's
feature subsets: 2.1x through ``outputs``, 1.14x with a shared step.

Rejection. A bounded draw for ``n`` rejects an output
``v >= below_limit(n)`` (the largest multiple of ``n`` that fits in 64
bits), takes the next output in its place and returns ``v % n``. A caller
that turns bulk outputs into bounded values keeps the same stream: it
drops each rejected output and draws one more at the end.
"""

from __future__ import annotations

import operator
from itertools import repeat

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# every output below _SURE_BELOW passes randbelow's test for a bound up
# to _SURE_BOUND: that bound's limit is above 2**64 - _SURE_BOUND
_SURE_BOUND = 1 << 32
_SURE_BELOW = (1 << 64) - _SURE_BOUND


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Child seed ``index`` of ``seed``: output ``index`` of the SplitMix64
    stream started at ``seed``, an integer in [0, 2**64) (``ValueError``
    otherwise).

    Used to give ensemble member ``i`` its own stream so results do not
    depend on the order (or parallelism) in which members are fitted.
    """
    try:
        value = -1 if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        value = -1
    if not 0 <= value <= _MASK64:
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
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        return self._below_each((n,))[0]

    def _below_each(self, bounds) -> list[int]:
        """One bounded draw per bound, each bound >= 1, in order: the next
        output accepted for bound ``b`` (below ``below_limit(b)``), as
        ``v % b``, with the state stepped in one local loop."""
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for b in bounds:
            while True:
                v = (s1 * 5) & _MASK64
                v = ((v << 7 | v >> 57) * 9) & _MASK64
                t = s1 << 17
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 = (s2 ^ t) & _MASK64
                s3 = (s3 << 45 | s3 >> 19) & _MASK64
                # the rejection test, with a shortcut for small bounds
                if (v < _SURE_BELOW and b <= _SURE_BOUND) or v < below_limit(b):
                    break
            append(v % b)
        self._s = [s0, s1, s2, s3]
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: for i = n-1 .. 1, swap i with
        ``randbelow(i + 1)``."""
        n = len(items)
        for i, j in zip(range(n - 1, 0, -1), self._below_each(range(n, 1, -1))):
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct values from range(n) by a partial Fisher-Yates pass:
        for i = 0 .. k-1, swap i with ``i + randbelow(n - i)``."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        idx = list(range(n))
        for i, r in enumerate(self._below_each(range(n, n - k, -1))):
            j = i + r
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]

    def bootstrap_indices(self, n: int) -> list[int]:
        """n draws with replacement from range(n), in draw order."""
        return self._below_each([n] * n)
