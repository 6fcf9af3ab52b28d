"""The generators must follow the published update equations exactly;
the reference values below are recomputed step by step in plain Python
integers, independent of the library code paths."""

import numpy as np
import pytest

from movierev.rng import Xoshiro256StarStar, derive_seed

M64 = (1 << 64) - 1


def reference_splitmix64(seed, count):
    """Direct transcription of the SplitMix64 equations."""
    out = []
    state = seed & M64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


def reference_xoshiro(seed, count):
    """Direct transcription of the xoshiro256** equations, seeded from
    the first four SplitMix64 outputs."""

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & M64

    s = reference_splitmix64(seed, 4)
    out = []
    for _ in range(count):
        result = (rotl((s[1] * 5) & M64, 7) * 9) & M64
        t = (s[1] << 17) & M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        out.append(result)
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, M64])
def test_derive_seed_is_splitmix_stream(seed):
    expected = reference_splitmix64(seed, 5)
    assert [derive_seed(seed, i) for i in range(5)] == expected


@pytest.mark.parametrize("seed", [0, 7, 123456789, 2**63])
def test_xoshiro_matches_reference(seed):
    rng = Xoshiro256StarStar(seed)
    assert [rng.next_uint64() for _ in range(20)] == reference_xoshiro(seed, 20)


def test_streams_are_reproducible():
    a = Xoshiro256StarStar(99)
    b = Xoshiro256StarStar(99)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]
    assert Xoshiro256StarStar(99).next_uint64() != Xoshiro256StarStar(100).next_uint64()


def test_next_float_range():
    rng = Xoshiro256StarStar(5)
    values = [rng.next_float() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_randbelow_bounds_and_rough_uniformity():
    rng = Xoshiro256StarStar(11)
    counts = [0] * 7
    for _ in range(7000):
        counts[rng.randbelow(7)] += 1
    assert min(counts) > 800 and max(counts) < 1200


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).randbelow(0)


def test_shuffle_is_a_permutation():
    rng = Xoshiro256StarStar(3)
    items = list(range(100))
    rng.shuffle(items)
    assert sorted(items) == list(range(100))
    again = list(range(100))
    Xoshiro256StarStar(3).shuffle(again)
    assert again == items


def test_sample_without_replacement_distinct():
    rng = Xoshiro256StarStar(17)
    for _ in range(50):
        picked = rng.sample_without_replacement(20, 6)
        assert len(set(picked)) == 6
        assert all(0 <= v < 20 for v in picked)


def test_bootstrap_indices_shape_and_range():
    rng = Xoshiro256StarStar(23)
    boot = rng.bootstrap_indices(40)
    assert len(boot) == 40
    assert all(0 <= v < 40 for v in boot)
    # with replacement: overwhelmingly likely to repeat at least one index
    assert len(set(boot)) < 40


class StepByStep:
    """The drawing methods as their docstrings define them, on a stream
    stepped one ``next_uint64`` call at a time."""

    def __init__(self, seed):
        self.rng = Xoshiro256StarStar(seed)

    def randbelow(self, n):
        limit = (1 << 64) - (1 << 64) % n
        while True:
            v = self.rng.next_uint64()
            if v < limit:
                return v % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, n, k):
        idx = list(range(n))
        for i in range(k):
            j = i + self.randbelow(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]

    def bootstrap_indices(self, n):
        return [self.randbelow(n) for _ in range(n)]


SEEDS = [0, 5, 99, 2**40 + 3, M64]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("call", [
    lambda r: r.sample_without_replacement(14, 4),
    lambda r: r.sample_without_replacement(30, 30),
    lambda r: r.sample_without_replacement(1, 0),
    lambda r: r.bootstrap_indices(144),
    lambda r: r.bootstrap_indices(0),
    lambda r: (lambda items: r.shuffle(items) or items)(list(range(57))),
    lambda r: (lambda items: r.shuffle(items) or items)([7]),
], ids=["sample-14-4", "sample-all", "sample-none", "bootstrap", "bootstrap-empty",
        "shuffle", "shuffle-one"])
def test_draws_equal_step_by_step_draws(seed, call):
    """Each method, and the state it leaves, equal the same draws made
    one ``next_uint64`` at a time."""
    fast, slow = Xoshiro256StarStar(seed), StepByStep(seed)
    for _ in range(3):
        assert call(fast) == call(slow)
    assert fast.next_uint64() == slow.rng.next_uint64()


@pytest.mark.parametrize("seed", SEEDS)
def test_rejected_draws_are_redrawn_in_stream_order(seed):
    """A bound of 3 * 2**62 rejects a quarter of all outputs, and one just
    above 2**32 takes the exact test; both must redraw as ``randbelow``
    does and leave the stream where it would."""
    bounds = [3 * 2**62] * 40 + [2**32 + 1, 2**32, 1, 2, 3 * 2**62, 7] * 5
    fast, slow = Xoshiro256StarStar(seed), StepByStep(seed)
    assert fast._below_each(bounds) == [slow.randbelow(b) for b in bounds]
    assert fast.next_uint64() == slow.rng.next_uint64()


@pytest.mark.parametrize("seed", [0, M64])
@pytest.mark.parametrize("k", [0, 1, 19, 10_000])
def test_outputs_equal_one_call_per_output(seed, k):
    """``outputs(k)`` is ``k`` ``next_uint64`` calls, and leaves the state
    they leave."""
    bulk, single = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    got = bulk.outputs(k)
    assert got.dtype == np.uint64 and got.shape == (k,)
    assert got.tolist() == [single.next_uint64() for _ in range(k)]
    assert bulk._s == single._s
    assert bulk.outputs(3).tolist() == [single.next_uint64() for _ in range(3)]


def test_outputs_rejects_a_negative_count():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).outputs(-1)


def test_traced_method_names_remain():
    """The benchmark's tracer patches these methods by name."""
    for name in ("next_uint64", "next_float", "randbelow", "shuffle",
                 "sample_without_replacement", "bootstrap_indices"):
        assert callable(getattr(Xoshiro256StarStar, name))
