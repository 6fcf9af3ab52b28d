"""The generators must follow the published update equations exactly;
the reference values below are recomputed step by step in plain Python
integers, independent of the library code paths."""

import numpy as np
import pytest

from movierev.rng import Xoshiro256StarStar, derive_seed
from movierev.synthetic import synthetic_movies
from tests.conftest import run_python

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


class ReferenceXoshiro:
    """Direct transcription of the xoshiro256** equations, seeded from
    the first four SplitMix64 outputs; ``s`` is the state."""

    def __init__(self, seed):
        self.s = reference_splitmix64(seed, 4)

    def next(self):
        s = self.s
        result = (rotl((s[1] * 5) & M64, 7) * 9) & M64
        t = (s[1] << 17) & M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
        return result


def rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & M64


def reference_xoshiro(seed, count):
    """The first ``count`` outputs of the reference stream."""
    ref = ReferenceXoshiro(seed)
    return [ref.next() for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, M64])
def test_derive_seed_is_splitmix_stream(seed):
    expected = reference_splitmix64(seed, 5)
    assert [derive_seed(seed, i) for i in range(5)] == expected


@pytest.mark.parametrize("seed", [0, 7, 123456789, 2**63])
def test_xoshiro_matches_reference(seed):
    rng = Xoshiro256StarStar(seed)
    assert [rng.next_uint64() for _ in range(20)] == reference_xoshiro(seed, 20)


def test_streams_are_reproducible():
    for rng in (Xoshiro256StarStar(99), Xoshiro256StarStar(99)):
        assert [rng.next_uint64() for _ in range(10)] == reference_xoshiro(99, 10)
    first = Xoshiro256StarStar(100).next_uint64()
    assert first == reference_xoshiro(100, 1)[0] != reference_xoshiro(99, 1)[0]


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
    """The drawing methods as their docstrings define them, on the
    reference stream, stepped one output at a time; ``redrawn`` counts the
    outputs that ``randbelow`` rejected."""

    def __init__(self, seed):
        self.ref = ReferenceXoshiro(seed)
        self.redrawn = 0

    def randbelow(self, n):
        limit = (1 << 64) - (1 << 64) % n
        while True:
            v = self.ref.next()
            if v < limit:
                return v % n
            self.redrawn += 1

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
    on the reference stream one output at a time."""
    fast, slow = Xoshiro256StarStar(seed), StepByStep(seed)
    for _ in range(3):
        assert call(fast) == call(slow)
    assert fast._s == slow.ref.s


@pytest.mark.parametrize("seed", SEEDS)
def test_rejected_draws_are_redrawn_in_stream_order(seed):
    """A bound of 3 * 2**62 rejects a quarter of all outputs, mixed with
    bounds that reject almost none; the bulk bounded draw must redraw as
    ``randbelow`` does and leave the stream where it would."""
    bounds = [3 * 2**62] * 40 + [2**32 + 1, 2**32, 1, 2, 3 * 2**62, 7] * 5
    fast, slow = Xoshiro256StarStar(seed), StepByStep(seed)
    assert fast._below(bounds)[0].tolist() == [slow.randbelow(b) for b in bounds]
    assert slow.redrawn > 0
    assert fast._s == slow.ref.s


# bounds with no rejected output (1, 2**32, and 2**64, which keeps the
# output as it is), two rejected outputs (7), one (2**32 + 1) and a
# quarter of all outputs rejected (3 * 2**62)
BOUNDS = [1, 7, 2**32, 2**32 + 1, 3 * 2**62, 2**64]


def state_whose_next_output_is(seed, v):
    """The reference state of ``seed`` with ``s1`` set so that the next
    output is ``v``: ``s1 = rotr(v / 9, 7) / 5`` modulo 2**64."""
    s = reference_splitmix64(seed, 4)
    s[1] = rotl((v * pow(9, -1, 1 << 64)) & M64, 57) * pow(5, -1, 1 << 64) & M64
    return s


@pytest.mark.parametrize("seed", SEEDS)
def test_single_draws_follow_the_reference(seed):
    """``next_uint64``, ``next_float`` and ``randbelow(b)``, interleaved,
    take the reference stream's outputs in order, with every rejected
    output redrawn by the reference rule."""
    rng, ref = Xoshiro256StarStar(seed), StepByStep(seed)
    for b in BOUNDS * 30:
        assert rng.next_uint64() == ref.ref.next()
        assert rng.next_float() == (ref.ref.next() >> 11) * 2.0**-53
        assert rng.randbelow(b) == ref.randbelow(b)
    assert ref.redrawn > 0
    assert rng._s == ref.ref.s


@pytest.mark.parametrize("b", BOUNDS)
@pytest.mark.parametrize("v", [0, 2**64 - 2**32 - 1, 2**64 - 2**32, 3 * 2**62 - 1,
                               3 * 2**62, M64 - 1, M64])
def test_randbelow_redraws_exactly_the_outputs_the_reference_rejects(b, v):
    """The next output set to each side of every bound's limit and of
    the small-bound shortcut: ``randbelow`` takes or redraws it as the
    reference does, and leaves the same state."""
    rng, ref, probe = Xoshiro256StarStar(0), StepByStep(0), ReferenceXoshiro(0)
    rng._s = state_whose_next_output_is(0, v)
    ref.ref.s, probe.s = list(rng._s), list(rng._s)
    assert probe.next() == v
    assert rng.randbelow(b) == ref.randbelow(b)
    assert (ref.redrawn > 0) == (v >= (1 << 64) - (1 << 64) % b)
    assert rng._s == ref.ref.s


def test_bounds_outside_one_to_two_to_the_64_are_refused():
    """No output is below the limit of a bound past 2**64, so a draw for
    one would never return: it is refused, as are bounds below 1, for a
    single draw and for any place of a bulk one. Run in a child process,
    killed if it hangs."""
    code = """if True:
        from movierev.rng import Xoshiro256StarStar
        rng = Xoshiro256StarStar(1)
        for draw in (lambda: rng.randbelow(2**64 + 1), lambda: rng.randbelow(2**65),
                     lambda: rng.randbelow(0), lambda: rng.randbelow(-3),
                     lambda: rng._below([7, 2**64 + 1, 5]), lambda: rng._below([7, 0, 5], 3)):
            try:
                draw()
            except ValueError as e:
                print(e)
        """
    proc = run_python(["-c", code], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"bound {n} outside [1, 2**64]"
        for n in (2**64 + 1, 2**65, 0, -3, 2**64 + 1, 0)
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("v", [M64, M64 - 1, 0])
def test_sample_rows_equal_successive_samples(seed, v):
    """Each row of ``sample_rows(n, k, count)`` is the next
    ``sample_without_replacement(n, k)``, over blocks of rows, with the
    first output set to one that bound 14 rejects (``M64``, ``M64 - 1``)
    or takes (0); the state left is the same."""
    fast, slow = Xoshiro256StarStar(0), StepByStep(0)
    fast._s = state_whose_next_output_is(seed, v)
    slow.ref.s = list(fast._s)
    for n, k, count in [(14, 4, 16), (14, 4, 1), (14, 4, 1100), (14, 4, 0), (30, 30, 3),
                        (1, 0, 2), (14, 1, 40), (5, 5, 7)]:
        rows = fast.sample_rows(n, k, count)
        assert rows.shape == (count, k)
        assert rows.tolist() == [slow.sample_without_replacement(n, k) for _ in range(count)]
    assert (slow.redrawn > 0) == (v != 0)
    assert fast._s == slow.ref.s


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**65 + 3, True, False, 1.0, 2.0**64,
                                  "1", None, np.int64(-1)], ids=repr)
def test_seed_outside_the_64_bit_range_is_refused(seed):
    """No two seeds name one stream: a seed is an integer in [0, 2**64)."""
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        derive_seed(seed, 0)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        Xoshiro256StarStar(seed)


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1, 2**63, M64])
def test_numpy_integer_seeds_equal_python_ones(seed):
    kinds = [np.uint64] + ([np.int64] if seed < 2**63 else [])
    for kind in kinds:
        assert [derive_seed(kind(seed), i) for i in range(3)] == reference_splitmix64(seed, 3)
        assert Xoshiro256StarStar(kind(seed))._s == ReferenceXoshiro(seed).s


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_synthetic_tables_refuse_an_out_of_range_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        synthetic_movies(5, seed=seed)


@pytest.mark.parametrize("seed", [0, M64])
@pytest.mark.parametrize("k", [0, 1, 19, 10_000])
def test_outputs_equal_one_call_per_output(seed, k):
    """``outputs(k)`` is the next ``k`` outputs of the reference stream,
    and leaves the state that stream leaves."""
    bulk, single = Xoshiro256StarStar(seed), ReferenceXoshiro(seed)
    got = bulk.outputs(k)
    assert got.dtype == np.uint64 and got.shape == (k,)
    assert got.tolist() == [single.next() for _ in range(k)]
    assert bulk._s == single.s
    assert bulk.outputs(3).tolist() == [single.next() for _ in range(3)]


@pytest.mark.parametrize("bound", [2.5, "3", None, True, 3.0, np.float64(3.0)], ids=repr)
def test_randbelow_refuses_a_bound_that_is_not_an_integer(bound):
    """``randbelow(2.5)`` drew from {0, 1}, as a bound of 2 would, and
    ``randbelow("3")`` failed with an unrelated ``TypeError``."""
    rng = Xoshiro256StarStar(1)
    with pytest.raises(ValueError, match=r"bound must be an integer in \[1, 2\*\*64\], not "):
        rng.randbelow(bound)
    assert rng._s == Xoshiro256StarStar(1)._s  # nothing was drawn


@pytest.mark.parametrize("bound", [1, 7, 2**63, M64])
def test_numpy_integer_bounds_equal_python_ones(bound):
    kinds = [np.uint64] + ([np.int64] if bound < 2**63 else [])
    for kind in kinds:
        python, numpy_ = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
        assert [numpy_.randbelow(kind(bound)) for _ in range(20)] == [
            python.randbelow(bound) for _ in range(20)
        ]


def test_outputs_rejects_a_negative_count():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).outputs(-1)


def test_traced_method_names_remain():
    """The benchmark's tracer patches these methods by name."""
    for name in ("next_uint64", "next_float", "randbelow", "shuffle",
                 "sample_without_replacement", "bootstrap_indices"):
        assert callable(getattr(Xoshiro256StarStar, name))
