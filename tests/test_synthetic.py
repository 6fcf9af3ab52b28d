"""``synthetic_movies`` draws in bulk and builds its table column-wise;
the reference below is the row-by-row generator it replaced, written
against a stream object. Both must give the same cells, bit for bit, and
leave the stream in the same place, rejected draws included."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movierev import synthetic
from movierev.dataset import MOVIE_SCHEMA, NUMERIC, DataTable
from movierev.rng import _BLOCK_OUTPUTS, Xoshiro256StarStar
from movierev.synthetic import synthetic_movies

M64 = (1 << 64) - 1


class Stream:
    """``randbelow`` and ``next_float`` over the outputs of ``source``,
    one ``next_uint64`` at a time, counting the outputs taken."""

    def __init__(self, source):
        self.source = source
        self.taken = 0

    def next_uint64(self):
        self.taken += 1
        return self.source.next_uint64()

    def next_float(self):
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def randbelow(self, n):
        limit = (1 << 64) - (1 << 64) % n
        while True:
            v = self.next_uint64()
            if v < limit:
                return v % n


class Listed:
    """A generator that gives the outputs of a list, in order, one at a
    time or in bulk, counting the outputs taken."""

    def __init__(self, values):
        self.values = values
        self.taken = 0

    def next_uint64(self):
        self.taken += 1
        return self.values[self.taken - 1]

    def outputs(self, k):
        self.taken += k
        assert self.taken <= len(self.values)
        return np.array(self.values[self.taken - k:self.taken], dtype=np.uint64)


_RATINGS = ("G", "PG", "PG-13", "R", "Not Rated")
_GENRES = ("Action", "Adventure", "Animation", "Comedy", "Crime", "Drama", "Horror")
_COUNTRIES = ("United States", "United Kingdom", "France", "India", "Canada", "Germany",
              "South Korea")
_MONTHS = ("January", "February", "March", "April", "May", "June",
           "July", "August", "September", "October", "November", "December")
_GENRE_LIFT = {"Action": 0.9, "Adventure": 0.7, "Animation": 0.8, "Comedy": 0.4,
               "Crime": 0.0, "Drama": -0.2, "Horror": 0.3}


def _gauss(rng):
    u1 = rng.next_float()
    while u1 == 0.0:
        u1 = rng.next_float()
    u2 = rng.next_float()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _choice(rng, items):
    return items[rng.randbelow(len(items))]


def reference_movies(n, rng, missing_fraction=0.0):
    """The row-by-row generator: every draw a ``randbelow`` or
    ``next_float`` call on ``rng``, every value a Python scalar."""
    cols = {c.name: [] for c in MOVIE_SCHEMA}
    for i in range(n):
        genre = _choice(rng, _GENRES)
        rating = _choice(rng, _RATINGS)
        country = _choice(rng, _COUNTRIES)
        year = 1980 + rng.randbelow(41)
        month = _choice(rng, _MONTHS)
        day = 1 + rng.randbelow(28)
        score = round(3.0 + 6.5 * rng.next_float(), 1)
        budget = math.expm1(14.3 + 1.6 * rng.next_float() + 0.7 * _gauss(rng))
        votes = math.expm1(4.4 + 0.42 * math.log1p(budget) + 0.6 * _gauss(rng))
        runtime = float(80 + rng.randbelow(101))
        director = f"Director {rng.randbelow(40):02d}"
        writer = f"Writer {rng.randbelow(60):02d}"
        star = f"Star {rng.randbelow(50):02d}"
        company = f"Studio {rng.randbelow(25):02d}"

        log_gross = (
            0.2
            + 0.95 * math.log1p(budget)
            + 0.18 * math.log1p(votes)
            + 0.05 * score
            + _GENRE_LIFT[genre]
            + 0.3 * _gauss(rng)
        )
        if score > 7.5:
            log_gross += 0.25 * (score - 7.5)
        if genre == "Action" and budget > 5.0e7:
            log_gross += 0.4
        if country not in ("United States", "United Kingdom"):
            log_gross -= 0.35
        gross = math.expm1(min(log_gross, 23.5))

        cols["name"].append(f"Movie {i:05d}")
        cols["rating"].append(rating)
        cols["genre"].append(genre)
        cols["year"].append(float(year))
        cols["released"].append(f"{month} {day}, {year} ({country})")
        cols["score"].append(score)
        cols["votes"].append(round(votes))
        cols["director"].append(director)
        cols["writer"].append(writer)
        cols["star"].append(star)
        cols["country"].append(country)
        cols["budget"].append(round(budget))
        cols["company"].append(company)
        cols["runtime"].append(runtime)
        cols["gross"].append(round(gross))

    if missing_fraction > 0.0:
        for c in MOVIE_SCHEMA:
            for i in range(n):
                if rng.next_float() < missing_fraction:
                    cols[c.name][i] = math.nan if c.kind == NUMERIC else None
    return DataTable(MOVIE_SCHEMA, cols)


def assert_same_cells(got: DataTable, want: DataTable):
    """Every numeric cell has the same bits (NaN in the same places), and
    every other cell the same value and type (None in the same places)."""
    assert got.schema == want.schema
    for c in MOVIE_SCHEMA:
        a, b = got.column(c.name), want.column(c.name)
        if c.kind == NUMERIC:
            assert a.dtype == b.dtype == np.float64, c.name
            assert a.tobytes() == b.tobytes(), c.name
        else:
            assert a == b, c.name
            assert [type(v) for v in a] == [type(v) for v in b], c.name


def generated(n, rng, missing_fraction=0.0):
    """``synthetic_movies`` with its generator replaced by ``rng``."""
    with mock.patch.object(synthetic, "Xoshiro256StarStar", lambda seed: rng):
        return synthetic_movies(n, seed=0, missing_fraction=missing_fraction)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 60),
    seed=st.integers(0, M64),
    missing_fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
def test_table_and_stream_equal_the_row_by_row_reference(n, seed, missing_fraction):
    rng, ref = Xoshiro256StarStar(seed), Stream(Xoshiro256StarStar(seed))
    assert_same_cells(generated(n, rng, missing_fraction),
                      reference_movies(n, ref, missing_fraction))
    assert rng._s == ref.source._s


def test_default_tables_equal_the_reference():
    """Through the public call, on the seed and sizes the fixtures use."""
    for n, seed, missing in ((240, 9, 0.0), (240, 9, 0.03), (5, 7, 0.5)):
        assert_same_cells(synthetic_movies(n, seed=seed, missing_fraction=missing),
                          reference_movies(n, Stream(Xoshiro256StarStar(seed)), missing))


# 2**64 - 1 is at or above randbelow's limit for every bound the rows use
# (none is a power of two), so each bounded place rejects it; 0 and 2047
# give a u1 of 0.0, which Box-Muller draws again.
REJECTED_BOUNDED = M64
# rows in one block of bulk draws
BLOCK_ROWS = _BLOCK_OUTPUTS // len(synthetic._ROW_DRAWS)


@pytest.mark.parametrize("n, inserts, rejected", [
    # the genre draw of row 0 rejected, then the u1 of row 0's budget noise
    (3, {0: REJECTED_BOUNDED, 9: 0}, 2),
    # the same place rejected twice running: runtime (bound 101) of row 1
    (3, {19 + 12: REJECTED_BOUNDED, 19 + 13: REJECTED_BOUNDED}, 2),
    # the gross noise u1 of row 1 is 0.0, twice
    (2, {19 + 17: 0, 19 + 18: 2047}, 2),
    # a block's last place, a u2, keeps a 0 (a uniform of 0.0); the next
    # block's first place, a genre draw, rejects 2**64 - 1
    (BLOCK_ROWS + 2, {BLOCK_ROWS * 19 - 1: 0, BLOCK_ROWS * 19: REJECTED_BOUNDED}, 1),
    # the u1 of the gross noise in a block's last row, rejected: the row
    # takes its next output from beyond the block
    (BLOCK_ROWS + 1, {BLOCK_ROWS * 19 - 2: 0}, 1),
    # an output of 2**64 - 1 at a float place is a uniform near 1, kept
    (1, {6: REJECTED_BOUNDED}, 0),
])
@pytest.mark.parametrize("missing_fraction", [0.0, 0.4])
def test_rejected_draws_are_dropped_as_one_at_a_time(n, inserts, rejected, missing_fraction):
    """Outputs put into a seeded stream at chosen places: each table, and
    the count of outputs taken, equal the reference's, and the reference
    rejected as many outputs as the case says."""
    source = Xoshiro256StarStar(11)
    values = [source.next_uint64() for _ in range(40 * n + 10)]
    for at in sorted(inserts):
        values.insert(at, inserts[at])
    bulk, ref = Listed(values), Stream(Listed(values))
    assert_same_cells(generated(n, bulk, missing_fraction),
                      reference_movies(n, ref, missing_fraction))
    assert bulk.taken == ref.taken
    per_cell = len(MOVIE_SCHEMA) * n if missing_fraction > 0.0 else 0
    assert ref.taken == 19 * n + rejected + per_cell


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    inserts=st.dictionaries(st.integers(0, 12 * 19),
                            st.sampled_from([M64, M64 - 1, 0, 2047, 2048]), max_size=8),
    missing_fraction=st.sampled_from([0.0, 0.3]),
)
def test_any_inserted_outputs_keep_the_stream(n, inserts, missing_fraction):
    """Outputs at and around the rejection limits, put anywhere in the
    rows' draws: whether a place rejects or keeps each one, the table and
    the outputs taken equal the reference's."""
    source = Xoshiro256StarStar(n)
    values = [source.next_uint64() for _ in range(40 * n + 20)]
    for at in sorted(inserts):
        values.insert(at, inserts[at])
    bulk, ref = Listed(values), Stream(Listed(values))
    assert_same_cells(generated(n, bulk, missing_fraction),
                      reference_movies(n, ref, missing_fraction))
    assert bulk.taken == ref.taken


@pytest.mark.parametrize("n", [-3, -1, 2.0, 3.5, True, False, None, "10", np.int64(5)])
def test_row_count_must_be_a_non_negative_int(n):
    with pytest.raises(ValueError, match="n must be an int"):
        synthetic_movies(n)


@pytest.mark.parametrize("fraction", [math.nan, -0.01, 1.01, math.inf, -math.inf])
def test_missing_fraction_must_lie_in_the_unit_interval(fraction):
    with pytest.raises(ValueError, match="missing_fraction"):
        synthetic_movies(10, missing_fraction=fraction)


def test_a_missing_fraction_of_one_blanks_every_cell():
    """Each cell is blanked on its own draw, so whole rows can go too."""
    table = synthetic_movies(30, seed=2, missing_fraction=1.0)
    for c in MOVIE_SCHEMA:
        col = table.column(c.name)
        if c.kind == NUMERIC:
            assert np.isnan(col).all()
        else:
            assert all(v is None for v in col)


# tracemalloc peak of synthetic_movies(3000, seed=1) measured at the
# row-by-row generator, in MB
ROW_BY_ROW_PEAK_MB = 2.36


def test_peak_memory_stays_near_the_row_by_row_generator():
    synthetic_movies(3, seed=1)  # imports and module constants first
    tracemalloc.start()
    try:
        synthetic_movies(3000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= 1.5 * ROW_BY_ROW_PEAK_MB
