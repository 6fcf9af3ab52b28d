"""Deterministic synthetic movie tables for demos and tests.

Rows are generated from the library's own seeded PRNG, so a (n, seed)
pair always yields the same table on any platform. Revenue is built from
budget, votes, score and genre with multiplicative noise plus a few
non-additive effects, which makes the data behave like the real thing:
budget dominates the univariate feature scores and tree ensembles beat a
straight line.

The table is the one a row-by-row generator gives: it draws each row's
values from the stream in the order of ``_ROW_DRAWS``, through
``randbelow`` and ``next_float``, and then, when cells are to be blanked,
one ``next_float`` per cell, column by column. Here the outputs are drawn
in bulk (``rng.accepted_outputs``) and turned into columns with
numpy, whose float arithmetic rounds each operation as Python's does. The
C library functions (``log``, ``cos``, ``sqrt``, ``expm1``, ``log1p``)
and ``round`` still run through ``math`` and the built-in, one value at a
time on the same operands, so every cell keeps its bits.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import MOVIE_SCHEMA, NUMERIC, DataTable
from .rng import Xoshiro256StarStar, accepted_outputs, below_limit

_RATINGS = ("G", "PG", "PG-13", "R", "Not Rated")
_GENRES = ("Action", "Adventure", "Animation", "Comedy", "Crime", "Drama", "Horror")
_COUNTRIES = (
    "United States",
    "United Kingdom",
    "France",
    "India",
    "Canada",
    "Germany",
    "South Korea",
)
_MONTHS = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
# genre-specific revenue multiplier on the log scale
_GENRE_LIFT = {
    "Action": 0.9,
    "Adventure": 0.7,
    "Animation": 0.8,
    "Comedy": 0.4,
    "Crime": 0.0,
    "Drama": -0.2,
    "Horror": 0.3,
}
_LIFT_BY_CODE = np.array([_GENRE_LIFT[g] for g in _GENRES])
_ACTION = _GENRES.index("Action")
# countries whose films escape the 0.35 log-revenue discount
_HOME_BY_CODE = np.array([c in ("United States", "United Kingdom") for c in _COUNTRIES])
_DIRECTORS = tuple(f"Director {k:02d}" for k in range(40))
_WRITERS = tuple(f"Writer {k:02d}" for k in range(60))
_STARS = tuple(f"Star {k:02d}" for k in range(50))
_STUDIOS = tuple(f"Studio {k:02d}" for k in range(25))

_FLOAT = 0  # a next_float() draw
_U1 = -1  # a Box-Muller u1: a next_float() drawn again while it is 0.0
# one row's draws in stream order; a positive entry b is randbelow(b)
_ROW_DRAWS = (
    len(_GENRES), len(_RATINGS), len(_COUNTRIES),
    41,  # year - 1980
    len(_MONTHS),
    28,  # day - 1
    _FLOAT,  # score
    _FLOAT, _U1, _FLOAT,  # budget, then its noise (u1, u2)
    _U1, _FLOAT,  # votes noise
    101,  # runtime - 80
    len(_DIRECTORS), len(_WRITERS), len(_STARS), len(_STUDIOS),
    _U1, _FLOAT,  # gross noise
)
_BOUNDED = [j for j, d in enumerate(_ROW_DRAWS) if d > 0]
_UNIFORM = [j for j, d in enumerate(_ROW_DRAWS) if d <= 0]
_BOUNDS = np.array([_ROW_DRAWS[j] for j in _BOUNDED], dtype=np.uint64)


def _draw_rows(rng: Xoshiro256StarStar, rows: int, kinds: tuple) -> np.ndarray:
    """``accepted_outputs`` in ``rows`` rows, one place per entry of ``kinds`` (as
    in ``_ROW_DRAWS``): an output below ``below_limit(b)`` for ``randbelow(b)``,
    one with ``v >> 11`` nonzero for a u1, any for a float."""
    low = np.array([1 << 11 if d == _U1 else 0 for d in kinds], dtype=np.uint64)
    high = np.array([below_limit(d) - 1 if d > 0 else (1 << 64) - 1 for d in kinds],
                    dtype=np.uint64)
    return accepted_outputs(rng, rows, low, high)


def _uniform(v: np.ndarray) -> np.ndarray:
    """``next_float`` of each output: its top 53 bits times 2**-53."""
    return (v >> 11) * 2.0 ** -53


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f`` (a ``math`` function or ``round``) of each element, called
    on Python floats one at a time."""
    return np.fromiter(map(f, x.tolist()), dtype=np.float64, count=len(x))


def _gauss(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    # Box-Muller from two uniform draws
    return _each(math.sqrt, -2.0 * _each(math.log, u1)) * _each(math.cos, 2.0 * math.pi * u2)


def _pick(items: tuple, codes: np.ndarray) -> list:
    return [items[k] for k in codes.tolist()]


def synthetic_movies(n: int, seed: int = 7, missing_fraction: float = 0.0) -> DataTable:
    """A DataTable honoring the canonical movie schema.

    ``missing_fraction`` blanks roughly that share of cells at random,
    each cell on its own draw, for exercising the cleaning path; at 1.0
    every cell is blank.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be an int >= 0, got {n!r}")
    if not 0.0 <= missing_fraction <= 1.0:
        raise ValueError(f"missing_fraction must lie in [0, 1], got {missing_fraction!r}")
    rng = Xoshiro256StarStar(seed)
    draws = _draw_rows(rng, n, _ROW_DRAWS)
    (genre, rating, country, year, month, day, runtime,
     director, writer, star, company) = (draws[:, _BOUNDED] % _BOUNDS).T
    (score_u, budget_u, budget_u1, budget_u2, votes_u1, votes_u2,
     gross_u1, gross_u2) = _uniform(draws[:, _UNIFORM]).T
    del draws

    score = np.array([round(x, 1) for x in (3.0 + 6.5 * score_u).tolist()])
    budget = _each(math.expm1, 14.3 + 1.6 * budget_u + 0.7 * _gauss(budget_u1, budget_u2))
    log_budget = _each(math.log1p, budget)
    votes = _each(math.expm1, 4.4 + 0.42 * log_budget + 0.6 * _gauss(votes_u1, votes_u2))
    log_gross = (
        0.2
        + 0.95 * log_budget
        + 0.18 * _each(math.log1p, votes)
        + 0.05 * score
        + _LIFT_BY_CODE[genre]
        + 0.3 * _gauss(gross_u1, gross_u2)
    )
    # non-additive structure a straight line cannot express: steps and
    # kinks, plus genre/country effects that are non-monotone in the
    # label-encoded code space
    log_gross = np.where(score > 7.5, log_gross + 0.25 * (score - 7.5), log_gross)
    log_gross = np.where((genre == _ACTION) & (budget > 5.0e7), log_gross + 0.4, log_gross)
    log_gross = np.where(_HOME_BY_CODE[country], log_gross, log_gross - 0.35)
    gross = _each(math.expm1, np.minimum(log_gross, 23.5))

    cols = {
        "name": [f"Movie {i:05d}" for i in range(n)],
        "rating": _pick(_RATINGS, rating),
        "genre": _pick(_GENRES, genre),
        "year": year + 1980.0,
        "released": [
            f"{_MONTHS[m]} {d + 1}, {y + 1980} ({_COUNTRIES[c]})"
            for m, d, y, c in zip(month.tolist(), day.tolist(), year.tolist(), country.tolist())
        ],
        "score": score,
        "votes": _each(round, votes),
        "director": _pick(_DIRECTORS, director),
        "writer": _pick(_WRITERS, writer),
        "star": _pick(_STARS, star),
        "country": _pick(_COUNTRIES, country),
        "budget": _each(round, budget),
        "company": _pick(_STUDIOS, company),
        "runtime": runtime + 80.0,
        "gross": _each(round, gross),
    }

    if missing_fraction > 0.0:
        cells = _uniform(_draw_rows(rng, len(MOVIE_SCHEMA) * n, (_FLOAT,)))
        blank = (cells < missing_fraction).reshape(len(MOVIE_SCHEMA), n)
        for c, rows in zip(MOVIE_SCHEMA, blank):
            col = cols[c.name]
            if c.kind == NUMERIC:
                col[rows] = math.nan
            else:
                for i in np.flatnonzero(rows).tolist():
                    col[i] = None
    return DataTable(MOVIE_SCHEMA, cols)
