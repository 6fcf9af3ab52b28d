"""Descriptive statistics, correlation and univariate feature scoring.

The feature score is the univariate regression F statistic
F = r^2 / (1 - r^2) * (n - 2), computed from the Pearson correlation of
one feature column with the target. Constant columns score 0 (no signal)
and perfectly correlated ones score +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import preprocess
from .dataset import CATEGORICAL, FEATURE, NUMERIC, DataTable
from .errors import BadBins, TooFewRows, ZeroVariance


@dataclass(frozen=True)
class ColumnStats:
    mean: float
    median: float
    stddev: float
    min: float
    max: float
    q1: float
    q3: float


@dataclass(frozen=True)
class SummaryStats:
    columns: dict[str, ColumnStats]


@dataclass(frozen=True)
class FScoreTable:
    """Entries sorted by descending score (ties by ascending name);
    the first ``k_selected`` entries are the selected features."""

    entries: tuple[tuple[str, float], ...]
    k_selected: int


def summarize(table: DataTable) -> SummaryStats:
    """Central tendency and spread for every numeric column.

    Quartiles use linear interpolation between order statistics; the
    standard deviation is the population (1/n) convention. All columns
    go through :func:`preprocess.centred_rows` at once, as the rows of
    one array: each statistic is computed on the column scaled by a power
    of two and scaled back, so it is finite for any finite cells.
    """
    names = [c.name for c in table.schema if c.kind == NUMERIC]
    rows = np.array([table.column(name) for name in names], dtype=np.float64)
    rows = rows.reshape(len(names), table.row_count)
    _, mean, ss, e = preprocess.centred_rows(rows)
    quartiles = np.quantile(np.ldexp(rows, -e[:, None]), [0.25, 0.5, 0.75], axis=1)
    q1, med, q3 = np.ldexp(quartiles, e)
    stds = np.ldexp(np.sqrt(ss / rows.shape[1]), e)
    columns = zip(np.ldexp(mean, e), med, stds, np.min(rows, axis=1), np.max(rows, axis=1), q1, q3)
    return SummaryStats({name: ColumnStats(*map(float, c)) for name, c in zip(names, columns)})


# cells in one block of the F scorer: it holds at most this many cells of
# the scored matrix at a time, however many columns there are
_SCORE_CELLS = 2**16
_add = np.add.reduce


def _r(dx, sxx, dy, syy) -> np.ndarray:
    """r of each row of ``dx`` against the one row of ``dy``, each side
    with its sums of squares as :func:`preprocess.centred_rows` returns
    them, clamped as ``max(-1.0, min(1.0, r))`` clamps; 0 where either
    side is constant. r is scale-free, so nothing is scaled back."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = _add(dx * dy, axis=1) / np.sqrt(sxx * syy)
    r = np.where(r < 1.0, r, 1.0)
    r = np.where(r > -1.0, r, -1.0)
    return np.where((sxx == 0.0) | (syy == 0.0), 0.0, r)


def _vectors(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("pearson_r needs two equal-length arrays of size >= 2")
    return x, y


def pearson_r(x, y) -> float:
    """Product-moment correlation in [-1, 1]."""
    x, y = _vectors(x, y)
    dx, _, sxx, _ = preprocess.centred_rows(x.reshape(1, -1))
    dy, _, syy, _ = preprocess.centred_rows(y.reshape(1, -1))
    if sxx[0] == 0.0 or syy[0] == 0.0:
        raise ZeroVariance("correlation is undefined for a constant array")
    return float(_r(dx, sxx, dy, syy)[0])


class ExpandedView:
    """The matrix of :func:`expand_categorical`, kept as label codes.

    ``shape`` is (rows, columns); :meth:`column_rows` builds a run of its
    columns as the rows of a C-ordered array, and ``np.asarray(view)``
    builds the whole dense float64 matrix."""

    def __init__(self, codes: np.ndarray, widths: list[int | None]):
        self._codes = codes  # (features, rows): one row of codes per feature
        self._widths = widths  # class count per categorical feature, None if numeric
        self.shape = (codes.shape[1], sum(1 if w is None else w for w in widths))

    def column_rows(self, start: int, stop: int) -> np.ndarray:
        """Columns ``start`` to ``stop`` (exclusive) as the rows of a
        C-ordered (stop - start, rows) float64 array."""
        stop = min(stop, self.shape[1])
        out = np.empty((stop - start, self.shape[0]))
        first = 0
        for code, width in zip(self._codes, self._widths):
            last = first + (1 if width is None else width)
            lo, hi = max(start, first), min(stop, last)
            if lo < hi:
                if width is None:
                    out[lo - start] = code
                else:
                    classes = np.arange(lo - first, hi - first)[:, None]
                    np.equal(code, classes, out=out[lo - start:hi - start])
            first = last
        return out

    def __array__(self, dtype=None, copy=None):
        return self.column_rows(0, self.shape[1]).T.astype(dtype or np.float64, order="C")


def _f_scores(features, y) -> list[float]:
    """The F statistic of each column of ``features``, a 2-D array or an
    :class:`ExpandedView`, against ``y``, which is prepared once.

    Columns are scored as the rows of C-ordered blocks of
    ``max(1, _SCORE_CELLS // n)`` columns, so the scorer holds a few
    blocks at a time and never a transposed copy of the matrix. Each row
    is prepared by :func:`preprocess.centred_rows` as the column alone
    would be, and r, its clamp and F run in the order of the scalar
    formulas, so a column's score has the same bits in any block."""
    n, count = features.shape
    if n < 3:
        raise TooFewRows("f_regression_score needs n >= 3")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError("the target needs one value per row of the features")
    dy, _, syy, _ = preprocess.centred_rows(y.reshape(1, -1))
    step = max(1, _SCORE_CELLS // n)
    scores = []
    for start in range(0, count, step):
        if isinstance(features, ExpandedView):
            rows = features.column_rows(start, start + step)
        else:
            rows = np.ascontiguousarray(features[:, start:start + step].T)
        dx, _, sxx, _ = preprocess.centred_rows(rows)
        r = _r(dx, sxx, dy, syy)
        r2 = r * r
        with np.errstate(divide="ignore"):
            f = r2 / (1.0 - r2) * (n - 2)
        scores += np.where(r2 >= 1.0, math.inf, f).tolist()
    return scores


def f_regression_score(x, y) -> float:
    """Univariate F statistic of x against y; 0 when either side is
    constant, +inf at perfect correlation."""
    return _f_scores(np.asarray(x, dtype=np.float64).reshape(-1, 1), y)[0]


def select_k_best(features, names: list[str], y, k: int) -> FScoreTable:
    """Score every feature column against the target and keep the top k.

    ``features`` is a 2-D array or the :class:`ExpandedView` of
    :func:`expand_categorical`. Columns are scored in blocks of
    ``max(1, 2**16 // rows)`` at a time, through
    :func:`preprocess.centred_rows`, the scaling that also fits the
    pipeline's scaler. Each column is scored exactly as it would be
    alone, so the scores do not depend on the block size. Ties in score
    break by ascending column name; the returned entries are the full
    sorted scoreboard, not just the selected prefix.
    """
    if not isinstance(features, ExpandedView):
        features = np.asarray(features, dtype=np.float64)
    if len(features.shape) != 2 or features.shape[1] != len(names):
        raise ValueError("feature matrix and name list disagree")
    if not 1 <= k <= len(names):
        raise ValueError(f"k must be in 1..{len(names)}")
    scores = list(zip(names, _f_scores(features, y)))
    scores.sort(key=lambda item: (-item[1], item[0]))
    return FScoreTable(entries=tuple(scores), k_selected=k)


def threshold_scores(table: FScoreTable, min_score: float) -> FScoreTable:
    """Entries with score strictly greater than ``min_score``, order kept."""
    kept = tuple(e for e in table.entries if e[1] > min_score)
    return FScoreTable(entries=kept, k_selected=min(table.k_selected, len(kept)))


def expand_categorical(table: DataTable) -> tuple[ExpandedView, list[str]]:
    """Indicator matrix with one 0/1 column per (column, category) pair,
    named ``column=category``; numeric feature columns pass through.

    The matrix is returned as an :class:`ExpandedView` of the label codes:
    ``np.asarray`` of it gives the dense matrix, and :func:`select_k_best`
    builds its columns a block at a time (at most 2**16 cells each), so
    scoring never holds the rows x categories matrix. Its indicator cells
    are the comparisons ``code == class`` the dense matrix holds, so every
    score has the bits it has on the dense matrix.

    Analysis-only view for per-category scoring; never fed to models.
    """
    features = [c for c in table.schema if c.role == FEATURE]
    encoder = preprocess.fit_encoders(table)
    encoded, _ = preprocess.encode_table(table, encoder, [c.name for c in features])
    names, widths = [], []
    for c in features:
        if c.kind == CATEGORICAL:
            classes = encoder.classes[c.name]
            names += [f"{c.name}={category}" for category in classes]
            widths.append(len(classes))
        else:
            names.append(c.name)
            widths.append(None)
    return ExpandedView(np.ascontiguousarray(encoded.T), widths), names


def category_counts(table: DataTable, column: str) -> list[tuple[str, int]]:
    """Distinct values with row counts, most frequent first (ties by name)."""
    counts: dict[str, int] = {}
    for v in table.column(column):
        counts[v] = counts.get(v, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


def gross_histogram(y, bin_edges) -> list[tuple[tuple[float, float], int]]:
    """Counts per [edge_i, edge_i+1) bin; outliers land in the end bins
    so the counts always sum to len(y)."""
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise BadBins("bin edges must be strictly ascending, >= 2 of them")
    y = np.asarray(y, dtype=np.float64)
    idx = np.searchsorted(edges, y, side="right") - 1
    idx = np.clip(idx, 0, edges.size - 2)
    counts = np.bincount(idx, minlength=edges.size - 1)
    return [
        ((float(edges[i]), float(edges[i + 1])), int(counts[i]))
        for i in range(edges.size - 1)
    ]
