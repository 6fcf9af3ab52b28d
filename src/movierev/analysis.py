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
    standard deviation is the population (1/n) convention.
    """
    out = {}
    for c in table.schema:
        if c.kind != NUMERIC:
            continue
        col = np.asarray(table.column(c.name), dtype=np.float64)
        mean, std = preprocess.mean_and_std(col)
        s, e = preprocess.scaled(col)
        q1, med, q3 = np.ldexp(np.quantile(s, [0.25, 0.5, 0.75]), e)
        out[c.name] = ColumnStats(
            mean=mean,
            median=float(med),
            stddev=std,
            min=float(np.min(col)),
            max=float(np.max(col)),
            q1=float(q1),
            q3=float(q3),
        )
    return SummaryStats(out)


def _centred(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``v`` scaled by a power of two and centred, with its sum of squares:
    all that r needs of one side. r is scale-free, so nothing is scaled
    back."""
    s = preprocess.scaled(v)[0]
    d = s - np.mean(s)
    return d, float(np.sum(d * d))


def _r(x, y) -> float:
    """r of two sides prepared by :func:`_centred`."""
    (dx, sxx), (dy, syy) = x, y
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("correlation is undefined for a constant array")
    r = float(np.sum(dx * dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _vectors(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("pearson_r needs two equal-length arrays of size >= 2")
    return x, y


def pearson_r(x, y) -> float:
    """Product-moment correlation in [-1, 1]."""
    x, y = _vectors(x, y)
    return _r(_centred(x), _centred(y))


def _f_scores(columns, y) -> list[float]:
    """The F statistic of each column against ``y``, which is checked
    against the first column and prepared by :func:`_centred` once."""
    columns = [np.asarray(x, dtype=np.float64) for x in columns]
    if columns[0].size < 3:
        raise TooFewRows("f_regression_score needs n >= 3")
    target = _centred(_vectors(columns[0], y)[1])
    scores = []
    for x in columns:
        try:
            r = _r(_centred(x), target)
        except ZeroVariance:
            r = 0.0
        r2 = r * r
        scores.append(math.inf if r2 >= 1.0 else r2 / (1.0 - r2) * (x.size - 2))
    return scores


def f_regression_score(x, y) -> float:
    """Univariate F statistic of x against y; 0 when either side is
    constant, +inf at perfect correlation."""
    return _f_scores([x], y)[0]


def select_k_best(features: np.ndarray, names: list[str], y, k: int) -> FScoreTable:
    """Score every feature column against the target and keep the top k.

    Ties in score break by ascending column name; the returned entries
    are the full sorted scoreboard, not just the selected prefix.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != len(names):
        raise ValueError("feature matrix and name list disagree")
    if not 1 <= k <= len(names):
        raise ValueError(f"k must be in 1..{len(names)}")
    scores = list(zip(names, _f_scores((features[:, j] for j in range(len(names))), y)))
    scores.sort(key=lambda item: (-item[1], item[0]))
    return FScoreTable(entries=tuple(scores), k_selected=k)


def threshold_scores(table: FScoreTable, min_score: float) -> FScoreTable:
    """Entries with score strictly greater than ``min_score``, order kept."""
    kept = tuple(e for e in table.entries if e[1] > min_score)
    return FScoreTable(entries=kept, k_selected=min(table.k_selected, len(kept)))


def expand_categorical(table: DataTable) -> tuple[np.ndarray, list[str]]:
    """Indicator matrix with one 0/1 column per (column, category) pair,
    named ``column=category``; numeric feature columns pass through.

    Analysis-only view for per-category scoring; never fed to models.
    """
    features = [c for c in table.schema if c.role == FEATURE]
    encoder = preprocess.fit_encoders(table)
    encoded, _ = preprocess.encode_table(table, encoder, [c.name for c in features])
    blocks, names = [], []
    for c, col in zip(features, encoded.T):
        col = col[:, None]
        if c.kind == CATEGORICAL:
            classes = encoder.classes[c.name]
            names += [f"{c.name}={category}" for category in classes]
            blocks.append(col == np.arange(len(classes)))
        else:
            names.append(c.name)
            blocks.append(col)
    return np.hstack(blocks, dtype=np.float64), names


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
