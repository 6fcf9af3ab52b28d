"""Encode, log-transform and scale movie tables into model matrices.

A fitted :class:`Pipeline` applies three stages in a fixed order, each
writing into the one float64 feature matrix (no intermediate tables):

1. label-encode every categorical column (lexicographic class codes),
2. optionally log1p the ``budget`` feature and the ``gross`` target,
3. optionally standardize all feature columns with train-set statistics.

Everything fitted (class lists, means, standard deviations) comes from the
training rows only; transforming other tables never mutates the pipeline.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, FEATURE, NUMERIC, TARGET, ColumnSpec, DataTable
from .errors import DomainError, SchemaMismatch

MONEY_FEATURE = "budget"


@dataclass(frozen=True)
class EncoderMap:
    """Per-column sorted class lists; code = position in the class list."""

    classes: dict[str, tuple[str, ...]]

    def code(self, column: str, value: str) -> tuple[float, bool]:
        """(code, known). Unseen values get the sentinel code k, one past
        the last fitted class."""
        classes = self.classes[column]
        i = bisect_left(classes, value)
        if i < len(classes) and classes[i] == value:
            return float(i), True
        return float(len(classes)), False

    def decode(self, column: str, code: int) -> str:
        classes = self.classes[column]
        if not 0 <= code < len(classes):
            raise ValueError(f"code {code} out of range for column {column!r}")
        return classes[int(code)]


@dataclass(frozen=True)
class ScalerParams:
    """Per-column mean and population (1/n) standard deviation."""

    means: dict[str, float]
    stds: dict[str, float]


@dataclass(frozen=True)
class Pipeline:
    encoder: EncoderMap
    scaler: ScalerParams | None
    log_budget: bool
    log_target: bool
    fitted_on_schema: tuple[ColumnSpec, ...]

    @property
    def feature_names(self) -> list[str]:
        return [c.name for c in self.fitted_on_schema if c.role == FEATURE]

    @property
    def target_name(self) -> str:
        return next(c.name for c in self.fitted_on_schema if c.role == TARGET)


def fit_encoders(table: DataTable) -> EncoderMap:
    """Class list per categorical column: sorted distinct values."""
    classes = {}
    for c in table.schema:
        if c.kind == CATEGORICAL:
            classes[c.name] = tuple(sorted(set(table.column(c.name))))
    return EncoderMap(classes)


def encode_table(
    table: DataTable, encoder: EncoderMap, names: list[str]
) -> tuple[np.ndarray, list[tuple[str, str]]]:
    """Float64 matrix with one column per listed name, in the order given;
    categorical cells become their class codes.

    Returns the matrix and a warning list of (column, unseen value)
    pairs; unseen categories are coded with the sentinel k rather than
    rejected so prediction on new movies works.
    """
    warnings: list[tuple[str, str]] = []
    kinds = {c.name: c.kind for c in table.schema}
    matrix = np.empty((table.row_count, len(names)), dtype=np.float64)
    for name, col in zip(names, matrix.T):
        if kinds[name] == NUMERIC:
            col[:] = table.column(name)
            continue
        for i, value in enumerate(table.column(name)):
            code, known = encoder.code(name, value)
            if not known:
                warnings.append((name, value))
            col[i] = code
    return matrix, warnings


def centred_rows(rows: np.ndarray):
    """(d, mean, ss, e) for a C-ordered (k, n) array of k rows of n values:
    row i is scaled by 2**-e[i], with e[i] the binary exponent of its
    largest magnitude, so every scaled value lies in (-1, 1); d holds the
    scaled rows centred on their scaled means ``mean``, and ss their sums
    of squares. Nothing here can overflow, and scaling by a power of two
    is exact, so a statistic scaled back with ``np.ldexp(stat, e)`` has
    the bits of the plain expression wherever that stays in range.

    Means and sums reduce along the contiguous axis, which sums each row
    pairwise exactly as ``np.mean``/``np.sum`` sum it as a 1-D array: a
    row's results do not depend on the other rows of the block."""
    e = np.frexp(np.max(np.abs(rows), axis=1))[1]
    d = np.ldexp(rows, -e[:, None])
    mean = np.add.reduce(d, axis=1) / rows.shape[1]
    d -= mean[:, None]
    return d, mean, np.add.reduce(d * d, axis=1), e


def log1p_transform(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if np.any(arr <= -1.0):
        raise DomainError("log1p requires every input > -1")
    return np.log1p(arr)


def expm1_inverse(values) -> np.ndarray:
    # past exp's range this gives inf, silently: callers check finiteness
    with np.errstate(over="ignore"):
        return np.expm1(np.asarray(values, dtype=np.float64))


def _encode_log(table: DataTable, encoder: EncoderMap, names: list[str], log_budget: bool):
    """Stages 1 and 2: (feature matrix, unseen-category warnings)."""
    matrix, warnings = encode_table(table, encoder, names)
    if log_budget and MONEY_FEATURE in names:
        j = names.index(MONEY_FEATURE)
        matrix[:, j] = log1p_transform(matrix[:, j])
    return matrix, warnings


def fit_pipeline(table: DataTable, scale: bool = True, log_money: bool = True) -> Pipeline:
    """Fit the full encode / log / scale pipeline on a cleaned table; the
    table is encoded and logged only for the scaler statistics: the mean
    and population standard deviation of each matrix column."""
    encoder = fit_encoders(table)
    scaler = None
    if scale:
        names = [c.name for c in table.schema if c.role == FEATURE]
        matrix, _ = _encode_log(table, encoder, names, log_money)
        _, mean, ss, e = centred_rows(np.ascontiguousarray(matrix.T))
        means = np.ldexp(mean, e).tolist()
        stds = np.ldexp(np.sqrt(ss / matrix.shape[0]), e).tolist()
        scaler = ScalerParams(dict(zip(names, means)), dict(zip(names, stds)))
    return Pipeline(
        encoder=encoder,
        scaler=scaler,
        log_budget=log_money,
        log_target=log_money,
        fitted_on_schema=table.schema,
    )


def _check_schema(pipeline: Pipeline, table: DataTable) -> bool:
    """Feature specs must match exactly; the target column may be absent
    (prediction tables have no revenue yet). Returns True when the target
    is present."""
    fitted_features = [c for c in pipeline.fitted_on_schema if c.role == FEATURE]
    got_features = [c for c in table.schema if c.role == FEATURE]
    if fitted_features != got_features:
        raise SchemaMismatch(
            "table feature columns do not match the schema the pipeline was fitted on"
        )
    fitted_target = [c for c in pipeline.fitted_on_schema if c.role == TARGET]
    got_target = [c for c in table.schema if c.role == TARGET]
    if got_target and got_target != fitted_target:
        raise SchemaMismatch("table target column does not match the fitted schema")
    return bool(got_target)


def transform_with_warnings(
    pipeline: Pipeline, table: DataTable
) -> tuple[np.ndarray, np.ndarray | None, list[tuple[str, str]]]:
    """Encode, log and scale a table through a fitted pipeline.

    Returns (feature matrix, target vector or None, unseen-category
    warnings). The matrix is dense row-major with feature columns in
    schema order.
    """
    has_target = _check_schema(pipeline, table)
    names = pipeline.feature_names
    matrix, warnings = _encode_log(table, pipeline.encoder, names, pipeline.log_budget)
    scaler = pipeline.scaler
    if scaler is not None:
        # zero-variance columns use divisor 1, so their cells become 0
        means = np.array([scaler.means[name] for name in names])
        stds = np.array([scaler.stds[name] for name in names])
        matrix -= means
        matrix /= np.where(stds > 0.0, stds, 1.0)
    target = None
    if has_target:
        target = table.column(pipeline.target_name)
        if pipeline.log_target:
            target = log1p_transform(target)
    return matrix, target, warnings


def transform(pipeline: Pipeline, table: DataTable) -> tuple[np.ndarray, np.ndarray]:
    """Matrix/target pair for a table that includes the target column."""
    matrix, target, _ = transform_with_warnings(pipeline, table)
    if target is None:
        raise SchemaMismatch("table has no target column; use transform_with_warnings")
    return matrix, target
