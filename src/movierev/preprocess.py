"""Encode, log-transform and scale movie tables into model matrices.

A fitted :class:`Pipeline` applies three stages in a fixed order:

1. label-encode every categorical column (lexicographic class codes),
2. optionally log1p the ``budget`` feature and the ``gross`` target,
3. optionally standardize all feature columns with train-set statistics.

Everything fitted (class lists, means, standard deviations) comes from the
training rows only; transforming other tables never mutates the pipeline.
"""

from __future__ import annotations

import math
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


def encode_table(table: DataTable, encoder: EncoderMap) -> tuple[DataTable, list[tuple[str, str]]]:
    """Replace categorical cells by float codes.

    Returns the all-numeric table and a warning list of
    (column, unseen value) pairs; unseen categories are coded with the
    sentinel k rather than rejected so prediction on new movies works.
    """
    warnings: list[tuple[str, str]] = []
    columns = {}
    schema = []
    for c in table.schema:
        if c.kind == CATEGORICAL:
            codes = np.empty(table.row_count, dtype=np.float64)
            for i, value in enumerate(table.column(c.name)):
                code, known = encoder.code(c.name, value)
                if not known:
                    warnings.append((c.name, value))
                codes[i] = code
            columns[c.name] = codes
            schema.append(ColumnSpec(c.name, NUMERIC, c.role))
        else:
            columns[c.name] = np.asarray(table.column(c.name))
            schema.append(c)
    return DataTable(tuple(schema), columns), warnings


def fit_scaler(table: DataTable, feature_columns: list[str]) -> ScalerParams:
    """Mean and population standard deviation per listed column."""
    means = {}
    stds = {}
    for name in feature_columns:
        col = np.asarray(table.column(name), dtype=np.float64)
        m = float(np.mean(col))
        means[name] = m
        stds[name] = population_std(col, m)
    return ScalerParams(means, stds)


def population_std(col: np.ndarray, mean: float) -> float:
    """sqrt(mean((col - mean)**2)), the population (1/n) convention. When
    the squares overflow, the deviations are divided by their largest
    magnitude first and the root is scaled back."""
    d = col - mean
    std = float(np.sqrt(np.mean(d**2)))
    if not math.isfinite(std):
        top = float(np.max(np.abs(d)))
        std = top * float(np.sqrt(np.mean((d / top) ** 2)))
    return std


def apply_scaler(table: DataTable, params: ScalerParams) -> DataTable:
    """(x - mean) / std per fitted column; zero-variance columns use
    divisor 1, so their cells become 0."""
    columns = {}
    for c in table.schema:
        col = np.asarray(table.column(c.name), dtype=np.float64)
        if c.name in params.means:
            std = params.stds[c.name]
            columns[c.name] = (col - params.means[c.name]) / (std if std > 0.0 else 1.0)
        else:
            columns[c.name] = col
    return DataTable(table.schema, columns)


def log1p_transform(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if np.any(arr <= -1.0):
        raise DomainError("log1p requires every input > -1")
    return np.log1p(arr)


def expm1_inverse(values) -> np.ndarray:
    return np.expm1(np.asarray(values, dtype=np.float64))


def _encode_log(table: DataTable, encoder: EncoderMap, log_budget: bool):
    """Stages 1 and 2: (encoded table, unseen-category warnings)."""
    encoded, warnings = encode_table(table, encoder)
    if log_budget and ColumnSpec(MONEY_FEATURE, NUMERIC, FEATURE) in encoded.schema:
        columns = dict(encoded.columns)
        columns[MONEY_FEATURE] = log1p_transform(columns[MONEY_FEATURE])
        encoded = DataTable(encoded.schema, columns)
    return encoded, warnings


def fit_pipeline(table: DataTable, scale: bool = True, log_money: bool = True) -> Pipeline:
    """Fit the full encode / log / scale pipeline on a cleaned table; the
    table is encoded and logged only for the scaler statistics."""
    encoder = fit_encoders(table)
    scaler = None
    if scale:
        encoded, _ = _encode_log(table, encoder, log_money)
        scaler = fit_scaler(encoded, [c.name for c in table.schema if c.role == FEATURE])
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
    encoded, warnings = _encode_log(table, pipeline.encoder, pipeline.log_budget)
    if pipeline.scaler is not None:
        encoded = apply_scaler(encoded, pipeline.scaler)
    matrix = np.column_stack([encoded.column(name) for name in pipeline.feature_names])
    target = None
    if has_target:
        target = encoded.column(pipeline.target_name)
        if pipeline.log_target:
            target = log1p_transform(target)
    return matrix, target, warnings


def transform(pipeline: Pipeline, table: DataTable) -> tuple[np.ndarray, np.ndarray]:
    """Matrix/target pair for a table that includes the target column."""
    matrix, target, _ = transform_with_warnings(pipeline, table)
    if target is None:
        raise SchemaMismatch("table has no target column; use transform_with_warnings")
    return matrix, target
