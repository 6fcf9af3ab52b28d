"""Movie table ingestion, cleaning and splitting.

The canonical table has 14 feature columns plus the ``gross`` revenue
target. CSV input follows RFC 4180 (UTF-8, mandatory header row); numeric
cells tolerate surrounding quotes and thousands-separator commas. Empty
cells and the markers ``NA`` / ``NaN`` (case-insensitive) count as missing
in both numeric and categorical columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplit, EmptyResult, MissingColumn, ParseError, UnreadableCsv
from .rng import Xoshiro256StarStar

NUMERIC = "numeric"
CATEGORICAL = "categorical"
FEATURE = "feature"
TARGET = "target"

_MISSING_MARKERS = {"", "na", "nan"}

DEFAULT_SEED = 42
DEFAULT_TEST_FRACTION = 0.2


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str  # numeric | categorical
    role: str  # feature | target

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"bad column kind {self.kind!r}")
        if self.role not in (FEATURE, TARGET):
            raise ValueError(f"bad column role {self.role!r}")


def _spec(name: str, kind: str, role: str = FEATURE) -> ColumnSpec:
    return ColumnSpec(name, kind, role)


# 14 features in canonical order, then the revenue target.
MOVIE_SCHEMA: tuple[ColumnSpec, ...] = (
    _spec("name", CATEGORICAL),
    _spec("rating", CATEGORICAL),
    _spec("genre", CATEGORICAL),
    _spec("year", NUMERIC),
    _spec("released", CATEGORICAL),
    _spec("score", NUMERIC),
    _spec("votes", NUMERIC),
    _spec("director", CATEGORICAL),
    _spec("writer", CATEGORICAL),
    _spec("star", CATEGORICAL),
    _spec("country", CATEGORICAL),
    _spec("budget", NUMERIC),
    _spec("company", CATEGORICAL),
    _spec("runtime", NUMERIC),
    _spec("gross", NUMERIC, TARGET),
)


def validate_schema(
    schema: tuple[ColumnSpec, ...] | list[ColumnSpec], require_target: bool = False
) -> tuple[ColumnSpec, ...]:
    """At most one target column, unique names. Feature-only schemas are
    legal (prediction requests have no revenue yet); pass
    ``require_target`` where a target is mandatory."""
    schema = tuple(schema)
    targets = [c for c in schema if c.role == TARGET]
    if len(targets) > 1 or (require_target and not targets):
        raise ValueError(
            f"schema needs {'exactly' if require_target else 'at most'} one target column,"
            f" found {len(targets)}"
        )
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise ValueError("duplicate column names in schema")
    return schema


@dataclass(frozen=True)
class DataTable:
    """Rectangular typed column store.

    Numeric columns are float64 arrays with NaN marking missing cells;
    categorical columns are tuples of str with None marking missing.
    Instances are immutable after construction.
    """

    schema: tuple[ColumnSpec, ...]
    columns: dict[str, np.ndarray | tuple]

    def __post_init__(self):
        object.__setattr__(self, "schema", validate_schema(self.schema))
        object.__setattr__(self, "columns", dict(self.columns))
        for c in self.schema:
            if c.name not in self.columns:
                raise ValueError(f"column {c.name!r} missing from data")
            col = self.columns[c.name]
            if c.kind == NUMERIC:
                arr = np.array(col, dtype=np.float64)
                arr.flags.writeable = False
                self.columns[c.name] = arr
            else:
                self.columns[c.name] = tuple(col)
        lengths = {len(self.columns[c.name]) for c in self.schema}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")

    @property
    def row_count(self) -> int:
        return len(self.columns[self.schema[0].name])

    def column(self, name: str):
        return self.columns[name]

    def take(self, indices) -> "DataTable":
        """New table with the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        cols = {}
        for c in self.schema:
            col = self.columns[c.name]
            if c.kind == NUMERIC:
                cols[c.name] = np.asarray(col)[idx]
            else:
                cols[c.name] = tuple(col[i] for i in idx)
        return DataTable(self.schema, cols)

    def missing_mask(self) -> np.ndarray:
        """Boolean array, True where the row has a missing cell in any
        schema column."""
        mask = np.zeros(self.row_count, dtype=bool)
        for c in self.schema:
            col = self.columns[c.name]
            if c.kind == NUMERIC:
                mask |= np.isnan(np.asarray(col))
            else:
                mask |= np.array([v is None for v in col], dtype=bool)
        return mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataTable):
            return NotImplemented
        if self.schema != other.schema:
            return False
        for c in self.schema:
            a, b = self.columns[c.name], other.columns[c.name]
            if c.kind == NUMERIC:
                if not np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True):
                    return False
            elif a != b:
                return False
        return True


@dataclass(frozen=True)
class SplitIndices:
    train: tuple[int, ...]
    test: tuple[int, ...]
    seed: int
    test_fraction: float


def parse_numeric_cell(cell: str) -> float:
    """Parse one numeric cell; NaN for missing markers.

    Strips whitespace, one layer of surrounding quotes, and
    thousands-separator commas. Raises ValueError when the remainder is
    not a finite decimal number (``inf``, ``1e400``).
    """
    s = cell.strip()
    if s.lower() in _MISSING_MARKERS:
        return math.nan
    if len(s) >= 2 and s[0] == s[-1] and s[0] in ("'", '"'):
        s = s[1:-1].strip()
    s = s.replace(",", "")
    if s.lower() in _MISSING_MARKERS:
        return math.nan
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


def _clean_categorical_cell(cell: str) -> str | None:
    s = cell.strip()
    if s.lower() in _MISSING_MARKERS:
        return None
    return s


def load_table(path, schema=MOVIE_SCHEMA) -> DataTable:
    """Read a CSV file into an (uncleaned) DataTable.

    Header names match schema names case-insensitively; extra columns in
    the file are ignored and columns come out in schema order.
    """
    schema = validate_schema(schema, require_target=True)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(schema[0].name) from None
        positions = {}
        lowered = [h.strip().lower() for h in header]
        for c in schema:
            try:
                positions[c.name] = lowered.index(c.name.lower())
            except ValueError:
                raise MissingColumn(c.name) from None
        raw_columns: dict[str, list] = {c.name: [] for c in schema}
        for row_idx, row in enumerate(reader):
            for c in schema:
                pos = positions[c.name]
                cell = row[pos] if pos < len(row) else ""
                if c.kind == NUMERIC:
                    try:
                        value = parse_numeric_cell(cell)
                    except ValueError:
                        raise ParseError(row_idx, c.name, cell) from None
                else:
                    value = _clean_categorical_cell(cell)
                raw_columns[c.name].append(value)
    return DataTable(schema, raw_columns)


def _csv_rows(fh, path):
    """The rows of ``csv.reader(fh)``; text that is not UTF-8, or that the
    reader cannot split, raises ``UnreadableCsv`` naming the line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise UnreadableCsv(f"line {reader.line_num} of {str(path)!r}: {exc}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            for line, data in enumerate(raw, start=1):
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise UnreadableCsv(f"line {line} of {str(path)!r} is not UTF-8 text") from None


def write_csv(table: DataTable, path) -> None:
    """Write a DataTable back out as RFC 4180 CSV (missing cells empty)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in table.schema])
        for i in range(table.row_count):
            row = []
            for c in table.schema:
                v = table.columns[c.name][i]
                if c.kind == NUMERIC:
                    row.append("" if math.isnan(v) else repr(float(v)))
                else:
                    row.append("" if v is None else v)
            writer.writerow(row)


def drop_incomplete_rows(table: DataTable) -> DataTable:
    """Keep only rows with no missing cell in any schema column.

    Surviving rows keep their original order; the input is untouched.
    """
    keep = np.flatnonzero(~table.missing_mask())
    if keep.size == 0:
        raise EmptyResult("no complete rows survive cleaning")
    if keep.size == table.row_count:
        return table
    return table.take(keep)


def train_test_split(
    table: DataTable,
    seed: int = DEFAULT_SEED,
    test_fraction: float = DEFAULT_TEST_FRACTION,
) -> SplitIndices:
    """Deterministic shuffled 80/20-style split.

    Row indices are shuffled by one Fisher-Yates pass of the seeded
    xoshiro256** stream; the first floor(test_fraction * n) shuffled
    indices become the test set and the rest the training set.
    """
    n = table.row_count
    if n < 2:
        raise DegenerateSplit(f"cannot split {n} rows")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n_test = math.floor(test_fraction * n)
    if n_test == 0 or n_test == n:
        raise DegenerateSplit(
            f"test_fraction {test_fraction} leaves an empty partition for n={n}"
        )
    order = list(range(n))
    Xoshiro256StarStar(seed).shuffle(order)
    return SplitIndices(
        train=tuple(order[n_test:]),
        test=tuple(order[:n_test]),
        seed=seed,
        test_fraction=test_fraction,
    )
