"""Exception hierarchy.

Three base classes partition every failure by who is at fault: the input
data (``DataError``), the modelling step (``ModelError``), or a stored
artifact (``ArtifactError``). The CLI maps these to exit codes 3, 4 and 5.
"""

from __future__ import annotations


class MovieRevError(Exception):
    """Base class for all library errors."""


class DataError(MovieRevError):
    """Bad or inconsistent input data. CLI exit code 3."""


class ModelError(MovieRevError):
    """Failure while fitting or evaluating a model. CLI exit code 4."""


class ArtifactError(MovieRevError):
    """Unusable saved model artifact. CLI exit code 5."""


# dataset ------------------------------------------------------------------

class MissingColumn(DataError):
    def __init__(self, name: str):
        super().__init__(f"required column {name!r} is absent from the file")
        self.name = name


class ParseError(DataError):
    def __init__(self, row: int, column: str, cell: str = ""):
        super().__init__(
            f"cannot parse numeric cell {cell!r} (row {row}, column {column!r})"
        )
        self.row = row
        self.column = column


class UnreadableCsv(DataError):
    """A CSV file that is not UTF-8 text, or that the CSV reader cannot
    split, such as a field longer than its limit."""


class EmptyResult(DataError):
    """An operation produced a table with zero rows."""


class DegenerateSplit(DataError):
    """A requested partition would leave one side empty."""


class TooFewRows(DataError, ValueError):
    """Too few rows for a least-squares fit, an R-squared or an F score.
    Also a ValueError, so callers that catch ValueError still see it."""


# preprocess ---------------------------------------------------------------

class DomainError(DataError):
    """A value lies outside the mathematical domain of a transform."""


class SchemaMismatch(DataError):
    """A table does not match the schema a pipeline was fitted on."""


# analysis -----------------------------------------------------------------

class ZeroVariance(DataError):
    """A constant array where variation is required."""


class BadBins(DataError):
    """Histogram bin edges are not strictly ascending."""


# metrics ------------------------------------------------------------------

class ConstantTarget(ModelError):
    """R-squared is undefined when the actuals have zero variance."""


class AllExcluded(ModelError):
    """Every target was below the zero guard, so MAPE has no terms."""


# models / tuning ----------------------------------------------------------

class SingularAfterRidge(ModelError):
    """The normal equations stayed unsolvable after the ridge fallback."""


class DimensionMismatch(ModelError):
    def __init__(self, expected: int, got: int):
        if expected < 0:
            msg = f"a split references a feature index outside the {got}-column input"
        else:
            msg = f"model expects {expected} features, got {got}"
        super().__init__(msg)
        self.expected = expected
        self.got = got


class NonFiniteResult(ModelError):
    """A fitted solution, a prediction or an evaluation metric overflowed
    to infinity or became NaN; the targets or features are too large."""


class NonFiniteSplit(ModelError):
    """Split scores overflowed to infinity or became NaN, so the best
    split cannot be told; the targets are too large or not finite. Also
    raised before growth when a feature value is so large that a split
    midpoint would overflow."""


class BadK(ModelError):
    """Fold count outside 2 <= k <= n."""


# persist ------------------------------------------------------------------

class VersionMismatch(ArtifactError):
    """Artifact was written with an unsupported format version."""


class CorruptArtifact(ArtifactError):
    def __init__(self, field_path: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"corrupt artifact at {field_path!r}{detail}")
        self.field_path = field_path
        self.reason = reason


class SchemaHashMismatch(ArtifactError):
    """Stored schema hash disagrees with the embedded pipeline schema."""


# cli ----------------------------------------------------------------------

class InvalidField(DataError):
    def __init__(self, name: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"invalid field {name!r}{detail}")
        self.name = name
