import math

import numpy as np
import pytest

from movierev.dataset import (
    MOVIE_SCHEMA,
    CATEGORICAL,
    FEATURE,
    NUMERIC,
    TARGET,
    ColumnSpec,
    DataTable,
    drop_incomplete_rows,
    load_table,
    parse_numeric_cell,
    train_test_split,
    write_csv,
)
from movierev.errors import (
    DegenerateSplit,
    EmptyResult,
    MissingColumn,
    ParseError,
    UnreadableCsv,
)

SMALL_SCHEMA = (
    ColumnSpec("city", CATEGORICAL, FEATURE),
    ColumnSpec("votes", NUMERIC, FEATURE),
    ColumnSpec("gross", NUMERIC, TARGET),
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTable:
    def test_simple_ingestion(self, tmp_path):
        header = ",".join(c.name for c in MOVIE_SCHEMA)
        row = "M,PG,Action,2001,June 1 2001,7.1,1000,D,W,S,US,5000000,C,120,9000000"
        path = _write(tmp_path, header + "\n" + "\n".join([row] * 3) + "\n")
        table = load_table(path)
        assert table.row_count == 3
        assert [c.name for c in table.schema] == [c.name for c in MOVIE_SCHEMA]

    def test_columns_reordered_and_header_case_insensitive(self, tmp_path):
        path = _write(tmp_path, "GROSS,Votes,extra,CiTy\n10,2,zzz,austin\n")
        table = load_table(path, SMALL_SCHEMA)
        assert [c.name for c in table.schema] == ["city", "votes", "gross"]
        assert table.column("city") == ("austin",)
        assert table.column("votes")[0] == 2.0

    def test_thousands_separators_and_quotes(self, tmp_path):
        path = _write(tmp_path, 'city,votes,gross\na,"1,200","2,500,000"\n')
        table = load_table(path, SMALL_SCHEMA)
        # oracle: strip the commas by hand -> 1200 and 2500000
        assert table.column("votes")[0] == 1200.0
        assert table.column("gross")[0] == 2500000.0

    def test_missing_markers(self, tmp_path):
        path = _write(tmp_path, "city,votes,gross\n,NA,nan\nb,3,4\n")
        table = load_table(path, SMALL_SCHEMA)
        assert table.column("city")[0] is None
        assert math.isnan(table.column("votes")[0])
        assert math.isnan(table.column("gross")[0])
        assert table.column("city")[1] == "b"

    def test_missing_column_raises(self, tmp_path):
        path = _write(tmp_path, "city,votes\na,1\n")
        with pytest.raises(MissingColumn) as err:
            load_table(path, SMALL_SCHEMA)
        assert err.value.name == "gross"

    def test_unparseable_numeric_raises_with_location(self, tmp_path):
        path = _write(tmp_path, "city,votes,gross\na,1,2\nb,oops,3\n")
        with pytest.raises(ParseError) as err:
            load_table(path, SMALL_SCHEMA)
        assert err.value.row == 1
        assert err.value.column == "votes"

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e400", '"-1e999"'])
    def test_non_finite_numeric_raises_with_location(self, tmp_path, cell):
        path = _write(tmp_path, f"city,votes,gross\na,1,2\nb,{cell},3\n")
        with pytest.raises(ParseError) as err:
            load_table(path, SMALL_SCHEMA)
        assert (err.value.row, err.value.column) == (1, "votes")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        text = "city,votes,gross\na,1,2\n"
        plain = load_table(_write(tmp_path, text), SMALL_SCHEMA)
        assert load_table(_write(tmp_path, "\ufeff" + text, "bom.csv"), SMALL_SCHEMA) == plain

    def test_text_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("city,votes,gross\na,1,2\nb,1,2\nZürich,3,4\n".encode("latin-1"))
        with pytest.raises(UnreadableCsv, match="line 4 of .* is not UTF-8 text"):
            load_table(path, SMALL_SCHEMA)

    def test_field_over_the_csv_limit_names_its_line(self, tmp_path):
        path = _write(tmp_path, "city,votes,gross\na,1,2\n" + "b" * 131_073 + ",3,4\n")
        with pytest.raises(UnreadableCsv, match="line 3 of .*field larger than field limit"):
            load_table(path, SMALL_SCHEMA)

    def test_round_trip_through_write_csv(self, tmp_path, movies_table):
        path = tmp_path / "out.csv"
        write_csv(movies_table, path)
        assert load_table(path) == movies_table


@pytest.mark.parametrize(
    "cell,expected",
    [("3", 3.0), (" 42.5 ", 42.5), ('"1,200"', 1200.0), ("1e3", 1000.0), ("-7", -7.0)],
)
def test_parse_numeric_cell(cell, expected):
    assert parse_numeric_cell(cell) == expected


@pytest.mark.parametrize("cell", ["inf", "-Infinity", "+INF", "1e400", "-1e400", "-nan"])
def test_parse_numeric_cell_rejects_non_finite(cell):
    with pytest.raises(ValueError):
        parse_numeric_cell(cell)


def test_parse_numeric_cell_missing_markers():
    for cell in ["", "NA", "na", "NaN", "  nan "]:
        assert math.isnan(parse_numeric_cell(cell))


class TestDropIncompleteRows:
    def _table(self):
        return DataTable(
            SMALL_SCHEMA,
            {
                "city": ["a", "b", None, "d"],
                "votes": [1.0, np.nan, 3.0, 4.0],
                "gross": [10.0, 20.0, 30.0, 40.0],
            },
        )

    def test_filters_and_preserves_order(self):
        cleaned = drop_incomplete_rows(self._table())
        assert cleaned.row_count == 2
        assert cleaned.column("city") == ("a", "d")
        assert list(cleaned.column("gross")) == [10.0, 40.0]

    def test_input_unchanged(self):
        table = self._table()
        drop_incomplete_rows(table)
        assert table.row_count == 4

    def test_identity_on_complete_table(self, movies_table):
        assert drop_incomplete_rows(movies_table) == movies_table

    def test_idempotent(self, movies_with_gaps):
        once = drop_incomplete_rows(movies_with_gaps)
        assert drop_incomplete_rows(once) == once

    def test_empty_result(self):
        table = DataTable(
            SMALL_SCHEMA,
            {"city": [None], "votes": [1.0], "gross": [2.0]},
        )
        with pytest.raises(EmptyResult):
            drop_incomplete_rows(table)


class TestTrainTestSplit:
    def _table(self, n):
        return DataTable(
            SMALL_SCHEMA,
            {
                "city": ["x"] * n,
                "votes": list(range(n)),
                "gross": list(range(n)),
            },
        )

    def test_partition(self):
        split = train_test_split(self._table(10), seed=1, test_fraction=0.2)
        assert len(split.test) == 2
        assert len(split.train) == 8
        assert set(split.train) | set(split.test) == set(range(10))
        assert set(split.train) & set(split.test) == set()

    def test_deterministic(self):
        a = train_test_split(self._table(50), seed=7, test_fraction=0.3)
        b = train_test_split(self._table(50), seed=7, test_fraction=0.3)
        assert a == b
        c = train_test_split(self._table(50), seed=8, test_fraction=0.3)
        assert a != c

    def test_partition_property_many_seeds(self):
        for seed in range(20):
            n = 17 + seed
            split = train_test_split(self._table(n), seed=seed, test_fraction=0.25)
            assert len(split.test) == math.floor(0.25 * n)
            assert sorted(split.train + split.test) == list(range(n))

    def test_degenerate(self):
        with pytest.raises(DegenerateSplit):
            train_test_split(self._table(5), seed=1, test_fraction=0.1)
        with pytest.raises(DegenerateSplit):
            train_test_split(self._table(1), seed=1, test_fraction=0.5)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(self._table(10), seed=1, test_fraction=1.5)


def test_table_rejects_ragged_columns():
    with pytest.raises(ValueError):
        DataTable(SMALL_SCHEMA, {"city": ["a"], "votes": [1.0, 2.0], "gross": [1.0]})


def test_table_rejects_two_targets():
    schema = (
        ColumnSpec("a", NUMERIC, TARGET),
        ColumnSpec("b", NUMERIC, TARGET),
    )
    with pytest.raises(ValueError):
        DataTable(schema, {"a": [1.0], "b": [2.0]})


def test_numeric_columns_are_immutable(movies_table):
    col = movies_table.column("votes")
    with pytest.raises(ValueError):
        col[0] = 1.0
