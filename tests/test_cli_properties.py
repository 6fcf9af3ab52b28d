"""Property test of the CSV reader and the commands that read CSVs.

A small synthetic CSV with one cell, or two cells of one column,
replaced by odd text (empty, a missing marker, non-finite or huge
numbers, a stray quote, a NUL byte) must be trained on, evaluated,
summarized and scored, or refused with a documented exit code:
``cli.main`` returns 0, 2, 3, 4 or 5 and never raises. A non-finite
number in a numeric cell is a data error (exit 3) for every command. A
command that exits 0 writes only finite numbers, also when cells hold
±1e308, save the F score +inf that ``analysis.f_regression_score``
gives a feature whose r**2 rounds to 1.

A ``predict`` request file for the golden artifact with one field
replaced by an odd JSON value, or with a leading byte-order mark, is
predicted (exit 0) or refused as a data error (exit 3), never raised.

An artifact (the golden one, or a small linear or forest one) with some
of its numbers set to legal but extreme values (leaf values, split
thresholds, ``init_value``, coefficients, intercept, scaler means and
standard deviations), and ``log_target`` either way, is predicted and
evaluated with a finite result (exit 0) or refused with exit 4 or 5 and
one line on stderr. No numpy warning is recorded on any path.
"""

import contextlib
import csv
import io
import json
import math
import pathlib
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movierev import models, persist, preprocess
from movierev.cli import main
from movierev.dataset import FEATURE, MOVIE_SCHEMA, NUMERIC, write_csv
from movierev.synthetic import synthetic_movies

ROWS = 30
CELLS = (
    "", "NA", "inf", "-Infinity", "1e400", "1e308", "-1e308", "-1", "0", "x", '"1,000"', '"',
    "a\x00",
)
PLACEHOLDER = "@cell@"
EXIT_CODES = (0, 2, 3, 4, 5)
NON_FINITE = ("inf", "-Infinity", "1e400")


def run_quietly(argv) -> int:
    """``main(argv)`` with its output dropped; no warning may be recorded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert [str(w.message) for w in caught] == [], argv
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with the clean CSV's rows and a gbm artifact trained on it."""
    path = tmp_path_factory.mktemp("csvprop")
    write_csv(synthetic_movies(ROWS, seed=4), path / "clean.csv")
    artifact = path / "gbm.mrp.json"
    assert run_quietly(
        ["train", "--data", str(path / "clean.csv"), "--model", "gbm", "--out", str(artifact)]
    ) == 0
    return path


def with_cells(clean_csv, rows_replaced, column: int, text: str) -> str:
    """The CSV text with the cells at (row, column), for each listed row,
    replaced by the raw ``text``; row 0 is the header."""
    with open(clean_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows_replaced:
        rows[row][column] = PLACEHOLDER
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue().replace(PLACEHOLDER, text)


def reject_constant(name):
    raise AssertionError(f"{name} in a JSON report")


def assert_finite_numbers(path):
    """Every number in the JSON file, or in a CSV cell past the first
    column (which holds names, such as a category ``inf``), is finite. An
    F score may be +inf: with a gross of 1e308, the indicator of that
    movie's own name has r within 1e-300 of 1."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_constant=reject_constant)
        return
    rows = list(csv.reader(io.StringIO(text)))
    scores = rows[0] == ["feature", "score", "selected"]
    for row in rows:
        for j, cell in enumerate(row[1:], start=1):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value) or (scores and j == 1 and value > 0), (path.name, row)


def test_one_odd_cell_exits_with_a_documented_code(workdir):
    data = workdir / "data.csv"
    out = workdir / "out"
    # each command with the files it writes on exit 0
    commands = [
        (
            ["train", "--data", str(data), "--model", kind, "--out", str(out / f"{kind}.mrp.json")],
            [out / f"{kind}.report.csv", out / f"{kind}.report.json"],
        )
        for kind in ("tree", "gbm", "linear")
    ] + [
        (["evaluate", "--artifact", str(workdir / "gbm.mrp.json"), "--data", str(data)], []),
        (
            ["summarize", "--data", str(data), "--out-dir", str(out)],
            [out / "summary_stats.csv", out / "country_counts.csv", out / "gross_histogram.csv"],
        ),
        (["select-features", "--data", str(data), "--out", str(out / "f.csv")], [out / "f.csv"]),
        (
            ["select-features", "--data", str(data), "--expand", "--out", str(out / "fx.csv")],
            [out / "fx.csv"],
        ),
    ]
    out.mkdir()

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        row=st.integers(0, ROWS),
        column=st.integers(0, len(MOVIE_SCHEMA) - 1),
        text=st.sampled_from(CELLS),
        second=st.none() | st.integers(1, ROWS),
    )
    def check(row, column, text, second):
        rows = [row] if second is None else [row, second]
        data.write_text(with_cells(workdir / "clean.csv", rows, column, text), encoding="utf-8")
        data_error = max(rows) > 0 and MOVIE_SCHEMA[column].kind == NUMERIC and text in NON_FINITE
        for argv, written in commands:
            code = run_quietly(argv)
            assert (code == 3) if data_error else (code in EXIT_CODES), argv
            if code == 0:
                for path in written:
                    assert_finite_numbers(path)

    check()


GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "docs" / "golden.mrp.json"
# JSON text for a request field; the last four are JSON strings
FIELD_VALUES = ("true", "[]", "{}", "null", '"1e400"', '"NaN"', '""', '"a\\u0000"')
# a categorical field takes any non-empty string, an unseen one included
CATEGORY_TEXT = ('"1e400"', '"NaN"', '"a\\u0000"')
REQUEST_FIELDS = [c.name for c in MOVIE_SCHEMA if c.role == FEATURE] + ["model"]


def test_odd_request_field_exits_zero_or_three(tmp_path):
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    classes = doc["pipeline"]["encoder"]["classes"]
    request = {name: values[0] for name, values in classes.items()}
    request |= {c.name: 1.0 for c in MOVIE_SCHEMA if c.role == FEATURE and c.kind == NUMERIC}
    request["model"] = doc["model_kind"]
    req_path = tmp_path / "req.json"

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        field=st.sampled_from(REQUEST_FIELDS),
        value=st.sampled_from(FIELD_VALUES + ("<BOM>",)),
    )
    def check(field, value):
        if value == "<BOM>":
            req_path.write_text(json.dumps(request), encoding="utf-8-sig")
            expected = 0
        else:
            text = json.dumps(request | {field: "@"}).replace('"@"', value)
            req_path.write_text(text, encoding="utf-8")
            categorical = field in classes and value in CATEGORY_TEXT
            expected = 0 if categorical else 3
        argv = ["predict", "--artifact", str(GOLDEN), "--input", str(req_path)]
        assert run_quietly(argv) == expected, (field, value)

    check()


# legal JSON numbers at the edges of the double range
EXTREMES = (1e308, -1e308, 1e300, -1e300, 1e6, -1e6, 5e-324, -0.0)


def value_slots(doc) -> dict[str, list[tuple[object, object]]]:
    """(container, key) of each number the value test may set, grouped
    by field: every leaf ``v``, split ``t``, and the model's and the
    scaler's floats."""
    slots = {"v": [], "t": []}
    payload = doc["model_payload"]
    stack = list(payload.get("trees", []))
    while stack:
        node = stack.pop()
        if "leaf" in node:
            slots["v"].append((node["leaf"], "v"))
        else:
            slots["t"].append((node["split"], "t"))
            stack += [node["split"]["l"], node["split"]["r"]]
    if "init_value" in payload:
        slots["init_value"] = [(payload, "init_value")]
    if "coefficients" in payload:
        slots["coefficients"] = [(payload["coefficients"], i)
                                 for i in range(len(payload["coefficients"]))]
        slots["intercept"] = [(payload, "intercept")]
    scaler = doc["pipeline"]["scaler"]
    for stat in ("means", "stds") if scaler else ():
        slots[stat] = [(scaler[stat], name) for name in sorted(scaler[stat])]
    return {group: found for group, found in slots.items() if found}


@pytest.fixture(scope="module")
def value_workdir(tmp_path_factory):
    """A directory with a small CSV, and the JSON documents of the golden
    artifact and of a linear and a forest artifact trained on it."""
    path = tmp_path_factory.mktemp("valueprop")
    table = synthetic_movies(ROWS, seed=6)
    write_csv(table, path / "data.csv")
    docs = {"gbm": json.loads(GOLDEN.read_text(encoding="utf-8"))}
    for kind in ("linear", "forest"):
        pipeline = preprocess.fit_pipeline(table, scale=kind == "linear")
        X, y = preprocess.transform(pipeline, table)
        model = models.fit_model(kind, X, y, {"n_estimators": 3, "max_depth": 3}, seed=2)
        artifact = persist.make_artifact(pipeline, kind, model, seed=2)
        docs[kind] = json.loads(persist.dumps_canonical(artifact))
    return path, docs


def printed_numbers_are_finite(out: str) -> bool:
    """Every number ``predict`` or ``evaluate`` printed is finite."""
    if out.startswith("predicted gross"):
        return math.isfinite(float(out.split(":")[1].replace(",", "")))
    row = out.splitlines()[1].split()
    return all(math.isfinite(float(v)) for v in row[2:7])


def test_extreme_artifact_values_exit_cleanly(value_workdir):
    path, docs = value_workdir
    artifact, request, data = path / "edited.mrp.json", path / "req.json", path / "data.csv"
    commands = [
        ["predict", "--artifact", str(artifact), "--input", str(request)],
        ["evaluate", "--artifact", str(artifact), "--data", str(data)],
        ["evaluate", "--artifact", str(artifact), "--data", str(data), "--raw-space-metrics"],
    ]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        kind = data.draw(st.sampled_from(sorted(docs)), label="kind")
        doc = json.loads(json.dumps(docs[kind]))
        for group, slots in value_slots(doc).items():
            how = data.draw(st.sampled_from(["keep", "all", "some"]), label=group)
            if how == "all":
                value = data.draw(st.sampled_from(EXTREMES), label=f"{group} value")
                for container, key in slots:
                    container[key] = value
            elif how == "some":
                chosen = data.draw(st.sets(st.sampled_from(range(len(slots))), min_size=1,
                                           max_size=3), label=f"{group} slots")
                for i in sorted(chosen):
                    container, key = slots[i]
                    container[key] = data.draw(st.sampled_from(EXTREMES), label=f"{group}[{i}]")
        doc["pipeline"]["log_target"] = data.draw(st.booleans(), label="log_target")
        artifact.write_text(json.dumps(doc), encoding="utf-8")
        classes = doc["pipeline"]["encoder"]["classes"]
        fields = {c.name: classes[c.name][0] if c.name in classes else 1.0
                  for c in MOVIE_SCHEMA if c.role == FEATURE}
        request.write_text(json.dumps(fields | {"model": kind}), encoding="utf-8")
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(argv)
            assert [str(w.message) for w in caught] == [], argv
            assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()
            assert code in (0, 4, 5), (argv, err.getvalue())
            if code == 0:
                assert printed_numbers_are_finite(out.getvalue()), (argv, out.getvalue())
            else:
                assert err.getvalue().count("\n") == 1 and out.getvalue() == "", argv

    check()
