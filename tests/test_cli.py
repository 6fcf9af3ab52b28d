import csv
import io
import json
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from movierev import analysis, cli, models, persist, preprocess
from movierev.cli import _request_interactive, main
from movierev.dataset import FEATURE, NUMERIC, ColumnSpec, DataTable, write_csv
from movierev.errors import InvalidField
from movierev.synthetic import synthetic_movies
from tests.conftest import run_python


def run(*argv):
    return main(list(argv))


def request_from_row(table, row, model="gbm"):
    req = {}
    for c in table.schema:
        if c.role != FEATURE:
            continue
        v = table.column(c.name)[row]
        req[c.name] = float(v) if c.kind == NUMERIC else v
    req["model"] = model
    return req


GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "docs" / "golden.mrp.json"


def golden_request():
    """A valid request for the golden artifact: each categorical feature
    takes its first known class, each numeric feature 1.0."""
    pipeline = json.loads(GOLDEN.read_text())["pipeline"]
    classes = pipeline["encoder"]["classes"]
    req = {
        c["name"]: classes[c["name"]][0] if c["kind"] == "categorical" else 1.0
        for c in pipeline["schema"]
        if c["role"] == "feature"
    }
    req["model"] = "gbm"
    return req


def edited_csv(tmp_path, table, **columns):
    """``table`` with some columns replaced, written as a CSV."""
    path = tmp_path / "edited.csv"
    write_csv(DataTable(table.schema, {**table.columns, **columns}), path)
    return path


@pytest.fixture()
def trained(tmp_path, movies_csv):
    out = tmp_path / "model.mrp.json"
    code = run(
        "train", "--data", str(movies_csv), "--model", "gbm", "--out", str(out),
        "--seed", "7",
    )
    assert code == 0
    return out


class TestTrain:
    def test_smoke_writes_artifact_and_reports(self, tmp_path, movies_csv, capsys):
        out = tmp_path / "m.mrp.json"
        code = run("train", "--data", str(movies_csv), "--model", "gbm", "--out", str(out))
        assert code == 0
        assert out.exists()
        assert (tmp_path / "m.report.csv").exists()
        assert (tmp_path / "m.report.json").exists()
        printed = capsys.readouterr().out
        assert "train" in printed and "test" in printed and "gbm" in printed
        lines = (tmp_path / "m.report.csv").read_text().strip().splitlines()
        assert lines[0].startswith("model,split,r2,mape_percent,msle,mse,n")
        assert len(lines) == 3

    def test_track_r2_curve(self, tmp_path, movies_csv):
        out = tmp_path / "m.mrp.json"
        curve = tmp_path / "curve.csv"
        code = run(
            "train", "--data", str(movies_csv), "--model", "xgb", "--out", str(out),
            "--track-r2", str(curve),
        )
        assert code == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "iteration,r2"
        assert lines[1] == "0,0.0"
        assert len(lines) == 2 + models.DEFAULT_N_ESTIMATORS
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_track_r2_rejected_for_linear(self, tmp_path, movies_csv):
        code = run(
            "train", "--data", str(movies_csv), "--model", "linear",
            "--out", str(tmp_path / "m.mrp.json"), "--track-r2", str(tmp_path / "c.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("kind", ["linear", "tree", "bagging", "forest"])
    def test_track_r2_for_a_non_boosting_kind_is_refused_first(
        self, tmp_path, movies_csv, monkeypatch, capsys, kind
    ):
        """Refused before the CSV is read: no fit, no file."""
        calls = []
        monkeypatch.setattr(cli, "load_table", lambda *a: calls.append("load"))
        monkeypatch.setattr(models, "fit_model", lambda *a: calls.append("fit"))
        out = tmp_path / "out"
        out.mkdir()
        code = run(
            "train", "--data", str(movies_csv), "--model", kind,
            "--out", str(out / "m.mrp.json"), "--track-r2", str(out / "c.csv"),
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "usage error: staged R2 tracking needs a boosting model"]
        assert calls == []
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(-(2**64))])
    def test_seed_outside_the_64_bit_range_exits_two(
        self, tmp_path, movies_csv, monkeypatch, capsys, seed
    ):
        """A seed outside [0, 2**64) would name the stream of a seed inside
        it; it is refused before any fit, and no file is written."""
        fits = []
        monkeypatch.setattr(models, "fit_model", lambda *a: fits.append(a))
        out = tmp_path / "out"
        out.mkdir()
        code = run(
            "train", "--data", str(movies_csv), "--model", "tree", "--seed", seed,
            "--out", str(out / "m.mrp.json"),
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: seed must be an integer in [0, 2**64), not {seed}"]
        assert fits == []
        assert list(out.iterdir()) == []

    def test_grid_writes_cv_table(self, tmp_path, movies_csv):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text('{"n_estimators": [5, 10], "max_depth": [2]}')
        out = tmp_path / "m.mrp.json"
        code = run(
            "train", "--data", str(movies_csv), "--model", "gbm", "--out", str(out),
            "--grid", str(grid_path),
        )
        assert code == 0
        cv_lines = (tmp_path / "m.cv.csv").read_text().strip().splitlines()
        assert len(cv_lines) == 3  # header + 2 combinations
        artifact = persist.load(out)
        assert artifact.training_meta["params"]["n_estimators"] in (5, 10)

    def test_deterministic_reruns_byte_identical(self, tmp_path, movies_csv):
        files = {}
        for run_dir in ("one", "two"):
            d = tmp_path / run_dir
            d.mkdir()
            out = d / "m.mrp.json"
            code = run(
                "train", "--data", str(movies_csv), "--model", "forest",
                "--out", str(out), "--seed", "3",
            )
            assert code == 0
            files[run_dir] = {
                p.name: p.read_bytes() for p in d.iterdir()
            }
        assert files["one"] == files["two"]

    def test_missing_data_file(self, tmp_path):
        code = run(
            "train", "--data", str(tmp_path / "nope.csv"), "--model", "gbm",
            "--out", str(tmp_path / "m.mrp.json"),
        )
        assert code == 3

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            run("train", "--data", "x.csv")  # --model and --out missing
        assert err.value.code == 2

    def test_no_log_money_reports_raw_space(self, tmp_path, movies_csv, capsys):
        out = tmp_path / "m.mrp.json"
        code = run(
            "train", "--data", str(movies_csv), "--model", "tree", "--out", str(out),
            "--no-log-money",
        )
        assert code == 0
        report = json.loads((tmp_path / "m.report.json").read_text())
        assert report["train"]["target_space"] == "raw"

    @pytest.mark.parametrize("model", ["tree", "linear"])
    def test_budget_at_or_below_minus_one_exit_three(self, tmp_path, movies_table, model, capsys):
        budget = np.where(np.arange(movies_table.row_count) % 3 == 0, -1.0, 5e6)
        data = edited_csv(tmp_path, movies_table, budget=budget)
        out = tmp_path / "m.mrp.json"
        assert run("train", "--data", str(data), "--model", model, "--out", str(out)) == 3
        assert "log1p requires every input > -1" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_split_scores_exit_four(self, tmp_path, movies_table, capsys):
        gross = 1e165 * (1.0 + np.arange(movies_table.row_count))
        data = edited_csv(tmp_path, movies_table, gross=gross)
        out = tmp_path / "m.mrp.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "train", "--data", str(data), "--model", "tree", "--no-log-money",
                "--out", str(out),
            )
        assert [str(w.message) for w in caught] == []
        assert code == 4
        assert "model error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["linear", "gbm", "forest"])
    def test_infinite_cell_exit_three(self, tmp_path, movies_table, model, capsys):
        budget = np.where(np.arange(movies_table.row_count) == 5, np.inf, 5e6)
        data = edited_csv(tmp_path, movies_table, budget=budget)
        out = tmp_path / "m.mrp.json"
        assert run("train", "--data", str(data), "--model", model, "--out", str(out)) == 3
        out_text, err = capsys.readouterr()
        assert "cannot parse numeric cell 'inf' (row 5, column 'budget')" in err
        assert out_text == "" and list(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize(
        "column, model, flags",
        [("budget", "tree", ["--no-log-money"]), ("budget", "gbm", ["--no-log-money"]),
         ("votes", "gbm", [])],
    )
    def test_huge_neighbouring_features_exit_four(self, tmp_path, column, model, flags):
        """Midpoints of 1e308 and 1.6e308 overflow; the tree run never
        ended, gbm ended in a traceback. ``votes`` is never logged."""
        table = synthetic_movies(300, seed=3)
        cells = np.where(np.arange(300) % 2 == 0, 1e308, 1.6e308)
        data = edited_csv(tmp_path, table, **{column: cells})
        out = tmp_path / "m.mrp.json"
        proc = run_python(
            ["-m", "movierev.cli", "train", "--data", str(data), "--model", model,
             "--out", str(out), *flags],
            timeout=30,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("model error:") and "rescale the features" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("model", ["linear", "tree", "bagging", "forest", "xgb", "gbm"])
    def test_overflowing_target_prints_one_line(self, tmp_path, model):
        """A gross of 1e308 in every row exits 4 for every kind; numpy
        printed two to four ``RuntimeWarning`` lines (from the target
        mean, the boosting sum, ``A.T @ y`` and the metric sums) before
        the "model error" line."""
        table = synthetic_movies(200, seed=3)
        data = edited_csv(tmp_path, table, gross=np.full(200, 1e308))
        out = tmp_path / "m.mrp.json"
        proc = run_python(
            ["-m", "movierev.cli", "train", "--data", str(data), "--model", model,
             "--no-log-money", "--out", str(out)],
            timeout=30,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("model error:")
        assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("grid", [False, True])
    def test_failed_save_leaves_no_files(self, tmp_path, grid, capsys):
        """A tree too deep to save exits 5, and writes no report, CV table
        or curve for the model that has no artifact."""
        table = synthetic_movies(1500, seed=9)
        gross = 2.0 ** (np.arange(1500) - 1000)  # each split peels off the top row
        data = edited_csv(tmp_path, table, gross=gross)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = ["train", "--data", str(data), "--model", "tree", "--no-log-money",
                "--out", str(out_dir / "deep.mrp.json")]
        if grid:
            grid_path = tmp_path / "grid.json"
            grid_path.write_text(json.dumps({"min_samples_leaf": [1]}))
            argv += ["--grid", str(grid_path)]
        assert run(*argv) == 5
        assert "nested too deep to save" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_raw_space_metrics_flag(self, tmp_path, movies_csv):
        out = tmp_path / "m.mrp.json"
        code = run(
            "train", "--data", str(movies_csv), "--model", "gbm", "--out", str(out),
            "--raw-space-metrics",
        )
        assert code == 0
        report = json.loads((tmp_path / "m.report.json").read_text())
        assert report["test"]["target_space"] == "raw"


    @pytest.mark.parametrize("target", ["one 1e308", "all near 1e200"])
    def test_non_finite_fit_or_metrics_exit_four(self, tmp_path, movies_table, target, capsys):
        """A 1e308 target overflows the normal equations; targets near 1e200
        fit, but their squared errors overflow. Both used to print NaN and
        inf reports, and a report file held NaN, which is not JSON."""
        gross = np.asarray(movies_table.column("gross"))
        if target == "one 1e308":
            gross = np.where(np.arange(movies_table.row_count) == 0, 1e308, gross)
        else:
            gross = gross * 1e200
        data = edited_csv(tmp_path, movies_table, gross=gross)
        out = tmp_path / "out" / "m.mrp.json"
        out.parent.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "train", "--data", str(data), "--model", "linear", "--no-log-money",
                "--out", str(out),
            )
        assert [str(w.message) for w in caught] == []
        assert code == 4
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("model error:") and "not finite" in err
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize(
        "grid", ["[1, 2]", '{"max_depth": 3}', '{"max_depth": ["a"]}', '{"n_estimators": [2.5]}']
    )
    def test_malformed_grid_file_exit_two(self, tmp_path, movies_csv, grid, capsys):
        """Each of these ended in a traceback (exit 1)."""
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(grid)
        out = tmp_path / "m.mrp.json"
        code = run(
            "train", "--data", str(movies_csv), "--model", "gbm", "--out", str(out),
            "--grid", str(grid_path),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()


@pytest.mark.parametrize("command, rows", [("train", 12), ("evaluate", 1), ("select-features", 2)])
def test_too_few_rows_exit_three(tmp_path, command, rows):
    """A least-squares fit on 12 rows, an r2 of one row and an F score of
    two rows raised a bare ValueError, reported as a usage error."""
    data = tmp_path / "rows.csv"
    write_csv(synthetic_movies(rows, seed=3), data)
    argv = {
        "train": ["--model", "linear", "--out", str(tmp_path / "m.mrp.json")],
        "evaluate": ["--artifact", str(GOLDEN)],
        "select-features": ["--out", str(tmp_path / "f.csv")],
    }[command]
    proc = run_python(["-m", "movierev.cli", command, "--data", str(data), *argv], timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("data error: "), proc.stderr


@pytest.mark.parametrize("argv, err", [
    (["predict", "--input", "{d}/req.json"], "predicted gross (gbm) not finite"),
    (["evaluate", "--data", "{d}/movies.csv"], "test msle not finite"),
    (["evaluate", "--data", "{d}/movies.csv", "--raw-space-metrics"],
     "test r2, mape_percent, msle, mse not finite"),
], ids=["predict", "evaluate", "evaluate-raw-space"])
def test_prediction_past_exp_range_exits_four(tmp_path, argv, err):
    """The golden artifact with every leaf and the initial value at 1e6, a
    legal artifact whose log-space predictions overflow ``expm1``.
    ``predict`` printed "inf" and exited 0; both commands printed numpy's
    overflow warning."""
    doc = json.loads(GOLDEN.read_text())
    payload = doc["model_payload"]
    payload["init_value"] = 1e6
    nodes = list(payload["trees"])
    while nodes:
        node = nodes.pop()
        if "leaf" in node:
            node["leaf"]["v"] = 1e6
        else:
            nodes += [node["split"]["l"], node["split"]["r"]]
    (tmp_path / "huge.mrp.json").write_text(json.dumps(doc))
    (tmp_path / "req.json").write_text(json.dumps(golden_request()))
    write_csv(synthetic_movies(60, seed=3), tmp_path / "movies.csv")
    argv = [a.format(d=tmp_path) for a in argv] + ["--artifact", str(tmp_path / "huge.mrp.json")]
    proc = run_python(["-m", "movierev.cli", *argv], timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", f"model error: {err}\n")


@pytest.mark.parametrize("argv", [
    ["predict", "--input", "{d}/req.json"],
    ["evaluate", "--data", "{d}/movies.csv"],
    ["evaluate", "--data", "{d}/movies.csv", "--raw-space-metrics"],
], ids=["predict", "evaluate", "evaluate-raw-space"])
def test_overflowing_raw_space_sum_prints_no_warning(tmp_path, argv):
    """The golden artifact in raw target space, with every leaf and the
    initial value at 1e308: the boosting sum overflows. Each command
    refused the result, but numpy printed "overflow encountered in add"
    before the model error."""
    doc = json.loads(GOLDEN.read_text())
    doc["pipeline"]["log_target"] = False
    payload = doc["model_payload"]
    payload["init_value"] = 1e308
    nodes = list(payload["trees"])
    while nodes:
        node = nodes.pop()
        if "leaf" in node:
            node["leaf"]["v"] = 1e308
        else:
            nodes += [node["split"]["l"], node["split"]["r"]]
    (tmp_path / "huge.mrp.json").write_text(json.dumps(doc))
    (tmp_path / "req.json").write_text(json.dumps(golden_request()))
    write_csv(synthetic_movies(60, seed=3), tmp_path / "movies.csv")
    argv = [a.format(d=tmp_path) for a in argv] + ["--artifact", str(tmp_path / "huge.mrp.json")]
    proc = run_python(["-m", "movierev.cli", *argv], timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("model error:") and "Warning" not in proc.stderr


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "case", ["train --data", "train --out", "train --grid", "predict --input",
                 "summarize --out-dir"],
    )
    def test_path_of_the_wrong_kind_exit_three(self, trained, tmp_path, movies_csv, case, capsys):
        """A directory where a file belongs, or a file where a directory
        belongs, ended in a traceback (exit 1)."""
        folder = tmp_path / "folder"
        folder.mkdir()
        data, model = str(movies_csv), ["--model", "gbm"]
        out = ["--out", str(tmp_path / "m.mrp.json")]
        argv = {
            "train --data": ["train", "--data", str(folder), *model, *out],
            "train --out": ["train", "--data", data, *model, "--out", str(folder)],
            "train --grid": ["train", "--data", data, *model, *out, "--grid", str(folder)],
            "predict --input": ["predict", "--artifact", str(trained), "--input", str(folder)],
            "summarize --out-dir": ["summarize", "--data", data, "--out-dir", str(trained)],
        }[case]
        assert run(*argv) == 3
        assert capsys.readouterr().err.startswith("error: [Errno")

    def test_out_of_memory_exit_four(self, tmp_path, movies_csv, monkeypatch, capsys):
        def exhausted(table):
            raise MemoryError

        monkeypatch.setattr(analysis, "summarize", exhausted)
        assert run("summarize", "--data", str(movies_csv), "--out-dir", str(tmp_path)) == 4
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("fault", ["latin-1", "long field"])
    def test_undecodable_csv_exit_three(self, tmp_path, movies_csv, fault, capsys):
        """A Latin-1 file exited 2 as a usage error; a field over the CSV
        reader's 131,072-character limit ended in a traceback."""
        lines = movies_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        data = tmp_path / "data.csv"
        if fault == "latin-1":
            lines[2] = "Amélie " + lines[2]
            data.write_bytes("".join(lines).encode("latin-1"))
        else:
            lines[2] = "x" * 131_073 + lines[2]
            data.write_text("".join(lines), encoding="utf-8")
        for command in ("train", "summarize"):
            argv = [command, "--data", str(data)]
            argv += ["--out-dir", str(tmp_path / "s")] if command == "summarize" else [
                "--model", "tree", "--out", str(tmp_path / "m.mrp.json")]
            assert run(*argv) == 3
            assert capsys.readouterr().err.startswith(f"data error: line 3 of {str(data)!r}")


class TestPredict:
    def test_file_mode_matches_library_prediction(self, trained, tmp_path, movies_table, capsys):
        artifact = persist.load(trained)
        req = request_from_row(movies_table, row=5, model="gbm")
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(req))
        code = run("predict", "--artifact", str(trained), "--input", str(req_path))
        assert code == 0
        printed = capsys.readouterr().out.strip()

        feature_schema = tuple(
            c for c in artifact.pipeline.fitted_on_schema if c.role == FEATURE
        )
        row_table = DataTable(
            feature_schema,
            {c.name: [req[c.name]] for c in feature_schema},
        )
        X, _, _ = preprocess.transform_with_warnings(artifact.pipeline, row_table)
        expected = float(np.expm1(models.predict(artifact.model, X)[0]))
        assert printed == f"predicted gross (gbm): {expected:,.2f}"

    def test_unseen_category_warns_but_predicts(self, trained, tmp_path, movies_table, capsys):
        req = request_from_row(movies_table, row=0, model="gbm")
        req["director"] = "Completely New Director"
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(req))
        code = run("predict", "--artifact", str(trained), "--input", str(req_path))
        captured = capsys.readouterr()
        assert code == 0
        assert "unseen director" in captured.err
        assert "predicted gross" in captured.out

    def test_missing_field_is_hard_error(self, trained, tmp_path, movies_table):
        req = request_from_row(movies_table, row=0)
        del req["budget"]
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(req))
        assert run("predict", "--artifact", str(trained), "--input", str(req_path)) == 3

    def test_wrong_model_in_request(self, trained, tmp_path, movies_table):
        req = request_from_row(movies_table, row=0, model="linear")
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(req))
        assert run("predict", "--artifact", str(trained), "--input", str(req_path)) == 3

    def test_bad_numeric_field(self, trained, tmp_path, movies_table):
        req = request_from_row(movies_table, row=0, model="gbm")
        req["budget"] = "lots of money"
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(req))
        assert run("predict", "--artifact", str(trained), "--input", str(req_path)) == 3

    @pytest.mark.parametrize(
        "literal", ["Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["Infinity", "-Infinity", "1e400", "int-1e400"],
    )
    def test_non_finite_numeric_field_exit_three(
        self, trained, tmp_path, movies_table, literal, capsys
    ):
        req_path = tmp_path / "req.json"
        req_path.write_text(
            json.dumps(request_from_row(movies_table, row=0) | {"budget": "@"}).replace(
                '"@"', literal
            )
        )
        assert run("predict", "--artifact", str(trained), "--input", str(req_path)) == 3
        out, err = capsys.readouterr()
        assert "invalid field 'budget'" in err
        assert "predicted" not in out

    def test_corrupt_artifact_exit_five(self, tmp_path):
        bad = tmp_path / "bad.mrp.json"
        bad.write_text("{not json")
        assert run("predict", "--artifact", str(bad), "--input", str(bad)) == 5

    def test_missing_artifact_exit_five(self, tmp_path, capsys):
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(golden_request()))
        code = run(
            "predict", "--artifact", str(tmp_path / "nope.mrp.json"), "--input", str(req_path)
        )
        assert code == 5
        assert "artifact error" in capsys.readouterr().err

    def test_malformed_request_json_exit_three(self, trained, tmp_path, capsys):
        req_path = tmp_path / "req.json"
        req_path.write_text('{"budget": 1e6,')
        assert run("predict", "--artifact", str(trained), "--input", str(req_path)) == 3
        assert "data error" in capsys.readouterr().err

    def test_request_with_byte_order_mark(self, tmp_path, capsys):
        """A request file starting with a byte-order mark exited 3."""
        printed = []
        for encoding in ("utf-8", "utf-8-sig"):
            req_path = tmp_path / f"{encoding}.json"
            req_path.write_text(json.dumps(golden_request()), encoding=encoding)
            assert run("predict", "--artifact", str(GOLDEN), "--input", str(req_path)) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0].startswith("predicted gross (gbm): ")

    @pytest.mark.parametrize("literal", ["true", "false", "[1]", "{}"])
    @pytest.mark.parametrize("field", ["budget", "genre"])
    def test_json_bool_list_or_object_field_exit_three(self, tmp_path, field, literal, capsys):
        """``"budget": true`` predicted as if the budget were 1.0."""
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(golden_request() | {field: "@"}).replace('"@"', literal))
        assert run("predict", "--artifact", str(GOLDEN), "--input", str(req_path)) == 3
        out, err = capsys.readouterr()
        assert err.startswith(f"data error: invalid field {field!r}: must be a number or a string")
        assert "predicted" not in out

    @pytest.mark.parametrize("answered", [0, 14], ids=["at a field", "at the menu"])
    def test_interactive_input_ends(self, answered):
        """End of input ended in an ``EOFError`` traceback."""
        feature_schema = tuple(
            c for c in persist.load(GOLDEN).pipeline.fitted_on_schema if c.role == FEATURE
        )
        req = golden_request()
        answers = iter([str(req[c.name]) for c in feature_schema][:answered])

        def reader(prompt):
            try:
                return next(answers)
            except StopIteration:
                raise EOFError from None

        with pytest.raises(InvalidField, match="input ended") as err:
            _request_interactive(feature_schema, "gbm", reader)
        assert err.value.name == (feature_schema[0].name if answered == 0 else "model")

    def test_interactive_at_end_of_input_exit_three(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert run("predict", "--artifact", str(GOLDEN)) == 3
        assert capsys.readouterr().err == "data error: invalid field 'name': input ended\n"

    @pytest.mark.parametrize(
        "field, value",
        [("f", -1), ("f", 14), ("t", float("nan")), ("t", float("inf"))],
    )
    def test_golden_with_bad_split_exit_five(self, tmp_path, field, value):
        """A split naming a column outside the 14 features, or a non-finite
        threshold, is a corrupt artifact, not a prediction."""
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(golden_request()))
        assert run("predict", "--artifact", str(GOLDEN), "--input", str(req_path)) == 0
        doc = json.loads(GOLDEN.read_text())
        doc["model_payload"]["trees"][0]["split"][field] = value
        bad = tmp_path / "bad.mrp.json"
        bad.write_text(json.dumps(doc))  # json.dumps writes NaN and Infinity as-is
        assert run("predict", "--artifact", str(bad), "--input", str(req_path)) == 5

    @pytest.mark.parametrize("field", ["leaf", "init_value"])
    def test_golden_number_beyond_double_range_exit_five(self, tmp_path, field, capsys):
        """``json`` reads ``1e400`` as infinity; it used to predict "inf"."""
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(golden_request()))
        doc = json.loads(GOLDEN.read_text())
        if field == "leaf":
            node, where = doc["model_payload"]["trees"][0], "model_payload.trees[0]"
            while "split" in node:
                node, where = node["split"]["l"], where + ".split.l"
            node["leaf"]["v"], where = "@", where + ".leaf.v"
        else:
            doc["model_payload"]["init_value"], where = "@", "model_payload.init_value"
        bad = tmp_path / "bad.mrp.json"
        bad.write_text(json.dumps(doc).replace('"@"', "1e400"))
        assert run("predict", "--artifact", str(bad), "--input", str(req_path)) == 5
        out, err = capsys.readouterr()
        assert f"corrupt artifact at '{where}': number beyond the double range" in err
        assert "predicted" not in out

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("edit", ["duplicate name", "no target"])
    def test_invalid_schema_exit_five(self, movies_table, movies_csv, tmp_path, edit, command,
                                      capsys):
        """A forest artifact whose schema gives two numeric features one
        name, or has no target, with ``schema_hash`` recomputed to match:
        it loaded, and ``predict`` exited 2 (duplicate names) or
        ``evaluate`` 3 (no target)."""
        pipeline = preprocess.fit_pipeline(movies_table, scale=False)
        X, y = preprocess.transform(pipeline, movies_table)
        forest = models.fit_random_forest(X, y, 3, models.TreeConfig(max_depth=3), seed=1)
        doc = json.loads(persist.dumps_canonical(persist.make_artifact(pipeline, "forest",
                                                                       forest, seed=1)))
        schema = doc["pipeline"]["schema"]
        if edit == "duplicate name":
            next(c for c in schema if c["name"] == "votes")["name"] = "budget"
        else:
            schema[:] = [c for c in schema if c["role"] != "target"]
        doc["training_meta"]["schema_hash"] = persist.schema_hash(
            [ColumnSpec(**c) for c in schema]
        )
        bad = tmp_path / "bad.mrp.json"
        bad.write_text(json.dumps(doc))
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(request_from_row(movies_table, row=0, model="forest")))
        if command == "predict":
            code = run("predict", "--artifact", str(bad), "--input", str(req_path))
        else:
            code = run("evaluate", "--artifact", str(bad), "--data", str(movies_csv))
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = ("duplicate column names in schema" if edit == "duplicate name"
                  else "schema needs exactly one target column, found 0")
        assert captured.err == f"artifact error: corrupt artifact at 'pipeline.schema': {reason}\n"

    @pytest.mark.parametrize("edit", ["reverse genre", "no trees", "kind forest"])
    def test_inconsistent_golden_exit_five(self, tmp_path, edit, capsys):
        """Each edit used to predict, with a wrong number or none at all."""
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(golden_request()))
        doc = json.loads(GOLDEN.read_text())
        if edit == "reverse genre":
            doc["pipeline"]["encoder"]["classes"]["genre"].reverse()
        elif edit == "no trees":
            doc["model_payload"]["trees"] = []
        else:
            doc["model_kind"] = "forest"
        bad = tmp_path / "bad.mrp.json"
        bad.write_text(json.dumps(doc))
        assert run("predict", "--artifact", str(bad), "--input", str(req_path)) == 5
        captured = capsys.readouterr()
        assert "predicted" not in captured.out
        assert "corrupt artifact" in captured.err

    def test_linear_short_of_a_coefficient_exit_five(self, tmp_path, movies_csv, movies_table):
        out = tmp_path / "linear.mrp.json"
        assert run("train", "--data", str(movies_csv), "--model", "linear", "--out", str(out)) == 0
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(request_from_row(movies_table, 0, model="linear")))
        assert run("predict", "--artifact", str(out), "--input", str(req_path)) == 0
        doc = json.loads(out.read_text())
        doc["model_payload"]["coefficients"].pop()
        out.write_text(json.dumps(doc))
        assert run("predict", "--artifact", str(out), "--input", str(req_path)) == 5

    def test_too_deep_artifact_exit_five(self, tmp_path, capsys):
        """The golden pipeline with a tree of 3 or 700 levels: the deep one
        nests past what the JSON reader allows, and must exit 5 rather
        than end in a traceback."""
        req = golden_request()
        req["model"] = "tree"
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(req))
        doc = json.loads(GOLDEN.read_text())
        doc["model_kind"] = "tree"
        doc["model_payload"] = {"tree": "@"}
        for depth, code in ((3, 0), (700, 5)):
            leaf = '{"leaf":{"n":1,"v":0.5}}'
            tree = '{"split":{"f":0,"t":0.5,"l":' + leaf + ',"r":'
            nested = tree * depth + leaf + "}}" * depth
            path = tmp_path / f"deep{depth}.mrp.json"
            path.write_text(json.dumps(doc).replace('"@"', nested))
            assert run("predict", "--artifact", str(path), "--input", str(req_path)) == code
        assert "artifact error" in capsys.readouterr().err

    def test_interactive_flow(self, trained, movies_table, monkeypatch, capsys):
        req = request_from_row(movies_table, row=3)
        answers = []
        for c in movies_table.schema:
            if c.role != FEATURE:
                continue
            if c.name == "score":
                answers.append("not-a-number")  # exercises the re-prompt
            answers.append(str(req[c.name]))
        answers.append("9")  # invalid menu entry
        answers.append("1")  # linear: wrong model for this artifact
        answers.append("6")  # gradient boosting
        feed = io.StringIO("\n".join(answers) + "\n")
        monkeypatch.setattr("sys.stdin", feed)
        code = run("predict", "--artifact", str(trained))
        captured = capsys.readouterr()
        assert code == 0
        assert "Gradient Boosting" in captured.out
        assert "predicted gross (gbm):" in captured.out
        assert "cannot parse" in captured.err
        assert "enter a number from 1 to 6" in captured.err
        assert "holds a 'gbm' model" in captured.err


class TestSummarize:
    def test_writes_three_files(self, tmp_path, movies_csv):
        out_dir = tmp_path / "stats"
        assert run("summarize", "--data", str(movies_csv), "--out-dir", str(out_dir)) == 0
        for name in ("summary_stats.csv", "country_counts.csv", "gross_histogram.csv"):
            assert (out_dir / name).exists()
        stats = (out_dir / "summary_stats.csv").read_text().splitlines()
        assert stats[0] == "column,mean,median,stddev,min,max,q1,q3"
        assert len(stats) == 7  # six numeric columns
        hist = (out_dir / "gross_histogram.csv").read_text().splitlines()
        counts = [int(line.split(",")[2]) for line in hist[1:]]
        assert sum(counts) == 240

    def test_byte_identical_reruns(self, tmp_path, movies_csv):
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            assert run("summarize", "--data", str(movies_csv), "--out-dir", str(d)) == 0
            dirs.append({p.name: p.read_bytes() for p in d.iterdir()})
        assert dirs[0] == dirs[1]


class TestSelectFeatures:
    def test_full_table_and_threshold(self, tmp_path, movies_csv, capsys):
        out = tmp_path / "scores.csv"
        code = run(
            "select-features", "--data", str(movies_csv), "--min-score", "100",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "feature,score,selected"
        assert len(lines) == 15  # header + 14 features
        thresholded = (tmp_path / "scores_over_100.csv").read_text().strip().splitlines()
        scores = [float(line.split(",")[-2]) for line in thresholded[1:]]
        assert all(s > 100.0 for s in scores)
        # budget dominates revenue in the synthetic generator too
        assert lines[1].split(",")[0] == "budget"

    def test_scores_sorted_descending(self, tmp_path, movies_csv):
        out = tmp_path / "scores.csv"
        assert run("select-features", "--data", str(movies_csv), "--out", str(out)) == 0
        scores = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize(
        "command", ["select-features", "select-features --expand", "summarize"]
    )
    def test_infinite_cell_exit_three(self, tmp_path, movies_table, command, capsys):
        """These used to write ``budget,inf`` and inf/nan statistics."""
        budget = np.where(np.arange(movies_table.row_count) == 5, np.inf, 5e6)
        data = edited_csv(tmp_path, movies_table, budget=budget)
        out = tmp_path / "out"
        argv = command.split() + ["--data", str(data)]
        argv += ["--out-dir", str(out)] if command == "summarize" else ["--out", str(out)]
        assert run(*argv) == 3
        assert "cannot parse numeric cell 'inf'" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_cell_keeps_scores_and_stats_finite(self, tmp_path, movies_table):
        """A votes cell of 1e308 overflows the squared deviations: votes
        used to rank first with F = inf, and its stddev was inf."""
        rows = np.arange(movies_table.row_count)
        votes = np.where(rows == 3, 1e308, movies_table.column("votes"))
        data = edited_csv(tmp_path, movies_table, votes=votes)
        with np.errstate(over="ignore"):
            for flags in ([], ["--expand"]):
                out = tmp_path / "scores.csv"
                assert run("select-features", "--data", str(data), "--out", str(out), *flags) == 0
                scores = dict(line.split(",")[:2] for line in out.read_text().splitlines()[1:])
                assert math.isfinite(float(scores["votes"])) and float(scores["votes"]) < 10
            assert run("summarize", "--data", str(data), "--out-dir", str(tmp_path / "s")) == 0
        stats = (tmp_path / "s" / "summary_stats.csv").read_text().splitlines()
        votes_row = next(line for line in stats if line.startswith("votes,"))
        assert all(math.isfinite(float(v)) for v in votes_row.split(",")[1:])

    def test_handled_overflow_prints_no_numpy_warning(self, tmp_path):
        """One votes cell of 1e308 overflows the squares that the standard
        deviation and the correlation start from; the fallbacks recover,
        but numpy printed its ``RuntimeWarning`` to stderr first."""
        table = synthetic_movies(60, seed=5)
        votes = np.where(np.arange(60) == 3, 1e308, table.column("votes"))
        data = edited_csv(tmp_path, table, votes=votes)
        commands = [
            ["summarize", "--data", str(data), "--out-dir", str(tmp_path / "s")],
            ["train", "--data", str(data), "--model", "linear",
             "--out", str(tmp_path / "m.mrp.json")],
            ["select-features", "--data", str(data), "--out", str(tmp_path / "f.csv")],
        ]
        for argv in commands:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(*argv) == 0, argv
            assert [str(w.message) for w in caught] == [], argv

    def test_two_huge_cells_keep_stats_and_scores_finite(self, tmp_path, capsys):
        """Two votes cells of 1e308 overflow the sum behind the mean:
        summarize wrote a votes mean of inf and a stddev of nan, and votes
        ranked first with F = inf."""
        table = synthetic_movies(60, seed=11)
        votes = np.where(np.isin(np.arange(60), [2, 3]), 1e308, table.column("votes"))
        data = edited_csv(tmp_path, table, votes=votes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("summarize", "--data", str(data), "--out-dir", str(tmp_path / "s")) == 0
            for flags in ([], ["--expand"]):
                out = tmp_path / "scores.csv"
                assert run("select-features", "--data", str(data), "--out", str(out), *flags) == 0
                scores = dict(line.split(",")[:2] for line in out.read_text().splitlines()[1:])
                assert float(scores["votes"]) == pytest.approx(0.9029530324903083, rel=1e-12)
            assert run("train", "--data", str(data), "--model", "linear",
                       "--out", str(tmp_path / "m.mrp.json")) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        stats = (tmp_path / "s" / "summary_stats.csv").read_text().splitlines()
        votes_row = next(line for line in stats if line.startswith("votes,"))
        values = [float(v) for v in votes_row.split(",")[1:]]
        assert all(math.isfinite(v) for v in values)
        assert values[0] == pytest.approx(1e308 / 30, rel=1e-15)  # mean
        assert values[2] == pytest.approx(1.7950549357115015e307, rel=1e-15)  # stddev

    def test_threshold_file_beside_a_dotted_directory(self, tmp_path, movies_csv, monkeypatch):
        """The threshold path was cut at the last dot, so --out
        results.v2/fscores wrote results_over_1.csv into the working
        directory."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results.v2").mkdir()
        argv = ["--data", str(movies_csv), "--out", "results.v2/fscores", "--min-score", "1"]
        assert run("select-features", *argv) == 0
        assert sorted(p.name for p in (tmp_path / "results.v2").iterdir()) == [
            "fscores", "fscores_over_1.csv"
        ]
        assert not (tmp_path / "results_over_1.csv").exists()

    def test_carriage_return_in_category_stays_in_its_cell(self, tmp_path, movies_table):
        """A country holding a carriage return split its row in two."""
        country = list(movies_table.column("country"))
        country[0] = country[1] = "Fr\rance"
        data = edited_csv(tmp_path, movies_table, country=country)
        assert run("summarize", "--data", str(data), "--out-dir", str(tmp_path / "s")) == 0
        scores = tmp_path / "fscores.csv"
        assert run("select-features", "--data", str(data), "--expand", "--out", str(scores)) == 0
        with open(tmp_path / "s" / "country_counts.csv", newline="", encoding="utf-8") as fh:
            counts = list(csv.reader(fh))
        assert ["Fr\rance", "2"] in counts
        assert all(len(row) == 2 for row in counts)
        with open(scores, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert "country=Fr\rance" in [row[0] for row in rows]
        assert all(len(row) == 3 for row in rows)

    def test_expanded_scoring_memory_is_bounded(self, tmp_path):
        """The expanded view of 1,800 rows has about 3,800 columns: as a
        dense float64 matrix, 55 MB. Scoring it a block of columns at a
        time keeps the traced peak of the whole command far below that."""
        data = tmp_path / "movies.csv"
        write_csv(synthetic_movies(1800, seed=3), data)
        argv = ["select-features", "--expand", "--data", str(data), "--out", str(tmp_path / "f.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_expanded_view(self, tmp_path, movies_csv):
        out = tmp_path / "expanded.csv"
        code = run(
            "select-features", "--data", str(movies_csv), "--expand", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 15  # one row per (column, category) plus numerics
        assert any("genre=" in line for line in lines)


class TestEvaluate:
    def test_forest_is_called_forest(self, tmp_path, movies_table, movies_csv, capsys):
        pipeline = preprocess.fit_pipeline(movies_table, scale=False)
        X, y = preprocess.transform(pipeline, movies_table)
        model = models.fit_random_forest(X, y, 3, models.TreeConfig(max_depth=3), 1)
        artifact = tmp_path / "forest.mrp.json"
        persist.save(persist.make_artifact(pipeline, "forest", model, seed=1), artifact)
        code = run(
            "evaluate", "--artifact", str(artifact), "--data", str(movies_csv),
            "--out", str(tmp_path / "eval"),
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].split()[0] == "forest"
        assert json.loads((tmp_path / "eval.report.json").read_text())["model"] == "forest"
        req_path = tmp_path / "req.json"
        req_path.write_text(json.dumps(request_from_row(movies_table, 0, model="forest")))
        assert run("predict", "--artifact", str(artifact), "--input", str(req_path)) == 0
        assert "predicted gross (forest):" in capsys.readouterr().out

    def test_evaluate_trained_artifact(self, trained, movies_csv, tmp_path, capsys):
        code = run(
            "evaluate", "--artifact", str(trained), "--data", str(movies_csv),
            "--out", str(tmp_path / "eval"),
        )
        assert code == 0
        assert "test" in capsys.readouterr().out
        assert (tmp_path / "eval.report.csv").exists()

    def test_raw_space_flag(self, trained, movies_csv, capsys):
        code = run(
            "evaluate", "--artifact", str(trained), "--data", str(movies_csv),
            "--raw-space-metrics",
        )
        assert code == 0
        assert "raw" in capsys.readouterr().out
