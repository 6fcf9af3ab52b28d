"""Command-line application.

Subcommands: ``train``, ``predict``, ``summarize``, ``select-features``,
``evaluate``. Every command is deterministic given its inputs, flags and
seed; repeated runs write byte-identical files.

Exit codes: 0 success, 2 usage, 3 data error, 4 model error,
5 artifact error.

The ``movierev`` command enters through :func:`run`, which turns the
cyclic garbage collector off: a command builds large acyclic structures
and exits. :func:`main` leaves the collector as its caller has it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING

import numpy as np

from .dataset import (
    DEFAULT_SEED,
    DEFAULT_TEST_FRACTION,
    FEATURE,
    NUMERIC,
    DataTable,
    drop_incomplete_rows,
    load_table,
    parse_numeric_cell,
    train_test_split,
)
from .errors import ArtifactError, DataError, InvalidField, ModelError, NonFiniteResult

# each command imports only the layers it runs, as modules it calls
# through (``persist.load``), so a patched module attribute takes effect;
# ``metrics`` is imported here for the annotations only
if TYPE_CHECKING:
    from . import metrics

# menu order and numbering for interactive prediction
MODEL_MENU = (
    ("linear", "Linear Regression"),
    ("tree", "Decision Tree"),
    ("bagging", "Bagging"),
    ("forest", "Random Forest"),
    ("xgb", "XGBoost"),
    ("gbm", "Gradient Boosting"),
)
CLI_KINDS = tuple(kind for kind, _ in MODEL_MENU)


def _report_base(out_path: str) -> str:
    from . import persist
    if out_path.endswith(persist.ARTIFACT_SUFFIX):
        return out_path[: -len(persist.ARTIFACT_SUFFIX)]
    if out_path.endswith(".json"):
        return out_path[: -len(".json")]
    return out_path


def _print_reports(model_id: str, reports: list[metrics.EvalReport]) -> None:
    print(f"{'model':<10} {'split':<6} {'r2':>10} {'mape%':>10} {'msle':>10} {'mse':>12} {'n':>6}  space")
    for rep in reports:
        print(
            f"{model_id:<10} {rep.split_label:<6} {rep.r2:>10.4f} "
            f"{rep.mape_percent:>10.2f} {rep.msle:>10.4f} {rep.mse:>12.4f} "
            f"{rep.n:>6}  {rep.target_space}"
        )


def _write_reports(base: str, model_id: str, reports: list[metrics.EvalReport]) -> None:
    from . import metrics
    _write_lines(
        base + ".report.csv",
        [metrics.EvalReport.CSV_HEADER] + [rep.csv_row(model_id) for rep in reports],
    )
    payload = {"model": model_id}
    for rep in reports:
        payload[rep.split_label] = asdict(rep)
    _write_lines(base + ".report.json", [json.dumps(payload, sort_keys=True, indent=2)])


def _space_pair(y_eval, pred_eval, table: DataTable, pipeline, raw_space: bool):
    """(actuals, predictions, space label) in the requested metric space."""
    from . import metrics, preprocess
    if raw_space and pipeline.log_target:
        y_raw = np.asarray(table.column(pipeline.target_name), dtype=np.float64)
        return y_raw, preprocess.expm1_inverse(pred_eval), metrics.RAW_SPACE
    space = metrics.LOG_SPACE if pipeline.log_target else metrics.RAW_SPACE
    return y_eval, pred_eval, space


def cmd_train(args) -> int:
    from . import metrics, models, persist, preprocess
    if args.track_r2 and args.model not in models.BOOSTING_KINDS:
        raise ValueError("staged R2 tracking needs a boosting model")
    table = load_table(args.data)
    clean = drop_incomplete_rows(table)
    split = train_test_split(clean, args.seed, args.test_fraction)
    train_t = clean.take(split.train)
    test_t = clean.take(split.test)

    # trees are scale-free, so standardize only for the linear family
    scale = args.model == "linear" and not args.no_scale
    pipeline = preprocess.fit_pipeline(
        train_t, scale=scale, log_money=not args.no_log_money
    )
    X_train, y_train = preprocess.transform(pipeline, train_t)
    X_test, y_test = preprocess.transform(pipeline, test_t)

    params: dict = {}
    cv = None
    if args.grid:
        from . import tuning
        if args.grid == "default":
            grid = tuning.ParamGrid(tuning.DEFAULT_GRID)
        else:
            grid = tuning.ParamGrid.from_json_file(args.grid)
        cv = tuning.grid_search(args.model, grid, X_train, y_train, seed=args.seed)
        params = cv.best_params
        print(f"grid search best {params} (mean cv r2 {cv.best_score:.4f})")

    model = models.fit_model(args.model, X_train, y_train, params, args.seed)
    curve = models.staged_train_r2(model, X_train, y_train) if args.track_r2 else None

    reports = []
    for label, t, X, y in (
        ("train", train_t, X_train, y_train),
        ("test", test_t, X_test, y_test),
    ):
        ys, preds, space = _space_pair(
            y, models.predict(model, X), t, pipeline, args.raw_space_metrics
        )
        reports.append(metrics.eval_report(ys, preds, label, space))

    _print_reports(args.model, reports)

    # the artifact first: a model that cannot be saved leaves no files
    persist.save(persist.make_artifact(pipeline, args.model, model, args.seed, params), args.out)
    base = _report_base(args.out)
    if cv is not None:
        _write_lines(base + ".cv.csv", cv.csv_lines())
    if curve is not None:
        _write_lines(args.track_r2, ["iteration,r2"] + [f"{i},{v!r}" for i, v in curve])
    _write_reports(base, args.model, reports)
    print(f"saved model artifact to {args.out}")
    return 0


def _read(reader, prompt: str, field: str) -> str:
    try:
        return reader(prompt)
    except EOFError:
        raise InvalidField(field, "input ended") from None


def _prompt(field: str, reader, numeric: bool):
    while True:
        raw = _read(reader, f"{field}: ", field)
        try:
            return _parse_request_value(field, raw, numeric)
        except InvalidField as exc:
            print(f"  {exc}", file=sys.stderr)


def _parse_request_value(field: str, raw, numeric: bool):
    if raw is None:
        raise InvalidField(field, "missing")
    if isinstance(raw, (bool, list, dict)):
        raise InvalidField(field, f"must be a number or a string, not {json.dumps(raw)}")
    if numeric:
        try:
            value = (
                float(raw) if isinstance(raw, (int, float)) else parse_numeric_cell(str(raw))
            )
        except (ValueError, OverflowError):
            raise InvalidField(field, f"cannot parse {raw!r} as a number") from None
        if not np.isfinite(value):
            raise InvalidField(field, "missing" if np.isnan(value) else "not a finite number")
        return value
    text = str(raw).strip()
    if not text:
        raise InvalidField(field, "missing")
    return text


def _request_from_file(path, feature_schema) -> tuple[dict, str]:
    # utf-8-sig: a leading byte-order mark is skipped, as in CSVs
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # a ValueError, which would otherwise exit as a usage error
            raise InvalidField("<request>", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidField("<request>", "request file must hold a JSON object")
    values = {}
    for c in feature_schema:
        if c.name not in doc:
            raise InvalidField(c.name, "missing")
        values[c.name] = _parse_request_value(c.name, doc[c.name], c.kind == NUMERIC)
    kind = doc.get("model")
    if kind not in CLI_KINDS:
        raise InvalidField("model", f"must be one of {', '.join(CLI_KINDS)}")
    return values, kind


def _request_interactive(feature_schema, artifact_kind, reader=None) -> tuple[dict, str]:
    reader = reader or input
    print("Enter the 14 movie parameters.")
    values = {
        c.name: _prompt(c.name, reader, c.kind == NUMERIC) for c in feature_schema
    }
    print("Choose a model:")
    for i, (_, label) in enumerate(MODEL_MENU, start=1):
        print(f"  {i}. {label}")
    while True:
        raw = _read(reader, "model [1-6]: ", "model").strip()
        if raw in {str(i) for i in range(1, len(MODEL_MENU) + 1)}:
            kind = MODEL_MENU[int(raw) - 1][0]
            if kind == artifact_kind:
                return values, kind
            print(
                f"  this artifact holds a {artifact_kind!r} model; pick it to continue",
                file=sys.stderr,
            )
        else:
            print("  enter a number from 1 to 6", file=sys.stderr)


def cmd_predict(args) -> int:
    from . import models, persist, preprocess
    artifact = persist.load(args.artifact)
    pipeline = artifact.pipeline
    feature_schema = tuple(c for c in pipeline.fitted_on_schema if c.role == FEATURE)

    if args.input:
        values, kind = _request_from_file(args.input, feature_schema)
        if kind != artifact.model_kind:
            raise InvalidField(
                "model", f"artifact holds {artifact.model_kind!r}, request asks for {kind!r}"
            )
    else:
        values, kind = _request_interactive(feature_schema, artifact.model_kind)

    table = DataTable(feature_schema, {name: [v] for name, v in values.items()})
    X, _, warnings = preprocess.transform_with_warnings(pipeline, table)
    for column, value in warnings:
        print(f"warning: unseen {column} value {value!r}", file=sys.stderr)

    pred = models.predict(artifact.model, X)
    gross = float((preprocess.expm1_inverse(pred) if pipeline.log_target else pred)[0])
    if not np.isfinite(gross):
        raise NonFiniteResult(f"predicted gross ({kind}) not finite")
    print(f"predicted gross ({kind}): {gross:,.2f}")
    return 0


def cmd_summarize(args) -> int:
    from . import analysis
    clean = drop_incomplete_rows(load_table(args.data))
    os.makedirs(args.out_dir, exist_ok=True)

    stats = analysis.summarize(clean)
    lines = ["column,mean,median,stddev,min,max,q1,q3"]
    for name, s in stats.columns.items():
        lines.append(
            ",".join(
                [name]
                + [repr(v) for v in (s.mean, s.median, s.stddev, s.min, s.max, s.q1, s.q3)]
            )
        )
    _write_lines(os.path.join(args.out_dir, "summary_stats.csv"), lines)

    counts = analysis.category_counts(clean, "country")
    _write_lines(
        os.path.join(args.out_dir, "country_counts.csv"),
        ["country,count"] + [f"{_csv_quote(c)},{n}" for c, n in counts],
    )

    gross = np.asarray(clean.column("gross"), dtype=np.float64)
    top = float(np.max(gross))
    edges = np.linspace(0.0, top if top > 0 else 1.0, 11)
    hist = analysis.gross_histogram(gross, edges)
    _write_lines(
        os.path.join(args.out_dir, "gross_histogram.csv"),
        ["bin_lo,bin_hi,count"]
        + [f"{repr(lo)},{repr(hi)},{n}" for (lo, hi), n in hist],
    )
    print(f"wrote summary_stats.csv, country_counts.csv, gross_histogram.csv to {args.out_dir}")
    return 0


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in ",\"\n\r"):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_select_features(args) -> int:
    from . import analysis, preprocess
    clean = drop_incomplete_rows(load_table(args.data))
    if args.expand:
        matrix, names = analysis.expand_categorical(clean)
        y = clean.column("gross")
    else:
        pipeline = preprocess.fit_pipeline(clean, scale=False, log_money=False)
        matrix, y = preprocess.transform(pipeline, clean)
        names = pipeline.feature_names
    k = args.k if args.k is not None else len(names)
    table = analysis.select_k_best(matrix, names, y, min(k, len(names)))

    def rows(t: analysis.FScoreTable) -> list[str]:
        out = ["feature,score,selected"]
        for i, (name, score) in enumerate(t.entries):
            out.append(f"{_csv_quote(name)},{repr(score)},{str(i < t.k_selected).lower()}")
        return out

    _write_lines(args.out, rows(table))
    print(f"wrote {len(table.entries)} feature scores to {args.out}")
    if args.min_score is not None:
        kept = analysis.threshold_scores(table, args.min_score)
        thresh_path = os.path.splitext(args.out)[0] + f"_over_{args.min_score:g}.csv"
        _write_lines(thresh_path, rows(kept))
        print(f"{len(kept.entries)} features score above {args.min_score:g} -> {thresh_path}")
        for name, score in kept.entries:
            print(f"  {name}: {score:.1f}")
    return 0


def cmd_evaluate(args) -> int:
    from . import metrics, models, persist, preprocess
    artifact = persist.load(args.artifact)
    clean = drop_incomplete_rows(load_table(args.data))
    X, y = preprocess.transform(artifact.pipeline, clean)
    pred = models.predict(artifact.model, X)
    ys, preds, space = _space_pair(
        y, pred, clean, artifact.pipeline, args.raw_space_metrics
    )
    rep = metrics.eval_report(ys, preds, "test", space)
    _print_reports(artifact.model_kind, [rep])
    if args.out:
        _write_reports(_report_base(args.out), artifact.model_kind, [rep])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="movierev", description="Movie revenue regression toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model and save an artifact")
    train.add_argument("--data", required=True, help="movie CSV path")
    train.add_argument("--model", required=True, choices=CLI_KINDS)
    train.add_argument("--out", required=True, help="artifact output path (.mrp.json)")
    train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    train.add_argument("--test-fraction", type=float, default=DEFAULT_TEST_FRACTION)
    train.add_argument(
        "--grid",
        help="hyperparameter grid JSON path, or 'default' for the built-in grid",
    )
    train.add_argument("--no-scale", action="store_true", help="skip standardization")
    train.add_argument(
        "--no-log-money", action="store_true", help="keep budget and gross in raw units"
    )
    train.add_argument("--track-r2", help="write the per-iteration training r2 curve CSV")
    train.add_argument(
        "--raw-space-metrics",
        action="store_true",
        help="report metrics on raw currency targets",
    )
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="predict revenue for one movie")
    predict.add_argument("--artifact", required=True)
    predict.add_argument("--input", help="JSON request file (omit for interactive mode)")
    predict.set_defaults(func=cmd_predict)

    summarize = sub.add_parser("summarize", help="write descriptive statistics CSVs")
    summarize.add_argument("--data", required=True)
    summarize.add_argument("--out-dir", required=True)
    summarize.set_defaults(func=cmd_summarize)

    select = sub.add_parser("select-features", help="univariate F scores per feature")
    select.add_argument("--data", required=True)
    select.add_argument("--k", type=int, default=None)
    select.add_argument("--min-score", type=float, default=None)
    select.add_argument(
        "--expand",
        action="store_true",
        help="score one indicator per (column, category) pair instead of encoded columns",
    )
    select.add_argument("--out", default="fscores.csv")
    select.set_defaults(func=cmd_select_features)

    evaluate = sub.add_parser("evaluate", help="score a CSV with a saved artifact")
    evaluate.add_argument("--artifact", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--raw-space-metrics", action="store_true")
    evaluate.add_argument("--out", help="also write report files with this base path")
    evaluate.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every non-finite result is refused by an explicit check, with
        # its exit code; numpy's floating-point warnings would only add
        # lines to stderr before that check's message
        with np.errstate(all="ignore"):
            return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Entry point of the ``movierev`` command: :func:`main`, with the
    cyclic garbage collector off for the rest of the process. Once it
    returns, every object is frozen, so the full collection at
    interpreter exit walks none of them."""
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
