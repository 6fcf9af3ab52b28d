"""The benchmark's two workloads: their inputs, sessions and output checks.

A workload is a fixed session of CLI commands that the benchmark repeats.
Its inputs are generated from the workload seed with
``movierev.synthetic.synthetic_movies`` and written as CSV and request
JSON; the program only ever sees those files. Each command carries a
check that compares what the program printed and wrote with the
independent results of :mod:`oracle`.

Each workload is made of parts, and each part stresses one layer:

* ``tune-boost``: a CV grid search over boosting sizes, then an xgb fit
  with the R-squared curve. Time goes to ``tuning`` and split search over
  large shallow nodes; artifacts are small.
* ``fit-forest``: forest and bagging fits of 100 full-depth trees on a
  small table. Time goes to per-node growth on tiny nodes, artifact
  encode/write and per-node ``rng`` draws; ``tuning`` never runs.
* ``serve-forest``: one-movie ``predict`` requests and one ``evaluate``
  against a forest trained during set-up. Time goes to artifact read and
  decode and to tree traversal, with no fitting.
* ``analyze-expand``: ``summarize`` and ``select-features`` with and
  without ``--expand``. The only part that reaches ``analysis``; no
  model code runs.

The workloads pair them by side, so that each optimisation has one
workload that exercises it and one that bypasses it:

* ``train-models`` (tune-boost, fit-forest): fitting, tuning, ``rng`` and
  artifact writes. No artifact is read and ``analysis`` never runs.
* ``serve-analyze`` (serve-forest, analyze-expand): artifact reads,
  traversal and ``analysis``. Nothing is fitted or tuned.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from harness import sha256

# Sizes are chosen so one session takes a few seconds on a 2-core host:
# the benchmark repeats sessions within a run and reports medians.
@dataclass(frozen=True)
class Scale:
    tune_rows: int
    grid_estimators: tuple[int, ...]
    forest_rows: int
    serve_rows: int
    requests: int
    heldout_rows: int
    analyze_rows: int


SCALES = {
    "full": Scale(
        tune_rows=1800,
        grid_estimators=(10, 20, 40),
        forest_rows=180,
        serve_rows=300,
        requests=6,
        heldout_rows=3000,
        analyze_rows=1800,
    ),
    # the self-check's scale: every command and check, in seconds
    "toy": Scale(
        tune_rows=150,
        grid_estimators=(2, 4, 8),
        forest_rows=60,
        serve_rows=60,
        requests=3,
        heldout_rows=120,
        analyze_rows=150,
    ),
}

# offsets that give held-out tables and requests their own generator seeds
HELDOUT_SEED_OFFSET = 1_000_003
REQUEST_SEED_OFFSET = 2_000_003

R2_TOLERANCE = 1e-9


@dataclass
class Command:
    """One CLI invocation of a session."""

    kind: str  # tune | train | predict | evaluate | analyze
    args: list[str]
    outputs: list[str]  # files it writes, relative to the session directory
    check: Callable[[str], list[str]]  # stdout -> problems found


@dataclass
class Table:
    """A generated input table: its CSV path and its cells by column."""

    path: Path
    columns: dict
    numeric: list[str]
    categorical_features: list[str]

    @property
    def rows(self) -> int:
        return len(next(iter(self.columns.values())))


def write_table(n: int, seed: int, path: Path) -> Table:
    from movierev.synthetic import synthetic_movies

    table = synthetic_movies(n, seed=seed)
    names = [c.name for c in table.schema]
    columns = {c.name: list(table.column(c.name)) for c in table.schema}
    numeric = [c.name for c in table.schema if c.kind == "numeric"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n):
            writer.writerow(
                [repr(float(columns[k][i])) if k in numeric else columns[k][i] for k in names]
            )
    categorical = [c.name for c in table.schema if c.kind != "numeric" and c.role == "feature"]
    return Table(path, columns, numeric, categorical)


class ArtifactCache:
    """Artifacts read by the oracle, cached by digest: every session of a
    run writes the same bytes, so each artifact is parsed once."""

    def __init__(self):
        self._artifacts: dict[str, oracle.Artifact] = {}

    def artifact(self, path: Path) -> oracle.Artifact:
        digest = sha256(path)
        if digest not in self._artifacts:
            self._artifacts[digest] = oracle.Artifact.read(path)
        return self._artifacts[digest]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= R2_TOLERANCE * max(1.0, abs(b))


def check_train(cache: ArtifactCache, table: Table, out: Path, model: str) -> list[str]:
    """The saved artifact must reproduce the reported train and test R2
    on the rows of the default split."""
    problems = []
    try:
        art = cache.artifact(out / f"{model}.mrp.json")
        with open(out / f"{model}.report.json", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{model}: unreadable output: {exc}"]
    if art.kind != ("random_forest" if model == "forest" else model):
        problems.append(f"{model}: artifact kind {art.kind!r}")
    train_rows, test_rows = oracle.split_rows(table.rows)
    for label, rows in (("train", train_rows), ("test", test_rows)):
        cols = oracle.take(table.columns, rows)
        want = oracle.r2(art.target_vector(cols), art.predict(art.matrix(cols)))
        got = report.get(label, {}).get("r2")
        if not isinstance(got, float) or not _close(got, want):
            problems.append(f"{model}: {label} r2 {got!r}, oracle {want!r}")
    return problems


def check_curve(cache: ArtifactCache, table: Table, out: Path, base: str, curve: str) -> list[str]:
    """Every line of the R2 curve must match the oracle's staged R2."""
    art = cache.artifact(out / f"{base}.mrp.json")
    train_rows, _ = oracle.split_rows(table.rows)
    cols = oracle.take(table.columns, train_rows)
    y = art.target_vector(cols)
    want = [oracle.r2(y, pred) for pred in art.staged(art.matrix(cols))]
    with open(out / curve, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["iteration,r2"] or len(lines) != len(want) + 1:
        return [f"{curve}: {len(lines)} lines, expected header and {len(want)} rows"]
    for i, line in enumerate(lines[1:]):
        it, value = line.split(",")
        if int(it) != i or not _close(float(value), want[i]):
            return [f"{curve}: row {i} reads {line!r}, oracle r2 {want[i]!r}"]
    return []


def check_cv(out: Path, name: str, combos: int) -> list[str]:
    with open(out / name, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != combos + 1 or rows[0][-1] != "mean_r2":
        return [f"{name}: {len(rows)} rows, expected header and {combos} combinations"]
    fold_cols = [i for i, h in enumerate(rows[0]) if h.startswith("fold")]
    for row in rows[1:]:
        folds = [float(row[i]) for i in fold_cols]
        if not _close(float(row[-1]), float(np.mean(folds))):
            return [f"{name}: mean_r2 {row[-1]} is not the mean of its folds"]
    return []


_GROSS = re.compile(r"^predicted gross \((\w+)\): (\S+)$", re.M)


def check_predict(stdout: str, kind: str, expected: float) -> list[str]:
    m = _GROSS.search(stdout)
    want = f"{expected:,.2f}"
    if m is None or m.group(1) != kind or m.group(2) != want:
        return [f"predict printed {stdout.strip()!r}, oracle gross {want}"]
    return []


def check_evaluate(stdout: str, out: Path, base: str, kind: str, r2: float, n: int) -> list[str]:
    rows = [line.split() for line in stdout.splitlines()]
    got = [r for r in rows if r[:2] == [kind, "test"]]
    want = f"{r2:.4f}"
    if len(got) != 1 or got[0][2] != want or got[0][6] != str(n):
        return [f"evaluate printed {stdout.strip()!r}, oracle r2 {want} on {n} rows"]
    with open(out / f"{base}.report.json", encoding="utf-8") as fh:
        reported = json.load(fh)["test"]["r2"]
    if not _close(reported, r2):
        return [f"{base}.report.json: r2 {reported!r}, oracle {r2!r}"]
    return []


def check_summary(table: Table, out: Path) -> list[str]:
    problems = []
    with open(out / "summary_stats.csv", encoding="utf-8") as fh:
        stats = {row[0]: row[1:] for row in csv.reader(fh)}
    for name in table.numeric:
        col = np.asarray(table.columns[name], dtype=np.float64)
        row = stats.get(name)
        if row is None or not _close(float(row[0]), float(np.mean(col))) or float(
            row[3]
        ) != float(np.min(col)) or float(row[4]) != float(np.max(col)):
            problems.append(f"summary_stats.csv: row {name} is {row!r}")
    counts = sorted(Counter(table.columns["country"]).items(), key=lambda kv: (-kv[1], kv[0]))
    with open(out / "country_counts.csv", encoding="utf-8") as fh:
        got = [(r[0], int(r[1])) for r in list(csv.reader(fh))[1:]]
    if got != counts:
        problems.append(f"country_counts.csv: {got!r}, expected {counts!r}")
    with open(out / "gross_histogram.csv", encoding="utf-8") as fh:
        hist = list(csv.reader(fh))[1:]
    if len(hist) != 10 or sum(int(r[2]) for r in hist) != table.rows:
        problems.append("gross_histogram.csv: expected 10 bins covering every row")
    return problems


def check_fscores(out: Path, name: str, expected: dict | None, n_rows: int) -> list[str]:
    """Row count, descending order and, where given, the oracle's scores."""
    with open(out / name, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != n_rows:
        return [f"{name}: {len(rows)} feature rows, expected {n_rows}"]
    scores = [float(r[1]) for r in rows]
    if any(not a >= b for a, b in zip(scores, scores[1:])):
        return [f"{name}: scores are not in descending order"]
    for feature, score in zip((r[0] for r in rows), scores):
        if expected is not None and not _close(score, expected[feature]):
            return [f"{name}: {feature} scored {score!r}, oracle {expected[feature]!r}"]
    return []


def fscores(table: Table) -> dict:
    """Oracle F scores of the label-encoded feature columns."""
    y = np.asarray(table.columns["gross"], dtype=np.float64)
    out = {}
    for name, col in table.columns.items():
        if name == "gross":
            continue
        if name in table.categorical_features:
            position = {c: i for i, c in enumerate(sorted(set(col)))}
            x = np.array([float(position[v]) for v in col])
        else:
            x = np.asarray(col, dtype=np.float64)
        out[name] = oracle.f_score(x, y)
    return out


# --------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """Base: a named session over inputs made by :meth:`prepare`."""

    scale: Scale
    seed: int
    artifacts: ArtifactCache = field(default_factory=ArtifactCache)
    name = ""

    def prepare(self, setup_dir: Path, run_setup: Callable[[list[str]], None]) -> None:
        """Write the inputs into ``setup_dir``; ``run_setup`` runs any CLI
        command the set-up needs and raises when it fails."""
        raise NotImplementedError

    def session(self, out: Path) -> list[Command]:
        raise NotImplementedError

    def _train(self, table: Table, out: Path, model: str,
               extra=(), outputs=(), checks=()) -> Command:
        """A ``train`` command writing ``<model>.mrp.json`` and its reports,
        checked against the oracle, plus any ``checks`` of its own."""
        args = ["train", "--data", str(table.path), "--model", model,
                "--out", str(out / f"{model}.mrp.json"), *extra]

        def check(stdout):
            problems = check_train(self.artifacts, table, out, model)
            for extra_check in checks:
                problems += extra_check(stdout)
            return problems

        return Command(
            kind="tune" if "--grid" in extra else "train",
            args=args,
            outputs=[f"{model}.mrp.json", f"{model}.report.csv", f"{model}.report.json", *outputs],
            check=check,
        )


class TuneBoost(Workload):
    name = "tune-boost"

    def prepare(self, setup_dir, run_setup):
        self.table = write_table(self.scale.tune_rows, self.seed, setup_dir / "movies.csv")
        self.grid = setup_dir / "grid.json"
        grid = {"n_estimators": list(self.scale.grid_estimators),
                "max_depth": [3], "learning_rate": [0.1]}
        self.grid.write_text(json.dumps(grid) + "\n", encoding="utf-8")

    def session(self, out):
        combos = len(self.scale.grid_estimators)
        tune = self._train(
            self.table, out, "gbm", ["--grid", str(self.grid)], ["gbm.cv.csv"],
            [lambda stdout: [] if "grid search best" in stdout else ["no grid search result"],
             lambda stdout: check_cv(out, "gbm.cv.csv", combos)],
        )
        curve = "xgb.r2.csv"
        fit = self._train(
            self.table, out, "xgb", ["--track-r2", str(out / curve)], [curve],
            [lambda stdout: check_curve(self.artifacts, self.table, out, "xgb", curve)],
        )
        return [tune, fit]


class FitForest(Workload):
    name = "fit-forest"

    def prepare(self, setup_dir, run_setup):
        self.table = write_table(self.scale.forest_rows, self.seed, setup_dir / "movies.csv")

    def session(self, out):
        return [self._train(self.table, out, "forest"), self._train(self.table, out, "bagging")]


class ServeForest(Workload):
    name = "serve-forest"

    def prepare(self, setup_dir, run_setup):
        self.table = write_table(self.scale.serve_rows, self.seed, setup_dir / "movies.csv")
        self.artifact = setup_dir / "served.mrp.json"
        run_setup(["train", "--data", str(self.table.path), "--model", "forest",
                   "--out", str(self.artifact)])
        self.heldout = write_table(
            self.scale.heldout_rows, self.seed + HELDOUT_SEED_OFFSET, setup_dir / "heldout.csv"
        )
        movies = write_table(
            self.scale.requests, self.seed + REQUEST_SEED_OFFSET, setup_dir / "requests.csv"
        )
        self.requests = []
        for i in range(self.scale.requests):
            doc = {
                k: (float(col[i]) if k in movies.numeric else col[i])
                for k, col in movies.columns.items()
                if k != "gross"
            }
            doc["model"] = "forest"
            path = setup_dir / f"request{i}.json"
            path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
            self.requests.append((path, {k: [v] for k, v in doc.items()}))
        self.expected = None

    def session(self, out):
        if self.expected is None:  # oracle gross per request and held-out R2
            art = self.artifacts.artifact(self.artifact)
            self.expected = (
                [float(art.raw(art.predict(art.matrix(cols)))[0]) for _, cols in self.requests],
                oracle.r2(art.target_vector(self.heldout.columns),
                          art.predict(art.matrix(self.heldout.columns))),
            )
        grosses, r2 = self.expected
        commands = [
            Command(
                kind="predict",
                args=["predict", "--artifact", str(self.artifact), "--input", str(path)],
                outputs=[],
                check=lambda stdout, g=gross: check_predict(stdout, "forest", g),
            )
            for (path, _), gross in zip(self.requests, grosses)
        ]
        commands.append(
            Command(
                kind="evaluate",
                args=["evaluate", "--artifact", str(self.artifact),
                      "--data", str(self.heldout.path), "--out", str(out / "heldout")],
                outputs=["heldout.report.csv", "heldout.report.json"],
                check=lambda stdout: check_evaluate(
                    stdout, out, "heldout", "forest", r2, self.heldout.rows
                ),
            )
        )
        return commands


class AnalyzeExpand(Workload):
    name = "analyze-expand"

    def prepare(self, setup_dir, run_setup):
        self.table = write_table(self.scale.analyze_rows, self.seed, setup_dir / "movies.csv")
        self.scores = None

    def session(self, out):
        if self.scores is None:  # oracle work stays out of the timed set-up
            self.scores = fscores(self.table)
            self.expanded_cols = sum(
                len(set(self.table.columns[c])) for c in self.table.categorical_features
            ) + len(self.scores) - len(self.table.categorical_features)
        data = str(self.table.path)
        return [
            Command(
                kind="analyze",
                args=["summarize", "--data", data, "--out-dir", str(out / "summary")],
                outputs=["summary/summary_stats.csv", "summary/country_counts.csv",
                         "summary/gross_histogram.csv"],
                check=lambda stdout: check_summary(self.table, out / "summary"),
            ),
            Command(
                kind="analyze",
                args=["select-features", "--data", data, "--out", str(out / "fscores.csv")],
                outputs=["fscores.csv"],
                check=lambda stdout: check_fscores(
                    out, "fscores.csv", self.scores, len(self.scores)
                ),
            ),
            Command(
                kind="analyze",
                args=["select-features", "--expand", "--data", data,
                      "--out", str(out / "fscores_expanded.csv")],
                outputs=["fscores_expanded.csv"],
                check=lambda stdout: check_fscores(
                    out, "fscores_expanded.csv", None, self.expanded_cols
                ),
            ),
        ]


@dataclass
class Combined(Workload):
    """A session made of the sessions of its parts, in order. Each part
    prepares its inputs in its own directory; all write their outputs to
    the one session directory, under names that do not collide."""

    part_types = ()

    def __post_init__(self):
        self.parts = [t(self.scale, self.seed, self.artifacts) for t in self.part_types]

    def prepare(self, setup_dir, run_setup):
        for part in self.parts:
            d = setup_dir / part.name
            d.mkdir()
            part.prepare(d, run_setup)

    def session(self, out):
        return [cmd for part in self.parts for cmd in part.session(out)]


class TrainModels(Combined):
    name = "train-models"
    part_types = (TuneBoost, FitForest)


class ServeAnalyze(Combined):
    name = "serve-analyze"
    part_types = (ServeForest, AnalyzeExpand)


WORKLOADS = {w.name: w for w in (TrainModels, ServeAnalyze)}
