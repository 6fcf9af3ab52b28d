"""SHA-256 digests of what the CLI writes on two fixed synthetic tables.

For each of the 200-row ``synthetic_movies`` tables on seeds 101 and 7,
the commands below run in-process through ``movierev.cli.main``: ``train``
for every kind, linear with ``--no-scale --no-log-money``, gbm and xgb
with a grid file, bagging and forest with a grid over their tree
options, tree with a grid over ``max_features`` and ``min_samples_leaf``
(a lone tree drawing its own feature subsets), xgb with ``--track-r2``, forest on the largest seed
``--seed 18446744073709551615`` (2**64 - 1); ``evaluate --out`` and
``predict`` on each artifact; ``summarize``; and two ``select-features``
runs. One more table, 1,000 rows on seed 101 (key prefix ``101x1000``),
gets ``select-features --expand`` alone: its view of about 2,200
indicator columns spans many of the F scorer's column blocks, where a
200-row table fits in one. Every file they write, the CSV tables among
them, and the stdout, stderr and exit code of each command, is hashed,
with the working directory replaced by ``<dir>``.

``TABLES`` pins the generator itself: the ``write_csv`` bytes of tables
no command reads (key ``table/<rows>x<seed>@<missing_fraction>``), at the
benchmark's sizes, the test fixture's, with half the cells blanked and on
the two ends of the seed range, 0 and 2**64 - 1.

``tests/test_output_digests.py`` compares the digests with the committed
manifest ``tests/data/output_digests.json``, and runs three of the
commands again as ``python -m movierev.cli`` processes against the same
entries. The manifest pins numpy 2.4.6 on x86-64: BLAS (``A.T @ A`` in
``fit_ols``) and ``np.quantile`` may give other bits elsewhere.
Regenerate it only in a change that moves output bytes on purpose, and
list every moved digest in CHANGES.md:

    PYTHONPATH=src python tests/output_digests.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from movierev.cli import main
from movierev.dataset import FEATURE, write_csv
from movierev.synthetic import synthetic_movies

MANIFEST = pathlib.Path(__file__).resolve().parent / "data" / "output_digests.json"
SEEDS = (101, 7)
ROWS = 200
# (seed, rows) of the table that only ``select-features --expand`` reads
BLOCKS_TABLE = (101, 1000)
BLOCKS_COMMAND = "select-features-expand"
# (rows, seed, missing_fraction) of the tables hashed as CSV alone: the
# benchmark's tables for workload seed 1 (1,800 tuning and analysis rows,
# 180 forest rows, 300 serving rows, 3,000 held-out rows and 6 requests,
# the last two on the seed offsets it adds), the gapped test fixture and
# one table with half its cells blanked, and two on the ends of the seed
# range
TABLES = (
    (1800, 1, 0.0),
    (180, 1, 0.0),
    (300, 1, 0.0),
    (3000, 1_000_004, 0.0),
    (6, 2_000_004, 0.0),
    (240, 9, 0.03),
    (200, 101, 0.5),
    (60, 0, 0.0),
    (60, 2**64 - 1, 0.0),
)
KINDS = ("linear", "tree", "bagging", "forest", "gbm", "xgb")
GRID = {"n_estimators": [5, 10], "max_depth": [2, 3]}
# the tree options a bagging or forest fit grows its trees under
ENSEMBLE_GRID = {
    "n_estimators": [10],
    "min_samples_leaf": [1, 3],
    "min_samples_split": [2, 12],
    "max_features": [None, 3],
}
# a lone tree on feature subsets: ``fit_cart`` draws them from its own stream
TREE_GRID = {"max_features": [3, 5], "min_samples_leaf": [1, 3]}


def commands(d: pathlib.Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command run on the table in ``d``, in order."""
    data = str(d / "movies.csv")
    trains = [(kind, ["--model", kind]) for kind in KINDS] + [
        ("linear-raw", ["--model", "linear", "--no-scale", "--no-log-money"]),
        ("gbm-grid", ["--model", "gbm", "--grid", str(d / "grid.json")]),
        ("xgb-grid", ["--model", "xgb", "--grid", str(d / "grid.json")]),
        ("bagging-grid", ["--model", "bagging", "--grid", str(d / "ensemble-grid.json")]),
        ("forest-grid", ["--model", "forest", "--grid", str(d / "ensemble-grid.json")]),
        ("tree-grid", ["--model", "tree", "--grid", str(d / "tree-grid.json")]),
        ("xgb-r2", ["--model", "xgb", "--track-r2", str(d / "xgb-r2.curve.csv")]),
        ("forest-seed-max", ["--model", "forest", "--seed", str(2**64 - 1)]),
    ]
    out = []
    for name, args in trains:
        out.append((f"train-{name}", ["train", "--data", data, *args,
                                      "--out", str(d / f"{name}.mrp.json")]))
    for name, args in trains:
        artifact = str(d / f"{name}.mrp.json")
        out.append((f"evaluate-{name}", ["evaluate", "--artifact", artifact, "--data", data,
                                         "--out", str(d / f"{name}.eval")]))
        out.append((f"predict-{name}", ["predict", "--artifact", artifact,
                                        "--input", str(d / f"{args[1]}.request.json")]))
    out.append(("summarize", ["summarize", "--data", data, "--out-dir", str(d / "summary")]))
    out.append(("select-features", ["select-features", "--data", data, "--min-score", "1",
                                    "--out", str(d / "fscores.csv")]))
    out.append(("select-features-expand", ["select-features", "--data", data, "--expand",
                                           "--k", "5", "--out", str(d / "fscores-expand.csv")]))
    return out


def _digest(data: bytes, d: pathlib.Path) -> str:
    return hashlib.sha256(data.replace(str(d).encode(), b"<dir>")).hexdigest()


def in_process(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``main(argv)`` run in this interpreter."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _run_and_hash(out, key, d, commands, names, run) -> None:
    """Run the picked ``commands`` on the table in ``d``, then hash their
    streams and every file under ``d`` into ``out``, keyed under ``key``."""
    for name, argv in commands:
        if names is not None and name not in names:
            continue
        code, stdout, stderr = run(argv)
        out[f"{key}/{name}/stdout"] = _digest(stdout.encode(), d)
        out[f"{key}/{name}/stderr"] = _digest(stderr.encode(), d)
        out[f"{key}/{name}/exit"] = str(code)
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        out[f"{key}/{path.relative_to(d).as_posix()}"] = _digest(path.read_bytes(), d)


def digests(workdir: pathlib.Path, seeds=SEEDS, names=None, run=in_process) -> dict[str, str]:
    """Every digest, keyed ``<seed>/<command>/<stream>`` and ``<seed>/<file>``.
    ``names``, when given, picks the commands to run; ``run`` runs one."""
    out = {}
    for seed in seeds:
        d = pathlib.Path(workdir) / str(seed)
        d.mkdir(parents=True)
        table = synthetic_movies(ROWS, seed=seed)
        write_csv(table, d / "movies.csv")
        (d / "grid.json").write_text(json.dumps(GRID))
        (d / "ensemble-grid.json").write_text(json.dumps(ENSEMBLE_GRID))
        (d / "tree-grid.json").write_text(json.dumps(TREE_GRID))
        # the first movie, asked of each kind's artifact
        request = {c.name: table.column(c.name)[0] for c in table.schema if c.role == FEATURE}
        for kind in KINDS:
            (d / f"{kind}.request.json").write_text(json.dumps(request | {"model": kind}))
        _run_and_hash(out, str(seed), d, commands(d), names, run)
    if names is None or BLOCKS_COMMAND in names:
        seed, rows = BLOCKS_TABLE
        key = f"{seed}x{rows}"
        d = pathlib.Path(workdir) / key
        d.mkdir(parents=True)
        write_csv(synthetic_movies(rows, seed=seed), d / "movies.csv")
        argv = ["select-features", "--data", str(d / "movies.csv"), "--expand",
                "--out", str(d / "fscores-expand.csv")]
        _run_and_hash(out, key, d, [(BLOCKS_COMMAND, argv)], names, run)
    if names is None:
        d = pathlib.Path(workdir) / "tables"
        d.mkdir(parents=True)
        for rows, seed, missing in TABLES:
            path = d / f"{rows}x{seed}@{missing}.csv"
            write_csv(synthetic_movies(rows, seed=seed, missing_fraction=missing), path)
            out[f"table/{path.stem}"] = _digest(path.read_bytes(), d)
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = digests(pathlib.Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} digests to {MANIFEST}", file=sys.stderr)
