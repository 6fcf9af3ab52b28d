import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from movierev.dataset import MOVIE_SCHEMA, DataTable, write_csv
from movierev.synthetic import synthetic_movies

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def movies_table() -> DataTable:
    """Small complete synthetic movie table shared across tests."""
    return synthetic_movies(240, seed=9)


@pytest.fixture(scope="session")
def movies_with_gaps() -> DataTable:
    return synthetic_movies(240, seed=9, missing_fraction=0.03)


@pytest.fixture()
def movies_csv(tmp_path, movies_table):
    path = tmp_path / "movies.csv"
    write_csv(movies_table, path)
    return path


def tiny_table(rows: dict, kinds: dict | None = None, target: str = "y") -> DataTable:
    """Build a DataTable from plain column lists for focused unit tests."""
    from movierev.dataset import CATEGORICAL, FEATURE, NUMERIC, TARGET, ColumnSpec

    kinds = kinds or {}
    schema = []
    for name in rows:
        kind = kinds.get(
            name,
            NUMERIC if all(isinstance(v, (int, float)) or v is None for v in rows[name]) else CATEGORICAL,
        )
        schema.append(ColumnSpec(name, kind, TARGET if name == target else FEATURE))
    cols = {
        name: [np.nan if v is None and schema[i].kind == NUMERIC else v for v in values]
        for i, (name, values) in enumerate(rows.items())
    }
    return DataTable(tuple(schema), cols)


def run_python(args, timeout: float, tmp_dir=None) -> subprocess.CompletedProcess:
    """``python *args`` in a child interpreter that imports this checkout's
    ``movierev``, killed after ``timeout`` seconds (``TimeoutExpired``).
    ``tmp_dir``, when given, is the child's temporary directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if tmp_dir is not None:
        env["TMPDIR"] = str(tmp_dir)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout,
    )
