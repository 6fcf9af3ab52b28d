"""What each import and each CLI command loads, every check in a fresh
interpreter: the package resolves its public names on first use, and a
command imports only the layers it runs."""

import json

import pytest

from movierev import cli
from movierev.dataset import write_csv
from tests.conftest import run_python

LAYERS = {"analysis", "metrics", "models", "persist", "preprocess", "tuning"}


def loaded_after(code: str) -> set:
    """The ``movierev`` submodules loaded once ``code`` has run in a fresh
    interpreter, by their short names, and ``numpy`` if it is loaded."""
    probe = code + (
        "\nimport sys, json"
        "\nprint(json.dumps(sorted(m.split('.', 1)[-1] for m in sys.modules"
        " if m.startswith('movierev.') or m == 'numpy')))"
    )
    done = run_python(["-c", probe], timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_package_import_loads_no_submodule_and_no_numpy():
    assert loaded_after("import movierev") == set()


def test_synthetic_loads_only_what_it_draws_with():
    assert loaded_after("import movierev.synthetic") == {
        "dataset", "errors", "rng", "synthetic", "numpy"
    }


def test_cli_import_loads_no_layer():
    assert loaded_after("import movierev.cli") == {"cli", "dataset", "errors", "rng", "numpy"}


def test_public_names_resolve_on_first_use():
    code = """
import importlib, movierev
assert len(set(movierev.__all__)) == 41 and movierev.__version__ == "0.1.0"
for name in movierev.__all__:
    if name != "__version__":
        module = importlib.import_module("movierev." + movierev._MODULE_OF[name])
        assert getattr(movierev, name) is getattr(module, name), name
assert set(movierev.__all__) <= set(dir(movierev))
try:
    movierev.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
namespace = {}
exec("from movierev import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == sorted(movierev.__all__)
from movierev import analysis, cli, fit_model, models
assert fit_model is models.fit_model and analysis.__name__ == "movierev.analysis"
"""
    assert loaded_after(code) >= {"models", "tuning", "persist", "analysis", "cli"}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, movies_table):
    """A movie CSV, a saved gbm artifact and a request for it."""
    root = tmp_path_factory.mktemp("imports")
    csv = root / "movies.csv"
    write_csv(movies_table, csv)
    artifact = root / "gbm.mrp.json"
    assert cli.main(["train", "--data", str(csv), "--model", "gbm", "--out", str(artifact)]) == 0
    request = {c.name: movies_table.column(c.name)[0] for c in movies_table.schema
               if c.role == "feature"}
    (root / "req.json").write_text(json.dumps(request | {"model": "gbm"}))
    return root


@pytest.mark.parametrize("command, absent", [
    (["summarize", "--data", "{d}/movies.csv", "--out-dir", "{d}/stats"],
     {"models", "persist", "tuning", "metrics"}),
    (["select-features", "--data", "{d}/movies.csv", "--out", "{d}/f.csv"],
     {"models", "persist", "tuning", "metrics"}),
    (["select-features", "--data", "{d}/movies.csv", "--out", "{d}/fx.csv", "--expand"],
     {"models", "persist", "tuning", "metrics"}),
    (["predict", "--artifact", "{d}/gbm.mrp.json", "--input", "{d}/req.json"],
     {"tuning", "analysis"}),
    (["evaluate", "--artifact", "{d}/gbm.mrp.json", "--data", "{d}/movies.csv"],
     {"tuning", "analysis"}),
    (["train", "--data", "{d}/movies.csv", "--model", "linear", "--out", "{d}/lin.mrp.json"],
     {"tuning", "analysis"}),
], ids=["summarize", "select-features", "select-features-expand", "predict", "evaluate",
        "train"])
def test_a_command_loads_only_the_layers_it_runs(workspace, command, absent):
    argv = [arg.replace("{d}", str(workspace)) for arg in command]
    loaded = loaded_after(
        f"from movierev import cli\nassert cli.main({argv!r}) == 0, 'command failed'"
    )
    assert loaded & LAYERS
    assert not loaded & absent, loaded & absent


@pytest.mark.parametrize("command", ["train", "predict", "summarize", "select-features",
                                     "evaluate"])
def test_every_subcommand_help_exits_zero(command):
    done = run_python(["-m", "movierev.cli", command, "--help"], timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"usage: movierev {command}")


def test_run_freezes_the_heap_for_interpreter_exit():
    """``cli.run`` leaves the exit's full collection no objects to walk."""
    done = run_python(["-c", (
        "import gc\nfrom movierev import cli\ncli.main = lambda: 7\n"
        "assert cli.run() == 7\nprint(gc.isenabled(), gc.get_freeze_count() > 0)"
    )], timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
