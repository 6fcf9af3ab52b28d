"""Property test of the artifact reader.

An artifact with one field deleted or replaced by a value of another type
must either predict or be refused as an artifact error: ``predict`` ends
with exit code 0 or 5, never with another code or a traceback.
"""

import contextlib
import copy
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movierev import models, persist, preprocess
from movierev.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "docs" / "golden.mrp.json"

DELETE = object()
MUTATIONS = (DELETE, None, True, -1, 0, -1.5, "x", [], {})


def field_paths(doc, prefix=()):
    """The key path of every object member and list item, at any depth."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def mutated(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` deleted or replaced."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    container = doc
    for key in parents:
        container = container[key]
    if value is DELETE:
        del container[last]
    else:
        container[last] = value
    return doc


def request_for(doc) -> dict:
    """A valid request: each categorical feature takes its first class,
    each numeric feature 1.0."""
    pipeline = doc["pipeline"]
    classes = pipeline["encoder"]["classes"]
    req = {
        c["name"]: classes[c["name"]][0] if c["kind"] == "categorical" else 1.0
        for c in pipeline["schema"]
        if c["role"] == "feature"
    }
    req["model"] = "forest" if doc["model_kind"] == "random_forest" else doc["model_kind"]
    return req


@pytest.fixture(scope="module")
def cases(movies_table, tmp_path_factory):
    """name -> (document, request path, artifact path) for the golden file,
    a tiny scaled linear model and a 3-tree forest."""
    workdir = tmp_path_factory.mktemp("reader")
    pipeline = preprocess.fit_pipeline(movies_table, scale=True)
    X, y = preprocess.transform(pipeline, movies_table)
    docs = {"golden": json.loads(GOLDEN.read_text())}
    for kind, model in (
        ("linear", models.fit_ols(X, y)),
        ("forest", models.fit_random_forest(X, y, 3, models.TreeConfig(max_depth=3), 1)),
    ):
        artifact = persist.make_artifact(pipeline, kind, model, seed=1)
        docs[kind] = json.loads(persist.dumps_canonical(artifact))
    out = {}
    for name, doc in docs.items():
        req = workdir / f"{name}.req.json"
        req.write_text(json.dumps(request_for(doc)))
        out[name] = (doc, req, workdir / f"{name}.mrp.json")
    return out


def predict_code(artifact, request) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["predict", "--artifact", str(artifact), "--input", str(request)])


@pytest.mark.parametrize("name", ["golden", "linear", "forest"])
def test_unmutated_artifact_predicts(cases, name):
    doc, req, path = cases[name]
    path.write_text(json.dumps(doc))
    assert predict_code(path, req) == 0


@pytest.mark.parametrize("name", ["golden", "linear", "forest"])
def test_one_mutated_field_predicts_or_exits_five(cases, name):
    doc, req, path = cases[name]
    paths = list(field_paths(doc))

    @settings(max_examples=250, deadline=None, database=None, derandomize=True)
    @given(field=st.sampled_from(paths), value=st.sampled_from(MUTATIONS))
    def check(field, value):
        path.write_text(json.dumps(mutated(doc, field, value)))
        assert predict_code(path, req) in (0, 5)

    check()
