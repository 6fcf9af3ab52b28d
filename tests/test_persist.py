import ast
import gc
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movierev import cli, models, persist, preprocess
from movierev.dataset import FEATURE, ColumnSpec
from movierev.errors import (
    ArtifactError,
    CorruptArtifact,
    SchemaHashMismatch,
    VersionMismatch,
)
from movierev.persist import (
    dumps_canonical,
    load,
    make_artifact,
    save,
    schema_hash,
)
from movierev.synthetic import synthetic_movies


@pytest.fixture()
def fitted(movies_table):
    pipeline = preprocess.fit_pipeline(movies_table, scale=False, log_money=True)
    X, y = preprocess.transform(pipeline, movies_table)
    model = models.fit_gbm(X, y, n_estimators=8, learning_rate=0.3,
                           tree_config=models.TreeConfig(max_depth=3))
    artifact = make_artifact(pipeline, "gbm", model, seed=42,
                             params={"n_estimators": 8, "learning_rate": 0.3})
    return artifact, X


def split_chain(depth):
    """A legal tree of ``depth`` levels: each split's right child splits
    again."""
    node = models.Leaf(0.0, 1)
    for level in range(depth):
        node = models.Split(0, float(level), models.Leaf(1.0, 1), node)
    return node


class TestRoundTrip:
    def test_predictions_survive_exactly(self, fitted, tmp_path):
        artifact, X = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        loaded = load(path)
        # 0 ulp: every float makes the text round trip unchanged
        assert np.array_equal(
            models.predict(artifact.model, X), models.predict(loaded.model, X)
        )

    def test_structural_round_trip(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        loaded = load(path)
        assert dumps_canonical(loaded) == dumps_canonical(artifact)
        assert loaded.training_meta == artifact.training_meta
        assert loaded.pipeline == artifact.pipeline

    def test_canonical_bytes_stable(self, fitted, tmp_path):
        artifact, _ = fitted
        a, b = tmp_path / "a.mrp.json", tmp_path / "b.mrp.json"
        save(artifact, a)
        save(artifact, b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_after_load_is_byte_identical(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        again = tmp_path / "again.mrp.json"
        save(load(path), again)
        assert path.read_bytes() == again.read_bytes()

    def test_all_model_kinds_round_trip(self, movies_table, tmp_path):
        pipeline = preprocess.fit_pipeline(movies_table, scale=True, log_money=True)
        X, y = preprocess.transform(pipeline, movies_table)
        fits = {
            "linear": models.fit_ols(X, y),
            "tree": models.fit_cart(X, y, models.TreeConfig(max_depth=4), 1),
            "bagging": models.fit_bagging(X, y, 3, models.TreeConfig(max_depth=3), 1),
            "forest": models.fit_random_forest(X, y, 3, models.TreeConfig(max_depth=3), 1),
            "gbm": models.fit_gbm(X, y, 3, 0.5, models.TreeConfig(max_depth=2)),
            "xgb": models.fit_xgb(X, y, 3, 0.5, models.TreeConfig(max_depth=2), 1.0, 0.1),
        }
        for kind, model in fits.items():
            path = tmp_path / f"{kind}.mrp.json"
            save(make_artifact(pipeline, kind, model, seed=1), path)
            loaded = load(path)
            assert np.array_equal(
                models.predict(model, X), models.predict(loaded.model, X)
            ), kind


class TestErrors:
    def test_version_mismatch(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            load(path)

    def test_truncated_file(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptArtifact):
            load(path)

    def test_missing_field_names_path(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        doc = json.loads(path.read_text())
        del doc["model_payload"]["init_value"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptArtifact) as err:
            load(path)
        assert "init_value" in err.value.field_path

    def test_wrong_type_rejected(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        doc = json.loads(path.read_text())
        doc["pipeline"]["log_target"] = "yes"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptArtifact):
            load(path)

    def test_schema_hash_mismatch_detected(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        doc = json.loads(path.read_text())
        doc["training_meta"]["schema_hash"] = "0" * 64
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaHashMismatch):
            load(path)

    def test_feature_index_outside_schema_names_path(self, fitted, tmp_path):
        artifact, X = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        for bad in (-1, X.shape[1]):
            doc = json.loads(path.read_text())
            doc["model_payload"]["trees"][0]["split"]["f"] = bad
            path.write_text(json.dumps(doc))
            with pytest.raises(CorruptArtifact) as err:
                load(path)
            assert err.value.field_path == "model_payload.trees[0].split.f"

    def test_non_finite_number_rejected(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        good = path.read_text()
        for constant in ("NaN", "Infinity", "-Infinity"):
            doc = json.loads(good)
            doc["model_payload"]["init_value"] = "@"
            path.write_text(json.dumps(doc).replace('"@"', constant))
            with pytest.raises(CorruptArtifact):
                load(path)

    def test_integer_beyond_float_range_rejected(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        doc = json.loads(path.read_text())
        doc["model_payload"]["init_value"] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptArtifact):
            load(path)

    def test_too_deep_tree_is_not_saved(self, fitted, tmp_path):
        pipeline = fitted[0].pipeline
        shallow = tmp_path / "shallow.mrp.json"
        save(make_artifact(pipeline, "tree", split_chain(50), seed=0), shallow)
        assert load(shallow).model_kind == "tree"
        path = tmp_path / "deep.mrp.json"
        with pytest.raises(ArtifactError):
            save(make_artifact(pipeline, "tree", split_chain(600), seed=0), path)
        assert not path.exists()

    def test_scaler_columns_must_match_features(self, movies_table, tmp_path):
        pipeline = preprocess.fit_pipeline(movies_table, scale=True)
        X, y = preprocess.transform(pipeline, movies_table)
        path = tmp_path / "model.mrp.json"
        save(make_artifact(pipeline, "linear", models.fit_ols(X, y), seed=0), path)
        good = json.loads(path.read_text())
        for change in ("drop", "target"):
            doc = json.loads(json.dumps(good))
            for stats in doc["pipeline"]["scaler"].values():
                if change == "drop":
                    del stats["budget"]
                else:
                    stats["gross"] = 1.0
            path.write_text(json.dumps(doc))
            with pytest.raises(CorruptArtifact) as err:
                load(path)
            assert err.value.field_path == "pipeline.scaler"

    def test_unknown_model_kind(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        save(artifact, path)
        doc = json.loads(path.read_text())
        doc["model_kind"] = "perceptron"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptArtifact):
            load(path)


GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "docs" / "golden.mrp.json"


@pytest.fixture()
def saved_docs(movies_table, tmp_path):
    """JSON documents of a scaled linear artifact and a 3-tree forest."""
    pipeline = preprocess.fit_pipeline(movies_table, scale=True)
    X, y = preprocess.transform(pipeline, movies_table)
    forest = models.fit_random_forest(X, y, 3, models.TreeConfig(max_depth=3), 1)
    docs = {}
    for kind, model in (("linear", models.fit_ols(X, y)), ("forest", forest)):
        path = tmp_path / f"{kind}.mrp.json"
        save(make_artifact(pipeline, kind, model, seed=1), path)
        docs[kind] = json.loads(path.read_text())
    return docs


def rejected_at(tmp_path, doc) -> str:
    """The field path of the ``CorruptArtifact`` that loading ``doc`` raises."""
    path = tmp_path / "edited.mrp.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptArtifact) as err:
        load(path)
    return err.value.field_path


class TestKindNames:
    def test_forest_is_random_forest_only_in_the_file(self, saved_docs, tmp_path):
        path = tmp_path / "forest.mrp.json"
        path.write_text(json.dumps(saved_docs["forest"]))
        assert saved_docs["forest"]["model_kind"] == "random_forest"
        loaded = load(path)
        assert loaded.model_kind == "forest"
        assert loaded.model.kind == "forest"
        again = tmp_path / "again.mrp.json"
        save(loaded, again)
        assert b'"model_kind":"random_forest"' in again.read_bytes()

    def test_file_saying_forest_is_corrupt(self, saved_docs, tmp_path):
        """v1 never wrote ``forest``, so a file that does is damaged."""
        doc = saved_docs["forest"]
        doc["model_kind"] = "forest"
        assert rejected_at(tmp_path, doc) == "<document>.model_kind"

    def test_save_unknown_kind_raises_value_error(self, fitted, tmp_path):
        artifact, _ = fitted
        path = tmp_path / "model.mrp.json"
        for kind in ("perceptron", "random_forest"):
            with pytest.raises(ValueError, match="unknown model kind"):
                save(make_artifact(artifact.pipeline, kind, artifact.model, seed=0), path)
        assert not path.exists()


class TestReaderChecks:
    """Each item of a list or object has its documented type, and the
    parts of an artifact agree with each other."""

    @pytest.mark.parametrize("bad", [None, "x", {}, True])
    def test_mistyped_class_list(self, bad, tmp_path):
        doc = json.loads(GOLDEN.read_text())
        doc["pipeline"]["encoder"]["classes"]["genre"] = bad
        assert rejected_at(tmp_path, doc) == "pipeline.encoder.classes.genre"

    @pytest.mark.parametrize("bad", [None, 3, ["Action"]])
    def test_mistyped_class(self, bad, tmp_path):
        doc = json.loads(GOLDEN.read_text())
        doc["pipeline"]["encoder"]["classes"]["genre"][2] = bad
        assert rejected_at(tmp_path, doc) == "pipeline.encoder.classes.genre[2]"

    @pytest.mark.parametrize("bad", [None, "x", True, [1.0]])
    def test_mistyped_numbers(self, saved_docs, bad, tmp_path):
        edits = [
            ("linear", ("pipeline", "scaler", "means"), "budget", "pipeline.scaler.means.budget"),
            ("linear", ("pipeline", "scaler", "stds"), "year", "pipeline.scaler.stds.year"),
            ("linear", ("model_payload", "coefficients"), 2, "model_payload.coefficients[2]"),
            ("forest", ("model_payload", "per_tree_seeds"), 0, "model_payload.per_tree_seeds[0]"),
        ]
        for kind, keys, item, where in edits:
            doc = json.loads(json.dumps(saved_docs[kind]))
            container = doc
            for key in keys:
                container = container[key]
            container[item] = bad
            assert rejected_at(tmp_path, doc) == where, where

    @pytest.mark.parametrize(
        "literal", ["1e400", "-1e400", "1" + "0" * 400], ids=["1e400", "-1e400", "int-1e400"]
    )
    def test_numbers_beyond_double_range(self, saved_docs, fitted, literal, tmp_path):
        """``json`` reads ``1e400`` as infinity, which passed as a float."""
        gbm = json.loads(dumps_canonical(fitted[0]))
        edits = [
            ("linear", ("pipeline", "scaler", "means"), "budget", "pipeline.scaler.means.budget"),
            ("linear", ("pipeline", "scaler", "stds"), "year", "pipeline.scaler.stds.year"),
            ("linear", ("model_payload", "coefficients"), 2, "model_payload.coefficients[2]"),
            ("linear", ("model_payload",), "intercept", "model_payload.intercept"),
            ("forest", ("model_payload", "trees", 0, "split"), "t",
             "model_payload.trees[0].split.t"),
            ("gbm", ("model_payload",), "learning_rate", "model_payload.learning_rate"),
            ("gbm", ("model_payload",), "init_value", "model_payload.init_value"),
        ]
        for kind, keys, item, where in edits:
            doc = json.loads(json.dumps(gbm if kind == "gbm" else saved_docs[kind]))
            container = doc
            for key in keys:
                container = container[key]
            container[item] = "@"
            path = tmp_path / "edited.mrp.json"
            path.write_text(json.dumps(doc).replace('"@"', literal))
            with pytest.raises(CorruptArtifact) as err:
                load(path)
            assert err.value.field_path == where
            assert "beyond the double range" in str(err.value)

    def test_mistyped_ridge_flag(self, saved_docs, tmp_path):
        doc = saved_docs["linear"]
        doc["model_payload"]["used_ridge_fallback"] = "x"
        assert rejected_at(tmp_path, doc) == "model_payload.used_ridge_fallback"

    @pytest.mark.parametrize("field", ["kind", "role"])
    def test_unknown_column_kind_or_role(self, field, tmp_path):
        doc = json.loads(GOLDEN.read_text())
        doc["pipeline"]["schema"][3][field] = "x"
        assert rejected_at(tmp_path, doc) == f"pipeline.schema[3].{field}"

    @pytest.mark.parametrize("edit", ["reverse", "duplicate"])
    def test_class_list_sorted_and_unique(self, edit, tmp_path):
        doc = json.loads(GOLDEN.read_text())
        genres = doc["pipeline"]["encoder"]["classes"]["genre"]
        if edit == "reverse":
            genres.reverse()
        else:
            genres.insert(1, genres[0])
        assert rejected_at(tmp_path, doc) == "pipeline.encoder.classes.genre"

    @pytest.mark.parametrize("edit", ["missing", "extra", "numeric", "empty"])
    def test_encoder_columns_are_the_categorical_columns(self, edit, tmp_path):
        doc = json.loads(GOLDEN.read_text())
        classes = doc["pipeline"]["encoder"]["classes"]
        if edit == "missing":
            del classes["genre"]
        elif edit == "extra":
            classes["colour"] = ["red"]
        elif edit == "numeric":
            classes["budget"] = []
        else:
            classes.clear()
        assert rejected_at(tmp_path, doc) == "pipeline.encoder.classes"

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_one_coefficient_per_feature(self, saved_docs, delta, tmp_path):
        doc = saved_docs["linear"]
        coefficients = doc["model_payload"]["coefficients"]
        if delta < 0:
            coefficients.pop()
        else:
            coefficients.append(0.5)
        assert rejected_at(tmp_path, doc) == "model_payload.coefficients"

    @pytest.mark.parametrize("source", ["forest", "golden"])
    def test_ensemble_needs_a_tree(self, saved_docs, source, tmp_path):
        doc = json.loads(GOLDEN.read_text()) if source == "golden" else saved_docs[source]
        doc["model_payload"]["trees"] = []
        assert rejected_at(tmp_path, doc) == "model_payload.trees"

    @pytest.mark.parametrize("value", [-1, 2**64, 2**70])
    @pytest.mark.parametrize("where", ["training_meta.seed", "model_payload.per_tree_seeds[0]"])
    def test_seed_outside_the_64_bit_range(self, saved_docs, where, value, tmp_path):
        """``train`` writes seeds in [0, 2**64) only."""
        doc = saved_docs["forest"]
        if where == "training_meta.seed":
            doc["training_meta"]["seed"] = value
        else:
            doc["model_payload"]["per_tree_seeds"][0] = value
        assert rejected_at(tmp_path, doc) == where

    def test_seeds_at_the_ends_of_the_range_load(self, saved_docs, tmp_path):
        doc = saved_docs["forest"]
        doc["training_meta"]["seed"] = 2**64 - 1
        doc["model_payload"]["per_tree_seeds"][:2] = [0, 2**64 - 1]
        path = tmp_path / "ends.mrp.json"
        path.write_text(json.dumps(doc))
        loaded = load(path)
        assert loaded.training_meta["seed"] == 2**64 - 1
        assert json.loads(dumps_canonical(loaded)) == doc

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_one_seed_per_tree(self, saved_docs, delta, tmp_path):
        doc = saved_docs["forest"]
        seeds = doc["model_payload"]["per_tree_seeds"]
        if delta < 0:
            seeds.pop()
        else:
            seeds.append(5)
        assert rejected_at(tmp_path, doc) == "model_payload.per_tree_seeds"

    @pytest.mark.parametrize("literal", ["[3, 4]", '{"a": 3}', "[]", "1e400"])
    def test_params_are_scalars(self, saved_docs, literal, tmp_path):
        """A list or an object as a parameter value loaded, and then
        ``dumps_canonical`` raised a bare ``TypeError``."""
        doc = saved_docs["forest"]
        doc["training_meta"]["params"] = {"max_depth": 3, "max_features": "@"}
        path = tmp_path / "edited.mrp.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        with pytest.raises(CorruptArtifact) as err:
            load(path)
        assert err.value.field_path == "training_meta.params.max_features"

    def test_scalar_params_load_and_save_back(self, saved_docs, tmp_path):
        doc = saved_docs["forest"]
        doc["training_meta"]["params"] = {"a": None, "b": True, "c": 3, "d": 0.5, "e": "x"}
        path = tmp_path / "params.mrp.json"
        path.write_text(json.dumps(doc))
        assert json.loads(dumps_canonical(load(path))) == doc

    @pytest.mark.parametrize("edit", ["duplicate name", "no target", "two targets"])
    def test_schema_is_valid(self, edit, tmp_path):
        """Two numeric features of one name, or a schema without exactly
        one target, with ``schema_hash`` recomputed to match."""
        doc = json.loads(GOLDEN.read_text())
        schema = doc["pipeline"]["schema"]
        if edit == "duplicate name":
            next(c for c in schema if c["name"] == "votes")["name"] = "budget"
        elif edit == "no target":
            schema.pop()
        else:
            next(c for c in schema if c["name"] == "runtime")["role"] = "target"
        doc["training_meta"]["schema_hash"] = schema_hash([ColumnSpec(**c) for c in schema])
        assert rejected_at(tmp_path, doc) == "pipeline.schema"

    def test_negative_leaf_count(self, saved_docs, tmp_path):
        doc = saved_docs["forest"]
        node = doc["model_payload"]["trees"][1]
        where = "model_payload.trees[1]"
        while "split" in node:
            node, where = node["split"]["r"], where + ".split.r"
        node["leaf"]["n"] = -1
        assert rejected_at(tmp_path, doc) == where + ".leaf.n"
        node["leaf"]["n"] = 0  # an empty leaf is legal
        path = tmp_path / "zero.mrp.json"
        path.write_text(json.dumps(doc))
        assert load(path).model_kind == "forest"


class TestHashing:
    def test_schema_hash_is_stable_and_sensitive(self, movies_table):
        h1 = schema_hash(movies_table.schema)
        h2 = schema_hash(movies_table.schema)
        assert h1 == h2
        assert len(h1) == 64
        smaller = movies_table.schema[:-1] + (movies_table.schema[-1],)
        assert schema_hash(smaller) == h1
        assert schema_hash(movies_table.schema[1:]) != h1

    def test_created_utc_defaults_to_epoch(self, fitted):
        artifact, _ = fitted
        assert artifact.created_utc == persist.EPOCH_UTC

    def test_explicit_timestamp_kept(self, movies_table):
        pipeline = preprocess.fit_pipeline(movies_table, scale=False, log_money=False)
        X, y = preprocess.transform(pipeline, movies_table)
        model = models.fit_ols(X, y)
        artifact = make_artifact(
            pipeline, "linear", model, seed=0, created_utc="2024-05-01T12:00:00Z"
        )
        assert json.loads(dumps_canonical(artifact))["created_utc"] == "2024-05-01T12:00:00Z"


def test_golden_artifact_round_trip():
    """The committed golden file must load and re-serialize byte for byte."""
    import pathlib

    golden = pathlib.Path(__file__).resolve().parent.parent / "docs" / "golden.mrp.json"
    raw = golden.read_bytes()
    artifact = load(golden)
    assert dumps_canonical(artifact).encode("utf-8") == raw


@pytest.fixture(scope="module")
def deep_forest(movies_table):
    """The JSON document of a 3-tree forest grown 8 levels deep, and the
    matrix it was fitted on."""
    pipeline = preprocess.fit_pipeline(movies_table, scale=False)
    X, y = preprocess.transform(pipeline, movies_table)
    forest = models.fit_random_forest(X, y, 3, models.TreeConfig(max_depth=8), 1)
    return json.loads(dumps_canonical(make_artifact(pipeline, "forest", forest, seed=1))), X


def deep_node(doc, tag):
    """A node of ``trees[2]`` at least 3 levels deep that holds ``tag``,
    and its field path: left, right, left, then right until ``tag``."""
    node, where = doc["model_payload"]["trees"][2], "model_payload.trees[2]"
    for side in "lrl":
        node, where = node["split"][side], f"{where}.split.{side}"
    while tag not in node:
        node, where = node["split"]["r"], f"{where}.split.r"
    return node, where


def loaded_from_text(tmp_path, text):
    path = tmp_path / "edited.mrp.json"
    path.write_text(text)
    return load(path)


class TestTreeNodes:
    """The reader's tree-node checks, on nodes deep in a later tree."""

    def test_integers_in_float_fields_load_as_floats(self, deep_forest, tmp_path):
        """Each split ``t`` and leaf ``v`` of ``trees[2]`` is made integral;
        one copy spells them ``2.0``, the other ``2`` at every other depth."""
        as_floats, X = deep_forest
        as_floats = json.loads(json.dumps(as_floats))
        as_ints = json.loads(json.dumps(as_floats))
        stack = [(as_floats["model_payload"]["trees"][2], as_ints["model_payload"]["trees"][2], 0)]
        changed = 0
        while stack:
            a, b, depth = stack.pop()
            tag, key = ("split", "t") if "split" in a else ("leaf", "v")
            a[tag][key] = float(round(a[tag][key]))
            b[tag][key] = int(a[tag][key]) if depth % 2 == 0 else a[tag][key]
            changed += depth % 2 == 0
            if tag == "split":
                stack += [(a[tag][s], b[tag][s], depth + 1) for s in "lr"]
        assert changed > 10
        fl = loaded_from_text(tmp_path, json.dumps(as_floats))
        it = loaded_from_text(tmp_path, json.dumps(as_ints))
        assert dumps_canonical(it) == dumps_canonical(fl)
        assert np.array_equal(models.predict(it.model, X), models.predict(fl.model, X))
        stack = [it.model.trees[2]]
        while stack:
            node = stack.pop()
            if isinstance(node, models.Split):
                assert node.threshold.__class__ is float
                stack += [node.left, node.right]
            else:
                assert node.value.__class__ is float

    @pytest.mark.parametrize(
        "tag, edit, suffix, reason",
        [
            ("split", lambda n: n["split"].pop("f"), ".split.f", "missing"),
            ("split", lambda n: n["split"].update(f=True), ".split.f", "expected <class 'int'>"),
            ("split", lambda n: n["split"].update(f=14), ".split.f",
             "feature index 14 outside [0, 14)"),
            ("split", lambda n: n["split"].update(f=-1), ".split.f",
             "feature index -1 outside [0, 14)"),
            ("split", lambda n: n["split"].update(t="x"), ".split.t",
             "expected (<class 'int'>, <class 'float'>)"),
            ("split", lambda n: n["split"].update(t="@"), ".split.t",
             "number beyond the double range"),
            ("split", lambda n: n["split"].update(l=[]), ".split.l", "expected <class 'dict'>"),
            ("split", lambda n: n["split"].update(r=None), ".split.r",
             "expected <class 'dict'>"),
            ("split", lambda n: n.update(leaf={"v": 1.0, "n": 1}), "",
             "tree node must have exactly one tag"),
            ("split", lambda n: n.update(branch=n.pop("split")), "", "unknown tree node tag"),
            ("split", lambda n: n.update(split=None), ".split.f", "missing"),
            ("leaf", lambda n: n["leaf"].update(n=-1), ".leaf.n", "negative row count -1"),
            ("leaf", lambda n: n["leaf"].update(v="@"), ".leaf.v",
             "number beyond the double range"),
            ("leaf", lambda n: n["leaf"].pop("n"), ".leaf.n", "missing"),
        ],
        ids=[
            "f-missing", "f-bool", "f-too-large", "f-negative", "t-string", "t-1e400",
            "l-list", "r-null", "two-tags", "unknown-tag", "split-null", "n-negative",
            "v-1e400", "n-missing",
        ],
    )
    def test_fault_deep_in_a_later_tree(self, deep_forest, tag, edit, suffix, reason, tmp_path):
        doc = json.loads(json.dumps(deep_forest[0]))
        node, where = deep_node(doc, tag)
        assert where.count(".split.") >= 3
        edit(node)
        with pytest.raises(CorruptArtifact) as err:
            loaded_from_text(tmp_path, json.dumps(doc).replace('"@"', "1e400"))
        assert err.value.field_path == where + suffix
        assert str(err.value) == f"corrupt artifact at {where + suffix!r}: {reason}"


def reference_tree(node) -> dict:
    """The nested dicts the writer once built for a tree, one per node."""
    if isinstance(node, models.Leaf):
        return {"leaf": {"v": float(node.value), "n": int(node.n_samples)}}
    return {
        "split": {
            "f": int(node.feature_index),
            "t": float(node.threshold),
            "l": reference_tree(node.left),
            "r": reference_tree(node.right),
        }
    }


def reference_text(artifact) -> str:
    """``json.dumps`` of the artifact's whole document, built from nested
    dicts: the reference the node-by-node writer must match."""
    kind, model = artifact.model_kind, artifact.model
    if kind == "linear":
        payload = {
            "coefficients": [float(c) for c in model.coefficients],
            "intercept": float(model.intercept),
            "used_ridge_fallback": bool(model.used_ridge_fallback),
        }
    elif kind == "tree":
        payload = {"tree": reference_tree(model)}
    else:
        payload = {"trees": [reference_tree(t) for t in model.trees]}
        if kind in ("bagging", "forest"):
            payload["per_tree_seeds"] = [int(s) for s in model.per_tree_seeds]
        else:
            payload.update((name, float(getattr(model, name)))
                           for name in persist._BOOSTING_FLOATS[kind])
    doc = {
        "format_version": int(artifact.format_version),
        "created_utc": artifact.created_utc,
        "pipeline": persist._encode_pipeline(artifact.pipeline),
        "model_kind": persist._V1_KIND[kind],
        "model_payload": payload,
        "training_meta": persist._canon_meta(artifact.training_meta),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "docs" / "golden.mrp.json"

# floats whose spelling a writer gets wrong most easily
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e308, -1e308, 1 / 3]

edge_trees = st.recursive(
    st.builds(models.Leaf, st.sampled_from(EDGE_FLOATS), st.integers(0, 10**6)),
    lambda children: st.builds(
        models.Split, st.integers(0, 13), st.sampled_from(EDGE_FLOATS), children, children
    ),
    max_leaves=40,
)


class TestWriter:
    """``dumps_canonical`` writes trees node by node; its text must equal
    ``json.dumps`` of the nested dicts it replaced."""

    @pytest.mark.parametrize("kind", models.KINDS)
    def test_every_kind_matches_the_reference(self, kind, movies_table):
        pipeline = preprocess.fit_pipeline(movies_table, scale=kind == "linear")
        X, y = preprocess.transform(pipeline, movies_table)
        params = {} if kind in ("linear", "tree") else {"n_estimators": 6}
        model = models.fit_model(kind, X, y, params, seed=3)
        artifact = make_artifact(pipeline, kind, model, seed=3, params={"a": 0.5, "b": None})
        assert dumps_canonical(artifact) == reference_text(artifact)

    def test_fixtures_match_the_reference(self, fitted):
        for artifact in (fitted[0], load(GOLDEN)):
            assert dumps_canonical(artifact) == reference_text(artifact)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(trees=st.lists(edge_trees, min_size=1, max_size=3), kind=st.sampled_from(
        ["tree", "bagging", "forest", "gbm", "xgb"]))
    def test_drawn_trees_match_the_reference(self, trees, kind):
        pipeline = load(GOLDEN).pipeline
        if kind == "tree":
            model = trees[0]
        elif kind in ("bagging", "forest"):
            model = models.EnsembleModel(kind, trees, per_tree_seeds=list(range(len(trees))))
        else:
            model = models.EnsembleModel(kind, trees, learning_rate=1 / 3, init_value=-0.0,
                                         reg_lambda=5e-324, reg_gamma=1e308)
        artifact = make_artifact(pipeline, kind, model, seed=0)
        assert dumps_canonical(artifact) == reference_text(artifact)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises_jsons_error(self, fitted, bad, tmp_path):
        tree = models.Split(0, 0.5, models.Leaf(1.0, 1), models.Split(1, bad, models.Leaf(
            2.0, 1), models.Leaf(3.0, 2)))
        artifact = make_artifact(fitted[0].pipeline, "tree", tree, seed=0)
        with pytest.raises(ValueError) as want:
            reference_text(artifact)
        with pytest.raises(ValueError) as got:
            save(artifact, tmp_path / "bad.mrp.json")
        assert str(got.value) == str(want.value)
        assert not (tmp_path / "bad.mrp.json").exists()

    def test_depth_limit(self, fitted, tmp_path):
        """The deepest tree ``save`` accepts loads back; one level deeper,
        in a later tree of a forest, is refused before the file opens."""
        pipeline = fitted[0].pipeline
        deepest = tmp_path / "deepest.mrp.json"
        save(make_artifact(pipeline, "tree", split_chain(persist.MAX_TREE_DEPTH), seed=0), deepest)
        assert tree_depth(load(deepest).model) == persist.MAX_TREE_DEPTH
        forest = models.EnsembleModel(
            "forest", [split_chain(3), split_chain(persist.MAX_TREE_DEPTH + 1)],
            per_tree_seeds=[0, 1],
        )
        path = tmp_path / "deeper.mrp.json"
        with pytest.raises(ArtifactError, match="nested too deep to save"):
            save(make_artifact(pipeline, "forest", forest, seed=0), path)
        assert not path.exists()

    def test_save_holds_no_copy_of_the_document(self, tmp_path):
        """``save`` writes the text piece by piece: its traced peak stays
        near the artifact's size. Building the whole text, its join and
        its UTF-8 bytes first took 3.0 times that size."""
        table = synthetic_movies(300, seed=1)
        pipeline = preprocess.fit_pipeline(table, scale=False)
        X, y = preprocess.transform(pipeline, table)
        forest = models.fit_model("forest", X, y, {"n_estimators": 30}, seed=1)
        artifact = make_artifact(pipeline, "forest", forest, seed=1)
        path = tmp_path / "forest.mrp.json"
        tracemalloc.start()
        try:
            save(artifact, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text(encoding="utf-8") == dumps_canonical(artifact)
        assert peak < 1.5 * path.stat().st_size



def tree_depth(root) -> int:
    """The most levels of splits above a leaf."""
    depth, stack = 0, [(root, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if isinstance(node, models.Split):
            stack += [(node.left, d + 1), (node.right, d + 1)]
    return depth


class TestCollectorState:
    """The library leaves the cyclic garbage collector alone: saving,
    loading, fitting ensembles and an in-process ``cli.main`` run with the
    caller's collector state and leave it unchanged. Only ``cli.run``, the
    entry point of the ``movierev`` command, turns the collector off."""

    @pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
    def caller_gc(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @staticmethod
    def record(monkeypatch, owner, name, seen):
        """Append ``gc.isenabled()`` to ``seen`` on each call of ``owner.name``."""
        original = getattr(owner, name)
        monkeypatch.setattr(
            owner, name,
            lambda *a, **k: seen.append(gc.isenabled()) or original(*a, **k),
        )

    def test_load_and_dumps(self, caller_gc, fitted, tmp_path, monkeypatch):
        seen = []
        for name in ("_decode_document", "_encode_model"):
            self.record(monkeypatch, persist, name, seen)
        path = tmp_path / "model.mrp.json"
        save(fitted[0], path)
        assert gc.isenabled() is caller_gc
        load(path)
        assert gc.isenabled() is caller_gc
        assert seen == [caller_gc, caller_gc]

    def test_load_that_raises(self, caller_gc, fitted, tmp_path, monkeypatch):
        seen = []
        self.record(monkeypatch, persist, "_decode_document", seen)
        doc = json.loads(dumps_canonical(fitted[0]))
        doc["model_payload"]["trees"][3]["split"]["f"] = "x"
        with pytest.raises(CorruptArtifact):
            loaded_from_text(tmp_path, json.dumps(doc))
        assert gc.isenabled() is caller_gc
        assert seen == [caller_gc]

    @pytest.mark.parametrize("kind, calls", [("forest", 1), ("gbm", 3)], ids=["forest", "gbm"])
    def test_fit_model(self, caller_gc, kind, calls, movies_table, monkeypatch):
        """A forest grows its trees in one call of the grower, a booster
        one call per stage."""
        X, y = preprocess.transform(preprocess.fit_pipeline(movies_table), movies_table)
        seen = []
        self.record(monkeypatch, models, "_grow_trees", seen)
        models.fit_model(kind, X, y, {"n_estimators": 3, "max_depth": 3}, seed=1)
        assert gc.isenabled() is caller_gc
        assert seen == [caller_gc] * calls

    def test_cli_main_predict(self, caller_gc, fitted, movies_table, tmp_path, monkeypatch):
        seen = []
        self.record(monkeypatch, persist, "_decode_document", seen)
        self.record(monkeypatch, models, "predict", seen)
        path = tmp_path / "model.mrp.json"
        save(fitted[0], path)
        request = {c.name: movies_table.column(c.name)[0]
                   for c in movies_table.schema if c.role == FEATURE}
        (tmp_path / "req.json").write_text(json.dumps(request | {"model": "gbm"}))
        code = cli.main(["predict", "--artifact", str(path),
                         "--input", str(tmp_path / "req.json")])
        assert code == 0
        assert gc.isenabled() is caller_gc
        assert seen == [caller_gc, caller_gc]

    def test_run_disables_the_collector_before_main(self, caller_gc, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 7)
        assert cli.run() == 7
        assert seen == [False]

    def test_script_enters_where_the_main_block_does(self):
        """``[project.scripts] movierev`` names the function that
        ``python -m movierev.cli`` calls."""
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        root = pathlib.Path(__file__).resolve().parent.parent
        with open(root / "pyproject.toml", "rb") as fh:
            script = tomllib.load(fh)["project"]["scripts"]["movierev"]
        module, function = script.split(":")
        source = root / "src" / (module.replace(".", "/") + ".py")
        main_block = next(
            node for node in ast.parse(source.read_text()).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        )
        assert module == "movierev.cli"
        assert ast.unparse(main_block.body[0]) == f"sys.exit({function}())"
