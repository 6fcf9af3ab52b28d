"""Versioned JSON serialization of pipelines and fitted models.

One artifact is one UTF-8 JSON document (extension ``.mrp.json``) with
lexicographically ordered keys and shortest round-trip float encoding, so
saving the same artifact always yields byte-identical output and every
float survives exactly. Trees nest as
``{"split": {"f": ..., "t": ..., "l": ..., "r": ...}}`` and
``{"leaf": {"v": ..., "n": ...}}``.

``created_utc`` defaults to the fixed epoch string: artifact bytes must be
a pure function of data, configuration and seed. Callers wanting a real
timestamp pass one explicitly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL, FEATURE, NUMERIC, TARGET, ColumnSpec, validate_schema
from .errors import ArtifactError, CorruptArtifact, SchemaHashMismatch, VersionMismatch
from .models import (
    KIND_BAGGING,
    KIND_FOREST,
    KIND_GBM,
    KIND_LINEAR,
    KIND_TREE,
    KIND_XGB,
    KINDS,
    EnsembleModel,
    Leaf,
    LinearModel,
    Split,
)
from .preprocess import EncoderMap, Pipeline, ScalerParams

FORMAT_VERSION = 1
EPOCH_UTC = "1970-01-01T00:00:00Z"
ARTIFACT_SUFFIX = ".mrp.json"

# the v1 ``model_kind`` of each in-memory kind; only the forest differs
_V1_KIND = {kind: kind for kind in KINDS} | {KIND_FOREST: "random_forest"}
_KIND_OF_V1 = {name: kind for kind, name in _V1_KIND.items()}

# the float fields of a boosting payload, which the writer and the reader share
_GBM_FLOATS = ("learning_rate", "init_value")
_BOOSTING_FLOATS = {KIND_GBM: _GBM_FLOATS, KIND_XGB: _GBM_FLOATS + ("reg_lambda", "reg_gamma")}


@dataclass(frozen=True)
class ModelArtifact:
    format_version: int
    created_utc: str
    pipeline: Pipeline
    model_kind: str  # linear | tree | bagging | forest | gbm | xgb
    model: object
    training_meta: dict  # seed, params, schema_hash


def schema_hash(schema) -> str:
    payload = json.dumps(
        [[c.name, c.kind, c.role] for c in schema],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_artifact(
    pipeline: Pipeline,
    model_kind: str,
    model,
    seed: int,
    params: dict | None = None,
    created_utc: str = EPOCH_UTC,
) -> ModelArtifact:
    return ModelArtifact(
        format_version=FORMAT_VERSION,
        created_utc=created_utc,
        pipeline=pipeline,
        model_kind=model_kind,
        model=model,
        training_meta={
            "seed": int(seed),
            "params": dict(params or {}),
            "schema_hash": schema_hash(pipeline.fitted_on_schema),
        },
    )


# --------------------------------------------------------------------------
# encoding

# the most levels of splits above a leaf that ``save`` writes. The reader
# parses with Python's ``json``, which recurses twice per tree level and
# gives up near 490 levels, less under a deep call stack; a tree this
# deep still loads under any sensible one.
MAX_TREE_DEPTH = 400

_dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _object(fields: dict) -> list[str]:
    """The canonical JSON object of ``fields`` as pieces of text to join;
    each value is a list of such pieces."""
    pieces = ["{"]
    for key, value in sorted(fields.items()):
        pieces += [("," if len(pieces) > 1 else "") + _dumps(key) + ":", *value]
    return pieces + ["}"]


def _tree_texts(trees) -> list[str]:
    """The canonical JSON text of each of ``trees``, written node by node
    without recursion, exactly as ``_dumps`` writes the tagged nested
    objects: keys in sorted order (leaf ``n``, ``v``; split ``f``,
    ``l``, ``r``, ``t``), floats by ``float.__repr__``. Every text after
    the first starts with a comma, so the texts join to the items of a
    JSON array.

    A tree with more than ``MAX_TREE_DEPTH`` levels of splits raises
    ``ArtifactError``. A non-finite float raises ``_dumps``' own
    ``ValueError``, once every tree has passed the depth check."""
    texts = []
    bad = []
    for tree in trees:
        parts = [","] if texts else []
        stack = [(tree, 0)]  # text to write, or (node, depth); the next item last
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                parts.append(item)
                continue
            node, depth = item
            if isinstance(node, Leaf):
                v = float(node.value)
                if v - v != 0.0:  # inf or NaN
                    bad.append(v)
                parts.append(f'{{"leaf":{{"n":{int(node.n_samples)},"v":{v!r}}}}}')
                continue
            if depth == MAX_TREE_DEPTH:
                raise ArtifactError("a tree is nested too deep to save as a v1 artifact")
            t = float(node.threshold)
            if t - t != 0.0:
                bad.append(t)
            parts.append(f'{{"split":{{"f":{int(node.feature_index)},"l":')
            stack.append(f',"t":{t!r}}}}}')
            stack.append((node.right, depth + 1))
            stack.append(',"r":')
            stack.append((node.left, depth + 1))
        texts.append("".join(parts))
    if bad:
        _dumps(bad[0])
    return texts


def _encode_model(kind: str, model) -> list[str]:
    """The model payload as pieces of text to join, each tree's text one
    piece of its own."""
    if kind == KIND_LINEAR:
        return [_dumps({
            "coefficients": [float(c) for c in model.coefficients],
            "intercept": float(model.intercept),
            "used_ridge_fallback": bool(model.used_ridge_fallback),
        })]
    if kind == KIND_TREE:
        return _object({"tree": _tree_texts([model])})
    fields = {"trees": ["[", *_tree_texts(model.trees), "]"]}
    if kind in (KIND_BAGGING, KIND_FOREST):
        fields["per_tree_seeds"] = [_dumps([int(s) for s in model.per_tree_seeds])]
    else:
        for name in _BOOSTING_FLOATS[kind]:
            fields[name] = [_dumps(float(getattr(model, name)))]
    return _object(fields)


def _encode_pipeline(p: Pipeline) -> dict:
    return {
        "encoder": {"classes": {k: list(v) for k, v in p.encoder.classes.items()}},
        "scaler": None
        if p.scaler is None
        else {
            "means": {k: float(v) for k, v in p.scaler.means.items()},
            "stds": {k: float(v) for k, v in p.scaler.stds.items()},
        },
        "log_budget": bool(p.log_budget),
        "log_target": bool(p.log_target),
        "schema": [
            {"name": c.name, "kind": c.kind, "role": c.role}
            for c in p.fitted_on_schema
        ],
    }


def _document_pieces(artifact: ModelArtifact) -> list[str]:
    """The canonical v1 text of ``artifact`` as pieces to join: what
    ``json.dumps`` with sorted keys and no spaces writes for its
    document, and a newline. Every check runs before this returns."""
    kind = artifact.model_kind
    if kind not in _V1_KIND:
        raise ValueError(f"unknown model kind {kind!r}")
    # the model first: a tree too deep fails before any other field
    payload = _encode_model(kind, artifact.model)
    return _object({
        "format_version": [_dumps(int(artifact.format_version))],
        "created_utc": [_dumps(artifact.created_utc)],
        "pipeline": [_dumps(_encode_pipeline(artifact.pipeline))],
        "model_kind": [_dumps(_V1_KIND[kind])],
        "model_payload": payload,
        "training_meta": [_dumps(_canon_meta(artifact.training_meta))],
    }) + ["\n"]


def dumps_canonical(artifact: ModelArtifact) -> str:
    """The canonical v1 text of ``artifact``, which :func:`save` writes
    as UTF-8."""
    return "".join(_document_pieces(artifact))


def _canon_meta(meta: dict) -> dict:
    out = {"seed": int(meta["seed"]), "schema_hash": str(meta["schema_hash"])}
    params = {}
    for key, value in meta.get("params", {}).items():
        if isinstance(value, (bool, str)) or value is None:
            params[key] = value
        elif isinstance(value, (int, np.integer)):
            params[key] = int(value)
        else:
            params[key] = float(value)
    out["params"] = params
    return out


def save(artifact: ModelArtifact, path) -> None:
    """Write the canonical bytes; a tree with more than ``MAX_TREE_DEPTH``
    levels of splits raises ``ArtifactError`` before the file is opened.
    The text is written piece by piece, so no copy of the whole document
    is made: besides the trees' own text, ``save`` holds one tree's bytes
    at a time."""
    pieces = _document_pieces(artifact)
    with open(path, "wb") as fh:
        for piece in pieces:
            fh.write(piece.encode("utf-8"))


# --------------------------------------------------------------------------
# decoding


_NUMBER = (int, float)


def _check(value, kinds, path, key):
    """``value``, found at ``key`` (a name, or a list index) under
    ``path``, if it has one of the JSON types ``kinds``. ``float`` means a
    finite JSON number, returned as a float: ``json`` reads a literal
    beyond the double range, such as ``1e400``, as infinity, and ``float``
    refuses such an integer. A bool is an ``int`` to Python, so it passes
    only where ``kinds`` is ``bool``."""
    if value.__class__ is not kinds:  # the exact class skips this: it runs for every list item
        wanted = _NUMBER if kinds is float else kinds
        if not isinstance(value, wanted) or (isinstance(value, bool) and kinds is not bool):
            raise CorruptArtifact(_where(path, key), f"expected {wanted}")
        if kinds is not float:
            return value
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    elif kinds is not float:
        return value
    if math.isfinite(value):
        return value
    raise CorruptArtifact(_where(path, key), "number beyond the double range")


def _where(path, key):
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _expect(mapping, key, kinds, path):
    """``mapping[key]``, which must exist and pass :func:`_check`;
    ``path`` locates ``mapping`` in the document."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise CorruptArtifact(f"{path}.{key}", "missing")
    return _check(mapping[key], kinds, path, key)


def _expect_items(mapping, key, container, kinds, path):
    """The ``list`` or ``dict`` ``mapping[key]``, each item checked for
    the JSON types ``kinds`` at its own path."""
    items = _expect(mapping, key, container, path)
    where = f"{path}.{key}"
    if container is list:
        return [_check(v, kinds, where, i) for i, v in enumerate(items)]
    return {k: _check(v, kinds, where, k) for k, v in items.items()}


def _seed(value, path, key):
    """``value``, at ``key`` under ``path``, if it is a seed: an integer
    in [0, 2**64), as ``train`` writes."""
    if not 0 <= _check(value, int, path, key) < 1 << 64:
        raise CorruptArtifact(_where(path, key), "seed outside [0, 2**64)")
    return value


def _param(value, path, key):
    """``value``, at ``key`` under ``path``, if it is a training parameter:
    null, a bool, an int, a finite float or a string."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return _check(value, float, path, key)
    raise CorruptArtifact(_where(path, key), "expected null, a boolean, a number or a string")


def _expect_choice(mapping, key, choices, path):
    """The string ``mapping[key]``, which must be one of ``choices``."""
    value = _expect(mapping, key, str, path)
    if value not in choices:
        raise CorruptArtifact(f"{path}.{key}", f"{value!r} is not one of {', '.join(choices)}")
    return value


def _decode_node(doc, n_features, step):
    """Decode one tagged tree node and its subtree: the one v1 node
    decoder. Every split's ``f`` must fall in ``range(n_features)`` of
    the pipeline schema. ``step`` is the node's path: the whole path at a
    root, ``.split.l`` or ``.split.r`` below it.

    A field with its exact JSON class and a legal value is taken as it
    is, and no path is built for it. Any other field is checked alone by
    :func:`_expect`, at a path relative to the node: that takes a JSON
    integer in a float field, or raises ``CorruptArtifact``, which each
    level it passes prefixes with its step. Fields are checked in the
    order ``v``, ``n`` and ``f``, ``t``, ``l``, ``r``, and the left
    subtree is decoded before ``r`` is checked."""
    try:
        if not isinstance(doc, dict) or len(doc) != 1:
            raise CorruptArtifact("", "tree node must have exactly one tag")
        if "leaf" in doc:
            body = doc["leaf"]
            v = body.get("v") if body.__class__ is dict else None
            if v.__class__ is not float or v - v != 0.0:  # not a finite float
                v = _expect(body, "v", float, ".leaf")
            n = body.get("n")
            if n.__class__ is not int or n < 0:
                n = _expect(body, "n", int, ".leaf")
                if n < 0:
                    raise CorruptArtifact(".leaf.n", f"negative row count {n}")
            return Leaf(v, n)
        if "split" in doc:
            body = doc["split"]
            f = body.get("f") if body.__class__ is dict else None
            if f.__class__ is not int or not 0 <= f < n_features:
                f = _expect(body, "f", int, ".split")
                if f not in range(n_features):
                    raise CorruptArtifact(".split.f", f"feature index {f} outside [0, {n_features})")
            t = body.get("t")
            if t.__class__ is not float or t - t != 0.0:
                t = _expect(body, "t", float, ".split")
            child = body.get("l")
            if child.__class__ is not dict:
                child = _expect(body, "l", dict, ".split")
            left = _decode_node(child, n_features, ".split.l")
            child = body.get("r")
            if child.__class__ is not dict:
                child = _expect(body, "r", dict, ".split")
            return Split(f, t, left, _decode_node(child, n_features, ".split.r"))
        raise CorruptArtifact("", "unknown tree node tag")
    except CorruptArtifact as fault:
        raise CorruptArtifact(step + fault.field_path, fault.reason) from None


def _decode_model(kind, payload, n_features):
    path = "model_payload"
    if kind == KIND_LINEAR:
        coeffs = _expect_items(payload, "coefficients", list, float, path)
        if len(coeffs) != n_features:
            raise CorruptArtifact(
                f"{path}.coefficients", f"{len(coeffs)} coefficients for {n_features} features"
            )
        return LinearModel(
            coefficients=np.array(coeffs, dtype=np.float64),
            intercept=_expect(payload, "intercept", float, path),
            used_ridge_fallback=_expect(payload, "used_ridge_fallback", bool, path),
        )
    if kind == KIND_TREE:
        return _decode_node(_expect(payload, "tree", dict, path), n_features, f"{path}.tree")
    docs = _expect(payload, "trees", list, path)
    if not docs:
        raise CorruptArtifact(f"{path}.trees", "an ensemble needs at least one tree")
    trees = [_decode_node(doc, n_features, f"{path}.trees[{i}]") for i, doc in enumerate(docs)]
    if kind in (KIND_BAGGING, KIND_FOREST):
        where = f"{path}.per_tree_seeds"
        items = _expect(payload, "per_tree_seeds", list, path)
        seeds = [_seed(v, where, i) for i, v in enumerate(items)]
        if len(seeds) != len(trees):
            raise CorruptArtifact(where, f"{len(seeds)} seeds for {len(trees)} trees")
        return EnsembleModel(kind=kind, trees=trees, per_tree_seeds=seeds)
    floats = {name: _expect(payload, name, float, path) for name in _BOOSTING_FLOATS[kind]}
    return EnsembleModel(kind=kind, trees=trees, **floats)


def _decode_pipeline(doc):
    path = "pipeline"
    schema = tuple(
        ColumnSpec(
            name=_expect(c, "name", str, f"{path}.schema[{i}]"),
            kind=_expect_choice(c, "kind", (NUMERIC, CATEGORICAL), f"{path}.schema[{i}]"),
            role=_expect_choice(c, "role", (FEATURE, TARGET), f"{path}.schema[{i}]"),
        )
        for i, c in enumerate(_expect(doc, "schema", list, path))
    )
    try:
        validate_schema(schema, require_target=True)
    except ValueError as exc:
        raise CorruptArtifact(f"{path}.schema", str(exc)) from None
    where = f"{path}.encoder.classes"
    classes_doc = _expect(_expect(doc, "encoder", dict, path), "classes", dict, f"{path}.encoder")
    if sorted(classes_doc) != sorted(c.name for c in schema if c.kind == CATEGORICAL):
        raise CorruptArtifact(where, "columns differ from the schema's categorical columns")
    classes = {}
    for name in classes_doc:
        values = _expect_items(classes_doc, name, list, str, where)
        if any(a >= b for a, b in zip(values, values[1:])):
            raise CorruptArtifact(f"{where}.{name}", "classes are not sorted and unique")
        classes[name] = tuple(values)
    scaler_doc = _expect(doc, "scaler", (dict, type(None)), path)
    scaler = None
    if scaler_doc is not None:
        scaler = ScalerParams(
            means=_expect_items(scaler_doc, "means", dict, float, f"{path}.scaler"),
            stds=_expect_items(scaler_doc, "stds", dict, float, f"{path}.scaler"),
        )
    features = sorted(c.name for c in schema if c.role == FEATURE)
    if scaler is not None and not sorted(scaler.means) == sorted(scaler.stds) == features:
        raise CorruptArtifact(f"{path}.scaler", "columns differ from the schema's features")
    return Pipeline(
        encoder=EncoderMap(classes=classes),
        scaler=scaler,
        log_budget=_expect(doc, "log_budget", bool, path),
        log_target=_expect(doc, "log_target", bool, path),
        fitted_on_schema=schema,
    )


def _reject_constant(name):
    # the writer never emits NaN or infinity, so a reader meeting one has
    # a damaged or hand-edited file
    raise CorruptArtifact("<document>", f"non-finite number {name}")


def load(path) -> ModelArtifact:
    """Read and validate an artifact; the inverse of :func:`save`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
        return _decode_document(doc)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {str(path)!r}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptArtifact("<document>", str(exc)) from None
    except RecursionError:
        raise CorruptArtifact("<document>", "nested too deep to read") from None


def _decode_document(doc) -> ModelArtifact:
    if not isinstance(doc, dict):
        raise CorruptArtifact("<document>", "not a JSON object")
    version = _expect(doc, "format_version", int, "<document>")
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"artifact format version {version}, this build reads {FORMAT_VERSION}"
        )
    created = _expect(doc, "created_utc", str, "<document>")
    pipeline = _decode_pipeline(_expect(doc, "pipeline", dict, "<document>"))
    kind = _KIND_OF_V1[_expect_choice(doc, "model_kind", _KIND_OF_V1, "<document>")]
    model = _decode_model(
        kind, _expect(doc, "model_payload", dict, "<document>"), len(pipeline.feature_names)
    )
    meta_doc = _expect(doc, "training_meta", dict, "<document>")
    meta = {
        "seed": _seed(_expect(meta_doc, "seed", int, "training_meta"), "training_meta", "seed"),
        "params": {
            name: _param(value, "training_meta.params", name)
            for name, value in _expect(meta_doc, "params", dict, "training_meta").items()
        },
        "schema_hash": _expect(meta_doc, "schema_hash", str, "training_meta"),
    }
    if meta["schema_hash"] != schema_hash(pipeline.fitted_on_schema):
        raise SchemaHashMismatch("artifact schema hash does not match its pipeline schema")
    return ModelArtifact(
        format_version=version,
        created_utc=created,
        pipeline=pipeline,
        model_kind=kind,
        model=model,
        training_meta=meta,
    )
