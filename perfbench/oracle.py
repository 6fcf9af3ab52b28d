"""Reference results that do not trust the code under test.

Everything here is written from the documented formats and update
equations, not by calling ``movierev``:

* artifacts are read as the v1 JSON that ``docs/artifact-format.md``
  describes, with ``json`` only;
* the encode / log1p / scale pipeline is replayed from the stored class
  lists, flags and scaler, with the sentinel code ``len(classes)`` for
  unseen categories;
* trees are flattened and walked iteratively, because full-depth trees
  nest deeper than the recursion limit, and ensemble members are
  accumulated one at a time in fit order, as the program does, so the
  sums round the same way;
* the default train/test split is replayed from the xoshiro256** and
  SplitMix64 equations in the ``movierev.rng`` docstring.

Elementwise transforms go through numpy on arrays of the same length as
the program's, so the floats match bit for bit and a prediction can be
compared at the precision the CLI prints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

DEFAULT_SPLIT_SEED = 42
DEFAULT_TEST_FRACTION = 0.2


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _Xoshiro:
    def __init__(self, seed: int):
        self.s = [_mix64((seed + (i + 1) * _GAMMA) & _MASK64) for i in range(4)]

    def next(self) -> int:
        s0, s1, s2, s3 = self.s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s = [s0, s1, s2, _rotl(s3, 45)]
        return result

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next()
            if v < limit:
                return v % n


def split_rows(n: int, seed: int = DEFAULT_SPLIT_SEED,
               test_fraction: float = DEFAULT_TEST_FRACTION):
    """(train rows, test rows) of the CLI's default shuffled split."""
    order = list(range(n))
    rng = _Xoshiro(seed)
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    n_test = math.floor(test_fraction * n)
    return order[n_test:], order[:n_test]


@dataclass
class FlatTree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @classmethod
    def from_doc(cls, root) -> "FlatTree":
        feature, threshold, left, right, value = [], [], [], [], []
        stack = [(root, -1, False)]
        while stack:
            doc, parent, is_right = stack.pop()
            i = len(feature)
            if parent >= 0:
                (right if is_right else left)[parent] = i
            left.append(-1)
            right.append(-1)
            if "leaf" in doc:
                feature.append(-1)
                threshold.append(0.0)
                value.append(float(doc["leaf"]["v"]))
            else:
                body = doc["split"]
                feature.append(int(body["f"]))
                threshold.append(float(body["t"]))
                value.append(0.0)
                stack.append((body["r"], i, True))
                stack.append((body["l"], i, False))
        return cls(
            np.array(feature, dtype=np.intp),
            np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
            np.array(value, dtype=np.float64),
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        while True:
            inner = self.feature[node] >= 0
            if not inner.any():
                return self.value[node]
            at = node[inner]
            go_left = X[rows[inner], self.feature[at]] < self.threshold[at]
            node[inner] = np.where(go_left, self.left[at], self.right[at])


class Artifact:
    """A v1 ensemble artifact document (the kinds the workloads train),
    able to replay its pipeline and model."""

    def __init__(self, doc: dict):
        if doc.get("format_version") != 1:
            raise ValueError("not a v1 artifact")
        self.kind = doc["model_kind"]
        pipe = doc["pipeline"]
        self.classes = pipe["encoder"]["classes"]
        self.scaler = pipe["scaler"]
        self.log_budget = pipe["log_budget"]
        self.log_target = pipe["log_target"]
        schema = pipe["schema"]
        self.features = [c["name"] for c in schema if c["role"] == "feature"]
        self.target = next(c["name"] for c in schema if c["role"] == "target")
        if self.kind not in ("bagging", "random_forest", "gbm", "xgb"):
            raise ValueError(f"no reference for model kind {self.kind!r}")
        payload = doc["model_payload"]
        self.trees = [FlatTree.from_doc(t) for t in payload["trees"]]
        if self.kind in ("gbm", "xgb"):
            self.learning_rate = float(payload["learning_rate"])
            self.init_value = float(payload["init_value"])

    @classmethod
    def read(cls, path) -> "Artifact":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def matrix(self, columns: dict) -> np.ndarray:
        """Feature matrix for rows given as {column name: list of cells}."""
        out = []
        for name in self.features:
            if name in self.classes:
                classes = self.classes[name]
                position = {c: i for i, c in enumerate(classes)}
                col = np.array(
                    [float(position.get(v, len(classes))) for v in columns[name]],
                    dtype=np.float64,
                )
            else:
                col = np.asarray(columns[name], dtype=np.float64)
                if name == "budget" and self.log_budget:
                    col = np.log1p(col)
            if self.scaler is not None:
                std = self.scaler["stds"][name]
                col = (col - self.scaler["means"][name]) / (std if std > 0.0 else 1.0)
            out.append(col)
        return np.column_stack(out)

    def target_vector(self, columns: dict) -> np.ndarray:
        y = np.asarray(columns[self.target], dtype=np.float64)
        return np.log1p(y) if self.log_target else y

    def staged(self, X: np.ndarray):
        """Boosting predictions after 0, 1, ... n trees."""
        out = np.full(X.shape[0], self.init_value, dtype=np.float64)
        yield out
        for tree in self.trees:
            out = out + self.learning_rate * tree.predict(X)
            yield out

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.kind in ("gbm", "xgb"):
            for out in self.staged(X):
                pass
            return out
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)

    def raw(self, internal: np.ndarray) -> np.ndarray:
        """Predictions back in currency units."""
        return np.expm1(internal) if self.log_target else internal


def r2(y: np.ndarray, yhat: np.ndarray) -> float:
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot


def f_score(x: np.ndarray, y: np.ndarray) -> float:
    """Univariate F statistic from the Pearson correlation."""
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    sxx, syy = float(np.sum(dx * dx)), float(np.sum(dy * dy))
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    r = max(-1.0, min(1.0, float(np.sum(dx * dy)) / math.sqrt(sxx * syy)))
    return math.inf if r * r >= 1.0 else r * r / (1.0 - r * r) * (x.size - 2)


def take(columns: dict, rows) -> dict:
    return {name: [col[i] for i in rows] for name, col in columns.items()}
