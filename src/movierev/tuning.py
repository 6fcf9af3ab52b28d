"""Seeded k-fold cross-validation and exhaustive grid search.

Folds come from one shuffle-then-chunk pass of the documented PRNG, so a
(n, k, seed) triple always produces the same partition. Grid combinations
are enumerated as the Cartesian product in the declared parameter and
value order; the best combination is the one with the highest mean fold
R-squared, earliest enumeration winning ties.

Boosting is stage-wise, so the first k trees of a larger fit are exactly
the k-tree model. A boosting grid (``gbm``/``xgb``) therefore fits only
the largest ``n_estimators`` of each group of combinations that differ in
nothing else, once per fold, and scores every smaller size on that fit's
staged prediction; the fold scores are bit-identical to fitting each size
on its own.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import BadK
from .metrics import r2
from .models import BOOSTING_KINDS, fit_model, predict, staged_predict
from .rng import Xoshiro256StarStar, derive_seed

DEFAULT_FOLDS = 5

# documented default search space for the boosting families
DEFAULT_GRID: tuple[tuple[str, tuple], ...] = (
    ("n_estimators", (50, 100, 200)),
    ("max_depth", (2, 3, 4)),
    ("learning_rate", (0.05, 0.1, 0.2)),
)


@dataclass(frozen=True)
class ParamGrid:
    """Ordered (name, candidate values) axes; order fixes enumeration."""

    axes: tuple[tuple[str, tuple], ...]

    def __post_init__(self):
        names = [name for name, _ in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in grid")
        if not self.axes or any(len(values) == 0 for _, values in self.axes):
            raise ValueError("every grid axis needs at least one value")

    def combinations(self) -> list[dict]:
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]

    @classmethod
    def from_dict(cls, mapping: dict) -> "ParamGrid":
        return cls(tuple((name, tuple(values)) for name, values in mapping.items()))

    @classmethod
    def from_json_file(cls, path) -> "ParamGrid":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class CvResult:
    combinations: tuple[dict, ...]
    fold_scores: tuple[tuple[float, ...], ...]
    mean_scores: tuple[float, ...]
    best_index: int

    @property
    def best_params(self) -> dict:
        return self.combinations[self.best_index]

    @property
    def best_score(self) -> float:
        return self.mean_scores[self.best_index]

    def csv_lines(self) -> list[str]:
        names = sorted({name for combo in self.combinations for name in combo})
        k = len(self.fold_scores[0])
        header = names + [f"fold{i}_r2" for i in range(k)] + ["mean_r2"]
        lines = [",".join(header)]
        for combo, folds, mean in zip(
            self.combinations, self.fold_scores, self.mean_scores
        ):
            cells = [
                "" if combo.get(name) is None else repr(combo[name]) for name in names
            ]
            cells += [repr(s) for s in folds] + [repr(mean)]
            lines.append(",".join(cells))
        return lines

    def to_json(self) -> str:
        payload = {
            "combinations": list(self.combinations),
            "fold_scores": [list(f) for f in self.fold_scores],
            "mean_scores": list(self.mean_scores),
            "best_index": self.best_index,
            "best_params": self.best_params,
            "best_score": self.best_score,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def kfold_indices(n: int, k: int, seed: int = 0) -> list[np.ndarray]:
    """k disjoint validation folds covering range(n).

    Indices are shuffled once, then chunked; the first n mod k folds get
    the extra index.
    """
    if k > n:
        raise BadK(f"cannot make {k} folds from {n} rows")
    if k < 2:
        raise BadK("k must be at least 2")
    order = list(range(n))
    Xoshiro256StarStar(seed).shuffle(order)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        folds.append(np.array(order[start : start + size], dtype=np.intp))
        start += size
    return folds


def _fold_splits(n: int, k: int, seed: int):
    """(fold index, training rows, validation rows) of each fold."""
    all_idx = np.arange(n, dtype=np.intp)
    for f, val_idx in enumerate(kfold_indices(n, k, seed)):
        train_mask = np.ones(n, dtype=bool)
        train_mask[val_idx] = False
        yield f, all_idx[train_mask], val_idx


def cross_val_r2(
    model_spec: tuple[str, dict | None], X, y, k: int = DEFAULT_FOLDS, seed: int = 0
) -> list[float]:
    """Fold-wise held-out R-squared for one (kind, params) model recipe.

    Each fold's model gets its own derived seed; fold rows never reach
    the training side of that fold. Errors raised while fitting or
    scoring carry the fold index in a ``fold`` attribute.
    """
    kind, params = model_spec
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    scores = []
    for f, train_idx, val_idx in _fold_splits(X.shape[0], k, seed):
        try:
            model = fit_model(kind, X[train_idx], y[train_idx], params, derive_seed(seed, f))
            scores.append(float(r2(y[val_idx], predict(model, X[val_idx]))))
        except Exception as exc:
            exc.fold = f  # type: ignore[attr-defined]
            raise
    return scores


def _is_size(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _size_groups(model_kind: str, combos: list[dict]) -> list[list[int]] | None:
    """Indices of the combinations that differ only in ``n_estimators``,
    grouped in order of first appearance; None when prefix scoring does
    not apply (not a boosting kind, or a size missing or not an int >= 1)."""
    if model_kind not in BOOSTING_KINDS or not all(
        _is_size(params.get("n_estimators")) for params in combos
    ):
        return None
    keys: list[list] = []
    groups: list[list[int]] = []
    for i, params in enumerate(combos):
        # typed pairs, compared with ==, so that 1, 1.0 and True stay apart
        # and unhashable values from a JSON grid still group
        key = [(name, type(v), v) for name, v in params.items() if name != "n_estimators"]
        for g, other in enumerate(keys):
            if other == key:
                groups[g].append(i)
                break
        else:
            keys.append(key)
            groups.append([i])
    return groups


def _staged_cv_r2(model_kind, combos, group, X, y, k, seed) -> dict[int, list[float]]:
    """Fold scores of every combination in ``group``, from one fit per
    fold at the group's largest ``n_estimators``."""
    sizes = {i: combos[i]["n_estimators"] for i in group}
    largest = max(group, key=lambda i: sizes[i])
    scores: dict[int, list[float]] = {i: [] for i in group}
    for f, train_idx, val_idx in _fold_splits(X.shape[0], k, seed):
        try:
            model = fit_model(
                model_kind, X[train_idx], y[train_idx], combos[largest], derive_seed(seed, f)
            )
            y_val = y[val_idx]
            for stage, pred in enumerate(staged_predict(model, X[val_idx])):
                for i in group:
                    if sizes[i] == stage:
                        scores[i].append(float(r2(y_val, pred)))
        except Exception as exc:
            exc.fold = f  # type: ignore[attr-defined]
            raise
    return scores


def grid_search(
    model_kind: str, grid: ParamGrid, X, y, k: int = DEFAULT_FOLDS, seed: int = 0
) -> CvResult:
    """Evaluate every grid combination with the same folds.

    For the boosting kinds, combinations that differ only in
    ``n_estimators`` share one fit per fold at their largest size, and
    smaller sizes are scored on its stage-wise prefixes; the scores equal
    those of :func:`cross_val_r2` bit for bit. Refitting on the full
    training set with ``best_params`` is the caller's step; this function
    only ranks combinations.
    """
    combos = grid.combinations()
    groups = _size_groups(model_kind, combos)
    if groups is None:
        fold_scores = [
            tuple(cross_val_r2((model_kind, params), X, y, k, seed)) for params in combos
        ]
    else:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        by_index: dict[int, list[float]] = {}
        for group in groups:
            by_index.update(_staged_cv_r2(model_kind, combos, group, X, y, k, seed))
        fold_scores = [tuple(by_index[i]) for i in range(len(combos))]
    means = [float(np.mean(scores)) for scores in fold_scores]
    best_index = 0
    for i, m in enumerate(means):
        if m > means[best_index]:
            best_index = i
    return CvResult(
        combinations=tuple(combos),
        fold_scores=tuple(fold_scores),
        mean_scores=tuple(means),
        best_index=best_index,
    )
