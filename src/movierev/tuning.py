"""Seeded k-fold cross-validation and exhaustive grid search.

Folds come from one shuffle-then-chunk pass of the documented PRNG, so a
(n, k, seed) triple always produces the same partition. Grid combinations
are enumerated as the Cartesian product in the declared parameter and
value order; the best combination is the one with the highest mean fold
R-squared, earliest enumeration winning ties.

Boosting is stage-wise, so the first k trees of a larger fit are exactly
the k-tree model. Combinations are therefore scored in groups by one fold
loop: a boosting grid (``gbm``/``xgb``) groups the combinations that
differ only in a valid ``n_estimators``, fits the largest once per fold,
and scores every smaller size on that fit's staged prediction; every
other combination is a group of one, scored on ``predict``. Either way
the fold scores are bit-identical to fitting each combination on its own.
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
        """A grid from a JSON object that maps each parameter name to a
        non-empty list of candidate values."""
        if not isinstance(mapping, dict) or not all(
            isinstance(values, list) and values for values in mapping.values()
        ):
            raise ValueError("a grid must map each parameter to a non-empty list of values")
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
    return _group_cv_r2(kind, [params], X, y, k, seed)[0]


def _is_size(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _size_groups(model_kind: str, combos: list[dict]) -> list[list[int]]:
    """Indices of the combinations that differ only in a valid
    ``n_estimators`` (an int >= 1), grouped in order of first appearance.
    Every other combination (not a boosting kind, or a size missing or
    invalid) is a group of its own."""
    keys: list = []
    groups: list[list[int]] = []
    for i, params in enumerate(combos):
        key = None
        if model_kind in BOOSTING_KINDS and _is_size(params.get("n_estimators")):
            # typed pairs, compared with ==, so that 1, 1.0 and True stay
            # apart and unhashable values from a JSON grid still group
            key = [(name, type(v), v) for name, v in params.items() if name != "n_estimators"]
            if key in keys:
                groups[keys.index(key)].append(i)
                continue
        keys.append(key)
        groups.append([i])
    return groups


def _group_cv_r2(kind, members: list[dict | None], X, y, k, seed) -> list[list[float]]:
    """Fold scores of each member of a group of recipes that differ only
    in ``n_estimators``, from one fit per fold of the largest member. A
    lone member is scored on ``predict``, a larger group on the staged
    prefixes of the boosting fit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    fitted = members[0] if len(members) == 1 else max(members, key=lambda p: p["n_estimators"])
    scores: list[list[float]] = [[] for _ in members]
    for f, train_idx, val_idx in _fold_splits(X.shape[0], k, seed):
        try:
            model = fit_model(kind, X[train_idx], y[train_idx], fitted, derive_seed(seed, f))
            X_val, y_val = X[val_idx], y[val_idx]
            if len(members) == 1:
                scores[0].append(float(r2(y_val, predict(model, X_val))))
                continue
            for stage, pred in enumerate(staged_predict(model, X_val)):
                for fold_scores, params in zip(scores, members):
                    if params["n_estimators"] == stage:
                        fold_scores.append(float(r2(y_val, pred)))
        except Exception as exc:
            exc.fold = f  # type: ignore[attr-defined]
            raise
    return scores


def grid_search(
    model_kind: str, grid: ParamGrid, X, y, k: int = DEFAULT_FOLDS, seed: int = 0
) -> CvResult:
    """Evaluate every grid combination with the same folds.

    Each group of :func:`_size_groups` is scored by the one fold loop,
    with one fit per fold: a boosting group at its largest
    ``n_estimators``, smaller sizes on that fit's stage-wise prefixes.
    The scores equal those of :func:`cross_val_r2` bit for bit.
    Refitting on the full training set with ``best_params`` is the
    caller's step; this function only ranks combinations.
    """
    combos = grid.combinations()
    fold_scores: list[tuple[float, ...]] = [()] * len(combos)
    for group in _size_groups(model_kind, combos):
        members = [combos[i] for i in group]
        for i, scores in zip(group, _group_cv_r2(model_kind, members, X, y, k, seed)):
            fold_scores[i] = tuple(scores)
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
