"""The six regression model families.

* ordinary least squares (normal equations with a ridge fallback)
* CART regression trees splitting on weighted child SSE
* bagging and random forests over bootstrap resamples
* gradient boosting on residuals with shrinkage
* second-order boosting with L2 leaf regularization and a split-gain
  threshold

All tree variants share one grower that works on per-node gradient sums
with unit curvature: a leaf's value is -G / (n + reg_lambda) and a split's
score is GL^2/(nL + reg_lambda) + GR^2/(nR + reg_lambda). With
reg_lambda = 0 and gradients g = -y this reduces exactly to CART (leaf =
mean target, score maximization = SSE minimization), which is what makes
the regularized booster with reg_lambda = reg_gamma = 0 coincide with
plain gradient boosting.

The grower sorts each feature column once per tree (stably, so equal
values keep ascending row order) and hands every node its rows in that
order, one index row per feature. A split partitions the parent's order
into its two children with one boolean mask, which keeps each child's
rows in the same order, so no node sorts again (the attribute lists of
SPRINT, Shafer, Agrawal & Mehta, VLDB 1996).

Candidate thresholds are midpoints between consecutive distinct sorted
feature values; rows with feature < threshold go left. Among equal-score
splits the lowest feature index wins, then the lowest threshold. Every
fit is a pure function of (data, config, seed).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteResult,
    NonFiniteSplit,
    SingularAfterRidge,
    TooFewRows,
)
from .metrics import r2 as _r2_score
from .rng import Xoshiro256StarStar, derive_seed

KIND_LINEAR = "linear"
KIND_TREE = "tree"
KIND_BAGGING = "bagging"
KIND_FOREST = "forest"
KIND_GBM = "gbm"
KIND_XGB = "xgb"

KINDS = (KIND_LINEAR, KIND_TREE, KIND_BAGGING, KIND_FOREST, KIND_GBM, KIND_XGB)

BOOSTING_KINDS = (KIND_GBM, KIND_XGB)

# documented defaults; the source material for tuned values is the grid
DEFAULT_N_ESTIMATORS = 100
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_BOOST_DEPTH = 3
DEFAULT_REG_LAMBDA = 1.0
DEFAULT_REG_GAMMA = 0.0

# the value types each parameter of ``fit_model`` takes; a bool, which
# Python counts as an int, is refused everywhere
PARAM_TYPES = {
    "n_estimators": numbers.Integral,
    "max_depth": (numbers.Integral, type(None)),
    "learning_rate": numbers.Real,
    "min_samples_split": numbers.Integral,
    "min_samples_leaf": numbers.Integral,
    "max_features": (numbers.Integral, type(None)),
    "reg_lambda": numbers.Real,
    "reg_gamma": numbers.Real,
}


# --------------------------------------------------------------------------
# model containers


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray
    intercept: float
    used_ridge_fallback: bool = False


@dataclass
class Leaf:
    value: float
    n_samples: int


@dataclass
class Split:
    feature_index: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Split | Leaf


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: int | None = None

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1 or None")


@dataclass
class EnsembleModel:
    kind: str  # bagging | forest | gbm | xgb
    trees: list
    learning_rate: float | None = None  # boosting only
    init_value: float | None = None  # boosting only
    per_tree_seeds: list[int] | None = None  # bagging/forest only
    reg_lambda: float | None = None  # xgb only
    reg_gamma: float | None = None  # xgb only


# --------------------------------------------------------------------------
# shared tree grower


def _best_split(X, g, srows, feats, total, min_leaf, lam):
    """Best (score, feature, threshold) over the candidate features
    ``feats`` of a node, or None when no legal split exists.

    ``srows`` holds the node's rows in ascending order of each feature,
    one row of indices per feature of ``X`` (shape (p, n)), with equal
    values in ascending row order; ``total`` is the node's gradient sum.
    Only the rows of ``srows`` for ``feats`` are searched.
    """
    n = srows.shape[1]
    rows = srows if feats.size == srows.shape[0] else srows[feats]  # (m, n)
    xs = X[rows, feats[:, None]]
    cum = g[rows].cumsum(axis=1)

    left_cnt = np.arange(1, n, dtype=np.float64)[None, :]
    right_cnt = n - left_cnt
    GL = cum[:, :-1]
    GR = total - GL
    scores = GL * GL / (left_cnt + lam) + GR * GR / (right_cnt + lam)
    thresholds = (xs[:, :-1] + xs[:, 1:]) / 2.0
    # a candidate needs distinct neighbours, a threshold that actually
    # separates them, and both children at or above the leaf minimum
    valid = (xs[:, 1:] > xs[:, :-1]) & (thresholds > xs[:, :-1])
    if min_leaf > 1:
        valid &= (left_cnt >= min_leaf) & (right_cnt >= min_leaf)

    # scores are non-negative, so -inf marks invalid candidates safely;
    # argmax takes the first maximum in row-major order, which realizes
    # the tie-break rule (lowest feature index, then lowest threshold)
    masked = np.where(valid, scores, -math.inf)
    j, b = divmod(int(masked.argmax()), n - 1)
    best = masked[j, b]
    if best == -math.inf:
        return None
    if not math.isfinite(best):
        raise NonFiniteSplit("split scores overflowed or are NaN; rescale the target")
    return float(best), int(feats[j]), float(thresholds[j, b])


# midpoints of values up to this magnitude cannot overflow: the sum of
# two of them stays below 2**1023
MAX_FEATURE_MAGNITUDE = 2.0**1022


def _presort(X):
    """The stable per-column order of ``X``, after checking that every
    midpoint between its values is finite."""
    if X.size and float(np.abs(X).max()) > MAX_FEATURE_MAGNITUDE:
        raise NonFiniteSplit(
            "a feature value exceeds 2**1022 in magnitude; rescale the features"
        )
    return np.argsort(X, axis=0, kind="stable")


def _grow_tree(X, g, config, lam, gamma, require_gain, rng, train_pred=None, presort=None):
    """Depth-first greedy growth on gradient sums.

    Nodes are processed root first, then the whole left subtree, then the
    right, so feature-subset draws consume ``rng`` in one documented
    order. ``train_pred``, when given, is filled with each training row's
    leaf value. Iterative so unlimited-depth trees cannot hit the Python
    recursion limit.

    Every node that may be split carries its rows in ascending order of
    each feature, as a (p, n) index array. The root's order is the stable
    column presort of ``X`` (``presort``, computed here when not given);
    a split hands each child the stable boolean partition of its
    parent's order, so a child's order is the presort filtered to the
    child's rows, and no node sorts again. A child that will never be
    searched (at the depth limit, or below ``min_samples_split`` rows)
    gets no order.
    """
    n_total, p = X.shape
    if presort is None:
        presort = _presort(X)
    all_feats = np.arange(p, dtype=np.intp)
    in_left = np.zeros(n_total, dtype=bool)  # scratch mask, cleared after each split
    root = None
    # stack entries: (row indices ascending, per-feature order or None,
    # depth, parent Split or None, side)
    root_order = np.ascontiguousarray(presort.T) if _searchable(n_total, 0, config) else None
    stack = [(np.arange(n_total, dtype=np.intp), root_order, 0, None, "")]
    while stack:
        idx, srows, depth, parent, side = stack.pop()
        gn = g[idx]
        n = idx.size
        total = float(gn.sum())

        node = None
        stopped = srows is None or bool((gn == gn[0]).all())
        if not stopped:
            if config.max_features is not None and config.max_features < p:
                feats = np.array(
                    sorted(rng.sample_without_replacement(p, config.max_features)),
                    dtype=np.intp,
                )
            else:
                feats = all_feats
            found = _best_split(X, g, srows, feats, total, config.min_samples_leaf, lam)
            if found is not None:
                score, feature, threshold = found
                if require_gain:
                    gain = 0.5 * (score - total * total / (n + lam)) - gamma
                    if gain <= 0.0:
                        found = None
            if found is not None:
                node = Split(
                    feature_index=feature, threshold=threshold, left=None, right=None
                )
                go_left = X[idx, feature] < threshold
                left, right = idx[go_left], idx[~go_left]
                search_left = _searchable(left.size, depth + 1, config)
                search_right = _searchable(right.size, depth + 1, config)
                left_order = right_order = None
                if search_left or search_right:
                    in_left[left] = True
                    sel = in_left[srows]
                    in_left[left] = False
                    if search_left:
                        left_order = srows[sel].reshape(p, left.size)
                    if search_right:
                        right_order = srows[~sel].reshape(p, right.size)
                # push right first so the left subtree is grown first
                stack.append((right, right_order, depth + 1, node, "right"))
                stack.append((left, left_order, depth + 1, node, "left"))

        if node is None:
            node = Leaf(value=-total / (n + lam), n_samples=n)
            if train_pred is not None:
                train_pred[idx] = node.value

        if parent is None:
            root = node
        else:
            setattr(parent, side, node)
    return root


def _searchable(n, depth, config) -> bool:
    """Whether a node of ``n`` rows at ``depth`` may be split."""
    return n >= config.min_samples_split and (
        config.max_depth is None or depth < config.max_depth
    )


def _tree_predict_matrix(tree, X):
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(tree, np.arange(X.shape[0], dtype=np.intp))]
    while stack:
        node, idx = stack.pop()
        if not idx.size:
            continue  # no row reaches this subtree
        if isinstance(node, Leaf):
            out[idx] = node.value
        else:
            go_left = X[idx, node.feature_index] < node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
    return out


def predict_tree(tree: TreeNode, x) -> float:
    """Route a single feature row to its leaf value."""
    return float(_tree_predict_matrix(tree, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


# --------------------------------------------------------------------------
# fitting


def _as_matrix(X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    return X


def _as_vector(y, n_rows) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != n_rows:
        raise ValueError("y must be a vector with one entry per row of X")
    return y


def fit_cart(X, y, config: TreeConfig | None = None, rng_seed: int = 0) -> TreeNode:
    """Greedy CART regression tree minimizing weighted child SSE."""
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])
    config = config or TreeConfig()
    rng = Xoshiro256StarStar(rng_seed)
    return _grow_tree(X, -y, config, 0.0, 0.0, False, rng)


def _fit_bootstrap_ensemble(kind, X, y, n_estimators, config, seed):
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    n = X.shape[0]
    seeds = [derive_seed(seed, i) for i in range(n_estimators)]
    trees = []
    for tree_seed in seeds:
        rng = Xoshiro256StarStar(tree_seed)
        boot = np.array(rng.bootstrap_indices(n), dtype=np.intp)
        trees.append(fit_cart(X[boot], y[boot], config, rng.next_uint64()))
    return EnsembleModel(kind=kind, trees=trees, per_tree_seeds=seeds)


def fit_bagging(X, y, n_estimators=DEFAULT_N_ESTIMATORS, tree_config=None, seed=0) -> EnsembleModel:
    """Bootstrap-aggregated CART trees; prediction is the tree mean."""
    return _fit_bootstrap_ensemble(
        KIND_BAGGING, X, y, n_estimators, tree_config or TreeConfig(), seed
    )


def default_max_features(n_features: int) -> int:
    """Forest default feature-subsample size: floor(p/3), at least 1."""
    return max(1, n_features // 3)


def fit_random_forest(
    X, y, n_estimators=DEFAULT_N_ESTIMATORS, tree_config=None, seed=0
) -> EnsembleModel:
    """Bagging plus per-split feature subsampling."""
    X = _as_matrix(X)
    config = tree_config or TreeConfig()
    if config.max_features is None:
        config = replace(config, max_features=default_max_features(X.shape[1]))
    return _fit_bootstrap_ensemble(KIND_FOREST, X, y, n_estimators, config, seed)


def _check_boost_config(config: TreeConfig) -> TreeConfig:
    if config.max_features is not None:
        raise ValueError("column subsampling is not supported for boosting")
    return config


def _fit_boosting(kind, X, y, n_estimators, learning_rate, config, lam, gamma):
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError("learning_rate must be in (0, 1]")
    init = float(np.mean(y))
    F = np.full(X.shape[0], init, dtype=np.float64)
    trees = []
    require_gain = kind == KIND_XGB
    presort = _presort(X)  # X is fixed across stages
    for _ in range(n_estimators):
        g = F - y
        pred = np.empty(X.shape[0], dtype=np.float64)
        tree = _grow_tree(
            X, g, config, lam, gamma, require_gain, None, train_pred=pred, presort=presort
        )
        F = F + learning_rate * pred
        trees.append(tree)
    return EnsembleModel(
        kind=kind,
        trees=trees,
        learning_rate=learning_rate,
        init_value=init,
        reg_lambda=lam if kind == KIND_XGB else None,
        reg_gamma=gamma if kind == KIND_XGB else None,
    )


def fit_gbm(
    X,
    y,
    n_estimators=DEFAULT_N_ESTIMATORS,
    learning_rate=DEFAULT_LEARNING_RATE,
    tree_config=None,
) -> EnsembleModel:
    """Stage-wise boosting: each tree fits the current residuals (the
    negative squared-loss gradient) and joins the model scaled by the
    learning rate. The initial prediction is the target mean."""
    config = _check_boost_config(tree_config or TreeConfig(max_depth=DEFAULT_BOOST_DEPTH))
    return _fit_boosting(KIND_GBM, X, y, n_estimators, learning_rate, config, 0.0, 0.0)


def fit_xgb(
    X,
    y,
    n_estimators=DEFAULT_N_ESTIMATORS,
    learning_rate=DEFAULT_LEARNING_RATE,
    tree_config=None,
    reg_lambda=DEFAULT_REG_LAMBDA,
    reg_gamma=DEFAULT_REG_GAMMA,
) -> EnsembleModel:
    """Second-order boosting for squared loss (unit curvature per row).

    Leaf weights are -G/(H + reg_lambda); a split is kept only when
    0.5 * (GL^2/(HL+reg_lambda) + GR^2/(HR+reg_lambda) - G^2/(H+reg_lambda))
    - reg_gamma is positive. With both regularizers at zero this is
    exactly ``fit_gbm``.
    """
    if reg_lambda < 0.0 or reg_gamma < 0.0:
        raise ValueError("regularizers must be non-negative")
    config = _check_boost_config(tree_config or TreeConfig(max_depth=DEFAULT_BOOST_DEPTH))
    return _fit_boosting(
        KIND_XGB, X, y, n_estimators, learning_rate, config, reg_lambda, reg_gamma
    )


# --------------------------------------------------------------------------
# prediction


def predict(model, X) -> np.ndarray:
    """Predictions for a matrix of rows, dispatching on the model type."""
    X = _as_matrix(X)
    try:
        if isinstance(model, LinearModel):
            if X.shape[1] != model.coefficients.size:
                raise DimensionMismatch(model.coefficients.size, X.shape[1])
            return X @ model.coefficients + model.intercept
        if isinstance(model, (Split, Leaf)):
            return _tree_predict_matrix(model, X)
        if isinstance(model, EnsembleModel):
            if model.kind in BOOSTING_KINDS:
                for out in staged_predict(model, X):
                    pass
                return out
            acc = np.zeros(X.shape[0], dtype=np.float64)
            for tree in model.trees:
                acc += _tree_predict_matrix(tree, X)
            return acc / len(model.trees)
    except IndexError:
        raise DimensionMismatch(-1, X.shape[1]) from None
    raise TypeError(f"cannot predict with {type(model).__name__}")


def staged_predict(model: EnsembleModel, X):
    """Yield a boosting model's predictions after each stage: the initial
    constant, then ``init + learning_rate * tree`` accumulated tree by tree
    in fit order. The k-th array is exactly what the model cut to its
    first k trees predicts, and the last is ``predict(model, X)``."""
    X = _as_matrix(X)
    out = np.full(X.shape[0], model.init_value, dtype=np.float64)
    yield out
    for tree in model.trees:
        out = out + model.learning_rate * _tree_predict_matrix(tree, X)
        yield out


def staged_train_r2(model: EnsembleModel, X, y) -> list[tuple[int, float]]:
    """R-squared of every boosting prefix, iteration 0 (initial constant)
    through n_estimators (full model), accumulated in fit order."""
    if not isinstance(model, EnsembleModel) or model.kind not in BOOSTING_KINDS:
        raise ValueError("staged R2 tracking needs a boosting model")
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])
    return [(i, _r2_score(y, pred)) for i, pred in enumerate(staged_predict(model, X))]


# --------------------------------------------------------------------------
# ordinary least squares


def _cholesky_solve(G, b, pivot_floor):
    """Solve G x = b for symmetric positive definite G, or None when a
    pivot falls at or below ``pivot_floor``."""
    n = G.shape[0]
    L = np.zeros_like(G)
    for j in range(n):
        d = G[j, j] - float(L[j, :j] @ L[j, :j])
        if d < pivot_floor or d <= 0.0:
            return None
        L[j, j] = math.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (G[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    z = np.zeros(n)
    for i in range(n):
        z[i] = (b[i] - float(L[i, :i] @ z[:i])) / L[i, i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (z[i] - float(L[i + 1 :, i] @ x[i + 1 :])) / L[i, i]
    return x


def fit_ols(X, y) -> LinearModel:
    """Least squares via the normal equations on the intercept-augmented
    matrix.

    When a Cholesky pivot of the Gram matrix drops below 1e-10 times its
    largest diagonal entry the system is treated as numerically singular
    and refit with 1e-8 added to the diagonal (a tiny ridge); if even that
    breaks down, SingularAfterRidge is raised. A solution that is not
    finite (the data overflowed) raises NonFiniteResult.
    """
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])
    n, p = X.shape
    if n < p + 1:
        raise TooFewRows(f"need at least {p + 1} rows to fit {p} coefficients")
    A = np.column_stack([X, np.ones(n)])
    G = A.T @ A
    b = A.T @ y
    beta = _cholesky_solve(G, b, 1e-10 * float(np.max(np.diag(G))))
    used_ridge = False
    if beta is None:
        used_ridge = True
        beta = _cholesky_solve(G + 1e-8 * np.eye(p + 1), b, 0.0)
        if beta is None:
            raise SingularAfterRidge("normal equations unsolvable even with ridge")
    if not np.all(np.isfinite(beta)):
        raise NonFiniteResult("the least-squares solution is not finite; rescale the data")
    return LinearModel(
        coefficients=beta[:p].copy(),
        intercept=float(beta[p]),
        used_ridge_fallback=used_ridge,
    )


# --------------------------------------------------------------------------
# uniform fitting surface for tuning and the CLI


def _tree_config_from(params, default_depth) -> TreeConfig:
    return TreeConfig(
        max_depth=params.get("max_depth", default_depth),
        min_samples_split=params.get("min_samples_split", 2),
        min_samples_leaf=params.get("min_samples_leaf", 1),
        max_features=params.get("max_features"),
    )


def fit_model(kind: str, X, y, params: dict | None = None, seed: int = 0):
    """Fit any of the six families from a flat parameter dict."""
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    params = dict(params or {})
    unknown = params.keys() - PARAM_TYPES.keys()
    if unknown:
        raise ValueError(f"unknown parameters: {sorted(unknown)}")
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, PARAM_TYPES[name]):
            raise ValueError(f"parameter {name} cannot be {value!r}")
    if kind == KIND_LINEAR:
        return fit_ols(X, y)
    config = _tree_config_from(params, DEFAULT_BOOST_DEPTH if kind in BOOSTING_KINDS else None)
    if kind == KIND_TREE:
        return fit_cart(X, y, config, seed)
    n_estimators = params.get("n_estimators", DEFAULT_N_ESTIMATORS)
    if kind == KIND_BAGGING:
        return fit_bagging(X, y, n_estimators, config, seed)
    if kind == KIND_FOREST:
        return fit_random_forest(X, y, n_estimators, config, seed)
    learning_rate = params.get("learning_rate", DEFAULT_LEARNING_RATE)
    if kind == KIND_GBM:
        return fit_gbm(X, y, n_estimators, learning_rate, config)
    return fit_xgb(
        X, y, n_estimators, learning_rate, config,
        params.get("reg_lambda", DEFAULT_REG_LAMBDA),
        params.get("reg_gamma", DEFAULT_REG_GAMMA),
    )
