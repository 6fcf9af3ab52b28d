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
values keep ascending row order) and keeps every node's rows in that
order, one index row per feature. A split partitions the parent's order
into its two children with one boolean mask, which keeps each child's
rows in the same order, so no node sorts again (the attribute lists of
SPRINT, Shafer, Agrawal & Mehta, VLDB 1996). It grows all the trees of
a bagging or forest ensemble in lockstep, and batches the split searches
of many small nodes into one numpy pass, as XGBoost's exact greedy
method gathers the statistics of many nodes in one scan over presorted
columns (Chen & Guestrin, KDD 2016, section 4.1).

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


@dataclass(slots=True)
class Leaf:
    value: float
    n_samples: int


@dataclass(slots=True)
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


# midpoints of values up to this magnitude cannot overflow: the sum of
# two of them stays below 2**1023
MAX_FEATURE_MAGNITUDE = 2.0**1022

# Batching pays for small nodes, whose numpy calls cost more than their
# arithmetic. A node of more than _ALONE_CELLS candidate cells (features
# x padded rows) is searched alone, and a split of more than _ALONE_ROWS
# rows is partitioned alone. One batched search holds at most
# _SEARCH_CELLS cells, and one batched partition at most _PARTITION_CELLS
# index cells, which bounds their working memory.
_ALONE_CELLS = 2**11
_ALONE_ROWS = 2**9
_SEARCH_CELLS = 2**15
_PARTITION_CELLS = 2**17

# the most cells of bootstrap features and index rows (rows x (2
# features + 1), 8 bytes each) that one lockstep call holds; a larger
# ensemble grows in groups of trees
_LOCKSTEP_CELLS = 2**23


def _presort(XT):
    """The stable order of each row of ``XT`` (one row per feature), after
    checking that every midpoint between its values is finite."""
    if XT.size and float(np.abs(XT).max()) > MAX_FEATURE_MAGNITUDE:
        raise NonFiniteSplit(
            "a feature value exceeds 2**1022 in magnitude; rescale the features"
        )
    return np.argsort(XT, axis=1, kind="stable")


def _grow_trees(XT, g, config, lam, gamma, require_gain, rngs, train_pred=None, presort=None):
    """Grow ``len(rngs)`` trees in lockstep, depth first, on gradient sums.

    ``XT`` is the feature matrix transposed, one contiguous row per
    feature. Tree ``t`` owns the ``t``-th of ``len(rngs)`` equal blocks of
    its columns and of ``g``, and draws its feature subsets from
    ``rngs[t]``. Each tree grows its nodes root first, then the whole left
    subtree, then the right, so its draws consume its own stream in one
    documented order. ``train_pred``, when given, is filled with each
    row's leaf value.

    Each step takes from every unfinished tree its next nodes, up to and
    including the first that may draw from its stream; a tree that draws
    nothing gives all its pending nodes, which are one level of it. The
    step sums their gradients, searches their splits and partitions their
    rows together, so the numpy calls of small nodes are shared. The
    order of work across nodes that draw nothing changes no result.

    A node is a segment ``[start, start + size)`` of every row of one
    ``(p + 1, n)`` index array: row ``f < p`` holds the node's rows in
    ascending order of feature ``f`` (equal values in ascending row
    order), row ``p`` its rows ascending. The roots start from the stable
    presort of their blocks (``presort``, of a single tree, is computed
    here when not given); a split reorders its segment stably, left rows
    first, so no node sorts again. The feature rows of a segment whose
    children will never be searched are left as they are.
    """
    p, n_rows = XT.shape
    n = n_rows // len(rngs)
    order = np.empty((p + 1, n_rows), dtype=np.intp)
    order[p] = np.arange(n_rows)
    for t in range(len(rngs)):
        block = slice(t * n, (t + 1) * n)
        order[:p, block] = _presort(XT[:, block]) if presort is None else presort
        if t:
            order[:p, block] += t * n
    rows = order[p]
    max_depth = math.inf if config.max_depth is None else config.max_depth
    min_split = config.min_samples_split
    subset = config.max_features
    if subset is not None and subset >= p:
        subset = None
    all_feats = list(range(p))
    in_left = np.zeros(n_rows, dtype=bool)  # scratch mask, cleared after each use
    # per tree, sorted feature subsets drawn ahead in blocks of 16, 32, 64, ...
    # rows, the next one last; its stream is its own, so extra rows go unread
    ahead = [[] for _ in rngs]
    block = [16] * len(rngs)
    roots = [None] * len(rngs)
    # per tree, the nodes left to grow, the next one last:
    # (start, size, depth, parent Split or None, side)
    stacks = [[(t * n, n, 0, None, "")] for t in range(len(rngs))]
    live = list(range(len(rngs)))
    # padded candidates and an overflowing target may meet inf or NaN; a
    # best split that is not finite raises NonFiniteSplit instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live:
            batch, owner, may_split = [], [], []
            for t in live:
                stack = stacks[t]
                while stack:
                    node = stack.pop()
                    batch.append(node)
                    owner.append(t)
                    may_split.append(node[1] >= min_split and node[2] < max_depth)
                    if subset and may_split[-1]:
                        break
            totals, constant = _node_totals(g, rows, batch, may_split)
            searched, feats = [], []
            for i, same in enumerate(constant):
                if not same:
                    searched.append(i)
                    t = owner[i]
                    if subset and not ahead[t]:
                        rows_ahead = np.sort(rngs[t].sample_rows(p, subset, block[t]), axis=1)
                        ahead[t] = rows_ahead[::-1].tolist()
                        block[t] *= 2
                    feats.append(ahead[t].pop() if subset else all_feats)
            found = [None] * len(batch)
            if searched:
                bests = _best_splits(
                    XT, g, order, batch, totals, searched, feats, config.min_samples_leaf, lam
                )
                for i, best in zip(searched, bests):
                    found[i] = best
            splits = []
            for i, (start, size, depth, parent, side) in enumerate(batch):
                best = found[i]
                if best is not None and require_gain:
                    total = totals[i]
                    if 0.5 * (best[0] - total * total / (size + lam)) - gamma <= 0.0:
                        best = None
                if best is None:
                    node = Leaf(-totals[i] / (size + lam), size)
                    if train_pred is not None:
                        train_pred[rows[start:start + size]] = node.value
                else:
                    _, feature, threshold, n_left = best
                    node = Split(feature, threshold, None, None)
                    # no child of fewer than size - 1 rows is ever searched
                    splits.append((start, size, n_left, feature, threshold,
                                   depth + 1 < max_depth and size > min_split))
                    stack = stacks[owner[i]]
                    stack.append((start + n_left, size - n_left, depth + 1, node, "right"))
                    stack.append((start, n_left, depth + 1, node, "left"))
                if parent is None:
                    roots[owner[i]] = node
                else:
                    setattr(parent, side, node)
            if splits:
                _partition(XT, order, in_left, splits)
            live = [t for t in live if stacks[t]]
    return roots


# what ``ndarray.sum`` and ``ndarray.all`` call, without their wrappers
_add = np.add.reduce
_all = np.logical_and.reduce


def _node_totals(g, rows, batch, may_split):
    """The gradient sum of each node of ``batch``, a segment of ``rows``,
    and whether its gradient is constant, which is taken as true where
    ``may_split`` is false. Nodes of one size are summed as the rows of
    one (k, size) array, and each row sums bit for bit as its node's own
    ``g[...].sum()``; padding nodes to a common size would not."""
    by_size = {}
    for i, node in enumerate(batch):
        by_size.setdefault(node[1], []).append(i)
    totals = [0.0] * len(batch)
    constant = [True] * len(batch)
    for size, members in by_size.items():
        if len(members) == 1:
            i = members[0]
            start = batch[i][0]
            gn = g.take(rows[start:start + size])
            totals[i] = float(_add(gn))
            if may_split[i]:
                constant[i] = bool(_all(gn == gn[0]))
            continue
        starts = np.array([batch[i][0] for i in members])
        gn = g.take(rows.take(starts[:, None] + np.arange(size)))
        for i, total in zip(members, _add(gn, axis=1).tolist()):
            totals[i] = total
        if any(may_split[i] for i in members):
            for i, same in zip(members, _all(gn == gn[:, :1], axis=1).tolist()):
                constant[i] = same or not may_split[i]
    return totals, constant


def _best_splits(XT, g, order, nodes, totals, searched, feats, min_leaf, lam):
    """The best (score, feature, threshold, left size) of each node
    ``nodes[i]``, ``i`` in ``searched``, or None where no legal split
    exists. A node is a segment (start, size, ...) of ``order``, of at
    least two rows, with gradient sum ``totals[i]``; ``feats`` holds the
    sorted candidate features of each searched node, a list of the same
    length for every node.

    Small nodes are searched together, in chunks padded to the widest
    power-of-two row count among them; a node alone in its chunk is
    searched at its own width.
    """
    m = len(feats[0])
    out = [None] * len(searched)
    alone, small = [], []  # (padded width, index into ``searched``)
    for k, i in enumerate(searched):
        width = 1 << (nodes[i][1] - 1).bit_length()
        (alone if width * m > _ALONE_CELLS else small).append((width, k))
    # chunks of nodes in ascending width, each padded to its widest
    small.sort()
    chunks, chunk = [], []
    for width, k in small:
        if chunk and (len(chunk) + 1) * width * m > _SEARCH_CELLS:
            chunks.append((chunk_width, chunk))
            chunk = []
        chunk.append(k)
        chunk_width = width
    if chunk:
        chunks.append((chunk_width, chunk))
    for width, chunk in chunks:
        if len(chunk) == 1:
            alone.append((width, chunk[0]))
            continue
        starts = np.array([nodes[searched[k]][0] for k in chunk])
        sizes = np.array([nodes[searched[k]][1] for k in chunk])
        # a segment's padding repeats its last row, so its padded
        # neighbours are equal and no padded candidate is legal
        positions = np.minimum(
            starts[:, None] + np.arange(width), (starts + sizes - 1)[:, None]
        )
        chunk_feats = np.array([feats[k] for k in chunk])[:, :, None]
        rows = order.ravel().take(chunk_feats * order.shape[1] + positions[:, None, :])
        scores, thresholds = _scores(
            XT, g, rows, chunk_feats, sizes[:, None, None].astype(np.float64),
            np.array([totals[searched[k]] for k in chunk])[:, None, None], min_leaf, lam,
        )
        flat = scores.reshape(len(chunk), -1).argmax(axis=1)
        j, b = np.divmod(flat, width - 1)
        node = np.arange(len(chunk))
        for k, best, feature, threshold, n_left in zip(
            chunk, scores[node, j, b].tolist(), chunk_feats[node, j, 0].tolist(),
            thresholds[node, j, b].tolist(), (b + 1).tolist(),
        ):
            out[k] = _checked(best, feature, threshold, n_left)
    for _, k in alone:
        i = searched[k]
        out[k] = _search_one(XT, g, order, nodes[i], totals[i], feats[k], min_leaf, lam)
    return out


def _search_one(XT, g, order, node, total, feats, min_leaf, lam):
    """:func:`_best_splits` of one node, over its own rows only."""
    start, size = node[:2]
    m = len(feats)
    # sorted distinct features ending at m - 1 are 0 .. m - 1
    rows = order[:m, start:start + size] if feats[-1] == m - 1 else order[feats, start:start + size]
    scores, thresholds = _scores(
        XT, g, rows[None], np.array(feats)[None, :, None], size, total, min_leaf, lam
    )
    j, b = divmod(int(scores.argmax()), size - 1)
    return _checked(float(scores[0, j, b]), feats[j], float(thresholds[0, j, b]), b + 1)


def _scores(XT, g, rows, feats, sizes, totals, min_leaf, lam):
    """(scores, thresholds) of every candidate split of k nodes, each
    (k, m, w - 1), with -inf scores where a candidate is not legal.
    ``rows`` (k, m, w) holds each node's rows in ascending order of each
    of its m candidate features ``feats`` (k, m, 1); ``sizes`` and
    ``totals`` are the nodes' row counts and gradient sums, shaped
    (k, 1, 1), or scalars for one node. Candidates past a node's size
    must not be legal."""
    xs = XT.ravel().take(rows + feats * XT.shape[1])
    GL = g.take(rows).cumsum(axis=2)[:, :, :-1]
    left_cnt = np.arange(1, rows.shape[2], dtype=np.float64)
    right_cnt = sizes - left_cnt
    GR = totals - GL
    if lam:
        scores = GL * GL / (left_cnt + lam) + GR * GR / (right_cnt + lam)
    else:  # adding 0.0 to a positive count changes no bit
        scores = GL * GL / left_cnt + GR * GR / right_cnt
    lo = xs[:, :, :-1]
    thresholds = (lo + xs[:, :, 1:]) / 2.0
    # a candidate needs a threshold that separates its neighbours (so
    # they are distinct), and both children at or above the leaf minimum
    valid = thresholds > lo
    if min_leaf > 1:
        valid &= (left_cnt >= min_leaf) & (right_cnt >= min_leaf)
    # scores are non-negative, so -inf marks invalid candidates safely;
    # argmax takes the first maximum in row-major order, which realizes
    # the tie-break rule (lowest feature index, then lowest threshold)
    return np.where(valid, scores, -math.inf), thresholds


def _checked(best, feature, threshold, n_left):
    """A found split as (score, feature, threshold, left child's size),
    None when its score is -inf (no legal candidate). The left child is
    the first ``n_left`` rows in the feature's order, the values below
    the threshold."""
    if best == -math.inf:
        return None
    if not math.isfinite(best):
        raise NonFiniteSplit("split scores overflowed or are NaN; rescale the target")
    return best, feature, threshold, n_left


def _partition(XT, order, in_left, splits):
    """Split segments of ``order`` in place, each left rows first. A split
    is (start, size, left child's size, feature, threshold, whether its
    children may be searched); a row goes left when its feature value is
    below the threshold. Small splits are partitioned together, in
    chunks; a split partitioned alone whose children are never searched
    reorders only its ascending row."""
    p = order.shape[0] - 1
    chunks, chunk, cells, alone = [], [], 0, []
    for split in splits:
        size = split[1]
        if size > _ALONE_ROWS:
            alone.append(split)
            continue
        if cells + size * (p + 1) > _PARTITION_CELLS:
            chunks.append(chunk)
            chunk, cells = [], 0
        chunk.append(split)
        cells += size * (p + 1)
    for chunk in chunks + [chunk]:
        if len(chunk) > 1:
            _partition_segments(XT, order, in_left, chunk)
        else:
            alone += chunk
    for start, size, n_left, feature, threshold, searchable in alone:
        rows = order[p, start:start + size]
        go_left = XT[feature].take(rows) < threshold
        segment = order[0 if searchable else p:, start:start + size]
        if searchable:
            in_left[rows] = go_left
            go_left = in_left.take(segment).ravel()
            in_left[rows] = False
        # np.compress of flat arrays is much faster than a 2-D mask index
        values = segment.ravel()
        lefts, rights = np.compress(go_left, values), np.compress(~go_left, values)
        segment[:, :n_left] = lefts.reshape(-1, n_left)
        segment[:, n_left:] = rights.reshape(-1, size - n_left)


def _partition_segments(XT, order, in_left, splits):
    """:func:`_partition` of several splits at once, every row of each."""
    p = order.shape[0] - 1
    starts, sizes, n_left, feats, thresholds, _ = (np.array(c) for c in zip(*splits))
    offsets = np.cumsum(sizes) - sizes  # of each segment in ``pos``
    pos = np.arange(offsets[-1] + sizes[-1]) + np.repeat(starts - offsets, sizes)
    rows = order[p].take(pos)
    in_left[rows] = XT.ravel().take(rows + np.repeat(feats * XT.shape[1], sizes)) < np.repeat(
        thresholds, sizes
    )
    values = order.take(pos, axis=1)
    go_left = in_left.take(values).ravel()
    in_left[rows] = False
    # the lefts and rights of each segment come in segment order
    lefts_before = np.cumsum(n_left) - n_left
    to_left = np.arange(lefts_before[-1] + n_left[-1]) + np.repeat(
        starts - lefts_before, n_left
    )
    to_right = np.arange(pos.size - to_left.size) + np.repeat(
        starts + n_left - offsets + lefts_before, sizes - n_left
    )
    values = values.ravel()
    lefts, rights = np.compress(go_left, values), np.compress(~go_left, values)
    order[:, to_left] = lefts.reshape(p + 1, -1)
    order[:, to_right] = rights.reshape(p + 1, -1)


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


def _training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y of a tree fit, which needs at least one row."""
    X = _as_matrix(X)
    y = _as_vector(y, X.shape[0])
    if y.size == 0:
        raise TooFewRows("need at least one row to fit a model")
    return X, y


def fit_cart(X, y, config: TreeConfig | None = None, rng_seed: int = 0) -> TreeNode:
    """Greedy CART regression tree minimizing weighted child SSE."""
    X, y = _training_data(X, y)
    config = config or TreeConfig()
    XT = np.ascontiguousarray(X.T)
    return _grow_trees(XT, -y, config, 0.0, 0.0, False, [Xoshiro256StarStar(rng_seed)])[0]


def _fit_bootstrap_ensemble(kind, X, y, n_estimators, config, seed):
    X, y = _training_data(X, y)
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    n, p = X.shape
    seeds = [derive_seed(seed, i) for i in range(n_estimators)]
    group = max(1, _LOCKSTEP_CELLS // max(1, n * (2 * p + 1)))
    trees = []
    for first in range(0, n_estimators, group):
        boots, rngs = [], []
        for tree_seed in seeds[first:first + group]:
            rng = Xoshiro256StarStar(tree_seed)
            boots += rng.bootstrap_indices(n)
            rngs.append(Xoshiro256StarStar(rng.next_uint64()))
        # tree i of the group grows on the i-th block of n bootstrap rows
        boot = np.array(boots, dtype=np.intp)
        XT = np.ascontiguousarray(X.T.take(boot, axis=1))
        trees += _grow_trees(XT, -y[boot], config, 0.0, 0.0, False, rngs)
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
    X, y = _training_data(X, y)
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError("learning_rate must be in (0, 1]")
    init = float(np.mean(y))
    F = np.full(X.shape[0], init, dtype=np.float64)
    trees = []
    require_gain = kind == KIND_XGB
    XT = np.ascontiguousarray(X.T)
    presort = _presort(XT)  # X is fixed across stages
    for _ in range(n_estimators):
        g = F - y
        pred = np.empty(X.shape[0], dtype=np.float64)
        (tree,) = _grow_trees(
            XT, g, config, lam, gamma, require_gain, [None], train_pred=pred, presort=presort
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
        # a sum that overflows gives inf or NaN, which callers refuse as
        # NonFiniteResult; numpy need not warn about it first
        with np.errstate(over="ignore", invalid="ignore"):
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
        step = _tree_predict_matrix(tree, X)
        with np.errstate(over="ignore", invalid="ignore"):  # as in ``predict``
            out = out + model.learning_rate * step
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
