import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from movierev import models
from movierev.errors import (
    DimensionMismatch,
    ModelError,
    NonFiniteResult,
    NonFiniteSplit,
    SingularAfterRidge,
    TooFewRows,
)
from movierev.models import (
    EnsembleModel,
    Leaf,
    Split,
    TreeConfig,
    default_max_features,
    fit_bagging,
    fit_cart,
    fit_gbm,
    fit_model,
    fit_ols,
    fit_random_forest,
    fit_xgb,
    predict,
    predict_tree,
    staged_predict,
    staged_train_r2,
)
from movierev.models import _grow_trees  # engine-level check of the leaf formula
from movierev.rng import Xoshiro256StarStar, derive_seed
from tests.conftest import run_python


# --------------------------------------------------------------------------
# brute-force oracles


def oracle_best_split(X, y, min_leaf=1):
    """Exhaustive search over midpoint candidates minimizing weighted
    child SSE; ascending (feature, threshold) enumeration breaks ties."""
    best = None
    best_sse = None
    for f in range(X.shape[1]):
        u = np.unique(X[:, f])
        for a, b in zip(u[:-1], u[1:]):
            t = (a + b) / 2.0
            if not t > a:
                continue
            mask = X[:, f] < t
            nl, nr = int(mask.sum()), int((~mask).sum())
            if nl < min_leaf or nr < min_leaf:
                continue
            yl, yr = y[mask], y[~mask]
            sse = float(np.sum((yl - yl.mean()) ** 2) + np.sum((yr - yr.mean()) ** 2))
            if best_sse is None or sse < best_sse:
                best_sse = sse
                best = (f, float(t))
    return best


def oracle_tree(X, y, depth, config: TreeConfig):
    if (
        y.size < config.min_samples_split
        or (config.max_depth is not None and depth >= config.max_depth)
        or np.all(y == y[0])
    ):
        return ("leaf", float(np.mean(y)), y.size)
    found = oracle_best_split(X, y, config.min_samples_leaf)
    if found is None:
        return ("leaf", float(np.mean(y)), y.size)
    f, t = found
    mask = X[:, f] < t
    return (
        "split",
        f,
        t,
        oracle_tree(X[mask], y[mask], depth + 1, config),
        oracle_tree(X[~mask], y[~mask], depth + 1, config),
    )


def tree_structure(node):
    if isinstance(node, Leaf):
        return ("leaf", node.value, node.n_samples)
    return (
        "split",
        node.feature_index,
        node.threshold,
        tree_structure(node.left),
        tree_structure(node.right),
    )


# --------------------------------------------------------------------------
# ordinary least squares


class TestOls:
    def test_exact_linear_relation(self):
        model = fit_ols([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-10)
        assert model.intercept == pytest.approx(0.0, abs=1e-10)
        assert not model.used_ridge_fallback

    def test_closed_form_simple_regression(self):
        # oracle: slope = Sxy/Sxx = 1/2, intercept = ybar - slope*xbar = 2/3
        model = fit_ols([[1.0], [2.0], [3.0]], [1.0, 2.0, 2.0])
        assert model.coefficients[0] == pytest.approx(0.5, abs=1e-10)
        assert model.intercept == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_random_fixtures_match_analytic_slope(self):
        rs = np.random.RandomState(0)
        for _ in range(20):
            x = rs.randn(30)
            y = rs.randn(30)
            sxy = np.sum((x - x.mean()) * (y - y.mean()))
            sxx = np.sum((x - x.mean()) ** 2)
            slope = sxy / sxx
            intercept = y.mean() - slope * x.mean()
            model = fit_ols(x[:, None], y)
            assert abs(model.coefficients[0] - slope) < 1e-10
            assert abs(model.intercept - intercept) < 1e-10

    def test_residuals_orthogonal_to_features(self):
        rs = np.random.RandomState(1)
        X = rs.randn(60, 4)
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rs.randn(60)
        model = fit_ols(X, y)
        resid = y - predict(model, X)
        for j in range(4):
            a = X[:, j]
            assert abs(resid @ a) <= 1e-6 * np.linalg.norm(resid) * np.linalg.norm(a)
        assert abs(resid.sum()) <= 1e-6 * np.linalg.norm(resid) * math.sqrt(60)

    def test_duplicated_column_triggers_ridge_and_still_fits(self):
        rs = np.random.RandomState(2)
        base = rs.randn(40)
        X = np.column_stack([base, base])
        y = 3.0 * base + rs.randn(40) * 0.1
        model = fit_ols(X, y)
        assert model.used_ridge_fallback
        ours = float(np.sum((y - predict(model, X)) ** 2))
        # independent oracle for the attainable minimum loss
        coef, *_ = np.linalg.lstsq(np.column_stack([X, np.ones(40)]), y, rcond=None)
        best = float(np.sum((y - np.column_stack([X, np.ones(40)]) @ coef) ** 2))
        assert ours <= best * (1.0 + 1e-6) + 1e-6

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            fit_ols([[1.0, 2.0]], [1.0])

    def test_non_finite_solution_raises(self):
        """X'y overflows for a target of 1e308; the solution used to come
        back as NaN coefficients."""
        X = np.column_stack([np.arange(6.0), np.arange(6.0) ** 2])
        y = np.array([1.0, 2.0, 1e308, 3.0, 5.0, 4.0])
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResult, match="not finite"):
            fit_ols(X, y)

    def test_all_zero_features_after_ridge(self):
        # two identical zero columns have no information at all; the ridge
        # keeps the system solvable and puts everything in the intercept
        X = np.zeros((5, 2))
        y = np.arange(5.0)
        model = fit_ols(X, y)
        assert model.used_ridge_fallback
        assert model.intercept == pytest.approx(2.0, rel=1e-6)


# --------------------------------------------------------------------------
# CART


class TestCart:
    def test_depth_one_step_function(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_cart(X, y, TreeConfig(max_depth=1))
        assert isinstance(tree, Split)
        # oracle: brute force over the three midpoints picks 1.5
        assert oracle_best_split(X, y) == (0, 1.5)
        assert (tree.feature_index, tree.threshold) == (0, 1.5)
        assert (tree.left.value, tree.right.value) == (0.0, 1.0)
        assert (tree.left.n_samples, tree.right.n_samples) == (2, 2)

    def test_overflowing_split_scores_raise(self):
        # every target is finite, but squared gradient sums overflow, and
        # the root would split at 0.5 where the SSE optimum is 397.5
        X = np.arange(400.0).reshape(-1, 1)
        y = np.array([2.0 ** (i + 150) for i in range(400)])
        assert np.all(np.isfinite(y))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteSplit) as err:
            fit_cart(X, y, TreeConfig(max_depth=1))
        assert isinstance(err.value, ModelError)

    def test_huge_neighbours_refused_within_seconds(self):
        # the midpoint of 1e308 and 1.5e308 overflows to inf, which sent
        # every row left, and the grower never returned
        code = (
            "import numpy as np; from movierev.models import fit_cart; "
            "fit_cart(np.array([[1e308], [1.5e308], [1.6e308]]), [0.0, 1.0, 1.0])"
        )
        proc = run_python(["-c", code], timeout=30)
        assert proc.returncode == 1
        assert "NonFiniteSplit" in proc.stderr and "rescale the features" in proc.stderr

    @pytest.mark.parametrize("fit", [
        lambda X, y: fit_cart(X, y, TreeConfig(max_depth=3)),
        lambda X, y: fit_gbm(X, y, n_estimators=2),
        lambda X, y: fit_random_forest(X, y, n_estimators=2, tree_config=TreeConfig(max_depth=3)),
    ], ids=["cart", "gbm", "forest"])
    def test_feature_beyond_two_to_the_1022_raises(self, fit):
        X = np.array([[1.0, 1e308], [2.0, 1.5e308], [3.0, -1.6e308]])
        with pytest.raises(NonFiniteSplit, match="rescale the features") as err:
            fit(X, np.array([0.0, 1.0, 1.0]))
        assert isinstance(err.value, ModelError)

    def test_feature_bound_is_inclusive(self):
        big = 2.0**1022
        tree = fit_cart(np.array([[-big], [big], [big]]), [0.0, 1.0, 1.0])
        assert (tree.threshold, tree.left.value, tree.right.value) == (0.0, 0.0, 1.0)

    def test_nan_target_raises(self):
        X = np.arange(6.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, np.nan, 3.0, 4.0, 5.0])
        with np.errstate(all="ignore"), pytest.raises(NonFiniteSplit):
            fit_cart(X, y)

    def test_constant_target_is_single_leaf(self):
        tree = fit_cart([[0.0], [5.0], [9.0]], [4.0, 4.0, 4.0])
        assert isinstance(tree, Leaf)
        assert tree.value == 4.0
        assert tree.n_samples == 3

    def test_full_depth_memorizes_distinct_rows(self):
        rs = np.random.RandomState(3)
        X = rs.rand(40, 2)
        y = rs.rand(40)
        tree = fit_cart(X, y)
        assert np.array_equal(predict(tree, X), y)

    def test_min_samples_leaf_respected(self):
        rs = np.random.RandomState(4)
        X = rs.rand(50, 2)
        y = rs.rand(50)
        tree = fit_cart(X, y, TreeConfig(min_samples_leaf=7))
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                assert node.n_samples >= 7
            else:
                stack.extend([node.left, node.right])

    def test_min_samples_split_stops(self):
        X = np.arange(6.0)[:, None]
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        tree = fit_cart(X, y, TreeConfig(min_samples_split=7))
        assert isinstance(tree, Leaf)

    def test_matches_bruteforce_oracle(self):
        rs = np.random.RandomState(5)
        for trial in range(25):
            n = rs.randint(5, 120)
            p = rs.randint(1, 4)
            depth = rs.randint(1, 3)
            X = rs.rand(n, p)
            y = rs.rand(n)
            config = TreeConfig(max_depth=depth)
            got = tree_structure(fit_cart(X, y, config, rng_seed=trial))
            assert got == oracle_tree(X, y, 0, config)

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_matches_oracle_on_tie_heavy_columns(self, min_leaf):
        # integer columns with at most 5 distinct values: most sorted
        # neighbours are equal, so node orders and tie-breaks are exercised
        rs = np.random.RandomState(23)
        for trial in range(30):
            n = rs.randint(5, 90)
            p = rs.randint(1, 5)
            X = rs.randint(0, rs.randint(1, 6), size=(n, p)).astype(np.float64)
            y = rs.rand(n)
            config = TreeConfig(
                max_depth=[1, 2, 4, None][trial % 4],
                min_samples_split=[2, 5][trial % 2],
                min_samples_leaf=min_leaf,
            )
            got = tree_structure(fit_cart(X, y, config, rng_seed=trial))
            assert got == oracle_tree(X, y, 0, config)

    def test_deterministic_under_feature_subsampling(self):
        rs = np.random.RandomState(6)
        X = rs.rand(60, 5)
        y = rs.rand(60)
        cfg = TreeConfig(max_depth=4, max_features=2)
        a = fit_cart(X, y, cfg, rng_seed=9)
        b = fit_cart(X, y, cfg, rng_seed=9)
        assert tree_structure(a) == tree_structure(b)
        c = fit_cart(X, y, cfg, rng_seed=10)
        assert np.array_equal(predict(a, X), predict(b, X))
        assert tree_structure(a) != tree_structure(c) or True  # seeds may coincide


# --------------------------------------------------------------------------
# prediction plumbing


class TestPredict:
    def test_tree_path_following(self):
        tree = Split(0, 1.5, Leaf(0.0, 2), Leaf(1.0, 2))
        assert predict_tree(tree, [2.9]) == 1.0
        assert predict_tree(tree, [1.4]) == 0.0
        assert predict_tree(tree, [1.5]) == 1.0  # boundary goes right

    def test_single_row_walk_equals_matrix_walk(self):
        rs = np.random.RandomState(11)
        X = rs.rand(80, 3)
        tree = fit_cart(X, X[:, 0] * 2.0 + rs.rand(80), TreeConfig(max_depth=5))
        Xq = rs.rand(30, 3)
        rows = [predict_tree(tree, x) for x in Xq]
        assert all(type(v) is float for v in rows)
        assert rows == predict(tree, Xq).tolist()

    def test_unreached_subtree_is_not_walked(self):
        # the right subtree splits on column 5, which a one-column matrix
        # lacks; only a row that reaches that split is an error
        tree = Split(0, 1.5, Leaf(0.0, 1), Split(5, 0.0, Leaf(1.0, 1), Leaf(2.0, 1)))
        assert predict(tree, [[1.0], [0.0]]).tolist() == [0.0, 0.0]
        with pytest.raises(DimensionMismatch):
            predict(tree, [[1.0], [2.0]])

    def test_bagging_mean_of_equal_trees(self):
        model = EnsembleModel(
            kind="bagging", trees=[Leaf(5.0, 1)] * 3, per_tree_seeds=[0, 1, 2]
        )
        assert predict(model, [[0.0]])[0] == 5.0

    def test_boosting_aggregation(self):
        # oracle: 10 + 0.5 * 2
        model = EnsembleModel(
            kind="gbm", trees=[Leaf(2.0, 1)], learning_rate=0.5, init_value=10.0
        )
        assert predict(model, [[0.0]])[0] == 11.0

    def test_linear_dimension_mismatch(self):
        model = fit_ols([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            predict(model, [[1.0, 2.0]])

    def test_mean_aggregation_matches_member_mean(self):
        rs = np.random.RandomState(7)
        X = rs.rand(30, 3)
        y = rs.rand(30)
        model = fit_bagging(X, y, n_estimators=5, seed=1)
        per_tree = np.array([predict(t, X) for t in model.trees])
        assert np.array_equal(predict(model, X), per_tree.mean(axis=0))


# --------------------------------------------------------------------------
# bagging and random forest


class TestBaggingForest:
    def test_identical_rows_collapse(self):
        X = np.ones((6, 2))
        y = np.full(6, 3.25)
        model = fit_bagging(X, y, n_estimators=4, seed=0)
        assert all(isinstance(t, Leaf) for t in model.trees)
        assert predict(model, [[1.0, 1.0]])[0] == 3.25

    def test_same_seed_same_model(self):
        rs = np.random.RandomState(8)
        X = rs.rand(40, 3)
        y = rs.rand(40)
        a = fit_bagging(X, y, n_estimators=6, seed=5)
        b = fit_bagging(X, y, n_estimators=6, seed=5)
        assert a.per_tree_seeds == b.per_tree_seeds
        assert [tree_structure(t) for t in a.trees] == [tree_structure(t) for t in b.trees]

    def test_different_seed_differs(self):
        rs = np.random.RandomState(9)
        X = rs.rand(40, 3)
        y = rs.rand(40)
        a = fit_bagging(X, y, n_estimators=6, seed=5)
        c = fit_bagging(X, y, n_estimators=6, seed=6)
        assert not np.array_equal(predict(a, X), predict(c, X))

    def test_forest_with_all_features_equals_bagging(self):
        rs = np.random.RandomState(10)
        X = rs.rand(50, 4)
        y = rs.rand(50)
        bag = fit_bagging(X, y, n_estimators=5, seed=3)
        forest = fit_random_forest(
            X, y, n_estimators=5, tree_config=TreeConfig(max_features=4), seed=3
        )
        assert [tree_structure(t) for t in bag.trees] == [
            tree_structure(t) for t in forest.trees
        ]
        assert np.array_equal(predict(bag, X), predict(forest, X))

    def test_default_max_features(self):
        # oracle: floor(14/3) = 4, clamped to >= 1 for tiny p
        assert default_max_features(14) == 4
        assert default_max_features(2) == 1
        assert default_max_features(1) == 1

    def test_forest_deterministic(self):
        rs = np.random.RandomState(11)
        X = rs.rand(40, 6)
        y = rs.rand(40)
        a = fit_random_forest(X, y, n_estimators=4, seed=2)
        b = fit_random_forest(X, y, n_estimators=4, seed=2)
        assert [tree_structure(t) for t in a.trees] == [tree_structure(t) for t in b.trees]

    def test_single_tree_bagging_is_cart_on_its_bootstrap(self):
        """Pins the member-seed contract: member i draws its bootstrap
        from the stream seeded with derive_seed(seed, i), then takes one
        more value as its tree seed."""
        from movierev.rng import Xoshiro256StarStar, derive_seed

        rs = np.random.RandomState(20)
        X = rs.rand(25, 2)
        y = rs.rand(25)
        cfg = TreeConfig(max_depth=3)
        model = fit_bagging(X, y, n_estimators=1, tree_config=cfg, seed=77)
        rng = Xoshiro256StarStar(derive_seed(77, 0))
        boot = np.array(rng.bootstrap_indices(25))
        expected = fit_cart(X[boot], y[boot], cfg, rng.next_uint64())
        assert tree_structure(model.trees[0]) == tree_structure(expected)


def one_tree_at_a_time(X, y, n_estimators, config, seed):
    """The trees of a bagging or forest fit, grown one by one: member i
    draws its bootstrap from the stream seeded with derive_seed(seed, i)
    and grows ``fit_cart`` on it with the stream's next value as seed."""
    trees = []
    for i in range(n_estimators):
        rng = Xoshiro256StarStar(derive_seed(seed, i))
        boot = np.array(rng.bootstrap_indices(len(y)), dtype=np.intp)
        trees.append(fit_cart(X[boot], y[boot], config, rng.next_uint64()))
    return trees


def lockstep_tables():
    rs = np.random.RandomState(31)
    yield "random", rs.rand(120, 7), rs.randn(120)
    # at most 5 distinct values per column, and in the target
    yield "ties", rs.randint(0, 5, size=(150, 7)).astype(float), rs.randint(0, 3, 150) * 0.5
    y = np.where(rs.rand(90) < 0.6, 0.0, rs.rand(90))
    y[::7] = -0.0
    yield "zeros", rs.rand(90, 7), y


class TestLockstep:
    """An ensemble grows all its trees in lockstep; every tree must equal
    the tree grown alone on its bootstrap. ``repr`` compares floats by
    their digits, so it also tells a -0.0 leaf from a 0.0 one."""

    @pytest.mark.parametrize("table", list(lockstep_tables()), ids=lambda t: t[0])
    @pytest.mark.parametrize("config", [
        TreeConfig(),
        TreeConfig(max_depth=3),
        TreeConfig(min_samples_leaf=3, min_samples_split=12),
        TreeConfig(max_features=2),
        TreeConfig(max_features=5),
    ], ids=["default", "depth-3", "leaf-3-split-12", "features-2", "features-5"])
    @pytest.mark.parametrize("fit", [fit_bagging, fit_random_forest], ids=["bagging", "forest"])
    def test_equals_one_tree_at_a_time(self, table, config, fit):
        _, X, y = table
        model = fit(X, y, n_estimators=12, tree_config=config, seed=4)
        if fit is fit_random_forest and config.max_features is None:
            config = replace(config, max_features=default_max_features(X.shape[1]))
        assert repr(model.trees) == repr(one_tree_at_a_time(X, y, 12, config, 4))

    @pytest.mark.parametrize("fit", [fit_bagging, fit_random_forest], ids=["bagging", "forest"])
    def test_single_estimator(self, fit):
        _, X, y = next(lockstep_tables())
        model = fit(X, y, n_estimators=1, tree_config=TreeConfig(max_features=3), seed=9)
        assert repr(model.trees) == repr(
            one_tree_at_a_time(X, y, 1, TreeConfig(max_features=3), 9)
        )

    @pytest.mark.parametrize("cells", [1, 2 * 120 * 15])
    def test_groups_of_trees_equal_one_lockstep(self, cells, monkeypatch):
        """An ensemble too big for one lockstep grows in groups of trees
        (here of one and of two trees), with the same trees."""
        _, X, y = next(lockstep_tables())
        config = TreeConfig(max_features=3)
        whole = fit_random_forest(X, y, 5, config, seed=8)
        monkeypatch.setattr(models, "_LOCKSTEP_CELLS", cells)
        assert repr(fit_random_forest(X, y, 5, config, seed=8).trees) == repr(whole.trees)

    def test_overflow_in_a_later_tree_raises(self):
        """Row 0's target squares past the double range, so a tree whose
        bootstrap holds it overflows its split scores; the first tree's
        bootstrap misses it, a later one's does not."""
        rs = np.random.RandomState(5)
        X = rs.rand(30, 3)
        y = rs.rand(30)
        y[0] = 1e200

        def overflows(seed, i):
            rng = Xoshiro256StarStar(derive_seed(seed, i))
            return 0 in rng.bootstrap_indices(30)

        seed = next(s for s in range(100) if not overflows(s, 0) and overflows(s, 1))
        assert repr(fit_bagging(X, y, 1, seed=seed).trees) == repr(
            one_tree_at_a_time(X, y, 1, TreeConfig(), seed)
        )
        for fit in (fit_bagging, fit_random_forest):
            with pytest.raises(NonFiniteSplit, match="^split scores overflowed or are NaN; "
                               "rescale the target$"):
                fit(X, y, n_estimators=4, seed=seed)


# --------------------------------------------------------------------------
# gradient boosting


class TestGbm:
    def test_constant_target(self):
        X = np.arange(8.0)[:, None]
        y = np.full(8, 2.5)
        model = fit_gbm(X, y, n_estimators=5, learning_rate=0.3)
        assert model.init_value == 2.5
        assert np.all(predict(model, X) == 2.5)

    def test_single_full_tree_absorbs_everything(self):
        rs = np.random.RandomState(12)
        X = rs.rand(30, 2)
        y = rs.rand(30)
        model = fit_gbm(X, y, n_estimators=1, learning_rate=1.0, tree_config=TreeConfig())
        from movierev.metrics import r2

        assert r2(y, predict(model, X)) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_shrinkage(self):
        # oracle: F0 = 5, residuals -5/+5 become the depth-1 leaves,
        # predictions are 5 +- 0.5 * 5
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        model = fit_gbm(X, y, n_estimators=1, learning_rate=0.5, tree_config=TreeConfig(max_depth=1))
        assert predict(model, X).tolist() == [2.5, 7.5]

    def test_training_mse_non_increasing(self):
        rs = np.random.RandomState(13)
        for lr in (0.1, 0.5, 1.0):
            X = rs.rand(50, 3)
            y = rs.rand(50)
            model = fit_gbm(X, y, n_estimators=15, learning_rate=lr,
                            tree_config=TreeConfig(max_depth=2))
            pred = np.full(50, model.init_value)
            last = float(np.mean((y - pred) ** 2))
            for tree in model.trees:
                pred = pred + lr * predict(tree, X)
                cur = float(np.mean((y - pred) ** 2))
                assert cur <= last + 1e-12
                last = cur

    def test_rejects_feature_subsampling(self):
        with pytest.raises(ValueError):
            fit_gbm(
                np.zeros((4, 2)), np.zeros(4), tree_config=TreeConfig(max_features=1)
            )


class TestXgb:
    def test_reduces_to_gbm_without_regularization(self):
        rs = np.random.RandomState(14)
        for _ in range(10):
            n, p = rs.randint(15, 80), rs.randint(1, 4)
            X = rs.rand(n, p)
            y = rs.randn(n)
            cfg = TreeConfig(max_depth=3)
            g = fit_gbm(X, y, 20, 0.2, cfg)
            x = fit_xgb(X, y, 20, 0.2, cfg, reg_lambda=0.0, reg_gamma=0.0)
            assert np.max(np.abs(predict(g, X) - predict(x, X))) <= 1e-9

    def test_leaf_weight_formula(self):
        # oracle: leaf residuals [1, 1] with lambda 2 give
        # w = -G/(H + lambda) = 2/4 = 0.5
        pred = np.empty(2)
        (leaf,) = _grow_trees(
            np.zeros((1, 2)),
            np.array([-1.0, -1.0]),
            TreeConfig(),
            2.0,
            0.0,
            True,
            [None],
            train_pred=pred,
        )
        assert isinstance(leaf, Leaf)
        assert leaf.value == 0.5
        assert pred.tolist() == [0.5, 0.5]

    def test_shrunken_leaves_in_full_fit(self):
        # two clusters; lambda=2 shrinks each depth-1 leaf toward zero by
        # the factor n/(n + lambda) = 0.5
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 3.0, 3.0])
        model = fit_xgb(X, y, 1, 1.0, TreeConfig(max_depth=1), reg_lambda=2.0, reg_gamma=0.0)
        # F0 = 1.5, residuals -1.5/+1.5, leaf weights -0.75/+0.75
        assert predict(model, X).tolist() == [0.75, 0.75, 2.25, 2.25]

    def test_huge_gamma_suppresses_all_splits(self):
        rs = np.random.RandomState(15)
        X = rs.rand(30, 2)
        y = rs.randn(30) * 5
        model = fit_xgb(X, y, 4, 0.5, TreeConfig(max_depth=3), reg_lambda=1.0, reg_gamma=1e12)
        assert all(isinstance(t, Leaf) for t in model.trees)
        # oracle: iterate F <- F + lr * (-sum(F - y) / (n + lambda)) by hand
        F = np.full(30, float(np.mean(y)))
        for _ in range(4):
            w = -np.sum(F - y) / (30 + 1.0)
            F = F + 0.5 * w
        assert np.allclose(predict(model, X), F, atol=1e-12)

    def test_rejects_negative_regularizers(self):
        with pytest.raises(ValueError):
            fit_xgb(np.zeros((4, 1)), np.zeros(4), reg_lambda=-1.0)


class TestStagedR2:
    def test_iteration_zero_exact(self):
        rs = np.random.RandomState(16)
        X = rs.rand(25, 2)
        y = rs.rand(25)
        model = fit_gbm(X, y, 5, 0.2, TreeConfig(max_depth=2))
        curve = staged_train_r2(model, X, y)
        assert curve[0] == (0, 0.0)
        assert len(curve) == 6

    def test_final_entry_matches_full_prediction(self):
        from movierev.metrics import r2

        rs = np.random.RandomState(17)
        X = rs.rand(30, 3)
        y = rs.rand(30)
        model = fit_xgb(X, y, 8, 0.3, TreeConfig(max_depth=2))
        curve = staged_train_r2(model, X, y)
        assert curve[-1][1] == r2(y, predict(model, X))

    def test_stages_are_the_truncated_models(self):
        from movierev.metrics import r2

        rs = np.random.RandomState(24)
        X = rs.rand(40, 3)
        y = rs.rand(40)
        for model in (
            fit_gbm(X, y, 7, 0.3, TreeConfig(max_depth=2)),
            fit_xgb(X, y, 7, 0.3, TreeConfig(max_depth=2), reg_lambda=1.0, reg_gamma=0.01),
        ):
            stages = list(staged_predict(model, X))
            assert len(stages) == 8
            for k, pred in enumerate(stages):
                cut = replace(model, trees=model.trees[:k])
                assert np.array_equal(pred, predict(cut, X))
            assert staged_train_r2(model, X, y)[-1][1] == r2(y, predict(model, X))

    def test_non_decreasing(self):
        rs = np.random.RandomState(18)
        X = rs.rand(40, 2)
        y = rs.rand(40)
        for lr in (0.1, 1.0):
            model = fit_gbm(X, y, 12, lr, TreeConfig(max_depth=2))
            values = [v for _, v in staged_train_r2(model, X, y)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_requires_boosting_model(self):
        model = fit_ols([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            staged_train_r2(model, [[1.0]], [1.0])


class TestFitModelDispatch:
    def test_all_kinds_fit_and_predict(self):
        rs = np.random.RandomState(19)
        X = rs.rand(30, 3)
        y = rs.rand(30)
        for kind in ("linear", "tree", "bagging", "forest", "gbm", "xgb"):
            model = fit_model(kind, X, y, {"n_estimators": 3} if kind not in ("linear", "tree") else {}, seed=1)
            assert predict(model, X).shape == (30,)

    @pytest.mark.parametrize("kind", ["tree", "bagging", "forest", "gbm", "xgb"])
    def test_no_rows_is_too_few_rows(self, kind):
        """A tree's leaf value divided by zero rows (ZeroDivisionError), and
        xgb returned an init_value of NaN after numpy warned."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TooFewRows):
                fit_model(kind, np.zeros((0, 3)), np.zeros(0))
        assert caught == []

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_model("svm", np.zeros((3, 1)), np.zeros(3))
        # the kind is checked before the parameters
        with pytest.raises(ValueError, match="unknown model kind 'svm'"):
            fit_model("svm", np.zeros((3, 1)), np.zeros(3), {"depth": 3})

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            fit_model("gbm", np.zeros((3, 1)), np.zeros(3), {"depth": 3})

    @pytest.mark.parametrize(
        "name, value",
        [("max_depth", 2.5), ("max_depth", True), ("max_depth", "a"), ("n_estimators", 2.5),
         ("n_estimators", None), ("min_samples_leaf", 1.0), ("max_features", False),
         ("learning_rate", "0.1"), ("learning_rate", True), ("reg_lambda", None)],
    )
    def test_param_of_the_wrong_type(self, name, value):
        """``max_depth`` 2.5 or true used to fit; the others failed inside
        the fit with a TypeError."""
        rs = np.random.RandomState(3)
        X, y = rs.rand(20, 3), rs.rand(20)
        with pytest.raises(ValueError, match=f"parameter {name} cannot be"):
            fit_model("xgb", X, y, {name: value})

    def test_params_that_may_be_none(self):
        rs = np.random.RandomState(3)
        X, y = rs.rand(20, 3), rs.rand(20)
        params = {"max_depth": None, "max_features": None, "n_estimators": np.int64(2),
                  "learning_rate": 1}
        assert len(fit_model("gbm", X, y, params).trees) == 2

    def test_forest_has_one_name(self):
        rs = np.random.RandomState(3)
        X, y = rs.rand(20, 3), rs.rand(20)
        assert fit_model("forest", X, y, {"n_estimators": 2}).kind == "forest"
        # the artifact file's spelling is not a kind of the library
        with pytest.raises(ValueError, match="unknown model kind 'random_forest'"):
            fit_model("random_forest", X, y, {"n_estimators": 2})

    def test_settings_match_the_direct_fits(self):
        """Each family reads the shared settings as its own fit function
        does, boosting with its default depth of 3."""
        rs = np.random.RandomState(23)
        X, y = rs.rand(60, 4), rs.rand(60)
        params = {"n_estimators": 4, "learning_rate": 0.3, "min_samples_leaf": 2}
        config = TreeConfig(min_samples_leaf=2)
        boost = TreeConfig(max_depth=3, min_samples_leaf=2)
        direct = {
            "tree": fit_cart(X, y, config, 5),
            "bagging": fit_bagging(X, y, 4, config, 5),
            "forest": fit_random_forest(X, y, 4, config, 5),
            "gbm": fit_gbm(X, y, 4, 0.3, boost),
            "xgb": fit_xgb(X, y, 4, 0.3, boost, 2.0, 0.01),
        }
        for kind, model in direct.items():
            kind_params = {**params, "reg_lambda": 2.0, "reg_gamma": 0.01} if kind == "xgb" else params
            assert np.array_equal(
                predict(fit_model(kind, X, y, kind_params, seed=5), X), predict(model, X)
            ), kind
