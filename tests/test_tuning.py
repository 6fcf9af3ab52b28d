import numpy as np
import pytest

from movierev.errors import BadK
from movierev.metrics import r2
from movierev.models import fit_model, predict
from movierev.rng import derive_seed
from movierev.tuning import (
    DEFAULT_GRID,
    CvResult,
    ParamGrid,
    cross_val_r2,
    grid_search,
    kfold_indices,
)


class TestKfold:
    def test_even_folds(self):
        folds = kfold_indices(10, 5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]
        joined = np.concatenate(folds)
        assert sorted(joined.tolist()) == list(range(10))

    def test_remainder_distribution(self):
        # oracle: 7 = 3 + 2 + 2, extra index goes to the first fold
        folds = kfold_indices(7, 3, seed=1)
        assert [len(f) for f in folds] == [3, 2, 2]
        assert sorted(np.concatenate(folds).tolist()) == list(range(7))

    def test_deterministic(self):
        a = kfold_indices(20, 4, seed=9)
        b = kfold_indices(20, 4, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = kfold_indices(20, 4, seed=10)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_partition_property(self):
        for n, k, seed in [(11, 2, 0), (29, 5, 3), (100, 7, 8), (6, 6, 1)]:
            folds = kfold_indices(n, k, seed)
            assert sum(len(f) for f in folds) == n
            assert sorted(np.concatenate(folds).tolist()) == list(range(n))

    def test_bad_k(self):
        with pytest.raises(BadK):
            kfold_indices(4, 5, seed=0)
        with pytest.raises(BadK):
            kfold_indices(4, 1, seed=0)


class TestCrossVal:
    def test_realizable_hypothesis_scores_one(self):
        rs = np.random.RandomState(0)
        X = rs.rand(40, 2)
        y = X @ np.array([2.0, -1.0]) + 3.0
        scores = cross_val_r2(("linear", None), X, y, k=5, seed=1)
        assert len(scores) == 5
        assert all(abs(s - 1.0) < 1e-9 for s in scores)

    def test_pure_noise_stays_modest(self):
        rs = np.random.RandomState(1)
        X = rs.rand(80, 3)
        y = rs.randn(80)
        scores = cross_val_r2(("linear", None), X, y, k=5, seed=2)
        assert float(np.mean(scores)) < 0.5

    def test_tiny_smoke(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 2.0, 3.0])
        scores = cross_val_r2(("tree", {"max_depth": 1}), X, y, k=2, seed=0)
        assert len(scores) == 2

    def test_deterministic(self):
        rs = np.random.RandomState(2)
        X = rs.rand(30, 2)
        y = rs.rand(30)
        spec = ("gbm", {"n_estimators": 5, "max_depth": 2})
        assert cross_val_r2(spec, X, y, 3, seed=4) == cross_val_r2(spec, X, y, 3, seed=4)

    def test_errors_tagged_with_fold(self):
        # fold training sets of 2 rows cannot support a 2-coefficient fit
        X = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.2, 0.8]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError) as err:
            cross_val_r2(("linear", None), X, y, k=2, seed=0)
        assert hasattr(err.value, "fold")

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("linear", None),
            ("tree", {"max_depth": 3}),
            ("forest", {"n_estimators": 4, "max_depth": 3}),
            ("gbm", {"n_estimators": 5, "max_depth": 2}),
        ],
    )
    def test_equals_spelled_out_fold_loop(self, kind, params):
        rs = np.random.RandomState(5)
        X = rs.rand(45, 3)
        y = X[:, 0] - 2.0 * X[:, 2] + rs.randn(45) * 0.2
        expected = []
        for f, val_idx in enumerate(kfold_indices(45, 4, seed=6)):
            train_idx = np.setdiff1d(np.arange(45), val_idx)
            model = fit_model(kind, X[train_idx], y[train_idx], params, derive_seed(6, f))
            expected.append(float(r2(y[val_idx], predict(model, X[val_idx]))))
        assert cross_val_r2((kind, params), X, y, k=4, seed=6) == expected


class TestParamGrid:
    def test_combination_order_is_declared_product_order(self):
        grid = ParamGrid((("n_estimators", (1, 2)), ("learning_rate", (0.1,))))
        assert grid.combinations() == [
            {"n_estimators": 1, "learning_rate": 0.1},
            {"n_estimators": 2, "learning_rate": 0.1},
        ]

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            ParamGrid((("a", (1,)), ("a", (2,))))
        with pytest.raises(ValueError):
            ParamGrid((("a", ()),))
        with pytest.raises(ValueError):
            ParamGrid(())

    def test_from_dict_and_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"n_estimators": [5, 10], "max_depth": [2]}')
        grid = ParamGrid.from_json_file(path)
        assert len(grid.combinations()) == 2

    @pytest.mark.parametrize(
        "doc", [[1, 2], {"max_depth": 3}, {"max_depth": []}, {"max_depth": "23"}, "x"]
    )
    def test_from_dict_needs_an_object_of_non_empty_lists(self, doc):
        with pytest.raises(ValueError, match="non-empty list"):
            ParamGrid.from_dict(doc)

    def test_default_grid_shape(self):
        grid = ParamGrid(DEFAULT_GRID)
        assert len(grid.combinations()) == 27


class TestGridSearch:
    def _data(self):
        rs = np.random.RandomState(3)
        X = rs.rand(40, 2)
        y = X[:, 0] * 3 + rs.randn(40) * 0.05
        return X, y

    def test_cardinality(self):
        X, y = self._data()
        grid = ParamGrid((("n_estimators", (1, 2)), ("learning_rate", (0.1,))))
        result = grid_search("gbm", grid, X, y, k=3, seed=0)
        assert len(result.combinations) == 2
        assert len(result.fold_scores) == 2
        assert all(len(f) == 3 for f in result.fold_scores)

    def test_single_combination_is_best(self):
        X, y = self._data()
        grid = ParamGrid((("n_estimators", (4,)),))
        result = grid_search("gbm", grid, X, y, k=3, seed=0)
        assert result.best_params == {"n_estimators": 4}

    def test_best_is_max_of_means(self):
        X, y = self._data()
        grid = ParamGrid((("n_estimators", (1, 3, 6)), ("learning_rate", (0.1, 0.5))))
        result = grid_search("gbm", grid, X, y, k=3, seed=1)
        assert result.best_score == max(result.mean_scores)
        assert result.mean_scores[result.best_index] == result.best_score
        for folds, mean in zip(result.fold_scores, result.mean_scores):
            assert mean == pytest.approx(float(np.mean(folds)), abs=1e-15)

    def test_tie_goes_to_first_enumerated(self):
        X, y = self._data()
        # identical parameter values under two names cannot happen, so use
        # one axis with a repeated value: same model, same folds, same mean
        grid = ParamGrid((("n_estimators", (5, 5)),))
        result = grid_search("gbm", grid, X, y, k=3, seed=2)
        assert result.mean_scores[0] == result.mean_scores[1]
        assert result.best_index == 0

    def test_deterministic(self):
        X, y = self._data()
        grid = ParamGrid((("n_estimators", (2, 4)),))
        a = grid_search("xgb", grid, X, y, k=3, seed=5)
        b = grid_search("xgb", grid, X, y, k=3, seed=5)
        assert a == b

    def test_csv_and_json_serialization(self):
        X, y = self._data()
        grid = ParamGrid((("n_estimators", (2, 3)),))
        result = grid_search("gbm", grid, X, y, k=3, seed=0)
        lines = result.csv_lines()
        assert lines[0] == "n_estimators,fold0_r2,fold1_r2,fold2_r2,mean_r2"
        assert len(lines) == 3
        import json

        payload = json.loads(result.to_json())
        assert payload["best_params"] == result.best_params


def _per_combination(kind, grid, X, y, k, seed):
    """The grid search spelled out: every combination cross-validated on
    its own, the first highest mean winning."""
    combos = grid.combinations()
    folds = [tuple(cross_val_r2((kind, params), X, y, k, seed)) for params in combos]
    means = [float(np.mean(f)) for f in folds]
    best = 0
    for i, m in enumerate(means):
        if m > means[best]:
            best = i
    return CvResult(tuple(combos), tuple(folds), tuple(means), best)


class TestBoostingPrefixGrid:
    def _data(self):
        rs = np.random.RandomState(25)
        X = rs.rand(60, 3)
        y = 2.0 * X[:, 0] - X[:, 1] + rs.randn(60) * 0.3
        return X, y

    @pytest.mark.parametrize("kind", ["gbm", "xgb", "tree", "forest"])
    def test_equals_per_combination_cross_validation(self, kind):
        X, y = self._data()
        grid = ParamGrid((
            ("n_estimators", (6, 2, 6, 4)),  # unsorted, with a duplicate
            ("max_depth", (2, 3)),
            ("learning_rate", (0.3,)),
            ("reg_gamma", (0.0, 0.02)),
        ))
        got = grid_search(kind, grid, X, y, k=3, seed=4)
        assert got == _per_combination(kind, grid, X, y, 3, 4)
        if kind == "xgb":
            # the gamma axis must prune some split, or it tests nothing
            scores = {tuple(c.values()): f for c, f in zip(got.combinations, got.fold_scores)}
            assert scores[(6, 3, 0.3, 0.0)] != scores[(6, 3, 0.3, 0.02)]

    def test_fits_each_group_once_per_fold_at_its_largest_size(self, monkeypatch):
        from movierev import tuning

        fitted = []
        real_fit = tuning.fit_model

        def counting_fit(kind, X, y, params, seed):
            fitted.append(dict(params))
            return real_fit(kind, X, y, params, seed)

        monkeypatch.setattr(tuning, "fit_model", counting_fit)
        X, y = self._data()
        grid = ParamGrid((("n_estimators", (2, 5, 3)), ("max_depth", (2, 3))))
        grid_search("gbm", grid, X, y, k=3, seed=0)
        assert fitted == [{"n_estimators": 5, "max_depth": 2}] * 3 + [
            {"n_estimators": 5, "max_depth": 3}
        ] * 3

    def test_zero_size_raises_with_fold(self):
        X, y = self._data()
        grid = ParamGrid((("n_estimators", (3, 0)), ("max_depth", (2,))))
        with pytest.raises(ValueError) as err:
            grid_search("gbm", grid, X, y, k=3, seed=0)
        assert err.value.fold == 0

    @pytest.mark.parametrize("sizes", [(3, 0), (2, True), (2, 2.0), (4, None)])
    def test_unusual_sizes_behave_as_per_combination(self, sizes):
        def outcome(search):
            try:
                return search()
            except Exception as exc:
                return type(exc), str(exc), getattr(exc, "fold", None)

        X, y = self._data()
        # a valid size 5 joins each valid size in a staged group, while
        # the unusual one stays alone, once per depth
        grid = ParamGrid((("n_estimators", sizes + (5,)), ("max_depth", (2, 3))))
        assert outcome(lambda: grid_search("xgb", grid, X, y, k=3, seed=0)) == outcome(
            lambda: _per_combination("xgb", grid, X, y, 3, 0)
        )
