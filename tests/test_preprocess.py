import math

import numpy as np
import pytest

from movierev.dataset import CATEGORICAL, FEATURE, NUMERIC, TARGET, ColumnSpec, DataTable
from movierev.errors import DomainError, SchemaMismatch
from movierev.preprocess import (
    EncoderMap,
    encode_table,
    expm1_inverse,
    fit_encoders,
    fit_pipeline,
    log1p_transform,
    transform,
    transform_with_warnings,
)

SCHEMA = (
    ColumnSpec("rating", CATEGORICAL, FEATURE),
    ColumnSpec("budget", NUMERIC, FEATURE),
    ColumnSpec("gross", NUMERIC, TARGET),
)


def make_table(ratings, budgets, grosses):
    return DataTable(
        SCHEMA, {"rating": ratings, "budget": budgets, "gross": grosses}
    )


class TestEncoders:
    def test_classes_sorted_distinct(self):
        t = make_table(["b", "a", "b"], [1, 2, 3], [1, 2, 3])
        enc = fit_encoders(t)
        assert enc.classes["rating"] == ("a", "b")

    def test_single_class(self):
        t = make_table(["only", "only"], [1, 2], [1, 2])
        enc = fit_encoders(t)
        assert enc.classes["rating"] == ("only",)
        assert enc.code("rating", "only") == (0.0, True)

    def test_mpaa_ratings_codes(self):
        # oracle: sorted distinct of [PG-13, R, G, R] is [G, PG-13, R],
        # enumerated 0, 1, 2
        t = make_table(["PG-13", "R", "G", "R"], [1, 2, 3, 4], [1, 2, 3, 4])
        enc = fit_encoders(t)
        assert enc.classes["rating"] == ("G", "PG-13", "R")
        codes = [enc.code("rating", v)[0] for v in ("G", "PG-13", "R")]
        assert codes == [0.0, 1.0, 2.0]

    def test_nul_suffixed_value_stays_unseen(self):
        # numpy str arrays drop trailing NULs, so "a\x00" must not be
        # looked up as "a"
        enc = EncoderMap({"rating": ("a", "b")})
        assert enc.code("rating", "a\x00") == (2.0, False)
        assert enc.code("rating", "a") == (0.0, True)
        assert enc.code("rating", "") == (2.0, False)
        assert enc.code("rating", "c") == (2.0, False)

    def test_order_invariant_under_row_permutation(self):
        values = ["d", "a", "c", "b", "a", "d"]
        t1 = make_table(values, range(6), range(6))
        t2 = make_table(values[::-1], range(6), range(6))
        assert fit_encoders(t1).classes == fit_encoders(t2).classes

    def test_encode_lookup(self):
        t = make_table(["b", "a", "b"], [1, 2, 3], [4, 5, 6])
        enc = fit_encoders(t)
        encoded, warnings = encode_table(t, enc, ["rating", "budget"])
        assert warnings == []
        assert encoded.dtype == np.float64
        assert encoded[:, 0].tolist() == [1.0, 0.0, 1.0]
        assert encoded[:, 1].tolist() == [1.0, 2.0, 3.0]
        # one column per listed name, in the order given
        reordered, _ = encode_table(t, enc, ["budget", "rating"])
        assert np.array_equal(reordered, encoded[:, ::-1])

    def test_unseen_category_gets_sentinel_and_warning(self):
        fit_t = make_table(["a", "b"], [1, 2], [3, 4])
        enc = fit_encoders(fit_t)
        new_t = make_table(["zz", "a"], [1, 2], [3, 4])
        encoded, warnings = encode_table(new_t, enc, ["rating"])
        assert encoded[0, 0] == 2.0  # k = 2 known classes
        assert warnings == [("rating", "zz")]

    def test_round_trip_known_codes(self):
        t = make_table(["x", "y", "z", "y"], range(4), range(4))
        enc = fit_encoders(t)
        encoded, _ = encode_table(t, enc, ["rating"])
        decoded = [enc.decode("rating", int(c)) for c in encoded[:, 0]]
        assert decoded == ["x", "y", "z", "y"]


def fit_scaled(t):
    """A pipeline that standardizes ``t`` without logging budget or gross."""
    return fit_pipeline(t, scale=True, log_money=False)


class TestScaler:
    def test_mean_and_population_std(self):
        t = make_table(["a"] * 3, [1.0, 2.0, 3.0], [0, 0, 1])
        params = fit_scaled(t).scaler
        assert params.means["budget"] == 2.0
        # oracle: sqrt(((1-2)^2 + 0 + (3-2)^2) / 3)
        assert params.stds["budget"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_overflowing_squares_give_a_finite_std(self):
        t = make_table(["a"] * 3, [1e308, 0.0, 0.0], [0, 0, 1])
        # the overflow is handled, so numpy must not report it
        with np.errstate(all="raise"):
            params = fit_scaled(t).scaler
        # oracle: 1e308 * population std of [1, 0, 0] = 1e308 * sqrt(2) / 3
        assert params.stds["budget"] == pytest.approx(1e308 * math.sqrt(2.0) / 3.0)

    def test_constant_and_singleton_columns(self):
        t = make_table(["a", "a"], [5.0, 5.0], [0, 1])
        params = fit_scaled(t).scaler
        assert params.means["budget"] == 5.0
        assert params.stds["budget"] == 0.0
        one = make_table(["a"], [7.0], [0])
        p1 = fit_scaled(one).scaler
        assert (p1.means["budget"], p1.stds["budget"]) == (7.0, 0.0)

    def test_scaled_values(self):
        t = make_table(["a"] * 3, [1.0, 2.0, 3.0], [0, 0, 1])
        X, _ = transform(fit_scaled(t), t)
        # oracle: (x - 2) / sqrt(2/3)
        expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / math.sqrt(2.0 / 3.0)
        assert np.allclose(X[:, 1], expected, atol=1e-12)
        assert X[0, 1] == pytest.approx(-1.224745, abs=1e-6)

    def test_zero_variance_column_becomes_zeros(self):
        t = make_table(["a", "a"], [5.0, 5.0], [0, 1])
        X, _ = transform(fit_scaled(t), t)
        assert X[:, 1].tolist() == [0.0, 0.0]

    def test_standardized_column_has_unit_moments(self):
        rs = np.random.RandomState(0)
        t = make_table(["a"] * 50, rs.rand(50) * 100, rs.rand(50))
        X, _ = transform(fit_scaled(t), t)
        col = X[:, 1]
        assert abs(col.mean()) < 1e-9
        assert abs(np.sqrt(np.mean((col - col.mean()) ** 2)) - 1.0) < 1e-9


class TestLogTransforms:
    def test_fixed_points(self):
        assert log1p_transform([0.0])[0] == 0.0
        assert log1p_transform([math.e - 1.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        v = np.array([10.0, 1e6, 3.5e8])
        back = expm1_inverse(log1p_transform(v))
        assert np.all(np.abs(back - v) / v < 1e-9)

    def test_inverse_of_typical_log_prediction(self):
        # a log-space prediction of 18 is about 65.66 million in currency
        assert expm1_inverse([18.0])[0] == pytest.approx(65659968.137, abs=0.01)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log1p_transform([-1.0])
        with pytest.raises(DomainError):
            log1p_transform([0.0, -2.0])


class TestPipeline:
    def _train_test(self):
        train = make_table(
            ["a", "b", "a", "c"], [10.0, 100.0, 55.0, 70.0], [100.0, 900.0, 500.0, 600.0]
        )
        test = make_table(["b", "zz"], [60.0, 80.0], [550.0, 700.0])
        return train, test

    def test_stage_gating_encode_only(self):
        train, _ = self._train_test()
        pipe = fit_pipeline(train, scale=False, log_money=False)
        X, y = transform(pipe, train)
        assert X[:, 0].tolist() == [0.0, 1.0, 0.0, 2.0]
        assert X[:, 1].tolist() == [10.0, 100.0, 55.0, 70.0]
        assert y.tolist() == [100.0, 900.0, 500.0, 600.0]

    def test_log_money_applies_to_budget_and_target(self):
        train, _ = self._train_test()
        pipe = fit_pipeline(train, scale=False, log_money=True)
        X, y = transform(pipe, train)
        assert np.allclose(X[:, 1], np.log1p([10.0, 100.0, 55.0, 70.0]))
        assert np.allclose(y, np.log1p([100.0, 900.0, 500.0, 600.0]))

    def test_budget_at_or_below_minus_one_raises_on_transform(self):
        train = make_table(["a", "b"], [10.0, -1.0], [100.0, 900.0])
        with pytest.raises(DomainError):
            fit_pipeline(train, scale=True, log_money=True)
        # an unscaled pipeline does not encode the table, so the
        # transform that follows is what rejects the budget
        pipe = fit_pipeline(train, scale=False, log_money=True)
        with pytest.raises(DomainError):
            transform(pipe, train)
        X, _ = transform(fit_pipeline(train, scale=False, log_money=False), train)
        assert X[:, 1].tolist() == [10.0, -1.0]

    def test_scaled_train_columns_are_centered(self):
        train, _ = self._train_test()
        pipe = fit_pipeline(train, scale=True, log_money=True)
        X, _ = transform(pipe, train)
        assert np.all(np.abs(X.mean(axis=0)) < 1e-9)

    def test_no_leakage_test_transform_uses_train_stats(self):
        train, test = self._train_test()
        pipe = fit_pipeline(train, scale=True, log_money=False)
        X_test, _, warnings = transform_with_warnings(pipe, test)
        # train stats, applied to test values by hand
        budget = np.array([10.0, 100.0, 55.0, 70.0])
        mean, std = budget.mean(), np.sqrt(np.mean((budget - budget.mean()) ** 2))
        assert X_test[:, 1] == pytest.approx((np.array([60.0, 80.0]) - mean) / std)
        # test-set mean is not zero, so the stats cannot have been refit
        assert abs(X_test[:, 1].mean()) > 0.01
        assert ("rating", "zz") in warnings

    def test_transform_is_pure(self):
        train, test = self._train_test()
        pipe = fit_pipeline(train, scale=True, log_money=True)
        before = transform(pipe, train)
        transform_with_warnings(pipe, test)
        after = transform(pipe, train)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])

    def test_schema_mismatch(self):
        train, _ = self._train_test()
        pipe = fit_pipeline(train, scale=False, log_money=False)
        other_schema = (
            ColumnSpec("rating", CATEGORICAL, FEATURE),
            ColumnSpec("runtime", NUMERIC, FEATURE),
            ColumnSpec("gross", NUMERIC, TARGET),
        )
        other = DataTable(
            other_schema, {"rating": ["a"], "runtime": [1.0], "gross": [2.0]}
        )
        with pytest.raises(SchemaMismatch):
            transform(pipe, other)

    def test_feature_only_table_gets_no_target(self):
        train, _ = self._train_test()
        pipe = fit_pipeline(train, scale=False, log_money=False)
        feature_schema = tuple(c for c in SCHEMA if c.role == FEATURE)
        req = DataTable(feature_schema, {"rating": ["a"], "budget": [50.0]})
        X, y, _ = transform_with_warnings(pipe, req)
        assert y is None
        assert X.shape == (1, 2)

    def test_full_movie_pipeline_matrix_shape(self, movies_table):
        pipe = fit_pipeline(movies_table, scale=True, log_money=True)
        X, y = transform(pipe, movies_table)
        assert X.shape == (movies_table.row_count, 14)
        assert y.shape == (movies_table.row_count,)
