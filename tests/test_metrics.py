import math

import numpy as np
import pytest

from movierev.errors import AllExcluded, ConstantTarget, DomainError, NonFiniteResult
from movierev.metrics import (
    EvalReport,
    eval_report,
    mape,
    mape_detail,
    mse,
    msle,
    r2,
)


class TestR2:
    def test_perfect_fit(self):
        y = np.array([3.0, 1.0, 4.0])
        assert r2(y, y) == 1.0

    def test_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0, 10.0])
        pred = np.full(4, y.mean())
        assert r2(y, pred) == 0.0

    def test_derived_half(self):
        # oracle: SSres = 1, SStot = 2, so 1 - 1/2
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == 0.5

    def test_constant_target(self):
        with pytest.raises(ConstantTarget):
            r2([2.0, 2.0], [1.0, 3.0])

    def test_never_exceeds_one(self):
        rs = np.random.RandomState(0)
        for _ in range(50):
            y = rs.randn(20)
            assert r2(y, rs.randn(20)) <= 1.0

    def test_affine_invariance(self):
        rs = np.random.RandomState(1)
        for _ in range(20):
            y, yhat = rs.randn(30), rs.randn(30)
            a, b = 3.7, -11.0
            assert abs(r2(y, yhat) - r2(a * y + b, a * yhat + b)) < 1e-9


class TestMape:
    def test_derived_ten_percent(self):
        # oracle: (|100-110|/100 + |200-180|/200) / 2 = 0.10
        assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0, abs=1e-12)

    def test_zero_error(self):
        assert mape([5.0, 7.0], [5.0, 7.0]) == 0.0

    def test_zero_target_excluded(self):
        pct, excluded = mape_detail([0.0, 100.0], [5.0, 100.0])
        assert pct == 0.0
        assert excluded == 1

    def test_all_excluded(self):
        with pytest.raises(AllExcluded):
            mape([0.0, 0.0], [1.0, 1.0])

    def test_scale_invariance(self):
        rs = np.random.RandomState(2)
        for _ in range(20):
            y = rs.rand(25) + 0.5
            yhat = rs.rand(25) + 0.5
            assert abs(mape(y, yhat) - mape(10.0 * y, 10.0 * yhat)) < 1e-9


class TestMsle:
    def test_zero_on_equal(self):
        assert msle([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert msle([0.0], [0.0]) == 0.0

    def test_derived_unit(self):
        # oracle: (log1p(e-1) - log1p(0))^2 = 1
        assert msle([math.e - 1.0], [0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            msle([-2.0], [1.0])

    def test_identity_with_mse_of_logs(self):
        rs = np.random.RandomState(3)
        for _ in range(20):
            y = rs.rand(30) * 1e6
            yhat = rs.rand(30) * 1e6
            assert abs(msle(y, yhat) - mse(np.log1p(y), np.log1p(yhat))) < 1e-12


class TestMse:
    def test_examples(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
        # oracle: ((2-1)^2 + (4-2)^2) / 2
        assert mse([1.0, 2.0], [2.0, 4.0]) == 2.5


class TestEvalReport:
    def test_log_space_report(self):
        y_raw = np.array([1e6, 5e6, 2e7, 3e5])
        yhat_raw = y_raw * np.array([1.1, 0.95, 1.02, 0.9])
        y, yhat = np.log1p(y_raw), np.log1p(yhat_raw)
        rep = eval_report(y, yhat, "test", "log")
        assert rep.split_label == "test"
        assert rep.n == 4
        assert rep.target_space == "log"
        assert rep.r2 == r2(y, yhat)
        assert rep.mape_percent == mape(y, yhat)
        assert rep.mse == mse(y, yhat)
        # msle is computed on the raw values regardless of report space
        assert rep.msle == pytest.approx(msle(y_raw, yhat_raw), rel=1e-9)

    def test_raw_space_report_clamps_negative_predictions(self):
        y = np.array([10.0, 20.0, 30.0])
        yhat = np.array([-5.0, 20.0, 28.0])
        rep = eval_report(y, yhat, "train", "raw")
        assert rep.msle == msle(y, np.maximum(yhat, 0.0))
        assert all(
            math.isfinite(v) for v in (rep.r2, rep.mape_percent, rep.msle, rep.mse)
        )

    def test_csv_row_shape(self):
        rep = eval_report([1.0, 2.0, 3.0], [1.0, 2.0, 3.5], "train", "raw")
        row = rep.csv_row("gbm")
        assert row.split(",")[0] == "gbm"
        assert len(row.split(",")) == len(EvalReport.CSV_HEADER.split(","))

    def test_non_finite_metrics_raise(self):
        """SStot of values near 1e200 overflows (r2 NaN, mse inf); the
        report used to hold them, and json wrote NaN and Infinity."""
        y = np.array([1e200, 2e200, 4e200])
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteResult, match="train r2, mse not finite"):
                eval_report(y, y * 1.5, "train", "raw")

    def test_rejects_unknown_space(self):
        with pytest.raises(ValueError):
            eval_report([1.0, 2.0], [1.0, 2.0], "train", "sqrt")
