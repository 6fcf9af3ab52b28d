"""Regression evaluation metrics and the per-split report row.

MAPE guards targets at zero: entries with |y| <= 1e-8 are excluded from
the mean and counted, since a percentage error is undefined there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllExcluded, ConstantTarget, DomainError, NonFiniteResult, TooFewRows
from .preprocess import expm1_inverse

MAPE_ZERO_GUARD = 1e-8

LOG_SPACE = "log"
RAW_SPACE = "raw"


@dataclass(frozen=True)
class EvalReport:
    split_label: str  # train | test
    r2: float
    mape_percent: float
    mape_excluded: int
    msle: float
    mse: float
    n: int
    target_space: str  # log | raw

    CSV_HEADER = "model,split,r2,mape_percent,msle,mse,n,target_space"

    def csv_row(self, model: str) -> str:
        return ",".join(
            [
                model,
                self.split_label,
                repr(self.r2),
                repr(self.mape_percent),
                repr(self.msle),
                repr(self.mse),
                str(self.n),
                self.target_space,
            ]
        )


def _pair(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    return y, yhat


def r2(y, yhat) -> float:
    """1 - SSres/SStot. Requires non-constant actuals."""
    y, yhat = _pair(y, yhat)
    if y.size < 2:
        raise TooFewRows("r2 needs at least 2 points")
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        raise ConstantTarget("actuals have zero variance")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def mape_detail(y, yhat) -> tuple[float, int]:
    """(mean absolute percentage error in percent, excluded count)."""
    y, yhat = _pair(y, yhat)
    if y.size < 1:
        raise ValueError("mape needs at least 1 point")
    keep = np.abs(y) > MAPE_ZERO_GUARD
    excluded = int(y.size - np.count_nonzero(keep))
    if excluded == y.size:
        raise AllExcluded("every actual is within the zero guard")
    pct = float(np.mean(np.abs(y[keep] - yhat[keep]) / np.abs(y[keep]))) * 100.0
    return pct, excluded


def mape(y, yhat) -> float:
    return mape_detail(y, yhat)[0]


def msle(y, yhat) -> float:
    """Mean of (log1p(y) - log1p(yhat))^2."""
    y, yhat = _pair(y, yhat)
    if np.any(y <= -1.0) or np.any(yhat <= -1.0):
        raise DomainError("msle requires every value > -1")
    return float(np.mean((np.log1p(y) - np.log1p(yhat)) ** 2))


def mse(y, yhat) -> float:
    y, yhat = _pair(y, yhat)
    return float(np.mean((y - yhat) ** 2))


def eval_report(y, yhat, split_label: str, target_space: str) -> EvalReport:
    """Build the report row for one split.

    ``y``/``yhat`` are in ``target_space``. R2, MAPE and MSE are computed
    in that space directly. MSLE is always computed on raw currency
    values (inverted via expm1 when the space is log); negative raw
    predictions are clamped to zero there, since revenue cannot be
    negative and the logarithm needs values > -1. A metric that is not
    finite raises NonFiniteResult.
    """
    y, yhat = _pair(y, yhat)
    if target_space == LOG_SPACE:
        y_raw, yhat_raw = expm1_inverse(y), expm1_inverse(yhat)
    elif target_space == RAW_SPACE:
        y_raw, yhat_raw = y, yhat
    else:
        raise ValueError(f"unknown target space {target_space!r}")
    pct, excluded = mape_detail(y, yhat)
    scores = {
        "r2": r2(y, yhat),
        "mape_percent": pct,
        "msle": msle(np.maximum(y_raw, 0.0), np.maximum(yhat_raw, 0.0)),
        "mse": mse(y, yhat),
    }
    overflowed = [name for name, value in scores.items() if not math.isfinite(value)]
    if overflowed:
        raise NonFiniteResult(f"{split_label} {', '.join(overflowed)} not finite")
    return EvalReport(
        split_label=split_label,
        mape_excluded=excluded,
        n=int(y.size),
        target_space=target_space,
        **scores,
    )
