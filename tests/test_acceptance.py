"""Acceptance gate.

Criteria 1 through 9 are property-based and run on generated data with no
external files; each prints one PASS line when it holds. Criteria 10
through 13 reproduce published-figure territory and need the real movie
industry CSV: point the MOVIES_CSV environment variable at it (or place
it at data/movies.csv); they skip when it is absent and tolerate the
known irreproducibility of the original splits with wide bands.

Run with: pytest tests/test_acceptance.py -v -s
"""

import json
import math
import os
import pathlib

import numpy as np
import pytest

from movierev import metrics, models, persist, preprocess, tuning
from movierev.analysis import f_regression_score, select_k_best
from movierev.cli import main
from movierev.dataset import (
    MOVIE_SCHEMA,
    NUMERIC,
    drop_incomplete_rows,
    load_table,
    train_test_split,
    write_csv,
)
from movierev.synthetic import synthetic_movies
from tests.test_models import oracle_tree, tree_structure

REPO = pathlib.Path(__file__).resolve().parent.parent


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# --------------------------------------------------------------------------
# property-based criteria (no external data)


def test_01_cart_matches_bruteforce_oracle():
    """Fitted (feature, threshold) choices equal exhaustive SSE search,
    exact, on 100 random tables."""
    rs = np.random.RandomState(101)
    for trial in range(100):
        n = rs.randint(5, 201)
        p = rs.randint(1, 4)
        depth = rs.randint(1, 3)
        X = rs.rand(n, p)
        y = rs.rand(n)
        config = models.TreeConfig(max_depth=depth)
        fitted = tree_structure(models.fit_cart(X, y, config, rng_seed=trial))
        assert fitted == oracle_tree(X, y, 0, config), f"table {trial}"
    _ok(1, "CART brute-force oracle, 100 tables, exact")


def test_02_xgb_reduces_to_gbm():
    rs = np.random.RandomState(202)
    for trial in range(50):
        n = rs.randint(12, 120)
        p = rs.randint(1, 5)
        X = rs.rand(n, p)
        y = rs.randn(n) * rs.uniform(0.5, 20.0)
        depth = rs.randint(1, 4)
        m = rs.randint(3, 25)
        lr = rs.choice([0.05, 0.1, 0.3, 0.7, 1.0])
        cfg = models.TreeConfig(max_depth=depth)
        gbm = models.fit_gbm(X, y, m, lr, cfg)
        xgb = models.fit_xgb(X, y, m, lr, cfg, reg_lambda=0.0, reg_gamma=0.0)
        gap = float(np.max(np.abs(models.predict(gbm, X) - models.predict(xgb, X))))
        assert gap <= 1e-9, f"dataset {trial}: gap {gap}"
    _ok(2, "XGB with lambda=gamma=0 equals GBM within 1e-9, 50 datasets")


def test_03_boosting_curve_monotone():
    rs = np.random.RandomState(303)
    for trial in range(100):
        n = rs.randint(10, 80)
        X = rs.rand(n, rs.randint(1, 4))
        y = rs.randn(n)
        lr = (0.1, 0.5, 1.0)[trial % 3]
        kind = models.fit_gbm if trial % 2 == 0 else models.fit_xgb
        model = kind(X, y, 12, lr, models.TreeConfig(max_depth=2))
        curve = models.staged_train_r2(model, X, y)
        assert curve[0] == (0, 0.0), "iteration 0 must be exactly zero"
        values = [v for _, v in curve]
        drops = [b - a for a, b in zip(values, values[1:]) if b < a]
        assert all(d >= -1e-12 for d in drops), f"dataset {trial}: drop {min(drops)}"
    _ok(3, "staged train R2 non-decreasing, iteration 0 exactly 0")


def test_04_ols_closed_form_and_orthogonality():
    rs = np.random.RandomState(404)
    for _ in range(25):
        x = rs.randn(40) * rs.uniform(0.5, 5.0)
        y = rs.randn(40)
        sxx = float(np.sum((x - x.mean()) ** 2))
        slope = float(np.sum((x - x.mean()) * (y - y.mean()))) / sxx
        intercept = float(y.mean() - slope * x.mean())
        model = models.fit_ols(x[:, None], y)
        assert abs(model.coefficients[0] - slope) < 1e-10
        assert abs(model.intercept - intercept) < 1e-10
    X = rs.randn(80, 5)
    y = X @ rs.randn(5) + rs.randn(80)
    model = models.fit_ols(X, y)
    resid = y - models.predict(model, X)
    for j in range(5):
        col = X[:, j]
        assert abs(resid @ col) <= 1e-6 * np.linalg.norm(resid) * np.linalg.norm(col)
    assert abs(resid.sum()) <= 1e-6 * np.linalg.norm(resid) * math.sqrt(80)
    _ok(4, "OLS closed form within 1e-10, residual orthogonality 1e-6")


def test_05_metric_identities():
    assert metrics.r2([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == 0.5
    assert metrics.mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx(10.0, abs=1e-12)
    assert metrics.msle([math.e - 1.0], [0.0]) == pytest.approx(1.0, abs=1e-12)
    assert metrics.mse([1.0, 2.0], [2.0, 4.0]) == 2.5
    rs = np.random.RandomState(505)
    for _ in range(50):
        y = rs.rand(30) * 1e6
        yhat = rs.rand(30) * 1e6
        lhs = metrics.msle(y, yhat)
        rhs = metrics.mse(np.log1p(y), np.log1p(yhat))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        a, b = rs.uniform(0.5, 4.0), rs.uniform(-10.0, 10.0)
        z, zhat = rs.randn(30), rs.randn(30)
        assert abs(metrics.r2(z, zhat) - metrics.r2(a * z + b, a * zhat + b)) < 1e-9
        assert abs(metrics.mape(y, yhat) - metrics.mape(a * y, a * yhat)) < 1e-9
    _ok(5, "metric fixtures, msle==mse(log1p) within 1e-12, affine invariance")


def test_06_pipeline_no_leakage_and_round_trips():
    table = synthetic_movies(160, seed=606)
    split = train_test_split(table, seed=1, test_fraction=0.25)
    train_t, test_t = table.take(split.train), table.take(split.test)
    pipe = preprocess.fit_pipeline(train_t, scale=True, log_money=True)

    # encoder round trip is exact for every fitted class
    for column, classes in pipe.encoder.classes.items():
        for code, value in enumerate(classes):
            assert pipe.encoder.code(column, value) == (float(code), True)
            assert pipe.encoder.decode(column, code) == value

    # log1p / expm1 inverse pair within 1e-9 relative
    v = np.asarray(train_t.column("budget"))
    back = preprocess.expm1_inverse(preprocess.log1p_transform(v))
    assert np.all(np.abs(back - v) <= 1e-9 * np.abs(v))

    # fitted statistics come from the training rows only
    X_train, _ = preprocess.transform(pipe, train_t)
    assert np.all(np.abs(X_train.mean(axis=0)) < 1e-9)
    pipe_before = persist.schema_hash(pipe.fitted_on_schema), pipe.scaler.means.copy()
    X_test, _, _ = preprocess.transform_with_warnings(pipe, test_t)
    assert (persist.schema_hash(pipe.fitted_on_schema), pipe.scaler.means) == pipe_before
    assert float(np.max(np.abs(X_test.mean(axis=0)))) > 1e-6  # stats were not refit

    # transforming the training table twice is bit-identical
    X_again, y_again = preprocess.transform(pipe, train_t)
    assert np.array_equal(X_train, X_again)
    _ok(6, "pipeline leakage-free, encoder/log/scaler round trips hold")


def test_07_train_cli_is_deterministic(tmp_path):
    """Same seed, same bytes, for every file the train command writes.

    Fitting is sequential with per-member derived seeds, so the output
    cannot depend on scheduling or thread count.
    """
    csv_path = tmp_path / "movies.csv"
    write_csv(synthetic_movies(200, seed=707), csv_path)
    outputs = []
    for name in ("first", "second"):
        d = tmp_path / name
        d.mkdir()
        code = main(
            [
                "train", "--data", str(csv_path), "--model", "xgb",
                "--out", str(d / "m.mrp.json"), "--seed", "11",
                "--track-r2", str(d / "curve.csv"),
            ]
        )
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in d.iterdir()})
    assert set(outputs[0]) == {"m.mrp.json", "m.report.csv", "m.report.json", "curve.csv"}
    assert outputs[0] == outputs[1]
    _ok(7, "train command byte-identical across reruns")


def test_08_f_score_formula():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [1.0, 2.0, 3.0, 5.0]
    # independent oracle: direct covariance formula, then F
    dx = np.asarray(x) - np.mean(x)
    dy = np.asarray(y) - np.mean(y)
    r = float(np.sum(dx * dy)) / math.sqrt(float(np.sum(dx * dx) * np.sum(dy * dy)))
    expected = r * r / (1.0 - r * r) * (len(x) - 2)
    got = f_regression_score(x, y)
    assert abs(got - expected) <= 1e-9
    assert got == pytest.approx(56.333333333, abs=1e-6)
    rs = np.random.RandomState(808)
    for _ in range(30):
        u, w = rs.randn(25), rs.randn(25)
        base = f_regression_score(u, w)
        moved = f_regression_score(3.0 * u - 5.0, -2.0 * w + 9.0)
        assert abs(base - moved) <= 1e-9 * max(1.0, abs(base))
    _ok(8, "F-score formula matches direct oracle, affine invariant")


def test_09_persistence_golden_round_trip(tmp_path):
    golden = REPO / "docs" / "golden.mrp.json"
    raw = golden.read_bytes()
    artifact = persist.load(golden)
    assert persist.dumps_canonical(artifact).encode("utf-8") == raw
    a, b = tmp_path / "a.mrp.json", tmp_path / "b.mrp.json"
    persist.save(artifact, a)
    persist.save(artifact, b)
    assert a.read_bytes() == b.read_bytes() == raw
    _ok(9, "golden artifact round trip, canonical bytes")


# --------------------------------------------------------------------------
# soft paper-number reproduction (needs the real movie industry CSV)

PAPER_ROW_COUNT = 7669
PAPER_CLEAN_COUNT = 5422


def _real_csv_path():
    env = os.environ.get("MOVIES_CSV")
    if env and pathlib.Path(env).exists():
        return pathlib.Path(env)
    default = REPO / "data" / "movies.csv"
    return default if default.exists() else None

requires_dataset = pytest.mark.skipif(
    _real_csv_path() is None,
    reason="real movie CSV not supplied; set MOVIES_CSV or add data/movies.csv",
)


@pytest.fixture(scope="module")
def real_tables():
    raw = load_table(_real_csv_path())
    clean = drop_incomplete_rows(raw)
    return raw, clean


@pytest.fixture(scope="module")
def real_matrices(real_tables):
    _, clean = real_tables
    split = train_test_split(clean, seed=42, test_fraction=0.2)
    train_t, test_t = clean.take(split.train), clean.take(split.test)
    tree_pipe = preprocess.fit_pipeline(train_t, scale=False, log_money=True)
    lin_pipe = preprocess.fit_pipeline(train_t, scale=True, log_money=True)
    return {
        "tree": (
            preprocess.transform(tree_pipe, train_t),
            preprocess.transform(tree_pipe, test_t),
        ),
        "linear": (
            preprocess.transform(lin_pipe, train_t),
            preprocess.transform(lin_pipe, test_t),
        ),
    }


@requires_dataset
def test_10_cleaning_row_count(real_tables):
    raw, clean = real_tables
    if raw.row_count == PAPER_ROW_COUNT:
        assert clean.row_count == PAPER_CLEAN_COUNT
        _ok(10, f"cleaning yields exactly {PAPER_CLEAN_COUNT} rows")
    else:
        print(
            f"ACCEPTANCE 10 cleaning: observed {raw.row_count} -> {clean.row_count} "
            f"rows (not the {PAPER_ROW_COUNT}-row release; informational only): PASS"
        )


@requires_dataset
def test_11_budget_tops_feature_scores(real_tables):
    _, clean = real_tables
    names = [c.name for c in clean.schema if c.role == "feature"]
    matrix, _ = preprocess.encode_table(clean, preprocess.fit_encoders(clean), names)
    y = np.asarray(clean.column("gross"), dtype=np.float64)
    table = select_k_best(matrix, names, y, k=len(names))
    top_name, top_score = table.entries[0]
    assert top_name == "budget"
    assert 5900.0 <= top_score <= 7200.0
    numeric = [c.name for c in MOVIE_SCHEMA if c.kind == NUMERIC and c.role == "feature"]
    numeric_ranked = [name for name, _ in table.entries if name in numeric]
    assert numeric_ranked[1] == "votes"
    _ok(11, f"budget top-ranked (F={top_score:.0f}), votes second among numerics")


@requires_dataset
def test_12_headline_r2_bands(real_matrices):
    (gbm_train, gbm_test) = real_matrices["tree"]
    (lin_train, lin_test) = real_matrices["linear"]
    grid = tuning.ParamGrid(tuning.DEFAULT_GRID)

    cv = tuning.grid_search("gbm", grid, gbm_train[0], gbm_train[1], seed=42)
    gbm = models.fit_model("gbm", gbm_train[0], gbm_train[1], cv.best_params, seed=42)
    train_r2 = metrics.r2(gbm_train[1], models.predict(gbm, gbm_train[0]))
    test_r2 = metrics.r2(gbm_test[1], models.predict(gbm, gbm_test[0]))
    assert abs(train_r2 - 0.9158) <= 0.04, f"gbm train r2 {train_r2:.4f}"
    assert abs(test_r2 - 0.8242) <= 0.05, f"gbm test r2 {test_r2:.4f}"

    cv_x = tuning.grid_search("xgb", grid, gbm_train[0], gbm_train[1], seed=42)
    xgb = models.fit_model("xgb", gbm_train[0], gbm_train[1], cv_x.best_params, seed=42)
    xgb_test = metrics.r2(gbm_test[1], models.predict(xgb, gbm_test[0]))
    assert abs(xgb_test - 0.8102) <= 0.05, f"xgb test r2 {xgb_test:.4f}"

    lin = models.fit_model("linear", lin_train[0], lin_train[1])
    lin_test = metrics.r2(lin_test[1], models.predict(lin, lin_test[0]))
    assert abs(lin_test - 0.6706) <= 0.05, f"linear test r2 {lin_test:.4f}"
    _ok(12, f"gbm {train_r2:.4f}/{test_r2:.4f}, xgb {xgb_test:.4f}, linear {lin_test:.4f}")


@requires_dataset
def test_13_boosting_beats_linear(real_matrices):
    (tree_train, tree_test) = real_matrices["tree"]
    (lin_train, lin_test) = real_matrices["linear"]
    lin = models.fit_model("linear", lin_train[0], lin_train[1])
    lin_r2 = metrics.r2(lin_test[1], models.predict(lin, lin_test[0]))
    for kind in ("gbm", "xgb"):
        boost = models.fit_model(kind, tree_train[0], tree_train[1], {}, seed=42)
        boost_r2 = metrics.r2(tree_test[1], models.predict(boost, tree_test[0]))
        assert boost_r2 - lin_r2 >= 0.08, f"{kind} {boost_r2:.4f} vs linear {lin_r2:.4f}"
    _ok(13, "boosting outperforms linear regression by >= 0.08 test R2")
