import math

import numpy as np
import pytest

from movierev import analysis
from movierev.analysis import (
    category_counts,
    expand_categorical,
    f_regression_score,
    gross_histogram,
    pearson_r,
    select_k_best,
    summarize,
    threshold_scores,
)
from movierev.errors import BadBins, ZeroVariance
from movierev.dataset import CATEGORICAL, FEATURE
from movierev.preprocess import encode_table, fit_encoders, fit_pipeline
from movierev.synthetic import synthetic_movies
from tests.conftest import tiny_table


def direct_f_score(x, y):
    """Independent oracle: Pearson r by the covariance formula, then
    F = r^2 / (1 - r^2) * (n - 2)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx, dy = x - x.mean(), y - y.mean()
    r = (dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum())
    return r * r / (1.0 - r * r) * (len(x) - 2)


class TestSummarize:
    def test_odd_length_order_statistics(self):
        t = tiny_table({"v": [1.0, 2.0, 3.0, 4.0, 5.0], "y": [0.0] * 5})
        s = summarize(t).columns["v"]
        assert (s.median, s.q1, s.q3, s.min, s.max) == (3.0, 2.0, 4.0, 1.0, 5.0)

    def test_constant_column(self):
        t = tiny_table({"v": [4.0, 4.0, 4.0], "y": [0.0] * 3})
        s = summarize(t).columns["v"]
        assert s.stddev == 0.0
        assert s.min == s.q1 == s.median == s.q3 == s.max == 4.0

    def test_even_length_linear_interpolation(self):
        # oracle: position (n-1)p over [1,2,3,4] gives 1.75, 2.5, 3.25
        t = tiny_table({"v": [1.0, 2.0, 3.0, 4.0], "y": [0.0] * 4})
        s = summarize(t).columns["v"]
        assert (s.q1, s.median, s.q3) == (1.75, 2.5, 3.25)

    def test_overflowing_squares_give_a_finite_stddev(self):
        """The squared deviation of 1e308 overflows; the stddev is the one
        of the column divided by 1e292, scaled back."""
        v = [1e308] + [float(i) for i in range(1, 30)]
        with np.errstate(over="ignore"):
            s = summarize(tiny_table({"v": v, "y": [0.0] * 30})).columns["v"]
        scaled = np.array(v) / 1e292
        assert s.stddev == pytest.approx(1e292 * np.sqrt(np.mean((scaled - scaled.mean()) ** 2)))

    def test_opposite_extremes_give_finite_quartiles(self):
        """The plain interpolation 1e308 - (-1e308) overflows: the median,
        q1 and q3 were -inf, inf and -inf."""
        with np.errstate(all="raise"):
            s = summarize(tiny_table({"v": [-1e308, 1e308], "y": [0.0, 0.0]})).columns["v"]
        assert (s.mean, s.stddev) == (0.0, 1e308)
        assert (s.q1, s.median, s.q3) == (-5e307, 0.0, 5e307)

    def test_ordering_chain_on_random_columns(self):
        rs = np.random.RandomState(4)
        for _ in range(25):
            n = rs.randint(2, 40)
            t = tiny_table({"v": rs.randn(n).tolist(), "y": [0.0] * n})
            s = summarize(t).columns["v"]
            assert s.min <= s.q1 <= s.median <= s.q3 <= s.max


def plain_std(col):
    return np.sqrt(np.mean((col - np.mean(col)) ** 2))


def plain_r(x, y):
    dx, dy = x - np.mean(x), y - np.mean(y)
    r = float(np.sum(dx * dy)) / math.sqrt(float(np.sum(dx * dx)) * float(np.sum(dy * dy)))
    return max(-1.0, min(1.0, r))


def random_matrix(rs, low, high):
    """C-ordered, so each column is a strided view; column j has the
    magnitude 10**u with u uniform in [low, high]."""
    n = rs.randint(2, 80)
    return rs.randn(n, 4) * 10.0 ** rs.uniform(low, high, size=4)


class TestPlainExpressionBits:
    """Scaling a column by a power of two is exact, so the statistics
    equal the plain numpy expressions bit for bit wherever those stay in
    the normal range: the mean and the quartiles for magnitudes from
    1e-200 to 1e200, the standard deviation while the squared deviations
    do (1e-140 to 1e140), and r while sxx * syy does (1e-70 to 1e70)."""

    @pytest.mark.parametrize("low, high, with_std", [(-200, 200, False), (-140, 140, True)])
    def test_summary_and_scaler_statistics(self, low, high, with_std):
        rs = np.random.RandomState(12)
        for _ in range(40):
            m = random_matrix(rs, low, high)
            table = tiny_table({**{f"c{j}": m[:, j].tolist() for j in range(4)}, "y": [0.0] * len(m)})
            stats = summarize(table).columns
            scaler = fit_pipeline(table, scale=True, log_money=False).scaler
            for j, col in enumerate(m.T):
                s = stats[f"c{j}"]
                mean = np.mean(col)
                assert (s.mean, s.q1, s.median, s.q3) == (mean, *np.quantile(col, [0.25, 0.5, 0.75]))
                assert scaler.means[f"c{j}"] == mean
                if with_std:
                    assert s.stddev == scaler.stds[f"c{j}"] == plain_std(col)

    def test_pearson_r_on_strided_columns(self):
        rs = np.random.RandomState(13)
        for _ in range(40):
            m = random_matrix(rs, -70, 70)
            m[:, 1] += 0.5 * m[:, 0] * (m[:, 1].std() / m[:, 0].std())
            for a, b in ((0, 1), (2, 3), (1, 2)):
                assert pearson_r(m[:, a], m[:, b]) == plain_r(m[:, a], m[:, b])


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_r(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson_r(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_case(self):
        # oracle: cross deviations cancel pairwise, covariance is 0
        assert pearson_r([1, 2, 1, 2], [1, 1, 2, 2]) == 0.0

    @pytest.mark.parametrize("huge", ["x", "y"])
    def test_overflowing_squares_keep_r(self, huge):
        """1e308 squared overflows; r is scale-free, so it equals r of the
        column divided by 1e300. The clamp used to turn NaN into 1.0."""
        rs = np.random.RandomState(3)
        x, y = rs.rand(30), rs.rand(30)
        x[0] = 1e8
        big = {"x": (x * 1e300, y), "y": (y, x * 1e300)}[huge]
        with np.errstate(over="ignore"):
            assert pearson_r(*big) == pytest.approx(pearson_r(x, y), rel=1e-12)
            assert f_regression_score(*big) == pytest.approx(f_regression_score(x, y), rel=1e-9)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestFScore:
    def test_perfect_correlation_is_inf(self):
        x = np.arange(10.0)
        assert f_regression_score(x, 3 * x - 1) == math.inf

    def test_uncorrelated_is_zero(self):
        assert f_regression_score([1, 2, 1, 2], [1, 1, 2, 2]) == 0.0

    def test_derived_fixture_against_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 2.0, 3.0, 5.0]
        got = f_regression_score(x, y)
        assert abs(got - direct_f_score(x, y)) < 1e-9
        assert got == pytest.approx(56.333333, abs=1e-5)

    def test_constant_feature_scores_zero(self):
        assert f_regression_score([3.0, 3.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_affine_invariance(self):
        rs = np.random.RandomState(7)
        for _ in range(20):
            x = rs.randn(30)
            y = rs.randn(30)
            base = f_regression_score(x, y)
            moved = f_regression_score(2.5 * x - 7.0, -0.3 * y + 11.0)
            assert abs(base - moved) <= 1e-9 * max(1.0, abs(base))


class TestSelectKBest:
    def test_total_selection_sorted(self):
        rs = np.random.RandomState(1)
        X = rs.randn(40, 3)
        y = X[:, 1] + 0.1 * rs.randn(40)
        table = select_k_best(X, ["a", "b", "c"], y, 3)
        scores = [s for _, s in table.entries]
        assert scores == sorted(scores, reverse=True)
        assert table.k_selected == 3
        assert table.entries[0][0] == "b"

    def test_perfect_column_ranks_first_with_inf(self):
        rs = np.random.RandomState(2)
        X = np.column_stack([rs.randn(30), rs.randn(30)])
        y = 4.0 * X[:, 1]
        table = select_k_best(X, ["noise", "signal"], y, 1)
        assert table.entries[0] == ("signal", math.inf)

    def test_tie_break_by_name(self):
        X = np.column_stack([np.arange(10.0), np.arange(10.0)])
        y = np.arange(10.0)
        table = select_k_best(X, ["zeta", "alpha"], y, 1)
        assert [name for name, _ in table.entries] == ["alpha", "zeta"]

    def test_selection_invariant_under_column_permutation(self):
        rs = np.random.RandomState(3)
        X = rs.randn(50, 4)
        y = X @ np.array([0.0, 2.0, 0.5, 0.0]) + 0.1 * rs.randn(50)
        names = ["a", "b", "c", "d"]
        t1 = select_k_best(X, names, y, 2)
        perm = [2, 0, 3, 1]
        t2 = select_k_best(X[:, perm], [names[i] for i in perm], y, 2)
        assert set(n for n, _ in t1.entries[:2]) == set(n for n, _ in t2.entries[:2])


class TestThreshold:
    def test_zero_threshold_is_identity_for_positive_scores(self):
        rs = np.random.RandomState(5)
        X = rs.randn(30, 3)
        y = X[:, 0] + rs.randn(30)
        table = select_k_best(X, ["a", "b", "c"], y, 3)
        assert threshold_scores(table, 0.0).entries == tuple(
            e for e in table.entries if e[1] > 0.0
        )

    def test_inf_threshold_empties(self):
        rs = np.random.RandomState(6)
        X = rs.randn(30, 2)
        table = select_k_best(X, ["a", "b"], X[:, 0], 2)
        assert threshold_scores(table, math.inf).entries == ()

    def test_strictness(self):
        from movierev.analysis import FScoreTable

        table = FScoreTable(entries=(("a", 6569.0), ("b", 120.0), ("c", 99.0)), k_selected=3)
        kept = threshold_scores(table, 100.0)
        assert [n for n, _ in kept.entries] == ["a", "b"]
        kept_edge = threshold_scores(table, 120.0)
        assert [n for n, _ in kept_edge.entries] == ["a"]


class TestCountsAndHistogram:
    def test_single_category(self):
        t = tiny_table(
            {"c": ["USA", "USA", "USA"], "y": [1.0, 2.0, 3.0]}, kinds={"c": "categorical"}
        )
        assert category_counts(t, "c") == [("USA", 3)]

    def test_counts_sorted_desc_then_name(self):
        t = tiny_table(
            {"c": ["b", "a", "b", "c", "a"], "y": [0.0] * 5}, kinds={"c": "categorical"}
        )
        assert category_counts(t, "c") == [("a", 2), ("b", 2), ("c", 1)]

    def test_histogram_binning(self):
        # oracle by hand: 1 -> [0,5); 5 and 9 -> [5,10)
        hist = gross_histogram([1.0, 5.0, 9.0], [0.0, 5.0, 10.0])
        assert [(b, n) for b, n in hist] == [((0.0, 5.0), 1), ((5.0, 10.0), 2)]

    def test_outliers_clamped_and_total_conserved(self):
        hist = gross_histogram([-3.0, 0.0, 4.9, 5.0, 100.0], [0.0, 5.0, 10.0])
        assert sum(n for _, n in hist) == 5
        assert hist[0][1] == 3  # -3 clamps into the first bin
        assert hist[1][1] == 2  # 100 clamps into the last bin

    def test_conservation_random(self):
        rs = np.random.RandomState(8)
        for _ in range(20):
            y = rs.randn(rs.randint(1, 200)) * 10
            edges = np.sort(rs.choice(np.arange(-30.0, 30.0), size=5, replace=False))
            hist = gross_histogram(y, edges)
            assert sum(n for _, n in hist) == len(y)

    def test_bad_bins(self):
        with pytest.raises(BadBins):
            gross_histogram([1.0], [0.0, 0.0, 1.0])
        with pytest.raises(BadBins):
            gross_histogram([1.0], [2.0])


def test_expand_categorical_names_and_values():
    t = tiny_table(
        {"genre": ["x", "y", "x"], "b": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]},
        kinds={"genre": "categorical"},
    )
    view, names = expand_categorical(t)
    matrix = np.asarray(view)
    assert names == ["genre=x", "genre=y", "b"]
    assert matrix[:, 0].tolist() == [1.0, 0.0, 1.0]
    assert matrix[:, 1].tolist() == [0.0, 1.0, 0.0]
    assert matrix[:, 2].tolist() == [1.0, 2.0, 3.0]


def column_f_score(x, y):
    """The per-column F score the block scorer replaced, kept as its
    reference: scale by the power of two of max|v|, centre, r, clamp."""

    def centred(v):
        s = np.ldexp(v, -math.frexp(float(np.max(np.abs(v))))[1])
        d = s - np.mean(s)
        return d, float(np.sum(d * d))

    (dx, sxx), (dy, syy) = centred(x), centred(y)
    r = 0.0
    if sxx != 0.0 and syy != 0.0:
        r = max(-1.0, min(1.0, float(np.sum(dx * dy)) / math.sqrt(sxx * syy)))
    r2 = r * r
    return math.inf if r2 >= 1.0 else r2 / (1.0 - r2) * (x.size - 2)


def reference_scores(X, y):
    return [column_f_score(X[:, j], np.asarray(y, dtype=np.float64)) for j in range(X.shape[1])]


def dense_expansion(table):
    """The dense matrix ``expand_categorical`` used to build, one hstack
    of every feature's indicator (or numeric) columns."""
    features = [c for c in table.schema if c.role == FEATURE]
    encoder = fit_encoders(table)
    encoded, _ = encode_table(table, encoder, [c.name for c in features])
    blocks = []
    for c, col in zip(features, encoded.T):
        col = col[:, None]
        if c.kind == CATEGORICAL:
            blocks.append(col == np.arange(len(encoder.classes[c.name])))
        else:
            blocks.append(col)
    return np.hstack(blocks, dtype=np.float64)


class TestBlockScorerBits:
    """The block scorer gives every column the bits of the per-column
    formula, wherever the column falls in its block."""

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_column_counts_around_one_block(self, extra):
        rs = np.random.RandomState(30 + extra)
        n = 300
        count = analysis._SCORE_CELLS // n + extra
        X = rs.randn(n, count) * 10.0 ** rs.uniform(-70, 70, size=count)
        y = rs.randn(n) * 1e5
        X[:, 1] = 7.5  # constant: scores 0
        X[:, 2] = 0.0
        X[:, -1] = y  # equal to the target: +inf
        X[:, 3] += 0.3 * y * (X[:, 3].std() / y.std())
        got = analysis._f_scores(X, y)
        assert got == reference_scores(X, y)
        assert got[1] == got[2] == 0.0 and got[-1] == math.inf

    def test_constant_target_scores_zero(self):
        X = np.random.RandomState(31).randn(40, 5)
        assert analysis._f_scores(X, np.full(40, 3.0)) == [0.0] * 5 == reference_scores(
            X, np.full(40, 3.0)
        )

    @pytest.mark.parametrize("low, high", [(-70, -30), (-20, 20), (30, 70)])
    def test_magnitudes(self, low, high):
        rs = np.random.RandomState(32)
        for _ in range(10):
            m = random_matrix(rs, low, high)
            m[:, 1] += 0.5 * m[:, 0] * (m[:, 1].std() / m[:, 0].std())
            y = m[:, 0] * 10.0 ** rs.uniform(low, high) + rs.randn(len(m)) * m[:, 0].std()
            assert analysis._f_scores(m, y) == reference_scores(m, y)

    def test_more_rows_than_one_reduction_buffer(self):
        """Past 8,192 rows a buffered reduction would sum in chunks; the
        rows of a block are summed whole, like the 1-D column."""
        rs = np.random.RandomState(33)
        n = 10_007
        X = rs.randn(n, analysis._SCORE_CELLS // n + 3) * 1e3 + 1e6
        y = X[:, 0] * 0.01 + rs.randn(n)
        assert analysis._f_scores(X, y) == reference_scores(X, y)

    def test_expanded_view_is_the_dense_matrix_and_scores_like_it(self):
        table = synthetic_movies(400, seed=5)
        view, names = expand_categorical(table)
        dense = dense_expansion(table)
        matrix = np.asarray(view)
        assert view.shape == dense.shape == (400, len(names))
        assert matrix.dtype == np.float64 and np.array_equal(matrix, dense)
        for step in (1, 7, analysis._SCORE_CELLS // 400):
            for start in range(0, len(names), step):
                block = view.column_rows(start, start + step)
                assert block.flags.c_contiguous
                assert np.array_equal(block, dense[:, start:start + step].T)
        y = table.column("gross")
        got = select_k_best(view, names, y, 5)
        assert dict(got.entries) == dict(zip(names, reference_scores(dense, y)))
        assert got == select_k_best(dense, names, y, 5)

    def test_f_regression_score_is_the_reference(self):
        rs = np.random.RandomState(34)
        x, y = rs.randn(50), rs.randn(50)
        assert f_regression_score(x, y) == column_f_score(x, y)
