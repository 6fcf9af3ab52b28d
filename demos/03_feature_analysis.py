"""Descriptive statistics and univariate feature scores.

Which columns carry revenue signal? Summary statistics first, then
Pearson correlations and the F-score ranking used for feature selection.
"""

import numpy as np

from movierev.analysis import (
    category_counts,
    f_regression_score,
    gross_histogram,
    pearson_r,
    select_k_best,
    summarize,
    threshold_scores,
)
from movierev.preprocess import fit_pipeline, transform
from movierev.synthetic import synthetic_movies

table = synthetic_movies(600, seed=12)
gross = np.asarray(table.column("gross"))

print("summary statistics (numeric columns):")
stats = summarize(table)
print(f"  {'column':8s} {'mean':>12s} {'median':>12s} {'stddev':>12s}")
for name, s in stats.columns.items():
    print(f"  {name:8s} {s.mean:12.3g} {s.median:12.3g} {s.stddev:12.3g}")

print("\ncorrelation of numeric features with gross:")
for name in ("budget", "votes", "score", "runtime", "year"):
    r = pearson_r(np.asarray(table.column(name)), gross)
    print(f"  {name:8s} r = {r:+.3f}")

# label-encode categoricals (no log, no scaling) so every column can be
# scored uniformly
pipeline = fit_pipeline(table, scale=False, log_money=False)
matrix, _ = transform(pipeline, table)
scores = select_k_best(matrix, pipeline.feature_names, gross, k=5)

print("\nF-score ranking (top 5 selected):")
for i, (name, score) in enumerate(scores.entries):
    marker = "*" if i < scores.k_selected else " "
    print(f"  {marker} {name:9s} F = {score:10.1f}")

strong = threshold_scores(scores, 100.0)
print(f"\nfeatures with F > 100: {[n for n, _ in strong.entries]}")

print("\nmovies per country:")
for country, count in category_counts(table, "country")[:5]:
    print(f"  {country:15s} {count}")

edges = np.linspace(0.0, float(gross.max()), 6)
print("\ngross histogram (5 equal-width bins):")
for (lo, hi), count in gross_histogram(gross, edges):
    print(f"  [{lo:12.3g}, {hi:12.3g})  {'#' * (count // 12)} {count}")
