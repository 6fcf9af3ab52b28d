"""movierev: a from-scratch tabular regression toolkit for predicting
movie box-office revenue.

Subpackages cover the full workflow: CSV ingestion and cleaning
(:mod:`.dataset`), the encode/log/scale pipeline (:mod:`.preprocess`),
descriptive statistics and feature scoring (:mod:`.analysis`), six model
families (:mod:`.models`), evaluation metrics (:mod:`.metrics`),
cross-validated grid search (:mod:`.tuning`), artifact persistence
(:mod:`.persist`) and the command-line entry point (:mod:`.cli`).
"""

from .dataset import (
    MOVIE_SCHEMA,
    ColumnSpec,
    DataTable,
    SplitIndices,
    drop_incomplete_rows,
    load_table,
    train_test_split,
)
from .metrics import EvalReport, eval_report, mape, mse, msle, r2
from .models import (
    EnsembleModel,
    LinearModel,
    TreeConfig,
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
from .persist import ModelArtifact, load, make_artifact, save
from .preprocess import Pipeline, fit_pipeline, transform, transform_with_warnings
from .tuning import CvResult, ParamGrid, cross_val_r2, grid_search, kfold_indices

__version__ = "0.1.0"

__all__ = [
    "MOVIE_SCHEMA",
    "ColumnSpec",
    "DataTable",
    "SplitIndices",
    "load_table",
    "drop_incomplete_rows",
    "train_test_split",
    "Pipeline",
    "fit_pipeline",
    "transform",
    "transform_with_warnings",
    "EvalReport",
    "eval_report",
    "r2",
    "mape",
    "msle",
    "mse",
    "LinearModel",
    "EnsembleModel",
    "TreeConfig",
    "fit_ols",
    "fit_cart",
    "fit_bagging",
    "fit_random_forest",
    "fit_gbm",
    "fit_xgb",
    "fit_model",
    "predict",
    "predict_tree",
    "staged_predict",
    "staged_train_r2",
    "ParamGrid",
    "CvResult",
    "kfold_indices",
    "cross_val_r2",
    "grid_search",
    "ModelArtifact",
    "make_artifact",
    "save",
    "load",
    "__version__",
]
