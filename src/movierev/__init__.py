"""movierev: a from-scratch tabular regression toolkit for predicting
movie box-office revenue.

Subpackages cover the full workflow: CSV ingestion and cleaning
(:mod:`.dataset`), the encode/log/scale pipeline (:mod:`.preprocess`),
descriptive statistics and feature scoring (:mod:`.analysis`), six model
families (:mod:`.models`), evaluation metrics (:mod:`.metrics`),
cross-validated grid search (:mod:`.tuning`), artifact persistence
(:mod:`.persist`) and the command-line entry point (:mod:`.cli`).

The public names below are loaded on first use: ``import movierev``
imports no submodule, and ``movierev.fit_model`` imports
:mod:`.models` (and what it needs) the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_PUBLIC = {
    "dataset": ("MOVIE_SCHEMA", "ColumnSpec", "DataTable", "SplitIndices", "load_table",
                "drop_incomplete_rows", "train_test_split"),
    "preprocess": ("Pipeline", "fit_pipeline", "transform", "transform_with_warnings"),
    "metrics": ("EvalReport", "eval_report", "r2", "mape", "msle", "mse"),
    "models": ("LinearModel", "EnsembleModel", "TreeConfig", "fit_ols", "fit_cart",
               "fit_bagging", "fit_random_forest", "fit_gbm", "fit_xgb", "fit_model",
               "predict", "predict_tree", "staged_predict", "staged_train_r2"),
    "tuning": ("ParamGrid", "CvResult", "kfold_indices", "cross_val_r2", "grid_search"),
    "persist": ("ModelArtifact", "make_artifact", "save", "load"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    # an unknown name raises AttributeError, so ``from movierev import
    # models`` falls back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
