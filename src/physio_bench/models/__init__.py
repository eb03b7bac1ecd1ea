"""Model trainers, prediction helpers, serialization, and grid tuning."""

from __future__ import annotations

import json

import numpy as np

from ..errors import ConfigError, SchemaMismatch
from .base import ColumnStats, DataMatrix, TrainConfig, class_order, softmax
from .knn import KnnModel, train_knn
from .logistic import LogisticModel, train_logistic
from .svm import SvmModel, median_pairwise_distance, rbf_kernel, rbf_matrix, train_svm_rbf
from .trees import Tree, TreeEnsembleModel, train_tree_ensemble

__all__ = [
    "ColumnStats", "DataMatrix", "TrainConfig", "class_order", "softmax",
    "KnnModel", "LogisticModel", "SvmModel", "Tree", "TreeEnsembleModel",
    "train_knn", "train_logistic", "train_svm_rbf", "train_tree_ensemble",
    "rbf_kernel", "rbf_matrix", "median_pairwise_distance",
    "train_model", "tune_model", "predict_proba",
    "model_to_json", "model_from_json", "default_grid",
]

_TRAINERS = {
    "logistic": train_logistic,
    "knn": train_knn,
    "bagging": train_tree_ensemble,
    "boosting": train_tree_ensemble,
    "svm": train_svm_rbf,
}

_MODEL_CLASSES = {cls.kind: cls for cls in
                  (LogisticModel, KnnModel, TreeEnsembleModel, SvmModel)}


def train_model(data: DataMatrix, cfg: TrainConfig):
    """Train the configured model kind on a data matrix."""
    return _TRAINERS[cfg.kind](data, cfg)


def predict_proba(model, X: np.ndarray) -> np.ndarray:
    """Per-class probabilities; rejected for score-only models (SVM)."""
    if not hasattr(model, "predict_proba"):
        raise ConfigError(f"{model.kind} provides decision scores, not probabilities")
    return model.predict_proba(X)


def model_to_json(model) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


def model_from_json(text: str):
    """The model a `model.json` text holds; text that is not a JSON
    object of a known kind with all its fields, each of the right shape,
    raises SchemaMismatch, and so does a model whose arrays do not score
    an all-zero row with one score per class."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaMismatch(f"model file is not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaMismatch("model file must hold a JSON object")
    kind = doc.get("model_kind") or doc.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_CLASSES:
        raise SchemaMismatch(f"unknown serialized model kind {kind!r}")
    try:
        model = _MODEL_CLASSES[kind].from_dict(doc)
        scores = np.shape(model.predict_scores(np.zeros((1, len(model.feature_names)))))
    except KeyError as e:
        raise SchemaMismatch(f"{kind} model file lacks the field {e}") from None
    except (TypeError, ValueError, IndexError) as e:
        raise SchemaMismatch(f"{kind} model file has a malformed field: {e}") from None
    if scores != (1, len(model.classes)):
        raise SchemaMismatch(f"{kind} model file scores one row with shape "
                             f"{scores}, not (1, {len(model.classes)})")
    return model


# --- hyperparameter tuning ----------------------------------------------------

#: Small declared grids searched under grouped k-fold CV when requested.
DEFAULT_GRIDS = {
    "logistic": {"l2": [0.1, 1.0, 10.0]},
    "knn": {"knn_k": [3, 5, 9]},
    "bagging": {"n_trees": [150, 300], "min_samples_leaf": [2, 4]},
    "boosting": {"n_trees": [100, 200], "learning_rate": [0.05, 0.1],
                 "max_depth": [2, 3]},
    "svm": {"svm_c": [0.3, 1.0, 3.0]},
}


def default_grid(kind: str) -> dict[str, list]:
    return {k: list(v) for k, v in DEFAULT_GRIDS[kind].items()}


def _grid_points(grid: dict[str, list]) -> list[dict]:
    points = [{}]
    for key in grid:
        points = [dict(p, **{key: v}) for p in points for v in grid[key]]
    return points


def tune_model(data: DataMatrix, cfg: TrainConfig, jobs: int = 1):
    """Grid search under grouped k-fold CV; returns (model, best_cfg, trace).

    The (grid point, fold) fits run on `jobs` forked workers, each of which
    sends back only its macro-F1. Candidates are scored by mean macro-F1
    across folds; the first best in declared grid order wins ties. The
    winner is refit on all rows, in this process.
    """
    from ..evaluation import grouped_kfold, macro_f1_score, run_folds

    grid = cfg.grid if cfg.grid is not None else default_grid(cfg.kind)
    subjects = sorted(set(data.groups))
    if len(subjects) < 2:
        raise ConfigError("tuning needs at least 2 subjects")
    plan = grouped_kfold(subjects, min(cfg.cv_folds, len(subjects)), cfg.seed)

    points = _grid_points(grid)
    candidates = [cfg.replace(grid=None, **point) for point in points]
    fold_f1s = run_folds([(data, c) for c in candidates], plan,
                         lambda rec: macro_f1_score(rec["y_true"], rec["y_pred"]), jobs)
    means = [float(np.mean(f1s)) for f1s in fold_f1s]
    trace = [{"params": p, "macro_f1": m} for p, m in zip(points, means)]
    best = candidates[means.index(max(means))]
    return train_model(data, best), best, trace
