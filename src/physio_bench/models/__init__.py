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
    "train_model", "tune_model", "predict_proba", "predict_class",
    "model_to_json", "model_from_json", "default_grid",
]

_TRAINERS = {
    "logistic": train_logistic,
    "knn": train_knn,
    "bagging": train_tree_ensemble,
    "boosting": train_tree_ensemble,
    "svm": train_svm_rbf,
}

_MODEL_CLASSES = {
    "logistic": LogisticModel,
    "knn": KnnModel,
    "tree_ensemble": TreeEnsembleModel,
    "svm": SvmModel,
}


def train_model(data: DataMatrix, cfg: TrainConfig):
    """Train the configured model kind on a data matrix."""
    return _TRAINERS[cfg.kind](data, cfg)


def predict_proba(model, X: np.ndarray) -> np.ndarray:
    """Per-class probabilities; rejected for score-only models (SVM)."""
    if not hasattr(model, "predict_proba"):
        raise ConfigError(f"{model.kind} provides decision scores, not probabilities")
    return model.predict_proba(X)


def predict_class(model, X: np.ndarray) -> np.ndarray:
    return model.predict_class(X)


def model_to_json(model) -> str:
    doc = model.to_dict()
    doc["model_kind"] = _kind_name(model)
    return json.dumps(doc, sort_keys=True)


def _kind_name(model) -> str:
    for name, cls in _MODEL_CLASSES.items():
        if isinstance(model, cls):
            return name
    raise SchemaMismatch(f"unknown model type {type(model)!r}")


def model_from_json(text: str):
    doc = json.loads(text)
    kind = doc.get("model_kind") or doc.get("kind")
    if kind not in _MODEL_CLASSES:
        raise SchemaMismatch(f"unknown serialized model kind {kind!r}")
    return _MODEL_CLASSES[kind].from_dict(doc)


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


def tune_model(data: DataMatrix, cfg: TrainConfig):
    """Grid search under grouped k-fold CV; returns (model, best_cfg, trace).

    Candidates are scored by mean macro-F1 across folds; the first best in
    declared grid order wins ties. The winner is refit on all rows.
    """
    from ..evaluation import evaluate_fold, grouped_kfold, macro_f1_score

    grid = cfg.grid if cfg.grid is not None else default_grid(cfg.kind)
    subjects = sorted(set(data.groups))
    k = min(cfg.cv_folds, len(subjects))
    if k < 2:
        raise ConfigError("tuning needs at least 2 subjects")
    plan = grouped_kfold(subjects, k, cfg.seed)

    trace = []
    best = None
    for point in _grid_points(grid):
        candidate = cfg.replace(grid=None, **point)
        folds = [evaluate_fold(data, candidate, train_subj, test_subj)
                 for train_subj, test_subj in plan.folds]
        mean_score = float(np.mean(
            [macro_f1_score(f["y_true"], f["y_pred"]) for f in folds]))
        trace.append({"params": point, "macro_f1": mean_score})
        if best is None or mean_score > best[0]:
            best = (mean_score, candidate)
    final = train_model(data, best[1])
    return final, best[1], trace
