"""Subject-aware splitting and classification metrics.

Every split keeps whole subjects on one side: holdout draws a seeded
subject sample, grouped k-fold deals shuffled subjects round-robin, and
LOSO gives each subject its own test fold. AUC uses the rank statistic
(Mann-Whitney scaling, ties at half weight), which is exact under ties and
invariant to monotone score transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyMatrix,
    KExceedsSubjects,
    LengthMismatch,
    SingleClassPresent,
    TooFewSubjects,
    UnknownLabel,
)


@dataclass
class SplitPlan:
    """Subject-level folds: (train subjects, test subjects) pairs."""

    name: str
    folds: list[tuple[frozenset, frozenset]]
    seed: int | None = None

    def __post_init__(self):
        for train, test in self.folds:
            if train & test:
                raise TooFewSubjects(
                    f"fold shares subjects across train/test: {sorted(train & test)}"
                )


def subject_holdout_split(subjects, test_fraction: float, seed: int) -> SplitPlan:
    """Single 80/20-style fold with complete subject separation."""
    subjects = sorted(set(subjects))
    if len(subjects) < 2:
        raise TooFewSubjects(f"need >= 2 subjects, got {len(subjects)}")
    if not (0 < test_fraction < 1):
        raise TooFewSubjects(f"test_fraction must be in (0,1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    order = list(subjects)
    rng.shuffle(order)
    n_test = int(round(test_fraction * len(order)))
    n_test = min(max(n_test, 1), len(order) - 1)
    test = frozenset(order[:n_test])
    train = frozenset(order[n_test:])
    return SplitPlan("holdout", [(train, test)], seed)


def grouped_kfold(subjects, k: int, seed: int) -> SplitPlan:
    """Shuffle subjects by seed and deal them round-robin into k folds."""
    subjects = sorted(set(subjects))
    if k > len(subjects):
        raise KExceedsSubjects(f"k={k} exceeds {len(subjects)} subjects")
    if k < 2:
        raise KExceedsSubjects("k must be >= 2")
    rng = np.random.default_rng(seed)
    order = list(subjects)
    rng.shuffle(order)
    fold_sets = [frozenset(order[i::k]) for i in range(k)]
    all_subjects = frozenset(subjects)
    folds = [(all_subjects - s, s) for s in fold_sets]
    return SplitPlan("kfold", folds, seed)


def loso_folds(subjects) -> SplitPlan:
    """One fold per subject, in sorted subject order."""
    subjects = sorted(set(subjects))
    if len(subjects) < 2:
        raise TooFewSubjects(f"need >= 2 subjects, got {len(subjects)}")
    all_subjects = frozenset(subjects)
    folds = [(all_subjects - {s}, frozenset({s})) for s in subjects]
    return SplitPlan("loso", folds)


# --- metrics -------------------------------------------------------------------


@dataclass
class ConfusionMatrix:
    classes: list[str]
    counts: np.ndarray  # rows = true, cols = predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(y_true, y_pred, classes: list[str]) -> ConfusionMatrix:
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true vs {len(y_pred)} predicted")
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        if str(t) not in index or str(p) not in index:
            raise UnknownLabel(f"label outside class order {classes}: {t!r}/{p!r}")
        counts[index[str(t)], index[str(p)]] += 1
    return ConfusionMatrix(list(classes), counts)


@dataclass
class MetricsReport:
    accuracy: float
    precision: dict[str, float]
    recall: dict[str, float]
    f1: dict[str, float]
    macro_f1: float
    weighted_f1: float
    auc: float | None = None
    degenerate_classes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "auc": self.auc,
            "degenerate_classes": self.degenerate_classes,
        }


def classification_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy, per-class precision/recall/F1, macro and weighted F1.

    Degenerate 0/0 ratios resolve to 0 and the class is flagged.
    """
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix holds no predictions")
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)

    degenerate = []
    precision, recall, f1 = {}, {}, {}
    f1_vec = np.zeros(len(cm.classes))
    for i, c in enumerate(cm.classes):
        if predicted[i] == 0 or support[i] == 0:
            degenerate.append(c)
        p = tp[i] / predicted[i] if predicted[i] > 0 else 0.0
        r = tp[i] / support[i] if support[i] > 0 else 0.0
        f = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        precision[c], recall[c], f1[c] = float(p), float(r), float(f)
        f1_vec[i] = f

    accuracy = float(tp.sum() / cm.total)
    macro_f1 = float(f1_vec.mean())
    weighted_f1 = float((f1_vec * support).sum() / support.sum())
    return MetricsReport(accuracy, precision, recall, f1, macro_f1, weighted_f1,
                         degenerate_classes=degenerate)


def macro_f1_score(y_true, y_pred) -> float:
    classes = sorted({str(v) for v in y_true} | {str(v) for v in y_pred})
    return classification_metrics(confusion_matrix(y_true, y_pred, classes)).macro_f1


def accuracy_score(y_true, y_pred) -> float:
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true vs {len(y_pred)} predicted")
    return float(np.mean([str(t) == str(p) for t, p in zip(y_true, y_pred)]))


def roc_auc(scores, labels) -> float:
    """Binary AUC: P(random positive outscores random negative), ties 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassPresent("AUC needs both classes present")
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc_macro_ovr(scores: np.ndarray, labels, classes: list[str]) -> float:
    """Macro one-vs-rest AUC over per-class score columns."""
    labels = np.asarray([str(v) for v in labels], dtype=object)
    aucs = []
    for i, c in enumerate(classes):
        y = (labels == c).astype(int)
        aucs.append(roc_auc(scores[:, i], y))
    return float(np.mean(aucs))


# --- protocol runner -----------------------------------------------------------


def evaluate_fold(matrix, model_cfg, train_subjects, test_subjects):
    """Train on one side of a fold, score the other; returns fold record."""
    from .models import train_model

    train = matrix.subset(matrix.rows_for_subjects(train_subjects))
    test = matrix.subset(matrix.rows_for_subjects(test_subjects))
    model = train_model(train, model_cfg)
    y_pred = model.predict_class(test.X)
    scores = model.predict_scores(test.X)
    return {
        "test_subjects": sorted(test_subjects),
        "y_true": test.labels,
        "y_pred": y_pred,
        "scores": scores,
        "classes": model.classes,
    }


def _auc(scores, y_true, classes) -> float | None:
    """Binary AUC of the second class's score column, or macro one-vs-rest
    AUC for three or more classes; None when a class is absent."""
    try:
        if len(classes) == 2:
            y = (np.asarray([str(v) for v in y_true], dtype=object)
                 == classes[1]).astype(int)
            return roc_auc(scores[:, 1], y)
        return roc_auc_macro_ovr(scores, y_true, classes)
    except SingleClassPresent:
        return None


def run_protocol(matrix, model_cfg, plan: SplitPlan) -> dict:
    """Run a split plan fold by fold and aggregate two ways: mean +/- std
    across folds and pooled-prediction metrics."""
    from .models.base import class_order

    classes = class_order(matrix.labels)
    per_fold = []
    pooled_true: list = []
    pooled_pred: list = []
    pooled_scores = []
    for train_subjects, test_subjects in plan.folds:
        rec = evaluate_fold(matrix, model_cfg, train_subjects, test_subjects)
        cm = confusion_matrix(rec["y_true"], rec["y_pred"], classes)
        rep = classification_metrics(cm)
        rep.auc = _auc(rec["scores"], rec["y_true"], classes)
        per_fold.append({
            "test_subjects": rec["test_subjects"],
            "n_windows": int(cm.total),
            "metrics": rep.to_dict(),
        })
        pooled_true.extend(rec["y_true"])
        pooled_pred.extend(rec["y_pred"])
        pooled_scores.append(rec["scores"])

    pooled_cm = confusion_matrix(pooled_true, pooled_pred, classes)
    pooled = classification_metrics(pooled_cm)
    pooled.auc = _auc(np.vstack(pooled_scores), pooled_true, classes)

    def fold_mean_std(key):
        vals = [f["metrics"][key] for f in per_fold if f["metrics"][key] is not None]
        if not vals:
            return {"mean": None, "std": None}
        return {"mean": float(np.mean(vals)), "std": float(np.std(vals))}

    aggregate = {
        "fold_mean_std": {
            key: fold_mean_std(key)
            for key in ("accuracy", "macro_f1", "weighted_f1", "auc")
        },
        "pooled": pooled.to_dict(),
    }
    return {
        "split": plan.name,
        "classes": classes,
        "per_fold": per_fold,
        "aggregate": aggregate,
        "confusion": pooled_cm.counts.tolist(),
    }
