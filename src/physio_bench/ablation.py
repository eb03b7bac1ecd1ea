"""Modality ablation against the full-feature baseline.

Configurations are All, No_<modality>, and Only_<modality> column masks
over the feature schema. Every configuration reuses one fold plan, built
by greedy label-balanced assignment of whole subjects to folds, so the
per-fold score differences form valid paired samples for the statistical
cascade. Raw p values are corrected across the row batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyMask, KExceedsSubjects, TooFewModalities
from .evaluation import SplitPlan, accuracy_score, evaluate_fold, macro_f1_score
from .models.base import DataMatrix, TrainConfig
from .parallel import map_ordered
from .stats import TestResult, compare_to_baseline, correct_batch


@dataclass(frozen=True)
class AblationConfig:
    name: str
    modalities: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if not self.feature_names:
            raise EmptyMask(f"config {self.name} keeps no feature columns")


@dataclass
class AblationRow:
    config: str
    f1_mean: float
    f1_std: float
    acc_mean: float
    acc_std: float
    per_fold_f1: list[float]
    per_fold_acc: list[float]
    test: TestResult | None   # None for the baseline row

    def to_dict(self) -> dict:
        doc = {
            "config": self.config,
            "f1_mean": self.f1_mean,
            "f1_std": self.f1_std,
            "acc_mean": self.acc_mean,
            "acc_std": self.acc_std,
            "per_fold_f1": self.per_fold_f1,
            "per_fold_acc": self.per_fold_acc,
        }
        doc.update(self.test.to_dict() if self.test is not None else {
            "test": None, "statistic": None, "p_raw": None, "n": None,
            "shapiro_p": None, "d": None, "p_corrected": None,
            "significant": None,
        })
        return doc


def enumerate_configs(modalities: list[str],
                      feature_modalities: dict[str, str]) -> list[AblationConfig]:
    """[All] + [No_m ...] + [Only_m ...] in schema modality order."""
    if len(modalities) < 2:
        raise TooFewModalities(f"need >= 2 modalities, got {modalities}")
    all_names = tuple(feature_modalities)
    configs = [AblationConfig("All", tuple(modalities), all_names)]
    for m in modalities:
        kept = tuple(x for x in modalities if x != m)
        names = tuple(n for n in all_names if feature_modalities[n] != m)
        configs.append(AblationConfig(f"No_{m}", kept, names))
    for m in modalities:
        names = tuple(n for n in all_names if feature_modalities[n] == m)
        configs.append(AblationConfig(f"Only_{m}", (m,), names))
    return configs


def enumerate_configs_for_matrix(matrix: DataMatrix) -> list[AblationConfig]:
    from .features import FEATURE_DEFS

    feature_modalities = {n: FEATURE_DEFS[n].modality for n in matrix.feature_names}
    modalities: list[str] = []
    for n in matrix.feature_names:
        m = feature_modalities[n]
        if m not in modalities:
            modalities.append(m)
    return enumerate_configs(modalities, feature_modalities)


def mask_features(matrix: DataMatrix, config: AblationConfig) -> DataMatrix:
    """Column-subset view of the matrix; rows, labels, groups untouched."""
    return matrix.select_columns(list(config.feature_names))


def balanced_grouped_folds(matrix: DataMatrix, k: int, seed: int) -> SplitPlan:
    """Grouped k-fold with greedy label balancing at subject granularity.

    Subjects are ordered by window count (descending, seeded shuffle inside
    count ties) and each is assigned to the fold where adding it least
    increases squared deviation from the global per-fold label proportion.
    """
    subjects = sorted(set(matrix.groups))
    if k > len(subjects):
        raise KExceedsSubjects(f"k={k} exceeds {len(subjects)} subjects")
    if k < 2:
        raise KExceedsSubjects("k must be >= 2")
    classes = sorted(set(str(v) for v in matrix.labels))
    counts = {}
    for s in subjects:
        mask = matrix.groups == s
        vec = np.array([np.sum(matrix.labels[mask] == c) for c in classes], dtype=float)
        counts[s] = vec
    rng = np.random.default_rng(seed)
    order = sorted(subjects,
                   key=lambda s: (-counts[s].sum(), rng.random(), s))
    target = sum((counts[s] for s in subjects), np.zeros(len(classes))) / k
    cap = -(-len(subjects) // k)  # ceil: no fold hoards subjects

    fold_counts = [np.zeros(len(classes)) for _ in range(k)]
    fold_members: list[list] = [[] for _ in range(k)]
    for idx, s in enumerate(order):
        empty = [i for i in range(k) if not fold_members[i]]
        remaining = len(order) - idx
        if len(empty) >= remaining:
            eligible = empty  # every leftover subject must seed an empty fold
        else:
            eligible = [i for i in range(k) if len(fold_members[i]) < cap]
        best_i, best_key = eligible[0], None
        for i in eligible:
            trial = fold_counts[i] + counts[s]
            cost = float(((trial - target) ** 2).sum())
            key = (cost, len(fold_members[i]), i)
            if best_key is None or key < best_key:
                best_i, best_key = i, key
        fold_counts[best_i] += counts[s]
        fold_members[best_i].append(s)

    all_subjects = frozenset(subjects)
    folds = [(all_subjects - frozenset(m), frozenset(m)) for m in fold_members]
    return SplitPlan("balanced_kfold", folds, seed)


def run_ablation(matrix: DataMatrix, model_cfg: TrainConfig, k: int = 5,
                 seed: int = 0, alpha: float = 0.05,
                 correction: str = "fdr", jobs: int = 1) -> list[AblationRow]:
    """Cross-validate every ablation configuration on one shared fold plan
    and test each against the All baseline. The (config, fold) fits run on
    `jobs` workers; the statistics run afterwards, in config order."""
    if model_cfg.kind != "boosting":
        raise ConfigError("the ablation grid standardizes on the boosting model")
    configs = enumerate_configs_for_matrix(matrix)
    plan = balanced_grouped_folds(matrix, k, seed)

    def fit(item):
        sub, (train_subj, test_subj) = item
        rec = evaluate_fold(sub, model_cfg, train_subj, test_subj)
        return (macro_f1_score(rec["y_true"], rec["y_pred"]),
                accuracy_score(rec["y_true"], rec["y_pred"]))

    subs = [mask_features(matrix, config) for config in configs]
    scores = map_ordered(fit, [(sub, fold) for sub in subs for fold in plan.folds],
                         jobs)
    rows: list[AblationRow] = []
    baseline_f1: list[float] | None = None
    for i, config in enumerate(configs):
        f1s = [f1 for f1, _ in scores[i * k:(i + 1) * k]]
        accs = [acc for _, acc in scores[i * k:(i + 1) * k]]
        test = None
        if config.name == "All":
            baseline_f1 = f1s
        else:
            test = compare_to_baseline(baseline_f1, f1s, alpha)
        rows.append(AblationRow(
            config.name,
            float(np.mean(f1s)), float(np.std(f1s)),
            float(np.mean(accs)), float(np.std(accs)),
            [float(v) for v in f1s], [float(v) for v in accs],
            test,
        ))

    correct_batch([r.test for r in rows if r.test is not None], alpha, correction)
    return rows


def ablation_csv(rows: list[AblationRow]) -> str:
    """Table-shaped CSV: config, F1/accuracy mean and std, then the
    statistical columns."""
    header = ("config,f1_mean,f1_std,acc_mean,acc_std,shapiro_p,test,stat,"
              "p_raw,p_corrected,d,significant")
    lines = [header]
    for r in rows:
        if r.test is None:
            stat_cols = ["", "", "", "", "", "", ""]
        else:
            t = r.test
            stat_cols = [
                _num(t.normality_p), t.test_name, _num(t.statistic),
                _num(t.p_value), _num(t.p_corrected), _num(t.effect_size_d),
                "Yes" if t.significant else "No",
            ]
        lines.append(",".join(
            [r.config, _num(r.f1_mean), _num(r.f1_std), _num(r.acc_mean),
             _num(r.acc_std)] + stat_cols
        ))
    return "\n".join(lines) + "\n"


def _num(v) -> str:
    if v is None:
        return ""
    return format(float(v), ".9g")
