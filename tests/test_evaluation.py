"""Splits and metrics: partition properties, hand-counted matrices, AUC."""

import numpy as np
import pytest

from physio_bench import evaluation as ev
from physio_bench.errors import (
    EmptyMatrix,
    KExceedsSubjects,
    LengthMismatch,
    SingleClassPresent,
    TooFewSubjects,
    UnknownLabel,
)


SUBJECTS10 = [f"s{i:02d}" for i in range(10)]


class TestHoldout:
    def test_deterministic_two_of_ten(self):
        a = ev.subject_holdout_split(SUBJECTS10, 0.2, seed=7)
        b = ev.subject_holdout_split(SUBJECTS10, 0.2, seed=7)
        assert len(a.folds[0][1]) == 2
        assert a.folds[0] == b.folds[0]

    def test_min_one_test_subject(self):
        plan = ev.subject_holdout_split(["a", "b"], 0.2, seed=0)
        assert len(plan.folds[0][1]) == 1

    def test_single_subject_rejected(self):
        with pytest.raises(TooFewSubjects):
            ev.subject_holdout_split(["a"], 0.2, seed=0)

    def test_rounding_rule_36_subjects(self):
        subs = [f"p{i}" for i in range(36)]
        plan = ev.subject_holdout_split(subs, 0.2, seed=1)
        assert len(plan.folds[0][1]) == round(0.2 * 36) == 7


class TestGroupedKFold:
    def test_five_folds_of_two(self):
        plan = ev.grouped_kfold(SUBJECTS10, 5, seed=3)
        for train, test in plan.folds:
            assert len(test) == 2
            assert len(train) == 8

    def test_k_equal_subjects_is_loso(self):
        plan = ev.grouped_kfold(SUBJECTS10, 10, seed=3)
        loso = ev.loso_folds(SUBJECTS10)
        assert sorted(map(sorted, (t for _, t in plan.folds))) == \
            sorted(map(sorted, (t for _, t in loso.folds)))

    def test_test_sets_partition_subjects(self):
        plan = ev.grouped_kfold(SUBJECTS10, 3, seed=4)
        seen = set()
        for _, test in plan.folds:
            assert not (seen & test)
            seen |= test
        assert seen == set(SUBJECTS10)

    def test_k_exceeds_subjects(self):
        with pytest.raises(KExceedsSubjects):
            ev.grouped_kfold(["a", "b"], 3, seed=0)


class TestLoso:
    def test_three_subjects(self):
        plan = ev.loso_folds(["C", "A", "B"])
        assert [sorted(t)[0] for _, t in plan.folds] == ["A", "B", "C"]
        assert all(len(t) == 1 for _, t in plan.folds)

    def test_fold_count_equals_subject_count(self):
        subs = [f"p{i}" for i in range(36)]
        assert len(ev.loso_folds(subs).folds) == 36

    def test_single_subject_rejected(self):
        with pytest.raises(TooFewSubjects):
            ev.loso_folds(["a"])


class TestSplitIntegrity:
    def test_thousand_random_plans_keep_subjects_apart(self):
        rng = np.random.default_rng(5)
        for i in range(1000):
            n = int(rng.integers(2, 40))
            subs = [f"s{j}" for j in range(n)]
            kind = i % 3
            if kind == 0:
                plan = ev.subject_holdout_split(
                    subs, float(rng.uniform(0.05, 0.95)), int(rng.integers(1e6)))
            elif kind == 1:
                k = int(rng.integers(2, n + 1))
                plan = ev.grouped_kfold(subs, k, int(rng.integers(1e6)))
            else:
                plan = ev.loso_folds(subs)
            for train, test in plan.folds:
                assert not (train & test)
            if kind == 1:
                union = frozenset().union(*(t for _, t in plan.folds))
                assert union == frozenset(subs)
                assert sum(len(t) for _, t in plan.folds) == n
            if kind == 2:
                assert len(plan.folds) == n


class TestConfusionMatrix:
    def test_perfect_prediction(self):
        cm = ev.confusion_matrix(["0", "1", "0", "1"], ["0", "1", "0", "1"],
                                 ["0", "1"])
        assert np.array_equal(cm.counts, [[2, 0], [0, 2]])

    def test_hand_counted(self):
        cm = ev.confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], ["0", "1"])
        assert np.array_equal(cm.counts, [[1, 1], [0, 2]])

    def test_empty_inputs(self):
        cm = ev.confusion_matrix([], [], ["a", "b"])
        assert cm.total == 0

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            ev.confusion_matrix(["a"], ["z"], ["a", "b"])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ev.confusion_matrix(["a"], [], ["a"])


class TestMetrics:
    def test_hand_case(self):
        cm = ev.confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], ["0", "1"])
        rep = ev.classification_metrics(cm)
        assert rep.accuracy == 0.75
        assert rep.precision["1"] == pytest.approx(2 / 3)
        assert rep.recall["1"] == 1.0
        assert rep.f1["1"] == pytest.approx(0.8)
        assert rep.precision["0"] == 1.0
        assert rep.recall["0"] == 0.5
        assert rep.f1["0"] == pytest.approx(2 / 3)
        assert rep.macro_f1 == pytest.approx((0.8 + 2 / 3) / 2)

    def test_perfect_diagonal(self):
        cm = ev.confusion_matrix(["a", "b", "c"], ["a", "b", "c"], ["a", "b", "c"])
        rep = ev.classification_metrics(cm)
        assert rep.accuracy == rep.macro_f1 == rep.weighted_f1 == 1.0

    def test_absent_class_zero_convention_with_flag(self):
        cm = ev.confusion_matrix(["a", "a"], ["a", "a"], ["a", "ghost"])
        rep = ev.classification_metrics(cm)
        assert rep.f1["ghost"] == 0.0
        assert "ghost" in rep.degenerate_classes

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            ev.classification_metrics(ev.confusion_matrix([], [], ["a"]))

    def test_accuracy_equals_weighted_recall_and_f1_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(5, 100))
            classes = ["a", "b", "c"]
            y_true = rng.choice(classes, size=n)
            y_pred = rng.choice(classes, size=n)
            if len(set(y_true)) < 3:
                continue
            cm = ev.confusion_matrix(y_true, y_pred, classes)
            rep = ev.classification_metrics(cm)
            support = cm.counts.sum(axis=1)
            recall_vec = [rep.recall[c] for c in classes]
            weighted_recall = float(np.dot(recall_vec, support) / support.sum())
            assert rep.accuracy == pytest.approx(weighted_recall)
            f1s = [rep.f1[c] for c in classes]
            assert min(f1s) - 1e-12 <= rep.weighted_f1 <= max(f1s) + 1e-12


class TestAuc:
    def test_perfect_ordering(self):
        assert ev.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_hand_case_three_quarters(self):
        assert ev.roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_all_ties_half(self):
        assert ev.roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassPresent):
            ev.roc_auc([0.1, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            base = ev.roc_auc(scores, labels)
            assert ev.roc_auc(np.exp(scores), labels) == pytest.approx(base)
            assert ev.roc_auc(3 * scores - 7, labels) == pytest.approx(base)

    def test_macro_ovr_mean_of_binary(self):
        scores = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1],
                           [0.1, 0.2, 0.7], [0.6, 0.2, 0.2]])
        labels = ["a", "b", "c", "a"]
        auc = ev.roc_auc_macro_ovr(scores, labels, ["a", "b", "c"])
        parts = [ev.roc_auc(scores[:, i], (np.array(labels) == c).astype(int))
                 for i, c in enumerate(["a", "b", "c"])]
        assert auc == pytest.approx(float(np.mean(parts)))


class TestRunProtocol:
    def test_loso_predictions_cover_every_window_once(self):
        from physio_bench.models import TrainConfig

        rng = np.random.default_rng(8)
        n = 90
        X = rng.normal(size=(n, 3))
        y = np.where(X[:, 0] > 0, "hi", "lo").astype(object)
        groups = np.array([f"s{i % 6}" for i in range(n)], dtype=object)
        from physio_bench.models import DataMatrix
        data = DataMatrix(X, y, groups, ["f0", "f1", "f2"])
        plan = ev.loso_folds(sorted(set(groups)))
        results = ev.run_protocol(data, TrainConfig(kind="logistic"), plan)
        assert sum(f["n_windows"] for f in results["per_fold"]) == n
        assert len(results["per_fold"]) == 6
        total = np.array(results["confusion"]).sum()
        assert total == n
