"""SHAP attributions: brute-force subset-enumeration oracle equivalence,
local accuracy, dummy/symmetry properties, aggregation."""

import itertools
import math

import numpy as np
import pytest

from physio_bench import explain
from physio_bench.errors import ConfigError
from physio_bench.explain import (
    Attribution,
    class_summary,
    explain_input,
    global_importance,
    linear_shap,
    shap_single_tree,
    tree_shap,
)
from physio_bench.models import DataMatrix, TrainConfig, train_knn, train_logistic, train_tree_ensemble
from physio_bench.models.trees import LEAF, Tree


def _conditional_expectation(tree: Tree, x, revealed, node=0):
    """Path-dependent E[f(x) | revealed features] via cover weights."""
    f = tree.feature[node]
    if f == LEAF:
        return tree.value[node].astype(float)
    if f in revealed:
        child = tree.left[node] if x[f] <= tree.threshold[node] else tree.right[node]
        return _conditional_expectation(tree, x, revealed, child)
    l, r = tree.left[node], tree.right[node]
    wl = tree.cover[l] / tree.cover[node]
    wr = tree.cover[r] / tree.cover[node]
    return (wl * _conditional_expectation(tree, x, revealed, l)
            + wr * _conditional_expectation(tree, x, revealed, r))


def _brute_force_shap(tree: Tree, x, d, players=None):
    """Exact Shapley over all subsets of `players` (default: all d
    features); the independent oracle. Features a tree never splits on are
    dummies, so leaving them out of `players` keeps every value exact."""
    players = list(range(d)) if players is None else list(players)
    n = len(players)
    phi = np.zeros((d, tree.n_out))
    fact = [math.factorial(i) for i in range(n + 1)]
    for j in players:
        rest = [f for f in players if f != j]
        for r in range(n):
            for S in itertools.combinations(rest, r):
                w = fact[r] * fact[n - r - 1] / fact[n]
                with_j = _conditional_expectation(tree, x, set(S) | {j})
                without = _conditional_expectation(tree, x, set(S))
                phi[j] += w * (with_j - without)
    return phi


def _random_data(rng, n=60, d=5, n_classes=2):
    X = rng.normal(size=(n, d))
    score = X[:, 0] + 0.8 * X[:, 1] * X[:, min(2, d - 1)]
    if n_classes == 2:
        y = np.where(score > 0, "pos", "neg").astype(object)
    else:
        y = np.array(["a" if v < -0.5 else ("b" if v < 0.5 else "c")
                      for v in score], dtype=object)
    groups = np.array([f"s{i % 6}" for i in range(n)], dtype=object)
    return DataMatrix(X, y, groups, [f"f{j}" for j in range(d)])


class TestTreeShapOracle:
    def test_matches_brute_force_on_random_ensembles(self):
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(6):
            d = int(rng.integers(3, 9))
            kind = "boosting" if trial % 2 == 0 else "bagging"
            n_classes = 2 if trial < 4 else 3
            data = _random_data(rng, n=70, d=d, n_classes=n_classes)
            cfg = TrainConfig(kind=kind, n_trees=8, max_depth=4, seed=trial,
                              min_samples_leaf=1 if kind == "boosting" else 2)
            model = train_tree_ensemble(data, cfg)
            assert len(model.trees) <= 20 or kind == "boosting"
            for _ in range(5):
                x = rng.normal(size=d)
                att = tree_shap(model, x)
                K = len(model.classes)
                phi_ref = np.zeros((K, d))
                if model.mode == "boosting":
                    for tree, k in zip(model.trees, model.tree_class):
                        phi_ref[k] += model.learning_rate * _brute_force_shap(tree, x, d)[:, 0]
                else:
                    for tree in model.trees:
                        phi_ref += _brute_force_shap(tree, x, d).T / len(model.trees)
                assert np.abs(att.phi - phi_ref).max() <= 1e-8
                checked += 1
        assert checked == 30

    def test_single_feature_tree_concentrates_attribution(self):
        # one split on feature 1: phi is zero everywhere else and
        # phi_1 = f(x) - E[f]
        tree = Tree(
            feature=np.array([1, LEAF, LEAF]),
            threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, LEAF, LEAF]),
            right=np.array([2, LEAF, LEAF]),
            value=np.array([[0.0], [2.0], [5.0]]),
            cover=np.array([10.0, 6.0, 4.0]),
        )
        x = np.array([9.9, 0.2, -3.0])
        phi = shap_single_tree(tree, x, 3)
        expected_base = (6 * 2.0 + 4 * 5.0) / 10
        assert phi[0, 0] == 0.0 and phi[2, 0] == 0.0
        assert abs(phi[1, 0] - (2.0 - expected_base)) < 1e-12

    def test_zero_tree_boosting_model(self):
        rng = np.random.default_rng(1)
        data = _random_data(rng)
        model = train_tree_ensemble(data, TrainConfig(kind="boosting", n_trees=0))
        att = tree_shap(model, data.X[0])
        assert np.all(att.phi == 0.0)
        assert np.allclose(att.base_values, model.base_score)

    def test_local_accuracy_on_thousand_inputs(self):
        rng = np.random.default_rng(2)
        data = _random_data(rng, n=80, d=6)
        worst = 0.0
        for kind in ("boosting", "bagging"):
            model = train_tree_ensemble(
                data, TrainConfig(kind=kind, n_trees=25, max_depth=3, seed=1))
            X = rng.normal(size=(500, 6))
            margins = model.margins(X)
            for i in range(X.shape[0]):
                att = tree_shap(model, X[i])
                worst = max(worst, np.abs(att.margin() - margins[i]).max())
        assert worst <= 1e-8

    def test_binary_boosting_class_attributions_are_exact_negatives(self):
        rng = np.random.default_rng(4)
        data = _random_data(rng, n=80, d=5)
        model = train_tree_ensemble(
            data, TrainConfig(kind="boosting", n_trees=30, max_depth=3))
        for x in rng.normal(size=(20, 5)):
            phi = tree_shap(model, x).phi
            assert np.abs(phi).max() > 0
            assert np.array_equal(phi[0], -phi[1])

    def test_dummy_feature_gets_exact_zero(self):
        rng = np.random.default_rng(3)
        data = _random_data(rng, n=60, d=4)
        data.X[:, 3] = 0.0  # constant column is never split on
        model = train_tree_ensemble(
            data, TrainConfig(kind="boosting", n_trees=10, max_depth=3))
        for _ in range(20):
            att = tree_shap(model, rng.normal(size=4))
            assert np.all(att.phi[:, 3] == 0.0)

    def test_symmetry_of_interchangeable_features(self):
        # symmetric tree over two features used identically
        tree = Tree(
            feature=np.array([0, 1, 1, LEAF, LEAF, LEAF, LEAF]),
            threshold=np.array([0.0, 0.0, 0.0, 0, 0, 0, 0], dtype=float),
            left=np.array([1, 3, 5, LEAF, LEAF, LEAF, LEAF]),
            right=np.array([2, 4, 6, LEAF, LEAF, LEAF, LEAF]),
            value=np.array([[0.0], [0.0], [0.0], [1.0], [-1.0], [-1.0], [1.0]]),
            cover=np.array([8.0, 4.0, 4.0, 2.0, 2.0, 2.0, 2.0]),
        )
        for x in ([-1.0, -1.0], [1.0, 1.0]):
            phi = shap_single_tree(tree, np.array(x), 2)
            assert abs(phi[0, 0] - phi[1, 0]) < 1e-12
            ref = _brute_force_shap(tree, np.array(x), 2)
            assert np.abs(phi - ref).max() < 1e-12


def _hand_tree(feature, threshold, children, cover, leaf_values):
    """A Tree from per-node lists; children[i] is (left, right) or None."""
    n = len(feature)
    left = [c[0] if c else LEAF for c in children]
    right = [c[1] if c else LEAF for c in children]
    value = [[leaf_values.get(i, 0.0)] for i in range(n)]
    return Tree(np.array(feature), np.array(threshold, dtype=float),
                np.array(left), np.array(right), np.array(value),
                np.array(cover, dtype=float))


#: f0 split twice in the same direction on the left path (x <= 1, then
#: x <= 0), with f1 below and beside it.
SAME_DIRECTION = _hand_tree(
    feature=[0, 0, 1, 1, LEAF, LEAF, LEAF, LEAF, LEAF],
    threshold=[1.0, 0.0, 0.5, -1.0, 0, 0, 0, 0, 0],
    children=[(1, 2), (3, 4), (5, 6), (7, 8), None, None, None, None, None],
    cover=[20, 12, 8, 7, 5, 3, 5, 4, 3],
    leaf_values={4: 1.5, 5: -2.0, 6: 0.25, 7: 3.0, 8: -0.75},
)

#: f0 split twice in opposite directions (x > 0, then x <= 1: the interval
#: (0, 1]), with f1 below it, and f0 a third time on the x > 1 side.
OPPOSITE_DIRECTIONS = _hand_tree(
    feature=[0, 1, 0, 1, 0, LEAF, LEAF, LEAF, LEAF, LEAF, LEAF],
    threshold=[0.0, 0.0, 1.0, 0.5, 2.0, 0, 0, 0, 0, 0, 0],
    children=[(1, 2), (5, 6), (3, 4), (7, 8), (9, 10),
              None, None, None, None, None, None],
    cover=[30, 10, 20, 12, 8, 4, 6, 5, 7, 2, 6],
    leaf_values={5: -1.0, 6: 2.0, 7: 0.5, 8: -3.0, 9: 4.0, 10: 1.25},
)


class TestPathMerge:
    """Repeated features on a path merge into one path element; each case
    is checked against the brute-force oracle."""

    @pytest.mark.parametrize("tree", [SAME_DIRECTION, OPPOSITE_DIRECTIONS],
                             ids=["same_direction", "opposite_directions"])
    def test_repeated_feature_matches_brute_force(self, tree):
        for x0 in (-np.inf, -2.0, -0.5, 0.25, 0.75, 1.5, 3.0, np.inf):
            for x1 in (-np.inf, -2.0, 0.2, 1.0):
                x = np.array([x0, x1, 7.0])
                phi = shap_single_tree(tree, x, 3)
                assert np.abs(phi - _brute_force_shap(tree, x, 3)).max() <= 1e-12
                assert phi[2, 0] == 0.0

    @pytest.mark.parametrize("tree", [SAME_DIRECTION, OPPOSITE_DIRECTIONS],
                             ids=["same_direction", "opposite_directions"])
    def test_value_on_a_threshold_routes_left(self, tree):
        # every x0 / x1 below sits exactly on one of the trees' thresholds
        for x0 in (-1.0, 0.0, 0.5, 1.0, 2.0):
            for x1 in (-1.0, 0.0, 0.5):
                x = np.array([x0, x1, 0.0])
                phi = shap_single_tree(tree, x, 3)
                assert np.abs(phi - _brute_force_shap(tree, x, 3)).max() <= 1e-12
                local = phi.sum(axis=0) + tree.expected_value()
                assert np.abs(local - tree.predict(x[None, :])[0]).max() <= 1e-12

    def test_root_leaf_tree(self):
        tree = Tree(np.array([LEAF]), np.array([0.0]), np.array([LEAF]),
                    np.array([LEAF]), np.array([[0.3, 0.7]]), np.array([9.0]))
        x = np.array([0.1, -4.0])
        phi = shap_single_tree(tree, x, 2)
        assert phi.shape == (2, 2) and np.all(phi == 0.0)
        assert np.abs(phi - _brute_force_shap(tree, x, 2)).max() <= 1e-12

    def test_ensemble_of_root_leaf_trees(self):
        rng = np.random.default_rng(10)
        data = _random_data(rng, n=40, d=3)
        # no node holds 2 * 40 rows, so every tree is a single leaf
        model = train_tree_ensemble(
            data, TrainConfig(kind="boosting", n_trees=3, min_samples_leaf=40))
        assert all(t.n_nodes == 1 for t in model.trees)
        att = tree_shap(model, data.X[0])
        assert np.all(att.phi == 0.0)
        assert np.abs(att.margin() - model.margins(data.X[:1])[0]).max() <= 1e-12

    def test_three_class_bagging_tree(self):
        rng = np.random.default_rng(11)
        data = _random_data(rng, n=90, d=5, n_classes=3)
        model = train_tree_ensemble(
            data, TrainConfig(kind="bagging", n_trees=4, seed=3, min_samples_leaf=1))
        merged = 0
        for tree in model.trees:
            assert tree.n_out == 3
            merged += _has_repeated_feature(tree)
            for _ in range(4):
                x = rng.normal(size=5)
                phi = shap_single_tree(tree, x, 5)
                assert np.abs(phi - _brute_force_shap(tree, x, 5)).max() <= 1e-12
        assert merged > 0  # the unpruned trees exercise the path merge


class TestPatternTable:
    """A path's weights read from its pattern table are bit-equal to the
    kernel run on the row's own one fractions, which every group takes
    when no group may have a table."""

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("kind,growth", [("boosting", "depth"), ("boosting", "leaf"),
                                             ("bagging", "depth")])
    def test_table_equals_direct_bit_for_bit(self, kind, growth, n_classes, monkeypatch):
        rng = np.random.default_rng(14)
        data = _random_data(rng, n=150, d=8, n_classes=n_classes)
        model = train_tree_ensemble(data, TrainConfig(
            kind=kind, n_trees=6, growth=growth, seed=5,
            min_samples_leaf=1 if kind == "boosting" else 2))
        X = np.vstack([data.X[:25], rng.normal(size=(25, 8))])
        X[0, 0], X[1, 1], X[2, 2] = np.inf, -np.inf, np.nan
        tabled = [tree_shap(model, x).phi for x in X]
        lengths = {g.zero.shape[1]: g.patterns is not None
                   for g in model.shap_paths[0].groups}
        assert lengths == {L: L <= explain.TABLE_MAX_LEN for L in lengths}
        if growth == "leaf":  # leaf-wise paths outgrow the cap
            assert set(lengths.values()) == {True, False}
        else:
            assert all(lengths.values())
        monkeypatch.setattr(explain, "TABLE_MAX_LEN", 0)
        model.shap_paths = None
        direct = [tree_shap(model, x).phi for x in X]
        assert all(g.patterns is None for g in model.shap_paths[0].groups)
        for a, b in zip(tabled, direct):
            assert a.tobytes() == b.tobytes()

    def test_node_order_does_not_change_the_table(self):
        # Trees stored breadth first (children still after their parent,
        # as older files may list them) give the same paths, in the same
        # order, as the preorder trees the growers write.
        rng = np.random.default_rng(16)
        data = _random_data(rng, n=150, d=8, n_classes=3)
        model = train_tree_ensemble(data, TrainConfig(
            kind="boosting", n_trees=6, growth="leaf", seed=5, min_samples_leaf=1))

        def breadth_first(tree):
            order, i = [0], 0
            while i < len(order):
                node = order[i]
                if tree.feature[node] != LEAF:
                    order += [tree.left[node], tree.right[node]]
                i += 1
            rank = np.empty(tree.n_nodes, dtype=np.intp)
            rank[order] = np.arange(len(order))
            inner = tree.feature[order] != LEAF
            left = np.where(inner, rank[tree.left[order]], LEAF)
            right = np.where(inner, rank[tree.right[order]], LEAF)
            return Tree(tree.feature[order], tree.threshold[order], left, right,
                        tree.value[order], tree.cover[order])

        shuffled = [breadth_first(t) for t in model.trees]
        assert any(not np.array_equal(a.feature, b.feature)
                   for a, b in zip(model.trees, shuffled))
        a = explain._path_table(model.trees, [t.value for t in model.trees], 1)
        b = explain._path_table(shuffled, [t.value for t in shuffled], 1)
        for name in ("feature", "lo", "hi", "value"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert [g.zero.tobytes() for g in a.groups] == [g.zero.tobytes() for g in b.groups]

    def test_table_build_block_does_not_change_entries(self, monkeypatch):
        zero = np.random.default_rng(15).uniform(0.05, 1.0, size=(37, 4))
        whole = explain._pattern_table(zero)
        monkeypatch.setattr(explain, "BUILD_BLOCK", 1)
        assert explain._pattern_table(zero).tobytes() == whole.tobytes()
        bits = (np.arange(16)[:, None] >> np.arange(4)) & 1
        for p in (0, 36):
            rows = whole[p * 16:(p + 1) * 16]
            for b in range(16):
                one = bits[b].astype(np.float64)[None, :]
                assert (rows[b].tobytes()
                        == explain._path_weights(one, zero[p:p + 1])[0].tobytes())


def _has_repeated_feature(tree: Tree, node=0, seen=frozenset()) -> bool:
    f = tree.feature[node]
    if f == LEAF:
        return False
    if f in seen:
        return True
    return (_has_repeated_feature(tree, tree.left[node], seen | {f})
            or _has_repeated_feature(tree, tree.right[node], seen | {f}))


class TestExpectedValue:
    def test_bit_equal_to_recursive_formula(self):
        rng = np.random.default_rng(12)
        checked = 0
        for kind, n_classes in (("boosting", 2), ("boosting", 3), ("bagging", 3)):
            data = _random_data(rng, n=80, d=6, n_classes=n_classes)
            cfg = TrainConfig(kind=kind, n_trees=6, seed=4,
                              max_depth=5 if kind == "boosting" else None,
                              min_samples_leaf=1)
            for tree in train_tree_ensemble(data, cfg).trees:
                # with nothing revealed, the oracle is the old recursion
                want = _conditional_expectation(tree, None, set())
                assert tree.expected_value().tobytes() == want.tobytes()
                checked += 1
        assert checked == 6 * 2 + 6 * 3 + 6


class TestLinearShap:
    def test_background_input_gets_zero(self):
        rng = np.random.default_rng(4)
        data = _random_data(rng)
        model = train_logistic(data, TrainConfig(kind="logistic"))
        background = data.X.mean(axis=0)
        att = linear_shap(model, background, background_means=background)
        assert np.abs(att.phi).max() < 1e-9

    def test_single_weight_formula(self):
        rng = np.random.default_rng(5)
        data = _random_data(rng, d=4)
        model = train_logistic(data, TrainConfig(kind="logistic"))
        model.weights = np.zeros_like(model.weights)
        model.weights[1, 2] = 2.0
        x = np.zeros(4)
        z = model.stats.transform(x[None, :])[0]
        att = linear_shap(model, x)
        assert abs(att.phi[1, 2] - 2.0 * z[2]) < 1e-12
        mask = np.ones_like(att.phi, dtype=bool)
        mask[1, 2] = False
        assert np.abs(att.phi[mask]).max() == 0.0

    def test_additivity_telescopes_exactly(self):
        rng = np.random.default_rng(6)
        data = _random_data(rng)
        model = train_logistic(data, TrainConfig(kind="logistic"))
        for _ in range(50):
            x = rng.normal(size=5)
            att = linear_shap(model, x)
            margin = model.margins(x[None, :])[0]
            assert np.abs(att.margin() - margin).max() < 1e-10


class TestExplainDispatch:
    def test_knn_rejected(self):
        rng = np.random.default_rng(7)
        data = _random_data(rng)
        model = train_knn(data, TrainConfig(kind="knn", knn_k=3))
        with pytest.raises(ConfigError):
            explain_input(model, data.X[0])


def _att(phi, classes=("a", "b"), names=("f0", "f1"), x=None):
    phi = np.asarray(phi, dtype=float)
    return Attribution(list(classes), list(names), phi,
                       np.zeros(phi.shape[0]),
                       np.zeros(phi.shape[1]) if x is None else np.asarray(x))


class TestAggregation:
    def test_all_zero_keeps_schema_order(self):
        atts = [_att(np.zeros((2, 2))) for _ in range(3)]
        ranking = global_importance(atts)
        assert ranking == [("f0", 0.0), ("f1", 0.0)]

    def test_hand_computed_ranking(self):
        # single-class phi matrix [[1,-1],[3,1]] -> mean |phi| = [2, 1]
        atts = [_att(np.array([[1.0, -1.0]]), classes=("a",)),
                _att(np.array([[3.0, 1.0]]), classes=("a",))]
        ranking = global_importance(atts)
        assert ranking[0] == ("f0", 2.0)
        assert ranking[1] == ("f1", 1.0)

    def test_rank_invariant_to_scaling(self):
        rng = np.random.default_rng(8)
        atts = [_att(rng.normal(size=(2, 2))) for _ in range(10)]
        base = [name for name, _ in global_importance(atts)]
        doubled = [Attribution(a.classes, a.feature_names, 2 * a.phi,
                               a.base_values, a.x) for a in atts]
        assert [n for n, _ in global_importance(doubled)] == base

    def test_class_summary_signs_and_correlation(self):
        # feature 0 contributes +c in class a, -c in class b; feature 1's
        # phi equals its centered value so the correlation column is 1.
        rng = np.random.default_rng(9)
        atts, labels = [], []
        vals = rng.normal(size=20)
        for i in range(20):
            cls = "a" if i % 2 == 0 else "b"
            c = 0.5 if cls == "a" else -0.5
            phi = np.array([[c, vals[i] - vals.mean()],
                            [-c, 0.0]])
            atts.append(_att(phi, x=np.array([1.0, vals[i]])))
            labels.append(cls)
        summary = class_summary(atts, labels)
        a_rows = {r["feature"]: r for r in summary["a"]}
        b_rows = {r["feature"]: r for r in summary["b"]}
        assert a_rows["f0"]["mean_shap"] == pytest.approx(0.5)
        assert b_rows["f0"]["mean_shap"] == pytest.approx(0.5)  # class-b phi row
        assert a_rows["f1"]["value_shap_corr"] == pytest.approx(1.0)

    def test_single_class_block(self):
        atts = [_att(np.ones((2, 2)))] * 3
        summary = class_summary(atts, ["a", "a", "a"])
        assert list(summary) == ["a"]
