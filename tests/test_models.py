"""Model trainers: separability canaries, oracles, invariants, round-trips."""

import json
import math

import numpy as np
import pytest

from physio_bench.errors import KTooLarge, SingleClass
from physio_bench.models import (
    DataMatrix,
    TrainConfig,
    model_from_json,
    model_to_json,
    train_knn,
    train_logistic,
    train_model,
    train_svm_rbf,
    train_tree_ensemble,
    tune_model,
    rbf_kernel,
)
from physio_bench.models.base import ColumnStats, softmax
from physio_bench.models.logistic import _loss_grad
from physio_bench.models import trees
from physio_bench.models.trees import LEAF, MIN_GAIN, grow_gini_tree


def _blobs(n=60, gap=6.0, seed=0, d=3):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, size=(n // 2, d)),
                   rng.normal(gap, 1, size=(n // 2, d))])
    y = np.array(["a"] * (n // 2) + ["b"] * (n // 2), dtype=object)
    groups = np.array([f"s{i % 6}" for i in range(n)], dtype=object)
    return DataMatrix(X, y, groups, [f"f{j}" for j in range(d)])


def _xor():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array(["0", "1", "1", "0"], dtype=object)
    groups = np.array(["g0", "g1", "g2", "g3"], dtype=object)
    return DataMatrix(X, y, groups, ["f0", "f1"])


def _accuracy(model, data):
    return float(np.mean(model.predict_class(data.X) == data.labels))


class TestLogistic:
    def test_separable_blobs_reach_full_accuracy(self):
        data = _blobs()
        model = train_logistic(data, TrainConfig(kind="logistic"))
        assert _accuracy(model, data) == 1.0

    def test_xor_capped_at_three_quarters(self):
        data = _xor()
        model = train_logistic(data, TrainConfig(kind="logistic"))
        assert _accuracy(model, data) <= 0.75

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        n, d, K = 40, 4, 3
        Z = rng.normal(size=(n, d))
        y = rng.integers(0, K, size=n)
        Y = np.zeros((n, K))
        Y[np.arange(n), y] = 1.0
        W = rng.normal(scale=0.5, size=(K, d))
        b = rng.normal(scale=0.5, size=K)
        _, gW, gb = _loss_grad(Z, Y, W, b, 1.0)
        eps = 1e-6
        worst = 0.0
        for i in range(K):
            for j in range(d):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += eps
                Wm[i, j] -= eps
                lp, _, _ = _loss_grad(Z, Y, Wp, b, 1.0)
                lm, _, _ = _loss_grad(Z, Y, Wm, b, 1.0)
                worst = max(worst, abs((lp - lm) / (2 * eps) - gW[i, j]))
            bp, bm = b.copy(), b.copy()
            bp[i] += eps
            bm[i] -= eps
            lp, _, _ = _loss_grad(Z, Y, W, bp, 1.0)
            lm, _, _ = _loss_grad(Z, Y, W, bm, 1.0)
            worst = max(worst, abs((lp - lm) / (2 * eps) - gb[i]))
        assert worst < 1e-5

    def test_single_class_rejected(self):
        d = _blobs()
        d.labels[:] = "a"
        with pytest.raises(SingleClass):
            train_logistic(d, TrainConfig(kind="logistic"))

    def test_loss_non_increasing_across_accepted_steps(self):
        data = _blobs(n=50, gap=0.8, seed=18)
        # the fitted optimum cannot sit above the zero-weight starting loss,
        # and the gradient there must satisfy the convergence tolerance
        model = train_logistic(data, TrainConfig(kind="logistic"))
        Z = model.stats.transform(data.X)
        classes = model.classes
        y = np.array([classes.index(str(v)) for v in data.labels])
        Y = np.zeros((len(y), len(classes)))
        Y[np.arange(len(y)), y] = 1.0
        start_loss, _, _ = _loss_grad(Z, Y, np.zeros_like(model.weights),
                                      np.zeros_like(model.bias), 1.0)
        final_loss, gW, gb = _loss_grad(Z, Y, model.weights, model.bias, 1.0)
        assert final_loss <= start_loss
        assert max(np.abs(gW).max(), np.abs(gb).max()) < 1e-5

    def test_zero_weight_model_is_uniform(self):
        data = _blobs()
        model = train_logistic(data, TrainConfig(kind="logistic"))
        model.weights = np.zeros_like(model.weights)
        model.bias = np.zeros_like(model.bias)
        probs = model.predict_proba(data.X[:5])
        assert np.allclose(probs, 0.5)


class TestKnn:
    def test_k1_reproduces_training_labels(self):
        data = _blobs(n=40, gap=3.0)
        model = train_knn(data, TrainConfig(kind="knn", knn_k=1))
        assert _accuracy(model, data) == 1.0

    def test_equidistant_tie_breaks_to_smaller_class_index(self):
        X = np.array([[-1.0, 0.0], [1.0, 0.0]])
        y = np.array(["b", "a"], dtype=object)  # class order: [a, b]
        data = DataMatrix(X, y, np.array(["g1", "g2"], dtype=object), ["f0", "f1"])
        model = train_knn(data, TrainConfig(kind="knn", knn_k=2))
        # query at the midpoint: both neighbors equidistant, one vote each,
        # equal mean distance -> class index 0 ("a")
        assert model.predict_class(np.array([[0.0, 0.0]]))[0] == "a"

    def test_majority_vote(self):
        X = np.array([[0.0], [0.1], [5.0]])
        y = np.array(["A", "A", "B"], dtype=object)
        data = DataMatrix(X, y, np.array(["g1", "g2", "g3"], dtype=object), ["f0"])
        model = train_knn(data, TrainConfig(kind="knn", knn_k=3))
        assert model.predict_class(np.array([[0.05]]))[0] == "A"

    def test_vote_tie_prefers_smaller_mean_distance(self):
        # two votes each; class "b" sits closer on average, and 1-D
        # standardization preserves distance order
        X = np.array([[-1.0], [-2.0], [0.9], [1.3]])
        y = np.array(["a", "a", "b", "b"], dtype=object)
        g = np.array(["g1", "g2", "g3", "g4"], dtype=object)
        model = train_knn(DataMatrix(X, y, g, ["f0"]),
                          TrainConfig(kind="knn", knn_k=4))
        assert model.predict_class(np.array([[0.0]]))[0] == "b"

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            train_knn(_xor(), TrainConfig(kind="knn", knn_k=5))


class TestBoosting:
    def test_xor_fit_at_depth_two(self):
        data = _xor()
        cfg = TrainConfig(kind="boosting", n_trees=50, max_depth=2,
                          learning_rate=0.3, min_samples_leaf=1)
        model = train_tree_ensemble(data, cfg)
        assert _accuracy(model, data) == 1.0

    def test_zero_rounds_predicts_class_priors(self):
        data = _blobs(n=30)
        data.labels[:10] = "a"
        data.labels[10:] = "b"
        model = train_tree_ensemble(data, TrainConfig(kind="boosting", n_trees=0))
        probs = model.predict_proba(data.X[:3])
        assert np.allclose(probs, [1 / 3, 2 / 3])

    def test_one_leaf_forcing_keeps_prior(self):
        data = _blobs(n=30)
        model = train_tree_ensemble(
            data, TrainConfig(kind="boosting", n_trees=20, max_depth=0))
        probs = model.predict_proba(data.X)
        assert np.allclose(probs, 0.5, atol=1e-9)

    def test_log_loss_non_increasing_per_round(self):
        data = _blobs(n=80, gap=1.2, seed=3)
        cfg = TrainConfig(kind="boosting", n_trees=40, learning_rate=0.3)
        model = train_tree_ensemble(data, cfg)
        X = model.stats.impute_only(data.X)
        classes = model.classes
        y = np.array([classes.index(str(v)) for v in data.labels])
        K = len(classes)
        scores = np.tile(model.base_score, (len(y), 1))
        losses = [_log_loss_of(scores, y)]
        for r in range(cfg.resolved_trees):
            for k in range(K):
                tree = model.trees[r * K + k]
                scores[:, k] += cfg.learning_rate * tree.predict(X)[:, 0]
            losses.append(_log_loss_of(scores, y))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_histogram_and_leafwise_modes_train(self):
        data = _blobs(n=100, gap=2.0, seed=4)
        for growth, splits in (("depth", "hist"), ("leaf", "exact"), ("leaf", "hist")):
            cfg = TrainConfig(kind="boosting", n_trees=30, growth=growth,
                              splits=splits, max_leaves=7)
            model = train_tree_ensemble(data, cfg)
            assert _accuracy(model, data) > 0.9

    def test_constant_features_degenerate_to_prior(self):
        X = np.ones((20, 3))
        y = np.array(["a"] * 12 + ["b"] * 8, dtype=object)
        groups = np.array([f"g{i}" for i in range(20)], dtype=object)
        data = DataMatrix(X, y, groups, ["f0", "f1", "f2"])
        model = train_tree_ensemble(data, TrainConfig(kind="boosting", n_trees=10))
        probs = model.predict_proba(X[:2])
        assert np.allclose(probs, [0.6, 0.4], atol=1e-6)


class _ReferenceSplitter:
    """The per-feature split search the presorted and histogram splitters
    replaced: one argsort (exact) or one bincount (hist) per feature per
    node, the running best updated on a strictly greater gain."""

    def __init__(self, X, cfg):
        self.X, self.hist = X, cfg.splits == "hist"
        if self.hist:
            qs = np.linspace(0, 1, cfg.n_bins + 1)[1:-1]
            self.edges = [np.unique(np.quantile(X[:, j], qs)) for j in range(X.shape[1])]
            self.codes = np.column_stack([
                np.searchsorted(e, X[:, j], side="left") for j, e in enumerate(self.edges)])

    def root(self):
        return np.arange(len(self.X)), None

    def partition(self, rows, j, thr):
        idx = rows[0]
        m = self.X[idx, j] <= thr
        return (idx[m], None), (idx[~m], None)

    def best_split(self, rows, g, h, lam, min_leaf):
        idx, n = rows[0], len(rows[0])
        G, H = g[idx].sum(), h[idx].sum()
        parent = G * G / (H + lam)
        best = (MIN_GAIN, -1, 0.0)
        for j in range(self.X.shape[1]):
            if self.hist:
                edges = self.edges[j]
                if len(edges) == 0:
                    continue
                nb = len(edges) + 1
                c = self.codes[idx, j]
                GL = np.cumsum(np.bincount(c, weights=g[idx], minlength=nb))[:-1]
                HL = np.cumsum(np.bincount(c, weights=h[idx], minlength=nb))[:-1]
                NL = np.cumsum(np.bincount(c, minlength=nb))[:-1]
                valid = (NL >= min_leaf) & (n - NL >= min_leaf) & (NL > 0) & (NL < n)
            else:
                x = self.X[idx, j]
                order = np.argsort(x, kind="stable")
                xs = x[order]
                GL = np.cumsum(g[idx][order])[:-1]
                HL = np.cumsum(h[idx][order])[:-1]
                pos = np.arange(n - 1)
                valid = xs[:-1] < xs[1:]
                if min_leaf > 1:
                    valid &= (pos + 1 >= min_leaf) & (n - pos - 1 >= min_leaf)
            if not valid.any():
                continue
            GR, HR = G - GL, H - HL
            gains = np.where(
                valid, 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent), -np.inf)
            k = int(np.argmax(gains))
            if gains[k] > best[0]:
                thr = edges[k] if self.hist else 0.5 * (xs[k] + xs[k + 1])
                best = (float(gains[k]), j, float(thr))
        return best


def _tied_matrix(K, seed):
    """Values rounded to one decimal (heavy ties), a constant column, a
    four-valued column, NaNs that ColumnStats imputes, and a last column
    equal to the first, so two features tie on every gain."""
    rng = np.random.default_rng(seed)
    n = 150
    X = np.round(rng.normal(0, 1.5, size=(n, 5)), 1)
    X[:, 2] = 3.0
    X[:, 3] = rng.integers(0, 4, n)
    X[rng.random((n, 5)) < 0.05] = np.nan
    X[:, 4] = X[:, 0]
    y = (X[:, 0] > 0).astype(int) + (np.nan_to_num(X[:, 1]) > 0.5).astype(int)
    labels = np.array([f"c{v % K}" for v in y], dtype=object)
    groups = np.array([f"s{i % 5}" for i in range(n)], dtype=object)
    return DataMatrix(X, labels, groups, [f"f{j}" for j in range(5)])


class TestSplitSearchEquivalence:
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("splits", ["exact", "hist"])
    @pytest.mark.parametrize("growth", ["depth", "leaf"])
    def test_same_split_at_every_node_and_same_model(self, monkeypatch, growth,
                                                     splits, min_leaf, K):
        data = _tied_matrix(K, seed=11 * K + min_leaf)
        cfg = TrainConfig(kind="boosting", n_trees=6, learning_rate=0.5,
                          growth=growth, splits=splits, max_leaves=6,
                          min_samples_leaf=min_leaf, n_bins=16)
        model = train_tree_ensemble(data, cfg)

        checked = []
        make_splitter = trees._splitter

        class Checked:
            def __init__(self, X, cfg):
                self.new, self.ref = make_splitter(X, cfg), _ReferenceSplitter(X, cfg)
                self.root, self.partition = self.new.root, self.new.partition

            def best_split(self, rows, g, h, lam, min_leaf):
                got = self.new.best_split(rows, g, h, lam, min_leaf)
                assert got == self.ref.best_split(rows, g, h, lam, min_leaf)
                checked.append(got[1])
                return got

        monkeypatch.setattr(trees, "_splitter", Checked)
        checked_model = train_tree_ensemble(data, cfg)
        monkeypatch.setattr(trees, "_splitter", _ReferenceSplitter)
        reference = train_tree_ensemble(data, cfg)

        assert len(checked) > 6 * K and max(checked) >= 0
        assert (json.dumps(model.to_dict()) == json.dumps(checked_model.to_dict())
                == json.dumps(reference.to_dict()))


def _boost_per_class(X, Y, scores, cfg):
    """The boosting loop before binary rounds grew one tree: one tree per
    class per round for every K, each fit to its own class's residual."""
    splitter = trees._splitter(X, cfg)
    K = Y.shape[1]
    grown, tree_class = [], []
    for _ in range(cfg.resolved_trees):
        P = softmax(scores)
        for k in range(K):
            g = Y[:, k] - P[:, k]
            h = P[:, k] * (1.0 - P[:, k])
            tree, fitted = trees.grow_regression_tree(X, g, h, cfg, splitter)
            scores[:, k] += cfg.learning_rate * fitted
            grown.append(tree)
            tree_class.append(k)
    return grown, tree_class


def _json_floats(text):
    """Every float token of a JSON document, as written."""
    tokens = []
    json.loads(text, parse_float=lambda t: tokens.append(t) or float(t))
    return tokens


class TestBinaryMirrorOracle:
    """Binary boosting grows one tree per round and stores its mirror; the
    per-class loop it replaced is the oracle, swapped in with monkeypatch."""

    GRID = [(growth, splits) for growth in ("depth", "leaf")
            for splits in ("exact", "hist")]

    def _fit_both(self, monkeypatch, K, growth, splits, seed):
        data = _tied_matrix(K, seed)
        cfg = TrainConfig(kind="boosting", n_trees=25, learning_rate=0.5,
                          growth=growth, splits=splits, max_leaves=6, n_bins=16)
        model = train_tree_ensemble(data, cfg)
        monkeypatch.setattr(trees, "_boost", _boost_per_class)
        oracle = train_tree_ensemble(data, cfg)
        return data, model, oracle

    @pytest.mark.parametrize("growth,splits", GRID)
    def test_binary_matches_per_class_loop(self, monkeypatch, growth, splits):
        data, model, oracle = self._fit_both(monkeypatch, 2, growth, splits, seed=3)
        assert model.tree_class == oracle.tree_class == [0, 1] * 25
        assert np.abs(model.predict_proba(data.X)
                      - oracle.predict_proba(data.X)).max() <= 1e-12
        for grown, mirror in zip(model.trees[0::2], model.trees[1::2]):
            for name in ("feature", "threshold", "left", "right", "cover"):
                assert np.array_equal(getattr(grown, name), getattr(mirror, name))
            leaf = grown.feature == LEAF
            assert np.array_equal(mirror.value[leaf], -grown.value[leaf])
            inner = mirror.value[~leaf]
            assert np.all(inner == 0.0) and not np.signbit(inner).any()
        assert "-0.0" not in _json_floats(model_to_json(model))

    @pytest.mark.parametrize("growth,splits", GRID)
    def test_three_classes_byte_equal_to_per_class_loop(self, monkeypatch,
                                                        growth, splits):
        _, model, oracle = self._fit_both(monkeypatch, 3, growth, splits, seed=4)
        assert len(set(model.tree_class)) == 3
        assert model_to_json(model) == model_to_json(oracle)

    def test_two_tree_binary_model_loads_and_predicts(self, monkeypatch):
        data, _, oracle = self._fit_both(monkeypatch, 2, "depth", "exact", seed=5)
        pairs = zip(oracle.trees[0::2], oracle.trees[1::2])
        assert any(not np.array_equal(b.value, 0.0 - a.value) for a, b in pairs)
        clone = model_from_json(model_to_json(oracle))
        assert np.array_equal(clone.predict_proba(data.X),
                              oracle.predict_proba(data.X))

    @pytest.mark.parametrize("K", [2, 3])
    def test_regression_trees_grown_per_round(self, monkeypatch, K):
        grown = []
        grow = trees.grow_regression_tree

        def counted(*args, **kwargs):
            grown.append(1)
            return grow(*args, **kwargs)

        monkeypatch.setattr(trees, "grow_regression_tree", counted)
        model = train_tree_ensemble(_tied_matrix(K, 6),
                                    TrainConfig(kind="boosting", n_trees=7))
        assert len(grown) == (7 if K == 2 else 3 * 7)
        assert len(model.trees) == 7 * K


def _reference_gini_tree(X, y, n_classes, features, max_depth, min_leaf):
    """The per-feature Gini search the presorted scan replaced: one argsort
    and one (n, K) one-hot per feature per node, the running best updated
    on a strictly greater gain."""
    builder = trees._TreeBuilder(n_out=n_classes)

    def gini_counts(counts):
        n = counts.sum()
        return 1.0 - ((counts / n) ** 2).sum() if n else 0.0

    def best_split(idx):
        counts = np.bincount(y[idx], minlength=n_classes).astype(float)
        n = len(idx)
        parent = gini_counts(counts)
        best = (MIN_GAIN, -1, 0.0)
        for j in features:
            x = X[idx, j]
            order = np.argsort(x, kind="stable")
            xs = x[order]
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), y[idx][order]] = 1.0
            cum = np.cumsum(onehot, axis=0)
            pos = np.arange(n - 1)
            valid = xs[:-1] < xs[1:]
            valid &= (pos + 1 >= min_leaf) & (n - pos - 1 >= min_leaf)
            if not valid.any():
                continue
            CL = cum[:-1][valid]
            NL = CL.sum(axis=1)
            CR = counts - CL
            NR = n - NL
            gini_l = 1.0 - (CL ** 2).sum(axis=1) / NL ** 2
            gini_r = 1.0 - (CR ** 2).sum(axis=1) / NR ** 2
            gains = parent - (NL / n) * gini_l - (NR / n) * gini_r
            k = int(np.argmax(gains))
            if gains[k] > best[0]:
                cut = np.flatnonzero(valid)[k]
                thr = 0.5 * (xs[cut] + xs[cut + 1])
                best = (float(gains[k]), j, float(thr))
        return best

    def recurse(idx, depth):
        node = builder.add(len(idx))
        counts = np.bincount(y[idx], minlength=n_classes).astype(float)
        pure = counts.max() == len(idx)
        deep = max_depth is not None and depth >= max_depth
        if pure or deep or len(idx) < 2 * min_leaf:
            builder.value[node] = counts / counts.sum()
            return node
        gain, j, thr = best_split(idx)
        if j < 0:
            builder.value[node] = counts / counts.sum()
            return node
        mask = X[idx, j] <= thr
        l = recurse(idx[mask], depth + 1)
        r = recurse(idx[~mask], depth + 1)
        builder.split(node, j, thr, l, r)
        return node

    recurse(np.arange(len(y)), 0)
    return builder.freeze()


class TestGiniSplitEquivalence:
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    @pytest.mark.parametrize("max_depth", [None, 0, 3])
    def test_same_forest_as_per_feature_search(self, monkeypatch, max_depth,
                                               min_leaf, K):
        data = _tied_matrix(K, seed=7 * K + min_leaf)
        cfg = TrainConfig(kind="bagging", n_trees=12, seed=K + min_leaf,
                          max_depth=max_depth, min_samples_leaf=min_leaf)
        model = train_tree_ensemble(data, cfg)
        monkeypatch.setattr(trees, "grow_gini_tree", _reference_gini_tree)
        reference = train_tree_ensemble(data, cfg)

        grown = sum(t.n_nodes for t in model.trees)
        assert grown == 12 if max_depth == 0 else grown > 12 * 3
        assert json.dumps(model.to_dict()) == json.dumps(reference.to_dict())


def _log_loss_of(scores, y):
    p = softmax(scores)
    return float(-np.mean(np.log(np.clip(p[np.arange(len(y)), y], 1e-15, None))))


class TestBagging:
    def test_separable_blobs(self):
        data = _blobs(n=80, gap=4.0, seed=5)
        model = train_tree_ensemble(data, TrainConfig(kind="bagging", n_trees=50))
        assert _accuracy(model, data) == 1.0

    def test_pure_dataset_gives_single_leaf_probability_one(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        tree = grow_gini_tree(X, np.zeros(10, dtype=np.intp), 2,
                              np.array([0, 1]), None, 2)
        assert tree.n_nodes == 1
        assert np.allclose(tree.value[0], [1.0, 0.0])

    def test_seeded_training_is_bit_reproducible(self):
        data = _blobs(n=60, gap=1.5, seed=6)
        cfg = TrainConfig(kind="bagging", n_trees=40, seed=9)
        p1 = train_tree_ensemble(data, cfg).predict_proba(data.X)
        p2 = train_tree_ensemble(data, cfg).predict_proba(data.X)
        assert np.array_equal(p1, p2)

    def test_predict_routes_like_the_recursive_walk(self):
        def walk(tree, X, rows, node, out):
            if tree.feature[node] == LEAF:
                out[rows] = tree.value[node]
                return
            go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
            walk(tree, X, rows[go_left], tree.left[node], out)
            walk(tree, X, rows[~go_left], tree.right[node], out)

        data = _tied_matrix(3, seed=8)
        model = train_tree_ensemble(data, TrainConfig(kind="bagging", n_trees=10))
        X = data.X.copy()   # raw, so NaN reaches the comparisons
        X[::7, 0] = model.trees[0].threshold[0]
        for tree in model.trees:
            out = np.empty((len(X), tree.n_out))
            walk(tree, X, np.arange(len(X)), 0, out)
            assert tree.predict(X).tobytes() == out.tobytes()

    def test_one_leaf_forcing_approximates_prior(self):
        data = _blobs(n=90)
        data.labels[:30] = "a"
        data.labels[30:] = "b"
        model = train_tree_ensemble(
            data, TrainConfig(kind="bagging", n_trees=400, max_depth=0))
        probs = model.predict_proba(data.X[:1])
        assert np.allclose(probs, [1 / 3, 2 / 3], atol=0.05)


class TestSvm:
    def test_rbf_kernel_values(self):
        z = np.array([1.0, 2.0])
        assert rbf_kernel(z, z, 1.0) == 1.0
        z2 = z + np.array([math.sqrt(2.0), 0.0])  # distance^2 = 2 sigma^2
        assert abs(rbf_kernel(z, z2, 1.0) - math.exp(-1.0)) < 1e-12
        vals = [rbf_kernel(z, z + np.array([d, 0.0]), 1.0) for d in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6

    def test_kernel_errors(self):
        from physio_bench.errors import DimensionMismatch, NonPositiveSigma
        with pytest.raises(DimensionMismatch):
            rbf_kernel(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(NonPositiveSigma):
            rbf_kernel(np.zeros(2), np.zeros(2), 0.0)

    def test_separable_blobs(self):
        data = _blobs(n=50, gap=5.0, seed=7)
        model = train_svm_rbf(data, TrainConfig(kind="svm"))
        assert _accuracy(model, data) == 1.0

    def test_xor_with_rbf(self):
        data = _xor()
        cfg = TrainConfig(kind="svm", svm_c=10.0, svm_sigma=0.5)
        model = train_svm_rbf(data, cfg)
        assert _accuracy(model, data) == 1.0

    def test_dual_feasibility(self):
        data = _blobs(n=60, gap=1.0, seed=8)  # overlapping -> bounded alphas
        cfg = TrainConfig(kind="svm", svm_c=1.0)
        model = train_svm_rbf(data, cfg)
        m = model.machines[0]
        assert np.all(np.abs(m.coef) <= cfg.svm_c + 1e-9)   # |alpha*y| <= C
        assert abs(m.coef.sum()) < 1e-9                      # sum alpha_i y_i = 0

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(9)
        X = np.vstack([rng.normal(c * 5, 0.5, size=(15, 2)) for c in range(3)])
        y = np.array(["a"] * 15 + ["b"] * 15 + ["c"] * 15, dtype=object)
        groups = np.array([f"s{i % 5}" for i in range(45)], dtype=object)
        data = DataMatrix(X, y, groups, ["f0", "f1"])
        model = train_svm_rbf(data, TrainConfig(kind="svm"))
        assert len(model.machines) == 3
        assert _accuracy(model, data) == 1.0


class TestPredictContracts:
    def test_probabilities_normalized(self):
        data = _blobs(n=40, gap=1.0, seed=10)
        for kind in ("logistic", "knn", "bagging", "boosting"):
            model = train_model(data, TrainConfig(kind=kind, n_trees=20))
            probs = model.predict_proba(data.X)
            assert np.all(probs >= 0) and np.all(probs <= 1)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(np.isfinite(probs))

    def test_svm_exposes_scores_not_probabilities(self):
        from physio_bench.errors import ConfigError
        from physio_bench.models import predict_proba

        data = _blobs(n=30, gap=3.0, seed=11)
        model = train_svm_rbf(data, TrainConfig(kind="svm"))
        assert np.all(np.isfinite(model.predict_scores(data.X)))
        with pytest.raises(ConfigError):
            predict_proba(model, data.X)

    def test_argmax_invariant_to_score_shift(self):
        data = _blobs(n=30, gap=2.0, seed=12)
        model = train_logistic(data, TrainConfig(kind="logistic"))
        before = model.predict_class(data.X)
        model.bias = model.bias + 13.7  # same shift to every class score
        after = model.predict_class(data.X)
        assert np.array_equal(before, after)

    def test_standardizer_fit_on_training_rows_only(self):
        # train rows and held-out rows have different distributions: the
        # frozen column stats must match the training side alone
        rng = np.random.default_rng(13)
        train_X = rng.normal(0.0, 1.0, size=(30, 3))
        test_X = rng.normal(25.0, 5.0, size=(30, 3))
        y = np.array(["a", "b"] * 15, dtype=object)
        g = np.array([f"g{i}" for i in range(30)], dtype=object)
        model = train_logistic(DataMatrix(train_X, y, g, ["f0", "f1", "f2"]),
                               TrainConfig(kind="logistic"))
        assert np.allclose(model.stats.mean, train_X.mean(axis=0))
        assert np.allclose(model.stats.std, train_X.std(axis=0))
        full = np.vstack([train_X, test_X])
        assert not np.allclose(model.stats.mean, full.mean(axis=0))
        # predicting on the held-out rows must not mutate the stats
        model.predict_proba(test_X)
        assert np.allclose(model.stats.mean, train_X.mean(axis=0))

    def test_nan_imputation_frozen_from_training(self):
        X = np.array([[1.0, 2.0], [3.0, np.nan], [5.0, 6.0], [7.0, 8.0]])
        y = np.array(["a", "a", "b", "b"], dtype=object)
        g = np.array(["g1", "g2", "g3", "g4"], dtype=object)
        data = DataMatrix(X, y, g, ["f0", "f1"])
        stats = ColumnStats.fit(X)
        assert stats.impute[1] == pytest.approx((2.0 + 6.0 + 8.0) / 3)
        model = train_logistic(data, TrainConfig(kind="logistic"))
        out = model.predict_proba(np.array([[np.nan, np.nan]]))
        assert np.all(np.isfinite(out))


class TestSerialization:
    def test_round_trip_identical_predictions(self):
        data = _blobs(n=50, gap=1.5, seed=14)
        query = np.random.default_rng(15).normal(1.0, 2.0, size=(20, 3))
        for kind in ("logistic", "knn", "bagging", "boosting", "svm"):
            model = train_model(data, TrainConfig(kind=kind, n_trees=15))
            clone = model_from_json(model_to_json(model))
            if kind == "svm":
                assert np.array_equal(model.predict_scores(query),
                                      clone.predict_scores(query))
            else:
                assert np.array_equal(model.predict_proba(query),
                                      clone.predict_proba(query))
            assert np.array_equal(model.predict_class(query),
                                  clone.predict_class(query))

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_json_round_trip_is_byte_identical(self, n_classes):
        data = _blobs(n=48, gap=1.5, seed=18)
        data.labels = np.array(["abc"[i % n_classes] for i in range(data.n)], dtype=object)
        cfgs = [TrainConfig(kind=kind, n_trees=15)
                for kind in ("logistic", "knn", "bagging", "boosting", "svm")]
        cfgs.append(TrainConfig(kind="boosting", n_trees=15, growth="leaf", splits="hist"))
        for cfg in cfgs:
            text = model_to_json(train_model(data, cfg))
            clone = model_from_json(text)
            assert model_to_json(clone) == text
            if cfg.kind in ("bagging", "boosting"):
                for tree in clone.trees:
                    for index in (tree.feature, tree.left, tree.right):
                        assert index.dtype == np.intp
            if cfg.kind == "knn":
                assert clone.point_classes.dtype == np.intp

    def test_json_is_plain_data(self):
        data = _blobs(n=30, gap=2.0, seed=16)
        doc = json.loads(model_to_json(train_model(data, TrainConfig(kind="boosting", n_trees=5))))
        assert doc["model_kind"] == "tree_ensemble"
        assert isinstance(doc["trees"], list)


class TestTuning:
    def test_grid_search_runs_and_is_deterministic(self):
        data = _blobs(n=60, gap=1.0, seed=17)
        cfg = TrainConfig(kind="logistic", grid={"l2": [0.1, 1.0]}, cv_folds=3)
        _, best1, trace1 = tune_model(data, cfg)
        _, best2, trace2 = tune_model(data, cfg)
        assert best1.l2 == best2.l2
        assert trace1 == trace2
        assert len(trace1) == 2
