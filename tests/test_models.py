"""Model trainers: separability canaries, oracles, invariants, round-trips."""

import heapq
import itertools
import json
import logging
import math
import re

import numpy as np
import pytest

from physio_bench.errors import (
    ConfigError,
    KExceedsSubjects,
    KTooLarge,
    SchemaMismatch,
    SingleClass,
)
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
    rbf_matrix,
)
from physio_bench.models.base import (
    ColumnStats,
    class_order,
    encode_labels,
    softmax,
    sq_dists,
)
from physio_bench.models.logistic import _loss_grad
from physio_bench.models import base, logistic, svm, trees
from physio_bench.models.trees import LEAF, MIN_GAIN, _GiniForest, grow_gini_tree


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


def _gd_logistic(Z, Y, l2):
    """The gradient descent that fitted the logistic model before Newton's
    method: full-batch steps with Armijo backtracking and a step that
    grows by 1.5 after each accepted one, stopped at a gradient
    infinity-norm of 1e-6 or after 5000 steps. Returns W, b, loss and the
    number of `_loss_grad` calls."""
    K, d = Y.shape[1], Z.shape[1]
    W, b = np.zeros((K, d)), np.zeros(K)
    loss, gW, gb = _loss_grad(Z, Y, W, b, l2)
    calls, step = 1, 1.0
    for _ in range(5000):
        if max(np.abs(gW).max(), np.abs(gb).max()) < 1e-6:
            break
        g_sq = float((gW * gW).sum() + (gb * gb).sum())
        accepted = False
        while step >= 1e-12:
            W_new, b_new = W - step * gW, b - step * gb
            new_loss, gW_new, gb_new = _loss_grad(Z, Y, W_new, b_new, l2)
            calls += 1
            if new_loss <= loss - 1e-4 * step * g_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        W, b, loss, gW, gb = W_new, b_new, new_loss, gW_new, gb_new
        step = min(step * 1.5, 1e4)
    return W, b, loss, calls


def _logistic_problem(K, n, d, seed):
    """Rows whose class is the argmax of a random linear score plus noise,
    and fresh rows drawn the same way."""
    rng = np.random.default_rng([seed, K, n, d])
    X = rng.normal(size=(2 * n, d))
    score = X @ rng.normal(size=(d, K)) + rng.normal(size=(2 * n, K))
    y = np.argmax(score, axis=1)
    y[:K] = np.arange(K)   # every class is present
    labels = np.array([f"c{k}" for k in y], dtype=object)
    groups = np.array([f"s{i % 4}" for i in range(n)], dtype=object)
    return (DataMatrix(X[:n], labels[:n], groups, [f"f{j}" for j in range(d)]),
            X[n:])


def _objective(model, data, l2):
    """The fitted model's (Z, Y, loss, gradient infinity-norm)."""
    Z = model.stats.transform(data.X)
    Y = np.eye(len(model.classes))[encode_labels(data.labels, model.classes)]
    loss, gW, gb = _loss_grad(Z, Y, model.weights, model.bias, l2)
    return Z, Y, loss, max(np.abs(gW).max(), np.abs(gb).max())


class TestLogisticNewton:
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("l2", [0.1, 1.0, 10.0])
    def test_matches_the_gradient_descent_oracle(self, K, l2):
        for seed in range(6):
            n, d = 20 + 8 * seed, 1 + seed % 5
            data, fresh = _logistic_problem(K, n, d, seed)
            model = train_logistic(data, TrainConfig(kind="logistic", l2=l2))
            Z, Y, loss, gnorm = _objective(model, data, l2)
            W, b, gd_loss, _ = _gd_logistic(Z, Y, l2)
            assert gnorm < logistic.GRAD_TOL
            assert loss <= gd_loss + 1e-12
            Zf = model.stats.transform(fresh)
            assert np.array_equal(np.argmax(Zf @ model.weights.T + model.bias, axis=1),
                                  np.argmax(Zf @ W.T + b, axis=1))
            assert abs(model.bias.sum()) <= 1e-12

    def test_few_steps_where_gradient_descent_needs_many(self, monkeypatch):
        # Nearly collinear columns and a weak penalty: an ill-conditioned
        # objective.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 1))
        X = np.hstack([x, x + 1e-2 * rng.normal(size=(60, 1)), rng.normal(size=(60, 1))])
        labels = np.where(x[:, 0] + 0.5 * rng.normal(size=60) > 0, "b", "a").astype(object)
        data = DataMatrix(X, labels, np.array(["s0"] * 60, dtype=object), ["f0", "f1", "f2"])
        cfg = TrainConfig(kind="logistic", l2=0.01)
        model = train_logistic(data, cfg)
        Z, Y, loss, gnorm = _objective(model, data, cfg.l2)
        assert _gd_logistic(Z, Y, cfg.l2)[3] > 1000
        calls = []

        def counted(*args):
            calls.append(1)
            return _loss_grad(*args)

        monkeypatch.setattr(logistic, "_loss_grad", counted)
        again = train_logistic(data, cfg)
        assert len(calls) <= 30
        assert gnorm < logistic.GRAD_TOL
        assert np.array_equal(again.weights, model.weights)

    def test_hessian_matches_central_differences(self):
        rng = np.random.default_rng(4)
        n, d, K, l2 = 30, 3, 3, 0.7
        Z = rng.normal(size=(n, d))
        Y = np.eye(K)[rng.integers(0, K, size=n)]
        theta = rng.normal(scale=0.5, size=(K, d + 1))
        H = logistic._hessian(np.column_stack([Z, np.ones(n)]),
                              softmax(Z @ theta[:, :d].T + theta[:, d]), l2)

        def grad(t):
            t = t.reshape(K, d + 1)
            _, gW, gb = _loss_grad(Z, Y, t[:, :d], t[:, d], l2)
            return np.column_stack([gW, gb]).ravel()

        eps = 1e-6
        for i in range(K * (d + 1)):
            e = np.zeros(K * (d + 1))
            e[i] = eps
            fd = (grad(theta.ravel() + e) - grad(theta.ravel() - e)) / (2 * eps)
            assert np.abs(fd - H[:, i]).max() < 1e-7

    def test_debug_log_names_steps_calls_and_stop(self, caplog, monkeypatch):
        data, _ = _logistic_problem(3, 40, 3, 0)
        caplog.set_level(logging.DEBUG, logger=logistic.__name__)
        train_logistic(data, TrainConfig(kind="logistic"))
        monkeypatch.setattr(logistic, "MAX_ITER", 1)
        train_logistic(data, TrainConfig(kind="logistic"))
        converged, capped = (r.getMessage() for r in caplog.records
                             if r.name == logistic.__name__)
        assert re.fullmatch(r"logistic fit: 40 rows, \d+ Newton steps, \d+ _loss_grad "
                            r"calls, gradient \S+, converged", converged)
        assert float(converged.split("gradient ")[1].split(",")[0]) < logistic.GRAD_TOL
        assert capped.startswith("logistic fit: 40 rows, 1 Newton steps, ")
        assert capped.endswith(", MAX_ITER")

    def test_no_descent_step_stops_without_a_rise(self, caplog, monkeypatch):
        # A Newton direction that points uphill is never taken.
        data, _ = _logistic_problem(2, 30, 2, 1)
        monkeypatch.setattr(logistic.np.linalg, "lstsq",
                            lambda H, g, rcond: (-g,))
        caplog.set_level(logging.DEBUG, logger=logistic.__name__)
        model = train_logistic(data, TrainConfig(kind="logistic"))
        assert np.all(model.weights == 0) and np.all(model.bias == 0)
        assert caplog.records[-1].getMessage().endswith(", no descent step")


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

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_neighbours_equal_the_one_shot_expression(self, monkeypatch, block):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(300, 8))
        labels = np.array(["a", "b", "c"] * 100, dtype=object)
        groups = np.array([f"s{i % 6}" for i in range(300)], dtype=object)
        model = train_knn(DataMatrix(X, labels, groups, [f"f{j}" for j in range(8)]),
                          TrainConfig(kind="knn", knn_k=5))
        monkeypatch.setattr(base, "BLOCK_ELEMS", block or base.BLOCK_ELEMS)
        queries = rng.normal(size=(120, 8))
        Z = model.stats.transform(queries)
        d2 = ((Z[:, None, :] - model.points[None, :, :]) ** 2).sum(axis=2)
        order, dist = model._neighbors(queries)
        expected = np.argsort(d2, axis=1, kind="stable")[:, :5]
        assert np.array_equal(order, expected)
        assert np.array_equal(dist, np.sqrt(np.take_along_axis(d2, expected, axis=1)))

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

    @pytest.mark.parametrize("field, value", [
        ("max_depth", -1), ("max_leaves", 0), ("max_leaves", -3),
        ("min_samples_leaf", 0), ("min_samples_leaf", -2), ("n_bins", 1), ("n_bins", 0)])
    def test_tree_size_below_its_least_is_config_error(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(kind="boosting", **{field: value})
        TrainConfig(kind="bagging", max_depth=0, max_leaves=1, min_samples_leaf=1, n_bins=2)

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


class _Builder:
    """Nodes in creation order, frozen into a Tree: how the growers stored
    trees before they shared one frontier."""

    def __init__(self, n_out):
        self.n_out = n_out
        self.feature, self.threshold, self.left, self.right = [], [], [], []
        self.value, self.cover = [], []

    def add(self, cover):
        self.feature.append(LEAF)
        self.threshold.append(0.0)
        self.left.append(LEAF)
        self.right.append(LEAF)
        self.value.append(np.zeros(self.n_out))
        self.cover.append(float(cover))
        return len(self.feature) - 1

    def split(self, node, feature, threshold, left, right):
        self.feature[node], self.threshold[node] = feature, threshold
        self.left[node], self.right[node] = left, right
        self.value[node] = np.zeros(self.n_out)

    def freeze(self):
        return trees.Tree(np.array(self.feature, dtype=np.intp), np.array(self.threshold),
                          np.array(self.left, dtype=np.intp),
                          np.array(self.right, dtype=np.intp),
                          np.array(self.value), np.array(self.cover))


def _in_preorder(tree):
    """The tree with its nodes renumbered by a recursive preorder walk."""
    order = []

    def visit(node):
        order.append(node)
        if tree.feature[node] != LEAF:
            visit(tree.left[node])
            visit(tree.right[node])

    visit(0)
    rank = {old: new for new, old in enumerate(order)}

    def children(side):
        return np.array([rank[side[i]] if tree.feature[i] != LEAF else LEAF
                         for i in order], dtype=np.intp)

    return trees.Tree(tree.feature[order], tree.threshold[order], children(tree.left),
                      children(tree.right), tree.value[order], tree.cover[order])


def _assert_preorder(tree):
    """Every inner node i has left == i + 1 and right == i + 1 + the size
    of its left subtree; leaves have no children."""
    inner = np.flatnonzero(tree.feature != LEAF)
    leaves = np.flatnonzero(tree.feature == LEAF)
    size = np.ones(tree.n_nodes, dtype=np.intp)
    for i in inner[::-1]:
        assert tree.left[i] > i and tree.right[i] > i
        size[i] += size[tree.left[i]] + size[tree.right[i]]
    assert size[0] == tree.n_nodes
    assert np.array_equal(tree.left[inner], inner + 1)
    assert np.array_equal(tree.right[inner], inner + 1 + size[inner + 1])
    assert np.all(tree.left[leaves] == LEAF) and np.all(tree.right[leaves] == LEAF)


def _reference_leafwise_tree(X, g, h, cfg, splitter=None):
    """The leaf-wise heap loop before one grower served every tree: nodes in
    creation order, renumbered into preorder only at the end."""
    if splitter is None:
        splitter = trees._splitter(X, cfg)
    lam, min_leaf = cfg.reg_lambda, cfg.resolved_min_leaf
    builder = _Builder(n_out=1)
    fitted = np.empty(len(g))

    def make_leaf(node, idx):
        w = g[idx].sum() / (h[idx].sum() + lam)
        builder.value[node] = np.array([w])
        fitted[idx] = w

    root_rows = splitter.root()
    root = builder.add(len(root_rows[0]))
    make_leaf(root, root_rows[0])
    heap, counter = [], 0

    def push(node, rows):
        nonlocal counter
        if len(rows[0]) < 2 * min_leaf:
            return
        gain, j, thr = splitter.best_split(rows, g, h, lam, min_leaf)
        if j >= 0:
            heapq.heappush(heap, (-gain, counter, node, rows, j, thr))
            counter += 1

    push(root, root_rows)
    n_leaves = 1
    while heap and n_leaves < cfg.max_leaves:
        _, _, node, rows, j, thr = heapq.heappop(heap)
        left, right = splitter.partition(rows, j, thr)
        l = builder.add(len(left[0]))
        r = builder.add(len(right[0]))
        make_leaf(l, left[0])
        make_leaf(r, right[0])
        builder.split(node, j, thr, l, r)
        n_leaves += 1
        push(l, left)
        push(r, right)
    return _in_preorder(builder.freeze()), fitted


class TestOneGrower:
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("splits", ["exact", "hist"])
    def test_leaf_wise_matches_the_heap_loop(self, monkeypatch, splits, min_leaf, K):
        data = _tied_matrix(K, seed=5 * K + min_leaf)
        cfg = TrainConfig(kind="boosting", n_trees=6, learning_rate=0.5, growth="leaf",
                          splits=splits, max_leaves=7, min_samples_leaf=min_leaf,
                          n_bins=16)
        grow = trees.grow_regression_tree
        compared = []

        def both(X, g, h, cfg, splitter=None):
            tree, fitted = grow(X, g, h, cfg, splitter)
            ref_tree, ref_fitted = _reference_leafwise_tree(X, g, h, cfg, splitter)
            assert json.dumps(tree.to_dict()) == json.dumps(ref_tree.to_dict())
            assert fitted.tobytes() == ref_fitted.tobytes()
            compared.append(tree.n_nodes)
            return tree, fitted

        monkeypatch.setattr(trees, "grow_regression_tree", both)
        model = train_tree_ensemble(data, cfg)
        monkeypatch.setattr(trees, "grow_regression_tree", _reference_leafwise_tree)
        reference = train_tree_ensemble(data, cfg)

        assert len(compared) == 6 * (1 if K == 2 else K) and max(compared) >= 9
        assert model_to_json(model) == model_to_json(reference)

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("cfg", [
        TrainConfig(kind="boosting", n_trees=5, max_depth=4),
        TrainConfig(kind="boosting", n_trees=5, growth="leaf", max_leaves=9),
        TrainConfig(kind="boosting", n_trees=5, growth="leaf", splits="hist", n_bins=8),
        TrainConfig(kind="bagging", n_trees=5),
        TrainConfig(kind="bagging", n_trees=5, max_depth=3, min_samples_leaf=4),
    ], ids=["level-wise", "leaf-wise", "leaf-wise-hist", "gini", "gini-shallow"])
    def test_every_grown_tree_is_in_preorder(self, cfg, K):
        model = train_tree_ensemble(_tied_matrix(K, seed=K), cfg)
        assert max(t.n_nodes for t in model.trees) >= 7
        for tree in model.trees:
            _assert_preorder(tree)


def _reference_gini_tree(X, y, n_classes, features, max_depth, min_leaf):
    """The per-feature Gini search the presorted scan replaced: one argsort
    and one (n, K) one-hot per feature per node, the running best updated
    on a strictly greater gain."""
    builder = _Builder(n_out=n_classes)

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


def _bagging_draws(data, cfg):
    """The imputed X, encoded y, class count and each tree's (bootstrap
    rows, sorted feature subset) of a bagging fit: tree t draws from
    default_rng([seed, t]), as `train_tree_ensemble` does."""
    classes = class_order(data.labels)
    X = ColumnStats.fit(data.X).impute_only(data.X)
    n, d = X.shape
    draws = []
    for t in range(cfg.resolved_trees):
        rng = np.random.default_rng([cfg.seed, t])
        rows = rng.integers(0, n, n)
        draws.append((rows, np.sort(rng.choice(d, size=max(1, round(np.sqrt(d))),
                                               replace=False))))
    return X, encode_labels(data.labels, classes), len(classes), draws


def _tree_json(tree_list):
    return json.dumps([t.to_dict() for t in tree_list])


class TestGiniSplitEquivalence:
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("min_leaf", [1, 2, 3])
    @pytest.mark.parametrize("max_depth", [None, 0, 3])
    def test_same_forest_as_per_feature_search(self, max_depth, min_leaf, K):
        data = _tied_matrix(K, seed=7 * K + min_leaf)
        cfg = TrainConfig(kind="bagging", n_trees=12, seed=K + min_leaf,
                          max_depth=max_depth, min_samples_leaf=min_leaf)
        model = train_tree_ensemble(data, cfg)
        X, y, n_classes, draws = _bagging_draws(data, cfg)
        reference = [_reference_gini_tree(X[rows], y[rows], n_classes, feats,
                                          max_depth, min_leaf) for rows, feats in draws]

        grown = sum(t.n_nodes for t in model.trees)
        assert grown == 12 if max_depth == 0 else grown > 12 * 3
        assert _tree_json(model.trees) == _tree_json(reference)

    def test_forest_does_not_depend_on_chunk_size(self, monkeypatch):
        data = _tied_matrix(3, seed=4)
        cfg = TrainConfig(kind="bagging", n_trees=11, seed=3, min_samples_leaf=2)
        texts = {model_to_json(train_tree_ensemble(data, cfg))}
        for chunk in (1, 3, 12):
            monkeypatch.setattr(trees, "FOREST_CHUNK", chunk)
            texts.add(model_to_json(train_tree_ensemble(data, cfg)))
        assert len(texts) == 1

    @pytest.mark.parametrize("max_depth", [None, 2])
    def test_one_tree_alone_is_that_tree_of_the_forest(self, max_depth):
        data = _tied_matrix(2, seed=9)
        cfg = TrainConfig(kind="bagging", n_trees=12, seed=5, max_depth=max_depth,
                          min_samples_leaf=2)
        model = train_tree_ensemble(data, cfg)
        X, y, n_classes, draws = _bagging_draws(data, cfg)
        for t in (0, 7, 11):
            rows, feats = draws[t]
            forest = _GiniForest(X[rows], y[rows], n_classes, np.arange(len(rows))[None],
                                 feats[None], max_depth, 2)
            alone = grow_gini_tree(forest, 0, feats)
            assert _tree_json([alone]) == _tree_json([model.trees[t]])


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
        feats = np.array([0, 1])
        forest = _GiniForest(X, np.zeros(10, dtype=np.intp), 2, np.arange(10)[None],
                             feats[None], None, 2)
        tree = grow_gini_tree(forest, 0, feats)
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


def _dual_problem(model, data):
    """The binary machine's dual variables over all training rows, with
    the kernel and signed labels they were solved on."""
    Z = model.stats.transform(data.X)
    K = rbf_matrix(Z, Z, model.sigma)
    y = np.where(data.labels == model.classes[1], 1.0, -1.0)
    machine = model.machines[0]
    alpha = np.zeros(len(y))
    for s, c in zip(machine.support, machine.coef):
        (row,) = np.flatnonzero((Z == s).all(axis=1))
        alpha[row] = abs(c)
    return alpha, K, y


def _dual_objective(alpha, K, y):
    return alpha.sum() - 0.5 * (alpha * y) @ K @ (alpha * y)


def _brute_force_dual(K, y, C):
    """Best dual objective over every split of the points into a = 0,
    0 < a < C and a = C: each split fixes the bounded a and solves the
    KKT system Q_FF a_F + y_F b = 1 - Q_FB a_B, y_F'a_F = -y_B'a_B for
    the free a and the bias; a feasible solution is a candidate."""
    n = len(y)
    Q = np.outer(y, y) * K
    best = -np.inf
    for split in itertools.product((0, 1, 2), repeat=n):
        split = np.array(split)
        free, at_c = split == 1, split == 2
        alpha = np.where(at_c, C, 0.0)
        if free.any():
            m = int(free.sum())
            A = np.zeros((m + 1, m + 1))
            A[:m, :m] = Q[np.ix_(free, free)]
            A[:m, m] = A[m, :m] = y[free]
            rhs = np.append(1.0 - Q[np.ix_(free, at_c)] @ alpha[at_c], -y @ alpha)
            try:
                alpha[free] = np.linalg.solve(A, rhs)[:m]
            except np.linalg.LinAlgError:
                continue
            if not ((alpha[free] > 0) & (alpha[free] < C)).all():
                continue
        elif abs(y @ alpha) > 1e-12:
            continue
        best = max(best, _dual_objective(alpha, K, y))
    return best


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

    def test_dual_objective_matches_brute_force(self):
        short = {}
        for seed in range(100):
            rng = np.random.default_rng([seed, 99])
            n = int(rng.integers(3, 8))
            C = float(rng.choice([0.3, 1.0, 3.0, 10.0]))
            sigma = float(rng.choice([0.5, 1.0, 2.0]))
            labels = np.array(["a", "b"] * n, dtype=object)[rng.permutation(n)]
            if len(set(labels)) < 2:
                labels[0] = "b" if labels[0] == "a" else "a"
            data = DataMatrix(rng.normal(size=(n, 2)), labels,
                              np.array([f"s{i}" for i in range(n)], dtype=object),
                              ["f0", "f1"])
            model = train_svm_rbf(data, TrainConfig(kind="svm", svm_c=C, svm_sigma=sigma))
            alpha, K, y = _dual_problem(model, data)
            assert np.all((alpha >= 0) & (alpha <= C))
            assert abs(alpha @ y) < 1e-9
            best = _brute_force_dual(K, y, C)
            shortfall = best - _dual_objective(alpha, K, y)
            if abs(shortfall) > 1e-5 * max(1.0, abs(best)):
                short[seed] = shortfall
        assert short == {}

    @pytest.mark.parametrize("block", [1, 7, 1000, None])
    def test_blocked_distances_equal_the_one_shot_expression(self, monkeypatch, block):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(300, 8))   # 720,000 differences: several default blocks
        B = rng.normal(size=(45, 8))
        monkeypatch.setattr(base, "BLOCK_ELEMS", block or base.BLOCK_ELEMS)
        for P, Q in ((A, A), (A, B), (B, A)):
            d2 = ((P[:, None, :] - Q[None, :, :]) ** 2).sum(axis=2)
            assert np.array_equal(sq_dists(P, Q), d2)
            assert np.array_equal(rbf_matrix(P, Q, 1.3), np.exp(-d2 / (2.0 * 1.3 * 1.3)))
        d2 = ((A[:, None, :] - A[None, :, :]) ** 2).sum(axis=2)
        one_shot = float(np.median(np.sqrt(d2[np.triu_indices(len(A), k=1)])))
        assert svm.median_pairwise_distance(A) == one_shot
        assert svm.median_pairwise_distance(A[:1]) == 1.0

    def test_stops_below_the_kkt_gap(self):
        data = _blobs(n=60, gap=1.0, seed=8)
        model = train_svm_rbf(data, TrainConfig(kind="svm", svm_c=1.0))
        alpha, K, y = _dual_problem(model, data)
        v = -y * (y * (K @ (alpha * y)) - 1.0)   # -y_t G_t, G = Q alpha - 1
        up = np.where(y > 0, alpha < 1.0, alpha > 0)
        low = np.where(y > 0, alpha > 0, alpha < 1.0)
        assert v[up].max() - v[low].min() < svm.KKT_TOL


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


def _stump_model_text(mode="bagging", **arrays):
    """A two-class, two-feature tree_ensemble model.json holding one stump
    on feature 0; `arrays` replace the stump's per-node arrays."""
    value = [[0], [1], [-1]] if mode == "boosting" else [[0, 0], [1, 0], [0, 1]]
    tree = dict({"feature": [0, -1, -1], "threshold": [0, 0, 0], "left": [1, -1, -1],
                 "right": [2, -1, -1], "value": value, "cover": [2, 1, 1]}, **arrays)
    return json.dumps({
        "model_kind": "tree_ensemble", "mode": mode, "classes": ["a", "b"],
        "feature_names": ["f", "g"], "tree_class": [0] if mode == "boosting" else [],
        "learning_rate": 0.1, "base_score": [0, 0],
        "stats": {"impute": [0, 0], "mean": [0, 0], "std": [1, 1]}, "trees": [tree]})


class TestSerialization:
    @pytest.mark.parametrize("mode", ["bagging", "boosting"])
    def test_well_formed_stump_loads(self, mode):
        model = model_from_json(_stump_model_text(mode))
        assert model.predict_proba([[1.0, 0.0], [-1.0, 0.0]]).shape == (2, 2)
        assert model.trees[0].expected_value().shape == (model.trees[0].n_out,)

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

    def test_to_dict_is_the_model_json_document(self):
        data = _blobs(n=40, gap=1.5, seed=16)
        for kind in ("logistic", "knn", "bagging", "boosting", "svm"):
            model = train_model(data, TrainConfig(kind=kind, n_trees=5))
            doc = model.to_dict()
            assert doc["model_kind"] == doc["kind"] == model.kind
            assert model_to_json(model) == json.dumps(doc, sort_keys=True)

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


    @pytest.mark.parametrize("text, message", [
        ("{not json", "not JSON"),
        ("[1, 2]", "JSON object"),
        ('{"model_kind": "tree_ensemble"}', "lacks the field"),
        ('{"model_kind": "logistic", "classes": ["a", "b"], "feature_names": ["f"],'
         ' "bias": [0, 0], "stats": 3, "weights": 1}', "malformed field"),
        ('{"model_kind": "logistic", "classes": ["a", "b"], "feature_names": ["f"],'
         ' "bias": [0, 0], "stats": {"impute": [0], "mean": [0], "std": [1]},'
         ' "weights": [["q"]]}', "malformed field"),
        ('{"model_kind": "logistic", "classes": ["a", "b"], "feature_names": ["f"],'
         ' "bias": [0, 0], "stats": {"impute": [0], "mean": [0], "std": [1]},'
         ' "weights": 1}', "malformed field"),
        ('{"model_kind": "logistic", "classes": ["a", "b"], "feature_names": ["f"],'
         ' "bias": [0, 0], "stats": {"impute": [0], "mean": [0], "std": [1]},'
         ' "weights": [[1.0, 2.0]]}', "malformed field"),
        ('{"model_kind": "tree_ensemble", "mode": "boosting", "classes": ["a", "b"],'
         ' "feature_names": ["f"], "trees": [], "tree_class": [], "learning_rate": 0.1,'
         ' "base_score": [0, 0, 0, 0, 0],'
         ' "stats": {"impute": [0], "mean": [0], "std": [1]}}', r"one finite number per class \(2\)"),
        ('{"model_kind": "tree_ensemble", "mode": "bagging", "classes": ["a", "b"],'
         ' "feature_names": ["f"], "tree_class": [], "learning_rate": 0.1,'
         ' "base_score": [0, 0], "stats": {"impute": [0], "mean": [0], "std": [1]},'
         ' "trees": [{"feature": [0, -1, -1], "threshold": [0, 0, 0],'
         ' "left": [0, 0, 0], "right": [0, 0, 0], "value": [[0, 0], [1, 0], [0, 1]],'
         ' "cover": [2, 1, 1]}]}', "child must be a later node"),
        ('{"model_kind": "tree_ensemble", "mode": "bagging", "classes": ["a", "b"],'
         ' "feature_names": ["f", "g"], "tree_class": [], "learning_rate": 0.1,'
         ' "base_score": [0, 0], "stats": {"impute": [0, 0], "mean": [0, 0],'
         ' "std": [1, 1]}, "trees": [{"feature": [-2, -1, -1], "threshold": [0, 0, 0],'
         ' "left": [1, -1, -1], "right": [2, -1, -1], "value": [[0, 0], [1, 0], [0, 1]],'
         ' "cover": [2, 1, 1]}]}', "feature must index feature_names"),
        # The all-zero probe row goes left at the root and never meets feature 9.
        ('{"model_kind": "tree_ensemble", "mode": "bagging", "classes": ["a", "b"],'
         ' "feature_names": ["f", "g", "h", "i"], "tree_class": [], "learning_rate": 0.1,'
         ' "base_score": [0, 0], "stats": {"impute": [0, 0, 0, 0], "mean": [0, 0, 0, 0],'
         ' "std": [1, 1, 1, 1]}, "trees": [{"feature": [0, -1, 9, -1, -1],'
         ' "threshold": [0, 0, 0.5, 0, 0], "left": [1, -1, 3, -1, -1],'
         ' "right": [2, -1, 4, -1, -1], "value": [[0, 0], [1, 0], [0, 0], [1, 0], [0, 1]],'
         ' "cover": [4, 2, 2, 1, 1]}]}', "feature must index feature_names"),
        # Node 1 is the probe row's leaf; a row that goes right meets node 2.
        (_stump_model_text(value=[[0, 0], [1, 0]], cover=[2, 1]), "one entry per node"),
        (_stump_model_text(threshold=[0, 0]), "one entry per node"),
        (_stump_model_text(left=[1, -1, -1, -1]), "one entry per node"),
        (_stump_model_text(right=[2, -1]), "one entry per node"),
        (_stump_model_text(cover=[2, 1]), "one entry per node"),
        (_stump_model_text(value=[0, 1, 0]), "one entry per node"),
        (_stump_model_text(value=[[0, 0, 0], [1, 0, 0], [0, 1, 0]]), "must have 2 columns"),
        (_stump_model_text("boosting", value=[[0, 0], [1, 0], [0, 1]]), "must have 1 columns"),
    ], ids=["not-json", "not-object", "missing-field", "wrong-type", "wrong-value",
            "scalar-weights", "weights-too-wide", "base-score-too-long", "child-points-up",
            "negative-feature", "feature-past-the-columns", "value-rows-short",
            "threshold-short", "left-long", "right-short", "cover-short", "value-flat",
            "bagging-value-too-wide", "boosting-value-per-class"])
    def test_malformed_json_is_schema_mismatch(self, text, message):
        with pytest.raises(SchemaMismatch, match=message):
            model_from_json(text)


class TestTuning:
    def test_every_kind_has_a_trainer_and_a_grid(self):
        from physio_bench.models import DEFAULT_GRIDS, _TRAINERS
        assert set(TrainConfig.KINDS) == set(_TRAINERS) == set(DEFAULT_GRIDS)

    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds_is_a_folds_error(self, folds):
        data = _blobs(n=40, gap=1.0, seed=18)
        cfg = TrainConfig(kind="logistic", grid={"l2": [1.0]}, cv_folds=folds)
        with pytest.raises(KExceedsSubjects, match="k must be >= 2"):
            tune_model(data, cfg)

    def test_one_subject_is_a_subjects_error(self):
        data = _blobs(n=40, gap=1.0, seed=18)
        data.groups[:] = "s0"
        cfg = TrainConfig(kind="logistic", grid={"l2": [1.0]}, cv_folds=3)
        with pytest.raises(ConfigError, match="at least 2 subjects"):
            tune_model(data, cfg)

    def test_grid_search_runs_and_is_deterministic(self):
        data = _blobs(n=60, gap=1.0, seed=17)
        cfg = TrainConfig(kind="logistic", grid={"l2": [0.1, 1.0]}, cv_folds=3)
        _, best1, trace1 = tune_model(data, cfg)
        _, best2, trace2 = tune_model(data, cfg)
        assert best1.l2 == best2.l2
        assert trace1 == trace2
        assert len(trace1) == 2
