"""Decision-tree ensembles: bagged Gini forests and gradient boosting.

One learner with modes covers the tree-ensemble family. Bagging grows
deep Gini-split classification trees on bootstrap resamples with a
sqrt(d) per-tree feature subset and averages leaf class distributions.
Boosting runs multiclass gradient boosting on the softmax log-loss: each
round fits one regression tree per class to the residual (one-hot minus
probability) and assigns leaves their Newton step, sum(residual) /
(sum(p(1-p)) + lambda). With two classes the two trees of a round mirror
each other, so a round grows one logistic tree on class 0's residual and
stores its mirror, negated leaves on the same structure, for class 1
(Friedman, Ann. Stat. 2001). Growth is level-wise under a depth limit or
leaf-wise under a leaf-count limit, with exact or 64-bin histogram split
search.

Split search is one splitter object per boosting fit, shared by every
round and class since X never changes. Exact mode presorts each column
once (stable argsort) and carries every node's per-feature row orders
down the tree by stable partition, so a node's orders equal a stable
argsort of its own rows without sorting again (Chen & Guestrin, KDD 2016).
The same presorted scan, fed class-indicator columns and scored by Gini
gain, grows each bagging tree on its bootstrap rows and feature subset;
bagging always searches exactly. Histogram mode (boosting only) bins all
features of a node with one bincount over feature-offset codes (Ke et al.,
NeurIPS 2017). Either way a node is scored in a single pass over a
(features, cuts) array of cumulative per-row statistics; ties go to the
first maximal cut of a feature, then to the first feature in column order.

Trees store per-node training cover so path-dependent SHAP can compute
conditional expectations without a background sample.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..errors import SchemaMismatch
from .base import (
    Codec,
    ColumnStats,
    DataMatrix,
    Model,
    TrainConfig,
    class_order,
    encode_labels,
    index_field,
    require_multiclass,
    softmax,
)

LEAF = -1

#: Splits are kept when gain >= 0 (within float tolerance): zero-gain
#: splits are structurally necessary for interaction patterns (XOR) whose
#: first split improves nothing by itself. A node with no valid split
#: position, or only loss-increasing splits, becomes a leaf.
MIN_GAIN = -1e-12


@dataclass
class Tree(Codec):
    """Flat-array binary tree; node 0 is the root, LEAF marks leaves."""

    feature: np.ndarray = index_field()  # (n_nodes,) split feature, LEAF at leaves
    threshold: np.ndarray                # (n_nodes,) split threshold (x <= t goes left)
    left: np.ndarray = index_field()     # (n_nodes,)
    right: np.ndarray = index_field()    # (n_nodes,)
    value: np.ndarray                    # (n_nodes, n_out) leaf payload (zeros inside)
    cover: np.ndarray                    # (n_nodes,) training rows through the node

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_out(self) -> int:
        return self.value.shape[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf payload per row, shape (n, n_out)."""
        return self.value[self._route(X)]

    def _route(self, X: np.ndarray) -> np.ndarray:
        """Leaf index per row. Each pass moves every row not yet at a leaf
        one level down with one comparison; NaN fails `<=` and goes right."""
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        while len(rows):
            at = node[rows]
            inner = self.feature[at] != LEAF
            rows, at = rows[inner], at[inner]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])
        return node

    def expected_value(self) -> np.ndarray:
        """Cover-weighted mean leaf payload (the path-dependent base value).
        One reverse sweep over the nodes: children are numbered after their
        parent, so both are done before the parent is reached."""
        E = self.value.copy()
        for node in range(self.n_nodes - 1, -1, -1):
            if self.feature[node] != LEAF:
                l, r = self.left[node], self.right[node]
                wl = self.cover[l] / self.cover[node]
                wr = self.cover[r] / self.cover[node]
                E[node] = wl * E[l] + wr * E[r]
        return E[0]


class _TreeBuilder:
    """Accumulates nodes during growth and freezes them into a Tree."""

    def __init__(self, n_out: int):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []
        self.cover: list[float] = []
        self.n_out = n_out

    def add(self, cover: float, value: np.ndarray | None = None) -> int:
        self.feature.append(LEAF)
        self.threshold.append(0.0)
        self.left.append(LEAF)
        self.right.append(LEAF)
        self.value.append(np.zeros(self.n_out) if value is None else np.asarray(value, dtype=np.float64))
        self.cover.append(float(cover))
        return len(self.feature) - 1

    def split(self, node: int, feature: int, threshold: float, left: int, right: int):
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right
        self.value[node] = np.zeros(self.n_out)

    def freeze(self) -> Tree:
        return Tree(
            feature=np.array(self.feature, dtype=np.intp),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.intp),
            right=np.array(self.right, dtype=np.intp),
            value=np.array(self.value, dtype=np.float64),
            cover=np.array(self.cover, dtype=np.float64),
        )


# --- split search -----------------------------------------------------------
#
# A splitter serves every regression tree of one boosting fit, or one
# bagging tree. It hands a node's rows around as a pair (idx, R): idx lists
# the rows in ascending order, R is the splitter's own state for them.
# `best_split` scores every feature of the node in one pass; `partition`
# returns the children's pairs.


def _newton_value(g_sum: float, h_sum: float, lam: float) -> float:
    return g_sum / (h_sum + lam)


def _split_gains(GL, HL, G, H, lam, valid) -> np.ndarray:
    """Newton gain of every (feature, cut), -inf where `valid` is False."""
    parent = G * G / (H + lam)
    GR, HR = G - GL, H - HL
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent)
    return np.where(valid, gains, -np.inf)


def _first_best(gains: np.ndarray) -> tuple[float, int, int]:
    """(gain, feature, cut) of a (d, cuts) gain array: each feature's first
    maximal cut, then the first feature whose gain is strictly greater than
    MIN_GAIN and than every earlier feature's. Feature -1: no split."""
    if gains.size == 0:
        return MIN_GAIN, -1, 0
    cuts = np.argmax(gains, axis=1)
    best = gains[np.arange(len(cuts)), cuts]
    best = np.where(best > MIN_GAIN, best, -np.inf)
    j = int(np.argmax(best))
    if not best[j] > MIN_GAIN:
        return MIN_GAIN, -1, 0
    return float(best[j]), j, int(cuts[j])


def _best_cut(xs, gains) -> tuple[float, int, float]:
    """`_first_best` of a presorted scan; the threshold is the midpoint of
    the cut's two neighbouring sorted values."""
    gain, j, cut = _first_best(gains)
    if j < 0:
        return gain, j, 0.0
    return gain, j, float(0.5 * (xs[j, cut] + xs[j, cut + 1]))


class _Presorted:
    """Exact greedy search over one presort per fit (XGBoost's pre-sorted
    algorithm). R[j] lists the node's rows in ascending X[:, j], ties by
    row index: what a stable argsort of the node's column gives."""

    def __init__(self, X: np.ndarray):
        self.Xt = np.ascontiguousarray(X.T)
        self.order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)

    def root(self):
        return np.arange(self.Xt.shape[1]), self.order

    def scan(self, rows, stats, min_leaf):
        """One criterion-agnostic pass over a node: each feature's sorted
        values xs (d, n); for each per-row statistic in `stats`, its sums
        left of a cut after each position (d, n - 1); and the mask of valid
        cuts (a value change, at least min_leaf rows on either side)."""
        idx, R = rows
        n = len(idx)
        xs = np.take_along_axis(self.Xt, R, axis=1)
        left = [np.cumsum(s[R], axis=1)[:, :-1] for s in stats]
        valid = xs[:, :-1] < xs[:, 1:]
        if min_leaf > 1:
            pos = np.arange(1, n)
            valid &= (pos >= min_leaf) & (n - pos >= min_leaf)
        return xs, left, valid

    def best_split(self, rows, g, h, lam, min_leaf):
        idx = rows[0]
        xs, (GL, HL), valid = self.scan(rows, (g, h), min_leaf)
        return _best_cut(xs, _split_gains(GL, HL, g[idx].sum(), h[idx].sum(), lam, valid))

    def partition(self, rows, j, thr):
        idx, R = rows
        left = self.Xt[j] <= thr
        m, mR = left[idx], left[R]
        n_left = int(m.sum())
        return ((idx[m], R[mR].reshape(len(R), n_left)),
                (idx[~m], R[~mR].reshape(len(R), len(idx) - n_left)))


class _Histogram:
    """Global quantile bin edges shared by every node of a boosting fit.
    Each feature's codes are offset by j * nb, so one bincount bins a node
    for all features. A feature with fewer edges than nb - 1 is padded;
    its padding cuts hold every row on the left, so NL < n rejects them."""

    def __init__(self, X: np.ndarray, n_bins: int):
        self.X = X
        d = X.shape[1]
        qs = np.linspace(0, 1, n_bins + 1)[1:-1]
        edges = [np.unique(np.quantile(X[:, j], qs)) for j in range(d)]
        self.nb = 1 + max((len(e) for e in edges), default=0)
        self.edges = np.zeros((d, self.nb - 1))
        codes = np.empty(X.shape, dtype=np.intp)
        for j, e in enumerate(edges):
            self.edges[j, :len(e)] = e
            codes[:, j] = np.searchsorted(e, X[:, j], side="left") + j * self.nb
        self.codes = codes

    def root(self):
        return np.arange(self.X.shape[0]), None

    def best_split(self, rows, g, h, lam, min_leaf):
        idx, _ = rows
        n = len(idx)
        d, nb = self.edges.shape[0], self.nb
        c = self.codes[idx].ravel()
        gb = np.bincount(c, weights=np.repeat(g[idx], d), minlength=d * nb)
        hb = np.bincount(c, weights=np.repeat(h[idx], d), minlength=d * nb)
        cb = np.bincount(c, minlength=d * nb)
        GL = np.cumsum(gb.reshape(d, nb), axis=1)[:, :-1]
        HL = np.cumsum(hb.reshape(d, nb), axis=1)[:, :-1]
        NL = np.cumsum(cb.reshape(d, nb), axis=1)[:, :-1]
        valid = (NL >= min_leaf) & (n - NL >= min_leaf) & (NL > 0) & (NL < n)
        gains = _split_gains(GL, HL, g[idx].sum(), h[idx].sum(), lam, valid)
        gain, j, cut = _first_best(gains)
        if j < 0:
            return gain, j, 0.0
        return gain, j, float(self.edges[j, cut])

    def partition(self, rows, j, thr):
        idx, _ = rows
        m = self.X[idx, j] <= thr
        return (idx[m], None), (idx[~m], None)


def _splitter(X: np.ndarray, cfg: TrainConfig):
    return _Histogram(X, cfg.n_bins) if cfg.splits == "hist" else _Presorted(X)


def grow_regression_tree(X, g, h, cfg: TrainConfig,
                         splitter=None) -> tuple[Tree, np.ndarray]:
    """Newton regression tree on (gradient, hessian); returns the tree and
    each training row's fitted leaf value. `splitter` is built from X when
    None; a boosting fit passes one splitter to all of its trees."""
    if splitter is None:
        splitter = _splitter(X, cfg)
    lam = cfg.reg_lambda
    min_leaf = cfg.resolved_min_leaf
    builder = _TreeBuilder(n_out=1)
    fitted = np.empty(len(g))

    def make_leaf(node, idx):
        w = _newton_value(g[idx].sum(), h[idx].sum(), lam)
        builder.value[node] = np.array([w])
        fitted[idx] = w

    max_depth = cfg.resolved_max_depth
    if cfg.growth == "depth":
        def recurse(rows, depth) -> int:
            idx = rows[0]
            node = builder.add(len(idx))
            limit = max_depth is not None and depth >= max_depth
            if limit or len(idx) < 2 * min_leaf:
                make_leaf(node, idx)
                return node
            gain, j, thr = splitter.best_split(rows, g, h, lam, min_leaf)
            if j < 0:
                make_leaf(node, idx)
                return node
            left, right = splitter.partition(rows, j, thr)
            l = recurse(left, depth + 1)
            r = recurse(right, depth + 1)
            builder.split(node, j, thr, l, r)
            return node

        recurse(splitter.root(), 0)
    else:
        # Leaf-wise: repeatedly split the frontier leaf with the best gain.
        root_rows = splitter.root()
        root = builder.add(len(root_rows[0]))
        make_leaf(root, root_rows[0])
        heap: list = []
        counter = 0

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

    return builder.freeze(), fitted


def grow_gini_tree(X, y, n_classes: int, features: np.ndarray,
                   max_depth: int | None, min_leaf: int) -> Tree:
    """Gini-impurity classification tree on X[:, features]; leaves hold
    class distributions. Splits come from one presorted scan per node."""
    splitter = _Presorted(X[:, features])
    indicators = [(y == k).astype(float) for k in range(n_classes)]
    builder = _TreeBuilder(n_out=n_classes)

    def best_split(rows, counts):
        n = len(rows[0])
        xs, CL, valid = splitter.scan(rows, indicators, min_leaf)
        parent = 1.0 - ((counts / n) ** 2).sum()
        # Class counts are exact integers, so every sum over classes is too.
        NL = np.arange(1.0, n)
        NR = n - NL
        gini_l = 1.0 - sum(c ** 2 for c in CL) / NL ** 2
        gini_r = 1.0 - sum((counts[k] - c) ** 2 for k, c in enumerate(CL)) / NR ** 2
        gains = parent - (NL / n) * gini_l - (NR / n) * gini_r
        return _best_cut(xs, np.where(valid, gains, -np.inf))

    def recurse(rows, depth) -> int:
        idx = rows[0]
        node = builder.add(len(idx))
        counts = np.bincount(y[idx], minlength=n_classes).astype(float)
        pure = counts.max() == len(idx)
        deep = max_depth is not None and depth >= max_depth
        if pure or deep or len(idx) < 2 * min_leaf:
            builder.value[node] = counts / counts.sum()
            return node
        gain, j, thr = best_split(rows, counts)
        if j < 0:
            builder.value[node] = counts / counts.sum()
            return node
        left, right = splitter.partition(rows, j, thr)
        l = recurse(left, depth + 1)
        r = recurse(right, depth + 1)
        builder.split(node, int(features[j]), thr, l, r)
        return node

    recurse(splitter.root(), 0)
    return builder.freeze()


# --- the ensemble model -------------------------------------------------------


@dataclass
class TreeEnsembleModel(Model):
    mode: str                     # "bagging" or "boosting"
    classes: list[str]
    trees: list[Tree]
    tree_class: list[int]         # boosting: class index each tree scores
    learning_rate: float
    base_score: np.ndarray        # (K,) log prior for boosting, zeros bagging
    stats: ColumnStats
    feature_names: list[str]
    #: explain's path table and base values, built on the first tree_shap call
    shap_paths: object = field(default=None, init=False, repr=False, compare=False)

    kind = "tree_ensemble"

    def margins(self, X: np.ndarray) -> np.ndarray:
        """Boosting: per-class log-odds scores. Bagging: averaged leaf
        class distributions. Both are the scale SHAP explains."""
        X = self.stats.impute_only(self._rows(X))
        K = len(self.classes)
        if self.mode == "boosting":
            out = np.tile(self.base_score, (X.shape[0], 1))
            for tree, k in zip(self.trees, self.tree_class):
                out[:, k] += self.learning_rate * tree.predict(X)[:, 0]
            return out
        out = np.zeros((X.shape[0], K))
        for tree in self.trees:
            out += tree.predict(X)
        return out / max(1, len(self.trees))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        m = self.margins(X)
        if self.mode == "boosting":
            return softmax(m)
        return m


def _mirror(tree: Tree) -> Tree:
    """The tree with negated leaves. 0.0 - v negates every leaf exactly and
    keeps the internal nodes' zeros +0.0, which -v would make -0.0."""
    return Tree(tree.feature, tree.threshold, tree.left, tree.right,
                0.0 - tree.value, tree.cover)


def train_tree_ensemble(data: DataMatrix, cfg: TrainConfig) -> TreeEnsembleModel:
    if cfg.kind not in ("bagging", "boosting"):
        raise SchemaMismatch("train_tree_ensemble needs kind 'bagging' or 'boosting'")
    classes = class_order(data.labels)
    require_multiclass(classes)
    y = encode_labels(data.labels, classes)
    stats = ColumnStats.fit(data.X)
    X = stats.impute_only(data.X)
    n, d = X.shape
    K = len(classes)

    if cfg.kind == "bagging":
        n_sub = max(1, int(round(np.sqrt(d))))
        trees = []
        for t in range(cfg.resolved_trees):
            rng = np.random.default_rng([cfg.seed, t])
            rows = rng.integers(0, n, n)
            feats = np.sort(rng.choice(d, size=n_sub, replace=False))
            trees.append(
                grow_gini_tree(X[rows], y[rows], K, feats, cfg.resolved_max_depth,
                               cfg.resolved_min_leaf)
            )
        return TreeEnsembleModel("bagging", classes, trees, [LEAF] * len(trees),
                                 1.0, np.zeros(K), stats, list(data.feature_names))

    # boosting
    priors = np.bincount(y, minlength=K) / n
    base = np.log(np.clip(priors, 1e-15, None))
    Y = np.zeros((n, K))
    Y[np.arange(n), y] = 1.0
    trees, tree_class = _boost(X, Y, np.tile(base, (n, 1)), cfg)
    return TreeEnsembleModel("boosting", classes, trees, tree_class,
                             cfg.learning_rate, base, stats,
                             list(data.feature_names))


def _boost(X, Y, scores, cfg: TrainConfig) -> tuple[list[Tree], list[int]]:
    """The boosting rounds from one-hot targets Y and starting scores
    (updated in place); returns the trees and the class each one scores."""
    splitter = _splitter(X, cfg)   # one presort or binning serves every tree
    K = Y.shape[1]
    trees: list[Tree] = []
    tree_class: list[int] = []
    for _ in range(cfg.resolved_trees):
        P = softmax(scores)
        if K == 2:
            # One logistic tree per round (Friedman 2001): class 1's tree
            # would mirror class 0's, so it is stored as that exact mirror.
            g = Y[:, 0] - P[:, 0]
            h = P[:, 0] * (1.0 - P[:, 0])
            tree, fitted = grow_regression_tree(X, g, h, cfg, splitter)
            scores[:, 0] += cfg.learning_rate * fitted
            scores[:, 1] -= cfg.learning_rate * fitted
            trees += [tree, _mirror(tree)]
            tree_class += [0, 1]
            continue
        for k in range(K):
            g = Y[:, k] - P[:, k]          # residual = negative gradient
            h = P[:, k] * (1.0 - P[:, k])
            tree, fitted = grow_regression_tree(X, g, h, cfg, splitter)
            scores[:, k] += cfg.learning_rate * fitted
            trees.append(tree)
            tree_class.append(k)
    return trees, tree_class
