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
(Friedman, Ann. Stat. 2001). Regression trees grow best-first, splitting
the frontier leaf of highest gain next: leaf-wise growth caps the leaf
count, and level-wise growth is the uncapped case under a depth limit
(Ke et al., NeurIPS 2017). Their split search is exact or by 64-bin
histograms. Gini trees are read straight off a block search (below).
Every tree is stored in preorder, by one renumbering that serves both
kinds.

Split search is one splitter object per boosting fit, shared by every
round and class since X never changes. Exact mode presorts each column
once (stable argsort) and carries every node's per-feature row orders
down the tree by stable partition, so a node's orders equal a stable
argsort of its own rows without sorting again (Chen & Guestrin, KDD 2016).
Histogram mode bins all features of a node with one bincount over
feature-offset codes (Ke et al., NeurIPS 2017). Bagging searches exactly,
and for a block of trees at once: their bootstrap samples lie side by
side in one presorted column block, every node of a tree level is a
contiguous run of it, and each level scores the nodes of all the block's
trees in one pass and partitions them with one stable argsort. The search
keeps every node's split, cover and class counts, from which each tree is
renumbered directly. Gini class counts are exact integers, so each tree
equals one grown alone. Either way a node is scored over a (features,
cuts) array of cumulative per-row statistics; ties go to the first
maximal cut of a feature, then to the first feature in column order.

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
    """Flat-array binary tree; node 0 is the root, LEAF marks leaves. A
    grown tree lists its nodes in preorder."""

    feature: np.ndarray = index_field()  # (n_nodes,) split feature, LEAF at leaves
    threshold: np.ndarray                # (n_nodes,) split threshold (x <= t goes left)
    left: np.ndarray = index_field()     # (n_nodes,)
    right: np.ndarray = index_field()    # (n_nodes,)
    value: np.ndarray                    # (n_nodes, n_out) leaf payload (zeros inside)
    cover: np.ndarray                    # (n_nodes,) training rows through the node

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        """A stored tree; per-node arrays of another length than `feature`,
        or an inner node whose children are not later nodes of the tree,
        raise SchemaMismatch, since `_route` would never reach a leaf and
        `expected_value` reads children before parents."""
        tree = super().from_dict(d)
        per_node = (tree.threshold, tree.left, tree.right, tree.value, tree.cover)
        if tree.value.ndim != 2 or any(len(a) != tree.n_nodes for a in per_node):
            raise SchemaMismatch("a tree's per-node arrays must each have one entry per node")
        first = np.minimum(tree.left, tree.right)
        last = np.maximum(tree.left, tree.right)
        inner = tree.feature != LEAF
        if (inner & ((first <= np.arange(tree.n_nodes)) | (last >= tree.n_nodes))).any():
            raise SchemaMismatch("a tree node's child must be a later node of the tree")
        return tree

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


# --- split search -----------------------------------------------------------
#
# A splitter serves every regression tree of one boosting fit. It hands a
# node's rows around as a pair (idx, R): idx lists the rows in ascending
# order, R is the splitter's own state for them. `best_split` scores every
# feature of the node in one pass; `partition` returns the children's pairs.


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


class _Presorted:
    """Exact greedy search over one presort per fit (XGBoost's pre-sorted
    algorithm). R[j] lists the node's rows in ascending X[:, j], ties by
    row index: what a stable argsort of the node's column gives."""

    def __init__(self, X: np.ndarray):
        self.Xt = np.ascontiguousarray(X.T)
        self.order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)

    def root(self):
        return np.arange(self.Xt.shape[1]), self.order

    def best_split(self, rows, g, h, lam, min_leaf):
        """One pass over a node: each feature's sorted values xs (d, n), the
        g and h sums left of a cut after each position (d, n - 1), and the
        valid cuts (a value change, at least min_leaf rows on either side).
        The threshold is the midpoint of the cut's two sorted values."""
        idx, R = rows
        n = len(idx)
        xs = np.take_along_axis(self.Xt, R, axis=1)
        GL = np.cumsum(g[R], axis=1)[:, :-1]
        HL = np.cumsum(h[R], axis=1)[:, :-1]
        valid = xs[:, :-1] < xs[:, 1:]
        if min_leaf > 1:
            pos = np.arange(1, n)
            valid &= (pos >= min_leaf) & (n - pos >= min_leaf)
        gains = _split_gains(GL, HL, g[idx].sum(), h[idx].sum(), lam, valid)
        gain, j, cut = _first_best(gains)
        if j < 0:
            return gain, j, 0.0
        return gain, j, float(0.5 * (xs[j, cut] + xs[j, cut + 1]))

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


def _in_preorder(root, feature, threshold, left, right, value, cover) -> Tree:
    """The tree under node `root` of per-node arrays, renumbered in
    preorder: each node, then its left subtree, then its right. The
    children given for a LEAF node are ignored."""
    order, stack = [], [root]
    while stack:
        i = stack.pop()
        order.append(i)
        if feature[i] != LEAF:
            stack += (right[i], left[i])
    rank = np.empty(len(feature), dtype=np.intp)
    rank[order] = np.arange(len(order))
    feature = np.asarray(feature, dtype=np.intp)[order]
    inner = feature != LEAF
    return Tree(feature, np.asarray(threshold, dtype=np.float64)[order],
                np.where(inner, rank[np.asarray(left)[order]], LEAF),
                np.where(inner, rank[np.asarray(right)[order]], LEAF),
                np.asarray(value, dtype=np.float64)[order],
                np.asarray(cover, dtype=np.float64)[order])


def grow_regression_tree(X, g, h, cfg: TrainConfig,
                         splitter=None) -> tuple[Tree, np.ndarray]:
    """Newton regression tree on (gradient, hessian); returns the tree and
    each training row's fitted leaf value. `splitter` is built from X when
    None; a boosting fit passes one splitter to all of its trees.

    Growth is best-first: the frontier pops the splittable leaf of highest
    gain, ties to the earliest pushed, until none is left or max_leaves
    leaves exist (leaf-wise growth). Level-wise growth caps no leaves and
    splits no node at max_depth."""
    if splitter is None:
        splitter = _splitter(X, cfg)
    lam = cfg.reg_lambda
    min_leaf = cfg.resolved_min_leaf
    max_depth, max_leaves = ((cfg.resolved_max_depth, None) if cfg.growth == "depth"
                             else (None, cfg.max_leaves))
    nodes: list[list] = []   # [feature, threshold, left, right, rows]
    frontier: list = []

    def add(rows, depth) -> int:
        nodes.append([LEAF, 0.0, LEAF, LEAF, rows])
        if (max_depth is None or depth < max_depth) and len(rows[0]) >= 2 * min_leaf:
            gain, j, thr = splitter.best_split(rows, g, h, lam, min_leaf)
            if j >= 0:   # node numbers rise with each push, so they order ties
                heapq.heappush(frontier, (-gain, len(nodes) - 1, rows, j, thr, depth))
        return len(nodes) - 1

    add(splitter.root(), 0)
    # A tree of L leaves has 2L - 1 nodes.
    while frontier and (max_leaves is None or len(nodes) < 2 * max_leaves - 1):
        _, node, rows, j, thr, depth = heapq.heappop(frontier)
        rows_l, rows_r = splitter.partition(rows, j, thr)
        nodes[node][:4] = j, thr, add(rows_l, depth + 1), add(rows_r, depth + 1)

    feature, threshold, left, right, rows = zip(*nodes)
    fitted = np.empty(len(g))
    value = np.zeros((len(nodes), 1))
    for i in np.flatnonzero(np.array(feature) == LEAF):
        idx = rows[i][0]
        fitted[idx] = value[i, 0] = g[idx].sum() / (h[idx].sum() + lam)   # the Newton step
    return _in_preorder(0, feature, threshold, left, right, value,
                        [len(r[0]) for r in rows]), fitted


#: Trees per `_GiniForest` block of a bagging fit. It bounds the fit's
#: peak memory; the trees do not depend on it.
FOREST_CHUNK = 10


def _gini_cuts(Xt, yF, R, lens, counts, min_leaf):
    """`_first_best` Gini split of every node of one forest level. Row f
    of R holds flat indices into Xt for feature f; node i is the i-th run
    of lens[i] positions and has class counts counts[i]. Returns per node
    the gain, local feature and threshold; no gain above MIN_GAIN, no split."""
    F, M = R.shape
    starts = np.cumsum(lens) - lens
    n_pos = np.repeat(lens, lens)
    nl = np.arange(1, M + 1) - np.repeat(starts, lens)   # rows left of each cut
    nr = n_pos - nl                                       # 0 at a node's end
    xs = Xt[R]
    valid = np.zeros((F, M), dtype=bool)
    valid[:, :-1] = xs[:, :-1] < xs[:, 1:]
    valid &= (nl >= min_leaf) & (nr >= min_leaf)
    # A class's count left of each cut is its cumulative sum less the
    # value at the node's start. Counts are exact integers, so every sum of
    # squares equals the per-node search's.
    sq_l = sq_r = 0
    rest = nl.copy()   # the last class's counts, which change in place below
    for k in range(counts.shape[1]):
        if k < counts.shape[1] - 1:
            hit = yF[R] == k
            ck = np.cumsum(hit, axis=1)
            ck -= np.repeat(ck[:, starts] - hit[:, starts], lens, axis=1)
            rest = rest - ck
        else:   # the last class holds the rest of the left rows
            ck = rest
        sq_l = sq_l + ck * ck
        ck -= np.repeat(counts[:, k], lens)
        sq_r = sq_r + ck * ck
    del ck, rest
    parent = np.repeat(1.0 - ((counts / lens[:, None]) ** 2).sum(axis=1), lens)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = parent - (nl / n_pos) * (1.0 - sq_l / nl ** 2)
        del sq_l
        gains -= (nr / n_pos) * (1.0 - sq_r / nr ** 2)
    gains = np.where(valid, gains, -np.inf)
    # Each feature's first maximal cut, then the first feature of greatest
    # gain above MIN_GAIN.
    best = np.maximum.reduceat(gains, starts, axis=1)
    at_best = np.where(gains == np.repeat(best, lens, axis=1), np.arange(M), M)
    cut = np.minimum.reduceat(at_best, starts, axis=1)
    best[best <= MIN_GAIN] = -np.inf
    node = np.arange(len(lens))
    j = np.argmax(best, axis=0)
    c = cut[j, node]
    return best[j, node], j, 0.5 * (xs[j, c] + xs[j, c + 1])


class _GiniForest:
    """The Gini split search of a block of bagging trees, level by level:
    XGBoost's column block (Chen & Guestrin, KDD 2016, section 4.1) laid
    across a forest. Tree t's bootstrap sample X[rows[t]][:, feats[t]]
    fills positions t * n to (t + 1) * n of one (features, trees * n)
    block. Every open node is a run of R in which each feature's positions
    ascend by value, ties by position, as a stable argsort of the node's
    own rows orders them; one stable argsort of child keys per level keeps
    that order. Nodes are numbered level by level and tree t's root is node
    t. Per node the search keeps the cover, the local feature (LEAF at a
    leaf), the threshold, the left child (the right child is the next
    node) and a leaf's class distribution (zeros inside)."""

    def __init__(self, X, y, n_classes: int, rows: np.ndarray, feats: np.ndarray,
                 max_depth: int | None, min_leaf: int):
        T, n = rows.shape
        F, K, N = feats.shape[1], n_classes, rows.size
        Xt = X[rows, feats.T[:, :, None]]   # (F, T, n)
        yb = y[rows].ravel()
        # R holds flat indices into Xt: row f indexes f * N + position, so
        # R[0] holds the positions themselves.
        R = np.argsort(Xt, axis=2, kind="stable").reshape(F, N)
        R += np.repeat(n * np.arange(T), n) + N * np.arange(F)[:, None]
        Xt, yF = Xt.ravel(), np.tile(yb.astype(np.min_scalar_type(K)), F)
        lens = np.full(T, n)
        levels = []   # per level, per node: cover, feature, threshold, left child, class counts
        n_nodes = depth = 0
        while len(lens):
            S = len(lens)
            seg = np.repeat(np.arange(S), lens)
            counts = np.bincount(seg * K + yb[R[0]], minlength=S * K).reshape(S, K)
            # Every node a leaf, until the search below fills in the splits.
            j, thr, child = np.full(S, LEAF), np.zeros(S), np.full(S, LEAF)
            levels.append((lens, j, thr, child, counts))
            n_nodes += S
            search = (counts.max(axis=1) < lens) & (lens >= 2 * min_leaf)
            if not search.any() or (max_depth is not None and depth >= max_depth):
                break
            if not search.all():   # score the searchable nodes only
                R = R.compress(np.repeat(search, lens), axis=1)
                lens, counts = lens[search], counts[search]
            bg, jj, tt = _gini_cuts(Xt, yF, R, lens, counts, min_leaf)
            split = bg > MIN_GAIN
            at = np.flatnonzero(search)[split]
            j[at], thr[at] = jj[split], tt[split]
            child[at] = n_nodes + 2 * np.arange(len(at))
            # Children in node order, each left then right; the nodes that
            # did not split sort last and are dropped.
            left = np.zeros(N, dtype=bool)
            left[R[0]] = Xt[np.repeat(jj * N, lens) + R[0]] <= np.repeat(tt, lens)
            L = np.tile(left, F)[R]
            n_left = np.add.reduceat(L[0], np.cumsum(lens) - lens, dtype=np.intp)[split]
            key = np.where(split, 2 * np.cumsum(split) - 2, 2 * len(at))
            # The smallest dtype that holds the keys sorts fastest.
            key = np.repeat(key.astype(np.min_scalar_type(2 * len(at) + 1)), lens) + ~L
            perm = np.argsort(key, axis=1, kind="stable")[:, :lens[split].sum()]
            R = np.take(R, perm + R.shape[1] * np.arange(F)[:, None])
            lens = np.column_stack([n_left, lens[split] - n_left]).ravel()
            depth += 1
        self.cover, self.feature, self.threshold, self.left, counts = (
            np.concatenate(column) for column in zip(*levels))
        inner = self.feature != LEAF
        self.value = np.where(inner[:, None], 0.0, counts / self.cover[:, None])


def grow_gini_tree(forest: _GiniForest, t: int, features: np.ndarray) -> Tree:
    """Tree t of a `_GiniForest` search, read off it in preorder; leaves
    hold class distributions. `features`, the tree's feature subset, maps
    the search's local feature indices back to data columns."""
    tree = _in_preorder(t, forest.feature, forest.threshold, forest.left,
                        forest.left + 1, forest.value, forest.cover)
    inner = tree.feature != LEAF
    tree.feature[inner] = features[tree.feature[inner]]
    return tree


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
    #: explain's path and pattern tables and base values, built on the first
    #: tree_shap call
    shap_paths: object = field(default=None, init=False, repr=False, compare=False)

    kind = "tree_ensemble"

    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsembleModel":
        """A stored ensemble; an inner node whose feature is not a column
        of feature_names, a tree whose leaves do not hold one value per
        class (bagging) or one score (boosting), a base_score without one
        finite entry per class, or a boosting tree_class without one class index
        per tree raises SchemaMismatch."""
        model = super().from_dict(d)
        K = len(model.classes)
        if model.base_score.shape != (K,) or not np.isfinite(model.base_score).all():
            raise SchemaMismatch(f"base_score must hold one finite number per class ({K})")
        if model.mode == "boosting" and not (
                len(model.tree_class) == len(model.trees)
                and all(type(k) is int and 0 <= k < K for k in model.tree_class)):
            raise SchemaMismatch(f"tree_class must hold one class index in [0, {K}) per tree")
        n_out = 1 if model.mode == "boosting" else K
        if any(t.n_out != n_out for t in model.trees):
            raise SchemaMismatch(f"a {model.mode} tree's value must have {n_out} columns")
        used = np.concatenate([[LEAF]] + [t.feature for t in model.trees])
        if used.min() < LEAF or used.max() >= len(model.feature_names):
            raise SchemaMismatch("a tree node's feature must index feature_names")
        return model

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
        depth, min_leaf = cfg.resolved_max_depth, cfg.resolved_min_leaf
        trees = []
        for first in range(0, cfg.resolved_trees, FOREST_CHUNK):
            draws = []
            for t in range(first, min(first + FOREST_CHUNK, cfg.resolved_trees)):
                rng = np.random.default_rng([cfg.seed, t])
                draws.append((rng.integers(0, n, n),   # the rows, then the features
                              np.sort(rng.choice(d, size=n_sub, replace=False))))
            rows, feats = (np.array(a) for a in zip(*draws))
            forest = _GiniForest(X, y, K, rows, feats, depth, min_leaf)
            trees += [grow_gini_tree(forest, i, f) for i, f in enumerate(feats)]
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
