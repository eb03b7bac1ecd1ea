"""Exact SHAP attributions for tree ensembles and linear models.

Tree attributions use the exact path-dependent algorithm (Lundberg et al.,
Nature MI 2020); conditional expectations come from per-node training
covers recorded at fit time. A model is decomposed once into a path table,
as in GPUTreeShap (Mitchell et al., arXiv:2010.13972):

- it holds every root-to-leaf path of every tree, grouped by the path's
  count of distinct split features;
- a feature split more than once on a path is one element: the product of
  its cover ratios is the zero fraction, its thresholds give lo < x <= hi;
- each path carries its leaf payload, scaled to the ensemble margin and
  placed in its class column.

Explaining a row tests every element's interval at once for the one
fractions. A path's EXTEND/UNWOUND_SUM weights depend on the row only
through those 0/1 one fractions, so a path of L elements has just 2^L
possible weight vectors (Fast TreeSHAP v2, Yang, arXiv:2109.09847):

- each group of paths no longer than TABLE_MAX_LEN gets a pattern table of
  all of them, built with the path table; a row looks each path's weights
  up by its pattern, sum(one_l << l);
- the cap keeps a table at most 16 entries per element. Leaf-wise trees
  have paths of ten and more features, whose 2^L tables would cost more
  memory than they save time; such a group runs the bookkeeping directly
  on each row's one fractions, vectorised over its paths.

Both ways evaluate the same elementwise operations on the same operands,
so a table entry is bit-equal to the direct weight. Each class's phi is
then one bincount of weight * payload per feature, in path order from 0.0.

Boosting ensembles are explained on the per-class log-odds margin, bagging
ensembles on the averaged probability margin; either way the
local-accuracy identity sum(phi) + base = margin(x) holds to float
precision.

Linear models get the closed form phi_i = w_i (z_i - background_i) on the
standardized scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaMismatch
from .models.logistic import LogisticModel
from .models.trees import LEAF, Tree, TreeEnsembleModel


@dataclass
class Attribution:
    """Per-feature contributions for one explained input."""

    classes: list[str]
    feature_names: list[str]
    phi: np.ndarray           # (K, d)
    base_values: np.ndarray   # (K,)
    x: np.ndarray             # (d,) imputed feature values
    subject_id: str | None = None
    window_start: float | None = None

    def margin(self) -> np.ndarray:
        return self.phi.sum(axis=1) + self.base_values


# --- path table -------------------------------------------------------------------

#: Longest path that gets a pattern table. A path of L elements has 2^L
#: one-patterns, so its table holds 2^L entries per element: at most 16
#: (128 bytes) here. Longer paths are weighted on each row's own pattern.
TABLE_MAX_LEN = 4

#: Table entries built in one `_path_weights` call. The kernel keeps about
#: a dozen temporaries of this size, so 2^12 entries hold them near 0.4 MB.
BUILD_BLOCK = 1 << 12


@dataclass
class _PathGroup:
    """The P paths with L distinct split features."""

    zero: np.ndarray              # (P, L) product of each element's cover ratios
    patterns: np.ndarray | None   # (P * 2^L, L) w * (one - z) of path p under
                                  # one-pattern b in row p * 2^L + b; or None


@dataclass
class _PathTable:
    """Every root-to-leaf path of an ensemble, flattened in the order of
    its groups (by length), their paths and the paths' elements. A path
    follows x iff lo < x[feature] <= hi for all of its elements."""

    feature: np.ndarray   # (E,) intp
    lo: np.ndarray        # (E,)
    hi: np.ndarray        # (E,)
    value: np.ndarray     # (K, E) scaled leaf payload of the element's path
    groups: list[_PathGroup]


def _leaf_states(trees: list[Tree]):
    """(zero, lo, hi, last, node) for every leaf of the trees, in path
    order: tree by tree, each tree's leaves in preorder (left subtree
    first). The first four are (leaves, d) arrays giving, per feature, the
    zero fraction (product of the path's cover ratios), the interval
    lo < x <= hi and the depth of the feature's last split on the path
    (-1: none); node is the leaf's index in the trees' concatenated nodes.
    All trees are walked at once, one depth at a time."""
    sizes = [t.n_nodes for t in trees]
    roots = np.cumsum([0] + sizes)[:-1]
    feature, threshold, cover, left, right = (
        np.concatenate([np.zeros(0, np.intp)] + [getattr(t, name) for t in trees])
        for name in ("feature", "threshold", "cover", "left", "right"))
    left += np.repeat(roots, sizes)
    right += np.repeat(roots, sizes)
    d = int(feature.max(initial=LEAF)) + 1
    # Bottom up, the number of leaves under each inner node; top down, the
    # path-order index of the first leaf under each node.
    levels, nodes = [], roots
    while len(nodes):
        nodes = nodes[feature[nodes] != LEAF]
        levels.append(nodes)
        nodes = np.concatenate([left[nodes], right[nodes]])
    n_leaves = (feature == LEAF).astype(np.intp)
    for p in reversed(levels):
        n_leaves[p] = n_leaves[left[p]] + n_leaves[right[p]]
    nodes = roots
    first = np.cumsum(n_leaves[nodes]) - n_leaves[nodes]
    n = int(n_leaves[nodes].sum())
    out = (np.empty((n, d)), np.empty((n, d)), np.empty((n, d)),
           np.empty((n, d), np.intp), np.empty(n, np.intp))
    state = (np.ones((len(nodes), d)), np.full((len(nodes), d), -np.inf),
             np.full((len(nodes), d), np.inf), np.full((len(nodes), d), -1, np.intp))
    depth = 0
    while len(nodes):
        leaf = feature[nodes] == LEAF
        for dst, src in zip(out, (*state, nodes)):
            dst[first[leaf]] = src[leaf]
        p = nodes[~leaf]
        nodes = np.concatenate([left[p], right[p]])
        first = np.concatenate([first[~leaf], first[~leaf] + n_leaves[left[p]]])
        zero, lo, hi, last = (np.concatenate([a[~leaf]] * 2) for a in state)
        # Left children come first. Each child updates its parent's split
        # feature f: the zero fraction takes the child's cover ratio, and the
        # left child's hi becomes min(hi, t), the right child's lo max(lo, t).
        f, t = feature[p], threshold[p]
        rows, k = np.arange(len(nodes)), np.arange(len(p))
        zero[rows, np.tile(f, 2)] *= cover[nodes] / np.tile(cover[p], 2)
        hi[k, f] = np.where(t < hi[k, f], t, hi[k, f])
        lo[k + len(p), f] = np.where(t > lo[k + len(p), f], t, lo[k + len(p), f])
        last[rows, np.tile(f, 2)] = depth
        state = zero, lo, hi, last
        depth += 1
    return out


def _path_weights(one: np.ndarray, z: np.ndarray) -> np.ndarray:
    """w * (one - z) for every element of (P, L) paths with one fractions
    `one` (0 or 1) and zero fractions `z`: EXTEND over each path's
    elements, then UNWOUND_SUM for every element, both vectorised over the
    path axis. Every operation is elementwise along that axis, so a path's
    weights do not depend on which other paths share the call."""
    P, L = one.shape
    pw = np.zeros((P, L + 1))
    pw[:, 0] = 1.0
    for l in range(1, L + 1):
        i = np.arange(l)
        old = pw[:, :l]
        up = one[:, l - 1, None] * old * (i + 1) / (l + 1)
        pw[:, :l] = z[:, l - 1, None] * old * (l - i) / (l + 1)
        pw[:, 1:l + 1] += up
    # One fractions are 0 or 1, so the o != 0 branch divides by o = 1.
    nxt = pw[:, L, None]
    total_hot = np.zeros((P, L))
    total_cold = np.zeros((P, L))
    for j in range(L - 1, -1, -1):
        pj = pw[:, j, None]
        tmp = nxt / (j + 1)
        total_hot += tmp
        nxt = pj - tmp * z * (L - j)
        total_cold += pj / (z * (L - j))
    w = np.where(one != 0, total_hot, total_cold) * (L + 1)
    return w * (one - z)


def _pattern_table(zero: np.ndarray) -> np.ndarray:
    """`_path_weights` of (P, L) paths under each of their 2^L one-patterns,
    shape (P * 2^L, L); pattern b has one_l = bit l of b. Paths go through
    in blocks of at most BUILD_BLOCK entries."""
    P, L = zero.shape
    n = 1 << L
    bits = ((np.arange(n)[:, None] >> np.arange(L)) & 1).astype(np.float64)
    out = np.empty((P * n, L))
    step = max(1, BUILD_BLOCK // (n * L))
    for s in range(0, P, step):
        z = zero[s:s + step]
        out[s * n:(s + step) * n] = _path_weights(np.tile(bits, (len(z), 1)),
                                                  np.repeat(z, n, axis=0))
    return out


def _path_table(trees: list[Tree], payloads: list[np.ndarray], K: int) -> _PathTable:
    """Paths of all trees grouped by length, each group no longer than
    TABLE_MAX_LEN with its pattern table. payloads[t] is tree t's
    (n_nodes, K) leaf payload; leaf-only trees attribute nothing. A
    path's elements are its split features in the order of their last
    split."""
    zero, lo, hi, last, leaf = _leaf_states(trees)
    value = np.concatenate([np.zeros((0, K))] + payloads)[leaf]
    n_split = (last >= 0).sum(axis=1)
    order = np.argsort(last, axis=1)
    d = last.shape[1]
    elems, values = [], []
    for L in np.unique(n_split[n_split > 0]).tolist():
        sel = n_split == L
        cols = order[sel, d - L:]
        elems.append([cols] + [np.take_along_axis(a[sel], cols, 1) for a in (zero, lo, hi)])
        values.append(np.repeat(value[sel].T, L, axis=1))
    feature, zero, lo, hi = (np.concatenate([np.zeros(0)] + [e[i].ravel() for e in elems])
                             for i in range(4))
    groups = [_PathGroup(e[1], _pattern_table(e[1]) if e[1].shape[1] <= TABLE_MAX_LEN else None)
              for e in elems]
    return _PathTable(feature.astype(np.intp), lo, hi,
                      np.concatenate([np.zeros((K, 0))] + values, axis=1), groups)


def _shap_paths(t: _PathTable, x: np.ndarray, d: int) -> np.ndarray:
    """Shapley values (d, K) of x. One interval test gives every element's
    one fraction. A group with a pattern table looks each path's weights
    up by its pattern, sum(one_l << l); a longer group runs
    `_path_weights` on them. Each class then sums weight * payload per
    feature in element order, from 0.0."""
    # -inf routes left of every threshold; the largest float does the same
    # and still lies inside an unbounded lo = -inf.
    x = np.maximum(x, -np.finfo(np.float64).max)
    xv = x[t.feature]
    one = (t.lo < xv) & (xv <= t.hi)
    c = np.empty(len(one))
    s = 0
    for g in t.groups:
        P, L = g.zero.shape
        one_g = one[s:s + P * L].reshape(P, L)
        out = c[s:s + P * L].reshape(P, L)
        if g.patterns is None:
            out[:] = _path_weights(one_g.astype(np.float64), g.zero)
        else:
            rows = (np.arange(P) << L) + (one_g @ 2.0 ** np.arange(L)).astype(np.intp)
            np.take(g.patterns, rows, axis=0, out=out)
        s += P * L
    K = t.value.shape[0]
    phi = np.empty((d, K))
    for k in range(K):
        phi[:, k] = np.bincount(t.feature, weights=c * t.value[k], minlength=d)
    return phi


def _model_paths(model: TreeEnsembleModel):
    """The model's path table and base values, built once and cached."""
    if model.shap_paths is None:
        K = len(model.classes)
        base = np.array(model.base_score, dtype=np.float64)
        if model.mode == "boosting":
            payloads = []
            for tree, k in zip(model.trees, model.tree_class):
                payload = np.zeros((tree.n_nodes, K))
                payload[:, k] = model.learning_rate * tree.value[:, 0]
                payloads.append(payload)
                base[k] += model.learning_rate * float(tree.expected_value()[0])
        else:
            B = max(1, len(model.trees))
            payloads = [tree.value / B for tree in model.trees]
            for tree in model.trees:
                base += tree.expected_value() / B
        model.shap_paths = (_path_table(model.trees, payloads, K), base)
    return model.shap_paths


def shap_single_tree(tree: Tree, x: np.ndarray, n_features: int) -> np.ndarray:
    """Exact path-dependent Shapley values of one tree, shape (d, n_out)."""
    x = np.asarray(x, dtype=np.float64)
    return _shap_paths(_path_table([tree], [tree.value], tree.n_out), x, n_features)


def tree_shap(model: TreeEnsembleModel, x: np.ndarray,
              subject_id: str | None = None,
              window_start: float | None = None) -> Attribution:
    """Exact attributions of the ensemble's margin, over its path table."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    d = len(model.feature_names)
    if x.shape[0] != d:
        raise SchemaMismatch(f"expected {d} features, got {x.shape[0]}")
    xi = model.stats.impute_only(x[None, :])[0]
    paths, base = _model_paths(model)
    phi = _shap_paths(paths, xi, d).T
    return Attribution(list(model.classes), list(model.feature_names), phi,
                       base.copy(), xi, subject_id, window_start)


def linear_shap(model: LogisticModel, x: np.ndarray,
                background_means: np.ndarray | None = None,
                subject_id: str | None = None,
                window_start: float | None = None) -> Attribution:
    """Closed-form linear attributions on the standardized margin.

    The default background is the training column means, which standardize
    to the zero vector, so the base value is the bias row.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    d = len(model.feature_names)
    if x.shape[0] != d:
        raise SchemaMismatch(f"expected {d} features, got {x.shape[0]}")
    z = model.stats.transform(x[None, :])[0]
    if background_means is None:
        zb = np.zeros(d)
    else:
        background_means = np.asarray(background_means, dtype=np.float64).reshape(-1)
        if background_means.shape[0] != d:
            raise SchemaMismatch("background means length mismatch")
        zb = model.stats.transform(background_means[None, :])[0]
    phi = model.weights * (z - zb)[None, :]
    base = model.weights @ zb + model.bias
    xi = model.stats.impute_only(x[None, :])[0]
    return Attribution(list(model.classes), list(model.feature_names), phi, base,
                       xi, subject_id, window_start)


def check_explainable(model) -> None:
    """ConfigError unless `model` is a tree ensemble or the linear model."""
    if not isinstance(model, (TreeEnsembleModel, LogisticModel)):
        raise ConfigError(
            f"SHAP explanations support tree ensembles and the linear model, "
            f"not {model.kind!r}"
        )


def explain_input(model, x: np.ndarray, **kw) -> Attribution:
    """Dispatch to the exact explainer for the model kind."""
    check_explainable(model)
    return (tree_shap if isinstance(model, TreeEnsembleModel) else linear_shap)(model, x, **kw)


# --- aggregation ------------------------------------------------------------------


def global_importance(attributions: list[Attribution]) -> list[tuple[str, float]]:
    """Mean |phi| per feature (summed over classes), ranked descending;
    ties keep schema order."""
    if not attributions:
        raise SchemaMismatch("need at least one attribution")
    names = attributions[0].feature_names
    score = np.zeros(len(names))
    for att in attributions:
        score += np.abs(att.phi).sum(axis=0)
    score /= len(attributions)
    order = np.argsort(-score, kind="stable")
    return [(names[i], float(score[i])) for i in order]


def class_summary(attributions: list[Attribution],
                  labels: list[str]) -> dict[str, list[dict]]:
    """Per-class aggregation backing beeswarm-style exports.

    For each class: that class's phi over its own windows, with the mean
    phi, mean |phi|, and the Pearson correlation between feature value and
    phi per feature. A label that is not a class of the model raises
    SchemaMismatch.
    """
    if len(attributions) != len(labels):
        raise SchemaMismatch("labels must align with attributions")
    names = attributions[0].feature_names
    classes = attributions[0].classes
    out: dict[str, list[dict]] = {}
    for cls in sorted(set(str(v) for v in labels)):
        if cls not in classes:
            raise SchemaMismatch(f"label {cls!r} is not a class of the model: {classes}")
        rows = [a for a, l in zip(attributions, labels) if str(l) == cls]
        ci = classes.index(cls)
        phi = np.array([a.phi[ci] for a in rows])
        vals = np.array([a.x for a in rows])
        table = []
        for j, name in enumerate(names):
            table.append({
                "feature": name,
                "mean_shap": float(phi[:, j].mean()),
                "mean_abs_shap": float(np.abs(phi[:, j]).mean()),
                "value_shap_corr": _pearson(vals[:, j], phi[:, j]),
            })
        out[cls] = table
    return out


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if len(x) < 2:
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return 0.0
    return float((xc * yc).sum() / denom)
