"""Shared model infrastructure: data matrices, column statistics, configs,
the model.json codec and the base of the five model kinds.

Every trainer fits its imputation and standardization statistics on the
training rows only and freezes them into the model, so prediction never
sees test-set column statistics.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from ..errors import ConfigError, SchemaMismatch, SingleClass
from ..features import FeatureTable


@dataclass
class DataMatrix:
    """Feature rows with labels and subject groups, ready for training."""

    X: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[0] < 1:
            raise SchemaMismatch("X must be a non-empty 2-D matrix")
        if self.X.shape[1] != len(self.feature_names):
            raise SchemaMismatch("feature_names length must match X columns")
        if len(self.labels) != self.X.shape[0] or len(self.groups) != self.X.shape[0]:
            raise SchemaMismatch("labels/groups must match the number of rows")
        self.labels = np.asarray(self.labels, dtype=object)
        self.groups = np.asarray(self.groups, dtype=object)
        if np.isinf(self.X).any():
            raise SchemaMismatch("infinite feature values are not allowed")

    @classmethod
    def from_table(cls, table: FeatureTable) -> "DataMatrix":
        return cls(table.X.copy(), table.labels.copy(), table.subjects.copy(),
                   list(table.schema.names))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, mask: np.ndarray) -> "DataMatrix":
        return DataMatrix(self.X[mask], self.labels[mask], self.groups[mask],
                          list(self.feature_names))

    def select_columns(self, names: list[str]) -> "DataMatrix":
        cols = [self.feature_names.index(n) for n in names]
        return DataMatrix(self.X[:, cols], self.labels, self.groups, list(names))

    def rows_for_subjects(self, subjects) -> np.ndarray:
        wanted = set(subjects)
        return np.array([g in wanted for g in self.groups])


def class_order(labels: np.ndarray) -> list[str]:
    """Deterministic class ordering: lexicographic over string labels."""
    return sorted({str(v) for v in labels})


def encode_labels(labels: np.ndarray, classes: list[str]) -> np.ndarray:
    index = {c: i for i, c in enumerate(classes)}
    try:
        return np.array([index[str(v)] for v in labels], dtype=np.intp)
    except KeyError as e:
        raise SchemaMismatch(f"label {e} not in class order {classes}") from None


def require_multiclass(classes: list[str]) -> None:
    if len(classes) < 2:
        raise SingleClass(f"need >= 2 classes, got {classes}")


def index_field():
    """A dataclass field holding an index array, loaded back as np.intp."""
    return field(metadata={"dtype": np.intp})


def _is_codec(t) -> bool:
    return isinstance(t, type) and issubclass(t, Codec)


@functools.cache
def _layout(cls) -> tuple:
    """(name, encode, decode) of each init field of a Codec dataclass,
    resolved from its type hints once per class."""
    hints = typing.get_type_hints(cls)
    layout = []
    for f in fields(cls):
        if not f.init:
            continue
        t = hints[f.name]
        item = typing.get_args(t)[0] if typing.get_origin(t) is list else None
        if t is np.ndarray:
            dtype = f.metadata.get("dtype", np.float64)
            codec = np.ndarray.tolist, functools.partial(np.array, dtype=dtype)
        elif _is_codec(t):
            codec = t.to_dict, t.from_dict
        elif _is_codec(item):
            codec = (lambda v: [x.to_dict() for x in v],
                     lambda v, item=item: [item.from_dict(x) for x in v])
        else:
            codec = (lambda v: v), typing.get_origin(t) or t
        layout.append((f.name, *codec))
    return tuple(layout)


class Codec:
    """The model.json codec of a dataclass: one key per init field. Arrays
    are nested lists, loaded back as float64 unless the field's metadata
    names a dtype; nested Codec dataclasses use their own codec."""

    def to_dict(self) -> dict:
        return {name: encode(getattr(self, name))
                for name, encode, _ in _layout(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**{name: decode(d[name]) for name, _, decode in _layout(cls)})


@dataclass(frozen=True)
class ColumnStats(Codec):
    """Imputation means and standardization moments fit on training rows."""

    impute: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "ColumnStats":
        """Raises SchemaMismatch for a finite column whose mean or spread
        overflows float64, which would standardize it to all zeros."""
        with np.errstate(invalid="ignore", over="ignore"):
            impute = np.nanmean(X, axis=0)
            impute = np.where(np.isnan(impute), 0.0, impute)
            filled = cls._fill(X, impute)
            mean = filled.mean(axis=0)
            std = filled.std(axis=0)
        bad = ~(np.isfinite(mean) & np.isfinite(std))
        if bad.any():
            raise SchemaMismatch(f"feature column {int(np.argmax(bad))} overflows "
                                 "float64: its mean or spread is not finite")
        std = np.where(std > 0, std, 1.0)
        return cls(impute, mean, std)

    @staticmethod
    def _fill(X: np.ndarray, impute: np.ndarray) -> np.ndarray:
        if np.isnan(X).any():
            X = np.where(np.isnan(X), impute, X)
        return X

    def impute_only(self, X: np.ndarray) -> np.ndarray:
        return self._fill(np.asarray(X, dtype=np.float64), self.impute)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (self.impute_only(X) - self.mean) / self.std


class Model(Codec):
    """Base of the five model kinds. Each subclass is a dataclass with
    `classes` and `feature_names` fields and a `kind` class attribute, and
    defines `predict_proba`, or `predict_scores` when it has no
    probabilities (the SVM). There is no base `predict_proba`:
    `models.predict_proba` tells the score-only SVM apart by its absence."""

    def to_dict(self) -> dict:
        return {**super().to_dict(), "kind": self.kind}

    def _rows(self, X: np.ndarray) -> np.ndarray:
        """X as float64 rows, with exactly one column per feature."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != len(self.feature_names):
            raise SchemaMismatch(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}"
            )
        return X

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X)

    def predict_class(self, X: np.ndarray) -> np.ndarray:
        return argmax_class(self.predict_scores(X), self.classes)


@dataclass
class TrainConfig:
    """Model kind plus hyperparameters; unset tree counts fall back to
    per-kind defaults (boosting 200 rounds, bagging 300 trees)."""

    kind: str = "boosting"
    n_trees: int | None = None
    learning_rate: float = 0.1
    max_depth: int | None = None   # None: 3 for boosting, unlimited for bagging
    max_leaves: int = 31
    growth: str = "depth"       # "depth" (level-wise) or "leaf" (leaf-wise)
    splits: str = "exact"       # "exact" or "hist"
    n_bins: int = 64
    reg_lambda: float = 1.0
    min_samples_leaf: int | None = None
    knn_k: int = 5
    svm_c: float = 1.0
    svm_sigma: float | None = None
    l2: float = 1.0
    seed: int = 0
    cv_folds: int = 5
    grid: dict[str, list] | None = None

    KINDS = ("logistic", "knn", "bagging", "boosting", "svm")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; choose from {self.KINDS}")
        if self.growth not in ("depth", "leaf"):
            raise ConfigError("growth must be 'depth' or 'leaf'")
        if self.splits not in ("exact", "hist"):
            raise ConfigError("splits must be 'exact' or 'hist'")
        # `not x > 0` also rejects NaN, which every comparison fails.
        for name in ("learning_rate", "reg_lambda", "svm_c", "l2"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.svm_sigma is not None and not self.svm_sigma > 0:
            raise ConfigError("svm_sigma must be positive")
        # Zero boosting rounds is the prior-only model; a forest needs a tree.
        # Below its least, a tree size would act as another value.
        for name, least in (("n_trees", 1 if self.kind == "bagging" else 0),
                            ("max_depth", 0), ("max_leaves", 1),
                            ("min_samples_leaf", 1), ("n_bins", 2)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}")

    @property
    def resolved_trees(self) -> int:
        if self.n_trees is not None:
            return self.n_trees
        return 300 if self.kind == "bagging" else 200

    @property
    def resolved_min_leaf(self) -> int:
        if self.min_samples_leaf is not None:
            return self.min_samples_leaf
        return 2 if self.kind == "bagging" else 1

    @property
    def resolved_max_depth(self) -> int | None:
        if self.max_depth is not None:
            return self.max_depth
        return None if self.kind == "bagging" else 3

    def replace(self, **kw) -> "TrainConfig":
        d = asdict(self)
        d.update(kw)
        return TrainConfig(**d)

    def to_dict(self) -> dict:
        return asdict(self)


def softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def argmax_class(probs: np.ndarray, classes: list[str]) -> np.ndarray:
    """Highest-probability class per row, smallest class index on ties."""
    idx = np.argmax(probs, axis=1)
    return np.array([classes[i] for i in idx], dtype=object)


#: Elements of the (rows, m, d) difference array of one block of
#: `sq_dists`. It bounds the temporary; the distances do not depend on it.
BLOCK_ELEMS = 1 << 18


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every row of A to every row of B,
    in blocks of A's rows. Each entry is the sum of one contiguous row of
    squared differences, the same reduction whatever the block size."""
    m, d = B.shape
    step = max(1, BLOCK_ELEMS // max(1, m * d))
    d2 = np.empty((A.shape[0], m))
    for i in range(0, A.shape[0], step):
        d2[i:i + step] = ((A[i:i + step, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return d2
