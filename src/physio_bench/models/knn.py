"""k-nearest-neighbors on standardized columns.

Majority vote over the k closest training rows by Euclidean distance;
ties break first by the smaller mean distance of the tied classes'
neighbors, then by the smaller class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KTooLarge
from .base import (
    ColumnStats,
    DataMatrix,
    Model,
    TrainConfig,
    class_order,
    encode_labels,
    index_field,
    require_multiclass,
    sq_dists,
)


@dataclass
class KnnModel(Model):
    classes: list[str]
    k: int
    points: np.ndarray            # standardized training rows
    point_classes: np.ndarray = index_field()   # class indices
    stats: ColumnStats
    feature_names: list[str]

    kind = "knn"

    def _neighbors(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Z = self.stats.transform(self._rows(X))
        d2 = sq_dists(Z, self.points)
        order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        dist = np.sqrt(np.take_along_axis(d2, order, axis=1))
        return order, dist

    def _votes(self, order: np.ndarray) -> np.ndarray:
        """Neighbour count of each class per row, ``(rows, K)``."""
        nbr_classes = self.point_classes[order]
        return (nbr_classes[:, :, None] == np.arange(len(self.classes))).sum(axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Vote fractions among the k neighbors."""
        order, _ = self._neighbors(X)
        return self._votes(order) / self.k

    # Defined here although Model has the same: perfbench/tracing.py wraps
    # the k-NN predict methods through the class's own __dict__.
    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X)

    def predict_class(self, X: np.ndarray, with_scores: bool = False):
        """Majority class per row. With ``with_scores``, returns
        ``(labels, vote fractions)`` from the same neighbour search."""
        order, dist = self._neighbors(X)
        votes = self._votes(order)
        labels = np.empty(order.shape[0], dtype=object)
        for i in range(order.shape[0]):
            tied = np.flatnonzero(votes[i] == votes[i].max())
            if len(tied) == 1:
                labels[i] = self.classes[tied[0]]
                continue
            nbr_classes = self.point_classes[order[i]]
            mean_dist = np.array(
                [dist[i][nbr_classes == c].mean() for c in tied]
            )
            # Smaller mean distance wins; argmin takes the smaller class
            # index on exact ties.
            labels[i] = self.classes[tied[int(np.argmin(mean_dist))]]
        if with_scores:
            return labels, votes / self.k
        return labels


def train_knn(data: DataMatrix, cfg: TrainConfig) -> KnnModel:
    classes = class_order(data.labels)
    require_multiclass(classes)
    if cfg.knn_k > data.n:
        raise KTooLarge(f"k={cfg.knn_k} exceeds {data.n} training rows")
    if cfg.knn_k < 1:
        raise KTooLarge("k must be >= 1")
    y = encode_labels(data.labels, classes)
    stats = ColumnStats.fit(data.X)
    return KnnModel(classes, cfg.knn_k, stats.transform(data.X), y, stats,
                    list(data.feature_names))
