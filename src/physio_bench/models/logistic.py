"""Multinomial logistic regression: the linear baseline.

Full-batch gradient descent on the L2-regularized cross-entropy with
Armijo backtracking, so the loss never increases across accepted steps.
Converges when the gradient infinity-norm drops below 1e-6, capped at
5000 iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteLoss
from .base import (
    ColumnStats,
    DataMatrix,
    Model,
    TrainConfig,
    class_order,
    encode_labels,
    require_multiclass,
    softmax,
)

GRAD_TOL = 1e-6
MAX_ITER = 5000


@dataclass
class LogisticModel(Model):
    classes: list[str]
    weights: np.ndarray          # (K, d), on the standardized scale
    bias: np.ndarray             # (K,)
    stats: ColumnStats
    feature_names: list[str]

    kind = "logistic"

    def margins(self, X: np.ndarray) -> np.ndarray:
        Z = self.stats.transform(self._rows(X))
        return Z @ self.weights.T + self.bias

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.margins(X))


def _loss_grad(Z: np.ndarray, Y: np.ndarray, W: np.ndarray, b: np.ndarray,
               l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    n = Z.shape[0]
    P = softmax(Z @ W.T + b)
    eps = 1e-15
    ce = -np.mean(np.log(np.clip((P * Y).sum(axis=1), eps, None)))
    loss = ce + 0.5 * l2 * float((W * W).sum()) / n
    R = P - Y
    gW = R.T @ Z / n + l2 * W / n
    gb = R.mean(axis=0)
    return loss, gW, gb


def train_logistic(data: DataMatrix, cfg: TrainConfig) -> LogisticModel:
    classes = class_order(data.labels)
    require_multiclass(classes)
    y = encode_labels(data.labels, classes)
    stats = ColumnStats.fit(data.X)
    Z = stats.transform(data.X)
    n, d = Z.shape
    K = len(classes)
    Y = np.zeros((n, K))
    Y[np.arange(n), y] = 1.0

    W = np.zeros((K, d))
    b = np.zeros(K)
    loss, gW, gb = _loss_grad(Z, Y, W, b, cfg.l2)
    step = 1.0
    for _ in range(MAX_ITER):
        if not np.isfinite(loss):
            raise NonFiniteLoss("logistic loss became non-finite")
        gnorm = max(np.abs(gW).max(), np.abs(gb).max())
        if gnorm < GRAD_TOL:
            break
        # Armijo backtracking on the full-batch objective.
        g_sq = float((gW * gW).sum() + (gb * gb).sum())
        accepted = False
        while step >= 1e-12:
            W_new = W - step * gW
            b_new = b - step * gb
            new_loss, gW_new, gb_new = _loss_grad(Z, Y, W_new, b_new, cfg.l2)
            if new_loss <= loss - 1e-4 * step * g_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # no descent step exists at float precision
        W, b, loss, gW, gb = W_new, b_new, new_loss, gW_new, gb_new
        step = min(step * 1.5, 1e4)

    return LogisticModel(classes, W, b, stats, list(data.feature_names))
