"""Multinomial logistic regression: the linear baseline.

A damped Newton method on the L2-regularized cross-entropy. Each step
solves H s = -g, where H is the multinomial cross-entropy Hessian over
the standardized rows with an intercept column, plus l2 / n on the
weights. The loss is flat along b + c * 1, so H is singular in that one
direction; the minimum-norm least-squares solution keeps the step, and
so the bias, orthogonal to it: the bias stays centred. Armijo
backtracking from the full step keeps the loss from increasing across
accepted steps. The fit converges when the gradient infinity-norm drops
below 1e-8, stops when no step along the Newton direction descends at
float precision, and is capped at 5000 steps. Near the optimum each step
about squares the gradient, so the study cohorts need 3 to 8 steps, and
a stop at 1e-8 rather than 1e-6 costs at most one more."""

from __future__ import annotations

import logging
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

GRAD_TOL = 1e-8
MAX_ITER = 5000
ARMIJO = 1e-4   # sufficient-decrease constant of the line search

log = logging.getLogger(__name__)


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


def _hessian(Z1: np.ndarray, P: np.ndarray, l2: float) -> np.ndarray:
    """The (K(d+1), K(d+1)) Hessian of the loss in [W, b] at row
    probabilities P: block (k, l) is Z1' diag(P_k (delta_kl - P_l)) Z1 / n
    over Z1 = [Z, 1], plus l2 / n on the diagonal of the weights."""
    n, m = Z1.shape
    K = P.shape[1]
    H = np.empty((K, m, K, m))
    for k in range(K):
        for l in range(k, K):
            w = P[:, k] * ((k == l) - P[:, l])
            H[k, :, l] = H[l, :, k] = (Z1.T * w) @ Z1 / n
    H = H.reshape(K * m, K * m)
    weights = np.flatnonzero(np.arange(K * m) % m < m - 1)
    H[weights, weights] += l2 / n
    return H


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
    Z1 = np.column_stack([Z, np.ones(n)])

    W = np.zeros((K, d))
    b = np.zeros(K)
    loss, gW, gb = _loss_grad(Z, Y, W, b, cfg.l2)
    calls, reason = 1, "MAX_ITER"
    for steps in range(MAX_ITER + 1):
        if not np.isfinite(loss):
            raise NonFiniteLoss("logistic loss became non-finite")
        gnorm = max(np.abs(gW).max(), np.abs(gb).max())
        if gnorm < GRAD_TOL:
            reason = "converged"
            break
        if steps == MAX_ITER:
            break
        g = np.column_stack([gW, gb]).ravel()
        H = _hessian(Z1, softmax(Z @ W.T + b), cfg.l2)
        # Minimum norm: no step along the flat direction b + c * 1.
        s = np.linalg.lstsq(H, -g, rcond=None)[0].reshape(K, d + 1)
        slope = float(g @ s.ravel())
        # Armijo backtracking from the full Newton step.
        t = 1.0
        while slope < 0 and t >= 1e-12:
            W_new, b_new = W + t * s[:, :d], b + t * s[:, d]
            new_loss, gW_new, gb_new = _loss_grad(Z, Y, W_new, b_new, cfg.l2)
            calls += 1
            if new_loss <= loss + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            reason = "no descent step"   # exists at float precision
            break
        W, b, loss, gW, gb = W_new, b_new, new_loss, gW_new, gb_new
    log.debug("logistic fit: %d rows, %d Newton steps, %d _loss_grad calls, "
              "gradient %.2e, %s", n, steps, calls, gnorm, reason)
    return LogisticModel(classes, W, b, stats, list(data.feature_names))
