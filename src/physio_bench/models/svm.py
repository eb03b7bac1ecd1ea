"""RBF-kernel support vector machine trained by sequential minimal
optimization.

Binary SMO with the classic pairwise alpha updates; multiclass wraps one
binary machine per class (one-vs-rest) and predicts the class with the
largest decision score. Scores are uncalibrated margins, which is all the
rank-based AUC needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    DimensionMismatch,
    NoConvergence,
    NonPositiveSigma,
)
from .base import (
    Codec,
    ColumnStats,
    DataMatrix,
    Model,
    TrainConfig,
    class_order,
    encode_labels,
    require_multiclass,
)

KKT_TOL = 1e-3
MAX_PASSES = 10
MAX_SWEEPS = 2000


def rbf_kernel(z1: np.ndarray, z2: np.ndarray, sigma: float) -> float:
    """exp(-||z1 - z2||^2 / (2 sigma^2))."""
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape != z2.shape:
        raise DimensionMismatch(f"shapes {z1.shape} vs {z2.shape}")
    if not sigma > 0:
        raise NonPositiveSigma(f"sigma must be > 0, got {sigma}")
    d2 = float(((z1 - z2) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * sigma * sigma)))


def rbf_matrix(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    if not sigma > 0:
        raise NonPositiveSigma(f"sigma must be > 0, got {sigma}")
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * sigma * sigma))


def median_pairwise_distance(Z: np.ndarray) -> float:
    """Median Euclidean distance between distinct rows (the sigma heuristic)."""
    n = Z.shape[0]
    if n < 2:
        return 1.0
    d2 = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
    vals = np.sqrt(d2[np.triu_indices(n, k=1)])
    med = float(np.median(vals))
    return med if med > 0 else 1.0


@dataclass
class _BinarySvm(Codec):
    support: np.ndarray        # (m, d) support vectors, standardized scale
    coef: np.ndarray           # (m,) alpha_i * y_i
    bias: float
    sigma: float

    def decision(self, Z: np.ndarray) -> np.ndarray:
        K = rbf_matrix(Z, self.support, self.sigma)
        return K @ self.coef + self.bias


def _smo(K: np.ndarray, y: np.ndarray, C: float, seed: int) -> tuple[np.ndarray, float]:
    """Simplified SMO on a precomputed kernel; returns (alpha, bias)."""
    n = len(y)
    alpha = np.zeros(n)
    b = 0.0
    rng = np.random.default_rng([seed, n])
    passes = 0
    sweeps = 0
    while passes < MAX_PASSES:
        if sweeps >= MAX_SWEEPS:
            raise NoConvergence(
                f"SMO did not satisfy the KKT conditions within {MAX_SWEEPS} sweeps"
            )
        sweeps += 1
        num_changed = 0
        f = K @ (alpha * y) + b
        for i in range(n):
            Ei = f[i] - y[i]
            if not ((y[i] * Ei < -KKT_TOL and alpha[i] < C)
                    or (y[i] * Ei > KKT_TOL and alpha[i] > 0)):
                continue
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            Ej = f[j] - y[j]
            ai_old, aj_old = alpha[i], alpha[j]
            if y[i] != y[j]:
                L, H = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
            else:
                L, H = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
            if L >= H:
                continue
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if eta >= 0:
                continue
            aj = aj_old - y[j] * (Ei - Ej) / eta
            aj = min(H, max(L, aj))
            if abs(aj - aj_old) < 1e-7:
                continue
            ai = ai_old + y[i] * y[j] * (aj_old - aj)
            alpha[i], alpha[j] = ai, aj
            b1 = b - Ei - y[i] * (ai - ai_old) * K[i, i] - y[j] * (aj - aj_old) * K[i, j]
            b2 = b - Ej - y[i] * (ai - ai_old) * K[i, j] - y[j] * (aj - aj_old) * K[j, j]
            if 0 < ai < C:
                b = b1
            elif 0 < aj < C:
                b = b2
            else:
                b = 0.5 * (b1 + b2)
            f = K @ (alpha * y) + b
            num_changed += 1
        passes = passes + 1 if num_changed == 0 else 0
    return alpha, b


@dataclass
class SvmModel(Model):
    classes: list[str]
    machines: list[_BinarySvm]   # one per class (one-vs-rest); 1 when binary
    C: float
    sigma: float
    stats: ColumnStats
    feature_names: list[str]

    kind = "svm"

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Per-class decision margins (no probability calibration)."""
        Z = self.stats.transform(self._rows(X))
        if len(self.machines) == 1:
            s = self.machines[0].decision(Z)
            return np.column_stack([-s, s])
        return np.column_stack([m.decision(Z) for m in self.machines])


def train_svm_rbf(data: DataMatrix, cfg: TrainConfig) -> SvmModel:
    classes = class_order(data.labels)
    require_multiclass(classes)
    y_idx = encode_labels(data.labels, classes)
    stats = ColumnStats.fit(data.X)
    Z = stats.transform(data.X)
    sigma = cfg.svm_sigma if cfg.svm_sigma is not None else median_pairwise_distance(Z)
    K = rbf_matrix(Z, Z, sigma)

    def fit_binary(y_signed: np.ndarray, stream: int) -> _BinarySvm:
        alpha, b = _smo(K, y_signed, cfg.svm_c, cfg.seed * 1000 + stream)
        sv = alpha > 1e-9
        return _BinarySvm(Z[sv], (alpha * y_signed)[sv], b, sigma)

    if len(classes) == 2:
        y_signed = np.where(y_idx == 1, 1.0, -1.0)
        machines = [fit_binary(y_signed, 0)]
    else:
        machines = [
            fit_binary(np.where(y_idx == k, 1.0, -1.0), k)
            for k in range(len(classes))
        ]
    return SvmModel(classes, machines, cfg.svm_c, sigma, stats,
                    list(data.feature_names))
