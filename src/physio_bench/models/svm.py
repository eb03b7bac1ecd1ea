"""RBF-kernel support vector machine trained by sequential minimal
optimization.

A binary machine solves the C-SVC dual, min 1/2 a'Qa - sum(a) with
Q = yy'K, 0 <= a <= C and y'a = 0, by the SMO of LIBSVM (Chang & Lin,
ACM TIST 2011), without shrinking:

- The gradient G = Qa - 1 is maintained: each step updates it with the
  two kernel rows of the pair it changed, never recomputing Qa.
- Working-set selection is WSS2 (Fan, Chen & Lin, JMLR 6, 2005). With
  v_t = -y_t G_t, i is the maximal violator, argmax v over I_up
  (y = +1 and a < C, or y = -1 and a > 0); j maximizes the second-order
  gain (v_i - v_j)^2 / (K_ii + K_jj - 2 K_ij) over the j in I_low (the
  mirror set) with v_j < v_i, using TAU for a non-positive curvature.
- The pair takes LIBSVM's clipped two-variable step.
- The solver stops when the maximal-violating-pair gap
  m(a) - M(a) = max over I_up of v - min over I_low of v is below
  KKT_TOL, and raises NoConvergence after max(10^7, 100 n) steps.
- The bias is -rho: the mean of y_t G_t over the free vectors, or the
  midpoint of LIBSVM's bounds when none is free.

The solver is deterministic and draws no random numbers, so an SVM does
not depend on `--seed`. Multiclass wraps one binary machine per class
(one-vs-rest) and predicts the class with the largest decision score.
Scores are uncalibrated margins, which is all the rank-based AUC needs.
"""

from __future__ import annotations

import logging
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
    sq_dists,
)

KKT_TOL = 1e-3
TAU = 1e-12   # curvature used where K_ii + K_jj - 2 K_ij is not positive

log = logging.getLogger(__name__)


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


def _rbf(d2: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-d2 / (2.0 * sigma * sigma))


def _median_distance(d2: np.ndarray) -> float:
    """The median of the square roots of d2's entries above its diagonal."""
    n = d2.shape[0]
    if n < 2:
        return 1.0
    med = float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))
    return med if med > 0 else 1.0


def rbf_matrix(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    if not sigma > 0:
        raise NonPositiveSigma(f"sigma must be > 0, got {sigma}")
    return _rbf(sq_dists(A, B), sigma)


def median_pairwise_distance(Z: np.ndarray) -> float:
    """Median Euclidean distance between distinct rows (the sigma heuristic)."""
    return _median_distance(sq_dists(Z, Z))


@dataclass
class _BinarySvm(Codec):
    support: np.ndarray        # (m, d) support vectors, standardized scale
    coef: np.ndarray           # (m,) alpha_i * y_i
    bias: float
    sigma: float

    def decision(self, Z: np.ndarray) -> np.ndarray:
        K = rbf_matrix(Z, self.support, self.sigma)
        return K @ self.coef + self.bias


def _smo(K: np.ndarray, y: np.ndarray, C: float) -> tuple[np.ndarray, float]:
    """LIBSVM's SMO for the C-SVC dual on a precomputed kernel; returns
    (alpha, bias). See the module docstring."""
    n = len(y)
    alpha = np.zeros(n)
    G = -np.ones(n)                    # gradient of 1/2 a'Qa - sum(a), Q = yy'K
    diag = np.diag(K)
    max_steps = max(10_000_000, 100 * n)
    for step in range(max_steps + 1):
        v = -y * G
        up = np.where(y > 0, alpha < C, alpha > 0)
        low = np.where(y > 0, alpha > 0, alpha < C)
        v_up = np.where(up, v, -np.inf)
        i = int(np.argmax(v_up))
        gap = v_up[i] - np.min(v, where=low, initial=np.inf)
        if gap < KKT_TOL:
            break
        if step == max_steps:
            raise NoConvergence(f"SMO took {step} steps and stopped at gap {gap:.2e}, "
                                f"not below {KKT_TOL}")
        b = v[i] - v
        a = diag[i] + diag - 2.0 * K[i]
        a = np.where(a > 0, a, TAU)
        j = int(np.argmax(np.where(low & (b > 0), b * b / a, -np.inf)))
        ai, aj = alpha[i], alpha[j]
        if y[i] != y[j]:
            delta = (-G[i] - G[j]) / a[j]
            diff = ai - aj
            alpha[i], alpha[j] = ai + delta, aj + delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j], alpha[i] = 0.0, diff
                if alpha[i] > C:
                    alpha[i], alpha[j] = C, C - diff
            else:
                if alpha[i] < 0:
                    alpha[i], alpha[j] = 0.0, -diff
                if alpha[j] > C:
                    alpha[j], alpha[i] = C, C + diff
        else:
            delta = (G[i] - G[j]) / a[j]
            total = ai + aj
            alpha[i], alpha[j] = ai - delta, aj + delta
            if total > C:
                if alpha[i] > C:
                    alpha[i], alpha[j] = C, total - C
                if alpha[j] > C:
                    alpha[j], alpha[i] = C, total - C
            else:
                if alpha[j] < 0:
                    alpha[j], alpha[i] = 0.0, total
                if alpha[i] < 0:
                    alpha[i], alpha[j] = 0.0, total
        G += y * ((alpha[i] - ai) * y[i] * K[i] + (alpha[j] - aj) * y[j] * K[j])
    log.debug("SMO machine: %d rows, %d steps, gap %.2e", n, step, gap)
    return alpha, -_rho(alpha, y, y * G, C)


def _rho(alpha: np.ndarray, y: np.ndarray, yG: np.ndarray, C: float) -> float:
    """LIBSVM's calculate_rho: the mean of y_t G_t over the free vectors;
    with none free, the midpoint of the bounds that the vectors at 0 or C
    put on it (upper from I_up, lower from I_low)."""
    free = (alpha > 0) & (alpha < C)
    if free.any():
        return float(yG[free].mean())
    up = (y > 0) == (alpha == 0)
    return 0.5 * float(yG[up].min() + yG[~up].max())


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
    d2 = sq_dists(Z, Z)   # one distance pass gives sigma and the kernel
    sigma = cfg.svm_sigma if cfg.svm_sigma is not None else _median_distance(d2)
    K = _rbf(d2, sigma)

    def fit_binary(y_signed: np.ndarray) -> _BinarySvm:
        alpha, b = _smo(K, y_signed, cfg.svm_c)
        sv = alpha > 1e-9
        return _BinarySvm(Z[sv], (alpha * y_signed)[sv], b, sigma)

    if len(classes) == 2:
        y_signed = np.where(y_idx == 1, 1.0, -1.0)
        machines = [fit_binary(y_signed)]
    else:
        machines = [fit_binary(np.where(y_idx == k, 1.0, -1.0))
                    for k in range(len(classes))]
    return SvmModel(classes, machines, cfg.svm_c, sigma, stats,
                    list(data.feature_names))
