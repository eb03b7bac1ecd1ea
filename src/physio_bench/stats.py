"""Statistical comparison cascade for cross-validated configurations.

Shapiro-Wilk (AS R94 approximation) gates the paired comparison: normal
differences (p > 0.05) go to the paired t-test with Cohen's d, anything
else to the Wilcoxon signed-rank test (exact sign-pattern distribution up
to n = 25, tie-corrected normal approximation above). Raw p values are
corrected across a batch by Benjamini-Hochberg FDR (default) or
Bonferroni.

All distribution functions are self-contained: normal CDF via erfc,
normal quantiles via a rational approximation polished by one Halley
step, and the t CDF via the regularized incomplete beta continued
fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroDifferences, LengthMismatch, SampleSizeOutOfRange

NORMALITY_ALPHA = 0.05
WILCOXON_EXACT_MAX_N = 25


# --- distribution functions ---------------------------------------------------


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def norm_ppf(p: float) -> float:
    """Standard-normal quantile: rational approximation plus one Halley
    refinement, giving near machine precision."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0,1), got {p}")
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
             / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
             / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
              / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    err = norm_cdf(x) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t."""
    if math.isinf(t):
        return 0.0
    return betainc_reg(0.5 * df, 0.5, df / (df + t * t))


# --- Shapiro-Wilk (AS R94) ------------------------------------------------------

_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)
_SW_G = (-2.273, 0.459)


def _poly(coefs, x: float) -> float:
    out = 0.0
    for c in reversed(coefs):
        out = out * x + c
    return out


def shapiro_wilk(sample) -> tuple[float, float]:
    """W statistic and approximate p for normality of a sample (3 <= n <= 5000)."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(x)
    if not (3 <= n <= 5000):
        raise SampleSizeOutOfRange(f"Shapiro-Wilk needs 3 <= n <= 5000, got {n}")
    if x[-1] - x[0] <= 0:
        raise AllZeroDifferences("sample has zero range")

    nn2 = n // 2
    a = np.zeros(nn2 + 1)  # 1-based like the published algorithm
    if n == 3:
        a[1] = math.sqrt(0.5)
    else:
        an25 = n + 0.25
        for i in range(1, nn2 + 1):
            a[i] = norm_ppf((i - 0.375) / an25)
        summ2 = 2.0 * float(np.sum(a[1:] ** 2))
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_SW_C1, rsn) - a[1] / ssumm2
        if n > 5:
            i1 = 3
            a2 = -a[2] / ssumm2 + _poly(_SW_C2, rsn)
            fac = math.sqrt((summ2 - 2.0 * a[1] ** 2 - 2.0 * a[2] ** 2)
                            / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2))
            a[2] = a2
        else:
            i1 = 2
            fac = math.sqrt((summ2 - 2.0 * a[1] ** 2) / (1.0 - 2.0 * a1 ** 2))
        a[1] = a1
        for i in range(i1, nn2 + 1):
            a[i] /= -fac

    # W = squared correlation between the order statistics and coefficients.
    coef = np.empty(n)
    for i in range(1, n + 1):
        j = n + 1 - i
        if i < j:
            coef[i - 1] = -a[i]
        elif i > j:
            coef[i - 1] = a[j]
        else:
            coef[i - 1] = 0.0
    xc = x - x.mean()
    cc = coef - coef.mean()
    sax = float(np.dot(cc, xc))
    ssa = float(np.dot(cc, cc))
    ssx = float(np.dot(xc, xc))
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    w = 1.0 - w1

    if n == 3:
        pi6 = 6.0 / math.pi
        stqr = math.asin(math.sqrt(0.75))
        p = pi6 * (math.asin(math.sqrt(w)) - stqr)
        return w, min(1.0, max(0.0, p))
    y = math.log(1.0 - w)
    if n <= 11:
        gamma = _poly(_SW_G, float(n))
        if y >= gamma:
            return w, 1e-99
        y = -math.log(gamma - y)
        mu = _poly(_SW_C3, float(n))
        sigma = math.exp(_poly(_SW_C4, float(n)))
    else:
        ln_n = math.log(n)
        mu = _poly(_SW_C5, ln_n)
        sigma = math.exp(_poly(_SW_C6, ln_n))
    p = 1.0 - norm_cdf((y - mu) / sigma)
    return w, min(1.0, max(0.0, p))


# --- paired tests ----------------------------------------------------------------


def _diffs(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"paired samples must be equal-length 1-D, got {a.shape} vs {b.shape}")
    return a - b


def paired_t(a, b) -> tuple[float, float]:
    """Two-sided paired t-test; all-zero differences give (0, 1) by convention."""
    d = _diffs(a, b)
    n = len(d)
    if n < 2:
        raise LengthMismatch("paired t-test needs n >= 2")
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    return t, t_sf_two_sided(t, n - 1)


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of `x`; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test; W is the smaller signed-rank sum.

    Exact sign-pattern distribution for n <= 25 (valid under ties because
    the rank multiset is fixed); tie-corrected normal approximation above.
    """
    d = _diffs(a, b)
    d = d[d != 0.0]
    n = len(d)
    if n < 1:
        raise AllZeroDifferences("all paired differences are zero")
    ranks = average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)

    if n <= WILCOXON_EXACT_MAX_N:
        # Distribution of W+ by dynamic programming over doubled (integer)
        # ranks; doubling makes tied average ranks integral.
        r2 = np.rint(2.0 * ranks).astype(np.int64)
        total = int(r2.sum())
        counts = np.zeros(total + 1)
        counts[0] = 1.0
        for r in r2:
            counts[r:] += counts[:-r]
        counts_sum = 2.0 ** n
        w2 = int(round(2.0 * w_plus))
        p_le = counts[: w2 + 1].sum() / counts_sum
        p_ge = counts[w2:].sum() / counts_sum
        p = min(1.0, 2.0 * min(p_le, p_ge))
        return w, p

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
    z = (w - mean) / math.sqrt(var)
    return w, min(1.0, 2.0 * norm_cdf(z))


def cohens_d_paired(a, b) -> float:
    """Paired Cohen's d: mean difference over its Bessel-corrected sd.

    All differences equal and nonzero has zero variance; the d is then a
    signed infinity flag rather than an error.
    """
    d = _diffs(a, b)
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1)) if len(d) > 1 else 0.0
    if sd == 0.0:
        if mean == 0.0:
            return 0.0
        return math.copysign(math.inf, mean)
    return mean / sd


# --- multiple-comparison corrections ----------------------------------------------


def bonferroni(p_values, alpha: float = 0.05) -> tuple[list[float], list[bool]]:
    p = np.asarray(p_values, dtype=np.float64)
    m = len(p)
    adjusted = np.minimum(1.0, p * m)
    reject = adjusted <= alpha
    return adjusted.tolist(), reject.tolist()


def bh_fdr(p_values, alpha: float = 0.05) -> tuple[list[float], list[bool]]:
    """Benjamini-Hochberg step-up: adjusted p via the monotone
    cumulative-minimum construction; reject means adjusted <= alpha."""
    p = np.asarray(p_values, dtype=np.float64)
    m = len(p)
    if m == 0:
        return [], []
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / (np.arange(m) + 1)
    adjusted_sorted = np.minimum.accumulate(ranked[::-1])[::-1]
    adjusted_sorted = np.minimum(1.0, adjusted_sorted)
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    reject = adjusted <= alpha
    return adjusted.tolist(), reject.tolist()


CORRECTIONS = {"fdr": bh_fdr, "bonferroni": bonferroni}


# --- the cascade -------------------------------------------------------------------


@dataclass
class TestResult:
    test_name: str
    statistic: float
    p_value: float
    n: int
    normality_p: float | None = None
    effect_size_d: float | None = None
    p_corrected: float | None = None
    significant: bool = False

    def to_dict(self) -> dict:
        return {
            "test": self.test_name,
            "statistic": self.statistic,
            "p_raw": self.p_value,
            "n": self.n,
            "shapiro_p": self.normality_p,
            "d": self.effect_size_d,
            "p_corrected": self.p_corrected,
            "significant": self.significant,
        }


def compare_to_baseline(per_fold_baseline, per_fold_config,
                        alpha: float = 0.05) -> TestResult:
    """One paired comparison of a configuration against the baseline.

    Differences are baseline minus configuration, so positive statistics
    mean the configuration scores lower. Shapiro-Wilk on the differences
    picks the test: normal-looking (p > 0.05) goes to the paired t-test,
    otherwise Wilcoxon. Cohen's d is reported either way for table parity.
    The caller corrects p values across its batch; here p_corrected starts
    as the raw p.
    """
    base = np.asarray(per_fold_baseline, dtype=np.float64)
    conf = np.asarray(per_fold_config, dtype=np.float64)
    diffs = _diffs(base, conf)
    n = len(diffs)

    d_effect = cohens_d_paired(base, conf)
    if np.all(diffs == 0.0):
        return TestResult("t-test", 0.0, 1.0, n, None, 0.0, 1.0, False)

    try:
        _, normality_p = shapiro_wilk(diffs)
    except (AllZeroDifferences, SampleSizeOutOfRange):
        normality_p = None

    if normality_p is None or normality_p > NORMALITY_ALPHA:
        stat, p = paired_t(base, conf)
        name = "t-test"
    else:
        stat, p = wilcoxon_signed_rank(base, conf)
        name = "Wilcoxon"
    return TestResult(name, stat, p, n, normality_p, d_effect, p,
                      p <= alpha)


def correct_batch(results: list[TestResult], alpha: float = 0.05,
                  method: str = "fdr") -> None:
    """Apply a multiple-comparison correction across a batch, in place."""
    if method not in CORRECTIONS:
        raise ValueError(f"unknown correction {method!r}; choose from {sorted(CORRECTIONS)}")
    if not results:
        return
    adjusted, reject = CORRECTIONS[method]([r.p_value for r in results], alpha)
    for r, p_adj, rej in zip(results, adjusted, reject):
        r.p_corrected = float(p_adj)
        r.significant = bool(rej)
