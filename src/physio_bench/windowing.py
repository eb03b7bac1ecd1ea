"""Subject-level normalization and overlapping time-based segmentation.

Signals keep their native sampling rates; alignment happens purely through
time: a window [t0, t0 + W) selects, per channel, the samples whose
timestamps fall inside it, and the IBI events whose onset does. Candidate
window starts advance by the stride S over the span where all required
modalities overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoUsableSpan
from .ingest import MODALITY_CHANNELS, Recording, SampledSeries, LabelSegment

EPSILON = 1e-8

#: Tolerance absorbing float round-off in time arithmetic (seconds scale).
_T_EPS = 1e-9


@dataclass(frozen=True)
class NormalizationStats:
    """Per-channel subject-level moments: x_norm = (x - mean) / (std + epsilon)."""

    mean: float
    std: float
    epsilon: float = EPSILON

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ConfigError("epsilon must be > 0")
        if self.std < 0:
            raise ConfigError("std must be >= 0")


@dataclass(frozen=True)
class WindowPolicy:
    window_s: float
    stride_s: float
    min_fill: float = 0.8
    required_modalities: frozenset[str] = frozenset({"EDA", "TEMP", "HR", "ACC"})
    label_rule: str = "strict"

    def __post_init__(self):
        if not (0 < self.stride_s <= self.window_s):
            raise ConfigError("need 0 < stride_s <= window_s")
        if not (0 < self.min_fill <= 1):
            raise ConfigError("need 0 < min_fill <= 1")
        if self.label_rule not in ("strict", "majority"):
            raise ConfigError(f"unknown label_rule {self.label_rule!r}")
        object.__setattr__(self, "required_modalities", frozenset(self.required_modalities))
        unknown = self.required_modalities - set(MODALITY_CHANNELS)
        if unknown:
            raise ConfigError(f"unknown modalities: {sorted(unknown)}")


@dataclass
class Window:
    """One retained window: normalized per-channel slices plus IBI events."""

    subject_id: str
    t_start: float
    t_end: float
    samples: dict[str, np.ndarray]
    rates: dict[str, float]
    ibi_durations: np.ndarray
    label: str


@dataclass
class SegmentReport:
    candidates: int = 0
    retained: int = 0
    dropped_fill: int = 0
    dropped_label: int = 0


def compute_stats(series: SampledSeries, epsilon: float = EPSILON) -> NormalizationStats:
    """Population moments over the subject's full recording for one channel."""
    v = series.values
    return NormalizationStats(float(np.mean(v)), float(np.std(v)), epsilon)


def znormalize(series: SampledSeries, stats: NormalizationStats) -> SampledSeries:
    """Standardize a channel at the subject level; rate and start unchanged."""
    values = (series.values - stats.mean) / (stats.std + stats.epsilon)
    return SampledSeries(series.start_epoch, series.rate_hz, values)


def candidate_count(span_s: float, window_s: float, stride_s: float) -> int:
    """Number of stride-aligned window starts fitting in a span."""
    if span_s < window_s - _T_EPS:
        return 0
    return int(np.floor((span_s - window_s) / stride_s + _T_EPS)) + 1


def slice_indices(series: SampledSeries, t_start: float, t_end: float) -> tuple[int, int]:
    """Index half-open range [i_lo, i_hi) of samples with timestamps in [t_start, t_end)."""
    lo = (t_start - series.start_epoch) * series.rate_hz
    hi = (t_end - series.start_epoch) * series.rate_hz
    i_lo = int(np.ceil(lo - _T_EPS))
    i_hi = int(np.ceil(hi - _T_EPS))
    n = len(series)
    return max(0, min(i_lo, n)), max(0, min(i_hi, n))


def assign_label(t_start: float, t_end: float, segments: list[LabelSegment],
                 rule: str) -> str | None:
    """Label for a window, or None when it must be dropped.

    strict: a single segment must fully cover the window. majority: the
    segment covering more than half the window wins; an exact 50/50 split
    has no majority and drops.
    """
    if rule == "strict":
        for seg in segments:
            if seg.t_start <= t_start + _T_EPS and t_end <= seg.t_end + _T_EPS:
                return seg.label
        return None
    best_label, best_cover = None, 0.0
    for seg in segments:
        cover = min(t_end, seg.t_end) - max(t_start, seg.t_start)
        if cover > best_cover:
            best_label, best_cover = seg.label, cover
    if best_cover > 0.5 * (t_end - t_start) + _T_EPS:
        return best_label
    return None


def segment_with_report(rec: Recording, policy: WindowPolicy) -> tuple[list[Window], SegmentReport]:
    """Normalize, then cut overlapping windows over the usable joint span."""
    channels = {name: znormalize(s, compute_stats(s))
                for name, s in rec.channels.items()}

    required_channels: list[str] = []
    for modality in sorted(policy.required_modalities):
        for ch in MODALITY_CHANNELS[modality]:
            if ch not in channels:
                raise NoUsableSpan(
                    f"required modality {modality} has no {ch} channel for "
                    f"subject {rec.subject_id}"
                )
            required_channels.append(ch)

    span_start = max(channels[ch].start_epoch for ch in required_channels)
    span_end = min(channels[ch].end_epoch for ch in required_channels)
    n_candidates = candidate_count(span_end - span_start, policy.window_s, policy.stride_s)
    if n_candidates == 0:
        raise NoUsableSpan(
            f"required modalities co-exist for {max(0.0, span_end - span_start):.3f} s "
            f"< window of {policy.window_s} s"
        )

    report = SegmentReport(candidates=n_candidates)
    ibi_times = rec.ibi.times() if rec.ibi is not None else np.empty(0)
    ibi_durs = rec.ibi.durations if rec.ibi is not None else np.empty(0)

    windows: list[Window] = []
    for k in range(n_candidates):
        t0 = span_start + k * policy.stride_s
        t1 = t0 + policy.window_s

        ok = True
        for ch in required_channels:
            series = channels[ch]
            i_lo, i_hi = slice_indices(series, t0, t1)
            if (i_hi - i_lo) < policy.min_fill * policy.window_s * series.rate_hz:
                ok = False
                break
        if not ok:
            report.dropped_fill += 1
            continue

        label = assign_label(t0, t1, rec.segments, policy.label_rule)
        if label is None:
            report.dropped_label += 1
            continue

        samples: dict[str, np.ndarray] = {}
        rates: dict[str, float] = {}
        for ch, series in channels.items():
            i_lo, i_hi = slice_indices(series, t0, t1)
            samples[ch] = series.values[i_lo:i_hi]
            rates[ch] = series.rate_hz
        mask = (ibi_times >= t0 - _T_EPS) & (ibi_times < t1 - _T_EPS)
        windows.append(
            Window(
                subject_id=rec.subject_id,
                t_start=t0,
                t_end=t1,
                samples=samples,
                rates=rates,
                ibi_durations=ibi_durs[mask],
                label=label,
            )
        )
    report.retained = len(windows)
    return windows, report


def segment(rec: Recording, policy: WindowPolicy) -> list[Window]:
    windows, _ = segment_with_report(rec, policy)
    return windows
