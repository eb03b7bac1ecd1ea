"""Per-window multimodal feature extraction.

Feature families per modality: EDA mean/std/slope/SCR-peak-count, TEMP
mean/std, HR mean/std plus SDNN/RMSSD from the IBI stream, HRV recovered
from BVP systolic peaks when no IBI stream exists, BVP mean amplitude and
signal energy, and per-axis ACC mean/std. Mean/std features use population
moments; SDNN is the Bessel-corrected standard deviation of the beat
intervals (standard HRV convention).

`FAMILIES` is the one table of features: a row per family gives its
modality, the channels it reads, its (name, unit) pairs, the function that
computes them in one call, and whether it is optional. `FEATURE_DEFS` and
the schema presets are derived from it, so a feature is one entry of a
row.

Peaks (SCR and BVP systolic) are strict local maxima filtered by
topographic prominence, computed for all peaks at once from range-max and
range-min sparse tables (scipy's definition, bit for bit), then thinned to
a minimum separation, taller peaks first.

Values are assembled in schema order into fixed-length vectors, each family
computed once per window; optional features (HRV with too few beats) carry
NaN and are imputed downstream at model-fit time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    InsufficientBeats,
    MissingRequiredModality,
    SchemaMismatch,
    TooFewSamples,
)
from .ingest import MODALITY_CHANNELS
from .windowing import Window


@dataclass(frozen=True)
class FeatureConfig:
    """Detector parameters (defaults sized for raw E4 units)."""

    scr_min_prominence: float = 0.01
    scr_min_distance_s: float = 1.0
    scr_tonic_window_s: float = 4.0
    bvp_min_rr_s: float = 0.33
    bvp_prominence_factor: float = 0.5

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.scr_tonic_window_s <= 0:
            raise ConfigError(f"scr_tonic_window_s must be > 0, got {self.scr_tonic_window_s}")


DEFAULT_FEATURE_CONFIG = FeatureConfig()


# --- peak machinery ---------------------------------------------------------


def local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima (flat stretches yield none)."""
    if len(y) < 3:
        return np.empty(0, dtype=int)
    mid = y[1:-1]
    return np.flatnonzero((mid > y[:-2]) & (mid > y[2:])) + 1


def _sparse_tables(y: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Range-max and range-min tables: level k holds the max (min) of every
    run ``y[i:i + 2**k]``."""
    mx, mn = [y], [y]
    span = 1
    while 2 * span <= len(y):
        mx.append(np.maximum(mx[-1][:-span], mx[-1][span:]))
        mn.append(np.minimum(mn[-1][:-span], mn[-1][span:]))
        span *= 2
    return mx, mn


def peak_prominences(y: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominence of each peak (scipy-compatible definition).

    Each flank of peak p runs outward while samples stay ``<= y[p]``. Binary
    lifting on a range-max sparse table finds the flank ends of every peak
    at once; a range-min query over each flank gives its lowest sample. Max
    and min are exact, so the result is bit-equal to walking the flanks.
    """
    y = np.asarray(y)
    peaks = np.asarray(peaks, dtype=np.intp)
    if len(peaks) == 0:
        return np.empty(0)
    n = len(y)
    mx, mn = _sparse_tables(y)
    h = y[peaks]
    lo = peaks  # the flanks are y[lo:p + 1] and y[p:hi + 1]
    hi = peaks
    for k in range(len(mx) - 1, -1, -1):
        span = 1 << k
        ok = lo >= span
        ok &= mx[k][np.where(ok, lo - span, 0)] <= h
        lo = np.where(ok, lo - span, lo)
        ok = hi + span < n
        ok &= mx[k][np.where(ok, hi + 1, 0)] <= h
        hi = np.where(ok, hi + span, hi)
    base = np.maximum(_range_min(mn, lo, peaks), _range_min(mn, peaks, hi))
    # A flank whose lowest sample equals the peak leaves the walk's minimum
    # at the peak's own value, which fixes the sign of a zero prominence.
    return np.asarray(h - np.where(base == h, h, base), dtype=np.float64)


def _range_min(mn: list[np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``min(y[lo:hi + 1])`` per pair, from two overlapping table runs."""
    level = np.frexp(hi - lo + 1)[1] - 1
    out = np.empty(len(lo), dtype=mn[0].dtype)
    for k in np.unique(level).tolist():
        sel = level == k
        out[sel] = np.minimum(mn[k][lo[sel]], mn[k][hi[sel] - (1 << k) + 1])
    return out


def select_peaks(y: np.ndarray, min_prominence: float, min_distance: int) -> np.ndarray:
    """Local maxima filtered by prominence, then thinned to the minimum
    separation keeping taller peaks first (the earlier one on equal height)."""
    peaks = local_maxima(y)
    if len(peaks) == 0:
        return peaks
    proms = peak_prominences(y, peaks)
    peaks = peaks[proms >= min_prominence]
    if len(peaks) <= 1 or min_distance <= 1:
        return peaks
    # Peaks ascend, so the ones a kept peak suppresses are its neighbours
    # on either side, out to min_distance.
    pos = peaks.tolist()
    keep = [True] * len(pos)
    for i in np.lexsort((peaks, -y[peaks])).tolist():
        if not keep[i]:
            continue
        j = i - 1
        while j >= 0 and pos[i] - pos[j] < min_distance:
            keep[j] = False
            j -= 1
        j = i + 1
        while j < len(pos) and pos[j] - pos[i] < min_distance:
            keep[j] = False
            j += 1
    return peaks[np.array(keep)]


# --- feature operations -----------------------------------------------------


def linear_slope(samples: np.ndarray, rate_hz: float) -> float:
    """Ordinary-least-squares slope of value against time in seconds."""
    n = len(samples)
    if n < 2:
        raise TooFewSamples("linear slope needs at least 2 samples")
    t = np.arange(n) / rate_hz
    t_centered = t - t.mean()
    y_centered = samples - np.mean(samples)
    return float(np.dot(t_centered, y_centered) / np.dot(t_centered, t_centered))


def phasic_component(samples: np.ndarray, rate_hz: float,
                     tonic_window_s: float = 4.0) -> np.ndarray:
    """Sample minus its trailing moving average (the slow tonic estimate)."""
    w = max(1, int(round(tonic_window_s * rate_hz)))
    c = np.concatenate(([0.0], np.cumsum(samples)))
    idx = np.arange(len(samples))
    lo = np.maximum(0, idx - w + 1)
    tonic = (c[idx + 1] - c[lo]) / (idx + 1 - lo)
    return samples - tonic


def scr_peak_count(eda_samples: np.ndarray, rate_hz: float,
                   cfg: FeatureConfig = DEFAULT_FEATURE_CONFIG) -> int:
    """Count phasic skin-conductance-response peaks in a window."""
    if len(eda_samples) < 3:
        return 0
    phasic = phasic_component(eda_samples, rate_hz, cfg.scr_tonic_window_s)
    # Peaks closer than the window's length all suppress each other, so a
    # longer spacing acts as that length; capping it keeps int() finite.
    min_dist = max(1, int(round(min(cfg.scr_min_distance_s * rate_hz, len(phasic)))))
    return int(len(select_peaks(phasic, cfg.scr_min_prominence, min_dist)))


def eda_features(samples: np.ndarray, rate_hz: float,
                 cfg: FeatureConfig = DEFAULT_FEATURE_CONFIG) -> tuple[float, float, float, int]:
    return (
        float(np.mean(samples)),
        float(np.std(samples)),
        linear_slope(samples, rate_hz),
        scr_peak_count(samples, rate_hz, cfg),
    )


def temp_features(samples: np.ndarray) -> tuple[float, float]:
    return float(np.mean(samples)), float(np.std(samples))


def hrv_metrics(ibi_durations: np.ndarray) -> tuple[float, float]:
    """SDNN (Bessel-corrected std) and RMSSD of beat intervals, seconds."""
    d = np.asarray(ibi_durations, dtype=np.float64)
    if len(d) < 2:
        raise InsufficientBeats(f"need >= 2 intervals, got {len(d)}")
    sdnn = float(np.std(d, ddof=1))
    rmssd = float(np.sqrt(np.mean(np.diff(d) ** 2)))
    return sdnn, rmssd


def hrv_from_ibi(hr_samples: np.ndarray, ibi_durations: np.ndarray
                 ) -> tuple[float, float, float, float]:
    """HR channel stats plus SDNN/RMSSD from IBI events in the window."""
    hr_mean = float(np.mean(hr_samples))
    hr_std = float(np.std(hr_samples))
    sdnn, rmssd = hrv_metrics(ibi_durations)
    return hr_mean, hr_std, sdnn, rmssd


def detect_bvp_peaks(bvp_samples: np.ndarray, rate_hz: float,
                     cfg: FeatureConfig = DEFAULT_FEATURE_CONFIG,
                     start_epoch: float = 0.0) -> np.ndarray:
    """Systolic peak timestamps: refractory min-RR spacing, prominence scaled
    to the window's standard deviation."""
    std = float(np.std(bvp_samples)) if len(bvp_samples) else 0.0
    if std == 0.0:
        return np.empty(0)
    min_dist = max(1, int(round(min(cfg.bvp_min_rr_s * rate_hz, len(bvp_samples)))))
    peaks = select_peaks(bvp_samples, cfg.bvp_prominence_factor * std, min_dist)
    return start_epoch + peaks / rate_hz


def hrv_from_peaks(peak_timestamps: np.ndarray) -> tuple[float, float]:
    """SDNN/RMSSD over inter-peak intervals; needs at least 3 peaks."""
    p = np.asarray(peak_timestamps, dtype=np.float64)
    if len(p) < 3:
        raise InsufficientBeats(f"need >= 3 peaks, got {len(p)}")
    return hrv_metrics(np.diff(p))


def bvp_features(samples: np.ndarray) -> tuple[float, float]:
    """Mean absolute amplitude and power of the mean-removed waveform."""
    centered = samples - np.mean(samples)
    return float(np.mean(np.abs(centered))), float(np.mean(centered ** 2))


def acc_features(x: np.ndarray, y: np.ndarray, z: np.ndarray
                 ) -> tuple[float, float, float, float, float, float]:
    if not (len(x) == len(y) == len(z)):
        raise SchemaMismatch("ACC axes have unequal slice lengths")
    if len(x) == 0:
        raise TooFewSamples("empty ACC slice")
    return (
        float(np.mean(x)), float(np.std(x)),
        float(np.mean(y)), float(np.std(y)),
        float(np.mean(z)), float(np.std(z)),
    )


# --- schemas and assembly ----------------------------------------------------


@dataclass(frozen=True)
class Feature:
    name: str
    modality: str
    unit: str
    optional: bool = False


@dataclass(frozen=True)
class Family:
    """Features that one call computes from the same window channels.

    `compute(window, cfg, *samples)` gets the window's samples of each
    channel, in `channels` order, and returns one value per feature. An
    optional family gives NaN for all its features on InsufficientBeats.
    `reads_ibi` marks a family whose `compute` reads the window's IBI
    events.
    """

    modality: str
    channels: tuple[str, ...]
    features: tuple[tuple[str, str], ...]  # (name, unit)
    compute: Callable[..., tuple]
    optional: bool = False
    reads_ibi: bool = False


#: Every feature this toolkit can compute, one row per family. Adding a
#: feature means adding its (name, unit) to a row, or a new row.
FAMILIES = {
    "eda": Family(
        "EDA", ("EDA",),
        (("eda_mean", "z"), ("eda_std", "z"), ("eda_slope", "z/s"),
         ("eda_scr_count", "count")),
        lambda w, cfg, s: eda_features(s, w.rates["EDA"], cfg)),
    "temp": Family("TEMP", ("TEMP",), (("temp_mean", "z"), ("temp_std", "z")),
                   lambda w, cfg, s: temp_features(s)),
    "hr": Family("HR", ("HR",), (("hr_mean", "z"), ("hr_std", "z")),
                 lambda w, cfg, s: temp_features(s)),
    # HRV from the IBI events; a window with fewer than 2 has none.
    "ibi_hrv": Family("HR", (), (("sdnn", "s"), ("rmssd", "s")),
                      lambda w, cfg: hrv_metrics(w.ibi_durations), optional=True,
                      reads_ibi=True),
    # HRV from BVP systolic peaks, for sessions without an IBI stream.
    "bvp_hrv": Family(
        "HRV", ("BVP",), (("bvp_sdnn", "s"), ("bvp_rmssd", "s")),
        lambda w, cfg, s: hrv_from_peaks(detect_bvp_peaks(s, w.rates["BVP"], cfg)),
        optional=True),
    "bvp": Family("BVP", ("BVP",), (("bvp_amp", "z"), ("bvp_energy", "z^2")),
                  lambda w, cfg, s: bvp_features(s)),
    "acc": Family(
        "ACC", ("ACC_X", "ACC_Y", "ACC_Z"),
        (("acc_x_mean", "g"), ("acc_x_std", "g"), ("acc_y_mean", "g"),
         ("acc_y_std", "g"), ("acc_z_mean", "g"), ("acc_z_std", "g")),
        lambda w, cfg, x, y, z: acc_features(x, y, z)),
}

#: Feature name -> (family key, position in the family's values).
_FAMILY_OF = {name: (key, j) for key, fam in FAMILIES.items()
              for j, (name, _) in enumerate(fam.features)}

FEATURE_DEFS = {name: Feature(name, fam.modality, unit, fam.optional)
                for fam in FAMILIES.values() for name, unit in fam.features}

#: Channel name -> the E4 file (modality) that holds it.
_FILE_OF = {ch: m for m, names in MODALITY_CHANNELS.items() for ch in names}


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature list defining the assembled vector layout."""

    name: str
    features: tuple[Feature, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate feature names in schema")
        if not (10 <= len(names) <= 18):
            raise SchemaMismatch(
                f"schema length {len(names)} outside the 10..18 contract"
            )

    def __len__(self) -> int:
        return len(self.features)

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def modalities(self) -> list[str]:
        """Feature modalities (ablation labels) in order of first
        appearance; the ablation grid takes its groups from here. What a
        run reads and requires comes from `files`."""
        seen: list[str] = []
        for f in self.features:
            if f.modality not in seen:
                seen.append(f.modality)
        return seen

    @property
    def files(self) -> frozenset[str]:
        """The E4 files, by stem, that the features read: the modality file
        of each family channel, and IBI for a family that reads the beat
        events."""
        families = [FAMILIES[_FAMILY_OF[f.name][0]] for f in self.features]
        return frozenset({_FILE_OF[ch] for fam in families for ch in fam.channels}
                         | {"IBI" for fam in families if fam.reads_ibi})


def schema_from_names(names: list[str], schema_name: str = "custom") -> FeatureSchema:
    unknown = [n for n in names if n not in FEATURE_DEFS]
    if unknown:
        raise SchemaMismatch(f"unknown feature names: {unknown}")
    return FeatureSchema(schema_name, tuple(FEATURE_DEFS[n] for n in names))


SCHEMA_PRESETS = {
    name: schema_from_names(
        [n for key in keys for n, _ in FAMILIES[key].features], name)
    for name, keys in {
        # Three-class stress/exercise layout, HR block reduced to SDNN+RMSSD.
        "stress_14": ("eda", "temp", "ibi_hrv", "acc"),
        # Same layout keeping the HR channel stats.
        "stress_16": ("eda", "temp", "hr", "ibi_hrv", "acc"),
        # Exam-performance layout: adds the BVP amplitude/energy pair.
        "exam_18": ("eda", "temp", "hr", "ibi_hrv", "acc", "bvp"),
        # Cognitive-load layout: HRV comes from BVP peaks, no HR channel needed.
        "cogload_16": ("eda", "temp", "bvp_hrv", "acc", "bvp"),
    }.items()
}


@dataclass
class FeatureVector:
    subject_id: str
    window_start: float
    values: np.ndarray
    label: str


def assemble(window: Window, schema: FeatureSchema,
             cfg: FeatureConfig = DEFAULT_FEATURE_CONFIG) -> FeatureVector:
    """Compute every schema feature for one window, in schema order; each
    family is computed once, at its first feature."""
    computed: dict[str, tuple] = {}
    values = np.empty(len(schema))
    for i, feat in enumerate(schema.features):
        key, j = _FAMILY_OF[feat.name]
        if key not in computed:
            computed[key] = _family_values(window, FAMILIES[key], feat.name, cfg)
        values[i] = computed[key][j]
    return FeatureVector(window.subject_id, window.t_start, values, window.label)


def _family_values(window: Window, family: Family, feature: str,
                   cfg: FeatureConfig) -> tuple:
    samples = []
    for channel in family.channels:
        s = window.samples.get(channel)
        if s is None or len(s) == 0:
            raise MissingRequiredModality(
                f"feature {feature} needs channel {channel}, absent in window at "
                f"{window.t_start} of subject {window.subject_id}"
            )
        samples.append(s)
    try:
        return family.compute(window, cfg, *samples)
    except InsufficientBeats:
        if not family.optional:
            raise
        return (np.nan,) * len(family.features)


# --- feature tables -----------------------------------------------------------


@dataclass
class FeatureTable:
    """Assembled feature matrix plus provenance columns."""

    schema: FeatureSchema
    X: np.ndarray
    subjects: np.ndarray
    window_starts: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.X.shape[0]


def build_table(windows: list[Window], schema: FeatureSchema,
                cfg: FeatureConfig = DEFAULT_FEATURE_CONFIG) -> FeatureTable:
    """Assemble all windows, ordered by (subject_id, window_start)."""
    vectors = [assemble(w, schema, cfg) for w in windows]
    vectors.sort(key=lambda v: (v.subject_id, v.window_start))
    n = len(vectors)
    X = np.empty((n, len(schema)))
    subjects = np.empty(n, dtype=object)
    starts = np.empty(n)
    labels = np.empty(n, dtype=object)
    for i, v in enumerate(vectors):
        X[i] = v.values
        subjects[i] = v.subject_id
        starts[i] = v.window_start
        labels[i] = v.label
    return FeatureTable(schema, X, subjects, starts, labels)


def join_tables(tables: list[FeatureTable]) -> FeatureTable:
    """The rows of `tables`, which share one schema, ordered by
    (subject_id, window_start) as `build_table` orders them; rows that tie
    keep their order in `tables`. So joining the tables `build_table` makes
    of consecutive parts of a window list gives the table it makes of the
    whole list."""
    subjects = np.concatenate([t.subjects for t in tables])
    starts = np.concatenate([t.window_starts for t in tables])
    order = sorted(range(len(subjects)), key=lambda i: (subjects[i], starts[i]))
    return FeatureTable(tables[0].schema, np.concatenate([t.X for t in tables])[order],
                        subjects[order], starts[order],
                        np.concatenate([t.labels for t in tables])[order])


def table_to_csv(table: FeatureTable) -> str:
    """Window starts are written by `repr`, so `table_from_csv` reads them back exactly."""
    from .pipeline import csv_text

    return csv_text([["subject_id", "window_start", "label", *table.schema.names]] + [
        [str(s), repr(float(t)), str(label), *x] for s, t, label, x
        in zip(table.subjects, table.window_starts, table.labels, table.X.tolist())])


def table_from_csv(text: str, schema_name: str = "custom") -> FeatureTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaMismatch("empty feature CSV")
    header = lines[0].split(",")
    if header[:3] != ["subject_id", "window_start", "label"]:
        raise SchemaMismatch("feature CSV must start with subject_id,window_start,label")
    schema = schema_from_names(header[3:], schema_name)
    n = len(lines) - 1
    X = np.empty((n, len(schema)))
    subjects = np.empty(n, dtype=object)
    starts = np.empty(n)
    labels = np.empty(n, dtype=object)
    for i, ln in enumerate(lines[1:]):
        fields = ln.split(",")
        if len(fields) != 3 + len(schema):
            raise SchemaMismatch(f"row {i + 2} has {len(fields)} fields")
        subjects[i] = fields[0]
        labels[i] = fields[2]
        try:
            starts[i] = float(fields[1])
            X[i] = [float(v) for v in fields[3:]]
        except ValueError as e:
            raise SchemaMismatch(f"row {i + 2} has a non-numeric field ({e})") from None
    return FeatureTable(schema, X, subjects, starts, labels)
