"""Feature operations against hand computations and reference oracles."""

import math

import numpy as np
import pytest

from physio_bench import features as F
from physio_bench.errors import (
    ConfigError,
    InsufficientBeats,
    MissingRequiredModality,
    SchemaMismatch,
    TooFewSamples,
)
from physio_bench.windowing import Window


class TestLinearSlope:
    def test_exact_line(self):
        t = np.arange(0, 30, 0.25)
        assert abs(F.linear_slope(2.0 * t + 1.0, 4.0) - 2.0) < 1e-12

    def test_constant(self):
        assert F.linear_slope(np.full(120, 5.0), 4.0) == 0.0

    def test_hand_ols(self):
        # y=[0,0,1,1] at t=[0,1,2,3]: cov/var = 2/5
        assert abs(F.linear_slope(np.array([0.0, 0, 1, 1]), 1.0) - 0.4) < 1e-12

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            F.linear_slope(np.array([1.0]), 4.0)

    def test_exact_on_random_affine(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rate = float(rng.choice([1.0, 4.0, 32.0, 64.0]))
            n = int(rng.integers(2, 300))
            a, b = rng.normal(size=2)
            t = np.arange(n) / rate
            assert abs(F.linear_slope(a * t + b, rate) - a) < 1e-9


class TestScrPeaks:
    def test_flat_is_zero(self):
        assert F.scr_peak_count(np.full(120, 0.3), 4.0) == 0

    def test_single_bump(self):
        t = np.arange(0, 30, 0.25)
        trace = 0.3 + 0.5 * np.exp(-0.5 * ((t - 15) / 1.5) ** 2)
        assert F.scr_peak_count(trace, 4.0) == 1

    def test_two_bumps_five_seconds_apart(self):
        t = np.arange(0, 30, 0.25)
        trace = (0.3 + 0.3 * np.exp(-0.5 * ((t - 12) / 1.2) ** 2)
                 + 0.3 * np.exp(-0.5 * ((t - 17) / 1.2) ** 2))
        assert F.scr_peak_count(trace, 4.0) == 2

    def test_matches_reference_peak_finder(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(1)
        for _ in range(100):
            y = np.cumsum(rng.normal(size=200)) * 0.05
            mine = len(F.select_peaks(y, 0.3, 1))
            ref, _ = scipy_signal.find_peaks(y, prominence=0.3)
            assert mine == len(ref)


def _reference_prominences(y, peaks):
    """The flank walk the sparse-table prominence replaced."""
    proms = np.empty(len(peaks))
    for k, p in enumerate(peaks):
        h = y[p]
        left_min = h
        i = p - 1
        while i >= 0 and y[i] <= h:
            left_min = min(left_min, y[i])
            i -= 1
        right_min = h
        i = p + 1
        while i < len(y) and y[i] <= h:
            right_min = min(right_min, y[i])
            i += 1
        proms[k] = h - max(left_min, right_min)
    return proms


def _reference_select_peaks(y, min_prominence, min_distance):
    """The O(P^2) thinning the neighbour scan replaced."""
    peaks = F.local_maxima(y)
    if len(peaks) == 0:
        return peaks
    peaks = peaks[_reference_prominences(y, peaks) >= min_prominence]
    if len(peaks) <= 1 or min_distance <= 1:
        return peaks
    order = sorted(range(len(peaks)), key=lambda i: (-y[peaks[i]], peaks[i]))
    keep = np.ones(len(peaks), dtype=bool)
    for i in order:
        if not keep[i]:
            continue
        for j in range(len(peaks)):
            if j != i and keep[j] and abs(int(peaks[j]) - int(peaks[i])) < min_distance:
                keep[j] = False
    return peaks[keep]


def _peak_fuzz_set():
    """Seeded signals covering ties, plateaus, monotone runs, edge maxima
    and BVP-like waveforms; n runs from 3 to a few hundred."""
    rng = np.random.default_rng(20)
    signals = [
        np.array([1.0, 3.0, 1.0]),
        np.arange(50.0),
        np.arange(50.0)[::-1].copy(),
        np.array([9.0, 1, 2, 1, 3, 1, 2, 1]),       # global max at the left edge
        np.array([1.0, 2, 1, 3, 1, 2, 1, 9]),       # ... and at the right edge
        np.array([0.0, 2, 2, 1, 2, 0, 2, 1, 2, 2, 0]),
    ]
    for _ in range(30):
        n = int(rng.integers(3, 400))
        signals.append(rng.normal(size=n))
        signals.append(np.round(rng.normal(size=n), 1))
        signals.append(np.round(np.cumsum(rng.normal(size=n)), 0))
        t = np.arange(n) / 64.0
        bvp = np.sin(2 * np.pi * rng.uniform(0.8, 2.5) * t) + 0.2 * rng.normal(size=n)
        signals.append(bvp)
        signals.append(np.round(bvp, 1))
    return signals


class TestFeatureConfig:
    @pytest.mark.parametrize("name", ["scr_min_prominence", "scr_min_distance_s",
                                      "scr_tonic_window_s", "bvp_min_rr_s",
                                      "bvp_prominence_factor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_is_config_error(self, name, value):
        with pytest.raises(ConfigError, match=name):
            F.FeatureConfig(**{name: value})

    def test_zero_tonic_window_is_config_error(self):
        with pytest.raises(ConfigError, match="scr_tonic_window_s"):
            F.FeatureConfig(scr_tonic_window_s=0.0)
        F.FeatureConfig(scr_min_prominence=0.0, scr_min_distance_s=0.0,
                        bvp_min_rr_s=0.0, bvp_prominence_factor=0.0)

    def test_spacing_past_the_window_acts_as_the_window(self):
        # 1e308 s times the rate overflows float64; it must count as the
        # window's own length, which lets only the tallest peak stay.
        rng = np.random.default_rng(3)
        y = np.cumsum(rng.normal(size=256))
        huge = F.FeatureConfig(scr_min_distance_s=1e308, bvp_min_rr_s=1e308)
        whole = F.FeatureConfig(scr_min_distance_s=256 / 4.0, bvp_min_rr_s=256 / 64.0)
        assert F.scr_peak_count(y, 4.0, huge) == F.scr_peak_count(y, 4.0, whole) <= 1
        peaks = F.detect_bvp_peaks(y, 64.0, huge)
        assert np.array_equal(peaks, F.detect_bvp_peaks(y, 64.0, whole))
        assert len(peaks) == 1


class TestPeakKernels:
    def test_prominences_equal_scipy(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        for y in _peak_fuzz_set():
            peaks = F.local_maxima(y)
            if len(peaks) == 0:
                continue
            ref, _, _ = scipy_signal.peak_prominences(y, peaks)
            assert np.array_equal(F.peak_prominences(y, peaks), ref)

    def test_prominences_bit_equal_flank_walk(self):
        rng = np.random.default_rng(21)
        signals = _peak_fuzz_set()
        # Signed zeros on plateaus: a zero prominence keeps the walk's sign.
        signals.append(rng.integers(-1, 2, size=300) * rng.choice([0.0, -0.0, 1.0], size=300))
        for y in signals:
            peaks = np.unique(rng.integers(0, len(y), size=8))
            for idx in (F.local_maxima(y), peaks):
                got = F.peak_prominences(y, idx)
                assert got.tobytes() == _reference_prominences(y, idx).tobytes()

    def test_no_peaks(self):
        assert F.peak_prominences(np.arange(5.0), np.empty(0, dtype=int)).shape == (0,)

    @pytest.mark.parametrize("min_distance", [1, 2, 5, 21])
    def test_select_peaks_equals_reference_thinning(self, min_distance):
        for y in _peak_fuzz_set():
            for prominence in (0.0, 0.3):
                got = F.select_peaks(y, prominence, min_distance)
                ref = _reference_select_peaks(y, prominence, min_distance)
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)


class TestEdaFeatures:
    def test_constant_window(self):
        mean, std, slope, peaks = F.eda_features(np.full(120, 0.3), 4.0)
        assert mean == pytest.approx(0.3)
        assert std == pytest.approx(0.0, abs=1e-15)
        assert slope == 0.0
        assert peaks == 0

    def test_linear_ramp(self):
        t = np.arange(0, 30, 0.25)
        mean, std, slope, peaks = F.eda_features(0.01 * t, 4.0)
        assert abs(slope - 0.01) < 1e-12
        assert peaks == 0

    def test_bump_trace(self):
        t = np.arange(0, 30, 0.25)
        trace = 0.3 + 0.5 * np.exp(-0.5 * ((t - 15) / 1.5) ** 2)
        mean, std, slope, peaks = F.eda_features(trace, 4.0)
        assert peaks == 1
        assert std > 0


class TestTempFeatures:
    def test_constant(self):
        assert F.temp_features(np.full(120, 33.0)) == (33.0, 0.0)

    def test_two_point(self):
        assert F.temp_features(np.array([32.0, 34.0])) == (33.0, 1.0)

    def test_population_std(self):
        mean, std = F.temp_features(np.array([31.0, 33.0, 35.0]))
        assert mean == 33.0
        assert abs(std - 1.63299316) < 1e-6


class TestHrv:
    def test_constant_intervals(self):
        sdnn, rmssd = F.hrv_metrics(np.full(10, 0.8))
        assert sdnn == 0.0 and rmssd == 0.0

    def test_hand_case(self):
        sdnn, rmssd = F.hrv_metrics(np.array([0.8, 0.85, 0.8, 0.85]))
        assert abs(rmssd - 0.05) < 1e-12
        assert abs(sdnn - 0.028867513) < 1e-8

    def test_hr_stats_population(self):
        hr_mean, hr_std, _, _ = F.hrv_from_ibi(
            np.array([70.0, 72.0, 74.0]), np.array([0.8, 0.85]))
        assert hr_mean == 72.0
        assert abs(hr_std - 1.63299316) < 1e-6

    def test_insufficient_beats(self):
        with pytest.raises(InsufficientBeats):
            F.hrv_metrics(np.array([0.8]))

    def test_thousand_random_lists_match_direct_formulas(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            d = rng.uniform(0.4, 1.4, size=n)
            sdnn, rmssd = F.hrv_metrics(d)
            mean = sum(d) / n
            sdnn_ref = math.sqrt(sum((v - mean) ** 2 for v in d) / (n - 1))
            diffs = [d[i + 1] - d[i] for i in range(n - 1)]
            rmssd_ref = math.sqrt(sum(v * v for v in diffs) / len(diffs))
            assert abs(sdnn - sdnn_ref) < 1e-12
            assert abs(rmssd - rmssd_ref) < 1e-12


class TestBvpPeaks:
    def test_constant_no_peaks(self):
        assert len(F.detect_bvp_peaks(np.full(640, 1.0), 64.0)) == 0

    def test_sinusoid_count_and_spacing(self):
        t = np.arange(0, 10, 1 / 64)
        peaks = F.detect_bvp_peaks(np.sin(2 * np.pi * 1.2 * t), 64.0)
        assert len(peaks) == 12
        assert np.all(np.abs(np.diff(peaks) - 0.8333) < 0.04)

    def test_refractory_suppression_at_high_rate(self):
        t = np.arange(0, 10, 1 / 64)
        peaks = F.detect_bvp_peaks(np.sin(2 * np.pi * 3.5 * t), 64.0)
        assert len(peaks) <= math.floor(10 / 0.33)
        assert np.all(np.diff(peaks) >= 0.33)

    def test_timestamps_offset_by_start(self):
        t = np.arange(0, 10, 1 / 64)
        a = F.detect_bvp_peaks(np.sin(2 * np.pi * 1.0 * t), 64.0, start_epoch=0.0)
        b = F.detect_bvp_peaks(np.sin(2 * np.pi * 1.0 * t), 64.0, start_epoch=50.0)
        assert np.allclose(b - a, 50.0)


class TestHrvFromPeaks:
    def test_equally_spaced(self):
        assert F.hrv_from_peaks(np.arange(13) * 0.5) == (0.0, 0.0)

    def test_hand_case(self):
        sdnn, rmssd = F.hrv_from_peaks(np.array([0.0, 0.8, 1.65, 2.45]))
        assert abs(rmssd - 0.05) < 1e-12
        assert abs(sdnn - 0.028867513) < 1e-8

    def test_two_peaks_insufficient(self):
        with pytest.raises(InsufficientBeats):
            F.hrv_from_peaks(np.array([0.0, 0.8]))

    def test_jitter_scales_to_zero(self):
        rng = np.random.default_rng(3)
        base = np.cumsum(np.full(30, 0.8))
        for delta in (0.0, 1e-6, 1e-3):
            peaks = base + rng.uniform(-delta, delta, size=30)
            sdnn, rmssd = F.hrv_from_peaks(np.sort(peaks))
            assert sdnn <= 2.5 * delta + 1e-15
            assert rmssd <= 4 * delta + 1e-15


class TestBvpFeatures:
    def test_constant(self):
        assert F.bvp_features(np.full(100, 3.3)) == (0.0, 0.0)

    def test_sinusoid_energy(self):
        t = np.arange(0, 10, 1 / 64)
        a = 0.7
        amp, energy = F.bvp_features(a * np.sin(2 * np.pi * 1.2 * t))
        assert abs(energy - a * a / 2) < 1e-3

    def test_square_wave(self):
        a = 0.5
        wave = a * np.tile([1.0, -1.0], 200)
        amp, energy = F.bvp_features(wave)
        assert abs(amp - a) < 1e-12
        assert abs(energy - a * a) < 1e-12


class TestAccFeatures:
    def test_still_wrist(self):
        n = 960
        out = F.acc_features(np.full(n, 1.0), np.zeros(n), np.zeros(n))
        assert out == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_alternating_axis(self):
        y = np.tile([1.0, -1.0], 480)
        out = F.acc_features(np.zeros(960), y, np.zeros(960))
        assert out[2] == 0.0 and out[3] == 1.0

    def test_hand_population_std(self):
        out = F.acc_features(np.array([0.0, 1.0, 2.0]), np.zeros(3), np.zeros(3))
        assert out[0] == 1.0
        assert abs(out[1] - 0.81649658) < 1e-6


def _window(label="a", with_bvp=True, ibi=(0.8, 0.85, 0.8)):
    rng = np.random.default_rng(4)
    samples = {
        "EDA": 0.3 + 0.01 * rng.normal(size=120),
        "TEMP": 33.0 + 0.01 * rng.normal(size=120),
        "HR": 70.0 + rng.normal(size=30),
        "ACC_X": rng.normal(size=960) * 0.01,
        "ACC_Y": rng.normal(size=960) * 0.01,
        "ACC_Z": 1.0 + rng.normal(size=960) * 0.01,
    }
    rates = {"EDA": 4.0, "TEMP": 4.0, "HR": 1.0,
             "ACC_X": 32.0, "ACC_Y": 32.0, "ACC_Z": 32.0}
    if with_bvp:
        t = np.arange(0, 30, 1 / 64)
        samples["BVP"] = np.sin(2 * np.pi * 1.2 * t)
        rates["BVP"] = 64.0
    return Window("s1", 0.0, 30.0, samples, rates, np.array(ibi), label)


class TestAssemble:
    def test_exam_schema_has_18_values(self):
        fv = F.assemble(_window(), F.SCHEMA_PRESETS["exam_18"])
        assert len(fv.values) == 18
        assert np.all(np.isfinite(fv.values))

    def test_stress_14_variant(self):
        fv = F.assemble(_window(with_bvp=False), F.SCHEMA_PRESETS["stress_14"])
        assert len(fv.values) == 14

    @pytest.mark.parametrize("channel, feature", [
        ("TEMP", "temp_mean"), ("ACC_Y", "acc_x_mean")])
    def test_missing_required_modality(self, channel, feature):
        w = _window()
        del w.samples[channel]
        with pytest.raises(MissingRequiredModality,
                           match=f"{feature} needs channel {channel}"):
            F.assemble(w, F.SCHEMA_PRESETS["stress_16"])

    def test_optional_hrv_marked_absent(self):
        fv = F.assemble(_window(ibi=(0.8,)), F.SCHEMA_PRESETS["stress_16"])
        names = F.SCHEMA_PRESETS["stress_16"].names
        assert math.isnan(fv.values[names.index("sdnn")])
        assert math.isnan(fv.values[names.index("rmssd")])
        finite = [v for i, v in enumerate(fv.values)
                  if names[i] not in ("sdnn", "rmssd")]
        assert np.all(np.isfinite(finite))

    def test_reversal_determinism_and_permutation_invariance(self):
        w = _window()
        fv1 = F.assemble(w, F.SCHEMA_PRESETS["exam_18"])
        # reverse then re-reverse every slice: identical output
        for ch in w.samples:
            w.samples[ch] = w.samples[ch][::-1][::-1]
        fv2 = F.assemble(w, F.SCHEMA_PRESETS["exam_18"])
        assert np.array_equal(fv1.values, fv2.values)
        # mean/std features are permutation-invariant
        rng = np.random.default_rng(5)
        w3 = _window()
        for ch in ("TEMP", "ACC_X", "ACC_Y", "ACC_Z"):
            w3.samples[ch] = rng.permutation(w3.samples[ch])
        fv3 = F.assemble(w3, F.SCHEMA_PRESETS["exam_18"])
        names = F.SCHEMA_PRESETS["exam_18"].names
        for feat in ("temp_mean", "temp_std", "acc_x_mean", "acc_x_std",
                     "acc_y_mean", "acc_y_std", "acc_z_mean", "acc_z_std"):
            i = names.index(feat)
            assert abs(fv3.values[i] - fv1.values[i]) < 1e-9


    @pytest.mark.parametrize("schema, function, window", [
        ("cogload_16", "detect_bvp_peaks", dict(ibi=(0.8, 0.85, 0.8))),
        ("stress_16", "hrv_metrics", dict(ibi=(0.8,))),
    ], ids=["flat-bvp", "one-beat-ibi"])
    def test_family_that_raises_is_computed_once(self, monkeypatch, schema,
                                                 function, window):
        w = _window(**window)
        w.samples["BVP"] = np.zeros_like(w.samples["BVP"])
        calls = []
        original = getattr(F, function)
        monkeypatch.setattr(F, function,
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        fv = F.assemble(w, F.SCHEMA_PRESETS[schema])
        assert len(calls) == 1
        assert np.isnan(fv.values).sum() == 2


#: Every feature as (name, modality, unit, optional), in registry order.
FEATURE_GOLDEN = [
    ("eda_mean", "EDA", "z", False), ("eda_std", "EDA", "z", False),
    ("eda_slope", "EDA", "z/s", False), ("eda_scr_count", "EDA", "count", False),
    ("temp_mean", "TEMP", "z", False), ("temp_std", "TEMP", "z", False),
    ("hr_mean", "HR", "z", False), ("hr_std", "HR", "z", False),
    ("sdnn", "HR", "s", True), ("rmssd", "HR", "s", True),
    ("bvp_sdnn", "HRV", "s", True), ("bvp_rmssd", "HRV", "s", True),
    ("bvp_amp", "BVP", "z", False), ("bvp_energy", "BVP", "z^2", False),
    ("acc_x_mean", "ACC", "g", False), ("acc_x_std", "ACC", "g", False),
    ("acc_y_mean", "ACC", "g", False), ("acc_y_std", "ACC", "g", False),
    ("acc_z_mean", "ACC", "g", False), ("acc_z_std", "ACC", "g", False),
]

_EDA = ["eda_mean", "eda_std", "eda_slope", "eda_scr_count"]
_TEMP = ["temp_mean", "temp_std"]
_ACC = ["acc_x_mean", "acc_x_std", "acc_y_mean", "acc_y_std", "acc_z_mean", "acc_z_std"]

PRESET_GOLDEN = {
    "stress_14": _EDA + _TEMP + ["sdnn", "rmssd"] + _ACC,
    "stress_16": _EDA + _TEMP + ["hr_mean", "hr_std", "sdnn", "rmssd"] + _ACC,
    "exam_18": _EDA + _TEMP + ["hr_mean", "hr_std", "sdnn", "rmssd"] + _ACC
    + ["bvp_amp", "bvp_energy"],
    "cogload_16": _EDA + _TEMP + ["bvp_sdnn", "bvp_rmssd"] + _ACC
    + ["bvp_amp", "bvp_energy"],
}


class TestRegistry:
    def test_feature_defs_golden(self):
        got = [(f.name, f.modality, f.unit, f.optional) for f in F.FEATURE_DEFS.values()]
        assert got == FEATURE_GOLDEN
        assert all(name == f.name for name, f in F.FEATURE_DEFS.items())

    def test_preset_names_golden(self):
        assert {name: s.names for name, s in F.SCHEMA_PRESETS.items()} == PRESET_GOLDEN
        assert all(s.name == name for name, s in F.SCHEMA_PRESETS.items())


class TestSchema:
    def test_preset_lengths_in_contract(self):
        for name, schema in F.SCHEMA_PRESETS.items():
            assert 10 <= len(schema) <= 18, name

    def test_duplicate_names_rejected(self):
        f = F.FEATURE_DEFS["eda_mean"]
        with pytest.raises(SchemaMismatch):
            F.FeatureSchema("bad", tuple([f] * 12))

    def test_csv_round_trip(self):
        schema = F.SCHEMA_PRESETS["stress_16"]
        windows = [_window(label="x"), _window(label="y")]
        windows[1].subject_id = "s2"
        table = F.build_table(windows, schema)
        text = F.table_to_csv(table)
        back = F.table_from_csv(text)
        assert back.schema.names == schema.names
        assert np.allclose(back.X, table.X, equal_nan=True, rtol=1e-8, atol=1e-12)
        assert list(back.labels) == list(table.labels)

    def test_table_ordering(self):
        ws = []
        for sid, start in (("b", 10.0), ("a", 20.0), ("a", 5.0)):
            w = _window()
            w.subject_id, w.t_start = sid, start
            ws.append(w)
        table = F.build_table(ws, F.SCHEMA_PRESETS["stress_16"])
        assert list(table.subjects) == ["a", "a", "b"]
        assert list(table.window_starts) == [5.0, 20.0, 10.0]
