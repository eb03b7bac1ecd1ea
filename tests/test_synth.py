"""Synthetic generators: determinism, exactness, convergence, class structure."""

import dataclasses
import math
import re

import numpy as np
import pytest

from physio_bench import synth
from physio_bench.errors import ArityMismatch, BlowUp, ConfigError, UnknownClass
from physio_bench.features import detect_bvp_peaks, scr_peak_count


def _params(**kw):
    return dataclasses.replace(synth.SynthParams(), **kw)


class TestSimulateHr:
    def test_damped_unforced_system_settles(self):
        p = _params(hr_gamma=0.0, hr_a0=1.5, hr_a1=0.0, hr_b1=0.0,
                    hr_noise=0.0, hr_x0=0.3, hr_v0=0.0)
        hr = synth.simulate_hr(p, 240.0, seed=1)
        late = hr.values[-30:]
        assert np.std(late) < 1e-3
        assert abs(np.mean(late) - p.hr_base_bpm) < 0.01

    def test_tiny_step_oracle_agreement(self):
        p = _params(hr_gamma=0.0, hr_a0=1.5, hr_a1=0.2, hr_b1=0.1,
                    hr_noise=0.0, hr_x0=0.4)
        coarse = synth.simulate_hr(p, 120.0, seed=2).values
        fine = synth.simulate_hr(dataclasses.replace(p, dt=p.dt / 100),
                                 120.0, seed=2).values
        assert np.max(np.abs(coarse - fine)) < 1e-6

    def test_halving_dt_self_convergence(self):
        p = _params(hr_noise=0.0)
        a = synth.simulate_hr(p, 180.0, seed=3).values
        b = synth.simulate_hr(dataclasses.replace(p, dt=p.dt / 2),
                              180.0, seed=3).values
        assert np.max(np.abs(a - b)) < 1e-4

    def test_same_seed_identical(self):
        p = synth.SynthParams()
        a = synth.simulate_hr(p, 60.0, seed=4)
        b = synth.simulate_hr(p, 60.0, seed=4)
        assert np.array_equal(a.values, b.values)

    def test_blowup_detected(self):
        p = _params(hr_a0=-3.0, hr_b0=-2.0, hr_b1=0.0, hr_noise=0.0, hr_x0=0.5)
        with pytest.raises(BlowUp):
            synth.simulate_hr(p, 400.0, seed=5)

    def test_overflow_within_one_step_is_blowup(self):
        # the first step's stage estimates overflow before the norm check
        p = _params(hr_b1=1e300, hr_x0=1.0, hr_noise=0.0)
        with pytest.raises(BlowUp):
            synth.simulate_hr(p, 400.0, seed=5)

    def test_block_offsets_shift_the_drive(self):
        p = _params(hr_noise=0.0)
        flat = synth.simulate_hr(p, 120.0, seed=6).values
        empty = synth.simulate_hr(p, 120.0, seed=6, offsets=np.array([])).values
        shifted = synth.simulate_hr(p, 120.0, seed=6, offsets=np.array([0.0, 1.0]),
                                    block_s=60.0).values
        assert np.array_equal(empty, flat)
        assert np.array_equal(shifted[:60], flat[:60])
        assert np.mean(shifted[90:]) > np.mean(flat[90:]) + 1.0


def _integrate_hr_per_step(params, duration_s, seed, offsets, block_s):
    """Reference integrator: the per-step loop that evaluates the forcing
    and the sampling rule inside every RK4 step."""
    rng = np.random.default_rng([seed, 1])
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    a0, a1, b0, b1 = params.hr_a0, params.hr_a1, params.hr_b0, params.hr_b1
    gamma, amp, freq = params.hr_gamma, params.hr_drive_amp, params.hr_drive_freq
    dt = params.dt
    two_pi_f = 2.0 * math.pi * freq
    n_steps = int(round(duration_s / dt))
    samples = np.empty(int(duration_s))
    x, v = params.hr_x0, params.hr_v0
    next_sample = 0
    n_out = len(samples)
    offs = offsets.tolist() or [0.0]
    last = len(offs) - 1
    sin = math.sin
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0

    try:
        for step in range(n_steps + 1):
            t = step * dt
            if next_sample < n_out and t + 1e-9 >= next_sample:
                samples[next_sample] = x
                next_sample += 1
            if abs(x) > synth._BLOWUP_NORM or abs(v) > synth._BLOWUP_NORM:
                raise BlowUp(f"oscillator state exceeded {synth._BLOWUP_NORM} at t={t:.2f}")
            t_mid = t + half_dt
            t_end = t + dt
            f1 = gamma * (amp * sin(two_pi_f * t + phase) + offs[min(int(t / block_s), last)])
            f23 = gamma * (amp * sin(two_pi_f * t_mid + phase)
                           + offs[min(int(t_mid / block_s), last)])
            f4 = gamma * (amp * sin(two_pi_f * t_end + phase)
                          + offs[min(int(t_end / block_s), last)])
            k1x = v
            k1v = f1 - (a0 + a1 * x * x) * v - (b0 * x + b1 * x ** 3)
            xs = x + half_dt * k1x
            k2x = v + half_dt * k1v
            k2v = f23 - (a0 + a1 * xs * xs) * k2x - (b0 * xs + b1 * xs ** 3)
            xs = x + half_dt * k2x
            k3x = v + half_dt * k2v
            k3v = f23 - (a0 + a1 * xs * xs) * k3x - (b0 * xs + b1 * xs ** 3)
            xs = x + dt * k3x
            k4x = v + dt * k3v
            k4v = f4 - (a0 + a1 * xs * xs) * k4x - (b0 * xs + b1 * xs ** 3)
            x += sixth_dt * (k1x + 2 * k2x + 2 * k3x + k4x)
            v += sixth_dt * (k1v + 2 * k2v + 2 * k3v + k4v)
    except OverflowError as exc:
        raise BlowUp(f"oscillator state overflowed at t={t:.2f}") from exc
    if next_sample < n_out:
        samples[next_sample:] = x
    return samples


class TestIntegratorOracle:
    """The tabulated-forcing integrator against the per-step reference, bit
    for bit, through `simulate_hr`."""

    OFFSETS = np.array([0.0, 0.6, -0.4, 0.25])

    @pytest.mark.parametrize("block_s", [60.0, 7.3, math.inf])
    @pytest.mark.parametrize("dt", [0.02, 0.05, 0.3, 1.5])
    def test_bit_equal_to_per_step_loop(self, monkeypatch, dt, block_s):
        p = _params(dt=dt)
        actual = synth.simulate_hr(p, 130.7, 8, self.OFFSETS, block_s).values
        monkeypatch.setattr(synth, "_integrate_hr", _integrate_hr_per_step)
        expected = synth.simulate_hr(p, 130.7, 8, self.OFFSETS, block_s).values
        assert len(actual) == 130
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kw", [
        dict(hr_a0=-3.0, hr_b0=-2.0, hr_b1=0.0, hr_noise=0.0, hr_x0=0.5),
        dict(hr_b1=1e300, hr_x0=1.0, hr_noise=0.0),
    ])
    def test_blowup_message_matches_per_step_loop(self, kw):
        p = _params(**kw)
        offsets = np.array([0.0])
        with pytest.raises(BlowUp) as expected:
            _integrate_hr_per_step(p, 400.0, 5, offsets, math.inf)
        with pytest.raises(BlowUp) as actual:
            synth.simulate_hr(p, 400.0, seed=5)
        assert str(actual.value) == str(expected.value)

    @pytest.mark.parametrize("block_s", [0.0, -60.0, math.nan])
    def test_non_positive_block_length_raises(self, block_s):
        with pytest.raises(BlowUp, match="block length"):
            synth.simulate_hr(_params(), 130.0, 8, self.OFFSETS, block_s)


def _per_sample_schedule(values, block_s, t):
    """Reference lookup: the value of block int(t / block_s) at each time,
    held at the last value past the end."""
    last = len(values) - 1
    return np.array([values[min(int(tk / block_s), last)] for tk in t.tolist()])


class TestBlockScheduleOracle:
    """The per-block TEMP targets, EDA levels and shifts, and ACC amplitude
    against a per-sample lookup, bit for bit."""

    SCHEDULE = np.array([0.0, 0.6, -0.4, 0.25])
    DURATION = 130.7

    @pytest.mark.parametrize("block_s", [60.0, 7.3, math.inf])
    def test_temp_targets(self, block_s):
        p = _params(temp_noise=0.0)
        actual = synth.simulate_temp(p, self.DURATION, 8, self.SCHEDULE, block_s).values
        t = np.arange(int(round(self.DURATION * synth.RATE_TEMP))) / synth.RATE_TEMP
        dt = 1.0 / synth.RATE_TEMP
        T, expected = p.temp_base, []
        for off in _per_sample_schedule(self.SCHEDULE, block_s, t).tolist():
            T = T + (p.temp_base + off - T) * dt / p.temp_tau
            expected.append(T)
        assert actual.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("block_s", [60.0, 7.3, math.inf])
    def test_eda_levels_and_shifts(self, block_s):
        p = _params()
        levels, shifts = 0.5 * self.SCHEDULE, 2.0 * self.SCHEDULE[::-1]
        _, bursts, tonic = synth.simulate_eda_detailed(
            p, self.DURATION, 8, levels, shifts, block_s)
        n = int(round(self.DURATION * synth.RATE_EDA))
        t = np.arange(n) / synth.RATE_EDA
        dt = 1.0 / synth.RATE_EDA
        expected_tonic = (p.eda_tonic_base + p.eda_tonic_drift * t
                          + _per_sample_schedule(levels, block_s, t))
        noise = np.random.default_rng([8, 3]).normal(
            scale=p.ou_sigma * math.sqrt(dt), size=n)
        u, u_prev = [], p.ou_mean
        for shift, eps in zip(_per_sample_schedule(shifts, block_s, t).tolist(),
                              noise.tolist()):
            u_prev = u_prev + p.ou_rate * (p.ou_mean + shift - u_prev) * dt + eps
            u.append(u_prev)
        above = np.array(u) > p.eda_theta
        expected_bursts = t[np.flatnonzero(above[1:] & ~above[:-1]) + 1]
        assert tonic.tobytes() == expected_tonic.tobytes()
        assert len(bursts) > 0
        assert bursts.tobytes() == expected_bursts.tobytes()

    @pytest.mark.parametrize("block_s", [60.0, 7.3, math.inf])
    def test_acc_amplitude(self, block_s):
        p = _params()
        actual = synth._acc_intensity(p, self.SCHEDULE, self.DURATION, 8, block_s, 0.0)
        n = int(round(self.DURATION * synth.RATE_ACC))
        t = np.arange(n) / synth.RATE_ACC
        amp = p.acc_amp * (1.0 + 0.8 * _per_sample_schedule(self.SCHEDULE, block_s, t))
        rng = np.random.default_rng([8, 5])
        phase = rng.uniform(0, 2 * math.pi, size=3)
        xyz = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
        xyz += rng.normal(scale=p.acc_noise, size=(n, 3))
        for j, axis in enumerate(actual):
            expected = xyz[:, j] + amp * (0.4 + 0.6 * (j == 0)) * np.sin(
                2 * math.pi * p.acc_cadence_hz * t + phase[j])
            assert axis.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block_s", [7.3, math.inf])
    def test_missing_empty_and_zero_schedules_agree(self, block_s):
        p = _params()

        def outputs(schedule):
            eda, bursts, tonic = synth.simulate_eda_detailed(
                p, 60.0, 8, schedule, schedule, block_s)
            series = [synth.simulate_hr(p, 60.0, 8, schedule, block_s), eda,
                      synth.simulate_temp(p, 60.0, 8, schedule, block_s),
                      *synth._acc_intensity(p, schedule, 60.0, 8, block_s, 0.0)]
            return [s.values.tobytes() for s in series] + [bursts.tobytes(),
                                                           tonic.tobytes()]

        none = outputs(None)
        assert outputs(np.array([])) == none
        assert outputs(np.zeros(3)) == none


    @pytest.mark.parametrize("block_s", [0.0, -30.0, math.nan])
    @pytest.mark.parametrize("simulate", [
        lambda p, s, b: synth.simulate_eda_detailed(p, 130.0, 8, s, s, b),
        lambda p, s, b: synth.simulate_temp(p, 130.0, 8, s, b),
        lambda p, s, b: synth._acc_intensity(p, s, 130.0, 8, b, 0.0),
    ], ids=["eda", "temp", "acc"])
    def test_non_positive_block_length_raises(self, simulate, block_s):
        with pytest.raises(BlowUp, match="block length"):
            simulate(_params(), self.SCHEDULE, block_s)


class TestSimulateEda:
    def test_subthreshold_input_gives_pure_tonic(self):
        p = _params(eda_theta=50.0)  # unreachable threshold
        series, bursts, tonic = synth.simulate_eda_detailed(p, 120.0, seed=6)
        assert len(bursts) == 0
        assert np.array_equal(series.values, tonic)
        assert scr_peak_count(series.values, 4.0) == 0

    def test_superposition_is_exact(self):
        p = synth.SynthParams()
        series, bursts, tonic = synth.simulate_eda_detailed(p, 300.0, seed=7)
        t = np.arange(len(series)) / 4.0
        recon = tonic.copy()
        for t0 in bursts:
            mask = t >= t0
            recon[mask] += p.eda_burst_amp * np.exp(-p.eda_decay * (t[mask] - t0))
        assert np.max(np.abs(series.values - recon)) < 1e-9

    def test_single_crossing_matches_analytic_exponential(self):
        # strong positive mean pushes u over the threshold once, early; a
        # huge decay-free tail would then follow A*exp(-lambda (t - t0))
        p = _params(ou_sigma=0.0, ou_mean=0.0, ou_rate=2.0, eda_theta=0.5,
                    eda_tonic_drift=0.0)
        shifts = np.array([1.0])
        series, bursts, tonic = synth.simulate_eda_detailed(
            p, 60.0, seed=8, u_shifts=shifts, block_s=60.0)
        assert len(bursts) == 1
        t = np.arange(len(series)) / 4.0
        t0 = bursts[0]
        expected = tonic + np.where(
            t >= t0, p.eda_burst_amp * np.exp(-p.eda_decay * (t - t0)), 0.0)
        assert np.max(np.abs(series.values - expected)) < 1e-12

    def test_isolated_crossings_are_countable_peaks(self):
        # deterministic input crossing the threshold n times, far apart
        p = _params(ou_sigma=0.0, eda_decay=0.8, eda_burst_amp=0.4,
                    eda_tonic_drift=0.0)
        n_target = 4
        block = 40.0
        shifts = np.empty(2 * n_target)
        shifts[0::2] = 1.5   # above theta=0.8
        shifts[1::2] = -1.5  # far below: u must re-cross upward
        series, bursts, _ = synth.simulate_eda_detailed(
            p, block * len(shifts), seed=9, u_shifts=shifts, block_s=block)
        assert len(bursts) == n_target
        assert scr_peak_count(series.values, 4.0,) == n_target

    def test_same_seed_identical(self):
        p = synth.SynthParams()
        a = synth.simulate_eda(p, 90.0, seed=10)
        b = synth.simulate_eda(p, 90.0, seed=10)
        assert np.array_equal(a.values, b.values)


class TestSimulateTempAcc:
    def test_temp_drifts_toward_target(self):
        p = _params(temp_noise=0.0, temp_tau=30.0)
        series = synth.simulate_temp(p, 600.0, seed=11,
                                     target_offsets=np.array([2.0]), block_s=1e9)
        assert abs(series.values[-1] - (p.temp_base + 2.0)) < 0.05
        assert series.values[0] < series.values[-1]

    def test_sedentary_variance_below_aerobic(self):
        p = synth.SynthParams()
        sed_stds, aer_stds = [], []
        for seed in range(100):
            sx, sy, sz = synth.simulate_acc(p, "sedentary", 20.0, seed)
            ax, ay, az = synth.simulate_acc(p, "aerobic", 20.0, seed)
            sed_stds.append(np.std(sx.values))
            aer_stds.append(np.std(ax.values))
        assert np.mean(sed_stds) < np.mean(aer_stds)
        assert np.percentile(sed_stds, 95) < np.percentile(aer_stds, 5)

    def test_aerobic_spectrum_peaks_at_cadence(self):
        p = _params(acc_noise=0.005)
        x, _, _ = synth.simulate_acc(p, "aerobic", 64.0, seed=12)
        spectrum = np.abs(np.fft.rfft(x.values - np.mean(x.values)))
        freqs = np.fft.rfftfreq(len(x.values), d=1.0 / 32.0)
        dominant = freqs[np.argmax(spectrum)]
        assert abs(dominant - p.acc_cadence_hz) < 0.05

    def test_zero_noise_is_deterministic(self):
        p = _params(acc_noise=0.0)
        a = synth.simulate_acc(p, "aerobic", 10.0, seed=13)
        b = synth.simulate_acc(p, "aerobic", 10.0, seed=13)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.values, s2.values)

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            synth.simulate_acc(synth.SynthParams(), "swimming", 10.0, 0)


class TestVolterra:
    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ArityMismatch):
            synth.VolterraCoeffs()

    def test_single_interaction_term(self):
        c = synth.VolterraCoeffs(w5=1.0)
        assert synth.volterra_response([2.0, 3.0, 0.0, 0.0], c) == 6.0

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            synth.volterra_response([1.0, 2.0], synth.VolterraCoeffs(w1=1.0))

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            w = rng.normal(size=6)
            cubic = tuple(rng.normal(size=4))
            c = synth.VolterraCoeffs(*w, cubic=cubic)
            z = rng.normal(size=4)
            expected = (w[0] * z[0] + w[1] * z[1] + w[2] * z[2] + w[3] * z[3]
                        + w[4] * z[0] * z[1] + w[5] * z[3] ** 2
                        + cubic[0] * z[0] ** 3 + cubic[1] * z[1] ** 3
                        + cubic[2] * z[2] ** 3 + cubic[3] * z[3] ** 3)
            assert abs(synth.volterra_response(z, c) - expected) < 1e-12


class TestGenerateSession:
    def test_same_seed_byte_identical(self):
        spec, coeffs = synth.preset_interaction()
        a = synth.generate_session(spec, coeffs, seed=15)
        b = synth.generate_session(spec, coeffs, seed=15)
        for ch in a.channels:
            assert np.array_equal(a.channels[ch].values, b.channels[ch].values)
        assert np.array_equal(a.ibi.offsets, b.ibi.offsets)
        assert [s.label for s in a.segments] == [s.label for s in b.segments]

    def test_interaction_preset_is_continuous_xor(self):
        # class-conditional means of each informative feature nearly match,
        # so no single linear read-out separates the classes
        from physio_bench.features import SCHEMA_PRESETS, build_table
        from physio_bench.windowing import WindowPolicy, segment

        spec, coeffs = synth.preset_interaction()
        windows = []
        for i in range(6):
            rec = synth.generate_session(spec, coeffs, seed=100 + i)
            windows.extend(segment(rec, WindowPolicy(30, 15)))
        table = build_table(windows, SCHEMA_PRESETS["stress_16"])
        labels = np.array([str(v) for v in table.labels], dtype=object)
        names = table.schema.names
        for feat in ("eda_mean", "hr_mean"):
            col = table.X[:, names.index(feat)]
            gap = abs(col[labels == "pos"].mean() - col[labels == "neg"].mean())
            assert gap < 0.35 * np.std(col)

    def test_pulse_train_recovers_beats_exactly(self):
        spec, coeffs = synth.preset_interaction()
        p = dataclasses.replace(spec.params, ibi_jitter=0.0, bvp_noise=0.0,
                                hr_noise=0.0)
        hr = synth.simulate_hr(p, 120.0, seed=16)
        beats = synth.beats_from_hr(hr, p, seed=16, duration_s=120.0)
        bvp = synth.bvp_from_beats(beats, p, 120.0, seed=16)
        peaks = detect_bvp_peaks(bvp.values, 64.0)
        assert len(peaks) == len(beats)  # zero missed, zero spurious
        assert np.max(np.abs(peaks - beats)) < 1.0 / 64.0 + 1e-9

    def test_direct_mode_uses_class_table(self):
        spec, _ = synth.preset_direct_3class()
        spec = dataclasses.replace(spec, duration_s=310.0)
        rec = synth.generate_session(spec, None, seed=17)
        labels = {s.label for s in rec.segments}
        assert labels == {"stress", "aerobic", "anaerobic"}
        assert set(rec.channels) == {"EDA", "TEMP", "HR", "BVP",
                                     "ACC_X", "ACC_Y", "ACC_Z"}

    def test_ten_subject_manifest_lists_ten_balanced_sessions(self, tmp_path):
        doc = synth.write_dataset(tmp_path, "interaction", 10, seed=23,
                                  duration_s=250.0)
        assert len(doc["sessions"]) == 10
        labels = [seg["label"] for sess in doc["sessions"]
                  for seg in sess["segments"]]
        counts = {lab: labels.count(lab) for lab in set(labels)}
        assert set(counts) == {"pos", "neg"}
        assert min(counts.values()) >= 0.2 * len(labels)

    def test_write_dataset_round_trips_through_ingest(self, tmp_path):
        import json

        from physio_bench.ingest import load_dataset

        doc = synth.write_dataset(tmp_path, "interaction", 2, seed=18,
                                  duration_s=130.0)
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        recs = load_dataset(tmp_path / "manifest.json")
        assert len(recs) == 2
        originals = synth.generate_recordings("interaction", 2, seed=18,
                                              duration_s=130.0)
        for orig, rt in zip(originals, recs):
            for ch in orig.channels:
                assert np.array_equal(orig.channels[ch].values,
                                      rt.channels[ch].values)

    @pytest.mark.parametrize("preset", ["interaction", "stress3"])
    def test_written_acc_is_integer_counts(self, tmp_path, preset):
        """ACC.csv holds integer counts of 1/64 g, as on an E4, in both
        generator modes, and the generator's axes, which hold no -0.0,
        parse back bit for bit."""
        from physio_bench.ingest import parse_acc

        synth.write_dataset(tmp_path, preset, 1, seed=18, duration_s=130.0)
        (orig,) = synth.generate_recordings(preset, 1, seed=18, duration_s=130.0)
        text = (tmp_path / "sessions" / orig.subject_id / "ACC.csv").read_text()
        assert all(re.fullmatch(r"-?\d+,-?\d+,-?\d+", row)
                   for row in text.splitlines()[2:])
        for axis, back in zip(("ACC_X", "ACC_Y", "ACC_Z"), parse_acc(text)):
            values = orig.channels[axis].values
            assert back.values.tobytes() == values.tobytes()
            assert not np.signbit(values[values == 0]).any()

    @pytest.mark.parametrize("block_s", [0.0, -60.0, math.nan])
    def test_non_positive_block_length_rejected(self, block_s):
        with pytest.raises(ConfigError, match="block_s"):
            synth.SessionSpec(block_s=block_s)

    def test_shipped_presets_never_blow_up(self):
        for preset in synth.PRESETS:
            recs = synth.generate_recordings(preset, 2, seed=19, duration_s=130.0)
            for r in recs:
                for s in r.channels.values():
                    assert np.all(np.isfinite(s.values))


class TestPresetSeparability:
    def _fit(self, preset, seed, n_subjects=8):
        from physio_bench.evaluation import macro_f1_score, subject_holdout_split
        from physio_bench.features import SCHEMA_PRESETS, build_table
        from physio_bench.models import DataMatrix, TrainConfig, train_model
        from physio_bench.windowing import WindowPolicy, segment

        recs = synth.generate_recordings(preset, n_subjects, seed=seed)
        windows = []
        for r in recs:
            windows.extend(segment(r, WindowPolicy(30.0, 15.0)))
        m = DataMatrix.from_table(build_table(windows, SCHEMA_PRESETS["stress_16"]))
        plan = subject_holdout_split(sorted(set(m.groups)), 0.2, seed)
        tr_s, te_s = plan.folds[0]
        tr = m.subset(m.rows_for_subjects(tr_s))
        te = m.subset(m.rows_for_subjects(te_s))
        out = {}
        for kind in ("boosting", "logistic"):
            model = train_model(tr, TrainConfig(kind=kind, seed=0))
            out[kind] = macro_f1_score(te.labels, model.predict_class(te.X))
        return out

    def test_linear_preset_is_linearly_solvable(self):
        # linear labels: the linear baseline succeeds and the nonlinearity
        # gap collapses
        for seed in (0, 1):
            f1 = self._fit("linear", seed)
            assert f1["logistic"] >= 0.9
            assert f1["boosting"] - f1["logistic"] <= 0.05

    def test_interaction_preset_importance_concentrates_on_eda_hr(self):
        from physio_bench.explain import global_importance, tree_shap
        from physio_bench.features import FEATURE_DEFS, SCHEMA_PRESETS, build_table
        from physio_bench.models import DataMatrix, TrainConfig, train_model
        from physio_bench.windowing import WindowPolicy, segment

        recs = synth.generate_recordings("interaction", 6, seed=21)
        windows = []
        for r in recs:
            windows.extend(segment(r, WindowPolicy(30.0, 15.0)))
        m = DataMatrix.from_table(build_table(windows, SCHEMA_PRESETS["stress_16"]))
        model = train_model(m, TrainConfig(kind="boosting", n_trees=60, seed=0))
        rng = np.random.default_rng(0)
        idx = rng.choice(m.n, size=80, replace=False)
        atts = [tree_shap(model, m.X[i]) for i in idx]
        top3 = [name for name, _ in global_importance(atts)[:3]]
        informative = sum(FEATURE_DEFS[n].modality in ("EDA", "HR") for n in top3)
        assert informative >= 2
