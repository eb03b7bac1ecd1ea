"""Synthetic multimodal recordings from nonlinear autonomic models.

Heart rate comes from a forced second-order oscillator with state-
dependent damping a0 + a1*x^2 and restoring force b0*x + b1*x^3,
integrated by fixed-step RK4 and affinely mapped into a bpm band. EDA is
a tonic drift plus superposed exponential bursts A*exp(-lambda*(t - t0)),
each fired when a latent mean-reverting (Ornstein-Uhlenbeck) input
crosses its threshold. Temperature relaxes first-order toward a target;
accelerometry is a class-dependent process (sedentary noise, periodic
aerobic motion, sparse anaerobic bursts). BVP is a pulse train driven by
instantaneous heart rate, so peak detection has a ground-truth beat list,
and the same beats feed the IBI stream.

Sessions are labeled either directly per class or by thresholding a
Volterra-style response w1*zE + w2*zH + w3*zT + w4*zA + w5*zE*zH +
w6*zA^2 over per-block latent intensities, which makes the interaction-
dominant preset a continuous XOR analogue that linear models cannot
separate.

The HR forcing offset, EDA level and input shift, TEMP target and ACC
amplitude each follow a block schedule, one value per `block_s` block.

ACC is quantized to the E4's integer counts of 1/64 g, so `write_dataset`
writes `ACC.csv` as integers and the in-memory Recording equals what is
parsed back. The other channels keep full float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ArityMismatch, BlowUp, ConfigError, UnknownClass
from .ingest import (
    ACC_COUNTS_PER_G,
    CHANNELS,
    EventSeries,
    LabelSegment,
    Recording,
    SampledSeries,
)

RATE_EDA = 4.0
RATE_TEMP = 4.0
RATE_HR = 1.0
RATE_BVP = 64.0
RATE_ACC = 32.0

_BLOWUP_NORM = 1e6


@dataclass(frozen=True)
class SynthParams:
    """Generator coefficients; defaults give a stable damped oscillator."""

    # HR oscillator: x'' + (a0 + a1 x^2) x' + (b0 x + b1 x^3) = gamma * drive(t)
    hr_a0: float = 0.8
    hr_a1: float = 0.5
    hr_b0: float = 1.0
    hr_b1: float = 0.1
    hr_gamma: float = 1.0
    hr_drive_amp: float = 0.15
    hr_drive_freq: float = 0.08
    hr_base_bpm: float = 75.0
    hr_span_bpm: float = 20.0
    hr_noise: float = 0.5
    hr_x0: float = 0.0
    hr_v0: float = 0.0
    dt: float = 0.02
    # EDA tonic + burst process
    eda_tonic_base: float = 0.35
    eda_tonic_drift: float = 2e-4
    eda_theta: float = 0.8
    eda_burst_amp: float = 0.25
    eda_decay: float = 0.35
    eda_level_gain: float = 0.15
    ou_rate: float = 0.9
    ou_sigma: float = 0.55
    ou_mean: float = 0.0
    ou_mean_gain: float = 0.9
    # temperature
    temp_base: float = 33.0
    temp_tau: float = 120.0
    temp_gain: float = 0.8
    temp_noise: float = 0.01
    # accelerometer
    acc_noise: float = 0.02
    acc_cadence_hz: float = 1.4
    acc_amp: float = 0.5
    acc_burst_rate_hz: float = 0.4
    acc_burst_amp: float = 1.5
    # HR latent coupling and beat generation
    hr_offset_gain: float = 0.9
    ibi_jitter: float = 0.0
    bvp_pulse_width_s: float = 0.08
    bvp_noise: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0 and self.eda_decay > 0 and self.eda_burst_amp > 0):
            raise BlowUp("need dt > 0, decay > 0, burst amplitude > 0")


@dataclass(frozen=True)
class VolterraCoeffs:
    """Label-function weights over (zE, zH, zT, zA) latent intensities."""

    w1: float = 0.0   # zE
    w2: float = 0.0   # zH
    w3: float = 0.0   # zT
    w4: float = 0.0   # zA
    w5: float = 0.0   # zE * zH interaction
    w6: float = 0.0   # zA^2
    cubic: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    threshold: float = 0.0
    #: Latent draws with |g - threshold| below this margin are redrawn, so
    #: block labels are not dominated by boundary noise.
    label_margin: float = 0.0

    def __post_init__(self):
        terms = (self.w1, self.w2, self.w3, self.w4, self.w5, self.w6) + self.cubic
        if all(t == 0.0 for t in terms):
            raise ArityMismatch("at least one Volterra term must be nonzero")


def volterra_response(z, coeffs: VolterraCoeffs) -> float:
    """Evaluate the nonlinear label function at one latent vector."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (4,):
        raise ArityMismatch(f"latent vector must have 4 entries, got shape {z.shape}")
    ze, zh, zt, za = z
    g = (coeffs.w1 * ze + coeffs.w2 * zh + coeffs.w3 * zt + coeffs.w4 * za
         + coeffs.w5 * ze * zh + coeffs.w6 * za * za)
    c = coeffs.cubic
    if any(c):
        g += c[0] * ze ** 3 + c[1] * zh ** 3 + c[2] * zt ** 3 + c[3] * za ** 3
    return float(g)


# --- channel simulators -------------------------------------------------------


def _block_values(schedule, block_s: float, t: np.ndarray) -> np.ndarray:
    """The schedule's value in force at each time t: that of block
    int(t / block_s), held at the last value past the end, and zeros when
    there is no schedule (None or empty). A block length that is not
    > 0 (NaN included) raises BlowUp."""
    if not block_s > 0:
        raise BlowUp("block length must be > 0 s")
    if schedule is None or len(schedule) == 0:
        return np.zeros(len(t))
    block = np.minimum((t / block_s).astype(np.int64), len(schedule) - 1)
    return np.asarray(schedule, dtype=np.float64)[block]


def _integrate_hr(params: SynthParams, duration_s: float, seed: int,
                  offsets: np.ndarray | None, block_s: float) -> np.ndarray:
    """RK4 integration of the oscillator, sampled at 1 Hz (state x), under
    the forcing gamma * (drive(t) + the block offset in force at t)."""
    rng = np.random.default_rng([seed, 1])
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    a0, a1, b0, b1 = params.hr_a0, params.hr_a1, params.hr_b0, params.hr_b1
    gamma, amp, freq = params.hr_gamma, params.hr_drive_amp, params.hr_drive_freq
    dt = params.dt
    two_pi_f = 2.0 * math.pi * freq
    n_steps = int(round(duration_s / dt))
    n_out = int(duration_s)
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0

    # The forcing gamma * drive(t) does not depend on the state, so it is
    # tabulated for every step's stage times (stages 2 and 3 share t_mid).
    # Elementwise numpy arithmetic rounds as the scalar expressions do;
    # the sines stay on math.sin, since np.sin may differ from libm.
    t = np.arange(n_steps + 1) * dt

    def forcing(ts: np.ndarray) -> list[float]:
        drive = np.array(list(map(math.sin, (two_pi_f * ts + phase).tolist())))
        return (gamma * (amp * drive + _block_values(offsets, block_s, ts))).tolist()

    F1, F23, F4 = forcing(t), forcing(t + half_dt), forcing(t + dt)
    # Sample k is the state at the first step with t + 1e-9 >= k, taken at
    # most once per step: step s_k = max(s_{k-1} + 1, first_k), i.e.
    # k + the running max of first_j - j.
    k = np.arange(n_out)
    first = np.searchsorted(t + 1e-9, k, side="left")
    at = k + np.maximum.accumulate(first - k)
    take = np.zeros(n_steps + 1, dtype=bool)
    take[at[at <= n_steps]] = True
    samples = []
    x, v = params.hr_x0, params.hr_v0
    B = _BLOWUP_NORM

    # Python floats: numpy scalars would make every RK4 stage several times
    # slower for the same IEEE results.
    try:
        for step, f1, f23, f4, sample in zip(range(n_steps + 1), F1, F23, F4,
                                              take.tolist()):
            if sample:
                samples.append(x)
            # four comparisons in place of abs(): NaN still compares False
            if x > B or x < -B or v > B or v < -B:
                raise BlowUp(f"oscillator state exceeded {B} at t={step * dt:.2f}")
            # x'' = gamma * drive(t) - (a0 + a1 x^2) x' - (b0 x + b1 x^3)
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
        # a finite stage estimate whose cube exceeds the float range
        raise BlowUp(f"oscillator state overflowed at t={step * dt:.2f}") from exc
    return np.array(samples + [x] * (n_out - len(samples)), dtype=np.float64)


def simulate_hr(params: SynthParams, duration_s: float, seed: int,
                offsets: np.ndarray | None = None, block_s: float = math.inf,
                start_epoch: float = 0.0) -> SampledSeries:
    """Heart rate at 1 Hz: oscillator state mapped into a bpm band. The
    forcing's offset follows the block schedule `offsets`."""
    if duration_s < 1:
        raise BlowUp("duration must be >= 1 s")
    x = _integrate_hr(params, duration_s, seed, offsets, block_s)
    bpm = params.hr_base_bpm + params.hr_span_bpm * x
    if params.hr_noise > 0:
        rng = np.random.default_rng([seed, 2])
        bpm = bpm + rng.normal(scale=params.hr_noise, size=len(bpm))
    return SampledSeries(start_epoch, RATE_HR, bpm)


def simulate_eda_detailed(params: SynthParams, duration_s: float, seed: int,
                          level_offsets: np.ndarray | None = None,
                          u_shifts: np.ndarray | None = None,
                          block_s: float = math.inf,
                          start_epoch: float = 0.0,
                          ) -> tuple[SampledSeries, np.ndarray, np.ndarray]:
    """EDA trace plus its burst onset times and the tonic component. The
    tonic level and the OU input's mean follow the block schedules
    `level_offsets` and `u_shifts`."""
    rng = np.random.default_rng([seed, 3])
    n = int(round(duration_s * RATE_EDA))
    t = np.arange(n) / RATE_EDA
    levels = _block_values(level_offsets, block_s, t)
    shifts = _block_values(u_shifts, block_s, t)

    # latent OU input driving threshold crossings
    dt = 1.0 / RATE_EDA
    noise = rng.normal(scale=params.ou_sigma * math.sqrt(dt), size=n)
    # Python floats, not numpy scalars: the same IEEE results, faster
    ou_mean, ou_rate = params.ou_mean, params.ou_rate
    u = []
    u_prev = ou_mean
    for shift, eps in zip(shifts.tolist(), noise.tolist()):
        target = ou_mean + shift
        u_prev = u_prev + ou_rate * (target - u_prev) * dt + eps
        u.append(u_prev)
    u = np.array(u, dtype=np.float64)
    above = u > params.eda_theta
    crossings = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    burst_times = t[crossings]

    tonic = params.eda_tonic_base + params.eda_tonic_drift * t + levels
    trace = tonic.copy()
    for t0 in burst_times:
        mask = t >= t0
        trace[mask] += params.eda_burst_amp * np.exp(-params.eda_decay * (t[mask] - t0))
    return SampledSeries(start_epoch, RATE_EDA, trace), burst_times, tonic


def simulate_eda(params: SynthParams, duration_s: float, seed: int,
                 start_epoch: float = 0.0) -> SampledSeries:
    series, _, _ = simulate_eda_detailed(params, duration_s, seed,
                                         start_epoch=start_epoch)
    return series


def simulate_temp(params: SynthParams, duration_s: float, seed: int,
                  target_offsets: np.ndarray | None = None,
                  block_s: float = math.inf,
                  start_epoch: float = 0.0) -> SampledSeries:
    """First-order relaxation toward temp_base plus the block schedule
    `target_offsets`."""
    rng = np.random.default_rng([seed, 4])
    n = int(round(duration_s * RATE_TEMP))
    t = np.arange(n) / RATE_TEMP
    dt = 1.0 / RATE_TEMP
    T = params.temp_base
    targets = params.temp_base + _block_values(target_offsets, block_s, t)
    # Python floats, not numpy scalars: the same IEEE results, faster
    tau = params.temp_tau
    temps = []
    for target in targets.tolist():
        T = T + (target - T) * dt / tau
        temps.append(T)
    temps = np.array(temps, dtype=np.float64)
    if params.temp_noise > 0:
        temps = temps + rng.normal(scale=params.temp_noise, size=n)
    return SampledSeries(start_epoch, RATE_TEMP, temps)


ACC_CLASSES = ("sedentary", "aerobic", "anaerobic")


def simulate_acc(params: SynthParams, acc_class: str, duration_s: float, seed: int,
                 intensity: float = 1.0, start_epoch: float = 0.0,
                 ) -> tuple[SampledSeries, SampledSeries, SampledSeries]:
    """Class-dependent tri-axial motion at 32 Hz, in g units."""
    if acc_class not in ACC_CLASSES:
        raise UnknownClass(f"acc class {acc_class!r} not in {ACC_CLASSES}")
    rng = np.random.default_rng([seed, 5])
    n = int(round(duration_s * RATE_ACC))
    t = np.arange(n) / RATE_ACC
    base = np.array([0.0, 0.0, 1.0])  # still wrist: gravity on z
    xyz = np.tile(base, (n, 1))
    if params.acc_noise > 0:
        xyz += rng.normal(scale=params.acc_noise, size=(n, 3))
    if acc_class == "aerobic":
        phase = rng.uniform(0, 2 * math.pi, size=3)
        amp = params.acc_amp * intensity
        for j in range(3):
            xyz[:, j] += amp * (0.4 + 0.6 * (j == 0)) * np.sin(
                2 * math.pi * params.acc_cadence_hz * t + phase[j]
            )
    elif acc_class == "anaerobic":
        n_bursts = rng.poisson(params.acc_burst_rate_hz * duration_s)
        starts = rng.uniform(0, duration_s, size=n_bursts)
        for t0 in starts:
            j = int(rng.integers(0, 3))
            width = 0.25
            mask = (t >= t0) & (t < t0 + width)
            xyz[mask, j] += params.acc_burst_amp * intensity * np.sin(
                math.pi * (t[mask] - t0) / width
            )
    return tuple(
        SampledSeries(start_epoch, RATE_ACC, xyz[:, j].copy()) for j in range(3)
    )


def _acc_intensity(params: SynthParams, z: np.ndarray, duration_s: float,
                   seed: int, block_s: float, start_epoch: float):
    """Threshold-mode motion: the sinusoid amplitude follows the block
    schedule z."""
    rng = np.random.default_rng([seed, 5])
    n = int(round(duration_s * RATE_ACC))
    t = np.arange(n) / RATE_ACC
    amp = params.acc_amp * (1.0 + 0.8 * _block_values(z, block_s, t))
    phase = rng.uniform(0, 2 * math.pi, size=3)
    xyz = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
    xyz += rng.normal(scale=params.acc_noise, size=(n, 3))
    for j in range(3):
        xyz[:, j] += amp * (0.4 + 0.6 * (j == 0)) * np.sin(
            2 * math.pi * params.acc_cadence_hz * t + phase[j]
        )
    return tuple(
        SampledSeries(start_epoch, RATE_ACC, xyz[:, j].copy()) for j in range(3)
    )


def beats_from_hr(hr: SampledSeries, params: SynthParams, seed: int,
                  duration_s: float) -> np.ndarray:
    """Beat onset times (relative seconds) by integrating instantaneous HR."""
    rng = np.random.default_rng([seed, 6])
    beats = []
    t = 0.25
    bpm = np.clip(hr.values, 30.0, 220.0)
    while t < duration_s - 0.25:
        beats.append(t)
        rate = bpm[min(int(t), len(bpm) - 1)]
        step = 60.0 / rate
        if params.ibi_jitter > 0:
            step = max(0.25, step + rng.normal(scale=params.ibi_jitter))
        t += step
    return np.asarray(beats)


def bvp_from_beats(beats: np.ndarray, params: SynthParams, duration_s: float,
                   seed: int, start_epoch: float = 0.0) -> SampledSeries:
    """Pulse train: one smooth systolic bump per beat."""
    n = int(round(duration_s * RATE_BVP))
    t = np.arange(n) / RATE_BVP
    wave = np.zeros(n)
    width = params.bvp_pulse_width_s
    for tb in beats:
        lo = max(0, int((tb - 3 * width) * RATE_BVP))
        hi = min(n, int((tb + 3 * width) * RATE_BVP) + 1)
        wave[lo:hi] += np.exp(-0.5 * ((t[lo:hi] - tb) / width) ** 2)
    if params.bvp_noise > 0:
        rng = np.random.default_rng([seed, 7])
        wave = wave + rng.normal(scale=params.bvp_noise, size=n)
    return SampledSeries(start_epoch, RATE_BVP, wave)


# --- session assembly -----------------------------------------------------------


@dataclass(frozen=True)
class ClassEffects:
    """Direct-mode per-class modulation of the latent drivers."""

    eda_level: float = 0.0
    eda_u_shift: float = 0.0
    hr_offset: float = 0.0
    temp_offset: float = 0.0
    acc_class: str = "sedentary"
    acc_intensity: float = 1.0


DIRECT_CLASS_TABLE = {
    "stress": ClassEffects(eda_level=0.12, eda_u_shift=0.9, hr_offset=0.35,
                           temp_offset=-0.3, acc_class="sedentary"),
    "aerobic": ClassEffects(eda_level=0.04, eda_u_shift=0.2, hr_offset=0.7,
                            temp_offset=0.5, acc_class="aerobic"),
    "anaerobic": ClassEffects(eda_level=0.02, eda_u_shift=0.1, hr_offset=0.9,
                              temp_offset=0.3, acc_class="anaerobic",
                              acc_intensity=1.3),
    "rest": ClassEffects(),
}


@dataclass(frozen=True)
class SessionSpec:
    """What to synthesize for one session."""

    mode: str = "threshold"                   # "threshold" or "direct"
    classes: tuple[str, ...] = ("neg", "pos")
    block_s: float = 60.0
    duration_s: float = 1230.0
    start_epoch: float = 1_600_000_000.0
    params: SynthParams = field(default_factory=SynthParams)

    def __post_init__(self):
        if self.mode not in ("threshold", "direct"):
            raise UnknownClass(f"unknown session mode {self.mode!r}")
        if self.mode == "direct":
            for c in self.classes:
                if c not in DIRECT_CLASS_TABLE:
                    raise UnknownClass(f"no class effects defined for {c!r}")
        if not self.block_s > 0:   # also rejects NaN
            raise ConfigError(f"block_s must be > 0, got {self.block_s!r}")


def generate_session(spec: SessionSpec, coeffs: VolterraCoeffs | None,
                     seed: int, subject_id: str | None = None) -> Recording:
    """One full synthetic Recording with per-block label segments."""
    params = spec.params
    duration = spec.duration_s
    n_blocks = max(1, int(duration // spec.block_s))
    rng = np.random.default_rng([seed, 10])

    labels: list[str] = []
    eda_levels = np.zeros(n_blocks)
    u_shifts = np.zeros(n_blocks)
    hr_offsets = np.zeros(n_blocks)
    temp_offsets = np.zeros(n_blocks)
    acc_z = np.zeros(n_blocks)

    if spec.mode == "threshold":
        if coeffs is None:
            raise ArityMismatch("threshold mode needs Volterra coefficients")
        for b in range(n_blocks):
            z = rng.uniform(-1.0, 1.0, size=4)
            g = volterra_response(z, coeffs)
            for _ in range(200):
                if abs(g - coeffs.threshold) >= coeffs.label_margin:
                    break
                z = rng.uniform(-1.0, 1.0, size=4)
                g = volterra_response(z, coeffs)
            label = spec.classes[1] if g > coeffs.threshold else spec.classes[0]
            labels.append(label)
            eda_levels[b] = params.eda_level_gain * z[0]
            u_shifts[b] = params.ou_mean_gain * z[0]
            hr_offsets[b] = params.hr_offset_gain * z[1]
            temp_offsets[b] = params.temp_gain * z[2]
            acc_z[b] = z[3]
        acc_series = _acc_intensity(params, acc_z, duration, seed, spec.block_s,
                                    spec.start_epoch)
    else:
        rot = int(rng.integers(0, len(spec.classes)))
        for b in range(n_blocks):
            cls = spec.classes[(b + rot) % len(spec.classes)]
            eff = DIRECT_CLASS_TABLE[cls]
            labels.append(cls)
            eda_levels[b] = eff.eda_level
            u_shifts[b] = eff.eda_u_shift
            hr_offsets[b] = eff.hr_offset
            temp_offsets[b] = eff.temp_offset
        # Motion is generated per block and concatenated.
        parts = [[], [], []]
        for b in range(n_blocks):
            eff = DIRECT_CLASS_TABLE[labels[b]]
            block_len = spec.block_s if b < n_blocks - 1 else duration - spec.block_s * (n_blocks - 1)
            trio = simulate_acc(params, eff.acc_class, block_len, seed * 7919 + b,
                                eff.acc_intensity)
            for j in range(3):
                parts[j].append(trio[j].values)
        acc_series = tuple(
            SampledSeries(spec.start_epoch, RATE_ACC, np.concatenate(parts[j]))
            for j in range(3)
        )
    # The E4 stores ACC as integer counts of 1/64 g: quantize each axis once,
    # so the Recording equals what ACC.csv parses back to (+ 0.0 makes -0.0
    # a plain 0 count).
    acc_series = tuple(
        SampledSeries(s.start_epoch, s.rate_hz,
                      (np.round(s.values * ACC_COUNTS_PER_G) + 0.0) / ACC_COUNTS_PER_G)
        for s in acc_series
    )

    hr = simulate_hr(params, duration, seed, hr_offsets, spec.block_s,
                     spec.start_epoch)
    eda, _, _ = simulate_eda_detailed(params, duration, seed, eda_levels, u_shifts,
                                      spec.block_s, spec.start_epoch)
    temp = simulate_temp(params, duration, seed, temp_offsets, spec.block_s,
                         spec.start_epoch)
    beats = beats_from_hr(hr, params, seed, duration)
    bvp = bvp_from_beats(beats, params, duration, seed, spec.start_epoch)
    ibi = EventSeries(spec.start_epoch, beats[1:], np.diff(beats))

    segments = []
    for b, label in enumerate(labels):
        t0 = spec.start_epoch + b * spec.block_s
        t1 = spec.start_epoch + (b + 1) * spec.block_s if b < n_blocks - 1 \
            else spec.start_epoch + duration
        segments.append(LabelSegment(label, t0, t1))

    channels = dict(zip(CHANNELS, (eda, temp, hr, bvp, *acc_series)))
    sid = subject_id if subject_id is not None else f"S{seed:03d}"
    return Recording(subject_id=sid, channels=channels, ibi=ibi,
                     segments=segments, screening={})


# --- dataset presets --------------------------------------------------------------


def preset_interaction() -> tuple[SessionSpec, VolterraCoeffs]:
    """Interaction-dominant labels: sign of zE * zH (continuous XOR)."""
    return SessionSpec(mode="threshold"), VolterraCoeffs(w5=1.0, label_margin=0.15)


def preset_linear() -> tuple[SessionSpec, VolterraCoeffs]:
    """Linearly separable labels from zE + zH."""
    return SessionSpec(mode="threshold"), VolterraCoeffs(w1=1.0, w2=1.0,
                                                         label_margin=0.3)


def preset_direct_3class() -> tuple[SessionSpec, VolterraCoeffs | None]:
    """Class-conditional stress / aerobic / anaerobic sessions."""
    return SessionSpec(mode="direct", classes=("stress", "aerobic", "anaerobic"),
                       duration_s=1230.0), None


PRESETS = {
    "interaction": preset_interaction,
    "linear": preset_linear,
    "stress3": preset_direct_3class,
}


def generate_recordings(preset: str, n_subjects: int, seed: int,
                        duration_s: float | None = None,
                        first: int = 0) -> list[Recording]:
    """In-memory cohort: one session per subject, seeds derived per subject.
    Subjects first .. first + n_subjects - 1 are made, so a slice of a
    cohort equals the same sessions of the whole cohort."""
    if preset not in PRESETS:
        raise UnknownClass(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    spec, coeffs = PRESETS[preset]()
    if duration_s is not None:
        spec = replace(spec, duration_s=duration_s)
    return [
        generate_session(spec, coeffs, seed * 1000 + i, subject_id=f"S{i:03d}")
        for i in range(first, first + n_subjects)
    ]


def write_dataset(out_dir: str | Path, preset: str, n_subjects: int, seed: int,
                  duration_s: float | None = None, jobs: int = 1) -> dict:
    """Write a cohort's sessions in E4 directory format under
    `out_dir/sessions`; returns the manifest document, which the caller
    writes as `out_dir/manifest.json`. Each session is generated and
    written on one of `jobs` forked workers, which sends back only its
    manifest entry."""
    from .ingest import write_session
    from .parallel import map_ordered

    out_dir = Path(out_dir)

    def write_one(i: int) -> dict:
        (rec,) = generate_recordings(preset, 1, seed, duration_s, first=i)
        rel = f"sessions/{rec.subject_id}"
        write_session(out_dir / rel, rec)
        return {
            "subject_id": rec.subject_id,
            "path": rel,
            "segments": [
                {"label": s.label, "t_start": s.t_start, "t_end": s.t_end}
                for s in rec.segments
            ],
        }

    sessions = map_ordered(write_one, range(n_subjects), jobs)
    return {"dataset": f"synthetic-{preset}", "sessions": sessions}
