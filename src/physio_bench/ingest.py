"""Empatica-E4 session parsing and dataset manifests.

On-disk convention per session directory: ``EDA.csv``, ``TEMP.csv``,
``HR.csv``, ``BVP.csv`` are single-channel files whose first line is the
start epoch, second line the sampling rate, and remaining lines one sample
each. ``ACC.csv`` carries three comma-separated columns with a matching
two-line header, raw counts scaled to g by dividing by 64. ``IBI.csv``
lists ``offset_seconds,duration_seconds`` beat events after a header line
whose first field is the start epoch.

A dataset manifest is a single JSON document listing sessions with their
subject ids, paths (relative to the manifest), label segments, and an
optional performance score that auto-derives High/Low labels at the
160-point threshold.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    EmptyStream,
    MalformedHeader,
    ManifestMismatch,
    NoChannels,
    NonFiniteSample,
    RaggedRow,
)

CHANNELS = ("EDA", "TEMP", "HR", "BVP", "ACC_X", "ACC_Y", "ACC_Z")

#: Channels that make up each logical modality.
MODALITY_CHANNELS = {
    "EDA": ("EDA",),
    "TEMP": ("TEMP",),
    "HR": ("HR",),
    "BVP": ("BVP",),
    "ACC": ("ACC_X", "ACC_Y", "ACC_Z"),
}

#: E4 accelerometer raw counts per g.
ACC_COUNTS_PER_G = 64.0

#: Channels screened for constant-value dropout runs.
DROPOUT_CHANNELS = ("EDA", "TEMP", "BVP")
DROPOUT_MIN_SECONDS = 5.0

PERFORMANCE_THRESHOLD = 160.0


@dataclass(frozen=True)
class SampledSeries:
    """Uniformly sampled single-channel signal."""

    start_epoch: float
    rate_hz: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.rate_hz > 0):
            raise MalformedHeader(f"sampling rate must be > 0, got {self.rate_hz}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_epoch(self) -> float:
        return self.start_epoch + len(self.values) / self.rate_hz

    def timestamps(self) -> np.ndarray:
        """Timestamp of sample i is start_epoch + i/rate_hz."""
        return self.start_epoch + np.arange(len(self.values)) / self.rate_hz


@dataclass(frozen=True)
class EventSeries:
    """Event stream (inter-beat intervals): offsets from a start epoch."""

    start_epoch: float
    offsets: np.ndarray
    durations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.float64))
        object.__setattr__(self, "durations", np.asarray(self.durations, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.offsets)

    def times(self) -> np.ndarray:
        return self.start_epoch + self.offsets


@dataclass(frozen=True)
class LabelSegment:
    label: str
    t_start: float
    t_end: float

    def __post_init__(self):
        if not (self.t_start < self.t_end):
            raise ManifestMismatch(
                f"segment [{self.t_start}, {self.t_end}] has t_start >= t_end"
            )


@dataclass
class ChannelScreen:
    present: bool = False
    empty: bool = False
    n_samples: int = 0
    dropout_runs: int = 0


@dataclass
class Recording:
    """One subject session: channel series, optional IBI stream, labels."""

    subject_id: str
    channels: dict[str, SampledSeries]
    ibi: EventSeries | None
    segments: list[LabelSegment]
    screening: dict[str, ChannelScreen] = field(default_factory=dict)
    ibi_dropped: int = 0

    @property
    def span(self) -> tuple[float, float]:
        starts = [s.start_epoch for s in self.channels.values()]
        ends = [s.end_epoch for s in self.channels.values()]
        return min(starts), max(ends)


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise MalformedHeader(f"non-numeric {what}: {text!r}") from None


def _lines(data: bytes | str) -> list[str]:
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return [ln.strip() for ln in text.splitlines()]


def parse_channel(data: bytes | str) -> SampledSeries:
    """Parse a single-channel E4 file: epoch line, rate line, one sample per line."""
    lines = [ln for ln in _lines(data) if ln]
    if len(lines) < 2:
        raise MalformedHeader("file must have a start-epoch line and a rate line")
    start = _parse_float(lines[0].split(",")[0], "start epoch")
    rate = _parse_float(lines[1].split(",")[0], "sampling rate")
    if rate <= 0:
        raise MalformedHeader(f"sampling rate must be > 0, got {rate}")
    values = np.empty(len(lines) - 2)
    for i, ln in enumerate(lines[2:]):
        v = _parse_float(ln, "sample")
        if not math.isfinite(v):
            raise NonFiniteSample(i + 3, ln)
        values[i] = v
    if len(values) == 0:
        raise EmptyStream("no samples after header")
    return SampledSeries(start, rate, values)


def parse_acc(data: bytes | str) -> tuple[SampledSeries, SampledSeries, SampledSeries]:
    """Parse the three-axis ACC file; raw counts are converted to g (/64)."""
    lines = [ln for ln in _lines(data) if ln]
    if len(lines) < 2:
        raise MalformedHeader("ACC file must have epoch and rate header lines")
    starts = [_parse_float(f, "start epoch") for f in lines[0].split(",")]
    rates = [_parse_float(f, "sampling rate") for f in lines[1].split(",")]
    if len(starts) != 3 or len(rates) != 3:
        raise MalformedHeader("ACC header lines must carry three comma-separated fields")
    if any(r <= 0 for r in rates):
        raise MalformedHeader(f"sampling rates must be > 0, got {rates}")
    rows = np.empty((len(lines) - 2, 3))
    for i, ln in enumerate(lines[2:]):
        fields = ln.split(",")
        if len(fields) != 3:
            raise RaggedRow(i + 3, ln)
        for j, f in enumerate(fields):
            v = _parse_float(f, "sample")
            if not math.isfinite(v):
                raise NonFiniteSample(i + 3, ln)
            rows[i, j] = v
    if rows.shape[0] == 0:
        raise EmptyStream("no ACC samples after header")
    rows = rows / ACC_COUNTS_PER_G
    return tuple(
        SampledSeries(starts[j], rates[j], rows[:, j].copy()) for j in range(3)
    )


def parse_ibi(data: bytes | str) -> tuple[EventSeries, int]:
    """Parse the IBI event file.

    Returns the event series plus the number of rows dropped for
    non-monotone offsets (or non-positive durations).
    """
    lines = [ln for ln in _lines(data) if ln]
    if len(lines) < 1:
        raise MalformedHeader("IBI file must have a header line")
    start = _parse_float(lines[0].split(",")[0], "start epoch")
    offsets: list[float] = []
    durations: list[float] = []
    dropped = 0
    last = -math.inf
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 2:
            raise MalformedHeader(f"IBI row must be 'offset,duration': {ln!r}")
        off = _parse_float(fields[0], "offset")
        dur = _parse_float(fields[1], "duration")
        if off <= last or dur <= 0:
            dropped += 1
            continue
        offsets.append(off)
        durations.append(dur)
        last = off
    return EventSeries(start, np.array(offsets), np.array(durations)), dropped


def count_dropout_runs(series: SampledSeries) -> int:
    """Count runs of identical consecutive samples lasting more than 5 s."""
    v = series.values
    if len(v) == 0:
        return 0
    change = np.flatnonzero(np.diff(v) != 0)
    run_ends = np.append(change, len(v) - 1)
    run_starts = np.insert(change + 1, 0, 0)
    run_lengths = run_ends - run_starts + 1
    min_len = max(series.rate_hz, DROPOUT_MIN_SECONDS * series.rate_hz)
    return int(np.sum(run_lengths > min_len))


# --- manifests --------------------------------------------------------------

_SESSION_KEYS = {"subject_id", "path", "segments", "performance_score", "times"}
_SEGMENT_KEYS = {"label", "t_start", "t_end"}
_MANIFEST_KEYS = {"dataset", "segment_times", "sessions", "provenance"}


@dataclass
class ManifestEntry:
    subject_id: str
    path: str
    segments: list[dict]
    performance_score: float | None = None
    times: str = "absolute"  # or "relative": offsets from the EDA start epoch


def load_manifest(path: str | Path) -> tuple[list[ManifestEntry], Path]:
    """Load a dataset manifest; session paths resolve relative to it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise DataError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as e:
        raise DataError(f"manifest is not valid JSON: {e}") from None
    unknown = set(doc) - _MANIFEST_KEYS
    if unknown:
        raise DataError(f"unknown manifest keys: {sorted(unknown)}")
    default_times = doc.get("segment_times", "absolute")
    if default_times not in ("absolute", "relative"):
        raise DataError(f"segment_times must be 'absolute' or 'relative', got {default_times!r}")
    entries = []
    for raw in doc.get("sessions", []):
        unknown = set(raw) - _SESSION_KEYS
        if unknown:
            raise DataError(f"unknown session keys: {sorted(unknown)}")
        if "subject_id" not in raw or "path" not in raw:
            raise DataError("every session needs subject_id and path")
        for seg in raw.get("segments", []):
            if set(seg) - _SEGMENT_KEYS:
                raise DataError(f"unknown segment keys: {sorted(set(seg) - _SEGMENT_KEYS)}")
        entries.append(
            ManifestEntry(
                subject_id=str(raw["subject_id"]),
                path=str(raw["path"]),
                segments=list(raw.get("segments", [])),
                performance_score=raw.get("performance_score"),
                times=raw.get("times", default_times),
            )
        )
    if not entries:
        raise DataError("manifest lists no sessions")
    return entries, path.parent


def _resolve_segments(entry: ManifestEntry, eda_start: float | None,
                      span: tuple[float, float]) -> list[LabelSegment]:
    derived = None
    if entry.performance_score is not None:
        derived = "High" if entry.performance_score >= PERFORMANCE_THRESHOLD else "Low"
    raw_segments = entry.segments
    if not raw_segments:
        if derived is None:
            return []
        # Score-only session: one segment spanning the whole recording.
        return [LabelSegment(derived, span[0], span[1])]
    offset = 0.0
    if entry.times == "relative":
        if eda_start is None:
            raise ManifestMismatch(
                f"session {entry.subject_id}: relative segment times need an EDA channel"
            )
        offset = eda_start
    segments = []
    for seg in raw_segments:
        label = seg.get("label", derived)
        if label is None:
            raise ManifestMismatch(
                f"session {entry.subject_id}: segment lacks a label and no "
                "performance score is given"
            )
        segments.append(
            LabelSegment(str(label), float(seg["t_start"]) + offset, float(seg["t_end"]) + offset)
        )
    segments.sort(key=lambda s: s.t_start)
    for a, b in zip(segments, segments[1:]):
        if b.t_start < a.t_end:
            raise ManifestMismatch(
                f"session {entry.subject_id}: segments "
                f"[{a.t_start},{a.t_end}] and [{b.t_start},{b.t_end}] overlap"
            )
    for seg in segments:
        if seg.t_end <= span[0] or seg.t_start >= span[1]:
            raise ManifestMismatch(
                f"session {entry.subject_id}: segment [{seg.t_start},{seg.t_end}] "
                f"lies outside the recorded span [{span[0]},{span[1]}]"
            )
    return segments


def load_session(dir_path: str | Path, entry: ManifestEntry) -> Recording:
    """Load one session directory into a screened Recording."""
    dir_path = Path(dir_path)
    channels: dict[str, SampledSeries] = {}
    screening = {name: ChannelScreen() for name in CHANNELS}
    screening["IBI"] = ChannelScreen()

    for name in ("EDA", "TEMP", "HR", "BVP"):
        f = dir_path / f"{name}.csv"
        if not f.is_file():
            continue
        screening[name].present = True
        try:
            series = parse_channel(f.read_bytes())
        except EmptyStream:
            screening[name].empty = True
            continue
        channels[name] = series
        screening[name].n_samples = len(series)

    acc_file = dir_path / "ACC.csv"
    if acc_file.is_file():
        for axis in ("ACC_X", "ACC_Y", "ACC_Z"):
            screening[axis].present = True
        try:
            sx, sy, sz = parse_acc(acc_file.read_bytes())
        except EmptyStream:
            for axis in ("ACC_X", "ACC_Y", "ACC_Z"):
                screening[axis].empty = True
        else:
            for axis, series in zip(("ACC_X", "ACC_Y", "ACC_Z"), (sx, sy, sz)):
                channels[axis] = series
                screening[axis].n_samples = len(series)

    ibi = None
    ibi_dropped = 0
    ibi_file = dir_path / "IBI.csv"
    if ibi_file.is_file():
        screening["IBI"].present = True
        ibi, ibi_dropped = parse_ibi(ibi_file.read_bytes())
        screening["IBI"].n_samples = len(ibi)
        if len(ibi) == 0:
            screening["IBI"].empty = True

    if not channels:
        raise NoChannels(f"no usable modality files in {dir_path}")

    for name in DROPOUT_CHANNELS:
        if name in channels:
            screening[name].dropout_runs = count_dropout_runs(channels[name])

    rec = Recording(
        subject_id=entry.subject_id,
        channels=channels,
        ibi=ibi,
        segments=[],
        screening=screening,
        ibi_dropped=ibi_dropped,
    )
    eda_start = channels["EDA"].start_epoch if "EDA" in channels else None
    rec.segments = _resolve_segments(entry, eda_start, rec.span)
    return rec


def load_dataset(manifest_path: str | Path) -> list[Recording]:
    """Load every session listed in a manifest, in manifest order."""
    entries, base = load_manifest(manifest_path)
    return [load_session(base / e.path, e) for e in entries]


# --- E4-format writing (synthetic sessions, round-trip tooling) -------------


def _fmt(v: float) -> str:
    """Shortest decimal representation that reparses to the same float;
    for float64 arrays, `map(repr, a.tolist())` gives the same text."""
    return repr(float(v))


def write_channel(series: SampledSeries) -> str:
    lines = [_fmt(series.start_epoch), _fmt(series.rate_hz)]
    lines.extend(map(repr, series.values.tolist()))
    return "\n".join(lines) + "\n"


def write_acc(x: SampledSeries, y: SampledSeries, z: SampledSeries) -> str:
    # Scale back to raw counts; multiply/divide by 64 is exact in binary fp.
    lines = [
        ",".join(_fmt(s.start_epoch) for s in (x, y, z)),
        ",".join(_fmt(s.rate_hz) for s in (x, y, z)),
    ]
    raw = np.stack([x.values, y.values, z.values], axis=1) * ACC_COUNTS_PER_G
    lines.extend(",".join(map(repr, row)) for row in raw.tolist())
    return "\n".join(lines) + "\n"


def write_ibi(ibi: EventSeries) -> str:
    lines = [f"{_fmt(ibi.start_epoch)}, IBI"]
    lines.extend(
        f"{o!r},{d!r}" for o, d in zip(ibi.offsets.tolist(), ibi.durations.tolist())
    )
    return "\n".join(lines) + "\n"


def write_session(dir_path: str | Path, rec: Recording) -> None:
    """Write a Recording as an E4 session directory (full-precision floats)."""
    dir_path = Path(dir_path)
    os.makedirs(dir_path, exist_ok=True)
    for name in ("EDA", "TEMP", "HR", "BVP"):
        if name in rec.channels:
            (dir_path / f"{name}.csv").write_text(write_channel(rec.channels[name]))
    if all(a in rec.channels for a in ("ACC_X", "ACC_Y", "ACC_Z")):
        (dir_path / "ACC.csv").write_text(
            write_acc(rec.channels["ACC_X"], rec.channels["ACC_Y"], rec.channels["ACC_Z"])
        )
    if rec.ibi is not None:
        (dir_path / "IBI.csv").write_text(write_ibi(rec.ibi))
