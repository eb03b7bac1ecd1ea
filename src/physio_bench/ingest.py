"""Empatica-E4 session parsing and dataset manifests.

`MODALITY_CHANNELS` is the session layout: ``<modality>.csv`` holds that
modality's channels as columns. A single-channel file's first line is the
start epoch, its second line the sampling rate, and each further line one
sample. ``ACC.csv`` carries the three axes under a matching two-line
header, raw counts (integers of 1/64 g on an E4) scaled to g by dividing
by 64. ``IBI.csv`` lists ``offset_seconds,duration_seconds`` beat events
after a header line whose first field is the start epoch and whose second
is ``IBI``.

All three file kinds share one reader: it skips blank lines, splits off
the header lines and converts the body to a (rows, fields) array in one
call. A blank line between two header lines, or a non-finite header
number, is a `MalformedHeader`. A body row of the
wrong width is a `RaggedRow`, a non-finite value a `NonFiniteSample` and a
non-number a `MalformedHeader`, each naming its physical line. An IBI row
is kept when its duration is positive and its offset exceeds the largest
offset of the earlier rows with a positive duration.

`load_session` reads every E4 file of a session directory, or only the
files a caller names: extraction reads just the files its schema needs.

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
from typing import Collection, NoReturn

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

#: The session layout: each modality's file and its channels, in column order.
MODALITY_CHANNELS = {
    "EDA": ("EDA",),
    "TEMP": ("TEMP",),
    "HR": ("HR",),
    "BVP": ("BVP",),
    "ACC": ("ACC_X", "ACC_Y", "ACC_Z"),
}

CHANNELS = tuple(ch for names in MODALITY_CHANNELS.values() for ch in names)

#: Every E4 file of a session, by stem: the modality files and IBI.
E4_FILES = frozenset({*MODALITY_CHANNELS, "IBI"})

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


def _header_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedHeader(f"non-numeric {what}: {text!r}") from None
    if not math.isfinite(value):
        raise MalformedHeader(f"non-finite {what}: {text!r}")
    return value


def _raise_bad_row(physical: list[str], n_header: int, n_fields: int) -> NoReturn:
    """Raise the typed error of the first malformed body row, numbered by
    its physical line in the file; the first `n_header` non-blank lines
    are the header."""
    rows = 0
    for line_no, ln in enumerate(physical, 1):
        if not ln:
            continue
        rows += 1
        if rows <= n_header:
            continue
        fields = ln.split(",")
        if len(fields) != n_fields:
            raise RaggedRow(line_no, ln)
        for f in fields:
            try:
                value = float(f)
            except ValueError:
                raise MalformedHeader(f"non-numeric sample at line {line_no}: {ln!r}") from None
            if not math.isfinite(value):
                raise NonFiniteSample(line_no, ln)
    raise MalformedHeader("sample body does not parse")


def _read(data: bytes | str, n_header: int, n_fields: int) -> tuple[list[str], np.ndarray]:
    """The header lines of an E4 file, and its body converted in one call
    to a (rows, n_fields) float array. Only LF ends a physical line
    (`str.splitlines` would also split on form feeds inside a row); lines
    are stripped and blank ones skipped, except between the header lines,
    where a blank line is a `MalformedHeader`. A malformed body row makes
    the per-line locator raise its typed error."""
    # The decoded text is a temporary, freed before the body is converted.
    physical = [ln.strip() for ln in
                (data.decode("utf-8") if isinstance(data, bytes) else data).split("\n")]
    lines = [ln for ln in physical if ln]
    if len(lines) < n_header:
        raise MalformedHeader(f"file must have {n_header} header line(s), found {len(lines)}")
    first = physical.index(lines[0])
    if not all(physical[first:first + n_header]):
        raise MalformedHeader(
            f"blank line at line {physical.index('', first) + 1} inside the header")
    body = lines[n_header:]
    if n_fields > 1:
        if any(ln.count(",") != n_fields - 1 for ln in body):
            _raise_bad_row(physical, n_header, n_fields)
        body = ",".join(body).split(",") if body else []
    try:
        values = np.array(body, dtype=np.float64)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        _raise_bad_row(physical, n_header, n_fields)
    return lines[:n_header], values.reshape(-1, n_fields)


def parse_channel(data: bytes | str) -> SampledSeries:
    """Parse a single-channel E4 file: epoch line, rate line, one sample per line."""
    (epoch_line, rate_line), rows = _read(data, 2, 1)
    start = _header_float(epoch_line.split(",")[0], "start epoch")
    rate = _header_float(rate_line.split(",")[0], "sampling rate")
    if rate <= 0:
        raise MalformedHeader(f"sampling rate must be > 0, got {rate}")
    if len(rows) == 0:
        raise EmptyStream("no samples after header")
    return SampledSeries(start, rate, rows[:, 0])


def parse_acc(data: bytes | str) -> tuple[SampledSeries, SampledSeries, SampledSeries]:
    """Parse the three-axis ACC file; raw counts are converted to g (/64)."""
    (epoch_line, rate_line), rows = _read(data, 2, 3)
    starts = [_header_float(f, "start epoch") for f in epoch_line.split(",")]
    rates = [_header_float(f, "sampling rate") for f in rate_line.split(",")]
    if len(starts) != 3 or len(rates) != 3:
        raise MalformedHeader("ACC header lines must carry three comma-separated fields")
    if any(r <= 0 for r in rates):
        raise MalformedHeader(f"sampling rates must be > 0, got {rates}")
    if rows.shape[0] == 0:
        raise EmptyStream("no ACC samples after header")
    return tuple(SampledSeries(s, r, rows[:, j] / ACC_COUNTS_PER_G)
                 for j, (s, r) in enumerate(zip(starts, rates)))


def parse_ibi(data: bytes | str) -> tuple[EventSeries, int]:
    """Parse the IBI event file.

    A row is kept when its duration is positive and its offset exceeds
    every earlier kept offset. That running max is taken over the earlier
    rows with a positive duration: a row dropped for its offset lies below
    it anyway. Returns the event series plus the number of rows dropped.
    A header whose second field is not ``IBI`` is a `MalformedHeader`.
    """
    (header,), rows = _read(data, 1, 2)
    fields = header.split(",")
    start = _header_float(fields[0], "start epoch")
    if [f.strip() for f in fields[1:2]] != ["IBI"]:
        raise MalformedHeader(f"IBI header must read '<start epoch>, IBI', got {header!r}")
    offsets, durations = rows[:, 0], rows[:, 1]
    positive = durations > 0
    prior = np.maximum.accumulate(np.where(positive, offsets, -np.inf))
    keep = positive & (offsets > np.concatenate(([-np.inf], prior))[:-1])
    events = EventSeries(start, offsets[keep], durations[keep])
    return events, len(rows) - len(events)


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


def _objects(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, dict) for v in value)


def _number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _breaks_csv_row(text: str) -> bool:
    """Whether `text`, as the first cell of a CSV row, would split its cell
    or row (a comma or any line boundary of `str.splitlines`) or make the
    row a comment line (a leading '#')."""
    return "," in text or len((text + ".").splitlines()) > 1 or text.startswith("#")


def load_manifest(path: str | Path) -> tuple[list[ManifestEntry], Path]:
    """Load a dataset manifest; session paths resolve relative to it. A
    manifest that is not an object, sessions or segments that are not
    lists of objects, a segment time or performance score that is not a
    finite number, and a session directory listed twice raise DataError.
    So does a subject_id or segment label with a comma or a line break,
    or that starts with '#' (a comment line in a CSV artifact).
    Different sessions may share a subject_id."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise DataError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as e:
        raise DataError(f"manifest is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DataError("manifest must be a JSON object")
    unknown = set(doc) - _MANIFEST_KEYS
    if unknown:
        raise DataError(f"unknown manifest keys: {sorted(unknown)}")
    default_times = doc.get("segment_times", "absolute")
    if default_times not in ("absolute", "relative"):
        raise DataError(f"segment_times must be 'absolute' or 'relative', got {default_times!r}")
    if not _objects(doc.get("sessions", [])):
        raise DataError("manifest sessions must be a list of objects")
    entries = []
    seen = set()
    for raw in doc.get("sessions", []):
        unknown = set(raw) - _SESSION_KEYS
        if unknown:
            raise DataError(f"unknown session keys: {sorted(unknown)}")
        if "subject_id" not in raw or "path" not in raw:
            raise DataError("every session needs subject_id and path")
        where = f"session {raw['subject_id']}"
        subject_id = str(raw["subject_id"])
        if _breaks_csv_row(subject_id):
            raise DataError(f"{where}: subject_id {subject_id!r} may not contain a "
                            "comma or a line break, nor start with '#'")
        if raw.get("times", default_times) not in ("absolute", "relative"):
            raise DataError(f"{where}: times must be 'absolute' or 'relative'")
        if raw.get("performance_score") is not None and not _number(raw["performance_score"]):
            raise DataError(f"{where}: performance_score must be a number")
        if not _objects(raw.get("segments", [])):
            raise DataError(f"{where}: segments must be a list of objects")
        for seg in raw.get("segments", []):
            if set(seg) - _SEGMENT_KEYS:
                raise DataError(f"unknown segment keys: {sorted(set(seg) - _SEGMENT_KEYS)}")
            if not (_number(seg.get("t_start")) and _number(seg.get("t_end"))):
                raise DataError(f"{where}: every segment needs numeric t_start and t_end")
            if "label" in seg and _breaks_csv_row(str(seg["label"])):
                raise DataError(f"{where}: segment label {seg['label']!r} may not contain "
                                "a comma or a line break, nor start with '#'")
        directory = (path.parent / str(raw["path"])).resolve()
        if directory in seen:
            raise DataError(f"{where}: session directory {raw['path']} is listed twice")
        seen.add(directory)
        entries.append(
            ManifestEntry(
                subject_id=subject_id,
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


def load_session(dir_path: str | Path, entry: ManifestEntry,
                 files: Collection[str] = E4_FILES) -> Recording:
    """Load one session directory into a screened Recording.

    `files` names the E4 files to read by stem (a `MODALITY_CHANNELS` key
    or "IBI"); the default reads every file. EDA.csv is read as well
    whenever the entry's segment times are relative, since they count from
    its start.
    The screening, the dropped IBI rows and the span cover only the files
    read: an unread file counts as absent, and a session whose read files
    are all absent or empty has no channels.
    """
    dir_path = Path(dir_path)
    if entry.times == "relative":
        files = {*files, "EDA"}
    channels: dict[str, SampledSeries] = {}
    screening = {name: ChannelScreen() for name in CHANNELS}
    screening["IBI"] = ChannelScreen()

    for modality, names in MODALITY_CHANNELS.items():
        f = dir_path / f"{modality}.csv"
        if modality not in files or not f.is_file():
            continue
        for name in names:
            screening[name].present = True
        data = f.read_bytes()
        try:
            parsed = (parse_channel(data),) if len(names) == 1 else parse_acc(data)
        except EmptyStream:
            for name in names:
                screening[name].empty = True
            continue
        for name, series in zip(names, parsed):
            channels[name] = series
            screening[name].n_samples = len(series)

    ibi = None
    ibi_dropped = 0
    ibi_file = dir_path / "IBI.csv"
    if "IBI" in files and ibi_file.is_file():
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
    for float64 arrays, `map(repr, a.tolist())` gives the same text. Every
    value written is this text, except integral ACC counts (`write_acc`)."""
    return repr(float(v))


def write_channel(series: SampledSeries) -> str:
    lines = [_fmt(series.start_epoch), _fmt(series.rate_hz)]
    lines.extend(map(repr, series.values.tolist()))
    return "\n".join(lines) + "\n"


def write_acc(x: SampledSeries, y: SampledSeries, z: SampledSeries) -> str:
    """The three axes as ACC.csv, scaled back to raw counts (multiplying by
    64 is exact in binary floating point). When every count is an integer
    and none is -0.0, as on an E4, the body is written as integers;
    otherwise each count is its shortest round-tripping float, so any
    input parses back bit for bit."""
    lines = [
        ",".join(_fmt(s.start_epoch) for s in (x, y, z)),
        ",".join(_fmt(s.rate_hz) for s in (x, y, z)),
    ]
    raw = np.stack([x.values, y.values, z.values], axis=1) * ACC_COUNTS_PER_G
    with np.errstate(invalid="ignore"):   # NaN, inf: caught by the comparison
        counts = raw.astype(np.int64)
    if counts.astype(np.float64).tobytes() == raw.tobytes():
        fmt, rows = "%d,%d,%d", counts
    else:
        fmt, rows = "%r,%r,%r", raw
    lines.extend(map(fmt.__mod__, map(tuple, rows.tolist())))
    return "\n".join(lines) + "\n"


def write_ibi(ibi: EventSeries) -> str:
    lines = [f"{_fmt(ibi.start_epoch)}, IBI"]
    lines.extend(
        f"{o!r},{d!r}" for o, d in zip(ibi.offsets.tolist(), ibi.durations.tolist())
    )
    return "\n".join(lines) + "\n"


def write_session(dir_path: str | Path, rec: Recording) -> None:
    """Write a Recording as an E4 session directory, one file per modality
    whose channels are all present. Every value parses back bit for bit:
    integral ACC counts are written as integers, everything else as
    full-precision floats."""
    dir_path = Path(dir_path)
    os.makedirs(dir_path, exist_ok=True)
    for modality, names in MODALITY_CHANNELS.items():
        if all(name in rec.channels for name in names):
            series = [rec.channels[name] for name in names]
            text = write_channel(*series) if len(names) == 1 else write_acc(*series)
            (dir_path / f"{modality}.csv").write_text(text)
    if rec.ibi is not None:
        (dir_path / "IBI.csv").write_text(write_ibi(rec.ibi))
