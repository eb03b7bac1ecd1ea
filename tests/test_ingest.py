"""E4 parsing, screening, manifests, and the write/parse round trip."""

import json

import numpy as np
import pytest

from physio_bench import ingest
from physio_bench.errors import (
    EmptyStream,
    MalformedHeader,
    ManifestMismatch,
    NoChannels,
    NonFiniteSample,
    RaggedRow,
)


class TestParseChannel:
    def test_basic_format(self):
        s = ingest.parse_channel(b"1602000000.0\n4.0\n0.11\n0.12\n")
        assert s.start_epoch == 1602000000.0
        assert s.rate_hz == 4.0
        assert list(s.values) == [0.11, 0.12]

    def test_header_only_is_empty_stream(self):
        with pytest.raises(EmptyStream):
            ingest.parse_channel(b"1602000000.0\n4.0\n")

    def test_zero_rate_is_malformed(self):
        with pytest.raises(MalformedHeader):
            ingest.parse_channel(b"1602000000.0\n0\n1.0\n")

    def test_non_numeric_header(self):
        with pytest.raises(MalformedHeader):
            ingest.parse_channel(b"start\n4.0\n1.0\n")

    def test_non_finite_sample_carries_line(self):
        with pytest.raises(NonFiniteSample) as exc:
            ingest.parse_channel(b"0\n4\n1.0\nnan\n")
        assert exc.value.line_no == 4

    def test_sample_count_and_monotone_timestamps(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            vals = rng.normal(size=n)
            body = "\n".join(repr(float(v)) for v in vals)
            s = ingest.parse_channel(f"100.0\n32.0\n{body}\n")
            assert len(s) == n
            ts = s.timestamps()
            assert np.all(np.diff(ts) > 0)


class TestParseAcc:
    def test_counts_scale_to_g(self):
        x, y, z = ingest.parse_acc(b"1.0,1.0,1.0\n32,32,32\n64,0,-64\n")
        assert (x.values[0], y.values[0], z.values[0]) == (1.0, 0.0, -1.0)
        assert x.rate_hz == 32.0

    def test_empty_body(self):
        with pytest.raises(EmptyStream):
            ingest.parse_acc(b"1,1,1\n32,32,32\n")

    def test_ragged_row(self):
        with pytest.raises(RaggedRow):
            ingest.parse_acc(b"1,1,1\n32,32,32\n1,2\n")

    def test_two_field_header_is_malformed(self):
        with pytest.raises(MalformedHeader):
            ingest.parse_acc(b"1,1\n32,32\n1,2,3\n")


def _channel_file(body, newline="\n"):
    return newline.join(["0", "4", *body]).encode() + newline.encode()


def _acc_file(body, newline="\n"):
    return newline.join(["1,1,1", "32,32,32", *body]).encode() + newline.encode()


def _random_floats(rng, n):
    return (rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, size=n)).tolist()


class TestBulkParse:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_channel_bit_equal_per_line_float(self, newline):
        rng = np.random.default_rng(7)
        for _ in range(20):
            body = [repr(v) for v in _random_floats(rng, int(rng.integers(1, 300)))]
            s = ingest.parse_channel(_channel_file(body, newline))
            ref = np.array([float(ln) for ln in body])
            assert s.values.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_acc_bit_equal_per_line_float(self, newline):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            vals = _random_floats(rng, 3 * n)
            body = [",".join(map(repr, vals[3 * i:3 * i + 3])) for i in range(n)]
            axes = ingest.parse_acc(_acc_file(body, newline))
            ref = np.array([[float(f) for f in ln.split(",")] for ln in body]) / 64.0
            for j in range(3):
                assert axes[j].values.tobytes() == ref[:, j].copy().tobytes()


_POSITIONS = {"first": 0, "middle": 2, "last": 4}


def _body_with(bad, at, good="1.5"):
    body = [good] * 5
    body[at] = bad
    return body


class TestBulkParseErrors:
    """Each malformed sample raises the per-line parser's typed error and
    line number, wherever it sits in the body."""

    @pytest.mark.parametrize("at", _POSITIONS.values(), ids=_POSITIONS.keys())
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_channel_non_finite(self, bad, at):
        with pytest.raises(NonFiniteSample) as exc:
            ingest.parse_channel(_channel_file(_body_with(bad, at)))
        assert exc.value.line_no == at + 3

    @pytest.mark.parametrize("at", _POSITIONS.values(), ids=_POSITIONS.keys())
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_acc_non_finite(self, bad, at):
        body = _body_with(f"1,{bad},2", at, good="1,2,3")
        with pytest.raises(NonFiniteSample) as exc:
            ingest.parse_acc(_acc_file(body))
        assert exc.value.line_no == at + 3

    @pytest.mark.parametrize("at", _POSITIONS.values(), ids=_POSITIONS.keys())
    @pytest.mark.parametrize("bad", ["1,2", "1,2,3,4"])
    def test_acc_ragged(self, bad, at):
        with pytest.raises(RaggedRow) as exc:
            ingest.parse_acc(_acc_file(_body_with(bad, at, good="1,2,3")))
        assert exc.value.line_no == at + 3

    @pytest.mark.parametrize("at", _POSITIONS.values(), ids=_POSITIONS.keys())
    def test_channel_non_numeric(self, at):
        with pytest.raises(MalformedHeader, match="non-numeric sample"):
            ingest.parse_channel(_channel_file(_body_with("abc", at)))

    @pytest.mark.parametrize("at", _POSITIONS.values(), ids=_POSITIONS.keys())
    @pytest.mark.parametrize("bad", ["1,,2", "1,x,2"])
    def test_acc_non_numeric(self, bad, at):
        with pytest.raises(MalformedHeader, match="non-numeric sample"):
            ingest.parse_acc(_acc_file(_body_with(bad, at, good="1,2,3")))

    def test_first_bad_row_wins(self):
        # A non-finite row before a ragged one is reported, as a per-row
        # scan meets it first.
        with pytest.raises(NonFiniteSample) as exc:
            ingest.parse_acc(_acc_file(["1,2,3", "nan,1,1", "1,2"]))
        assert exc.value.line_no == 4

    def test_empty_bodies(self):
        with pytest.raises(EmptyStream):
            ingest.parse_channel(_channel_file([]))
        with pytest.raises(EmptyStream):
            ingest.parse_acc(_acc_file([]))


class TestPhysicalLineNumbers:
    """Blank lines count toward the reported line number."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_channel_blank_line_before_bad_sample(self, newline):
        data = newline.join(["0", "4", "1.0", "", "2.0", "nan", ""]).encode()
        with pytest.raises(NonFiniteSample) as exc:
            ingest.parse_channel(data)
        assert exc.value.line_no == 6

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_acc_blank_line_before_ragged_row(self, newline):
        data = newline.join(["1,1,1", "32,32,32", "", "1,2,3", "1,2", ""]).encode()
        with pytest.raises(RaggedRow) as exc:
            ingest.parse_acc(data)
        assert exc.value.line_no == 5

    def test_blank_lines_before_header(self):
        with pytest.raises(NonFiniteSample) as exc:
            ingest.parse_channel(b"\n\n0\n4\n1.0\ninf\n")
        assert exc.value.line_no == 6

    @pytest.mark.parametrize("data", [b"0\n4\n1.0\x0c2.0\n3.0\n",
                                      b"0\n4\n1.0\x1cnan\n3.0\n"],
                             ids=["form-feed", "file-separator"])
    def test_only_lf_ends_a_line(self, data):
        # A control character inside a row is part of that row, which is
        # then not a number.
        with pytest.raises(MalformedHeader, match="non-numeric sample"):
            ingest.parse_channel(data)

    @pytest.mark.parametrize("parse,data,line", [
        (ingest.parse_channel, b"1602000000\n\n1.5\n2.0\n2.5\n", 2),
        (ingest.parse_channel, b"\n\n0\n \n4\n1.0\n", 4),
        (ingest.parse_acc, b"1,1,1\n\n32,32,32\n64,0,0\n", 2),
    ], ids=["channel", "channel-after-leading-blanks", "ACC"])
    def test_blank_line_inside_the_header(self, parse, data, line):
        # Before, the line after the blank one was read as the next header
        # line: the channel's first sample became its sampling rate.
        with pytest.raises(MalformedHeader, match=f"blank line at line {line} inside"):
            parse(data)

    def test_blank_lines_still_skipped_on_success(self):
        s = ingest.parse_channel(b"0\n4\n1.0\n\n  \n2.0\n")
        assert list(s.values) == [1.0, 2.0]
        x, _, _ = ingest.parse_acc(b"1,1,1\n32,32,32\n64,0,0\n\n128,0,0\n")
        assert list(x.values) == [1.0, 2.0]


class TestParseIbi:
    def test_basic_events(self):
        events, dropped = ingest.parse_ibi(b"1602000000.0, IBI\n1.2,0.80\n2.0,0.80\n")
        assert events.start_epoch == 1602000000.0
        assert list(events.offsets) == [1.2, 2.0]
        assert list(events.durations) == [0.8, 0.8]
        assert dropped == 0

    def test_header_only_is_valid_empty(self):
        events, dropped = ingest.parse_ibi(b"1602000000.0, IBI\n")
        assert len(events) == 0 and dropped == 0

    def test_non_monotone_offsets_dropped_with_count(self):
        events, dropped = ingest.parse_ibi(b"0.0, IBI\n2.0,0.8\n1.2,0.8\n")
        assert list(events.offsets) == [2.0]
        assert dropped == 1

    @pytest.mark.parametrize("data", [b"\n1.0,0.8\n2.0,0.8\n", b"0\n1.0,0.8\n",
                                      b"0, BVP\n1.0,0.8\n"],
                             ids=["blank-header", "epoch-only", "other-stream"])
    def test_header_without_ibi_is_malformed(self, data):
        # A blank header line would make the first beat's offset the epoch.
        with pytest.raises(MalformedHeader, match="IBI header"):
            ingest.parse_ibi(data)

    @pytest.mark.parametrize("row,error", [("1.0,nan", NonFiniteSample),
                                           ("1.0", RaggedRow),
                                           ("x,0.8", MalformedHeader)])
    def test_first_row_error_names_line_two(self, row, error):
        # The header is one line, so the first body row is line 2.
        with pytest.raises(error, match="at line 2: "):
            ingest.parse_ibi(f"0, IBI\n{row}\n2.0,0.8\n")


def _sequential_keep(rows):
    """The IBI keep rule as a per-row loop: a row is kept when its
    duration is positive and its offset exceeds the last kept offset."""
    kept, dropped, last = [], 0, -np.inf
    for off, dur in rows:
        if off <= last or dur <= 0:
            dropped += 1
            continue
        kept.append((off, dur))
        last = off
    return kept, dropped


class TestIbiKeepRule:
    def test_matches_the_sequential_loop(self):
        # Few distinct values, so offsets tie and fall back often, and
        # durations are often zero or negative.
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(0, 25))
            offs = rng.integers(-4, 12, size=n) / 2
            durs = rng.choice([-0.5, -0.0, 0.0, 0.4, 0.8], size=n)
            rows = list(zip(offs.tolist(), durs.tolist()))
            text = "0, IBI\n" + "".join(f"{o!r},{d!r}\n" for o, d in rows)
            events, dropped = ingest.parse_ibi(text)
            kept, ref_dropped = _sequential_keep(rows)
            assert dropped == ref_dropped
            assert events.offsets.tolist() == [o for o, _ in kept]
            assert events.durations.tolist() == [d for _, d in kept]
            assert events.offsets.dtype == events.durations.dtype == np.float64

    def test_a_row_dropped_for_its_offset_does_not_raise_the_bar(self):
        # 5.0 is dropped for its zero duration, so 3.0 is kept after 2.0.
        events, dropped = ingest.parse_ibi(b"0, IBI\n2.0,0.8\n5.0,0\n1.0,0.8\n3.0,0.8\n")
        assert events.offsets.tolist() == [2.0, 3.0]
        assert dropped == 2


#: Each E4 file kind: its parser, a valid header and body as rows of
#: fields. Header mutations hit the first field; body mutations hit the
#: middle field of BAD_ROW, which follows one blank line.
E4_KINDS = {
    "channel": (ingest.parse_channel, [["0"], ["4"]], [["1.5"]] * 5),
    "ACC": (ingest.parse_acc, [["1", "1", "1"], ["32", "32", "32"]], [["1", "2", "3"]] * 5),
    "IBI": (ingest.parse_ibi, [["0", " IBI"]], [[repr(0.8 * i + 0.8), "0.8"] for i in range(5)]),
}
E4_MUTATIONS = ("nan", "inf", "-inf", "1e400", "abc", "extra field", "missing field")
BAD_ROW = 2


def _mutated(fields, at, mutation):
    fields = list(fields)
    if mutation == "extra field":
        fields.append("1")
    elif mutation == "missing field":
        del fields[at]
    else:
        fields[at] = mutation
    return fields


def e4_case(kind, part, mutation):
    """The text of a `kind` file with one mutation, the physical line of the
    mutated row, and the expected (error, message part), or None where the
    format's width rules accept the file."""
    _, header, body = E4_KINDS[kind]
    header, body = list(header), list(body)
    if part == "header":
        header[0] = _mutated(header[0], 0, mutation)
        line = 1
    else:
        body[BAD_ROW] = _mutated(body[BAD_ROW], len(body[BAD_ROW]) // 2, mutation)
        line = len(header) + 2 + BAD_ROW
    text = "\n".join([",".join(r) for r in header] + [""] + [",".join(r) for r in body]) + "\n"
    if mutation in ("nan", "inf", "-inf", "1e400"):
        expected = ((MalformedHeader, "non-finite start epoch") if part == "header"
                    else (NonFiniteSample, "non-finite sample"))
    elif mutation == "abc":
        expected = MalformedHeader, "non-numeric"
    elif part == "body":
        # A one-field row without its field is a blank line, which is skipped.
        expected = (None if kind == "channel" and mutation == "missing field"
                    else (RaggedRow, "wrong number of fields"))
    elif kind == "ACC":
        expected = MalformedHeader, "three comma-separated fields"
    elif mutation == "missing field":
        # A channel header line without its one field is blank, so it is
        # skipped, and the blank line that ends the header falls inside it.
        expected = ((MalformedHeader, "blank line") if kind == "channel"
                    else (MalformedHeader, "non-numeric start epoch"))
    else:
        # Channel and IBI headers read their first field only.
        expected = None
    return text, line, expected


E4_CASES = [(k, p, m) for k in E4_KINDS for p in ("header", "body") for m in E4_MUTATIONS]


class TestE4MutationTable:
    @pytest.mark.parametrize("kind,part,mutation", E4_CASES)
    def test_typed_error(self, kind, part, mutation):
        text, line, expected = e4_case(kind, part, mutation)
        parse = E4_KINDS[kind][0]
        if expected is None:
            parse(text)
            return
        error, message = expected
        with pytest.raises(error, match=message) as exc:
            parse(text)
        if part == "body":
            assert f"at line {line}: " in str(exc.value)
            assert getattr(exc.value, "line_no", line) == line

    def test_only_the_width_rules_accept_a_case(self):
        accepted = [c for c in E4_CASES if e4_case(*c)[2] is None]
        assert accepted == [("channel", "header", "extra field"),
                            ("channel", "body", "missing field"),
                            ("IBI", "header", "extra field")]


class TestDropoutScreening:
    def test_flat_run_longer_than_five_seconds_counts(self):
        v = np.concatenate([np.arange(40.0), np.full(30, 7.0), np.arange(40.0)])
        s = ingest.SampledSeries(0.0, 4.0, v)  # 30 samples @4 Hz = 7.5 s flat
        assert ingest.count_dropout_runs(s) == 1

    def test_short_runs_do_not_count(self):
        v = np.concatenate([np.arange(40.0), np.full(16, 7.0), np.arange(40.0)])
        s = ingest.SampledSeries(0.0, 4.0, v)  # 4 s flat
        assert ingest.count_dropout_runs(s) == 0


def _write_session_files(tmp_path, with_ibi=True):
    (tmp_path / "EDA.csv").write_text("1000.0\n4.0\n" + "\n".join(
        repr(float(0.3 + 0.001 * i)) for i in range(240)) + "\n")
    (tmp_path / "TEMP.csv").write_text("1000.0\n4.0\n" + "\n".join(
        repr(33.0) for _ in range(240)) + "\n")
    (tmp_path / "HR.csv").write_text("1000.0\n1.0\n" + "\n".join(
        repr(float(70.0 + i % 3)) for i in range(60)) + "\n")
    (tmp_path / "BVP.csv").write_text("1000.0\n64.0\n" + "\n".join(
        repr(float(np.sin(i / 10))) for i in range(3840)) + "\n")
    acc_rows = "\n".join("64,0,-64" for _ in range(1920))
    (tmp_path / "ACC.csv").write_text(f"1000.0,1000.0,1000.0\n32,32,32\n{acc_rows}\n")
    if with_ibi:
        (tmp_path / "IBI.csv").write_text("1000.0, IBI\n1.0,0.8\n1.8,0.85\n")


class TestLoadSession:
    def test_full_directory(self, tmp_path):
        _write_session_files(tmp_path)
        entry = ingest.ManifestEntry("s1", ".", [
            {"label": "rest", "t_start": 1000.0, "t_end": 1030.0},
            {"label": "stress", "t_start": 1030.0, "t_end": 1050.0},
            {"label": "rest", "t_start": 1050.0, "t_end": 1060.0},
        ])
        rec = ingest.load_session(tmp_path, entry)
        assert set(rec.channels) == set(ingest.CHANNELS)
        assert rec.ibi is not None and len(rec.ibi) == 2
        assert len(rec.segments) == 3

    def test_missing_ibi_noted_in_screening(self, tmp_path):
        _write_session_files(tmp_path, with_ibi=False)
        entry = ingest.ManifestEntry("s1", ".", [
            {"label": "rest", "t_start": 1000.0, "t_end": 1060.0}])
        rec = ingest.load_session(tmp_path, entry)
        assert rec.ibi is None
        assert not rec.screening["IBI"].present

    def test_header_only_and_missing_files_screened(self, tmp_path):
        _write_session_files(tmp_path)
        (tmp_path / "ACC.csv").write_text("1000.0,1000.0,1000.0\n32,32,32\n")
        (tmp_path / "TEMP.csv").write_text("1000.0\n4.0\n")
        (tmp_path / "HR.csv").unlink()
        rec = ingest.load_session(tmp_path, ingest.ManifestEntry("s1", ".", []))
        assert list(rec.screening) == [*ingest.CHANNELS, "IBI"]
        for name in ("TEMP", "ACC_X", "ACC_Y", "ACC_Z"):
            assert rec.screening[name] == ingest.ChannelScreen(present=True, empty=True)
        assert rec.screening["HR"] == ingest.ChannelScreen()
        assert rec.screening["EDA"].present and rec.screening["EDA"].n_samples == 240
        assert rec.screening["BVP"].present and rec.screening["BVP"].n_samples == 3840
        assert list(rec.channels) == ["EDA", "BVP"]

    def test_segment_before_recording_is_mismatch(self, tmp_path):
        _write_session_files(tmp_path)
        entry = ingest.ManifestEntry("s1", ".", [
            {"label": "rest", "t_start": 900.0, "t_end": 950.0}])
        with pytest.raises(ManifestMismatch):
            ingest.load_session(tmp_path, entry)

    def test_no_channels(self, tmp_path):
        entry = ingest.ManifestEntry("s1", ".", [])
        with pytest.raises(NoChannels):
            ingest.load_session(tmp_path, entry)

    def test_deterministic_reload(self, tmp_path):
        _write_session_files(tmp_path)
        entry = ingest.ManifestEntry("s1", ".", [
            {"label": "rest", "t_start": 1000.0, "t_end": 1060.0}])
        a = ingest.load_session(tmp_path, entry)
        b = ingest.load_session(tmp_path, entry)
        for ch in a.channels:
            assert np.array_equal(a.channels[ch].values, b.channels[ch].values)
        assert a.screening == b.screening

    def test_performance_score_derives_high_low(self, tmp_path):
        _write_session_files(tmp_path)
        high = ingest.load_session(
            tmp_path, ingest.ManifestEntry("s1", ".", [], performance_score=171.0))
        low = ingest.load_session(
            tmp_path, ingest.ManifestEntry("s2", ".", [], performance_score=140.0))
        assert high.segments[0].label == "High"
        assert low.segments[0].label == "Low"
        span = high.span
        assert (high.segments[0].t_start, high.segments[0].t_end) == span

    def test_relative_segment_times(self, tmp_path):
        _write_session_files(tmp_path)
        entry = ingest.ManifestEntry(
            "s1", ".", [{"label": "rest", "t_start": 0.0, "t_end": 30.0}],
            times="relative")
        rec = ingest.load_session(tmp_path, entry)
        assert rec.segments[0].t_start == 1000.0
        assert rec.segments[0].t_end == 1030.0


    def test_files_limits_what_is_read(self, tmp_path):
        _write_session_files(tmp_path)
        bvp = tmp_path / "BVP.csv"
        bvp.write_text(bvp.read_text().replace("1000.0\n", "990.0\n", 1))
        score_only = ingest.ManifestEntry("s1", ".", [], performance_score=171.0)
        full = ingest.load_session(tmp_path, score_only)
        some = ingest.load_session(tmp_path, score_only, {"EDA", "TEMP"})
        assert list(some.channels) == ["EDA", "TEMP"] and some.ibi is None
        assert not some.screening["BVP"].present and not some.screening["IBI"].present
        # The span, and with it a score-only session's segment, covers the
        # files read.
        assert full.span == (990.0, 1060.0) and some.span == (1000.0, 1060.0)
        assert (some.segments[0].t_start, some.segments[0].t_end) == some.span
        early = ingest.ManifestEntry("s1", ".", [
            {"label": "rest", "t_start": 990.0, "t_end": 1000.0}])
        assert ingest.load_session(tmp_path, early).segments[0].t_start == 990.0
        with pytest.raises(ManifestMismatch, match="outside the recorded span"):
            ingest.load_session(tmp_path, early, {"EDA", "TEMP"})
        with_ibi = ingest.load_session(tmp_path, score_only, {"HR", "IBI"})
        assert list(with_ibi.channels) == ["HR"] and len(with_ibi.ibi) == 2

    def test_relative_segment_times_read_eda(self, tmp_path):
        _write_session_files(tmp_path)
        entry = ingest.ManifestEntry(
            "s1", ".", [{"label": "rest", "t_start": 0.0, "t_end": 30.0}],
            times="relative")
        rec = ingest.load_session(tmp_path, entry, {"TEMP"})
        assert list(rec.channels) == ["EDA", "TEMP"]
        assert rec.segments[0].t_start == 1000.0

    def test_only_unread_files_is_no_channels(self, tmp_path):
        _write_session_files(tmp_path)
        with pytest.raises(NoChannels):
            ingest.load_session(tmp_path, ingest.ManifestEntry("s1", ".", []), {"IBI"})


class TestManifest:
    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"sessions": [], "shiny": 1}))
        with pytest.raises(Exception):
            ingest.load_manifest(p)

    def test_loads_sessions(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({
            "dataset": "demo",
            "sessions": [{"subject_id": "a", "path": "a",
                          "segments": [{"label": "x", "t_start": 0, "t_end": 1}]}],
        }))
        entries, base = ingest.load_manifest(p)
        assert entries[0].subject_id == "a"
        assert base == tmp_path

    def test_overlapping_segments_rejected(self, tmp_path):
        _write_session_files(tmp_path)
        entry = ingest.ManifestEntry("s1", ".", [
            {"label": "a", "t_start": 1000.0, "t_end": 1030.0},
            {"label": "b", "t_start": 1020.0, "t_end": 1050.0},
        ])
        with pytest.raises(ManifestMismatch):
            ingest.load_session(tmp_path, entry)


class TestRoundTrip:
    def test_channel_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = ingest.SampledSeries(
                float(rng.uniform(1e9, 2e9)),
                float(rng.choice([1.0, 4.0, 32.0, 64.0])),
                rng.normal(size=int(rng.integers(1, 100))),
            )
            back = ingest.parse_channel(ingest.write_channel(s))
            assert back.start_epoch == s.start_epoch
            assert back.rate_hz == s.rate_hz
            assert np.array_equal(back.values, s.values)

    def test_acc_round_trip_bit_exact(self):
        rng = np.random.default_rng(6)
        series = tuple(
            ingest.SampledSeries(123.25, 32.0, rng.normal(size=50))
            for _ in range(3)
        )
        text = ingest.write_acc(*series)
        back = ingest.parse_acc(text)
        for orig, rt in zip(series, back):
            assert np.array_equal(rt.values, orig.values)

    @pytest.mark.parametrize("counts,as_integers", [
        ([[35, -16, 53], [0, 0, 64], [-2 ** 53, 1, 2 ** 40]], True),
        ([[35, -16, 53], [0.5, 0, 64]], False),
        ([[35, -16, 53], [-0.0, 0, 64]], False),
        (np.random.default_rng(6).normal(size=(50, 3)) * 64.0, False),
    ], ids=["integer-counts", "half-count", "negative-zero", "normal"])
    def test_acc_body_is_integers_only_when_every_count_is(self, counts, as_integers):
        """Integral counts are written as integers; any other table, a -0.0
        count included, as each count's repr, the text of the float writer.
        Either way every axis parses back bit for bit, sign of zero too."""
        counts = np.array(counts, dtype=np.float64)
        series = [ingest.SampledSeries(123.25, 32.0, counts[:, j] / 64.0) for j in range(3)]
        text = ingest.write_acc(*series)
        header, body = text.splitlines()[:2], text.splitlines()[2:]
        assert header == ["123.25,123.25,123.25", "32.0,32.0,32.0"]
        if as_integers:
            assert body == [f"{x},{y},{z}" for x, y, z in counts.astype(np.int64).tolist()]
        else:
            assert body == [",".join(map(repr, row)) for row in counts.tolist()]
        for orig, rt in zip(series, ingest.parse_acc(text)):
            assert rt.values.tobytes() == orig.values.tobytes()

    def test_session_round_trip_writes_only_whole_modalities(self, tmp_path):
        rng = np.random.default_rng(8)
        channels = {
            name: ingest.SampledSeries(1000.0 + i, rate, rng.normal(size=size))
            for i, (name, rate, size) in enumerate([
                ("EDA", 4.0, 40), ("TEMP", 4.0, 40), ("BVP", 64.0, 640),
                ("ACC_X", 32.0, 320)])
        }
        ingest.write_session(tmp_path, ingest.Recording("s1", channels, None, []))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BVP.csv", "EDA.csv", "TEMP.csv"]
        back = ingest.load_session(tmp_path, ingest.ManifestEntry("s1", ".", []))
        assert list(back.channels) == ["EDA", "TEMP", "BVP"]
        for name, series in back.channels.items():
            assert series.start_epoch == channels[name].start_epoch
            assert series.rate_hz == channels[name].rate_hz
            assert series.values.tobytes() == channels[name].values.tobytes()
        assert back.ibi is None

    def test_ibi_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        offs = np.cumsum(rng.uniform(0.5, 1.2, size=30))
        durs = rng.uniform(0.5, 1.2, size=30)
        ibi = ingest.EventSeries(1.5e9, offs, durs)
        back, dropped = ingest.parse_ibi(ingest.write_ibi(ibi))
        assert dropped == 0
        assert np.array_equal(back.offsets, ibi.offsets)
        assert np.array_equal(back.durations, ibi.durations)
