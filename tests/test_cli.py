"""CLI contract: commands, exit codes, error JSON, config precedence."""

import json
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from physio_bench.cli import RunConfig, build_parser, load_config, main
from physio_bench.features import DEFAULT_FEATURE_CONFIG, SCHEMA_PRESETS, FeatureConfig
from physio_bench.models import TrainConfig
from physio_bench.windowing import WindowPolicy
from test_ingest import E4_CASES, e4_case


def _run(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


def _error(capfd) -> dict:
    return json.loads(capfd.readouterr().err.strip().splitlines()[-1])["error"]


def _feature_csv(path, schema, n_subjects=4, per_subject=10):
    """A random two-class feature table with the columns of `schema`."""
    names = SCHEMA_PRESETS[schema].names
    rng = np.random.default_rng(0)
    lines = ["subject_id,window_start,label," + ",".join(names)]
    for i in range(n_subjects * per_subject):
        x = rng.normal(size=len(names))
        label = "stress" if x[0] + x[1] > 0 else "baseline"
        lines.append(f"s{i % n_subjects},{i * 15.0},{label},"
                     + ",".join(format(v, ".6g") for v in x))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def synth_data(tmp_path, monkeypatch):
    code = _run(tmp_path, monkeypatch, [
        "synth", "--preset", "interaction", "--n-subjects", "3",
        "--duration-s", "250", "--seed", "5", "--out", "data"])
    assert code == 0
    return tmp_path


class TestSynthExtract:
    def test_chain_runs_clean(self, synth_data, tmp_path, monkeypatch):
        assert (tmp_path / "data/manifest.json").is_file()
        assert (tmp_path / "data/sessions/S000/EDA.csv").is_file()
        code = _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--seed", "5",
            "--out", "run"])
        assert code == 0
        text = (tmp_path / "run/features.csv").read_text()
        header = [ln for ln in text.splitlines() if not ln.startswith("#")][0]
        assert header.startswith("subject_id,window_start,label,")
        report = json.loads((tmp_path / "run/extract_report.json").read_text())
        assert report["provenance"]["seed"] == 5

    def test_expected_window_count(self, synth_data, tmp_path, monkeypatch):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        rows = [ln for ln in (tmp_path / "run/features.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        # 250 s session, 60 s blocks: strict labels keep windows inside one
        # block: per block offsets {0, 15, 30} -> 3 per full block, 4 blocks,
        # plus the tail block [240, 250) too short for any window.
        assert len(rows) == 3 * (3 * 4 + 0)

    def test_missing_manifest_is_config_error(self, tmp_path, monkeypatch, capfd):
        code = _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "nope.json", "--out", "run"])
        assert code == 2
        err = capfd.readouterr().err
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["error"]["code"] == 2

    def test_bad_session_skipped_when_others_succeed(self, synth_data, tmp_path,
                                                     monkeypatch):
        # wreck one session directory: header-only (empty) channel files
        bad = tmp_path / "data/sessions/S001"
        for f in bad.iterdir():
            if f.name == "ACC.csv":
                f.write_text("0,0,0\n32,32,32\n")
            elif f.name == "IBI.csv":
                f.write_text("0, IBI\n")
            else:
                f.write_text("0\n4\n")
        code = _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run2"])
        assert code == 0
        report = json.loads((tmp_path / "run2/extract_report.json").read_text())
        assert "skipped" in report["report"]["sessions"]["S001"]

    @pytest.mark.parametrize("doc,problem", [
        ([{}], "must be a JSON object"),
        ([1, 2], "must be a JSON object"),
        ({"sessions": {"subject_id": "a", "path": "a"}}, "sessions must be a list"),
        ({"sessions": [{"subject_id": "a", "path": "a", "segments": {"label": "x"}}]},
         "segments must be a list"),
        ({"sessions": [{"subject_id": "a", "path": "a", "segments": [{"t_end": 5}]}]},
         "numeric t_start and t_end"),
        ({"sessions": [{"subject_id": "a", "path": "a",
                        "segments": [{"t_start": "zz", "t_end": 5}]}]},
         "numeric t_start and t_end"),
        ({"sessions": [{"subject_id": "a", "path": "a", "performance_score": "high"}]},
         "performance_score must be a number"),
        ({"sessions": [{"subject_id": "a", "path": "a", "times": "local"}]},
         "times must be"),
        ({"sessions": [{"subject_id": "a", "path": "s/a"},
                       {"subject_id": "b", "path": "s/../s/a"}]},
         "session b: session directory s/../s/a is listed twice"),
        # A subject_id or label that would split a CSV cell or row, or that
        # makes its features.csv or class_summary.csv rows comment lines.
        ({"sessions": [{"subject_id": "S,1", "path": "a"}]},
         "session S,1: subject_id 'S,1' may not contain a comma"),
        ({"sessions": [{"subject_id": "#S2", "path": "a"}]},
         "nor start with '#'"),
        ({"sessions": [{"subject_id": "S\n3", "path": "a"}]}, "or a line break"),
        ({"sessions": [{"subject_id": "S4\r", "path": "a"}]}, "or a line break"),
        ({"sessions": [{"subject_id": "S\u20285", "path": "a"}]}, "or a line break"),
        ({"sessions": [{"subject_id": "a", "path": "a", "segments": [
            {"t_start": 0, "t_end": 5, "label": "high,low"}]}]},
         "session a: segment label 'high,low' may not contain a comma"),
        ({"sessions": [{"subject_id": "a", "path": "a", "segments": [
            {"t_start": 0, "t_end": 5, "label": "high\x1clow"}]}]},
         "or a line break"),
        ({"sessions": [{"subject_id": "a", "path": "a", "segments": [
            {"t_start": 0, "t_end": 5, "label": "#high"}]}]},
         "session a: segment label '#high' may not contain a comma or a line break, "
         "nor start with '#'"),
    ], ids=["list-of-object", "list-of-numbers", "sessions-not-list",
            "segments-not-list", "no-t_start", "text-t_start", "text-score", "bad-times",
            "same-directory-twice", "subject-comma", "subject-hash", "subject-newline",
            "subject-carriage-return", "subject-line-separator", "label-comma",
            "label-file-separator", "label-hash"])
    def test_malformed_manifest_is_data_error(self, tmp_path, monkeypatch, capfd, doc,
                                              problem):
        (tmp_path / "m.json").write_text(json.dumps(doc))
        code = _run(tmp_path, monkeypatch, ["extract", "--manifest", "m.json", "--out", "run"])
        assert code == 3
        err = _error(capfd)
        assert err["type"] == "DataError"
        assert problem in err["message"]
        assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def e4_cohort(tmp_path_factory):
    """A two-subject synth cohort, made once; tests copy it before they
    change a file."""
    out = tmp_path_factory.mktemp("e4") / "data"
    assert main(["synth", "--preset", "interaction", "--n-subjects", "2",
                 "--duration-s", "130", "--seed", "5", "--out", str(out)]) == 0
    return out


def _extract_fails(tmp_path, capfd, cohort, name, text) -> dict:
    """Extract after `name` of the first session is replaced by `text`; it
    must exit 3 with one JSON error line and write nothing."""
    data = tmp_path / "data"
    shutil.copytree(cohort, data)
    (data / "sessions/S000" / name).write_text(text)
    capfd.readouterr()
    code = main(["extract", "--manifest", str(data / "manifest.json"),
                 "--out", str(tmp_path / "run")])
    assert code == 3
    errors = [ln for ln in capfd.readouterr().err.splitlines() if ln.startswith("{")]
    assert len(errors) == 1
    assert not (tmp_path / "run").exists()
    return json.loads(errors[0])["error"]


_E4_FILES = {"channel": "TEMP.csv", "ACC": "ACC.csv", "IBI": "IBI.csv"}


class TestMalformedE4Files:
    @pytest.mark.parametrize("kind,part,mutation",
                             [c for c in E4_CASES if e4_case(*c)[2] is not None])
    def test_mutation_table_is_data_error(self, tmp_path, capfd, e4_cohort,
                                          kind, part, mutation):
        text, line, (error, message) = e4_case(kind, part, mutation)
        err = _extract_fails(tmp_path, capfd, e4_cohort, _E4_FILES[kind], text)
        assert err["code"] == 3
        assert err["type"] == error.__name__
        assert message in err["message"]
        if part == "body":
            assert f"at line {line}: " in err["message"]

    @pytest.mark.parametrize("name,line,field,token,error", [
        ("TEMP.csv", 0, 0, "nan", "MalformedHeader"),
        ("ACC.csv", 0, 0, "nan", "MalformedHeader"),
        ("TEMP.csv", 0, 0, "inf", "MalformedHeader"),
        ("TEMP.csv", 1, 0, "inf", "MalformedHeader"),
        ("ACC.csv", 1, 2, "inf", "MalformedHeader"),
        ("IBI.csv", 0, 0, "nan", "MalformedHeader"),
        ("IBI.csv", 3, 0, "nan", "NonFiniteSample"),
        ("IBI.csv", 3, 1, "inf", "NonFiniteSample"),
    ], ids=["temp-epoch-nan", "acc-epoch-nan", "temp-epoch-inf", "temp-rate-inf",
            "acc-rate-inf", "ibi-epoch-nan", "ibi-offset-nan", "ibi-duration-inf"])
    def test_non_finite_number_in_a_real_session(self, tmp_path, capfd, e4_cohort,
                                                 name, line, field, token, error):
        lines = (e4_cohort / "sessions/S000" / name).read_text().split("\n")
        fields = lines[line].split(",")
        fields[field] = token
        lines[line] = ",".join(fields)
        err = _extract_fails(tmp_path, capfd, e4_cohort, name, "\n".join(lines))
        assert err["type"] == error
        if error == "NonFiniteSample":
            assert f"at line {line + 1}: " in err["message"]


#: File texts that no E4 parser accepts.
_CORRUPT = {"BVP.csv": "0\n64\nabc\n", "HR.csv": "0\n1\nabc\n",
            "IBI.csv": "0, IBI\nabc,0.8\n"}


def _in_copy(tmp_path, monkeypatch, cohort, where, argv, corrupt=(), flat=()):
    """Run `argv` in a copy of `cohort` under tmp_path/where, after each
    name in `corrupt` of the first session is made unparseable and each
    name in `flat` is made one constant value; returns the exit code."""
    data = tmp_path / where / "data"
    shutil.copytree(cohort, data)
    session = data / "sessions/S000"
    for name in corrupt:
        (session / name).write_text(_CORRUPT[name])
    for name in flat:
        lines = (session / name).read_text().split("\n")
        (session / name).write_text("\n".join(lines[:2] + ["1.0"] * (len(lines) - 3) + [""]))
    return _run(tmp_path / where, monkeypatch, [*argv, "--manifest", "data/manifest.json",
                                               "--out", "run"])


class TestExtractReadsSchemaFiles:
    """extract, and a model command fed --manifest, read only the E4 files
    that the schema's features and the required modalities need."""

    @pytest.mark.parametrize("schema,corrupt", [
        ("stress_14", ("BVP.csv", "HR.csv")),
        ("stress_16", ("BVP.csv",)),
        ("cogload_16", ("HR.csv", "IBI.csv")),
    ], ids=["stress_14-BVP-HR", "stress_16-BVP", "cogload_16-HR-IBI"])
    def test_corrupt_unread_files_are_ignored(self, tmp_path, monkeypatch, e4_cohort,
                                              schema, corrupt):
        argv = ["extract", "--schema", schema]
        assert _in_copy(tmp_path, monkeypatch, e4_cohort, "clean", argv) == 0
        assert _in_copy(tmp_path, monkeypatch, e4_cohort, "bad", argv, corrupt) == 0
        for name in ("features.csv", "extract_report.json"):
            assert ((tmp_path / "bad/run" / name).read_bytes()
                    == (tmp_path / "clean/run" / name).read_bytes())

    def test_stress_14_keeps_a_session_without_hr(self, tmp_path, monkeypatch, e4_cohort):
        data = tmp_path / "cohort"
        shutil.copytree(e4_cohort, data)
        (data / "sessions/S000/HR.csv").unlink()
        for schema in ("stress_14", "stress_16"):
            argv = ["extract", "--schema", schema]
            assert _in_copy(tmp_path, monkeypatch, e4_cohort, f"{schema}-clean", argv) == 0
            assert _in_copy(tmp_path, monkeypatch, data, f"{schema}-no-hr", argv) == 0
        # stress_16 reads hr_mean and hr_std from HR.csv, so it skips S000.
        report = json.loads((tmp_path / "stress_16-no-hr/run/extract_report.json")
                            .read_text())["report"]
        assert "required modality HR" in report["sessions"]["S000"]["skipped"]
        for name in ("features.csv", "extract_report.json"):
            assert ((tmp_path / "stress_14-no-hr/run" / name).read_bytes()
                    == (tmp_path / "stress_14-clean/run" / name).read_bytes())

    def test_required_modality_is_read_again(self, tmp_path, monkeypatch, capfd,
                                             e4_cohort):
        argv = ["extract", "--required", "BVP"]
        assert _in_copy(tmp_path, monkeypatch, e4_cohort, "bad", argv, ["BVP.csv"]) == 3
        err = _error(capfd)
        assert err["type"] == "MalformedHeader" and "line 3" in err["message"]

    def test_model_command_from_manifest_prunes_the_same_way(self, synth_data, tmp_path,
                                                             monkeypatch):
        cohort = synth_data / "data"
        argv = ["evaluate", "--model", "logistic", "--seed", "5"]
        assert _in_copy(tmp_path, monkeypatch, cohort, "clean", argv) == 0
        assert _in_copy(tmp_path, monkeypatch, cohort, "bad", argv, ["BVP.csv"]) == 0
        assert ((tmp_path / "bad/run/results.json").read_bytes()
                == (tmp_path / "clean/run/results.json").read_bytes())

    @pytest.mark.parametrize("name", ["BVP.csv", "HR.csv", "IBI.csv"])
    def test_summary_reads_every_file(self, tmp_path, monkeypatch, capfd, e4_cohort,
                                      name):
        assert _in_copy(tmp_path, monkeypatch, e4_cohort, "bad", ["summary"], [name]) == 3
        assert _error(capfd)["type"] == "MalformedHeader"
        assert _in_copy(tmp_path, monkeypatch, e4_cohort, "clean", ["summary"]) == 0
        doc = json.loads((tmp_path / "clean/run/summary.json").read_text())
        assert set(doc["per_subject"]["S000"]) == {"EDA", "TEMP", "HR", "BVP",
                                                   "ACC_X", "ACC_Y", "ACC_Z"}

    def test_screening_flags_cover_the_files_read(self, tmp_path, monkeypatch, e4_cohort):
        for schema in ("stress_16", "cogload_16"):
            assert _in_copy(tmp_path, monkeypatch, e4_cohort, schema,
                            ["extract", "--schema", schema], flat=["BVP.csv"]) == 0
        flags = {schema: json.loads((tmp_path / schema / "run/extract_report.json")
                                    .read_text())["report"]["sessions"]["S000"]
                 for schema in ("stress_16", "cogload_16")}
        assert flags["stress_16"]["screening_flags"] == {}
        assert flags["cogload_16"]["screening_flags"]["BVP"]["dropout_runs"] == 1

    def test_ibi_rows_dropped_is_zero_when_ibi_is_not_read(self, tmp_path, monkeypatch,
                                                           e4_cohort):
        data = tmp_path / "cohort"
        shutil.copytree(e4_cohort, data)
        ibi = data / "sessions/S000/IBI.csv"
        ibi.write_text(ibi.read_text() + "0.5,0.8\n")  # offset below the last: dropped
        reports = {}
        for schema in ("stress_16", "cogload_16"):
            assert _in_copy(tmp_path, monkeypatch, data, schema,
                            ["extract", "--schema", schema]) == 0
            reports[schema] = json.loads((tmp_path / schema / "run/extract_report.json")
                                         .read_text())["report"]["sessions"]["S000"]
        assert reports["stress_16"]["ibi_rows_dropped"] == 1
        assert reports["cogload_16"]["ibi_rows_dropped"] == 0

    def test_session_with_only_unread_files_has_no_channels(self, tmp_path, monkeypatch,
                                                            e4_cohort):
        data = tmp_path / "cohort"
        shutil.copytree(e4_cohort, data)
        for f in (data / "sessions/S000").iterdir():
            if f.name != "BVP.csv":
                f.unlink()
        assert _in_copy(tmp_path, monkeypatch, data, "run16", ["extract"]) == 0
        report = json.loads((tmp_path / "run16/run/extract_report.json").read_text())
        assert report["report"]["sessions"]["S000"]["skipped"].startswith("no channels")


class TestEvaluateLoso:
    def test_evaluate_and_rerun_byte_identical(self, synth_data, tmp_path,
                                               monkeypatch):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        args = ["evaluate", "--features", "run/features.csv", "--split", "kfold",
                "--folds", "3", "--trees", "10", "--seed", "5", "--out", "run"]
        assert _run(tmp_path, monkeypatch, args) == 0
        first = (tmp_path / "run/results.json").read_bytes()
        assert _run(tmp_path, monkeypatch, args) == 0
        assert (tmp_path / "run/results.json").read_bytes() == first
        doc = json.loads(first)
        assert doc["dataset"] == "run/features.csv"
        assert doc["model"]["kind"] == "boosting"
        assert doc["split"] == "kfold"

    def test_loso_rows_and_mean_line(self, synth_data, tmp_path, monkeypatch):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        code = _run(tmp_path, monkeypatch, [
            "loso", "--features", "run/features.csv", "--trees", "10",
            "--seed", "5", "--out", "run"])
        assert code == 0
        lines = [ln for ln in (tmp_path / "run/loso_subjects.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "subject_id,n_windows,accuracy"
        assert len(lines) == 1 + 3 + 1  # header + 3 subjects + mean
        assert lines[-1].startswith("mean,")
        accs = [float(ln.split(",")[2]) for ln in lines[1:4]]
        assert abs(float(lines[-1].split(",")[2]) - np.mean(accs)) < 1e-9

    def test_single_class_data_is_data_error(self, tmp_path, monkeypatch, capfd):
        lines = ["subject_id,window_start,label," + ",".join(
            f for f in ["eda_mean", "eda_std", "eda_slope", "eda_scr_count",
                        "temp_mean", "temp_std", "hr_mean", "hr_std", "sdnn",
                        "rmssd", "acc_x_mean", "acc_x_std", "acc_y_mean",
                        "acc_y_std", "acc_z_mean", "acc_z_std"])]
        rng = np.random.default_rng(0)
        for i in range(12):
            vals = ",".join(format(v, ".6g") for v in rng.normal(size=16))
            lines.append(f"s{i % 3},{i * 15.0},onlyclass,{vals}")
        (tmp_path / "one.csv").write_text("\n".join(lines) + "\n")
        code = _run(tmp_path, monkeypatch, [
            "evaluate", "--features", "one.csv", "--split", "kfold",
            "--folds", "3", "--out", "run"])
        assert code == 3
        doc = json.loads(capfd.readouterr().err.strip().splitlines()[-1])
        assert doc["error"]["type"] == "SingleClass"

    @pytest.mark.parametrize("model", ["logistic", "svm", "knn", "boosting", "bagging"])
    def test_overflowing_column_spread_is_data_error(self, tmp_path, monkeypatch,
                                                     capfd, model):
        # 1e308 is finite, but the column's spread is not: every model
        # family rejects the table instead of standardizing it to zeros.
        _feature_csv(tmp_path / "t.csv", "stress_16")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "1e308"
        lines[5] = ",".join(cells)
        (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
        code = _run(tmp_path, monkeypatch, [
            "evaluate", "--features", "t.csv", "--model", model, "--trees", "3",
            "--out", "run"])
        assert code == 3
        err = capfd.readouterr().err
        assert "Warning" not in err
        assert json.loads(err.strip().splitlines()[-1])["error"]["type"] == "SchemaMismatch"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("column", [1, 7], ids=["window_start", "feature"])
    def test_non_numeric_cell_is_data_error(self, tmp_path, monkeypatch, capfd, column):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        cells = lines[4].split(",")
        cells[column] = "abc"
        lines[4] = ",".join(cells)
        (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
        code = _run(tmp_path, monkeypatch, [
            "evaluate", "--features", "t.csv", "--model", "logistic", "--out", "run"])
        assert code == 3
        err = _error(capfd)
        assert err["type"] == "SchemaMismatch"
        assert "row 5" in err["message"] and "abc" in err["message"]
        assert not (tmp_path / "run").exists()

    def test_loso_equals_evaluate_split_loso(self, tmp_path, monkeypatch):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        common = ["--features", "t.csv", "--trees", "5", "--seed", "3"]
        assert _run(tmp_path, monkeypatch, ["loso", "--out", "a"] + common) == 0
        assert _run(tmp_path, monkeypatch,
                    ["evaluate", "--split", "loso", "--out", "b"] + common) == 0
        a = json.loads((tmp_path / "a/results.json").read_text())
        b = json.loads((tmp_path / "b/results.json").read_text())
        assert a["split"] == b["split"] == "loso"
        assert len(a["per_fold"]) == 4
        for key in ("per_fold", "aggregate", "confusion"):
            assert a[key] == b[key], key


class TestFeatureTableLoader:
    def test_explain_missing_features_is_config_error(self, tmp_path, monkeypatch,
                                                      capfd):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        assert _run(tmp_path, monkeypatch, [
            "train", "--features", "t.csv", "--model", "logistic",
            "--out", "run"]) == 0
        code = _run(tmp_path, monkeypatch, [
            "explain", "--model-path", "run/model.json", "--features",
            "missing.csv", "--out", "run"])
        assert code == 2
        err = _error(capfd)
        assert err["type"] == "ConfigError"
        assert "missing.csv" in err["message"]

    def test_features_of_another_schema_are_config_error(self, tmp_path,
                                                         monkeypatch, capfd):
        _feature_csv(tmp_path / "cog.csv", "cogload_16")
        argv = ["loso", "--features", "cog.csv", "--model", "logistic",
                "--out", "run"]
        assert _run(tmp_path, monkeypatch, argv) == 2
        err = _error(capfd)
        assert err["type"] == "ConfigError"
        assert "stress_16" in err["message"]
        assert not (tmp_path / "run/results.json").exists()
        assert _run(tmp_path, monkeypatch, argv + ["--schema", "cogload_16"]) == 0
        doc = json.loads((tmp_path / "run/results.json").read_text())
        assert doc["provenance"]["config"]["schema"] == "cogload_16"


class TestTrainExplain:
    def test_train_then_explain_tree_model(self, synth_data, tmp_path, monkeypatch):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        assert _run(tmp_path, monkeypatch, [
            "train", "--features", "run/features.csv", "--trees", "15",
            "--seed", "5", "--out", "run"]) == 0
        assert _run(tmp_path, monkeypatch, [
            "explain", "--model-path", "run/model.json", "--features",
            "run/features.csv", "--out", "run"]) == 0
        doc = json.loads((tmp_path / "run/importance.json").read_text())
        assert doc["local_accuracy"]["all_rows_within_1e-8"] is True
        assert len(doc["global_importance"]) == 16
        att_lines = (tmp_path / "run/attributions.csv").read_text().splitlines()
        assert att_lines[1] == "subject_id,window_start,class,feature,value,shap"

    def test_train_then_explain_bagging_model(self, synth_data, tmp_path, monkeypatch):
        from test_explain import _brute_force_shap

        from physio_bench.models import model_from_json
        from physio_bench.models.trees import LEAF
        from physio_bench.pipeline import read_table

        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        assert _run(tmp_path, monkeypatch, [
            "train", "--features", "run/features.csv", "--model", "bagging",
            "--trees", "5", "--seed", "5", "--out", "run"]) == 0
        assert _run(tmp_path, monkeypatch, [
            "explain", "--model-path", "run/model.json", "--features",
            "run/features.csv", "--out", "run"]) == 0
        doc = json.loads((tmp_path / "run/importance.json").read_text())
        assert doc["local_accuracy"]["all_rows_within_1e-8"] is True
        model = model_from_json((tmp_path / "run/model.json").read_text())
        table = read_table(tmp_path / "run/features.csv")
        d = len(model.feature_names)
        shap = {}
        lines = (tmp_path / "run/attributions.csv").read_text().splitlines()[2:]
        for line in lines:
            sid, ws, cls, name, _, value = line.split(",")
            shap[sid, float(ws), cls, name] = float(value)
        for i in (0, len(table) - 1):
            x = model.stats.impute_only(table.X[i][None, :])[0]
            phi = np.zeros((d, len(model.classes)))
            for tree in model.trees:
                used = sorted(set(tree.feature[tree.feature != LEAF].tolist()))
                phi += _brute_force_shap(tree, x, d, used) / len(model.trees)
            key = (str(table.subjects[i]), float(table.window_starts[i]))
            for k, cls in enumerate(model.classes):
                got = np.array([shap[key + (cls, n)] for n in model.feature_names])
                # attributions.csv holds 9 significant digits
                assert np.all(np.abs(got - phi[:, k]) <= 1e-8 * np.abs(phi[:, k]) + 1e-12)

    def test_train_with_tuning_records_trace(self, synth_data, tmp_path,
                                             monkeypatch):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        assert _run(tmp_path, monkeypatch, [
            "train", "--features", "run/features.csv", "--model", "logistic",
            "--tune", "--folds", "3", "--seed", "5", "--out", "runT"]) == 0
        doc = json.loads((tmp_path / "runT/train_results.json").read_text())
        assert doc["tuning_trace"] is not None
        assert len(doc["tuning_trace"]) == 3  # declared l2 grid

    def test_explain_rejects_knn(self, synth_data, tmp_path, monkeypatch, capfd):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        _run(tmp_path, monkeypatch, [
            "train", "--features", "run/features.csv", "--model", "knn",
            "--out", "run"])
        code = _run(tmp_path, monkeypatch, [
            "explain", "--model-path", "run/model.json", "--features",
            "run/features.csv", "--out", "run"])
        assert code == 2
        doc = json.loads(capfd.readouterr().err.strip().splitlines()[-1])
        assert "knn" in doc["error"]["message"]

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    def test_explain_rejects_the_model_before_the_table(self, synth_data, tmp_path,
                                                        monkeypatch, capfd, kind):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        _run(tmp_path, monkeypatch, [
            "train", "--features", "run/features.csv", "--model", kind, "--out", "run"])
        code = _run(tmp_path, monkeypatch, [
            "explain", "--model-path", "run/model.json", "--features", "missing.csv",
            "--out", "explained"])
        assert code == 2
        assert _error(capfd)["message"] == (
            f"SHAP explanations support tree ensembles and the linear model, not {kind!r}")
        assert not (tmp_path / "explained").exists()

    @pytest.mark.parametrize("model,edit", [
        (None, "{not json"),
        (None, "[]"),
        (None, '{"model_kind": "tree_ensemble"}'),
        (None, '{"model_kind": [[1.0]]}'),
        ("bagging", {"base_score": None}),
        ("bagging", {"base_score": [0.0]}),
        ("bagging", {"base_score": [[0.0, 0.0]]}),
        ("boosting", {"base_score": [0.0, float("nan")]}),
        ("boosting", {"tree_class": lambda v: [None] + v[1:]}),
        ("boosting", {"tree_class": lambda v: [2] + v[1:]}),
        ("boosting", {"tree_class": lambda v: [True] + v[1:]}),
        ("boosting", {"tree_class": lambda v: [0.0] + v[1:]}),
        ("boosting", {"tree_class": lambda v: v[:-1]}),
    ], ids=["not-json", "not-object", "missing-field", "kind-not-text", "base-null",
            "base-short", "base-2d", "base-nan", "class-null", "class-out-of-range",
            "class-bool", "class-float", "class-short"])
    def test_malformed_model_file_is_data_error(self, tmp_path, monkeypatch, capfd,
                                                model, edit):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        if model is not None:
            assert _run(tmp_path, monkeypatch, [
                "train", "--features", "t.csv", "--model", model, "--trees", "3",
                "--out", "m"]) == 0
            doc = json.loads((tmp_path / "m/model.json").read_text())
            for key, value in edit.items():
                doc[key] = value(doc[key]) if callable(value) else value
            edit = json.dumps(doc)
        (tmp_path / "model.json").write_text(edit)
        capfd.readouterr()
        code = _run(tmp_path, monkeypatch, [
            "explain", "--model-path", "model.json", "--features", "t.csv",
            "--out", "run"])
        assert code == 3
        assert _error(capfd)["type"] == "SchemaMismatch"
        assert not (tmp_path / "run").exists()

    def test_label_the_model_lacks_is_data_error(self, tmp_path, monkeypatch, capfd):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        assert _run(tmp_path, monkeypatch, [
            "train", "--features", "t.csv", "--trees", "3", "--out", "model"]) == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        for i in range(1, 21):
            cells = lines[i].split(",")
            cells[2] = "foo"
            lines[i] = ",".join(cells)
        (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
        # The labels are checked before any row is attributed.
        explained = []
        monkeypatch.setattr("physio_bench.pipeline.explain_table",
                            lambda *a: explained.append(a))
        code = _run(tmp_path, monkeypatch, [
            "explain", "--model-path", "model/model.json", "--features", "t.csv",
            "--out", "run"])
        assert code == 3
        assert explained == []
        err = _error(capfd)
        assert err["type"] == "SchemaMismatch"
        assert "'foo'" in err["message"]
        assert not (tmp_path / "run").exists()


#: One flag value per RunConfig field (None: a flag that takes no value),
#: and the field value it must produce, type included.
FLAG_VALUES = {
    "manifest": ("m.json", "m.json"),
    "features": ("f.csv", "f.csv"),
    "model_path": ("model.json", "model.json"),
    "window_s": ("20.5", 20.5),
    "stride_s": ("10", 10.0),
    "min_fill": ("0.5", 0.5),
    "label_rule": ("majority", "majority"),
    "required": ("EDA,TEMP", ["EDA", "TEMP"]),
    "schema": ("cogload_16", "cogload_16"),
    "scr_min_prominence": ("0.02", 0.02),
    "scr_min_distance_s": ("2", 2.0),
    "bvp_min_rr_s": ("0.4", 0.4),
    "bvp_prominence_factor": ("0.6", 0.6),
    "model": ("svm", "svm"),
    "trees": ("7", 7),
    "learning_rate": ("0.3", 0.3),
    "max_depth": ("4", 4),
    "max_leaves": ("9", 9),
    "growth": ("leaf", "leaf"),
    "split_mode": ("hist", "hist"),
    "reg_lambda": ("2", 2.0),
    "min_samples_leaf": ("3", 3),
    "knn_k": ("7", 7),
    "svm_c": ("2.5", 2.5),
    "svm_sigma": ("0.75", 0.75),
    "l2": ("0.5", 0.5),
    "tune": (None, True),
    "split": ("kfold", "kfold"),
    "test_fraction": ("0.3", 0.3),
    "folds": ("4", 4),
    "correction": ("bonferroni", "bonferroni"),
    "alpha": ("0.01", 0.01),
    "preset": ("stress3", "stress3"),
    "n_subjects": ("4", 4),
    "duration_s": ("120", 120.0),
    "seed": ("11", 11),
    "out": ("elsewhere", "elsewhere"),
    "jobs": ("3", 3),
}


def _flag_config(name) -> RunConfig:
    """The config of an `evaluate` run given only `name`'s flag from FLAG_VALUES."""
    text = FLAG_VALUES[name][0]
    argv = ["evaluate", "--" + name.replace("_", "-")]
    args = build_parser().parse_args(argv + ([] if text is None else [text]))
    return load_config(None, {k: v for k, v in vars(args).items()
                              if k not in ("command", "config")})


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_flag_sets_its_field_with_its_type(name):
    expected = FLAG_VALUES[name][1]
    assert getattr(RunConfig(), name) != expected
    cfg = _flag_config(name)
    value = getattr(cfg, name)
    assert type(value) is type(expected)
    assert value == expected
    others = {f.name for f in fields(RunConfig)} - {name}
    assert all(getattr(cfg, o) == getattr(RunConfig(), o) for o in others)


#: RunConfig field -> (the RunConfig method that builds its stage config,
#: the stage-config field it sets).
STAGE_FIELDS = {
    **{name: ("window_policy", name)
       for name in ("window_s", "stride_s", "min_fill", "label_rule")},
    "required": ("window_policy", "required_modalities"),
    **{name: ("feature_config", name)
       for name in ("scr_min_prominence", "scr_min_distance_s", "bvp_min_rr_s",
                    "bvp_prominence_factor")},
    **{name: ("train_config", name)
       for name in ("learning_rate", "max_depth", "max_leaves", "growth", "reg_lambda",
                    "min_samples_leaf", "knn_k", "svm_c", "svm_sigma", "l2", "seed")},
    "model": ("train_config", "kind"),
    "trees": ("train_config", "n_trees"),
    "split_mode": ("train_config", "splits"),
    "folds": ("train_config", "cv_folds"),
}


@pytest.mark.parametrize("name", sorted(STAGE_FIELDS))
def test_flag_reaches_its_stage_config(name):
    method, stage_field = STAGE_FIELDS[name]
    expected = FLAG_VALUES[name][1]
    if name == "required":
        expected = frozenset(expected)
    assert getattr(getattr(RunConfig(), method)(), stage_field) != expected
    assert getattr(getattr(_flag_config(name), method)(), stage_field) == expected


@pytest.mark.parametrize("cls,method,unset", [
    (WindowPolicy, "window_policy", set()),
    (FeatureConfig, "feature_config", {"scr_tonic_window_s"}),
    (TrainConfig, "train_config", {"n_bins", "grid"}),
])
def test_only_the_unset_stage_fields_keep_their_defaults(cls, method, unset):
    reached = {f for m, f in STAGE_FIELDS.values() if m == method}
    assert {f.name for f in fields(cls)} - reached == unset


def test_default_run_config_gives_the_default_stage_configs():
    assert RunConfig().train_config() == TrainConfig()
    assert RunConfig().feature_config() == DEFAULT_FEATURE_CONFIG


@pytest.mark.parametrize("schema,required", [
    ("stress_14", {"EDA", "TEMP", "ACC"}),
    ("stress_16", {"EDA", "TEMP", "HR", "ACC"}),
    ("exam_18", {"EDA", "TEMP", "HR", "ACC", "BVP"}),
    ("cogload_16", {"EDA", "TEMP", "BVP", "ACC"}),
])
def test_schema_requires_the_modality_files_its_features_read(schema, required):
    policy = RunConfig(schema=schema).window_policy()
    assert policy.required_modalities == required
    given = RunConfig(schema=schema, required=["HR"]).window_policy()
    assert given.required_modalities == {"HR"}


class TestUsageExits:
    def test_no_command_prints_help_and_is_a_config_error(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("usage: physio-bench")

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["bogus"])
        assert e.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestConfigHandling:
    def test_config_file_with_flag_override(self, synth_data, tmp_path, monkeypatch):
        cfg = {"manifest": "data/manifest.json", "seed": 5, "trees": 10,
               "split": "kfold", "folds": 3}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert _run(tmp_path, monkeypatch, [
            "extract", "--config", "cfg.json", "--out", "runA"]) == 0
        # flag overrides the config file's seed
        assert _run(tmp_path, monkeypatch, [
            "extract", "--config", "cfg.json", "--seed", "9", "--out", "runB"]) == 0
        provA = json.loads((tmp_path / "runA/extract_report.json").read_text())
        provB = json.loads((tmp_path / "runB/extract_report.json").read_text())
        assert provA["provenance"]["seed"] == 5
        assert provB["provenance"]["seed"] == 9

    def test_unknown_config_key_rejected(self, tmp_path, monkeypatch, capfd):
        (tmp_path / "cfg.json").write_text(json.dumps({"shiny": True}))
        code = _run(tmp_path, monkeypatch, ["extract", "--config", "cfg.json"])
        assert code == 2
        doc = json.loads(capfd.readouterr().err.strip().splitlines()[-1])
        assert "shiny" in doc["error"]["message"]

    @pytest.mark.parametrize("doc, message", [
        (5, "JSON object"), ([1, 2], "JSON object"), ("cfg", "JSON object"),
        ({"trees": 2.5}, "trees"), ({"trees": "3"}, "trees"),
        ({"learning_rate": "0.1"}, "learning_rate"), ({"seed": None}, "seed"),
        ({"seed": True}, "seed"), ({"tune": 1}, "tune"),
        ({"required": "EDA"}, "required"), ({"required": ["EDA", 3]}, "required"),
        ({"schema": 16}, "schema"),
    ])
    def test_wrongly_typed_config_is_config_error(self, tmp_path, monkeypatch, capfd,
                                                   doc, message):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        code = _run(tmp_path, monkeypatch, [
            "evaluate", "--config", "cfg.json", "--features", "t.csv", "--out", "run"])
        assert code == 2
        err = _error(capfd)
        assert err["type"] == "ConfigError"
        assert message in err["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("flag", ["scr-min-prominence", "scr-min-distance-s",
                                      "bvp-min-rr-s", "bvp-prominence-factor"])
    def test_bad_detector_parameter_is_config_error(self, tmp_path, capfd, e4_cohort,
                                                    flag, value):
        capfd.readouterr()
        code = main(["extract", "--manifest", str(e4_cohort / "manifest.json"),
                     f"--{flag}={value}", "--out", str(tmp_path / "run")])
        assert code == 2
        err = _error(capfd)
        assert err["type"] == "ConfigError"
        assert flag.replace("-", "_") in err["message"]
        assert not (tmp_path / "run").exists()

    def test_wrongly_typed_window_is_config_error(self, synth_data, tmp_path,
                                                  monkeypatch, capfd):
        (tmp_path / "cfg.json").write_text(json.dumps({"window_s": "abc"}))
        code = _run(tmp_path, monkeypatch, [
            "extract", "--config", "cfg.json", "--manifest", "data/manifest.json",
            "--out", "run"])
        assert code == 2
        assert "window_s" in _error(capfd)["message"]

    def test_config_values_reach_the_config_as_written(self, tmp_path):
        doc = {"learning_rate": 1, "window_s": 20, "svm_sigma": None, "trees": 4,
               "required": ["EDA", "HR"], "tune": False}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        cfg = load_config(str(tmp_path / "cfg.json"), {})
        for key, value in doc.items():
            assert type(getattr(cfg, key)) is type(value)
            assert getattr(cfg, key) == value

    def test_provenance_excludes_execution_fields(self, synth_data, tmp_path,
                                                  monkeypatch):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "runC",
            "--jobs", "4"])
        prov = json.loads((tmp_path / "runC/extract_report.json").read_text())
        assert "jobs" not in prov["provenance"]["config"]
        assert "out" not in prov["provenance"]["config"]

    def test_only_parallel_module_runs_a_pool(self):
        # One ordered map is the package's only concurrency, which is what
        # keeps every `--jobs` level byte-identical.
        import physio_bench
        pattern = re.compile(r"concurrent\.futures|ThreadPoolExecutor|threading"
                             r"|multiprocessing")
        hits = {path.name
                for path in sorted(Path(physio_bench.__file__).parent.rglob("*.py"))
                if pattern.search(path.read_text())}
        assert hits == {"parallel.py"}

    def test_only_pipeline_writes_artifacts(self):
        # `pipeline.write_artifacts` writes every command output, so the
        # artifact format lives in one module; ingest writes E4 sessions.
        import physio_bench
        pattern = re.compile(r"write_text|write_bytes|open\(")
        hits = {path.name
                for path in sorted(Path(physio_bench.__file__).parent.rglob("*.py"))
                if pattern.search(path.read_text())}
        assert hits == {"pipeline.py", "ingest.py"}

    def test_only_pipeline_formats_csv_cells(self):
        # `pipeline.csv_text` writes every CSV body, so the cell format
        # lives in one function.
        import physio_bench
        hits = {path.name
                for path in sorted(Path(physio_bench.__file__).parent.rglob("*.py"))
                if ".9g" in path.read_text()}
        assert hits == {"pipeline.py"}

    def test_csv_text_cells(self):
        from physio_bench.pipeline import csv_text

        rows = [("a", 1, 0.1 + 0.2, np.float64(2) / 3, None),
                (float("nan"), float("inf"), -np.inf, np.float32(0.5), 123456789012.0)]
        assert csv_text(rows) == ("a,1,0.3,0.666666667,\n"
                                  "nan,inf,-inf,0.5,1.23456789e+11\n")
        assert csv_text([]) == ""

    @pytest.mark.parametrize(
        "flag", ["--learning-rate", "--reg-lambda", "--svm-c", "--l2", "--svm-sigma"])
    def test_nan_hyperparameter_is_config_error(self, tmp_path, monkeypatch,
                                                capfd, flag):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        code = _run(tmp_path, monkeypatch, [
            "evaluate", "--features", "t.csv", "--trees", "3", flag, "nan",
            "--out", "run"])
        assert code == 2
        err = _error(capfd)
        assert err["type"] == "ConfigError"
        assert flag[2:].replace("-", "_") in err["message"]
        assert not (tmp_path / "run/results.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n-subjects", "-2"), ("--n-subjects", "0"), ("--duration-s", "nan"),
        ("--duration-s", "inf"), ("--duration-s", "-5"), ("--duration-s", "0.5"),
        ("--test-fraction", "1.5"), ("--test-fraction", "0"), ("--test-fraction", "nan"),
        ("--seed", "-1")])
    def test_bad_synth_cohort_is_config_error(self, tmp_path, monkeypatch, capfd,
                                              flag, value):
        code = _run(tmp_path, monkeypatch, [
            "synth", "--n-subjects", "2", "--duration-s", "130", flag, value,
            "--jobs", "2", "--out", "data"])
        assert code == 2
        err = _error(capfd)
        assert err["type"] == "ConfigError"
        assert flag[2:].replace("-", "_") in err["message"]
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("folds", ["0", "-1", "1"])
    def test_ablate_fewer_than_two_folds_is_config_error(self, tmp_path, monkeypatch,
                                                         capfd, folds):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        code = _run(tmp_path, monkeypatch, [
            "ablate", "--features", "t.csv", "--trees", "3", "--folds", folds,
            "--out", "run"])
        assert code == 2
        err = _error(capfd)
        assert err["type"] == "KExceedsSubjects"
        assert "k must be >= 2" in err["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, model, trees", [
        ("evaluate", "bagging", "0"), ("train", "bagging", "-3"),
        ("train", "boosting", "-3")])
    def test_empty_or_negative_ensemble_is_config_error(self, tmp_path, monkeypatch,
                                                        capfd, command, model, trees):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        code = _run(tmp_path, monkeypatch, [
            command, "--features", "t.csv", "--model", model, "--trees", trees,
            "--out", "run"])
        assert code == 2
        err = _error(capfd)
        assert err["type"] == "ConfigError"
        assert "n_trees" in err["message"]
        assert not list((tmp_path / "run").glob("*.json"))

    @pytest.mark.parametrize("flag, value", [
        ("--max-depth", "-1"), ("--max-leaves", "0"), ("--max-leaves", "-3"),
        ("--min-samples-leaf", "0"), ("--min-samples-leaf", "-2")])
    def test_tree_size_below_its_least_is_config_error(self, tmp_path, monkeypatch,
                                                       capfd, flag, value):
        _feature_csv(tmp_path / "t.csv", "stress_16")
        code = _run(tmp_path, monkeypatch, [
            "train", "--features", "t.csv", "--growth", "leaf", "--trees", "3",
            flag, value, "--out", "run"])
        assert code == 2
        err = _error(capfd)
        assert err["type"] == "ConfigError"
        assert flag[2:].replace("-", "_") in err["message"]
        assert not list((tmp_path / "run").glob("*.json"))

    def test_csv_headers_are_json_under_non_finite_config(self, synth_data,
                                                         tmp_path, monkeypatch):
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        common = ["--svm-c", "inf", "--trees", "3", "--seed", "5", "--out", "run"]
        features = ["--features", "run/features.csv"]
        for argv in (["extract", "--manifest", "data/manifest.json"],
                     ["loso"] + features,
                     ["ablate", "--folds", "3"] + features,
                     ["train"] + features,
                     ["explain", "--model-path", "run/model.json"] + features):
            assert _run(tmp_path, monkeypatch, argv + common) == 0, argv[0]
        csvs = sorted((tmp_path / "run").glob("*.csv"))
        assert [p.name for p in csvs] == [
            "ablation.csv", "attributions.csv", "class_summary.csv",
            "features.csv", "loso_subjects.csv"]
        for path in csvs:
            head, header, *body = path.read_text().splitlines()
            assert head.startswith("# "), path.name
            doc = json.loads(head[2:], parse_constant=reject)
            assert doc["config"]["svm_c"] == "inf", path.name
            assert body, path.name
            for row in body:
                assert row.count(",") == header.count(","), (path.name, row)

    def test_json_artifacts_are_strict_json_under_non_finite_config(
            self, tmp_path, monkeypatch):
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        common = ["--svm-c", "inf", "--trees", "3", "--seed", "5"]
        manifest = ["--manifest", "data/manifest.json"]
        features = ["--features", "run/features.csv"]
        for argv in (["synth", "--n-subjects", "3", "--duration-s", "250",
                      "--out", "data"],
                     ["extract", "--out", "run"] + manifest,
                     ["evaluate", "--out", "eval"] + features,
                     ["loso", "--out", "run"] + features,
                     ["ablate", "--folds", "3", "--out", "run"] + features,
                     ["train", "--out", "run"] + features,
                     ["explain", "--model-path", "run/model.json", "--out", "run"]
                     + features,
                     ["summary", "--out", "summary"] + manifest):
            assert _run(tmp_path, monkeypatch, argv + common) == 0, argv[0]
        docs = sorted(tmp_path.rglob("*.json"))
        assert [p.name for p in docs] == [
            "manifest.json", "results.json", "ablation.json", "extract_report.json",
            "importance.json", "model.json", "results.json", "train_results.json",
            "summary.json"]
        for path in docs:
            doc = json.loads(path.read_text(), parse_constant=reject)
            assert doc["provenance"]["config"]["svm_c"] == "inf", path


class TestAblateSummary:
    def test_ablate_writes_nine_rows(self, synth_data, tmp_path, monkeypatch):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        assert _run(tmp_path, monkeypatch, [
            "ablate", "--features", "run/features.csv", "--folds", "3",
            "--trees", "8", "--seed", "5", "--out", "run"]) == 0
        lines = [ln for ln in (tmp_path / "run/ablation.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 10
        doc = json.loads((tmp_path / "run/ablation.json").read_text())
        assert len(doc["rows"]) == 9

    def test_ablate_five_modality_schema_gives_eleven_rows(self, synth_data,
                                                           tmp_path, monkeypatch):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--schema",
            "exam_18", "--out", "run18"])
        assert _run(tmp_path, monkeypatch, [
            "ablate", "--features", "run18/features.csv", "--schema", "exam_18",
            "--folds", "3", "--trees", "6", "--seed", "5", "--out", "run18"]) == 0
        lines = [ln for ln in (tmp_path / "run18/ablation.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 12  # header + All + 5 No_ + 5 Only_

    def test_correction_flag_changes_only_corrected_columns(self, synth_data,
                                                            tmp_path, monkeypatch):
        _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"])
        for method, out in (("fdr", "runF"), ("bonferroni", "runB")):
            _run(tmp_path, monkeypatch, [
                "ablate", "--features", "run/features.csv", "--folds", "3",
                "--trees", "8", "--seed", "5", "--correction", method,
                "--out", out])
        fdr = json.loads((tmp_path / "runF/ablation.json").read_text())["rows"]
        bon = json.loads((tmp_path / "runB/ablation.json").read_text())["rows"]
        for rf, rb in zip(fdr, bon):
            assert rf["p_raw"] == rb["p_raw"]
            assert rf["statistic"] == rb["statistic"]
            assert rf["f1_mean"] == rb["f1_mean"]

    def test_summary_structure(self, synth_data, tmp_path, monkeypatch, capfd):
        for jobs in ("1", "2"):
            assert _run(tmp_path, monkeypatch, [
                "summary", "--manifest", "data/manifest.json", "--jobs", jobs,
                "--out", "run" + jobs]) == 0
        text = (tmp_path / "run1/summary.json").read_bytes()
        assert (tmp_path / "run2/summary.json").read_bytes() == text
        assert _run(tmp_path, monkeypatch, [
            "summary", "--manifest", "data/manifest.json", "--jobs", "0",
            "--out", "run0"]) == 2
        assert "jobs must be >= 1" in _error(capfd)["message"]
        doc = json.loads(text)
        assert set(doc["per_subject"]) == {"S000", "S001", "S002"}
        assert "EDA" in doc["cross_subject"]
        mom = doc["cross_subject"]["EDA"]["mean_of_means"]
        means = [doc["per_subject"][s]["EDA"]["mean"] for s in doc["per_subject"]]
        assert abs(mom - np.mean(means)) < 1e-12

    def test_two_identical_subjects_have_zero_cross_std(self, tmp_path, monkeypatch):
        from physio_bench.ingest import write_session
        from physio_bench.synth import PRESETS, generate_session

        spec, coeffs = PRESETS["interaction"]()
        import dataclasses
        spec = dataclasses.replace(spec, duration_s=130.0)
        rec = generate_session(spec, coeffs, seed=3, subject_id="A")
        rec2 = generate_session(spec, coeffs, seed=3, subject_id="B")
        write_session(tmp_path / "sess/A", rec)
        write_session(tmp_path / "sess/B", rec2)
        manifest = {"sessions": [
            {"subject_id": "A", "path": "sess/A", "segments": [
                {"label": s.label, "t_start": s.t_start, "t_end": s.t_end}
                for s in rec.segments]},
            {"subject_id": "B", "path": "sess/B", "segments": [
                {"label": s.label, "t_start": s.t_start, "t_end": s.t_end}
                for s in rec2.segments]},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert _run(tmp_path, monkeypatch, [
            "summary", "--manifest", "manifest.json", "--out", "run"]) == 0
        doc = json.loads((tmp_path / "run/summary.json").read_text())
        for ch in doc["cross_subject"]:
            assert doc["cross_subject"][ch]["std_of_means"] == 0.0
