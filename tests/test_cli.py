"""CLI contract: commands, exit codes, error JSON, config precedence."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from physio_bench.cli import RunConfig, build_parser, load_config, main
from physio_bench.features import SCHEMA_PRESETS


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


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_flag_sets_its_field_with_its_type(name):
    text, expected = FLAG_VALUES[name]
    assert getattr(RunConfig(), name) != expected
    argv = ["evaluate", "--" + name.replace("_", "-")]
    args = build_parser().parse_args(argv + ([] if text is None else [text]))
    cfg = load_config(None, {k: v for k, v in vars(args).items()
                             if k not in ("command", "config")})
    value = getattr(cfg, name)
    assert type(value) is type(expected)
    assert value == expected
    others = {f.name for f in fields(RunConfig)} - {name}
    assert all(getattr(cfg, o) == getattr(RunConfig(), o) for o in others)


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
        ("--test-fraction", "1.5"), ("--test-fraction", "0"), ("--test-fraction", "nan")])
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

    def test_csv_headers_are_json_under_non_finite_config(self, synth_data,
                                                         tmp_path, monkeypatch):
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        common = ["--scr-min-prominence", "inf", "--trees", "3", "--seed", "5",
                  "--out", "run"]
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
            head = path.read_text().splitlines()[0]
            assert head.startswith("# "), path.name
            doc = json.loads(head[2:], parse_constant=reject)
            assert doc["config"]["scr_min_prominence"] == "inf", path.name


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
