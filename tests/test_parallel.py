"""`parallel.map_ordered` and the `--jobs` paths built on it: the fold
fits of `evaluate`, `loso`, `train --tune` and `ablate` (all through
`evaluation.run_folds`), the sessions of `synth`, and the sessions that
`extract`, `summary` and a `--manifest` feed load.

Pool sizing is checked through a stand-in executor that runs the workers'
code in this process, so those tests start no process. The others start
at most two forked workers, except the `--jobs 8` runs, which start one
per session of a five-session cohort, one per subject of a loso split,
and up to eight for a tuning grid.
"""

import concurrent.futures
import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import physio_bench
from physio_bench import parallel
from physio_bench.cli import main
from test_cli import _feature_csv, _run, synth_data  # noqa: F401


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Replaces the process pool; returns the list of requested pool sizes."""
    sizes = []

    class InlineExecutor:
        """Stands in for a fork pool: records its size, runs tasks here."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            assert mp_context.get_start_method() == "fork"
            sizes.append(max_workers)
            initializer(*initargs)

        def map(self, fn, iterable):
            return [fn(i) for i in iterable]

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(parallel, "_task", None)
    return sizes


def _square(x):
    return x * x


class TestPoolSizing:
    def test_one_job_builds_no_pool(self, pool_sizes):
        assert parallel.map_ordered(_square, range(5), 1) == [0, 1, 4, 9, 16]
        assert pool_sizes == []

    @pytest.mark.parametrize("items", [[], [3]])
    def test_fewer_than_two_items_build_no_pool(self, pool_sizes, items):
        assert parallel.map_ordered(_square, items, 4) == [x * x for x in items]
        assert pool_sizes == []

    @pytest.mark.parametrize("jobs, n, size", [(2, 45, 2), (8, 3, 3), (10000, 45, 45)])
    def test_pool_size_is_jobs_capped_by_items(self, pool_sizes, jobs, n, size):
        assert parallel.map_ordered(_square, range(n), jobs) == [x * x for x in range(n)]
        assert pool_sizes == [size]

    def test_ablate_asks_for_one_worker_per_fit_at_most(self, pool_sizes, tmp_path,
                                                        monkeypatch):
        _feature_csv(tmp_path / "t.csv", "stress_16", n_subjects=5)
        common = ["ablate", "--features", "t.csv", "--folds", "5", "--trees", "3",
                  "--seed", "5"]
        assert _run(tmp_path, monkeypatch, common + ["--jobs", "10000",
                                                     "--out", "many"]) == 0
        assert pool_sizes == [9 * 5]
        assert _run(tmp_path, monkeypatch, common + ["--out", "one"]) == 0
        assert pool_sizes == [9 * 5]
        for name in ("ablation.csv", "ablation.json"):
            assert ((tmp_path / "many" / name).read_bytes()
                    == (tmp_path / "one" / name).read_bytes())


def _fail_odd(x):
    if x % 2:
        if x == 1:
            time.sleep(0.3)  # the earliest failure reports last
        raise ValueError(f"item {x}")
    return x


class TestForkedMap:
    def test_results_come_back_in_item_order(self):
        assert parallel.map_ordered(_square, range(7), 2) == [x * x for x in range(7)]
        assert multiprocessing.active_children() == []

    def test_closure_runs_in_workers(self):
        offset = 10
        assert parallel.map_ordered(lambda x: x + offset, [1, 2, 3], 2) == [11, 12, 13]

    def test_earliest_failing_item_is_raised(self):
        with pytest.raises(ValueError, match="item 1"):
            parallel.map_ordered(_fail_odd, range(6), 2)
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        # Run in a child process with a timeout, so a map that waits forever
        # for the lost task fails this test instead of stalling the suite.
        script = ("import os\n"
                  "from concurrent.futures.process import BrokenProcessPool\n"
                  "from physio_bench.parallel import map_ordered\n"
                  "parent = os.getpid()\n"
                  "def die(x):\n"
                  "    if x == 2 and os.getpid() != parent:\n"
                  "        os._exit(1)\n"
                  "    return x\n"
                  "try:\n"
                  "    map_ordered(die, range(4), 2)\n"
                  "except BrokenProcessPool:\n"
                  "    print('broken')\n")
        src = str(Path(physio_bench.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env={"PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "broken"


def _fold_candidates():
    """Four (matrix, config) candidates and a four-subject loso plan."""
    from physio_bench.evaluation import loso_folds
    from physio_bench.models import DataMatrix, TrainConfig

    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 3))
    y = np.where(X[:, 0] + rng.normal(size=60) > 0, "b", "a")
    groups = np.array([f"s{i % 4}" for i in range(60)], dtype=object)
    data = DataMatrix(X, y, groups, ["f0", "f1", "f2"])
    candidates = [(data, TrainConfig(kind="logistic", l2=l2)) for l2 in (0.1, 1.0, 10.0)]
    candidates.append((data.select_columns(["f0"]), TrainConfig(kind="knn", knn_k=4)))
    return candidates, loso_folds(sorted(set(groups)))


def _fold_score(rec):
    return rec["test_subjects"], list(rec["y_pred"]), rec["scores"].tobytes()


class TestRunFolds:
    def test_scores_come_back_per_candidate_in_fold_order(self):
        from physio_bench.evaluation import evaluate_fold, run_folds

        candidates, plan = _fold_candidates()
        expected = [[_fold_score(evaluate_fold(matrix, cfg, train, test))
                     for train, test in plan.folds] for matrix, cfg in candidates]
        assert len({str(scores) for scores in expected}) == len(candidates)
        for jobs in (1, 2):
            assert run_folds(candidates, plan, _fold_score, jobs) == expected
            assert multiprocessing.active_children() == []

    def test_one_pool_for_every_candidate_fold_pair(self, pool_sizes):
        from physio_bench.evaluation import run_folds

        candidates, plan = _fold_candidates()
        serial = run_folds(candidates, plan, _fold_score)
        assert pool_sizes == []
        assert run_folds(candidates, plan, _fold_score, 8) == serial
        assert run_folds(candidates[:1], plan, _fold_score, 8) == serial[:1]
        assert pool_sizes == [8, 4]


KINDS = ("boosting", "bagging", "logistic", "knn", "svm")


@pytest.fixture(scope="module")
def fold_table(tmp_path_factory):
    """A four-subject stress_16 table for the fold pools."""
    path = tmp_path_factory.mktemp("folds") / "t.csv"
    _feature_csv(path, "stress_16", n_subjects=4)
    return path


def _outputs(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestFoldJobs:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("argv", [
        ["evaluate", "--split", "holdout"], ["evaluate", "--split", "kfold"],
        ["evaluate", "--split", "loso"], ["train", "--tune"]],
        ids=["holdout", "kfold", "loso", "tune"])
    def test_every_jobs_level_writes_the_same_bytes_and_leaves_no_worker(
            self, fold_table, tmp_path, monkeypatch, argv, kind):
        written = {}
        for jobs in ("1", "2", "8"):
            assert _run(tmp_path, monkeypatch, argv + [
                "--features", str(fold_table), "--model", kind, "--trees", "3",
                "--folds", "2", "--seed", "5", "--jobs", jobs, "--out", "j" + jobs]) == 0
            assert multiprocessing.active_children() == []
            written[jobs] = _outputs(tmp_path / ("j" + jobs))
        assert len(written["1"]) == (1 if argv[-1] in ("holdout", "kfold") else 2)
        assert written["2"] == written["1"]
        assert written["8"] == written["1"]

    @pytest.mark.parametrize("argv, sizes", [
        (["evaluate", "--jobs", "8"], []),
        (["evaluate", "--split", "loso", "--jobs", "10000"], [4]),
        (["loso", "--jobs", "3"], [3]),
        (["evaluate", "--split", "kfold", "--jobs", "10000"], [2]),
        (["train", "--tune", "--jobs", "10000"], [3 * 2]),
        (["train", "--tune", "--jobs", "5"], [5]),
        (["train", "--jobs", "8"], []),
    ], ids=["holdout", "loso", "loso-capped", "kfold", "tune", "tune-capped", "train"])
    def test_pool_size_is_jobs_capped_by_fits(self, pool_sizes, fold_table, tmp_path,
                                              monkeypatch, argv, sizes):
        # The tune runs 3 grid points (logistic l2) on 2 folds.
        assert _run(tmp_path, monkeypatch, argv + [
            "--features", str(fold_table), "--model", "logistic", "--folds", "2",
            "--out", "run"]) == 0
        assert pool_sizes == sizes

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--split", "loso"], ["train", "--tune", "--folds", "2"]],
        ids=["loso", "tune"])
    def test_one_job_never_imports_multiprocessing(self, fold_table, tmp_path, argv):
        assert not _imports_multiprocessing(tmp_path, argv + [
            "--features", str(fold_table), "--model", "logistic", "--out", "run"])

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--split", "loso"], ["train", "--tune", "--folds", "2"]],
        ids=["loso", "tune"])
    def test_worker_error_matches_serial_error(self, tmp_path, monkeypatch, capfd, argv):
        _two_class_split_table(tmp_path / "t.csv")
        errors = {}
        for jobs in ("1", "2"):
            code = _run(tmp_path, monkeypatch, argv + [
                "--features", "t.csv", "--trees", "3", "--jobs", jobs, "--out", "j" + jobs])
            errors[jobs] = code, capfd.readouterr().err.strip().splitlines()[-1]
            assert multiprocessing.active_children() == []
        assert errors["1"] == errors["2"]
        code, err = errors["1"]
        assert code == 3
        assert json.loads(err)["error"]["type"] == "SingleClass"


def _tuned(grid, jobs):
    from physio_bench.models import TrainConfig, tune_model

    candidates, _ = _fold_candidates()
    data, _ = candidates[0]
    model, best, trace = tune_model(
        data, TrainConfig(kind="boosting", n_trees=4, cv_folds=3, grid=grid), jobs)
    return trace, best, model.to_dict()


class TestTuneJobs:
    @pytest.mark.parametrize("grid", [
        {"n_trees": [5, 3]}, {"n_trees": [3, 3]}, {"learning_rate": [0.3, 0.1]}],
        ids=["descending", "repeated", "absent"])
    def test_two_jobs_tune_to_the_same_model(self, grid):
        # No CLI input sets a grid, so these run in-process.
        serial = _tuned(grid, 1)
        assert _tuned(grid, 2) == serial
        assert multiprocessing.active_children() == []
        trace, best, _ = serial
        assert [t["params"] for t in trace] == [
            {key: v} for key, values in grid.items() for v in values]
        assert best.grid is None


def _two_class_split_table(path):
    """A two-subject table whose class b is only in s1, so that every fit
    of a two-fold split trains on one class: one fold on ['a'], the other
    on ['b']. The first fit's error is the one reported."""
    _feature_csv(path, "stress_16", n_subjects=2)
    lines = path.read_text().splitlines()
    relabelled = [lines[0]] + [
        ",".join([f[0], f[1], "b" if f[0] == "s1" else "a"] + f[3:])
        for f in (ln.split(",") for ln in lines[1:])]
    path.write_text("\n".join(relabelled) + "\n")


class TestAblateJobs:
    def test_two_jobs_write_the_same_bytes_and_leave_no_worker(
            self, synth_data, tmp_path, monkeypatch):
        assert _run(tmp_path, monkeypatch, [
            "extract", "--manifest", "data/manifest.json", "--out", "run"]) == 0
        for jobs in ("1", "2"):
            assert _run(tmp_path, monkeypatch, [
                "ablate", "--features", "run/features.csv", "--folds", "3",
                "--trees", "6", "--seed", "5", "--jobs", jobs,
                "--out", "ab" + jobs]) == 0
            assert multiprocessing.active_children() == []
        for name in ("ablation.csv", "ablation.json"):
            assert (tmp_path / "ab1" / name).read_bytes() == \
                (tmp_path / "ab2" / name).read_bytes()

    def test_worker_error_matches_serial_error(self, tmp_path, monkeypatch, capfd):
        _two_class_split_table(tmp_path / "t.csv")
        errors = {}
        for jobs in ("1", "2"):
            code = _run(tmp_path, monkeypatch, ["ablate", "--features", "t.csv",
                                                "--folds", "2", "--trees", "3",
                                                "--jobs", jobs, "--out", "j" + jobs])
            err = capfd.readouterr().err.strip().splitlines()[-1]
            errors[jobs] = (code, err)
        assert errors["1"] == errors["2"]
        code, err = errors["1"]
        assert code == 3
        doc = json.loads(err)["error"]
        assert doc["type"] == "SingleClass"
        assert "got ['" in doc["message"]
        assert multiprocessing.active_children() == []

    def test_one_job_never_imports_multiprocessing(self, tmp_path):
        _feature_csv(tmp_path / "t.csv", "stress_16", n_subjects=5)
        assert not _imports_multiprocessing(
            tmp_path, ["ablate", "--features", "t.csv", "--trees", "3", "--out", "run"])


def _imports_multiprocessing(tmp_path, argv) -> bool:
    """Whether a fresh interpreter that runs the CLI command argv (which
    must succeed) ends up with `multiprocessing` imported."""
    script = ("import sys\nfrom physio_bench.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print('multiprocessing' in sys.modules)\n")
    src = str(Path(physio_bench.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={"PYTHONPATH": src, "PHYSIO_BENCH_LOG": "error"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


class TestSynthJobs:
    SYNTH = ["synth", "--preset", "stress3", "--n-subjects", "3", "--duration-s",
             "130", "--seed", "4"]

    def test_one_job_builds_no_pool(self, pool_sizes, tmp_path, monkeypatch):
        assert _run(tmp_path, monkeypatch, self.SYNTH + ["--out", "one"]) == 0
        assert pool_sizes == []
        assert not _imports_multiprocessing(tmp_path, self.SYNTH + ["--out", "fresh"])

    @pytest.mark.parametrize("jobs, size", [(2, 2), (10000, 3)])
    def test_one_worker_per_session_at_most(self, pool_sizes, tmp_path, monkeypatch,
                                            jobs, size):
        assert _run(tmp_path, monkeypatch,
                    self.SYNTH + ["--jobs", str(jobs), "--out", "run"]) == 0
        assert pool_sizes == [size]

    def test_two_jobs_write_the_same_bytes_and_leave_no_worker(self, tmp_path,
                                                               monkeypatch):
        for jobs in ("1", "2"):
            assert _run(tmp_path, monkeypatch,
                        self.SYNTH + ["--jobs", jobs, "--out", "j" + jobs]) == 0
            assert multiprocessing.active_children() == []
        one, two = _outputs(tmp_path / "j1"), _outputs(tmp_path / "j2")
        assert len(one) == 1 + 3 * 6  # the manifest and six files per session
        assert one == two


@pytest.fixture(scope="module")
def session_cohort(tmp_path_factory):
    """Five sessions for the session pools. The third (directory S002) is
    listed as a second session of subject S000, so S000's windows come
    from two sessions whose window starts tie; S004 keeps only 10 s of
    TEMP, too short for any window, so it is skipped for no usable span."""
    data = tmp_path_factory.mktemp("sessions") / "data"
    assert main(["synth", "--preset", "interaction", "--n-subjects", "5",
                 "--duration-s", "250", "--seed", "6", "--out", str(data)]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["sessions"][2]["subject_id"] = "S000"
    (data / "manifest.json").write_text(json.dumps(manifest))
    temp = data / "sessions/S004/TEMP.csv"
    temp.write_text("\n".join(temp.read_text().split("\n")[:2 + 40]) + "\n")
    return data


#: The commands that load sessions: a model command fed --manifest
#: extracts its table in-process.
_SESSION_COMMANDS = {
    "extract": (["extract"], ("features.csv", "extract_report.json")),
    "summary": (["summary"], ("summary.json",)),
    "evaluate": (["evaluate", "--model", "logistic", "--seed", "5"], ("results.json",)),
}


class TestSessionJobs:
    @pytest.mark.parametrize("command", sorted(_SESSION_COMMANDS))
    def test_every_jobs_level_writes_the_same_bytes_and_leaves_no_worker(
            self, session_cohort, tmp_path, monkeypatch, command):
        argv, names = _SESSION_COMMANDS[command]
        written = {}
        for jobs in ("1", "2", "8"):
            assert _run(tmp_path, monkeypatch, argv + [
                "--manifest", str(session_cohort / "manifest.json"),
                "--jobs", jobs, "--out", "j" + jobs]) == 0
            assert multiprocessing.active_children() == []
            written[jobs] = [(tmp_path / ("j" + jobs) / name).read_bytes()
                             for name in names]
        assert written["2"] == written["1"]
        assert written["8"] == written["1"]

    def test_cohort_has_a_skipped_session_and_a_two_session_subject(
            self, session_cohort, tmp_path, monkeypatch):
        assert _run(tmp_path, monkeypatch, [
            "extract", "--manifest", str(session_cohort / "manifest.json"),
            "--jobs", "2", "--out", "run"]) == 0
        report = json.loads((tmp_path / "run/extract_report.json").read_text())["report"]
        assert report["sessions"]["S004"]["skipped"].startswith("no usable span")
        rows = [ln.split(",")[0] for ln in (tmp_path / "run/features.csv")
                .read_text().splitlines()[2:]]
        assert rows.count("S000") == 2 * rows.count("S001") > 0
        assert "S004" not in rows

    def test_joined_session_tables_are_the_table_of_all_windows(self, session_cohort):
        # The one-table extraction that the per-session tables replace:
        # every session's windows in manifest order, assembled together.
        from physio_bench.cli import RunConfig
        from physio_bench.features import SCHEMA_PRESETS, build_table, table_to_csv
        from physio_bench.ingest import load_manifest
        from physio_bench.pipeline import _session_windows, extract_table

        manifest = session_cohort / "manifest.json"
        policy = RunConfig().window_policy()
        schema = SCHEMA_PRESETS["stress_16"]
        entries, base = load_manifest(manifest)
        windows = [w for e in entries for w in _session_windows(
            base / e.path, e, policy, schema.files | policy.required_modalities)[0]]
        table, _ = extract_table(manifest, policy, "stress_16")
        assert table_to_csv(table) == table_to_csv(build_table(windows, schema))

    @pytest.mark.parametrize("argv, sizes", [
        (["extract", "--jobs", "10000"], [5]),
        (["summary", "--jobs", "10000"], [5]),
        (["ablate", "--folds", "3", "--trees", "3", "--jobs", "10000"], [5, 9 * 3]),
        (["loso", "--model", "logistic", "--jobs", "10000"], [5, 3]),
        (["extract"], []),
    ], ids=["extract", "summary", "ablate-fed-manifest", "loso-fed-manifest", "one-job"])
    def test_one_worker_per_session_at_most(self, pool_sizes, session_cohort, tmp_path,
                                            monkeypatch, argv, sizes):
        # A model command fed --manifest runs the extract pool to its end
        # before it opens its own.
        assert _run(tmp_path, monkeypatch, argv + [
            "--manifest", str(session_cohort / "manifest.json"), "--out", "run"]) == 0
        assert pool_sizes == sizes

    def test_one_job_never_imports_multiprocessing(self, session_cohort, tmp_path):
        for command in ("extract", "summary"):
            assert not _imports_multiprocessing(tmp_path, [
                command, "--manifest", str(session_cohort / "manifest.json"),
                "--out", command])

    def test_earliest_failing_session_is_reported_whatever_its_stage(
            self, session_cohort, tmp_path, monkeypatch, capfd):
        # Session 1 fails in features: TEMP is not required, so its windows
        # are cut without it, and then temp_mean has no channel. Session 3
        # fails in loading. The session-1 error is reported at any --jobs.
        data = tmp_path / "data"
        shutil.copytree(session_cohort, data)
        (data / "sessions/S000/TEMP.csv").unlink()
        (data / "sessions/S002/EDA.csv").write_text("0\n4\nabc\n")
        errors = {}
        for jobs in ("1", "2"):
            capfd.readouterr()
            code = _run(tmp_path, monkeypatch, [
                "extract", "--manifest", "data/manifest.json", "--required", "EDA",
                "--jobs", jobs, "--out", "run" + jobs])
            errors[jobs] = code, [ln for ln in capfd.readouterr().err.splitlines()
                                  if ln.startswith("{")]
            assert multiprocessing.active_children() == []
            assert not (tmp_path / ("run" + jobs)).exists()
        assert errors["2"] == errors["1"]
        code, (line,) = errors["1"]
        assert code == 3
        error = json.loads(line)["error"]
        assert error["type"] == "MissingRequiredModality"
        assert "TEMP" in error["message"] and "subject S000" in error["message"]
