"""`parallel.map_ordered` and the `ablate --jobs` and `synth --jobs` paths
built on it.

Pool sizing is checked through a stand-in executor that runs the workers'
code in this process, so those tests start no process. The others start
at most two forked workers.
"""

import concurrent.futures
import json
import multiprocessing
import subprocess
import sys
import time
from pathlib import Path

import pytest

import physio_bench
from physio_bench import parallel
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
        # Class b is only in s1, so with 2 folds every fit trains on one
        # class: one fold on ['a'], the other on ['b']. The first fit's
        # error is the one reported.
        _feature_csv(tmp_path / "t.csv", "stress_16", n_subjects=2)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        relabelled = [lines[0]] + [
            ",".join([f[0], f[1], "b" if f[0] == "s1" else "a"] + f[3:])
            for f in (ln.split(",") for ln in lines[1:])]
        (tmp_path / "t.csv").write_text("\n".join(relabelled) + "\n")
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
        one, two = (
            {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
            for root in (tmp_path / "j1", tmp_path / "j2"))
        assert len(one) == 1 + 3 * 6  # the manifest and six files per session
        assert one == two
