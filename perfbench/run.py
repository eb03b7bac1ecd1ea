"""Stage-timed benchmark of the physio-bench study pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload study-binary --seed 1 --seconds 55 --trace 0

A workload is one cohort run through the whole study, one CLI stage at a
time: synth -> extract -> holdout (five model families) -> loso -> ablate
-> train -> explain. Each stage is one or more in-process calls of
`physio_bench.cli.main([...])`, timed with the artifact I/O included. The
benchmark repeats whole rounds of the seven stages until the next round
would overrun `--seconds`, checks every stage's outputs (see checks.py) and
reports each stage's median wall time, adjusted to the machine's speed at
the moment it ran (see `run_stage`).

With `--trace 1` rounds alternate between untraced and traced; traced
rounds wrap the program's public functions from outside (tracing.py) and
give per-layer times and counts. Their artifacts must be byte-identical to
the untraced rounds'. The per-layer figures are also written to
perfbench/out/.

The last line of stdout is one JSON object: correct, attempted (stages),
failed (stages that raised, exited non-zero or failed a check) and
metrics. The metric names come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
HOLDOUT_MODELS = ("logistic", "knn", "svm", "bagging", "boosting")
STAGES = ("synth", "extract", "holdout", "loso", "ablate", "train", "explain")
#: Calibration probe size and its time on this machine type when it runs at
#: full speed (the 5th percentile of 300 probes on a 2-core x86-64 VM).
CALIBRATION_STEPS = 8000
CALIBRATION_REF_S = 0.0106
CRASHED = "crashed:"   # marks a stage that did not finish, as against a wrong output
COHORT_SEED = 7            # the synth seed of the ROADMAP's quick-start cohort
LEARNING_RATE = 0.5        # with 20 rounds; see README "Workloads and cohorts"
ABLATION_FOLDS = 3         # the fewest that Shapiro-Wilk accepts
WINDOW_S, STRIDE_S = 30.0, 15.0   # the CLI's default window policy
BOOSTING_DEPTH = 3         # the CLI's default boosting depth


@dataclass(frozen=True)
class Workload:
    preset: str
    schema: str
    modalities: tuple[str, ...]   # the schema's modalities, all required
    subjects: int
    duration_s: float
    trees: int
    jobs: int
    explain_rows: int
    n_classes: int
    holdout_bounds: dict = field(default_factory=dict)
    loso_bounds: dict = field(default_factory=dict)
    logistic_loso_auc_max: float | None = None
    shap_rows_checked: int = 3


WORKLOADS = {
    # The plain single-threaded study on the interaction (continuous XOR)
    # cohort: depth-3 binary boosting, exact split search and TreeSHAP.
    "study-binary": Workload(
        preset="interaction", schema="stress_16",
        modalities=("EDA", "TEMP", "HR", "ACC"),
        subjects=6, duration_s=900.0, trees=20, jobs=1, explain_rows=48, n_classes=2,
        loso_bounds={"auc": (">=", 0.85)}, logistic_loso_auc_max=0.75,
    ),
    # Three classes (K = 3 trees per round, macro one-vs-rest AUC), BVP-peak
    # HRV features, and every stage at --jobs 2.
    "study-3class": Workload(
        preset="stress3", schema="cogload_16",
        modalities=("EDA", "TEMP", "BVP", "ACC"),
        subjects=5, duration_s=615.0, trees=20, jobs=2, explain_rows=48, n_classes=3,
        holdout_bounds={"boosting": {"auc": (">=", 0.90)}},
        loso_bounds={"accuracy": (">=", 0.70)},
    ),
}


def import_program():
    """Import the package from this checkout's src/ and every module the
    CLI loads lazily, so no stage pays a first import."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import physio_bench
    except ImportError as e:
        sys.exit(f"perfbench: cannot import physio_bench from {ROOT / 'src'}: {e}")
    if Path(physio_bench.__file__).resolve().parent != ROOT / "src" / "physio_bench":
        sys.exit(f"perfbench: imported physio_bench from {physio_bench.__file__}, "
                 f"not from {ROOT / 'src'}")
    import physio_bench.ablation  # noqa: F401
    import physio_bench.cli  # noqa: F401
    import physio_bench.evaluation  # noqa: F401
    import physio_bench.explain  # noqa: F401
    import physio_bench.pipeline  # noqa: F401
    import physio_bench.synth  # noqa: F401
    return physio_bench


# --- one round -------------------------------------------------------------------


class Round:
    """Paths of one round's artifacts, and the CLI calls of each stage."""

    def __init__(self, work: Path, w: Workload, seed: int):
        self.work, self.w, self.seed = work, w, seed
        self.data = work / "data"
        self.features = work / "extract" / "features.csv"
        self.rows_csv = work / "explain_rows.csv"
        self.model = work / "train" / "model.json"

    def out(self, stage: str) -> Path:
        return self.data if stage == "synth" else self.work / stage

    def calls(self, stage: str) -> list[list[str]]:
        w = self.w
        common = ["--seed", str(self.seed), "--jobs", str(w.jobs), "--schema", w.schema]
        model = ["--trees", str(w.trees), "--learning-rate", str(LEARNING_RATE)]
        feats = ["--features", str(self.features)]
        out = ["--out", str(self.out(stage))]
        if stage == "synth":
            return [["synth", "--preset", w.preset, "--n-subjects", str(w.subjects),
                     "--duration-s", str(w.duration_s), "--seed", str(COHORT_SEED),
                     "--jobs", str(w.jobs), "--schema", w.schema] + out]
        if stage == "extract":
            return [["extract", "--manifest", str(self.data / "manifest.json"),
                     "--out", str(self.features.parent)] + common]
        if stage == "holdout":
            return [["evaluate", "--model", m, "--out", str(self.out(stage) / m)]
                    + feats + model + common for m in HOLDOUT_MODELS]
        if stage == "loso":
            return [["loso", "--model", "boosting"] + feats + model + out + common]
        if stage == "ablate":
            return [["ablate", "--model", "boosting", "--folds", str(ABLATION_FOLDS)]
                    + feats + model + out + common]
        if stage == "train":
            return [["train", "--model", "boosting"] + feats + model
                    + ["--out", str(self.model.parent)] + common]
        return [["explain", "--model-path", str(self.model),
                 "--features", str(self.rows_csv)] + out + common]

    def write_explain_rows(self) -> None:
        """The rows `explain` attributes: a seeded sample of the table."""
        import numpy as np

        lines = self.features.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        header, *rows = [ln for ln in lines if ln and not ln.startswith("#")]
        rng = np.random.default_rng([self.seed, 3])
        keep = sorted(rng.choice(len(rows), size=min(self.w.explain_rows, len(rows)),
                                 replace=False))
        self.rows_csv.write_text("\n".join(comments + [header] + [rows[i] for i in keep]) + "\n")

    def check(self, stage: str, recordings) -> list[str]:
        import checks

        w = self.w
        if stage == "synth":
            return checks.check_synth(self.data, recordings)
        if stage == "extract":
            return (checks.check_extract(self.features.parent, recordings, w.modalities,
                                         WINDOW_S, STRIDE_S)
                    + checks.check_prominences(recordings, self.seed))
        if stage == "holdout":
            return checks.check_holdout(
                {m: self.out(stage) / m / "results.json" for m in HOLDOUT_MODELS},
                self.features, w.n_classes, w.holdout_bounds)
        if stage == "loso":
            problems = checks.check_loso(self.out(stage), self.features, w.loso_bounds)
            if w.logistic_loso_auc_max is not None:
                problems += self.check_linear_gap()
            return problems
        if stage == "ablate":
            return checks.check_ablation(self.out(stage))
        if stage == "train":
            return checks.check_train(self.model.parent, w.trees, w.n_classes, BOOSTING_DEPTH)
        return checks.check_explain(self.out(stage), self.model, self.rows_csv,
                                    w.shap_rows_checked, self.seed)

    def check_linear_gap(self) -> list[str]:
        """The nonlinearity gap: logistic regression, run through LOSO on the
        same table (untimed), stays at or under the AUC ceiling."""
        from physio_bench import cli

        out = self.work / "loso-logistic"
        argv = ["loso", "--model", "logistic", "--features", str(self.features),
                "--out", str(out), "--seed", str(self.seed), "--schema", self.w.schema]
        if cli.main(argv) != 0:
            return ["logistic LOSO for the gap check failed"]
        auc = json.loads((out / "results.json").read_text())["aggregate"]["pooled"]["auc"]
        if auc is None or auc > self.w.logistic_loso_auc_max:
            return [f"logistic LOSO pooled auc {auc} not <= {self.w.logistic_loso_auc_max}"]
        return []


def digest(path: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-numpy work, the
    probe of how fast this machine runs Python code at the moment."""
    import numpy as np

    a = np.arange(64, dtype=np.float64)
    samples = []
    for _ in range(3):     # the median drops a sample that a momentary stall hit
        t0 = time.perf_counter()
        x = 0.5
        for i in range(CALIBRATION_STEPS):
            x = (x * 1.000001 + i) % 97.0
            repr(x)
            a[i % 64] = x
            if i % 8 == 0:
                np.sort(a).sum()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_stage(cli, calls: list[list[str]]) -> tuple[float, float, list[str]]:
    """Wall seconds of the stage's CLI calls, the same adjusted to the
    reference machine speed, and the calls that raised or exited non-zero.

    The calibration probe runs before every call and after the last; each
    call's wall time is scaled by CALIBRATION_REF_S over the mean of the
    probes that bracket it."""
    problems = []
    wall = adjusted = 0.0
    probe = calibrate()
    for argv in calls:
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        after = calibrate()
        wall += elapsed
        adjusted += elapsed * CALIBRATION_REF_S / ((probe + after) / 2)
        probe = after
        if code != 0:
            problems.append(f"{CRASHED} `{argv[0]}` exited with {code}")
    return wall, adjusted, problems


def run_round(cli, rnd: Round, tracer, reference: dict | None, recordings):
    """One pass over all stages. The first round checks every stage's
    outputs; later ones must reproduce the first round's artifacts byte for
    byte, which carries its verdict over."""
    shutil.rmtree(rnd.work, ignore_errors=True)
    rnd.work.mkdir(parents=True)
    times, wall, digests, problems = {}, {}, {}, {}
    for stage in STAGES:
        if stage == "explain" and rnd.features.is_file():
            rnd.write_explain_rows()
        with tracer.installed() if tracer else contextlib.nullcontext():
            wall[stage], times[stage], problems[stage] = run_stage(cli, rnd.calls(stage))
        digests[stage] = digest(rnd.out(stage))
        if problems[stage]:
            continue
        if reference is None:
            try:
                problems[stage] = rnd.check(stage, recordings)
            except Exception as e:
                traceback.print_exc()
                problems[stage] = [f"check raised {type(e).__name__}: {e}"]
        elif digests[stage] != reference["digests"][stage]:
            problems[stage] = ["artifacts differ from the first round"
                               + (" (traced vs untraced)" if tracer else "")]
        else:
            problems[stage] = reference["problems"][stage]
    return {"times": times, "wall": wall, "digests": digests, "problems": problems,
            "traced": tracer is not None}


# --- the run ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def stage_seconds(rounds: list[dict]) -> dict[str, float]:
    return {f"{s}_s": statistics.median(r["times"][s] for r in rounds) for s in STAGES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    os.environ["PHYSIO_BENCH_LOG"] = "error"
    program = import_program()
    import_s = time.perf_counter() - _T_START
    from physio_bench import cli, synth

    # Set-up: the in-memory cohort the synth and extract checks compare with.
    builds = []
    probe = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        recordings = synth.generate_recordings(w.preset, w.subjects, COHORT_SEED,
                                               w.duration_s)
        elapsed = time.perf_counter() - t0
        after = calibrate()
        builds.append(elapsed * CALIBRATION_REF_S / ((probe + after) / 2))
        probe = after
    setup_s = import_s + statistics.median(builds)

    import checks  # noqa: F401  (scipy loads here, outside the timed set-up)
    from tracing import Tracer

    work = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    rounds: list[dict] = []
    try:
        t0 = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            started = time.perf_counter()
            rounds.append(run_round(cli, Round(work, w, args.seed),
                                    tracer if traced else None,
                                    rounds[0] if rounds else None, recordings))
            now = time.perf_counter()
            print(f"round {len(rounds) - 1}{' traced' if traced else ''} (adjusted/wall s): "
                  + ", ".join(f"{k} {v:.3f}/{rounds[-1]['wall'][k]:.3f}"
                              for k, v in rounds[-1]["times"].items()), file=sys.stderr)
            enough = tracer is None or len(rounds) >= 2
            if enough and (now - t0) + (now - started) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH_DIR / "work").rmdir()

    failures = [(i, s, p) for i, r in enumerate(rounds)
                for s, p in r["problems"].items() if p]
    for i, s, p in failures:
        print(f"round {i} stage {s} FAILED: {'; '.join(p)}", file=sys.stderr)
    attempted = len(rounds) * len(STAGES)
    plain = [r for r in rounds if not r["traced"]]

    if tracer is None:
        values = {"setup_s": setup_s, **stage_seconds(plain), "peak_rss_mb": peak_rss_mb()}
        wanted = spec["end_to_end"]
    else:
        traced = [r for r in rounds if r["traced"]]
        values = {k: v / len(traced) for k, v in tracer.metrics().items()}
        round_s = statistics.median(sum(r["times"].values()) for r in traced)
        values["trace.round_s"] = round_s
        values["trace.overhead_s"] = round_s - statistics.median(
            sum(r["times"].values()) for r in plain)
        wanted = spec["per_layer"]
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "program": program.__file__,
            "traced_rounds": len(traced), "untraced_rounds": len(plain),
            "per_layer_per_round": values,
            "stage_s": {"traced": stage_seconds(traced), "untraced": stage_seconds(plain)},
        }, indent=1, sort_keys=True) + "\n")

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload:>13} {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>13} rounds {len(rounds)}, stages attempted {attempted}, "
          f"failed {len(failures)}")
    print(json.dumps({
        "correct": all(p[0].startswith(CRASHED) for _, _, p in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
