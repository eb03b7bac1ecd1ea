"""Byte-compare every quick-start artifact of two checkouts.

    python tools/byte_compare.py run OUT [--jobs N] [--src CHECKOUT]
    python tools/byte_compare.py compare A B

`run` writes the quick-start command set of two cohorts into OUT, importing
the package from CHECKOUT/src (default: this checkout); commands run inside
OUT on relative paths. It leaves 196 files (98 per cohort). `compare` names
each file that differs between two such directories, ignoring only the
`model_path` provenance string.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

#: (directory, synth preset, subjects, session seconds, feature schema)
COHORTS = [("interaction", "interaction", 10, None, "stress_16"),
           ("stress3", "stress3", 5, 615, "cogload_16")]
KINDS = ("boosting", "bagging", "logistic", "knn", "svm")
MODEL_PATH = re.compile(rb'"model_path": ?"[^"]*"')


def commands(name, preset, n, duration, schema):
    """The command lines of one cohort, without the common flags; a flag
    given here wins over the common one."""
    feats = ["--features", f"{name}/run/features.csv"]
    manifest = ["--manifest", f"{name}/data/manifest.json"]
    duration = [] if duration is None else ["--duration-s", str(duration)]
    yield ["synth", "--preset", preset, "--n-subjects", str(n), *duration,
           "--out", f"{name}/data"]
    yield ["extract", *manifest, "--out", f"{name}/run"]
    # The two other layouts' file sets: stress_14 reads no HR.csv, exam_18
    # reads every modality file.
    for other in ("stress_14", "exam_18"):
        yield ["extract", *manifest, "--schema", other, "--out", f"{name}/extract-{other}"]
    yield ["summary", *manifest, "--out", f"{name}/summary"]
    # Extracted in-process from the manifest, so the table that `extract`
    # wrote is compared with the one a model command loads itself.
    yield ["evaluate", *manifest, "--model", "logistic", "--out", f"{name}/eval-manifest"]
    for kind in KINDS:
        yield ["evaluate", *feats, "--model", kind, "--out", f"{name}/eval-{kind}"]
        trees = ["--trees", "200"] if kind == "boosting" else []
        yield ["train", *feats, "--model", kind, *trees, "--out", f"{name}/train-{kind}"]
    yield ["evaluate", *feats, "--model", "boosting", "--split", "kfold",
           "--out", f"{name}/eval-kfold-boosting"]
    yield ["loso", *feats, "--out", f"{name}/loso"]
    yield ["ablate", *feats, "--folds", "5", "--out", f"{name}/ablate"]
    for kind in ("knn", "svm", "bagging", "boosting", "logistic"):
        yield ["train", *feats, "--tune", "--model", kind, "--out", f"{name}/tune-{kind}"]
    yield ["train", *feats, "--trees", "200", "--growth", "leaf", "--split-mode", "hist",
           "--out", f"{name}/train-leaf-hist"]
    for model in ("train-boosting", "train-bagging", "train-logistic", "train-leaf-hist"):
        yield ["explain", "--model-path", f"{name}/{model}/model.json", *feats,
               "--out", f"{name}/explain-{model}"]


def run(out: Path, jobs: int, src: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src.resolve() / "src"))
    for cohort in COHORTS:
        for command, *flags in commands(*cohort):
            # The last of two same flags wins, so the common flags go first.
            argv = [command, "--seed", "7", "--jobs", str(jobs), "--schema", cohort[-1],
                    *flags]
            print(" ".join(argv), flush=True)
            subprocess.run([sys.executable, "-m", "physio_bench.cli", *argv],
                           cwd=out, env=env, check=True)


def differing(a: Path, b: Path) -> int:
    def content(path):
        return MODEL_PATH.sub(b"", path.read_bytes()) if path.is_file() else None
    names = sorted({p.relative_to(d) for d in (a, b) for p in d.rglob("*") if p.is_file()})
    bad = [n for n in names if content(a / n) != content(b / n)]
    print(*(f"differs: {n}\n" for n in bad), end="", sep="")
    print(f"{len(names) - len(bad)} of {len(names)} files identical")
    return 1 if bad else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cmd", choices=("run", "compare"))
    ap.add_argument("dirs", type=Path, nargs="+")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args()
    if args.cmd == "compare":
        sys.exit(differing(*args.dirs))
    run(args.dirs[0], args.jobs, args.src)
