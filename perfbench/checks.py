"""Correctness checks on each stage's artifacts.

Each check is built apart from the program (its own parser, closed forms,
scipy, brute-force Shapley sums, its own tree traversal) or tests a
property the method must have. None compares against a stored copy of an
earlier output. Every check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

# Windowing arithmetic tolerance, as documented for stride-aligned starts.
T_EPS = 1e-9
MODALITY_CHANNELS = {"EDA": ("EDA",), "TEMP": ("TEMP",), "HR": ("HR",),
                     "BVP": ("BVP",), "ACC": ("ACC_X", "ACC_Y", "ACC_Z")}
ACC_COUNTS_PER_G = 64.0


def _lines(path: Path) -> list[str]:
    return [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- synth -----------------------------------------------------------------------


def check_synth(data_dir: Path, recordings) -> list[str]:
    """Every channel parsed back from the E4 files is bit-identical to the
    in-memory recording the generator made."""
    problems = []
    for rec in recordings:
        sdir = data_dir / "sessions" / rec.subject_id
        for name in ("EDA", "TEMP", "HR", "BVP"):
            series = rec.channels[name]
            lines = _lines(sdir / f"{name}.csv")
            head = (float(lines[0].split(",")[0]), float(lines[1].split(",")[0]))
            values = np.array(lines[2:], dtype=np.float64)
            if head != (series.start_epoch, series.rate_hz) \
                    or not _same_bits(values, series.values):
                problems.append(f"{rec.subject_id}/{name}.csv differs from the generator")
        lines = _lines(sdir / "ACC.csv")
        raw = np.array([ln.split(",") for ln in lines[2:]], dtype=np.float64)
        starts = [float(f) for f in lines[0].split(",")]
        rates = [float(f) for f in lines[1].split(",")]
        for j, axis in enumerate(("ACC_X", "ACC_Y", "ACC_Z")):
            series = rec.channels[axis]
            if (starts[j], rates[j]) != (series.start_epoch, series.rate_hz) \
                    or not _same_bits(raw[:, j] / ACC_COUNTS_PER_G, series.values):
                problems.append(f"{rec.subject_id}/ACC.csv {axis} differs from the generator")
        lines = _lines(sdir / "IBI.csv")
        rows = np.array([ln.split(",") for ln in lines[1:]], dtype=np.float64).reshape(-1, 2)
        if float(lines[0].split(",")[0]) != rec.ibi.start_epoch \
                or not _same_bits(rows[:, 0], rec.ibi.offsets) \
                or not _same_bits(rows[:, 1], rec.ibi.durations):
            problems.append(f"{rec.subject_id}/IBI.csv differs from the generator")
    return problems


# --- extract ---------------------------------------------------------------------


def read_features(path: Path) -> tuple[list[str], list[dict]]:
    """Header and rows of a features CSV (comment lines skipped)."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return reader.fieldnames, list(reader)


def closed_form_candidates(rec, modalities, window_s, stride_s) -> int:
    """Stride-aligned window starts fitting in the joint span of the
    required channels."""
    channels = [rec.channels[ch] for m in modalities for ch in MODALITY_CHANNELS[m]]
    start = max(s.start_epoch for s in channels)
    end = min(s.start_epoch + len(s.values) / s.rate_hz for s in channels)
    span = end - start
    if span < window_s - T_EPS:
        return 0
    return math.floor((span - window_s) / stride_s + T_EPS) + 1


def check_extract(run_dir: Path, recordings, modalities, window_s, stride_s) -> list[str]:
    """Retained plus dropped windows equal the closed-form candidate count
    for every session, and the table holds exactly the retained windows."""
    problems = []
    report = json.loads((run_dir / "extract_report.json").read_text())["report"]
    retained = 0
    for rec in recordings:
        s = report["sessions"].get(rec.subject_id)
        if s is None or "skipped" in s:
            problems.append(f"session {rec.subject_id} missing or skipped: {s}")
            continue
        expect = closed_form_candidates(rec, modalities, window_s, stride_s)
        got = s["retained"] + s["dropped_fill"] + s["dropped_label"]
        if got != expect or s["candidates"] != expect:
            problems.append(f"{rec.subject_id}: {s['candidates']} candidates, "
                            f"{got} retained+dropped, closed form {expect}")
        retained += s["retained"]
    _, rows = read_features(run_dir / "features.csv")
    if len(rows) != retained:
        problems.append(f"features.csv has {len(rows)} rows, sessions retained {retained}")
    return problems


def check_prominences(recordings, seed: int, n_windows: int = 8,
                      window_s: float = 30.0) -> list[str]:
    """features.peak_prominences agrees exactly with
    scipy.signal.peak_prominences on seeded BVP windows."""
    from scipy.signal import peak_prominences as scipy_prominences

    from physio_bench.features import peak_prominences

    rng = np.random.default_rng([seed, 1])
    problems = []
    for k in range(n_windows):
        bvp = recordings[int(rng.integers(len(recordings)))].channels["BVP"]
        width = int(window_s * bvp.rate_hz)
        lo = int(rng.integers(0, len(bvp.values) - width))
        y = bvp.values[lo:lo + width]
        mid = y[1:-1]
        peaks = np.flatnonzero((mid > y[:-2]) & (mid > y[2:])) + 1
        ours = peak_prominences(y, peaks)
        ref = scipy_prominences(y, peaks)[0]
        if len(peaks) == 0 or not np.array_equal(ours, ref):
            problems.append(f"BVP window {k}: {len(peaks)} peaks, prominences "
                            f"differ by {np.max(np.abs(ours - ref), initial=0.0)}")
    return problems


# --- evaluation ------------------------------------------------------------------


def _subject_counts(features: Path) -> dict[str, int]:
    _, rows = read_features(features)
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["subject_id"]] = counts.get(r["subject_id"], 0) + 1
    return counts


def check_holdout(results_by_model: dict[str, Path], features: Path,
                  n_classes: int, floors: dict) -> list[str]:
    """Each family's confusion matrix covers exactly the held-out subjects'
    windows; the gap bounds hold on the pooled metrics."""
    problems = []
    counts = _subject_counts(features)
    for model, path in results_by_model.items():
        res = json.loads(path.read_text())
        (fold,) = res["per_fold"]
        expect = sum(counts[s] for s in fold["test_subjects"])
        total = int(np.sum(res["confusion"]))
        if not (fold["n_windows"] == total == expect) or len(res["classes"]) != n_classes:
            problems.append(f"{model}: {total} windows scored, {expect} held out")
        pooled = res["aggregate"]["pooled"]
        for key, (op, bound) in floors.get(model, {}).items():
            value = pooled[key]
            ok = value is not None and (value >= bound if op == ">=" else value <= bound)
            if not ok:
                problems.append(f"{model} pooled {key} {value} not {op} {bound}")
    return problems


def check_loso(out_dir: Path, features: Path, floors: dict) -> list[str]:
    """Every subject is tested exactly once and the per-subject window
    counts sum to the table."""
    problems = []
    counts = _subject_counts(features)
    res = json.loads((out_dir / "results.json").read_text())
    tested = [s for f in res["per_fold"] for s in f["test_subjects"]]
    if any(len(f["test_subjects"]) != 1 for f in res["per_fold"]) \
            or sorted(tested) != sorted(counts):
        problems.append(f"LOSO tested {tested}, subjects {sorted(counts)}")
    lines = _lines(out_dir / "loso_subjects.csv")
    rows = [ln.split(",") for ln in lines[2:] if not ln.startswith("mean,")]
    per_subject = {r[0]: int(r[1]) for r in rows}
    if per_subject != counts or sum(per_subject.values()) != sum(counts.values()):
        problems.append(f"loso_subjects.csv counts {per_subject} != table {counts}")
    pooled = res["aggregate"]["pooled"]
    for key, (op, bound) in floors.items():
        value = pooled[key]
        ok = value is not None and (value >= bound if op == ">=" else value <= bound)
        if not ok:
            problems.append(f"LOSO pooled {key} {value} not {op} {bound}")
    return problems


# --- ablation statistics ------------------------------------------------------


def _close(a, b, rtol=1e-8, atol=1e-12) -> bool:
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def check_ablation(out_dir: Path) -> list[str]:
    """t-test rows agree with scipy.stats.ttest_rel on the stored per-fold
    F1, and the BH-adjusted p values with scipy's false_discovery_control."""
    from scipy.stats import false_discovery_control, ttest_rel

    problems = []
    rows = json.loads((out_dir / "ablation.json").read_text())["rows"]
    base = [r for r in rows if r["config"] == "All"]
    if len(base) != 1:
        return [f"expected one All row, got {len(base)}"]
    f1_base = np.asarray(base[0]["per_fold_f1"])
    tested = [r for r in rows if r["test"] is not None]
    if len(tested) != len(rows) - 1:
        problems.append("every non-baseline config needs a test")
    for r in tested:
        if r["test"] != "t-test":
            continue
        if np.array_equal(f1_base, r["per_fold_f1"]):
            stat, p = 0.0, 1.0     # documented convention: no difference at all
        else:
            res = ttest_rel(f1_base, r["per_fold_f1"])
            stat, p = float(res.statistic), float(res.pvalue)
        if not (_close(r["statistic"], stat) and _close(r["p_raw"], p)):
            problems.append(f"{r['config']}: t={r['statistic']} p={r['p_raw']}, "
                            f"scipy t={stat} p={p}")
    if tested:
        adjusted = false_discovery_control([r["p_raw"] for r in tested])
        for r, p_bh in zip(tested, adjusted):
            if not _close(r["p_corrected"], float(p_bh)):
                problems.append(f"{r['config']}: BH p {r['p_corrected']}, "
                                f"scipy {float(p_bh)}")
    return problems


# --- model and SHAP ------------------------------------------------------------


def _leaf(tree: dict, x) -> float:
    node = 0
    while tree["feature"][node] >= 0:
        f = tree["feature"][node]
        node = tree["left"][node] if x[f] <= tree["threshold"][node] else tree["right"][node]
    return tree["value"][node][0]


def _depth(tree: dict, node: int = 0) -> int:
    if tree["feature"][node] < 0:
        return 0
    return 1 + max(_depth(tree, tree["left"][node]), _depth(tree, tree["right"][node]))


def _expectation(tree: dict, x, revealed, node: int = 0) -> float:
    """Path-dependent E[tree(x) | revealed features], cover-weighted."""
    f = tree["feature"][node]
    if f < 0:
        return tree["value"][node][0]
    left, right = tree["left"][node], tree["right"][node]
    if f in revealed:
        return _expectation(tree, x, revealed, left if x[f] <= tree["threshold"][node] else right)
    c = tree["cover"]
    return (c[left] * _expectation(tree, x, revealed, left)
            + c[right] * _expectation(tree, x, revealed, right)) / c[node]


def brute_force_shapley(tree: dict, x) -> dict[int, float]:
    """Exact Shapley values over the tree's own split features; every
    other feature is a dummy with value zero."""
    feats = sorted({f for f in tree["feature"] if f >= 0})
    m = len(feats)
    value = {}
    for r in range(m + 1):
        for subset in itertools.combinations(feats, r):
            value[frozenset(subset)] = _expectation(tree, x, frozenset(subset))
    fact = [math.factorial(i) for i in range(m + 1)]
    phi = {}
    for j in feats:
        rest = [f for f in feats if f != j]
        total = 0.0
        for r in range(m):
            w = fact[r] * fact[m - r - 1] / fact[m]
            for subset in itertools.combinations(rest, r):
                s = frozenset(subset)
                total += w * (value[s | {j}] - value[s])
        phi[j] = total
    return phi


def check_train(out_dir: Path, n_rounds: int, n_classes: int, max_depth: int) -> list[str]:
    model = json.loads((out_dir / "model.json").read_text())
    problems = []
    if model["mode"] != "boosting" or len(model["trees"]) != n_rounds * n_classes:
        problems.append(f"{model['mode']} model with {len(model['trees'])} trees, "
                        f"expected {n_rounds} rounds x {n_classes} classes")
    deepest = max(_depth(t) for t in model["trees"])
    if deepest > max_depth:
        problems.append(f"a tree has depth {deepest} > {max_depth}")
    return problems


def check_explain(out_dir: Path, model_path: Path, features: Path,
                  n_check: int, seed: int) -> list[str]:
    """For seeded explained rows: attributions.csv equals the brute-force
    Shapley sum over trees, and base + sum(phi) equals the margin from this
    module's own traversal of model.json (local accuracy)."""
    model = json.loads(model_path.read_text())
    names = model["feature_names"]
    classes = model["classes"]
    lr = model["learning_rate"]
    impute = np.asarray(model["stats"]["impute"])
    _, rows = read_features(features)
    att = {}
    with open(out_dir / "attributions.csv") as fh:
        reader = csv.DictReader(ln for ln in fh if not ln.startswith("#"))
        for r in reader:
            key = (r["subject_id"], float(r["window_start"]), r["class"], r["feature"])
            att[key] = float(r["shap"])
    problems = []
    if len(att) != len(rows) * len(classes) * len(names):
        problems.append(f"{len(att)} attributions for {len(rows)} rows")
    importance = json.loads((out_dir / "importance.json").read_text())
    if not importance["local_accuracy"]["all_rows_within_1e-8"]:
        problems.append("the program's own local-accuracy audit failed")
    rng = np.random.default_rng([seed, 2])
    for i in rng.choice(len(rows), size=min(n_check, len(rows)), replace=False):
        row = rows[int(i)]
        x = np.array([float(row[n]) for n in names])
        x = np.where(np.isnan(x), impute, x)
        phi = np.zeros((len(classes), len(names)))
        base = np.array(model["base_score"], dtype=np.float64)
        margin = base.copy()
        for tree, k in zip(model["trees"], model["tree_class"]):
            for j, v in brute_force_shapley(tree, x).items():
                phi[k, j] += lr * v
            base[k] += lr * _expectation(tree, x, frozenset())
            margin[k] += lr * _leaf(tree, x)
        key = (row["subject_id"], float(row["window_start"]))
        for k, cls in enumerate(classes):
            got = np.array([att[key + (cls, n)] for n in names])
            # attributions.csv holds 9 significant digits.
            tol = 1e-8 * np.abs(phi[k]) + 1e-12
            if np.any(np.abs(got - phi[k]) > tol):
                problems.append(f"row {key} class {cls}: SHAP differs from brute force "
                                f"by {np.max(np.abs(got - phi[k]))}")
            gap = abs(base[k] + got.sum() - margin[k])
            if gap > tol.sum() + 1e-10:
                problems.append(f"row {key} class {cls}: local accuracy off by {gap}")
    return problems
