"""Command-line entry point.

Subcommands: extract | train | evaluate | loso | ablate | explain | synth
| summary. A single JSON config document supplies every field; any field
can be overridden by the same-named flag (flag wins). Logs go to stderr
as structured lines, data to files under --out. Exit codes: 0 success,
2 configuration/usage error, 3 data error; failures emit one
machine-readable JSON error line on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, PhysioBenchError
from .features import (
    DEFAULT_FEATURE_CONFIG,
    SCHEMA_PRESETS,
    FeatureConfig,
    FeatureTable,
)
from .models import (
    TrainConfig,
    model_from_json,
    model_to_json,
    train_model,
    tune_model,
)
from .models.base import DataMatrix
from .windowing import WindowPolicy

log = logging.getLogger("physio_bench.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

#: Fields that never change results, excluded from provenance so reruns
#: stay byte-identical. `jobs` is the number of forked workers that run
#: the (config, fold) fits of ablate and the sessions of synth; every
#: other stage runs serially. Results are put back in fit or subject
#: order, so it never changes an artifact.
_EXECUTION_FIELDS = {"out", "jobs"}


@dataclass
class RunConfig:
    # inputs
    manifest: str | None = None
    features: str | None = None
    model_path: str | None = None
    # windowing
    window_s: float = 30.0
    stride_s: float = 15.0
    min_fill: float = 0.8
    label_rule: str = "strict"
    required: list[str] | None = None
    # feature extraction
    schema: str = "stress_16"
    scr_min_prominence: float = 0.01
    scr_min_distance_s: float = 1.0
    bvp_min_rr_s: float = 0.33
    bvp_prominence_factor: float = 0.5
    # model
    model: str = "boosting"
    trees: int | None = None
    learning_rate: float = 0.1
    max_depth: int | None = None
    max_leaves: int = 31
    growth: str = "depth"
    split_mode: str = "exact"
    reg_lambda: float = 1.0
    min_samples_leaf: int | None = None
    knn_k: int = 5
    svm_c: float = 1.0
    svm_sigma: float | None = None
    l2: float = 1.0
    tune: bool = False
    # evaluation
    split: str = "holdout"
    test_fraction: float = 0.2
    folds: int = 5
    correction: str = "fdr"
    alpha: float = 0.05
    # synth
    preset: str = "interaction"
    n_subjects: int = 10
    duration_s: float | None = None
    # run
    seed: int = 0
    out: str = "out"
    jobs: int = 1

    def __post_init__(self):
        if self.schema not in SCHEMA_PRESETS:
            raise ConfigError(
                f"unknown schema {self.schema!r}; presets: {sorted(SCHEMA_PRESETS)}"
            )
        if self.split not in ("holdout", "kfold", "loso"):
            raise ConfigError("split must be holdout, kfold, or loso")
        if self.correction not in ("fdr", "bonferroni"):
            raise ConfigError("correction must be fdr or bonferroni")
        if not (0 < self.alpha < 1):
            raise ConfigError("alpha must be in (0,1)")
        if not (0 < self.test_fraction < 1):
            raise ConfigError("test_fraction must be in (0,1)")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.n_subjects < 1:
            raise ConfigError("n_subjects must be >= 1")
        if self.duration_s is not None and not (
                math.isfinite(self.duration_s) and self.duration_s >= 1):
            raise ConfigError("duration_s must be finite and >= 1")
        self.train_config()  # validates model fields

    def window_policy(self) -> WindowPolicy:
        required = self.required
        if required is None:
            required = [
                m for m in ("EDA", "TEMP", "HR", "ACC", "BVP")
                if any(f.modality == m for f in SCHEMA_PRESETS[self.schema].features)
            ]
        return WindowPolicy(self.window_s, self.stride_s, self.min_fill,
                            frozenset(required), self.label_rule)

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(self.scr_min_prominence, self.scr_min_distance_s,
                             DEFAULT_FEATURE_CONFIG.scr_tonic_window_s,
                             self.bvp_min_rr_s, self.bvp_prominence_factor)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            kind=self.model,
            n_trees=self.trees,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
            max_leaves=self.max_leaves,
            growth=self.growth,
            splits=self.split_mode,
            reg_lambda=self.reg_lambda,
            min_samples_leaf=self.min_samples_leaf,
            knn_k=self.knn_k,
            svm_c=self.svm_c,
            svm_sigma=self.svm_sigma,
            l2=self.l2,
            seed=self.seed,
            cv_folds=self.folds,
        )

    def provenance(self) -> dict:
        doc = asdict(self)
        for key in _EXECUTION_FIELDS:
            doc.pop(key, None)
        return {"config": doc, "seed": self.seed}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None
    known = {f.name for f in fields(RunConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig(**doc)
    except TypeError as e:
        raise ConfigError(str(e)) from None


def setup_logging() -> None:
    level_name = os.environ.get("PHYSIO_BENCH_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"PHYSIO_BENCH_LOG must be one of {sorted(levels)}")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s %(message)s"))
    root = logging.getLogger("physio_bench")
    root.handlers[:] = [handler]
    root.setLevel(levels[level_name])


# --- command implementations -----------------------------------------------------


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _need_manifest(cfg: RunConfig) -> str:
    if cfg.manifest is None:
        raise ConfigError("this command needs a manifest path")
    if not Path(cfg.manifest).is_file():
        raise ConfigError(f"manifest not found: {cfg.manifest}")
    return cfg.manifest


def _load_table(cfg: RunConfig) -> FeatureTable:
    """The feature table from --features, whose columns must be the
    configured schema's, or else extracted from --manifest."""
    from .pipeline import extract_table, read_table

    if cfg.features is None:
        table, _ = extract_table(_need_manifest(cfg), cfg.window_policy(),
                                 cfg.schema, cfg.feature_config())
        return table
    if not Path(cfg.features).is_file():
        raise ConfigError(f"feature CSV not found: {cfg.features}")
    table = read_table(cfg.features, cfg.schema)
    if table.schema.names != SCHEMA_PRESETS[cfg.schema].names:
        raise ConfigError(
            f"feature CSV {cfg.features} does not have the columns of schema "
            f"{cfg.schema!r}; pass the --schema it was extracted with"
        )
    return table


def _load_matrix(cfg: RunConfig) -> DataMatrix:
    return DataMatrix.from_table(_load_table(cfg))


def cmd_extract(cfg: RunConfig) -> int:
    from .pipeline import dump_json, extract_table, write_table

    table, report = extract_table(_need_manifest(cfg), cfg.window_policy(),
                                  cfg.schema, cfg.feature_config())
    out = _out_dir(cfg)
    write_table(out / "features.csv", table, cfg.provenance())
    report_doc = {"provenance": cfg.provenance(), "report": report}
    (out / "extract_report.json").write_text(dump_json(report_doc))
    log.info("extract wrote %d windows to %s", len(table), out / "features.csv")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    from .evaluation import confusion_matrix, classification_metrics
    from .models.base import class_order
    from .pipeline import dump_json

    matrix = _load_matrix(cfg)
    tcfg = cfg.train_config()
    trace = None
    if cfg.tune:
        model, tcfg, trace = tune_model(matrix, tcfg)
    else:
        model = train_model(matrix, tcfg)
    out = _out_dir(cfg)
    doc = json.loads(model_to_json(model))
    doc["provenance"] = cfg.provenance()
    (out / "model.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")

    pred = model.predict_class(matrix.X)
    cm = confusion_matrix(matrix.labels, pred, class_order(matrix.labels))
    results = {
        "provenance": cfg.provenance(),
        "model": tcfg.to_dict(),
        "training": classification_metrics(cm).to_dict(),
        "tuning_trace": trace,
    }
    (out / "train_results.json").write_text(dump_json(results))
    log.info("train wrote %s", out / "model.json")
    return EXIT_OK


def _evaluate(cfg: RunConfig, split: str) -> tuple[dict, Path]:
    """Run the named split plan on the configured table; writes results.json."""
    from .evaluation import (
        grouped_kfold,
        loso_folds,
        run_protocol,
        subject_holdout_split,
    )
    from .pipeline import dump_json

    matrix = _load_matrix(cfg)
    subjects = sorted(set(matrix.groups))
    if split == "holdout":
        plan = subject_holdout_split(subjects, cfg.test_fraction, cfg.seed)
    elif split == "kfold":
        plan = grouped_kfold(subjects, cfg.folds, cfg.seed)
    else:
        plan = loso_folds(subjects)
    results = run_protocol(matrix, cfg.train_config(), plan)
    results["dataset"] = cfg.features or cfg.manifest
    results["model"] = cfg.train_config().to_dict()
    results["provenance"] = cfg.provenance()
    out = _out_dir(cfg)
    (out / "results.json").write_text(dump_json(results))
    log.info("evaluate wrote %s", out / "results.json")
    return results, out


def cmd_evaluate(cfg: RunConfig) -> int:
    _evaluate(cfg, cfg.split)
    return EXIT_OK


def cmd_loso(cfg: RunConfig) -> int:
    from .pipeline import provenance_line

    results, out = _evaluate(cfg, "loso")
    lines = ["subject_id,n_windows,accuracy"]
    accs = []
    for fold in results["per_fold"]:
        sid = fold["test_subjects"][0]
        acc = fold["metrics"]["accuracy"]
        accs.append(acc)
        lines.append(f"{sid},{fold['n_windows']},{format(acc, '.9g')}")
    lines.append(f"mean,,{format(float(np.mean(accs)), '.9g')}")
    (out / "loso_subjects.csv").write_text(provenance_line(cfg.provenance())
                                           + "\n".join(lines) + "\n")
    log.info("loso wrote %s", out / "loso_subjects.csv")
    return EXIT_OK


def cmd_ablate(cfg: RunConfig) -> int:
    from .ablation import ablation_csv, run_ablation
    from .pipeline import dump_json, provenance_line

    matrix = _load_matrix(cfg)
    rows = run_ablation(matrix, cfg.train_config(), cfg.folds, cfg.seed,
                        cfg.alpha, cfg.correction, cfg.jobs)
    out = _out_dir(cfg)
    (out / "ablation.csv").write_text(provenance_line(cfg.provenance())
                                      + ablation_csv(rows))
    doc = {"provenance": cfg.provenance(), "rows": [r.to_dict() for r in rows]}
    (out / "ablation.json").write_text(dump_json(doc))
    log.info("ablate wrote %d rows to %s", len(rows), out / "ablation.csv")
    return EXIT_OK


def cmd_explain(cfg: RunConfig) -> int:
    from .pipeline import (
        attributions_csv,
        class_summary_csv,
        dump_json,
        explain_table,
        importance_doc,
        provenance_line,
    )

    if cfg.model_path is None:
        raise ConfigError("explain needs model_path")
    if not Path(cfg.model_path).is_file():
        raise ConfigError(f"model file not found: {cfg.model_path}")
    model = model_from_json(Path(cfg.model_path).read_text())
    if model.kind not in ("tree_ensemble", "logistic"):
        raise ConfigError(
            f"SHAP explanations support tree ensembles and the linear model, "
            f"not {model.kind!r}"
        )
    table = _load_table(cfg)
    attributions, audit = explain_table(model, table)
    out = _out_dir(cfg)
    prov_line = provenance_line(cfg.provenance())
    (out / "attributions.csv").write_text(prov_line + attributions_csv(attributions))
    (out / "importance.json").write_text(
        dump_json(importance_doc(attributions, audit, cfg.provenance()))
    )
    (out / "class_summary.csv").write_text(
        prov_line + class_summary_csv(attributions, list(table.labels))
    )
    log.info("explain wrote %d attributions (local accuracy ok=%s)",
             audit["rows"], audit["all_rows_within_1e-8"])
    return EXIT_OK


def cmd_synth(cfg: RunConfig) -> int:
    from .synth import write_dataset

    out = _out_dir(cfg)
    manifest_path = write_dataset(out, cfg.preset, cfg.n_subjects, cfg.seed,
                                  cfg.duration_s, cfg.jobs)
    # Re-write with provenance embedded (loaders ignore the extra key).
    doc = json.loads(manifest_path.read_text())
    doc["provenance"] = cfg.provenance()
    manifest_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    log.info("synth wrote %d sessions under %s", cfg.n_subjects, out)
    return EXIT_OK


def cmd_summary(cfg: RunConfig) -> int:
    from .pipeline import dump_json, summary_doc

    doc = summary_doc(_need_manifest(cfg))
    doc["provenance"] = cfg.provenance()
    out = _out_dir(cfg)
    (out / "summary.json").write_text(dump_json(doc))
    log.info("summary wrote %s", out / "summary.json")
    return EXIT_OK


COMMANDS = {
    "extract": cmd_extract,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "loso": cmd_loso,
    "ablate": cmd_ablate,
    "explain": cmd_explain,
    "synth": cmd_synth,
    "summary": cmd_summary,
}


def _flag_type(hint):
    """argparse converter for a RunConfig annotation: the type inside
    `X | None`, and comma splitting for a list of strings."""
    if isinstance(hint, types.UnionType):
        (hint,) = [t for t in typing.get_args(hint) if t is not type(None)]
    if typing.get_origin(hint) is list:
        return lambda s: s.split(",")
    return hint


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; each takes --config and one flag per
    RunConfig field, named after it with '_' as '-'."""
    hints = typing.get_type_hints(RunConfig)
    parser = argparse.ArgumentParser(
        prog="physio-bench",
        description="Wearable physiology pipeline: ingestion, features, "
                    "models, SHAP, evaluation, ablation, synthesis.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config document")
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            kind = _flag_type(hints[f.name])
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_CONFIG
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except PhysioBenchError as e:
        code = EXIT_CONFIG if isinstance(e, ConfigError) else EXIT_DATA
        print(json.dumps({"error": {
            "code": code, "type": type(e).__name__, "message": str(e),
        }}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
