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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, PhysioBenchError, SchemaMismatch
from .features import SCHEMA_PRESETS, FeatureConfig, FeatureTable
from .ingest import MODALITY_CHANNELS
from .models import TrainConfig, model_from_json, train_model, tune_model
from .models.base import DataMatrix
from .pipeline import csv_text, write_artifacts
from .windowing import WindowPolicy

log = logging.getLogger("physio_bench.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

#: Fields that never change results, excluded from provenance so reruns
#: stay byte-identical. `jobs` is the number of forked workers that run
#: the (config, fold) fits of ablate, the sessions of synth, and the
#: sessions that extract, summary and every --manifest feed load; every
#: other stage runs serially. Results are put back in fit, subject or
#: manifest order, so it never changes an artifact.
_EXECUTION_FIELDS = {"out", "jobs"}

#: RunConfig field -> the stage-config field it sets, where the names
#: differ. Every other RunConfig field sets the same-named field of
#: `TrainConfig`, `FeatureConfig` or `WindowPolicy`, if it has one.
_STAGE_NAMES = {"model": "kind", "trees": "n_trees", "split_mode": "splits",
                "folds": "cv_folds"}


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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.n_subjects < 1:
            raise ConfigError("n_subjects must be >= 1")
        if self.duration_s is not None and not (
                math.isfinite(self.duration_s) and self.duration_s >= 1):
            raise ConfigError("duration_s must be finite and >= 1")
        self.feature_config()  # validates detector fields
        self.train_config()  # validates model fields

    def _stage_config(self, cls, **given):
        """A `cls` built from the fields of this config that share its field
        names, through `_STAGE_NAMES` where they differ, and `given`; its
        other fields keep their defaults."""
        names = {f.name for f in fields(cls)}
        mapped = {_STAGE_NAMES.get(f.name, f.name): getattr(self, f.name)
                  for f in fields(self)}
        return cls(**{k: v for k, v in mapped.items() if k in names}, **given)

    def window_policy(self) -> WindowPolicy:
        """By default the policy requires the modality files whose channels
        the schema's features read."""
        required = self.required
        if required is None:
            required = SCHEMA_PRESETS[self.schema].files & MODALITY_CHANNELS.keys()
        return self._stage_config(WindowPolicy, required_modalities=required)

    def feature_config(self) -> FeatureConfig:
        return self._stage_config(FeatureConfig)

    def train_config(self) -> TrainConfig:
        return self._stage_config(TrainConfig)

    def provenance(self) -> dict:
        doc = asdict(self)
        for key in _EXECUTION_FIELDS:
            doc.pop(key, None)
        return {"config": doc, "seed": self.seed}


#: Each RunConfig field's type, for its flag and its config-document value.
_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _fits(value, hint) -> bool:
    """Whether a config value has the type of its RunConfig field: an int
    also fits a float, None only an `X | None`, and a bool no number."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, t) for t in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, *typing.get_args(hint)) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = set(doc) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in doc.items():
        if not _fits(value, _FIELD_TYPES[key]):
            expected = getattr(_FIELD_TYPES[key], "__name__", _FIELD_TYPES[key])
            raise ConfigError(f"config field {key} must be {expected}, got {value!r}")
    return RunConfig(**doc)


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
#
# Each command returns its outputs as {file name: body}; `main` hands them
# to `pipeline.write_artifacts`, which writes every file under --out.


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
                                 cfg.schema, cfg.feature_config(), cfg.jobs)
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


def cmd_extract(cfg: RunConfig) -> dict:
    from .pipeline import extract_table

    table, report = extract_table(_need_manifest(cfg), cfg.window_policy(),
                                  cfg.schema, cfg.feature_config(), cfg.jobs)
    log.info("extract kept %d windows", len(table))
    return {"features.csv": table, "extract_report.json": {"report": report}}


def cmd_train(cfg: RunConfig) -> dict:
    from .evaluation import confusion_matrix, classification_metrics
    from .models.base import class_order

    matrix = _load_matrix(cfg)
    tcfg = cfg.train_config()
    trace = None
    if cfg.tune:
        model, tcfg, trace = tune_model(matrix, tcfg)
    else:
        model = train_model(matrix, tcfg)
    pred = model.predict_class(matrix.X)
    cm = confusion_matrix(matrix.labels, pred, class_order(matrix.labels))
    return {
        "model.json": {**model.to_dict(), "model_kind": model.kind},
        "train_results.json": {
            "model": tcfg.to_dict(),
            "training": classification_metrics(cm).to_dict(),
            "tuning_trace": trace,
        },
    }


def _evaluate(cfg: RunConfig, split: str) -> dict:
    """The results document of the named split plan on the configured table."""
    from .evaluation import (
        grouped_kfold,
        loso_folds,
        run_protocol,
        subject_holdout_split,
    )

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
    return results


def cmd_evaluate(cfg: RunConfig) -> dict:
    return {"results.json": _evaluate(cfg, cfg.split)}


def cmd_loso(cfg: RunConfig) -> dict:
    results = _evaluate(cfg, "loso")
    rows = [(f["test_subjects"][0], f["n_windows"], f["metrics"]["accuracy"])
            for f in results["per_fold"]]
    mean = ("mean", None, float(np.mean([acc for *_, acc in rows])))
    return {"results.json": results, "loso_subjects.csv": csv_text(
        [("subject_id", "n_windows", "accuracy"), *rows, mean])}


def cmd_ablate(cfg: RunConfig) -> dict:
    from .ablation import ablation_csv, run_ablation

    matrix = _load_matrix(cfg)
    rows = run_ablation(matrix, cfg.train_config(), cfg.folds, cfg.seed,
                        cfg.alpha, cfg.correction, cfg.jobs)
    return {"ablation.csv": ablation_csv(rows),
            "ablation.json": {"rows": [r.to_dict() for r in rows]}}


def cmd_explain(cfg: RunConfig) -> dict:
    from .explain import check_explainable
    from .pipeline import (
        attributions_csv,
        class_summary_csv,
        explain_table,
        importance_doc,
    )

    if cfg.model_path is None:
        raise ConfigError("explain needs model_path")
    if not Path(cfg.model_path).is_file():
        raise ConfigError(f"model file not found: {cfg.model_path}")
    model = model_from_json(Path(cfg.model_path).read_text())
    check_explainable(model)
    table = _load_table(cfg)
    unknown = sorted(set(map(str, table.labels)) - set(model.classes))
    if unknown:
        raise SchemaMismatch(f"label {unknown[0]!r} is not a class of the model: "
                             f"{model.classes}")
    attributions, audit = explain_table(model, table)
    log.info("explain attributed %d rows (local accuracy ok=%s)",
             audit["rows"], audit["all_rows_within_1e-8"])
    return {
        "attributions.csv": attributions_csv(attributions),
        "importance.json": importance_doc(attributions, audit),
        "class_summary.csv": class_summary_csv(attributions, list(table.labels)),
    }


def cmd_synth(cfg: RunConfig) -> dict:
    from .synth import write_dataset

    manifest = write_dataset(cfg.out, cfg.preset, cfg.n_subjects, cfg.seed,
                             cfg.duration_s, cfg.jobs)
    log.info("synth generated %d sessions", cfg.n_subjects)
    return {"manifest.json": manifest}


def cmd_summary(cfg: RunConfig) -> dict:
    from .pipeline import summary_doc

    return {"summary.json": summary_doc(_need_manifest(cfg), cfg.jobs)}


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
    """One parser for every command: a command positional, --config and
    one flag per RunConfig field, named after it with '_' as '-'."""
    parser = argparse.ArgumentParser(
        prog="physio-bench",
        description="Wearable physiology pipeline: ingestion, features, "
                    "models, SHAP, evaluation, ablation, synthesis.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config document")
    for field_name, hint in _FIELD_TYPES.items():
        flag = "--" + field_name.replace("_", "-")
        kind = _flag_type(hint)
        if kind is bool:
            parser.add_argument(flag, action="store_const", const=True)
        else:
            parser.add_argument(flag, type=kind)
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
        artifacts = COMMANDS[args.command](cfg)
        write_artifacts(cfg.out, cfg.provenance(), artifacts)
        log.info("%s wrote %s to %s", args.command, ", ".join(artifacts), cfg.out)
        return EXIT_OK
    except PhysioBenchError as e:
        code = EXIT_CONFIG if isinstance(e, ConfigError) else EXIT_DATA
        print(json.dumps({"error": {
            "code": code, "type": type(e).__name__, "message": str(e),
        }}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
