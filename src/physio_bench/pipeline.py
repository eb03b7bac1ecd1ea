"""End-to-end orchestration shared by the CLI commands.

Sessions are loaded, windowed and summarised one after another in
manifest order; `--jobs` does not apply here. It parallelises only the
fits of ablate (see `parallel.py`)."""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np

from .errors import DataError, NoChannels, NoUsableSpan
from .explain import Attribution, class_summary, explain_input, global_importance
from .features import (
    DEFAULT_FEATURE_CONFIG,
    FeatureConfig,
    FeatureTable,
    SCHEMA_PRESETS,
    build_table,
    table_from_csv,
    table_to_csv,
)
from .ingest import ManifestEntry, load_dataset, load_manifest, load_session
from .windowing import WindowPolicy, segment_with_report

log = logging.getLogger("physio_bench.pipeline")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json can serialize."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return None if np.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def dump_json(doc: dict) -> str:
    return json.dumps(jsonable(doc), indent=1, sort_keys=True) + "\n"


def _session_windows(path: Path, entry: ManifestEntry, policy: WindowPolicy
                     ) -> tuple[list, dict]:
    """One session's windows and its extract-report entry; an unusable
    session gives no windows and the reason it was skipped. The raw
    recording is released on return, so only one is held at a time."""
    try:
        rec = load_session(path, entry)
        windows, report = segment_with_report(rec, policy)
    except NoChannels as e:
        return [], {"skipped": f"no channels: {e}"}
    except NoUsableSpan as e:
        return [], {"skipped": f"no usable span: {e}"}
    screen = {
        name: vars(s) for name, s in rec.screening.items()
        if s.present and (s.empty or s.dropout_runs)
    }
    return windows, {
        "candidates": report.candidates,
        "retained": report.retained,
        "dropped_fill": report.dropped_fill,
        "dropped_label": report.dropped_label,
        "screening_flags": screen,
        "ibi_rows_dropped": rec.ibi_dropped,
    }


def extract_table(manifest_path: str | Path, policy: WindowPolicy,
                  schema_name: str, feature_cfg: FeatureConfig = DEFAULT_FEATURE_CONFIG
                  ) -> tuple[FeatureTable, dict]:
    """Manifest to assembled feature table, skipping unusable sessions.
    Sessions are loaded and windowed serially, in manifest order."""
    if schema_name not in SCHEMA_PRESETS:
        from .errors import SchemaMismatch
        raise SchemaMismatch(
            f"unknown schema {schema_name!r}; presets: {sorted(SCHEMA_PRESETS)}"
        )
    schema = SCHEMA_PRESETS[schema_name]
    entries, base = load_manifest(manifest_path)

    windows = []
    sessions_report = {}
    for entry in entries:
        session_windows, info = _session_windows(base / entry.path, entry, policy)
        windows.extend(session_windows)
        sessions_report[entry.subject_id] = info
        log.info("session %s: %s", entry.subject_id, info)
    if not windows:
        raise DataError("no windows retained from any session")
    table = build_table(windows, schema, feature_cfg)
    report = {"sessions": sessions_report, "windows": len(table),
              "schema": schema_name}
    return table, report


def provenance_line(provenance: dict) -> str:
    """The `# {...}` comment line that heads every CSV artifact; numpy
    values and non-finite floats are made JSON first, as in `dump_json`."""
    return "# " + json.dumps(jsonable(provenance), sort_keys=True) + "\n"


def write_table(path: Path, table: FeatureTable, provenance: dict) -> None:
    path.write_text(provenance_line(provenance) + table_to_csv(table))


def read_table(path: str | Path, schema_name: str = "custom") -> FeatureTable:
    lines = Path(path).read_text().splitlines()
    body = "\n".join(ln for ln in lines if not ln.startswith("#"))
    return table_from_csv(body, schema_name)


def summary_doc(manifest_path: str | Path) -> dict:
    """Per-subject and cross-subject mean/std of each raw channel, over the
    manifest's sessions loaded serially in manifest order."""
    recordings = load_dataset(manifest_path)
    per_subject: dict[str, dict] = {}
    channel_names = sorted({ch for r in recordings for ch in r.channels})
    for rec in recordings:
        per_subject[rec.subject_id] = {
            ch: {
                "mean": float(np.mean(s.values)),
                "std": float(np.std(s.values)),
                "n": len(s),
            }
            for ch, s in sorted(rec.channels.items())
        }
    cross = {}
    for ch in channel_names:
        means = [per_subject[s][ch]["mean"] for s in per_subject if ch in per_subject[s]]
        cross[ch] = {
            "mean_of_means": float(np.mean(means)),
            "std_of_means": float(np.std(means)),
            "subjects": len(means),
        }
    return {"per_subject": per_subject, "cross_subject": cross}


# --- attribution exports ---------------------------------------------------------


def attributions_csv(attributions: list[Attribution]) -> str:
    header = "subject_id,window_start,class,feature,value,shap"
    lines = [header]
    for att in attributions:
        sid = att.subject_id if att.subject_id is not None else ""
        ws = repr(float(att.window_start)) if att.window_start is not None else ""
        for ci, cls in enumerate(att.classes):
            for j, name in enumerate(att.feature_names):
                lines.append(
                    f"{sid},{ws},{cls},{name},"
                    f"{format(att.x[j], '.9g')},{format(att.phi[ci, j], '.9g')}"
                )
    return "\n".join(lines) + "\n"


def explain_table(model, table: FeatureTable) -> tuple[list[Attribution], dict]:
    """Explain every row; returns attributions plus the embedded
    local-accuracy audit."""
    attributions = []
    worst = 0.0
    margins = model.margins(table.X)
    for i in range(len(table)):
        att = explain_input(model, table.X[i], subject_id=str(table.subjects[i]),
                            window_start=float(table.window_starts[i]))
        worst = max(worst, float(np.abs(att.margin() - margins[i]).max()))
        attributions.append(att)
    audit = {
        "rows": len(attributions),
        "max_local_accuracy_error": worst,
        "all_rows_within_1e-8": bool(worst <= 1e-8),
    }
    return attributions, audit


def class_summary_csv(attributions: list[Attribution], labels) -> str:
    summary = class_summary(attributions, list(labels))
    header = "class,feature,mean_shap,mean_abs_shap,value_shap_corr"
    lines = [header]
    for cls in sorted(summary):
        for row in summary[cls]:
            lines.append(
                f"{cls},{row['feature']},{format(row['mean_shap'], '.9g')},"
                f"{format(row['mean_abs_shap'], '.9g')},"
                f"{format(row['value_shap_corr'], '.9g')}"
            )
    return "\n".join(lines) + "\n"


def importance_doc(attributions: list[Attribution], audit: dict,
                   provenance: dict) -> dict:
    ranking = global_importance(attributions)
    return {
        "provenance": provenance,
        "local_accuracy": audit,
        "global_importance": [
            {"feature": name, "mean_abs_shap": value} for name, value in ranking
        ],
    }
