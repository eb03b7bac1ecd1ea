"""End-to-end orchestration shared by the CLI commands, and the one
writer of their artifacts.

Sessions are extracted and summarised independently, on up to `--jobs`
forked workers (see `parallel.py`). A worker loads one session and sends
back only what the parent keeps of it: its feature rows and report entry,
or its channel statistics. The parent goes through them in manifest order,
so every artifact is the same at any `--jobs`, and a failing run reports
the earliest failing session's error, whichever stage raised it.

Extraction, whether by `extract` or by a model command fed a manifest,
parses only the E4 files that the run needs: those the schema's features
read (`FeatureSchema.files`) and those of the window policy's required
modalities. Windows therefore carry only those channels, and each
session's report entry covers only those files. `summary` reads every
file.

Each command returns its outputs as `{file name: body}`, and
`write_artifacts` writes them all once the computation has finished: it
stamps every JSON document and every CSV header with the run's
provenance, and encodes non-finite floats the same way everywhere.
`csv_text` writes every CSV body from its rows and is the one place that
formats a cell; cells are not quoted, so `load_manifest` rejects the
subject ids and labels that would break a row."""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path

import numpy as np

from .errors import DataError, NoChannels, NoUsableSpan, SchemaMismatch
from .explain import Attribution, class_summary, explain_input, global_importance
from .features import (
    DEFAULT_FEATURE_CONFIG,
    FeatureConfig,
    FeatureTable,
    SCHEMA_PRESETS,
    build_table,
    join_tables,
    table_from_csv,
    table_to_csv,
)
from .ingest import ManifestEntry, load_manifest, load_session
from .parallel import map_ordered
from .windowing import WindowPolicy, segment_with_report

log = logging.getLogger("physio_bench.pipeline")


def jsonable(obj):
    """`obj` with numpy scalars and arrays made plain Python and each
    non-finite float written as "inf" / "-inf" (NaN as None), so the
    document encodes as strict JSON."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return x
        return None if math.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def dump_json(doc: dict) -> str:
    return json.dumps(jsonable(doc), indent=1, sort_keys=True) + "\n"


def _session_windows(path: Path, entry: ManifestEntry, policy: WindowPolicy,
                     files: frozenset[str]) -> tuple[list, dict]:
    """One session's windows and its extract-report entry, from the E4
    `files` only; an unusable session gives no windows and the reason it
    was skipped. The raw recording is released on return, so each worker
    holds one at a time."""
    try:
        rec = load_session(path, entry, files)
        windows, report = segment_with_report(rec, policy)
    except NoChannels as e:
        return [], {"skipped": f"no channels: {e}"}
    except NoUsableSpan as e:
        return [], {"skipped": f"no usable span: {e}"}
    screen = {
        name: vars(s) for name, s in rec.screening.items()
        if s.present and (s.empty or s.dropout_runs)
    }
    return windows, {**vars(report), "screening_flags": screen,
                     "ibi_rows_dropped": rec.ibi_dropped}


def extract_table(manifest_path: str | Path, policy: WindowPolicy,
                  schema_name: str, feature_cfg: FeatureConfig = DEFAULT_FEATURE_CONFIG,
                  jobs: int = 1) -> tuple[FeatureTable, dict]:
    """Manifest to assembled feature table, skipping unusable sessions.
    Each session is loaded, windowed and featurized on its own, on up to
    `jobs` forked workers; the session tables are joined in manifest order."""
    if schema_name not in SCHEMA_PRESETS:
        raise SchemaMismatch(
            f"unknown schema {schema_name!r}; presets: {sorted(SCHEMA_PRESETS)}"
        )
    schema = SCHEMA_PRESETS[schema_name]
    entries, base = load_manifest(manifest_path)
    files = schema.files | policy.required_modalities

    def extract_one(entry: ManifestEntry) -> tuple[FeatureTable | None, dict]:
        windows, info = _session_windows(base / entry.path, entry, policy, files)
        return (build_table(windows, schema, feature_cfg) if windows else None), info

    results = map_ordered(extract_one, entries, jobs)
    sessions_report = {}
    for entry, (_, info) in zip(entries, results):
        sessions_report[entry.subject_id] = info
        log.info("session %s: %s", entry.subject_id, info)
    tables = [t for t, _ in results if t is not None]
    if not tables:
        raise DataError("no windows retained from any session")
    table = join_tables(tables)
    report = {"sessions": sessions_report, "windows": len(table),
              "schema": schema_name}
    return table, report


def csv_text(rows) -> str:
    """The CSV body of `rows`, one line per row: a float cell (numpy
    floats too) is written as `format(v, ".9g")`, None as an empty cell,
    anything else by `str()`."""
    return "".join([",".join(map(_cell, row)) + "\n" for row in rows])


def _cell(v) -> str:
    if type(v) is str:  # most cells; skips the slower numpy type check
        return v
    if isinstance(v, (float, np.floating)):
        return format(v, ".9g")
    return "" if v is None else str(v)


def provenance_line(provenance: dict) -> str:
    """The `# {...}` comment line that heads every CSV artifact; numpy
    values and non-finite floats are made JSON first, as in `dump_json`."""
    return "# " + json.dumps(jsonable(provenance), sort_keys=True) + "\n"


def write_table(path: Path, table: FeatureTable, provenance: dict) -> None:
    path.write_text(provenance_line(provenance) + table_to_csv(table))


def write_artifacts(out: str | Path, provenance: dict,
                    artifacts: dict[str, dict | str | FeatureTable]) -> None:
    """Write a command's outputs under `out`, created if missing. A dict
    is a JSON document and gets a `provenance` key; a string is CSV text
    and gets the provenance line in front; a FeatureTable is written as
    CSV by `write_table`."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, body in artifacts.items():
        if isinstance(body, FeatureTable):
            write_table(out / name, body, provenance)
        elif isinstance(body, dict):
            (out / name).write_text(dump_json({**body, "provenance": provenance}))
        else:
            (out / name).write_text(provenance_line(provenance) + body)


def read_table(path: str | Path, schema_name: str = "custom") -> FeatureTable:
    lines = Path(path).read_text().splitlines()
    body = "\n".join(ln for ln in lines if not ln.startswith("#"))
    return table_from_csv(body, schema_name)


def summary_doc(manifest_path: str | Path, jobs: int = 1) -> dict:
    """Per-subject and cross-subject mean/std of each raw channel. Each
    session is loaded and summarised on its own, on up to `jobs` forked
    workers; the cross-subject block is made from them in manifest order."""
    entries, base = load_manifest(manifest_path)

    def summarise_one(entry: ManifestEntry) -> tuple[str, dict]:
        rec = load_session(base / entry.path, entry)
        return rec.subject_id, {
            ch: {
                "mean": float(np.mean(s.values)),
                "std": float(np.std(s.values)),
                "n": len(s),
            }
            for ch, s in sorted(rec.channels.items())
        }

    sessions = map_ordered(summarise_one, entries, jobs)
    per_subject = dict(sessions)
    channel_names = sorted({ch for _, channels in sessions for ch in channels})
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
    rows = [("subject_id", "window_start", "class", "feature", "value", "shap")]
    for att in attributions:
        ws = repr(float(att.window_start)) if att.window_start is not None else None
        for cls, phi in zip(att.classes, att.phi.tolist()):
            rows.extend((att.subject_id, ws, cls, name, v, p)
                        for name, v, p in zip(att.feature_names, att.x.tolist(), phi))
    return csv_text(rows)


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
    return csv_text([("class", "feature", "mean_shap", "mean_abs_shap", "value_shap_corr")] + [
        (cls, r["feature"], r["mean_shap"], r["mean_abs_shap"], r["value_shap_corr"])
        for cls in sorted(summary) for r in summary[cls]])


def importance_doc(attributions: list[Attribution], audit: dict) -> dict:
    ranking = global_importance(attributions)
    return {
        "local_accuracy": audit,
        "global_importance": [
            {"feature": name, "mean_abs_shap": value} for name, value in ranking
        ],
    }
