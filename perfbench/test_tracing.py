"""The traced run must not change what the program writes.

Runs one untraced and one traced round of every stage on a tiny cohort and
requires byte-identical artifacts, spans for the layers the stages touch,
and every wrapped function restored afterwards.

    PYTHONPATH=src python -m pytest perfbench/test_tracing.py
"""

import dataclasses
import importlib

import run
from tracing import TARGETS, Tracer

TINY = dataclasses.replace(
    run.WORKLOADS["study-binary"], subjects=3, duration_s=300.0, trees=3,
    explain_rows=4, shap_rows_checked=1, holdout_bounds={}, loso_bounds={},
    logistic_loso_auc_max=None,
)


def _originals():
    found = {}
    for module_name, attr, _, _ in TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part)
        found[(module_name, attr)] = vars(owner)[attr.split(".")[-1]]
    return found


def test_traced_round_is_byte_identical(tmp_path):
    run.import_program()
    from physio_bench import cli, synth

    seed = 5
    recordings = synth.generate_recordings(TINY.preset, TINY.subjects, run.COHORT_SEED,
                                           TINY.duration_s)
    before = _originals()
    plain = run.run_round(cli, run.Round(tmp_path / "plain", TINY, seed), None, None,
                          recordings)
    assert not any(plain["problems"].values()), plain["problems"]

    tracer = Tracer()
    traced = run.run_round(cli, run.Round(tmp_path / "plain", TINY, seed), tracer,
                           plain, recordings)
    assert traced["digests"] == plain["digests"]
    assert not any(traced["problems"].values()), traced["problems"]

    metrics = tracer.metrics()
    for name in ("synth.generate_s", "ingest.parse_s", "windowing.segment_s",
                 "features.build_table_s", "trees.fit_s", "trees.grow_regression_s",
                 "trees.grow_gini_s", "svm.fit_s", "logistic.fit_s", "knn.predict_s",
                 "stats.cascade_s", "explain.tree_shap_s"):
        assert metrics[name] > 0, name
    assert metrics["explain.rows"] == TINY.explain_rows
    assert metrics["ablation.configs"] == 9
    assert metrics["ablation.fold_fits"] == 9 * run.ABLATION_FOLDS
    assert _originals() == before
