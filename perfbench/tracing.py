"""Spans and counts around physio_bench's public functions, from outside.

`Tracer.installed()` replaces each traced function wherever the package
holds a reference to it: module globals (``from .x import f`` copies),
module-level dicts such as the model trainer table, and class attributes
for methods. On exit it puts every original back. The wrappers pass
arguments and results through untouched, so artifacts stay byte-identical.

A span records its wall time and the part of it covered by its direct
child spans on the same thread, so self time is ``total - child``. A call
made while a span of the same name is already open on that thread (one
AUC helper calling another, `predict_class` calling `predict_proba`) is
counted once, by the outer span. Spans from worker threads (``--jobs``)
are summed, so a layer's time can exceed the stage's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _dir_bytes(dir_path) -> int:
    return sum(f.stat().st_size for f in Path(dir_path).iterdir() if f.is_file())


def _parse_counts(samples):
    def count(args, kwargs, result, outer):
        data = args[0] if args else kwargs["data"]
        return [("ingest.bytes_parsed", len(data)),
                ("ingest.samples_parsed", samples(result))]
    return count


def _segment_counts(args, kwargs, result, outer):
    _, report = result
    return [("windowing.candidates", report.candidates),
            ("windowing.windows_retained", report.retained),
            ("windowing.windows_dropped", report.dropped_fill + report.dropped_label)]


def _grow_counts(args, kwargs, result, outer):
    tree = result[0] if isinstance(result, tuple) else result
    return [("trees.trees_grown", 1), ("trees.nodes_grown", tree.n_nodes)]


def _fold_counts(args, kwargs, result, outer):
    counts = [("evaluation.folds", 1)]
    if "ablation.run" in outer:
        counts.append(("ablation.fold_fits", 1))
    return counts


def _ablation_counts(args, kwargs, result, outer):
    return [("ablation.configs", len(result))]


def _compare_counts(args, kwargs, result, outer):
    key = "stats.t_tests" if result.test_name == "t-test" else "stats.wilcoxon_tests"
    return [(key, 1)]


def _shap_counts(args, kwargs, result, outer):
    model = args[0] if args else kwargs["model"]
    return [("explain.rows", 1), ("explain.tree_rows", len(model.trees))]


#: (module, attribute or Class.method, span name, count function or None).
#: A span name of None records counts only.
TARGETS = [
    ("physio_bench.synth", "generate_recordings", "synth.generate", None),
    ("physio_bench.ingest", "write_session", "ingest.write",
     lambda a, k, r, o: [("ingest.bytes_written", _dir_bytes(a[0] if a else k["dir_path"]))]),
    ("physio_bench.ingest", "parse_channel", "ingest.parse",
     _parse_counts(lambda r: len(r))),
    ("physio_bench.ingest", "parse_acc", "ingest.parse",
     _parse_counts(lambda r: sum(len(s) for s in r))),
    ("physio_bench.ingest", "parse_ibi", "ingest.parse",
     _parse_counts(lambda r: len(r[0]))),
    ("physio_bench.ingest", "load_session", "ingest.load_session", None),
    ("physio_bench.windowing", "segment_with_report", "windowing.segment", _segment_counts),
    ("physio_bench.features", "build_table", "features.build_table", None),
    ("physio_bench.features", "select_peaks", "features.select_peaks",
     lambda a, k, r, o: [("features.select_peaks_calls", 1)]),
    ("physio_bench.pipeline", "write_table", "pipeline.table_io", None),
    ("physio_bench.pipeline", "read_table", "pipeline.table_io", None),
    ("physio_bench.models.trees", "train_tree_ensemble", "trees.fit",
     lambda a, k, r, o: [("trees.fits", 1)]),
    ("physio_bench.models.trees", "grow_regression_tree", "trees.grow_regression", _grow_counts),
    ("physio_bench.models.trees", "grow_gini_tree", "trees.grow_gini", _grow_counts),
    ("physio_bench.models.trees", "TreeEnsembleModel.margins", "trees.margins", None),
    ("physio_bench.models.svm", "train_svm_rbf", "svm.fit", None),
    ("physio_bench.models.logistic", "train_logistic", "logistic.fit", None),
    ("physio_bench.models.knn", "KnnModel.predict_proba", "knn.predict", None),
    ("physio_bench.models.knn", "KnnModel.predict_scores", "knn.predict", None),
    ("physio_bench.models.knn", "KnnModel.predict_class", "knn.predict", None),
    ("physio_bench.evaluation", "confusion_matrix", "evaluation.metrics", None),
    ("physio_bench.evaluation", "classification_metrics", "evaluation.metrics", None),
    ("physio_bench.evaluation", "roc_auc", "evaluation.metrics", None),
    ("physio_bench.evaluation", "roc_auc_macro_ovr", "evaluation.metrics", None),
    ("physio_bench.evaluation", "evaluate_fold", None, _fold_counts),
    ("physio_bench.ablation", "run_ablation", "ablation.run", None),
    ("physio_bench.ablation", "enumerate_configs_for_matrix", None, _ablation_counts),
    ("physio_bench.stats", "compare_to_baseline", "stats.cascade", _compare_counts),
    ("physio_bench.stats", "correct_batch", "stats.cascade", None),
    ("physio_bench.explain", "tree_shap", "explain.tree_shap", _shap_counts),
    ("physio_bench.models.trees", "Tree.expected_value", "explain.expected_value", None),
]

#: Spans whose self time is reported: each has traced spans nested in it.
SELF_TIMED = ("ingest.load_session", "features.build_table", "trees.fit",
              "explain.tree_shap")


class Tracer:
    """Accumulates span times and counts while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record_counts(self, count, args, kwargs, result, outer):
        pairs = count(args, kwargs, result, outer)
        with self._lock:
            for key, value in pairs:
                self.counts[key] += value

    def wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outer = [frame[0] for frame in stack]
            if name is None or name in outer:
                result = fn(*args, **kwargs)
            else:
                frame = [name, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    with tracer._lock:
                        tracer.total[name] += elapsed
                        tracer.child[name] += frame[1]
            if count is not None:
                tracer._record_counts(count, args, kwargs, result, outer)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(original, name, count))
                    undo.append((setattr, cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(original, name, count)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("physio_bench"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((setattr, mod, key, original))
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is original:
                                    value[dkey] = wrapper
                                    undo.append((dict.__setitem__, value, dkey, original))
            yield self
        finally:
            for setter, owner, key, original in reversed(undo):
                setter(owner, key, original)

    def metrics(self) -> dict[str, float]:
        """Seconds per span (`<name>_s`), self seconds where spans nest
        (`<name>_self_s`) and counts, all accumulated so far."""
        out = {f"{name}_s": secs for name, secs in self.total.items()}
        for name in SELF_TIMED:
            out[f"{name}_self_s"] = self.total[name] - self.child[name]
        out.update(self.counts)
        return out
