"""Spans and work counts around the program's public functions.

The tracer wraps each public function at the name its caller looks up: a
module global (``shilldetect.cli.build_graphs``) or a class attribute
(``KNN3.scores``). Nothing under ``src/`` changes; removing the wrappers
restores the original objects.

A span records its name, parent, start, end and the resident memory at
both ends. A layer's self time is its span time minus the time of the
child spans inside it; each layer metric is the sum of the self times of
the spans mapped to it. Counts are taken at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import resource
import time
from collections import Counter

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- work counts taken from a wrapped call's arguments and result ----------

def _parsed(counts, args, result):
    counts["records.rows_parsed"] += result.total_rows
    counts["records.rows_rejected"] += result.bad_rows


def _labels(counts, args, result):
    counts["records.labels"] += len(result)


def _graphs(counts, args, result):
    tg, fg = result
    counts["graphs.users"] += len(tg.users)
    counts["graphs.links"] += tg.n_links + fg.n_links


def _projected(counts, args, result):
    counts["graphs.projected_links"] += result.n_links


def _generated(counts, args, result):
    for key, value in result.manifest["counts"].items():
        counts[f"synth.{key}"] += value


def _extracted(counts, args, result):
    counts["features.rows_extracted"] += result.n_users


def _read(counts, args, result):
    counts["features.rows_read"] += result.n_users


def _cliques(counts, args, result):
    counts["ecosystem.cliques"] += len(result)


def _tree_nodes(model) -> tuple[int, int]:
    """(trees, nodes) of a trained model, walked without recursion."""
    trees = getattr(model, "members", None)
    if trees is None:
        trees = [model] if hasattr(model, "root") else []
    trees = [getattr(t, "tree", t) for t in trees]
    nodes = 0
    for tree in trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            nodes += 1
            if not node.is_leaf:
                stack += (node.left, node.right)
    return len(trees), nodes


def _trained(counts, args, result):
    trees, nodes = _tree_nodes(result)
    counts["classifiers.models"] += 1
    counts["classifiers.trees"] += trees
    counts["classifiers.tree_nodes"] += nodes


def _scored(counts, args, result):
    counts["classifiers.rows_scored"] += len(result)


def _pak(counts, args, result):
    counts["evaluation.precision_at_k_calls"] += 1


# (module, attribute path, layer metric or None for count only, count hook)
# Each span is named after the function it wraps, e.g. "graphs.build_graphs".
WRAP_POINTS = (
    # names looked up by the cli subcommands
    ("shilldetect.cli", "generate", "synth.generate_s", _generated),
    ("shilldetect.cli", "parse_transactions", "records.parse_s", _parsed),
    ("shilldetect.cli", "parse_feedback", "records.parse_s", _parsed),
    ("shilldetect.cli", "parse_profiles", "records.parse_s", _parsed),
    ("shilldetect.cli", "load_label_list", "records.parse_s", _labels),
    ("shilldetect.cli", "build_graphs", "graphs.build_s", _graphs),
    ("shilldetect.cli", "project_feedback_graph", "graphs.project_s", _projected),
    ("shilldetect.cli", "extract_all", "features.extract_s", _extracted),
    ("shilldetect.cli", "write_feature_csv", "features.write_csv_s", None),
    ("shilldetect.cli", "write_feature_schema", "features.write_csv_s", None),
    ("shilldetect.cli", "read_feature_csv", "features.read_csv_s", _read),
    ("shilldetect.cli", "balanced_training_sample", "evaluation.sample_s", None),
    ("shilldetect.cli", "cross_validate", "evaluation.cv_self_s", None),
    ("shilldetect.cli", "imbalanced_protocol", "evaluation.protocol_self_s", None),
    ("shilldetect.cli", "write_report_json", "evaluation.report_write_s", None),
    ("shilldetect.cli", "write_precision_csv", "evaluation.report_write_s", None),
    ("shilldetect.cli", "write_precision_svg", "evaluation.report_write_s", None),
    ("shilldetect.cli", "maximal_cliques", "ecosystem.cliques_s", _cliques),
    ("shilldetect.cli", "ecosystem_report", "ecosystem.report_s", None),
    ("shilldetect.cli", "compare_cohorts", "ecosystem.report_s", None),
    ("shilldetect.cli", "write_ecosystem_json", "ecosystem.export_s", None),
    ("shilldetect.cli", "write_ecosystem_csv", "ecosystem.export_s", None),
    ("shilldetect.cli", "write_clique_list", "ecosystem.export_s", None),
    ("shilldetect.cli", "write_dot", "ecosystem.export_s", None),
    ("shilldetect.cli", "write_graphml", "ecosystem.export_s", None),
    ("shilldetect.cli", "write_edgelist_csv", "ecosystem.export_s", None),
    ("shilldetect.cli", "write_comparison_csv", "ecosystem.export_s", None),
    # names looked up inside the layers
    ("shilldetect.synth", "write_transactions", "records.write_s", None),
    ("shilldetect.synth", "write_feedback", "records.write_s", None),
    ("shilldetect.synth", "write_profiles", "records.write_s", None),
    ("shilldetect.synth", "write_labels", "records.write_s", None),
    ("shilldetect.ecosystem", "connected_components", "graphs.components_s", None),
    ("shilldetect.evaluation", "stratified_kfold", "evaluation.sample_s", None),
    ("shilldetect.evaluation", "train", "classifiers.train_s", _trained),
    ("shilldetect.evaluation", "predict_score", "classifiers.score_s", _scored),
    ("shilldetect.evaluation", "precision_at_k", None, _pak),
    # cross_validate scores through the model's method, not predict_score
    ("shilldetect.classifiers", "KNN3.scores", "classifiers.score_s", _scored),
    ("shilldetect.classifiers", "RotationForest.scores", "classifiers.score_s", _scored),
    # names the benchmark's own set-up looks up
    ("shilldetect.synth", "generate", "synth.generate_s", _generated),
    ("shilldetect.graphs", "build_graphs", "graphs.build_s", _graphs),
    ("shilldetect.features", "extract_all", "features.extract_s", _extracted),
    ("shilldetect.features", "write_feature_csv", "features.write_csv_s", None),
)

# Spans whose peak-memory rise is reported as a layer metric.
RSS_METRICS = {"classifiers.train_s": "classifiers.train_rss_growth_mb",
               "classifiers.score_s": "classifiers.score_rss_growth_mb"}


class Tracer:
    """Collects spans and counts in memory; the caller writes them out."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, metric: str):
        record = {"id": len(self.spans), "name": name, "metric": metric,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "rss0_mb": rss_mb()}
        self.spans.append(record)
        peak0 = peak_rss_mb()
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            peak1 = peak_rss_mb()
            # Exact only when this span set a new process peak; otherwise
            # the span's own peak is unknown and no rise is recorded.
            record["peak_rise_mb"] = peak1 - record["rss0_mb"] if peak1 > peak0 else 0.0

    def _wrap(self, fn, name, metric, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A call nested in an open span of the same metric (a rotation
            # forest scoring its trees) is timed but counted once.
            nested = any(s["metric"] == metric for s in tracer._open)
            if metric is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(name, metric):
                    result = fn(*args, **kwargs)
            if count is not None and not nested:
                count(tracer.counts, args, result)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, path, metric, count in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = (f"{original.__module__.removeprefix('shilldetect.')}."
                    f"{original.__qualname__}")
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, metric, count))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-metric sum of span self time (duration minus direct children)."""
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = Counter()
    for s in spans:
        out[s["metric"]] += s["end"] - s["start"] - child_time[s["id"]]
    return dict(out)


def rss_growth(spans: list[dict]) -> dict[str, float]:
    """Largest rise of the process peak above span start, per memory metric."""
    out = {m: 0.0 for m in RSS_METRICS.values()}
    for s in spans:
        target = RSS_METRICS.get(s["metric"])
        if target is not None:
            out[target] = max(out[target], s["peak_rise_mb"])
    return out
