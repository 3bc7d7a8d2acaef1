"""Spans recorded from outside the program, and the per-layer figures made from them.

The tracer wraps modperf's public callables at the names they are looked up
under (the modules use ``from ... import``, so a callable is patched in every
module namespace that calls it) and records one span per call: name, parent,
start, end and a few attributes. Nothing is written while an op runs; the
figures are computed from the in-memory span list afterwards.

The span arithmetic (``self_times``, ``outermost_totals``) and the input-shape
classifier are plain functions so they can be tested without modperf.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

OP = "op"  # root span the harness opens around each traced op
STAGES = ("experiment.run_model", "experiment.run_generate", "experiment.run_analyze", "experiment.run_report")
LEVELS = ("null", "partial", "practical", "complete", "ideal")
FOREST_SHAPES = ("null", "iv_binary", "iv_mixed", "perf", "ideal")

# Per-layer metric name -> unit. Every traced run reports all of them, so a
# layer a workload does not touch reads 0 there.
LAYER_METRICS = {
    **{f"learners.forest.fit_s.{shape}": "s" for shape in FOREST_SHAPES},
    "learners.forest.fit_calls": "count",
    "learners.forest.trees": "count",
    "learners.forest.nodes": "count",
    "learners.forest.us_per_node": "us",
    "learners.forest.predict_s": "s",
    "learners.forest.distinct_row_frac.iv_binary": "frac",
    **{f"knowledge_models.fit_s.{level}": "s" for level in LEVELS},
    "knowledge_models.predict_s": "s",
    "knowledge_models.prune_parents_s": "s",
    "knowledge_models.prune_kept_frac": "frac",
    "knowledge_models.fallback_ivs": "count",
    "knowledge_models.failed_points": "count",
    "learners.lasso.fit_l1_s": "s",
    "learners.lasso.fit_l1_calls": "count",
    "learners.lasso.sweeps": "count",
    "learners.lasso.converged_frac": "frac",
    "learners.lasso.us_per_coord_update": "us",
    "stats.aspect_regression_s": "s",
    "stats.permutation_importance_s": "s",
    "stats.shapley_importance_s": "s",
    "stats.matrix_hypothesis_tests_s": "s",
    "stats.mann_whitney_u_calls": "count",
    "hardness_opportunity.s": "s",
    "reporting.s": "s",
    "semantics.synthesize_semantics_s": "s",
    "semantics.semantics_to_json_s": "s",
    "semantics.noiseless_s": "s",
    "semantics.apply_noise_s": "s",
    "influence_graph.generate_graph_s": "s",
    "influence_graph.derive_knowledge_s": "s",
    "influence_graph.graph_to_json_s": "s",
    "influence_graph.edges": "count",
    "dataset.sample_dataset_s": "s",
    "dataset.save_dataset_s": "s",
    "dataset.load_dataset_s": "s",
    "dataset.bytes_written": "bytes",
    "dataset.records": "count",
    "metrics.efficacy_s": "s",
    "experiment.load_curves_s": "s",
    "experiment.write_s": "s",
    **{f"{stage}.self_s": "s" for stage in STAGES},
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

# Span name -> per-layer metric that sums the span's (outermost) duration.
SPAN_SECONDS = {
    "learners.forest.predict": "learners.forest.predict_s",
    "knowledge_models.predict": "knowledge_models.predict_s",
    "knowledge_models.prune_parents": "knowledge_models.prune_parents_s",
    "learners.lasso.fit_l1": "learners.lasso.fit_l1_s",
    "stats.aspect_regression": "stats.aspect_regression_s",
    "stats.permutation_importance": "stats.permutation_importance_s",
    "stats.shapley_importance": "stats.shapley_importance_s",
    "stats.matrix_hypothesis_tests": "stats.matrix_hypothesis_tests_s",
    "hardness_opportunity": "hardness_opportunity.s",
    "reporting": "reporting.s",
    "semantics.synthesize_semantics": "semantics.synthesize_semantics_s",
    "semantics.semantics_to_json": "semantics.semantics_to_json_s",
    "semantics.noiseless": "semantics.noiseless_s",
    "semantics.apply_noise": "semantics.apply_noise_s",
    "influence_graph.generate_graph": "influence_graph.generate_graph_s",
    "influence_graph.derive_knowledge": "influence_graph.derive_knowledge_s",
    "influence_graph.graph_to_json": "influence_graph.graph_to_json_s",
    "dataset.sample_dataset": "dataset.sample_dataset_s",
    "dataset.save_dataset": "dataset.save_dataset_s",
    "dataset.load_dataset": "dataset.load_dataset_s",
    "metrics.efficacy": "metrics.efficacy_s",
    "experiment.load_curves": "experiment.load_curves_s",
    "experiment.write": "experiment.write_s",
}


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ------------------------------------------------------------ span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _same_name_ancestor(spans: list[Span], s: Span) -> int:
    p = s.parent
    while p >= 0 and spans[p].name != s.name:
        p = spans[p].parent
    return p


def outermost_totals(spans: list[Span]) -> dict[str, float]:
    """Summed duration per span name, counting a span only when no ancestor
    has the same name, so a call nested in itself is not counted twice."""
    totals: dict[str, float] = {}
    for s in spans:
        if _same_name_ancestor(spans, s) < 0:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
    return totals


def split_same_name(spans: list[Span]) -> list[float]:
    """Each span's duration minus that of the nearest descendants with the
    same name, so nested calls of one layer (a level fitted through another
    level's entry point) split its time instead of counting it twice."""
    out = [s.duration for s in spans]
    for s in spans:
        p = _same_name_ancestor(spans, s)
        if p >= 0:
            out[p] -= s.duration
    return out


def classify_inputs(X) -> str:
    """'binary' when every column holds only 0/1, 'real' when none does,
    'mixed' otherwise. One vectorised pass; no sort, unlike np.isin."""
    X = np.asarray(X)
    binary = ((X == 0) | (X == 1)).all(axis=0)
    if binary.all():
        return "binary"
    return "real" if not binary.any() else "mixed"


def distinct_rows(X) -> int:
    return int(np.unique(np.asarray(X), axis=0).shape[0])


def layer_metrics(spans: list[Span], op_wall: float) -> dict[str, float]:
    """Per-layer figures of one op from its spans (overhead_frac is set by the caller)."""
    m = {name: 0.0 for name in LAYER_METRICS}
    totals = outermost_totals(spans)
    for span_name, metric in SPAN_SECONDS.items():
        m[metric] = totals.get(span_name, 0.0)
    selfs = self_times(spans)
    split = split_same_name(spans)
    rows = distinct = kept = candidates = coords = converged = 0
    covered = 0.0
    for i, s in enumerate(spans):
        a = s.attrs
        if s.name in STAGES:
            m[f"{s.name}.self_s"] += selfs[i]
        elif s.name != OP and (s.parent < 0 or spans[s.parent].name in STAGES + (OP,)):
            covered += s.duration
        if s.name == "learners.forest.fit":
            m[f"learners.forest.fit_s.{a['shape']}"] += split[i]
            m["learners.forest.fit_calls"] += 1
            m["learners.forest.trees"] += a["trees"]
            m["learners.forest.nodes"] += a["nodes"]
            if a["shape"] == "iv_binary":
                rows += a["rows"]
                distinct += a["distinct"]
        elif s.name == "knowledge_models.fit":
            m[f"knowledge_models.fit_s.{a['level']}"] += split[i]
            m["knowledge_models.fallback_ivs"] += a.get("fallbacks", 0)
            m["knowledge_models.failed_points"] += a.get("error", 0)
        elif s.name == "knowledge_models.prune_parents":
            kept += a["kept"]
            candidates += a["candidates"]
        elif s.name == "learners.lasso.fit_l1":
            m["learners.lasso.fit_l1_calls"] += 1
            m["learners.lasso.sweeps"] += a["sweeps"]
            converged += a["converged"]
            coords += a["coords"]
        elif s.name == "stats.mann_whitney_u":
            m["stats.mann_whitney_u_calls"] += 1
        elif s.name == "influence_graph.generate_graph":
            m["influence_graph.edges"] += a["edges"]
        elif s.name == "dataset.sample_dataset":
            m["dataset.records"] += a["records"]
        elif s.name == "dataset.save_dataset":
            m["dataset.bytes_written"] += a["bytes"]
    fit_s = sum(m[f"learners.forest.fit_s.{shape}"] for shape in FOREST_SHAPES)
    if m["learners.forest.nodes"]:
        m["learners.forest.us_per_node"] = 1e6 * fit_s / m["learners.forest.nodes"]
    if rows:
        m["learners.forest.distinct_row_frac.iv_binary"] = distinct / rows
    if candidates:
        m["knowledge_models.prune_kept_frac"] = kept / candidates
    if m["learners.lasso.fit_l1_calls"]:
        m["learners.lasso.converged_frac"] = converged / m["learners.lasso.fit_l1_calls"]
    if coords:
        m["learners.lasso.us_per_coord_update"] = 1e6 * m["learners.lasso.fit_l1_s"] / coords
    m["trace.coverage_frac"] = covered / op_wall if op_wall > 0 else 0.0
    return m


# ------------------------------------------------------------------- tracer


class Tracer:
    """Records spans while an op span is open; passes calls straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.level: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, **attrs) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), attrs=attrs))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, name: str, after=None):
        """Span around fn; after(span, args, kwargs, result) runs once the span is closed."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer.spans[index], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owners, attr: str, name: str, after=None):
        """Replace owner.attr in every owner with one shared wrapper."""
        wrapper = self.wrap(getattr(owners[0], attr), name, after)
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        from modperf import dataset, experiment, knowledge_models, reporting, semantics, stats
        from modperf.learners import forest

        self.patch([knowledge_models], "fit_forest", "learners.forest.fit", self._after_forest)
        self.patch([forest.FittedForest], "predict", "learners.forest.predict")
        self.patch([knowledge_models.ModularPredictor], "predict", "knowledge_models.predict")
        self.patch(
            [knowledge_models], "prune_parents", "knowledge_models.prune_parents", _after_prune
        )
        self.patch([knowledge_models], "efficacy", "metrics.efficacy")
        original_make_factory = experiment.make_factory
        self._patches.append((experiment, "make_factory", original_make_factory))
        experiment.make_factory = lambda level, *a, **k: self._level_factory(
            level, original_make_factory(level, *a, **k)
        )
        self.patch([experiment, dataset], "load_dataset", "dataset.load_dataset")
        self.patch([experiment], "sample_dataset", "dataset.sample_dataset", _after_sample)
        self.patch([experiment], "save_dataset", "dataset.save_dataset", _after_save)
        self.patch([experiment], "synthesize_semantics", "semantics.synthesize_semantics")
        self.patch([experiment], "semantics_to_json", "semantics.semantics_to_json")
        self.patch([semantics.Evaluator], "noiseless", "semantics.noiseless")
        self.patch([semantics.Evaluator], "apply_noise", "semantics.apply_noise")
        self.patch([experiment], "sample_aspects", "influence_graph.sample_aspects")
        self.patch(
            [experiment], "generate_graph", "influence_graph.generate_graph", _after_graph
        )
        self.patch([experiment], "graph_to_json", "influence_graph.graph_to_json")
        self.patch([experiment], "graph_from_json", "influence_graph.graph_from_json")
        self.patch([experiment], "derive_knowledge", "influence_graph.derive_knowledge")
        self.patch([experiment], "_load_units", "experiment.load_curves")
        self.patch([experiment], "_curve_from_doc", "experiment.load_curves")
        self.patch([experiment], "_dump", "experiment.write")
        self.patch([experiment], "_write", "experiment.write")
        self.patch([experiment], "two_stage_pipeline", "stats.two_stage_pipeline")
        self.patch([stats], "aspect_regression", "stats.aspect_regression")
        self.patch([stats], "fit_l1", "learners.lasso.fit_l1", _after_l1)
        self.patch([experiment], "permutation_importance", "stats.permutation_importance")
        self.patch([experiment], "shapley_importance", "stats.shapley_importance")
        self.patch(
            [experiment, stats], "matrix_hypothesis_tests", "stats.matrix_hypothesis_tests"
        )
        self.patch([stats], "mann_whitney_u", "stats.mann_whitney_u")
        for attr in ("hardness", "opportunity", "classify_hardness", "build_matrix"):
            self.patch([experiment], attr, "hardness_opportunity")
        for attr in (
            "matrix_to_json", "matrix_from_json", "matrix_to_csv", "samples_to_csv",
            "heatmap_svg", "tests_to_json", "tests_to_csv",
        ):
            self.patch([reporting], attr, "reporting")

    def _level_factory(self, level: str, factory):
        """Span around the callable make_factory returns, tagged with its level."""
        tracer = self

        def traced(records):
            if not tracer.stack:
                return factory(records)
            index = tracer.open("knowledge_models.fit", level=level)
            outer, tracer.level = tracer.level, level
            try:
                model = factory(records)
            except Exception:
                tracer.spans[index].attrs["error"] = 1
                raise
            finally:
                tracer.level = outer
                tracer.close(index)
            tracer.spans[index].attrs["fallbacks"] = sum(
                1 for m in getattr(model, "iv_models", {}).values() if m.fallback
            )
            return model

        return traced

    def _after_forest(self, span, args, kwargs, result):
        X = args[0]
        if self.level in ("null", "ideal"):
            shape = self.level
        else:
            shape = {"binary": "iv_binary", "mixed": "iv_mixed", "real": "perf"}[classify_inputs(X)]
        span.attrs.update(
            shape=shape,
            trees=len(result.trees),
            nodes=sum(len(t.feature) for t in result.trees),
            rows=len(X),
            distinct=distinct_rows(X) if shape == "iv_binary" else 0,
        )


def _after_prune(span, args, kwargs, result):
    candidates = args[2] if len(args) > 2 else kwargs["candidates_by_iv"]
    span.attrs.update(
        kept=sum(len(v) for v in result.values()),
        candidates=sum(len(v) for v in candidates.values()),
    )


def _after_l1(span, args, kwargs, result):
    span.attrs.update(
        sweeps=result.n_sweeps,
        converged=int(result.converged),
        coords=result.n_sweeps * len(result.coefs),
    )


def _after_graph(span, args, kwargs, result):
    span.attrs["edges"] = len(result.edges)


def _after_sample(span, args, kwargs, result):
    span.attrs["records"] = len(result.train) + len(result.test)


def _after_save(span, args, kwargs, result):
    directory = args[1] if len(args) > 1 else kwargs["directory"]
    span.attrs["bytes"] = sum(
        (directory / name).stat().st_size
        for name in (result["train_file"], result["test_file"], "dataset.json")
    )
