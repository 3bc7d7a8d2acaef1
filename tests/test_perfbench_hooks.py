"""Guard for the benchmark tracer: every name perfbench/tracer.py wraps must
exist in modperf, uninstalling must restore each original, and a traced run
must record a span for every layer the pipeline still calls."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_and_uninstall_restores(monkeypatch):
    tracer = _tracer_module(monkeypatch).Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert not tracer._patches


# The layers a generate -> report run records a span for. Four more are
# patched but dead since the model stage stopped calling their names (ROADMAP
# item 1): learners.forest.fit, learners.forest.predict, knowledge_models.fit
# and knowledge_models.predict.
LIVE_LAYERS = (
    "experiment.write", "experiment.load_curves", "hardness_opportunity", "reporting",
    "influence_graph.sample_aspects", "influence_graph.generate_graph",
    "influence_graph.derive_knowledge", "influence_graph.graph_to_json",
    "influence_graph.graph_from_json",
    "semantics.synthesize_semantics", "semantics.semantics_to_json",
    "semantics.noiseless", "semantics.apply_noise",
    "dataset.sample_dataset", "dataset.save_dataset", "dataset.load_dataset",
    "knowledge_models.prune_parents", "metrics.efficacy", "learners.lasso.fit_l1",
    "stats.two_stage_pipeline", "stats.aspect_regression", "stats.matrix_hypothesis_tests",
    "stats.mann_whitney_u", "stats.permutation_importance", "stats.shapley_importance",
)


def test_tracer_spans_every_live_layer(monkeypatch, tmp_path):
    """A refactor that calls around a wrapped name zeroes that layer's span;
    here it fails instead. 12 systems, so stage 1 runs."""
    from modperf.experiment import ExperimentConfig, run_analyze, run_generate, run_model, run_report
    from modperf.influence_graph import AspectRanges

    config = ExperimentConfig(
        global_seed=2207, n_systems=12, trials=1, train_sizes=(20, 40), n_train=40, n_test=30,
        budget_evaluations=1, lasso_degrees=(1,), lasso_alpha_steps=3,
        importance_repeats=1, aspect_ranges=AspectRanges(option_count=(4, 5), module_count=(3, 4)),
        out_dir=str(tmp_path),
    )
    tracer = _tracer_module(monkeypatch).Tracer()
    try:
        tracer.install()
        root = tracer.open("op")
        for stage in (run_generate, run_model, run_analyze, run_report):
            stage(config)
        tracer.close(root)
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.take()}
    assert [name for name in LIVE_LAYERS if name not in recorded] == []
