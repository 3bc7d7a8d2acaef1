"""Smoke tests for `scripts/`: the quick ones run as subprocesses, the long
ones are only imported, so a rename in `src/` that breaks a script fails
here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return result.stdout


def test_inspect_system_prints_structure():
    out = _run("inspect_system.py", "--seed", "3", "--modules", "3", "--options", "4")
    assert out.startswith("aspects: ")
    assert "IE=" in out and "PIE=" in out
    assert "random configuration: " in out


def test_paper_scale_config_is_a_loadable_config():
    from modperf.experiment import ExperimentConfig

    text = _run("paper_scale_config.py")
    doc = json.loads(text)
    assert (doc["n_systems"], doc["trials"], doc["forest_scale"]) == (400, 40, "paper")
    config = ExperimentConfig.from_dict(json.loads(text))
    assert json.loads(json.dumps(config.persisted_dict())) == doc


def test_from_dict_leaves_its_document_unchanged():
    from modperf.experiment import ExperimentConfig

    text = _run("paper_scale_config.py")
    doc = json.loads(text)
    ExperimentConfig.from_dict(doc)
    assert doc == json.loads(text)
    assert isinstance(doc["aspect_ranges"]["module_count"], list)


def _import_script(monkeypatch, name):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts extend it
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["tree_hash", "time_desk_unit", "run_desk_experiment"])
def test_long_scripts_import(monkeypatch, name):
    assert callable(_import_script(monkeypatch, name).main)


def test_time_desk_unit_counts_forest_problems(monkeypatch):
    """`counts` holds the `fit_forests` calls, the problems passed to them,
    the `_grow` passes, the split searches and the `_leaves` walks of the
    code run inside `_counted`: an `ideal` search of 2 candidates x 2 folds
    and its refit pass 5 problems in 2 calls, and a pass of depth-3 trees
    searches at one to three levels."""
    import collections

    from modperf.dataset import sample_dataset
    from modperf.influence_graph import StructuralAspects, generate_graph
    from modperf.knowledge_models import SystemShape, design, make_factory
    from modperf.learners import CVSpec, SearchBudget
    from modperf.semantics import synthesize_semantics

    script = _import_script(monkeypatch, "time_desk_unit")
    aspects = StructuralAspects(option_count=4, p_w=0.5, mu_a=0.2, sigma_a=0.05, module_count=2)
    graph = generate_graph(aspects, seed=1)
    dataset = sample_dataset(synthesize_semantics(graph, seed=2), seed=3, n_train=40, n_test=10)
    space = {
        "n_trees": [3], "max_depth": [3], "min_samples_leaf": [1, 2], "feature_subsample": [1.0]
    }
    factory = make_factory(
        "ideal", SystemShape.from_dataset(dataset), None, SearchBudget(2), CVSpec(2), space
    )
    counts = collections.Counter()
    with script._counted(counts):
        factory(*design(dataset.train), design(dataset.test)[0])
    assert set(counts) == {"forest_calls", "problems", "passes", "searches", "walks"}
    assert (counts["forest_calls"], counts["problems"]) == (2, 5)
    assert counts["passes"] <= counts["searches"] <= 3 * counts["passes"]
