"""Smoke tests for `scripts/`: the quick ones run as subprocesses, the long
ones are only imported, so a rename in `src/` that breaks a script fails
here."""

import hashlib
import importlib.util
import json
import re
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


def _reference_digest(root, files):
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_tree_hash_subtrees_split_a_hand_made_tree(monkeypatch, tmp_path):
    """The first line is the default output; `--subtrees` adds one line per
    part, each the digest of that part's files alone, with paths relative to
    the tree. A byte changed in one part moves that part's line and the
    tree's, and no other."""
    script = _import_script(monkeypatch, "tree_hash")
    files = {
        "config.json": b"{}", "manifest.json": b"[]",
        "systems/s0000/graph.json": b"g", "systems/s0000/t00/train.npy": b"\x93NUMPY",
        "curves/s0000_t00/null_acc.json": b"c", "analysis/report.md": b"r",
    }
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    lines = script.tree_lines("trials3 fixed", tmp_path, subtrees=True)
    assert lines[:1] == script.tree_lines("trials3 fixed", tmp_path)
    assert lines[0] == f"trials3 fixed 6 files {_reference_digest(tmp_path, [tmp_path / r for r in files])}"
    parts = {
        "systems/": ["systems/s0000/graph.json", "systems/s0000/t00/train.npy"],
        "curves/": ["curves/s0000_t00/null_acc.json"],
        "analysis/": ["analysis/report.md"],
        "root": ["config.json", "manifest.json"],
    }
    assert lines[1:] == [
        f"  {part} {len(rels)} files {_reference_digest(tmp_path, [tmp_path / r for r in rels])}"
        for part, rels in parts.items()
    ]
    (tmp_path / "curves/s0000_t00/null_acc.json").write_bytes(b"C")
    moved = script.tree_lines("trials3 fixed", tmp_path, subtrees=True)
    assert [k for k, (a, b) in enumerate(zip(lines, moved)) if a != b] == [0, 2]
    # a directory that no part lists, such as the fairness/ of an older
    # tree, is named rather than left out of the per-part lines
    (tmp_path / "fairness").mkdir()
    (tmp_path / "fairness" / "s0000_t00.json").write_bytes(b"f")
    with pytest.raises(ValueError, match=re.escape("['fairness/s0000_t00.json']")):
        script.tree_lines("trials3 fixed", tmp_path, subtrees=True)
    assert script.tree_lines("trials3 fixed", tmp_path)[0].startswith("trials3 fixed 7 files ")


def test_time_desk_unit_counts_forest_problems(monkeypatch):
    """`counts` holds the `fit_forests` calls, the problems passed to them,
    the `_grow` passes, the split searches and the `_leaves` walks of the
    code run inside `_counted`: an `ideal` search of 2 candidates passes 2
    problems in 1 call, and a pass of depth-3 trees searches at one to
    three levels."""
    import collections

    from modperf.dataset import sample_dataset
    from modperf.influence_graph import StructuralAspects, generate_graph
    from modperf.knowledge_models import SystemShape, design, make_factory
    from modperf.learners import SearchBudget
    from modperf.semantics import synthesize_semantics

    script = _import_script(monkeypatch, "time_desk_unit")
    aspects = StructuralAspects(option_count=4, p_w=0.5, mu_a=0.2, sigma_a=0.05, module_count=2)
    graph = generate_graph(aspects, seed=1)
    dataset = sample_dataset(synthesize_semantics(graph, seed=2), seed=3, n_train=40, n_test=10)
    space = {
        "n_trees": [3], "max_depth": [3], "min_samples_leaf": [1, 2], "feature_subsample": [1.0]
    }
    factory = make_factory(
        "ideal", SystemShape.from_dataset(dataset), None, SearchBudget(2), space
    )
    counts = collections.Counter()
    with script._counted(counts):
        Z, perf = design(dataset)
        factory(Z[:40], perf[:40], Z[40:])
    assert set(counts) == {"forest_calls", "problems", "passes", "searches", "walks"}
    assert (counts["forest_calls"], counts["problems"]) == (1, 2)
    assert counts["passes"] <= counts["searches"] <= 3 * counts["passes"]


def _analysed_tree(root: Path, hardness, opportunity):
    """A hand-made analysed tree of one metric, `acc`: `hardness` maps each
    unit to its measured hardness, `opportunity` each matrix level to its
    units' values (None where a unit's level curve is incomplete)."""
    analysis = root / "analysis"
    analysis.mkdir(parents=True)
    units = list(hardness)
    rows = [{"unit": u, "system": u[:5], "trial": 0, "value": v} for u, v in hardness.items()]
    (analysis / "hardness_acc.json").write_text(json.dumps(rows))
    doc = {
        "metric": "acc", "sizes": [20, 50], "units": units, "gap": [[0.1, 0.1]] * len(units),
        "levels": {level: {"value": values, "filling": values} for level, values in opportunity.items()},
    }
    (analysis / "opportunities_acc.json").write_text(json.dumps(doc))
    return root


def test_agreement_of_identical_and_reversed_trees(tmp_path):
    """Identical trees agree fully: rho 1, every |B - A| 0, every class the
    same. A tree whose values are reversed (1 - value) has rho -1 for
    hardness and every level. A unit without a level's value is left out of
    that level only."""
    units = [f"s{s:04d}_t00" for s in range(6)]
    hardness = dict(zip(units, [0.1, 0.2, 0.35, 0.5, 0.7, 0.9]))
    opportunity = {
        "partial": [0.01, 0.02, 0.03, 0.05, 0.08, 0.13],
        "practical": [0.2, 0.1, 0.4, 0.3, None, 0.6],
        "complete": [0.3, 0.5, 0.2, 0.6, 0.1, 0.7],
    }
    a = _analysed_tree(tmp_path / "a", hardness, opportunity)
    b = _analysed_tree(tmp_path / "b", hardness, opportunity)
    reversed_tree = _analysed_tree(
        tmp_path / "r",
        {u: 1.0 - v for u, v in hardness.items()},
        {level: [None if v is None else 1.0 - v for v in vs] for level, vs in opportunity.items()},
    )

    same = json.loads(_run("agreement.py", str(a), str(b)))
    assert same["pooled"] == {
        "hardness": {"median_abs_delta": 0.0, "values": 6},
        "opportunity": {"median_abs_delta": 0.0, "values": 17},
    }
    acc = same["metrics"]["acc"]
    assert acc["hardness"] == {
        "units": 6, "spearman": 1.0, "median_abs_delta": 0.0, "mean": [0.4583, 0.4583],
        "class_agreement": 1.0,
    }
    assert sorted(acc["opportunity"]) == ["complete", "partial", "practical"]
    for level, summary in acc["opportunity"].items():
        assert (summary["spearman"], summary["median_abs_delta"]) == (1.0, 0.0)
        assert summary["units"] == (5 if level == "practical" else 6)

    flipped = json.loads(_run("agreement.py", str(a), str(reversed_tree)))["metrics"]["acc"]
    assert flipped["hardness"]["spearman"] == -1.0
    assert flipped["hardness"]["class_agreement"] < 1.0
    for summary in flipped["opportunity"].values():
        assert summary["spearman"] == -1.0
