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


@pytest.mark.parametrize("name", ["tree_hash", "time_desk_unit", "run_desk_experiment"])
def test_long_scripts_import(monkeypatch, name):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts extend it
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert callable(module.main)
