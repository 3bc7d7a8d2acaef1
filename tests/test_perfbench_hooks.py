"""Guard for the benchmark tracer: every name perfbench/tracer.py wraps must
exist in modperf, and uninstalling must restore each original."""

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
