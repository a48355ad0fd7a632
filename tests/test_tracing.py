"""The benchmark's tracer (perfbench/tracing.py) wraps package attributes by
name; this fails when a refactor removes or renames one of them."""

import importlib.util
import sys
from pathlib import Path

import mzsv
import mzsv.cli  # noqa: F401  (the benchmark worker imports it too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_on_every_name_and_uninstalls(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, mzsv)
        patched = list(tracer._patched)
        assert patched
        assert all(_current(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.uninstall()
    assert all(_current(owner, attr) is orig for owner, attr, orig in patched)
