"""The benchmark's per-layer spans name functions that exist in hlab.

bench/spans.py wraps hlab functions by module path and attribute name;
a rename or deletion inside hlab would otherwise surface only when the
benchmark runs."""

import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_traced_names_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans.TRACED and spans.TRACED_METHODS
    for name, module, attr, _ in spans.TRACED:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), name
    for name, module, cls, method in spans.TRACED_METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, method, None)), name
