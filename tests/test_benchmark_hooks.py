"""The benchmark's tracer wraps modalguard bindings by name.

A rename or a deleted binding, or a layer a workload no longer reaches,
would only show up as a failed traced benchmark run; these checks make
it fail the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "guardbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("guardbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_to_a_callable():
    hooks = load_tracing().HOOKS
    assert hooks
    missing = []
    for module, binding, _layer in hooks:
        mod = importlib.import_module(f"modalguard.{module}")
        if not callable(getattr(mod, binding, None)):
            missing.append(f"modalguard.{module}.{binding}")
    assert missing == []


def test_one_pass_of_each_workload_reaches_every_traced_layer(monkeypatch):
    # what a traced benchmark run checks after its traced pass: a change
    # that stops calling a layer (say clausify on query_mix) fails here
    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    tracing = load_tracing()
    for make in workloads.WORKLOADS.values():
        wl = make()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            for req in wl.pool:
                with tracer.request(req.label):
                    answer = req.send(req)
                assert req.check(answer) is None, req.label
        called = {name for p in tracing.profiles(tracer) for name in p.calls}
        assert [layer for layer in wl.layers if layer not in called] == [], wl.name
