"""The benchmark's tracer wraps modalguard bindings by name.

A rename or a deleted binding would only show up as a failed traced
benchmark run; this check makes it fail the test suite instead.
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
