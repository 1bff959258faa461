"""Every layer the benchmark traces still has a target in the package.

``benchmark/spans.py`` wraps flowsilt functions and methods by name. A
hook whose target was deleted or renamed only prints a warning during a
benchmark run and reads zero for its layer, so this test makes such a
change fail here instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_hook_has_a_target():
    spans = _load_spans()
    restore, missing = spans.install(spans.Tracer())
    restore()
    assert spans.HOOKS
    assert missing == []
