"""Everything the benchmark takes from the package still exists.

``benchmark/spans.py`` wraps flowsilt functions and methods by name. A
hook whose target was deleted or renamed only prints a warning during a
benchmark run and reads zero for its layer, so this test makes such a
change fail here instead. The other benchmark files import flowsilt
names directly; a deleted one breaks only the benchmark's own tests,
which tier-1 does not run, so those names are checked here too.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
SPANS = BENCHMARK / "spans.py"


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


def _dotted(node: ast.AST):
    """``a.b.c`` for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _flowsilt_names(tree: ast.AST) -> set[str]:
    """Dotted flowsilt names a module imports or reads as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "flowsilt":
                names |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names
                      if a.name.split(".")[0] == "flowsilt"}
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.split(".")[0] == "flowsilt":
                names.add(dotted)
    return names


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    try:
        obj = importlib.import_module(parts[0])
        for k, part in enumerate(parts[1:], start=2):
            obj = (getattr(obj, part) if hasattr(obj, part)
                   else importlib.import_module(".".join(parts[:k])))
    except ImportError:
        return False
    return True


def test_every_benchmark_import_resolves():
    names = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        names |= _flowsilt_names(ast.parse(path.read_text(encoding="utf-8")))
    assert names
    assert [name for name in sorted(names) if not _resolves(name)] == []
