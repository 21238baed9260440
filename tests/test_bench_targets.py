"""The benchmark's per-layer metrics wrap vulgraph functions by name; a
renamed or deleted function would silently turn its metric into "missing".
This reads the target list from perfbench/tracer.py without importing it."""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    unresolved = []
    for module_name, path in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{path}")
    assert unresolved == []
