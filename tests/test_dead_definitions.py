"""Every definition in the package is reached by name from the package itself,
and every name a test module imports is used there.

Test-only references belong in tests/oracles.py, so a function, class or
method that nothing under src/vulgraph uses is dead code. Dunders, the CLI's
`cmd_*` handlers and `main` are entry points and are not checked.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "vulgraph"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_entry_point(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("cmd_") or name == "main"


def test_every_definition_is_referenced_in_the_package():
    defined: dict[str, list[str]] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(PACKAGE).as_posix()
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            defined.setdefault(node.name, []).append(f"{where}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _DEFS):
                        defined.setdefault(member.name, []).append(f"{where}:{node.name}.{member.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = sorted(
        site
        for name, sites in defined.items()
        if not _is_entry_point(name) and name not in referenced
        for site in sites
    )
    assert not dead, "unreferenced: " + ", ".join(dead)


def test_every_name_a_test_module_imports_is_used():
    unused = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno}:{bound}")
    assert not unused, "imported but unused: " + ", ".join(unused)
