"""Every definition in the package is reached by name from the package itself,
every top-level definition of the test helper modules is reached from a test
module, and every name a test module imports is used there.

Test-only references belong in tests/oracles.py, so a function, class or
method that nothing under src/vulgraph uses is dead code. Dunders, the CLI's
`cmd_*` handlers and `main` are entry points and are not checked. A helper
in tests/oracles.py or tests/tensor_ops.py counts as reached when a test
module, or a helper reached before it, names it.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "vulgraph"

HELPERS = ("oracles.py", "tensor_ops.py")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree) -> set[str]:
    """Every name `tree` reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


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
        referenced |= _names(tree)
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


def test_every_test_helper_is_reached_from_a_test_module():
    sites: dict[str, str] = {}
    uses: dict[str, set[str]] = {}
    reached: set[str] = set()
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name not in HELPERS:
            reached |= _names(tree)
            continue
        for node in tree.body:
            if isinstance(node, _DEFS):
                sites[node.name] = f"{path.name}:{node.name}"
                uses[node.name] = _names(node)
            else:  # module-level code runs on import
                reached |= _names(node)
    stack = list(reached)
    while stack:
        for name in uses.get(stack.pop(), set()) - reached:
            reached.add(name)
            stack.append(name)
    dead = sorted(site for name, site in sites.items() if name not in reached)
    assert not dead, "no test module reaches: " + ", ".join(dead)
