"""Each subcommand loads only the layers it runs.

parse, gen-corpus, evaluate and mine run on the numpy-free layer; train,
detect, explain and gradcheck import the model modules when they run, and
none of them loads a module it never calls. gen-corpus parses nothing, so it
loads no frontend module either. The conftest loads numpy into
the test process, so the commands run in fresh interpreters; the layering
check reads the source with `ast` and imports nothing.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "vulgraph"

NUMPY_FREE = ["errors.py", "util.py", "rng.py", "frontend", "corpus.py", "metrics.py", "patterns.py", "config.py", "cli.py"]
MODEL = ("autodiff", "features", "slots", "encoders", "fagcn", "explain", "gradcheck")


def _is_numpy_or_model(name: str) -> bool:
    return name == "numpy" or name.startswith("numpy.") or any(
        name == f"vulgraph.{m}" or name.startswith(f"vulgraph.{m}.") for m in MODEL
    )


# --- the layering, read from the source -----------------------------------------


def _module_level_imports(source: str, module: str) -> list[tuple[int, str]]:
    """(line, absolute module name) of each import that runs when `module`
    is loaded: every import outside a function body."""
    package = module.rpartition(".")[0]
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            if node.module is None:
                found.extend((node.lineno, f"{base}.{alias.name}") for alias in node.names)
            else:
                found.append((node.lineno, base))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_numpy_free_layer_imports_no_numpy_or_model_module_when_loaded():
    offending = []
    for entry in NUMPY_FREE:
        root = PACKAGE / entry
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            rel = path.relative_to(PACKAGE.parent)
            module = ".".join(rel.with_suffix("").parts)  # a package's __init__ resolves inside it
            for line, name in _module_level_imports(path.read_text(encoding="utf-8"), module):
                if _is_numpy_or_model(name):
                    offending.append(f"{rel.as_posix()}:{line} imports {name}")
    assert offending == []


def test_the_layering_check_sees_module_level_imports_only():
    source = (
        "import numpy as np\n"
        "from ..fagcn import train\n"
        "from . import explain\n"
        "class C:\n"
        "    from .slots import Slots\n"
        "def f():\n"
        "    from .gradcheck import run_gradcheck\n"
        "    import numpy\n"
    )
    assert _module_level_imports(source, "vulgraph.frontend.pdg") == [
        (1, "numpy"),
        (2, "vulgraph.fagcn"),
        (3, "vulgraph.frontend.explain"),
        (5, "vulgraph.frontend.slots"),
    ]


# --- what each subcommand loads -------------------------------------------------

# Run in a fresh interpreter: runs the CLI arguments given as JSON in argv[1]
# and writes the exit code, and whether numpy and which vulgraph modules were
# loaded, to argv[2].
_RUN_AND_LIST_MODULES = """
import json, sys
from vulgraph.cli import main

code = main(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m == "numpy" or m.partition(".")[0] == "vulgraph")
with open(sys.argv[2], "w") as fh:
    json.dump({"code": code, "loaded": loaded}, fh)
"""


def _loaded_by(argv: list, tmp_path: pathlib.Path) -> set:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    result = tmp_path / "loaded.json"
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, json.dumps(argv), str(result)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(result.read_text(encoding="utf-8"))
    assert run["code"] == 0, (argv, proc.stderr)
    return set(run["loaded"])


def test_each_subcommand_loads_only_the_layers_it_runs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"epochs": 1, "embed_dim": 8, "gru_hidden": 8, "stmt_dim": 12, "explain_iterations": 3}),
        encoding="utf-8",
    )
    corpus, model = str(tmp_path / "corpus.jsonl"), str(tmp_path / "model.json")
    detections, explained = str(tmp_path / "detections.json"), tmp_path / "explained"
    numpy_free = [
        ["gen-corpus", "--n", "20", "--seed", "1", "--out", corpus],
        ["parse", str(TESTS / "fixtures" / "device_xcmd.c"), "--out", str(tmp_path / "pdgs")],
    ]
    with_model = [
        ["train", corpus, "--config", str(config), "--out", model],
        ["detect", corpus, "--model", model, "--out", detections],
        ["explain", corpus, "--model", model, "--config", str(config), "--method", "m0000_v",
         "--out", str(explained)],
    ]
    from_reports = [
        ["evaluate", "--detections", detections, "--explanations", str(explained / "explanations.json"),
         "--corpus", corpus, "--out", str(tmp_path / "report.json")],
        ["mine", str(explained / "explanations.json"), "--out", str(tmp_path / "patterns")],
    ]
    loaded = {argv[0]: _loaded_by(argv, tmp_path) for argv in numpy_free + with_model + from_reports}

    for command in ("gen-corpus", "parse", "evaluate", "mine"):
        assert sorted(m for m in loaded[command] if _is_numpy_or_model(m)) == [], command
    assert sorted(m for m in loaded["gen-corpus"] if m.startswith("vulgraph.frontend")) == []
    for command in ("train", "detect"):
        assert "vulgraph.fagcn" in loaded[command]
        assert loaded[command] & {"vulgraph.gradcheck", "vulgraph.explain", "vulgraph.patterns"} == set(), command
    assert "vulgraph.explain" in loaded["explain"] and "vulgraph.gradcheck" not in loaded["explain"]
