"""The library stays independent of the benchmark that checks it.

perfbench/oracles.py re-derives Witt arithmetic apart from src/; if a module
of src/ imported perfbench, the benchmark's checks would stop being
independent of the code they check.  In the other direction, the benchmark's
tracer wraps library functions by name and skips a missing one silently, so
the names it lists are checked here.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wittforge"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            yield node.args[0].value


def test_no_src_module_imports_perfbench():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    bad = [f"{path.name}: {name}" for path in paths
           for name in _imported_modules(ast.parse(path.read_text(), str(path)))
           if name.split(".")[0] == "perfbench"]
    assert not bad


def _assigned_constant(path, name):
    """The literal value assigned to a module-level name, read without import."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned in {path}")


def test_every_traced_function_exists():
    spans = _assigned_constant(ROOT / "perfbench" / "tracer.py", "SPANS")
    assert spans
    missing = [f"{mod}.{fname}" for mod, fname, _ in spans
               if not callable(getattr(importlib.import_module(f"wittforge.{mod}"),
                                       fname, None))]
    assert not missing
    importlib.import_module("wittforge.frobenius_lab")  # the lab's one span
