"""The library stays independent of the benchmark that checks it, and of
everything outside the standard library.

perfbench/oracles.py re-derives Witt arithmetic apart from src/; if a module
of src/ imported perfbench, the benchmark's checks would stop being
independent of the code they check.  The README promises no runtime
dependencies beyond the standard library.  In the other direction, the
benchmark's tracer wraps library functions by name and skips a missing one
silently, so the names it lists are checked here.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wittforge"


def _imported_modules(tree):
    """The absolute module names a module imports, dynamic imports included;
    a relative import stays inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            yield node.args[0].value


def _src_imports():
    """(file name, top-level module) for every absolute import in src."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(path.name, name.split(".")[0]) for path in paths
            for name in _imported_modules(ast.parse(path.read_text(), str(path)))]


def test_no_src_module_imports_perfbench():
    bad = [f"{fname}: {top}" for fname, top in _src_imports() if top == "perfbench"]
    assert not bad


def test_src_imports_only_the_standard_library():
    bad = [f"{fname}: {top}" for fname, top in _src_imports()
           if top not in sys.stdlib_module_names]
    assert not bad


def test_src_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; reject newer syntax
    # (except*, PEP 695 type parameters) even when the tests run on a newer
    # interpreter
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


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
