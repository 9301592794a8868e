"""The library stays independent of the benchmark that checks it, and of
everything outside the standard library, and holds nothing that neither it
nor the benchmark reaches.

perfbench/oracles.py re-derives Witt arithmetic apart from src/; if a module
of src/ imported perfbench, the benchmark's checks would stop being
independent of the code they check.  The README promises no runtime
dependencies beyond the standard library.  In the other direction, the
benchmark's tracer wraps library functions by name and skips a missing one
silently, so the names it lists are checked here.  Every public function,
class and method of src/ is named somewhere in src/ or perfbench/ outside
its own definition: code that only the tests call is dead code.
"""

import ast
import importlib
import sys
from collections import Counter
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


def _names(tree):
    """Each name a tree mentions: identifiers, attributes, import aliases and
    string constants (the tracer's SPANS name functions by strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from filter(None, (node.name, node.asname))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions(body, prefix):
    """(dotted name, node) for each def or class of body, and for each def
    or class in the body of a class."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}.{node.name}")


def _unreached(src_dir, bench_dir):
    """module.name (module.Class.name for a method) for every public
    definition of src_dir, module-level or in a class, that no code in
    src_dir or bench_dir names outside its own definition.  A name starting
    with _ is skipped: private, or a dunder that the language calls."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(src_dir.glob("*.py")) + sorted(bench_dir.glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    return [dotted for path, tree in trees.items() if path.parent == src_dir
            for dotted, node in _definitions(tree.body, path.stem)
            if not node.name.startswith("_")
            and named[node.name] == Counter(_names(node))[node.name]]


def test_every_public_definition_is_reached():
    assert _unreached(SRC, ROOT / "perfbench") == []


def test_a_definition_named_only_by_itself_is_unreached(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "def loop(n):\n    return loop(n - 1) if n else used()\n\n\n"
        "def used():\n    return 0\n\n\ndef traced():\n    pass\n\n\n"
        "class Orphan:\n    pass\n\n\ndef _private():\n    pass\n\n\n"
        "class Kept:\n    def __str__(self):\n        return self.shown()\n\n"
        "    def shown(self):\n        return ''\n\n"
        "    def recurse(self):\n        return self.recurse()\n\n"
        "    def _helper(self):\n        pass\n\n\nprint(Kept())\n")
    (bench / "b.py").write_text('SPANS = (("m", "traced", None),)\n')
    assert _unreached(src, bench) == ["m.loop", "m.Orphan", "m.Kept.recurse"]
