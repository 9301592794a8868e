"""The library stays independent of the benchmark that checks it.

perfbench/oracles.py re-derives Witt arithmetic apart from src/; if a module
of src/ imported perfbench, the benchmark's checks would stop being
independent of the code they check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wittforge"


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
