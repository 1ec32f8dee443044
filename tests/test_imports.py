"""Every imported name in the package and the tests is used, and the
package imports nothing beyond its declared runtime dependencies.

A stdlib-`ast` scan: a module's imported names must each appear as a
name (or the root of an attribute chain) somewhere in that module,
string annotations included.  `__init__.py` files re-export by
importing, and names listed in `__all__` are exports, so both are
exempt; `from __future__` imports are directives, not names.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in (ROOT / "src" / "benflow", ROOT / "tests") for p in d.rglob("*.py") if p.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree) | exported_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_catches_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Sequence\n"
        "from fractions import Fraction as F\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return os.path.join(str(F(1)))\n"
    )
    assert unused_imports(source) == ["line 2: math"]


def test_runtime_loads_no_scipy():
    # the matrix exponential is the package's own, so neither the library nor the CLI loads scipy
    code = "import sys, benflow, benflow.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
