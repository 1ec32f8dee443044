"""Every imported name in the package and the tests is used, every
top-level definition of the package has a caller in it or a reason in
the README, and the package imports nothing beyond its declared runtime
dependencies.

A stdlib-`ast` scan: a module's imported names must each appear as a
name (or the root of an attribute chain) somewhere in that module,
string annotations included.  `__init__.py` files re-export by
importing, and names listed in `__all__` are exports, so both are
exempt; `from __future__` imports are directives, not names.
"""
import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "benflow"
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


def referenced_names(node: ast.AST) -> set[str]:
    """Names a statement reads, the attribute of a `module.name` chain included."""
    return used_names(node) | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def defined_names(node: ast.stmt) -> set[str]:
    """The names other than dunders that a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        names = {t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)}
    else:
        names = set()
    return {name for name in names if not name.startswith("__")}


def uncalled_definitions(sources: list[str]) -> set[str]:
    """Top-level definitions of the modules that no other top-level statement
    of them reads; an import is no reader."""
    statements = [node for source in sources for node in ast.parse(source).body]
    reads = [referenced_names(node) for node in statements]
    readers = Counter(name for names in reads for name in names)
    return {name for node, names in zip(statements, reads) for name in defined_names(node) if readers[name] == (name in names)}


def package_sources() -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def deliberate_public_api() -> set[str]:
    """The names of the README's list of deliberate public API, each given with a reason."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("### Deliberate public API", 1)[1]
    return set(re.findall(r"^- `(\w+)`: \S", section.split("\n#", 1)[0], re.M))


def test_every_definition_has_a_caller_or_a_reason():
    assert uncalled_definitions(package_sources()) == deliberate_public_api()


def test_caller_scan_catches_a_planted_uncalled_definition():
    sources = [
        "from math import pi\n"
        "LIMIT = 3\n"
        "def f():\n    return g() + LIMIT\n"
        "def h(n):\n    return h(n - 1)\n"
        "class C:\n    pass\n",
        "import mod\n"
        "__all__ = ['g']\n"
        "def g() -> 'C':\n    return mod.k()\n"
        "def k():\n    return pi\n",
    ]
    # f has no reader and h reads only itself; g reads C through a string
    # annotation and k through an attribute; __all__ and imports define nothing
    assert uncalled_definitions(sources) == {"f", "h"}
    planted = "def unused_helper(a):\n    return spectrum(a)\n"
    assert uncalled_definitions(package_sources() + [planted]) == deliberate_public_api() | {"unused_helper"}


def stock_value_readers(sources: dict[str, str]) -> set[str]:
    """The modules that read `stock_atom_value`, by name or as an attribute."""
    return {name for name, source in sources.items() if "stock_atom_value" in referenced_names(ast.parse(source))}


def test_stock_atoms_are_valued_only_in_exactreal():
    # SymbolBasis is the one place an atom gets its value
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert stock_value_readers(sources) == {"exactreal"}
    planted = {"dataio": "from . import exactreal\nvalue = exactreal.stock_atom_value('pi')\n"}
    assert stock_value_readers(sources | planted) == {"exactreal", "dataio"}


# Every public name of benflow; each must keep resolving.
EXPORTED = (
    "RunConfig Tolerances VerdictThresholds ExactComplex ExactReal Monomial SymbolBasis exact_log_base "
    "span_membership BenfordReport NormOnFlow Observable ObservableOnFlow Synthetic "
    "benford_report_from_log_samples benford_report_from_samples benford_verdict build_observable_for_modes "
    "eval_signal triviality_check CensusReport EnsembleSpec resonance_census sample_generator SpectrumInfo "
    "SpectrumPoint companion_from_second_order expm is_hyperbolic jordan_index planar_criterion spectrum "
    "IntegerRelation ResonanceVerdict ShellPoint is_b_nonresonant is_exp_b_nonresonant "
    "is_exp_nonresonant_algebraic numeric_relation_scan DigitHistogram digit_frequencies digit_law_pmf "
    "significand SamplingGrid TorusMapSpec WeylReport pushforward_fourier torus_map_apply"
).split()
REMOVED = "benford_cdf cud_report delta_sampling_check empirical_distance first_digit weyl_sum_sequence".split()
SUBMODULES = "cli config dataio demos errors exactreal flowsignal genericity matrixcore resonance significand udmod1".split()
FIXTURE = ROOT / "src" / "benflow" / "fixtures" / "ex-3-9.json"
# (entry point, modules it must not load): the matrix exponential is the
# package's own, so nothing loads scipy; only the PSLQ relation scan loads
# mpmath; the CLI imports each command's modules when the command runs
ENTRY_POINTS = [
    ("import benflow, benflow.cli", {"scipy", "mpmath", "benflow.demos", "benflow.flowsignal", "benflow.genericity"}),
    (
        "import contextlib, io, sys, benflow.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert benflow.cli.main(['analyze-matrix', {str(FIXTURE)!r}]) == 0",
        {"scipy", "mpmath", "benflow.flowsignal", "benflow.udmod1", "benflow.demos"},
    ),
    (
        "import numpy as np\n"
        "from benflow import Observable, ObservableOnFlow, SamplingGrid, benford_verdict\n"
        "spec = ObservableOnFlow(np.array([[1.0, -2.0], [2.0, 1.0]]), Observable.entry(0, 0, 2))\n"
        "benford_verdict(spec, 10, SamplingGrid(T=10.0, step=0.01))",
        {"scipy", "mpmath", "benflow.resonance", "benflow.exactreal", "benflow.dataio", "benflow.cli", "benflow.genericity"},
    ),
]


def run_python(code: str) -> str:
    """Standard output of a fresh interpreter that runs code against src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_each_entry_point_loads_only_its_modules():
    for code, absent in ENTRY_POINTS:
        loaded = run_python(code + "\nimport sys; print(*sys.modules)").split()
        assert absent.isdisjoint({*loaded, *(m.partition(".")[0] for m in loaded)}), code
    # every public name and submodule resolves lazily from a fresh import and is listed by dir(),
    # and no other name is exported; `significand` stays the function though its submodule is
    # loaded too; the removed names no longer resolve
    checks = run_python(
        "import json, sys, types, benflow\n"
        f"names, subs, removed = {EXPORTED!r}, {SUBMODULES!r}, {REMOVED!r}\n"
        "from benflow.significand import significand\n"
        "print(json.dumps([\n"
        "    sorted(set(names + subs) - set(dir(benflow))),\n"
        "    sorted(set(benflow.__all__) ^ set(names)),\n"
        "    [n for n in removed if hasattr(benflow, n)],\n"
        "    [n for n in names if isinstance(getattr(benflow, n), types.ModuleType)],\n"
        "    [s for s in subs if s != 'significand' and getattr(benflow, s) is not sys.modules['benflow.' + s]],\n"
        "    benflow.significand is significand,\n"
        "]))"
    )
    assert json.loads(checks) == [[], [], [], [], [], True]
