"""Every imported name in the package and the tests is used, and the
package imports nothing beyond its declared runtime dependencies.

A stdlib-`ast` scan: a module's imported names must each appear as a
name (or the root of an attribute chain) somewhere in that module,
string annotations included.  `__init__.py` files re-export by
importing, and names listed in `__all__` are exports, so both are
exempt; `from __future__` imports are directives, not names.
"""
import ast
import json
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


# Every public name of benflow at the switch to lazy exports; each must keep resolving.
EXPORTED = (
    "RunConfig Tolerances VerdictThresholds ExactComplex ExactReal Monomial SymbolBasis exact_log_base "
    "span_membership BenfordReport NormOnFlow Observable ObservableOnFlow Synthetic "
    "benford_report_from_log_samples benford_report_from_samples benford_verdict build_observable_for_modes "
    "eval_signal triviality_check CensusReport EnsembleSpec resonance_census sample_generator SpectrumInfo "
    "SpectrumPoint companion_from_second_order expm is_hyperbolic jordan_index planar_criterion spectrum "
    "IntegerRelation ResonanceVerdict ShellPoint is_b_nonresonant is_exp_b_nonresonant "
    "is_exp_nonresonant_algebraic numeric_relation_scan DigitHistogram benford_cdf digit_frequencies "
    "digit_law_pmf empirical_distance first_digit significand SamplingGrid TorusMapSpec WeylReport cud_report "
    "delta_sampling_check pushforward_fourier torus_map_apply weyl_sum_sequence"
).split()
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
    # every public name and submodule resolves lazily from a fresh import and is listed by dir();
    # `significand` stays the function though its submodule is loaded too
    checks = run_python(
        "import json, sys, types, benflow\n"
        f"names, subs = {EXPORTED!r}, {SUBMODULES!r}\n"
        "from benflow.significand import significand\n"
        "print(json.dumps([\n"
        "    sorted(set(names + subs) - set(dir(benflow))),\n"
        "    [n for n in names if isinstance(getattr(benflow, n), types.ModuleType)],\n"
        "    [s for s in subs if s != 'significand' and getattr(benflow, s) is not sys.modules['benflow.' + s]],\n"
        "    benflow.significand is significand,\n"
        "]))"
    )
    assert json.loads(checks) == [[], [], [], True]
