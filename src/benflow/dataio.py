"""File I/O: matrices, exact spectrum annotations, signal CSVs, config files, reports.

Every file read or written, and every report rendered as text, goes
through here; `emit_report` holds the one table-or-JSON rule.

Matrices arrive as CSV (one row per line) or JSON (a plain
array-of-arrays, or an object with a "matrix" key and an optional
"exact_spectrum" annotation).  The annotation assigns each eigenvalue
exact (re, im) coordinates over named symbols, which is the only way
float input can reach the exact resonance engine: the eigenvalues of a
float matrix carry no exact arithmetic by themselves.

Annotation schema:

    {
      "matrix": [[...], ...],
      "exact_spectrum": {
        "symbols": ["pi", "ln10", "pi*ln10^-1"],
        "atoms": {"myconst": 1.234},            # stock atoms are valued by name
        "eigenvalues": [
          {"re": {"1": "1"}, "im": {"pi*ln10^-1": "2"}},
          ...
        ]
      }
    }

Symbols are monomial labels: atom names joined by '*', each optionally
carrying an integer '^exponent'.  Stock atoms are "pi" and "ln<n>" for
n >= 2, valued by name: one declared in "atoms" with a different value
is refused.  Anything else needs a nonzero value in "atoms", and no two
atoms may share a value (`SymbolBasis` values every atom and refuses
both).  Every "atoms" entry must be a finite number, used or not; only
the entries of atoms that appear in "symbols" reach the basis.  Coordinates
map symbol labels to rationals written as integers or "p/q" strings.
"""
from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import UsageError
from .exactreal import ExactComplex, ExactReal, Monomial, ONE, SymbolBasis


def parse_monomial_label(label: str) -> Monomial:
    label = label.strip()
    if label == "1":
        return ONE
    powers = {}
    for part in label.split("*"):
        part = part.strip()
        if "^" in part:
            atom, _, exp = part.partition("^")
            try:
                powers[atom.strip()] = powers.get(atom.strip(), 0) + int(exp)
            except ValueError:
                raise UsageError(f"bad exponent in symbol {label!r}") from None
        elif part:
            powers[part] = powers.get(part, 0) + 1
        else:
            raise UsageError(f"bad symbol label {label!r}")
    return Monomial.of(**powers)


def _finite_float(what: str, raw) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if isinstance(raw, bool) or not math.isfinite(value):
        raise UsageError(f"{what} needs a finite number, got {raw!r}")
    return value


def parse_exact_spectrum(annotation: dict) -> list[ExactComplex]:
    """Build the annotated eigenvalue set over a basis derived from it."""
    if not isinstance(annotation, dict) or not isinstance(annotation.get("eigenvalues"), list):
        raise UsageError("exact_spectrum must be an object with an 'eigenvalues' list")
    symbol_labels = annotation.get("symbols", [])
    if not isinstance(symbol_labels, list) or not all(isinstance(s, str) for s in symbol_labels):
        raise UsageError(f"exact_spectrum 'symbols' must be a list of labels, got {symbol_labels!r}")
    monomials = [parse_monomial_label(s) for s in symbol_labels]
    atoms = annotation.get("atoms", {})
    if not isinstance(atoms, dict):
        raise UsageError(f"exact_spectrum 'atoms' must be an object of atom values, got {atoms!r}")
    declared = {atom: _finite_float(f"exact_spectrum atom {atom!r}", raw) for atom, raw in atoms.items()}
    used = {atom for mono in monomials for atom, _ in mono.powers}
    basis = SymbolBasis(
        symbols=tuple(dict.fromkeys([ONE, *monomials])),
        atom_values=tuple((atom, value) for atom, value in declared.items() if atom in used),
    )

    def coords(obj) -> ExactReal:
        if not isinstance(obj, dict):
            raise UsageError("eigenvalue coordinates must be objects")
        terms = {}
        for label, raw in obj.items():
            mono = parse_monomial_label(label)
            try:
                value = Fraction(raw)
            except (ValueError, TypeError, OverflowError, ZeroDivisionError):
                raise UsageError(f"bad rational coordinate {raw!r} for symbol {label!r}") from None
            terms[mono] = value
        return basis.combination(terms)

    out = []
    for entry in annotation["eigenvalues"]:
        if not isinstance(entry, dict):
            raise UsageError("each eigenvalue must be an object with re/im")
        out.append(ExactComplex(coords(entry.get("re", {})), coords(entry.get("im", {}))))
    return out


def load_matrix(path: str | Path) -> tuple[np.ndarray, dict | None]:
    """Read a matrix file; returns (matrix, exact annotation or None)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json" or text.lstrip()[:1] in ("[", "{"):
        data = _parse_json(text, path)
        if isinstance(data, dict):
            if "matrix" not in data:
                raise UsageError(f"{path}: object form needs a 'matrix' key")
            raw, annotation = data["matrix"], data.get("exact_spectrum")
        else:
            raw, annotation = data, None
        try:
            matrix = np.asarray(raw, dtype=float)
        except (TypeError, ValueError):
            raise UsageError(f"{path}: matrix entries must be numbers") from None
        _check_square(matrix, path)
        return matrix, annotation
    import csv  # like every use of csv here: JSON-only runs never load it

    rows = []
    for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            rows.append([float(c) for c in row])
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: non-numeric entry ({exc})") from None
        if len(row) != len(rows[0]):
            raise UsageError(f"{path}: line {lineno}: {len(row)} entries, the first row has {len(rows[0])}")
    if not rows:
        raise UsageError(f"{path}: empty matrix file")
    matrix = np.asarray(rows, dtype=float)
    _check_square(matrix, path)
    return matrix, None


def _check_square(matrix: np.ndarray, path) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise UsageError(f"{path}: matrix must be square, got shape {matrix.shape}")


def load_signal_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (t, value) CSV; a single header row is tolerated."""
    import csv

    times, values = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise UsageError(f"{path}: line {lineno}: expected two columns")
            try:
                t, v = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1:  # header
                    continue
                raise UsageError(f"{path}: line {lineno}: non-numeric row {row[:2]}") from None
            times.append(t)
            values.append(v)
    if not times:
        raise UsageError(f"{path}: no data rows")
    return np.asarray(times), np.asarray(values)


def _parse_json(text: str, where) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file whose keys mirror RunConfig field names."""
    cfg = RunConfig()
    raw = _parse_json(Path(path).read_text(encoding="utf-8"), f"config {path}")
    if not isinstance(raw, dict):
        raise UsageError(f"config {path}: expected a JSON object")
    updates: dict = {}
    for key, value in raw.items():
        if key in ("thresholds", "tolerances"):
            if not isinstance(value, dict):
                raise UsageError(f"config {path}: {key} must be an object")
            current = getattr(cfg, key)
            unknown = set(value) - set(current.__dataclass_fields__)
            if unknown:
                raise UsageError(f"config {path}: unknown {key} keys {sorted(unknown)}")
            updates[key] = replace(current, **value)
        elif key in RunConfig.__dataclass_fields__:
            updates[key] = value
        else:
            raise UsageError(f"config {path}: unknown key {key!r}")
    return replace(cfg, **updates)


Table = tuple[list[str], list[list]]  # (header, rows)


def _csv_text(table: Table) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([table[0], *table[1]])
    return buf.getvalue()


def write_table(path: str | Path, table: Table) -> None:
    """Write a table as CSV, e.g. per-digit frequencies for plotting."""
    Path(path).write_text(_csv_text(table), encoding="utf-8")


def emit_report(report: dict, output_format: str, out: Path | None, table: Table | None = None) -> None:
    """Print the table as CSV under the "csv" format; otherwise, or with no table, the report as JSON."""
    if output_format == "csv" and table is not None:
        text = _csv_text(table)
    else:
        text = json.dumps(report, indent=2) + "\n"
    if out:
        out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
