"""Helpers only the tests use: the packaged-fixture reader, the
float close-pair proxy for a vanishing discriminant, a per-matrix
reference census, and a 6x6 test generator with a double real
eigenvalue."""
from importlib import resources

import numpy as np

from benflow.errors import UsageError
from benflow.genericity import CensusReport, EnsembleSpec, _has_close_pair, sample_generator
from benflow.matrixcore import as_square_matrix
from benflow.resonance import numeric_relation_scan


def fixture_text(name: str) -> str:
    """Contents of a packaged annotated-matrix fixture."""
    ref = resources.files("benflow") / "fixtures" / name
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        available = sorted(p.name for p in (resources.files("benflow") / "fixtures").iterdir())
        raise UsageError(f"no fixture {name!r}; available: {available}") from None


def discriminant_proxy(a: np.ndarray, tol: float = 1e-8) -> bool:
    """True when two computed eigenvalues are within tol of each other."""
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    return bool(_has_close_pair(np.linalg.eigvals(as_square_matrix(a)), tol))


def census_reference(spec: EnsembleSpec, b: int, tol: float, height: int) -> CensusReport:
    """resonance_census as one eigensolve and two hit tests per matrix,
    in index order: the oracle for the batched census."""
    axis_hits = multiple_hits = relation_hits = 0
    for index in range(spec.N):
        eigs = np.linalg.eigvals(sample_generator(spec, index))
        if np.abs(eigs.real).min() <= tol:
            axis_hits += 1
        gaps = np.abs(eigs[:, None] - eigs[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() <= tol:
            multiple_hits += 1
        if numeric_relation_scan(eigs.tolist(), b, height) is not None:
            relation_hits += 1
    return CensusReport(
        ensemble=spec,
        base=b,
        tol=tol,
        height=height,
        imaginary_axis_hits=axis_hits,
        multiple_eigenvalue_hits=multiple_hits,
        relation_hits=relation_hits,
    )


def double_real_eigenvalue_6x6() -> np.ndarray:
    """diag(2, 2, -1, 3, 0.5, -4) under a fixed random similarity."""
    s = np.random.default_rng(5).standard_normal((6, 6)) + 3 * np.eye(6)
    return s @ np.diag([2.0, 2.0, -1.0, 3.0, 0.5, -4.0]) @ np.linalg.inv(s)
