"""Helpers only the tests use: the packaged-fixture reader, the
float close-pair proxy for a vanishing discriminant, a per-matrix
reference census, a 6x6 test generator with a double real eigenvalue,
the sorted fractions of log samples, and Weyl averages read off them,
along arithmetic subsequences too."""
from importlib import resources

import numpy as np

from benflow.errors import UsageError
from benflow.genericity import CensusReport, EnsembleSpec, _has_close_pair, sample_generator
from benflow.matrixcore import as_square_matrix
from benflow.resonance import numeric_relation_scan
from benflow.significand import fractions_into
from benflow.udmod1 import SamplingGrid, sorted_weyl_sums

# |discrete - continuous| Weyl average gap that flags an exceptional subsequence step
FLAG_GAP = 0.1


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


def fractions_of_logs(logb: np.ndarray) -> np.ndarray:
    """Sorted fractional parts u in [0, 1) of log_b values, made as a
    verdict makes them: `fractions_into`, then one sort."""
    u = fractions_into(logb, np.empty(np.shape(logb)))
    u.sort()
    return u


def weyl_average(x, k: int) -> complex:
    """(1/N) sum of exp(2 pi i k x_n) for k >= 1, read by the package's
    Weyl kernel off the sorted fractional parts of x."""
    return complex(sorted_weyl_sums(fractions_of_logs(np.asarray(x, dtype=float)), k)[k - 1])


def subsequence_weyl_averages(f, T: float, deltas, k: int = 1) -> tuple[list[complex], complex]:
    """The delta-sampling harness: Weyl averages at frequency k of f along
    each arithmetic subsequence n * delta in (0, T], and along a grid of
    1e6 points in (0, T], the Riemann sum that stands in for the time
    average."""
    discrete = [weyl_average(f(SamplingGrid(T, delta).times()), k) for delta in deltas]
    return discrete, weyl_average(f(SamplingGrid(T, T / 1e6).times()), k)
