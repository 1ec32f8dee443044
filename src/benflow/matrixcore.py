"""Dense real square-matrix kernels for linear flows.

Covers the matrix exponential, eigenvalue clustering into distinct
spectrum points, Jordan indices detected through rank drops of matrix
powers, the dominant part of the spectrum (right-most eigenvalues with
the largest Jordan block), and the planar trace/determinant shortcut
for deciding whether any eigenvalue sits on the imaginary axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .config import Tolerances
from .errors import DomainError, NumericalError, SignalOverflowError, UsageError
from .resonance import is_exp_nonresonant_algebraic

_DEFAULT_TOL = Tolerances()
_RANK_TOL = 1e-10  # relative singular-value cutoff of the rank drops behind Jordan indices


def as_square_matrix(obj) -> np.ndarray:
    """Validate and return a finite d x d float matrix, d >= 1."""
    a = np.asarray(obj, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise UsageError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{tA} by scaling-and-squaring with Pade approximants.

    Raises SignalOverflowError when entries of the result leave the
    floating-point range, naming the offending t.
    """
    a = as_square_matrix(a)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(t * a)
    if not np.all(np.isfinite(result)):
        raise SignalOverflowError(f"matrix exponential overflowed at t = {t}", t=t)
    return result


@dataclass(frozen=True)
class SpectrumPoint:
    """One distinct eigenvalue with multiplicity and Jordan index."""

    z: complex
    m: int  # algebraic multiplicity
    k: int  # size of largest Jordan block minus one

    def __post_init__(self):
        if self.m < 1 or self.k < 0 or self.k + 1 > self.m:
            raise UsageError(f"inconsistent spectrum point m={self.m}, k={self.k}")


@dataclass(frozen=True)
class SpectrumInfo:
    """Distinct eigenvalues plus the dominant subset.

    dominant holds the points maximizing (Re z, k) lexicographically,
    with real parts compared up to the clustering tolerance; r and kmax
    are that maximal pair.
    """

    points: tuple[SpectrumPoint, ...]
    r: float
    kmax: int
    dominant: tuple[SpectrumPoint, ...]
    notes: tuple[str, ...] = field(default=())


def _cluster_eigenvalues(eigs: np.ndarray, thr: float) -> list[tuple[complex, int]]:
    """Greedy single-linkage clustering of computed eigenvalues.

    Returns (cluster mean, multiplicity) pairs sorted by (Re, Im), a mean
    made real when |Im| <= thr.  No conjugate repair is needed: for a real
    matrix, dgeev returns each complex pair as exact conjugates in adjacent
    slots and single linkage commutes with conjugation, so mirror clusters
    sum partners in the same order and their means are exact conjugates.
    Mirror clusters whose means are made real thus get equal means, and
    merge into one point with the summed multiplicity: a double eigenvalue
    that dgeev splits into x +- iy with 2y > thr >= y is one point, not two.
    """
    n = eigs.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= thr:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(complex(eigs[i]))
    clusters: dict[complex, int] = {}
    for g in groups.values():
        z = sum(g) / len(g)
        z = complex(z.real, 0.0) if abs(z.imag) <= thr else z
        clusters[z] = clusters.get(z, 0) + len(g)
    return sorted(clusters.items(), key=lambda pair: (pair[0].real, pair[0].imag))


def _rank(mat: np.ndarray, noise_floor: float) -> int:
    """Singular-value rank with both a relative cut (_RANK_TOL) and an absolute floor.

    The floor matters when a power is mathematically zero but filled
    with roundoff: its own largest singular value is then pure noise
    and a purely relative threshold would report full rank.
    """
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    cut = max(_RANK_TOL * sv[0], noise_floor)
    return int(np.count_nonzero(sv > cut))


def _rank_drop_index(a: np.ndarray, z: complex, scale: float) -> int:
    """Largest k with rank(B^{k+1}) < rank(B^k), i.e. largest block size - 1.

    B is A - zI for real z (callers make near-real z exactly real)
    and the real quadratic factor A^2 - 2 Re(z) A + |z|^2 I otherwise; 0
    when B keeps full rank.  Ranks come from singular values thresholded
    at _RANK_TOL times the largest one, with an absolute noise floor
    scaled to the input.
    """
    d = a.shape[0]
    eye = np.eye(d)
    if z.imag == 0.0:
        base = a - z.real * eye
        input_scale = scale + abs(z)
    else:
        base = a @ a - 2.0 * z.real * a + (abs(z) ** 2) * eye
        input_scale = scale**2 + 2.0 * abs(z.real) * scale + abs(z) ** 2
    eps = float(np.finfo(float).eps)
    eta = 64.0 * d * eps * input_scale  # entrywise noise in forming base
    base_norm = max(float(np.linalg.norm(base, 2)), eta)
    ranks = [d]
    power = eye
    for k in range(1, d + 2):
        power = power @ base
        ranks.append(_rank(power, eta * base_norm ** (k - 1)))
        if ranks[-1] == ranks[-2]:
            break
    return max(len(ranks) - 3, 0)


def spectrum(a: np.ndarray, tol: float = _DEFAULT_TOL.eigen_cluster) -> SpectrumInfo:
    """Distinct eigenvalues with multiplicities, Jordan indices, dominant set.

    Eigenvalues from the spectral layer's one `eigvals` call are clustered
    at relative gap tol * ||A||, exactly closed under conjugation (see
    _cluster_eigenvalues).  A point of multiplicity m > 1 whose
    B = A - zI (or quadratic factor) keeps full rank at the rank cutoff,
    such as the pair 1 +- 1e-10 i of a near-identity rotation, gets
    k = 0: no rank drop means no Jordan block is visible at z.
    """
    a = as_square_matrix(a)
    if tol <= 0:
        raise UsageError("clustering tolerance must be positive")
    scale = max(float(np.linalg.norm(a)), 1e-300)
    thr = tol * scale
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    clusters = _cluster_eigenvalues(eigs, thr)
    notes: list[str] = []
    points = []
    for z, m in clusters:
        k = _rank_drop_index(a, z, scale) if m > 1 else 0
        if m > 1 and z.imag == 0.0 and any(abs(w - z) <= 2 * thr and w.imag != 0 for w, _ in clusters):
            notes.append(f"eigenvalue {z}: real rank branch chosen with |Im| <= {thr:g}")
        points.append(SpectrumPoint(z=z, m=m, k=min(k, m - 1)))
    r = max(p.z.real for p in points)
    top = [p for p in points if p.z.real >= r - thr]
    kmax = max(p.k for p in top)
    dominant = tuple(p for p in top if p.k == kmax)
    return SpectrumInfo(points=tuple(points), r=r, kmax=kmax, dominant=dominant, notes=tuple(notes))


def jordan_index(a: np.ndarray, z: complex) -> int:
    """Largest block size - 1 at z itself, from the rank drops of A - zI (z within
    the default `eigen_cluster` gap of the real axis) or of its quadratic factor.
    Raises DomainError when no `spectrum(a)` point is within 1e-6 * ||A||_F of z."""
    a = as_square_matrix(a)
    z = complex(z)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    if min(abs(p.z - z) for p in spectrum(a).points) > 1e-6 * scale:
        raise DomainError(f"{z} is not an eigenvalue of the matrix")
    z = complex(z.real, 0.0) if abs(z.imag) <= _DEFAULT_TOL.eigen_cluster * scale else z
    return _rank_drop_index(a, z, scale)


def is_hyperbolic(info: SpectrumInfo, tol: float = _DEFAULT_TOL.hyperbolicity) -> bool:
    """The algebraic shortcut on the points of `info` (a `spectrum` result, clustered
    at the caller's gap): True when none is within tol of the imaginary axis, so a
    double 0 that eig splits but the clustering merges counts as on the axis."""
    return is_exp_nonresonant_algebraic([p.z for p in info.points], tol)


def planar_criterion(a: np.ndarray) -> bool:
    """For 2x2 generators: trace*det != 0 or det < 0.

    Evaluated in exact rational arithmetic on the (exactly
    representable) float entries, so the != 0 test is meaningful.
    Equivalent to the spectrum avoiding the imaginary axis.
    """
    a = as_square_matrix(a)
    if a.shape != (2, 2):
        raise UsageError("planar criterion requires a 2x2 matrix")
    e = [[Fraction(float(a[i, j])) for j in range(2)] for i in range(2)]
    trace = e[0][0] + e[1][1]
    det = e[0][0] * e[1][1] - e[0][1] * e[1][0]
    return trace * det != 0 or det < 0


def companion_from_second_order(alpha: float, beta: float) -> np.ndarray:
    """Generator [[0, 1], [-beta, -alpha]] of y'' + alpha y' + beta y = 0."""
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise DomainError("coefficients must be finite")
    return np.array([[0.0, 1.0], [-float(beta), -float(alpha)]])
