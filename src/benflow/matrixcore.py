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

from .config import Tolerances
from .errors import DomainError, NumericalError, SignalOverflowError, UsageError

_DEFAULT_TOL = Tolerances()
_RANK_TOL = 1e-10  # relative singular-value cutoff of the rank drops behind Jordan indices
# Pade [13/13] coefficients b_0..b_13 of e^x over b_0, so that b_1 A stays finite for a huge nilpotent A
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000,
    10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1,
]) / 64764752532480000
_THETA13 = 5.371920351148152  # the largest eta for which [13/13] meets unit roundoff backward error
_LOG2_C27_OVER_U = math.log2(math.factorial(13) ** 2 / (math.factorial(26) * math.factorial(27))) + 53


def as_square_matrix(obj) -> np.ndarray:
    """Validate and return a finite d x d float matrix, d >= 1."""
    a = np.asarray(obj, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise UsageError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^{tA} by scaling-and-squaring with the [13/13] Pade approximant.

    The algorithm of Higham (SIAM J. Matrix Anal. Appl. 26, 2005) with
    the scaling of Al-Mohy and Higham (SIAM J. Matrix Anal. Appl. 31,
    2009): the number of squarings s comes from the norms of powers of
    tA rather than from ||tA||_1, so a nilpotent generator with huge
    entries is not squared into roundoff.  A 1 x 1 generator gives
    np.exp; a zero matrix gives the exact identity.  Raises
    SignalOverflowError when tA, its 1-norm or entries of the result
    leave the floating-point range, naming the offending t.
    """
    a = as_square_matrix(a)
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        ta = t * a
        norm = _onenorm(ta)
        if ta.shape == (1, 1):
            result = np.exp(ta)
        elif math.isfinite(norm):
            result = _pade13_squared(ta, norm)
        else:
            result = None  # tA or its 1-norm left the floating-point range
    if result is None or not np.all(np.isfinite(result)):
        raise SignalOverflowError(f"matrix exponential overflowed at t = {t}", t=t)
    return result


def _onenorm(m: np.ndarray) -> float:
    """||m||_1, and inf where an entry overflowed (inf or nan)."""
    norm = float(np.abs(m).sum(axis=0).max())
    return math.inf if math.isnan(norm) else norm


def _pade13_squared(a: np.ndarray, norm: float) -> np.ndarray:
    """e^A for a d x d A, d >= 2, with finite 1-norm `norm` (see expm).

    With d_k = ||A^k||_1^(1/k) and eta = min(max(d_6, d_8), max(d_8, d_10))
    (capped at ||A||_1, which bounds every d_k, for powers that overflow),
    s is the least s >= 0 with 2^-s eta <= theta_13, plus the extra
    squarings `_extra_squarings` finds for 2^-s A.  The approximant is
    formed as I + 2 (V - U)^-1 U.  When A is nilpotent, e^A is the finite
    sum `_nilpotent_exp` returns: |A|^27 need not vanish there (A = t [[1, 1],
    [-1, -1]]), so the extra squarings would square rounding errors up, and
    V - U is singular to working precision once ||A|| is large (I - A/2 when
    A^2 = 0, from about 1e8 on).
    """
    a2 = a @ a
    exact = _nilpotent_exp(a, a2)
    if exact is not None:
        return exact
    a4 = a2 @ a2
    a8 = a4 @ a4
    d6, d8, d10 = (_onenorm(p) ** (1.0 / k) for k, p in ((6, a4 @ a2), (8, a8), (10, a8 @ a2)))
    eta = min(max(d6, d8), max(d8, d10), norm)
    s = max(0, math.ceil(math.log2(eta) - math.log2(_THETA13))) if eta > 0.0 else 0
    s += _extra_squarings(np.ldexp(a, -s))
    a = np.ldexp(a, -s)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _PADE13
    eye = np.eye(a.shape[0])
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye
    result = eye + 2.0 * np.linalg.solve(v - u, u)  # = (V - U)^-1 (V + U)
    for _ in range(s):
        result = result @ result
    return result


def _nilpotent_exp(a: np.ndarray, a2: np.ndarray) -> np.ndarray | None:
    """e^A = I + A + ... + A^(k-1) / (k-1)!, rounded once from rationals,
    when A^k = 0 exactly for some k (then k <= d); None otherwise.

    Given a2 = A @ A in floating point, A^d is formed by d - 2 more
    products, and each of its entries lies within (d - 1) d u (|A|^d) of
    the exact one, whatever the summation order (u = 2^-53).  Only when
    every entry is within twice that are the exact powers of the stored
    entries formed, in rationals, up to the first that vanishes.
    """
    d, abs_a = a.shape[0], np.abs(a)
    power, bound = a2, abs_a @ abs_a
    for _ in range(d - 2):
        power, bound = power @ a, bound @ abs_a
    if np.any(np.abs(power) > (d - 1) * d * 2.0**-52 * bound):
        return None
    e = [[Fraction(x) for x in row] for row in a.tolist()]
    term = [[Fraction(int(i == k)) for k in range(d)] for i in range(d)]
    total = term
    for j in range(1, d + 1):
        term = [[sum(row[l] * e[l][k] for l in range(d)) / j for k in range(d)] for row in term]
        if not any(map(any, term)):
            try:
                return np.array(total, dtype=float)
            except OverflowError:  # e^A leaves the float range: expm reports it
                return np.full((d, d), math.inf)
        total = [[x + y for x, y in zip(r, q)] for r, q in zip(total, term)]
    return None


def _extra_squarings(a: np.ndarray) -> int:
    """Al-Mohy and Higham's l(A, 13) = max(0, ceil(log2(alpha / u) / 26)) with
    alpha = |c_27| || |A|^27 ||_1 / ||A||_1 and |c_27| = (13!)^2 / (26! 27!).

    |A|^27 is formed by binary powering from |A| scaled by 2^-e to a
    1-norm in [1/2, 1), so no power overflows; the 2^(26 e) goes into
    the logarithm.
    """
    norm = _onenorm(a)
    if norm == 0.0:
        return 0
    e = math.frexp(norm)[1]
    q = np.ldexp(np.abs(a), -e)
    q2 = q @ q
    q4 = q2 @ q2
    q8 = q4 @ q4
    power = _onenorm((q8 @ q8) @ q8 @ q2 @ q)  # 27 = 16 + 8 + 2 + 1
    if power == 0.0:
        return 0
    log2_alpha_over_u = _LOG2_C27_OVER_U + 26 * e + math.log2(power / math.ldexp(norm, -e))
    return max(0, math.ceil(log2_alpha_over_u / 26))


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
    from .resonance import is_exp_nonresonant_algebraic  # deferred: the sampler loads this module, never resonance

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
