"""Exact oracles for the census tests: characteristic polynomial and
discriminant over Fractions, and the full support of a small integer
ensemble."""
import itertools
from fractions import Fraction

import numpy as np

from benflow.errors import UsageError
from benflow.matrixcore import as_square_matrix


def characteristic_polynomial(a: np.ndarray) -> list[Fraction]:
    """Monic characteristic polynomial coefficients, exactly.

    Faddeev-LeVerrier over Fractions; entries must be exactly
    representable (integers or dyadics), which is what the discrete
    ensembles produce.  Returns [1, c1, ..., cd] for z^d + c1 z^{d-1} + ...
    """
    a = as_square_matrix(a)
    d = a.shape[0]
    exact = [[Fraction(float(a[i, j])) for j in range(d)] for i in range(d)]

    def mat_mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(d)) for j in range(d)] for i in range(d)]

    def mat_add_diag(x, c):
        return [[x[i][j] + (c if i == j else 0) for j in range(d)] for i in range(d)]

    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * d for _ in range(d)]
    for k in range(1, d + 1):
        m = mat_mul(exact, mat_add_diag(m, coeffs[-1]))
        trace = sum(m[i][i] for i in range(d))
        coeffs.append(-trace / k)
    return coeffs


def exact_discriminant(a: np.ndarray) -> Fraction:
    """Discriminant of the characteristic polynomial, exact, for d <= 4.

    Zero iff the matrix has a multiple eigenvalue; implemented as the
    resultant of p and p' via a Sylvester determinant over Fractions.
    """
    a = as_square_matrix(a)
    d = a.shape[0]
    if d > 4:
        raise UsageError("exact discriminant offered only for d <= 4")
    if d == 1:
        return Fraction(1)
    p = characteristic_polynomial(a)
    dp = [c * (d - i) for i, c in enumerate(p[:-1])]
    n, m = len(p) - 1, len(dp) - 1
    size = n + m
    syl = [[Fraction(0)] * size for _ in range(size)]
    for i in range(m):
        for j, c in enumerate(p):
            syl[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(dp):
            syl[m + i][i + j] = c
    det = _exact_det(syl)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * det


def _exact_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    rows = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def enumerate_integer_support(d: int, bound: int):
    """All integer matrices with entries in -bound..bound."""
    entries = range(-bound, bound + 1)
    for combo in itertools.product(entries, repeat=d * d):
        yield np.array(combo, dtype=float).reshape(d, d)
