"""Base-b significand arithmetic and the logarithmic first-digit law.

The significand of x in base b is the unique S in [1, b) with
|x| = S * b^k for an integer k; S(0) is 0 by convention.  The target
law assigns probability log_b(s) to the event S <= s, which for first
digits specializes to P(digit = d) = log_b(1 + 1/d).

The scalar `significand` is computed by exact integer exponent search
followed by one correctly-rounded rational division, never by a
log/pow round trip: that keeps significand(x * b^k) == significand(x)
whenever the scaled input is exactly representable.

Sample statistics never form significands: S <= s exactly when the
fractional part u of log_b|x| is at most log_b s, so the KS distance
(`uniform_distance`), the digit counts (`digit_counts`) and the Weyl
sums (`udmod1.WeylReport.from_sorted`, from power sums over cells of
u) are all read off one sorted array of u.  Verdicts fill u slice by
slice, from log samples (`fractions_into`) or raw values
(`log_fractions_unsorted`), and sort it once; `log_fractions` does both
for raw values.  Every loop over a grid-long array takes SLICE samples
at a time (the KS distance SLICE / 2, as it runs beside the Weyl sums).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, UsageError


def validate_base(b: int) -> int:
    """Check that b is an integer base >= 2 and return it."""
    if not isinstance(b, (int, np.integer)) or isinstance(b, bool):
        raise UsageError(f"base must be an integer, got {b!r}")
    if b < 2:
        raise UsageError(f"base must be >= 2, got {b}")
    return int(b)


def significand(x: float, b: int = 10) -> float:
    """Return S_b(x): the significand of x in base b, with S_b(0) = 0.

    Correctly rounded.  Raises DomainError for non-finite x.  The exponent
    k = floor(log_b |x|) is guessed from floats, then fixed by comparing
    the exact rationals |x| and b^k; S = |x| / b^k is one exact division,
    rounded once.
    """
    b = validate_base(b)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"significand requires finite x, got {x}")
    if x == 0.0:
        return 0.0
    a = Fraction(abs(x))
    k = math.floor(math.log2(abs(x)) / math.log2(b))
    while a >= Fraction(b) ** (k + 1):
        k += 1
    while a < Fraction(b) ** k:
        k -= 1
    s = float(a / Fraction(b) ** k)
    if s >= b:  # true value is below b but rounded up to it
        s = math.nextafter(float(b), 1.0)
    return s


def digit_law_pmf(b: int = 10) -> np.ndarray:
    """Probabilities of first digits 1..b-1 under the logarithmic law."""
    b = validate_base(b)
    digits = np.arange(1, b)
    return np.log1p(1.0 / digits) / math.log(b)


_BELOW_ONE = math.nextafter(1.0, 0.0)
# Samples per pass of every loop over a grid-long array (the samplers'
# `SamplingGrid.passes()`, exclusion, KS, Weyl cell groups): 256 kB of
# float64.  The memory rule it sets: a verdict holds one grid-long array,
# and no pass temporary holds more than SLICE doubles, norms included (a
# d x d norm's GEMM and norm run over groups of whole blocks holding at
# most SLICE entry sums, one block at a time from d = 6, where a block
# alone holds more).  The sampler's block lengths `flowsignal._TABLE`
# and `flowsignal._POWERS` divide it, so every pass but the last is whole
# blocks.  Slice temporaries this small are reused by malloc from pass to
# pass, where grid-long ones had their pages faulted in afresh on every
# verdict.  Measured with getrusage on the statistics of a 1e6-sample
# verdict (2-core Xeon, one BLAS thread): 0 minor faults per verdict for
# 2^12..2^17, then 4.8k at 2^18, 8.1k at 2^19 and 10.3k at 2^20; time is
# least at 2^14..2^15.  A verdict that runs two halves at once (see
# `flowsignal`) holds both halves' temporaries, which together stay
# within one serial pass's budget: the KS distance beside the Weyl sums
# takes SLICE / 2 samples at a time.
SLICE = 1 << 15


def fractions_into(logb: np.ndarray, out: np.ndarray, floors: np.ndarray | None = None) -> np.ndarray:
    """Write the fractional parts u in [0, 1) of log_b values into `out`
    (an array of the same shape), unsorted, and return it.

    The floors of the logs go into `floors` (default `out`): `out` may be
    `logb` itself, or overlap it, only when a separate `floors` array of
    the same shape is given.  For a tiny negative log, l - floor(l)
    rounds to exactly 1.0; u is clipped to the largest float below 1,
    which puts it in digit b - 1.
    """
    floors = out if floors is None else floors
    np.floor(logb, out=floors)
    np.subtract(logb, floors, out=out)
    np.minimum(out, _BELOW_ONE, out=out)
    return out


def _power_or_inf(b: int, j: int) -> float:
    try:
        return float(b**j)  # correctly rounded, exact while b^j < 2^53
    except OverflowError:
        return math.inf


def log_fractions(values: np.ndarray, b: int) -> np.ndarray:
    """Sorted fractional parts of log_b|x| over the nonzero entries of `values`
    (see `log_fractions_unsorted`)."""
    u = log_fractions_unsorted(values, b)
    u.sort()
    return u


def log_fractions_unsorted(values: np.ndarray, b: int) -> np.ndarray:
    """Fractional parts u in [0, 1) of log_b|x| over the nonzero entries
    of `values`, in their order.

    |x| = S b^k is scaled to S with one rounding (exact while
    b^|k| < 2^53), then u = log(S) / ln b, which is bit-equal to the
    edge in `digit_counts` when S = d.  The few entries where b^(|k|+1)
    overflows (subnormal |x|, or |x| near the float maximum) take S
    from the exact scalar `significand` instead.
    """
    a = np.abs(np.asarray(values, dtype=float))
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError("samples must be finite")
    a = a[a > 0.0]
    lnb = math.log(b)
    logb = np.log(a) / lnb
    k = np.floor(logb).astype(np.int64)
    powers = np.array([_power_or_inf(b, j) for j in range(int(np.abs(k).max(initial=0)) + 2)])

    def scaled(k: np.ndarray) -> np.ndarray:
        return np.where(k >= 0, a / powers[np.maximum(k, 0)], a * powers[np.maximum(-k, 0)])

    huge = powers[np.abs(k) + 1] == np.inf  # b^|k| may overflow once k is corrected
    s = scaled(k)
    k += (s >= b).astype(np.int64) - (s < 1.0)  # the log guess is off by at most one
    s = scaled(k)
    s[huge] = [significand(x, b) for x in a[huge]]
    u = np.log(s) / lnb
    u[(u < 0.0) | (u >= 1.0)] = _BELOW_ONE  # |x| / b^k was just below b and rounded to b
    return u


def uniform_distance(u: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of sorted fractions u from the uniform law.

    S <= s exactly when u <= log_b s, so this is also the sup-distance
    of the significand ECDF from log_b.  Both one-sided gaps at every
    jump are checked, SLICE / 2 samples at a time, in two buffers reused
    from slice to slice: the integer ranks lo..lo + m of a slice of m
    samples (exact as doubles, so each rank / n is one rounding, as in a
    whole-array `arange(n + 1) / n`) and the one-sided gaps.  Verdicts
    run it beside the Weyl sums, so it holds half a pass: SLICE + 1
    doubles in all.
    """
    n = u.size
    if n == 0:
        raise UsageError("need at least one sample")
    width = min(n, SLICE // 2)
    ranks, gaps = np.arange(width + 1.0), np.empty(width)
    gap = 0.0  # the gap at the last jump, 1 - u[-1], is positive
    for lo in range(0, n, width):
        part = u[lo : lo + width]
        m = part.size
        above = np.divide(ranks[1 : m + 1], n, out=gaps[:m])
        above -= part
        gap = max(gap, above.max())
        below = np.divide(ranks[:m], n, out=gaps[:m])
        np.subtract(part, below, out=below)
        gap = max(gap, below.max())
        ranks += width
    return float(gap)


def digit_counts(u: np.ndarray, b: int) -> dict[int, int]:
    """First-digit counts of sorted fractions u in [0, 1): digit d holds
    log_b d <= u < log_b(d + 1).  Digits that never occur are left out."""
    edges = np.searchsorted(u, np.log(np.arange(2, b, dtype=float)) / math.log(b))
    counts = np.diff(np.concatenate(([0], edges, [u.size])))
    return {d: int(c) for d, c in enumerate(counts, start=1) if c}


@dataclass(frozen=True)
class DigitHistogram:
    """First-digit counts of a sample, with exact zeros tallied apart."""

    base: int
    counts: Mapping[int, int]
    zeros: int
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) + self.zeros != self.total:
            raise UsageError("histogram counts + zeros must equal total")

    def frequencies(self) -> np.ndarray:
        """Observed frequencies of digits 1..b-1 among nonzero samples."""
        nonzero = self.total - self.zeros
        freqs = np.zeros(self.base - 1)
        if nonzero == 0:
            return freqs
        for digit, count in self.counts.items():
            freqs[digit - 1] = count / nonzero
        return freqs


def digit_frequencies(samples: Iterable[float], b: int = 10) -> DigitHistogram:
    """Histogram of first digits of the samples in base b."""
    b = validate_base(b)
    arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples, dtype=float)
    u = log_fractions(arr, b)
    zeros = int(np.count_nonzero(arr == 0.0))
    return DigitHistogram(base=b, counts=digit_counts(u, b), zeros=zeros, total=int(arr.size))
