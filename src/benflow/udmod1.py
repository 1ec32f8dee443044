"""Uniform distribution modulo one: Weyl sums and torus-map pushforwards.

A sequence or sampled function is uniformly distributed mod 1 exactly
when all its nonzero-frequency exponential-sum averages vanish in the
limit; the reports here estimate those averages at frequencies 1..K
and compare against a CLT-scale noise floor.

`sorted_weyl_sums` forms no per-sample exponential.  It takes the
sorted fractional parts u of the samples (verdicts hand over theirs
through `WeylReport.from_sorted`) and splits [0, 1) into M = 4096
cells; as M is a power of two, each in-cell part delta = u M -
floor(u M) in [0, 1) is exact.  One `searchsorted` finds the cell
starts.  The cells are then taken in groups of whole cells holding
about SLICE samples each (a cell with more is a group of its own), and
within a group one `np.add.reduceat` per power over that group's delta
gives the cell sums S_j(m) = sum delta^j, j = 0..J.  No cell is split
across groups, so each sum adds the same samples in the same order as
one reduceat over all of u would; only the temporaries shrink to cache
size.  Then
    W_k = sum_m e^{2 pi i k m / M} sum_j (2 pi i k / M)^j / j! S_j(m),
one DFT of each S_j.  The Taylor remainder per sample is at most
(2 pi K / M)^(J+1) / (J+1)!, and J is the least order that keeps it
<= 1e-17: J = 6 for K = 5 (3e-19).  For K > 512, M doubles while
8K > M, so 2 pi K / M <= pi / 4 and J <= 17 for every K.

The module also implements the skew torus maps
    x -> <p . x + alpha * ln|u_1 cos(2 pi x_1) + ... + u_d cos(2 pi x_d)|>
whose non-uniform pushforwards are the mechanism behind failing
verdicts, with Fourier coefficients of the pushforward estimated by
midpoint-rule quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import DomainError, UsageError
from .significand import SLICE

# below this, a cosine sum is treated as an exact zero (ln 0 := 0 convention)
_LN_ZERO_GUARD = 1e-300
_CELLS = 4096  # cells of [0, 1) in the Weyl-sum kernel (a power of two)
_TAYLOR_TAIL = 1e-17  # largest Taylor remainder per sample in the kernel
MIN_SAMPLES = 100  # fewest samples a grid or a verdict's input may hold


def _cos_2pi(x: np.ndarray) -> np.ndarray:
    """cos(2 pi x) with exact zeros at quarter turns.

    Reduces 2x modulo 2 first (exact in floating point), so inputs like
    x = 1/4 hit the ln 0 := 0 convention instead of a stray 1e-17.
    """
    r = np.mod(2.0 * np.asarray(x, dtype=float), 2.0)
    out = np.cos(np.pi * r)
    out[(r == 0.5) | (r == 1.5)] = 0.0
    return out


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform time grid on (0, T]: t_i = i*step, i = 1..n, n = floor(T / step).

    T / step must be finite.
    """

    T: float
    step: float

    def __post_init__(self):
        if not (self.T > 0 and self.step > 0):
            raise UsageError("need T > 0, step > 0")
        if self.step >= self.T:
            raise UsageError("step must be smaller than the horizon")
        if not math.isfinite(self.T / self.step):
            raise UsageError(f"horizon / step must be finite, got {self.T} / {self.step}")
        if self.count < MIN_SAMPLES:
            raise UsageError(f"grid yields only {self.count} samples; need >= {MIN_SAMPLES}")

    @property
    def count(self) -> int:
        return int(math.floor(self.T / self.step))

    def empty(self) -> np.ndarray:
        """An uninitialised float array with one entry per grid time; a
        grid too large for memory is a usage error."""
        try:
            return np.empty(self.count)
        except MemoryError:
            raise UsageError(f"a grid of {self.count} samples does not fit in memory") from None

    def passes(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, t) for consecutive passes over samples start..stop - 1 of
        the grid (default: all of it): t holds the grid times
        t_{lo+1}..t_hi of at most SLICE samples, hi <= stop.  Each t is
        one float array, the indices (exact below 2^53) scaled by step in
        place."""
        stop = self.count if stop is None else min(stop, self.count)
        for lo in range(start, stop, SLICE):
            t = np.arange(lo + 1.0, min(lo + SLICE, stop) + 1.0)
            t *= self.step
            yield lo, t

    def times(self) -> np.ndarray:
        times = self.empty()  # first: the usage error comes before any allocation
        for lo, t in self.passes():
            times[lo : lo + t.size] = t
        return times


@dataclass(frozen=True)
class WeylReport:
    """Magnitudes of averaged exponentials at frequencies 1..K.

    `noise_floor(multiplier)` is the CLT-scale floor multiplier/sqrt(N);
    verdicts pass it `VerdictThresholds.weyl_multiplier`.
    """

    magnitudes: Mapping[int, float]
    K: int
    count: int

    def __post_init__(self):
        for k, m in self.magnitudes.items():
            if not (0.0 <= m <= 1.0 + 1e-12):
                raise UsageError(f"weyl magnitude at k={k} outside [0,1]: {m}")

    @classmethod
    def from_sorted(cls, u: np.ndarray, K: int) -> "WeylReport":
        """Report on sorted fractions u in [0, 1), which are not sorted again."""
        mags = {k: min(float(abs(w)), 1.0) for k, w in enumerate(sorted_weyl_sums(u, K), start=1)}
        return cls(magnitudes=mags, K=K, count=int(u.size))

    @property
    def max_magnitude(self) -> float:
        return max(self.magnitudes.values())

    def noise_floor(self, multiplier: float) -> float:
        return multiplier / math.sqrt(self.count)


def _kernel_shape(K: int) -> tuple[int, int]:
    """Cells M and Taylor order J for Weyl frequencies 1..K.

    M = 4096, doubled while 8K > M, so 2 pi K / M <= pi / 4; J is the
    least order whose remainder (2 pi K / M)^(J+1) / (J+1)! is at most
    _TAYLOR_TAIL (J = 6 for K = 5, 17 for K = 512).
    """
    M = _CELLS
    while 8 * K > M:
        M *= 2
    x = 2.0 * math.pi * K / M
    J, remainder = 0, x
    while remainder > _TAYLOR_TAIL:
        J += 1
        remainder *= x / (J + 1)
    return M, J


def sorted_weyl_sums(u: np.ndarray, K: int) -> np.ndarray:
    """Averages (1/n) sum_n e^{2 pi i k u_n} for k = 1..K over sorted
    fractions u in [0, 1), from the cell power sums S_j(m) of the
    in-cell parts delta, with u = (m + delta) / M (see the module docstring)."""
    M, J = _kernel_shape(K)
    n = u.size
    bounds = np.append(np.searchsorted(u, np.arange(M) / M), n)  # cell m holds u[bounds[m]:bounds[m + 1]]
    counts = np.diff(bounds)
    sums = np.zeros((J + 1, M))
    sums[0] = counts
    first = 0
    while first < M:
        # the next group of whole cells holding at most SLICE samples (one cell when it holds more)
        last = max(first + 1, int(np.searchsorted(bounds, bounds[first] + SLICE, side="right")) - 1)
        lo, hi = bounds[first], bounds[last]
        filled = first + np.flatnonzero(counts[first:last])  # an empty segment would break reduceat
        if filled.size:
            delta = u[lo:hi] * M
            power = np.floor(delta)  # the floors, then the powers of delta, in one buffer
            delta -= power
            power[:] = delta
            for j in range(1, J + 1):
                sums[j, filled] = np.add.reduceat(power, bounds[filled] - lo)
                if j < J:
                    power *= delta
        first = last
    spectra = np.fft.rfft(sums, axis=1)[:, 1 : K + 1].conj()  # sum_m e^{+2 pi i k m / M} S_j(m)
    z = 2j * np.pi * np.arange(1, K + 1) / M
    term = np.ones(K, dtype=complex)
    total = spectra[0].copy()
    for j in range(1, J + 1):
        term *= z / j
        total += term * spectra[j]
    return total / n


@dataclass(frozen=True)
class TorusMapSpec:
    """Skew product x -> <p . x + alpha ln|sum_j u_j cos(2 pi x_j)|>."""

    p: tuple[int, ...]
    alpha: float
    u: tuple[float, ...]

    def __post_init__(self):
        if len(self.p) != len(self.u):
            raise UsageError("p and u must have equal length")
        if not self.u or all(w == 0.0 for w in self.u):
            raise UsageError("weight vector u must be nonzero")
        if self.alpha == 0.0:
            raise UsageError("alpha must be nonzero")

    @property
    def d(self) -> int:
        return len(self.p)


def torus_map_apply(spec: TorusMapSpec, x: np.ndarray) -> np.ndarray:
    """Apply the map at n points of the d-torus, given as an (n, d) array.

    Returns the n images.  Any other shape raises UsageError.  Cosine
    sums indistinguishable from zero fall back to the ln 0 := 0
    convention; no point is excluded.  Non-finite points raise
    DomainError.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != spec.d:
        raise UsageError(f"points must be an (n, {spec.d}) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("torus points must be finite")
    linear = pts @ np.asarray(spec.p, dtype=float)
    cos_sum = _cos_2pi(pts) @ np.asarray(spec.u, dtype=float)
    mag = np.abs(cos_sum)
    near_zero = mag < _LN_ZERO_GUARD
    log_term = np.where(near_zero, 0.0, np.log(np.where(near_zero, 1.0, mag)))
    return np.mod(linear + spec.alpha * log_term, 1.0)


TorusMap = TorusMapSpec | Callable[[np.ndarray], np.ndarray]


def pushforward_fourier(spec: TorusMap, k: int, grid_n: int = 1000) -> complex:
    """Fourier coefficient of the pushforward of Haar measure under the map.

    Midpoint-rule quadrature with grid_n points per axis; the k = 0
    coefficient is exactly 1 (total mass).  Besides TorusMapSpec, a
    vectorized callable on [0,1) is accepted as a one-dimensional map.
    Dimensions above 3 are rejected: tensor grids do not scale, use
    Monte Carlo instead.  Non-finite map values raise DomainError.
    """
    if k == 0:
        return complex(1.0)
    if grid_n < 10:
        raise UsageError("grid_n is too small for quadrature")
    if isinstance(spec, TorusMapSpec):
        d = spec.d
        if d > 3:
            raise UsageError("grid quadrature supports d <= 3; use Monte Carlo sampling")
        if grid_n**d > 5e7:
            raise UsageError("tensor grid too large; reduce grid_n or use Monte Carlo")
        axes = [(np.arange(n := grid_n) + 0.5) / n for _ in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        values = torus_map_apply(spec, mesh)
    else:
        values = np.asarray(spec((np.arange(grid_n) + 0.5) / grid_n), dtype=float)
    if not np.all(np.isfinite(values)):
        raise DomainError("map values must be finite")
    return complex(np.exp(2j * np.pi * k * values).mean())
