"""Signals from linear flows and their Benford verdicts.

A signal is one of: a linear observable applied to e^{tA}, a matrix
norm of e^{tA}, or a synthetic mode sum e^{rt} t^k sum_j u_j cos(w_j t).
Verdicts sample log_b|f| over a uniform grid (never |f| itself, which
overflows long before interesting horizons), exclude near-zero
samples, and judge the fractional parts u of the kept logs, sorted
once: their KS distance from uniform (the significand sup-distance),
their digit counts and their Weyl magnitudes, which come from power
sums of the in-cell parts of u within 4096 cells (`udmod1.sorted_weyl_sums`),
not from one complex exponential per sample.

The memory rule: a verdict holds one grid-long array, its log samples
(u overwrites their front, and the report keeps no sample), and no
temporary of any pass, sampler or statistics, norms included, holds
more than `significand.SLICE` doubles (but for the one block at a time
of a d >= 6 norm, whose d*d entry rows alone hold more).  The
exclusion, the fractions, the KS distance and the Weyl power sums (over
groups of whole cells) run over slices of SLICE samples, and the
samplers over passes of SLICE grid times, a norm's entry sums over
groups of whole blocks within a pass; those temporaries stay in cache
and reuse the same pages.  A report costs O(b + K) numbers whatever
the grid.

Every verdict runs three stages in two halves: an observable's or a
synthetic's sampler passes (the first floor(passes / 2) inline), the
sort (a partition at the middle, then each side), and the statistics
(the Weyl sums inline, the KS distance beside them).  `_in_parallel`
alone decides whether the second half runs at once on one short-lived
helper thread: for at least 2 SLICE samples, where the process may use
a second CPU and can start a thread.  The halves are fixed by the
input, so the output is the same bits with or without the helper.  The memory rule holds for
both halves together: they stay within one serial pass's budget, as
each sampler half holds only its grid times and one pass-long buffer
(`_log_tail` scales the times in place) and the KS distance holds half
a pass.  Norms and stepping stay serial.  Exclusion
compares each sample with the running max of |f|, carried from slice to
slice, but bounds it block by block: a block whose min lies above the
running max of the block maxima at its end plus the cutoff is kept
whole, since that bound is at least the running max at every sample of
the block and rounding is monotone.  Only the other blocks are compared
sample by sample, so the kept samples and the verdicts are unchanged.
Every verdict setting (base, grid, thresholds, number
of Weyl frequencies) comes from one RunConfig; the entry points take it
as the keyword `config`.

Sampling works with the shifted flow: with r the spectral abscissa,
e^{tA} e^{-rt} = e^{t(A - rI)} stays bounded, so log|f| = r t +
log|shifted signal| is computed without overflow.  Every sampler, the
synthetic one included, is one loop over `SamplingGrid.passes()` (the
grid times of SLICE samples at a time), writing |shifted signal| into
its part of the output and turning it into log_b|f| there
(`_log_tail`): no other grid-long array.  A synthetic's shifted signal
is its mode sum, and k log_b t is added after `_log_tail`.  The first
time from which |r t / ln b| leaves no log sample a fractional bit
follows from r, the grid and b alone (`_fraction_count`): every sampler
stops its passes there before sampling, and reports that time as
truncated.

For a diagonalizable generator the shifted flow is a sum of mode
factors e^{(lambda - r)t}, one per conjugate pair or real eigenvalue,
so every signal is read off mode sums Re sum_j w_j e^{(lambda_j - r)t}
of complex weight rows w: entry (i, k) of the shifted flow is the mode
sum of projector weight row i*d + k, and an observable c is the one
row c.ravel() @ weights.  Grid times come in blocks t_0 + j*step, so a
block's factors are its start row e^{(lambda - r)t_0} times one shared
table of e^{(lambda - r) j step}: the weight rows are folded into the
start rows, and the samples of all rows over a group of whole blocks
(at most SLICE sums, a whole pass for an observable) are one real GEMM
against the table, with no per-sample exp and no factor array.  An observable
takes its one row of sums; a norm reads the d*d entry rows and takes
their sum of squares (Frobenius), the entrywise max, a closed form
(spectral, d = 2 and 3) or an SVD (spectral, d >= 4).

Defective generators (eigenvector condition number from _EIG_COND_LIMIT
on) fall back to blocked powers of S = e^{(A - rI) step}: S^1..S^m are
formed once, and each group of whole blocks (at most SLICE entries) is
one GEMM of its stacked block bases against them, truncated at the
first non-finite propagator.
"""
from __future__ import annotations

import bisect
import math
import os
import threading
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig, Tolerances, VerdictThresholds
from .errors import DomainError, SignalOverflowError, UnsupportedStructureError, UsageError
from .matrixcore import as_square_matrix, expm, spectrum
from .significand import (
    SLICE,
    DigitHistogram,
    digit_counts,
    fractions_into,
    log_fractions_unsorted,
    uniform_distance,
    validate_base,
)
from .udmod1 import MIN_SAMPLES, SamplingGrid, WeylReport

_EIG_COND_LIMIT = 1e8
# Each of _TABLE and _POWERS must divide SLICE: eigen-path blocks then
# start at 1 + _TABLE*i on the whole grid, and every pass but the last is
# whole blocks, so the stepping path carries its block base across passes.
_TABLE = 1024  # rows of the shared mode-factor table (eigen path block length)
_POWERS = 256  # propagator powers S^1..S^m kept by the stepping fallback
# Exclusion block length (divides SLICE; see `_verdict_from_logb`).  A
# block is kept whole only when the signal moves by less than
# -ln(zero_rel) (30 at the default 1e-13) over it, so a steady rate r
# proves blocks while r * _BLOCK * step < 30: up to r = 11.7 at step 1e-2
# and 1.17 at step 0.1.  Measured on the pass over 1e6 samples (2-core
# Xeon, one BLAS thread, alternating calls against the per-sample pass):
# `verdicts` observables 10.5-12.1 ms -> 2.6-3.4 ms at 256 (512 and 1024:
# 0.2 ms less, the block extrema cost less); synthetic r = 5 14.1 -> 4.0
# ms at 256, 8.2 at 512, no block at 1024; r = 1 at step 0.1 -50% at
# 256, no block at 512.  Where no block is proven (r = -1, a decaying
# spiral, r = 12) the pass is 3-6% slower at every length.
_BLOCK = 256
_TRIVIAL_REL = 1e-12  # triviality_check's cutoff, relative to the largest power norm
_NO_FRACTION = 2.0**52 + 2.0**11  # |r t / ln b| from which no log sample keeps a fractional bit

VERDICT_PASS = "BENFORD_PASS"
VERDICT_FAIL = "FAIL"
VERDICT_TRIVIAL = "TRIVIAL"


@dataclass(frozen=True)
class Observable:
    """Linear functional on matrices: H(A) = sum_{jk} c_jk A_jk."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", as_square_matrix(self.c))

    def __call__(self, a: np.ndarray) -> float:
        return float(np.sum(self.c * a))

    @classmethod
    def entry(cls, i: int, j: int, d: int) -> "Observable":
        c = np.zeros((d, d))
        c[i, j] = 1.0
        return cls(c)


@dataclass(frozen=True)
class ObservableOnFlow:
    generator: np.ndarray
    observable: Observable

    def __post_init__(self):
        a = as_square_matrix(self.generator)
        object.__setattr__(self, "generator", a)
        if self.observable.c.shape != a.shape:
            raise UsageError("observable and generator dimensions differ")


_NORMS = ("spectral", "frobenius", "max")


@dataclass(frozen=True)
class NormOnFlow:
    generator: np.ndarray
    norm: str = "spectral"

    def __post_init__(self):
        object.__setattr__(self, "generator", as_square_matrix(self.generator))
        if self.norm not in _NORMS:
            raise UsageError(f"norm must be one of {_NORMS}, got {self.norm!r}")


@dataclass(frozen=True)
class Synthetic:
    """Closed-form mode sum e^{rt} t^k sum_j weight_j cos(omega_j t).

    r and every frequency and weight must be finite.
    """

    r: float
    k: int
    modes: tuple[tuple[float, float], ...]  # (omega, weight)

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.r, *(x for mode in self.modes for x in mode))):
            raise UsageError("r and every mode frequency and weight must be finite")
        if self.k < 0:
            raise UsageError("polynomial order k must be >= 0")
        omegas = [w for w, _ in self.modes]
        if len(set(omegas)) != len(omegas):
            raise UsageError("mode frequencies must be distinct")
        if any(w < 0 for w in omegas):
            raise UsageError("mode frequencies must be >= 0")
        if not any(u != 0.0 for _, u in self.modes):
            raise UsageError("at least one mode weight must be nonzero")


SignalSpec = ObservableOnFlow | NormOnFlow | Synthetic


# ---------------------------------------------------------------------------
# direct evaluation


def eval_signal(spec: SignalSpec, t: float) -> float:
    """Evaluate the signal at one time point (direct, overflow-checked).

    A value outside the floating-point range raises SignalOverflowError
    naming t, for every kind of signal.  A norm is taken by the kernels
    verdicts sample with (`_batched_norm`).
    """
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t}")
    if isinstance(spec, Synthetic):
        acc = math.fsum(u * math.cos(w * t) for w, u in spec.modes)
        try:
            value = math.exp(spec.r * t) * t**spec.k * acc
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise SignalOverflowError(f"synthetic signal overflowed at t = {t}", t=t)
        return value
    if isinstance(spec, ObservableOnFlow):
        return spec.observable(expm(spec.generator, t))
    return float(_batched_norm(expm(spec.generator, t).reshape(-1, 1), spec.norm)[0])


# ---------------------------------------------------------------------------
# triviality and observable construction


def triviality_check(a: np.ndarray, obs: Observable) -> bool:
    """True iff the signal H(e^{tA}) vanishes identically.

    By Cayley-Hamilton this reduces to H(A^j) = 0 for j = 0..d-1,
    checked against _TRIVIAL_REL times the largest power norm.
    """
    a = as_square_matrix(a)
    d = a.shape[0]
    power = np.eye(d)
    values, scales = [], []
    for _ in range(d):
        values.append(abs(obs(power)))
        scales.append(float(np.linalg.norm(power)))
        power = power @ a
    scale = max(scales)
    return all(v <= _TRIVIAL_REL * scale for v in values)


def build_observable_for_modes(a: np.ndarray, modes: Sequence[complex], weights: Sequence[float]) -> Observable:
    """An observable whose signal is sum_z u_z e^{t Re z} cos(t Im z).

    Each requested mode must be a simple eigenvalue (multiplicity one,
    no Jordan block), given as the Im >= 0 representative of its
    conjugate pair.  Built from the real and imaginary eigenvector
    parts; defective or clustered modes are rejected.  Modes are matched
    and judged real at the `Tolerances().eigen_cluster` gap that
    `spectrum` clusters with.
    """
    a = as_square_matrix(a)
    if len(modes) != len(weights):
        raise UsageError("need one weight per mode")
    if not modes:
        raise UsageError("need at least one mode")
    tol = Tolerances().eigen_cluster
    info = spectrum(a, tol)
    eigvals, eigvecs = np.linalg.eig(a)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    c = np.zeros_like(a)
    for mode, u in zip(modes, weights):
        mode = complex(mode)
        if mode.imag < 0:
            raise UsageError("modes must be the Im >= 0 representative of each pair")
        matches = [p for p in info.points if abs(p.z - mode) <= 10 * tol * scale]
        if not matches:
            raise DomainError(f"{mode} is not an eigenvalue of the generator")
        point = min(matches, key=lambda p: abs(p.z - mode))
        if point.m != 1 or point.k != 0:
            raise UnsupportedStructureError(
                f"mode {mode} is defective or clustered (m={point.m}, k={point.k})"
            )
        idx = int(np.argmin(np.abs(eigvals - point.z)))
        w = eigvecs[:, idx]
        if abs(point.z.imag) <= tol * scale:
            # real simple mode: rotate the (possibly complex-scaled) vector real
            pivot = w[int(np.argmax(np.abs(w)))]
            v = (w / pivot).real
            v_tilde = v
        else:
            # A w = z w with w = v + i v~ gives the planar rotation pair
            v = w.real
            v_tilde = w.imag
        rows = np.vstack([v, v_tilde])
        rhs = np.array([u / 2.0, u / 2.0])
        g, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        c = c + np.outer(g, v + v_tilde)
    return Observable(c)


# ---------------------------------------------------------------------------
# two halves of a verdict at once


def _cpus() -> int:
    """How many CPUs this process may run on.  On one CPU a helper only
    contends with the caller: pinned to one core of a 2-core Xeon,
    flowbench `verdicts` read 4.34 ops/s with the helper against 4.50
    with both halves inline (six alternating 50 s pairs)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _in_parallel(first: Callable, second: Callable, samples: int) -> tuple:
    """(first(), second()): `second` runs on one short-lived helper thread
    under the caller's numpy error state (`np.geterr`, `np.geterrcall`),
    while `first` runs inline.  The helper is joined before this returns
    or raises; an exception from `first` wins over one from `second`,
    which is raised otherwise.  Work on fewer than 2 SLICE samples, a
    process that may use only one CPU, and one that cannot start a thread
    run both inline, in order.

    Verdicts split only long numpy calls this way (half a grid's passes,
    half a sort, the KS distance beside the Weyl sums), which release the
    GIL for long enough to overlap; `samples` is how many samples the two
    halves cover together.  The halves are fixed by the input, never by
    the thread count, so the result is the same either way.
    """
    if samples < 2 * SLICE or _cpus() < 2:
        return first(), second()
    box: dict = {}
    state = dict(np.geterr(), call=np.geterrcall())

    def run() -> None:
        try:
            with np.errstate(**state):  # a new thread starts at numpy's defaults
                box["value"] = second()
        except BaseException as exc:
            box["error"] = exc

    helper = threading.Thread(target=run, daemon=True)
    try:
        helper.start()
    except RuntimeError:  # no thread to be had (a process or thread limit)
        return first(), second()
    try:
        value = first()
    finally:
        helper.join()
    if "error" in box:
        raise box["error"]
    return value, box["value"]


# ---------------------------------------------------------------------------
# log-domain sampling


@dataclass(frozen=True)
class _LogSample:
    """log_b|f| over the grid; -inf marks exact zeros."""

    values: np.ndarray
    truncated_at: float | None = None


class _FlowModes:
    """Eigendecomposition of a generator, in the form sampling reads.

    Only the Im >= 0 representative of each conjugate pair is kept
    (`mu` = lambda - r).  For a diagonalizable generator, `weights` is
    the C-contiguous complex (d*d, m) array of entry weights: entry
    (i, k) of e^{(A - rI)t} is Re sum_j weights[i*d + k, j] e^{mu_j t},
    the rank-one projectors v_j u_j^T (u_j^T the rows of V^-1), doubled
    for pairs.
    """

    def __init__(self, a: np.ndarray):
        lam, vecs = np.linalg.eig(a)
        self.r = float(lam.real.max())
        try:
            vinv = np.linalg.inv(vecs)
            cond = float(np.linalg.cond(vecs))
        except np.linalg.LinAlgError:
            cond = math.inf
        self.diagonalizable = cond < _EIG_COND_LIMIT
        keep = lam.imag >= 0
        self.mu = (lam[keep] - self.r).astype(complex)
        self.weights = None
        if self.diagonalizable:
            doubled = vinv[keep] * np.where(self.mu.imag > 0, 2.0, 1.0)[:, None]
            self.weights = np.ascontiguousarray((vecs[:, keep][:, None, :] * doubled.T).reshape(a.size, -1))


def _eigen_logb(modes: _FlowModes, weights: np.ndarray, grid: SamplingGrid, b: int, functional) -> _LogSample:
    """Sample a functional of the mode sums Re sum_j w_j e^{mu_j t}, one
    per row w of the C-contiguous complex (rows, m) `weights`.

    Grid times come in blocks of _TABLE consecutive points t_0 + j*step,
    so each factor is e^{mu t_0} (one start row per block) times the
    shared table row e^{mu j step}.  Each row's weights are folded into
    the start rows, and the sums of all rows over a group of whole blocks
    are one real GEMM against the table.  A group holds at most SLICE
    sums (one block when a block alone holds more): a pass of an
    observable (one row) is one group, a 4x4 norm's (16 rows) is 16.
    `functional` maps the (rows, blocks, _TABLE) sums to (blocks,
    _TABLE) values; the last block runs past the grid, so its tail is
    cut after the functional.  Their absolute values go straight into
    the output, where `_log_tail` turns them into log_b|f| once per
    pass; no grid-long array but the output is formed.  An observable's
    passes are split between two threads (`_fill_passes`); a norm's
    stay serial, as a 3x3 spectral norm's many short kernel calls would
    only contend.
    """
    # Re(x y) is the real dot product of x and conj(y) read as floats
    table = np.conj(np.exp(np.outer(grid.step * np.arange(_TABLE), modes.mu))).view(np.float64)
    group = max(1, SLICE // (_TABLE * weights.shape[0]))  # blocks per GEMM: at most SLICE sums
    out = grid.empty()

    def fill(lo: int, t: np.ndarray) -> int:
        starts = t[::_TABLE]
        for g in range(0, starts.size, group):
            folded = weights[:, None, :] * np.exp(np.outer(starts[g : g + group], modes.mu))
            sums = (folded.view(np.float64).reshape(-1, table.shape[1]) @ table.T).reshape(*folded.shape[:2], _TABLE)
            at = lo + g * _TABLE
            values = functional(sums).ravel()[: lo + t.size - at]
            np.abs(values, out=out[at : at + values.size])
        _log_tail(out[lo : lo + t.size], t, modes.r, b)
        return t.size

    return _fill_passes(out, grid, fill, _fraction_count(grid, modes.r, b), split=weights.shape[0] == 1)


def _fraction_count(grid: SamplingGrid, r: float, b: int) -> int:
    """How many grid times t_i = i*step (formed as `SamplingGrid.passes`
    forms them) come before the first with |r| t_i / ln b >= _NO_FRACTION,
    found by bisection: |log|shifted|| / ln b is at most 1075 (a finite
    positive double lies in e^(+-745)), so from that time on every log
    sample is 2^52 or more, where a double has no fractional bit.  Every
    sampler stops its passes there, before sampling, and reports that time
    as `truncated_at`; a cut at the first time keeps nothing to judge, a
    usage error."""
    limit = _NO_FRACTION * math.log(b)
    count = bisect.bisect_left(range(grid.count), True, key=lambda i: abs(r) * ((i + 1.0) * grid.step) >= limit)
    if count == 0:
        raise UsageError(
            f"r = {r} puts every |log_b f| from t = {1.0 * grid.step} on at 2^52 or more, "
            "where no fractional bit (no significand) is left"
        )
    return count


def _fill_passes(out: np.ndarray, grid: SamplingGrid, fill: Callable, stop: int, split: bool) -> _LogSample:
    """Run fill(lo, t) over the grid's passes up to sample `stop` (the
    sampler's `_fraction_count`): it writes log_b|f| at the pass's grid
    times t into out[lo : lo + t.size] and returns how many of them it
    kept (t may be overwritten).  Only stepping's overflow keeps fewer,
    which cuts the output there; a cut output reports its first dropped
    time t_i = i*step as truncated.

    With `split` (never for stepping), the first floor(passes / 2) passes
    run inline and the rest on the helper thread (`_in_parallel`); as
    every pass is kept whole and independent, the output is that of one
    serial loop.  A split sampler's pass holds its grid times and one
    pass-long buffer, so both halves together hold four SLICE-long
    arrays, less than the exclusion pass peaks at.
    """
    def run(start: int, end: int) -> int:
        for lo, t in grid.passes(start, end):
            count = fill(lo, t)
            if count < t.size:
                return lo + count
        return end

    if split:
        middle = -(-stop // SLICE) // 2 * SLICE
        _in_parallel(lambda: run(0, middle), lambda: run(middle, stop), stop)
    else:
        stop = run(0, stop)
    return _LogSample(out) if stop == grid.count else _LogSample(out[:stop], truncated_at=(stop + 1) * grid.step)


def _log_tail(part: np.ndarray, t: np.ndarray, r: float, b: int) -> None:
    """Turn `part`, |shifted signal| at the grid times t, into log_b|f| =
    log|shifted| / ln b + r t / ln b in place.  t is scaled in place to
    r t / ln b on the way, so a pass holds no temporary here."""
    lnb = math.log(b)
    with np.errstate(divide="ignore"):
        np.log(part, out=part)
    part /= lnb
    t *= r / lnb
    part += t


def _logb_flow(flow: ObservableOnFlow | NormOnFlow, grid: SamplingGrid, b: int) -> _LogSample:
    """log_b|H(e^{tA})| for an observable or norm H, from one eigensolve:
    the eigen path gives a norm its d*d entry rows of mode sums and an
    observable its one row; stepping gives both the (d*d, n) entries."""
    modes = _FlowModes(flow.generator)
    if isinstance(flow, NormOnFlow):
        norm = lambda entries: _batched_norm(entries, flow.norm)
        if modes.diagonalizable:
            return _eigen_logb(modes, modes.weights, grid, b, norm)
        return _stepping_logb(flow.generator, modes.r, grid, b, norm)
    c = flow.observable.c.ravel()
    if modes.diagonalizable:
        return _eigen_logb(modes, c[None] @ modes.weights, grid, b, lambda sums: sums[0])
    return _stepping_logb(flow.generator, modes.r, grid, b, lambda entries: c @ entries)


def _batched_norm(entries: np.ndarray, kind: str) -> np.ndarray:
    """Norms of d x d matrices stored by entry: entries[i*d + k] holds
    entry (i, k) of all matrices, over any trailing batch shape, which
    the result takes."""
    if kind == "frobenius":
        return np.sqrt(np.einsum("e...,e...->...", entries, entries))
    if kind == "max":
        return np.max(np.abs(entries), axis=0)
    d = math.isqrt(entries.shape[0])
    if d == 2:
        # sigma_1 +- sigma_2 = |(a + d, c - b)|, |(a - d, b + c)|: no cancellation
        a, b, c, e = entries
        return 0.5 * (np.hypot(a + e, c - b) + np.hypot(a - e, b + c))
    if d == 3:
        return _spectral_norm_3x3(entries)
    return np.linalg.svd(np.moveaxis(entries, 0, -1).reshape(*entries.shape[1:], d, d), compute_uv=False)[..., 0]


# Where 12 x^2 - 3 (x = cos phi below) falls under this, the top two Gram
# eigenvalues nearly coincide and the trigonometric form loses digits.
_TRIG_SPLIT_FLOOR = 0.05


def _spectral_norm_3x3(entries: np.ndarray) -> np.ndarray:
    """Largest singular value of 3x3 matrices stored by entry, as in
    `_batched_norm`: entries[3*i + k] is M_ik over any trailing batch shape.

    The top eigenvalue of the Gram matrix G = M^T M in closed form:
    with q = tr G / 3, p^2 = |G - qI|_F^2 / 6 and cos 3phi = det(G - qI) / 2p^3,
    lambda_max = q + 2p cos phi.  Near a double top eigenvalue that form
    is ill-conditioned (d lambda / d cos 3phi = 2p / (12 cos^2 phi - 3)),
    so those few matrices go through SVD instead.
    """
    col = np.swapaxes(entries.reshape(3, 3, *entries.shape[1:]), 0, 1)  # col[k][i] = M_ik
    g00, g11, g22 = (np.einsum("i...,i...->...", c, c) for c in col)
    g01, g02, g12 = (np.einsum("i...,i...->...", col[k], col[l]) for k, l in ((0, 1), (0, 2), (1, 2)))
    q = (g00 + g11 + g22) / 3.0
    b00, b11, b22 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    det = b00 * (b11 * b22 - g12 * g12) - g01 * (g01 * b22 - g12 * g02) + g02 * (g01 * g12 - b11 * g02)
    half = np.divide(det, 2.0 * p**3, out=np.zeros_like(p), where=p > 0)
    x = np.cos(np.arccos(np.clip(half, -1.0, 1.0)) / 3.0)
    norm = np.sqrt(q + 2.0 * p * x)
    loose = 12.0 * x * x - 3.0 < _TRIG_SPLIT_FLOOR
    if loose.any():
        norm[loose] = np.linalg.svd(entries[:, loose].T.reshape(-1, 3, 3), compute_uv=False)[:, 0]
    return norm


def _stepping_logb(a: np.ndarray, r: float, grid: SamplingGrid, b: int, functional) -> _LogSample:
    """Fallback for defective generators: blocked powers of S = e^{(A - rI) step}.

    The shifted propagator at t_i = i*step is S^i.  S^1..S^m are formed
    once; a group of whole blocks is then the stack of its block bases
    S^{km}, k = 0, 1, ... (one small product each, the base carried from
    group to group), times [S^1 | ... | S^m], a single GEMM of at most
    SLICE entries (one block when a block alone holds more), and
    `functional` maps the group's (d*d, n) entries to n values, whose
    absolute values go into the output for `_log_tail` to turn into
    log_b|f| once per pass.  The shifted propagator grows at most
    polynomially, so overflow can only come from extreme Jordan
    structure; the horizon is then truncated at the first non-finite
    propagator and reported, and the output cut there.
    """
    d = a.shape[0]
    step_mat = expm(a - r * np.eye(d), grid.step)
    # past the float range the powers and entries turn non-finite, and the output
    # is cut there; the block base is carried from pass to pass, so passes stay serial
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powers = [step_mat]
        for _ in range(_POWERS - 1):
            powers.append(powers[-1] @ step_mat)
        side = np.concatenate(powers, axis=1)  # (d, m*d), block j is S^{j+1}
        span = max(1, SLICE // (_POWERS * d * d)) * _POWERS  # samples per GEMM: at most SLICE entries
        out = grid.empty()
        base = np.eye(d)

        def fill(lo: int, t: np.ndarray) -> int:
            nonlocal base
            count = t.size
            for at in range(0, t.size, span):
                nblocks = -(-min(span, t.size - at) // _POWERS)
                bases = np.empty((nblocks, d, d))
                for k in range(nblocks):
                    bases[k] = base
                    base = base @ powers[-1]
                prod = bases.reshape(nblocks * d, d) @ side  # [k, i] x [j, l]
                entries = prod.reshape(nblocks, d, _POWERS, d).transpose(1, 3, 0, 2).reshape(d * d, -1)[:, : t.size - at]
                bad = ~np.isfinite(entries).all(axis=0)
                n = int(np.argmax(bad)) if bad.any() else entries.shape[1]
                np.abs(functional(entries[:, :n]), out=out[lo + at : lo + at + n])
                if n < entries.shape[1]:
                    count = at + n
                    break
            _log_tail(out[lo : lo + count], t[:count], r, b)
            return count

        return _fill_passes(out, grid, fill, _fraction_count(grid, r, b), split=False)


def _logb_synthetic(spec: Synthetic, grid: SamplingGrid, b: int) -> _LogSample:
    """The mode sum, added up in the output mode by mode through one
    pass-long buffer (each term as `u * cos(omega t)`), which then holds
    k log_b t for after `_log_tail`; passes are split as an observable's."""
    out = grid.empty()

    def fill(lo: int, t: np.ndarray) -> int:
        part, term = out[lo : lo + t.size], np.empty_like(t)
        for i, (omega, u) in enumerate(spec.modes):
            np.multiply(omega, t, out=term)
            np.cos(term, out=term)
            if i == 0:
                np.multiply(u, term, out=part)
            else:
                term *= u
                part += term
        np.abs(part, out=part)
        logt = np.log(t, out=term)  # before `_log_tail` scales t
        logt *= spec.k / math.log(b)
        _log_tail(part, t, spec.r, b)
        part += logt
        return t.size

    return _fill_passes(out, grid, fill, _fraction_count(grid, spec.r, b), split=True)


def sample_log_signal(spec: SignalSpec, grid: SamplingGrid, b: int = 10) -> _LogSample:
    """log_b|f(t)| over the grid, computed without forming |f| itself; a
    decaying mode may underflow to 0 on the way, whatever the caller's numpy error state."""
    b = validate_base(b)
    with np.errstate(under="ignore"):
        if isinstance(spec, Synthetic):
            return _logb_synthetic(spec, grid, b)
        if isinstance(spec, (ObservableOnFlow, NormOnFlow)):
            return _logb_flow(spec, grid, b)
    raise UsageError(f"unknown signal spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class BenfordReport:
    """Outcome of an empirical conformance check for one signal."""

    base: int
    horizon: float
    step: float
    verdict: str
    inconclusive: bool
    significand_distance: float | None
    digit_histogram: DigitHistogram | None
    weyl: WeylReport | None
    excluded_sample_count: int
    sample_count: int
    thresholds: VerdictThresholds
    truncated_at: float | None = None

    def __post_init__(self):
        if self.verdict not in (VERDICT_PASS, VERDICT_FAIL, VERDICT_TRIVIAL):
            raise UsageError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VERDICT_TRIVIAL and self.significand_distance is not None:
            raise UsageError("trivial verdicts carry no statistics")

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "horizon": self.horizon,
            "step": self.step,
            "verdict": self.verdict,
            "inconclusive": self.inconclusive,
            "significand_distance": self.significand_distance,
            "digit_counts": dict(sorted(self.digit_histogram.counts.items())) if self.digit_histogram else None,
            "zeros": self.digit_histogram.zeros if self.digit_histogram else None,
            "weyl_magnitudes": {str(k): v for k, v in sorted(self.weyl.magnitudes.items())} if self.weyl else None,
            "excluded_sample_count": self.excluded_sample_count,
            "sample_count": self.sample_count,
            "thresholds": asdict(self.thresholds),
            "truncated_at": self.truncated_at,
        }


def _running_max_keep(part: np.ndarray, seed, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """The per-sample exclusion rule along the last axis of `part`: keep a
    finite sample at or above its running max plus `cutoff`, the running
    max taken over the finite samples and started from `seed` (broadcast
    against it).  Returns the keep mask and the running max."""
    finite = np.isfinite(part)
    guarded = np.where(finite, part, -np.inf)
    running_max = np.maximum.accumulate(guarded, axis=-1)
    np.maximum(running_max, seed, out=running_max)
    return finite & (guarded >= running_max + cutoff), running_max


def _verdict_from_logb(
    logb: np.ndarray,
    b: int,
    horizon: float,
    step: float,
    config: RunConfig,
    truncated_at: float | None,
    raw: np.ndarray | None = None,
) -> BenfordReport:
    """Exclude exact zeros and samples below zero_rel times the running
    max of |f|, then judge the sorted fractions of the kept log_b|f|
    under config's thresholds and number of Weyl frequencies.
    No kept sample is TRIVIAL; fewer than MIN_SAMPLES kept samples are
    an inconclusive FAIL, with the statistics still reported.
    When the raw values behind `logb` are given, the fractions come
    from them, so values on a digit edge land in that digit.
    The sorted kept fractions are written over the front of `logb`:
    after the call, logb[:sample_count - excluded_sample_count] holds
    them (the `benford` command's ECDF reads them there); the report
    itself keeps no sample.

    The running max is bounded block by block rather than formed per
    sample: a block of _BLOCK samples whose min lies above the running
    max of the block maxima at its end plus the cutoff is kept whole,
    since that bound is at least every running max in the block and
    rounding is monotone.  Only the other blocks take the per-sample
    rule, so the kept samples, and the verdict, are those of the
    per-sample rule on every sample."""
    thresholds = config.thresholds
    total = logb.size
    cutoff = math.log(thresholds.zero_rel) / math.log(b)
    # One pass of SLICE samples at a time, in blocks of _BLOCK samples (the
    # last block of a grid may be partial).  bound[j], the running max of
    # the block maxima started from the carried peak, is the exact running
    # max at the end of block j until a NaN or +inf sample comes
    # (np.maximum propagates both; the per-sample rule ignores them).
    # `proven` asks for the min to lie strictly above bound + cutoff, which
    # also fails for a block holding a -inf, NaN or +inf sample.  The block
    # extrema are only taken if some block's first sample lies above its
    # last one and the peak plus the cutoff, as a proven block's must, so
    # decaying and fast-growing signals skip them.  Unproven blocks take
    # the per-sample rule, started from the exact running max at the end
    # of the block before: block by block in a slice of whole blocks with
    # some proven and no NaN or +inf, else over the whole slice.  The kept
    # fractions overwrite logb from the front (kept <= lo when slice lo is
    # read): part[keep] is a copy, and a slice kept whole takes its floors
    # in `floors`, so that its fractions may overlap it (a copy takes them
    # in place: one buffer fewer in cache).
    kept, peak = 0, -np.inf
    starts = np.arange(0, min(total, SLICE), _BLOCK)
    floors = np.empty(min(total, SLICE))
    for lo in range(0, total, SLICE):
        part = logb[lo : lo + SLICE]
        n = part.size
        heads, tails = part[::_BLOCK], part[_BLOCK - 1 :: _BLOCK]
        if n % _BLOCK:
            tails = np.append(tails, part[-1])
        candidates = (heads > np.maximum(tails, peak) + cutoff).any()
        if candidates:
            first = starts[: heads.size]
            bound = np.maximum.accumulate(np.maximum.reduceat(part, first))
            np.maximum(bound, peak, out=bound)
            proven = np.minimum.reduceat(part, first) > bound + cutoff
        if candidates and proven.all():
            keep, peak = None, bound[-1]
        elif candidates and proven.any() and bound[-1] < np.inf and n % _BLOCK == 0:
            failing = np.flatnonzero(~proven)
            seeds = np.concatenate(([peak], bound[:-1]))[failing, None]
            keep = np.repeat(proven, _BLOCK)
            keep.reshape(-1, _BLOCK)[failing] = _running_max_keep(part.reshape(-1, _BLOCK)[failing], seeds, cutoff)[0]
            peak = bound[-1]
        else:
            keep, running_max = _running_max_keep(part, peak, cutoff)
            peak = running_max[-1]
        rows = part if keep is None else part[keep]
        count = rows.size
        if raw is None:
            fractions_into(rows, logb[kept : kept + count], floors[:count] if keep is None else None)
        else:
            values = raw[lo : lo + n]
            logb[kept : kept + count] = log_fractions_unsorted(values if keep is None else values[keep], b)
        kept += count
    del floors  # the sort and the statistics hold their own buffers
    common = dict(
        base=b, horizon=horizon, step=step, thresholds=thresholds, truncated_at=truncated_at,
        excluded_sample_count=total - kept, sample_count=total,
    )
    if not kept:
        return BenfordReport(
            verdict=VERDICT_TRIVIAL, inconclusive=False, significand_distance=None,
            digit_histogram=None, weyl=None, **common,
        )
    # Two halves at once (`_in_parallel`): a partition at the middle, then
    # each side sorted, gives the same array as one sort; then the Weyl
    # sums inline and the KS distance on the helper.
    u = logb[:kept]
    middle = kept // 2
    u.partition(middle)
    _in_parallel(u[:middle].sort, u[middle:].sort, kept)
    weyl, distance = _in_parallel(lambda: WeylReport.from_sorted(u, config.weyl_k), lambda: uniform_distance(u), kept)
    floor = weyl.noise_floor(thresholds.weyl_multiplier)
    max_mag = weyl.max_magnitude
    if u.size < MIN_SAMPLES:
        verdict, inconclusive = VERDICT_FAIL, True
    elif distance < thresholds.distance and max_mag < floor:
        verdict, inconclusive = VERDICT_PASS, False
    elif distance > thresholds.fail_factor * thresholds.distance or max_mag > thresholds.fail_factor * floor:
        verdict, inconclusive = VERDICT_FAIL, False
    else:
        verdict, inconclusive = VERDICT_FAIL, True
    return BenfordReport(
        verdict=verdict,
        inconclusive=inconclusive,
        significand_distance=distance,
        digit_histogram=DigitHistogram(base=b, counts=digit_counts(u, b), zeros=0, total=int(u.size)),
        weyl=weyl,
        **common,
    )


def benford_verdict(
    spec: SignalSpec, b: int | None = None, grid: SamplingGrid | None = None, *, config: RunConfig | None = None
) -> BenfordReport:
    """Sample the signal on the grid and judge its conformance.

    Every setting comes from `config` (default RunConfig()); a base b
    or a grid given here takes the place of config's.
    """
    return _signal_verdict(spec, b, grid, config=config)[0]


def _signal_verdict(
    spec: SignalSpec, b: int | None = None, grid: SamplingGrid | None = None, *, config: RunConfig | None = None
) -> tuple[BenfordReport, np.ndarray]:
    """`benford_verdict`'s report and the sorted kept fractions it judged,
    the front of its log buffer (the `benford` command's ECDF reads them)."""
    config = config or RunConfig()
    b = validate_base(config.base if b is None else b)
    grid = config.grid if grid is None else grid
    sample = sample_log_signal(spec, grid, b)
    report = _verdict_from_logb(sample.values, b, grid.T, grid.step, config, sample.truncated_at)
    return report, sample.values[: report.sample_count - report.excluded_sample_count]


def benford_report_from_samples(
    values: Sequence[float] | np.ndarray, b: int | None = None, *, config: RunConfig | None = None
) -> BenfordReport:
    """Verdict for externally supplied signal values (e.g. CSV data),
    under `config` (default RunConfig()); b, if given, overrides its base."""
    return _samples_verdict(values, b, config=config)[0]


def _samples_verdict(
    values: Sequence[float] | np.ndarray, b: int | None = None, *, config: RunConfig | None = None
) -> tuple[BenfordReport, np.ndarray]:
    """`benford_report_from_samples`'s report and the sorted kept fractions
    it judged, as `_signal_verdict` returns them.  The log samples are
    built in one array, beside the values they are read from."""
    config = config or RunConfig()
    b = validate_base(config.base if b is None else b)
    arr = np.asarray(values, dtype=float)
    if arr.size < MIN_SAMPLES:
        raise UsageError(f"need at least {MIN_SAMPLES} samples for a verdict")
    if not np.all(np.isfinite(arr)):
        raise DomainError("signal values must be finite")
    logb = np.abs(arr)
    with np.errstate(divide="ignore"):
        np.log(logb, out=logb)
    logb /= math.log(b)
    report = _verdict_from_logb(logb, b, float(arr.size), 1.0, config, None, arr)
    return report, logb[: report.sample_count - report.excluded_sample_count]


def benford_report_from_log_samples(
    logb_values: Sequence[float] | np.ndarray,
    b: int | None = None,
    *,
    config: RunConfig | None = None,
    horizon: float | None = None,
    step: float | None = None,
) -> BenfordReport:
    """Verdict for a signal supplied directly as log_b|f| samples.

    The entry point for closed-form fixtures whose raw values overflow;
    -inf entries mark exact zeros.  Settings come from `config`
    (default RunConfig()); b, if given, overrides its base.  horizon
    and step only label the report: they default to the sample count
    and 1, and must be finite and > 0.  The samples are copied, never
    written.
    """
    config = config or RunConfig()
    b = validate_base(config.base if b is None else b)
    arr = np.array(logb_values, dtype=float)
    if arr.size < MIN_SAMPLES:
        raise UsageError(f"need at least {MIN_SAMPLES} samples for a verdict")
    if np.any(np.isnan(arr)) or np.any(arr == np.inf):
        raise DomainError("log samples must be finite or -inf")
    horizon = float(arr.size) if horizon is None else horizon
    step = 1.0 if step is None else step
    if not all(math.isfinite(x) and x > 0 for x in (horizon, step)):
        raise UsageError(f"horizon and step must be finite and > 0, got {horizon} and {step}")
    return _verdict_from_logb(arr, b, horizon, step, config, None)
