"""Sampler paths against independent references.

Each path of `sample_log_signal` (eigen-path observables, the spectral
norm closed forms for d = 2 and 3, SVD for d >= 4, Frobenius and max
norms, and the stepping fallback for defective generators) is compared
with e^{tA} evaluated in 60-digit arithmetic by mpmath on a short grid,
and the eigen path also across its table block and pass edges.  The
3x3 spectral closed form is compared with numpy's SVD on batches chosen
to hit its degenerate cases, the norm kernels on a strided batch with
their 2-D call, and the stepping fallback's truncation with a per-step
loop.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from benflow import flowsignal
from benflow.errors import UsageError
from benflow.flowsignal import (
    NormOnFlow,
    Observable,
    ObservableOnFlow,
    _batched_norm,
    _spectral_norm_3x3,
    sample_log_signal,
)
from benflow.significand import SLICE
from benflow.udmod1 import SamplingGrid

DIGITS = 60
SHORT = SamplingGrid(T=6.0, step=0.05)  # 120 samples
LN10 = math.log(10)


def block_parts(seed: int, blocks, orthogonal: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """S and B of A = S B S^-1, B block-diagonal: ("spiral", a, w) is
    [[a, -w], [w, a]], ("real", c) is [c], ("jordan", lam, k) a k x k
    Jordan block.  S is orthogonal when asked."""
    parts = []
    for kind, *args in blocks:
        if kind == "spiral":
            a, w = args
            parts.append(np.array([[a, -w], [w, a]]))
        elif kind == "real":
            parts.append(np.array([[args[0]]]))
        else:
            lam, k = args
            parts.append(lam * np.eye(k) + np.eye(k, k=1))
    d = sum(part.shape[0] for part in parts)
    b = np.zeros((d, d))
    at = 0
    for part in parts:
        b[at : at + part.shape[0], at : at + part.shape[0]] = part
        at += part.shape[0]
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if orthogonal:
        return q1, b
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, d)) @ q2, b


def block_generator(seed: int, blocks, orthogonal: bool = False) -> np.ndarray:
    """S B S^-1 for `block_parts`' S and B."""
    s, b = block_parts(seed, blocks, orthogonal)
    return s @ b @ (s.T if orthogonal else np.linalg.inv(s))


def reference_propagators(a: np.ndarray, grid: SamplingGrid):
    """e^{A t_i} at t_i = i*step, i = 1..n, to DIGITS digits."""
    with mp.workdps(DIGITS):
        big = mp.matrix(a.tolist())
        step = mp.expm(big * mp.mpf(grid.step))
        current = mp.eye(a.shape[0])
        out = []
        for _ in range(grid.count):
            current = current * step
            out.append(current)
        return out


def reference_signal(spec, e) -> mp.mpf:
    """The signal of one 60-digit propagator e: the observable, or the norm."""
    d = spec.generator.shape[0]
    entries = [e[i, k] for i in range(d) for k in range(d)]
    if isinstance(spec, ObservableOnFlow):
        return mp.fsum(mp.mpf(float(c)) * x for c, x in zip(spec.observable.c.ravel(), entries))
    if spec.norm == "frobenius":
        return mp.sqrt(mp.fsum(x * x for x in entries))
    if spec.norm == "max":
        return max(abs(x) for x in entries)
    return max(mp.svd_r(e, compute_uv=False))


def reference_log10(spec, grid: SamplingGrid) -> np.ndarray:
    with mp.workdps(DIGITS):
        return np.array([float(mp.log10(abs(reference_signal(spec, e)))) for e in reference_propagators(spec.generator, grid)])


def running_scale_error(got: np.ndarray, ref: np.ndarray) -> float:
    """max |f - f_ref| / max_{s <= t} |f_ref|, from log10 samples.

    Observables cross zero, where any sampler's log is noise; this is
    the error in f against the signal's running size instead.
    """
    running = np.maximum.accumulate(ref)
    return float(np.max(np.abs(np.expm1((got - ref) * LN10)) * 10.0 ** (ref - running)))


SPIRAL3 = [("spiral", 1.0, 2.0), ("real", 0.3)]
SPIRAL4 = [("spiral", 1.0, 2.0), ("spiral", 0.2, 1.5)]

# (label, spec, grid, bound on the relative error)
CASES = [
    ("eigen observable d3", ObservableOnFlow(block_generator(1, SPIRAL3), Observable(np.arange(9.0).reshape(3, 3) - 4)), SHORT, 1e-13),
    ("eigen observable d4", ObservableOnFlow(block_generator(2, SPIRAL4), Observable(np.eye(4)[::-1])), SHORT, 1e-13),
    ("spectral d2", NormOnFlow(block_generator(3, [("spiral", 1.0, 2.0)]), "spectral"), SHORT, 1e-13),
    # scalar times rotation: both singular values equal at every t
    ("spectral d2 normal", NormOnFlow(np.array([[1.0, -math.pi], [math.pi, 1.0]]), "spectral"), SHORT, 1e-13),
    ("spectral d3", NormOnFlow(block_generator(4, SPIRAL3), "spectral"), SHORT, 1e-13),
    # orthogonal similarity: the top two singular values coincide
    ("spectral d3 double top", NormOnFlow(block_generator(5, SPIRAL3, orthogonal=True), "spectral"), SHORT, 1e-13),
    ("spectral d4", NormOnFlow(block_generator(6, SPIRAL4), "spectral"), SHORT, 1e-13),
    ("frobenius d4", NormOnFlow(block_generator(7, SPIRAL4), "frobenius"), SHORT, 1e-13),
    ("max d3", NormOnFlow(block_generator(8, SPIRAL3), "max"), SHORT, 1e-13),
    ("stepping jordan d2", ObservableOnFlow(np.array([[0.5, 1.0], [0.0, 0.5]]), Observable(np.array([[1.0, -2.0], [0.5, 1.0]]))), SHORT, 1e-13),
    ("stepping jordan d3", ObservableOnFlow(block_generator(9, [("jordan", 1.0, 3)]), Observable(np.arange(9.0).reshape(3, 3) - 4)), SHORT, 1e-13),
    ("stepping jordan d3 norm", NormOnFlow(block_generator(10, [("jordan", 1.0, 3)]), "spectral"), SamplingGrid(T=16.0, step=0.1), 1e-13),
    # a grid longer than the 256 stored powers: several block bases
    ("stepping jordan d2, 4 blocks", ObservableOnFlow(np.array([[0.0, 1.0], [0.0, 0.0]]), Observable.entry(0, 1, 2)), SamplingGrid(T=20.0, step=0.02), 1e-13),
]


@pytest.mark.parametrize("label, spec, grid, bound", CASES, ids=[c[0] for c in CASES])
def test_path_matches_60_digit_reference(label, spec, grid, bound):
    sample = sample_log_signal(spec, grid, 10)
    ref = reference_log10(spec, grid)
    assert sample.truncated_at is None
    assert sample.values.size == grid.count
    if isinstance(spec, ObservableOnFlow):
        assert running_scale_error(sample.values, ref) <= bound
    else:
        # norms never come near zero: plain relative error
        assert np.max(np.abs(np.expm1((sample.values - ref) * LN10))) <= bound


# 200,500 samples: six whole passes of SLICE samples and a partial seventh
BOUNDARY_GRID = SamplingGrid(T=20.05, step=1e-4)
# either side of the first table block edge (1024), of the first GEMM group
# edge of a 4x4, 3x3 and 2x2 norm (2, 3 and 8 blocks: at most SLICE sums) and
# of the first pass edge (SLICE), three samples around 200,000, and the last sample
BOUNDARY_INDICES = [
    1022, 1023, 1024, 1025, 2047, 2048, 3071, 3072, 8191, 8192,
    SLICE - 1, SLICE, SLICE + 1, 199_999, 200_000, 200_001, 200_499,
]
BOUNDARY_CASES = [
    ("real mode", ObservableOnFlow(np.array([[0.7]]), Observable(np.array([[1.5]])))),
    # a lone real mode has mu = lambda - r = 0, so only here do real factors vary
    ("two real modes", ObservableOnFlow(block_generator(13, [("real", 0.7), ("real", -0.4)]), Observable(np.array([[1.0, 2.0], [-1.0, 0.5]])))),
    ("complex pair", ObservableOnFlow(block_generator(11, [("spiral", 1.0, 2.0)]), Observable(np.array([[1.0, -2.0], [0.5, 1.0]])))),
    ("mixed m=4", ObservableOnFlow(
        block_generator(12, [("spiral", 0.8, 1.6), ("spiral", 0.3, 1.3), ("real", 0.1), ("real", -0.5)]),
        Observable(np.arange(36.0).reshape(6, 6) % 7 - 3),
    )),
    # norms read all d*d entry rows of the same block sums
    ("spectral d2", NormOnFlow(block_generator(14, [("spiral", 1.0, 2.0)]), "spectral")),
    ("spectral d3", NormOnFlow(block_generator(15, SPIRAL3), "spectral")),
    ("spectral d4", NormOnFlow(block_generator(16, SPIRAL4), "spectral")),
    ("frobenius d4", NormOnFlow(block_generator(17, SPIRAL4), "frobenius")),
    ("max d3", NormOnFlow(block_generator(18, SPIRAL3), "max")),
]


@pytest.mark.parametrize("label, spec", BOUNDARY_CASES, ids=[c[0] for c in BOUNDARY_CASES])
def test_eigen_path_across_block_and_chunk_edges(label, spec):
    """Samples either side of the table block and pass edges, against
    e^{At} in 60 digits at those times alone."""
    assert BOUNDARY_GRID.count == 200_500
    sample = sample_log_signal(spec, BOUNDARY_GRID, 10)
    assert sample.values.size == BOUNDARY_GRID.count
    times = BOUNDARY_GRID.times()[BOUNDARY_INDICES]
    with mp.workdps(DIGITS):
        big = mp.matrix(spec.generator.tolist())
        ref = [float(mp.log10(abs(reference_signal(spec, mp.expm(big * mp.mpf(float(t))))))) for t in times]
    assert running_scale_error(sample.values[BOUNDARY_INDICES], np.array(ref)) <= 1e-13


class TestSpectralNorm3x3:
    """The trigonometric closed form against numpy's SVD."""

    N = 20_000

    @staticmethod
    def orthogonal(rng, n):
        q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
        return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]

    @staticmethod
    def relative_error(mats: np.ndarray) -> float:
        got = _spectral_norm_3x3(np.ascontiguousarray(mats.reshape(-1, 9).T))
        ref = np.linalg.svd(mats, compute_uv=False)[:, 0]
        return float(np.max(np.abs(got / ref - 1.0)))

    def with_singular_values(self, rng, s):
        return self.orthogonal(rng, s.shape[0]) * s[:, None, :] @ self.orthogonal(rng, s.shape[0])

    def test_random(self):
        rng = np.random.default_rng(11)
        assert self.relative_error(rng.standard_normal((self.N, 3, 3))) <= 1e-13

    def test_near_rank_one(self):
        rng = np.random.default_rng(12)
        s = np.stack([np.ones(self.N), 10 ** rng.uniform(-14, -1, self.N), 10 ** rng.uniform(-16, -14, self.N)], 1)
        assert self.relative_error(self.with_singular_values(rng, s)) <= 1e-13

    def test_scalar_times_orthogonal(self):
        # Gram = cI up to rounding, so p is zero or at rounding level
        rng = np.random.default_rng(13)
        mats = self.orthogonal(rng, self.N) * rng.uniform(0.1, 10.0, self.N)[:, None, None]
        assert self.relative_error(mats) <= 1e-13
        exact = np.array([np.eye(3) * 3.0, np.eye(3)[[2, 0, 1]] * 0.5])  # Gram exactly cI: p = 0
        assert self.relative_error(exact) == 0.0

    def test_near_double_top(self):
        # 12 cos^2 phi - 3 -> 0: the matrices the closed form hands to SVD
        rng = np.random.default_rng(14)
        gap = 10 ** rng.uniform(-16, 0, self.N)
        s = np.stack([np.ones(self.N), 1.0 - gap, rng.uniform(0.0, 0.9, self.N)], 1)
        assert self.relative_error(self.with_singular_values(rng, s)) <= 1e-13

    def test_near_double_bottom(self):
        rng = np.random.default_rng(15)
        s = np.stack([np.ones(self.N), rng.uniform(0.0, 0.9, self.N), np.zeros(self.N)], 1)
        s[:, 2] = s[:, 1] * (1.0 - 10 ** rng.uniform(-16, 0, self.N))
        assert self.relative_error(self.with_singular_values(rng, s)) <= 1e-13


@pytest.mark.parametrize("kind, d", [("frobenius", 4), ("max", 3), ("spectral", 2), ("spectral", 3), ("spectral", 5)])
def test_norm_kernels_read_any_batch_shape(kind, d, monkeypatch):
    """Entries on axis 0 of a strided (d*d, blocks, offsets) view give the
    2-D call's norms bit for bit, in the view's batch shape."""
    rng = np.random.default_rng(20 + d)
    blocks, offsets = 6, 50
    mats = rng.standard_normal((blocks * offsets, d, d))
    if d == 3:
        # a near-double top, as in TestSpectralNorm3x3: the closed form hands these to SVD
        s = np.stack([np.ones(offsets), 1.0 - 10 ** rng.uniform(-16, -8, offsets), rng.uniform(0.0, 0.9, offsets)], 1)
        mats[:offsets] = TestSpectralNorm3x3().with_singular_values(rng, s)
    flat = np.ascontiguousarray(mats.reshape(-1, d * d).T)
    strided = np.ascontiguousarray(flat.reshape(d * d, blocks, offsets).swapaxes(0, 1)).swapaxes(0, 1)
    assert not strided.flags.c_contiguous
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: svd_calls.append(m.shape) or svd(m, **kw))
    got = _batched_norm(strided, kind)
    assert got.shape == (blocks, offsets)
    assert np.array_equal(got.ravel(), _batched_norm(flat, kind))
    if kind == "spectral" and d == 3:
        assert svd_calls and svd_calls[0][0] >= offsets


def stepping_reference(a: np.ndarray, grid: SamplingGrid, entry: tuple[int, int]):
    """Per-step walk of e^{(A - rI) step}, that step taken to DIGITS digits
    and rounded: log10|entry| samples up to the first non-finite
    propagator, and the time of that propagator."""
    r = float(np.linalg.eigvals(a).real.max())
    shifted = a - r * np.eye(a.shape[0])
    with mp.workdps(DIGITS):
        exact = mp.expm(mp.matrix(shifted.tolist()) * mp.mpf(grid.step))
        step = np.array([[float(exact[i, k]) for k in range(a.shape[0])] for i in range(a.shape[0])])
    current = np.eye(a.shape[0])
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in grid.times():
            current = current @ step
            if not np.all(np.isfinite(current)):
                return np.array(values) + r * np.asarray(grid.times()[: len(values)]) / LN10, float(t)
            values.append(math.log10(abs(current[entry])))
    return np.array(values) + r * grid.times() / LN10, None


@pytest.mark.parametrize(
    "label, spec",
    [c for c in BOUNDARY_CASES if isinstance(c[1], NormOnFlow)] + [(c[0], c[1]) for c in CASES if "stepping" in c[0]],
    ids=[c[0] for c in BOUNDARY_CASES if isinstance(c[1], NormOnFlow)] + [c[0] for c in CASES if "stepping" in c[0]],
)
def test_gemm_groups_move_no_bit(label, spec, monkeypatch):
    # A norm's (and the stepping path's) GEMM runs over groups of whole blocks
    # holding at most SLICE sums; each sum is the same dot product whatever
    # the group, so the samples equal those of one GEMM per pass bit for bit.
    grid = SamplingGrid(T=7.0, step=1e-4)  # two whole passes and a partial third
    grouped = sample_log_signal(spec, grid, 10).values
    monkeypatch.setattr(flowsignal, "SLICE", 64 * SLICE)  # every group a whole pass
    assert np.array_equal(sample_log_signal(spec, grid, 10).values, grouped)


class TestSteppingTruncation:
    OVERFLOW = np.array([[0.0, 1e304], [0.0, 0.0]])  # entry (0, 1) of e^{tA} is 1e304 t

    def test_matches_per_step_loop(self):
        grid = SamplingGrid(T=5e4, step=5.0)
        sample = sample_log_signal(ObservableOnFlow(self.OVERFLOW, Observable.entry(0, 1, 2)), grid, 10)
        ref, ref_truncated_at = stepping_reference(self.OVERFLOW, grid, (0, 1))
        assert ref_truncated_at is not None
        assert sample.truncated_at == ref_truncated_at
        assert sample.values.size == ref.size
        assert np.max(np.abs(sample.values - ref)) <= 1e-12
        # and the closed form: the last kept sample is the last t with 1e304 t finite
        kept = grid.times()[: ref.size]
        assert np.max(np.abs(sample.values - (304.0 + np.log10(kept)))) <= 1e-12
        assert 1e304 * kept[-1] <= np.finfo(float).max < 1e304 * sample.truncated_at

    def test_truncation_in_a_later_chunk(self):
        # overflow after ~3.6e5 samples, 11 passes in: the block base carries across pass edges
        a = np.array([[0.0, 5e302], [0.0, 0.0]])
        grid = SamplingGrid(T=4e5, step=1.0)
        sample = sample_log_signal(ObservableOnFlow(a, Observable.entry(0, 1, 2)), grid, 10)
        kept = grid.times()[: sample.values.size]
        assert sample.truncated_at == kept[-1] + 1.0
        assert 5e302 * kept[-1] <= np.finfo(float).max < 5e302 * sample.truncated_at
        # expm's step I + A is exact here, and the samples sit within 1.1e-13 of the
        # closed form; a step one ulp off accumulates about 9e-12 over the 3.6e5
        # propagator products, which the bound leaves room for
        assert np.max(np.abs(sample.values - (math.log10(5e302) + np.log10(kept)))) <= 2e-11


@pytest.mark.parametrize(
    "spec",
    [
        ObservableOnFlow(np.array([[1.0, -2.0], [2.0, 1.0]]), Observable.entry(0, 1, 2)),
        NormOnFlow(np.array([[1.0, -2.0], [2.0, 1.0]]), "spectral"),
        ObservableOnFlow(np.array([[1.0, 1.0], [0.0, 1.0]]), Observable.entry(0, 1, 2)),
    ],
    ids=["eigen observable", "eigen norm", "stepping"],
)
def test_unallocatable_grid_is_a_usage_error(spec):
    # 1e17 samples: refused before the sampler allocates anything grid-long
    grid = SamplingGrid(T=1e15, step=1e-2)
    with pytest.raises(UsageError, match=f"{grid.count} samples"):
        sample_log_signal(spec, grid, 10)
