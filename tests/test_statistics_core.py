"""The statistics core over the sorted fractions u of log_b|f|.

The KS distance, the digit counts and the Weyl magnitudes are all read
off one sorted array u in [0, 1).  This module checks that array three
ways: against the earlier route that formed significands b**u, binned
them and took their log again (copied below as the oracle); for raw
values sitting exactly on a digit edge, against the exact scalar
`significand`; and, bit for bit, against the same statistics taken over
whole arrays (also copied below), at the edges of the SLICE-sample
passes the core makes, with allocation bounds that only a sliced core
meets.  The exclusion, which keeps whole blocks under a proven bound,
is checked bit for bit against the per-sample rule run one sample at a
time.  Verdicts of at least 2 SLICE samples run their sampling, sort and
statistics in two halves at once; the helper thread that runs the second
half is checked, and so are the split verdicts, bit for bit, against the
sampler's serial loop and against one sort and whole-array statistics.
"""
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from benflow import flowsignal
from benflow.cli import _ecdf_significands
from benflow.config import RunConfig
from benflow.demos import ex_3_5_log_fixtures, frobenius_example_generator
from benflow.errors import UsageError
from benflow.flowsignal import (
    _BLOCK,
    NormOnFlow,
    Observable,
    ObservableOnFlow,
    Synthetic,
    _samples_verdict,
    _signal_verdict,
    _verdict_from_logb,
    benford_report_from_log_samples,
    benford_report_from_samples,
    benford_verdict,
    sample_log_signal,
)
from benflow.significand import (
    SLICE,
    digit_counts,
    digit_frequencies,
    log_fractions,
    significand,
    uniform_distance,
)
from benflow.udmod1 import SamplingGrid, _kernel_shape, sorted_weyl_sums
from helpers import fractions_of_logs
from test_sampler_paths import CASES, SPIRAL3, SPIRAL4, block_generator, block_parts

CONFIG = RunConfig()
EDGE_BAND = 1e-12


def significand_route(logb: np.ndarray, b: int, zero_rel: float, k_max: int) -> dict:
    """The statistics as computed before the fractions core: the same
    exclusion, then significands b**frac (clipped below b), digits by
    truncation, KS against log_b of the significands, Weyl sums of the
    kept logs themselves."""
    finite = np.isfinite(logb)
    guarded = np.where(finite, logb, -np.inf)
    running_max = np.maximum.accumulate(guarded)
    keep = finite & (guarded >= running_max + math.log(zero_rel) / math.log(b))
    kept = logb[keep]
    frac = kept - np.floor(kept)
    sig = np.sort(np.clip(np.power(float(b), frac), 1.0, math.nextafter(float(b), 1.0)))
    binned = np.bincount(sig.astype(np.int64), minlength=b)
    n = sig.size
    target = np.log(sig) / math.log(b)
    distance = float(max((np.arange(1, n + 1) / n - target).max(), (target - np.arange(0, n) / n).max()))
    phases = np.exp(2j * np.pi * kept)
    weyl = {k: min(float(abs((phases**k).mean())), 1.0) for k in range(1, k_max + 1)}
    near_edge = np.zeros(frac.size, dtype=bool)
    for edge in np.log(np.arange(1, b + 1)) / math.log(b):
        near_edge |= np.abs(frac - edge) <= EDGE_BAND
    return {
        "excluded": int(logb.size - n),
        "distance": distance,
        "digits": {d: int(binned[d]) for d in range(1, b) if binned[d]},
        "weyl": weyl,
        "near_edge": int(near_edge.sum()),
    }


def assert_matches_route(report, logb: np.ndarray) -> None:
    ref = significand_route(logb, report.base, report.thresholds.zero_rel, report.weyl.K)
    assert report.excluded_sample_count == ref["excluded"]
    assert abs(report.significand_distance - ref["distance"]) <= 1e-12
    for k, mag in ref["weyl"].items():
        assert abs(report.weyl.magnitudes[k] - mag) <= 1e-10
    counts = report.digit_histogram.counts
    moved = sum(abs(counts.get(d, 0) - ref["digits"].get(d, 0)) for d in range(1, report.base)) // 2
    assert moved <= ref["near_edge"]
    assert sum(counts.values()) == report.sample_count - report.excluded_sample_count


LONG = SamplingGrid(T=300.0, step=0.01)  # 30,000 samples


@pytest.mark.parametrize("label, spec", [(c[0], c[1]) for c in CASES], ids=[c[0] for c in CASES])
def test_sampler_signals_match_significand_route(label, spec):
    report = benford_verdict(spec, 10, LONG, config=CONFIG)
    assert_matches_route(report, sample_log_signal(spec, LONG, 10).values)


def closed_form_log10(s: np.ndarray, b: np.ndarray, c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log10|sum c_jk (S e^{tB} S^-1)_jk| for B of 2x2 rotation-scaling and
    1x1 blocks, from S e^{t(B - rI)} S^-1 with the blocks in closed form."""
    g = np.linalg.solve(s, c.T @ s)  # sum c_jk M_jk = tr(c^T M) = tr(G e^{tB})
    r = float(np.diagonal(b).max())
    acc = np.zeros(t.size)
    i = 0
    while i < b.shape[0]:
        decay = np.exp((b[i, i] - r) * t)
        if i + 1 < b.shape[0] and b[i + 1, i] != 0.0:
            w = b[i + 1, i]
            cos, sin = decay * np.cos(w * t), decay * np.sin(w * t)
            acc += (g[i, i] + g[i + 1, i + 1]) * cos + (g[i, i + 1] - g[i + 1, i]) * sin
            i += 2
        else:
            acc += g[i, i] * decay
            i += 1
    with np.errstate(divide="ignore"):
        return (r * t + np.log(np.abs(acc))) / math.log(10)


# the verdicts benchmark's shapes: nonresonant d = 2, and d = 3 with the
# dominant pair 1 +- i pi/ln 10, resonant in base 10
@pytest.mark.parametrize(
    "blocks, verdict",
    [([("spiral", 1.0, 2.0)], "BENFORD_PASS"), ([("spiral", 1.0, math.pi / math.log(10)), ("real", 0.4)], "FAIL")],
    ids=["d2 nonresonant", "d3 resonant"],
)
def test_eigen_path_statistics_match_closed_form(blocks, verdict):
    s, b = block_parts(21, blocks)
    c = np.random.default_rng(22).standard_normal(b.shape)
    grid = CONFIG.grid
    report = benford_verdict(ObservableOnFlow(s @ b @ np.linalg.inv(s), Observable(c)), config=CONFIG)
    th = CONFIG.thresholds
    ref = significand_route(closed_form_log10(s, b, c, grid.times()), 10, th.zero_rel, CONFIG.weyl_k)
    assert abs(report.excluded_sample_count - ref["excluded"]) <= 3
    counts = report.digit_histogram.counts
    assert max(abs(counts.get(d, 0) - ref["digits"].get(d, 0)) for d in range(1, 10)) <= 3
    assert abs(report.significand_distance - ref["distance"]) <= 1e-5
    assert max(abs(report.weyl.magnitudes[k] - mag) for k, mag in ref["weyl"].items()) <= 1e-5
    kept = grid.count - ref["excluded"]
    passes = ref["distance"] < th.distance and max(ref["weyl"].values()) < th.weyl_multiplier / math.sqrt(kept)
    assert report.verdict == verdict == ("BENFORD_PASS" if passes else "FAIL")


@pytest.mark.parametrize("b", [10, 3])
def test_ex_3_5_log_fixtures_match_significand_route(b):
    # ex-3-5's two signals: the sampled Frobenius norm and the closed-form cubic composite
    grid = SamplingGrid(T=1e4, step=1e-2)
    norm_logb = sample_log_signal(NormOnFlow(frobenius_example_generator(), "frobenius"), grid, b).values
    for logb in (norm_logb, ex_3_5_log_fixtures(grid.times(), b)):
        report = benford_report_from_log_samples(logb, b, config=CONFIG, horizon=grid.T, step=grid.step)
        assert_matches_route(report, logb)


def test_constant_signal_tiny_negative_logs():
    # ex-3-9's constant signal 1 = 10^0: rounding noise gives logs of about
    # -1e-14, whose fractional part l - floor(l) rounds to exactly 1.0
    spec = ObservableOnFlow(np.array([[1.0, 1.0], [1.0, 1.0]]), Observable(np.array([[1.0, -1.0], [0.0, 0.0]])))
    grid = SamplingGrid(T=100.0, step=0.01)
    logb = sample_log_signal(spec, grid, 10).values
    assert np.any(logb - np.floor(logb) == 1.0)
    assert fractions_of_logs(logb).max() < 1.0
    report, u = _signal_verdict(spec, 10, grid, config=CONFIG)
    assert_matches_route(report, logb)
    assert max(_ecdf_significands(u, 10)) < 10.0
    tiny_negative = int(np.count_nonzero(logb < 0))
    assert report.digit_histogram.counts[9] == tiny_negative


def edge_values(b: int) -> list[float]:
    """d * b^k for every digit d and every k with b^|k| < 2^53 for which
    d * b^k is a float: all k >= 0, and k < 0 too when b = 2."""
    out = []
    for k in range(0, 54):
        if b**k >= 2**53:
            break
        for d in range(1, b):
            out.append(float(d * b**k))
            if b == 2:
                out.append(d * 2.0**-k)
    return sorted(out)


def edge_distance(digits: list[int], b: int) -> float:
    """KS distance of a sample whose fractions sit exactly on the edges
    log_b d of the given first digits: the ECDF jumps only there."""
    n = len(digits)
    below, gap = 0, 0.0
    for d in range(1, b):
        edge = math.log(d) / math.log(b)
        count = digits.count(d)
        if count:
            gap = max(gap, edge - below / n, (below + count) / n - edge)
        below += count
    return gap


@pytest.mark.parametrize("b", [2, 3, 10])
def test_raw_values_on_digit_edges_follow_first_digit(b):
    values = edge_values(b)
    # alternate signs: only |x| counts
    values = [x if i % 2 else -x for i, x in enumerate(values)]
    digits = [int(significand(x, b)) for x in values]
    expected = {d: digits.count(d) for d in range(1, b) if digits.count(d)}
    assert digit_frequencies(values, b).counts == expected
    assert abs(uniform_distance(log_fractions(values, b)) - edge_distance(digits, b)) <= 1e-12
    # the CSV entry point needs 100 samples; ascending |x| excludes none
    repeat = -(-100 // len(values))
    report = benford_report_from_samples(np.repeat(values, repeat), b, config=CONFIG)
    assert report.excluded_sample_count == 0
    assert report.digit_histogram.counts == {d: c * repeat for d, c in expected.items()}
    assert abs(report.significand_distance - edge_distance(digits, b)) <= 1e-12


def extreme_values(b: int) -> list[float]:
    """Random subnormal and near-maximum floats, where b^|k| overflows, plus
    the digit edges d * 2^e there for b a power of 2 (exact floats)."""
    rng = np.random.default_rng(b)
    tiny = np.ldexp(rng.uniform(0.5, 1.0, 400), rng.integers(-1074, -1021, 400))
    huge = np.ldexp(rng.uniform(0.5, 1.0, 400), rng.integers(1000, 1025, 400))
    out = [*tiny[tiny > 0.0], *huge, 1.5e-323, 5e-324, 2.2250738585072014e-308, np.finfo(float).max]
    if b in (2, 16):
        for d in range(1, b):
            out += [math.ldexp(d, e) for e in range(-1074, -1018, b.bit_length() - 1)]
            out += [math.ldexp(d, e) for e in range(1000, 1021, b.bit_length() - 1)]
    return out


@pytest.mark.parametrize("b", [2, 3, 7, 10, 16])
def test_values_where_powers_overflow_follow_first_digit(b):
    # in base 16 the frac(log) fallback put 1.5e-323 (12 * 16^-268) in digit 11
    # and the float maximum (15.99.. * 16^255) in digit 1
    values = extreme_values(b)
    digits = [int(significand(x, b)) for x in values]
    expected = {d: digits.count(d) for d in range(1, b) if digits.count(d)}
    assert digit_frequencies(values, b).counts == expected
    if b == 16:
        assert digit_frequencies([1.5e-323], 16).counts == {12: 1}
        assert digit_frequencies([np.finfo(float).max], 16).counts == {15: 1}


# ---------------------------------------------------------------------------
# the sliced core against whole-array statistics, bit for bit


def whole_array_ks(u: np.ndarray) -> float:
    ranks = np.arange(u.size + 1) / u.size
    return float(max((ranks[1:] - u).max(), (u - ranks[:-1]).max()))


def whole_array_weyl(u: np.ndarray, K: int) -> np.ndarray:
    """`sorted_weyl_sums` with one reduceat per power over all of u."""
    M, J = _kernel_shape(K)
    n = u.size
    starts = np.searchsorted(u, np.arange(M) / M)
    counts = np.diff(starts, append=n)
    filled = np.flatnonzero(counts)
    delta = u * M
    delta -= np.floor(delta)
    sums = np.zeros((J + 1, M))
    sums[0] = counts
    power = delta.copy()
    for j in range(1, J + 1):
        sums[j, filled] = np.add.reduceat(power, starts[filled])
        if j < J:
            power *= delta
    spectra = np.fft.rfft(sums, axis=1)[:, 1 : K + 1].conj()
    z = 2j * np.pi * np.arange(1, K + 1) / M
    term = np.ones(K, dtype=complex)
    total = spectra[0].copy()
    for j in range(1, J + 1):
        term *= z / j
        total += term * spectra[j]
    return total / n


def whole_array_report(logb: np.ndarray, b: int, raw: np.ndarray | None = None) -> dict:
    """Exclusion, fractions, KS, digits, Weyl and ECDF quantiles of a
    verdict, each taken over whole arrays at once."""
    finite = np.isfinite(logb)
    guarded = np.where(finite, logb, -np.inf)
    running_max = np.maximum.accumulate(guarded)
    keep = finite & (guarded >= running_max + math.log(CONFIG.thresholds.zero_rel) / math.log(b))
    if raw is None:
        kept = logb[keep]
        u = np.sort(np.minimum(kept - np.floor(kept), math.nextafter(1.0, 0.0)))
    else:
        u = log_fractions(raw[keep], b)
    stride = max(1, u.size // 512)
    quantiles = np.minimum(np.power(float(b), u[stride - 1 :: stride]), math.nextafter(float(b), 1.0))
    weyl = whole_array_weyl(u, CONFIG.weyl_k)
    return {
        "excluded": int(logb.size - keep.sum()),
        "distance": whole_array_ks(u),
        "digits": digit_counts(u, b),
        "weyl": {k: min(float(abs(w)), 1.0) for k, w in enumerate(weyl, start=1)},
        "quantiles": tuple(quantiles.tolist()),
    }


def assert_bit_equal(report, u: np.ndarray, logb: np.ndarray, raw: np.ndarray | None = None) -> None:
    """`report` and the CLI's ECDF significands of the sorted kept
    fractions u against the whole-array statistics of logb (or raw)."""
    ref = whole_array_report(logb, report.base, raw)
    assert report.excluded_sample_count == ref["excluded"]
    assert report.significand_distance == ref["distance"]
    assert report.digit_histogram.counts == ref["digits"]
    assert report.weyl.magnitudes == ref["weyl"]
    assert tuple(_ecdf_significands(u, report.base).tolist()) == ref["quantiles"]


def judged_logs(logb: np.ndarray, b: int = 10) -> tuple:
    """`benford_report_from_log_samples`'s report, and the sorted kept
    fractions that `_verdict_from_logb` leaves at the front of its buffer."""
    report = benford_report_from_log_samples(logb, b, config=CONFIG)
    buf = logb.copy()
    assert _verdict_from_logb(buf, b, float(logb.size), 1.0, CONFIG, None) == report
    return report, buf[: report.sample_count - report.excluded_sample_count]


def growing_logs(n: int, seed: int) -> np.ndarray:
    """A growing log signal with a dip below the cutoff every ~50 samples."""
    rng = np.random.default_rng(seed)
    logb = 1e-3 * np.arange(n) + rng.uniform(0.0, 3.0, n)
    logb[rng.random(n) < 0.02] -= 20.0
    return logb


@pytest.mark.parametrize("n", [SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 1])
def test_slice_counts_match_whole_arrays(n):
    logb = growing_logs(n, n)
    report, u = judged_logs(logb)
    assert 0 < report.excluded_sample_count < n
    assert_bit_equal(report, u, logb)


def test_running_max_carries_across_slices():
    logb = growing_logs(3 * SLICE, 1)
    logb[SLICE - 1] = 100.0  # a slice's last sample is the peak ...
    logb[SLICE : SLICE + 40] = 80.0  # ... that excludes the next slice's first samples
    logb[SLICE + 40 : SLICE + 60] = 95.0  # kept again: 95 > 100 - 13
    logb[SLICE + 60 : 2 * SLICE] = 50.0
    report, u = judged_logs(logb)
    assert report.excluded_sample_count >= SLICE - 20
    assert_bit_equal(report, u, logb)


def test_zero_runs_across_slices_and_a_slice_excluded_whole():
    logb = growing_logs(4 * SLICE, 2)
    logb[SLICE - 10 : SLICE + 10] = -np.inf  # exact zeros across a slice edge
    logb[2 * SLICE : 3 * SLICE] = -np.inf  # a slice with no kept sample
    logb[3 * SLICE : 3 * SLICE + 5] = -np.inf
    report, u = judged_logs(logb)
    assert report.excluded_sample_count >= SLICE + 25
    assert_bit_equal(report, u, logb)


@pytest.mark.parametrize("at", [SLICE // 2 - 1, SLICE // 2, SLICE, SLICE - 1, 2 * SLICE - 1, 2 * SLICE])
def test_ks_maximum_at_a_slice_edge(at):
    # the KS distance takes SLICE / 2 samples at a time
    n = 3 * SLICE
    u = (np.arange(n) + 0.5) / n
    if at % (SLICE // 2) == 0:
        u[at] = u[at - 1]  # the ECDF jumps twice at u[at]: the gap above it peaks there
    else:
        u[at] = u[at + 1]  # the gap below u[at] peaks there
    ranks = np.arange(n + 1) / n
    gaps = np.maximum(ranks[1:] - u, u - ranks[:-1])
    assert int(np.argmax(gaps)) == at
    assert uniform_distance(u) == whole_array_ks(u)


def test_ks_of_no_sample_is_a_usage_error():
    with pytest.raises(UsageError, match="at least one sample"):
        uniform_distance(np.empty(0))


def test_weyl_cell_fuller_than_a_slice_and_empty_cells_at_group_edges():
    rng = np.random.default_rng(3)
    M, _ = _kernel_shape(CONFIG.weyl_k)
    # a cell holding 3 slices of samples; filled cells 0.6 slices apart, so
    # groups of whole cells end on runs of empty cells; empty cells at both ends
    crowd = (2048 + rng.uniform(0.0, 1.0, 3 * SLICE)) / M
    spread = [(m + rng.uniform(0.0, 1.0, int(0.6 * SLICE))) / M for m in range(10, M - 10, 250)]
    u = np.sort(np.concatenate([crowd, *spread]))
    assert np.array_equal(sorted_weyl_sums(u, CONFIG.weyl_k), whole_array_weyl(u, CONFIG.weyl_k))


def test_near_constant_signal_matches_whole_arrays():
    # ex-3-9's constant observable: rounding noise puts u in the first and
    # the last cell (up to t = 370, before its samples underflow)
    spec = ObservableOnFlow(np.array([[1.0, 1.0], [1.0, 1.0]]), Observable(np.array([[1.0, -1.0], [0.0, 0.0]])))
    grid = SamplingGrid(T=370.0, step=0.005)
    logb = sample_log_signal(spec, grid, 10).values
    report, u = _signal_verdict(spec, 10, grid, config=CONFIG)
    assert report.excluded_sample_count == 0
    assert max(report.digit_histogram.counts.values()) > SLICE
    assert_bit_equal(report, u, logb)


@pytest.mark.parametrize("b", [2, 10])
def test_raw_digit_edges_match_whole_arrays(b):
    values = np.array(edge_values(b))
    raw = np.tile(values, -(-2 * SLICE // values.size) + 1)
    raw[SLICE : SLICE + 7] = 0.0  # exact zeros across a slice edge
    raw[SLICE + 7 : SLICE + 90] *= 1e-15  # excluded by the running max
    report, u = _samples_verdict(raw, b, config=CONFIG)
    with np.errstate(divide="ignore"):
        logb = np.log(np.abs(raw)) / math.log(b)
    assert report.excluded_sample_count > 7
    assert_bit_equal(report, u, logb, raw)


def memory_cases() -> dict:
    """Signals whose verdicts are checked against allocation bounds."""
    s, b = block_parts(23, [("spiral", 1.0, 2.0), ("real", 0.4)])
    c = np.random.default_rng(24).standard_normal(b.shape)
    norm_grid = SamplingGrid(T=2e3, step=1e-2)  # 2e5 samples
    return {
        "eigen observable 1e6": (ObservableOnFlow(s @ b @ np.linalg.inv(s), Observable(c)), CONFIG.grid),
        "3x3 spectral 2e5": (NormOnFlow(block_generator(4, SPIRAL3), "spectral"), norm_grid),
        "4x4 frobenius 2e5": (NormOnFlow(block_generator(7, SPIRAL4), "frobenius"), norm_grid),
        "synthetic 1e6": (Synthetic(0.5, 1, ((1.0, 1.0), (2.3, 0.5))), CONFIG.grid),
    }


def traced_peak(run) -> tuple:
    """run()'s result and the peak of the memory it traced (numpy data included)."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verdict_and_sampler_allocate_no_grid_long_temporaries():
    # Every sampler makes one pass of SLICE samples at a time, so beyond its
    # output it holds only pass-sized temporaries; the verdict writes its
    # fractions over the log samples, so it allocates no grid-long array at all.
    for label, (spec, grid) in memory_cases().items():
        tracemalloc.start()
        try:
            logb = sample_log_signal(spec, grid, 10).values
            sampling_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _verdict_from_logb(logb, 10, grid.T, grid.step, CONFIG, None)
            verdict_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert logb.size == grid.count, label
        assert sampling_peak - logb.nbytes <= 12 * 2**20, label
        assert verdict_peak <= 4 * 2**20, label


@pytest.mark.parametrize("label", ["eigen observable 1e6", "3x3 spectral 2e5", "4x4 frobenius 2e5", "synthetic 1e6"])
def test_a_verdict_peaks_at_its_grid_buffer_and_keeps_no_sample(label):
    # The grid buffer is the one grid-long array; a norm's GEMM and norm run
    # over groups of whole blocks holding at most SLICE sums (a 4x4 norm's 16
    # rows of a whole pass would be 4 MiB), so every other temporary is a
    # pass's worth at most.  The report keeps no sample: it pickles small.
    spec, grid = memory_cases()[label]
    benford_verdict(spec, 10, grid, config=CONFIG)  # first-call allocations are not the verdict's
    report, peak = traced_peak(lambda: benford_verdict(spec, 10, grid, config=CONFIG))
    assert peak <= 8 * grid.count + 1.5 * 2**20
    assert len(pickle.dumps(report)) < 1024


def test_samples_verdict_holds_one_log_array_beside_the_values():
    # abs, log and the division by ln b go into one array
    values = np.random.default_rng(5).standard_normal(10**6) * 1e3
    benford_report_from_samples(values, config=CONFIG)
    _, peak = traced_peak(lambda: benford_report_from_samples(values, config=CONFIG))
    assert peak <= values.nbytes + 2.5 * 2**20


# ---------------------------------------------------------------------------
# the block-bound exclusion against the per-sample rule, bit for bit


def per_sample_keep(logb: np.ndarray, b: int) -> np.ndarray:
    """The exclusion rule one sample at a time: a finite sample is kept when
    it is at least the running max of the finite samples so far plus the
    cutoff log_b(zero_rel)."""
    cutoff = math.log(CONFIG.thresholds.zero_rel) / math.log(b)
    keep = np.zeros(logb.size, dtype=bool)
    peak = -math.inf
    for i, x in enumerate(logb.tolist()):
        if math.isfinite(x):
            peak = max(peak, x)
            keep[i] = x >= peak + cutoff
    return keep


@pytest.fixture
def scanned(monkeypatch):
    """The sizes of the sample arrays the per-sample rule is run on."""
    sizes = []
    rule = flowsignal._running_max_keep

    def spy(part, seed, cutoff):
        sizes.append(part.size)
        return rule(part, seed, cutoff)

    monkeypatch.setattr(flowsignal, "_running_max_keep", spy)
    return sizes


def assert_exclusion_matches(logb: np.ndarray, b: int = 10, raw: np.ndarray | None = None) -> int:
    """Kept count and sorted u of a verdict equal those of the per-sample
    rule; returns the kept count."""
    keep = per_sample_keep(logb, b)
    u = fractions_of_logs(logb[keep]) if raw is None else log_fractions(raw[keep], b)
    work = logb.copy()
    report = _verdict_from_logb(work, b, 1.0, 1.0, CONFIG, None, raw)
    kept = report.sample_count - report.excluded_sample_count
    assert kept == u.size
    assert np.array_equal(work[:kept], u)
    return kept


def planted_trace(n: int, seed: int) -> np.ndarray:
    """A growing log signal, whose blocks the bound can prove, with dips
    below the cutoff and -inf samples planted at random, and NaN and +inf
    samples at random in its first slice."""
    rng = np.random.default_rng(seed)
    logb = 1e-3 * np.arange(n) + rng.uniform(0.0, 3.0, n)
    logb[rng.random(n) < 2e-4] -= 20.0
    logb[rng.integers(0, n, 6)] = -np.inf
    for value, count in ((np.nan, 3), (np.inf, 2)):
        logb[rng.integers(0, min(n, SLICE), count)] = value
    return logb


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK + 1, SLICE + 1, 2 * SLICE + 777])
@pytest.mark.parametrize("seed", [1, 2])
def test_planted_non_finite_samples_match_per_sample_rule(n, seed, scanned):
    logb = planted_trace(n, seed)
    assert 0 < assert_exclusion_matches(logb) < n
    assert sum(scanned) > 0
    if n > SLICE:
        assert sum(scanned) < n  # whole blocks were kept under the bound


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("base", ["flat", "growing"])
def test_dips_at_the_cutoff_and_one_ulp_either_side(ulps, base, scanned):
    # a dip sits exactly at the running max plus the cutoff (kept), or one ulp
    # below it (excluded) or above it; on a flat signal the running max is the
    # block bound, so a dip one ulp above leaves its block proven
    n = 2 * SLICE + 3 * _BLOCK + 5
    cutoff = math.log(CONFIG.thresholds.zero_rel) / math.log(10)
    logb = np.full(n, 40.0) if base == "flat" else 40.0 + 1e-3 * np.arange(n)
    at = np.random.default_rng(7).choice(np.arange(1, n, 2), 40, replace=False)  # no two adjacent
    edge = logb[at - 1] + cutoff
    logb[at] = edge if ulps == 0 else np.nextafter(edge, ulps * np.inf)
    kept = assert_exclusion_matches(logb)
    assert kept == n - (40 if ulps < 0 else 0)
    if base == "flat" and ulps > 0:
        assert not scanned
    else:
        assert 0 < sum(scanned) < n


def test_compaction_after_early_exclusions(scanned):
    # exact zeros in the first blocks, then 100 samples below the cutoff, put
    # every later slice's fractions over its own samples, shifted.  The third
    # slice holds exact zeros, so its blocks are kept whole or scanned from
    # the bound before them, and its last sample is a peak that the fourth
    # slice's first 999 samples lie below by more than the cutoff
    n = 4 * SLICE + 321
    logb = 1000.0 + 1e-3 * np.arange(n)
    logb[: 2 * _BLOCK + 1] = -np.inf
    logb[2 * _BLOCK + 2 : 2 * _BLOCK + 102] = 500.0
    logb[2 * SLICE + 5 * _BLOCK + 3 : 3 * SLICE : 7 * _BLOCK] = -np.inf
    logb[3 * SLICE - 1] += 14.0
    zeros = int(np.isinf(logb).sum())
    assert assert_exclusion_matches(logb) == n - zeros - 100 - 999
    assert 0 < sum(scanned) < SLICE


def test_peak_of_a_slice_kept_whole_carries_over(scanned):
    # the first slice is kept whole; its max excludes the whole next slice
    logb = np.concatenate([np.full(SLICE, 100.0), np.full(SLICE, 80.0), np.full(5, 95.0)])
    assert assert_exclusion_matches(logb) == SLICE + 5
    assert sum(scanned) == SLICE


@pytest.mark.parametrize("b", [2, 10])
def test_raw_values_match_per_sample_rule(b, scanned):
    rng = np.random.default_rng(b)
    n = 2 * SLICE + 555
    raw = rng.choice([-1.0, 1.0], n) * np.exp(1e-3 * np.arange(n)) * rng.uniform(1.0, 10.0, n)
    raw[: len(edge_values(b))] = edge_values(b)
    raw[rng.integers(0, n, 5)] = 0.0
    raw[rng.integers(0, n, 5)] *= 1e-15  # below zero_rel times the running max
    with np.errstate(divide="ignore"):
        logb = np.log(np.abs(raw)) / math.log(b)
    assert 0 < assert_exclusion_matches(logb, b, raw) < n
    assert 0 < sum(scanned) < n


# ---------------------------------------------------------------------------
# two halves at once: the helper thread, and the splits it runs, bit for bit


def test_an_error_in_the_helpers_half_reaches_the_caller():
    def fails(message):
        def run():
            raise ValueError(message)
        return run

    with pytest.raises(ValueError, match="helper"):
        flowsignal._in_parallel(lambda: 1, fails("helper"), 2 * SLICE)
    with pytest.raises(ValueError, match="inline"):  # both halves fail: the inline error wins
        flowsignal._in_parallel(fails("inline"), fails("helper"), 2 * SLICE)
    assert flowsignal._in_parallel(lambda: 1, lambda: 2, 2 * SLICE) == (1, 2)


def test_a_verdict_leaves_no_thread_behind():
    spec = Synthetic(0.5, 1, ((1.0, 1.0), (2.3, 0.5)))
    before = threading.active_count()
    benford_verdict(spec, 10, CONFIG.grid, config=CONFIG)
    assert threading.active_count() == before


def test_the_helper_runs_under_the_callers_errstate():
    # a new thread starts at numpy's defaults, so the helper must take the
    # caller's error modes and error callback with it
    def state():
        return np.geterr(), np.geterrcall()

    def callback(kind, flag):
        pass

    with np.errstate(under="raise", divide="ignore", over="call", call=callback):
        inline, helper = flowsignal._in_parallel(state, state, 2 * SLICE)
        assert helper == inline == state()
    assert helper[0]["under"] == "raise"
    assert helper[1] is callback
    assert flowsignal._in_parallel(state, state, 2 * SLICE)[1] == state()


def test_one_cpu_runs_both_halves_inline_with_the_same_bits(monkeypatch):
    spec = Synthetic(0.5, 1, ((1.0, 1.0), (2.3, 0.5)))
    report, u = _signal_verdict(spec, 10, CONFIG.grid, config=CONFIG)
    u = u.copy()
    threads = []

    def where():
        threads.append(threading.get_ident())

    if flowsignal._cpus() > 1:
        flowsignal._in_parallel(where, where, 2 * SLICE)
        assert threads[0] != threads[1]  # the helper ran, so the split was taken both ways
    monkeypatch.setattr(flowsignal, "_cpus", lambda: 1)
    threads.clear()
    flowsignal._in_parallel(where, where, 2 * SLICE)
    assert threads == [threading.get_ident()] * 2
    alone, u_alone = _signal_verdict(spec, 10, CONFIG.grid, config=CONFIG)
    assert alone == report
    assert np.array_equal(u_alone, u)


def test_a_thread_that_cannot_start_runs_both_halves_inline(monkeypatch):
    # a process or thread limit makes Thread.start raise: the verdict still
    # runs, both halves inline, with the same bits
    spec = Synthetic(0.5, 1, ((1.0, 1.0), (2.3, 0.5)))
    report, u = _signal_verdict(spec, 10, CONFIG.grid, config=CONFIG)
    u = u.copy()
    threads = []

    def where():
        threads.append(threading.get_ident())

    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(flowsignal, "_cpus", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    flowsignal._in_parallel(where, where, 2 * SLICE)
    assert threads == [threading.get_ident()] * 2
    alone, u_alone = _signal_verdict(spec, 10, CONFIG.grid, config=CONFIG)
    assert alone == report
    assert np.array_equal(u_alone, u)


def test_verdicts_from_many_caller_threads_match_one_at_a_time():
    # four callers, each with its own helper, on two CPUs, switching as often
    # as the interpreter allows: every report and kept fraction is the same
    grid = SamplingGrid(T=(2 * SLICE + 1.5) * 0.01, step=0.01)
    specs = list(split_specs().values()) * 2
    alone = [_signal_verdict(spec, 10, grid, config=CONFIG) for spec in specs]
    results = [None] * len(specs)

    def judge(i: int) -> None:
        for _ in range(3):
            report, u = _signal_verdict(specs[i], 10, grid, config=CONFIG)
            results[i] = report == alone[i][0] and np.array_equal(u, alone[i][1])
            if not results[i]:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=judge, args=(i,)) for i in range(len(specs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [True] * len(specs)


def serial_sample(spec, grid: SamplingGrid, b: int, monkeypatch):
    """The sampler with every pass in one loop, in grid order."""
    with monkeypatch.context() as m:
        fill = flowsignal._fill_passes
        m.setattr(flowsignal, "_fill_passes", lambda out, grid, run, stop, split: fill(out, grid, run, stop, False))
        return sample_log_signal(spec, grid, b)


def assert_split_verdict_is_serial(spec, grid: SamplingGrid, monkeypatch, b: int = 10) -> None:
    """The sampled logs and the truncation time against the serial loop,
    and the report and sorted kept fractions against one `np.sort` of the
    kept fractions with `uniform_distance` and `sorted_weyl_sums` over the
    whole array."""
    serial = serial_sample(spec, grid, b, monkeypatch)
    sample = sample_log_signal(spec, grid, b)
    assert np.array_equal(sample.values, serial.values)
    assert sample.truncated_at == serial.truncated_at
    report, u = _signal_verdict(spec, b, grid, config=CONFIG)
    assert report.truncated_at == serial.truncated_at
    logb = serial.values
    keep = per_sample_keep(logb, b)
    expected = np.sort(np.minimum(logb[keep] - np.floor(logb[keep]), math.nextafter(1.0, 0.0)))
    assert report.excluded_sample_count == logb.size - expected.size
    assert np.array_equal(u, expected)
    assert report.significand_distance == uniform_distance(expected)
    weyl = {k: min(float(abs(w)), 1.0) for k, w in enumerate(sorted_weyl_sums(expected, CONFIG.weyl_k), start=1)}
    assert report.weyl.magnitudes == weyl
    assert report.digit_histogram.counts == digit_counts(expected, b)


def split_specs() -> dict:
    s, b = block_parts(25, [("spiral", 1.0, 2.0), ("real", 0.4)])
    c = np.random.default_rng(26).standard_normal(b.shape)
    return {
        "observable": ObservableOnFlow(s @ b @ np.linalg.inv(s), Observable(c)),
        "synthetic": Synthetic(0.5, 1, ((1.0, 1.0), (2.3, 0.5))),
    }


@pytest.mark.parametrize("n", [2 * SLICE - 1, 2 * SLICE, 2 * SLICE + 1, 10**6 + 7])
@pytest.mark.parametrize("kind", ["observable", "synthetic"])
def test_split_verdicts_match_serial_sampling_and_whole_arrays(kind, n, monkeypatch):
    grid = SamplingGrid(T=(n + 0.5) * 0.01, step=0.01)
    assert grid.count == n
    assert_split_verdict_is_serial(split_specs()[kind], grid, monkeypatch)


def test_split_decaying_verdict_matches_serial_sampling_and_whole_arrays(monkeypatch):
    # |f| falls under zero_rel times its start near t = 3000: about 300,000
    # of 1e6 samples are kept, so the sort and the statistics are split too
    spec = ObservableOnFlow(block_generator(27, [("spiral", -0.01, 2.0)]), Observable(np.eye(2)))
    report = benford_verdict(spec, 10, CONFIG.grid, config=CONFIG)
    kept = report.sample_count - report.excluded_sample_count
    assert 2 * SLICE <= kept < report.sample_count - 2 * SLICE
    assert_split_verdict_is_serial(spec, CONFIG.grid, monkeypatch)


@pytest.mark.parametrize("b", [10, 2])
@pytest.mark.parametrize("at", [3000.0, 8000.0], ids=["first half", "helper's half"])
def test_a_cut_in_either_half_is_the_serial_cut(at, b, monkeypatch):
    # |r| t / ln b reaches 2^52 + 2^11 at about t = `at`: before or past the
    # end of the first half's 15 passes (t = 4915.2)
    r = 1.04e16 * math.log(b) / math.log(10) / at
    spec = ObservableOnFlow(np.array([[r]]), Observable(np.array([[1.0]])))
    grid = CONFIG.grid
    times = grid.times()
    first = int(np.argmax(r * times >= flowsignal._NO_FRACTION * math.log(b)))
    assert (first < 15 * SLICE) == (at < 4915.2)
    assert sample_log_signal(spec, grid, b).truncated_at == times[first]
    assert_split_verdict_is_serial(spec, grid, monkeypatch, b)


@pytest.mark.parametrize("split", [False, True])
def test_no_pass_reaches_the_cut_and_a_helper_error_reaches_the_caller(split):
    # the cut is fixed before sampling: no pass at or past it is filled, in
    # either half; with no cut, an error in the helper's half is raised
    grid = SamplingGrid(T=(4 * SLICE + 0.5) * 0.01, step=0.01)
    out = grid.empty()
    filled = []

    def fill(lo: int, t: np.ndarray) -> int:
        filled.append((lo, lo + t.size))
        out[lo : lo + t.size] = 0.0
        return t.size

    stop = 3 * SLICE + 5  # in the helper's half, which starts at 2 SLICE
    sample = flowsignal._fill_passes(out, grid, fill, stop, split)
    assert sorted(filled) == [(0, SLICE), (SLICE, 2 * SLICE), (2 * SLICE, 3 * SLICE), (3 * SLICE, stop)]
    assert sample.values.size == stop
    assert sample.truncated_at == grid.times()[stop]

    def fails_in_the_last_pass(lo: int, t: np.ndarray) -> int:
        if lo >= 3 * SLICE:
            raise FloatingPointError("the helper's half")
        return t.size

    with pytest.raises(FloatingPointError, match="helper's half"):
        flowsignal._fill_passes(out, grid, fails_in_the_last_pass, grid.count, split)


@pytest.mark.parametrize("samples", [0, 1, 2 * SLICE - 1])
def test_in_parallel_below_two_slices_starts_no_thread(samples, monkeypatch):
    def refuse(self):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(flowsignal, "_cpus", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    threads = []

    def where():
        threads.append(threading.get_ident())
        return len(threads)

    assert flowsignal._in_parallel(where, where, samples) == (1, 2)
    assert threads == [threading.get_ident()] * 2


def fraction_cut_cases() -> dict:
    """(grid, b, r, index) with the 2^52 cut at a chosen grid index (None
    for the random cases): r puts |r| t / ln b at _NO_FRACTION just past
    the time t_{i+1} of index i."""
    def at(index: int, grid: SamplingGrid, b: int) -> float:
        return flowsignal._NO_FRACTION * math.log(b) / ((index + 1.0) * grid.step) * (1 + 1e-15)

    small = SamplingGrid(T=(3 * SLICE + 0.5) * 0.01, step=0.01)
    split = SamplingGrid(T=(4 * SLICE + 0.5) * 0.1, step=0.1)
    cases = {
        "index 1": (small, 10, at(1, small, 10), 1),
        "SLICE": (small, 2, -at(SLICE, small, 2), SLICE),
        "SLICE + 1": (small, 16, at(SLICE + 1, small, 16), SLICE + 1),
        "middle pass of a split grid": (split, 10, at(2 * SLICE + 17, split, 10), 2 * SLICE + 17),
        "last sample": (small, 10, at(small.count - 1, small, 10), small.count - 1),
        "past the grid": (small, 10, at(small.count, small, 10), small.count),
    }
    rng = np.random.default_rng(30)
    for i in range(20):
        grid = SamplingGrid(T=float(rng.uniform(1.0, 1e4)), step=float(rng.choice([0.01, 0.1, 0.25, 1 / 3])))
        b = int(rng.choice([2, 3, 10, 16]))
        cases[f"random {i}"] = (grid, b, at(int(rng.integers(1, grid.count + 5)), grid, b) * rng.choice([-1.0, 1.0]), None)
    return cases


@pytest.mark.parametrize("label", list(fraction_cut_cases()))
def test_fraction_count_is_the_first_time_past_the_bound(label):
    grid, b, r, index = fraction_cut_cases()[label]
    past = abs(r) * grid.times() >= flowsignal._NO_FRACTION * math.log(b)
    expected = int(np.argmax(past)) if past.any() else grid.count
    assert expected == (expected if index is None else index) > 0
    assert flowsignal._fraction_count(grid, r, b) == expected


def test_fraction_count_at_the_first_sample_is_a_usage_error():
    grid = SamplingGrid(T=2.0, step=0.01)
    r = flowsignal._NO_FRACTION * math.log(10) / 0.01
    with pytest.raises(UsageError, match=r"from t = 0\.01 on at 2\^52 or more"):
        flowsignal._fraction_count(grid, r, 10)
    assert flowsignal._fraction_count(grid, r * (1 - 1e-9), 10) == 1
