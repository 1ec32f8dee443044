"""The statistics core over the sorted fractions u of log_b|f|.

The KS distance, the digit counts and the Weyl magnitudes are all read
off one sorted array u in [0, 1).  This module checks that array two
ways: against the earlier route that formed significands b**u, binned
them and took their log again (copied below as the oracle), and, for
raw values sitting exactly on a digit edge, against the exact scalar
`first_digit`.
"""
import math

import numpy as np
import pytest

from benflow.config import RunConfig
from benflow.demos import ex_3_5_log_fixtures
from benflow.flowsignal import (
    Observable,
    ObservableOnFlow,
    benford_report_from_log_samples,
    benford_report_from_samples,
    benford_verdict,
    sample_log_signal,
)
from benflow.significand import digit_frequencies, empirical_distance, first_digit, fractions_of_logs
from benflow.udmod1 import SamplingGrid
from test_sampler_paths import CASES, block_parts

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
    grid = SamplingGrid(T=1e4, step=1e-2)
    for logb in ex_3_5_log_fixtures(grid.times(), b):
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
    report = benford_verdict(spec, 10, grid, config=CONFIG)
    assert_matches_route(report, logb)
    assert max(report.ecdf_quantiles) < 10.0
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
    digits = [first_digit(x, b) for x in values]
    expected = {d: digits.count(d) for d in range(1, b) if digits.count(d)}
    assert digit_frequencies(values, b).counts == expected
    assert abs(empirical_distance(values, b) - edge_distance(digits, b)) <= 1e-12
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
    digits = [first_digit(x, b) for x in values]
    expected = {d: digits.count(d) for d in range(1, b) if digits.count(d)}
    assert digit_frequencies(values, b).counts == expected
    if b == 16:
        assert digit_frequencies([1.5e-323], 16).counts == {12: 1}
        assert digit_frequencies([np.finfo(float).max], 16).counts == {15: 1}
