import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benflow.errors import DomainError, UsageError
from benflow.significand import (
    DigitHistogram,
    digit_frequencies,
    digit_law_pmf,
    log_fractions,
    significand,
    uniform_distance,
)


def ks_distance(samples, b: int) -> float:
    """Sup-distance of the sample's significand ECDF from the log_b law,
    over its nonzero entries."""
    return uniform_distance(log_fractions(samples, b))


class TestSignificand:
    def test_e_base10(self):
        s = significand(math.e, 10)
        assert abs(s - math.e) < 1e-15
        assert int(significand(math.e, 10)) == 2

    def test_zero_convention(self):
        assert significand(0.0, 7) == 0.0
        assert int(significand(0.0, 10)) == 0

    def test_negative_uses_absolute_value(self):
        s = significand(-math.exp(math.e), 10)
        assert abs(s - 1.5154262241479262) < 1e-12
        assert int(significand(-math.exp(math.e), 10)) == 1

    def test_dyadic_base2(self):
        assert significand(0.25, 2) == 1.0

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                significand(bad, 10)

    def test_bad_base_rejected(self):
        with pytest.raises(UsageError):
            significand(1.0, 1)
        with pytest.raises(UsageError):
            significand(1.0, 2.5)

    def test_exact_scale_invariance_base10(self):
        # x * 10^k is exactly representable while the odd part fits 53 bits
        m, e = 7125, -10
        x = m * 2.0**e
        ref = significand(x, 10)
        for k in range(1, 12):
            scaled = (m * 5**k) * 2.0 ** (e + k)
            assert significand(scaled, 10) == ref

    @given(st.integers(1, 2**30), st.integers(-200, 200), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_exact_scale_invariance_base2(self, m, e, k):
        x = m * 2.0**e
        assert significand(x * 2.0**k, 2) == significand(x, 2)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
        st.sampled_from([2, 3, 10, 16]),
    )
    @settings(max_examples=300, deadline=None)
    def test_range_invariant(self, x, b):
        s = significand(x, b)
        if x == 0:
            assert s == 0.0
        else:
            assert 1.0 <= s < b
            assert 1 <= int(significand(x, b)) <= b - 1

    def test_extremes(self):
        for x in (5e-324, 1.7e308, 2.2250738585072014e-308):
            s = significand(x, 10)
            assert 1.0 <= s < 10.0


class TestDigitLaw:
    def test_cdf_reference_values(self):
        # P(digit 1) = log10 2 and P(digit 9) = 1 - log10 9
        pmf = digit_law_pmf(10)
        assert abs(pmf[0] - 0.3010299957) < 1e-9
        assert abs(pmf[8] - 0.0457574906) < 1e-9

    def test_cdf_at_one_is_zero(self):
        # S = 1 sits at u = log_b 1 = 0, where the law's CDF log_b s is zero
        for b in (2, 5, 10, 60):
            assert log_fractions(np.array([1.0]), b).tolist() == [0.0]

    def test_pmf_first_entry(self):
        assert abs(digit_law_pmf(10)[0] - 0.30103) < 1e-5

    def test_pmf_base2(self):
        assert np.allclose(digit_law_pmf(2), [1.0])

    def test_pmf_sums_to_one(self):
        for b in (2, 7, 10, 37):
            assert abs(digit_law_pmf(b).sum() - 1.0) < 1e-12

    def test_pmf_strictly_decreasing(self):
        pmf = digit_law_pmf(10)
        assert np.all(np.diff(pmf) < 0)


class TestEmpiricalDistance:
    def test_two_point_sample(self):
        assert ks_distance([1.0, math.sqrt(10)], 10) == pytest.approx(0.5)

    def test_constant_sample(self):
        assert ks_distance([5.0, 5.0, 5.0], 10) == pytest.approx(math.log10(5))

    def test_exponential_grid(self):
        # signal b^t on [0, 100]: sup distance bounded by 1/(ln b * T) plus grid error
        t = np.arange(1, 100_001) * 1e-3
        samples = np.exp(t * math.log(10))
        d = ks_distance(samples, 10)
        assert d < 0.011

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            ks_distance([], 10)
        with pytest.raises(UsageError):
            ks_distance([0.0, 0.0], 10)

    def test_diaconis_equivalence(self):
        # the significand statistic equals the mod-1 statistic of log_b
        rng = np.random.default_rng(7)
        samples = rng.lognormal(0.0, 4.0, 3000) * rng.choice([-1.0, 1.0], 3000)
        d_sig = ks_distance(samples, 10)
        # independent oracle: fractional parts of log10|x| against the uniform law
        frac = np.sort(np.mod(np.log10(np.abs(samples)), 1.0))
        n = frac.size
        upper = np.max(np.arange(1, n + 1) / n - frac)
        lower = np.max(frac - np.arange(0, n) / n)
        assert abs(d_sig - max(upper, lower)) < 1e-12


class TestDigitFrequencies:
    def test_counts_and_zeros(self):
        hist = digit_frequencies([1.0, 19.5, 0.011, 0.0], 10)
        assert hist.counts == {1: 3}
        assert hist.zeros == 1
        assert hist.total == 4

    def test_empty(self):
        hist = digit_frequencies([], 10)
        assert hist.counts == {}
        assert hist.total == 0

    def test_exponential_meets_analytic_bound(self):
        # e^t over [0, 200 ln 10]: each digit frequency within 1/T plus grid slack
        T = 200 * math.log(10)
        t = np.arange(1, 200_001) * (T / 200_000)
        hist = digit_frequencies(np.exp(t), 10)
        freqs = hist.frequencies()
        pmf = digit_law_pmf(10)
        assert np.max(np.abs(freqs - pmf)) < 1.0 / T + 0.002

    def test_histogram_invariant_enforced(self):
        with pytest.raises(UsageError):
            DigitHistogram(base=10, counts={1: 2}, zeros=0, total=3)

