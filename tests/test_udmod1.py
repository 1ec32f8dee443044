import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benflow.errors import DomainError, UsageError
from benflow.flowsignal import benford_report_from_log_samples
from benflow.significand import SLICE, log_fractions
from benflow.udmod1 import (
    SamplingGrid,
    TorusMapSpec,
    WeylReport,
    _kernel_shape,
    pushforward_fourier,
    sorted_weyl_sums,
    torus_map_apply,
)
from helpers import FLAG_GAP, fractions_of_logs, subsequence_weyl_averages, weyl_average

# frozen fine-grid oracles for the two circle maps of the spiral flows
# (midpoint rule, 1e6 points; odd frequencies vanish by half-period symmetry)
PSI_NORM_MAP_K2 = 0.5298570930792
OBSERVABLE_MAP_K2 = 0.3206796288555


def observable_map(x):
    """x + log10|cos 2 pi x|: the signal map of the resonant spiral flows."""
    return np.mod(x + np.log10(np.abs(np.cos(2 * np.pi * x))), 1.0)


def psi_norm_map(x):
    inner = (
        25.0
        - 9.0 * np.cos(4 * np.pi * x)
        + 3.0 * np.abs(np.sin(2 * np.pi * x)) * np.sqrt(82.0 - 18.0 * np.cos(4 * np.pi * x))
    )
    return np.mod(x + 0.5 * np.log10(inner), 1.0)


class TestSamplingGrid:
    def test_count_and_times(self):
        grid = SamplingGrid(T=10.0, step=0.01)
        assert grid.count == 1000
        times = grid.times()
        assert times[0] == pytest.approx(0.01)
        assert times[-1] <= 10.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(UsageError):
            SamplingGrid(T=1.0, step=0.5)

    def test_bad_parameters_rejected(self):
        with pytest.raises(UsageError):
            SamplingGrid(T=-1.0, step=0.1)
        with pytest.raises(UsageError):
            SamplingGrid(T=1.0, step=2.0)

    @pytest.mark.parametrize("T, step", [(math.inf, 0.01), (1e300, 1e-300)])
    def test_non_finite_count_rejected(self, T, step):
        with pytest.raises(UsageError, match="must be finite"):
            SamplingGrid(T=T, step=step)

    def test_unallocatable_grid_is_a_usage_error(self):
        # 1e17 samples (711 PiB of times) are refused at once: nothing is allocated
        grid = SamplingGrid(T=1e15, step=1e-2)
        with pytest.raises(UsageError, match=f"{grid.count} samples"):
            grid.times()

    @pytest.mark.parametrize("start, stop", [(0, 100), (SLICE, SLICE + 5), (0, 2 * SLICE + 1), (SLICE + 7, 3 * SLICE), (0, None)])
    def test_passes_keep_to_their_range(self, start, stop):
        # every pass ends at `stop`, a multiple of SLICE or not, and the
        # passes' times are the grid's times start..stop - 1
        grid = SamplingGrid(T=(2 * SLICE + 10.5) * 0.25, step=0.25)
        passes = list(grid.passes(start, stop))
        end = grid.count if stop is None else min(stop, grid.count)
        assert [lo for lo, _ in passes] == list(range(start, end, SLICE))
        assert all(t.size <= SLICE for _, t in passes)
        assert np.array_equal(np.concatenate([t for _, t in passes]), np.arange(start + 1, end + 1) * 0.25)


def weyl_report(samples, K: int) -> WeylReport:
    """The Weyl report of any finite samples at frequencies 1..K."""
    return WeylReport.from_sorted(fractions_of_logs(np.asarray(samples, dtype=float)), K)


class TestWeylSums:
    """Weyl averages of sequences, as the package kernel reads them off sorted fractions."""

    def test_constant_zero_sequence(self):
        assert weyl_average(np.zeros(10), 1) == pytest.approx(1 + 0j)

    def test_golden_rotation_small(self):
        golden = (math.sqrt(5) - 1) / 2
        x = np.arange(1, 100_001) * golden
        value = weyl_average(x, 1)
        assert abs(value) < 1e-3
        # independent oracle: plain compensated summation
        re = math.fsum(math.cos(2 * math.pi * n * golden) for n in range(1, 2001))
        im = math.fsum(math.sin(2 * math.pi * n * golden) for n in range(1, 2001))
        oracle = complex(re, im) / 2000
        direct = weyl_average(np.arange(1, 2001) * golden, 1)
        assert abs(direct - oracle) < 1e-12

    def test_half_integer_aliasing(self):
        value = weyl_average(np.arange(200) / 2.0, 2)
        assert value == pytest.approx(1 + 0j, abs=1e-12)

    def test_empty_rejected(self):
        # outside samples reach the kernel through the log-sample entry point
        with pytest.raises(UsageError, match="at least 100 samples"):
            benford_report_from_log_samples(np.array([]), 10)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.integers(-4, 4).filter(lambda k: k != 0),
    )
    @settings(max_examples=150, deadline=None)
    def test_magnitude_bounded_by_one(self, xs, k):
        assert abs(weyl_average(xs, abs(k))) <= 1 + 1e-12

    def test_magnitude_one_iff_aligned_phases(self):
        aligned = np.array([0.25, 1.25, 7.25])
        assert abs(weyl_average(aligned, 1)) == pytest.approx(1.0)
        spread = np.array([0.0, 0.25])
        assert abs(weyl_average(spread, 1)) < 1.0


class TestWeylAverage:
    def test_linear_phase_closed_form(self):
        alpha, T, k = 0.37, 500.0, 2
        grid = SamplingGrid(T=T, step=1e-3)
        estimate = weyl_average(alpha * grid.times(), k)
        closed = (cmath.exp(2j * math.pi * k * alpha * T) - 1) / (2j * math.pi * k * alpha * T)
        assert abs(estimate - closed) < 1e-3
        assert abs(estimate) <= 1.0 / (math.pi * abs(k) * alpha * T) + 1e-2

    def test_constant_function(self):
        c = 0.3123
        assert weyl_average(np.full(500, c), 2) == pytest.approx(
            cmath.exp(2j * math.pi * 2 * c)
        )

    def test_full_period(self):
        delta = 1e-3
        grid = SamplingGrid(T=1.0, step=delta)
        value = weyl_average(grid.times(), 1)
        assert abs(value) < 2 * math.pi * delta


class TestCudReport:
    """Weyl reports on any finite samples, read off their sorted fractions."""

    def test_irrational_rotation_equidistributes(self):
        grid = SamplingGrid(T=1e4, step=1e-2)
        report = weyl_report(grid.times() * math.log(2) / math.log(10), 5)
        assert report.max_magnitude < 0.01
        assert report.max_magnitude < report.noise_floor(3.0)

    def test_constant_samples(self):
        report = weyl_report(np.full(300, 0.77), 4)
        assert all(m == pytest.approx(1.0) for m in report.magnitudes.values())
        assert report.max_magnitude > report.noise_floor(3.0)

    def test_observable_map_magnitude_at_two(self):
        # samples of the resonant-spiral signal map over an irrational rotation
        grid = SamplingGrid(T=1e4, step=1e-2)
        x = grid.times() / math.log(10)
        samples = observable_map(np.mod(x, 1.0))
        report = weyl_report(samples, 5)
        assert report.magnitudes[2] == pytest.approx(OBSERVABLE_MAP_K2, abs=0.01)
        assert report.magnitudes[2] > 10 * report.noise_floor(3.0)
        assert report.max_magnitude > report.noise_floor(3.0)

    def test_too_few_samples(self):
        # a report on outside samples needs MIN_SAMPLES of them
        with pytest.raises(UsageError, match="at least 100 samples"):
            benford_report_from_log_samples(np.zeros(99), 10)
        assert benford_report_from_log_samples(np.zeros(100), 10).weyl.count == 100

    def test_frequency_scaling_identity(self):
        # the magnitude of k'(k f) is by definition the magnitude of (k'k) f
        samples = np.linspace(0, 1, 500) ** 2
        m1 = abs(weyl_average(3 * samples, 2))
        m2 = abs(weyl_average(samples, 6))
        assert m1 == pytest.approx(m2, abs=1e-14)

    def test_vanishing_perturbation_preserves_magnitudes(self):
        # adding a sequence converging to a constant moves each magnitude
        # by at most the mean phase displacement
        rng = np.random.default_rng(4)
        base = rng.uniform(0, 1, 5000)
        decay = 0.2 / np.arange(1, 5001)
        for k in (1, 2, 3):
            m0 = abs(weyl_average(base + 0.123, k))
            m1 = abs(weyl_average(base + 0.123 + decay, k))
            assert abs(m1 - m0) <= 2 * math.pi * k * np.mean(np.abs(decay)) + 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.linspace(0.0, 3.0, 200)
        samples[17] = bad
        with pytest.raises(DomainError):
            log_fractions(samples, 10)
        with pytest.raises(DomainError):
            pushforward_fourier(lambda x: np.where(x < 0.5, 0.1, bad), 1)


_RNG = np.random.default_rng(2024)
_CELL = 1.0 / 4096
# inputs that stress the cell-moment kernel; raw samples, not yet reduced mod 1
KERNEL_CASES = {
    "uniform": _RNG.random(1500),
    "one_cell": 0.3 + _CELL * 0.999 * _RNG.random(400),
    "cell_edges": _RNG.integers(0, 4096, 600) * _CELL,
    "largest_below_one": np.concatenate([np.full(150, math.nextafter(1.0, 0.0)), _RNG.random(50)]),
    "trailing_cells_empty": 0.1 * _RNG.random(2000),
    "n_100": _RNG.random(100),
    "raw_unsorted_far_outside": _RNG.normal(0.0, 1e5, 400),
}


@functools.lru_cache(maxsize=None)
def mpmath_weyl_average(case: str, k: int) -> complex:
    """(1/n) sum exp(2 pi i k x_n) over the exact float samples, at 40 digits."""
    with mpmath.workdps(40):
        xs = [mpmath.mpf(float(x)) for x in KERNEL_CASES[case]]
        return complex(mpmath.fsum(mpmath.expjpi(2 * k * x) for x in xs) / len(xs))


class TestWeylKernel:
    """The cell-moment kernel against 40-digit sums of the raw samples."""

    @pytest.mark.parametrize("K", [1, 5, 64, 512])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matches_mpmath(self, case, K):
        x = KERNEL_CASES[case]
        sums = sorted_weyl_sums(fractions_of_logs(x), K)
        report = WeylReport.from_sorted(fractions_of_logs(x), K)
        assert sums.shape == (K,) and report.K == K and report.count == x.size
        for k in sorted({1, 2, 3, K // 2, K - 1, K} & set(range(1, K + 1))):
            exact = mpmath_weyl_average(case, k)
            assert abs(sums[k - 1] - exact) <= 1e-14
            assert abs(report.magnitudes[k] - abs(exact)) <= 1e-14

    def test_large_K_doubles_the_cells(self):
        # K > 512 doubles the cells, so 2 pi K / M stays at most pi / 4
        x = KERNEL_CASES["n_100"]
        sums = sorted_weyl_sums(fractions_of_logs(x), 2000)
        for k in (1, 1999, 2000):
            assert abs(sums[k - 1] - mpmath_weyl_average("n_100", k)) <= 1e-14

    @pytest.mark.parametrize("K", [1, 2, 5, 64, 511, 512, 513, 4096, 10**5])
    def test_order_from_frequency_bound(self, K):
        M, J = _kernel_shape(K)
        x = 2 * math.pi * K / M
        assert M >= 4096 and M & (M - 1) == 0 and x <= math.pi / 4
        assert x ** (J + 1) / math.factorial(J + 1) <= 1e-17 < x**J / math.factorial(J)

    def test_default_frequencies_take_4096_cells_and_order_6(self):
        assert _kernel_shape(5) == (4096, 6)


class TestDeltaSampling:
    """Weyl averages along arithmetic subsequences n * delta against the time average."""

    def test_irrational_slope_all_pass(self):
        d = 1 / math.sqrt(3)
        discrete, continuous = subsequence_weyl_averages(lambda t: math.sqrt(2) * t, 1e4, [d, 1 / math.sqrt(5)])
        assert all(abs(s) < 0.02 for s in discrete)
        assert abs(continuous) < 0.02
        assert all(abs(s - continuous) <= FLAG_GAP for s in discrete)
        # independent oracle for the first delta: direct summation
        n = int(1e4 / d)
        seq = np.exp(2j * np.pi * math.sqrt(2) * d * np.arange(1, n + 1))
        assert abs(discrete[0] - seq.mean()) < 1e-12

    def test_rational_pathology_flagged(self):
        # delta * slope rational: the arithmetic subsequence sits on a lattice
        discrete, continuous = subsequence_weyl_averages(
            lambda t: math.sqrt(2) * t, 1e4, [1 / math.sqrt(2), 1 / math.sqrt(3)]
        )
        assert abs(discrete[0]) == pytest.approx(1.0)
        assert abs(discrete[0] - continuous) > FLAG_GAP
        assert abs(discrete[1] - continuous) <= FLAG_GAP

    def test_identity_pathology(self):
        (discrete,), continuous = subsequence_weyl_averages(lambda t: t, 1e4, [1.0])
        assert abs(discrete) == pytest.approx(1.0)
        assert abs(continuous) < 0.01
        assert abs(discrete - continuous) > FLAG_GAP

    def test_constant_function_all_one(self):
        discrete, continuous = subsequence_weyl_averages(lambda t: np.zeros_like(t), 1e3, [0.7, 1.3])
        assert all(abs(s) == pytest.approx(1.0) for s in discrete)
        assert abs(continuous) == pytest.approx(1.0)
        assert all(abs(s - continuous) <= FLAG_GAP for s in discrete)


class TestTorusMap:
    def test_log_zero_convention_quarter_turn(self):
        spec = TorusMapSpec(p=(1,), alpha=2.0, u=(1.0,))
        assert torus_map_apply(spec, np.array([[0.25]])) == pytest.approx([0.25])

    def test_zero_point(self):
        spec = TorusMapSpec(p=(0,), alpha=5.0, u=(1.0,))
        assert torus_map_apply(spec, np.array([[0.0]]))[0] == 0.0

    def test_cancelling_weights_2d(self):
        spec = TorusMapSpec(p=(0, 0), alpha=1.0, u=(1.0, 1.0))
        assert torus_map_apply(spec, np.array([[0.0, 0.5]]))[0] == 0.0

    def test_batch_output_in_unit_interval(self):
        spec = TorusMapSpec(p=(1,), alpha=1 / math.log(10), u=(1.0,))
        values = torus_map_apply(spec, np.linspace(0, 1, 1001, endpoint=False)[:, None])
        assert values.shape == (1001,)
        assert np.all((0 <= values) & (values < 1))

    @pytest.mark.parametrize(
        "points", [0.25, [0.25], [0.25, 0.5], [[0.25, 0.5]], np.zeros((2, 1, 1))],
        ids=["scalar", "point-d1", "circle-batch", "wrong-d", "3-d"],
    )
    def test_non_batch_shapes_rejected(self, points):
        # only (n, d) batches are taken; d = 1 here
        with pytest.raises(UsageError, match=r"\(n, 1\) array"):
            torus_map_apply(TorusMapSpec(p=(1,), alpha=1.0, u=(1.0,)), points)

    def test_zero_weight_vector_rejected(self):
        with pytest.raises(UsageError):
            TorusMapSpec(p=(1,), alpha=1.0, u=(0.0,))
        with pytest.raises(UsageError):
            TorusMapSpec(p=(1,), alpha=0.0, u=(1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(DomainError):
            torus_map_apply(TorusMapSpec(p=(1,), alpha=1.0, u=(1.0,)), np.array([[bad]]))
        with pytest.raises(DomainError):
            torus_map_apply(TorusMapSpec(p=(1, 2), alpha=0.5, u=(1.0, 0.5)), [[0.25, 0.5], [0.0, bad]])

    def test_absolute_continuity_no_empty_bins(self):
        # pushforward of the uniform grid fills every bin at 100 bins
        spec = TorusMapSpec(p=(1,), alpha=1 / math.log(10), u=(1.0,))
        values = torus_map_apply(spec, ((np.arange(100_000) + 0.5) / 100_000)[:, None])
        counts, _ = np.histogram(values, bins=100, range=(0.0, 1.0))
        assert np.all(counts > 0)


class TestPushforwardFourier:
    def test_total_mass(self):
        spec = TorusMapSpec(p=(1,), alpha=1.0, u=(1.0,))
        assert pushforward_fourier(spec, 0) == 1.0

    def test_norm_map_oracle_values(self):
        assert abs(pushforward_fourier(psi_norm_map, 2, 1_000_000)) == pytest.approx(
            PSI_NORM_MAP_K2, abs=1e-4
        )
        assert abs(pushforward_fourier(psi_norm_map, 2, 1_000_000)) > 0.05
        # odd frequencies vanish: advancing half a period shifts the map by 1/2
        assert abs(pushforward_fourier(psi_norm_map, 1, 1_000_000)) < 1e-8

    def test_observable_map_oracle_values(self):
        spec = TorusMapSpec(p=(1,), alpha=1 / math.log(10), u=(1.0,))
        assert abs(pushforward_fourier(spec, 2, 1_000_000)) == pytest.approx(
            OBSERVABLE_MAP_K2, abs=1e-4
        )
        assert abs(pushforward_fourier(spec, 1, 1_000_000)) < 1e-8

    def test_2d_map_runs(self):
        spec = TorusMapSpec(p=(1, 2), alpha=0.5, u=(1.0, 0.5))
        value = pushforward_fourier(spec, 1, 300)
        assert abs(value) <= 1.0

    def test_non_finite_map_values_rejected(self):
        # log10 of |cos| - 1/2 is NaN wherever |cos| < 1/2
        with pytest.raises(DomainError), np.errstate(invalid="ignore"):
            pushforward_fourier(lambda x: np.log10(np.abs(np.cos(2 * np.pi * x)) - 0.5), 1)

    def test_dimension_guard(self):
        spec = TorusMapSpec(p=(1, 1, 1, 1), alpha=1.0, u=(1.0, 1.0, 1.0, 1.0))
        with pytest.raises(UsageError, match="Monte Carlo"):
            pushforward_fourier(spec, 1, 1000)

    def test_grid_guard(self):
        spec = TorusMapSpec(p=(1, 1), alpha=1.0, u=(1.0, 1.0))
        with pytest.raises(UsageError):
            pushforward_fourier(spec, 1, 50_000)
