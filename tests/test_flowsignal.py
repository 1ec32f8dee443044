import math

import numpy as np
import pytest

from benflow.config import RunConfig, VerdictThresholds
from benflow.dataio import load_signal_csv
from benflow.demos import (
    frobenius_example_generator,
    frobenius_norm_signal_3x3_example,
    psi_norm_closed_form,
    spiral_generators,
)
from benflow.errors import DomainError, SignalOverflowError, UnsupportedStructureError, UsageError
from benflow.flowsignal import (
    NormOnFlow,
    Observable,
    ObservableOnFlow,
    Synthetic,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_TRIVIAL,
    benford_report_from_log_samples,
    benford_report_from_samples,
    benford_verdict,
    build_observable_for_modes,
    eval_signal,
    sample_log_signal,
    triviality_check,
)
from benflow.matrixcore import expm
from benflow.significand import SLICE
from benflow.udmod1 import SamplingGrid

LN10 = math.log(10)
RANK_ONE = np.array([[1.0, 1.0], [1.0, 1.0]])
GRID = SamplingGrid(T=1e4, step=1e-2)


class TestEvalSignal:
    def test_rotation_entry(self):
        a = np.array([[0.7, -2.0], [2.0, 0.7]])
        spec = ObservableOnFlow(a, Observable.entry(0, 0, 2))
        for t in (0.0, 0.9, 4.2):
            assert eval_signal(spec, t) == pytest.approx(
                math.exp(0.7 * t) * math.cos(2 * t), abs=1e-9 * math.exp(0.7 * t)
            )

    def test_spiral_norm_is_pure_exponential(self):
        phi, _ = spiral_generators()
        spec = NormOnFlow(phi, "spectral")
        for t in (0.5, 2.0):
            assert eval_signal(spec, t) == pytest.approx(math.exp(t), rel=1e-12)

    def test_second_spiral_norm_closed_form(self):
        _, psi = spiral_generators()
        spec = NormOnFlow(psi, "spectral")
        for t in (0.4, 1.9, 3.3):
            assert eval_signal(spec, t) == pytest.approx(
                float(psi_norm_closed_form(t)), rel=1e-11
            )

    def test_synthetic_constant(self):
        spec = Synthetic(r=0.0, k=0, modes=((0.0, 1.0),))
        assert eval_signal(spec, 12.3) == 1.0

    def test_synthetic_exact_to_closed_form(self):
        spec = Synthetic(r=0.25, k=2, modes=((1.5, 2.0), (0.0, -0.5)))
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.1, 30, 20):
            closed = math.exp(0.25 * t) * t**2 * (2 * math.cos(1.5 * t) - 0.5)
            assert eval_signal(spec, t) == pytest.approx(closed, rel=1e-14)

    def test_synthetic_validation(self):
        with pytest.raises(UsageError):
            Synthetic(r=1.0, k=0, modes=((1.0, 1.0), (1.0, 2.0)))
        with pytest.raises(UsageError):
            Synthetic(r=1.0, k=0, modes=((1.0, 0.0),))
        with pytest.raises(UsageError):
            Synthetic(r=1.0, k=-1, modes=((1.0, 1.0),))

    @pytest.mark.parametrize(
        "spec", [Synthetic(r=1000.0, k=0, modes=((0.0, 1.0),)), Synthetic(r=0.0, k=200, modes=((0.0, 1.0),))]
    )
    def test_synthetic_overflow_names_t(self, spec):
        # e^{rt} and t^k each overflow at t = 1000
        with pytest.raises(SignalOverflowError) as info:
            eval_signal(spec, 1000.0)
        assert info.value.t == 1000.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_norms_match_lapack(self, d):
        # eval_signal takes its norms of expm's matrix with the sampler's kernels
        a = np.random.default_rng(d).standard_normal((d, d))
        for t in (0.0, 0.37, 2.5, 11.0):
            m = expm(a, t)
            for kind, ref in (("spectral", 2), ("frobenius", "fro"), ("max", None)):
                exact = np.max(np.abs(m)) if ref is None else np.linalg.norm(m, ref)
                assert abs(eval_signal(NormOnFlow(a, kind), t) - exact) <= 8 * np.spacing(exact)

    def test_norm_kinds_ordering(self):
        a = np.array([[1.0, 3.0], [0.0, -1.0]])
        t = 0.8
        m_spec = eval_signal(NormOnFlow(a, "spectral"), t)
        m_fro = eval_signal(NormOnFlow(a, "frobenius"), t)
        m_max = eval_signal(NormOnFlow(a, "max"), t)
        assert m_max <= m_spec <= m_fro


class TestFrobeniusExample:
    def test_value_at_zero(self):
        assert frobenius_norm_signal_3x3_example(0.0) == pytest.approx(math.sqrt(3))

    def test_value_at_one(self):
        expected = math.sqrt(2 * math.e**2 + 100 / math.e)
        assert frobenius_norm_signal_3x3_example(1.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_norm(self):
        gen = frobenius_example_generator()
        for t in np.linspace(0.0, 10.0, 41):
            direct = eval_signal(NormOnFlow(gen, "frobenius"), float(t))
            closed = frobenius_norm_signal_3x3_example(float(t))
            assert abs(direct - closed) <= 1e-10 * closed

    def test_asymptotic_rate(self):
        alpha = LN10 - 0.5
        t = 40.0
        ratio = frobenius_norm_signal_3x3_example(t) / math.exp(alpha * t)
        assert ratio == pytest.approx(1.0, abs=1e-12)


class TestTriviality:
    def test_symmetric_difference_vanishes(self):
        obs = Observable(np.array([[1.0, 0.0], [0.0, -1.0]]))
        assert triviality_check(RANK_ONE, obs)
        # oracle: direct sampling of the flow
        for t in (0.3, 1.7):
            assert abs(eval_signal(ObservableOnFlow(RANK_ONE, obs), t)) < 1e-12

    def test_constant_signal_not_trivial(self):
        obs = Observable(np.array([[1.0, -1.0], [0.0, 0.0]]))
        assert not triviality_check(RANK_ONE, obs)
        assert eval_signal(ObservableOnFlow(RANK_ONE, obs), 2.2) == pytest.approx(1.0)

    def test_zero_observable(self):
        assert triviality_check(RANK_ONE, Observable(np.zeros((2, 2))))


class TestBuildObservable:
    def test_rotation_single_mode(self):
        a = np.array([[0.3, -1.7], [1.7, 0.3]])
        obs = build_observable_for_modes(a, [complex(0.3, 1.7)], [1.0])
        spec = ObservableOnFlow(a, obs)
        for t in np.linspace(0.0, 10.0, 25):
            expected = math.exp(0.3 * t) * math.cos(1.7 * t)
            assert eval_signal(spec, float(t)) == pytest.approx(expected, abs=1e-8 * math.exp(0.3 * t))

    def test_diagonal_mode(self):
        a = np.diag([1.0, 2.0])
        obs = build_observable_for_modes(a, [2.0], [3.0])
        for t in (0.0, 1.0, 3.0):
            assert eval_signal(ObservableOnFlow(a, obs), t) == pytest.approx(
                3 * math.exp(2 * t), rel=1e-8
            )

    def test_rank_one_dominant_mode(self):
        obs = build_observable_for_modes(RANK_ONE, [2.0], [1.0])
        # closed form: the signal must match e^{2t} exactly
        for t in (0.0, 0.5, 2.0):
            assert eval_signal(ObservableOnFlow(RANK_ONE, obs), t) == pytest.approx(
                math.exp(2 * t), rel=1e-8
            )

    def test_multiple_modes_combined(self):
        gen = frobenius_example_generator()
        alpha = LN10 - 0.5
        obs = build_observable_for_modes(gen, [complex(1, math.pi), alpha], [2.0, -1.0])
        for t in np.linspace(0.0, 8.0, 17):
            expected = 2 * math.exp(t) * math.cos(math.pi * t) - math.exp(alpha * t)
            assert eval_signal(ObservableOnFlow(gen, obs), float(t)) == pytest.approx(
                expected, abs=1e-7 * math.exp(alpha * max(t, 1.0))
            )

    def test_defective_mode_rejected(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(UnsupportedStructureError):
            build_observable_for_modes(a, [0.0], [1.0])

    def test_non_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            build_observable_for_modes(RANK_ONE, [5.0], [1.0])

    def test_negative_imaginary_representative_rejected(self):
        a = np.array([[0.3, -1.7], [1.7, 0.3]])
        with pytest.raises(UsageError):
            build_observable_for_modes(a, [complex(0.3, -1.7)], [1.0])


class TestNoFractionalBit:
    # from |r t / ln b| = 2^52 + 2^11 on, every log sample is 2^52 or more
    # whatever the shifted signal, and a double that large has no fraction
    GRID = SamplingGrid(T=2.0, step=0.01)

    @staticmethod
    def _bound(b, t0=0.01):
        return (2.0**52 + 2.0**11) * math.log(b) / t0

    @pytest.mark.parametrize("b", [2, 10, 16])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_just_past_the_bound_is_a_usage_error(self, b, sign):
        r = sign * self._bound(b) * (1 + 1e-9)
        for spec in (Synthetic(r=r, k=0, modes=((0.0, 1.0),)), ObservableOnFlow(np.array([[r]]), Observable(np.array([[1.0]])))):
            with pytest.raises(UsageError, match="2\\^52"):
                sample_log_signal(spec, self.GRID, b)

    @pytest.mark.parametrize("b", [2, 10, 16])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_just_inside_the_bound_is_sampled(self, b, sign):
        r = sign * self._bound(b) * (1 - 1e-9)
        logs = sample_log_signal(Synthetic(r=r, k=0, modes=((0.0, 1.0),)), self.GRID, b).values
        assert logs.size == self.GRID.count and np.isfinite(logs).all()
        # further inside, the log samples carry fractional bits
        logs = sample_log_signal(Synthetic(r=sign * self._bound(b) * 1e-6 * math.pi, k=0, modes=((0.0, 1.0),)), self.GRID, b).values
        assert (logs[:50] != np.round(logs[:50])).any()

    def test_a_pass_past_the_bound_names_its_first_time(self):
        # the first pass keeps its fractions, the second (from t = SLICE + 1) has none
        grid = SamplingGrid(T=float(SLICE + 100), step=1.0)
        r = self._bound(10, t0=SLICE + 1)
        with pytest.raises(UsageError, match=f"from t = {float(SLICE + 1)} on"):
            sample_log_signal(Synthetic(r=r, k=0, modes=((0.0, 1.0),)), grid, 10)


class TestVerdicts:
    @pytest.mark.parametrize("step", [0.25, 0.2, 0.01])
    def test_ten_to_the_t_synthetic_equals_flow(self, step):
        # 10^t two ways: both go through one log tail, so the log samples
        # are t exactly and the fractions fill the lattice of the step
        config = RunConfig(step=step)
        synthetic = Synthetic(r=LN10, k=0, modes=((0.0, 1.0),))
        flow = ObservableOnFlow(np.array([[LN10]]), Observable(np.array([[1.0]])))
        logs = [sample_log_signal(spec, config.grid, 10).values for spec in (synthetic, flow)]
        assert logs[0].tobytes() == logs[1].tobytes()
        report, flow_report = (benford_verdict(spec, config=config) for spec in (synthetic, flow))
        assert report.to_dict() == flow_report.to_dict()
        assert abs(report.significand_distance - step) <= 1e-15
        if step == 0.25:
            assert report.digit_histogram.counts == {1: 20000, 3: 10000, 5: 10000}

    def test_pure_exponential_passes(self):
        report = benford_verdict(Synthetic(r=1.0, k=0, modes=((0.0, 1.0),)), 10, GRID)
        assert report.verdict == VERDICT_PASS
        assert report.significand_distance < 0.01
        assert report.excluded_sample_count == 0

    def test_second_spiral_norm_fails(self):
        _, psi = spiral_generators()
        report = benford_verdict(NormOnFlow(psi, "spectral"), 10, GRID)
        assert report.verdict == VERDICT_FAIL
        assert not report.inconclusive
        assert report.weyl.magnitudes[2] > 2 * report.weyl.noise_floor(report.thresholds.weyl_multiplier)

    def test_trivial_signal(self):
        obs = Observable(np.array([[1.0, 2.0], [-2.0, -1.0]]))  # H(A) = H(I) = 0
        report = benford_verdict(ObservableOnFlow(RANK_ONE, obs), 10, GRID)
        assert report.verdict == VERDICT_TRIVIAL
        assert report.significand_distance is None
        assert report.excluded_sample_count == report.sample_count

    def test_pure_cosine_fails(self):
        # a bounded oscillation is never conformant: no drift to mix digits
        spec = Synthetic(r=0.0, k=0, modes=((2 * math.pi / LN10, 1.0),))
        report = benford_verdict(spec, 10, GRID)
        assert report.verdict == VERDICT_FAIL

    def test_spiral_observable_signal_fails(self):
        # drift present but rationally locked to the oscillation
        spec = Synthetic(r=1.0, k=0, modes=((2 * math.pi / LN10, 1.0),))
        report = benford_verdict(spec, 10, GRID)
        assert report.verdict == VERDICT_FAIL
        assert report.weyl.magnitudes[2] > 0.1

    def test_polynomial_factor_does_not_change_verdict(self):
        flat = benford_verdict(Synthetic(r=1.0, k=0, modes=((0.0, 1.0),)), 10, GRID)
        poly = benford_verdict(Synthetic(r=1.0, k=3, modes=((0.0, 1.0),)), 10, GRID)
        assert flat.verdict == poly.verdict == VERDICT_PASS
        locked_flat = benford_verdict(
            Synthetic(r=1.0, k=0, modes=((2 * math.pi / LN10, 1.0),)), 10, GRID
        )
        locked_poly = benford_verdict(
            Synthetic(r=1.0, k=2, modes=((2 * math.pi / LN10, 1.0),)), 10, GRID
        )
        assert locked_flat.verdict == locked_poly.verdict == VERDICT_FAIL

    def test_base_2_pass(self):
        report = benford_verdict(Synthetic(r=1.0, k=0, modes=((0.0, 1.0),)), 2, GRID)
        assert report.verdict == VERDICT_PASS

    def test_near_zero_exclusion_counts(self):
        # a signal with regularly spaced exact zeros: cosine grid hits
        spec = Synthetic(r=1.0, k=0, modes=((math.pi / GRID.step / 2, 1.0),))
        report = benford_verdict(spec, 10, GRID)
        assert report.excluded_sample_count < report.sample_count

    def test_inconclusive_band_is_flagged_fail(self):
        # a uniform cloud plus a small spike: distance lands between the
        # pass threshold and the hard-fail multiple
        logb = np.tile(np.linspace(0.0, 1.0, 1000, endpoint=False), 10)
        tweaked = np.concatenate([logb, np.full(600, 0.5)])
        thresholds = VerdictThresholds(distance=0.02, fail_factor=3.0)
        report = benford_report_from_log_samples(tweaked, 10, config=RunConfig(thresholds=thresholds))
        assert thresholds.distance < report.significand_distance < 3 * thresholds.distance
        assert report.verdict == VERDICT_FAIL
        assert report.inconclusive

    def test_too_few_kept_samples_inconclusive(self):
        # 99 kept samples at evenly spaced fractions: judged, but not passed
        logb = np.concatenate([np.full(901, -np.inf), (np.arange(99) + 0.5) / 99 + 3])
        report = benford_report_from_log_samples(logb)
        assert report.excluded_sample_count == 901
        assert report.significand_distance == pytest.approx(0.5 / 99)
        assert report.weyl is not None and report.digit_histogram.total == 99
        assert report.verdict == VERDICT_FAIL
        assert report.inconclusive

    def test_report_dict_round_trip(self):
        report = benford_verdict(Synthetic(r=1.0, k=0, modes=((0.0, 1.0),)), 10, GRID)
        d = report.to_dict()
        assert d["verdict"] == VERDICT_PASS
        assert set(d["thresholds"]) == {"distance", "weyl_multiplier", "fail_factor", "zero_rel"}
        assert d["sample_count"] == GRID.count


class TestDichotomyCorpus:
    """Flows with exponentially nonresonant spectra never produce a clean
    FAIL: every observable signal conforms or vanishes."""

    def corpus(self):
        rng = np.random.default_rng(1234)
        scalar = np.array([[1.0]])
        rotation = np.array([[1.0, -math.pi], [math.pi, 1.0]])
        three = frobenius_example_generator()
        hyperbolic = np.array([[2.0, 1.0], [0.0, -1.0]])
        pairs = []
        for _ in range(6):
            pairs.append((scalar, Observable(rng.standard_normal((1, 1)))))
        for _ in range(6):
            pairs.append((rotation, Observable(rng.standard_normal((2, 2)))))
        for _ in range(5):
            pairs.append((three, Observable(rng.standard_normal((3, 3)))))
        for _ in range(5):
            pairs.append((hyperbolic, Observable(rng.standard_normal((2, 2)))))
        return pairs

    def test_nonresonant_generators_never_fail(self):
        outcomes = []
        for gen, obs in self.corpus():
            report = benford_verdict(ObservableOnFlow(gen, obs), 10, GRID)
            outcomes.append(report.verdict)
            assert report.verdict in (VERDICT_PASS, VERDICT_TRIVIAL), (gen.shape, report.verdict)
        assert len(outcomes) >= 20
        assert VERDICT_PASS in outcomes

    def test_base_invariance_on_hyperbolic_corpus(self):
        # algebraic hyperbolic generators: verdicts replicate across bases
        gens = [np.array([[1.0]]), np.array([[2.0, 1.0], [0.0, -1.0]])]
        rng = np.random.default_rng(7)
        for gen in gens:
            obs = Observable(rng.standard_normal(gen.shape))
            for b in (2, 10):
                report = benford_verdict(ObservableOnFlow(gen, obs), b, GRID)
                assert report.verdict == VERDICT_PASS, (gen.shape, b)


class TestDefectiveFallback:
    def test_jordan_block_signal(self):
        # defective generator: signal t e^{0 t} entry, sampled by stepping
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        grid = SamplingGrid(T=200.0, step=0.1)
        sample = sample_log_signal(ObservableOnFlow(a, Observable.entry(0, 1, 2)), grid, 10)
        times = grid.times()
        expected = np.log10(times)  # H(e^{tA}) = t for the (0,1) entry
        assert np.max(np.abs(sample.values - expected)) < 1e-9

    def test_overflow_truncates_and_reports(self):
        a = np.array([[0.0, 1e304], [0.0, 0.0]])
        grid = SamplingGrid(T=5e4, step=5.0)
        sample = sample_log_signal(ObservableOnFlow(a, Observable.entry(0, 1, 2)), grid, 10)
        assert sample.truncated_at is not None
        assert sample.values.size < grid.count


class TestExternalSamples:
    def test_all_zero_csv_trivial(self):
        report = benford_report_from_samples(np.zeros(200), 10)
        assert report.verdict == VERDICT_TRIVIAL

    def test_exponential_samples_pass(self):
        t = np.arange(1, 200_001) * (500.0 / 200_000)
        report = benford_report_from_samples(np.exp(t), 10)
        assert report.verdict == VERDICT_PASS

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("t,value\n0.0,1.5\n0.1,2.5\n0.2,-3.5\n")
        times, values = load_signal_csv(path)
        assert times.tolist() == [0.0, 0.1, 0.2]
        assert values.tolist() == [1.5, 2.5, -3.5]

    def test_csv_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.5\n0.1,oops\n")
        with pytest.raises(UsageError, match="line 3"):
            load_signal_csv(path)

    def test_too_few_samples_rejected(self):
        with pytest.raises(UsageError):
            benford_report_from_samples(np.ones(10), 10)

    @pytest.mark.parametrize(
        "labels",
        [{"step": 0.0}, {"step": -0.5}, {"step": math.inf}, {"horizon": -1.0}, {"horizon": math.nan}, {"horizon": 0.0}],
        ids=["step-0", "step-negative", "step-inf", "horizon-negative", "horizon-nan", "horizon-0"],
    )
    def test_log_sample_labels_must_be_finite_and_positive(self, labels):
        logb = np.linspace(0.0, 50.0, 1000)
        with pytest.raises(UsageError, match="finite and > 0"):
            benford_report_from_log_samples(logb, 10, **labels)

    def test_log_samples_given_are_not_written(self):
        logb = np.linspace(0.0, 50.0, 1000)
        kept = logb.copy()
        report = benford_report_from_log_samples(logb, 10, horizon=20.0, step=0.02)
        assert (report.horizon, report.step) == (20.0, 0.02)
        assert np.array_equal(logb, kept)


class TestRunConfig:
    """Every verdict setting comes from one RunConfig."""

    SPEC = Synthetic(r=1.0, k=0, modes=((1.0, 1.0), (3.0, 0.5)))
    SMALL = RunConfig(base=3, horizon=200.0, step=0.05, weyl_k=3, thresholds=VerdictThresholds(distance=0.05))

    def test_grid_property(self):
        assert RunConfig(horizon=50.0, step=0.5).grid == SamplingGrid(T=50.0, step=0.5)
        assert RunConfig().grid == GRID

    def test_config_supplies_every_setting(self):
        report = benford_verdict(self.SPEC, config=self.SMALL)
        explicit = benford_verdict(self.SPEC, 3, self.SMALL.grid, config=self.SMALL)
        assert report.to_dict() == explicit.to_dict()
        assert (report.base, report.horizon, report.step) == (3, 200.0, 0.05)
        assert report.sample_count == self.SMALL.grid.count
        assert report.weyl.K == 3
        assert report.thresholds == self.SMALL.thresholds

    def test_positional_base_and_grid_override_config(self):
        grid = SamplingGrid(T=100.0, step=0.1)
        report = benford_verdict(self.SPEC, 10, grid, config=self.SMALL)
        assert (report.base, report.horizon, report.sample_count) == (10, 100.0, grid.count)
        assert report.weyl.K == 3

    def test_sample_entry_points_read_config(self):
        values = np.exp(np.arange(1, 2001) * 0.01)
        for report in (
            benford_report_from_samples(values, config=self.SMALL),
            benford_report_from_log_samples(np.log(values) / math.log(3), config=self.SMALL),
        ):
            assert report.base == 3
            assert report.weyl.K == 3
            assert report.thresholds == self.SMALL.thresholds
        assert benford_report_from_samples(values, 10, config=self.SMALL).base == 10

    def test_thresholds_keys_in_order(self):
        report = benford_verdict(self.SPEC, config=self.SMALL)
        assert list(report.to_dict()["thresholds"].items()) == [
            ("distance", 0.05),
            ("weyl_multiplier", 3.0),
            ("fail_factor", 2.0),
            ("zero_rel", 1e-13),
        ]
