"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.  Thresholds and tolerances are pinned here; they are
the shipped defaults, not tuned values.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from benflow.config import RunConfig
from benflow.demos import (
    frobenius_example_generator,
    psi_norm_map,
    resonant_spiral_set,
    rotation_set_pi,
    scalar_set,
    spiral_generators,
)
from benflow.exactreal import ExactComplex, Monomial, SymbolBasis
from benflow.flowsignal import (
    NormOnFlow,
    Observable,
    ObservableOnFlow,
    VERDICT_FAIL,
    VERDICT_PASS,
    benford_verdict,
)
from benflow.genericity import EnsembleSpec, resonance_census
from benflow.matrixcore import expm, jordan_index, spectrum
from benflow.resonance import ShellPoint, is_b_nonresonant, is_exp_b_nonresonant
from benflow.significand import digit_frequencies, digit_law_pmf, log_fractions, uniform_distance
from benflow.udmod1 import SamplingGrid, pushforward_fourier
from helpers import FLAG_GAP, subsequence_weyl_averages

LN10 = math.log(10)
DEFAULTS = RunConfig()
GRID = SamplingGrid(T=DEFAULTS.horizon, step=DEFAULTS.step)


def report_pass(number: int, name: str, **stats):
    extra = "  ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}" for k, v in stats.items())
    print(f"\nACCEPTANCE {number:2d} {name}: PASS  {extra}")


def test_criterion_1_digit_law_constants():
    # P(digit 1) = log10 2 and P(digit 9) = 1 - log10 9
    pmf = digit_law_pmf(10)
    assert abs(pmf[0] - 0.3010299957) < 1e-9
    assert abs(pmf[8] - 0.0457574906) < 1e-9
    report_pass(1, "digit-law constants", log10_2=pmf[0])


def test_criterion_2_exponential_digit_bound():
    horizon, step, slack = 200.0, 1e-3, 0.002
    grid = SamplingGrid(T=horizon, step=step)
    pmf = digit_law_pmf(10)
    worst = 0.0
    for alpha in (math.log(2), 1.0, LN10):
        freqs = digit_frequencies(np.exp(alpha * grid.times()), 10).frequencies()
        deviation = float(np.max(np.abs(freqs - pmf)))
        bound = 1.0 / (alpha * horizon) + slack
        assert deviation < bound, (alpha, deviation, bound)
        worst = max(worst, deviation)
    report_pass(2, "exponential digit-frequency bound", worst_deviation=worst)


def test_criterion_3_spiral_norm_dichotomy():
    phi, psi = spiral_generators()
    phi_report = benford_verdict(NormOnFlow(phi, "spectral"), 10, GRID, config=DEFAULTS)
    assert phi_report.verdict == VERDICT_PASS
    assert phi_report.significand_distance < 0.02

    psi_report = benford_verdict(NormOnFlow(psi, "spectral"), 10, GRID, config=DEFAULTS)
    assert psi_report.verdict == VERDICT_FAIL

    # fine-grid pushforward oracle of the norm map fixes the expected
    # Weyl signature; the half-period symmetry e^{(ln10/2)A} = -sqrt(10) I
    # forces every odd-frequency coefficient to vanish exactly, so the
    # distinguishing frequency is the smallest even one
    oracle = {k: abs(pushforward_fourier(psi_norm_map, k, 1_000_000)) for k in range(1, 6)}
    assert oracle[1] < 1e-8  # the literal first frequency carries no signal
    k_star = max(oracle, key=oracle.get)
    assert k_star == 2
    floor = psi_report.weyl.noise_floor(DEFAULTS.thresholds.weyl_multiplier)
    measured = psi_report.weyl.magnitudes[k_star]
    assert measured > 2 * floor
    assert abs(measured - oracle[k_star]) < 0.01
    report_pass(
        3,
        "spiral norm dichotomy",
        phi_distance=phi_report.significand_distance,
        psi_weyl_k2=measured,
        oracle_k2=oracle[k_star],
        oracle_k1=oracle[1],
    )


def test_criterion_4_exact_resonance_table():
    basis10 = SymbolBasis.default(10)
    # nonzero real rates are exponentially nonresonant
    for alpha in (3, Fraction(5, 7), -2):
        assert not is_exp_b_nonresonant(scalar_set(alpha, 10), 10).resonant
    # pure imaginary pairs are resonant
    from benflow.exactreal import PI

    for beta in (1, 2):
        z = ExactComplex(basis10.zero(), basis10.term(PI, beta))
        assert is_exp_b_nonresonant([z, z.conjugate()], 10).resonant
    beta_rat = ExactComplex(basis10.zero(), basis10.rational(3))
    assert is_exp_b_nonresonant([beta_rat, beta_rat.conjugate()], 10).resonant
    # the resonant spiral pair carries the q=2, p=(1) witness
    verdict = is_exp_b_nonresonant(resonant_spiral_set(10), 10)
    assert verdict.resonant
    assert verdict.witness.q == 2 and tuple(verdict.witness.p) == (1,)
    # the pi-frequency pair is nonresonant in both bases
    for b in (2, 10):
        assert not is_exp_b_nonresonant(rotation_set_pi(1, b), b).resonant
    # {-e, e} is shell-resonant for every base
    for b in (2, 10):
        inv_ln = Monomial.of(**{f"ln{b}": -1})
        basis = SymbolBasis.default(b).extended(inv_ln)
        log_mod = basis.term(inv_ln, 1)
        points = [
            ShellPoint(log_mod, basis.zero()),
            ShellPoint(log_mod, basis.rational(Fraction(1, 2))),
        ]
        assert is_b_nonresonant(points, b).resonant
    report_pass(4, "exact resonance table", witness_q=verdict.witness.q)


def test_criterion_5_dominant_spectrum():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    fwd = spectrum(a, 1e-8)
    rev = spectrum(-a, 1e-8)
    assert [p.z for p in fwd.dominant] == [2.0 + 0.0j]
    assert [p.z for p in rev.dominant] == [0.0 + 0.0j]
    assert jordan_index(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0) == 1
    report_pass(5, "dominant spectrum and Jordan index", dom_forward=2.0, nilpotent_k=1)


def _multiset_distance(xs, ys):
    best = math.inf
    for perm in itertools.permutations(range(len(ys))):
        best = min(best, max(abs(x - ys[p]) for x, p in zip(xs, perm)))
    return best


def test_criterion_6_flow_laws():
    rng = np.random.default_rng(20240817)
    worst_defect, worst_mapping = 0.0, 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        a = rng.standard_normal((d, d))
        norm = np.linalg.norm(a, 2)
        if norm > 2.0:
            a *= 2.0 / norm
        s, t = rng.uniform(-1.0, 1.0, 2)
        defect = float(np.max(np.abs(expm(a, s + t) - expm(a, s) @ expm(a, t))))
        assert defect < 1e-10
        worst_defect = max(worst_defect, defect)
        delta = rng.uniform(0.2, 1.0)
        mapped = np.exp(delta * np.linalg.eigvals(a))
        direct = np.linalg.eigvals(expm(a, delta))
        dist = _multiset_distance(direct, mapped)
        assert dist < 1e-8
        worst_mapping = max(worst_mapping, dist)
    report_pass(6, "semigroup and spectral mapping laws", defect=worst_defect, mapping=worst_mapping)


def test_criterion_7_diaconis_equivalence():
    rng = np.random.default_rng(99)
    samples = rng.lognormal(0.0, 5.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    d_significand = uniform_distance(log_fractions(samples, 10))
    frac = np.sort(np.mod(np.log10(np.abs(samples)), 1.0))
    n = frac.size
    d_mod1 = max(
        float(np.max(np.arange(1, n + 1) / n - frac)),
        float(np.max(frac - np.arange(0, n) / n)),
    )
    assert abs(d_significand - d_mod1) < 1e-12
    report_pass(7, "significand vs mod-1 statistic", gap=abs(d_significand - d_mod1))


def test_criterion_8_delta_sampling_harness():
    discrete, continuous = subsequence_weyl_averages(
        lambda t: math.sqrt(2) * t, 1e4, [1 / math.sqrt(2), 1 / math.sqrt(3), 1 / math.sqrt(5)]
    )
    flagged = [abs(s - continuous) > FLAG_GAP for s in discrete]
    # the first delta multiplies the slope to exactly 1: the designated
    # rational pathology, flagged rather than averaged away
    assert flagged[0]
    assert abs(discrete[0]) > 0.99
    for s in discrete[1:]:
        assert abs(s) < 0.02
    assert abs(continuous) < 0.02
    assert not any(flagged[1:])
    report_pass(
        8,
        "arithmetic-subsequence sampling harness",
        continuous=abs(continuous),
        pathology=abs(discrete[0]),
    )


def test_criterion_9_genericity_census():
    spec = EnsembleSpec(d=4, distribution="gaussian", N=10_000, seed=DEFAULTS.seed)
    report = resonance_census(spec, 10, 1e-8, 8)
    assert report.imaginary_axis_hits == 0
    assert report.multiple_eigenvalue_hits == 0
    repeat = resonance_census(spec, 10, 1e-8, 8)
    assert report.to_dict() == repeat.to_dict()
    report_pass(
        9,
        "gaussian census nullset proxy",
        n=report.ensemble.N,
        axis_hits=report.imaginary_axis_hits,
        multiple_hits=report.multiple_eigenvalue_hits,
    )


def test_criterion_10_almost_every_observable_contrast():
    nonresonant_gen = frobenius_example_generator()
    _, resonant_gen = spiral_generators()
    rng = np.random.default_rng(DEFAULTS.seed + 1)

    def fraction(gen, verdict_wanted, n=100):
        hits = 0
        for _ in range(n):
            obs = Observable(rng.standard_normal(gen.shape))
            report = benford_verdict(ObservableOnFlow(gen, obs), 10, GRID, config=DEFAULTS)
            hits += report.verdict == verdict_wanted
        return hits

    passes = fraction(nonresonant_gen, VERDICT_PASS)
    fails = fraction(resonant_gen, VERDICT_FAIL)
    assert passes >= 95, passes
    assert fails >= 50, fails
    report_pass(10, "almost-every-observable contrast", passes=passes, fails=fails)
