"""Scripted demonstration scenarios with checkable expected outcomes.

Each entry reproduces one worked scenario end to end: it builds the
flow or exact spectrum in question, runs the relevant analyses, and
compares the outcome against the documented expectation.  The CLI
exposes these as `benflow example <id>`; a failed expectation exits
nonzero.  Scenario-specific constants (horizons, bases, bounds) that
define the scenario are fixed here rather than read from the config,
and so are the reference flows the scenarios are built on: the ex-3-5
generator with its real mode ln 10 - 1/2, the spirals phi and psi, and
their closed-form norms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .config import RunConfig
from .errors import UsageError
from .exactreal import ExactComplex, Monomial, PI, SymbolBasis, ln_atom
from .flowsignal import (
    NormOnFlow,
    Observable,
    ObservableOnFlow,
    Synthetic,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_TRIVIAL,
    benford_report_from_log_samples,
    benford_verdict,
    eval_signal,
    triviality_check,
)
from .matrixcore import companion_from_second_order, is_hyperbolic, planar_criterion, spectrum
from .resonance import is_exp_b_nonresonant, is_exp_nonresonant_algebraic
from .significand import digit_frequencies, digit_law_pmf
from .udmod1 import SamplingGrid, pushforward_fourier

_LN10 = math.log(10)
_ALPHA = _LN10 - 0.5  # the real mode of the ex-3-5 reference flow


@dataclass
class DemoResult:
    id: str
    passed: bool
    details: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"id": self.id, "passed": self.passed, "details": self.details, "notes": list(self.notes)}


# ---------------------------------------------------------------------------
# exact spectra and reference flows (the fixed generators the examples are built on)


def scalar_set(value, b: int) -> list[ExactComplex]:
    basis = SymbolBasis.default(b)
    return [ExactComplex(basis.rational(value), basis.zero())]


def rotation_set_pi(alpha, b: int) -> list[ExactComplex]:
    """{alpha + i pi, alpha - i pi} over the default basis."""
    basis = SymbolBasis.default(b)
    z = ExactComplex(basis.rational(alpha), basis.term(PI, 1))
    return [z, z.conjugate()]


def resonant_spiral_set(b: int) -> list[ExactComplex]:
    """{1 + 2 pi i / ln b, 1 - 2 pi i / ln b}: the resonant spiral pair."""
    mono = Monomial.of(pi=1, **{ln_atom(b): -1})
    basis = SymbolBasis.default(b).extended(mono)
    z = ExactComplex(basis.rational(1), basis.term(mono, 2))
    return [z, z.conjugate()]


def three_mode_set(b: int) -> list[ExactComplex]:
    """{1 +- i pi, ln 10 - 1/2} over the default symbols {1, pi, ln b} and ln10."""
    ln10 = Monomial.of(ln10=1)
    basis = SymbolBasis.default(b).extended(ln10)
    z = ExactComplex(basis.rational(1), basis.term(PI, 1))
    alpha = basis.rational(Fraction(-1, 2)) + basis.term(ln10, 1)
    return [z, z.conjugate(), ExactComplex(alpha, basis.zero())]


def frobenius_example_generator() -> np.ndarray:
    """The ex-3-5 reference generator: a spiral block plus the real mode alpha."""
    return np.array([[1.0, -math.pi, 0.0], [math.pi, 1.0, 0.0], [0.0, 0.0, _ALPHA]])


def frobenius_norm_signal_3x3_example(t) -> np.ndarray | float:
    """Closed form sqrt(2 e^{2t} + e^{2 alpha t}) of the ex-3-5 reference
    flow's Frobenius norm, with alpha = ln 10 - 1/2."""
    t_arr = np.asarray(t, dtype=float)
    out = np.sqrt(2.0 * np.exp(2.0 * t_arr) + np.exp(2.0 * _ALPHA * t_arr))
    return float(out) if out.ndim == 0 else out


def spiral_generators() -> tuple[np.ndarray, np.ndarray]:
    """The two similar planar spiral generators with identical spectra."""
    phi = np.array([[1.0, -2 * math.pi / _LN10], [2 * math.pi / _LN10, 1.0]])
    psi = np.array([[1.0, -4 * math.pi / _LN10], [math.pi / _LN10, 1.0]])
    return phi, psi


def _psi_gram(x: np.ndarray) -> np.ndarray:
    """The psi Gram term 25 - 9 cos 4 pi x + 3 |sin 2 pi x| sqrt(82 - 18 cos 4 pi x),
    which is 16 e^{-2t} ||e^{t psi}||_2^2 at x = t / ln 10."""
    cos_4pi_x = np.cos(4 * np.pi * x)
    return 25.0 - 9.0 * cos_4pi_x + 3.0 * np.abs(np.sin(2 * np.pi * x)) * np.sqrt(82.0 - 18.0 * cos_4pi_x)


def psi_norm_map(x: np.ndarray) -> np.ndarray:
    """Circle map carrying the log10 spectral norm of the second spiral."""
    return np.mod(x + 0.5 * np.log10(_psi_gram(x)), 1.0)


def psi_norm_closed_form(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.exp(t) / 4.0 * np.sqrt(_psi_gram(t / _LN10))


def _closed_form_rel_err(spec, closed: Callable[[np.ndarray], np.ndarray], ts: np.ndarray) -> float:
    """Largest relative gap between a closed form and `eval_signal` on ts."""
    exact = closed(ts)
    return float(np.max(np.abs(exact - np.array([eval_signal(spec, t) for t in ts])) / exact))


# ---------------------------------------------------------------------------
# the scenarios


def _run_ex_2a(config: RunConfig) -> DemoResult:
    """Exponential signals: digit frequencies within the analytic bound."""
    horizon, step, slack = 200.0, 1e-3, 0.002
    grid = SamplingGrid(T=horizon, step=step)
    pmf = digit_law_pmf(10)
    details, ok = {}, True
    for name, alpha in (("ln2", math.log(2)), ("1", 1.0), ("ln10", _LN10)):
        values = np.exp(alpha * grid.times())
        freqs = digit_frequencies(values, 10).frequencies()
        deviation = float(np.max(np.abs(freqs - pmf)))
        bound = 1.0 / (alpha * horizon) + slack
        details[f"alpha={name}"] = {"max_deviation": deviation, "bound": bound}
        ok = ok and deviation < bound
    return DemoResult("ex-2a", ok, details)


def _run_ex_3_4_i(config: RunConfig) -> DemoResult:
    """Scalar flows: nonresonant iff the rate is nonzero; e^t conforms."""
    b = config.base
    nonzero = is_exp_b_nonresonant(scalar_set(1, b), b)
    zero = is_exp_b_nonresonant(scalar_set(0, b), b)
    report = benford_verdict(Synthetic(r=1.0, k=0, modes=((0.0, 1.0),)), config=config)
    ok = (not nonzero.resonant) and zero.resonant and report.verdict == VERDICT_PASS
    return DemoResult(
        "ex-3-4-i",
        ok,
        {
            "rate_1_resonant": nonzero.resonant,
            "rate_0_resonant": zero.resonant,
            "exp_verdict": report.verdict,
            "distance": report.significand_distance,
        },
    )


def _run_ex_3_4_ii(config: RunConfig) -> DemoResult:
    """Planar rotation flows: resonance decided by the rate/frequency ratio."""
    b = config.base
    irrational_ratio = is_exp_b_nonresonant(rotation_set_pi(1, b), b)
    rational_ratio = is_exp_b_nonresonant(resonant_spiral_set(b), b)
    gen = np.array([[1.0, -math.pi], [math.pi, 1.0]])
    report = benford_verdict(ObservableOnFlow(gen, Observable.entry(0, 0, 2)), config=config)
    ok = (
        not irrational_ratio.resonant
        and rational_ratio.resonant
        and report.verdict == VERDICT_PASS
    )
    return DemoResult(
        "ex-3-4-ii",
        ok,
        {
            "pi_pair_resonant": irrational_ratio.resonant,
            "spiral_pair_resonant": rational_ratio.resonant,
            "witness_q": rational_ratio.witness.q if rational_ratio.witness else None,
            "cos_signal_verdict": report.verdict,
        },
    )


def ex_3_5_log_fixtures(t: np.ndarray, b: int) -> np.ndarray:
    """log_b of the 3d reference flow's cubic composite, with a = ln 10 - 1/2,
    e^{(1+2a)t} cos(pi t) (3 - 3 e^{-(a-1)t} cos(pi t) + e^{-2(a-1)t} cos(pi t)^2):
    no linear flow signal produces it, so it is written out in closed form."""
    cos_t = np.cos(np.pi * t)
    tail = 3.0 - 3.0 * np.exp(-(_ALPHA - 1.0) * t) * cos_t + np.exp(-2.0 * (_ALPHA - 1.0) * t) * cos_t**2
    with np.errstate(divide="ignore"):
        return ((1.0 + 2.0 * _ALPHA) * t + np.log(np.abs(cos_t)) + np.log(np.abs(tail))) / math.log(b)


def _run_ex_3_5(config: RunConfig) -> DemoResult:
    """3d reference flow: nonresonant spectrum, norm conforms, but a cubic
    composite observable of the same flow does not."""
    exact_ok = all(not is_exp_b_nonresonant(three_mode_set(b), b).resonant for b in (2, 10))
    frobenius = NormOnFlow(frobenius_example_generator(), "frobenius")
    closed_form_err = _closed_form_rel_err(frobenius, frobenius_norm_signal_3x3_example, np.linspace(0.0, 10.0, 101))
    norm_report = benford_verdict(frobenius, config=config)
    # the cubic composite is a base-10 counterexample, built and judged in base 10
    cubic_report = benford_report_from_log_samples(
        ex_3_5_log_fixtures(config.grid.times(), 10),
        config=replace(config, base=10),
        horizon=config.horizon,
        step=config.step,
    )
    ok = (
        exact_ok
        and closed_form_err < 1e-10
        and norm_report.verdict == VERDICT_PASS
        and cubic_report.verdict == VERDICT_FAIL
    )
    return DemoResult(
        "ex-3-5",
        ok,
        {
            "exact_nonresonant_b2_b10": exact_ok,
            "closed_form_rel_err": closed_form_err,
            "norm_verdict": norm_report.verdict,
            "cubic_composite_verdict": cubic_report.verdict,
            "cubic_max_weyl": cubic_report.weyl.max_magnitude if cubic_report.weyl else None,
        },
    )


def _run_ex_3_8(config: RunConfig) -> DemoResult:
    """Second-order equations: trace/det shortcut matches the closed
    inequality (1 + alpha^2)|beta| > beta and the eigenvalue test."""
    alphas = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
    betas = (-3.0, -1.0, 0.0, 0.25, 1.0, 3.0)
    mismatches = []
    for a in alphas:
        for b_ in betas:
            gen = companion_from_second_order(a, b_)
            crit = planar_criterion(gen)
            inequality = (1.0 + a * a) * abs(b_) > b_
            if crit != inequality or crit != is_hyperbolic(spectrum(gen), 1e-12):
                mismatches.append({"alpha": a, "beta": b_, "criterion": crit})
    oscillator = planar_criterion(companion_from_second_order(0.0, 1.0))
    ok = not mismatches and oscillator is False
    return DemoResult(
        "ex-3-8",
        ok,
        {"pairs_checked": len(alphas) * len(betas), "mismatches": mismatches, "oscillator_criterion": oscillator},
    )


def _run_ex_3_9(config: RunConfig) -> DemoResult:
    """Rank-one 2d flow: one adversarial observable gives a constant
    signal, one gives the zero signal, random observables conform."""
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    constant_obs = Observable(np.array([[1.0, -1.0], [0.0, 0.0]]))  # H(A) = 0, H(I) = 1
    zero_obs = Observable(np.array([[1.0, 2.0], [-2.0, -1.0]]))  # H(A) = 0 = H(I)
    constant_values = [eval_signal(ObservableOnFlow(a, constant_obs), t) for t in (0.0, 1.0, 3.7)]
    constant_report = benford_verdict(ObservableOnFlow(a, constant_obs), config=config)
    zero_report = benford_verdict(ObservableOnFlow(a, zero_obs), config=config)
    rng = np.random.Generator(np.random.Philox(key=config.seed, counter=[0, 0, 0, 1]))
    n_random, passes = 20, 0
    for _ in range(n_random):
        obs = Observable(rng.standard_normal((2, 2)))
        report = benford_verdict(ObservableOnFlow(a, obs), config=config)
        passes += report.verdict == VERDICT_PASS
    ok = (
        max(abs(v - 1.0) for v in constant_values) < 1e-9
        and not triviality_check(a, constant_obs)
        and triviality_check(a, zero_obs)
        and constant_report.verdict == VERDICT_FAIL
        and zero_report.verdict == VERDICT_TRIVIAL
        and passes >= int(0.9 * n_random)
    )
    return DemoResult(
        "ex-3-9",
        ok,
        {
            "constant_signal_verdict": constant_report.verdict,
            "zero_signal_verdict": zero_report.verdict,
            "random_passes": passes,
            "random_total": n_random,
        },
    )


def _run_ex_3_12(config: RunConfig) -> DemoResult:
    """Dominant spectra of the rank-one flow and its time reversal."""
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    fwd = spectrum(a)
    rev = spectrum(-a)
    b = config.base
    fwd_exact = is_exp_b_nonresonant(scalar_set(2, b), b)
    rev_exact = is_exp_b_nonresonant(scalar_set(0, b), b)
    ok = (
        [p.z for p in fwd.dominant] == [2.0 + 0.0j]
        and [p.z for p in rev.dominant] == [0.0 + 0.0j]
        and not fwd_exact.resonant
        and rev_exact.resonant
        and is_exp_nonresonant_algebraic([p.z for p in fwd.dominant])
        and not is_exp_nonresonant_algebraic([p.z for p in rev.dominant])
    )
    return DemoResult(
        "ex-3-12",
        ok,
        {
            "dominant_forward": [str(p.z) for p in fwd.dominant],
            "dominant_reversed": [str(p.z) for p in rev.dominant],
            "forward_resonant": fwd_exact.resonant,
            "reversed_resonant": rev_exact.resonant,
        },
    )


def _run_ex_3_14(config: RunConfig) -> DemoResult:
    """Two spiral flows with identical (resonant) spectra: one norm signal
    conforms, the other provably does not."""
    phi, psi = spiral_generators()
    exact = is_exp_b_nonresonant(resonant_spiral_set(10), 10)
    spec_phi, spec_psi = spectrum(phi), spectrum(psi)
    spectra_match = all(
        abs(p.z - q.z) < 1e-9 for p, q in zip(spec_phi.points, spec_psi.points)
    )
    ts = np.linspace(0.1, 5.0, 37)
    phi_norm_err = _closed_form_rel_err(NormOnFlow(phi, "spectral"), np.exp, ts)
    psi_norm_err = _closed_form_rel_err(NormOnFlow(psi, "spectral"), psi_norm_closed_form, ts)
    ten = replace(config, base=10)
    phi_report = benford_verdict(NormOnFlow(phi, "spectral"), config=ten)
    psi_report = benford_verdict(NormOnFlow(psi, "spectral"), config=ten)
    # pushforward oracle of the norm map: odd coefficients vanish by the
    # half-period symmetry e^{(ln10/2)A} = -sqrt(10) I; k = 2 carries the mass
    oracle_k1 = abs(pushforward_fourier(psi_norm_map, 1, 400_000))
    oracle_k2 = abs(pushforward_fourier(psi_norm_map, 2, 400_000))
    measured_k2 = psi_report.weyl.magnitudes.get(2) if psi_report.weyl else None
    floor = psi_report.weyl.noise_floor(psi_report.thresholds.weyl_multiplier) if psi_report.weyl else None
    ok = (
        exact.resonant
        and exact.witness is not None
        and exact.witness.q == 2
        and tuple(exact.witness.p) == (1,)
        and spectra_match
        and phi_norm_err < 1e-9
        and psi_norm_err < 1e-9
        and phi_report.verdict == VERDICT_PASS
        and psi_report.verdict == VERDICT_FAIL
        and oracle_k1 < 1e-6
        and oracle_k2 > 0.05
        and measured_k2 is not None
        and measured_k2 > 2 * floor
        and abs(measured_k2 - oracle_k2) < 0.02
    )
    return DemoResult(
        "ex-3-14",
        ok,
        {
            "exact_resonant": exact.resonant,
            "witness": {"q": exact.witness.q, "p": list(exact.witness.p)} if exact.witness else None,
            "phi_verdict": phi_report.verdict,
            "psi_verdict": psi_report.verdict,
            "phi_distance": phi_report.significand_distance,
            "psi_distance": psi_report.significand_distance,
            "norm_map_fourier_k1": oracle_k1,
            "norm_map_fourier_k2": oracle_k2,
            "psi_weyl_k2": measured_k2,
            "noise_floor": floor,
        },
        notes=(
            "odd Weyl frequencies of both spiral signals vanish identically: "
            "advancing time by ln(10)/2 scales every signal by -sqrt(10)",
        ),
    )


_REGISTRY: dict[str, Callable[[RunConfig], DemoResult]] = {
    "ex-2a": _run_ex_2a,
    "ex-3-4-i": _run_ex_3_4_i,
    "ex-3-4-ii": _run_ex_3_4_ii,
    "ex-3-5": _run_ex_3_5,
    "ex-3-8": _run_ex_3_8,
    "ex-3-9": _run_ex_3_9,
    "ex-3-12": _run_ex_3_12,
    "ex-3-14": _run_ex_3_14,
}
EXAMPLE_IDS = tuple(_REGISTRY)


def run_example(example_id: str, config: RunConfig | None = None) -> DemoResult:
    """Run one scripted scenario; raises UsageError for unknown ids."""
    if example_id not in _REGISTRY:
        raise UsageError(f"unknown example {example_id!r}; known ids: {', '.join(EXAMPLE_IDS)}")
    return _REGISTRY[example_id](config or RunConfig())
