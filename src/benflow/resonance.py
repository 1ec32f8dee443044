"""Exact decisions about spectral resonance with respect to a base b.

Two notions are decided over exact rational coordinates:

* shell nonresonance of a set on circles |z| = r: pairwise argument
  differences (in turns) may be rational only when zero, and log_b(r)
  must avoid the rational span of the argument-difference set;
* exponential nonresonance of a spectrum-like set Z (conjugate-closed):
  for every z in Z, Re z must avoid the rational span of
  (ln b / pi) * Im w over the w in Z whose real part equals Re z
  exactly.  A violation is returned as an integer relation witness
  q * Re z = sum p_l * (ln b / pi) * Im w_l.

The multiplications by ln b / pi are carried out formally on symbol
monomials, so products like pi * (ln b)^-1 stay exact.  A companion
floating-point scan looks for integer relations numerically (PSLQ plus
a continued-fraction fast path); the scan is advisory only, absence of
a hit proves nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath
import numpy as np

from .errors import UsageError
from .exactreal import (
    ExactComplex,
    ExactReal,
    Monomial,
    ln_atom,
    membership_over_monomials,
    mul_symbol,
    span_membership,
)
from .significand import validate_base

__all__ = [
    "ShellPoint",
    "RelationWitness",
    "ResonanceVerdict",
    "IntegerRelation",
    "argument_difference_set",
    "is_b_nonresonant",
    "is_exp_b_nonresonant",
    "is_exp_nonresonant_algebraic",
    "numeric_relation_scan",
    "verify_exp_witness",
]


@dataclass(frozen=True)
class ShellPoint:
    """Exact polar data of one element for shell-resonance decisions.

    log_modulus is log_b|z| and turns is arg(z)/(2*pi); both must be
    supplied exactly by the caller, since neither is derivable from
    cartesian floats.
    """

    log_modulus: ExactReal
    turns: ExactReal

    def __post_init__(self):
        if self.log_modulus.basis != self.turns.basis:
            raise UsageError("shell point parts must share a basis")


def argument_difference_set(points: Sequence[ShellPoint]) -> list[ExactReal]:
    """The set {1 + turns(z) - turns(w)} over all ordered pairs.

    Always contains 1 (the diagonal pairs) and is closed under
    x -> 2 - x, because pairs appear in both orders.  Duplicates are
    removed; the order is deterministic in the input order.
    """
    out: list[ExactReal] = []
    seen: set[tuple] = set()
    for zi in points:
        for zj in points:
            delta = zi.turns.basis.rational(1) + zi.turns - zj.turns
            if delta.coords not in seen:
                seen.add(delta.coords)
                out.append(delta)
    return out


@dataclass(frozen=True)
class RelationWitness:
    """A rational relation certifying resonance.

    kind says which condition broke:
      - "argument-difference": a pair of shell points whose turns differ
        by the nonzero rational q-th part p/q;
      - "span-membership": q * target = sum p_l * generator_l with the
        generators listed in `elements`;
      - "zero-real-part": the target element lies on the imaginary axis
        (the empty rational combination).
    """

    kind: str
    q: int
    p: tuple[int, ...]
    target: object
    elements: tuple


@dataclass(frozen=True)
class ResonanceVerdict:
    resonant: bool
    witness: RelationWitness | None
    assumptions: tuple[str, ...]
    detail: str

    def __post_init__(self):
        if (self.witness is not None) and not self.resonant:
            raise UsageError("witness implies a resonant verdict")


def _span_witness(coeffs: Sequence[Fraction], target: object, elements: Sequence) -> RelationWitness:
    """The witness q * target = sum p_l * element_l for span coefficients
    rho_l = p_l / q, keeping only the elements with p_l != 0."""
    q = math.lcm(*(c.denominator for c in coeffs))
    involved = [i for i, c in enumerate(coeffs) if c != 0]
    return RelationWitness(
        kind="span-membership",
        q=q,
        p=tuple(int(coeffs[i] * q) for i in involved),
        target=target,
        elements=tuple(elements[i] for i in involved),
    )


# ---------------------------------------------------------------------------
# shell (multiplicative) nonresonance


def is_b_nonresonant(points: Iterable[ShellPoint], b: int) -> ResonanceVerdict:
    """Decide shell nonresonance of a set given in exact polar form.

    Elements are grouped into shells by exact equality of log_b|z|;
    each nonempty shell must satisfy both defining conditions.
    """
    b = validate_base(b)
    pts = list(points)
    if not pts:
        return ResonanceVerdict(False, None, (), "empty set is nonresonant")
    basis = pts[0].log_modulus.basis
    shells: dict[tuple, list[ShellPoint]] = {}
    for p in pts:
        if p.log_modulus.basis != basis:
            raise UsageError("all shell points must share one symbol basis")
        shells.setdefault(p.log_modulus.coords, []).append(p)
    assumptions = (basis.assumption(),)
    for shell in shells.values():
        # (i) rational argument differences only when zero
        for i, zi in enumerate(shell):
            for zj in shell[i + 1 :]:
                diff = zi.turns - zj.turns
                if diff.is_rational and not diff.is_zero:
                    frac = diff.rational_part
                    return ResonanceVerdict(
                        True,
                        RelationWitness(
                            kind="argument-difference",
                            q=frac.denominator,
                            p=(frac.numerator,),
                            target=zi,
                            elements=(zi, zj),
                        ),
                        assumptions,
                        f"argument difference {frac} is a nonzero rational",
                    )
        # (ii) log-modulus against the span of the difference set
        deltas = argument_difference_set(shell)
        target = shell[0].log_modulus
        coeffs = span_membership(target, deltas)
        if coeffs is not None:
            return ResonanceVerdict(
                True,
                _span_witness(coeffs, target, deltas),
                assumptions,
                "log-modulus lies in the rational span of the argument-difference set",
            )
    return ResonanceVerdict(False, None, assumptions, "every shell passed both conditions")


# ---------------------------------------------------------------------------
# exponential nonresonance


def _lnb_over_pi_times(x: ExactReal, b: int) -> dict[Monomial, Fraction]:
    factor = Monomial.of(pi=-1, **{ln_atom(b): 1})
    return mul_symbol(x.as_terms(), factor)


def is_exp_b_nonresonant(zs: Iterable[ExactComplex], b: int) -> ResonanceVerdict:
    """Decide exponential nonresonance of a conjugate-closed exact set.

    Resonant exactly when some Re z is a rational combination of the
    numbers (ln b / pi) * Im w over elements w sharing that exact real
    part.  Elements on the imaginary axis are resonant outright (the
    empty combination).
    """
    b = validate_base(b)
    elements = list(zs)
    if not elements:
        return ResonanceVerdict(
            True, None, (), "empty set: no time rescaling can make it nonresonant"
        )
    basis = elements[0].basis
    groups: dict[tuple, list[ExactComplex]] = {}
    for z in elements:
        if z.basis != basis:
            raise UsageError("all elements must share one symbol basis")
        groups.setdefault(z.re.coords, []).append(z)
    for group in groups.values():
        ims = {w.im.coords for w in group}
        if any((-w.im).coords not in ims for w in group):
            raise UsageError(
                "set must be closed under complex conjugation for the "
                "exponential-resonance criterion to apply"
            )
    assumptions = (basis.assumption(),)
    for group in groups.values():
        z = group[0]
        if z.re.is_zero:
            return ResonanceVerdict(
                True,
                RelationWitness("zero-real-part", q=1, p=(), target=z, elements=()),
                assumptions,
                "an element lies on the imaginary axis",
            )
        gens = [_lnb_over_pi_times(w.im, b) for w in group]
        coeffs = membership_over_monomials(z.re.as_terms(), gens)
        if coeffs is not None:
            return ResonanceVerdict(
                True,
                _span_witness(coeffs, z, group),
                assumptions,
                "a real part lies in the rational span of its equal-Re scaled imaginary parts",
            )
    return ResonanceVerdict(False, None, assumptions, "no rational relation exists")


def verify_exp_witness(witness: RelationWitness, b: int) -> bool:
    """Substitute a span-membership witness back in exact arithmetic."""
    if witness.kind == "zero-real-part":
        return witness.target.re.is_zero
    if witness.kind != "span-membership" or not isinstance(witness.target, ExactComplex):
        raise UsageError("can only verify exponential span-membership witnesses")
    acc: dict[Monomial, Fraction] = {}
    for m, c in witness.target.re.as_terms().items():
        acc[m] = acc.get(m, Fraction(0)) + Fraction(witness.q) * c
    for coeff, w in zip(witness.p, witness.elements):
        for m, c in _lnb_over_pi_times(w.im, b).items():
            acc[m] = acc.get(m, Fraction(0)) - coeff * c
    return all(c == 0 for c in acc.values())


def is_exp_nonresonant_algebraic(zs: Iterable[complex], tol: float = 1e-12) -> bool:
    """Shortcut valid for sets of algebraic numbers: off the imaginary axis.

    The caller asserts algebraicity; tol guards the floating-point
    comparison of real parts against zero.
    """
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    zs = list(zs)
    if not zs:
        return False
    return min(abs(complex(z).real) for z in zs) > tol


# ---------------------------------------------------------------------------
# advisory floating-point relation scan


@dataclass(frozen=True)
class IntegerRelation:
    """A numerically detected relation q*Re z = sum p_l * (ln b/pi) Im w_l."""

    q: int
    p: tuple[int, ...]
    target: complex
    elements: tuple[complex, ...]
    residual: float


_RESIDUAL_TOL = 1e-9
_GROUP_TOL = 1e-9  # relative gap in Re under which numeric_relation_scan groups elements
_MAX_HEIGHT = 10**6  # 2^-52 * height stays under _RESIDUAL_TOL, which _relation_candidates needs
# PSLQ acceptance on the scale-normalised values: a relation among float
# inputs holds only to about 1e-16, never to mpmath's default 2^(-0.75 prec)
_PSLQ_TOL = mpmath.mpf(2) ** -40


def _rational_fit(ratio: float, height: int) -> tuple[int, int] | None:
    """Best p/q approximation with q <= height; rejects |p| > height and a
    ratio that overflowed (as Re / g does for a subnormal g), whose fit
    would have |p| > height too."""
    if not math.isfinite(ratio):
        return None
    frac = Fraction(ratio).limit_denominator(height)
    if abs(frac.numerator) > height:
        return None
    return frac.numerator, frac.denominator


def _pslq_relation(values: list[mpmath.mpf], height: int) -> list[int] | None:
    """An integer relation among the values with every |coeff| <= height.

    mpmath gives up once its lower bound on the Euclidean norm of any
    relation reaches maxcoeff, so it gets height * sqrt(n), above the norm
    of every relation that fits, and the height itself is checked here.
    """
    maxcoeff = math.ceil(height * math.sqrt(len(values)))
    try:
        rel = mpmath.pslq(values, tol=_PSLQ_TOL, maxcoeff=maxcoeff, maxsteps=10000)
    except ValueError:
        return None
    return list(rel) if rel is not None and max(map(abs, rel)) <= height else None


def _check_height(height: int) -> None:
    """The coefficient heights numeric_relation_scan accepts: 1..10^6."""
    if height < 1:
        raise UsageError("height must be >= 1")
    if height > _MAX_HEIGHT:
        raise UsageError("height is unreasonably large for a numeric scan")


def numeric_relation_scan(zs: Iterable[complex], b: int, height: int = 8) -> IntegerRelation | None:
    """Search for integer relations among scaled spectrum coordinates.

    Elements are grouped by real parts within _GROUP_TOL * scale; duplicate
    generators (equal up to sign) are collapsed before searching, so
    coefficients are bounded per collapsed generator.  A returned
    relation has residual below 1e-9 after renormalization; None is
    advisory only and proves nothing.
    """
    b = validate_base(b)
    _check_height(height)
    elements = sorted(set(complex(z) for z in zs), key=lambda z: (z.real, z.imag))
    if not elements:
        return None
    factor = math.log(b) / math.pi
    scale = max(max(abs(z.real), abs(z.imag) * factor) for z in elements)
    scale = max(scale, 1.0)
    groups: list[list[complex]] = []
    for z in elements:
        # sorted by Re, anchors over _GROUP_TOL * scale apart: no earlier group can match
        if groups and abs(z.real - groups[-1][0].real) <= _GROUP_TOL * scale:
            groups[-1].append(z)
        else:
            groups.append([z])
    for group in groups:
        re = group[0].real
        # one generator per distinct |Im|, represented by the Im > 0 element
        gens: list[tuple[float, complex]] = []
        for w in sorted(group, key=lambda v: -v.imag):
            g = factor * w.imag
            if g == 0.0:
                continue
            if any(abs(abs(g) - abs(prev)) <= 1e-15 * scale for prev, _ in gens):
                continue
            gens.append((g, w))
        if not gens:
            if abs(re) < _RESIDUAL_TOL * scale:
                return IntegerRelation(q=1, p=(), target=group[0], elements=(), residual=abs(re))
            continue
        rel = _scan_group(re / scale, [g / scale for g, _ in gens], height)
        if rel is not None:
            q, p = rel
            residual = abs(q * re - sum(pi_ * g for pi_, (g, _) in zip(p, gens)))
            if residual < _RESIDUAL_TOL * scale:
                involved = [i for i, c in enumerate(p) if c != 0]
                return IntegerRelation(
                    q=q,
                    p=tuple(p[i] for i in involved),
                    target=group[0],
                    elements=tuple(gens[i][1] for i in involved),
                    residual=residual,
                )
    return None


def _scan_group(re: float, gens: list[float], height: int) -> tuple[int, list[int]] | None:
    """Candidate relation q*re = sum p_l gens_l with all coefficients <= height;
    numeric_relation_scan checks its residual."""
    if abs(re) < 1e-300:
        return 1, [0] * len(gens)
    if len(gens) == 1:
        fit = _rational_fit(re / gens[0], height)
        if fit is None:
            return None
        p, q = fit
        return q, [p]
    # a PSLQ relation among the generators alone: drop its largest generator and retry
    with mpmath.workdps(50):
        rel = _pslq_relation([mpmath.mpf(re)] + [mpmath.mpf(g) for g in gens], height)
    if rel is None:
        return None
    if rel[0] == 0:
        drop = max(range(1, len(rel)), key=lambda i: abs(rel[i])) - 1
        found = _scan_group(re, gens[:drop] + gens[drop + 1:], height)
        if found is None:
            return None
        q, p = found
        return q, p[:drop] + [0] + p[drop:]
    q, p = rel[0], [-c for c in rel[1:]]
    return (q, p) if q > 0 else (-q, [-c for c in p])


def _relation_candidates(eigs: np.ndarray, b: int, height: int) -> np.ndarray:
    """Mask over the rows of an (n, d) complex array: a row outside it is
    one numeric_relation_scan(row, b, height) provably returns None for.

    With g = |Im z| ln b / pi and scale as in the scan, a row enters when
    it is not finite, when some |Re z| <= 2 _RESIDUAL_TOL scale (a group
    without generators, or _scan_group's tiny-Re branch), when two
    elements that are neither equal nor conjugate have real parts within
    2 _GROUP_TOL scale (any group the scan forms with more than one
    element up to conjugation, the PSLQ branch among them), or when some
    g != 0 has, for x = |Re z| / g,

        min over 1 <= q <= height of ||q x|| <= 2 _RESIDUAL_TOL scale / g + slack.

    Otherwise each group is one element up to conjugation, its one
    generator is +-g, and a hit would need |q Re z - p g| < _RESIDUAL_TOL
    scale in floats, so |q x - p| < (_RESIDUAL_TOL + 2^-52 height) scale / g
    exactly, under the bound above for height <= 10^6 (the |p| <= height
    clip is dropped, which only enlarges the mask).  The minimum is that
    of the fractional part of fl(x) truncated to 2^-62 fixed point: by the
    best-approximation property of continued fractions it is attained at
    the last convergent denominator q_k <= height, and the int64 Euclid
    remainders are exactly ||q_k x'|| 2^62.  slack = height (x 2^-50 + 2^-60)
    covers the rounding of x and the truncation, and the comparison keeps
    a relative 2^-40 for its own rounding.  Memory is O(n d^2) whatever
    the height; the loop runs about log_phi(height) steps.
    """
    eigs = np.asarray(eigs, dtype=complex)
    factor = math.log(b) / math.pi
    re = np.abs(eigs.real)
    g = np.abs(eigs.imag) * factor
    scale = np.maximum(np.maximum(re, g).max(axis=1), 1.0)[:, None]
    mask = ~np.isfinite(eigs).all(axis=1)
    mask |= (re <= 2 * _RESIDUAL_TOL * scale).any(axis=1)
    # pairs i < j within one row: equal or conjugate elements never split a group
    i, j = np.triu_indices(eigs.shape[1], 1)
    a, c = eigs[:, i], eigs[:, j]
    near = np.abs(a.real - c.real) <= 2 * _GROUP_TOL * scale
    mask |= (near & (a != c) & (a != c.conj())).any(axis=1)
    lanes = (g > 0) & ~mask[:, None]
    g = g[lanes]
    with np.errstate(over="ignore"):
        # from 2^52 on (overflow included) x has no fractional bit: ||q x|| = 0;
        # a bound that overflows (subnormal g) admits the lane
        x = np.minimum(re[lanes] / g, 2.0**52)
        bound = 2 * _RESIDUAL_TOL * np.broadcast_to(scale, lanes.shape)[lanes] / g + height * (x * 2.0**-50 + 2.0**-60)
    prev_r = np.full(x.shape, 2**62, dtype=np.int64)
    r = ((x - np.floor(x)) * 2.0**62).astype(np.int64)
    prev_q, q = np.zeros_like(r), np.ones_like(r)
    live = r > 0
    while live.any():
        step = np.minimum(prev_r[live] // r[live], height + 1)
        next_q = step * q[live] + prev_q[live]
        fits = next_q <= height
        idx = np.flatnonzero(live)[fits]
        step, next_q = step[fits], next_q[fits]
        prev_r[idx], r[idx] = r[idx], prev_r[idx] - step * r[idx]
        prev_q[idx], q[idx] = q[idx], next_q
        live[:] = False
        live[idx] = r[idx] > 0
    hit = np.zeros(lanes.shape, dtype=bool)
    hit[lanes] = r * 2.0**-62 <= bound * (1 + 2.0**-40)
    return mask | hit.any(axis=1)
