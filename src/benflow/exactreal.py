"""Exact real numbers as rational vectors over declared symbols.

A symbol is a formal monomial in named transcendental atoms (pi, ln10,
...).  An ExactReal is a rational linear combination of such symbols;
all resonance decisions reduce to exact Gaussian elimination on the
coordinate vectors.  The soundness of a verdict rests on one declared,
recorded assumption: distinct monomials over the atom set are
Q-linearly independent.  For the default atoms this covers, e.g., the
independence of 1, pi, ln b and pi/ln b; it is an assumption of the
model, not a theorem, and every verdict echoes it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import MixedBasisError, UsageError

Rational = Fraction | int


@dataclass(frozen=True, order=True)
class Monomial:
    """Formal product of atoms with nonzero integer exponents.

    The empty monomial is the constant 1.
    """

    powers: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if any(e == 0 for _, e in self.powers):
            raise UsageError("monomial exponents must be nonzero")
        if list(self.powers) != sorted(self.powers, key=lambda p: p[0]):
            raise UsageError("monomial atoms must be sorted")
        if len({a for a, _ in self.powers}) != len(self.powers):
            raise UsageError("monomial atoms must be unique")

    @classmethod
    def of(cls, **exponents: int) -> "Monomial":
        return cls(tuple(sorted((a, e) for a, e in exponents.items() if e != 0)))

    def times(self, other: "Monomial") -> "Monomial":
        merged = dict(self.powers)
        for atom, e in other.powers:
            merged[atom] = merged.get(atom, 0) + e
            if merged[atom] == 0:
                del merged[atom]
        return Monomial(tuple(sorted(merged.items())))

    def value(self, atom_values: Mapping[str, float]) -> float:
        out = 1.0
        for atom, e in self.powers:
            if atom not in atom_values:
                raise UsageError(f"no numeric value declared for atom {atom!r}")
            out *= atom_values[atom] ** e
        return out

    @property
    def label(self) -> str:
        if not self.powers:
            return "1"
        return "*".join(a if e == 1 else f"{a}^{e}" for a, e in self.powers)

    def __repr__(self):
        return f"Monomial({self.label})"


ONE = Monomial()
PI = Monomial.of(pi=1)


def ln_atom(b: int) -> str:
    """The name of the atom ln b; every log-atom name is spelled here."""
    return f"ln{b}"


def stock_atom_value(atom: str) -> float | None:
    """The value of a stock atom, "pi" or "ln<n>" for n >= 2 spelled as
    `ln_atom(n)` spells it; None otherwise (ln1 = 0 and ln010 are no atoms)."""
    n = atom[2:]
    if n.isdigit() and int(n) >= 2 and atom == ln_atom(int(n)):
        return math.log(int(n))
    return math.pi if atom == "pi" else None


@dataclass(frozen=True)
class SymbolBasis:
    """Ordered symbol list (first symbol is 1) plus atom values.

    The symbols are declared jointly Q-linearly independent; the
    declaration is recorded by `assumption()` and surfaced in verdicts.
    Every atom is valued here: a stock atom by its name, any other by
    its declared nonzero value.  A stock atom declared with another
    value, or two atoms of one value, would contradict that declaration:
    a usage error.  `atom_values` ends up holding every atom, sorted.
    """

    symbols: tuple[Monomial, ...]
    atom_values: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if not self.symbols or self.symbols[0] != ONE:
            raise UsageError("first basis symbol must be the constant 1")
        if len(set(self.symbols)) != len(self.symbols):
            raise UsageError("basis symbols must be unique")
        declared = dict(self.atom_values)
        values: dict[str, float] = {}
        for atom in dict.fromkeys([*(a for m in self.symbols for a, _ in m.powers), *declared]):
            stock = stock_atom_value(atom)
            value = declared.get(atom, stock)
            if value is None:
                raise UsageError(f"atom {atom!r} needs a numeric value in 'atoms'")
            if value == 0:
                raise UsageError(f"atom {atom!r} has the value 0; an atom must be nonzero")
            if stock is not None and value != stock:
                raise UsageError(f"stock atom {atom!r} is {stock!r} by its name; it cannot be declared as {value!r}")
            values[atom] = value
        object.__setattr__(self, "atom_values", tuple(sorted(values.items())))
        names: dict[float, str] = {}
        for atom, value in self.atom_values:
            if value in names:
                raise UsageError(
                    f"atoms {names[value]!r} and {atom!r} have the same value {value!r}; "
                    "distinct atoms must be distinct numbers"
                )
            names[value] = atom

    @classmethod
    def default(cls, b: int) -> "SymbolBasis":
        """The basis {1, pi, ln b} used by every stock example."""
        return cls(symbols=(ONE, PI, Monomial.of(**{ln_atom(b): 1})))

    @property
    def atoms(self) -> dict[str, float]:
        return dict(self.atom_values)

    def extended(self, *monomials: Monomial, **new_atoms: float) -> "SymbolBasis":
        """Basis with extra symbols (and atom values) appended."""
        atoms = dict(self.atom_values)
        for name, value in new_atoms.items():
            if name in atoms and atoms[name] != value:
                raise UsageError(f"conflicting value for atom {name!r}")
            atoms[name] = value
        symbols = list(self.symbols)
        for m in monomials:
            if m not in symbols:
                symbols.append(m)
        return SymbolBasis(symbols=tuple(symbols), atom_values=tuple(atoms.items()))

    def index_of(self, symbol: Monomial) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise UsageError(f"symbol {symbol.label} is not in the basis") from None

    def assumption(self) -> str:
        labels = ", ".join(m.label for m in self.symbols)
        return f"assumed Q-linearly independent: {labels}"

    # -- constructors ------------------------------------------------

    def zero(self) -> "ExactReal":
        return self.combination({})

    def rational(self, q: Rational) -> "ExactReal":
        return self.combination({ONE: q})

    def term(self, symbol: Monomial, coeff: Rational = 1) -> "ExactReal":
        return self.combination({symbol: coeff})

    def combination(self, terms: Mapping[Monomial, Rational]) -> "ExactReal":
        coords = [Fraction(0)] * len(self.symbols)
        for symbol, coeff in terms.items():
            coords[self.index_of(symbol)] += Fraction(coeff)
        return ExactReal(self, tuple(coords))


@dataclass(frozen=True)
class ExactReal:
    """Rational coordinate vector over a symbol basis."""

    basis: SymbolBasis
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.basis.symbols):
            raise UsageError("coordinate count must match basis size")

    def _check(self, other: "ExactReal") -> None:
        if self.basis != other.basis:
            raise MixedBasisError("operands live on different symbol bases")

    def __add__(self, other: "ExactReal") -> "ExactReal":
        self._check(other)
        return ExactReal(self.basis, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ExactReal") -> "ExactReal":
        self._check(other)
        return ExactReal(self.basis, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ExactReal":
        return ExactReal(self.basis, tuple(-a for a in self.coords))

    def scaled(self, q: Rational) -> "ExactReal":
        q = Fraction(q)
        return ExactReal(self.basis, tuple(q * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    @property
    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coords[1:])

    @property
    def rational_part(self) -> Fraction:
        return self.coords[0]

    def as_terms(self) -> dict[Monomial, Fraction]:
        return {s: c for s, c in zip(self.basis.symbols, self.coords) if c != 0}

    def value(self) -> float:
        atoms = self.basis.atoms
        return math.fsum(float(c) * s.value(atoms) for s, c in zip(self.basis.symbols, self.coords) if c)

    def __repr__(self):
        terms = self.as_terms()
        if not terms:
            return "ExactReal(0)"
        body = " + ".join(f"{c}*{m.label}" if m != ONE else f"{c}" for m, c in terms.items())
        return f"ExactReal({body})"


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact real and imaginary parts on one basis."""

    re: ExactReal
    im: ExactReal

    def __post_init__(self):
        if self.re.basis != self.im.basis:
            raise MixedBasisError("real and imaginary parts must share a basis")

    @property
    def basis(self) -> SymbolBasis:
        return self.re.basis

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def scaled(self, q: Rational) -> "ExactComplex":
        return ExactComplex(self.re.scaled(q), self.im.scaled(q))

    def value(self) -> complex:
        return complex(self.re.value(), self.im.value())

    def __repr__(self):
        return f"ExactComplex(re={self.re!r}, im={self.im!r})"


# -- exact linear algebra over the rationals ------------------------------


def span_membership(
    target: ExactReal, generators: Iterable[ExactReal]
) -> list[Fraction] | None:
    """Rational coefficients writing target over the generators, if any.

    Exact; None means target is provably outside the span under the
    basis independence assumption.
    """
    gens = list(generators)
    for g in gens:
        if g.basis != target.basis:
            raise MixedBasisError("all values must share one symbol basis")
    return membership_over_monomials(target.as_terms(), [g.as_terms() for g in gens])


def membership_over_monomials(
    target: Mapping[Monomial, Fraction], generators: Sequence[Mapping[Monomial, Fraction]]
) -> list[Fraction] | None:
    """Rational coefficients writing target over the generators, if any,
    all given as sparse monomial dicts.

    Gauss-Jordan elimination on one row per monomial of the union of
    supports, in sorted order, augmented by the target: the pivot of a
    generator's column is its first nonzero row not yet taken, and free
    generators get coefficient zero, so the combination returned is the
    one this deterministic order produces.
    """
    axis = sorted({*target, *(m for g in generators for m in g)})
    rows = [[Fraction(g.get(m, 0)) for g in generators] + [Fraction(target.get(m, 0))] for m in axis]
    pivots: list[int] = []
    for col in range(len(generators)):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for r, row in enumerate(rows):
            if r != top and row[col] != 0:
                rows[r] = [x - row[col] * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    if any(row[-1] != 0 and not any(row[:-1]) for row in rows):
        return None  # a monomial the generators cannot reach
    solution = [Fraction(0)] * len(generators)
    for r, col in enumerate(pivots):
        solution[col] = rows[r][-1]
    return solution


def mul_symbol(terms: Mapping[Monomial, Fraction], factor: Monomial) -> dict[Monomial, Fraction]:
    """Multiply a monomial combination by a single monomial."""
    return {m.times(factor): c for m, c in terms.items() if c != 0}


# -- exact logarithms of rationals ----------------------------------------


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def rational_log(r: Rational, b: int) -> Fraction | None:
    """log_b(r) as an exact Fraction when r is a rational power of b.

    Returns None when log_b(r) is irrational; that case is a certainty
    (r^q = b^p has no solution), not an assumption.
    """
    r = Fraction(r)
    if r <= 0:
        raise UsageError("rational_log requires r > 0")
    if b < 2:
        raise UsageError("base must be >= 2")
    if r == 1:
        return Fraction(0)
    base_f = _prime_factors(b)
    num, den = r.numerator, r.denominator
    exps: dict[int, int] = {}
    for p in base_f:
        while num % p == 0:
            exps[p] = exps.get(p, 0) + 1
            num //= p
        while den % p == 0:
            exps[p] = exps.get(p, 0) - 1
            den //= p
    if num != 1 or den != 1:
        return None  # a prime outside b's support: certified irrational
    ratios = {Fraction(exps.get(p, 0), e) for p, e in base_f.items()}
    if len(ratios) != 1:
        return None  # exponent vectors not parallel: certified irrational
    return ratios.pop()


def exact_log_base(r: Rational, b: int, basis: SymbolBasis) -> tuple[ExactReal, SymbolBasis, bool]:
    """log_b(r) as an ExactReal, extending the basis when irrational.

    Returns (value, possibly extended basis, certified) where certified
    is True: irrationality of log_b(r) for rational r is decided by
    integer arithmetic, never assumed.
    """
    q = rational_log(r, b)
    if q is not None:
        return basis.rational(q), basis, True
    r = Fraction(r)
    atom = f"log{b}({r})"
    mono = Monomial.of(**{atom: 1})
    extended = basis.extended(mono, **{atom: math.log(r) / math.log(b)})
    return extended.term(mono), extended, True
