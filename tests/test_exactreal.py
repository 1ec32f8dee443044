import math
from fractions import Fraction

import pytest

from benflow.dataio import parse_exact_spectrum
from benflow.errors import MixedBasisError, UsageError
from benflow.exactreal import (
    ExactComplex,
    Monomial,
    ONE,
    PI,
    SymbolBasis,
    exact_log_base,
    membership_over_monomials,
    mul_symbol,
    rational_log,
    span_membership,
    stock_atom_value,
)


class TestMonomial:
    def test_one_label(self):
        assert ONE.label == "1"

    def test_product(self):
        m = Monomial.of(pi=1).times(Monomial.of(pi=-1, ln10=1))
        assert m == Monomial.of(ln10=1)

    def test_product_cancels_to_one(self):
        assert Monomial.of(pi=2).times(Monomial.of(pi=-2)) == ONE

    def test_value(self):
        m = Monomial.of(pi=1, ln10=-1)
        assert m.value({"pi": math.pi, "ln10": math.log(10)}) == pytest.approx(
            math.pi / math.log(10)
        )

    def test_zero_exponent_rejected(self):
        with pytest.raises(UsageError):
            Monomial((("pi", 0),))


class TestSymbolBasis:
    def test_default_symbols(self):
        basis = SymbolBasis.default(10)
        assert basis.symbols == (ONE, PI, Monomial.of(ln10=1))
        assert basis.atoms["pi"] == math.pi

    def test_first_symbol_must_be_one(self):
        with pytest.raises(UsageError):
            SymbolBasis(symbols=(PI,), atom_values=(("pi", math.pi),))

    def test_extension_dedupes(self):
        basis = SymbolBasis.default(10)
        ext = basis.extended(PI, Monomial.of(pi=1, ln10=-1))
        assert len(ext.symbols) == 4

    def test_numeric_value(self):
        basis = SymbolBasis.default(10)
        x = basis.rational(2) + basis.term(PI, Fraction(1, 2))
        assert x.value() == pytest.approx(2 + math.pi / 2)


class TestStockAtoms:
    @pytest.mark.parametrize("atom, value", [("pi", math.pi), ("ln2", math.log(2)), ("ln10", math.log(10))])
    def test_stock_values(self, atom, value):
        assert stock_atom_value(atom) == value

    @pytest.mark.parametrize("atom", ["ln0", "ln1", "ln010", "ln02", "ln", "ln-2", "lnx", "e"])
    def test_zero_and_second_spellings_are_no_stock_atoms(self, atom):
        # ln1 = 0, and ln010 would be a second atom for ln10: neither is independent
        assert stock_atom_value(atom) is None

    def test_two_atoms_of_one_value_are_a_usage_error(self):
        basis = SymbolBasis.default(10)
        with pytest.raises(UsageError, match="atoms 'ln10' and 'z' have the same value"):
            basis.extended(Monomial.of(z=1), z=math.log(10))
        with pytest.raises(UsageError, match="atoms 'c' and 'pi' have the same value"):
            basis.extended(c=math.pi)
        assert basis.extended(z=2 * math.log(10)).atoms["z"] == 2 * math.log(10)

    def test_a_stock_atom_is_valued_by_its_name(self):
        # ln2 declared as 5 would make ln2 - 5 a zero real part the engine reads as nonzero
        ln2_as_5 = {"symbols": ["ln2"], "atoms": {"ln2": 5}, "eigenvalues": [
            {"re": {"ln2": "1", "1": "-5"}, "im": {"1": s}} for s in ("2", "-2")]}
        with pytest.raises(UsageError, match="stock atom 'ln2' is 0.6931471805599453 by its name; it cannot be declared as 5.0"):
            parse_exact_spectrum(ln2_as_5)
        with pytest.raises(UsageError, match="stock atom 'pi'"):
            SymbolBasis(symbols=(ONE, PI), atom_values=(("pi", 3.0),))
        # declared with its own value, a stock atom stays accepted
        own = parse_exact_spectrum({"symbols": ["pi"], "atoms": {"pi": 3.141592653589793}, "eigenvalues": [
            {"re": {"1": "1"}, "im": {"pi": s}} for s in ("1", "-1")]})
        assert own[0].basis == SymbolBasis(symbols=(ONE, PI)) and own[0].value() == 1 + math.pi * 1j

    def test_every_atom_of_a_symbol_is_valued(self):
        basis = SymbolBasis(symbols=(ONE, Monomial.of(pi=1, ln2=-1)))
        assert basis.atom_values == (("ln2", math.log(2)), ("pi", math.pi))
        with pytest.raises(UsageError, match="atom 'z' needs a numeric value"):
            basis.extended(Monomial.of(z=1))
        with pytest.raises(UsageError, match="atom 'z' has the value 0"):
            basis.extended(Monomial.of(z=1), z=0.0)


class TestExactRealArithmetic:
    def setup_method(self):
        self.basis = SymbolBasis.default(10)

    def test_add_sub(self):
        a = self.basis.rational(Fraction(1, 3))
        b = self.basis.term(PI, 2)
        assert (a + b - a).coords == b.coords

    def test_rational_flags(self):
        assert self.basis.rational(5).is_rational
        assert not self.basis.term(PI, 1).is_rational
        assert self.basis.zero().is_zero

    def test_mixed_basis_rejected(self):
        other = SymbolBasis.default(2)
        with pytest.raises(MixedBasisError):
            self.basis.rational(1) + other.rational(1)

    def test_complex_conjugate(self):
        z = ExactComplex(self.basis.rational(1), self.basis.term(PI, 1))
        assert z.conjugate().im.coords == (-z.im).coords
        assert (-z).re.coords == (-self.basis.rational(1)).coords


class TestSpanMembership:
    def setup_method(self):
        self.basis = SymbolBasis.default(10)

    def test_rational_over_rational(self):
        coeffs = span_membership(self.basis.rational(1), [self.basis.rational(2)])
        assert coeffs == [Fraction(1, 2)]

    def test_one_not_in_span_of_lnb(self):
        lnb = self.basis.term(Monomial.of(ln10=1), 1)
        assert span_membership(self.basis.rational(1), [lnb]) is None

    def test_zero_always_in_span(self):
        coeffs = span_membership(self.basis.zero(), [self.basis.term(PI, 3)])
        assert coeffs == [Fraction(0)]
        assert span_membership(self.basis.zero(), []) == []

    def test_two_generator_combination(self):
        target = self.basis.rational(1) + self.basis.term(PI, 1)
        gens = [self.basis.rational(2), self.basis.term(PI, 3)]
        coeffs = span_membership(target, gens)
        assert coeffs == [Fraction(1, 2), Fraction(1, 3)]
        # verify by exact substitution
        acc = self.basis.zero()
        for c, g in zip(coeffs, gens):
            acc = acc + g.scaled(c)
        assert acc.coords == target.coords

    def test_dependent_generators(self):
        gens = [self.basis.term(PI, 1), self.basis.term(PI, 2)]
        coeffs = span_membership(self.basis.term(PI, 5), gens)
        assert coeffs is not None
        total = sum((g.scaled(c) for c, g in zip(coeffs, gens)), self.basis.zero())
        assert total.coords == self.basis.term(PI, 5).coords

    def test_membership_over_monomials(self):
        target = {ONE: Fraction(1)}
        gens = [{Monomial.of(ln10=1): Fraction(1)}, {ONE: Fraction(2)}]
        assert membership_over_monomials(target, gens) == [Fraction(0), Fraction(1, 2)]
        assert membership_over_monomials({PI: Fraction(1)}, gens) is None

    def test_mul_symbol(self):
        shifted = mul_symbol({PI: Fraction(2)}, Monomial.of(pi=-1, ln10=1))
        assert shifted == {Monomial.of(ln10=1): Fraction(2)}


class TestRationalLog:
    def test_exact_powers(self):
        assert rational_log(10, 10) == 1
        assert rational_log(100, 10) == 2
        assert rational_log(Fraction(1, 10), 10) == -1
        assert rational_log(8, 2) == 3
        assert rational_log(4, 8) == Fraction(2, 3)
        assert rational_log(Fraction(32, 1), 4) == Fraction(5, 2)

    def test_certified_irrational(self):
        assert rational_log(2, 10) is None
        assert rational_log(3, 10) is None
        assert rational_log(6, 12) is None
        assert rational_log(12, 6) is None

    def test_mixed_prime_support(self):
        # 2^a 5^b with non-proportional exponents cannot be a power of 10
        assert rational_log(Fraction(4, 5), 10) is None
        assert rational_log(20, 10) is None

    def test_exact_log_base_extends_basis(self):
        basis = SymbolBasis.default(10)
        value, ext, certified = exact_log_base(2, 10, basis)
        assert certified
        assert not value.is_rational
        assert value.value() == pytest.approx(math.log10(2))
        # rational case keeps the basis
        value2, same, _ = exact_log_base(100, 10, basis)
        assert same is basis
        assert value2.rational_part == 2
