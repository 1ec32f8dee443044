import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benflow import resonance
from benflow.errors import UsageError
from benflow.exactreal import ExactComplex, ExactReal, Monomial, PI, SymbolBasis, exact_log_base
from benflow.resonance import (
    ShellPoint,
    argument_difference_set,
    is_b_nonresonant,
    is_exp_b_nonresonant,
    is_exp_nonresonant_algebraic,
    numeric_relation_scan,
    verify_exp_witness,
)

LN10 = math.log(10)


def scalar_set(basis, value):
    return [ExactComplex(basis.rational(value), basis.zero())]


def conjugate_pair(basis, re, im_symbol, im_coeff):
    z = ExactComplex(basis.rational(re), basis.term(im_symbol, im_coeff))
    return [z, z.conjugate()]


def spiral_pair(b):
    mono = Monomial.of(pi=1, **{f"ln{b}": -1})
    basis = SymbolBasis.default(b).extended(mono)
    return conjugate_pair(basis, 1, mono, 2)


class TestExponentialNonresonance:
    def test_nonzero_rational_singleton(self):
        basis = SymbolBasis.default(10)
        verdict = is_exp_b_nonresonant(scalar_set(basis, 3), 10)
        assert not verdict.resonant
        assert verdict.witness is None

    def test_zero_singleton_resonant(self):
        basis = SymbolBasis.default(10)
        verdict = is_exp_b_nonresonant(scalar_set(basis, 0), 10)
        assert verdict.resonant
        assert verdict.witness.kind == "zero-real-part"

    def test_imaginary_pair_resonant(self):
        basis = SymbolBasis.default(10)
        verdict = is_exp_b_nonresonant(conjugate_pair(basis, 0, PI, 2), 10)
        assert verdict.resonant
        assert verify_exp_witness(verdict.witness, 10)

    def test_spiral_pair_witness(self):
        verdict = is_exp_b_nonresonant(spiral_pair(10), 10)
        assert verdict.resonant
        assert verdict.witness.kind == "span-membership"
        assert verdict.witness.q == 2
        assert tuple(verdict.witness.p) == (1,)
        assert verify_exp_witness(verdict.witness, 10)

    def test_pi_pair_nonresonant_two_bases(self):
        for b in (2, 10):
            basis = SymbolBasis.default(b)
            verdict = is_exp_b_nonresonant(conjugate_pair(basis, 1, PI, 1), b)
            assert not verdict.resonant, b

    def test_assumptions_echoed(self):
        verdict = is_exp_b_nonresonant(spiral_pair(10), 10)
        assert any("Q-linearly independent" in a for a in verdict.assumptions)

    def test_non_symmetric_rejected(self):
        basis = SymbolBasis.default(10)
        lone = ExactComplex(basis.rational(1), basis.term(PI, 1))
        with pytest.raises(UsageError, match="conjugation"):
            is_exp_b_nonresonant([lone], 10)

    def test_conjugate_under_other_real_part_rejected(self):
        # {1 + i, 2 - i}: each Im has its negative, but under the other real part
        basis = SymbolBasis.default(10)
        zs = [
            ExactComplex(basis.rational(1), basis.rational(1)),
            ExactComplex(basis.rational(2), basis.rational(-1)),
        ]
        with pytest.raises(UsageError, match="conjugation"):
            is_exp_b_nonresonant(zs, 10)

    def test_mixed_bases_reported_before_open_set(self):
        b10 = SymbolBasis.default(10)
        lone = ExactComplex(b10.rational(1), b10.term(PI, 1))
        with pytest.raises(UsageError, match="share one symbol basis"):
            is_exp_b_nonresonant([lone] + scalar_set(SymbolBasis.default(2), 2), 10)

    def test_mixed_bases_rejected(self):
        b10 = SymbolBasis.default(10)
        b2 = SymbolBasis.default(2)
        with pytest.raises(UsageError):
            is_exp_b_nonresonant(scalar_set(b10, 1) + scalar_set(b2, 2), 10)

    def test_empty_set_exponentially_resonant(self):
        verdict = is_exp_b_nonresonant([], 10)
        assert verdict.resonant


class TestClosureProperties:
    """Verdicts are preserved under negation, conjugation, subsets, scaling."""

    def corpus(self):
        basis10 = SymbolBasis.default(10)
        yield scalar_set(basis10, 3), 10, False
        yield scalar_set(basis10, 0), 10, True
        yield conjugate_pair(basis10, 1, PI, 1), 10, False
        yield spiral_pair(10), 10, True
        yield conjugate_pair(basis10, 0, PI, 2), 10, True
        basis2 = SymbolBasis.default(2)
        yield conjugate_pair(basis2, 1, PI, 1) + scalar_set(basis2, 5), 2, False

    def test_corpus_baseline(self):
        for zs, b, expected in self.corpus():
            assert is_exp_b_nonresonant(zs, b).resonant == expected

    def test_negation_preserves_nonresonance(self):
        for zs, b, expected in self.corpus():
            if not expected:
                negated = [-z for z in zs]
                assert not is_exp_b_nonresonant(negated, b).resonant

    def test_conjugation_preserves_nonresonance(self):
        for zs, b, expected in self.corpus():
            if not expected:
                conj = [z.conjugate() for z in zs]
                assert not is_exp_b_nonresonant(conj, b).resonant

    def test_conjugate_closed_subsets_preserve_nonresonance(self):
        for zs, b, expected in self.corpus():
            if expected or len(zs) < 2:
                continue
            for size in range(1, len(zs)):
                for subset in itertools.combinations(zs, size):
                    closed = all(
                        any(w.re.coords == z.re.coords and (w.im + z.im).is_zero for w in subset)
                        for z in subset
                    )
                    if closed:
                        assert not is_exp_b_nonresonant(list(subset), b).resonant

    def test_rational_scaling_preserves_verdict(self):
        for zs, b, expected in self.corpus():
            for t in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
                scaled = [z.scaled(t) for z in zs]
                assert is_exp_b_nonresonant(scaled, b).resonant == expected, (t, b)

    def test_agreement_with_algebraic_shortcut_on_rational_sets(self):
        basis = SymbolBasis.default(10)
        rational_sets = [
            [(3, 0)],
            [(0, 0)],
            [(2, 0), (-1, 0)],
            [(1, 2), (1, -2)],
            [(0, 1), (0, -1)],
            [(-2, 3), (-2, -3), (5, 0)],
        ]
        for pairs in rational_sets:
            zs = [
                ExactComplex(basis.rational(re), basis.rational(im)) for re, im in pairs
            ]
            floats = [complex(re, im) for re, im in pairs]
            for b in (2, 10):
                exact = not is_exp_b_nonresonant(zs, b).resonant
                shortcut = is_exp_nonresonant_algebraic(floats, 1e-12)
                assert exact == shortcut, (pairs, b)

    def test_witness_validity_on_resonant_corpus(self):
        for zs, b, expected in self.corpus():
            if expected:
                verdict = is_exp_b_nonresonant(zs, b)
                if verdict.witness is not None and verdict.witness.kind == "span-membership":
                    assert verify_exp_witness(verdict.witness, b)


SHELL_BASIS = SymbolBasis.default(10).extended(Monomial.of(pi=1, ln10=-1))


def shell_reals():
    """Sparse small-rational values over {1, pi, ln10, pi/ln10}."""
    coord = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    return st.tuples(*[coord] * len(SHELL_BASIS.symbols)).map(lambda cs: ExactReal(SHELL_BASIS, cs))


@st.composite
def shell_point_sets(draw):
    """One to four points over at most two shared log-moduli."""
    moduli = draw(st.lists(shell_reals(), min_size=1, max_size=2))
    count = draw(st.integers(1, 4))
    return [ShellPoint(draw(st.sampled_from(moduli)), draw(shell_reals())) for _ in range(count)]


class TestShellNonresonance:
    @given(shell_point_sets())
    @settings(max_examples=300, deadline=None)
    def test_witness_validity_on_random_shells(self, points):
        verdict = is_b_nonresonant(points, 10)
        witness = verdict.witness
        if not verdict.resonant:
            assert witness is None
            return
        if witness.kind == "span-membership":
            # q * target = sum p_l * delta_l over the target's own shell
            assert witness.q >= 1 and all(witness.p)
            shell = [pt for pt in points if pt.log_modulus == witness.target]
            assert shell
            deltas = {d.coords for d in argument_difference_set(shell)}
            assert all(e.coords in deltas for e in witness.elements)
            total = SHELL_BASIS.zero()
            for coeff, element in zip(witness.p, witness.elements):
                total = total + element.scaled(coeff)
            assert witness.target.scaled(witness.q) == total
        else:
            assert witness.kind == "argument-difference"
            zi, zj = witness.elements
            assert zi.log_modulus == zj.log_modulus
            assert witness.p[0] != 0
            assert zi.turns - zj.turns == SHELL_BASIS.rational(Fraction(witness.p[0], witness.q))

    def test_rational_two_nonresonant(self):
        basis = SymbolBasis.default(10)
        lm, ext, certified = exact_log_base(2, 10, basis)
        assert certified
        verdict = is_b_nonresonant([ShellPoint(lm, ext.zero())], 10)
        assert not verdict.resonant

    def test_base_itself_resonant(self):
        basis = SymbolBasis.default(10)
        lm, ext, _ = exact_log_base(10, 10, basis)
        verdict = is_b_nonresonant([ShellPoint(lm, ext.zero())], 10)
        assert verdict.resonant
        assert verdict.witness.kind == "span-membership"

    def test_plus_minus_e_resonant_every_base(self):
        # {-e, e}: same modulus, argument difference exactly half a turn
        for b in (2, 3, 10):
            inv_ln = Monomial.of(**{f"ln{b}": -1})
            basis = SymbolBasis.default(b).extended(inv_ln)
            log_mod = basis.term(inv_ln, 1)  # log_b e = 1 / ln b
            points = [
                ShellPoint(log_mod, basis.zero()),
                ShellPoint(log_mod, basis.rational(Fraction(1, 2))),
            ]
            verdict = is_b_nonresonant(points, b)
            assert verdict.resonant, b
            assert verdict.witness.kind == "argument-difference"

    def test_unit_circle_resonant(self):
        # r = 1: log_b 1 = 0 is in every span
        basis = SymbolBasis.default(10)
        verdict = is_b_nonresonant([ShellPoint(basis.zero(), basis.zero())], 10)
        assert verdict.resonant

    def test_empty_set_nonresonant(self):
        assert not is_b_nonresonant([], 10).resonant

    def test_argument_difference_set_invariants(self):
        basis = SymbolBasis.default(10)
        points = [
            ShellPoint(basis.zero(), basis.zero()),
            ShellPoint(basis.zero(), basis.rational(Fraction(1, 3))),
            ShellPoint(basis.zero(), basis.term(PI, Fraction(1, 7))),
        ]
        deltas = argument_difference_set(points)
        one = basis.rational(1)
        assert any(d.coords == one.coords for d in deltas)
        # closed under x -> 2 - x (swapping the pair)
        coords = {d.coords for d in deltas}
        for d in deltas:
            mirrored = one.scaled(2) - d
            assert mirrored.coords in coords

    def test_distinct_shells_checked_independently(self):
        basis = SymbolBasis.default(10)
        lm2, ext, _ = exact_log_base(2, 10, basis)
        lm10 = ext.rational(1)
        points = [ShellPoint(lm2, ext.zero()), ShellPoint(lm10, ext.zero())]
        verdict = is_b_nonresonant(points, 10)
        assert verdict.resonant  # the r = 10 shell trips condition (ii)


class TestAlgebraicShortcut:
    def test_rank_one_spectrum(self):
        assert not is_exp_nonresonant_algebraic([0.0, 2.0])

    def test_off_axis_pair(self):
        assert is_exp_nonresonant_algebraic([complex(1, math.sqrt(2)), complex(1, -math.sqrt(2))])

    def test_pure_imaginary(self):
        assert not is_exp_nonresonant_algebraic([1j, -1j])

    def test_tolerance_required(self):
        with pytest.raises(UsageError):
            is_exp_nonresonant_algebraic([1.0], 0.0)


def brute_force_relation(re, gens, height, residual=1e-9):
    """Exhaustive oracle for q*re = sum p_l gens_l with coefficients <= height."""
    scale = max([abs(re)] + [abs(g) for g in gens] + [1.0])
    for q in range(1, height + 1):
        for ps in itertools.product(range(-height, height + 1), repeat=len(gens)):
            if abs(q * re - sum(p * g for p, g in zip(ps, gens))) < residual * scale:
                return q, ps
    return None


class TestNumericRelationScan:
    def test_spiral_pair_found(self):
        c = 2 * math.pi / LN10
        rel = numeric_relation_scan([complex(1, c), complex(1, -c)], 10, 4)
        assert rel is not None
        assert rel.q == 2
        assert tuple(rel.p) == (1,)
        # residual verified at high precision
        with mpmath.workdps(60):
            residual = abs(
                rel.q * mpmath.mpf(1)
                - rel.p[0] * mpmath.log(10) / mpmath.pi * mpmath.mpf(rel.elements[0].imag)
            )
            assert residual < 1e-9

    def test_real_singleton_none(self):
        assert numeric_relation_scan([complex(1, 0)], 10) is None

    def test_off_relation_pair_none(self):
        zs = [complex(3, 1), complex(3, -1)]
        assert numeric_relation_scan(zs, 10, 20) is None
        # exhaustive oracle agrees: no relation up to height 20
        gens = [LN10 / math.pi * 1.0]
        assert brute_force_relation(3.0, gens, 20) is None

    def test_imaginary_axis_trivial_relation(self):
        rel = numeric_relation_scan([complex(0, 2), complex(0, -2)], 10, 8)
        assert rel is not None
        assert rel.residual < 1e-9

    def test_three_element_group_via_pslq(self):
        # Re = (ln b / pi)(im1 + im2) with Q-independent im parts
        im1 = 1.0
        im2 = math.sqrt(2)
        re = LN10 / math.pi * (im1 + im2)
        zs = [
            complex(re, im1),
            complex(re, -im1),
            complex(re, im2),
            complex(re, -im2),
        ]
        rel = numeric_relation_scan(zs, 10, 8)
        assert rel is not None
        assert rel.q >= 1
        # substitute back numerically
        total = sum(
            p * LN10 / math.pi * w.imag for p, w in zip(rel.p, rel.elements)
        )
        assert abs(rel.q * re - total) < 1e-8

    def test_height_bounds_search(self):
        # the relation 7*Re = 3*(ln b/pi)*Im needs coefficients above height 2
        g = LN10 / math.pi
        zs = [complex(3 * g / 7, 1), complex(3 * g / 7, -1)]
        assert numeric_relation_scan(zs, 10, 2) is None
        found = numeric_relation_scan(zs, 10, 8)
        assert found is not None and found.q == 7 and tuple(found.p) == (3,)

    def test_planted_two_generator_relations_found(self):
        # q Re z = p_1 g_1 + p_2 g_2, g_l = (ln 10 / pi) Im w_l: every planted
        # relation is found, not only those whose float residual is exactly 0
        rng = random.Random(5)
        for _ in range(300):
            ims = [rng.uniform(0.2, 3.0) for _ in range(2)]
            q = rng.randint(1, 8)
            p = [rng.choice((-1, 1)) * rng.randint(1, 8) for _ in range(2)]
            re = sum(pl * LN10 / math.pi * im for pl, im in zip(p, ims)) / q
            zs = [complex(re, s * im) for im in ims for s in (1, -1)]
            rel = numeric_relation_scan(zs, 10, 8)
            assert rel is not None, (q, p, ims)
            assert max(rel.q, *map(abs, rel.p)) <= 8

    def test_unrelated_two_generator_sets_none(self):
        rng = random.Random(6)
        for _ in range(300):
            re, ims = rng.uniform(-3.0, 3.0), [rng.uniform(0.2, 3.0) for _ in range(2)]
            zs = [complex(re, s * im) for im in ims for s in (1, -1)]
            assert numeric_relation_scan(zs, 10, 8) is None, zs

    def test_bad_height_rejected(self):
        with pytest.raises(UsageError):
            numeric_relation_scan([complex(1, 1)], 10, 0)

    @staticmethod
    def _spy_pslq(monkeypatch):
        """Record every relation PSLQ returns during a scan."""
        found = []
        real = resonance._pslq_relation

        def spy(values, height):
            rel = real(values, height)
            found.append(rel)
            return rel

        monkeypatch.setattr(resonance, "_pslq_relation", spy)
        return found

    def test_generator_relation_dropped_then_found(self, monkeypatch):
        # Im in {1, 2, e}: PSLQ first meets the re-free relation g2 = 2 g1,
        # drops a generator and then finds 4 Re = 3 (ln b / pi) * 2
        found = self._spy_pslq(monkeypatch)
        re = 1.5 * LN10 / math.pi
        zs = [complex(re, s * im) for im in (1.0, 2.0, math.e) for s in (1, -1)]
        rel = numeric_relation_scan(zs, 10, 8)
        assert found[0] is not None and found[0][0] == 0
        assert rel is not None
        assert (rel.q, tuple(rel.p)) == (4, (3,))
        assert [w.imag for w in rel.elements] == [2.0]

    def test_generator_relation_dropped_then_none(self, monkeypatch):
        found = self._spy_pslq(monkeypatch)
        re = 1 + math.sqrt(2) / 7
        zs = [complex(re, s * im) for im in (1.0, 2.0, math.e) for s in (1, -1)]
        assert numeric_relation_scan(zs, 10, 8) is None
        assert found[0] is not None and found[0][0] == 0

    def test_chained_real_parts_split_at_anchor_distance(self, monkeypatch):
        # Re x, x + 0.6 g, x + 1.2 g with g = _GROUP_TOL * scale: the middle one
        # joins x, the last is over g from the anchor x and opens a second group
        scanned = []
        real = resonance._scan_group

        def spy(re, gens, height):
            scanned.append((re, len(gens)))
            return real(re, gens, height)

        monkeypatch.setattr(resonance, "_scan_group", spy)
        factor = LN10 / math.pi
        ims = (1.0, math.sqrt(2), math.sqrt(3))  # no relation with Re
        scale = max(ims) * factor
        g = resonance._GROUP_TOL * scale
        res = [1.0, 1.0 + 0.6 * g, 1.0 + 1.2 * g]
        zs = [complex(re, im) for re, im in zip(res, ims)]
        assert numeric_relation_scan(zs, 10, 8) is None
        assert scanned == [(res[0] / scale, 2), (res[2] / scale, 1)]

    @pytest.mark.parametrize(
        "zs", [[complex(0.3, 5e-324), complex(0.3, -5e-324)], [complex(0.3, 1e-310), complex(0.3, -1e-310), 1e6]]
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_ratio_has_no_relation(self, zs):
        # Re / g overflows for a subnormal g; like a huge finite ratio, its best fit has |p| > height.
        # The prefilter sends such rows to the scan, so a census meets them too, without warnings.
        assert _candidate(zs, 10, 8)
        assert numeric_relation_scan(zs, 10, 8) is None


BASES = (2, 10, 16)
HEIGHTS = st.integers(1, 10**6)


def _candidate(row, b, height) -> bool:
    """Whether the prefilter sends this one spectrum to the scan."""
    return bool(resonance._relation_candidates(np.array([row], dtype=complex), b, height)[0])


def _pair(re, im):
    return [complex(re, im), complex(re, -im)]


class TestRelationPrefilter:
    """A row outside resonance._relation_candidates must be one the scan
    finds nothing in; planted relations must all land in the mask."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(BASES), HEIGHTS, st.data())
    def test_planted_rational_ratio(self, b, height, data):
        q = data.draw(st.integers(1, height))
        p = data.draw(st.integers(-height, height))
        im = data.draw(st.floats(1e-3, 1e3))
        extra = data.draw(st.lists(st.floats(-50.0, 50.0), max_size=3))
        re = p * (math.log(b) / math.pi * im) / q
        assert _candidate(_pair(re, im) + extra, b, height)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(BASES), HEIGHTS, st.data())
    def test_near_relations_never_missed(self, b, height, data):
        # Re within a few _RESIDUAL_TOL * scale of (p/q) g: the scan's
        # acceptance edge, where a rounding slip in the prefilter would show
        q = data.draw(st.integers(1, height))
        p = data.draw(st.integers(-height, height))
        im = data.draw(st.floats(1e-2, 1e2))
        g = math.log(b) / math.pi * im
        re = p * g / q
        scale = max(1.0, abs(re), g)
        re += data.draw(st.floats(-4.0, 4.0)) * resonance._RESIDUAL_TOL * scale / q
        row = _pair(re, im)
        if numeric_relation_scan(row, b, height) is not None:
            assert _candidate(row, b, height)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(BASES),
        HEIGHTS,
        st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 4)), min_size=1, max_size=4),
        st.sampled_from([1.0, 0.5, 1 / 3, math.pi, math.log(10) / math.pi]),
    )
    def test_no_scan_hit_outside_the_mask(self, b, height, parts, unit):
        # small lattices of values in one unit collide and relate often
        row = [z for re, im in parts for z in _pair(re * unit, im * unit)]
        if numeric_relation_scan(row, b, height) is not None:
            assert _candidate(row, b, height)

    @pytest.mark.parametrize("b", BASES)
    @pytest.mark.parametrize("height", [1, 8, 10**6])
    def test_imaginary_axis(self, b, height):
        assert _candidate(_pair(0.0, 2.0) + [3.0], b, height)
        assert _candidate([0.0, 5.0], b, height)
        assert _candidate(_pair(1e-12, 1.0), b, height)

    @pytest.mark.parametrize("b", BASES)
    @pytest.mark.parametrize("height", [1, 8, 10**6])
    def test_two_pairs_under_one_real_part(self, b, height):
        # the PSLQ branch: two generators in one group
        re = math.log(b) / math.pi * (1.0 + math.sqrt(2))
        row = _pair(re, 1.0) + _pair(re, math.sqrt(2))
        assert _candidate(row, b, height)
        assert _candidate(_pair(0.7, 1.0) + _pair(0.7 + 1e-10, 2.0), b, height)
        assert _candidate([2.5, 2.5 + 1e-10], b, height)

    @pytest.mark.parametrize("b", BASES)
    @pytest.mark.parametrize("height", [1, 8, 10**6])
    def test_tiny_generator_against_scale(self, b, height):
        # g = 7e-5 under scale 1e6: 2 _RESIDUAL_TOL scale / g > 1/2, any Re fits
        row = _pair(0.123456789, 1e-4) + [1e6]
        assert _candidate(row, b, height)
        assert _candidate(_pair(0.3, 1e-300), b, height)

    @pytest.mark.parametrize("b", BASES)
    @pytest.mark.parametrize("height", [1, 8, 10**6])
    def test_huge_ratio(self, b, height):
        # Re / g past 2^52 keeps no fractional bit, so ||q x|| is 0
        assert _candidate(_pair(1.0, 1e-20), b, height)
        assert _candidate(_pair(3.0, 3e-16), b, height)

    @pytest.mark.parametrize("b", BASES)
    def test_unrelated_rows_stay_out(self, b):
        # the mask is tight where the scan has nothing to find
        assert not _candidate(_pair(math.sqrt(2), math.e), b, 8)
        assert not _candidate([math.sqrt(3), -math.pi] + _pair(-1.1, 0.9), b, 1000)
        assert not _candidate(_pair(1.0 + math.sqrt(2) / 7, 1.0) + _pair(-2.0, 2.0), b, 8)

    def test_non_finite_rows_go_to_the_scan(self):
        mask = resonance._relation_candidates(np.array([[complex(math.nan, 1.0), 1.0], [2.0, math.sqrt(2)]]), 10, 8)
        assert mask.tolist() == [True, False]

    def test_height_cap_shared_with_the_scan(self):
        with pytest.raises(UsageError, match="unreasonably large"):
            numeric_relation_scan([complex(1, 1)], 10, 10**6 + 1)
        with pytest.raises(UsageError, match="unreasonably large"):
            resonance._check_height(10**6 + 1)
        resonance._check_height(10**6)
