import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from benflow.errors import DomainError, SignalOverflowError, UnsupportedStructureError, UsageError
from benflow.flowsignal import build_observable_for_modes
from benflow.genericity import EnsembleSpec, sample_generator
from benflow.matrixcore import (
    as_square_matrix,
    companion_from_second_order,
    expm,
    is_hyperbolic,
    jordan_index,
    planar_criterion,
    spectrum,
)
from helpers import double_real_eigenvalue_6x6

RANK_ONE = np.array([[1.0, 1.0], [1.0, 1.0]])
ROT = np.array([[0.1, -1.0], [1.0, 0.1]])  # eigenvalues 0.1 +- i
# the singular matrices of this ensemble whose double eigenvalue 0 eig splits
INT3 = EnsembleSpec(d=3, distribution="int3", N=2000, seed=7)
SINGULAR_INT3 = (415, 497, 1149, 1988)


def multiset_distance(xs, ys):
    """Smallest max-deviation over matchings (exact for small sets)."""
    xs, ys = list(xs), list(ys)
    assert len(xs) == len(ys)
    best = math.inf
    for perm in itertools.permutations(range(len(ys))):
        best = min(best, max(abs(x - ys[p]) for x, p in zip(xs, perm)))
    return best


class TestExpm:
    def test_half_turn_rotation(self):
        result = expm(np.array([[0.0, -math.pi], [math.pi, 0.0]]), 1.0)
        assert np.allclose(result, -np.eye(2), atol=1e-12)

    def test_rank_one_closed_form(self):
        for t in (-1.0, 0.3, 2.0):
            closed = 0.5 * math.exp(2 * t) * RANK_ONE - 0.5 * (RANK_ONE - 2 * np.eye(2))
            assert np.allclose(expm(RANK_ONE, t), closed, rtol=1e-12)

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        assert np.array_equal(expm(a, 0.0), np.eye(5))

    def test_overflow_names_time(self):
        with pytest.raises(SignalOverflowError) as err:
            expm(np.array([[1000.0]]), 1000.0)
        assert err.value.t == 1000.0

    def test_huge_nilpotent_is_exact(self):
        # A^2 = 0, so no squaring is needed; scaling by ||tA||_1 would take about
        # 1013 squarings and turn the diagonal's rounding error into a zero matrix
        result = expm(np.array([[0.0, 1e304], [0.0, 0.0]]), 5.0)
        assert np.array_equal(result, np.array([[1.0, 5e304], [0.0, 1.0]]))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_60_digit_reference(self, d):
        # Gaussian generators (k = 1) and S J S^-1 with one k x k Jordan block in J
        # (k = 2..4, singular values of S in [0.5, 2]) at ||tA||_1 from 1e-3 to 1e3, the
        # sign of t taken so that e^{tA} stays in range.  The relative 1-norm error is
        # held to 64 u max(1, ||tA||_1)^k, u = 2^-53: the conditioning of e^{tA} grows
        # like ||tA||_1^k for a k x k block (the largest ratio over 60 seeds was 19).
        # For d = 1, e^{+-1000} is out of range, so sizes stop at 300
        rng = np.random.default_rng(100 + d)
        sizes = (1e-3, 0.3, 3.0, 30.0, 300.0, 1e3)
        for k in range(1, min(d, 4) + 1):
            for size in sizes if d > 1 else sizes[:-1]:
                if k == 1:
                    a = rng.standard_normal((d, d))
                else:
                    q1, q2 = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
                    s = q1 @ np.diag(rng.uniform(0.5, 2.0, d)) @ q2
                    b = np.diag(rng.standard_normal(d))
                    b[:k, :k] = rng.standard_normal() * np.eye(k) + np.eye(k, k=1)
                    a = s @ b @ np.linalg.inv(s)
                re = np.linalg.eigvals(a).real
                t = math.copysign(size / np.abs(a).sum(axis=0).max(), -re.min() - re.max())
                with mp.workdps(60):
                    exact = mp.expm(mp.matrix(a.tolist()) * mp.mpf(t))
                    ref = np.array([[float(exact[i, j]) for j in range(d)] for i in range(d)])
                assert np.all(np.isfinite(ref)) and ref.any()
                err = np.abs(expm(a, t) - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()
                assert err <= 64 * 2.0**-53 * max(1.0, size) ** k, (k, size, err)

    def test_semigroup_property(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            a = rng.standard_normal((d, d))
            norm = np.linalg.norm(a, 2)
            if norm > 2.0:
                a *= 2.0 / norm
            s, t = rng.uniform(-1, 1, 2)
            defect = np.max(np.abs(expm(a, s + t) - expm(a, s) @ expm(a, t)))
            assert defect < 1e-10

    def test_spectral_mapping(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            a = rng.standard_normal((d, d))
            a *= 1.0 / max(1.0, np.linalg.norm(a, 2))
            delta = rng.uniform(0.2, 1.0)
            mapped = np.exp(delta * np.linalg.eigvals(a))
            direct = np.linalg.eigvals(expm(a, delta))
            assert multiset_distance(direct, mapped) < 1e-8


class TestSpectrum:
    def test_rank_one_flow(self):
        info = spectrum(RANK_ONE)
        assert sorted(p.z.real for p in info.points) == [0.0, 2.0]
        assert [p.z for p in info.dominant] == [2.0 + 0.0j]
        assert info.r == 2.0 and info.kmax == 0

    def test_time_reversed_dominant(self):
        info = spectrum(-RANK_ONE)
        assert [p.z for p in info.dominant] == [0.0 + 0.0j]

    def test_rotation_pair(self):
        info = spectrum(np.array([[2.0, -3.0], [3.0, 2.0]]))
        assert multiset_distance([p.z for p in info.points], [2 + 3j, 2 - 3j]) < 1e-10

    def test_conjugate_closure_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            a = rng.standard_normal((d, d))
            points = spectrum(a).points
            for p in points:
                if p.z.imag != 0.0:
                    partner = [q for q in points if q.z == p.z.conjugate()]
                    assert len(partner) == 1 and partner[0].m == p.m

    def test_conjugate_clusters_with_multiplicity_exact(self):
        # diag(R, R) under similarity: two exactly conjugate clusters, m = 2 each
        r = np.array([[1.0, -2.0], [2.0, 1.0]])
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = rng.standard_normal((4, 4)) + 3 * np.eye(4)
            points = spectrum(p @ np.kron(np.eye(2), r) @ np.linalg.inv(p)).points
            assert [q.m for q in points] == [2, 2]
            low, high = points
            assert low.z == high.z.conjugate() and low.z.imag < 0
            assert abs(high.z - (1 + 2j)) < 1e-8

    def test_near_real_pair_becomes_one_real_cluster(self):
        a = np.array([[1.0, -1e-14], [1e-14, 1.0]])
        assert np.all(np.linalg.eigvals(a).imag != 0.0)  # a computed complex pair
        points = spectrum(a).points
        assert [(q.z, q.m) for q in points] == [(1 + 0j, 2)]
        assert points[0].z.imag == 0.0

    def test_split_jordan_block_is_one_defective_point(self):
        # dgeev splits the Jordan block at 2 into 2 +- 6.4e-8 i: more than thr
        # apart, each within thr of the axis, so both means are made real
        s = np.array([[2.0, 1.0, 3.0], [0.0, 1.0, 3.0], [2.0, 1.0, 0.0]])
        a = s @ np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]]) @ np.linalg.inv(s)
        assert np.count_nonzero(np.linalg.eigvals(a).imag) == 2
        info = spectrum(a)
        assert [(round(p.z.real, 9), p.m, p.k) for p in info.points] == [(-1.0, 1, 0), (2.0, 2, 1)]
        assert info.kmax == 1 and len(info.dominant) == 1
        with pytest.raises(UnsupportedStructureError):
            build_observable_for_modes(a, [2.0], [1.0])

    def test_multiplicities_sum_to_dimension(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            a = rng.standard_normal((d, d))
            info = spectrum(a)
            assert sum(p.m for p in info.points) == d
            assert info.dominant
            assert set(info.dominant) <= set(info.points)

    def test_multiplicity_clustering(self):
        info = spectrum(np.diag([3.0, 3.0, 1.0]))
        multiplicities = {p.z: p.m for p in info.points}
        assert multiplicities[3.0 + 0.0j] == 2

    def test_similarity_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d = 4
            a = rng.standard_normal((d, d))
            p = rng.standard_normal((d, d)) + 3 * np.eye(d)
            conj = p @ a @ np.linalg.inv(p)
            s1, s2 = spectrum(a), spectrum(conj)
            assert multiset_distance([q.z for q in s1.points], [q.z for q in s2.points]) < 1e-6
            assert (
                multiset_distance([q.z for q in s1.dominant], [q.z for q in s2.dominant]) < 1e-6
            )

    def test_jordan_block_dominant_index(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        info = spectrum(a)
        assert info.kmax == 1
        assert info.points[0].m == 3

    def test_one_eigensolve(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
        info = spectrum(double_real_eigenvalue_6x6())
        assert [(round(p.z.real, 6), p.m, p.k) for p in info.points if p.m > 1] == [(2.0, 2, 0)]
        assert len(calls) == 1


class TestJordanIndex:
    def test_nilpotent_block(self):
        assert jordan_index(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0) == 1

    def test_simple_eigenvalue(self):
        assert jordan_index(RANK_ONE, 2.0) == 0

    def test_diagonalizable_double(self):
        assert jordan_index(np.diag([3.0, 3.0]), 3.0) == 0

    def test_complex_pair_uses_quadratic_factor(self):
        a = np.array([[1.0, -2.0], [2.0, 1.0]])
        assert jordan_index(a, complex(1.0, 2.0)) == 0

    def test_defective_complex_pair(self):
        # two coupled rotation blocks: largest block for 1 +- 2i has size 2
        rot = np.array([[1.0, -2.0], [2.0, 1.0]])
        a = np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]])
        assert jordan_index(a, complex(1.0, 2.0)) == 1

    def test_non_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            jordan_index(RANK_ONE, 5.0)

    def test_full_nilpotent_chain(self):
        a = np.diag([1.0, 1.0, 1.0], k=1)
        assert jordan_index(a, 0.0) == 3

    def test_near_identity_rotation_agrees_with_spectrum(self):
        # 1 +- 1e-10 i is one point, m = 2, with no rank drop at 1: k = 0
        angle = 1e-10
        a = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        (point,) = spectrum(a).points
        assert (point.z, point.m, point.k) == (1.0, 2, 0)
        assert jordan_index(a, 1.0) == 0 == point.k

    @pytest.mark.parametrize(
        "block, z",
        [
            (np.array([[0.1, 1.0], [0.0, 0.1]]), 0.1),
            (np.block([[ROT, np.eye(2)], [np.zeros((2, 2)), ROT]]), complex(0.1, 1.0)),
        ],
        ids=["J2", "complex-J2-pair"],
    )
    def test_defective_eigenvalue_that_spectrum_splits(self, block, z):
        # rank drops are counted at z itself, so a Jordan block whose eigenvalue
        # eig splits beyond the clustering gap still reads k = 1
        rng = np.random.default_rng(11)
        split = 0
        for _ in range(200):
            s = rng.standard_normal(block.shape)
            a = s @ block @ np.linalg.inv(s)
            if all(p.m == 1 for p in spectrum(a).points):
                split += 1
                assert jordan_index(a, z) == 1
        assert split > 0


class TestHyperbolicity:
    def test_center_not_hyperbolic(self):
        assert not is_hyperbolic(spectrum(np.array([[0.0, -1.0], [1.0, 0.0]])))

    def test_rank_one_not_hyperbolic(self):
        assert not is_hyperbolic(spectrum(RANK_ONE))

    def test_spiral_hyperbolic(self):
        assert is_hyperbolic(spectrum(np.array([[1.0, -math.pi], [math.pi, 1.0]])))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(UsageError):
            is_hyperbolic(spectrum(RANK_ONE), 0.0)

    @pytest.mark.parametrize("index", SINGULAR_INT3)
    def test_singular_integer_matrix_not_hyperbolic(self, index):
        # det = 0: LAPACK's eig splits the double eigenvalue 0 into two real
        # values about 1.4e-8 to 3.0e-8 off the axis, beyond tol 1e-9; the
        # clustered spectrum puts it back at 0
        a = sample_generator(INT3, index)
        assert round(np.linalg.det(a)) == 0
        assert not is_hyperbolic(spectrum(a))


class TestPlanarCriterion:
    def test_oscillator_on_axis(self):
        assert planar_criterion(np.array([[0.0, 1.0], [-1.0, 0.0]])) is False

    def test_negative_determinant(self):
        assert planar_criterion(np.array([[0.0, 1.0], [1.0, 0.0]])) is True

    def test_second_order_equivalence(self):
        # criterion on the companion matrix matches (1 + a^2)|b| > b
        for a in (-2.0, -0.5, 0.0, 0.5, 2.0):
            for b in (-3.0, -0.25, 0.0, 0.25, 3.0):
                gen = companion_from_second_order(a, b)
                assert planar_criterion(gen) == ((1 + a * a) * abs(b) > b), (a, b)

    def test_wrong_shape_rejected(self):
        with pytest.raises(UsageError):
            planar_criterion(np.eye(3))

    def test_exact_zero_products(self):
        # trace 0, det > 0: both clauses must fail exactly
        assert planar_criterion(np.array([[2.0, -1.0], [5.0, -2.0]])) is False


class TestCompanion:
    def test_sign_placement(self):
        assert companion_from_second_order(0.0, 1.0).tolist() == [[0.0, 1.0], [-1.0, 0.0]]
        assert companion_from_second_order(2.0, -3.0).tolist() == [[0.0, 1.0], [3.0, -2.0]]
        assert companion_from_second_order(0.0, 0.0).tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            companion_from_second_order(math.nan, 0.0)


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(UsageError):
            as_square_matrix(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            as_square_matrix(np.array([[math.inf]]))
