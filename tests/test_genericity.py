import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from benflow import genericity
from benflow.errors import UsageError
from benflow.genericity import (
    CensusReport,
    EnsembleSpec,
    _draw_batch,
    _has_close_pair,
    resonance_census,
    sample_generator,
)
from benflow.resonance import is_exp_nonresonant_algebraic
from exact_oracles import characteristic_polynomial, enumerate_integer_support, exact_discriminant
from helpers import census_reference, discriminant_proxy


class TestEnsemble:
    def test_validation(self):
        with pytest.raises(UsageError):
            EnsembleSpec(d=0, distribution="gaussian", N=1, seed=0)
        with pytest.raises(UsageError):
            EnsembleSpec(d=2, distribution="gaussian", N=0, seed=0)
        with pytest.raises(UsageError):
            EnsembleSpec(d=2, distribution="cauchy", N=1, seed=0)

    def test_determinism(self):
        spec = EnsembleSpec(d=3, distribution="gaussian", N=10, seed=42)
        a = sample_generator(spec, 4)
        b = sample_generator(spec, 4)
        assert np.array_equal(a, b)

    def test_distinct_indices_distinct_draws(self):
        spec = EnsembleSpec(d=2, distribution="gaussian", N=1000, seed=5)
        seen = {sample_generator(spec, i).tobytes() for i in range(1000)}
        assert len(seen) == 1000

    def test_integer_entries(self):
        spec = EnsembleSpec(d=1, distribution="int1", N=50, seed=1)
        values = {float(sample_generator(spec, i)[0, 0]) for i in range(50)}
        assert values <= {-1.0, 0.0, 1.0}

    def test_uniform_range(self):
        spec = EnsembleSpec(d=4, distribution="uniform", N=5, seed=9)
        a = sample_generator(spec, 0)
        assert np.all(np.abs(a) < 1.0)

    def test_index_bounds(self):
        spec = EnsembleSpec(d=2, distribution="gaussian", N=3, seed=0)
        with pytest.raises(UsageError):
            sample_generator(spec, 3)

    def test_integer_bound_fits_int64(self):
        # -m..m is drawn as int64, so 2^63 - 1 is the largest bound
        largest = EnsembleSpec(d=2, distribution=f"int{2**63 - 1}", N=1, seed=0)
        assert sample_generator(largest, 0).shape == (2, 2)
        with pytest.raises(UsageError, match="2\\^63 - 1"):
            EnsembleSpec(d=2, distribution=f"int{2**63}", N=1, seed=0)


DRAW_DISTRIBUTIONS = ["gaussian", "uniform", "int1", "int3", "int1000000", f"int{2**63 - 1}"]


def _fresh_draw(spec: EnsembleSpec, index: int) -> np.ndarray:
    """Matrix `index` from a Philox built for it alone: the documented stream."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed, counter=[0, index, 0, 0]))
    shape = (spec.d, spec.d)
    if spec.distribution == "gaussian":
        return rng.standard_normal(shape)
    if spec.distribution == "uniform":
        return rng.uniform(-1.0, 1.0, shape)
    return rng.integers(-spec.int_bound, spec.int_bound + 1, size=shape).astype(float)


class TestBatchDraws:
    # one reused Philox whose counter is rewritten through `state` must give
    # the bytes of a fresh Philox per index, which depends on numpy's layout
    # of bit_generator.state

    @pytest.mark.parametrize("dist", DRAW_DISTRIBUTIONS)
    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    def test_batch_equals_fresh_philox(self, dist, seed):
        spec = EnsembleSpec(d=3, distribution=dist, N=100_000, seed=seed)
        batch = max(1, genericity.SLICE // spec.d**2)
        for lo, hi in ((0, 40), (batch - 3, batch), (batch, batch + 3), (batch - 2, batch + 2), (99_990, 100_000)):
            stack = _draw_batch(spec, lo, hi)
            assert stack.shape == (hi - lo, 3, 3) and stack.dtype == np.float64
            for row, index in zip(stack, range(lo, hi)):
                assert row.tobytes() == _fresh_draw(spec, index).tobytes(), (lo, index)
                assert sample_generator(spec, index).tobytes() == row.tobytes()

    @pytest.mark.parametrize("dist", DRAW_DISTRIBUTIONS)
    def test_census_batches_draw_the_documented_stream(self, monkeypatch, dist):
        # batches of 7 at d = 3: every boundary of the census's own batches is crossed
        monkeypatch.setattr(genericity, "SLICE", SMALL_SLICE)
        spec = EnsembleSpec(d=3, distribution=dist, N=30, seed=2**128 - 1)
        drawn = []
        real = genericity._draw_batch
        monkeypatch.setattr(genericity, "_draw_batch", lambda *args: drawn.append(real(*args)) or drawn[-1])
        resonance_census(spec, 10, 1e-8, 8)
        assert [len(stack) for stack in drawn] == [7, 7, 7, 7, 2]
        assert np.concatenate(drawn).tobytes() == np.stack([_fresh_draw(spec, i) for i in range(30)]).tobytes()


class TestDiscriminantProxy:
    def test_nilpotent_double_eigenvalue(self):
        assert discriminant_proxy(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_distinct_diagonal(self):
        assert not discriminant_proxy(np.diag([1.0, 2.0]))

    def test_rank_one_distinct(self):
        assert not discriminant_proxy(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_agrees_with_exact_discriminant_on_integer_matrices(self):
        # a defective multiple eigenvalue splits numerically by ~eps^(1/m),
        # so the proxy needs a loose tolerance to catch every exact zero,
        # while a tight tolerance must never produce false positives:
        # a nonzero integer discriminant forces gaps far above 1e-7
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = rng.integers(-2, 3, size=(3, 3)).astype(float)
            if exact_discriminant(a) == 0:
                assert discriminant_proxy(a, 1e-4), a
            else:
                assert not discriminant_proxy(a, 1e-7), a

    def test_exact_discriminant_values(self):
        assert exact_discriminant(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0
        assert exact_discriminant(np.diag([1.0, 2.0])) == 1
        assert exact_discriminant(np.array([[1.0, 1.0], [1.0, 1.0]])) == 4

    def test_characteristic_polynomial(self):
        coeffs = characteristic_polynomial(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert [float(c) for c in coeffs] == [1.0, -2.0, 0.0]

    def test_exact_discriminant_dimension_guard(self):
        with pytest.raises(UsageError):
            exact_discriminant(np.eye(5))


class TestCensus:
    def test_gaussian_hits_are_null(self):
        spec = EnsembleSpec(d=4, distribution="gaussian", N=2000, seed=7)
        report = resonance_census(spec, 10, 1e-8, 8)
        assert report.imaginary_axis_hits == 0
        assert report.multiple_eigenvalue_hits == 0
        assert report.relation_hits == 0

    def test_determinism(self):
        spec = EnsembleSpec(d=3, distribution="gaussian", N=500, seed=11)
        r1 = resonance_census(spec, 10, 1e-8, 8)
        r2 = resonance_census(spec, 10, 1e-8, 8)
        assert r1.to_dict() == r2.to_dict()

    def test_integer_ensemble_hits(self):
        # oracle: the support of int1 at d = 2 contains imaginary-axis matrices
        support_hits = sum(
            1
            for a in enumerate_integer_support(2, 1)
            if np.abs(np.linalg.eigvals(a).real).min() <= 1e-8
        )
        assert support_hits > 0
        spec = EnsembleSpec(d=2, distribution="int1", N=2000, seed=3)
        report = resonance_census(spec, 10, 1e-8, 8)
        assert report.imaginary_axis_hits > 0
        # the hit fraction should be near the support fraction (3^4 matrices)
        support_fraction = support_hits / 81.0
        assert abs(report.imaginary_axis_hits / 2000 - support_fraction) < 0.05

    def test_single_sample_counts(self):
        spec = EnsembleSpec(d=2, distribution="gaussian", N=1, seed=0)
        report = resonance_census(spec, 10, 1e-8, 8)
        for value in (
            report.imaginary_axis_hits,
            report.multiple_eigenvalue_hits,
            report.relation_hits,
        ):
            assert value in (0, 1)

    def test_monotonicity_in_tolerance(self):
        spec = EnsembleSpec(d=2, distribution="uniform", N=500, seed=21)
        previous = None
        for tol in (1e-8, 1e-4, 1e-2, 1e-1):
            report = resonance_census(spec, 10, tol, 4)
            counts = (report.imaginary_axis_hits, report.multiple_eigenvalue_hits)
            if previous is not None:
                assert counts[0] >= previous[0]
                assert counts[1] >= previous[1]
            previous = counts

    def test_hit_fraction_shrinks_with_tolerance(self):
        # nullset proxy: hits scale roughly linearly in tol for a continuous
        # ensemble (order of magnitude only)
        spec = EnsembleSpec(d=2, distribution="uniform", N=4000, seed=2)
        loose = resonance_census(spec, 10, 1e-1, 1).imaginary_axis_hits
        tight = resonance_census(spec, 10, 1e-4, 1).imaginary_axis_hits
        assert loose > 0
        assert tight <= loose / 10

    def test_json_schema(self):
        spec = EnsembleSpec(d=2, distribution="gaussian", N=10, seed=1)
        report = resonance_census(spec, 10, 1e-8, 8)
        data = json.loads(json.dumps(report.to_dict()))
        assert set(data) == {
            "n",
            "imaginary_axis_hits",
            "multiple_eigenvalue_hits",
            "relation_hits",
            "tol",
            "height",
            "seed",
            "ensemble",
            "dim",
            "base",
            "rng_algorithm",
        }
        assert data["rng_algorithm"] == "philox4x64"
        assert data["n"] == 10

    def test_multiple_hits_match_discriminant_proxy(self):
        spec = EnsembleSpec(d=3, distribution="int2", N=300, seed=5)
        report = resonance_census(spec, 10, 1e-8, 4)
        expected = sum(discriminant_proxy(sample_generator(spec, i), 1e-8) for i in range(spec.N))
        assert report.multiple_eigenvalue_hits == expected > 0

    def test_bad_parameters(self):
        spec = EnsembleSpec(d=2, distribution="gaussian", N=5, seed=0)
        with pytest.raises(UsageError):
            resonance_census(spec, 10, 1e-8, 0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        spec = EnsembleSpec(d=2, distribution="gaussian", N=5, seed=0)
        with pytest.raises(UsageError, match="finite and positive"):
            resonance_census(spec, 10, tol, 8)


ENSEMBLES = [(d, dist) for d in range(1, 7) for dist in ("gaussian", "uniform", "int1", "int3")]
SMALL_SLICE = 64  # batches of 64, 16, 7, 4, 2 and 1 matrices for d = 1..6


def _census_args(dist: str) -> list[tuple[int, float, int]]:
    # a loose tolerance gives continuous ensembles hits to compare too
    return [(10, 1e-8, 8), (2, 1e-2, 3)] if dist in ("gaussian", "uniform") else [(10, 1e-8, 8)]


class TestBatchedCensus:
    @pytest.mark.parametrize("d,dist", ENSEMBLES)
    def test_matches_per_matrix_reference(self, monkeypatch, d, dist):
        # N = 151 gives several batches at every d, the last one partial for d <= 5
        monkeypatch.setattr(genericity, "SLICE", SMALL_SLICE)
        for n in (1, 151):
            spec = EnsembleSpec(d=d, distribution=dist, N=n, seed=100 + d)
            for b, tol, height in _census_args(dist):
                assert resonance_census(spec, b, tol, height) == census_reference(spec, b, tol, height)

    def test_integer_ensembles_hit_every_proxy(self, monkeypatch):
        # the reference comparison above is not vacuous: batched hits occur
        monkeypatch.setattr(genericity, "SLICE", SMALL_SLICE)
        report = resonance_census(EnsembleSpec(d=3, distribution="int1", N=151, seed=103), 10, 1e-8, 8)
        assert min(report.imaginary_axis_hits, report.multiple_eigenvalue_hits, report.relation_hits) > 0

    @pytest.mark.parametrize("d,dist", ENSEMBLES)
    def test_stacked_eigvals_bit_identical(self, d, dist):
        spec = EnsembleSpec(d=d, distribution=dist, N=151, seed=200 + d)
        matrices = [sample_generator(spec, i) for i in range(spec.N)]
        stacked = np.linalg.eigvals(np.stack(matrices))
        for a, row in zip(matrices, stacked):
            single = np.linalg.eigvals(a).astype(complex)
            assert single.tobytes() == row.astype(complex).tobytes()

    @pytest.mark.parametrize("slice_size,d,n", [(SMALL_SLICE, 3, 20), (SMALL_SLICE, 1, 64), (None, 4, 5000)])
    def test_one_eigensolve_per_batch(self, monkeypatch, slice_size, d, n):
        if slice_size is not None:
            monkeypatch.setattr(genericity, "SLICE", slice_size)
        sizes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: sizes.append(a.size) or eigvals(a))
        resonance_census(EnsembleSpec(d=d, distribution="gaussian", N=n, seed=1), 10, 1e-8, 8)
        batch = max(1, genericity.SLICE // d**2)
        assert len(sizes) == math.ceil(n / batch)
        assert max(sizes) <= genericity.SLICE
        assert sum(sizes) == n * d * d

    def test_close_pair_per_spectrum(self):
        eigs = np.array([[[1.0, 2.0, 1.0 + 1e-9], [1.0, 2.0, 3.0]], [[0j, 1j, -1j], [5.0, 5.0, -5.0]]])
        flags = _has_close_pair(eigs, 1e-8)
        assert flags.shape == (2, 2)
        assert flags.tolist() == [[True, False], [False, True]]
        assert not _has_close_pair(np.array([[4.0], [4.0]]), 1.0).any()


# the 14-report corpus of the stacked-eigensolve census: several batches,
# the last one partial for d >= 3, in two (base, tol, height) settings
CORPUS = [(1, "gaussian", 4000, 1), (2, "uniform", 4000, 2), (3, "int1", 8000, 3), (3, "int3", 8000, 7),
          (4, "gaussian", 5000, 4), (5, "uniform", 3000, 5), (6, "int3", 2000, 6)]
CORPUS_SHA256 = "5b45576ec914a672890ac5d600ccd66d1a646c97125aacd6adf7bd7427b4e746"


class TestRelationPrefilter:
    def test_corpus_hash(self):
        text = "".join(
            json.dumps(resonance_census(EnsembleSpec(d=d, distribution=dist, N=n, seed=seed), b, tol, h).to_dict(),
                       sort_keys=True) + "\n"
            for d, dist, n, seed in CORPUS
            for b, tol, h in ((10, 1e-8, 8), (2, 1e-3, 3))
        )
        assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256

    @pytest.mark.parametrize("height", [1, 8, 20, 1000, 10**6])
    @pytest.mark.parametrize("d,dist", [(4, "gaussian"), (5, "uniform"), (3, "int1"), (3, "int3"), (2, "int1"),
                                        (6, "int1000000")])
    def test_matches_reference_at_height(self, monkeypatch, height, d, dist):
        monkeypatch.setattr(genericity, "SLICE", SMALL_SLICE)
        spec = EnsembleSpec(d=d, distribution=dist, N=300, seed=40 + d)
        for b in (10, 2):
            assert resonance_census(spec, b, 1e-8, height) == census_reference(spec, b, 1e-8, height)

    def test_reference_comparison_sees_hits_at_every_height(self):
        # the heights above are not vacuous: a continuous ensemble hits at 10^6
        spec = EnsembleSpec(d=4, distribution="gaussian", N=2000, seed=7)
        assert resonance_census(spec, 10, 1e-8, 10**6).relation_hits > 0
        assert resonance_census(EnsembleSpec(d=3, distribution="int1", N=300, seed=43), 10, 1e-8, 1).relation_hits > 0

    @staticmethod
    def _count_scans(monkeypatch):
        calls = []
        real = genericity.numeric_relation_scan
        monkeypatch.setattr(genericity, "numeric_relation_scan", lambda *args: calls.append(args) or real(*args))
        return calls

    def test_gaussian_block_skips_the_scan(self, monkeypatch):
        calls = self._count_scans(monkeypatch)
        report = resonance_census(EnsembleSpec(d=4, distribution="gaussian", N=500, seed=1), 10, 1e-8, 8)
        assert report.relation_hits == 0
        assert calls == []

    def test_candidates_scanned_in_index_order(self, monkeypatch):
        calls = self._count_scans(monkeypatch)
        spec = EnsembleSpec(d=3, distribution="int1", N=200, seed=3)
        report = resonance_census(spec, 10, 1e-8, 8)
        spectra = [np.linalg.eigvals(sample_generator(spec, i)).tolist() for i in range(spec.N)]
        remaining = iter(spectra)  # the scanned rows are a subsequence of the spectra
        assert all(any(row == spectrum for spectrum in remaining) for row, _, _ in calls)
        assert len(calls) >= report.relation_hits > 0
        assert all(args[1:] == (10, 8) for args in calls)

    def test_height_cap_checked_up_front(self, monkeypatch):
        # a Gaussian block puts no row through the scan, yet the cap still applies
        calls = self._count_scans(monkeypatch)
        spec = EnsembleSpec(d=1, distribution="gaussian", N=3, seed=0)
        with pytest.raises(UsageError, match="unreasonably large"):
            resonance_census(spec, 10, 1e-8, 2_000_000)
        assert resonance_census(spec, 10, 1e-8, 10**6).relation_hits == 0
        assert calls == []


class TestSlottedRecords:
    def test_no_instance_dict(self):
        spec = EnsembleSpec(d=2, distribution="int1", N=3, seed=4)
        report = resonance_census(spec, 10, 1e-8, 8)
        for record, field in ((spec, "seed"), (report, "base")):
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, 5)

    def test_to_dict_equality_and_replace(self):
        spec = EnsembleSpec(d=3, distribution="int3", N=8000, seed=7)
        report = CensusReport(spec, 10, 1e-8, 8, 638, 101, 637)
        assert report.to_dict() == {
            "n": 8000,
            "imaginary_axis_hits": 638,
            "multiple_eigenvalue_hits": 101,
            "relation_hits": 637,
            "tol": 1e-8,
            "height": 8,
            "seed": 7,
            "ensemble": "int3",
            "dim": 3,
            "base": 10,
            "rng_algorithm": "philox4x64",
        }
        assert spec == EnsembleSpec(d=3, distribution="int3", N=8000, seed=7)
        assert hash(spec) == hash(EnsembleSpec(d=3, distribution="int3", N=8000, seed=7))
        assert report == CensusReport(spec, 10, 1e-8, 8, 638, 101, 637)
        assert report != dataclasses.replace(report, relation_hits=636)
        smaller = dataclasses.replace(spec, N=10)
        assert (smaller.N, smaller.d, smaller.int_bound) == (10, 3, 3)
        with pytest.raises(UsageError):
            dataclasses.replace(spec, d=0)
        with pytest.raises(UsageError):
            dataclasses.replace(report, relation_hits=8001)


class TestPerturbedDiagonalWitness:
    def test_open_set_of_nonresonant_matrices(self):
        # diagonal matrices with distinct nonzero entries stay nonresonant
        # under perturbations smaller than a quarter of the gap
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            diag = rng.uniform(0.5, 3.0, d) * rng.choice([-1.0, 1.0], d)
            diag += np.arange(d) * 4.0  # enforce distinctness
            gaps = [abs(x - y) for i, x in enumerate(diag) for y in diag[:i]]
            min_gap = min(min(gaps), np.abs(diag).min())
            a = np.diag(diag)
            e = rng.standard_normal((d, d))
            e *= (min_gap / 4.0) / max(1.0, np.linalg.norm(e, 2))
            eigs = np.linalg.eigvals(a + e)
            assert is_exp_nonresonant_algebraic(eigs.tolist(), min_gap / 100.0)
