"""Monte Carlo census of resonance-like events over random matrices.

Exponential resonance of a spectrum requires either an eigenvalue on
the imaginary axis, or a rational relation tying real parts to scaled
imaginary parts.  Both events confine the matrix to a measure-zero
set, so a continuous ensemble should essentially never hit them at
tight tolerances, while small discrete ensembles (integer entries) hit
them easily.  The census counts three proxies per sampled matrix:
imaginary-axis proximity, eigenvalue-collision proximity (the
multiple-eigenvalue nullset), and advisory integer relations found by
the numeric scan.

Sampling is counter-based (Philox4x64 keyed by the seed, one counter
block per index), so any entry can be regenerated in isolation.  The
census draws batches of SLICE // d^2 matrices from one bit generator
whose counter is reset per index, solves each batch in one stacked
eigensolve, and sends to the numeric scan only the rows a vectorised
prefilter (`resonance._relation_candidates`) cannot prove free of
relations; with continuous ensembles at small heights that is none.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .resonance import _check_height, _relation_candidates, numeric_relation_scan
from .significand import SLICE, validate_base

_RNG_ALGORITHM = "philox4x64"
_DISTRIBUTIONS = ("gaussian", "uniform")
_INT_PATTERN = re.compile(r"^int(\d+)$")
_INT_BOUND_MAX = 2**63 - 1  # the largest m whose -m..m numpy draws as int64


@dataclass(frozen=True, slots=True)
class EnsembleSpec:
    """A reproducible random-matrix ensemble.

    distribution is 'gaussian' (standard normal entries), 'uniform'
    (entries uniform on (-1, 1)), or 'int<m>' (integer entries uniform
    on -m..m, m <= 2^63 - 1).
    """

    d: int
    distribution: str
    N: int
    seed: int

    def __post_init__(self):
        if self.d < 1:
            raise UsageError("dimension must be >= 1")
        if self.N < 1:
            raise UsageError("sample count must be >= 1")
        if self.distribution not in _DISTRIBUTIONS and not _INT_PATTERN.match(self.distribution):
            raise UsageError(
                f"unknown distribution {self.distribution!r}; "
                "use 'gaussian', 'uniform', or 'int<m>'"
            )
        if (self.int_bound or 0) > _INT_BOUND_MAX:
            raise UsageError(f"integer bound m of 'int<m>' must be <= 2^63 - 1, got {self.int_bound}")

    @property
    def int_bound(self) -> int | None:
        m = _INT_PATTERN.match(self.distribution)
        return int(m.group(1)) if m else None


def sample_generator(spec: EnsembleSpec, index: int) -> np.ndarray:
    """The index-th matrix of the ensemble; deterministic in (seed, index)."""
    if not 0 <= index < spec.N:
        raise UsageError(f"index {index} outside 0..{spec.N - 1}")
    return _draw_batch(spec, index, index + 1)[0]


def _draw_batch(spec: EnsembleSpec, lo: int, hi: int) -> np.ndarray:
    """Matrices lo..hi-1 as an (hi - lo, d, d) stack.  Matrix i is drawn
    from Philox(key=seed, counter=[0, i, 0, 0]): one bit generator is
    built, and the state dict captured at construction is written back
    per index with only its counter changed, so the buffer and the
    cached uint32 are reset exactly as a fresh generator's would be."""
    bitgen = np.random.Philox(key=spec.seed, counter=[0, lo, 0, 0])
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    shape = (spec.d, spec.d)
    if spec.distribution == "gaussian":
        draw = lambda: rng.standard_normal(shape)
    elif spec.distribution == "uniform":
        draw = lambda: rng.uniform(-1.0, 1.0, shape)
    else:
        m = spec.int_bound
        draw = lambda: rng.integers(-m, m + 1, size=shape)  # stored as float, like astype(float)
    out = np.empty((hi - lo, *shape))
    for row, index in enumerate(range(lo, hi)):
        counter[1] = index
        bitgen.state = state
        out[row] = draw()
    return out


def _has_close_pair(eigs: np.ndarray, tol: float) -> np.ndarray:
    """True per spectrum (along the last axis) when two eigenvalues lie within tol."""
    gaps = np.abs(eigs[..., :, None] - eigs[..., None, :])
    gaps[..., np.eye(eigs.shape[-1], dtype=bool)] = np.inf
    return gaps.min(axis=(-2, -1)) <= tol


@dataclass(frozen=True, slots=True)
class CensusReport:
    """Aggregated counts over one ensemble."""

    ensemble: EnsembleSpec
    base: int
    tol: float
    height: int
    imaginary_axis_hits: int
    multiple_eigenvalue_hits: int
    relation_hits: int
    rng_algorithm: str = _RNG_ALGORITHM

    def __post_init__(self):
        for name in ("imaginary_axis_hits", "multiple_eigenvalue_hits", "relation_hits"):
            if not 0 <= getattr(self, name) <= self.ensemble.N:
                raise UsageError(f"{name} outside 0..N")

    def to_dict(self) -> dict:
        return {
            "n": self.ensemble.N,
            "imaginary_axis_hits": self.imaginary_axis_hits,
            "multiple_eigenvalue_hits": self.multiple_eigenvalue_hits,
            "relation_hits": self.relation_hits,
            "tol": self.tol,
            "height": self.height,
            "seed": self.ensemble.seed,
            "ensemble": self.ensemble.distribution,
            "dim": self.ensemble.d,
            "base": self.base,
            "rng_algorithm": self.rng_algorithm,
        }


def resonance_census(
    spec: EnsembleSpec, b: int = 10, tol: float = 1e-8, height: int = 8
) -> CensusReport:
    """Count resonance proxies over the ensemble.

    Per matrix: an imaginary-axis hit when min |Re z| <= tol, a
    multiple-eigenvalue hit when some eigenvalue gap is <= tol, and a
    relation hit when the advisory numeric scan finds an integer
    relation at the given height (1..10^6, checked up front).  Each
    batch of SLICE // d^2 matrices, drawn in index order, takes one
    stacked eigensolve (so memory stays bounded per batch, whatever the
    height); the scan then runs in index order on the rows the prefilter
    keeps, which include every row it could find a relation in, so the
    counts are those of scanning every row.
    """
    b = validate_base(b)
    if not 0 < tol < math.inf:
        raise UsageError(f"tolerance must be finite and positive, got {tol}")
    _check_height(height)
    axis_hits = 0
    multiple_hits = 0
    relation_hits = 0
    batch = max(1, SLICE // spec.d**2)
    for lo in range(0, spec.N, batch):
        eigs = np.linalg.eigvals(_draw_batch(spec, lo, min(lo + batch, spec.N)))
        axis_hits += int(np.count_nonzero(np.abs(eigs.real).min(axis=1) <= tol))
        multiple_hits += int(np.count_nonzero(_has_close_pair(eigs, tol)))
        rows = eigs[_relation_candidates(eigs, b, height)].tolist()
        relation_hits += sum(numeric_relation_scan(row, b, height) is not None for row in rows)
    return CensusReport(
        ensemble=spec,
        base=b,
        tol=tol,
        height=height,
        imaginary_axis_hits=axis_hits,
        multiple_eigenvalue_hits=multiple_hits,
        relation_hits=relation_hits,
    )
