"""Run configuration: verdict thresholds, numerical tolerances, defaults.

Thresholds are data, not code: every statistic compared against a cutoff
reads the cutoff from these records so that callers (and the CLI config
file) can tighten or relax them without touching the analysis modules.
This module only defines the records; `dataio.load_config` reads a
config file into them.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from .errors import UsageError
from .significand import validate_base

if TYPE_CHECKING:
    from .udmod1 import SamplingGrid


@dataclass(frozen=True)
class VerdictThresholds:
    """Cutoffs applied when turning statistics into a pass/fail verdict.

    distance: max sup-distance of the significand ECDF for a PASS.
    weyl_multiplier: PASS requires every Weyl magnitude < multiplier/sqrt(N).
    fail_factor: a statistic above factor*threshold forces a clean FAIL;
        the band in between is inconclusive (reported as FAIL with a flag).
    zero_rel: samples with |f| below zero_rel times the running max of |f|
        are excluded from the statistics and counted separately.
    """

    distance: float = 0.02
    weyl_multiplier: float = 3.0
    fail_factor: float = 2.0
    zero_rel: float = 1e-13


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances for the linear-algebra kernels."""

    eigen_cluster: float = 1e-8
    hyperbolicity: float = 1e-9


def _require_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise UsageError(f"{name} must be a finite number, got {value!r}")


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run: the one place verdict defaults live.

    The verdict entry points read the base, the sampling grid, the
    thresholds and the number of Weyl frequencies from here.  Each field
    is checked once, on construction: base is an integer >= 2; horizon
    and step are finite with 0 < step < horizon; weyl_k >= 1 and seed in
    [0, 2^128), the Philox key range, are integers; every threshold and
    tolerance is finite and > 0, and zero_rel < 1.  Bools are refused
    wherever a number is asked for.
    """

    base: int = 10
    horizon: float = 1e4
    step: float = 1e-2
    weyl_k: int = 5
    thresholds: VerdictThresholds = field(default_factory=VerdictThresholds)
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 0
    output_format: str = "json"

    def __post_init__(self):
        validate_base(self.base)
        for name in ("horizon", "step"):
            _require_finite(name, getattr(self, name))
        if self.horizon <= 0 or self.step <= 0 or self.step >= self.horizon:
            raise UsageError("need 0 < step < horizon")
        for name in ("weyl_k", "seed"):
            _require_int(name, getattr(self, name))
        if self.weyl_k < 1:
            raise UsageError("weyl_k must be >= 1")
        if not 0 <= self.seed < 2**128:
            raise UsageError(f"seed must lie in [0, 2^128), the Philox key range, got {self.seed}")
        for group in ("thresholds", "tolerances"):
            for name, value in asdict(getattr(self, group)).items():
                _require_finite(f"{group}.{name}", value)
                if value <= 0:
                    raise UsageError(f"{group}.{name} must be > 0, got {value!r}")
        if self.thresholds.zero_rel >= 1:
            raise UsageError(f"thresholds.zero_rel must be < 1, got {self.thresholds.zero_rel!r}")
        if self.output_format not in ("json", "csv"):
            raise UsageError(f"unknown output format {self.output_format!r}")

    @property
    def grid(self) -> SamplingGrid:
        """The uniform grid (0, horizon] at the configured step."""
        from .udmod1 import SamplingGrid  # only a sampling run loads udmod1

        return SamplingGrid(T=self.horizon, step=self.step)

