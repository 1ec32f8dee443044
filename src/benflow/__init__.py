"""benflow: Benford conformance analysis for linear flows.

Decides, in exact rational arithmetic, whether the spectrum of a
linear flow on R^d is exponentially nonresonant with respect to a base
b, and empirically verifies or refutes conformance of flow signals to
the logarithmic significand law.

The public names below are imported on first use (PEP 562), so a
process loads only the submodules it runs: a verdict never loads the
exact engine, and `analyze-matrix` never loads the sampler.  A new
public name goes into `_EXPORTS`.
"""

import importlib

# `significand` is both a submodule and one of its functions: bound here
# once, so that importing the submodule later cannot rebind the name
from .significand import significand

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("RunConfig", "Tolerances", "VerdictThresholds"),
    "exactreal": ("ExactComplex", "ExactReal", "Monomial", "SymbolBasis", "exact_log_base", "span_membership"),
    "flowsignal": (
        "BenfordReport",
        "NormOnFlow",
        "Observable",
        "ObservableOnFlow",
        "Synthetic",
        "benford_report_from_log_samples",
        "benford_report_from_samples",
        "benford_verdict",
        "build_observable_for_modes",
        "eval_signal",
        "triviality_check",
    ),
    "genericity": ("CensusReport", "EnsembleSpec", "resonance_census", "sample_generator"),
    "matrixcore": (
        "SpectrumInfo",
        "SpectrumPoint",
        "companion_from_second_order",
        "expm",
        "is_hyperbolic",
        "jordan_index",
        "planar_criterion",
        "spectrum",
    ),
    "resonance": (
        "IntegerRelation",
        "ResonanceVerdict",
        "ShellPoint",
        "is_b_nonresonant",
        "is_exp_b_nonresonant",
        "is_exp_nonresonant_algebraic",
        "numeric_relation_scan",
    ),
    "significand": (
        "DigitHistogram",
        "digit_frequencies",
        "digit_law_pmf",
        "significand",
    ),
    "udmod1": (
        "SamplingGrid",
        "TorusMapSpec",
        "WeylReport",
        "pushforward_fourier",
        "torus_map_apply",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "dataio", "demos", "errors"}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
