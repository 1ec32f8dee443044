"""benflow: Benford conformance analysis for linear flows.

Decides, in exact rational arithmetic, whether the spectrum of a
linear flow on R^d is exponentially nonresonant with respect to a base
b, and empirically verifies or refutes conformance of flow signals to
the logarithmic significand law.
"""

__version__ = "0.1.0"

from .config import RunConfig, Tolerances, VerdictThresholds
from .exactreal import ExactComplex, ExactReal, Monomial, SymbolBasis, exact_log_base, span_membership
from .flowsignal import (
    BenfordReport,
    NormOnFlow,
    Observable,
    ObservableOnFlow,
    Synthetic,
    benford_report_from_log_samples,
    benford_report_from_samples,
    benford_verdict,
    build_observable_for_modes,
    eval_signal,
    triviality_check,
)
from .genericity import CensusReport, EnsembleSpec, resonance_census, sample_generator
from .matrixcore import (
    SpectrumInfo,
    SpectrumPoint,
    companion_from_second_order,
    expm,
    is_hyperbolic,
    jordan_index,
    planar_criterion,
    spectrum,
)
from .resonance import (
    IntegerRelation,
    ResonanceVerdict,
    ShellPoint,
    is_b_nonresonant,
    is_exp_b_nonresonant,
    is_exp_nonresonant_algebraic,
    numeric_relation_scan,
)
from .significand import (
    DigitHistogram,
    benford_cdf,
    digit_frequencies,
    digit_law_pmf,
    empirical_distance,
    first_digit,
    significand,
)
from .udmod1 import (
    SamplingGrid,
    TorusMapSpec,
    WeylReport,
    cud_report,
    delta_sampling_check,
    pushforward_fourier,
    torus_map_apply,
    weyl_sum_sequence,
)
