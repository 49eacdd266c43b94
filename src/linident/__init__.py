"""Identification of linear prediction models from scalar time series.

Subpackages:
    numkit       dense linear-algebra and polynomial kernel
    dynsys       hidden-system simulation and observability machinery
    ident        Hankel-window identification, prediction, spectrum recovery
    experiments  seeded Monte Carlo estimators for the almost-sure claims
    cli / io     command-line front end and stable file formats
"""

from .errors import (
    DimensionMismatch,
    EmptySeries,
    InsufficientData,
    LinIdentError,
    MissingStep,
    NoOrderFound,
    NonFinite,
    NotObservable,
    ParseError,
    SingularHankel,
    ZeroRoot,
)
from .numkit import (
    DEFAULT_RANK_TOL,
    MonicPolynomial,
    char_poly,
    condition_estimate,
    discriminant,
    mat_exp,
    numerical_rank,
    poly_roots,
)
from .dynsys import (
    SystemSpec,
    TimeSeries,
    affine_offset,
    is_observable,
    krylov_matrix,
    observability_matrix,
    output_row_G,
    sample_continuous,
    simulate_discrete,
)
from .ident import (
    ConjugacyReport,
    ContinuousSpectrum,
    IdentReport,
    PredictionModel,
    assess_stability,
    estimate_order,
    hankel,
    identify,
    identify_affine,
    predict,
    recover_continuous_spectrum,
    verify_conjugacy,
)
from .experiments import (
    ExperimentReport,
    SamplingBox,
    TrialConfig,
    draw_sample,
    evaluate_property,
    mc_estimate,
)

__version__ = "0.1.0"
