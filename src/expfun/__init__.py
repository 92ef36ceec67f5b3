"""Densities of exponential functionals of killed subordinators.

The model is a subordinator with drift ``c``, kill rate ``q`` and jump
tail; the driving process of the functional is its negative.  The
library solves the integral equation satisfied by the density on a
geometric grid, evaluates moment recursions and transforms (power tilt,
spectrally negative dual), and validates everything against closed-form
laws, asymptotic limits and Monte-Carlo simulation.
"""

from .backend import BACKEND
from .errors import (
    CutoffError,
    DenominatorError,
    DomainError,
    ExpfunError,
    IllConditioned,
    InfiniteFunctional,
    InsufficientGrid,
    MissingDensity,
    NoConvergence,
    NonPositive,
    NotConvergent,
    QuadratureError,
    SpecFileError,
    TruncationError,
)
from .mc import (
    SampleSet,
    default_cutoff,
    ks_distance,
    lamperti_density_estimate,
    monotone_histogram_check,
    sample_moment,
    simulate,
)
from .model import (
    MomentSequence,
    SubordinatorSpec,
    class_index,
    dual_sn,
    laplace_exponent,
    load_spec,
    negative_moment,
    phi_prime_at_zero,
    positive_moments,
    rho_tilt,
    save_spec,
    spec_from_dict,
)
from .numerics import QuadratureRequest, extrapolate_limit, integrate, quad
from .reference import (
    ReferenceLaw,
    dual_transform,
    killed_drift_density,
    killed_drift_dual_density,
    killed_drift_law,
    killed_drift_tilted_density,
    killed_drift_tilted_law,
    lamperti_killed_law,
    lamperti_killed_moment,
    powered_gamma_density,
    powered_gamma_dual_density,
    powered_gamma_dual_law,
    powered_gamma_law,
    stable_half_reciprocal_law,
    stable_reciprocal_moment,
)
from .solver import (
    GeometricGrid,
    KernelWeights,
    StepDensity,
    build_grid,
    kernel_weights,
    residual,
    solve,
)
from .tails import (
    CompoundPoissonExpTail,
    GammaExpTail,
    LampertiKilledTail,
    LevyTail,
    StableTail,
    StretchedExpTail,
    TabulatedTail,
    TiltedTail,
    ZeroTail,
    tail_from_dict,
)
from .validation import (
    ValidationReport,
    compare_to_reference,
    dual_large_x_check,
    moment_agreement_check,
    q_positive_limit_check,
    renewal_check,
    small_x_ratio_check,
    tilt_consistency,
    validate_checks,
)

__version__ = "0.1.0"
