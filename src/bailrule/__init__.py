"""Threshold-linear-cap bailout rules.

Consent caps from weighted voting, closed-form and general concave optimal
transfer schedules, treasury-constrained allocation, and an estimation /
audit pipeline for observed payout histories.
"""

from .errors import (
    BailruleError,
    ConfigError,
    DataError,
    EstimationError,
    NumericalInconsistencyError,
    ParameterError,
    PiecewiseRegimeError,
)
from .policy import (
    ComparativeStatics,
    Cutoffs,
    MarginalBenefit,
    MechanismParams,
    WelfareWedge,
    activation_derivative,
    comparative_statics,
    cutoffs,
    delta_theta_hi,
    knife_edge,
    screened_payout,
    tlc_policy_general,
    tlc_policy_linear,
    welfare_wedge_shift,
)
from .distributions import (
    BetaShock,
    ShockDistribution,
    TruncatedExponentialShock,
    UniformShock,
    hazard,
)
from .floors import (
    EXTRA_KINK,
    SC_DOMINATED,
    SC_PARALLEL,
    CustomFloor,
    ParallelFloor,
    Schedule,
    apply_equity_floor,
    classify_floor,
)
from .voting import (
    DiscreteThreshold,
    FiniteLegislature,
    PoliticalCostSpec,
    UniformThreshold,
    WeightProfile,
    aggregate_support,
    bundle_check,
    consent_cap_analytic,
    empirical_cap,
    political_cost,
)
from .allocation import (
    AllocationProblem,
    AllocationResult,
    KktResiduals,
    allocate,
    allocation_objective,
    cap_ordering_report,
    kkt_residuals,
)
from .dataio import Episode, EpisodeTable
from .estimation import (
    OverrideReport,
    ShiftAttribution,
    TlcFit,
    attribute_shift,
    classify_against_schedule,
    detect_override_shift,
    fit_tlc,
    predict,
)

__version__ = "0.1.0"
