"""Threshold-linear-cap bailout rules.

Consent caps from weighted voting, closed-form and general concave optimal
transfer schedules, treasury-constrained allocation, and an estimation /
audit pipeline for observed payout histories.

Importing the package loads no submodule (and so not numpy). The first use
of a public name or of a submodule imports every submodule in ``_EXPORTS``
(PEP 562), after which each name is a plain attribute of the package.
"""

import importlib

#: Each submodule and the names the package exports from it.
_EXPORTS = {
    "errors": (
        "BailruleError", "ConfigError", "DataError", "EstimationError",
        "NumericalInconsistencyError", "ParameterError", "PiecewiseRegimeError",
    ),
    "policy": (
        "ComparativeStatics", "Cutoffs", "MarginalBenefit", "MechanismParams",
        "WelfareWedge", "activation_derivative", "comparative_statics", "cutoffs",
        "delta_theta_hi", "knife_edge", "tlc_policy_general",
        "tlc_policy_linear", "welfare_wedge_shift",
    ),
    "distributions": (
        "BetaShock", "ShockDistribution", "TruncatedExponentialShock",
        "UniformShock", "hazard",
    ),
    "floors": (
        "EXTRA_KINK", "SC_DOMINATED", "SC_PARALLEL", "CustomFloor", "ParallelFloor",
        "Schedule", "apply_equity_floor", "classify_floor", "screened_payout",
    ),
    "voting": (
        "DiscreteThreshold", "FiniteLegislature", "PoliticalCostSpec",
        "UniformThreshold", "WeightProfile", "aggregate_support", "bundle_check",
        "consent_cap_analytic", "empirical_cap", "political_cost",
    ),
    "allocation": (
        "AllocationProblem", "AllocationResult", "KktResiduals", "allocate",
        "allocation_objective", "cap_ordering_report", "kkt_residuals",
    ),
    "dataio": ("Episode", "EpisodeTable"),
    "estimation": (
        "OverrideReport", "ShiftAttribution", "TlcFit", "attribute_shift",
        "classify_against_schedule", "detect_override_shift", "fit_tlc", "predict",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        mod = importlib.import_module(f"{__name__}.{module}")
        globals().update({n: getattr(mod, n) for n in names})
    # CPython specializes no attribute load on a module that defines
    # __getattr__, so with every name in place it goes
    globals().pop("__getattr__", None)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
