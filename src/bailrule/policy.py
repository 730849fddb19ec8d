"""Threshold-linear-cap (TLC) transfer schedules and their comparative statics.

A single bailout decision maximizes shock-scaled benefits net of a linear
political cost and a quadratic implementation cost, subject to an
admissibility threshold on the shock and a hard consent cap on the transfer:

    maximize   B(b, theta) - omega_T * b - (c / 2) * b**2
    over       b in [0, b_bar],    with b = 0 forced whenever theta < T.

With the linear benefit B = omega_b * theta * b the optimum is the interior
candidate (omega_b * theta - omega_T) / c projected onto [0, b_bar]: zero
below a lower activation cutoff, linear in between, flat at the cap above an
upper cutoff.  Each closed form is written once, elementwise: ``_tlc`` the
schedule, behind ``tlc_policy_linear``, and ``_cutoffs`` its two cutoffs,
behind ``cutoffs``.  ``tlc_policy_general`` solves the same box-constrained
concave program for an arbitrary declared marginal benefit via its three KKT
branches plus bisection on the stationarity condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, TYPE_CHECKING

import numpy as np

from .errors import NumericalInconsistencyError, ParameterError, PiecewiseRegimeError

if TYPE_CHECKING:  # pragma: no cover
    from .distributions import ShockDistribution

__all__ = [
    "MechanismParams",
    "Cutoffs",
    "MarginalBenefit",
    "ComparativeStatics",
    "WelfareWedge",
    "cutoffs",
    "tlc_policy_linear",
    "tlc_policy_general",
    "knife_edge",
    "comparative_statics",
    "delta_theta_hi",
    "welfare_wedge_shift",
    "activation_derivative",
    "screened_payout",
]

#: Absolute tolerance on b for the interior bisection, and its iteration cap.
BISECTION_TOL = 1e-10
BISECTION_MAX_ITER = 200


@dataclass(frozen=True)
class MechanismParams:
    """One TLC instance.

    omega_b    marginal benefit per unit transfer per unit shock (finite, > 0)
    c          quadratic implementation-cost curvature (finite, > 0)
    omega_T    political shadow cost per public dollar (finite, >= 0)
    T          admissibility threshold in shock units, within [0, theta_bar]
    b_bar      consent cap on the transfer (>= 0; ``math.inf`` = uncapped)
    theta_bar  upper support bound of the shock (> 0)
    """

    omega_b: float
    c: float
    omega_T: float
    T: float
    b_bar: float
    theta_bar: float

    def __post_init__(self) -> None:
        for name in _PARAM_NAMES:
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0 < self.omega_b < math.inf:
            raise ParameterError(f"omega_b must be finite and > 0, got {self.omega_b}")
        if not 0 < self.c < math.inf:
            raise ParameterError(f"c must be finite and > 0, got {self.c}")
        if not 0 <= self.omega_T < math.inf:
            raise ParameterError(f"omega_T must be finite and >= 0, got {self.omega_T}")
        if not self.theta_bar > 0 or math.isinf(self.theta_bar):
            raise ParameterError(f"theta_bar must be finite and > 0, got {self.theta_bar}")
        if not 0 <= self.T <= self.theta_bar:
            raise ParameterError(
                f"T must lie in [0, theta_bar]=[0, {self.theta_bar}], got {self.T}"
            )
        if not self.b_bar >= 0 or math.isnan(self.b_bar):
            raise ParameterError(f"b_bar must be >= 0, got {self.b_bar}")

    @property
    def interior_slope(self) -> float:
        """Slope of the interior segment, omega_b / c."""
        return self.omega_b / self.c


#: The six parameter names, in field (and constructor) order.
_PARAM_NAMES = tuple(f.name for f in fields(MechanismParams))


@dataclass(frozen=True)
class Cutoffs:
    """Activation and cap cutoffs of a TLC schedule (theta_lo <= theta_hi)."""

    theta_lo: float
    theta_hi: float


@dataclass(frozen=True)
class MarginalBenefit:
    """Marginal benefit G(b, theta) with declared shape properties.

    ``fn`` must be non-increasing in b (weak concavity of the underlying
    benefit), non-decreasing in theta, and finite at b = 0.  The declarations
    are trusted by the solver.
    """

    fn: Callable[[float, float], float]
    concave_in_b: bool = True
    increasing_in_theta: bool = True

    def __call__(self, b: float, theta: float) -> float:
        return float(self.fn(b, theta))


def _cutoffs(omega_b, c, omega_T, T, b_bar):
    """The one copy of the cutoffs, elementwise: theta_lo = max(T, omega_T /
    omega_b); theta_hi, where the interior candidate meets the cap, is clamped
    to theta_lo, so a cap too tight to leave an interior segment (b_bar = 0,
    say) gives theta_hi = theta_lo.  Each max is Python's, which keeps the
    first of two equal values (a signed zero), also on arrays."""
    x = omega_T / omega_b
    theta_lo = np.where(x > T, x, T)
    x = (omega_T + c * b_bar) / omega_b
    return theta_lo, np.where(x > theta_lo, x, theta_lo)


def cutoffs(params: MechanismParams) -> Cutoffs:
    """Cutoffs of the closed-form schedule (``_cutoffs`` of one rule)."""
    lo, hi = _cutoffs(params.omega_b, params.c, params.omega_T, params.T, params.b_bar)
    return Cutoffs(theta_lo=float(lo), theta_hi=float(hi))


def _tlc(theta, omega_b, c, omega_T, T=-math.inf, b_bar=math.inf, floor=0.0):
    """The one copy of the schedule: clip((omega_b * theta - omega_T) / c,
    floor, b_bar), zeroed where theta < T, elementwise over array arguments.
    A float theta takes plain float arithmetic, which gives np.clip's bits
    (both keep the first of two equal values) without building 0-d arrays.

    floor = 0 is the TLC rule, a larger floor raises the line to it before
    the cap (an equity floor), and floor = -inf with the defaults is the bare
    interior line."""
    line = (omega_b * theta - omega_T) / c
    if isinstance(theta, float):
        return 0.0 if theta < T else min(max(line, floor), b_bar)
    return np.where(theta < T, 0.0, np.clip(line, floor, b_bar))


def _check_theta_domain(theta, params: MechanismParams) -> None:
    """Raise unless theta (a float or an array) lies in [0, theta_bar]; a nan
    fails both comparisons."""
    if isinstance(theta, float):
        inside = 0.0 <= theta <= params.theta_bar
    else:
        inside = np.all((0.0 <= theta) & (theta <= params.theta_bar))
    if not inside:
        raise ParameterError(
            f"theta must lie in [0, theta_bar]=[0, {params.theta_bar}]"
        )


def _payout(theta, params: MechanismParams, lower=None):
    """``_tlc`` at ``theta`` in the support, floored at ``lower(theta)`` or 0.
    A scalar theta (Python or numpy float or int) stays a float throughout."""
    scalar = isinstance(theta, (float, int, np.floating, np.integer))
    x = float(theta) if scalar else np.asarray(theta, dtype=float)
    _check_theta_domain(x, params)
    floor = 0.0 if lower is None else lower(x)
    out = _tlc(x, params.omega_b, params.c, params.omega_T, params.T, params.b_bar, floor)
    return float(out) if scalar or x.ndim == 0 else out


def tlc_policy_linear(theta, params: MechanismParams):
    """Optimal transfer under the linear benefit, elementwise in theta.

    Returns clip((omega_b * theta - omega_T) / c, 0, b_bar) for theta >= T
    and 0 below the admissibility threshold.  Scalar in, scalar out.
    """
    return _payout(theta, params)


def _bisect_stationarity(
    g: MarginalBenefit, theta: float, params: MechanismParams, upper: float
) -> float:
    """Root of G(b, theta) - omega_T - c*b on [0, upper] by bisection."""

    def resid(b: float) -> float:
        return g(b, theta) - params.omega_T - params.c * b

    lo, hi = 0.0, upper
    r_lo, r_hi = resid(lo), resid(hi)
    if r_lo < 0 or r_hi > 0:
        raise NumericalInconsistencyError(
            "stationarity residual does not bracket a root on "
            f"[0, {upper}] (resid(0)={r_lo}, resid(upper)={r_hi}); "
            "the marginal benefit likely violates its declared monotonicity"
        )
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tlc_policy_general(theta: float, g: MarginalBenefit, params: MechanismParams) -> float:
    """Optimal transfer for a general concave benefit with marginal G.

    Resolves the three KKT branches of the box-constrained program:
    return 0 when G(0, theta) < omega_T (or theta < T), return b_bar when
    G(b_bar, theta) > omega_T + c * b_bar, and otherwise bisect the
    stationarity condition G(b, theta) = omega_T + c * b on (0, b_bar).
    """
    theta = float(theta)
    _check_theta_domain(theta, params)
    if theta < params.T or params.b_bar == 0.0:
        return 0.0
    g0 = g(0.0, theta)
    if not math.isfinite(g0):
        raise ParameterError("marginal benefit must be finite at b = 0")
    if g0 < params.omega_T:
        return 0.0
    if math.isfinite(params.b_bar):
        if g(params.b_bar, theta) > params.omega_T + params.c * params.b_bar:
            return params.b_bar
        upper = params.b_bar
    else:
        # G non-increasing in b puts the root at or below (G(0) - omega_T) / c.
        upper = (g0 - params.omega_T) / params.c
        if upper == 0.0:
            return 0.0
    return _bisect_stationarity(g, theta, params, upper)


def knife_edge(params: MechanismParams) -> bool:
    """True iff the schedule is identically zero on [0, theta_bar].

    Happens exactly when the cap blocks everything (b_bar = 0) or the
    political cost exceeds the maximal marginal benefit
    (omega_T >= omega_b * theta_bar).
    """
    return params.b_bar == 0.0 or params.omega_T >= params.omega_b * params.theta_bar


@dataclass(frozen=True)
class ComparativeStatics:
    """Closed-form partial derivatives of the schedule and its cutoffs."""

    db_dtheta: float
    db_domega_T: float
    dtheta_hi_domega_T: float
    dtheta_hi_db_bar: float
    dtheta_lo_domega_T: float


def comparative_statics(params: MechanismParams) -> ComparativeStatics:
    """Interior-segment and cutoff derivatives.

    The lower cutoff responds to omega_T only when the cost branch binds
    (omega_T / omega_b > T); otherwise T pins it and the derivative is 0.
    """
    return ComparativeStatics(
        db_dtheta=params.omega_b / params.c,
        db_domega_T=-1.0 / params.c,
        dtheta_hi_domega_T=1.0 / params.omega_b,
        dtheta_hi_db_bar=params.c / params.omega_b,
        dtheta_lo_domega_T=(
            1.0 / params.omega_b if params.omega_T / params.omega_b > params.T else 0.0
        ),
    )


def delta_theta_hi(params: MechanismParams, d_omega_T: float, d_b_bar: float) -> float:
    """Upper-cutoff change under a joint shift (d_omega_T, d_b_bar)."""
    return (d_omega_T + params.c * d_b_bar) / params.omega_b


@dataclass(frozen=True)
class WelfareWedge:
    """Gap between the political and social shadow cost of funds.

    ``cutoff_shift`` is how far both cutoffs sit to the right of where a
    social planner (shadow cost ``lambda_soc``) would put them, holding the
    cap fixed.  The interior slope is unaffected.
    """

    wedge: float
    cutoff_shift: float
    social_cutoffs: Cutoffs


def welfare_wedge_shift(params: MechanismParams, lambda_soc: float) -> WelfareWedge:
    """Cutoff displacement induced by omega_T - lambda_soc, cap held fixed."""
    lambda_soc = float(lambda_soc)
    if lambda_soc < 0:
        raise ParameterError(f"lambda_soc must be >= 0, got {lambda_soc}")
    wedge = params.omega_T - lambda_soc
    return WelfareWedge(
        wedge=wedge,
        cutoff_shift=wedge / params.omega_b,
        social_cutoffs=cutoffs(replace(params, omega_T=lambda_soc)),
    )


def activation_derivative(params: MechanismParams, dist: "ShockDistribution") -> float:
    """d E[b*] / dT when T pins the lower cutoff and the cap is slack there.

    Valid only when T >= omega_T / omega_b and theta_hi > T; outside that
    regime the expectation has a different piecewise form and callers should
    differentiate numerically instead.
    """
    cut = cutoffs(params)
    if params.T < params.omega_T / params.omega_b:
        raise PiecewiseRegimeError(
            "T does not pin the lower cutoff (T < omega_T / omega_b); "
            "use numeric differentiation of the expected transfer"
        )
    if not cut.theta_hi > params.T:
        raise PiecewiseRegimeError(
            "cap segment binds at the threshold (theta_hi <= T); "
            "use numeric differentiation of the expected transfer"
        )
    jump = float(_tlc(params.T, params.omega_b, params.c, params.omega_T, floor=-math.inf))
    return -jump * float(dist.pdf(params.T))


def screened_payout(beta: float, theta_hat, params: MechanismParams):
    """Payout under an exogenous screening cap: min(beta, schedule(theta_hat))."""
    beta = float(beta)
    if not beta >= 0:
        raise ParameterError(f"beta must be >= 0, got {beta}")
    rule = tlc_policy_linear(theta_hat, params)
    return np.minimum(beta, rule) if isinstance(rule, np.ndarray) else min(beta, rule)
