"""Equity floors layered on top of a transfer schedule.

A floor b_min(theta) forces payouts up to at least the floor wherever the
floor exceeds the unconstrained interior candidate; the result is still
clipped into [0, b_bar].  Two shapes are supported:

* ``ParallelFloor(a)`` — the interior line displaced upward by ``a``.  The
  floored schedule is again threshold-linear-cap with the political cost
  effectively reduced to omega_T - c * a, so both cutoffs slide left and the
  interior slope is preserved.
* ``CustomFloor`` — any piecewise-linear weakly increasing function, given by
  knots; values extend constant beyond the outermost knots.

``classify_floor`` reports which of those structural cases holds:
``SC-Parallel`` (schedule remains two-cutoff with an effective political
cost), ``SC-Dominated`` (floor never binds; schedule unchanged), or
``ExtraKink`` (the floor crosses the interior line and adds a kink, which
will defeat a two-cutoff audit signature).  It is exact: both floor shapes
are piecewise linear, so it compares floor and line only at the interior
region's ends and a custom floor's knots inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .policy import MechanismParams, _check_theta_domain, _tlc, cutoffs

__all__ = [
    "ParallelFloor",
    "CustomFloor",
    "EquityFloor",
    "apply_equity_floor",
    "classify_floor",
    "SC_PARALLEL",
    "SC_DOMINATED",
    "EXTRA_KINK",
]

SC_PARALLEL = "SC-Parallel"
SC_DOMINATED = "SC-Dominated"
EXTRA_KINK = "ExtraKink"


@dataclass(frozen=True)
class ParallelFloor:
    """Floor running parallel to the interior line, ``a`` above it.

    Equivalent to cutting the political shadow cost by c * a; ``a`` may be
    negative, in which case the floor sits below the line and never binds.
    """

    a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        if math.isnan(self.a) or math.isinf(self.a):
            raise ParameterError(f"floor intercept must be finite, got {self.a}")

    def values(self, theta: np.ndarray, params: MechanismParams) -> np.ndarray:
        return _tlc(theta, params.omega_b, params.c, params.omega_T, floor=-np.inf) + self.a


@dataclass(frozen=True)
class CustomFloor:
    """Piecewise-linear weakly increasing floor given by knots.

    ``theta_knots`` strictly increasing, ``b_values`` weakly increasing and
    non-negative.  Outside the knot span the floor extends at its edge value.
    """

    theta_knots: tuple
    b_values: tuple

    def __post_init__(self) -> None:
        tk = tuple(float(t) for t in self.theta_knots)
        bv = tuple(float(b) for b in self.b_values)
        object.__setattr__(self, "theta_knots", tk)
        object.__setattr__(self, "b_values", bv)
        if len(tk) != len(bv) or len(tk) < 1:
            raise ParameterError("floor needs matching, non-empty knot and value lists")
        if any(t2 <= t1 for t1, t2 in zip(tk, tk[1:])):
            raise ParameterError("floor knots must be strictly increasing")
        if any(b2 < b1 for b1, b2 in zip(bv, bv[1:])):
            raise ParameterError("floor values must be weakly increasing")
        if bv[0] < 0:
            raise ParameterError("floor values must be non-negative")

    def values(self, theta: np.ndarray, params: MechanismParams) -> np.ndarray:
        return np.interp(theta, self.theta_knots, self.b_values)


EquityFloor = ParallelFloor | CustomFloor


def classify_floor(floor: EquityFloor, params: MechanismParams) -> str:
    """Structural classification of a floored schedule.

    SC-Parallel: parallel floor whose line stays within [0, b_bar] across the
    interior region [theta_lo, theta_hi] (cut at theta_bar), so the schedule
    is a clean two-cutoff rule with effective political cost omega_T - c * a.
    SC-Dominated: floor is at or below the interior candidate across the
    region, so the schedule is bitwise unchanged.  ExtraKink: anything else
    (floor crosses the line).  A custom floor above the cap raises.
    """
    if isinstance(floor, CustomFloor) and max(floor.b_values) > params.b_bar:
        raise ParameterError(
            f"floor demands {max(floor.b_values)} above the consent cap {params.b_bar}"
        )
    cut = cutoffs(params)
    lo, hi = min(cut.theta_lo, params.theta_bar), min(cut.theta_hi, params.theta_bar)
    if isinstance(floor, ParallelFloor):
        points = np.array([lo, hi])
        fvals = floor.values(points, params)
        # tolerate rounding at theta_lo, where the line passes exactly 0
        if fvals.min() >= -1e-12 and fvals.max() <= params.b_bar + 1e-12:
            return SC_PARALLEL
    else:
        points = np.array([lo, hi, *(t for t in floor.theta_knots if lo < t < hi)])

    b_int = _tlc(points, params.omega_b, params.c, params.omega_T, floor=-np.inf)
    if np.all(floor.values(points, params) <= b_int + 1e-12):
        return SC_DOMINATED
    return EXTRA_KINK


def apply_equity_floor(theta, floor: EquityFloor, params: MechanismParams):
    """Floored transfer at ``theta`` plus the structural classification.

    Pointwise: clip(max(b_min(theta), interior candidate), 0, b_bar) for
    admissible shocks, zero below the threshold T.  Elementwise over arrays;
    scalar in, scalar out.  Returns ``(value, classification)``.
    """
    label = classify_floor(floor, params)  # first: it refuses a floor above the cap
    arr = np.asarray(theta, dtype=float)
    _check_theta_domain(arr, params)
    lower = np.maximum(floor.values(arr, params), 0.0)
    out = _tlc(arr, params.omega_b, params.c, params.omega_T, params.T, params.b_bar, lower)
    if np.isscalar(theta) or arr.ndim == 0:
        return float(out), label
    return out, label
