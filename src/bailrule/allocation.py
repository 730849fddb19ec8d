"""Splitting one treasury across several municipalities' bailout rules.

The planner maximizes the sum of the per-municipality objectives subject to
every local schedule's own threshold and cap plus a joint budget
sum(b_i) <= B.  The KKT system says: charge every municipality a common
shadow price lambda_B on top of its political cost, then let each run its own
threshold-linear-cap rule.  Aggregate demand is piecewise linear in lambda_B
with at most 2N kinks, so the price is solved exactly in O(N log N)
(Helgason, Kennington & Lall 1980; Brucker 1984).  The program is strictly
concave, so its KKT conditions certify a result: ``kkt_residuals`` checks
them in O(N).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .policy import MechanismParams, _check_theta_domain, _cutoffs, _tlc, tlc_policy_linear

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "KktResiduals",
    "allocate",
    "allocation_objective",
    "cap_ordering_report",
    "kkt_residuals",
]

@dataclass(frozen=True)
class AllocationProblem:
    """Municipalities as (params, realized shock) pairs plus the budget."""

    municipalities: tuple
    treasury_limit: float

    def __post_init__(self) -> None:
        munis = tuple((p, float(t)) for p, t in self.municipalities)
        object.__setattr__(self, "municipalities", munis)
        object.__setattr__(self, "treasury_limit", float(self.treasury_limit))
        if not munis:
            raise ParameterError("need at least one municipality")
        if not self.treasury_limit >= 0:
            raise ParameterError(
                f"treasury_limit must be >= 0, got {self.treasury_limit}"
            )
        for p, t in munis:
            if not isinstance(p, MechanismParams):
                raise ParameterError("each municipality needs MechanismParams")
            _check_theta_domain(t, p)


@dataclass(frozen=True)
class AllocationResult:
    """Per-municipality transfers, the clearing shadow price, and regime flags.

    Flags: 'zero' (no transfer), 'cap' (local consent cap binds), 'budget'
    (interior but rationed by a positive shadow price), 'interior' (local
    first-order condition binds, budget slack).
    """

    allocations: tuple
    lambda_B: float
    flags: tuple

    @property
    def total(self) -> float:
        return sum(self.allocations)


def _shifted(params: MechanismParams, lam: float) -> MechanismParams:
    return replace(params, omega_T=params.omega_T + lam) if lam else params


def _columns(problem: AllocationProblem) -> np.ndarray:
    """Rows omega_b, c, omega_T, T, b_bar, theta, one column per municipality."""
    return np.array(
        [(p.omega_b, p.c, p.omega_T, p.T, p.b_bar, t) for p, t in problem.municipalities]
    ).T


def allocate(problem: AllocationProblem) -> AllocationResult:
    """Budget-feasible optimum at the exact clearing shadow price.

    lambda_B is the smallest lambda >= 0 at which aggregate demand is at most
    B.  Demand is linear between the kinks lambda = m_i (transfer reaches 0)
    and m_i - c_i * b_bar_i (transfer leaves the cap), m_i = omega_b * theta
    - omega_T: a binary search over the sorted kinks finds the last one where
    demand exceeds B, and the linear equation of the segment after it gives
    lambda_B, in O(log N) vectorized demand evaluations.
    """
    B = problem.treasury_limit
    omega_b, c, omega_T, T, b_bar, theta = _columns(problem)

    def demand(lam: float) -> float:
        return float(_tlc(theta, omega_b, c, omega_T + lam, T, b_bar).sum())

    if demand(0.0) <= B:
        lam = 0.0
    else:
        m = omega_b * theta - omega_T
        m_cap = m - c * b_bar
        # inf closes the search with demand exactly 0, which rounding in the
        # kernel may deny the last finite kink.
        kinks = np.unique(np.concatenate([[0.0], m, m_cap, [np.inf]]))
        kinks = kinks[kinks >= 0.0]
        hi = bisect_left(kinks, True, key=lambda k: demand(k) <= B)
        k_lo, k_hi = kinks[hi - 1], kinks[hi]
        # Demand falls at rate sum(1 / c_i) over the municipalities interior
        # on (k_lo, k_hi).  A flat segment means demand exceeds B at k_lo by
        # rounding only, so k_lo itself is the smallest clearing price.
        mid = 0.5 * (k_lo + k_hi)
        slope = float(np.sum(1.0 / c[(theta >= T) & (m_cap < mid) & (mid < m)]))
        lam = float(min(k_lo + (demand(k_lo) - B) / slope, k_hi)) if slope > 0 else float(k_lo)

    allocations = []
    flags = []
    for p, t in problem.municipalities:
        b = tlc_policy_linear(t, _shifted(p, lam))
        allocations.append(b)
        if b == 0.0:
            flags.append("zero")
        elif b == p.b_bar:
            flags.append("cap")
        elif lam > 0.0:
            flags.append("budget")
        else:
            flags.append("interior")
    return AllocationResult(
        allocations=tuple(allocations), lambda_B=lam, flags=tuple(flags)
    )


def allocation_objective(problem: AllocationProblem, allocations) -> float:
    """Planner value of a feasible transfer vector (benefits net of costs)."""
    return sum(
        (p.omega_b * theta - p.omega_T) * b - 0.5 * p.c * b * b
        for (p, theta), b in zip(problem.municipalities, allocations)
    )


@dataclass(frozen=True)
class KktResiduals:
    """KKT residuals of an allocation; within rounding of 0 iff it is optimal.

    Each residual is divided by the size of the terms it is made of, so one
    tolerance holds whatever the unit of money.  With the stationarity gap
    g_i = omega_b * theta_i - omega_T - lambda_B - c_i * b_i:

    budget_excess  max(sum(b) - B, 0) / max(1, B)
    slackness      lambda_B * (B - sum(b)) / max(1, lambda_B * B)
    stationarity   worst violation over municipalities, each divided by
                   max(1, omega_b * theta_i, omega_T + lambda_B): |g_i|
                   strictly inside (0, b_bar_i), max(g_i, 0) at b_i = 0,
                   max(-g_i, 0) at the cap, nothing when b_bar_i = 0 or
                   theta_i < T_i.  A transfer outside [0, b_bar_i], one paid
                   below the threshold, or a negative price counts as inf.
    """

    budget_excess: float
    slackness: float
    stationarity: float

    def within(self, tol: float) -> bool:
        """True iff every residual is at most tol (slackness in absolute value)."""
        return (
            self.budget_excess <= tol
            and abs(self.slackness) <= tol
            and self.stationarity <= tol
        )


def kkt_residuals(problem: AllocationProblem, result: AllocationResult) -> KktResiduals:
    """KKT residuals of ``result`` for ``problem`` in one O(N) array pass."""
    omega_b, c, omega_T, T, b_bar, theta = _columns(problem)
    b = np.array(result.allocations, dtype=float)
    lam = result.lambda_B
    gated = theta < T
    g = omega_b * theta - omega_T - lam - c * b
    violation = np.select(
        [
            (b < 0.0) | (b > b_bar) | (gated & (b != 0.0)),
            gated | (b_bar == 0.0),
            b == 0.0,
            b == b_bar,
        ],
        [np.inf, 0.0, np.maximum(g, 0.0), np.maximum(-g, 0.0)],
        np.abs(g),
    )
    scale = np.maximum(np.maximum(1.0, omega_b * theta), omega_T + lam)
    B, total = problem.treasury_limit, result.total
    return KktResiduals(
        # an unlimited treasury is never exceeded, and inf / inf would be nan
        budget_excess=max(total - B, 0.0) / max(1.0, B),
        # lambda_B > 0 only when demand at 0 exceeds B, so B is finite there
        slackness=lam * (B - total) / max(1.0, lam * B) if lam else 0.0,
        stationarity=float((violation / scale).max()) if lam >= 0.0 else np.inf,
    )


def cap_ordering_report(
    problem: AllocationProblem, lambda_B: float | None = None
) -> list[tuple[int, float]]:
    """Cap-hit cutoffs theta_hi_i under the shadow price lambda_B, ascending.

    Returns (municipality index, theta_hi) pairs sorted by cutoff, ties by
    index; with otherwise equal parameters, a tighter cap or lower political
    cost means an earlier cap hit.  Municipalities with infinite caps sort
    last.  Pass the price of the caller's ``allocate`` result; without one
    the problem is solved first.
    """
    if lambda_B is None:
        lambda_B = allocate(problem).lambda_B
    omega_b, c, omega_T, T, b_bar, _theta = _columns(problem)
    _theta_lo, theta_hi = _cutoffs(omega_b, c, omega_T + lambda_B, T, b_bar)
    order = np.argsort(theta_hi, kind="stable")
    return list(zip(order.tolist(), theta_hi[order].tolist()))
