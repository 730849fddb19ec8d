"""Splitting one treasury across several municipalities' bailout rules.

The planner maximizes the sum of the per-municipality objectives subject to
every local schedule's own threshold and cap plus a joint budget
sum(b_i) <= B.  The KKT system says: charge every municipality a common
shadow price lambda_B on top of its political cost, then let each run its own
threshold-linear-cap rule.  Aggregate demand is piecewise linear in lambda_B
with at most 2N kinks, so the price is solved exactly in O(N log N)
(Helgason, Kennington & Lall 1980; Brucker 1984).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .policy import MechanismParams, _tlc, cutoffs, tlc_policy_linear

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "GridOracleResult",
    "allocate",
    "allocation_objective",
    "cap_ordering_report",
    "grid_oracle",
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
            if not 0 <= t <= p.theta_bar:
                raise ParameterError(
                    f"realized shock {t} outside [0, {p.theta_bar}]"
                )


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
    omega_b, c, omega_T, T, b_bar, theta = np.array(
        [(p.omega_b, p.c, p.omega_T, p.T, p.b_bar, t) for p, t in problem.municipalities]
    ).T

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
class GridOracleResult:
    """Best grid point found by :func:`grid_oracle` plus the axis step sizes."""

    allocations: tuple
    objective: float
    grid_steps: tuple


def grid_oracle(
    problem: AllocationProblem, points_per_axis: int = 200
) -> GridOracleResult:
    """Brute-force reference maximizer on a box grid (self-check aid).

    Searches the product grid over [0, local unconstrained optimum] per
    municipality, discarding budget-infeasible combos.  Exponential in the
    number of municipalities, so callers should keep that at three or fewer.
    The reported objective is within first-order quantization loss of the
    true maximum; when the budget binds, individual coordinates may sit a
    few steps from the true optimum (the argmax trades whole steps between
    axes), so compare values, not coordinates.
    """
    if len(problem.municipalities) > 3:
        raise ParameterError("grid_oracle is practical only for <= 3 municipalities")
    axes = []
    for p, theta in problem.municipalities:
        hi = tlc_policy_linear(theta, p)  # optimum never exceeds the local rule
        axes.append(np.linspace(0.0, hi, points_per_axis))
    steps = tuple(ax[1] - ax[0] if len(ax) > 1 else 0.0 for ax in axes)

    grids = np.meshgrid(*axes, indexing="ij")
    total = np.zeros_like(grids[0])
    objective = np.zeros_like(grids[0])
    for (p, theta), g in zip(problem.municipalities, grids):
        total += g
        objective += (p.omega_b * theta - p.omega_T) * g - 0.5 * p.c * g * g
    objective = np.where(total <= problem.treasury_limit + 1e-12, objective, -np.inf)
    flat = int(np.argmax(objective))
    idx = np.unravel_index(flat, objective.shape)
    best = tuple(float(ax[i]) for ax, i in zip(axes, idx))
    return GridOracleResult(
        allocations=best, objective=float(objective[idx]), grid_steps=steps
    )


def cap_ordering_report(problem: AllocationProblem) -> list[tuple[int, float]]:
    """Cap-hit cutoffs theta_hi_i under the clearing shadow price, ascending.

    Returns (municipality index, theta_hi) pairs sorted by cutoff; with
    otherwise equal parameters, a tighter cap or lower political cost means
    an earlier cap hit.  Municipalities with infinite caps sort last.
    """
    result = allocate(problem)
    lam = result.lambda_B
    entries = [
        (i, cutoffs(_shifted(p, lam)).theta_hi)
        for i, (p, _theta) in enumerate(problem.municipalities)
    ]
    entries.sort(key=lambda e: (e[1], e[0]))
    return entries
