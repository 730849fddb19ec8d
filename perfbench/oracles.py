"""Reference answers the benchmark checks the program against.

Each oracle is written from the model's definitions with numpy alone and
shares no code with ``bailrule``, so an agreeing answer is evidence, not an
echo.
"""

from __future__ import annotations

import math

import numpy as np


def clearing_price(margin, c, cap, budget):
    """Exact budget-clearing shadow price of a treasury split.

    Municipality i takes clip((margin_i - lam) / c_i, 0, cap_i), where
    margin_i = omega_b * theta - omega_T for an admissible shock and the
    municipality is left out otherwise.  Aggregate demand is continuous,
    decreasing and linear between the kinks lam = margin_i (transfer reaches
    zero) and lam = margin_i - c_i * cap_i (transfer leaves the cap), so the
    price is found by locating the clearing segment among the kinks and
    solving its linear equation.  Returns 0 when demand at lam = 0 fits.
    """
    margin, c, cap = (np.asarray(v, dtype=float) for v in (margin, c, cap))
    budget = float(budget)

    def demand(lam):
        return float(np.clip((margin - lam) / c, 0.0, cap).sum())

    if demand(0.0) <= budget:
        return 0.0
    kinks = np.unique(np.concatenate([[0.0], margin, margin - c * cap]))
    kinks = kinks[kinks >= 0.0]
    above = [k for k in kinks if demand(k) > budget]
    lo = above[-1]
    hi = kinks[np.searchsorted(kinks, lo, side="right")]
    mid = 0.5 * (lo + hi)
    interior = (margin - c * cap < mid) & (mid < margin)
    capped = margin - c * cap >= mid
    slope = float(np.sum(1.0 / c[interior]))
    return (float(np.sum(margin[interior] / c[interior])) + float(cap[capped].sum()) - budget) / slope


def schedule(theta, rule: dict) -> np.ndarray:
    """The threshold-linear-cap payout of ``rule`` (MechanismParams fields)."""
    b = np.clip((rule["omega_b"] * theta - rule["omega_T"]) / rule["c"], 0.0, rule["b_bar"])
    return np.where(theta < rule["T"], 0.0, b)


def split_at(lam, margin, c, cap):
    """Per-municipality transfers at shadow price ``lam``."""
    return np.clip((np.asarray(margin) - lam) / np.asarray(c), 0.0, np.asarray(cap))


def brute_cap(theta, weights, thresholds, tau):
    """Largest transfer whose weighted yes-vote reaches ``tau``, by counting.

    Member r votes yes on transfer b at shock theta iff b <= x_r * theta.
    Only the breakpoints x_r * theta can be the largest passing transfer, so
    count the vote at every breakpoint and keep the largest that passes.
    """
    bp = np.asarray(thresholds, dtype=float) * float(theta)
    w = np.asarray(weights, dtype=float)
    # a sum, not a matrix product: BLAS threads would keep spinning after it
    support = np.where(bp[None, :] >= bp[:, None], w, 0.0).sum(axis=1)
    passing = bp[support >= tau]
    return float(passing.max()) if passing.size else 0.0


def kkt_residual(b, theta, g, omega_T, c, T, b_bar):
    """Violation of the KKT conditions of max_b B(b) - omega_T b - c b^2 / 2
    on [0, b_bar], with b forced to 0 below the threshold T."""
    if not 0.0 <= b <= b_bar:
        return math.inf
    if theta < T:
        return 0.0 if b == 0.0 else math.inf
    r = g(b, theta) - omega_T - c * b
    if b == 0.0:
        return max(r, 0.0)
    if b == b_bar:
        return max(-r, 0.0)
    return abs(r)
