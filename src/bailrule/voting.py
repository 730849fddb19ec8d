"""Weighted-consent voting: where the transfer cap comes from.

A transfer b passes a legislature when the weighted support of members whose
private support ratio x clears b / theta reaches the quota tau (ties pass).
Taxpayer members always vote no.  ``empirical_cap`` computes the largest
passing transfer for a finite legislature exactly by a sorted breakpoint
scan; ``consent_cap_analytic`` is its population analogue
T * Hinv(1 - tau / w_B), which pins the admissible-shock-uniform cap used by
MechanismParams.b_bar.

At atoms of the threshold distribution the two generalized inverses of H
disagree; the finite scan is ground truth, and it matches the sup-convention
inverse sup{x : H(x-) <= u}, which is what each threshold distribution's
``cap_quantile`` implements.  ``UniformThreshold.sample`` draws the members
of a sampled legislature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "UniformThreshold",
    "DiscreteThreshold",
    "WeightProfile",
    "PoliticalCostSpec",
    "FiniteLegislature",
    "consent_cap_analytic",
    "aggregate_support",
    "empirical_cap",
    "political_cost",
    "bundle_check",
]


class UniformThreshold:
    """Support ratios uniform on [lo, hi], 0 <= lo < hi."""

    def __init__(self, lo: float, hi: float) -> None:
        lo, hi = float(lo), float(hi)
        if not (0 <= lo < hi):
            raise ParameterError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    def cap_quantile(self, u: float) -> float:
        """lo + u * (hi - lo): for a continuous cdf both inverses coincide."""
        if not 0 <= u <= 1:
            raise ParameterError(f"quantile level must lie in [0, 1], got {u}")
        return self.lo + u * (self.hi - self.lo)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)


class DiscreteThreshold:
    """Support ratios on finitely many atoms with given masses."""

    def __init__(self, atoms: Sequence[float], masses: Sequence[float]) -> None:
        atoms = np.asarray(atoms, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if atoms.ndim != 1 or atoms.shape != masses.shape or atoms.size == 0:
            raise ParameterError("atoms and masses must be matching non-empty vectors")
        if np.any(atoms < 0) or not np.all(np.isfinite(atoms)):
            raise ParameterError("atoms must be finite and >= 0")
        if np.any(masses <= 0) or abs(masses.sum() - 1.0) > 1e-9:
            raise ParameterError("masses must be positive and sum to 1")
        order = np.argsort(atoms, kind="stable")
        self.atoms = atoms[order]
        self.masses = masses[order]

    def cap_quantile(self, u: float) -> float:
        """sup{x : H(x-) <= u} — the inverse that matches finite-scan pass/fail.

        The left limit H(x-) at atom k is the cumulative mass strictly below
        it, so this is the largest atom whose preceding mass is <= u.
        """
        if not 0 <= u <= 1:
            raise ParameterError(f"quantile level must lie in [0, 1], got {u}")
        pre = np.cumsum(self.masses) - self.masses
        qualifying = np.nonzero(pre <= u)[0]
        return float(self.atoms[qualifying[-1]])


@dataclass(frozen=True)
class WeightProfile:
    """Bloc weights, quota, threshold distribution, admissibility threshold.

    ``w_beneficiary`` is the beneficiary bloc weight; the taxpayer bloc holds
    the complement.  ``tau`` is the passage quota in (0, 1].  ``threshold_dist``
    describes the distribution H of support ratios within the beneficiary
    bloc, and ``T`` is the shock admissibility threshold the uniform cap is
    anchored at.
    """

    w_beneficiary: float
    tau: float
    threshold_dist: UniformThreshold | DiscreteThreshold
    T: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_beneficiary", float(self.w_beneficiary))
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "T", float(self.T))
        if not 0 <= self.w_beneficiary <= 1:
            raise ParameterError(f"w_beneficiary must lie in [0, 1], got {self.w_beneficiary}")
        if not 0 < self.tau <= 1:
            raise ParameterError(f"tau must lie in (0, 1], got {self.tau}")
        if not self.T >= 0:
            raise ParameterError(f"T must be >= 0, got {self.T}")


@dataclass(frozen=True)
class PoliticalCostSpec:
    """Political shadow cost: lambda0 + lambda1 * salience."""

    lambda0: float
    lambda1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda0", float(self.lambda0))
        object.__setattr__(self, "lambda1", float(self.lambda1))
        if self.lambda0 < 0 or self.lambda1 < 0:
            raise ParameterError("lambda0 and lambda1 must be >= 0")


class FiniteLegislature:
    """Representatives with weights; beneficiaries carry support-ratio thresholds.

    Weights (beneficiary plus the pooled taxpayer bloc) must sum to 1.
    Taxpayer members always vote against any positive transfer, so only the
    beneficiary side needs individual thresholds.
    """

    def __init__(
        self,
        beneficiary_weights: Sequence[float],
        beneficiary_thresholds: Sequence[float],
        taxpayer_weight: float,
    ) -> None:
        w = np.asarray(beneficiary_weights, dtype=float)
        x = np.asarray(beneficiary_thresholds, dtype=float)
        taxpayer_weight = float(taxpayer_weight)
        if w.shape != x.shape or w.ndim != 1:
            raise ParameterError("weights and thresholds must be matching vectors")
        if np.any(w < 0) or taxpayer_weight < 0:
            raise ParameterError("weights must be >= 0")
        if np.any(x < 0) or not np.all(np.isfinite(x)):
            raise ParameterError("thresholds must be finite and >= 0")
        if abs(w.sum() + taxpayer_weight - 1.0) > 1e-9:
            raise ParameterError(
                f"weights must sum to 1, got {w.sum() + taxpayer_weight}"
            )
        self.weights = w
        self.thresholds = x
        self.taxpayer_weight = taxpayer_weight


def _support_steps(theta: float, leg: FiniteLegislature) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints x_r * theta sorted ascending, with suffix weight sums.

    suffix[k] is the total weight of members whose breakpoint is at or above
    breakpoints[k]; both ``aggregate_support`` and ``empirical_cap`` read off
    this one array so their pass/fail decisions agree bit-for-bit.
    """
    bp = leg.thresholds * theta
    order = np.argsort(bp, kind="stable")
    bp = bp[order]
    suffix = np.cumsum(leg.weights[order][::-1])[::-1]
    return bp, suffix


def aggregate_support(b: float, theta: float, leg: FiniteLegislature) -> float:
    """Weighted yes-vote share for transfer b at shock theta.

    A beneficiary votes yes iff b <= x_r * theta; taxpayers contribute 0.
    Weakly decreasing in b and weakly increasing in theta.
    """
    b, theta = float(b), float(theta)
    if b < 0 or theta < 0:
        raise ParameterError("b and theta must be >= 0")
    bp, suffix = _support_steps(theta, leg)
    idx = int(np.searchsorted(bp, b, side="left"))
    return float(suffix[idx]) if idx < bp.size else 0.0


def empirical_cap(theta: float, leg: FiniteLegislature, tau: float) -> float:
    """Largest transfer that still reaches quota tau at shock theta.

    The support function only steps down just past a breakpoint x_r * theta,
    so the passing set's supremum is the largest breakpoint whose suffix
    weight reaches tau; an empty passing set returns 0.
    """
    theta, tau = float(theta), float(tau)
    if theta < 0:
        raise ParameterError(f"theta must be >= 0, got {theta}")
    if not 0 < tau <= 1:
        raise ParameterError(f"tau must lie in (0, 1], got {tau}")
    bp, suffix = _support_steps(theta, leg)
    qualifying = np.nonzero(suffix >= tau)[0]
    if qualifying.size == 0:
        return 0.0
    return float(bp[qualifying[-1]])


def consent_cap_analytic(profile: WeightProfile) -> float:
    """Population uniform cap T * Hinv(1 - tau / w_B); 0 when the quota
    exceeds the beneficiary bloc entirely.

    Uses the sup-convention inverse so the value agrees with the
    finite-legislature scan at atoms of H.
    """
    if profile.tau > profile.w_beneficiary:
        return 0.0
    u = 1.0 - profile.tau / profile.w_beneficiary
    return profile.T * float(profile.threshold_dist.cap_quantile(u))


def political_cost(spec: PoliticalCostSpec, salience: float) -> float:
    """omega_T implied by net-contributor salience: lambda0 + lambda1 * s."""
    return spec.lambda0 + spec.lambda1 * float(salience)


def bundle_check(before: tuple[float, float], after: tuple[float, float]) -> bool:
    """Validate a joint institutional shift (omega_T, b_bar) -> (omega_T', b_bar').

    A shift that raises the political cost must not loosen the cap; those two
    always move together through the underlying weights.  Returns False for
    incoherent bundles.
    """
    omega_before, cap_before = before
    omega_after, cap_after = after
    if omega_after >= omega_before:
        return cap_after <= cap_before
    return True
