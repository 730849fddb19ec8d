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

``Schedule``, a rule plus an optional floor, is the published payout that the
rule card, audit and plot read; ``simulate_episodes`` draws its ``screened_payout``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import EpisodeTable
from .errors import ParameterError
from .policy import MechanismParams, _payout, _tlc, cutoffs

__all__ = [
    "ParallelFloor",
    "CustomFloor",
    "EquityFloor",
    "Schedule",
    "apply_equity_floor",
    "classify_floor",
    "screened_payout",
    "simulate_episodes",
    "SC_PARALLEL",
    "SC_DOMINATED",
    "EXTRA_KINK",
]

SC_PARALLEL = "SC-Parallel"
SC_DOMINATED = "SC-Dominated"
EXTRA_KINK = "ExtraKink"
NO_CARD = "the floored payout has no two-cutoff card"


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

    @property
    def name(self) -> str:
        return f"parallel a={self.a!r}"

    def values(self, theta: np.ndarray, params: MechanismParams) -> np.ndarray:
        return _tlc(theta, params.omega_b, params.c, params.omega_T, floor=-np.inf) + self.a


@dataclass(frozen=True)
class CustomFloor:
    """Piecewise-linear weakly increasing floor given by knots.

    ``theta_knots`` strictly increasing, ``b_values`` weakly increasing and
    non-negative, all finite.  Beyond the knots the edge values extend.
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
        if not all(map(math.isfinite, tk + bv)):
            raise ParameterError(f"floor knots and values must be finite, got {tk} and {bv}")
        if any(t2 <= t1 for t1, t2 in zip(tk, tk[1:])):
            raise ParameterError("floor knots must be strictly increasing")
        if any(b2 < b1 for b1, b2 in zip(bv, bv[1:])):
            raise ParameterError("floor values must be weakly increasing")
        if bv[0] < 0:
            raise ParameterError("floor values must be non-negative")

    name = "custom"

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


@dataclass(frozen=True)
class Schedule:
    """The published payout: the rule ``params`` raised to ``floor``.
    ``floor_class`` is ``classify_floor``'s label (None without a floor);
    computing it at construction refuses a floor above the cap."""

    params: MechanismParams
    floor: EquityFloor | None = None
    floor_class: str | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.floor is not None:
            object.__setattr__(self, "floor_class", classify_floor(self.floor, self.params))

    def payout(self, theta):
        """clip(max(b_min(theta), interior candidate), 0, b_bar), zero below T;
        without a floor, ``tlc_policy_linear`` bitwise."""
        f, p = self.floor, self.params
        return _payout(theta, p, None if f is None else lambda x: np.maximum(f.values(x, p), 0.0))

    def card(self) -> MechanismParams | None:
        """The TLC rule the payout equals, or None.  A parallel floor at a <= 0
        or an SC-Dominated custom one (to 1e-12) never binds; at 0 < c*a <=
        omega_T, whatever its label, it pays the rule at cost omega_T - c*a.
        A binding custom floor, or c*a > omega_T, has no card."""
        f, p = self.floor, self.params
        if f is None or (isinstance(f, ParallelFloor) and f.a <= 0):
            return p
        if isinstance(f, ParallelFloor):
            return replace(p, omega_T=p.omega_T - p.c * f.a) if p.c * f.a <= p.omega_T else None
        return p if self.floor_class == SC_DOMINATED else None

    @property
    def rule(self) -> MechanismParams:
        """The published TLC rule: ``card()``, or ``params`` when that is None."""
        return self.params if (card := self.card()) is None else card

    @property
    def no_bailout(self) -> bool:
        """Whether the payout, weakly increasing, is zero up to theta_bar."""
        return self.payout(self.params.theta_bar) == 0.0

    def vertices(self) -> list:
        """(theta, payout) points drawing the payout on [0, theta_bar], with a
        riser at a jump at T.  Kinks: T, the cutoffs, where a parallel floor
        meets 0 and b_bar, a custom floor's knots and its pieces' crossings
        with the line (one off its piece is a harmless extra point)."""
        p, f = self.params, self.floor
        cut = cutoffs(p)
        xs = [0.0, p.T, cut.theta_lo, cut.theta_hi, p.theta_bar]
        if isinstance(f, ParallelFloor):
            xs += [(p.omega_T + p.c * (b - f.a)) / p.omega_b for b in (0.0, p.b_bar)]
        elif f is not None:
            tk, bv = np.array(f.theta_knots), np.array(f.b_values)
            t, v = np.r_[tk[0], tk], np.r_[bv[0], bv]
            m = np.r_[0.0, np.diff(bv) / np.diff(tk), 0.0]
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = (v - m * t + p.omega_T / p.c) / (p.omega_b / p.c - m)
            xs += [*tk.tolist(), *cross[np.isfinite(cross)].tolist()]
        pts = []
        for x in sorted({min(max(x, 0.0), p.theta_bar) for x in xs}):
            y = self.payout(x)
            if x == p.T and x > 0 and y > 0:
                pts.append((x, 0.0))
            pts.append((x, y))
        return pts


def apply_equity_floor(theta, floor: EquityFloor, params: MechanismParams):
    """``Schedule(params, floor)``'s payout at ``theta`` and floor class."""
    schedule = Schedule(params, floor)
    return schedule.payout(theta), schedule.floor_class


def screened_payout(beta: float, theta_hat, schedule: Schedule):
    """``schedule.payout(theta_hat)``, floor included, capped at ``beta``."""
    beta = float(beta)
    if not beta >= 0:
        raise ParameterError(f"beta must be >= 0, got {beta}")
    b = schedule.payout(theta_hat)
    return np.minimum(beta, b) if isinstance(b, np.ndarray) else min(beta, b)


def simulate_episodes(schedule: Schedule, dist, n: int, seed: int, noise: float = 0.0,
                      override_shift: float = 0.0, beta: float = math.inf) -> EpisodeTable:
    """``n`` shocks ``dist.rvs(n, default_rng(seed))`` and their ``screened_payout``,
    ``override_shift`` added above the cap cutoff, N(0, noise) noise clipped at 0."""
    if not 0 <= noise < np.inf:
        raise ParameterError(f"noise must be finite and >= 0, got {noise}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    theta = np.asarray(dist.rvs(n, rng), dtype=float)
    b = screened_payout(beta, theta, schedule)
    if override_shift:
        b = b + override_shift * (theta > cutoffs(schedule.rule).theta_hi)
    if noise > 0:
        b = np.maximum(b + rng.normal(0.0, noise, size=n), 0.0)
    return EpisodeTable(theta, b)
