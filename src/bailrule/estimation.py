"""Recovering a threshold-linear-cap signature from payout episodes.

The regression model is a two-knot hinge spline with one shared slope,

    b_i = s * (theta_i - theta1)_+ - s * (theta_i - theta2)_+ + eps_i,
    theta2 >= theta1 >= T,   s >= 0,

whose fitted shape is exactly a TLC schedule: zero, then linear with slope s,
then flat at s * (theta2 - theta1).  Its regressor, the hinge
clip(theta, theta1, theta2) - theta1, is written once, in ``_hinge``, which
``predict``, ``fit_tlc``'s refit and ``detect_override_shift`` call.
``fit_tlc`` profiles the slope out (it has a closed form per knot pair) and
finds the best candidate knot pair by a branch-and-bound that returns what an
exhaustive O(K^2) scan would.

Downstream: ``classify_against_schedule`` labels each episode zero /
interior / cap / override against the published ``floors.Schedule``;
``detect_override_shift`` refits at a published rule's cutoffs (an audit
passes the schedule's card) with a cap-region dummy to surface systematic
cap-breaking; ``attribute_shift`` decomposes knot movement between two
fitted regimes into implied political-cost and cap changes.

Estimators take an ``EpisodeTable`` (as ``dataio.read_episodes`` returns)
or any sequence of ``Episode``; ``_as_arrays`` alone turns them into columns.
Both row types live in ``dataio``, which checks every row when it is built,
so no estimator sees a row that no episode file can hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataio import Episode, EpisodeTable
from .errors import EstimationError, ParameterError
from .floors import Schedule
from .policy import MechanismParams, cutoffs
from .voting import bundle_check

__all__ = [
    "TlcFit",
    "OverrideReport",
    "ShiftAttribution",
    "fit_tlc",
    "predict",
    "classify_against_schedule",
    "detect_override_shift",
    "attribute_shift",
]

#: The episode labels ``classify_against_schedule`` gives, in report order.
_REGIMES = ("zero", "interior", "cap", "override")

#: Default size of the uniform knot grid ``fit_tlc`` searches.
_KNOT_GRID = 201
#: Relative distance from a published slope at which an estimate has moved.
_SLOPE_RTOL = 0.05


@dataclass(frozen=True)
class TlcFit:
    """Fitted two-knot hinge spline.

    cap_level is the implied plateau s * (theta2 - theta1).  grid_resolution
    is the uniform knot-grid step used in the search; fitted knots are only
    trustworthy to roughly that scale.  Under a general concave benefit the
    interior segment is only a monotone approximation and s has no
    structural reading.  ``search`` holds the knot search's counters (blocks,
    leaf pairs, bound gap); it stays out of equality, repr and artifacts.
    """

    s: float
    theta1: float
    theta2: float
    sse: float
    n_obs: int
    t_admissible: float
    grid_resolution: float
    degenerate: bool = False
    search: tuple = field(default=(), compare=False, repr=False)

    @property
    def cap_level(self) -> float:
        return self.s * (self.theta2 - self.theta1)

    @property
    def residual_se(self) -> float:
        """sqrt(sse / (n_obs - 3)), the three being the slope and two knots."""
        return math.sqrt(self.sse / max(self.n_obs - 3, 1))

    @property
    def knot_tol(self) -> float:
        """The grid step floored at 1e-12: an audit counts knots this close as one."""
        return max(self.grid_resolution, 1e-12)

    @property
    def no_interior(self) -> bool:
        return self.theta2 - self.theta1 <= self.knot_tol


def _as_arrays(data: Sequence[Episode]) -> tuple[np.ndarray, np.ndarray]:
    """``theta`` and ``b`` arrays of a table (its own columns) or of rows."""
    if isinstance(data, EpisodeTable):
        return data.theta, data.b
    theta = np.array([e.theta for e in data], dtype=float)
    b = np.array([e.b for e in data], dtype=float)
    return theta, b


def _candidate_knots(theta: np.ndarray, t_admissible: float, knot_grid: int) -> np.ndarray:
    """Uniform grid joined with observed shocks and their midpoints.

    The profiled objective is piecewise smooth with kinks at data points, so
    candidates must straddle every data point; midpoints guarantee that.
    """
    top = float(theta.max())
    if top <= t_admissible:
        return np.array([t_admissible])
    grid = np.linspace(t_admissible, top, knot_grid)
    obs = np.unique(theta)
    mids = 0.5 * (obs[:-1] + obs[1:])
    cand = np.concatenate([grid, obs, mids])
    cand = cand[(cand >= t_admissible) & (cand <= top)]
    return np.unique(cand)


_LEAF, _CHUNK = 16, 256  # leaves hold <= 16 x 16 knot pairs; 256 leaves per pass
_SLACK = 1e-7            # relative: covers the rounding of the bound itself
_ULPS = 2.0**-46         # 64 rounding units: error allowance per unit magnitude


def _knot_search(ts, bs, cand, idx, q_floor, gain):
    """Branch-and-bound (Land & Doig 1960) for the pair j <= k of largest
    ``gain``, then smallest (j, k); returns it and (blocks, leaf pairs, gap).

    A block [j1..j2] x [k1..k2] relaxes Hudson's (1966) profiled hinge to zero
    for theta <= c[j1], a free line on (c[j2], c[k1]], a free constant above
    c[k2] and anything between.  sum(b^2) - SSE_relax, widened by the rounding
    error of ``gain``'s a and q (q >= n_top * (c[k1] - c[j2])^2 and > q_floor
    in the block), bounds every gain computed there; the gap is the largest
    dropped bound over the winning gain, minus 1.
    """
    n, K, u = ts.size, cand.size, ts - 0.5 * (ts[0] + ts[-1])  # u: centred theta
    P = np.pad(np.cumsum(np.array([u, u * u, bs, u * bs, bs * bs]), axis=1), ((0, 0), (1, 0)))
    Pu, Puu, Pb, Pub, Pbb = P
    tau, R = 1e-7 * Puu[-1], np.abs(cand).max()  # an sxx below tau is rounding

    def bound(j1, j2, k1, k2):
        lo, mid, hi, top = idx[j1], idx[j2], np.maximum(idx[k1], idx[j2]), idx[k2]
        m, n_top = hi - mid, n - top  # m = 0: a diagonal block has no affine set
        Su, Suu, Sb, Sub, Sbb = P[:, hi] - P[:, mid]
        with np.errstate(divide="ignore", invalid="ignore"):
            sxx, sxy = Suu - Su * Su / m, Sub - Su * Sb / m
            affine = np.where(sxx > tau, Sb * Sb / m + sxy * sxy / sxx, Sbb)
            const = np.where(n_top > 0, (Pb[n] - Pb[top]) ** 2 / n_top, 0.0)
        ub = np.maximum(Pbb[top] - Pbb[lo] - Sbb + affine + const, 0.0)
        ub += np.where(Pb[n] > Pb[lo], _ULPS * (n - lo + 2) * (Pbb[n] + Pb[n]), 0.0)
        dq, da = _ULPS * (n - lo) * R * R, _ULPS * (Pb[n] - Pb[lo]) * R
        q_lb = np.maximum(np.maximum(cand[k1] - cand[j2], 0.0) ** 2 * (n - hi) - dq, q_floor)
        return (np.sqrt(ub * (1.0 + dq / q_lb)) + da / np.sqrt(q_lb)) ** 2

    def live(ub):
        return (ub > 0.0) & (ub >= inc * (1.0 - _SLACK))
    inc, dropped, best, visited, pairs = 0.0, 0.0, (0.0, 0), 0, 0  # best: (gain, -j*K-k)
    dj, dk = np.divmod(np.arange(_LEAF**2), _LEAF)
    blocks = np.array([[0], [K - 1], [0], [K - 1]])
    while blocks.size:
        j1, j2, k1, k2 = blocks
        jm, km = (j1 + j2) // 2, (k1 + k2) // 2
        inc = max(inc, float(gain(jm, np.maximum(km, jm)).max()))  # block centres
        ub, visited = bound(j1, j2, k1, k2), visited + j1.size
        # leaves pair by pair; an evaluated leaf's bound is retired to -1
        leaf = (j2 - j1 < _LEAF) & (k2 - k1 < _LEAF)
        for sel in np.split(np.flatnonzero(leaf), range(_CHUNK, int(leaf.sum()), _CHUNK)):
            sel = sel[live(ub[sel])]
            if not sel.size:
                continue
            J, Kk = j1[sel, None] + dj, k1[sel, None] + dk
            ok = (J <= j2[sel, None]) & (Kk <= k2[sel, None]) & (J <= Kk)
            J, Kk = J[ok], Kk[ok]
            g = gain(J, Kk)
            best = max(best, (float(g.max()), -int((J * K + Kk)[g == g.max()].min())))
            inc, pairs, ub[sel] = max(inc, best[0]), pairs + g.size, -1.0
        dropped = max(dropped, float(ub.max(initial=0.0, where=~live(ub))))
        j1, j2, k1, k2, jm, km = (v[live(ub) & ~leaf] for v in (j1, j2, k1, k2, jm, km))
        a1, a2, c1, c2 = blocks = np.hstack([[j1, jm, k1, km], [j1, jm, km + 1, k2],
                                             [jm + 1, j2, k1, km], [jm + 1, j2, km + 1, k2]])
        blocks = blocks[:, (a1 <= a2) & (c1 <= c2) & (a1 <= c2)]
    return divmod(-best[1], K), (visited, pairs, dropped / best[0] - 1 if best[0] else -1.0)


def _slope_moved(est: float, s: float) -> bool:
    """Whether ``est`` is off the published slope ``s`` by over _SLOPE_RTOL * s."""
    return abs(est - s) > _SLOPE_RTOL * s


def _hinge(theta, t1: float, t2: float):
    """The fit's regressor (theta - t1)_+ - (theta - t2)_+ for t1 <= t2."""
    return np.clip(theta, t1, t2) - t1


def predict(theta, fit: TlcFit):
    """Fitted schedule at ``theta``: max(s * _hinge(theta), 0)."""
    arr = np.asarray(theta, dtype=float)
    out = np.maximum(fit.s * _hinge(arr, fit.theta1, fit.theta2), 0.0)
    return float(out) if arr.ndim == 0 else out


def fit_tlc(
    data: Sequence[Episode],
    t_admissible: float,
    knot_grid: int = _KNOT_GRID,
) -> TlcFit:
    """Profile least squares over knot pairs with closed-form slope.

    For fixed knots the regressor is x_i = (theta_i - t1)_+ - (theta_i - t2)_+
    and the nonnegative LS slope is max(0, <x,b>/<x,x>); minimizing SSE over
    pairs is maximizing the gain <x,b>^2/<x,x>, O(1) per pair from suffix
    sums.  ``_knot_search`` bounds blocks of pairs by a relaxed hinge, widened
    by rounding, and returns the pair a scan of all pairs would: the largest
    gain, ties to the smallest theta1, then theta2, both at the first
    candidate if no gain is positive.  b is scaled by a power of two first
    (exact: no knot moves); EstimationError is raised if s or the SSE
    overflow a float when scaled back.  Fitted values are clipped at zero
    (vacuous here since s and x are nonnegative, but part of the contract).
    """
    if len(data) < 4:
        raise EstimationError(f"need at least 4 episodes, got {len(data)}")
    theta, b = _as_arrays(data)
    if np.unique(theta).size < 2:
        raise EstimationError("all shocks identical; knots are not identified")
    t_admissible = float(t_admissible)
    if knot_grid < 2:
        raise ParameterError(f"knot_grid must be >= 2, got {knot_grid}")

    cand = _candidate_knots(theta, t_admissible, knot_grid)
    span = max(float(theta.max()) - t_admissible, 0.0)
    resolution = span / (knot_grid - 1) if span > 0 else 0.0

    e = math.frexp(float(b.max()))[1]
    b = np.ldexp(b, -e)  # exact: no knot moves, and b^2 and the gains stay finite
    order = np.argsort(theta, kind="stable")
    ts, bs = theta[order], b[order]

    idx = np.searchsorted(ts, cand, side="right")
    suffix = np.cumsum(np.array([np.ones_like(ts), ts, ts * ts, bs, bs * ts])[:, ::-1], axis=1)
    s0, s_th, s_th2, s_b, s_bth = np.pad(suffix[:, ::-1], ((0, 0), (0, 1)))[:, idx]

    p = s_bth - cand * s_b                                # sum (theta-t)_+ b
    q = s_th2 - 2.0 * cand * s_th + cand * cand * s0      # sum (theta-t)_+^2
    q_floor = 1e-12 * max(float(q[0]), 1.0)

    def gain(j: np.ndarray, k: np.ndarray) -> np.ndarray:
        tj, tk = cand[j], cand[k]
        a = p[j] - p[k]
        r = s_th2[k] - (tj + tk) * s_th[k] + tj * tk * s0[k]
        qq = q[j] + q[k] - 2.0 * r
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((qq > q_floor) & (a > 0.0), a * a / qq, 0.0)

    (j, k), search = _knot_search(ts, bs, cand, idx, q_floor, gain)
    t1, t2 = float(cand[j]), float(cand[k])

    # Recompute the winning pair directly: the ranking form sum(b^2) - gain
    # loses all significance once the fit is near-perfect.
    x = _hinge(theta, t1, t2)
    xx = float(x @ x)
    slope = max(0.0, float(x @ b) / xx) if xx > q_floor else 0.0
    resid = b - np.maximum(slope * x, 0.0)
    sse = float(resid @ resid)
    with np.errstate(over="ignore"):
        slope, sse = float(np.ldexp(slope, e)), float(np.ldexp(sse, 2 * e))
    if not (math.isfinite(slope) and math.isfinite(sse)):
        raise EstimationError("the fit overflows a float at payouts this large")

    return TlcFit(
        s=slope,
        theta1=t1,
        theta2=t2,
        sse=sse,
        n_obs=len(data),
        t_admissible=t_admissible,
        grid_resolution=resolution,
        degenerate=bool(np.all(b == 0.0)),
        search=search,
    )


def classify_against_schedule(
    data: Sequence[Episode], schedule: Schedule, tol: float
) -> list[str]:
    """Label episodes against a published schedule rather than a fit.

    This is the compliance half of an audit: the published schedule is the
    commitment, so deviations are judged against it, not against a curve
    re-estimated from possibly contaminated data (a refit absorbs systematic
    overrides into its own knots).  An episode is an override where |b -
    schedule.payout(theta)| > tol, else zero / interior / cap by whether
    theta lies below, within or above the cutoffs of ``schedule.card()``; the
    payout, unlike a hinge fit, jumps at a T that pins the lower cutoff.
    Without a card, by whether the payout is 0, below b_bar or at b_bar.  A
    tol that is negative, nan or infinite (which would turn override
    detection off), or a shock above theta_bar (naming the first such
    episode, 0-based), raises ParameterError.
    """
    theta, b = _as_arrays(data)
    theta_bar = schedule.params.theta_bar
    outside = np.flatnonzero(theta > theta_bar)
    if outside.size:
        i = int(outside[0])
        raise ParameterError(
            f"episode {i}: theta={float(theta[i])!r} lies outside the shock support "
            f"[0, {theta_bar!r}]"
        )
    if not 0 <= tol < math.inf:
        raise ParameterError(f"tol must be >= 0 and finite, got {tol}")
    card = schedule.card()
    target = schedule.payout(theta)
    if card is None:
        regions = [target == 0.0, target != schedule.params.b_bar]
    else:
        cut = cutoffs(card)
        regions = [theta < cut.theta_lo, theta <= cut.theta_hi]
    zero, interior, cap, override = _REGIMES
    return np.select(
        [np.abs(b - target) > tol, *regions], [override, zero, interior], cap
    ).tolist()


@dataclass(frozen=True)
class OverrideReport:
    """Cap-region dummy refit at a published rule's cutoffs.

    ``identified`` is False when fewer than 2 episodes sit above theta_hi, or
    none in (theta_lo, theta_hi] (``n_interior_obs``; the hinge is then a
    multiple of the dummy): the dummy is then meaningless and no flag is
    raised.  ``dummy`` is the estimated uniform cap-region shift;
    ``dummy_over_rse`` scales it by the refit's residual standard error;
    ``slope_moved`` is ``_slope_moved``, slope-match's test: a pure cap
    override should not move the slope.
    """

    identified: bool
    n_cap_obs: int
    n_interior_obs: int
    dummy: float | None = None
    dummy_over_rse: float | None = None
    slope_refit: float | None = None
    slope_moved: bool | None = None


def detect_override_shift(data: Sequence[Episode], rule: MechanismParams) -> OverrideReport:
    """Refit b ~ s * x + d * 1[theta > theta_hi], x the hinge at ``cutoffs(rule)``.

    A systematic override above the cap loads on d and, the knots being the
    published ones, leaves s within ``_SLOPE_RTOL`` of ``rule.interior_slope``.  The hinge
    is continuous, so it misfits a rule whose T pins theta_lo (a jump at T).
    """
    theta, b = _as_arrays(data)
    cut, s = cutoffs(rule), rule.interior_slope
    cap_mask = theta > cut.theta_hi
    x = _hinge(theta, cut.theta_lo, cut.theta_hi)
    n_cap, n_interior = int(cap_mask.sum()), int(np.count_nonzero(x[~cap_mask]))
    if n_cap < 2 or n_interior == 0:
        return OverrideReport(identified=False, n_cap_obs=n_cap, n_interior_obs=n_interior)
    design = np.column_stack([x, cap_mask.astype(float)])
    coef, *_ = np.linalg.lstsq(design, b, rcond=None)
    slope_new, dummy = float(coef[0]), float(coef[1])
    resid = b - design @ coef
    dof = max(len(data) - 2, 1)
    rse = math.sqrt(float(resid @ resid) / dof)
    return OverrideReport(
        identified=True,
        n_cap_obs=n_cap,
        n_interior_obs=n_interior,
        dummy=dummy,
        dummy_over_rse=(abs(dummy) / rse if rse > 0 else math.inf if dummy else 0.0),
        slope_refit=slope_new,
        slope_moved=_slope_moved(slope_new, s),
    )


@dataclass(frozen=True)
class ShiftAttribution:
    """Decomposition of knot movement between two fitted regimes.

    delta_theta2 = (implied_delta_omega_T + c * implied_delta_b_bar) / omega_b
    by construction.  When theta1 is within ``knot_tol`` of the admissibility
    threshold in either fit, the political-cost component is not identified
    from theta1; it is reported as 0 with ``omega_T_identified`` False and the
    whole theta2 movement is attributed to the cap.
    """

    delta_theta1: float
    delta_theta2: float
    implied_delta_omega_T: float
    implied_delta_b_bar: float
    omega_T_identified: bool
    bundle_consistent: bool | None
    announced_match: bool | None


def attribute_shift(
    fit_before: TlcFit,
    fit_after: TlcFit,
    omega_b: float,
    c: float,
    announced: tuple[float, float] | None = None,
) -> ShiftAttribution:
    """Map (delta theta1, delta theta2) to implied (delta omega_T, delta b_bar).

    Lower-knot movement prices the political-cost change (omega_b per unit);
    what upper-knot movement that change does not explain is priced as a cap
    change.  ``announced`` is an optional (delta omega_T, delta b_bar) claim
    to check the attribution against, at a tolerance set by the sum of the
    fits' ``knot_tol``.
    """
    omega_b, c = float(omega_b), float(c)
    if omega_b <= 0 or c <= 0:
        raise ParameterError("omega_b and c must be > 0")
    d1 = fit_after.theta1 - fit_before.theta1
    d2 = fit_after.theta2 - fit_before.theta2
    identified = all(abs(f.theta1 - f.t_admissible) > f.knot_tol
                     for f in (fit_before, fit_after))
    d_omega_T = omega_b * d1 if identified else 0.0
    d_b_bar = (omega_b * d2 - d_omega_T) / c

    bundle = bundle_check((0.0, 0.0), (d_omega_T, d_b_bar)) if identified else None

    match = None
    if announced is not None:
        ann_omega, ann_cap = float(announced[0]), float(announced[1])
        tol_omega = omega_b * (fit_before.knot_tol + fit_after.knot_tol)
        tol_cap = 2.0 * tol_omega / c
        match = abs(d_b_bar - ann_cap) <= max(tol_cap, 1e-9)
        if identified:
            match = match and abs(d_omega_T - ann_omega) <= max(tol_omega, 1e-9)

    return ShiftAttribution(
        delta_theta1=d1,
        delta_theta2=d2,
        implied_delta_omega_T=d_omega_T,
        implied_delta_b_bar=d_b_bar,
        omega_T_identified=identified,
        bundle_consistent=bundle,
        announced_match=match,
    )
