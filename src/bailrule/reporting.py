"""Audit assembly, sweep tables and text/CSV rendering for the command-line
front end.  A sweep's rules come resolved from ``configfile.build_sweep``.

The audit pipeline deliberately separates two roles:

* the *fit* (free re-estimation of the signature from the data) answers
  "does the payout history look threshold-linear-cap, and does its shape
  match the published card?";
* *compliance* (per-episode classification and the override scan) is judged
  against the published schedule itself, because a free refit absorbs
  systematic overrides into its own knots and would hide exactly the
  behavior an audit exists to catch.  That schedule is a
  ``floors.Schedule``, floor included; without a two-cutoff card the
  override scan and card checks are not identified.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ParameterError
from .estimation import (
    _KNOT_GRID,
    _REGIMES,
    OverrideReport,
    ShiftAttribution,
    TlcFit,
    _as_arrays,
    _slope_moved,
    attribute_shift,
    classify_against_schedule,
    detect_override_shift,
    fit_tlc,
)
from .floors import NO_CARD, EquityFloor, Schedule
from .policy import MechanismParams, cutoffs, knife_edge

__all__ = [
    "SignatureCheck",
    "AuditReport",
    "run_audit",
    "render_audit_text",
    "run_sweep",
    "sweep_csv",
    "render_allocation_text",
]

PASS, FAIL, NOT_IDENTIFIED = "pass", "fail", "not-identified"

#: Minimum R^2 for the piecewise-linearity check.
LINEARITY_R2 = 0.8


@dataclass(frozen=True)
class SignatureCheck:
    name: str
    status: str
    detail: str


@dataclass(frozen=True)
class AuditReport:
    fit: TlcFit
    labels: list
    tolerance: float
    checks: list
    override: OverrideReport | None  # None without a card
    schedule: Schedule
    attribution: ShiftAttribution | None = None
    fit_after: TlcFit | None = None

    @property
    def counts(self) -> dict:
        """Episodes per label, in ``_REGIMES`` order."""
        tally = Counter(self.labels)
        return {k: tally[k] for k in _REGIMES}

    @property
    def failed_checks(self) -> list:
        """Names of the checks whose status is fail, in report order."""
        return [c.name for c in self.checks if c.status == FAIL]

    @property
    def any_check_failed(self) -> bool:
        return bool(self.failed_checks)


def _signature_checks(
    episodes, fit: TlcFit, card: MechanismParams | None, override: OverrideReport | None
) -> list:
    theta, b = _as_arrays(episodes)
    tss = float(((b - b.mean()) ** 2).sum())

    # piecewise-linearity: the hinge fit should explain nearly everything
    if tss <= 1e-20 or fit.degenerate:
        linearity = NOT_IDENTIFIED, "no payout variance"
    else:
        r2 = 1.0 - fit.sse / tss
        linearity = PASS if r2 >= LINEARITY_R2 else FAIL, f"R^2={r2:.4f}"

    # two-cutoff: both knots strictly inside the observed shock range
    lo_edge, hi_edge = float(theta.min()), float(theta.max())
    if fit.degenerate:
        two_cutoff = NOT_IDENTIFIED, "degenerate fit"
    elif fit.theta1 <= lo_edge + fit.knot_tol or fit.theta2 >= hi_edge - fit.knot_tol:
        two_cutoff = (NOT_IDENTIFIED,
                      "a knot sits at the edge of the observed range; regime unobserved")
    elif fit.no_interior:
        two_cutoff = FAIL, "no interior segment"
    else:
        two_cutoff = PASS, f"knots {fit.theta1:.6g}, {fit.theta2:.6g} interior"

    if card is None:
        slope_match = card_match = NOT_IDENTIFIED, NO_CARD
    else:
        # slope-match: override-robust slope against the card's omega_b / c; an
        # identified scan estimates it also on a degenerate fit (never paid)
        s, est = card.interior_slope, override.slope_refit if override.identified else fit.s
        if not override.identified and (fit.degenerate or fit.no_interior):
            why = "no slope estimate" if fit.degenerate else "no interior segment"
            slope_match = NOT_IDENTIFIED, why
        else:
            slope_match = (FAIL if _slope_moved(est, s) else PASS,
                           f"estimate {est:.6g} vs card {s:.6g} (rel dev {abs(est - s) / s:.2%})")
        # card-match: fitted knots against the published cutoffs, within knot_tol
        cut = cutoffs(card)
        if fit.degenerate:
            card_match = NOT_IDENTIFIED, "degenerate fit"
        elif cut.theta_hi > hi_edge:
            card_match = NOT_IDENTIFIED, "published cap cutoff beyond observed shocks"
        else:
            d1, d2 = abs(fit.theta1 - cut.theta_lo), abs(fit.theta2 - cut.theta_hi)
            card_match = (PASS if max(d1, d2) <= fit.knot_tol else FAIL,
                          f"|d theta1|={d1:.3g}, |d theta2|={d2:.3g}, "
                          f"resolution {fit.grid_resolution:.3g}")
    checks = zip(("piecewise-linearity", "two-cutoff", "slope-match", "card-match"),
                 (linearity, two_cutoff, slope_match, card_match))
    return [SignatureCheck(name, *result) for name, result in checks]


def run_audit(
    episodes,
    params: MechanismParams,
    knot_grid: int = _KNOT_GRID,
    tol: float | None = None,
    episodes_after=None,
    announced=None,
    floor: EquityFloor | None = None,
) -> AuditReport:
    """Full audit: fit, classify against the published schedule (``params``
    raised to ``floor``), scan for cap overrides at the card knots, run
    signature checks, and (with a second regime) attribute the knot shift.
    An ``announced`` claim without ``episodes_after`` raises ParameterError."""
    if announced is not None and episodes_after is None:
        raise ParameterError("an announced change needs episodes_after (before and after)")
    schedule = Schedule(params, floor)
    card = schedule.card()
    fit = fit_tlc(episodes, t_admissible=params.T, knot_grid=knot_grid)
    if tol is None:
        tol = max(2.0 * fit.residual_se, 1e-9)
    labels = classify_against_schedule(episodes, schedule, tol)
    override = None if card is None else detect_override_shift(episodes, card)
    checks = _signature_checks(episodes, fit, card, override)

    attribution = None
    fit_after = None
    if episodes_after is not None:
        fit_after = fit_tlc(episodes_after, t_admissible=params.T, knot_grid=knot_grid)
        attribution = attribute_shift(
            fit, fit_after, params.omega_b, params.c, announced=announced
        )
    return AuditReport(
        fit=fit,
        labels=labels,
        tolerance=tol,
        checks=checks,
        override=override,
        schedule=schedule,
        attribution=attribution,
        fit_after=fit_after,
    )


def _fmt(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def render_audit_text(report: AuditReport) -> str:
    schedule = report.schedule
    rule = schedule.rule
    cut = cutoffs(rule)
    fit = report.fit
    lines = [
        "AUDIT REPORT",
        "============",
        f"episodes:         {fit.n_obs}",
        f"tolerance:        {_fmt(report.tolerance)}",
        "",
        "published schedule:",
        f"  theta_lo={_fmt(cut.theta_lo)} theta_hi={_fmt(cut.theta_hi)} "
        f"slope={_fmt(rule.interior_slope)} cap={_fmt(rule.b_bar)} T={_fmt(rule.T)}"
        + ("  [NO-BAILOUT]" if schedule.no_bailout else "")
        + (f"  floor={schedule.floor.name}" if schedule.floor is not None else ""),
        "",
        "fitted signature:",
        f"  s={_fmt(fit.s)} theta1={_fmt(fit.theta1)} theta2={_fmt(fit.theta2)} "
        f"cap_level={_fmt(fit.cap_level)}",
        f"  sse={_fmt(fit.sse)} rse={_fmt(fit.residual_se)} "
        f"degenerate={fit.degenerate} no_interior={fit.no_interior}",
        "",
        "regime counts:    " + " ".join(f"{k}={n}" for k, n in report.counts.items()),
        "",
        "signature checks:",
    ]
    for check in report.checks:
        lines.append(f"  {check.name:<22} {check.status:<15} {check.detail}")
    o = report.override
    if o is None:
        scan = f"not identified ({NO_CARD})"
    elif o.identified:
        scan = (f"dummy={_fmt(o.dummy)} |dummy|/rse={_fmt(o.dummy_over_rse)} "
                f"slope_refit={_fmt(o.slope_refit)} slope_moved={o.slope_moved} "
                f"(n_cap={o.n_cap_obs})")
    elif o.n_cap_obs < 2:
        scan = f"not identified ({o.n_cap_obs} episodes above the cap cutoff)"
    else:
        scan = "not identified (no episode between the cutoffs)"
    lines += ["", f"override scan:    {scan}"]
    a = report.attribution
    if a is not None:
        fa = report.fit_after
        lines += [
            "",
            "regime shift attribution:",
            f"  fitted after:   s={_fmt(fa.s)} theta1={_fmt(fa.theta1)} theta2={_fmt(fa.theta2)}",
            f"  delta theta1={_fmt(a.delta_theta1)} delta theta2={_fmt(a.delta_theta2)}",
            f"  implied delta omega_T={_fmt(a.implied_delta_omega_T)}"
            + ("" if a.omega_T_identified else "  [not identified: theta1 pinned at T]"),
            f"  implied delta b_bar={_fmt(a.implied_delta_b_bar)}",
            f"  bundle direction consistent: "
            f"{'n/a' if a.bundle_consistent is None else a.bundle_consistent}",
        ]
        if a.announced_match is not None:
            lines.append(
                f"  announced change match: {'pass' if a.announced_match else 'fail'}"
            )
    return "\n".join(lines) + "\n"


def run_sweep(plan):
    """Tabulate a ``configfile.SweepPlan``: (header, rows), one row per value
    with its rule's cutoffs, cap and knife-edge flag."""
    rows = []
    for v, rule in zip(plan.values, plan.rules):
        cut = cutoffs(rule)
        rows.append([v, cut.theta_lo, cut.theta_hi, rule.b_bar, int(knife_edge(rule))])
    return [plan.parameter, "theta_lo", "theta_hi", "b_bar", "knife_edge"], rows


def sweep_csv(header, rows) -> str:
    """CSV text of a sweep table (LF, repr floats); no field needs quoting."""
    lines = [",".join(header)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def render_allocation_text(names, problem, result, ordering) -> str:
    lines = [
        "ALLOCATION",
        "==========",
        f"treasury limit:   {_fmt(problem.treasury_limit)}",
        f"shadow price:     {_fmt(result.lambda_B)}",
        f"allocated total:  {_fmt(result.total)}",
        "",
        f"{'municipality':<16} {'theta':>10} {'bailout':>12} {'flag':>9}",
    ]
    for name, (p, theta), b, flag in zip(
        names, problem.municipalities, result.allocations, result.flags
    ):
        lines.append(f"{name:<16} {theta:>10.6g} {b:>12.6g} {flag:>9}")
    lines.append("")
    lines.append("cap-hit ordering (theta_hi ascending under the clearing price):")
    for idx, th in ordering:
        lines.append(f"  {names[idx]:<16} theta_hi={_fmt(th)}")
    return "\n".join(lines) + "\n"
