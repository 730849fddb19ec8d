"""Audit assembly and text/CSV rendering for the command-line front end.

The audit pipeline deliberately separates two roles:

* the *fit* (free re-estimation of the signature from the data) answers
  "does the payout history look threshold-linear-cap, and does its shape
  match the published card?";
* *compliance* (per-episode classification and the override scan) is judged
  against the published schedule itself, because a free refit absorbs
  systematic overrides into its own knots and would hide exactly the
  behavior an audit exists to catch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, ParameterError
from .estimation import (
    OverrideReport,
    ShiftAttribution,
    TlcFit,
    _as_arrays,
    attribute_shift,
    classify_against_schedule,
    detect_override_shift,
    fit_tlc,
    schedule_as_fit,
)
from .policy import MechanismParams, cutoffs, knife_edge
from .voting import WeightProfile, bundle_check, consent_cap_analytic

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

#: Relative slope deviation considered consistent with the published card.
SLOPE_MATCH_RTOL = 0.05
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
    counts: dict
    tolerance: float
    checks: list
    override: OverrideReport
    attribution: ShiftAttribution | None = None
    fit_after: TlcFit | None = None

    @property
    def any_check_failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)


def _counts(labels) -> dict:
    out = {"zero": 0, "interior": 0, "cap": 0, "override": 0}
    for lab in labels:
        out[lab] += 1
    return out


def _signature_checks(
    episodes, fit: TlcFit, params: MechanismParams, override: OverrideReport
) -> list:
    checks = []
    theta, b = _as_arrays(episodes)
    tss = float(((b - b.mean()) ** 2).sum())

    # piecewise-linearity: the hinge fit should explain nearly everything
    if tss <= 1e-20 or fit.degenerate:
        checks.append(SignatureCheck("piecewise-linearity", NOT_IDENTIFIED, "no payout variance"))
    else:
        r2 = 1.0 - fit.sse / tss
        status = PASS if r2 >= LINEARITY_R2 else FAIL
        checks.append(SignatureCheck("piecewise-linearity", status, f"R^2={r2:.4f}"))

    # two-cutoff: both knots strictly inside the observed shock range
    res = max(fit.grid_resolution, 1e-12)
    lo_edge, hi_edge = float(theta.min()), float(theta.max())
    if fit.degenerate:
        checks.append(SignatureCheck("two-cutoff", NOT_IDENTIFIED, "degenerate fit"))
    elif fit.theta1 <= lo_edge + res or fit.theta2 >= hi_edge - res:
        checks.append(
            SignatureCheck(
                "two-cutoff",
                NOT_IDENTIFIED,
                "a knot sits at the edge of the observed range; regime unobserved",
            )
        )
    elif fit.theta2 - fit.theta1 <= res:
        checks.append(SignatureCheck("two-cutoff", FAIL, "no interior segment"))
    else:
        checks.append(
            SignatureCheck(
                "two-cutoff", PASS, f"knots {fit.theta1:.6g}, {fit.theta2:.6g} interior"
            )
        )

    # slope-match: override-robust slope against the card's omega_b / c
    card_slope = params.interior_slope
    slope_est = override.slope_refit if override.identified else fit.s
    if fit.degenerate or slope_est is None:
        checks.append(SignatureCheck("slope-match", NOT_IDENTIFIED, "no slope estimate"))
    else:
        rel = abs(slope_est - card_slope) / card_slope
        status = PASS if rel <= SLOPE_MATCH_RTOL else FAIL
        checks.append(
            SignatureCheck(
                "slope-match",
                status,
                f"estimate {slope_est:.6g} vs card {card_slope:.6g} (rel dev {rel:.2%})",
            )
        )

    # card-match: fitted knots against the published cutoffs, at grid resolution
    cut = cutoffs(params)
    if fit.degenerate:
        checks.append(SignatureCheck("card-match", NOT_IDENTIFIED, "degenerate fit"))
    elif cut.theta_hi > hi_edge:
        checks.append(
            SignatureCheck(
                "card-match", NOT_IDENTIFIED, "published cap cutoff beyond observed shocks"
            )
        )
    else:
        d1 = abs(fit.theta1 - cut.theta_lo)
        d2 = abs(fit.theta2 - cut.theta_hi)
        status = PASS if max(d1, d2) <= fit.grid_resolution else FAIL
        checks.append(
            SignatureCheck(
                "card-match",
                status,
                f"|d theta1|={d1:.3g}, |d theta2|={d2:.3g}, resolution {fit.grid_resolution:.3g}",
            )
        )
    return checks


def run_audit(
    episodes,
    params: MechanismParams,
    knot_grid: int = 201,
    tol: float | None = None,
    episodes_after=None,
    announced=None,
) -> AuditReport:
    """Full audit: fit, classify against the published schedule, scan for
    cap overrides at the card knots, run signature checks, and (with a
    second regime) attribute the knot shift."""
    fit = fit_tlc(episodes, t_admissible=params.T, knot_grid=knot_grid)
    if tol is None:
        tol = max(2.0 * fit.residual_se, 1e-9)
    labels = classify_against_schedule(episodes, params, tol)
    override = detect_override_shift(episodes, schedule_as_fit(params))
    checks = _signature_checks(episodes, fit, params, override)

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
        counts=_counts(labels),
        tolerance=tol,
        checks=checks,
        override=override,
        attribution=attribution,
        fit_after=fit_after,
    )


def _fmt(x: float | None) -> str:
    if x is None:
        return "n/a"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.6g}"


def render_audit_text(report: AuditReport, params: MechanismParams) -> str:
    cut = cutoffs(params)
    fit = report.fit
    lines = [
        "AUDIT REPORT",
        "============",
        f"episodes:         {fit.n_obs}",
        f"tolerance:        {_fmt(report.tolerance)}",
        "",
        "published schedule:",
        f"  theta_lo={_fmt(cut.theta_lo)} theta_hi={_fmt(cut.theta_hi)} "
        f"slope={_fmt(params.interior_slope)} cap={_fmt(params.b_bar)} T={_fmt(params.T)}"
        + ("  [NO-BAILOUT]" if knife_edge(params) else ""),
        "",
        "fitted signature:",
        f"  s={_fmt(fit.s)} theta1={_fmt(fit.theta1)} theta2={_fmt(fit.theta2)} "
        f"cap_level={_fmt(fit.cap_level)}",
        f"  sse={_fmt(fit.sse)} rse={_fmt(fit.residual_se)} "
        f"degenerate={fit.degenerate} no_interior={fit.no_interior}",
        "",
        "regime counts:    "
        + " ".join(f"{k}={report.counts[k]}" for k in ("zero", "interior", "cap", "override")),
        "",
        "signature checks:",
    ]
    for check in report.checks:
        lines.append(f"  {check.name:<22} {check.status:<15} {check.detail}")
    o = report.override
    lines.append("")
    if o.identified:
        lines.append(
            f"override scan:    dummy={_fmt(o.dummy)} |dummy|/rse={_fmt(o.dummy_over_rse)} "
            f"slope_refit={_fmt(o.slope_refit)} slope_moved={o.slope_moved} "
            f"(n_cap={o.n_cap_obs})"
        )
    else:
        lines.append(
            f"override scan:    not identified ({o.n_cap_obs} episodes above the cap cutoff)"
        )
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


def run_sweep(plan, params: MechanismParams, profile: WeightProfile | None = None):
    """Tabulate cutoffs/cap/knife-edge across a parameter sweep.

    Returns (header, rows).  Mechanism sweeps vary params directly; tau/w_B
    sweeps go through the consent-cap formula and need a legislature profile.
    A coupled omega_T + cap sweep must satisfy the bundle direction at every
    step (raising the political cost must not loosen the cap) or is refused.
    """
    via_cap = {"tau": "tau", "w_B": "w_beneficiary"}.get(plan.parameter)
    if via_cap is not None and profile is None:
        raise ConfigError(f"sweeping {plan.parameter} needs a [legislature] section")
    caps = plan.coupled_b_bar
    if caps is not None:
        steps = list(zip(plan.values, caps))
        for (v0, c0), (v1, c1) in zip(steps, steps[1:]):
            if not bundle_check((v0, c0), (v1, c1)):
                raise ConfigError(
                    "coupled sweep refused: step omega_T "
                    f"{v0:.6g} -> {v1:.6g} raises the political cost while "
                    f"loosening the cap {c0:.6g} -> {c1:.6g}; institutional "
                    "shifts must move these together"
                )
    rows = []
    for i, v in enumerate(plan.values):
        try:
            if via_cap is not None:
                fields = {"b_bar": consent_cap_analytic(replace(profile, **{via_cap: v}))}
            else:
                fields = {plan.parameter: v}
                if caps is not None:
                    fields["b_bar"] = caps[i]
            p_v = replace(params, **fields)
        except ParameterError as exc:
            raise ConfigError(
                f"sweep value {v} invalid for {plan.parameter}: {exc}"
            ) from None
        cut = cutoffs(p_v)
        rows.append([v, cut.theta_lo, cut.theta_hi, p_v.b_bar, int(knife_edge(p_v))])
    header = [plan.parameter, "theta_lo", "theta_hi", "b_bar", "knife_edge"]
    return header, rows


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
