"""Reading a rule back out of the data, and catching quiet deviations.

A published rule card promises a threshold-linear-cap schedule.  Episode
data (shock, transfer) lets an auditor refit the signature, compare it to
the card, and scan the cap region for overrides.

Run:  python3 demos/04_estimation_audit.py
"""

from bailrule import (
    MechanismParams,
    Schedule,
    UniformShock,
    attribute_shift,
    cutoffs,
    fit_tlc,
)
from bailrule.floors import simulate_episodes
from bailrule.reporting import run_audit

params = MechanismParams(omega_b=2.0, c=4.0, omega_T=1.0, T=0.1, b_bar=0.5, theta_bar=3.0)
cut = cutoffs(params)
# histories come from the generator behind `bailrule simulate`, here with
# uniform shocks: simulate_episodes(schedule, shocks, n, seed, noise=...)
shocks = UniformShock(params.theta_bar)


# --- a clean regime audits clean ---------------------------------------------

# tol is the auditor's call: 5x the measurement noise keeps honest scatter
# out of the override bucket
clean = simulate_episodes(Schedule(params), shocks, 400, 1, noise=0.01)
report = run_audit(clean, params, tol=0.05)
print(f"fitted signature: s = {report.fit.s:.4f}, "
      f"knots = ({report.fit.theta1:.4f}, {report.fit.theta2:.4f})")
print(f"published card:   slope {params.interior_slope}, "
      f"cutoffs ({cut.theta_lo}, {cut.theta_hi})")
print("episode labels:", dict(report.counts))
for check in report.checks:
    print(f"  [{check.status:>4}] {check.name}: {check.detail}")
print()

# --- cap-region overrides leave a crisp fingerprint ---------------------------

shifted = simulate_episodes(Schedule(params), shocks, 400, 2, noise=0.01, override_shift=0.2)
report2 = run_audit(shifted, params, tol=0.05)
print("after injecting +0.2 above the cap cutoff:")
print("  labels:", dict(report2.counts))
ov = report2.override
print(f"  override dummy = {ov.dummy:.4f}  (t-ratio {ov.dummy_over_rse:.1f})")
print(f"  interior slope refit = {ov.slope_refit:.4f}  (moved: {ov.slope_moved})")
print()

# --- attributing a regime change ----------------------------------------------

# Year 2 raises the political cost by 0.4 — say a salience shock — while the
# cap stays put.  The knot shifts identify which lever moved.
after_params = MechanismParams(2.0, 4.0, 1.4, 0.1, 0.5, 3.0)
before = simulate_episodes(Schedule(params), shocks, 500, 3, noise=0.01)
after = simulate_episodes(Schedule(after_params), shocks, 500, 4, noise=0.01)
fit_before = fit_tlc(before, t_admissible=params.T)
fit_after = fit_tlc(after, t_admissible=params.T)
attr = attribute_shift(fit_before, fit_after, params.omega_b, params.c,
                       announced=(0.4, 0.0))
print("two-regime attribution:")
print(f"  implied d omega_T = {attr.implied_delta_omega_T:+.4f}   (announced +0.4)")
print(f"  implied d b_bar   = {attr.implied_delta_b_bar:+.4f}   (announced +0.0)")
print(f"  consistent with announcement: {attr.announced_match}")
