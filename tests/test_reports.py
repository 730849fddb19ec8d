"""Rule cards, audit reports, sweeps, and the SVG emitters."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bailrule import (
    ConfigError,
    Episode,
    MechanismParams,
    Schedule,
    UniformThreshold,
    WeightProfile,
    consent_cap_analytic,
    cutoffs,
    knife_edge,
    tlc_policy_linear,
)
from bailrule.configfile import build_sweep, parse_config
from bailrule.reporting import (
    render_allocation_text,
    render_audit_text,
    run_audit,
    run_sweep,
    sweep_csv,
)
from bailrule.rulecard import card_from_json, card_to_json, make_rule_card, render_card_text
from bailrule.svgplot import line_chart, scatter_chart

CANON = MechanismParams(2, 4, 1, T=0.1, b_bar=0.5, theta_bar=3)


# --- rule card -------------------------------------------------------------

def test_card_fields_match_cutoffs():
    card = make_rule_card(Schedule(CANON), config_sha256="ab" * 32, config_path="x.cfg")
    assert card.theta_lo == 0.5
    assert card.theta_hi == 1.5
    assert card.interior_slope == 0.5
    assert not card.no_bailout


def test_card_json_round_trip_exact():
    card = make_rule_card(Schedule(CANON), config_sha256="ab" * 32, config_path="x.cfg")
    back = card_from_json(card_to_json(card))
    assert back == card


def test_card_json_handles_infinite_cap():
    p = MechanismParams(2, 4, 1, T=0.1, b_bar=math.inf, theta_bar=3)
    card = make_rule_card(Schedule(p), config_sha256="cd" * 32, config_path="y.cfg")
    back = card_from_json(card_to_json(card))
    assert back.b_bar == math.inf
    assert back.theta_hi == math.inf


def test_no_bailout_stamp():
    dead = MechanismParams(1, 1, omega_T=5, T=0, b_bar=1, theta_bar=2)
    card = make_rule_card(Schedule(dead), config_sha256="ee" * 32, config_path="z.cfg")
    assert card.no_bailout
    assert "NO-BAILOUT" in render_card_text(card)


def test_card_timestamp_honors_source_date_epoch(monkeypatch, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[mechanism]\n")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "946684800")
    card = make_rule_card(Schedule(CANON), config_sha256="00" * 32, config_path=str(cfg))
    assert card.timestamp == "2000-01-01T00:00:00Z"


@pytest.mark.parametrize("epoch", ["99999999999999", "-99999999999999", "1" + "0" * 30])
def test_card_timestamp_refuses_an_epoch_out_of_range(monkeypatch, epoch):
    # fromtimestamp's ValueError or OverflowError used to escape as a traceback
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    with pytest.raises(ConfigError, match=f"^SOURCE_DATE_EPOCH .* got '{epoch}'$"):
        make_rule_card(Schedule(CANON), config_sha256="00" * 32, config_path="x.cfg")


# --- audits ----------------------------------------------------------------

def clean_episodes(n=120):
    th = np.linspace(0, 3, n)
    return [Episode(float(t), tlc_policy_linear(float(t), CANON)) for t in th]


def test_audit_counts_sum_and_checks_pass():
    eps = clean_episodes()
    report = run_audit(eps, CANON)
    assert sum(report.counts.values()) == len(eps)
    assert report.counts["override"] == 0
    assert not report.any_check_failed
    text = render_audit_text(report)
    assert "signature checks" in text
    for name in ("piecewise-linearity", "two-cutoff", "slope-match", "card-match"):
        assert name in text


@pytest.mark.parametrize("noise", [0.0, 0.02, 0.3])
def test_linearity_r2_matches_the_row_loop(noise):
    # the columnar sum of squares prints the R^2 that the per-row sums printed
    rng = np.random.default_rng(7)
    eps = [Episode(e.theta, max(e.b + rng.normal(0.0, noise), 0.0)) for e in clean_episodes(400)]
    report = run_audit(eps, CANON)
    b = [e.b for e in eps]
    mean_b = sum(b) / len(b)
    tss = sum((v - mean_b) ** 2 for v in b)
    check = next(c for c in report.checks if c.name == "piecewise-linearity")
    assert check.detail == f"R^2={1.0 - report.fit.sse / tss:.4f}"


def test_audit_flags_override_contamination():
    eps = clean_episodes(200)
    hot = [
        Episode(e.theta, e.b + 0.2) if e.theta > 1.5 else e
        for e in eps
    ]
    report = run_audit(hot, CANON, tol=0.05)
    assert report.counts["override"] > 0
    assert report.override.identified
    assert report.override.dummy == pytest.approx(0.2, abs=0.02)


def test_two_regime_audit_attribution_rendered():
    p1 = MechanismParams(2, 4, 1.4, T=0.1, b_bar=0.5, theta_bar=3)
    before = clean_episodes(150)
    after = [Episode(float(t), tlc_policy_linear(float(t), p1))
             for t in np.linspace(0, 3, 150)]
    report = run_audit(before, CANON, episodes_after=after, announced=(0.4, 0.0))
    assert report.attribution is not None
    assert report.attribution.implied_delta_omega_T == pytest.approx(0.4, abs=0.05)
    text = render_audit_text(report)
    assert "announced" in text


# --- sweeps ----------------------------------------------------------------

BASE = """\
[mechanism]
omega_b = 2.0
c = 4.0
omega_T = 1.0
T = 0.1
b_bar = 0.5
theta_bar = 3.0
"""


def column(rows, i):
    return [r[i] for r in rows]


def test_sweep_omega_T_slope():
    plan = build_sweep(parse_config(BASE + "\n[sweep]\nparameter = omega_T\nstart = 0.5\nstop = 2.0\nsteps = 7\n"))
    header, rows = run_sweep(plan, CANON)
    hi = column(rows, header.index("theta_hi"))
    xs = column(rows, 0)
    slopes = np.diff(hi) / np.diff(xs)
    assert slopes == pytest.approx([1 / CANON.omega_b] * (len(xs) - 1))


def test_sweep_cap_slope():
    plan = build_sweep(parse_config(BASE + "\n[sweep]\nparameter = b_bar\nstart = 0.1\nstop = 1.0\nsteps = 10\n"))
    header, rows = run_sweep(plan, CANON)
    hi = column(rows, header.index("theta_hi"))
    slopes = np.diff(hi) / np.diff(column(rows, 0))
    assert slopes == pytest.approx([CANON.c / CANON.omega_b] * (len(rows) - 1))


def test_sweep_tau_hits_zero_at_bloc_weight():
    profile = WeightProfile(0.5, 0.25, UniformThreshold(0, 2), T=1.0)
    plan = build_sweep(parse_config(BASE + "\n[sweep]\nparameter = tau\nstart = 0.1\nstop = 0.9\nsteps = 17\n"))
    header, rows = run_sweep(plan, CANON, profile)
    xs = np.array(column(rows, 0))
    caps = np.array(column(rows, header.index("b_bar")))

    def cap_at(tau):
        return caps[int(np.argmin(np.abs(xs - tau)))]

    assert cap_at(0.50) == pytest.approx(0.0)  # tau = w_B exactly, H^-1(0) = 0
    assert cap_at(0.55) == 0.0                  # beyond the bloc weight
    assert cap_at(0.45) > 0.0


def test_sweep_tau_without_profile_is_error():
    plan = build_sweep(parse_config(BASE + "\n[sweep]\nparameter = tau\nstart = 0.1\nstop = 0.9\nsteps = 3\n"))
    with pytest.raises(ConfigError, match="legislature"):
        run_sweep(plan, CANON, None)


def test_coupled_sweep_refused_on_bundle_violation():
    # omega_T rising while the cap also rises breaks the institutional bundle
    plan = build_sweep(parse_config(
        BASE + "\n[sweep]\nparameter = omega_T\nstart = 0.5\nstop = 1.0\nsteps = 3\n"
        "b_bar_start = 0.2\nb_bar_stop = 0.6\n"
    ))
    with pytest.raises(ConfigError, match="together"):
        run_sweep(plan, CANON)


def test_coupled_sweep_moves_the_cap_along_its_schedule():
    plan = build_sweep(parse_config(
        BASE + "\n[sweep]\nparameter = omega_T\nstart = 0.5\nstop = 1.5\nsteps = 5\n"
        "b_bar_start = 0.6\nb_bar_stop = 0.2\n"
    ))
    header, rows = run_sweep(plan, CANON)
    assert column(rows, header.index("b_bar")) == list(plan.coupled_b_bar)
    for omega_T, lo, hi, cap, _ in rows:
        cut = cutoffs(replace(CANON, omega_T=omega_T, b_bar=cap))
        assert (lo, hi) == (cut.theta_lo, cut.theta_hi)


def test_sweep_w_B_goes_through_the_consent_cap():
    profile = WeightProfile(0.5, 0.25, UniformThreshold(0, 2), T=1.0)
    plan = build_sweep(parse_config(BASE + "\n[sweep]\nparameter = w_B\nstart = 0.2\nstop = 1.0\nsteps = 9\n"))
    header, rows = run_sweep(plan, CANON, profile)
    assert header[0] == "w_B"
    for w_B, lo, hi, cap, knife in rows:
        assert cap == consent_cap_analytic(replace(profile, w_beneficiary=w_B))
        p_v = replace(CANON, b_bar=cap)
        cut = cutoffs(p_v)
        assert (lo, hi, knife) == (cut.theta_lo, cut.theta_hi, int(knife_edge(p_v)))
    caps = column(rows, 3)
    assert caps[0] == 0.0 and min(caps[1:]) > 0.0  # no cap while w_B < tau
    assert caps == sorted(caps)


@pytest.mark.parametrize(
    "parameter, start, message",
    [("tau", "0", r"^sweep value 0\.0 invalid for tau: tau must lie in \(0, 1\]"),
     ("w_B", "-0.5", r"^sweep value -0\.5 invalid for w_B: w_beneficiary must lie in"),
     ("omega_T", "-1", r"^sweep value -1\.0 invalid for omega_T: omega_T must be finite")],
)
def test_invalid_sweep_value_is_a_config_error(parameter, start, message):
    profile = WeightProfile(0.5, 0.25, UniformThreshold(0, 2), T=1.0)
    plan = build_sweep(parse_config(
        BASE + f"\n[sweep]\nparameter = {parameter}\nstart = {start}\nstop = 0.9\nsteps = 3\n"
    ))
    with pytest.raises(ConfigError, match=message):
        run_sweep(plan, CANON, profile)


def test_sweep_csv_matches_csv_module_bytes():
    # the join writes what csv.writer wrote: no sweep field needs quoting
    import csv
    import io

    profile = WeightProfile(0.5, 0.25, UniformThreshold(0, 2), T=1.0)
    for section in ("parameter = omega_T\nstart = 0\nstop = 6\nsteps = 7\n",
                    "parameter = tau\nstart = 0.1\nstop = 0.9\nsteps = 9\n",
                    "parameter = T\nstart = 0\nstop = 3\nsteps = 4\n"):
        header, rows = run_sweep(build_sweep(parse_config(BASE + "\n[sweep]\n" + section)),
                                 CANON, profile)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        assert sweep_csv(header, rows) == buf.getvalue()


def test_sweep_csv_shape():
    plan = build_sweep(parse_config(BASE + "\n[sweep]\nparameter = omega_T\nstart = 0\nstop = 6\nsteps = 4\n"))
    header, rows = run_sweep(plan, CANON)
    text = sweep_csv(header, rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(header)
    assert len(lines) == 5
    assert lines[-1].endswith(",1")  # knife-edge flag trips once omega_T >= omega_b * theta_bar


# --- svg -------------------------------------------------------------------

def test_scatter_chart_is_valid_svg():
    pts = [(0.5, 0.0, "zero"), (1.0, 0.25, "interior"), (2.0, 0.5, "cap")]
    svg = scatter_chart(pts, fitted=[(0, 0), (3, 0.5)], published=[(0, 0), (3, 0.5)])
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 3


def test_line_chart_skips_non_finite():
    svg = line_chart([0, 1, 2], [("y", [0.0, math.inf, 2.0])], xlabel="x")
    assert "inf" not in svg
    assert svg.count("<polyline") >= 1


def test_allocation_text_lists_municipalities():
    from bailrule import AllocationProblem, allocate, cap_ordering_report
    p = MechanismParams(1, 1, 0, T=0, b_bar=10, theta_bar=10)
    prob = AllocationProblem(((p, 1.0), (p, 2.0)), treasury_limit=1.0)
    res = allocate(prob)
    text = render_allocation_text(
        ["north", "south"], prob, res, cap_ordering_report(prob, res.lambda_B)
    )
    assert "north" in text and "south" in text
    assert "shadow price" in text
