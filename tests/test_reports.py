"""Rule cards, audit reports, sweeps, and the SVG emitters."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from bailrule import (
    ConfigError,
    Episode,
    MechanismParams,
    ParameterError,
    Schedule,
    UniformThreshold,
    WeightProfile,
    consent_cap_analytic,
    cutoffs,
    knife_edge,
    tlc_policy_linear,
)
from bailrule.configfile import build_mechanism, build_sweep, parse_config
from bailrule.dataio import EpisodeTable
from bailrule.estimation import _REGIMES
from bailrule.reporting import (
    render_allocation_text,
    render_audit_text,
    run_audit,
    run_sweep,
    sweep_csv,
)
from bailrule.rulecard import card_from_json, card_to_json, make_rule_card, render_card_text
from bailrule.svgplot import REGIME_COLORS, line_chart, scatter_chart

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


@pytest.mark.parametrize("epoch, stamp", [
    ("-62135596800", "0001-01-01T00:00:00Z"),  # strftime's %Y wrote "1-01-01"
    ("-59011459200", "0100-01-01T00:00:00Z"),
    ("253402300799", "9999-12-31T23:59:59Z"),
])
def test_card_timestamp_pads_the_year(monkeypatch, epoch, stamp):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    card = make_rule_card(Schedule(CANON), config_sha256="00" * 32, config_path="x.cfg")
    assert card.timestamp == stamp


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


STEEP = MechanismParams(2, 0.01, 1, T=0.1, b_bar=0.5, theta_bar=3)  # cutoffs 0.5, 0.5025


def check_of(report, name):
    return next((c.status, c.detail) for c in report.checks if c.name == name)


def rule_episodes(params, lo, hi, n):
    return [Episode(float(t), tlc_policy_linear(float(t), params))
            for t in np.linspace(lo, hi, n)]


def test_two_cutoff_not_identified_at_an_observed_range_edge():
    # no shock below theta_lo = 0.5: theta1 sits at or below the lowest one
    report = run_audit(rule_episodes(CANON, 0.8, 3, 120), CANON)
    assert report.fit.theta1 <= 0.8
    assert check_of(report, "two-cutoff") == (
        "not-identified", "a knot sits at the edge of the observed range; regime unobserved")


def test_card_match_not_identified_beyond_observed_shocks():
    # no shock reaches theta_hi = 1.5, so the cap knot is not observed
    report = run_audit(rule_episodes(CANON, 0, 1.3, 120), CANON)
    assert check_of(report, "card-match") == (
        "not-identified", "published cap cutoff beyond observed shocks")


def test_two_cutoff_fails_without_an_interior_segment():
    # the steep rule's interior segment (0.0025 wide) is narrower than the knot grid
    report = run_audit(rule_episodes(STEEP, 0, 3, 2000), STEEP)
    assert 0 < report.fit.theta2 - report.fit.theta1 <= report.fit.grid_resolution
    assert check_of(report, "two-cutoff") == ("fail", "no interior segment")


def test_no_interior_agrees_with_two_cutoff():
    # no_interior tested theta1 == theta2, so the report printed
    # no_interior=False above "two-cutoff fail no interior segment"
    report = run_audit(rule_episodes(STEEP, 0, 3, 2000), STEEP)
    text = render_audit_text(report)
    assert report.fit.no_interior and report.failed_checks == ["two-cutoff"]
    assert "no_interior=True" in text
    assert "no interior segment" in text


def test_override_scan_not_identified_without_an_interior_episode():
    # with no shock in (theta_lo, theta_hi] the hinge is (theta_hi - theta_lo)
    # times the cap dummy on every row, and lstsq split the two at will:
    # dummy=0.5, |dummy|/rse=9.8e15, slope_refit=0.00125, slope-match fail
    report = run_audit(rule_episodes(STEEP, 0, 3, 400), STEEP)
    o = report.override
    assert not o.identified and o.n_cap_obs > 2 and o.n_interior_obs == 0
    assert o.dummy is None and o.slope_refit is None
    assert report.fit.no_interior
    assert report.failed_checks == ["two-cutoff"]
    slope_match = next(c for c in report.checks if c.name == "slope-match")
    assert (slope_match.status, slope_match.detail) == ("not-identified", "no interior segment")
    text = render_audit_text(report)
    assert "override scan:    not identified (no episode between the cutoffs)\n" in text


def test_never_paid_history_fails_slope_match():
    # no payout anywhere: the fit is degenerate, but the scan at the card's
    # knots is identified and refits a slope of 0 against the card's 0.5
    theta = np.random.default_rng(9).uniform(0, 3, 2000)
    report = run_audit(EpisodeTable(theta, np.zeros_like(theta)), CANON)
    assert report.fit.degenerate and report.override.identified
    assert report.override.slope_refit == 0.0
    assert check_of(report, "slope-match") == ("fail", "estimate 0 vs card 0.5 (rel dev 100.00%)")
    assert check_of(report, "card-match") == ("not-identified", "degenerate fit")
    assert report.failed_checks == ["slope-match"]
    # with no shock above the cap cutoff the scan is not identified either
    low = theta[theta < 1.4]
    report = run_audit(EpisodeTable(low, np.zeros_like(low)), CANON)
    assert not report.override.identified
    assert check_of(report, "slope-match") == ("not-identified", "no slope estimate")
    assert report.failed_checks == []


def test_announced_claim_without_a_second_regime_is_refused():
    # the claim was dropped: attribution None, and nothing said
    with pytest.raises(ParameterError, match="episodes_after"):
        run_audit(rule_episodes(CANON, 0, 3, 50), CANON, announced=(0.4, 0.0))


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


#: BASE with the cap derived from a legislature, as tau and w_B sweeps need
LEG = BASE.replace("b_bar = 0.5\n", "") + """
[legislature]
w_beneficiary = 0.5
tau = 0.25
h_lo = 0.0
h_hi = 2.0
"""


def column(rows, i):
    return [r[i] for r in rows]


def test_sweep_omega_T_slope():
    plan = build_sweep(parse_config(BASE + "\n[sweep]\nparameter = omega_T\nstart = 0.5\nstop = 2.0\nsteps = 7\n"))
    header, rows = run_sweep(plan)
    hi = column(rows, header.index("theta_hi"))
    xs = column(rows, 0)
    slopes = np.diff(hi) / np.diff(xs)
    assert slopes == pytest.approx([1 / CANON.omega_b] * (len(xs) - 1))


def test_sweep_cap_slope():
    plan = build_sweep(parse_config(BASE + "\n[sweep]\nparameter = b_bar\nstart = 0.1\nstop = 1.0\nsteps = 10\n"))
    header, rows = run_sweep(plan)
    hi = column(rows, header.index("theta_hi"))
    slopes = np.diff(hi) / np.diff(column(rows, 0))
    assert slopes == pytest.approx([CANON.c / CANON.omega_b] * (len(rows) - 1))


def test_sweep_tau_hits_zero_at_bloc_weight():
    plan = build_sweep(parse_config(LEG + "\n[sweep]\nparameter = tau\nstart = 0.1\nstop = 0.9\nsteps = 17\n"))
    header, rows = run_sweep(plan)
    xs = np.array(column(rows, 0))
    caps = np.array(column(rows, header.index("b_bar")))

    def cap_at(tau):
        return caps[int(np.argmin(np.abs(xs - tau)))]

    assert cap_at(0.50) == pytest.approx(0.0)  # tau = w_B exactly, H^-1(0) = 0
    assert cap_at(0.55) == 0.0                  # beyond the bloc weight
    assert cap_at(0.45) > 0.0


def test_sweep_tau_without_profile_is_error():
    with pytest.raises(ConfigError, match="legislature"):
        build_sweep(parse_config(BASE + "\n[sweep]\nparameter = tau\nstart = 0.1\nstop = 0.9\nsteps = 3\n"))


def test_coupled_sweep_refused_on_bundle_violation():
    # omega_T rising while the cap also rises breaks the institutional bundle
    with pytest.raises(ConfigError, match="together"):
        build_sweep(parse_config(
            BASE + "\n[sweep]\nparameter = omega_T\nstart = 0.5\nstop = 1.0\nsteps = 3\n"
            "b_bar_start = 0.2\nb_bar_stop = 0.6\n"
        ))


def test_coupled_sweep_moves_the_cap_along_its_schedule():
    plan = build_sweep(parse_config(
        BASE + "\n[sweep]\nparameter = omega_T\nstart = 0.5\nstop = 1.5\nsteps = 5\n"
        "b_bar_start = 0.6\nb_bar_stop = 0.2\n"
    ))
    header, rows = run_sweep(plan)
    assert column(rows, header.index("b_bar")) == [0.6 + (0.2 - 0.6) * i / 4 for i in range(5)]
    for omega_T, lo, hi, cap, _ in rows:
        cut = cutoffs(replace(CANON, omega_T=omega_T, b_bar=cap))
        assert (lo, hi) == (cut.theta_lo, cut.theta_hi)


def test_sweep_w_B_goes_through_the_consent_cap():
    profile = WeightProfile(0.5, 0.25, UniformThreshold(0, 2), T=CANON.T)  # LEG's legislature
    plan = build_sweep(parse_config(LEG + "\n[sweep]\nparameter = w_B\nstart = 0.2\nstop = 1.0\nsteps = 9\n"))
    header, rows = run_sweep(plan)
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
    # the refusal names the [sweep] line, then says what it always said
    with pytest.raises(ConfigError, match=r"^<config>:\d+: " + message.removeprefix("^")):
        build_sweep(parse_config(
            LEG + f"\n[sweep]\nparameter = {parameter}\nstart = {start}\nstop = 0.9\nsteps = 3\n"
        ))


MECHANISM = {"omega_b": "2.0", "c": "4.0", "omega_T": "1.0", "T": "0.1", "theta_bar": "3.0"}
UNIFORM_H = {"w_beneficiary": "0.6", "tau": "0.3", "h_lo": "0.0", "h_hi": "2.0"}
DISCRETE_H = {"w_beneficiary": "0.6", "tau": "0.3", "h_family": "discrete",
              "h_atoms": "0.5, 1.0, 3.0", "h_masses": "0.2, 0.5, 0.3"}
SWEEP_CONFIGS = {
    "stated cap": {"mechanism": {**MECHANISM, "b_bar": "0.5"}},
    "stated cap + legislature": {"mechanism": {**MECHANISM, "b_bar": "0.5"},
                                 "legislature": UNIFORM_H},
    "derived cap, uniform H": {"mechanism": MECHANISM, "legislature": UNIFORM_H},
    "derived cap, discrete H": {"mechanism": MECHANISM, "legislature": DISCRETE_H},
}
SWEEPS = {
    "omega_T": {"parameter": "omega_T", "start": "0.5", "stop": "2.0", "steps": "4"},
    "b_bar": {"parameter": "b_bar", "start": "0.1", "stop": "1.0", "steps": "4"},
    "T": {"parameter": "T", "start": "0.1", "stop": "0.5", "steps": "5"},
    "tau": {"parameter": "tau", "start": "0.3", "stop": "0.5", "steps": "3"},
    "w_B": {"parameter": "w_B", "start": "0.4", "stop": "0.8", "steps": "3"},
    "coupled": {"parameter": "omega_T", "start": "0.5", "stop": "1.5", "steps": "3",
                "b_bar_start": "0.6", "b_bar_stop": "0.2"},
}
#: the config key each sweep parameter sets
SWEPT_KEY = {"omega_T": ("mechanism", "omega_T"), "b_bar": ("mechanism", "b_bar"),
             "T": ("mechanism", "T"), "tau": ("legislature", "tau"),
             "w_B": ("legislature", "w_beneficiary")}


def config_text(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()) + "\n"
                   for name, entries in sections.items())


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize("config", SWEEP_CONFIGS)
def test_sweep_row_is_the_rule_the_config_resolves(config, sweep):
    # the sweep derived its own rules: a T sweep kept the cap derived at the
    # config's T, and a tau sweep derived a cap the stated-cap rule lacks
    sections = {**SWEEP_CONFIGS[config], "sweep": SWEEPS[sweep]}
    text = config_text(sections)
    parameter = SWEEPS[sweep]["parameter"]
    if parameter in ("tau", "w_B") and "b_bar" in sections["mechanism"]:
        line = text.split("\n").index(f"parameter = {parameter}") + 1
        with pytest.raises(ConfigError, match=rf"^<config>:{line}: sweeping {parameter} needs"):
            build_sweep(parse_config(text))
        return
    header, rows = run_sweep(build_sweep(parse_config(text)))
    assert len(rows) == int(SWEEPS[sweep]["steps"])
    for v, lo, hi, cap, knife in rows:
        name, key = SWEPT_KEY[parameter]
        at_v = {**sections, name: {**sections[name], key: repr(v)}}
        if sweep == "coupled":
            at_v["mechanism"] = {**at_v["mechanism"], "b_bar": repr(cap)}
        rule = build_mechanism(parse_config(config_text(at_v)))
        cut = cutoffs(rule)
        assert (lo, hi, cap, knife) == (cut.theta_lo, cut.theta_hi, rule.b_bar,
                                        int(knife_edge(rule)))


def test_sweep_csv_matches_csv_module_bytes():
    # the join writes what csv.writer wrote: no sweep field needs quoting
    import csv
    import io

    for section in ("parameter = omega_T\nstart = 0\nstop = 6\nsteps = 7\n",
                    "parameter = tau\nstart = 0.1\nstop = 0.9\nsteps = 9\n",
                    "parameter = T\nstart = 0\nstop = 3\nsteps = 4\n"):
        header, rows = run_sweep(build_sweep(parse_config(LEG + "\n[sweep]\n" + section)))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        assert sweep_csv(header, rows) == buf.getvalue()


def test_sweep_csv_shape():
    plan = build_sweep(parse_config(BASE + "\n[sweep]\nparameter = omega_T\nstart = 0\nstop = 6\nsteps = 4\n"))
    header, rows = run_sweep(plan)
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


def test_scatter_legend_lists_the_regimes_in_order():
    svg = scatter_chart([(1.0, 0.25, "interior")], fitted=[(0, 0)], published=[(0, 0)])
    labels = re.findall(r'font-size="10" fill="#333333">([^<]*)</text>', svg)
    assert labels[labels.index("published") + 1:] == list(_REGIMES)
    assert list(REGIME_COLORS) == [*_REGIMES, None]


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
