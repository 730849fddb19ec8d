"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from bailrule import Episode, Schedule, TlcFit, cutoffs, fit_tlc, tlc_policy_linear
from bailrule.cli import main
from bailrule.configfile import build_floor, build_mechanism, parse_config
from bailrule.dataio import read_episodes
from bailrule.reporting import run_audit
from bailrule.rulecard import card_from_json

BASE = """\
[mechanism]
omega_b = 2.0
c = 4.0
omega_T = 1.0
T = 0.1
b_bar = 0.5
theta_bar = 3.0

[simulate]
n = 120
"""

ALLOC = """\
[treasury]
budget = 1.0

[municipality north]
omega_b = 1.0
c = 1.0
omega_T = 0.0
T = 0.0
b_bar = 10.0
theta_bar = 10.0
theta = 1.0

[municipality south]
omega_b = 1.0
c = 1.0
omega_T = 0.0
T = 0.0
b_bar = 10.0
theta_bar = 10.0
theta = 2.0
"""


@pytest.fixture
def base_cfg(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(BASE)
    return cfg


def run(args):
    return main([str(a) for a in args])


# --- rulecard --------------------------------------------------------------

def test_rulecard_artifacts(base_cfg, tmp_path):
    out = tmp_path / "out"
    assert run(["rulecard", "--config", base_cfg, "--out-dir", out]) == 0
    card = card_from_json((out / "rulecard.json").read_text())
    assert card.theta_lo == 0.5
    assert card.theta_hi == 1.5
    assert card.interior_slope == 0.5
    text = (out / "rulecard.txt").read_text()
    assert "theta_lo" in text


def test_rulecard_roundtrip_reproduces_cutoffs(base_cfg, tmp_path):
    out = tmp_path / "out"
    run(["rulecard", "--config", base_cfg, "--out-dir", out])
    card = card_from_json((out / "rulecard.json").read_text())
    p = build_mechanism(parse_config(BASE))
    cut = cutoffs(p)
    assert (card.theta_lo, card.theta_hi) == (cut.theta_lo, cut.theta_hi)


def test_rulecard_no_bailout_stamp(tmp_path):
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(BASE.replace("omega_T = 1.0", "omega_T = 7.0"))
    out = tmp_path / "out"
    assert run(["rulecard", "--config", cfg, "--out-dir", out]) == 0
    assert "NO-BAILOUT" in (out / "rulecard.txt").read_text()


def test_rulecard_from_legislature(tmp_path):
    cfg = tmp_path / "leg.cfg"
    cfg.write_text(
        "[mechanism]\nomega_b = 2.0\nc = 4.0\nomega_T = 1.0\nT = 0.3\ntheta_bar = 3.0\n"
        "\n[legislature]\nw_beneficiary = 0.5\ntau = 0.25\nh_family = uniform\n"
        "h_lo = 0.0\nh_hi = 2.0\n"
    )
    out = tmp_path / "out"
    assert run(["rulecard", "--config", cfg, "--out-dir", out]) == 0
    card = card_from_json((out / "rulecard.json").read_text())
    assert card.b_bar == pytest.approx(0.3)  # T * H^-1(1 - tau/w_B)
    assert card.tau == 0.25


PARALLEL = "\n[floor]\ntype = parallel\na = 0.1\n"
CROSSING = "\n[floor]\ntype = custom\ntheta_knots = 0.2, 1.0\nb_values = 0.1, 0.2\n"


def test_rulecard_with_floor(tmp_path):
    # the card used to ignore [floor]: the cutoffs of the unfloored rule, no note
    cases = [
        (BASE + PARALLEL, (0.3, 1.3), "floor parallel a=0.1: the cutoffs include it", False),
        (BASE + CROSSING, (0.5, 1.5), "two-cutoff card; the cutoffs are the unfloored", False),
        (BASE.replace("omega_T = 1.0", "omega_T = 7.0") + CROSSING, (3.5, 4.5), "custom", False),
        (BASE + "\n[floor]\ntype = parallel\na = -0.1\n", (0.5, 1.5), "the cutoffs include it", False),
        (BASE.replace("omega_T = 1.0", "omega_T = 7.0") + PARALLEL, (3.3, 4.3), "include", True),
    ]
    for i, (text, (lo, hi), note, dead) in enumerate(cases):
        cfg = tmp_path / f"fl{i}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"out{i}"
        assert run(["rulecard", "--config", cfg, "--out-dir", out]) == 0
        card = card_from_json((out / "rulecard.json").read_text())
        assert (card.theta_lo, card.theta_hi) == pytest.approx((lo, hi), abs=1e-12)
        assert note in card.note
        assert card.no_bailout is dead  # a custom floor pays where the rule is dead
        assert f"note:           {card.note}" in (out / "rulecard.txt").read_text()


def test_floor_above_cap_refused_by_every_command(tmp_path, capsys):
    cfg = tmp_path / "high.cfg"
    cfg.write_text(BASE + "\n[floor]\ntype = custom\ntheta_knots = 0, 3\nb_values = 0, 0.9\n")
    data = tmp_path / "eps.csv"
    data.write_text("theta,b\n0.5,0.0\n1.0,0.25\n1.5,0.5\n2.0,0.5\n2.5,0.5\n")
    for cmd in (["rulecard"], ["simulate"], ["audit", "--data", data]):
        assert run([*cmd, "--config", cfg, "--out-dir", tmp_path / "out"]) == 1
        assert "above the consent cap 0.5" in capsys.readouterr().err


def test_bad_config_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE.replace("c = 4.0", "c = -4.0"))
    assert run(["rulecard", "--config", cfg, "--out-dir", tmp_path]) == 1
    assert "error:" in capsys.readouterr().err


# --- simulate --------------------------------------------------------------

def test_simulate_noiseless_rows_on_schedule(base_cfg, tmp_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", base_cfg, "--seed", 7, "--out-dir", out]) == 0
    eps = read_episodes(out / "episodes.csv")
    assert len(eps) == 120
    p = build_mechanism(parse_config(BASE))
    for e in eps:
        assert e.b == tlc_policy_linear(e.theta, p)


def test_simulate_deterministic(base_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--config", base_cfg, "--seed", 3, "--noise", 0.05, "--out-dir", a])
    run(["simulate", "--config", base_cfg, "--seed", 3, "--noise", 0.05, "--out-dir", b])
    assert (a / "episodes.csv").read_bytes() == (b / "episodes.csv").read_bytes()


def test_simulate_seed_changes_stream(base_cfg, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--config", base_cfg, "--seed", 3, "--out-dir", a])
    run(["simulate", "--config", base_cfg, "--seed", 4, "--out-dir", b])
    assert (a / "episodes.csv").read_bytes() != (b / "episodes.csv").read_bytes()


def test_simulate_negative_noise_exit_1(base_cfg, tmp_path):
    assert run(["simulate", "--config", base_cfg, "--noise", -0.1, "--out-dir", tmp_path]) == 1


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_simulate_non_finite_noise_exit_1(base_cfg, tmp_path, capsys, noise):
    assert run(["simulate", "--config", base_cfg, "--noise", noise, "--out-dir", tmp_path]) == 1
    assert f"noise must be finite and >= 0, got {noise}" in capsys.readouterr().err
    assert not (tmp_path / "episodes.csv").exists()


def test_simulate_negative_seed_exit_1(base_cfg, tmp_path, capsys):
    # numpy refused it with a traceback
    assert run(["simulate", "--config", base_cfg, "--seed", -1, "--out-dir", tmp_path]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "episodes.csv").exists()


def test_simulate_nan_screening_beta_exit_1(tmp_path, capsys):
    # a nan cap compared false everywhere and was dropped: unscreened payouts
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(BASE + "screening_beta = nan\n")
    assert run(["simulate", "--config", cfg, "--out-dir", tmp_path]) == 1
    assert f"{cfg}:11: 'screening_beta' must be a number, got 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "episodes.csv").exists()


@pytest.mark.parametrize("floor", ["", "\n[floor]\ntype = parallel\na = 0.05\n"],
                         ids=["no-floor", "floor"])
def test_simulate_negative_screening_beta_exit_1(tmp_path, capsys, floor):
    # the message used to depend on the path and cite no line
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(BASE + "screening_beta = -0.1\n" + floor)
    assert run(["simulate", "--config", cfg, "--out-dir", tmp_path]) == 1
    assert f"error: {cfg}:11: screening_beta must be >= 0, got -0.1\n" == capsys.readouterr().err
    assert not (tmp_path / "episodes.csv").exists()


def test_simulate_misspelled_key_exit_1(tmp_path, capsys):
    # an unknown key was ignored, and the payouts went out unscreened
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(BASE + "screening_bta = 0.1\n")
    assert run(["simulate", "--config", cfg, "--out-dir", tmp_path]) == 1
    assert f"{cfg}:11: unknown key 'screening_bta' in [simulate]" in capsys.readouterr().err
    assert not (tmp_path / "episodes.csv").exists()


def test_simulate_screening_is_the_schedule_capped(tmp_path):
    for floor in ("", "\n[floor]\ntype = parallel\na = 0.05\n"):
        cfg = tmp_path / "sc.cfg"
        cfg.write_text(BASE + "screening_beta = 0.2\n" + floor)
        plain = tmp_path / "plain.cfg"
        plain.write_text(BASE + floor)
        run(["simulate", "--config", cfg, "--seed", 1, "--out-dir", tmp_path / "sc"])
        run(["simulate", "--config", plain, "--seed", 1, "--out-dir", tmp_path / "plain"])
        screened = read_episodes(tmp_path / "sc" / "episodes.csv")
        unscreened = read_episodes(tmp_path / "plain" / "episodes.csv")
        assert np.array_equal(screened.theta, unscreened.theta)
        assert np.array_equal(screened.b, np.minimum(0.2, unscreened.b))


def test_simulate_override_injection(tmp_path):
    cfg = tmp_path / "ov.cfg"
    cfg.write_text(BASE + "override_shift = 0.2\n")
    out = tmp_path / "out"
    run(["simulate", "--config", cfg, "--seed", 1, "--out-dir", out])
    p = build_mechanism(parse_config(BASE))
    hi = cutoffs(p).theta_hi
    for e in read_episodes(out / "episodes.csv"):
        want = tlc_policy_linear(e.theta, p) + (0.2 if e.theta > hi else 0.0)
        assert e.b == pytest.approx(want, abs=1e-12)


def test_simulate_screening_cap(tmp_path):
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(BASE + "screening_beta = 0.2\n")
    out = tmp_path / "out"
    run(["simulate", "--config", cfg, "--seed", 1, "--out-dir", out])
    assert max(e.b for e in read_episodes(out / "episodes.csv")) <= 0.2


def test_simulate_with_floor(tmp_path):
    cfg = tmp_path / "fl.cfg"
    cfg.write_text(BASE + "\n[floor]\ntype = parallel\na = 0.05\n")
    out = tmp_path / "out"
    run(["simulate", "--config", cfg, "--seed", 1, "--out-dir", out])
    p = build_mechanism(parse_config(BASE))
    lo = cutoffs(p).theta_lo
    eps = read_episodes(out / "episodes.csv")
    lifted = [e for e in eps if p.T <= e.theta < lo and e.b > 0]
    assert lifted  # the floor pays where the base rule would not


def test_simulate_non_finite_floor_knot_exit_1(tmp_path, capsys):
    # every payout used to be nan, and simulate exited 0
    cfg = tmp_path / "fl.cfg"
    cfg.write_text(BASE + "\n[floor]\ntype = custom\ntheta_knots = 0, inf\nb_values = 0.1, 0.2\n")
    assert run(["simulate", "--config", cfg, "--out-dir", tmp_path]) == 1
    assert f"error: {cfg}:12: invalid [floor]: floor knots and values must be finite" in (
        capsys.readouterr().err)
    assert not (tmp_path / "episodes.csv").exists()


@pytest.mark.parametrize(
    "section",
    ["family = truncexpon\nrate = inf", "family = beta\na = inf\nb = 2.0",
     "family = beta\na = 2.0\nb = inf"],
    ids=["truncexpon-rate", "beta-a", "beta-b"],
)
def test_simulate_infinite_shock_parameter_exit_1(tmp_path, capsys, section):
    text = BASE + f"\n[distribution]\n{section}\n"
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--seed", 1, "--out-dir", out]) == 1
    line = text.splitlines().index("[distribution]") + 1
    err = capsys.readouterr().err
    assert f"{cfg}:{line}: invalid [distribution]" in err
    assert "must be finite" in err
    assert not (out / "episodes.csv").exists()


# --- audit -----------------------------------------------------------------

def test_audit_of_a_dead_rule_draws_its_plot(tmp_path):
    # the plot used to evaluate the rule at theta_lo = 3.5 > theta_bar, and
    # the audit exited 1 after writing its report
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(BASE.replace("omega_T = 1.0", "omega_T = 7.0"))
    out = tmp_path / "out"
    run(["simulate", "--config", cfg, "--seed", 2, "--out-dir", out])
    assert run(["audit", "--config", cfg, "--data", out / "episodes.csv", "--out-dir", out]) == 0
    assert "[NO-BAILOUT]" in (out / "audit_report.txt").read_text()
    assert (out / "audit_plot.svg").exists()


def test_audit_round_trip_clean(base_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", "--config", base_cfg, "--seed", 11, "--out-dir", out])
    code = run(["audit", "--config", base_cfg, "--data", out / "episodes.csv",
                "--strict", "--out-dir", out])
    assert code == 0
    report = (out / "audit_report.txt").read_text()
    assert "override=0" in report.replace(" ", "")
    assert (out / "classifications.csv").exists()
    svg = (out / "audit_plot.svg").read_text()
    assert svg.startswith("<svg ")


def test_audit_two_data_files_attribution(tmp_path):
    before = tmp_path / "before.cfg"
    before.write_text(BASE)
    after_cfg = tmp_path / "after.cfg"
    after_cfg.write_text(BASE.replace("omega_T = 1.0", "omega_T = 1.4")
                         + "\n[announced]\ndelta_omega_T = 0.4\n")
    run(["simulate", "--config", before, "--seed", 2, "--out-dir", tmp_path / "r0"])
    run(["simulate", "--config", after_cfg, "--seed", 2, "--out-dir", tmp_path / "r1"])
    out = tmp_path / "out"
    code = run(["audit", "--config", after_cfg,
                "--data", tmp_path / "r0" / "episodes.csv",
                "--data", tmp_path / "r1" / "episodes.csv",
                "--out-dir", out])
    assert code == 0
    text = (out / "audit_report.txt").read_text()
    assert "shift attribution" in text
    assert "announced" in text


def test_audit_builds_no_episode_rows(tmp_path, monkeypatch):
    # read, fit, classify, plot and write all take the episodes as columns
    cfg = tmp_path / "rule.cfg"
    cfg.write_text(BASE)
    for name, seed in (("r0", 2), ("r1", 3)):
        run(["simulate", "--config", cfg, "--seed", seed, "--noise", 0.02,
             "--out-dir", tmp_path / name])
    built = []
    post_init = Episode.__post_init__
    monkeypatch.setattr(Episode, "__post_init__", lambda e: built.append(post_init(e)))
    code = run(["audit", "--config", cfg, "--data", tmp_path / "r0" / "episodes.csv",
                "--data", tmp_path / "r1" / "episodes.csv", "--out-dir", tmp_path / "out"])
    assert code == 0 and built == []
    assert len(list(read_episodes(tmp_path / "r0" / "episodes.csv"))) == len(built) == 120


def test_fit_of_table_equals_fit_of_rows_bitwise(base_cfg, tmp_path):
    run(["simulate", "--config", base_cfg, "--seed", 4, "--noise", 0.05, "--out-dir", tmp_path])
    table = read_episodes(tmp_path / "episodes.csv")
    a, b = fit_tlc(table, 0.1), fit_tlc(list(table), 0.1)
    for f in dataclasses.fields(TlcFit):  # repr round-trips a float's bits
        assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name


def test_audit_mismatched_card_strict_exit_3(base_cfg, tmp_path):
    out = tmp_path / "out"
    run(["simulate", "--config", base_cfg, "--seed", 5, "--noise", 0.02, "--out-dir", out])
    wrong = tmp_path / "wrong.cfg"
    wrong.write_text(BASE.replace("omega_T = 1.0", "omega_T = 1.8"))
    code = run(["audit", "--config", wrong, "--data", out / "episodes.csv",
                "--strict", "--out-dir", out])
    assert code == 3


def test_audit_estimation_failure_exit_2(base_cfg, tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("theta,b\n1.0,0.1\n1.1,0.2\n1.2,0.3\n")
    code = run(["audit", "--config", base_cfg, "--data", data, "--out-dir", tmp_path])
    assert code == 2
    assert "AUDIT FAILED" in (tmp_path / "audit_report.txt").read_text()


def test_audit_knot_grid_sets_the_resolution(base_cfg, tmp_path):
    out = tmp_path / "out"
    run(["simulate", "--config", base_cfg, "--seed", 3, "--noise", 0.02, "--out-dir", out])
    span = read_episodes(out / "episodes.csv").theta.max() - 0.1  # theta range above T
    assert run(["audit", "--config", base_cfg, "--data", out / "episodes.csv",
                "--knot-grid", 41, "--out-dir", out]) == 0
    card_match = next(line for line in (out / "audit_report.txt").read_text().splitlines()
                      if line.startswith("  card-match"))
    assert f"resolution {span / 40:.3g}" in card_match


def test_audit_knot_grid_below_two_exit_1(base_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", "--config", base_cfg, "--seed", 3, "--out-dir", out])
    assert run(["audit", "--config", base_cfg, "--data", out / "episodes.csv",
                "--knot-grid", 1, "--out-dir", out]) == 1
    assert "knot_grid must be >= 2" in capsys.readouterr().err


def test_audit_bad_csv_exit_1(base_cfg, tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("theta,b\n1.0,oops\n")
    assert run(["audit", "--config", base_cfg, "--data", data, "--out-dir", tmp_path]) == 1


def test_audit_negative_tol_exit_1(base_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", "--config", base_cfg, "--seed", 3, "--out-dir", out])
    for tol in (-0.1, "nan"):  # a nan tolerance used to turn override detection off
        code = run(["audit", "--config", base_cfg, "--data", out / "episodes.csv",
                    "--tol", tol, "--out-dir", out])
        assert code == 1
        assert "tol must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_audit_floored_rule_passes_strict(tmp_path, noise):
    # the audit used to ignore [floor]: a compliant floored rule failed
    # slope-match and card-match, with most of its episodes called overrides
    rule = BASE.replace("n = 120", "n = 1000")
    for floor, card_checks in ((PARALLEL, "pass"), (CROSSING, "not-identified")):
        cfg = tmp_path / "fl.cfg"
        cfg.write_text(rule + floor)
        out = tmp_path / f"out{card_checks}"
        run(["simulate", "--config", cfg, "--seed", 11, "--noise", noise, "--out-dir", out])
        assert run(["audit", "--strict", "--config", cfg, "--data", out / "episodes.csv",
                    "--out-dir", out]) == 0
        text = (out / "audit_report.txt").read_text()
        assert f"floor={'parallel a=0.1' if floor == PARALLEL else 'custom'}\n" in text
        if noise == 0.0:
            assert "override=0\n" in text
        for check in ("slope-match", "card-match"):
            assert f"{check:<22} {card_checks:<15}" in text


def test_audit_labels_a_cardless_floor_by_its_payout(tmp_path):
    # without a card the labels came from the unfloored rule's cutoffs, so
    # episodes the crossing floor pays (0.1 from T = 0.1) were labelled zero
    cfg = tmp_path / "fl.cfg"
    cfg.write_text(BASE.replace("n = 120", "n = 1000") + CROSSING)
    out = tmp_path / "out"
    run(["simulate", "--config", cfg, "--seed", 11, "--out-dir", out])
    assert run(["audit", "--config", cfg, "--data", out / "episodes.csv", "--out-dir", out]) == 0
    rows = [line.split(",") for line in (out / "classifications.csv").read_text().split("\n")[1:-1]]
    labels = {}
    for _theta, b, label in rows:
        labels.setdefault(label, []).append(float(b))
    assert set(labels) == {"zero", "interior", "cap"}
    assert max(labels["zero"]) == 0.0
    assert min(labels["interior"]) == 0.1 and max(labels["interior"]) < 0.5
    assert set(labels["cap"]) == {0.5}


def test_floored_audit_scans_for_overrides_at_the_published_rule(tmp_path):
    # simulate's override, the override scan and the card all use Schedule.rule
    cfg = tmp_path / "fl.cfg"
    cfg.write_text(BASE.replace("n = 120", "n = 1000\noverride_shift = 0.2") + PARALLEL)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--seed", 5, "--out-dir", out]) == 0
    assert run(["rulecard", "--config", cfg, "--out-dir", out]) == 0
    parsed = parse_config(cfg.read_text())
    schedule = Schedule(build_mechanism(parsed), build_floor(parsed))
    cut = cutoffs(schedule.rule)
    assert schedule.rule == schedule.card() != schedule.params
    eps = read_episodes(out / "episodes.csv")
    report = run_audit(eps, schedule.params, floor=schedule.floor)
    assert report.override.n_cap_obs == int((eps.theta > cut.theta_hi).sum()) > 0
    assert report.override.dummy == pytest.approx(0.2)
    assert not report.override.slope_moved
    card = card_from_json((out / "rulecard.json").read_text())
    assert (card.theta_lo, card.theta_hi) == (cut.theta_lo, cut.theta_hi) == (0.3, 1.3)
    crossing = parse_config(BASE + CROSSING)
    schedule = Schedule(build_mechanism(crossing), build_floor(crossing))
    assert schedule.card() is None and schedule.rule == schedule.params


def test_audit_shock_outside_support_exit_1(base_cfg, tmp_path, capsys):
    data = tmp_path / "eps.csv"
    data.write_text("theta,b\n0.5,0.0\n1.0,0.25\n1.5,0.5\n2.0,0.5\n5.0,0.5\n")
    assert run(["audit", "--config", base_cfg, "--data", data, "--out-dir", tmp_path]) == 1
    assert "episode 4: theta=5.0" in capsys.readouterr().err


# --- sweep -----------------------------------------------------------------

def test_sweep_artifacts(base_cfg, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(BASE + "\n[sweep]\nparameter = omega_T\nstart = 0.5\nstop = 2.0\nsteps = 7\n")
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out-dir", out]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("omega_T,")
    assert len(lines) == 8
    assert (out / "sweep.svg").read_text().startswith("<svg ")


@pytest.mark.parametrize("bounds, key, line", [
    ("start = 0.1\nstop = inf\n", "stop", 15),
    ("start = -inf\nstop = 0.1\n", "start", 14),
    ("start = 0.5\nstop = 2.0\nb_bar_start = 0.5\nb_bar_stop = -inf\n", "b_bar_stop", 17),
], ids=["stop", "start", "b_bar_stop"])
def test_sweep_non_finite_bound_exit_1(tmp_path, capsys, bounds, key, line):
    # the values interpolate between the bounds: inf made them nan, and the
    # error cited a value the file does not hold, at no line
    cfg = tmp_path / "sw.cfg"
    parameter = "b_bar" if key != "b_bar_stop" else "omega_T"
    cfg.write_text(BASE + f"\n[sweep]\nparameter = {parameter}\n{bounds}steps = 3\n")
    assert run(["sweep", "--config", cfg, "--out-dir", tmp_path]) == 1
    assert f"error: {cfg}:{line}: '{key}' must be finite" in capsys.readouterr().err


# --- allocate --------------------------------------------------------------

def test_allocate_worked_instance(tmp_path):
    cfg = tmp_path / "alloc.cfg"
    cfg.write_text(ALLOC)
    out = tmp_path / "out"
    assert run(["allocate", "--config", cfg, "--strict", "--out-dir", out]) == 0
    text = (out / "allocation.txt").read_text()
    assert "shadow price" in text
    assert "agreement" in text  # strict self-check line


def test_allocate_strict_many_municipalities(tmp_path):
    # T-gated shocks, closed (b_bar = 0), uncapped and ordinary caps
    sections = ["[treasury]\nbudget = 30.0\n"]
    for i in range(40):
        T = 2.5 if i % 5 == 0 else 0.0
        b_bar = ("10.0", "0.0", "inf", "0.3", "1.5")[i % 5]
        sections.append(
            f"[municipality m{i:02d}]\nomega_b = {1.0 + 0.05 * i}\nc = {1.0 + 0.1 * (i % 7)}\n"
            f"omega_T = {0.02 * (i % 9)}\nT = {T}\nb_bar = {b_bar}\ntheta_bar = 4.0\n"
            f"theta = {0.1 * (i % 37)}\n"
        )
    cfg = tmp_path / "many.cfg"
    cfg.write_text("\n".join(sections))
    out = tmp_path / "out"
    assert run(["allocate", "--config", cfg, "--strict", "--out-dir", out]) == 0
    text = (out / "allocation.txt").read_text()
    assert "agreement" in text
    for flag in (" zero", " cap", " budget"):
        assert flag in text


def test_allocate_slack_budget(tmp_path):
    cfg = tmp_path / "alloc.cfg"
    cfg.write_text(ALLOC.replace("budget = 1.0", "budget = 5.0"))
    out = tmp_path / "out"
    assert run(["allocate", "--config", cfg, "--out-dir", out]) == 0
    assert "interior" in (out / "allocation.txt").read_text()


# --- determinism across commands -------------------------------------------

def test_full_pipeline_byte_identical(base_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run(["rulecard", "--config", base_cfg, "--out-dir", out])
        run(["simulate", "--config", base_cfg, "--seed", 9, "--noise", 0.01,
             "--out-dir", out])
        run(["audit", "--config", base_cfg, "--data", out / "episodes.csv",
             "--out-dir", out])
        outs.append(out)
    a, b = outs
    for f in ("rulecard.txt", "rulecard.json", "episodes.csv",
              "audit_report.txt", "classifications.csv", "audit_plot.svg"):
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


def test_out_dir_env_var(base_cfg, tmp_path, monkeypatch):
    env_out = tmp_path / "from_env"
    monkeypatch.setenv("BAILRULE_OUT_DIR", str(env_out))
    run(["rulecard", "--config", base_cfg])
    assert (env_out / "rulecard.json").exists()
    card = json.loads((env_out / "rulecard.json").read_text())
    assert card["theta_lo"] == 0.5


# --- cold start: no scipy on the command-line path ---------------------------

ROOT = Path(__file__).resolve().parents[1]


def _python(code, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_cli_import_loads_no_scipy(tmp_path):
    proc = _python(
        """
        import sys
        import bailrule.cli
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_commands_run_without_scipy(tmp_path):
    rule = tmp_path / "rule.cfg"
    rule.write_text(BASE + "\n[sweep]\nparameter = omega_T\nstart = 0.5\nstop = 2.0\nsteps = 7\n")
    configs = {"uniform": rule}
    for family, params in (("truncexpon", "rate = 0.7"), ("beta", "a = 2.0\nb = 3.0")):
        configs[family] = tmp_path / f"{family}.cfg"
        configs[family].write_text(BASE + f"\n[distribution]\nfamily = {family}\n{params}\n")
    alloc = tmp_path / "alloc.cfg"
    alloc.write_text(ALLOC)
    commands = [["rulecard", "--config", rule]]
    commands += [["simulate", "--config", cfg, "--seed", 3, "--noise", 0.01,
                  "--out-dir", tmp_path / family] for family, cfg in configs.items()]
    commands += [
        ["audit", "--config", rule, "--data", tmp_path / "uniform" / "episodes.csv"],
        ["sweep", "--config", rule],
        ["allocate", "--config", alloc, "--strict"],
    ]
    argvs = [[str(a) for a in cmd] for cmd in commands]
    proc = _python(
        f"""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        from bailrule.cli import main
        codes = [main(argv) for argv in {argvs!r}]
        print(codes)
        sys.exit(any(codes))
        """,
        tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == str([0] * len(argvs))


# --- refusals print one error line, never a traceback ------------------------

def _refusal(argv, cwd):
    """stderr of a CLI run in a fresh interpreter that must exit 1."""
    code = f"from bailrule.cli import main; raise SystemExit(main({[str(a) for a in argv]!r}))"
    proc = _python(code, cwd)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


@pytest.mark.parametrize("command, out, blocker", [
    ("rulecard", "taken", "taken"),                   # --out-dir names a file
    ("rulecard", "out", "out/rulecard.txt"),          # an artifact path is a directory
    ("simulate", "out", "out/episodes.csv"),
])
def test_unwritable_output_exit_1(base_cfg, tmp_path, command, out, blocker):
    if blocker == out:
        (tmp_path / blocker).write_text("")
    else:
        (tmp_path / blocker).mkdir(parents=True)
    err = _refusal([command, "--config", base_cfg, "--out-dir", tmp_path / out], tmp_path)
    assert err.startswith(f"error: {tmp_path / blocker}: cannot write output: "), err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_output_on_a_full_device_exit_1(base_cfg, tmp_path):
    # a failed write or close names no file; the message still says what failed
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "rulecard.txt").symlink_to("/dev/full")
    err = _refusal(["rulecard", "--config", base_cfg, "--out-dir", tmp_path / "out"], tmp_path)
    assert err == "error: cannot write output: [Errno 28] No space left on device\n"


def test_config_not_utf8_exit_1(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(BASE.replace("[simulate]", "# caf\xe9\n[simulate]").encode("latin-1"))
    err = _refusal(["rulecard", "--config", cfg], tmp_path)
    assert err.startswith(f"error: {cfg}: cannot read config: "), err


def test_source_date_epoch_out_of_range_exit_1(base_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "99999999999999")
    err = _refusal(["rulecard", "--config", base_cfg], tmp_path)
    assert err == ("error: SOURCE_DATE_EPOCH must be an integer Unix time in "
                   "years 1-9999, got '99999999999999'\n")
    assert not (tmp_path / "rulecard.txt").exists()
