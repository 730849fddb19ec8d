"""Config parsing and the builders that turn sections into domain objects."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from bailrule import ConfigError, consent_cap_analytic, cutoffs
from bailrule.configfile import (
    build_allocation_problem,
    build_announced,
    build_distribution,
    build_floor,
    build_mechanism,
    build_schedule,
    build_simulation,
    build_sweep,
    build_weight_profile,
    parse_config,
)
from bailrule.floors import Schedule

BASE = """\
[mechanism]
omega_b = 2.0
c = 4.0
omega_T = 1.0
T = 0.1
b_bar = 0.5
theta_bar = 3.0
"""


def test_parse_sections_and_values():
    cfg = parse_config(BASE, path="base.cfg")
    p = build_mechanism(cfg)
    assert (p.omega_b, p.c, p.omega_T, p.T, p.b_bar, p.theta_bar) == (2, 4, 1, 0.1, 0.5, 3)
    assert cutoffs(p).theta_lo == 0.5


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# top\n\n[mechanism]\n; semicolon comment\nomega_b = 1\n")
    assert cfg.find("mechanism").get("omega_b") == "1"


def test_sha256_stable():
    assert parse_config(BASE).sha256 == parse_config(BASE).sha256
    assert parse_config(BASE).sha256 != parse_config(BASE + "\n# x\n").sha256


def test_inf_literal():
    for literal in ("inf", " Infinity ", "+INF"):
        cfg = parse_config(BASE.replace("b_bar = 0.5", f"b_bar = {literal}"))
        assert build_mechanism(cfg).b_bar == math.inf


@pytest.mark.parametrize("literal", ["nan", "NaN", "-nan", "+NAN"])
def test_nan_is_not_a_number(literal):
    # float() parses nan, which slips through a range check written as `x < 0`
    cfg = parse_config(f"[x]\n\nv = {literal}\nvs = 1.0, {literal}, 2.0\n", path="x.cfg")
    sec, got = cfg.find("x"), re.escape(literal)
    with pytest.raises(ConfigError, match=rf"^x\.cfg:3: 'v' must be a number, got '{got}'$"):
        cfg.get_float(sec, "v", 0.0)
    with pytest.raises(ConfigError, match=rf"^x\.cfg:4: 'vs' must be a number, got '{got}'$"):
        cfg.get_floats(sec, "vs")
    with pytest.raises(ConfigError, match=r"^x\.cfg:6: 'b_bar' must be a number, got 'nan'$"):
        build_mechanism(parse_config(BASE.replace("b_bar = 0.5", "b_bar = nan"), path="x.cfg"))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=r":2:"):
        parse_config("[mechanism]\nomega_b\n")
    with pytest.raises(ConfigError, match=r":1:.*before any"):
        parse_config("omega_b = 1\n")
    with pytest.raises(ConfigError, match=r"duplicate key"):
        parse_config("[m]\na = 1\na = 2\n")
    with pytest.raises(ConfigError, match=r"unterminated"):
        parse_config("[mechanism\n")


def test_bad_float_diagnostic():
    cfg = parse_config(BASE.replace("c = 4.0", "c = four"), path="x.cfg")
    with pytest.raises(ConfigError, match=r"x\.cfg:3"):
        build_mechanism(cfg)


def test_invalid_params_wrapped_as_config_error():
    cfg = parse_config(BASE.replace("omega_b = 2.0", "omega_b = -2.0"))
    with pytest.raises(ConfigError, match="omega_b"):
        build_mechanism(cfg)


def test_missing_mechanism_section():
    with pytest.raises(ConfigError, match=r"\[mechanism\]"):
        build_mechanism(parse_config("[distribution]\nfamily = uniform\n"))


LEGISLATURE = """\
[mechanism]
omega_b = 2.0
c = 4.0
T = 0.3
theta_bar = 3.0

[legislature]
w_beneficiary = 0.5
tau = 0.25
h_family = uniform
h_lo = 0.0
h_hi = 2.0
lambda0 = 0.4
lambda1 = 2.0
salience = 0.3
"""


def test_omega_T_derived_from_political_cost():
    p = build_mechanism(parse_config(LEGISLATURE))
    assert p.omega_T == pytest.approx(0.4 + 2.0 * 0.3)


def test_cap_derived_from_legislature():
    cfg = parse_config(LEGISLATURE)
    p = build_mechanism(cfg)
    prof = build_weight_profile(cfg, p.T)
    assert p.b_bar == pytest.approx(consent_cap_analytic(prof))
    assert p.b_bar == pytest.approx(0.3 * 1.0)  # T * H^-1(0.5)


def test_discrete_legislature_family():
    text = LEGISLATURE.replace("h_family = uniform", "h_family = discrete").replace(
        "h_lo = 0.0\nh_hi = 2.0", "h_atoms = 0.4, 0.8\nh_masses = 0.5, 0.5"
    )
    cfg = parse_config(text)
    prof = build_weight_profile(cfg, 0.3)
    assert prof.threshold_dist.atoms.tolist() == [0.4, 0.8]


def test_missing_cap_and_legislature_is_error():
    text = BASE.replace("b_bar = 0.5\n", "")
    with pytest.raises(ConfigError, match="b_bar"):
        build_mechanism(parse_config(text))


def test_distribution_families():
    assert build_distribution(parse_config(BASE), build_mechanism(parse_config(BASE))).theta_bar == 3.0
    trunc = BASE + "\n[distribution]\nfamily = truncexpon\nrate = 2.0\n"
    cfg = parse_config(trunc)
    d = build_distribution(cfg, build_mechanism(cfg))
    assert d.rate == 2.0
    with pytest.raises(ConfigError, match="family"):
        cfg = parse_config(BASE + "\n[distribution]\nfamily = cauchy\n")
        build_distribution(cfg, build_mechanism(cfg))


def test_floor_builders():
    assert build_floor(parse_config(BASE)) is None
    par = parse_config(BASE + "\n[floor]\ntype = parallel\na = 0.1\n")
    assert build_floor(par).a == 0.1
    cus = parse_config(BASE + "\n[floor]\ntype = custom\ntheta_knots = 0.5, 1.0\nb_values = 0.1, 0.2\n")
    assert build_floor(cus).b_values == (0.1, 0.2)
    with pytest.raises(ConfigError):
        build_floor(parse_config(BASE + "\n[floor]\ntype = staircase\n"))


def test_sweep_builder():
    cfg = parse_config(BASE + "\n[sweep]\nparameter = omega_T\nstart = 0\nstop = 1\nsteps = 5\n")
    plan = build_sweep(cfg)
    assert plan.values == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ConfigError, match="steps"):
        build_sweep(parse_config(BASE + "\n[sweep]\nparameter = omega_T\nstart = 0\nstop = 1\nsteps = 1\n"))
    with pytest.raises(ConfigError, match="parameter"):
        build_sweep(parse_config(BASE + "\n[sweep]\nparameter = theta_bar\nstart = 0\nstop = 1\nsteps = 3\n"))
    with pytest.raises(ConfigError, match="coupled"):
        build_sweep(parse_config(
            BASE + "\n[sweep]\nparameter = T\nstart = 0\nstop = 1\nsteps = 3\nb_bar_start = 1\nb_bar_stop = 0\n"
        ))


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


def test_allocation_builder():
    problem, names = build_allocation_problem(parse_config(ALLOC))
    assert names == ["north", "south"]
    assert problem.treasury_limit == 1.0
    assert problem.municipalities[1][1] == 2.0


def test_allocation_requires_municipalities():
    with pytest.raises(ConfigError, match="municipality"):
        build_allocation_problem(parse_config("[treasury]\nbudget = 1.0\n"))


# --- where a refused value is cited ----------------------------------------

@pytest.mark.parametrize("old, new, line, message", [
    ("tau = 0.25", "tau = 2", 9, r"\[legislature\]: tau must lie in \(0, 1\], got 2\.0"),
    ("w_beneficiary = 0.5", "w_beneficiary = 1.5", 8, r"\[legislature\]: w_beneficiary must"),
    ("c = 4.0", "c = -4.0", 3, r"\[mechanism\]: c must be finite and > 0"),
    ("T = 0.3", "T = 5.0", 4, r"\[mechanism\]: T must lie in \[0, theta_bar\]"),
    # a joint message names no one key: the section header
    ("lambda1 = 2.0", "lambda1 = -2.0", 7, r"\[legislature\]: lambda0 and lambda1 must"),
    ("h_hi = 2.0", "h_hi = -2.0", 7, r"\[legislature\]: need 0 <= lo < hi"),
], ids=["tau", "w_beneficiary", "c", "T", "lambda-joint", "threshold-dist"])
def test_refused_value_cited_at_its_key_else_at_its_section(old, new, line, message):
    cfg = parse_config(LEGISLATURE.replace(old, new), path="x.cfg")
    with pytest.raises(ConfigError, match=rf"^x\.cfg:{line}: invalid {message}"):
        build_mechanism(cfg)


@pytest.mark.parametrize("old, new, message", [
    ("salience = 0.3", "salience = -1", r"^x\.cfg:15: salience gives omega_T = -1\.6 < 0$"),
    ("salience = 0.3", "salience = inf", r"^x\.cfg:15: 'salience' must be finite, got inf$"),
    ("lambda0 = 0.4", "lambda0 = inf", r"^x\.cfg:13: 'lambda0' must be finite, got inf$"),
], ids=["negative-salience", "infinite-salience", "infinite-lambda0"])
def test_derived_political_cost_refused_at_its_key(old, new, message):
    # each was blamed on [mechanism]'s header as an invalid omega_T
    with pytest.raises(ConfigError, match=message):
        build_mechanism(parse_config(LEGISLATURE.replace(old, new), path="x.cfg"))


def test_floor_refusals_cited_at_the_floor_header():
    text = BASE + "\n[floor]\ntype = custom\ntheta_knots = 0.5, 1.0\nb_values = 0.2, 0.1\n"
    with pytest.raises(ConfigError, match=r"^x\.cfg:9: invalid \[floor\]: floor values must"):
        build_floor(parse_config(text, path="x.cfg"))


# --- schedule, simulation and announced-change builders ---------------------

def test_schedule_builder():
    cfg = parse_config(BASE + "\n[floor]\ntype = parallel\na = 0.1\n")
    assert build_schedule(cfg) == Schedule(build_mechanism(cfg), build_floor(cfg))
    assert build_schedule(parse_config(BASE)).floor is None


def test_simulation_builder():
    assert build_simulation(parse_config(BASE)) == (100, 0.0, math.inf)
    assert build_simulation(parse_config(BASE + "\n[simulate]\n")) == (100, 0.0, math.inf)
    cfg = parse_config(BASE + "\n[simulate]\nn = 7\noverride_shift = 0.2\nscreening_beta = 0.3\n")
    assert build_simulation(cfg) == (7, 0.2, 0.3)
    for entry, message in [
        ("n = 0", r"^x\.cfg:10: simulate n must be >= 1, got 0$"),
        ("n = 2.5", r"^x\.cfg:10: 'n' must be an integer, got '2\.5'$"),
        ("override_shift = inf", r"^x\.cfg:10: 'override_shift' must be finite, got inf$"),
        ("screening_beta = -1", r"^x\.cfg:10: screening_beta must be >= 0, got -1\.0$"),
    ]:
        with pytest.raises(ConfigError, match=message):
            build_simulation(parse_config(BASE + f"\n[simulate]\n{entry}\n", path="x.cfg"))


def test_announced_builder():
    assert build_announced(parse_config(BASE), 1) is None
    cfg = parse_config(BASE + "\n[announced]\ndelta_b_bar = -0.1\n", path="x.cfg")
    assert build_announced(cfg, 2) == (0.0, -0.1)
    for regimes in (1, 3):
        with pytest.raises(ConfigError, match=r"^x\.cfg:9: \[announced\] needs two --data files"):
            build_announced(cfg, regimes)
    cfg = parse_config(BASE + "\n[announced]\ndelta_omega_T = inf\n", path="x.cfg")
    with pytest.raises(ConfigError, match=r"^x\.cfg:10: 'delta_omega_T' must be finite, got inf$"):
        build_announced(cfg, 2)


# --- unknown keys ----------------------------------------------------------

def test_unknown_key_refused_in_each_known_section():
    cfg = parse_config(BASE.replace("c = 4.0", "c = 4.0\ncost = 4.0"), path="x.cfg")
    with pytest.raises(ConfigError, match=r"^x\.cfg:4: unknown key 'cost' in \[mechanism\]$"):
        build_mechanism(cfg)
    cfg = parse_config(LEGISLATURE.replace("tau = 0.25", "quota = 0.25"), path="x.cfg")
    with pytest.raises(ConfigError, match=r"^x\.cfg:9: unknown key 'quota' in \[legislature\]$"):
        build_weight_profile(cfg, 0.3)
    cfg = parse_config(ALLOC.replace("theta = 2.0", "theta = 2.0\ntheta_hat = 2.0"), path="x.cfg")
    with pytest.raises(
        ConfigError, match=r"^x\.cfg:21: unknown key 'theta_hat' in \[municipality south\]$"
    ):
        build_allocation_problem(cfg)
    cfg = parse_config("[treasury]\nbudget = 1\nbudgt = 2\n", path="x.cfg")
    with pytest.raises(ConfigError, match=r"^x\.cfg:3: unknown key 'budgt' in \[treasury\]$"):
        cfg.require("treasury")


def test_sections_of_other_kinds_are_not_checked():
    cfg = parse_config(BASE + "\n[notes]\nauthor = someone\n")
    assert cfg.find("notes").get("author") == "someone"
    assert build_mechanism(cfg).omega_b == 2.0


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_line_feeds_and_returns_end_a_config_line(sep):
    # str.splitlines broke here too, refusing 'b' on line 3 and hiding line 4
    cfg = parse_config(f"[mechanism]\n# a{sep}b\nomega_b = 2\nc = x\n", path="f.cfg")
    sec = cfg.require("mechanism")
    assert cfg.get_float(sec, "omega_b") == 2.0
    with pytest.raises(ConfigError, match=r"^f\.cfg:4: 'c' must be a number, got 'x'$"):
        cfg.get_float(sec, "c")
    cfg = parse_config("[mechanism]\r\nomega_b = 2\rc = x\n", path="f.cfg")
    with pytest.raises(ConfigError, match=r"^f\.cfg:3: 'c' must be a number"):
        cfg.get_float(cfg.require("mechanism"), "c")


FRAGMENTS = st.sampled_from([
    "[mechanism]", "[legislature]", "[floor]", "[simulate]", "[notes]", "[municipality a]",
    "[", "]", "[ ]", "[mechanism", "omega_b = 1", "tau = 0.2", "n = 3", "a = 1", "b=",
    "screening_bta = 1", "= 1", "key", "k = v = w", "# c", "; c", "", "  ", "\t",
])
CONFIG_TEXT = st.lists(
    st.one_of(FRAGMENTS, st.text(max_size=12)), max_size=12
).map("\n".join)


@given(text=CONFIG_TEXT)
@settings(max_examples=400, deadline=None)
def test_config_either_cites_a_line_or_parses(text):
    # every refusal, syntax or unknown key, names a line of the text
    # physical lines as the parser counts them: only \n, \r\n and \r end one
    pieces = re.split(r"\r\n|\r|\n", text)
    lines = len(pieces) - (pieces[-1] == "")
    try:
        cfg = parse_config(text, path="f.cfg")
        for kind in ("mechanism", "legislature", "floor", "simulate", "notes"):
            cfg.find(kind)
        for sec in cfg.sections:
            if sec.name.startswith("municipality"):
                cfg._checked(sec, "municipality")
    except ConfigError as exc:
        m = re.match(r"f\.cfg:(\d+): ", str(exc))
        assert m and 1 <= int(m.group(1)) <= lines, str(exc)
