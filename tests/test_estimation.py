"""Two-knot hinge-spline estimation, classification, overrides, attribution."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bailrule import (
    Episode,
    EpisodeTable,
    EstimationError,
    MechanismParams,
    ParameterError,
    Schedule,
    TlcFit,
    attribute_shift,
    classify_against_schedule,
    cutoffs,
    detect_override_shift,
    fit_tlc,
    predict,
    tlc_policy_linear,
)
from bailrule.estimation import _candidate_knots


def hinge_eval(theta, s, t1, t2):
    th = np.asarray(theta, dtype=float)
    return s * np.maximum(th - t1, 0.0) - s * np.maximum(th - t2, 0.0)


def hinge_sse(data, s, t1, t2):
    th = np.array([e.theta for e in data])
    b = np.array([e.b for e in data])
    resid = b - np.clip(hinge_eval(th, s, t1, t2), 0.0, None)
    return float(resid @ resid)


def profile_slope(data, t1, t2):
    # closed-form nonnegative LS slope for fixed knots, written independently
    th = np.array([e.theta for e in data])
    b = np.array([e.b for e in data])
    x = np.maximum(th - t1, 0.0) - np.maximum(th - t2, 0.0)
    denom = float(x @ x)
    if denom == 0.0:
        return 0.0
    return max(0.0, float(x @ b) / denom)


def synth(s, t1, t2, thetas, noise=0.0, seed=None):
    th = np.asarray(thetas, dtype=float)
    b = hinge_eval(th, s, t1, t2)
    if noise:
        b = np.maximum(b + np.random.default_rng(seed).normal(0, noise, th.size), 0.0)
    return [Episode(t, v) for t, v in zip(th, b)]


# --- episode types ---------------------------------------------------------

def test_episode_rejects_negative_theta():
    with pytest.raises(ParameterError, match=r"^theta must be finite and >= 0, got -1\.0$"):
        Episode(-1.0, 0.5)
    with pytest.raises(ParameterError, match=r"^theta must be finite and >= 0, got nan$"):
        Episode(math.nan, 0.5)


def test_table_holds_float_columns_and_a_regime_tuple():
    table = EpisodeTable([0, 1, 2], (0, 1, 1), ["zero", None, "cap"])
    assert table.theta.dtype == float and table.theta.tolist() == [0.0, 1.0, 2.0]
    assert table.b.dtype == float and table.b.tolist() == [0.0, 1.0, 1.0]
    assert table.regime == ("zero", None, "cap")


FIVE = [0.5, 1.0, 1.5, 2.0, 2.5]


@pytest.mark.parametrize(
    "theta, b, regime, message",
    [
        (FIVE, [0.0, 0.25, 0.5, 0.5, -5.0], None,
         r"^episode 4: b must be finite and >= 0, got -5\.0$"),
        ([0.5, math.nan, 1.5, 2.0, 2.5], [0.0] * 5, None,
         r"^episode 1: theta must be finite and >= 0, got nan$"),
        ([0.5, 1.0, -1.5, 2.0, 2.5], [0.0, math.inf, 0.0, 0.0, 0.0], None,
         r"^episode 1: b must be finite and >= 0, got inf$"),
        (FIVE[:3], [0.0] * 5, None,
         r"^theta and b must be 1-D columns of one length, got \(3,\) and \(5,\)$"),
        ([FIVE], [[0.0] * 5], None, r"must be 1-D columns"),
        (FIVE, [0.0] * 5, ["cap"] * 4, r"^regime has 4 rows, theta has 5$"),
    ],
    ids=["negative-b", "nan-theta", "first-of-two", "ragged", "2-D", "short-regime"],
)
def test_table_refuses_what_no_episode_file_holds(theta, b, regime, message):
    # such tables used to reach fit_tlc: a negative payout was fitted, a NaN
    # shock raised a bare IndexError, ragged columns were "too few episodes"
    with pytest.raises(ParameterError, match=message):
        EpisodeTable(np.array(theta), np.array(b), regime)


# --- fit -------------------------------------------------------------------

def test_noiseless_recovery():
    data = synth(1.0, 0.5, 1.5, np.arange(0, 2.01, 0.1))
    fit = fit_tlc(data, t_admissible=0.0)
    assert fit.s == pytest.approx(1.0, abs=1e-9)
    assert fit.theta1 == pytest.approx(0.5, abs=1e-9)
    assert fit.theta2 == pytest.approx(1.5, abs=1e-9)
    assert fit.sse <= 1e-12
    assert not fit.degenerate and not fit.no_interior


def test_all_zero_payouts_degenerate():
    data = [Episode(t, 0.0) for t in np.linspace(0, 2, 20)]
    fit = fit_tlc(data, t_admissible=0.0)
    assert fit.s == 0.0
    assert fit.degenerate


def test_too_few_episodes():
    with pytest.raises(EstimationError):
        fit_tlc([Episode(0.1, 0.0)] * 3, t_admissible=0.0)


def test_constant_theta_rejected():
    with pytest.raises(EstimationError):
        fit_tlc([Episode(1.0, float(i)) for i in range(6)], t_admissible=0.0)


def test_knot_constraint_respects_T():
    data = synth(1.0, 0.5, 1.5, np.arange(0, 2.01, 0.05))
    fit = fit_tlc(data, t_admissible=0.7)
    assert fit.theta1 >= 0.7
    assert fit.theta2 >= fit.theta1


def test_monte_carlo_recovery_rate():
    # tolerance frozen after a 200-replication calibration at these settings
    true = (0.5, 0.4, 1.2)
    hits = 0
    reps = 60
    for seed in range(reps):
        rng = np.random.default_rng(seed)
        th = rng.uniform(0, 2, 500)
        data = synth(*true, th, noise=0.02, seed=seed + 10_000)
        fit = fit_tlc(data, t_admissible=0.0)
        ok = (abs(fit.s - true[0]) <= 0.05 and abs(fit.theta1 - true[1]) <= 0.05
              and abs(fit.theta2 - true[2]) <= 0.05)
        hits += ok
    assert hits >= 0.95 * reps


def test_sse_beats_true_parameters():
    rng = np.random.default_rng(3)
    th = rng.uniform(0, 2, 200)
    data = synth(0.8, 0.6, 1.4, th, noise=0.05, seed=4)
    fit = fit_tlc(data, t_admissible=0.0, knot_grid=101)
    s_true = profile_slope(data, 0.6, 1.4)
    # candidate set includes observed thetas and midpoints, so compare against
    # the best of the true pair and its nearest searched neighbors
    assert fit.sse <= hinge_sse(data, s_true, 0.6, 1.4) + 1e-9


def test_fit_matches_independent_profile_search():
    # brute-force the same objective over a coarse independent grid
    rng = np.random.default_rng(8)
    th = np.sort(rng.uniform(0, 2, 120))
    data = synth(0.7, 0.5, 1.3, th, noise=0.03, seed=9)
    cands = np.linspace(0.0, 2.0, 41)
    best = (np.inf, None, None)
    for i, t1 in enumerate(cands):
        for t2 in cands[i:]:
            s = profile_slope(data, t1, t2)
            sse = hinge_sse(data, s, t1, t2)
            if sse < best[0] - 1e-15:
                best = (sse, t1, t2)
    fit = fit_tlc(data, t_admissible=0.0, knot_grid=41)
    # package searches a superset of these candidates; SSE can only improve
    assert fit.sse <= best[0] + 1e-12


@given(st.floats(0.1, 3.0))
@settings(max_examples=50, deadline=None)
def test_scale_equivariance(k):
    th = np.arange(0, 2.01, 0.1)
    base = synth(1.0, 0.5, 1.5, th)
    scaled = [Episode(e.theta, k * e.b) for e in base]
    f0 = fit_tlc(base, t_admissible=0.0)
    f1 = fit_tlc(scaled, t_admissible=0.0)
    assert f1.s == pytest.approx(k * f0.s, rel=1e-9)
    assert f1.theta1 == pytest.approx(f0.theta1, abs=1e-12)
    assert f1.theta2 == pytest.approx(f0.theta2, abs=1e-12)
    assert f1.cap_level == pytest.approx(k * f0.cap_level, rel=1e-9)


def exhaustive_fit(data, t_admissible, knot_grid=201):
    """The reference search: every candidate pair, one row of pairs per theta1.

    This is the O(K^2) row scan ``fit_tlc`` ran before its branch-and-bound,
    on unscaled payouts.  It returns (theta1, theta2, s, sse), which the
    branch-and-bound must reproduce bitwise.
    """
    theta = np.array([e.theta for e in data])
    b = np.array([e.b for e in data])
    cand = _candidate_knots(theta, float(t_admissible), knot_grid)
    order = np.argsort(theta, kind="stable")
    ts, bs = theta[order], b[order]
    idx = np.searchsorted(ts, cand, side="right")
    s0, s_th, s_th2, s_b, s_bth = (
        np.concatenate([np.cumsum(v[::-1])[::-1], [0.0]])[idx]
        for v in (np.ones_like(ts), ts, ts * ts, bs, bs * ts)
    )
    p = s_bth - cand * s_b
    q = s_th2 - 2.0 * cand * s_th + cand * cand * s0
    q_floor = 1e-12 * max(float(q[0]), 1.0)
    best_gain, best = 0.0, (0, 0)
    for j in range(cand.size):
        tj = cand[j]
        a_row = p[j] - p[j:]
        r_row = s_th2[j:] - (tj + cand[j:]) * s_th[j:] + tj * cand[j:] * s0[j:]
        q_row = q[j] + q[j:] - 2.0 * r_row
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where((q_row > q_floor) & (a_row > 0.0), a_row * a_row / q_row, 0.0)
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            best_gain, best = float(gain[k]), (j, j + k)
    t1, t2 = float(cand[best[0]]), float(cand[best[1]])
    x = np.clip(theta, t1, t2) - t1
    xx = float(x @ x)
    s = max(0.0, float(x @ b) / xx) if xx > q_floor else 0.0
    resid = b - np.maximum(s * x, 0.0)
    return t1, t2, s, float(resid @ resid)


def oracle_instance(kind, seed):
    """One seeded fit problem: (episodes, t_admissible, knot_grid)."""
    rng = np.random.default_rng([seed, ORACLE_KINDS.index(kind)])
    n = int(rng.choice([4, 5, 12, 40, 120, 300] if kind != "large" else [1000, 1500]))
    th = rng.uniform(0.0, 2.0, n)
    if kind == "ties":
        th = np.round(th, 1)
    t1, t2 = np.sort(rng.uniform(0.0, 2.0, 2))
    b = rng.uniform(0.2, 3.0) * (np.clip(th, t1, t2) - t1)
    T = float(rng.choice([0.0, 0.2, 0.7]))
    if kind == "override":
        b = b + rng.uniform(0.1, 0.2) * (th > t2) * (rng.random(n) < rng.uniform(0.03, 0.3))
    elif kind == "noise":
        b = np.abs(rng.normal(0.0, 1.0, n))
    elif kind == "zero":
        b = np.zeros(n)
    elif kind == "step":  # the cap binds at T: a jump, so near-tied narrow pairs
        b = rng.uniform(0.3, 1.0) * (th > T)
    elif kind == "above-top":  # every shock at or below T: a single candidate
        T = float(th.max()) + float(rng.choice([0.0, 0.5]))
    sigma = float(rng.choice([0.0, 0.0, 0.005, 0.02, 0.1, 0.3]))
    b = np.maximum(b + rng.normal(0.0, sigma, n), 0.0)
    if np.unique(th).size < 2:
        th[0] = th[0] + 0.5
    grid = int(rng.choice([201, 201, 41, 2]))
    return [Episode(t, v) for t, v in zip(th, b)], T, grid


ORACLE_KINDS = ["hinge", "ties", "override", "noise", "zero", "step", "above-top", "large"]


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_branch_and_bound_matches_exhaustive_search_bitwise(kind):
    seeds = range(8) if kind == "large" else range(42)
    for seed in seeds:
        data, T, grid = oracle_instance(kind, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_tlc(data, t_admissible=T, knot_grid=grid)
        got = (fit.theta1, fit.theta2, fit.s, fit.sse)
        assert got == exhaustive_fit(data, T, grid), (kind, seed)
        blocks, pairs, gap = fit.search
        assert blocks >= 1 and pairs >= 0 and gap < 0.0, (kind, seed)


@given(st.integers(-900, 900), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_knots_bitwise_invariant_under_power_of_two_payout_scaling(k, seed):
    data, T, grid = oracle_instance("hinge", seed)
    f0 = fit_tlc(data, t_admissible=T, knot_grid=grid)
    scaled = [Episode(e.theta, math.ldexp(e.b, k)) for e in data]
    with np.errstate(over="ignore"):
        sse = float(np.ldexp(f0.sse, 2 * k))
    if not math.isfinite(sse):
        with pytest.raises(EstimationError, match="overflows"):
            fit_tlc(scaled, t_admissible=T, knot_grid=grid)
        return
    f1 = fit_tlc(scaled, t_admissible=T, knot_grid=grid)
    assert (f1.theta1, f1.theta2) == (f0.theta1, f0.theta2)
    assert (f1.s, f1.sse) == (float(np.ldexp(f0.s, k)), sse)


@st.composite
def dyadic_hinges(draw):
    """A noise-free hinge on shocks that are multiples of 1/64, with a T at or
    below its knots, both knots at observed shocks, one shock below theta1,
    two strictly between the knots and two above theta2, so that the hinge
    is the only exact fit."""
    ks = sorted(draw(st.lists(st.integers(0, 512), min_size=8, max_size=60, unique=True)))
    i1 = draw(st.integers(1, len(ks) - 6))
    i2 = draw(st.integers(i1 + 3, len(ks) - 3))
    T = draw(st.integers(0, ks[i1]))
    theta = np.array(ks) / 64
    s = draw(st.integers(1, 64)) / 16
    b = s * (np.clip(theta, theta[i1], theta[i2]) - theta[i1])
    delta = draw(st.integers(-min(T, ks[0]), 512)) / 64
    return theta, b, T / 64, delta


@given(dyadic_hinges())
@settings(max_examples=60, deadline=None)
def test_fit_moves_with_a_shock_shift_that_moves_t(hinge):
    # theta + delta and T + delta are exact on these dyadic shocks, so the
    # knots should move by delta and s and the SSE should not move at all;
    # the tolerances allow rounding only, far inside the knot grid's step
    theta, b, T, delta = hinge
    f0 = fit_tlc(EpisodeTable(theta, b), t_admissible=T)
    f1 = fit_tlc(EpisodeTable(theta + delta, b), t_admissible=T + delta)
    knot_tol = 1e-9
    assert knot_tol < f0.grid_resolution == f1.grid_resolution
    assert abs(f1.theta1 - (f0.theta1 + delta)) <= knot_tol
    assert abs(f1.theta2 - (f0.theta2 + delta)) <= knot_tol
    assert f1.s == pytest.approx(f0.s, rel=1e-12)
    assert abs(f1.sse - f0.sse) <= 1e-12 * float(b @ b)


def test_huge_payouts_keep_unit_scale_knots_or_raise():
    # b^2 overflowed in the gains and the SSE: knots (0, 0.0033), sse = inf
    th = np.linspace(0.0, 2.0, 300)
    unit = np.clip(th, 0.8, 1.6) - 0.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_tlc([Episode(t, 1e150 * v) for t, v in zip(th, unit)], t_admissible=0.0)
        assert (fit.theta1, fit.theta2) == (0.8, 1.6)
        assert math.isfinite(fit.sse) and fit.s == pytest.approx(1e150)
        with pytest.raises(EstimationError, match="overflows a float"):
            fit_tlc([Episode(t, 1e300 * v) for t, v in zip(th, unit)], t_admissible=0.0)


def test_search_counters_stay_out_of_equality_and_repr():
    data = synth(1.0, 0.5, 1.5, np.arange(0, 2.01, 0.1))
    fit = fit_tlc(data, t_admissible=0.0)
    assert len(fit.search) == 3 and "search" not in repr(fit)
    assert fit == TlcFit(**{**fit.__dict__, "search": ()})


def test_predict_matches_hinge():
    fit = fit_tlc(synth(1.0, 0.5, 1.5, np.arange(0, 2.01, 0.1)), t_admissible=0.0)
    grid = np.linspace(0, 2, 97)
    assert predict(grid, fit) == pytest.approx(hinge_eval(grid, 1.0, 0.5, 1.5), abs=1e-9)


# --- classification --------------------------------------------------------

# cutoffs 0.5 and 1.5, interior slope 1
FIT_STD = MechanismParams(1, 1, 0.5, T=0, b_bar=1, theta_bar=3)


def test_classify_against_schedule_matches_rule():
    p = MechanismParams(2, 4, 1, T=0.1, b_bar=0.5, theta_bar=3)
    th = np.linspace(0, 3, 50)
    data = [Episode(t, tlc_policy_linear(float(t), p)) for t in th]
    labels = classify_against_schedule(data, Schedule(p), tol=1e-9)
    cut = cutoffs(p)
    for e, lab in zip(data, labels):
        assert lab != "override"
        if e.theta < cut.theta_lo:
            assert lab == "zero"
        elif e.theta <= cut.theta_hi:
            assert lab == "interior"
        else:
            assert lab == "cap"


def test_classify_against_schedule_rejects_out_of_support():
    # a shock beyond theta_bar used to be clamped onto it and read as "cap"
    p = MechanismParams(2, 4, 1, T=0.1, b_bar=0.5, theta_bar=3)
    data = [Episode(1.0, 0.25), Episode(5.0, 0.5), Episode(4.0, 0.0)]
    with pytest.raises(ParameterError, match=r"episode 1: theta=5\.0"):
        classify_against_schedule(data, Schedule(p), tol=1e-9)


# --- override detection ----------------------------------------------------

def contaminated(shift=0.2, n=400, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    th = rng.uniform(0, 2, n)
    b = hinge_eval(th, 1.0, 0.5, 1.5)
    b = b + shift * (th > 1.5)
    b = np.maximum(b + rng.normal(0, noise, n), 0.0)
    return [Episode(t, v) for t, v in zip(th, b)]


def test_override_dummy_recovers_shift():
    data = contaminated(shift=0.2)
    rep = detect_override_shift(data, FIT_STD)
    assert rep.identified
    assert rep.dummy == pytest.approx(0.2, abs=0.02)
    assert not rep.slope_moved
    assert abs(rep.slope_refit - 1.0) / 1.0 < 0.05


def test_override_null_is_quiet():
    data = contaminated(shift=0.0)
    rep = detect_override_shift(data, FIT_STD)
    assert rep.identified
    assert abs(rep.dummy) <= 0.01


def test_override_not_identified_without_cap_data():
    data = [Episode(t, hinge_eval(t, 1.0, 0.5, 1.5)) for t in np.linspace(0, 1.4, 30)]
    rep = detect_override_shift(data, FIT_STD)
    assert not rep.identified
    assert not rep.slope_moved


# --- shift attribution -----------------------------------------------------

def fit_like(s, t1, t2, T=0.0, res=1e-6):
    return TlcFit(s=s, theta1=t1, theta2=t2, sse=0.0, n_obs=100,
                  t_admissible=T, grid_resolution=res)


def test_attribution_pure_cost_shift():
    att = attribute_shift(fit_like(1, 0.5, 1.5), fit_like(1, 0.7, 1.7),
                          omega_b=1.0, c=1.0)
    assert att.omega_T_identified
    assert att.implied_delta_omega_T == pytest.approx(0.2)
    assert att.implied_delta_b_bar == pytest.approx(0.0, abs=1e-12)
    assert att.bundle_consistent


def test_attribution_cap_tightening_with_pinned_theta1():
    before = fit_like(1, 0.4, 1.5, T=0.4)
    after = fit_like(1, 0.4, 1.2, T=0.4)
    att = attribute_shift(before, after, omega_b=1.0, c=1.0)
    assert not att.omega_T_identified
    assert att.implied_delta_b_bar == pytest.approx(-0.3)


def test_attribution_decomposition_identity():
    att = attribute_shift(fit_like(0.5, 0.5, 1.5), fit_like(0.5, 0.6, 1.9),
                          omega_b=2.0, c=4.0)
    assert att.delta_theta2 == pytest.approx(
        att.implied_domega_T_over_omega_b + att.implied_c_db_bar_over_omega_b, abs=1e-9
    )


def test_attribution_end_to_end_synthetic():
    p0 = MechanismParams(1, 1, 0.5, T=0.0, b_bar=1.0, theta_bar=3)
    d_omega, d_cap = 0.3, -0.2
    p1 = MechanismParams(1, 1, 0.5 + d_omega, T=0.0, b_bar=1.0 + d_cap, theta_bar=3)
    th = np.linspace(0, 3, 301)
    before = [Episode(t, tlc_policy_linear(float(t), p0)) for t in th]
    after = [Episode(t, tlc_policy_linear(float(t), p1)) for t in th]
    f0 = fit_tlc(before, t_admissible=0.0)
    f1 = fit_tlc(after, t_admissible=0.0)
    att = attribute_shift(f0, f1, omega_b=1.0, c=1.0)
    tol = f0.grid_resolution + f1.grid_resolution + 1e-9
    assert att.implied_delta_omega_T == pytest.approx(d_omega, abs=tol)
    assert att.implied_delta_b_bar == pytest.approx(d_cap, abs=2 * tol)


def test_attribution_announced_match():
    att = attribute_shift(fit_like(1, 0.5, 1.5), fit_like(1, 0.7, 1.7),
                          omega_b=1.0, c=1.0, announced=(0.2, 0.0))
    assert att.announced_match is True
    att2 = attribute_shift(fit_like(1, 0.5, 1.5), fit_like(1, 0.7, 1.7),
                           omega_b=1.0, c=1.0, announced=(0.0, 0.5))
    assert att2.announced_match is False
