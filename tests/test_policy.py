"""Core policy layer: cutoffs, closed-form and KKT solvers, statics, wedges.

Derived expectations are checked against independent oracles implemented
here (grid argmax over b, finite differences, quadrature) rather than
against the package's own formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bailrule import (
    MarginalBenefit,
    MechanismParams,
    NumericalInconsistencyError,
    ParameterError,
    PiecewiseRegimeError,
    UniformShock,
    activation_derivative,
    comparative_statics,
    cutoffs,
    delta_theta_hi,
    knife_edge,
    screened_payout,
    tlc_policy_general,
    tlc_policy_linear,
    welfare_wedge_shift,
)

CANON = MechanismParams(omega_b=2, c=4, omega_T=1, T=0.1, b_bar=0.5, theta_bar=3)


def grid_argmax_b(theta, p, n=100_001):
    # independent oracle: brute-force the payout objective on [0, b_bar]
    hi = p.b_bar if math.isfinite(p.b_bar) else max(1.0, 2 * (p.omega_b * theta - p.omega_T) / p.c)
    grid = np.linspace(0.0, hi, n)
    obj = (p.omega_b * theta - p.omega_T) * grid - 0.5 * p.c * grid * grid
    if theta < p.T:
        return 0.0
    return float(grid[np.argmax(obj)])


# --- params strategy -------------------------------------------------------

def params_st(allow_inf_cap=False):
    caps = st.floats(0.0, 5.0)
    if allow_inf_cap:
        caps = st.one_of(caps, st.just(math.inf))
    return st.builds(
        lambda omega_b, c, omega_T, t_frac, b_bar, theta_bar: MechanismParams(
            omega_b=omega_b, c=c, omega_T=omega_T,
            T=t_frac * theta_bar, b_bar=b_bar, theta_bar=theta_bar,
        ),
        omega_b=st.floats(0.05, 10.0),
        c=st.floats(0.05, 10.0),
        omega_T=st.floats(0.0, 10.0),
        t_frac=st.floats(0.0, 1.0),
        b_bar=caps,
        theta_bar=st.floats(0.1, 10.0),
    )


# --- cutoffs ---------------------------------------------------------------

def test_cutoffs_canonical():
    cut = cutoffs(CANON)
    assert cut.theta_lo == pytest.approx(0.5)
    assert cut.theta_hi == pytest.approx(1.5)


def test_cutoffs_threshold_dominates():
    p = MechanismParams(1, 1, 0, T=0.3, b_bar=1, theta_bar=2)
    cut = cutoffs(p)
    assert cut.theta_lo == 0.3
    assert cut.theta_hi == 1.0


def test_cutoffs_zero_cap_collapses():
    p = MechanismParams(1, 1, 0.5, T=0.2, b_bar=0, theta_bar=2)
    cut = cutoffs(p)
    assert cut.theta_lo == cut.theta_hi == 0.5


def test_cutoffs_infinite_cap():
    p = MechanismParams(1, 1, 0.5, T=0.0, b_bar=math.inf, theta_bar=2)
    assert cutoffs(p).theta_hi == math.inf


def test_params_validation():
    with pytest.raises(ParameterError):
        MechanismParams(-1, 1, 0, 0, 1, 1)
    with pytest.raises(ParameterError):
        MechanismParams(1, 0, 0, 0, 1, 1)
    with pytest.raises(ParameterError):
        MechanismParams(1, 1, -0.1, 0, 1, 1)
    with pytest.raises(ParameterError):
        MechanismParams(1, 1, 0, T=2.5, b_bar=1, theta_bar=2)
    with pytest.raises(ParameterError):
        MechanismParams(1, 1, 0, 0, b_bar=-1, theta_bar=2)
    with pytest.raises(ParameterError):
        MechanismParams(1, 1, 0, 0, 1, theta_bar=math.inf)
    with pytest.raises(ParameterError):
        MechanismParams(math.inf, 1, 0, 0, 1, 1)
    with pytest.raises(ParameterError):
        MechanismParams(1, math.inf, 0, 0, 1, 1)
    with pytest.raises(ParameterError):
        MechanismParams(1, 1, math.inf, 0, 1, 1)
    MechanismParams(1, 1, 0, 0, b_bar=math.inf, theta_bar=1)  # uncapped stays legal


# --- closed-form policy ----------------------------------------------------

def test_policy_interior_value():
    assert tlc_policy_linear(1.0, CANON) == pytest.approx(0.25)


def test_policy_below_activation():
    assert tlc_policy_linear(0.3, CANON) == 0.0


def test_policy_cap_binds_vs_grid_oracle():
    oracle = grid_argmax_b(2.0, CANON)
    assert oracle == pytest.approx(0.5, abs=1e-5)
    assert tlc_policy_linear(2.0, CANON) == 0.5


def test_policy_domain_error():
    with pytest.raises(ParameterError):
        tlc_policy_linear(-0.1, CANON)
    with pytest.raises(ParameterError):
        tlc_policy_linear(3.5, CANON)


def test_policy_vectorized_matches_scalar():
    thetas = np.linspace(0, 3, 37)
    vec = tlc_policy_linear(thetas, CANON)
    assert vec.shape == thetas.shape
    for t, v in zip(thetas, vec):
        assert v == tlc_policy_linear(float(t), CANON)


@given(params_st(allow_inf_cap=True), st.floats(0.0, 1.0))
@example(MechanismParams(1.0, 1.0, omega_T=0.0, T=0.0, b_bar=1.0, theta_bar=1.0), 0.5)
@example(MechanismParams(2.0, 4.0, omega_T=1.0, T=0.1, b_bar=math.inf, theta_bar=3.0), 0.5)
@settings(max_examples=300, deadline=None)
def test_scalar_path_is_the_array_path_bitwise(p, frac):
    # -0.0 with omega_T = 0 pays -0.0 on both paths
    cut = cutoffs(p)
    thetas = [0.0, -0.0, p.T, cut.theta_lo, cut.theta_hi, p.theta_bar, frac * p.theta_bar]
    thetas = [t for t in thetas if t <= p.theta_bar]
    inputs = [*thetas, *map(np.float64, thetas), *range(int(p.theta_bar) + 1)]
    scalar = [tlc_policy_linear(t, p) for t in inputs]
    assert all(type(v) is float for v in scalar)
    assert np.array(scalar).tobytes() == tlc_policy_linear(np.array(inputs, dtype=float), p).tobytes()


@given(params_st(allow_inf_cap=True))
@settings(max_examples=100, deadline=None)
def test_out_of_support_shock_raises_alike_on_every_path(p):
    g = MarginalBenefit(lambda b, theta: p.omega_b * theta)
    want = f"theta must lie in [0, theta_bar]=[0, {p.theta_bar}]"
    for bad in (math.nan, -0.1, np.float64(-1e-300), np.nextafter(p.theta_bar, math.inf)):
        for call in (
            lambda: tlc_policy_linear(bad, p),
            lambda: tlc_policy_linear(np.asarray(bad), p),
            lambda: tlc_policy_linear(np.array([0.0, bad]), p),
            lambda: tlc_policy_general(bad, g, p),
        ):
            with pytest.raises(ParameterError) as err:
                call()
            assert str(err.value) == want


@given(params_st(allow_inf_cap=True), st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_projection_identity(p, frac):
    theta = frac * p.theta_bar
    b = tlc_policy_linear(theta, p)
    if theta < p.T:
        assert b == 0.0
    else:
        want = min(max((p.omega_b * theta - p.omega_T) / p.c, 0.0), p.b_bar)
        assert b == want


@given(params_st(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_policy_monotone_in_theta(p, f1, f2):
    t1, t2 = sorted((f1 * p.theta_bar, f2 * p.theta_bar))
    assert tlc_policy_linear(t1, p) <= tlc_policy_linear(t2, p) + 1e-15


@given(params_st(), st.floats(0.0, 1.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_policy_monotone_in_omega_T_and_cap(p, frac, d_omega, d_cap):
    theta = frac * p.theta_bar
    base = tlc_policy_linear(theta, p)
    from dataclasses import replace
    costlier = replace(p, omega_T=p.omega_T + d_omega)
    looser = replace(p, b_bar=p.b_bar + d_cap)
    assert tlc_policy_linear(theta, costlier) <= base + 1e-15
    assert tlc_policy_linear(theta, looser) >= base - 1e-15


@given(params_st(), st.floats(0.0, 1.0), st.floats(1e-9, 0.1))
@settings(max_examples=200, deadline=None)
def test_policy_lipschitz_above_T(p, frac, eps):
    # only permitted jump is at theta = T itself
    theta = p.T + frac * (p.theta_bar - p.T)
    theta2 = min(theta + eps, p.theta_bar)
    d = abs(tlc_policy_linear(theta2, p) - tlc_policy_linear(theta, p))
    assert d <= (p.omega_b / p.c) * (theta2 - theta) + 1e-9


@given(params_st(), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_policy_matches_grid_oracle(p, frac):
    theta = frac * p.theta_bar
    b = tlc_policy_linear(theta, p)
    oracle = grid_argmax_b(theta, p, n=20_001)
    hi = p.b_bar if math.isfinite(p.b_bar) else max(1.0, 2 * (p.omega_b * theta - p.omega_T) / p.c)
    assert abs(b - oracle) <= hi / 20_000 + 1e-6


# --- general concave solver ------------------------------------------------

def hyperbolic_g():
    return MarginalBenefit(
        fn=lambda b, theta: theta / (1.0 + b),
        concave_in_b=True,
        increasing_in_theta=True,
    )


def test_general_interior_root():
    # analytic root of theta/(1+b) = b  =>  b = (-1 + sqrt(1+4 theta))/2
    p = MechanismParams(1, 1, 0, T=0, b_bar=10, theta_bar=5)
    want = (-1 + math.sqrt(1 + 4 * 2.0)) / 2
    assert want == pytest.approx(1.0)
    assert tlc_policy_general(2.0, hyperbolic_g(), p) == pytest.approx(1.0, abs=1e-9)


def test_general_cap_branch():
    p = MechanismParams(1, 1, 0, T=0, b_bar=0.5, theta_bar=5)
    assert tlc_policy_general(2.0, hyperbolic_g(), p) == 0.5


def test_general_zero_branch():
    p = MechanismParams(1, 1, omega_T=3.0, T=0, b_bar=10, theta_bar=5)
    # G(0, theta) = theta < omega_T
    assert tlc_policy_general(2.0, hyperbolic_g(), p) == 0.0


def test_general_linear_specializes_to_closed_form():
    g = MarginalBenefit(
        fn=lambda b, theta: CANON.omega_b * theta,
        concave_in_b=True,
        increasing_in_theta=True,
    )
    for theta in np.linspace(0, 3, 61):
        assert tlc_policy_general(float(theta), g, CANON) == pytest.approx(
            tlc_policy_linear(float(theta), CANON), abs=1e-9
        )


def test_general_infinite_cap():
    p = MechanismParams(1, 1, 0, T=0, b_bar=math.inf, theta_bar=5)
    b = tlc_policy_general(2.0, hyperbolic_g(), p)
    assert b == pytest.approx(1.0, abs=1e-9)


def test_general_foc_residual():
    p = MechanismParams(1.5, 2.0, 0.3, T=0, b_bar=4.0, theta_bar=6)
    g = hyperbolic_g()
    rng = np.random.default_rng(5)
    for theta in rng.uniform(0, 6, 50):
        b = tlc_policy_general(float(theta), g, p)
        if 0 < b < p.b_bar:
            assert abs(g(b, theta) - p.omega_T - p.c * b) <= 1e-8
        elif b == 0.0:
            assert g(0.0, theta) <= p.omega_T + 1e-12 or theta < p.T
        else:
            assert g(b, theta) >= p.omega_T + p.c * b - 1e-12


def test_general_bad_monotonicity_detected():
    # increasing in b violates the declared shape; bracket check should trip
    g = MarginalBenefit(fn=lambda b, theta: 1.0 + b, concave_in_b=True,
                        increasing_in_theta=True)
    p = MechanismParams(1, 1, 0, T=0, b_bar=math.inf, theta_bar=5)
    with pytest.raises(NumericalInconsistencyError):
        tlc_policy_general(2.0, g, p)


# --- knife edge ------------------------------------------------------------

def test_knife_edge_cost_dominates():
    assert knife_edge(MechanismParams(1, 1, 3, T=0, b_bar=1, theta_bar=2))


def test_knife_edge_zero_cap():
    assert knife_edge(MechanismParams(1, 1, 1, T=0, b_bar=0, theta_bar=2))


def test_knife_edge_false_has_positive_policy():
    p = MechanismParams(1, 1, 1, T=0, b_bar=1, theta_bar=2)
    assert not knife_edge(p)
    grid = np.linspace(0, 2, 10_000)
    assert tlc_policy_linear(grid, p).max() > 0


@given(params_st())
@settings(max_examples=200, deadline=None)
def test_knife_edge_iff_grid_zero(p):
    grid = np.linspace(0, p.theta_bar, 10_000)
    assert knife_edge(p) == bool(tlc_policy_linear(grid, p).max() == 0.0)


# --- comparative statics ---------------------------------------------------

def test_statics_slope():
    assert comparative_statics(CANON).db_dtheta == pytest.approx(0.5)


def test_delta_theta_hi_bundle():
    p = MechanismParams(1, 1, 0.5, T=0, b_bar=1, theta_bar=5)
    assert delta_theta_hi(p, 0.2, -0.1) == pytest.approx(0.1)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def _unclamped(p, margin=1e-3):
    # theta_hi formula applies only away from the max() clamps
    formula = (p.omega_T + p.c * p.b_bar) / p.omega_b
    return formula > max(p.T, p.omega_T / p.omega_b) + margin


@given(params_st())
@settings(max_examples=100, deadline=None)
def test_statics_match_finite_differences(p):
    from dataclasses import replace
    cs = comparative_statics(p)

    q = replace(p, omega_T=p.omega_T + 1.0)  # shift off the zero boundary
    if _unclamped(q):
        fd_hi_omega = central_diff(lambda w: cutoffs(replace(p, omega_T=w)).theta_hi,
                                   q.omega_T)
        assert abs(cs.dtheta_hi_domega_T - fd_hi_omega) <= 1e-4

    q = replace(p, b_bar=p.b_bar + 1.0)
    if _unclamped(q):
        fd_hi_cap = central_diff(lambda b: cutoffs(replace(p, b_bar=b)).theta_hi,
                                 q.b_bar)
        assert abs(cs.dtheta_hi_db_bar - fd_hi_cap) <= 1e-4

    # interior slope via the policy itself, at a strictly interior theta if any
    cut = cutoffs(p)
    lo, hi = cut.theta_lo, min(cut.theta_hi, p.theta_bar)
    if hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        fd_slope = central_diff(lambda t: tlc_policy_linear(t, p), mid)
        assert abs(cs.db_dtheta - fd_slope) <= 1e-4


def test_statics_theta_lo_regimes():
    binding = MechanismParams(1, 1, 0.5, T=0.2, b_bar=1, theta_bar=2)   # omega ratio wins
    assert comparative_statics(binding).dtheta_lo_domega_T == 1.0
    pinned = MechanismParams(1, 1, 0.1, T=0.8, b_bar=1, theta_bar=2)    # T wins
    assert comparative_statics(pinned).dtheta_lo_domega_T == 0.0


# --- welfare wedge ---------------------------------------------------------

def test_wedge_values():
    w = welfare_wedge_shift(CANON, lambda_soc=0.6)
    assert w.wedge == pytest.approx(0.4)
    assert w.cutoff_shift == pytest.approx(0.2)


def test_wedge_zero_when_aligned():
    assert welfare_wedge_shift(CANON, lambda_soc=CANON.omega_T).cutoff_shift == 0.0


@given(params_st(), st.floats(0.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_wedge_matches_cutoff_recompute(p, lam):
    from dataclasses import replace
    w = welfare_wedge_shift(p, lam)
    social = cutoffs(replace(p, omega_T=lam))
    private = cutoffs(p)
    # shift applies exactly where neither max-clamp binds
    if lam / p.omega_b > p.T and p.omega_T / p.omega_b > p.T:
        assert private.theta_lo - social.theta_lo == pytest.approx(w.cutoff_shift, abs=1e-9)
    assert w.social_cutoffs.theta_lo == social.theta_lo
    assert w.social_cutoffs.theta_hi == social.theta_hi


# --- activation derivative -------------------------------------------------

def test_activation_derivative_uniform():
    p = MechanismParams(1, 1, 0.2, T=0.4, b_bar=10, theta_bar=1)
    d = activation_derivative(p, UniformShock(1.0))
    assert d == pytest.approx(-0.2)


def test_activation_derivative_boundary_zero():
    p = MechanismParams(1, 1, 0.4, T=0.4, b_bar=10, theta_bar=1)
    assert activation_derivative(p, UniformShock(1.0)) == pytest.approx(0.0)


def test_activation_derivative_matches_quadrature():
    p = MechanismParams(1, 1, 0.2, T=0.4, b_bar=10, theta_bar=1)
    dist = UniformShock(1.0)

    def mean_payout(T):
        from dataclasses import replace
        grid = np.linspace(0, 1, 1_000_001)
        vals = tlc_policy_linear(grid, replace(p, T=T))
        return float(np.trapezoid(vals * dist.pdf(grid), grid))

    fd = (mean_payout(0.4 + 1e-4) - mean_payout(0.4 - 1e-4)) / 2e-4
    assert abs(activation_derivative(p, dist) - fd) <= 1e-3


def test_activation_derivative_regime_errors():
    # T below omega_T/omega_b: formula regime does not apply
    p = MechanismParams(1, 1, 0.5, T=0.2, b_bar=10, theta_bar=1)
    with pytest.raises(PiecewiseRegimeError):
        activation_derivative(p, UniformShock(1.0))
    # cap binding right at T
    p2 = MechanismParams(1, 1, 0.0, T=0.5, b_bar=0.0, theta_bar=1)
    with pytest.raises(PiecewiseRegimeError):
        activation_derivative(p2, UniformShock(1.0))


# --- screening bridge ------------------------------------------------------

def test_screened_payout_values():
    assert screened_payout(0.3, 1.0, CANON) == pytest.approx(0.25)
    assert screened_payout(0.1, 1.0, CANON) == pytest.approx(0.1)


def test_screened_payout_infinite_cap_is_identity():
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0, 3, 200):
        assert screened_payout(math.inf, theta, CANON) == tlc_policy_linear(theta, CANON)


def test_screened_payout_negative_beta():
    with pytest.raises(ParameterError):
        screened_payout(-0.1, 1.0, CANON)
