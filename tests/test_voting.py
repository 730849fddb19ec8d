"""Weighted-consent aggregation and the cap it induces.

The finite-legislature breakpoint scan is the ground truth; the analytic
formula has to agree with it, including at atoms of the threshold
distribution (the one place the two generalized-inverse conventions differ).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bailrule import (
    DiscreteThreshold,
    FiniteLegislature,
    ParameterError,
    PoliticalCostSpec,
    UniformThreshold,
    WeightProfile,
    aggregate_support,
    bundle_check,
    consent_cap_analytic,
    empirical_cap,
    political_cost,
)


def two_rep_leg():
    return FiniteLegislature([0.3, 0.3], [0.4, 0.8], taxpayer_weight=0.4)


# --- analytic cap ----------------------------------------------------------

def test_cap_uniform_H():
    prof = WeightProfile(0.5, 0.25, UniformThreshold(0, 2), T=0.3)
    assert consent_cap_analytic(prof) == pytest.approx(0.3)  # 0.3 * H^-1(0.5)


def test_cap_quota_exceeds_bloc():
    prof = WeightProfile(0.5, 0.6, UniformThreshold(0, 2), T=0.3)
    assert consent_cap_analytic(prof) == 0.0


def test_cap_at_atom_matches_finite_scan():
    # Two-point H on {0.4, 0.8}, equal mass.  1 - tau/w_B = 0.5 sits exactly
    # on the atom boundary; the legislature scan says 0.8 passes, so the
    # analytic cap must use the convention that agrees with it.
    leg = two_rep_leg()
    assert empirical_cap(1.0, leg, tau=0.3) == pytest.approx(0.8)
    prof = WeightProfile(0.6, 0.3, DiscreteThreshold([0.4, 0.8], [0.5, 0.5]), T=1.0)
    assert consent_cap_analytic(prof) == pytest.approx(0.8)


def test_cap_monotone_in_quota_and_weight():
    H = UniformThreshold(0, 2)
    caps_tau = [
        consent_cap_analytic(WeightProfile(0.5, tau, H, T=1.0))
        for tau in np.linspace(0.05, 0.7, 14)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(caps_tau, caps_tau[1:]))
    caps_w = [
        consent_cap_analytic(WeightProfile(w, 0.25, H, T=1.0))
        for w in np.linspace(0.3, 1.0, 15)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(caps_w, caps_w[1:]))


# --- finite legislature ----------------------------------------------------

def test_aggregate_support_enumeration():
    leg = two_rep_leg()
    assert aggregate_support(0.5, 1.0, leg) == pytest.approx(0.3)
    assert aggregate_support(0.0, 1.0, leg) == pytest.approx(0.6)
    assert aggregate_support(0.81, 1.0, leg) == 0.0


def test_empirical_cap_enumeration():
    leg = two_rep_leg()
    assert empirical_cap(1.0, leg, tau=0.3) == pytest.approx(0.8)
    assert empirical_cap(1.0, leg, tau=0.5) == pytest.approx(0.4)
    assert empirical_cap(1.0, leg, tau=0.7) == 0.0


def test_theta_zero_convention():
    leg = two_rep_leg()
    assert aggregate_support(0.5, 0.0, leg) == 0.0
    assert aggregate_support(0.0, 0.0, leg) == pytest.approx(0.6)
    assert empirical_cap(0.0, leg, tau=0.3) == 0.0


def test_quota_tie_passes():
    leg = two_rep_leg()
    # at b = 0.8 exactly one rep (weight 0.3) supports: Y = tau = 0.3 passes
    assert empirical_cap(1.0, leg, tau=0.3) == pytest.approx(0.8)


def test_non_finite_shock_or_transfer_is_refused():
    # these returned nan, inf, 0.6 (every member voting yes) and 0.0
    leg = FiniteLegislature([0.3, 0.3], [0.4, 0.8], 0.4)
    nan, inf = float("nan"), float("inf")
    for fn, args, message in [
        (empirical_cap, (nan, leg, 0.3), "theta must be finite and >= 0, got nan"),
        (empirical_cap, (inf, leg, 0.3), "theta must be finite and >= 0, got inf"),
        (aggregate_support, (0.5, nan, leg), "theta must be finite and >= 0, got nan"),
        (aggregate_support, (nan, 1.0, leg), "b must be finite and >= 0, got nan"),
    ]:
        with pytest.raises(ParameterError, match=message):
            fn(*args)


def test_legislature_validation():
    with pytest.raises(ParameterError):
        FiniteLegislature([0.3, 0.3], [0.4, 0.8], taxpayer_weight=0.2)  # sums to 0.8
    with pytest.raises(ParameterError):
        FiniteLegislature([0.5, 0.5], [0.4, -0.1], taxpayer_weight=0.0)


legislatures = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n),
        st.floats(0.0, 1.0),
    )
)


def normalize(raw):
    raw_w, xs, t_raw = raw
    total = sum(raw_w) + t_raw
    return FiniteLegislature([w / total for w in raw_w], xs, t_raw / total)


@given(legislatures, st.floats(0.01, 1.0), st.floats(0.01, 3.0), st.floats(0.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_cap_representation_iff(raw, tau, theta, b):
    leg = normalize(raw)
    cap = empirical_cap(theta, leg, tau)
    passes = aggregate_support(b, theta, leg) >= tau
    if b > 0:
        assert passes == (b <= cap)
    else:
        # a zero transfer needs no vote; all cap = 0 claims is that nothing
        # positive passes, which failing even at b = 0 certainly implies
        assert passes or cap == 0.0


@given(legislatures, st.floats(0.01, 1.0), st.floats(0.01, 3.0))
@settings(max_examples=200, deadline=None)
def test_cap_representation_exact_at_the_cap(raw, tau, theta):
    # the boundary point itself must pass (sup is attained; ties pass)
    leg = normalize(raw)
    cap = empirical_cap(theta, leg, tau)
    if cap > 0:
        assert aggregate_support(cap, theta, leg) >= tau


@given(legislatures, st.floats(0.01, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_support_monotonicity(raw, theta, b, db, dtheta):
    leg = normalize(raw)
    y = aggregate_support(b, theta, leg)
    assert aggregate_support(b + db, theta, leg) <= y + 1e-15
    assert aggregate_support(b, theta + dtheta, leg) >= y - 1e-15


@given(legislatures, st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_support_monotone_with_no_slack(raw, theta, b, db, dtheta):
    # the suffix sums are summed once, in threshold order, whatever theta is
    leg = normalize(raw)
    y = aggregate_support(b, theta, leg)
    assert aggregate_support(b + db, theta, leg) <= y
    assert aggregate_support(b, theta + dtheta, leg) >= y


# Weights in units of 1/64 sum exactly in any order, so a vote count in plain
# Python is an exact oracle; thresholds repeat, and weights may be zero.
dyadic_legislatures = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 8), min_size=n, max_size=n),
        st.lists(st.one_of(st.sampled_from([0.0, 0.4, 0.8, 1.3]), st.floats(0.0, 2.0)),
                 min_size=n, max_size=n),
    )
)


def brute_support(b, theta, weights, xs):
    return sum(w for w, x in zip(weights, xs) if b <= x * theta)


def brute_cap(theta, weights, xs, tau):
    passing = [x * theta for x in xs if brute_support(x * theta, theta, weights, xs) >= tau]
    return max(passing, default=0.0)


@given(dyadic_legislatures, st.one_of(st.integers(1, 64).map(lambda j: j / 64),
                                      st.floats(0.001, 1.0)),
       st.one_of(st.just(0.0), st.floats(0.0, 3.0)), st.floats(0.0, 3.0))
@example(([16, 0, 16, 16, 16], [0.4, 0.4, 0.8, 0.8, 1.3]), 1.0, 1.5, 0.6)
@example(([16, 0, 16, 16, 16], [0.4, 0.4, 0.8, 0.8, 1.3]), 1.0, 0.0, 0.0)
@example(([0, 4, 4], [0.8, 0.8, 0.4]), 8 / 64, 1.0, 0.8)
@settings(max_examples=300, deadline=None)
def test_cap_and_support_match_a_brute_vote_count(raw, tau, theta, b):
    units, xs = raw
    weights = [u / 64 for u in units]
    leg = FiniteLegislature(weights, xs, 1 - sum(units) / 64)
    assert empirical_cap(theta, leg, tau) == brute_cap(theta, weights, xs, tau)
    for bb in (b, *(x * theta for x in xs)):
        assert aggregate_support(bb, theta, leg) == brute_support(bb, theta, weights, xs)


def test_legislature_keeps_read_only_copies():
    w, x = np.array([0.3, 0.3]), np.array([0.4, 0.8])
    leg = FiniteLegislature(w, x, taxpayer_weight=0.4)
    cap = empirical_cap(1.0, leg, tau=0.3)
    w[:], x[:] = 0.0, 5.0
    assert empirical_cap(1.0, leg, tau=0.3) == cap == 0.8
    assert aggregate_support(0.5, 1.0, leg) == 0.3
    for arr in (leg.thresholds, leg.weights):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_convergence_to_analytic_cap():
    # N equal-weight draws from a continuous H reproduce the analytic cap
    H = UniformThreshold(0.0, 2.0)
    prof = WeightProfile(0.6, 0.25, H, T=1.0)
    n = 100_000
    xs = H.sample(n, np.random.default_rng(2024))
    leg = FiniteLegislature(np.full(n, 0.6 / n), xs, taxpayer_weight=0.4)
    assert empirical_cap(1.0, leg, prof.tau) == pytest.approx(
        consent_cap_analytic(prof), abs=0.01
    )


# --- political cost --------------------------------------------------------

def test_political_cost_values():
    assert political_cost(PoliticalCostSpec(0.1, 0.0), 0.9) == pytest.approx(0.1)
    assert political_cost(PoliticalCostSpec(0.0, 1.0), 0.4) == pytest.approx(0.4)


@given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=100)
def test_political_cost_monotone_in_salience(l0, l1, s1, s2):
    lo, hi = sorted((s1, s2))
    spec = PoliticalCostSpec(l0, l1)
    assert political_cost(spec, lo) <= political_cost(spec, hi) + 1e-12


# --- bundle gate -----------------------------------------------------------

def test_bundle_check_cases():
    assert bundle_check((1, 0.5), (1.2, 0.4))
    assert not bundle_check((1, 0.5), (1.2, 0.6))
    assert bundle_check((1, 0.5), (0.9, 0.6))
