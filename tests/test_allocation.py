"""Treasury-constrained allocation via a common shadow price."""

import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bailrule import (
    AllocationProblem,
    MechanismParams,
    ParameterError,
    allocate,
    allocation_objective,
    cap_ordering_report,
    cutoffs,
    kkt_residuals,
    tlc_policy_linear,
)


def muni(omega_b=1.0, c=1.0, omega_T=0.0, T=0.0, b_bar=10.0, theta_bar=10.0):
    return MechanismParams(omega_b, c, omega_T, T, b_bar, theta_bar)


def two_city(B):
    return AllocationProblem(((muni(), 1.0), (muni(), 2.0)), treasury_limit=B)


def brute_lambda(problem, n=4_000_001):
    # independent oracle: scan a dense lambda grid for the budget-clearing price
    lams = np.linspace(0.0, max(p.omega_b * t for p, t in problem.municipalities), n)
    total = np.zeros(n)
    for p, t in problem.municipalities:
        b = np.clip((p.omega_b * t - (p.omega_T + lams)) / p.c, 0.0, p.b_bar)
        total += np.where(t >= p.T, b, 0.0)
    return float(lams[np.argmin(np.abs(total - problem.treasury_limit))])


GridBest = namedtuple("GridBest", "allocations objective grid_steps")


def grid_oracle(problem, points_per_axis):
    # brute-force reference maximizer on the box grid [0, local optimum] per
    # municipality, budget-infeasible combos discarded; exponential in the
    # number of municipalities, so keep that at three or fewer
    axes = [np.linspace(0.0, tlc_policy_linear(t, p), points_per_axis)
            for p, t in problem.municipalities]
    steps = tuple(ax[1] - ax[0] if len(ax) > 1 else 0.0 for ax in axes)
    grids = np.meshgrid(*axes, indexing="ij")
    total = np.zeros_like(grids[0])
    objective = np.zeros_like(grids[0])
    for (p, theta), g in zip(problem.municipalities, grids):
        total += g
        objective += (p.omega_b * theta - p.omega_T) * g - 0.5 * p.c * g * g
    objective = np.where(total <= problem.treasury_limit + 1e-12, objective, -np.inf)
    idx = np.unravel_index(int(np.argmax(objective)), objective.shape)
    best = tuple(float(ax[i]) for ax, i in zip(axes, idx))
    return GridBest(best, float(objective[idx]), steps)


def clearing_lambda(problem):
    # independent oracle: municipality i demands clip((m_i - lam) / c_i, 0,
    # b_bar_i) with m_i = omega_b * theta - omega_T, nothing below its
    # threshold.  Walk the kink segments left to right; on each the interior
    # set is fixed and demand = B is one linear equation.
    live = [
        (p.omega_b * t - p.omega_T, p.c, p.b_bar)
        for p, t in problem.municipalities
        if t >= p.T
    ]
    B = problem.treasury_limit
    if sum(min(max(m / c, 0.0), bb) for m, c, bb in live) <= B:
        return 0.0
    kinks = sorted({0.0} | {k for m, c, bb in live for k in (m, m - c * bb) if k >= 0.0})
    for lo, hi in zip(kinks, kinks[1:] + [math.inf]):
        mid = 0.5 * (lo + hi) if hi < math.inf else lo + 1.0
        interior = [(m, c) for m, c, bb in live if m - c * bb < mid < m]
        capped = sum(bb for m, c, bb in live if m - c * bb >= mid)
        if not interior:
            if capped <= B:
                return lo
            continue
        lam = (sum(m / c for m, c in interior) + capped - B) / sum(1.0 / c for _, c in interior)
        if lam <= hi:
            return max(lam, lo)
    raise AssertionError("demand never clears the budget")


def mixed_problem(rng, n):
    # T-gated shocks, closed (b_bar = 0), uncapped and ordinary caps
    munis = []
    for _ in range(n):
        theta_bar = rng.uniform(1.0, 4.0)
        b_bar = (0.0, math.inf, rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5))[rng.integers(4)]
        p = muni(
            omega_b=rng.uniform(0.2, 3.0), c=rng.uniform(0.2, 4.0),
            omega_T=rng.uniform(0.0, 1.0), T=rng.uniform(0.0, 0.5) * theta_bar,
            b_bar=b_bar, theta_bar=theta_bar,
        )
        munis.append((p, rng.uniform(0.0, theta_bar)))
    unconstrained = sum(tlc_policy_linear(t, p) for p, t in munis)
    return AllocationProblem(tuple(munis), rng.uniform(0.0, 1.2) * unconstrained)


def test_exact_price_matches_piecewise_linear_oracle():
    rng = np.random.default_rng(2024)
    binding = 0
    for _ in range(300):
        drawn = mixed_problem(rng, int(rng.integers(1, 25)))
        # B = 0 prices at the last live kink, where rounding in the kernel
        # can leave a sliver of demand that must not push the price onward
        empty = AllocationProblem(drawn.municipalities, treasury_limit=0.0)
        for prob in (drawn, empty):
            res = allocate(prob)
            got = res.lambda_B
            want = clearing_lambda(prob)
            assert abs(got - want) <= 1e-12 * max(1.0, want)
            binding += want > 0.0
            # the array pass equals the scalar rule at the shifted cost
            scalar = [tlc_policy_linear(t, replace(p, omega_T=p.omega_T + got))
                      for p, t in prob.municipalities]
            assert res.allocations == tuple(scalar)
            assert res.flags == tuple(
                "zero" if b == 0.0 else "cap" if b == p.b_bar
                else "budget" if got > 0.0 else "interior"
                for (p, _), b in zip(prob.municipalities, scalar)
            )
    assert binding >= 400


def test_flat_demand_at_budget_returns_smallest_price():
    # demand is 1.5 - lam on [0, 1], then flat at 0.5 (south sits at its cap)
    # until lam = 1.5; every price in [1, 1.5] clears B = 0.5
    prob = AllocationProblem(((muni(), 1.0), (muni(b_bar=0.5), 2.0)), treasury_limit=0.5)
    res = allocate(prob)
    assert res.lambda_B == pytest.approx(1.0, abs=1e-12)
    assert res.allocations == pytest.approx((0.0, 0.5), abs=1e-12)


def test_worked_binding_instance():
    res = allocate(two_city(1.0))
    assert res.lambda_B == pytest.approx(1.0, abs=1e-9)
    assert res.allocations[0] == pytest.approx(0.0, abs=1e-9)
    assert res.allocations[1] == pytest.approx(1.0, abs=1e-9)


def test_worked_instance_against_lambda_scan():
    got = allocate(two_city(1.0)).lambda_B
    want = brute_lambda(two_city(1.0), n=200_001)
    assert got == pytest.approx(want, abs=2e-5)  # scan resolution


def test_slack_budget():
    res = allocate(two_city(5.0))
    assert res.lambda_B == 0.0
    assert res.allocations == pytest.approx((1.0, 2.0))
    assert res.flags == ("interior", "interior")


def test_empty_budget():
    res = allocate(two_city(0.0))
    assert res.allocations == (0.0, 0.0)
    assert res.total == 0.0
    assert res.lambda_B * (0.0 - res.total) <= 1e-9


def test_negative_budget_rejected():
    with pytest.raises(ParameterError):
        AllocationProblem(((muni(), 1.0),), treasury_limit=-1.0)


@pytest.mark.parametrize("munis, message", [
    ((), "need at least one municipality"),
    ((((1.0, 1.0, 0.0, 0.0, 10.0, 10.0), 1.0),), "each municipality needs MechanismParams"),
    (((muni(theta_bar=4.0), 5.0),), r"theta must lie in \[0, theta_bar\]=\[0, 4\.0\]"),
    (((muni(), math.nan),), r"theta must lie in \[0, theta_bar\]"),
], ids=["empty", "not-params", "shock-above-support", "nan-shock"])
def test_allocation_problem_refusals(munis, message):
    with pytest.raises(ParameterError, match=message):
        AllocationProblem(munis, treasury_limit=1.0)


def test_cap_flags():
    tight = replace(muni(), b_bar=0.3)
    prob = AllocationProblem(((tight, 2.0), (muni(), 2.0)), treasury_limit=5.0)
    res = allocate(prob)
    assert res.flags[0] == "cap"
    assert res.allocations[0] == 0.3


def test_kkt_certificate_flags_perturbed_results():
    # three interior municipalities under a binding budget
    munis = ((muni(), 2.0), (muni(), 3.0), (muni(c=2.0), 3.0))
    prob = AllocationProblem(munis, treasury_limit=2.0)
    res = allocate(prob)
    assert res.lambda_B > 0.0 and set(res.flags) == {"budget"}
    assert kkt_residuals(prob, res).within(1e-9)

    moved = list(res.allocations)
    moved[0] -= 0.01
    moved[1] += 0.01
    kkt = kkt_residuals(prob, replace(res, allocations=tuple(moved)))
    assert kkt.budget_excess <= 1e-9  # the total is unchanged
    # the first gap moves by 0.01 on the scale omega_b * theta = 2
    assert kkt.stationarity >= 0.01 / 2 - 1e-12
    assert not kkt.within(1e-9)

    off = kkt_residuals(prob, replace(res, lambda_B=res.lambda_B + 1e-3))
    assert off.stationarity >= 1e-3 / 2 - 1e-12
    assert not off.within(1e-9)


@pytest.mark.parametrize("unit", [1e3, 1e4])
def test_kkt_certificate_holds_in_large_money_units(unit):
    # the same economy in a smaller unit of money: benefits, political costs,
    # caps and budget grow by `unit`, and so does the rounding in the solve
    base = mixed_problem(np.random.default_rng(17), 20_000)
    prob = AllocationProblem(
        tuple(
            (replace(p, omega_b=p.omega_b * unit, omega_T=p.omega_T * unit,
                     b_bar=p.b_bar * unit), t)
            for p, t in base.municipalities
        ),
        base.treasury_limit * unit,
    )
    res = allocate(prob)
    assert res.lambda_B > 0.0
    assert kkt_residuals(prob, res).within(1e-9)


def test_kkt_certificate_gated_and_closed_municipalities():
    gated = muni(T=1.5)
    closed = muni(b_bar=0.0)
    prob = AllocationProblem(((gated, 1.0), (closed, 2.0), (muni(), 2.0)), treasury_limit=1.0)
    res = allocate(prob)
    assert res.allocations[:2] == (0.0, 0.0)
    assert kkt_residuals(prob, res).within(1e-9)
    # paying the gated municipality at all breaks the certificate
    paid = replace(res, allocations=(1e-6,) + res.allocations[1:])
    assert kkt_residuals(prob, paid).stationarity == math.inf


def test_cap_ordering_tighter_cap_first():
    a = replace(muni(), b_bar=0.2)
    b = replace(muni(), b_bar=0.5)
    prob = AllocationProblem(((b, 1.0), (a, 1.0)), treasury_limit=10.0)
    order = cap_ordering_report(prob, allocate(prob).lambda_B)
    assert order[0][0] == 1  # the b_bar=0.2 municipality caps out first


def test_cap_ordering_costlier_later():
    cheap = replace(muni(), omega_T=0.1, b_bar=0.5)
    costly = replace(muni(), omega_T=0.3, b_bar=0.5)
    prob = AllocationProblem(((cheap, 1.0), (costly, 1.0)), treasury_limit=10.0)
    order = cap_ordering_report(prob, allocate(prob).lambda_B)
    assert order[0][0] == 0
    assert order[0][1] < order[1][1]


params3 = st.tuples(
    st.floats(0.2, 3.0),   # omega_b
    st.floats(0.2, 3.0),   # c
    st.floats(0.0, 1.0),   # omega_T
    st.floats(0.0, 2.0),   # b_bar
    st.floats(0.0, 4.0),   # theta
)


def build_problem(specs, B):
    munis = tuple(
        (muni(omega_b=ob, c=c, omega_T=ot, b_bar=bb, theta_bar=4.0), th)
        for ob, c, ot, bb, th in specs
    )
    return AllocationProblem(munis, treasury_limit=B)


@given(st.lists(params3, min_size=1, max_size=5), st.floats(0.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_feasibility_and_slackness(specs, B):
    prob = build_problem(specs, B)
    res = allocate(prob)
    assert res.total <= B + 1e-9
    assert res.lambda_B * (B - res.total) <= 1e-9
    for (p, _), b in zip(prob.municipalities, res.allocations):
        assert 0.0 <= b <= p.b_bar


@given(st.lists(params3, min_size=1, max_size=3), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_monotone_in_budget(specs, B, dB):
    prob_lo = build_problem(specs, B)
    prob_hi = build_problem(specs, B + dB)
    lo, hi = allocate(prob_lo), allocate(prob_hi)
    assert hi.total >= lo.total - 1e-9
    assert hi.lambda_B <= lo.lambda_B + 1e-9


@given(st.lists(params3, min_size=1, max_size=3), st.floats(0.0, 2.5))
@settings(max_examples=60, deadline=None)
def test_matches_small_grid_oracle(specs, B):
    prob = build_problem(specs, B)
    res = allocate(prob)
    oracle = grid_oracle(prob, points_per_axis=120)
    value = allocation_objective(prob, res.allocations)
    # compare objective values: with a binding budget the grid argmax may
    # trade whole steps between axes, so coordinates are only pinned through
    # strong concavity.  Snapping the optimum down to the grid costs at most
    # gradient * step per axis.
    quant_loss = sum(
        (p.omega_b * t + p.c * tlc_policy_linear(t, p)) * step
        for (p, t), step in zip(prob.municipalities, oracle.grid_steps)
    )
    assert value >= oracle.objective - 1e-9
    assert oracle.objective >= value - quant_loss - 1e-9
    # f is min(c_i)-strongly concave, so both near-maximizers sit inside a
    # ball of radius sqrt(2 * gap / c_min) around the true optimum
    c_min = min(p.c for p, _ in prob.municipalities)
    coord_tol = 2.0 * np.sqrt(2.0 * (quant_loss + 1e-9) / c_min) + 1e-9
    for b, o in zip(res.allocations, oracle.allocations):
        assert abs(b - o) <= coord_tol


mixed_params = st.tuples(
    st.floats(0.2, 3.0),   # omega_b
    st.floats(0.2, 3.0),   # c
    st.floats(0.0, 1.0),   # omega_T
    st.floats(0.0, 2.0),   # T
    st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 2.0)),   # b_bar
    st.floats(0.0, 4.0),   # theta
)


@given(st.lists(mixed_params, min_size=1, max_size=8), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_price_never_rises_with_budget(specs, B, dB):
    munis = tuple(
        (muni(omega_b=ob, c=c, omega_T=ot, T=T, b_bar=bb, theta_bar=4.0), th)
        for ob, c, ot, T, bb, th in specs
    )
    lo = allocate(AllocationProblem(munis, treasury_limit=B)).lambda_B
    hi = allocate(AllocationProblem(munis, treasury_limit=B + dB)).lambda_B
    assert hi <= lo


def test_interior_slope_preserved_at_binding_budget():
    prob = two_city(1.0)
    lam = allocate(prob).lambda_B
    p = replace(muni(), omega_T=lam)
    h = 1e-6
    slope = (tlc_policy_linear(2.0 + h, p) - tlc_policy_linear(2.0 - h, p)) / (2 * h)
    assert slope == pytest.approx(1.0, abs=1e-4)  # omega_b / c of that municipality


@given(st.lists(params3, min_size=2, max_size=4), st.floats(0.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_ordering_matches_direct_cutoffs(specs, B):
    prob = build_problem(specs, B)
    lam = allocate(prob).lambda_B
    order = cap_ordering_report(prob, lam)
    want = sorted(
        (
            (i, cutoffs(replace(p, omega_T=p.omega_T + lam)).theta_hi)
            for i, (p, _) in enumerate(prob.municipalities)
        ),
        key=lambda e: (e[1], e[0]),
    )
    assert order == want
    assert cap_ordering_report(prob) == want  # solves for the price itself
