"""Equity floors layered on the base schedule."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bailrule import (
    EXTRA_KINK,
    SC_DOMINATED,
    SC_PARALLEL,
    CustomFloor,
    MechanismParams,
    ParallelFloor,
    ParameterError,
    Schedule,
    UniformShock,
    apply_equity_floor,
    classify_floor,
    cutoffs,
    screened_payout,
    tlc_policy_linear,
)
from bailrule.dataio import EpisodeTable
from bailrule.floors import simulate_episodes
from bailrule.policy import _tlc

FLOOR_P = MechanismParams(omega_b=1, c=1, omega_T=0.5, T=0, b_bar=10, theta_bar=2)


def test_parallel_floor_worked_values():
    val, label = apply_equity_floor(0.45, ParallelFloor(0.1), FLOOR_P)
    assert val == pytest.approx(0.05)
    assert label == SC_PARALLEL
    # lifting the floor by a is the same schedule as cutting omega_T by c*a
    from dataclasses import replace
    tilde = replace(FLOOR_P, omega_T=FLOOR_P.omega_T - FLOOR_P.c * 0.1)
    assert tilde.omega_T == pytest.approx(0.4)
    assert cutoffs(tilde).theta_lo == pytest.approx(0.4)
    grid = np.linspace(0.4, 2.0, 400)  # on/above the shifted activation point
    floored = apply_equity_floor(grid, ParallelFloor(0.1), FLOOR_P)[0]
    assert floored == pytest.approx(tlc_policy_linear(grid, tilde))


def test_zero_custom_floor_never_binds():
    floor = CustomFloor((0.0, 2.0), (0.0, 0.0))
    grid = np.linspace(0, 2, 301)
    vals, label = apply_equity_floor(grid, floor, FLOOR_P)
    assert label == SC_DOMINATED
    assert np.array_equal(vals, tlc_policy_linear(grid, FLOOR_P))


def test_crossing_floor_is_extra_kink_and_matches_pointwise_oracle():
    p = MechanismParams(omega_b=1, c=1, omega_T=0.5, T=0, b_bar=1.0, theta_bar=2)
    floor = CustomFloor((0.0, 0.9, 2.0), (0.3, 0.3, 0.3))  # flat, crosses interior line
    grid = np.linspace(cutoffs(p).theta_lo, 1.5, 1000)
    vals, label = apply_equity_floor(grid, floor, p)
    assert label == EXTRA_KINK
    b_int = (p.omega_b * grid - p.omega_T) / p.c
    oracle = np.clip(np.maximum(0.3, b_int), 0.0, p.b_bar)
    assert vals == pytest.approx(oracle)


def test_floor_only_on_admissible_region():
    p = MechanismParams(omega_b=1, c=1, omega_T=0.5, T=0.6, b_bar=10, theta_bar=2)
    vals, _ = apply_equity_floor(np.array([0.3, 0.59]), ParallelFloor(0.1), p)
    assert np.array_equal(vals, [0.0, 0.0])  # below T nothing pays out


def test_negative_a_never_binds():
    grid = np.linspace(0, 2, 201)
    vals, label = apply_equity_floor(grid, ParallelFloor(-0.2), FLOOR_P)
    assert np.array_equal(vals, tlc_policy_linear(grid, FLOOR_P))
    assert label in (SC_PARALLEL, SC_DOMINATED)


def test_custom_floor_validation():
    with pytest.raises(ParameterError):
        CustomFloor((0.0, 1.0), (0.5, 0.2))  # decreasing values
    with pytest.raises(ParameterError):
        CustomFloor((1.0, 0.5), (0.1, 0.2))  # knots not increasing
    with pytest.raises(ParameterError):
        CustomFloor((0.0, 1.0), (-0.1, 0.2))  # negative floor
    for knots, values in [((0.0, np.nan), (0.1, 0.2)), ((0.0, np.inf), (0.1, 0.2)),
                          ((0.0, 1.0), (0.1, np.inf)), ((0.0, 1.0), (np.nan, 0.2))]:
        with pytest.raises(ParameterError, match="finite"):
            CustomFloor(knots, values)  # every payout would be nan


def test_floor_above_cap_rejected():
    p = MechanismParams(omega_b=1, c=1, omega_T=0.5, T=0, b_bar=0.4, theta_bar=2)
    with pytest.raises(ParameterError):
        apply_equity_floor(1.0, CustomFloor((0.0, 2.0), (0.0, 0.9)), p)


def test_parallel_infeasible_becomes_extra_kink():
    # a large enough that a + s*theta pokes above the cap inside the region
    p = MechanismParams(omega_b=1, c=1, omega_T=0.5, T=0, b_bar=0.6, theta_bar=2)
    _, label = apply_equity_floor(0.8, ParallelFloor(0.5), p)
    assert label == EXTRA_KINK


@given(st.floats(0.0, 0.3), st.floats(0.05, 3.0), st.floats(0.05, 3.0),
       st.floats(0.0, 2.0))
@settings(max_examples=150, deadline=None)
def test_sc_parallel_slope_preserved(a, omega_b, c, omega_T):
    p = MechanismParams(omega_b=omega_b, c=c, omega_T=omega_T, T=0,
                        b_bar=np.inf, theta_bar=50.0)
    floor = ParallelFloor(a)
    lo = cutoffs(p).theta_lo
    grid = np.linspace(lo + 0.1, lo + 1.1, 64)
    vals, label = apply_equity_floor(grid, floor, p)
    assert label == SC_PARALLEL
    slopes = np.diff(vals) / np.diff(grid)
    assert np.all(np.abs(slopes - omega_b / c) <= 1e-9)


@given(st.floats(0.0, 1.8), st.lists(st.floats(0.0, 0.5), min_size=2, max_size=5))
@settings(max_examples=150, deadline=None)
def test_floored_value_matches_max_clip_oracle(theta, raw_vals):
    p = MechanismParams(omega_b=1, c=1, omega_T=0.5, T=0, b_bar=1.0, theta_bar=2)
    vals = tuple(np.minimum.accumulate(sorted(raw_vals, reverse=True))[::-1])
    vals = tuple(sorted(vals))
    knots = tuple(np.linspace(0.1, 1.9, len(vals)))
    floor = CustomFloor(knots, vals)
    got, _ = apply_equity_floor(theta, floor, p)
    b_int = max((p.omega_b * theta - p.omega_T) / p.c, 0.0)
    want = min(max(np.interp(theta, knots, vals), b_int), p.b_bar)
    assert got == pytest.approx(want, abs=1e-12)


def classify_on_a_dense_grid(floor, p):
    """The classification as it was once decided: on 1024 grid points of
    the interior region, plus a custom floor's knots inside it."""
    cut = cutoffs(p)
    lo, hi = min(cut.theta_lo, p.theta_bar), min(cut.theta_hi, p.theta_bar)
    grid = np.linspace(lo, hi, 1024)
    if isinstance(floor, CustomFloor):
        knots = [t for t in floor.theta_knots if lo < t < hi]
        grid = np.unique(np.concatenate([grid, np.asarray(knots, dtype=float)]))
    if isinstance(floor, ParallelFloor):
        fvals = floor.values(np.array([lo, hi]), p)
        if fvals.min() >= -1e-12 and fvals.max() <= p.b_bar + 1e-12:
            return SC_PARALLEL
    line = (p.omega_b * grid - p.omega_T) / p.c
    if np.all(floor.values(grid, p) <= line + 1e-12):
        return SC_DOMINATED
    return EXTRA_KINK


def random_floors(rng, n):
    """Seeded mechanisms with parallel and custom floors, a third of them
    touching the interior line to within 1e-13."""
    for i in range(n):
        theta_bar = rng.uniform(1.0, 5.0)
        b_bar = np.inf if i % 7 == 0 else rng.uniform(0.1, 3.0)
        p = MechanismParams(omega_b=rng.uniform(0.2, 3.0), c=rng.uniform(0.2, 3.0),
                            omega_T=rng.uniform(0.0, 2.0), T=rng.uniform(0.0, theta_bar),
                            b_bar=b_bar, theta_bar=theta_bar)
        touch = i % 3 == 0
        if i % 2:
            a = rng.choice([0.0, 1e-13, -1e-13, 1e-12]) if touch else rng.uniform(-0.5, 0.5)
            yield ParallelFloor(a), p
            continue
        knots = np.sort(rng.choice(np.linspace(0.0, theta_bar, 41), rng.integers(1, 6),
                                   replace=False))
        if touch:  # on the line at each knot, nudged by at most 1e-13
            values = (p.omega_b * knots - p.omega_T) / p.c + rng.choice([0.0, 1e-13, -1e-13])
        else:
            values = np.sort(rng.uniform(0.0, 1.5, knots.size))
        values = np.maximum.accumulate(np.clip(values, 0.0, min(p.b_bar, 1.5)))
        yield CustomFloor(tuple(knots), tuple(values)), p


def test_classification_matches_a_dense_grid():
    labels = []
    for floor, p in random_floors(np.random.default_rng(20240), 2400):
        label = classify_floor(floor, p)
        assert label == classify_on_a_dense_grid(floor, p), (floor, p)
        labels.append((type(floor).__name__, label))
    assert len(set(labels)) == 5  # each shape meets each label it can have


# --- the published schedule ---------------------------------------------------

rules = st.builds(
    lambda omega_b, c, omega_T, t, b_bar, theta_bar: MechanismParams(
        omega_b, c, omega_T, T=t * theta_bar, b_bar=b_bar, theta_bar=theta_bar),
    st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0),
    st.floats(0.0, 3.0) | st.just(np.inf), st.floats(0.5, 5.0))
floors = st.none() | st.builds(ParallelFloor, st.floats(-1.0, 1.0)) | st.builds(
    lambda knots, values: CustomFloor(tuple(sorted(knots)), tuple(sorted(values))),
    st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3, unique=True),
    st.lists(st.floats(0.0, 0.3), min_size=3, max_size=3))


@given(rules, floors, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_schedule_payout_is_the_shared_kernel(p, floor, u):
    assume(not (isinstance(floor, CustomFloor) and max(floor.b_values) > p.b_bar))
    theta = np.array(u) * p.theta_bar
    schedule = Schedule(p, floor)
    got = schedule.payout(theta)
    lower = 0.0 if floor is None else np.maximum(floor.values(theta, p), 0.0)
    assert np.array_equal(got, _tlc(theta, p.omega_b, p.c, p.omega_T, p.T, p.b_bar, lower))
    assert schedule.payout(float(theta[0])) == got[0]
    if floor is None:
        assert np.array_equal(got, tlc_policy_linear(theta, p))
    else:
        assert np.array_equal(got, apply_equity_floor(theta, floor, p)[0])


def test_card_is_the_payout_on_seeded_floors():
    kinds = set()
    for floor, p in random_floors(np.random.default_rng(3), 3000):
        schedule = Schedule(p, floor)
        card = schedule.card()
        if card is None:
            assert isinstance(floor, CustomFloor) or p.c * floor.a > p.omega_T
            continue
        grid = np.linspace(0.0, p.theta_bar, 2001)
        want = schedule.payout(grid)
        # a custom floor "never binds" to within classify_floor's 1e-12
        assert np.max(np.abs(tlc_policy_linear(grid, card) - want)) <= 1e-12, (floor, p)
        assert card.interior_slope == p.interior_slope
        kinds.add((type(floor).__name__, schedule.floor_class))
    # the card follows the payout's geometry, not the label
    assert ("ParallelFloor", EXTRA_KINK) in kinds


def test_vertices_draw_the_payout_on_seeded_floors():
    cases = list(random_floors(np.random.default_rng(4), 1500))
    cases += [(None, p) for _, p in cases[:300]]
    for floor, p in cases:
        schedule = Schedule(p, floor)
        xs, ys = zip(*schedule.vertices())
        assert xs[0] == 0.0 and xs[-1] == p.theta_bar and list(xs) == sorted(xs)
        grid = np.linspace(0.0, p.theta_bar, 2001)
        assert np.max(np.abs(np.interp(grid, xs, ys) - schedule.payout(grid))) <= 1e-12, (floor, p)


def test_no_bailout_reads_the_floor():
    dead = MechanismParams(omega_b=1, c=1, omega_T=3.0, T=0.5, b_bar=1.0, theta_bar=2)
    assert Schedule(dead).no_bailout
    assert Schedule(dead, ParallelFloor(0.5)).no_bailout  # lifted line still below 0
    assert not Schedule(dead, CustomFloor((1.0, 2.0), (0.0, 0.2))).no_bailout
    assert not Schedule(FLOOR_P, ParallelFloor(1.0)).no_bailout


# --- screening and the episode generator -----------------------------------

def test_screened_payout_screens_the_floored_payout():
    schedule = Schedule(FLOOR_P, ParallelFloor(0.1))
    grid = np.linspace(0.0, 2.0, 401)
    assert np.array_equal(screened_payout(0.3, grid, schedule), np.minimum(0.3, schedule.payout(grid)))
    # below theta_lo = 0.5 the floor pays and the bare rule does not
    b = screened_payout(0.3, 0.45, schedule)
    assert type(b) is float and b == pytest.approx(0.05)
    assert tlc_policy_linear(0.45, FLOOR_P) == 0.0
    assert screened_payout(0.3, 1.9, schedule) == 0.3
    assert screened_payout(math.inf, 1.9, schedule) == schedule.payout(1.9)


def test_simulate_episodes_draws_the_screened_schedule():
    schedule = Schedule(FLOOR_P, ParallelFloor(0.1))
    dist = UniformShock(FLOOR_P.theta_bar)
    table = simulate_episodes(schedule, dist, 300, 5, override_shift=0.2, beta=0.8)
    assert isinstance(table, EpisodeTable) and len(table) == 300
    theta = dist.rvs(300, np.random.default_rng(5))
    assert np.array_equal(table.theta, theta)
    above = theta > cutoffs(schedule.rule).theta_hi
    assert np.array_equal(table.b, screened_payout(0.8, theta, schedule) + 0.2 * above)


def test_simulate_episodes_draws_noise_after_the_shocks():
    schedule = Schedule(FLOOR_P)
    dist = UniformShock(FLOOR_P.theta_bar)
    clean = simulate_episodes(schedule, dist, 200, 3)
    noisy = simulate_episodes(schedule, dist, 200, 3, noise=0.05)
    rng = np.random.default_rng(3)
    dist.rvs(200, rng)  # the shock draw comes first
    assert np.array_equal(noisy.theta, clean.theta)
    assert np.array_equal(noisy.b, np.maximum(clean.b + rng.normal(0.0, 0.05, size=200), 0.0))


@pytest.mark.parametrize("kwargs, message", [
    ({"noise": math.nan}, "noise must be finite and >= 0, got nan"),
    ({"noise": math.inf}, "noise must be finite and >= 0, got inf"),
    ({"noise": -1.0}, "noise must be finite and >= 0, got -1.0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"beta": -0.1}, "beta must be >= 0, got -0.1"),
], ids=["noise-nan", "noise-inf", "noise-negative", "seed-negative", "beta-negative"])
def test_simulate_episodes_refusals(kwargs, message):
    args = {"seed": 0, **kwargs}
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        simulate_episodes(Schedule(FLOOR_P), UniformShock(FLOOR_P.theta_bar), 10, **args)
