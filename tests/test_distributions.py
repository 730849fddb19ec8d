"""Shock distribution wrappers and the hazard function."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bailrule import (
    BetaShock,
    ParameterError,
    TruncatedExponentialShock,
    UniformShock,
    hazard,
)

FAMILIES = [
    UniformShock(1.0),
    UniformShock(3.0),
    TruncatedExponentialShock(rate=2.0, theta_bar=1.5),
    BetaShock(2.0, 5.0, theta_bar=2.0),
]


@pytest.mark.parametrize("dist", FAMILIES)
def test_cdf_endpoints(dist):
    assert dist.cdf(0.0) == pytest.approx(0.0, abs=1e-12)
    assert dist.cdf(dist.theta_bar) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dist", FAMILIES)
def test_cdf_monotone_pdf_nonnegative(dist):
    grid = np.linspace(0, dist.theta_bar, 500)
    F = dist.cdf(grid)
    assert np.all(np.diff(F) >= -1e-12)
    assert np.all(dist.pdf(grid) >= 0)


@pytest.mark.parametrize("dist", FAMILIES)
def test_quantile_inverts_cdf(dist):
    for u in np.linspace(0.01, 0.99, 25):
        x = dist.ppf(u)
        assert dist.cdf(x) == pytest.approx(u, abs=1e-9)


@pytest.mark.parametrize("dist", FAMILIES)
def test_sampler_support_and_determinism(dist):
    a = dist.rvs(500, np.random.default_rng(42))
    b = dist.rvs(500, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a <= dist.theta_bar))


@pytest.mark.parametrize("dist", FAMILIES)
def test_sample_mean_matches_quadrature(dist):
    draws = dist.rvs(200_000, np.random.default_rng(0))
    grid = np.linspace(0, dist.theta_bar, 200_001)
    mean = float(np.trapezoid(grid * dist.pdf(grid), grid))
    assert draws.mean() == pytest.approx(mean, abs=0.01)


def test_hazard_uniform_values():
    u = UniformShock(1.0)
    assert hazard(0.5, u) == pytest.approx(2.0)
    assert hazard(0.0, u) == pytest.approx(1.0)


def test_hazard_truncexpon_at_zero_is_rate():
    # numeric f/survivor check straight from the wrapped cdf/pdf
    d = TruncatedExponentialShock(rate=2.0, theta_bar=1.5)
    assert hazard(0.0, d) == pytest.approx(d.pdf(0.0) / (1 - d.cdf(0.0)))
    assert hazard(0.0, d) == pytest.approx(2.0 / (1 - np.exp(-2.0 * 1.5)), rel=1e-9)


def test_hazard_exhausted_support_errors():
    with pytest.raises(ParameterError):
        hazard(1.0, UniformShock(1.0))


def test_hazard_vectorized():
    u = UniformShock(1.0)
    vals = hazard(np.array([0.0, 0.5, 0.75]), u)
    assert vals == pytest.approx([1.0, 2.0, 4.0])


@given(st.floats(0.05, 5.0), st.floats(0.2, 5.0), st.floats(0.01, 0.99))
@settings(max_examples=100, deadline=None)
def test_truncexpon_quantile_roundtrip(rate, theta_bar, u):
    d = TruncatedExponentialShock(rate=rate, theta_bar=theta_bar)
    assert d.cdf(d.ppf(u)) == pytest.approx(u, abs=1e-9)


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        UniformShock(0.0)
    with pytest.raises(ParameterError):
        TruncatedExponentialShock(rate=-1.0, theta_bar=1.0)
    with pytest.raises(ParameterError):
        BetaShock(0.0, 1.0, theta_bar=1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TruncatedExponentialShock(rate=np.inf, theta_bar=1.0),
        lambda: TruncatedExponentialShock(rate=np.nan, theta_bar=1.0),
        lambda: TruncatedExponentialShock(rate=1e300, theta_bar=1e10),
        lambda: BetaShock(np.inf, 2.0, theta_bar=1.0),
        lambda: BetaShock(2.0, np.inf, theta_bar=1.0),
        lambda: BetaShock(np.nan, 2.0, theta_bar=1.0),
        lambda: UniformShock(np.inf),
    ],
    ids=["rate-inf", "rate-nan", "rate-overflow", "beta-a-inf", "beta-b-inf", "beta-a-nan",
         "theta_bar-inf"],
)
def test_non_finite_shape_parameters_rejected(make):
    with pytest.raises(ParameterError, match="must be finite"):
        make()


# --- closed forms against scipy.stats ------------------------------------------

# (our distribution, the scipy.stats frozen distribution it must equal)
SCIPY_PAIRS = {
    "uniform": (lambda: UniformShock(1.0), lambda st: st.uniform(loc=0.0, scale=1.0)),
    "uniform-3": (lambda: UniformShock(3.0), lambda st: st.uniform(loc=0.0, scale=3.0)),
    "truncexpon": (lambda: TruncatedExponentialShock(rate=2.0, theta_bar=1.5),
                   lambda st: st.truncexpon(b=3.0, scale=0.5)),
    "truncexpon-flat": (lambda: TruncatedExponentialShock(rate=0.3, theta_bar=4.0),
                        lambda st: st.truncexpon(b=0.3 * 4.0, scale=1.0 / 0.3)),
    "truncexpon-steep": (lambda: TruncatedExponentialShock(rate=25.0, theta_bar=2.0),
                         lambda st: st.truncexpon(b=50.0, scale=1.0 / 25.0)),
    "beta": (lambda: BetaShock(2.0, 5.0, theta_bar=2.0),
             lambda st: st.beta(2.0, 5.0, loc=0.0, scale=2.0)),
    "beta-u": (lambda: BetaShock(0.5, 0.7, theta_bar=1.3),
               lambda st: st.beta(0.5, 0.7, loc=0.0, scale=1.3)),
    "beta-a1": (lambda: BetaShock(1.0, 3.0, theta_bar=1.0),
                lambda st: st.beta(1.0, 3.0, loc=0.0, scale=1.0)),
    "beta-b1": (lambda: BetaShock(3.0, 1.0, theta_bar=2.5),
                lambda st: st.beta(3.0, 1.0, loc=0.0, scale=2.5)),
}
TRUNCEXPON = [name for name in SCIPY_PAIRS if name.startswith("truncexpon")]
UNIFORM_AND_BETA = [name for name in SCIPY_PAIRS if name not in TRUNCEXPON]


def _with_scipy(name):
    from scipy import stats  # the oracle; the package itself never imports scipy.stats

    make, make_ref = SCIPY_PAIRS[name]
    return make(), make_ref(stats)


@pytest.mark.parametrize("name", SCIPY_PAIRS)
def test_closed_forms_match_scipy(name):
    dist, ref = _with_scipy(name)
    tb = dist.theta_bar
    theta = np.concatenate(
        [[-1.0, -1e-12, 0.0, 1e-14, tb * (1 - 1e-15), tb, tb * (1 + 1e-15), tb + 1.0, np.nan],
         np.linspace(0.0, tb, 401)]
    )
    q = np.concatenate(
        [[-0.5, -1e-300, 0.0, 1e-12, 1.0 - 1e-12, 1.0, 1.0 + 1e-15, 2.0, np.nan],
         np.linspace(0.0, 1.0, 401)]
    )
    for method, x in (("pdf", theta), ("cdf", theta), ("ppf", q)):
        got, want = getattr(dist, method)(x), getattr(ref, method)(x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=method)
        for xi in x[:9]:  # scalar in, scalar out, same value
            one = getattr(dist, method)(xi)
            assert np.ndim(one) == 0 and not isinstance(one, np.ndarray)
            np.testing.assert_allclose(one, getattr(ref, method)(xi), rtol=1e-12, atol=0.0)
    assert isinstance(dist.mean(), float)
    assert dist.mean() == pytest.approx(float(ref.mean()), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", UNIFORM_AND_BETA)
@pytest.mark.parametrize("seed", [0, 1, 42, 2024])
def test_uniform_and_beta_draws_equal_scipy_bitwise(name, seed):
    dist, ref = _with_scipy(name)
    got = dist.rvs(2000, np.random.default_rng(seed))
    want = ref.rvs(2000, random_state=np.random.default_rng(seed))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", TRUNCEXPON)
@pytest.mark.parametrize("seed", [0, 1, 42, 2024])
def test_truncexpon_draws_match_scipy_to_a_few_ulp(name, seed):
    # numpy's log1p/expm1 stand in for scipy's, and the draw is scaled from
    # the unit interval, so single draws may move by a few ulp
    dist, ref = _with_scipy(name)
    got = dist.rvs(2000, np.random.default_rng(seed))
    want = ref.rvs(2000, random_state=np.random.default_rng(seed))
    np.testing.assert_array_max_ulp(got, want, maxulp=8)


@pytest.mark.parametrize("a, b", [(2.0, 5.0), (3.0, 200.0), (5.0, 0.05)])
@pytest.mark.parametrize("q", [1e-100, 1e-200, 1e-300])
def test_beta_ppf_inverts_cdf_in_far_lower_tail(a, b, q):
    # below q ~ 1e-120 the incomplete-beta root finder gives up for these shapes
    d = BetaShock(a, b, theta_bar=1.0)
    x = d.ppf(q)
    assert 0.0 < x < 1.0
    assert d.cdf(x) == pytest.approx(q, rel=1e-12)


@pytest.mark.parametrize("k", [1e-8, 1e-6, 1e-4, 1e-2, 0.05, 0.1, 1.0, 10.0, 800.0])
def test_truncexpon_mean_accurate_at_any_unit_rate(k):
    # k = rate * theta_bar; the closed form 1/k - 1/expm1(k) cancels as k -> 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        kk = mpmath.mpf(k)
        want = float(1 / kk - 1 / mpmath.expm1(kk))  # the unit-interval mean
    got = TruncatedExponentialShock(rate=k, theta_bar=1.0).mean()
    assert abs(got - want) <= 1e-14 * want


def test_beta_without_scipy_names_the_extra():
    # scipy is optional: only the beta cdf and ppf need it
    code = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        import numpy as np
        from bailrule import BetaShock

        d = BetaShock(2.0, 5.0, theta_bar=2.0)
        print(float(d.pdf(0.5)), d.rvs(3, np.random.default_rng(1)).shape, d.mean())
        for method, arg in (("cdf", 0.5), ("ppf", 0.3)):
            try:
                getattr(d, method)(arg)
            except ImportError as exc:
                print(method, exc)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    first, *errors = proc.stdout.splitlines()
    d = BetaShock(2.0, 5.0, theta_bar=2.0)
    assert first == f"{float(d.pdf(0.5))} (3,) {d.mean()}"
    assert [e.split()[0] for e in errors] == ["cdf", "ppf"]
    assert all("bailrule[beta]" in e for e in errors)
