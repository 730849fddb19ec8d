"""Shock distributions on a bounded support [0, theta_bar].

Each family is written once on the unit interval x = theta / theta_bar, in
closed form with numpy and ``math``; the base class rescales it to
[0, theta_bar] and owns the edges: the pdf is 0 outside the support, the
cdf is 0 below it and 1 above it, the ppf of a probability outside [0, 1]
is nan, and a scalar in gives a scalar out.  Only the beta cdf and ppf need
special functions: they import ``scipy.special`` (the ``bailrule[beta]``
extra) when called, so importing this module loads no scipy.  ``hazard`` is
a free function because it is family-agnostic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "ShockDistribution",
    "UniformShock",
    "TruncatedExponentialShock",
    "BetaShock",
    "hazard",
]


def _scipy_special():
    """``scipy.special``, which only the beta cdf and ppf need."""
    try:
        import scipy.special
    except ImportError as exc:
        raise ImportError("the beta cdf and ppf need scipy: pip install 'bailrule[beta]'") from exc
    return scipy.special


def _positive_finite(**values) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ParameterError(f"{name} must be finite and > 0, got {value}")


class ShockDistribution:
    """Base: a continuous shock with support [0, theta_bar].

    A family gives its density, cdf and ppf on the unit interval (``_pdf``,
    ``_cdf``, ``_ppf``), its mean there (``_mean``) and a draw of ``size``
    points there (``_draws``); ``_cdf`` must be exactly 0 at 0 and 1 at 1.
    """

    theta_bar: float

    def __init__(self, theta_bar: float) -> None:
        theta_bar = float(theta_bar)
        _positive_finite(theta_bar=theta_bar)
        self.theta_bar = theta_bar

    def pdf(self, theta):
        x = np.asarray(theta, dtype=float) / self.theta_bar
        with np.errstate(divide="ignore"):
            inner = self._pdf(np.clip(x, 0.0, 1.0)) / self.theta_bar
        return np.where((x < 0.0) | (x > 1.0), 0.0, inner)[()]

    def cdf(self, theta):
        x = np.asarray(theta, dtype=float) / self.theta_bar
        return self._cdf(np.clip(x, 0.0, 1.0))[()]

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        inner = (q > 0.0) & (q < 1.0)
        x = self.theta_bar * self._ppf(np.where(inner, q, 0.5))
        return np.select([inner, q == 0.0, q == 1.0], [x, 0.0, self.theta_bar], np.nan)[()]

    # quantile == generalized inverse of the cdf; alias kept for callers that
    # speak distribution-theory rather than scipy.
    quantile = ppf

    def rvs(self, size: int, rng: np.random.Generator):
        return self.theta_bar * self._draws(size, rng)

    def mean(self) -> float:
        return self.theta_bar * self._mean()


class UniformShock(ShockDistribution):
    """Uniform on [0, theta_bar]."""

    def _pdf(self, x):
        return np.where(np.isnan(x), np.nan, 1.0)

    def _cdf(self, x):
        return x

    def _ppf(self, q):
        return q

    def _draws(self, size, rng):
        return rng.uniform(0.0, 1.0, size)

    def _mean(self) -> float:
        return 0.5


class TruncatedExponentialShock(ShockDistribution):
    """Exponential with the given rate, truncated to [0, theta_bar]."""

    def __init__(self, rate: float, theta_bar: float) -> None:
        super().__init__(theta_bar)
        rate = float(rate)
        self._k = rate * self.theta_bar  # the rate on the unit interval
        _positive_finite(rate=rate, rate_times_theta_bar=self._k)
        self.rate = rate
        self._em1 = math.expm1(-self._k)  # -P(untruncated shock <= theta_bar)

    def _pdf(self, x):
        return self._k * np.exp(-self._k * x) / -self._em1

    def _cdf(self, x):
        return np.expm1(-self._k * x) / self._em1

    def _ppf(self, q):
        return -np.log1p(q * self._em1) / self._k

    def _draws(self, size, rng):
        return self._ppf(rng.uniform(size=size))

    def _mean(self) -> float:
        k = self._k  # the mean is 1/k - 1/expm1(k), which cancels as k -> 0
        if k <= 0.05:
            return 0.5 - k / 12.0 + k**3 / 720.0 - k**5 / 30240.0
        return 1.0 / k + math.exp(-k) / self._em1


class BetaShock(ShockDistribution):
    """Beta(a, b) rescaled to [0, theta_bar]."""

    def __init__(self, a: float, b: float, theta_bar: float) -> None:
        super().__init__(theta_bar)
        a, b = float(a), float(b)
        _positive_finite(a=a, b=b)
        self.a, self.b = a, b
        self._log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def _pdf(self, x):
        # log form, so large shapes neither overflow the normalizer nor
        # multiply inf by 0; a shape of exactly 1 contributes x**0 = 1
        log_x = (self.a - 1.0) * np.log(x) if self.a != 1.0 else 0.0
        log_y = (self.b - 1.0) * np.log1p(-x) if self.b != 1.0 else 0.0
        return np.exp(log_x + log_y - self._log_beta)

    def _cdf(self, x):
        return _scipy_special().betainc(self.a, self.b, x)

    def _ppf(self, q):
        x = _scipy_special().betaincinv(self.a, self.b, q)
        # betaincinv gives up (nan) in the far lower tail, q < ~1e-120, where
        # I_x(a, b) = x**a / (a * B(a, b)) * (1 + O(x)) inverts in closed form
        tail = np.exp((np.log(q) + math.log(self.a) + self._log_beta) / self.a)
        return np.where(np.isnan(x), tail, x)

    def _draws(self, size, rng):
        return rng.beta(self.a, self.b, size)

    def _mean(self) -> float:
        return self.a / (self.a + self.b)


def hazard(theta, dist: ShockDistribution):
    """Hazard rate f(theta) / (1 - F(theta)) of the shock, elementwise.

    Undefined once the survivor function hits zero (at and beyond the upper
    support bound); that is a caller error, not an infinity to propagate.
    """
    theta = np.asarray(theta, dtype=float)
    denom = 1.0 - dist.cdf(theta)
    if np.any(denom <= 0.0):
        raise ParameterError("hazard undefined where the survivor function is 0")
    out = dist.pdf(theta) / denom
    if theta.ndim == 0:
        return float(out)
    return out
