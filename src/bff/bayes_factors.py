"""Closed-form Bayes factors for z, t, chi-squared, and F statistics.

Each function returns ln BF10 for the alternative that places a normal moment
prior (z, t) or a gamma prior (chi-squared, F) on the non-centrality
parameter, with prior scale tau2. The printed forms of these Bayes factors
multiply large powers by exponentials; everything here is rearranged into
sums of log1p and logaddexp terms, and the t and F forms take the log of the
statistic before any power of it, so the functions stay finite for
statistics and scales far beyond the plotted ranges.

Every form takes numpy arrays and broadcasts them, so one implementation
serves a single point and a whole grid: a call with scalar arguments returns
a float, a call with an array returns an array. ln BF10 is the authoritative
value; `linear_bf` turns it into BF10 and saturates to inf where the Bayes
factor exceeds the largest double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Family(Enum):
    """The statistic families with known closed-form Bayes factors."""

    Z = "z"
    T = "t"
    CHISQ = "chisq"
    F = "f"


@dataclass(frozen=True)
class TestStatistic:
    """A reported test statistic tagged with its family and degrees of freedom.

    df1 is nu for T, k for CHISQ and F; df2 is m (denominator) for F only.
    """

    family: Family
    value: float
    df1: int | None = None
    df2: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.value, bool) or not math.isfinite(self.value):
            raise ValueError(f"statistic value must be a finite number, got {self.value!r}")
        if self.family is Family.Z:
            if self.df1 is not None or self.df2 is not None:
                raise ValueError("z statistics carry no degrees of freedom")
        elif self.family is Family.T:
            if self.df1 is None or self.df1 < 1:
                raise ValueError(f"t statistics need df1 >= 1, got {self.df1}")
            if self.df2 is not None:
                raise ValueError("t statistics carry no denominator df")
        elif self.family is Family.CHISQ:
            if self.df1 is None or self.df1 < 1:
                raise ValueError(f"chi-squared statistics need df1 >= 1, got {self.df1}")
            if self.df2 is not None:
                raise ValueError("chi-squared statistics carry no denominator df")
            if self.value < 0:
                raise ValueError(f"chi-squared statistic must be >= 0, got {self.value}")
        elif self.family is Family.F:
            if self.df1 is None or self.df1 < 1:
                raise ValueError(f"F statistics need df1 >= 1, got {self.df1}")
            if self.df2 is None or self.df2 < 1:
                raise ValueError(f"F statistics need df2 >= 1, got {self.df2}")
            if self.value < 0:
                raise ValueError(f"F statistic must be >= 0, got {self.value}")


@dataclass(frozen=True)
class OddsValue:
    """A Bayes factor carried as ln BF10; positive favors the alternative."""

    log_bf10: float

    @property
    def bf10(self) -> float:
        return linear_bf(self.log_bf10)


def linear_bf(log_bf10: float) -> float:
    """BF10 = exp(ln BF10), or inf where it exceeds the largest double.

    The saturation point is ln BF10 ~ 709.78; ln BF10 itself stays exact.
    """
    try:
        return math.exp(log_bf10)
    except OverflowError:
        return math.inf


def _result(value):
    """A float for a scalar computation, the array otherwise."""
    return value if isinstance(value, np.ndarray) else float(value)


def _check_tau2(tau2) -> None:
    if not np.all(tau2 > 0):
        raise ValueError(f"tau2 must be > 0, got {np.min(tau2)}")


def _z(z, tau2):
    with np.errstate(over="ignore"):  # near the largest tau2, tau2 z^2 overflows but w does not
        w = tau2 * z * z / (tau2 + 1.0)
        if not np.isfinite(w).all():
            w = np.where(np.isfinite(w), w, z * z * (tau2 / (tau2 + 1.0)))
    return -1.5 * np.log1p(tau2) + np.log1p(w) + 0.5 * w


def _tf_terms(x, lp, tau2, c, half_df):
    """The data terms that the t and F forms share, from logs only.

    x is ln a and lp is ln(1 + tau2), where a is t^2/nu (t) or k f/m (F).
    With b = a/(1 + tau2), ln(1 + a) - ln(1 + b) = ln(1 + g) for
    g = tau2 b/(1 + b), so the terms are half_df ln(1 + g) + ln(1 + c g).
    g is formed as tau2 / (1 + e^(lp - x)) in log space: it never exceeds
    tau2, whatever the size of the statistic, and no difference cancels.
    """
    g = tau2 * np.exp(-np.logaddexp(0.0, lp - x))
    return half_df * np.log1p(g) + np.log1p(c * g)


def _t(t, nu, tau2):
    lp = np.log1p(tau2)
    with np.errstate(divide="ignore"):  # ln 0 = -inf at t = 0 is exact
        x = 2.0 * np.log(np.abs(t)) - np.log(nu)
    return -1.5 * lp + _tf_terms(x, lp, tau2, nu + 1.0, 0.5 * (nu + 1.0))


def _chisq(h, k, tau2):
    u = tau2 * h / (tau2 + 1.0)
    return -(0.5 * k + 1.0) * np.log1p(tau2) + np.log1p(u / k) + 0.5 * u


def _f(f, k, m, tau2):
    lp = np.log1p(tau2)
    with np.errstate(divide="ignore"):  # ln 0 = -inf at f = 0 is exact
        x = np.log(f) + np.log(k / m)
    return -(0.5 * k + 1.0) * lp + _tf_terms(x, lp, tau2, (k + m) / k, 0.5 * (k + m))


# each form's kernel: the public form without its argument checks
KERNELS = {Family.Z: _z, Family.T: _t, Family.CHISQ: _chisq, Family.F: _f}


def log_bf_z(z, tau2):
    """ln BF10 for a z statistic under a J(0, tau2) prior on the mean shift."""
    _check_tau2(tau2)
    return _result(_z(z, tau2))


def log_bf_t(t, nu, tau2):
    """ln BF10 for a t statistic on nu df under a J(0, tau2) prior."""
    if np.any(nu < 1):
        raise ValueError(f"nu must be >= 1, got {np.min(nu)}")
    _check_tau2(tau2)
    return _result(_t(t, nu, tau2))


def log_bf_chisq(h, k, tau2):
    """ln BF10 for a chi-squared statistic h on k df under a gamma prior."""
    if np.any(h < 0):
        raise ValueError(f"h must be >= 0, got {np.min(h)}")
    if np.any(k < 1):
        raise ValueError(f"k must be >= 1, got {np.min(k)}")
    _check_tau2(tau2)
    return _result(_chisq(h, k, tau2))


def log_bf_f(f, k, m, tau2):
    """ln BF10 for an F statistic on (k, m) df under a gamma prior."""
    if np.any(f < 0):
        raise ValueError(f"f must be >= 0, got {np.min(f)}")
    if np.any(k < 1) or np.any(m < 1):
        raise ValueError(f"degrees of freedom must be >= 1, got ({np.min(k)}, {np.min(m)})")
    _check_tau2(tau2)
    return _result(_f(f, k, m, tau2))


def log_bf(stat: TestStatistic, tau2):
    """Dispatch to the closed form matching stat.family.

    stat may also be any object with TestStatistic's four fields whose value,
    df1 and df2 are arrays: the forms broadcast them against tau2.
    """
    if stat.family is Family.Z:
        return log_bf_z(stat.value, tau2)
    if stat.family is Family.T:
        return log_bf_t(stat.value, stat.df1, tau2)
    if stat.family is Family.CHISQ:
        return log_bf_chisq(stat.value, stat.df1, tau2)
    return log_bf_f(stat.value, stat.df1, stat.df2, tau2)


def posterior_odds(bf: OddsValue, prior_odds: float) -> float:
    """Posterior odds of H1 to H0: BF10 times the prior odds."""
    if prior_odds <= 0:
        raise ValueError(f"prior_odds must be > 0, got {prior_odds}")
    return bf.bf10 * prior_odds
