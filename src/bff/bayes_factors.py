"""Closed-form Bayes factors for z, t, chi-squared, and F statistics.

Each function returns ln BF10 for the alternative that places a normal moment
prior (z, t) or a gamma prior (chi-squared, F) on the non-centrality
parameter, with prior scale tau2. The printed forms of these Bayes factors
multiply large powers by exponentials; everything here is rearranged into
sums of log1p terms (t and F add one exp, recomputed where it overflows), and
the t and F forms take the log of the statistic before any power of it, so the
functions stay finite for statistics and scales far beyond the plotted ranges.

Every form takes numpy arrays and broadcasts them, so one implementation
serves a single point and a whole grid; a scalar call returns a float, and
the statistic and its dfs are taken as doubles. Three kernels serve the four
forms, t on F's as t^2 on nu df is F on (1, nu) df, each in two halves:
per-study constants and the terms in tau2, which a curve evaluates at every
omega. ln BF10 is the authoritative value; `linear_bf` turns it into BF10,
inf past the largest double. Where ln BF10 lies past the largest double (dfs
near it), a form returns +-inf, or nan where the F df terms overflow both
ways, with no numpy warning; a curve names it not finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Family(Enum):
    """The statistic families with known closed-form Bayes factors."""

    Z = "z"
    T = "t"
    CHISQ = "chisq"
    F = "f"


# the degrees of freedom each family carries, in its form's argument order
DF_FIELDS = {Family.Z: (), Family.T: ("df1",), Family.CHISQ: ("df1",), Family.F: ("df1", "df2")}


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
        name, carried = self.family.value, DF_FIELDS[self.family]
        if isinstance(self.value, int) and abs(self.value) > sys.float_info.max:
            raise ValueError(f"{name} statistic's value is past the largest double in magnitude")
        if isinstance(self.value, bool) or not math.isfinite(self.value):
            raise ValueError(f"statistic value must be a finite number, got {self.value!r}")
        check_fits_double(self, ("df1", "df2"), f"{name} statistic's")
        for field in ("df1", "df2"):
            df = getattr(self, field)
            if field in carried and (df is None or df < 1):
                raise ValueError(f"{name} statistics need {field} >= 1, got {df}")
            if field not in carried and df is not None:
                raise ValueError(f"{name} statistics carry no {field}")
        if self.family in (Family.CHISQ, Family.F) and self.value < 0:
            raise ValueError(f"{name} statistic must be >= 0, got {self.value}")


def check_fits_double(obj, fields: tuple[str, ...], owner: str) -> None:
    """Reject an integer field past the largest double: the forms take it as a double."""
    for field in fields:
        if (getattr(obj, field) or 0) > sys.float_info.max:
            raise ValueError(f"{owner} {field} is larger than the largest double")


def form_args(stat: TestStatistic) -> tuple:
    """stat's value and degrees of freedom, as its family's form takes them before tau2."""
    return (stat.value, *(getattr(stat, field) for field in DF_FIELDS[stat.family]))


def linear_bf(log_bf10: float) -> float:
    """BF10 = exp(ln BF10), or inf where it exceeds the largest double.

    The saturation point is ln BF10 ~ 709.78; ln BF10 itself stays exact.
    """
    try:
        return math.exp(log_bf10)
    except OverflowError:
        return math.inf


def _result(value):
    """A float for a scalar computation (a numpy scalar or 0-d array), the array otherwise."""
    return value if np.ndim(value) else float(value)


def _checked_tau2(tau2):
    tau2 = _double(tau2, "tau2")  # as the forms take every argument
    if not np.all(tau2 > 0):
        raise ValueError(f"tau2 must be > 0, got {np.min(tau2)}")
    if not np.all(np.isfinite(tau2)):  # tau2 = inf gives nan and a warning, or -inf
        raise ValueError(f"tau2 must be finite, got {np.max(tau2)}")
    return tau2


def _finite_or(w, fallback, *args, test=None):
    """w with fallback(*args) at only the entries where test (w by default) is not finite."""
    finite = np.isfinite(w if test is None else test)
    if np.count_nonzero(finite) < finite.size:  # cheaper than .all() on a small array
        w = np.array(w, dtype=float)
        w[~finite] = fallback(*(np.broadcast_to(a, w.shape)[~finite] for a in args))
    return w


def _shrunk(x, tau2):
    """x tau2 / (tau2 + 1), without the product x tau2 that overflows near the largest tau2."""
    return x * (tau2 / (tau2 + 1.0))


def _z(z, tau2):
    with np.errstate(over="ignore"):
        w = _finite_or(tau2 * z * z / (tau2 + 1.0), _shrunk, z * z, tau2)
        return -1.5 * np.log1p(tau2) + np.log1p(w) + 0.5 * w


def _t_constants(t, nu):
    # F's constants for t^2 on (1, nu) df, from ln|t|: t^2 itself overflows past |t| ~ 1.3e154
    with np.errstate(divide="ignore"):  # ln 0 = -inf at t = 0 is exact
        return 2.0 * np.log(np.abs(t)) - np.log(nu), -1.5, nu + 1.0, 0.5 * (nu + 1.0)


def _chisq_constants(h, k):
    return h + 0.0, k, -(0.5 * k + 1.0)


def _chisq(h, k, a, tau2):
    with np.errstate(over="ignore"):
        u = _finite_or(tau2 * h / (tau2 + 1.0), _shrunk, h, tau2)
        return a * np.log1p(tau2) + np.log1p(u / k) + 0.5 * u


def _f_constants(f, k, m):
    half_k = 0.5 * k
    half_df = half_k + 0.5 * m  # 0.5 (k + m) without k + m, which can overflow
    with np.errstate(divide="ignore", over="ignore"):  # ln 0 = -inf at f = 0 is exact
        return np.log(f) + np.log(k / m), -(half_k + 1.0), half_df / half_k, half_df


def _f(x, a, c, half_df, tau2):
    """ln BF10 for F on (k, m) df, or t on nu df as F on (1, nu), from logs only.

    x is ln r and lp is ln(1 + tau2), where r is k f/m (t^2/nu for t). With b = r/(1 + tau2),
    ln(1 + r) - ln(1 + b) = ln(1 + g) for g = tau2 b/(1 + b), so ln BF10 is
    a lp + half_df ln(1 + g) + ln(1 + c g). g = tau2 / (1 + e^(lp - x)) never exceeds tau2 and
    cancels nothing; where e^(lp - x) overflows, g is e^(x - ln(1 + 1/tau2)), which stays whole
    where tau2 e^(x - lp) underflows. Where c g overflows, ln(1 + c g) = ln c + ln g within 1/(c g).
    """
    lp = np.log1p(tau2)
    # in place in q and g, 0-d for a scalar; the two df terms past the largest double give nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.asarray(lp - x, dtype=float)
        np.add(np.exp(q, out=q), 1.0, out=q)  # inf where the exponential overflows
        g = np.divide(tau2, q, out=np.empty_like(q))
        g = _finite_or(g, lambda t, x: np.exp(x - np.log1p(1.0 / t)), tau2, x, test=q)
        lcg = np.log1p(np.multiply(c, g, out=q), out=q)
        lcg = _finite_or(lcg, lambda c, g: np.log(c) + np.log(g), c, g)
        lg = np.multiply(half_df, np.log1p(g, out=g), out=g)
        return np.add(a * lp, np.add(lg, lcg, out=lg), out=lg)


# each family's kernel in two halves: per-study constants from the statistic and its
# dfs alone, and ln BF10 from them and tau2. A kernel is the public form without its
# argument checks, in an errstate that ignores overflow: _finite_or replaces the products
# that may overflow, and a term past the largest double is +-inf. h + 0.0 is h except
# that a chi-squared -0.0 becomes 0.0, so ln BF10 at tau2 = 0 is 0.0, never -0.0.
SPLIT_KERNELS = {
    Family.Z: (lambda z: (z,), _z),
    Family.T: (_t_constants, _f),
    Family.CHISQ: (_chisq_constants, _chisq),
    Family.F: (_f_constants, _f),
}


def _double(x, name):
    """x as a double (an array of them for an array), exact below 2**53, as a curve takes it."""
    try:
        return np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)
    except OverflowError:  # an integer past the largest double
        raise ValueError(f"{name} is larger than the largest double") from None


def log_bf_z(z, tau2):
    """ln BF10 for a z statistic under a J(0, tau2) prior on the mean shift."""
    tau2 = _checked_tau2(tau2)
    return _result(_z(_double(z, "z"), tau2))


def log_bf_t(t, nu, tau2):
    """ln BF10 for a t statistic on nu df under a J(0, tau2) prior."""
    t, nu = _double(t, "t"), _double(nu, "nu")
    if np.any(nu < 1):
        raise ValueError(f"nu must be >= 1, got {np.min(nu)}")
    tau2 = _checked_tau2(tau2)
    return _result(_f(*_t_constants(t, nu), tau2))


def log_bf_chisq(h, k, tau2):
    """ln BF10 for a chi-squared statistic h on k df under a gamma prior."""
    h, k = _double(h, "h"), _double(k, "k")
    if np.any(h < 0):
        raise ValueError(f"h must be >= 0, got {np.min(h)}")
    if np.any(k < 1):
        raise ValueError(f"k must be >= 1, got {np.min(k)}")
    tau2 = _checked_tau2(tau2)
    return _result(_chisq(*_chisq_constants(h, k), tau2))


def log_bf_f(f, k, m, tau2):
    """ln BF10 for an F statistic on (k, m) df under a gamma prior."""
    f, k, m = _double(f, "f"), _double(k, "k"), _double(m, "m")
    if np.any(f < 0):
        raise ValueError(f"f must be >= 0, got {np.min(f)}")
    if np.any(k < 1) or np.any(m < 1):
        raise ValueError(f"degrees of freedom must be >= 1, got ({np.min(k)}, {np.min(m)})")
    tau2 = _checked_tau2(tau2)
    return _result(_f(*_f_constants(f, k, m), tau2))


# each family's public form, which checks its arguments
FORMS = {Family.Z: log_bf_z, Family.T: log_bf_t, Family.CHISQ: log_bf_chisq, Family.F: log_bf_f}


def log_bf(stat: TestStatistic, tau2):
    """Dispatch to the closed form matching stat.family.

    stat may also be any object with TestStatistic's four fields whose value,
    df1 and df2 are arrays: the forms broadcast them against tau2.
    """
    return FORMS[stat.family](*form_args(stat), tau2)

