"""Brute-force verification of the closed-form Bayes factors.

Everything here recomputes Bayes factors from first principles: null and noncentral
densities built from their primitive representations (Poisson-weighted series for the
noncentral chi-squared and F, each summed outward from its largest term by the ratio of
neighbouring terms, and a scaled Bessel function for the chi-squared likelihood ratio),
marginal likelihoods by direct quadrature against the priors, and two-component mixture
forms of the marginals. Every quadrature runs through one window in posterior sds
(`_log_bf_window`): z over the mean shift, chi-squared over sqrt(lam), and F over its
denominator's chi-squared scale, with t as its k = 1 case. Deliberately slow and
redundant; it exists to catch algebra bugs in bayes_factors, not to serve evaluations.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .bayes_factors import Family, TestStatistic
from .numerics import (
    DEFAULT_QUADRATURE,
    DEFAULT_SERIES,
    IntegrationError,
    QuadratureSpec,
    SeriesError,
    integrate,
    log_beta,
    log_gamma,
)
from .priors import LOG_2PI, GammaNCPPrior, gamma_logpdf

_WINDOW_SDS = 12.0  # a window's half-width in posterior sds, past sqrt(k + 1) (z: k = 2)
_LN2 = math.log(2.0)


def log_density_null(
    family: Family, value: float, df1: int | None = None, df2: int | None = None
) -> float:
    """Null log density: the noncentral one at lam = 0, but a closed form for t."""
    if family is not Family.T:
        return _DENSITIES[family](value, 0.0, df1, df2)
    nu = df1
    return (
        log_gamma(0.5 * (nu + 1))
        - log_gamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
        - 0.5 * (nu + 1) * math.log1p(value * value / nu)
    )


def _nz_log_density(z: float, lam: float, df1, df2) -> float:
    """Normal log density of z around lam, unit variance."""
    d = z - lam
    return -0.5 * LOG_2PI - 0.5 * d * d


def _poisson_series_log_density(
    lam: float, central_logpdf, d: float, alpha: float, beta: float
) -> float:
    """Sum a Poisson(lam/2)-weighted family of central log densities.

    Term i+1 over term i is (alpha + beta i) / ((i + 1)(d + i)), which falls
    as i grows: the terms are log-concave, with their mode at the ceiling of
    the larger root of (i + 1)(d + i) = alpha + beta i. The sum starts from the
    exact log term there and walks down and up by the ratio, each side
    stopping once a term falls below term_rel_cutoff of the partial sum.
    """
    if lam == 0.0:
        return central_logpdf(0)
    cap, cutoff = DEFAULT_SERIES.max_terms, DEFAULT_SERIES.term_rel_cutoff
    b = d + 1.0 - beta
    root = 0.5 * (math.sqrt(b * b - 4.0 * (d - alpha)) - b)
    if not root < cap:
        raise SeriesError(f"series mode near {root:.6g} lies past max_terms {cap}")
    mode = max(0, math.ceil(root))
    total = term = 1.0
    for i in range(mode - 1, -1, -1):
        term *= (i + 1.0) * (d + i) / (alpha + beta * i)
        total += term
        if term < cutoff * total:
            break
    term = 1.0
    for i in range(mode, cap):
        term *= (alpha + beta * i) / ((i + 1.0) * (d + i))
        total += term
        if term < cutoff * total:
            break
    else:
        raise SeriesError(f"series did not meet cutoff {cutoff:g} within max_terms {cap}")
    log_weight = -0.5 * lam + mode * math.log(0.5 * lam) - log_gamma(mode + 1.0)
    return log_weight + central_logpdf(mode) + math.log(total)


def _ncx2_log_density(h: float, lam: float, k: int, df2) -> float:
    """Noncentral chi-squared log density as a Poisson mixture of central ones."""
    if h < 0:
        raise ValueError(f"chi-squared statistic must be >= 0, got {h}")

    def central(i: int) -> float:
        return gamma_logpdf(h, 0.5 * (k + 2 * i), 0.5)

    # term i+1 over term i is (lam/2)/(i+1) * (h/2)/(k/2+i)
    return _poisson_series_log_density(lam, central, 0.5 * k, 0.25 * lam * h, 0.0)


def _ncf_log_density(f: float, lam: float, k: int, m: int) -> float:
    """Noncentral F log density as a Poisson-weighted series.

    Term r carries the central F(k + 2r, m) density rescaled to the
    F(k, m) axis:
      e^(-lam/2) (lam/2)^r / r! * (k/m)^(k/2+r) f^(k/2+r-1)
        * (1 + k f / m)^(-(k+m)/2-r) / B(k/2+r, m/2)
    """
    if f < 0:
        raise ValueError(f"F statistic must be >= 0, got {f}")
    log_f = math.log(f) if f > 0 else -math.inf

    def central(r: int) -> float:
        power = 0.5 * k + r - 1.0  # f^0 = 1, also at f = 0
        return (
            (0.5 * k + r) * math.log(k / m)
            + (power * log_f if power else 0.0)
            - (0.5 * (k + m) + r) * math.log1p(k * f / m)
            - log_beta(0.5 * k + r, 0.5 * m)
        )

    # term r+1 over term r is (lam/2)/(r+1) * x (k/2+m/2+r)/(k/2+r), x = kf/(m+kf)
    a = 0.5 * lam * k * f / (m + k * f)
    return _poisson_series_log_density(lam, central, 0.5 * k, 0.5 * (k + m) * a, a)


# the noncentral log density of each family but t, whose null is a closed form, as
# f(x, lam, df1, df2)
_DENSITIES = {
    Family.Z: _nz_log_density,
    Family.CHISQ: _ncx2_log_density,
    Family.F: _ncf_log_density,
}


def _ncx2_ratio_fn(h: float, k: int):
    """lam -> ln p(h | lam)/p(h | 0) = ln Gamma(k/2) - nu ln(x/2) + ln ive(nu, x) + x - lam/2.

    nu = k/2 - 1, x = sqrt(lam h), ive(nu, x) = I_nu(x) e^-x (Johnson, Kotz & Balakrishnan 1995,
    ch. 29); nu, sqrt(h), ln Gamma(k/2) and ive are taken once. Where ive is not a comfortably
    normal double (large k at small x) or x = 0, it is the ratio's own Poisson series
    e^(-lam/2) sum (lam h/4)^i/(i! (k/2)_i), with no null density to cancel; at h = 0, -lam/2.
    """
    nu, sqrt_h, lg, ive = 0.5 * k - 1.0, math.sqrt(h), log_gamma(0.5 * k), numerics.ive
    log_half_h = math.log(h) - _LN2 if h > 0.0 else 0.0  # 0.5 * h is 0 at h = 5e-324

    def central(i: int) -> float:
        return lg - log_gamma(0.5 * k + i) + i * log_half_h

    def log_ratio(lam: float) -> float:
        if (x := math.sqrt(lam) * sqrt_h) > 0.0 and 1e-300 < (b := ive(nu, x)) < math.inf:
            return lg - nu * math.log(0.5 * x) + math.log(b) + x - 0.5 * lam
        if h == 0.0:
            return -0.5 * lam
        return _poisson_series_log_density(lam, central, 0.5 * k, 0.25 * lam * h, 0.0)

    return log_ratio


def _log_bf_window(logs, peaks, lo, hi, scale, quad_spec: QuadratureSpec) -> float:
    """ln BF10 = ln of the integral of w r over (lo, hi), in a posterior's sds; every route's tail.

    logs(z) is (ln w, ln r, ln w r): w the prior's weight and r the likelihood ratio. The window
    holds the mass of w r and its peaks are breakpoints. Near BF10 = 1, with |ln r| <= 1 at
    every peak and w's own mass inside the window (ln w at hi 40 below its value at a peak),
    the integral is BF10 - 1 = int w expm1(ln r), in units of scale, about its size (not below
    1e-300, where a subnormal tau2 has few bits); past ln r = 1 there w is negligible and expm1
    could overflow. Otherwise, or with no scale, it is BF10/e^shift, shift the peaks' largest
    ln w r. A window end that is not finite, a total that is not positive or an exponential
    that overflows is an IntegrationError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise IntegrationError(f"the quadrature window ({lo!r}, {hi!r}) has an end at inf")
    at = [logs(z) for z in peaks]
    shift = max(lwr for _, _, lwr in at)
    near_one = (
        scale is not None
        and all(abs(lr) <= 1.0 for _, lr, _ in at)
        and logs(hi)[0] < max(lw for lw, _, _ in at) - 40.0
    )

    def near(z: float) -> float:
        lw, lr, lwr = logs(z)
        if lr > 1.0:
            return (math.exp(lwr) - math.exp(lw)) / scale
        return math.exp(lw) * math.expm1(lr) / scale

    def shifted(z: float) -> float:
        return math.exp(logs(z)[2] - shift)

    try:
        total = integrate(near if near_one else shifted, lo, hi, quad_spec, breakpoints=peaks)
    except OverflowError as e:
        raise IntegrationError(f"exp of the integrand overflows on ({lo!r}, {hi!r})") from e
    if near_one and scale * total > -1.0:
        return math.log1p(scale * total)
    if not near_one and total > 0.0:
        return shift + math.log(total)
    raise IntegrationError(f"BF10 over the window ({lo!r}, {hi!r}) came out <= 0")


def _log_bf_scale(f: float, k: int, m: int, tau2: float, quad_spec: QuadratureSpec) -> float:
    """ln BF10 of an F statistic in one quadrature over its denominator; t is (t^2, 1, nu).

    F = (chi2_k(lam)/k)/(chi2_m/m) (Johnson, Kotz & Balakrishnan 1995, ch. 30): given V = chi2_m,
    h = f k V/m is ||x||^2 for x ~ N(mu, I), lam = ||mu||^2, and G(k/2 + 1, 1/(2 tau2)) on lam is
    ||mu||^2/(k tau2) times N(0, tau2 I) on mu. So with mu | x ~ N(v x, v I), v = tau2/(1 + tau2),
    E||mu||^2 = v^2 h + k v, and h's likelihood ratio is r = (1 + tau2)^(-k/2) e^(v h/2)
    E||mu||^2/(k tau2). BF10 is r's mean over V's null posterior, under which u = V/E[V | f] is
    Gamma(a, a), a = (k + m)/2, and h = h0 u.
    """
    lp, v, x = math.log1p(tau2), tau2 / (1.0 + tau2), k * f / (m + k * f)
    a, h0, top = 0.5 * (k + m), (k + m) * x, -(0.5 * k + 1.0) * lp
    # ln w r = (a - 1) ln u - a rho u + ln(1 + q u) + const, rho = 1 - v x, peaks at a root of
    # a rho q u^2 + bq u - (a - 1) = 0, taken without cancellation
    rho, q, sa = 1.0 / (1.0 + tau2) + v * m / (m + k * f), v * h0 / k, math.sqrt(a)
    bq = a * (rho - q)
    root = math.sqrt(bq * bq + 4.0 * a * rho * q * (a - 1.0))
    u1 = 2.0 * (a - 1.0) / (bq + root) if bq > 0.0 else (root - bq) / (2.0 * a * rho * q)
    # in z = sqrt(a) (u - 1), ln w = c + (a - 1) ln(1 + z/sqrt(a)) - sqrt(a) z, with
    # c = a ln a - a - ln Gamma(a) - ln(a)/2 by Stirling past a = 1e3, where its terms cancel
    c = -0.5 * LOG_2PI - (1.0 - 1.0 / (30.0 * a * a)) / (12.0 * a)
    if a < 1e3:
        c = a * math.log(a) - a - log_gamma(a) - 0.5 * math.log(a)
    am1, hk, sar, vh = a - 1.0, 0.5 * k, sa * rho, 0.5 * v * h0

    def logs(z: float) -> tuple[float, float, float]:
        """(ln w, ln r, ln w r) at z; ln w r takes -a rho u whole, as -a u and v h/2 cancel."""
        lu, lq = c + am1 * math.log1p(z / sa), math.log1p(qu := q * (1.0 + z / sa))
        return lu - sa * z, top + hk * qu + lq, lu - sar * z + vh + top + lq

    # 40 standard deviations 1/sqrt(a) below 1 and past both peaks, and 40/(a rho) more
    # for the e^(-a rho u) tail, which is the wider at small a. u1 = 0 (a = 1) is the
    # window's start, where ln u = -inf.
    peaks, hi = [0.0, sa * (u1 - 1.0)] if u1 > 0.0 else [0.0], max(1.0, u1)
    end, scale = sa * (hi - 1.0) + 40.0 * hi + 40.0 / (sa * rho), max(v * (1.0 + h0), 1e-300)
    return _log_bf_window(logs, peaks, max(-sa, -40.0), end, scale, quad_spec)


def _gamma_root_log_density(prior: GammaNCPPrior) -> tuple[float, float]:
    """(c, rate) with ln of pi(s^2) 2s = c + (k + 1) ln s - rate s^2: the prior in s = sqrt(lam)."""
    return prior.shape * math.log(prior.rate) - math.lgamma(prior.shape) + math.log(2.0), prior.rate


def _log_bf_chisq_root(h: float, k: int, tau2: float, quad_spec) -> float:
    """ln BF10 of a chi-squared statistic in one quadrature over s = sqrt(lam), in posterior sds.

    s is about N(v sqrt(h), v) at large h, v = tau2/(1 + tau2), so p(h | s^2)/p(h | 0) pi(s^2) 2s
    runs in z = (s - s_m)/sqrt(v), s_m the mode of s^(k+1) e^(s sqrt(h) - s^2/(2v)), split
    there, 12 + sqrt(k + 1) each side, clipped at s = 0. Its log-curvature in s is at most
    -1/v: tails past 12 sds are below e^-72, and an end off s = 0 within e^-40 of the peak raises.
    It takes no near-one scale: ln r, the Bessel form, cancels terms of size nu |ln(x/2)| at small
    x to 1e-15-3e-14 absolute noise, and integrating w expm1(ln r) through it where BF10 - 1 is
    about tau2 ends in roundoff (tau2 1e-12) or loses ln BF10 altogether (tau2 1e-30).
    """
    (c, rate), v = _gamma_root_log_density(GammaNCPPrior(k, tau2)), tau2 / (1.0 + tau2)
    if math.isinf(rate):
        raise IntegrationError(f"gamma prior rate 1/(2 tau2) overflows at tau2 {tau2!r}")
    sv, c, log_ratio = math.sqrt(v), c + 0.5 * math.log(v), _ncx2_ratio_fn(h, k)
    sm = 0.5 * (v * math.sqrt(h) + math.sqrt(v * v * h + 4.0 * v * (k + 1.0)))

    def logs(z: float) -> tuple[float, float, float]:
        s = sm + sv * z  # > 0, as quadrature nodes lie inside the window
        lw, lr = c + (k + 1.0) * math.log(s) - rate * s * s, log_ratio(s * s)
        return lw, lr, lw + lr

    peak, half = logs(0.0)[2], _WINDOW_SDS + math.sqrt(k + 1.0)
    lo = max(-half, -sm / sv)
    if any(end > -sm / sv and not logs(end)[2] < peak - 40.0 for end in (lo, half)):
        raise IntegrationError(f"the integrand holds mass past its window of {half:.4g} sds")
    return _log_bf_window(logs, [0.0], lo, half, None, quad_spec)


def _nm_root_log_density(tau2: float) -> tuple[float, float]:
    """(c, rate) with ln of J(0, tau2) in rho = lam/sqrt(v) = c + 2 ln rho - rate rho^2.

    That is rho^2/(1 + tau2) phi(rho/sqrt(1 + tau2))/sqrt(1 + tau2), v = tau2/(1 + tau2), which
    forms no subnormal lam^2 at a subnormal tau2.
    """
    return -1.5 * math.log1p(tau2) - 0.5 * LOG_2PI, 0.5 / (1.0 + tau2)


def _log_bf_z(x: float, tau2: float, quad_spec: QuadratureSpec) -> float:
    """ln BF10 of a z statistic in one quadrature over rho = lam/sqrt(v), in posterior sds.

    r = e^(x lam - lam^2/2), and folding rho onto -rho makes it e^(-v rho^2/2) cosh(b rho), b =
    sqrt(v) |x|, so the odd term cannot cancel near BF10 = 1; w is twice the prior. ln w r is
    2 ln rho - rho^2/2 + ln cosh(b rho) + const, with peaks (sqrt(b^2 + 8) -/+ b)/2 (one
    breakpoint where they nearly meet), and falls about like a unit normal past the higher.
    The window runs from 0 to 12 + sqrt(3) sds past it.
    """
    (c, rate), v = _nm_root_log_density(tau2), tau2 / (1.0 + tau2)
    b, c = math.sqrt(v) * abs(x), c + _LN2

    def logs(rho: float) -> tuple[float, float, float]:
        a = b * rho  # ln cosh a; cosh a - 1 = 2 sinh(a/2)^2 keeps small a exact
        if a < 1.0:
            lc = math.log1p(2.0 * math.sinh(0.5 * a) ** 2)
        else:
            lc = a - _LN2 + math.log1p(math.exp(-2.0 * a))
        lw, lr = c + 2.0 * math.log(rho) - rate * rho * rho, lc - 0.5 * v * rho * rho
        return lw, lr, lw + lr

    root = math.sqrt(b * b + 8.0)
    hi = 0.5 * (root + b)
    peaks = [4.0 / (root + b), hi] if b >= 1e-3 else [hi]
    half = _WINDOW_SDS + math.sqrt(3.0)
    return _log_bf_window(logs, peaks, 0.0, hi + half, max(v + b * b, 1e-300), quad_spec)


def log_bf_quadrature(
    stat: TestStatistic,
    tau2: float,
    quad_spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """ln BF10 = ln of the integral of p(x | lam) / p(x | 0) * pi(lam) dlam, in posterior sds.

    The prior pi is J(0, tau2) on the mean shift for z, folded onto lam > 0 over
    rho = lam/sqrt(v), and G(k/2 + 1, 1/(2 tau2)) on the non-centrality for chi-squared,
    over s = sqrt(lam). F integrates over its denominator's chi-squared scale instead, with
    lam in closed form, and t is its k = 1 case, F = t^2. Each route hands its window to
    `_log_bf_window`.
    """
    if not 0.0 < tau2 < math.inf:  # nan and inf reached the routes as unnamed window errors
        raise ValueError(f"tau2 must be finite and > 0, got {tau2}")
    family, x, df1, df2 = stat.family, stat.value, stat.df1, stat.df2
    try:
        log_null = log_density_null(family, x, df1, df2)
    except OverflowError as e:  # lgamma of a df past about 2.5e305
        raise IntegrationError(f"the null log density overflows on {df1}, {df2} df") from e
    if not math.isfinite(log_null):
        raise IntegrationError(
            f"likelihood ratio undefined: the null log density of the "
            f"{family.value} statistic {x!r} is {log_null}"
        )
    if family is Family.T:
        return _log_bf_scale(x * x, 1, df1, tau2, quad_spec)
    if family is Family.F:
        return _log_bf_scale(x, df1, df2, tau2, quad_spec)
    if family is Family.CHISQ:
        return _log_bf_chisq_root(x, df1, tau2, quad_spec)
    return _log_bf_z(x, tau2, quad_spec)


def log_marginal_mixture_chisq(h: float, k: int, tau2: float) -> float:
    """Marginal chi-squared likelihood m1(h) as a two-component gamma mixture.

    m1(h) = 1/(tau2+1) * g(h; k/2, 1/(2(tau2+1)))
          + tau2/(tau2+1) * g(h; k/2+1, 1/(2(tau2+1)))
    """
    rate = 1.0 / (2.0 * (tau2 + 1.0))
    a = -math.log1p(tau2) + gamma_logpdf(h, 0.5 * k, rate)
    b = math.log(tau2) - math.log1p(tau2) + gamma_logpdf(h, 0.5 * k + 1.0, rate)
    return float(np.logaddexp(a, b))


def log_marginal_mixture_f(f: float, k: int, m: int, tau2: float) -> float:
    """Marginal F likelihood m1(f) as a two-component scaled central-F mixture.

    The first component is (1+tau2) times a central F(k, m) variable; the
    second is ((k+2)/k)(1+tau2) times a central F(k+2, m) variable.
    """
    c = 1.0 + tau2
    log_p_y = log_density_null(Family.F, f / c, k, m) - math.log(c)
    log_p_z = log_density_null(Family.F, f * k / ((k + 2.0) * c), k + 2, m) + math.log(
        k / ((k + 2.0) * c)
    )
    a = -math.log(c) + log_p_y
    b = math.log(tau2) - math.log(c) + log_p_z
    return float(np.logaddexp(a, b))
