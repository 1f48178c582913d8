"""Brute-force verification of the closed-form Bayes factors.

Everything here recomputes Bayes factors from first principles: null and
noncentral densities built from their primitive representations (an integral
form for the noncentral t, Poisson-weighted series for the noncentral
chi-squared and F, each summed outward from its largest term by the ratio of
neighbouring terms), marginal likelihoods by direct quadrature against the
priors (over the mean shift for z, after a support scan; over sqrt(lam) in posterior
sds for chi-squared, with no scan; for F over its denominator's chi-squared scale,
with t as its k = 1 case), and two-component mixture forms of the marginals.
Deliberately slow and redundant; it exists to catch algebra bugs in
bayes_factors, not to serve evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
    sum_series,
)
from .priors import (
    LOG_2PI,
    GammaNCPPrior,
    NormalMomentPrior,
    gamma_logpdf,
    nm_log_density,
)

# a geometric scan from 1e-9 * end to end, as fractions of the end
_SCAN = np.geomspace(1e-9, 1.0, 101)
_CHISQ_SDS = 12.0  # the chi-squared window's half-width in posterior sds, past sqrt(k + 1)


@dataclass(frozen=True)
class NoncentralDensityQuery:
    """A point query against a noncentral sampling density."""

    family: Family
    value: float
    lam: float
    df1: int | None = None
    df2: int | None = None

    def __post_init__(self) -> None:
        if self.family in (Family.CHISQ, Family.F) and self.lam < 0:
            raise ValueError(
                f"{self.family.value} non-centrality must be >= 0, got {self.lam}"
            )


def log_density_null(
    family: Family, value: float, df1: int | None = None, df2: int | None = None
) -> float:
    """Null log density: the noncentral one at lam = 0, but a closed form for t."""
    if family is not Family.T:
        return _DENSITIES[family](value, 0.0, df1, df2, DEFAULT_QUADRATURE)
    nu = df1
    return (
        log_gamma(0.5 * (nu + 1))
        - log_gamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
        - 0.5 * (nu + 1) * math.log1p(value * value / nu)
    )


def _nz_log_density(z: float, lam: float, df1, df2, quad_spec: QuadratureSpec) -> float:
    """Normal log density of z around lam, unit variance."""
    d = z - lam
    return -0.5 * LOG_2PI - 0.5 * d * d


def _nct_log_density_integral(
    t: float, lam: float, nu: int, df2, quad_spec: QuadratureSpec
) -> float:
    """Noncentral t log density from its single-integral representation.

    f(t | nu, lam) = c * exp(-nu lam^2 / (2 d^2))
                       * int_0^inf y^nu exp(-(y - lam t / d)^2 / 2) dy
    with d = sqrt(t^2 + nu) and
    c = nu^(nu/2) / (sqrt(pi) Gamma(nu/2) d^(nu+1) 2^((nu-1)/2)).
    """
    d = math.sqrt(t * t + nu)
    b = lam * t / d
    log_c = (
        0.5 * nu * math.log(nu)
        - 0.5 * math.log(math.pi)
        - log_gamma(0.5 * nu)
        - (nu + 1) * math.log(d)
        - 0.5 * (nu - 1) * math.log(2.0)
    )
    # peak of nu*ln(y) - (y-b)^2/2; the curvature there is at least 1, so
    # 15 units past the peak the integrand is down by more than e^-100
    y_star = 0.5 * (b + math.sqrt(b * b + 4.0 * nu))
    shift = nu * math.log(y_star) - 0.5 * (y_star - b) ** 2

    def integrand(y: float) -> float:
        if y <= 0.0:
            return 0.0
        return math.exp(nu * math.log(y) - 0.5 * (y - b) ** 2 - shift)

    total = integrate(integrand, 0.0, y_star + 15.0, quad_spec, breakpoints=[y_star])
    return log_c + shift + math.log(total) - 0.5 * nu * lam * lam / (d * d)


def noncentral_t_log_density_series(t: float, nu: int, lam: float) -> float:
    """Noncentral t log density from its power-series representation.

    An independent route to the density that log_density_noncentral takes
    through its integral form; the two are checked against each other.

    f(t | nu, lam) = nu^(nu/2) e^(-lam^2/2) / (sqrt(pi) Gamma(nu/2) d^(nu+1))
                       * sum_j Gamma((nu+j+1)/2) / j! * (sqrt(2) lam t / d)^j
    """
    d = math.sqrt(t * t + nu)
    a = math.sqrt(2.0) * lam * t / d
    log_front = (
        0.5 * nu * math.log(nu)
        - 0.5 * lam * lam
        - 0.5 * math.log(math.pi)
        - log_gamma(0.5 * nu)
        - (nu + 1) * math.log(d)
    )
    if a == 0.0:
        return log_front + log_gamma(0.5 * (nu + 1))

    def log_abs_term(j: int) -> float:
        return log_gamma(0.5 * (nu + j + 1)) - log_gamma(j + 1.0) + j * math.log(abs(a))

    # terms rise before they fall; scale by the largest magnitude so the
    # guarded linear-space summation neither overflows nor stops early
    peak, cap = int(a * a) + 10, DEFAULT_SERIES.max_terms
    if peak > cap:
        raise SeriesError(f"series needs {peak} terms, over max_terms {cap}")
    spec = replace(DEFAULT_SERIES, min_terms=max(DEFAULT_SERIES.min_terms, peak))
    shift = max(log_abs_term(j) for j in range(peak + 1))
    sign = -1.0 if a < 0 else 1.0

    def term(j: int) -> float:
        return (sign**j) * math.exp(log_abs_term(j) - shift)

    total = sum_series(term, spec)
    if total <= 0.0:
        raise ArithmeticError("noncentral t series lost all precision to cancellation")
    return log_front + shift + math.log(total)


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


def _ncx2_log_density(h: float, lam: float, k: int, df2, quad_spec: QuadratureSpec) -> float:
    """Noncentral chi-squared log density as a Poisson mixture of central ones."""
    if h < 0:
        raise ValueError(f"chi-squared statistic must be >= 0, got {h}")

    def central(i: int) -> float:
        return gamma_logpdf(h, 0.5 * (k + 2 * i), 0.5)

    # term i+1 over term i is (lam/2)/(i+1) * (h/2)/(k/2+i)
    return _poisson_series_log_density(lam, central, 0.5 * k, 0.25 * lam * h, 0.0)


def _ncf_log_density(f: float, lam: float, k: int, m: int, quad_spec: QuadratureSpec) -> float:
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


# each family's noncentral log density, as f(x, lam, df1, df2, quad_spec)
_DENSITIES = {
    Family.Z: _nz_log_density,
    Family.T: _nct_log_density_integral,
    Family.CHISQ: _ncx2_log_density,
    Family.F: _ncf_log_density,
}


def log_density_noncentral(
    q: NoncentralDensityQuery, quad_spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Log density of the statistic at non-centrality lam."""
    return _DENSITIES[q.family](q.value, q.lam, q.df1, q.df2, quad_spec)


def _support(log_integrand, end: float) -> tuple[float, float, float]:
    """(shift, peak, stop) of a unimodal log_integrand along end * _SCAN; z's support scan.

    The scan keeps the running maximum shift at peak and stops at the first
    point e^-40 below it (stop = end if none). A coarse pass over every 10th
    point lands at most 9 points right of the argmax, so a fine pass from 9
    points left of the coarse one finds what a scan from the first would.
    """
    xs = (end * _SCAN).tolist()
    first = 0
    for step in (10, 1):
        shift, peak, stop = -math.inf, xs[0], end
        for x in xs[first::step]:
            v = log_integrand(x)
            if v > shift:
                shift, peak = v, x
            elif v < shift - 40.0:
                stop = x
                break
        first = max(0, xs.index(peak) - 9)
    if shift == -math.inf:
        raise IntegrationError(f"integrand is not finite anywhere on (0, {end!r})")
    return shift, peak, stop


def _log_integral_shifted(log_integrand, ends, quad_spec: QuadratureSpec) -> float:
    """ln of the sum over ends of the integral of exp(log_integrand) from 0 to end; z's route.

    The integrand vanishes at 0 and is unimodal toward each end, so a
    geometric scan from 0 finds its support (`_support`). The prior decays
    like a normal, so the tail cut at the scan's stop is about 1e-16 of
    the integral, below any tolerance in use. The piece from 0 to that stop is
    integrated in units of the scan's argmax, rescaled by the scan maximum,
    with the argmax as a breakpoint so a sharp peak cannot fall between the
    initial quadrature nodes; the units keep the integral near 1 whatever the
    support's width, so the spec's absolute tolerance stays meaningful. Each
    end must lie past the integrand's mass, and 1e-9 * end below its peak; a
    scan whose peak is its last point is an IntegrationError.
    """
    logs = []
    for end in ends:
        shift, peak, stop = _support(log_integrand, end)
        if peak == end:
            raise IntegrationError(f"the support scan peaks at its last point, {end!r}")

        def f(u: float) -> float:
            v = log_integrand(u * peak) - shift
            return math.exp(v) if v > -745.0 else 0.0

        total = integrate(f, 0.0, stop / peak, quad_spec, breakpoints=[1.0])
        if total <= 0.0:
            raise IntegrationError("integral of a positive integrand came out <= 0")
        logs.append(shift + math.log(total * abs(peak)))
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


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

    def logs(z: float) -> tuple[float, float, float]:
        """(ln w, ln r, ln w r) at z; ln w r takes -a rho u whole, as -a u and v h/2 cancel."""
        lu, qu = c + (a - 1.0) * math.log1p(z / sa), q * (1.0 + z / sa)
        lr = top + 0.5 * k * qu + math.log1p(qu)
        return lu - sa * z, lr, lu - sa * rho * z + 0.5 * v * h0 + top + math.log1p(qu)

    # near BF10 = 1, integrate BF10 - 1 = int w expm1(ln r) in units of about its size (not
    # below 1e-300, where a subnormal v has few bits); else BF10/e^shift. Past ln r = 1, w
    # is negligible and expm1 could overflow. u1 = 0 (a = 1) is the window's end, where ln u = -inf.
    peaks = [0.0, sa * (u1 - 1.0)] if u1 > 0.0 else [0.0]
    near_one = all(abs(logs(z)[1]) <= 1.0 for z in peaks)
    scale, shift = max(v * (1.0 + h0), 1e-300), max(logs(z)[2] for z in peaks)

    def g(z: float) -> float:
        lw, lr, lwr = logs(z)
        if not near_one:
            return math.exp(lwr - shift)
        if lr > 1.0:
            return (math.exp(lwr) - math.exp(lw)) / scale
        return math.exp(lw) * math.expm1(lr) / scale

    # 40 standard deviations 1/sqrt(a) below 1 and past both peaks, and 40/(a rho) more
    # for the e^(-a rho u) tail, which is the wider at small a
    hi = max(1.0, u1)
    end = sa * (hi - 1.0) + 40.0 * hi + 40.0 / (sa * rho)
    total = integrate(g, max(-sa, -40.0), end, quad_spec, breakpoints=peaks)
    return math.log1p(scale * total) if near_one else shift + math.log(total)


def _gamma_root_log_density(prior: GammaNCPPrior) -> tuple[float, float]:
    """(c, rate) with ln of pi(s^2) 2s = c + (k + 1) ln s - rate s^2: the prior in s = sqrt(lam)."""
    return prior.shape * math.log(prior.rate) - math.lgamma(prior.shape) + math.log(2.0), prior.rate


def _log_bf_chisq_root(h: float, k: int, tau2: float, log_null: float, quad_spec) -> float:
    """ln BF10 of a chi-squared statistic in one quadrature over s = sqrt(lam), in posterior sds.

    s is about N(v sqrt(h), v) at large h, v = tau2/(1 + tau2), so p(h | s^2)/p(h | 0) pi(s^2) 2s
    runs in z = (s - s_m)/sqrt(v), s_m the mode of s^(k+1) e^(s sqrt(h) - s^2/(2v)), shifted and
    split there, 12 + sqrt(k + 1) each side, clipped at s = 0. Its log-curvature in s is at most
    -1/v: tails past 12 sds are below e^-72, and an end off s = 0 within e^-40 of the shift raises.
    """
    (c, rate), v = _gamma_root_log_density(GammaNCPPrior(k, tau2)), tau2 / (1.0 + tau2)
    if math.isinf(rate):
        raise IntegrationError(f"gamma prior rate 1/(2 tau2) overflows at tau2 {tau2!r}")
    sv, c, density = math.sqrt(v), c + 0.5 * math.log(v) - log_null, _DENSITIES[Family.CHISQ]
    sm = 0.5 * (v * math.sqrt(h) + math.sqrt(v * v * h + 4.0 * v * (k + 1.0)))

    def log_integrand(z: float) -> float:
        s = sm + sv * z  # > 0, as quadrature nodes lie inside the window
        return density(h, s * s, k, None, quad_spec) + c + (k + 1.0) * math.log(s) - rate * s * s

    shift, half = log_integrand(0.0), _CHISQ_SDS + math.sqrt(k + 1.0)
    lo = max(-half, -sm / sv)
    if any(end > -sm / sv and not log_integrand(end) < shift - 40.0 for end in (lo, half)):
        raise IntegrationError(f"the integrand holds mass past its window of {half:.4g} sds")
    total = integrate(lambda z: math.exp(log_integrand(z) - shift), lo, half, quad_spec, [0.0])
    return shift + math.log(total)


def log_bf_quadrature(
    stat: TestStatistic,
    tau2: float,
    quad_spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """ln BF10 = ln of the integral of p(x | lam) / p(x | 0) * pi(lam) dlam.

    The prior pi is J(0, tau2) on the mean shift for z, over both half-lines after a
    support scan, and G(k/2 + 1, 1/(2 tau2)) on the non-centrality for chi-squared, over
    s = sqrt(lam) in posterior sds with no scan. F integrates over its denominator's
    chi-squared scale instead, with lam in closed form, and t is its k = 1 case, F = t^2.
    """
    if tau2 <= 0:
        raise ValueError(f"tau2 must be > 0, got {tau2}")
    family, x, df1, df2 = stat.family, stat.value, stat.df1, stat.df2
    log_null = log_density_null(family, x, df1, df2)
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
        return _log_bf_chisq_root(x, df1, tau2, log_null, quad_spec)
    prior, density = NormalMomentPrior(0.0, tau2), _DENSITIES[Family.Z]
    # the posterior's spread is at most the smaller of the prior's tau and the
    # likelihood's, about 1 + |x|, and its centre is within about |x| min(1, tau2) of 0
    span = 50.0 * (1.0 + abs(x)) * min(1.0, math.sqrt(tau2))

    def log_integrand(lam: float) -> float:
        return density(x, lam, df1, df2, quad_spec) - log_null + nm_log_density(prior, lam)

    return _log_integral_shifted(log_integrand, (-span, span), quad_spec)


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
