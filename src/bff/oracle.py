"""Brute-force verification of the closed-form Bayes factors.

Everything here recomputes Bayes factors from first principles: null and
noncentral densities built from their primitive representations (an integral
form for the noncentral t, Poisson-weighted series for the noncentral
chi-squared and F), marginal likelihoods by direct quadrature against the
priors, and two-component mixture forms of the chi-squared and F marginals.
Deliberately slow and redundant; it exists to catch algebra bugs in
bayes_factors, not to serve evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes_factors import Family, TestStatistic
from .numerics import (
    DEFAULT_QUADRATURE,
    DEFAULT_SERIES,
    IntegrationError,
    QuadratureSpec,
    SeriesError,
    SeriesSpec,
    integrate,
    log_beta,
    log_gamma,
    sum_series,
)
from .priors import (
    LOG_2PI,
    GammaNCPPrior,
    NormalMomentPrior,
    gamma_log_density,
    nm_log_density,
)

_COARSE_POINTS = 101


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


def _gamma_logpdf(x: float, shape: float, rate: float) -> float:
    if x < 0:
        raise ValueError(f"gamma density requires x >= 0, got {x}")
    if x == 0.0:
        return math.inf if shape < 1 else (math.log(rate) if shape == 1 else -math.inf)
    return (
        shape * math.log(rate)
        - log_gamma(shape)
        + (shape - 1.0) * math.log(x)
        - rate * x
    )


def log_density_null(
    family: Family, value: float, df1: int | None = None, df2: int | None = None
) -> float:
    """Log density of the statistic under the null (central) distribution."""
    if family is Family.Z:
        return -0.5 * LOG_2PI - 0.5 * value * value
    if family is Family.T:
        nu = df1
        return (
            log_gamma(0.5 * (nu + 1))
            - log_gamma(0.5 * nu)
            - 0.5 * math.log(nu * math.pi)
            - 0.5 * (nu + 1) * math.log1p(value * value / nu)
        )
    if family is Family.CHISQ:
        k = df1
        return _gamma_logpdf(value, 0.5 * k, 0.5)
    k, m = df1, df2
    if value < 0:
        raise ValueError(f"F statistic must be >= 0, got {value}")
    if value == 0.0:
        if k == 2:
            return 0.0
        return math.inf if k < 2 else -math.inf
    return (
        0.5 * k * math.log(k / m)
        + (0.5 * k - 1.0) * math.log(value)
        - 0.5 * (k + m) * math.log1p(k * value / m)
        - log_beta(0.5 * k, 0.5 * m)
    )


def _nct_log_density_integral(
    t: float, nu: int, lam: float, quad_spec: QuadratureSpec
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


def _series_spec(series_spec: SeriesSpec, min_terms: int) -> SeriesSpec:
    """series_spec with at least min_terms terms; SeriesError past max_terms."""
    if min_terms > series_spec.max_terms:
        raise SeriesError(f"series needs {min_terms} terms, over max_terms {series_spec.max_terms}")
    return SeriesSpec(
        term_rel_cutoff=series_spec.term_rel_cutoff,
        min_terms=max(series_spec.min_terms, min_terms),
        max_terms=series_spec.max_terms,
    )


def _nct_log_density_series(
    t: float, nu: int, lam: float, series_spec: SeriesSpec
) -> float:
    """Noncentral t log density from its power-series representation.

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
    peak = int(a * a) + 10
    spec = _series_spec(series_spec, peak)
    shift = max(log_abs_term(j) for j in range(peak + 1))
    sign = -1.0 if a < 0 else 1.0

    def term(j: int) -> float:
        return (sign**j) * math.exp(log_abs_term(j) - shift)

    total = sum_series(term, spec)
    if total <= 0.0:
        raise ArithmeticError("noncentral t series lost all precision to cancellation")
    return log_front + shift + math.log(total)


def _poisson_series_log_density(
    lam: float,
    central_logpdf,
    mode_hint: int,
    series_spec: SeriesSpec,
) -> float:
    """Sum a Poisson(lam/2)-weighted family of central log densities."""
    if lam == 0.0:
        return central_logpdf(0)

    def log_term(i: int) -> float:
        return (
            -0.5 * lam
            + i * math.log(0.5 * lam)
            - log_gamma(i + 1.0)
            + central_logpdf(i)
        )

    scan_hi = mode_hint + 10
    spec = _series_spec(series_spec, scan_hi)
    shift = max(log_term(i) for i in range(scan_hi + 1))

    def term(i: int) -> float:
        return math.exp(log_term(i) - shift)

    return shift + math.log(sum_series(term, spec))


def _ncx2_log_density(
    h: float, k: int, lam: float, series_spec: SeriesSpec
) -> float:
    """Noncentral chi-squared log density as a Poisson mixture of central ones."""
    if h < 0:
        raise ValueError(f"chi-squared statistic must be >= 0, got {h}")

    def central(i: int) -> float:
        return _gamma_logpdf(h, 0.5 * (k + 2 * i), 0.5)

    mode_hint = int(max(0.5 * lam, 0.5 * math.sqrt(lam * h)))
    return _poisson_series_log_density(lam, central, mode_hint, series_spec)


def _ncf_log_density(
    f: float, k: int, m: int, lam: float, series_spec: SeriesSpec
) -> float:
    """Noncentral F log density as a Poisson-weighted series.

    Term r carries the central F(k + 2r, m) density rescaled to the
    F(k, m) axis:
      e^(-lam/2) (lam/2)^r / r! * (k/m)^(k/2+r) f^(k/2+r-1)
        * (1 + k f / m)^(-(k+m)/2-r) / B(k/2+r, m/2)
    """
    if f < 0:
        raise ValueError(f"F statistic must be >= 0, got {f}")
    log_f = math.log(f) if f > 0 else -math.inf
    log_ratio = math.log(k / m) + log_f - math.log1p(k * f / m)

    def central(r: int) -> float:
        return (
            (0.5 * k + r) * math.log(k / m)
            + (0.5 * k + r - 1.0) * log_f
            - (0.5 * (k + m) + r) * math.log1p(k * f / m)
            - log_beta(0.5 * k + r, 0.5 * m)
        )

    # the term ratio is roughly (lam/2) * (kf/m)/(1+kf/m) / r, so the mode
    # never sits far beyond lam/2
    mode_hint = int(0.5 * lam * min(1.0, math.exp(log_ratio))) if f > 0 else 0
    return _poisson_series_log_density(lam, central, max(mode_hint, int(0.5 * lam)), series_spec)


def log_density_noncentral(
    q: NoncentralDensityQuery,
    quad_spec: QuadratureSpec = DEFAULT_QUADRATURE,
    series_spec: SeriesSpec = DEFAULT_SERIES,
) -> float:
    """Log density of the statistic at non-centrality lam."""
    if q.family is Family.Z:
        d = q.value - q.lam
        return -0.5 * LOG_2PI - 0.5 * d * d
    if q.family is Family.T:
        return _nct_log_density_integral(q.value, q.df1, q.lam, quad_spec)
    if q.family is Family.CHISQ:
        return _ncx2_log_density(q.value, q.df1, q.lam, series_spec)
    return _ncf_log_density(q.value, q.df1, q.df2, q.lam, series_spec)


def noncentral_t_log_density_series(
    t: float, nu: int, lam: float, series_spec: SeriesSpec = DEFAULT_SERIES
) -> float:
    """Independent series route for the noncentral t density (cross-check)."""
    return _nct_log_density_series(t, nu, lam, series_spec)


def _log_integral_shifted(
    log_integrand,
    pieces: list[tuple[float, float]],
    coarse: np.ndarray,
    quad_spec: QuadratureSpec,
) -> float:
    """ln of the integral of exp(log_integrand) over the given finite pieces.

    The integrand is rescaled by its maximum over the coarse grid so the
    linear-space quadrature stays in range, and the grid argmax is handed to
    the quadrature as a breakpoint so a sharp peak cannot fall between its
    initial nodes. Callers choose pieces wide enough that the truncated tails
    are negligible against their tolerances.
    """
    values = [log_integrand(x) for x in coarse]
    shift = max(values)
    if shift == -math.inf:
        return -math.inf
    peak = float(coarse[values.index(shift)])

    def f(x: float) -> float:
        v = log_integrand(x) - shift
        return math.exp(v) if v > -745.0 else 0.0

    total = sum(
        integrate(f, lo, hi, quad_spec, breakpoints=[peak]) for lo, hi in pieces
    )
    if total <= 0.0:
        raise IntegrationError("integral of a positive integrand came out <= 0")
    return shift + math.log(total)


def _log_bf_quadrature_z(
    z: float, tau2: float, quad_spec: QuadratureSpec
) -> float:
    prior = NormalMomentPrior(0.0, tau2)
    tau = math.sqrt(tau2)
    log_null = log_density_null(Family.Z, z)

    def log_integrand(lam: float) -> float:
        d = z - lam
        return -0.5 * LOG_2PI - 0.5 * d * d - log_null + nm_log_density(prior, lam)

    span = abs(z) + 12.0 * (1.0 + tau)
    coarse = np.linspace(-span, span, _COARSE_POINTS)
    return _log_integral_shifted(
        log_integrand, [(-span, 0.0), (0.0, span)], coarse, quad_spec
    )


def _log_bf_quadrature_t(
    t: float, nu: int, tau2: float, quad_spec: QuadratureSpec
) -> float:
    """Quadrature Bayes factor for t, with the prior integral taken first.

    Swapping the integration order inside the marginal likelihood and
    cancelling the common constants of m1 and m0 leaves

      BF = int_0^inf y^nu e^(-y^2/2) G(y) dy / (2^((nu-1)/2) Gamma((nu+1)/2)),
      G(y) = int_R exp(y lam t / d - lam^2 / 2) j(lam | 0, tau2) dlam,

    with d = sqrt(t^2 + nu). Both levels are rescaled by coarse-grid maxima
    before quadrature.
    """
    prior = NormalMomentPrior(0.0, tau2)
    tau = math.sqrt(tau2)
    d = math.sqrt(t * t + nu)
    tilt = t / d

    def log_g(y: float) -> float:
        def inner(lam: float) -> float:
            return y * lam * tilt - 0.5 * lam * lam + nm_log_density(prior, lam)

        center = y * tilt * tau2 / (1.0 + tau2)
        span = abs(center) + 12.0 * (1.0 + tau)
        coarse = np.linspace(-span, span, _COARSE_POINTS)
        return _log_integral_shifted(
            inner, [(-span, 0.0), (0.0, span)], coarse, quad_spec
        )

    def log_outer(y: float) -> float:
        if y <= 0.0:
            return -math.inf
        return nu * math.log(y) - 0.5 * y * y + log_g(y)

    # the tilt inflates the Gaussian factor's spread by at most
    # 1/(1 - c) with c = (t^2/d^2) * tau2/(1+tau2) < 1, so the integrand
    # beyond y_hi is far below any achievable tolerance
    c = tilt * tilt * tau2 / (1.0 + tau2)
    y_hi = 2.0 * math.sqrt(nu / (1.0 - c)) + 20.0
    coarse = np.linspace(y_hi / _COARSE_POINTS, y_hi, _COARSE_POINTS)
    log_numer = _log_integral_shifted(
        log_outer, [(0.0, y_hi)], coarse, quad_spec
    )
    return log_numer - 0.5 * (nu - 1) * math.log(2.0) - log_gamma(0.5 * (nu + 1))


def _log_bf_quadrature_gamma_prior(
    stat: TestStatistic,
    tau2: float,
    quad_spec: QuadratureSpec,
    series_spec: SeriesSpec,
) -> float:
    k = stat.df1
    prior = GammaNCPPrior(k, tau2)
    log_null = log_density_null(stat.family, stat.value, stat.df1, stat.df2)

    def log_integrand(lam: float) -> float:
        if lam <= 0.0:
            return -math.inf
        q = NoncentralDensityQuery(stat.family, stat.value, lam, stat.df1, stat.df2)
        nc = log_density_noncentral(q, quad_spec, series_spec)
        return nc - log_null + gamma_log_density(prior, lam)

    # the prior factor alone is e^-20(k+2) down by this point, and the
    # noncentral density decays in lam at fixed data
    scale = stat.value if stat.family is Family.CHISQ else 3.0 * k * stat.value
    lam_hi = 40.0 * (k + 2.0) * tau2 + 10.0 * scale + 50.0
    coarse = np.linspace(lam_hi / _COARSE_POINTS, lam_hi, _COARSE_POINTS)
    return _log_integral_shifted(
        log_integrand, [(0.0, lam_hi)], coarse, quad_spec
    )


def log_bf_quadrature(
    stat: TestStatistic,
    tau2: float,
    quad_spec: QuadratureSpec = DEFAULT_QUADRATURE,
    series_spec: SeriesSpec = DEFAULT_SERIES,
) -> float:
    """ln BF10 recomputed by integrating the noncentral density against the prior.

    The prior is J(0, tau2) on the mean shift for z and t statistics and
    G(k/2 + 1, 1/(2 tau2)) on the non-centrality for chi-squared and F.
    """
    if tau2 <= 0:
        raise ValueError(f"tau2 must be > 0, got {tau2}")
    if stat.family is Family.Z:
        return _log_bf_quadrature_z(stat.value, tau2, quad_spec)
    if stat.family is Family.T:
        return _log_bf_quadrature_t(stat.value, stat.df1, tau2, quad_spec)
    return _log_bf_quadrature_gamma_prior(stat, tau2, quad_spec, series_spec)


def log_marginal_mixture_chisq(h: float, k: int, tau2: float) -> float:
    """Marginal chi-squared likelihood m1(h) as a two-component gamma mixture.

    m1(h) = 1/(tau2+1) * g(h; k/2, 1/(2(tau2+1)))
          + tau2/(tau2+1) * g(h; k/2+1, 1/(2(tau2+1)))
    """
    rate = 1.0 / (2.0 * (tau2 + 1.0))
    a = -math.log1p(tau2) + _gamma_logpdf(h, 0.5 * k, rate)
    b = math.log(tau2) - math.log1p(tau2) + _gamma_logpdf(h, 0.5 * k + 1.0, rate)
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
