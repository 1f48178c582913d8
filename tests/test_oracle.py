"""Tests for the quadrature/series oracle used to verify the closed forms."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import bff.oracle
from bff.bayes_factors import (
    Family,
    TestStatistic,
    log_bf,
    log_bf_chisq,
    log_bf_f,
)
from bff.numerics import IntegrationError, QuadratureSpec, SeriesError, integrate
from bff.oracle import (
    _DENSITIES,
    _gamma_root_log_density,
    _log_bf_window,
    _ncx2_ratio_fn,
    _nm_root_log_density,
    log_bf_quadrature,
    log_density_null,
    log_marginal_mixture_chisq,
    log_marginal_mixture_f,
)
from bff.priors import GammaNCPPrior, NormalMomentPrior, gamma_log_density, nm_log_density
from test_bayes_factors import accepted_statistics

NORM_QUAD = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8, max_subdivisions=2000)
ORACLE_POOL = Path(__file__).resolve().parent.parent / "bench" / "refs" / "oracle.json"
# SHA-256 over f"{value.hex()}\n" of each recorded pool point's log_bf_quadrature, per family in
# pool order: a change to one route re-pins that family's digest alone
POOL_SHA256 = {
    "t": "c49c51beeb038e3bc9d83945bb5463bdbdcaed18b62cfa30205465d12252ba48",
    "chisq": "b62f66ef16bac204447a3ad658b8b484a3a8b6e423586c1b6dfc93715f02d83f",
    "f": "7190a69793150a3b4e84e1bdc04c31b67b888a1f00c01737522ef11bcc5da612",
    "z": "3eb279d97463e92f364034dfa57fa66dfafc6b7124a6d8efda60dd2dc00654e4",
}


class TestNullDensities:
    def test_reference_values(self):
        assert math.isclose(
            log_density_null(Family.Z, 0.0), -0.9189385332046727, rel_tol=1e-14
        )
        assert math.isclose(
            log_density_null(Family.CHISQ, 2.0, 2), -1.6931471805599454, rel_tol=1e-14
        )
        # F(4,4) density at 1 is 3/8
        assert math.isclose(
            log_density_null(Family.F, 1.0, 4, 4), math.log(0.375), rel_tol=1e-14
        )

    def test_against_scipy(self):
        for x in [-3.0, -1.0, 0.0, 1.7]:
            assert abs(log_density_null(Family.Z, x) - stats.norm.logpdf(x)) <= 1e-12
        for nu in [1, 5, 30]:
            for x in [-4.0, 0.3, 2.5]:
                got = log_density_null(Family.T, x, nu)
                assert abs(got - stats.t.logpdf(x, nu)) <= 1e-12
        for k in [1, 2, 6]:
            for h in [0.3, 2.0, 10.0]:
                got = log_density_null(Family.CHISQ, h, k)
                assert abs(got - stats.chi2.logpdf(h, k)) <= 1e-12
        for k, m in [(1, 10), (3, 30), (8, 120)]:
            for f in [0.3, 1.0, 4.0]:
                got = log_density_null(Family.F, f, k, m)
                assert abs(got - stats.f.logpdf(f, k, m)) <= 1e-12


class TestNoncentralDensities:
    def test_reference_values(self):
        # 40-digit references:
        #   chisq: -2.886391641779269663353
        #   f:     -1.498424707524162668381
        got = _DENSITIES[Family.CHISQ](10.2, 3.7, 4, None)
        assert math.isclose(got, -2.8863916417792697, rel_tol=1e-12)
        got = _DENSITIES[Family.F](2.2, 2.9, 3, 25)
        assert math.isclose(got, -1.4984247075241627, rel_tol=1e-12)

    def test_against_scipy(self):
        cases = [
            ((Family.CHISQ, 10.2, 3.7, 4, None), stats.ncx2(4, 3.7)),
            ((Family.CHISQ, 1.4, 0.5, 1, None), stats.ncx2(1, 0.5)),
            ((Family.F, 2.2, 2.9, 3, 25), stats.ncf(3, 25, 2.9)),
            ((Family.F, 0.8, 6.0, 8, 120), stats.ncf(8, 120, 6.0)),
        ]
        for (family, x, lam, df1, df2), dist in cases:
            got = _DENSITIES[family](x, lam, df1, df2)
            assert math.isclose(got, dist.logpdf(x), rel_tol=1e-9, abs_tol=1e-9)

    def test_zero_noncentrality_reduces_to_null(self):
        got = _DENSITIES[Family.CHISQ](7.3, 0.0, 5, None)
        assert got == log_density_null(Family.CHISQ, 7.3, 5)
        assert math.isclose(
            _DENSITIES[Family.F](1.9, 0.0, 3, 40),
            log_density_null(Family.F, 1.9, 3, 40),
            rel_tol=1e-14,
        )

    @pytest.mark.parametrize(
        "query",
        [
            (Family.CHISQ, 4e5, 2e5, 6, None),
            (Family.F, 2.0, 1e6, 3, 20),
            (Family.CHISQ, 1.996e5, 2e5, 6, None),
        ],
        ids=["chisq", "f", "chisq-walk"],
    )
    def test_series_past_max_terms_is_a_series_error(self, query):
        # the Poisson terms peak near 141 000 and 115 000, past max_terms; in
        # the last case the peak, near 99 900, lies below it but the walk up
        # from there does not: a compute failure (SeriesError), not a bad
        # SeriesSpec (ValueError)
        family, *args = query
        with pytest.raises(SeriesError, match="max_terms"):
            _DENSITIES[family](*args)

    @pytest.mark.parametrize(
        "query, expected",
        [
            ((Family.CHISQ, 12.65, 210000.0, 6, None), -103391.47627606583814),
            ((Family.F, 2.0, 210000.0, 3, 20), -80686.590774944985927),
        ],
        ids=["chisq", "f"],
    )
    def test_series_at_large_noncentrality(self, query, expected):
        # the Poisson terms peak near 815 and 24 000, far below lam/2 = 105 000;
        # 50-digit references from mpmath, through the Bessel form
        # e^(-(h+lam)/2) (h/lam)^(k/4-1/2) I_(k/2-1)(sqrt(lam h)) / 2 for
        # chi-squared and e^(-lam/2) F(f; k, m) 1F1((k+m)/2; k/2; lam k f / (2(k f + m)))
        # for F
        family, *args = query
        assert math.isclose(_DENSITIES[family](*args), expected, rel_tol=1e-13)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.sampled_from([Family.CHISQ, Family.F]),
        st.integers(1, 30),
        st.integers(1, 200),
        st.floats(-12.0, 3.0),
        st.floats(-2.0, 1.0),
    )
    # the walk's edges: a mode at 0 (tiny lam), a zero statistic, one df
    @example(Family.CHISQ, 3, 1, -300.0, 0.0)
    @example(Family.F, 4, 30, -300.0, 0.0)
    @example(Family.CHISQ, 1, 1, 3.0, 0.5)
    @example(Family.F, 1, 1, 3.0, 1.0)
    @example(Family.F, 10, 1, 3.0, -2.0)
    @example(Family.CHISQ, 1, 1, 0.5, -math.inf)
    @example(Family.CHISQ, 2, 1, 3.0, -math.inf)
    @example(Family.CHISQ, 5, 1, 0.5, -math.inf)
    @example(Family.F, 1, 20, 0.5, -math.inf)
    @example(Family.F, 2, 1, 3.0, -math.inf)
    @example(Family.F, 5, 20, 0.5, -math.inf)
    def test_poisson_series_against_scipy(self, family, k, m, log10_lam, log_scale):
        # the statistic at exp(log_scale) times about its mean, where scipy's
        # density does not underflow. The density is e^(-lam/2) times the
        # central one at 0, which scipy puts outside the support, and to double
        # precision at lam < 1e-20, where scipy's noncentral chi-squared on
        # many df underflows to 0
        lam = 10.0**log10_lam
        if family is Family.CHISQ:
            x, df2 = (k + lam) * math.exp(log_scale), None
            central, noncentral = stats.chi2(k), stats.ncx2(k, lam)
        else:
            x, df2 = (k + lam) / k * math.exp(log_scale), m
            central, noncentral = stats.f(k, m), stats.ncf(k, m, lam)
        if x == 0.0 or lam < 1e-20:
            expected = -0.5 * lam + float(central.logpdf(x))
        else:
            expected = float(noncentral.logpdf(x))
        got = _DENSITIES[family](x, lam, k, df2)
        assert got == expected or math.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-10)

    def test_z_shift(self):
        assert _DENSITIES[Family.Z](2.5, 2.5, None, None) == -0.5 * math.log(2.0 * math.pi)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0, 20.0])
    def test_densities_integrate_to_one(self, lam):
        def density(family, df1=None, df2=None):
            return lambda x: math.exp(_DENSITIES[family](x, lam, df1, df2))

        assert abs(integrate(density(Family.Z), -math.inf, math.inf, NORM_QUAD) - 1.0) <= 1e-7
        assert abs(integrate(density(Family.CHISQ, 3), 0.0, math.inf, NORM_QUAD) - 1.0) <= 1e-7
        assert abs(integrate(density(Family.F, 4, 14), 0.0, math.inf, NORM_QUAD) - 1.0) <= 1e-7


class TestQuadratureBayesFactors:
    def test_matches_closed_forms(self):
        cases = [
            (TestStatistic(Family.Z, 2.0), 1.125),
            (TestStatistic(Family.T, 2.5, df1=20), 1.0),
            (TestStatistic(Family.CHISQ, 12.65, df1=6), 0.866075),
            (TestStatistic(Family.F, 3.2, df1=3, df2=40), 2.0),
        ]
        for stat, tau2 in cases:
            closed = log_bf(stat, tau2)
            quad = log_bf_quadrature(stat, tau2)
            assert math.isclose(closed, quad, rel_tol=1e-8, abs_tol=1e-10)

    def test_rejects_a_tau2_not_finite_and_positive(self):
        for tau2 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tau2"):
                log_bf_quadrature(TestStatistic(Family.CHISQ, 2.0, df1=3), tau2)

    @pytest.mark.parametrize("omega", [0.914, 0.962])
    def test_readme_chisq_example_at_large_tau2(self, omega):
        # the README multinomial example, n = 707: tau2 = 707 omega^2 is 590
        # and 654, where the integrand's mass sits far below the prior's scale
        stat = TestStatistic(Family.CHISQ, 12.65, df1=6)
        tau2 = 707 * omega**2
        assert math.isclose(
            log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-6, abs_tol=1e-9
        )

    @pytest.mark.parametrize(
        "stat",
        [
            TestStatistic(Family.Z, 2.0),
            TestStatistic(Family.T, -3.0, df1=4),
            TestStatistic(Family.CHISQ, 12.65, df1=6),
            TestStatistic(Family.F, 3.2, df1=3, df2=40),
        ],
        ids=["z", "t", "chisq", "f"],
    )
    @pytest.mark.parametrize("tau2", [1e-30, 1e-12, 1e12])
    def test_extreme_tau2(self, stat, tau2):
        # a small omega puts the integrand's mass near sqrt(tau2) or tau2, far
        # below any fixed scan range; a large one spreads the prior far past
        # the likelihood, which then bounds the mass
        assert math.isclose(
            log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-6, abs_tol=1e-9
        )

    def test_f_on_one_denominator_df(self):
        # at m = 1 the noncentral F density decays in lam only like
        # e^(-lam/(2(1 + kf))): a scan on to e^-745 below the peak reached
        # lam ~ 5e5, past the series' max_terms
        stat = TestStatistic(Family.F, 20.0, df1=10, df2=1)
        assert math.isclose(
            log_bf_quadrature(stat, 1e3), log_bf(stat, 1e3), rel_tol=1e-6, abs_tol=1e-9
        )

    @pytest.mark.parametrize("h", [300.0, 1000.0, 1e4, 3e4, 1e5, 1e6, 1e7])
    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("tau2", [0.1, 1.0, 10.0])
    def test_chisq_posterior_past_the_prior_end(self, h, k, tau2):
        # sqrt(lam) is about N(v sqrt(h), v) under the posterior: at large h far past the
        # prior's bulk, 40(k+2) tau2, and only 1/sqrt(h) of its centre wide (0.3% at h 1e5),
        # finer than a fixed geometric scan of lam. From h 1e6 (lam near 2.5e5 at tau2 1) the
        # Poisson series' own mode lies past max_terms; the Bessel ratio needs no series there
        stat = TestStatistic(Family.CHISQ, h, df1=k)
        assert math.isclose(
            log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-6, abs_tol=1e-9
        )

    def test_gamma_prior_past_its_rate_is_a_compute_error(self):
        # a subnormal tau2 (omega 1e-161 at n = 1) has rate 1/(2 tau2) = inf
        with pytest.raises(IntegrationError, match="rate"):
            log_bf_quadrature(TestStatistic(Family.CHISQ, 5.0, df1=3), 1e-322)

    @pytest.mark.parametrize("tau2", [8.99e307, sys.float_info.max])
    def test_gamma_prior_rate_past_half_the_largest_double(self, tau2):
        # 1/(2 tau2) once formed 2 tau2 = inf, so the rate was 0 and its log a math domain error
        stat = TestStatistic(Family.CHISQ, 1.0, df1=1)
        assert math.isclose(log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-12)

    @pytest.mark.parametrize(
        "stat",
        [
            TestStatistic(Family.CHISQ, 0.0, df1=4),
            TestStatistic(Family.CHISQ, 0.0, df1=1),
            TestStatistic(Family.F, 0.0, df1=4, df2=30),
        ],
        ids=["chisq-4", "chisq-1", "f-4"],
    )
    def test_zero_statistic_with_undefined_likelihood_ratio(self, stat):
        # the null density at 0 is 0 or infinite, so p(x|lam)/p(x|0) is undefined
        with pytest.raises(IntegrationError, match="likelihood ratio undefined"):
            log_bf_quadrature(stat, 1.0)

    @pytest.mark.parametrize("k", [3, 4, 10])
    def test_zero_chisq_density_past_two_df(self, k):
        # every central density of the Poisson mixture is 0 at h = 0 when k > 2
        assert _DENSITIES[Family.CHISQ](0.0, 3.0, k, None) == -math.inf

    def test_zero_f_statistic_with_two_numerator_df(self):
        # f^0 = 1 at f = 0: the F(2, m) density is finite there, and the
        # noncentral one is e^(-lam/2) times it
        assert math.isclose(
            _DENSITIES[Family.F](0.0, 3.0, 2, 30),
            -1.5 + log_density_null(Family.F, 0.0, 2, 30),
            rel_tol=1e-14,
            abs_tol=1e-14,
        )
        stat = TestStatistic(Family.F, 0.0, df1=2, df2=30)
        assert math.isclose(
            log_bf_quadrature(stat, 2.0), log_bf(stat, 2.0), rel_tol=1e-6, abs_tol=1e-9
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(accepted_statistics(), st.floats(0.0, exclude_min=True, allow_infinity=False))
def test_every_accepted_statistic_gives_a_float_or_a_named_error(stat, tau2):
    # the oracle's side of the library's contract: a float, a quadrature or series that
    # cannot finish named as such, or a ValueError naming the argument at fault
    try:
        got = log_bf_quadrature(stat, tau2)
    except (IntegrationError, SeriesError):
        return
    except ValueError as e:
        assert any(name in str(e) for name in ("tau2", "df", "statistic")), e
        return
    assert type(got) is float


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


class TestChisqRootRoute:
    """Chi-squared statistics integrate over sqrt(lam) in posterior sds, with no support scan."""

    # derandomized: a tier-1 gate must not pass or fail by chance. Past the walk's series
    # budget (h 1e6 on, at v near 1) only the Bessel ratio runs
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_uniform(1e-3, 1e8), log_uniform(1.0, 1e4).map(round), log_uniform(1e-30, 1e30))
    # ive underflows at large k and small x, where ln r falls back to its own series: a walk
    # that subtracted log densities of size h/2 (one ulp of 1.65e8 is 3e-8) failed both, against
    # ln BF10 near 0.0025
    @example(330071913.1611425, 1320, 1.5341322007069124e-11)
    @example(1.525e8, 3459, 2.38e-11)
    def test_matches_closed_form(self, h, k, tau2):
        stat = TestStatistic(Family.CHISQ, h, df1=k)
        assert math.isclose(
            log_bf_quadrature(stat, tau2), log_bf_chisq(h, k, tau2), rel_tol=1e-6, abs_tol=1e-9
        )

    @pytest.mark.parametrize("k", [1, 4, 1000])
    @pytest.mark.parametrize("tau2", [1e-30, 1e-3, 1.0, 1e30])
    def test_hoisted_prior_is_the_gamma_density(self, k, tau2):
        prior = GammaNCPPrior(k, tau2)
        c, rate = _gamma_root_log_density(prior)
        for s in (1e-3, 0.5, 1.0, 7.0, 300.0):
            s *= math.sqrt(tau2)
            expected = gamma_log_density(prior, s * s) + math.log(2.0 * s)
            got = c + (k + 1.0) * math.log(s) - rate * s * s
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-9)

    @pytest.mark.parametrize("h, k", [(1e3, 1), (0.5, 3)])
    def test_window_end_with_mass_is_an_integration_error(self, h, k, monkeypatch):
        # sqrt(k + 1) posterior sds each side of the mode cut off much of the mass
        monkeypatch.setattr(bff.oracle, "_WINDOW_SDS", 0.0)
        with pytest.raises(IntegrationError, match="mass past its window"):
            log_bf_quadrature(TestStatistic(Family.CHISQ, h, df1=k), 1.0)


class TestChisqBesselRatio:
    """p(h | lam)/p(h | 0) from the exponentially scaled Bessel function, a series as fallback."""

    @pytest.mark.parametrize(
        "h, lam, k, expected",
        [
            (12.65, 3.0, 6, 0.94547276397460706375),
            (1e5, 2.5e4, 3, 37488.487074535029772),
            (1e3, 400.0, 100, 288.91234830493052928),
            (1e-6, 1e-3, 1, -0.00049999950000000009374),
            (5.0, 0.3, 200, -0.14625006961292429613),
            (1e7, 2.5e6, 3, 3749983.8819043490417),
        ],
    )
    def test_against_mpmath(self, h, lam, k, expected):
        # 40-digit references from mpmath: ln Gamma(k/2) (x/2)^-nu I_nu(x) e^(-lam/2), x =
        # sqrt(lam h). At h 1e5 the walk is 1.5e-11 off, as it subtracts two log densities of
        # size 5e4; at h 1e7 its mode lies past max_terms
        got = _ncx2_ratio_fn(h, k)(lam)
        assert math.isclose(got, expected, rel_tol=1e-14, abs_tol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 30, 200])
    def test_matches_the_walk_where_both_run(self, k, monkeypatch):
        # the walk subtracts two log densities, so its own noise is ulps of |ln p(h | 0)|:
        # 28 of them at k 200, h = lam = 100, where the Bessel form is 2 off mpmath. ive(99, x)
        # underflows below x near 0.1, so at k 200 the grid starts at h 1
        walk = _DENSITIES[Family.CHISQ]
        cases = [
            (h, lam, walk(h, lam, k, None) - walk(h, 0.0, k, None), walk(h, 0.0, k, None))
            for h in (1e-3, 0.1, 1.0, 12.65, 100.0, 1e3, 1e4, 1e5)[2 if k == 200 else 0 :]
            for lam in (0.1, 1.0, 10.0, h / 4, h)
        ]

        def refuse(*args):
            raise AssertionError("the Bessel ratio fell back to its series")

        monkeypatch.setattr(bff.oracle, "_poisson_series_log_density", refuse)
        for h, lam, expected, log_null in cases:
            got = _ncx2_ratio_fn(h, k)(lam)
            assert abs(got - expected) <= 64 * 2.0**-52 * max(1.0, abs(log_null))

    @pytest.mark.parametrize("k", [200, 1000])
    def test_falls_back_to_the_walk_where_ive_underflows(self, k, monkeypatch):
        # I_nu(x) e^-x underflows at the window's small-s end: taken as is, its log was a
        # "math domain error". The walk sums the ratio's own series there
        calls = []
        walk = bff.oracle._poisson_series_log_density

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(bff.oracle, "_poisson_series_log_density", counted)
        stat = TestStatistic(Family.CHISQ, 5.0, df1=k)
        assert math.isclose(
            log_bf_quadrature(stat, 3.0), log_bf(stat, 3.0), rel_tol=1e-6, abs_tol=1e-9
        )
        assert calls

    @pytest.mark.parametrize(
        "h, k", [(h, k) for h in (1e-30, 1e-300) for k in (1, 2, 3, 200)] + [(0.0, 2)]
    )
    def test_statistic_near_zero(self, h, k):
        # ln r = -lam/2 + ln 0F1(; k/2; lam h/4) -> -lam/2 as h -> 0. At h = 0 (x = 0, where
        # ln(x/2) is undefined) it is -lam/2, and at k 200 (ive underflows) the ratio's own
        # series runs; only k = 2 has a finite null density at h = 0
        log_null = log_density_null(Family.CHISQ, h, k)
        for lam in (1e-3, 1.0, 30.0):
            got, expected = _ncx2_ratio_fn(h, k)(lam), -0.5 * lam + lam * h / (2.0 * k)
            assert abs(got - expected) <= 1e-15 + 4 * 2.0**-52 * max(1.0, abs(log_null))


class TestZWindowRoute:
    """z statistics integrate over rho = lam/sqrt(v), folded onto rho > 0, in posterior sds."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.tuples(log_uniform(1e-3, 316.0), st.sampled_from((-1.0, 1.0))).map(
            lambda p: p[0] * p[1]
        ),
        log_uniform(1e-30, 1e30),
    )
    # x = 0 with w's mass past the window: the near-one form would lose it
    @example(0.0, 10.0)
    @example(0.0, 1e12)
    # unfolded, the odd term x lam cancels between lam and -lam near BF10 = 1
    @example(0.5, 1e-30)
    # the two peaks 5e-14 apart: two breakpoints there are extremely bad integrand behaviour
    @example(-1.317402040467558, 1.379513067925201e-27)
    def test_matches_closed_form(self, x, tau2):
        stat = TestStatistic(Family.Z, x)
        assert math.isclose(
            log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-6, abs_tol=1e-9
        )

    @pytest.mark.parametrize("tau2", [1e-30, 1e-3, 1.0, 1e30])
    def test_rho_prior_is_the_normal_moment_density(self, tau2):
        prior, v = NormalMomentPrior(0.0, tau2), tau2 / (1.0 + tau2)
        c, rate = _nm_root_log_density(tau2)
        for rho in (1e-3, 0.5, 1.0, 7.0, 300.0):
            expected = nm_log_density(prior, math.sqrt(v) * rho) + math.log(math.sqrt(v))
            got = c + 2.0 * math.log(rho) - rate * rho * rho
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-9)

    def test_every_route_runs_through_one_window(self, monkeypatch):
        calls = []
        window = bff.oracle._log_bf_window

        def counted(*args):
            calls.append(args[2:4])
            return window(*args)

        monkeypatch.setattr(bff.oracle, "_log_bf_window", counted)
        for stat in (
            TestStatistic(Family.Z, 2.0),
            TestStatistic(Family.T, 2.5, df1=20),
            TestStatistic(Family.CHISQ, 12.65, df1=6),
            TestStatistic(Family.F, 3.2, df1=3, df2=40),
        ):
            assert math.isclose(log_bf_quadrature(stat, 1.0), log_bf(stat, 1.0), rel_tol=1e-9)
        assert len(calls) == 4

    def test_window_end_at_inf_is_an_integration_error(self):
        with pytest.raises(IntegrationError, match="end at inf"):
            _log_bf_window(lambda z: (0.0, 0.0, 0.0), [0.0], -1.0, math.inf, None, NORM_QUAD)

    def test_total_that_is_not_positive_is_an_integration_error(self):
        # the shift at the peak is e^1000 above every quadrature node: the total underflows to 0
        def logs(z):
            return 0.0, 0.0, 0.0 if z == 0.0 else -1000.0

        with pytest.raises(IntegrationError, match="came out <= 0"):
            _log_bf_window(logs, [0.0], -1.0, 1.0, None, NORM_QUAD)

    @pytest.mark.parametrize("scale", [None, 1.0])
    def test_exp_overflow_is_an_integration_error(self, scale):
        # ln w rises past 709 between the peak at 0 and the window's end 50 below it, so
        # the near-one form is chosen where a scale is given; either form overflows there
        def logs(z):
            lw = 4000.0 * z * (1.0 - z) - 50.0 * z
            return lw, -1e-3, lw - 1e-3

        with pytest.raises(IntegrationError, match="overflows"):
            _log_bf_window(logs, [0.0], -1.0, 1.0, scale, NORM_QUAD)


class TestTScaleRoute:
    """t statistics integrate over the chi-squared scale, not the non-centrality."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.tuples(log_uniform(1e-3, 300.0), st.sampled_from((-1.0, 1.0))).map(
            lambda p: p[0] * p[1]
        ),
        log_uniform(1.0, 1e4).map(round),
        log_uniform(1e-30, 1e30),
    )
    # BF10 far below 1 at a huge tau2, where log1p(BF10 - 1) leaves its domain
    @example(0.01, 5, 1e30)
    @example(-300.0, 10_000, 1e30)
    # BF10 - 1 about 1e-10 over the scale, the quadrature's absolute tolerance
    @example(-0.00154561796917777, 1547, 7.225035046153391e-06)
    # ln m/phi near 0 at both peaks but past 709 in the tail, where expm1 overflows
    @example(85.26871048884398, 1, 2.440424088037708)
    # where the mass lies, ln w and ln m/phi are near -1.5e10 and +1.5e10
    @example(1e6, 3, 1e10)
    def test_matches_closed_form(self, t, nu, tau2):
        stat = TestStatistic(Family.T, t, df1=nu)
        assert math.isclose(
            log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-6, abs_tol=1e-9
        )

    @pytest.mark.parametrize("t, nu", [(2.5, 20), (-0.3, 3), (188.0, 9110)])
    @pytest.mark.parametrize("tau2", [1e-6, 1e-30, 1e-300])
    def test_relative_precision_near_the_point_null(self, t, nu, tau2):
        # ln BF10 is about tau2 here: integrating BF10 - 1 in units of its own
        # size keeps its relative precision, with no absolute floor
        stat = TestStatistic(Family.T, t, df1=nu)
        assert math.isclose(log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-9)

    def test_evaluates_no_noncentral_density(self, monkeypatch):
        # t is F's k = 1 case, with lam in closed form: no family's series is summed either
        def refuse(*args):
            raise AssertionError("the t route evaluated a noncentral density")

        for family in _DENSITIES:
            monkeypatch.setitem(_DENSITIES, family, refuse)
        stat = TestStatistic(Family.T, 2.5, df1=20)
        assert math.isclose(log_bf_quadrature(stat, 1.0), log_bf(stat, 1.0), rel_tol=1e-9)


class TestFScaleRoute:
    """F statistics integrate over the denominator's chi-squared scale; t is its k = 1 case."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        log_uniform(1e-3, 300.0),
        log_uniform(1.0, 100.0).map(round),
        log_uniform(1.0, 1e4).map(round),
        log_uniform(1e-30, 1e30),
    )
    # a near 30, rho near 1e-3: w r peaks at u 880 and 704, 3% past (a - 1)/(a rho),
    # where it would peak without ln(1 + q u)
    @example(177.29276551600233, 59, 3, 1175.5157278401196)
    @example(12.330412271854053, 57, 1, 1854637080407.1262)
    # on 1 + 1 df, 40 standard deviations past the peaks w r is only e^-16 down:
    # its e^(-a rho u) tail needs 40/(a rho) more
    @example(1.5903128463970595**2, 1, 1, 2.3227910480433813)
    def test_matches_closed_form(self, f, k, m, tau2):
        stat = TestStatistic(Family.F, f, df1=k, df2=m)
        assert math.isclose(
            log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-6, abs_tol=1e-9
        )

    @pytest.mark.parametrize("f, k, m", [(3.2, 3, 40), (0.05, 1, 2), (40.0, 100, 9000)])
    @pytest.mark.parametrize("tau2", [1e-6, 1e-30, 1e-300])
    def test_relative_precision_near_the_point_null(self, f, k, m, tau2):
        stat = TestStatistic(Family.F, f, df1=k, df2=m)
        assert math.isclose(log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-9)

    def test_evaluates_no_noncentral_density(self, monkeypatch):
        # the null density, the table's lam = 0 case, still checks the likelihood ratio
        central = _DENSITIES[Family.F]

        def refuse(f, lam, *args):
            if lam != 0.0:
                raise AssertionError("the F route evaluated a noncentral F density")
            return central(f, lam, *args)

        monkeypatch.setitem(_DENSITIES, Family.F, refuse)
        stat = TestStatistic(Family.F, 3.2, df1=3, df2=40)
        assert math.isclose(log_bf_quadrature(stat, 1.0), log_bf(stat, 1.0), rel_tol=1e-9)

    @pytest.mark.parametrize("h, k", [(0.5, 1), (8.0, 3), (6.0, 10)])
    @pytest.mark.parametrize("tau2", [0.1, 1.0, 10.0])
    def test_large_m_meets_the_chisq_noncentrality_route(self, h, k, tau2):
        # k F tends to chi2_k as m grows: the F route borrows the chi-squared
        # marginal, which the noncentrality route integrates by brute force
        f_route = log_bf_quadrature(TestStatistic(Family.F, h / k, df1=k, df2=10**8), tau2)
        chisq_route = log_bf_quadrature(TestStatistic(Family.CHISQ, h, df1=k), tau2)
        assert math.isclose(f_route, chisq_route, rel_tol=1e-6)

    @pytest.mark.parametrize("df", [10**6, 10**8, 10**10, 10**12, 10**15])
    @pytest.mark.parametrize("tau2", [1e-6, 1.0, 1e6])
    def test_huge_denominator_df(self, df, tau2):
        # the scale posterior is 1/sqrt(a) wide, 1e-4 at 1e8 df: an integral from 0
        # with a breakpoint at the peak misses its left half there (dlog BF -ln 2)
        for stat in (
            TestStatistic(Family.T, 2.5, df1=df),
            TestStatistic(Family.F, 3.0, df1=4, df2=df),
        ):
            closed = log_bf(stat, tau2)
            try:
                got = log_bf_quadrature(stat, tau2)
            except IntegrationError:
                assert df > 10**8
            else:
                assert math.isclose(got, closed, rel_tol=1e-6, abs_tol=1e-9)


@st.composite
def wide_statistics(draw):
    family = draw(st.sampled_from(list(Family)))
    if family is Family.Z:
        return TestStatistic(family, draw(st.floats(-10.0, 10.0)))
    if family is Family.T:
        return TestStatistic(family, draw(st.floats(-10.0, 10.0)), df1=draw(st.integers(1, 200)))
    if family is Family.CHISQ:
        h = draw(st.floats(0.0, 60.0, exclude_min=True))
        return TestStatistic(family, h, df1=draw(st.integers(1, 20)))
    f = draw(st.floats(0.0, 20.0, exclude_min=True))
    return TestStatistic(family, f, df1=draw(st.integers(1, 10)), df2=draw(st.integers(1, 500)))


class TestClosedFormAgainstOracle:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(wide_statistics(), st.floats(-3.0, 3.0))
    # the ends of the tau2 range, where fixed coarse grids once missed the
    # integrand's peak: IntegrationError for t, OverflowError and SeriesError
    # for chi-squared and F
    @example(TestStatistic(Family.T, 2.0, df1=5), 3.0)
    @example(TestStatistic(Family.CHISQ, 20.0, df1=4), -3.0)
    @example(TestStatistic(Family.F, 3.0, df1=3, df2=40), 3.0)
    def test_agree_over_wide_inputs(self, stat, log10_tau2):
        tau2 = 10.0**log10_tau2
        assert math.isclose(
            log_bf_quadrature(stat, tau2), log_bf(stat, tau2), rel_tol=1e-6, abs_tol=1e-9
        )

    def test_recorded_pool(self):
        # every point of the benchmark's recorded pool, within its 1e-6 bound, and every bit of
        # each family's values as pinned in POOL_SHA256
        cases = json.loads(ORACLE_POOL.read_text(encoding="utf-8"))["cases"]
        bad, digests = [], {}
        for case in cases:
            stat = TestStatistic(
                Family(case["family"]), case["value"], df1=case.get("df1"), df2=case.get("df2")
            )
            got, closed = log_bf_quadrature(stat, case["tau2"]), case["ref"]["log_bf"]
            if not abs(got - closed) <= 1e-6 * abs(closed):
                bad.append((stat, case["tau2"], got, closed))
            digests.setdefault(case["family"], hashlib.sha256()).update(f"{got.hex()}\n".encode())
        assert cases and not bad
        assert {family: d.hexdigest() for family, d in digests.items()} == POOL_SHA256


class TestMixtureMarginals:
    def test_chisq_mixture_recovers_closed_form(self):
        for h in [2.0, 12.65]:
            for k in [2, 6]:
                for tau2 in [0.3, 0.866075, 5.0]:
                    via_mixture = log_marginal_mixture_chisq(
                        h, k, tau2
                    ) - log_density_null(Family.CHISQ, h, k)
                    assert abs(via_mixture - log_bf_chisq(h, k, tau2)) <= 1e-12

    def test_f_mixture_recovers_closed_form(self):
        for f, k, m in [(1.0, 2, 82), (4.05, 2, 82), (2.2, 3, 25)]:
            for tau2 in [0.4, 1.5]:
                via_mixture = log_marginal_mixture_f(f, k, m, tau2) - log_density_null(
                    Family.F, f, k, m
                )
                assert abs(via_mixture - log_bf_f(f, k, m, tau2)) <= 1e-12

    def test_mixtures_integrate_to_one(self):
        def chisq_marginal(h):
            return math.exp(log_marginal_mixture_chisq(h, 6, 0.866075))

        def f_marginal(f):
            return math.exp(log_marginal_mixture_f(f, 3, 25, 0.8))

        assert abs(integrate(chisq_marginal, 0.0, math.inf, NORM_QUAD) - 1.0) <= 1e-7
        assert abs(integrate(f_marginal, 0.0, math.inf, NORM_QUAD) - 1.0) <= 1e-7

    def test_small_tau2_collapses_to_null(self):
        got = log_marginal_mixture_chisq(5.0, 3, 1e-12)
        assert math.isclose(got, log_density_null(Family.CHISQ, 5.0, 3), rel_tol=1e-9)


def test_oracle_loads_no_module_that_numerics_does_not():
    # every bench worker imports the oracle, so it adds no import: neither loads scipy until a
    # quadrature runs. A fresh interpreter, as this one has long since imported both
    src = str(Path(bff.oracle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = "\n".join([
        "import sys",
        "import bff.numerics",
        "before = set(sys.modules)",
        "import bff.oracle",
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] != 'bff'))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_scipy_loads_on_the_first_quadrature():
    # serving and the bench workers that never integrate import the oracle and pay for no
    # scipy; the names stay reachable as module attributes
    names = ["scipy.integrate", "scipy.special"]
    src = str(Path(bff.oracle.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = "\n".join([
        "import json, sys",
        "import bff.numerics, bff.oracle",
        "from bff.bayes_factors import Family, TestStatistic",
        f"names = {names!r}",
        "before = [m for m in names if m in sys.modules]",
        "bff.oracle.log_bf_quadrature(TestStatistic(Family.CHISQ, 5.0, df1=3), 1.0)",
        "after = [m for m in names if m in sys.modules]",
        "import scipy.integrate, scipy.special.cython_special as cs",
        "from bff.numerics import ive",
        "same = [getattr(bff.numerics, 'quad') is scipy.integrate.quad, ive is cs.ive]",
        "print(json.dumps([before, after, same]))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], names, [True, True]]
