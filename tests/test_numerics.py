"""Tests for the quadrature, series, and log-gamma helpers."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from bff.numerics import (
    IntegrationError,
    QuadratureSpec,
    SeriesError,
    SeriesSpec,
    integrate,
    ive,
    log_beta,
    log_gamma,
    sum_series,
)


class TestLogGamma:
    def test_integer_arguments(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert math.isclose(log_gamma(5.0), math.log(24.0), rel_tol=1e-15)

    def test_half_argument(self):
        # Gamma(1/2) = sqrt(pi); 40-digit reference 0.5723649429247000870717
        assert math.isclose(log_gamma(0.5), 0.5723649429247001, rel_tol=1e-15)

    def test_reference_value(self):
        # 40-digit reference 13.48203678613835697062
        assert math.isclose(log_gamma(10.3), 13.482036786138357, rel_tol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.2)

    def test_recurrence_bound(self):
        # |log_gamma(x+1) - log_gamma(x) - ln x| on [0.5, 1e4]. The residual
        # differences two lgamma values of up to ~8.2e4, so it cannot be
        # smaller than their rounding: a flat 1e-12 is below one ulp
        # (1.46e-11 at 8.2e4) from x ~ 400 up. Budget in ulps U of the larger
        # value: libm's lgamma is accurate to a few ulp, taken as 3 for each
        # of the two values, plus about 1 for rounding x + 1 and ln x: 7.
        # c = 8 leaves one to spare; at x = 1e4 that is about 1.2e-10, and
        # the flat 1e-12 still governs at small x.
        c = 8
        xs = [0.5 * (1e4 / 0.5) ** (i / 399.0) for i in range(400)]

        def excess(x):
            residual = abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x))
            scale = max(abs(log_gamma(x)), abs(log_gamma(x + 1.0)))
            return residual, residual - (1e-12 + c * math.ulp(scale))

        worst_x, (worst, over) = max(
            ((x, excess(x)) for x in xs), key=lambda p: p[1][1]
        )
        assert over <= 0.0, (
            f"recurrence residual {worst:.3e} at x={worst_x:.6g} exceeds "
            f"1e-12 + {c} ulp of lgamma(x)"
        )

    @given(st.floats(0.5, 200.0, allow_nan=False))
    def test_recurrence_small_arguments(self, x):
        # Away from the cancellation regime the recurrence is tight.
        assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) <= 1e-12


class TestLogBeta:
    def test_reference_values(self):
        assert log_beta(1.0, 1.0) == 0.0
        assert math.isclose(log_beta(0.5, 0.5), math.log(math.pi), rel_tol=1e-15)
        # B(3,7) = 1/252; 40-digit reference -5.52942908751142330673
        assert math.isclose(log_beta(3.0, 7.0), -5.529429087511423, rel_tol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)

    @given(st.floats(0.1, 50.0, allow_nan=False), st.floats(0.1, 50.0, allow_nan=False))
    def test_symmetry(self, a, b):
        assert log_beta(a, b) == log_beta(b, a)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.rel_tol == 1e-9
        assert spec.max_subdivisions == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1e-9)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestIntegrate:
    def test_normal_normalization(self):
        def pdf(x):
            return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

        assert abs(integrate(pdf, -math.inf, math.inf) - 1.0) <= 1e-8

    def test_exponential_tail(self):
        assert math.isclose(integrate(math.exp, -math.inf, 0.0), 1.0, rel_tol=1e-9)

    def test_polynomial(self):
        got = integrate(lambda x: 3.0 * x * x, 0.0, 1.0)
        assert math.isclose(got, 1.0, rel_tol=1e-12)

    def test_breakpoint_catches_narrow_interior_peak(self):
        # A Gaussian of width 0.05 at x=17 slips between the first nodes on
        # (0, 300) and the plain call converges on ~0; the breakpoint forces
        # panel boundaries at the peak so the nearby nodes see it.
        def spike(x):
            u = (x - 17.0) / 0.05
            return math.exp(-0.5 * u * u)

        want = math.sqrt(2.0 * math.pi) * 0.05
        assert integrate(spike, 0.0, 300.0) < 0.01 * want
        got = integrate(spike, 0.0, 300.0, breakpoints=[17.0])
        assert math.isclose(got, want, rel_tol=1e-9)

    def test_breakpoints_outside_interval_are_dropped(self):
        got = integrate(lambda x: 3.0 * x * x, 0.0, 1.0, breakpoints=[5.0])
        assert math.isclose(got, 1.0, rel_tol=1e-12)

    def test_breakpoints_need_finite_bounds(self):
        with pytest.raises(ValueError):
            integrate(math.exp, -math.inf, 0.0, breakpoints=[-1.0])

    def test_nan_integrand_rejected(self):
        def bad(x):
            return float("nan") if 0.4 < x < 0.6 else x

        with pytest.raises(IntegrationError):
            integrate(bad, 0.0, 1.0)

    def test_subdivision_budget_enforced(self):
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=2)
        with pytest.raises(IntegrationError):
            integrate(lambda x: math.sin(1000.0 * x * x), 0.0, 50.0, spec)


class TestSeriesSpec:
    def test_defaults(self):
        spec = SeriesSpec()
        assert spec.term_rel_cutoff == 1e-15
        assert spec.min_terms == 10
        assert spec.max_terms == 100000

    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesSpec(term_rel_cutoff=0.0)
        with pytest.raises(ValueError):
            SeriesSpec(term_rel_cutoff=1.5)
        with pytest.raises(ValueError):
            SeriesSpec(min_terms=0)
        with pytest.raises(ValueError):
            SeriesSpec(min_terms=10, max_terms=5)


class TestSumSeries:
    def test_exponential(self):
        got = sum_series(lambda i: 1.0 / math.factorial(i))
        assert math.isclose(got, math.e, rel_tol=1e-15)

    @pytest.mark.parametrize("c", [0.5, 3.0, 10.0])
    @pytest.mark.parametrize("a", [0.1, 1.0, 5.0])
    def test_shifted_exponential_identity(self, c, a):
        # sum_i (c + i) a^i / i! = (c + a) e^a
        got = sum_series(lambda i: (c + i) * a**i / math.factorial(i))
        assert math.isclose(got, (c + a) * math.exp(a), rel_tol=1e-12)

    def test_min_terms_prevents_premature_stop(self):
        # The zeros before index 8 must not trigger the cutoff.
        terms = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0]
        got = sum_series(lambda i: terms[i] if i < len(terms) else 0.0)
        assert got == 6.0

    def test_nonconvergent_series_raises(self):
        spec = SeriesSpec(max_terms=50)
        with pytest.raises(SeriesError):
            sum_series(lambda i: 1.0, spec)


def test_ive_is_the_ufuncs_routine_bit_for_bit():
    # the oracle's chi-squared ratio calls ive on Python floats at nu = k/2 - 1, here k 1-400;
    # the grid runs through the band where ive underflows past 1e-300 and the walk stands in
    nus, xs = [0.5 * k - 1.0 for k in range(1, 401)], np.geomspace(1e-8, 1e4, 241).tolist()
    ref = scipy.special.ive(np.array(nus)[:, None], np.array(xs)[None, :])
    got = [[ive(nu, x) for x in xs] for nu in nus]
    assert all(type(v) is float for row in got for v in row)
    bits = [[v.hex() for v in row] for row in ref.tolist()]
    assert [[v.hex() for v in row] for row in got] == bits
    assert (ref == 0.0).any() and ((0.0 < ref) & (ref <= 1e-300)).any() and (ref > 1e-300).any()
