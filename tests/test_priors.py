"""Tests for the normal moment prior and the gamma non-centrality prior."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bff.numerics import integrate
from bff.priors import (
    GammaNCPPrior,
    NormalMomentPrior,
    gamma_log_density,
    gamma_mode,
    nm_log_density,
    nm_modes,
)

TAU2_GRID = [0.01, 0.5, 1.0, 10.0, 100.0]
K_GRID = [1, 2, 6, 10]


class TestNormalMomentPrior:
    def test_rejects_nonpositive_tau2(self):
        with pytest.raises(ValueError):
            NormalMomentPrior(0.0, 0.0)
        with pytest.raises(ValueError):
            NormalMomentPrior(1.0, -2.0)

    def test_zero_at_null_value(self):
        assert nm_log_density(NormalMomentPrior(0.0, 1.0), 0.0) == -math.inf
        assert nm_log_density(NormalMomentPrior(2.5, 3.0), 2.5) == -math.inf

    def test_reference_value(self):
        # mu0=0, tau2=2, x=1.3; 40-digit reference -1.856430775109608601835
        got = nm_log_density(NormalMomentPrior(0.0, 2.0), 1.3)
        assert math.isclose(got, -1.8564307751096086, rel_tol=1e-15)

    def test_value_at_mode(self):
        # ln(2 e^{-1} / sqrt(2 pi)); 40-digit reference -1.225791352644727432363
        got = nm_log_density(NormalMomentPrior(0.0, 1.0), math.sqrt(2.0))
        assert math.isclose(got, -1.2257913526447274, rel_tol=1e-14)

    def test_subnormal_tau2_keeps_precision(self):
        # d * d and tau2 are subnormal, with few significant bits; d / tau is not
        tau2, d = 1e-323, 3e-162
        ratio = float(Fraction(d) ** 2 / Fraction(tau2))  # (d/tau)^2, exactly rounded
        want = 2.0 * math.log(d) - 0.5 * math.log(2.0 * math.pi) - 1.5 * math.log(tau2)
        got = nm_log_density(NormalMomentPrior(0.0, tau2), d)
        assert math.isclose(got, want - 0.5 * ratio, rel_tol=1e-14)

    @given(st.floats(1e-3, 1e3, allow_nan=False), st.floats(1e-6, 20.0, allow_nan=False))
    def test_symmetry_about_zero(self, tau2, d):
        p = NormalMomentPrior(0.0, tau2)
        assert nm_log_density(p, d) == nm_log_density(p, -d)

    def test_symmetry_about_shifted_mu0(self):
        for mu0 in [-2.5, 1.0]:
            p = NormalMomentPrior(mu0, 0.8)
            for d in [0.01, 0.5, 2.0, 8.0]:
                assert math.isclose(
                    nm_log_density(p, mu0 + d),
                    nm_log_density(p, mu0 - d),
                    rel_tol=1e-12,
                    abs_tol=1e-12,
                )

    def test_matches_gamma_transform(self):
        # With mu0=0, x^2 is gamma(3/2, 1/(2 tau2)) distributed, so the
        # density of x on either half line is g(x^2) * |x|.
        for tau2 in TAU2_GRID:
            p = NormalMomentPrior(0.0, tau2)
            g = GammaNCPPrior(1, tau2)
            for x in [0.05, 0.7, 1.8, 4.0]:
                via_gamma = gamma_log_density(g, x * x) + math.log(x)
                assert math.isclose(nm_log_density(p, x), via_gamma, rel_tol=1e-12)

    @pytest.mark.parametrize("tau2", TAU2_GRID)
    def test_normalization(self, tau2):
        p = NormalMomentPrior(0.5, tau2)

        def density(x):
            return math.exp(nm_log_density(p, x))

        assert abs(integrate(density, -math.inf, math.inf) - 1.0) <= 1e-8

    def test_modes(self):
        assert nm_modes(NormalMomentPrior(0.0, 1.0)) == (
            -math.sqrt(2.0),
            math.sqrt(2.0),
        )
        assert nm_modes(NormalMomentPrior(1.0, 2.0)) == (-1.0, 3.0)

    @pytest.mark.parametrize("tau2", TAU2_GRID)
    def test_modes_match_numerical_argmax(self, tau2):
        p = NormalMomentPrior(0.0, tau2)
        lo, hi = nm_modes(p)
        xs = np.linspace(4.0 * lo, 4.0 * hi, 40001)
        vals = [nm_log_density(p, x) for x in xs]
        best = xs[int(np.argmax(vals))]
        step = xs[1] - xs[0]
        assert min(abs(best - lo), abs(best - hi)) <= step


class TestGammaNCPPrior:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GammaNCPPrior(0, 1.0)
        with pytest.raises(ValueError):
            GammaNCPPrior(3, 0.0)

    def test_shape_and_rate(self):
        p = GammaNCPPrior(6, 0.8661)
        assert p.shape == 4.0
        assert math.isclose(p.rate, 1.0 / (2.0 * 0.8661), rel_tol=1e-15)

    def test_boundary_and_domain(self):
        p = GammaNCPPrior(1, 0.5)
        assert gamma_log_density(p, 0.0) == -math.inf
        with pytest.raises(ValueError):
            gamma_log_density(p, -1.0)

    def test_mode(self):
        assert gamma_mode(GammaNCPPrior(1, 1.0)) == 1.0
        assert math.isclose(gamma_mode(GammaNCPPrior(2, 0.833)), 1.666, rel_tol=1e-15)
        assert math.isclose(gamma_mode(GammaNCPPrior(6, 0.8661)), 5.1966, rel_tol=1e-15)

    @pytest.mark.parametrize("k", K_GRID)
    @pytest.mark.parametrize("tau2", TAU2_GRID)
    def test_normalization(self, k, tau2):
        p = GammaNCPPrior(k, tau2)

        def density(x):
            return math.exp(gamma_log_density(p, x))

        assert abs(integrate(density, 0.0, math.inf) - 1.0) <= 1e-8

    @pytest.mark.parametrize("k", K_GRID)
    def test_mode_matches_numerical_argmax(self, k):
        tau2 = 0.7
        p = GammaNCPPrior(k, tau2)
        xs = np.linspace(1e-9, 6.0 * k * tau2, 40001)
        vals = [gamma_log_density(p, x) for x in xs]
        best = xs[int(np.argmax(vals))]
        step = xs[1] - xs[0]
        assert abs(best - gamma_mode(p)) <= step
