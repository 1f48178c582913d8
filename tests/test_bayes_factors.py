"""Tests for the closed-form log Bayes factors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bff.bayes_factors import (
    Family,
    OddsValue,
    TestStatistic,
    linear_bf,
    log_bf,
    log_bf_chisq,
    log_bf_f,
    log_bf_t,
    log_bf_z,
    posterior_odds,
)

TAU2S = st.floats(1e-6, 1e4, allow_nan=False)


class TestTestStatistic:
    def test_z_carries_no_df(self):
        TestStatistic(Family.Z, 2.0)
        with pytest.raises(ValueError):
            TestStatistic(Family.Z, 2.0, df1=10)

    def test_t_needs_df1_only(self):
        TestStatistic(Family.T, -1.0, df1=5)
        with pytest.raises(ValueError):
            TestStatistic(Family.T, 1.0)
        with pytest.raises(ValueError):
            TestStatistic(Family.T, 1.0, df1=5, df2=3)

    def test_chisq_needs_df1_and_nonnegative_value(self):
        TestStatistic(Family.CHISQ, 0.0, df1=1)
        with pytest.raises(ValueError):
            TestStatistic(Family.CHISQ, 3.0)
        with pytest.raises(ValueError):
            TestStatistic(Family.CHISQ, -0.5, df1=2)

    def test_f_needs_both_df(self):
        TestStatistic(Family.F, 2.2, df1=3, df2=25)
        with pytest.raises(ValueError):
            TestStatistic(Family.F, 2.2, df1=3)
        with pytest.raises(ValueError):
            TestStatistic(Family.F, -1.0, df1=3, df2=25)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True])
    def test_value_must_be_a_finite_number(self, value):
        with pytest.raises(ValueError, match="finite number"):
            TestStatistic(Family.Z, value)


class TestClosedForms:
    def test_z_reference_values(self):
        # 40-digit references 0.01837229887199052809 and 1.065244395343100232
        assert math.isclose(log_bf_z(1.5, 2.0), 0.018372298871990528, rel_tol=1e-13)
        assert math.isclose(log_bf_z(2.0, 1.125), 1.0652443953431002, rel_tol=1e-13)

    def test_z_at_zero_statistic(self):
        assert math.isclose(log_bf_z(0.0, 1.0), -1.5 * math.log(2.0), rel_tol=1e-14)

    def test_t_reference_value(self):
        # 40-digit reference 1.636081283328128868525
        assert math.isclose(log_bf_t(2.5, 20, 1.0), 1.6360812833281289, rel_tol=1e-13)

    def test_t_at_zero_statistic(self):
        assert math.isclose(log_bf_t(0.0, 10, 3.0), -1.5 * math.log(4.0), rel_tol=1e-14)

    def test_chisq_reference_values(self):
        # 40-digit references -0.5620741767584622712 and 1.122528133007202415
        assert math.isclose(
            log_bf_chisq(5.0, 3, 2.5), -0.5620741767584623, rel_tol=1e-13
        )
        assert math.isclose(
            log_bf_chisq(12.65, 6, 0.866075), 1.1225281330072024, rel_tol=1e-13
        )

    def test_chisq_at_zero_statistic(self):
        assert math.isclose(
            log_bf_chisq(0.0, 4, 5.0), -3.0 * math.log(6.0), rel_tol=1e-14
        )

    def test_f_reference_value(self):
        # 40-digit reference 1.362641889722376433283
        assert math.isclose(log_bf_f(3.2, 3, 40, 2.0), 1.3626418897223764, rel_tol=1e-13)

    def test_f_at_zero_statistic(self):
        assert math.isclose(
            log_bf_f(0.0, 5, 30, 2.0), -3.5 * math.log(3.0), rel_tol=1e-14
        )

    @pytest.mark.parametrize("fn", [log_bf_z, lambda s, t2: log_bf_t(s, 9, t2)])
    def test_tau2_must_be_positive(self, fn):
        with pytest.raises(ValueError):
            fn(1.0, 0.0)
        with pytest.raises(ValueError):
            fn(1.0, -1.0)

    def test_arrays_broadcast_and_scalars_stay_floats(self):
        tau2 = np.array([0.1, 1.0, 10.0])
        cases = [
            (log_bf_z, (2.0,)),
            (log_bf_t, (2.5, 20)),
            (log_bf_chisq, (12.65, 6)),
            (log_bf_f, (3.2, 3, 40)),
        ]
        for fn, args in cases:
            got = fn(*args, tau2)
            assert isinstance(got, np.ndarray) and got.shape == (3,)
            for g, t in zip(got, tau2.tolist()):
                scalar = fn(*args, t)
                assert type(scalar) is float
                assert math.isclose(g, scalar, rel_tol=1e-14)
        stats = np.array([[1.0], [2.0]])
        assert log_bf_z(stats, tau2).shape == (2, 3)
        with pytest.raises(ValueError):
            log_bf_z(2.0, np.array([1.0, 0.0]))

    def test_overflow_guard(self):
        assert math.isfinite(log_bf_z(40.0, 1e4))
        assert math.isfinite(log_bf_chisq(1e4, 2, 1e4))


class TestConsistencyIdentities:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("tau2", [0.1, 1.0, 10.0])
    def test_chisq_1df_equals_z(self, s, tau2):
        assert abs(log_bf_chisq(s * s, 1, tau2) - log_bf_z(s, tau2)) <= 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("nu", [5, 30])
    @pytest.mark.parametrize("tau2", [0.1, 1.0, 10.0])
    def test_f_1df_equals_t(self, s, nu, tau2):
        assert abs(log_bf_f(s * s, 1, nu, tau2) - log_bf_t(s, nu, tau2)) <= 1e-12


class TestSymmetryAndMonotonicity:
    @given(st.floats(-50.0, 50.0, allow_nan=False), TAU2S)
    def test_z_sign_symmetry_exact(self, z, tau2):
        assert log_bf_z(z, tau2) == log_bf_z(-z, tau2)

    @given(st.floats(-50.0, 50.0, allow_nan=False), st.integers(1, 200), TAU2S)
    def test_t_sign_symmetry_exact(self, t, nu, tau2):
        assert log_bf_t(t, nu, tau2) == log_bf_t(-t, nu, tau2)

    def test_increasing_in_statistic_magnitude(self):
        for tau2 in [0.1, 1.0, 10.0]:
            zs = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
            vals = [log_bf_z(z, tau2) for z in zs]
            assert vals == sorted(vals)
            hs = [0.0, 1.0, 4.0, 10.0, 30.0]
            vals = [log_bf_chisq(h, 3, tau2) for h in hs]
            assert vals == sorted(vals)

    def test_point_null_limit(self):
        # As tau2 -> 0 the alternative collapses onto the null and BF -> 1.
        tau2 = 1e-10
        assert abs(log_bf_z(2.0, tau2)) < 1e-6
        assert abs(log_bf_t(2.0, 10, tau2)) < 1e-6
        assert abs(log_bf_chisq(5.0, 3, tau2)) < 1e-6
        assert abs(log_bf_f(2.5, 3, 30, tau2)) < 1e-6


class TestDispatchAndOdds:
    def test_dispatcher_matches_family_functions(self):
        cases = [
            (TestStatistic(Family.Z, 1.7), log_bf_z(1.7, 0.9)),
            (TestStatistic(Family.T, 2.2, df1=14), log_bf_t(2.2, 14, 0.9)),
            (TestStatistic(Family.CHISQ, 7.5, df1=4), log_bf_chisq(7.5, 4, 0.9)),
            (TestStatistic(Family.F, 3.1, df1=2, df2=40), log_bf_f(3.1, 2, 40, 0.9)),
        ]
        for stat, want in cases:
            assert log_bf(stat, 0.9) == want

    def test_odds_value(self):
        assert OddsValue(0.0).bf10 == 1.0
        assert math.isclose(OddsValue(math.log(3.0)).bf10, 3.0, rel_tol=1e-14)

    def test_linear_space_saturates(self):
        assert linear_bf(800.0) == math.inf
        assert linear_bf(709.0) == math.exp(709.0)
        assert OddsValue(800.0).bf10 == math.inf
        assert posterior_odds(OddsValue(800.0), 2.0) == math.inf

    def test_posterior_odds(self):
        got = posterior_odds(OddsValue(math.log(3.0)), 2.0)
        assert math.isclose(got, 6.0, rel_tol=1e-14)
        with pytest.raises(ValueError):
            posterior_odds(OddsValue(0.0), 0.0)
