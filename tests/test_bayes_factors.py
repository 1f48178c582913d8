"""Tests for the closed-form log Bayes factors."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bff.bayes_factors import (
    DF_FIELDS,
    SPLIT_KERNELS,
    Family,
    TestStatistic,
    linear_bf,
    log_bf,
    log_bf_chisq,
    log_bf_f,
    log_bf_t,
    log_bf_z,
)

TAU2S = st.floats(1e-6, 1e4, allow_nan=False)
LARGEST = int(sys.float_info.max)


@st.composite
def accepted_statistics(draw):
    """Any TestStatistic the constructor accepts: an int or float value, dfs to the largest double."""
    family = draw(st.sampled_from(Family))
    lo = 0 if family in (Family.CHISQ, Family.F) else -LARGEST
    value = draw(st.floats(lo, LARGEST) | st.integers(lo, LARGEST) | st.just(-0.0))
    dfs = {field: draw(st.integers(1, LARGEST)) for field in DF_FIELDS[family]}
    return TestStatistic(family, value, **dfs)


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

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_int_value_past_the_largest_double_is_named(self, value):
        # float(value) overflows; the constructor names the field rather than let it escape
        with pytest.raises(ValueError, match="z statistic's value is past the largest double"):
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "form, args",
        [(log_bf_z, (2.0,)), (log_bf_t, (2.0, 10)), (log_bf_chisq, (2.0, 3)), (log_bf_f, (2.0, 3, 10))],
    )
    def test_tau2_must_be_finite(self, form, args):
        # tau2 = inf gave z and chi-squared nan with a numpy warning, and t and F -inf
        for tau2 in (math.inf, np.array([1.0, math.inf]), 10**400):
            with pytest.raises(ValueError, match="tau2"):
                form(*args, tau2)

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

    def test_t_and_f_stay_finite_where_the_square_overflows(self):
        # as the statistic grows ln BF10 tends to a finite limit:
        # t: (nu/2 - 1) ln(1 + tau2) + ln(1 + (nu + 1) tau2)
        # F: (m/2 - 1) ln(1 + tau2) + ln(1 + (k + m) tau2 / k)
        got_t = log_bf_t(1e160, 3, 5.0)
        assert math.isclose(got_t, 0.5 * math.log(6.0) + math.log(21.0), rel_tol=1e-14)
        got_f = log_bf_f(1e308, 2, 10, 5.0)
        assert math.isclose(got_f, 4.0 * math.log(6.0) + math.log(31.0), rel_tol=1e-14)

    @given(
        st.floats(1e-300, 1e300),
        st.integers(1, 500),
        st.integers(1, 500),
        st.floats(1e-12, 1e12),
    )
    def test_t_and_f_finite_over_wide_ranges(self, stat, df1, df2, tau2):
        assert math.isfinite(log_bf_t(stat, df1, tau2))
        assert math.isfinite(log_bf_t(-stat, df1, tau2))
        assert math.isfinite(log_bf_f(stat, df1, df2, tau2))


class TestOverflowEdge:
    """t/F points where e^(lp - x) in g = tau2 / (1 + e^(lp - x)) overflows: x = ln r is near
    -690 and lp = ln(1 + tau2) past 19, so g is e^(x - ln(1 + 1/tau2)), about 1e-300, and the
    half_df ln(1 + g) term, 0.5e300 * 1e-300, still carries it."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_f_and_t_past_the_exponential_overflow(self):
        assert math.isclose(log_bf_f(1.0, 1, 1e300, 1e10), -33.345629214600635, rel_tol=1e-12)
        assert math.isclose(log_bf_t(1e-3, 1e300, 1e12), -41.446530173896704, rel_tol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_g_survives_where_tau2_times_the_exponential_underflows(self):
        # x - lp is below -745, so tau2 e^(x - lp) is 0 while g, about r = 1e-308 (4e-308), is
        # not: half_df g is 0.5 (2) of ln BF10. 1 200-digit decimal values of the same algebra
        assert math.isclose(log_bf_f(1.0, 1, 1e308, 1e20), -67.88440560926142, rel_tol=1e-14)
        assert math.isclose(log_bf_t(2.0, 1e308, 1e30), -100.00689127229795, rel_tol=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_block_recomputes_only_its_overflowed_entries(self):
        tau2 = np.array([1e10, 1.0, 1e12, 1e-3])
        got = log_bf_f(1.0, 1, 1e300, tau2)
        assert got.tolist() == [log_bf_f(1.0, 1, 1e300, t) for t in tau2.tolist()]
        assert math.isclose(got[0], -33.345629214600635, rel_tol=1e-12)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def kernel_points(draw):
    """A t or F point for the t/F kernel: its form, the form's arguments, and the Decimal
    constants of ln BF10 = a lp + half_df ln(1 + g) + ln(1 + c g) with r = k f/m (t^2/nu)."""
    tau2 = draw(log_uniform(1e-8, 1e6))
    if draw(st.booleans()):
        f, k, m = draw(log_uniform(1e-3, 1e3)), draw(st.integers(1, 100)), draw(
            log_uniform(1.0, 1e4).map(round)
        )
        dk, dm = Decimal(k), Decimal(m)
        constants = (dk * Decimal(f) / dm, -(dk / 2 + 1), (dk + dm) / 2, (dk + dm) / dk)
        return log_bf_f, (f, k, m), tau2, constants
    t, nu = draw(st.floats(-10.0, 10.0)), draw(log_uniform(1.0, 1e5).map(round))
    dnu = Decimal(nu)
    constants = (Decimal(t) ** 2 / dnu, Decimal(-1.5), (dnu + 1) / 2, dnu + 1)
    return log_bf_t, (t, nu), tau2, constants


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_points())
def test_t_and_f_kernel_agrees_with_50_digits(point):
    # the same algebra at 50 digits from the double inputs, exact as Decimals: the kernel's
    # error stays within 1e-14 of the sum of its terms' magnitudes, on a scalar and in a block
    form, args, tau2, (r, a, half_df, c) = point
    with localcontext() as ctx:
        ctx.prec = 50
        dtau2 = Decimal(tau2)
        g = dtau2 * r / (1 + dtau2 + r)
        terms = (a * (1 + dtau2).ln(), half_df * (1 + g).ln(), (1 + c * g).ln())
        want, scale = float(sum(terms)), float(sum(abs(term) for term in terms))
    for got in (form(*args, tau2), *form(*args, np.full(17, tau2)).tolist()):
        assert abs(got - want) <= 1e-14 * scale


class TestIntegerArguments:
    """The forms take their dfs as doubles at entry, as a curve takes its studies."""

    def test_t_dfs_past_int64(self):
        # a Python int past int64 is an object array to numpy, whose log refuses it
        assert log_bf_t(3.0, 2**64, 0.5) == log_bf_t(3.0, 2.0**64, 0.5)
        assert math.isclose(log_bf_t(3.0, 2**64, 0.5), 2.2780966989576465, rel_tol=1e-14)
        got = log_bf(TestStatistic(Family.T, 3.0, df1=10**20), 0.5)
        assert got == log_bf_t(3.0, 1e20, 0.5)
        assert math.isclose(got, 2.278096698957641, rel_tol=1e-14)

    def test_df_past_the_largest_double_is_named(self):
        with pytest.raises(ValueError, match="k is larger than the largest double"):
            log_bf_chisq(3.0, 10**400, 0.5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(accepted_statistics(), st.floats(0.0, exclude_min=True, allow_infinity=False))
def test_every_accepted_statistic_gives_a_float(stat, tau2):
    # ln BF10 may be the documented +-inf or nan, with no numpy warning: the suite makes
    # a RuntimeWarning an error
    assert type(log_bf(stat, tau2)) is float


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

    @pytest.mark.parametrize(
        "family, data",
        [
            (Family.Z, (1.7,)),
            (Family.Z, (0.0,)),
            (Family.T, (2.2, 14.0)),
            (Family.T, (0.0, 14.0)),
            (Family.CHISQ, (7.5, 4.0)),
            (Family.CHISQ, (-0.0, 4.0)),
            (Family.F, (3.1, 2.0, 40.0)),
            (Family.F, (0.0, 2.0, 40.0)),
        ],
    )
    def test_kernels_are_the_checked_forms_and_zero_at_tau2_zero(self, family, data):
        # curves evaluate k-section points through the kernels without masking
        # omega = 0, where tau2 = 0 and ln BF10 must come out exactly 0
        stat = TestStatistic(family, *data[:1], *(int(d) for d in data[1:]))
        constants, kernel = SPLIT_KERNELS[family]
        assert kernel(*constants(*data), 0.9) == log_bf(stat, 0.9)
        zero = kernel(*constants(*(np.array([[d]]) for d in data)), np.zeros(3))
        assert zero.tolist() == [[0.0, 0.0, 0.0]]
        assert not np.signbit(zero).any()

    def test_linear_space_saturates(self):
        assert linear_bf(800.0) == math.inf
        assert linear_bf(709.0) == math.exp(709.0)
