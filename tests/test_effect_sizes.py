"""Tests for effect-size aggregation, tau2 mappings, and zones."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bff.bayes_factors import Family
from bff.effect_sizes import (
    Design,
    EffectSize,
    StudyDesign,
    ZONES,
    Zone,
    rmses,
    statistic_family_for,
    tau2_for,
    zone_index,
)

OMEGAS = st.floats(-3.0, 3.0, allow_nan=False)


def _design(design, **kw):
    return StudyDesign(design, **kw)


ALL_DESIGNS = [
    _design(Design.ONE_SAMPLE_Z, n=50),
    _design(Design.ONE_SAMPLE_T, n=50),
    _design(Design.TWO_SAMPLE_Z, n1=30, n2=40),
    _design(Design.TWO_SAMPLE_T, n1=30, n2=40),
    _design(Design.MULTINOMIAL_CHISQ, n=200, k=4),
    _design(Design.LIKELIHOOD_RATIO_CHISQ, n=200, k=4),
    _design(Design.LINEAR_MODEL_F, n=90, k=3),
]


class TestRmses:
    def test_singleton(self):
        assert math.isclose(rmses([0.3]).omega_tilde, 0.3, rel_tol=1e-15)

    def test_signs_cancel_in_squares(self):
        assert rmses([0.3, -0.3]).omega_tilde == rmses([0.3, 0.3]).omega_tilde

    def test_three_components(self):
        got = rmses([0.1, 0.2, 0.2]).omega_tilde
        assert math.isclose(got, math.sqrt(0.03), rel_tol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmses([])

    @given(st.lists(OMEGAS, min_size=1, max_size=6))
    def test_sign_invariance_exact(self, ws):
        flipped = [-w for w in ws]
        assert rmses(ws).omega_tilde == rmses(flipped).omega_tilde

    @given(st.lists(OMEGAS, min_size=2, max_size=6))
    def test_permutation_invariance(self, ws):
        assert math.isclose(
            rmses(ws).omega_tilde,
            rmses(list(reversed(ws))).omega_tilde,
            rel_tol=1e-12,
            abs_tol=1e-15,
        )


class TestEffectSize:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EffectSize(-0.1)


class TestStudyDesignValidation:
    def test_two_sample_needs_group_sizes(self):
        with pytest.raises(ValueError):
            StudyDesign(Design.TWO_SAMPLE_T, n=100)
        with pytest.raises(ValueError):
            StudyDesign(Design.TWO_SAMPLE_Z, n1=30)

    def test_one_sample_needs_n(self):
        with pytest.raises(ValueError):
            StudyDesign(Design.ONE_SAMPLE_Z)
        with pytest.raises(ValueError):
            StudyDesign(Design.ONE_SAMPLE_T, n=0)

    def test_vector_designs_need_k(self):
        with pytest.raises(ValueError):
            StudyDesign(Design.MULTINOMIAL_CHISQ, n=100)
        with pytest.raises(ValueError):
            StudyDesign(Design.LINEAR_MODEL_F, n=100, k=0)

    @pytest.mark.parametrize("field", ["n", "k"])
    def test_sizes_past_the_largest_double(self, field):
        sizes = {"n": 100, "k": 2, field: 10**400}
        with pytest.raises(ValueError, match=f"{field} is larger than the largest double"):
            StudyDesign(Design.LINEAR_MODEL_F, **sizes)
        with pytest.raises(ValueError, match="n2 is larger"):
            StudyDesign(Design.TWO_SAMPLE_T, n1=3, n2=10**400)


class TestTau2For:
    def test_one_sample_z(self):
        d = _design(Design.ONE_SAMPLE_Z, n=100)
        assert math.isclose(tau2_for(d, EffectSize(0.15)), 1.125, rel_tol=1e-15)

    def test_multinomial(self):
        d = _design(Design.MULTINOMIAL_CHISQ, n=707, k=6)
        assert math.isclose(tau2_for(d, EffectSize(0.035)), 0.866075, rel_tol=1e-12)

    def test_linear_model_f(self):
        d = _design(Design.LINEAR_MODEL_F, n=85, k=2)
        assert math.isclose(tau2_for(d, EffectSize(0.14)), 0.833, rel_tol=1e-12)

    def test_two_sample(self):
        d = _design(Design.TWO_SAMPLE_T, n1=50, n2=50)
        assert math.isclose(tau2_for(d, EffectSize(0.2)), 0.5, rel_tol=1e-15)

    def test_two_sample_scale_divides_in_integers(self):
        # n1 n2 = 1e400 is past the largest double; the scale itself is not
        d = _design(Design.TWO_SAMPLE_T, n1=10**200, n2=10**200)
        assert tau2_for(d, EffectSize(1.0)) == 2.5e199

    def test_lrt_matches_multinomial_rule(self):
        a = _design(Design.MULTINOMIAL_CHISQ, n=300, k=5)
        b = _design(Design.LIKELIHOOD_RATIO_CHISQ, n=300, k=5)
        w = EffectSize(0.12)
        assert tau2_for(a, w) == tau2_for(b, w)

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_zero_effect_sentinel(self, design):
        assert tau2_for(design, EffectSize(0.0)) == 0.0

    @pytest.mark.parametrize("design", ALL_DESIGNS)
    @given(w=st.floats(1e-3, 3.0, allow_nan=False))
    def test_sign_of_omega_is_irrelevant(self, design, w):
        # Scalar inputs enter only through omega^2, checked via the
        # sign-invariant aggregate of a one-element vector.
        assert tau2_for(design, rmses([w])) == tau2_for(design, rmses([-w]))

    def test_doubling_n_doubles_tau2(self):
        w = EffectSize(0.37)
        for d1, d2 in [
            (_design(Design.ONE_SAMPLE_Z, n=40), _design(Design.ONE_SAMPLE_Z, n=80)),
            (
                _design(Design.MULTINOMIAL_CHISQ, n=40, k=3),
                _design(Design.MULTINOMIAL_CHISQ, n=80, k=3),
            ),
            (
                _design(Design.LINEAR_MODEL_F, n=40, k=3),
                _design(Design.LINEAR_MODEL_F, n=80, k=3),
            ),
            (
                _design(Design.TWO_SAMPLE_Z, n1=30, n2=50),
                _design(Design.TWO_SAMPLE_Z, n1=60, n2=100),
            ),
        ]:
            assert tau2_for(d2, w) == 2.0 * tau2_for(d1, w)

    def test_vector_effect_matches_quadratic_form(self):
        # For a chi-squared design tau2 = n * (w'w)/k with w the effect
        # vector, which rmses carries as its square.
        ws = [0.1, -0.25, 0.2]
        d = _design(Design.MULTINOMIAL_CHISQ, n=500, k=3)
        got = tau2_for(d, rmses(ws))
        want = 500.0 * sum(w * w for w in ws) / 3.0
        assert math.isclose(got, want, rel_tol=1e-14)


class TestFamilyMap:
    def test_all_designs(self):
        want = [
            Family.Z,
            Family.T,
            Family.Z,
            Family.T,
            Family.CHISQ,
            Family.CHISQ,
            Family.F,
        ]
        got = [statistic_family_for(d) for d in ALL_DESIGNS]
        assert got == want


class TestZones:
    def test_representative_points(self):
        assert ZONES[zone_index(0.0)] is Zone.VERY_SMALL
        assert ZONES[zone_index(0.05)] is Zone.VERY_SMALL
        assert ZONES[zone_index(0.2)] is Zone.SMALL
        assert ZONES[zone_index(0.5)] is Zone.MEDIUM
        assert ZONES[zone_index(0.8)] is Zone.LARGE

    def test_left_closed_boundaries(self):
        assert ZONES[zone_index(0.1)] is Zone.SMALL
        assert ZONES[zone_index(0.35)] is Zone.MEDIUM
        assert ZONES[zone_index(0.65)] is Zone.LARGE

    def test_zone_index_on_arrays_is_its_scalars(self):
        omegas = np.array([0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, math.inf])
        assert zone_index(omegas).tolist() == [zone_index(w) for w in omegas.tolist()]

    @given(st.floats(0.0, 2.0, allow_nan=False), st.floats(0.0, 2.0, allow_nan=False))
    def test_monotone_in_omega(self, a, b):
        assert zone_index(min(a, b)) <= zone_index(max(a, b))
