"""Tests for curve evaluation, refinement, crossings, and combination."""

import math

import pytest

from bff.bayes_factors import Family, TestStatistic, log_bf
from bff.curves import EffectGrid, Study, combine, evaluate_bff, find_crossings
from bff.effect_sizes import Design, EffectSize, StudyDesign, tau2_for

Z_STUDY = Study(
    TestStatistic(Family.Z, 2.0), StudyDesign(Design.ONE_SAMPLE_Z, n=100)
)
CHISQ_STUDY = Study(
    TestStatistic(Family.CHISQ, 12.65, df1=6),
    StudyDesign(Design.MULTINOMIAL_CHISQ, n=707, k=6),
)
F_ORIGINAL = Study(
    TestStatistic(Family.F, 4.05, df1=2, df2=82),
    StudyDesign(Design.LINEAR_MODEL_F, n=85, k=2),
    label="original",
)
F_REPLICATION = Study(
    TestStatistic(Family.F, 1.99, df1=2, df2=137),
    StudyDesign(Design.LINEAR_MODEL_F, n=140, k=2),
    label="replication",
)


class TestEffectGrid:
    def test_defaults(self):
        g = EffectGrid()
        assert (g.min, g.max, g.steps) == (0.0, 1.0, 500)

    def test_omegas_span_grid(self):
        g = EffectGrid(0.0, 0.5, 11)
        ws = g.omegas()
        assert len(ws) == 11
        assert ws[0] == 0.0
        assert ws[-1] == 0.5

    @pytest.mark.parametrize(
        "bounds", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0)]
    )
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            EffectGrid(*bounds)

    def test_validation(self):
        with pytest.raises(ValueError):
            EffectGrid(min=-0.1)
        with pytest.raises(ValueError):
            EffectGrid(min=0.5, max=0.5)
        with pytest.raises(ValueError):
            EffectGrid(steps=1)


class TestStudyValidation:
    def test_family_must_match_design(self):
        with pytest.raises(ValueError):
            Study(
                TestStatistic(Family.Z, 2.0),
                StudyDesign(Design.ONE_SAMPLE_T, n=20),
            )

    def test_df1_must_match_effect_dimension(self):
        with pytest.raises(ValueError):
            Study(
                TestStatistic(Family.CHISQ, 5.0, df1=4),
                StudyDesign(Design.MULTINOMIAL_CHISQ, n=100, k=3),
            )

    def test_zero_effect_gives_unit_bayes_factor(self):
        assert Z_STUDY.log_bf_at(0.0) == 0.0


class TestSingleStudyCurves:
    def test_z_example_summary(self):
        curve = evaluate_bff(Z_STUDY)
        assert math.isclose(
            math.exp(curve.max_log_bf), 2.9031032584675662, rel_tol=1e-9
        )
        assert abs(curve.argmax_omega - 0.15340191418962523) <= 2e-5
        assert len(curve.crossings) == 1
        assert abs(curve.crossings[0] - 0.39967373321272975) <= 5e-6

    def test_z_example_one_in_five_crossing(self):
        curve = evaluate_bff(Z_STUDY)
        got = find_crossings(curve, math.log(0.2))
        assert len(got) == 1
        assert abs(got[0] - 0.7681519252444285) <= 5e-6

    def test_z_example_is_unimodal_on_grid(self):
        curve = evaluate_bff(Z_STUDY)
        vals = [lb for _, lb in curve.points]
        peaks = sum(
            1
            for i in range(1, len(vals) - 1)
            if vals[i - 1] < vals[i] >= vals[i + 1]
        )
        assert peaks == 1

    def test_chisq_example_summary(self):
        curve = evaluate_bff(CHISQ_STUDY)
        assert math.isclose(math.exp(curve.max_log_bf), 3.073169090632288, rel_tol=1e-9)
        assert abs(curve.argmax_omega - 0.034654512939824834) <= 2e-5
        assert abs(curve.crossings[0] - 0.06797783015026032) <= 5e-6

    def test_grid_zero_point_is_exact(self):
        curve = evaluate_bff(Z_STUDY)
        assert curve.points[0] == (0.0, 0.0)

    def test_refined_max_not_below_grid(self):
        for study in [Z_STUDY, CHISQ_STUDY, F_ORIGINAL]:
            curve = evaluate_bff(study)
            assert curve.max_log_bf >= max(lb for _, lb in curve.points)

    def test_monotone_decreasing_curve_peaks_at_grid_min(self):
        study = Study(
            TestStatistic(Family.Z, 0.0), StudyDesign(Design.ONE_SAMPLE_Z, n=10)
        )
        curve = evaluate_bff(study)
        assert curve.argmax_omega == 0.0
        assert curve.max_log_bf == 0.0
        assert curve.crossings == ()

    def test_deterministic(self):
        a = evaluate_bff(Z_STUDY)
        b = evaluate_bff(Z_STUDY)
        assert a.points == b.points
        assert a.max_log_bf == b.max_log_bf
        assert a.argmax_omega == b.argmax_omega
        assert a.crossings == b.crossings

    def test_small_effect_continuity(self):
        # Near omega=0 the curve approaches the exact 0 limit smoothly.
        assert abs(Z_STUDY.log_bf_at(1e-6)) <= 1e-6


class TestCombine:
    def test_replication_meta_analysis_summary(self):
        curve = combine([F_ORIGINAL, F_REPLICATION])
        assert math.isclose(math.exp(curve.max_log_bf), 5.752992956268645, rel_tol=1e-9)
        assert abs(curve.argmax_omega - 0.13943942679087956) <= 2e-5
        # argmax within the reported 0.14 +/- 0.005
        assert abs(curve.argmax_omega - 0.14) <= 0.005
        assert len(curve.crossings) == 1
        assert abs(curve.crossings[0] - 0.30996235735118766) <= 5e-6

    def test_replication_meta_analysis_bf2_interval(self):
        curve = combine([F_ORIGINAL, F_REPLICATION])
        got = find_crossings(curve, math.log(2.0))
        assert len(got) == 2
        assert abs(got[0] - 0.04959869277200793) <= 5e-6
        assert abs(got[1] - 0.260633014667551) <= 5e-6

    def test_pointwise_log_sum(self):
        grid = EffectGrid(0.0, 1.0, 101)
        combined = combine([F_ORIGINAL, F_REPLICATION], grid)
        a = evaluate_bff(F_ORIGINAL, grid)
        b = evaluate_bff(F_REPLICATION, grid)
        for (w, lb), (_, la), (_, lbb) in zip(combined.points, a.points, b.points):
            assert abs(lb - (la + lbb)) <= 1e-12

    def test_singleton_combine_matches_single_curve(self):
        grid = EffectGrid(0.0, 1.0, 101)
        assert combine([F_ORIGINAL], grid).points == evaluate_bff(F_ORIGINAL, grid).points

    def test_order_invariance(self):
        grid = EffectGrid(0.0, 1.0, 101)
        ab = combine([F_ORIGINAL, F_REPLICATION], grid)
        ba = combine([F_REPLICATION, F_ORIGINAL], grid)
        assert ab.points == ba.points

    def test_label_concatenation(self):
        curve = combine([F_ORIGINAL, F_REPLICATION], EffectGrid(0.0, 1.0, 11))
        assert curve.label == "original + replication"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine([])


# one study per design, statistics chosen so every curve rises, peaks and
# falls through ln BF = 0 on [0, 1]
ALL_DESIGN_STUDIES = [
    Z_STUDY,
    Study(TestStatistic(Family.T, 2.5, df1=29), StudyDesign(Design.ONE_SAMPLE_T, n=30)),
    Study(TestStatistic(Family.Z, -2.2), StudyDesign(Design.TWO_SAMPLE_Z, n1=40, n2=60)),
    Study(
        TestStatistic(Family.T, 3.1, df1=48), StudyDesign(Design.TWO_SAMPLE_T, n1=20, n2=30)
    ),
    CHISQ_STUDY,
    Study(
        TestStatistic(Family.CHISQ, 9.4, df1=3),
        StudyDesign(Design.LIKELIHOOD_RATIO_CHISQ, n=250, k=3),
    ),
    F_ORIGINAL,
]


class TestArrayMatchesScalar:
    @pytest.mark.parametrize(
        "study", ALL_DESIGN_STUDIES, ids=lambda s: s.design.design.value
    )
    def test_grid_matches_per_point_closed_form(self, study):
        curve = evaluate_bff(study, EffectGrid(0.0, 1.0, 201))
        assert curve.points[0] == (0.0, 0.0)
        for w, got in curve.points[1:]:
            want = log_bf(study.statistic, tau2_for(study.design, EffectSize(w)))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (w, got, want)
            assert abs(study.log_bf_at(w) - got) <= 1e-13 * max(1.0, abs(got))

    def test_combined_grid_is_the_per_point_sum(self):
        grid = EffectGrid(0.0, 1.0, 201)
        curve = combine(ALL_DESIGN_STUDIES, grid)
        for w, got in curve.points[1:]:
            want = sum(
                log_bf(s.statistic, tau2_for(s.design, EffectSize(w)))
                for s in ALL_DESIGN_STUDIES
            )
            assert abs(got - want) <= 1e-13 * len(ALL_DESIGN_STUDIES) * max(1.0, abs(want))

    def test_negative_or_nan_omega_rejected(self):
        for omega in (-0.1, math.nan):
            with pytest.raises(ValueError):
                Z_STUDY.log_bf_at(omega)


GRID_INVARIANCE_CASES = [
    ("z", lambda grid: evaluate_bff(Z_STUDY, grid)),
    ("chisq", lambda grid: evaluate_bff(CHISQ_STUDY, grid)),
    ("f original", lambda grid: evaluate_bff(F_ORIGINAL, grid)),
    ("f combined", lambda grid: combine([F_ORIGINAL, F_REPLICATION], grid)),
]


class TestGridInvariance:
    """Refined results depend on the grid only through the 1e-6 brackets."""

    @pytest.mark.parametrize("build", [c[1] for c in GRID_INVARIANCE_CASES],
                             ids=[c[0] for c in GRID_INVARIANCE_CASES])
    def test_max_argmax_and_crossings(self, build):
        summaries = []
        for steps in (101, 500, 2001):
            curve = build(EffectGrid(0.0, 1.0, steps))
            crossings = [list(curve.crossings)] + [
                find_crossings(curve, math.log(bf)) for bf in (0.2, 2.0)
            ]
            summaries.append((curve.max_log_bf, curve.argmax_omega, crossings))
        base_max, base_arg, base_crossings = summaries[0]
        assert any(base_crossings)
        for max_log_bf, argmax, crossings in summaries[1:]:
            assert abs(max_log_bf - base_max) <= 2e-6
            assert abs(argmax - base_arg) <= 2e-6
            for got, want in zip(crossings, base_crossings):
                assert len(got) == len(want)
                assert all(abs(a - b) <= 2e-6 for a, b in zip(got, want))
