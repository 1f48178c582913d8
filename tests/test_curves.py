"""Tests for curve evaluation, refinement, crossings, and combination."""

import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from bff import curves
from bff.bayes_factors import SPLIT_KERNELS, Family, TestStatistic, form_args, log_bf
from bff.curves import (
    BFFCurve,
    EffectGrid,
    Study,
    _StudySum,
    combine,
    evaluate_bff,
    find_crossings,
    refine_max,
    sweep,
)
from bff.effect_sizes import (
    VECTOR_DESIGNS,
    Design,
    EffectSize,
    StudyDesign,
    statistic_family_for,
    tau2_for,
    tau2_scale,
)
from bff.exports import build_export, render

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


class TestEvaluationCount:
    """A curve and its export cost a fixed number of _StudySum calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # checked and unchecked calls alike evaluate the kernels through
        # _columns once, so counting _columns counts every evaluation once
        count = [0]
        original = _StudySum._columns

        def counted(self, omegas):
            count[0] += 1
            return original(self, omegas)

        monkeypatch.setattr(_StudySum, "_columns", counted)
        return count

    def test_curve_then_export(self, calls):
        for thresholds, counts in [((0.2, 50.0), [1, 0]), ((0.2, 2.0, 50.0), [1, 2, 0])]:
            calls[0] = 0
            # the grid sweep alone: nothing is refined until read
            curve = evaluate_bff(Z_STUDY)
            assert calls[0] == 1
            # three k-section rounds shared by the maximum, the BF = 1 crossing and every
            # threshold, the last also sampling the maximum's midpoints, however many
            # thresholds there are
            export = build_export(curve, thresholds)
            assert calls[0] <= 4
            assert [len(b.crossings) for b in export.summary.thresholds] == counts
            # a refined curve refines its thresholds alone, in three rounds
            calls[0] = 0
            assert build_export(curve, thresholds).summary == export.summary
            assert calls[0] <= 3

    def test_rounds_evaluate_only_open_brackets(self, monkeypatch):
        sizes = []
        original = _StudySum._columns

        def recorded(self, omegas):
            sizes.append(omegas.size)
            return original(self, omegas)

        monkeypatch.setattr(_StudySum, "_columns", recorded)
        evaluate_bff(Z_STUDY, EffectGrid(steps=1000)).max_log_bf  # the first read refines
        # the grid sweep; rounds of the maximum's 35 points and the BF = 1 bracket's
        # 33, which closes after round 2, so round 3 samples the maximum alone, with the
        # midpoint of each of the 35 brackets it can keep, all within 1e-6
        assert sizes == [1000, 68, 68, 70]


class TestSweep:
    """A per-study series: the study's grid values from one evaluation, read-only."""

    def test_sweep_is_the_curve_grid_and_read_only(self):
        grid = EffectGrid(steps=61)
        got, curve = sweep(F_ORIGINAL, grid), evaluate_bff(F_ORIGINAL, grid)
        assert got.label == "original"
        assert got.omegas.tobytes() == curve.omegas.tobytes()
        assert got.log_bfs.tobytes() == curve.log_bfs.tobytes()
        for column in (got.omegas, got.log_bfs):
            with pytest.raises(ValueError):
                column[0] = 1.0


def random_studies(seed, count):
    """Seeded studies of every family and design, with zero statistics and huge dfs."""
    rng = np.random.default_rng(seed)
    big = [int(x) for x in (1e300, 1.7e308, sys.float_info.max)]
    studies = []
    for i in range(count):
        df = int(rng.integers(1, 500)) if i % 5 else big[i % 3]
        n = int(rng.integers(1, 10**6))
        value = 0.0 if i % 7 == 0 else float(rng.lognormal(1.0, 1.5))
        half = (n + 1) // 2
        family = list(Family)[i % 4]
        if family is Family.Z:
            design = StudyDesign(Design.ONE_SAMPLE_Z, n=n) if i % 2 else StudyDesign(
                Design.TWO_SAMPLE_Z, n1=half, n2=n - half + 1)
            stat = TestStatistic(family, value * rng.choice((-1.0, 1.0)))
        elif family is Family.T:
            design = StudyDesign(Design.ONE_SAMPLE_T, n=n) if i % 2 else StudyDesign(
                Design.TWO_SAMPLE_T, n1=half, n2=n - half + 1)
            stat = TestStatistic(family, value * rng.choice((-1.0, 1.0)), df1=df)
        elif family is Family.CHISQ:
            kind = Design.MULTINOMIAL_CHISQ if i % 2 else Design.LIKELIHOOD_RATIO_CHISQ
            design = StudyDesign(kind, n=n, k=df)
            stat = TestStatistic(family, value, df1=df)
        else:
            m = int(rng.integers(1, 500)) if i % 3 else big[i % 2]
            design = StudyDesign(Design.LINEAR_MODEL_F, n=n, k=df)
            stat = TestStatistic(family, value, df1=df, df2=m)
        studies.append(Study(stat, design))
    top = int(sys.float_info.max)  # F's two df terms overflow both ways to nan
    studies.append(Study(TestStatistic(Family.F, 3.0, df1=top, df2=top),
                         StudyDesign(Design.LINEAR_MODEL_F, n=10**6, k=top)))
    return studies


class TestPerStudyConstants:
    """A curve computes each study's kernel constants once; the values keep every bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_study_sum_is_the_kernels_bit_for_bit(self, seed):
        studies = random_studies(seed, 40)
        omegas = np.concatenate([np.linspace(0.0, 2.0, 97), [1e-170, 1e-3, 40.0]])
        w2 = omegas * omegas
        for family in Family:
            members = [s for s in studies if s.statistic.family is family]
            assert any(s.statistic.value == 0.0 for s in members)
            rows = [(*form_args(s.statistic), tau2_scale(s.design)) for s in members]
            *data, scale = (np.array(xs, dtype=float)[:, None] for xs in zip(*rows))
            constants, kernel = SPLIT_KERNELS[family]
            columns = kernel(*constants(*data), scale * w2)  # (N, 1) x (1, S), as a curve has them
            for s, column in zip(members, columns):
                assert _StudySum((s,)).unchecked(omegas).tobytes() == column.tobytes()
            with np.errstate(invalid="ignore", over="ignore"):
                total = columns.sum(axis=0)
            assert _StudySum(members).unchecked(omegas).tobytes() == total.tobytes()


class TestBlockedSweep:
    """Kernels run on blocks of studies x omegas; each column is summed on its own."""

    @pytest.mark.parametrize("block", [1, 7, 600])
    def test_blocks_are_bit_identical_to_one_call(self, block, monkeypatch):
        members = [Z_STUDY, CHISQ_STUDY, F_ORIGINAL, F_REPLICATION] * 3
        omegas = np.linspace(0.0, 2.0, 257)
        whole = _StudySum(members)(omegas)
        monkeypatch.setattr(curves, "_BLOCK", block)
        assert _StudySum(members)(omegas).tobytes() == whole.tobytes()
        assert _StudySum(members)(omegas[:0]).shape == (0,)

    def test_a_point_is_the_same_alone_or_in_a_block(self):
        # numpy sums a lone column pairwise and wider blocks row by row: past 8 studies the
        # two orders differ, so a point's value would depend on what shares its call
        members = [Study(TestStatistic(Family.Z, 0.37 * i - 3.1), StudyDesign(
            Design.ONE_SAMPLE_Z, n=10 + 13 * i)) for i in range(20)]
        fn = _StudySum(members)
        omegas = np.linspace(0.0, 2.0, 101)
        whole = fn(omegas).tolist()
        assert [fn(omegas[i : i + 1])[0] for i in range(101)] == whole
        # the last point alone in the last block, and the same point in a pair
        omegas = np.linspace(0.0, 2.0, curves._BLOCK // len(members) + 1)
        assert fn(omegas)[-1] == fn(omegas[-2:])[-1]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
    def test_block_temporaries_reuse_the_heap(self):
        # a block's temporaries are past glibc's initial mmap threshold, so unless the threshold
        # has been raised every block maps and faults them again. Importing scipy first used to
        # decide that; counting faults, not time, cannot flake on a loaded machine
        src = str(Path(curves.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        script = "\n".join([
            "import resource",
            "import scipy.integrate",
            "from bff import Design, EffectGrid, Family, Study, StudyDesign, TestStatistic",
            "from bff import combine",
            "t = TestStatistic(Family.T, 2.5, df1=40)",
            "z = TestStatistic(Family.Z, 1.8)",
            "members = [Study(t, StudyDesign(Design.ONE_SAMPLE_T, n=41)),",
            "           Study(z, StudyDesign(Design.ONE_SAMPLE_Z, n=300))]",
            "grid = EffectGrid(steps=100_000)",
            "combine(members, grid)",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "for _ in range(5):",
            "    combine(members, grid)",
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.splitlines()[-1]) < 50


@st.composite
def studies(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(10, 2000))
    if family is Family.Z:
        stat = TestStatistic(family, draw(st.floats(-6.0, 6.0)))
        return Study(stat, StudyDesign(Design.ONE_SAMPLE_Z, n=n))
    if family is Family.T:
        stat = TestStatistic(family, draw(st.floats(-6.0, 6.0)), df1=n - 1)
        return Study(stat, StudyDesign(Design.ONE_SAMPLE_T, n=n))
    k = draw(st.integers(1, 5))
    if family is Family.CHISQ:
        stat = TestStatistic(family, draw(st.floats(0.0, 40.0)), df1=k)
        return Study(stat, StudyDesign(Design.LIKELIHOOD_RATIO_CHISQ, n=n, k=k))
    stat = TestStatistic(family, draw(st.floats(0.0, 10.0)), df1=k, df2=n - k - 1)
    return Study(stat, StudyDesign(Design.LINEAR_MODEL_F, n=n, k=k))


class TestBatchIndependence:
    """Each bracket's result is the same whatever shares its k-section rounds."""

    @settings(max_examples=60, deadline=2000)
    @given(
        st.lists(studies(), min_size=1, max_size=3),
        st.lists(st.floats(0.05, 20.0), min_size=1, max_size=3),
        st.integers(10, 300),
    )
    def test_joint_pass_matches_one_bracket_set_at_a_time(self, members, thresholds, steps):
        grid = EffectGrid(0.0, 1.0, steps)
        curve = evaluate_bff(members[0], grid) if len(members) == 1 else combine(members, grid)
        export = build_export(curve, tuple(thresholds))
        for block in export.summary.thresholds:
            assert list(block.crossings) == find_crossings(curve, math.log(block.threshold_bf))
        assert list(curve.crossings) == find_crossings(curve, 0.0)
        assert (curve.argmax_omega, curve.max_log_bf) == refine_max(
            curve.omegas, curve.log_bfs, curve.log_bf_fn
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(studies(), min_size=1, max_size=3),
        st.lists(st.floats(0.05, 20.0), max_size=3),
        st.integers(10, 300),
    )
    def test_fields_read_before_the_export_or_after_agree(self, members, thresholds, steps):
        # reading a field first refines the maximum and the BF = 1 crossings alone, and the
        # export refines its thresholds in a second pass; an export built first shares one
        grid = EffectGrid(0.0, 1.0, steps)
        read_first, export_first = (
            evaluate_bff(members[0], grid) if len(members) == 1 else combine(members, grid)
            for _ in range(2)
        )
        fields = (read_first.max_log_bf, read_first.argmax_omega, read_first.crossings)
        exported = [build_export(c, tuple(thresholds)) for c in (read_first, export_first)]
        assert (export_first.max_log_bf, export_first.argmax_omega, export_first.crossings) == fields
        for fmt in ("csv", "json", "svg"):
            assert render(exported[0], fmt) == render(exported[1], fmt)

    def test_refine_max_checks_the_omegas_it_is_given(self):
        curve = evaluate_bff(Z_STUDY)
        omegas = -curve.omegas[::-1]
        with pytest.raises(ValueError, match="omega must be >= 0"):
            refine_max(omegas, curve.log_bfs[::-1], curve.log_bf_fn)
        omegas = np.array([0.0, 1e200, 2e200])
        with pytest.raises(ValueError, match="overflows"):
            refine_max(omegas, np.zeros(3), curve.log_bf_fn)

    def test_any_function_without_an_unchecked_method(self):
        omegas = np.linspace(0.0, 1.0, 11)

        def fn(w):
            return 1.0 - 20.0 * (w - 0.3217) ** 2

        argmax, top = refine_max(omegas, fn(omegas), fn)
        assert abs(argmax - 0.3217) <= 1e-6 and top >= fn(omegas).max()
        curve = BFFCurve(omegas, fn(omegas), top, argmax, (), log_bf_fn=fn)
        # 1 - 20 (w - 0.3217)^2 = 0 at w = 0.3217 -+ sqrt(0.05)
        want = [0.3217 - math.sqrt(0.05), 0.3217 + math.sqrt(0.05)]
        assert find_crossings(curve, 0.0) == pytest.approx(want, abs=1e-6)


LARGEST = int(sys.float_info.max)
SIZES = st.integers(1, 1000) | st.integers(1, LARGEST) | st.floats(1.0, sys.float_info.max)


@st.composite
def accepted_studies(draw):
    """A Study of any StudyDesign the constructor accepts, with any statistic it accepts."""
    design = draw(st.sampled_from(Design))
    if design in (Design.TWO_SAMPLE_Z, Design.TWO_SAMPLE_T):
        sizes = {"n1": draw(SIZES), "n2": draw(SIZES)}
    else:
        sizes = {"n": draw(SIZES)}
    if design in VECTOR_DESIGNS:
        sizes["k"] = draw(SIZES)
    try:
        study_design = StudyDesign(design, **sizes)
    except ValueError as e:  # float group sizes whose tau2 scale overflows
        assert "not finite" in str(e)
        reject()
    family = statistic_family_for(study_design)
    lo = 0 if family in (Family.CHISQ, Family.F) else -LARGEST
    value = draw(st.floats(lo, LARGEST) | st.integers(lo, LARGEST) | st.just(-0.0))
    dfs = {}
    if family is not Family.Z:
        dfs["df1"] = sizes["k"] if design in VECTOR_DESIGNS else draw(SIZES)
    if family is Family.F:
        dfs["df2"] = draw(SIZES)
    return Study(TestStatistic(family, value, **dfs), study_design)


# a grid a CLI user may pass: up to 1e12 wide, starting at 0 or past it
GRIDS = st.builds(
    lambda lo, width, steps: EffectGrid(lo, lo + width, steps),
    st.just(0.0) | st.floats(0.0, 10.0),
    st.floats(1e-6, 1e12),
    st.integers(2, 60),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(accepted_studies(), GRIDS)
def test_every_accepted_design_gives_a_curve_or_a_named_error(study, grid):
    # the library's side of the CLI's contract: a curve whose fields are finite, ln BF10
    # not finite named as such, or a ValueError naming the argument at fault
    try:
        curve = evaluate_bff(study, grid)
    except FloatingPointError as e:
        assert "not finite" in str(e)
        return
    except ValueError as e:
        assert "omega" in str(e)
        return
    assert math.isfinite(curve.max_log_bf) and 0.0 <= curve.argmax_omega <= grid.max
    assert all(grid.min <= w <= grid.max for w in curve.crossings)
