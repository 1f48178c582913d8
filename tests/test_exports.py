"""Tests for CSV/JSON/SVG rendering of curve exports."""

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from bff.bayes_factors import Family, TestStatistic, linear_bf
from bff.curves import EffectGrid, Study, combine, evaluate_bff
from bff.effect_sizes import Design, StudyDesign
from bff.exports import (
    MAIN_COLOR,
    ZONE_BANDS,
    ExportRow,
    ExportRows,
    build_export,
    emit,
    parse_csv,
    render,
    render_csv,
    render_json,
    render_svg,
)

GRID = EffectGrid(0.0, 1.0, 61)

Z_STUDY = Study(
    TestStatistic(Family.Z, 2.0), StudyDesign(Design.ONE_SAMPLE_Z, n=100)
)
F_STUDIES = [
    Study(
        TestStatistic(Family.F, 4.05, df1=2, df2=82),
        StudyDesign(Design.LINEAR_MODEL_F, n=85, k=2),
        label="original",
    ),
    Study(
        TestStatistic(Family.F, 1.99, df1=2, df2=137),
        StudyDesign(Design.LINEAR_MODEL_F, n=140, k=2),
        label="replication",
    ),
]


CHISQ_STUDY = Study(
    TestStatistic(Family.CHISQ, 12.65, df1=6),
    StudyDesign(Design.MULTINOMIAL_CHISQ, n=707, k=6),
)

# SHA-256 of render(export, fmt) for the README examples on the default grid:
# the z example with thresholds 0.2 and 50, the chi-squared example with
# threshold 0.2, and the combined F example with threshold 2 and per-study
# series. A change to any of these bytes is a change to the export format.
GOLDEN_SHA256 = {
    ("z", "csv"): "b6240f2ff74e713069618b91dac1353941953b7d9507ebc5f94c73d7709a64b0",
    ("z", "json"): "080f5fd8e1905d5dff4f0f0575ca1262e16b4539af95eab3666bc8edf248333c",
    ("z", "svg"): "3f842b201c8c15dfd85731f0928526e4e47d9f9c9c517f85ef2d848dcb802460",
    ("chisq", "csv"): "a983ce38d725761498dac125b027d8bb4405cc5064b768e6f50fd16608ecc0cf",
    ("chisq", "json"): "c1c0e8395cc09bc0b49ef1973e0413fc670a9e17fa8565072963522bb1f05cc9",
    ("chisq", "svg"): "75382e95a9f8a376f6da8cb0d87c22a46ced86edf033880b8e2b6b931fa67165",
    ("f", "csv"): "b7620670e0dc0fc5ba76aa15424b2bd73b95e8563c27eabb2e30f7e2c65ea3e1",
    ("f", "json"): "9efc408e86c54c060618dd84c4e361ebfdeed842815d52cd3067dd5d3b9c98cd",
    ("f", "svg"): "0afe8f114d09e6320b8e230b1f273eafcdf9bcad83d2ee7c009411ac8901f476",
}


def readme_export(name):
    if name == "z":
        return build_export(evaluate_bff(Z_STUDY), thresholds=(0.2, 50.0))
    if name == "chisq":
        return build_export(evaluate_bff(CHISQ_STUDY), thresholds=(0.2,))
    per_study = tuple(evaluate_bff(s) for s in F_STUDIES)
    return build_export(combine(F_STUDIES), thresholds=(2.0,), per_study=per_study)


def z_export(thresholds=(0.2, 50.0)):
    return build_export(evaluate_bff(Z_STUDY, GRID), thresholds=thresholds)


def combined_export():
    curve = combine(F_STUDIES, GRID)
    per_study = tuple(evaluate_bff(s, GRID) for s in F_STUDIES)
    return build_export(curve, thresholds=(2.0,), per_study=per_study)


class TestBuildExport:
    def test_rows_mirror_curve_points(self):
        export = z_export()
        assert len(export.rows) == 61
        for row in export.rows:
            assert row.bf10 == math.exp(row.log_bf10)
        assert export.rows[0].omega == 0.0
        assert export.rows[0].zone == "very small"
        assert export.rows[-1].zone == "large"

    def test_threshold_blocks(self):
        export = z_export()
        by_threshold = {b.threshold_bf: b.crossings for b in export.summary.thresholds}
        assert set(by_threshold) == {0.2, 50.0}
        assert len(by_threshold[0.2]) == 1
        assert by_threshold[50.0] == ()

    def test_per_study_labels(self):
        export = combined_export()
        assert [s.label for s in export.per_study] == ["original", "replication"]


def zone_of(omega):
    if omega < 0.1:
        return "very small"
    if omega < 0.35:
        return "small"
    return "medium" if omega < 0.65 else "large"


def eager_rows(curve):
    """One ExportRow per grid point, built directly from the curve."""
    return [
        ExportRow(w, linear_bf(lb), lb, zone_of(w))
        for w, lb in curve.points
    ]


class TestColumnarRows:
    def test_len(self):
        assert len(z_export().rows) == 61
        assert len(ExportRows(np.array([]), np.array([]))) == 0

    def test_int_and_negative_indexing(self):
        curve = evaluate_bff(Z_STUDY, GRID)
        rows, eager = build_export(curve).rows, eager_rows(curve)
        for i in (0, 1, 30, 60, -1, -2, -61):
            assert rows[i] == eager[i]
        with pytest.raises(IndexError):
            rows[61]
        with pytest.raises(IndexError):
            rows[-62]

    def test_slices_are_rows_over_views(self):
        curve = evaluate_bff(Z_STUDY, GRID)
        rows, eager = build_export(curve).rows, eager_rows(curve)
        for sl in (slice(10, 20), slice(None, None, 7), slice(-5, None), slice(None, None, -1)):
            part = rows[sl]
            assert isinstance(part, ExportRows)
            assert list(part) == eager[sl]
            assert np.shares_memory(part.omegas, curve.omegas)

    def test_iteration_matches_eager_rows(self):
        curve = combine(F_STUDIES, GRID)
        assert list(build_export(curve).rows) == eager_rows(curve)

    def test_zone_bounds_are_left_closed_both_ways(self):
        rows = ExportRows(np.array([0.0, 0.1, 0.35, 0.65, 2.0]), np.zeros(5))
        zones = ["very small", "small", "medium", "large", "large"]
        assert [r.zone for r in rows] == zones
        assert [rows[i].zone for i in range(5)] == zones

    def test_equal_to_parsed_csv_rows(self):
        export = combined_export()
        assert parse_csv(render_csv(export)).rows == export.rows
        assert parse_csv(render_csv(z_export())).rows != export.rows
        assert export.rows != list(export.rows)

    def test_saturated_row(self):
        study = Study(TestStatistic(Family.Z, 40.0), StudyDesign(Design.ONE_SAMPLE_Z, n=1000))
        export = build_export(evaluate_bff(study, GRID))
        row = export.rows[-1]
        assert row.bf10 == math.inf
        assert math.isfinite(row.log_bf10) and row.log_bf10 > 709.79
        assert row == eager_rows(evaluate_bff(study, GRID))[-1]
        back = parse_csv(render_csv(export))
        assert back.rows == export.rows
        assert back.rows[-1] == row

    def test_rows_share_the_curves_arrays(self):
        curve = combine(F_STUDIES, GRID)
        per_study = tuple(evaluate_bff(s, GRID) for s in F_STUDIES)
        export = build_export(curve, per_study=per_study)
        assert np.shares_memory(export.rows.omegas, curve.omegas)
        assert np.shares_memory(export.rows.log_bf10s, curve.log_bfs)
        for series, single in zip(export.per_study, per_study):
            assert np.shares_memory(series.points.omegas, single.omegas)
            assert np.shares_memory(series.points.log_bf10s, single.log_bfs)
        assert not export.rows.omegas.flags.writeable
        assert not parse_csv(render_csv(export)).rows.log_bf10s.flags.writeable


class TestCsv:
    def test_header_and_comments(self):
        text = render_csv(z_export())
        lines = text.splitlines()
        assert lines[0] == "omega,bf10,log_bf10,zone"
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 62  # header plus one line per grid point
        assert any(l.startswith("# max_bf10 ") for l in lines)
        assert any(l.startswith("# argmax_omega ") for l in lines)
        assert any(l.startswith("# crossings_bf1 ") for l in lines)
        assert any(l.startswith("# threshold_bf 50 crossings") for l in lines)

    def test_round_trip_is_byte_identical(self):
        export = z_export()
        text = render_csv(export)
        assert render_csv(parse_csv(text)) == text

    def test_round_trip_preserves_values(self):
        export = z_export()
        back = parse_csv(render_csv(export))
        assert back.rows == export.rows
        assert back.summary == export.summary

    def test_deterministic(self):
        assert render_csv(z_export()) == render_csv(z_export())

    def test_rejects_bf10_that_is_not_exp_of_log_bf10(self):
        text = (
            "omega,bf10,log_bf10,zone\n0.5,999,0.1,bogus\n"
            "# max_bf10 999\n# max_log_bf10 0.1\n# argmax_omega 0.5\n# crossings_bf1\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            parse_csv(text)

    def test_rejects_max_bf10_that_is_not_exp_of_max_log_bf10(self):
        text = render_csv(z_export())
        line = next(l for l in text.splitlines() if l.startswith("# max_bf10 "))
        with pytest.raises(ValueError, match="max_bf10 999 disagrees"):
            parse_csv(text.replace(line, "# max_bf10 999"))

    @pytest.mark.parametrize("row, fields", [("0,1,0", 3), ("0,1,0,very small,extra", 5)])
    def test_rejects_a_row_without_four_fields(self, row, fields):
        # a 5-field row that parsed would re-render to other bytes: no exact round trip
        summary = "# max_bf10 1\n# max_log_bf10 0\n# argmax_omega 0\n# crossings_bf1\n"
        parse_csv(f"omega,bf10,log_bf10,zone\n0,1,0,very small\n0.5,1,0,medium\n{summary}")
        with pytest.raises(ValueError, match=f"line 2 needs 4 fields, has {fields}"):
            parse_csv(f"omega,bf10,log_bf10,zone\n{row}\n{summary}")

    @pytest.mark.parametrize("bf10, log_bf10", [("inf", "inf"), ("0", "-inf"), ("nan", "nan")])
    def test_rejects_log_bf10_that_is_not_finite(self, bf10, log_bf10):
        # bf10 agrees with log_bf10, yet such a row renders as JSON no parser reads
        text = (
            f"omega,bf10,log_bf10,zone\n0.5,{bf10},{log_bf10},medium\n"
            "# max_bf10 1\n# max_log_bf10 0\n# argmax_omega 0.5\n# crossings_bf1\n"
        )
        with pytest.raises(ValueError, match="line 2 has a log_bf10 that is not finite"):
            parse_csv(text)

    @pytest.mark.parametrize("max_bf10, max_log_bf10", [("inf", "inf"), ("0", "-inf")])
    def test_rejects_max_log_bf10_that_is_not_finite(self, max_bf10, max_log_bf10):
        lines = render_csv(z_export()).splitlines(keepends=True)
        n = next(i for i, l in enumerate(lines) if l.startswith("# max_log_bf10 "))
        assert lines[n - 1].startswith("# max_bf10 ")
        lines[n - 1 : n + 1] = [f"# max_bf10 {max_bf10}\n", f"# max_log_bf10 {max_log_bf10}\n"]
        with pytest.raises(ValueError, match=f"line {n + 1} has a max_log_bf10 that is not finite"):
            parse_csv("".join(lines))

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("", "has 0"),
            ("0.5,1,0,medium\n", "has 1 from omega 0.5 to 0.5"),
            ("0.5,1,0,medium\n0.5,1,0,medium\n", "has 2 from omega 0.5 to 0.5"),
        ],
        ids=["no rows", "one row", "equal omegas"],
    )
    def test_rejects_rows_that_span_no_omega_range(self, rows, problem):
        # a rendered curve has 2 or more rows and min < max; the SVG's omega scale divides by it
        summary = "# max_bf10 1\n# max_log_bf10 0\n# argmax_omega 0.5\n# crossings_bf1\n"
        with pytest.raises(ValueError, match=f"2 or more data rows spanning omega, {problem}"):
            parse_csv(f"omega,bf10,log_bf10,zone\n{rows}{summary}")

    def test_rejects_zone_that_is_not_omegas_zone(self):
        lines = render_csv(z_export()).splitlines(keepends=True)
        assert lines[2].endswith(",very small\n")
        lines[2] = lines[2].replace("very small", "large")
        with pytest.raises(ValueError, match="line 3"):
            parse_csv("".join(lines))


class TestJson:
    def test_document_shape(self):
        doc = json.loads(render_json(z_export()))
        assert set(doc) == {"points", "summary"}
        assert len(doc["points"]) == 61
        assert set(doc["points"][0]) == {"omega", "bf10", "log_bf10", "zone"}
        assert set(doc["summary"]) == {
            "max_bf10",
            "max_log_bf10",
            "argmax_omega",
            "crossings_bf1",
            "thresholds",
        }

    def test_numbers_survive_parsing_exactly(self):
        export = z_export()
        doc = json.loads(render_json(export))
        for row, point in zip(export.rows, doc["points"]):
            assert point["omega"] == row.omega
            assert point["bf10"] == row.bf10
            assert point["log_bf10"] == row.log_bf10
            assert point["zone"] == row.zone
        assert doc["summary"]["max_log_bf10"] == export.summary.max_log_bf10

    def test_per_study_series(self):
        doc = json.loads(render_json(combined_export()))
        assert [s["label"] for s in doc["per_study"]] == ["original", "replication"]
        assert len(doc["per_study"][0]["points"]) == 61

    def test_deterministic(self):
        assert render_json(combined_export()) == render_json(combined_export())


class TestSvg:
    def test_well_formed_xml(self):
        root = ET.fromstring(render_svg(combined_export()))
        assert root.tag.endswith("svg")

    def test_frame_and_bands(self):
        text = render_svg(z_export())
        assert 'viewBox="0 0 800 600"' in text
        for _, _, color in ZONE_BANDS:
            assert color in text
        assert MAIN_COLOR in text
        assert "stroke-dasharray" in text  # BF=1 reference line
        assert "max BF" in text

    def test_per_study_polylines_and_legend(self):
        single = render_svg(z_export())
        combined = render_svg(combined_export())
        assert single.count("<polyline") == 1
        assert combined.count("<polyline") == 3
        assert "original" in combined
        assert "replication" in combined
        assert "original" not in single

    def test_deterministic(self):
        assert render_svg(combined_export()) == render_svg(combined_export())


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN_SHA256))
def test_golden_bytes(name, fmt):
    text = render(readme_export(name), fmt)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SHA256[name, fmt]


MIXED_STUDIES = [
    Study(
        TestStatistic(Family.Z, 2.1), StudyDesign(Design.TWO_SAMPLE_Z, n1=40, n2=45), label="z"
    ),
    Study(TestStatistic(Family.T, 1.7, df1=29), StudyDesign(Design.ONE_SAMPLE_T, n=30), label="t"),
    Study(
        TestStatistic(Family.CHISQ, 9.2, df1=3),
        StudyDesign(Design.LIKELIHOOD_RATIO_CHISQ, n=200, k=3),
        label="chisq",
    ),
    F_STUDIES[0],
]


def shape_export(name):
    """Exports on the 61-point grid whose maxima and crossings take each path
    of the refinement: a threshold never crossed, one crossed twice, an argmax
    on the grid boundary, a combine over all four families and three
    thresholds on one curve."""
    if name == "no_crossing":
        return build_export(evaluate_bff(CHISQ_STUDY, GRID), thresholds=(1e3,))
    if name == "two_crossings":
        return build_export(combine(F_STUDIES, GRID), thresholds=(2.0,))
    if name == "boundary_max":
        study = Study(TestStatistic(Family.Z, 0.0), StudyDesign(Design.ONE_SAMPLE_Z, n=100))
        return build_export(evaluate_bff(study, GRID), thresholds=(0.2,))
    if name == "four_families":
        per_study = tuple(evaluate_bff(s, GRID) for s in MIXED_STUDIES)
        return build_export(
            combine(MIXED_STUDIES, GRID), thresholds=(0.2, 10.0), per_study=per_study
        )
    return build_export(evaluate_bff(Z_STUDY, GRID), thresholds=(0.2, 2.0, 50.0))


SHAPE_SHA256 = {
    ("boundary_max", "csv"): "06c4f8483780fe79910205bd72992b13b38c66512136e4fb0288042d38ea4783",
    ("boundary_max", "json"): "e429ac88a951af4ffee14d4fa47bf5ba9d85e4a32d48ed4600f520d6d19ce2ba",
    ("boundary_max", "svg"): "f474f09994eb583c88d91925f8120f7e3336be3b96121b52105b108c81992ab2",
    ("four_families", "csv"): "23e9ae5df4001d47a5d6e78365c3b1af4533c0bed777db2568083f6a4622ce71",
    ("four_families", "json"): "7277d28f310633f83b029c269b26a30197bcd3c8789ac3a609c0235f8daab952",
    ("four_families", "svg"): "fffb4b9b86a3e25330ac4661c6b727fb118cd6cb7475f173dfaf67965968936d",
    ("no_crossing", "csv"): "784f8914db6497f4355169b5ff09fa76759f8e4e217a5c137145e2ae0ae65bbd",
    ("no_crossing", "json"): "a2f1a00555ac335d91ae7720dee83af6414aa8ef5b9b78b35bc87f591f483ef8",
    ("no_crossing", "svg"): "c81efe8bd8b768a96e7b53248ac88d613065b1bc27c6e7a9a61d9b09f134f7bd",
    ("three_thresholds", "csv"): "310a2e7ec90e91d8ddf26d0c2fd2ad5dc686dda74fec54ef7eb3ccdd5f7a2e0e",
    ("three_thresholds", "json"): "93ac49aa869f421157d980cf31763c7205e5e45fa7de5ff6ab2fb5d4628eb69f",
    ("three_thresholds", "svg"): "b8de2a0adbd062f18177d22febe926acba6d36dad44bef1030af451e02c2f702",
    ("two_crossings", "csv"): "7d6857e32ed322d3cb26aea52c47c13ce85b984abd0773357fa7befde949e9a4",
    ("two_crossings", "json"): "0165540e21911c4e3fa14eabe954b32bc30dccf33cb505169d04632c27c7cb62",
    ("two_crossings", "svg"): "7814dda3e77282142dea25f66b2aca35697bb90931099053f63258f69bab08c5",
}


@pytest.mark.parametrize("name, fmt", sorted(SHAPE_SHA256))
def test_golden_bytes_of_refinement_shapes(name, fmt):
    text = render(shape_export(name), fmt)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SHAPE_SHA256[name, fmt]


# every 10th case of the recorded batch pool through combine + build_export, its
# csv, json and svg renders hashed in one SHA-256, in case order
BATCH = Path(__file__).resolve().parents[1] / "bench" / "refs" / "batch.json"
BATCH_EVERY_10TH_SHA256 = "4066aef8207217e1bd537b9253fe4dd9dc8cd1b108103eb516c609a75af67d4b"


def batch_study(spec):
    stat = TestStatistic(Family(spec["family"]), spec["value"], spec.get("df1"), spec.get("df2"))
    fields = {f: spec.get(f) for f in ("n", "n1", "n2", "k")}
    return Study(stat, StudyDesign(Design(spec["design"]), **fields), spec.get("label", ""))


def test_golden_bytes_of_the_batch_pool():
    digest = hashlib.sha256()
    for case in json.loads(BATCH.read_text(encoding="utf-8"))["cases"][::10]:
        g = case["grid"]
        curve = combine([batch_study(s) for s in case["studies"]], EffectGrid(**g))
        export = build_export(curve, thresholds=tuple(case["thresholds"]))
        for fmt in ("csv", "json", "svg"):
            digest.update(render(export, fmt).encode("utf-8"))
    assert digest.hexdigest() == BATCH_EVERY_10TH_SHA256


class TestEmit:
    def test_writes_rendered_text(self, tmp_path):
        export = z_export()
        for fmt in ["csv", "json", "svg"]:
            path = tmp_path / f"curve.{fmt}"
            text = emit(export, fmt, str(path))
            assert path.read_text(encoding="utf-8") == text
            assert text == render(export, fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(z_export(), "pdf")
