"""End-to-end tests of the command line interface."""

import json
import math
import re
import subprocess
import sys

import pytest

import bff.cli as cli
from bff.exports import parse_csv, render_csv
from bff.numerics import IntegrationError

F_META = {
    "studies": [
        {
            "family": "f",
            "value": 4.05,
            "df1": 2,
            "df2": 82,
            "design": "linear_model_f",
            "n": 85,
            "k": 2,
            "label": "original",
        },
        {
            "family": "f",
            "value": 1.99,
            "df1": 2,
            "df2": 137,
            "design": "linear_model_f",
            "n": 140,
            "k": 2,
            "label": "replication",
        },
    ]
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_meta(tmp_path, doc=F_META, name="studies.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestSingleStudyCommands:
    def test_z_example_summary(self, capsys):
        code, out, err = run_cli(capsys, "z", "--stat", "2", "--n", "100")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "max BF 2.90 at omega 0.153"
        assert lines[1] == "odds at maximum: 2.90:1 for H1"
        assert "BF=1 crossing at omega 0.400" in lines

    def test_chisq_example_summary(self, capsys):
        code, out, err = run_cli(
            capsys,
            "chisq",
            "--stat",
            "12.65",
            "--df",
            "6",
            "--n",
            "707",
            "--mapping",
            "multinomial",
            "--threshold",
            "0.0025",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "max BF 3.07 at omega 0.035"
        assert "BF=1 crossing at omega 0.068" in lines
        assert "BF=0.0025 crossing at omega 0.192" in lines

    def test_zero_statistic_degenerates_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "z", "--stat", "0", "--n", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "max BF 1.00 at omega 0.000"
        assert not any("BF=1 crossing" in l for l in lines)

    def test_t_command(self, capsys):
        code, out, err = run_cli(
            capsys, "t", "--stat", "2.5", "--df", "20", "--n", "21", "--steps", "101"
        )
        assert code == 0
        assert out.startswith("max BF ")

    def test_f_command(self, capsys):
        code, out, err = run_cli(
            capsys,
            "f",
            "--stat",
            "4.05",
            "--df1",
            "2",
            "--df2",
            "82",
            "--n",
            "85",
            "--steps",
            "101",
        )
        assert code == 0
        assert out.startswith("max BF ")

    def test_csv_payload_follows_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "z", "--stat", "2", "--n", "100", "--steps", "11"
        )
        assert code == 0
        assert "\n\nomega,bf10,log_bf10,zone\n" in out
        data = [
            l
            for l in out.split("\n\n", 1)[1].splitlines()
            if l and not l.startswith("#")
        ]
        assert len(data) == 12  # header plus 11 grid rows

    def test_grid_flags(self, capsys):
        code, out, err = run_cli(
            capsys,
            "z",
            "--stat",
            "2",
            "--n",
            "100",
            "--omega-max",
            "0.5",
            "--steps",
            "11",
        )
        assert code == 0
        last_row = [
            l
            for l in out.split("\n\n", 1)[1].splitlines()
            if l and not l.startswith("#")
        ][-1]
        assert last_row.startswith("0.5,")

    def test_oracle_flag_reports_small_discrepancy(self, capsys):
        code, out, err = run_cli(
            capsys, "z", "--stat", "2", "--n", "100", "--steps", "41", "--oracle"
        )
        assert code == 0
        match = re.search(r"oracle max \|dlog BF\| (\S+) over (\d+) grid points", out)
        assert match, out
        assert float(match.group(1)) <= 1e-8


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["chisq", "--stat", "5", "--df", "3", "--n", "100"])
        assert exc.value.code == 2
        assert "--mapping" in capsys.readouterr().err

    def test_conflicting_sample_sizes(self, capsys):
        code, out, err = run_cli(
            capsys, "z", "--stat", "2", "--n", "100", "--n1", "50", "--n2", "50"
        )
        assert code == 2
        assert "error:" in err

    def test_incomplete_group_sizes(self, capsys):
        code, out, err = run_cli(capsys, "z", "--stat", "2", "--n1", "50")
        assert code == 2

    def test_nonpositive_threshold(self, capsys):
        code, out, err = run_cli(
            capsys, "z", "--stat", "2", "--n", "100", "--threshold", "-1"
        )
        assert code == 2
        assert "threshold" in err

    def test_missing_study_file(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "combine", "--studies", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "cannot read study file" in err

    def test_compute_error_maps_to_one(self, capsys, monkeypatch):
        def boom(study, grid):
            raise IntegrationError("synthetic failure")

        monkeypatch.setattr(cli, "evaluate_bff", boom)
        code, out, err = run_cli(capsys, "z", "--stat", "2", "--n", "100")
        assert code == 1
        assert "compute error: synthetic failure" in err


class TestNonFiniteInput:
    """A NaN or infinity in the input is a usage error, never a silent result."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["--stat", "nan"], "finite number"),
            (["--stat", "inf"], "finite number"),
            (["--stat", "2", "--omega-max", "inf"], "finite"),
            (["--stat", "2", "--omega-max", "nan"], "finite"),
            (["--stat", "2", "--threshold", "nan"], "threshold"),
            (["--stat", "2", "--threshold", "inf"], "threshold"),
        ],
        ids=["stat-nan", "stat-inf", "omega-max-inf", "omega-max-nan",
             "threshold-nan", "threshold-inf"],
    )
    def test_flag_rejected(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, "z", *argv, "--n", "100")
        assert code == 2
        assert needle in err
        assert out == ""

    @pytest.mark.parametrize("value", [math.nan, math.inf, True], ids=["nan", "inf", "true"])
    def test_study_file_value_rejected(self, capsys, tmp_path, value):
        doc = json.loads(json.dumps(F_META))
        doc["studies"][1]["value"] = value
        path = write_meta(tmp_path, doc)
        code, out, err = run_cli(capsys, "combine", "--studies", path)
        assert code == 2
        assert "studies[1]" in err
        assert out == ""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_curve_is_a_compute_error(self, capsys):
        # tau2 = n omega^2 / 2 overflows above omega ~ 1e154, and the closed
        # form is NaN there
        code, out, err = run_cli(
            capsys, "z", "--stat", "2", "--n", "100", "--omega-max", "1e200", "--steps", "11"
        )
        assert code == 1
        assert "not finite" in err
        assert out == ""


class TestLinearSpaceSaturation:
    """ln BF ~ 796 is finite; BF10 itself exceeds the largest double."""

    ARGV = ["z", "--stat", "40", "--n", "1000"]

    def test_csv_writes_inf_and_round_trips(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == 0, err
        assert out.splitlines()[0] == "max BF inf at omega 1.000"
        text = out.split("\n\n", 1)[1]
        export = parse_csv(text)
        assert export.summary.max_bf10 == math.inf
        assert math.isfinite(export.summary.max_log_bf10)
        assert export.summary.max_log_bf10 > 709.79
        assert any(r.bf10 == math.inf for r in export.rows)
        assert all(math.isfinite(r.log_bf10) for r in export.rows)
        assert render_csv(export) == text

    def test_json_writes_null_and_stays_valid(self, capsys, tmp_path):
        out_path = tmp_path / "saturated.json"
        code, out, err = run_cli(capsys, *self.ARGV, "--format", "json",
                                 "--out", str(out_path))
        assert code == 0, err
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["summary"]["max_bf10"] is None
        assert doc["summary"]["max_log_bf10"] > 709.79
        saturated = [p for p in doc["points"] if p["bf10"] is None]
        assert saturated
        assert all(p["log_bf10"] > 709.78 for p in saturated)
        assert doc["points"][0]["bf10"] == 1.0


class TestStudyFiles:
    def test_combined_meta_analysis(self, capsys, tmp_path):
        path = write_meta(tmp_path)
        code, out, err = run_cli(
            capsys, "combine", "--studies", path, "--threshold", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "max BF 5.75 at omega 0.139"
        assert "BF=1 crossing at omega 0.310" in lines
        assert "BF=2 crossing at omega 0.050" in lines
        assert "BF=2 crossing at omega 0.261" in lines

    def test_per_study_json_export(self, capsys, tmp_path):
        path = write_meta(tmp_path)
        out_path = tmp_path / "meta.json"
        code, out, err = run_cli(
            capsys,
            "combine",
            "--studies",
            path,
            "--per-study",
            "--format",
            "json",
            "--out",
            str(out_path),
            "--steps",
            "61",
        )
        assert code == 0
        assert f"wrote json to {out_path}" in out
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert [s["label"] for s in doc["per_study"]] == ["original", "replication"]

    def test_file_grid_applies_and_flags_override(self, capsys, tmp_path):
        doc = dict(F_META, grid={"min": 0.0, "max": 0.3, "steps": 7})
        path = write_meta(tmp_path, doc)
        code, out, err = run_cli(capsys, "combine", "--studies", path)
        assert code == 0
        rows = [
            l
            for l in out.split("\n\n", 1)[1].splitlines()
            if l and not l.startswith("#")
        ]
        assert len(rows) == 8  # header plus the file grid's 7 points
        assert float(rows[-1].split(",")[0]) == 0.3

        code, out, err = run_cli(capsys, "combine", "--studies", path, "--steps", "9")
        rows = [
            l
            for l in out.split("\n\n", 1)[1].splitlines()
            if l and not l.startswith("#")
        ]
        assert len(rows) == 10

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.update(extra=1), "unknown top-level keys"),
            (lambda d: d.update(studies=[]), "'studies' must be a nonempty array"),
            (
                lambda d: d["studies"][0].update(design="anova"),
                "studies[0].design",
            ),
            (
                lambda d: d["studies"][1].update(bogus=3),
                "studies[1] has unknown fields",
            ),
            (lambda d: d["studies"][0].pop("value"), "studies[0].value"),
            (lambda d: d["studies"][0].update(n=None), "studies[0]"),
        ],
    )
    def test_schema_errors_name_the_field(self, capsys, tmp_path, mutate, needle):
        doc = json.loads(json.dumps(F_META))
        mutate(doc)
        path = write_meta(tmp_path, doc)
        code, out, err = run_cli(capsys, "combine", "--studies", path)
        assert code == 2
        assert needle in err

    def test_invalid_json_rejected(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, out, err = run_cli(capsys, "combine", "--studies", str(path))
        assert code == 2
        assert "not valid JSON" in err


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path):
        path = write_meta(tmp_path)
        outputs = []
        for name in ["a.svg", "b.svg"]:
            out_path = tmp_path / name
            code, out, err = run_cli(
                capsys,
                "combine",
                "--studies",
                path,
                "--per-study",
                "--format",
                "svg",
                "--out",
                str(out_path),
                "--steps",
                "61",
            )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bff.cli", "z", "--stat", "2", "--n", "100",
             "--steps", "21"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("max BF ")
