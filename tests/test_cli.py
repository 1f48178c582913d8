"""End-to-end tests of the command line interface."""

import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bff.cli as cli
import bff.oracle
from bff.bayes_factors import log_bf
from bff.curves import EffectGrid, _StudySum, evaluate_bff
from bff.exports import parse_csv, render_csv
from bff.numerics import IntegrationError, SeriesError

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


@contextmanager
def alarm(seconds):
    """Raise TimeoutError in the block once it runs past seconds; a hang cannot pass."""

    def hung(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_guarded(argv, seconds=10):
    """cli.main(argv) under an alarm, with every warning an error: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(), alarm(seconds):
        warnings.simplefilter("error")
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


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

    def test_oracle_on_readme_chisq_example(self, capsys):
        # the README command at its largest omegas, tau2 = 707 omega^2 up to 707
        code, out, err = run_cli(
            capsys, "chisq", "--stat", "12.65", "--df", "6", "--n", "707",
            "--mapping", "multinomial", "--omega-min", "0.9", "--omega-max", "1.0",
            "--steps", "3", "--oracle",
        )
        assert code == 0, err
        match = re.search(r"oracle max \|dlog BF\| (\S+) over 3 grid points", out)
        assert match, out
        assert float(match.group(1)) <= 1e-9

    def test_oracle_on_readme_t_example(self, capsys):
        code, out, err = run_cli(
            capsys, "t", "--stat", "2.5", "--df", "20", "--n1", "11", "--n2", "11", "--oracle"
        )
        assert code == 0, err
        match = re.search(r"oracle max \|dlog BF\| (\S+) over (\d+) grid points", out)
        assert match, out
        assert float(match.group(1)) <= 1e-9

    @pytest.mark.parametrize(
        "argv",
        [
            # the posterior of the chi-squared non-centrality lies past the prior's end
            ("chisq", "--stat", "1000", "--df", "1", "--n", "100", "--mapping", "multinomial"),
            # the posterior of sqrt(lam) is 0.3% of its centre wide
            ("chisq", "--stat", "1e5", "--df", "3", "--n", "100", "--mapping", "multinomial"),
            # lam near 2.4e5 at the smallest omega: the Poisson series' own mode lies past
            # max_terms, and the Bessel ratio needs no series there
            ("chisq", "--stat", "1e6", "--df", "3", "--n", "100", "--mapping", "multinomial"),
            # the t scale posterior is 1e-4 wide on both sides of its peak
            ("t", "--stat", "2.5", "--df", "99999998", "--n1", "50000000", "--n2", "50000000"),
        ],
        ids=["chisq-past-prior-end", "chisq-1e5", "chisq-1e6", "t-on-1e8-df"],
    )
    def test_oracle_where_the_posterior_is_far_or_narrow(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--oracle")
        assert code == 0, err
        match = re.search(r"oracle max \|dlog BF\| (\S+) over (\d+) grid points", out)
        assert match, out
        assert float(match.group(1)) <= 1e-9

    def test_oracle_skips_an_omega_whose_tau2_underflows(self, capsys):
        # n = 1 gives c = 0.5: omega 2.2e-162 has tau2 = 0, the point null
        code, out, err = run_cli(
            capsys, "z", "--stat", "2", "--n", "1", "--omega-max", "4.4e-162",
            "--steps", "3", "--oracle",
        )
        assert code == 0, err
        assert "oracle max |dlog BF|" in out

    def test_oracle_on_zero_chisq_statistic_names_the_ratio(self, capsys):
        code, out, err = run_cli(
            capsys, "chisq", "--stat", "0", "--df", "4", "--n", "100",
            "--mapping", "multinomial", "--steps", "5", "--oracle",
        )
        assert code == 1
        assert "likelihood ratio undefined" in err


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

        monkeypatch.setattr(cli, "combine", boom)
        code, out, err = run_cli(capsys, "z", "--stat", "2", "--n", "100")
        assert code == 1
        assert "compute error: synthetic failure" in err

    def test_oracle_failure_maps_to_one(self, capsys, monkeypatch):
        # the CLI looks the oracle up when --oracle runs, so the patch applies
        def boom(stat, tau2):
            raise SeriesError("synthetic series failure")

        monkeypatch.setattr(bff.oracle, "log_bf_quadrature", boom)
        code, out, err = run_cli(
            capsys, "z", "--stat", "2", "--n", "100", "--steps", "11", "--oracle"
        )
        assert code == 1
        assert "compute error: synthetic series failure" in err

    def test_oracle_disagreement_exits_one(self, capsys, monkeypatch):
        def off(stat, tau2):
            return log_bf(stat, tau2) + 1e-3

        monkeypatch.setattr(bff.oracle, "log_bf_quadrature", off)
        code, out, err = run_cli(
            capsys, "z", "--stat", "2", "--n", "100", "--steps", "11", "--oracle"
        )
        assert code == 1
        assert "oracle max |dlog BF| 1.000e-03 over 10 grid points" in out
        assert "compute error: oracle disagrees with the closed form at omega 0.1:" in err


class TestIntegersPastTheLargestDouble:
    """An integer too large for a double is bad input (exit 2), not a compute error."""

    def test_sample_size_flag(self, capsys):
        code, out, err = run_cli(capsys, "z", "--stat", "2", "--n", str(10**400))
        assert code == 2
        assert "n is larger than the largest double" in err

    def test_study_file_df(self, capsys, tmp_path):
        doc = json.loads(json.dumps(F_META))
        doc["studies"][0]["df1"] = 10**400
        code, out, err = run_cli(capsys, "combine", "--studies", write_meta(tmp_path, doc))
        assert code == 2
        assert "studies[0]: f statistic's df1 is larger than the largest double" in err

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_study_file_value(self, capsys, tmp_path, value):
        doc = json.loads(json.dumps(F_META))
        doc["studies"][1]["value"] = value
        code, out, err = run_cli(capsys, "combine", "--studies", write_meta(tmp_path, doc))
        assert code == 2
        assert "studies[1].value is larger than the largest double" in err

    def test_group_sizes_whose_product_is_past_it(self, capsys):
        # each size fits in a double; only n1 n2 does not, and tau2's scale does
        n = str(10**200)
        code, out, err = run_cli(
            capsys, "t", "--stat", "2", "--df", "10", "--n1", n, "--n2", n, "--steps", "5"
        )
        assert code == 0, err


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

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, True, 10**400], ids=["nan", "inf", "true", "huge-int"]
    )
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
        # ln BF10 grows like z^2 / 2 ~ 1e400 here, which no double holds
        code, out, err = run_cli(capsys, "z", "--stat", "1e200", "--n", "100")
        assert code == 1
        assert "not finite" in err
        assert out == ""

    def test_z_curve_near_the_omega_limit_is_finite(self):
        # tau2 z^2 overflows at omega 1.8e153, but ln BF10 ~ -1061 is finite
        proc = subprocess.run(
            [sys.executable, "-m", "bff.cli", "z", "--stat", "2", "--n", "100",
             "--omega-max", "1.8e153", "--steps", "5"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "nan" not in proc.stdout.lower()
        assert "RuntimeWarning" not in proc.stderr

    def test_omega_whose_tau2_underflows_is_the_point_null_limit(self):
        # n = 1 gives c = 0.5: omega 2.2e-162 has omega^2 = 4.9e-324 and tau2 = 0
        proc = subprocess.run(
            [sys.executable, "-m", "bff.cli", "z", "--stat", "2", "--n", "1",
             "--omega-max", "4.4e-162", "--steps", "3"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "2.1999999999999999e-162,1,0,very small" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_omega_overflowing_tau2_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bff.cli", "z", "--stat", "2", "--n", "100",
             "--omega-max", "1e200", "--steps", "5"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        # the largest omega with n omega^2 / 2 finite, for n = 100
        assert "largest usable omega is 1.896150381621835e+153" in proc.stderr


class TestExtremeFiniteCurves:
    """Curves that are finite in log space, at the edges of linear space."""

    def test_underflowed_maximum_prints_saturated_odds(self, capsys):
        # ln BF10 ~ -1055 everywhere on this grid, so BF10 underflows to 0
        code, out, err = run_cli(
            capsys, "z", "--stat", "0", "--n", "10000",
            "--omega-min", "1e150", "--omega-max", "1e151", "--steps", "3",
        )
        assert code == 0, err
        assert out.splitlines()[1] == "odds at maximum: 1:inf against H1"

    def test_t_statistic_whose_square_overflows(self, capsys):
        code, out, err = run_cli(capsys, "t", "--stat", "1e200", "--df", "10", "--n", "100")
        assert code == 0, err
        match = re.fullmatch(r"max BF (\S+) at omega 1\.000", out.splitlines()[0])
        assert match, out
        # the large-statistic limit at omega = 1, where tau2 = 50: 51^4 * 551
        assert math.isclose(float(match.group(1)), 51**4 * 551, rel_tol=1e-12)


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

    @pytest.mark.parametrize("flags, evaluations", [((), 4), (("--per-study",), 6)])
    def test_per_study_series_cost_one_evaluation_each(
        self, capsys, tmp_path, monkeypatch, flags, evaluations
    ):
        # the combined curve makes 4 evaluations; each per-study series adds its grid alone
        calls = [0]
        original = _StudySum._columns

        def counted(self, omegas):
            calls[0] += 1
            return original(self, omegas)

        monkeypatch.setattr(_StudySum, "_columns", counted)
        code, out, err = run_cli(capsys, "combine", "--studies", write_meta(tmp_path), *flags)
        assert code == 0
        assert calls[0] == evaluations

    def test_per_study_series_are_the_studies_curves(self, capsys, tmp_path):
        path = write_meta(tmp_path)
        code, out, err = run_cli(capsys, "combine", "--studies", path, "--per-study",
                                 "--format", "json", "--steps", "61")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        studies, _ = cli.parse_study_file(json.dumps(F_META))
        for series, study in zip(doc["per_study"], studies):
            curve = evaluate_bff(study, EffectGrid(steps=61))
            assert series["points"] == [list(p) for p in curve.points]

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

    def test_serving_path_loads_no_verification_code(self, tmp_path):
        # a fresh interpreter: this one has long since imported the oracle
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        script = "\n".join([
            "import json, sys",
            "import bff, bff.cli",
            "names = ('scipy', 'bff.oracle', 'bff.numerics', 'bff.priors')",
            "after_import = [m for m in names if m in sys.modules]",
            f"bff.cli.main(['z', '--stat', '2', '--n', '100', '--out', {str(tmp_path / 'z.csv')!r}])",
            "print(json.dumps([after_import, [m for m in names if m in sys.modules]]))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]


class TestExtremeInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            # a crossing near 1e65, where adjacent doubles lie far more than 1e-6 apart
            "z --stat 30 --n 2 --omega-min 1e64 --omega-max 1e66 --steps 5",
            "t --stat 1e300 --df 30 --n 1 --omega-max 1e12",
            "f --stat 1e200 --df1 2 --df2 40 --n 1 --omega-max 1e12 --steps 2",
            "z --stat=-1e12 --n 1 --omega-max 1e100 --steps 3",
        ],
    )
    def test_refinement_ends_far_from_zero(self, argv):
        code, out, err = run_guarded(argv.split())
        assert code == 0, err
        assert out.startswith("max BF ")

    @pytest.mark.parametrize(
        "argv",
        [
            "chisq --stat=-0 --df 3 --n 100 --mapping multinomial --steps 5",
            "f --stat=-0 --df1 2 --df2 137 --n 140 --steps 5",
            "t --stat=-0 --df 20 --n1 11 --n2 11 --steps 5",
            "z --stat=-0 --n 100 --steps 5",
        ],
    )
    def test_negative_zero_statistic_prints_zero_not_minus_zero(self, argv, tmp_path):
        # ln BF10 at omega = 0 is 0.0, never -0.0, in every format and per-study series
        family = argv.split()[0]
        code, out, err = run_guarded(argv.split())
        assert code == 0, err
        assert "\n0,1,0,very small\n" in out
        study = {"chisq": {"df1": 3, "design": "multinomial_chisq", "n": 100, "k": 3},
                 "f": {"df1": 2, "df2": 137, "design": "linear_model_f", "n": 140, "k": 2},
                 "t": {"df1": 20, "design": "two_sample_t", "n1": 11, "n2": 11},
                 "z": {"design": "one_sample_z", "n": 100}}[family]
        path = write_meta(tmp_path, {"studies": [dict(study, family=family, value=-0.0)] * 2})
        for fmt in ("csv", "json", "svg"):
            code, out, err = run_guarded(
                ["combine", "--studies", path, "--per-study", "--format", fmt, "--steps", "5"]
            )
            assert code == 0, err
            assert not re.search(r"(?<![\w.])-0(?![\w.])", out)

    def test_chisq_kernel_near_the_largest_tau2(self):
        # tau2 h overflows, h tau2 / (tau2 + 1) does not
        argv = "chisq --stat 100 --df 2 --n 1 --mapping lrt --omega-max 1.3e154 --steps 3"
        code, out, err = run_guarded(argv.split())
        assert code == 0, err
        last = parse_csv(out.split("\n\n", 1)[1]).rows[-1]
        # the closed form evaluated in 50-digit arithmetic
        assert last.log_bf10 == pytest.approx(-1365.5100487094778, rel=1e-12)

    def test_oracle_at_subnormal_tau2(self):
        # tau2 = omega^2 / 2 is about 1e-323 at the top of the grid
        argv = "z --stat 2 --n 1 --omega-max 4.4e-162 --steps 3 --oracle"
        code, out, err = run_guarded(argv.split(), seconds=60)
        assert code == 0, err
        worst = float(re.search(r"oracle max \|dlog BF\| (\S+)", out).group(1))
        assert worst <= 1e-9

    def test_huge_z_is_a_named_compute_error(self):
        # z^2 overflows; ln BF10 is infinite for every tau2 > 0 and exactly 0 at tau2 = 0
        code, out, err = run_guarded("z --stat 1e200 --n 100 --steps 5".split())
        assert code == 1
        assert "not finite" in err

    def test_t_kernel_where_c_g_overflows(self):
        argv = ("t --stat 3.7e204 --df 1000000000 --n1 100 --n2 100 --omega-max 1.8e153"
                " --steps 3")
        code, out, err = run_guarded(argv.split())
        assert code == 0, err
        last = parse_csv(out.split("\n\n", 1)[1]).rows[-1]
        # the closed form evaluated in 50-digit arithmetic
        assert last.log_bf10 == pytest.approx(354492743826.14847, rel=1e-12)


def _text(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


# magnitudes from 1e-320 (subnormal) to 1.7e308, mostly positive, and the specials
MAGNITUDES = st.floats(-320.0, math.log10(1.7e308)).map(lambda e: 10.0**e)
NUMBERS = st.one_of(
    MAGNITUDES,
    st.floats(0.0, 10.0),
    MAGNITUDES.map(lambda x: -x),
    st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf)),
)
COUNTS = st.one_of(st.integers(-2, 50), MAGNITUDES.map(lambda x: max(int(x), 1)))
SIZE_FLAGS = (("--n",), ("--n1", "--n2"), ("--n1",), ("--n", "--n1", "--n2"), ())


@st.composite
def statistic_argvs(draw):
    """argv for one statistic command over every documented flag but --oracle and --out."""
    command = draw(st.sampled_from(("z", "t", "chisq", "f")))
    flags = {"--stat": draw(NUMBERS)}
    two_sample = SIZE_FLAGS[:2] if command in ("z", "t") else SIZE_FLAGS[:1]
    for name in draw(st.sampled_from(two_sample) | st.sampled_from(SIZE_FLAGS)):
        flags[name] = draw(COUNTS)
    dfs = {"t": ("--df",), "chisq": ("--df",), "f": ("--df1", "--df2")}.get(command, ())
    for name in dfs:
        flags[name] = draw(COUNTS)
    if command == "chisq":
        flags["--mapping"] = draw(st.sampled_from(("multinomial", "lrt")))
    for name in ("--omega-min", "--omega-max", "--threshold"):
        if draw(st.booleans()):
            flags[name] = draw(NUMBERS)
    if draw(st.booleans()):
        flags["--steps"] = draw(st.integers(-1, 2000))
    # --flag=value keeps a negative value from reading as a flag
    return [command] + [f"{name}={_text(value)}" for name, value in flags.items()]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(statistic_argvs())
@example(["t", "--stat=3.7e204", "--df=1000000000", "--n1=100", "--n2=100",
          "--omega-max=1.8e153", "--steps=3"])
# degrees of freedom near the largest double: ln BF10 lies past it
@example(["f", "--stat=0.0", "--n=44", f"--df1={10**308}", f"--df2={10**308}"])
# z^2 overflows while tau2 = 0 at omega = 0: a kernel that formed 0 * inf would warn here
@example(["z", "--stat=1e200", "--n=100", "--steps=5"])
def test_every_argv_ends_in_output_or_a_named_error(argv):
    code, out, err = run_guarded(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert "nan" not in out
        text = out.split("\n\n", 1)[1]
        assert render_csv(parse_csv(text)) == text


# derandomized: random draws reach the two oracle faults marked xfail below in about a
# third of runs, and a tier-1 gate must not pass or fail by chance
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(statistic_argvs())
# a chi-squared total that came out 0, a t window end at inf and an exp that overflows near
# BF10 = 1: each once left the oracle as "math domain error", a usage error or "math range error"
@example(["chisq", "--stat=3", "--df=10000000000000000000", "--n=100", "--mapping=multinomial"])
@example(["t", "--stat=1e67", f"--df={10**140}", "--n=100"])
@example(["t", "--stat=-2.9e-230", f"--df={10**44}", "--n=1"])
# a quadrature that runs out of subdivisions, and an F null density whose lgamma overflows
@example(["t", "--stat=3", f"--df={10**30}", "--n=100"])
@example(["f", "--stat=1.0", "--n=1", "--df1=1", f"--df2={int(1e308)}"])
# the chi-squared window, 12 + sqrt(k + 1) sds each side, hides a peak 1 sd wide from the
# quadrature's nodes, and ln w in the F scale route cancels at a = (k + m)/2 = 5e154: both
# return a wrong value, so the oracle disagrees with the closed form (exit 1, unnamed)
@example(["chisq", "--stat=1.0", "--n=1", "--df=10000000", "--mapping=multinomial"]).xfail(
    raises=AssertionError, reason="the chi-squared window hides its peak past 1e6 df")
@example(["f", "--stat=1.0", "--n=1", f"--df1={10**155}", "--df2=1"]).xfail(
    raises=AssertionError, reason="ln w of the F scale route cancels at huge df")
def test_every_oracle_argv_ends_in_agreement_or_a_named_error(argv):
    raised = []
    quadrature = bff.oracle.log_bf_quadrature

    def recorded(*args):
        try:
            return quadrature(*args)
        except Exception as e:
            raised.append(e)
            raise

    bff.oracle.log_bf_quadrature = recorded
    try:
        code, out, err = run_guarded(argv + ["--steps=5", "--oracle"], seconds=60)
    finally:
        bff.oracle.log_bf_quadrature = quadrature
    assert "Traceback" not in err
    assert "math domain error" not in err and "math range error" not in err
    # the oracle fails only by name, and never as a usage error
    assert all(isinstance(e, (IntegrationError, SeriesError)) for e in raised)
    if code == 0:
        assert "oracle max |dlog BF|" in out
    elif code == 1:
        assert raised or "compute error: ln BF10 is not finite" in err
    else:
        assert code == 2 and "error" in err and not raised


# each design's family and sample-size fields; k is the statistic's df1
DESIGN_FIELDS = {
    "one_sample_z": ("z", ("n",)), "two_sample_z": ("z", ("n1", "n2")),
    "one_sample_t": ("t", ("n",)), "two_sample_t": ("t", ("n1", "n2")),
    "multinomial_chisq": ("chisq", ("n",)), "likelihood_ratio_chisq": ("chisq", ("n",)),
    "linear_model_f": ("f", ("n",)),
}
FAMILY_DFS = {"z": (), "t": ("df1",), "chisq": ("df1",), "f": ("df1", "df2")}
INT_FIELDS = ("df1", "df2", "n", "n1", "n2", "k")


@st.composite
def study_records(draw):
    """One study-file record over every family and design, with the argv property's values.

    Most records are well formed; one in ten reports another family, and one
    in ten carries integer fields its design or family does not take.
    """
    design = draw(st.sampled_from(sorted(DESIGN_FIELDS)))
    family, sizes = DESIGN_FIELDS[design]
    if draw(st.integers(0, 9)) == 0:
        family = draw(st.sampled_from(sorted(FAMILY_DFS)))
    record = {"family": family, "design": design, "value": draw(NUMBERS)}
    for name in FAMILY_DFS[family] + sizes:
        record[name] = draw(COUNTS)
    if family in ("chisq", "f"):
        record["k"] = record["df1"]
    if draw(st.integers(0, 9)) == 0:
        for name in draw(st.sets(st.sampled_from(INT_FIELDS), min_size=1)):
            record[name] = draw(COUNTS)
    return record


@st.composite
def study_files(draw):
    doc = {"studies": draw(st.lists(study_records(), min_size=1, max_size=3))}
    if draw(st.booleans()):
        grid = {key: draw(NUMBERS) for key in draw(st.sets(st.sampled_from(("min", "max"))))}
        if draw(st.booleans()):
            grid["steps"] = draw(st.integers(-1, 300))
        doc["grid"] = grid
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(study_files())
# two group sizes whose product is past the largest double
@example({"studies": [{"family": "t", "design": "two_sample_t", "value": 2.0, "df1": 10,
                       "n1": 10**200, "n2": 10**200}]})
# one study's ln BF10 is +inf and the other's -inf, so their sum is nan
@example({"studies": [
    {"family": "z", "design": "one_sample_z", "value": 1e155, "n": 1},
    {"family": "chisq", "design": "likelihood_ratio_chisq", "value": 1.0, "df1": 10**306,
     "n": 10**157, "k": 10**306},
]})
# three finite ln BF10 whose sum is past the largest double
@example({"studies": [
    {"family": "chisq", "design": "likelihood_ratio_chisq", "value": 1.3335214321633240e308,
     "df1": 1, "n": n, "k": 1}
    for n in (5, 12, 16)
]})
def test_every_study_file_ends_in_output_or_a_named_error(tmp_path, doc):
    path = write_meta(tmp_path, doc)
    code, out, err = run_guarded(["combine", "--studies", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # without --oracle, the one compute failure is a curve that is not finite
    assert code != 1 or "compute error: ln BF10 is not finite" in err
    if code == 0:
        assert "nan" not in out
        text = out.split("\n\n", 1)[1]
        assert render_csv(parse_csv(text)) == text
