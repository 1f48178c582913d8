"""Smoke tests: each worked example in scripts/ runs and prints its headline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script -> the headline line it prints, the documented model's values
HEADLINES = {
    "z_example.py": "max BF 2.90 at omega 0.153",
    "blood_type_chisq.py": "max BF 3.07 at omega 0.035",
    "replication_f_meta.py": "max BF 5.75 at omega 0.139",
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("script", sorted(HEADLINES))
def test_script_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert HEADLINES[script] in proc.stdout.splitlines()
    stem = script.removesuffix(".py")
    for fmt in ("csv", "svg"):
        assert (tmp_path / f"{stem}.{fmt}").stat().st_size > 0
