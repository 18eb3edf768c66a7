"""Smoke tests of the driver scripts: each runs at a small size and
exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce_tables.py", "--nmax", "3"],
        ["export_posets.py", "--n", "2", "--k", "2", "--outdir", "{tmp}"],
        ["run_verification.py", "--n", "2"],
    ],
)
def test_script_runs(argv, tmp_path):
    script, *args = argv
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [arg.format(tmp=tmp_path) for arg in args],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stdout + result.stderr
