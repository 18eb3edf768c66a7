"""Smoke tests of the driver scripts: each runs at a small size and
exits 0.  reproduce_tables.py also fails on a bad size or a mismatch."""

import importlib.util
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


def test_reproduce_tables_rejects_nmax_out_of_range(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py"), "--nmax", "9"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 2
    assert result.stdout == ""


def test_reproduce_tables_fails_on_a_mismatch(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--nmax", "3"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(script, "whitney_first_kind", lambda n, l: 0)
    assert script.main(["--nmax", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("MISMATCH n=2 Whitney numbers of the first kind")
    assert "whitney first" not in captured.out
