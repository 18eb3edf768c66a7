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


def _export(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "export_posets.py"), "--n", "5"]
        + ["--outdir", str(tmp_path), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )


def test_export_posets_long_writes_every_file(tmp_path):
    result = _export(tmp_path, "--long")
    assert result.returncode == 0, result.stdout + result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cluster_5.json",
        "kdivisible_5_2.json",
        "nc_5.dot",
        "parking_5.dot",
        "parking_5.json",
    ]


def test_export_posets_names_the_refused_call(tmp_path):
    result = _export(tmp_path)
    assert result.returncode == 2
    assert "failed (2): cluster --n 5\n" in result.stdout
    assert not (tmp_path / "cluster_5.json").exists()


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


def load_reproduce_tables():
    spec = importlib.util.spec_from_file_location(
        "reproduce_tables", ROOT / "scripts" / "reproduce_tables.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_reproduce_tables_fails_on_a_mismatch(monkeypatch, capsys):
    script = load_reproduce_tables()
    assert script.main(["--nmax", "3"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(script, "whitney_first_kind", lambda n, l: 0)
    assert script.main(["--nmax", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("MISMATCH n=2 Whitney numbers of the first kind")
    assert "whitney first" not in captured.out


def test_reproduce_tables_runs_every_table_from_two_to_nmax(monkeypatch, capsys):
    script = load_reproduce_tables()
    assert script.main(["--nmax", "5"]) == 0
    out = capsys.readouterr().out
    tables = out.split("reduced Betti numbers")[1]
    betti, characters = tables.split("homology character")
    assert betti.splitlines()[1:] == [
        "  n=2: (0, 1)",
        "  n=3: (0, 0, 4)",
        "  n=4: (0, 0, 0, 27)",
        "  n=5: (0, 0, 0, 0, 256)",
    ]
    assert "  n=2:\n" in characters
    five = (
        ("1+1+1+1+1", 256), ("2+1+1+1", -64), ("2+2+1", 16), ("3+1+1", 16),
        ("3+2", -4), ("4+1", -4), ("5", 1),
    )
    rows = "".join(f"    {cycles:>10}: {v:>5} (closed {v}) ok\n" for cycles, v in five)
    assert characters.endswith("  n=5:\n" + rows)
    closed = script.signed_prime_character
    monkeypatch.setattr(
        script,
        "signed_prime_character",
        lambda n, k, perm: closed(n, k, perm) + (n == 5),
    )
    assert script.main(["--nmax", "5"]) == 1
    assert capsys.readouterr().err.startswith("MISMATCH n=5 character at 1+1+1+1+1")
