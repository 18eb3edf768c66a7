"""Smoke tests of the driver scripts: each runs at a small size and
exits 0.  reproduce_tables.py and verify_shelling.py also fail on a bad
size or a mismatch."""

import importlib.util
import json
import os
import re
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


def run_verify_shelling(tmp_path, n):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_shelling.py"), "--n", str(n)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )


def test_verify_shelling_prints_counts(tmp_path):
    result = run_verify_shelling(tmp_path, 4)
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout) == {
        "n": 4,
        "chains": 384,
        "facets": 27,
        "shelling_violations": 0,
        "fork_checked": 3798,
        "fork_replaced_middle": 3122,
        "fork_raised_top": 676,
        "fork_violations": 0,
    }
    assert result.stdout.count("\n") == 1
    assert re.fullmatch(
        r"verify_shelling [0-9.]+ s, verify_fork_lemma [0-9.]+ s, "
        r"peak RSS [0-9.]+ MB\n",
        result.stderr,
    )


@pytest.mark.parametrize("n", [1, 7])
def test_verify_shelling_rejects_n_out_of_range(tmp_path, n):
    result = run_verify_shelling(tmp_path, n)
    assert result.returncode == 2
    assert result.stdout == ""


def test_verify_shelling_fails_on_a_wrong_facet_count(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "verify_shelling_script", ROOT / "scripts" / "verify_shelling.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--n", "3"]) == 0
    original = script.verify_shelling

    def miscounted(n):
        report = original(n)
        report.facets += 1
        return report

    monkeypatch.setattr(script, "verify_shelling", miscounted)
    capsys.readouterr()
    assert script.main(["--n", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["facets"] == 5
