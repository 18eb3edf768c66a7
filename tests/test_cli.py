"""Command line interface: output formats, exit codes, determinism."""

import hashlib
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from parkposet import cli, kdivisible, parking_order
from parkposet.cli import main
from parkposet.enumeration import enumerate_parking_words, word_action
from parkposet.homology import signed_prime_character
from parkposet.nc import (
    NoncrossingPartition,
    class_representatives,
    enumerate_noncrossing,
)
from parkposet.numbers import catalan
from parkposet.objects import ParkingElement
from parkposet.parking_order import (
    build_pp_poset,
    permutahedron_face_poset,
    right_comb_subposet,
)
from parkposet.poset import FinitePoset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCount:
    def test_rank_census_table(self, capsys):
        code, out = run(capsys, "count", "--n", "3", "--k", "1")
        assert code == 0
        assert out == (
            "n,k,l,closed,oracle,series\n"
            "3,1,0,1,1,1\n"
            "3,1,1,9,9,9\n"
            "3,1,2,6,6,6\n"
        )

    def test_single_row(self, capsys):
        code, out = run(capsys, "count", "--n", "4", "--k", "2", "--l", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,l,closed,oracle,series"
        assert len(lines) == 2
        n, k, l, closed, oracle, series = lines[1].split(",")
        assert closed == oracle == series

    def test_columns_agree(self, capsys):
        code, out = run(capsys, "count", "--n", "4", "--k", "3")
        assert code == 0
        total = 0
        for line in out.splitlines()[1:]:
            _, _, _, closed, oracle, series = line.split(",")
            assert closed == oracle == series
            total += int(closed)
        assert total == 13 ** 3

    def test_bad_rank_rejected(self, capsys):
        code, _ = run(capsys, "count", "--n", "3", "--l", "5")
        assert code == 2

    def test_long_beyond_oracle_leaves_column_empty(self, capsys):
        code, out = run(capsys, "count", "--n", "7", "--long")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 7
        assert all(row[4] == "" and row[3] == row[5] for row in rows)


class TestConvert:
    def test_word_to_tree_matches_library(self, capsys):
        code, out = run(
            capsys, "convert", "--from", "word", "--to", "tree",
            "--input", "1325271",
        )
        assert code == 0
        expected = ParkingElement.from_word([1, 3, 2, 5, 2, 7, 1]).to_tree()
        assert json.loads(out) == expected.to_json()

    def test_digit_shortcut_equals_json_array(self, capsys):
        _, short = run(
            capsys, "convert", "--from", "word", "--to", "pair",
            "--input", "212",
        )
        _, long = run(
            capsys, "convert", "--from", "word", "--to", "pair",
            "--input", "[2, 1, 2]",
        )
        assert short == long

    def test_pair_roundtrip(self, capsys):
        _, out = run(
            capsys, "convert", "--from", "word", "--to", "pair",
            "--input", "1325271",
        )
        code, back = run(
            capsys, "convert", "--from", "pair", "--to", "word",
            "--input", out,
        )
        assert code == 0
        assert json.loads(back)["word"] == [1, 3, 2, 5, 2, 7, 1]

    def test_triple_roundtrip(self, capsys):
        _, out = run(
            capsys, "convert", "--from", "word", "--to", "triple",
            "--input", "1325271",
        )
        code, back = run(
            capsys, "convert", "--from", "triple", "--to", "word",
            "--input", out,
        )
        assert code == 0
        assert json.loads(back)["word"] == [1, 3, 2, 5, 2, 7, 1]

    def test_tree_roundtrip(self, capsys):
        _, out = run(
            capsys, "convert", "--from", "word", "--to", "tree",
            "--input", "14131",
        )
        code, back = run(
            capsys, "convert", "--from", "tree", "--to", "word",
            "--input", out,
        )
        assert code == 0
        assert json.loads(back)["word"] == [1, 4, 1, 3, 1]

    def test_rejects_non_parking_word(self, capsys):
        code, _ = run(
            capsys, "convert", "--from", "word", "--to", "tree",
            "--input", "99",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "source,text",
        [
            ("pair", "{"),
            ("pair", "{}"),
            ("triple", '{"partition": [[1, 3], [2, 4]], "labels": [[1], [2]]}'),
            # every leaf must be an integer: no float or boolean is coerced
            ("word", "[1.5, 1]"),
            ("word", "[true, 1]"),
            ("word", '{"1": 1}'),
            ("pair", '{"sigma": [1.9, 2], "partition": [[1], [2]]}'),
            ("pair", '{"sigma": [1, 2], "partition": [[true, 2]]}'),
            ("tree", '{"label": [true], "children": [{"label": [], "children": []}]}'),
            ("triple", '{"partition": [[1, 2]], "labels": [[true, 2]]}'),
            # a word is a flat list of integers
            ("word", "[[1]]"),
            ("word", "-1"),
        ],
    )
    def test_malformed_input_is_an_argument_error(self, capsys, source, text):
        argv = ["convert", "--from", source, "--to", "word", "--input", text]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: bad {source} input: ")
        if source == "word" and text in ("[[1]]", '{"1": 1}', "-1"):
            assert err == "error: bad word input: a word is a list of integers\n"

    @pytest.mark.parametrize("source", ["triple", "pair"])
    def test_empty_block_is_an_argument_error(self, source):
        text = json.dumps(
            {"partition": [[1, 2, 3], []], "labels": [[1, 2, 3], []], "sigma": [1, 2, 3]}
        )
        result = subprocess.run(
            [sys.executable, "-m", "parkposet.cli", "convert", "--from", source,
             "--to", "word", "--input", text],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"bad {source} input" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "triple, word",
        [
            ({"partition": [[2], [1]], "labels": [[1], [2]]}, [2, 1]),
            ({"partition": [[2, 3], [1, 4]], "labels": [[1, 2], [3, 4]]}, [2, 2, 1, 1]),
            ({"partition": [[2, 3], [1, 4, 5]], "labels": [[4, 5], [1, 2, 3]]},
             [1, 1, 1, 2, 2]),
        ],
    )
    def test_triple_blocks_out_of_canonical_order(self, triple, word):
        """Each label set stays with its own input block, also when the
        blocks are not given in canonical order."""
        result = subprocess.run(
            [sys.executable, "-m", "parkposet.cli", "convert", "--from", "triple",
             "--to", "word", "--input", json.dumps(triple)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert json.loads(result.stdout) == {"n": len(word), "word": word}

    @pytest.mark.parametrize(
        "source, text",
        [
            ("tree", '{"label": [], "children": [' * 2000 + ']}' * 2000),
            ("word", "[" * 5000 + "]" * 5000),
        ],
        ids=["tree", "word"],
    )
    def test_input_nested_too_deep_is_an_argument_error(self, source, text):
        """A RecursionError while decoding is bad input, not a broken
        invariant."""
        result = subprocess.run(
            [sys.executable, "-m", "parkposet.cli", "convert", "--from", source,
             "--to", "word", "--input", text],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"bad {source} input" in result.stderr
        assert "Traceback" not in result.stderr


class TestPoset:
    def test_parking_json(self, capsys):
        code, out = run(capsys, "poset", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "parking"
        assert len(data["elements"]) == 16
        assert len(data["covers"]) == len(
            build_pp_poset(3).cover_index_pairs()
        )

    def test_parking_dot(self, capsys):
        code, out = run(capsys, "poset", "--n", "3", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph poset {")
        assert '[label="111"]' in out

    def test_nc_json(self, capsys):
        code, out = run(capsys, "poset", "--n", "4", "--which", "nc")
        assert code == 0
        data = json.loads(out)
        assert len(data["elements"]) == catalan(4)
        assert "1.2.3.4" in data["elements"]

    def test_size_guard(self, capsys):
        code, _ = run(capsys, "poset", "--n", "9")
        assert code == 2

    def test_long_size_six(self):
        # A separate process, so the 16807-element poset is not kept in
        # this process's builder cache.
        result = subprocess.run(
            [
                sys.executable, "-m", "parkposet.cli",
                "poset", "--n", "6", "--long", "--format", "json",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert len(json.loads(result.stdout)["elements"]) == 16807
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "0c99c920318f0cee4d2df37979924b6ca314d92b9045cbf8ae255006784bfb12"
        )

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("json", "54cf022ef74e4417334a1162e5f1af656817d3c252f8877f1b13faa950251984"),
            ("dot", "0e640db0b216f0764718b319155e3bfc056c72009bdb2e66a2c623b715f269c3"),
        ],
    )
    def test_size_five_digest(self, capsys, fmt, digest):
        code, out = run(capsys, "poset", "--n", "5", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_parking_build_makes_no_element(self, capsys, monkeypatch):
        """Building pp(n), and the poset and count commands on it, read
        words and partition ids only: no ParkingElement is built or
        hashed."""

        def refuse(*args):
            raise AssertionError("ParkingElement built or hashed")

        def cold():
            parking_order._parking_listing.cache_clear()
            build_pp_poset.cache_clear()

        monkeypatch.setattr(ParkingElement, "__init__", refuse)
        monkeypatch.setattr(ParkingElement, "__hash__", refuse)
        cold()
        try:
            for n in range(1, 6):
                build_pp_poset(n)
            for argv in (
                ("poset", "--n", "5", "--format", "json"),
                ("poset", "--n", "5", "--format", "dot"),
                ("count", "--n", "5", "--k", "3"),
            ):
                cold()
                assert run(capsys, *argv)[0] == 0
        finally:
            cold()


class TestShelling:
    def test_report(self, capsys):
        code, out = run(capsys, "shelling", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        names = {entry["name"] for entry in data["checks"]}
        assert {
            "shelling",
            "cover_fork",
            "nc_cover_fork",
            "recursive_atom_ordering_regression",
        } <= names
        shelling = next(e for e in data["checks"] if e["name"] == "shelling")
        assert shelling["domain"] == 18
        assert shelling["counterexample"] is None

    def test_size_guard(self, capsys):
        code, _ = run(capsys, "shelling", "--n", "5")
        assert code == 2

    def test_raising_check_fails_its_entry(self, capsys, monkeypatch):
        def broken(n):
            raise ValueError("tied cover keys above element 0")

        monkeypatch.setattr(cli, "verify_shelling", broken)
        code, out = run(capsys, "shelling", "--n", "3")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        entries = {entry["name"]: entry for entry in data["checks"]}
        assert entries["shelling"]["ok"] is False
        assert entries["shelling"]["counterexample"] == (
            "tied cover keys above element 0"
        )
        assert entries["cover_fork"]["ok"] is True

    def test_wrong_facet_count_fails_its_entry(self, capsys, monkeypatch):
        # the facet count is checked against (n-1)^(n-1) wherever the
        # suite runs, not only by the tests
        original = cli.verify_shelling

        def miscounted(n):
            report = original(n)
            report.facets += 1
            return report

        monkeypatch.setattr(cli, "verify_shelling", miscounted)
        code, out = run(capsys, "shelling", "--n", "3")
        assert code == 1
        entries = {entry["name"]: entry for entry in json.loads(out)["checks"]}
        assert entries["shelling"]["ok"] is False
        assert entries["shelling"]["domain"] == 18
        assert entries["shelling"]["counterexample"] == (
            "5 homology facets, not (n-1)^(n-1) = 4"
        )
        assert entries["cover_fork"]["ok"] is True
        code, out = run(capsys, "verify-all", "--n", "3")
        assert code == 1
        assert (
            "[FAIL] shelling: n=2: shelling: 2 homology facets, not (n-1)^(n-1) = 1\n"
            in out
        )

    def test_report_digest(self, capsys):
        code, out = run(capsys, "shelling", "--n", "4")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (
            "1410acfdaea808a9674db762e665f3981baced22fab5609cd9d26975a3202dde"
        )

    def test_broken_witness_fails_the_report_and_the_criterion(
        self, capsys, monkeypatch
    ):
        def broken():
            raise ValueError("y1 is not a parking element")

        monkeypatch.setattr(cli, "recursive_atom_ordering_failure", broken)
        code, out = run(capsys, "shelling", "--n", "2")
        assert code == 1
        regression = json.loads(out)["checks"][-1]
        assert regression == {
            "name": "recursive_atom_ordering_regression",
            "n": 6,
            "domain": 1,
            "ok": False,
            "counterexample": "y1 is not a parking element",
        }
        assert cli._run_verify_check(("shelling", 2, 1)) == (
            "shelling",
            False,
            "regression witness broke: y1 is not a parking element",
        )


class TestHomology:
    def test_betti_table(self, capsys):
        code, out = run(capsys, "homology", "--n", "3")
        assert code == 0
        assert out == "degree,rank\n-1,0\n0,0\n1,4\n"

    def test_long_size_five(self, capsys):
        code, out = run(capsys, "homology", "--n", "5", "--long")
        assert code == 0
        assert out == "degree,rank\n-1,0\n0,0\n1,0\n2,0\n3,256\n"

    def test_character_table(self, capsys):
        code, out = run(capsys, "homology", "--n", "3", "--character")
        assert code == 0
        assert out == (
            "cycle_type,lefschetz,closed,match\n"
            "1+1+1,4,4,yes\n"
            "2+1,-2,-2,yes\n"
            "3,1,1,yes\n"
        )

    def test_character_json(self, capsys):
        code, out = run(
            capsys, "homology", "--n", "3", "--character", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert len(data["characters"]) == 3

    def test_long_size_six_betti(self):
        # most rows are apparent pivots, so elimination at n = 6 fits the
        # --long budget: about 12 s and 0.8 GB on a shared 2-CPU machine
        argv = [sys.executable, "-m", "parkposet.cli", "homology", "--n", "6"]
        result = subprocess.run(argv + ["--long"], capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout == "degree,rank\n-1,0\n0,0\n1,0\n2,0\n3,0\n4,3125\n"

    def test_long_size_six_character(self):
        # The character goes to n = 6 under --long, as the Betti table does.
        argv = [sys.executable, "-m", "parkposet.cli", "homology", "--n", "6"]
        result = subprocess.run(
            argv + ["--long", "--character"], capture_output=True, text=True
        )
        assert result.returncode == 0
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        values = [3125, -625, 125, -25, 125, -25, 5, -25, 5, 5, -1]
        assert [int(row[1]) for row in rows] == values
        perms = class_representatives(6)
        assert values == [signed_prime_character(6, 1, perm) for perm in perms]
        assert all(row[3] == "yes" for row in rows)
        for extra in ([], ["--character"]):
            assert subprocess.run(argv + extra, capture_output=True).returncode == 2


class TestCluster:
    def test_json_summary(self, capsys):
        code, out = run(capsys, "cluster", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["face_counts"] == [1, 3, 2]
        assert data["facets"] == 2
        assert data["poset_size"] == 22
        assert data["rank_sizes"] == [1, 9, 12]

    def test_csv_face_counts(self, capsys):
        code, out = run(capsys, "cluster", "--n", "5", "--format", "csv")
        assert code == 0
        counts = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert sum(counts) == 90

    def test_dot(self, capsys):
        code, out = run(capsys, "cluster", "--n", "3", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph poset {")


class TestKdivisible:
    def test_json_summary(self, capsys):
        code, out = run(capsys, "kdivisible", "--n", "3", "--k", "2")
        assert code == 0
        data = json.loads(out)
        assert data["elements"] == 49
        assert data["rank_sizes"] == [1, 18, 30]
        assert data["mobius"] == -25
        assert data["primes"] == 25
        assert data["nc_chains"] == 12

    def test_character_table(self, capsys):
        code, out = run(
            capsys, "kdivisible", "--n", "3", "--k", "2", "--character"
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.endswith(",yes")

    def test_character_formats(self, capsys):
        argv = ("kdivisible", "--n", "3", "--k", "2", "--character")
        csv = (
            "cycle_type,lefschetz,closed,match\n"
            "1+1+1,25,25,yes\n"
            "2+1,-5,-5,yes\n"
            "3,1,1,yes\n"
        )
        assert run(capsys, *argv) == (0, csv)
        assert run(capsys, *argv, "--format", "csv") == (0, csv)
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "n": 3,
            "ok": True,
            "characters": [
                {"cycle_type": "1+1+1", "lefschetz": 25, "closed": 25, "match": "yes"},
                {"cycle_type": "2+1", "lefschetz": -5, "closed": -5, "match": "yes"},
                {"cycle_type": "3", "lefschetz": 1, "closed": 1, "match": "yes"},
            ],
        }
        _, homology = run(
            capsys, "homology", "--n", "3", "--character", "--format", "json"
        )
        assert json.loads(out).keys() == json.loads(homology).keys()
        code = main([*argv, "--format", "dot"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--character supports --format csv or json" in captured.err

    def test_summary_formats(self, capsys):
        argv = ("kdivisible", "--n", "3", "--k", "2")
        _, default = run(capsys, *argv)
        assert run(capsys, *argv, "--format", "json") == (0, default)
        assert run(capsys, *argv, "--format", "csv") == (
            0,
            "n,k,l,count,closed\n3,2,0,1,1\n3,2,1,18,18\n3,2,2,30,30\n",
        )

    def test_budget_guard(self, capsys):
        # each request exits 2 before building, naming the limit it hit;
        # 999 elements fit the default element budget, 999 * 499 chain
        # entries do not; 2001**1999 elements are refused without printing
        # the count, whose digits an int may not print
        for argv, limit in (
            (("--n", "5", "--k", "2"), "element budget 1000"),
            (("--n", "2", "--k", "499"), "chain entry budget 50000"),
            (("--n", "5", "--k", "3", "--long"), "element budget 20000"),
            (("--n", "2", "--k", "2000", "--long"), "chain entry budget 500000"),
            (("--n", "2000", "--k", "1"), "element budget 1000"),
        ):
            code = main(["kdivisible", *argv])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert limit in captured.err
            assert len(captured.err) < 120

    @staticmethod
    def _long_size_five(*extra):
        # A separate process, so the 14641-element poset and its masks
        # are not kept in this process.
        return subprocess.run(
            [sys.executable, "-m", "parkposet.cli", "kdivisible", "--n", "5",
             "--k", "2", "--long", *extra],
            capture_output=True,
            text=True,
        )

    def test_long_size_five(self):
        result = self._long_size_five()
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["elements"] == data["elements_closed"] == 14641
        assert data["mobius"] == data["mobius_closed"] == -(9 ** 4)
        assert data["primes"] == data["primes_closed"] == 9 ** 4

    def test_long_size_five_character(self):
        result = self._long_size_five("--character")
        assert result.returncode == 0
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        # the Lefschetz column carries the sign (-1)**(n - 2) of the top
        # homology of the proper part
        assert [int(row[1]) for row in rows] == [6561, -729, 81, 81, -9, -9, 1]
        assert all(row[1] == row[2] and row[3] == "yes" for row in rows)

    def test_broken_invariant_exits_1(self, capsys, monkeypatch):
        def broken(n, k):
            raise ValueError("poset is not graded at element 0")

        monkeypatch.setattr(cli, "build_ppk_poset", broken)
        code, _ = run(capsys, "kdivisible", "--n", "3", "--k", "2")
        assert code == 1


def test_character_path_moves_ids_only(capsys, monkeypatch):
    # The character tables and the characters criterion permute ids: they
    # act on no element and build no proper part or fixed subposet.
    def refuse(*args):
        raise AssertionError("rich action or subposet on the character path")

    monkeypatch.setattr(ParkingElement, "act", refuse)
    monkeypatch.setattr(kdivisible, "ppk_action", refuse)
    monkeypatch.setattr(FinitePoset, "induced", refuse)
    monkeypatch.setattr(FinitePoset, "without_bottom", refuse)
    assert run(capsys, "homology", "--n", "4", "--character") == (
        0,
        "cycle_type,lefschetz,closed,match\n"
        "1+1+1+1,27,27,yes\n"
        "2+1+1,-9,-9,yes\n"
        "2+2,3,3,yes\n"
        "3+1,3,3,yes\n"
        "4,-1,-1,yes\n",
    )
    assert run(capsys, "kdivisible", "--n", "3", "--k", "2", "--character") == (
        0,
        "cycle_type,lefschetz,closed,match\n"
        "1+1+1,25,25,yes\n"
        "2+1,-5,-5,yes\n"
        "3,1,1,yes\n",
    )
    assert cli._run_verify_check(("characters", 4, 2)) == (
        "characters",
        True,
        "Lefschetz and fixed-point characters, n<=4, k<=2",
    )


# sha256 of the DOT exports of the derived posets: their element order
# and cover lists are part of the output contract.
DERIVED_DOT_DIGESTS = {
    ("kdivisible", "--n", "3", "--k", "2"): (
        "0e01bed6f1be770465c5e3ff6a66a43b6ac455e054cbcde2c1eb40065676310d"
    ),
    ("kdivisible", "--n", "3", "--k", "3"): (
        "de85d4bac7f27e876fe33fe8b69c0989de5f3e822463415e93095b378a2381a9"
    ),
    ("cluster", "--n", "3"): (
        "6890340939e27b590fa4c8a2a518e70675f8ab0f564868a26b3d6bbc9c816150"
    ),
    ("cluster", "--n", "4"): (
        "304c8b031643019459ce3b7340e2a81ac9536f19fd3c6c55323acde3a1fdccc6"
    ),
}


@pytest.mark.parametrize("argv", sorted(DERIVED_DOT_DIGESTS))
def test_derived_dot_export_digest(capsys, argv):
    code, out = run(capsys, *argv, "--format", "dot")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DERIVED_DOT_DIGESTS[argv]


VERIFY_ALL_STDOUT = {
    ("--n", "4", "--k", "2"): (
        "[PASS] cardinality: (n+1)^(n-1) in four representations, n=2..4\n"
        "[PASS] whitney-second: rank census matches l!*binom(n,l)*S2(n,l+1), n=2..4\n"
        "[PASS] chain-formula: multichain census matches closed counts, n<=4, k<=2\n"
        "[PASS] mobius-whitney-first: Whitney first kind and mobius match closed"
        " forms, n=2..4\n"
        "[PASS] shelling: shelling and support lemmas, n=2..4 (404 chains)\n"
        "[PASS] homology-betti: betti concentrated in degree n-2 with rank"
        " (n-1)^(n-1), n=2..4\n"
        "[PASS] characters: Lefschetz and fixed-point characters, n<=4, k<=2\n"
        "[PASS] series: species equation, inverse, coefficients to order 6, k<=2\n"
        "[PASS] k-trees: Prufer and chain bijections round-trip, (n,k)=(3,2)\n"
        "[PASS] cluster: facet counts n<8, Whitney relation and top rank n<=4\n"
        "[PASS] k-divisible: k-divisible counts, Edelman subposets, homology, k<=2\n"
        "[PASS] permutahedron: right comb matches composition face poset, n=2..4\n"
        "12/12 checks passed\n"
    ),
    ("--n", "5", "--k", "3", "--long"): (
        "[PASS] cardinality: (n+1)^(n-1) in four representations, n=2..5\n"
        "[PASS] whitney-second: rank census matches l!*binom(n,l)*S2(n,l+1), n=2..5\n"
        "[PASS] chain-formula: multichain census matches closed counts, n<=5, k<=3\n"
        "[PASS] mobius-whitney-first: Whitney first kind and mobius match closed"
        " forms, n=2..5\n"
        "[PASS] shelling: shelling and support lemmas, n=2..5 (15404 chains)\n"
        "[PASS] homology-betti: betti concentrated in degree n-2 with rank"
        " (n-1)^(n-1), n=2..5\n"
        "[PASS] characters: Lefschetz and fixed-point characters, n<=5, k<=3\n"
        "[PASS] series: species equation, inverse, coefficients to order 6, k<=3\n"
        "[PASS] k-trees: Prufer and chain bijections round-trip, (n,k)=(3,2)\n"
        "[PASS] cluster: facet counts n<8, Whitney relation and top rank n<=5\n"
        "[PASS] k-divisible: k-divisible counts, Edelman subposets, homology, k<=3,"
        " (5,3) skipped over the --long budget\n"
        "[PASS] permutahedron: right comb matches composition face poset, n=2..5\n"
        "12/12 checks passed\n"
    ),
}

# At the smallest sizes each detail line names only what ran: the Betti
# and cluster sweeps start at n = 2, and with k = 1 no Edelman subposet
# pair and no (3, 2) Betti check is in range.
SMALL_VERIFY_ALL_STDOUT = {
    n: (
        f"[PASS] cardinality: (n+1)^(n-1) in four representations, n=2..{n}\n"
        "[PASS] whitney-second: rank census matches l!*binom(n,l)*S2(n,l+1),"
        f" n=2..{n}\n"
        f"[PASS] chain-formula: multichain census matches closed counts, n<={n},"
        " k<=1\n"
        "[PASS] mobius-whitney-first: Whitney first kind and mobius match closed"
        f" forms, n=2..{n}\n"
        f"[PASS] shelling: shelling and support lemmas, n=2..{n} ({chains} chains)\n"
        "[PASS] homology-betti: betti concentrated in degree n-2 with rank"
        f" (n-1)^(n-1), n=2..{n}\n"
        f"[PASS] characters: Lefschetz and fixed-point characters, n<={n}, k<=1\n"
        "[PASS] series: species equation, inverse, coefficients to order 6, k<=1\n"
        "[PASS] k-trees: Prufer and chain bijections round-trip, (n,k)=(3,2)\n"
        f"[PASS] cluster: facet counts n<8, Whitney relation and top rank n<={n}\n"
        "[PASS] k-divisible: k-divisible counts, k<=1\n"
        f"[PASS] permutahedron: right comb matches composition face poset, n=2..{n}\n"
        "12/12 checks passed\n"
    )
    for n, chains in ((2, 2), (3, 20))
}

# Detail lines at n = 5, k = 1, the size that verify-all --long reaches.
# The k-divisible line names n only in a skipped pair, which
# test_kdivisible_criterion_skips_pairs_over_the_budget covers.
SIZE_FIVE_DETAILS = {
    "chain-formula": "multichain census matches closed counts, n<=5, k<=1",
    "shelling": "shelling and support lemmas, n=2..5 (15404 chains)",
    "characters": "Lefschetz and fixed-point characters, n<=5, k<=1",
    "cluster": "facet counts n<8, Whitney relation and top rank n<=5",
    "permutahedron": "right comb matches composition face poset, n=2..5",
}


class TestVerifyAll:
    def test_small_sweep_passes(self, capsys):
        code, out = run(capsys, "verify-all", "--n", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "12/12 checks passed"
        assert all(line.startswith("[PASS]") for line in lines[:-1])

    def test_jobs_output_identical(self, capsys):
        _, serial = run(capsys, "verify-all", "--n", "2")
        _, parallel = run(capsys, "verify-all", "--n", "2", "--jobs", "2")
        assert serial == parallel

    def test_jobs_clamped(self, capsys, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert run(capsys, "verify-all", "--n", "2", "--jobs", "64")[0] == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert run(capsys, "verify-all", "--n", "2", "--jobs", "1000")[0] == 0
        assert sizes == [3, 12]

    @pytest.mark.parametrize("side", ["euler", "mobius"])
    def test_homology_checks_halls_theorem(self, capsys, monkeypatch, side):
        # the reduced Euler characteristic of each proper part, from chain
        # counts, must equal the Mobius value, whichever side is wrong
        if side == "euler":
            original = cli.reduced_euler_characteristic
            monkeypatch.setattr(
                cli, "reduced_euler_characteristic", lambda p: original(p) + 1
            )
            values = "2 != mu 1"
        else:
            original = FinitePoset.mobius_hat
            monkeypatch.setattr(FinitePoset, "mobius_hat", lambda p: original(p) - 1)
            values = "1 != mu 0"
        code, out = run(capsys, "verify-all", "--n", "3")
        assert code == 1
        assert (
            f"[FAIL] homology-betti: n=2: reduced Euler characteristic {values}\n"
            in out
        )

    def test_long_checks_betti_at_size_five(self):
        assert cli._run_verify_check(("homology-betti", 5, 1)) == (
            "homology-betti",
            True,
            "betti concentrated in degree n-2 with rank (n-1)^(n-1), n=2..5",
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_fixed_words_are_constant_on_cycles(self, n, k):
        """Constancy on the cycles of perm holds exactly for the words
        that word_action(perm, .) fixes."""
        for perm in class_representatives(n):
            pairs = cli._cycle_pairs(perm)
            for w in enumerate_parking_words(n, k):
                assert (cli._fixed(pairs, [w]) == 1) == (word_action(perm, w) == w)

    def test_permutahedron_witness_with_two_images_swapped_is_rejected(self):
        comb = right_comb_subposet(3)
        faces = permutahedron_face_poset(3)
        fid = [faces.index[elem.to_composition()] for elem in comb.elements]
        assert cli._maps_covers_onto_covers(comb, faces, fid)
        for i in range(len(fid)):
            for j in range(i + 1, len(fid)):
                swapped = list(fid)
                swapped[i], swapped[j] = fid[j], fid[i]
                assert not cli._maps_covers_onto_covers(comb, faces, swapped)

    def test_cardinality_counts_the_pairs(self, monkeypatch):
        dropped = []

        def short(n):
            partitions = list(enumerate_noncrossing(n))
            dropped.append(partitions.pop())
            return partitions

        monkeypatch.setattr(cli, "enumerate_noncrossing", short)
        _, ok, detail = cli._run_verify_check(("cardinality", 3, 1))
        # n = 2 loses the one pair over its last partition, the single
        # block [1, 2], and the check stops there
        assert dropped == [NoncrossingPartition(2, [[1, 2]])]
        assert (ok, detail) == (
            False,
            "n=2: pairs 2, words 3, trees 3, triples 3, expected 3",
        )

    def test_kdivisible_criterion_checks_every_closed_form(self, monkeypatch):
        assert cli._run_verify_check(("k-divisible", 3, 2))[1]
        monkeypatch.setattr(cli, "is_prime_chain", lambda chain: False)
        assert cli._run_verify_check(("k-divisible", 3, 2)) == (
            "k-divisible",
            False,
            "(n,k)=(2,1): primes 0",
        )

    def test_bounds(self, capsys):
        assert run(capsys, "verify-all", "--n", "9")[0] == 2
        assert run(capsys, "verify-all", "--n", "3", "--k", "7")[0] == 2
        for jobs in ("0", "-3"):
            assert run(capsys, "verify-all", "--n", "2", "--jobs", jobs) == (2, "")

    @pytest.mark.parametrize("argv", sorted(VERIFY_ALL_STDOUT))
    def test_golden_stdout(self, capsys, argv):
        # with --n 5 every criterion runs at n = 5, and only ppk(5, 3)
        # (65536 elements) is over the --long k-divisible budget
        assert run(capsys, "verify-all", *argv) == (0, VERIFY_ALL_STDOUT[argv])

    @pytest.mark.parametrize("n", sorted(SMALL_VERIFY_ALL_STDOUT))
    def test_small_sweeps_name_only_what_ran(self, capsys, n):
        out = SMALL_VERIFY_ALL_STDOUT[n]
        assert run(capsys, "verify-all", "--n", str(n), "--k", "1") == (0, out)

    @pytest.mark.parametrize("name", sorted(SIZE_FIVE_DETAILS))
    def test_criterion_runs_at_size_five(self, name):
        detail = SIZE_FIVE_DETAILS[name]
        assert cli._run_verify_check((name, 5, 1)) == (name, True, detail)

    def test_kdivisible_criterion_skips_pairs_over_the_budget(self, monkeypatch):
        built = []

        def build(n, k):
            built.append((n, k))
            return kdivisible.build_ppk_poset(n, k)

        monkeypatch.setattr(cli, "build_ppk_poset", build)
        monkeypatch.setattr(cli, "_KDIVISIBLE_BUDGET", ((1000, 50000), (1000, 500000)))
        # 13**3 = 2197 and 6**4 = 1296 elements are over 1000
        assert cli._run_verify_check(("k-divisible", 5, 3)) == (
            "k-divisible",
            True,
            "k-divisible counts, Edelman subposets, homology, k<=3,"
            " (4,3) (5,1) (5,2) (5,3) skipped over the --long budget",
        )
        assert built == [
            (n, k) for n in range(2, 5) for k in range(1, 4) if (n, k) != (4, 3)
        ]

    def test_kdivisible_detail_at_k_two_and_n_two(self):
        # the Edelman pair (2, 2) runs; the (3, 2) Betti check does not
        assert cli._run_verify_check(("k-divisible", 2, 2)) == (
            "k-divisible",
            True,
            "k-divisible counts, Edelman subposets, k<=2",
        )

    def test_whitney_second_counts_the_fibres(self, monkeypatch):
        assert cli._run_verify_check(("whitney-second", 3, 1))[1]
        dropped = []

        def short(n):
            partitions = list(enumerate_noncrossing(n))
            dropped.append(partitions.pop())
            return partitions

        monkeypatch.setattr(cli, "enumerate_noncrossing", short)
        # n = 2 loses the fibre of the single block [1, 2], its one labelling
        assert cli._run_verify_check(("whitney-second", 3, 1)) == (
            "whitney-second",
            False,
            "n=2: census [1, 2], fibres [0, 2], closed [1, 2]",
        )
        assert dropped == [NoncrossingPartition(2, [[1, 2]])]


class TestPlumbing:
    def test_deterministic_bytes(self, capsys):
        _, first = run(capsys, "poset", "--n", "4")
        _, second = run(capsys, "poset", "--n", "4")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out = run(capsys, "count", "--n", "3", "--output", str(target))
        assert code == 0
        assert out == ""
        text = target.read_bytes().decode()
        assert text.startswith("n,k,l,closed,oracle,series\n")
        assert "\r" not in text

    def test_unwritable_output_is_an_argument_error(self, capsys, tmp_path):
        for target in (tmp_path, tmp_path / "missing" / "poset.json"):
            code = main(["poset", "--n", "3", "--output", str(target)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write {target}: ")

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "parkposet.cli", "count", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("n,k,l,")

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("poset", "--n", "6"), "need 2 <= n <= 5 (6 with --long)"),
        (("poset", "--n", "7", "--long"), "need 2 <= n <= 5 (6 with --long)"),
        (("poset", "--which", "nc", "--n", "0"), "need 1 <= n <= 7 (9 with --long)"),
        (
            ("poset", "--which", "nc", "--n", "10", "--long"),
            "need 1 <= n <= 7 (9 with --long)",
        ),
        (("count", "--n", "8"), "need 2 <= n <= 7"),
        (("count", "--n", "1", "--long"), "need 2 <= n <= 7"),
        (("shelling", "--n", "5"), "need 2 <= n <= 4 (5 with --long)"),
        (("shelling", "--n", "6", "--long"), "need 2 <= n <= 4 (5 with --long)"),
        (("homology", "--n", "1"), "need 2 <= n <= 4 (6 with --long)"),
        (("homology", "--n", "7", "--long"), "need 2 <= n <= 4 (6 with --long)"),
        (("homology", "--n", "5", "--character"), "need 2 <= n <= 4 (6 with --long)"),
        (
            ("homology", "--n", "7", "--long", "--character"),
            "need 2 <= n <= 4 (6 with --long)",
        ),
        (("cluster", "--n", "5"), "need 2 <= n <= 4 (5 with --long)"),
        (("cluster", "--n", "6", "--long"), "need 2 <= n <= 4 (5 with --long)"),
        (
            ("cluster", "--n", "9", "--format", "csv"),
            "need 2 <= n <= 8 for face counts",
        ),
        (("kdivisible", "--n", "1", "--k", "1"), "need n >= 2 and k >= 1"),
        (("verify-all", "--n", "5"), "need 2 <= n <= 4 (5 with --long)"),
        (("verify-all", "--n", "1", "--long"), "need 2 <= n <= 4 (5 with --long)"),
    ],
)
def test_n_just_outside_the_range_is_refused(capsys, argv, message):
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def readme_commands():
    """The `parkposet` lines of the sh block under "## Command line" in
    README.md, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("parkposet ")
    ]


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
    assert (tmp_path / "parking3.dot").read_text().startswith("digraph")
