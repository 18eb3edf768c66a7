"""Acceptance sweep: twelve end-to-end criteria, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line per criterion alongside the pytest verdicts.  Each test runs one
entry of ``parkposet.cli.VERIFY_CHECKS``, the registry behind
``parkposet verify-all``, at the acceptance sizes: cardinality up to
n = 6, the Whitney numbers and Mobius value up to n = 5, everything
else up to n = 4 and k = 3.
Next to it the test pins the closed forms that the criterion checks
against to this module's own copies of them and to literal values.
"""

import time
from math import factorial

from parkposet.cli import VERIFY_CHECKS
from parkposet.enumeration import parking_character, prime_parking_character
from parkposet.homology import signed_prime_character
from parkposet.nc import class_representatives
from parkposet.numbers import binomial, chain_count, stirling2, whitney_first_kind


def run_criterion(number, name, nmax, kmax=3):
    """Run one registry criterion, print its [PASS]/[FAIL] line and
    return the seconds it took."""
    start = time.perf_counter()
    ok, detail = VERIFY_CHECKS[name](nmax, kmax)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {name}: {detail}")
    assert ok, detail
    return time.perf_counter() - start


def closed_chain_count(n, k, l):
    return factorial(l) * binomial(k * n, l) * stirling2(n, l + 1)


def test_criterion_01_cardinality():
    assert run_criterion(1, "cardinality", 6) < 60
    expected_values = {2: 3, 3: 16, 4: 125, 5: 1296, 6: 16807}
    for n, expected in expected_values.items():
        assert expected == (n + 1) ** (n - 1)


def test_criterion_02_whitney_second():
    run_criterion(2, "whitney-second", 5)
    for n in range(2, 6):
        for l in range(n):
            assert chain_count(n, 1, l) == closed_chain_count(n, 1, l)


def test_criterion_03_chain_formula():
    run_criterion(3, "chain-formula", 4)
    for n in range(2, 5):
        for k in range(1, 4):
            for l in range(n):
                assert chain_count(n, k, l) == closed_chain_count(n, k, l)


def test_criterion_04_whitney_first_mobius():
    run_criterion(4, "mobius-whitney-first", 5)
    for n in range(2, 6):
        for l in range(n):
            assert whitney_first_kind(n, l) == (
                (-1) ** l * factorial(l) * binomial(n + l - 1, l) * stirling2(n, l + 1)
            )


def test_criterion_05_shelling():
    assert run_criterion(5, "shelling", 4) < 600
    expected_chains = {2: 2, 3: 18, 4: 384}
    for n, chains in expected_chains.items():
        assert chains == factorial(n) * n ** (n - 2)


def test_criterion_06_homology():
    assert run_criterion(6, "homology-betti", 4) < 300
    for n, betti in ((3, (0, 0, 4)), (4, (0, 0, 0, 27))):
        assert betti == (0,) * (n - 1) + ((n - 1) ** (n - 1),)


def test_criterion_07_characters():
    run_criterion(7, "characters", 4)
    for n in range(2, 5):
        for perm in class_representatives(n):
            z = perm.num_cycles()
            assert signed_prime_character(n, 1, perm) == (
                (-1) ** (n - z) * (n - 1) ** (z - 1)
            )
            assert prime_parking_character(n, 1, perm) == (n - 1) ** (z - 1)
            for k in range(1, 4):
                assert parking_character(n, k, perm) == (k * n + 1) ** (z - 1)
                if n == 3:
                    assert prime_parking_character(n, k, perm) == (k * n - 1) ** (z - 1)


def test_criterion_08_series():
    run_criterion(8, "series", 4)
    for k in range(1, 4):
        for n in range(2, 7):
            for l in range(n):
                assert chain_count(n, k, l) == closed_chain_count(n, k, l)


def test_criterion_09_ktrees():
    run_criterion(9, "k-trees", 4)
    assert 49 == (2 * 3 + 1) ** (3 - 1)


def test_criterion_10_associahedron():
    run_criterion(10, "cluster", 4)


def test_criterion_11_kdivisible():
    run_criterion(11, "k-divisible", 4)


def test_criterion_12_permutahedron():
    run_criterion(12, "permutahedron", 4)
    expected_sizes = {2: 3, 3: 13, 4: 75}
    for n, size in expected_sizes.items():
        assert size == sum(factorial(j) * stirling2(n, j) for j in range(1, n + 1))
